//! The byte-level codec: little-endian scalars, length-prefixed vectors.
//!
//! Two pieces live here. [`Wire`] is the encoding half — every value knows
//! its exact serialized size (`byte_len`) and how to append itself to a
//! buffer (`encode_into`). The impls deliberately reproduce the size
//! arithmetic of the old `ppml-mapreduce` `ByteSized` estimator (8-byte
//! length prefixes on vectors and strings, 1-byte `Option` tags), so the
//! byte counters that used to be *estimates* are now the lengths of real
//! encodings. [`Reader`] is the decoding half: a bounds-checked cursor used
//! by the frame codec.

/// A value with an exact wire encoding.
///
/// `byte_len` must equal the number of bytes `encode_into` appends — the
/// frame codec and the metrics layer both rely on that invariant.
pub trait Wire {
    /// Exact number of bytes the encoded value occupies.
    fn byte_len(&self) -> usize;

    /// Appends the little-endian encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Convenience: encodes into a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        self.encode_into(&mut out);
        out
    }
}

impl Wire for () {
    fn byte_len(&self) -> usize {
        0
    }
    fn encode_into(&self, _out: &mut Vec<u8>) {}
}

macro_rules! scalar_wire {
    ($($t:ty),*) => {
        $(impl Wire for $t {
            fn byte_len(&self) -> usize {
                std::mem::size_of::<$t>()
            }
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        })*
    };
}

scalar_wire!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Wire for usize {
    fn byte_len(&self) -> usize {
        std::mem::size_of::<usize>()
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u64).to_le_bytes());
    }
}

impl Wire for isize {
    fn byte_len(&self) -> usize {
        std::mem::size_of::<isize>()
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as i64).to_le_bytes());
    }
}

impl Wire for bool {
    fn byte_len(&self) -> usize {
        1
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn byte_len(&self) -> usize {
        8 + self.iter().map(Wire::byte_len).sum::<usize>()
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for item in self {
            item.encode_into(out);
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn byte_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::byte_len)
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }
}

impl Wire for String {
    fn byte_len(&self) -> usize {
        8 + self.len()
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        out.extend_from_slice(self.as_bytes());
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn byte_len(&self) -> usize {
        self.0.byte_len() + self.1.byte_len()
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn byte_len(&self) -> usize {
        self.0.byte_len() + self.1.byte_len() + self.2.byte_len()
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
        self.2.encode_into(out);
    }
}

impl<T: Wire + ?Sized> Wire for &T {
    fn byte_len(&self) -> usize {
        (*self).byte_len()
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        (*self).encode_into(out);
    }
}

/// Decoding failure: the buffer ran out or a length field was absurd.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes remained than the field required.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually left.
        available: usize,
    },
    /// A structurally invalid encoding (bad tag, oversized length, …).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated field: needed {needed} bytes, had {available}")
            }
            WireError::Malformed(what) => write!(f, "malformed encoding: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked little-endian cursor over an encoded buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated {
                needed: n,
                available: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a `bool` (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool tag not 0/1")),
        }
    }

    fn vec_len(&mut self) -> Result<usize, WireError> {
        let n = self.u64()?;
        // A length field cannot legitimately exceed the bytes that remain.
        if n > self.buf.len() as u64 {
            return Err(WireError::Malformed("vector length exceeds buffer"));
        }
        Ok(n as usize)
    }

    /// Reads an 8-byte length prefix followed by that many `u32`s.
    pub fn vec_u32(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.vec_len()?;
        (0..n).map(|_| self.u32()).collect()
    }

    /// Reads an 8-byte length prefix followed by that many `u64`s.
    pub fn vec_u64(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.vec_len()?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Reads an 8-byte length prefix followed by that many `f64`s.
    pub fn vec_f64(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.vec_len()?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Reads an 8-byte length prefix followed by that many raw bytes.
    pub fn byte_vec(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.vec_len()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        let bytes = self.byte_vec()?;
        String::from_utf8(bytes).map_err(|_| WireError::Malformed("invalid UTF-8"))
    }
}

/// A value the frame codec reads back off the wire; each impl is the one
/// [`Reader`] call for its type, so decoding has a single path.
pub(crate) trait Decode: Sized {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

macro_rules! decode_via {
    ($($t:ty => $read:ident),*) => {
        $(impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.$read()
            }
        })*
    };
}

decode_via!(
    u32 => u32,
    u64 => u64,
    bool => bool,
    Vec<u32> => vec_u32,
    Vec<u64> => vec_u64,
    Vec<f64> => vec_f64,
    Vec<u8> => byte_vec
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes_match_the_legacy_estimator() {
        assert_eq!(0u64.byte_len(), 8);
        assert_eq!(0f64.byte_len(), 8);
        assert_eq!(true.byte_len(), 1);
        assert_eq!(().byte_len(), 0);
    }

    #[test]
    fn container_sizes_match_the_legacy_estimator() {
        assert_eq!(vec![1.0f64; 4].byte_len(), 8 + 32);
        assert_eq!("abc".to_string().byte_len(), 11);
        assert_eq!((1u64, 2.0f64).byte_len(), 16);
        assert_eq!(Some(1u32).byte_len(), 5);
        assert_eq!(None::<u32>.byte_len(), 1);
    }

    #[test]
    fn nested_sizes_match_the_legacy_estimator() {
        let v: Vec<Vec<f64>> = vec![vec![0.0; 2], vec![0.0; 3]];
        assert_eq!(v.byte_len(), 8 + (8 + 16) + (8 + 24));
    }

    #[test]
    fn byte_len_equals_encoded_len() {
        let vals: Vec<Box<dyn Wire>> = vec![
            Box::new(42u64),
            Box::new(-1.5f64),
            Box::new(vec![1u64, 2, 3]),
            Box::new(vec![0.5f64; 7]),
            Box::new("hello".to_string()),
            Box::new(Some(9u32)),
            Box::new(None::<u64>),
            Box::new((1u8, 2u16, 3u32)),
            Box::new(true),
            Box::new(3usize),
        ];
        for v in &vals {
            assert_eq!(v.encode().len(), v.byte_len());
        }
    }

    #[test]
    fn round_trips() {
        let v = vec![1u64, u64::MAX, 7];
        let enc = v.encode();
        let mut r = Reader::new(&enc);
        assert_eq!(r.vec_u64().unwrap(), v);
        assert_eq!(r.remaining(), 0);

        let f = vec![0.25f64, -1e300, f64::MIN_POSITIVE];
        let enc = f.encode();
        assert_eq!(Reader::new(&enc).vec_f64().unwrap(), f);

        let p = vec![0u32, u32::MAX, 7];
        let enc = p.encode();
        assert_eq!(Reader::new(&enc).vec_u32().unwrap(), p);

        let s = "wire ✓".to_string();
        let enc = s.encode();
        assert_eq!(Reader::new(&enc).string().unwrap(), s);
    }

    #[test]
    fn truncated_reads_fail_cleanly() {
        let enc = vec![1u64, 2, 3].encode();
        assert!(Reader::new(&enc[..enc.len() - 1]).vec_u64().is_err());
        assert!(Reader::new(&[1, 2]).u32().is_err());
    }

    #[test]
    fn absurd_length_prefix_is_malformed_not_oom() {
        let mut enc = Vec::new();
        enc.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            Reader::new(&enc).vec_u64(),
            Err(WireError::Malformed("vector length exceeds buffer"))
        );
    }
}
