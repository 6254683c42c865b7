//! Fixed-point encoding between `f64` model coordinates and group elements.
//!
//! The secure-summation protocols operate over discrete groups — `Z_{2⁶⁴}`
//! for pairwise masking, `GF(2⁶¹ − 1)` for Shamir sharing, `Z_n` for
//! Paillier — while the learners' local models are real vectors. This
//! codec bridges the two: values are scaled by `2^scale_bits`, rounded,
//! and embedded two's-complement style (negative `v` becomes
//! `modulus − |v|`).
//!
//! Correctness of an aggregate decode requires that the *sum* of encoded
//! magnitudes stays below half the group order; the codec enforces a
//! per-value magnitude limit at encode time so that any sum of up to
//! [`FixedPointCodec::max_parties`] values is safe.

use crate::shamir::MODULUS;
use crate::{BigUint, CryptoError, Result};

/// Converter between `f64` values and fixed-point group elements.
///
/// # Example
///
/// ```
/// use ppml_crypto::FixedPointCodec;
///
/// # fn main() -> Result<(), ppml_crypto::CryptoError> {
/// let codec = FixedPointCodec::default();
/// let a = codec.encode_u64(1.5)?;
/// let b = codec.encode_u64(-0.25)?;
/// let sum = a.wrapping_add(b);
/// assert!((codec.decode_u64(sum) - 1.25).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedPointCodec {
    scale_bits: u32,
}

impl Default for FixedPointCodec {
    /// 2⁻³² resolution: plenty for SVM weights while leaving headroom for
    /// sums over thousands of parties.
    fn default() -> Self {
        FixedPointCodec { scale_bits: 32 }
    }
}

impl FixedPointCodec {
    /// Creates a codec with the given fractional precision.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ scale_bits ≤ 48` (beyond 48 the headroom for
    /// aggregation disappears).
    pub fn new(scale_bits: u32) -> Self {
        assert!(
            (1..=48).contains(&scale_bits),
            "scale_bits must be in 1..=48, got {scale_bits}"
        );
        FixedPointCodec { scale_bits }
    }

    /// The scale factor `2^scale_bits`.
    pub fn scale(&self) -> f64 {
        (1u64 << self.scale_bits) as f64
    }

    /// Absolute resolution of the encoding.
    pub fn resolution(&self) -> f64 {
        1.0 / self.scale()
    }

    /// Largest magnitude a single value may have: `2⁶² / scale / max_parties`
    /// — guarantees sums of up to [`Self::max_parties`] encodings cannot
    /// wrap past the sign boundary.
    fn max_value(&self) -> f64 {
        (1u64 << 62) as f64 / self.scale() / Self::max_parties() as f64
    }

    /// Number of values whose sum is guaranteed decodable.
    pub const fn max_parties() -> usize {
        1 << 12
    }

    /// Encodes into a signed 64-bit fixed-point integer.
    ///
    /// # Errors
    ///
    /// [`CryptoError::ValueOutOfRange`] for non-finite input or magnitude
    /// above `2⁶² / scale / max_parties` (see [`Self::max_parties`]).
    pub fn encode_i64(&self, v: f64) -> Result<i64> {
        if !v.is_finite() || v.abs() > self.max_value() {
            return Err(CryptoError::ValueOutOfRange {
                value: format!("{v}"),
                limit: format!("{}", self.max_value()),
            });
        }
        Ok((v * self.scale()).round() as i64)
    }

    /// Decodes a signed fixed-point integer back to `f64`.
    pub fn decode_i64(&self, v: i64) -> f64 {
        v as f64 / self.scale()
    }

    /// Encodes into `Z_{2⁶⁴}` (two's-complement reinterpretation).
    ///
    /// # Errors
    ///
    /// As [`Self::encode_i64`].
    pub fn encode_u64(&self, v: f64) -> Result<u64> {
        Ok(self.encode_i64(v)? as u64)
    }

    /// Decodes an element of `Z_{2⁶⁴}` (a wrapped sum of encodings).
    pub fn decode_u64(&self, v: u64) -> f64 {
        self.decode_i64(v as i64)
    }

    /// Encodes into `GF(2⁶¹ − 1)` for Shamir sharing (two's-complement
    /// style around the Mersenne modulus), so field sums decode to the
    /// same result as wrapping sums in `Z_{2⁶⁴}` while every value stays in
    /// range.
    ///
    /// # Errors
    ///
    /// As [`Self::encode_i64`].
    pub fn encode_field(&self, v: f64) -> Result<u64> {
        let i = self.encode_i64(v)?;
        Ok(if i >= 0 {
            i as u64 % MODULUS
        } else {
            MODULUS - (i.unsigned_abs() % MODULUS)
        })
    }

    /// Decodes an element of `GF(2⁶¹ − 1)` (a field sum of
    /// [`Self::encode_field`] values): values above `p/2` are negative.
    pub fn decode_field(&self, v: u64) -> f64 {
        if v > MODULUS / 2 {
            -self.decode_i64((MODULUS - v) as i64)
        } else {
            self.decode_i64(v as i64)
        }
    }

    /// Encodes into `Z_n` for the Paillier backend: negatives map to
    /// `n − |v|`.
    ///
    /// # Errors
    ///
    /// As [`Self::encode_i64`]; additionally the modulus must exceed 2⁶⁴
    /// (always true for valid Paillier keys).
    pub fn encode_group(&self, v: f64, modulus: &BigUint) -> Result<BigUint> {
        if modulus.bits() <= 64 {
            return Err(CryptoError::ProtocolMisuse {
                reason: "group modulus must exceed 64 bits",
            });
        }
        let i = self.encode_i64(v)?;
        Ok(if i >= 0 {
            BigUint::from(i as u64)
        } else {
            modulus.sub(&BigUint::from(i.unsigned_abs()))
        })
    }

    /// Decodes an element of `Z_n`: values above `n/2` are negative.
    ///
    /// # Errors
    ///
    /// [`CryptoError::AggregateOverflow`] when the centered magnitude does
    /// not fit in an `i64` — the aggregate exceeded the representable range.
    pub fn decode_group(&self, v: &BigUint, modulus: &BigUint) -> Result<f64> {
        let half = modulus.shr(1);
        let (neg, mag) = if v > &half {
            (true, modulus.sub(v))
        } else {
            (false, v.clone())
        };
        let m = mag.to_u64().ok_or(CryptoError::AggregateOverflow)?;
        if m > i64::MAX as u64 {
            return Err(CryptoError::AggregateOverflow);
        }
        let val = self.decode_i64(m as i64);
        Ok(if neg { -val } else { val })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shamir;

    #[test]
    fn i64_roundtrip_within_resolution() {
        let c = FixedPointCodec::default();
        for v in [0.0, 1.0, -1.0, 3.140625, -2.703125, 1e3, -999.999] {
            let back = c.decode_i64(c.encode_i64(v).unwrap());
            assert!((back - v).abs() <= c.resolution(), "{v} -> {back}");
        }
    }

    #[test]
    fn u64_wrapping_sums_decode_correctly() {
        let c = FixedPointCodec::default();
        let vals = [1.5, -3.25, 2.0, -0.125, 10.0];
        let sum_enc = vals
            .iter()
            .map(|&v| c.encode_u64(v).unwrap())
            .fold(0u64, u64::wrapping_add);
        let want: f64 = vals.iter().sum();
        assert!((c.decode_u64(sum_enc) - want).abs() < 1e-6);
    }

    #[test]
    fn rejects_out_of_range_and_non_finite() {
        let c = FixedPointCodec::default();
        assert!(c.encode_i64(f64::NAN).is_err());
        assert!(c.encode_i64(f64::INFINITY).is_err());
        assert!(c.encode_i64(c.max_value() * 2.0).is_err());
        assert!(c.encode_i64(c.max_value() * 0.5).is_ok());
    }

    #[test]
    fn group_roundtrip_with_negatives() {
        let c = FixedPointCodec::default();
        // 128-bit modulus stand-in.
        let n = BigUint::one().shl(127).sub(&BigUint::one());
        for v in [0.0, 5.25, -5.25, 1000.0, -1000.0] {
            let e = c.encode_group(v, &n).unwrap();
            let back = c.decode_group(&e, &n).unwrap();
            assert!((back - v).abs() <= c.resolution(), "{v} -> {back}");
        }
    }

    #[test]
    fn group_sum_matches_plain_sum() {
        let c = FixedPointCodec::default();
        let n = BigUint::one().shl(127).sub(&BigUint::one());
        let vals = [1.0, -2.5, 0.75];
        let mut acc = BigUint::zero();
        for &v in &vals {
            acc = acc.mod_add(&c.encode_group(v, &n).unwrap(), &n);
        }
        let got = c.decode_group(&acc, &n).unwrap();
        assert!((got - (-0.75)).abs() < 1e-6);
    }

    #[test]
    fn group_requires_big_modulus() {
        let c = FixedPointCodec::default();
        let small = BigUint::from(12345u64);
        assert!(c.encode_group(1.0, &small).is_err());
    }

    #[test]
    fn decode_group_sign_flips_just_above_half_modulus() {
        // Values ≤ n/2 are positive, strictly above are negative. Use a
        // 2⁴⁰ modulus so both sides of the boundary have magnitudes that
        // fit an i64 and actually decode.
        let c = FixedPointCodec::default();
        let n = BigUint::one().shl(40);
        let half = n.shr(1); // 2³⁹, exactly n/2
        let at_half = c.decode_group(&half, &n).unwrap();
        assert!((at_half - 128.0).abs() < 1e-9, "at n/2: {at_half}");
        let just_above = c.decode_group(&half.add(&BigUint::one()), &n).unwrap();
        assert!(just_above < 0.0, "above n/2 must be negative: {just_above}");
        // n − (half + 1) = 2³⁹ − 1, one resolution step short of −128.
        let want = -(((1u64 << 39) - 1) as f64) / c.scale();
        assert!((just_above - want).abs() < 1e-9, "{just_above} vs {want}");
    }

    #[test]
    fn decode_group_overflow_at_i64_boundary() {
        let c = FixedPointCodec::default();
        let n = BigUint::one().shl(127).sub(&BigUint::one());
        // Centered magnitude of exactly i64::MAX still decodes...
        let at_max = BigUint::from(i64::MAX as u64);
        assert!(c.decode_group(&at_max, &n).is_ok());
        // ...one above (2⁶³ fits a u64 but not an i64) overflows...
        let above = BigUint::from(i64::MAX as u64).add(&BigUint::one());
        assert!(matches!(
            c.decode_group(&above, &n),
            Err(CryptoError::AggregateOverflow)
        ));
        // ...and so does a magnitude too wide for u64 entirely (2⁷⁰),
        // on either side of the sign boundary.
        let wide = BigUint::one().shl(70);
        assert!(matches!(
            c.decode_group(&wide, &n),
            Err(CryptoError::AggregateOverflow)
        ));
        let wide_neg = n.sub(&wide); // > n/2, magnitude 2⁷⁰
        assert!(matches!(
            c.decode_group(&wide_neg, &n),
            Err(CryptoError::AggregateOverflow)
        ));
    }

    #[test]
    fn field_encode_decode_roundtrip() {
        let c = FixedPointCodec::default();
        for v in [0.0, 1.5, -1.5, 1024.25, -4096.75] {
            let enc = c.encode_field(v).unwrap();
            assert!(enc < MODULUS);
            assert_eq!(c.decode_field(enc), v, "roundtrip of {v}");
        }
    }

    #[test]
    fn threshold_handles_negative_values() {
        // Two parties' field encodings, each split 2-of-2 and summed share
        // by share: a sum of shares is a share of the sum, and negative
        // totals decode through the upper half of the field.
        let c = FixedPointCodec::default();
        let mut rng = ppml_data::rng::Rng64::new(12);
        let inputs = [[-5.5, 2.0], [1.5, -3.0]];
        for (i, want) in [-4.0, -1.0].into_iter().enumerate() {
            let mut held = [0u64; 2];
            for party in &inputs {
                let enc = c.encode_field(party[i]).unwrap();
                for (h, s) in held
                    .iter_mut()
                    .zip(shamir::split(enc, 2, 2, &mut rng).unwrap())
                {
                    *h = shamir::field_add(*h, s.y);
                }
            }
            let column: Vec<shamir::Share> = (0..2)
                .map(|j| shamir::Share {
                    x: j as u64 + 1,
                    y: held[j],
                })
                .collect();
            let sum = c.decode_field(shamir::reconstruct(&column).unwrap());
            assert_eq!(sum, want);
        }
    }

    #[test]
    fn scale_parameters() {
        let c = FixedPointCodec::new(16);
        assert_eq!(c.scale_bits, 16);
        assert_eq!(c.scale(), 65536.0);
        assert!(c.max_value() > 1e6);
    }

    #[test]
    #[should_panic(expected = "scale_bits")]
    fn rejects_extreme_scale() {
        FixedPointCodec::new(60);
    }
}
