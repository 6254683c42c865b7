//! Arbitrary-precision unsigned integers with `u64` limbs (little-endian).
//!
//! Implements exactly what Paillier needs: ring arithmetic, comparison,
//! shifts, binary long division, extended-Euclid modular inverse, and a slow
//! modular exponentiation fallback (the fast path lives in
//! [`crate::Montgomery`]). The representation invariant is *no trailing zero
//! limbs* (zero is the empty limb vector), which makes `Eq`/`Ord` and
//! `bits()` trivial.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// # Example
///
/// ```
/// use ppml_crypto::BigUint;
///
/// let a = BigUint::from(u64::MAX);
/// let b = &a + &a;
/// assert_eq!(b.to_string(), "36893488147419103230");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; no trailing zeros.
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds from little-endian limbs, normalizing trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Borrows the little-endian limbs (no trailing zeros).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// `true` iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// `true` iff the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// `true` iff the lowest bit is 0 (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Position of the highest set bit plus one (0 for the value 0).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => 64 * (self.limbs.len() - 1) + (64 - top.leading_zeros() as usize),
        }
    }

    /// Value of bit `i` (false beyond the top).
    pub fn bit(&self, i: usize) -> bool {
        self.limbs
            .get(i / 64)
            .is_some_and(|l| (l >> (i % 64)) & 1 == 1)
    }

    /// Sets bit `i` to 1, growing as needed.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1u64 << (i % 64);
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | ((self.limbs[1] as u128) << 64)),
            _ => None,
        }
    }

    /// Wrapping addition.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &l) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = l.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// Subtraction `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (unsigned underflow is always a logic error
    /// in this crate's call sites).
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint::sub underflow: {self} - {other}");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        BigUint::from_limbs(out)
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Right shift by `n` bits.
    pub fn shr(&self, n: usize) -> BigUint {
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = n % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        BigUint::from_limbs(out)
    }

    /// Quotient and remainder via binary long division.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        let shift = self.bits() - divisor.bits();
        let mut rem = self.clone();
        let mut den = divisor.shl(shift);
        let mut quot = BigUint::zero();
        for i in (0..=shift).rev() {
            if rem >= den {
                rem = rem.sub(&den);
                quot.set_bit(i);
            }
            den = den.shr(1);
        }
        (quot, rem)
    }

    /// `self mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// `(self + other) mod m`; operands must already be `< m`.
    pub fn mod_add(&self, other: &BigUint, m: &BigUint) -> BigUint {
        debug_assert!(self < m && other < m);
        let s = self.add(other);
        if &s >= m {
            s.sub(m)
        } else {
            s
        }
    }

    /// `(self - other) mod m`; operands must already be `< m`.
    #[cfg(test)]
    fn mod_sub(&self, other: &BigUint, m: &BigUint) -> BigUint {
        debug_assert!(self < m && other < m);
        if self >= other {
            self.sub(other)
        } else {
            self.add(m).sub(other)
        }
    }

    /// `(self * other) mod m`.
    pub fn mod_mul(&self, other: &BigUint, m: &BigUint) -> BigUint {
        self.mul(other).rem(m)
    }

    /// Modular exponentiation `self^exp mod m`.
    ///
    /// Uses Montgomery multiplication when `m` is odd (the common case for
    /// RSA/Paillier moduli) and falls back to binary square-and-multiply
    /// with full reductions otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn mod_pow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "zero modulus");
        if m.is_one() {
            return BigUint::zero();
        }
        if !m.is_even() {
            return crate::Montgomery::new(m).mod_pow(self, exp);
        }
        // Slow path for even moduli.
        let mut base = self.rem(m);
        let mut result = BigUint::one();
        for i in 0..exp.bits() {
            if exp.bit(i) {
                result = result.mod_mul(&base, m);
            }
            base = base.mod_mul(&base, m);
        }
        result
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        // Factor out common powers of two.
        let mut shift = 0usize;
        while a.is_even() && b.is_even() {
            a = a.shr(1);
            b = b.shr(1);
            shift += 1;
        }
        while a.is_even() {
            a = a.shr(1);
        }
        loop {
            while b.is_even() {
                b = b.shr(1);
            }
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.sub(&a);
            if b.is_zero() {
                return a.shl(shift);
            }
        }
    }

    /// Least common multiple.
    pub fn lcm(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        self.div_rem(&self.gcd(other)).0.mul(other)
    }

    /// Modular inverse `self⁻¹ mod m`, or `None` when `gcd(self, m) ≠ 1`.
    ///
    /// Extended Euclid with sign-tracked Bézout coefficients.
    pub fn mod_inv(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        // (old_r, r) and the Bézout coefficient of `self`: (sign, magnitude).
        let mut old_r = self.rem(m);
        let mut r = m.clone();
        let mut old_s = (false, BigUint::one()); // +1
        let mut s = (false, BigUint::zero()); // 0
        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            old_r = std::mem::replace(&mut r, rem);
            // new_s = old_s - q * s
            let qs = (s.0, q.mul(&s.1));
            let new_s = signed_sub(&old_s, &qs);
            old_s = std::mem::replace(&mut s, new_s);
        }
        if !old_r.is_one() {
            return None;
        }
        // old_s is the coefficient; normalize into [0, m).
        let (neg, mag) = old_s;
        let mag = mag.rem(m);
        Some(if neg && !mag.is_zero() {
            m.sub(&mag)
        } else {
            mag
        })
    }

    /// Big-endian bytes (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out: Vec<u8> = self
            .limbs
            .iter()
            .rev()
            .flat_map(|l| l.to_be_bytes())
            .collect();
        while out.first() == Some(&0) {
            out.remove(0);
        }
        out
    }

    /// Parses big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut buf = [0u8; 8];
            buf[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(buf));
        }
        BigUint::from_limbs(limbs)
    }
}

/// `a - b` over sign-magnitude pairs (`(negative, magnitude)`).
fn signed_sub(a: &(bool, BigUint), b: &(bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        // a - b with same effective op: (+a) - (+b) or (-a) - (-b)
        (an, bn) if an == bn => {
            if a.1 >= b.1 {
                (an, a.1.sub(&b.1))
            } else {
                (!an, b.1.sub(&a.1))
            }
        }
        // (+a) - (-b) = a + b ; (-a) - (+b) = -(a + b)
        (an, _) => (an, a.1.add(&b.1)),
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_limbs(vec![v])
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        o => return o,
                    }
                }
                Ordering::Equal
            }
            o => o,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl std::ops::Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        BigUint::add(self, rhs)
    }
}

impl std::ops::Sub for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        BigUint::sub(self, rhs)
    }
}

impl std::ops::Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        BigUint::mul(self, rhs)
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Repeated division by 10^19 (the largest power of ten in u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let chunk = BigUint::from(CHUNK);
        let mut parts = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem(&chunk);
            parts.push(r.to_u64().expect("remainder below u64 chunk"));
            cur = q;
        }
        let mut s = parts
            .pop()
            .expect("nonzero has at least one part")
            .to_string();
        for p in parts.iter().rev() {
            s.push_str(&format!("{p:019}"));
        }
        write!(f, "{s}")
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
        assert_eq!(BigUint::default(), BigUint::zero());
    }

    #[test]
    fn normalization_strips_trailing_zeros() {
        let a = BigUint::from_limbs(vec![5, 0, 0]);
        assert_eq!(a.limbs(), &[5]);
        assert_eq!(a, big(5));
    }

    #[test]
    fn add_sub_roundtrip_u128() {
        let cases: &[(u128, u128)] = &[
            (0, 0),
            (1, u64::MAX as u128),
            (u64::MAX as u128, u64::MAX as u128),
            (u128::MAX / 2, u128::MAX / 3),
        ];
        for &(x, y) in cases {
            let s = big(x).add(&big(y));
            assert_eq!(s.sub(&big(y)), big(x), "({x}, {y})");
        }
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = big(1).sub(&big(2));
    }

    #[test]
    fn mul_matches_u128() {
        let cases: &[(u64, u64)] = &[(0, 7), (u64::MAX, u64::MAX), (12345, 67890)];
        for &(x, y) in cases {
            assert_eq!(
                big(x as u128).mul(&big(y as u128)).to_u128().unwrap(),
                x as u128 * y as u128
            );
        }
    }

    #[test]
    fn mul_big_cross_check_via_distribution() {
        // (a + b)·c == a·c + b·c over multi-limb values.
        let a = BigUint::from_limbs(vec![u64::MAX, 123, 456]);
        let b = BigUint::from_limbs(vec![789, u64::MAX, 1]);
        let c = BigUint::from_limbs(vec![u64::MAX, u64::MAX]);
        let lhs = a.add(&b).mul(&c);
        let rhs = a.mul(&c).add(&b.mul(&c));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn shifts_are_mul_div_by_powers_of_two() {
        let a = BigUint::from_limbs(vec![0xDEADBEEF, 0xCAFE]);
        assert_eq!(a.shl(3), a.mul(&big(8)));
        assert_eq!(a.shl(64).shr(64), a);
        assert_eq!(a.shr(200), BigUint::zero());
        assert_eq!(big(0b1011).shr(1), big(0b101));
    }

    #[test]
    fn div_rem_identity() {
        let pairs: &[(u128, u128)] = &[
            (100, 7),
            (u128::MAX, 3),
            (u128::MAX, u64::MAX as u128),
            (5, 100),
        ];
        for &(x, y) in pairs {
            let (q, r) = big(x).div_rem(&big(y));
            assert_eq!(q.to_u128().unwrap(), x / y);
            assert_eq!(r.to_u128().unwrap(), x % y);
            // reconstruct
            assert_eq!(q.mul(&big(y)).add(&r), big(x));
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = big(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn mod_ops_match_u128() {
        let m = big(1_000_000_007);
        let a = big(999_999_999);
        let b = big(123_456_789);
        assert_eq!(
            a.mod_add(&b, &m).to_u128().unwrap(),
            (999_999_999 + 123_456_789) % 1_000_000_007
        );
        assert_eq!(
            a.mod_sub(&b, &m).to_u128().unwrap(),
            (999_999_999 - 123_456_789)
        );
        assert_eq!(
            b.mod_sub(&a, &m).to_u128().unwrap(),
            (1_000_000_007 + 123_456_789 - 999_999_999)
        );
        assert_eq!(
            a.mod_mul(&b, &m).to_u128().unwrap(),
            (999_999_999u128 * 123_456_789) % 1_000_000_007
        );
    }

    #[test]
    fn mod_pow_small_cases() {
        // 3^10 mod 1000 = 59049 mod 1000 = 49
        assert_eq!(big(3).mod_pow(&big(10), &big(1000)).to_u64().unwrap(), 49);
        // Fermat: a^(p-1) ≡ 1 mod p for prime p
        let p = big(1_000_000_007);
        assert!(big(12345).mod_pow(&big(1_000_000_006), &p).is_one());
        // even modulus path
        assert_eq!(
            big(7).mod_pow(&big(5), &big(100)).to_u64().unwrap(),
            16807 % 100
        );
        // modulus one
        assert!(big(5).mod_pow(&big(5), &BigUint::one()).is_zero());
    }

    #[test]
    fn gcd_lcm_known() {
        assert_eq!(big(48).gcd(&big(18)), big(6));
        assert_eq!(big(0).gcd(&big(5)), big(5));
        assert_eq!(big(7).gcd(&big(0)), big(7));
        assert_eq!(big(4).lcm(&big(6)), big(12));
        assert_eq!(big(0).lcm(&big(6)), BigUint::zero());
        // gcd of large powers of two
        assert_eq!(big(1 << 20).gcd(&big(1 << 13)), big(1 << 13));
    }

    #[test]
    fn mod_inv_roundtrip() {
        let m = big(1_000_000_007);
        for v in [2u128, 3, 999, 123_456_789] {
            let inv = big(v).mod_inv(&m).unwrap();
            assert!(big(v).mod_mul(&inv, &m).is_one(), "inverse of {v} failed");
        }
        // No inverse when sharing a factor.
        assert!(big(6).mod_inv(&big(9)).is_none());
        assert!(big(5).mod_inv(&BigUint::one()).is_none());
    }

    #[test]
    fn mod_inv_multi_limb() {
        // modulus = 2^128 - 159 (a known prime)
        let m = BigUint::from(u128::MAX - 158);
        let a = BigUint::from(0xDEADBEEF_CAFEBABE_u128);
        let inv = a.mod_inv(&m).unwrap();
        assert!(a.mod_mul(&inv, &m).is_one());
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(big(5) < big(6));
        assert!(BigUint::from_limbs(vec![0, 1]) > big(u64::MAX as u128));
        assert_eq!(big(7).cmp(&big(7)), Ordering::Equal);
    }

    #[test]
    fn display_decimal() {
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(big(12345).to_string(), "12345");
        assert_eq!(
            BigUint::from(u128::MAX).to_string(),
            "340282366920938463463374607431768211455"
        );
    }

    #[test]
    fn bytes_roundtrip() {
        let vals = [
            BigUint::zero(),
            big(1),
            big(0x0102030405060708090A0B0C0D0E0Fu128),
            BigUint::from_limbs(vec![u64::MAX, 1, u64::MAX]),
        ];
        for v in vals {
            assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v);
        }
    }

    #[test]
    fn bit_access() {
        let mut v = BigUint::zero();
        v.set_bit(100);
        assert!(v.bit(100));
        assert!(!v.bit(99));
        assert_eq!(v.bits(), 101);
        assert_eq!(v, BigUint::one().shl(100));
    }
}
