//! Montgomery modular multiplication and exponentiation for odd moduli.
//!
//! Paillier spends essentially all of its time in `mod_pow` over `n²`; with
//! schoolbook reduction each step costs a full long division. Montgomery's
//! REDC replaces those divisions with shifts, making keygen/enc/dec usable
//! at realistic key sizes.

use crate::BigUint;

/// Precomputed Montgomery context for a fixed odd modulus.
///
/// # Example
///
/// ```
/// use ppml_crypto::{BigUint, Montgomery};
///
/// let m = BigUint::from(1_000_000_007u64); // odd prime
/// let ctx = Montgomery::new(&m);
/// let r = ctx.mod_pow(&BigUint::from(3u64), &BigUint::from(10u64));
/// assert_eq!(r.to_u64(), Some(59049 % 1_000_000_007));
/// ```
#[derive(Debug, Clone)]
pub struct Montgomery {
    /// The modulus `n` (odd, > 1).
    n: BigUint,
    /// Limb count `k`; `R = 2^(64k)`.
    k: usize,
    /// `n' = -n⁻¹ mod 2⁶⁴`.
    n_prime: u64,
    /// `R² mod n` as `k` limbs, for conversion into the Montgomery domain.
    r2: Vec<u64>,
}

/// Exponent bits consumed per table lookup in [`Montgomery::mod_pow`];
/// divides 64, so a window (bit offset `i`) never straddles two limbs.
const WINDOW: usize = 4;

impl Montgomery {
    /// Builds a context for the odd modulus `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even or `n <= 1`; callers in this crate always pass
    /// RSA-style moduli.
    pub fn new(n: &BigUint) -> Self {
        assert!(!n.is_even(), "Montgomery requires an odd modulus");
        assert!(!n.is_one() && !n.is_zero(), "modulus must exceed 1");
        let k = n.limbs().len();
        let n0 = n.limbs()[0];
        // Newton's iteration: doubles correct bits each round; 6 rounds
        // suffice for 64 bits starting from the 3-bit-correct seed `n0`.
        let mut inv = n0;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        // R² mod n via shifting (one-time cost).
        let mut r2 = BigUint::one().shl(64 * k * 2).rem(n).limbs().to_vec();
        r2.resize(k, 0);
        Montgomery {
            n: n.clone(),
            k,
            n_prime: inv.wrapping_neg(),
            r2,
        }
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// `a mod n` as exactly `k` limbs.
    fn residue(&self, a: &BigUint) -> Vec<u64> {
        let mut limbs = a.rem(&self.n).limbs().to_vec();
        limbs.resize(self.k, 0);
        limbs
    }

    /// The Montgomery product `a · b · R⁻¹ mod n` of two `k`-limb residues,
    /// left in `t[..k]`; `t` is `k + 2` limbs of caller-owned scratch.
    /// CIOS: each limb of `b` is multiplied in and one limb of the running
    /// sum reduced away in the same pass, so the sum never outgrows `t`.
    fn mul_into(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let (k, n) = (self.k, self.n.limbs());
        let (a, t) = (&a[..k], &mut t[..k + 2]);
        t.fill(0);
        for &bi in &b[..k] {
            let mut carry = 0u128;
            for (tj, &aj) in t.iter_mut().zip(a) {
                let v = *tj as u128 + aj as u128 * bi as u128 + carry;
                *tj = v as u64;
                carry = v >> 64;
            }
            let v = t[k] as u128 + carry;
            t[k] = v as u64;
            t[k + 1] = (v >> 64) as u64;
            // t += m·n makes the low limb zero; drop it (divide by 2⁶⁴).
            let m = t[0].wrapping_mul(self.n_prime);
            let mut carry = (t[0] as u128 + m as u128 * n[0] as u128) >> 64;
            for j in 1..k {
                let v = t[j] as u128 + m as u128 * n[j] as u128 + carry;
                t[j - 1] = v as u64;
                carry = v >> 64;
            }
            let v = t[k] as u128 + carry;
            t[k - 1] = v as u64;
            t[k] = t[k + 1] + (v >> 64) as u64;
        }
        // The sum is below 2n: one conditional subtraction finishes.
        if t[k] != 0 || t[..k].iter().rev().ge(n.iter().rev()) {
            let mut borrow = 0u128;
            for (tj, &nj) in t.iter_mut().zip(n) {
                let d = (*tj as u128).wrapping_sub(nj as u128 + borrow);
                *tj = d as u64;
                borrow = d >> 127;
            }
        }
    }

    /// `base^exp mod n` by fixed 4-bit windows, left to right, in the
    /// Montgomery domain. The table and two swap buffers are allocated up
    /// front; the exponent loop allocates nothing.
    pub fn mod_pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one().rem(&self.n);
        }
        let k = self.k;
        let one = self.residue(&BigUint::one());
        let (mut acc, mut tmp) = (vec![0u64; k + 2], vec![0u64; k + 2]);
        // table[w·k..][..k] = base^w · R mod n, from 1·R and base·R.
        let mut table = vec![0u64; k << WINDOW];
        self.mul_into(&one, &self.r2, &mut acc);
        self.mul_into(&self.residue(base), &self.r2, &mut tmp);
        table[..k].copy_from_slice(&acc[..k]);
        for w in 1..1 << WINDOW {
            self.mul_into(&table[(w - 1) * k..], &tmp, &mut acc);
            table[w * k..][..k].copy_from_slice(&acc[..k]);
        }
        let window = |i: usize| (exp.limbs()[i / 64] >> (i % 64)) as usize % (1 << WINDOW);
        let top = (exp.bits() - 1) / WINDOW * WINDOW;
        acc[..k].copy_from_slice(&table[window(top) * k..][..k]);
        for i in (0..top).step_by(WINDOW).rev() {
            for _ in 0..WINDOW {
                self.mul_into(&acc, &acc, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            // A zero window multiplies by one and is skipped: like the
            // table index this depends on the exponent — not constant time.
            if window(i) != 0 {
                self.mul_into(&acc, &table[window(i) * k..], &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        self.mul_into(&acc, &one, &mut tmp);
        tmp.truncate(k);
        BigUint::from_limbs(tmp)
    }

    /// `a · b mod n` through one round-trip into the Montgomery domain.
    pub fn mod_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let (mut ma, mut out) = (vec![0u64; self.k + 2], vec![0u64; self.k + 2]);
        self.mul_into(&self.residue(a), &self.r2, &mut ma);
        self.mul_into(&ma, &self.residue(b), &mut out);
        out.truncate(self.k);
        BigUint::from_limbs(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_slow_mod_pow_small() {
        let m = BigUint::from(10_007u64); // odd prime
        let ctx = Montgomery::new(&m);
        for base in [0u64, 1, 2, 9999, 12345] {
            for exp in [0u64, 1, 2, 17, 5000] {
                let fast = ctx.mod_pow(&BigUint::from(base), &BigUint::from(exp));
                // Reference: repeated mod_mul without Montgomery.
                let mut r = BigUint::one();
                for _ in 0..exp {
                    r = r.mod_mul(&BigUint::from(base), &m);
                }
                assert_eq!(fast, r, "base {base}, exp {exp}");
            }
        }
    }

    #[test]
    fn matches_u128_arithmetic() {
        let m = BigUint::from(0xFFFF_FFFF_FFFF_FFC5u64); // 2^64 - 59 (prime)
        let ctx = Montgomery::new(&m);
        let a = 0x1234_5678_9ABC_DEFFu64;
        let got = ctx.mod_mul(&BigUint::from(a), &BigUint::from(a));
        let want = ((a as u128 * a as u128) % 0xFFFF_FFFF_FFFF_FFC5u128) as u64;
        assert_eq!(got.to_u64(), Some(want));
    }

    #[test]
    fn fermat_on_multi_limb_prime() {
        // 2^127 - 1 is a Mersenne prime.
        let p = BigUint::one().shl(127).sub(&BigUint::one());
        let ctx = Montgomery::new(&p);
        let exp = p.sub(&BigUint::one());
        assert!(ctx.mod_pow(&BigUint::from(3u64), &exp).is_one());
    }

    #[test]
    fn zero_and_one_exponents() {
        let m = BigUint::from(101u64);
        let ctx = Montgomery::new(&m);
        assert!(ctx.mod_pow(&BigUint::from(7u64), &BigUint::zero()).is_one());
        assert_eq!(
            ctx.mod_pow(&BigUint::from(7u64), &BigUint::one()).to_u64(),
            Some(7)
        );
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn rejects_even_modulus() {
        Montgomery::new(&BigUint::from(10u64));
    }
}
