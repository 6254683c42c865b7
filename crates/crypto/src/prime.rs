//! Probabilistic primality testing and random prime generation.

use ppml_data::rng::Rng64;

use crate::{BigUint, Montgomery};

/// Deterministic witnesses sufficient for all 64-bit integers, also used as
/// the first batch for larger candidates before the random rounds.
const SMALL_WITNESSES: &[u64] = &[2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];

/// Small primes for cheap trial division before Miller–Rabin.
const TRIAL_PRIMES: &[u64] = &[
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199,
];

/// Miller–Rabin primality test with `rounds` random bases (on top of a fixed
/// deterministic base set and trial division).
///
/// For candidates below 2⁶⁴ the fixed base set makes the answer
/// deterministic; above that the error probability is at most `4^-rounds`.
pub fn is_probable_prime(n: &BigUint, rounds: usize, rng: &mut Rng64) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    for &p in TRIAL_PRIMES {
        // n mod p, folding the limbs from the top through `u128 % p`.
        let fold = |r: u64, &l: &u64| (((r as u128) << 64 | l as u128) % p as u128) as u64;
        if n.limbs().iter().rev().fold(0, fold) == 0 {
            return n.to_u64() == Some(p);
        }
    }
    // Write n-1 = d·2^s with d odd.
    let n_minus_1 = n.sub(&BigUint::one());
    let s = trailing_zeros(&n_minus_1);
    let d = n_minus_1.shr(s);
    let mont = Montgomery::new(n);

    let witness_passes = |a: &BigUint| -> bool {
        let a = a.rem(n);
        if a.is_zero() || a.is_one() || a == n_minus_1 {
            return true;
        }
        let mut x = mont.mod_pow(&a, &d);
        if x.is_one() || x == n_minus_1 {
            return true;
        }
        for _ in 1..s {
            x = mont.mod_mul(&x, &x);
            if x == n_minus_1 {
                return true;
            }
            if x.is_one() {
                // Nontrivial square root of 1 → composite.
                return false;
            }
        }
        false
    };

    for &w in SMALL_WITNESSES {
        if !witness_passes(&BigUint::from(w)) {
            return false;
        }
    }
    if n.bits() <= 64 {
        // Deterministic for 64-bit inputs with the base set above.
        return true;
    }
    for _ in 0..rounds {
        let a = random_below(&n_minus_1, rng).add(&BigUint::one()); // in [1, n-1]
        if !witness_passes(&a) {
            return false;
        }
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits (top and
/// bottom bits forced to 1).
///
/// # Panics
///
/// Panics if `bits < 8` — such primes are pointless for the cryptosystems
/// here and break the "top bit set" construction.
pub fn gen_prime(bits: usize, rng: &mut Rng64) -> BigUint {
    assert!(bits >= 8, "prime size below 8 bits is not supported");
    loop {
        let mut c = random_bits(bits, rng);
        c.set_bit(0); // odd
        c.set_bit(bits - 1); // exact bit length
        if is_probable_prime(&c, 16, rng) {
            return c;
        }
    }
}

/// Uniform value in `[0, bound)` by rejection sampling.
///
/// # Panics
///
/// Panics if `bound` is zero.
pub(crate) fn random_below(bound: &BigUint, rng: &mut Rng64) -> BigUint {
    assert!(!bound.is_zero(), "empty sampling range");
    let bits = bound.bits();
    loop {
        let c = random_bits_at_most(bits, rng);
        if &c < bound {
            return c;
        }
    }
}

/// Random value with exactly the given number of limbs' worth of entropy,
/// truncated to `bits` bits (top bit *not* forced).
fn random_bits_at_most(bits: usize, rng: &mut Rng64) -> BigUint {
    let limbs = bits.div_ceil(64);
    let mut v: Vec<u64> = (0..limbs).map(|_| rng.next_u64()).collect();
    let extra = limbs * 64 - bits;
    if extra > 0 {
        if let Some(top) = v.last_mut() {
            *top >>= extra;
        }
    }
    BigUint::from_limbs(v)
}

/// Random value of at most `bits` bits (uniform over `[0, 2^bits)`).
fn random_bits(bits: usize, rng: &mut Rng64) -> BigUint {
    random_bits_at_most(bits, rng)
}

fn trailing_zeros(n: &BigUint) -> usize {
    debug_assert!(!n.is_zero());
    let mut count = 0;
    for &l in n.limbs() {
        if l == 0 {
            count += 64;
        } else {
            return count + l.trailing_zeros() as usize;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    fn rng() -> Rng64 {
        Rng64::new(42)
    }

    #[test]
    fn small_primes_and_composites() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 97, 101, 10_007, 1_000_000_007] {
            assert!(is_probable_prime(&BigUint::from(p), 8, &mut r), "{p}");
        }
        for c in [0u64, 1, 4, 100, 561 /* Carmichael */, 1_000_000_008] {
            assert!(!is_probable_prime(&BigUint::from(c), 8, &mut r), "{c}");
        }
    }

    #[test]
    fn strong_pseudoprimes_rejected() {
        let mut r = rng();
        // 3215031751 is the smallest strong pseudoprime to bases 2,3,5,7 —
        // must still be caught by the wider base set.
        assert!(!is_probable_prime(
            &BigUint::from(3_215_031_751u64),
            8,
            &mut r
        ));
        // 2^67 - 1 = 193707721 × 761838257287 (famous Mersenne composite).
        let m67 = BigUint::one().shl(67).sub(&BigUint::one());
        assert!(!is_probable_prime(&m67, 8, &mut r));
    }

    #[test]
    fn mersenne_prime_accepted() {
        let mut r = rng();
        let m127 = BigUint::one().shl(127).sub(&BigUint::one());
        assert!(is_probable_prime(&m127, 8, &mut r));
    }

    #[test]
    fn generated_primes_have_exact_bit_length() {
        let mut r = rng();
        for bits in [32usize, 64, 128] {
            let p = gen_prime(bits, &mut r);
            assert_eq!(p.bits(), bits, "{p}");
            assert!(!p.is_even());
            assert!(is_probable_prime(&p, 8, &mut r));
        }
    }

    #[test]
    fn random_below_respects_bound() {
        let mut r = rng();
        let bound = BigUint::from(1000u64);
        for _ in 0..200 {
            assert!(random_below(&bound, &mut r) < bound);
        }
    }

    #[test]
    fn trailing_zeros_counts() {
        assert_eq!(trailing_zeros(&BigUint::from(8u64)), 3);
        assert_eq!(trailing_zeros(&BigUint::one().shl(100)), 100);
        assert_eq!(trailing_zeros(&BigUint::from(7u64)), 0);
    }
}
