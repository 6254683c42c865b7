//! Shamir threshold secret sharing over the Mersenne field `GF(2⁶¹ − 1)`.
//!
//! The paper's pairwise-masking protocol breaks if a mapper drops out
//! mid-iteration: its pads never cancel and the reducer's sum is garbage.
//! Production secure-aggregation systems fix this by secret-sharing each
//! party's recovery material with a `t`-of-`n` threshold, so any `t`
//! survivors can reconstruct the missing contribution (or its pads). This
//! module provides that primitive; `ppml_core::secagg`'s `shamir` backend
//! builds its dropout-tolerant round on it (values enter the field through
//! [`crate::FixedPointCodec::encode_field`]).
//!
//! Arithmetic is over `p = 2⁶¹ − 1` (a Mersenne prime), which makes
//! reduction two shifts and an add — fast enough to share whole model
//! vectors.

use ppml_data::rng::Rng64;

use crate::{CryptoError, Result};

/// The field modulus `p = 2⁶¹ − 1`.
pub const MODULUS: u64 = (1 << 61) - 1;

/// Reduction modulo the Mersenne prime.
fn reduce(x: u128) -> u64 {
    // x = hi·2⁶¹ + lo ≡ hi + lo (mod 2⁶¹−1); two rounds reach < 2p.
    let mut r = (x >> 61) + (x & MODULUS as u128);
    r = (r >> 61) + (r & MODULUS as u128);
    let mut v = r as u64;
    if v >= MODULUS {
        v -= MODULUS;
    }
    v
}

fn add(a: u64, b: u64) -> u64 {
    reduce(a as u128 + b as u128)
}

/// Field addition `a + b mod 2⁶¹ − 1`, for summing shares (Shamir sharing
/// is linear: a sum of shares at the same `x` is a share of the sum).
/// Inputs need not be pre-reduced.
pub fn field_add(a: u64, b: u64) -> u64 {
    add(a, b)
}

/// Field subtraction `a − b mod 2⁶¹ − 1`, for removing blinding pads from
/// relayed shares. Inputs need not be pre-reduced.
pub fn field_sub(a: u64, b: u64) -> u64 {
    sub(a, b)
}

fn mul(a: u64, b: u64) -> u64 {
    reduce(a as u128 * b as u128)
}

fn sub(a: u64, b: u64) -> u64 {
    add(a, MODULUS - b % MODULUS)
}

/// Modular inverse by Fermat (p is prime).
fn inv(a: u64) -> Result<u64> {
    if a.is_multiple_of(MODULUS) {
        return Err(CryptoError::NotInvertible);
    }
    // a^(p-2) mod p by square-and-multiply.
    let mut base = a % MODULUS;
    let mut exp = MODULUS - 2;
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
        exp >>= 1;
    }
    Ok(acc)
}

/// One party's share: the evaluation point `x` (1-based party index) and
/// the polynomial value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Share {
    /// Evaluation point (party index, `≥ 1`).
    pub x: u64,
    /// `f(x)` over the field.
    pub y: u64,
}

/// Splits `secret` into `n` shares with reconstruction threshold `t`
/// (any `t` shares recover it; `t − 1` reveal nothing).
///
/// # Errors
///
/// [`CryptoError::ProtocolMisuse`] unless `1 ≤ t ≤ n` and `n < MODULUS`;
/// [`CryptoError::ValueOutOfRange`] when `secret ≥ MODULUS`.
///
/// # Example
///
/// ```
/// use ppml_crypto::shamir::{reconstruct, split};
/// use ppml_data::rng::Rng64;
///
/// # fn main() -> Result<(), ppml_crypto::CryptoError> {
/// let mut rng = Rng64::new(1);
/// let shares = split(42, 3, 5, &mut rng)?;   // 3-of-5
/// let got = reconstruct(&shares[1..4])?;      // any 3 suffice
/// assert_eq!(got, 42);
/// # Ok(())
/// # }
/// ```
pub fn split(secret: u64, t: usize, n: usize, rng: &mut Rng64) -> Result<Vec<Share>> {
    if t == 0 || t > n {
        return Err(CryptoError::ProtocolMisuse {
            reason: "threshold must satisfy 1 <= t <= n",
        });
    }
    if n as u64 >= MODULUS {
        return Err(CryptoError::ProtocolMisuse {
            reason: "too many parties for the field",
        });
    }
    if secret >= MODULUS {
        return Err(CryptoError::ValueOutOfRange {
            value: secret.to_string(),
            limit: MODULUS.to_string(),
        });
    }
    // Random polynomial of degree t-1 with constant term = secret.
    let coeffs: Vec<u64> = std::iter::once(secret)
        .chain((1..t).map(|_| rng.below(MODULUS)))
        .collect();
    Ok((1..=n as u64)
        .map(|x| {
            // Horner evaluation.
            let mut y = 0u64;
            for &c in coeffs.iter().rev() {
                y = add(mul(y, x), c);
            }
            Share { x, y }
        })
        .collect())
}

/// Reconstructs the secret from at least `t` shares (Lagrange interpolation
/// at zero). Passing shares from different splits yields garbage, not an
/// error — threshold schemes cannot detect that.
///
/// # Errors
///
/// [`CryptoError::ProtocolMisuse`] on an empty share set or duplicated
/// evaluation points.
pub fn reconstruct(shares: &[Share]) -> Result<u64> {
    if shares.is_empty() {
        return Err(CryptoError::ProtocolMisuse {
            reason: "no shares supplied",
        });
    }
    for (i, a) in shares.iter().enumerate() {
        for b in &shares[i + 1..] {
            if a.x == b.x {
                return Err(CryptoError::ProtocolMisuse {
                    reason: "duplicate share point",
                });
            }
        }
    }
    let mut secret = 0u64;
    for (i, si) in shares.iter().enumerate() {
        // Lagrange basis at x = 0: Π_{j≠i} x_j / (x_j − x_i).
        let mut num = 1u64;
        let mut den = 1u64;
        for (j, sj) in shares.iter().enumerate() {
            if i == j {
                continue;
            }
            num = mul(num, sj.x % MODULUS);
            den = mul(den, sub(sj.x % MODULUS, si.x % MODULUS));
        }
        let basis = mul(num, inv(den)?);
        secret = add(secret, mul(si.y, basis));
    }
    Ok(secret)
}

/// Splits a whole vector, producing per-party share vectors
/// (`result[party][coordinate]`).
///
/// # Errors
///
/// As [`split`].
pub fn split_vector(
    values: &[u64],
    t: usize,
    n: usize,
    rng: &mut Rng64,
) -> Result<Vec<Vec<Share>>> {
    let mut per_party: Vec<Vec<Share>> = vec![Vec::with_capacity(values.len()); n];
    for &v in values {
        for (p, s) in split(v, t, n, rng)?.into_iter().enumerate() {
            per_party[p].push(s);
        }
    }
    Ok(per_party)
}

/// Reconstructs a vector from per-party share vectors (each inner slice is
/// one party's shares, in coordinate order).
///
/// # Errors
///
/// As [`reconstruct`]; additionally misaligned lengths are
/// [`CryptoError::ProtocolMisuse`].
pub fn reconstruct_vector(parties: &[&[Share]]) -> Result<Vec<u64>> {
    let len = parties
        .first()
        .ok_or(CryptoError::ProtocolMisuse {
            reason: "no parties supplied",
        })?
        .len();
    if parties.iter().any(|p| p.len() != len) {
        return Err(CryptoError::ProtocolMisuse {
            reason: "party share vectors have different lengths",
        });
    }
    (0..len)
        .map(|i| {
            let column: Vec<Share> = parties.iter().map(|p| p[i]).collect();
            reconstruct(&column)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    fn rng() -> Rng64 {
        Rng64::new(7)
    }

    #[test]
    fn roundtrip_with_exactly_t_shares() {
        let mut r = rng();
        for secret in [0u64, 1, 42, MODULUS - 1] {
            let shares = split(secret, 3, 5, &mut r).unwrap();
            assert_eq!(reconstruct(&shares[..3]).unwrap(), secret);
            assert_eq!(reconstruct(&shares[2..]).unwrap(), secret);
            assert_eq!(reconstruct(&shares).unwrap(), secret);
        }
    }

    #[test]
    fn any_subset_of_size_t_works() {
        let mut r = rng();
        let shares = split(123_456, 2, 4, &mut r).unwrap();
        for i in 0..4 {
            for j in (i + 1)..4 {
                let got = reconstruct(&[shares[i], shares[j]]).unwrap();
                assert_eq!(got, 123_456, "subset ({i},{j})");
            }
        }
    }

    #[test]
    fn below_threshold_is_not_the_secret() {
        // t-1 shares interpolate to a (random) wrong value with
        // overwhelming probability; assert over several trials.
        let mut r = rng();
        let mut hits = 0;
        for _ in 0..20 {
            let shares = split(999, 3, 5, &mut r).unwrap();
            if reconstruct(&shares[..2]).unwrap() == 999 {
                hits += 1;
            }
        }
        assert!(hits <= 1, "threshold leaked the secret {hits}/20 times");
    }

    #[test]
    fn validation() {
        let mut r = rng();
        assert!(split(1, 0, 3, &mut r).is_err());
        assert!(split(1, 4, 3, &mut r).is_err());
        assert!(split(MODULUS, 2, 3, &mut r).is_err());
        assert!(reconstruct(&[]).is_err());
        let s = Share { x: 1, y: 2 };
        assert!(reconstruct(&[s, s]).is_err());
    }

    #[test]
    fn vector_roundtrip_with_dropout() {
        let mut r = rng();
        let values: Vec<u64> = (0..10).map(|i| i * 31 + 5).collect();
        let parties = split_vector(&values, 3, 5, &mut r).unwrap();
        // Parties 1 and 4 drop out; 0, 2, 3 reconstruct.
        let alive: Vec<&[Share]> = [0usize, 2, 3]
            .iter()
            .map(|&p| parties[p].as_slice())
            .collect();
        assert_eq!(reconstruct_vector(&alive).unwrap(), values);
    }

    #[test]
    fn field_arithmetic_identities() {
        assert_eq!(reduce(MODULUS as u128), 0);
        assert_eq!(add(MODULUS - 1, 1), 0);
        assert_eq!(sub(0, 1), MODULUS - 1);
        for a in [1u64, 2, 12345, MODULUS - 2] {
            assert_eq!(mul(a, inv(a).unwrap()), 1, "inverse of {a}");
        }
        assert!(inv(0).is_err());
        // The public wrappers agree with the internal operations.
        assert_eq!(field_add(MODULUS - 1, 2), 1);
        assert_eq!(field_sub(1, 2), MODULUS - 1);
        assert_eq!(field_sub(field_add(5, 7), 7), 5);
    }
}
