//! The Paillier additively homomorphic cryptosystem.
//!
//! Used by `ppml_core::secagg`'s `paillier` backend as the "cryptographic
//! operations at the Reducer" variant: mappers encrypt their fixed-point model
//! coordinates, the reducer multiplies ciphertexts (= adds plaintexts), and
//! only the key authority decrypts the aggregate.
//!
//! Implementation notes: the standard `g = n + 1` simplification makes
//! encryption a single modular exponentiation (`(1 + m·n)·rⁿ mod n²`) and
//! reduces the private scalar to `μ = λ⁻¹ mod n`.

use ppml_data::rng::Rng64;

use crate::prime::{gen_prime, random_below};
use crate::{BigUint, CryptoError, Montgomery, Result};

/// Public encryption key: the modulus `n` plus cached derived values.
#[derive(Debug, Clone)]
pub struct PaillierPublicKey {
    n: BigUint,
    n_squared: BigUint,
    /// Montgomery context over `n²` (odd since `n` is a product of odd
    /// primes), shared by encryption and homomorphic ops.
    mont: Montgomery,
}

impl PaillierPublicKey {
    /// The modulus `n`; plaintexts live in `Z_n`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// `n²`; ciphertexts live in `Z_{n²}*`.
    #[cfg(test)]
    fn modulus_squared(&self) -> &BigUint {
        &self.n_squared
    }

    /// Key size in bits (of `n`).
    pub fn bits(&self) -> usize {
        self.n.bits()
    }

    /// Homomorphic addition with only the public half:
    /// `Dec(add(c1, c2)) = m1 + m2 mod n`. An aggregator that must never
    /// be able to decrypt holds a [`PaillierPublicKey`] and folds
    /// ciphertexts with this.
    pub fn add(&self, c1: &PaillierCiphertext, c2: &PaillierCiphertext) -> PaillierCiphertext {
        PaillierCiphertext(self.mont.mod_mul(&c1.0, &c2.0))
    }

    /// The identity element for [`PaillierPublicKey::add`] (an encryption
    /// of zero with trivial randomness). Useful as a fold seed.
    pub fn neutral(&self) -> PaillierCiphertext {
        PaillierCiphertext(BigUint::one())
    }

    /// Serialized ciphertext width in bytes: every element of `Z_{n²}`
    /// fits in this many big-endian bytes, so wire formats can use a
    /// fixed-width encoding derived from the key alone.
    pub fn ciphertext_width(&self) -> usize {
        self.n_squared.bits().div_ceil(8)
    }

    /// Deserializes a big-endian ciphertext previously produced by
    /// [`PaillierCiphertext::as_biguint`] (leading zero padding allowed).
    ///
    /// # Errors
    ///
    /// [`CryptoError::NotInGroup`] when the value is not below `n²`.
    pub fn ciphertext_from_bytes(&self, bytes: &[u8]) -> Result<PaillierCiphertext> {
        let v = BigUint::from_bytes_be(bytes);
        if v >= self.n_squared {
            return Err(CryptoError::NotInGroup);
        }
        Ok(PaillierCiphertext(v))
    }
}

/// Private decryption key.
#[derive(Debug, Clone)]
pub struct PaillierPrivateKey {
    lambda: BigUint,
    mu: BigUint,
}

/// A Paillier ciphertext (an element of `Z_{n²}*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaillierCiphertext(BigUint);

impl PaillierCiphertext {
    /// Borrows the raw group element.
    pub fn as_biguint(&self) -> &BigUint {
        &self.0
    }

    /// Serialized size in bytes (for communication accounting).
    pub fn byte_len(&self) -> usize {
        self.0.to_bytes_be().len()
    }
}

/// The Paillier cryptosystem with a fixed key pair.
///
/// # Example
///
/// ```
/// use ppml_crypto::{BigUint, Paillier};
/// use ppml_data::rng::Rng64;
///
/// # fn main() -> Result<(), ppml_crypto::CryptoError> {
/// let mut rng = Rng64::new(1);
/// let ph = Paillier::keygen(256, &mut rng)?;
/// let c1 = ph.encrypt(&BigUint::from(20u64), &mut rng)?;
/// let c2 = ph.encrypt(&BigUint::from(22u64), &mut rng)?;
/// let sum = ph.add(&c1, &c2);
/// assert_eq!(ph.decrypt(&sum).to_u64(), Some(42));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Paillier {
    public: PaillierPublicKey,
    private: PaillierPrivateKey,
}

impl Paillier {
    /// Minimum accepted modulus size. Far below cryptographic strength —
    /// the floor only guards against degenerate arithmetic in tests.
    const MIN_BITS: usize = 64;

    /// Generates a fresh key pair with an `bits`-bit modulus.
    ///
    /// # Errors
    ///
    /// [`CryptoError::KeyTooSmall`] when `bits < 64`.
    pub fn keygen(bits: usize, rng: &mut Rng64) -> Result<Self> {
        if bits < Self::MIN_BITS {
            return Err(CryptoError::KeyTooSmall {
                bits,
                min: Self::MIN_BITS,
            });
        }
        let half = bits / 2;
        let (p, q) = loop {
            let p = gen_prime(half, rng);
            let q = gen_prime(bits - half, rng);
            if p != q {
                break (p, q);
            }
        };
        let n = p.mul(&q);
        let n_squared = n.mul(&n);
        let one = BigUint::one();
        let lambda = p.sub(&one).lcm(&q.sub(&one));
        // With g = n + 1: μ = λ⁻¹ mod n. λ is coprime to n for distinct
        // same-size primes, so the inverse exists.
        let mu = lambda.mod_inv(&n).ok_or(CryptoError::NotInvertible)?;
        Ok(Paillier {
            public: PaillierPublicKey {
                mont: Montgomery::new(&n_squared),
                n,
                n_squared,
            },
            private: PaillierPrivateKey { lambda, mu },
        })
    }

    /// Borrows the public key.
    pub fn public_key(&self) -> &PaillierPublicKey {
        &self.public
    }

    /// Encrypts a plaintext `m ∈ Z_n`.
    ///
    /// # Errors
    ///
    /// [`CryptoError::NotInGroup`] when `m ≥ n`.
    pub fn encrypt(&self, m: &BigUint, rng: &mut Rng64) -> Result<PaillierCiphertext> {
        let pk = &self.public;
        if m >= &pk.n {
            return Err(CryptoError::NotInGroup);
        }
        // r ∈ [1, n) with gcd(r, n) = 1 (overwhelmingly likely first draw).
        let r = loop {
            let r = random_below(&pk.n, rng);
            if !r.is_zero() && r.gcd(&pk.n).is_one() {
                break r;
            }
        };
        // c = (1 + m·n) · rⁿ mod n²
        let gm = BigUint::one().add(&m.mul(&pk.n)).rem(&pk.n_squared);
        let rn = pk.mont.mod_pow(&r, &pk.n);
        Ok(PaillierCiphertext(pk.mont.mod_mul(&gm, &rn)))
    }

    /// Decrypts a ciphertext.
    ///
    /// Garbage in, garbage out: elements outside `Z_{n²}*` decrypt to an
    /// unspecified plaintext rather than erroring, as in every practical
    /// Paillier implementation.
    pub fn decrypt(&self, c: &PaillierCiphertext) -> BigUint {
        let pk = &self.public;
        let sk = &self.private;
        let x = pk.mont.mod_pow(&c.0, &sk.lambda);
        // L(x) = (x - 1) / n
        let l = x.sub(&BigUint::one()).div_rem(&pk.n).0;
        l.mod_mul(&sk.mu, &pk.n)
    }

    /// Homomorphic addition: `Dec(add(c1, c2)) = m1 + m2 mod n`.
    pub fn add(&self, c1: &PaillierCiphertext, c2: &PaillierCiphertext) -> PaillierCiphertext {
        self.public.add(c1, c2)
    }

    /// Homomorphic plaintext multiplication: `Dec(mul_plain(c, k)) = k·m mod n`.
    pub fn mul_plain(&self, c: &PaillierCiphertext, k: &BigUint) -> PaillierCiphertext {
        PaillierCiphertext(self.public.mont.mod_pow(&c.0, k))
    }

    /// The encryption of zero with trivial randomness — identity for
    /// [`Paillier::add`]. Useful as a fold seed.
    pub fn neutral(&self) -> PaillierCiphertext {
        self.public.neutral()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn setup() -> (Paillier, Rng64) {
        let mut rng = Rng64::new(7);
        let ph = Paillier::keygen(128, &mut rng).unwrap();
        (ph, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (ph, mut rng) = setup();
        for m in [0u64, 1, 42, 1_000_000, u32::MAX as u64] {
            let c = ph.encrypt(&BigUint::from(m), &mut rng).unwrap();
            assert_eq!(ph.decrypt(&c).to_u64(), Some(m), "m = {m}");
        }
    }

    #[test]
    fn encryption_is_probabilistic() {
        let (ph, mut rng) = setup();
        let m = BigUint::from(5u64);
        let c1 = ph.encrypt(&m, &mut rng).unwrap();
        let c2 = ph.encrypt(&m, &mut rng).unwrap();
        assert_ne!(c1, c2, "two encryptions of the same plaintext collided");
        assert_eq!(ph.decrypt(&c1), ph.decrypt(&c2));
    }

    #[test]
    fn homomorphic_addition() {
        let (ph, mut rng) = setup();
        let c1 = ph.encrypt(&BigUint::from(123u64), &mut rng).unwrap();
        let c2 = ph.encrypt(&BigUint::from(877u64), &mut rng).unwrap();
        assert_eq!(ph.decrypt(&ph.add(&c1, &c2)).to_u64(), Some(1000));
    }

    #[test]
    fn homomorphic_scalar_multiplication() {
        let (ph, mut rng) = setup();
        let c = ph.encrypt(&BigUint::from(21u64), &mut rng).unwrap();
        let c2 = ph.mul_plain(&c, &BigUint::from(2u64));
        assert_eq!(ph.decrypt(&c2).to_u64(), Some(42));
    }

    #[test]
    fn neutral_is_identity() {
        let (ph, mut rng) = setup();
        let c = ph.encrypt(&BigUint::from(9u64), &mut rng).unwrap();
        let c2 = ph.add(&c, &ph.neutral());
        assert_eq!(ph.decrypt(&c2).to_u64(), Some(9));
    }

    #[test]
    fn public_key_alone_can_aggregate() {
        // An aggregator holding only the public half folds ciphertexts and
        // re-parses them from fixed-width bytes, without decryption ability.
        let (ph, mut rng) = setup();
        let pk = ph.public_key().clone();
        let w = pk.ciphertext_width();
        let mut acc = pk.neutral();
        for m in [11u64, 22, 33] {
            let c = ph.encrypt(&BigUint::from(m), &mut rng).unwrap();
            let mut bytes = c.as_biguint().to_bytes_be();
            assert!(bytes.len() <= w, "ciphertext exceeds declared width");
            // Left-pad to the fixed wire width, as the transport would.
            let mut padded = vec![0u8; w - bytes.len()];
            padded.append(&mut bytes);
            let parsed = pk.ciphertext_from_bytes(&padded).unwrap();
            assert_eq!(&parsed, &c);
            acc = pk.add(&acc, &parsed);
        }
        assert_eq!(ph.decrypt(&acc).to_u64(), Some(66));
    }

    #[test]
    fn ciphertext_from_bytes_rejects_out_of_group() {
        let (ph, _) = setup();
        let pk = ph.public_key();
        let too_big = pk.modulus_squared().to_bytes_be();
        assert!(matches!(
            pk.ciphertext_from_bytes(&too_big),
            Err(CryptoError::NotInGroup)
        ));
    }

    #[test]
    fn addition_wraps_mod_n() {
        let (ph, mut rng) = setup();
        let n = ph.public_key().modulus().clone();
        let near = n.sub(&BigUint::one());
        let c1 = ph.encrypt(&near, &mut rng).unwrap();
        let c2 = ph.encrypt(&BigUint::from(2u64), &mut rng).unwrap();
        // (n-1) + 2 ≡ 1 mod n
        assert_eq!(ph.decrypt(&ph.add(&c1, &c2)).to_u64(), Some(1));
    }

    #[test]
    fn rejects_oversized_plaintext() {
        let (ph, mut rng) = setup();
        let too_big = ph.public_key().modulus().clone();
        assert!(matches!(
            ph.encrypt(&too_big, &mut rng),
            Err(CryptoError::NotInGroup)
        ));
    }

    #[test]
    fn rejects_tiny_keys() {
        let mut rng = Rng64::new(1);
        assert!(matches!(
            Paillier::keygen(32, &mut rng),
            Err(CryptoError::KeyTooSmall { .. })
        ));
    }

    #[test]
    fn key_sizes_reported() {
        let (ph, _) = setup();
        let b = ph.public_key().bits();
        assert!((120..=128).contains(&b), "unexpected modulus size {b}");
    }
}
