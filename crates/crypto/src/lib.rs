//! Cryptographic primitives for privacy-preserving aggregation at the
//! Reduce() step.
//!
//! The paper's security architecture (§V) rests on one operation: the
//! reducer must learn the **sum** (hence average) of the mappers' local
//! models without learning any individual contribution. This crate holds
//! the primitives that operation is built from; the protocols themselves —
//! pairwise masking (the paper's), Shamir threshold sharing and Paillier
//! aggregation — live in `ppml_core::secagg`, where the same coordinator
//! and learner halves run in process, on the MapReduce cluster and over
//! the wire.
//!
//! * [`FixedPointCodec`] — between `f64` model coordinates and group
//!   elements: `Z_{2⁶⁴}` for masking, `GF(2⁶¹ − 1)` for Shamir sharing,
//!   `Z_n` for Paillier.
//! * [`shamir`] — `t`-of-`n` threshold sharing over `GF(2⁶¹ − 1)`.
//! * [`Paillier`] — additively homomorphic encryption, on an
//!   arbitrary-precision unsigned integer type ([`BigUint`]) with
//!   Montgomery modular exponentiation and Miller–Rabin prime generation.
//!
//! All of it is implemented from scratch; the offline dependency set has
//! no bignum or crypto crates.
//!
//! # Example: a field sum of shares is a share of the sum
//!
//! ```
//! use ppml_crypto::{shamir, FixedPointCodec};
//! use ppml_data::rng::Rng64;
//!
//! # fn main() -> Result<(), ppml_crypto::CryptoError> {
//! let codec = FixedPointCodec::default();
//! let mut rng = Rng64::new(7);
//! // Three learners' private values, each split 2-of-3.
//! let mut held = [0u64; 3];
//! for v in [1.0, 0.5, -2.5] {
//!     let shares = shamir::split(codec.encode_field(v)?, 2, 3, &mut rng)?;
//!     for (h, s) in held.iter_mut().zip(&shares) {
//!         *h = shamir::field_add(*h, s.y);
//!     }
//! }
//! // Any two summed shares reconstruct the total — and only the total.
//! let total = shamir::reconstruct(&[
//!     shamir::Share { x: 1, y: held[0] },
//!     shamir::Share { x: 3, y: held[2] },
//! ])?;
//! assert_eq!(codec.decode_field(total), -1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
mod biguint;
mod error;
mod fixed;
mod mont;
mod paillier;
mod prime;
pub mod shamir;

pub use biguint::BigUint;
pub use error::CryptoError;
pub use fixed::FixedPointCodec;
pub use mont::Montgomery;
pub use paillier::{Paillier, PaillierCiphertext, PaillierPrivateKey, PaillierPublicKey};
pub use prime::{gen_prime, is_probable_prime};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CryptoError>;
