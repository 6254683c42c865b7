//! Cryptographic substrate for privacy-preserving aggregation at the
//! Reduce() step.
//!
//! The paper's security architecture (§V) rests on one primitive: the
//! reducer must learn the **sum** (hence average) of the mappers' local
//! models without learning any individual contribution. This crate provides
//! three interchangeable implementations of that primitive behind the
//! [`SecureSum`] trait:
//!
//! * [`PairwiseMasking`] — the paper's own coalition-resistant protocol:
//!   every mapper exchanges random masks with every other mapper and sends
//!   `wᵢ + Sedᵢ − Revᵢ` to the reducer; masks cancel in the sum.
//! * [`AdditiveSharing`] — classic additive secret sharing over `Z_{2⁶⁴}`;
//!   an information-theoretic alternative with the same communication
//!   pattern rotated 90°.
//! * [`PaillierAggregation`] — additively homomorphic encryption. The
//!   reducer multiplies ciphertexts; only the (logically separate) key
//!   authority can decrypt, and it only ever sees the aggregate. This is the
//!   "cryptographic operations at the Reducer" variant the paper's framing
//!   alludes to, and the expensive baseline the masking protocol is designed
//!   to avoid.
//!
//! Supporting machinery — an arbitrary-precision unsigned integer type
//! ([`BigUint`]) with Montgomery modular exponentiation, Miller–Rabin prime
//! generation, the [`Paillier`] cryptosystem, and a fixed-point codec
//! ([`FixedPointCodec`]) between `f64` model coordinates and group elements —
//! is implemented from scratch; the offline dependency set has no bignum or
//! crypto crates.
//!
//! # Example: the paper's protocol end to end
//!
//! ```
//! use ppml_crypto::{PairwiseMasking, SecureSum};
//!
//! # fn main() -> Result<(), ppml_crypto::CryptoError> {
//! let inputs = vec![
//!     vec![1.0, 2.0],   // learner 1's local model
//!     vec![0.5, -1.0],  // learner 2
//!     vec![2.5, 3.0],   // learner 3
//! ];
//! let sum = PairwiseMasking::new(7).aggregate(&inputs)?;
//! assert!((sum[0] - 4.0).abs() < 1e-9);
//! assert!((sum[1] - 4.0).abs() < 1e-9);
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
mod secure_sum;
pub mod shamir;

pub use biguint::BigUint;
pub use error::CryptoError;
pub use fixed::FixedPointCodec;
pub use mont::Montgomery;
pub use paillier::{Paillier, PaillierCiphertext, PaillierPrivateKey, PaillierPublicKey};
pub use prime::{gen_prime, is_probable_prime};
pub use secure_sum::{
    AdditiveSharing, MaskedShare, MaskingParty, PaillierAggregation, PairwiseMasking, PlainSum,
    SecureSum, ThresholdSharing,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CryptoError>;
