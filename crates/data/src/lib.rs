//! Datasets, partitioning and the paper's three evaluation workloads.
//!
//! §VI evaluates against UCI breast-cancer (9 features × 569 instances),
//! HIGGS (28 features, 11 000 instances used) and UCI optical-digits
//! (64 features × 5 620 instances). Those archives are not available
//! offline, so [`synth`] provides generators *calibrated to the properties
//! the paper's analysis actually relies on*:
//!
//! * [`synth::cancer_like`] — low-dimensional, well separated; centralized
//!   SVM ≈ 95 % (the paper's easy benchmark);
//! * [`synth::higgs_like`] — high overlap between classes; centralized SVM
//!   ≈ 70 % ("the knowledge is hard to discover");
//! * [`synth::ocr_like`] — many, highly correlated features from a low-rank
//!   latent factor model; centralized SVM ≈ 98 % (drives the vertical
//!   partitioning discussion, where correlated features force learners to
//!   cooperate).
//!
//! [`Partition`] implements the two sharing topologies of Figs. 2–3:
//! horizontal (each learner holds complete rows) and vertical (each learner
//! holds a column slice of every row).
//!
//! # Example
//!
//! ```
//! use ppml_data::{synth, Partition};
//!
//! # fn main() -> Result<(), ppml_data::DataError> {
//! let ds = synth::cancer_like(200, 1);
//! let (train, test) = ds.split(0.5, 7)?;               // the paper's 50/50
//! let parts = Partition::horizontal(&train, 4, 42)?;   // M = 4 learners
//! assert_eq!(parts.len(), 4);
//! assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), train.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
pub mod check;
mod dataset;
mod error;
mod partition;
pub mod rng;
pub mod synth;

pub use dataset::Dataset;
pub use error::DataError;
pub use partition::{Partition, VerticalView};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DataError>;
