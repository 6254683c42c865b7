//! Centralized SVM baseline (§III / §VI's benchmark).
//!
//! The paper compares every distributed trainer against "the centralized
//! SVM"; this crate is that benchmark. Training solves the standard
//! Wolfe-dual (problem (2) of the paper)
//!
//! ```text
//! min ½ λᵀHλ − 1ᵀλ    s.t. 0 ≤ λ ≤ C,  λᵀy = 0,     H_ij = y_i K(x_i, x_j) y_j
//! ```
//!
//! with the SMO-style solver from [`ppml_qp`]; the bias is recovered from
//! the free support vectors (averaged, per Burges' recommendation the paper
//! cites).
//!
//! # Example
//!
//! ```
//! use ppml_data::synth;
//! use ppml_svm::{KernelSvm, SvmParams};
//!
//! # fn main() -> Result<(), ppml_svm::SvmError> {
//! let ds = synth::blobs(80, 3);
//! let model = KernelSvm::train(&ds, &SvmParams::default())?;
//! assert!(model.accuracy(&ds) > 0.95);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
mod linear;
mod metrics;
mod model;
mod random_kernel;

pub use linear::LinearSvm;
pub use metrics::{accuracy, confusion, Confusion};
pub use model::{KernelSvm, SvmParams};
pub use random_kernel::RandomKernelSvm;

use std::fmt;

/// Errors produced while training or evaluating an SVM.
#[derive(Debug, Clone, PartialEq)]
pub enum SvmError {
    /// The training set is empty or single-class.
    BadTrainingSet {
        /// What is wrong with it.
        reason: &'static str,
    },
    /// The dual QP solver failed (shape bug or infeasibility).
    Solver(ppml_qp::QpError),
    /// A feature vector of the wrong dimension was supplied at prediction.
    DimensionMismatch {
        /// Dimension the model was trained with.
        expected: usize,
        /// Dimension supplied.
        found: usize,
    },
}

impl fmt::Display for SvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvmError::BadTrainingSet { reason } => write!(f, "bad training set: {reason}"),
            SvmError::Solver(e) => write!(f, "dual solver failed: {e}"),
            SvmError::DimensionMismatch { expected, found } => {
                write!(f, "expected {expected} features, found {found}")
            }
        }
    }
}

impl std::error::Error for SvmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SvmError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ppml_qp::QpError> for SvmError {
    fn from(e: ppml_qp::QpError) -> Self {
        SvmError::Solver(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SvmError>;
