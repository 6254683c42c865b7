//! Privacy-preserving consensus-ADMM SVM training over MapReduce —
//! the core contribution of *Xu et al., "Privacy-preserving Machine
//! Learning Algorithms for Big Data Systems", ICDCS 2015*.
//!
//! # The four trainers
//!
//! | Type | Partitioning | Model | Paper section |
//! |---|---|---|---|
//! | [`HorizontalLinearSvm`] | by rows (Fig. 2) | linear | §IV-A |
//! | [`HorizontalKernelSvm`] | by rows | kernel (landmark consensus) | §IV-B |
//! | [`VerticalLinearSvm`] | by columns (Fig. 3) | linear | §IV-C |
//! | [`VerticalKernelSvm`] | by columns | kernel | §IV-C end |
//!
//! Each trainer decomposes the joint SVM into per-learner subproblems
//! (Map), reaches consensus through a secure sum at the reducer (the
//! paper's §V pairwise-masking protocol by default; [`secagg`] also ships
//! Shamir threshold sharing and Paillier aggregation), and iterates to
//! the centralized optimum (Lemmas 4.1/4.2). Raw training data never leaves
//! its learner; only the per-iteration local models move, and those only as
//! masked shares.
//!
//! Every trainer is one learner step and one consensus update, and the
//! same pair runs under each deployment's driver:
//! * **in-process** (`train`, `train_with`) — learners simulated in one
//!   address space, summing through the [`secagg`] backend's coordinator
//!   and learner halves with their frames handed over in memory;
//! * **MapReduce** ([`jobs`]`::train_*_on_cluster`) — learners are data
//!   nodes of a [`ppml_mapreduce::Cluster`]; the mask exchange rides on
//!   pre-agreed pairwise seeds so each mapper masks independently and the
//!   Reduce step only ever sees the cancelled sum;
//! * **wire** ([`distributed`], HL) — one process per party over a real
//!   transport, under any [`secagg`] backend.
//!
//! The three produce bit-identical models at every learner count.
//!
//! # Example
//!
//! ```
//! use ppml_core::{AdmmConfig, HorizontalLinearSvm};
//! use ppml_data::{synth, Partition};
//!
//! # fn main() -> Result<(), ppml_core::TrainError> {
//! let ds = synth::blobs(120, 1);
//! let (train, test) = ds.split(0.5, 2)?;
//! let parts = Partition::horizontal(&train, 4, 3)?; // M = 4 learners
//! let cfg = AdmmConfig::default().with_max_iter(30);
//! let outcome = HorizontalLinearSvm::train(&parts, &cfg, Some(&test))?;
//! assert!(outcome.model.accuracy(&test) > 0.9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
pub mod checkpoint;
mod config;
pub mod distributed;
pub mod dp;
mod error;
mod history;
pub mod jobs;
mod masks;
pub mod multiclass;
mod observe;
mod round;
pub mod secagg;

mod horizontal {
    pub mod kernel;
    pub mod linear;
}
mod vertical {
    pub mod kernel;
    pub mod linear;
}

pub use checkpoint::Checkpoint;
pub use config::{AdmmConfig, DistributedTiming};
pub use distributed::{DistributedOutcome, RecoveryOptions};
pub use error::TrainError;
pub use history::ConvergenceHistory;
pub use horizontal::kernel::{HorizontalKernelSvm, KernelConsensusModel, KernelOutcome};
pub use horizontal::linear::{HorizontalLinearSvm, LinearOutcome};
pub use masks::SeededMasker;
pub use observe::set_injected_lag;
pub use secagg::{
    coordinate_linear_secagg, coordinate_linear_secagg_with_recovery, learn_linear_secagg,
    learn_linear_secagg_with_defect, rejoin_linear_secagg, SecAggConfig, SecAggKind,
};
pub use vertical::kernel::{VerticalKernelModel, VerticalKernelOutcome, VerticalKernelSvm};
pub use vertical::linear::{VerticalLinearModel, VerticalLinearSvm, VerticalOutcome};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TrainError>;
