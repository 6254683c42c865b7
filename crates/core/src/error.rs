use std::fmt;

/// Errors surfaced while training a distributed SVM.
#[derive(Debug)]
pub enum TrainError {
    /// A partition was empty, single-class where that is unsupported, or
    /// otherwise unusable.
    BadPartition {
        /// Which learner and what was wrong.
        reason: String,
    },
    /// A configuration value is out of range.
    BadConfig {
        /// What is wrong.
        reason: String,
    },
    /// The local dual QP failed.
    Qp(ppml_qp::QpError),
    /// A learner's local dual hit the sweep cap short of the KKT tolerance.
    /// The point it stopped at is not a solution, so no share is built from
    /// it.
    QpNotConverged {
        /// Sweeps used (the cap, `QpConfig::max_iter`).
        sweeps: usize,
        /// Maximum KKT violation the last sweep saw.
        kkt_violation: f64,
    },
    /// A dense factorization failed (e.g. a kernel operator that is not
    /// positive definite).
    Linalg(ppml_linalg::LinalgError),
    /// The secure aggregation protocol failed.
    Crypto(ppml_crypto::CryptoError),
    /// The MapReduce runtime failed.
    MapReduce(ppml_mapreduce::MapReduceError),
    /// Dataset handling failed.
    Data(ppml_data::DataError),
    /// The centralized reference model failed to train (baseline paths).
    Svm(ppml_svm::SvmError),
    /// The wire transport failed (timeout, peer gone, corrupt frame).
    Transport(ppml_transport::TransportError),
    /// A peer sent a frame that violates the coordination protocol.
    Protocol {
        /// What arrived and why it was unacceptable.
        reason: String,
    },
    /// Every learner dropped out before distributed training could
    /// finish; the run has no quorum left to re-key over.
    Dropped {
        /// Parties declared dead, in the order they were dropped.
        parties: Vec<u32>,
    },
    /// A checkpoint could not be written, read or validated.
    Checkpoint {
        /// The path (when known) and what went wrong with it.
        reason: String,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::BadPartition { reason } => write!(f, "bad partition: {reason}"),
            TrainError::BadConfig { reason } => write!(f, "bad config: {reason}"),
            TrainError::Qp(e) => write!(f, "local qp failed: {e}"),
            TrainError::QpNotConverged {
                sweeps,
                kkt_violation,
            } => write!(
                f,
                "local qp did not converge: kkt violation {kkt_violation:e} after {sweeps} sweeps"
            ),
            TrainError::Linalg(e) => write!(f, "factorization failed: {e}"),
            TrainError::Crypto(e) => write!(f, "secure aggregation failed: {e}"),
            TrainError::MapReduce(e) => write!(f, "mapreduce failed: {e}"),
            TrainError::Data(e) => write!(f, "data handling failed: {e}"),
            TrainError::Svm(e) => write!(f, "baseline svm failed: {e}"),
            TrainError::Transport(e) => write!(f, "transport failed: {e}"),
            TrainError::Protocol { reason } => write!(f, "protocol violation: {reason}"),
            TrainError::Dropped { parties } => {
                write!(f, "all learners dropped out (in order: {parties:?})")
            }
            TrainError::Checkpoint { reason } => write!(f, "checkpoint failed: {reason}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Qp(e) => Some(e),
            TrainError::Linalg(e) => Some(e),
            TrainError::Crypto(e) => Some(e),
            TrainError::MapReduce(e) => Some(e),
            TrainError::Data(e) => Some(e),
            TrainError::Svm(e) => Some(e),
            TrainError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

macro_rules! from_impl {
    ($($ty:ty => $variant:ident),*) => {
        $(impl From<$ty> for TrainError {
            fn from(e: $ty) -> Self {
                TrainError::$variant(e)
            }
        })*
    };
}

from_impl!(
    ppml_qp::QpError => Qp,
    ppml_linalg::LinalgError => Linalg,
    ppml_crypto::CryptoError => Crypto,
    ppml_mapreduce::MapReduceError => MapReduce,
    ppml_data::DataError => Data,
    ppml_svm::SvmError => Svm,
    ppml_transport::TransportError => Transport
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: TrainError = ppml_qp::QpError::InvalidBounds { lo: 1.0, hi: 0.0 }.into();
        assert!(matches!(e, TrainError::Qp(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("qp"));
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<TrainError>();
    }
}
