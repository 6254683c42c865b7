use std::fmt;

use crate::{BlockId, NodeId};

/// Errors surfaced by the MapReduce runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapReduceError {
    /// The cluster configuration is unusable (zero nodes, zero attempts,
    /// a zero task timeout, a block pinned to a node that does not exist).
    BadConfig {
        /// What is wrong with it.
        reason: String,
    },
    /// A map task exhausted its retry budget.
    TaskFailed {
        /// Block whose map task kept failing.
        block: BlockId,
        /// Attempts made.
        attempts: usize,
    },
    /// A node's worker thread could not be started, or disappeared.
    WorkerLost {
        /// The node whose worker died.
        node: NodeId,
    },
    /// Job was driven with no blocks loaded.
    NoBlocks,
    /// Too many workers died: fewer than the configured quorum survive,
    /// so the job cannot make progress and fails fast instead of
    /// retrying into an empty cluster.
    QuorumLost {
        /// Workers still alive.
        alive: usize,
        /// Minimum live workers the job needs.
        needed: usize,
    },
}

impl fmt::Display for MapReduceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapReduceError::BadConfig { reason } => write!(f, "bad cluster config: {reason}"),
            MapReduceError::TaskFailed { block, attempts } => {
                write!(f, "map task for {block:?} failed after {attempts} attempts")
            }
            MapReduceError::WorkerLost { node } => {
                write!(f, "worker for {node} did not start or was lost")
            }
            MapReduceError::NoBlocks => write!(f, "no blocks loaded into the cluster"),
            MapReduceError::QuorumLost { alive, needed } => {
                write!(
                    f,
                    "cluster lost quorum: {alive} workers alive, {needed} needed"
                )
            }
        }
    }
}

impl std::error::Error for MapReduceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = MapReduceError::TaskFailed {
            block: BlockId(3),
            attempts: 4,
        };
        assert!(e.to_string().contains("4 attempts"));
        assert!(MapReduceError::NoBlocks.to_string().contains("no blocks"));
        let q = MapReduceError::QuorumLost {
            alive: 0,
            needed: 1,
        };
        assert!(q.to_string().contains("lost quorum"));
        assert!(q.to_string().contains("0 workers alive"));
    }
}
