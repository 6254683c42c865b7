//! An iterative MapReduce runtime with simulated HDFS data locality.
//!
//! The paper deploys its trainers on Hadoop-style Data Parallel Systems and
//! leans on two of their properties (§I):
//!
//! 1. **Data locality** — each node stores and processes its own blocks, so
//!    raw training data never crosses the network; only (small) Map outputs
//!    move. This is simultaneously the performance argument and the privacy
//!    argument.
//! 2. **Iteration** — consensus ADMM needs a feedback channel from the
//!    Reduce step back to the Mappers every iteration; plain Hadoop cannot
//!    express this, which is why the paper points at Twister
//!    (Ekanayake et al., HPDC'10). This runtime is Twister-shaped:
//!    long-lived map tasks with per-block **state** that persists across
//!    iterations, a broadcast channel for the consensus variables, and a
//!    driver that loops Map → Shuffle → Reduce → feedback.
//!
//! The "cluster" is one OS thread per simulated node, each running one map
//! task at a time from its own `std::sync::mpsc` queue. An in-memory
//! [`BlockStore`] plays HDFS: every block has one home node (replication
//! 1), and a block maps on its home while that node lives. Only when the
//! home is dead, or has just failed the task, does the map move to the
//! least-loaded other node — a remote read, charged to the
//! [`JobMetrics`]. The lone reducer runs inline on the driver, the
//! paper's single-Reducer topology. A [`FaultPlan`] can kill or delay
//! individual task attempts to exercise re-execution.
//!
//! # Example: iterative averaging (a miniature of the paper's dataflow)
//!
//! ```
//! use ppml_mapreduce::{Cluster, ClusterConfig, IterativeJob, NodeId};
//!
//! struct Averager;
//! impl IterativeJob for Averager {
//!     type BlockPayload = Vec<f64>;
//!     type MapperState = ();           // stateless mapper
//!     type Broadcast = f64;            // current consensus guess
//!     type Key = ();                   // single reduce group
//!     type MapOut = (f64, usize);      // (local sum, count)
//!     type ReduceOut = f64;
//!
//!     fn init_state(&self, _: ppml_mapreduce::BlockId, _: &Vec<f64>) {}
//!     fn map(&self, _n: NodeId, block: &Vec<f64>, _s: &mut (), z: &f64)
//!         -> Vec<((), (f64, usize))> {
//!         // Each mapper nudges its local mean toward the broadcast z.
//!         let local: f64 = block.iter().sum::<f64>() / block.len() as f64;
//!         vec![((), (0.5 * (local + z), 1))]
//!     }
//!     fn reduce(&self, _k: &(), vs: Vec<(f64, usize)>) -> f64 {
//!         vs.iter().map(|v| v.0).sum::<f64>() / vs.len() as f64
//!     }
//! }
//!
//! # fn main() -> Result<(), ppml_mapreduce::MapReduceError> {
//! let mut cluster = Cluster::new(ClusterConfig::default(), Averager)?;
//! cluster.load_blocks(vec![vec![1.0, 2.0], vec![3.0, 5.0]])?;
//! let mut z = 0.0;
//! for _ in 0..32 {
//!     let out = cluster.run_iteration(&z)?;
//!     z = out.outputs[0].1;
//! }
//! assert!((z - 2.75).abs() < 0.1); // consensus of the block means
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
mod block;
mod bytes;
mod cluster;
mod error;
mod fault;
mod metrics;

pub use block::{BlockId, BlockStore};
pub use bytes::ByteSized;
pub use cluster::{Cluster, ClusterConfig, IterationOutput};
pub use error::MapReduceError;
pub use fault::{FaultPlan, FaultSpec, WorkerFault};
pub use metrics::JobMetrics;

/// Identifier of a simulated cluster node (also an HDFS data node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// A Twister-style iterative MapReduce job.
///
/// One implementation describes the whole computation; the [`Cluster`]
/// executes it. Map tasks are *long-lived*: each block owns a
/// [`IterativeJob::MapperState`] that the runtime threads through every
/// iteration — this is where the paper's trainers keep their ADMM dual
/// variables, which never leave the node.
pub trait IterativeJob: Send + Sync + 'static {
    /// Immutable per-block data (the node-local training partition).
    type BlockPayload: Send + Sync + 'static;
    /// Mutable per-block mapper state, preserved across iterations.
    type MapperState: Send + 'static;
    /// Value broadcast from the driver to every mapper each iteration (the
    /// consensus variables in the paper).
    type Broadcast: Clone + Send + Sync + ByteSized + 'static;
    /// Shuffle key. Ordered so reduce groups are deterministic.
    type Key: Ord + Send + 'static;
    /// Map output value (what actually crosses the simulated network).
    type MapOut: Send + ByteSized + 'static;
    /// Reduce output value.
    type ReduceOut: Send + 'static;

    /// Creates the initial mapper state for a block (called once at load).
    fn init_state(&self, block: BlockId, payload: &Self::BlockPayload) -> Self::MapperState;

    /// The Map() procedure: local computation over one block.
    fn map(
        &self,
        node: NodeId,
        payload: &Self::BlockPayload,
        state: &mut Self::MapperState,
        broadcast: &Self::Broadcast,
    ) -> Vec<(Self::Key, Self::MapOut)>;

    /// The Reduce() procedure: combines all values shuffled to one key.
    fn reduce(&self, key: &Self::Key, values: Vec<Self::MapOut>) -> Self::ReduceOut;
}
