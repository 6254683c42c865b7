//! Deterministic fault injection for map task attempts.
//!
//! Production MapReduce tolerates task failure by re-execution; the trainers
//! inherit that for free because their mapper state lives with the driver
//! between iterations. The plan here lets tests and benches kill or delay
//! *specific attempts* of specific blocks at specific iterations, so
//! re-execution paths are exercised deterministically rather than by luck.

use std::collections::BTreeMap;
use std::time::Duration;

use ppml_telemetry::mix64;

use crate::{BlockId, NodeId};

/// What to do to one (iteration, block) map task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSpec {
    /// Fail this many initial attempts (each failure triggers a retry on
    /// another node).
    pub fail_attempts: usize,
    /// Artificial execution delay applied to every attempt (straggler
    /// simulation).
    pub delay: Duration,
}

/// What to do to one worker (node), across every task it runs — the
/// worker-level twin of the per-task [`FaultSpec`], mirroring the
/// transport crate's `LinkFilter`-style plans: a straggler is slowed on
/// *every* attempt, and a crash kills the worker at a counted point so
/// the schedule is deterministic and reusable across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerFault {
    /// Artificial per-task delay (straggler simulation): the worker
    /// sleeps this long before every map attempt it executes.
    pub slow_by: Duration,
    /// Kill the worker *mid-task* while it executes its Nth assigned
    /// task (1-based, counted over every iteration; a node runs one task
    /// at a time, so this is the node's own count): the task's result is
    /// never sent and the worker is gone, exactly like a SIGKILL at that
    /// point. `None` = never.
    pub kill_on_task: Option<usize>,
}

/// A schedule of injected faults.
///
/// Per-task faults (`fail_first_attempts`, `delay`) are keyed by
/// `(iteration, block)`; worker-level faults (`slow_worker`,
/// `kill_worker_on_task`, or a whole [`FaultPlan::seeded`] schedule)
/// are keyed by node and apply for the worker's lifetime.
///
/// # Example
///
/// ```
/// use ppml_mapreduce::{BlockId, FaultPlan, FaultSpec};
/// use std::time::Duration;
///
/// let plan = FaultPlan::new()
///     .fail_first_attempts(2, BlockId(0), 1)           // iteration 2: one failure
///     .delay(3, BlockId(1), Duration::from_millis(5)); // iteration 3: straggler
/// assert_eq!(plan.spec(2, BlockId(0)).fail_attempts, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    specs: BTreeMap<(usize, BlockId), FaultSpec>,
    workers: BTreeMap<NodeId, WorkerFault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Fails the first `attempts` attempts of `block`'s map task at
    /// `iteration`.
    pub fn fail_first_attempts(
        mut self,
        iteration: usize,
        block: BlockId,
        attempts: usize,
    ) -> Self {
        self.specs
            .entry((iteration, block))
            .or_default()
            .fail_attempts = attempts;
        self
    }

    /// Delays every attempt of `block`'s map task at `iteration`.
    pub fn delay(mut self, iteration: usize, block: BlockId, delay: Duration) -> Self {
        self.specs.entry((iteration, block)).or_default().delay = delay;
        self
    }

    /// Slows `node` down: every map attempt it executes sleeps `by`
    /// first (worker-level straggler).
    pub fn slow_worker(mut self, node: NodeId, by: Duration) -> Self {
        self.workers.entry(node).or_default().slow_by = by;
        self
    }

    /// Kills `node` mid-task while it executes its `task`th assigned
    /// task (1-based): the result is never sent and the worker is gone.
    pub fn kill_worker_on_task(mut self, node: NodeId, task: usize) -> Self {
        self.workers.entry(node).or_default().kill_on_task = Some(task.max(1));
        self
    }

    /// A deterministic straggler-and-crash schedule derived from `seed`:
    /// one worker is slowed by `slow_by` on every task and a *different*
    /// worker is killed mid-way through its second task. Which workers
    /// draw the short straws is a pure function of `(seed, nodes)`, so a
    /// chaos test can replay the exact same schedule by replaying the
    /// seed. Needs `nodes >= 2`; with fewer there is no "different
    /// worker" and the plan stays empty.
    pub fn seeded(seed: u64, nodes: usize, slow_by: Duration) -> Self {
        if nodes < 2 {
            return FaultPlan::new();
        }
        let slow = (mix64(seed) % nodes as u64) as usize;
        let victim = (slow + 1 + (mix64(seed ^ 0xDEAD) % (nodes as u64 - 1)) as usize) % nodes;
        FaultPlan::new()
            .slow_worker(NodeId(slow), slow_by)
            .kill_worker_on_task(NodeId(victim), 2)
    }

    /// The spec applying to one task (default = no fault).
    pub fn spec(&self, iteration: usize, block: BlockId) -> FaultSpec {
        self.specs
            .get(&(iteration, block))
            .copied()
            .unwrap_or_default()
    }

    /// The fault applying to one worker (default = no fault).
    pub fn worker(&self, node: NodeId) -> WorkerFault {
        self.workers.get(&node).copied().unwrap_or_default()
    }

    /// `true` when the plan contains no faults at all.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty() && self.workers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_no_fault() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        let s = plan.spec(0, BlockId(0));
        assert_eq!(s.fail_attempts, 0);
        assert_eq!(s.delay, Duration::ZERO);
    }

    #[test]
    fn builder_accumulates_on_same_key() {
        let plan = FaultPlan::new()
            .fail_first_attempts(1, BlockId(2), 3)
            .delay(1, BlockId(2), Duration::from_millis(7));
        let s = plan.spec(1, BlockId(2));
        assert_eq!(s.fail_attempts, 3);
        assert_eq!(s.delay, Duration::from_millis(7));
        assert!(!plan.is_empty());
    }

    #[test]
    fn keys_are_independent() {
        let plan = FaultPlan::new().fail_first_attempts(1, BlockId(0), 1);
        assert_eq!(plan.spec(1, BlockId(1)).fail_attempts, 0);
        assert_eq!(plan.spec(2, BlockId(0)).fail_attempts, 0);
    }

    #[test]
    fn worker_faults_are_per_node() {
        let plan = FaultPlan::new()
            .slow_worker(NodeId(1), Duration::from_millis(9))
            .kill_worker_on_task(NodeId(2), 3);
        assert!(!plan.is_empty());
        assert_eq!(plan.worker(NodeId(1)).slow_by, Duration::from_millis(9));
        assert_eq!(plan.worker(NodeId(1)).kill_on_task, None);
        assert_eq!(plan.worker(NodeId(2)).kill_on_task, Some(3));
        assert_eq!(plan.worker(NodeId(0)), WorkerFault::default());
    }

    #[test]
    fn kill_on_task_zero_clamps_to_first_task() {
        let plan = FaultPlan::new().kill_worker_on_task(NodeId(0), 0);
        assert_eq!(plan.worker(NodeId(0)).kill_on_task, Some(1));
    }

    #[test]
    fn seeded_schedule_is_deterministic_and_disjoint() {
        for seed in 0..64 {
            let a = FaultPlan::seeded(seed, 4, Duration::from_millis(5));
            let b = FaultPlan::seeded(seed, 4, Duration::from_millis(5));
            let slow_a: Vec<_> = (0..4)
                .map(NodeId)
                .filter(|&n| a.worker(n).slow_by > Duration::ZERO)
                .collect();
            let kill_a: Vec<_> = (0..4)
                .map(NodeId)
                .filter(|&n| a.worker(n).kill_on_task.is_some())
                .collect();
            assert_eq!(slow_a.len(), 1, "seed {seed}");
            assert_eq!(kill_a.len(), 1, "seed {seed}");
            assert_ne!(slow_a[0], kill_a[0], "seed {seed}: victims must differ");
            for n in (0..4).map(NodeId) {
                assert_eq!(a.worker(n), b.worker(n), "seed {seed} not reproducible");
            }
        }
        // Too small a cluster to keep the victims disjoint: no faults.
        assert!(FaultPlan::seeded(7, 1, Duration::from_millis(5)).is_empty());
    }
}
