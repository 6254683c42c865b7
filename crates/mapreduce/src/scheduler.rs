//! Locality-aware map task placement.
//!
//! [`Scheduler`] is the pure placement heuristic — GFS/Hadoop in
//! miniature: prefer a node that holds a replica of the task's block and
//! currently has the lightest load; fall back to the globally lightest
//! node (a *remote read*) when every replica holder is saturated relative
//! to it. Deterministic: ties break toward the lower node id, so every
//! run schedules identically.

use crate::{BlockId, BlockStore, NodeId};

/// One scheduled map task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskAssignment {
    /// The block to map.
    pub block: BlockId,
    /// Where the attempt runs.
    pub node: NodeId,
    /// Whether `node` holds a replica of `block`.
    pub data_local: bool,
}

/// Static per-iteration scheduler.
#[derive(Debug, Clone)]
pub struct Scheduler {
    nodes: usize,
    /// Load-balance slack: a replica holder is chosen as long as its queue
    /// is at most this much longer than the emptiest queue.
    locality_slack: usize,
}

impl Scheduler {
    /// Creates a scheduler for `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        Scheduler {
            nodes,
            locality_slack: 1,
        }
    }

    /// Overrides how much extra queue depth a local placement may cost
    /// before the scheduler gives up locality for balance. `0` = strict
    /// balance, large = strict locality.
    pub fn with_locality_slack(mut self, slack: usize) -> Self {
        self.locality_slack = slack;
        self
    }

    /// Assigns every block to a node. `exclude` removes candidate nodes for
    /// specific blocks (used to re-place failed attempts away from the node
    /// that just failed them).
    pub fn assign<T>(
        &self,
        store: &BlockStore<T>,
        blocks: &[BlockId],
        exclude: &[(BlockId, NodeId)],
    ) -> Vec<TaskAssignment> {
        let mut load = vec![0usize; self.nodes];
        let mut out = Vec::with_capacity(blocks.len());
        for &block in blocks {
            let banned: Vec<NodeId> = exclude
                .iter()
                .filter(|(b, _)| *b == block)
                .map(|(_, n)| *n)
                .collect();
            let replicas: Vec<NodeId> = store
                .replicas(block)
                .map(|r| r.iter().copied().filter(|n| !banned.contains(n)).collect())
                .unwrap_or_default();
            let min_load = (0..self.nodes)
                .filter(|n| !banned.contains(&NodeId(*n)))
                .map(|n| load[n])
                .min()
                .unwrap_or(0);
            // Best replica holder within the slack budget.
            let local_choice = replicas
                .iter()
                .copied()
                .filter(|n| load[n.0] <= min_load + self.locality_slack)
                .min_by_key(|n| (load[n.0], n.0));
            let (node, data_local) = match local_choice {
                Some(n) => (n, true),
                None => {
                    let n = (0..self.nodes)
                        .filter(|n| !banned.contains(&NodeId(*n)))
                        .min_by_key(|&n| (load[n], n))
                        .map(NodeId)
                        .unwrap_or(NodeId(0));
                    (n, replicas.contains(&n))
                }
            };
            load[node.0] += 1;
            out.push(TaskAssignment {
                block,
                node,
                data_local,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(nodes: usize, replication: usize, blocks: usize) -> (BlockStore<u32>, Vec<BlockId>) {
        let mut s = BlockStore::new(nodes, replication);
        let ids = (0..blocks as u32).map(|i| s.put(i)).collect();
        (s, ids)
    }

    #[test]
    fn all_local_when_blocks_match_nodes() {
        let (s, ids) = store(4, 1, 4);
        let plan = Scheduler::new(4).assign(&s, &ids, &[]);
        assert!(plan.iter().all(|t| t.data_local));
        // One task per node.
        let mut nodes: Vec<usize> = plan.iter().map(|t| t.node.0).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn balances_when_blocks_exceed_nodes() {
        let (s, ids) = store(2, 1, 6);
        let plan = Scheduler::new(2).assign(&s, &ids, &[]);
        let on0 = plan.iter().filter(|t| t.node.0 == 0).count();
        let on1 = plan.iter().filter(|t| t.node.0 == 1).count();
        assert_eq!(on0 + on1, 6);
        assert!((on0 as i64 - on1 as i64).abs() <= 1, "{on0} vs {on1}");
    }

    #[test]
    fn skewed_placement_forces_remote_reads() {
        // All blocks pinned to node 0 with no replicas: strict balance makes
        // some tasks remote.
        let mut s: BlockStore<u32> = BlockStore::new(4, 1);
        let ids: Vec<BlockId> = (0..8).map(|i| s.put_on(i, NodeId(0))).collect();
        let plan = Scheduler::new(4)
            .with_locality_slack(0)
            .assign(&s, &ids, &[]);
        let remote = plan.iter().filter(|t| !t.data_local).count();
        assert!(
            remote > 0,
            "expected some remote reads under strict balance"
        );
        // With unbounded slack, everything stays local on node 0.
        let plan = Scheduler::new(4)
            .with_locality_slack(100)
            .assign(&s, &ids, &[]);
        assert!(plan.iter().all(|t| t.data_local && t.node == NodeId(0)));
    }

    #[test]
    fn exclusion_moves_task_elsewhere() {
        let (s, ids) = store(3, 1, 3);
        let first = Scheduler::new(3).assign(&s, &ids, &[]);
        let victim = first[0];
        let replan = Scheduler::new(3).assign(&s, &ids[..1], &[(victim.block, victim.node)]);
        assert_ne!(replan[0].node, victim.node);
    }

    #[test]
    fn deterministic() {
        let (s, ids) = store(4, 2, 10);
        let a = Scheduler::new(4).assign(&s, &ids, &[]);
        let b = Scheduler::new(4).assign(&s, &ids, &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn replication_improves_locality_under_exclusion() {
        // With replication 2, excluding the primary still leaves a local
        // placement.
        let (s, ids) = store(4, 2, 4);
        let reps = s.replicas(ids[0]).unwrap().to_vec();
        let plan = Scheduler::new(4).assign(&s, &ids[..1], &[(ids[0], reps[0])]);
        assert!(plan[0].data_local);
        assert_eq!(plan[0].node, reps[1]);
    }
}
