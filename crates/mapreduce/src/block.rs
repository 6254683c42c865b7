//! In-memory stand-in for HDFS block placement.
//!
//! Each block is stored on `replication` distinct nodes, chosen
//! deterministically from a seed (rack-awareness is out of scope — the
//! paper's privacy argument only needs "a block's data lives on its owning
//! learner's node"). The [`crate::Scheduler`] consults the placement map to
//! schedule map tasks onto replicas.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::NodeId;

/// Identifier of a stored block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

/// Block placement directory plus payload storage.
///
/// Payloads are reference-counted: handing one to a worker thread is a
/// pointer copy, matching the "local read" the placement is supposed to
/// model (remote reads are charged by the scheduler, not copied again).
#[derive(Debug)]
pub struct BlockStore<T> {
    nodes: usize,
    replication: usize,
    blocks: BTreeMap<BlockId, Arc<T>>,
    placement: BTreeMap<BlockId, Vec<NodeId>>,
    next_id: u64,
    rr_cursor: usize,
}

impl<T> BlockStore<T> {
    /// Creates a store over `nodes` data nodes with the given replication
    /// factor.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`, `replication == 0`, or
    /// `replication > nodes` — caller ([`crate::Cluster`]) validates first.
    pub fn new(nodes: usize, replication: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(
            replication >= 1 && replication <= nodes,
            "replication {replication} invalid for {nodes} nodes"
        );
        BlockStore {
            nodes,
            replication,
            blocks: BTreeMap::new(),
            placement: BTreeMap::new(),
            next_id: 0,
            rr_cursor: 0,
        }
    }

    /// Stores a block, placing its replicas round-robin starting at a
    /// rotating cursor (even spread without randomness).
    pub fn put(&mut self, payload: T) -> BlockId {
        let id = BlockId(self.next_id);
        self.next_id += 1;
        let primary = self.rr_cursor % self.nodes;
        self.rr_cursor += 1;
        let replicas: Vec<NodeId> = (0..self.replication)
            .map(|k| NodeId((primary + k) % self.nodes))
            .collect();
        self.blocks.insert(id, Arc::new(payload));
        self.placement.insert(id, replicas);
        id
    }

    /// Stores a block pinned to an explicit primary node (used by the
    /// trainers: learner `m`'s partition must live on learner `m`'s node).
    ///
    /// # Panics
    ///
    /// Panics if `primary` is not a valid node.
    pub fn put_on(&mut self, payload: T, primary: NodeId) -> BlockId {
        assert!(primary.0 < self.nodes, "no such node {primary}");
        let id = BlockId(self.next_id);
        self.next_id += 1;
        let replicas: Vec<NodeId> = (0..self.replication)
            .map(|k| NodeId((primary.0 + k) % self.nodes))
            .collect();
        self.blocks.insert(id, Arc::new(payload));
        self.placement.insert(id, replicas);
        id
    }

    /// Shared handle to a block's payload.
    pub fn payload(&self, id: BlockId) -> Option<Arc<T>> {
        self.blocks.get(&id).cloned()
    }

    /// Nodes holding a replica of the block (primary first).
    pub fn replicas(&self, id: BlockId) -> Option<&[NodeId]> {
        self.placement.get(&id).map(Vec::as_slice)
    }

    /// All block ids in insertion order.
    pub fn block_ids(&self) -> Vec<BlockId> {
        self.blocks.keys().copied().collect()
    }

    /// Number of stored blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Number of data nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Blocks whose replica set includes `node`.
    #[cfg(test)]
    fn blocks_on(&self, node: NodeId) -> Vec<BlockId> {
        self.placement
            .iter()
            .filter(|(_, reps)| reps.contains(&node))
            .map(|(id, _)| *id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_respects_replication() {
        let mut s: BlockStore<u32> = BlockStore::new(4, 2);
        let ids: Vec<BlockId> = (0..8).map(|i| s.put(i)).collect();
        for id in &ids {
            let reps = s.replicas(*id).unwrap();
            assert_eq!(reps.len(), 2);
            assert_ne!(reps[0], reps[1]);
        }
    }

    #[test]
    fn round_robin_spreads_primaries_evenly() {
        let mut s: BlockStore<u32> = BlockStore::new(4, 1);
        for i in 0..8 {
            s.put(i);
        }
        for n in 0..4 {
            assert_eq!(s.blocks_on(NodeId(n)).len(), 2);
        }
    }

    #[test]
    fn put_on_pins_primary() {
        let mut s: BlockStore<&str> = BlockStore::new(3, 2);
        let id = s.put_on("learner-2 data", NodeId(2));
        let reps = s.replicas(id).unwrap();
        assert_eq!(reps[0], NodeId(2));
        assert_eq!(*s.payload(id).unwrap(), "learner-2 data");
    }

    #[test]
    fn payload_is_shared_not_copied() {
        let mut s: BlockStore<Vec<u8>> = BlockStore::new(1, 1);
        let id = s.put(vec![1, 2, 3]);
        let a = s.payload(id).unwrap();
        let b = s.payload(id).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn missing_block_is_none() {
        let s: BlockStore<u8> = BlockStore::new(1, 1);
        assert!(s.payload(BlockId(99)).is_none());
        assert!(s.replicas(BlockId(99)).is_none());
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "replication")]
    fn rejects_replication_above_nodes() {
        let _ = BlockStore::<u8>::new(2, 3);
    }
}
