//! In-memory stand-in for HDFS block storage.
//!
//! Each block lives on exactly one home node (replication 1; rack-awareness
//! is out of scope). That is all the paper's privacy argument needs — "a
//! block's data lives on its owning learner's node" — and a second copy
//! would already move a learner's private rows. The [`crate::Cluster`]
//! maps a block on its home node while that node lives.

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
/// model (remote reads are charged by the cluster, not copied again).
#[derive(Debug)]
pub struct BlockStore<T> {
    nodes: usize,
    blocks: BTreeMap<BlockId, (Arc<T>, NodeId)>,
}

impl<T> BlockStore<T> {
    /// Creates a store over `nodes` data nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` — caller ([`crate::Cluster`]) validates first.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        BlockStore {
            nodes,
            blocks: BTreeMap::new(),
        }
    }

    /// Stores a block, homing the blocks round-robin over the nodes in
    /// insertion order (even spread without randomness).
    pub fn put(&mut self, payload: T) -> BlockId {
        let home = NodeId(self.blocks.len() % self.nodes);
        self.put_on(payload, home)
    }

    /// Stores a block on an explicit home node (used by the trainers:
    /// learner `m`'s partition must live on learner `m`'s node).
    ///
    /// # Panics
    ///
    /// Panics if `home` is not a valid node.
    pub fn put_on(&mut self, payload: T, home: NodeId) -> BlockId {
        assert!(home.0 < self.nodes, "no such node {home}");
        let id = BlockId(self.blocks.len() as u64);
        self.blocks.insert(id, (Arc::new(payload), home));
        id
    }

    /// Shared handle to a block's payload.
    pub fn payload(&self, id: BlockId) -> Option<Arc<T>> {
        self.blocks.get(&id).map(|(payload, _)| Arc::clone(payload))
    }

    /// The node that stores the block.
    pub(crate) fn home(&self, id: BlockId) -> Option<NodeId> {
        self.blocks.get(&id).map(|(_, home)| *home)
    }

    /// All block ids in insertion order.
    pub fn block_ids(&self) -> Vec<BlockId> {
        self.blocks.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_spreads_primaries_evenly() {
        let mut s: BlockStore<u32> = BlockStore::new(4);
        let ids: Vec<BlockId> = (0..8).map(|i| s.put(i)).collect();
        for n in 0..4 {
            let on_n = ids.iter().filter(|&&id| s.home(id) == Some(NodeId(n)));
            assert_eq!(on_n.count(), 2);
        }
    }

    #[test]
    fn put_on_pins_primary() {
        let mut s: BlockStore<&str> = BlockStore::new(3);
        let id = s.put_on("learner-2 data", NodeId(2));
        assert_eq!(s.home(id), Some(NodeId(2)));
        assert_eq!(*s.payload(id).unwrap(), "learner-2 data");
    }

    #[test]
    fn payload_is_shared_not_copied() {
        let mut s: BlockStore<Vec<u8>> = BlockStore::new(1);
        let id = s.put(vec![1, 2, 3]);
        let a = s.payload(id).unwrap();
        let b = s.payload(id).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn missing_block_is_none() {
        let s: BlockStore<u8> = BlockStore::new(1);
        assert!(s.payload(BlockId(99)).is_none());
        assert!(s.home(BlockId(99)).is_none());
        assert!(s.block_ids().is_empty());
    }
}
