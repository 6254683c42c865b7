//! Engine invariants: the result of a MapReduce computation is a pure
//! function of the job and its inputs — never of the cluster shape,
//! placement, or injected (recoverable) faults — and without faults
//! every map runs on its block's home node.

use std::collections::BTreeMap;

use ppml_data::check::run_cases;
use ppml_mapreduce::{BlockId, Cluster, ClusterConfig, FaultPlan, IterativeJob, NodeId};

/// Sums per-residue-class histograms of integer blocks; iterative so that
/// state persistence also gets exercised.
struct Histogram;

impl IterativeJob for Histogram {
    type BlockPayload = Vec<u64>;
    type MapperState = u64; // running offset, proves state persistence
    type Broadcast = u64; // modulus
    type Key = u64;
    type MapOut = u64;
    type ReduceOut = u64;

    fn init_state(&self, _: BlockId, _: &Vec<u64>) -> u64 {
        0
    }

    fn map(&self, _n: NodeId, block: &Vec<u64>, state: &mut u64, modulus: &u64) -> Vec<(u64, u64)> {
        *state += 1;
        block
            .iter()
            .map(|&v| ((v + *state - 1) % modulus, 1))
            .collect()
    }

    fn reduce(&self, _k: &u64, values: Vec<u64>) -> u64 {
        values.into_iter().sum()
    }
}

fn reference(blocks: &[Vec<u64>], modulus: u64, iteration_state: u64) -> BTreeMap<u64, u64> {
    let mut m = BTreeMap::new();
    for b in blocks {
        for &v in b {
            *m.entry((v + iteration_state) % modulus).or_insert(0) += 1;
        }
    }
    m
}

#[test]
fn output_independent_of_cluster_shape_and_faults() {
    run_cases(
        "output_independent_of_cluster_shape_and_faults",
        24,
        |g, _case| {
            let n_blocks = g.usize_in(1, 16);
            let blocks: Vec<Vec<u64>> = (0..n_blocks)
                .map(|_| {
                    let len = g.usize_in(1, 8);
                    g.vec_u64(0, 100, len)
                })
                .collect();
            let nodes = g.usize_in(1, 6);
            let fail_block = g.usize_in(0, 6);
            let fail_count = g.usize_in(0, 2);
            let modulus = g.u64_in(2, 9);

            let mut fault_plan = FaultPlan::new();
            if fail_count > 0 {
                fault_plan = fault_plan.fail_first_attempts(
                    0,
                    BlockId((fail_block % blocks.len()) as u64),
                    fail_count,
                );
            }
            let cfg = ClusterConfig {
                nodes,
                max_attempts: 4,
                fault_plan,
                ..Default::default()
            };
            let mut cluster = Cluster::new(cfg, Histogram).unwrap();
            cluster.load_blocks(blocks.clone()).unwrap();
            // Two iterations: the second must see updated mapper state.
            for iteration in 0..2u64 {
                let out = cluster
                    .run_iteration(&modulus)
                    .expect("faults are recoverable");
                let got: BTreeMap<u64, u64> = out.outputs.iter().cloned().collect();
                assert_eq!(got, reference(&blocks, modulus, iteration));
            }
            // Metrics sanity: every map attempt is either local or remote.
            let m = cluster.metrics();
            assert!(m.locality_hits + m.remote_reads >= 2 * blocks.len());
            assert_eq!(m.iterations, 2);

            // Without faults every map runs on its block's home node, however
            // unevenly the blocks are spread: a live home is never traded
            // for balance, since a remote read moves a learner's rows.
            let homes: Vec<usize> = blocks.iter().map(|_| g.usize_in(0, nodes)).collect();
            let cfg = ClusterConfig {
                nodes,
                ..Default::default()
            };
            let mut cluster = Cluster::new(cfg, Histogram).unwrap();
            for (block, &home) in blocks.iter().zip(&homes) {
                cluster.load_block_on(block.clone(), NodeId(home)).unwrap();
            }
            for iteration in 0..2u64 {
                let out = cluster.run_iteration(&modulus).unwrap();
                let got: BTreeMap<u64, u64> = out.outputs.iter().cloned().collect();
                assert_eq!(got, reference(&blocks, modulus, iteration));
            }
            let m = cluster.metrics();
            assert_eq!(m.remote_reads, 0, "homes {homes:?} on {nodes} nodes");
            assert_eq!(m.bytes_remote_read, 0);
            assert_eq!(m.locality_hits, 2 * blocks.len());
        },
    );
}
