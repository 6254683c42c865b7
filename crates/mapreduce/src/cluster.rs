//! The threaded cluster runtime: workers, placement, shuffle, reduce,
//! iteration driver.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ppml_telemetry as telemetry;
use ppml_transport::FRAME_OVERHEAD;
use telemetry::{ClusterRegistry, EventKind, NO_PARTY};

use crate::fault::WorkerFault;
use crate::{
    BlockId, BlockStore, ByteSized, FaultPlan, IterativeJob, JobMetrics, MapReduceError, NodeId,
};

/// How often the driver wakes from the result queue to sweep for
/// overdue attempts.
const RECV_SLICE: Duration = Duration::from_millis(5);

/// Static description of the simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of data/compute nodes (the paper's `M` learners map 1:1 onto
    /// nodes in the trainers). Each node runs one map task at a time.
    pub nodes: usize,
    /// Per-task retry budget (attempts, not retries).
    pub max_attempts: usize,
    /// Injected faults (empty by default).
    pub fault_plan: FaultPlan,
    /// A map attempt older than this declares its node dead: the
    /// attempt's tasks re-queue on survivors and the node is never
    /// scheduled again. Generous by default (a minute) so legitimate
    /// long maps survive; chaos tests shrink it.
    pub task_timeout: Duration,
}

impl Default for ClusterConfig {
    /// Four nodes — the paper's evaluation setup — and three attempts.
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            max_attempts: 3,
            fault_plan: FaultPlan::new(),
            task_timeout: Duration::from_secs(60),
        }
    }
}

impl ClusterConfig {
    fn validate(&self) -> Result<(), MapReduceError> {
        let fail = |reason: &str| {
            Err(MapReduceError::BadConfig {
                reason: reason.to_string(),
            })
        };
        if self.nodes == 0 {
            return fail("zero nodes");
        }
        if self.max_attempts == 0 {
            return fail("max_attempts must be at least 1");
        }
        if self.task_timeout.is_zero() {
            return fail("task_timeout must be nonzero");
        }
        Ok(())
    }
}

/// What one driven iteration returned.
pub struct IterationOutput<J: IterativeJob> {
    /// Reduce outputs in key order.
    pub outputs: Vec<(J::Key, J::ReduceOut)>,
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Metrics for this iteration only (cumulative totals live on
    /// [`Cluster::metrics`]).
    pub metrics: JobMetrics,
}

impl<J: IterativeJob> std::fmt::Debug for IterationOutput<J>
where
    J::Key: std::fmt::Debug,
    J::ReduceOut: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IterationOutput")
            .field("iteration", &self.iteration)
            .field("outputs", &self.outputs)
            .field("metrics", &self.metrics)
            .finish()
    }
}

/// One map attempt, sent to the worker of the node it is placed on.
struct MapTask<J: IterativeJob> {
    block: BlockId,
    /// Attempt id within the iteration; results echo it so the driver
    /// can drop stale answers from nodes it gave up on.
    attempt: usize,
    payload: Arc<J::BlockPayload>,
    state: J::MapperState,
    broadcast: J::Broadcast,
    inject_failure: bool,
    delay: Duration,
}

struct MapResult<J: IterativeJob> {
    block: BlockId,
    attempt: usize,
    node: NodeId,
    state: J::MapperState,
    pairs: Option<Vec<(J::Key, J::MapOut)>>,
    elapsed: Duration,
}

/// A running iterative MapReduce cluster bound to one job.
///
/// See the crate-level docs for the execution model and an end-to-end
/// example.
pub struct Cluster<J: IterativeJob> {
    job: Arc<J>,
    config: ClusterConfig,
    store: BlockStore<J::BlockPayload>,
    states: BTreeMap<BlockId, J::MapperState>,
    /// One task queue per node; dropping them stops the workers.
    senders: Vec<Sender<MapTask<J>>>,
    results: Receiver<MapResult<J>>,
    handles: Vec<JoinHandle<()>>,
    metrics: JobMetrics,
    iteration: usize,
    /// Nodes declared dead (overdue attempt or closed channel). A dead
    /// node is blacklisted for the rest of the cluster's life.
    dead: Vec<bool>,
}

impl<J: IterativeJob> Cluster<J>
where
    J::BlockPayload: ByteSized,
{
    /// Boots one worker thread per node and an empty block store.
    ///
    /// # Errors
    ///
    /// [`MapReduceError::BadConfig`] for degenerate configurations;
    /// [`MapReduceError::WorkerLost`] when a node's worker thread cannot
    /// be started (the workers already started are stopped first).
    pub fn new(config: ClusterConfig, job: J) -> Result<Self, MapReduceError> {
        config.validate()?;
        let job = Arc::new(job);
        let (result_tx, results) = channel::<MapResult<J>>();
        let mut senders = Vec::with_capacity(config.nodes);
        let mut handles: Vec<JoinHandle<()>> = Vec::with_capacity(config.nodes);
        for node in (0..config.nodes).map(NodeId) {
            let (tx, rx) = channel::<MapTask<J>>();
            let (fault, job, result_tx) = (
                config.fault_plan.worker(node),
                Arc::clone(&job),
                result_tx.clone(),
            );
            let spawned = std::thread::Builder::new()
                .name(format!("mr-{node}"))
                .spawn(move || worker_loop(node, fault, job, rx, result_tx));
            let Ok(handle) = spawned else {
                // Closing the queues stops the workers already running.
                drop(senders);
                for handle in handles {
                    let _ = handle.join();
                }
                return Err(MapReduceError::WorkerLost { node });
            };
            senders.push(tx);
            handles.push(handle);
        }
        Ok(Cluster {
            store: BlockStore::new(config.nodes),
            dead: vec![false; config.nodes],
            job,
            config,
            states: BTreeMap::new(),
            senders,
            results,
            handles,
            metrics: JobMetrics::default(),
            iteration: 0,
        })
    }

    /// Loads blocks with automatic (round-robin) placement; returns their
    /// ids in input order.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid configs; returns `Result` to keep the
    /// signature stable once quota checks land.
    pub fn load_blocks(
        &mut self,
        payloads: Vec<J::BlockPayload>,
    ) -> Result<Vec<BlockId>, MapReduceError> {
        Ok(payloads
            .into_iter()
            .map(|p| {
                let id = self.store.put(p);
                self.init_block(id);
                id
            })
            .collect())
    }

    /// Loads one block pinned to a specific node — learner `m`'s private
    /// partition must live on learner `m`'s machine.
    ///
    /// # Errors
    ///
    /// [`MapReduceError::BadConfig`] when the node does not exist.
    pub fn load_block_on(
        &mut self,
        payload: J::BlockPayload,
        node: NodeId,
    ) -> Result<BlockId, MapReduceError> {
        if node.0 >= self.config.nodes {
            return Err(MapReduceError::BadConfig {
                reason: format!("no such node {node}"),
            });
        }
        let id = self.store.put_on(payload, node);
        self.init_block(id);
        Ok(id)
    }

    /// (Re-)derives a block's mapper state from its payload.
    fn init_block(&mut self, block: BlockId) {
        let payload = self.store.payload(block).expect("stored block");
        self.states
            .insert(block, self.job.init_state(block, &payload));
    }

    /// Runs one Map → Shuffle → Reduce round with the given broadcast and
    /// returns the reduce outputs (in key order) plus per-iteration metrics.
    /// The lone reducer runs inline on the driver.
    ///
    /// Fault tolerance: failed attempts retry on other nodes within
    /// `max_attempts`; a node whose attempt outlives
    /// `task_timeout` (or whose channel is closed) is declared dead, its
    /// in-flight tasks re-queue on survivors, and the node is never
    /// scheduled again. Late results from a node the driver gave up on
    /// are dropped by their `(attempt, node)` tag.
    ///
    /// # Errors
    ///
    /// [`MapReduceError::NoBlocks`] before any data is loaded;
    /// [`MapReduceError::TaskFailed`] when a task exhausts its attempts;
    /// [`MapReduceError::QuorumLost`] when every node has died.
    pub fn run_iteration(
        &mut self,
        broadcast: &J::Broadcast,
    ) -> Result<IterationOutput<J>, MapReduceError> {
        let blocks = self.store.block_ids();
        if blocks.is_empty() {
            return Err(MapReduceError::NoBlocks);
        }
        let mut iter_metrics = JobMetrics {
            iterations: 1,
            ..Default::default()
        };

        // Broadcast cost: once per node that receives at least one task
        // (charged lazily as dispatches actually land).
        let mut nodes_hit: Vec<bool> = vec![false; self.config.nodes];
        // Tasks awaiting (re-)placement, attempts handed out so far,
        // current placements, and per-block node exclusions from failed
        // attempts.
        let mut pending: Vec<BlockId> = blocks.clone();
        let mut attempts: BTreeMap<BlockId, usize> = BTreeMap::new();
        let mut inflight: BTreeMap<BlockId, (NodeId, usize, Instant)> = BTreeMap::new();
        let mut exclusions: Vec<(BlockId, NodeId)> = Vec::new();

        #[allow(clippy::type_complexity)]
        let mut block_outputs: BTreeMap<BlockId, Vec<(J::Key, J::MapOut)>> = BTreeMap::new();
        while block_outputs.len() < blocks.len() {
            if self.dead.iter().all(|d| *d) {
                return Err(MapReduceError::QuorumLost {
                    alive: 0,
                    needed: 1,
                });
            }

            // Dispatch the queued wave in one batch so the fallback
            // placement balances load across it.
            if !pending.is_empty() {
                let wave = std::mem::take(&mut pending);
                for (block, node) in self.place(&wave, &exclusions) {
                    let attempt = attempts.entry(block).and_modify(|n| *n += 1).or_insert(1);
                    let attempt = *attempt;
                    if self.dispatch(
                        block,
                        node,
                        attempt,
                        broadcast,
                        &mut nodes_hit,
                        &mut iter_metrics,
                    ) {
                        inflight.insert(block, (node, attempt, Instant::now()));
                    } else {
                        // Channel closed: the node's worker is gone.
                        // Declare it and re-queue for the next wave
                        // (placement must re-run without it).
                        self.declare_node_dead(
                            node,
                            &mut inflight,
                            &mut pending,
                            &mut iter_metrics,
                        );
                        pending.push(block);
                    }
                }
                continue;
            }

            // Collect one result slice, retrying failures on other nodes.
            match self.results.recv_timeout(RECV_SLICE) {
                Ok(res) => {
                    let current = inflight.get(&res.block).copied();
                    let Some((node, attempt, _)) = current else {
                        continue; // late result for a block already done
                    };
                    if attempt != res.attempt || node != res.node {
                        continue; // stale attempt from a node given up on
                    }
                    inflight.remove(&res.block);
                    iter_metrics.map_time += res.elapsed;
                    self.states.insert(res.block, res.state);
                    match res.pairs {
                        Some(pairs) => {
                            for (_, v) in &pairs {
                                iter_metrics.bytes_shuffled += framed(v.byte_len());
                            }
                            if telemetry::enabled() {
                                ClusterRegistry::global().observe_task_lag(
                                    res.node.0 as u32,
                                    self.iteration as u64,
                                    res.elapsed.as_nanos() as u64,
                                );
                            }
                            block_outputs.insert(res.block, pairs);
                        }
                        None => {
                            iter_metrics.task_retries += 1;
                            let tried = attempts.get(&res.block).copied().unwrap_or(1);
                            if tried >= self.config.max_attempts {
                                return Err(MapReduceError::TaskFailed {
                                    block: res.block,
                                    attempts: tried,
                                });
                            }
                            // Exclude the node that just failed this
                            // attempt, then re-place the task elsewhere.
                            exclusions.push((res.block, res.node));
                            pending.push(res.block);
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(MapReduceError::QuorumLost {
                        alive: 0,
                        needed: 1,
                    });
                }
            }

            // Liveness sweep: an attempt older than task_timeout means
            // its node is dead or wedged — either way, give up on it.
            let now = Instant::now();
            let overdue: Vec<NodeId> = inflight
                .values()
                .filter(|(_, _, started)| now.duration_since(*started) > self.config.task_timeout)
                .map(|(node, _, _)| *node)
                .collect();
            for node in overdue {
                self.declare_node_dead(node, &mut inflight, &mut pending, &mut iter_metrics);
            }
        }

        // Shuffle, grouped by key (blocks in id order within each key
        // group), and the lone reducer inline on the driver.
        let mut groups: BTreeMap<J::Key, Vec<J::MapOut>> = BTreeMap::new();
        for (k, v) in block_outputs.into_values().flatten() {
            groups.entry(k).or_default().push(v);
        }
        let reduce_start = Instant::now();
        let outputs = groups
            .into_iter()
            .map(|(k, vs)| {
                let r = self.job.reduce(&k, vs);
                (k, r)
            })
            .collect();
        iter_metrics.reduce_time = reduce_start.elapsed();

        // Hand the round's attempt timings to the straggler scorer and
        // surface its verdicts.
        if telemetry::enabled() {
            for v in ClusterRegistry::global().score_task_round(self.iteration as u64) {
                if v.is_slow() {
                    telemetry::emit(
                        NO_PARTY,
                        EventKind::SlowWorker {
                            node: v.party,
                            iteration: v.iteration,
                            lag_ns: v.lag_ns,
                            median_ns: v.median_ns,
                            score: v.score,
                        },
                    );
                }
            }
        }

        let iteration = self.iteration;
        telemetry::emit(
            NO_PARTY,
            EventKind::BroadcastBytes {
                iteration: iteration as u64,
                bytes: iter_metrics.bytes_broadcast as u64,
            },
        );
        telemetry::emit(
            NO_PARTY,
            EventKind::ShuffleBytes {
                iteration: iteration as u64,
                bytes: iter_metrics.bytes_shuffled as u64,
            },
        );
        self.iteration += 1;
        self.metrics.merge(&iter_metrics);
        Ok(IterationOutput {
            outputs,
            iteration,
            metrics: iter_metrics,
        })
    }

    /// Places one wave of map tasks. A block maps on its home node unless
    /// that node is dead or already failed the block this round; then it
    /// goes to the allowed node with the fewest tasks placed so far in the
    /// wave, lowest id on ties — a remote read. A live home is never
    /// traded for balance: a remote read moves a learner's private rows.
    /// When every live node has failed a block, its failures are forgiven
    /// (only death stays permanent) so a retry within budget still has
    /// somewhere to run.
    fn place(&self, wave: &[BlockId], exclusions: &[(BlockId, NodeId)]) -> Vec<(BlockId, NodeId)> {
        let mut load = vec![0usize; self.config.nodes];
        let mut placed = Vec::with_capacity(wave.len());
        for &block in wave {
            let failed = |n: usize| exclusions.contains(&(block, NodeId(n)));
            let forgive = (0..self.config.nodes).all(|n| self.dead[n] || failed(n));
            let allowed = |n: &usize| !self.dead[*n] && (forgive || !failed(*n));
            let home = self.store.home(block).expect("placed block exists").0;
            let node = if allowed(&home) {
                home
            } else {
                let nodes = (0..self.config.nodes).filter(allowed);
                nodes.min_by_key(|&n| (load[n], n)).unwrap_or(home)
            };
            load[node] += 1;
            placed.push((block, NodeId(node)));
        }
        placed
    }

    /// Sends one map attempt to `node`. Returns `false` when the node's
    /// channel is closed (its worker is gone); the mapper state is
    /// recovered from the undelivered message so the caller can re-queue.
    fn dispatch(
        &mut self,
        block: BlockId,
        node: NodeId,
        attempt: usize,
        broadcast: &J::Broadcast,
        nodes_hit: &mut [bool],
        iter_metrics: &mut JobMetrics,
    ) -> bool {
        let payload = self.store.payload(block).expect("placed block exists");
        let state = self
            .states
            .remove(&block)
            .expect("state present for placed block");
        let payload_len = payload.byte_len();
        let data_local = self.store.home(block) == Some(node);
        let spec = self.config.fault_plan.spec(self.iteration, block);
        match self.senders[node.0].send(MapTask {
            block,
            attempt,
            payload,
            state,
            broadcast: broadcast.clone(),
            inject_failure: attempt <= spec.fail_attempts,
            delay: spec.delay,
        }) {
            Ok(()) => {
                if data_local {
                    iter_metrics.locality_hits += 1;
                } else {
                    iter_metrics.remote_reads += 1;
                    iter_metrics.bytes_remote_read += framed(payload_len);
                }
                if !nodes_hit[node.0] {
                    nodes_hit[node.0] = true;
                    iter_metrics.bytes_broadcast += framed(broadcast.byte_len());
                }
                telemetry::emit(
                    NO_PARTY,
                    EventKind::TaskAttempt {
                        block: block.0,
                        node: node.0 as u32,
                        attempt: attempt as u32,
                        local: data_local,
                    },
                );
                if telemetry::enabled() {
                    ClusterRegistry::global().fold_task_attempt(node.0 as u32);
                }
                true
            }
            Err(std::sync::mpsc::SendError(task)) => {
                // The task never left; put its state back.
                self.states.insert(block, task.state);
                false
            }
        }
    }

    /// Declares `node` dead: blacklists it, re-queues its in-flight tasks
    /// (their mapper state went down with it and is re-derived from the
    /// block payload), and emits the death once.
    fn declare_node_dead(
        &mut self,
        node: NodeId,
        inflight: &mut BTreeMap<BlockId, (NodeId, usize, Instant)>,
        pending: &mut Vec<BlockId>,
        iter_metrics: &mut JobMetrics,
    ) {
        let lost: Vec<BlockId> = inflight
            .iter()
            .filter(|(_, (n, _, _))| *n == node)
            .map(|(b, _)| *b)
            .collect();
        for block in &lost {
            inflight.remove(block);
            self.init_block(*block);
            pending.push(*block);
        }
        if !self.dead[node.0] {
            self.dead[node.0] = true;
            iter_metrics.workers_lost += 1;
            telemetry::emit(
                NO_PARTY,
                EventKind::WorkerDead {
                    node: node.0 as u32,
                    inflight: lost.len() as u32,
                },
            );
            if telemetry::enabled() {
                ClusterRegistry::global().fold_worker_death(node.0 as u32);
            }
        }
    }

    /// Cumulative metrics since the cluster booted.
    pub fn metrics(&self) -> &JobMetrics {
        &self.metrics
    }

    /// Number of iterations driven so far.
    #[cfg(test)]
    fn iterations_run(&self) -> usize {
        self.iteration
    }

    /// Nodes not declared dead so far.
    #[cfg(test)]
    fn live_nodes(&self) -> usize {
        self.dead.iter().filter(|d| !**d).count()
    }

    /// The block directory (placement inspection for tests/benches).
    pub fn store(&self) -> &BlockStore<J::BlockPayload> {
        &self.store
    }

    /// Read access to a block's persistent mapper state.
    pub fn mapper_state(&self, block: BlockId) -> Option<&J::MapperState> {
        self.states.get(&block)
    }
}

/// Bytes one value costs on the wire: its encoding carried as the payload
/// of a single transport frame. Keeping the metrics in frame units makes
/// them directly comparable with the byte counters the TCP/loopback
/// transports report for the genuinely distributed deployment.
fn framed(payload_len: usize) -> usize {
    FRAME_OVERHEAD + payload_len
}

/// A node's worker: runs the map tasks of its queue one at a time until
/// the queue closes.
fn worker_loop<J: IterativeJob>(
    node: NodeId,
    fault: WorkerFault,
    job: Arc<J>,
    rx: Receiver<MapTask<J>>,
    tx: Sender<MapResult<J>>,
) {
    telemetry::emit(
        NO_PARTY,
        EventKind::WorkerUp {
            node: node.0 as u32,
        },
    );
    let mut tasks_taken = 0usize;
    for task in rx {
        tasks_taken += 1;
        if fault.kill_on_task == Some(tasks_taken) {
            // Mid-task death: no result is ever sent and the worker is
            // gone — indistinguishable from a SIGKILL to the driver,
            // which must notice via its task timeout.
            break;
        }
        if !fault.slow_by.is_zero() {
            std::thread::sleep(fault.slow_by);
        }
        if !task.delay.is_zero() {
            std::thread::sleep(task.delay);
        }
        let mut state = task.state;
        let start = Instant::now();
        let pairs = (!task.inject_failure)
            .then(|| job.map(node, &task.payload, &mut state, &task.broadcast));
        let _ = tx.send(MapResult {
            block: task.block,
            attempt: task.attempt,
            node,
            state,
            pairs,
            elapsed: start.elapsed(),
        });
    }
    telemetry::emit(
        NO_PARTY,
        EventKind::WorkerDown {
            node: node.0 as u32,
        },
    );
}

impl<J: IterativeJob> Drop for Cluster<J> {
    fn drop(&mut self) {
        // Closing the queues ends every worker's loop.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classic word-count, iterative only trivially (one round).
    struct WordCount;

    impl IterativeJob for WordCount {
        type BlockPayload = String;
        type MapperState = usize; // counts how many times this block was mapped
        type Broadcast = ();
        type Key = String;
        type MapOut = u64;
        type ReduceOut = u64;

        fn init_state(&self, _: BlockId, _: &String) -> usize {
            0
        }

        fn map(
            &self,
            _node: NodeId,
            payload: &String,
            state: &mut usize,
            _b: &(),
        ) -> Vec<(String, u64)> {
            *state += 1;
            payload
                .split_whitespace()
                .map(|w| (w.to_string(), 1))
                .collect()
        }

        fn reduce(&self, _k: &String, values: Vec<u64>) -> u64 {
            values.into_iter().sum()
        }
    }

    fn wc_cluster(config: ClusterConfig) -> Cluster<WordCount> {
        let mut c = Cluster::new(config, WordCount).unwrap();
        c.load_blocks(vec![
            "the quick brown fox".to_string(),
            "the lazy dog".to_string(),
            "the fox".to_string(),
        ])
        .unwrap();
        c
    }

    fn counts(out: &IterationOutput<WordCount>) -> BTreeMap<String, u64> {
        out.outputs.iter().cloned().collect()
    }

    #[test]
    fn word_count_is_correct() {
        let mut c = wc_cluster(ClusterConfig::default());
        let out = c.run_iteration(&()).unwrap();
        let m = counts(&out);
        assert_eq!(m["the"], 3);
        assert_eq!(m["fox"], 2);
        assert_eq!(m["dog"], 1);
        assert_eq!(m.len(), 6);
    }

    #[test]
    fn results_identical_across_cluster_shapes() {
        let shapes = [
            ClusterConfig {
                nodes: 1,
                ..Default::default()
            },
            ClusterConfig {
                nodes: 3,
                ..Default::default()
            },
            ClusterConfig {
                nodes: 8,
                ..Default::default()
            },
        ];
        let mut reference = None;
        for cfg in shapes {
            let mut c = wc_cluster(cfg);
            let out = counts(&c.run_iteration(&()).unwrap());
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r),
            }
        }
    }

    #[test]
    fn mapper_state_persists_across_iterations() {
        let mut c = wc_cluster(ClusterConfig::default());
        let blocks = c.store().block_ids();
        for _ in 0..5 {
            c.run_iteration(&()).unwrap();
        }
        for b in blocks {
            assert_eq!(*c.mapper_state(b).unwrap(), 5);
        }
        assert_eq!(c.iterations_run(), 5);
    }

    #[test]
    fn injected_failure_is_retried_and_result_unchanged() {
        let blocks_probe = {
            let c = wc_cluster(ClusterConfig::default());
            c.store().block_ids()
        };
        let cfg = ClusterConfig {
            fault_plan: FaultPlan::new().fail_first_attempts(0, blocks_probe[0], 1),
            ..Default::default()
        };
        let mut c = wc_cluster(cfg);
        let out = c.run_iteration(&()).unwrap();
        assert_eq!(counts(&out)["the"], 3);
        assert_eq!(out.metrics.task_retries, 1);
    }

    #[test]
    fn exhausted_retries_error_out() {
        let blocks_probe = {
            let c = wc_cluster(ClusterConfig::default());
            c.store().block_ids()
        };
        let cfg = ClusterConfig {
            max_attempts: 2,
            fault_plan: FaultPlan::new().fail_first_attempts(0, blocks_probe[0], 10),
            ..Default::default()
        };
        let mut c = wc_cluster(cfg);
        match c.run_iteration(&()) {
            Err(MapReduceError::TaskFailed { attempts, .. }) => assert_eq!(attempts, 2),
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn straggler_delay_shows_in_map_time() {
        let blocks_probe = {
            let c = wc_cluster(ClusterConfig::default());
            c.store().block_ids()
        };
        // Delay is applied before timing starts; map_time measures useful
        // work, so instead check wall clock of the iteration.
        let cfg = ClusterConfig {
            fault_plan: FaultPlan::new().delay(0, blocks_probe[0], Duration::from_millis(30)),
            ..Default::default()
        };
        let mut c = wc_cluster(cfg);
        let t0 = Instant::now();
        c.run_iteration(&()).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn metrics_track_locality_and_shuffle() {
        let mut c = wc_cluster(ClusterConfig::default());
        let out = c.run_iteration(&()).unwrap();
        // Without faults every block maps on its home node.
        assert_eq!(out.metrics.locality_hits, 3);
        assert_eq!(out.metrics.remote_reads, 0);
        assert!(out.metrics.bytes_shuffled > 0);
        assert_eq!(c.metrics().iterations, 1);
    }

    #[test]
    fn no_blocks_is_an_error() {
        let mut c: Cluster<WordCount> = Cluster::new(ClusterConfig::default(), WordCount).unwrap();
        assert!(matches!(
            c.run_iteration(&()),
            Err(MapReduceError::NoBlocks)
        ));
    }

    #[test]
    fn bad_configs_rejected() {
        for cfg in [
            ClusterConfig {
                nodes: 0,
                ..Default::default()
            },
            ClusterConfig {
                max_attempts: 0,
                ..Default::default()
            },
        ] {
            assert!(Cluster::new(cfg, WordCount).is_err());
        }
    }

    #[test]
    fn all_local_when_blocks_match_nodes() {
        let mut c: Cluster<WordCount> = Cluster::new(ClusterConfig::default(), WordCount).unwrap();
        let blocks = c.load_blocks(vec!["w".to_string(); 4]).unwrap();
        // One task per node, each on its home.
        let plan = c.place(&blocks, &[]);
        let nodes: Vec<usize> = plan.iter().map(|(_, n)| n.0).collect();
        assert_eq!(nodes, vec![0, 1, 2, 3]);
        let out = c.run_iteration(&()).unwrap();
        assert_eq!(out.metrics.locality_hits, 4);
        assert_eq!(out.metrics.remote_reads, 0);
    }

    #[test]
    fn skewed_blocks_stay_on_their_home_node() {
        // Every block lives on node 0: strict locality keeps all eight
        // maps there instead of moving rows to idle nodes.
        let mut c: Cluster<WordCount> = Cluster::new(ClusterConfig::default(), WordCount).unwrap();
        for i in 0..8 {
            c.load_block_on(format!("words number {i}"), NodeId(0))
                .unwrap();
        }
        let plan = c.place(&c.store().block_ids(), &[]);
        assert!(plan.iter().all(|(_, n)| *n == NodeId(0)));
        let out = c.run_iteration(&()).unwrap();
        assert_eq!(out.metrics.locality_ratio(), 1.0);
        assert_eq!(out.metrics.bytes_remote_read, 0);
    }

    #[test]
    fn exclusion_moves_task_elsewhere() {
        let mut c = wc_cluster(ClusterConfig {
            nodes: 3,
            ..Default::default()
        });
        let b = c.store().block_ids();
        // Block 0 failed on node 0: it moves to the emptiest allowed node
        // (node 1, lowest id of a tie), and block 1 still maps on its
        // live home although node 1 now runs two tasks.
        let plan = c.place(&b, &[(b[0], NodeId(0))]);
        assert_eq!(
            plan,
            vec![(b[0], NodeId(1)), (b[1], NodeId(1)), (b[2], NodeId(2))]
        );
        // With node 1 dead too, block 0 has only node 2 left and block 1
        // goes to the emptiest survivor, node 0.
        c.dead[1] = true;
        let plan = c.place(&b, &[(b[0], NodeId(0))]);
        assert_eq!(
            plan,
            vec![(b[0], NodeId(2)), (b[1], NodeId(0)), (b[2], NodeId(2))]
        );
        // A block every live node has failed may run on them again.
        let plan = c.place(&b[..1], &[(b[0], NodeId(0)), (b[0], NodeId(2))]);
        assert_eq!(plan, vec![(b[0], NodeId(0))]);
    }

    #[test]
    fn deterministic() {
        let mut c: Cluster<WordCount> = Cluster::new(ClusterConfig::default(), WordCount).unwrap();
        let b = c.load_blocks(vec!["w".to_string(); 10]).unwrap();
        c.dead[1] = true;
        let failed = [(b[0], NodeId(0)), (b[4], NodeId(2))];
        assert_eq!(c.place(&b, &failed), c.place(&b, &failed));
    }

    #[test]
    fn killed_worker_requeues_tasks_and_result_unchanged() {
        let reference = {
            let mut c = wc_cluster(ClusterConfig::default());
            counts(&c.run_iteration(&()).unwrap())
        };
        // Node 0 holds block 0 (round-robin placement) and dies mid-way
        // through its first map; the task must re-run on a survivor.
        let cfg = ClusterConfig {
            fault_plan: FaultPlan::new().kill_worker_on_task(NodeId(0), 1),
            task_timeout: Duration::from_millis(250),
            ..Default::default()
        };
        let mut c = wc_cluster(cfg);
        let out = c.run_iteration(&()).unwrap();
        assert_eq!(counts(&out), reference, "death changed the answer");
        assert_eq!(out.metrics.workers_lost, 1);
        assert!(
            out.metrics.remote_reads >= 1,
            "requeue must pay a remote read"
        );
        assert_eq!(c.live_nodes(), 3);

        // The dead node stays blacklisted; later iterations still work
        // and do not re-count the death.
        let out2 = c.run_iteration(&()).unwrap();
        assert_eq!(counts(&out2), reference);
        assert_eq!(out2.metrics.workers_lost, 0);
    }

    #[test]
    fn lone_dead_worker_is_quorum_lost() {
        let cfg = ClusterConfig {
            nodes: 1,
            fault_plan: FaultPlan::new().kill_worker_on_task(NodeId(0), 1),
            task_timeout: Duration::from_millis(150),
            ..Default::default()
        };
        let mut c = wc_cluster(cfg);
        match c.run_iteration(&()) {
            Err(MapReduceError::QuorumLost { alive, needed }) => {
                assert_eq!(alive, 0);
                assert_eq!(needed, 1);
            }
            other => panic!("expected QuorumLost, got {other:?}"),
        }
    }

    #[test]
    fn slow_worker_fault_stalls_but_answers() {
        let cfg = ClusterConfig {
            fault_plan: FaultPlan::new().slow_worker(NodeId(1), Duration::from_millis(40)),
            ..Default::default()
        };
        let mut c = wc_cluster(cfg);
        let t0 = Instant::now();
        let out = c.run_iteration(&()).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(40));
        assert_eq!(counts(&out)["the"], 3);
        assert_eq!(out.metrics.workers_lost, 0);
    }

    #[test]
    fn overdue_straggler_is_abandoned_and_its_late_result_ignored() {
        // Node 0 is slowed far past the task timeout: the driver gives
        // up on it, re-runs its block elsewhere, and must drop the
        // straggler's eventual (stale) result instead of double-counting.
        let cfg = ClusterConfig {
            fault_plan: FaultPlan::new().slow_worker(NodeId(0), Duration::from_millis(400)),
            task_timeout: Duration::from_millis(80),
            ..Default::default()
        };
        let mut c = wc_cluster(cfg);
        let out = c.run_iteration(&()).unwrap();
        assert_eq!(counts(&out)["the"], 3);
        assert_eq!(out.metrics.workers_lost, 1);
        assert_eq!(c.live_nodes(), 3);
        // The stale result lands during the next iteration and must not
        // disturb it.
        let out2 = c.run_iteration(&()).unwrap();
        assert_eq!(counts(&out2)["the"], 3);
        assert_eq!(counts(&out2).len(), 6);
    }

    #[test]
    fn zero_task_timeout_rejected() {
        let cfg = ClusterConfig {
            task_timeout: Duration::ZERO,
            ..Default::default()
        };
        assert!(Cluster::new(cfg, WordCount).is_err());
    }

    #[test]
    fn pinned_blocks_map_on_their_node() {
        let mut c: Cluster<WordCount> = Cluster::new(ClusterConfig::default(), WordCount).unwrap();
        let id = c
            .load_block_on("private words".to_string(), NodeId(2))
            .unwrap();
        assert_eq!(c.store().home(id), Some(NodeId(2)));
        let out = c.run_iteration(&()).unwrap();
        assert_eq!(out.metrics.locality_hits, 1);
        assert!(c.load_block_on("x".to_string(), NodeId(99)).is_err());
    }
}
