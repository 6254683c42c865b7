//! The threaded cluster runtime: workers, shuffle, reduce, iteration driver.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ppml_telemetry as telemetry;
use ppml_transport::FRAME_OVERHEAD;
use telemetry::{ClusterRegistry, EventKind, NO_PARTY};

use crate::fault::WorkerFault;
use crate::{
    BlockId, BlockStore, ByteSized, FaultPlan, IterativeJob, JobMetrics, MapReduceError, NodeId,
    Scheduler,
};

/// How often the driver wakes from the result queue to sweep for
/// overdue attempts.
const RECV_SLICE: Duration = Duration::from_millis(5);

/// Static description of the simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of data/compute nodes (the paper's `M` learners map 1:1 onto
    /// nodes in the trainers).
    pub nodes: usize,
    /// Concurrent map slots per node.
    pub map_slots_per_node: usize,
    /// HDFS-style replication factor for stored blocks.
    pub replication: usize,
    /// Per-task retry budget (attempts, not retries).
    pub max_attempts: usize,
    /// Injected faults (empty by default).
    pub fault_plan: FaultPlan,
    /// Scheduler locality/balance trade-off; see
    /// [`Scheduler::with_locality_slack`].
    pub locality_slack: usize,
    /// Number of parallel reduce tasks per iteration. `1` reduces inline on
    /// the driver (the paper's single-Reducer topology); larger values
    /// partition the key space round-robin across worker nodes.
    pub reduce_tasks: usize,
    /// A map attempt older than this declares its node dead: the
    /// attempt's tasks re-queue on survivors and the node is never
    /// scheduled again. Generous by default (a minute) so legitimate
    /// long maps survive; chaos tests shrink it.
    pub task_timeout: Duration,
}

impl Default for ClusterConfig {
    /// Four nodes — the paper's evaluation setup — with one slot each,
    /// no replication, three attempts.
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            map_slots_per_node: 1,
            replication: 1,
            max_attempts: 3,
            fault_plan: FaultPlan::new(),
            locality_slack: 1,
            reduce_tasks: 1,
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
        if self.map_slots_per_node == 0 {
            return fail("zero map slots per node");
        }
        if self.replication == 0 || self.replication > self.nodes {
            return fail("replication must be in 1..=nodes");
        }
        if self.max_attempts == 0 {
            return fail("max_attempts must be at least 1");
        }
        if self.reduce_tasks == 0 {
            return fail("reduce_tasks must be at least 1");
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

enum WorkerMsg<J: IterativeJob> {
    Map {
        block: BlockId,
        /// Attempt id within the iteration; results echo it so the
        /// driver can drop stale answers from nodes it gave up on.
        attempt: usize,
        payload: Arc<J::BlockPayload>,
        state: J::MapperState,
        broadcast: J::Broadcast,
        inject_failure: bool,
        delay: Duration,
    },
    Reduce {
        groups: Vec<(J::Key, Vec<J::MapOut>)>,
    },
    Shutdown,
}

struct MapResult<J: IterativeJob> {
    block: BlockId,
    attempt: usize,
    node: NodeId,
    state: J::MapperState,
    pairs: Option<Vec<(J::Key, J::MapOut)>>,
    elapsed: Duration,
}

enum WorkerOut<J: IterativeJob> {
    Map(MapResult<J>),
    Reduce {
        outputs: Vec<(J::Key, J::ReduceOut)>,
        elapsed: Duration,
    },
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
    senders: Vec<Sender<WorkerMsg<J>>>,
    results: Receiver<WorkerOut<J>>,
    handles: Vec<JoinHandle<()>>,
    scheduler: Scheduler,
    metrics: JobMetrics,
    iteration: usize,
    /// Nodes declared dead (overdue attempt or closed channel). A dead
    /// node is blacklisted for the rest of the cluster's life.
    dead: Vec<bool>,
    /// The node a reduce phase lost after it had dispatched to others;
    /// their answers are still queued, so the job is over.
    reduce_lost: Option<NodeId>,
}

impl<J: IterativeJob> Cluster<J>
where
    J::BlockPayload: ByteSized,
{
    /// Boots the worker threads and an empty block store.
    ///
    /// # Errors
    ///
    /// [`MapReduceError::BadConfig`] for degenerate configurations.
    pub fn new(config: ClusterConfig, job: J) -> Result<Self, MapReduceError> {
        config.validate()?;
        let job = Arc::new(job);
        let (result_tx, results) = channel::<WorkerOut<J>>();
        let mut senders = Vec::with_capacity(config.nodes);
        let mut handles = Vec::new();
        for node in 0..config.nodes {
            // `std::sync::mpsc` receivers are single-consumer; the map slots
            // of one node share theirs behind a mutex (lock, take one
            // message, release — the queue itself stays MPMC-shaped).
            let (tx, rx) = channel::<WorkerMsg<J>>();
            senders.push(tx);
            let rx = Arc::new(Mutex::new(rx));
            let fault = config.fault_plan.worker(NodeId(node));
            for slot in 0..config.map_slots_per_node {
                let rx = Arc::clone(&rx);
                let result_tx = result_tx.clone();
                let job = Arc::clone(&job);
                let node_id = NodeId(node);
                let handle = std::thread::Builder::new()
                    .name(format!("mr-node{node}-slot{slot}"))
                    .spawn(move || worker_loop(node_id, fault, job, rx, result_tx))
                    .expect("spawning worker thread");
                handles.push(handle);
            }
        }
        Ok(Cluster {
            scheduler: Scheduler::new(config.nodes).with_locality_slack(config.locality_slack),
            store: BlockStore::new(config.nodes, config.replication),
            dead: vec![false; config.nodes],
            job,
            config,
            states: BTreeMap::new(),
            senders,
            results,
            handles,
            metrics: JobMetrics::default(),
            iteration: 0,
            reduce_lost: None,
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
                let payload = self.store.payload(id).expect("just inserted");
                self.states.insert(id, self.job.init_state(id, &payload));
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
        let payload = self.store.payload(id).expect("just inserted");
        self.states.insert(id, self.job.init_state(id, &payload));
        Ok(id)
    }

    /// Runs one Map → Shuffle → Reduce round with the given broadcast and
    /// returns the reduce outputs (in key order) plus per-iteration metrics.
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
    /// [`MapReduceError::QuorumLost`] when every node has died;
    /// [`MapReduceError::WorkerLost`] if a worker thread panicked
    /// mid-reduce, and again from a later call that meets that round's
    /// leftover reduce results.
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

            // Dispatch the queued wave in one batch so the placement
            // heuristic balances load across it.
            if !pending.is_empty() {
                let wave = std::mem::take(&mut pending);
                let mut banned: Vec<(BlockId, NodeId)> = Vec::new();
                for &block in &wave {
                    banned.extend(self.banned_for(block, &exclusions));
                }
                for a in self.scheduler.assign(&self.store, &wave, &banned) {
                    let attempt = attempts.entry(a.block).and_modify(|n| *n += 1).or_insert(1);
                    let attempt = *attempt;
                    if self.dispatch(
                        a.block,
                        a.node,
                        a.data_local,
                        attempt,
                        broadcast,
                        &mut nodes_hit,
                        &mut iter_metrics,
                    ) {
                        inflight.insert(a.block, (a.node, attempt, Instant::now()));
                    } else {
                        // Channel closed: every thread of that node is
                        // gone. Declare it and re-queue for the next
                        // wave (placement must re-run without it).
                        self.declare_node_dead(
                            a.node,
                            &mut inflight,
                            &mut pending,
                            &mut iter_metrics,
                        );
                        pending.push(a.block);
                    }
                }
                continue;
            }

            // Collect one result slice, retrying failures on other nodes.
            match self.results.recv_timeout(RECV_SLICE) {
                Ok(WorkerOut::Map(res)) => {
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
                Ok(WorkerOut::Reduce { .. }) => {
                    // Left over from a reduce phase that lost a worker
                    // after dispatching: that round never completed, so
                    // the job cannot go on.
                    return Err(MapReduceError::WorkerLost {
                        node: self.reduce_lost.unwrap_or(NodeId(0)),
                    });
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

        // Shuffle: group by key, deterministic (blocks in id order within
        // each key group).
        let mut groups: BTreeMap<J::Key, Vec<J::MapOut>> = BTreeMap::new();
        for (_block, pairs) in block_outputs {
            for (k, v) in pairs {
                groups.entry(k).or_default().push(v);
            }
        }
        let outputs = self.run_reduce_phase(groups, &mut iter_metrics)?;

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

    /// Executes the reduce phase: inline for a single reduce task (the
    /// paper's lone-Reducer topology), otherwise partitioned round-robin
    /// over the worker nodes and merged back in key order.
    #[allow(clippy::type_complexity)]
    fn run_reduce_phase(
        &mut self,
        groups: BTreeMap<J::Key, Vec<J::MapOut>>,
        iter_metrics: &mut JobMetrics,
    ) -> Result<Vec<(J::Key, J::ReduceOut)>, MapReduceError> {
        let r_tasks = self.config.reduce_tasks.min(groups.len()).max(1);
        if r_tasks <= 1 {
            let reduce_start = Instant::now();
            let outputs = groups
                .into_iter()
                .map(|(k, vs)| {
                    let r = self.job.reduce(&k, vs);
                    (k, r)
                })
                .collect();
            iter_metrics.reduce_time = reduce_start.elapsed();
            return Ok(outputs);
        }
        // Partition key groups round-robin (keys arrive sorted, so the
        // partitioning is deterministic), dispatch one task per partition.
        #[allow(clippy::type_complexity)]
        let mut partitions: Vec<Vec<(J::Key, Vec<J::MapOut>)>> =
            (0..r_tasks).map(|_| Vec::new()).collect();
        for (i, kv) in groups.into_iter().enumerate() {
            partitions[i % r_tasks].push(kv);
        }
        // Round-robin over *live* nodes only — a dead node's channel
        // would swallow its partition forever.
        let live: Vec<usize> = (0..self.config.nodes).filter(|&n| !self.dead[n]).collect();
        if live.is_empty() {
            return Err(MapReduceError::QuorumLost {
                alive: 0,
                needed: 1,
            });
        }
        for (task, part) in partitions.into_iter().enumerate() {
            let node = live[task % live.len()];
            if self.senders[node]
                .send(WorkerMsg::Reduce { groups: part })
                .is_err()
            {
                self.reduce_lost = Some(NodeId(node));
                return Err(MapReduceError::WorkerLost { node: NodeId(node) });
            }
        }
        let mut merged: BTreeMap<J::Key, J::ReduceOut> = BTreeMap::new();
        let mut done = 0usize;
        while done < r_tasks {
            let out = self
                .results
                .recv()
                .map_err(|_| MapReduceError::WorkerLost { node: NodeId(0) })?;
            match out {
                WorkerOut::Reduce { outputs, elapsed } => {
                    iter_metrics.reduce_time += elapsed;
                    for (k, v) in outputs {
                        merged.insert(k, v);
                    }
                    done += 1;
                }
                // A straggler the map phase gave up on answering late.
                WorkerOut::Map(_) => {}
            }
        }
        Ok(merged.into_iter().collect())
    }

    /// Sends one map attempt to `node`. Returns `false` when the node's
    /// channel is closed (all its threads are gone); the mapper state is
    /// recovered from the undelivered message so the caller can re-queue.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        block: BlockId,
        node: NodeId,
        data_local: bool,
        attempt: usize,
        broadcast: &J::Broadcast,
        nodes_hit: &mut [bool],
        iter_metrics: &mut JobMetrics,
    ) -> bool {
        let payload = self.store.payload(block).expect("scheduled block exists");
        let state = self
            .states
            .remove(&block)
            .expect("state present for scheduled block");
        let payload_len = payload.byte_len();
        let spec = self.config.fault_plan.spec(self.iteration, block);
        let inject_failure = attempt <= spec.fail_attempts;
        match self.senders[node.0].send(WorkerMsg::Map {
            block,
            attempt,
            payload,
            state,
            broadcast: broadcast.clone(),
            inject_failure,
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
            Err(std::sync::mpsc::SendError(msg)) => {
                // The message never left; put its state back.
                if let WorkerMsg::Map { state, .. } = msg {
                    self.states.insert(block, state);
                }
                false
            }
        }
    }

    /// Node exclusions for one block: nodes that already failed it plus
    /// every dead node. When each live node has already failed the block,
    /// the failure history is forgiven (only death stays permanent) so a
    /// retry within budget still has somewhere to run.
    fn banned_for(
        &self,
        block: BlockId,
        exclusions: &[(BlockId, NodeId)],
    ) -> Vec<(BlockId, NodeId)> {
        let mut banned: Vec<(BlockId, NodeId)> = exclusions
            .iter()
            .copied()
            .filter(|(b, _)| *b == block)
            .collect();
        for n in 0..self.config.nodes {
            if self.dead[n] {
                banned.push((block, NodeId(n)));
            }
        }
        let distinct: BTreeSet<usize> = banned.iter().map(|(_, n)| n.0).collect();
        if distinct.len() >= self.config.nodes {
            banned.retain(|(_, n)| self.dead[n.0]);
        }
        banned
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
            let payload = self.store.payload(*block).expect("scheduled block exists");
            self.states
                .insert(*block, self.job.init_state(*block, &payload));
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
    pub fn iterations_run(&self) -> usize {
        self.iteration
    }

    /// Nodes not declared dead so far.
    pub fn live_nodes(&self) -> usize {
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

    /// The job being executed.
    pub fn job(&self) -> &J {
        &self.job
    }
}

/// Bytes one value costs on the wire: its encoding carried as the payload
/// of a single transport frame. Keeping the metrics in frame units makes
/// them directly comparable with the byte counters the TCP/loopback
/// transports report for the genuinely distributed deployment.
fn framed(payload_len: usize) -> usize {
    FRAME_OVERHEAD + payload_len
}

fn worker_loop<J: IterativeJob>(
    node: NodeId,
    fault: WorkerFault,
    job: Arc<J>,
    rx: Arc<Mutex<Receiver<WorkerMsg<J>>>>,
    tx: Sender<WorkerOut<J>>,
) {
    telemetry::emit(
        NO_PARTY,
        EventKind::WorkerUp {
            node: node.0 as u32,
        },
    );
    // Worker-level fault counter: map tasks dequeued by *this* slot
    // (with one slot per node — the default — that is the node's count).
    let mut tasks_taken = 0usize;
    loop {
        // Hold the lock only for the dequeue, never while mapping/reducing.
        let msg = match rx.lock().expect("worker queue lock").recv() {
            Ok(msg) => msg,
            Err(_) => break,
        };
        match msg {
            WorkerMsg::Shutdown => break,
            WorkerMsg::Reduce { groups } => {
                let start = Instant::now();
                let outputs: Vec<(J::Key, J::ReduceOut)> = groups
                    .into_iter()
                    .map(|(k, vs)| {
                        let r = job.reduce(&k, vs);
                        (k, r)
                    })
                    .collect();
                let _ = tx.send(WorkerOut::Reduce {
                    outputs,
                    elapsed: start.elapsed(),
                });
            }
            WorkerMsg::Map {
                block,
                attempt,
                payload,
                mut state,
                broadcast,
                inject_failure,
                delay,
            } => {
                tasks_taken += 1;
                if fault.kill_on_task == Some(tasks_taken) {
                    // Mid-task death: no result is ever sent and the slot
                    // is gone — indistinguishable from a SIGKILL to the
                    // driver, which must notice via its task timeout.
                    break;
                }
                if !fault.slow_by.is_zero() {
                    std::thread::sleep(fault.slow_by);
                }
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                let start = Instant::now();
                let pairs = if inject_failure {
                    None
                } else {
                    let raw = job.map(node, &payload, &mut state, &broadcast);
                    // Node-local combine before anything crosses the network.
                    let mut grouped: BTreeMap<J::Key, Vec<J::MapOut>> = BTreeMap::new();
                    for (k, v) in raw {
                        grouped.entry(k).or_default().push(v);
                    }
                    let mut combined = Vec::new();
                    for (k, vs) in grouped {
                        for v in job.combine(&k, vs) {
                            combined.push((k.clone(), v));
                        }
                    }
                    Some(combined)
                };
                let _ = tx.send(WorkerOut::Map(MapResult {
                    block,
                    attempt,
                    node,
                    state,
                    pairs,
                    elapsed: start.elapsed(),
                }));
            }
        }
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
        for tx in &self.senders {
            // One shutdown per slot sharing this node queue.
            for _ in 0..self.config.map_slots_per_node {
                let _ = tx.send(WorkerMsg::Shutdown);
            }
        }
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
        wc_cluster_of(config, WordCount)
    }

    fn wc_cluster_of<J>(config: ClusterConfig, job: J) -> Cluster<J>
    where
        J: IterativeJob<BlockPayload = String>,
    {
        let mut c = Cluster::new(config, job).unwrap();
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
                map_slots_per_node: 2,
                replication: 2,
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
        // 3 blocks on 4 nodes, replication 1, blocks ≤ nodes → all local.
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
                map_slots_per_node: 0,
                ..Default::default()
            },
            ClusterConfig {
                replication: 9,
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
    fn parallel_reduce_matches_inline_reduce() {
        let single = {
            let mut c = wc_cluster(ClusterConfig::default());
            counts(&c.run_iteration(&()).unwrap())
        };
        for reduce_tasks in [2usize, 3, 16] {
            let mut c = wc_cluster(ClusterConfig {
                reduce_tasks,
                ..Default::default()
            });
            let out = c.run_iteration(&()).unwrap();
            assert_eq!(counts(&out), single, "reduce_tasks = {reduce_tasks}");
        }
    }

    #[test]
    fn zero_reduce_tasks_rejected() {
        let cfg = ClusterConfig {
            reduce_tasks: 0,
            ..Default::default()
        };
        assert!(Cluster::new(cfg, WordCount).is_err());
    }

    /// Word-count with a summing combiner: same results, less shuffle.
    struct CombinedWordCount;

    impl IterativeJob for CombinedWordCount {
        type BlockPayload = String;
        type MapperState = ();
        type Broadcast = ();
        type Key = String;
        type MapOut = u64;
        type ReduceOut = u64;

        fn init_state(&self, _: BlockId, _: &String) {}

        fn map(&self, _n: NodeId, payload: &String, _s: &mut (), _b: &()) -> Vec<(String, u64)> {
            payload
                .split_whitespace()
                .map(|w| (w.to_string(), 1))
                .collect()
        }

        fn reduce(&self, _k: &String, values: Vec<u64>) -> u64 {
            values.into_iter().sum()
        }

        fn combine(&self, _k: &String, values: Vec<u64>) -> Vec<u64> {
            vec![values.into_iter().sum()]
        }
    }

    #[test]
    fn combiner_preserves_results_and_cuts_shuffle() {
        let payloads = vec![
            "a a a a b".to_string(),
            "a b b b".to_string(),
            "c a a".to_string(),
        ];
        let mut plain = wc_cluster(ClusterConfig::default());
        let plain_out = plain.run_iteration(&()).unwrap();
        let _ = plain_out;

        let mut with = Cluster::new(ClusterConfig::default(), CombinedWordCount).unwrap();
        with.load_blocks(payloads.clone()).unwrap();
        let combined_out = with.run_iteration(&()).unwrap();

        let mut without = Cluster::new(ClusterConfig::default(), WordCount).unwrap();
        without.load_blocks(payloads).unwrap();
        let without_out = without.run_iteration(&()).unwrap();

        let a: BTreeMap<String, u64> = combined_out.outputs.iter().cloned().collect();
        let b: BTreeMap<String, u64> = without_out.outputs.iter().cloned().collect();
        assert_eq!(a, b, "combiner changed the answer");
        assert!(
            combined_out.metrics.bytes_shuffled < without_out.metrics.bytes_shuffled,
            "combiner should cut shuffle bytes: {} vs {}",
            combined_out.metrics.bytes_shuffled,
            without_out.metrics.bytes_shuffled
        );
    }

    #[test]
    fn locality_slack_changes_locality_ratio() {
        // Skewed placement: every block lives on node 0. Strict balance
        // (slack 0) must spread the tasks and pay remote reads; generous
        // slack keeps them local to node 0.
        let run = |slack: usize| {
            let mut c: Cluster<WordCount> = Cluster::new(
                ClusterConfig {
                    locality_slack: slack,
                    ..Default::default()
                },
                WordCount,
            )
            .unwrap();
            for i in 0..8 {
                c.load_block_on(format!("words number {i}"), NodeId(0))
                    .unwrap();
            }
            let out = c.run_iteration(&()).unwrap();
            out.metrics
        };
        let strict = run(0);
        let loose = run(100);
        assert_eq!(loose.locality_ratio(), 1.0);
        assert!(
            strict.locality_ratio() < loose.locality_ratio(),
            "slack 0 ratio {} should be below slack 100 ratio {}",
            strict.locality_ratio(),
            loose.locality_ratio()
        );
        // The locality misses are charged as framed remote block reads.
        assert_eq!(
            strict.bytes_remote_read,
            strict
                .remote_reads
                .checked_mul(framed("words number 0".to_string().byte_len()))
                .unwrap()
        );
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

    /// [`WordCount`] whose every reduce call sleeps.
    struct SleepyReduce(Duration);

    impl IterativeJob for SleepyReduce {
        type BlockPayload = String;
        type MapperState = usize;
        type Broadcast = ();
        type Key = String;
        type MapOut = u64;
        type ReduceOut = u64;

        fn init_state(&self, block: BlockId, payload: &String) -> usize {
            WordCount.init_state(block, payload)
        }

        fn map(
            &self,
            node: NodeId,
            payload: &String,
            state: &mut usize,
            b: &(),
        ) -> Vec<(String, u64)> {
            WordCount.map(node, payload, state, b)
        }

        fn reduce(&self, k: &String, values: Vec<u64>) -> u64 {
            std::thread::sleep(self.0);
            WordCount.reduce(k, values)
        }
    }

    #[test]
    fn abandoned_stragglers_late_result_is_dropped_by_a_parallel_reduce_phase() {
        // Node 0 wakes at 200 ms, long after the 40 ms timeout gave up
        // on it and while the driver is blocked collecting the two
        // reduce tasks (three keys × 100 ms each, on live nodes).
        let cfg = ClusterConfig {
            fault_plan: FaultPlan::new().slow_worker(NodeId(0), Duration::from_millis(200)),
            task_timeout: Duration::from_millis(40),
            reduce_tasks: 2,
            ..Default::default()
        };
        let mut c = wc_cluster_of(cfg, SleepyReduce(Duration::from_millis(100)));
        let out = c.run_iteration(&()).unwrap();
        assert_eq!(out.metrics.workers_lost, 1);
        let clean = wc_cluster(ClusterConfig::default())
            .run_iteration(&())
            .unwrap();
        assert_eq!(out.outputs, clean.outputs);
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
        assert_eq!(c.store().replicas(id).unwrap()[0], NodeId(2));
        let out = c.run_iteration(&()).unwrap();
        assert_eq!(out.metrics.locality_hits, 1);
        assert!(c.load_block_on("x".to_string(), NodeId(99)).is_err());
    }
}
