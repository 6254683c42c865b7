//! The trainers as MapReduce jobs (the paper's Fig. 1 deployment): the
//! cluster driver of the round problem (`crate::round`).
//!
//! Learner `m`'s partition — its rows, or its column slice — is loaded as
//! a block **pinned to node `m`** (data locality: the raw data never
//! moves). The learner side of the round, with its dual variables
//! `λ_m, γ_m/r_m, β_m`, lives in the block's persistent mapper state,
//! exactly the long-running-mapper model of Twister; the runtime builds
//! it from the block in `init_state`. Each iteration the driver
//! broadcasts the coordinator side's consensus; every Map task takes one
//! learner `step` against it and emits **only a masked share** of the
//! result; the Reduce step wrapping-sums the shares, which cancels every
//! mask ([`crate::SeededMasker`]) and yields exactly the sum the
//! consensus update needs — the reducer never sees an individual
//! model. There is one job and one driver for all four trainers; a step,
//! fixed-point-range or construction failure travels through the shuffle
//! and ends the run as the learner's own [`crate::TrainError`], with no
//! worker lost.
//!
//! Given the same seed, the cluster execution and the in-process trainer
//! produce identical iterates at every learner count: the in-process
//! trainer sums through [`crate::secagg`]'s `pairwise` halves, which wrap
//! this same masker, the fixed-point sums are mask-independent, and both
//! call the same step and the same update. The cluster speaks pairwise
//! only: the `shamir` and `paillier` backends need a second,
//! coordinator-to-learner phase per round, which one map-and-reduce pass
//! does not have.
//!
//! On a fault-free cluster every map runs on its data node
//! (`remote_reads == 0`). When a node dies the runtime re-derives its
//! mapper state from the block — a fresh learner with zeroed duals, the
//! wire's rejoin semantics — and, the block having no other copy, maps it
//! on a surviving node from then on: each such map is charged as a remote
//! read of the block.
//!
//! # Example
//!
//! ```
//! use ppml_core::jobs::{train_linear_on_cluster, ClusterTuning};
//! use ppml_core::AdmmConfig;
//! use ppml_data::{synth, Partition};
//!
//! # fn main() -> Result<(), ppml_core::TrainError> {
//! let ds = synth::blobs(80, 1);
//! let parts = Partition::horizontal(&ds, 4, 2)?;
//! let cfg = AdmmConfig::default().with_max_iter(15);
//! let (outcome, metrics) =
//!     train_linear_on_cluster(&parts, &cfg, None, ClusterTuning::default())?;
//! assert!(outcome.model.accuracy(&ds) > 0.9);
//! assert_eq!(metrics.remote_reads, 0); // every map ran on its data node
//! # Ok(())
//! # }
//! ```

use ppml_data::{Dataset, VerticalView};
use ppml_linalg::Matrix;
use ppml_mapreduce::{
    BlockId, ByteSized, Cluster, ClusterConfig, FaultPlan, IterativeJob, JobMetrics, NodeId,
};
use ppml_qp::QpConfig;

use crate::distributed::protocol;
use crate::horizontal::kernel::{HkLearner, HorizontalKernelSvm, KernelOutcome};
use crate::horizontal::linear::{self as hl, validate_parts, HlLearner, LinearOutcome};
use crate::masks::SeededMasker;
use crate::round::{Averaging, ConsensusUpdate, Learner};
use crate::vertical::kernel::{self as vk, VerticalKernelOutcome, VkNode};
use crate::vertical::linear::{
    self as vl, validate_view, VerticalOutcome, VerticalReducer, VlNode,
};
use crate::{AdmmConfig, ConvergenceHistory, Result};

/// Cluster knobs exposed to the training drivers. The rest is the paper's
/// architecture, not tunables: one node per learner, learner `m`'s block
/// homed on node `m` and mapped there while the node lives, one map at a
/// time per node, and the lone reducer inline on the driver.
#[derive(Debug, Clone, Default)]
pub struct ClusterTuning {
    /// Injected faults (exercises the re-execution path mid-training).
    pub fault_plan: FaultPlan,
    /// Per-task retry budget; `None` = runtime default.
    pub max_attempts: Option<usize>,
}

/// Block payload of a horizontal learner: its private rows.
///
/// The wrapper gives the runtime a wire-size estimate for remote reads —
/// which the 1:1 placement triggers only after a node death.
struct RowBlock(Dataset);

impl ByteSized for RowBlock {
    fn byte_len(&self) -> usize {
        8 * self.0.len() * (self.0.features() + 1)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        // Row-major features followed by the label, dimensions implied by
        // the block descriptor: exactly `byte_len()` bytes.
        for i in 0..self.0.len() {
            for v in self.0.sample(i) {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&self.0.label(i).to_le_bytes());
        }
    }
}

/// Block payload of a vertical learner: its column slice (all rows, its
/// features only). Labels stay with the driver/reducer, as §IV-C assumes
/// they are shared.
struct ColumnBlock(Matrix);

impl ByteSized for ColumnBlock {
    fn byte_len(&self) -> usize {
        8 * self.0.rows() * self.0.cols()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        for v in self.0.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Broadcast state: the coordinator side's consensus plus the iteration
/// counter the maskers key their pads on.
type Broadcast = (Vec<f64>, u64);

/// What one Map task emits: its masked share, or why there is none.
pub(crate) struct MapShare(Result<Vec<u64>>);

impl ByteSized for MapShare {
    fn byte_len(&self) -> usize {
        self.0.as_ref().map_or(0, ByteSized::byte_len)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        if let Ok(masked) = &self.0 {
            masked.encode_into(out);
        }
    }
}

/// Mapper state: the learner plus its masking endpoint — or why the
/// learner could not be built.
type Mapper<L> = Result<(L, SeededMasker)>;

/// Builds a block's learner; runs once per block, and again if the
/// runtime has to re-derive a dead node's mapper state.
type Build<L, B> = Box<dyn Fn(&B) -> Result<L> + Send + Sync>;

/// The round problem as a MapReduce job, for any learner side `L` over
/// block payloads `B`.
pub(crate) struct RoundJob<L, B> {
    build: Build<L, B>,
    qp: QpConfig,
    parties: usize,
    mask_seed: u64,
}

impl<L: Learner, B: ByteSized + Send + Sync + 'static> IterativeJob for RoundJob<L, B> {
    type BlockPayload = B;
    type MapperState = Mapper<L>;
    type Broadcast = Broadcast;
    type Key = ();
    type MapOut = MapShare;
    type ReduceOut = Result<Vec<u64>>;

    fn init_state(&self, block: BlockId, payload: &B) -> Mapper<L> {
        let masker = SeededMasker::new(self.mask_seed, block.0 as usize, self.parties);
        Ok(((self.build)(payload)?, masker))
    }

    fn map(
        &self,
        _node: NodeId,
        _payload: &B,
        state: &mut Mapper<L>,
        (consensus, iteration): &Broadcast,
    ) -> Vec<((), MapShare)> {
        let masked = match state {
            Ok((learner, masker)) => learner
                .step(consensus, &self.qp)
                .and_then(|raw| masker.mask_share(&raw, *iteration)),
            // Errors are not `Clone`: the construction failure moves out
            // with the first share, which ends the run.
            Err(e) => Err(std::mem::replace(e, protocol("no learner was built"))),
        };
        vec![((), MapShare(masked))]
    }

    fn reduce(&self, _key: &(), values: Vec<MapShare>) -> Result<Vec<u64>> {
        // Wrapping sum cancels all masks; the driver decodes.
        let mut sum = Vec::new();
        for share in values {
            let share = share.0?;
            sum.resize(share.len(), 0u64);
            for (acc, v) in sum.iter_mut().zip(share) {
                *acc = acc.wrapping_add(v);
            }
        }
        Ok(sum)
    }
}

fn cluster_config(m: usize, tuning: ClusterTuning) -> ClusterConfig {
    let default = ClusterConfig::default();
    ClusterConfig {
        nodes: m,
        max_attempts: tuning.max_attempts.unwrap_or(default.max_attempts),
        fault_plan: tuning.fault_plan,
        ..default
    }
}

/// The cluster driver: boots a cluster, pins `blocks[m]` to node `m`, and
/// drives ADMM rounds of the pair (`build`'s learners, `update`) until
/// `cfg.max_iter` or `cfg.tol`. `eval` turns the cluster and the fresh
/// consensus into a per-iteration accuracy (when evaluating).
#[allow(clippy::type_complexity)]
fn drive<L, B, U>(
    blocks: Vec<B>,
    build: impl Fn(&B) -> Result<L> + Send + Sync + 'static,
    mut update: U,
    cfg: &AdmmConfig,
    cluster: ClusterConfig,
    mut eval: impl FnMut(&Cluster<RoundJob<L, B>>, &U) -> Result<Option<f64>>,
) -> Result<(Cluster<RoundJob<L, B>>, U, ConvergenceHistory)>
where
    L: Learner,
    B: ByteSized + Send + Sync + 'static,
    U: ConsensusUpdate,
{
    let m = blocks.len();
    let job = RoundJob {
        build: Box::new(build),
        qp: cfg.qp,
        parties: m,
        mask_seed: cfg.seed,
    };
    let mut cluster = Cluster::new(cluster, job)?;
    for (i, block) in blocks.into_iter().enumerate() {
        cluster.load_block_on(block, NodeId(i))?;
    }
    let codec = ppml_crypto::FixedPointCodec::default();
    let mut history = ConvergenceHistory::default();
    for iteration in 0..cfg.max_iter as u64 {
        let out = cluster.run_iteration(&(update.broadcast().to_vec(), iteration))?;
        let summed = match out.outputs.into_iter().next() {
            Some((_, summed)) => summed?,
            None => return Err(protocol("reduce produced no output")),
        };
        let (got, want) = (summed.len(), update.broadcast().len());
        if got != want {
            return Err(protocol(format!("summed share is {got} long, not {want}")));
        }
        let sum: Vec<f64> = summed.iter().map(|&v| codec.decode_u64(v)).collect();
        let delta = update.update(&sum, m)?;
        history.z_delta.push(delta);
        history.accuracy.extend(eval(&cluster, &update)?);
        if cfg.tol.is_some_and(|tol| delta < tol) {
            break;
        }
    }
    Ok((cluster, update, history))
}

/// The learners in block (= party) order, read back from the mapper
/// states of a driven cluster.
fn learners<L: Learner, B: ByteSized + Send + Sync + 'static>(
    cluster: &Cluster<RoundJob<L, B>>,
) -> impl Iterator<Item = &L> {
    cluster.store().block_ids().into_iter().map(|b| {
        let state = cluster.mapper_state(b).and_then(|s| s.as_ref().ok());
        &state.expect("a driven block keeps its learner").0
    })
}

/// Runs the horizontally partitioned **linear** trainer on a simulated
/// cluster: one node per learner, pinned blocks, masked shares at Reduce.
///
/// Returns the trained outcome plus the cluster's cost metrics (locality,
/// shuffle bytes — benchmark E11 reads these).
///
/// # Errors
///
/// As [`crate::HorizontalLinearSvm::train`], plus
/// [`crate::TrainError::MapReduce`] for runtime failures (e.g. a fault
/// plan that exhausts its retry budget).
pub fn train_linear_on_cluster(
    parts: &[Dataset],
    cfg: &AdmmConfig,
    eval: Option<&Dataset>,
    tuning: ClusterTuning,
) -> Result<(LinearOutcome, JobMetrics)> {
    cfg.validate()?;
    let k = validate_parts(parts)?;
    let (m, learner_cfg) = (parts.len(), *cfg);
    let (cluster, consensus, history) = drive(
        parts.iter().cloned().map(RowBlock).collect(),
        move |block: &RowBlock| HlLearner::new(&block.0, m, &learner_cfg),
        Averaging::new(k),
        cfg,
        cluster_config(m, tuning),
        |_, consensus| Ok(eval.map(|ds| consensus.model().accuracy(ds))),
    )?;
    let outcome = hl::outcome(learners(&cluster), &consensus, history);
    Ok((outcome, cluster.metrics().clone()))
}

/// Runs the horizontally partitioned **kernel** trainer on a simulated
/// cluster. See [`train_linear_on_cluster`].
///
/// # Errors
///
/// As [`crate::HorizontalKernelSvm::train`] plus MapReduce runtime errors.
pub fn train_kernel_on_cluster(
    parts: &[Dataset],
    cfg: &AdmmConfig,
    eval: Option<&Dataset>,
    tuning: ClusterTuning,
) -> Result<(KernelOutcome, JobMetrics)> {
    cfg.validate()?;
    let k = validate_parts(parts)?;
    let landmarks = HorizontalKernelSvm::choose_landmarks(parts, k, cfg)?;
    let (m, learner_cfg, shared) = (parts.len(), *cfg, landmarks.clone());
    let model = |cl: &Cluster<RoundJob<HkLearner, RowBlock>>| match learners(cl).next() {
        Some(first) => first.model(&landmarks),
        None => Err(protocol("the cluster holds no learner")),
    };
    let (cluster, _, history) = drive(
        parts.iter().cloned().map(RowBlock).collect(),
        move |block: &RowBlock| HkLearner::new(&block.0, m, &shared, &learner_cfg),
        Averaging::new(landmarks.len()),
        cfg,
        cluster_config(m, tuning),
        |cl, _| eval.map(|ds| Ok(model(cl)?.accuracy(ds))).transpose(),
    )?;
    let outcome = KernelOutcome {
        model: model(&cluster)?,
        history,
        landmarks,
    };
    Ok((outcome, cluster.metrics().clone()))
}

/// Runs the vertically partitioned **linear** trainer on a simulated
/// cluster: learner `m`'s column slice is pinned to node `m`, masked
/// contributions meet only at the Reduce step, and the driver solves the
/// `z`-subproblem (the paper's Reducer role in §IV-C).
///
/// # Errors
///
/// As [`crate::VerticalLinearSvm::train`] plus MapReduce runtime errors.
pub fn train_vertical_linear_on_cluster(
    view: &VerticalView,
    cfg: &AdmmConfig,
    eval: Option<&Dataset>,
    tuning: ClusterTuning,
) -> Result<(VerticalOutcome, JobMetrics)> {
    cfg.validate()?;
    let (m, node_cfg) = (validate_view(view)?, *cfg);
    let (cluster, reducer, history) = drive(
        (0..m).map(|p| ColumnBlock(view.part(p).clone())).collect(),
        move |block: &ColumnBlock| VlNode::new(&block.0, &node_cfg),
        VerticalReducer::new(view.y().to_vec(), cfg),
        cfg,
        cluster_config(m, tuning),
        |cl, reducer| Ok(eval.map(|ds| vl::assemble(view, learners(cl), reducer).accuracy(ds))),
    )?;
    let outcome = VerticalOutcome {
        model: vl::assemble(view, learners(&cluster), &reducer),
        history,
    };
    Ok((outcome, cluster.metrics().clone()))
}

/// Runs the vertically partitioned **kernel** trainer on a simulated
/// cluster. See [`train_vertical_linear_on_cluster`].
///
/// # Errors
///
/// As [`crate::VerticalKernelSvm::train`] plus MapReduce runtime errors.
pub fn train_vertical_kernel_on_cluster(
    view: &VerticalView,
    cfg: &AdmmConfig,
    eval: Option<&Dataset>,
    tuning: ClusterTuning,
) -> Result<(VerticalKernelOutcome, JobMetrics)> {
    cfg.validate()?;
    let (m, kernel, node_cfg) = (validate_view(view)?, cfg.kernel, *cfg);
    let (cluster, reducer, history) = drive(
        (0..m).map(|p| ColumnBlock(view.part(p).clone())).collect(),
        move |block: &ColumnBlock| VkNode::new(&block.0, &node_cfg),
        VerticalReducer::new(view.y().to_vec(), cfg),
        cfg,
        cluster_config(m, tuning),
        |cl, reducer| {
            Ok(eval.map(|ds| vk::assemble(view, kernel, learners(cl), reducer).accuracy(ds)))
        },
    )?;
    let outcome = VerticalKernelOutcome {
        model: vk::assemble(view, kernel, learners(&cluster), &reducer),
        history,
    };
    Ok((outcome, cluster.metrics().clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::tests::{reference_with_membership, run_distributed, run_with_faults};
    use crate::{
        DistributedTiming, HorizontalLinearSvm, SecAggConfig, TrainError, VerticalKernelSvm,
        VerticalLinearSvm,
    };
    use ppml_data::{synth, Partition};
    use ppml_kernel::Kernel;
    use ppml_transport::NetFaultPlan;
    use std::sync::mpsc;
    use std::time::Duration;

    fn parts4() -> (Vec<Dataset>, Dataset, Dataset) {
        let ds = synth::blobs(160, 1);
        let (train, test) = ds.split(0.5, 2).unwrap();
        let parts = Partition::horizontal(&train, 4, 3).unwrap();
        (parts, train, test)
    }

    /// Runs `body` on its own thread and fails — instead of wedging the
    /// suite — when it does not finish within `limit`.
    fn within<T: Send + 'static>(limit: Duration, body: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let watched = std::thread::spawn(move || tx.send(body()));
        match rx.recv_timeout(limit) {
            Ok(out) => out,
            // The body panicked before sending: re-raise its panic here.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(watched.join().expect_err("the sender was dropped"))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("no result within {limit:?}"),
        }
    }

    /// What identifies a run bit for bit: the whole convergence trace and
    /// the model's decision values on eight held-out rows.
    fn fingerprint(
        history: &ConvergenceHistory,
        test: &Dataset,
        decision: impl Fn(&[f64]) -> f64,
    ) -> Vec<u64> {
        let probes = (0..8).map(|i| decision(test.sample(i)));
        let trace = history.z_delta.iter().copied();
        trace.chain(probes).map(f64::to_bits).collect()
    }

    #[test]
    fn in_process_cluster_and_wire_agree_to_the_bit() {
        let ds = synth::cancer_like(200, 7);
        let (train, test) = ds.split(0.6, 8).unwrap();
        let tuning = ClusterTuning::default;
        for m in [2, 3, 4, 5] {
            let cfg = AdmmConfig::default()
                .with_max_iter(20)
                .with_landmarks(10)
                .with_kernel(Kernel::Rbf { gamma: 1.0 / 9.0 })
                .with_seed(m as u64);
            let parts = Partition::horizontal(&train, m, 9).unwrap();
            let view = Partition::vertical(&train, m, 10).unwrap();

            let hl = |o: &LinearOutcome| {
                fingerprint(&o.history, &test, |x| o.model.decision(x).unwrap())
            };
            let in_process = HorizontalLinearSvm::train(&parts, &cfg, None).unwrap();
            let (on_cluster, _) = train_linear_on_cluster(&parts, &cfg, None, tuning()).unwrap();
            assert_eq!(hl(&in_process), hl(&on_cluster), "HL, m = {m}");
            let (on_wire, finals) = run_distributed(&parts, &cfg, NetFaultPlan::none());
            let on_wire = fingerprint(&on_wire.history, &test, |x| {
                on_wire.model.decision(x).unwrap()
            });
            assert_eq!(on_wire, hl(&in_process), "HL over the wire, m = {m}");
            assert!(finals.iter().all(|f| *f == in_process.model), "m = {m}");

            let hk = |o: &KernelOutcome| fingerprint(&o.history, &test, |x| o.model.decision(x));
            let in_process = HorizontalKernelSvm::train(&parts, &cfg, None).unwrap();
            let (on_cluster, _) = train_kernel_on_cluster(&parts, &cfg, None, tuning()).unwrap();
            assert_eq!(hk(&in_process), hk(&on_cluster), "HK, m = {m}");

            let vl = |o: &VerticalOutcome| fingerprint(&o.history, &test, |x| o.model.decision(x));
            let in_process = VerticalLinearSvm::train(&view, &cfg, None).unwrap();
            let (on_cluster, _) =
                train_vertical_linear_on_cluster(&view, &cfg, None, tuning()).unwrap();
            assert_eq!(vl(&in_process), vl(&on_cluster), "VL, m = {m}");

            let vk =
                |o: &VerticalKernelOutcome| fingerprint(&o.history, &test, |x| o.model.decision(x));
            let in_process = VerticalKernelSvm::train(&view, &cfg, None).unwrap();
            let (on_cluster, _) =
                train_vertical_kernel_on_cluster(&view, &cfg, None, tuning()).unwrap();
            assert_eq!(vk(&in_process), vk(&on_cluster), "VK, m = {m}");
        }
    }

    /// The case above takes box-QP Newton steps in 199 of its 280 HL solves,
    /// on faces of a few cancer-like rows. This is the benchmark's first
    /// `train_compute` dataset, where every one of the run's 6 local solves
    /// takes a step on a face of ~30 rows, and 110 of its 131 Newton
    /// directions come from a factor a bound cut down rather than a fresh
    /// one (both counted on an instrumented copy of the solver) — so the
    /// three deployments must agree to the bit on a model those steps
    /// shaped.
    #[test]
    fn deployments_agree_to_the_bit_where_the_newton_step_is_engaged() {
        let (rows, seed, m) = (300usize, 4u64, 2usize);
        let data = synth::higgs_like(rows + 4000, seed);
        let (train, _) = data
            .split(rows as f64 / data.len() as f64, seed ^ 0x51)
            .unwrap();
        let parts = Partition::horizontal(&train, m, seed ^ 0x9a).unwrap();
        let cfg = AdmmConfig::default().with_max_iter(3).with_seed(seed);

        let in_process = HorizontalLinearSvm::train(&parts, &cfg, None).unwrap();
        let (on_cluster, _) =
            train_linear_on_cluster(&parts, &cfg, None, ClusterTuning::default()).unwrap();
        let (on_wire, finals) = run_distributed(&parts, &cfg, NetFaultPlan::none());

        // The coordinator's model, the whole trace and every learner.
        assert_eq!(on_cluster.model, in_process.model);
        assert_eq!(on_cluster.history.z_delta, in_process.history.z_delta);
        assert_eq!(on_cluster.local_models, in_process.local_models);
        assert_eq!(on_wire.model, in_process.model);
        assert_eq!(on_wire.history.z_delta, in_process.history.z_delta);
        assert!(finals.iter().all(|f| *f == in_process.model));
    }

    /// The kernel trainer where the Newton step is engaged: the benchmark's
    /// `cluster_fig4` HK run (cancer-like, 120 rows, four learners, 12
    /// landmarks, 60 rounds). At mask seed 2 every one of its 240 local
    /// solves takes a box-QP Newton step (counted on an instrumented copy
    /// of the solver), so in-process and on-cluster must agree to the bit
    /// on a model the steps shaped. HK's
    /// model is learner 0's own discriminant — its local `α` on its rows,
    /// the landmark weights and the bias — so comparing models compares the
    /// local model as well.
    #[test]
    fn kernel_deployments_agree_to_the_bit_where_the_newton_step_is_engaged() {
        let (rows, data_seed, m) = (120usize, 1u64, 4usize);
        let data = synth::cancer_like(rows + 2000, data_seed);
        let (train, _) = data
            .split(rows as f64 / data.len() as f64, data_seed ^ 0x51)
            .unwrap();
        let parts = Partition::horizontal(&train, m, data_seed ^ 0x9a).unwrap();
        let cfg = AdmmConfig::default()
            .with_kernel(Kernel::Rbf { gamma: 1.0 / 9.0 })
            .with_landmarks(12)
            .with_max_iter(60)
            .with_seed(2);

        let in_process = HorizontalKernelSvm::train(&parts, &cfg, None).unwrap();
        let (on_cluster, _) =
            train_kernel_on_cluster(&parts, &cfg, None, ClusterTuning::default()).unwrap();

        assert_eq!(on_cluster.model, in_process.model);
        assert_eq!(on_cluster.history.z_delta, in_process.history.z_delta);
    }

    /// All three backends in every trainer: the in-process trainers sum
    /// through the shipped halves, so Shamir and Paillier train the
    /// pairwise model to the bit — trace and held-out decisions alike —
    /// in HL, HK, VL and VK. (Paillier at one learner count: its big-int
    /// work dominates a debug build.)
    #[test]
    fn every_backend_trains_every_trainer_to_the_pairwise_bit() {
        let ds = synth::cancer_like(200, 7);
        let (train, test) = ds.split(0.6, 8).unwrap();
        let cases = [
            (3, SecAggConfig::shamir()),
            (4, SecAggConfig::shamir()),
            (3, SecAggConfig::paillier()),
        ];
        for (m, secagg) in cases {
            let cfg = AdmmConfig::default()
                .with_max_iter(10)
                .with_landmarks(10)
                .with_kernel(Kernel::Rbf { gamma: 1.0 / 9.0 })
                .with_seed(m as u64);
            let parts = Partition::horizontal(&train, m, 9).unwrap();
            let view = Partition::vertical(&train, m, 10).unwrap();
            let at = |what: &str| format!("{what}, {secagg:?}, m = {m}");

            let hl =
                |o: LinearOutcome| fingerprint(&o.history, &test, |x| o.model.decision(x).unwrap());
            let pairwise = HorizontalLinearSvm::train(&parts, &cfg, None).unwrap();
            let other = HorizontalLinearSvm::train_with(&parts, &cfg, None, secagg).unwrap();
            assert_eq!(hl(other), hl(pairwise), "{}", at("HL"));

            let hk = |o: KernelOutcome| fingerprint(&o.history, &test, |x| o.model.decision(x));
            let pairwise = HorizontalKernelSvm::train(&parts, &cfg, None).unwrap();
            let other = HorizontalKernelSvm::train_with(&parts, &cfg, None, secagg).unwrap();
            assert_eq!(hk(other), hk(pairwise), "{}", at("HK"));

            let vl = |o: VerticalOutcome| fingerprint(&o.history, &test, |x| o.model.decision(x));
            let pairwise = VerticalLinearSvm::train(&view, &cfg, None).unwrap();
            let other = VerticalLinearSvm::train_with(&view, &cfg, None, secagg).unwrap();
            assert_eq!(vl(other), vl(pairwise), "{}", at("VL"));

            let vk =
                |o: VerticalKernelOutcome| fingerprint(&o.history, &test, |x| o.model.decision(x));
            let pairwise = VerticalKernelSvm::train(&view, &cfg, None).unwrap();
            let other = VerticalKernelSvm::train_with(&view, &cfg, None, secagg).unwrap();
            assert_eq!(vk(other), vk(pairwise), "{}", at("VK"));
        }
    }

    #[test]
    fn a_sweep_capped_solve_is_the_same_typed_error_in_all_three_deployments() {
        let (parts, _, _) = parts4();
        let mut cfg = AdmmConfig::default().with_max_iter(6);
        cfg.qp.max_iter = 1;
        let capped = |e: &TrainError| matches!(e, TrainError::QpNotConverged { sweeps: 1, .. });

        let in_process = HorizontalLinearSvm::train(&parts, &cfg, None).unwrap_err();
        assert!(capped(&in_process), "in-process: {in_process}");

        // On the cluster the error is the failing learner's own — carried
        // through the shuffle — so no worker was lost to report it: a lost
        // worker would have surfaced as `MapReduce(QuorumLost)` instead.
        let tuning = ClusterTuning::default();
        let cluster_parts = parts.clone();
        let on_cluster = within(Duration::from_secs(30), move || {
            train_linear_on_cluster(&cluster_parts, &cfg, None, tuning).map(|_| ())
        })
        .unwrap_err();
        assert!(capped(&on_cluster), "cluster: {on_cluster}");

        // On the wire it is each learner's own return value; the
        // coordinator, hearing nothing, drops them like any silent party.
        let timing = DistributedTiming::default()
            .with_round_deadline(Duration::from_millis(300))
            .with_learner_patience(Duration::from_secs(2));
        let run = within(Duration::from_secs(30), move || {
            run_with_faults(&parts, &cfg, NetFaultPlan::none(), timing)
        });
        for f in &run.finals {
            let e = f.as_ref().unwrap_err();
            assert!(capped(e), "wire: {e}");
        }
        assert!(matches!(run.outcome, Err(TrainError::Dropped { .. })));
    }

    #[test]
    fn a_dead_node_is_rederived_as_a_fresh_learner() {
        let (parts, _, _) = parts4();
        let cfg = AdmmConfig::default().with_max_iter(8);
        let k = validate_parts(&parts).unwrap();
        // Node 1 dies taking its second map task (round 1) and the driver
        // notices at the task timeout. The runtime re-derives the block's
        // mapper state with `init_state`: a fresh learner with zeroed
        // duals that joins round 1 — the wire's rejoin semantics.
        let cluster = ClusterConfig {
            task_timeout: Duration::from_millis(200),
            fault_plan: FaultPlan::new().kill_worker_on_task(NodeId(1), 2),
            ..cluster_config(4, ClusterTuning::default())
        };
        let blocks: Vec<RowBlock> = parts.iter().cloned().map(RowBlock).collect();
        let (model, metrics) = within(Duration::from_secs(30), move || {
            let (cluster, consensus, _) = drive(
                blocks,
                move |block: &RowBlock| HlLearner::new(&block.0, 4, &cfg),
                Averaging::new(k),
                &cfg,
                cluster,
                |_, _| Ok(None),
            )
            .expect("the survivors finish the run");
            (consensus.model(), cluster.metrics().clone())
        });
        assert_eq!(metrics.workers_lost, 1);
        assert_eq!(metrics.iterations, 8);
        // From round 1 on the dead node's block, which has no other copy,
        // is mapped on a survivor: one remote read in each of the seven
        // remaining rounds.
        assert_eq!(metrics.remote_reads, 7);
        assert_eq!(
            model,
            reference_with_membership(&parts, &cfg, &[], &[(1, 1)])
        );
        let (clean, _) =
            train_linear_on_cluster(&parts, &cfg, None, ClusterTuning::default()).unwrap();
        assert_ne!(model, clean.model, "the re-derived learner lost its duals");
    }

    /// The metrics a fault schedule must reproduce literally: iterations,
    /// locality hits, remote reads, remote-read, shuffle and broadcast
    /// bytes, retries and workers lost (the timings are left out).
    fn counted(m: &JobMetrics) -> [usize; 8] {
        [
            m.iterations,
            m.locality_hits,
            m.remote_reads,
            m.bytes_remote_read,
            m.bytes_shuffled,
            m.bytes_broadcast,
            m.task_retries,
            m.workers_lost,
        ]
    }

    /// FNV-1a over the `to_bits` of a whole convergence trace.
    fn trace_digest(history: &ConvergenceHistory) -> u64 {
        let bits = history.z_delta.iter().map(|d| d.to_bits());
        bits.fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// All four cluster trainers under the runtime's fault schedules — a
    /// map attempt that fails and retries elsewhere, a node killed
    /// mid-task, a slowed node plus a delayed task — with every
    /// placement-visible metric and the trace pinned literally. A failed
    /// or slowed task must leave the trace of the clean run to the bit; a
    /// killed node re-derives its learner, which changes the trace.
    #[test]
    fn cluster_trainers_pin_metrics_and_traces_under_fault_schedules() {
        let ds = synth::cancer_like(120, 5);
        let parts = Partition::horizontal(&ds, 4, 6).unwrap();
        let view = Partition::vertical(&ds, 4, 7).unwrap();
        let cfg = AdmmConfig::default()
            .with_max_iter(6)
            .with_landmarks(8)
            .with_kernel(Kernel::Rbf { gamma: 1.0 / 9.0 });
        let (m, k) = (4, validate_parts(&parts).unwrap());
        let landmarks = HorizontalKernelSvm::choose_landmarks(&parts, k, &cfg).unwrap();

        // Through the public entry points: the schedules that need no
        // task timeout.
        let public = |tuning: ClusterTuning| -> Vec<(JobMetrics, ConvergenceHistory)> {
            let (hl, hl_m) = train_linear_on_cluster(&parts, &cfg, None, tuning.clone()).unwrap();
            let (hk, hk_m) = train_kernel_on_cluster(&parts, &cfg, None, tuning.clone()).unwrap();
            let (vl, vl_m) =
                train_vertical_linear_on_cluster(&view, &cfg, None, tuning.clone()).unwrap();
            let (vk, vk_m) = train_vertical_kernel_on_cluster(&view, &cfg, None, tuning).unwrap();
            vec![
                (hl_m, hl.history),
                (hk_m, hk.history),
                (vl_m, vl.history),
                (vk_m, vk.history),
            ]
        };
        let clean = public(ClusterTuning::default());
        let failing = public(ClusterTuning {
            fault_plan: FaultPlan::new()
                .fail_first_attempts(1, BlockId(2), 2)
                .fail_first_attempts(3, BlockId(0), 1),
            max_attempts: Some(3),
        });
        let slowed = public(ClusterTuning {
            fault_plan: FaultPlan::new()
                .slow_worker(NodeId(3), Duration::from_millis(2))
                .delay(2, BlockId(1), Duration::from_millis(3)),
            max_attempts: None,
        });

        // Through the trainers' own `drive` calls, with a task timeout
        // short enough to notice node 1 dying on its third task (round 2).
        let killing = ClusterConfig {
            task_timeout: Duration::from_secs(1),
            fault_plan: FaultPlan::new().kill_worker_on_task(NodeId(1), 3),
            ..cluster_config(m, ClusterTuning::default())
        };
        let rows = || parts.iter().cloned().map(RowBlock).collect::<Vec<_>>();
        let columns = || {
            (0..m)
                .map(|p| ColumnBlock(view.part(p).clone()))
                .collect::<Vec<_>>()
        };
        let reducer = || VerticalReducer::new(view.y().to_vec(), &cfg);
        let (shared, learner_cfg) = (landmarks.clone(), cfg);
        let killed = vec![
            drive(
                rows(),
                move |b: &RowBlock| HlLearner::new(&b.0, m, &learner_cfg),
                Averaging::new(k),
                &cfg,
                killing.clone(),
                |_, _| Ok(None),
            )
            .map(|(c, _, h)| (c.metrics().clone(), h)),
            drive(
                rows(),
                move |b: &RowBlock| HkLearner::new(&b.0, m, &shared, &learner_cfg),
                Averaging::new(landmarks.len()),
                &cfg,
                killing.clone(),
                |_, _| Ok(None),
            )
            .map(|(c, _, h)| (c.metrics().clone(), h)),
            drive(
                columns(),
                move |b: &ColumnBlock| VlNode::new(&b.0, &learner_cfg),
                reducer(),
                &cfg,
                killing.clone(),
                |_, _| Ok(None),
            )
            .map(|(c, _, h)| (c.metrics().clone(), h)),
            drive(
                columns(),
                move |b: &ColumnBlock| VkNode::new(&b.0, &learner_cfg),
                reducer(),
                &cfg,
                killing,
                |_, _| Ok(None),
            )
            .map(|(c, _, h)| (c.metrics().clone(), h)),
        ];

        let names = ["HL", "HK", "VL", "VK"];
        let got = |runs: &[(JobMetrics, ConvergenceHistory)]| {
            runs.iter()
                .map(|(metrics, history)| (counted(metrics), trace_digest(history)))
                .collect::<Vec<_>>()
        };
        for (t, name) in names.iter().enumerate() {
            let bits = |h: &ConvergenceHistory| h.z_delta.iter().map(|d| d.to_bits()).collect();
            let clean: Vec<u64> = bits(&clean[t].1);
            assert_eq!(
                bits(&failing[t].1),
                clean,
                "{name}: a retry moved the trace"
            );
            assert_eq!(
                bits(&slowed[t].1),
                clean,
                "{name}: a straggler moved the trace"
            );
        }
        let killed: Vec<_> = killed.into_iter().map(Result::unwrap).collect();
        // Per trainer: [iterations, locality hits, remote reads, remote-read
        // bytes, shuffle bytes, broadcast bytes, retries, workers lost].
        // Round 1 fails block 2 on node 2, then on node 0, and runs it on
        // node 1; round 3 fails block 0 on node 0 and runs it on node 1.
        // HL's and HK's digests move with any change to the box QP's
        // arithmetic; VL and VK never call it.
        let traces = [
            956_340_322_822_064_874,
            16_975_809_790_862_532_612,
            14_152_460_333_564_744_338,
            13_934_082_863_256_069_556,
        ];
        let want_failing = [
            [6, 24, 3, 7524, 2784, 2976, 3, 0],
            [6, 24, 3, 7524, 2592, 2784, 3, 0],
            [6, 24, 3, 4884, 23904, 24096, 3, 0],
            [6, 24, 3, 4884, 23904, 24096, 3, 0],
        ];
        let want_slowed = [
            [6, 24, 0, 0, 2784, 2976, 0, 0],
            [6, 24, 0, 0, 2592, 2784, 0, 0],
            [6, 24, 0, 0, 23904, 24096, 0, 0],
            [6, 24, 0, 0, 23904, 24096, 0, 0],
        ];
        // Node 1's round-2 attempt is lost with it; its block then maps on
        // node 0, a remote read, in rounds 2 to 5.
        let want_killed = [
            (
                [6, 21, 4, 9392, 2784, 2604, 0, 1],
                15_530_597_479_297_739_067,
            ),
            (
                [6, 21, 4, 9392, 2592, 2436, 0, 1],
                13_700_884_944_327_769_425,
            ),
            (
                [6, 21, 4, 19312, 23904, 21084, 0, 1],
                17_324_201_454_569_203_382,
            ),
            (
                [6, 21, 4, 19312, 23904, 21084, 0, 1],
                3_710_332_332_187_352_022,
            ),
        ];
        let with_traces = |want: [[usize; 8]; 4]| want.into_iter().zip(traces).collect::<Vec<_>>();
        assert_eq!(got(&failing), with_traces(want_failing));
        assert_eq!(got(&slowed), with_traces(want_slowed));
        assert_eq!(got(&killed), want_killed.to_vec());
    }

    #[test]
    fn cluster_linear_matches_in_process() {
        let (parts, _, test) = parts4();
        let cfg = AdmmConfig::default().with_max_iter(12);
        let (on_cluster, metrics) =
            train_linear_on_cluster(&parts, &cfg, Some(&test), ClusterTuning::default()).unwrap();
        let in_process = crate::HorizontalLinearSvm::train(&parts, &cfg, Some(&test)).unwrap();
        // The fixed-point sums are mask-independent and both drivers call
        // the same step and the same update → identical iterates.
        assert_eq!(on_cluster.model, in_process.model);
        assert_eq!(on_cluster.history, in_process.history);
        assert_eq!(metrics.iterations, 12);
    }

    #[test]
    fn all_map_tasks_are_data_local() {
        let (parts, _, _) = parts4();
        let cfg = AdmmConfig::default().with_max_iter(5);
        let (_, metrics) =
            train_linear_on_cluster(&parts, &cfg, None, ClusterTuning::default()).unwrap();
        assert_eq!(metrics.remote_reads, 0);
        assert_eq!(metrics.locality_hits, 4 * 5);
        assert_eq!(metrics.bytes_remote_read, 0);
    }

    #[test]
    fn shuffle_traffic_is_tiny_compared_to_raw_data() {
        // The data-locality claim (E11): per-iteration shuffle is O(k·M)
        // frames, raw data is O(N·k). Use enough rows that the per-frame
        // overhead (28 bytes each) cannot blur the asymptotic gap.
        let ds = synth::blobs(640, 1);
        let (train, _test) = ds.split(0.5, 2).unwrap();
        let parts = Partition::horizontal(&train, 4, 3).unwrap();
        let cfg = AdmmConfig::default().with_max_iter(10);
        let (_, metrics) =
            train_linear_on_cluster(&parts, &cfg, None, ClusterTuning::default()).unwrap();
        let raw_bytes = 8 * train.len() * (train.features() + 1);
        let shuffled_per_iter = metrics.bytes_shuffled / 10;
        assert!(
            shuffled_per_iter < raw_bytes / 10,
            "shuffle {shuffled_per_iter} should be far below raw {raw_bytes}"
        );
    }

    #[test]
    fn survives_injected_task_failures() {
        let (parts, _, _) = parts4();
        let cfg = AdmmConfig::default().with_max_iter(6);
        let tuning = ClusterTuning {
            fault_plan: FaultPlan::new()
                .fail_first_attempts(2, BlockId(1), 1)
                .fail_first_attempts(4, BlockId(3), 1),
            max_attempts: Some(3),
        };
        let (faulty, metrics) = train_linear_on_cluster(&parts, &cfg, None, tuning).unwrap();
        let (clean, _) =
            train_linear_on_cluster(&parts, &cfg, None, ClusterTuning::default()).unwrap();
        assert_eq!(metrics.task_retries, 2);
        // Re-execution must not change the result.
        assert_eq!(faulty.model, clean.model);
    }

    #[test]
    fn cluster_vertical_linear_matches_in_process() {
        let ds = synth::cancer_like(160, 7);
        let (train, test) = ds.split(0.5, 8).unwrap();
        let view = Partition::vertical(&train, 3, 9).unwrap();
        let cfg = AdmmConfig::default().with_max_iter(25);
        let (on_cluster, metrics) =
            train_vertical_linear_on_cluster(&view, &cfg, Some(&test), ClusterTuning::default())
                .unwrap();
        let in_process = crate::VerticalLinearSvm::train(&view, &cfg, Some(&test)).unwrap();
        assert_eq!(on_cluster.history, in_process.history);
        assert_eq!(on_cluster.model, in_process.model);
        assert_eq!(metrics.remote_reads, 0, "column slices must not move");
    }

    #[test]
    fn cluster_vertical_kernel_trains() {
        let ds = synth::blobs(100, 17);
        let (train, test) = ds.split(0.5, 18).unwrap();
        let view = Partition::vertical(&train, 2, 19).unwrap();
        let cfg = AdmmConfig::default()
            .with_max_iter(30)
            .with_kernel(Kernel::Rbf { gamma: 0.5 });
        let (out, metrics) =
            train_vertical_kernel_on_cluster(&view, &cfg, Some(&test), ClusterTuning::default())
                .unwrap();
        let acc = out.model.accuracy(&test);
        assert!(acc > 0.85, "cluster vertical kernel accuracy {acc}");
        assert_eq!(metrics.locality_hits, 2 * 30);
        // In-process agreement.
        let in_process = crate::VerticalKernelSvm::train(&view, &cfg, Some(&test)).unwrap();
        assert_eq!(out.history, in_process.history);
    }

    #[test]
    fn cluster_kernel_matches_in_process() {
        let ds = synth::xor_like(160, 4);
        let (train, test) = ds.split(0.5, 5).unwrap();
        let parts = Partition::horizontal(&train, 4, 6).unwrap();
        let cfg = AdmmConfig::default()
            .with_max_iter(10)
            .with_landmarks(10)
            .with_kernel(Kernel::Rbf { gamma: 0.5 });
        let (on_cluster, metrics) =
            train_kernel_on_cluster(&parts, &cfg, Some(&test), ClusterTuning::default()).unwrap();
        let in_process = crate::HorizontalKernelSvm::train(&parts, &cfg, Some(&test)).unwrap();
        assert_eq!(on_cluster.history, in_process.history);
        let acc = on_cluster.model.accuracy(&test);
        assert!(acc > 0.8, "cluster kernel accuracy {acc}");
        assert_eq!(metrics.remote_reads, 0);
    }
}
