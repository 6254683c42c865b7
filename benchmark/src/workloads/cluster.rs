//! `cluster_fig4`: the paper's four trainers — horizontal and vertical,
//! linear and kernel — back to back on the in-process MapReduce
//! `Cluster` with the paper's four nodes.

use ppml_core::jobs::{
    train_kernel_on_cluster, train_linear_on_cluster, train_vertical_kernel_on_cluster,
    train_vertical_linear_on_cluster, ClusterTuning,
};
use ppml_core::{
    AdmmConfig, ConvergenceHistory, HorizontalKernelSvm, HorizontalLinearSvm, VerticalKernelSvm,
    VerticalLinearSvm,
};
use ppml_data::{synth, Dataset, Partition, VerticalView};
use ppml_kernel::Kernel;
use ppml_mapreduce::JobMetrics;
use ppml_telemetry::EventKind;

use super::{mean, median_or_zero, Traced, Workload};
use crate::probes;
use crate::spans::Spans;

/// The paper's M.
const NODES: usize = 4;
/// Cancer-like rows (9 features) the four trainers share, generated
/// from a pinned seed for the reason `train.rs` gives; the run's seed
/// keys the masks and picks the kernel trainer's landmarks.
const TRAIN_ROWS: usize = 120;
const DATA_SEED: u64 = 1;
const TEST_ROWS: usize = 2000;
/// Landmarks of the horizontal kernel trainer's consensus space.
const LANDMARKS: usize = 12;
/// Rounds per trainer, sized so that each is 15–35 % of the op.
const ROUNDS_HL: usize = 150;
const ROUNDS_HK: usize = 60;
const ROUNDS_VL: usize = 100;
const ROUNDS_VK: usize = 35;
/// Held-out rows whose decision values fingerprint a kernel model.
const PROBE_ROWS: usize = 8;

/// What identifies a trained model bit for bit without comparing its
/// private fields: the whole convergence trace and its decision values
/// on a few held-out rows.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint(Vec<u64>);

fn fingerprint(
    history: &ConvergenceHistory,
    test: &Dataset,
    decision: impl Fn(&[f64]) -> f64,
) -> Fingerprint {
    Fingerprint(
        history
            .z_delta
            .iter()
            .copied()
            .chain((0..PROBE_ROWS).map(|i| decision(test.sample(i))))
            .map(f64::to_bits)
            .collect(),
    )
}

/// One run of the four trainers.
struct Trained {
    fingerprints: [Fingerprint; 4],
    /// Mean held-out accuracy of the four models; only computed for the
    /// reference run, an op's models being bit for bit the same.
    accuracy: Option<f64>,
    metrics: JobMetrics,
}

pub struct Fig4 {
    parts: Vec<Dataset>,
    view: VerticalView,
    test: Dataset,
    cfg: AdmmConfig,
    reference: Trained,
    /// Summed over the ops so far.
    metrics: JobMetrics,
    timed_metrics: JobMetrics,
}

impl Fig4 {
    pub fn new(seed: u64, spans: &mut Spans) -> Fig4 {
        let data = spans.time("data.synth", |_| {
            synth::cancer_like(TRAIN_ROWS + TEST_ROWS, DATA_SEED)
        });
        let (parts, view, test) = spans.time("data.partition", |_| {
            let fraction = TRAIN_ROWS as f64 / data.len() as f64;
            let (train, test) = data.split(fraction, DATA_SEED ^ 0x51).expect("split");
            let parts = Partition::horizontal(&train, NODES, DATA_SEED ^ 0x9a).expect("rows");
            let view = Partition::vertical(&train, NODES, DATA_SEED ^ 0x3c).expect("columns");
            (parts, view, test)
        });
        let cfg = AdmmConfig::default()
            .with_kernel(Kernel::Rbf { gamma: 1.0 / 9.0 })
            .with_landmarks(LANDMARKS)
            .with_seed(seed);
        let mut fig4 = Fig4 {
            parts,
            view,
            test,
            cfg,
            reference: Trained {
                fingerprints: std::array::from_fn(|_| Fingerprint(Vec::new())),
                accuracy: None,
                metrics: JobMetrics::default(),
            },
            metrics: JobMetrics::default(),
            timed_metrics: JobMetrics::default(),
        };
        fig4.reference = spans
            .time("reference", |_| fig4.train(&mut Spans::new(false), true))
            .expect("the four trainers run on the cluster");
        let in_process = spans
            .time("reference.in_process", |_| fig4.in_process_accuracy())
            .expect("the four trainers run in process");
        let on_cluster = fig4.reference.accuracy.expect("just scored");
        // The cluster and in-process drivers sum in different orders, so
        // their weights agree to ~1e-9, not to the bit; no more than one
        // held-out row in all may fall on the other side for it.
        assert!(
            (in_process - on_cluster).abs() <= 0.25 / TEST_ROWS as f64 + 1e-12,
            "cluster accuracy {on_cluster} but in-process {in_process}"
        );
        fig4
    }

    /// Mean held-out accuracy of the same four trainings run by the
    /// in-process trainers, with no MapReduce runtime underneath.
    fn in_process_accuracy(&self) -> ppml_core::Result<f64> {
        let test = &self.test;
        let hl = HorizontalLinearSvm::train(&self.parts, &self.cfg.with_max_iter(ROUNDS_HL), None)?;
        let hk = HorizontalKernelSvm::train(&self.parts, &self.cfg.with_max_iter(ROUNDS_HK), None)?;
        let vl = VerticalLinearSvm::train(&self.view, &self.cfg.with_max_iter(ROUNDS_VL), None)?;
        let vk = VerticalKernelSvm::train(&self.view, &self.cfg.with_max_iter(ROUNDS_VK), None)?;
        Ok((hl.model.accuracy(test)
            + hk.model.accuracy(test)
            + vl.model.accuracy(test)
            + vk.model.accuracy(test))
            / 4.0)
    }

    fn train(&self, spans: &mut Spans, score: bool) -> ppml_core::Result<Trained> {
        let tuning = ClusterTuning::default;
        let test = &self.test;
        let (hl, hl_metrics) = spans.time("core.run.hl", |_| {
            let cfg = self.cfg.with_max_iter(ROUNDS_HL);
            train_linear_on_cluster(&self.parts, &cfg, None, tuning())
        })?;
        let (hk, hk_metrics) = spans.time("core.run.hk", |_| {
            let cfg = self.cfg.with_max_iter(ROUNDS_HK);
            train_kernel_on_cluster(&self.parts, &cfg, None, tuning())
        })?;
        let (vl, vl_metrics) = spans.time("core.run.vl", |_| {
            let cfg = self.cfg.with_max_iter(ROUNDS_VL);
            train_vertical_linear_on_cluster(&self.view, &cfg, None, tuning())
        })?;
        let (vk, vk_metrics) = spans.time("core.run.vk", |_| {
            let cfg = self.cfg.with_max_iter(ROUNDS_VK);
            train_vertical_kernel_on_cluster(&self.view, &cfg, None, tuning())
        })?;
        let mut metrics = hl_metrics;
        for other in [&hk_metrics, &vl_metrics, &vk_metrics] {
            metrics.merge(other);
        }
        Ok(Trained {
            fingerprints: [
                fingerprint(&hl.history, test, |x| {
                    hl.model.decision(x).expect("feature count matches")
                }),
                fingerprint(&hk.history, test, |x| hk.model.decision(x)),
                fingerprint(&vl.history, test, |x| vl.model.decision(x)),
                fingerprint(&vk.history, test, |x| vk.model.decision(x)),
            ],
            accuracy: score.then(|| {
                (hl.model.accuracy(test)
                    + hk.model.accuracy(test)
                    + vl.model.accuracy(test)
                    + vk.model.accuracy(test))
                    / 4.0
            }),
            metrics,
        })
    }
}

impl Workload for Fig4 {
    fn op(&mut self, spans: &mut Spans) -> bool {
        match self.train(spans, false) {
            Ok(trained) => {
                self.metrics.merge(&trained.metrics);
                if spans.enabled() {
                    self.timed_metrics.merge(&trained.metrics);
                }
                trained.fingerprints == self.reference.fingerprints
            }
            Err(_) => false,
        }
    }

    fn warmup_ops(&self) -> usize {
        55
    }

    fn rows_per_op(&self) -> f64 {
        (TRAIN_ROWS * (ROUNDS_HL + ROUNDS_HK + ROUNDS_VL + ROUNDS_VK)) as f64
    }

    fn wire_bytes(&self) -> u64 {
        self.metrics.total_network_bytes() as u64
    }

    fn accuracy(&self) -> f64 {
        self.reference
            .accuracy
            .expect("the reference run is scored")
    }

    fn layers(&mut self, traced: &Traced<'_>) -> Vec<(&'static str, f64)> {
        let ops = traced.ops.max(1) as f64;
        let spans = traced.spans;
        // The cluster closes every round with a `ShuffleBytes` event; the
        // gap to the previous round's, within one job, is the round.
        let mut rounds_us = Vec::new();
        let mut previous: Option<(u64, u64)> = None;
        for event in traced.events {
            if let EventKind::ShuffleBytes { iteration, .. } = event.kind {
                if let Some((last, t_ns)) = previous {
                    if iteration == last + 1 {
                        rounds_us.push((event.t_ns - t_ns) as f64 / 1e3);
                    }
                }
                previous = Some((iteration, event.t_ns));
            }
        }
        let m = &self.timed_metrics;
        let mut out = probes::masking(self.parts[0].features() + 1, NODES, self.cfg.seed);
        out.extend([
            (
                "linalg.chol_ms",
                probes::vk_cholesky_ms(self.view.part(0), self.cfg.kernel, self.cfg.rho),
            ),
            (
                "qp.solve_eq_ms",
                probes::vl_reducer_ms(self.view.y(), &self.cfg),
            ),
            (
                "kernel.gram_ms",
                probes::hk_gram_ms(&self.parts[0], &self.cfg),
            ),
            ("mapreduce.empty_round_us", probes::empty_round_us(NODES)),
        ]);
        out.extend([
            ("core.run_ms.hl", mean(&spans.durations_ms("core.run.hl"))),
            ("core.run_ms.hk", mean(&spans.durations_ms("core.run.hk"))),
            ("core.run_ms.vl", mean(&spans.durations_ms("core.run.vl"))),
            ("core.run_ms.vk", mean(&spans.durations_ms("core.run.vk"))),
            ("mapreduce.round_us_p50", median_or_zero(&rounds_us)),
            ("mapreduce.task_retries_per_op", m.task_retries as f64 / ops),
            (
                "mapreduce.bytes_shuffled_per_op",
                m.bytes_shuffled as f64 / ops,
            ),
            (
                "mapreduce.bytes_broadcast_per_op",
                m.bytes_broadcast as f64 / ops,
            ),
            ("mapreduce.locality_ratio", m.locality_ratio()),
            ("data.synth_ms", spans.total_ms("data.synth")),
            ("data.partition_ms", spans.total_ms("data.partition")),
        ]);
        out
    }
}
