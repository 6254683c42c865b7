//! `train_compute` and `train_secagg`: distributed horizontal-linear
//! training through `ppml_core::secagg`, one coordinator and `m` learner
//! threads on a [`Ring`].

use std::rc::Rc;
use std::time::{Duration, Instant};

use ppml_core::jobs::{train_linear_on_cluster, ClusterTuning};
use ppml_core::{AdmmConfig, SecAggConfig, SecAggKind};
use ppml_data::{synth, Dataset, Partition};
use ppml_svm::LinearSvm;
use ppml_telemetry::EventKind;
use ppml_transport::Message;

use super::{mean, median_or_zero, Traced, Workload};
use crate::probes;
use crate::ring::{Ring, Trained};
use crate::spans::Spans;
use crate::stats::median;

/// `train_compute`: two learners of about 150 HIGGS-like rows (28
/// features) each, so the op is the learners' dual Hessian build and
/// warm-started box QP, and the wire is an in-memory hub. One op trains
/// each of three pinned datasets once.
const COMPUTE_LEARNERS: usize = 2;
const COMPUTE_TRAIN_ROWS: usize = 300;
const COMPUTE_ROUNDS: usize = 20;
const COMPUTE_DATA_SEEDS: [u64; 3] = [4, 5, 8];
const COMPUTE_WARMUP_OPS: usize = 6;

/// `train_secagg`: the paper's M = 4 learners with about two dozen
/// cancer-like rows (9 features) each, so the local solve is cheap and
/// the op is the three aggregation protocols over real sockets. The
/// round counts give each backend a comparable share of the op.
const SECAGG_LEARNERS: usize = 4;
const SECAGG_TRAIN_ROWS: usize = 96;
const SECAGG_ROUNDS: [(SecAggKind, usize); 3] = [
    (SecAggKind::Pairwise, 90),
    (SecAggKind::Shamir, 50),
    (SecAggKind::Paillier, 10),
];
const SECAGG_DATA_SEED: u64 = 1;
/// The Paillier job's protocol seed is pinned too: every party derives
/// the key pair from it by searching for primes, five searches a job,
/// and a search takes 0.6–2 ms depending on where the seed starts it.
const PAILLIER_SEED: u64 = 1;
const SECAGG_WARMUP_OPS: usize = 14;

/// Held-out rows the accuracy is measured on.
const TEST_ROWS: usize = 4000;

/// `‖z_{t+1} − z_t‖²` below which `core.rounds_to_target` counts the
/// consensus as settled.
const TARGET_DELTA: f64 = 1e-4;

/// The training data of a job: the learners' partitions and the rows
/// held out of them. Generated from a pinned `data_seed`, never from the
/// run's seed: the box QP's time to tolerance differs two- to tenfold
/// between datasets drawn from one distribution (see the README), so a
/// median over runs on different datasets would measure the draw.
struct Problem {
    parts: Vec<Dataset>,
    train_rows: usize,
    test: Dataset,
}

impl Problem {
    fn generate(
        synth: fn(usize, u64) -> Dataset,
        train_rows: usize,
        learners: usize,
        data_seed: u64,
        spans: &mut Spans,
    ) -> Problem {
        let data = spans.time("data.synth", |_| synth(train_rows + TEST_ROWS, data_seed));
        spans.time("data.partition", |_| {
            let fraction = train_rows as f64 / data.len() as f64;
            let (train, test) = data.split(fraction, data_seed ^ 0x51).expect("split");
            Problem {
                parts: Partition::horizontal(&train, learners, data_seed ^ 0x9a)
                    .expect("partition"),
                train_rows: train.len(),
                test,
            }
        })
    }
}

/// One training job of an op: a problem, a backend, a round budget, and
/// the model the in-process trainer reaches on the same partitions.
struct Job {
    /// Name of the span around the job: `core.run.<backend>`.
    span: &'static str,
    problem: Rc<Problem>,
    secagg: SecAggConfig,
    cfg: AdmmConfig,
    reference: LinearSvm,
    rounds_to_target: usize,
}

impl Job {
    /// `seed` is the run's: it keys the masks, the Shamir polynomials
    /// and the Paillier key pair, and changes neither the model nor the
    /// amount of work.
    fn new(
        problem: &Rc<Problem>,
        kind: SecAggKind,
        rounds: usize,
        seed: u64,
        spans: &mut Spans,
    ) -> Job {
        let cfg = AdmmConfig::default().with_max_iter(rounds).with_seed(seed);
        let (reference, _) = spans.time("reference", |_| {
            train_linear_on_cluster(&problem.parts, &cfg, None, ClusterTuning::default())
                .expect("in-process reference")
        });
        Job {
            span: match kind {
                SecAggKind::Pairwise => "core.run.pairwise",
                SecAggKind::Shamir => "core.run.shamir",
                SecAggKind::Paillier => "core.run.paillier",
            },
            problem: Rc::clone(problem),
            secagg: SecAggConfig::new(kind),
            cfg,
            rounds_to_target: reference
                .history
                .iterations_to_converge(TARGET_DELTA)
                .map_or(rounds, |i| i + 1),
            reference: reference.model,
        }
    }
}

/// What the benchmark's own threads and spies saw, summed over the
/// timed ops of a traced run.
#[derive(Default)]
struct Costs {
    frames: u64,
    bytes: u64,
    retransmits: u64,
    send_ns: Vec<u64>,
    coordinator_recv_wait: Duration,
    coordinator_cpu: Duration,
    /// Per op: the busiest learner's CPU time, and the learners' mean.
    learner_cpu_max_ms: Vec<f64>,
    learner_cpu_mean_ms: Vec<f64>,
}

pub struct RingWorkload {
    seed: u64,
    ring: Ring,
    tcp: bool,
    jobs: Vec<Job>,
    warmup_ops: usize,
    costs: Costs,
}

impl RingWorkload {
    pub fn compute(seed: u64, traced: bool, spans: &mut Spans) -> RingWorkload {
        let ring = spans.time("transport.assemble", |_| {
            Ring::loopback(COMPUTE_LEARNERS, traced)
        });
        let jobs = COMPUTE_DATA_SEEDS
            .iter()
            .map(|&data_seed| {
                let problem = Rc::new(Problem::generate(
                    synth::higgs_like,
                    COMPUTE_TRAIN_ROWS,
                    COMPUTE_LEARNERS,
                    data_seed,
                    spans,
                ));
                Job::new(&problem, SecAggKind::Pairwise, COMPUTE_ROUNDS, seed, spans)
            })
            .collect();
        RingWorkload {
            seed,
            ring,
            tcp: false,
            jobs,
            warmup_ops: COMPUTE_WARMUP_OPS,
            costs: Costs::default(),
        }
    }

    pub fn secagg(seed: u64, traced: bool, spans: &mut Spans) -> RingWorkload {
        let ring = spans.time("transport.assemble", |_| {
            Ring::tcp(SECAGG_LEARNERS, traced).expect("assemble the ring on 127.0.0.1")
        });
        let problem = Rc::new(Problem::generate(
            synth::cancer_like,
            SECAGG_TRAIN_ROWS,
            SECAGG_LEARNERS,
            SECAGG_DATA_SEED,
            spans,
        ));
        let jobs = SECAGG_ROUNDS
            .iter()
            .map(|&(kind, rounds)| {
                let seed = if kind == SecAggKind::Paillier {
                    PAILLIER_SEED
                } else {
                    seed
                };
                Job::new(&problem, kind, rounds, seed, spans)
            })
            .collect();
        RingWorkload {
            seed,
            ring,
            tcp: true,
            jobs,
            warmup_ops: SECAGG_WARMUP_OPS,
            costs: Costs::default(),
        }
    }

    /// Adds one timed op's costs to the totals. The spies are drained on
    /// every op, warm-up included, so that a timed op is charged its own
    /// frames only.
    fn charge(&mut self, timed: bool, learner_cpu: &[Duration], coordinator_cpu: Duration) {
        let mut logs = self.ring.drain_spies();
        let (Some(coordinator), true) = (logs.pop(), timed) else {
            return; // an end-to-end run has no spies, a warm-up op is not kept
        };
        let costs = &mut self.costs;
        costs.coordinator_recv_wait += coordinator.recv_wait;
        for log in logs.into_iter().chain(std::iter::once(coordinator)) {
            costs.frames += log.frames_sent;
            costs.bytes += log.bytes_sent;
            costs.retransmits += log.retransmits;
            costs.send_ns.extend(log.send_ns);
        }
        costs.coordinator_cpu += coordinator_cpu;
        let ms: Vec<f64> = learner_cpu.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        costs
            .learner_cpu_max_ms
            .push(ms.iter().copied().fold(0.0, f64::max));
        costs.learner_cpu_mean_ms.push(mean(&ms));
    }
}

/// Whether a job ended the way a healthy run must: nobody dropped, every
/// round ran, and the coordinator's and every learner's model is bit
/// for bit the in-process reference.
pub fn verified(trained: &Trained, reference: &LinearSvm, rounds: usize) -> bool {
    trained.outcome.dropped.is_empty()
        && trained.outcome.history.len() == rounds
        && trained.outcome.model == *reference
        && trained.learner_models.iter().all(|m| m == reference)
}

impl Workload for RingWorkload {
    fn op(&mut self, spans: &mut Spans) -> bool {
        let mut ok = true;
        let mut learner_cpu = vec![Duration::ZERO; self.ring.learners()];
        let mut coordinator_cpu = Duration::ZERO;
        for job in &self.jobs {
            let ring = &mut self.ring;
            let trained = spans.time(job.span, |_| {
                ring.train(&job.problem.parts, &job.cfg, job.secagg)
            });
            match trained {
                Ok(trained) => {
                    ok &= verified(&trained, &job.reference, job.cfg.max_iter);
                    coordinator_cpu += trained.coordinator_cpu;
                    for (sum, cpu) in learner_cpu.iter_mut().zip(&trained.learner_cpu) {
                        *sum += *cpu;
                    }
                }
                Err(_) => ok = false,
            }
        }
        self.charge(spans.enabled(), &learner_cpu, coordinator_cpu);
        ok
    }

    fn warmup_ops(&self) -> usize {
        self.warmup_ops
    }

    fn rows_per_op(&self) -> f64 {
        self.jobs
            .iter()
            .map(|job| (job.problem.train_rows * job.cfg.max_iter) as f64)
            .sum()
    }

    fn wire_bytes(&self) -> u64 {
        self.ring.link_stats().bytes_sent
    }

    fn accuracy(&self) -> f64 {
        let per_job: Vec<f64> = self
            .jobs
            .iter()
            .map(|job| job.reference.accuracy(&job.problem.test))
            .collect();
        mean(&per_job)
    }

    fn layers(&mut self, traced: &Traced<'_>) -> Vec<(&'static str, f64)> {
        let ops = traced.ops.max(1) as f64;
        let costs = &self.costs;
        let send_us: Vec<f64> = costs.send_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        let learner_max = mean(&costs.learner_cpu_max_ms);
        let learner_mean = mean(&costs.learner_cpu_mean_ms);
        let mut out = vec![
            ("transport.frames_per_op", costs.frames as f64 / ops),
            ("transport.bytes_per_op", costs.bytes as f64 / ops),
            (
                "transport.retransmits_per_op",
                costs.retransmits as f64 / ops,
            ),
            ("transport.send_us_p50", median_or_zero(&send_us)),
            (
                "transport.coord_recv_wait_ms_per_op",
                costs.coordinator_recv_wait.as_secs_f64() * 1e3 / ops,
            ),
            (
                "transport.assemble_ms",
                mean(&traced.spans.durations_ms("transport.assemble")),
            ),
            (
                "core.coord_cpu_ms_per_op",
                costs.coordinator_cpu.as_secs_f64() * 1e3 / ops,
            ),
            ("core.learner_cpu_max_ms", learner_max),
            (
                "core.learner_cpu_imbalance",
                if learner_mean > 0.0 {
                    learner_max / learner_mean
                } else {
                    0.0
                },
            ),
            (
                "core.rounds_to_target",
                self.jobs[0].rounds_to_target as f64,
            ),
            ("data.synth_ms", traced.spans.total_ms("data.synth")),
            ("data.partition_ms", traced.spans.total_ms("data.partition")),
        ];
        for (backend, span, run, round) in [
            (
                "pairwise",
                "core.run.pairwise",
                "core.run_ms.pairwise",
                "core.round_ms_p50.pairwise",
            ),
            (
                "shamir",
                "core.run.shamir",
                "core.run_ms.shamir",
                "core.round_ms_p50.shamir",
            ),
            (
                "paillier",
                "core.run.paillier",
                "core.run_ms.paillier",
                "core.round_ms_p50.paillier",
            ),
        ] {
            out.push((run, traced.spans.total_ms(span) / ops));
            let rounds: Vec<f64> = traced
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::SecAggRound {
                        backend: b,
                        elapsed_ns,
                        ..
                    } if b == backend => Some(elapsed_ns as f64 / 1e6),
                    _ => None,
                })
                .collect();
            out.push((round, median_or_zero(&rounds)));
        }
        let parts = &self.jobs[0].problem.parts;
        let (m, share_len) = (parts.len(), parts[0].features() + 1);
        if !self.tcp {
            out.extend(probes::hl_learner(&parts[0], m, &self.jobs[0].cfg));
        } else {
            // What the three protocols do to one learner's share.
            out.extend(probes::masking(share_len, m, self.seed));
            let threshold = SecAggConfig::shamir().effective_threshold(m);
            out.extend(probes::shamir(share_len, threshold, m, self.seed));
            // 128 bits: the modulus `ppml_core::secagg` generates.
            out.extend(probes::paillier(128, self.seed));
            out.extend(probes::frame_codec(Message::MaskedShare {
                iteration: 1,
                epoch: 0,
                party: 0,
                payload: vec![0x5a5a_5a5a_5a5a_5a5a; share_len],
            }));
            // The pairwise job again with the sockets taken away: the
            // ratio is the transport's share of that segment.
            let job = &self.jobs[0];
            let mut hub = Ring::loopback(m, false);
            let loopback_ms: Vec<f64> = (0..7)
                .map(|_| {
                    let start = Instant::now();
                    let trained = hub.train(parts, &job.cfg, job.secagg);
                    let ms = start.elapsed().as_secs_f64() * 1e3;
                    assert!(
                        trained.is_ok_and(|t| verified(&t, &job.reference, job.cfg.max_iter)),
                        "loopback re-run disagrees with the reference"
                    );
                    ms
                })
                .collect();
            let tcp_ms = traced.spans.durations_ms(job.span);
            if !tcp_ms.is_empty() {
                out.push((
                    "transport.tcp_vs_loopback_ratio",
                    median(&tcp_ms) / median(&loopback_ms),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Spans;

    fn small_job() -> (Vec<Dataset>, AdmmConfig, LinearSvm) {
        let data = synth::cancer_like(64, 5);
        let parts = Partition::horizontal(&data, 2, 6).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(4).with_seed(5);
        let (reference, _) =
            train_linear_on_cluster(&parts, &cfg, None, ClusterTuning::default()).expect("train");
        (parts, cfg, reference.model)
    }

    #[test]
    fn verifier_accepts_the_reference_and_rejects_one_flipped_bit() {
        let (parts, cfg, reference) = small_job();
        let mut ring = Ring::loopback(2, false);
        let mut trained = ring
            .train(&parts, &cfg, SecAggConfig::pairwise())
            .expect("train");
        assert!(verified(&trained, &reference, 4));
        assert!(
            !verified(&trained, &reference, 5),
            "a missing round must fail"
        );

        let mut w = reference.weights().to_vec();
        w[0] = f64::from_bits(w[0].to_bits() ^ 1);
        let off_by_a_bit = LinearSvm::from_parts(w, reference.bias());
        assert!(!verified(&trained, &off_by_a_bit, 4));
        trained.learner_models[1] = off_by_a_bit;
        assert!(
            !verified(&trained, &reference, 4),
            "one learner disagreeing must fail"
        );
    }

    #[test]
    fn loopback_wire_bytes_repeat_exactly_for_one_seed() {
        let run = || {
            let mut spans = Spans::new(false);
            let mut w = RingWorkload::compute(3, false, &mut spans);
            assert!(w.op(&mut spans));
            w.wire_bytes()
        };
        let first = run();
        assert!(first > 0);
        assert_eq!(first, run());
    }

    #[test]
    fn spy_totals_equal_the_wrapped_transports_link_stats() {
        let (parts, cfg, reference) = small_job();
        let mut ring = Ring::loopback(2, true);
        let trained = ring
            .train(&parts, &cfg, SecAggConfig::pairwise())
            .expect("train");
        assert!(verified(&trained, &reference, 4));
        let stats = ring.link_stats();
        let logs = ring.drain_spies();
        assert_eq!(logs.len(), 3);
        assert_eq!(
            logs.iter().map(|l| l.frames_sent).sum::<u64>(),
            stats.frames_sent
        );
        assert_eq!(
            logs.iter().map(|l| l.bytes_sent).sum::<u64>(),
            stats.bytes_sent
        );
        assert_eq!(
            logs.iter().map(|l| l.frames_received).sum::<u64>(),
            stats.frames_received
        );
        assert_eq!(
            logs.iter().map(|l| l.retransmits).sum::<u64>(),
            stats.retries
        );
    }
}
