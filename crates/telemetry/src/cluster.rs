//! Coordinator-side view of the whole cluster (ISSUE 9 tentpole).
//!
//! Learners ship compact telemetry *deltas* piggy-backed on round
//! boundaries (the `Telemetry` wire kind); the coordinator folds them
//! here into per-learner labelled series. The registry also powers the
//! per-round straggler scorer: the coordinator records each learner's
//! collect lag (round open → share accepted) as shares arrive, and
//! [`ClusterRegistry::score_round`] compares every learner against the
//! round's median lag.
//!
//! Same privacy posture as the rest of the crate: a [`ClusterDelta`] is
//! `Copy` scalars only — sizes, timings, counts, epochs. Shares, masks
//! and model coordinates are unrepresentable, so nothing the §V threat
//! model protects can reach the `/cluster` exposition by construction.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

use crate::metrics::{bucket_index, bucket_upper_bound, HISTOGRAM_BUCKETS};

/// A learner whose collect lag is at least this multiple of the round
/// median is flagged slow.
pub const SLOW_SCORE_THRESHOLD: f64 = 2.0;

/// Lags under a millisecond are never flagged, whatever the ratio —
/// in-process loopback rounds finish in microseconds and tiny absolute
/// jitter would otherwise read as a straggler.
pub const SLOW_MIN_LAG_NS: u64 = 1_000_000;

/// SplitMix64 finalizer — the span-id mix shared by the learner relay
/// and `ppml-trace`'s causal merge (`span = mix64(run_id ^ iteration)`).
/// Deterministic, so every party derives the same id independently.
#[must_use]
pub fn mix64(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One learner's counter deltas for one round — the payload of a
/// `Telemetry` wire frame, minus addressing. All fields are deltas
/// since the learner's previous report except `iteration`, `span` and
/// `epoch`, which identify the round the report covers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterDelta {
    /// Round the delta covers.
    pub iteration: u64,
    /// Causal correlation id: `mix64(run_id ^ iteration)`.
    pub span: u64,
    /// Re-key epoch in force at the learner.
    pub epoch: u64,
    /// Frames sent since the last report.
    pub frames_sent: u64,
    /// Frames received since the last report.
    pub frames_recv: u64,
    /// Bytes sent since the last report.
    pub bytes_sent: u64,
    /// Bytes received since the last report.
    pub bytes_recv: u64,
    /// ARQ retransmissions since the last report.
    pub retransmits: u64,
    /// The learner's local wall clock for the round.
    pub elapsed_ns: u64,
}

/// The straggler scorer's per-learner output for one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerVerdict {
    /// The learner scored.
    pub party: u32,
    /// Round the verdict is for.
    pub iteration: u64,
    /// This learner's collect lag (round open → share accepted).
    pub lag_ns: u64,
    /// The round's median collect lag.
    pub median_ns: u64,
    /// `lag_ns / median_ns`; 1.0 means exactly median.
    pub score: f64,
}

impl StragglerVerdict {
    /// Whether this verdict crosses the flagging thresholds (relative
    /// score *and* absolute lag — see [`SLOW_MIN_LAG_NS`]).
    #[must_use]
    pub fn is_slow(&self) -> bool {
        self.score >= SLOW_SCORE_THRESHOLD && self.lag_ns >= SLOW_MIN_LAG_NS
    }
}

/// A plain (non-atomic) log2 histogram — the registry is coarse-grained
/// behind one mutex, so per-bucket atomics would buy nothing.
#[derive(Clone)]
struct LagHistogram {
    count: u64,
    sum: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for LagHistogram {
    fn default() -> Self {
        LagHistogram {
            count: 0,
            sum: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl LagHistogram {
    fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[bucket_index(v)] += 1;
    }

    fn highest_bucket(&self) -> Option<usize> {
        (0..HISTOGRAM_BUCKETS).rev().find(|&i| self.buckets[i] > 0)
    }

    fn render(&self, out: &mut String, name: &str, labels: &str) {
        let mut cumulative = 0u64;
        if let Some(top) = self.highest_bucket() {
            for i in 0..=top {
                cumulative += self.buckets[i];
                let le = bucket_upper_bound(i);
                let _ = writeln!(out, "{name}_bucket{{{labels},le=\"{le}\"}} {cumulative}");
            }
        }
        let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {}", self.count);
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", self.sum);
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", self.count);
    }
}

/// Everything the coordinator knows about one learner.
#[derive(Clone, Default)]
struct LearnerSeries {
    deltas: u64,
    frames_sent: u64,
    frames_recv: u64,
    bytes_sent: u64,
    bytes_recv: u64,
    retransmits: u64,
    epoch: u64,
    last_iteration: u64,
    last_span: u64,
    /// Most recent [`StragglerVerdict::score`]; 0 until first scored.
    straggler_score: f64,
    round_elapsed_ns: LagHistogram,
    collect_lag_ns: LagHistogram,
}

/// Everything the driver knows about one MapReduce worker (ISSUE 10):
/// attempt/death counters plus the task-attempt half of the
/// straggler scorer. Kept separate from [`LearnerSeries`] because the
/// id spaces differ — a worker node id is not a protocol party.
#[derive(Clone, Default)]
struct WorkerSeries {
    attempts: u64,
    deaths: u64,
    /// Most recent task [`StragglerVerdict::score`]; 0 until first scored.
    straggler_score: f64,
    attempt_lag_ns: LagHistogram,
}

#[derive(Default)]
struct Inner {
    learners: BTreeMap<u32, LearnerSeries>,
    /// Collect lags awaiting [`ClusterRegistry::score_round`], keyed by
    /// round.
    pending: BTreeMap<u64, Vec<(u32, u64)>>,
    workers: BTreeMap<u32, WorkerSeries>,
    /// Task-attempt lags awaiting [`ClusterRegistry::score_task_round`],
    /// keyed by round.
    pending_tasks: BTreeMap<u64, Vec<(u32, u64)>>,
}

/// Per-learner labelled series folded from in-band telemetry deltas
/// plus the straggler scorer's working state. One mutex around a plain
/// map — folding happens once per learner per round on the coordinator
/// control path, nowhere near a hot loop.
#[derive(Default)]
pub struct ClusterRegistry {
    inner: Mutex<Inner>,
}

impl ClusterRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        ClusterRegistry::default()
    }

    /// The process-wide registry the `/cluster` endpoint serves. The
    /// distributed loop folds into this when telemetry is enabled; a
    /// process that never folds renders an empty exposition.
    pub fn global() -> &'static ClusterRegistry {
        static GLOBAL: OnceLock<ClusterRegistry> = OnceLock::new();
        GLOBAL.get_or_init(ClusterRegistry::new)
    }

    /// Folds one delta reported by `learner`.
    pub fn fold(&self, learner: u32, delta: &ClusterDelta) {
        let mut inner = self.inner.lock().expect("cluster registry");
        let series = inner.learners.entry(learner).or_default();
        series.deltas += 1;
        series.frames_sent = series.frames_sent.saturating_add(delta.frames_sent);
        series.frames_recv = series.frames_recv.saturating_add(delta.frames_recv);
        series.bytes_sent = series.bytes_sent.saturating_add(delta.bytes_sent);
        series.bytes_recv = series.bytes_recv.saturating_add(delta.bytes_recv);
        series.retransmits = series.retransmits.saturating_add(delta.retransmits);
        series.epoch = delta.epoch;
        series.last_iteration = series.last_iteration.max(delta.iteration);
        series.last_span = delta.span;
        if delta.elapsed_ns > 0 {
            series.round_elapsed_ns.observe(delta.elapsed_ns);
        }
    }

    /// Records `learner`'s collect lag for `iteration` (round open →
    /// share accepted, by the coordinator's clock). Scored when the
    /// round closes via [`ClusterRegistry::score_round`].
    pub fn observe_lag(&self, learner: u32, iteration: u64, lag_ns: u64) {
        let mut inner = self.inner.lock().expect("cluster registry");
        inner
            .pending
            .entry(iteration)
            .or_default()
            .push((learner, lag_ns));
        inner
            .learners
            .entry(learner)
            .or_default()
            .collect_lag_ns
            .observe(lag_ns);
    }

    /// Scores every lag recorded for `iteration` against the round's
    /// (lower) median, updates the per-learner `ppml_straggler_score`
    /// gauges, and returns the verdicts. Rounds with fewer than two
    /// accepted shares have no meaningful median and score nothing.
    pub fn score_round(&self, iteration: u64) -> Vec<StragglerVerdict> {
        let mut inner = self.inner.lock().expect("cluster registry");
        let Some(lags) = inner.pending.remove(&iteration) else {
            return Vec::new();
        };
        if lags.len() < 2 {
            return Vec::new();
        }
        let mut sorted: Vec<u64> = lags.iter().map(|&(_, lag)| lag).collect();
        sorted.sort_unstable();
        let median_ns = sorted[(sorted.len() - 1) / 2].max(1);
        let mut verdicts = Vec::with_capacity(lags.len());
        for (party, lag_ns) in lags {
            let score = lag_ns as f64 / median_ns as f64;
            inner.learners.entry(party).or_default().straggler_score = score;
            verdicts.push(StragglerVerdict {
                party,
                iteration,
                lag_ns,
                median_ns,
                score,
            });
        }
        verdicts
    }

    /// Counts one map-task attempt dispatched to `worker`.
    pub fn fold_task_attempt(&self, worker: u32) {
        let mut inner = self.inner.lock().expect("cluster registry");
        inner.workers.entry(worker).or_default().attempts += 1;
    }

    /// Counts `worker` dying mid-job.
    pub fn fold_worker_death(&self, worker: u32) {
        let mut inner = self.inner.lock().expect("cluster registry");
        inner.workers.entry(worker).or_default().deaths += 1;
    }

    /// Records `worker`'s wall clock for one completed map attempt in
    /// `iteration`. Scored when the round closes via
    /// [`ClusterRegistry::score_task_round`].
    pub fn observe_task_lag(&self, worker: u32, iteration: u64, lag_ns: u64) {
        let mut inner = self.inner.lock().expect("cluster registry");
        inner
            .pending_tasks
            .entry(iteration)
            .or_default()
            .push((worker, lag_ns));
        inner
            .workers
            .entry(worker)
            .or_default()
            .attempt_lag_ns
            .observe(lag_ns);
    }

    /// Scores every task-attempt lag recorded for `iteration` against
    /// the round's lower median — the MapReduce twin of
    /// [`ClusterRegistry::score_round`]. `StragglerVerdict::party`
    /// carries the worker node id. Consumes the round; fewer than two
    /// attempts score nothing.
    pub fn score_task_round(&self, iteration: u64) -> Vec<StragglerVerdict> {
        let mut inner = self.inner.lock().expect("cluster registry");
        let Some(lags) = inner.pending_tasks.remove(&iteration) else {
            return Vec::new();
        };
        if lags.len() < 2 {
            return Vec::new();
        }
        let mut sorted: Vec<u64> = lags.iter().map(|&(_, lag)| lag).collect();
        sorted.sort_unstable();
        let median_ns = sorted[(sorted.len() - 1) / 2].max(1);
        let mut verdicts = Vec::with_capacity(lags.len());
        for (worker, lag_ns) in lags {
            let score = lag_ns as f64 / median_ns as f64;
            inner.workers.entry(worker).or_default().straggler_score = score;
            verdicts.push(StragglerVerdict {
                party: worker,
                iteration,
                lag_ns,
                median_ns,
                score,
            });
        }
        verdicts
    }

    /// Learners with at least one folded delta or observed lag.
    #[must_use]
    pub fn learners(&self) -> Vec<u32> {
        self.inner
            .lock()
            .expect("cluster registry")
            .learners
            .keys()
            .copied()
            .collect()
    }

    /// Workers with at least one counted attempt, death or
    /// observed task lag.
    #[must_use]
    pub fn workers(&self) -> Vec<u32> {
        self.inner
            .lock()
            .expect("cluster registry")
            .workers
            .keys()
            .copied()
            .collect()
    }

    /// Clears everything — between runs in one process, and in tests.
    pub fn reset(&self) {
        let mut inner = self.inner.lock().expect("cluster registry");
        inner.learners.clear();
        inner.pending.clear();
        inner.workers.clear();
        inner.pending_tasks.clear();
    }

    /// Renders the per-learner series in the Prometheus text exposition
    /// format, one `learner="N"` label per series. Scalars only — the
    /// privacy argument of [`crate::metrics::MetricsRegistry::render`]
    /// applies unchanged.
    #[must_use]
    pub fn render(&self) -> String {
        let inner = self.inner.lock().expect("cluster registry");
        let mut out = String::with_capacity(2048);
        let counter = |out: &mut String, name: &str, pick: &dyn Fn(&LearnerSeries) -> u64| {
            let _ = writeln!(out, "# TYPE ppml_cluster_{name} counter");
            for (learner, series) in &inner.learners {
                let _ = writeln!(
                    out,
                    "ppml_cluster_{name}{{learner=\"{learner}\"}} {}",
                    pick(series)
                );
            }
        };
        let gauge = |out: &mut String, name: &str, pick: &dyn Fn(&LearnerSeries) -> u64| {
            let _ = writeln!(out, "# TYPE ppml_cluster_{name} gauge");
            for (learner, series) in &inner.learners {
                let _ = writeln!(
                    out,
                    "ppml_cluster_{name}{{learner=\"{learner}\"}} {}",
                    pick(series)
                );
            }
        };
        counter(&mut out, "deltas_total", &|s| s.deltas);
        counter(&mut out, "frames_sent_total", &|s| s.frames_sent);
        counter(&mut out, "frames_recv_total", &|s| s.frames_recv);
        counter(&mut out, "bytes_sent_total", &|s| s.bytes_sent);
        counter(&mut out, "bytes_recv_total", &|s| s.bytes_recv);
        counter(&mut out, "retransmits_total", &|s| s.retransmits);
        gauge(&mut out, "epoch", &|s| s.epoch);
        gauge(&mut out, "last_round", &|s| s.last_iteration);
        gauge(&mut out, "last_span", &|s| s.last_span);
        let _ = writeln!(out, "# TYPE ppml_straggler_score gauge");
        for (learner, series) in &inner.learners {
            let _ = writeln!(
                out,
                "ppml_straggler_score{{learner=\"{learner}\"}} {}",
                series.straggler_score
            );
        }
        let _ = writeln!(out, "# TYPE ppml_cluster_round_elapsed_ns histogram");
        for (learner, series) in &inner.learners {
            if series.round_elapsed_ns.count == 0 {
                continue;
            }
            series.round_elapsed_ns.render(
                &mut out,
                "ppml_cluster_round_elapsed_ns",
                &format!("learner=\"{learner}\""),
            );
        }
        let _ = writeln!(out, "# TYPE ppml_cluster_collect_lag_ns histogram");
        for (learner, series) in &inner.learners {
            if series.collect_lag_ns.count == 0 {
                continue;
            }
            series.collect_lag_ns.render(
                &mut out,
                "ppml_cluster_collect_lag_ns",
                &format!("learner=\"{learner}\""),
            );
        }
        // ---- MapReduce worker series (ISSUE 10)
        let worker_counter = |out: &mut String, name: &str, pick: &dyn Fn(&WorkerSeries) -> u64| {
            let _ = writeln!(out, "# TYPE ppml_{name} counter");
            for (worker, series) in &inner.workers {
                let _ = writeln!(out, "ppml_{name}{{worker=\"{worker}\"}} {}", pick(series));
            }
        };
        worker_counter(&mut out, "task_attempts_total", &|s| s.attempts);
        worker_counter(&mut out, "worker_deaths_total", &|s| s.deaths);
        let _ = writeln!(out, "# TYPE ppml_task_straggler_score gauge");
        for (worker, series) in &inner.workers {
            let _ = writeln!(
                out,
                "ppml_task_straggler_score{{worker=\"{worker}\"}} {}",
                series.straggler_score
            );
        }
        let _ = writeln!(out, "# TYPE ppml_task_attempt_lag_ns histogram");
        for (worker, series) in &inner.workers {
            if series.attempt_lag_ns.count == 0 {
                continue;
            }
            series.attempt_lag_ns.render(
                &mut out,
                "ppml_task_attempt_lag_ns",
                &format!("worker=\"{worker}\""),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(iteration: u64, bytes: u64, elapsed_ns: u64) -> ClusterDelta {
        ClusterDelta {
            iteration,
            span: mix64(7 ^ iteration),
            epoch: 0,
            frames_sent: 2,
            frames_recv: 2,
            bytes_sent: bytes,
            bytes_recv: bytes / 2,
            retransmits: 0,
            elapsed_ns,
        }
    }

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(0), mix64(0));
        assert_ne!(mix64(0), mix64(1));
        assert_ne!(mix64(1), 1);
    }

    #[test]
    fn fold_accumulates_per_learner_series() {
        let reg = ClusterRegistry::new();
        reg.fold(1, &delta(0, 100, 1_000));
        reg.fold(1, &delta(1, 200, 1_000));
        reg.fold(2, &delta(1, 50, 2_000));
        assert_eq!(reg.learners(), vec![1, 2]);
        let text = reg.render();
        assert!(
            text.contains("ppml_cluster_bytes_sent_total{learner=\"1\"} 300"),
            "{text}"
        );
        assert!(
            text.contains("ppml_cluster_bytes_sent_total{learner=\"2\"} 50"),
            "{text}"
        );
        assert!(
            text.contains("ppml_cluster_deltas_total{learner=\"1\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("ppml_cluster_last_round{learner=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ppml_cluster_round_elapsed_ns_count{learner=\"2\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn fold_saturates_instead_of_wrapping() {
        let reg = ClusterRegistry::new();
        let mut d = delta(0, u64::MAX, 1);
        reg.fold(1, &d);
        d.iteration = 1;
        reg.fold(1, &d);
        let text = reg.render();
        assert!(
            text.contains(&format!(
                "ppml_cluster_bytes_sent_total{{learner=\"1\"}} {}",
                u64::MAX
            )),
            "{text}"
        );
    }

    #[test]
    fn straggler_scorer_flags_the_laggard_against_the_median() {
        let reg = ClusterRegistry::new();
        reg.observe_lag(0, 5, 2_000_000);
        reg.observe_lag(1, 5, 2_200_000);
        reg.observe_lag(2, 5, 2_100_000);
        reg.observe_lag(3, 5, 9_000_000);
        let verdicts = reg.score_round(5);
        assert_eq!(verdicts.len(), 4);
        // Lower median of [2.0, 2.1, 2.2, 9.0] ms is 2.1 ms.
        assert!(verdicts.iter().all(|v| v.median_ns == 2_100_000));
        let slow: Vec<_> = verdicts.iter().filter(|v| v.is_slow()).collect();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].party, 3);
        assert!(slow[0].score > 4.0, "{}", slow[0].score);
        // The gauge sticks and the laggard leads the exposition.
        let text = reg.render();
        assert!(
            text.contains("ppml_straggler_score{learner=\"3\"}"),
            "{text}"
        );
        // Scoring consumed the round: a second call returns nothing.
        assert!(reg.score_round(5).is_empty());
    }

    #[test]
    fn tiny_absolute_lags_are_never_flagged() {
        let reg = ClusterRegistry::new();
        reg.observe_lag(0, 1, 10);
        reg.observe_lag(1, 1, 900); // 90× the median but sub-millisecond
        let verdicts = reg.score_round(1);
        assert!(verdicts.iter().all(|v| !v.is_slow()), "{verdicts:?}");
    }

    #[test]
    fn single_share_rounds_score_nothing() {
        let reg = ClusterRegistry::new();
        reg.observe_lag(0, 2, 5_000_000);
        assert!(reg.score_round(2).is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let reg = ClusterRegistry::new();
        reg.fold(1, &delta(0, 10, 5));
        reg.observe_lag(1, 0, 99);
        reg.fold_task_attempt(2);
        reg.observe_task_lag(2, 0, 50);
        reg.reset();
        assert!(reg.learners().is_empty());
        assert!(reg.workers().is_empty());
        assert!(reg.score_round(0).is_empty());
        assert!(reg.score_task_round(0).is_empty());
        assert!(!reg.render().contains("learner=\"1\""));
        assert!(!reg.render().contains("worker=\"2\""));
    }

    #[test]
    fn worker_series_surface_on_the_exposition() {
        let reg = ClusterRegistry::new();
        reg.fold_task_attempt(1);
        reg.fold_task_attempt(1);
        reg.fold_task_attempt(2);
        reg.fold_worker_death(1);
        assert_eq!(reg.workers(), vec![1, 2]);
        let text = reg.render();
        assert!(
            text.contains("ppml_task_attempts_total{worker=\"1\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("ppml_task_attempts_total{worker=\"2\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ppml_worker_deaths_total{worker=\"1\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn task_scorer_flags_the_straggling_worker() {
        let reg = ClusterRegistry::new();
        reg.observe_task_lag(0, 3, 2_000_000);
        reg.observe_task_lag(1, 3, 2_200_000);
        reg.observe_task_lag(2, 3, 11_000_000);
        let verdicts = reg.score_task_round(3);
        assert_eq!(verdicts.len(), 3);
        // Lower median of [2.0, 2.2, 11.0] ms is 2.2 ms.
        assert!(verdicts.iter().all(|v| v.median_ns == 2_200_000));
        let slow: Vec<_> = verdicts.iter().filter(|v| v.is_slow()).collect();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].party, 2);
        let text = reg.render();
        assert!(
            text.contains("ppml_task_straggler_score{worker=\"2\"}"),
            "{text}"
        );
        assert!(
            text.contains("ppml_task_attempt_lag_ns_count{worker=\"0\"} 1"),
            "{text}"
        );
        // Scoring consumed the round and never mixes with learner lags.
        assert!(reg.score_task_round(3).is_empty());
        assert!(reg.score_round(3).is_empty());
    }

    #[test]
    fn single_attempt_task_rounds_score_nothing() {
        let reg = ClusterRegistry::new();
        reg.observe_task_lag(0, 4, 5_000_000);
        assert!(reg.score_task_round(4).is_empty());
    }
}
