//! Fixed-capacity metrics registry and the [`MetricsSink`] that feeds it
//! (ISSUE 4 tentpole, piece 1).
//!
//! Everything here is a plain atomic: counters, gauges, and log2-bucketed
//! histograms with a *fixed* 65-slot bucket array. Recording an event
//! touches a handful of relaxed atomics and never allocates, so the sink
//! obeys the same "free when off, cheap when on" discipline as
//! [`crate::emit`] itself. The registry holds only the scalars the event
//! vocabulary already exposes — sizes, timings, counts, epochs, aggregate
//! residual norms — so rendering it (see [`MetricsSink::render`]) cannot
//! leak anything the §V threat model protects: shares, masks and model
//! coordinates are unrepresentable upstream of it.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use crate::event::{Event, EventKind, BACKENDS, PHASES};
use crate::sinks::Sink;

/// Number of histogram buckets: one for zero, one per power-of-two
/// magnitude of a `u64` (the last holds `2^63 ..= u64::MAX`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Maps a value to its bucket: 0 for 0, else `64 − leading_zeros(v)`,
/// i.e. bucket `i ≥ 1` holds `2^(i−1) ..= 2^i − 1`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of bucket `i` (the Prometheus `le` label value).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `v`, saturating at `u64::MAX`. A long-lived serve process
    /// must never wrap a counter: Prometheus clients treat a decrease as
    /// a process restart, and a wrapped value renders as a bogus small
    /// number. The CAS loop costs the same one atomic RMW as `fetch_add`
    /// until the counter actually pins.
    #[inline]
    pub fn add(&self, v: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed last-value gauge.
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `v` (may be negative).
    #[inline]
    pub fn add(&self, v: i64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An unsigned last-value gauge (run ids, epochs — values that do not
/// fit a meaningful sign).
#[derive(Default)]
pub struct UintGauge(AtomicU64);

impl UintGauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge for aggregate floating-point diagnostics (stored
/// as raw bits in an `AtomicU64`).
pub struct FloatGauge(AtomicU64);

impl Default for FloatGauge {
    fn default() -> Self {
        FloatGauge(AtomicU64::new(f64::NAN.to_bits()))
    }
}

impl FloatGauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (`NaN` until first set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A log2-bucketed histogram over `u64` observations: fixed 65-slot
/// bucket array, running count and sum, all relaxed atomics — observing
/// is a few `fetch_add`s and never allocates.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (wrapping on overflow, like Prometheus
    /// counters).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Observations landed in bucket `i` (non-cumulative).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Index of the highest non-empty bucket, or `None` when empty.
    fn highest_bucket(&self) -> Option<usize> {
        (0..HISTOGRAM_BUCKETS).rev().find(|&i| self.bucket(i) > 0)
    }
}

/// The fixed field set populated from the [`EventKind`] stream. Every
/// member is named after the Prometheus family it renders as (minus the
/// `ppml_` prefix).
#[derive(Default)]
pub struct MetricsRegistry {
    // ---- wire
    /// Frames put on the wire ([`EventKind::FrameSent`]).
    pub frames_sent_total: Counter,
    /// Well-formed frames received ([`EventKind::FrameRecv`]).
    pub frames_recv_total: Counter,
    /// Undecodable byte runs discarded ([`EventKind::FrameRejected`]).
    pub frames_rejected_total: Counter,
    /// Encoded bytes sent (per-attempt, retransmits included).
    pub bytes_sent_total: Counter,
    /// Encoded bytes received.
    pub bytes_recv_total: Counter,
    /// ARQ retransmissions ([`EventKind::ArqRetransmit`]).
    pub retransmits_total: Counter,
    /// Duplicate deliveries dropped ([`EventKind::DedupDrop`]).
    pub dedup_drops_total: Counter,
    /// Acknowledgements dropped because the peer vanished
    /// ([`EventKind::AckDropped`]).
    pub acks_dropped_total: Counter,
    /// Sends that exhausted their retry budget.
    pub send_timeouts_total: Counter,
    /// Encoded frame sizes, sent and received.
    pub frame_bytes: Histogram,
    /// ARQ retransmission attempt numbers (1-based).
    pub retransmit_attempts: Histogram,
    // ---- protocol rounds
    /// Rounds opened.
    pub rounds_opened_total: Counter,
    /// Rounds closed.
    pub rounds_closed_total: Counter,
    /// Round open→close wall clock.
    pub round_latency_ns: Histogram,
    /// Collection deadlines that expired with shares missing.
    pub deadline_misses_total: Counter,
    /// Learners declared dropped.
    pub dropouts_total: Counter,
    /// Secure-sum re-keys performed.
    pub rekeys_total: Counter,
    /// Re-key epoch currently in force.
    pub rekey_epoch: UintGauge,
    /// Survivor count after the last re-key.
    pub survivors: Gauge,
    /// Highest round number seen (open or close).
    pub last_round: UintGauge,
    // ---- cluster
    /// Map-task attempts.
    pub task_attempts_total: Counter,
    /// Data-local map-task attempts.
    pub local_tasks_total: Counter,
    /// Cluster workers currently up (up minus down).
    pub workers: Gauge,
    /// Framed broadcast bytes charged.
    pub broadcast_bytes_total: Counter,
    /// Framed shuffle bytes charged.
    pub shuffle_bytes_total: Counter,
    // ---- trainer diagnostics (aggregate norms only — see module docs)
    /// ADMM iterations observed.
    pub admm_iterations_total: Counter,
    /// Latest primal residual `Σ_m ‖x_m − z‖²`.
    pub admm_primal_sq: FloatGauge,
    /// Latest dual residual `ρ²·M·‖Δz‖²`.
    pub admm_dual_sq: FloatGauge,
    /// Latest consensus movement `‖Δz‖²`.
    pub admm_z_delta: FloatGauge,
    /// Latest primal objective (NaN when the trainer does not report it).
    pub admm_objective: FloatGauge,
    /// Consensus movement per iteration, in nano-units (`⌊‖Δz‖²·1e9⌋`),
    /// log2-bucketed so residual decay is visible from a scrape alone.
    pub admm_z_delta_nanos: Histogram,
    // ---- phases
    /// Per-phase wall clock, indexed like [`PHASES`].
    pub phase_ns: [Histogram; PHASES.len()],
    // ---- identity & correlation
    /// Events recorded by this registry.
    pub events_total: Counter,
    /// Run id gossiped by the coordinator (0 until known).
    pub run_id: UintGauge,
    /// Protocol party of this process (−1 until set by the host binary).
    pub party: Gauge,
    /// Clock-offset handshakes completed.
    pub clock_syncs_total: Counter,
    /// Last estimated peer clock offset, nanoseconds.
    pub clock_offset_ns: Gauge,
    /// RTT of the winning probe per handshake.
    pub clock_sync_rtt_ns: Histogram,
    // ---- recovery
    /// Durable checkpoints written ([`EventKind::CheckpointWrite`]).
    pub checkpoints_total: Counter,
    /// Encoded size of the last checkpoint on disk.
    pub checkpoint_bytes: UintGauge,
    /// Coordinator resumes from a checkpoint.
    pub resumes_total: Counter,
    /// Learners re-admitted mid-run ([`EventKind::Rejoin`]).
    pub rejoins_total: Counter,
    // ---- serving
    /// Scoring batches answered ([`EventKind::ScoreBatch`]).
    pub score_requests_total: Counter,
    /// Rows scored across all batches.
    pub score_rows_total: Counter,
    /// Scoring batches rejected ([`EventKind::ScoreRejected`]).
    pub score_rejected_total: Counter,
    /// Rows per scoring batch.
    pub score_batch_size: Histogram,
    /// Per-batch scoring wall clock (p50/p99 come from the buckets).
    pub score_latency_ns: Histogram,
    /// Model (re)loads performed ([`EventKind::ModelReload`]).
    pub model_reloads_total: Counter,
    /// Generation of the model currently serving (1 = startup load).
    pub model_generation: UintGauge,
    /// Encoded size of the model currently serving.
    pub model_bytes: UintGauge,
    // ---- connection lifecycle
    /// Connections registered ([`EventKind::ConnOpen`]).
    pub conns_opened_total: Counter,
    /// Connections closed ([`EventKind::ConnClose`]).
    pub conns_closed_total: Counter,
    /// Connections reaped by the idle deadline ([`EventKind::ConnReaped`]).
    pub conns_reaped_total: Counter,
    /// Connections currently registered (opened minus closed/reaped).
    pub conns_open: Gauge,
    // ---- secure aggregation
    /// Aggregation rounds completed per backend (indexed like [`BACKENDS`]).
    pub secagg_rounds_total: [Counter; BACKENDS.len()],
    /// Aggregation bytes moved per backend (indexed like [`BACKENDS`]).
    pub secagg_bytes_total: [Counter; BACKENDS.len()],
    /// Per-round aggregation wall clock per backend (indexed like
    /// [`BACKENDS`]).
    pub secagg_round_ns: [Histogram; BACKENDS.len()],
    // ---- cluster observability (ISSUE 9)
    /// In-band telemetry deltas folded ([`EventKind::TelemetryDelta`]).
    pub telemetry_deltas_total: Counter,
    /// Straggler verdicts emitted ([`EventKind::SlowLearner`]).
    pub slow_learners_total: Counter,
    /// Collect lag of the last flagged straggler.
    pub straggler_lag_ns: Histogram,
    // ---- fault-tolerant scheduling (ISSUE 10)
    /// Workers declared dead mid-job ([`EventKind::WorkerDead`]).
    pub worker_deaths_total: Counter,
    /// Task-attempt straggler verdicts emitted
    /// ([`EventKind::SlowWorker`]).
    pub slow_workers_total: Counter,
    /// Attempt wall clock of flagged slow workers.
    pub task_straggler_lag_ns: Histogram,
}

impl MetricsRegistry {
    /// An empty registry; `party` starts at −1 and float gauges at NaN.
    pub fn new() -> Self {
        let registry = MetricsRegistry::default();
        registry.party.set(-1);
        registry
    }

    fn phase_slot(&self, phase: &str) -> &Histogram {
        let idx = PHASES
            .iter()
            .position(|&p| p == phase)
            .unwrap_or(PHASES.len() - 1);
        &self.phase_ns[idx]
    }

    /// Folds one event into the registry. A fixed number of relaxed
    /// atomic operations; no locks, no allocation.
    pub fn record(&self, event: Event) {
        self.events_total.inc();
        match event.kind {
            EventKind::FrameSent {
                bytes, retransmit, ..
            } => {
                self.frames_sent_total.inc();
                self.bytes_sent_total.add(bytes);
                self.frame_bytes.observe(bytes);
                let _ = retransmit; // per-attempt detail lives in retransmits_total
            }
            EventKind::FrameRecv { bytes, .. } => {
                self.frames_recv_total.inc();
                self.bytes_recv_total.add(bytes);
                self.frame_bytes.observe(bytes);
            }
            EventKind::FrameRejected { .. } => self.frames_rejected_total.inc(),
            EventKind::SendTimeout { .. } => self.send_timeouts_total.inc(),
            EventKind::ArqRetransmit { attempt, .. } => {
                self.retransmits_total.inc();
                self.retransmit_attempts.observe(attempt.into());
            }
            EventKind::DedupDrop { .. } => self.dedup_drops_total.inc(),
            EventKind::AckDropped { .. } => self.acks_dropped_total.inc(),
            EventKind::RoundOpen { iteration, .. } => {
                self.rounds_opened_total.inc();
                self.last_round.set(iteration);
            }
            EventKind::RoundClose {
                iteration,
                elapsed_ns,
                ..
            } => {
                self.rounds_closed_total.inc();
                self.round_latency_ns.observe(elapsed_ns);
                self.last_round.set(iteration);
            }
            EventKind::DeadlineMiss { .. } => self.deadline_misses_total.inc(),
            EventKind::Dropout { .. } => self.dropouts_total.inc(),
            EventKind::RekeyEpoch {
                epoch, survivors, ..
            } => {
                self.rekeys_total.inc();
                self.rekey_epoch.set(epoch);
                self.survivors.set(survivors.into());
            }
            EventKind::TaskAttempt { local, .. } => {
                self.task_attempts_total.inc();
                if local {
                    self.local_tasks_total.inc();
                }
            }
            EventKind::WorkerUp { .. } => self.workers.add(1),
            EventKind::WorkerDown { .. } => self.workers.add(-1),
            EventKind::BroadcastBytes { bytes, .. } => self.broadcast_bytes_total.add(bytes),
            EventKind::ShuffleBytes { bytes, .. } => self.shuffle_bytes_total.add(bytes),
            EventKind::AdmmIteration {
                primal_sq,
                dual_sq,
                z_delta,
                objective,
                ..
            } => {
                self.admm_iterations_total.inc();
                self.admm_primal_sq.set(primal_sq);
                self.admm_dual_sq.set(dual_sq);
                self.admm_z_delta.set(z_delta);
                if let Some(obj) = objective {
                    self.admm_objective.set(obj);
                }
                if z_delta.is_finite() && z_delta >= 0.0 {
                    // Saturating f64→u64; ⌊‖Δz‖²·1e9⌋ keeps sub-unit decay
                    // visible in integer buckets.
                    self.admm_z_delta_nanos.observe((z_delta * 1e9) as u64);
                }
            }
            EventKind::PhaseElapsed { phase, elapsed_ns } => {
                self.phase_slot(phase).observe(elapsed_ns);
            }
            EventKind::RunInfo { run_id } => self.run_id.set(run_id),
            EventKind::ClockSync {
                offset_ns, rtt_ns, ..
            } => {
                self.clock_syncs_total.inc();
                self.clock_offset_ns.set(offset_ns);
                self.clock_sync_rtt_ns.observe(rtt_ns);
            }
            EventKind::CheckpointWrite { bytes, .. } => {
                self.checkpoints_total.inc();
                self.checkpoint_bytes.set(bytes);
            }
            EventKind::ResumeFromCheckpoint {
                epoch, survivors, ..
            } => {
                self.resumes_total.inc();
                self.rekey_epoch.set(epoch);
                self.survivors.set(survivors.into());
            }
            EventKind::Rejoin { .. } => self.rejoins_total.inc(),
            EventKind::ScoreBatch { batch, elapsed_ns } => {
                self.score_requests_total.inc();
                self.score_rows_total.add(batch.into());
                self.score_batch_size.observe(batch.into());
                self.score_latency_ns.observe(elapsed_ns);
            }
            EventKind::ScoreRejected { .. } => self.score_rejected_total.inc(),
            EventKind::ModelReload { generation, bytes } => {
                self.model_reloads_total.inc();
                self.model_generation.set(generation);
                self.model_bytes.set(bytes);
            }
            EventKind::ConnOpen { .. } => {
                self.conns_opened_total.inc();
                self.conns_open.add(1);
            }
            EventKind::ConnClose { .. } => {
                self.conns_closed_total.inc();
                self.conns_open.add(-1);
            }
            EventKind::ConnReaped { .. } => {
                self.conns_reaped_total.inc();
                self.conns_open.add(-1);
            }
            EventKind::SecAggRound {
                backend,
                bytes,
                elapsed_ns,
                ..
            } => {
                let idx = BACKENDS
                    .iter()
                    .position(|&b| b == backend)
                    .unwrap_or(BACKENDS.len() - 1);
                self.secagg_rounds_total[idx].inc();
                self.secagg_bytes_total[idx].add(bytes);
                self.secagg_round_ns[idx].observe(elapsed_ns);
            }
            EventKind::TelemetryDelta { .. } => self.telemetry_deltas_total.inc(),
            EventKind::SlowLearner { lag_ns, .. } => {
                self.slow_learners_total.inc();
                self.straggler_lag_ns.observe(lag_ns);
            }
            EventKind::WorkerDead { .. } => {
                self.worker_deaths_total.inc();
                self.workers.add(-1);
            }
            EventKind::SlowWorker { lag_ns, .. } => {
                self.slow_workers_total.inc();
                self.task_straggler_lag_ns.observe(lag_ns);
            }
        }
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (`text/plain; version=0.0.4`). Renders registry scalars only —
    /// nothing else is reachable from here, which is the privacy
    /// argument for serving this over HTTP (see DESIGN.md §9).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        let c = |out: &mut String, name: &str, v: u64| {
            let _ = writeln!(out, "# TYPE ppml_{name} counter\nppml_{name} {v}");
        };
        let g = |out: &mut String, name: &str, v: i64| {
            let _ = writeln!(out, "# TYPE ppml_{name} gauge\nppml_{name} {v}");
        };
        let gu = |out: &mut String, name: &str, v: u64| {
            let _ = writeln!(out, "# TYPE ppml_{name} gauge\nppml_{name} {v}");
        };
        let gf = |out: &mut String, name: &str, v: f64| {
            let _ = writeln!(out, "# TYPE ppml_{name} gauge\nppml_{name} {v}");
        };
        let h = |out: &mut String, name: &str, labels: &str, hist: &Histogram| {
            let _ = writeln!(out, "# TYPE ppml_{name} histogram");
            let sep = if labels.is_empty() { "" } else { "," };
            let mut cumulative = 0u64;
            if let Some(top) = hist.highest_bucket() {
                for i in 0..=top {
                    cumulative += hist.bucket(i);
                    let le = bucket_upper_bound(i);
                    let _ = writeln!(
                        out,
                        "ppml_{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}"
                    );
                }
            }
            let _ = writeln!(
                out,
                "ppml_{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
                hist.count()
            );
            let _ = writeln!(out, "ppml_{name}_sum{{{labels}}} {}", hist.sum());
            let _ = writeln!(out, "ppml_{name}_count{{{labels}}} {}", hist.count());
        };

        gu(&mut out, "run_id", self.run_id.get());
        g(&mut out, "party", self.party.get());
        c(&mut out, "events_total", self.events_total.get());

        c(&mut out, "frames_sent_total", self.frames_sent_total.get());
        c(&mut out, "frames_recv_total", self.frames_recv_total.get());
        c(
            &mut out,
            "frames_rejected_total",
            self.frames_rejected_total.get(),
        );
        c(&mut out, "bytes_sent_total", self.bytes_sent_total.get());
        c(&mut out, "bytes_recv_total", self.bytes_recv_total.get());
        c(&mut out, "retransmits_total", self.retransmits_total.get());
        c(&mut out, "dedup_drops_total", self.dedup_drops_total.get());
        c(
            &mut out,
            "acks_dropped_total",
            self.acks_dropped_total.get(),
        );
        c(
            &mut out,
            "send_timeouts_total",
            self.send_timeouts_total.get(),
        );
        h(&mut out, "frame_bytes", "", &self.frame_bytes);
        h(
            &mut out,
            "retransmit_attempts",
            "",
            &self.retransmit_attempts,
        );

        c(
            &mut out,
            "rounds_opened_total",
            self.rounds_opened_total.get(),
        );
        c(
            &mut out,
            "rounds_closed_total",
            self.rounds_closed_total.get(),
        );
        h(&mut out, "round_latency_ns", "", &self.round_latency_ns);
        c(
            &mut out,
            "deadline_misses_total",
            self.deadline_misses_total.get(),
        );
        c(&mut out, "dropouts_total", self.dropouts_total.get());
        c(&mut out, "rekeys_total", self.rekeys_total.get());
        gu(&mut out, "rekey_epoch", self.rekey_epoch.get());
        g(&mut out, "survivors", self.survivors.get());
        gu(&mut out, "last_round", self.last_round.get());

        c(
            &mut out,
            "task_attempts_total",
            self.task_attempts_total.get(),
        );
        c(&mut out, "local_tasks_total", self.local_tasks_total.get());
        g(&mut out, "workers", self.workers.get());
        c(
            &mut out,
            "broadcast_bytes_total",
            self.broadcast_bytes_total.get(),
        );
        c(
            &mut out,
            "shuffle_bytes_total",
            self.shuffle_bytes_total.get(),
        );

        c(
            &mut out,
            "admm_iterations_total",
            self.admm_iterations_total.get(),
        );
        gf(&mut out, "admm_primal_sq", self.admm_primal_sq.get());
        gf(&mut out, "admm_dual_sq", self.admm_dual_sq.get());
        gf(&mut out, "admm_z_delta", self.admm_z_delta.get());
        gf(&mut out, "admm_objective", self.admm_objective.get());
        h(&mut out, "admm_z_delta_nanos", "", &self.admm_z_delta_nanos);

        let _ = writeln!(out, "# TYPE ppml_phase_ns histogram");
        for (idx, phase) in PHASES.iter().enumerate() {
            let hist = &self.phase_ns[idx];
            if hist.count() == 0 {
                continue;
            }
            let labels = format!("phase=\"{phase}\"");
            let mut cumulative = 0u64;
            if let Some(top) = hist.highest_bucket() {
                for i in 0..=top {
                    cumulative += hist.bucket(i);
                    let le = bucket_upper_bound(i);
                    let _ = writeln!(
                        out,
                        "ppml_phase_ns_bucket{{{labels},le=\"{le}\"}} {cumulative}"
                    );
                }
            }
            let _ = writeln!(
                out,
                "ppml_phase_ns_bucket{{{labels},le=\"+Inf\"}} {}",
                hist.count()
            );
            let _ = writeln!(out, "ppml_phase_ns_sum{{{labels}}} {}", hist.sum());
            let _ = writeln!(out, "ppml_phase_ns_count{{{labels}}} {}", hist.count());
        }

        c(&mut out, "clock_syncs_total", self.clock_syncs_total.get());
        g(&mut out, "clock_offset_ns", self.clock_offset_ns.get());
        h(&mut out, "clock_sync_rtt_ns", "", &self.clock_sync_rtt_ns);

        c(&mut out, "checkpoints_total", self.checkpoints_total.get());
        gu(&mut out, "checkpoint_bytes", self.checkpoint_bytes.get());
        c(&mut out, "resumes_total", self.resumes_total.get());
        c(&mut out, "rejoins_total", self.rejoins_total.get());

        c(
            &mut out,
            "score_requests_total",
            self.score_requests_total.get(),
        );
        c(&mut out, "score_rows_total", self.score_rows_total.get());
        c(
            &mut out,
            "score_rejected_total",
            self.score_rejected_total.get(),
        );
        h(&mut out, "score_batch_size", "", &self.score_batch_size);
        h(&mut out, "score_latency_ns", "", &self.score_latency_ns);
        c(
            &mut out,
            "model_reloads_total",
            self.model_reloads_total.get(),
        );
        gu(&mut out, "model_generation", self.model_generation.get());
        gu(&mut out, "model_bytes", self.model_bytes.get());

        c(
            &mut out,
            "conns_opened_total",
            self.conns_opened_total.get(),
        );
        c(
            &mut out,
            "conns_closed_total",
            self.conns_closed_total.get(),
        );
        c(
            &mut out,
            "conns_reaped_total",
            self.conns_reaped_total.get(),
        );
        g(&mut out, "conns_open", self.conns_open.get());

        let _ = writeln!(out, "# TYPE ppml_secagg_rounds_total counter");
        let _ = writeln!(out, "# TYPE ppml_secagg_bytes_total counter");
        for (idx, backend) in BACKENDS.iter().enumerate() {
            let rounds = self.secagg_rounds_total[idx].get();
            if rounds == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "ppml_secagg_rounds_total{{backend=\"{backend}\"}} {rounds}"
            );
            let _ = writeln!(
                out,
                "ppml_secagg_bytes_total{{backend=\"{backend}\"}} {}",
                self.secagg_bytes_total[idx].get()
            );
        }
        let _ = writeln!(out, "# TYPE ppml_secagg_round_ns histogram");
        for (idx, backend) in BACKENDS.iter().enumerate() {
            let hist = &self.secagg_round_ns[idx];
            if hist.count() == 0 {
                continue;
            }
            let labels = format!("backend=\"{backend}\"");
            let mut cumulative = 0u64;
            if let Some(top) = hist.highest_bucket() {
                for i in 0..=top {
                    cumulative += hist.bucket(i);
                    let le = bucket_upper_bound(i);
                    let _ = writeln!(
                        out,
                        "ppml_secagg_round_ns_bucket{{{labels},le=\"{le}\"}} {cumulative}"
                    );
                }
            }
            let _ = writeln!(
                out,
                "ppml_secagg_round_ns_bucket{{{labels},le=\"+Inf\"}} {}",
                hist.count()
            );
            let _ = writeln!(out, "ppml_secagg_round_ns_sum{{{labels}}} {}", hist.sum());
            let _ = writeln!(
                out,
                "ppml_secagg_round_ns_count{{{labels}}} {}",
                hist.count()
            );
        }

        c(
            &mut out,
            "telemetry_deltas_total",
            self.telemetry_deltas_total.get(),
        );
        c(
            &mut out,
            "slow_learners_total",
            self.slow_learners_total.get(),
        );
        h(&mut out, "straggler_lag_ns", "", &self.straggler_lag_ns);

        c(
            &mut out,
            "worker_deaths_total",
            self.worker_deaths_total.get(),
        );
        c(
            &mut out,
            "slow_workers_total",
            self.slow_workers_total.get(),
        );
        h(
            &mut out,
            "task_straggler_lag_ns",
            "",
            &self.task_straggler_lag_ns,
        );

        out
    }
}

/// A [`Sink`] folding every event into a shared [`MetricsRegistry`] —
/// install it (alone or in a fanout) and hand the same `Arc` to the
/// exposition server.
pub struct MetricsSink {
    registry: Arc<MetricsRegistry>,
}

impl MetricsSink {
    /// A sink over a fresh registry.
    pub fn new() -> Arc<Self> {
        MetricsSink::with_registry(Arc::new(MetricsRegistry::new()))
    }

    /// A sink over an existing registry (to share with a server).
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> Arc<Self> {
        Arc::new(MetricsSink { registry })
    }

    /// The registry this sink populates.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Renders the registry — see [`MetricsRegistry::render`].
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

impl Sink for MetricsSink {
    fn record(&self, event: Event) {
        self.registry.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_PARTY;

    fn event(kind: EventKind) -> Event {
        Event {
            t_ns: 1,
            party: 0,
            kind,
        }
    }

    #[test]
    fn bucket_boundaries_at_zero_powers_of_two_and_max() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        // Each power of two opens a new bucket; its predecessor closes one.
        for k in 1..64 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), k + 1, "2^{k}");
            assert_eq!(bucket_index(v - 1), k, "2^{k} - 1");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Consistency: every value is ≤ its bucket's upper bound and >
        // the previous bucket's.
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX - 1, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "{v}");
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "{v}");
            }
        }
    }

    #[test]
    fn counter_add_saturates_instead_of_wrapping() {
        let c = Counter::default();
        c.add(u64::MAX - 1);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        // One past the top must pin, not wrap to 0 (a wrapped counter
        // reads as a restart to Prometheus clients).
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_exposition_le_buckets_are_monotonic() {
        let reg = MetricsRegistry::new();
        // Spread observations across several buckets including the edges.
        for v in [0u64, 1, 2, 127, 128, 1023, u64::MAX] {
            reg.frame_bytes.observe(v);
        }
        let text = reg.render();
        let mut last_le = -1i128;
        let mut last_cum = 0u64;
        let mut lines = 0;
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("ppml_frame_bytes_bucket{le=\"") else {
                continue;
            };
            lines += 1;
            let (le_str, cum_str) = rest.split_once("\"} ").expect("bucket line shape");
            let cum: u64 = cum_str.parse().expect("cumulative count");
            let le: i128 = if le_str == "+Inf" {
                i128::MAX
            } else {
                le_str.parse().expect("le bound")
            };
            assert!(le > last_le, "le not increasing: {line}");
            assert!(cum >= last_cum, "cumulative count decreased: {line}");
            last_le = le;
            last_cum = cum;
        }
        assert!(lines >= 4, "expected several bucket lines:\n{text}");
        assert_eq!(last_cum, 7, "+Inf bucket must equal the total count");
        // The exact-edge observations land under their documented bounds.
        assert!(
            text.contains("ppml_frame_bytes_bucket{le=\"0\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ppml_frame_bytes_bucket{le=\"1\"} 2"),
            "{text}"
        );
        assert!(
            text.contains(&format!("ppml_frame_bytes_bucket{{le=\"{}\"}} 7", u64::MAX)),
            "{text}"
        );
    }

    #[test]
    fn registry_folds_cluster_observability_events() {
        let reg = MetricsRegistry::new();
        reg.record(event(EventKind::TelemetryDelta {
            from: 2,
            iteration: 5,
            span: 99,
            frames: 4,
            bytes: 2_048,
            elapsed_ns: 1_000_000,
        }));
        reg.record(event(EventKind::SlowLearner {
            party: 3,
            iteration: 5,
            lag_ns: 8_000_000,
            median_ns: 2_000_000,
            score: 4.0,
        }));
        assert_eq!(reg.telemetry_deltas_total.get(), 1);
        assert_eq!(reg.slow_learners_total.get(), 1);
        assert_eq!(reg.straggler_lag_ns.count(), 1);
        let text = reg.render();
        assert!(text.contains("ppml_telemetry_deltas_total 1"), "{text}");
        assert!(text.contains("ppml_slow_learners_total 1"), "{text}");
    }

    #[test]
    fn histogram_counts_land_in_expected_buckets() {
        let hist = Histogram::default();
        for v in [0u64, 1, 2, 3, 8, u64::MAX] {
            hist.observe(v);
        }
        assert_eq!(hist.count(), 6);
        assert_eq!(
            hist.sum(),
            0u64.wrapping_add(1 + 2 + 3 + 8).wrapping_add(u64::MAX)
        );
        assert_eq!(hist.bucket(0), 1); // 0
        assert_eq!(hist.bucket(1), 1); // 1
        assert_eq!(hist.bucket(2), 2); // 2, 3
        assert_eq!(hist.bucket(4), 1); // 8
        assert_eq!(hist.bucket(64), 1); // u64::MAX
        assert_eq!(hist.highest_bucket(), Some(64));
    }

    #[test]
    fn registry_folds_the_event_stream() {
        let reg = MetricsRegistry::new();
        reg.record(event(EventKind::FrameSent {
            to: 1,
            bytes: 100,
            retransmit: false,
        }));
        reg.record(event(EventKind::FrameRecv { from: 1, bytes: 50 }));
        reg.record(event(EventKind::RoundOpen {
            iteration: 0,
            epoch: 0,
        }));
        reg.record(event(EventKind::RoundClose {
            iteration: 0,
            epoch: 0,
            shares: 3,
            elapsed_ns: 5_000,
        }));
        reg.record(event(EventKind::ArqRetransmit {
            to: 2,
            seq: 9,
            attempt: 3,
        }));
        reg.record(event(EventKind::RekeyEpoch {
            iteration: 1,
            epoch: 1,
            survivors: 2,
        }));
        reg.record(event(EventKind::RunInfo { run_id: 77 }));
        reg.record(event(EventKind::ClockSync {
            peer: 1,
            offset_ns: -40,
            rtt_ns: 80,
        }));
        assert_eq!(reg.frames_sent_total.get(), 1);
        assert_eq!(reg.frames_recv_total.get(), 1);
        assert_eq!(reg.bytes_sent_total.get(), 100);
        assert_eq!(reg.bytes_recv_total.get(), 50);
        assert_eq!(reg.frame_bytes.count(), 2);
        assert_eq!(reg.rounds_opened_total.get(), 1);
        assert_eq!(reg.rounds_closed_total.get(), 1);
        assert_eq!(reg.round_latency_ns.count(), 1);
        assert_eq!(reg.retransmits_total.get(), 1);
        assert_eq!(reg.retransmit_attempts.bucket(bucket_index(3)), 1);
        assert_eq!(reg.rekey_epoch.get(), 1);
        assert_eq!(reg.survivors.get(), 2);
        assert_eq!(reg.run_id.get(), 77);
        assert_eq!(reg.clock_offset_ns.get(), -40);
        assert_eq!(reg.events_total.get(), 8);
    }

    #[test]
    fn render_is_prometheus_shaped() {
        let reg = MetricsRegistry::new();
        reg.party.set(3);
        reg.record(event(EventKind::FrameSent {
            to: 1,
            bytes: 100,
            retransmit: false,
        }));
        reg.record(event(EventKind::PhaseElapsed {
            phase: "collect",
            elapsed_ns: 1_000,
        }));
        let text = reg.render();
        assert!(
            text.contains("# TYPE ppml_frames_sent_total counter"),
            "{text}"
        );
        assert!(text.contains("ppml_frames_sent_total 1"), "{text}");
        assert!(text.contains("ppml_party 3"), "{text}");
        // 100 lands in bucket 7 (le 127); the cumulative line must exist.
        assert!(
            text.contains("ppml_frame_bytes_bucket{le=\"127\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ppml_frame_bytes_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("ppml_frame_bytes_sum{} 100"), "{text}");
        assert!(
            text.contains("ppml_phase_ns_bucket{phase=\"collect\",le=\"+Inf\"} 1"),
            "{text}"
        );
        // Empty phases are not rendered.
        assert!(!text.contains("phase=\"map\""), "{text}");
        // Every line is either a comment or `name{...} value` / `name value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# TYPE ppml_") || line.starts_with("ppml_"),
                "odd line: {line}"
            );
        }
    }

    #[test]
    fn registry_folds_serving_events() {
        let reg = MetricsRegistry::new();
        reg.record(event(EventKind::ModelReload {
            generation: 1,
            bytes: 512,
        }));
        reg.record(event(EventKind::ScoreBatch {
            batch: 16,
            elapsed_ns: 9_000,
        }));
        reg.record(event(EventKind::ScoreBatch {
            batch: 1,
            elapsed_ns: 700,
        }));
        reg.record(event(EventKind::ScoreRejected { batch: 3 }));
        reg.record(event(EventKind::ModelReload {
            generation: 2,
            bytes: 640,
        }));
        assert_eq!(reg.score_requests_total.get(), 2);
        assert_eq!(reg.score_rows_total.get(), 17);
        assert_eq!(reg.score_rejected_total.get(), 1);
        assert_eq!(reg.score_batch_size.count(), 2);
        assert_eq!(reg.score_batch_size.bucket(bucket_index(16)), 1);
        assert_eq!(reg.score_latency_ns.sum(), 9_700);
        assert_eq!(reg.model_reloads_total.get(), 2);
        assert_eq!(reg.model_generation.get(), 2);
        assert_eq!(reg.model_bytes.get(), 640);
        let text = reg.render();
        assert!(text.contains("ppml_score_requests_total 2"), "{text}");
        assert!(text.contains("ppml_model_reloads_total 2"), "{text}");
        assert!(text.contains("ppml_score_latency_ns_count{} 2"), "{text}");
    }

    #[test]
    fn unknown_phase_labels_fold_into_other() {
        let reg = MetricsRegistry::new();
        reg.record(Event {
            t_ns: 0,
            party: NO_PARTY,
            kind: EventKind::PhaseElapsed {
                phase: "never-registered",
                elapsed_ns: 10,
            },
        });
        assert_eq!(reg.phase_slot("other").count(), 1);
    }

    #[test]
    fn metrics_sink_shares_its_registry() {
        let sink = MetricsSink::new();
        let registry = sink.registry().clone();
        sink.record(event(EventKind::Dropout {
            party: 1,
            iteration: 4,
        }));
        assert_eq!(registry.dropouts_total.get(), 1);
        assert!(sink.render().contains("ppml_dropouts_total 1"));
    }
}
