//! In-band cluster observability: the learner-side telemetry relay and
//! the coordinator-side fold/score helpers (ISSUE 9 tentpole).
//!
//! Learners piggy-back one [`Message::Telemetry`] frame per round on the
//! existing round boundary — counter *deltas* from [`LinkStats`] plus
//! the round's local wall clock, stamped with a causal span id
//! (`mix64(run_id ^ iteration)`, the same id every party derives
//! independently). The coordinator folds the deltas into
//! [`ClusterRegistry::global`] (served as `GET /cluster`), records each
//! share's collect lag as it lands, and scores the round against its
//! median lag when it closes, emitting [`EventKind::SlowLearner`] for
//! flagged stragglers.
//!
//! Same discipline as the clock-sync probes: everything here is gated on
//! [`telemetry::enabled`], rides unreliable sends (zero extra
//! round-trips, no ARQ state), is never charged to `JobMetrics` byte
//! accounting, and never alters protocol state — so an instrumented run
//! stays bit-identical to an uninstrumented one.
//!
//! [`LinkStats`]: ppml_transport::LinkStats

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ppml_telemetry as telemetry;
use ppml_transport::{Courier, Message, PartyId, Transport};
use telemetry::{mix64, ClusterDelta, ClusterRegistry, EventKind};

/// Process-wide injected per-round lag (fault injection for straggler
/// drills), in nanoseconds. Zero — the default — is free: one relaxed
/// load per round.
static INJECTED_LAG_NS: AtomicU64 = AtomicU64::new(0);

/// Arms straggler fault injection: every learner round in this process
/// sleeps `lag` before its local step (`ppml-learner --lag-ms`). The
/// protocol is untouched — the learner is just late, which is exactly
/// what the coordinator's straggler scorer exists to catch.
pub fn set_injected_lag(lag: Duration) {
    INJECTED_LAG_NS.store(lag.as_nanos() as u64, Ordering::Relaxed);
}

/// Sleeps out the armed injected lag, if any. Called by each learner
/// backend at round open.
pub(crate) fn injected_lag_sleep() {
    let ns = INJECTED_LAG_NS.load(Ordering::Relaxed);
    if ns > 0 {
        std::thread::sleep(Duration::from_nanos(ns));
    }
}

/// Learner-side relay state: the [`LinkStats`] snapshot at the last
/// report, so each [`Message::Telemetry`] frame carries deltas, not
/// lifetime totals (folding stays correct across coordinator resumes).
///
/// [`LinkStats`]: ppml_transport::LinkStats
pub(crate) struct TelemetryRelay {
    run_id: u64,
    frames_sent: u64,
    frames_recv: u64,
    bytes_sent: u64,
    bytes_recv: u64,
    retries: u64,
}

impl TelemetryRelay {
    pub(crate) fn new() -> Self {
        TelemetryRelay {
            run_id: 0,
            frames_sent: 0,
            frames_recv: 0,
            bytes_sent: 0,
            bytes_recv: 0,
            retries: 0,
        }
    }

    /// Remembers the run id gossiped by the coordinator's clock probes
    /// (first one wins); span ids stay 0-anchored until it arrives.
    pub(crate) fn set_run_id(&mut self, run_id: u64) {
        if self.run_id == 0 {
            self.run_id = run_id;
        }
    }

    /// Ships one delta frame for `iteration` to the coordinator,
    /// piggy-backed right behind the round's share. A no-op with
    /// telemetry disabled — not a byte leaves the process. Send failures
    /// are swallowed: observability must never take a learner down.
    pub(crate) fn report<T: Transport>(
        &mut self,
        courier: &mut Courier<T>,
        coordinator: PartyId,
        iteration: u64,
        epoch: u64,
        elapsed_ns: u64,
    ) {
        if !telemetry::enabled() {
            return;
        }
        let stats = courier.transport().stats();
        let msg = Message::Telemetry {
            iteration,
            span: mix64(self.run_id ^ iteration),
            party: courier.party(),
            epoch,
            frames_sent: stats.frames_sent.saturating_sub(self.frames_sent),
            frames_recv: stats.frames_received.saturating_sub(self.frames_recv),
            bytes_sent: stats.bytes_sent.saturating_sub(self.bytes_sent),
            bytes_recv: stats.bytes_received.saturating_sub(self.bytes_recv),
            retransmits: stats.retries.saturating_sub(self.retries),
            elapsed_ns,
        };
        self.frames_sent = stats.frames_sent;
        self.frames_recv = stats.frames_received;
        self.bytes_sent = stats.bytes_sent;
        self.bytes_recv = stats.bytes_received;
        self.retries = stats.retries;
        let _ = courier.send_unreliable(coordinator, &msg);
    }
}

/// Coordinator side: folds one [`Message::Telemetry`] frame into the
/// global [`ClusterRegistry`] and records the arrival as an
/// [`EventKind::TelemetryDelta`]. Frames of any other kind are ignored.
pub(crate) fn fold_telemetry(coordinator: u32, msg: &Message) {
    let Message::Telemetry {
        iteration,
        span,
        party,
        epoch,
        frames_sent,
        frames_recv,
        bytes_sent,
        bytes_recv,
        retransmits,
        elapsed_ns,
    } = *msg
    else {
        return;
    };
    ClusterRegistry::global().fold(
        party,
        &ClusterDelta {
            iteration,
            span,
            epoch,
            frames_sent,
            frames_recv,
            bytes_sent,
            bytes_recv,
            retransmits,
            elapsed_ns,
        },
    );
    telemetry::emit(
        coordinator,
        EventKind::TelemetryDelta {
            from: party,
            iteration,
            span,
            frames: frames_sent,
            bytes: bytes_sent,
            elapsed_ns,
        },
    );
}

/// Coordinator side: records `party`'s collect lag for `iteration`
/// (round open → share accepted) for the straggler scorer.
pub(crate) fn observe_share_lag(party: u32, iteration: u64, lag_ns: u64) {
    if telemetry::enabled() {
        ClusterRegistry::global().observe_lag(party, iteration, lag_ns);
    }
}

/// Coordinator side, at round close: scores every recorded lag against
/// the round median and emits [`EventKind::SlowLearner`] for each
/// flagged straggler (see [`telemetry::cluster::SLOW_SCORE_THRESHOLD`]).
pub(crate) fn score_round(coordinator: u32, iteration: u64) {
    if !telemetry::enabled() {
        return;
    }
    for verdict in ClusterRegistry::global().score_round(iteration) {
        if verdict.is_slow() {
            telemetry::emit(
                coordinator,
                EventKind::SlowLearner {
                    party: verdict.party,
                    iteration: verdict.iteration,
                    lag_ns: verdict.lag_ns,
                    median_ns: verdict.median_ns,
                    score: verdict.score,
                },
            );
        }
    }
}
