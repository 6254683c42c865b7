//! Structured events and span timings for the distributed ADMM stack
//! (ISSUE 3 tentpole).
//!
//! The paper's experiments (§VI) are all *per-iteration* claims — ADMM
//! residual decay, communication volume, iteration wall clock — but a
//! distributed run is opaque once it leaves one address space. This crate
//! is the observability layer: every interesting moment (a frame on the
//! wire, a retransmission, a round deadline, a dropout verdict, a re-key
//! epoch, an ADMM step) becomes a typed [`Event`] delivered to whatever
//! [`Sink`] the process installed.
//!
//! # Design rules
//!
//! * **Free when off.** The instrumented hot paths call [`emit`], which
//!   is one relaxed atomic load when no sink is installed — no lock, no
//!   allocation, no timestamp. Installing a sink is what turns the
//!   machinery on.
//! * **Privacy by type.** [`Event`] is `Copy` and holds scalars only:
//!   sizes, timings, counts, epochs, party ids, aggregate norms. Raw
//!   shares, masks and model coordinates are *unrepresentable* — a `Vec`
//!   field would break the `Copy` bound — so instrumentation cannot leak
//!   what the §V threat model protects, by construction rather than by
//!   review. See [`event`] for the full argument.
//! * **Std only.** Matching the workspace's `--offline` constraint: no
//!   external crates, JSONL encoding and parsing are hand-rolled.
//!
//! # Sinks
//!
//! * [`RingSink`] — bounded in-memory ring, queryable from tests;
//! * [`JsonlSink`] — one JSON object per line, machine-parseable with
//!   [`Event::from_json`] (the `--telemetry <path>` flag of the
//!   coordinator/learner binaries writes this);
//! * [`SummarySink`] — O(1) accumulators rendering an end-of-run human
//!   summary (per-phase wall clock, byte totals, retransmit rate,
//!   dropout timeline);
//! * [`FanoutSink`] — duplicates events to several sinks.
//!
//! # Example
//!
//! ```
//! use ppml_telemetry as telemetry;
//! use telemetry::{EventKind, RingSink};
//!
//! let ring = RingSink::new(64);
//! telemetry::install(ring.clone());
//! telemetry::emit(0, EventKind::RoundOpen { iteration: 0, epoch: 0 });
//! telemetry::uninstall();
//! assert_eq!(ring.snapshot().len(), 1);
//! // With no sink installed, emit is a no-op costing one atomic load.
//! telemetry::emit(0, EventKind::RoundOpen { iteration: 1, epoch: 0 });
//! assert_eq!(ring.recorded(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod cluster;
pub mod event;
pub mod http;
pub mod metrics;
pub mod sinks;

pub use cluster::{mix64, ClusterDelta, ClusterRegistry, StragglerVerdict};
pub use event::{Event, EventKind, ParseError, BACKENDS, NO_PARTY, PHASES};
pub use http::{metrics_router, request, scrape, HttpServer, Listener, Request, Response, Router};
pub use metrics::{MetricsRegistry, MetricsSink};
pub use sinks::{FanoutSink, JsonlSink, RingSink, Sink, SummarySink};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Fast-path gate: true while a sink is installed. Relaxed is enough —
/// an emitter racing an install/uninstall may miss or catch the
/// boundary event, which is inherent to toggling telemetry at runtime.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed sink. Only touched when [`ENABLED`] says so, or by
/// [`install`]/[`uninstall`] themselves.
static SINK: Mutex<Option<Arc<dyn Sink>>> = Mutex::new(None);

/// Process-local monotonic epoch; first call to [`now_ns`] pins it.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Whether a sink is installed. Instrumented code may use this to skip
/// *computing* event fields (e.g. an objective evaluation) — [`emit`]
/// already checks it internally.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Monotonic nanoseconds since the process telemetry epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Mints a run identifier for [`EventKind::RunInfo`]: wall clock ⊕ pid,
/// finalized through SplitMix64 so distinct runs collide with
/// negligible probability. Never returns 0 (0 means "unknown" in the
/// metrics registry).
pub fn fresh_run_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x9E37_79B9_7F4A_7C15);
    let mut z = nanos ^ (u64::from(std::process::id()) << 32);
    // SplitMix64 finalization round.
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z.max(1)
}

/// Records an event if a sink is installed; otherwise a single relaxed
/// atomic load and return — no allocation, no lock, no clock read.
#[inline]
pub fn emit(party: u32, kind: EventKind) {
    if enabled() {
        emit_enabled(party, kind);
    }
}

#[cold]
fn emit_enabled(party: u32, kind: EventKind) {
    let event = Event {
        t_ns: now_ns(),
        party,
        kind,
    };
    let sink = SINK.lock().expect("telemetry sink registry").clone();
    if let Some(sink) = sink {
        sink.record(event);
    }
}

/// Installs `sink` as the process-wide event destination and enables
/// the instrumented paths. Replaces any previously installed sink.
pub fn install(sink: Arc<dyn Sink>) {
    *SINK.lock().expect("telemetry sink registry") = Some(sink);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables telemetry, flushes any buffering sink, and returns the sink
/// that was installed so the caller can render it.
pub fn uninstall() -> Option<Arc<dyn Sink>> {
    ENABLED.store(false, Ordering::SeqCst);
    let sink = SINK.lock().expect("telemetry sink registry").take();
    if let Some(sink) = &sink {
        sink.flush();
    }
    sink
}

/// A scoped phase timer: captures the clock at [`Span::begin`] when
/// telemetry is enabled and emits [`EventKind::PhaseElapsed`] when
/// dropped. When telemetry is disabled at `begin` the span holds
/// nothing and drops for free.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    party: u32,
    phase: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Starts timing `phase` for `party` (use [`NO_PARTY`] off-protocol).
    pub fn begin(party: u32, phase: &'static str) -> Self {
        Span {
            party,
            phase,
            start: enabled().then(Instant::now),
        }
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            emit(
                self.party,
                EventKind::PhaseElapsed {
                    phase: self.phase,
                    elapsed_ns: start.elapsed().as_nanos() as u64,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The collector is process-global; tests that install sinks take
    /// this lock so they cannot observe each other's events.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn emit_reaches_installed_sink_and_stops_after_uninstall() {
        let _guard = SERIAL.lock().expect("serial");
        let ring = RingSink::new(16);
        install(ring.clone());
        emit(3, EventKind::WorkerUp { node: 3 });
        assert!(enabled());
        let taken = uninstall().expect("a sink was installed");
        emit(3, EventKind::WorkerDown { node: 3 });
        assert!(!enabled());
        assert_eq!(ring.recorded(), 1);
        assert_eq!(ring.snapshot()[0].kind, EventKind::WorkerUp { node: 3 },);
        // The returned handle is the same sink.
        taken.record(Event {
            t_ns: 0,
            party: 0,
            kind: EventKind::WorkerDown { node: 3 },
        });
        assert_eq!(ring.recorded(), 2);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn span_emits_elapsed_on_drop() {
        let _guard = SERIAL.lock().expect("serial");
        let ring = RingSink::new(16);
        install(ring.clone());
        {
            let _span = Span::begin(7, "collect");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        uninstall();
        let events = ring.snapshot();
        assert_eq!(events.len(), 1);
        match events[0].kind {
            EventKind::PhaseElapsed { phase, elapsed_ns } => {
                assert_eq!(phase, "collect");
                assert!(elapsed_ns >= 1_000_000, "{elapsed_ns}");
            }
            other => panic!("wrong kind {other:?}"),
        }
        assert_eq!(events[0].party, 7);
    }

    #[test]
    fn span_started_while_disabled_emits_nothing() {
        let _guard = SERIAL.lock().expect("serial");
        uninstall();
        let span = Span::begin(0, "train");
        let ring = RingSink::new(4);
        install(ring.clone());
        drop(span); // began disabled → stays silent even though enabled now
        uninstall();
        assert_eq!(ring.recorded(), 0);
    }
}
