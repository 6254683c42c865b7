//! Event sinks: the in-memory ring, the JSONL writer, the end-of-run
//! summary, and a fan-out combinator.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::event::{Event, EventKind};

/// Where emitted events go. Implementations must tolerate concurrent
/// `record` calls from many threads.
pub trait Sink: Send + Sync {
    /// Accepts one event. Must not panic and must not call back into
    /// [`crate::emit`].
    fn record(&self, event: Event);

    /// Pushes any buffered events to durable storage. Called by
    /// [`crate::uninstall`] before the host renders its summary; sinks
    /// that write eagerly need not override the default no-op.
    fn flush(&self) {}
}

// ---------------------------------------------------------------- ring

struct RingState {
    events: VecDeque<Event>,
    recorded: u64,
}

/// A bounded in-memory ring of the most recent events — the sink tests
/// query. When full, the oldest event is evicted; [`RingSink::recorded`]
/// still counts everything ever seen.
pub struct RingSink {
    capacity: usize,
    state: Mutex<RingState>,
}

impl RingSink {
    /// A ring holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(RingSink {
            capacity: capacity.max(1),
            state: Mutex::new(RingState {
                events: VecDeque::new(),
                recorded: 0,
            }),
        })
    }

    /// Copies out the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.state
            .lock()
            .expect("ring lock")
            .events
            .iter()
            .copied()
            .collect()
    }

    /// Total events recorded, including any the ring has since evicted.
    pub fn recorded(&self) -> u64 {
        self.state.lock().expect("ring lock").recorded
    }
}

impl Sink for RingSink {
    fn record(&self, event: Event) {
        let mut state = self.state.lock().expect("ring lock");
        if state.events.len() == self.capacity {
            state.events.pop_front();
        }
        state.events.push_back(event);
        state.recorded += 1;
    }
}

// --------------------------------------------------------------- jsonl

/// Appends one [`Event::to_json`] line per event to a file, buffered
/// behind a [`BufWriter`] — high-rate wire events cost a memcpy, not a
/// syscall each. Durability comes from explicit flush points rather
/// than per-line writes: the buffer drains on [`Sink::flush`] (which
/// [`crate::uninstall`] calls), on drop, and immediately after any
/// *barrier* event — round closes, checkpoints, dropouts, re-keys,
/// resumes, rejoins, deadline misses, straggler verdicts — so a process
/// killed mid-run (the chaos drills SIGKILL on purpose) still leaves a
/// parseable prefix that includes every protocol milestone it reached.
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

/// Events whose presence on disk the chaos drills and `ppml-trace`
/// depend on: buffered lines are flushed as soon as one is recorded.
fn is_barrier(kind: &EventKind) -> bool {
    matches!(
        kind,
        EventKind::RoundClose { .. }
            | EventKind::DeadlineMiss { .. }
            | EventKind::Dropout { .. }
            | EventKind::RekeyEpoch { .. }
            | EventKind::CheckpointWrite { .. }
            | EventKind::ResumeFromCheckpoint { .. }
            | EventKind::Rejoin { .. }
            | EventKind::SlowLearner { .. }
            | EventKind::WorkerDead { .. }
            | EventKind::SlowWorker { .. }
    )
}

impl JsonlSink {
    /// Creates (truncating) the JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from creating the file.
    pub fn create(path: &Path) -> std::io::Result<Arc<Self>> {
        Ok(Arc::new(JsonlSink {
            writer: Mutex::new(BufWriter::new(File::create(path)?)),
        }))
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: Event) {
        let mut line = event.to_json();
        line.push('\n');
        let mut writer = self.writer.lock().expect("jsonl lock");
        // A full disk must not take the training run down with it.
        let _ = writer.write_all(line.as_bytes());
        if is_barrier(&event.kind) {
            let _ = writer.flush();
        }
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl lock").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(writer) = self.writer.get_mut() {
            let _ = writer.flush();
        }
    }
}

// ------------------------------------------------------------- summary

#[derive(Default)]
struct Totals {
    events: u64,
    first_t_ns: Option<u64>,
    last_t_ns: u64,
    frames_sent: u64,
    bytes_sent: u64,
    retransmit_frames: u64,
    frames_recv: u64,
    bytes_recv: u64,
    rejected: u64,
    arq_retransmits: u64,
    dedup_drops: u64,
    send_timeouts: u64,
    rounds_closed: u64,
    deadline_misses: u64,
    broadcast_bytes: u64,
    shuffle_bytes: u64,
    task_attempts: u64,
    local_tasks: u64,
    admm_iterations: u64,
    last_z_delta: Option<f64>,
    score_batches: u64,
    score_rows: u64,
    score_ns: u64,
    score_rejected: u64,
    model_reloads: u64,
    conns_opened: u64,
    conns_closed: u64,
    conns_reaped: u64,
    /// `(t_ns, party, iteration)` per dropout declaration.
    dropouts: Vec<(u64, u32, u64)>,
    /// `(t_ns, epoch, survivors)` per re-key.
    rekeys: Vec<(u64, u64, u32)>,
    checkpoints: u64,
    /// `(t_ns, iteration)` per coordinator resume.
    resumes: Vec<(u64, u64)>,
    /// `(t_ns, party, iteration)` per learner re-admission.
    rejoins: Vec<(u64, u32, u64)>,
    /// label → (count, total ns).
    phases: BTreeMap<&'static str, (u64, u64)>,
    /// backend label → (rounds, bytes, total ns).
    secagg: BTreeMap<&'static str, (u64, u64, u64)>,
    telemetry_deltas: u64,
    /// `(t_ns, party, iteration, score)` per straggler verdict.
    slow_learners: Vec<(u64, u32, u64, f64)>,
    /// `(t_ns, node, inflight)` per worker death.
    worker_deaths: Vec<(u64, u32, u32)>,
    slow_workers: u64,
}

/// O(1)-per-event accumulators rendering an end-of-run human summary:
/// per-phase wall clock, byte totals, retransmit rate and the dropout
/// timeline. Exact regardless of event volume — nothing is sampled or
/// evicted (the dropout/re-key timelines grow, but only by a handful of
/// entries per lost learner).
#[derive(Default)]
pub struct SummarySink {
    totals: Mutex<Totals>,
}

impl SummarySink {
    /// An empty summary.
    pub fn new() -> Arc<Self> {
        Arc::new(SummarySink::default())
    }

    /// Renders the accumulated totals as human-readable text.
    pub fn render(&self) -> String {
        let t = self.totals.lock().expect("summary lock");
        let span_s = t
            .first_t_ns
            .map(|first| (t.last_t_ns.saturating_sub(first)) as f64 / 1e9)
            .unwrap_or(0.0);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "telemetry summary: {} events over {span_s:.3}s",
            t.events
        );
        if t.frames_sent + t.frames_recv + t.rejected > 0 {
            let rate = if t.frames_sent > 0 {
                100.0 * t.retransmit_frames as f64 / t.frames_sent as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  wire: {} frames out ({} B, {:.1}% retransmit), {} frames in ({} B), \
                 {} rejected",
                t.frames_sent, t.bytes_sent, rate, t.frames_recv, t.bytes_recv, t.rejected
            );
        }
        if t.arq_retransmits + t.dedup_drops + t.send_timeouts > 0 {
            let _ = writeln!(
                out,
                "  arq: {} retransmits, {} duplicates dropped, {} send timeouts",
                t.arq_retransmits, t.dedup_drops, t.send_timeouts
            );
        }
        if t.rounds_closed + t.deadline_misses > 0 {
            let _ = writeln!(
                out,
                "  rounds: {} closed, {} deadline misses",
                t.rounds_closed, t.deadline_misses
            );
        }
        if t.broadcast_bytes + t.shuffle_bytes > 0 {
            let _ = writeln!(
                out,
                "  cluster bytes: {} broadcast, {} shuffled",
                t.broadcast_bytes, t.shuffle_bytes
            );
        }
        if t.task_attempts > 0 {
            let _ = writeln!(
                out,
                "  tasks: {} attempts, {} data-local",
                t.task_attempts, t.local_tasks
            );
        }
        if t.slow_workers > 0 {
            let _ = writeln!(out, "  slow-worker verdicts: {}", t.slow_workers);
        }
        for &(t_ns, node, inflight) in &t.worker_deaths {
            let rel = t.first_t_ns.map_or(0, |f| t_ns.saturating_sub(f));
            let _ = writeln!(
                out,
                "  worker dead: node {node} with {inflight} in flight (+{:.3}s)",
                rel as f64 / 1e9
            );
        }
        if t.admm_iterations > 0 {
            let _ = writeln!(
                out,
                "  admm: {} iterations, final |dz|^2 = {:.3e}",
                t.admm_iterations,
                t.last_z_delta.unwrap_or(0.0)
            );
        }
        for &(t_ns, party, iteration) in &t.dropouts {
            let rel = t.first_t_ns.map_or(0, |f| t_ns.saturating_sub(f));
            let _ = writeln!(
                out,
                "  dropout: party {party} at round {iteration} (+{:.3}s)",
                rel as f64 / 1e9
            );
        }
        for &(t_ns, epoch, survivors) in &t.rekeys {
            let rel = t.first_t_ns.map_or(0, |f| t_ns.saturating_sub(f));
            let _ = writeln!(
                out,
                "  re-key: epoch {epoch}, {survivors} survivors (+{:.3}s)",
                rel as f64 / 1e9
            );
        }
        if t.checkpoints > 0 {
            let _ = writeln!(out, "  checkpoints: {} written", t.checkpoints);
        }
        if t.conns_opened + t.conns_closed + t.conns_reaped > 0 {
            let _ = writeln!(
                out,
                "  conns: {} opened, {} closed, {} idle-reaped",
                t.conns_opened, t.conns_closed, t.conns_reaped
            );
        }
        if t.score_batches + t.score_rejected > 0 {
            let _ = writeln!(
                out,
                "  serving: {} batches ({} rows) in {:.3}s, {} rejected, {} model loads",
                t.score_batches,
                t.score_rows,
                t.score_ns as f64 / 1e9,
                t.score_rejected,
                t.model_reloads
            );
        }
        for &(t_ns, iteration) in &t.resumes {
            let rel = t.first_t_ns.map_or(0, |f| t_ns.saturating_sub(f));
            let _ = writeln!(
                out,
                "  resume: from checkpoint at round {iteration} (+{:.3}s)",
                rel as f64 / 1e9
            );
        }
        for &(t_ns, party, iteration) in &t.rejoins {
            let rel = t.first_t_ns.map_or(0, |f| t_ns.saturating_sub(f));
            let _ = writeln!(
                out,
                "  rejoin: party {party} at round {iteration} (+{:.3}s)",
                rel as f64 / 1e9
            );
        }
        for (phase, &(count, total_ns)) in &t.phases {
            let _ = writeln!(
                out,
                "  phase {phase}: {count} spans, {:.3}s total",
                total_ns as f64 / 1e9
            );
        }
        for (backend, &(rounds, bytes, total_ns)) in &t.secagg {
            let _ = writeln!(
                out,
                "  secagg {backend}: {rounds} rounds, {bytes} B, {:.3}s total",
                total_ns as f64 / 1e9
            );
        }
        if t.telemetry_deltas > 0 {
            let _ = writeln!(
                out,
                "  cluster: {} telemetry deltas folded",
                t.telemetry_deltas
            );
        }
        for &(t_ns, party, iteration, score) in &t.slow_learners {
            let rel = t.first_t_ns.map_or(0, |f| t_ns.saturating_sub(f));
            let _ = writeln!(
                out,
                "  straggler: party {party} at round {iteration}, score {score:.2} (+{:.3}s)",
                rel as f64 / 1e9
            );
        }
        out
    }
}

impl Sink for SummarySink {
    fn record(&self, event: Event) {
        let mut t = self.totals.lock().expect("summary lock");
        t.events += 1;
        t.first_t_ns.get_or_insert(event.t_ns);
        t.last_t_ns = t.last_t_ns.max(event.t_ns);
        match event.kind {
            EventKind::FrameSent {
                bytes, retransmit, ..
            } => {
                t.frames_sent += 1;
                t.bytes_sent += bytes;
                if retransmit {
                    t.retransmit_frames += 1;
                }
            }
            EventKind::FrameRecv { bytes, .. } => {
                t.frames_recv += 1;
                t.bytes_recv += bytes;
            }
            EventKind::FrameRejected { .. } => t.rejected += 1,
            EventKind::SendTimeout { .. } => t.send_timeouts += 1,
            EventKind::ArqRetransmit { .. } => t.arq_retransmits += 1,
            EventKind::DedupDrop { .. } => t.dedup_drops += 1,
            EventKind::AckDropped { .. } => {}
            EventKind::RoundOpen { .. } => {}
            EventKind::RoundClose { .. } => t.rounds_closed += 1,
            EventKind::DeadlineMiss { .. } => t.deadline_misses += 1,
            EventKind::Dropout { party, iteration } => {
                t.dropouts.push((event.t_ns, party, iteration));
            }
            EventKind::RekeyEpoch {
                epoch, survivors, ..
            } => t.rekeys.push((event.t_ns, epoch, survivors)),
            EventKind::TaskAttempt { local, .. } => {
                t.task_attempts += 1;
                if local {
                    t.local_tasks += 1;
                }
            }
            EventKind::WorkerUp { .. } | EventKind::WorkerDown { .. } => {}
            EventKind::BroadcastBytes { bytes, .. } => t.broadcast_bytes += bytes,
            EventKind::ShuffleBytes { bytes, .. } => t.shuffle_bytes += bytes,
            EventKind::AdmmIteration { z_delta, .. } => {
                t.admm_iterations += 1;
                t.last_z_delta = Some(z_delta);
            }
            EventKind::PhaseElapsed { phase, elapsed_ns } => {
                let slot = t.phases.entry(phase).or_insert((0, 0));
                slot.0 += 1;
                slot.1 += elapsed_ns;
            }
            EventKind::RunInfo { .. } | EventKind::ClockSync { .. } => {}
            EventKind::CheckpointWrite { .. } => t.checkpoints += 1,
            EventKind::ResumeFromCheckpoint { iteration, .. } => {
                t.resumes.push((event.t_ns, iteration));
            }
            EventKind::Rejoin { party, iteration } => {
                t.rejoins.push((event.t_ns, party, iteration));
            }
            EventKind::ScoreBatch { batch, elapsed_ns } => {
                t.score_batches += 1;
                t.score_rows += u64::from(batch);
                t.score_ns += elapsed_ns;
            }
            EventKind::ScoreRejected { .. } => t.score_rejected += 1,
            EventKind::ModelReload { .. } => t.model_reloads += 1,
            EventKind::ConnOpen { .. } => t.conns_opened += 1,
            EventKind::ConnClose { .. } => t.conns_closed += 1,
            EventKind::ConnReaped { .. } => t.conns_reaped += 1,
            EventKind::SecAggRound {
                backend,
                bytes,
                elapsed_ns,
                ..
            } => {
                let slot = t.secagg.entry(backend).or_insert((0, 0, 0));
                slot.0 += 1;
                slot.1 += bytes;
                slot.2 += elapsed_ns;
            }
            EventKind::TelemetryDelta { .. } => t.telemetry_deltas += 1,
            EventKind::SlowLearner {
                party,
                iteration,
                score,
                ..
            } => t.slow_learners.push((event.t_ns, party, iteration, score)),
            EventKind::WorkerDead { node, inflight } => {
                t.worker_deaths.push((event.t_ns, node, inflight));
            }
            EventKind::SlowWorker { .. } => t.slow_workers += 1,
        }
    }
}

// -------------------------------------------------------------- fanout

/// Duplicates every event to each wrapped sink — e.g. a JSONL file plus
/// a live summary.
pub struct FanoutSink {
    sinks: Vec<Arc<dyn Sink>>,
}

impl FanoutSink {
    /// Fans out to `sinks` in order.
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> Arc<Self> {
        Arc::new(FanoutSink { sinks })
    }
}

impl Sink for FanoutSink {
    fn record(&self, event: Event) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(t_ns: u64, kind: EventKind) -> Event {
        Event {
            t_ns,
            party: 0,
            kind,
        }
    }

    #[test]
    fn ring_evicts_oldest_but_counts_all() {
        let ring = RingSink::new(3);
        for seq in 0..10 {
            ring.record(event(seq, EventKind::DedupDrop { from: 1, seq }));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].t_ns, 7);
        assert_eq!(snap[2].t_ns, 9);
        assert_eq!(ring.recorded(), 10);
    }

    #[test]
    fn summary_renders_rates_and_timeline() {
        let summary = SummarySink::new();
        summary.record(event(
            0,
            EventKind::FrameSent {
                to: 1,
                bytes: 100,
                retransmit: false,
            },
        ));
        summary.record(event(
            1_000,
            EventKind::FrameSent {
                to: 1,
                bytes: 100,
                retransmit: true,
            },
        ));
        summary.record(event(
            2_000_000_000,
            EventKind::Dropout {
                party: 1,
                iteration: 2,
            },
        ));
        summary.record(event(
            2_000_000_001,
            EventKind::RekeyEpoch {
                iteration: 2,
                epoch: 1,
                survivors: 2,
            },
        ));
        summary.record(event(
            3_000_000_000,
            EventKind::PhaseElapsed {
                phase: "collect",
                elapsed_ns: 500_000_000,
            },
        ));
        let text = summary.render();
        assert!(text.contains("50.0% retransmit"), "{text}");
        assert!(text.contains("dropout: party 1 at round 2"), "{text}");
        assert!(text.contains("re-key: epoch 1, 2 survivors"), "{text}");
        assert!(text.contains("phase collect: 1 spans, 0.500s"), "{text}");
    }

    #[test]
    fn jsonl_buffers_until_flush_and_flushes_on_barriers() {
        let dir = std::env::temp_dir().join(format!("ppml-jsonl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("buffered.jsonl");
        let sink = JsonlSink::create(&path).expect("create");

        // A high-rate wire event sits in the buffer: nothing on disk yet.
        sink.record(event(1, EventKind::DedupDrop { from: 1, seq: 7 }));
        assert_eq!(
            std::fs::read_to_string(&path).expect("read").len(),
            0,
            "non-barrier events must be buffered, not synced per line"
        );

        // A barrier event forces everything buffered so far out.
        sink.record(event(
            2,
            EventKind::RoundClose {
                iteration: 3,
                epoch: 0,
                shares: 4,
                elapsed_ns: 9,
            },
        ));
        let on_disk = std::fs::read_to_string(&path).expect("read");
        assert_eq!(on_disk.lines().count(), 2, "{on_disk}");
        assert!(on_disk.contains("\"round_close\""), "{on_disk}");

        // Explicit flush drains later non-barrier lines too.
        sink.record(event(3, EventKind::WorkerUp { node: 2 }));
        sink.flush();
        let on_disk = std::fs::read_to_string(&path).expect("read");
        assert_eq!(on_disk.lines().count(), 3, "{on_disk}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jsonl_flushes_on_drop() {
        let dir = std::env::temp_dir().join(format!("ppml-jsonl-drop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("dropped.jsonl");
        {
            let sink = JsonlSink::create(&path).expect("create");
            sink.record(event(1, EventKind::WorkerUp { node: 1 }));
        }
        let on_disk = std::fs::read_to_string(&path).expect("read");
        assert_eq!(on_disk.lines().count(), 1, "{on_disk}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_renders_straggler_verdicts() {
        let summary = SummarySink::new();
        summary.record(event(
            0,
            EventKind::TelemetryDelta {
                from: 1,
                iteration: 2,
                span: 9,
                frames: 3,
                bytes: 512,
                elapsed_ns: 1_000,
            },
        ));
        summary.record(event(
            1_500_000_000,
            EventKind::SlowLearner {
                party: 2,
                iteration: 4,
                lag_ns: 6_000_000,
                median_ns: 2_000_000,
                score: 3.0,
            },
        ));
        let text = summary.render();
        assert!(
            text.contains("cluster: 1 telemetry deltas folded"),
            "{text}"
        );
        assert!(
            text.contains("straggler: party 2 at round 4, score 3.00 (+1.500s)"),
            "{text}"
        );
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a = RingSink::new(8);
        let b = RingSink::new(8);
        let fan = FanoutSink::new(vec![a.clone() as Arc<dyn Sink>, b.clone()]);
        fan.record(event(5, EventKind::WorkerUp { node: 1 }));
        assert_eq!(a.recorded(), 1);
        assert_eq!(b.recorded(), 1);
    }
}
