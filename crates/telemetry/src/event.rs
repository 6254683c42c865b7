//! The event vocabulary and its JSONL wire form.
//!
//! Every event is a [`Copy`] value of scalar fields — counts, sizes,
//! timings, epochs, party ids and `&'static str` phase labels. That bound
//! is the privacy rule of the paper's §V threat model *enforced by the
//! type system*: a heap payload (a share vector, a mask, a model
//! coordinate slice) simply cannot be attached to an [`Event`], because
//! `Vec` and `String` are not `Copy`. The only floating-point fields are
//! aggregate diagnostics the coordinator already learns (residual norms,
//! `‖Δz‖²`, objective values), never individual coordinates.

use std::fmt::Write as _;

/// Sentinel party id for events not attributable to a protocol party
/// (cluster driver, trainer loops).
pub const NO_PARTY: u32 = u32::MAX;

/// One structured telemetry event.
///
/// `t_ns` is monotonic nanoseconds since the process-local telemetry
/// epoch (first use of [`crate::now_ns`]); comparable within one process,
/// not across processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Monotonic nanoseconds since the process telemetry epoch.
    pub t_ns: u64,
    /// The party (or cluster node) the event happened on; [`NO_PARTY`]
    /// when not attributable.
    pub party: u32,
    /// What happened.
    pub kind: EventKind,
}

/// The typed payload of an [`Event`]. Scalar fields only — see the
/// module docs for why this is a privacy boundary, not a convenience.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A frame was put on the wire (transport layer, per attempt).
    FrameSent {
        /// Destination party.
        to: u32,
        /// Encoded frame size.
        bytes: u64,
        /// Whether the ARQ flagged this transmission as a retransmit.
        retransmit: bool,
    },
    /// A well-formed frame arrived from the wire.
    FrameRecv {
        /// Source party.
        from: u32,
        /// Encoded frame size.
        bytes: u64,
    },
    /// An arriving frame failed to decode (bad checksum, bad version)
    /// and was discarded.
    FrameRejected {
        /// Size of the rejected byte run.
        bytes: u64,
    },
    /// A send gave up after exhausting its retry budget.
    SendTimeout {
        /// Destination party.
        to: u32,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The ARQ retransmitted an unacknowledged frame.
    ArqRetransmit {
        /// Destination party.
        to: u32,
        /// The frame's sequence number.
        seq: u64,
        /// 1-based retransmission attempt.
        attempt: u32,
    },
    /// The ARQ discarded a duplicate delivery.
    DedupDrop {
        /// Source party.
        from: u32,
        /// The duplicated sequence number.
        seq: u64,
    },
    /// An acknowledgement could not be delivered (the peer vanished
    /// between sending its frame and our ack) and was dropped. Safe
    /// under stop-and-wait: a live sender retransmits and the duplicate
    /// is re-acked.
    AckDropped {
        /// The unreachable peer.
        to: u32,
        /// Sequence number the lost ack covered.
        of_seq: u64,
    },
    /// A protocol round opened (coordinator: broadcast sent; learner:
    /// consensus received).
    RoundOpen {
        /// ADMM iteration number.
        iteration: u64,
        /// Re-key epoch in force.
        epoch: u64,
    },
    /// A protocol round closed (coordinator: all shares in; learner:
    /// share sent).
    RoundClose {
        /// ADMM iteration number.
        iteration: u64,
        /// Re-key epoch in force at close.
        epoch: u64,
        /// Shares summed (coordinator) or sent (learner).
        shares: u32,
        /// Wall clock from open to close.
        elapsed_ns: u64,
    },
    /// A collection round's deadline expired with shares still missing.
    DeadlineMiss {
        /// ADMM iteration number.
        iteration: u64,
        /// Re-key epoch in force when the deadline expired.
        epoch: u64,
        /// Survivors whose share had not arrived.
        missing: u32,
    },
    /// A learner was declared dropped.
    Dropout {
        /// The dropped learner.
        party: u32,
        /// Round at which it was declared dead.
        iteration: u64,
    },
    /// The secure sum was re-keyed over a survivor set.
    RekeyEpoch {
        /// Round being re-keyed.
        iteration: u64,
        /// The new epoch.
        epoch: u64,
        /// Survivor count.
        survivors: u32,
    },
    /// A map task was dispatched to a cluster node.
    TaskAttempt {
        /// Block id of the task's input.
        block: u64,
        /// Node the attempt ran on.
        node: u32,
        /// 1-based attempt number.
        attempt: u32,
        /// Whether the block was node-local (no remote read).
        local: bool,
    },
    /// A cluster worker thread came up.
    WorkerUp {
        /// The worker's node id.
        node: u32,
    },
    /// A cluster worker thread exited.
    WorkerDown {
        /// The worker's node id.
        node: u32,
    },
    /// Broadcast cost of one cluster iteration.
    BroadcastBytes {
        /// Iteration index.
        iteration: u64,
        /// Framed broadcast bytes charged.
        bytes: u64,
    },
    /// Shuffle cost of one cluster iteration.
    ShuffleBytes {
        /// Iteration index.
        iteration: u64,
        /// Framed shuffle bytes charged.
        bytes: u64,
    },
    /// Per-iteration trainer diagnostics (aggregate norms only).
    AdmmIteration {
        /// ADMM iteration number.
        iteration: u64,
        /// Primal residual `Σ_m ‖local_m − consensus‖²`.
        primal_sq: f64,
        /// Dual residual `ρ²·M·‖z_{t+1} − z_t‖²`.
        dual_sq: f64,
        /// Consensus movement `‖z_{t+1} − z_t‖²`.
        z_delta: f64,
        /// Primal objective where cheap to evaluate (linear trainers);
        /// `None` for the kernel trainers.
        objective: Option<f64>,
    },
    /// A timed phase ended (emitted by [`crate::Span`] on drop).
    PhaseElapsed {
        /// Phase label (static strings only — see [`PHASES`]).
        phase: &'static str,
        /// Wall clock the phase took.
        elapsed_ns: u64,
    },
    /// Identifies the distributed run this stream belongs to. Emitted
    /// once per process near stream start; `ppml-trace` groups streams
    /// by it.
    RunInfo {
        /// Run identifier shared by every process of one run (the
        /// coordinator mints it and gossips it over the transport).
        run_id: u64,
    },
    /// Result of one RTT-based clock-offset handshake against a peer.
    ///
    /// On the coordinator, `offset_ns` estimates `peer_epoch_clock −
    /// my_clock` at the probe midpoint: adding it to one of the peer's
    /// `t_ns` values rebases that timestamp onto the coordinator's
    /// clock. Scalars only — this is a timing statement, never payload.
    ClockSync {
        /// The probed peer.
        peer: u32,
        /// Estimated `peer_now_ns − local_now_ns` (signed; process
        /// epochs are unrelated so this can be large either way).
        offset_ns: i64,
        /// Round-trip time of the winning (minimum-RTT) probe.
        rtt_ns: u64,
    },
    /// The coordinator durably checkpointed its round state (after the
    /// write-temp → fsync → rename sequence completed).
    CheckpointWrite {
        /// Next round the checkpoint would resume at.
        iteration: u64,
        /// Re-key epoch captured in the checkpoint.
        epoch: u64,
        /// Encoded checkpoint size on disk.
        bytes: u64,
    },
    /// A coordinator came back from a checkpoint and re-entered the run.
    ResumeFromCheckpoint {
        /// Round the resumed coordinator will re-broadcast.
        iteration: u64,
        /// Epoch in force after the post-resume bump.
        epoch: u64,
        /// Learners believed alive at resume.
        survivors: u32,
    },
    /// A previously dropped (or restarted) learner was re-admitted.
    Rejoin {
        /// The returning learner.
        party: u32,
        /// Round at which it re-enters the protocol.
        iteration: u64,
    },
    /// `ppml-serve` answered one batched scoring request. Counts and
    /// timings only — margins and features never enter telemetry.
    ScoreBatch {
        /// Rows in the batch.
        batch: u32,
        /// Wall clock from decoded request to margins ready.
        elapsed_ns: u64,
    },
    /// `ppml-serve` rejected a scoring request (dimension mismatch,
    /// empty batch) without scoring it.
    ScoreRejected {
        /// Rows in the rejected batch.
        batch: u32,
    },
    /// The serving engine (re)loaded its model and swapped it in.
    ModelReload {
        /// Monotonic model generation; 1 is the startup load.
        generation: u64,
        /// Encoded model size on disk.
        bytes: u64,
    },
    /// A transport connection was registered under a party id (hello
    /// handshake completed).
    ConnOpen {
        /// The peer the connection now carries.
        peer: u32,
        /// `true` when the peer dialed in; `false` when we dialed out.
        inbound: bool,
    },
    /// A transport connection closed (EOF, socket error, corrupt
    /// stream, handler panic, or replacement by a newer connection).
    ConnClose {
        /// The registered peer; [`NO_PARTY`] if it never identified
        /// itself.
        peer: u32,
    },
    /// A transport connection was reaped by the idle-read deadline: the
    /// peer produced no bytes for too long (half-open or stalled).
    ConnReaped {
        /// The registered peer; [`NO_PARTY`] if it never identified
        /// itself.
        peer: u32,
        /// How long the connection had been silent when reaped.
        idle_ms: u64,
    },
    /// The coordinator completed one secure-aggregation round under a
    /// pluggable backend. Labels, byte counts and timings only — never
    /// shares, ciphertexts, or coordinates.
    SecAggRound {
        /// Backend label (static strings only — see [`BACKENDS`]).
        backend: &'static str,
        /// ADMM iteration the round served.
        iteration: u64,
        /// Framed aggregation bytes the coordinator moved this round
        /// (shares in, relays/collects out).
        bytes: u64,
        /// Wall clock from round open to the decoded aggregate.
        elapsed_ns: u64,
    },
    /// The coordinator folded one in-band telemetry delta from a learner
    /// (a `Telemetry` wire frame) into its cluster registry. Counts and
    /// sizes only — the delta itself already carries nothing else.
    TelemetryDelta {
        /// The reporting learner.
        from: u32,
        /// Round the delta covers.
        iteration: u64,
        /// Causal correlation id stamped on the delta
        /// (`mix64(run_id ^ iteration)`).
        span: u64,
        /// Frames the learner reported sending since its last delta.
        frames: u64,
        /// Bytes the learner reported sending since its last delta.
        bytes: u64,
        /// The learner's local wall clock for the round.
        elapsed_ns: u64,
    },
    /// The straggler scorer flagged a learner: its share arrived late
    /// relative to the round's median collect lag. A timing verdict
    /// about protocol behaviour — never about data.
    SlowLearner {
        /// The slow learner.
        party: u32,
        /// Round the verdict is for.
        iteration: u64,
        /// This learner's collect lag (round open → share accepted).
        lag_ns: u64,
        /// The round's median collect lag across accepted shares.
        median_ns: u64,
        /// `lag_ns / median_ns` — ≥ the scorer's threshold by
        /// construction (1.0 means exactly median).
        score: f64,
    },
    /// A MapReduce worker died mid-job (its channel closed or an
    /// attempt outlived the task timeout); its in-flight tasks were
    /// re-queued on the survivors.
    WorkerDead {
        /// The dead worker's node id.
        node: u32,
        /// Tasks that were in flight on the worker when it died.
        inflight: u32,
    },
    /// The task-attempt straggler scorer flagged a worker: its map
    /// attempt ran long relative to the round's lower-median attempt
    /// time. The MapReduce twin of [`EventKind::SlowLearner`].
    SlowWorker {
        /// The slow worker's node id.
        node: u32,
        /// Iteration (round) the verdict is for.
        iteration: u64,
        /// This worker's attempt wall clock.
        lag_ns: u64,
        /// The round's lower-median attempt wall clock.
        median_ns: u64,
        /// `lag_ns / median_ns` — ≥ the scorer's threshold by
        /// construction.
        score: f64,
    },
}

/// Phase labels [`Event::from_json`] can map back to `&'static str`.
/// Parsing an unknown label yields `"other"`.
pub const PHASES: &[&str] = &[
    "train",
    "broadcast",
    "collect",
    "map",
    "reduce",
    "connect",
    "run",
    "other",
];

fn intern_phase(s: &str) -> &'static str {
    PHASES.iter().find(|&&p| p == s).copied().unwrap_or("other")
}

/// Secure-aggregation backend labels [`Event::from_json`] can map back to
/// `&'static str`. Parsing an unknown label yields `"other"`.
pub const BACKENDS: &[&str] = &["pairwise", "shamir", "paillier", "other"];

fn intern_backend(s: &str) -> &'static str {
    BACKENDS
        .iter()
        .find(|&&b| b == s)
        .copied()
        .unwrap_or("other")
}

/// Error from [`Event::from_json`].
///
/// [`ParseError::UnknownKind`] is split out so forward-compatible
/// readers (`ppml-trace`) can skip-and-count lines written by a newer
/// build instead of aborting on them; every other defect is
/// [`ParseError::Malformed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The line is valid JSON of the expected shape but names an event
    /// `kind` this build does not know. Carries the unknown kind label.
    UnknownKind(String),
    /// The line is structurally broken: not a flat JSON object, missing
    /// or mistyped fields, bad numbers.
    Malformed(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnknownKind(kind) => {
                write!(f, "telemetry parse error: unknown kind {kind:?}")
            }
            ParseError::Malformed(msg) => write!(f, "telemetry parse error: {msg}"),
        }
    }
}

impl std::error::Error for ParseError {}

fn bad(msg: impl Into<String>) -> ParseError {
    ParseError::Malformed(msg.into())
}

/// A flat JSON scalar — all this format ever nests.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    U(u64),
    I(i64),
    F(f64),
    B(bool),
    S(String),
    Null,
}

fn push_f64(out: &mut String, key: &str, v: f64) {
    if v.is_finite() {
        let _ = write!(out, ",\"{key}\":{v}");
    } else {
        // Non-finite values are not valid JSON; record the gap instead.
        let _ = write!(out, ",\"{key}\":null");
    }
}

impl Event {
    /// Encodes the event as one flat JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(out, "{{\"t_ns\":{},\"party\":{}", self.t_ns, self.party);
        let kind = |out: &mut String, name: &str| {
            let _ = write!(out, ",\"kind\":\"{name}\"");
        };
        let u = |out: &mut String, key: &str, v: u64| {
            let _ = write!(out, ",\"{key}\":{v}");
        };
        let b = |out: &mut String, key: &str, v: bool| {
            let _ = write!(out, ",\"{key}\":{v}");
        };
        match self.kind {
            EventKind::FrameSent {
                to,
                bytes,
                retransmit,
            } => {
                kind(&mut out, "frame_sent");
                u(&mut out, "to", to.into());
                u(&mut out, "bytes", bytes);
                b(&mut out, "retransmit", retransmit);
            }
            EventKind::FrameRecv { from, bytes } => {
                kind(&mut out, "frame_recv");
                u(&mut out, "from", from.into());
                u(&mut out, "bytes", bytes);
            }
            EventKind::FrameRejected { bytes } => {
                kind(&mut out, "frame_rejected");
                u(&mut out, "bytes", bytes);
            }
            EventKind::SendTimeout { to, attempts } => {
                kind(&mut out, "send_timeout");
                u(&mut out, "to", to.into());
                u(&mut out, "attempts", attempts.into());
            }
            EventKind::ArqRetransmit { to, seq, attempt } => {
                kind(&mut out, "arq_retransmit");
                u(&mut out, "to", to.into());
                u(&mut out, "seq", seq);
                u(&mut out, "attempt", attempt.into());
            }
            EventKind::DedupDrop { from, seq } => {
                kind(&mut out, "dedup_drop");
                u(&mut out, "from", from.into());
                u(&mut out, "seq", seq);
            }
            EventKind::AckDropped { to, of_seq } => {
                kind(&mut out, "ack_dropped");
                u(&mut out, "to", to.into());
                u(&mut out, "of_seq", of_seq);
            }
            EventKind::RoundOpen { iteration, epoch } => {
                kind(&mut out, "round_open");
                u(&mut out, "iteration", iteration);
                u(&mut out, "epoch", epoch);
            }
            EventKind::RoundClose {
                iteration,
                epoch,
                shares,
                elapsed_ns,
            } => {
                kind(&mut out, "round_close");
                u(&mut out, "iteration", iteration);
                u(&mut out, "epoch", epoch);
                u(&mut out, "shares", shares.into());
                u(&mut out, "elapsed_ns", elapsed_ns);
            }
            EventKind::DeadlineMiss {
                iteration,
                epoch,
                missing,
            } => {
                kind(&mut out, "deadline_miss");
                u(&mut out, "iteration", iteration);
                u(&mut out, "epoch", epoch);
                u(&mut out, "missing", missing.into());
            }
            EventKind::Dropout { party, iteration } => {
                kind(&mut out, "dropout");
                u(&mut out, "dropped", party.into());
                u(&mut out, "iteration", iteration);
            }
            EventKind::RekeyEpoch {
                iteration,
                epoch,
                survivors,
            } => {
                kind(&mut out, "rekey_epoch");
                u(&mut out, "iteration", iteration);
                u(&mut out, "epoch", epoch);
                u(&mut out, "survivors", survivors.into());
            }
            EventKind::TaskAttempt {
                block,
                node,
                attempt,
                local,
            } => {
                kind(&mut out, "task_attempt");
                u(&mut out, "block", block);
                u(&mut out, "node", node.into());
                u(&mut out, "attempt", attempt.into());
                b(&mut out, "local", local);
            }
            EventKind::WorkerUp { node } => {
                kind(&mut out, "worker_up");
                u(&mut out, "node", node.into());
            }
            EventKind::WorkerDown { node } => {
                kind(&mut out, "worker_down");
                u(&mut out, "node", node.into());
            }
            EventKind::BroadcastBytes { iteration, bytes } => {
                kind(&mut out, "broadcast_bytes");
                u(&mut out, "iteration", iteration);
                u(&mut out, "bytes", bytes);
            }
            EventKind::ShuffleBytes { iteration, bytes } => {
                kind(&mut out, "shuffle_bytes");
                u(&mut out, "iteration", iteration);
                u(&mut out, "bytes", bytes);
            }
            EventKind::AdmmIteration {
                iteration,
                primal_sq,
                dual_sq,
                z_delta,
                objective,
            } => {
                kind(&mut out, "admm_iteration");
                u(&mut out, "iteration", iteration);
                push_f64(&mut out, "primal_sq", primal_sq);
                push_f64(&mut out, "dual_sq", dual_sq);
                push_f64(&mut out, "z_delta", z_delta);
                if let Some(obj) = objective {
                    push_f64(&mut out, "objective", obj);
                }
            }
            EventKind::PhaseElapsed { phase, elapsed_ns } => {
                kind(&mut out, "phase_elapsed");
                let _ = write!(out, ",\"phase\":\"{phase}\"");
                u(&mut out, "elapsed_ns", elapsed_ns);
            }
            EventKind::RunInfo { run_id } => {
                kind(&mut out, "run_info");
                u(&mut out, "run_id", run_id);
            }
            EventKind::ClockSync {
                peer,
                offset_ns,
                rtt_ns,
            } => {
                kind(&mut out, "clock_sync");
                u(&mut out, "peer", peer.into());
                let _ = write!(out, ",\"offset_ns\":{offset_ns}");
                u(&mut out, "rtt_ns", rtt_ns);
            }
            EventKind::CheckpointWrite {
                iteration,
                epoch,
                bytes,
            } => {
                kind(&mut out, "checkpoint_write");
                u(&mut out, "iteration", iteration);
                u(&mut out, "epoch", epoch);
                u(&mut out, "bytes", bytes);
            }
            EventKind::ResumeFromCheckpoint {
                iteration,
                epoch,
                survivors,
            } => {
                kind(&mut out, "resume_from_checkpoint");
                u(&mut out, "iteration", iteration);
                u(&mut out, "epoch", epoch);
                u(&mut out, "survivors", survivors.into());
            }
            EventKind::Rejoin { party, iteration } => {
                kind(&mut out, "rejoin");
                u(&mut out, "rejoined", party.into());
                u(&mut out, "iteration", iteration);
            }
            EventKind::ScoreBatch { batch, elapsed_ns } => {
                kind(&mut out, "score_batch");
                u(&mut out, "batch", batch.into());
                u(&mut out, "elapsed_ns", elapsed_ns);
            }
            EventKind::ScoreRejected { batch } => {
                kind(&mut out, "score_rejected");
                u(&mut out, "batch", batch.into());
            }
            EventKind::ModelReload { generation, bytes } => {
                kind(&mut out, "model_reload");
                u(&mut out, "generation", generation);
                u(&mut out, "bytes", bytes);
            }
            EventKind::ConnOpen { peer, inbound } => {
                kind(&mut out, "conn_open");
                u(&mut out, "peer", peer.into());
                b(&mut out, "inbound", inbound);
            }
            EventKind::ConnClose { peer } => {
                kind(&mut out, "conn_close");
                u(&mut out, "peer", peer.into());
            }
            EventKind::ConnReaped { peer, idle_ms } => {
                kind(&mut out, "conn_reaped");
                u(&mut out, "peer", peer.into());
                u(&mut out, "idle_ms", idle_ms);
            }
            EventKind::SecAggRound {
                backend,
                iteration,
                bytes,
                elapsed_ns,
            } => {
                kind(&mut out, "secagg_round");
                let _ = write!(out, ",\"backend\":\"{backend}\"");
                u(&mut out, "iteration", iteration);
                u(&mut out, "bytes", bytes);
                u(&mut out, "elapsed_ns", elapsed_ns);
            }
            EventKind::TelemetryDelta {
                from,
                iteration,
                span,
                frames,
                bytes,
                elapsed_ns,
            } => {
                kind(&mut out, "telemetry_delta");
                u(&mut out, "from", from.into());
                u(&mut out, "iteration", iteration);
                u(&mut out, "span", span);
                u(&mut out, "frames", frames);
                u(&mut out, "bytes", bytes);
                u(&mut out, "elapsed_ns", elapsed_ns);
            }
            EventKind::SlowLearner {
                party: learner,
                iteration,
                lag_ns,
                median_ns,
                score,
            } => {
                kind(&mut out, "slow_learner");
                u(&mut out, "learner", learner.into());
                u(&mut out, "iteration", iteration);
                u(&mut out, "lag_ns", lag_ns);
                u(&mut out, "median_ns", median_ns);
                push_f64(&mut out, "score", score);
            }
            EventKind::WorkerDead { node, inflight } => {
                kind(&mut out, "worker_dead");
                u(&mut out, "node", node.into());
                u(&mut out, "inflight", inflight.into());
            }
            EventKind::SlowWorker {
                node,
                iteration,
                lag_ns,
                median_ns,
                score,
            } => {
                kind(&mut out, "slow_worker");
                u(&mut out, "node", node.into());
                u(&mut out, "iteration", iteration);
                u(&mut out, "lag_ns", lag_ns);
                u(&mut out, "median_ns", median_ns);
                push_f64(&mut out, "score", score);
            }
        }
        out.push('}');
        out
    }

    /// Parses one JSON line produced by [`Event::to_json`].
    ///
    /// # Errors
    ///
    /// [`ParseError`] on malformed JSON, an unknown `kind`, or missing
    /// fields.
    pub fn from_json(line: &str) -> Result<Event, ParseError> {
        let fields = parse_flat_object(line)?;
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| bad(format!("missing field {key}")))
        };
        let get_u = |key: &str| -> Result<u64, ParseError> {
            match get(key)? {
                Val::U(v) => Ok(*v),
                other => Err(bad(format!("field {key} is not an integer: {other:?}"))),
            }
        };
        let get_u32 = |key: &str| -> Result<u32, ParseError> {
            u32::try_from(get_u(key)?).map_err(|_| bad(format!("field {key} exceeds u32")))
        };
        let get_f = |key: &str| -> Result<f64, ParseError> {
            match get(key)? {
                Val::U(v) => Ok(*v as f64),
                Val::I(v) => Ok(*v as f64),
                Val::F(v) => Ok(*v),
                Val::Null => Ok(f64::NAN),
                other => Err(bad(format!("field {key} is not a number: {other:?}"))),
            }
        };
        let get_i = |key: &str| -> Result<i64, ParseError> {
            match get(key)? {
                Val::U(v) => i64::try_from(*v).map_err(|_| bad(format!("field {key} exceeds i64"))),
                Val::I(v) => Ok(*v),
                other => Err(bad(format!("field {key} is not an integer: {other:?}"))),
            }
        };
        let get_b = |key: &str| -> Result<bool, ParseError> {
            match get(key)? {
                Val::B(v) => Ok(*v),
                other => Err(bad(format!("field {key} is not a bool: {other:?}"))),
            }
        };
        let get_s = |key: &str| -> Result<&str, ParseError> {
            match get(key)? {
                Val::S(v) => Ok(v.as_str()),
                other => Err(bad(format!("field {key} is not a string: {other:?}"))),
            }
        };

        let kind = match get_s("kind")? {
            "frame_sent" => EventKind::FrameSent {
                to: get_u32("to")?,
                bytes: get_u("bytes")?,
                retransmit: get_b("retransmit")?,
            },
            "frame_recv" => EventKind::FrameRecv {
                from: get_u32("from")?,
                bytes: get_u("bytes")?,
            },
            "frame_rejected" => EventKind::FrameRejected {
                bytes: get_u("bytes")?,
            },
            "send_timeout" => EventKind::SendTimeout {
                to: get_u32("to")?,
                attempts: get_u32("attempts")?,
            },
            "arq_retransmit" => EventKind::ArqRetransmit {
                to: get_u32("to")?,
                seq: get_u("seq")?,
                attempt: get_u32("attempt")?,
            },
            "dedup_drop" => EventKind::DedupDrop {
                from: get_u32("from")?,
                seq: get_u("seq")?,
            },
            "ack_dropped" => EventKind::AckDropped {
                to: get_u32("to")?,
                of_seq: get_u("of_seq")?,
            },
            "round_open" => EventKind::RoundOpen {
                iteration: get_u("iteration")?,
                epoch: get_u("epoch")?,
            },
            "round_close" => EventKind::RoundClose {
                iteration: get_u("iteration")?,
                epoch: get_u("epoch")?,
                shares: get_u32("shares")?,
                elapsed_ns: get_u("elapsed_ns")?,
            },
            "deadline_miss" => EventKind::DeadlineMiss {
                iteration: get_u("iteration")?,
                epoch: get_u("epoch")?,
                missing: get_u32("missing")?,
            },
            "dropout" => EventKind::Dropout {
                party: get_u32("dropped")?,
                iteration: get_u("iteration")?,
            },
            "rekey_epoch" => EventKind::RekeyEpoch {
                iteration: get_u("iteration")?,
                epoch: get_u("epoch")?,
                survivors: get_u32("survivors")?,
            },
            "task_attempt" => EventKind::TaskAttempt {
                block: get_u("block")?,
                node: get_u32("node")?,
                attempt: get_u32("attempt")?,
                local: get_b("local")?,
            },
            "worker_up" => EventKind::WorkerUp {
                node: get_u32("node")?,
            },
            "worker_down" => EventKind::WorkerDown {
                node: get_u32("node")?,
            },
            "broadcast_bytes" => EventKind::BroadcastBytes {
                iteration: get_u("iteration")?,
                bytes: get_u("bytes")?,
            },
            "shuffle_bytes" => EventKind::ShuffleBytes {
                iteration: get_u("iteration")?,
                bytes: get_u("bytes")?,
            },
            "admm_iteration" => EventKind::AdmmIteration {
                iteration: get_u("iteration")?,
                primal_sq: get_f("primal_sq")?,
                dual_sq: get_f("dual_sq")?,
                z_delta: get_f("z_delta")?,
                objective: match get("objective") {
                    Ok(_) => Some(get_f("objective")?),
                    Err(_) => None,
                },
            },
            "phase_elapsed" => EventKind::PhaseElapsed {
                phase: intern_phase(get_s("phase")?),
                elapsed_ns: get_u("elapsed_ns")?,
            },
            "run_info" => EventKind::RunInfo {
                run_id: get_u("run_id")?,
            },
            "clock_sync" => EventKind::ClockSync {
                peer: get_u32("peer")?,
                offset_ns: get_i("offset_ns")?,
                rtt_ns: get_u("rtt_ns")?,
            },
            "checkpoint_write" => EventKind::CheckpointWrite {
                iteration: get_u("iteration")?,
                epoch: get_u("epoch")?,
                bytes: get_u("bytes")?,
            },
            "resume_from_checkpoint" => EventKind::ResumeFromCheckpoint {
                iteration: get_u("iteration")?,
                epoch: get_u("epoch")?,
                survivors: get_u32("survivors")?,
            },
            "rejoin" => EventKind::Rejoin {
                party: get_u32("rejoined")?,
                iteration: get_u("iteration")?,
            },
            "score_batch" => EventKind::ScoreBatch {
                batch: get_u32("batch")?,
                elapsed_ns: get_u("elapsed_ns")?,
            },
            "score_rejected" => EventKind::ScoreRejected {
                batch: get_u32("batch")?,
            },
            "model_reload" => EventKind::ModelReload {
                generation: get_u("generation")?,
                bytes: get_u("bytes")?,
            },
            "conn_open" => EventKind::ConnOpen {
                peer: get_u32("peer")?,
                inbound: get_b("inbound")?,
            },
            "conn_close" => EventKind::ConnClose {
                peer: get_u32("peer")?,
            },
            "conn_reaped" => EventKind::ConnReaped {
                peer: get_u32("peer")?,
                idle_ms: get_u("idle_ms")?,
            },
            "secagg_round" => EventKind::SecAggRound {
                backend: intern_backend(get_s("backend")?),
                iteration: get_u("iteration")?,
                bytes: get_u("bytes")?,
                elapsed_ns: get_u("elapsed_ns")?,
            },
            "telemetry_delta" => EventKind::TelemetryDelta {
                from: get_u32("from")?,
                iteration: get_u("iteration")?,
                span: get_u("span")?,
                frames: get_u("frames")?,
                bytes: get_u("bytes")?,
                elapsed_ns: get_u("elapsed_ns")?,
            },
            "slow_learner" => EventKind::SlowLearner {
                party: get_u32("learner")?,
                iteration: get_u("iteration")?,
                lag_ns: get_u("lag_ns")?,
                median_ns: get_u("median_ns")?,
                score: get_f("score")?,
            },
            "worker_dead" => EventKind::WorkerDead {
                node: get_u32("node")?,
                inflight: get_u32("inflight")?,
            },
            "slow_worker" => EventKind::SlowWorker {
                node: get_u32("node")?,
                iteration: get_u("iteration")?,
                lag_ns: get_u("lag_ns")?,
                median_ns: get_u("median_ns")?,
                score: get_f("score")?,
            },
            other => return Err(ParseError::UnknownKind(other.to_string())),
        };
        Ok(Event {
            t_ns: get_u("t_ns")?,
            party: get_u32("party")?,
            kind,
        })
    }
}

/// Parses one flat JSON object: string keys, scalar values, no nesting,
/// no string escapes — exactly the grammar [`Event::to_json`] emits.
fn parse_flat_object(line: &str) -> Result<Vec<(String, Val)>, ParseError> {
    let s = line.trim();
    let inner = s
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| bad("not a JSON object"))?;
    let mut fields = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let after_quote = rest
            .strip_prefix('"')
            .ok_or_else(|| bad("expected a quoted key"))?;
        let key_end = after_quote
            .find('"')
            .ok_or_else(|| bad("unterminated key"))?;
        let key = &after_quote[..key_end];
        let after_key = after_quote[key_end + 1..].trim_start();
        let value_str = after_key
            .strip_prefix(':')
            .ok_or_else(|| bad("expected ':' after key"))?
            .trim_start();
        let (val, remainder) = parse_scalar(value_str)?;
        fields.push((key.to_string(), val));
        rest = remainder.trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
            if rest.is_empty() {
                return Err(bad("trailing comma"));
            }
        } else if !rest.is_empty() {
            return Err(bad("expected ',' between fields"));
        }
    }
    Ok(fields)
}

fn parse_scalar(s: &str) -> Result<(Val, &str), ParseError> {
    if let Some(after) = s.strip_prefix('"') {
        let end = after.find('"').ok_or_else(|| bad("unterminated string"))?;
        return Ok((Val::S(after[..end].to_string()), &after[end + 1..]));
    }
    for (lit, val) in [
        ("true", Val::B(true)),
        ("false", Val::B(false)),
        ("null", Val::Null),
    ] {
        if let Some(rest) = s.strip_prefix(lit) {
            return Ok((val, rest));
        }
    }
    let end = s
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(s.len());
    let num = &s[..end];
    if num.is_empty() {
        return Err(bad(format!("expected a value at {s:?}")));
    }
    if !num.contains(['.', 'e', 'E']) {
        if let Ok(v) = num.parse::<u64>() {
            return Ok((Val::U(v), &s[end..]));
        }
        if let Ok(v) = num.parse::<i64>() {
            return Ok((Val::I(v), &s[end..]));
        }
    }
    let v: f64 = num
        .parse()
        .map_err(|_| bad(format!("bad number {num:?}")))?;
    Ok((Val::F(v), &s[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_copy<T: Copy>() {}

    #[test]
    fn events_are_copy_scalars() {
        // The privacy rule: events cannot carry heap payloads because the
        // type is Copy. If someone adds a Vec field this stops compiling.
        assert_copy::<Event>();
        assert_copy::<EventKind>();
    }

    fn samples() -> Vec<Event> {
        let kinds = vec![
            EventKind::FrameSent {
                to: 3,
                bytes: 220,
                retransmit: true,
            },
            EventKind::FrameRecv { from: 1, bytes: 36 },
            EventKind::FrameRejected { bytes: 12 },
            EventKind::SendTimeout { to: 2, attempts: 6 },
            EventKind::ArqRetransmit {
                to: 0,
                seq: 17,
                attempt: 2,
            },
            EventKind::DedupDrop { from: 2, seq: 5 },
            EventKind::AckDropped { to: 1, of_seq: 8 },
            EventKind::RoundOpen {
                iteration: 4,
                epoch: 1,
            },
            EventKind::RoundClose {
                iteration: 4,
                epoch: 1,
                shares: 3,
                elapsed_ns: 1_234_567,
            },
            EventKind::DeadlineMiss {
                iteration: 2,
                epoch: 0,
                missing: 1,
            },
            EventKind::Dropout {
                party: 1,
                iteration: 2,
            },
            EventKind::RekeyEpoch {
                iteration: 2,
                epoch: 1,
                survivors: 2,
            },
            EventKind::TaskAttempt {
                block: 9,
                node: 2,
                attempt: 1,
                local: false,
            },
            EventKind::WorkerUp { node: 7 },
            EventKind::WorkerDown { node: 7 },
            EventKind::BroadcastBytes {
                iteration: 3,
                bytes: 4096,
            },
            EventKind::ShuffleBytes {
                iteration: 3,
                bytes: 888,
            },
            EventKind::AdmmIteration {
                iteration: 11,
                primal_sq: 0.125,
                dual_sq: 2.5e-3,
                z_delta: 1.0e-9,
                objective: Some(431.0625),
            },
            EventKind::AdmmIteration {
                iteration: 12,
                primal_sq: 3.0,
                dual_sq: 0.5,
                z_delta: 0.25,
                objective: None,
            },
            EventKind::PhaseElapsed {
                phase: "collect",
                elapsed_ns: 987_654_321,
            },
            EventKind::RunInfo {
                run_id: 0xDEAD_BEEF_CAFE_F00D,
            },
            EventKind::ClockSync {
                peer: 2,
                offset_ns: -1_234_567_890,
                rtt_ns: 250_000,
            },
            EventKind::ClockSync {
                peer: 0,
                offset_ns: i64::MAX,
                rtt_ns: 1,
            },
            EventKind::CheckpointWrite {
                iteration: 6,
                epoch: 2,
                bytes: 1632,
            },
            EventKind::ResumeFromCheckpoint {
                iteration: 6,
                epoch: 6,
                survivors: 3,
            },
            EventKind::Rejoin {
                party: 1,
                iteration: 7,
            },
            EventKind::ScoreBatch {
                batch: 256,
                elapsed_ns: 41_000,
            },
            EventKind::ScoreRejected { batch: 16 },
            EventKind::ModelReload {
                generation: 2,
                bytes: 4_096,
            },
            EventKind::ConnOpen {
                peer: 3,
                inbound: true,
            },
            EventKind::ConnClose { peer: NO_PARTY },
            EventKind::ConnReaped {
                peer: 1,
                idle_ms: 61_250,
            },
            EventKind::SecAggRound {
                backend: "shamir",
                iteration: 9,
                bytes: 18_432,
                elapsed_ns: 2_750_000,
            },
            EventKind::TelemetryDelta {
                from: 2,
                iteration: 9,
                span: 0x9e37_79b9_7f4a_7c15,
                frames: 6,
                bytes: 4_280,
                elapsed_ns: 1_920_000,
            },
            EventKind::SlowLearner {
                party: 3,
                iteration: 9,
                lag_ns: 8_400_000,
                median_ns: 2_100_000,
                score: 4.0,
            },
            EventKind::WorkerDead {
                node: 1,
                inflight: 2,
            },
            EventKind::SlowWorker {
                node: 2,
                iteration: 9,
                lag_ns: 9_300_000,
                median_ns: 3_100_000,
                score: 3.0,
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                t_ns: 1000 + i as u64,
                party: i as u32,
                kind,
            })
            .collect()
    }

    #[test]
    fn json_round_trips_every_kind() {
        for event in samples() {
            let line = event.to_json();
            let back = Event::from_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, event, "round trip failed for {line}");
        }
    }

    #[test]
    fn json_lines_are_single_line_flat_objects() {
        for event in samples() {
            let line = event.to_json();
            assert!(!line.contains('\n'));
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        let event = Event {
            t_ns: 1,
            party: 0,
            kind: EventKind::AdmmIteration {
                iteration: 0,
                primal_sq: f64::INFINITY,
                dual_sq: 0.0,
                z_delta: 0.0,
                objective: None,
            },
        };
        let line = event.to_json();
        assert!(line.contains("\"primal_sq\":null"), "{line}");
        let back = Event::from_json(&line).expect("parseable");
        match back.kind {
            EventKind::AdmmIteration { primal_sq, .. } => assert!(primal_sq.is_nan()),
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        for line in [
            "",
            "not json",
            "{\"t_ns\":1}",
            "{\"t_ns\":1,\"party\":0,\"kind\":\"dropout\"}",
            "{\"t_ns\":1,,}",
        ] {
            assert!(
                matches!(Event::from_json(line), Err(ParseError::Malformed(_))),
                "accepted or misclassified {line:?}"
            );
        }
    }

    #[test]
    fn unknown_kind_is_distinguishable_from_malformed() {
        let line = "{\"t_ns\":1,\"party\":0,\"kind\":\"quantum_teleport\",\"qubits\":3}";
        match Event::from_json(line) {
            Err(ParseError::UnknownKind(kind)) => assert_eq!(kind, "quantum_teleport"),
            other => panic!("expected UnknownKind, got {other:?}"),
        }
        // A known kind with broken fields stays Malformed — the split is
        // only about forward compatibility, not error forgiveness.
        let broken = "{\"t_ns\":1,\"party\":0,\"kind\":\"dropout\",\"dropped\":\"x\"}";
        assert!(matches!(
            Event::from_json(broken),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn parser_survives_adversarial_lines() {
        // None of these may panic; all must return an error (or, for the
        // in-range ones, a value) without slicing mid-codepoint.
        for adversarial in [
            // Truncated mid-object / mid-string / mid-number.
            "{\"t_ns\":1,\"party\":0,\"kind\":\"frame_recv\",\"from\":1,\"bytes\":",
            "{\"t_ns\":1,\"party\":0,\"kind\":\"frame_re",
            "{\"t_ns\":1,\"party\":0,\"kind",
            "{",
            "}",
            // Multi-byte UTF-8 inside keys and values (parser is byte-
            // oriented; must not panic on char boundaries).
            "{\"t_ns\":1,\"party\":0,\"kind\":\"дропаут\"}",
            "{\"t_ёns\":1,\"party\":0,\"kind\":\"dropout\"}",
            "{\"t_ns\":1,\"party\":0,\"kind\":\"phase_elapsed\",\"phase\":\"蛙🐸\",\"elapsed_ns\":1}",
            // Absurd numerics: overflow u64, overflow i64, huge exponents,
            // bare signs, leading-plus.
            "{\"t_ns\":99999999999999999999999999,\"party\":0,\"kind\":\"worker_up\",\"node\":1}",
            "{\"t_ns\":1,\"party\":-3,\"kind\":\"worker_up\",\"node\":1}",
            "{\"t_ns\":1,\"party\":0,\"kind\":\"clock_sync\",\"peer\":1,\
             \"offset_ns\":-99999999999999999999,\"rtt_ns\":1}",
            "{\"t_ns\":1e400,\"party\":0,\"kind\":\"worker_up\",\"node\":1}",
            "{\"t_ns\":+,\"party\":0,\"kind\":\"worker_up\",\"node\":1}",
            "{\"t_ns\":1,\"party\":0,\"kind\":\"frame_recv\",\"from\":4294967296,\"bytes\":1}",
            // Structural noise.
            "[1,2,3]",
            "{\"a\"\"b\":1}",
            "{\"a\":}",
            "{\"t_ns\":1,\"party\":0,\"kind\":\"worker_up\",\"node\":1}}",
        ] {
            // from_json must be total: Ok or Err, never a panic.
            let _ = Event::from_json(adversarial);
        }
        // A couple of those are actually malformed in a way we want to
        // classify precisely.
        assert!(matches!(
            Event::from_json("{\"t_ns\":1,\"party\":0,\"kind\":\"дропаут\"}"),
            Err(ParseError::UnknownKind(_))
        ));
        assert!(matches!(
            Event::from_json(
                "{\"t_ns\":1,\"party\":0,\"kind\":\"frame_recv\",\"from\":4294967296,\"bytes\":1}"
            ),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn negative_integers_parse_via_signed_path() {
        let line = "{\"t_ns\":9,\"party\":3,\"kind\":\"clock_sync\",\
                    \"peer\":1,\"offset_ns\":-42,\"rtt_ns\":7}";
        let event = Event::from_json(line).expect("parseable");
        assert_eq!(
            event.kind,
            EventKind::ClockSync {
                peer: 1,
                offset_ns: -42,
                rtt_ns: 7
            }
        );
    }

    #[test]
    fn unknown_phase_labels_intern_to_other() {
        let line = "{\"t_ns\":5,\"party\":0,\"kind\":\"phase_elapsed\",\
                    \"phase\":\"exotic\",\"elapsed_ns\":7}";
        let event = Event::from_json(line).expect("parseable");
        assert_eq!(
            event.kind,
            EventKind::PhaseElapsed {
                phase: "other",
                elapsed_ns: 7
            }
        );
    }

    #[test]
    fn unknown_backend_labels_intern_to_other() {
        let line = "{\"t_ns\":5,\"party\":0,\"kind\":\"secagg_round\",\
                    \"backend\":\"quantum\",\"iteration\":1,\"bytes\":2,\
                    \"elapsed_ns\":3}";
        let event = Event::from_json(line).expect("parseable");
        assert_eq!(
            event.kind,
            EventKind::SecAggRound {
                backend: "other",
                iteration: 1,
                bytes: 2,
                elapsed_ns: 3
            }
        );
    }
}
