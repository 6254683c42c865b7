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
//!
//! The JSONL codec is generated: the `events!` table below declares each
//! [`EventKind`] variant once, with its `kind` label and its fields in
//! line order. The table generates the enum, [`Event::to_json`] and
//! [`Event::from_json`]. The field types' rules live in one place each:
//! `u32` is range-checked, a non-finite `f64` is written as `null` and
//! read back as NaN, and an `Option<f64>` of `None` leaves its key out.

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

/// Declares [`EventKind`] from one table and generates
/// [`Event::to_json`] and [`Event::from_json`]. Each row is a variant with
/// its JSONL `kind` label and its fields in line order. A field written
/// `party as "dropped"` takes that JSONL key instead of its own name; a
/// `&'static str` field names the label list it is interned against,
/// `phase: &'static str [PHASES]`.
macro_rules! events {
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@get $fields:ident, $key:expr, $ty:ty) => { <$ty as FromJson>::from_json($fields, $key)? };
    (@get $fields:ident, $key:expr, $ty:ty, $labels:expr) => {
        intern($labels, str_field($fields, $key)?)
    };
    (
        $(#[$meta:meta])*
        pub enum EventKind {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $label:literal {
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident $(as $key:literal)?: $ty:ty $([$labels:expr])?
                    ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum EventKind {
            $($(#[$vmeta])* $variant { $($(#[$fmeta])* $field: $ty),* },)*
        }

        impl Event {
            /// Encodes the event as one flat JSON object (no trailing newline).
            pub fn to_json(&self) -> String {
                let mut out = String::with_capacity(96);
                let _ = write!(out, "{{\"t_ns\":{},\"party\":{}", self.t_ns, self.party);
                match self.kind {
                    $(EventKind::$variant { $($field),* } => {
                        out.push_str(concat!(",\"kind\":\"", $label, "\""));
                        $($field.write_json(events!(@key $field $($key)?), &mut out);)*
                    })*
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
                let fields = &parse_flat_object(line)?[..];
                let kind = match str_field(fields, "kind")? {
                    $($label => EventKind::$variant {
                        $($field: events!(@get fields, events!(@key $field $($key)?), $ty $(, $labels)?)),*
                    },)*
                    other => return Err(ParseError::UnknownKind(other.to_string())),
                };
                Ok(Event {
                    t_ns: u64::from_json(fields, "t_ns")?,
                    party: u32::from_json(fields, "party")?,
                    kind,
                })
            }
        }

        #[cfg(test)]
        impl EventKind {
            /// Every JSONL `kind` label the table declares, in row order.
            const LABELS: &'static [&'static str] = &[$($label),*];
        }
    };
}

events! {
    /// The typed payload of an [`Event`]. Scalar fields only — see the
    /// module docs for why this is a privacy boundary, not a convenience.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum EventKind {
        /// A frame was put on the wire (transport layer, per attempt).
        FrameSent = "frame_sent" {
            /// Destination party.
            to: u32,
            /// Encoded frame size.
            bytes: u64,
            /// Whether the ARQ flagged this transmission as a retransmit.
            retransmit: bool,
        },
        /// A well-formed frame arrived from the wire.
        FrameRecv = "frame_recv" {
            /// Source party.
            from: u32,
            /// Encoded frame size.
            bytes: u64,
        },
        /// An arriving frame failed to decode (bad checksum, bad version)
        /// and was discarded.
        FrameRejected = "frame_rejected" {
            /// Size of the rejected byte run.
            bytes: u64,
        },
        /// A send gave up after exhausting its retry budget.
        SendTimeout = "send_timeout" {
            /// Destination party.
            to: u32,
            /// Attempts made before giving up.
            attempts: u32,
        },
        /// The ARQ retransmitted an unacknowledged frame.
        ArqRetransmit = "arq_retransmit" {
            /// Destination party.
            to: u32,
            /// The frame's sequence number.
            seq: u64,
            /// 1-based retransmission attempt.
            attempt: u32,
        },
        /// The ARQ discarded a duplicate delivery.
        DedupDrop = "dedup_drop" {
            /// Source party.
            from: u32,
            /// The duplicated sequence number.
            seq: u64,
        },
        /// An acknowledgement could not be delivered (the peer vanished
        /// between sending its frame and our ack) and was dropped. Safe
        /// under stop-and-wait: a live sender retransmits and the duplicate
        /// is re-acked.
        AckDropped = "ack_dropped" {
            /// The unreachable peer.
            to: u32,
            /// Sequence number the lost ack covered.
            of_seq: u64,
        },
        /// A protocol round opened (coordinator: broadcast sent; learner:
        /// consensus received).
        RoundOpen = "round_open" {
            /// ADMM iteration number.
            iteration: u64,
            /// Re-key epoch in force.
            epoch: u64,
        },
        /// A protocol round closed (coordinator: all shares in; learner:
        /// share sent).
        RoundClose = "round_close" {
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
        DeadlineMiss = "deadline_miss" {
            /// ADMM iteration number.
            iteration: u64,
            /// Re-key epoch in force when the deadline expired.
            epoch: u64,
            /// Survivors whose share had not arrived.
            missing: u32,
        },
        /// A learner was declared dropped.
        Dropout = "dropout" {
            /// The dropped learner.
            party as "dropped": u32,
            /// Round at which it was declared dead.
            iteration: u64,
        },
        /// The secure sum was re-keyed over a survivor set.
        RekeyEpoch = "rekey_epoch" {
            /// Round being re-keyed.
            iteration: u64,
            /// The new epoch.
            epoch: u64,
            /// Survivor count.
            survivors: u32,
        },
        /// A map task was dispatched to a cluster node.
        TaskAttempt = "task_attempt" {
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
        WorkerUp = "worker_up" {
            /// The worker's node id.
            node: u32,
        },
        /// A cluster worker thread exited.
        WorkerDown = "worker_down" {
            /// The worker's node id.
            node: u32,
        },
        /// Broadcast cost of one cluster iteration.
        BroadcastBytes = "broadcast_bytes" {
            /// Iteration index.
            iteration: u64,
            /// Framed broadcast bytes charged.
            bytes: u64,
        },
        /// Shuffle cost of one cluster iteration.
        ShuffleBytes = "shuffle_bytes" {
            /// Iteration index.
            iteration: u64,
            /// Framed shuffle bytes charged.
            bytes: u64,
        },
        /// Per-iteration trainer diagnostics (aggregate norms only).
        AdmmIteration = "admm_iteration" {
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
        PhaseElapsed = "phase_elapsed" {
            /// Phase label (static strings only — see [`PHASES`]).
            phase: &'static str [PHASES],
            /// Wall clock the phase took.
            elapsed_ns: u64,
        },
        /// Identifies the distributed run this stream belongs to. Emitted
        /// once per process near stream start; `ppml-trace` groups streams
        /// by it.
        RunInfo = "run_info" {
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
        ClockSync = "clock_sync" {
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
        CheckpointWrite = "checkpoint_write" {
            /// Next round the checkpoint would resume at.
            iteration: u64,
            /// Re-key epoch captured in the checkpoint.
            epoch: u64,
            /// Encoded checkpoint size on disk.
            bytes: u64,
        },
        /// A coordinator came back from a checkpoint and re-entered the run.
        ResumeFromCheckpoint = "resume_from_checkpoint" {
            /// Round the resumed coordinator will re-broadcast.
            iteration: u64,
            /// Epoch in force after the post-resume bump.
            epoch: u64,
            /// Learners believed alive at resume.
            survivors: u32,
        },
        /// A previously dropped (or restarted) learner was re-admitted.
        Rejoin = "rejoin" {
            /// The returning learner.
            party as "rejoined": u32,
            /// Round at which it re-enters the protocol.
            iteration: u64,
        },
        /// `ppml-serve` answered one batched scoring request. Counts and
        /// timings only — margins and features never enter telemetry.
        ScoreBatch = "score_batch" {
            /// Rows in the batch.
            batch: u32,
            /// Wall clock from decoded request to margins ready.
            elapsed_ns: u64,
        },
        /// `ppml-serve` rejected a scoring request (dimension mismatch,
        /// empty batch) without scoring it.
        ScoreRejected = "score_rejected" {
            /// Rows in the rejected batch.
            batch: u32,
        },
        /// The serving engine (re)loaded its model and swapped it in.
        ModelReload = "model_reload" {
            /// Monotonic model generation; 1 is the startup load.
            generation: u64,
            /// Encoded model size on disk.
            bytes: u64,
        },
        /// A transport connection was registered under a party id (hello
        /// handshake completed).
        ConnOpen = "conn_open" {
            /// The peer the connection now carries.
            peer: u32,
            /// `true` when the peer dialed in; `false` when we dialed out.
            inbound: bool,
        },
        /// A transport connection closed (EOF, socket error, corrupt
        /// stream, handler panic, or replacement by a newer connection).
        ConnClose = "conn_close" {
            /// The registered peer; [`NO_PARTY`] if it never identified
            /// itself.
            peer: u32,
        },
        /// A transport connection was reaped by the idle-read deadline: the
        /// peer produced no bytes for too long (half-open or stalled).
        ConnReaped = "conn_reaped" {
            /// The registered peer; [`NO_PARTY`] if it never identified
            /// itself.
            peer: u32,
            /// How long the connection had been silent when reaped.
            idle_ms: u64,
        },
        /// The coordinator completed one secure-aggregation round under a
        /// pluggable backend. Labels, byte counts and timings only — never
        /// shares, ciphertexts, or coordinates.
        SecAggRound = "secagg_round" {
            /// Backend label (static strings only — see [`BACKENDS`]).
            backend: &'static str [BACKENDS],
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
        TelemetryDelta = "telemetry_delta" {
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
        SlowLearner = "slow_learner" {
            /// The slow learner.
            party as "learner": u32,
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
        WorkerDead = "worker_dead" {
            /// The dead worker's node id.
            node: u32,
            /// Tasks that were in flight on the worker when it died.
            inflight: u32,
        },
        /// The task-attempt straggler scorer flagged a worker: its map
        /// attempt ran long relative to the round's lower-median attempt
        /// time. The MapReduce twin of [`EventKind::SlowLearner`].
        SlowWorker = "slow_worker" {
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

/// Secure-aggregation backend labels [`Event::from_json`] can map back to
/// `&'static str`. Parsing an unknown label yields `"other"`.
pub const BACKENDS: &[&str] = &["pairwise", "shamir", "paillier", "other"];

/// Maps a parsed label back to its `&'static str` in `labels`; an
/// unknown label yields `"other"`.
fn intern(labels: &[&'static str], s: &str) -> &'static str {
    labels.iter().find(|&&l| l == s).copied().unwrap_or("other")
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

/// The parsed fields of one line, in line order.
type Fields = [(String, Val)];

/// A field type's JSONL form: appends `,"key":value`.
trait ToJson {
    fn write_json(&self, key: &str, out: &mut String);
}

macro_rules! display_to_json {
    ($($t:ty),*) => {
        $(impl ToJson for $t {
            fn write_json(&self, key: &str, out: &mut String) {
                let _ = write!(out, ",\"{key}\":{self}");
            }
        })*
    };
}

display_to_json!(u32, u64, i64, bool);

impl ToJson for f64 {
    fn write_json(&self, key: &str, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, ",\"{key}\":{self}");
        } else {
            // Non-finite values are not valid JSON; record the gap instead.
            let _ = write!(out, ",\"{key}\":null");
        }
    }
}

/// `None` leaves the key out of the line.
impl ToJson for Option<f64> {
    fn write_json(&self, key: &str, out: &mut String) {
        if let Some(v) = self {
            v.write_json(key, out);
        }
    }
}

impl ToJson for str {
    fn write_json(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":\"{self}\"");
    }
}

/// A field type's JSONL parse, with the format's type and range checks.
trait FromJson: Sized {
    fn from_json(fields: &Fields, key: &str) -> Result<Self, ParseError>;
}

fn field<'a>(fields: &'a Fields, key: &str) -> Result<&'a Val, ParseError> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| bad(format!("missing field {key}")))
}

fn str_field<'a>(fields: &'a Fields, key: &str) -> Result<&'a str, ParseError> {
    match field(fields, key)? {
        Val::S(v) => Ok(v.as_str()),
        other => Err(bad(format!("field {key} is not a string: {other:?}"))),
    }
}

impl FromJson for u64 {
    fn from_json(fields: &Fields, key: &str) -> Result<Self, ParseError> {
        match field(fields, key)? {
            Val::U(v) => Ok(*v),
            other => Err(bad(format!("field {key} is not an integer: {other:?}"))),
        }
    }
}

impl FromJson for u32 {
    fn from_json(fields: &Fields, key: &str) -> Result<Self, ParseError> {
        u32::try_from(u64::from_json(fields, key)?)
            .map_err(|_| bad(format!("field {key} exceeds u32")))
    }
}

impl FromJson for i64 {
    fn from_json(fields: &Fields, key: &str) -> Result<Self, ParseError> {
        match field(fields, key)? {
            Val::U(v) => i64::try_from(*v).map_err(|_| bad(format!("field {key} exceeds i64"))),
            Val::I(v) => Ok(*v),
            other => Err(bad(format!("field {key} is not an integer: {other:?}"))),
        }
    }
}

/// `null` parses to NaN: a non-finite float is written as `null`.
impl FromJson for f64 {
    fn from_json(fields: &Fields, key: &str) -> Result<Self, ParseError> {
        match field(fields, key)? {
            Val::U(v) => Ok(*v as f64),
            Val::I(v) => Ok(*v as f64),
            Val::F(v) => Ok(*v),
            Val::Null => Ok(f64::NAN),
            other => Err(bad(format!("field {key} is not a number: {other:?}"))),
        }
    }
}

/// An absent key parses to `None`.
impl FromJson for Option<f64> {
    fn from_json(fields: &Fields, key: &str) -> Result<Self, ParseError> {
        match field(fields, key) {
            Ok(_) => f64::from_json(fields, key).map(Some),
            Err(_) => Ok(None),
        }
    }
}

impl FromJson for bool {
    fn from_json(fields: &Fields, key: &str) -> Result<Self, ParseError> {
        match field(fields, key)? {
            Val::B(v) => Ok(*v),
            other => Err(bad(format!("field {key} is not a bool: {other:?}"))),
        }
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
    use ppml_data::check::{run_cases, Gen};

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
    fn every_sample_event_encodes_to_its_pinned_line() {
        // Round trips cannot see a key that is renamed or reordered the
        // same way in the encoder and the parser; these pins can. One
        // line per `samples()` event; a new kind appends its own pin.
        const PINNED: [&str; 37] = [
            r#"{"t_ns":1000,"party":0,"kind":"frame_sent","to":3,"bytes":220,"retransmit":true}"#,
            r#"{"t_ns":1001,"party":1,"kind":"frame_recv","from":1,"bytes":36}"#,
            r#"{"t_ns":1002,"party":2,"kind":"frame_rejected","bytes":12}"#,
            r#"{"t_ns":1003,"party":3,"kind":"send_timeout","to":2,"attempts":6}"#,
            r#"{"t_ns":1004,"party":4,"kind":"arq_retransmit","to":0,"seq":17,"attempt":2}"#,
            r#"{"t_ns":1005,"party":5,"kind":"dedup_drop","from":2,"seq":5}"#,
            r#"{"t_ns":1006,"party":6,"kind":"ack_dropped","to":1,"of_seq":8}"#,
            r#"{"t_ns":1007,"party":7,"kind":"round_open","iteration":4,"epoch":1}"#,
            r#"{"t_ns":1008,"party":8,"kind":"round_close","iteration":4,"epoch":1,"shares":3,"elapsed_ns":1234567}"#,
            r#"{"t_ns":1009,"party":9,"kind":"deadline_miss","iteration":2,"epoch":0,"missing":1}"#,
            r#"{"t_ns":1010,"party":10,"kind":"dropout","dropped":1,"iteration":2}"#,
            r#"{"t_ns":1011,"party":11,"kind":"rekey_epoch","iteration":2,"epoch":1,"survivors":2}"#,
            r#"{"t_ns":1012,"party":12,"kind":"task_attempt","block":9,"node":2,"attempt":1,"local":false}"#,
            r#"{"t_ns":1013,"party":13,"kind":"worker_up","node":7}"#,
            r#"{"t_ns":1014,"party":14,"kind":"worker_down","node":7}"#,
            r#"{"t_ns":1015,"party":15,"kind":"broadcast_bytes","iteration":3,"bytes":4096}"#,
            r#"{"t_ns":1016,"party":16,"kind":"shuffle_bytes","iteration":3,"bytes":888}"#,
            r#"{"t_ns":1017,"party":17,"kind":"admm_iteration","iteration":11,"primal_sq":0.125,"dual_sq":0.0025,"z_delta":0.000000001,"objective":431.0625}"#,
            r#"{"t_ns":1018,"party":18,"kind":"admm_iteration","iteration":12,"primal_sq":3,"dual_sq":0.5,"z_delta":0.25}"#,
            r#"{"t_ns":1019,"party":19,"kind":"phase_elapsed","phase":"collect","elapsed_ns":987654321}"#,
            r#"{"t_ns":1020,"party":20,"kind":"run_info","run_id":16045690984503111693}"#,
            r#"{"t_ns":1021,"party":21,"kind":"clock_sync","peer":2,"offset_ns":-1234567890,"rtt_ns":250000}"#,
            r#"{"t_ns":1022,"party":22,"kind":"clock_sync","peer":0,"offset_ns":9223372036854775807,"rtt_ns":1}"#,
            r#"{"t_ns":1023,"party":23,"kind":"checkpoint_write","iteration":6,"epoch":2,"bytes":1632}"#,
            r#"{"t_ns":1024,"party":24,"kind":"resume_from_checkpoint","iteration":6,"epoch":6,"survivors":3}"#,
            r#"{"t_ns":1025,"party":25,"kind":"rejoin","rejoined":1,"iteration":7}"#,
            r#"{"t_ns":1026,"party":26,"kind":"score_batch","batch":256,"elapsed_ns":41000}"#,
            r#"{"t_ns":1027,"party":27,"kind":"score_rejected","batch":16}"#,
            r#"{"t_ns":1028,"party":28,"kind":"model_reload","generation":2,"bytes":4096}"#,
            r#"{"t_ns":1029,"party":29,"kind":"conn_open","peer":3,"inbound":true}"#,
            r#"{"t_ns":1030,"party":30,"kind":"conn_close","peer":4294967295}"#,
            r#"{"t_ns":1031,"party":31,"kind":"conn_reaped","peer":1,"idle_ms":61250}"#,
            r#"{"t_ns":1032,"party":32,"kind":"secagg_round","backend":"shamir","iteration":9,"bytes":18432,"elapsed_ns":2750000}"#,
            r#"{"t_ns":1033,"party":33,"kind":"telemetry_delta","from":2,"iteration":9,"span":11400714819323198485,"frames":6,"bytes":4280,"elapsed_ns":1920000}"#,
            r#"{"t_ns":1034,"party":34,"kind":"slow_learner","learner":3,"iteration":9,"lag_ns":8400000,"median_ns":2100000,"score":4}"#,
            r#"{"t_ns":1035,"party":35,"kind":"worker_dead","node":1,"inflight":2}"#,
            r#"{"t_ns":1036,"party":36,"kind":"slow_worker","node":2,"iteration":9,"lag_ns":9300000,"median_ns":3100000,"score":3}"#,
        ];
        let samples = samples();
        assert_eq!(samples.len(), PINNED.len(), "one pin per sample");
        for (event, pinned) in samples.iter().zip(PINNED) {
            assert_eq!(event.to_json(), pinned);
        }
    }

    #[test]
    fn samples_cover_every_kind() {
        // The round-trip, pinned-line and hostile-line tests iterate over
        // `samples()`; a table row without a sample would skip all three.
        let lines: Vec<String> = samples().iter().map(Event::to_json).collect();
        for label in EventKind::LABELS {
            let needle = format!("\"kind\":\"{label}\"");
            assert!(
                lines.iter().any(|l| l.contains(&needle)),
                "no sample of kind {label}"
            );
        }
    }

    #[test]
    fn parser_survives_mutated_and_random_lines() {
        // from_json must be total over hostile input: Ok or Err, never a
        // panic. Mutated sample lines and swapped-in extreme values reach
        // the per-field checks; random bytes reach the flat-object scanner.
        let lines: Vec<Vec<u8>> = samples().iter().map(|e| e.to_json().into_bytes()).collect();
        const ALPHABET: &[u8] = b"{}[]\":,-+.eE0123456789 truenullfalsekind\xd0\xb4";
        const VALUES: &[&str] = &[
            "4294967296",
            "18446744073709551616",
            "-9223372036854775809",
            "-1",
            "1e400",
            "-0.0",
            "null",
            "true",
            "\"\"",
            "\"дроп\"",
            "",
        ];
        fn byte(g: &mut Gen) -> u8 {
            if g.bool() {
                *g.pick(ALPHABET)
            } else {
                g.u64_in(0, 256) as u8
            }
        }
        run_cases("event_hostile_lines", 3000, |g, _| {
            let mut line = g.pick(&lines).clone();
            match g.usize_in(0, 5) {
                0 => {
                    for _ in 0..g.usize_in(1, 5) {
                        let at = g.usize_in(0, line.len());
                        line[at] = byte(g);
                    }
                }
                3 => {
                    let colons: Vec<usize> = (0..line.len()).filter(|&i| line[i] == b':').collect();
                    let at = *g.pick(&colons) + 1;
                    let end = (at..line.len())
                        .find(|&i| matches!(line[i], b',' | b'}'))
                        .unwrap_or(line.len());
                    line.splice(at..end, g.pick(VALUES).bytes());
                }
                1 => {
                    let at = g.usize_in(0, line.len() + 1);
                    let junk: Vec<u8> = (0..g.usize_in(1, 9)).map(|_| byte(g)).collect();
                    let end = (at + g.usize_in(0, junk.len() + 1)).min(line.len());
                    line.splice(at..end, junk);
                }
                2 => line.truncate(g.usize_in(0, line.len() + 1)),
                _ => line = (0..g.usize_in(0, 48)).map(|_| byte(g)).collect(),
            }
            let _ = Event::from_json(&String::from_utf8_lossy(&line));
        });
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
