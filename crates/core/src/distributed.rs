//! Distributed HL-SVM training over a real [`Transport`] — the paper's
//! Fig. 2 star topology with actual message passing instead of the
//! simulated cluster of [`crate::jobs`] — as ONE round engine: a
//! coordinator driver and a learner driver that every
//! secure-aggregation backend of [`crate::secagg`] runs under.
//!
//! # Roles
//!
//! * **Learners** (parties `0..m`) each hold one horizontal partition.
//!   Per round they receive the consensus broadcast, run the local ADMM
//!   step, and hand the raw share to their backend's learner half, which
//!   turns it into frames the coordinator can sum but not read (§V).
//! * **Coordinator** (party `m`) plays the reducer: it broadcasts
//!   `(z, s)`, feeds every protocol frame to the backend's coordinator
//!   half until that yields the round's sum, applies the consensus
//!   update, and repeats until `cfg.max_iter` or `cfg.tol`. A final
//!   `done` broadcast carries the converged model to the learners so
//!   they can exit.
//!
//! # Who owns what
//!
//! A backend is its crypto and its frame shapes (see
//! [`crate::secagg`] for the per-round contract); what a learner
//! computes and what the sum becomes is the round problem
//! (`crate::round`) these drivers share with the in-process trainers
//! and the cluster job — `learn` runs any learner side's `step`,
//! `coordinate` the one averaging update. Everything else lives
//! here, once: config and party validation, the roster
//! (`alive`/`dropped`/pending joins), the single deadline-bounded
//! collect loop (heartbeats, clock replies, telemetry deltas and `Join`
//! probes are handled in exactly one place), dropout declaration,
//! re-keying, rejoin admission, checkpoint/resume, clock sync, byte
//! accounting, straggler scoring, every telemetry event, the `tol`
//! exit and the `done` broadcast; on the learner side the patience
//! clock, heartbeat nudges, clock probes, stale/ahead consensus
//! handling, scripted defection, the telemetry relay and
//! the `Welcome`/`Rekey` roster updates.
//!
//! The coordinator only ever sees what the backend's frames reveal —
//! masked shares and their cancelled sum, blinded share blocks, or
//! ciphertexts; moving to a real wire changes the failure model (frames
//! can drop — the [`Courier`] ARQ recovers), not the privacy argument.
//!
//! # Dropout and re-keying
//!
//! A learner process can die mid-run. The coordinator detects this in
//! two places: a reliable send to the learner exhausts its retry
//! budget, or a collection deadline
//! ([`DistributedTiming::round_deadline`] — one [`Instant`] per collect,
//! deliberately *not* refreshed by heartbeats) expires with the
//! learner's frame still missing. Either way the learner is declared
//! dropped — on every backend through the same path, the final `done`
//! broadcast included. Only a backend whose sent shares a membership
//! change invalidates (pairwise: the masks would no longer cancel) then
//! costs a re-key: the coordinator bumps the epoch and broadcasts
//! [`Message::Rekey`] naming the survivor set, and the survivors
//! re-contribute their cached raw share over that set for the same
//! round. Because pair seeds derive from `(seed, lo, hi)` alone,
//! re-keying is pure local recomputation — no new key agreement round.
//! Shares carry the re-key `epoch` so in-flight pre-re-key shares are
//! recognized and discarded rather than summed. Training then continues
//! over `m' < m` learners with the consensus average divided by the
//! contributor count; see `DESIGN.md` §8 for what the coordinator
//! learns at the seam.
//!
//! Learners are symmetric: they wait at most
//! [`DistributedTiming::learner_patience`] between coordinator protocol
//! frames and exit with [`TrainError::Transport`] instead of blocking
//! forever on a dead coordinator. While waiting they poll in short
//! slices and keep the coordinator link warm with heartbeats, so a
//! coordinator that *restarts* (below) is re-dialed automatically.
//!
//! # Crash recovery: checkpoint, resume, rejoin
//!
//! [`RecoveryOptions`] turns the one-shot protocol into a recoverable
//! one, under every backend:
//!
//! * with `checkpoint_to` set, the coordinator writes a crash-consistent
//!   [`Checkpoint`] after every accepted round (write-temp → fsync →
//!   rename, so a crash never leaves a torn file);
//! * with `resume_from` set, a restarted coordinator re-enters the run
//!   mid-flight: it restores the iterate and roster, bumps the epoch
//!   past anything a surviving learner can hold, and reliably
//!   re-introduces itself with [`Message::Welcome`] before
//!   re-broadcasting the checkpointed round. A learner that already
//!   computed that round re-contributes its cached raw share instead of
//!   recomputing — every backend's `contribute` is deterministic — so
//!   the resumed run reproduces the uninterrupted one bit for bit.
//!   Frames answering the dead incarnation are fenced by the epoch
//!   where they carry one and otherwise by phase: a second-phase frame
//!   of the current round that arrives before *this* incarnation asked
//!   for it is stale, never an error;
//! * a killed-and-restarted *learner* rejoins: it probes with
//!   [`Message::Join`] until the coordinator re-admits it at a round
//!   boundary — re-keying over the enlarged survivor set where the
//!   backend needs it — and streams the current iterate in a Welcome.
//!   The rejoiner warm-starts with zeroed duals and learns nothing about
//!   the rounds it missed (see `DESIGN.md` §8).
//!
//! # Determinism
//!
//! Fixed-point wrapping sums are associative and mask-independent, so a
//! distributed run reproduces [`crate::jobs::train_linear_on_cluster`]
//! **bit for bit** given the same partitions and config. The tests below
//! assert exact equality — including under injected mid-round learner
//! kills, against an in-process reference that drops the same party at
//! the same round; `examples/distributed_hl.rs` does the same across OS
//! processes over TCP.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ppml_data::Dataset;
use ppml_mapreduce::JobMetrics;
use ppml_svm::LinearSvm;
use ppml_telemetry as telemetry;
use ppml_transport::{Courier, Frame, Message, PartyId, Transport, TransportError};
use telemetry::EventKind;

use crate::checkpoint::Checkpoint;
use crate::config::{AdmmConfig, DistributedTiming};
use crate::error::TrainError;
use crate::history::ConvergenceHistory;
use crate::horizontal::linear::{validate_parts, HlLearner};
use crate::observe::{self, TelemetryRelay};
use crate::round::{Averaging, ConsensusUpdate, Learner};
use crate::secagg::{Absorbed, CoordinatorHalf, LearnerHalf, SecAggConfig, Step};
use crate::Result;

/// Result of a coordinated distributed training run.
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// The consensus model after the final round.
    pub model: LinearSvm,
    /// Per-iteration `‖z_{t+1} − z_t‖²` (and accuracy when evaluating).
    pub history: ConvergenceHistory,
    /// Network cost: `bytes_broadcast` counts every coordinator frame put
    /// on the wire (consensus, re-key and second-phase frames,
    /// retransmits included), `bytes_shuffled` the encoded size of each
    /// accepted learner frame.
    pub metrics: JobMetrics,
    /// Learners declared dead during the run, in drop order. Empty on a
    /// clean run.
    pub dropped: Vec<PartyId>,
}

/// Crash-recovery knobs for the coordinator: where to write per-round
/// checkpoints, and optionally a checkpoint to resume from instead of
/// starting at round 0. The default (no checkpointing, no resume) is a
/// plain one-shot run.
#[derive(Debug, Clone, Default)]
pub struct RecoveryOptions {
    /// Write a crash-consistent [`Checkpoint`] here after every accepted
    /// round (atomic write-temp → fsync → rename; see
    /// [`Checkpoint::save`]).
    pub checkpoint_to: Option<PathBuf>,
    /// Resume a crashed run from this (already loaded and validated)
    /// checkpoint: restore the iterate and roster, bump the epoch past
    /// anything a learner can hold, re-welcome the survivors, and
    /// continue at the checkpointed round.
    pub resume_from: Option<Checkpoint>,
}

impl RecoveryOptions {
    /// Enables per-round checkpoint writes to `path`.
    #[must_use]
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_to = Some(path.into());
        self
    }

    /// Resumes the run recorded in `ckpt` instead of starting fresh.
    #[must_use]
    pub fn with_resume(mut self, ckpt: Checkpoint) -> Self {
        self.resume_from = Some(ckpt);
        self
    }
}

pub(crate) fn protocol(reason: impl Into<String>) -> TrainError {
    TrainError::Protocol {
        reason: reason.into(),
    }
}

/// Whether a reliable-send failure indicts the *peer* rather than the
/// local fabric. A dead peer surfaces differently per transport: the
/// loopback fabric silently destroys frames until the retry budget
/// expires (`Timeout`), while TCP fails fast with `Unreachable` (dial
/// refused) or `Io` (write to a reset socket). All three mean "this
/// party is gone" and trigger dropout handling; `Closed`/`Frame` are
/// local faults and stay fatal.
fn peer_is_lost(e: &TransportError) -> bool {
    matches!(
        e,
        TransportError::Timeout | TransportError::Unreachable(_) | TransportError::Io(_)
    )
}

/// Probes sent per learner during the clock-offset handshake.
const CLOCK_PROBES: u32 = 3;
/// How long the coordinator waits for each [`Message::TimeReply`].
const CLOCK_PROBE_WAIT: Duration = Duration::from_millis(300);

/// RTT-based clock-offset handshake (ISSUE 4 tentpole, piece 3): before
/// round 0 the coordinator sends each learner [`Message::TimeProbe`]
/// frames carrying the freshly minted `run_id`, reads back the learner's
/// telemetry clock from [`Message::TimeReply`], and — taking the
/// minimum-RTT sample, NTP style — emits [`EventKind::ClockSync`] with
/// `offset ≈ peer_clock − local_clock` at the probe midpoint.
/// `ppml-trace` uses these offsets to rebase every stream onto the
/// coordinator's clock.
///
/// Only called when telemetry is enabled, so an uninstrumented run sends
/// not a single extra frame (the exact-byte-accounting tests rely on
/// this; probe traffic is likewise never charged to [`JobMetrics`]). A
/// learner that never answers (dead, or a pre-probe build) just costs
/// `CLOCK_PROBES × CLOCK_PROBE_WAIT` and gets no `ClockSync` event —
/// dropout verdicts stay the round loop's business. Runs strictly before
/// the first broadcast, when no protocol frame can be in flight, so
/// anything unexpected the probe loop swallows is liveness noise.
fn clock_sync<T: Transport>(courier: &mut Courier<T>, alive: &[bool], run_id: u64) {
    for p in (0..alive.len()).filter(|&p| alive[p]) {
        let mut best: Option<(u64, i64)> = None; // (rtt_ns, offset_ns)
        for attempt in 0..CLOCK_PROBES {
            let nonce = ((p as u64) << 8) | u64::from(attempt);
            let t0 = telemetry::now_ns();
            if courier
                .send_unreliable(p as PartyId, &Message::TimeProbe { nonce, run_id })
                .is_err()
            {
                break;
            }
            let deadline = Instant::now() + CLOCK_PROBE_WAIT;
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                match courier.recv(remaining) {
                    Ok(env) => match env.msg {
                        Message::TimeReply { nonce: n, t_ns } if n == nonce => {
                            let t1 = telemetry::now_ns();
                            let rtt = t1.saturating_sub(t0);
                            let midpoint = t0 + rtt / 2;
                            let offset = (t_ns as i64).wrapping_sub(midpoint as i64);
                            if best.is_none_or(|(best_rtt, _)| rtt < best_rtt) {
                                best = Some((rtt, offset));
                            }
                            break;
                        }
                        // Heartbeat announcements, stale replies: ignore.
                        _ => continue,
                    },
                    Err(_) => break,
                }
            }
        }
        if let Some((rtt_ns, offset_ns)) = best {
            telemetry::emit(
                courier.party(),
                EventKind::ClockSync {
                    peer: p as u32,
                    offset_ns,
                    rtt_ns,
                },
            );
        }
    }
}

/// The coordinator driver's roster and wire state: who is alive, who
/// was dropped (in order), who asked back in, the current epoch, and
/// the byte counters every send and accepted frame is charged to.
struct Coordinator<'a, T: Transport> {
    courier: &'a mut Courier<T>,
    alive: Vec<bool>,
    dropped: Vec<PartyId>,
    /// Restarted learners asking to be re-admitted: recorded whenever
    /// their Join frames surface mid-collect, acted on at the next round
    /// boundary when the iterate is consistent.
    pending_joins: BTreeMap<PartyId, u64>,
    epoch: u64,
    metrics: JobMetrics,
    /// [`CoordinatorHalf::rekeys`] of the run's backend.
    rekeys: bool,
}

impl<T: Transport> Coordinator<'_, T> {
    fn survivors(&self) -> Vec<PartyId> {
        (0..self.alive.len())
            .filter(|&p| self.alive[p])
            .map(|p| p as PartyId)
            .collect()
    }

    /// Reliably sends the frames as one overlapped fan-out, charging
    /// `bytes_broadcast`; returns the recipients that could not be
    /// reached.
    fn send_each<'m>(
        &mut self,
        frames: impl IntoIterator<Item = (PartyId, &'m Message)>,
    ) -> Result<Vec<PartyId>> {
        let frames: Vec<_> = frames.into_iter().collect();
        let mut lost = Vec::new();
        for (&(p, _), sent) in frames.iter().zip(self.courier.send_reliable_each(&frames)?) {
            match sent {
                Ok(n) => self.metrics.bytes_broadcast += n,
                Err(e) if peer_is_lost(&e) => lost.push(p),
                Err(e) => return Err(e.into()),
            }
        }
        Ok(lost)
    }

    fn send_all(&mut self, to: &[PartyId], msg: &Message) -> Result<Vec<PartyId>> {
        self.send_each(to.iter().map(|&p| (p, msg)))
    }

    /// Marks `lost` parties dead: flips `alive`, records drop order,
    /// emits [`EventKind::Dropout`].
    fn declare_dropped(&mut self, lost: &[PartyId], iteration: u64) {
        for &p in lost {
            if self.alive[p as usize] {
                self.alive[p as usize] = false;
                self.dropped.push(p);
                telemetry::emit(
                    self.courier.party(),
                    EventKind::Dropout {
                        party: p,
                        iteration,
                    },
                );
            }
        }
    }

    /// The one drop path: declares `lost` dropped and — for a backend
    /// whose sent shares a membership change invalidates — re-keys the
    /// round over the survivors: bumps the epoch and reliably sends
    /// [`Message::Rekey`] to each. A survivor that cannot be reached is
    /// itself dropped and the re-key restarts over the smaller set.
    fn drop_parties(&mut self, mut lost: Vec<PartyId>, iteration: u64) -> Result<()> {
        while !lost.is_empty() {
            self.declare_dropped(&lost, iteration);
            let survivors = self.survivors();
            if survivors.is_empty() {
                return Err(TrainError::Dropped {
                    parties: self.dropped.clone(),
                });
            }
            if !self.rekeys {
                break;
            }
            self.epoch += 1;
            let rekey = self.rekey_frame(iteration, &survivors);
            lost = self.send_all(&survivors, &rekey)?;
        }
        Ok(())
    }

    /// Emits [`EventKind::RekeyEpoch`] for the current epoch and builds
    /// the matching [`Message::Rekey`].
    fn rekey_frame(&self, iteration: u64, survivors: &[PartyId]) -> Message {
        telemetry::emit(
            self.courier.party(),
            EventKind::RekeyEpoch {
                iteration,
                epoch: self.epoch,
                survivors: survivors.len() as u32,
            },
        );
        Message::Rekey {
            iteration,
            epoch: self.epoch,
            survivors: survivors.to_vec(),
        }
    }

    fn welcome(&self, nonce: u64, iteration: u64, (z, s): (&[f64], f64)) -> Message {
        Message::Welcome {
            nonce,
            iteration,
            epoch: self.epoch,
            survivors: self.survivors(),
            z: z.to_vec(),
            s: vec![s],
        }
    }

    /// Re-enters a run from a checkpoint: emits the resume event and
    /// reliably streams a [`Message::Welcome`] — new epoch, survivor
    /// set, current iterate — to every learner the checkpoint believed
    /// alive (the restarted process's sequence numbers start over; the
    /// Welcome is what re-syncs each learner's dedup watermark). A
    /// learner that cannot be reached any more goes through the normal
    /// drop path.
    fn resume_handshake(&mut self, start_round: u64, consensus: &Averaging) -> Result<()> {
        let survivors = self.survivors();
        telemetry::emit(
            self.courier.party(),
            EventKind::ResumeFromCheckpoint {
                iteration: start_round,
                epoch: self.epoch,
                survivors: survivors.len() as u32,
            },
        );
        let welcome = self.welcome(0, start_round, consensus.parts());
        let lost = self.send_all(&survivors, &welcome)?;
        self.drop_parties(lost, start_round)
    }

    /// Re-admits rejoining learners at a round boundary: marks each
    /// pending joiner alive again and answers its [`Message::Join`] with
    /// a [`Message::Welcome`] carrying its nonce and the current
    /// iterate. A re-keying backend also bumps the epoch once over the
    /// enlarged survivor set and tells the veterans via
    /// [`Message::Rekey`] naming the *upcoming* round (nothing to
    /// re-send — the consensus broadcast that follows carries the
    /// work); elsewhere membership only matters to the coordinator's
    /// bookkeeping. Joins from parties still alive (duplicates, or
    /// frames from a live learner's earlier incarnation) are ignored.
    /// Anyone unreachable during the fan-out goes through the normal
    /// drop path.
    fn admit_rejoiners(&mut self, iteration: u64, consensus: &Averaging) -> Result<()> {
        let joiners: Vec<(PartyId, u64)> = std::mem::take(&mut self.pending_joins)
            .into_iter()
            .filter(|&(p, _)| !self.alive[p as usize])
            .collect();
        if joiners.is_empty() {
            return Ok(());
        }
        let veterans = self.survivors();
        for &(p, _) in &joiners {
            self.alive[p as usize] = true;
            self.dropped.retain(|&d| d != p);
            telemetry::emit(
                self.courier.party(),
                EventKind::Rejoin {
                    party: p,
                    iteration,
                },
            );
        }
        let rekey = self.rekeys.then(|| {
            self.epoch += 1;
            self.rekey_frame(iteration, &self.survivors())
        });
        let mut lost = Vec::new();
        for &(p, nonce) in &joiners {
            // The joiner is a fresh process: its sequence numbers
            // restart, so the dead incarnation's dedup watermark would
            // swallow everything it sends. Clear it before talking to
            // the new one.
            self.courier.reset_peer(p);
            let welcome = self.welcome(nonce, iteration, consensus.parts());
            lost.extend(self.send_all(&[p], &welcome)?);
        }
        if let Some(rekey) = rekey {
            lost.extend(self.send_all(&veterans, &rekey)?);
        }
        self.drop_parties(lost, iteration)
    }

    /// The single collect loop: feeds protocol frames to `backend` until
    /// it waits for nothing more or one `round_deadline` has passed.
    /// The whole attempt shares that one deadline: heartbeats and
    /// discarded frames never extend it, so a learner that stays silent
    /// (or only ever heartbeats) is declared dropped after exactly one
    /// `round_deadline`.
    fn collect(
        &mut self,
        backend: &mut dyn CoordinatorHalf,
        iteration: u64,
        round_start: Instant,
        round_deadline: Duration,
    ) -> Result<()> {
        let deadline = Instant::now() + round_deadline;
        while backend.pending(&self.alive) > 0 {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            let env = match self.courier.recv(remaining) {
                Ok(env) => env,
                Err(TransportError::Timeout) => break,
                Err(e) => return Err(e.into()),
            };
            match env.msg {
                // Learners announce themselves with a heartbeat to open
                // the connection (TCP dials lazily on first send);
                // liveness frames — and clock-probe replies straggling
                // in after the handshake window — are not part of the
                // round.
                Message::Heartbeat { .. } | Message::TimeReply { .. } => {}
                // In-band telemetry deltas ride the round like the clock
                // probes do: fold and move on, never charging them to
                // the protocol's byte accounting.
                Message::Telemetry { .. } => {
                    observe::fold_telemetry(self.courier.party(), &env.msg);
                }
                // A restarted learner asking back in: remember the
                // request, act at the next round boundary.
                Message::Join { party, nonce } => {
                    if (party as usize) < self.alive.len() {
                        self.pending_joins.insert(party, nonce);
                    }
                }
                msg => {
                    let frame_len = Frame::encoded_len_of(&msg);
                    if let Absorbed::Accepted { scored } =
                        backend.absorb(env.from, msg, &self.alive)?
                    {
                        self.metrics.bytes_shuffled += frame_len;
                        if let Some(party) = scored {
                            let lag = round_start.elapsed().as_nanos() as u64;
                            observe::observe_share_lag(party, iteration, lag);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// The coordinator driver: the one round loop every backend runs under
/// (see the module docs for what it owns). `courier` must be the
/// endpoint for party `learners` (the coordinator sits one past the
/// last learner); `features` is the shared feature count `k` (shares
/// are `k + 1` long: weights plus intercept).
#[allow(clippy::too_many_arguments)]
pub(crate) fn coordinate<T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    features: usize,
    cfg: &AdmmConfig,
    eval: Option<&Dataset>,
    timing: DistributedTiming,
    secagg: SecAggConfig,
    recovery: RecoveryOptions,
) -> Result<DistributedOutcome> {
    cfg.validate()?;
    timing.validate()?;
    if learners == 0 {
        return Err(TrainError::BadConfig {
            reason: "need at least one learner".to_string(),
        });
    }
    if (courier.party() as usize) != learners {
        return Err(TrainError::BadConfig {
            reason: format!(
                "coordinator must be party {learners}, got {}",
                courier.party()
            ),
        });
    }
    let m = learners;
    let mut backend = secagg.coordinator_half(m, features + 1, cfg)?;
    let mut consensus = Averaging::new(features);
    let mut history = ConvergenceHistory::default();
    let mut start_round: u64 = 0;
    let mut run_id: u64 = 0;
    let mut c = Coordinator {
        courier,
        alive: vec![true; m],
        dropped: Vec::new(),
        pending_joins: BTreeMap::new(),
        epoch: 0,
        metrics: JobMetrics::default(),
        rekeys: backend.rekeys(),
    };

    if let Some(ckpt) = &recovery.resume_from {
        ckpt.check_compatible(m, features, cfg.seed)?;
        consensus = Averaging::from_parts(ckpt.z.clone(), ckpt.s);
        history.z_delta = ckpt.z_delta.clone();
        history.accuracy = ckpt.accuracy.clone();
        c.metrics.bytes_broadcast = ckpt.bytes_broadcast as usize;
        c.metrics.bytes_shuffled = ckpt.bytes_shuffled as usize;
        c.alive = vec![false; m];
        for &p in &ckpt.alive {
            c.alive[p as usize] = true;
        }
        c.dropped = ckpt.dropped.clone();
        // Strictly exceed any epoch a surviving learner can hold: after
        // the snapshot the dead incarnation bumped at most once per
        // party it could still drop (≤ m) plus one rejoin batch, so
        // `+ m + 2` wins every learner-side "newer epoch" comparison.
        c.epoch = ckpt.epoch + m as u64 + 2;
        start_round = ckpt.next_round;
        run_id = ckpt.run_id;
    }

    // Stamp the stream and estimate per-learner clock offsets — only
    // when someone is listening: with telemetry off this adds zero
    // frames, zero waits, zero bytes (probe traffic is never charged to
    // `metrics` either way; it is observability, not protocol cost). A
    // resume re-gossips the checkpointed run id so the pre- and
    // post-crash streams correlate into one timeline.
    if telemetry::enabled() {
        if run_id == 0 {
            run_id = telemetry::fresh_run_id();
        }
        telemetry::emit(c.courier.party(), EventKind::RunInfo { run_id });
        clock_sync(c.courier, &c.alive, run_id);
    }

    if recovery.resume_from.is_some() {
        c.resume_handshake(start_round, &consensus)?;
    }

    for iteration in start_round..cfg.max_iter as u64 {
        c.admit_rejoiners(iteration, &consensus)?;
        let round_start = Instant::now();
        let round_bytes_before = c.metrics.bytes_broadcast + c.metrics.bytes_shuffled;
        let epoch = c.epoch;
        telemetry::emit(c.courier.party(), EventKind::RoundOpen { iteration, epoch });
        let broadcast = consensus_frame(iteration, &consensus, false);
        let lost = c.send_all(&c.survivors(), &broadcast)?;
        c.drop_parties(lost, iteration)?;

        backend.open(iteration, c.epoch);
        let (values, divisor) = loop {
            c.collect(&mut *backend, iteration, round_start, timing.round_deadline)?;
            let lost = match backend.advance(&c.alive)? {
                Step::Sum { values, divisor } => break (values, divisor),
                Step::Abort => {
                    return Err(TrainError::Dropped { parties: c.dropped });
                }
                // A second-phase recipient that became unreachable is
                // dropped for *future* rounds; what it already sent
                // stays inside this round's sum.
                Step::Send(frames) => c.send_each(frames.iter().map(|(p, msg)| (*p, msg)))?,
                Step::Lost(lost) => {
                    telemetry::emit(
                        c.courier.party(),
                        EventKind::DeadlineMiss {
                            iteration,
                            epoch: c.epoch,
                            missing: lost.len() as u32,
                        },
                    );
                    lost
                }
            };
            // After a re-key every share already collected is masked
            // over the wrong set: the survivors re-send for this same
            // round, so collection starts over.
            let epoch_before = c.epoch;
            c.drop_parties(lost, iteration)?;
            if c.epoch != epoch_before {
                backend.open(iteration, c.epoch);
            }
        };

        let elapsed_ns = round_start.elapsed().as_nanos() as u64;
        telemetry::emit(
            c.courier.party(),
            EventKind::RoundClose {
                iteration,
                epoch: c.epoch,
                shares: divisor as u32,
                elapsed_ns,
            },
        );
        observe::score_round(c.courier.party(), iteration);
        telemetry::emit(
            c.courier.party(),
            EventKind::SecAggRound {
                backend: secagg.kind.as_str(),
                iteration,
                bytes: (c.metrics.bytes_broadcast + c.metrics.bytes_shuffled - round_bytes_before)
                    as u64,
                elapsed_ns,
            },
        );
        let delta = consensus.update(&values, divisor)?;
        history.z_delta.push(delta);
        history
            .accuracy
            .extend(eval.map(|ds| consensus.model().accuracy(ds)));
        if let Some(path) = &recovery.checkpoint_to {
            let (z, s) = consensus.parts();
            let ckpt = Checkpoint {
                run_id,
                learners: m as u32,
                features: features as u32,
                seed: cfg.seed,
                next_round: iteration + 1,
                epoch: c.epoch,
                z: z.to_vec(),
                s,
                alive: c.survivors(),
                dropped: c.dropped.clone(),
                z_delta: history.z_delta.clone(),
                accuracy: history.accuracy.clone(),
                bytes_broadcast: c.metrics.bytes_broadcast as u64,
                bytes_shuffled: c.metrics.bytes_shuffled as u64,
            };
            let bytes = ckpt.save(path)?;
            telemetry::emit(
                c.courier.party(),
                EventKind::CheckpointWrite {
                    iteration,
                    epoch: c.epoch,
                    bytes: bytes as u64,
                },
            );
        }
        if cfg.tol.is_some_and(|tol| delta < tol) {
            break;
        }
    }
    c.metrics.iterations = history.z_delta.len();

    // Final broadcast: carries the converged consensus and releases the
    // learners from their receive loop. A survivor that dies this late
    // cannot hurt the model; it is only recorded as dropped — with no
    // re-key, the run is over.
    let rounds = history.z_delta.len() as u64;
    let done = consensus_frame(rounds, &consensus, true);
    let lost = c.send_all(&c.survivors(), &done)?;
    c.declare_dropped(&lost, rounds);
    Ok(DistributedOutcome {
        model: consensus.model(),
        history,
        metrics: c.metrics,
        dropped: c.dropped,
    })
}

/// The consensus as the wire carries it: `z` and the one-long `s`.
fn consensus_frame(iteration: u64, consensus: &Averaging, done: bool) -> Message {
    let (z, s) = consensus.parts();
    Message::Consensus {
        iteration,
        z: z.to_vec(),
        s: vec![s],
        done,
    }
}

/// How long a learner blocks on one receive before checking its patience
/// clock and nudging the coordinator with a heartbeat. Short enough that
/// a restarted coordinator is re-dialed (TCP heartbeats trigger the
/// dial) well within any realistic patience budget.
const LEARNER_POLL: Duration = Duration::from_millis(500);

/// Re-admission handshake of a restarted learner: probes with
/// [`Message::Join`] until the coordinator's [`Message::Welcome`] names
/// us a survivor (it acts on joins at round boundaries only), then
/// returns the granted `(round, epoch, survivors)`.
fn join_handshake<T: Transport>(
    courier: &mut Courier<T>,
    coordinator: PartyId,
    patience: Duration,
) -> Result<(u64, u64, Vec<PartyId>)> {
    let party = courier.party();
    let deadline = Instant::now() + patience;
    let nonce = telemetry::now_ns() | 1;
    loop {
        if Instant::now() >= deadline {
            return Err(TrainError::Transport(TransportError::Timeout));
        }
        let _ = courier.send_unreliable(coordinator, &Message::Join { party, nonce });
        match courier.recv(LEARNER_POLL) {
            Ok(env) => match env.msg {
                // Absorbing the Welcome already re-synced the dedup
                // watermark to the (possibly restarted) coordinator's
                // fresh sequence space; a full reset_peer here would
                // throw away frames that arrived right behind it.
                Message::Welcome {
                    iteration,
                    epoch,
                    survivors,
                    ..
                } if survivors.contains(&party) => {
                    telemetry::emit(party, EventKind::Rejoin { party, iteration });
                    return Ok((iteration, epoch, survivors));
                }
                // Everything else predates re-admission — broadcasts of
                // rounds we are not part of, stale re-keys. Drain (and
                // thereby ack) them so the run keeps moving.
                _ => continue,
            },
            Err(TransportError::Timeout) => continue,
            Err(e) => return Err(e.into()),
        }
    }
}

/// The learner driver's contribution state: the backend half, the
/// roster and epoch it contributes under, and the last raw share.
struct Contributor<'a, T: Transport> {
    courier: &'a mut Courier<T>,
    backend: Box<dyn LearnerHalf>,
    coordinator: PartyId,
    patience: Duration,
    present: Vec<usize>,
    epoch: u64,
    /// Raw (unmasked) share of the last computed round, kept so a re-key
    /// (or a resumed coordinator re-collecting that round) can be
    /// answered by re-contributing it — `contribute` is deterministic —
    /// without recomputing the QP.
    last_raw: Option<(u64, Vec<f64>)>,
    relay: TelemetryRelay,
}

impl<T: Transport> Contributor<'_, T> {
    /// Sends frames to the coordinator, riding out one that is
    /// mid-restart: failures that merely mean "peer unreachable right
    /// now" are retried until `patience` is spent — the same budget
    /// after which the learner would give up waiting for protocol
    /// frames anyway.
    fn send(&mut self, frames: &[Message]) -> Result<()> {
        let give_up = Instant::now() + self.patience;
        for msg in frames {
            loop {
                match self.courier.send_reliable(self.coordinator, msg) {
                    Ok(_) => break,
                    Err(e) if peer_is_lost(&e) && Instant::now() < give_up => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        }
        Ok(())
    }

    /// The one (re-)send path: contributes the cached raw share if it
    /// is round `iteration`'s, under the current roster and epoch.
    /// Returns whether anything was sent.
    fn contribute_cached(&mut self, iteration: u64) -> Result<bool> {
        let Some((_, raw)) = self.last_raw.as_ref().filter(|(it, _)| *it == iteration) else {
            return Ok(false);
        };
        let frames = self
            .backend
            .contribute(iteration, self.epoch, &self.present, raw)?;
        self.send(&frames)?;
        Ok(true)
    }

    /// Closes a round: the [`EventKind::RoundClose`] event, then this
    /// round's telemetry delta piggy-backed behind the contribution (a
    /// no-op, zero frames, with telemetry off).
    fn close_round(&mut self, iteration: u64, round_start: Instant) {
        let elapsed_ns = round_start.elapsed().as_nanos() as u64;
        telemetry::emit(
            self.courier.party(),
            EventKind::RoundClose {
                iteration,
                epoch: self.epoch,
                shares: 1,
                elapsed_ns,
            },
        );
        let (coordinator, epoch) = (self.coordinator, self.epoch);
        self.relay
            .report(self.courier, coordinator, iteration, epoch, elapsed_ns);
    }

    /// Applies a `Rekey`/`Welcome` roster: new epoch, new survivor set.
    fn adopt(&mut self, iteration: u64, epoch: u64, survivors: &[PartyId]) {
        self.epoch = epoch;
        self.present = survivors.iter().map(|&p| p as usize).collect();
        telemetry::emit(
            self.courier.party(),
            EventKind::RekeyEpoch {
                iteration,
                epoch,
                survivors: survivors.len() as u32,
            },
        );
    }
}

/// The learner driver: the one learner loop every backend and every
/// learner side runs under (see the module docs for what it owns).
/// `learner` must be freshly built — a rejoiner warm-starts with zeroed
/// duals. `defect_after` scripts a dropout at the backend's
/// characteristic loss point; `rejoin` re-enters a run as a restarted
/// process. Returns the consensus `[z ; s]` the `done` broadcast carried.
#[allow(clippy::too_many_arguments)]
pub(crate) fn learn<L: Learner, T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    learner: &mut L,
    cfg: &AdmmConfig,
    timing: DistributedTiming,
    secagg: SecAggConfig,
    defect_after: Option<u64>,
    rejoin: bool,
) -> Result<Vec<f64>> {
    cfg.validate()?;
    timing.validate()?;
    let party = courier.party();
    if (party as usize) >= learners {
        return Err(TrainError::BadConfig {
            reason: format!("learner party {party} out of range 0..{learners}"),
        });
    }
    let coordinator = learners as PartyId;
    let patience = timing.learner_patience;
    let mut c = Contributor {
        backend: secagg.learner_half(party as usize, learners, cfg)?,
        courier,
        coordinator,
        patience,
        present: (0..learners).collect(),
        epoch: 0,
        last_raw: None,
        relay: TelemetryRelay::new(),
    };
    let mut expected_iter: u64 = 0;
    let mut run_id_seen = false;
    // A round whose contribution completes with an `on_frame` reply:
    // when it opened, so it can be closed (event + telemetry delta)
    // once that reply is out.
    let mut closing: Option<(u64, Instant)> = None;
    // Scripted mid-collect death: the contribution is out — this
    // round's input survives us — but second-phase frames are only
    // drained from here on, never answered.
    let mut muted = false;

    if rejoin {
        let (iteration, epoch, survivors) = join_handshake(c.courier, coordinator, patience)?;
        c.epoch = epoch;
        c.present = survivors.iter().map(|&p| p as usize).collect();
        expected_iter = iteration;
    }
    let mut deadline = Instant::now() + patience;

    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(TrainError::Transport(TransportError::Timeout));
        }
        let env = match c.courier.recv(remaining.min(LEARNER_POLL)) {
            Ok(env) => env,
            Err(TransportError::Timeout) => {
                // Only this poll slice expired, not the patience budget.
                // Nudge the coordinator: over TCP this (re-)dials a
                // restarted coordinator so its Welcome can reach us;
                // elsewhere it is liveness noise the coordinator drops.
                let nonce = u64::from(party);
                let _ = c
                    .courier
                    .send_unreliable(coordinator, &Message::Heartbeat { nonce });
                continue;
            }
            Err(e) => return Err(e.into()),
        };
        match env.msg {
            // Liveness noise keeps the connection warm but is no proof
            // the protocol is advancing; it does not refresh patience.
            Message::Heartbeat { .. } => continue,
            // Clock-offset probe: stamp this stream with the gossiped
            // run id (once) and echo the local telemetry clock back.
            // Observability traffic, not protocol progress — patience is
            // not refreshed, and a failed reply is the coordinator's
            // problem to time out on.
            Message::TimeProbe { nonce, run_id } => {
                if telemetry::enabled() && !run_id_seen {
                    run_id_seen = true;
                    telemetry::emit(party, EventKind::RunInfo { run_id });
                }
                c.relay.set_run_id(run_id);
                let t_ns = telemetry::now_ns();
                let _ = c
                    .courier
                    .send_unreliable(coordinator, &Message::TimeReply { nonce, t_ns });
                continue;
            }
            Message::Consensus {
                iteration,
                z: mut consensus,
                s,
                done,
            } => {
                consensus.push(s.first().copied().unwrap_or(0.0));
                if done {
                    return Ok(consensus);
                }
                if iteration < expected_iter {
                    // Stale or duplicated broadcast of an already
                    // processed round: recomputing would desynchronize
                    // the duals and double-send a share. One exception —
                    // a resumed coordinator re-collecting exactly the
                    // round we last computed lost our contribution with
                    // its state, so contribute the cached raw share
                    // again (a copy the coordinator did keep is
                    // byte-identical and merely ignored).
                    if c.contribute_cached(iteration)? {
                        deadline = Instant::now() + patience;
                    }
                    continue;
                }
                if iteration > expected_iter {
                    return Err(protocol(format!(
                        "consensus skipped ahead to round {iteration} while expecting \
                         {expected_iter}"
                    )));
                }
                expected_iter = iteration + 1;
                let defecting = defect_after.is_some_and(|d| iteration >= d);
                if defecting && !c.backend.awaits_collect() {
                    // Scripted defection: the round is received (and was
                    // ACKed by the transport) but nothing goes back.
                    // Keep draining so the link stays warm until the
                    // coordinator drops us and the patience clock runs
                    // out.
                    deadline = Instant::now() + patience;
                    continue;
                }
                let epoch = c.epoch;
                telemetry::emit(party, EventKind::RoundOpen { iteration, epoch });
                let round_start = Instant::now();
                observe::injected_lag_sleep();
                c.last_raw = Some((iteration, learner.step(&consensus, &cfg.qp)?));
                c.contribute_cached(iteration)?;
                deadline = Instant::now() + patience;
                if defecting {
                    muted = true;
                } else if c.backend.awaits_collect() {
                    closing = Some((iteration, round_start));
                } else {
                    c.close_round(iteration, round_start);
                }
            }
            Message::Rekey {
                iteration,
                epoch,
                survivors,
            } => {
                if epoch <= c.epoch {
                    // Out-of-order or duplicated re-key; a newer one has
                    // already been applied.
                    continue;
                }
                if !survivors.contains(&party) {
                    return Err(protocol(format!(
                        "re-key for round {iteration} excludes this learner"
                    )));
                }
                c.adopt(iteration, epoch, &survivors);
                // A mid-collect re-key names the round we just sent for:
                // contribute the cached share again over the survivors.
                // A boundary re-key (rejoin admission) names the
                // *upcoming* round instead — nothing to re-send, the
                // consensus broadcast that follows carries the work.
                c.contribute_cached(iteration)?;
                deadline = Instant::now() + patience;
            }
            Message::Welcome {
                iteration,
                epoch,
                survivors,
                ..
            } => {
                // A coordinator resumed from a checkpoint re-introduces
                // itself mid-run. Only strictly newer epochs apply —
                // anything else is a stale or duplicated rendezvous
                // frame (equal-epoch duplicates still refresh patience:
                // the coordinator is demonstrably alive).
                if epoch < c.epoch {
                    continue;
                }
                deadline = Instant::now() + patience;
                if epoch == c.epoch {
                    continue;
                }
                if !survivors.contains(&party) {
                    return Err(protocol(format!(
                        "welcome for epoch {epoch} excludes this learner"
                    )));
                }
                // The restarted coordinator's sequence numbers start
                // over, but absorbing the Welcome already re-synced the
                // dedup watermark — and frames sent right behind the
                // Welcome may already sit in the inbox, so a reset_peer
                // here would destroy them.
                c.adopt(iteration, epoch, &survivors);
                // Never move backwards: a Welcome for a round we already
                // computed means the coordinator lost our contribution,
                // and the rebroadcast of that round is handled by the
                // stale-consensus path above.
                expected_iter = expected_iter.max(iteration);
            }
            _ if muted => continue,
            msg => {
                let frames = c.backend.on_frame(msg)?;
                if frames.is_empty() {
                    continue;
                }
                c.send(&frames)?;
                if let Some((iteration, round_start)) = closing.take() {
                    c.close_round(iteration, round_start);
                }
                deadline = Instant::now() + patience;
            }
        }
    }
}

/// [`learn`] over the HL learner side — what the public
/// [`crate::secagg::learn_linear_secagg`],
/// [`crate::secagg::learn_linear_secagg_with_defect`] and
/// [`crate::secagg::rejoin_linear_secagg`] run: builds the learner over
/// `data` and reads the final consensus as the linear model.
#[allow(clippy::too_many_arguments)]
pub(crate) fn learn_hl<T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    data: &Dataset,
    cfg: &AdmmConfig,
    timing: DistributedTiming,
    secagg: SecAggConfig,
    defect: Option<u64>,
    rejoin: bool,
) -> Result<LinearSvm> {
    // `learn` validates `cfg` before the learner takes a step.
    let hl = &mut HlLearner::new(data, learners, cfg)?;
    let mut zs = learn(courier, learners, hl, cfg, timing, secagg, defect, rejoin)?;
    let s = zs.pop().unwrap_or(0.0);
    Ok(LinearSvm::from_parts(zs, s))
}

/// Validates a set of horizontal partitions and returns the feature
/// count, for callers that need `features` before spawning a
/// coordinator. Re-exported from the trainer internals.
pub fn feature_count(parts: &[Dataset]) -> Result<usize> {
    validate_parts(parts)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::jobs::{train_linear_on_cluster, ClusterTuning};
    use crate::secagg::{
        coordinate_linear_secagg, learn_linear_secagg, learn_linear_secagg_with_defect,
        rejoin_linear_secagg,
    };
    use ppml_data::{synth, Partition};
    use ppml_transport::{LinkFilter, LoopbackHub, NetFaultPlan, RetryPolicy};
    use std::thread;
    use std::time::Duration;

    fn calm() -> DistributedTiming {
        DistributedTiming::default()
    }

    /// Tight clocks for fault tests: one deadline's worth of waiting per
    /// dropout, and learners that give up on a dead coordinator fast.
    fn twitchy() -> DistributedTiming {
        DistributedTiming::default()
            .with_round_deadline(Duration::from_millis(800))
            .with_learner_patience(Duration::from_secs(2))
    }

    pub(crate) struct DistRun {
        pub(crate) outcome: Result<DistributedOutcome>,
        pub(crate) finals: Vec<Result<LinearSvm>>,
    }

    pub(crate) fn run_with_faults(
        parts: &[Dataset],
        cfg: &AdmmConfig,
        faults: NetFaultPlan,
        timing: DistributedTiming,
    ) -> DistRun {
        run_with_policy(parts, cfg, faults, timing, RetryPolicy::fast_local())
    }

    /// [`run_with_faults`] with every party's courier on `policy`.
    fn run_with_policy(
        parts: &[Dataset],
        cfg: &AdmmConfig,
        faults: NetFaultPlan,
        timing: DistributedTiming,
        policy: RetryPolicy,
    ) -> DistRun {
        let pairwise = SecAggConfig::pairwise();
        let m = parts.len();
        let features = feature_count(parts).expect("partitions");
        let hub = LoopbackHub::with_faults(m + 1, faults);
        let mut handles = Vec::new();
        for (p, part) in parts.iter().enumerate() {
            let mut courier = Courier::new(hub.endpoint(p as PartyId), policy);
            let part = part.clone();
            let cfg = *cfg;
            handles.push(thread::spawn(move || {
                learn_linear_secagg(&mut courier, m, &part, &cfg, timing, pairwise)
            }));
        }
        let mut courier = Courier::new(hub.endpoint(m as PartyId), policy);
        let outcome =
            coordinate_linear_secagg(&mut courier, m, features, cfg, None, timing, pairwise);
        let finals = handles
            .into_iter()
            .map(|h| h.join().expect("learner thread"))
            .collect();
        DistRun { outcome, finals }
    }

    pub(crate) fn run_distributed(
        parts: &[Dataset],
        cfg: &AdmmConfig,
        faults: NetFaultPlan,
    ) -> (DistributedOutcome, Vec<LinearSvm>) {
        let run = run_with_faults(parts, cfg, faults, calm());
        (
            run.outcome.expect("coordinator"),
            run.finals
                .into_iter()
                .map(|f| f.expect("learner"))
                .collect(),
        )
    }

    /// In-process replica of a run where each `(party, round)` in `drops`
    /// stops contributing from `round` on. Mirrors the wire protocol's
    /// arithmetic exactly: per-round fixed-point encode, wrapping sum
    /// over the active set, decode, divide by the active count.
    fn reference_with_dropouts(
        parts: &[Dataset],
        cfg: &AdmmConfig,
        drops: &[(usize, u64)],
    ) -> LinearSvm {
        reference_with_membership(parts, cfg, drops, &[])
    }

    /// [`reference_with_dropouts`] plus re-admissions: each `(party,
    /// round)` in `rejoins` re-enters at `round` as a *fresh* process —
    /// new learner state, zeroed duals. `computed` gates the dual update
    /// per learner exactly as `dual_ready` does on the wire.
    pub(crate) fn reference_with_membership(
        parts: &[Dataset],
        cfg: &AdmmConfig,
        drops: &[(usize, u64)],
        rejoins: &[(usize, u64)],
    ) -> LinearSvm {
        let m = parts.len();
        let features = feature_count(parts).expect("partitions");
        let codec = ppml_crypto::FixedPointCodec::default();
        let mut learners: Vec<HlLearner> = parts
            .iter()
            .map(|p| HlLearner::new(p, m, cfg).expect("learner"))
            .collect();
        let mut computed = vec![false; m];
        let mut z = vec![0.0; features];
        let mut s = 0.0;
        for it in 0..cfg.max_iter as u64 {
            for &(p, r) in rejoins {
                if r == it {
                    learners[p] = HlLearner::new(&parts[p], m, cfg).expect("learner");
                    computed[p] = false;
                }
            }
            let active: Vec<usize> = (0..m)
                .filter(|&p| {
                    let gone = drops.iter().any(|&(dp, dr)| dp == p && it >= dr);
                    let back = rejoins.iter().any(|&(rp, rr)| rp == p && it >= rr);
                    !gone || back
                })
                .collect();
            let mut summed = vec![0u64; features + 1];
            for &p in &active {
                if computed[p] {
                    learners[p].dual_update(&z, s);
                }
                learners[p].local_step(&z, s, &cfg.qp).expect("qp");
                computed[p] = true;
                for (acc, v) in summed.iter_mut().zip(learners[p].share()) {
                    *acc = acc.wrapping_add(codec.encode_u64(v).expect("encode"));
                }
            }
            let z_new: Vec<f64> = summed[..features]
                .iter()
                .map(|&v| codec.decode_u64(v) / active.len() as f64)
                .collect();
            let s_new = codec.decode_u64(summed[features]) / active.len() as f64;
            let delta = ppml_linalg::vecops::dist_sq(&z_new, &z);
            z = z_new;
            s = s_new;
            if let Some(tol) = cfg.tol {
                if delta < tol {
                    break;
                }
            }
        }
        LinearSvm::from_parts(z, s)
    }

    #[test]
    fn distributed_matches_cluster_exactly() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(12).with_seed(11);

        let (outcome, finals) = run_distributed(&parts, &cfg, NetFaultPlan::none());
        let (reference, _) =
            train_linear_on_cluster(&parts, &cfg, None, ClusterTuning::default()).expect("cluster");

        // Fixed-point wrapping sums make the runs bit-identical.
        assert_eq!(outcome.model, reference.model);
        assert_eq!(outcome.history.z_delta, reference.history.z_delta);
        assert!(outcome.dropped.is_empty());
        // Every learner saw the same final consensus.
        for f in &finals {
            assert_eq!(*f, outcome.model);
        }
    }

    /// The seam is not HL-shaped: the same two drivers run the kernel
    /// trainer's learner side unchanged — consensus in the landmark
    /// space, so `features` is the landmark count — under every backend.
    #[test]
    fn kernel_learners_run_under_the_same_wire_drivers() {
        use crate::horizontal::kernel::{HkLearner, HorizontalKernelSvm};
        use crate::jobs::train_kernel_on_cluster;

        let ds = synth::cancer_like(150, 3);
        let (train, test) = ds.split(0.6, 4).expect("split");
        let parts = Partition::horizontal(&train, 3, 5).expect("partition");
        let cfg = AdmmConfig::default()
            .with_max_iter(8)
            .with_landmarks(6)
            .with_kernel(ppml_kernel::Kernel::Rbf { gamma: 1.0 / 9.0 })
            .with_seed(11);
        let (reference, _) =
            train_kernel_on_cluster(&parts, &cfg, None, ClusterTuning::default()).expect("cluster");
        let probes = |decision: &dyn Fn(&[f64]) -> f64| -> Vec<u64> {
            (0..8).map(|i| decision(test.sample(i)).to_bits()).collect()
        };

        let m = parts.len();
        let k = feature_count(&parts).expect("partitions");
        let landmarks = HorizontalKernelSvm::choose_landmarks(&parts, k, &cfg).expect("landmarks");
        for secagg in [
            SecAggConfig::pairwise(),
            SecAggConfig::shamir(),
            SecAggConfig::paillier(),
        ] {
            let hub = LoopbackHub::with_faults(m + 1, NetFaultPlan::none());
            let handles: Vec<_> = (0..m)
                .map(|p| {
                    let mut courier =
                        Courier::new(hub.endpoint(p as PartyId), RetryPolicy::fast_local());
                    let mut learner =
                        HkLearner::new(&parts[p], m, &landmarks, &cfg).expect("learner");
                    thread::spawn(move || {
                        let timing = calm();
                        learn(
                            &mut courier,
                            m,
                            &mut learner,
                            &cfg,
                            timing,
                            secagg,
                            None,
                            false,
                        )
                        .map(|_| learner)
                    })
                })
                .collect();
            let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
            let recovery = RecoveryOptions::default();
            let outcome = coordinate(
                &mut courier,
                m,
                landmarks.len(),
                &cfg,
                None,
                calm(),
                secagg,
                recovery,
            )
            .expect("coordinator");
            let learners: Vec<HkLearner> = handles
                .into_iter()
                .map(|h| h.join().expect("learner thread").expect("learner"))
                .collect();

            let case = secagg.kind;
            assert_eq!(outcome.history.z_delta, reference.history.z_delta, "{case}");
            let model = learners[0].model(&landmarks).expect("model");
            assert_eq!(
                probes(&|x| model.decision(x)),
                probes(&|x| reference.model.decision(x)),
                "{case}"
            );
        }
    }

    /// `(bytes_broadcast, bytes_shuffled)` of a pairwise run of `rounds`
    /// rounds over `m` learners on a clean network, where every frame is
    /// sent exactly once: the encoded frame sizes, computed offline.
    fn clean_run_bytes(features: usize, m: usize, rounds: usize) -> (usize, usize) {
        let consensus_len = |iteration: u64, done: bool| {
            Frame::encoded_len_of(&Message::Consensus {
                iteration,
                z: vec![0.0; features],
                s: vec![0.0],
                done,
            })
        };
        let share_len = Frame::encoded_len_of(&Message::MaskedShare {
            iteration: 0,
            epoch: 0,
            party: 0,
            payload: vec![0; features + 1],
        });
        let broadcast: usize = (0..rounds as u64)
            .map(|it| m * consensus_len(it, false))
            .sum::<usize>()
            + m * consensus_len(rounds as u64, true);
        (broadcast, rounds * m * share_len)
    }

    #[test]
    fn metrics_count_exact_frame_bytes() {
        let ds = synth::blobs(64, 1);
        let parts = Partition::horizontal(&ds, 2, 2).expect("partition");
        let features = feature_count(&parts).expect("partitions");
        let cfg = AdmmConfig::default().with_max_iter(6).with_seed(3);

        // A first ack window long enough that no host stall fires a
        // spurious retransmission: "sent exactly once" holds by design.
        let patient = RetryPolicy::new(6, Duration::from_millis(500), Duration::from_secs(1));
        let outcome = run_with_policy(&parts, &cfg, NetFaultPlan::none(), calm(), patient)
            .outcome
            .expect("coordinator");
        let (broadcast, shuffled) =
            clean_run_bytes(features, parts.len(), outcome.metrics.iterations);
        assert_eq!(outcome.metrics.bytes_broadcast, broadcast);
        assert_eq!(outcome.metrics.bytes_shuffled, shuffled);
        assert_eq!(outcome.metrics.total_network_bytes(), broadcast + shuffled);
    }

    #[test]
    fn survives_dropped_shares_and_broadcasts() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(12).with_seed(11);

        let (clean, _) = run_distributed(&parts, &cfg, NetFaultPlan::none());
        // Drop the first two shares from learner 1 and two coordinator
        // frames toward learner 0; the ARQ retransmits both directions.
        let share_kind = Message::MaskedShare {
            iteration: 0,
            epoch: 0,
            party: 0,
            payload: Vec::new(),
        }
        .kind();
        let faults = NetFaultPlan::none()
            .drop_frames(LinkFilter::any().from(1).kind(share_kind), 2)
            .drop_frames(LinkFilter::any().from(3).to(0), 2);
        let (lossy, finals) = run_distributed(&parts, &cfg, faults);

        assert_eq!(lossy.model, clean.model);
        assert!(lossy.dropped.is_empty(), "transient loss is not dropout");
        for f in &finals {
            assert_eq!(*f, clean.model);
        }
        // Retransmissions cost bytes: the lossy run is dearer than the
        // closed-form clean total (not than the clean *run*, which may
        // itself retransmit under load).
        let features = feature_count(&parts).expect("partitions");
        let (broadcast, shuffled) =
            clean_run_bytes(features, parts.len(), lossy.metrics.iterations);
        assert!(lossy.metrics.total_network_bytes() > broadcast + shuffled);
    }

    #[test]
    fn killed_learner_is_dropped_and_survivors_finish() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(6).with_seed(11);

        // Learner 1 dies after its round-0 and round-1 shares: the
        // coordinator's round-2 broadcast to it exhausts its retries, so
        // the drop is detected in the *broadcast* phase.
        let faults = NetFaultPlan::none().kill_party_after(1, 2);
        let run = run_with_faults(&parts, &cfg, faults, twitchy());

        let outcome = run.outcome.expect("survivors must finish");
        assert_eq!(outcome.dropped, vec![1]);
        // Bit-identical to an in-process run that loses party 1 at round 2.
        let reference = reference_with_dropouts(&parts, &cfg, &[(1, 2)]);
        assert_eq!(outcome.model, reference);
        // Survivors converge to the same model; the dead learner errors.
        assert_eq!(*run.finals[0].as_ref().expect("survivor 0"), outcome.model);
        assert_eq!(*run.finals[2].as_ref().expect("survivor 2"), outcome.model);
        assert!(matches!(run.finals[1], Err(TrainError::Transport(_))));
    }

    #[test]
    fn silent_learner_is_dropped_at_the_round_deadline() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(6).with_seed(11);

        // Learner 1 stays reachable (its acks flow) but its share frames
        // from round 2 on never arrive: data seqs on the learner→
        // coordinator link count 1, 2, 3…, so pinning seq ≥ 3 kills
        // exactly the round-2 share and everything after. The drop is
        // detected by the round deadline in the *collect* phase.
        let share_kind = Message::MaskedShare {
            iteration: 0,
            epoch: 0,
            party: 0,
            payload: Vec::new(),
        }
        .kind();
        let faults = NetFaultPlan::none().drop_frames(
            LinkFilter::any()
                .from(1)
                .to(3)
                .kind(share_kind)
                .seq_at_least(3),
            u32::MAX,
        );
        let run = run_with_faults(&parts, &cfg, faults, twitchy());

        let outcome = run.outcome.expect("survivors must finish");
        assert_eq!(outcome.dropped, vec![1]);
        let reference = reference_with_dropouts(&parts, &cfg, &[(1, 2)]);
        assert_eq!(outcome.model, reference);
        assert_eq!(*run.finals[0].as_ref().expect("survivor 0"), outcome.model);
        assert_eq!(*run.finals[2].as_ref().expect("survivor 2"), outcome.model);
        // The silenced learner's own send eventually times out.
        assert!(matches!(run.finals[1], Err(TrainError::Transport(_))));
    }

    #[test]
    fn double_dropout_shrinks_to_a_single_survivor() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(6).with_seed(11);

        // Learner 1 dies at round 2 (after 2 countable frames). Learner 2
        // then sends share(2) twice (pre- and post-re-key) and share(3) —
        // five countable frames — before dying at round 4, leaving
        // learner 0 to finish alone with bare (unmasked-by-pairs) shares.
        let faults = NetFaultPlan::none()
            .kill_party_after(1, 2)
            .kill_party_after(2, 5);
        let run = run_with_faults(&parts, &cfg, faults, twitchy());

        let outcome = run.outcome.expect("last survivor must finish");
        assert_eq!(outcome.dropped, vec![1, 2]);
        let reference = reference_with_dropouts(&parts, &cfg, &[(1, 2), (2, 4)]);
        assert_eq!(outcome.model, reference);
        assert_eq!(*run.finals[0].as_ref().expect("survivor 0"), outcome.model);
        assert!(matches!(run.finals[1], Err(TrainError::Transport(_))));
        assert!(matches!(run.finals[2], Err(TrainError::Transport(_))));
    }

    #[test]
    fn scripted_defection_is_dropped_like_a_real_fault() {
        let pairwise = SecAggConfig::pairwise();
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(6).with_seed(11);
        let timing = twitchy();

        // Learner 1 runs `learn_linear_secagg_with_defect(.., pairwise, 2)`: correct for
        // rounds 0 and 1, then silent-but-ACKing. No network faults at
        // all — the dropout is entirely scripted, so the coordinator
        // must detect it via the round deadline and the result must be
        // bit-identical to losing party 1 at round 2 for real.
        let m = parts.len();
        let features = feature_count(&parts).expect("partitions");
        let hub = LoopbackHub::with_faults(m + 1, NetFaultPlan::none());
        let mut handles = Vec::new();
        for (p, part) in parts.iter().enumerate() {
            let mut courier = Courier::new(hub.endpoint(p as PartyId), RetryPolicy::fast_local());
            let part = part.clone();
            handles.push(thread::spawn(move || {
                if p == 1 {
                    learn_linear_secagg_with_defect(
                        &mut courier,
                        m,
                        &part,
                        &cfg,
                        timing,
                        pairwise,
                        2,
                    )
                } else {
                    learn_linear_secagg(&mut courier, m, &part, &cfg, timing, pairwise)
                }
            }));
        }
        let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
        let outcome =
            coordinate_linear_secagg(&mut courier, m, features, &cfg, None, timing, pairwise)
                .expect("survivors");
        let finals: Vec<Result<LinearSvm>> = handles
            .into_iter()
            .map(|h| h.join().expect("learner thread"))
            .collect();

        assert_eq!(outcome.dropped, vec![1]);
        let reference = reference_with_dropouts(&parts, &cfg, &[(1, 2)]);
        assert_eq!(outcome.model, reference);
        assert_eq!(*finals[0].as_ref().expect("survivor 0"), outcome.model);
        assert_eq!(*finals[2].as_ref().expect("survivor 2"), outcome.model);
        // The defector drains until the coordinator goes quiet on it,
        // then exits on its patience clock.
        assert!(matches!(finals[1], Err(TrainError::Transport(_))));
    }

    #[test]
    fn learners_error_out_when_the_coordinator_dies() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(8).with_seed(11);

        // The coordinator dies mid-broadcast of round 1 (3 consensus
        // frames for round 0 plus two for round 1). Nobody may hang: the
        // coordinator fails to re-key anyone and reports total dropout;
        // the learners hit either a send retry budget or their patience.
        let faults = NetFaultPlan::none().kill_party_after(3, 5);
        let run = run_with_faults(&parts, &cfg, faults, twitchy());

        assert!(
            matches!(run.outcome, Err(TrainError::Dropped { ref parties }) if parties.len() == 3),
            "coordinator must report losing everyone, got {:?}",
            run.outcome.as_ref().map(|_| ())
        );
        for f in &run.finals {
            assert!(
                matches!(f, Err(TrainError::Transport(_))),
                "learner must exit with a transport error, not hang"
            );
        }
    }

    #[test]
    fn learner_ignores_stale_consensus_rebroadcasts() {
        let ds = synth::blobs(48, 7);
        let parts = Partition::horizontal(&ds, 1, 2).expect("partition");
        let part = parts[0].clone();
        let features = feature_count(&parts).expect("partitions");
        let cfg = AdmmConfig::default().with_max_iter(4).with_seed(5);

        let hub = LoopbackHub::new(2);
        let mut learner_courier = Courier::new(hub.endpoint(0), RetryPolicy::fast_local());
        let timing = calm();
        let cfg_l = cfg;
        let handle = thread::spawn(move || {
            learn_linear_secagg(
                &mut learner_courier,
                1,
                &part,
                &cfg_l,
                timing,
                SecAggConfig::pairwise(),
            )
        });

        let mut c = Courier::new(hub.endpoint(1), RetryPolicy::fast_local());
        let consensus = |iteration: u64, z: Vec<f64>, s: f64, done: bool| Message::Consensus {
            iteration,
            z,
            s: vec![s],
            done,
        };
        let recv_share = |c: &mut Courier<_>| loop {
            let env = c.recv(Duration::from_secs(5)).expect("share");
            match env.msg {
                Message::Heartbeat { .. } => continue,
                Message::MaskedShare {
                    iteration, epoch, ..
                } => break (iteration, epoch),
                other => panic!("unexpected frame: {other:?}"),
            }
        };

        c.send_reliable(0, &consensus(0, vec![0.0; features], 0.0, false))
            .expect("round 0");
        assert_eq!(recv_share(&mut c), (0, 0));
        c.send_reliable(0, &consensus(1, vec![0.1; features], 0.05, false))
            .expect("round 1");
        assert_eq!(recv_share(&mut c), (1, 0));
        // A stale re-broadcast of round 0 with a fresh sequence number —
        // the ARQ dedup cannot flag it, only the learner's own iteration
        // tracking can. Sent only once share (1, 0) is in hand: while
        // round 0 is still the learner's last computed round a duplicate
        // of it is answered from the cache by design (the resumed-
        // coordinator path), so the order must be causal, not timed.
        c.send_unreliable(0, &consensus(0, vec![0.0; features], 0.0, false))
            .expect("stale duplicate");
        // The ignored duplicate must not produce a third share. Heartbeats
        // may arrive while we listen (a loaded host stretches the learner's
        // wait past its heartbeat interval); only a share is a failure.
        let quiet_until = Instant::now() + Duration::from_millis(300);
        while let Some(left) = quiet_until.checked_duration_since(Instant::now()) {
            match c.recv(left) {
                Ok(env) => assert!(
                    !matches!(env.msg, Message::MaskedShare { .. }),
                    "stale consensus must not re-trigger a share"
                ),
                Err(TransportError::Timeout) => break,
                Err(e) => panic!("coordinator endpoint failed: {e}"),
            }
        }
        c.send_reliable(0, &consensus(2, vec![0.2; features], 0.1, true))
            .expect("done");
        let model = handle.join().expect("learner thread").expect("learner");
        assert_eq!(model, LinearSvm::from_parts(vec![0.2; features], 0.1));
    }

    /// Checkpoint → kill → resume under every backend, each held to the
    /// same bit-identical uninterrupted reference. `kill_after` counts
    /// the coordinator's protocol frames: every case lets rounds 0 and 1
    /// be accepted and checkpointed, then kills the coordinator either
    /// right behind its round-2 broadcasts (the first-phase frames never
    /// reach it) or one frame into its round-2 second phase — so a
    /// learner answers a `ShamirCollect`/`CipherAgg` the dead incarnation
    /// sent, and the resumed one must fence that reply as stale.
    #[test]
    fn coordinator_crash_resume_reproduces_the_uninterrupted_run() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(6).with_seed(11);
        let m = parts.len();
        let features = feature_count(&parts).expect("partitions");
        let timing = DistributedTiming::default()
            .with_round_deadline(Duration::from_secs(1))
            .with_learner_patience(Duration::from_secs(20));

        let (clean, _) = run_distributed(&parts, &cfg, NetFaultPlan::none());

        // Coordinator frames per round: 3 broadcasts, plus 3 relays
        // (shamir) or 1 aggregate (paillier).
        let cases = [
            (SecAggConfig::pairwise(), 9),
            (SecAggConfig::shamir(), 15),
            (SecAggConfig::shamir(), 16),
            (SecAggConfig::paillier(), 11),
            (SecAggConfig::paillier(), 12),
        ];
        for (secagg, kill_after) in cases {
            let case = format!("{}/kill after {kill_after}", secagg.kind);
            let ckpt_path = std::env::temp_dir().join(format!(
                "ppml-resume-test-{}-{}-{kill_after}.ckpt",
                std::process::id(),
                secagg.kind
            ));
            let _ = std::fs::remove_file(&ckpt_path);

            let faults = NetFaultPlan::none().kill_party_after(m as PartyId, kill_after);
            let hub = LoopbackHub::with_faults(m + 1, faults);
            let mut handles = Vec::new();
            for (p, part) in parts.iter().enumerate() {
                let mut courier =
                    Courier::new(hub.endpoint(p as PartyId), RetryPolicy::fast_local());
                let part = part.clone();
                handles.push(thread::spawn(move || {
                    learn_hl(&mut courier, m, &part, &cfg, timing, secagg, None, false)
                }));
            }
            let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
            let crashed = coordinate(
                &mut courier,
                m,
                features,
                &cfg,
                None,
                timing,
                secagg,
                RecoveryOptions::default().with_checkpoint(&ckpt_path),
            );
            assert!(
                matches!(crashed, Err(TrainError::Dropped { .. })),
                "{case}: the dying incarnation must fail, got {:?}",
                crashed.map(|_| ())
            );

            // "Restart": heal the network, load the checkpoint, resume on
            // a fresh endpoint — fresh sequence numbers and empty dedup
            // state, exactly what a new OS process would have.
            hub.set_faults(NetFaultPlan::none());
            let ckpt = Checkpoint::load(&ckpt_path).expect("crash left a complete checkpoint");
            assert_eq!(
                ckpt.next_round, 2,
                "{case}: rounds 0 and 1 were accepted before the crash"
            );
            assert_eq!(ckpt.alive, vec![0, 1, 2], "{case}");
            let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
            let outcome = coordinate(
                &mut courier,
                m,
                features,
                &cfg,
                None,
                timing,
                secagg,
                RecoveryOptions::default()
                    .with_checkpoint(&ckpt_path)
                    .with_resume(ckpt),
            )
            .unwrap_or_else(|e| panic!("{case}: resumed run failed: {e}"));
            let _ = std::fs::remove_file(&ckpt_path);

            // Bit-identical to the run that never crashed: learners that
            // had already computed the re-collected round re-contribute
            // their cached raw share, so every round sum — and hence
            // every iterate — is reproduced exactly.
            assert_eq!(outcome.history.z_delta, clean.history.z_delta, "{case}");
            assert_eq!(outcome.model, clean.model, "{case}");
            assert!(outcome.dropped.is_empty(), "{case}: {:?}", outcome.dropped);
            for h in handles {
                let f = h
                    .join()
                    .expect("learner thread")
                    .unwrap_or_else(|e| panic!("{case}: learner lost the restart: {e}"));
                assert_eq!(f, outcome.model, "{case}");
            }
        }
    }

    #[test]
    fn rejoining_learner_is_readmitted_with_a_rekey() {
        let pairwise = SecAggConfig::pairwise();
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(6).with_seed(11);
        let timing = DistributedTiming::default()
            .with_round_deadline(Duration::from_millis(800))
            .with_learner_patience(Duration::from_secs(4));
        let m = parts.len();
        let features = feature_count(&parts).expect("partitions");
        let hub = LoopbackHub::with_faults(m + 1, NetFaultPlan::none());
        let mut handles = Vec::new();
        for (p, part) in parts.iter().enumerate() {
            let mut courier = Courier::new(hub.endpoint(p as PartyId), RetryPolicy::fast_local());
            let part = part.clone();
            handles.push(thread::spawn(move || {
                if p == 1 {
                    // A "restarted process": knows nothing of the run and
                    // asks back in via Join. The coordinator misses its
                    // round-0 share at the deadline, drops it, then
                    // re-admits it at the round-1 boundary.
                    rejoin_linear_secagg(&mut courier, m, &part, &cfg, timing, pairwise)
                } else {
                    learn_linear_secagg(&mut courier, m, &part, &cfg, timing, pairwise)
                }
            }));
        }
        let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
        let outcome =
            coordinate_linear_secagg(&mut courier, m, features, &cfg, None, timing, pairwise)
                .expect("coordinator");
        let finals: Vec<Result<LinearSvm>> = handles
            .into_iter()
            .map(|h| h.join().expect("learner thread"))
            .collect();

        // Round 0 runs over {0, 2}; from round 1 on, all three — with
        // the rejoiner entering as a fresh learner with zeroed duals,
        // exactly like the in-process membership reference.
        let reference = reference_with_membership(&parts, &cfg, &[(1, 0)], &[(1, 1)]);
        assert_eq!(outcome.model, reference);
        assert!(
            outcome.dropped.is_empty(),
            "re-admission must clear the dropout record, got {:?}",
            outcome.dropped
        );
        for f in &finals {
            assert_eq!(*f.as_ref().expect("every learner finishes"), outcome.model);
        }
    }
}
