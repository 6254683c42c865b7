//! Pluggable secure-aggregation backends for distributed training
//! (ISSUE 8), behind a **per-round** contract (ISSUE 13).
//!
//! In the paper the §V secure summation is a *step inside* every
//! iterative-MapReduce round: mappers contribute, the reducer sees only
//! the sum, the consensus update follows. This module is exactly that
//! step. A backend is its crypto and its frame shapes, split in two
//! halves:
//!
//! * a **coordinator half** (`CoordinatorHalf`) with three verbs —
//!   `open(round, epoch)`, `absorb(from, frame) → Accepted | Stale`
//!   (or a [`TrainError::Protocol`]), and
//!   `advance(roster) → Send(frames) | Sum{values, divisor} |
//!   Lost(parties) | Abort`;
//! * a **learner half** (`LearnerHalf`) — `contribute(round, epoch,
//!   roster, raw) → frames`, a pure function of its inputs and the run
//!   seed, and `on_frame(frame) → frames` for the coordinator's
//!   second-phase frames.
//!
//! Everything else — roster, deadlines, dropout, re-key, rejoin,
//! checkpoint/resume, telemetry, byte accounting, the consensus update —
//! is owned by the ONE coordinator driver and ONE learner driver in
//! [`crate::distributed`], so it exists once and covers every backend.
//! The in-process trainers run the same halves with every party alive
//! and their frames handed over in memory (`in_memory`), so the sum the
//! in-process tests examine is the sum the wire ships.
//!
//! * **`pairwise`** — the §V default. Masks cancel only over the exact
//!   survivor set, so a membership change invalidates sent shares: the
//!   one backend that asks the driver to re-key
//!   ([`ppml_transport::Message::Rekey`], one extra round trip).
//! * **`shamir`** — `t`-of-`m` Shamir threshold sharing over GF(2⁶¹−1).
//!   Each learner splits its share across the *original* roster and the
//!   coordinator relays blinded share blocks, so a learner that dies
//!   mid-collect (after distributing, before submitting) costs **no
//!   re-key round** and its input still lands in the round sum —
//!   reconstruction needs any `t` survivors.
//! * **`paillier`** — additively homomorphic encryption. The
//!   coordinator folds ciphertexts with only the public key; learner 0
//!   acts as the key authority and decrypts the aggregate alone. The
//!   expensive baseline the paper's masking protocol is designed to
//!   avoid, here as a live wire protocol for comparison (`secagg_bench`
//!   quantifies the gap).
//!
//! # Wire shapes per round
//!
//! | backend | learner → coordinator | coordinator → learner |
//! |---|---|---|
//! | pairwise | `MaskedShare` | `Consensus` (+ `Rekey` on dropout) |
//! | shamir | `ShamirDist`, then `Shares` | `Consensus`, `ShamirCollect` |
//! | paillier | `CipherShare` (authority also `CipherSum`) | `Consensus` (authority also `CipherAgg`) |
//!
//! # The fence rule
//!
//! Pairwise shares carry the re-key epoch, so anything sent for an
//! earlier survivor set — or to a crashed coordinator incarnation — is
//! recognizably stale. The other backends' frames carry no epoch; their
//! second-phase frames are fenced by *phase* instead: a `Shares` or
//! `CipherSum` of the current round that arrives before this
//! coordinator incarnation has sent that round's `ShamirCollect` /
//! `CipherAgg` answers a dead predecessor's request and is dropped as
//! stale, never an error. First-phase frames need no fence: `contribute`
//! is deterministic, so a re-sent copy is byte-identical.
//!
//! # Shamir round anatomy
//!
//! 1. Every learner Shamir-splits each fixed-point coordinate `t`-of-`m`
//!    (share `x = party + 1`), keeps its own block, blinds each peer
//!    block with a deterministic ordered-pair pad stream, and sends the
//!    blinded blocks to the coordinator in one [`ShamirDist`] frame.
//! 2. At the round deadline the coordinator fixes the contributor set
//!    `C` (absentees are dropped — **no re-key frame**, the remaining
//!    shares stay valid) and relays to each `p ∈ C` the blocks destined
//!    for it ([`ShamirCollect`]). The pads keep the relayed shares
//!    opaque to the coordinator; `t − 1` colluding learners still learn
//!    nothing about another learner's input.
//! 3. Survivors unblind, field-sum (a sum of shares at one `x` is a
//!    share of the sum, by linearity), and submit via [`Shares`]. The
//!    coordinator Lagrange-reconstructs from the first `t` submissions
//!    and divides by `|C|`. A learner dying between distribution and
//!    submission therefore still contributes its input to the round.
//!
//! Because GF(2⁶¹−1) sums of [`FixedPointCodec::encode_field`] values decode
//! to exactly the integer the pairwise path computes in `Z_{2⁶⁴}`, a
//! shamir run is **bit-identical** to the pairwise run with the same
//! membership schedule — the tests below assert exact equality.
//!
//! # Paillier round anatomy
//!
//! All learners derive the run keypair deterministically from
//! `cfg.seed`; the coordinator derives (and keeps) only the public half,
//! so it can fold but never decrypt. Per round each learner encrypts its
//! fixed-point coordinates ([`CipherShare`]); the coordinator multiplies
//! the ciphertexts coordinate-wise and sends the aggregate to learner 0
//! ([`CipherAgg`]), which decrypts the *sum* only and replies with the
//! decoded totals ([`CipherSum`]). Absent contributors are dropped with
//! no re-key; losing the authority — including a `CipherSum` that never
//! arrives within the round deadline — ends the run with
//! [`TrainError::Dropped`].
//!
//! [`ShamirDist`]: ppml_transport::Message::ShamirDist
//! [`ShamirCollect`]: ppml_transport::Message::ShamirCollect
//! [`Shares`]: ppml_transport::Message::Shares
//! [`CipherShare`]: ppml_transport::Message::CipherShare
//! [`CipherAgg`]: ppml_transport::Message::CipherAgg
//! [`CipherSum`]: ppml_transport::Message::CipherSum

use ppml_crypto::shamir::{self, MODULUS};
use ppml_crypto::{FixedPointCodec, Paillier, PaillierPublicKey};
use ppml_data::rng::Rng64;
use ppml_data::Dataset;
use ppml_svm::LinearSvm;
use ppml_transport::{Courier, Message, PartyId, Transport};

use crate::config::{AdmmConfig, DistributedTiming};
use crate::distributed::{coordinate, learn_hl, protocol, DistributedOutcome, RecoveryOptions};
use crate::error::TrainError;
use crate::masks::{mix64, SeededMasker};
use crate::Result;

/// Which secure-aggregation protocol a distributed run speaks.
///
/// The string forms (`pairwise` / `shamir` / `paillier`) are shared by
/// the `--secagg` CLI flag, the `PPML_SECAGG` environment variable and
/// the telemetry backend labels ([`ppml_telemetry::BACKENDS`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SecAggKind {
    /// §V pairwise masking with re-keying on dropout (the default).
    #[default]
    Pairwise,
    /// `t`-of-`m` Shamir threshold sharing; dropout needs no re-key.
    Shamir,
    /// Paillier additively homomorphic aggregation via a key authority.
    Paillier,
}

impl SecAggKind {
    /// Canonical lowercase name (also the telemetry backend label).
    pub fn as_str(self) -> &'static str {
        match self {
            SecAggKind::Pairwise => "pairwise",
            SecAggKind::Shamir => "shamir",
            SecAggKind::Paillier => "paillier",
        }
    }
}

impl std::fmt::Display for SecAggKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for SecAggKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "pairwise" => Ok(SecAggKind::Pairwise),
            "shamir" => Ok(SecAggKind::Shamir),
            "paillier" => Ok(SecAggKind::Paillier),
            other => Err(format!(
                "unknown secure-aggregation backend {other:?} (expected pairwise, shamir or \
                 paillier)"
            )),
        }
    }
}

/// Backend selection plus its knobs, shared by coordinator and learners
/// (all parties must agree, like [`AdmmConfig`] itself).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SecAggConfig {
    /// The protocol to speak.
    pub kind: SecAggKind,
    /// Shamir reconstruction threshold `t`; `None` picks
    /// `max(2, ⌈2m/3⌉)` clamped to `m`. Rejected for other backends.
    pub threshold: Option<usize>,
}

impl SecAggConfig {
    /// Config for `kind` with default knobs.
    pub fn new(kind: SecAggKind) -> Self {
        SecAggConfig {
            kind,
            threshold: None,
        }
    }

    /// The §V pairwise default.
    pub fn pairwise() -> Self {
        Self::new(SecAggKind::Pairwise)
    }

    /// Shamir threshold sharing with the default threshold.
    pub fn shamir() -> Self {
        Self::new(SecAggKind::Shamir)
    }

    /// Paillier homomorphic aggregation.
    pub fn paillier() -> Self {
        Self::new(SecAggKind::Paillier)
    }

    /// Overrides the Shamir threshold (validated against the roster at
    /// run start).
    #[must_use]
    pub fn with_threshold(mut self, threshold: usize) -> Self {
        self.threshold = Some(threshold);
        self
    }

    /// The reconstruction threshold a run over `learners` parties uses:
    /// the explicit override, else `max(2, ⌈2·learners/3⌉)` clamped to
    /// the roster size.
    pub fn effective_threshold(&self, learners: usize) -> usize {
        self.threshold
            .unwrap_or_else(|| ((2 * learners).div_ceil(3)).max(2))
            .min(learners.max(1))
    }

    /// Checks the config against a roster of `learners` parties.
    ///
    /// # Errors
    ///
    /// [`TrainError::BadConfig`] when a threshold is supplied for a
    /// non-Shamir backend or falls outside `1..=learners`.
    pub fn validate(&self, learners: usize) -> Result<()> {
        if let Some(t) = self.threshold {
            if self.kind != SecAggKind::Shamir {
                return Err(TrainError::BadConfig {
                    reason: format!(
                        "--secagg-threshold only applies to the shamir backend, not {}",
                        self.kind
                    ),
                });
            }
            if t < 1 || t > learners {
                return Err(TrainError::BadConfig {
                    reason: format!("shamir threshold {t} out of range 1..={learners}"),
                });
            }
        }
        Ok(())
    }

    /// This config's coordinator half for a run over `learners` parties
    /// whose shares are `share_len` long.
    pub(crate) fn coordinator_half(
        &self,
        learners: usize,
        share_len: usize,
        cfg: &AdmmConfig,
    ) -> Result<Box<dyn CoordinatorHalf>> {
        self.validate(learners)?;
        Ok(match self.kind {
            SecAggKind::Pairwise => Box::new(PairwiseCoordinator {
                share_len,
                round: 0,
                epoch: 0,
                shares: vec![None; learners],
            }),
            SecAggKind::Shamir => Box::new(ShamirCoordinator {
                share_len,
                threshold: self.effective_threshold(learners),
                round: 0,
                dists: vec![None; learners],
                contributors: None,
                subs: vec![None; learners],
            }),
            // The run keypair is derived only to clone its public half:
            // from here on the coordinator *cannot* decrypt, by
            // construction — folding needs nothing but `pk`.
            SecAggKind::Paillier => Box::new(PaillierCoordinator {
                share_len,
                pk: Paillier::keygen(PAILLIER_BITS, &mut keygen_rng(cfg.seed))?
                    .public_key()
                    .clone(),
                round: 0,
                cts: vec![None; learners],
                contributors: None,
                authority_defected: false,
                sums: None,
            }),
        })
    }

    /// This config's learner half for `party` of `learners`.
    pub(crate) fn learner_half(
        &self,
        party: usize,
        learners: usize,
        cfg: &AdmmConfig,
    ) -> Result<Box<dyn LearnerHalf>> {
        self.validate(learners)?;
        Ok(match self.kind {
            SecAggKind::Pairwise => Box::new(PairwiseLearner {
                party: party as PartyId,
                masker: SeededMasker::new(cfg.seed, party, learners),
            }),
            SecAggKind::Shamir => Box::new(ShamirLearner {
                seed: cfg.seed,
                me: party,
                m: learners,
                threshold: self.effective_threshold(learners),
                held: None,
            }),
            // Every learner derives the full keypair from the run seed;
            // only party 0 ever *uses* the private half (`on_frame`).
            SecAggKind::Paillier => Box::new(PaillierLearner {
                seed: cfg.seed,
                me: party,
                keypair: Paillier::keygen(PAILLIER_BITS, &mut keygen_rng(cfg.seed))?,
                codec: FixedPointCodec::default(),
            }),
        })
    }
}

/// Coordinator entry point with backend selection: drives party
/// `learners` of a distributed HL-SVM run end to end. `features` is the
/// shared feature count `k` (shares are `k + 1` long).
///
/// # Errors
///
/// [`TrainError::Dropped`] when every learner dies — or, on a backend
/// without re-keying, as soon as the survivor set can no longer complete
/// a round (fewer than `t` Shamir contributors, the Paillier authority
/// lost); [`TrainError::Transport`] on non-timeout fabric failures;
/// [`TrainError::Protocol`] on malformed or out-of-round frames; plus
/// the usual configuration errors. A learner that merely times out is
/// not an error: it is dropped and training continues on the survivors
/// (reported in [`DistributedOutcome::dropped`]).
pub fn coordinate_linear_secagg<T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    features: usize,
    cfg: &AdmmConfig,
    eval: Option<&Dataset>,
    timing: DistributedTiming,
    secagg: SecAggConfig,
) -> Result<DistributedOutcome> {
    let recovery = RecoveryOptions::default();
    coordinate(
        courier, learners, features, cfg, eval, timing, secagg, recovery,
    )
}

/// [`coordinate_linear_secagg`] with crash recovery: optional per-round
/// checkpoint writes and optional resume from a checkpoint (see
/// [`RecoveryOptions`]). Recovery lives in the driver, so it works under
/// every backend. Mid-run [`Message::Join`] probes from restarted
/// learners are honored either way — re-admission happens at the next
/// round boundary.
///
/// # Errors
///
/// As [`coordinate_linear_secagg`], plus [`TrainError::Checkpoint`] when
/// a checkpoint cannot be written or the resume checkpoint does not
/// match this run's `learners`/`features`/`seed`.
#[allow(clippy::too_many_arguments)]
pub fn coordinate_linear_secagg_with_recovery<T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    features: usize,
    cfg: &AdmmConfig,
    eval: Option<&Dataset>,
    timing: DistributedTiming,
    secagg: SecAggConfig,
    recovery: RecoveryOptions,
) -> Result<DistributedOutcome> {
    coordinate(
        courier, learners, features, cfg, eval, timing, secagg, recovery,
    )
}

/// Learner entry point with backend selection: drives one party in
/// `0..learners` over its horizontal partition `data`. Blocks until the
/// coordinator (party `learners`) sends the `done` broadcast, then
/// returns the consensus model it carried.
///
/// # Errors
///
/// [`TrainError::Transport`] when the coordinator goes quiet past
/// [`DistributedTiming::learner_patience`] (heartbeats do not count as
/// liveness) or a send exhausts its retries, [`TrainError::Protocol`]
/// on unexpected frames, plus the partition/config errors of the
/// in-process trainer.
pub fn learn_linear_secagg<T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    data: &Dataset,
    cfg: &AdmmConfig,
    timing: DistributedTiming,
    secagg: SecAggConfig,
) -> Result<LinearSvm> {
    learn_hl(courier, learners, data, cfg, timing, secagg, None, false)
}

/// Re-admission variant of [`learn_linear_secagg`] for a restarted
/// learner process: probes the coordinator with [`Message::Join`] until
/// it answers with a [`Message::Welcome`], then participates from the
/// granted round onward. The rejoiner warm-starts with zeroed duals (see
/// `DESIGN.md` §8 for the convergence impact). Under pairwise the §V
/// re-key on admission makes its masks valid for the enlarged survivor
/// set; under shamir and paillier re-admission needs no re-key at all.
/// Either way it learns nothing about the rounds it missed.
///
/// # Errors
///
/// [`TrainError::Transport`] with a timeout when no Welcome arrives
/// within [`DistributedTiming::learner_patience`]; otherwise as
/// [`learn_linear_secagg`].
pub fn rejoin_linear_secagg<T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    data: &Dataset,
    cfg: &AdmmConfig,
    timing: DistributedTiming,
    secagg: SecAggConfig,
) -> Result<LinearSvm> {
    learn_hl(courier, learners, data, cfg, timing, secagg, None, true)
}

/// Fault-injection variant of [`learn_linear_secagg`]: behaves
/// correctly for rounds `0..defect_after`, then drops out at the
/// backend's characteristic loss point while still draining (and
/// thereby ACKing) every frame — so the coordinator's broadcasts still
/// succeed and the dropout can only be detected by the round deadline,
/// producing the canonical DeadlineMiss → Dropout sequence on the
/// coordinator's stream:
///
/// * **pairwise** — stops sending [`MaskedShare`] from round
///   `defect_after` on (the round excludes the defector after a re-key);
/// * **shamir** — still *distributes* its round-`defect_after` shares
///   but never submits its summed share: the canonical mid-collect
///   death, whose round-`defect_after` input still lands in the sum;
/// * **paillier** — stops sending [`CipherShare`] from round
///   `defect_after` on (the authority keeps answering [`CipherAgg`] so
///   a defecting learner 0 does not wedge the run).
///
/// # Errors
///
/// The expected exit is [`TrainError::Transport`] with a timeout once
/// the coordinator drops this learner; otherwise as
/// [`learn_linear_secagg`].
///
/// [`MaskedShare`]: ppml_transport::Message::MaskedShare
/// [`CipherShare`]: ppml_transport::Message::CipherShare
/// [`CipherAgg`]: ppml_transport::Message::CipherAgg
pub fn learn_linear_secagg_with_defect<T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    data: &Dataset,
    cfg: &AdmmConfig,
    timing: DistributedTiming,
    secagg: SecAggConfig,
    defect_after: u64,
) -> Result<LinearSvm> {
    let defect = Some(defect_after);
    learn_hl(courier, learners, data, cfg, timing, secagg, defect, false)
}

// ---------------------------------------------------------------------
// The per-round contract. A backend is its crypto and its frame shapes;
// the drivers in `crate::distributed` own everything else (see the
// module docs for the split).

/// Verdict on one frame handed to [`CoordinatorHalf::absorb`].
#[derive(Debug, PartialEq)]
pub(crate) enum Absorbed {
    /// Part of the round: the driver charges its bytes, and — when the
    /// frame completes `scored`'s contribution — records that party's
    /// collect lag for the straggler scorer.
    Accepted { scored: Option<PartyId> },
    /// Harmless leftover (an earlier round or epoch, a byte-identical
    /// re-send, a dropped or unknown party, a second-phase frame this
    /// incarnation never asked for): discarded, never an error.
    Stale,
}

/// What [`CoordinatorHalf::advance`] wants from the driver next.
#[derive(Debug, PartialEq)]
pub(crate) enum Step {
    /// Deliver these second-phase frames reliably, then collect again
    /// under a fresh deadline.
    Send(Vec<(PartyId, Message)>),
    /// The round is summed: the consensus update is `values / divisor`.
    Sum { values: Vec<f64>, divisor: usize },
    /// The deadline passed with these parties still owing a frame:
    /// declare them dropped, then ask again.
    Lost(Vec<PartyId>),
    /// Too few contributions are left to ever finish the round.
    Abort,
}

/// Coordinator half of one backend: sums one round's contributions.
/// Per round the driver calls `open`, then alternates a deadline-bounded
/// collect (feeding `absorb` while `pending > 0`) with `advance` until
/// the latter yields [`Step::Sum`].
pub(crate) trait CoordinatorHalf {
    /// Whether a membership change invalidates shares already sent, so
    /// the driver must bump the epoch, broadcast `Rekey` and re-`open`
    /// the round. Only pairwise masks have that property.
    fn rekeys(&self) -> bool {
        false
    }
    /// Starts (or, after a re-key, restarts) collecting `round`.
    fn open(&mut self, round: u64, epoch: u64);
    /// How many frames the current phase still waits for.
    fn pending(&self, alive: &[bool]) -> usize;
    /// Judges one protocol frame from `from`.
    ///
    /// # Errors
    ///
    /// [`TrainError::Protocol`] on a frame no honest party could have
    /// sent: wrong kind, wrong length, a round or epoch from the future,
    /// two different claims for one slot.
    fn absorb(&mut self, from: PartyId, msg: Message, alive: &[bool]) -> Result<Absorbed>;
    /// Called when the collect ended — complete or out of time.
    fn advance(&mut self, alive: &[bool]) -> Result<Step>;
}

/// Learner half of one backend: turns a raw share into frames.
pub(crate) trait LearnerHalf {
    /// Whether the contribution only completes with an `on_frame` reply
    /// (Shamir's summed share). The driver closes such a round on that
    /// reply, and a scripted defector withholds it — not `contribute`.
    fn awaits_collect(&self) -> bool {
        false
    }
    /// Frames carrying `raw` for `round`: a pure function of
    /// `(seed, party, round, epoch, roster, raw)`, so the driver may
    /// call it again for the same round after a re-key or a coordinator
    /// resume and get byte-identical (or correctly re-keyed) frames.
    fn contribute(
        &mut self,
        round: u64,
        epoch: u64,
        roster: &[usize],
        raw: &[f64],
    ) -> Result<Vec<Message>>;
    /// Answers a second-phase coordinator frame; empty = stale, drained.
    ///
    /// # Errors
    ///
    /// [`TrainError::Protocol`] on a frame this backend never expects.
    fn on_frame(&mut self, msg: Message) -> Result<Vec<Message>> {
        Err(protocol(format!(
            "learner expected consensus, re-key or welcome, got {msg:?}"
        )))
    }
}

/// The in-process trainers' Reduce: the shipped halves with their frames
/// handed over in memory. One coordinator half and one learner half per
/// party are built at the first round, from the party count and share
/// length it brings. Every party is alive and on epoch 0, so a round is
/// `contribute` → `absorb` for every learner, then `advance` until
/// [`Step::Sum`], each [`Step::Send`] frame answered by its learner's
/// `on_frame`: the sum the wire coordinator computes from the same
/// shares, bit for bit.
///
/// # Errors
///
/// The halves' own errors (a share beyond the fixed-point range, ragged
/// shares, a bad Shamir threshold); [`TrainError::Dropped`] or
/// [`TrainError::Protocol`] for a round that loses a party or cannot
/// complete, which no in-memory round does.
pub(crate) fn in_memory(
    secagg: SecAggConfig,
    cfg: &AdmmConfig,
) -> impl FnMut(u64, &[Vec<f64>]) -> Result<Vec<f64>> {
    let cfg = *cfg;
    let mut coordinator: Option<Box<dyn CoordinatorHalf>> = None;
    let mut learners: Vec<Box<dyn LearnerHalf>> = Vec::new();
    move |round, shares| {
        let m = shares.len();
        let coordinator = match &mut coordinator {
            Some(built) => built,
            None => {
                let share_len = shares.first().map_or(0, Vec::len);
                learners = (0..m)
                    .map(|p| secagg.learner_half(p, m, &cfg))
                    .collect::<Result<_>>()?;
                coordinator.insert(secagg.coordinator_half(m, share_len, &cfg)?)
            }
        };
        let (alive, roster) = (vec![true; m], (0..m).collect::<Vec<_>>());
        coordinator.open(round, 0);
        for (party, (learner, raw)) in learners.iter_mut().zip(shares).enumerate() {
            for frame in learner.contribute(round, 0, &roster, raw)? {
                coordinator.absorb(party as PartyId, frame, &alive)?;
            }
        }
        loop {
            match coordinator.advance(&alive)? {
                Step::Send(frames) => {
                    for (to, frame) in frames {
                        for reply in learners[to as usize].on_frame(frame)? {
                            coordinator.absorb(to, reply, &alive)?;
                        }
                    }
                }
                Step::Sum { values, .. } => return Ok(values),
                Step::Lost(parties) => return Err(TrainError::Dropped { parties }),
                Step::Abort => return Err(protocol(format!("round {round} cannot complete"))),
            }
        }
    }
}

fn unexpected(wanted: &str, msg: &Message, from: PartyId) -> TrainError {
    protocol(format!(
        "coordinator expected {wanted}, got {msg:?} from party {from}"
    ))
}

/// Round fence shared by every frame kind: `false` for a leftover of an
/// earlier round, an error for one from the future.
fn is_current(what: &str, it: u64, round: u64) -> Result<bool> {
    if it > round {
        return Err(protocol(format!(
            "{what} from the future: round {it} while in round {round}"
        )));
    }
    Ok(it == round)
}

fn check_len(what: &str, got: usize, want: usize) -> Result<()> {
    if got != want {
        return Err(protocol(format!(
            "{what} length mismatch: expected {want}, got {got}"
        )));
    }
    Ok(())
}

fn is_alive(alive: &[bool], party: PartyId) -> bool {
    alive.get(party as usize).copied().unwrap_or(false)
}

/// Stores `party`'s one `value` for the round. Every backend's frames
/// are deterministic in their inputs, so a legitimate re-send — e.g. a
/// learner answering both a resumed coordinator's rebroadcast and a
/// re-key — is byte-identical to the accepted copy and safely ignored;
/// anything else is two *different* claims for one slot.
fn fill<V: PartialEq>(
    slot: &mut Option<V>,
    value: V,
    what: &str,
    party: PartyId,
    scored: Option<PartyId>,
) -> Result<Absorbed> {
    match slot {
        Some(existing) if *existing == value => Ok(Absorbed::Stale),
        Some(_) => Err(protocol(format!(
            "conflicting duplicate {what} from party {party}"
        ))),
        None => {
            *slot = Some(value);
            Ok(Absorbed::Accepted { scored })
        }
    }
}

/// Live parties whose slot is still empty.
fn missing<'a, V>(slots: &'a [Option<V>], alive: &'a [bool]) -> impl Iterator<Item = PartyId> + 'a {
    (0..slots.len())
        .filter(|&p| alive[p] && slots[p].is_none())
        .map(|p| p as PartyId)
}

/// Parties whose slot is filled, ascending.
fn filled<V>(slots: &[Option<V>]) -> Vec<PartyId> {
    (0..slots.len())
        .filter(|&p| slots[p].is_some())
        .map(|p| p as PartyId)
        .collect()
}

// ---------------------------------------------------------------------
// Deterministic seed derivation. Domain-separated from the pairwise
// masker's (seed, lo, hi, iteration) absorb by a per-purpose constant
// folded into the base seed, then the same sequential SplitMix64 absorb
// (see `masks::mix64` for why sequential absorption is required).

/// Domain tag for Shamir polynomial coefficient streams.
const DOMAIN_SPLIT: u64 = 0x5348_4D52_5350_4C54;
/// Domain tag for ordered-pair relay-blinding pad streams.
const DOMAIN_PAD: u64 = 0x5348_4D52_5041_4421;
/// Domain tag for the deterministic Paillier keypair.
const DOMAIN_KEY: u64 = 0x504C_4C52_4B45_5921;
/// Domain tag for Paillier encryption randomness.
const DOMAIN_ENC: u64 = 0x504C_4C52_454E_4352;

/// Paillier modulus size for the wire protocol: comfortably above the
/// 64-bit floor [`FixedPointCodec::encode_group`] requires, with room
/// for [`FixedPointCodec::max_parties`] summands.
const PAILLIER_BITS: usize = 128;

/// The Paillier key authority: the one learner that decrypts aggregates.
const AUTHORITY: PartyId = 0;

/// A stream seeded by absorbing `words` into `seed ^ domain` in order.
fn derived_rng(seed: u64, domain: u64, words: &[u64]) -> Rng64 {
    Rng64::new(
        words
            .iter()
            .fold(mix64(seed ^ domain), |s, &w| mix64(s ^ w)),
    )
}

/// Coefficient stream for `party`'s Shamir split at `iteration`.
fn split_rng(seed: u64, party: usize, iteration: u64) -> Rng64 {
    derived_rng(seed, DOMAIN_SPLIT, &[party as u64, iteration])
}

/// Ordered-pair pad stream blinding the share block `from → to` at
/// `iteration` against the relaying coordinator. Both endpoints derive
/// it locally; the pair order matters (`from → to` ≠ `to → from`).
fn pad_rng(seed: u64, from: usize, to: usize, iteration: u64) -> Rng64 {
    derived_rng(seed, DOMAIN_PAD, &[from as u64, to as u64, iteration])
}

/// Prime stream for the run's deterministic Paillier keypair.
fn keygen_rng(seed: u64) -> Rng64 {
    derived_rng(seed, DOMAIN_KEY, &[])
}

/// Encryption randomness for `party` at `iteration`.
fn encrypt_rng(seed: u64, party: usize, iteration: u64) -> Rng64 {
    derived_rng(seed, DOMAIN_ENC, &[party as u64, iteration])
}

// ---------------------------------------------------------------------
// Pairwise backend (§V): masks cancel in the wrapping sum, so a
// membership change invalidates every share already sent — the one
// backend that re-keys.

struct PairwiseCoordinator {
    share_len: usize,
    round: u64,
    epoch: u64,
    shares: Vec<Option<Vec<u64>>>,
}

impl CoordinatorHalf for PairwiseCoordinator {
    fn rekeys(&self) -> bool {
        true
    }

    fn open(&mut self, round: u64, epoch: u64) {
        (self.round, self.epoch) = (round, epoch);
        self.shares.fill(None);
    }

    fn pending(&self, alive: &[bool]) -> usize {
        missing(&self.shares, alive).count()
    }

    fn absorb(&mut self, from: PartyId, msg: Message, alive: &[bool]) -> Result<Absorbed> {
        let Message::MaskedShare {
            iteration,
            epoch,
            party,
            payload,
        } = msg
        else {
            return Err(unexpected("a masked share", &msg, from));
        };
        // From a party already declared dropped (or an unknown id), or
        // in flight from before a re-key — masked over the old survivor
        // set, its masks would not cancel; the re-keyed copy follows.
        if !is_alive(alive, party) || epoch < self.epoch || iteration < self.round {
            return Ok(Absorbed::Stale);
        }
        if epoch > self.epoch {
            return Err(protocol(format!(
                "share from the future: epoch {epoch} while collecting epoch {}",
                self.epoch
            )));
        }
        is_current("share", iteration, self.round)?;
        check_len("share", payload.len(), self.share_len)?;
        let slot = &mut self.shares[party as usize];
        fill(slot, payload, "share", party, Some(party))
    }

    fn advance(&mut self, alive: &[bool]) -> Result<Step> {
        let lost: Vec<PartyId> = missing(&self.shares, alive).collect();
        if !lost.is_empty() {
            return Ok(Step::Lost(lost));
        }
        let shares: Vec<Vec<u64>> = self.shares.iter_mut().filter_map(Option::take).collect();
        let divisor = shares.len();
        let values = SeededMasker::combine(&shares, divisor, FixedPointCodec::default())?;
        Ok(Step::Sum { values, divisor })
    }
}

struct PairwiseLearner {
    party: PartyId,
    masker: SeededMasker,
}

impl LearnerHalf for PairwiseLearner {
    fn contribute(
        &mut self,
        round: u64,
        epoch: u64,
        roster: &[usize],
        raw: &[f64],
    ) -> Result<Vec<Message>> {
        Ok(vec![Message::MaskedShare {
            iteration: round,
            epoch,
            party: self.party,
            payload: self.masker.mask_share_among(raw, round, roster)?,
        }])
    }
}

// ---------------------------------------------------------------------
// Shamir backend.

/// Index of destination `dest`'s block inside sender `from`'s flat
/// [`ppml_transport::Message::ShamirDist`] vector: blocks are laid out
/// in ascending destination order over the full roster, the sender's
/// own (locally kept) block excluded.
fn block_index(from: usize, dest: usize) -> usize {
    debug_assert_ne!(from, dest, "a sender keeps its own block locally");
    if dest > from {
        dest - 1
    } else {
        dest
    }
}

struct ShamirCoordinator {
    share_len: usize,
    threshold: usize,
    round: u64,
    /// Phase 1: one blinded distribution per live learner.
    dists: Vec<Option<Vec<u64>>>,
    /// The round's contributor set, fixed when the relay goes out.
    contributors: Option<Vec<PartyId>>,
    /// Phase 2: one summed share per contributor; any `threshold` do.
    subs: Vec<Option<Vec<u64>>>,
}

impl CoordinatorHalf for ShamirCoordinator {
    fn open(&mut self, round: u64, _epoch: u64) {
        self.round = round;
        self.dists.fill(None);
        self.contributors = None;
        self.subs.fill(None);
    }

    fn pending(&self, alive: &[bool]) -> usize {
        match &self.contributors {
            None => missing(&self.dists, alive).count(),
            Some(c) => missing(&self.subs, alive)
                .filter(|p| c.binary_search(p).is_ok())
                .count(),
        }
    }

    fn absorb(&mut self, from: PartyId, msg: Message, alive: &[bool]) -> Result<Absorbed> {
        match msg {
            Message::ShamirDist {
                iteration,
                party,
                flat,
            } => {
                // Past the relay the contributor set is final: a late or
                // re-sent distribution can no longer join the round.
                if !is_current("shamir distribution", iteration, self.round)?
                    || self.contributors.is_some()
                    || !is_alive(alive, party)
                {
                    return Ok(Absorbed::Stale);
                }
                let want = (self.dists.len() - 1) * self.share_len;
                check_len("shamir distribution", flat.len(), want)?;
                let slot = &mut self.dists[party as usize];
                fill(slot, flat, "shamir distribution", party, None)
            }
            Message::Shares { iteration, values } => {
                let current = is_current("summed share", iteration, self.round)?;
                // Fence: a summed share for a relay this incarnation has
                // not sent answers a crashed predecessor's — stale.
                let Some(contributors) = &self.contributors else {
                    return Ok(Absorbed::Stale);
                };
                if !current || contributors.binary_search(&from).is_err() {
                    return Ok(Absorbed::Stale);
                }
                check_len("summed share", values.len(), self.share_len)?;
                let slot = &mut self.subs[from as usize];
                fill(slot, values, "summed share", from, Some(from))
            }
            other => Err(unexpected(
                "a shamir distribution or summed share",
                &other,
                from,
            )),
        }
    }

    fn advance(&mut self, alive: &[bool]) -> Result<Step> {
        let Some(contributors) = &self.contributors else {
            let lost: Vec<PartyId> = missing(&self.dists, alive).collect();
            if !lost.is_empty() {
                return Ok(Step::Lost(lost));
            }
            // Absentees are dropped with no re-key frame — the remaining
            // shares stay valid. Relay each contributor the blinded
            // blocks destined for it.
            let contributors = filled(&self.dists);
            if contributors.len() < self.threshold {
                return Ok(Step::Abort);
            }
            let len = self.share_len;
            let frames = contributors
                .iter()
                .map(|&p| {
                    let mut flat = Vec::with_capacity((contributors.len() - 1) * len);
                    for &q in contributors.iter().filter(|&&q| q != p) {
                        let dist = self.dists[q as usize].as_ref().expect("contributor");
                        let base = block_index(q as usize, p as usize) * len;
                        flat.extend_from_slice(&dist[base..base + len]);
                    }
                    let msg = Message::ShamirCollect {
                        iteration: self.round,
                        contributors: contributors.clone(),
                        flat,
                    };
                    (p, msg)
                })
                .collect();
            self.contributors = Some(contributors);
            return Ok(Step::Send(frames));
        };
        // A contributor lost mid-collect costs nothing but its future
        // membership: its input is already inside the round's shares.
        let lost: Vec<PartyId> = missing(&self.subs, alive)
            .filter(|p| contributors.binary_search(p).is_ok())
            .collect();
        if !lost.is_empty() {
            return Ok(Step::Lost(lost));
        }
        // Reconstruct from the `threshold` lowest-indexed submissions —
        // any `t` shares give the same exact field element, so the
        // choice cannot change the result.
        let mut chosen = filled(&self.subs);
        if chosen.len() < self.threshold {
            return Ok(Step::Abort);
        }
        chosen.truncate(self.threshold);
        let codec = FixedPointCodec::default();
        let mut values = vec![0.0; self.share_len];
        for (i, sum) in values.iter_mut().enumerate() {
            let column: Vec<shamir::Share> = chosen
                .iter()
                .map(|&p| shamir::Share {
                    x: u64::from(p) + 1,
                    y: self.subs[p as usize].as_ref().expect("chosen")[i],
                })
                .collect();
            *sum = codec.decode_field(shamir::reconstruct(&column)?);
        }
        Ok(Step::Sum {
            values,
            divisor: contributors.len(),
        })
    }
}

struct ShamirLearner {
    seed: u64,
    me: usize,
    m: usize,
    threshold: usize,
    /// The round last contributed to and this party's own share block
    /// of it — what a `ShamirCollect` for that round is summed onto.
    held: Option<(u64, Vec<u64>)>,
}

impl LearnerHalf for ShamirLearner {
    fn awaits_collect(&self) -> bool {
        true
    }

    /// Splits every coordinate t-of-m over the *original* roster (dead
    /// parties' shares are simply never delivered), keeps this party's
    /// own block, blinds each peer block with the ordered-pair pad and
    /// ships everything in one frame.
    fn contribute(
        &mut self,
        round: u64,
        _epoch: u64,
        _roster: &[usize],
        raw: &[f64],
    ) -> Result<Vec<Message>> {
        let (me, m) = (self.me, self.m);
        let codec = FixedPointCodec::default();
        let mut rng = split_rng(self.seed, me, round);
        let mut dest = vec![vec![0u64; raw.len()]; m];
        for (i, &v) in raw.iter().enumerate() {
            let shares = shamir::split(codec.encode_field(v)?, self.threshold, m, &mut rng)?;
            for (j, sh) in shares.into_iter().enumerate() {
                dest[j][i] = sh.y;
            }
        }
        let mut flat = Vec::with_capacity((m - 1) * raw.len());
        for (j, block) in dest.iter().enumerate().filter(|&(j, _)| j != me) {
            let mut pad = pad_rng(self.seed, me, j, round);
            flat.extend(
                block
                    .iter()
                    .map(|&y| shamir::field_add(y, pad.below(MODULUS))),
            );
        }
        self.held = Some((round, dest.swap_remove(me)));
        Ok(vec![Message::ShamirDist {
            iteration: round,
            party: me as PartyId,
            flat,
        }])
    }

    /// Unblinds each contributor block of this round's relay with the
    /// sender-pair pad and field-sums everything (own block included)
    /// into this party's share of the round total.
    fn on_frame(&mut self, msg: Message) -> Result<Vec<Message>> {
        let Message::ShamirCollect {
            iteration,
            contributors,
            flat,
        } = msg
        else {
            return Err(protocol(format!(
                "shamir learner expected consensus or collect, got {msg:?}"
            )));
        };
        // Relays for rounds already finished, or from before this
        // incarnation contributed anything: drained.
        let Some((round, own)) = &self.held else {
            return Ok(Vec::new());
        };
        if !is_current("collect", iteration, *round)? {
            return Ok(Vec::new());
        }
        let me = self.me as PartyId;
        if !contributors.windows(2).all(|w| w[0] < w[1]) {
            return Err(protocol("collect contributor set is not ascending"));
        }
        if contributors.iter().any(|&q| (q as usize) >= self.m) {
            return Err(protocol("collect names a party outside the roster"));
        }
        if !contributors.contains(&me) {
            return Err(protocol(format!(
                "collect for round {iteration} excludes this learner"
            )));
        }
        check_len("collect", flat.len(), (contributors.len() - 1) * own.len())?;
        let mut values = own.clone();
        let peers = contributors.iter().filter(|&&q| q != me);
        for (block, &q) in flat.chunks(own.len()).zip(peers) {
            let mut pad = pad_rng(self.seed, q as usize, self.me, iteration);
            for (h, &v) in values.iter_mut().zip(block) {
                *h = shamir::field_add(*h, shamir::field_sub(v, pad.below(MODULUS)));
            }
        }
        Ok(vec![Message::Shares { iteration, values }])
    }
}

// ---------------------------------------------------------------------
// Paillier backend.

/// Appends `v` big-endian, left-padded with zeros to exactly `width`
/// bytes, so ciphertexts pack at fixed offsets on the wire.
fn push_fixed_width(out: &mut Vec<u8>, v: &ppml_crypto::BigUint, width: usize) {
    let be = v.to_bytes_be();
    debug_assert!(be.len() <= width, "ciphertext wider than n²");
    out.resize(out.len() + width.saturating_sub(be.len()), 0);
    out.extend_from_slice(&be);
}

struct PaillierCoordinator {
    share_len: usize,
    pk: PaillierPublicKey,
    round: u64,
    /// Phase 1: one packed ciphertext vector per live learner.
    cts: Vec<Option<Vec<u8>>>,
    /// Contributor count, fixed when the aggregate goes to the authority.
    contributors: Option<usize>,
    /// The authority had already stopped *contributing* when the
    /// aggregate went out; it still answers, so it is still awaited.
    authority_defected: bool,
    /// Phase 2: the authority's decrypted totals.
    sums: Option<Vec<f64>>,
}

impl CoordinatorHalf for PaillierCoordinator {
    fn open(&mut self, round: u64, _epoch: u64) {
        self.round = round;
        self.cts.fill(None);
        self.contributors = None;
        self.sums = None;
    }

    fn pending(&self, alive: &[bool]) -> usize {
        match self.contributors {
            None => missing(&self.cts, alive).count(),
            Some(_) => usize::from(
                self.sums.is_none() && (is_alive(alive, AUTHORITY) || self.authority_defected),
            ),
        }
    }

    fn absorb(&mut self, from: PartyId, msg: Message, alive: &[bool]) -> Result<Absorbed> {
        match msg {
            Message::CipherShare {
                iteration,
                party,
                bytes,
            } => {
                if !is_current("ciphertext share", iteration, self.round)?
                    || self.contributors.is_some()
                    || !is_alive(alive, party)
                {
                    return Ok(Absorbed::Stale);
                }
                let want = self.share_len * self.pk.ciphertext_width();
                check_len("ciphertext share", bytes.len(), want)?;
                let slot = &mut self.cts[party as usize];
                fill(slot, bytes, "ciphertext share", party, Some(party))
            }
            Message::CipherSum { iteration, values } => {
                if !is_current("decrypted aggregate", iteration, self.round)? {
                    return Ok(Absorbed::Stale);
                }
                if from != AUTHORITY {
                    return Err(protocol(format!(
                        "decrypted aggregate from party {from} instead of the authority"
                    )));
                }
                // Fence: totals for an aggregate this incarnation has
                // not sent answer a crashed predecessor's — stale.
                if self.contributors.is_none() {
                    return Ok(Absorbed::Stale);
                }
                check_len("decrypted aggregate", values.len(), self.share_len)?;
                fill(&mut self.sums, values, "decrypted aggregate", from, None)
            }
            other => Err(unexpected(
                "a ciphertext share or the decrypted aggregate",
                &other,
                from,
            )),
        }
    }

    fn advance(&mut self, alive: &[bool]) -> Result<Step> {
        let Some(contributors) = self.contributors else {
            let lost: Vec<PartyId> = missing(&self.cts, alive).collect();
            if !lost.is_empty() {
                return Ok(Step::Lost(lost));
            }
            let contributors = filled(&self.cts);
            if contributors.is_empty() {
                return Ok(Step::Abort);
            }
            // Fold the round: coordinate-wise homomorphic addition with
            // the public key only. The aggregate (and only the
            // aggregate) is decryptable, and only by the authority —
            // which answers even when it stopped *contributing*; losing
            // it outright ends the run, nobody else holds the key.
            let width = self.pk.ciphertext_width();
            let mut agg = Vec::with_capacity(self.share_len * width);
            for i in 0..self.share_len {
                let mut acc = self.pk.neutral();
                for &p in &contributors {
                    let bytes = self.cts[p as usize].as_ref().expect("contributor");
                    let c = self
                        .pk
                        .ciphertext_from_bytes(&bytes[i * width..(i + 1) * width])?;
                    acc = self.pk.add(&acc, &c);
                }
                push_fixed_width(&mut agg, acc.as_biguint(), width);
            }
            self.contributors = Some(contributors.len());
            self.authority_defected = !is_alive(alive, AUTHORITY);
            let request = Message::CipherAgg {
                iteration: self.round,
                contributors: contributors.len() as u32,
                bytes: agg,
            };
            return Ok(Step::Send(vec![(AUTHORITY, request)]));
        };
        Ok(match self.sums.take() {
            Some(values) => Step::Sum {
                values,
                divisor: contributors,
            },
            None if is_alive(alive, AUTHORITY) => Step::Lost(vec![AUTHORITY]),
            None => Step::Abort,
        })
    }
}

struct PaillierLearner {
    seed: u64,
    me: usize,
    keypair: Paillier,
    codec: FixedPointCodec,
}

impl LearnerHalf for PaillierLearner {
    fn contribute(
        &mut self,
        round: u64,
        _epoch: u64,
        _roster: &[usize],
        raw: &[f64],
    ) -> Result<Vec<Message>> {
        let pk = self.keypair.public_key();
        let width = pk.ciphertext_width();
        let mut rng = encrypt_rng(self.seed, self.me, round);
        let mut bytes = Vec::with_capacity(raw.len() * width);
        for &v in raw {
            let plain = self.codec.encode_group(v, pk.modulus())?;
            let c = self.keypair.encrypt(&plain, &mut rng)?;
            push_fixed_width(&mut bytes, c.as_biguint(), width);
        }
        Ok(vec![Message::CipherShare {
            iteration: round,
            party: self.me as PartyId,
            bytes,
        }])
    }

    /// The authority arm: decrypt the folded aggregate — the round
    /// *sum*, never an individual share — and hand the plaintext totals
    /// back. A pure function of the frame, so it is served for any
    /// round, even while this learner is defecting.
    fn on_frame(&mut self, msg: Message) -> Result<Vec<Message>> {
        let Message::CipherAgg {
            iteration, bytes, ..
        } = msg
        else {
            return Err(protocol(format!(
                "paillier learner expected consensus or an aggregate, got {msg:?}"
            )));
        };
        if self.me != AUTHORITY as usize {
            return Err(protocol(
                "ciphertext aggregate sent to a non-authority learner",
            ));
        }
        let pk = self.keypair.public_key();
        let width = pk.ciphertext_width();
        if bytes.is_empty() || bytes.len() % width != 0 {
            return Err(protocol(format!(
                "ciphertext aggregate length {} is not a multiple of the ciphertext \
                 width {width}",
                bytes.len()
            )));
        }
        let mut values = Vec::with_capacity(bytes.len() / width);
        for chunk in bytes.chunks(width) {
            let sum = self.keypair.decrypt(&pk.ciphertext_from_bytes(chunk)?);
            values.push(self.codec.decode_group(&sum, pk.modulus())?);
        }
        Ok(vec![Message::CipherSum { iteration, values }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::feature_count;
    use ppml_data::check::{run_cases, Gen};
    use ppml_data::{synth, Partition};
    use ppml_transport::{LinkFilter, LoopbackHub, NetFaultPlan, RetryPolicy};
    use std::sync::mpsc;
    use std::thread;
    use std::time::{Duration, Instant};

    fn twitchy() -> DistributedTiming {
        DistributedTiming::default()
            .with_round_deadline(Duration::from_millis(800))
            .with_learner_patience(Duration::from_secs(2))
    }

    struct SecAggRun {
        outcome: Result<DistributedOutcome>,
        finals: Vec<Result<LinearSvm>>,
        /// Wall clock of the coordinator alone (the learners' patience
        /// can outlast it).
        coordinator_took: Duration,
    }

    /// Full in-process run over a fault-free loopback hub: `defects`
    /// scripts `(party, round)` dropouts at each backend's
    /// characteristic loss point.
    fn run_secagg(
        parts: &[Dataset],
        cfg: &AdmmConfig,
        secagg: SecAggConfig,
        defects: &[(usize, u64)],
    ) -> SecAggRun {
        run_secagg_with_faults(parts, cfg, secagg, defects, NetFaultPlan::none())
    }

    fn run_secagg_with_faults(
        parts: &[Dataset],
        cfg: &AdmmConfig,
        secagg: SecAggConfig,
        defects: &[(usize, u64)],
        faults: NetFaultPlan,
    ) -> SecAggRun {
        let m = parts.len();
        let features = feature_count(parts).expect("partitions");
        let hub = LoopbackHub::with_faults(m + 1, faults);
        let timing = twitchy();
        let mut handles = Vec::new();
        for (p, part) in parts.iter().enumerate() {
            let mut courier = Courier::new(hub.endpoint(p as PartyId), RetryPolicy::fast_local());
            let part = part.clone();
            let cfg = *cfg;
            let defect = defects.iter().find(|&&(dp, _)| dp == p).map(|&(_, d)| d);
            handles.push(thread::spawn(move || match defect {
                Some(d) => {
                    learn_linear_secagg_with_defect(&mut courier, m, &part, &cfg, timing, secagg, d)
                }
                None => learn_linear_secagg(&mut courier, m, &part, &cfg, timing, secagg),
            }));
        }
        let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
        let started = Instant::now();
        let outcome =
            coordinate_linear_secagg(&mut courier, m, features, cfg, None, timing, secagg);
        let coordinator_took = started.elapsed();
        let finals = handles
            .into_iter()
            .map(|h| h.join().expect("learner thread"))
            .collect();
        SecAggRun {
            outcome,
            finals,
            coordinator_took,
        }
    }

    fn assert_models_identical(a: &LinearSvm, b: &LinearSvm) {
        assert_eq!(a.weights(), b.weights(), "weights diverged");
        assert_eq!(a.bias(), b.bias(), "bias diverged");
    }

    #[test]
    fn kind_parses_round_trips_and_rejects_unknown() {
        for kind in [
            SecAggKind::Pairwise,
            SecAggKind::Shamir,
            SecAggKind::Paillier,
        ] {
            assert_eq!(kind.as_str().parse::<SecAggKind>(), Ok(kind));
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert!("masking".parse::<SecAggKind>().is_err());
    }

    #[test]
    fn config_validates_threshold_placement_and_range() {
        assert!(SecAggConfig::shamir().validate(4).is_ok());
        assert!(SecAggConfig::shamir().with_threshold(3).validate(4).is_ok());
        assert!(SecAggConfig::shamir()
            .with_threshold(0)
            .validate(4)
            .is_err());
        assert!(SecAggConfig::shamir()
            .with_threshold(5)
            .validate(4)
            .is_err());
        assert!(SecAggConfig::pairwise()
            .with_threshold(2)
            .validate(4)
            .is_err());
        assert!(SecAggConfig::paillier()
            .with_threshold(2)
            .validate(4)
            .is_err());
    }

    #[test]
    fn default_threshold_is_two_thirds_clamped() {
        assert_eq!(SecAggConfig::shamir().effective_threshold(1), 1);
        assert_eq!(SecAggConfig::shamir().effective_threshold(2), 2);
        assert_eq!(SecAggConfig::shamir().effective_threshold(3), 2);
        assert_eq!(SecAggConfig::shamir().effective_threshold(4), 3);
        assert_eq!(SecAggConfig::shamir().effective_threshold(64), 43);
        assert_eq!(
            SecAggConfig::shamir()
                .with_threshold(4)
                .effective_threshold(8),
            4
        );
    }

    struct InMemoryCase {
        shares: Vec<Vec<f64>>,
        threshold: usize,
        /// Pairwise, Shamir, Paillier — in that order.
        sums: Vec<Vec<f64>>,
    }

    /// One random in-process Reduce case: `m` parties' shares and the
    /// pairwise, Shamir (at a random threshold) and Paillier sums of them,
    /// each backend's halves routed in memory.
    fn in_memory_sums(g: &mut Gen, case: usize) -> InMemoryCase {
        let m = g.usize_in(1, 6);
        let len = g.usize_in(1, 6);
        let shares: Vec<Vec<f64>> = (0..m).map(|_| g.vec_f64(-1e3, 1e3, len)).collect();
        let cfg = AdmmConfig::default().with_seed(g.rng().next_u64());
        let threshold = g.usize_in(1, m + 1);
        let kinds = [
            SecAggConfig::pairwise(),
            SecAggConfig::shamir().with_threshold(threshold),
            SecAggConfig::paillier(),
        ];
        let sums = kinds
            .iter()
            .map(|&kind| {
                in_memory(kind, &cfg)(case as u64, &shares)
                    .unwrap_or_else(|e| panic!("{}: {e}", kind.kind))
            })
            .collect();
        InMemoryCase {
            shares,
            threshold,
            sums,
        }
    }

    /// Every backend's in-process Reduce lies within `m` fixed-point
    /// resolutions of the `f64` sum, for a lone party too.
    #[test]
    fn secure_sums_agree_with_plain() {
        run_cases("secure_sums_agree_with_plain", 32, |g, case| {
            let InMemoryCase { shares, sums, .. } = in_memory_sums(g, case);
            let m = shares.len();
            let tol = m as f64 * FixedPointCodec::default().resolution();
            for (sum, kind) in sums.iter().zip(["pairwise", "shamir", "paillier"]) {
                for (i, got) in sum.iter().enumerate() {
                    let want: f64 = shares.iter().map(|s| s[i]).sum();
                    assert!(
                        (got - want).abs() <= tol,
                        "{kind}, m = {m}, coordinate {i}: {got} vs {want}"
                    );
                }
            }
        });
    }

    /// The three kinds sum bit-identically, at any Shamir threshold.
    #[test]
    fn all_backends_agree_cross_backend() {
        run_cases("all_backends_agree_cross_backend", 32, |g, case| {
            let InMemoryCase {
                shares,
                threshold,
                sums,
            } = in_memory_sums(g, case);
            let m = shares.len();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&sums[1]),
                bits(&sums[0]),
                "shamir (t = {threshold}), m = {m}"
            );
            assert_eq!(bits(&sums[2]), bits(&sums[0]), "paillier, m = {m}");
        });
    }

    #[test]
    fn block_index_skips_the_sender() {
        // Sender 2 of a 4-party roster lays out blocks for 0, 1, 3.
        assert_eq!(block_index(2, 0), 0);
        assert_eq!(block_index(2, 1), 1);
        assert_eq!(block_index(2, 3), 2);
        // Sender 0 lays out 1, 2, 3.
        assert_eq!(block_index(0, 1), 0);
        assert_eq!(block_index(0, 3), 2);
    }

    #[test]
    fn pad_streams_agree_between_endpoints_and_separate_pairs() {
        let a: Vec<u64> = {
            let mut r = pad_rng(7, 1, 2, 3);
            (0..8).map(|_| r.below(MODULUS)).collect()
        };
        let b: Vec<u64> = {
            let mut r = pad_rng(7, 1, 2, 3);
            (0..8).map(|_| r.below(MODULUS)).collect()
        };
        assert_eq!(a, b, "sender and receiver must derive the same stream");
        let reversed: Vec<u64> = {
            let mut r = pad_rng(7, 2, 1, 3);
            (0..8).map(|_| r.below(MODULUS)).collect()
        };
        assert_ne!(a, reversed, "pair order must matter");
    }

    #[test]
    fn shamir_clean_run_is_bit_identical_to_pairwise() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(6).with_seed(11);
        let pairwise = run_secagg(&parts, &cfg, SecAggConfig::pairwise(), &[]);
        let shamir = run_secagg(&parts, &cfg, SecAggConfig::shamir(), &[]);
        let pw = pairwise.outcome.expect("pairwise run");
        let sh = shamir.outcome.expect("shamir run");
        assert_models_identical(&pw.model, &sh.model);
        assert_eq!(pw.history.z_delta, sh.history.z_delta);
        assert!(sh.dropped.is_empty());
        for (p_model, s_model) in pairwise.finals.iter().zip(&shamir.finals) {
            assert_models_identical(
                p_model.as_ref().expect("pairwise learner"),
                s_model.as_ref().expect("shamir learner"),
            );
        }
    }

    #[test]
    fn paillier_clean_run_is_bit_identical_to_pairwise() {
        let ds = synth::blobs(64, 1);
        let parts = Partition::horizontal(&ds, 2, 2).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(3).with_seed(7);
        let pairwise = run_secagg(&parts, &cfg, SecAggConfig::pairwise(), &[]);
        let paillier = run_secagg(&parts, &cfg, SecAggConfig::paillier(), &[]);
        let pw = pairwise.outcome.expect("pairwise run");
        let pl = paillier.outcome.expect("paillier run");
        assert_models_identical(&pw.model, &pl.model);
        assert_eq!(pw.history.z_delta, pl.history.z_delta);
        assert!(pl.dropped.is_empty());
    }

    /// The headline Shamir property: a learner dying *mid-collect* —
    /// after distributing its round-`d` shares, before submitting its
    /// summed share — still lands its round-`d` input in the sum and
    /// needs no re-key. Membership-wise that equals a pairwise defector
    /// at round `d + 1`, so the surviving models must match that run
    /// bit for bit.
    #[test]
    fn shamir_mid_collect_death_keeps_the_round_and_skips_rekey() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 4, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(6).with_seed(11);
        let victim = 1usize;
        let d = 2u64;
        let shamir = run_secagg(&parts, &cfg, SecAggConfig::shamir(), &[(victim, d)]);
        let reference = run_secagg(&parts, &cfg, SecAggConfig::pairwise(), &[(victim, d + 1)]);
        let sh = shamir.outcome.expect("shamir survivors");
        let pw = reference.outcome.expect("pairwise reference");
        assert_eq!(sh.dropped, vec![victim as PartyId]);
        assert_models_identical(&sh.model, &pw.model);
        for (p, result) in shamir.finals.iter().enumerate() {
            if p == victim {
                assert!(result.is_err(), "the defector cannot finish");
            } else {
                assert_models_identical(result.as_ref().expect("survivor"), &sh.model);
            }
        }
    }

    /// A Paillier defector stops encrypting from round `d` on, so its
    /// membership schedule equals the pairwise defector at `d` — and the
    /// surviving models must match that run bit for bit, again with no
    /// re-keying anywhere.
    #[test]
    fn paillier_defector_is_dropped_and_matches_pairwise() {
        let ds = synth::blobs(64, 1);
        let parts = Partition::horizontal(&ds, 2, 2).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(3).with_seed(7);
        let victim = 1usize; // never 0: the authority holds the key
        let d = 1u64;
        let paillier = run_secagg(&parts, &cfg, SecAggConfig::paillier(), &[(victim, d)]);
        let reference = run_secagg(&parts, &cfg, SecAggConfig::pairwise(), &[(victim, d)]);
        let pl = paillier.outcome.expect("paillier survivors");
        let pw = reference.outcome.expect("pairwise reference");
        assert_eq!(pl.dropped, vec![victim as PartyId]);
        assert_models_identical(&pl.model, &pw.model);
        assert!(
            paillier.finals[victim].is_err(),
            "the defector cannot finish"
        );
        assert_models_identical(
            paillier.finals[0].as_ref().expect("authority survives"),
            &pl.model,
        );
    }

    #[test]
    fn shamir_aborts_when_survivors_fall_below_threshold() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(4).with_seed(11);
        let run = run_secagg(
            &parts,
            &cfg,
            SecAggConfig::shamir().with_threshold(3),
            &[(2, 0)],
        );
        match run.outcome {
            Err(TrainError::Dropped { parties }) => assert_eq!(parties, vec![2]),
            other => panic!("expected a threshold abort, got {other:?}"),
        }
    }

    /// Regression (hang → typed error): the authority's `CipherSum`
    /// never arrives. The wait for it shares the driver's one collect
    /// deadline, so the coordinator must give up on the authority after
    /// a single `round_deadline` — at the parent of this change the
    /// Paillier loop re-armed its deadline on every turn and waited
    /// forever. Run under a watchdog so a regression fails instead of
    /// wedging the suite.
    #[test]
    fn paillier_lost_cipher_sum_drops_the_authority_in_bounded_time() {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let ds = synth::blobs(64, 1);
            let parts = Partition::horizontal(&ds, 2, 2).expect("partition");
            let cfg = AdmmConfig::default().with_max_iter(3).with_seed(7);
            let m = parts.len() as PartyId;
            let sum_kind = Message::CipherSum {
                iteration: 0,
                values: Vec::new(),
            }
            .kind();
            let faults = NetFaultPlan::none()
                .drop_frames(LinkFilter::any().from(0).to(m).kind(sum_kind), u32::MAX);
            let run = run_secagg_with_faults(&parts, &cfg, SecAggConfig::paillier(), &[], faults);
            let _ = tx.send((run.outcome, run.coordinator_took));
        });
        let deadline = twitchy().round_deadline;
        let (outcome, took) = rx
            .recv_timeout(deadline * 20)
            .expect("the coordinator wedged on a lost CipherSum");
        match outcome {
            Err(TrainError::Dropped { parties }) => assert!(parties.contains(&0), "{parties:?}"),
            other => panic!("expected the authority to be dropped, got {other:?}"),
        }
        assert!(
            took < deadline * 3,
            "gave up only after {took:?} with a {deadline:?} round deadline"
        );
    }

    enum Expect {
        Accepted,
        Stale,
        Protocol,
    }
    use Expect::{Accepted, Protocol, Stale};

    /// Feeds each hostile frame to `half` and checks the verdict.
    fn feed(
        half: &mut dyn CoordinatorHalf,
        alive: &[bool],
        cases: Vec<(&str, PartyId, Message, Expect)>,
    ) {
        for (label, from, msg, expect) in cases {
            let got = half.absorb(from, msg, alive);
            let ok = match expect {
                Accepted => matches!(got, Ok(Absorbed::Accepted { .. })),
                Stale => matches!(got, Ok(Absorbed::Stale)),
                Protocol => matches!(got, Err(TrainError::Protocol { .. })),
            };
            assert!(ok, "{label}: got {got:?}");
        }
    }

    /// Drives every backend's coordinator half directly — no transport,
    /// no threads — with frames no honest run produces. Hostile input
    /// must come back as [`TrainError::Protocol`] or [`Absorbed::Stale`],
    /// never a panic and never an accepted share.
    #[test]
    fn coordinator_halves_judge_hostile_frames_without_panicking() {
        let cfg = AdmmConfig::default().with_seed(7);
        let (m, share_len, round) = (3usize, 3usize, 5u64);
        // Party 2 was declared dropped; party 9 never existed.
        let alive = [true, true, false];
        let raw = [0.25, -1.5, 3.0];
        let frame = |secagg: SecAggConfig, party: usize, round: u64, epoch: u64| {
            let mut half = secagg.learner_half(party, m, &cfg).expect("learner half");
            let mut frames = half
                .contribute(round, epoch, &[0, 1], &raw)
                .expect("contribute");
            frames.pop().expect("one frame")
        };

        // Pairwise: one phase, fenced by (round, epoch).
        let secagg = SecAggConfig::pairwise();
        let mut half = secagg.coordinator_half(m, share_len, &cfg).expect("half");
        half.open(round, 2);
        let share =
            |party: u32, iteration: u64, epoch: u64, payload: Vec<u64>| Message::MaskedShare {
                iteration,
                epoch,
                party,
                payload,
            };
        let good = frame(secagg, 0, round, 2);
        feed(
            &mut *half,
            &alive,
            vec![
                ("first share", 0, good.clone(), Accepted),
                ("byte-identical duplicate", 0, good, Stale),
                (
                    "conflicting duplicate",
                    0,
                    share(0, round, 2, vec![1, 2, 3]),
                    Protocol,
                ),
                (
                    "wrong payload length",
                    1,
                    share(1, round, 2, vec![1, 2]),
                    Protocol,
                ),
                (
                    "round from the future",
                    1,
                    share(1, round + 1, 2, vec![0; 3]),
                    Protocol,
                ),
                (
                    "epoch from the future",
                    1,
                    share(1, round, 3, vec![0; 3]),
                    Protocol,
                ),
                (
                    "earlier round",
                    1,
                    share(1, round - 1, 2, vec![0; 3]),
                    Stale,
                ),
                ("earlier epoch", 1, share(1, round, 1, vec![0; 3]), Stale),
                ("dropped party", 2, share(2, round, 2, vec![0; 3]), Stale),
                ("unknown party", 9, share(9, round, 2, vec![0; 3]), Stale),
                (
                    "wrong kind",
                    1,
                    frame(SecAggConfig::shamir(), 1, round, 0),
                    Protocol,
                ),
            ],
        );
        assert_eq!(half.pending(&alive), 1, "only party 1 still owes a share");

        // Shamir: distributions, relay, then summed shares.
        let secagg = SecAggConfig::shamir();
        let mut half = secagg.coordinator_half(m, share_len, &cfg).expect("half");
        half.open(round, 0);
        let dist = |party: u32, iteration: u64, flat: Vec<u64>| Message::ShamirDist {
            iteration,
            party,
            flat,
        };
        let sub = |iteration: u64, values: Vec<u64>| Message::Shares { iteration, values };
        let good = frame(secagg, 0, round, 0);
        feed(
            &mut *half,
            &alive,
            vec![
                ("first distribution", 0, good.clone(), Accepted),
                ("byte-identical duplicate", 0, good, Stale),
                (
                    "conflicting duplicate",
                    0,
                    dist(0, round, vec![7; 6]),
                    Protocol,
                ),
                ("bad block count", 1, dist(1, round, vec![7; 9]), Protocol),
                (
                    "round from the future",
                    1,
                    dist(1, round + 1, vec![7; 6]),
                    Protocol,
                ),
                ("earlier round", 1, dist(1, round - 1, vec![7; 6]), Stale),
                ("dropped party", 2, dist(2, round, vec![7; 6]), Stale),
                ("unknown party", 9, dist(9, round, vec![7; 6]), Stale),
                (
                    "summed share before the relay",
                    0,
                    sub(round, vec![1; 3]),
                    Stale,
                ),
                (
                    "summed share from the future",
                    0,
                    sub(round + 1, vec![1; 3]),
                    Protocol,
                ),
                (
                    "wrong kind",
                    1,
                    frame(SecAggConfig::pairwise(), 1, round, 0),
                    Protocol,
                ),
                (
                    "second distribution",
                    1,
                    frame(secagg, 1, round, 0),
                    Accepted,
                ),
            ],
        );
        match half.advance(&alive).expect("relay") {
            Step::Send(frames) => assert_eq!(frames.len(), 2),
            other => panic!("expected the relay, got {other:?}"),
        }
        feed(
            &mut *half,
            &alive,
            vec![
                (
                    "distribution after the relay",
                    1,
                    dist(1, round, vec![7; 6]),
                    Stale,
                ),
                ("non-contributor", 2, sub(round, vec![1; 3]), Stale),
                (
                    "wrong summed-share length",
                    0,
                    sub(round, vec![1; 2]),
                    Protocol,
                ),
                ("first summed share", 0, sub(round, vec![1; 3]), Accepted),
                ("byte-identical duplicate", 0, sub(round, vec![1; 3]), Stale),
                ("conflicting duplicate", 0, sub(round, vec![2; 3]), Protocol),
                ("earlier round", 1, sub(round - 1, vec![1; 3]), Stale),
            ],
        );
        assert_eq!(half.pending(&alive), 1, "only party 1 still owes its sum");

        // Paillier: ciphertexts, aggregate, then the authority's totals.
        let secagg = SecAggConfig::paillier();
        let mut half = secagg.coordinator_half(m, share_len, &cfg).expect("half");
        half.open(round, 0);
        let good = frame(secagg, 0, round, 0);
        let Message::CipherShare { bytes, .. } = &good else {
            panic!("paillier learners contribute ciphertexts, got {good:?}");
        };
        let width = bytes.len();
        let ct = |party: u32, iteration: u64, bytes: Vec<u8>| Message::CipherShare {
            iteration,
            party,
            bytes,
        };
        let total = |iteration: u64, values: Vec<f64>| Message::CipherSum { iteration, values };
        feed(
            &mut *half,
            &alive,
            vec![
                ("first ciphertext", 0, good.clone(), Accepted),
                ("byte-identical duplicate", 0, good.clone(), Stale),
                (
                    "conflicting duplicate",
                    0,
                    ct(0, round, vec![1; width]),
                    Protocol,
                ),
                (
                    "wrong ciphertext length",
                    1,
                    ct(1, round, vec![1; width - 1]),
                    Protocol,
                ),
                (
                    "round from the future",
                    1,
                    ct(1, round + 1, vec![1; width]),
                    Protocol,
                ),
                ("earlier round", 1, ct(1, round - 1, vec![1; width]), Stale),
                ("dropped party", 2, ct(2, round, vec![1; width]), Stale),
                (
                    "totals before the aggregate",
                    0,
                    total(round, vec![0.0; 3]),
                    Stale,
                ),
                (
                    "totals from a non-authority",
                    1,
                    total(round, vec![0.0; 3]),
                    Protocol,
                ),
                (
                    "wrong kind",
                    1,
                    frame(SecAggConfig::pairwise(), 1, round, 0),
                    Protocol,
                ),
                ("second ciphertext", 1, frame(secagg, 1, round, 0), Accepted),
            ],
        );
        match half.advance(&alive).expect("aggregate") {
            Step::Send(frames) => assert_eq!(frames.len(), 1),
            other => panic!("expected the aggregate, got {other:?}"),
        }
        feed(
            &mut *half,
            &alive,
            vec![
                ("ciphertext after the aggregate", 1, good, Stale),
                (
                    "totals from a non-authority",
                    1,
                    total(round, vec![0.0; 3]),
                    Protocol,
                ),
                (
                    "totals from the future",
                    0,
                    total(round + 1, vec![0.0; 3]),
                    Protocol,
                ),
                (
                    "wrong totals length",
                    0,
                    total(round, vec![0.0; 2]),
                    Protocol,
                ),
                ("earlier round", 0, total(round - 1, vec![0.0; 3]), Stale),
                ("the totals", 0, total(round, vec![1.0, 2.0, 3.0]), Accepted),
                (
                    "conflicting totals",
                    0,
                    total(round, vec![9.0; 3]),
                    Protocol,
                ),
            ],
        );
        assert_eq!(
            half.advance(&alive).expect("sum"),
            Step::Sum {
                values: vec![1.0, 2.0, 3.0],
                divisor: 2
            }
        );
    }
}
