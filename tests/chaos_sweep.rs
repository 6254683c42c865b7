//! Deterministic chaos sweep over the distributed ADMM stack (ISSUE 5
//! tentpole, piece 3).
//!
//! Every schedule drives a full star-topology training run through the
//! loopback hub under a seeded, frame-count-based fault plan — drops,
//! duplicates, delays, one-way partitions, frame-counted kills of both
//! learners and the coordinator — and asserts the survivors' models
//! against exact references plus the telemetry story of the recovery.
//! Fault points are counted in protocol frames, not wall-clock, so each
//! schedule injects at the same protocol step on every run.
//!
//! Two schedules escalate to OS processes: a `ppml-coordinator` killed
//! mid-run and restarted with `--resume`, and a learner that dies and is
//! replaced by a `ppml-learner --rejoin true`, both verified through the
//! merged `ppml-trace` timeline. Typed exit codes (exit 2 usage, 3
//! checkpoint, 4 transport, 5 quorum lost) are pinned here too.

use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use ppml::core::distributed::feature_count;
use ppml::core::jobs::{train_linear_on_cluster, ClusterTuning};
use ppml::core::secagg::{
    coordinate_linear_secagg, coordinate_linear_secagg_with_recovery, learn_linear_secagg,
    learn_linear_secagg_with_defect, rejoin_linear_secagg,
};
use ppml::core::{
    AdmmConfig, Checkpoint, DistributedOutcome, DistributedTiming, RecoveryOptions, SecAggConfig,
    TrainError,
};
use ppml::crypto::FixedPointCodec;
use ppml::data::{synth, Dataset, Partition};
use ppml::svm::LinearSvm;
use ppml::telemetry::{self, Event, EventKind, RingSink};
use ppml::trace::{Stream, Timeline};
use ppml::transport::{
    Courier, Envelope, LinkFilter, LinkStats, LoopbackHub, Message, NetFaultPlan, PartyId,
    RetryPolicy, SendReceipt, Transport, TransportError, FLAG_RETRANSMIT,
};

/// Masking seeds the sweep runs every schedule under. The model itself is
/// seed-independent (masks cancel exactly), so each seed re-proves the
/// cancellation property over a different mask stream.
const SEEDS: [u64; 2] = [13, 29];
const M: usize = 3;

/// Telemetry is process-global, and every protocol run now emits into
/// whatever sink is installed — so every schedule takes this for its
/// whole body, serializing the sweep. A schedule that only held it
/// around its capture would still see frames from a concurrently
/// running schedule's coordinator (same party id, same event kinds).
static TELEMETRY_GUARD: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    TELEMETRY_GUARD
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

fn setup(seed: u64) -> (Vec<Dataset>, AdmmConfig) {
    let ds = synth::blobs(96, 7);
    let parts = Partition::horizontal(&ds, M, 2).expect("partition");
    let cfg = AdmmConfig::default().with_max_iter(6).with_seed(seed);
    (parts, cfg)
}

fn timing_ms(deadline: u64, patience: u64) -> DistributedTiming {
    DistributedTiming::default()
        .with_round_deadline(Duration::from_millis(deadline))
        .with_learner_patience(Duration::from_millis(patience))
}

fn cluster_reference(parts: &[Dataset], cfg: &AdmmConfig) -> LinearSvm {
    train_linear_on_cluster(parts, cfg, None, ClusterTuning::default())
        .expect("cluster reference")
        .0
        .model
}

/// Reference for dropout schedules: the same `m`-learner protocol on a
/// fault-free hub with `absent` simply never spawned. A party whose every
/// frame is destroyed is protocol-indistinguishable from one that does
/// not exist, so a faulted run must match this bit for bit. (A cluster
/// run over only the survivors would *not* match: the local QP bakes
/// `a = m/(1+ρm)` in at construction, so survivors of an `m`-learner run
/// keep solving with the original `m`.)
fn run_star_without(
    parts: &[Dataset],
    cfg: &AdmmConfig,
    timing: DistributedTiming,
    absent: usize,
) -> DistributedOutcome {
    let pairwise = SecAggConfig::pairwise();
    let hub = LoopbackHub::new(M + 1);
    let m = parts.len();
    let handles: Vec<_> = parts
        .iter()
        .enumerate()
        .filter(|&(p, _)| p != absent)
        .map(|(p, part)| {
            let mut courier = Courier::new(hub.endpoint(p as PartyId), RetryPolicy::fast_local());
            let part = part.clone();
            let cfg = *cfg;
            thread::spawn(move || {
                learn_linear_secagg(&mut courier, m, &part, &cfg, timing, pairwise)
            })
        })
        .collect();
    let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
    let features = feature_count(parts).expect("partitions");
    let outcome = coordinate_linear_secagg(&mut courier, m, features, cfg, None, timing, pairwise)
        .expect("reference run");
    for h in handles {
        let model = h.join().expect("learner thread").expect("survivor");
        assert_eq!(model, outcome.model, "reference run disagrees internally");
    }
    outcome
}

/// Captures the process-global telemetry emitted while `f` runs. The
/// caller must already hold [`TELEMETRY_GUARD`] (every schedule does).
fn with_telemetry<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
    let ring = RingSink::new(1 << 16);
    telemetry::install(ring.clone());
    let result = f();
    telemetry::uninstall();
    (result, ring.snapshot())
}

/// Rebuilds one party's JSONL stream from captured in-process telemetry,
/// so the chaos schedules can be replayed through the same `ppml::trace`
/// pipeline CI uses on real process streams.
fn stream_of(events: &[Event], party: u32, name: &str) -> Stream {
    let text: String = events
        .iter()
        .filter(|e| e.party == party)
        .map(|e| format!("{}\n", e.to_json()))
        .collect();
    Stream::parse(name, &text)
}

// ---------------------------------------------------------------------
// Schedules 1–4: benign chaos — the model must be bit-identical to the
// no-fault reference and nobody may be dropped.
// ---------------------------------------------------------------------

#[test]
fn benign_chaos_schedules_match_the_no_fault_reference_exactly() {
    let _guard = guard();
    let pairwise = SecAggConfig::pairwise();
    type Schedule = fn(PartyId) -> NetFaultPlan;
    let c = M as PartyId;
    let schedules: Vec<(&str, Schedule)> = vec![
        ("baseline", |_| NetFaultPlan::none()),
        ("frame_soup", |c| {
            NetFaultPlan::none()
                .drop_frames(LinkFilter::any().from(c).to(2), 1)
                .drop_frames(LinkFilter::any().from(0).to(c), 2)
                .duplicate_frames(LinkFilter::any().from(c).to(1), 3)
                .delay_frames(LinkFilter::any().from(1).to(c), 2, 3)
        }),
        ("duplicate_storm", |c| {
            NetFaultPlan::none()
                .duplicate_frames(LinkFilter::any().from(c), 16)
                .duplicate_frames(LinkFilter::any().to(c), 16)
        }),
        ("delay_jitter", |c| {
            NetFaultPlan::none()
                .delay_frames(LinkFilter::any().from(c).to(0), 3, 4)
                .delay_frames(LinkFilter::any().from(2).to(c), 3, 2)
        }),
    ];
    for seed in SEEDS {
        let (parts, cfg) = setup(seed);
        let reference = cluster_reference(&parts, &cfg);
        for (name, plan) in &schedules {
            let hub = LoopbackHub::with_faults(M + 1, plan(c));
            let timing = timing_ms(10_000, 20_000);
            let (outcome, learners) =
                run_star_secagg(&hub, &parts, &cfg, pairwise, timing, &[timing; M], &[]);
            let outcome = outcome.unwrap_or_else(|e| panic!("{name}/seed {seed}: {e}"));
            assert_eq!(outcome.model, reference, "{name}/seed {seed}");
            assert!(outcome.dropped.is_empty(), "{name}/seed {seed}");
            for (p, model) in learners.into_iter().enumerate() {
                let model = model.unwrap_or_else(|e| panic!("{name}/seed {seed}/l{p}: {e}"));
                assert_eq!(model, reference, "{name}/seed {seed}/learner {p}");
            }
            let stats = hub.stats();
            match *name {
                "frame_soup" => assert!(
                    stats.dropped >= 3 && stats.duplicated >= 1 && stats.delayed >= 1,
                    "{name} plan never fired: {stats:?}"
                ),
                "duplicate_storm" => assert!(stats.duplicated >= 8, "{stats:?}"),
                "delay_jitter" => assert!(stats.delayed >= 2, "{stats:?}"),
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------
// Schedule 5: permanent learner kill. The victim's share never lands, so
// the survivors' model equals the two-learner reference from scratch.
// ---------------------------------------------------------------------

#[test]
fn learner_kill_schedule_drops_the_victim_and_survivors_match_the_absent_reference() {
    let _guard = guard();
    let pairwise = SecAggConfig::pairwise();
    let mut models = Vec::new();
    for seed in SEEDS {
        let (parts, cfg) = setup(seed);
        let timing = timing_ms(1_200, 20_000);
        let reference = run_star_without(&parts, &cfg, timing, 1);
        assert_eq!(reference.dropped, vec![1]);
        // Learner 1 is dead from its first frame: everything it sends or
        // receives is destroyed mid-flight, and the run must end exactly
        // where the never-spawned reference does.
        let hub = LoopbackHub::with_faults(M + 1, NetFaultPlan::none().kill_party_after(1, 0));
        let mut timings = [timing; M];
        // The corpse should notice quickly (patience may not undercut
        // the deadline, or the learner refuses to start at all).
        timings[1] = timing_ms(800, 800);
        let ((outcome, learners), events) =
            with_telemetry(|| run_star_secagg(&hub, &parts, &cfg, pairwise, timing, &timings, &[]));
        let outcome = outcome.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(outcome.dropped, vec![1], "seed {seed}");
        assert_eq!(outcome.model, reference.model, "seed {seed}");
        assert_eq!(
            outcome.history.z_delta, reference.history.z_delta,
            "seed {seed}: convergence history diverged from the absent reference"
        );
        for (p, model) in learners.into_iter().enumerate() {
            if p == 1 {
                assert!(model.is_err(), "seed {seed}: the killed learner succeeded");
            } else {
                assert_eq!(model.expect("survivor"), reference.model);
            }
        }
        let coordinator_events: Vec<&Event> =
            events.iter().filter(|e| e.party == M as u32).collect();
        let dropped_at = coordinator_events
            .iter()
            .position(|e| matches!(e.kind, EventKind::Dropout { party: 1, .. }))
            .unwrap_or_else(|| panic!("seed {seed}: no Dropout event"));
        assert!(
            coordinator_events[dropped_at..]
                .iter()
                .any(|e| matches!(e.kind, EventKind::RekeyEpoch { survivors: 2, .. })),
            "seed {seed}: dropout not followed by a 2-survivor re-key"
        );
        models.push(outcome.model);

        // Second kill point: learner 1 dies right behind its last share,
        // before the final `done` broadcast. Too late to hurt the model
        // — every round summed all three learners — but the loss must
        // still take the one drop path, on every backend: recorded in
        // `dropped` *and* announced as a Dropout, with no re-key (the
        // run is over). With telemetry on, a learner round is its
        // protocol frames plus one Telemetry delta; the kill lands on
        // the last protocol frame of the last round.
        let full = cluster_reference(&parts, &cfg);
        let rounds = cfg.max_iter as u32;
        for (secagg, frames_per_round) in [
            (SecAggConfig::pairwise(), 2),
            (SecAggConfig::shamir(), 3),
            (SecAggConfig::paillier(), 2),
        ] {
            let name = secagg.kind.as_str();
            let last_share = frames_per_round * rounds - 1;
            let hub = LoopbackHub::with_faults(
                M + 1,
                NetFaultPlan::none().kill_party_after(1, last_share),
            );
            let ((outcome, learners), events) = with_telemetry(|| {
                run_star_secagg(&hub, &parts, &cfg, secagg, timing, &timings, &[])
            });
            let outcome = outcome.unwrap_or_else(|e| panic!("{name}/seed {seed}: {e}"));
            assert_eq!(outcome.dropped, vec![1], "{name}/seed {seed}");
            assert_eq!(outcome.model, full, "{name}/seed {seed}");
            for (p, model) in learners.into_iter().enumerate() {
                if p == 1 {
                    assert!(model.is_err(), "{name}/seed {seed}: the victim saw `done`");
                } else {
                    assert_eq!(model.expect("survivor"), full, "{name}/seed {seed}");
                }
            }
            assert!(
                events.iter().any(|e| e.party == M as u32
                    && matches!(
                        e.kind,
                        EventKind::Dropout { party: 1, iteration } if iteration == u64::from(rounds)
                    )),
                "{name}/seed {seed}: no Dropout for the learner lost on `done`"
            );
            assert_no_rekey(&events, &format!("{name}/seed {seed}: late kill"));
        }
    }
    // The §V masks differ per seed yet cancel exactly, so the model is
    // identical across mask seeds down to the last bit.
    assert!(
        models.windows(2).all(|w| w[0] == w[1]),
        "model depends on the mask seed: {models:?}"
    );
}

// ---------------------------------------------------------------------
// Schedule 6: one-way partition. Learner 0 can hear but not speak — the
// exact failure mode §V's re-key must catch via the missing-share path.
// ---------------------------------------------------------------------

#[test]
fn one_way_partition_schedule_isolates_the_silent_sender() {
    let _guard = guard();
    let pairwise = SecAggConfig::pairwise();
    for seed in SEEDS {
        let (parts, cfg) = setup(seed);
        let timing = timing_ms(1_200, 20_000);
        let reference = run_star_without(&parts, &cfg, timing, 0);
        assert_eq!(reference.dropped, vec![0]);
        let hub = LoopbackHub::with_faults(
            M + 1,
            NetFaultPlan::none().partition_one_way(0, M as PartyId),
        );
        let mut timings = [timing; M];
        timings[0] = timing_ms(1_200, 800);
        let ((outcome, learners), events) =
            with_telemetry(|| run_star_secagg(&hub, &parts, &cfg, pairwise, timing, &timings, &[]));
        let outcome = outcome.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(outcome.dropped, vec![0], "seed {seed}");
        assert_eq!(outcome.model, reference.model, "seed {seed}");
        assert_eq!(
            outcome.history.z_delta, reference.history.z_delta,
            "seed {seed}: convergence history diverged from the absent reference"
        );
        for (p, model) in learners.into_iter().enumerate() {
            if p == 0 {
                assert!(model.is_err(), "seed {seed}: the muted learner succeeded");
            } else {
                assert_eq!(model.expect("survivor"), reference.model);
            }
        }
        assert!(
            events
                .iter()
                .any(|e| e.party == M as u32
                    && matches!(e.kind, EventKind::Dropout { party: 0, .. })),
            "seed {seed}: no Dropout recorded for the muted learner"
        );
    }
}

// ---------------------------------------------------------------------
// Schedule 7: death then rejoin. Learner 1 goes silent after round 0
// (`learn_linear_secagg_with_defect`), its patience expires, and the same
// party comes back through the Join/Welcome rendezvous
// (`rejoin_linear_secagg`) while the coordinator is still waiting out the
// round deadline.
// ---------------------------------------------------------------------

#[test]
fn learner_death_then_rejoin_schedule_readmits_the_learner() {
    let _guard = guard();
    let pairwise = SecAggConfig::pairwise();
    for seed in SEEDS {
        let (parts, cfg) = setup(seed);
        // Learner 1 plays round 0 then goes silent while still ACKing
        // (the worst case for the coordinator: dead parties are caught
        // cheaply at broadcast, a *silent* one costs a full round
        // deadline). Its patience starves during the coordinator's
        // round-1 stall, the process "restarts", and the fresh
        // incarnation's Join probes land mid-stall — well before the
        // deadline drops it and rounds speed up again. A storm of
        // duplicated frames rides along to keep the dedup layer honest.
        let hub = LoopbackHub::with_faults(
            M + 1,
            NetFaultPlan::none().duplicate_frames(LinkFilter::any(), 64),
        );
        let m = M;
        let handles: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(p, part)| {
                let hub = Arc::clone(&hub);
                let part = part.clone();
                thread::spawn(move || -> Result<LinearSvm, TrainError> {
                    if p == 1 {
                        // First incarnation: correct for round 0, silent
                        // from round 1, dead once its patience starves...
                        let mut courier = Courier::new(hub.endpoint(1), RetryPolicy::fast_local());
                        let first = learn_linear_secagg_with_defect(
                            &mut courier,
                            m,
                            &part,
                            &cfg,
                            timing_ms(500, 500),
                            pairwise,
                            1,
                        );
                        assert!(
                            matches!(first, Err(TrainError::Transport(_))),
                            "the defecting learner should starve, got {first:?}"
                        );
                        // ...then a fresh incarnation asks back in.
                        let mut courier = Courier::new(hub.endpoint(1), RetryPolicy::fast_local());
                        rejoin_linear_secagg(
                            &mut courier,
                            m,
                            &part,
                            &cfg,
                            timing_ms(2_500, 20_000),
                            pairwise,
                        )
                    } else {
                        let mut courier =
                            Courier::new(hub.endpoint(p as PartyId), RetryPolicy::fast_local());
                        learn_linear_secagg(
                            &mut courier,
                            m,
                            &part,
                            &cfg,
                            timing_ms(2_500, 20_000),
                            pairwise,
                        )
                    }
                })
            })
            .collect();
        let (outcome, events) = with_telemetry(|| {
            let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
            let features = feature_count(&parts).expect("partitions");
            coordinate_linear_secagg(
                &mut courier,
                m,
                features,
                &cfg,
                None,
                timing_ms(2_500, 20_000),
                pairwise,
            )
        });
        let outcome = outcome.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            outcome.dropped.is_empty(),
            "seed {seed}: rejoin did not clear the dropped list: {:?}",
            outcome.dropped
        );
        for (p, handle) in handles.into_iter().enumerate() {
            let model = handle.join().expect("learner thread");
            assert_eq!(
                model.unwrap_or_else(|e| panic!("seed {seed}/learner {p}: {e}")),
                outcome.model,
                "seed {seed}: learner {p} disagrees after the rejoin"
            );
        }
        // Replay the coordinator's telemetry through the trace pipeline:
        // the rejoin story must name the dropped round, the re-admission
        // round and the full-strength re-key.
        let timeline = Timeline::correlate(vec![stream_of(&events, M as u32, "coordinator.jsonl")]);
        let stories = timeline.rejoin_stories();
        assert_eq!(stories.len(), 1, "seed {seed}: {stories:?}");
        assert_eq!(stories[0].party, 1);
        assert_eq!(stories[0].dropped_at, Some(1), "seed {seed}");
        assert_eq!(stories[0].iteration, 2, "seed {seed}: {stories:?}");
        assert_eq!(
            stories[0].rekey.map(|(_, survivors)| survivors),
            Some(M as u32),
            "seed {seed}: re-admission re-key not over the full set"
        );
        assert!(
            timeline.render().contains("rejoin story: party 1"),
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------
// Schedule 8: coordinator kill + checkpoint resume, under every backend.
// Recovery lives in the one coordinator driver, so each resumed run must
// reproduce the same uninterrupted model bit for bit.
// ---------------------------------------------------------------------

#[test]
fn coordinator_kill_and_resume_schedule_reproduces_the_reference_bitwise() {
    let _guard = guard();
    // Countable coordinator frames up to and including the round-2
    // broadcasts (per round: 3 broadcasts, plus 3 shamir relays or 1
    // paillier aggregate); the round-2 collection is destroyed with the
    // coordinator.
    let backends = [
        (SecAggConfig::pairwise(), 9),
        (SecAggConfig::shamir(), 15),
        (SecAggConfig::paillier(), 11),
    ];
    for seed in SEEDS {
        for (secagg, kill_after) in backends {
            kill_and_resume(seed, secagg, kill_after);
        }
    }
}

fn kill_and_resume(seed: u64, secagg: SecAggConfig, kill_after: u32) {
    let name = secagg.kind.as_str();
    let (parts, cfg) = setup(seed);
    let reference = cluster_reference(&parts, &cfg);
    let ckpt_path = std::env::temp_dir().join(format!(
        "ppml-chaos-resume-{}-{seed}-{name}.ckpt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&ckpt_path);

    let hub = LoopbackHub::with_faults(
        M + 1,
        NetFaultPlan::none().kill_party_after(M as PartyId, kill_after),
    );
    let m = M;
    let handles: Vec<_> = parts
        .iter()
        .enumerate()
        .map(|(p, part)| {
            let mut courier = Courier::new(hub.endpoint(p as PartyId), RetryPolicy::fast_local());
            let part = part.clone();
            thread::spawn(move || {
                let timing = timing_ms(1_000, 25_000);
                learn_linear_secagg(&mut courier, m, &part, &cfg, timing, secagg)
            })
        })
        .collect();

    let ((), events) = with_telemetry(|| {
        let features = feature_count(&parts).expect("partitions");
        let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
        let crashed = coordinate_linear_secagg_with_recovery(
            &mut courier,
            m,
            features,
            &cfg,
            None,
            timing_ms(1_000, 25_000),
            secagg,
            RecoveryOptions::default().with_checkpoint(&ckpt_path),
        );
        assert!(
            matches!(crashed, Err(TrainError::Dropped { .. })),
            "{name}/seed {seed}: dead coordinator should lose quorum, got {crashed:?}"
        );

        // "Restart": heal the network, load the snapshot, fresh courier.
        hub.set_faults(NetFaultPlan::none());
        let ckpt = Checkpoint::load(&ckpt_path).expect("checkpoint readable");
        assert_eq!(ckpt.next_round, 2, "{name}/seed {seed}");
        ckpt.check_compatible(m, features, cfg.seed)
            .expect("checkpoint compatible");
        let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
        let resumed = coordinate_linear_secagg_with_recovery(
            &mut courier,
            m,
            features,
            &cfg,
            None,
            timing_ms(1_000, 25_000),
            secagg,
            RecoveryOptions::default()
                .with_checkpoint(&ckpt_path)
                .with_resume(ckpt),
        )
        .unwrap_or_else(|e| panic!("{name}/seed {seed}: resume failed: {e}"));
        assert_eq!(
            resumed.model, reference,
            "{name}/seed {seed}: resumed model diverged"
        );
        assert!(resumed.dropped.is_empty(), "{name}/seed {seed}");
        for (p, h) in handles.into_iter().enumerate() {
            let model = h.join().expect("learner thread");
            assert_eq!(
                model.unwrap_or_else(|e| panic!("{name}/seed {seed}/learner {p}: {e}")),
                reference
            );
        }
    });

    // Telemetry replay: one checkpoint per accepted round across both
    // incarnations, and exactly one resume with the full survivor set.
    let checkpoints = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CheckpointWrite { .. }))
        .count();
    assert_eq!(checkpoints, cfg.max_iter, "{name}/seed {seed}");
    let resumes: Vec<u32> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::ResumeFromCheckpoint { survivors, .. } => Some(survivors),
            _ => None,
        })
        .collect();
    assert_eq!(resumes, vec![M as u32], "{name}/seed {seed}");
    let _ = std::fs::remove_file(&ckpt_path);
}

// ---------------------------------------------------------------------
// Wire tap: only masked shares leave a learner, and a share alone decodes
// to garbage — §V's on-the-wire property, checked on real protocol
// traffic rather than on the primitive.
// ---------------------------------------------------------------------

/// Every frame a wrapped transport sends (recipient, message, frame flags)
/// and every message it receives.
struct TapTransport<T: Transport> {
    inner: T,
    sent: Arc<Mutex<Vec<(PartyId, Message, u16)>>>,
    received: Arc<Mutex<Vec<Message>>>,
}

impl<T: Transport> Transport for TapTransport<T> {
    fn party(&self) -> PartyId {
        self.inner.party()
    }
    fn next_seq(&mut self, to: PartyId) -> u64 {
        self.inner.next_seq(to)
    }
    fn send_raw(
        &mut self,
        to: PartyId,
        msg: &Message,
        seq: u64,
        flags: u16,
    ) -> Result<usize, TransportError> {
        self.sent
            .lock()
            .expect("tap")
            .push((to, msg.clone(), flags));
        self.inner.send_raw(to, msg, seq, flags)
    }
    fn recv(&mut self, timeout: Duration) -> Result<Envelope, TransportError> {
        let env = self.inner.recv(timeout)?;
        self.received.lock().expect("tap").push(env.msg.clone());
        Ok(env)
    }
    fn stats(&self) -> LinkStats {
        self.inner.stats()
    }
    fn send(&mut self, to: PartyId, msg: &Message) -> Result<SendReceipt, TransportError> {
        let seq = self.next_seq(to);
        let bytes = self.send_raw(to, msg, seq, 0)?;
        Ok(SendReceipt { seq, bytes })
    }
}

#[test]
fn wire_tap_sees_only_masked_shares_and_a_lone_share_decodes_to_garbage() {
    let _guard = guard();
    let pairwise = SecAggConfig::pairwise();
    for seed in SEEDS {
        let (parts, cfg) = setup(seed);
        let hub = LoopbackHub::new(M + 1);
        let sent = Arc::new(Mutex::new(Vec::new()));
        let received = Arc::new(Mutex::new(Vec::new()));
        let m = M;
        let handles: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(p, part)| {
                let part = part.clone();
                let transport = hub.endpoint(p as PartyId);
                if p == 0 {
                    let tap = TapTransport {
                        inner: transport,
                        sent: Arc::clone(&sent),
                        received: Arc::clone(&received),
                    };
                    thread::spawn(move || {
                        let mut courier = Courier::new(tap, RetryPolicy::fast_local());
                        learn_linear_secagg(
                            &mut courier,
                            m,
                            &part,
                            &cfg,
                            timing_ms(10_000, 20_000),
                            pairwise,
                        )
                    })
                } else {
                    thread::spawn(move || {
                        let mut courier = Courier::new(transport, RetryPolicy::fast_local());
                        learn_linear_secagg(
                            &mut courier,
                            m,
                            &part,
                            &cfg,
                            timing_ms(10_000, 20_000),
                            pairwise,
                        )
                    })
                }
            })
            .collect();
        let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
        let features = feature_count(&parts).expect("partitions");
        coordinate_linear_secagg(
            &mut courier,
            m,
            features,
            &cfg,
            None,
            timing_ms(10_000, 20_000),
            pairwise,
        )
        .expect("coordinator");
        for h in handles {
            h.join().expect("learner thread").expect("learner");
        }

        // Everything learner 0 put on the wire is masked words or control
        // traffic — never a raw model, never plaintext floats.
        let sent = sent.lock().expect("tap");
        assert!(!sent.is_empty());
        // Shares are counted by first transmission: an ARQ retransmission
        // (a timer firing before the ack, which a loaded host can cause) is a
        // second frame on the tap, not a second contribution, and must carry
        // the very words of the first.
        let mut shares: Vec<(u64, Vec<u64>)> = Vec::new();
        let mut retransmitted: Vec<(u64, Vec<u64>)> = Vec::new();
        for (to, msg, flags) in sent.iter() {
            assert_eq!(*to, m as PartyId, "learner spoke to a non-coordinator");
            match msg {
                Message::MaskedShare {
                    iteration, payload, ..
                } if flags & FLAG_RETRANSMIT == 0 => shares.push((*iteration, payload.clone())),
                Message::MaskedShare {
                    iteration, payload, ..
                } => retransmitted.push((*iteration, payload.clone())),
                Message::Ack { .. }
                | Message::Heartbeat { .. }
                | Message::TimeReply { .. }
                | Message::Join { .. } => {}
                other => panic!("unexpected frame kind on the wire: {other:?}"),
            }
        }
        assert_eq!(shares.len(), cfg.max_iter, "seed {seed}");
        for (iteration, payload) in &retransmitted {
            let first = shares
                .iter()
                .find(|(it, _)| it == iteration)
                .unwrap_or_else(|| panic!("seed {seed}: round {iteration} retransmitted unsent"));
            assert_eq!(
                &first.1, payload,
                "seed {seed} round {iteration}: retransmit differs"
            );
        }

        // A share alone must not decode anywhere near the consensus state
        // the coordinator published for the same round: the pairwise pads
        // only cancel in the full survivor sum.
        let codec = FixedPointCodec::default();
        let consensus: Vec<(u64, Vec<f64>)> = received
            .lock()
            .expect("tap")
            .iter()
            .filter_map(|msg| match msg {
                Message::Consensus { iteration, z, .. } => Some((*iteration, z.clone())),
                _ => None,
            })
            .collect();
        for (iteration, payload) in &shares {
            let alone: Vec<f64> = payload.iter().map(|&v| codec.decode_u64(v)).collect();
            let (_, z) = consensus
                .iter()
                .find(|(it, _)| it == iteration)
                .unwrap_or_else(|| panic!("no consensus for round {iteration}"));
            let distance = alone
                .iter()
                .zip(z.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0_f64, f64::max);
            assert!(
                distance > 1.0,
                "seed {seed} round {iteration}: lone share decoded next to consensus \
                 (distance {distance:.3e}) — masks leaked"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Secure-aggregation schedules (ISSUE 8): the pluggable backends must
// survive the same chaos the pairwise path does. Shamir and Paillier
// runs are held to *bit-identity* against pairwise references — the
// GF(2^61-1) and Paillier group sums decode to the same integer the
// pairwise path computes, so any drift is a protocol bug, not noise.
// ---------------------------------------------------------------------

/// Runs one star-topology schedule under `secagg`: learners on threads,
/// coordinator on the caller's thread, per-learner timings so a schedule
/// can starve one party's patience without slowing the others, and
/// optional per-party defect rounds (`(party, defect_after)`).
fn run_star_secagg(
    hub: &Arc<LoopbackHub>,
    parts: &[Dataset],
    cfg: &AdmmConfig,
    secagg: SecAggConfig,
    coord_timing: DistributedTiming,
    learner_timing: &[DistributedTiming],
    defects: &[(usize, u64)],
) -> (
    ppml::core::Result<DistributedOutcome>,
    Vec<Result<LinearSvm, TrainError>>,
) {
    let m = parts.len();
    let handles: Vec<_> = parts
        .iter()
        .enumerate()
        .map(|(p, part)| {
            let mut courier = Courier::new(hub.endpoint(p as PartyId), RetryPolicy::fast_local());
            let part = part.clone();
            let cfg = *cfg;
            let timing = learner_timing[p];
            let defect = defects
                .iter()
                .find(|&&(party, _)| party == p)
                .map(|&(_, d)| d);
            thread::spawn(move || match defect {
                Some(d) => {
                    learn_linear_secagg_with_defect(&mut courier, m, &part, &cfg, timing, secagg, d)
                }
                None => learn_linear_secagg(&mut courier, m, &part, &cfg, timing, secagg),
            })
        })
        .collect();
    let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
    let features = feature_count(parts).expect("partitions");
    let outcome =
        coordinate_linear_secagg(&mut courier, m, features, cfg, None, coord_timing, secagg);
    let learners = handles
        .into_iter()
        .map(|h| h.join().expect("learner thread"))
        .collect();
    (outcome, learners)
}

/// Coordinator-side `SecAggRound` labels, in round order.
fn secagg_round_labels(events: &[Event]) -> Vec<&'static str> {
    events
        .iter()
        .filter(|e| e.party == M as u32)
        .filter_map(|e| match e.kind {
            EventKind::SecAggRound { backend, .. } => Some(backend),
            _ => None,
        })
        .collect()
}

fn assert_no_rekey(events: &[Event], context: &str) {
    assert!(
        events
            .iter()
            .all(|e| !matches!(e.kind, EventKind::RekeyEpoch { .. })),
        "{context}: a stateless backend emitted a re-key round"
    );
}

// ---------------------------------------------------------------------
// Schedule 9: benign chaos per backend. Shamir rides the nastiest fault
// plan (drops + dups + delays) and must still land bit-identical to the
// fault-free pairwise run; Paillier gets a duplicate storm.
// ---------------------------------------------------------------------

#[test]
fn secagg_backends_survive_benign_chaos_bit_identical_to_pairwise() {
    let _guard = guard();
    let c = M as PartyId;
    for seed in SEEDS {
        let (parts, cfg) = setup(seed);
        let timing = timing_ms(10_000, 20_000);
        let reference = {
            let hub = LoopbackHub::new(M + 1);
            let (outcome, _) = run_star_secagg(
                &hub,
                &parts,
                &cfg,
                SecAggConfig::pairwise(),
                timing,
                &[timing; M],
                &[],
            );
            outcome.expect("pairwise reference")
        };
        let legs: Vec<(SecAggConfig, NetFaultPlan)> = vec![
            (
                SecAggConfig::shamir(),
                NetFaultPlan::none()
                    .drop_frames(LinkFilter::any().from(c).to(2), 1)
                    .drop_frames(LinkFilter::any().from(0).to(c), 2)
                    .duplicate_frames(LinkFilter::any().from(c).to(1), 3)
                    .delay_frames(LinkFilter::any().from(1).to(c), 2, 3),
            ),
            (
                SecAggConfig::paillier(),
                NetFaultPlan::none()
                    .duplicate_frames(LinkFilter::any().from(c), 8)
                    .duplicate_frames(LinkFilter::any().to(c), 8),
            ),
        ];
        for (secagg, plan) in legs {
            let name = secagg.kind.as_str();
            let hub = LoopbackHub::with_faults(M + 1, plan);
            let ((outcome, learners), events) = with_telemetry(|| {
                run_star_secagg(&hub, &parts, &cfg, secagg, timing, &[timing; M], &[])
            });
            let outcome = outcome.unwrap_or_else(|e| panic!("{name}/seed {seed}: {e}"));
            assert_eq!(outcome.model, reference.model, "{name}/seed {seed}");
            assert_eq!(
                outcome.history.z_delta, reference.history.z_delta,
                "{name}/seed {seed}: convergence history diverged from pairwise"
            );
            assert!(outcome.dropped.is_empty(), "{name}/seed {seed}");
            for (p, model) in learners.into_iter().enumerate() {
                let model = model.unwrap_or_else(|e| panic!("{name}/seed {seed}/l{p}: {e}"));
                assert_eq!(model, reference.model, "{name}/seed {seed}/learner {p}");
            }
            assert_no_rekey(&events, &format!("{name}/seed {seed}"));
            let labels = secagg_round_labels(&events);
            assert_eq!(labels.len(), cfg.max_iter, "{name}/seed {seed}");
            assert!(labels.iter().all(|&b| b == name), "{name}: {labels:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Schedule 10: the headline Shamir property. A learner dies mid-collect
// — it distributed its round-d shares but never submits its sum — and
// the round STILL completes with the victim's input counted, with no
// re-key round anywhere. Membership-wise that equals a pairwise run
// whose victim defects one round later (pairwise loses the victim's
// round-d input at the collect; Shamir keeps it via reconstruction), so
// the pairwise defect-at-d+1 run is the bitwise reference.
// ---------------------------------------------------------------------

#[test]
fn shamir_mid_collect_death_completes_the_round_without_a_rekey() {
    let _guard = guard();
    for seed in SEEDS {
        let (parts, cfg) = setup(seed);
        let timing = timing_ms(1_200, 20_000);
        let defect_round = 2u64;
        let reference = {
            let hub = LoopbackHub::new(M + 1);
            let mut timings = [timing; M];
            timings[1] = timing_ms(1_200, 800);
            let (outcome, _) = run_star_secagg(
                &hub,
                &parts,
                &cfg,
                SecAggConfig::pairwise(),
                timing,
                &timings,
                &[(1, defect_round + 1)],
            );
            outcome.expect("pairwise reference")
        };
        assert_eq!(reference.dropped, vec![1]);
        let hub = LoopbackHub::new(M + 1);
        let mut timings = [timing; M];
        timings[1] = timing_ms(1_200, 800);
        let ((outcome, learners), events) = with_telemetry(|| {
            run_star_secagg(
                &hub,
                &parts,
                &cfg,
                SecAggConfig::shamir(),
                timing,
                &timings,
                &[(1, defect_round)],
            )
        });
        let outcome = outcome.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(outcome.dropped, vec![1], "seed {seed}");
        assert_eq!(
            outcome.model,
            reference.model,
            "seed {seed}: survivors diverged from the pairwise defect-at-{}-reference",
            defect_round + 1
        );
        assert_eq!(
            outcome.history.z_delta, reference.history.z_delta,
            "seed {seed}: the mid-collect round lost the victim's input"
        );
        for (p, model) in learners.into_iter().enumerate() {
            if p == 1 {
                assert!(model.is_err(), "seed {seed}: the dead learner succeeded");
            } else {
                assert_eq!(model.expect("survivor"), reference.model, "seed {seed}");
            }
        }
        assert!(
            events
                .iter()
                .any(|e| e.party == M as u32
                    && matches!(e.kind, EventKind::Dropout { party: 1, .. })),
            "seed {seed}: no Dropout recorded for the mid-collect death"
        );
        assert_no_rekey(&events, &format!("shamir/seed {seed}"));
        let labels = secagg_round_labels(&events);
        assert_eq!(
            labels.len(),
            cfg.max_iter,
            "seed {seed}: the dropout cost a round — {labels:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Schedule 11: death then rejoin under Shamir. Same shape as schedule 7
// but the re-admission must happen with NO re-key at all — threshold
// sharing has no epoch state to rebuild.
// ---------------------------------------------------------------------

#[test]
fn shamir_death_then_rejoin_readmits_without_any_rekey() {
    let _guard = guard();
    let seed = SEEDS[0];
    let (parts, cfg) = setup(seed);
    let secagg = SecAggConfig::shamir();
    let hub = LoopbackHub::new(M + 1);
    let m = M;
    let handles: Vec<_> = parts
        .iter()
        .enumerate()
        .map(|(p, part)| {
            let hub = Arc::clone(&hub);
            let part = part.clone();
            thread::spawn(move || -> Result<LinearSvm, TrainError> {
                if p == 1 {
                    let mut courier = Courier::new(hub.endpoint(1), RetryPolicy::fast_local());
                    let first = learn_linear_secagg_with_defect(
                        &mut courier,
                        m,
                        &part,
                        &cfg,
                        timing_ms(500, 500),
                        secagg,
                        1,
                    );
                    assert!(
                        matches!(first, Err(TrainError::Transport(_))),
                        "the defecting learner should starve, got {first:?}"
                    );
                    let mut courier = Courier::new(hub.endpoint(1), RetryPolicy::fast_local());
                    rejoin_linear_secagg(
                        &mut courier,
                        m,
                        &part,
                        &cfg,
                        timing_ms(2_500, 20_000),
                        secagg,
                    )
                } else {
                    let mut courier =
                        Courier::new(hub.endpoint(p as PartyId), RetryPolicy::fast_local());
                    learn_linear_secagg(
                        &mut courier,
                        m,
                        &part,
                        &cfg,
                        timing_ms(2_500, 20_000),
                        secagg,
                    )
                }
            })
        })
        .collect();
    let (outcome, events) = with_telemetry(|| {
        let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
        let features = feature_count(&parts).expect("partitions");
        coordinate_linear_secagg(
            &mut courier,
            m,
            features,
            &cfg,
            None,
            timing_ms(2_500, 20_000),
            secagg,
        )
    });
    let outcome = outcome.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    assert!(
        outcome.dropped.is_empty(),
        "seed {seed}: rejoin did not clear the dropped list: {:?}",
        outcome.dropped
    );
    for (p, handle) in handles.into_iter().enumerate() {
        let model = handle.join().expect("learner thread");
        assert_eq!(
            model.unwrap_or_else(|e| panic!("seed {seed}/learner {p}: {e}")),
            outcome.model,
            "seed {seed}: learner {p} disagrees after the rejoin"
        );
    }
    let coordinator: Vec<&Event> = events.iter().filter(|e| e.party == M as u32).collect();
    assert!(
        coordinator
            .iter()
            .any(|e| matches!(e.kind, EventKind::Dropout { party: 1, .. })),
        "seed {seed}: no Dropout for the dead incarnation"
    );
    assert!(
        coordinator
            .iter()
            .any(|e| matches!(e.kind, EventKind::Rejoin { party: 1, .. })),
        "seed {seed}: no Rejoin for the fresh incarnation"
    );
    assert_no_rekey(&events, &format!("shamir rejoin/seed {seed}"));
}

// ---------------------------------------------------------------------
// Schedule 12: Paillier dropout. A defector is dropped at the round
// deadline with no re-key; the survivors match the pairwise run with
// the same defect round bit for bit (both backends lose the victim's
// round-d input at the collect).
// ---------------------------------------------------------------------

#[test]
fn paillier_defector_is_dropped_without_a_rekey_and_matches_pairwise() {
    let _guard = guard();
    let seed = SEEDS[1];
    let (parts, cfg) = setup(seed);
    let timing = timing_ms(1_200, 20_000);
    let defect_round = 1u64;
    let reference = {
        let hub = LoopbackHub::new(M + 1);
        let mut timings = [timing; M];
        timings[1] = timing_ms(1_200, 800);
        let (outcome, _) = run_star_secagg(
            &hub,
            &parts,
            &cfg,
            SecAggConfig::pairwise(),
            timing,
            &timings,
            &[(1, defect_round)],
        );
        outcome.expect("pairwise reference")
    };
    assert_eq!(reference.dropped, vec![1]);
    let hub = LoopbackHub::new(M + 1);
    let mut timings = [timing; M];
    timings[1] = timing_ms(1_200, 800);
    let ((outcome, learners), events) = with_telemetry(|| {
        run_star_secagg(
            &hub,
            &parts,
            &cfg,
            SecAggConfig::paillier(),
            timing,
            &timings,
            &[(1, defect_round)],
        )
    });
    let outcome = outcome.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    assert_eq!(outcome.dropped, vec![1], "seed {seed}");
    assert_eq!(outcome.model, reference.model, "seed {seed}");
    assert_eq!(
        outcome.history.z_delta, reference.history.z_delta,
        "seed {seed}: convergence history diverged from pairwise"
    );
    for (p, model) in learners.into_iter().enumerate() {
        if p == 1 {
            assert!(model.is_err(), "seed {seed}: the defector succeeded");
        } else {
            assert_eq!(model.expect("survivor"), reference.model, "seed {seed}");
        }
    }
    assert!(
        events
            .iter()
            .any(|e| e.party == M as u32 && matches!(e.kind, EventKind::Dropout { party: 1, .. })),
        "seed {seed}: no Dropout recorded"
    );
    assert_no_rekey(&events, &format!("paillier/seed {seed}"));
    let labels = secagg_round_labels(&events);
    assert_eq!(labels.len(), cfg.max_iter, "seed {seed}");
    assert!(labels.iter().all(|&b| b == "paillier"), "{labels:?}");
}

// ---------------------------------------------------------------------
// Shamir wire tap: a learner's outbound traffic is blinded share blocks
// and summed shares only, and a lone summed share (one point of a
// degree t-1 polynomial, t = 2 here) decodes to garbage.
// ---------------------------------------------------------------------

#[test]
fn shamir_wire_tap_sees_only_blinded_blocks_and_a_lone_share_decodes_to_garbage() {
    let _guard = guard();
    let seed = SEEDS[0];
    let (parts, cfg) = setup(seed);
    let secagg = SecAggConfig::shamir();
    let hub = LoopbackHub::new(M + 1);
    let sent = Arc::new(Mutex::new(Vec::new()));
    let received = Arc::new(Mutex::new(Vec::new()));
    let m = M;
    let handles: Vec<_> = parts
        .iter()
        .enumerate()
        .map(|(p, part)| {
            let part = part.clone();
            let transport = hub.endpoint(p as PartyId);
            if p == 0 {
                let tap = TapTransport {
                    inner: transport,
                    sent: Arc::clone(&sent),
                    received: Arc::clone(&received),
                };
                thread::spawn(move || {
                    let mut courier = Courier::new(tap, RetryPolicy::fast_local());
                    learn_linear_secagg(
                        &mut courier,
                        m,
                        &part,
                        &cfg,
                        timing_ms(10_000, 20_000),
                        secagg,
                    )
                })
            } else {
                thread::spawn(move || {
                    let mut courier = Courier::new(transport, RetryPolicy::fast_local());
                    learn_linear_secagg(
                        &mut courier,
                        m,
                        &part,
                        &cfg,
                        timing_ms(10_000, 20_000),
                        secagg,
                    )
                })
            }
        })
        .collect();
    let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
    let features = feature_count(&parts).expect("partitions");
    coordinate_linear_secagg(
        &mut courier,
        m,
        features,
        &cfg,
        None,
        timing_ms(10_000, 20_000),
        secagg,
    )
    .expect("coordinator");
    for h in handles {
        h.join().expect("learner thread").expect("learner");
    }

    // Learner 0 only ever sends pad-blinded distribution blocks, summed
    // shares and control frames — never a raw model or a bare share.
    let sent = sent.lock().expect("tap");
    assert!(!sent.is_empty());
    // Counted per distinct iteration: an ARQ retransmission under load
    // is a second frame on the tap, not a second contribution.
    let mut dists = std::collections::BTreeSet::new();
    let mut sums: Vec<(u64, Vec<u64>)> = Vec::new();
    for (to, msg, _) in sent.iter() {
        assert_eq!(*to, m as PartyId, "learner spoke to a non-coordinator");
        match msg {
            Message::ShamirDist {
                party, iteration, ..
            } => {
                assert_eq!(*party, 0);
                dists.insert(*iteration);
            }
            Message::Shares { iteration, values } => {
                if sums.iter().all(|(seen, _)| seen != iteration) {
                    sums.push((*iteration, values.clone()));
                }
            }
            Message::Ack { .. }
            | Message::Heartbeat { .. }
            | Message::TimeReply { .. }
            | Message::Join { .. } => {}
            other => panic!("unexpected frame kind on the wire: {other:?}"),
        }
    }
    assert_eq!(dists.len(), cfg.max_iter, "seed {seed}");
    assert_eq!(sums.len(), cfg.max_iter, "seed {seed}");

    // One summed share is a single evaluation of a random degree-(t-1)
    // polynomial whose constant term is the secret sum: decoding it
    // alone must land nowhere near the consensus the round produced.
    let codec = FixedPointCodec::default();
    let consensus: Vec<(u64, Vec<f64>)> = received
        .lock()
        .expect("tap")
        .iter()
        .filter_map(|msg| match msg {
            Message::Consensus { iteration, z, .. } => Some((*iteration, z.clone())),
            _ => None,
        })
        .collect();
    for (iteration, values) in &sums {
        let alone: Vec<f64> = values
            .iter()
            .map(|&y| codec.decode_field(y) / m as f64)
            .collect();
        let (_, z) = consensus
            .iter()
            .find(|(it, _)| it == iteration)
            .unwrap_or_else(|| panic!("no consensus for round {iteration}"));
        let distance = alone
            .iter()
            .zip(z.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert!(
            distance > 1.0,
            "seed {seed} round {iteration}: lone summed share decoded next to consensus \
             (distance {distance:.3e}) — blinding leaked"
        );
    }
}
