//! Acceptance test for the telemetry stream of a faulty distributed run:
//! a three-learner TCP training session in which one learner silently
//! stops contributing mid-run. The JSONL stream written during the run is
//! then *replayed* — every line re-parsed — and must contain the round
//! deadline miss, the dropout declaration and the re-key epoch.
//!
//! This lives in its own integration-test binary because the telemetry
//! collector is process-global: a separate process keeps the installed
//! sink isolated from every other test.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ppml_core::distributed::feature_count;
use ppml_core::{
    coordinate_linear_secagg, learn_linear_secagg, AdmmConfig, DistributedTiming, SecAggConfig,
    SeededMasker,
};
use ppml_data::{synth, Partition};
use ppml_telemetry as telemetry;
use ppml_telemetry::{Event, EventKind, FanoutSink, JsonlSink, RingSink, Sink};
use ppml_transport::{Courier, EventTransport, Message, PartyId, RetryPolicy};

const LEARNERS: usize = 3;

fn tcp_courier(
    party: PartyId,
    peers: HashMap<PartyId, std::net::SocketAddr>,
) -> Courier<EventTransport> {
    let transport = EventTransport::bind(
        party,
        "127.0.0.1:0".parse().expect("loopback addr"),
        peers,
        RetryPolicy::tcp_link(),
        Duration::from_secs(5),
    )
    .expect("bind");
    Courier::new(transport, RetryPolicy::tcp_default())
}

/// A learner that participates correctly for rounds 0 and 1, then stops
/// sending shares while still receiving (and therefore ACKing) frames:
/// the coordinator's broadcasts keep succeeding, so the dropout can only
/// be detected by the round deadline in the collect phase.
fn lame_learner(coordinator: std::net::SocketAddr, cfg: AdmmConfig, features: usize) {
    let party: PartyId = 1;
    let mut courier = tcp_courier(party, HashMap::from([(LEARNERS as PartyId, coordinator)]));
    courier
        .send_unreliable(LEARNERS as PartyId, &Message::Heartbeat { nonce: 1 })
        .expect("announce");
    let masker = SeededMasker::new(cfg.seed, party as usize, LEARNERS);
    let everyone: Vec<usize> = (0..LEARNERS).collect();
    let mut quiet_since = Instant::now();
    loop {
        let env = match courier.recv(Duration::from_millis(200)) {
            Ok(env) => {
                quiet_since = Instant::now();
                env
            }
            Err(_) => {
                // After the drop the coordinator never writes to this
                // party again; leave once the line has gone quiet.
                if quiet_since.elapsed() > Duration::from_secs(3) {
                    return;
                }
                continue;
            }
        };
        if let Message::Consensus {
            iteration, done, ..
        } = env.msg
        {
            if done || iteration > 1 {
                continue; // go silent: receive and ACK, never answer
            }
            // The share's *values* are irrelevant to the protocol events
            // under test; only the masking (full-set, correct iteration)
            // and the length must be right for the sum to proceed.
            let payload = masker
                .mask_share_among(&vec![0.0; features + 1], iteration, &everyone)
                .expect("mask");
            courier
                .send_reliable(
                    LEARNERS as PartyId,
                    &Message::MaskedShare {
                        iteration,
                        epoch: 0,
                        party,
                        payload,
                    },
                )
                .expect("share");
        }
    }
}

#[test]
fn jsonl_replay_contains_the_dropout_story() {
    let pairwise = SecAggConfig::pairwise();
    let jsonl_path = std::env::temp_dir().join(format!(
        "ppml-telemetry-replay-{}.jsonl",
        std::process::id()
    ));
    let jsonl = JsonlSink::create(&jsonl_path).expect("create jsonl");
    let ring = RingSink::new(100_000);
    telemetry::install(FanoutSink::new(vec![jsonl as Arc<dyn Sink>, ring.clone()]));

    let ds = synth::blobs(96, 5);
    let parts = Partition::horizontal(&ds, LEARNERS, 1).expect("partition");
    let features = feature_count(&parts).expect("partitions");
    let cfg = AdmmConfig::default().with_max_iter(6).with_seed(11);
    let timing = DistributedTiming::default()
        .with_round_deadline(Duration::from_millis(800))
        .with_learner_patience(Duration::from_secs(8));

    let mut coordinator = tcp_courier(LEARNERS as PartyId, HashMap::new());
    let addr = coordinator.transport().local_addr();

    let mut handles = Vec::new();
    for party in [0usize, 2] {
        let part = parts[party].clone();
        let mut courier = tcp_courier(
            party as PartyId,
            HashMap::from([(LEARNERS as PartyId, addr)]),
        );
        handles.push(thread::spawn(move || {
            courier
                .send_unreliable(
                    LEARNERS as PartyId,
                    &Message::Heartbeat {
                        nonce: party as u64,
                    },
                )
                .expect("announce");
            learn_linear_secagg(&mut courier, LEARNERS, &part, &cfg, timing, pairwise)
        }));
    }
    let lame = thread::spawn(move || lame_learner(addr, cfg, features));

    let deadline = Instant::now() + Duration::from_secs(20);
    while coordinator.transport().connected_parties().len() < LEARNERS {
        assert!(Instant::now() < deadline, "learners never connected");
        thread::sleep(Duration::from_millis(20));
    }

    let outcome = coordinate_linear_secagg(
        &mut coordinator,
        LEARNERS,
        features,
        &cfg,
        None,
        timing,
        pairwise,
    )
    .expect("survivors must finish");
    assert_eq!(outcome.dropped, vec![1], "party 1 must be declared dead");
    for handle in handles {
        let model = handle.join().expect("learner thread").expect("survivor");
        assert_eq!(model, outcome.model, "survivors agree on the consensus");
    }
    lame.join().expect("lame learner thread");

    telemetry::uninstall();

    // Replay: every line of the JSONL stream must parse back into the
    // exact event it was written from, and the dropout story — deadline
    // miss, dropout declaration, re-key epoch — must be on record.
    let text = std::fs::read_to_string(&jsonl_path).expect("read jsonl");
    let _ = std::fs::remove_file(&jsonl_path);
    assert!(
        !text.trim().is_empty(),
        "telemetry stream must not be empty"
    );
    let events: Vec<Event> = text
        .lines()
        .map(|line| Event::from_json(line).unwrap_or_else(|e| panic!("{e:?}: {line}")))
        .collect();
    assert_eq!(
        events.len() as u64,
        ring.recorded(),
        "jsonl and ring sinks must have seen the same events"
    );

    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::DeadlineMiss { missing: 1, .. })),
        "missing the round deadline miss"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Dropout { party: 1, .. })),
        "missing the dropout declaration for party 1"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RekeyEpoch { survivors: 2, .. })),
        "missing the re-key epoch over the two survivors"
    );
    // The re-key must reach the surviving learners too (they emit their
    // own RekeyEpoch on applying it): at least coordinator + 2 survivors.
    assert!(
        events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RekeyEpoch { .. }))
            .count()
            >= 3,
        "survivors must record applying the re-key"
    );
    // Ordinary rounds are on record from both sides of the protocol.
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::RoundClose { .. }) && e.party == LEARNERS as u32));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::RoundClose { .. }) && e.party == 0));
    // Wire-level events flowed through the same stream.
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::FrameSent { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::FrameRecv { .. })));

    // Trace correlation: the coordinator stamps the stream with a run id
    // and completes a clock-offset handshake with every learner that
    // answers probes — the cooperative ones. The lame learner swallows
    // its probes, so it must have RunInfo from the probe gossip absent
    // and no ClockSync row either.
    let run_ids: Vec<(u32, u64)> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RunInfo { run_id } => Some((e.party, run_id)),
            _ => None,
        })
        .collect();
    assert!(
        run_ids.iter().any(|&(p, _)| p == LEARNERS as u32),
        "coordinator must stamp the stream with RunInfo"
    );
    for &learner in &[0u32, 2] {
        assert!(
            run_ids.iter().any(|&(p, _)| p == learner),
            "learner {learner} must record the gossiped run id"
        );
    }
    assert!(
        run_ids.windows(2).all(|w| w[0].1 == w[1].1),
        "every party must agree on one run id: {run_ids:?}"
    );
    let synced: Vec<u32> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::ClockSync { peer, .. } => Some(peer),
            _ => None,
        })
        .collect();
    assert!(synced.contains(&0) && synced.contains(&2), "{synced:?}");
    assert!(
        !synced.contains(&1),
        "the lame learner never answers probes, so no offset can exist"
    );
    for e in &events {
        if let EventKind::ClockSync { rtt_ns, .. } = e.kind {
            assert!(rtt_ns > 0, "a loopback RTT is small but never zero");
        }
    }
}
