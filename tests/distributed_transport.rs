//! Integration: distributed HL-SVM training through the public facade,
//! over the loopback hub and the TCP backend.
//!
//! The distributed protocol aggregates fixed-point wrapping sums, so
//! every run — simulated cluster, loopback hub (even with injected
//! frame loss), TCP across threads — must produce bit-identical models.

use std::collections::HashMap;
use std::thread;
use std::time::{Duration, Instant};

use ppml::core::distributed::feature_count;
use ppml::core::jobs::{train_linear_on_cluster, ClusterTuning};
use ppml::core::{
    coordinate_linear_secagg, learn_linear_secagg, AdmmConfig, DistributedTiming, SecAggConfig,
};
use ppml::data::{synth, Dataset, Partition};
use ppml::svm::LinearSvm;
use ppml::transport::{
    Courier, EventTransport, LinkFilter, LoopbackHub, Message, NetFaultPlan, PartyId, RetryPolicy,
};

fn timing() -> DistributedTiming {
    DistributedTiming::default()
        .with_round_deadline(Duration::from_secs(10))
        .with_learner_patience(Duration::from_secs(20))
}

fn setup(m: usize) -> (Vec<Dataset>, AdmmConfig) {
    let ds = synth::blobs(96, 7);
    let parts = Partition::horizontal(&ds, m, 2).expect("partition");
    let cfg = AdmmConfig::default().with_max_iter(10).with_seed(13);
    (parts, cfg)
}

#[test]
fn lossy_loopback_matches_cluster_and_charges_for_retries() {
    let pairwise = SecAggConfig::pairwise();
    let m = 3;
    let (parts, cfg) = setup(m);
    let (reference, _) =
        train_linear_on_cluster(&parts, &cfg, None, ClusterTuning::default()).expect("cluster");

    let run = |faults: NetFaultPlan, policy: RetryPolicy| {
        let hub = LoopbackHub::with_faults(m + 1, faults);
        let handles: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(p, part)| {
                let mut courier = Courier::new(hub.endpoint(p as PartyId), policy);
                let part = part.clone();
                thread::spawn(move || {
                    learn_linear_secagg(&mut courier, m, &part, &cfg, timing(), pairwise)
                        .expect("learner")
                })
            })
            .collect();
        let mut courier = Courier::new(hub.endpoint(m as PartyId), policy);
        let features = feature_count(&parts).expect("partitions");
        let outcome =
            coordinate_linear_secagg(&mut courier, m, features, &cfg, None, timing(), pairwise)
                .expect("coordinator");
        for h in handles {
            h.join().expect("learner thread");
        }
        (outcome, hub.stats())
    };

    // The clean run is the retransmit-free baseline. With nothing lost,
    // its ARQ schedule only decides whether a slow-to-be-scheduled
    // receiver draws a spurious retransmit, so it gets a patient one.
    let patient = RetryPolicy::new(6, Duration::from_secs(2), Duration::from_secs(5));
    let (clean, _) = run(NetFaultPlan::none(), patient);
    assert_eq!(clean.model, reference.model);
    assert_eq!(clean.history.z_delta, reference.history.z_delta);

    // Kill the first broadcast toward learner 2 and the first two shares
    // from learner 0; the courier's ARQ must retransmit through it.
    let faults = NetFaultPlan::none()
        .drop_frames(LinkFilter::any().from(m as PartyId).to(2), 1)
        .drop_frames(LinkFilter::any().from(0).to(m as PartyId), 2);
    let (lossy, stats) = run(faults, RetryPolicy::fast_local());
    assert!(stats.dropped >= 3, "fault plan never fired: {stats:?}");
    assert_eq!(lossy.model, reference.model);
    // Retransmissions are real traffic: the lossy run must cost more.
    assert!(lossy.metrics.total_network_bytes() > clean.metrics.total_network_bytes());
}

/// Runs the protocol over `EventTransport` (TCP) endpoints on every side,
/// each learner on its own thread, and checks that it produces the
/// bit-identical model the in-process cluster does. The protocol
/// aggregates wrapping fixed-point sums, so "close" is not good enough —
/// equality is exact.
fn assert_tcp_star_matches_cluster(m: usize) {
    let pairwise = SecAggConfig::pairwise();
    let (parts, cfg) = setup(m);
    let (reference, _) =
        train_linear_on_cluster(&parts, &cfg, None, ClusterTuning::default()).expect("cluster");

    let coord_transport = EventTransport::bind(
        m as PartyId,
        "127.0.0.1:0".parse().expect("addr"),
        HashMap::new(),
        RetryPolicy::tcp_link(),
        Duration::from_secs(5),
    )
    .expect("bind coordinator");
    let addr = coord_transport.local_addr();

    let handles: Vec<_> = parts
        .iter()
        .enumerate()
        .map(|(p, part)| {
            let part = part.clone();
            thread::spawn(move || -> LinearSvm {
                let transport = EventTransport::bind(
                    p as PartyId,
                    "127.0.0.1:0".parse().expect("addr"),
                    HashMap::from([(m as PartyId, addr)]),
                    RetryPolicy::tcp_link(),
                    Duration::from_secs(5),
                )
                .expect("bind learner");
                let mut courier = Courier::new(transport, RetryPolicy::tcp_default());
                courier
                    .send_unreliable(m as PartyId, &Message::Heartbeat { nonce: p as u64 })
                    .expect("announce");
                learn_linear_secagg(&mut courier, m, &part, &cfg, timing(), pairwise)
                    .expect("learner")
            })
        })
        .collect();

    let deadline = Instant::now() + Duration::from_secs(10);
    while coord_transport.connected_parties().len() < m {
        assert!(Instant::now() < deadline, "learners never dialed in");
        thread::sleep(Duration::from_millis(10));
    }

    let mut courier = Courier::new(coord_transport, RetryPolicy::tcp_default());
    let features = feature_count(&parts).expect("partitions");
    let outcome =
        coordinate_linear_secagg(&mut courier, m, features, &cfg, None, timing(), pairwise)
            .expect("coordinator");

    assert_eq!(outcome.model, reference.model, "m = {m}");
    for h in handles {
        assert_eq!(
            h.join().expect("learner thread"),
            reference.model,
            "m = {m}"
        );
    }
}

/// Two learners on threads, talking TCP to the coordinator.
#[test]
fn tcp_threads_match_cluster() {
    assert_tcp_star_matches_cluster(2);
}

/// A three-learner star on the same backend.
#[test]
fn event_loop_backend_matches_cluster() {
    assert_tcp_star_matches_cluster(3);
}
