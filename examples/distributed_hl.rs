//! Distributed horizontal-linear SVM across real OS processes.
//!
//! Re-runs the Fig. 2 star topology with three learner *processes*
//! talking TCP on localhost to an in-process coordinator, then checks the
//! result against `train_linear_on_cluster` (the simulated-cluster path):
//! because the protocol aggregates fixed-point wrapping sums, the two
//! must agree to well below 1e-6 — in fact bit for bit.
//!
//! ```text
//! cargo run --example distributed_hl [-- --telemetry events.jsonl]
//!                                    [--metrics-addr 127.0.0.1:0]
//! ```
//!
//! With `--telemetry PATH`, the coordinator streams structured events to
//! `PATH` and each learner process to `PATH.learner<i>`; every file is
//! re-parsed at the end (machine-readability is part of the check).
//!
//! With `--metrics-addr HOST:PORT`, the coordinator serves its live
//! metrics registry in Prometheus text format (`metrics on ADDR` is
//! printed) and a scraper thread polls the endpoint *during* the run,
//! asserting it observes at least one closed round mid-flight.
//!
//! The example re-executes itself with `learner <party> <addr> [path]`
//! for the child role, so it needs no other binary to be built.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppml::core::distributed::feature_count;
use ppml::core::jobs::{train_linear_on_cluster, ClusterTuning};
use ppml::core::{
    coordinate_linear_secagg, learn_linear_secagg, AdmmConfig, DistributedTiming, SecAggConfig,
};
use ppml::data::{synth, Dataset, Partition};
use ppml::telemetry::{
    self, Event, FanoutSink, JsonlSink, MetricsServer, MetricsSink, Sink, SummarySink,
};
use ppml::transport::{Courier, EventTransport, Message, PartyId, RetryPolicy};

const LEARNERS: usize = 3;

/// Every process regenerates the same dataset and config from these
/// constants — no training data crosses the wire.
fn shared_setup() -> (Vec<Dataset>, AdmmConfig) {
    let ds = synth::blobs(96, 5);
    let parts = Partition::horizontal(&ds, LEARNERS, 1).expect("partition");
    let cfg = AdmmConfig::default().with_max_iter(12).with_seed(11);
    (parts, cfg)
}

/// Re-parses a JSONL telemetry file, asserting it is non-empty and every
/// line round-trips through [`Event::from_json`].
fn validate_jsonl(path: &str) -> Vec<Event> {
    let text = std::fs::read_to_string(path).expect("read telemetry file");
    let events: Vec<Event> = text
        .lines()
        .map(|line| Event::from_json(line).unwrap_or_else(|e| panic!("{path}: {e:?}: {line}")))
        .collect();
    assert!(!events.is_empty(), "{path}: telemetry stream is empty");
    events
}

fn learner_process(party: usize, coordinator: SocketAddr, telemetry_path: Option<&str>) {
    if let Some(path) = telemetry_path {
        let jsonl = JsonlSink::create(Path::new(path)).expect("create learner telemetry");
        telemetry::install(jsonl);
    }
    let (parts, cfg) = shared_setup();
    let transport = EventTransport::bind(
        party as PartyId,
        "127.0.0.1:0".parse().expect("loopback addr"),
        HashMap::from([(LEARNERS as PartyId, coordinator)]),
        RetryPolicy::tcp_link(),
        Duration::from_secs(5),
    )
    .expect("bind learner");
    let mut courier = Courier::new(transport, RetryPolicy::tcp_default());
    // Dial in so the coordinator counts this learner as connected.
    courier
        .send_unreliable(
            LEARNERS as PartyId,
            &Message::Heartbeat {
                nonce: party as u64,
            },
        )
        .expect("announce");
    let timing = DistributedTiming::default()
        .with_round_deadline(Duration::from_secs(15))
        .with_learner_patience(Duration::from_secs(30));
    let model = learn_linear_secagg(
        &mut courier,
        LEARNERS,
        &parts[party],
        &cfg,
        timing,
        SecAggConfig::pairwise(),
    )
    .expect("learner");
    println!(
        "learner {party} (pid {}): consensus bias {:+.6}",
        std::process::id(),
        model.bias()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if (args.len() == 4 || args.len() == 5) && args[1] == "learner" {
        let party: usize = args[2].parse().expect("party index");
        let addr: SocketAddr = args[3].parse().expect("coordinator addr");
        learner_process(party, addr, args.get(4).map(String::as_str));
        return;
    }
    let telemetry_path = args
        .iter()
        .position(|a| a == "--telemetry")
        .map(|i| args.get(i + 1).expect("--telemetry needs a path").clone());
    let metrics_addr = args.iter().position(|a| a == "--metrics-addr").map(|i| {
        args.get(i + 1)
            .expect("--metrics-addr needs an addr")
            .clone()
    });

    let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
    let summary = telemetry_path.as_deref().map(|path| {
        let jsonl = JsonlSink::create(Path::new(path)).expect("create telemetry file");
        let summary = SummarySink::new();
        sinks.push(jsonl);
        sinks.push(summary.clone());
        summary
    });
    let metrics_server = metrics_addr.as_deref().map(|addr| {
        let sink = MetricsSink::new();
        let server =
            MetricsServer::serve(addr, Arc::clone(sink.registry())).expect("metrics server");
        sinks.push(sink);
        println!("metrics on {}", server.local_addr());
        server
    });
    if !sinks.is_empty() {
        telemetry::install(FanoutSink::new(sinks));
    }

    let (parts, cfg) = shared_setup();
    let features = feature_count(&parts).expect("partitions");

    // Reference: the same protocol on the in-process simulated cluster.
    let (reference, _) =
        train_linear_on_cluster(&parts, &cfg, None, ClusterTuning::default()).expect("cluster run");

    let transport = EventTransport::bind(
        LEARNERS as PartyId,
        "127.0.0.1:0".parse().expect("loopback addr"),
        HashMap::new(),
        RetryPolicy::tcp_link(),
        Duration::from_secs(5),
    )
    .expect("bind coordinator");
    let addr = transport.local_addr();
    println!(
        "coordinator (pid {}) listening on {addr}",
        std::process::id()
    );

    let exe = std::env::current_exe().expect("current exe");
    let children: Vec<Child> = (0..LEARNERS)
        .map(|party| {
            let mut cmd = Command::new(&exe);
            cmd.args(["learner", &party.to_string(), &addr.to_string()]);
            if let Some(path) = telemetry_path.as_deref() {
                cmd.arg(format!("{path}.learner{party}"));
            }
            cmd.spawn().expect("spawn learner process")
        })
        .collect();

    let deadline = Instant::now() + Duration::from_secs(30);
    while transport.connected_parties().len() < LEARNERS {
        assert!(Instant::now() < deadline, "learners never connected");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Mid-run scrape: poll the live endpoint while training runs, until
    // it shows at least one closed round — proof the registry is being
    // populated in flight, not rendered post-hoc.
    let scraper = metrics_server.as_ref().map(|server| {
        let addr = server.local_addr().to_string();
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                if let Ok(body) = telemetry::http::scrape(&addr) {
                    let live = body
                        .lines()
                        .any(|l| l.starts_with("ppml_rounds_closed_total") && !l.ends_with(" 0"));
                    if live {
                        return body;
                    }
                }
                assert!(
                    Instant::now() < deadline,
                    "metrics endpoint never showed a closed round"
                );
                std::thread::sleep(Duration::from_millis(25));
            }
        })
    });

    let mut courier = Courier::new(transport, RetryPolicy::tcp_default());
    let timing = DistributedTiming::default()
        .with_round_deadline(Duration::from_secs(15))
        .with_learner_patience(Duration::from_secs(30));
    let outcome = coordinate_linear_secagg(
        &mut courier,
        LEARNERS,
        features,
        &cfg,
        None,
        timing,
        SecAggConfig::pairwise(),
    )
    .expect("coordinate");

    if let Some(handle) = scraper {
        let body = handle.join().expect("scraper thread");
        let frames = body
            .lines()
            .find(|l| l.starts_with("ppml_frames_sent_total"))
            .expect("scrape must include the frame counter")
            .to_string();
        assert!(
            !frames.ends_with(" 0"),
            "no frames counted mid-run: {frames}"
        );
        // CI greps this line to prove the endpoint was live during the run.
        println!("mid-run scrape saw live metrics: {frames}");
    }

    for mut child in children {
        let status = child.wait().expect("wait for learner");
        assert!(status.success(), "learner process failed");
    }

    println!(
        "distributed run: {} rounds, {} bytes on the wire",
        outcome.metrics.iterations,
        outcome.metrics.total_network_bytes()
    );

    // The distributed protocol must reproduce the simulated cluster.
    let max_dev = outcome
        .model
        .weights()
        .iter()
        .zip(reference.model.weights())
        .map(|(a, b)| (a - b).abs())
        .fold(
            (outcome.model.bias() - reference.model.bias()).abs(),
            f64::max,
        );
    println!("max deviation from in-process cluster run: {max_dev:.3e}");
    assert!(
        max_dev < 1e-6,
        "distributed and in-process runs disagree: {max_dev}"
    );
    println!("distributed TCP training matches the in-process cluster result");

    if let Some(path) = telemetry_path.as_deref() {
        telemetry::uninstall();
        let coord_events = validate_jsonl(path);
        assert!(
            coord_events
                .iter()
                .any(|e| matches!(e.kind, telemetry::EventKind::RoundClose { .. })),
            "coordinator stream is missing round closes"
        );
        let mut total = coord_events.len();
        for party in 0..LEARNERS {
            total += validate_jsonl(&format!("{path}.learner{party}")).len();
        }
        print!("{}", summary.expect("summary sink").render());
        println!("telemetry: {total} machine-parseable events across 4 streams");
    }
}
