//! Acceptance test for the cluster observability plane (ISSUE 9): a
//! four-learner pairwise run over a loopback hub in which one learner is
//! slowed at the transport — it participates correctly but sleeps before
//! sending each round's share. The run must surface that learner on the
//! coordinator's `/cluster` endpoint with the leading straggler score,
//! record a `slow_learner` event in the JSONL stream, and fold one
//! telemetry delta per learner per round — all without changing the
//! trained model by a single bit.
//!
//! Lives in its own integration-test binary because both the telemetry
//! collector and the cluster registry are process-global.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ppml_core::distributed::feature_count;
use ppml_core::{
    coordinate_linear_secagg, learn_linear_secagg, AdmmConfig, DistributedTiming, SecAggConfig,
};
use ppml_data::{synth, Dataset, Partition};
use ppml_svm::LinearSvm;
use ppml_telemetry as telemetry;
use ppml_telemetry::{
    metrics_router, mix64, ClusterRegistry, Event, EventKind, FanoutSink, HttpServer, JsonlSink,
    MetricsSink, RingSink, Sink,
};
use ppml_transport::{
    Courier, Envelope, LinkStats, LoopbackHub, Message, NetFaultPlan, PartyId, RetryPolicy,
    Transport, TransportError, FLAG_RETRANSMIT,
};

const LEARNERS: usize = 4;
const SLOW: PartyId = 2;
/// A host stall of `S` while a round is open delays every share by `S`,
/// so the laggard scores `1 + LAG / S`: the lag must dwarf the stalls a
/// loaded 2-core host shows (up to ≈ 60 ms) for the score to clear 2x.
const LAG: Duration = Duration::from_millis(300);

/// Delegating transport that sleeps before sending each masked share:
/// the learner behind it runs the real protocol, just late — the
/// injected fault the straggler scorer exists to catch. Only the first
/// transmission lags: a lagged ARQ retransmission would keep the learner
/// from acking the next round's broadcast for a whole `LAG`, past the
/// coordinator's retry budget, and turn the slow learner into a dead one.
struct LaggyTransport<T: Transport> {
    inner: T,
    lag: Duration,
}

impl<T: Transport> Transport for LaggyTransport<T> {
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
        if matches!(msg, Message::MaskedShare { .. }) && flags & FLAG_RETRANSMIT == 0 {
            thread::sleep(self.lag);
        }
        self.inner.send_raw(to, msg, seq, flags)
    }

    fn recv(&mut self, timeout: Duration) -> Result<Envelope, TransportError> {
        self.inner.recv(timeout)
    }

    fn stats(&self) -> LinkStats {
        self.inner.stats()
    }
}

/// One full pairwise run with learner [`SLOW`] lagged by `lag`; returns
/// the coordinator's model.
fn run_pairwise(parts: &[Dataset], cfg: &AdmmConfig, lag: Duration) -> LinearSvm {
    let pairwise = SecAggConfig::pairwise();
    let m = parts.len();
    let features = feature_count(parts).expect("partitions");
    let hub = LoopbackHub::with_faults(m + 1, NetFaultPlan::none());
    let timing = DistributedTiming::default()
        .with_round_deadline(Duration::from_secs(2))
        .with_learner_patience(Duration::from_secs(8));
    let mut handles = Vec::new();
    for (p, part) in parts.iter().enumerate() {
        let part = part.clone();
        let cfg = *cfg;
        let endpoint = hub.endpoint(p as PartyId);
        handles.push(thread::spawn(move || {
            if p as PartyId == SLOW {
                let mut courier = Courier::new(
                    LaggyTransport {
                        inner: endpoint,
                        lag,
                    },
                    RetryPolicy::fast_local(),
                );
                learn_linear_secagg(&mut courier, m, &part, &cfg, timing, pairwise)
            } else {
                let mut courier = Courier::new(endpoint, RetryPolicy::fast_local());
                learn_linear_secagg(&mut courier, m, &part, &cfg, timing, pairwise)
            }
        }));
    }
    let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
    let outcome = coordinate_linear_secagg(&mut courier, m, features, cfg, None, timing, pairwise)
        .expect("run must complete");
    assert!(
        outcome.dropped.is_empty(),
        "a slow learner is not a dead one"
    );
    for handle in handles {
        let model = handle.join().expect("learner thread").expect("learner");
        assert_eq!(model, outcome.model, "learners agree on the consensus");
    }
    outcome.model
}

/// Pulls `ppml_straggler_score{learner="N"} V` rows out of the
/// exposition.
fn scores(body: &str) -> Vec<(u32, f64)> {
    body.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("ppml_straggler_score{learner=\"")?;
            let (learner, value) = rest.split_once("\"} ")?;
            Some((learner.parse().ok()?, value.parse().ok()?))
        })
        .collect()
}

#[test]
fn slow_learner_leads_the_cluster_view_without_touching_the_model() {
    let ds = synth::blobs(128, 5);
    let parts = Partition::horizontal(&ds, LEARNERS, 1).expect("partition");
    let cfg = AdmmConfig::default().with_max_iter(5).with_seed(11);

    // Instrumented run: JSONL + ring sinks installed, one learner lagged.
    let jsonl_path = std::env::temp_dir().join(format!(
        "ppml-cluster-observability-{}.jsonl",
        std::process::id()
    ));
    let jsonl = JsonlSink::create(&jsonl_path).expect("create jsonl");
    let ring = RingSink::new(100_000);
    telemetry::install(FanoutSink::new(vec![jsonl as Arc<dyn Sink>, ring.clone()]));
    ClusterRegistry::global().reset();

    let instrumented = run_pairwise(&parts, &cfg, LAG);

    // The /cluster endpoint serves the folded per-learner view over the
    // same server that serves /metrics.
    let sink = MetricsSink::new();
    let server = HttpServer::serve("127.0.0.1:0", metrics_router(Arc::clone(sink.registry())))
        .expect("serve");
    let (status, body) =
        telemetry::request(&server.local_addr().to_string(), "GET", "/cluster", b"")
            .expect("scrape /cluster");
    assert_eq!(status, 200);
    for learner in 0..LEARNERS {
        let series = format!("ppml_cluster_deltas_total{{learner=\"{learner}\"}}");
        let folded: u64 = body
            .lines()
            .find_map(|l| l.strip_prefix(series.as_str()))
            .and_then(|rest| rest.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {series} row in:\n{body}"));
        assert!(folded >= 1, "learner {learner} relayed no deltas:\n{body}");
    }

    // The lagged learner's straggler score leads, and crosses the
    // flagging threshold: 300 ms of injected lag against a loopback-run
    // median is far beyond 2x.
    let scores = scores(&body);
    assert_eq!(scores.len(), LEARNERS, "{body}");
    let (leader, leading_score) = scores
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("scores");
    assert_eq!(leader, SLOW, "wrong straggler flagged: {scores:?}");
    assert!(leading_score >= 2.0, "score must flag the lag: {scores:?}");

    telemetry::uninstall();

    // The coordinator's stream holds the verdict and the folded deltas.
    let text = std::fs::read_to_string(&jsonl_path).expect("read jsonl");
    let _ = std::fs::remove_file(&jsonl_path);
    let events: Vec<Event> = text
        .lines()
        .map(|line| Event::from_json(line).unwrap_or_else(|e| panic!("{e:?}: {line}")))
        .collect();
    assert_eq!(events.len() as u64, ring.recorded());
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            EventKind::SlowLearner { party, score, .. }
                if party == SLOW && score >= 2.0
        )),
        "missing the slow_learner verdict for party {SLOW}"
    );

    // Every relayed delta is stamped with the causal span id — either
    // anchored on the gossiped run id or still 0-anchored if the delta
    // was relayed before the learner saw its first clock probe.
    let run_id = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::RunInfo { run_id } => Some(run_id),
            _ => None,
        })
        .expect("coordinator must stamp the run id");
    let deltas: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::TelemetryDelta {
                iteration, span, ..
            } => Some((iteration, span)),
            _ => None,
        })
        .collect();
    assert!(
        deltas.len() >= LEARNERS,
        "expected at least one folded delta per learner: {}",
        deltas.len()
    );
    for (iteration, span) in deltas {
        assert!(
            span == mix64(run_id ^ iteration) || span == mix64(iteration),
            "span {span:#x} matches neither anchored nor 0-anchored id for round {iteration}"
        );
    }

    // Bit-identity: the same run with telemetry disabled and no lag
    // produces the same model — the relay observes the protocol, it
    // never participates in it.
    let bare = run_pairwise(&parts, &cfg, Duration::ZERO);
    assert_eq!(
        instrumented, bare,
        "telemetry relay must not move the model"
    );
}
