//! Learner daemon for distributed HL-SVM training over TCP.
//!
//! Regenerates its horizontal partition deterministically from the CLI
//! flags (the same `(--dataset, --n, --data-seed, --learners, --part-seed)`
//! the coordinator uses — no training data ever crosses the wire), dials
//! the coordinator, then answers each consensus broadcast with the local
//! ADMM step's pairwise-masked share until the `done` round arrives.
//!
//! ```text
//! ppml-learner --party 0 --learners 3 --coordinator 127.0.0.1:7100
//!              [--dataset blobs --n 96] [--data-seed 5] [--iters 12]
//!              [--c 50] [--rho 100] [--seed 11] [--tol T]
//!              [--patience SECS]
//!              [--secagg pairwise|shamir|paillier] [--secagg-threshold T]
//!              [--telemetry events.jsonl]
//!              [--metrics-addr 127.0.0.1:0] [--defect-after R]
//!              [--lag-ms N] [--rejoin true]
//!
//! `--patience` bounds how long the learner waits between coordinator
//! protocol frames; when it expires the process exits with an error
//! instead of waiting forever on a dead coordinator.
//!
//! `--secagg` and `--secagg-threshold` pick the secure-aggregation
//! backend and must match the coordinator's flags exactly (see
//! `ppml-coordinator`): `pairwise` (default), `shamir` (no re-key on
//! dropout) or `paillier` (learner 0 is the key authority).
//!
//! `--telemetry PATH` streams this learner's structured events (round
//! participation, re-key epochs, wire traffic) as JSONL to `PATH` and
//! prints a summary at exit. Events carry only sizes, timings and counts.
//!
//! `--metrics-addr HOST:PORT` additionally serves the live metrics
//! registry in Prometheus text format at `http://HOST:PORT/metrics`
//! (`metrics on ADDR` is printed with the bound address; port 0 picks a
//! free one).
//!
//! `--rejoin true` makes this a *re-admission*: instead of waiting for
//! the round-0 broadcast, the learner sends Join probes until the
//! coordinator answers with a Welcome carrying the current iterate, then
//! participates normally (duals warm-start at zero). Use it to bring a
//! previously-dropped learner back into a live run.
//!
//! `--defect-after R` is fault injection for drills and trace demos: the
//! learner participates correctly for rounds `< R`, then silently stops
//! answering consensus broadcasts while still ACKing frames — exactly
//! the failure mode only the coordinator's round deadline can catch. The
//! process then exits with a transport-timeout error once its own
//! patience runs out; that exit is the injected fault working, not a bug.
//!
//! `--lag-ms N` is the gentler sibling: the learner sleeps N ms before
//! every local step but otherwise participates correctly. Use it to
//! exercise the coordinator's straggler scorer (`ppml_straggler_score`
//! on its `/cluster` endpoint and `slow_learner` events in its JSONL)
//! without losing the learner.
//! ```
//!
//! Every training flag must match the coordinator's, as both sides drive
//! the same deterministic protocol from their own copy of the config.
//!
//! Every flag is parsed before the socket binds; an unknown flag is a
//! usage error. Exit codes are typed (see `ppml::cli`): 2 usage/config,
//! 3 I/O/checkpoint, 4 transport/protocol.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use ppml::cli::{admm_config, daemon_main, dataset, numeric, secagg_config, CliError};
use ppml::core::secagg::{
    learn_linear_secagg, learn_linear_secagg_with_defect, rejoin_linear_secagg,
};
use ppml::core::DistributedTiming;
use ppml::data::Partition;
use ppml::telemetry::{
    self, metrics_router, FanoutSink, HttpServer, JsonlSink, MetricsSink, Sink, SummarySink,
};
use ppml::transport::{Courier, EventTransport, Message, PartyId, RetryPolicy};

/// Every flag this binary reads; any other is a usage error.
const FLAGS: &[&str] = &[
    "party",
    "learners",
    "coordinator",
    "dataset",
    "n",
    "data-seed",
    "part-seed",
    "iters",
    "c",
    "rho",
    "seed",
    "tol",
    "patience",
    "secagg",
    "secagg-threshold",
    "telemetry",
    "metrics-addr",
    "defect-after",
    "lag-ms",
    "rejoin",
];

const USAGE: &str = "usage:\n  ppml-learner --party I --learners M --coordinator HOST:PORT\n               \
     [--dataset <cancer|higgs|ocr|blobs|xor>] [--n N] [--data-seed S] [--part-seed S]\n               \
     [--iters T] [--c C] [--rho RHO] [--seed S] [--tol TOL] [--patience SECS]\n               \
     [--secagg <pairwise|shamir|paillier>] [--secagg-threshold T]\n               \
     [--telemetry EVENTS.jsonl] [--metrics-addr HOST:PORT] [--defect-after R]\n               \
     [--lag-ms N] [--rejoin true]";

fn run(flags: BTreeMap<String, String>) -> Result<(), CliError> {
    let learners: usize = numeric(&flags, "learners", 0).map_err(CliError::usage)?;
    if learners == 0 {
        return Err(CliError::usage("--learners must be at least 1"));
    }
    let party: usize = match flags.get("party") {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::usage(format!("--party: bad value {v}")))?,
        None => return Err(CliError::usage("--party is required")),
    };
    if party >= learners {
        return Err(CliError::usage(format!(
            "--party {party} out of range 0..{learners}"
        )));
    }
    let coordinator: SocketAddr = flags
        .get("coordinator")
        .ok_or_else(|| CliError::usage("--coordinator is required"))?
        .parse()
        .map_err(|e| CliError::usage(format!("--coordinator: {e}")))?;
    let rejoin = match flags.get("rejoin").map(String::as_str) {
        None | Some("false") | Some("0") | Some("no") => false,
        Some("true") | Some("1") | Some("yes") => true,
        Some(v) => {
            return Err(CliError::usage(format!(
                "--rejoin: bad value {v} (use true or false)"
            )))
        }
    };
    let defect_after: Option<u64> = flags
        .get("defect-after")
        .map(|v| {
            v.parse()
                .map_err(|_| CliError::usage(format!("--defect-after: bad value {v}")))
        })
        .transpose()?;
    if rejoin && defect_after.is_some() {
        return Err(CliError::usage("--rejoin and --defect-after are exclusive"));
    }
    let lag_ms: u64 = numeric(&flags, "lag-ms", 0).map_err(CliError::usage)?;
    let patience: u64 = numeric(&flags, "patience", 60).map_err(CliError::usage)?;
    let cfg = admm_config(&flags).map_err(CliError::usage)?;
    let secagg = secagg_config(&flags).map_err(CliError::usage)?;
    secagg
        .validate(learners)
        .map_err(|e| CliError::usage(e.to_string()))?;
    let ds = dataset(&flags).map_err(CliError::usage)?;
    let part_seed: u64 = numeric(&flags, "part-seed", 1).map_err(CliError::usage)?;
    let parts = Partition::horizontal(&ds, learners, part_seed)
        .map_err(|e| CliError::usage(e.to_string()))?;
    let my_part = &parts[party];

    // Install telemetry before the transport binds so the dial and
    // handshake frames are captured too. The JSONL/summary pair
    // (--telemetry) and the live metrics registry (--metrics-addr) share
    // one fanout.
    let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
    let telemetry_out = match flags.get("telemetry") {
        Some(path) => {
            let jsonl = JsonlSink::create(Path::new(path))
                .map_err(|e| CliError::io(format!("--telemetry {path}: {e}")))?;
            let summary = SummarySink::new();
            sinks.push(jsonl);
            sinks.push(summary.clone());
            Some((summary, path.clone()))
        }
        None => None,
    };
    let _metrics_server = match flags.get("metrics-addr") {
        Some(addr) => {
            let sink = MetricsSink::new();
            let server = HttpServer::serve(addr, metrics_router(Arc::clone(sink.registry())))
                .map_err(|e| CliError::io(format!("--metrics-addr {addr}: {e}")))?;
            sinks.push(sink);
            // Scrape scripts and the integration tests parse this line.
            println!("metrics on {}", server.local_addr());
            Some(server)
        }
        None => None,
    };
    if !sinks.is_empty() {
        telemetry::install(FanoutSink::new(sinks));
    }

    let transport = EventTransport::bind(
        party as PartyId,
        "127.0.0.1:0".parse().expect("loopback addr"),
        HashMap::from([(learners as PartyId, coordinator)]),
        RetryPolicy::tcp_link(),
        Duration::from_secs(5),
    )
    .map_err(|e| CliError::transport(e.to_string()))?;
    let mut courier = Courier::new(transport, RetryPolicy::tcp_default());

    println!(
        "learner {party}: {} local samples, dialing {coordinator}",
        my_part.len()
    );
    // The transport dials lazily on first send; announce ourselves so the
    // coordinator sees this learner as connected before broadcasting.
    courier
        .send_unreliable(
            learners as PartyId,
            &Message::Heartbeat {
                nonce: party as u64,
            },
        )
        .map_err(|e| CliError::transport(e.to_string()))?;
    if lag_ms > 0 {
        println!("learner {party}: straggler injection armed, +{lag_ms}ms per round");
        ppml::core::set_injected_lag(Duration::from_millis(lag_ms));
    }
    let timing = DistributedTiming::default()
        .with_round_deadline(Duration::from_secs(patience.max(1)))
        .with_learner_patience(Duration::from_secs(patience.max(1)));
    let model = if rejoin {
        println!("learner {party}: asking to rejoin the run at {coordinator}");
        rejoin_linear_secagg(&mut courier, learners, my_part, &cfg, timing, secagg)
    } else {
        match defect_after {
            Some(after) => {
                println!("learner {party}: fault injection armed, defecting after round {after}");
                learn_linear_secagg_with_defect(
                    &mut courier,
                    learners,
                    my_part,
                    &cfg,
                    timing,
                    secagg,
                    after,
                )
            }
            None => learn_linear_secagg(&mut courier, learners, my_part, &cfg, timing, secagg),
        }
    }
    .map_err(CliError::from)?;
    println!("learner {party}: done");
    println!("consensus model: {}", model.to_text());
    if let Some((summary, path)) = telemetry_out {
        telemetry::uninstall();
        print!("{}", summary.render());
        println!("learner {party}: telemetry written to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    daemon_main("ppml-learner", USAGE, FLAGS, run)
}
