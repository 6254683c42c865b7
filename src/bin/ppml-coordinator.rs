//! Coordinator daemon for distributed HL-SVM training over TCP.
//!
//! Binds a listening socket, waits for `--learners` peers to dial in,
//! then drives the consensus rounds of the paper's Fig. 2 star topology:
//! broadcast `(z, s)`, collect one masked share per learner, decode the
//! cancelled sum, repeat. Raw data never reaches this process — only
//! masked fixed-point shares do.
//!
//! ```text
//! ppml-coordinator --learners 3 [--port 7100] [--dataset blobs --n 96]
//!                  [--data-seed 5] [--iters 12] [--c 50] [--rho 100]
//!                  [--seed 11] [--tol T] [--round-timeout SECS]
//!                  [--secagg pairwise|shamir|paillier] [--secagg-threshold T]
//!                  [--out model.txt] [--telemetry events.jsonl]
//!                  [--metrics-addr 127.0.0.1:0]
//!                  [--checkpoint run.ckpt] [--resume run.ckpt]
//!
//! `--round-timeout` bounds each collection round: a learner whose share
//! has not arrived when it expires is declared dropped, the secure sum is
//! re-keyed over the survivors, and training continues without it.
//!
//! `--secagg` picks the secure-aggregation backend (all parties must
//! agree): `pairwise` (default) is the paper's §V masking with re-keying
//! on dropout; `shamir` is t-of-m threshold sharing where dropout needs
//! no re-key round at all (`--secagg-threshold` overrides t, default
//! max(2, ceil(2m/3))); `paillier` is additively homomorphic encryption
//! with learner 0 as key authority — the expensive baseline, kept live
//! for comparison. All three produce bit-identical models on the same
//! membership schedule, and `--checkpoint`/`--resume` work under each.
//!
//! `--telemetry PATH` streams structured events (round opens/closes,
//! deadline misses, dropout declarations, re-key epochs, wire traffic) as
//! JSONL to `PATH` and prints a human summary at exit. Events carry only
//! sizes, timings and counts — never shares or model coordinates.
//!
//! `--checkpoint PATH` writes a crash-consistent snapshot of the run
//! after every accepted round (write-temp, fsync, atomic rename). If the
//! coordinator process dies mid-run, restart it with the same flags plus
//! `--resume PATH`: it re-binds the port, waits for the surviving
//! learners to re-dial, re-keys the secure sum over them and continues
//! from the first round the snapshot had not yet completed — the final
//! model is bit-identical to the uninterrupted run.
//!
//! `--metrics-addr HOST:PORT` additionally serves the live metrics
//! registry in Prometheus text format at `http://HOST:PORT/metrics` for
//! the lifetime of the run (`metrics on ADDR` is printed with the bound
//! address; port 0 picks a free one). The endpoint exposes the same
//! scalar aggregates — counters, gauges, log2 histograms — and nothing
//! else. The same server also answers `GET /cluster` with the per-learner
//! cluster view: counter deltas each learner relays in-band at its round
//! boundaries, folded into labelled `ppml_cluster_*` series plus a
//! `ppml_straggler_score` gauge per learner (watch it live with
//! `ppml-trace --live HOST:PORT`).
//! ```
//!
//! Every flag is parsed before the socket binds; an unknown flag is a
//! usage error. Exit codes are typed (see `ppml::cli`): 2 usage/config,
//! 3 I/O/checkpoint, 4 transport/protocol, 5 all learners dropped.
//!
//! Both sides regenerate the same synthetic dataset from
//! `(--dataset, --n, --data-seed)` so the coordinator knows the feature
//! count and can report accuracy, without any training data crossing the
//! wire. Start the matching learners with `ppml-learner` (see README).

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppml::cli::{admm_config, daemon_main, dataset, numeric, secagg_config, CliError};
use ppml::core::distributed::feature_count;
use ppml::core::secagg::coordinate_linear_secagg_with_recovery;
use ppml::core::{Checkpoint, DistributedTiming, RecoveryOptions};
use ppml::data::Partition;
use ppml::telemetry::{
    self, metrics_router, FanoutSink, HttpServer, JsonlSink, MetricsSink, Sink, SummarySink,
};
use ppml::transport::{Courier, EventTransport, PartyId, RetryPolicy};

/// Every flag this binary reads; any other is a usage error.
const FLAGS: &[&str] = &[
    "learners",
    "port",
    "dataset",
    "n",
    "data-seed",
    "part-seed",
    "iters",
    "c",
    "rho",
    "seed",
    "tol",
    "connect-timeout",
    "round-timeout",
    "out",
    "secagg",
    "secagg-threshold",
    "telemetry",
    "metrics-addr",
    "checkpoint",
    "resume",
];

const USAGE: &str = "usage:\n  ppml-coordinator --learners M [--port P] [--dataset <cancer|higgs|ocr|blobs|xor>]\n                   \
     [--n N] [--data-seed S] [--part-seed S] [--iters T] [--c C] [--rho RHO] [--seed S]\n                   \
     [--tol TOL] [--connect-timeout SECS] [--round-timeout SECS] [--out MODEL]\n                   \
     [--secagg <pairwise|shamir|paillier>] [--secagg-threshold T]\n                   \
     [--telemetry EVENTS.jsonl] [--metrics-addr HOST:PORT]\n                   \
     [--checkpoint RUN.ckpt] [--resume RUN.ckpt]";

fn run(flags: BTreeMap<String, String>) -> Result<(), CliError> {
    let learners: usize = numeric(&flags, "learners", 0).map_err(CliError::usage)?;
    if learners == 0 {
        return Err(CliError::usage("--learners must be at least 1"));
    }
    let port: u16 = numeric(&flags, "port", 0).map_err(CliError::usage)?;
    let connect_timeout: u64 = numeric(&flags, "connect-timeout", 30).map_err(CliError::usage)?;
    let round_timeout: u64 = numeric(&flags, "round-timeout", 30).map_err(CliError::usage)?;
    let cfg = admm_config(&flags).map_err(CliError::usage)?;
    let secagg = secagg_config(&flags).map_err(CliError::usage)?;
    secagg
        .validate(learners)
        .map_err(|e| CliError::usage(e.to_string()))?;
    let ds = dataset(&flags).map_err(CliError::usage)?;
    let part_seed: u64 = numeric(&flags, "part-seed", 1).map_err(CliError::usage)?;
    let parts = Partition::horizontal(&ds, learners, part_seed)
        .map_err(|e| CliError::usage(e.to_string()))?;
    let features = feature_count(&parts).map_err(CliError::from)?;

    // Crash recovery: `--checkpoint` snapshots after every accepted
    // round; `--resume` restores such a snapshot and continues the run.
    let mut recovery = RecoveryOptions::default();
    if let Some(path) = flags.get("checkpoint") {
        recovery = recovery.with_checkpoint(path);
    }
    let resumed = match flags.get("resume") {
        Some(path) => {
            let ckpt = Checkpoint::load(Path::new(path)).map_err(CliError::from)?;
            ckpt.check_compatible(learners, features, cfg.seed)
                .map_err(CliError::from)?;
            println!(
                "resuming from {path}: next round {}, epoch {}, {} survivors",
                ckpt.next_round,
                ckpt.epoch,
                ckpt.alive.len()
            );
            let survivors = ckpt.alive.len();
            recovery = recovery.with_resume(ckpt);
            Some(survivors)
        }
        None => None,
    };
    // A resumed coordinator only waits for the snapshot's survivors —
    // learners dropped before the crash stay dropped.
    let expect_connected = resumed.unwrap_or(learners);

    let addr: SocketAddr = format!("127.0.0.1:{port}")
        .parse()
        .map_err(|e| CliError::usage(format!("bad port: {e}")))?;
    // Install telemetry before the transport binds so connection-phase
    // frames are captured too. The JSONL/summary pair (--telemetry) and
    // the live metrics registry (--metrics-addr) share one fanout.
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
        learners as PartyId,
        addr,
        HashMap::new(),
        RetryPolicy::tcp_link(),
        Duration::from_secs(5),
    )
    .map_err(|e| CliError::transport(e.to_string()))?;
    // The learner scripts and the example parse this line.
    println!("listening on {}", transport.local_addr());
    let deadline = Instant::now() + Duration::from_secs(connect_timeout);
    loop {
        let now = transport.connected_parties().len();
        if now >= expect_connected {
            break;
        }
        if Instant::now() >= deadline {
            return Err(CliError::transport(format!(
                "only {now}/{expect_connected} learners connected within {connect_timeout}s"
            )));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    println!(
        "all {expect_connected} learners connected, training with {secagg_name} aggregation",
        secagg_name = secagg.kind
    );

    let timing = DistributedTiming::default()
        .with_round_deadline(Duration::from_secs(round_timeout))
        .with_learner_patience(Duration::from_secs(round_timeout.max(1) * 4));
    let mut courier = Courier::new(transport, RetryPolicy::tcp_default());
    let outcome = coordinate_linear_secagg_with_recovery(
        &mut courier,
        learners,
        features,
        &cfg,
        None,
        timing,
        secagg,
        recovery,
    )
    .map_err(CliError::from)?;

    if !outcome.dropped.is_empty() {
        println!("dropped learners (in order): {:?}", outcome.dropped);
    }
    println!(
        "converged in {} rounds, final |dz|^2 = {:.3e}",
        outcome.metrics.iterations,
        outcome.history.z_delta.last().copied().unwrap_or(0.0)
    );
    println!(
        "network: {} broadcast bytes, {} share bytes",
        outcome.metrics.bytes_broadcast, outcome.metrics.bytes_shuffled
    );
    println!("training accuracy: {:.4}", outcome.model.accuracy(&ds));
    println!("model: {}", outcome.model.to_text());
    if let Some(path) = flags.get("out") {
        std::fs::write(path, outcome.model.to_text())
            .map_err(|e| CliError::io(format!("--out {path}: {e}")))?;
        println!("wrote {path}");
    }
    if let Some((summary, path)) = telemetry_out {
        telemetry::uninstall();
        print!("{}", summary.render());
        println!("telemetry written to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    daemon_main("ppml-coordinator", USAGE, FLAGS, run)
}
