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
//!                  [--transport event|threads]
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
//! `--transport` picks the socket backend: `event` (default) drives
//! every connection from one readiness-loop thread and scales to ~100
//! learners; `threads` is the legacy thread-per-connection backend,
//! kept for comparison and fallback. Both speak the same wire format.
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
//! Exit codes are typed (see `ppml::cli`): 2 usage/config, 3
//! I/O/checkpoint, 4 transport/protocol, 5 all learners dropped.
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

use ppml::cli::{secagg_config, CliError};
use ppml::core::distributed::feature_count;
use ppml::core::secagg::coordinate_linear_secagg_with_recovery;
use ppml::core::{AdmmConfig, Checkpoint, DistributedTiming, RecoveryOptions};
use ppml::data::{synth, Dataset, Partition};
use ppml::telemetry::{self, FanoutSink, JsonlSink, MetricsServer, MetricsSink, Sink, SummarySink};
use ppml::transport::{Courier, EventTransport, PartyId, RetryPolicy, TcpTransport, Transport};

fn usage() -> String {
    "usage:\n  ppml-coordinator --learners M [--port P] [--dataset <cancer|higgs|ocr|blobs|xor>]\n                   \
     [--n N] [--data-seed S] [--iters T] [--c C] [--rho RHO] [--seed S]\n                   \
     [--tol TOL] [--connect-timeout SECS] [--round-timeout SECS] [--out MODEL]\n                   \
     [--transport <event|threads>]\n                   \
     [--secagg <pairwise|shamir|paillier>] [--secagg-threshold T]\n                   \
     [--telemetry EVENTS.jsonl] [--metrics-addr HOST:PORT]\n                   \
     [--checkpoint RUN.ckpt] [--resume RUN.ckpt]"
        .to_string()
}

/// Polls `connected` until it reaches `expect` or the timeout elapses.
/// Shared by both transport backends so the wait logic (and its error
/// message, which operators grep for) stays identical.
fn wait_for_learners(
    connected: &dyn Fn() -> usize,
    expect: usize,
    timeout_secs: u64,
) -> Result<(), CliError> {
    let deadline = Instant::now() + Duration::from_secs(timeout_secs);
    loop {
        let now = connected();
        if now >= expect {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(CliError::transport(format!(
                "only {now}/{expect} learners connected within {timeout_secs}s"
            )));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {flag}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    Ok(map)
}

fn numeric<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v}")),
        None => Ok(default),
    }
}

/// Regenerates the shared synthetic dataset — must match `ppml-learner`.
fn dataset(flags: &BTreeMap<String, String>) -> Result<Dataset, String> {
    let n: usize = numeric(flags, "n", 96)?;
    let seed: u64 = numeric(flags, "data-seed", 5)?;
    let name = flags.get("dataset").map(String::as_str).unwrap_or("blobs");
    Ok(match name {
        "cancer" => synth::cancer_like(n, seed),
        "higgs" => synth::higgs_like(n, seed),
        "ocr" => synth::ocr_like(n, seed),
        "blobs" => synth::blobs(n, seed),
        "xor" => synth::xor_like(n, seed),
        other => return Err(format!("unknown dataset {other}")),
    })
}

fn config(flags: &BTreeMap<String, String>) -> Result<AdmmConfig, String> {
    let mut cfg = AdmmConfig::default()
        .with_max_iter(numeric(flags, "iters", 12)?)
        .with_c(numeric(flags, "c", 50.0)?)
        .with_rho(numeric(flags, "rho", 100.0)?)
        .with_seed(numeric(flags, "seed", 11)?);
    if let Some(tol) = flags.get("tol") {
        cfg = cfg.with_tol(tol.parse().map_err(|_| format!("--tol: bad value {tol}"))?);
    }
    Ok(cfg)
}

fn run(flags: BTreeMap<String, String>) -> Result<(), CliError> {
    let learners: usize = numeric(&flags, "learners", 0).map_err(CliError::usage)?;
    if learners == 0 {
        return Err(CliError::usage("--learners must be at least 1"));
    }
    let port: u16 = numeric(&flags, "port", 0).map_err(CliError::usage)?;
    let connect_timeout: u64 = numeric(&flags, "connect-timeout", 30).map_err(CliError::usage)?;
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
            let server = MetricsServer::serve(addr, Arc::clone(sink.registry()))
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
    let cfg = config(&flags).map_err(CliError::usage)?;
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
    // `--transport` picks the socket backend: `event` (default) is the
    // single-thread readiness loop that scales to ~100 learners;
    // `threads` is the legacy thread-per-connection backend, kept for
    // comparison benchmarks and as a fallback. Both speak the same wire
    // format, so learners on either backend interoperate.
    let backend = flags
        .get("transport")
        .map(String::as_str)
        .unwrap_or("event");
    let transport: Box<dyn Transport> = match backend {
        "event" => {
            let t = EventTransport::bind(
                learners as PartyId,
                addr,
                HashMap::new(),
                RetryPolicy::tcp_link(),
                Duration::from_secs(5),
            )
            .map_err(|e| CliError::transport(e.to_string()))?;
            // The learner scripts and the example parse this line.
            println!("listening on {}", t.local_addr());
            wait_for_learners(
                &|| t.connected_parties().len(),
                expect_connected,
                connect_timeout,
            )?;
            Box::new(t)
        }
        "threads" => {
            let t = TcpTransport::bind(
                learners as PartyId,
                addr,
                HashMap::new(),
                RetryPolicy::tcp_link(),
                Duration::from_secs(5),
            )
            .map_err(|e| CliError::transport(e.to_string()))?;
            println!("listening on {}", t.local_addr());
            wait_for_learners(
                &|| t.connected_parties().len(),
                expect_connected,
                connect_timeout,
            )?;
            Box::new(t)
        }
        other => {
            return Err(CliError::usage(format!(
                "--transport: unknown backend {other} (use event or threads)"
            )))
        }
    };
    println!(
        "all {expect_connected} learners connected, training with {secagg_name} aggregation",
        secagg_name = secagg.kind
    );

    let round_timeout: u64 = numeric(&flags, "round-timeout", 30).map_err(CliError::usage)?;
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse_flags(&args) {
        Ok(f) => f,
        Err(e) => {
            let e = CliError::usage(e);
            eprintln!("ppml-coordinator: {}\n{}", e.msg, usage());
            return e.exit_code();
        }
    };
    match run(flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // One line to stderr, typed exit code; usage errors also get
            // the usage block since the fix is a different invocation.
            if e.code == ppml::cli::EXIT_USAGE {
                eprintln!("ppml-coordinator: {}\n{}", e.msg, usage());
            } else {
                eprintln!("ppml-coordinator: {}", e.msg);
            }
            e.exit_code()
        }
    }
}
