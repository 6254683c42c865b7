//! Secure-aggregation backend comparison: bytes per round and CPU per
//! round for `pairwise` vs `shamir` vs `paillier` as the learner count
//! grows (ISSUE 8 bench).
//!
//! ```text
//! cargo run -p ppml-bench --bin secagg_bench --release
//! ```
//!
//! For each backend × m in {4, 8, 16, 32, 64}, the bench drives a real
//! distributed run — m learner threads and a coordinator over the
//! loopback hub, the same `ppml_core::secagg` code paths the binaries
//! use — and reads the per-round costs straight from the backend's own
//! [`SecAggRound`] telemetry: `bytes` is the coordinator-observed wire
//! traffic per round (broadcasts plus collected shares), `elapsed_ns`
//! the coordinator's wall-clock per round. CPU per round is the whole
//! process (scheduler-accounted, all threads), so it includes the
//! learners' QP work — that part is identical across backends, so the
//! *difference* between rows is the crypto cost: mask streams for
//! pairwise, split/blind/reconstruct for Shamir, modular
//! exponentiations for Paillier.
//!
//! The couriers run the binaries' schedule (`RetryPolicy::tcp_default()`),
//! not the tests' 2 ms one: on a hub that loses nothing every
//! retransmission is a timer firing while the receiver computes, and
//! would make the wire bytes depend on scheduling — with 65 runnable
//! threads on a few cores, badly.
//!
//! Results go to stdout and `BENCH_secagg.json` in the working
//! directory. `PPML_BENCH_QUICK=1` shrinks the grid to m in {4, 8} for
//! CI smoke runs; `PPML_BENCH_M=8,64` overrides the grid outright.
//!
//! [`SecAggRound`]: ppml_telemetry::EventKind::SecAggRound

use std::fmt::Write as _;
use std::thread;
use std::time::Duration;

use ppml_core::distributed::feature_count;
use ppml_core::secagg::{coordinate_linear_secagg, learn_linear_secagg};
use ppml_core::{AdmmConfig, DistributedTiming, SecAggConfig, SecAggKind};
use ppml_data::{synth, Partition};
use ppml_telemetry::{self as telemetry, EventKind, RingSink};
use ppml_transport::{Courier, LoopbackHub, PartyId, RetryPolicy};

/// ADMM rounds per cell — every round costs one full aggregation.
const ROUNDS: usize = 5;
/// Mask/crypto seed; the model is backend-independent, so the seed only
/// picks the mask streams.
const SEED: u64 = 11;

fn quick() -> bool {
    std::env::var_os("PPML_BENCH_QUICK").is_some()
}

fn learner_counts() -> Vec<usize> {
    if let Ok(grid) = std::env::var("PPML_BENCH_M") {
        let m: Vec<usize> = grid
            .split(',')
            .filter_map(|v| v.trim().parse().ok())
            .collect();
        if !m.is_empty() {
            return m;
        }
    }
    if quick() {
        vec![4, 8]
    } else {
        vec![4, 8, 16, 32, 64]
    }
}

/// CPU time this process has consumed, in microseconds: nanosecond
/// `sum_exec_runtime` summed over every thread, with a jiffies fallback
/// where schedstats are compiled out (0 off Linux).
fn self_cpu_us() -> u64 {
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        let mut total_ns: u64 = 0;
        let mut seen = false;
        for task in tasks.flatten() {
            let path = task.path().join("schedstat");
            if let Some(ns) = std::fs::read_to_string(path).ok().and_then(|s| {
                s.split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
            }) {
                total_ns += ns;
                seen = true;
            }
        }
        if seen {
            return total_ns / 1_000;
        }
    }
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    let Some(rest) = stat.rsplit(')').next() else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11).and_then(|v| v.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.get(12).and_then(|v| v.parse().ok()).unwrap_or(0);
    (utime + stime) * 10_000
}

struct Row {
    backend: &'static str,
    m: usize,
    threshold: usize,
    rounds_completed: usize,
    bytes_per_round: f64,
    round_ms_mean: f64,
    cpu_ms_per_round: f64,
    ok: bool,
}

fn run_cell(secagg: SecAggConfig, m: usize) -> Row {
    let backend = secagg.kind.as_str();
    let ds = synth::blobs(512, 7);
    let parts = Partition::horizontal(&ds, m, 2).expect("partition");
    let cfg = AdmmConfig::default()
        .with_max_iter(ROUNDS)
        .with_seed(SEED)
        .with_tol(1e-12);
    let timing = DistributedTiming::default()
        .with_round_deadline(Duration::from_secs(30))
        .with_learner_patience(Duration::from_secs(60));
    let hub = LoopbackHub::new(m + 1);
    let ring = RingSink::new(1 << 16);
    telemetry::install(ring.clone());
    let cpu_before = self_cpu_us();
    let handles: Vec<_> = parts
        .iter()
        .enumerate()
        .map(|(p, part)| {
            let mut courier = Courier::new(hub.endpoint(p as PartyId), RetryPolicy::tcp_default());
            let part = part.clone();
            thread::spawn(move || learn_linear_secagg(&mut courier, m, &part, &cfg, timing, secagg))
        })
        .collect();
    let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::tcp_default());
    let features = feature_count(&parts).expect("partitions");
    let outcome = coordinate_linear_secagg(&mut courier, m, features, &cfg, None, timing, secagg);
    let mut ok = outcome.is_ok();
    for h in handles {
        ok &= h.join().expect("learner thread").is_ok();
    }
    let cpu_after = self_cpu_us();
    telemetry::uninstall();

    let rounds: Vec<(u64, u64)> = ring
        .snapshot()
        .iter()
        .filter(|e| e.party == m as u32)
        .filter_map(|e| match e.kind {
            EventKind::SecAggRound {
                backend: b,
                bytes,
                elapsed_ns,
                ..
            } if b == backend => Some((bytes, elapsed_ns)),
            _ => None,
        })
        .collect();
    let completed = rounds.len();
    let denom = completed.max(1) as f64;
    Row {
        backend,
        m,
        threshold: match secagg.kind {
            SecAggKind::Shamir => secagg.effective_threshold(m),
            _ => 0,
        },
        rounds_completed: completed,
        bytes_per_round: rounds.iter().map(|&(b, _)| b as f64).sum::<f64>() / denom,
        round_ms_mean: rounds.iter().map(|&(_, ns)| ns as f64 / 1e6).sum::<f64>() / denom,
        cpu_ms_per_round: cpu_after.saturating_sub(cpu_before) as f64 / 1_000.0 / denom,
        ok: ok && completed == ROUNDS,
    }
}

fn main() -> std::io::Result<()> {
    let mut rows = Vec::new();
    for &m in &learner_counts() {
        for secagg in [
            SecAggConfig::pairwise(),
            SecAggConfig::shamir(),
            SecAggConfig::paillier(),
        ] {
            let row = run_cell(secagg, m);
            println!(
                "secagg/{:<8}/m={:<3} rounds {}/{ROUNDS}  bytes {:>10.0}/round  \
                 wall {:>8.2}ms/round  cpu {:>8.2}ms/round  {}",
                row.backend,
                row.m,
                row.rounds_completed,
                row.bytes_per_round,
                row.round_ms_mean,
                row.cpu_ms_per_round,
                if row.ok { "ok" } else { "INCOMPLETE" }
            );
            rows.push(row);
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"secagg\",");
    let _ = writeln!(json, "  \"rounds\": {ROUNDS},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{}\", \"m\": {}, \"threshold\": {}, \
             \"rounds_completed\": {}, \"bytes_per_round\": {:.1}, \
             \"round_ms_mean\": {:.3}, \"cpu_ms_per_round\": {:.3}, \"ok\": {}}}{comma}",
            r.backend,
            r.m,
            r.threshold,
            r.rounds_completed,
            r.bytes_per_round,
            r.round_ms_mean,
            r.cpu_ms_per_round,
            r.ok
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    std::fs::write("BENCH_secagg.json", &json)?;
    println!("wrote BENCH_secagg.json");
    Ok(())
}
