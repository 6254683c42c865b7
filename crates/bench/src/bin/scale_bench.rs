//! Coordinator scaling: round latency and coordinator CPU as the
//! learner count grows, over the `EventTransport` TCP backend.
//!
//! ```text
//! cargo run -p ppml-bench --bin scale_bench --release
//! ```
//!
//! For each m in {8, 32, 64, 128, 256, 512}, the parent process binds a
//! coordinator transport, spawns m echo children (separate OS processes,
//! so the coordinator's CPU is measured alone), and drives R
//! consensus-shaped rounds: broadcast a `Consensus` iterate to every
//! learner, collect one `MaskedShare` from each. Reported per cell:
//! the time the cluster took to form (first spawn to last registration,
//! so it includes every accept), p50/p99 round latency, coordinator CPU
//! milliseconds per round (nanosecond-resolution `sum_exec_runtime` from
//! `/proc/self/task/*/schedstat`, summed over every thread), and the
//! coordinator's thread count mid-run. Results go to stdout and to
//! `BENCH_scale.json` in the working directory; every row carries
//! `"backend": "event"`.
//!
//! `PPML_BENCH_QUICK=1` shrinks the grid to m in {8, 32} and fewer
//! rounds for CI smoke runs. `PPML_BENCH_M=64,256` overrides the m grid
//! outright, and `PPML_BENCH_THREADPROF=1` prints a per-thread CPU
//! breakdown of each cell to stderr.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ppml_transport::{EventTransport, Message, PartyId, RetryPolicy, Transport, TransportError};

/// The coordinator's party id; children learn it from their argv.
const COORD: PartyId = 10_000;
/// Words per broadcast iterate and per masked share (8 bytes each).
const SHARE_WORDS: usize = 16;

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
        vec![8, 32]
    } else {
        vec![8, 32, 64, 128, 256, 512]
    }
}

fn rounds() -> usize {
    if quick() {
        15
    } else {
        40
    }
}

/// Debug aid (`PPML_BENCH_THREADPROF=1`): per-thread (tid, comm,
/// cpu-ns). Keyed by tid, since threads may share one comm.
fn thread_cpu_snapshot() -> Vec<(u64, String, u64)> {
    let mut out = Vec::new();
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let Some(tid) = task
                .file_name()
                .to_str()
                .and_then(|v| v.parse::<u64>().ok())
            else {
                continue;
            };
            let comm = std::fs::read_to_string(task.path().join("comm"))
                .unwrap_or_default()
                .trim()
                .to_string();
            let ns = std::fs::read_to_string(task.path().join("schedstat"))
                .ok()
                .and_then(|s| {
                    s.split_whitespace()
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                })
                .unwrap_or(0);
            out.push((tid, comm, ns));
        }
    }
    out
}

/// CPU time this process has consumed, in microseconds.
///
/// Prefers the scheduler's nanosecond-resolution `sum_exec_runtime`
/// (`/proc/self/task/*/schedstat`, summed over every thread); falls back to `utime + stime` jiffies from
/// `/proc/self/stat` where schedstats are compiled out. Returns 0 off
/// Linux — the bench still runs, the CPU column is just meaningless
/// there.
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
    // Fields after the parenthesised comm (which may contain spaces):
    // state is index 0 there, utime is index 11, stime index 12.
    let Some(rest) = stat.rsplit(')').next() else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11).and_then(|v| v.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.get(12).and_then(|v| v.parse().ok()).unwrap_or(0);
    (utime + stime) * 10_000
}

/// `Threads:` from `/proc/self/status` (0 off Linux).
fn self_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Echo child: dials the coordinator, answers every `Consensus`
/// broadcast with one `MaskedShare`, exits on `Shutdown` or when the
/// coordinator goes silent.
fn child(party: PartyId, coordinator: SocketAddr) {
    let mut transport = EventTransport::bind(
        party,
        "127.0.0.1:0".parse().expect("loopback"),
        HashMap::from([(COORD, coordinator)]),
        RetryPolicy::tcp_link(),
        Duration::from_secs(5),
    )
    .expect("child bind");
    transport
        .send(COORD, &Message::Heartbeat { nonce: u64::MAX })
        .expect("announce");
    let share = vec![party as u64; SHARE_WORDS];
    loop {
        match transport.recv(Duration::from_secs(60)) {
            Ok(env) => match env.msg {
                Message::Consensus { iteration, .. } => {
                    let reply = Message::MaskedShare {
                        iteration,
                        epoch: 0,
                        party,
                        payload: share.clone(),
                    };
                    if transport.send(COORD, &reply).is_err() {
                        return;
                    }
                }
                Message::Shutdown => return,
                _ => {}
            },
            Err(_) => return,
        }
    }
}

struct Row {
    m: usize,
    form_ms: f64,
    rounds_completed: usize,
    round_ms_p50: f64,
    round_ms_p99: f64,
    coord_cpu_ms_per_round: f64,
    coord_threads: usize,
    ok: bool,
}

fn percentile_ms(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx].as_nanos() as f64 / 1e6
}

/// Binds a coordinator, drives R rounds against m spawned echo children
/// and tears everything down. A round that cannot complete (send failure
/// or a reply missing past the deadline) ends the phase with `ok: false`.
fn run_phase(m: usize, exe: &std::path::Path) -> Row {
    let mut transport = EventTransport::bind(
        COORD,
        "127.0.0.1:0".parse().expect("loopback"),
        HashMap::new(),
        RetryPolicy::tcp_link(),
        Duration::from_secs(5),
    )
    .expect("bind coordinator");
    let addr = transport.local_addr();
    let forming = Instant::now();
    let mut children: Vec<Child> = (0..m)
        .map(|party| {
            Command::new(exe)
                .args(["scale-echo", &party.to_string(), &addr.to_string()])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn echo child")
        })
        .collect();

    let deadline = Instant::now() + Duration::from_secs(60);
    let mut connected = true;
    while transport.connected_parties().len() < m {
        if Instant::now() >= deadline {
            // The cluster never formed. Record the cell as incomplete
            // instead of aborting the sweep.
            eprintln!(
                "scale/event/m={m}: only {}/{m} children connected within 60s",
                transport.connected_parties().len()
            );
            connected = false;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let form_ms = forming.elapsed().as_secs_f64() * 1e3;
    let coord_threads = self_threads();

    let z: Vec<f64> = (0..SHARE_WORDS).map(|k| k as f64 * 0.5).collect();
    let total = rounds();
    let mut latencies: Vec<Duration> = Vec::with_capacity(total);
    let cpu_before = self_cpu_us();
    let prof_before = thread_cpu_snapshot();
    let mut ok = connected;
    'rounds: for r in 0..(if connected { total } else { 0 }) {
        let start = Instant::now();
        let broadcast = Message::Consensus {
            iteration: r as u64,
            z: z.clone(),
            s: Vec::new(),
            done: false,
        };
        for party in 0..m as PartyId {
            if transport.send(party, &broadcast).is_err() {
                ok = false;
                break 'rounds;
            }
        }
        let mut seen = vec![false; m];
        let mut have = 0usize;
        while have < m {
            match transport.recv(Duration::from_secs(60)) {
                Ok(env) => {
                    if let Message::MaskedShare {
                        iteration, party, ..
                    } = env.msg
                    {
                        let p = party as usize;
                        if iteration == r as u64 && p < m && !seen[p] {
                            seen[p] = true;
                            have += 1;
                        }
                    }
                }
                Err(TransportError::Timeout) | Err(_) => {
                    ok = false;
                    break 'rounds;
                }
            }
        }
        latencies.push(start.elapsed());
    }
    let cpu_after = self_cpu_us();
    if std::env::var("PPML_BENCH_THREADPROF").is_ok() {
        let after = thread_cpu_snapshot();
        let mut rollup: HashMap<&str, (usize, u64)> = HashMap::new();
        for (tid, comm, ns) in &after {
            let before = prof_before
                .iter()
                .find(|(t, _, _)| t == tid)
                .map_or(0, |(_, _, n)| *n);
            let slot = rollup.entry(comm.as_str()).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += ns.saturating_sub(before);
        }
        for (comm, (count, ns)) in rollup {
            eprintln!(
                "threadprof event/m={m}: {comm} x{count} {:.2}ms",
                ns as f64 / 1e6
            );
        }
    }

    for party in 0..m as PartyId {
        let _ = transport.send(party, &Message::Shutdown);
    }
    drop(transport);
    // One global grace window for the whole brood: a cell that failed
    // to form (hundreds of children that never saw Shutdown) must not
    // serialize a per-child timeout.
    let grace = Instant::now() + Duration::from_secs(5);
    for child in &mut children {
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < grace => std::thread::sleep(Duration::from_millis(10)),
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
            }
        }
    }

    latencies.sort_unstable();
    let completed = latencies.len();
    let row = Row {
        m,
        form_ms,
        rounds_completed: completed,
        round_ms_p50: percentile_ms(&latencies, 0.50),
        round_ms_p99: percentile_ms(&latencies, 0.99),
        coord_cpu_ms_per_round: if completed > 0 {
            (cpu_after.saturating_sub(cpu_before)) as f64 / 1_000.0 / completed as f64
        } else {
            0.0
        },
        coord_threads,
        ok: ok && completed == total,
    };
    println!(
        "scale/event/m={:<4} formed {:>7.1}ms  rounds {:>3}/{}  p50 {:>8.2}ms  p99 {:>8.2}ms  cpu {:>7.2}ms/round  threads {:>4}  {}",
        row.m,
        row.form_ms,
        row.rounds_completed,
        total,
        row.round_ms_p50,
        row.round_ms_p99,
        row.coord_cpu_ms_per_round,
        row.coord_threads,
        if row.ok { "ok" } else { "INCOMPLETE" }
    );
    row
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("scale-echo") {
        let party: PartyId = args[2].parse().expect("party");
        let coordinator: SocketAddr = args[3].parse().expect("coordinator addr");
        child(party, coordinator);
        return Ok(());
    }

    let exe = std::env::current_exe().expect("current exe");
    let rows: Vec<Row> = learner_counts()
        .into_iter()
        .map(|m| run_phase(m, &exe))
        .collect();

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"scale\",");
    let _ = writeln!(json, "  \"rounds\": {},", rounds());
    let _ = writeln!(json, "  \"share_bytes\": {},", SHARE_WORDS * 8);
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"backend\": \"event\", \"m\": {}, \"form_ms\": {:.1}, \"rounds_completed\": {}, \
             \"round_ms_p50\": {:.3}, \"round_ms_p99\": {:.3}, \
             \"coord_cpu_ms_per_round\": {:.3}, \"coord_threads\": {}, \"ok\": {}}}{comma}",
            r.m,
            r.form_ms,
            r.rounds_completed,
            r.round_ms_p50,
            r.round_ms_p99,
            r.coord_cpu_ms_per_round,
            r.coord_threads,
            r.ok
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    std::fs::write("BENCH_scale.json", &json)?;
    println!("wrote BENCH_scale.json");
    Ok(())
}
