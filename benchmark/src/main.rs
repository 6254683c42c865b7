//! `ppml-benchmark`: the workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! ppml-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ppml-benchmark all [--runs N] [--seed N] [--seconds S] [--trace 0|1] [--quick] --out FILE
//! ppml-benchmark compare [--spec BENCHMARK.json] A.json B.json
//! ```
//!
//! The first form is one measured run of one workload; its last line on
//! standard output is the result object `BENCHMARK.json` describes.
//! `all` makes `N` such runs of every workload, each in a process of its
//! own with a seed of its own, and files the numbers; `compare` holds two
//! such files against the bounds. See `benchmark/README.md`.

mod compare;
mod harness;
mod json;
mod metrics;
mod probes;
mod ring;
mod spans;
mod spy;
mod stats;
mod sys;
mod tap;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use harness::{RunArgs, QUICK_SECONDS};
use json::Value;

const USAGE: &str = "usage:
  ppml-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  ppml-benchmark all [--runs N] [--seed N] [--seconds S] [--trace 0|1] [--quick] --out FILE
  ppml-benchmark compare [--spec BENCHMARK.json] A.json B.json";

/// The flags shared by a single run and `all`.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    runs: usize,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: 20.0,
        traced: false,
        quick: false,
        runs: 5,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            flags.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use {value:?}");
        match flag.as_str() {
            "--workload" => flags.workload = Some(value.clone()),
            "--seed" => flags.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                flags.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                flags.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => flags.runs = value.parse().ok().filter(|&n| n >= 1).ok_or_else(bad)?,
            "--out" => flags.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if flags.quick {
        flags.seconds = QUICK_SECONDS;
    }
    Ok(flags)
}

/// `all`: every workload, `runs` times, one fresh process per run.
fn run_all(flags: &Flags) -> Result<(), String> {
    let out = flags.out.as_ref().ok_or("all needs --out FILE")?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut workloads = Vec::new();
    for name in workloads::NAMES {
        let mut columns: Vec<(String, Vec<Value>)> = Vec::new();
        for run in 0..flags.runs {
            let mut command = Command::new(&exe);
            command
                .args(["--workload", name])
                .args(["--seed", &(flags.seed + run as u64).to_string()])
                .args(["--seconds", &flags.seconds.to_string()])
                .args(["--trace", if flags.traced { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if flags.quick {
                command.arg("--quick");
            }
            let output = command.output().map_err(|e| format!("spawn {name}: {e}"))?;
            if !output.status.success() {
                return Err(format!("{name} run {run} exited with {}", output.status));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = stdout
                .lines()
                .last()
                .ok_or(format!("{name} run {run} printed nothing"))
                .and_then(|line| json::parse(line).map_err(|e| format!("{name}: {e}")))?;
            if result.get("correct") != Some(&Value::Bool(true)) {
                return Err(format!(
                    "{name} run {run} was not correct: {}",
                    result.render()
                ));
            }
            let metrics = result
                .get("metrics")
                .and_then(Value::members)
                .ok_or(format!("{name} run {run}: no metrics"))?;
            for (metric, reading) in metrics {
                let value = reading.get("value").cloned().unwrap_or(Value::Null);
                match columns.iter_mut().find(|(m, _)| m == metric) {
                    Some((_, values)) => values.push(value),
                    None => columns.push((metric.clone(), vec![value])),
                }
            }
        }
        workloads.push((
            name,
            Value::obj(columns.into_iter().map(|(m, v)| (m, Value::Arr(v)))),
        ));
    }
    let set = Value::obj([
        // Only full-length, untraced sets may be held against the bounds.
        ("comparable", Value::Bool(!flags.quick && !flags.traced)),
        ("seconds", Value::Num(flags.seconds)),
        ("runs", Value::Num(flags.runs as f64)),
        ("first_seed", Value::Num(flags.seed as f64)),
        ("workloads", Value::obj(workloads)),
    ]);
    std::fs::write(out, set.render() + "\n").map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => return ExitCode::from(compare::main(&args[1..]) as u8),
        Some("all") => parse_flags(&args[1..]).and_then(|flags| run_all(&flags)),
        _ => parse_flags(&args).and_then(|flags| {
            let workload = flags.workload.ok_or("--workload is required")?;
            let result = harness::run(
                &RunArgs {
                    workload,
                    seed: flags.seed,
                    seconds: flags.seconds,
                    traced: flags.traced,
                    quick: flags.quick,
                },
                process_start,
            )?;
            println!("{}", result.render());
            Ok(())
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ppml-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
