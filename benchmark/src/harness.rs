//! One measured run of one workload: pin, set up, warm up, run ops in a
//! closed loop for the window, reduce them block by block, report.

use std::time::{Duration, Instant};

use ppml_telemetry::{self as telemetry, Event, EventKind, RingSink};

use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{block_of, median, percentile, quartile_spread, steady_block, Better, BLOCKS};
use crate::workloads::{self, Traced, Workload};
use crate::{probes, sys};

/// Times an end-to-end run sets the workload up; `setup_s` is the
/// median, so one slow `fsync` or page-cache miss does not decide it.
const SETUPS: usize = 3;

/// The window of a `--quick` run, whose numbers are never comparable.
pub const QUICK_SECONDS: f64 = 2.0;

/// Events a block's sink can hold; later ones evict earlier ones, and
/// the count of all of them survives.
const RING_CAPACITY: usize = 1 << 18;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
}

/// One timed op.
struct Op {
    block: usize,
    ms: f64,
    ok: bool,
    /// Whether the program's telemetry had a sink while the op ran.
    sink: bool,
}

/// The run's timed window: its ops, the process CPU clock read at
/// every block edge (`BLOCKS + 1` readings; an edge no op crossed
/// repeats its neighbour's), and the bytes the ops put on the wire.
struct Window {
    ops: Vec<Op>,
    cpu_at: Vec<Duration>,
    wire_bytes: u64,
    /// Telemetry events of interest, and how many there were of any kind.
    events: Vec<Event>,
    events_recorded: u64,
}

/// Sets the workload up and warms it. Returns it, the time both took
/// and whether every warm-up op verified.
fn set_up_and_warm(
    args: &RunArgs,
    started: Instant,
    spans: &mut Spans,
) -> Result<(Box<dyn Workload>, f64, bool), String> {
    let mut workload = workloads::set_up(&args.workload, args.seed, args.traced, spans)
        .ok_or_else(|| {
            format!(
                "unknown workload {:?}; known: {}",
                args.workload,
                workloads::NAMES.join(", ")
            )
        })?;
    let warmup = if args.quick { 3 } else { workload.warmup_ops() };
    let mut untimed = Spans::new(false);
    let mut ok = true;
    for _ in 0..warmup {
        ok &= workload.op(&mut untimed);
    }
    Ok((workload, started.elapsed().as_secs_f64(), ok))
}

/// Runs ops back to back, one client, until `seconds` have passed.
fn measure(workload: &mut dyn Workload, seconds: f64, traced: bool, spans: &mut Spans) -> Window {
    let mut window = Window {
        ops: Vec::new(),
        cpu_at: Vec::with_capacity(BLOCKS + 1),
        wire_bytes: 0,
        events: Vec::new(),
        events_recorded: 0,
    };
    let mut ring: Option<std::sync::Arc<RingSink>> = None;
    let wire_before = workload.wire_bytes();
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let block = if elapsed < seconds {
            block_of(elapsed, seconds)
        } else {
            BLOCKS // past the closing edge
        };
        while window.cpu_at.len() <= block {
            // Crossing into a new block: close the old one's sink, read
            // the clock on the edge, open the new one's.
            let edge = window.cpu_at.len();
            if let Some(ring) = ring.take() {
                telemetry::uninstall();
                window.events_recorded += ring.recorded();
                window
                    .events
                    .extend(ring.snapshot().into_iter().filter(|e| {
                        matches!(
                            e.kind,
                            EventKind::SecAggRound { .. } | EventKind::ShuffleBytes { .. }
                        )
                    }));
            }
            window.cpu_at.push(sys::process_cpu());
            // Even blocks run with a sink, odd ones without: the gap
            // between their ops is what telemetry costs.
            if traced && edge == block && block < BLOCKS && block % 2 == 0 {
                let sink = RingSink::new(RING_CAPACITY);
                telemetry::install(sink.clone());
                ring = Some(sink);
            }
        }
        if block == BLOCKS {
            window.wire_bytes = workload.wire_bytes() - wire_before;
            return window;
        }
        spans.set_op(window.ops.len() as u64);
        let op_start = Instant::now();
        let ok = spans.time("op", |spans| workload.op(spans));
        window.ops.push(Op {
            block,
            ms: op_start.elapsed().as_secs_f64() * 1e3,
            ok,
            sink: ring.is_some(),
        });
    }
}

/// The numbers a window reduces to.
struct Reduced {
    op_ms_p50: f64,
    rows_per_s: f64,
    cpu_ms_per_op: f64,
    wire_bytes_per_op: f64,
    /// Quartile distance of the blocks' median latencies over their
    /// median: how steady the host was during this run.
    block_spread: f64,
    /// Each measured block's median latency, in time order: where the
    /// neighbours were, at a glance.
    block_p50: Vec<f64>,
}

fn reduce(window: &Window, rows_per_op: f64) -> Reduced {
    let mut p50 = Vec::with_capacity(BLOCKS);
    let mut rows = Vec::with_capacity(BLOCKS);
    let mut cpu = Vec::with_capacity(BLOCKS);
    for block in 0..BLOCKS {
        let ms: Vec<f64> = window
            .ops
            .iter()
            .filter(|op| op.block == block)
            .map(|op| op.ms)
            .collect();
        if ms.is_empty() {
            for per_block in [&mut p50, &mut rows, &mut cpu] {
                per_block.push(None);
            }
            continue;
        }
        let n = ms.len() as f64;
        let mean_ms = ms.iter().sum::<f64>() / n;
        p50.push(Some(median(&ms)));
        rows.push(Some(rows_per_op / (mean_ms / 1e3)));
        let cpu_ms = (window.cpu_at[block + 1] - window.cpu_at[block]).as_secs_f64() * 1e3;
        cpu.push(Some(cpu_ms / n));
    }
    let measured: Vec<f64> = p50.iter().flatten().copied().collect();
    Reduced {
        op_ms_p50: steady_block(&p50, Better::Lower),
        rows_per_s: steady_block(&rows, Better::Higher),
        cpu_ms_per_op: steady_block(&cpu, Better::Lower),
        // Bytes do not depend on how fast the host ran: the whole
        // window's average is the steadiest reading there is, and a
        // retransmission anywhere in it is charged.
        wire_bytes_per_op: window.wire_bytes as f64 / window.ops.len() as f64,
        block_spread: if measured.len() >= 2 {
            quartile_spread(&measured)
        } else {
            0.0
        },
        block_p50: measured,
    }
}

fn metric(value: f64, unit: &str) -> Value {
    Value::obj([
        ("value", Value::Num(value)),
        ("unit", Value::Str(unit.into())),
    ])
}

/// Runs the workload as `args` say and returns the result object the
/// run prints as its last line.
///
/// # Errors
///
/// An unknown workload name, or a window in which no op finished.
pub fn run(args: &RunArgs, process_start: Instant) -> Result<Value, String> {
    let pinned = sys::pin_to_last_core();
    if !pinned {
        eprintln!(
            "WARNING: could not pin to one core (is taskset(1) missing?). Unpinned runs of \
             these workloads spread 14-20 % run to run; do not compare this one."
        );
    }

    let mut spans = Spans::new(args.traced);
    let setups = if args.traced || args.quick { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut warm_ok = true;
    let mut ready = None;
    for round in 0..setups {
        // The first set-up is charged from process start: pinning and
        // the loader are set-up too.
        let started = if round == 0 {
            process_start
        } else {
            Instant::now()
        };
        drop(ready.take()); // tear the previous one down before the next binds
        let (workload, seconds, ok) = set_up_and_warm(args, started, &mut spans)?;
        setup_s.push(seconds);
        warm_ok &= ok;
        ready = Some(workload);
    }
    let mut workload = ready.expect("at least one set-up");

    let window = measure(workload.as_mut(), args.seconds, args.traced, &mut spans);
    if window.ops.is_empty() {
        return Err(format!("no op finished within {} s", args.seconds));
    }
    let attempted = window.ops.len();
    let failed = window.ops.iter().filter(|op| !op.ok).count();
    let reduced = reduce(&window, workload.rows_per_op());
    let all_ms: Vec<f64> = window.ops.iter().map(|op| op.ms).collect();
    let [p90, p99, max] = [0.90, 0.99, 1.0].map(|p| percentile(&all_ms, p));

    let metrics: Vec<(&str, Value)> = if args.traced {
        let mut layers: Vec<(&str, f64)> = workload.layers(&Traced {
            spans: &spans,
            events: &window.events,
            ops: attempted,
            op_ms_p50: median(&all_ms),
        });
        let with_sink: Vec<f64> = window.ops.iter().filter(|o| o.sink).map(|o| o.ms).collect();
        let without: Vec<f64> = window
            .ops
            .iter()
            .filter(|o| !o.sink)
            .map(|o| o.ms)
            .collect();
        if !with_sink.is_empty() && !without.is_empty() {
            layers.push((
                "telemetry.overhead_share",
                median(&with_sink) / median(&without) - 1.0,
            ));
            layers.push((
                "telemetry.events_per_op",
                window.events_recorded as f64 / with_sink.len() as f64,
            ));
        }
        layers.push(("telemetry.emit_ns", probes::telemetry_emit_ns()));
        layers.extend([
            ("diag.op_ms_p90", p90),
            ("diag.op_ms_p99", p99),
            ("diag.op_ms_max", max),
            ("diag.ops", attempted as f64),
            ("diag.block_spread", reduced.block_spread),
            ("diag.pinned", f64::from(u8::from(pinned))),
        ]);
        let path = format!("benchmark/out/trace-{}.jsonl", args.workload);
        if let Err(e) = spans.write_jsonl(std::path::Path::new(&path)) {
            eprintln!("could not write {path}: {e}");
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = layers.iter().find(|(n, _)| *n == name).map_or(0.0, |l| l.1);
                (name, metric(value, unit))
            })
            .collect()
    } else {
        let values = [
            median(&setup_s),
            reduced.op_ms_p50,
            reduced.rows_per_s,
            reduced.cpu_ms_per_op,
            reduced.wire_bytes_per_op,
            workload.accuracy(),
            (attempted - failed) as f64 / attempted as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, metric(value, unit)))
            .collect()
    };

    eprintln!(
        "{} seed {} {} s{}: {attempted} ops, {failed} failed, p50 {:.3} ms, p90 {p90:.3}, \
         p99 {p99:.3}, max {max:.3}, block spread {:.2} %, set-up {:?} s, pinned {pinned}",
        args.workload,
        args.seed,
        args.seconds,
        if args.traced { " traced" } else { "" },
        reduced.op_ms_p50,
        reduced.block_spread * 100.0,
        setup_s,
    );
    eprintln!("  block p50s, ms: {:.3?}", reduced.block_p50);
    for (name, value) in &metrics {
        let number = value
            .get("value")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        let unit = value.get("unit").and_then(Value::as_str).unwrap_or("");
        eprintln!("  {name:<40} {number:>16.6} {unit}");
    }

    let mut result = vec![
        ("correct", Value::Bool(warm_ok && failed == 0)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", Value::obj(metrics)),
    ];
    if args.quick {
        eprintln!("--quick: a {QUICK_SECONDS} s smoke run; its numbers are NOT comparable.");
        result.push(("comparable", Value::Bool(false)));
    }
    Ok(Value::obj(result))
}
