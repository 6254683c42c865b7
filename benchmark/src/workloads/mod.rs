//! The five workloads. Each is a fixed shape of work whose inputs are
//! generated from the run's seed; the program under test only ever sees
//! those inputs.

pub mod cluster;
pub mod serve;
pub mod train;

use ppml_telemetry::Event;

use crate::spans::Spans;

/// One workload, set up and ready to run ops.
pub trait Workload {
    /// Runs one op, verifying everything it produced; `false` is a failed
    /// op. Calls into layers are wrapped in `spans`.
    fn op(&mut self, spans: &mut Spans) -> bool;

    /// Ops to run before timing starts: a fixed count (never a duration,
    /// so set-up time follows the work), at least twenty and about a
    /// second's worth at the commit that defined the benchmark.
    fn warmup_ops(&self) -> usize;

    /// Rows an op processes: train rows × rounds for a training op, rows
    /// scored for a serving op.
    fn rows_per_op(&self) -> f64;

    /// Encoded bytes the ops so far have put on the wire, both directions.
    fn wire_bytes(&self) -> u64;

    /// Held-out accuracy of the model the ops train or serve.
    fn accuracy(&self) -> f64;

    /// Per-layer numbers only this workload can observe, from a traced
    /// run: `(name, value)` pairs out of [`crate::metrics::PER_LAYER`].
    fn layers(&mut self, traced: &Traced<'_>) -> Vec<(&'static str, f64)>;
}

/// What a traced run hands a workload to derive its layer numbers from.
pub struct Traced<'a> {
    pub spans: &'a Spans,
    /// The program's own telemetry events, from the blocks that ran with
    /// a sink installed.
    pub events: &'a [Event],
    /// Ops in the timed window.
    pub ops: usize,
    /// Median op latency over the window, in milliseconds.
    pub op_ms_p50: f64,
}

/// The names the driver passes to `--workload`.
pub const NAMES: [&str; 5] = [
    "train_compute",
    "train_secagg",
    "cluster_fig4",
    "serve_frames",
    "serve_http",
];

/// Sets up the workload called `name` from `seed`. `traced` wraps every
/// transport endpoint in a [`crate::spy::Spy`].
///
/// # Panics
///
/// Panics if the program under test fails during set-up or produces a
/// model its own in-process reference disagrees with: there is nothing
/// to measure then.
pub fn set_up(name: &str, seed: u64, traced: bool, spans: &mut Spans) -> Option<Box<dyn Workload>> {
    Some(match name {
        "train_compute" => Box::new(train::RingWorkload::compute(seed, traced, spans)),
        "train_secagg" => Box::new(train::RingWorkload::secagg(seed, traced, spans)),
        "cluster_fig4" => Box::new(cluster::Fig4::new(seed, spans)),
        "serve_frames" => Box::new(serve::Frames::new(seed, spans)),
        "serve_http" => Box::new(serve::Http::new(seed, spans)),
        _ => return None,
    })
}

/// The median of `values`; 0 for none, like [`mean`].
pub(crate) fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        crate::stats::median(values)
    }
}

/// The mean of `values`; 0 for none, which is how an unexercised layer
/// reads.
pub(crate) fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
