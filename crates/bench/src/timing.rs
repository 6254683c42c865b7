//! A tiny wall-clock measurement harness for the `benches/` binaries.
//!
//! The workspace previously used `criterion`, which the offline build
//! cannot resolve. These benches only need honest medians printed to
//! stdout — run once to warm up, time `samples` runs, report
//! median/min/max. Output is one line per case, grep-friendly:
//!
//! ```text
//! cluster_rounds/learners/4             median 41.20ms  min 39.87ms  max 44.05ms  (n=10)
//! ```

use std::time::{Duration, Instant};

/// Samples per case for fast (microsecond-scale) workloads.
pub const FAST_SAMPLES: usize = 50;
/// Samples per case for slow (whole-training-run) workloads.
pub const SLOW_SAMPLES: usize = 10;

/// Times `f` over `samples` runs (after one untimed warm-up) and prints a
/// one-line report labelled `name`. Returns the median.
pub fn bench<T>(name: &str, samples: usize, mut f: impl FnMut() -> T) -> Duration {
    std::hint::black_box(f()); // warm-up: page in data, fill caches
    let mut times: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    let median = times[times.len() / 2];
    println!(
        "{name:<44} median {:>10}  min {:>10}  max {:>10}  (n={})",
        fmt(median),
        fmt(times[0]),
        fmt(*times.last().expect("non-empty")),
        times.len(),
    );
    median
}

fn fmt(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.2}µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2}s", nanos as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_a_plausible_median() {
        let m = bench("noop", 5, || 1 + 1);
        assert!(m < Duration::from_millis(100));
    }

    #[test]
    fn fmt_scales_units() {
        assert_eq!(fmt(Duration::from_nanos(12)), "12ns");
        assert_eq!(fmt(Duration::from_micros(12)), "12.00µs");
        assert_eq!(fmt(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt(Duration::from_secs(12)), "12.00s");
    }
}
