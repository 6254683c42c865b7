//! Spans recorded by the benchmark around its calls into each layer:
//! kept in memory while the run measures, written out when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval: `name`, when it ran (nanoseconds since the
/// recorder was made), the span it ran inside, and the op it served.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Ordinal of the op in the timed window.
    pub op: u64,
}

/// The recorder. A disabled one (every end-to-end run) records nothing
/// and reads no clock.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    op: u64,
    open: Vec<usize>,
    done: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            enabled,
            op: 0,
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Whether this recorder keeps what it is given: true for the set-up
    /// and the timed window of a traced run, false for its warm-up and
    /// throughout an end-to-end run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans opened from now on belong to op number `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span called `name`, a child of whichever span
    /// is open around the call.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.done.len();
        self.done.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.done[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        result
    }

    #[cfg(test)]
    pub fn all(&self) -> &[Span] {
        &self.done
    }

    /// Durations, in milliseconds, of every recorded span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.done
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Time, in milliseconds, spent in spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        // Not `sum()`: an empty float sum is −0.0, which prints as "-0".
        self.durations_ms(name)
            .iter()
            .fold(0.0, |total, ms| total + ms)
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, s) in self.done.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {index}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_children_lie_inside_them() {
        let mut spans = Spans::new(true);
        spans.set_op(3);
        spans.time("op", |s| {
            s.time("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let all = spans.all();
        assert_eq!(all.len(), 2);
        assert_eq!((all[0].name, all[0].parent, all[0].op), ("op", None, 3));
        assert_eq!((all[1].name, all[1].parent), ("child", Some(0)));
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
        assert!(spans.durations_ms("child")[0] >= 2.0);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.time("op", |_| 7), 7);
        assert!(spans.all().is_empty());
    }
}
