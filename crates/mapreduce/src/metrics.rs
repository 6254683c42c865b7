//! Runtime cost accounting.

use std::time::Duration;

/// Aggregate metrics for a job (accumulated across iterations).
///
/// These carry the paper's systems claims: `locality_hits` vs
/// `remote_reads` quantify data locality, `bytes_shuffled` vs the raw data
/// size quantifies "moving computation results is much cheaper than moving
/// data" (§I).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobMetrics {
    /// Iterations driven so far.
    pub iterations: usize,
    /// Map task attempts that ran on their block's home node.
    pub locality_hits: usize,
    /// Map task attempts that had to read their block remotely.
    pub remote_reads: usize,
    /// Map task attempts that failed (fault injection or panic) and were
    /// retried.
    pub task_retries: usize,
    /// Workers that died mid-job (thread exit or an overdue attempt)
    /// whose tasks were re-queued on survivors.
    pub workers_lost: usize,
    /// Bytes of map output crossing the simulated network (shuffle).
    pub bytes_shuffled: usize,
    /// Bytes of broadcast state pushed to mappers (feedback channel).
    pub bytes_broadcast: usize,
    /// Bytes of block payload read remotely due to locality misses.
    pub bytes_remote_read: usize,
    /// Wall-clock spent inside map tasks (summed over tasks).
    pub map_time: Duration,
    /// Wall-clock spent inside reduce calls.
    pub reduce_time: Duration,
}

impl JobMetrics {
    /// Fraction of map attempts that were data-local (1.0 when no attempts
    /// ran yet).
    pub fn locality_ratio(&self) -> f64 {
        let total = self.locality_hits + self.remote_reads;
        if total == 0 {
            1.0
        } else {
            self.locality_hits as f64 / total as f64
        }
    }

    /// Total bytes that crossed the simulated network.
    pub fn total_network_bytes(&self) -> usize {
        self.bytes_shuffled + self.bytes_broadcast + self.bytes_remote_read
    }

    /// Folds another metrics block into this one.
    pub fn merge(&mut self, other: &JobMetrics) {
        self.iterations += other.iterations;
        self.locality_hits += other.locality_hits;
        self.remote_reads += other.remote_reads;
        self.task_retries += other.task_retries;
        self.workers_lost += other.workers_lost;
        self.bytes_shuffled += other.bytes_shuffled;
        self.bytes_broadcast += other.bytes_broadcast;
        self.bytes_remote_read += other.bytes_remote_read;
        self.map_time += other.map_time;
        self.reduce_time += other.reduce_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_ratio_handles_empty() {
        assert_eq!(JobMetrics::default().locality_ratio(), 1.0);
    }

    #[test]
    fn locality_ratio_counts() {
        let m = JobMetrics {
            locality_hits: 3,
            remote_reads: 1,
            ..Default::default()
        };
        assert_eq!(m.locality_ratio(), 0.75);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = JobMetrics {
            iterations: 1,
            bytes_shuffled: 10,
            map_time: Duration::from_millis(5),
            ..Default::default()
        };
        let b = JobMetrics {
            iterations: 2,
            bytes_shuffled: 7,
            map_time: Duration::from_millis(3),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.iterations, 3);
        assert_eq!(a.bytes_shuffled, 17);
        assert_eq!(a.map_time, Duration::from_millis(8));
    }

    #[test]
    fn network_bytes_totals() {
        let m = JobMetrics {
            bytes_shuffled: 1,
            bytes_broadcast: 2,
            bytes_remote_read: 4,
            ..Default::default()
        };
        assert_eq!(m.total_network_bytes(), 7);
    }
}
