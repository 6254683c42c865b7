//! The few things the benchmark needs from the operating system: CPU
//! clocks, the process's socket-write counter, and core pinning.

use std::time::Duration;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` with the 64-bit Linux
    // layout (two `long`s) and `clock` is one of the two constants
    // above, which the C library std already links defines for this
    // target; the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// User + system CPU time of the whole process, every thread that ever
/// ran included (what `getrusage(RUSAGE_SELF)` reports, at nanosecond
/// rather than microsecond resolution).
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU time of the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Pins the calling thread — call it before spawning any other, they
/// inherit the mask — to the last core, so wall time is the program's
/// work and not the scheduler's choice of where ten threads land on two
/// cores. Returns whether the mask was applied.
pub fn pin_to_last_core() -> bool {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    ppml_transport::pin_current_thread(cores - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu(), thread_cpu());
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu() > t0);
        assert!(process_cpu() > p0);
    }
}
