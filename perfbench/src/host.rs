//! Host-state diagnostics recorded next to every result, and the process's
//! peak memory.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time the calling thread has run so far.
///
/// On a virtual machine with paravirtual steal-time accounting this leaves
/// out the time the host ran other guests on the vCPU, and on any Linux the
/// time other processes ran in the thread's place. Both swing with what
/// else runs on a shared host, so the benchmark times its single-threaded
/// calls with this clock rather than the wall clock.
///
/// # Panics
///
/// Panics if the clock cannot be read (the benchmark runs on Linux only).
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
///
/// # Panics
///
/// Panics if `/proc/self/status` has no readable `VmHWM` line (the
/// benchmark runs on Linux only).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// A fixed workload whose time, taken next to the passes, tells a slow host
/// phase apart from a slow program: the work never changes.
///
/// It is a random walk of read-modify-writes over a 4 MiB table, twice the
/// 2 MiB per-core L2 of the Xeon the benchmark was tuned on, so it runs
/// from the shared L3. On that host such a walk slowed up to 4× in phases
/// of shared-cache contention that also slowed the simulation, while a
/// 1 MiB walk stayed flat. The table is allocated once, so it adds a
/// constant 4 MiB to `peak_rss_mb`.
pub struct Calibration {
    table: Vec<u64>,
}

impl Calibration {
    const WORDS: usize = 1 << 19;
    const STEPS: usize = 1 << 18;

    pub fn new() -> Calibration {
        // Writing every word faults the pages in before any timing.
        Calibration {
            table: (0..Self::WORDS as u64).collect(),
        }
    }

    /// Times one walk.
    pub fn run(&mut self) -> Duration {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..Self::STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & (Self::WORDS - 1);
            self.table[slot] = self.table[slot].wrapping_add(x);
        }
        black_box(&self.table);
        start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_counts_work_but_not_sleep() {
        let start = thread_cpu();
        std::thread::sleep(Duration::from_millis(100));
        let slept = thread_cpu() - start;
        assert!(slept < Duration::from_millis(50), "{slept:?}");

        let start = thread_cpu();
        let mut calibration = Calibration::new();
        calibration.run();
        assert!(thread_cpu() > start);
    }
}
