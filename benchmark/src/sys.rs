//! What the operating system tells the benchmark about itself: CPU time,
//! peak memory, steal time and core count.
//!
//! CPU time is the end-to-end currency (README, "Why CPU cost"), so it is
//! read from `CLOCK_PROCESS_CPUTIME_ID` — nanosecond resolution, covers
//! every thread of the process including ones that already exited — rather
//! than from `/proc/self/stat`, whose 10 ms ticks are coarser than a
//! companion phase.

use std::fs;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU nanoseconds consumed so far by all threads of this process.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` with the layout the
    // 64-bit Linux libc (which std already links) expects, and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .expect("/proc/self/status has a VmHWM line");
    kb / 1024.0
}

/// `(all jiffies, steal jiffies)` summed over every CPU since boot.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").expect("reading /proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let total = fields.iter().take(8).sum();
    (total, fields.get(7).copied().unwrap_or(0))
}

/// Share of machine time the hypervisor withheld between two
/// [`cpu_jiffies`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.0.saturating_sub(before.0);
    if total == 0 {
        return 0.0;
    }
    after.1.saturating_sub(before.1) as f64 / total as f64
}

/// Hardware threads available to this process.
pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// Kernel release string, for the environment block.
pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}
