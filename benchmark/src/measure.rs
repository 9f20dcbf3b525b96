//! Clocks, counters and order statistics shared by every workload.

use crate::alloc;
use crate::sys;
use std::ops::AddAssign;
use std::time::{Duration, Instant};

/// What one timed section cost: wall time, CPU time of every thread of the
/// process, and global-allocator traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub wall: Duration,
    pub cpu_s: f64,
    pub alloc_bytes: u64,
    pub alloc_calls: u64,
}

impl AddAssign for Cost {
    fn add_assign(&mut self, other: Cost) {
        self.wall += other.wall;
        self.cpu_s += other.cpu_s;
        self.alloc_bytes += other.alloc_bytes;
        self.alloc_calls += other.alloc_calls;
    }
}

impl Cost {
    pub fn ms(&self) -> f64 {
        self.wall.as_secs_f64() * 1e3
    }
}

/// Runs `f` and reports what it cost. Verification of the answer happens
/// outside, so the harness's own checking is never on the clock.
pub fn metered<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    // The wall clock is innermost: it is the one the gated metrics read.
    let cpu = cpu_seconds();
    let (bytes, calls) = alloc::snapshot();
    let start = Instant::now();
    let value = f();
    let wall = start.elapsed();
    let (bytes_after, calls_after) = alloc::snapshot();
    let cpu_s = cpu_seconds() - cpu;
    (
        value,
        Cost {
            wall,
            cpu_s,
            alloc_bytes: bytes_after - bytes,
            alloc_calls: calls_after - calls,
        },
    )
}

/// Median wall time of `repeats` calls of `f`, in milliseconds.
pub fn median_ms(repeats: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..repeats.max(1))
        .map(|_| metered(&mut f).1.ms())
        .collect();
    median(&samples)
}

/// The `q`-quantile (`0..=1`) with linear interpolation between ranks.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// CPU seconds consumed by every thread of the process: the kernel's
/// nanosecond clock where the harness can call it, else the tick counters of
/// `/proc/self/stat` (fields 14 and 15, user and system, in 1/100 s).
pub fn cpu_seconds() -> f64 {
    sys::process_cpu_seconds().unwrap_or_else(|| {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // The command name (field 2) may contain spaces; fields resume after
        // the ')'.
        let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let ticks: u64 = after_comm
            .split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|field| field.parse::<u64>().ok())
            .sum();
        ticks as f64 / 100.0
    })
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in MB.
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The first line a command prints, or `"unknown"` when it cannot run (the
/// driver's checkout is not a git repository, for one).
pub fn first_line(command: &mut std::process::Command) -> String {
    command
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
