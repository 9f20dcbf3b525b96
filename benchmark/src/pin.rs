//! Pins the process to one CPU.
//!
//! On a small virtual machine the closed loops here are disturbed less by
//! their neighbours than by the guest's own scheduler: `clutrr_serve` hands
//! each request across three threads, and whenever a hand-off lands on the
//! other, idle, virtual CPU it pays an inter-processor interrupt and a trip
//! through the hypervisor. The same binary then reads 0.37 ms or 0.65 ms per
//! request for minutes at a time (see the README). Only one thread is ever
//! runnable in a closed loop, so one CPU loses nothing and makes every
//! hand-off a plain context switch.
//!
//! The call itself is in `sys.rs`.

use crate::sys;
use std::sync::OnceLock;

/// The CPUs the process was allowed when it first asked.
static AT_START: OnceLock<Vec<usize>> = OnceLock::new();

/// Pins the process to the highest-numbered CPU it is allowed (CPU 0 takes
/// most of a small machine's interrupts) and returns which.
pub fn to_one_cpu() -> Option<usize> {
    let cpu = *AT_START.get_or_init(allowed_cpus).last()?;
    restrict_to(&[cpu]).then_some(cpu)
}

/// Runs `f`, and the threads it spawns, on every CPU the process started
/// with, then pins it again: for the one probe that wants two kernel threads.
pub fn on_all_cpus<T>(f: impl FnOnce() -> T) -> T {
    let Some(at_start) = AT_START.get() else {
        return f();
    };
    restrict_to(at_start);
    let value = f();
    to_one_cpu();
    value
}

/// The CPUs the process may run on, from `/proc/self/status`.
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("");
    let mut cpus = Vec::new();
    for range in list.trim().split(',') {
        let (first, last) = range.split_once('-').unwrap_or((range, range));
        if let (Ok(first), Ok(last)) = (first.parse::<usize>(), last.parse::<usize>()) {
            cpus.extend(first..=last);
        }
    }
    cpus
}

/// Restricts the calling thread, and every thread it spawns from now on, to
/// `cpus`. Returns whether the kernel accepted the mask; the harness carries
/// on unpinned, and says so in its stamp, where it did not.
fn restrict_to(cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        match mask.get_mut(cpu / 64) {
            Some(word) => *word |= 1 << (cpu % 64),
            None => return false,
        }
    }
    !cpus.is_empty() && sys::set_affinity(&mask)
}
