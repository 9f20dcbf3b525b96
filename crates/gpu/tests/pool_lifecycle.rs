//! Lifecycle tests for the persistent kernel worker pool: pool threads are
//! spawned at [`Device`] construction, survive for the device's whole life,
//! and are joined when the last handle drops — repeated create/drop cycles
//! must not leak OS threads, and a panicking kernel must not kill the pool.
//!
//! Thread liveness is read from the pool's own count
//! ([`Device::live_pool_workers`], decremented as each `lobster-kernel-N`
//! thread exits), never from the process-wide `Threads:` line of
//! `/proc/self/status`: the tests of this binary run in parallel and each
//! creates and drops pools, so the process count moves under every one of
//! them.

use lobster_gpu::{kernels, Device, DeviceConfig};

fn device(parallelism: usize) -> Device {
    Device::new(DeviceConfig {
        parallelism,
        min_parallel_rows: 8,
        ..DeviceConfig::default()
    })
}

/// Runs one real kernel so the pool's workers have demonstrably executed
/// work on this device before it drops.
fn exercise(dev: &Device) {
    let data: Vec<u64> = (0..10_000).map(|i| (i * 2654435761) % 977).collect();
    let perm = kernels::sort_permutation(dev, &[&data]);
    assert_eq!(perm.len(), data.len());
}

#[test]
fn repeated_create_drop_does_not_leak_threads() {
    for _ in 0..50 {
        let dev = device(4);
        let live = dev.live_pool_workers();
        assert_eq!(dev.pool_workers(), 3);
        assert_eq!(live.get(), 3);
        exercise(&dev);
        drop(dev);
        // Drop joins the three `lobster-kernel-{i}` threads before it
        // returns, and each decrements the count on its way out.
        assert_eq!(live.get(), 0, "pool thread outlived its device");
    }
}

#[test]
fn sequential_device_owns_no_pool_threads() {
    let dev = Device::sequential();
    assert_eq!(dev.pool_workers(), 0);
    exercise(&dev); // still executes, inline on the launching thread
}

#[test]
fn clones_share_one_pool_and_drop_joins_only_the_last() {
    let dev = device(3);
    let clone = dev.clone();
    let live = dev.live_pool_workers();
    assert_eq!(dev.pool_workers(), 2);
    assert_eq!(clone.pool_workers(), 2);
    drop(dev);
    // The clone keeps the pool alive and working.
    assert_eq!(live.get(), 2);
    exercise(&clone);
    drop(clone);
    assert_eq!(
        live.get(),
        0,
        "pool threads outlived the last device handle"
    );
}

#[test]
fn pool_survives_a_panicking_kernel() {
    let dev = device(4);
    let data: Vec<u64> = (0..4096).collect();
    let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // eval's closure runs on pool workers; the panic must propagate to
        // this thread, not kill the worker.
        kernels::eval(&dev, data.len(), 1, |range, _sink| {
            if range.contains(&2048) {
                panic!("kernel bug");
            }
        })
    }));
    assert!(boom.is_err(), "worker panic must reach the launcher");
    // The device (and its pool) must still be fully usable afterwards.
    exercise(&dev);
    assert_eq!(dev.pool_workers(), 3);
}
