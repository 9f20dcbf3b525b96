//! The simulated device: configuration, memory accounting, metrics, and
//! the persistent kernel worker pool.
//!
//! Constructing a [`Device`] spawns its worker pool (`parallelism - 1`
//! long-lived `lobster-kernel-N` threads; see [`crate::pool`]); dropping the
//! last clone of the device joins them. Kernel execution never spawns
//! threads per launch. See `docs/PERFORMANCE.md` for how the pool knobs
//! interact with the serving layer's threads.

use crate::arena::Arena;
use crate::metrics::{Kind, Metrics, Snapshot};
use crate::pool::{LiveWorkers, WorkerPool};
use std::cell::Cell;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Direction of a simulated host↔device transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferDirection {
    /// Host (CPU) memory to device (GPU) memory.
    HostToDevice,
    /// Device (GPU) memory back to host (CPU) memory.
    DeviceToHost,
}

/// Configuration of the simulated device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Number of worker threads used to execute kernels. `1` gives a fully
    /// sequential execution, which is useful for debugging.
    pub parallelism: usize,
    /// Optional device memory budget in bytes. Allocations beyond the budget
    /// fail with [`DeviceError::OutOfMemory`], reproducing the OOM entries of
    /// the paper's Table 3.
    pub memory_limit: Option<usize>,
    /// The `O` parameter of the paper (Figure 6): the hash table built for a
    /// join is sized `O ×` the number of build-side rows.
    pub hash_table_expansion: usize,
    /// Minimum number of rows per worker chunk before a kernel bothers to go
    /// parallel.
    pub min_parallel_rows: usize,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            memory_limit: None,
            hash_table_expansion: 2,
            min_parallel_rows: 4096,
        }
    }
}

/// The accounting bucket a kernel launch is attributed to, for the
/// per-kernel busy-time (`kernel_time.*`) and wall-time (`kernel_wall.*`)
/// entries of [`Device::metrics`]. Sort, join, and unique are the paper's
/// Table 1 hot set, so they get their own buckets — the one-launch frontier
/// update, which sorts, deduplicates and filters, is sort; everything else
/// (scan, merge, difference, eval, gathers, loads) is `Other`. Declared in
/// the order of the buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Row sorting (`sort_unique`, which builds every fix-point frontier,
    /// and the sequential `sort_permutation` reference).
    Sort,
    /// Hash-join family (`HashIndex::build`, `count_matches`, `hash_join`).
    Join,
    /// Sorted-run deduplication by the standalone `unique` reference, which
    /// the engine does not call: a frontier's deduplication is `Sort` time.
    Unique,
    /// Every other kernel.
    Other,
}

/// The device's registry entries; the constants below index them. Times
/// are summed across concurrent launches (and, for busy time, across the
/// worker threads of one launch), so on a parallel device a total can
/// exceed wall-clock time.
const ENTRIES: &[(&str, Kind)] = &[
    // Kernel launches, on every thread.
    ("kernel_launches", Kind::Counter),
    // **Busy** time inside kernels per [`KernelKind`]: the work view. What a
    // launch runs on its own thread counts at its wall time; what it hands
    // to the worker pool counts as the chunks' summed execution time across
    // every thread that ran one, in place of the wall time the launcher
    // spent waiting for them — so pool idle and queue wait are *not*
    // counted, and overlapping chunks count once each. A launch that never
    // reaches the pool (every launch on a sequential device, and every
    // launch over fewer than [`DeviceConfig::min_parallel_rows`] rows) reads
    // exactly its wall time. Pool work a kernel starts outside any launch
    // lands in `other`.
    ("kernel_time.sort_ns", Kind::Nanos),
    ("kernel_time.join_ns", Kind::Nanos),
    ("kernel_time.unique_ns", Kind::Nanos),
    ("kernel_time.other_ns", Kind::Nanos),
    // **Enqueue-to-completion** wall time per launch and [`KernelKind`] —
    // what a caller of the kernel observed, including any pool queue wait:
    // the latency view. On a sequential device busy and wall time are equal
    // bucket by bucket; on a parallel device busy time exceeds wall time
    // whenever chunks overlap. A launch nested in another counts in both.
    ("kernel_wall.sort_ns", Kind::Nanos),
    ("kernel_wall.join_ns", Kind::Nanos),
    ("kernel_wall.unique_ns", Kind::Nanos),
    ("kernel_wall.other_ns", Kind::Nanos),
    // Device allocations, the bytes live now and their high-water mark.
    ("allocations", Kind::Counter),
    ("live_bytes", Kind::Gauge),
    ("peak_bytes", Kind::Peak),
    // Bytes ever allocated.
    ("allocated_bytes", Kind::Counter),
    // Host↔device transfers and the bytes they moved each way.
    ("bytes_to_device", Kind::Counter),
    ("bytes_to_host", Kind::Counter),
    ("transfers", Kind::Counter),
];
const KERNEL_LAUNCHES: usize = 0;
/// The first busy-time bucket; [`KernelKind`] numbers the four.
const KERNEL_TIME: usize = 1;
/// The first wall-time bucket.
const KERNEL_WALL: usize = 5;
const ALLOCATIONS: usize = 9;
const LIVE_BYTES: usize = 10;
const PEAK_BYTES: usize = 11;
const ALLOCATED_BYTES: usize = 12;
const BYTES_TO_DEVICE: usize = 13;
const BYTES_TO_HOST: usize = 14;
const TRANSFERS: usize = 15;

/// Errors produced by the simulated device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The configured device memory budget was exceeded.
    OutOfMemory {
        /// Bytes the failing allocation requested.
        requested: usize,
        /// Bytes live at the time of the failure.
        live: usize,
        /// The configured budget.
        limit: usize,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfMemory { requested, live, limit } => write!(
                f,
                "device out of memory: requested {requested} bytes with {live} live of {limit} budget"
            ),
        }
    }
}

impl std::error::Error for DeviceError {}

#[derive(Debug)]
struct DeviceInner {
    metrics: Metrics,
    /// The buffer pool every kernel output and scratch column is routed
    /// through (Section 4.1). Shared by all clones of the device.
    arena: Arena,
    /// The persistent kernel worker pool: spawned once here, shared by all
    /// clones of the device, joined when the last clone drops.
    pool: WorkerPool,
}

/// The innermost active launch on a thread: its bucket, and how far the
/// busy time of the chunks it handed to the worker pool exceeds the wall
/// time it spent waiting for them (negative while workers sat idle).
#[derive(Clone, Copy)]
struct ActiveLaunch {
    kind: KernelKind,
    pooled_excess_ns: i64,
}

thread_local! {
    /// The innermost active launch *on this thread*: set by
    /// [`Device::launch`], restored when the guard drops. Pool workers never
    /// run under a launch guard; they report busy time back through the
    /// launcher (`WorkerPool::run`), so attribution happens on the
    /// launching thread, where the guard is live.
    static ACTIVE: Cell<Option<ActiveLaunch>> = const { Cell::new(None) };
    /// Kernel launches recorded on this thread, on any device.
    static LAUNCHES: Cell<u64> = const { Cell::new(0) };
}

/// Kernel launches recorded on the calling thread so far, on any device. A
/// launch is recorded on the thread that makes it, so the difference across
/// a run on one thread is that run's own count, whatever other threads
/// launch meanwhile on a shared device.
pub fn thread_kernel_launches() -> u64 {
    LAUNCHES.with(Cell::get)
}

/// A duration in whole nanoseconds, saturating.
fn nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// A handle to the simulated device.
///
/// The device is cheap to clone (clones share metrics and the memory
/// budget) and is `Send + Sync`, so a single device can back many concurrent
/// kernel launches.
#[derive(Debug, Clone)]
pub struct Device {
    config: DeviceConfig,
    inner: Arc<DeviceInner>,
}

impl Default for Device {
    fn default() -> Self {
        Device::new(DeviceConfig::default())
    }
}

impl Device {
    /// Creates a device with the given configuration. This spawns the
    /// device's persistent kernel worker pool: `parallelism - 1` long-lived
    /// threads (the launching thread is the remaining execution lane), so a
    /// `parallelism: 1` device spawns none and runs every kernel inline. The
    /// pool is joined when the last clone of the device is dropped.
    pub fn new(config: DeviceConfig) -> Self {
        let workers = config.parallelism.max(1) - 1;
        Device {
            config,
            inner: Arc::new(DeviceInner {
                metrics: Metrics::new(ENTRIES),
                arena: Arena::default(),
                pool: WorkerPool::new(workers),
            }),
        }
    }

    /// Creates a single-threaded device with no memory budget; convenient for
    /// tests.
    pub fn sequential() -> Self {
        Device::new(DeviceConfig {
            parallelism: 1,
            ..DeviceConfig::default()
        })
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Number of kernel execution lanes (pooled workers plus the launching
    /// thread).
    pub fn parallelism(&self) -> usize {
        self.config.parallelism.max(1)
    }

    /// Number of long-lived worker threads in this device's kernel pool —
    /// always `parallelism() - 1`, since the launching thread participates
    /// in every launch. Exposed so lifecycle tests can assert pool sizing.
    pub fn pool_workers(&self) -> usize {
        self.inner.pool.workers()
    }

    /// A handle on the number of this device's pool threads that are still
    /// alive. It stays readable after every clone of the device is gone,
    /// when it must read zero: dropping the last clone joins the pool.
    pub fn live_pool_workers(&self) -> LiveWorkers {
        self.inner.pool.live_workers()
    }

    /// The persistent kernel worker pool (see [`crate::pool`]).
    pub(crate) fn pool(&self) -> &WorkerPool {
        &self.inner.pool
    }

    /// Minimum rows before a kernel splits work across threads.
    pub fn min_parallel_rows(&self) -> usize {
        self.config.min_parallel_rows.max(1)
    }

    /// Records a kernel launch (used by every kernel in [`crate::kernels`]).
    pub fn record_kernel(&self) {
        self.inner.metrics.add(KERNEL_LAUNCHES, 1);
        LAUNCHES.with(|n| n.set(n.get() + 1));
    }

    /// Records one finished launch: its wall time (`kernel_wall.*`), and
    /// its busy time (`kernel_time.*`) — the wall time corrected by what its
    /// pooled chunks reported.
    fn record_launch(&self, launch: ActiveLaunch, wall: Duration) {
        let wall = nanos(wall);
        let busy = wall.saturating_add_signed(launch.pooled_excess_ns);
        self.record_kernel();
        let bucket = launch.kind as usize;
        self.inner.metrics.add(KERNEL_WALL + bucket, wall);
        self.inner.metrics.add(KERNEL_TIME + bucket, busy);
    }

    /// Reports chunks that ran on the worker pool: `busy` summed over the
    /// threads that ran them, `wall` the time the launcher waited for them.
    /// Inside a launch the difference corrects the innermost launch's busy
    /// time, recorded when it ends; outside any launch `busy` is recorded
    /// now, as [`KernelKind::Other`].
    pub(crate) fn record_pooled(&self, busy: Duration, wall: Duration) {
        let (busy, wall) = (nanos(busy), nanos(wall));
        let in_launch = ACTIVE.with(|cell| match cell.get() {
            Some(mut launch) => {
                let excess = i64::try_from(busy).unwrap_or(i64::MAX)
                    - i64::try_from(wall).unwrap_or(i64::MAX);
                launch.pooled_excess_ns = launch.pooled_excess_ns.saturating_add(excess);
                cell.set(Some(launch));
                true
            }
            None => false,
        });
        if !in_launch {
            let other = KERNEL_TIME + KernelKind::Other as usize;
            self.inner.metrics.add(other, busy);
        }
    }

    /// The buffer pool kernel outputs and scratch columns are allocated
    /// from. Kernels call this; the executor recycles dead register columns
    /// into it at the end of every fix-point iteration.
    pub fn arena(&self) -> &Arena {
        &self.inner.arena
    }

    /// Starts a timed kernel launch: the returned guard records the launch,
    /// its wall time and its busy time in the given bucket when dropped —
    /// one clock read here, one there, three atomic adds — and makes it the
    /// launch that pooled chunks reported on this thread correct (nested
    /// launches restore the outer one on drop).
    pub(crate) fn launch(&self, kind: KernelKind) -> LaunchTimer<'_> {
        let launch = ActiveLaunch {
            kind,
            pooled_excess_ns: 0,
        };
        let prev = ACTIVE.with(|cell| cell.replace(Some(launch)));
        LaunchTimer {
            device: self,
            prev,
            start: Instant::now(),
        }
    }

    /// Accounts for a device allocation of `bytes`, failing if the memory
    /// budget would be exceeded.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfMemory`] when a memory budget is configured
    /// and the allocation would exceed it.
    pub fn try_alloc(&self, bytes: usize) -> Result<(), DeviceError> {
        let metrics = &self.inner.metrics;
        // A relaxed add suffices: the budget reads only this entry, and the
        // read-modify-writes of one atomic are totally ordered.
        let live = metrics.add(LIVE_BYTES, bytes as u64) as usize + bytes;
        if let Some(limit) = self.config.memory_limit {
            if live > limit {
                metrics.sub(LIVE_BYTES, bytes as u64);
                return Err(DeviceError::OutOfMemory {
                    requested: bytes,
                    live: live - bytes,
                    limit,
                });
            }
        }
        metrics.add(ALLOCATIONS, 1);
        metrics.add(ALLOCATED_BYTES, bytes as u64);
        metrics.max(PEAK_BYTES, live as u64);
        Ok(())
    }

    /// Releases `bytes` previously accounted with [`Device::try_alloc`].
    pub fn free(&self, bytes: usize) {
        self.inner.metrics.sub(LIVE_BYTES, bytes as u64);
    }

    /// Records a host↔device transfer of `bytes`.
    pub fn record_transfer(&self, direction: TransferDirection, bytes: usize) {
        let moved = match direction {
            TransferDirection::HostToDevice => BYTES_TO_DEVICE,
            TransferDirection::DeviceToHost => BYTES_TO_HOST,
        };
        self.inner.metrics.add(moved, bytes as u64);
        self.inner.metrics.add(TRANSFERS, 1);
    }

    /// The device's metrics (see the entry table in this module's source:
    /// launches, busy and wall time per [`KernelKind`], memory and
    /// transfers), with its arena's under `arena`.
    pub fn metrics(&self) -> Snapshot {
        self.inner
            .metrics
            .snapshot()
            .nest("arena", self.inner.arena.metrics())
    }
}

/// Guard for one timed kernel launch; see [`Device::launch`].
pub(crate) struct LaunchTimer<'a> {
    device: &'a Device,
    prev: Option<ActiveLaunch>,
    start: Instant,
}

impl Drop for LaunchTimer<'_> {
    fn drop(&mut self) {
        let wall = self.start.elapsed();
        let launch = ACTIVE.with(|cell| cell.replace(self.prev));
        // cannot fail: this guard's launch is active until it drops.
        let launch = launch.expect("a launch is active");
        self.device.record_launch(launch, wall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_accounting_tracks_peak_and_live() {
        let dev = Device::sequential();
        dev.try_alloc(100).unwrap();
        dev.try_alloc(50).unwrap();
        dev.free(100);
        let metrics = dev.metrics();
        assert_eq!(metrics.get("allocations"), Some(2));
        assert_eq!(metrics.get("allocated_bytes"), Some(150));
        assert_eq!(metrics.get("peak_bytes"), Some(150));
        assert_eq!(metrics.get("live_bytes"), Some(50));
    }

    #[test]
    fn memory_budget_produces_oom() {
        let dev = Device::new(DeviceConfig {
            memory_limit: Some(128),
            ..DeviceConfig::default()
        });
        dev.try_alloc(100).unwrap();
        let err = dev.try_alloc(100).unwrap_err();
        match err {
            DeviceError::OutOfMemory {
                requested,
                live,
                limit,
            } => {
                assert_eq!(requested, 100);
                assert_eq!(live, 100);
                assert_eq!(limit, 128);
            }
        }
        // The failed allocation must not leak accounting.
        assert_eq!(dev.metrics().get("live_bytes"), Some(100));
    }

    #[test]
    fn transfers_are_recorded_per_direction() {
        let dev = Device::sequential();
        dev.record_transfer(TransferDirection::HostToDevice, 64);
        dev.record_transfer(TransferDirection::DeviceToHost, 16);
        let metrics = dev.metrics();
        assert_eq!(metrics.get("transfers"), Some(2));
        assert_eq!(metrics.get("bytes_to_device"), Some(64));
        assert_eq!(metrics.get("bytes_to_host"), Some(16));
    }

    #[test]
    fn clones_share_statistics() {
        let dev = Device::sequential();
        let clone = dev.clone();
        clone.record_kernel();
        assert_eq!(dev.metrics().get("kernel_launches"), Some(1));
    }

    #[test]
    fn each_thread_counts_its_own_launches() {
        let dev = Device::sequential();
        let before = thread_kernel_launches();
        dev.record_kernel();
        let other = dev.clone();
        std::thread::spawn(move || {
            other.record_kernel();
            other.record_kernel();
            assert_eq!(thread_kernel_launches(), 2);
        })
        .join()
        .unwrap();
        assert_eq!(thread_kernel_launches() - before, 1);
        assert_eq!(dev.metrics().get("kernel_launches"), Some(3));
    }

    #[test]
    fn launch_records_wall_and_busy_separately() {
        // An inline launch is busy for exactly its wall time.
        let dev = Device::sequential();
        {
            let _t = dev.launch(KernelKind::Sort);
            std::thread::sleep(Duration::from_millis(1));
        }
        let metrics = dev.metrics();
        assert_eq!(metrics.get("kernel_launches"), Some(1));
        assert!(metrics.get("kernel_wall.sort_ns") >= Some(1_000_000));
        for bucket in ["sort_ns", "join_ns", "unique_ns", "other_ns"] {
            let busy = metrics.get(&format!("kernel_time.{bucket}"));
            assert_eq!(busy, metrics.get(&format!("kernel_wall.{bucket}")));
        }

        // Chunks on the pool replace the wall time the launcher waited for
        // them with their own summed busy time: here 3 ms of chunk work
        // overlapped into a 1 ms wait, and the wait (1 ms of the wall time)
        // counts as the 3 ms.
        let dev = Device::sequential();
        {
            let _t = dev.launch(KernelKind::Join);
            dev.record_pooled(Duration::from_millis(3), Duration::from_millis(1));
        }
        let metrics = dev.metrics();
        let busy = metrics.get("kernel_time.join_ns").unwrap();
        let wall = metrics.get("kernel_wall.join_ns").unwrap();
        assert_eq!(busy, wall + 2_000_000);
        assert_eq!(metrics.get("kernel_wall.sort_ns"), Some(0));

        // Pooled work outside any launch is busy time with no launch.
        let dev = Device::sequential();
        dev.record_pooled(Duration::from_nanos(700), Duration::from_nanos(300));
        let metrics = dev.metrics();
        assert_eq!(metrics.get("kernel_launches"), Some(0));
        assert_eq!(metrics.get("kernel_time.other_ns"), Some(700));
        for bucket in ["sort_ns", "join_ns", "unique_ns", "other_ns"] {
            assert_eq!(metrics.get(&format!("kernel_wall.{bucket}")), Some(0));
        }
    }

    #[test]
    fn busy_attribution_follows_the_innermost_launch() {
        let dev = Device::sequential();
        {
            let _outer = dev.launch(KernelKind::Join);
            {
                let _inner = dev.launch(KernelKind::Sort);
                dev.record_pooled(Duration::from_nanos(150), Duration::from_nanos(50));
            }
            // Back under the outer guard after the inner one dropped.
            dev.record_pooled(Duration::from_nanos(90), Duration::from_nanos(50));
        }
        let metrics = dev.metrics();
        let excess = |bucket: &str| {
            let busy = metrics.get(&format!("kernel_time.{bucket}")).unwrap();
            busy - metrics.get(&format!("kernel_wall.{bucket}")).unwrap()
        };
        assert_eq!(excess("sort_ns"), 100);
        assert_eq!(excess("join_ns"), 40);
        assert_eq!(metrics.get("kernel_launches"), Some(2));
    }

    #[test]
    fn pool_sizing_tracks_parallelism() {
        let dev = Device::new(DeviceConfig {
            parallelism: 5,
            ..DeviceConfig::default()
        });
        assert_eq!(dev.pool_workers(), 4);
        assert_eq!(Device::sequential().pool_workers(), 0);
        // Clones share one pool rather than spawning their own.
        let clone = dev.clone();
        assert_eq!(clone.pool_workers(), 4);
    }
}
