//! The simulated device: configuration, memory accounting, statistics, and
//! the persistent kernel worker pool.
//!
//! Constructing a [`Device`] spawns its worker pool (`parallelism - 1`
//! long-lived `lobster-kernel-N` threads; see [`crate::pool`]); dropping the
//! last clone of the device joins them. Kernel execution never spawns
//! threads per launch. See `docs/PERFORMANCE.md` for how the pool knobs
//! interact with the serving layer's threads.

use crate::arena::Arena;
use crate::pool::{LiveWorkers, WorkerPool};
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
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
/// per-kernel time breakdowns in [`DeviceStats::kernel_time`] (busy) and
/// [`DeviceStats::kernel_wall`] (enqueue-to-completion). Sort, join, and
/// unique are the paper's Table 1 hot set, so they get their own buckets —
/// the one-launch frontier update, which sorts, deduplicates and filters, is
/// sort; everything else (scan, merge, difference, eval,
/// gathers, loads) is `Other`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Row sorting (`sort_permutation`, and `sort_unique`, which builds every
    /// fix-point frontier).
    Sort,
    /// Hash-join family (`HashIndex::build`, `count_matches`, `hash_join`).
    Join,
    /// Sorted-run deduplication by the standalone `unique` kernel, which the
    /// engine does not call: a frontier's deduplication is `Sort` time.
    Unique,
    /// Every other kernel.
    Other,
}

/// Time spent inside kernels, broken down by [`KernelKind`]. Times are
/// summed across concurrent launches (and, for busy time, across the worker
/// threads of one launch), so on a parallel device the total can exceed
/// wall-clock time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelTime {
    /// Nanoseconds spent in sort kernels.
    pub sort_ns: u64,
    /// Nanoseconds spent in join kernels (index build + probe).
    pub join_ns: u64,
    /// Nanoseconds spent in unique kernels.
    pub unique_ns: u64,
    /// Nanoseconds spent in every other kernel.
    pub other_ns: u64,
}

impl KernelTime {
    fn bucket_mut(&mut self, kind: KernelKind) -> &mut u64 {
        match kind {
            KernelKind::Sort => &mut self.sort_ns,
            KernelKind::Join => &mut self.join_ns,
            KernelKind::Unique => &mut self.unique_ns,
            KernelKind::Other => &mut self.other_ns,
        }
    }

    /// Nanoseconds across all buckets.
    pub fn total_ns(&self) -> u64 {
        self.sort_ns + self.join_ns + self.unique_ns + self.other_ns
    }

    /// The bucket-wise difference from an earlier snapshot.
    pub fn delta_since(&self, earlier: &KernelTime) -> KernelTime {
        KernelTime {
            sort_ns: self.sort_ns.saturating_sub(earlier.sort_ns),
            join_ns: self.join_ns.saturating_sub(earlier.join_ns),
            unique_ns: self.unique_ns.saturating_sub(earlier.unique_ns),
            other_ns: self.other_ns.saturating_sub(earlier.other_ns),
        }
    }
}

/// Counters describing the work a device has performed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Number of kernel launches.
    pub kernel_launches: usize,
    /// **Busy** time inside kernels, attributed per [`KernelKind`] bucket:
    /// the work view. What a launch runs on its own thread counts at its
    /// wall time; what it hands to the device's worker pool counts as the
    /// chunks' summed execution time across every thread that ran one, in
    /// place of the wall time the launcher spent waiting for them — so pool
    /// idle and queue wait are *not* counted, and overlapping chunks count
    /// once each. A launch that never reaches the pool (every launch on a
    /// sequential device, and every launch over fewer than
    /// [`DeviceConfig::min_parallel_rows`] rows) reads exactly its
    /// [`DeviceStats::kernel_wall`]. Pool work a kernel starts outside any
    /// launch lands in [`KernelKind::Other`].
    pub kernel_time: KernelTime,
    /// **Enqueue-to-completion** wall time per launch, attributed per
    /// [`KernelKind`] bucket — what a caller of the kernel observed,
    /// including any pool queue wait. `kernel_wall` is the latency view;
    /// [`DeviceStats::kernel_time`] is the work view. On a sequential device
    /// the two are equal bucket by bucket; on a parallel device busy time
    /// exceeds wall time whenever chunks overlap. A launch nested in another
    /// counts in both.
    pub kernel_wall: KernelTime,
    /// Number of device allocations.
    pub allocations: usize,
    /// Total bytes ever allocated on the device.
    pub allocated_bytes: usize,
    /// Bytes currently allocated.
    pub live_bytes: usize,
    /// High-water mark of live bytes.
    pub peak_bytes: usize,
    /// Bytes copied host → device.
    pub bytes_to_device: usize,
    /// Bytes copied device → host.
    pub bytes_to_host: usize,
    /// Number of host↔device transfer operations.
    pub transfers: usize,
}

impl DeviceStats {
    /// The change in counters from `earlier` (an older snapshot of the same
    /// device) to `self` — what the device did *between* the two snapshots.
    /// Monotone counters subtract; `live_bytes` and `peak_bytes` are
    /// point-in-time / high-water gauges and keep `self`'s values.
    pub fn delta_since(&self, earlier: &DeviceStats) -> DeviceStats {
        DeviceStats {
            kernel_launches: self.kernel_launches.saturating_sub(earlier.kernel_launches),
            kernel_time: self.kernel_time.delta_since(&earlier.kernel_time),
            kernel_wall: self.kernel_wall.delta_since(&earlier.kernel_wall),
            allocations: self.allocations.saturating_sub(earlier.allocations),
            allocated_bytes: self.allocated_bytes.saturating_sub(earlier.allocated_bytes),
            live_bytes: self.live_bytes,
            peak_bytes: self.peak_bytes,
            bytes_to_device: self.bytes_to_device.saturating_sub(earlier.bytes_to_device),
            bytes_to_host: self.bytes_to_host.saturating_sub(earlier.bytes_to_host),
            transfers: self.transfers.saturating_sub(earlier.transfers),
        }
    }
}

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
    stats: Mutex<DeviceStats>,
    live_bytes: AtomicUsize,
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
}

/// A duration in whole nanoseconds, saturating.
fn nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// A handle to the simulated device.
///
/// The device is cheap to clone (clones share statistics and the memory
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
                stats: Mutex::new(DeviceStats::default()),
                live_bytes: AtomicUsize::new(0),
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
        self.inner
            .stats
            .lock()
            .expect("device stats poisoned")
            .kernel_launches += 1;
    }

    /// Records one finished launch in one stats update: its wall time
    /// ([`DeviceStats::kernel_wall`]), and its busy time
    /// ([`DeviceStats::kernel_time`]) — the wall time corrected by what its
    /// pooled chunks reported.
    fn record_launch(&self, launch: ActiveLaunch, wall: Duration) {
        let wall = nanos(wall);
        let busy = wall.saturating_add_signed(launch.pooled_excess_ns);
        let mut stats = self.inner.stats.lock().expect("device stats poisoned");
        stats.kernel_launches += 1;
        *stats.kernel_wall.bucket_mut(launch.kind) += wall;
        *stats.kernel_time.bucket_mut(launch.kind) += busy;
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
            let mut stats = self.inner.stats.lock().expect("device stats poisoned");
            stats.kernel_time.other_ns += busy;
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
    /// one clock read here, one there, one stats update — and makes it the
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
        let live = self.inner.live_bytes.fetch_add(bytes, Ordering::SeqCst) + bytes;
        if let Some(limit) = self.config.memory_limit {
            if live > limit {
                self.inner.live_bytes.fetch_sub(bytes, Ordering::SeqCst);
                return Err(DeviceError::OutOfMemory {
                    requested: bytes,
                    live: live - bytes,
                    limit,
                });
            }
        }
        let mut stats = self.inner.stats.lock().expect("device stats poisoned");
        stats.allocations += 1;
        stats.allocated_bytes += bytes;
        stats.live_bytes = live;
        stats.peak_bytes = stats.peak_bytes.max(live);
        Ok(())
    }

    /// Releases `bytes` previously accounted with [`Device::try_alloc`].
    pub fn free(&self, bytes: usize) {
        let prev = self.inner.live_bytes.fetch_sub(bytes, Ordering::SeqCst);
        let live = prev.saturating_sub(bytes);
        self.inner
            .stats
            .lock()
            .expect("device stats poisoned")
            .live_bytes = live;
    }

    /// Bytes currently accounted as live on the device.
    pub fn live_bytes(&self) -> usize {
        self.inner.live_bytes.load(Ordering::SeqCst)
    }

    /// Records a host↔device transfer of `bytes`.
    pub fn record_transfer(&self, direction: TransferDirection, bytes: usize) {
        let mut stats = self.inner.stats.lock().expect("device stats poisoned");
        stats.transfers += 1;
        match direction {
            TransferDirection::HostToDevice => stats.bytes_to_device += bytes,
            TransferDirection::DeviceToHost => stats.bytes_to_host += bytes,
        }
    }

    /// A snapshot of the device statistics.
    pub fn stats(&self) -> DeviceStats {
        self.inner
            .stats
            .lock()
            .expect("device stats poisoned")
            .clone()
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
        self.device
            .record_launch(launch.expect("a launch is active"), wall);
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
        let stats = dev.stats();
        assert_eq!(stats.allocations, 2);
        assert_eq!(stats.allocated_bytes, 150);
        assert_eq!(stats.peak_bytes, 150);
        assert_eq!(dev.live_bytes(), 50);
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
        assert_eq!(dev.live_bytes(), 100);
    }

    #[test]
    fn transfers_are_recorded_per_direction() {
        let dev = Device::sequential();
        dev.record_transfer(TransferDirection::HostToDevice, 64);
        dev.record_transfer(TransferDirection::DeviceToHost, 16);
        let stats = dev.stats();
        assert_eq!(stats.transfers, 2);
        assert_eq!(stats.bytes_to_device, 64);
        assert_eq!(stats.bytes_to_host, 16);
    }

    #[test]
    fn clones_share_statistics() {
        let dev = Device::sequential();
        let clone = dev.clone();
        clone.record_kernel();
        assert_eq!(dev.stats().kernel_launches, 1);
    }

    #[test]
    fn stats_delta_since_isolates_one_interval() {
        let dev = Device::sequential();
        dev.record_kernel();
        dev.try_alloc(100).unwrap();
        let snapshot = dev.stats();
        dev.record_kernel();
        dev.record_kernel();
        dev.record_transfer(TransferDirection::DeviceToHost, 16);
        let delta = dev.stats().delta_since(&snapshot);
        assert_eq!(delta.kernel_launches, 2);
        assert_eq!(delta.allocations, 0);
        assert_eq!(delta.transfers, 1);
        assert_eq!(delta.bytes_to_host, 16);
        // Gauges keep the current values rather than subtracting.
        assert_eq!(delta.live_bytes, 100);
        assert_eq!(delta.peak_bytes, 100);
    }

    #[test]
    fn launch_records_wall_and_busy_separately() {
        // An inline launch is busy for exactly its wall time.
        let dev = Device::sequential();
        {
            let _t = dev.launch(KernelKind::Sort);
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = dev.stats();
        assert_eq!(stats.kernel_launches, 1);
        assert!(stats.kernel_wall.sort_ns >= 1_000_000);
        assert_eq!(stats.kernel_time, stats.kernel_wall);

        // Chunks on the pool replace the wall time the launcher waited for
        // them with their own summed busy time: here 3 ms of chunk work
        // overlapped into a 1 ms wait, and the wait (1 ms of the wall time)
        // counts as the 3 ms.
        let dev = Device::sequential();
        {
            let _t = dev.launch(KernelKind::Join);
            dev.record_pooled(Duration::from_millis(3), Duration::from_millis(1));
        }
        let stats = dev.stats();
        let (busy, wall) = (stats.kernel_time.join_ns, stats.kernel_wall.join_ns);
        assert_eq!(busy, wall + 2_000_000);
        assert_eq!(stats.kernel_wall.sort_ns, 0);

        // Pooled work outside any launch is busy time with no launch.
        let dev = Device::sequential();
        dev.record_pooled(Duration::from_nanos(700), Duration::from_nanos(300));
        let stats = dev.stats();
        assert_eq!(stats.kernel_launches, 0);
        assert_eq!(stats.kernel_time.other_ns, 700);
        assert_eq!(stats.kernel_wall.total_ns(), 0);
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
        let stats = dev.stats();
        let excess = |busy: u64, wall: u64| busy - wall;
        assert_eq!(
            excess(stats.kernel_time.sort_ns, stats.kernel_wall.sort_ns),
            100
        );
        assert_eq!(
            excess(stats.kernel_time.join_ns, stats.kernel_wall.join_ns),
            40
        );
        assert_eq!(stats.kernel_launches, 2);
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
