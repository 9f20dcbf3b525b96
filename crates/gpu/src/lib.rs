//! A simulated GPU device and the data-parallel kernel library used by the
//! Lobster APM runtime.
//!
//! The paper implements Lobster's runtime with CUDA kernels. This crate
//! substitutes a *simulated device*: vector registers are large contiguous
//! buffers of 64-bit words, kernels are bulk data-parallel operations
//! executed on the device's **persistent worker pool** (long-lived threads
//! spawned at [`Device`] construction and joined when its last clone drops —
//! see [`pool`]; no kernel ever spawns threads per launch), and the device
//! tracks the statistics a real GPU runtime would care about — kernel
//! launches, allocated bytes, peak memory, and host↔device transfer volume.
//! A configurable memory budget reproduces the out-of-memory behaviour
//! reported in the paper's Table 3.
//!
//! The kernel library mirrors the APM instruction set of Table 1:
//!
//! * [`kernels::eval`] — per-row projection/selection (row-level parallelism),
//! * [`kernels::gather`] / [`kernels::gather_tags`] — index gathers,
//! * [`kernels::scan`] — exclusive prefix sum,
//! * [`kernels::sort_permutation`] (parallel LSD radix sort with a parallel
//!   merge-sort fallback for wide rows), [`kernels::unique`],
//!   [`kernels::merge`], [`kernels::difference`] — sorted-table maintenance
//!   for semi-naive evaluation,
//! * [`HashIndex`] with [`kernels::count_matches`] and
//!   [`kernels::join_write`] — the open-addressing, linear-probing hash join
//!   of Section 5.1: one slot per distinct key over row ids grouped by key,
//!   partitioned over hash buckets so the index build parallelizes; every
//!   probe row is hashed and probed once and finds its matches as one
//!   contiguous range. The write pass emits output columns and ⊗-ed tags
//!   directly; after [`kernels::merge_count`] the same loop runs over a
//!   sorted build side with no index at all, and [`kernels::hash_join`] /
//!   [`kernels::merge_join`] are its pair-writing instantiation.
//!
//! All kernels produce bit-identical output whatever the configured
//! parallelism — see the [`kernels`] module docs for the determinism
//! contract (stable total orders for sorting, fixed left-to-right tag fold
//! order, data-determined partition points, parallelism-independent hash
//! partitioning). Kernel outputs and scratch are allocated through the
//! per-device [`Arena`] pool, so once a fix-point reaches its steady state
//! an iteration performs zero fresh column allocations (Section 4.1);
//! [`DeviceStats::kernel_time`] attributes chunk-execution (busy) time and
//! [`DeviceStats::kernel_wall`] enqueue-to-completion time to
//! sort/join/unique buckets. See `docs/PERFORMANCE.md` in the repository
//! for how to tune the pool and read the benchmark artifacts.
//!
//! The crate is `unsafe`-free except for the single lifetime-erasure the
//! worker pool needs to run borrowed chunk closures on persistent threads;
//! it is confined to [`pool`] and documented there.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod device;
mod hash;
pub mod kernels;
mod parallel;
pub mod pool;

pub use arena::{Arena, ArenaStats};
pub use device::{
    Device, DeviceConfig, DeviceError, DeviceStats, KernelKind, KernelTime, TransferDirection,
};
pub use hash::HashIndex;
pub use parallel::par_map_into;

/// A column of a device-resident table: a flat vector of 64-bit words.
///
/// Logical types (unsigned, signed, float, symbol) are tracked by the layers
/// above; the device only sees raw words, which keeps every kernel a simple
/// bulk memory operation — exactly the property APM is designed to guarantee.
pub type Column = Vec<u64>;

/// A set of equally sized columns forming a table (without its tag column).
pub type Columns = Vec<Column>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_is_plain_vector() {
        let c: Column = vec![1, 2, 3];
        assert_eq!(c.len(), 3);
    }
}
