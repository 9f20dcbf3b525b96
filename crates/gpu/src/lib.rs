//! A simulated GPU device and the data-parallel kernel library used by the
//! Lobster APM runtime.
//!
//! The paper implements Lobster's runtime with CUDA kernels. This crate
//! substitutes a *simulated device*: vector registers are large contiguous
//! buffers of 64-bit words, kernels are bulk data-parallel operations
//! executed on the device's **persistent worker pool** (long-lived threads
//! spawned at [`Device`] construction and joined when its last clone drops —
//! see [`pool`]; no kernel ever spawns threads per launch), and the device
//! counts what a real GPU runtime would care about — kernel launches,
//! allocated bytes, peak memory, and host↔device transfer volume ([`metrics`]).
//! A configurable memory budget reproduces the out-of-memory behaviour
//! reported in the paper's Table 3.
//!
//! The kernel library mirrors the APM instruction set of Table 1:
//!
//! * [`kernels::eval`] — per-row projection/selection (row-level parallelism),
//! * [`kernels::gather_tags`] — an index gather of tags,
//! * [`kernels::scan`] — exclusive prefix sum,
//! * [`kernels::sort_unique`] — `sort`, `unique⟨⊕⟩` and `diff` of rows of
//!   any width in one launch: unsorted candidate rows to the new frontier,
//!   deduplicating dense sorted-prefix segments by direct addressing and
//!   dropping known facts in the same walk — the whole semi-naive update;
//!   a [`KnownSketch`] of the known facts lets it emit a row it rules out
//!   without searching for it,
//! * [`kernels::merge`], [`kernels::difference`] — sorted-table maintenance,
//! * [`kernels::sort_permutation`] and [`kernels::unique`] — the separate
//!   `sort` and `unique⟨⊕⟩` steps, which the engine no longer calls: a
//!   sequential comparison sort and a sequential fold, kept as the reference
//!   the tests hold [`kernels::sort_unique`] to, and as measured layers,
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
//! [`Device::metrics`] attributes busy time (`kernel_time`: a launch's wall
//! time, with its pooled chunks at their summed execution time) and
//! enqueue-to-completion time (`kernel_wall`) to sort/join/other buckets.
//! See `docs/PERFORMANCE.md` for how to tune the pool and read the artifacts.
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
pub mod metrics;
mod parallel;
pub mod pool;
mod sketch;

pub use arena::Arena;
pub use device::{
    thread_kernel_launches, Device, DeviceConfig, DeviceError, KernelKind, TransferDirection,
};
pub use hash::HashIndex;
pub use metrics::{Metrics, Snapshot};
pub use sketch::KnownSketch;

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
