//! Arena allocation and buffer reuse for device registers and kernel
//! temporaries.
//!
//! Section 4.1 of the paper observes that every allocation in an APM program
//! is identified by an `alloc` instruction and that all register data is
//! discarded after each fix-point iteration. This enables two optimizations:
//!
//! * **Arena allocation** — allocation is a bump of a per-iteration arena and
//!   deallocation is a no-op performed once per iteration.
//! * **Buffer reuse** — buffers allocated for a given allocation site are
//!   recycled across iterations, because a register's size is strongly
//!   correlated with its size on the previous iteration.
//!
//! The [`Arena`] implements both, and since this revision it is the single
//! allocation route for *every* kernel output and scratch column: kernels in
//! [`crate::kernels`] allocate through the arena attached to their
//! [`Device`](crate::Device), and the executor recycles dead register columns
//! back into it at the end of each fix-point iteration. With reuse enabled a
//! steady-state iteration therefore performs **zero fresh column
//! allocations** — every column it needs pops out of the pool the previous
//! iteration refilled. Disabling reuse (`Arena::new(false)`, driven by the
//! runtime's `buffer_reuse` option) makes every allocation fresh again, which
//! models the unoptimized configuration of the paper's Figure 10 ablation.
//!
//! Two pools back the allocator:
//!
//! * **site pools** — keyed by the id of the allocation site (one id per
//!   kernel-internal scratch buffer, see `kernels::sites`). A kernel that
//!   recycles its scratch under its own site gets that exact buffer back on
//!   the next launch, the strongest form of the paper's size-correlation
//!   argument.
//! * **the shared pool** — a LIFO of buffers whose site is unknown, fed by
//!   the executor when it sweeps dead registers. Any allocation whose site
//!   pool is empty falls back to it; a popped buffer is resized to the
//!   requested length (its capacity only ever grows).
//!
//! **The pools hold loans, not donations.** Columns built elsewhere
//! (host-staged facts, `Vec::clone`d tables) reach `recycle_shared` through
//! the same table-recycling code as arena columns do; were each of them
//! admitted, the pool would be a one-way sink and a long-lived session's
//! resident set would grow with every refresh. So the arena counts the
//! buffers it has handed out and not yet seen again, and admits a recycle
//! against that count. With nothing on loan a recycled buffer may only
//! *displace* a smaller one in the shared pool: the pools never hold more
//! buffers than the arena itself created, and a long-lived table coming home
//! after a foreign buffer took its place still keeps its capacity pooled.
//!
//! The arena is internally synchronized (`&self` everywhere) so a device
//! shared by concurrent kernel launches needs no external locking.

use crate::metrics::{Kind, Metrics, Snapshot};
use crate::Column;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The arena's registry entries; the constants below index them.
const ENTRIES: &[(&str, Kind)] = &[
    // Columns created fresh because no pooled buffer was available (or
    // reuse is disabled). A steady-state fix-point iteration with reuse
    // enabled performs zero of these.
    ("fresh_columns", Kind::Counter),
    // Columns served from a pool.
    ("reused_columns", Kind::Counter),
    // Columns returned to a pool.
    ("recycled_columns", Kind::Counter),
    // Buffers waiting in the pools, and their total capacity in bytes: read
    // from the pools, under their lock, when a snapshot is taken.
    ("pooled_buffers", Kind::Gauge),
    ("pooled_bytes", Kind::Gauge),
];
const FRESH_COLUMNS: usize = 0;
const REUSED_COLUMNS: usize = 1;
const RECYCLED_COLUMNS: usize = 2;
const POOLED_BUFFERS: usize = 3;
const POOLED_BYTES: usize = 4;

/// Default ceiling on pooled capacity per arena (bytes). Generous enough
/// that a steady-state fix-point never hits it, small enough that one
/// pathological batch does not pin the process at its high-water mark
/// forever.
const DEFAULT_POOL_BUDGET: usize = 256 << 20;

#[derive(Debug, Default)]
struct ArenaInner {
    /// Free buffers keyed by allocation site (kernel scratch).
    site: HashMap<usize, Vec<Column>>,
    /// Free buffers whose allocation site is unknown (register sweep), LIFO.
    shared: Vec<Column>,
    /// Total capacity (bytes) held across both pools, tracked incrementally.
    pooled_bytes: usize,
    /// Pooled-capacity ceiling; recycles beyond it drop the buffer instead.
    pool_budget: usize,
    /// Buffers handed out and not yet recycled. A recycle is admitted against
    /// this count or displaces a pooled buffer, so
    /// `pooled buffers <= fresh_columns` always.
    lent: usize,
}

impl ArenaInner {
    /// Pops the best available buffer for a request of `len` words: the
    /// site's own pool first (site sizes are strongly correlated across
    /// iterations), then the shared pool — preferring the most recently
    /// recycled buffer that can already hold `len`, falling back to the
    /// largest available so an undersized hit costs one grow instead of
    /// leaving a right-sized buffer stranded.
    fn pop(&mut self, site: usize, len: usize) -> Option<Column> {
        let buf = match self.site.get_mut(&site).and_then(Vec::pop) {
            Some(buf) => buf,
            None => {
                if self.shared.is_empty() {
                    return None;
                }
                let fitting = self.shared.iter().rposition(|b| b.capacity() >= len);
                let index = fitting.unwrap_or_else(|| {
                    self.shared
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, b)| b.capacity())
                        .map(|(i, _)| i)
                        .expect("non-empty shared pool")
                });
                self.shared.swap_remove(index)
            }
        };
        self.pooled_bytes -= buf.capacity() * std::mem::size_of::<u64>();
        Some(buf)
    }

    /// Accounts a buffer entering a pool; `false` means the buffer should be
    /// dropped instead: nothing is out on loan and no smaller pooled buffer
    /// can make way for it, or the budget is full.
    fn admit(&mut self, buffer: &Column) -> bool {
        if self.lent > 0 {
            self.lent -= 1;
        } else if !self.displace_smaller(buffer.capacity()) {
            return false;
        }
        let bytes = buffer.capacity() * std::mem::size_of::<u64>();
        if self.pooled_bytes + bytes > self.pool_budget {
            return false;
        }
        self.pooled_bytes += bytes;
        true
    }

    /// Drops the smallest buffer of the shared pool if `capacity` exceeds
    /// its own, making room for the larger one without growing the pool.
    fn displace_smaller(&mut self, capacity: usize) -> bool {
        let smallest = self
            .shared
            .iter()
            .enumerate()
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, b)| (i, b.capacity()));
        match smallest {
            Some((index, held)) if held < capacity => {
                self.shared.swap_remove(index);
                self.pooled_bytes -= held * std::mem::size_of::<u64>();
                true
            }
            _ => false,
        }
    }

    fn drop_pools(&mut self) {
        self.site.clear();
        self.shared.clear();
        self.pooled_bytes = 0;
    }
}

/// A pool of reusable device columns keyed by allocation site, with a shared
/// fallback pool for buffers recycled site-unknown. See the module docs for
/// the full story.
#[derive(Debug)]
pub struct Arena {
    /// Whether buffers are recycled; mirrors the runtime's `buffer_reuse`
    /// ablation toggle.
    reuse: AtomicBool,
    inner: Mutex<ArenaInner>,
    metrics: Metrics,
}

impl Default for Arena {
    fn default() -> Self {
        Arena::new(true)
    }
}

impl Arena {
    /// Creates an arena. When `reuse` is false every allocation is fresh,
    /// which models the unoptimized configuration of the paper's Figure 10
    /// ablation.
    pub fn new(reuse: bool) -> Self {
        Arena {
            reuse: AtomicBool::new(reuse),
            inner: Mutex::new(ArenaInner {
                pool_budget: DEFAULT_POOL_BUDGET,
                ..ArenaInner::default()
            }),
            metrics: Metrics::new(ENTRIES),
        }
    }

    /// Whether buffer reuse is enabled.
    pub fn reuse_enabled(&self) -> bool {
        self.reuse.load(Ordering::Relaxed)
    }

    /// Enables or disables reuse (the executor sets this from its
    /// `buffer_reuse` runtime option). *Disabling* also drops the pools, so
    /// an ablation run does not silently benefit from earlier pooled
    /// buffers; setting the already-current value is a no-op, so executors
    /// that share a device (and therefore this arena) with the same option
    /// do not disturb each other. Executors with *conflicting* options on
    /// one device follow whichever was constructed last.
    pub fn set_reuse(&self, reuse: bool) {
        if self.reuse.swap(reuse, Ordering::Relaxed) && !reuse {
            self.lock().drop_pools();
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ArenaInner> {
        self.inner.lock().expect("arena poisoned")
    }

    /// Allocates (or recycles) a column of exactly `len` zeroed words for
    /// allocation site `site`.
    pub fn alloc_zeroed(&self, site: usize, len: usize) -> Column {
        if self.reuse_enabled() {
            let mut inner = self.lock();
            inner.lent += 1;
            if let Some(mut buf) = inner.pop(site, len) {
                drop(inner);
                self.metrics.add(REUSED_COLUMNS, 1);
                buf.clear();
                buf.resize(len, 0);
                return buf;
            }
        }
        self.metrics.add(FRESH_COLUMNS, 1);
        vec![0u64; len]
    }

    /// Allocates (or recycles) an *empty* column with room for at least
    /// `capacity` words, for push-style producers.
    pub fn alloc_empty(&self, site: usize, capacity: usize) -> Column {
        if self.reuse_enabled() {
            let mut inner = self.lock();
            inner.lent += 1;
            if let Some(mut buf) = inner.pop(site, capacity) {
                drop(inner);
                self.metrics.add(REUSED_COLUMNS, 1);
                buf.clear();
                buf.reserve(capacity);
                return buf;
            }
        }
        self.metrics.add(FRESH_COLUMNS, 1);
        Vec::with_capacity(capacity)
    }

    /// Allocates (or recycles) a column holding a copy of `src` — the
    /// allocation-free replacement for `src.to_vec()` on hot paths.
    pub fn alloc_copy(&self, site: usize, src: &[u64]) -> Column {
        let mut buf = self.alloc_empty(site, src.len());
        buf.extend_from_slice(src);
        buf
    }

    /// Returns a buffer to the pool of allocation site `site` (no-op when
    /// reuse is disabled).
    pub fn recycle(&self, site: usize, buffer: Column) {
        if !self.reuse_enabled() {
            return;
        }
        let mut inner = self.lock();
        if inner.admit(&buffer) {
            inner.site.entry(site).or_default().push(buffer);
            self.metrics.add(RECYCLED_COLUMNS, 1);
        }
    }

    /// Returns a buffer whose allocation site is unknown to the shared pool —
    /// the route the executor uses when it sweeps dead registers at the end
    /// of a fix-point iteration.
    pub fn recycle_shared(&self, buffer: Column) {
        if !self.reuse_enabled() {
            return;
        }
        let mut inner = self.lock();
        if inner.admit(&buffer) {
            inner.shared.push(buffer);
            self.metrics.add(RECYCLED_COLUMNS, 1);
        }
    }

    /// Drops every pooled buffer (counters are kept).
    pub fn clear(&self) {
        self.lock().drop_pools();
    }

    /// The allocator's metrics: columns made fresh, reused and recycled,
    /// and what the pools hold now.
    pub fn metrics(&self) -> Snapshot {
        let inner = self.lock();
        let pooled_buffers = inner.site.values().map(Vec::len).sum::<usize>() + inner.shared.len();
        self.metrics.set(POOLED_BUFFERS, pooled_buffers as u64);
        self.metrics.set(POOLED_BYTES, inner.pooled_bytes as u64);
        drop(inner);
        self.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pooled(arena: &Arena) -> u64 {
        arena.metrics().get("pooled_buffers").unwrap()
    }

    #[test]
    fn recycled_buffers_are_reused_per_site() {
        let arena = Arena::new(true);
        let a = arena.alloc_zeroed(7, 10);
        arena.recycle(7, a);
        assert_eq!(pooled(&arena), 1);
        let b = arena.alloc_zeroed(7, 20);
        assert_eq!(b.len(), 20);
        assert!(b.iter().all(|&w| w == 0));
        assert_eq!(pooled(&arena), 0);
        let metrics = arena.metrics();
        assert_eq!(metrics.get("fresh_columns"), Some(1));
        assert_eq!(metrics.get("reused_columns"), Some(1));
        assert_eq!(metrics.get("recycled_columns"), Some(1));
    }

    #[test]
    fn shared_pool_backs_any_site() {
        let arena = Arena::new(true);
        let a = arena.alloc_zeroed(1, 100);
        arena.recycle_shared(a);
        // A different site with an empty site pool falls back to the shared
        // pool instead of allocating fresh.
        let b = arena.alloc_zeroed(2, 50);
        assert_eq!(b.len(), 50);
        assert!(b.capacity() >= 100, "shared buffer keeps its capacity");
        assert_eq!(arena.metrics().get("fresh_columns"), Some(1));
    }

    #[test]
    fn shared_pool_pop_is_size_aware() {
        let arena = Arena::new(true);
        let big = arena.alloc_zeroed(0, 1000);
        let small = arena.alloc_zeroed(0, 4);
        arena.recycle_shared(big);
        arena.recycle_shared(small); // most recent — LIFO top
                                     // A large request must skip the undersized top and take the buffer
                                     // that already fits, so no hidden grow-reallocation happens.
        let buf = arena.alloc_zeroed(9, 900);
        assert!(buf.capacity() >= 1000, "picked the fitting buffer");
        assert_eq!(pooled(&arena), 1, "small buffer stays pooled");
        // With nothing fitting, the largest available is grown (one realloc
        // instead of stranding a right-sized buffer for later).
        let buf2 = arena.alloc_zeroed(9, 64);
        assert!(buf2.capacity() >= 4);
        assert_eq!(pooled(&arena), 0);
    }

    #[test]
    fn buffers_made_elsewhere_do_not_grow_the_pool() {
        let arena = Arena::new(true);
        // Nothing is on loan: a foreign buffer has no place to take.
        arena.recycle_shared(vec![0u64; 8]);
        assert_eq!(pooled(&arena), 0);
        // One loan that never comes home makes room for exactly one.
        drop(arena.alloc_zeroed(0, 8));
        arena.recycle_shared(vec![0u64; 8]);
        arena.recycle_shared(vec![0u64; 8]);
        assert_eq!(pooled(&arena), 1);
        // A larger one displaces the pooled one; a smaller one is dropped.
        arena.recycle_shared(vec![0u64; 64]);
        arena.recycle_shared(vec![0u64; 16]);
        let metrics = arena.metrics();
        assert_eq!(metrics.get("pooled_buffers"), Some(1));
        assert!(metrics.get("pooled_bytes") >= Some(64 * 8));
        assert!(metrics.get("pooled_buffers") <= metrics.get("fresh_columns"));
    }

    #[test]
    fn pool_budget_bounds_retained_bytes() {
        let arena = Arena::new(true);
        // 256 MiB in production; shrunk here so the cap is reachable.
        arena.lock().pool_budget = 64;
        arena.recycle_shared(arena.alloc_zeroed(0, 100)); // 800 bytes > budget
        assert_eq!(pooled(&arena), 0, "over-budget recycle dropped");
        arena.recycle_shared(arena.alloc_zeroed(0, 4)); // 32 bytes fits
        assert_eq!(pooled(&arena), 1);
        assert!(arena.metrics().get("pooled_bytes") <= Some(64));
    }

    #[test]
    fn set_reuse_is_idempotent_and_drops_pools_on_disable() {
        let arena = Arena::new(true);
        arena.recycle_shared(arena.alloc_zeroed(0, 10));
        // Re-asserting the current value must not disturb the pools.
        arena.set_reuse(true);
        assert_eq!(pooled(&arena), 1);
        arena.set_reuse(false);
        assert_eq!(pooled(&arena), 0);
    }

    #[test]
    fn alloc_copy_duplicates_content() {
        let arena = Arena::new(true);
        let src = [1u64, 2, 3];
        let copy = arena.alloc_copy(0, &src);
        assert_eq!(copy, vec![1, 2, 3]);
        arena.recycle_shared(copy);
        let again = arena.alloc_copy(0, &[9, 8]);
        assert_eq!(again, vec![9, 8]);
        assert_eq!(arena.metrics().get("fresh_columns"), Some(1));
    }

    #[test]
    fn reuse_disabled_never_pools() {
        let arena = Arena::new(false);
        let a = arena.alloc_zeroed(0, 10);
        arena.recycle(0, a);
        arena.recycle_shared(arena.alloc_empty(0, 4));
        assert_eq!(pooled(&arena), 0);
        assert!(!arena.reuse_enabled());
        assert_eq!(arena.metrics().get("fresh_columns"), Some(2));
        assert_eq!(arena.metrics().get("reused_columns"), Some(0));
    }

    #[test]
    fn disabling_reuse_drops_pools() {
        let arena = Arena::new(true);
        arena.recycle_shared(arena.alloc_zeroed(0, 10));
        assert_eq!(pooled(&arena), 1);
        arena.set_reuse(false);
        assert_eq!(pooled(&arena), 0);
        arena.set_reuse(true);
        assert_eq!(arena.alloc_zeroed(0, 5).len(), 5);
    }

    #[test]
    fn stats_report_pooled_bytes() {
        let arena = Arena::new(true);
        arena.recycle_shared(arena.alloc_zeroed(0, 16));
        assert!(arena.metrics().get("pooled_bytes") >= Some(16 * 8));
    }
}
