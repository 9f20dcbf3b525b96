//! The partitioned open-addressing hash index used for joins.
//!
//! Section 5.1 of the paper: the join kernel relies on a GPU hash table with
//! open addressing and linear probing, storing *indices back into the source
//! table* rather than fact data, so the join's complexity is decoupled from
//! the width of the input relations. This module reproduces that structure on
//! the simulated device — sharded into hash **partitions** so that the
//! build parallelizes while keeping matches in ascending build-row order:
//!
//! * [`HashIndex::build`] distributes rows over `P` partitions by the *top*
//!   bits of the key hash (the slot within a partition uses the low bits, so
//!   the two never alias), then builds every partition's slot table in
//!   parallel on the device's worker pool. `P` is chosen from the row count
//!   alone — never from the device parallelism — so the index *structure* is
//!   identical whatever device built it.
//! * The probe is the paper's: one hash per probe row, which picks the
//!   partition and the slot, then one linear-probing walk
//!   ([`kernels::count_matches`](crate::kernels::count_matches) /
//!   [`kernels::hash_join`](crate::kernels::hash_join) chunk the probe rows
//!   over the worker pool). There is no second probe algorithm.
//!
//! # Determinism
//!
//! A row's partition and slot depend only on its key hash and the row count,
//! and rows are inserted into each partition in ascending global row order,
//! so every probe still enumerates matches in **ascending build-row order**
//! (the invariant the merge-join path and provenance folding rely on) and
//! the whole index is bit-identical across device parallelism.
//!
//! The partition function uses the top bits of the same multiplicative mix
//! hash the slots use, *not* `lobster_apm::fnv1a` — the apm crate depends on
//! this one, so the gpu layer cannot see it; top-bits-of-mix gives the same
//! uniformity without the dependency cycle.

use crate::device::KernelKind;
use crate::kernels::sites;
use crate::parallel::{chunks_for, map_chunks, par_map_into, run_chunks};
use crate::{Column, Device};
use std::ops::Range;
use std::time::Instant;

/// Multiplicative hashing constant (the 64-bit golden ratio).
const HASH_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// FNV-style offset basis the key mix starts from.
const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Rows a partition targets: enough to amortize per-partition dispatch,
/// small enough that one partition's slot table stays cache-resident.
const PARTITION_TARGET_ROWS: usize = 8192;

/// Hard cap on partitions, bounding per-chunk histogram size.
const MAX_PARTITIONS: usize = 512;

fn mix(h: u64, k: u64) -> u64 {
    (h ^ k.wrapping_mul(HASH_MULT))
        .rotate_left(27)
        .wrapping_mul(HASH_MULT)
}

fn hash_key(key: &[u64]) -> u64 {
    key.iter().fold(HASH_SEED, |h, &k| mix(h, k))
}

/// Hashes row `row` of a set of key columns — identical to [`hash_key`] of
/// the materialized key, without materializing it.
pub(crate) fn hash_cols(cols: &[&[u64]], row: usize) -> u64 {
    cols.iter().fold(HASH_SEED, |h, col| mix(h, col[row]))
}

/// The number of partitions an index over `rows` rows defaults to: a power
/// of two targeting [`PARTITION_TARGET_ROWS`] rows per partition, `1` below
/// twice the target (a tiny table gains nothing from sharding). A function
/// of the row count only, never of device parallelism.
fn default_partitions(rows: usize) -> usize {
    if rows < 2 * PARTITION_TARGET_ROWS {
        1
    } else {
        (rows / PARTITION_TARGET_ROWS)
            .next_power_of_two()
            .min(MAX_PARTITIONS)
    }
}

/// One hash partition: an open-addressing slot table over the rows whose
/// hash tops map here. Slots store `row_index + 1` (0 means empty).
#[derive(Debug, Clone)]
struct Partition {
    slots: Column,
    mask: u64,
}

/// A hash index over the first `w` columns of a build-side table.
///
/// Slots store `row_index + 1` (0 means empty). Duplicate keys occupy
/// separate slots along the probe chain, so a probe enumerates *all* matching
/// build rows — exactly what a relational join needs.
///
/// The index owns a copy of the key columns it was built from, which is what
/// allows it to be stored in a *static register* (Section 4.2) and reused
/// across fix-point iterations even though the transient registers of the
/// previous iteration have been discarded.
///
/// The slot space is split over hash partitions (see the module docs); use
/// [`HashIndex::partitions`] to observe the partition count.
#[derive(Debug, Clone)]
pub struct HashIndex {
    parts: Vec<Partition>,
    /// Partition of hash `h` is `h >> shift`; `shift == 64` means a single
    /// partition (shifts of 64 are not evaluated — see [`HashIndex::part_of`]).
    shift: u32,
    keys: Vec<Column>,
    rows: usize,
}

impl HashIndex {
    /// Builds an index over `key_columns` (all columns must share the same
    /// length). `expansion` is the paper's `O` parameter: each partition's
    /// capacity is the smallest power of two at least `expansion ×` its row
    /// count. The partition count defaults from the row count (see the
    /// module docs); the build parallelizes across partitions on the
    /// device's worker pool.
    pub fn build(device: &Device, key_columns: &[&[u64]], expansion: usize) -> Self {
        let rows = key_columns.first().map(|c| c.len()).unwrap_or(0);
        Self::build_partitioned(device, key_columns, expansion, default_partitions(rows))
    }

    /// [`HashIndex::build`] with an explicit partition count (rounded up to
    /// a power of two and clamped to an internal cap) — the lever tests use
    /// to force a partition count on small inputs, the way they use
    /// `min_parallel_rows`. `partitions: 1` builds the single-table index.
    pub fn build_partitioned(
        device: &Device,
        key_columns: &[&[u64]],
        expansion: usize,
        partitions: usize,
    ) -> Self {
        let _t = device.launch(KernelKind::Join);
        let rows = key_columns.first().map(|c| c.len()).unwrap_or(0);
        debug_assert!(
            key_columns.iter().all(|c| c.len() == rows),
            "ragged key columns"
        );
        let partitions = partitions
            .clamp(1, MAX_PARTITIONS)
            .next_power_of_two()
            .min(MAX_PARTITIONS);
        let arena = device.arena();
        let keys: Vec<Column> = key_columns
            .iter()
            .map(|c| arena.alloc_copy(sites::JOIN_INDEX, c))
            .collect();
        let shift = 64 - partitions.trailing_zeros();
        if partitions == 1 || rows == 0 {
            let start = Instant::now();
            let part = build_one_partition(
                device,
                0..rows,
                |row| hash_cols(key_columns, row),
                expansion,
            );
            device.record_busy(start.elapsed());
            return HashIndex {
                parts: vec![part],
                shift: 64,
                keys,
                rows,
            };
        }
        // Pass 1: hash every row once.
        let mut hashes = arena.alloc_zeroed(sites::JOIN_BUILD, rows);
        par_map_into(device, &mut hashes, |row| hash_cols(key_columns, row));
        // Pass 2: stable scatter of row ids grouped by partition — ascending
        // global row order within each partition, which is what preserves
        // the ascending-match invariant.
        let ranges = chunks_for(device, rows);
        let chunks = ranges.len();
        let histograms: Vec<Vec<usize>> = map_chunks(device, &ranges, |_, range| {
            let mut h = vec![0usize; partitions];
            for &hv in &hashes[range] {
                h[(hv >> shift) as usize] += 1;
            }
            h
        });
        let mut grouped = arena.alloc_zeroed(sites::JOIN_BUILD, rows);
        let mut part_bounds = Vec::with_capacity(partitions);
        {
            // Carve `grouped` into (partition, chunk) buckets in destination
            // order and regroup per chunk, exactly like the radix-sort
            // scatter in `kernels::radix_pass`.
            let mut per_chunk: Vec<Vec<&mut [u64]>> = (0..chunks)
                .map(|_| Vec::with_capacity(partitions))
                .collect();
            let mut rest = grouped.as_mut_slice();
            let mut consumed = 0usize;
            for p in 0..partitions {
                let part_start = consumed;
                for (c, h) in histograms.iter().enumerate() {
                    let (head, tail) = rest.split_at_mut(h[p]);
                    per_chunk[c].push(head);
                    rest = tail;
                    consumed += h[p];
                }
                part_bounds.push(part_start..consumed);
            }
            debug_assert!(rest.is_empty());
            run_chunks(
                device,
                &ranges,
                per_chunk,
                |_, range, mut slices: Vec<&mut [u64]>| {
                    let mut cursors = vec![0usize; partitions];
                    for i in range {
                        let p = (hashes[i] >> shift) as usize;
                        slices[p][cursors[p]] = i as u64;
                        cursors[p] += 1;
                    }
                },
            );
        }
        // Pass 3: build every partition's slot table in parallel — one pool
        // task per partition, so partitions of uneven size self-balance.
        let part_ranges: Vec<Range<usize>> = (0..partitions).map(|p| p..p + 1).collect();
        let parts: Vec<Partition> = map_chunks(device, &part_ranges, |p, _| {
            build_one_partition(
                device,
                grouped[part_bounds[p].clone()]
                    .iter()
                    .map(|&row| row as usize),
                |row| hashes[row],
                expansion,
            )
        });
        arena.recycle(sites::JOIN_BUILD, hashes);
        arena.recycle(sites::JOIN_BUILD, grouped);
        HashIndex {
            parts,
            shift,
            keys,
            rows,
        }
    }

    /// Number of rows indexed.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` when no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of slots in the table, summed over partitions.
    pub fn capacity(&self) -> usize {
        self.parts.iter().map(|p| p.slots.len()).sum()
    }

    /// Number of hash partitions the slot space is split into.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Width of the join key in columns.
    pub fn key_width(&self) -> usize {
        self.keys.len()
    }

    /// Approximate number of bytes the index occupies on the device.
    pub fn size_bytes(&self) -> usize {
        (self.capacity() + self.keys.len() * self.rows) * std::mem::size_of::<u64>()
    }

    /// Returns the index's buffers (slot tables and owned key copies) to the
    /// device arena; call when the index is dead so the next build reuses
    /// them.
    pub fn recycle(self, device: &Device) {
        let arena = device.arena();
        for part in self.parts {
            if part.slots.capacity() > 0 {
                arena.recycle(sites::JOIN_INDEX, part.slots);
            }
        }
        for key in self.keys {
            if key.capacity() > 0 {
                arena.recycle(sites::JOIN_INDEX, key);
            }
        }
    }

    /// The partition hash `h` maps to.
    fn part_of(&self, h: u64) -> usize {
        if self.shift >= 64 {
            0
        } else {
            (h >> self.shift) as usize
        }
    }

    fn row_matches(&self, row: usize, key: &[u64]) -> bool {
        self.keys.iter().zip(key).all(|(col, &k)| col[row] == k)
    }

    fn row_matches_cols(&self, row: usize, probe_cols: &[&[u64]], probe_row: usize) -> bool {
        self.keys
            .iter()
            .zip(probe_cols)
            .all(|(col, probe)| col[row] == probe[probe_row])
    }

    /// Walks the probe chain of hash `h` inside `part`, calling `f` on every
    /// stored row that passes `matches`.
    fn probe_chain(
        &self,
        part: usize,
        h: u64,
        matches: impl Fn(usize) -> bool,
        mut f: impl FnMut(usize),
    ) {
        let part = &self.parts[part];
        if part.slots.is_empty() {
            return;
        }
        let mut slot = (h & part.mask) as usize;
        loop {
            let entry = part.slots[slot];
            if entry == 0 {
                return;
            }
            let row = (entry - 1) as usize;
            if matches(row) {
                f(row);
            }
            slot = (slot + 1) & part.mask as usize;
        }
    }

    /// Counts the build rows whose key equals `key`.
    pub fn count(&self, key: &[u64]) -> usize {
        let mut n = 0;
        self.for_each_match(key, |_| n += 1);
        n
    }

    /// Counts the build rows matching row `probe_row` of the probe key
    /// columns — the probe-side hot path; no key buffer is materialized.
    pub fn count_cols(&self, probe_cols: &[&[u64]], probe_row: usize) -> usize {
        let mut n = 0;
        self.for_each_match_cols(probe_cols, probe_row, |_| n += 1);
        n
    }

    /// Invokes `f` with the index of every build row whose key equals `key`,
    /// in **ascending build-row order**.
    ///
    /// This is an invariant, not an accident: [`HashIndex::build`] inserts
    /// each partition's rows in ascending global row order with linear
    /// probing and nothing is ever deleted, so a later duplicate of a key
    /// always lands strictly further along the probe chain than an earlier
    /// one (duplicates share a hash, hence a partition), and the probe walk
    /// visits them oldest-first. The merge-path join
    /// ([`kernels::merge_join`](crate::kernels::merge_join)) emits matches
    /// of a sorted build side in the same ascending order, which is what
    /// makes the two join paths bit-identical downstream — provenance tag
    /// combination during dedup folds duplicates in candidate-row order.
    pub fn for_each_match(&self, key: &[u64], f: impl FnMut(usize)) {
        if self.rows == 0 {
            return;
        }
        let h = hash_key(key);
        self.probe_chain(self.part_of(h), h, |row| self.row_matches(row, key), f);
    }

    /// [`HashIndex::for_each_match`] keyed by row `probe_row` of the probe
    /// columns, hashing and comparing straight from column storage.
    pub fn for_each_match_cols(
        &self,
        probe_cols: &[&[u64]],
        probe_row: usize,
        f: impl FnMut(usize),
    ) {
        if self.rows == 0 {
            return;
        }
        let h = hash_cols(probe_cols, probe_row);
        self.probe_chain(
            self.part_of(h),
            h,
            |row| self.row_matches_cols(row, probe_cols, probe_row),
            f,
        );
    }
}

/// Builds one partition's slot table over the given row ids (`row_hash`
/// recomputes or looks up a row's full hash). Rows must arrive in ascending
/// order — the caller's scatter guarantees it — so probe chains enumerate
/// matches oldest-first.
fn build_one_partition(
    device: &Device,
    row_ids: impl ExactSizeIterator<Item = usize>,
    row_hash: impl Fn(usize) -> u64,
    expansion: usize,
) -> Partition {
    let n = row_ids.len();
    let capacity = (n.max(1) * expansion.max(1)).next_power_of_two().max(8);
    let mask = capacity as u64 - 1;
    let mut slots = device.arena().alloc_zeroed(sites::JOIN_INDEX, capacity);
    for row in row_ids {
        let mut slot = (row_hash(row) & mask) as usize;
        while slots[slot] != 0 {
            slot = (slot + 1) & mask as usize;
        }
        slots[slot] = row as u64 + 1;
    }
    Partition { slots, mask }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_of(cols: &[Vec<u64>]) -> HashIndex {
        let dev = Device::sequential();
        let refs: Vec<&[u64]> = cols.iter().map(|c| c.as_slice()).collect();
        HashIndex::build(&dev, &refs, 2)
    }

    #[test]
    fn single_column_lookup_finds_all_duplicates() {
        let idx = index_of(&[vec![1, 2, 1, 3, 1]]);
        let mut hits = Vec::new();
        idx.for_each_match(&[1], |r| hits.push(r));
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 2, 4]);
        assert_eq!(idx.count(&[2]), 1);
        assert_eq!(idx.count(&[9]), 0);
    }

    #[test]
    fn multi_column_keys_distinguish_rows() {
        let idx = index_of(&[vec![1, 1, 2], vec![10, 20, 10]]);
        assert_eq!(idx.count(&[1, 10]), 1);
        assert_eq!(idx.count(&[1, 20]), 1);
        assert_eq!(idx.count(&[2, 20]), 0);
        assert_eq!(idx.key_width(), 2);
    }

    #[test]
    fn empty_build_side_matches_nothing() {
        let idx = index_of(&[Vec::new()]);
        assert!(idx.is_empty());
        assert_eq!(idx.count(&[42]), 0);
    }

    #[test]
    fn capacity_scales_with_expansion() {
        let dev = Device::sequential();
        let col: Vec<u64> = (0..100).collect();
        let small = HashIndex::build(&dev, &[&col], 1);
        let large = HashIndex::build(&dev, &[&col], 4);
        assert!(large.capacity() >= small.capacity());
        assert!(small.capacity() >= 100);
    }

    #[test]
    fn column_probing_matches_key_probing() {
        let cols = vec![vec![1u64, 2, 1, 3], vec![10u64, 20, 10, 30]];
        let idx = index_of(&cols);
        let probe: Vec<&[u64]> = cols.iter().map(|c| c.as_slice()).collect();
        for row in 0..4 {
            let key: Vec<u64> = cols.iter().map(|c| c[row]).collect();
            assert_eq!(idx.count(&key), idx.count_cols(&probe, row), "row {row}");
            let mut a = Vec::new();
            let mut b = Vec::new();
            idx.for_each_match(&key, |r| a.push(r));
            idx.for_each_match_cols(&probe, row, |r| b.push(r));
            assert_eq!(a, b, "row {row}");
        }
    }

    #[test]
    fn matches_enumerate_in_ascending_build_row_order() {
        // The merge-join path relies on this: both join paths must emit a
        // probe row's matches in the same (ascending) build-row order —
        // whatever the partition count (duplicates of a key share a hash
        // and hence a partition) and however many chunks scattered the rows.
        let mut col: Vec<u64> = (0..257u64).collect();
        col.extend([7u64; 40]); // duplicates scattered after distinct keys
        col.extend((300..400u64).rev().flat_map(|k| [k, 7]));
        let expected: Vec<usize> = (0..col.len()).filter(|&r| col[r] == 7).collect();
        let dev = Device::new(crate::DeviceConfig {
            parallelism: 3,
            min_parallel_rows: 8,
            ..crate::DeviceConfig::default()
        });
        for partitions in [1usize, 8] {
            let idx = HashIndex::build_partitioned(&dev, &[&col], 2, partitions);
            assert_eq!(idx.partitions(), partitions);
            let mut hits = Vec::new();
            idx.for_each_match(&[7], |r| hits.push(r));
            assert_eq!(hits, expected, "partitions={partitions}");
        }
    }

    #[test]
    fn heavy_collision_load_still_finds_everything() {
        // Many distinct keys plus many duplicates of one key.
        let mut col: Vec<u64> = (0..1000u64).collect();
        col.extend(std::iter::repeat_n(7u64, 100));
        let idx = index_of(&[col]);
        assert_eq!(idx.count(&[7]), 101);
        for i in 0..1000u64 {
            if i != 7 {
                assert_eq!(idx.count(&[i]), 1, "key {i}");
            }
        }
    }

    /// A large keyed column with clustered duplicates, for partition tests.
    fn big_keys(rows: usize) -> Vec<u64> {
        (0..rows as u64)
            .map(|i| (i.wrapping_mul(2_654_435_761)) % (rows as u64 / 3 + 1))
            .collect()
    }

    #[test]
    fn default_partition_count_follows_rows_not_parallelism() {
        let small = index_of(&[big_keys(1000)]);
        assert_eq!(small.partitions(), 1);
        let seq = Device::sequential();
        let par = Device::new(crate::DeviceConfig {
            parallelism: 8,
            min_parallel_rows: 8,
            ..crate::DeviceConfig::default()
        });
        let col = big_keys(40_000);
        let a = HashIndex::build(&seq, &[&col], 2);
        let b = HashIndex::build(&par, &[&col], 2);
        assert!(a.partitions() > 1);
        assert_eq!(a.partitions(), b.partitions());
    }

    #[test]
    fn partitioned_index_is_bit_identical_across_devices_and_partitions() {
        let seq = Device::sequential();
        let par = Device::new(crate::DeviceConfig {
            parallelism: 8,
            min_parallel_rows: 8,
            ..crate::DeviceConfig::default()
        });
        let col = big_keys(20_000);
        for partitions in [1usize, 4, 32] {
            for dev in [&seq, &par] {
                let idx = HashIndex::build_partitioned(dev, &[&col], 2, partitions);
                assert_eq!(idx.partitions(), partitions);
                // Every key must enumerate the ascending list of rows that
                // hold it, whatever the partition count or device.
                for probe in [0u64, 1, 7, 1000, 6000] {
                    let expected: Vec<usize> =
                        (0..col.len()).filter(|&r| col[r] == probe).collect();
                    let mut hits = Vec::new();
                    idx.for_each_match(&[probe], |r| hits.push(r));
                    assert_eq!(hits, expected, "partitions={partitions} probe={probe}");
                }
            }
        }
    }

    #[test]
    fn identical_devices_build_identical_partition_tables() {
        // Stronger than match-equivalence: the slot tables themselves are a
        // pure function of (rows, expansion, partitions), never of device
        // parallelism.
        let seq = Device::sequential();
        let par = Device::new(crate::DeviceConfig {
            parallelism: 5,
            min_parallel_rows: 8,
            ..crate::DeviceConfig::default()
        });
        let col = big_keys(20_000);
        let a = HashIndex::build(&seq, &[&col], 2);
        let b = HashIndex::build(&par, &[&col], 2);
        assert_eq!(a.partitions(), b.partitions());
        for (pa, pb) in a.parts.iter().zip(&b.parts) {
            assert_eq!(pa.mask, pb.mask);
            assert_eq!(pa.slots, pb.slots);
        }
    }
}
