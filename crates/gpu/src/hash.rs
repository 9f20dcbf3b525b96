//! The partitioned, key-grouped hash index used for joins.
//!
//! Section 5.1 of the paper: the join kernel relies on a GPU hash table with
//! open addressing and linear probing, storing *indices back into the source
//! table* rather than fact data, so the join's complexity is decoupled from
//! the width of the input relations. This module reproduces that structure on
//! the simulated device with one refinement: the table holds one slot per
//! distinct **key**, not per build row, and a slot names a contiguous range
//! of a row-id array grouped by key. A probe therefore ends at the first
//! slot whose key matches — it never walks a cluster of duplicates — and a
//! key's matches are one slice. A partition of the index is one device
//! buffer holding four arrays back to back:
//!
//! ```text
//! slots     open addressing over the low hash bits: group + 1, 0 = empty
//! starts    starts[g]..starts[g + 1] is group g's range of row_ids
//! row_ids   the partition's build rows grouped by key, ascending in a group
//! keys      column c of group g's key, column after column
//! ```
//!
//! The build is the join's own count → scan → fill shape applied to the
//! build side ([`group_partition`]): one pass finds or opens each row's
//! group and counts it, a prefix sum turns the counts into range starts,
//! and a second pass over the rows — in ascending order — drops every row
//! id at its group's cursor. One buffer per partition means a small table,
//! rebuilt in every iteration of a stratum whose build side changes, costs
//! one arena round trip.
//!
//! The slot space is sharded into hash **partitions** so that the build
//! parallelizes:
//!
//! * [`HashIndex::build`] distributes rows over `P` partitions by the *top*
//!   bits of the key hash (the slot within a partition uses the low bits, so
//!   the two never alias), then allocates and groups every partition in
//!   parallel on the device's worker pool. `P` is chosen from the row count
//!   alone — never from the device parallelism — so the index *structure*
//!   is identical whatever device built it.
//! * The probe is one hash per probe row, which picks the partition and the
//!   slot, then one linear-probing walk over *distinct keys* to the matching
//!   group ([`kernels::count_matches`](crate::kernels::count_matches) /
//!   [`kernels::join_write`](crate::kernels::join_write) chunk the probe
//!   rows over the worker pool). There is no second probe algorithm.
//!
//! # Determinism
//!
//! A row's partition and group depend only on the keys and the row count,
//! groups are numbered in order of their first row, and the fill pass visits
//! rows in ascending global order, so every probe enumerates matches in
//! **ascending build-row order** by construction (the invariant the
//! merge-join path and provenance folding rely on) and the whole index is
//! bit-identical across device parallelism.
//!
//! The partition function uses the top bits of the same multiplicative mix
//! hash the slots use, which spreads keys as uniformly as a second hash
//! would.

use crate::device::KernelKind;
use crate::kernels::sites;
use crate::parallel::{chunks_for, map_chunks, par_map_column, run_chunks, PerChunk};
use crate::{Column, Device};
use std::ops::Range;

/// Multiplicative hashing constant (the 64-bit golden ratio).
const HASH_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// FNV-style offset basis the key mix starts from.
const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Rows a partition targets: enough to amortize per-partition dispatch,
/// small enough that one partition's slot table stays cache-resident.
const PARTITION_TARGET_ROWS: usize = 8192;

/// Hard cap on partitions, bounding per-chunk histogram size.
const MAX_PARTITIONS: usize = 512;

/// Rows up to which a partition's build keeps its per-row scratch on the
/// stack: the tables a stratum rebuilds an index over in every iteration
/// are mostly this small, and a second arena round trip would be a fifth of
/// their build.
const STACK_SCRATCH_ROWS: usize = 64;

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

/// One hash partition: the rows whose hash tops map here, grouped by key,
/// in one buffer — `slots`, `starts`, `row_ids`, `keys` back to back (see
/// the module docs). Groups are numbered within the partition; row ids are
/// rows of the whole build side.
#[derive(Debug, Clone, PartialEq)]
struct Partition {
    table: Column,
    /// Slots in the open-addressing table, a power of two.
    capacity: usize,
    /// Build rows in this partition.
    rows: usize,
}

impl Partition {
    fn slots(&self) -> &[u64] {
        &self.table[..self.capacity]
    }

    /// The row ids of group `group`, ascending.
    fn group_rows(&self, group: usize) -> &[u64] {
        let starts = &self.table[self.capacity..][..self.rows + 1];
        let row_ids = &self.table[self.capacity + self.rows + 1..][..self.rows];
        &row_ids[starts[group] as usize..starts[group + 1] as usize]
    }

    /// Column `column` of group `group`'s key.
    fn key(&self, column: usize, group: usize) -> u64 {
        self.table[self.capacity + (2 + column) * self.rows + 1 + group]
    }
}

/// A hash index over the first `w` columns of a build-side table.
///
/// One slot per distinct key; a slot names the key's *group*, whose build
/// rows are one slice of row ids in ascending order — exactly what a
/// relational join needs, found without walking the duplicates (see the
/// module docs for the layout).
///
/// The index owns a copy of every distinct key it was built from, which is
/// what allows it to be stored in a *static register* (Section 4.2) and
/// reused across fix-point iterations even though the transient registers of
/// the previous iteration have been discarded.
///
/// The slot space is split over hash partitions; use
/// [`HashIndex::partitions`] to observe the partition count.
#[derive(Debug, Clone)]
pub struct HashIndex {
    parts: Vec<Partition>,
    /// Partition of hash `h` is `h >> shift`; `shift == 64` means a single
    /// partition (shifts of 64 are not evaluated — see [`HashIndex::part_of`]).
    shift: u32,
    key_width: usize,
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
        let (parts, shift) = if partitions == 1 || rows == 0 {
            let part = group_partition(
                device,
                0..rows,
                |row| hash_cols(key_columns, row),
                key_columns,
                expansion,
            );
            (vec![part], 64)
        } else {
            let shift = 64 - partitions.trailing_zeros();
            let arena = device.arena();
            // Pass 1: hash every row once.
            let hashes = par_map_column(device, sites::JOIN_BUILD, rows, |row| {
                hash_cols(key_columns, row)
            });
            // Pass 2: stable scatter of row ids grouped by partition —
            // ascending global row order within each partition, which is
            // the order the grouping below visits them in.
            let (by_partition, part_bounds) =
                scatter_by_partition(device, &hashes, shift, partitions);
            // Pass 3: allocate and group every partition in parallel — one
            // pool task per partition, so partitions of uneven size
            // self-balance.
            let part_ranges: Vec<Range<usize>> = (0..partitions).map(|p| p..p + 1).collect();
            let parts = map_chunks(device, &part_ranges, |p, _| {
                group_partition(
                    device,
                    by_partition[part_bounds[p].clone()]
                        .iter()
                        .map(|&row| row as usize),
                    |row| hashes[row],
                    key_columns,
                    expansion,
                )
            });
            arena.recycle(sites::JOIN_BUILD, hashes);
            arena.recycle(sites::JOIN_BUILD, by_partition);
            (parts.into_vec(), shift)
        };
        HashIndex {
            parts,
            shift,
            key_width: key_columns.len(),
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
        self.parts.iter().map(|p| p.capacity).sum()
    }

    /// Number of hash partitions the slot space is split into.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Width of the join key in columns.
    pub fn key_width(&self) -> usize {
        self.key_width
    }

    /// Approximate number of bytes the index occupies on the device: the
    /// slot tables, the range starts, the row ids and the group keys.
    pub fn size_bytes(&self) -> usize {
        let words: usize = self.parts.iter().map(|p| p.table.len()).sum();
        words * std::mem::size_of::<u64>()
    }

    /// Returns the index's buffers to the device arena; call when the index
    /// is dead so the next build reuses them.
    pub fn recycle(self, device: &Device) {
        for part in self.parts {
            device.arena().recycle(sites::JOIN_INDEX, part.table);
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

    /// The one probe walk: the row ids of the group whose key has hash `h`
    /// and whose key columns `key_is` accepts (called with a column number
    /// and that column of a candidate group's key), found by linear probing
    /// over distinct keys from the slot `h` names; empty when an empty slot
    /// comes first.
    fn probe(&self, h: u64, key_is: impl Fn(usize, u64) -> bool) -> &[u64] {
        let part = &self.parts[self.part_of(h)];
        let slots = part.slots();
        let mask = slots.len() - 1;
        let mut slot = h as usize & mask;
        loop {
            let entry = slots[slot];
            if entry == 0 {
                return &[];
            }
            let group = (entry - 1) as usize;
            if (0..self.key_width).all(|column| key_is(column, part.key(column, group))) {
                return part.group_rows(group);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The build rows whose key equals `key`, in **ascending build-row
    /// order**.
    ///
    /// This is an invariant, and it holds by construction: the build's fill
    /// pass visits rows in ascending global order and appends each to its
    /// group's range (duplicates of a key share a hash, hence a partition
    /// and a group), and nothing is ever deleted. The merge-path join
    /// ([`kernels::merge_join`](crate::kernels::merge_join)) emits matches
    /// of a sorted build side in the same ascending order, which is what
    /// makes the two join paths bit-identical downstream — provenance tag
    /// combination during dedup folds duplicates in candidate-row order.
    pub fn matches(&self, key: &[u64]) -> &[u64] {
        debug_assert_eq!(key.len(), self.key_width);
        self.probe(hash_key(key), |column, k| key[column] == k)
    }

    /// [`HashIndex::matches`] keyed by row `probe_row` of the probe columns,
    /// hashing and comparing straight from column storage — the probe-side
    /// hot path; no key buffer is materialized.
    pub fn matches_cols(&self, probe_cols: &[&[u64]], probe_row: usize) -> &[u64] {
        debug_assert_eq!(probe_cols.len(), self.key_width);
        self.probe(hash_cols(probe_cols, probe_row), |column, k| {
            probe_cols[column][probe_row] == k
        })
    }

    /// Counts the build rows whose key equals `key`.
    pub fn count(&self, key: &[u64]) -> usize {
        self.matches(key).len()
    }

    /// Counts the build rows matching row `probe_row` of the probe key
    /// columns: one slot lookup, no row id is read.
    pub fn count_cols(&self, probe_cols: &[&[u64]], probe_row: usize) -> usize {
        self.matches_cols(probe_cols, probe_row).len()
    }

    /// Invokes `f` with the index of every build row whose key equals `key`,
    /// in ascending build-row order: a walk of [`HashIndex::matches`].
    pub fn for_each_match(&self, key: &[u64], f: impl FnMut(usize)) {
        self.matches(key)
            .iter()
            .map(|&row| row as usize)
            .for_each(f);
    }

    /// [`HashIndex::for_each_match`] keyed by row `probe_row` of the probe
    /// columns: a walk of [`HashIndex::matches_cols`].
    pub fn for_each_match_cols(
        &self,
        probe_cols: &[&[u64]],
        probe_row: usize,
        f: impl FnMut(usize),
    ) {
        self.matches_cols(probe_cols, probe_row)
            .iter()
            .map(|&row| row as usize)
            .for_each(f);
    }
}

/// Stable scatter of `0..hashes.len()` by partition (`hash >> shift`): the
/// row ids grouped by partition, ascending inside each, and every
/// partition's range of them. Carves the output into (partition, chunk)
/// buckets in destination order and regroups them per chunk: bucket
/// (p, c) starts where all smaller partitions and all earlier chunks of
/// partition p end, so each chunk appends its rows in order to slices of
/// its own.
fn scatter_by_partition(
    device: &Device,
    hashes: &[u64],
    shift: u32,
    partitions: usize,
) -> (Column, Vec<Range<usize>>) {
    let rows = hashes.len();
    let ranges = chunks_for(device, rows);
    let histograms: PerChunk<Vec<usize>> = map_chunks(device, &ranges, |_, range| {
        let mut h = vec![0usize; partitions];
        for &hv in &hashes[range] {
            h[(hv >> shift) as usize] += 1;
        }
        h
    });
    let mut grouped = device.arena().alloc_zeroed(sites::JOIN_BUILD, rows);
    let mut part_bounds = Vec::with_capacity(partitions);
    let mut per_chunk: Vec<Vec<&mut [u64]>> = (0..ranges.len())
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
    (grouped, part_bounds)
}

/// Builds one partition: groups `rows` — its row ids in ascending order —
/// by key into a buffer of its own, count → scan → fill. `row_hash`
/// recomputes or looks up a row's full hash.
fn group_partition(
    device: &Device,
    rows: impl ExactSizeIterator<Item = usize> + Clone,
    row_hash: impl Fn(usize) -> u64,
    key_columns: &[&[u64]],
    expansion: usize,
) -> Partition {
    let n = rows.len();
    let capacity = (n.max(1) * expansion.max(1)).next_power_of_two().max(8);
    let arena = device.arena();
    let mut table = arena.alloc_zeroed(
        sites::JOIN_INDEX,
        capacity + (2 + key_columns.len()) * n + 1,
    );
    let (slots, rest) = table.split_at_mut(capacity);
    let (starts, rest) = rest.split_at_mut(n + 1);
    let (row_ids, keys) = rest.split_at_mut(n);
    // `ends[g]` is `starts[g + 1]`: group `g`'s count, then its start, then
    // its end, as the three steps go by.
    let ends = &mut starts[1..];
    // Every row's group, between the two passes over the rows.
    let mut on_stack = [0; STACK_SCRATCH_ROWS];
    let mut pooled = None;
    let group_of = match on_stack.get_mut(..n) {
        Some(scratch) => scratch,
        None => pooled.insert(arena.alloc_zeroed(sites::JOIN_BUILD, n)),
    };
    // Count: a row joins the group its key already has or opens the next
    // one, so groups are numbered by first row.
    let mask = capacity - 1;
    let mut groups = 0;
    for (row, group_of_row) in rows.clone().zip(group_of.iter_mut()) {
        let mut slot = row_hash(row) as usize & mask;
        let group = loop {
            let entry = slots[slot] as usize;
            if entry == 0 {
                slots[slot] = groups as u64 + 1;
                for (c, key) in key_columns.iter().enumerate() {
                    keys[c * n + groups] = key[row];
                }
                groups += 1;
                break groups - 1;
            }
            let same_key = |(c, key): (usize, &&[u64])| keys[c * n + entry - 1] == key[row];
            if key_columns.iter().enumerate().all(same_key) {
                break entry - 1;
            }
            slot = (slot + 1) & mask;
        };
        ends[group] += 1;
        *group_of_row = group as u64;
    }
    // Scan: `ends[g]` becomes the start of group `g`'s range …
    let mut start = 0;
    for end in &mut ends[..groups] {
        start += std::mem::replace(end, start);
    }
    // … and fill moves it to the range's end: rows arrive ascending, so
    // every group's row ids do.
    for (row, &group) in rows.zip(group_of.iter()) {
        let cursor = &mut ends[group as usize];
        row_ids[*cursor as usize] = row as u64;
        *cursor += 1;
    }
    if let Some(scratch) = pooled {
        arena.recycle(sites::JOIN_BUILD, scratch);
    }
    Partition {
        table,
        capacity,
        rows: n,
    }
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
        // Stronger than match-equivalence: the slot tables and the group
        // arrays themselves are a pure function of (rows, expansion,
        // partitions), never of device parallelism.
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
        assert_eq!(a.parts, b.parts);
    }
}
