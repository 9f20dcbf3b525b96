//! The data-parallel kernel library backing the APM instruction set.
//!
//! Each function corresponds to one (or one family of) APM instruction from
//! Table 1 of the paper. Kernels operate on flat 64-bit columns plus a
//! generic tag slice, record a timed launch on the [`Device`], and route
//! every output and scratch column through the device's
//! [`Arena`](crate::Arena) so steady-state fix-point iterations allocate
//! nothing fresh.
//!
//! # Determinism contract
//!
//! Every kernel produces **bit-identical output whatever the configured
//! parallelism**, because each one is built so that chunk boundaries decide
//! only *which worker computes an element*, never what the element is:
//!
//! * [`sort_permutation`] returns the unique permutation that orders rows by
//!   `(row content, original index)` — a total order, so the stable LSD
//!   radix sort, the parallel merge sort, the small-input comparison sort
//!   and the one-word sort ([`sort_words`], whichever prefix of the words
//!   it finds already in order) all produce the same bytes.
//! * [`scan`] is one sequential fold at every size: a two-pass block scan
//!   reads the counts twice and never beat it on any machine measured.
//! * [`unique`] reduces each duplicate segment left-to-right (ascending row
//!   index) — a segment belongs to the chunk it starts in, whole — so
//!   non-commutative or order-sensitive tag disjunctions (e.g. float
//!   addition) fold in exactly one order.
//! * [`merge`] / [`difference`] cut both inputs at *partition points*
//!   (binary searches on the data), and each worker runs the sequential
//!   two-pointer walk on its cut; the cuts are data-determined, so the
//!   concatenated output equals the sequential walk. Where
//!   [`difference_runs`] gallops through a long run it lands on the same
//!   lower bounds the walk would have reached.
//! * [`eval`], the gathers, and [`join_write`] write each output element as
//!   a pure function of its input row(s) into disjoint, position-stable
//!   output ranges.
//! * [`count_matches`] and [`join_write`] probe the index once per probe
//!   row, in probe-row order; a [`HashIndex`] holds a key's matches as one
//!   range of row ids in ascending build-row order whatever its partition
//!   count — the order a sorted build side's run has — so the output is
//!   (probe row ascending, build row ascending within it) for every index
//!   structure, join strategy and parallelism.
//!
//! Parallel execution runs on the device's persistent worker pool
//! ([`crate::pool`]); no kernel spawns threads per launch.

use crate::device::KernelKind;
use crate::parallel::{chunks_for, map_chunks, par_map_into, run_chunks, split_by_ranges};
use crate::{Column, Columns, Device, HashIndex};
use std::cmp::Ordering;
use std::ops::Range;
use std::time::Instant;

/// Allocation-site ids for kernel outputs and scratch buffers (see
/// [`Arena`](crate::Arena)): every column a kernel allocates is tagged with
/// one of these,
/// so a kernel that recycles its scratch gets the same buffer back on its
/// next launch. Callers that outlive a kernel's output (the executor's
/// register file, the database's tables) recycle it site-unknown via
/// [`Arena::recycle_shared`](crate::Arena::recycle_shared).
pub mod sites {
    /// Sort output permutation.
    pub const SORT_OUT: usize = 1;
    /// Sort double-buffer scratch.
    pub const SORT_SCRATCH: usize = 2;
    /// Scan output offsets.
    pub const SCAN_OUT: usize = 3;
    /// Unique output columns.
    pub const UNIQUE_OUT: usize = 5;
    /// Merge output columns.
    pub const MERGE_OUT: usize = 6;
    /// Difference kept-row scratch.
    pub const DIFF_KEPT: usize = 7;
    /// Difference output columns.
    pub const DIFF_OUT: usize = 8;
    /// Eval output columns (data plus source indices).
    pub const EVAL_OUT: usize = 9;
    /// Gather output columns.
    pub const GATHER_OUT: usize = 10;
    /// Hash-join output columns.
    pub const JOIN_OUT: usize = 11;
    /// Append output columns.
    pub const APPEND_OUT: usize = 12;
    /// Count-matches output column.
    pub const COUNT_OUT: usize = 13;
    /// Hash-index slot tables, group keys, range starts and row ids.
    pub const JOIN_INDEX: usize = 14;
    /// Merge-join count output column.
    pub const MERGE_COUNT_OUT: usize = 15;
    /// Merge-join output columns.
    pub const MERGE_JOIN_OUT: usize = 16;
    /// Hash-index build scratch (every row's group; row hashes and row ids
    /// by partition when there are several).
    pub const JOIN_BUILD: usize = 17;
    /// Pack-columns output (dictionary-encoded narrow words).
    pub const PACK_OUT: usize = 19;
    /// Unpack-columns output (full-width logical columns).
    pub const UNPACK_OUT: usize = 20;
    /// Sorted words of a one-word sort.
    pub const SORT_KEYS: usize = 21;
}

/// Compares row `i` of `a` with row `j` of `b` lexicographically by column.
pub fn cmp_rows(a: &[&[u64]], i: usize, b: &[&[u64]], j: usize) -> Ordering {
    for (ca, cb) in a.iter().zip(b.iter()) {
        match ca[i].cmp(&cb[j]) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

/// Chunk-local sink for [`eval`]: filtered projection rows are appended to
/// flat per-column buffers (no per-row allocation).
pub struct EvalSink {
    cols: Columns,
    sources: Column,
}

impl EvalSink {
    fn new(out_arity: usize) -> Self {
        EvalSink {
            cols: vec![Vec::new(); out_arity],
            sources: Vec::new(),
        }
    }

    /// Appends one output row produced from input row `source`.
    pub fn emit(&mut self, source: usize, row: &[u64]) {
        debug_assert_eq!(
            row.len(),
            self.cols.len(),
            "projection produced wrong arity"
        );
        for (col, v) in self.cols.iter_mut().zip(row) {
            col.push(*v);
        }
        self.sources.push(source as u64);
    }
}

/// `eval⟨α⟩(s̄)`: evaluates a projection/selection function on every row.
///
/// `f` is called once per chunk with the chunk's index range and a sink; it
/// evaluates the projection for each row and [`EvalSink::emit`]s the rows
/// that survive selection. The chunk granularity lets the caller hoist
/// per-row scratch (input row buffer, expression stack) out of the row loop,
/// so the whole kernel performs no per-row allocation. The result is the
/// output columns plus, for each output row, the index of the input row it
/// came from — the latter is what lets the caller copy (or gather)
/// provenance tags, since projection ties each output fact to exactly one
/// input fact (Section 3.3).
pub fn eval<F>(device: &Device, len: usize, out_arity: usize, f: F) -> (Columns, Column)
where
    F: Fn(Range<usize>, &mut EvalSink) + Sync,
{
    let _t = device.launch(KernelKind::Other);
    let ranges = chunks_for(device, len);
    let sinks: Vec<EvalSink> = map_chunks(device, &ranges, |_, range| {
        let mut sink = EvalSink::new(out_arity);
        f(range, &mut sink);
        sink
    });
    let total: usize = sinks.iter().map(|s| s.sources.len()).sum();
    let arena = device.arena();
    let mut columns: Columns = (0..out_arity)
        .map(|_| arena.alloc_empty(sites::EVAL_OUT, total))
        .collect();
    let mut sources: Column = arena.alloc_empty(sites::EVAL_OUT, total);
    for sink in sinks {
        for (out, piece) in columns.iter_mut().zip(&sink.cols) {
            out.extend_from_slice(piece);
        }
        sources.extend_from_slice(&sink.sources);
    }
    (columns, sources)
}

/// One lane of a packed word: logical column `column`'s value bits (`mask`
/// wide) placed at bit offset `shift`. The first logical column of a group
/// occupies the most-significant lane, so comparing packed words as `u64`s
/// equals comparing the lanes' columns lexicographically — the property that
/// lets every sort/merge/difference kernel run unchanged on packed data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackLane {
    /// Index of the logical (full-width) column this lane carries.
    pub column: usize,
    /// Bit offset of the lane within the packed word.
    pub shift: u32,
    /// Mask of the lane's value bits, before shifting.
    pub mask: u64,
}

/// `pack(s*, G)`: fuses logical columns into one narrow word column per
/// lane group. `out[g][k] = Σ_lanes (columns[lane.column][k] & mask) << shift`.
/// The one-table case of [`pack_tables`].
pub fn pack_columns(device: &Device, columns: &[&[u64]], groups: &[Vec<PackLane>]) -> Columns {
    pack_tables(device, &[columns], groups)
}

/// [`pack_columns`] over the row-wise concatenation of `tables`, without
/// building the concatenation: every table is packed straight into its own
/// stretch of the output, so each input word is read once and each output
/// word written once.
///
/// Every input value must fit its lane (`value & !mask == 0`) — the caller's
/// layout planner guarantees this by sizing lanes from the column's logical
/// type and dictionary cardinality. Debug builds assert it.
pub fn pack_tables(device: &Device, tables: &[&[&[u64]]], groups: &[Vec<PackLane>]) -> Columns {
    let _t = device.launch(KernelKind::Other);
    let rows_of = |columns: &[&[u64]]| columns.first().map_or(0, |c| c.len());
    let rows = tables.iter().map(|columns| rows_of(columns)).sum();
    let arena = device.arena();
    groups
        .iter()
        .map(|lanes| {
            let mut out = arena.alloc_zeroed(sites::PACK_OUT, rows);
            let mut rest = out.as_mut_slice();
            for columns in tables {
                let (stretch, tail) = rest.split_at_mut(rows_of(columns));
                par_map_into(device, stretch, |k| {
                    let mut word = 0u64;
                    for lane in lanes {
                        let v = columns[lane.column][k];
                        debug_assert_eq!(v & !lane.mask, 0, "value overflows its pack lane");
                        word |= (v & lane.mask) << lane.shift;
                    }
                    word
                });
                rest = tail;
            }
            out
        })
        .collect()
}

/// Inverse of [`pack_columns`]: splits packed group columns back into
/// `arity` full-width logical columns.
/// `out[lane.column][k] = (packed[g][k] >> shift) & mask`.
pub fn unpack_columns(
    device: &Device,
    packed: &[&[u64]],
    groups: &[Vec<PackLane>],
    arity: usize,
) -> Columns {
    let _t = device.launch(KernelKind::Other);
    let rows = packed.first().map_or(0, |c| c.len());
    let arena = device.arena();
    let mut out: Columns = (0..arity)
        .map(|_| arena.alloc_zeroed(sites::UNPACK_OUT, rows))
        .collect();
    for (group, lanes) in packed.iter().zip(groups) {
        for lane in lanes {
            let (shift, mask) = (lane.shift, lane.mask);
            par_map_into(device, &mut out[lane.column], |k| {
                (group[k] >> shift) & mask
            });
        }
    }
    out
}

/// `gather(i, s)`: `out[k] = column[indices[k]]`.
pub fn gather(device: &Device, indices: &[u64], column: &[u64]) -> Column {
    let _t = device.launch(KernelKind::Other);
    let mut out = device
        .arena()
        .alloc_zeroed(sites::GATHER_OUT, indices.len());
    par_map_into(device, &mut out, |k| column[indices[k] as usize]);
    out
}

/// Tag variant of [`gather`]. Tags are cloned chunk-by-chunk into exact-size
/// buffers (no `Option` holes, no second pass).
pub fn gather_tags<T: Clone + Send + Sync>(device: &Device, indices: &[u64], tags: &[T]) -> Vec<T> {
    let _t = device.launch(KernelKind::Other);
    gather_tags_inner(device, indices, tags)
}

fn gather_tags_inner<T: Clone + Send + Sync>(
    device: &Device,
    indices: &[u64],
    tags: &[T],
) -> Vec<T> {
    let ranges = chunks_for(device, indices.len());
    let pieces: Vec<Vec<T>> = map_chunks(device, &ranges, |_, range| {
        indices[range]
            .iter()
            .map(|&k| tags[k as usize].clone())
            .collect()
    });
    concat_pieces(pieces, indices.len())
}

fn concat_pieces<T>(pieces: Vec<Vec<T>>, total: usize) -> Vec<T> {
    if pieces.len() == 1 {
        return pieces.into_iter().next().expect("one piece");
    }
    let mut out = Vec::with_capacity(total);
    for piece in pieces {
        out.extend(piece);
    }
    out
}

/// `scan(s)`: exclusive prefix sum. Returns the offsets and the total.
pub fn scan(device: &Device, counts: &[u64]) -> (Column, u64) {
    let _t = device.launch(KernelKind::Other);
    let mut offsets = device.arena().alloc_zeroed(sites::SCAN_OUT, counts.len());
    let start = Instant::now();
    let mut acc = 0u64;
    for (slot, &c) in offsets.iter_mut().zip(counts) {
        *slot = acc;
        acc += c;
    }
    device.record_busy(start.elapsed());
    (offsets, acc)
}

/// Maximum number of radix passes (one per *non-constant* byte, summed over
/// columns) before [`sort_permutation`] falls back to the parallel merge
/// sort: beyond this the `O(passes · n)` radix cost loses to
/// `O(n log n)` comparisons.
const RADIX_PASS_BUDGET: usize = 16;

/// Below this row count the permutation is comparison-sorted directly —
/// chunking and radix machinery only pay off in bulk.
const SMALL_SORT: usize = 64;

/// A segment of a one-word sort of at most this many rows is insertion-sorted
/// in place: cheaper than zeroing and scanning a histogram per digit.
const SMALL_SEGMENT: usize = 32;

/// `sort(s̄)`: returns the permutation that lexicographically sorts the rows
/// of the table formed by `columns`.
///
/// The permutation is the unique one ordering rows by `(row content,
/// original index)`; equal rows keep their input order. A one-column table
/// is sorted by [`sort_words`]. Narrow tables (at most `RADIX_PASS_BUDGET`
/// (16) non-constant bytes across all columns, the common case once
/// dictionary-encoded values stay small) are sorted with a parallel
/// least-significant-digit radix sort — per-chunk digit histograms, a scan
/// over `(digit, chunk)` buckets, and a scatter into per-bucket output
/// slices. Wider tables fall back to a parallel stable merge sort (sorted
/// chunks, pairwise merged). All are stable, so all produce the same bytes.
pub fn sort_permutation(device: &Device, columns: &[&[u64]]) -> Column {
    let _t = device.launch(KernelKind::Sort);
    let arena = device.arena();
    if let [words] = columns {
        let (sorted, perm) = sort_words_into(device, words);
        arena.recycle(sites::SORT_KEYS, sorted);
        return perm;
    }
    let len = columns.first().map(|c| c.len()).unwrap_or(0);
    let mut perm = arena.alloc_zeroed(sites::SORT_OUT, len);
    par_map_into(device, &mut perm, |i| i as u64);
    if len <= 1 || columns.is_empty() {
        return perm;
    }
    if len <= SMALL_SORT {
        let start = Instant::now();
        perm.sort_unstable_by(|&i, &j| {
            cmp_rows(columns, i as usize, columns, j as usize).then(i.cmp(&j))
        });
        device.record_busy(start.elapsed());
        return perm;
    }
    match radix_digits(device, columns) {
        Some(digits) => radix_sort(device, columns, &digits, &mut perm),
        None => merge_sort(device, columns, &mut perm),
    }
    perm
}

/// The bits in which some element of `col` differs from another: byte `b`
/// of the result is non-zero exactly when digit `b` is not constant.
fn varying_bits(device: &Device, col: &[u64]) -> u64 {
    let Some(&first) = col.first() else {
        return 0;
    };
    let ranges = chunks_for(device, col.len());
    map_chunks(device, &ranges, |_, range| {
        col[range].iter().fold(0, |acc, &v| acc | (v ^ first))
    })
    .into_iter()
    .fold(0, |acc, v| acc | v)
}

/// The non-constant bytes of `varying`, as bit shifts, least significant
/// first.
fn varying_digits(varying: u64) -> impl Iterator<Item = u32> {
    (0..8)
        .map(|b| 8 * b)
        .filter(move |shift| (varying >> shift) & 0xFF != 0)
}

/// The passes of an LSD radix sort of `columns`, in the order they run —
/// `(column, bit shift)` of every byte that is not the same in all rows,
/// last column first — or `None` when there are more than
/// `RADIX_PASS_BUDGET` of them. A constant digit moves nothing, so it costs
/// no pass and is not counted.
fn radix_digits(device: &Device, columns: &[&[u64]]) -> Option<Vec<(usize, u32)>> {
    let mut digits = Vec::new();
    for (c, col) in columns.iter().enumerate().rev() {
        digits.extend(varying_digits(varying_bits(device, col)).map(|shift| (c, shift)));
        if digits.len() > RADIX_PASS_BUDGET {
            return None;
        }
    }
    Some(digits)
}

/// Stable LSD radix sort of `perm` by the rows of `columns`, one counting
/// pass per entry of `digits` ([`radix_digits`]): bytes within a column
/// least-significant first, columns last-to-first, so the final order is
/// lexicographic by row with original-index ties (stability).
fn radix_sort(device: &Device, columns: &[&[u64]], digits: &[(usize, u32)], perm: &mut Column) {
    let arena = device.arena();
    let mut cur = std::mem::take(perm);
    let mut tmp = arena.alloc_zeroed(sites::SORT_SCRATCH, cur.len());
    for &(c, shift) in digits {
        radix_pass(device, columns[c], shift, &cur, &mut tmp);
        std::mem::swap(&mut cur, &mut tmp);
    }
    *perm = cur;
    arena.recycle(sites::SORT_SCRATCH, tmp);
}

/// One counting-sort pass over the byte at `shift`.
fn radix_pass(device: &Device, col: &[u64], shift: u32, src: &Column, dst: &mut Column) {
    let len = src.len();
    let ranges = chunks_for(device, len);
    let digit = |v: u64| ((col[v as usize] >> shift) & 0xFF) as usize;
    // Per-chunk digit histograms.
    let histograms: Vec<[usize; 256]> = map_chunks(device, &ranges, |_, range| {
        let mut h = [0usize; 256];
        for &v in &src[range] {
            h[digit(v)] += 1;
        }
        h
    });
    // Carve `dst` into one slice per (digit, chunk) bucket, in destination
    // order, and regroup them per chunk: bucket (d, c) starts where all
    // smaller digits and all earlier chunks of digit d end.
    let mut per_chunk: Vec<Vec<&mut [u64]>> =
        (0..ranges.len()).map(|_| Vec::with_capacity(256)).collect();
    {
        let mut rest = dst.as_mut_slice();
        for d in 0..256 {
            for (c, h) in histograms.iter().enumerate() {
                let (head, tail) = rest.split_at_mut(h[d]);
                per_chunk[c].push(head);
                rest = tail;
            }
        }
        debug_assert!(rest.is_empty());
    }
    // Scatter: each chunk walks its elements in order and appends them to
    // its own slice of each digit bucket — stable, disjoint, parallel.
    run_chunks(
        device,
        &ranges,
        per_chunk,
        |_, range, mut slices: Vec<&mut [u64]>| {
            let mut cursors = [0usize; 256];
            for &v in &src[range] {
                let d = digit(v);
                slices[d][cursors[d]] = v;
                cursors[d] += 1;
            }
        },
    );
}

/// `sort(s)` of a one-word table — every relation whose row packs into one
/// 8-byte word: returns the sorted words and the permutation that sorts
/// them, `sorted[k] == words[perm[k]]`, equal words in input order (the
/// permutation [`sort_permutation`] returns for the same column).
///
/// The words themselves are moved, with the row id as payload, so no pass
/// reads a column through the permutation and the sorted table needs no
/// gather. One pass over the input finds which bytes vary at all and the
/// shortest suffix of low bits that is out of order: the bits above it are
/// already non-decreasing (a join emits in probe order, so the leading lane
/// of its output usually is), and the table falls into *segments* — runs of
/// equal prefix — that only need sorting inside. Each segment is sorted by
/// an LSD radix sort over its varying low bytes, with all its digit
/// histograms taken in one pass over the segment; segments are spread over
/// the workers whole, and one that fits the cache is sorted without touching
/// memory twice. A table in no order at all is one segment; a sorted one is
/// copied through.
pub fn sort_words(device: &Device, words: &[u64]) -> (Column, Column) {
    let _t = device.launch(KernelKind::Sort);
    sort_words_into(device, words)
}

/// [`sort_words`] inside an already-open launch.
fn sort_words_into(device: &Device, words: &[u64]) -> (Column, Column) {
    let len = words.len();
    let arena = device.arena();
    let mut keys = arena.alloc_zeroed(sites::SORT_KEYS, len);
    let mut ids = arena.alloc_zeroed(sites::SORT_OUT, len);
    let (varying, descents) = word_order(device, words);
    // Every descent between neighbours lies below bit `low`, so `w >> low`
    // is non-decreasing and only the bytes below it take part in the sort.
    let low = 64 - descents.leading_zeros();
    let prefix = |w: u64| w.checked_shr(low).unwrap_or(0);
    let digits: Vec<u32> = varying_digits(varying)
        .take_while(|&shift| shift < low)
        .collect();
    // Chunk boundaries move right to the next segment start.
    let mut ranges = Vec::new();
    let mut start = 0;
    for range in chunks_for(device, len) {
        let mut end = range.end.max(start);
        while 0 < end && end < len && prefix(words[end]) == prefix(words[end - 1]) {
            end += 1;
        }
        ranges.push(start..end);
        start = end;
    }
    let key_slices = split_by_ranges(&mut keys, &ranges);
    let id_slices = split_by_ranges(&mut ids, &ranges);
    run_chunks(
        device,
        &ranges,
        key_slices.into_iter().zip(id_slices).collect(),
        |_, range, (keys, ids): (&mut [u64], &mut [u64])| {
            let mut scratch = None;
            let mut s = range.start;
            while s < range.end {
                let p = prefix(words[s]);
                let mut e = s + 1;
                while e < range.end && prefix(words[e]) == p {
                    e += 1;
                }
                let out = s - range.start..e - range.start;
                sort_segment(
                    device,
                    &words[s..e],
                    s as u64,
                    &digits,
                    &mut keys[out.clone()],
                    &mut ids[out],
                    &mut scratch,
                );
                s = e;
            }
            if let Some(scratch) = scratch {
                scratch.recycle(device);
            }
        },
    );
    (keys, ids)
}

/// One pass over a word column: the bits in which any two words differ, and
/// the bits in which a word differs from a *greater* predecessor. The
/// highest set bit of the latter bounds the part of the word that is out of
/// order.
fn word_order(device: &Device, words: &[u64]) -> (u64, u64) {
    let Some(&first) = words.first() else {
        return (0, 0);
    };
    let ranges = chunks_for(device, words.len());
    map_chunks(device, &ranges, |_, range| {
        let mut prev = words[range.start.saturating_sub(1)];
        let (mut varying, mut descents) = (0, 0);
        for &w in &words[range] {
            varying |= w ^ first;
            descents |= if prev > w { prev ^ w } else { 0 };
            prev = w;
        }
        (varying, descents)
    })
    .into_iter()
    .fold((0, 0), |(v, d), (cv, cd)| (v | cv, d | cd))
}

/// Per-worker scratch of [`sort_segment`], made when the first segment
/// needs a radix pass: the second buffer of the radix ping-pong, as long as
/// the longest segment seen so far, and one histogram per digit.
struct SegmentScratch {
    keys: Column,
    ids: Column,
    histograms: [[usize; 256]; 8],
}

impl Default for SegmentScratch {
    fn default() -> Self {
        SegmentScratch {
            keys: Vec::new(),
            ids: Vec::new(),
            histograms: [[0; 256]; 8],
        }
    }
}

impl SegmentScratch {
    fn recycle(self, device: &Device) {
        for buffer in [self.keys, self.ids] {
            if buffer.capacity() > 0 {
                device.arena().recycle(sites::SORT_SCRATCH, buffer);
            }
        }
    }
}

/// Stable sort of one segment of a one-word table into `keys` / `ids`
/// (the input row of `words[i]` is `base + i`), by the bytes at `digits`:
/// the only ones that can differ inside the segment.
fn sort_segment(
    device: &Device,
    words: &[u64],
    base: u64,
    digits: &[u32],
    keys: &mut [u64],
    ids: &mut [u64],
    scratch: &mut Option<SegmentScratch>,
) {
    let n = words.len();
    if n <= SMALL_SEGMENT {
        // Insertion sort straight into the output; a word only moves past
        // strictly greater ones, so equal words keep their input order.
        for (i, &w) in words.iter().enumerate() {
            let mut slot = i;
            while slot > 0 && keys[slot - 1] > w {
                keys[slot] = keys[slot - 1];
                ids[slot] = ids[slot - 1];
                slot -= 1;
            }
            keys[slot] = w;
            ids[slot] = base + i as u64;
        }
        return;
    }
    // Every digit's histogram in one pass: a histogram does not depend on
    // the order the earlier passes leave the segment in.
    let scratch = scratch.get_or_insert_with(SegmentScratch::default);
    let histograms = &mut scratch.histograms[..digits.len()];
    for h in histograms.iter_mut() {
        h.fill(0);
    }
    for &w in words {
        for (h, &shift) in histograms.iter_mut().zip(digits) {
            h[(w >> shift) as usize & 0xFF] += 1;
        }
    }
    // A digit that is constant within the segment moves nothing.
    let mut passes = [0usize; 8];
    let mut count = 0;
    for (d, (h, &shift)) in histograms.iter().zip(digits).enumerate() {
        if h[(words[0] >> shift) as usize & 0xFF] != n {
            passes[count] = d;
            count += 1;
        }
    }
    let Some((&first, rest)) = passes[..count].split_first() else {
        keys.copy_from_slice(words);
        for (i, id) in ids.iter_mut().enumerate() {
            *id = base + i as u64;
        }
        return;
    };
    if count > 1 && scratch.keys.len() < n {
        let arena = device.arena();
        let grown = n.max(2 * scratch.keys.len());
        for buffer in [&mut scratch.keys, &mut scratch.ids] {
            let old = std::mem::replace(buffer, arena.alloc_zeroed(sites::SORT_SCRATCH, grown));
            if old.capacity() > 0 {
                arena.recycle(sites::SORT_SCRATCH, old);
            }
        }
    }
    // The passes alternate between the output and the scratch; the first
    // one is aimed so that the last lands in the output.
    let spare = n.min(scratch.keys.len());
    let mut dst = (keys, ids);
    let mut src = (&mut scratch.keys[..spare], &mut scratch.ids[..spare]);
    if count % 2 == 0 {
        std::mem::swap(&mut dst, &mut src);
    }
    let offsets = bucket_offsets(&mut histograms[first]);
    for (i, &w) in words.iter().enumerate() {
        let slot = &mut offsets[(w >> digits[first]) as usize & 0xFF];
        (dst.0[*slot], dst.1[*slot]) = (w, base + i as u64);
        *slot += 1;
    }
    for &d in rest {
        std::mem::swap(&mut dst, &mut src);
        let offsets = bucket_offsets(&mut histograms[d]);
        for (&w, &id) in src.0.iter().zip(src.1.iter()) {
            let slot = &mut offsets[(w >> digits[d]) as usize & 0xFF];
            (dst.0[*slot], dst.1[*slot]) = (w, id);
            *slot += 1;
        }
    }
}

/// Turns a digit histogram into the start offset of every bucket, in place.
fn bucket_offsets(histogram: &mut [usize; 256]) -> &mut [usize; 256] {
    let mut acc = 0;
    for slot in histogram.iter_mut() {
        acc += std::mem::replace(slot, acc);
    }
    histogram
}

/// Stable parallel merge sort of `perm` by row content: sorted chunks (index
/// tie-break), then pairwise parallel merges of adjacent runs. Adjacent runs
/// partition the index space in order, so "left run first on ties" *is* the
/// original-index tie-break.
/// One pairwise-merge work unit: the left run, the right run if the round
/// has one (the odd leftover run is copied through), and the output slice
/// covering both.
type MergeUnit<'a> = ((Range<usize>, Option<Range<usize>>), &'a mut [u64]);

fn merge_sort(device: &Device, columns: &[&[u64]], perm: &mut Column) {
    let len = perm.len();
    let ranges = chunks_for(device, len);
    {
        let slices = split_by_ranges(perm, &ranges);
        run_chunks(device, &ranges, slices, |_, _, slice: &mut [u64]| {
            slice.sort_unstable_by(|&i, &j| {
                cmp_rows(columns, i as usize, columns, j as usize).then(i.cmp(&j))
            });
        });
    }
    if ranges.len() <= 1 {
        return;
    }
    let arena = device.arena();
    let mut cur = std::mem::take(perm);
    let mut buf = arena.alloc_zeroed(sites::SORT_SCRATCH, len);
    let mut runs: Vec<Range<usize>> = ranges;
    while runs.len() > 1 {
        let mut merged: Vec<Range<usize>> = Vec::with_capacity(runs.len().div_ceil(2));
        let mut pairs: Vec<(Range<usize>, Option<Range<usize>>)> =
            Vec::with_capacity(merged.capacity());
        for pair in runs.chunks(2) {
            if pair.len() == 2 {
                merged.push(pair[0].start..pair[1].end);
                pairs.push((pair[0].clone(), Some(pair[1].clone())));
            } else {
                merged.push(pair[0].clone());
                pairs.push((pair[0].clone(), None));
            }
        }
        {
            let out_slices = split_by_ranges(&mut buf, &merged);
            run_chunks(
                device,
                &merged,
                pairs.into_iter().zip(out_slices).collect(),
                |_, _, ((a, b), out): MergeUnit<'_>| match b {
                    None => out.copy_from_slice(&cur[a]),
                    Some(b) => {
                        let (left, right) = (&cur[a], &cur[b]);
                        let (mut i, mut j, mut k) = (0, 0, 0);
                        while i < left.len() && j < right.len() {
                            let li = left[i] as usize;
                            let rj = right[j] as usize;
                            if cmp_rows(columns, li, columns, rj) != Ordering::Greater {
                                out[k] = left[i];
                                i += 1;
                            } else {
                                out[k] = right[j];
                                j += 1;
                            }
                            k += 1;
                        }
                        out[k..k + left.len() - i].copy_from_slice(&left[i..]);
                        k += left.len() - i;
                        out[k..].copy_from_slice(&right[j..]);
                    }
                },
            );
        }
        std::mem::swap(&mut cur, &mut buf);
        runs = merged;
    }
    *perm = cur;
    arena.recycle(sites::SORT_SCRATCH, buf);
}

/// Applies a sort permutation to a set of columns and their tags.
pub fn apply_permutation<T: Clone + Send + Sync>(
    device: &Device,
    perm: &[u64],
    columns: &[&[u64]],
    tags: &[T],
) -> (Columns, Vec<T>) {
    let cols = columns.iter().map(|c| gather(device, perm, c)).collect();
    let tags = gather_tags(device, perm, tags);
    (cols, tags)
}

/// `unique⟨⊕⟩(s̄)`: merges adjacent duplicate rows of a sorted table,
/// combining their tags with the semiring disjunction.
///
/// Segment starts (`row[i] != row[i-1]`) are counted per chunk, which sizes
/// the output exactly; then every chunk takes **one walk** over the segments
/// that start in it, writing each segment's row and the left-to-right fold
/// of its tags as it goes — the order the sequential loop uses, so
/// order-sensitive disjunctions (float addition) produce identical bits
/// wherever the chunk boundaries fall. A one-column table compares words
/// directly instead of rows column by column.
pub fn unique<T, F>(device: &Device, columns: &[&[u64]], tags: &[T], or: F) -> (Columns, Vec<T>)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> T + Sync,
{
    let _t = device.launch(KernelKind::Unique);
    if let [words] = columns {
        unique_by(device, columns, tags, or, |i| {
            i == 0 || words[i] != words[i - 1]
        })
    } else {
        unique_by(device, columns, tags, or, |i| {
            i == 0 || cmp_rows(columns, i - 1, columns, i) != Ordering::Equal
        })
    }
}

/// [`unique`] with the segment-start test given.
fn unique_by<T, F, S>(
    device: &Device,
    columns: &[&[u64]],
    tags: &[T],
    or: F,
    is_start: S,
) -> (Columns, Vec<T>)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> T + Sync,
    S: Fn(usize) -> bool + Sync,
{
    let len = columns.first().map(|c| c.len()).unwrap_or(0);
    let arena = device.arena();
    // A chunk owns the segments that start in it: it skips the tail of one
    // begun earlier and follows its own last one past its end.
    let ranges = chunks_for(device, len);
    let counts: Vec<usize> = map_chunks(device, &ranges, |_, range| {
        range.filter(|&i| is_start(i)).count()
    });
    let total: usize = counts.iter().sum();
    let mut bounds = Vec::with_capacity(counts.len());
    let mut acc = 0;
    for &c in &counts {
        bounds.push(acc..acc + c);
        acc += c;
    }
    let mut out_cols: Columns = columns
        .iter()
        .map(|_| arena.alloc_zeroed(sites::UNIQUE_OUT, total))
        .collect();
    let col_slices = columns_chunked(&mut out_cols, &bounds);
    let pieces: Vec<Vec<T>> = run_chunks(
        device,
        &ranges,
        col_slices,
        |c, range, mut outs: Vec<&mut [u64]>| {
            let mut out_tags = Vec::with_capacity(counts[c]);
            let mut i = range.start;
            while i < range.end && !is_start(i) {
                i += 1;
            }
            for k in 0..counts[c] {
                for (out, col) in outs.iter_mut().zip(columns) {
                    out[k] = col[i];
                }
                let mut tag = tags[i].clone();
                i += 1;
                while i < len && !is_start(i) {
                    tag = or(&tag, &tags[i]);
                    i += 1;
                }
                out_tags.push(tag);
            }
            out_tags
        },
    );
    (out_cols, concat_pieces(pieces, total))
}

/// Finds the merge-path split of diagonal `t`: the `(i, j)` with `i + j = t`
/// such that taking `a[..i]` and `b[..j]` first agrees with the sequential
/// merge that prefers `a` on ties.
fn merge_split(a: &[&[u64]], la: usize, b: &[&[u64]], lb: usize, t: usize) -> usize {
    let mut lo = t.saturating_sub(lb);
    let mut hi = t.min(la);
    // Find the smallest i where every taken b-row precedes every future
    // a-row strictly (`b[j-1] < a[i]`); monotone in i.
    while lo < hi {
        let i = (lo + hi) / 2;
        let j = t - i;
        let ok = j == 0 || i == la || cmp_rows(b, j - 1, a, i) == Ordering::Less;
        if ok {
            hi = i;
        } else {
            lo = i + 1;
        }
    }
    lo
}

/// `merge(ā, b̄)`: merges two lexicographically sorted tables into one sorted
/// table. Rows are kept from both inputs (no deduplication); on equal rows
/// `a`'s precede `b`'s.
///
/// Parallelism comes from merge-path partitioning: the output is cut into
/// equal diagonals, each worker binary-searches its input split and runs the
/// sequential two-pointer merge on its own disjoint output slice.
pub fn merge<T: Clone + Send + Sync>(
    device: &Device,
    a_cols: &[&[u64]],
    a_tags: &[T],
    b_cols: &[&[u64]],
    b_tags: &[T],
) -> (Columns, Vec<T>) {
    let _t = device.launch(KernelKind::Other);
    let arity = a_cols.len().max(b_cols.len());
    debug_assert!(
        a_cols.len() == b_cols.len() || a_tags.is_empty() || b_tags.is_empty(),
        "merging tables of different arity"
    );
    let (la, lb) = (a_tags.len(), b_tags.len());
    let total = la + lb;
    let arena = device.arena();
    let ranges = chunks_for(device, total);
    // Input splits per output boundary.
    let mut a_cuts = Vec::with_capacity(ranges.len() + 1);
    for range in &ranges {
        a_cuts.push(merge_split(a_cols, la, b_cols, lb, range.start));
    }
    a_cuts.push(merge_split(a_cols, la, b_cols, lb, total));
    let mut out_cols: Columns = (0..arity)
        .map(|_| arena.alloc_zeroed(sites::MERGE_OUT, total))
        .collect();
    let col_slices = columns_chunked(&mut out_cols, &ranges);
    let pieces: Vec<Vec<T>> = run_chunks(
        device,
        &ranges,
        col_slices,
        |c, range, mut outs: Vec<&mut [u64]>| {
            let (ai, aj) = (a_cuts[c], a_cuts[c + 1]);
            let (bi, bj) = (range.start - ai, range.end - aj);
            let (mut i, mut j, mut k) = (ai, bi, 0usize);
            let mut tags = Vec::with_capacity(range.len());
            while i < aj && j < bj {
                if cmp_rows(a_cols, i, b_cols, j) != Ordering::Greater {
                    for (out, col) in outs.iter_mut().zip(a_cols) {
                        out[k] = col[i];
                    }
                    tags.push(a_tags[i].clone());
                    i += 1;
                } else {
                    for (out, col) in outs.iter_mut().zip(b_cols) {
                        out[k] = col[j];
                    }
                    tags.push(b_tags[j].clone());
                    j += 1;
                }
                k += 1;
            }
            while i < aj {
                for (out, col) in outs.iter_mut().zip(a_cols) {
                    out[k] = col[i];
                }
                tags.push(a_tags[i].clone());
                i += 1;
                k += 1;
            }
            while j < bj {
                for (out, col) in outs.iter_mut().zip(b_cols) {
                    out[k] = col[j];
                }
                tags.push(b_tags[j].clone());
                j += 1;
                k += 1;
            }
            tags
        },
    );
    (out_cols, concat_pieces(pieces, total))
}

/// Splits each column of `cols` at the chunk boundaries and regroups the
/// slices per chunk (chunk-major), for handing to workers.
fn columns_chunked<'a>(cols: &'a mut Columns, ranges: &[Range<usize>]) -> Vec<Vec<&'a mut [u64]>> {
    let mut per_chunk: Vec<Vec<&mut [u64]>> = (0..ranges.len())
        .map(|_| Vec::with_capacity(cols.len()))
        .collect();
    for col in cols.iter_mut() {
        for (c, slice) in split_by_ranges(col, ranges).into_iter().enumerate() {
            per_chunk[c].push(slice);
        }
    }
    per_chunk
}

/// A run at least this many times longer than the candidate is probed by
/// galloping instead of a linear two-pointer walk: per candidate row the
/// gallop costs about `2·log2(ratio)` comparisons against the walk's
/// `ratio`, which crosses over near 8.
const GALLOP_RATIO: usize = 8;

/// First index in `from..len` at which `less` turns false, found by doubling
/// steps from `from` and a bisection of the last step. `less` must be
/// monotone over `from..len` (a prefix of `true`, then `false`). The cost is
/// logarithmic in the *distance* from `from`, not in `len` — which is what
/// makes a carried cursor over sorted probes amortize.
fn gallop(from: usize, len: usize, less: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (from, from);
    let mut step = 1;
    while hi < len && less(hi) {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    bisect(lo, hi.min(len), less)
}

/// First index in `lo..hi` at which the monotone `less` turns false.
fn bisect(mut lo: usize, mut hi: usize, less: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = (lo + hi) / 2;
        if less(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Where each row of `b` lands in [`merge`]`(a, b)`: row `j` follows the `a`
/// rows not greater than it (`a` wins ties there) and `j` rows of its own.
/// One galloping cursor over `a`, so the cost follows `b` — which is the
/// point: the caller has a small `b` and a reader of `a` to patch.
pub fn merge_positions(
    device: &Device,
    a_cols: &[&[u64]],
    a_len: usize,
    b_cols: &[&[u64]],
    b_len: usize,
) -> Vec<usize> {
    let _t = device.launch(KernelKind::Other);
    let mut cursor = 0;
    (0..b_len)
        .map(|j| {
            cursor = gallop(cursor, a_len, |i| {
                cmp_rows(a_cols, i, b_cols, j) != Ordering::Greater
            });
            cursor + j
        })
        .collect()
}

/// `diff(ā, b̄)`: rows of sorted table `a` that do not occur in sorted table
/// `b`, keeping `a`'s tags. This is the set difference required to keep
/// semi-naive evaluation terminating (new delta facts must not already be
/// known). The single-run case of [`difference_runs`].
pub fn difference<T: Clone + Send + Sync>(
    device: &Device,
    a_cols: &[&[u64]],
    a_tags: &[T],
    b_cols: &[&[u64]],
    b_len: usize,
) -> (Columns, Vec<T>) {
    difference_runs(device, a_cols, a_tags, &[(b_cols, b_len)])
}

/// Rows of sorted table `a` that occur in **none** of the sorted `runs`
/// (each a `(columns, row count)` pair), keeping `a`'s tags: the new-fact
/// filter of a fix-point iteration whose known facts are held as several
/// sorted runs.
///
/// `a` is cut into chunks; each worker binary-searches its start position in
/// every run and walks its chunk **once**, carrying one cursor per run, so
/// the kept-row set is chunk-independent and no intermediate table is built
/// per run. A run at least 8× longer than `a` (`GALLOP_RATIO`) advances its
/// cursor by galloping — the cost of an iteration then follows the
/// candidate, not the accumulated runs; runs of comparable length keep the
/// linear two-pointer step. The choice reads the two lengths only.
pub fn difference_runs<T: Clone + Send + Sync>(
    device: &Device,
    a_cols: &[&[u64]],
    a_tags: &[T],
    runs: &[(&[&[u64]], usize)],
) -> (Columns, Vec<T>) {
    let _t = device.launch(KernelKind::Other);
    let arity = a_cols.len();
    let a_len = a_tags.len();
    let arena = device.arena();
    let ranges = chunks_for(device, a_len);
    // Every chunk writes the indices it keeps at the front of its own slice
    // of `kept`; the prefixes are closed up afterwards.
    let mut kept = arena.alloc_zeroed(sites::DIFF_KEPT, a_len);
    let slices = split_by_ranges(&mut kept, &ranges);
    let counts: Vec<usize> = run_chunks(device, &ranges, slices, |_, range, slice: &mut [u64]| {
        // Per run: whether to gallop, and the cursor — starting at the first
        // row not less than the chunk's first a-row, where the walk of this
        // chunk must begin.
        let mut cursors: Vec<(bool, usize)> = runs
            .iter()
            .map(|(b_cols, b_len)| {
                let start = if range.is_empty() {
                    0
                } else {
                    bisect(0, *b_len, |j| {
                        cmp_rows(b_cols, j, a_cols, range.start) == Ordering::Less
                    })
                };
                (*b_len / GALLOP_RATIO >= a_len, start)
            })
            .collect();
        let mut k = 0;
        for i in range {
            let mut present = false;
            for ((b_cols, b_len), (gallop_run, cursor)) in runs.iter().zip(cursors.iter_mut()) {
                let less = |j: usize| cmp_rows(b_cols, j, a_cols, i) == Ordering::Less;
                let mut j = *cursor;
                if *gallop_run {
                    j = gallop(j, *b_len, less);
                } else {
                    while j < *b_len && less(j) {
                        j += 1;
                    }
                }
                *cursor = j;
                if j < *b_len && cmp_rows(b_cols, j, a_cols, i) == Ordering::Equal {
                    present = true;
                    break;
                }
            }
            if !present {
                slice[k] = i as u64;
                k += 1;
            }
        }
        k
    });
    let mut total = 0;
    for (range, count) in ranges.iter().zip(&counts) {
        kept.copy_within(range.start..range.start + count, total);
        total += count;
    }
    kept.truncate(total);
    let mut out_cols: Columns = Vec::with_capacity(arity);
    for col in a_cols {
        let mut out = arena.alloc_zeroed(sites::DIFF_OUT, total);
        par_map_into(device, &mut out, |k| col[kept[k] as usize]);
        out_cols.push(out);
    }
    let out_tags = gather_tags_inner(device, &kept, a_tags);
    arena.recycle(sites::DIFF_KEPT, kept);
    (out_cols, out_tags)
}

/// `count(b̄, h, ā)`: for every probe row, the number of build rows with a
/// matching key in the hash index. Probe keys are hashed straight from the
/// probe columns — no per-row key buffer is materialized.
pub fn count_matches(device: &Device, index: &HashIndex, probe_key_cols: &[&[u64]]) -> Column {
    let _t = device.launch(KernelKind::Join);
    let len = probe_key_cols.first().map(|c| c.len()).unwrap_or(0);
    let mut out = device.arena().alloc_zeroed(sites::COUNT_OUT, len);
    par_map_into(device, &mut out, |i| {
        index.count_cols(probe_key_cols, i) as u64
    });
    out
}

/// Where one output column of a join's write pass comes from. A join
/// output row is a (build row, probe row) pair; a column of it is a column
/// of either side read at that row, or the row index itself.
#[derive(Debug, Clone, Copy)]
pub enum JoinColumn<'a> {
    /// `out[k] = column[build row of k]`.
    Build(&'a [u64]),
    /// `out[k] = column[probe row of k]`.
    Probe(&'a [u64]),
    /// `out[k] = build row of k` — what [`hash_join`] / [`merge_join`]
    /// return first.
    BuildRow,
    /// `out[k] = probe row of k` — what they return second.
    ProbeRow,
}

/// The build side of a join, which is also what finds a probe row's matches
/// for the write pass: the two *range providers* of [`join_write`].
#[derive(Debug, Clone, Copy)]
pub enum JoinBuild<'a> {
    /// A hash index over the build key columns: a probe row's matches are a
    /// slice of the index's row ids ([`HashIndex::matches_cols`]).
    Hash(&'a HashIndex),
    /// The build key columns themselves, lexicographically sorted: a probe
    /// row's matches are the run `lo..lo + count` of build rows, `lo` found
    /// by galloping from the previous probe row's.
    Sorted(&'a [&'a [u64]]),
}

/// What the write pass of a join emits, after `count` and `scan` have sized
/// it: output rows for probe row `i` occupy positions
/// `offsets[i]..offsets[i] + counts[i]`, each one `columns` wide and tagged
/// with the conjunction of its build row's and its probe row's tag.
#[derive(Debug)]
pub struct JoinWrite<'a, T> {
    /// Per-probe-row match counts ([`count_matches`] / [`merge_count`]).
    pub counts: &'a [u64],
    /// Their exclusive prefix sum ([`scan`]).
    pub offsets: &'a [u64],
    /// The output columns, in output order.
    pub columns: &'a [JoinColumn<'a>],
    /// Tags of the build side, by build row.
    pub build_tags: &'a [T],
    /// Tags of the probe side, by probe row.
    pub probe_tags: &'a [T],
}

/// `join⟨W⟩(b̄, ā, h, c, o)`: the write pass of a join, hash or merge. Emits
/// the output *columns* and `mul(build tag, probe tag)` of every matching
/// (build row, probe row) pair directly — no index pairs are materialized
/// and nothing is gathered afterwards, so a column nobody asked for is
/// never written. Returns the columns in `write.columns` order and the
/// tags.
///
/// Output rows are in probe-row order with a probe row's matches in
/// ascending build-row order, for both [`JoinBuild`]s: downstream sorting,
/// provenance tag combination and dedup see byte-identical inputs whichever
/// one ran.
pub fn join_write<T, F>(
    device: &Device,
    build: JoinBuild<'_>,
    probe_key_cols: &[&[u64]],
    write: &JoinWrite<'_, T>,
    mul: F,
) -> (Columns, Vec<T>)
where
    T: Send + Sync,
    F: Fn(&T, &T) -> T + Sync,
{
    let _t = device.launch(KernelKind::Join);
    write_matches(
        device,
        build,
        probe_key_cols,
        write.counts,
        write.offsets,
        write.columns,
        |build_row, probe_row| mul(&write.build_tags[build_row], &write.probe_tags[probe_row]),
    )
}

/// The matching index pairs of a hash join: `(build_indices,
/// probe_indices)`, output rows for probe row `i` at positions
/// `offsets[i] .. offsets[i] + counts[i]`. The pair-writing instantiation of
/// [`join_write`]'s loop — its two columns are the row indices themselves,
/// written as full-width `u64`s, so they are never truncated however large
/// the tables grow.
pub fn hash_join(
    device: &Device,
    index: &HashIndex,
    probe_key_cols: &[&[u64]],
    counts: &[u64],
    offsets: &[u64],
    total: u64,
) -> (Column, Column) {
    let _t = device.launch(KernelKind::Join);
    write_pairs(
        device,
        JoinBuild::Hash(index),
        probe_key_cols,
        counts,
        offsets,
        total,
    )
}

/// [`hash_join`] / [`merge_join`] inside their launch.
fn write_pairs(
    device: &Device,
    build: JoinBuild<'_>,
    probe_key_cols: &[&[u64]],
    counts: &[u64],
    offsets: &[u64],
    total: u64,
) -> (Column, Column) {
    debug_assert_eq!(total as usize, scan_total(counts, offsets));
    let columns = [JoinColumn::BuildRow, JoinColumn::ProbeRow];
    let (pairs, _) = write_matches(
        device,
        build,
        probe_key_cols,
        counts,
        offsets,
        &columns,
        |_, _| (),
    );
    let [build_out, probe_out]: [Column; 2] = pairs.try_into().expect("two columns asked for");
    (build_out, probe_out)
}

/// The match total a [`scan`] computed over `counts`: an exclusive prefix
/// sum ends one count short of it.
fn scan_total(counts: &[u64], offsets: &[u64]) -> usize {
    match (offsets.last(), counts.last()) {
        (Some(&offset), Some(&count)) => (offset + count) as usize,
        _ => 0,
    }
}

/// The one join write loop. Each worker owns the contiguous output range its
/// probe rows map to (`offsets` is monotone); per probe row with matches it
/// asks the build side for their range, then fills the probe-side columns,
/// gathers the build-side ones through the range and folds the tags over it.
/// `tag(build row, probe row)` makes one output tag.
fn write_matches<T, F>(
    device: &Device,
    build: JoinBuild<'_>,
    probe_key_cols: &[&[u64]],
    counts: &[u64],
    offsets: &[u64],
    columns: &[JoinColumn<'_>],
    tag: F,
) -> (Columns, Vec<T>)
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let len = probe_key_cols.first().map(|c| c.len()).unwrap_or(0);
    debug_assert_eq!(counts.len(), len);
    debug_assert_eq!(offsets.len(), len);
    let total = scan_total(counts, offsets);
    let site = match build {
        JoinBuild::Hash(_) => sites::JOIN_OUT,
        JoinBuild::Sorted(_) => sites::MERGE_JOIN_OUT,
    };
    let arena = device.arena();
    let mut out_cols: Columns = columns
        .iter()
        .map(|_| arena.alloc_zeroed(site, total))
        .collect();
    let ranges = chunks_for(device, len);
    // A chunk of probe rows owns the contiguous output range
    // `offsets[start] .. offsets[end]`.
    let out_bounds: Vec<Range<usize>> = ranges
        .iter()
        .map(|r| {
            let at = |i: usize| offsets.get(i).map_or(total, |&o| o as usize);
            at(r.start)..at(r.end)
        })
        .collect();
    let col_slices = columns_chunked(&mut out_cols, &out_bounds);
    let pieces: Vec<Vec<T>> = run_chunks(
        device,
        &ranges,
        col_slices,
        |c, range, outs: Vec<&mut [u64]>| {
            let tags = Vec::with_capacity(out_bounds[c].len());
            match build {
                JoinBuild::Hash(index) => {
                    write_chunk(range, counts, columns, outs, tags, &tag, |i, _| {
                        let rows = index.matches_cols(probe_key_cols, i);
                        rows.iter().map(|&row| row as usize)
                    })
                }
                JoinBuild::Sorted(build_key_cols) => {
                    // The cursor carries the previous lower bound forward:
                    // over a sorted probe side the searches degrade into an
                    // amortized linear merge.
                    let mut cursor = 0;
                    write_chunk(range, counts, columns, outs, tags, &tag, |i, n| {
                        cursor = merge_lower_bound(build_key_cols, probe_key_cols, i, cursor);
                        debug_assert!(
                            (cursor..cursor + n).all(|row| cmp_rows(
                                build_key_cols,
                                row,
                                probe_key_cols,
                                i
                            ) == Ordering::Equal),
                            "merge join counts disagree with sorted build run"
                        );
                        cursor..cursor + n
                    })
                }
            }
        },
    );
    (out_cols, concat_pieces(pieces, total))
}

/// [`write_matches`] over one chunk of probe rows: `matches(i, n)` yields
/// the `n` build rows matching probe row `i`, ascending.
fn write_chunk<T, R>(
    range: Range<usize>,
    counts: &[u64],
    columns: &[JoinColumn<'_>],
    mut outs: Vec<&mut [u64]>,
    mut tags: Vec<T>,
    tag: &impl Fn(usize, usize) -> T,
    mut matches: impl FnMut(usize, usize) -> R,
) -> Vec<T>
where
    R: Iterator<Item = usize> + Clone,
{
    let mut k = 0;
    for i in range {
        let n = counts[i] as usize;
        if n == 0 {
            continue;
        }
        let rows = matches(i, n);
        for (out, column) in outs.iter_mut().zip(columns) {
            let out = &mut out[k..k + n];
            match column {
                JoinColumn::Probe(col) => out.fill(col[i]),
                JoinColumn::ProbeRow => out.fill(i as u64),
                JoinColumn::Build(col) => {
                    for (slot, row) in out.iter_mut().zip(rows.clone()) {
                        *slot = col[row];
                    }
                }
                JoinColumn::BuildRow => {
                    for (slot, row) in out.iter_mut().zip(rows.clone()) {
                        *slot = row as u64;
                    }
                }
            }
        }
        tags.extend(rows.map(|row| tag(row, i)));
        k += n;
    }
    debug_assert_eq!(k, tags.len(), "counts disagree with probe matches");
    debug_assert!(outs.iter().all(|out| out.len() == k));
    tags
}

/// First build row whose key is not less than probe row `i`'s key, found by
/// galloping right from `hint` — pass the previous probe row's lower bound.
/// When the probe side is also sorted (the case the compiler's sort-order
/// pass actually emits merge joins for), consecutive bounds are
/// non-decreasing and the amortized cost per probe row is near-constant;
/// an out-of-order probe row is detected by one comparison against
/// `hint - 1` and falls back to a plain binary search of the prefix.
fn merge_lower_bound(
    build_key_cols: &[&[u64]],
    probe_key_cols: &[&[u64]],
    i: usize,
    hint: usize,
) -> usize {
    let len = build_key_cols.first().map(|c| c.len()).unwrap_or(0);
    let hint = hint.min(len);
    let less = |row: usize| cmp_rows(build_key_cols, row, probe_key_cols, i) == Ordering::Less;
    if hint == 0 || less(hint - 1) {
        // Answer is >= hint.
        gallop(hint, len, less)
    } else {
        // Out-of-order probe row: the answer lies before the hint.
        bisect(0, hint - 1, less)
    }
}

/// First build row whose key is greater than probe row `i`'s key, galloping
/// right from `hint` (callers pass the row's lower bound, which is always a
/// valid starting point since `upper_bound >= lower_bound`).
fn merge_upper_bound(
    build_key_cols: &[&[u64]],
    probe_key_cols: &[&[u64]],
    i: usize,
    hint: usize,
) -> usize {
    let len = build_key_cols.first().map(|c| c.len()).unwrap_or(0);
    gallop(hint.min(len), len, |row| {
        cmp_rows(build_key_cols, row, probe_key_cols, i) != Ordering::Greater
    })
}

/// `mergecount(b̄, ā)`: for every probe row, the number of build rows with a
/// matching key — the sort-order counterpart of [`count_matches`]. Requires
/// the build key columns to be lexicographically sorted; the matches of any
/// probe key are then one contiguous run, found with two binary searches.
/// No index is built and no hashing happens, which is exactly why the
/// executor prefers this path when sort-order inference proves both inputs
/// sorted on the join prefix.
pub fn merge_count(
    device: &Device,
    build_key_cols: &[&[u64]],
    probe_key_cols: &[&[u64]],
) -> Column {
    let _t = device.launch(KernelKind::Join);
    debug_assert!(is_sorted(build_key_cols), "merge_count build side unsorted");
    let len = probe_key_cols.first().map(|c| c.len()).unwrap_or(0);
    let mut out = device.arena().alloc_zeroed(sites::MERGE_COUNT_OUT, len);
    let ranges = chunks_for(device, len);
    let slices = split_by_ranges(&mut out, &ranges);
    run_chunks(device, &ranges, slices, |_, range, chunk: &mut [u64]| {
        // Each chunk carries its cursor forward: for a sorted probe side
        // the searches degrade into an amortized linear merge.
        let mut cursor = 0;
        for (slot, i) in chunk.iter_mut().zip(range) {
            let lo = merge_lower_bound(build_key_cols, probe_key_cols, i, cursor);
            let hi = merge_upper_bound(build_key_cols, probe_key_cols, i, lo);
            *slot = (hi - lo) as u64;
            cursor = lo;
        }
    });
    out
}

/// `mergejoin⟨W⟩(b̄, ā, c, o)`: the matching index pairs of a sort-merge
/// join over a lexicographically sorted build side, laid out exactly like
/// [`hash_join`]'s and bit-identical to them: the same write loop, asking
/// the sorted build side for each probe row's run instead of a hash index
/// for its slice, both in ascending build-row order.
pub fn merge_join(
    device: &Device,
    build_key_cols: &[&[u64]],
    probe_key_cols: &[&[u64]],
    counts: &[u64],
    offsets: &[u64],
    total: u64,
) -> (Column, Column) {
    let _t = device.launch(KernelKind::Join);
    write_pairs(
        device,
        JoinBuild::Sorted(build_key_cols),
        probe_key_cols,
        counts,
        offsets,
        total,
    )
}

/// Debug check that rows are lexicographically non-decreasing.
fn is_sorted(cols: &[&[u64]]) -> bool {
    let len = cols.first().map(|c| c.len()).unwrap_or(0);
    (1..len).all(|i| cmp_rows(cols, i - 1, cols, i) != Ordering::Greater)
}

/// `copy(s̄)` / `append`: concatenates columns row-wise.
pub fn append(device: &Device, tables: &[&[&[u64]]]) -> Columns {
    let _t = device.launch(KernelKind::Other);
    let start = Instant::now();
    let arity = tables.iter().map(|t| t.len()).max().unwrap_or(0);
    let arena = device.arena();
    let mut out: Columns = (0..arity)
        .map(|c| {
            let rows = tables
                .iter()
                .map(|t| t.get(c).map(|col| col.len()).unwrap_or(0))
                .sum();
            arena.alloc_empty(sites::APPEND_OUT, rows)
        })
        .collect();
    for table in tables {
        for (c, col) in table.iter().enumerate() {
            out[c].extend_from_slice(col);
        }
    }
    device.record_busy(start.elapsed());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::sequential()
    }

    fn refs(cols: &[Column]) -> Vec<&[u64]> {
        cols.iter().map(|c| c.as_slice()).collect()
    }

    /// Runs the eval kernel with a simple per-row closure (the ergonomic
    /// shape the production caller hoists scratch out of).
    fn eval_rows<F>(device: &Device, len: usize, out_arity: usize, f: F) -> (Columns, Column)
    where
        F: Fn(usize) -> Option<Vec<u64>> + Sync,
    {
        eval(device, len, out_arity, |range, sink| {
            for i in range {
                if let Some(row) = f(i) {
                    sink.emit(i, &row);
                }
            }
        })
    }

    #[test]
    fn eval_projects_and_filters() {
        let d = dev();
        let col = [1u64, 2, 3, 4, 5];
        let (cols, src) = eval_rows(&d, col.len(), 1, |i| {
            let v = col[i];
            if v % 2 == 1 {
                Some(vec![v * 10])
            } else {
                None
            }
        });
        assert_eq!(cols, vec![vec![10, 30, 50]]);
        assert_eq!(src, vec![0, 2, 4]);
    }

    #[test]
    fn pack_unpack_round_trips_and_orders_like_lex() {
        let d = dev();
        // Layout: group 0 = [4-byte col0 | 2-byte col1 | 1-byte col2],
        // group 1 = [8-byte col3]. First column most significant.
        let groups = vec![
            vec![
                PackLane {
                    column: 0,
                    shift: 24,
                    mask: 0xFFFF_FFFF,
                },
                PackLane {
                    column: 1,
                    shift: 8,
                    mask: 0xFFFF,
                },
                PackLane {
                    column: 2,
                    shift: 0,
                    mask: 0xFF,
                },
            ],
            vec![PackLane {
                column: 3,
                shift: 0,
                mask: u64::MAX,
            }],
        ];
        let cols: Columns = vec![
            vec![7, 7, 8],
            vec![300, 2, 2],
            vec![1, 255, 0],
            vec![u64::MAX, 0, 42],
        ];
        let packed = pack_columns(&d, &refs(&cols), &groups);
        assert_eq!(packed.len(), 2);
        // Lexicographic order of (col0, col1, col2) == numeric order of
        // the packed group-0 words.
        assert!(packed[0][1] < packed[0][0]);
        assert!(packed[0][0] < packed[0][2]);
        let back = unpack_columns(&d, &refs(&packed), &groups, 4);
        assert_eq!(back, cols);
        // Parallel device produces identical bytes.
        let par = Device::new(crate::DeviceConfig {
            parallelism: 3,
            min_parallel_rows: 1,
            ..crate::DeviceConfig::default()
        });
        assert_eq!(pack_columns(&par, &refs(&cols), &groups), packed);
        assert_eq!(unpack_columns(&par, &refs(&packed), &groups, 4), back);
    }

    #[test]
    fn gather_and_gather_tags_follow_indices() {
        let d = dev();
        let col = vec![10u64, 20, 30];
        let tags = vec!["a", "b", "c"];
        assert_eq!(gather(&d, &[2, 0, 0], &col), vec![30, 10, 10]);
        assert_eq!(gather_tags(&d, &[1, 1, 2], &tags), vec!["b", "b", "c"]);
    }

    #[test]
    fn scan_is_exclusive_prefix_sum() {
        let d = dev();
        let (offsets, total) = scan(&d, &[2, 0, 3, 1]);
        assert_eq!(offsets, vec![0, 2, 2, 5]);
        assert_eq!(total, 6);
        let (empty, zero) = scan(&d, &[]);
        assert!(empty.is_empty());
        assert_eq!(zero, 0);
    }

    #[test]
    fn sort_and_unique_deduplicate_with_tag_merge() {
        let d = dev();
        let cols = vec![vec![2u64, 1, 2, 1], vec![7u64, 5, 7, 6]];
        let tags = vec![1.0f64, 2.0, 3.0, 4.0];
        let perm = sort_permutation(&d, &refs(&cols));
        let (sorted, stags) = apply_permutation(&d, &perm, &refs(&cols), &tags);
        assert_eq!(sorted[0], vec![1, 1, 2, 2]);
        assert_eq!(sorted[1], vec![5, 6, 7, 7]);
        let (uniq, utags) = unique(&d, &refs(&sorted), &stags, |a, b| a.max(*b));
        assert_eq!(uniq[0], vec![1, 1, 2]);
        assert_eq!(uniq[1], vec![5, 6, 7]);
        assert_eq!(utags, vec![2.0, 4.0, 3.0]);
    }

    #[test]
    fn sort_breaks_ties_by_original_index() {
        let d = dev();
        let cols = vec![vec![5u64, 1, 5, 1, 5]];
        let perm = sort_permutation(&d, &refs(&cols));
        assert_eq!(perm, vec![1, 3, 0, 2, 4]);
    }

    #[test]
    fn constant_digits_are_not_charged_to_the_radix_budget() {
        let d = dev();
        // Three packed words of two 4-byte lanes holding values below 2^16:
        // six significant bytes each, eighteen in all, but bytes 2 and 3 are
        // zero in every row — twelve scatters, inside the budget of sixteen.
        let word = |i: u64, salt: u64| ((i * salt) % 60_000) << 32 | ((i * 7 + salt) % 60_000);
        let cols: Vec<Column> = [3, 11, 17]
            .iter()
            .map(|&salt| (0..500).map(|i| word(i, salt)).collect())
            .collect();
        let digits = radix_digits(&d, &refs(&cols)).expect("inside the radix budget");
        let want: Vec<(usize, u32)> = [2, 1, 0]
            .iter()
            .flat_map(|&c| [0, 8, 32, 40].map(|shift| (c, shift)))
            .collect();
        assert_eq!(digits, want);
        // One more such column is over it, and both sorts agree.
        let mut wide = cols.clone();
        wide.extend([cols[0].clone(), cols[1].clone()]);
        assert_eq!(radix_digits(&d, &refs(&wide)), None);
        let mut want: Vec<u64> = (0..500).collect();
        want.sort_by_key(|&i| {
            (
                cols[0][i as usize],
                cols[1][i as usize],
                cols[2][i as usize],
            )
        });
        assert_eq!(sort_permutation(&d, &refs(&cols)), want);
        assert_eq!(sort_permutation(&d, &refs(&wide)), want);
    }

    #[test]
    fn merge_preserves_sort_order() {
        let d = dev();
        let a = vec![vec![1u64, 3, 5]];
        let b = vec![vec![2u64, 3, 6]];
        let (cols, tags) = merge(&d, &refs(&a), &[10, 30, 50], &refs(&b), &[20, 31, 60]);
        assert_eq!(cols[0], vec![1, 2, 3, 3, 5, 6]);
        assert_eq!(tags, vec![10, 20, 30, 31, 50, 60]);
    }

    #[test]
    fn merge_positions_are_where_merge_puts_the_rows() {
        let d = dev();
        // Two columns, a tie on (3, 1) — `a` first there — and `b` rows
        // before, between and after everything in `a`.
        let a = vec![vec![1u64, 3, 3, 5, 5, 5], vec![9u64, 0, 1, 2, 4, 6]];
        let b = vec![vec![0u64, 3, 5, 5, 7, 8], vec![9u64, 1, 3, 5, 0, 0]];
        let a_tags: Vec<u32> = (0..6).collect();
        let b_tags: Vec<u32> = (100..106).collect();
        let (_, merged) = merge(&d, &refs(&a), &a_tags, &refs(&b), &b_tags);
        let positions = merge_positions(&d, &refs(&a), 6, &refs(&b), 6);
        assert_eq!(positions, vec![0, 4, 6, 8, 10, 11]);
        for (j, at) in positions.iter().enumerate() {
            assert_eq!(merged[*at], b_tags[j]);
        }
        // Nothing to merge into, and nothing to merge.
        let none: Vec<Column> = vec![Vec::new(), Vec::new()];
        assert_eq!(
            merge_positions(&d, &refs(&none), 0, &refs(&b), 6),
            vec![0, 1, 2, 3, 4, 5]
        );
        assert!(merge_positions(&d, &refs(&a), 6, &refs(&none), 0).is_empty());
    }

    #[test]
    fn difference_removes_known_rows() {
        let d = dev();
        let a = vec![vec![1u64, 2, 3, 4]];
        let b = vec![vec![2u64, 4]];
        let (cols, tags) = difference(&d, &refs(&a), &["p", "q", "r", "s"], &refs(&b), 2);
        assert_eq!(cols[0], vec![1, 3]);
        assert_eq!(tags, vec!["p", "r"]);
    }

    #[test]
    fn difference_against_empty_keeps_everything() {
        let d = dev();
        let a = vec![vec![5u64, 6]];
        let empty: Vec<Column> = vec![Vec::new()];
        let (cols, tags) = difference(&d, &refs(&a), &[1, 2], &refs(&empty), 0);
        assert_eq!(cols[0], vec![5, 6]);
        assert_eq!(tags, vec![1, 2]);
    }

    #[test]
    fn hash_join_produces_all_pairs() {
        let d = dev();
        // Build side: edge(z, y) keyed on z; probe side: path(x, z) keyed on z.
        let build = [vec![1u64, 1, 2], vec![10u64, 11, 12]];
        let probe = [vec![0u64, 5], vec![1u64, 1]]; // path(0,1), path(5,1)
        let index = HashIndex::build(&d, &[&build[0]], 2);
        let probe_key = [probe[1].as_slice()];
        let counts = count_matches(&d, &index, &probe_key);
        assert_eq!(counts, vec![2, 2]);
        let (offsets, total) = scan(&d, &counts);
        let (bi, pi) = hash_join(&d, &index, &probe_key, &counts, &offsets, total);
        assert_eq!(bi.len(), 4);
        // Each probe row matched build rows 0 and 1 in some deterministic order.
        let mut pairs: Vec<(u64, u64)> = bi.iter().copied().zip(pi.iter().copied()).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn join_write_emits_columns_and_multiplied_tags() {
        let d = dev();
        // path(x, z) probes edge(z, y) and keeps (x, y): the key column is
        // not among the columns written.
        let (edge_z, edge_y) = (vec![1u64, 1, 2], vec![10u64, 11, 12]);
        let (path_x, path_z) = (vec![0u64, 5, 6], vec![1u64, 3, 2]);
        let (edge_tags, path_tags) = (vec![2.0f64, 3.0, 5.0], vec![10.0f64, 100.0, 1000.0]);
        let index = HashIndex::build(&d, &[&edge_z], 2);
        let counts = count_matches(&d, &index, &[&path_z]);
        let (offsets, _) = scan(&d, &counts);
        let write = JoinWrite {
            counts: &counts,
            offsets: &offsets,
            columns: &[JoinColumn::Probe(&path_x), JoinColumn::Build(&edge_y)],
            build_tags: &edge_tags,
            probe_tags: &path_tags,
        };
        let want_cols = vec![vec![0, 0, 6], vec![10, 11, 12]];
        // `mul(build tag, probe tag)`, operands in that order.
        let want_tags = vec![2.0 - 10.0, 3.0 - 10.0, 5.0 - 1000.0];
        let sub = |b: &f64, p: &f64| b - p;
        let hash = join_write(&d, JoinBuild::Hash(&index), &[&path_z], &write, sub);
        assert_eq!(hash, (want_cols.clone(), want_tags.clone()));
        // The build side is sorted on the key, so the merge path applies.
        assert_eq!(merge_count(&d, &[&edge_z], &[&path_z]), counts);
        let merge = join_write(&d, JoinBuild::Sorted(&[&edge_z]), &[&path_z], &write, sub);
        assert_eq!(merge, (want_cols, want_tags));
    }

    #[test]
    fn append_concatenates_tables() {
        let d = dev();
        let a = vec![vec![1u64], vec![2u64]];
        let b = vec![vec![3u64, 4], vec![5u64, 6]];
        let out = append(&d, &[&refs(&a), &refs(&b)]);
        assert_eq!(out[0], vec![1, 3, 4]);
        assert_eq!(out[1], vec![2, 5, 6]);
    }

    #[test]
    fn kernels_record_launches_and_times() {
        let d = dev();
        let _ = scan(&d, &[1, 2, 3]);
        let big: Vec<u64> = (0..100_000u64)
            .map(|i| (i * 2_654_435_761) % 4096)
            .collect();
        let _ = sort_permutation(&d, &[&big[..]]);
        let stats = d.stats();
        assert!(stats.kernel_launches >= 2);
        assert!(stats.kernel_time.sort_ns > 0, "sort time attributed");
    }

    #[test]
    fn kernel_outputs_recycle_through_the_arena() {
        let d = dev();
        let counts = vec![1u64; 128];
        let (offsets, _) = scan(&d, &counts);
        d.arena().recycle_shared(offsets);
        let before = d.arena().stats();
        let (_offsets, _) = scan(&d, &counts);
        let after = d.arena().stats();
        assert_eq!(after.fresh_columns, before.fresh_columns);
        assert_eq!(after.reused_columns, before.reused_columns + 1);
    }

    #[test]
    fn parallel_and_sequential_join_agree() {
        use crate::DeviceConfig;
        let seq = Device::sequential();
        let par = Device::new(DeviceConfig {
            parallelism: 8,
            min_parallel_rows: 16,
            ..DeviceConfig::default()
        });
        // Random-ish graph join.
        let n = 5000u64;
        let from: Vec<u64> = (0..n).map(|i| i % 97).collect();
        let to: Vec<u64> = (0..n).map(|i| (i * 7) % 89).collect();
        for d in [&seq, &par] {
            let index = HashIndex::build(d, &[&from], 2);
            let counts = count_matches(d, &index, &[&to]);
            let (offsets, total) = scan(d, &counts);
            let (bi, pi) = hash_join(d, &index, &[&to], &counts, &offsets, total);
            let mut pairs: Vec<(u64, u64)> = bi.into_iter().zip(pi).collect();
            pairs.sort_unstable();
            // Compare against a nested-loop reference on the first device only.
            if std::ptr::eq(d, &seq) {
                let mut reference = Vec::new();
                for (j, &t) in to.iter().enumerate() {
                    for (i, &f) in from.iter().enumerate() {
                        if f == t {
                            reference.push((i as u64, j as u64));
                        }
                    }
                }
                reference.sort_unstable();
                assert_eq!(pairs, reference);
            }
        }
    }
}
