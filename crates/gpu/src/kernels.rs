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
//! * [`sort_permutation`] and [`unique`], the separate `sort` and
//!   `unique⟨⊕⟩` steps kept as references, run sequentially on the calling
//!   thread: one comparison sort ordering rows by `(row content, original
//!   index)`, and one walk folding each run of equal rows left to right.
//! * [`scan`] is one sequential fold at every size: a two-pass block scan
//!   reads the counts twice and never beat it on any machine measured.
//! * [`sort_unique`] folds the same order without sorting first: all rows
//!   equal to one another lie in one segment, segments go to the workers
//!   whole, and each of its three paths — fold as the rows come, fold each
//!   row into its direct-address slot as the rows come, a stable segment
//!   sort — visits equal rows in input order, which is the order
//!   [`sort_permutation`] puts them in for [`unique`], so non-commutative or
//!   order-sensitive tag disjunctions (e.g. float addition) fold in exactly
//!   one order. The known-fact filter runs after the
//!   fold, on each distinct row, like [`difference`] after [`unique`].
//! * [`merge`] / [`difference`] cut both inputs at *partition points*
//!   (binary searches on the data), and each worker runs the sequential
//!   two-pointer walk on its cut; the cuts are data-determined, so the
//!   concatenated output equals the sequential walk. A merge of a table at
//!   least `GALLOP_RATIO` times the other's length is one sequential walk
//!   that gallops the short side's places and copies the long side's
//!   stretches between them: the same rows in the same order. Where
//!   [`difference`] or [`sort_unique`] gallops through a long run it lands
//!   on the same lower bounds the walk would have reached.
//! * [`lookup`] is one sequential cursor over the stored table, driven by
//!   the distinct probe keys in key order.
//! * [`eval`], [`gather_tags`] and [`join_write`] write each output element as
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
use crate::parallel::{
    chunks_for, map_chunks, par_map_column, run_chunks, split_by_ranges, PerChunk,
};
use crate::sketch::row_hash;
use crate::{Column, Columns, Device, HashIndex, KnownSketch};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::OnceLock;

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
    /// Hash-join output columns.
    pub const JOIN_OUT: usize = 11;
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
    /// Pack-columns output (narrow words).
    pub const PACK_OUT: usize = 19;
    /// Unpack-columns output (full-width logical columns).
    pub const UNPACK_OUT: usize = 20;
    /// The rows one chunk of [`sort_unique`](super::sort_unique) emits.
    pub const SORT_KEYS: usize = 21;
    /// [`lookup`](super::lookup)'s distinct probe rows, in key order.
    pub const LOOKUP_KEYS: usize = 22;
    /// [`lookup`](super::lookup) output columns.
    pub const LOOKUP_OUT: usize = 23;
    /// The words of a [`KnownSketch`](crate::KnownSketch).
    pub const SKETCH: usize = 24;
}

/// Compares row `i` of `a` with row `j` of `b` lexicographically by column.
#[inline]
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
    let sinks: PerChunk<EvalSink> = map_chunks(device, &ranges, |_, range| {
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

impl PackLane {
    /// `value` in its place in the word.
    ///
    /// The value must fit the lane (`value & !mask == 0`) — the caller's
    /// layout planner guarantees this by sizing lanes from the column's
    /// logical type. Debug builds assert it.
    #[inline]
    pub fn place(&self, value: u64) -> u64 {
        debug_assert_eq!(value & !self.mask, 0, "value overflows its pack lane");
        (value & self.mask) << self.shift
    }
}

/// `pack(s*, G)`: fuses logical columns into one narrow word column per
/// lane group. `out[g][k] = Σ_lanes (columns[lane.column][k] & mask) << shift`
/// ([`PackLane::place`]).
pub fn pack_columns(device: &Device, columns: &[&[u64]], groups: &[Vec<PackLane>]) -> Columns {
    let _t = device.launch(KernelKind::Other);
    let rows = columns.first().map_or(0, |c| c.len());
    groups
        .iter()
        .map(|lanes| {
            par_map_column(device, sites::PACK_OUT, rows, |k| {
                lanes
                    .iter()
                    .fold(0, |word, lane| word | lane.place(columns[lane.column][k]))
            })
        })
        .collect()
}

/// The lane groups of the identity layout of `arity` columns: each column
/// one full-width lane, alone in its word. Packing through them writes the
/// columns as they are. Up to 64 columns they are a prefix of one table
/// built once, so asking for them allocates nothing.
pub fn identity_lanes(arity: usize) -> Cow<'static, [Vec<PackLane>]> {
    static WIDEST: OnceLock<Vec<Vec<PackLane>>> = OnceLock::new();
    let lanes = |arity| -> Vec<Vec<PackLane>> {
        let lane = |column| PackLane {
            column,
            shift: 0,
            mask: u64::MAX,
        };
        (0..arity).map(|column| vec![lane(column)]).collect()
    };
    match WIDEST.get_or_init(|| lanes(64)).get(..arity) {
        Some(prefix) => Cow::Borrowed(prefix),
        None => Cow::Owned(lanes(arity)),
    }
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
    // Every column is one lane of one group, so each is filled once.
    let mut out: Columns = vec![Column::new(); arity];
    for (group, lanes) in packed.iter().zip(groups) {
        for lane in lanes {
            let (shift, mask) = (lane.shift, lane.mask);
            out[lane.column] = par_map_column(device, sites::UNPACK_OUT, rows, |k| {
                (group[k] >> shift) & mask
            });
        }
    }
    debug_assert!(out.iter().all(|c| c.len() == rows), "a column has no lane");
    out
}

/// `gather(i, t)` of tags: `out[k] = tags[indices[k]]`. Tags are cloned
/// chunk-by-chunk into exact-size buffers (no `Option` holes, no second
/// pass).
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
    let pieces: PerChunk<Vec<T>> = map_chunks(device, &ranges, |_, range| {
        indices[range]
            .iter()
            .map(|&k| tags[k as usize].clone())
            .collect()
    });
    concat_pieces(pieces, indices.len())
}

fn concat_pieces<T>(pieces: PerChunk<Vec<T>>, total: usize) -> Vec<T> {
    match pieces {
        PerChunk::One([piece]) => piece,
        PerChunk::Many(pieces) => {
            let mut out = Vec::with_capacity(total);
            for piece in pieces {
                out.extend(piece);
            }
            out
        }
    }
}

/// `scan(s)`: exclusive prefix sum. Returns the offsets and the total.
pub fn scan(device: &Device, counts: &[u64]) -> (Column, u64) {
    let _t = device.launch(KernelKind::Other);
    let mut offsets = device.arena().alloc_zeroed(sites::SCAN_OUT, counts.len());
    let mut acc = 0u64;
    for (slot, &c) in offsets.iter_mut().zip(counts) {
        *slot = acc;
        acc += c;
    }
    (offsets, acc)
}

/// `sort(s̄)`: returns the permutation that lexicographically sorts the rows
/// of the table formed by `columns`: the unique one ordering rows by `(row
/// content, original index)`, so equal rows keep their input order.
///
/// The engine does not call it: a fix-point iteration sorts its candidate
/// rows inside [`sort_unique`]. It stays, one comparison sort on the calling
/// thread, as the reference the tests hold that kernel to and as a layer the
/// repository benchmark measures.
pub fn sort_permutation(device: &Device, columns: &[&[u64]]) -> Column {
    let _t = device.launch(KernelKind::Sort);
    let len = columns.first().map_or(0, |c| c.len());
    let mut perm = device.arena().alloc_empty(sites::SORT_OUT, len);
    perm.extend(0..len as u64);
    perm.sort_unstable_by(|&i, &j| {
        cmp_rows(columns, i as usize, columns, j as usize).then(i.cmp(&j))
    });
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

/// A table cut into *segments*, runs of rows whose leading words agree above
/// bit `low`. One pass over the leading column finds which bytes vary at all
/// and the shortest suffix of low bits that is out of order: every descent
/// between neighbours lies below `low`, so the prefixes `w >> low` are
/// already non-decreasing (a join emits in probe order, so the leading lane
/// of its output usually is) and a segment only needs ordering inside.
struct Segments {
    low: u32,
    /// The bits above `low`.
    prefix: u64,
    /// The bytes that can differ inside a segment, as `(column, shift)` in
    /// the order an LSD radix sort takes them: every varying byte of the
    /// later columns, last column first, then the varying bytes of the
    /// leading column below `low`, each column's least significant first.
    digits: Vec<(usize, u32)>,
    /// The launch's chunks, each boundary moved right to the next segment
    /// start, so segments are spread over the workers whole.
    ranges: Vec<Range<usize>>,
}

impl Segments {
    fn of(device: &Device, columns: &[&[u64]]) -> Segments {
        let words = columns[0];
        let len = words.len();
        let (varying, descents) = word_order(device, words);
        let low = 64 - descents.leading_zeros();
        let later = (1..columns.len()).rev().flat_map(|c| {
            varying_digits(varying_bits(device, columns[c])).map(move |shift| (c, shift))
        });
        let leading = varying_digits(varying).take_while(|&shift| shift < low);
        let mut segments = Segments {
            low,
            prefix: u64::MAX.checked_shl(low).unwrap_or(0),
            digits: later.chain(leading.map(|shift| (0, shift))).collect(),
            ranges: Vec::new(),
        };
        let mut start = 0;
        for range in chunks_for(device, len) {
            let mut end = range.end.max(start);
            while 0 < end
                && end < len
                && segments.floor(words[end - 1]) == segments.floor(words[end])
            {
                end += 1;
            }
            segments.ranges.push(start..end);
            start = end;
        }
        segments
    }

    /// The smallest word with `w`'s prefix: `w` with its low `low` bits
    /// cleared.
    fn floor(&self, w: u64) -> u64 {
        w & self.prefix
    }

    /// Calls `f(segment, in_order)` for the segments of rows `range` of
    /// `columns` in order (`range` must start at a segment start);
    /// `in_order` says no row of the segment is less than the one before it.
    fn for_each(
        &self,
        columns: &[&[u64]],
        range: Range<usize>,
        mut f: impl FnMut(Range<usize>, bool),
    ) {
        let (words, rest) = (columns[0], &columns[1..]);
        let mut s = range.start;
        while s < range.end {
            let floor = self.floor(words[s]);
            let mut e = s + 1;
            let mut in_order = true;
            while e < range.end && self.floor(words[e]) == floor {
                in_order &= words[e - 1] <= words[e];
                e += 1;
            }
            // Rows whose leading words tie are in order when the rest of
            // them are.
            in_order &= rest.is_empty()
                || (s + 1..e)
                    .all(|i| words[i - 1] < words[i] || cmp_rows(rest, i - 1, rest, i).is_le());
            f(s..e, in_order);
            s = e;
        }
    }
}

/// A segment whose rows differ only in the low `bits` bits of their last
/// word, with `2^bits ≤ 2^DENSE_SEGMENT_BITS` and at least one row per two
/// of those values, is deduplicated by direct addressing in [`sort_unique`]
/// rather than sorted: a table that small stays in the cache, and walking it
/// costs at most two steps per row.
const DENSE_SEGMENT_BITS: u32 = 16;

/// The number of low bits of the last word in which the rows of `segment`
/// differ, when no other word differs in it: `low` itself for one-word rows,
/// whose segments agree above it.
fn slot_bits(columns: &[&[u64]], segment: Range<usize>, low: u32) -> Option<u32> {
    let varying = |column: &[u64]| {
        let rows = &column[segment.clone()];
        rows.iter().fold(0, |acc, &w| acc | (w ^ rows[0]))
    };
    match columns.split_last()? {
        (_, []) => Some(low),
        (last, fixed) => (fixed.iter().all(|column| varying(column) == 0))
            .then(|| 64 - varying(last).leading_zeros()),
    }
}

/// `diff(unique⟨⊕⟩(sort(s̄)), known…)` in one launch, for rows of k ≥ 1
/// words (`columns` holds k columns): the distinct rows, ascending, each with
/// the fold of its rows' tags under `or` in input order, less the rows any of
/// the sorted `known` runs holds — the new frontier of a fix-point iteration
/// straight from its unsorted candidate rows. `known` lists the runs'
/// columns one run after another, k to a run.
///
/// One pass over the leading column finds the lowest bit `low` above which
/// its words are non-decreasing; the rows fall into *segments*, runs whose
/// leading words agree above it, and each segment goes one of three ways.
/// One in order folds its runs of equal rows as they come. A *dense* one —
/// its rows differ only in the low `b` bits of the last word (`b` is `low`
/// for one-word rows), `b ≤ DENSE_SEGMENT_BITS` and `2^b ≤ 2·n` — folds each
/// row's tag into the slot of a `2^b`-slot table those bits name, and
/// walking the slots emits it sorted. Any other is radix-sorted in
/// worker-local scratch over the bytes of every word that vary, then folded.
/// Each distinct row is checked against the runs with one cursor per run
/// carried across the chunk, linear steps then a gallop past `GALLOP_RATIO`
/// positions — unless `sketch`, a [`KnownSketch`] holding every row of the
/// runs, rules it out: such a row is certainly new and is emitted without
/// a search, and a cursor it leaves behind gallops past it with the next
/// row that is searched. No sorted column, permutation, distinct table or
/// kept-row index is ever written, only the rows emitted. The third value
/// returned is the number of distinct rows searched: every distinct row,
/// less those the sketch ruled out. The executor keeps one sketch per
/// relation of a running stratum, from the first iteration in which its
/// runs are long next to the candidate batch and its candidates mostly
/// new, to the stratum's end: its build hashes at most two rows per row
/// the run has derived, each later frontier row is hashed once, growth
/// re-hashes at most 4/3 of the rows it ends up holding, and a look-up is
/// one hash and one word.
///
/// Equal rows lie in one segment and every path visits them in input order,
/// and the filter applies after the fold, so the output is the bytes of
/// `sort_permutation` → gathers → [`unique`] → [`difference`] against each
/// run, whatever the parallelism and whatever sketch: a row the sketch
/// passes is searched exactly as it is without one.
pub fn sort_unique<T, F>(
    device: &Device,
    columns: &[&[u64]],
    tags: &[T],
    or: F,
    known: &[&[u64]],
    sketch: Option<&KnownSketch>,
) -> (Columns, Vec<T>, usize)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> T + Sync,
{
    let _t = device.launch(KernelKind::Sort);
    debug_assert!(columns.iter().all(|column| column.len() == tags.len()));
    debug_assert!(known.chunks(columns.len()).all(is_sorted));
    let segments = Segments::of(device, columns);
    let arena = device.arena();
    let pieces: PerChunk<Frontier<'_, T>> = map_chunks(device, &segments.ranges, |_, range| {
        // One-word rows compile to loops over words alone: with `WIDE`
        // false, every look at the words after the leading one is compiled
        // out.
        let known = (known, sketch);
        if columns.len() == 1 {
            frontier::<T, false>(device, &segments, columns, tags, &or, known, range)
        } else {
            frontier::<T, true>(device, &segments, columns, tags, &or, known, range)
        }
    });
    let searched = pieces.iter().map(|piece| piece.searched).sum();
    // The chunks' rows are copied into exactly sized columns, so a table
    // that outlives the launch holds no spare capacity.
    let total = pieces.iter().map(|piece| piece.tags.len()).sum();
    let mut out: Columns = columns
        .iter()
        .map(|_| arena.alloc_empty(sites::UNIQUE_OUT, total))
        .collect();
    let tag_pieces = pieces
        .into_iter()
        .map(|piece| {
            let rows = std::iter::once(piece.words).chain(piece.rest_words);
            for (out, rows) in out.iter_mut().zip(rows) {
                out.extend_from_slice(&rows);
                arena.recycle(sites::SORT_KEYS, rows);
            }
            piece.tags
        })
        .collect();
    (out, concat_pieces(tag_pieces, total), searched)
}

/// The frontier [`sort_unique`] makes of the rows `range` of `columns`,
/// whose words after the leading one it looks at only when `WIDE`, against
/// the known runs and their sketch.
fn frontier<'a, T: Clone, const WIDE: bool>(
    device: &Device,
    segments: &Segments,
    columns: &'a [&'a [u64]],
    tags: &[T],
    or: &impl Fn(&T, &T) -> T,
    (known, sketch): (&'a [&'a [u64]], Option<&'a KnownSketch>),
    range: Range<usize>,
) -> Frontier<'a, T> {
    let (words, arena) = (columns[0], device.arena());
    let floor = words.get(range.start).map_or(0, |&w| segments.floor(w));
    let mut out = Frontier {
        rest: &columns[1..],
        known,
        sketch,
        searched: 0,
        cursors: known
            .iter()
            .step_by(columns.len())
            .map(|first| bisect(0, first.len(), |j| first[j] < floor))
            .collect(),
        // Room for every row of the chunk, of which only the emitted
        // rows are written. A buffer grown on demand instead takes
        // whatever the pools hand out first, which saves a little peak
        // memory on average but makes it vary from run to run
        // (docs/PERFORMANCE.md, "Candidate rows to frontier").
        words: arena.alloc_empty(sites::SORT_KEYS, range.len()),
        rest_words: columns[1..]
            .iter()
            .map(|_| arena.alloc_empty(sites::SORT_KEYS, range.len()))
            .collect(),
        tags: Vec::new(),
    };
    let mut scratch = Scratch::default();
    // A dense segment's first row and folded tag per distinct row. Tags are
    // not words, so they cannot come from the arena; the vector lives as
    // long as the worker's launch and grows to the most distinct rows a
    // segment holds.
    let mut folds = Vec::new();
    segments.for_each(columns, range, |segment, in_order| {
        let n = segment.len();
        let base = segment.start;
        let dense = |bits: &u32| *bits <= DENSE_SEGMENT_BITS && 1 << bits <= 2 * n;
        if in_order {
            fold_sorted::<T, WIDE>(&words[segment], |k| base + k, tags, or, &mut out);
        } else if let Some(bits) = slot_bits(columns, segment.clone(), segments.low).filter(dense) {
            let table = scratch.table(device, 1 << bits);
            fold_dense::<T, WIDE>(columns, segment, tags, or, table, &mut folds, &mut out);
        } else {
            sort_segment::<WIDE>(device, columns, segment, &segments.digits, &mut scratch);
            let (keys, ids) = (&scratch.keys[..n], &scratch.ids);
            fold_sorted::<T, WIDE>(keys, |k| ids[k] as usize, tags, or, &mut out);
        }
    });
    scratch.recycle(device);
    out
}

/// What one chunk of [`sort_unique`] emits: the distinct rows it is handed
/// in ascending order, with their folded tags, less those a known run holds.
/// A row the sketch rules out is emitted unsearched; any other row is
/// searched in every run, one carried cursor per run.
///
/// The sketch is the executor's ([`KnownSketch`]), one per relation of a
/// running stratum: built by the update phase once the run has derived at
/// least the rows it entered with and `GALLOP_RATIO`× its candidate batch,
/// the runs hold at least `min_parallel_rows` rows, and the last update
/// found at least half of its distinct candidates new; fed each frontier as
/// it is made, and recycled when the stratum ends. Its build hashes at most
/// two rows per row the run has derived, each frontier is hashed once more
/// as it goes in, and a look-up is one hash and one word per distinct row.
struct Frontier<'a, T> {
    /// The launch's input columns after the first, which a row's later words
    /// are read from.
    rest: &'a [&'a [u64]],
    /// The known runs' columns, one run after another.
    known: &'a [&'a [u64]],
    /// A sketch of every row of the known runs, if the caller keeps one.
    sketch: Option<&'a KnownSketch>,
    /// The distinct rows searched in the runs.
    searched: usize,
    /// Per known run, the first position not yet passed.
    cursors: Vec<usize>,
    /// The emitted rows' leading words, and their later words.
    words: Column,
    rest_words: Columns,
    tags: Vec<T>,
}

impl<T> Frontier<'_, T> {
    /// Emits input row `row`, whose leading word is `lead`, with `tag` —
    /// unless a known run holds it. Its later words count only when `WIDE`.
    fn push<const WIDE: bool>(&mut self, lead: u64, row: usize, tag: T) {
        let rest = self.rest;
        let searched = match self.sketch {
            Some(sketch) => sketch.may_hold(row_hash(lead, if WIDE { rest } else { &[] }, row)),
            None => true,
        };
        if searched {
            self.searched += 1;
            let tail_cmp = |run: &[&[u64]], j: usize| cmp_rows(&run[1..], j, rest, row);
            let width = if WIDE { rest.len() + 1 } else { 1 };
            let runs = self.known.chunks_exact(width);
            for (run, cursor) in runs.zip(&mut self.cursors) {
                let first = run[0];
                let less = |j: usize| {
                    first[j] < lead || WIDE && first[j] == lead && tail_cmp(run, j).is_lt()
                };
                *cursor = seek(*cursor, first.len(), less);
                if first.get(*cursor) == Some(&lead) && (!WIDE || tail_cmp(run, *cursor).is_eq()) {
                    return;
                }
            }
        }
        self.words.push(lead);
        if WIDE {
            for (out, column) in self.rest_words.iter_mut().zip(rest) {
                out.push(column[row]);
            }
        }
        self.tags.push(tag);
    }
}

/// Folds every run of equal rows into one row for `out`: `sorted` holds the
/// rows' leading words in order, and the `k`-th is input row `row(k)`.
fn fold_sorted<T: Clone, const WIDE: bool>(
    sorted: &[u64],
    row: impl Fn(usize) -> usize,
    tags: &[T],
    or: &impl Fn(&T, &T) -> T,
    out: &mut Frontier<'_, T>,
) {
    let (mut k, rest) = (0, out.rest);
    while k < sorted.len() {
        let (word, first) = (sorted[k], row(k));
        let mut folded = tags[first].clone();
        k += 1;
        let same =
            |k: usize| sorted[k] == word && (!WIDE || cmp_rows(rest, first, rest, row(k)).is_eq());
        while k < sorted.len() && same(k) {
            folded = or(&folded, &tags[row(k)]);
            k += 1;
        }
        out.push::<WIDE>(word, first, folded);
    }
}

/// Direct-addressed dedup of one dense segment, whose rows differ in the low
/// `log2(table.len())` bits of their last word only. A slot of `table` is 0
/// or names, counting from 1, the entry of `folds` — the first row and the
/// fold — that its row's tags fold into: each row's tag is folded into its
/// slot's entry as the rows come, so a row's tags fold in input order — the
/// order a stable sort would have left them in — and walking the slots in
/// order emits the segment sorted. `table` must be all zeros and `folds`
/// empty, and both are left so.
fn fold_dense<T: Clone, const WIDE: bool>(
    columns: &[&[u64]],
    segment: Range<usize>,
    tags: &[T],
    or: &impl Fn(&T, &T) -> T,
    table: &mut [u64],
    folds: &mut Vec<(usize, Option<T>)>,
    out: &mut Frontier<'_, T>,
) {
    let mask = table.len() as u64 - 1;
    let last = &columns[columns.len() - 1][segment.clone()];
    // The leading word of a slot's row: the segment's when a later word
    // varies, the segment's high bits and the slot when it is the only word.
    let (high, low) = if WIDE {
        (columns[0][segment.start], 0)
    } else {
        (last[0] & !mask, mask)
    };
    let rows = segment.clone().zip(last).zip(&tags[segment.clone()]);
    for ((row, &word), tag) in rows {
        let slot = &mut table[(word & mask) as usize];
        if *slot == 0 {
            folds.push((row, Some(tag.clone())));
            *slot = folds.len() as u64;
        } else {
            let folded = folds[*slot as usize - 1]
                .1
                .as_mut()
                .expect("a slot's fold is taken once, by the walk");
            *folded = or(folded, tag);
        }
    }
    for (slot, entry) in table.iter_mut().enumerate() {
        if *entry != 0 {
            let (row, folded) = &mut folds[std::mem::take(entry) as usize - 1];
            let folded = folded.take().expect("every slot names its own fold");
            out.push::<WIDE>(high | (slot as u64 & low), *row, folded);
        }
    }
    folds.clear();
}

/// Per-worker scratch of [`sort_unique`], taken from the arena's sort
/// scratch when a segment first needs it and returned when the chunk is
/// done: the direct-address table; [`sort_segment`]'s output — a segment's
/// sorted leading words and the row of each — and the other buffers of its
/// radix ping-pong, as long as the longest segment seen so far; and one
/// 256-bucket histogram per digit.
#[derive(Default)]
struct Scratch {
    table: Column,
    keys: Column,
    ids: Column,
    spare_keys: Column,
    spare_ids: Column,
    histograms: Column,
}

impl Scratch {
    /// The all-zero direct-address table of `slots` slots.
    fn table(&mut self, device: &Device, slots: usize) -> &mut [u64] {
        reserve_scratch(device, &mut self.table, slots);
        &mut self.table[..slots]
    }

    fn recycle(self, device: &Device) {
        let buffers = [
            self.table,
            self.keys,
            self.ids,
            self.spare_keys,
            self.spare_ids,
            self.histograms,
        ];
        for buffer in buffers {
            if buffer.capacity() > 0 {
                device.arena().recycle(sites::SORT_SCRATCH, buffer);
            }
        }
    }
}

/// Grows `buffer` to at least `len` zeroed words from the arena's sort
/// scratch — at least doubling, so a worker regrows O(log) times per launch
/// — and recycles the buffer it replaces.
fn reserve_scratch(device: &Device, buffer: &mut Column, len: usize) {
    if buffer.len() >= len {
        return;
    }
    let arena = device.arena();
    let grown = arena.alloc_zeroed(sites::SORT_SCRATCH, len.max(2 * buffer.len()));
    let old = std::mem::replace(buffer, grown);
    if old.capacity() > 0 {
        arena.recycle(sites::SORT_SCRATCH, old);
    }
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

/// A segment ([`Segments`]) of at most this many rows is insertion-sorted in
/// place: cheaper than zeroing and scanning a histogram per digit.
const SMALL_SEGMENT: usize = 32;

/// Stable sort of the rows `segment` of `columns` into the front of
/// `scratch.keys` / `scratch.ids` — each row's leading word and its row — by
/// the bytes at `digits` ([`Segments`]): the only ones that can differ
/// inside the segment.
fn sort_segment<const WIDE: bool>(
    device: &Device,
    columns: &[&[u64]],
    segment: Range<usize>,
    digits: &[(usize, u32)],
    scratch: &mut Scratch,
) {
    let (words, rest) = (&columns[0][segment.clone()], &columns[1..]);
    let (n, base) = (words.len(), segment.start);
    let Scratch {
        keys,
        ids,
        spare_keys,
        spare_ids,
        histograms,
        ..
    } = scratch;
    reserve_scratch(device, keys, n);
    reserve_scratch(device, ids, n);
    let (keys, ids) = (&mut keys[..n], &mut ids[..n]);
    if n <= SMALL_SEGMENT {
        // Insertion sort straight into the output by leading word; a row
        // only moves past strictly greater ones, so equal words keep their
        // input order. Then each run of equal leading words is ordered by
        // the words after them, ties by row: still the stable order.
        for (i, &w) in words.iter().enumerate() {
            let mut slot = i;
            while slot > 0 && keys[slot - 1] > w {
                keys[slot] = keys[slot - 1];
                ids[slot] = ids[slot - 1];
                slot -= 1;
            }
            keys[slot] = w;
            ids[slot] = (base + i) as u64;
        }
        let mut start = 0;
        while WIDE && start < n {
            let end = (start + 1..n)
                .find(|&i| keys[i] != keys[start])
                .unwrap_or(n);
            ids[start..end].sort_unstable_by(|&a, &b| {
                cmp_rows(rest, a as usize, rest, b as usize).then(a.cmp(&b))
            });
            start = end;
        }
        return;
    }
    // Every digit's histogram in one pass: a histogram does not depend on
    // the order the earlier passes leave the segment in.
    reserve_scratch(device, histograms, 256 * digits.len());
    let histograms = &mut histograms[..256 * digits.len()];
    histograms.fill(0);
    for (row, &w) in segment.clone().zip(words) {
        for (h, &(c, shift)) in histograms.chunks_exact_mut(256).zip(digits) {
            let v = if WIDE && c > 0 { columns[c][row] } else { w };
            h[(v >> shift) as usize & 0xFF] += 1;
        }
    }
    // A digit that is constant within the segment moves nothing.
    let moves = |h: &[u64], (c, shift): (usize, u32)| {
        h[(columns[c][base] >> shift) as usize & 0xFF] != n as u64
    };
    let passes = (histograms.chunks_exact(256).zip(digits))
        .filter(|&(h, &digit)| moves(h, digit))
        .count();
    if passes == 0 {
        keys.copy_from_slice(words);
        for (i, id) in ids.iter_mut().enumerate() {
            *id = (base + i) as u64;
        }
        return;
    }
    if passes > 1 {
        reserve_scratch(device, spare_keys, n);
        reserve_scratch(device, spare_ids, n);
    }
    // The passes alternate between the output and the spares; the first
    // one, from the input, is aimed so that the last lands in the output.
    let spare = n.min(spare_keys.len());
    let mut dst = (keys, ids);
    let mut src = (&mut spare_keys[..spare], &mut spare_ids[..spare]);
    if passes % 2 == 0 {
        std::mem::swap(&mut dst, &mut src);
    }
    let mut from_input = true;
    for (h, &(c, shift)) in histograms.chunks_exact_mut(256).zip(digits) {
        if !moves(h, (c, shift)) {
            continue;
        }
        let offsets = bucket_offsets(h);
        if from_input {
            from_input = false;
            for (row, &w) in segment.clone().zip(words) {
                let v = if WIDE && c > 0 { columns[c][row] } else { w };
                let slot = &mut offsets[(v >> shift) as usize & 0xFF];
                (dst.0[*slot as usize], dst.1[*slot as usize]) = (w, row as u64);
                *slot += 1;
            }
        } else {
            std::mem::swap(&mut dst, &mut src);
            for (&w, &id) in src.0.iter().zip(src.1.iter()) {
                let v = if WIDE && c > 0 {
                    columns[c][id as usize]
                } else {
                    w
                };
                let slot = &mut offsets[(v >> shift) as usize & 0xFF];
                (dst.0[*slot as usize], dst.1[*slot as usize]) = (w, id);
                *slot += 1;
            }
        }
    }
}

/// Turns a digit histogram into the start offset of every bucket, in place.
fn bucket_offsets(histogram: &mut [u64]) -> &mut [u64] {
    let mut acc = 0;
    for slot in histogram.iter_mut() {
        acc += std::mem::replace(slot, acc);
    }
    histogram
}

/// `unique⟨⊕⟩(s̄)`: merges adjacent duplicate rows of a sorted table,
/// combining their tags with the semiring disjunction, left to right.
///
/// The engine does not call it: a fix-point iteration goes from unsorted
/// candidate rows to its frontier in [`sort_unique`]. It stays, one walk on
/// the calling thread, as the reference the tests hold [`sort_unique`] to
/// and as a layer the repository benchmark measures.
pub fn unique<T, F>(device: &Device, columns: &[&[u64]], tags: &[T], or: F) -> (Columns, Vec<T>)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> T + Sync,
{
    let _t = device.launch(KernelKind::Sort);
    let len = columns.first().map_or(0, |c| c.len());
    let arena = device.arena();
    let mut out_cols: Columns = columns
        .iter()
        .map(|_| arena.alloc_empty(sites::UNIQUE_OUT, len))
        .collect();
    let mut out_tags: Vec<T> = Vec::new();
    for i in 0..len {
        match out_tags.last_mut() {
            Some(tag) if cmp_rows(columns, i - 1, columns, i).is_eq() => *tag = or(tag, &tags[i]),
            _ => {
                for (out, col) in out_cols.iter_mut().zip(columns) {
                    out.push(col[i]);
                }
                out_tags.push(tags[i].clone());
            }
        }
    }
    (out_cols, out_tags)
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
///
/// When one side is at least `GALLOP_RATIO` times as long as the other —
/// the fold of a small Δ into a big table — no row of the long side is
/// compared: the short side's places are galloped, and the long side's
/// stretches between them are copied whole.
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
    if lb > 0 && la / GALLOP_RATIO >= lb {
        let before = landing(a_cols, la, b_cols, false);
        return splice(device, a_cols, a_tags, b_cols, b_tags, before);
    }
    if la > 0 && lb / GALLOP_RATIO >= la {
        let before = landing(b_cols, lb, a_cols, true);
        return splice(device, b_cols, b_tags, a_cols, a_tags, before);
    }
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
    let pieces: PerChunk<Vec<T>> = run_chunks(
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
/// `ratio`, which crosses over near 8. `seek` reads it as a distance
/// instead: the number of linear steps it takes before galloping. The
/// executor reads it as the point where the known runs of [`sort_unique`]
/// are long enough next to its candidate batch that searching them costs
/// more than keeping a [`KnownSketch`] of them.
pub const GALLOP_RATIO: usize = 8;

/// First position in `from..len` at which the monotone `less` turns false:
/// linear steps while that stays within `GALLOP_RATIO` positions of `from`,
/// a gallop past them. So a carried cursor costs what the two-pointer walk
/// costs where the run is about as dense as the rows looked up, and what a
/// gallop costs where it is much denser, with no count of the distinct rows
/// needed up front.
fn seek(from: usize, len: usize, less: impl Fn(usize) -> bool) -> usize {
    let near = len.min(from + GALLOP_RATIO);
    match (from..near).find(|&j| !less(j)) {
        Some(j) => j,
        None => gallop(near, len, less),
    }
}

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
    let mut before = landing(a_cols, a_len, b_cols, false);
    (0..b_len).map(|j| before(j) + j).collect()
}

/// For the rows of the sorted `short` table, in order, the number of rows
/// of the sorted `long` table (`long_len` of them) that precede each in
/// their merge: those less than it — and, unless `short_first`, those equal
/// to it. One galloping cursor over `long`, carried from row to row.
fn landing<'a>(
    long: &'a [&'a [u64]],
    long_len: usize,
    short: &'a [&'a [u64]],
    short_first: bool,
) -> impl FnMut(usize) -> usize + 'a {
    let mut cursor = 0;
    move |j| {
        cursor = gallop(cursor, long_len, |i| match cmp_rows(long, i, short, j) {
            Ordering::Less => true,
            Ordering::Equal => !short_first,
            Ordering::Greater => false,
        });
        cursor
    }
}

/// The merge of `long` and `short`, where `before(j)` — asked once per row
/// of `short`, in order — is how many rows of `long` precede `short[j]`:
/// front to back, each stretch of `long` copied whole, into arena buffers
/// that are never zeroed.
fn splice<T: Clone>(
    device: &Device,
    long: &[&[u64]],
    long_tags: &[T],
    short: &[&[u64]],
    short_tags: &[T],
    mut before: impl FnMut(usize) -> usize,
) -> (Columns, Vec<T>) {
    let total = long_tags.len() + short_tags.len();
    let arena = device.arena();
    let mut columns: Columns = long
        .iter()
        .map(|_| arena.alloc_empty(sites::MERGE_OUT, total))
        .collect();
    let mut tags = Vec::with_capacity(total);
    let mut from = 0;
    for (j, tag) in short_tags.iter().enumerate() {
        let upto = before(j);
        for ((out, long), short) in columns.iter_mut().zip(long).zip(short) {
            out.extend_from_slice(&long[from..upto]);
            out.push(short[j]);
        }
        tags.extend_from_slice(&long_tags[from..upto]);
        tags.push(tag.clone());
        from = upto;
    }
    for (out, long) in columns.iter_mut().zip(long) {
        out.extend_from_slice(&long[from..]);
    }
    tags.extend_from_slice(&long_tags[from..]);
    (columns, tags)
}

/// Removes `rows` — sorted, and every one of them a row of the sorted
/// table `columns` / `tags` — in place: each is found by galloping from
/// the last, and the stretches between them move up, once each, the rows
/// after the first removed one. Nothing is allocated.
pub fn remove_sorted<T>(
    device: &Device,
    columns: &mut [Column],
    tags: &mut Vec<T>,
    rows: &[&[u64]],
) {
    let _t = device.launch(KernelKind::Other);
    let len = tags.len();
    let versus = |columns: &[Column], i: usize, j: usize| {
        for (column, row) in columns.iter().zip(rows) {
            match column[i].cmp(&row[j]) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    };
    // `read..` is what is left to keep or drop; `..write` what is kept.
    let (mut read, mut write) = (0, 0);
    for j in 0..rows.first().map_or(0, |c| c.len()) {
        let at = gallop(read, len, |i| versus(columns, i, j) == Ordering::Less);
        debug_assert!(
            at < len && versus(columns, at, j) == Ordering::Equal,
            "a row to remove is not in the table"
        );
        for column in columns.iter_mut() {
            column.copy_within(read..at, write);
        }
        for i in read..at {
            tags.swap(write + i - read, i);
        }
        write += at - read;
        read = at + 1;
    }
    for column in columns.iter_mut() {
        column.copy_within(read..len, write);
        column.truncate(write + len - read);
    }
    for i in read..len {
        tags.swap(write + i - read, i);
    }
    tags.truncate(write + len - read);
}

/// One key column of a stored table, read where it is stored: the `mask`
/// bits at `shift` of physical column `column` — a lane of a packed group
/// word, or (`shift` 0, `mask` all ones) a full-width column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyLane {
    /// The physical column holding the key column.
    pub column: usize,
    /// Bit offset of the key column within it.
    pub shift: u32,
    /// Mask of the key column's bits, before shifting.
    pub mask: u64,
}

/// `lookup(s̄, k̄)`: the rows of a stored table whose key equals some row of
/// `probes` — in stored order, each once, with their tags. The table must
/// be sorted on its key: `key` names the key columns in key order, read
/// from the stored words by [`KeyLane`], so a packed table is searched
/// without being unpacked; `probes` holds one column per key column, as
/// plain values.
///
/// The probe rows are sorted and deduplicated, then one cursor gallops
/// through the table from key to key, so the cost is
/// O(|probes| · log(|table| / |probes|) + matches), not O(|table|).
pub fn lookup<T: Clone>(
    device: &Device,
    stored: &[&[u64]],
    tags: &[T],
    key: &[KeyLane],
    probes: &[&[u64]],
) -> (Columns, Vec<T>) {
    let _t = device.launch(KernelKind::Join);
    debug_assert_eq!(key.len(), probes.len());
    let arena = device.arena();
    let probe_rows = probes.first().map_or(0, |c| c.len());
    let mut distinct = arena.alloc_empty(sites::LOOKUP_KEYS, probe_rows);
    distinct.extend(0..probe_rows as u64);
    let probe_order = |a: &u64, b: &u64| cmp_rows(probes, *a as usize, probes, *b as usize);
    distinct.sort_unstable_by(probe_order);
    distinct.dedup_by(|a, b| probe_order(a, b) == Ordering::Equal);
    // Row `row`'s key against probe row `p`.
    let versus = |row: usize, p: usize| {
        for (lane, probe) in key.iter().zip(probes) {
            let stored_key = (stored[lane.column][row] >> lane.shift) & lane.mask;
            match stored_key.cmp(&probe[p]) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    };
    // The stretch of rows each distinct probe key matches, as `(start,
    // end)` pairs, ascending.
    let len = tags.len();
    let mut cursor = 0;
    let mut total = 0;
    let mut bounds = arena.alloc_empty(sites::LOOKUP_KEYS, 2 * distinct.len());
    for &p in &distinct {
        let p = p as usize;
        let lo = gallop(cursor, len, |row| versus(row, p) == Ordering::Less);
        cursor = gallop(lo, len, |row| versus(row, p) != Ordering::Greater);
        if cursor > lo {
            bounds.extend([lo as u64, cursor as u64]);
            total += cursor - lo;
        }
    }
    arena.recycle(sites::LOOKUP_KEYS, distinct);
    let stretches = || bounds.chunks(2).map(|b| b[0] as usize..b[1] as usize);
    let columns = stored
        .iter()
        .map(|column| {
            let mut out = arena.alloc_empty(sites::LOOKUP_OUT, total);
            for stretch in stretches() {
                out.extend_from_slice(&column[stretch]);
            }
            out
        })
        .collect();
    let mut out_tags = Vec::with_capacity(total);
    for stretch in stretches() {
        out_tags.extend_from_slice(&tags[stretch]);
    }
    arena.recycle(sites::LOOKUP_KEYS, bounds);
    (columns, out_tags)
}

/// `diff(ā, b̄)`: rows of sorted table `a` that do not occur in sorted table
/// `b`, keeping `a`'s tags. (The update phase filters its candidate rows
/// inside [`sort_unique`] instead.)
///
/// `a` is cut into chunks; each worker binary-searches its start position in
/// `b` and walks its chunk **once**, writing the rows it keeps at the front
/// of its own slice of a kept-row index, so the kept-row set is
/// chunk-independent. A `b` at least 8× longer than `a` (`GALLOP_RATIO`)
/// advances its cursor by galloping — the cost then follows `a`, not `b`;
/// otherwise the cursor takes the linear two-pointer step. The choice reads
/// the two lengths only.
pub fn difference<T: Clone + Send + Sync>(
    device: &Device,
    a_cols: &[&[u64]],
    a_tags: &[T],
    b_cols: &[&[u64]],
    b_len: usize,
) -> (Columns, Vec<T>) {
    let _t = device.launch(KernelKind::Other);
    let a_len = a_tags.len();
    let arena = device.arena();
    let ranges = chunks_for(device, a_len);
    let gallops = b_len / GALLOP_RATIO >= a_len;
    let mut kept = arena.alloc_zeroed(sites::DIFF_KEPT, a_len);
    let slices = split_by_ranges(&mut kept, &ranges);
    let counts: PerChunk<usize> =
        run_chunks(device, &ranges, slices, |_, range, slice: &mut [u64]| {
            // The walk of the chunk begins at the first b-row not less than
            // its first a-row.
            let less = |j: usize, i: usize| cmp_rows(b_cols, j, a_cols, i).is_lt();
            let start = range.start;
            let mut j = if range.is_empty() {
                0
            } else {
                bisect(0, b_len, |j| less(j, start))
            };
            let mut k = 0;
            for i in range {
                if gallops {
                    j = gallop(j, b_len, |j| less(j, i));
                } else {
                    while j < b_len && less(j, i) {
                        j += 1;
                    }
                }
                if j == b_len || cmp_rows(b_cols, j, a_cols, i).is_ne() {
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
    let mut out_cols: Columns = Vec::with_capacity(a_cols.len());
    for col in a_cols {
        out_cols.push(par_map_column(device, sites::DIFF_OUT, total, |k| {
            col[kept[k] as usize]
        }));
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
    par_map_column(device, sites::COUNT_OUT, len, |i| {
        index.count_cols(probe_key_cols, i) as u64
    })
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

impl JoinColumn<'_> {
    /// Whether the column is read at the probe row.
    #[inline]
    fn on_probe(self) -> bool {
        matches!(self, JoinColumn::Probe(_) | JoinColumn::ProbeRow)
    }

    /// The column's value in the output row of build row `build` and probe
    /// row `probe`.
    #[inline]
    fn at(self, build: usize, probe: usize) -> u64 {
        match self {
            JoinColumn::Build(column) => column[build],
            JoinColumn::Probe(column) => column[probe],
            JoinColumn::BuildRow => build as u64,
            JoinColumn::ProbeRow => probe as u64,
        }
    }
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
/// `offsets[i]..offsets[i] + counts[i]`, each tagged with the conjunction of
/// its build row's and its probe row's tag. A row is one word per lane group
/// of `pack`, each lane's `column` indexing `columns`: the storage words of
/// the relation the rows are candidates for, written without a pass of
/// their own — or, through [`identity_lanes`], the columns as they are.
#[derive(Debug)]
pub struct JoinWrite<'a, T> {
    /// Per-probe-row match counts ([`count_matches`] / [`merge_count`]).
    pub counts: &'a [u64],
    /// Their exclusive prefix sum ([`scan`]).
    pub offsets: &'a [u64],
    /// The output columns, in output order.
    pub columns: &'a [JoinColumn<'a>],
    /// The lane groups `columns` are packed into, one output word each
    /// ([`pack_columns`]' groups).
    pub pack: &'a [Vec<PackLane>],
    /// Tags of the build side, by build row.
    pub build_tags: &'a [T],
    /// Tags of the probe side, by probe row.
    pub probe_tags: &'a [T],
}

/// `join⟨W⟩(b̄, ā, h, c, o)`: the write pass of a join, hash or merge. Emits
/// the output *words* and `mul(build tag, probe tag)` of every matching
/// (build row, probe row) pair directly — no index pairs are materialized
/// and nothing is gathered afterwards, so a column nobody asked for is
/// never written. Returns the words, one column per group of `write.pack`,
/// and the tags. A write through any groups equals [`pack_columns`] over
/// the write through [`identity_lanes`].
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
        write.pack,
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
        &identity_lanes(2),
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
/// asks the build side for their range, then fills the word of each lane
/// group of `pack`, ORing its probe lanes once for the row and its build
/// lanes once per match. The tags fold over the range too. `tag(build row, probe row)` makes one output tag.
#[allow(clippy::too_many_arguments)]
fn write_matches<T, F>(
    device: &Device,
    build: JoinBuild<'_>,
    probe_key_cols: &[&[u64]],
    counts: &[u64],
    offsets: &[u64],
    columns: &[JoinColumn<'_>],
    pack: &[Vec<PackLane>],
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
    let mut out_cols: Columns = pack
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
    let pieces: PerChunk<Vec<T>> = run_chunks(
        device,
        &ranges,
        col_slices,
        |c, range, outs: Vec<&mut [u64]>| {
            let tags = Vec::with_capacity(out_bounds[c].len());
            match build {
                JoinBuild::Hash(index) => {
                    write_chunk(range, counts, columns, pack, outs, tags, &tag, |i, _| {
                        let rows = index.matches_cols(probe_key_cols, i);
                        rows.iter().map(|&row| row as usize)
                    })
                }
                JoinBuild::Sorted(build_key_cols) => {
                    // The cursor carries the previous lower bound forward:
                    // over a sorted probe side the searches degrade into an
                    // amortized linear merge.
                    let mut cursor = 0;
                    write_chunk(range, counts, columns, pack, outs, tags, &tag, |i, n| {
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
#[allow(clippy::too_many_arguments)]
fn write_chunk<T, R>(
    range: Range<usize>,
    counts: &[u64],
    columns: &[JoinColumn<'_>],
    pack: &[Vec<PackLane>],
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
        for (out, lanes) in outs.iter_mut().zip(pack) {
            write_word(&mut out[k..k + n], lanes, columns, i, rows.clone());
        }
        tags.extend(rows.map(|row| tag(row, i)));
        k += n;
    }
    debug_assert_eq!(k, tags.len(), "counts disagree with probe matches");
    debug_assert!(outs.iter().all(|out| out.len() == k));
    tags
}

/// One lane group's words for probe row `i`'s matches `rows`: the probe
/// lanes ORed once, each build lane ORed per match.
fn write_word(
    out: &mut [u64],
    lanes: &[PackLane],
    columns: &[JoinColumn<'_>],
    i: usize,
    rows: impl Iterator<Item = usize>,
) {
    let mut base = 0;
    let mut build = None;
    let mut build_lanes = 0;
    for lane in lanes {
        match columns[lane.column] {
            column if column.on_probe() => base |= lane.place(column.at(0, i)),
            column => {
                build = Some((lane, column));
                build_lanes += 1;
            }
        }
    }
    match build {
        // Probe lanes only: one word for every match.
        None => out.fill(base),
        // One build column — an identity layout's, or TC's `y` beside a
        // probe lane — is a plain gather: through the fold below the write
        // pass costs a fifth to two fifths more.
        Some((lane, JoinColumn::Build(values))) if build_lanes == 1 => {
            for (slot, row) in out.iter_mut().zip(rows) {
                *slot = base | lane.place(values[row]);
            }
        }
        _ => {
            for (slot, row) in out.iter_mut().zip(rows) {
                *slot = lanes.iter().fold(base, |bits, lane| {
                    let column = columns[lane.column];
                    if column.on_probe() {
                        bits
                    } else {
                        bits | lane.place(column.at(row, i))
                    }
                });
            }
        }
    }
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
    fn gather_tags_follow_indices() {
        let d = dev();
        let tags = vec!["a", "b", "c"];
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
        let sorted: Vec<Column> = cols
            .iter()
            .map(|col| perm.iter().map(|&i| col[i as usize]).collect())
            .collect();
        let stags = gather_tags(&d, &perm, &tags);
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
            pack: &identity_lanes(2),
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
    fn kernels_record_launches_and_times() {
        let d = dev();
        let _ = scan(&d, &[1, 2, 3]);
        let big: Vec<u64> = (0..100_000u64)
            .map(|i| (i * 2_654_435_761) % 4096)
            .collect();
        let _ = sort_permutation(&d, &[&big[..]]);
        let metrics = d.metrics();
        assert!(metrics.get("kernel_launches") >= Some(2));
        assert!(
            metrics.get("kernel_time.sort_ns") > Some(0),
            "sort time attributed"
        );
    }

    #[test]
    fn kernel_outputs_recycle_through_the_arena() {
        let d = dev();
        let counts = vec![1u64; 128];
        let (offsets, _) = scan(&d, &counts);
        d.arena().recycle_shared(offsets);
        let before = d.arena().metrics();
        let (_offsets, _) = scan(&d, &counts);
        let moved = d.arena().metrics().delta_since(&before);
        assert_eq!(moved.get("fresh_columns"), Some(0));
        assert_eq!(moved.get("reused_columns"), Some(1));
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
