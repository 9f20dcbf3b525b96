//! The tagged, columnar database held on the (simulated) device.
//!
//! # Narrow, packed storage
//!
//! Every database is built from a [`StoragePlan`] and stores every relation
//! in *packed* form: its layout, the lane groups [`plan_lanes`] plans, fuses
//! adjacent narrow columns (bools, `u32`s, symbols — each symbol as its
//! interner id in a 4-byte lane) into shared `u64` group words, and every
//! [`SortedTable`] holds the group columns instead of one word per logical
//! column. Packing is order-preserving — the first column takes the
//! most-significant lane — so a packed table's rows ascend in logical
//! lexicographic order, and the kernels sort, merge, difference and
//! deduplicate group words without knowing the layout. Every layout has
//! lanes: one of 8-byte columns only plans the identity lanes
//! ([`kernels::identity_lanes`]), one whole-word lane per group, and goes
//! through the same pack and unpack kernels as any other.
//!
//! A relation's layout depends on its column types alone, so the plan fixes
//! it once for the program, and every database started from the plan shares
//! it. A relation is one record: its schema and layout, its partitions and
//! orders, and the facts inserted since the last seal. Facts enter
//! ([`Database::insert`]) and leave ([`Database::rows`]) one word per column;
//! they are packed at [`Database::seal`] and unpacked at extraction.
//!
//! # Secondary orders
//!
//! A materialized database may keep, beside a relation, a copy of its rows
//! with some key columns brought to the front and sorted on them
//! ([`SecondaryOrder`], [`Database::build_orders`]): what a join that reads
//! the relation on a key that is not a prefix of its columns looks rows up
//! in. An order is not a relation — no name lists it — but it is part of the
//! relation's storage. It holds a layout of its own, planned from its
//! permuted column types, and every pass that rewrites the relation's table
//! rewrites it too.

use lobster_gpu::kernels::{KeyLane, PackLane};
use lobster_gpu::{kernels, Column, Columns, Device, KnownSketch};
use lobster_provenance::Provenance;
use lobster_ram::{RamProgram, RelationSchema, Tuple, Value, ValueType};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Returns dead columns to the device arena (capacity-less vectors are
/// dropped — there is nothing to reuse).
pub(crate) fn recycle_columns(device: &Device, columns: Columns) {
    for col in columns {
        if col.capacity() > 0 {
            device.arena().recycle_shared(col);
        }
    }
}

/// A lexicographically sorted, duplicate-free table: the canonical storage
/// format for a relation partition.
///
/// Tables are stored column-wise (flat `u64` columns plus one tag vector), the
/// layout Section 2.4 argues for: columnar data is cache- and
/// memory-bandwidth-friendly and suits the per-column kernels the relational
/// operators compile to.
#[derive(Debug, Clone)]
pub struct SortedTable<P: Provenance> {
    /// Column data (may be empty for nullary relations).
    pub columns: Columns,
    /// One provenance tag per row.
    pub tags: Vec<P::Tag>,
    arity: usize,
}

impl<P: Provenance> SortedTable<P> {
    /// An empty table of the given arity.
    pub fn empty(arity: usize) -> Self {
        SortedTable {
            columns: vec![Vec::new(); arity],
            tags: Vec::new(),
            arity,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Approximate device bytes occupied by the table.
    pub fn size_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.len() * 8).sum::<usize>()
            + self.tags.len() * std::mem::size_of::<P::Tag>()
    }

    fn col_refs(&self) -> Vec<&[u64]> {
        self.columns.iter().map(|c| c.as_slice()).collect()
    }

    /// Builds a sorted, deduplicated table from unsorted rows, merging the
    /// tags of duplicate rows with the semiring disjunction. The consumed
    /// input columns and every sorting intermediate are recycled into the
    /// device arena.
    pub fn from_unsorted(device: &Device, prov: &P, columns: Columns, tags: Vec<P::Tag>) -> Self {
        Self::from_unsorted_minus(device, prov, columns, tags, &[], None).0
    }

    /// [`SortedTable::from_unsorted`] less the rows present in any of the
    /// `known` tables (all of the rows' arity): the tags of duplicate rows
    /// fold first, in input order, and the filter applies to the folded
    /// rows. Every width but the nullary one is one kernel launch
    /// ([`kernels::sort_unique`]): its sorted, duplicate-free or filtered
    /// intermediates are never written. `sketch`, if given, holds every
    /// known row. Also returns the distinct rows searched in `known`.
    pub(crate) fn from_unsorted_minus(
        device: &Device,
        prov: &P,
        columns: Columns,
        tags: Vec<P::Tag>,
        known: &[&SortedTable<P>],
        sketch: Option<&KnownSketch>,
    ) -> (Self, usize) {
        let arity = columns.len();
        let known: Vec<&SortedTable<P>> = known.iter().copied().filter(|t| !t.is_empty()).collect();
        if tags.is_empty() || (arity == 0 && !known.is_empty()) {
            // No rows, or a nullary fact that already exists.
            recycle_columns(device, columns);
            return (Self::empty(arity), 0);
        }
        if arity == 0 {
            // A nullary relation holds at most one fact; fold all tags.
            let mut iter = tags.into_iter();
            // cannot fail: `tags` is not empty, checked above.
            let first = iter.next().expect("non-empty tags");
            let folded = iter.fold(first, |acc, t| prov.add(&acc, &t));
            let table = SortedTable {
                columns: Vec::new(),
                tags: vec![folded],
                arity,
            };
            return (table, 0);
        }
        // The candidate's columns, then every known table's.
        let refs: Vec<&[u64]> = std::iter::once(&columns)
            .chain(known.iter().map(|t| &t.columns))
            .flatten()
            .map(Vec::as_slice)
            .collect();
        let (candidate, known) = refs.split_at(arity);
        let or = |a: &P::Tag, b: &P::Tag| prov.add(a, b);
        let (out_columns, out_tags, searched) =
            kernels::sort_unique(device, candidate, &tags, or, known, sketch);
        recycle_columns(device, columns);
        let table = SortedTable {
            columns: out_columns,
            tags: out_tags,
            arity,
        };
        (table, searched)
    }

    /// Returns the table's columns to the device arena. Call when the table
    /// is dead and its buffers should feed the next iteration's allocations.
    pub fn recycle(self, device: &Device) {
        recycle_columns(device, self.columns);
    }

    /// Moves the table out, leaving an empty one of the same arity.
    pub(crate) fn take(&mut self) -> Self {
        std::mem::replace(self, SortedTable::empty(self.arity))
    }

    /// Consuming [`SortedTable::merge_disjoint`]: when either side is empty
    /// the other is returned *as is* (no copy, no allocation), and consumed
    /// inputs are recycled into the device arena — the steady-state shape of
    /// the executor's update phase.
    pub fn merge_disjoint_owned(device: &Device, a: SortedTable<P>, b: SortedTable<P>) -> Self {
        if a.is_empty() {
            a.recycle(device);
            return b;
        }
        if b.is_empty() {
            b.recycle(device);
            return a;
        }
        let merged = a.merge_disjoint(device, &b);
        a.recycle(device);
        b.recycle(device);
        merged
    }

    /// Merges two sorted tables whose row sets are disjoint.
    pub fn merge_disjoint(&self, device: &Device, other: &SortedTable<P>) -> SortedTable<P> {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        if self.arity == 0 {
            // Keep a single fact; disjointness means at most one side is
            // non-empty, but fold defensively.
            let mut tags = self.tags.clone();
            tags.extend(other.tags.iter().cloned());
            return SortedTable {
                columns: Vec::new(),
                tags: vec![tags.remove(0)],
                arity: 0,
            };
        }
        let (columns, tags) = kernels::merge(
            device,
            &self.col_refs(),
            &self.tags,
            &other.col_refs(),
            &other.tags,
        );
        SortedTable {
            columns,
            tags,
            arity: self.arity,
        }
    }

    /// Rows of `candidate` (sorted) that are not present in `self`.
    pub fn difference_from(&self, device: &Device, candidate: &SortedTable<P>) -> SortedTable<P> {
        if candidate.is_empty() || self.is_empty() {
            return candidate.clone();
        }
        if self.arity == 0 {
            // The fact already exists; nothing is new.
            return SortedTable::empty(0);
        }
        let (columns, tags) = kernels::difference(
            device,
            &candidate.col_refs(),
            &candidate.tags,
            &self.col_refs(),
            self.len(),
        );
        SortedTable {
            columns,
            tags,
            arity: self.arity,
        }
    }

    /// Removes `rows` — sorted, and every one of them a row of `self` — in
    /// place ([`kernels::remove_sorted`]): each is found by galloping, and
    /// the rows after the first removed one move up once.
    pub(crate) fn remove_rows(&mut self, device: &Device, rows: &SortedTable<P>) {
        if rows.is_empty() {
            return;
        }
        if self.arity == 0 {
            self.tags.clear();
            return;
        }
        kernels::remove_sorted(device, &mut self.columns, &mut self.tags, &rows.col_refs());
    }

    /// The index each row of `other` takes in
    /// [`self.merge_disjoint(other)`](SortedTable::merge_disjoint), from the
    /// comparison the merge itself makes — so a reader holding the rows of
    /// `self` in stored order can splice in those of `other` without
    /// looking at either table again.
    pub fn merge_positions(&self, device: &Device, other: &SortedTable<P>) -> Vec<usize> {
        kernels::merge_positions(
            device,
            &self.col_refs(),
            self.len(),
            &other.col_refs(),
            other.len(),
        )
    }
}

/// What `benchmark/` still hands [`Database::new_encoded`], and ignored:
/// a layout depends on the column types alone. The next change to
/// `benchmark/` drops it.
#[derive(Debug, Clone, Default)]
pub struct EncodingSpec {
    /// Ignored: a symbol is stored as its interner id, so no program
    /// constant needs a place in the storage.
    #[doc(hidden)]
    pub symbol_constants: Vec<u32>,
    /// Ignored: every program stores `u32` lanes 4 bytes wide.
    #[doc(hidden)]
    pub widen_u32: bool,
}

/// How a database stores its relations, decided from the program's schemas
/// alone: every relation's `Layout`, its schema and lane groups.
///
/// A plan is built once per program and shared: every database a run
/// starts from it ([`Database::from_plan`]) holds each relation's layout by
/// `Arc`. A scratch relation a refresh adds and a secondary order a
/// materialized database keeps plan layouts of their own, outside the plan.
#[derive(Debug, Clone)]
pub struct StoragePlan {
    layouts: BTreeMap<String, Arc<Layout>>,
}

impl StoragePlan {
    /// The storage every run of `ram` uses: packed group columns, planned
    /// from the schemas alone.
    ///
    /// There is one layout per column type list, whatever the program's
    /// rules compute: `u32` arithmetic wraps at 32 bits and the validator
    /// rejects arithmetic over symbols, so no column ever holds a word its
    /// lane cannot.
    pub fn for_program(ram: &RamProgram) -> StoragePlan {
        StoragePlan::new(ram.schemas.clone())
    }

    /// The storage of relations with these schemas.
    fn new(schemas: BTreeMap<String, RelationSchema>) -> Self {
        let layouts = schemas
            .into_iter()
            .map(|(name, schema)| (name, Arc::new(Layout::new(schema))))
            .collect();
        StoragePlan { layouts }
    }

    /// The layout `relation` is stored in, its lane groups, or `None` for
    /// an unknown relation.
    pub fn lanes(&self, relation: &str) -> Option<&[Vec<PackLane>]> {
        self.layouts.get(relation).map(|l| l.lanes.as_slice())
    }
}

/// The layout of a relation with these column types: its lane groups, each
/// one stored `u64` word, every column as wide as its
/// [`ValueType::physical_width`]. The packing is greedy and
/// **order-preserving**: columns are taken left to right, a group takes
/// columns until the next would pass 8 bytes, and within a group the first
/// column takes the most-significant lane. Comparing rows word by word
/// therefore equals comparing them column by column. A `u32` lane is 4
/// bytes in every program: `u32` arithmetic wraps at 32 bits, so no column
/// holds a wider word. Columns of 8 bytes only plan
/// [`kernels::identity_lanes`].
///
/// The one planner: the database stores a relation in these lanes, and the
/// compiler gives a join that feeds a `store` the lanes of the stored
/// relation's column types.
pub(crate) fn plan_lanes(types: &[ValueType]) -> Vec<Vec<PackLane>> {
    let mut groups = Vec::new();
    let mut group: Vec<PackLane> = Vec::new();
    let mut used = 0;
    for (column, ty) in types.iter().enumerate() {
        let bytes = ty.physical_width();
        if used + bytes > 8 {
            groups.push(std::mem::take(&mut group));
            used = 0;
        }
        // The new lane is the least significant: the group's earlier lanes
        // move up by its width.
        let bits = 8 * bytes as u32;
        for lane in &mut group {
            lane.shift += bits;
        }
        let mask = u64::MAX >> (64 - bits);
        group.push(PackLane {
            column,
            shift: 0,
            mask,
        });
        used += bytes;
    }
    if !group.is_empty() {
        groups.push(group);
    }
    groups
}

/// How the rows of a relation, or of a secondary order, are stored: the
/// schema and the lane groups [`plan_lanes`] plans from its column types.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    pub(crate) schema: RelationSchema,
    pub(crate) lanes: Vec<Vec<PackLane>>,
}

impl Layout {
    fn new(schema: RelationSchema) -> Layout {
        let lanes = plan_lanes(&schema.arg_types);
        Layout { schema, lanes }
    }

    /// Where the first `width` logical columns of the stored rows sit in
    /// their group words: the first `width` lanes, since a layout packs the
    /// columns in order.
    pub(crate) fn key_lanes(&self, width: usize) -> Vec<KeyLane> {
        let groups = self.lanes.iter().enumerate();
        let lanes = groups.flat_map(|(g, lanes)| {
            lanes.iter().map(move |lane| KeyLane {
                column: g,
                shift: lane.shift,
                mask: lane.mask,
            })
        });
        lanes.take(width).collect()
    }

    /// Stored columns as logical columns, one word per column as registers
    /// hold them: fresh arena columns.
    pub(crate) fn unpack(&self, device: &Device, stored: &[Column]) -> Columns {
        let refs: Vec<&[u64]> = stored.iter().map(|c| c.as_slice()).collect();
        kernels::unpack_columns(device, &refs, &self.lanes, self.schema.arity())
    }

    /// Logical columns packed into the stored group words, consuming them.
    pub(crate) fn pack(&self, device: &Device, logical: Columns) -> Columns {
        let refs: Vec<&[u64]> = logical.iter().map(|c| c.as_slice()).collect();
        let packed = kernels::pack_columns(device, &refs, &self.lanes);
        drop(refs);
        recycle_columns(device, logical);
        packed
    }

    /// The one decode walk: every row of `table` goes from stored group
    /// words to a tuple, lane by lane, paired with `output` of its tag. One
    /// scratch row serves the whole table; the only allocation per row is its
    /// tuple. Scalar and host-side (no [`Device`] at hand), which is a choice,
    /// not a sign that decode is cold: it is a fifth of a `tc_chain` or
    /// `tc_dense` request.
    fn decode_into<P: Provenance, T>(
        &self,
        table: &SortedTable<P>,
        output: &mut impl FnMut(&P::Tag) -> T,
        rows: &mut Vec<(Tuple, T)>,
    ) {
        if table.is_empty() {
            return;
        }
        let mut words = vec![0u64; self.schema.arity()];
        for (row, tag) in table.tags.iter().enumerate() {
            for (group, column) in self.lanes.iter().zip(&table.columns) {
                let word = column[row];
                for lane in group {
                    words[lane.column] = (word >> lane.shift) & lane.mask;
                }
            }
            let tuple: Tuple = words
                .iter()
                .zip(&self.schema.arg_types)
                .map(|(word, ty)| Value::decode(*word, *ty))
                .collect();
            rows.push((tuple, output(tag)));
        }
    }
}

/// One relation: its [`Layout`], the semi-naive partitions, the staged delta
/// candidates produced by `store` instructions during the current iteration,
/// and the facts inserted since the last [`Database::seal`].
///
/// # The stable partition as sorted runs
///
/// While the stratum that defines the relation is running, its stable
/// partition is a set of sorted, pairwise disjoint runs: `stable` is the
/// oldest and longest, `runs` the newer ones, oldest first, every run more
/// than twice as long as the next. A finished frontier is pushed as the
/// newest run ([`RelationData::push_run`]) and merged into its older
/// neighbour only while that neighbour is at most twice its size, so a row
/// is rewritten O(log) times over a whole fix point instead of once per
/// iteration. **At rest — outside `Executor::run_stratum_from` and a
/// refresh — `runs` and `recent` are empty** and `stable` is the whole
/// relation as one sorted table, whichever stratum derived it, recursive or
/// not. Every reader outside the executor relies on that, and so does the
/// join planner, which takes an `all` load of a relation the running
/// stratum does not update as sorted. Only a refresh holds a relation split
/// between two strata (`stable` the old table, `recent` its Δ), and it folds
/// every split before it returns.
///
/// `orders` are the relation's secondary orders: each holds exactly the
/// rows of `stable`, whenever the relation is at rest.
///
/// # The known-row sketch
///
/// `sketch`, when the running stratum keeps one, is a [`KnownSketch`] of
/// every row of the stable partition's runs and of `recent` — every row the
/// next update diffs against — at 16 or more bits per row, in words from
/// the device arena. [`RelationData::new_facts`] hands it to
/// [`kernels::sort_unique`], which emits a candidate row the sketch rules
/// out without searching the runs for it. The update phase builds it
/// ([`RelationData::build_sketch`]) at the first iteration where the run
/// has derived at least the rows it entered with and
/// [`GALLOP_RATIO`](kernels::GALLOP_RATIO)× the iteration's candidate rows,
/// the runs hold at least `min_parallel_rows` rows, and the previous update
/// found at least half of its distinct candidate rows new (the first one
/// counts as new). The build hashes each known row once — at most two per
/// row the run has derived — every later frontier is hashed once more as it
/// goes in ([`RelationData::sketch_recent`]), and growing 4× at a time
/// re-hashes at most 4/3 of the rows the sketch ends up holding. **At rest
/// `sketch` is `None`**: it is recycled when the stratum ends, however it
/// ends.
#[derive(Debug, Clone)]
pub(crate) struct RelationData<P: Provenance> {
    /// The schema and layout: the plan's, shared by every database started
    /// from it.
    pub(crate) layout: Arc<Layout>,
    pub(crate) stable: SortedTable<P>,
    pub(crate) runs: Vec<SortedTable<P>>,
    pub(crate) recent: SortedTable<P>,
    pub(crate) staged: Vec<(Columns, Vec<P::Tag>)>,
    pub(crate) orders: Vec<Order<P>>,
    /// Boxed: every relation of every `Database` carries the field, and
    /// only a long fix point fills it.
    pub(crate) sketch: Option<Box<KnownSketch>>,
    /// The facts inserted since the last seal, one word per column. Boxed
    /// and allocated at the relation's first insert: only inputs take any.
    pending: Option<Box<(Columns, Vec<P::Tag>)>>,
}

impl<P: Provenance> RelationData<P> {
    fn new(layout: Arc<Layout>) -> Self {
        let arity = layout.lanes.len();
        RelationData {
            layout,
            stable: SortedTable::empty(arity),
            runs: Vec::new(),
            recent: SortedTable::empty(arity),
            staged: Vec::new(),
            orders: Vec::new(),
            sketch: None,
            pending: None,
        }
    }

    /// Total number of facts (stable, including its runs, + recent).
    pub(crate) fn len(&self) -> usize {
        self.stable_tables().map(SortedTable::len).sum::<usize>() + self.recent.len()
    }

    /// Approximate device bytes occupied by every partition, run and
    /// secondary order, and the known-row sketch.
    fn size_bytes(&self) -> usize {
        let orders = self.orders.iter().map(|order| &order.table);
        self.stable_tables()
            .chain(orders)
            .map(SortedTable::size_bytes)
            .sum::<usize>()
            + self.recent.size_bytes()
            + self.sketch.as_ref().map_or(0, |sketch| sketch.size_bytes())
    }

    /// The secondary order keyed on `key`, if the relation keeps one.
    pub(crate) fn order(&self, key: &[usize]) -> Option<&Order<P>> {
        self.orders.iter().find(|order| order.key == key)
    }

    /// The tables making up the stable partition, oldest first.
    pub(crate) fn stable_tables(&self) -> impl Iterator<Item = &SortedTable<P>> {
        std::iter::once(&self.stable).chain(&self.runs)
    }

    /// Merges two disjoint runs, adding the rows the merge writes to
    /// `written` (nothing when a side is empty: the other is moved).
    fn merge_runs(
        device: &Device,
        older: SortedTable<P>,
        newer: SortedTable<P>,
        written: &mut usize,
    ) -> SortedTable<P> {
        if !older.is_empty() && !newer.is_empty() {
            *written += older.len() + newer.len();
        }
        SortedTable::merge_disjoint_owned(device, older, newer)
    }

    /// Adds `run` — sorted and disjoint from everything already stable — as
    /// the newest run, then restores the size invariant by merging it into
    /// its older neighbour while that neighbour is at most twice as long.
    /// With `keep_stable` the cascade stops at the oldest run: a seeded run
    /// entered with `stable` holding a materialized fix point, which must
    /// come out as it went in, so the runs stay geometric among themselves
    /// only. Returns the number of rows the merges wrote.
    pub(crate) fn push_run(
        &mut self,
        device: &Device,
        run: SortedTable<P>,
        keep_stable: bool,
    ) -> usize {
        if run.is_empty() {
            run.recycle(device);
            return 0;
        }
        let mut written = 0;
        let mut top = run;
        while let Some(older) = self.runs.pop() {
            if older.len() > 2 * top.len() {
                self.runs.push(older);
                break;
            }
            top = Self::merge_runs(device, older, top, &mut written);
        }
        if !keep_stable && self.runs.is_empty() && self.stable.len() <= 2 * top.len() {
            self.stable = Self::merge_runs(device, self.stable.take(), top, &mut written);
        } else {
            self.runs.push(top);
        }
        written
    }

    /// Takes the runs out, folded into one table newest first (the sizes
    /// grow geometrically towards the old end, so the partial merges sum to
    /// at most twice the result), adding the rows the merges write to
    /// `written`. `stable` is not touched.
    pub(crate) fn fold_runs(&mut self, device: &Device, written: &mut usize) -> SortedTable<P> {
        let mut folded = self
            .runs
            .pop()
            .unwrap_or_else(|| SortedTable::empty(self.stable.arity()));
        while let Some(older) = self.runs.pop() {
            folded = Self::merge_runs(device, older, folded, written);
        }
        folded
    }

    /// Folds every run back into `stable`. Restores the at-rest invariant;
    /// returns the number of rows the merges wrote.
    pub(crate) fn compact(&mut self, device: &Device) -> usize {
        if self.runs.is_empty() {
            return 0;
        }
        let mut written = 0;
        let folded = self.fold_runs(device, &mut written);
        self.stable = Self::merge_runs(device, self.stable.take(), folded, &mut written);
        written
    }

    /// The next frontier from an iteration's unsorted candidate rows (in
    /// storage encoding): the distinct rows, their duplicate tags folded,
    /// that are in no run of the stable partition — and the number of
    /// distinct rows searched in those runs, which the sketch, if there is
    /// one, keeps down to the rows it cannot rule out.
    pub(crate) fn new_facts(
        &self,
        device: &Device,
        prov: &P,
        columns: Columns,
        tags: Vec<P::Tag>,
    ) -> (SortedTable<P>, usize) {
        let known: Vec<&SortedTable<P>> = self.stable_tables().collect();
        let sketch = self.sketch.as_deref();
        SortedTable::from_unsorted_minus(device, prov, columns, tags, &known, sketch)
    }

    /// Builds the known-row sketch over every row of the stable partition
    /// and `recent` (see the type's docs for when), and recycles the one it
    /// replaces, if any — after the build, so the build cannot pop its
    /// smaller words.
    pub(crate) fn build_sketch(&mut self, device: &Device) {
        let tables: Vec<&[Column]> = self
            .stable_tables()
            .chain(std::iter::once(&self.recent))
            .map(|table| table.columns.as_slice())
            .collect();
        let sketch = Box::new(KnownSketch::build(device, &tables));
        if let Some(old) = self.sketch.replace(sketch) {
            old.recycle(device);
        }
    }

    /// Adds the rows of `recent`, a frontier just made, to the sketch if the
    /// relation keeps one, rebuilding it 4× larger when it is full.
    pub(crate) fn sketch_recent(&mut self, device: &Device) {
        let Some(sketch) = &mut self.sketch else {
            return;
        };
        if !sketch.insert(&self.recent.columns) {
            self.build_sketch(device);
        }
    }

    /// Returns the sketch's words to the arena: the stratum is over.
    pub(crate) fn recycle_sketch(&mut self, device: &Device) {
        if let Some(sketch) = self.sketch.take() {
            sketch.recycle(device);
        }
    }
}

/// A secondary order a database keeps beside a relation: the relation's
/// rows with the `key` columns brought to the front, sorted on them. A join
/// that reads the relation on `key` can then look up the rows it needs
/// (`Instr::Lookup`) instead of reading the whole table.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SecondaryOrder {
    /// The relation.
    pub relation: String,
    /// The key: relation columns, in key order.
    pub key: Vec<usize>,
}

/// One secondary order with its rows.
#[derive(Debug, Clone)]
pub(crate) struct Order<P: Provenance> {
    /// The key, as in [`SecondaryOrder::key`].
    pub(crate) key: Vec<usize>,
    /// `columns[i]` is the relation column stored as column `i` of the
    /// order: the key, then the other columns ascending.
    pub(crate) columns: Vec<usize>,
    /// The layout of the order's column types.
    pub(crate) layout: Layout,
    /// The rows, sorted.
    pub(crate) table: SortedTable<P>,
}

impl<P: Provenance> Order<P> {
    /// The rows of `table` — rows of the relation, stored in `stored` — as
    /// rows of the order, sorted.
    fn reordered(
        &self,
        device: &Device,
        prov: &P,
        stored: &Layout,
        table: &SortedTable<P>,
    ) -> SortedTable<P> {
        let mut logical: Vec<Option<Column>> = stored
            .unpack(device, &table.columns)
            .into_iter()
            .map(Some)
            .collect();
        let permuted = self
            .columns
            .iter()
            // cannot fail: `self.columns` is a permutation of the columns.
            .map(|&c| logical[c].take().expect("each column once"))
            .collect();
        let columns = self.layout.pack(device, permuted);
        SortedTable::from_unsorted(device, prov, columns, table.tags.clone())
    }
}

/// How a relation's `stable` partition just changed — what its secondary
/// orders must follow ([`Database::update_orders`]).
#[derive(Clone, Copy)]
pub(crate) enum Stable<'a, P: Provenance> {
    /// These rows, in the relation's stored layout, were merged into it.
    Gained(&'a SortedTable<P>),
    /// These rows were removed from it.
    Lost(&'a SortedTable<P>),
}

/// The tagged, columnar database: every relation's facts plus the semi-naive
/// partitions used during fix-point execution.
///
/// Relations hold packed group columns in the layouts of the
/// [`StoragePlan`] the database was built from; facts go in and come out
/// one word per logical column (see the module docs).
#[derive(Debug, Clone)]
pub struct Database<P: Provenance> {
    relations: BTreeMap<String, RelationData<P>>,
    provenance: P,
}

impl<P: Provenance> Database<P> {
    /// Creates an empty database for the given schemas, stored in the
    /// layouts their column types plan — as [`Database::from_plan`] with
    /// the plan of a program with these schemas.
    pub fn new(schemas: BTreeMap<String, RelationSchema>, provenance: P) -> Self {
        Self::from_plan(&StoragePlan::new(schemas), provenance)
    }

    /// [`Database::new`]; `spec` is ignored ([`EncodingSpec`]).
    pub fn new_encoded(
        schemas: BTreeMap<String, RelationSchema>,
        provenance: P,
        _spec: &EncodingSpec,
    ) -> Self {
        Self::new(schemas, provenance)
    }

    /// Creates an empty database stored as `plan` says, sharing the plan's
    /// layouts.
    pub fn from_plan(plan: &StoragePlan, provenance: P) -> Self {
        let relations = plan
            .layouts
            .iter()
            .map(|(name, layout)| (name.clone(), RelationData::new(Arc::clone(layout))))
            .collect();
        Database {
            relations,
            provenance,
        }
    }

    /// Builds a sorted table in this database's storage encoding from
    /// logical columns, less the rows the relation's `stable` partition
    /// already holds when `minus_stable` is set.
    pub(crate) fn encoded_from_unsorted(
        &self,
        device: &Device,
        relation: &str,
        columns: Columns,
        tags: Vec<P::Tag>,
        minus_stable: bool,
    ) -> SortedTable<P> {
        let data = &self.relations[relation];
        let columns = data.layout.pack(device, columns);
        let known: &[&SortedTable<P>] = if minus_stable { &[&data.stable] } else { &[] };
        SortedTable::from_unsorted_minus(device, &self.provenance, columns, tags, known, None).0
    }

    /// Adds an empty relation with the given column types, stored in the
    /// layout those types plan — the layout of every other relation of the
    /// same types. A refresh derives its scratch relations here or through
    /// [`Database::add_relation_like`], beside the materialized ones, and
    /// removes them with [`Database::remove_relation`].
    pub(crate) fn add_relation(&mut self, name: &str, arg_types: Vec<ValueType>) {
        let layout = Layout::new(RelationSchema::new(name, arg_types));
        let data = RelationData::new(Arc::new(layout));
        self.relations.insert(name.to_string(), data);
    }

    /// [`Database::add_relation`] with `base`'s columns: the new relation
    /// shares `base`'s layout, schema name included, instead of planning
    /// its own.
    pub(crate) fn add_relation_like(&mut self, name: &str, base: &str) {
        let data = RelationData::new(self.relations[base].layout.clone());
        self.relations.insert(name.to_string(), data);
    }

    /// Drops a relation [`Database::add_relation`] added, recycling its
    /// tables.
    pub(crate) fn remove_relation(&mut self, device: &Device, name: &str) {
        if let Some(data) = self.relations.remove(name) {
            data.stable.recycle(device);
            data.recent.recycle(device);
        }
    }

    /// Keeps each of `orders` from now on: built here from its relation's
    /// `stable` partition, which is all of the relation wherever the
    /// planner ([`secondary_orders`](crate::secondary_orders)) names one —
    /// every relation, at rest. A refresh under a
    /// [`delta_exact`](lobster_provenance::Provenance::delta_exact)
    /// provenance rewrites an order wherever it rewrites its relation; one
    /// under any other provenance recomputes tables and keeps no orders.
    pub fn build_orders(&mut self, device: &Device, orders: &[SecondaryOrder]) {
        for SecondaryOrder { relation, key } in orders {
            let data = &self.relations[relation];
            let schema = &data.layout.schema;
            let mut columns = key.clone();
            columns.extend((0..schema.arity()).filter(|c| !key.contains(c)));
            let types = columns.iter().map(|&c| schema.arg_types[c]).collect();
            let mut order = Order {
                key: key.clone(),
                columns,
                layout: Layout::new(RelationSchema::new(relation.as_str(), types)),
                table: SortedTable::empty(0),
            };
            order.table = order.reordered(device, &self.provenance, &data.layout, &data.stable);
            self.relation_data_mut(relation).orders.push(order);
        }
    }

    /// The secondary orders this database keeps.
    pub(crate) fn orders(&self) -> Vec<SecondaryOrder> {
        let mut orders = Vec::new();
        for (relation, data) in &self.relations {
            orders.extend(data.orders.iter().map(|order| SecondaryOrder {
                relation: relation.clone(),
                key: order.key.clone(),
            }));
        }
        orders
    }

    /// Brings each order of `relation` in step with its `stable` partition
    /// after `change`.
    pub(crate) fn update_orders(&mut self, device: &Device, relation: &str, change: Stable<'_, P>) {
        let data = &self.relations[relation];
        let (Stable::Gained(rows) | Stable::Lost(rows)) = change;
        let laid_out: Vec<SortedTable<P>> = data
            .orders
            .iter()
            .map(|order| order.reordered(device, &self.provenance, &data.layout, rows))
            .collect();
        let data = self.relation_data_mut(relation);
        for (order, rows) in data.orders.iter_mut().zip(laid_out) {
            let table = &mut order.table;
            match change {
                Stable::Gained(_) => {
                    *table = SortedTable::merge_disjoint_owned(device, table.take(), rows);
                }
                Stable::Lost(_) => {
                    table.remove_rows(device, &rows);
                    rows.recycle(device);
                }
            }
        }
    }

    /// The orders that do not hold exactly their relation's `stable` rows
    /// re-sorted key-first, bit for bit — none, whenever the database is
    /// at rest.
    pub(crate) fn stale_orders(&self, device: &Device) -> Vec<SecondaryOrder> {
        let mut stale = Vec::new();
        for (relation, data) in &self.relations {
            for order in &data.orders {
                let want = order.reordered(device, &self.provenance, &data.layout, &data.stable);
                if want.columns != order.table.columns || want.tags != order.table.tags {
                    stale.push(SecondaryOrder {
                        relation: relation.clone(),
                        key: order.key.clone(),
                    });
                }
                want.recycle(device);
            }
        }
        stale
    }

    /// Returns the buffers of every table, run, order, sketch, staged chunk
    /// and pending fact to the device arena: the database is done with, and
    /// its columns fund the next run's allocations on the device.
    pub fn recycle(self, device: &Device) {
        for (_, mut data) in self.relations {
            data.recycle_sketch(device);
            let orders = data.orders.into_iter().map(|order| order.table);
            for table in data
                .runs
                .into_iter()
                .chain([data.stable, data.recent])
                .chain(orders)
            {
                table.recycle(device);
            }
            let pending = data.pending.map(|pending| pending.0);
            for columns in data.staged.into_iter().map(|(c, _)| c).chain(pending) {
                recycle_columns(device, columns);
            }
        }
    }

    /// The provenance context used by this database.
    pub fn provenance(&self) -> &P {
        &self.provenance
    }

    /// The schema of a relation.
    pub fn schema(&self, relation: &str) -> Option<&RelationSchema> {
        self.relations.get(relation).map(|data| &data.layout.schema)
    }

    /// All relation names.
    pub fn relation_names(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }

    /// Inserts one fact (encoded values) with its tag. The fact becomes
    /// visible after the next [`Database::seal`].
    ///
    /// # Panics
    ///
    /// Panics if the relation is unknown or the row arity does not match the
    /// schema.
    pub fn insert_encoded(&mut self, relation: &str, row: &[u64], tag: P::Tag) {
        self.push_pending(relation, row.iter().copied(), tag);
    }

    /// Inserts one fact given as [`Value`]s, as [`Database::insert_encoded`].
    pub fn insert(&mut self, relation: &str, values: &[Value], tag: P::Tag) {
        self.push_pending(relation, values.iter().map(Value::encode), tag);
    }

    /// Appends a fact to the relation's pending columns, allocating them at
    /// its first insert.
    fn push_pending(
        &mut self,
        relation: &str,
        row: impl ExactSizeIterator<Item = u64>,
        tag: P::Tag,
    ) {
        let data = self
            .relations
            .get_mut(relation)
            // A session refuses a fact of an unknown relation or arity when
            // it is added (`LobsterError::BadFact`).
            // cannot fail: a direct caller is held to `# Panics` above.
            .unwrap_or_else(|| panic!("unknown relation `{relation}`"));
        let arity = data.layout.schema.arity();
        assert_eq!(
            arity,
            row.len(),
            "arity mismatch inserting into `{relation}`"
        );
        let pending = data
            .pending
            .get_or_insert_with(|| Box::new((vec![Vec::new(); arity], Vec::new())));
        for (col, v) in pending.0.iter_mut().zip(row) {
            col.push(v);
        }
        pending.1.push(tag);
    }

    /// Folds all pending inserts into the stable partitions. Pending facts
    /// arrive one word per column and are packed here.
    pub fn seal(&mut self, device: &Device) {
        for data in self.relations.values_mut() {
            let Some(pending) = data.pending.take() else {
                continue;
            };
            let (columns, tags) = *pending;
            let (prov, known) = (&self.provenance, [&data.stable]);
            let columns = data.layout.pack(device, columns);
            let (rows, _) =
                SortedTable::from_unsorted_minus(device, prov, columns, tags, &known, None);
            data.stable = SortedTable::merge_disjoint_owned(device, data.stable.take(), rows);
        }
    }

    /// Number of facts currently stored for a relation.
    pub fn relation_len(&self, relation: &str) -> usize {
        self.relations
            .get(relation)
            .map(RelationData::len)
            .unwrap_or(0)
    }

    /// Total number of facts in the database.
    pub fn total_facts(&self) -> usize {
        self.relations.values().map(RelationData::len).sum()
    }

    /// Approximate device bytes occupied by all relations.
    pub fn size_bytes(&self) -> usize {
        self.relations.values().map(RelationData::size_bytes).sum()
    }

    /// The decoded rows (with tags) of a relation at rest, in stored order,
    /// unpacked into one value per logical column.
    pub fn rows(&self, relation: &str) -> Vec<(Tuple, P::Tag)> {
        self.decode_rows(relation, Clone::clone)
    }

    /// [`Database::rows`] with every tag mapped through `output` on the way
    /// out — what a reader that wants probabilities, not tags, calls, so no
    /// intermediate vector of cloned tags is built. The result is reserved
    /// once, for the relation's row count.
    pub fn decode_rows<T>(
        &self,
        relation: &str,
        mut output: impl FnMut(&P::Tag) -> T,
    ) -> Vec<(Tuple, T)> {
        let Some(data) = self.relations.get(relation) else {
            return Vec::new();
        };
        debug_assert!(
            data.runs.is_empty() && data.recent.is_empty(),
            "`{relation}` read while not at rest"
        );
        let mut rows = Vec::with_capacity(data.stable.len());
        data.layout
            .decode_into(&data.stable, &mut output, &mut rows);
        rows
    }

    /// Decodes `table` — rows of `relation` in this database's storage
    /// encoding, such as the Δ a refresh reports — like
    /// [`Database::decode_rows`] decodes the stored ones.
    pub fn decode_table<T>(
        &self,
        relation: &str,
        table: &SortedTable<P>,
        mut output: impl FnMut(&P::Tag) -> T,
    ) -> Vec<(Tuple, T)> {
        let mut rows = Vec::with_capacity(table.len());
        let layout = &self.relations[relation].layout;
        layout.decode_into(table, &mut output, &mut rows);
        rows
    }

    /// Internal access for the executor.
    pub(crate) fn relation_data(&self, relation: &str) -> &RelationData<P> {
        &self.relations[relation]
    }

    /// Internal mutable access for the executor.
    pub(crate) fn relation_data_mut(&mut self, relation: &str) -> &mut RelationData<P> {
        // The executor refuses a stratum naming another (`UnknownRelation`).
        // cannot fail: every caller names a relation of this database.
        self.relations.get_mut(relation).expect("relation exists")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_provenance::{AddMultProb, InputFactId, Provenance, Unit};
    use lobster_ram::ValueType;

    fn schemas() -> BTreeMap<String, RelationSchema> {
        let mut m = BTreeMap::new();
        m.insert(
            "edge".into(),
            RelationSchema::new("edge", vec![ValueType::U32, ValueType::U32]),
        );
        m.insert("flag".into(), RelationSchema::new("flag", vec![]));
        m
    }

    /// The word `lanes` packs `values` (one per lane, in lane order) into.
    fn pack(lanes: &[PackLane], values: &[u64]) -> u64 {
        let placed = lanes.iter().zip(values).map(|(lane, v)| lane.place(*v));
        placed.fold(0, |word, lane| word | lane)
    }

    /// One lane's value, read out of its word.
    fn unpack(lane: &PackLane, word: u64) -> u64 {
        (word >> lane.shift) & lane.mask
    }

    #[test]
    fn layout_packs_greedily_and_preserves_order() {
        // u32, u32 → one group with lanes at shifts 32 and 0.
        let lanes = plan_lanes(&[ValueType::U32, ValueType::U32]);
        assert_eq!(lanes.len(), 1);
        let g = &lanes[0];
        assert_eq!((g[0].shift, g[0].mask), (32, 0xFFFF_FFFF));
        assert_eq!((g[1].shift, g[1].mask), (0, 0xFFFF_FFFF));
        // Packed comparison == column-lexicographic comparison.
        let a = pack(g, &[1, 9]);
        let b = pack(g, &[2, 0]);
        assert!(a < b);
        assert_eq!(unpack(&g[0], a), 1);
        assert_eq!(unpack(&g[1], a), 9);
    }

    #[test]
    fn layout_splits_when_full() {
        // i64 takes the whole word; u32+bool fit the next one, and the
        // symbol, 4 bytes like a u32, does not fit beside them.
        let lanes = plan_lanes(&[
            ValueType::I64,
            ValueType::U32,
            ValueType::Bool,
            ValueType::Symbol,
        ]);
        let shape: Vec<Vec<(usize, u32, u64)>> = lanes
            .iter()
            .map(|g| g.iter().map(|l| (l.column, l.shift, l.mask)).collect())
            .collect();
        assert_eq!(
            shape,
            [
                vec![(0, 0, u64::MAX)],
                vec![(1, 8, 0xFFFF_FFFF), (2, 0, 0xFF)],
                vec![(3, 0, 0xFFFF_FFFF)],
            ]
        );
    }

    #[test]
    fn full_width_layout_plans_the_identity_lanes() {
        let lanes = plan_lanes(&[ValueType::F64, ValueType::I64]);
        assert_eq!(lanes, *kernels::identity_lanes(2));
    }

    #[test]
    fn empty_schema_packs_to_nothing() {
        assert!(plan_lanes(&[]).is_empty());
    }

    /// A relation is one record whose layout is the plan's: databases
    /// started from one plan share it, and what one database adds beside
    /// its relations — an order, a scratch relation — reaches neither the
    /// plan nor the other database.
    #[test]
    fn databases_share_the_plans_layouts_and_plan_their_own_beside_them() {
        let device = Device::sequential();
        let plan = StoragePlan::new(schemas());
        let mut db = Database::from_plan(&plan, Unit::new());
        let other = Database::from_plan(&plan, Unit::new());
        let shared = |db: &Database<Unit>| {
            plan.layouts
                .iter()
                .all(|(name, layout)| Arc::ptr_eq(&db.relation_data(name).layout, layout))
        };
        assert!(shared(&db) && shared(&other));
        db.insert("edge", &[Value::U32(1), Value::U32(2)], ());
        db.seal(&device);
        let order = SecondaryOrder {
            relation: "edge".into(),
            key: vec![1],
        };
        db.build_orders(&device, &[order]);
        db.add_relation("scratch", vec![ValueType::U32]);
        db.add_relation("gone", vec![ValueType::Bool]);
        db.remove_relation(&device, "gone");
        db.add_relation_like("edge⁻", "edge");
        let edge = &db.relation_data("edge").layout;
        assert!(Arc::ptr_eq(edge, &db.relation_data("edge⁻").layout));
        db.remove_relation(&device, "edge⁻");
        assert!(shared(&db) && shared(&other));
        let plan_names: Vec<&String> = plan.layouts.keys().collect();
        assert_eq!(plan_names, ["edge", "flag"]);
        assert!(plan.lanes("scratch").is_none() && plan.lanes("gone").is_none());
        assert_eq!(other.relation_names(), ["edge", "flag"]);
        assert_eq!(db.relation_names(), ["edge", "flag", "scratch"]);
        // The order's layout is its own: `(y, x)` of two `u32`s.
        let edge = db.relation_data("edge");
        assert_eq!(edge.orders[0].layout.schema.arg_types, [ValueType::U32; 2]);
        assert_eq!(edge.orders[0].table.columns, [vec![(2 << 32) | 1]]);
    }

    /// The first insert into a relation allocates its pending columns, and
    /// is checked against the schema's arity like every later one.
    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn a_first_insert_of_the_wrong_arity_panics() {
        let mut db = Database::new(schemas(), Unit::new());
        db.insert("edge", &[Value::U32(1)], ());
    }

    #[test]
    fn insert_and_seal_deduplicates() {
        let device = Device::sequential();
        let mut db = Database::new(schemas(), Unit::new());
        db.insert("edge", &[Value::U32(1), Value::U32(2)], ());
        db.insert("edge", &[Value::U32(1), Value::U32(2)], ());
        db.insert("edge", &[Value::U32(0), Value::U32(1)], ());
        db.seal(&device);
        assert_eq!(db.relation_len("edge"), 2);
        let rows = db.rows("edge");
        assert_eq!(rows[0].0, vec![Value::U32(0), Value::U32(1)]);
        assert_eq!(db.total_facts(), 2);
        assert!(db.size_bytes() > 0);
    }

    #[test]
    fn a_recycled_database_hands_its_tables_to_the_arena() {
        // A database done with hands every table back to the arena, so the
        // next fix point on the device can take the columns of its derived
        // tables from the pools instead of growing smaller buffers.
        let compiled = lobster_datalog::parse(
            "type edge(x: u32, y: u32)
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))",
        )
        .unwrap();
        let run = |device: &Device| {
            let mut db = Database::new(compiled.ram.schemas.clone(), Unit::new());
            for i in 0..100u32 {
                db.insert("edge", &[Value::U32(i), Value::U32(i + 1)], ());
            }
            db.seal(device);
            let options = crate::RuntimeOptions::default();
            let exec = crate::Executor::new(device.clone(), Unit::new(), options);
            exec.run_program(&mut db, &compiled.ram).unwrap();
            assert_eq!(db.relation_len("path"), 100 * 101 / 2);
            db
        };
        let device = Device::sequential();
        let pooled = || device.arena().metrics().get("pooled_bytes").unwrap();
        let db = run(&device);
        let before = pooled();
        db.recycle(&device);
        // `path` is one word per row.
        let path_bytes = 8 * 100 * 101 / 2;
        assert!(pooled() >= before + path_bytes, "{before} -> {}", pooled());
    }

    #[test]
    fn duplicate_tags_merge_with_disjunction() {
        let device = Device::sequential();
        let prov = AddMultProb::new();
        let mut db = Database::new(schemas(), prov);
        db.insert("edge", &[Value::U32(1), Value::U32(2)], 0.4);
        db.insert("edge", &[Value::U32(1), Value::U32(2)], 0.3);
        db.seal(&device);
        let rows = db.rows("edge");
        assert_eq!(rows.len(), 1);
        assert!((rows[0].1 - 0.7).abs() < 1e-9);
    }

    #[test]
    fn sealing_twice_does_not_duplicate() {
        let device = Device::sequential();
        let mut db = Database::new(schemas(), Unit::new());
        db.insert("edge", &[Value::U32(1), Value::U32(2)], ());
        db.seal(&device);
        db.insert("edge", &[Value::U32(1), Value::U32(2)], ());
        db.insert("edge", &[Value::U32(3), Value::U32(4)], ());
        db.seal(&device);
        assert_eq!(db.relation_len("edge"), 2);
    }

    #[test]
    fn nullary_relations_hold_at_most_one_fact() {
        let device = Device::sequential();
        let prov = AddMultProb::new();
        let mut db = Database::new(schemas(), prov);
        let t1 = prov.input_tag(InputFactId(0), Some(0.25));
        let t2 = prov.input_tag(InputFactId(1), Some(0.5));
        db.insert("flag", &[], t1);
        db.insert("flag", &[], t2);
        db.seal(&device);
        let rows = db.rows("flag");
        assert_eq!(rows.len(), 1);
        assert!((rows[0].1 - 0.75).abs() < 1e-9);
    }

    #[test]
    fn sorted_table_difference_and_merge() {
        let device = Device::sequential();
        let prov = Unit::new();
        let a = SortedTable::from_unsorted(
            &device,
            &prov,
            vec![vec![1, 3], vec![10, 30]],
            vec![(), ()],
        );
        let b = SortedTable::from_unsorted(
            &device,
            &prov,
            vec![vec![1, 2], vec![10, 20]],
            vec![(), ()],
        );
        let new = a.difference_from(&device, &b);
        assert_eq!(new.len(), 1);
        assert_eq!(new.columns[0], vec![2]);
        let merged = a.merge_disjoint(&device, &new);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.columns[0], vec![1, 2, 3]);
    }

    /// A two-word candidate goes to its frontier in one kernel launch: the
    /// sort, the fold of duplicate rows and the known-row filter all happen
    /// inside it.
    #[test]
    fn a_two_word_frontier_is_one_kernel_launch() {
        let device = Device::sequential();
        let prov = AddMultProb::new();
        let known = vec![vec![1, 2], vec![10, 20]];
        let known = SortedTable::from_unsorted(&device, &prov, known, vec![0.5, 0.5]);
        let candidate = vec![vec![3, 1, 3, 2], vec![30, 10, 30, 25]];
        let tags = vec![0.25, 0.5, 0.5, 0.125];
        let before = device.metrics().get("kernel_launches").unwrap();
        let (new, _) =
            SortedTable::from_unsorted_minus(&device, &prov, candidate, tags, &[&known], None);
        assert_eq!(device.metrics().get("kernel_launches"), Some(before + 1));
        assert_eq!(new.columns, vec![vec![2, 3], vec![25, 30]]);
        assert_eq!(new.tags, vec![0.125, 0.75]);
    }

    #[test]
    fn removing_rows_in_place_leaves_the_difference() {
        let device = Device::sequential();
        let prov = Unit::new();
        for packed in [false, true] {
            let all: Vec<(u64, u64)> = (0..6).flat_map(|a| (0..4).map(move |b| (a, b))).collect();
            for stride in 1..5 {
                let gone: Vec<(u64, u64)> = all.iter().copied().step_by(stride).collect();
                let mut table = table_of(&device, &prov, &all, vec![(); all.len()], packed);
                let rows = table_of(&device, &prov, &gone, vec![(); gone.len()], packed);
                let want = rows.difference_from(&device, &table);
                table.remove_rows(&device, &rows);
                assert_eq!(
                    table.columns, want.columns,
                    "stride {stride}, packed {packed}"
                );
                assert_eq!(table.len(), all.len() - gone.len());
            }
        }
    }

    /// splitmix64: the seeded generator of the property test below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }
    }

    /// The given `(a, b)` rows as columns: one packed word per row, or two
    /// full-width columns.
    fn columns_of(rows: &[(u64, u64)], packed: bool) -> Columns {
        if packed {
            vec![rows.iter().map(|(a, b)| (a << 32) | b).collect()]
        } else {
            vec![
                rows.iter().map(|(a, _)| *a).collect(),
                rows.iter().map(|(_, b)| *b).collect(),
            ]
        }
    }

    /// A layout of `words` stored words: the `(a, b)` rows of
    /// [`columns_of`], one packed word or two full-width columns.
    fn layout_of(words: usize) -> Arc<Layout> {
        let ty = if words == 1 {
            ValueType::U32
        } else {
            ValueType::I64
        };
        Arc::new(Layout::new(RelationSchema::new("r", vec![ty; 2])))
    }

    /// Builds a sorted table over the given `(a, b)` rows.
    fn table_of<P: Provenance>(
        device: &Device,
        prov: &P,
        rows: &[(u64, u64)],
        tags: Vec<P::Tag>,
        packed: bool,
    ) -> SortedTable<P> {
        SortedTable::from_unsorted(device, prov, columns_of(rows, packed), tags)
    }

    /// Random sequences of disjoint sorted pushes against the fold of
    /// `merge_disjoint` over the same tables: after every push the run sizes
    /// are geometric, the new facts of random unsorted candidate rows equal
    /// `difference_from` the fold of the candidate's sorted table, and a
    /// compaction equals the fold bit for bit — which is why the final
    /// tables of a fix point cannot depend on how its frontiers happened to
    /// be merged.
    fn check_run_set<P: Provenance>(prov: &P, mut tag: impl FnMut(&mut Rng) -> P::Tag) {
        let device = Device::sequential();
        for packed in [false, true] {
            for seed in 0..6u64 {
                let mut rng = Rng(seed * 2 + u64::from(packed));
                let arity = if packed { 1 } else { 2 };
                // A shuffled universe of distinct rows, consumed front to
                // back so that pushes are pairwise disjoint.
                let mut universe: Vec<(u64, u64)> =
                    (0..48).flat_map(|a| (0..48).map(move |b| (a, b))).collect();
                for i in (1..universe.len()).rev() {
                    universe.swap(i, rng.below(i + 1));
                }
                let mut data: RelationData<P> = RelationData::new(layout_of(arity));
                let mut fold: SortedTable<P> = SortedTable::empty(arity);
                let mut pushed = 0;
                let mut written = 0;
                while pushed < universe.len() {
                    // Mostly small frontiers, now and then one that dwarfs
                    // every run so far.
                    let want = if rng.below(8) == 0 {
                        1 + rng.below(400)
                    } else {
                        1 + rng.below(24)
                    };
                    let rows = &universe[pushed..(pushed + want).min(universe.len())];
                    pushed += rows.len();
                    let tags: Vec<P::Tag> = rows.iter().map(|_| tag(&mut rng)).collect();
                    let run = table_of(&device, prov, rows, tags, packed);
                    fold = fold.merge_disjoint(&device, &run);
                    written += data.push_run(&device, run, false);

                    let sizes: Vec<usize> = data.stable_tables().map(SortedTable::len).collect();
                    assert!(
                        sizes.windows(2).all(|w| w[0] > 2 * w[1] && w[1] > 0),
                        "run sizes not geometric: {sizes:?}"
                    );
                    assert_eq!(data.len(), fold.len());

                    let picks: Vec<(u64, u64)> = (0..1 + rng.below(60))
                        .map(|_| universe[rng.below(universe.len())])
                        .collect();
                    let tags: Vec<P::Tag> = picks.iter().map(|_| tag(&mut rng)).collect();
                    let candidate = table_of(&device, prov, &picks, tags.clone(), packed);
                    let want = fold.difference_from(&device, &candidate);
                    let (got, _) = data.new_facts(&device, prov, columns_of(&picks, packed), tags);
                    assert_eq!(got.columns, want.columns, "seed {seed}, packed {packed}");
                    assert_eq!(got.tags, want.tags, "seed {seed}, packed {packed}");

                    let mut at_rest = data.clone();
                    at_rest.compact(&device);
                    assert!(at_rest.runs.is_empty());
                    assert_eq!(at_rest.stable.columns, fold.columns);
                    assert_eq!(at_rest.stable.tags, fold.tags);
                }
                written += data.compact(&device);
                // Each row is rewritten O(log) times, never once per push.
                let bound = fold.len() * (2 + fold.len().ilog2() as usize);
                assert!(written <= bound, "{written} rows written, bound {bound}");
            }
        }
    }

    #[test]
    fn run_set_agrees_with_a_single_sorted_table() {
        use lobster_provenance::{DiffTop1Proof, InputFactRegistry, MaxMinProb};
        check_run_set(&Unit::new(), |_| ());
        let prob = |rng: &mut Rng| (1 + rng.below(999)) as f64 / 1000.0;
        let max_min = MaxMinProb::new();
        check_run_set(&max_min, |rng| {
            max_min.input_tag(InputFactId(0), Some(prob(rng)))
        });
        let registry = InputFactRegistry::new();
        let top1 = DiffTop1Proof::new(registry.clone());
        check_run_set(&top1, |rng| {
            let p = prob(rng);
            top1.input_tag(registry.register(Some(p), None), Some(p))
        });
    }

    #[test]
    fn a_seeded_run_set_leaves_stable_as_it_found_it() {
        // `keep_stable`: the table the run entered with is never merged
        // into, however small it is beside the runs; the runs are geometric
        // among themselves, membership still sees everything, and what
        // `fold_runs` hands back is exactly what was pushed.
        let device = Device::sequential();
        let prov = Unit::new();
        let mut rng = Rng(11);
        let mut universe: Vec<(u64, u64)> =
            (0..40).flat_map(|a| (0..40).map(move |b| (a, b))).collect();
        for i in (1..universe.len()).rev() {
            universe.swap(i, rng.below(i + 1));
        }
        let (old, new) = universe.split_at(30);
        let entered = table_of(&device, &prov, old, vec![(); old.len()], true);
        let mut data: RelationData<Unit> = RelationData::new(layout_of(1));
        data.stable = entered.clone();
        let mut pushed_fold: SortedTable<Unit> = SortedTable::empty(1);
        let mut pushed = 0;
        while pushed < new.len() {
            let rows = &new[pushed..(pushed + 1 + rng.below(200)).min(new.len())];
            pushed += rows.len();
            let run = table_of(&device, &prov, rows, vec![(); rows.len()], true);
            pushed_fold = pushed_fold.merge_disjoint(&device, &run);
            data.push_run(&device, run, true);

            assert_eq!(data.stable.columns, entered.columns);
            let sizes: Vec<usize> = data.runs.iter().map(SortedTable::len).collect();
            assert!(
                sizes.windows(2).all(|w| w[0] > 2 * w[1] && w[1] > 0),
                "run sizes not geometric: {sizes:?}"
            );
            assert_eq!(data.len(), entered.len() + pushed_fold.len());
            let known = entered.merge_disjoint(&device, &pushed_fold);
            let picks: Vec<(u64, u64)> = (0..50)
                .map(|_| universe[rng.below(universe.len())])
                .collect();
            let candidate = table_of(&device, &prov, &picks, vec![(); 50], true);
            let want = known.difference_from(&device, &candidate);
            let (got, _) = data.new_facts(&device, &prov, columns_of(&picks, true), vec![(); 50]);
            assert_eq!(got.columns, want.columns);
        }
        assert!(
            pushed_fold.len() > 2 * entered.len(),
            "runs outgrew `stable`"
        );
        let mut written = 0;
        let delta = data.fold_runs(&device, &mut written);
        assert!(data.runs.is_empty());
        assert_eq!(delta.columns, pushed_fold.columns);
        assert_eq!(data.stable.columns, entered.columns);
        // Nothing left to fold: an empty table, and `compact` has no work.
        assert!(data.fold_runs(&device, &mut written).is_empty());
        assert_eq!(data.compact(&device), 0);
    }

    fn sym_schemas() -> BTreeMap<String, RelationSchema> {
        let mut m = BTreeMap::new();
        m.insert(
            "likes".into(),
            RelationSchema::new("likes", vec![ValueType::Symbol, ValueType::Symbol]),
        );
        m.insert(
            "edge".into(),
            RelationSchema::new("edge", vec![ValueType::U32, ValueType::U32]),
        );
        m
    }

    #[test]
    fn one_decode_walk_serves_rows_outputs_and_deltas() {
        let device = Device::sequential();
        let prov = AddMultProb::new();
        let mut db = Database::new(sym_schemas(), prov);
        for (i, (a, b)) in [(70u32, 3u32), (3, 70), (9, 9), (70, 70)]
            .iter()
            .enumerate()
        {
            let tag = 0.1 * (i + 1) as f64;
            db.insert("likes", &[Value::Symbol(*a), Value::Symbol(*b)], tag);
        }
        db.seal(&device);
        let rows = db.rows("likes");
        assert_eq!(rows.len(), 4);
        // The tag goes through the closure on the way out…
        let doubled = db.decode_rows("likes", |tag| 2.0 * tag);
        assert!(rows
            .iter()
            .zip(&doubled)
            .all(|((t, tag), (d, twice))| t == d && 2.0 * tag == *twice));
        // …a table handed in decodes like the stored one…
        let stored = db.relation_data("likes").stable.clone();
        assert_eq!(db.decode_table("likes", &stored, |tag| *tag), rows);
        // …and an unknown relation has no rows.
        assert!(db.decode_rows("ghost", |tag| *tag).is_empty());
    }

    #[test]
    fn later_seals_place_new_symbols_in_row_order() {
        let device = Device::sequential();
        let mut db = Database::new(sym_schemas(), Unit::new());
        db.insert("likes", &[Value::Symbol(50), Value::Symbol(10)], ());
        db.seal(&device);
        // Second seal brings symbols below and above the existing ids: they
        // land among the stored rows in id order.
        db.insert("likes", &[Value::Symbol(5), Value::Symbol(99)], ());
        db.insert("likes", &[Value::Symbol(50), Value::Symbol(5)], ());
        db.seal(&device);
        let rows: Vec<_> = db.rows("likes").into_iter().map(|(t, _)| t).collect();
        assert_eq!(
            rows,
            vec![
                vec![Value::Symbol(5), Value::Symbol(99)],
                vec![Value::Symbol(50), Value::Symbol(5)],
                vec![Value::Symbol(50), Value::Symbol(10)],
            ]
        );
        // Sealing the same fact again still deduplicates.
        db.insert("likes", &[Value::Symbol(50), Value::Symbol(10)], ());
        db.seal(&device);
        assert_eq!(db.relation_len("likes"), 3);
    }

    /// A symbol is stored as its interner id, in a lane whose width the
    /// column type alone fixes: however many distinct symbols a database
    /// holds, its layout is the one the program's plan made.
    #[test]
    fn symbols_are_stored_as_interner_ids_in_the_planned_layout() {
        let device = Device::sequential();
        let ram = lobster_datalog::parse("type t(a: symbol, b: u32)\nquery t")
            .unwrap()
            .ram;
        let plan = StoragePlan::for_program(&ram);
        let mut db = Database::from_plan(&plan, Unit::new());
        let symbols = lobster_ram::SymbolTable::new();
        let names: Vec<u32> = (0..600).map(|i| symbols.intern(&format!("s{i}"))).collect();
        // Every other id, in a scrambled order: 300 distinct symbols, and no
        // id is its rank among them.
        let ids: Vec<u32> = (0..300).map(|k| names[2 * (k * 7 % 300) + 1]).collect();
        for (k, id) in ids.iter().enumerate() {
            db.insert("t", &[Value::Symbol(*id), Value::U32(k as u32)], ());
        }
        db.seal(&device);
        let lanes = plan.lanes("t").unwrap();
        assert_eq!(db.relation_data("t").layout.lanes, lanes);
        let symbol = lanes[0][0];
        assert_eq!((symbol.shift, symbol.mask), (32, 0xFFFF_FFFF));
        let stored: Vec<u64> = db.relation_data("t").stable.columns[0]
            .iter()
            .map(|word| (word >> symbol.shift) & symbol.mask)
            .collect();
        let mut want: Vec<u64> = ids.iter().map(|id| u64::from(*id)).collect();
        want.sort_unstable();
        assert_eq!(stored, want);
    }
}
