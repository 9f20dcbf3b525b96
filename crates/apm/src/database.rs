//! The tagged, columnar database held on the (simulated) device.
//!
//! # Narrow, dictionary-encoded storage
//!
//! A database built with [`Database::new_encoded`] stores every relation in
//! *packed* form: a per-database [`SymbolDict`] maps the process-global
//! symbol ids a run actually touches down to dense local ranks, a
//! [`RelationLayout`] fuses adjacent narrow columns (bools, `u32`s, narrowed
//! symbol ids) into shared `u64` group words, and every [`SortedTable`]
//! holds the group columns instead of one full-width column per logical
//! column. Both mappings are order-preserving, so packed tables sort, merge,
//! difference, and deduplicate into exactly the same row order as their
//! full-width equivalents — the kernels never know the difference, they just
//! see fewer columns with fewer significant bytes.
//!
//! Facts still enter ([`Database::insert`]) and leave ([`Database::rows`])
//! in full-width global encoding; the translation happens at
//! [`Database::seal`] / extraction time. When new facts or a new program
//! mention symbols the dictionary has not seen, [`Database::ensure_symbols`]
//! extends it — monotonically, so existing tables re-encode by a cheap
//! decode/re-pack without re-sorting.

use lobster_gpu::kernels::PackLane;
use lobster_gpu::{kernels, par_map_into, Column, Columns, Device};
use lobster_provenance::Provenance;
use lobster_ram::{RelationLayout, RelationSchema, SymbolDict, Tuple, Value, ValueType};
use std::collections::BTreeMap;

/// Arena allocation site for codec scratch (symbol-mapped columns built
/// while encoding); distinct from the executor's sites (100–104).
const CODEC_SITE: usize = 105;

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
        let arity = columns.len();
        if tags.is_empty() {
            recycle_columns(device, columns);
            return Self::empty(arity);
        }
        if arity == 0 {
            // A nullary relation holds at most one fact; fold all tags.
            let mut iter = tags.into_iter();
            let first = iter.next().expect("non-empty tags");
            let folded = iter.fold(first, |acc, t| prov.add(&acc, &t));
            return SortedTable {
                columns: Vec::new(),
                tags: vec![folded],
                arity,
            };
        }
        // A one-word table is sorted by moving the words themselves, so only
        // the tags are left to gather; wider tables sort a permutation and
        // gather every column through it.
        let (sorted_cols, perm) = if let [words] = columns.as_slice() {
            let (sorted, perm) = kernels::sort_words(device, words);
            (vec![sorted], perm)
        } else {
            let refs: Vec<&[u64]> = columns.iter().map(|c| c.as_slice()).collect();
            let perm = kernels::sort_permutation(device, &refs);
            let sorted = refs
                .iter()
                .map(|col| kernels::gather(device, &perm, col))
                .collect();
            (sorted, perm)
        };
        let sorted_tags = kernels::gather_tags(device, &perm, &tags);
        device.arena().recycle_shared(perm);
        recycle_columns(device, columns);
        let sorted_refs: Vec<&[u64]> = sorted_cols.iter().map(|c| c.as_slice()).collect();
        let (unique_cols, unique_tags) =
            kernels::unique(device, &sorted_refs, &sorted_tags, |a, b| prov.add(a, b));
        drop(sorted_refs);
        recycle_columns(device, sorted_cols);
        SortedTable {
            columns: unique_cols,
            tags: unique_tags,
            arity,
        }
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

    /// Consuming [`SortedTable::difference_from`]: an empty `self` passes
    /// `candidate` through untouched (no copy), and a consumed `candidate`
    /// is recycled into the device arena.
    pub fn difference_from_owned(&self, device: &Device, candidate: SortedTable<P>) -> Self {
        Self::difference_from_all_owned(device, std::iter::once(self), candidate)
    }

    /// Rows of `candidate` present in **none** of the `known` tables (all of
    /// the candidate's arity), in one pass over the candidate
    /// ([`kernels::difference_runs`]). Nothing to compare against passes
    /// `candidate` through untouched (no copy); a consumed `candidate` is
    /// recycled into the device arena.
    pub(crate) fn difference_from_all_owned<'a>(
        device: &Device,
        known: impl Iterator<Item = &'a SortedTable<P>>,
        candidate: SortedTable<P>,
    ) -> Self {
        let known: Vec<&SortedTable<P>> = known.filter(|t| !t.is_empty()).collect();
        if candidate.is_empty() || known.is_empty() {
            return candidate;
        }
        let arity = candidate.arity;
        if arity == 0 {
            // The fact already exists; nothing is new.
            candidate.recycle(device);
            return SortedTable::empty(0);
        }
        // One flat list of column slices, cut per table.
        let cols: Vec<&[u64]> = known
            .iter()
            .flat_map(|table| table.columns.iter().map(|c| c.as_slice()))
            .collect();
        let runs: Vec<(&[&[u64]], usize)> = cols
            .chunks(arity)
            .zip(&known)
            .map(|(cols, table)| (cols, table.len()))
            .collect();
        let (columns, tags) =
            kernels::difference_runs(device, &candidate.col_refs(), &candidate.tags, &runs);
        candidate.recycle(device);
        SortedTable {
            columns,
            tags,
            arity,
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

/// What a program contributes to a database's encoding decision: the symbol
/// constants its expressions mention (seeded into the dictionary so constant
/// rewriting always finds a local rank) and whether any expression performs
/// arithmetic at `u32` operand type (which forces `u32` lanes to stay 8
/// bytes wide — the expression machine computes `u32` arithmetic at full
/// word width, so narrowing would change stored bits).
#[derive(Debug, Clone, Default)]
pub struct EncodingSpec {
    /// Global interner ids of every symbol constant in the program (see
    /// `RamProgram::symbol_constants`).
    pub symbol_constants: Vec<u32>,
    /// `true` when the program applies `+ - * / %` or negation at `u32`
    /// type anywhere.
    pub widen_u32: bool,
}

/// The live encoding state of an encoded database: the symbol dictionary
/// plus one planned layout (and its precomputed pack lanes) per relation.
#[derive(Debug, Clone)]
pub(crate) struct Codec {
    pub(crate) dict: SymbolDict,
    widen_u32: bool,
    layouts: BTreeMap<String, RelationLayout>,
    lanes: BTreeMap<String, Vec<Vec<PackLane>>>,
}

impl Codec {
    fn new(schemas: &BTreeMap<String, RelationSchema>, dict: SymbolDict, widen_u32: bool) -> Codec {
        let sym_bytes = dict.width_bytes();
        let u32_bytes = if widen_u32 { 8 } else { 4 };
        let layouts: BTreeMap<String, RelationLayout> = schemas
            .iter()
            .map(|(name, schema)| {
                (
                    name.clone(),
                    RelationLayout::plan(&schema.arg_types, sym_bytes, u32_bytes),
                )
            })
            .collect();
        let lanes = layouts
            .iter()
            .map(|(name, layout)| (name.clone(), Self::pack_lanes(layout)))
            .collect();
        Codec {
            dict,
            widen_u32,
            layouts,
            lanes,
        }
    }

    /// Converts a layout's groups into the gpu kernel's lane spec.
    fn pack_lanes(layout: &RelationLayout) -> Vec<Vec<PackLane>> {
        layout
            .groups
            .iter()
            .map(|g| {
                g.lanes
                    .iter()
                    .map(|l| PackLane {
                        column: l.column,
                        shift: l.shift,
                        mask: l.mask(),
                    })
                    .collect()
            })
            .collect()
    }

    pub(crate) fn layout(&self, relation: &str) -> &RelationLayout {
        &self.layouts[relation]
    }

    /// The pack lanes of a relation, or `None` when its layout is the
    /// identity (callers skip the pack/unpack kernels entirely).
    pub(crate) fn lanes(&self, relation: &str) -> Option<&Vec<Vec<PackLane>>> {
        if self.layouts[relation].is_identity() {
            None
        } else {
            Some(&self.lanes[relation])
        }
    }

    /// Maps a program symbol constant to its local rank.
    pub(crate) fn local_const(&self, global: u32) -> u64 {
        u64::from(
            self.dict
                .local(global)
                .expect("program symbol constant missing from dictionary"),
        )
    }
}

/// Packs full-width columns carrying **global** symbol ids into a
/// relation's group columns with local ranks. Consumes (recycles) the wide
/// input. Identity layouts pass the columns through untouched.
fn encode_wide(
    device: &Device,
    codec: &Codec,
    relation: &str,
    schema: &RelationSchema,
    columns: Columns,
) -> Columns {
    let layout = codec.layout(relation);
    if layout.is_identity() {
        return columns;
    }
    let arena = device.arena();
    // Rewrite symbol columns global → local before packing; other columns
    // pack straight from the input.
    let mut locals: Vec<Option<Column>> = Vec::with_capacity(columns.len());
    for (c, col) in columns.iter().enumerate() {
        if schema.arg_types[c] == ValueType::Symbol {
            let mut local = arena.alloc_zeroed(CODEC_SITE, col.len());
            let dict = &codec.dict;
            par_map_into(device, &mut local, |k| {
                u64::from(
                    dict.local(col[k] as u32)
                        .expect("symbol value missing from dictionary"),
                )
            });
            locals.push(Some(local));
        } else {
            locals.push(None);
        }
    }
    let refs: Vec<&[u64]> = locals
        .iter()
        .zip(columns.iter())
        .map(|(local, col)| local.as_deref().unwrap_or(col.as_slice()))
        .collect();
    let lanes = codec.lanes(relation).expect("non-identity layout");
    let packed = kernels::pack_columns(device, &refs, lanes);
    drop(refs);
    recycle_columns(device, locals.into_iter().flatten().collect());
    recycle_columns(device, columns);
    packed
}

/// Inverse of [`encode_wide`]: unpacks a relation's group columns back to
/// full-width columns carrying **global** symbol ids. The packed input is
/// borrowed; the output is fresh.
fn decode_packed(device: &Device, codec: &Codec, relation: &str, packed: &[Column]) -> Columns {
    let layout = codec.layout(relation);
    if layout.is_identity() {
        return packed.to_vec();
    }
    let refs: Vec<&[u64]> = packed.iter().map(|c| c.as_slice()).collect();
    let lanes = codec.lanes(relation).expect("non-identity layout");
    let mut wide = kernels::unpack_columns(device, &refs, lanes, layout.arity);
    for group in &layout.groups {
        for lane in &group.lanes {
            if lane.symbol {
                for v in wide[lane.column].iter_mut() {
                    *v = u64::from(
                        codec
                            .dict
                            .global(*v as u32)
                            .expect("local rank out of dictionary range"),
                    );
                }
            }
        }
    }
    wide
}

/// The bookkeeping for one relation: the semi-naive partitions plus staged
/// delta candidates produced by `store` instructions during the current
/// iteration.
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
/// iteration. **At rest — outside `Executor::run_stratum_from` — `runs` is
/// empty** and `stable` is the whole partition as one sorted table, which is
/// what every reader outside the executor relies on.
#[derive(Debug, Clone)]
pub(crate) struct RelationData<P: Provenance> {
    pub(crate) stable: SortedTable<P>,
    pub(crate) runs: Vec<SortedTable<P>>,
    pub(crate) recent: SortedTable<P>,
    pub(crate) staged: Vec<(Columns, Vec<P::Tag>)>,
}

impl<P: Provenance> RelationData<P> {
    fn new(arity: usize) -> Self {
        RelationData {
            stable: SortedTable::empty(arity),
            runs: Vec::new(),
            recent: SortedTable::empty(arity),
            staged: Vec::new(),
        }
    }

    /// Total number of facts (stable, including its runs, + recent).
    pub(crate) fn len(&self) -> usize {
        self.stable_tables().map(SortedTable::len).sum::<usize>() + self.recent.len()
    }

    /// Approximate device bytes occupied by every partition and run.
    fn size_bytes(&self) -> usize {
        self.stable_tables()
            .map(SortedTable::size_bytes)
            .sum::<usize>()
            + self.recent.size_bytes()
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
        while self
            .runs
            .last()
            .is_some_and(|older| older.len() <= 2 * top.len())
        {
            let older = self.runs.pop().expect("checked non-empty");
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

    /// The rows of `candidate` that are in no run of the stable partition.
    pub(crate) fn new_facts(&self, device: &Device, candidate: SortedTable<P>) -> SortedTable<P> {
        SortedTable::difference_from_all_owned(device, self.stable_tables(), candidate)
    }
}

/// The tagged, columnar database: every relation's facts plus the semi-naive
/// partitions used during fix-point execution.
///
/// A database is either *full-width* ([`Database::new`]; every logical
/// column is one `u64` column, values are stored in global encoding) or
/// *encoded* ([`Database::new_encoded`]; relations hold packed group columns
/// under a shared [`SymbolDict`]). The two are observationally identical:
/// [`Database::rows`] returns the same tuples in the same order either way.
#[derive(Debug, Clone)]
pub struct Database<P: Provenance> {
    schemas: BTreeMap<String, RelationSchema>,
    relations: BTreeMap<String, RelationData<P>>,
    pending: BTreeMap<String, (Columns, Vec<P::Tag>)>,
    provenance: P,
    codec: Option<Codec>,
}

impl<P: Provenance> Database<P> {
    /// Creates an empty full-width database for the given schemas.
    pub fn new(schemas: BTreeMap<String, RelationSchema>, provenance: P) -> Self {
        let relations = schemas
            .iter()
            .map(|(name, schema)| (name.clone(), RelationData::new(schema.arity())))
            .collect();
        let pending = schemas
            .iter()
            .map(|(name, schema)| (name.clone(), (vec![Vec::new(); schema.arity()], Vec::new())))
            .collect();
        Database {
            schemas,
            relations,
            pending,
            provenance,
            codec: None,
        }
    }

    /// Creates an empty *encoded* database: relations are stored as packed
    /// group columns under a dictionary seeded with the program's symbol
    /// constants. Facts still go in and come out in full-width global
    /// encoding; see the module docs.
    pub fn new_encoded(
        schemas: BTreeMap<String, RelationSchema>,
        provenance: P,
        spec: &EncodingSpec,
    ) -> Self {
        let dict = SymbolDict::from_globals(spec.symbol_constants.clone());
        let codec = Codec::new(&schemas, dict, spec.widen_u32);
        let relations = schemas
            .keys()
            .map(|name| {
                (
                    name.clone(),
                    RelationData::new(codec.layout(name).packed_arity()),
                )
            })
            .collect();
        let pending = schemas
            .iter()
            .map(|(name, schema)| (name.clone(), (vec![Vec::new(); schema.arity()], Vec::new())))
            .collect();
        Database {
            schemas,
            relations,
            pending,
            provenance,
            codec: Some(codec),
        }
    }

    /// The active codec, if this database is encoded.
    pub(crate) fn codec(&self) -> Option<&Codec> {
        self.codec.as_ref()
    }

    /// `true` when relations are stored in packed, dictionary-encoded form.
    pub fn is_encoded(&self) -> bool {
        self.codec.is_some()
    }

    /// The number of physical (stored) columns of a relation: the packed
    /// group count when encoded, the logical arity otherwise.
    #[cfg(test)]
    pub(crate) fn storage_arity(&self, relation: &str) -> usize {
        match self.codec.as_ref() {
            Some(codec) => codec.layout(relation).packed_arity(),
            None => self.schemas[relation].arity(),
        }
    }

    /// Extends the dictionary to cover `globals`, re-encoding every stored
    /// table under the extended dictionary. No-op for full-width databases
    /// or when everything is already covered.
    ///
    /// Re-encoding never re-sorts: dictionary extension is monotone
    /// ([`SymbolDict::extend`]), so local rank order — and therefore packed
    /// row order — is unchanged by the remap.
    pub fn ensure_symbols(&mut self, device: &Device, globals: impl IntoIterator<Item = u32>) {
        let Some(codec) = self.codec.as_ref() else {
            return;
        };
        let missing: Vec<u32> = globals
            .into_iter()
            .filter(|g| codec.dict.local(*g).is_none())
            .collect();
        if missing.is_empty() {
            return;
        }
        let (dict, _remap) = codec.dict.extend(missing);
        let next = Codec::new(&self.schemas, dict, codec.widen_u32);
        let old = self.codec.take().expect("codec present");
        for (name, data) in self.relations.iter_mut() {
            debug_assert!(
                data.staged.is_empty() && data.runs.is_empty(),
                "dictionary extension mid-stratum in `{name}`"
            );
            let schema = &self.schemas[name];
            let packed_arity = next.layout(name).packed_arity();
            for table in [&mut data.stable, &mut data.recent] {
                let re = if table.is_empty() {
                    SortedTable::empty(packed_arity)
                } else {
                    let wide = decode_packed(device, &old, name, &table.columns);
                    let packed = encode_wide(device, &next, name, schema, wide);
                    SortedTable {
                        columns: packed,
                        tags: std::mem::take(&mut table.tags),
                        arity: packed_arity,
                    }
                };
                let dead = std::mem::replace(table, re);
                dead.recycle(device);
            }
        }
        self.codec = Some(next);
    }

    /// Builds a sorted table in this database's storage encoding from
    /// full-width columns carrying global symbol ids: extends the dictionary
    /// over the columns' symbol values, packs, then sorts/deduplicates. On a
    /// full-width database this is plain [`SortedTable::from_unsorted`].
    pub(crate) fn encoded_from_unsorted(
        &mut self,
        device: &Device,
        relation: &str,
        columns: Columns,
        tags: Vec<P::Tag>,
    ) -> SortedTable<P> {
        let prov = self.provenance.clone();
        if self.codec.is_none() {
            return SortedTable::from_unsorted(device, &prov, columns, tags);
        }
        let mut syms: Vec<u32> = Vec::new();
        for (c, ty) in self.schemas[relation].arg_types.iter().enumerate() {
            if *ty == ValueType::Symbol {
                syms.extend(columns[c].iter().map(|v| *v as u32));
            }
        }
        self.ensure_symbols(device, syms);
        let codec = self.codec.as_ref().expect("codec present");
        let packed = encode_wide(device, codec, relation, &self.schemas[relation], columns);
        SortedTable::from_unsorted(device, &prov, packed, tags)
    }

    /// The provenance context used by this database.
    pub fn provenance(&self) -> &P {
        &self.provenance
    }

    /// The schema of a relation.
    pub fn schema(&self, relation: &str) -> Option<&RelationSchema> {
        self.schemas.get(relation)
    }

    /// All relation names.
    pub fn relation_names(&self) -> Vec<String> {
        self.schemas.keys().cloned().collect()
    }

    /// Inserts one fact (encoded values) with its tag. The fact becomes
    /// visible after the next [`Database::seal`].
    ///
    /// # Panics
    ///
    /// Panics if the relation is unknown or the row arity does not match the
    /// schema.
    pub fn insert_encoded(&mut self, relation: &str, row: &[u64], tag: P::Tag) {
        let (columns, tags) = self
            .pending
            .get_mut(relation)
            .unwrap_or_else(|| panic!("unknown relation `{relation}`"));
        assert_eq!(
            columns.len(),
            row.len(),
            "arity mismatch inserting into `{relation}`"
        );
        for (col, v) in columns.iter_mut().zip(row) {
            col.push(*v);
        }
        tags.push(tag);
    }

    /// Inserts one fact given as [`Value`]s.
    pub fn insert(&mut self, relation: &str, values: &[Value], tag: P::Tag) {
        let row: Vec<u64> = values.iter().map(Value::encode).collect();
        self.insert_encoded(relation, &row, tag);
    }

    /// Folds all pending inserts into the stable partitions. Pending facts
    /// arrive in full-width global encoding; on an encoded database they are
    /// packed here (extending the dictionary first if they mention new
    /// symbols).
    pub fn seal(&mut self, device: &Device) {
        let names: Vec<String> = self.pending.keys().cloned().collect();
        for name in names {
            let arity = self.schemas[&name].arity();
            let (columns, tags) = self.pending.get_mut(&name).expect("relation exists");
            if tags.is_empty() {
                continue;
            }
            let columns = std::mem::replace(columns, vec![Vec::new(); arity]);
            let tags = std::mem::take(tags);
            let table = self.encoded_from_unsorted(device, &name, columns, tags);
            let data = self.relations.get_mut(&name).expect("relation exists");
            let new_rows = data.stable.difference_from_owned(device, table);
            data.stable = SortedTable::merge_disjoint_owned(device, data.stable.take(), new_rows);
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

    /// The decoded rows (with tags) of a relation, combining stable and
    /// recent partitions. Encoded databases unpack and translate back to
    /// global symbol ids here, so callers see identical tuples either way.
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
        debug_assert!(data.runs.is_empty(), "`{relation}` read mid-stratum");
        let mut rows = Vec::with_capacity(data.len());
        for table in [&data.stable, &data.recent] {
            self.decode_into(relation, table, &mut output, &mut rows);
        }
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
        self.decode_into(relation, table, &mut output, &mut rows);
        rows
    }

    /// The one decode walk: every row of `table` goes from stored words to
    /// a full-width tuple — group words unpacked and symbol ranks mapped
    /// back to global ids where the relation is stored packed — paired with
    /// `output` of its tag. One scratch row serves the whole table; the only
    /// allocation per row is its tuple. Scalar and host-side (no [`Device`]
    /// at hand), which is a choice, not a sign that decode is cold: it is a
    /// fifth of a `tc_chain` or `tc_dense` request.
    fn decode_into<T>(
        &self,
        relation: &str,
        table: &SortedTable<P>,
        output: &mut impl FnMut(&P::Tag) -> T,
        rows: &mut Vec<(Tuple, T)>,
    ) {
        if table.is_empty() {
            return;
        }
        let schema = &self.schemas[relation];
        let packed = self
            .codec
            .as_ref()
            .map(|codec| (codec, codec.layout(relation)))
            .filter(|(_, layout)| !layout.is_identity());
        let mut words = vec![0u64; schema.arity()];
        for (row, tag) in table.tags.iter().enumerate() {
            match packed {
                Some((codec, layout)) => {
                    for (group, column) in layout.groups.iter().zip(&table.columns) {
                        for (l, lane) in group.lanes.iter().enumerate() {
                            let v = group.unpack(column[row], l);
                            words[lane.column] = if lane.symbol {
                                u64::from(
                                    codec
                                        .dict
                                        .global(v as u32)
                                        .expect("local rank out of dictionary range"),
                                )
                            } else {
                                v
                            };
                        }
                    }
                }
                None => {
                    for (word, column) in words.iter_mut().zip(&table.columns) {
                        *word = column[row];
                    }
                }
            }
            let tuple: Tuple = words
                .iter()
                .zip(&schema.arg_types)
                .map(|(word, ty)| Value::decode(*word, *ty))
                .collect();
            rows.push((tuple, output(tag)));
        }
    }

    /// Internal access for the executor.
    pub(crate) fn relation_data(&self, relation: &str) -> &RelationData<P> {
        &self.relations[relation]
    }

    /// Internal mutable access for the executor.
    pub(crate) fn relation_data_mut(&mut self, relation: &str) -> &mut RelationData<P> {
        self.relations.get_mut(relation).expect("relation exists")
    }

    /// Clears all facts (schemas — and the dictionary, which only grows —
    /// are kept). Used between samples.
    pub fn clear_facts(&mut self) {
        for (name, data) in self.relations.iter_mut() {
            let arity = match self.codec.as_ref() {
                Some(codec) => codec.layout(name).packed_arity(),
                None => self.schemas[name].arity(),
            };
            *data = RelationData::new(arity);
        }
        for (name, (columns, tags)) in self.pending.iter_mut() {
            *columns = vec![Vec::new(); self.schemas[name].arity()];
            tags.clear();
        }
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
    fn clear_facts_resets_everything() {
        let device = Device::sequential();
        let mut db = Database::new(schemas(), Unit::new());
        db.insert("edge", &[Value::U32(1), Value::U32(2)], ());
        db.seal(&device);
        db.clear_facts();
        assert_eq!(db.total_facts(), 0);
        assert!(db.rows("edge").is_empty());
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

    /// Builds a sorted table over the given `(a, b)` rows: one packed word
    /// per row, or two full-width columns.
    fn table_of<P: Provenance>(
        device: &Device,
        prov: &P,
        rows: &[(u64, u64)],
        tags: Vec<P::Tag>,
        packed: bool,
    ) -> SortedTable<P> {
        let columns = if packed {
            vec![rows.iter().map(|(a, b)| (a << 32) | b).collect()]
        } else {
            vec![
                rows.iter().map(|(a, _)| *a).collect(),
                rows.iter().map(|(_, b)| *b).collect(),
            ]
        };
        SortedTable::from_unsorted(device, prov, columns, tags)
    }

    /// Random sequences of disjoint sorted pushes against the fold of
    /// `merge_disjoint` over the same tables: after every push the run sizes
    /// are geometric, the multi-run difference of a random candidate equals
    /// `difference_from` the fold, and a compaction equals the fold bit for
    /// bit — which is why the final tables of a fix point cannot depend on
    /// how its frontiers happened to be merged.
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
                let mut data: RelationData<P> = RelationData::new(arity);
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
                    let candidate = table_of(&device, prov, &picks, tags, packed);
                    let want = fold.difference_from(&device, &candidate);
                    let got = data.new_facts(&device, candidate);
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
        let mut data: RelationData<Unit> = RelationData::new(1);
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
            assert_eq!(data.new_facts(&device, candidate).columns, want.columns);
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
    fn encoded_database_matches_full_width_rows() {
        let device = Device::sequential();
        let spec = EncodingSpec {
            symbol_constants: vec![900],
            widen_u32: false,
        };
        let mut wide = Database::new(sym_schemas(), Unit::new());
        let mut packed = Database::new_encoded(sym_schemas(), Unit::new(), &spec);
        assert!(packed.is_encoded());
        assert!(!wide.is_encoded());
        // Global ids deliberately large and sparse: the dictionary narrows
        // them to ranks regardless of magnitude.
        let facts = [
            (1_000_000u32, 5u32),
            (5, 1_000_000),
            (900, 900),
            (5, 5),
            (1_000_000, 900),
        ];
        for db in [&mut wide, &mut packed] {
            for (a, b) in facts {
                db.insert("likes", &[Value::Symbol(a), Value::Symbol(b)], ());
            }
            db.insert("edge", &[Value::U32(7), Value::U32(8)], ());
            db.seal(&device);
        }
        // Bit-identical extraction: same tuples in the same order.
        assert_eq!(wide.rows("likes"), packed.rows("likes"));
        assert_eq!(wide.rows("edge"), packed.rows("edge"));
        // Two symbol columns (1 byte each) pack into one physical column;
        // two u32 columns share one word.
        assert_eq!(packed.storage_arity("likes"), 1);
        assert_eq!(packed.storage_arity("edge"), 1);
        assert_eq!(wide.storage_arity("likes"), 2);
        assert!(packed.size_bytes() < wide.size_bytes());
    }

    #[test]
    fn one_decode_walk_serves_rows_outputs_and_deltas() {
        let device = Device::sequential();
        let prov = AddMultProb::new();
        let spec = EncodingSpec::default();
        for mut db in [
            Database::new(sym_schemas(), prov),
            Database::new_encoded(sym_schemas(), prov, &spec),
        ] {
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
    }

    #[test]
    fn dictionary_extension_reencodes_without_resorting() {
        let device = Device::sequential();
        let spec = EncodingSpec::default();
        let mut db = Database::new_encoded(sym_schemas(), Unit::new(), &spec);
        db.insert("likes", &[Value::Symbol(50), Value::Symbol(10)], ());
        db.seal(&device);
        // Second seal brings symbols below and above the existing ids: every
        // stored rank shifts, but row order must be preserved.
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
        // Sealing the same fact again after extension still deduplicates.
        db.insert("likes", &[Value::Symbol(50), Value::Symbol(10)], ());
        db.seal(&device);
        assert_eq!(db.relation_len("likes"), 3);
    }

    #[test]
    fn widened_u32_lanes_stay_full_width() {
        let spec = EncodingSpec {
            symbol_constants: Vec::new(),
            widen_u32: true,
        };
        let db: Database<Unit> = Database::new_encoded(sym_schemas(), Unit::new(), &spec);
        // With u32 arithmetic in play, u32 lanes cannot narrow: `edge`
        // stays two full-width columns.
        assert_eq!(db.storage_arity("edge"), 2);
        // Symbol columns still narrow.
        assert_eq!(db.storage_arity("likes"), 1);
    }

    #[test]
    fn encoded_clear_facts_keeps_packed_arity() {
        let device = Device::sequential();
        let mut db = Database::new_encoded(sym_schemas(), Unit::new(), &EncodingSpec::default());
        db.insert("likes", &[Value::Symbol(3), Value::Symbol(4)], ());
        db.seal(&device);
        db.clear_facts();
        assert_eq!(db.total_facts(), 0);
        db.insert("likes", &[Value::Symbol(3), Value::Symbol(4)], ());
        db.seal(&device);
        assert_eq!(db.rows("likes").len(), 1);
    }
}
