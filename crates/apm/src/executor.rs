//! The APM executor: Algorithm 1 of the paper.
//!
//! An APM program is executed once per fix-point iteration against the
//! stable / recent / delta partitions of the database. The executor owns the
//! optimization machinery of Section 4:
//!
//! * **static registers** — hash indices over iteration-invariant build sides
//!   are built once and reused across iterations;
//! * **buffer reuse** — iteration-invariant device buffers (the loaded "all"
//!   partitions of relations not updated by the stratum) are cached instead
//!   of being reallocated each iteration, and *every* per-iteration column —
//!   kernel outputs, loads, staged stores — is routed through the device
//!   [`Arena`](lobster_gpu::Arena): a register goes back into the pool
//!   right after the last instruction that reads it (the compiler marks
//!   it, see [`ApmProgram::last_reads`](crate::ApmProgram::last_reads)),
//!   and `store` takes a buffer it is the last reader of instead of copying
//!   it, so a steady-state iteration performs zero fresh column allocations
//!   (Section 4.1; disabling the `buffer_reuse` option restores the
//!   unoptimized Figure 10 behaviour);
//! * a configurable device memory budget and wall-clock timeout, used to
//!   reproduce the OOM and timeout entries of the paper's evaluation.

use crate::compiler::{compile_stratum_with_options, CompiledStratum};
use crate::config::RuntimeOptions;
use crate::database::{recycle_columns, Database, SortedTable};
use crate::isa::{DbPart, Instr, JoinSource, JoinWrite, RegId};
use lobster_gpu::kernels::{JoinBuild, JoinColumn};
use lobster_gpu::{kernels, Column, Columns, Device, DeviceError, HashIndex};
use lobster_provenance::Provenance;
use lobster_ram::RamProgram;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A relation loaded into columnar form: one device column per attribute
/// plus the tag of every row.
type LoadedTable<T> = (Vec<Arc<Column>>, Arc<Vec<T>>);

/// Arena allocation sites for executor-side columns (the kernels' own sites
/// live in [`lobster_gpu::kernels::sites`]).
mod exec_sites {
    /// Per-iteration copies made by `load`.
    pub const LOAD: usize = 100;
    /// Register snapshots staged by `store`.
    pub const STORE: usize = 101;
    /// Cartesian-product outputs.
    pub const PRODUCT: usize = 102;
    /// Table-append outputs.
    pub const APPEND: usize = 103;
}

/// Cached "all" loads of relations not updated by the running stratum.
type LoadCache<T> = FixedMap<String, LoadedTable<T>>;

/// A hash map with an unseeded hasher, so it iterates in the same order in
/// every process: a stratum's end drains its maps into the arena, whose
/// shared pool hands out the last buffer returned first, and a per-process
/// order would make the later reuse, and with it the allocation count,
/// vary from run to run. A `BTreeMap` fixes the order too, but allocates a
/// whole node for a stratum's few entries: `clutrr_serve` read 1.7 % more
/// bytes per op with one.
type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// What one run of a stratum keeps from iteration to iteration.
struct StratumRun<P: Provenance> {
    /// The run entered with the caller's stable/recent split instead of the
    /// semi-naive preamble, and `stable` must leave as it came.
    seeded: bool,
    /// Registers that survive across iterations.
    static_file: FixedMap<RegId, RegValue<P>>,
    /// Cached "all" loads of relations not updated by this stratum (the
    /// buffer-reuse optimization: these buffers are identical every
    /// iteration).
    load_cache: LoadCache<P::Tag>,
}

/// When a relation of a running stratum starts keeping a known-row sketch
/// (`RelationData`'s docs): the update phase builds one at the first
/// iteration where searching the known runs for every distinct candidate
/// row would cost more than the sketch, and keeps it to the stratum's end.
struct SketchRule {
    /// The relation's rows when the run began.
    entered: usize,
    /// The rows the run has derived since.
    derived: usize,
    /// The last update phase found at least half of its distinct candidate
    /// rows new; the first counts as new.
    mostly_new: bool,
}

impl SketchRule {
    /// Whether a sketch pays for an update of `batch` candidate rows against
    /// `known` rows: the run has derived at least the rows it entered with
    /// (so the build hashes at most two rows per derived row) and
    /// `GALLOP_RATIO`× the batch, which is not empty (so the runs are long
    /// next to it), the runs hold at least `floor` rows, and most candidates
    /// have been new (a known row passes the sketch and is searched anyway).
    fn pays(&self, batch: usize, known: usize, floor: usize) -> bool {
        self.derived >= self.entered
            && batch > 0
            && self.derived >= kernels::GALLOP_RATIO * batch
            && known >= floor
            && self.mostly_new
    }
}

/// Statistics describing one execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionStats {
    /// Fix-point iterations executed (summed over strata).
    pub iterations: usize,
    /// New facts derived.
    pub facts_produced: usize,
    /// Candidate rows staged by `store` and handed to the update phase,
    /// summed over iterations: what was sorted and deduplicated to yield
    /// `facts_produced`. Exact and repeatable, like `update_rows_written`.
    pub candidate_rows: usize,
    /// Distinct candidate rows the update phase searched for in the known
    /// runs, summed over iterations: every distinct candidate row but those
    /// the known-row sketch ruled out (see `kernels::sort_unique`). Exact
    /// and repeatable, like `candidate_rows`.
    pub rows_searched: usize,
    /// Kernel launches on the device.
    pub kernel_launches: usize,
    /// Wall-clock time spent in symbolic execution.
    pub elapsed: Duration,
    /// Number of strata executed.
    pub strata: usize,
    /// Rows written by the update phase's run merges and compactions (a
    /// merge of `a` and `b` rows counts `a + b`; moving a table counts
    /// nothing). A deterministic measure of what folding frontiers into the
    /// stable partition costs, independent of the machine.
    pub update_rows_written: usize,
    /// Derived rows a retraction over-deleted: every row with a derivation
    /// through a retracted fact or through another over-deleted row (see
    /// [`refresh_database`](crate::refresh_database)).
    pub facts_over_deleted: usize,
    /// Over-deleted rows the same refresh derived again from what survived.
    pub facts_rederived: usize,
    /// Rows a `load` or `lookup` wrote into registers: what was read out of
    /// stored tables. A cached load counts once, when it is made. Exact and
    /// repeatable, like `candidate_rows`.
    pub rows_loaded: usize,
    /// Strata compiled to APM on the way: one per stratum by
    /// [`Executor::run_program`], one per delta stratum or retraction pass
    /// by [`refresh_database`](crate::refresh_database). A run over strata
    /// compiled ahead of time ([`Executor::run_strata`]) compiles none.
    pub strata_compiled: usize,
}

impl ExecutionStats {
    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: &ExecutionStats) {
        self.iterations += other.iterations;
        self.facts_produced += other.facts_produced;
        self.candidate_rows += other.candidate_rows;
        self.rows_searched += other.rows_searched;
        self.kernel_launches += other.kernel_launches;
        self.elapsed += other.elapsed;
        self.strata += other.strata;
        self.update_rows_written += other.update_rows_written;
        self.facts_over_deleted += other.facts_over_deleted;
        self.facts_rederived += other.facts_rederived;
        self.rows_loaded += other.rows_loaded;
        self.strata_compiled += other.strata_compiled;
    }
}

/// Errors produced while executing a program.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The simulated device ran out of memory.
    Device(DeviceError),
    /// The configured timeout was exceeded.
    Timeout {
        /// Time spent before giving up.
        elapsed: Duration,
    },
    /// The per-stratum iteration cap was exceeded (non-terminating program).
    IterationLimit {
        /// The configured cap.
        limit: usize,
    },
    /// A stratum names a relation the database does not hold: it was
    /// compiled for another program.
    UnknownRelation {
        /// The relation.
        relation: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Device(e) => write!(f, "device error: {e}"),
            ExecError::Timeout { elapsed } => write!(f, "timed out after {elapsed:?}"),
            ExecError::IterationLimit { limit } => {
                write!(f, "exceeded the iteration limit of {limit}")
            }
            ExecError::UnknownRelation { relation } => {
                write!(f, "the database holds no relation `{relation}`")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<DeviceError> for ExecError {
    fn from(e: DeviceError) -> Self {
        ExecError::Device(e)
    }
}

/// A register value during execution.
///
/// Every program reaches the executor from the compiler
/// (`compile_stratum*`), the only way a Datalog string or a wire frame
/// becomes one, and the compiler writes every register before an
/// instruction reads it and reads it as the kind its writer defines
/// (`Instr::defs`). The reads below rely on that; a hand-assembled program
/// that breaks it panics ([`Executor::run_stratum`]).
#[derive(Debug, Clone)]
enum RegValue<P: Provenance> {
    Data(Arc<Column>),
    Tags(Arc<Vec<P::Tag>>),
    Index(Arc<HashIndex>),
}

impl<P: Provenance> RegValue<P> {
    fn data(&self) -> &Arc<Column> {
        match self {
            RegValue::Data(column) => column,
            // cannot fail: a register is read as its writer's kind (above).
            other => panic!("expected data register, found {other:?}"),
        }
    }

    fn tags(&self) -> &Arc<Vec<P::Tag>> {
        match self {
            RegValue::Tags(tags) => tags,
            // cannot fail: a register is read as its writer's kind (above).
            other => panic!("expected tag register, found {other:?}"),
        }
    }

    fn index(&self) -> &HashIndex {
        match self {
            RegValue::Index(index) => index,
            // cannot fail: a register is read as its writer's kind (above).
            other => panic!("expected index register, found {other:?}"),
        }
    }
}

/// Reads a register: the iteration's own file first, then the registers that
/// survive across iterations.
fn get<'a, P: Provenance>(
    regs: &'a [Option<RegValue<P>>],
    static_file: &'a FixedMap<RegId, RegValue<P>>,
    reg: RegId,
) -> &'a RegValue<P> {
    regs[reg.0 as usize]
        .as_ref()
        .or_else(|| static_file.get(&reg))
        // cannot fail: a register is written before it is read (`RegValue`).
        .expect("register read before write")
}

/// The APM executor.
#[derive(Debug, Clone)]
pub struct Executor<P: Provenance> {
    device: Device,
    options: RuntimeOptions,
    provenance: P,
}

impl<P: Provenance> Executor<P> {
    /// Creates an executor over a device with the given options. The
    /// device's arena pool follows the executor's `buffer_reuse` option (the
    /// Figure 10 ablation toggle).
    pub fn new(device: Device, provenance: P, options: RuntimeOptions) -> Self {
        device.arena().set_reuse(options.buffer_reuse);
        Executor {
            device,
            options,
            provenance,
        }
    }

    /// The device this executor runs on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The runtime options in effect.
    pub fn options(&self) -> &RuntimeOptions {
        &self.options
    }

    /// Compiles every stratum of a RAM program with this executor's options
    /// ([`compile_stratum_with_options`]), then runs them as
    /// [`Executor::run_strata`] does. The `timeout_ms` budget starts once
    /// the strata are compiled.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on device OOM, timeout, or a hit iteration
    /// cap.
    pub fn run_program(
        &self,
        db: &mut Database<P>,
        ram: &RamProgram,
    ) -> Result<ExecutionStats, ExecError> {
        let strata: Vec<CompiledStratum> = ram
            .strata
            .iter()
            .map(|stratum| compile_stratum_with_options(stratum, ram, &self.options))
            .collect();
        let mut stats = self.run_strata(db, &strata)?;
        stats.strata_compiled += strata.len();
        Ok(stats)
    }

    /// Runs compiled strata — every stratum of a program, in order — against
    /// the database: the one from-scratch loop over strata. The `timeout_ms`
    /// budget starts here and covers the whole run.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on device OOM, timeout, or a hit iteration
    /// cap.
    pub fn run_strata(
        &self,
        db: &mut Database<P>,
        strata: &[CompiledStratum],
    ) -> Result<ExecutionStats, ExecError> {
        let mut total = ExecutionStats::default();
        let start = Instant::now();
        for compiled in strata {
            total.merge(&self.run_stratum_from(db, compiled, start, true)?);
        }
        Ok(total)
    }

    /// Runs one compiled stratum to its fix point, as a run of its own (the
    /// `timeout_ms` budget starts at the call).
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on device OOM, timeout, or a hit iteration
    /// cap.
    ///
    /// # Panics
    ///
    /// Panics on a hand-assembled stratum whose program reads a register
    /// before any instruction writes it, or as another kind than the one
    /// written — which no program from the compiler does.
    pub fn run_stratum(
        &self,
        db: &mut Database<P>,
        compiled: &CompiledStratum,
    ) -> Result<ExecutionStats, ExecError> {
        self.run_stratum_from(db, compiled, Instant::now(), true)
    }

    /// Runs one compiled stratum as part of the run that began at
    /// `run_start`, which is what the `timeout_ms` budget is measured from.
    ///
    /// With `preamble` false the run is *seeded*: the semi-naive preamble is
    /// skipped because the caller has already arranged every relation's
    /// stable/recent split — `stable` holding the materialized fix point and
    /// `recent` seeded with newly inserted rows (see
    /// [`compile_stratum_delta`](crate::compile_stratum_delta)) — and the
    /// fix point is handed back the same way: each own relation leaves with
    /// `stable` exactly as it came in and `recent` holding Δ, every frontier
    /// the run pushed, merged among themselves. Nothing rewrites the old
    /// table; folding the pair is the caller's, once, when no later stratum
    /// needs the split. Every other exit — any exit of a run with the
    /// preamble, recursive or not, and a seeded run that fails — leaves each
    /// own relation at rest: one sorted `stable`, `recent` empty. The
    /// iteration loop, update phase, and arena recycling are the same either
    /// way.
    pub(crate) fn run_stratum_from(
        &self,
        db: &mut Database<P>,
        compiled: &CompiledStratum,
        run_start: Instant,
        preamble: bool,
    ) -> Result<ExecutionStats, ExecError> {
        // A stratum compiled for another program may name a relation this
        // database does not hold: refused before anything runs.
        let read = compiled
            .program
            .instructions
            .iter()
            .filter_map(|instr| match instr {
                Instr::Load { relation, .. }
                | Instr::Lookup { relation, .. }
                | Instr::Store { relation, .. } => Some(relation),
                _ => None,
            });
        if let Some(relation) = compiled
            .relations
            .iter()
            .chain(read)
            .find(|relation| db.schema(relation).is_none())
        {
            let relation = relation.clone();
            return Err(ExecError::UnknownRelation { relation });
        }
        let mut run = StratumRun {
            seeded: !preamble,
            static_file: FixedMap::default(),
            load_cache: FixedMap::default(),
        };
        let began = Instant::now();
        let kernels_before = lobster_gpu::thread_kernel_launches();
        let mut stats = ExecutionStats {
            strata: 1,
            ..ExecutionStats::default()
        };

        // Algorithm 1: stable ← ∅, recent ← F_T for the stratum's relations.
        // A seeded run skips the merge — the caller's split *is* the initial
        // frontier — but staged chunks are still cleared defensively.
        for rel in &compiled.relations {
            let data = db.relation_data_mut(rel);
            debug_assert!(
                data.runs.is_empty() && data.sketch.is_none(),
                "`{rel}` entered a stratum with live runs or a sketch"
            );
            if preamble {
                let (stable, recent) = (data.stable.take(), data.recent.take());
                data.recent = SortedTable::merge_disjoint_owned(&self.device, stable, recent);
            }
            data.staged.clear();
        }

        let outcome = self.iterate(db, compiled, run_start, &mut run, &mut stats);
        let StratumRun {
            seeded,
            static_file,
            load_cache,
        } = run;

        // Every way out of the stratum — fix point, single pass, iteration
        // cap, timeout, OOM, kernel error — restores the at-rest invariant:
        // the sketch goes back to the arena, and the frontier left in
        // `recent` (empty once a recursive stratum converges) and the runs
        // fold into one sorted `stable`, so the database holds exactly the
        // facts of the completed iterations as one sorted, duplicate-free
        // table. The one exception is the fix point of a seeded run, whose
        // runs and frontier are the Δ the caller is waiting for: they fold
        // into `recent`, and `stable` leaves as it came.
        for rel in &compiled.relations {
            let data = db.relation_data_mut(rel);
            data.recycle_sketch(&self.device);
            let frontier = data.recent.take();
            stats.update_rows_written += data.push_run(&self.device, frontier, seeded);
            if seeded && outcome.is_ok() {
                data.recent = data.fold_runs(&self.device, &mut stats.update_rows_written);
            } else {
                stats.update_rows_written += data.compact(&self.device);
            }
        }

        // The stratum is done: cached loads and static registers die here,
        // so their buffers go back to the arena for the next stratum (or the
        // next run on this device), in the same order every run
        // (`FixedMap`).
        let arena = self.device.arena();
        for (_, (cols, _)) in load_cache {
            for col in cols {
                if let Some(col) = Arc::into_inner(col) {
                    if col.capacity() > 0 {
                        arena.recycle_shared(col);
                    }
                }
            }
        }
        for value in static_file.into_values() {
            Self::recycle_register(&self.device, value);
        }

        outcome?;
        // Counted on this thread: other runs on the device are not this one's.
        stats.kernel_launches = (lobster_gpu::thread_kernel_launches() - kernels_before) as usize;
        stats.elapsed = began.elapsed();
        Ok(stats)
    }

    /// The fix-point loop of one stratum: execute, fold the staged facts into
    /// the partitions, repeat until no relation gains a fact. Returns early
    /// on any error with the stable partitions still held as runs — the
    /// caller compacts them on every exit.
    fn iterate(
        &self,
        db: &mut Database<P>,
        compiled: &CompiledStratum,
        start: Instant,
        run: &mut StratumRun<P>,
        stats: &mut ExecutionStats,
    ) -> Result<(), ExecError> {
        let seeded = run.seeded;
        // A stratum that is not recursive runs one iteration, in which no
        // sketch can pay: it keeps no rules.
        let mut rules: Vec<SketchRule> = compiled
            .relations
            .iter()
            .filter(|_| compiled.recursive)
            .map(|rel| SketchRule {
                entered: db.relation_data(rel).len(),
                derived: 0,
                mostly_new: true,
            })
            .collect();
        let floor = self.device.min_parallel_rows();

        loop {
            if stats.iterations >= self.options.max_iterations {
                return Err(ExecError::IterationLimit {
                    limit: self.options.max_iterations,
                });
            }
            if let Some(timeout) = self.options.timeout_ms {
                if start.elapsed() > Duration::from_millis(timeout) {
                    return Err(ExecError::Timeout {
                        elapsed: start.elapsed(),
                    });
                }
            }

            self.execute_iteration(db, compiled, run, stats)?;

            // Update phase: the finished frontier becomes the newest run of
            // the stable partition — merged into older runs only while they
            // are at most twice its size (and never into the `stable` a
            // seeded run entered with), so the cost follows the frontier,
            // not everything derived so far — and the staged candidate rows
            // become the next frontier in one call: sorted, deduplicated and
            // filtered against all runs. Consumed tables are recycled into
            // the arena, which is what keeps the next iteration
            // allocation-free. Once the runs are long next to the candidate
            // batch and few candidates are known, a sketch of the known rows
            // saves most of the filter's searches (`SketchRule`).
            let mut changed = false;
            for (i, rel) in compiled.relations.iter().enumerate() {
                let data = db.relation_data_mut(rel);
                let staged = std::mem::take(&mut data.staged);
                let batch = staged.iter().map(|(_, t)| t.len()).sum::<usize>();
                stats.candidate_rows += batch;
                let (columns, tags) =
                    Self::collect_staged(&self.device, staged, data.recent.arity());
                let frontier = data.recent.take();
                stats.update_rows_written += data.push_run(&self.device, frontier, seeded);
                let rule = rules.get_mut(i);
                let known = data.stable_tables().map(SortedTable::len).sum();
                let pays = rule.as_ref().is_some_and(|r| r.pays(batch, known, floor));
                if pays && data.sketch.is_none() {
                    data.build_sketch(&self.device);
                }
                let (delta, searched) =
                    data.new_facts(&self.device, &self.provenance, columns, tags);
                stats.rows_searched += searched;
                stats.facts_produced += delta.len();
                if let Some(rule) = rule {
                    // Without a sketch every distinct candidate is searched.
                    rule.mostly_new = 2 * delta.len() >= searched;
                    rule.derived += delta.len();
                }
                if !delta.is_empty() {
                    changed = true;
                }
                data.recent = delta;
                data.sketch_recent(&self.device);
            }

            // Device memory budget check (reproduces OOM behaviour).
            if let Some(limit) = self.device.config().memory_limit {
                let used = db.size_bytes();
                if used > limit {
                    return Err(ExecError::Device(DeviceError::OutOfMemory {
                        requested: used,
                        live: used,
                        limit,
                    }));
                }
            }

            stats.iterations += 1;
            if !changed || !compiled.recursive {
                return Ok(());
            }
        }
    }

    /// Turns the staged (columns, tags) chunks produced by `store` — each
    /// already in storage encoding — into one unsorted candidate table,
    /// consuming the chunks (dead buffers go back to the arena). The first
    /// chunk is kept as it is and the others are appended to it, so the
    /// usual single chunk is not copied at all. `storage_arity` is the
    /// relation's number of lane groups.
    fn collect_staged(
        device: &Device,
        mut staged: Vec<(Vec<Column>, Vec<P::Tag>)>,
        storage_arity: usize,
    ) -> (Columns, Vec<P::Tag>) {
        // A chunk without rows only hands its buffers back: kept first, its
        // empty buffers would grow outside the arena.
        staged.retain_mut(|(columns, tags)| {
            if tags.is_empty() {
                recycle_columns(device, std::mem::take(columns));
            }
            !tags.is_empty()
        });
        let mut chunks = staged.into_iter();
        let Some((mut columns, mut tags)) = chunks.next() else {
            return (vec![Vec::new(); storage_arity], Vec::new());
        };
        for (cols, t) in chunks {
            for (dst, src) in columns.iter_mut().zip(&cols) {
                dst.extend_from_slice(src);
            }
            recycle_columns(device, cols);
            tags.extend(t);
        }
        (columns, tags)
    }

    /// `load⟨ρ⟩`: one partition of `relation` in columnar form, unpacked to
    /// one register word per logical column. `own` says the running
    /// stratum updates the relation, `seeded` that the run must hand its
    /// `stable` back as it got it.
    fn load(
        &self,
        db: &mut Database<P>,
        relation: &str,
        part: DbPart,
        own: bool,
        seeded: bool,
        stats: &mut ExecutionStats,
    ) -> LoadedTable<P::Tag> {
        // `run_stratum_from` refuses a stratum that names a relation the
        // database does not hold (`UnknownRelation`).
        // cannot fail: `relation` is one the stratum names.
        let arity = db.schema(relation).expect("loaded relation").arity();
        // The compiler treats a single-partition load as sorted (it may feed
        // a merge join), so the runs are folded into one table first: into
        // `stable` itself, or — in a seeded run, which must hand `stable`
        // back as it got it — among themselves and then, with `stable`, into
        // a table that lives for this load only.
        let mut merged_stable: Option<SortedTable<P>> = None;
        if own && part == DbPart::Stable {
            let data = db.relation_data_mut(relation);
            if seeded {
                let delta = data.fold_runs(&self.device, &mut stats.update_rows_written);
                if !delta.is_empty() {
                    stats.update_rows_written += data.stable.len() + delta.len();
                    merged_stable = Some(data.stable.merge_disjoint(&self.device, &delta));
                }
                data.push_run(&self.device, delta, true);
            } else {
                stats.update_rows_written += data.compact(&self.device);
            }
        }
        let arena = self.device.arena();
        // Stored group words are unpacked into wide registers here.
        let lanes = db.codec().lanes(relation);
        let unpack = |packed: &[Column]| -> Vec<Arc<Column>> {
            let refs: Vec<&[u64]> = packed.iter().map(|c| c.as_slice()).collect();
            kernels::unpack_columns(&self.device, &refs, lanes, arity)
                .into_iter()
                .map(Arc::new)
                .collect()
        };
        let data = db.relation_data(relation);
        let single = match part {
            DbPart::Stable => Some(merged_stable.as_ref().unwrap_or(&data.stable)),
            DbPart::Recent => Some(&data.recent),
            DbPart::All => None,
        };
        let (cols, tag_vec): (Vec<Arc<Column>>, Arc<Vec<P::Tag>>) = match single {
            Some(table) => (unpack(&table.columns), Arc::new(table.tags.clone())),
            None => {
                // `all` of a relation the stratum updates, or of a changed
                // input a delta run tracks, is compiled as unsorted, so the
                // runs and the frontier are simply concatenated — the
                // (narrow) stored columns first, then one unpack: moving
                // packed bytes is cheaper than moving unpacked ones. Any
                // other relation is at rest, one sorted `stable` table, and
                // is compiled as sorted.
                let tables = || data.stable_tables().chain(std::iter::once(&data.recent));
                let rows: usize = tables().map(SortedTable::len).sum();
                let merged_cols: Vec<Column> = (0..data.stable.columns.len())
                    .map(|c| {
                        let mut merged = arena.alloc_empty(exec_sites::LOAD, rows);
                        for table in tables() {
                            merged.extend_from_slice(&table.columns[c]);
                        }
                        merged
                    })
                    .collect();
                let cols = unpack(&merged_cols);
                recycle_columns(&self.device, merged_cols);
                let mut t = Vec::with_capacity(rows);
                for table in tables() {
                    t.extend(table.tags.iter().cloned());
                }
                (cols, Arc::new(t))
            }
        };
        if let Some(merged) = merged_stable {
            merged.recycle(&self.device);
        }
        self.device.record_kernel();
        stats.rows_loaded += tag_vec.len();
        (cols, tag_vec)
    }

    /// `load⟨ρ⟩ ⋉ k̄`: the rows of one partition of `relation` whose `key`
    /// columns equal a row of `probes`, unpacked into registers as `load`
    /// unpacks them, sorted on the key. The partition is searched
    /// as it is stored — the matches of `stable` and `recent` are then
    /// merged — or, `in_order`, in the relation's secondary order on the
    /// key, which mirrors `stable` alone. A partition of the stratum's own
    /// relation is read only before the run has pushed to it — in the first
    /// iteration of a seeded run, whose `stable` is the table it entered
    /// with.
    fn lookup(
        &self,
        db: &Database<P>,
        relation: &str,
        part: DbPart,
        key: &[usize],
        in_order: bool,
        probes: &[&[u64]],
    ) -> (Columns, Vec<P::Tag>) {
        let device = &self.device;
        let data = db.relation_data(relation);
        // The matching rows of `table`, stored in layout `name`.
        let found = |name: &str, table: &SortedTable<P>| {
            let lanes = db.key_lanes(name, key.len());
            let columns: Vec<&[u64]> = table.columns.iter().map(|c| c.as_slice()).collect();
            kernels::lookup(device, &columns, &table.tags, &lanes, probes)
        };
        // Stored words unpacked into registers.
        let unpack = |name: &str, packed: Columns| {
            let wide = db.unpacked(device, name, &packed);
            recycle_columns(device, packed);
            wide
        };
        debug_assert!(part != DbPart::Recent, "a lookup reads a stored table");
        if !in_order {
            let (packed, tags) = if part == DbPart::Stable || data.recent.is_empty() {
                found(relation, &data.stable)
            } else {
                let (stable, stable_tags) = found(relation, &data.stable);
                let (recent, recent_tags) = found(relation, &data.recent);
                fn refs(columns: &[Column]) -> Vec<&[u64]> {
                    columns.iter().map(|c| c.as_slice()).collect()
                }
                let (stable_refs, recent_refs) = (refs(&stable), refs(&recent));
                let merged = kernels::merge(
                    device,
                    &stable_refs,
                    &stable_tags,
                    &recent_refs,
                    &recent_tags,
                );
                drop((stable_refs, recent_refs));
                recycle_columns(device, stable);
                recycle_columns(device, recent);
                merged
            };
            return (unpack(relation, packed), tags);
        }
        // A lookup is compiled `in_order` only on the key of an order the
        // database keeps (`Database::orders`, read by the refresh that
        // compiles it).
        // cannot fail: `key` is such a key.
        let order = data.order(key).expect("a secondary order on the key");
        debug_assert!(
            part == DbPart::Stable || data.recent.is_empty(),
            "the order of `{relation}` on {key:?} mirrors `stable` alone"
        );
        let (packed, tags) = found(order.layout_name(), &order.table);
        let found = unpack(order.layout_name(), packed);
        // Column `i` of the order is column `order.columns[i]` of the
        // relation.
        let mut columns = vec![Vec::new(); found.len()];
        for (&column, values) in order.columns.iter().zip(found) {
            columns[column] = values;
        }
        (columns, tags)
    }

    /// `join⟨W⟩` / `mergejoin⟨W⟩`: the write pass of a join over `build`,
    /// reading its operands straight out of the register file. Tags are
    /// `left ⊗ right`, whichever side was built on.
    fn join(
        &self,
        regs: &[Option<RegValue<P>>],
        static_file: &FixedMap<RegId, RegValue<P>>,
        build: JoinBuild<'_>,
        write: &JoinWrite,
    ) -> (Vec<Column>, Vec<P::Tag>) {
        let data = |reg: RegId| get(regs, static_file, reg).data().as_slice();
        let tags = |reg: RegId| get(regs, static_file, reg).tags().as_slice();
        let probe_keys = columns_of(regs, static_file, &write.probe_keys);
        let columns: Vec<JoinColumn<'_>> = write
            .sources
            .iter()
            .map(|source| match *source {
                JoinSource::Build(reg) => JoinColumn::Build(data(reg)),
                JoinSource::Probe(reg) => JoinColumn::Probe(data(reg)),
            })
            .collect();
        let operands = kernels::JoinWrite {
            counts: data(write.counts),
            offsets: data(write.offsets),
            columns: &columns,
            pack: &write.pack,
            build_tags: tags(write.build_tags),
            probe_tags: tags(write.probe_tags),
        };
        let prov = &self.provenance;
        if write.build_is_left {
            kernels::join_write(&self.device, build, &probe_keys, &operands, |b, p| {
                prov.mul(b, p)
            })
        } else {
            kernels::join_write(&self.device, build, &probe_keys, &operands, |b, p| {
                prov.mul(p, b)
            })
        }
    }

    #[allow(clippy::too_many_lines)]
    fn execute_iteration(
        &self,
        db: &mut Database<P>,
        compiled: &CompiledStratum,
        run: &mut StratumRun<P>,
        stats: &mut ExecutionStats,
    ) -> Result<(), ExecError> {
        let StratumRun {
            seeded,
            static_file,
            load_cache,
        } = run;
        let seeded = *seeded;
        // The stratum's iteration counter is the number completed so far.
        let iteration = stats.iterations;
        let program = &compiled.program;
        let mut regs: Vec<Option<RegValue<P>>> = vec![None; program.register_count as usize];

        let set = |regs: &mut Vec<Option<RegValue<P>>>, reg: RegId, value: RegValue<P>| {
            regs[reg.0 as usize] = Some(value);
        };
        macro_rules! data {
            ($reg:expr) => {
                get(&regs, static_file, $reg).data().clone()
            };
        }
        macro_rules! tags {
            ($reg:expr) => {
                get(&regs, static_file, $reg).tags().clone()
            };
        }

        for (pc, instr) in program.instructions.iter().enumerate() {
            if iteration > 0
                && program
                    .first_iteration_only
                    .get(pc)
                    .copied()
                    .unwrap_or(false)
            {
                continue;
            }
            match instr {
                Instr::Load {
                    relation,
                    part,
                    columns,
                    tags,
                } => {
                    let is_own = compiled.relations.contains(relation);
                    let cacheable = self.options.buffer_reuse && !is_own && *part == DbPart::All;
                    let cached = load_cache.get(relation).filter(|_| cacheable);
                    let mut loaded = None;
                    let (cols, tag_vec) = match cached {
                        Some(hit) => hit,
                        None => {
                            &*loaded.insert(self.load(db, relation, *part, is_own, seeded, stats))
                        }
                    };
                    for (reg, col) in columns.iter().zip(cols) {
                        set(&mut regs, *reg, RegValue::Data(col.clone()));
                    }
                    set(&mut regs, *tags, RegValue::Tags(tag_vec.clone()));
                    if let Some(loaded) = loaded.filter(|_| cacheable) {
                        load_cache.insert(relation.clone(), loaded);
                    }
                }
                Instr::Lookup {
                    relation,
                    part,
                    key,
                    in_order,
                    probes,
                    columns,
                    tags,
                } => {
                    debug_assert!(
                        !compiled.relations.contains(relation)
                            || (*part == DbPart::Stable
                                && db.relation_data(relation).runs.is_empty()),
                        "`{relation}` looked up after its stratum pushed to it"
                    );
                    let probes = columns_of(&regs, static_file, probes);
                    let (found, found_tags) =
                        self.lookup(db, relation, *part, key, *in_order, &probes);
                    stats.rows_loaded += found_tags.len();
                    set_table(&mut regs, columns, found, *tags, found_tags);
                }
                Instr::Store {
                    relation,
                    columns,
                    tags,
                    packed,
                } => {
                    let lanes = db.codec().lanes(relation);
                    debug_assert!(
                        !packed
                            || pc
                                .checked_sub(1)
                                .and_then(|p| program.instructions[p].pack())
                                == Some(lanes),
                        "`{relation}` is stored packed in other lanes than its own"
                    );
                    // The registers this store is the last to read leave the
                    // file as they are read, so a buffer nothing else holds
                    // is staged as it is. One that is still shared — a
                    // cached load, a register a columnar copy aliased, a
                    // later store — is copied, or packed into a fresh one.
                    let last = program.last_reads(pc);
                    let mut take = |reg: RegId| {
                        let slot = &mut regs[reg.0 as usize];
                        let value = if last.contains(&reg) {
                            slot.take()
                        } else {
                            slot.clone()
                        };
                        // cannot fail: a register is written before it is read.
                        value.expect("register read before write")
                    };
                    let mut cols: Vec<Arc<Column>> =
                        columns.iter().map(|r| take(*r).data().clone()).collect();
                    let mut tag_vec = take(*tags).tags().clone();
                    let arena = self.device.arena();
                    if !tag_vec.iter().all(|t| self.provenance.accept(t)) {
                        // Rows whose tag collapsed to an unacceptable value
                        // (e.g. a conflicting proof) are dropped while
                        // copying.
                        let keep: Vec<usize> = (0..tag_vec.len())
                            .filter(|&i| self.provenance.accept(&tag_vec[i]))
                            .collect();
                        cols = cols
                            .into_iter()
                            .map(|src| {
                                let mut out = arena.alloc_empty(exec_sites::STORE, keep.len());
                                out.extend(keep.iter().map(|&i| src[i]));
                                Self::recycle_register(&self.device, RegValue::Data(src));
                                Arc::new(out)
                            })
                            .collect();
                        tag_vec = Arc::new(keep.iter().map(|&i| tag_vec[i].clone()).collect());
                    }
                    let cols = if *packed {
                        cols.into_iter()
                            .map(|col| {
                                Arc::try_unwrap(col).unwrap_or_else(|shared| {
                                    arena.alloc_copy(exec_sites::STORE, &shared)
                                })
                            })
                            .collect()
                    } else {
                        let refs: Vec<&[u64]> = cols.iter().map(|c| c.as_slice()).collect();
                        let words = kernels::pack_columns(&self.device, &refs, lanes);
                        drop(refs);
                        for col in cols {
                            Self::recycle_register(&self.device, RegValue::Data(col));
                        }
                        words
                    };
                    let tag_vec =
                        Arc::try_unwrap(tag_vec).unwrap_or_else(|shared| (*shared).clone());
                    db.relation_data_mut(relation).staged.push((cols, tag_vec));
                }
                Instr::Eval {
                    inputs,
                    input_tags,
                    projection,
                    pack,
                    outputs,
                    output_tags,
                } => {
                    let in_cols: Vec<Arc<Column>> = inputs.iter().map(|r| data!(*r)).collect();
                    let in_tags = tags!(*input_tags);
                    let rows = in_tags.len();
                    if let Some(perm) = projection.permutation.as_ref() {
                        // Columnar-copy fast path (Section 5.2). The compiler
                        // packs no copy's outputs: the store after it packs.
                        debug_assert_eq!(*pack, kernels::identity_lanes(outputs.len()));
                        self.device.record_kernel();
                        for (out, src) in outputs.iter().zip(perm) {
                            set(&mut regs, *out, RegValue::Data(in_cols[*src].clone()));
                        }
                        set(&mut regs, *output_tags, RegValue::Tags(in_tags.clone()));
                    } else {
                        // Chunk-level evaluation: the input-row buffer, the
                        // output-row buffer, the packed-word buffer and the
                        // expression stack are hoisted out of the row loop,
                        // so evaluating a row allocates nothing.
                        let out_arity = projection.output_arity();
                        let (out_cols, sources) =
                            kernels::eval(&self.device, rows, pack.len(), |range, sink| {
                                let mut row = vec![0u64; in_cols.len()];
                                let mut out = vec![0u64; out_arity];
                                let mut words = vec![0u64; pack.len()];
                                let mut stack: Vec<u64> = Vec::with_capacity(8);
                                for i in range {
                                    for (slot, col) in row.iter_mut().zip(&in_cols) {
                                        *slot = col[i];
                                    }
                                    if !projection.eval_into(&row, &mut out, &mut stack) {
                                        continue;
                                    }
                                    for (word, lanes) in words.iter_mut().zip(pack.iter()) {
                                        *word = lanes.iter().fold(0, |word, lane| {
                                            word | lane.place(out[lane.column])
                                        });
                                    }
                                    sink.emit(i, &words);
                                }
                            });
                        let out_tag_vec = kernels::gather_tags(&self.device, &sources, &in_tags);
                        for (out, col) in outputs.iter().zip(out_cols) {
                            set(&mut regs, *out, RegValue::Data(Arc::new(col)));
                        }
                        set(
                            &mut regs,
                            *output_tags,
                            RegValue::Tags(Arc::new(out_tag_vec)),
                        );
                    }
                }
                Instr::Build {
                    keys,
                    index,
                    static_,
                } => {
                    let use_static = *static_ && self.options.static_registers;
                    if !(use_static && static_file.contains_key(index)) {
                        let key_refs: Vec<&[u64]> = keys
                            .iter()
                            .map(|r| get(&regs, static_file, *r).data().as_slice())
                            .collect();
                        let built = HashIndex::build(
                            &self.device,
                            &key_refs,
                            self.device.config().hash_table_expansion,
                        );
                        self.device.try_alloc(built.size_bytes())?;
                        self.device.free(built.size_bytes());
                        let value = RegValue::Index(Arc::new(built));
                        if use_static {
                            static_file.insert(*index, value);
                        } else {
                            set(&mut regs, *index, value);
                        }
                    }
                }
                Instr::Count {
                    index,
                    probe_keys,
                    counts,
                } => {
                    let idx = get(&regs, static_file, *index).index();
                    let probe_refs = columns_of(&regs, static_file, probe_keys);
                    let result = kernels::count_matches(&self.device, idx, &probe_refs);
                    set(&mut regs, *counts, RegValue::Data(Arc::new(result)));
                }
                Instr::Scan { counts, offsets } => {
                    let input = data!(*counts);
                    let (result, _total) = kernels::scan(&self.device, &input);
                    set(&mut regs, *offsets, RegValue::Data(Arc::new(result)));
                }
                Instr::Join { index, write } => {
                    let build = JoinBuild::Hash(get(&regs, static_file, *index).index());
                    let (cols, tag_vec) = self.join(&regs, static_file, build, write);
                    set_table(&mut regs, &write.outputs, cols, write.output_tags, tag_vec);
                }
                Instr::MergeCount {
                    build_keys,
                    probe_keys,
                    counts,
                } => {
                    let build_refs = columns_of(&regs, static_file, build_keys);
                    let probe_refs = columns_of(&regs, static_file, probe_keys);
                    let result = kernels::merge_count(&self.device, &build_refs, &probe_refs);
                    set(&mut regs, *counts, RegValue::Data(Arc::new(result)));
                }
                Instr::MergeJoin { build_keys, write } => {
                    let build_refs = columns_of(&regs, static_file, build_keys);
                    let build = JoinBuild::Sorted(&build_refs);
                    let (cols, tag_vec) = self.join(&regs, static_file, build, write);
                    set_table(&mut regs, &write.outputs, cols, write.output_tags, tag_vec);
                }
                Instr::Product {
                    left,
                    left_tags,
                    right,
                    right_tags,
                    outputs,
                    output_tags,
                } => {
                    let l_cols: Vec<Arc<Column>> = left.iter().map(|r| data!(*r)).collect();
                    let r_cols: Vec<Arc<Column>> = right.iter().map(|r| data!(*r)).collect();
                    let lt = tags!(*left_tags);
                    let rt = tags!(*right_tags);
                    self.device.record_kernel();
                    let (n, m) = (lt.len(), rt.len());
                    let arena = self.device.arena();
                    let mut out_cols: Vec<Column> = (0..l_cols.len() + r_cols.len())
                        .map(|_| arena.alloc_empty(exec_sites::PRODUCT, n * m))
                        .collect();
                    let mut out_tags: Vec<P::Tag> = Vec::with_capacity(n * m);
                    for i in 0..n {
                        for j in 0..m {
                            for (c, col) in l_cols.iter().enumerate() {
                                out_cols[c].push(col[i]);
                            }
                            for (c, col) in r_cols.iter().enumerate() {
                                out_cols[l_cols.len() + c].push(col[j]);
                            }
                            out_tags.push(self.provenance.mul(&lt[i], &rt[j]));
                        }
                    }
                    for (reg, col) in outputs.iter().zip(out_cols) {
                        set(&mut regs, *reg, RegValue::Data(Arc::new(col)));
                    }
                    set(&mut regs, *output_tags, RegValue::Tags(Arc::new(out_tags)));
                }
                Instr::Append {
                    inputs,
                    outputs,
                    output_tags,
                } => {
                    let tables: Vec<LoadedTable<P::Tag>> = inputs
                        .iter()
                        .map(|(cols, tags)| {
                            (cols.iter().map(|r| data!(*r)).collect(), tags!(*tags))
                        })
                        .collect();
                    self.device.record_kernel();
                    let arity = outputs.len();
                    let arena = self.device.arena();
                    let rows: usize = tables.iter().map(|(_, t)| t.len()).sum();
                    let mut out_cols: Vec<Column> = (0..arity)
                        .map(|_| arena.alloc_empty(exec_sites::APPEND, rows))
                        .collect();
                    let mut out_tags: Vec<P::Tag> = Vec::with_capacity(rows);
                    for (cols, tags) in &tables {
                        for (c, col) in cols.iter().enumerate() {
                            out_cols[c].extend_from_slice(col);
                        }
                        out_tags.extend(tags.iter().cloned());
                    }
                    for (reg, col) in outputs.iter().zip(out_cols) {
                        set(&mut regs, *reg, RegValue::Data(Arc::new(col)));
                    }
                    set(&mut regs, *output_tags, RegValue::Tags(Arc::new(out_tags)));
                }
            }
            // The registers nothing reads after this instruction die here —
            // the one place they do, with every handle the arm took on them
            // already dropped — and a column this was the last owner of goes
            // back to the arena there and then.
            for reg in program.last_reads(pc) {
                if let Some(value) = regs[reg.0 as usize].take() {
                    Self::recycle_register(&self.device, value);
                }
            }
        }
        // Register sweep: whatever outlived its last reader (registers of a
        // skipped instruction, a non-static index) dies with the iteration.
        for value in regs.into_iter().flatten() {
            Self::recycle_register(&self.device, value);
        }
        Ok(())
    }

    /// Drops a register value; a column or index it was the sole owner of
    /// (cached loads and static registers keep other owners) goes back to
    /// the arena, funding later allocations.
    fn recycle_register(device: &Device, value: RegValue<P>) {
        match value {
            RegValue::Data(col) => {
                if let Some(col) = Arc::into_inner(col) {
                    if col.capacity() > 0 {
                        device.arena().recycle_shared(col);
                    }
                }
            }
            RegValue::Index(index) => {
                if let Some(index) = Arc::into_inner(index) {
                    index.recycle(device);
                }
            }
            RegValue::Tags(_) => {}
        }
    }
}

/// The columns a list of data registers holds.
fn columns_of<'a, P: Provenance>(
    regs: &'a [Option<RegValue<P>>],
    static_file: &'a FixedMap<RegId, RegValue<P>>,
    columns: &[RegId],
) -> Vec<&'a [u64]> {
    columns
        .iter()
        .map(|reg| get(regs, static_file, *reg).data().as_slice())
        .collect()
}

/// Writes a table an instruction produced into its destination registers.
fn set_table<P: Provenance>(
    regs: &mut [Option<RegValue<P>>],
    outputs: &[RegId],
    columns: Vec<Column>,
    output_tags: RegId,
    tags: Vec<P::Tag>,
) {
    for (reg, column) in outputs.iter().zip(columns) {
        regs[reg.0 as usize] = Some(RegValue::Data(Arc::new(column)));
    }
    regs[output_tags.0 as usize] = Some(RegValue::Tags(Arc::new(tags)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_datalog::parse;
    use lobster_gpu::DeviceConfig;
    use lobster_provenance::{AddMultProb, InputFactId, MaxMinProb, Unit};
    use lobster_ram::Value;

    fn run_tc(edges: &[(u32, u32)]) -> Vec<(u32, u32)> {
        let compiled = parse(
            "type edge(x: u32, y: u32)
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
             query path",
        )
        .unwrap();
        let device = Device::sequential();
        let mut db = Database::new(compiled.ram.schemas.clone(), Unit::new());
        for (a, b) in edges {
            db.insert("edge", &[Value::U32(*a), Value::U32(*b)], ());
        }
        db.seal(&device);
        let exec = Executor::new(device, Unit::new(), RuntimeOptions::default());
        exec.run_program(&mut db, &compiled.ram).unwrap();
        let mut rows: Vec<(u32, u32)> = db
            .rows("path")
            .into_iter()
            .map(|(t, _)| (t[0].as_u32().unwrap(), t[1].as_u32().unwrap()))
            .collect();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn transitive_closure_of_a_chain() {
        let rows = run_tc(&[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(rows, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn transitive_closure_of_a_cycle_terminates() {
        let rows = run_tc(&[(0, 1), (1, 2), (2, 0)]);
        // Every ordered pair over {0,1,2} is reachable, including self-loops.
        assert_eq!(rows.len(), 9);
    }

    #[test]
    fn probabilities_propagate_along_paths() {
        let compiled = parse(
            "type edge(x: u32, y: u32)
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
             query path",
        )
        .unwrap();
        let device = Device::sequential();
        let prov = MaxMinProb::new();
        let mut db = Database::new(compiled.ram.schemas.clone(), prov);
        db.insert("edge", &[Value::U32(0), Value::U32(1)], 0.9);
        db.insert("edge", &[Value::U32(1), Value::U32(2)], 0.5);
        db.seal(&device);
        let exec = Executor::new(device, prov, RuntimeOptions::default());
        exec.run_program(&mut db, &compiled.ram).unwrap();
        let rows = db.rows("path");
        let p02 = rows
            .iter()
            .find(|(t, _)| t[0] == Value::U32(0) && t[1] == Value::U32(2))
            .map(|(_, tag)| *tag)
            .unwrap();
        assert!(
            (p02 - 0.5).abs() < 1e-9,
            "max-min path probability should be the weakest edge"
        );
    }

    #[test]
    fn selections_and_nullary_outputs_work() {
        let compiled = parse(
            "type edge(x: u32, y: u32)
             type is_endpoint(x: u32)
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
             rel connected() = is_endpoint(x), is_endpoint(y), path(x, y), x != y
             query connected",
        )
        .unwrap();
        let device = Device::sequential();
        let prov = AddMultProb::new();
        let mut db = Database::new(compiled.ram.schemas.clone(), prov);
        db.insert("edge", &[Value::U32(0), Value::U32(1)], 0.8);
        db.insert("edge", &[Value::U32(1), Value::U32(2)], 0.7);
        db.insert(
            "is_endpoint",
            &[Value::U32(0)],
            prov.input_tag(InputFactId(10), Some(1.0)),
        );
        db.insert(
            "is_endpoint",
            &[Value::U32(2)],
            prov.input_tag(InputFactId(11), Some(1.0)),
        );
        db.seal(&device);
        let exec = Executor::new(device, prov, RuntimeOptions::default());
        exec.run_program(&mut db, &compiled.ram).unwrap();
        let rows = db.rows("connected");
        assert_eq!(rows.len(), 1);
        assert!(rows[0].1 > 0.0);
    }

    #[test]
    fn optimizations_do_not_change_results() {
        let edges: Vec<(u32, u32)> = (0..40).map(|i| (i, i + 1)).collect();
        let reference = run_tc(&edges);
        for options in [
            RuntimeOptions::unoptimized(),
            RuntimeOptions::default().with_static_registers(false),
            RuntimeOptions::default().with_buffer_reuse(false),
        ] {
            let compiled = parse(
                "type edge(x: u32, y: u32)
                 rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
                 query path",
            )
            .unwrap();
            let device = Device::sequential();
            let mut db = Database::new(compiled.ram.schemas.clone(), Unit::new());
            for (a, b) in &edges {
                db.insert("edge", &[Value::U32(*a), Value::U32(*b)], ());
            }
            db.seal(&device);
            let exec = Executor::new(device, Unit::new(), options);
            exec.run_program(&mut db, &compiled.ram).unwrap();
            let mut rows: Vec<(u32, u32)> = db
                .rows("path")
                .into_iter()
                .map(|(t, _)| (t[0].as_u32().unwrap(), t[1].as_u32().unwrap()))
                .collect();
            rows.sort_unstable();
            assert_eq!(rows, reference);
        }
    }

    #[test]
    fn steady_state_iterations_allocate_no_fresh_columns() {
        // Chains of different lengths execute the same per-iteration
        // instruction structure — only for more iterations. With arena reuse
        // enabled every steady-state iteration is funded by recycled
        // buffers, so fresh allocations cannot grow with the iteration
        // count. They are not *constant* in it either, since the stable
        // partition became a set of sorted runs: a chain twice as long keeps
        // about one more run alive at its peak, and a live run holds its
        // columns out of the pool. What buffer reuse (Section 4.1) promises
        // now is fresh columns ∝ live runs = O(log iterations): each
        // doubling of the chain costs a small constant number of columns,
        // and that constant is the same at 16× the length.
        let fresh = |n: u32, reuse: bool| {
            let compiled = parse(
                "type edge(x: u32, y: u32)
                 rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))",
            )
            .unwrap();
            let device = Device::sequential();
            let mut db = Database::new(compiled.ram.schemas.clone(), Unit::new());
            for i in 0..n {
                db.insert("edge", &[Value::U32(i), Value::U32(i + 1)], ());
            }
            db.seal(&device);
            let exec = Executor::new(
                device.clone(),
                Unit::new(),
                RuntimeOptions::default().with_buffer_reuse(reuse),
            );
            let stats = exec.run_program(&mut db, &compiled.ram).unwrap();
            assert!(stats.iterations > n as usize / 2, "fix-point actually ran");
            device.arena().metrics().get("fresh_columns").unwrap()
        };
        // Every run crosses every size threshold from iteration 0 (the first
        // candidate stages n ≥ 64 rows), so the instruction-level allocation
        // structure is identical; the longer chains just iterate more. One
        // more run is one more buffer per stored column (one here: `path`
        // packs into one word).
        // A register goes back to the arena at its last read, so it funds
        // the instructions after it in the same iteration (43 when registers
        // were only swept at the end of an iteration).
        assert!(fresh(80, true) <= 36, "{} fresh columns", fresh(80, true));
        let per_doubling = |n: u32| fresh(2 * n, true) - fresh(n, true);
        let (short, long) = (per_doubling(80), per_doubling(640));
        assert!(
            short <= 4 && long <= 4,
            "a doubling of the chain allocated {short} / {long} fresh columns"
        );
        assert!(
            long <= short,
            "fresh columns per doubling grew with the iteration count: {short} -> {long}"
        );
        // Ablation sanity: without reuse, allocations scale with iterations.
        assert!(fresh(160, false) > fresh(80, false) + 80);

        // Iteration by iteration, with the fused join: a run capped at k + 1
        // iterations differs from one capped at k by iteration k alone. On a
        // cycle every frontier is as long as the first, so from the fourth
        // iteration on — once `stable`, a frontier and a candidate all
        // exist — an iteration allocates nothing fresh, except the
        // O(log iterations) ones that add a live run, which pin exactly its
        // one packed column. A register freed instead of recycled (one
        // released while its instruction still held a handle on it) would
        // show as a fresh column in every iteration. Candidate rows go to
        // their frontier in one `sort_unique` launch, one word per row,
        // whose direct-address table and segment scratch come from the
        // arena. A
        // cycle's candidate is one row per source, already in order, so a
        // cycle of layers joined layer to next layer by every edge between
        // them is run too: each source's 16 candidate rows hold 4 words 4
        // times over, out of order in the low 2 bits — the dense path.
        fn fresh_by_cap<Q: Provenance>(
            prov: &Q,
            edges: &[(u32, u32)],
            tag: impl Fn(u32) -> Q::Tag,
        ) -> Vec<u64> {
            let compiled = parse(LINEAR_TC).unwrap();
            (1..=40)
                .map(|cap| {
                    let device = Device::sequential();
                    let mut db = Database::new(compiled.ram.schemas.clone(), prov.clone());
                    for (i, (from, to)) in (0..).zip(edges) {
                        db.insert("edge", &[Value::U32(*from), Value::U32(*to)], tag(i));
                    }
                    db.seal(&device);
                    let options = RuntimeOptions {
                        max_iterations: cap,
                        ..RuntimeOptions::default()
                    };
                    let exec = Executor::new(device.clone(), prov.clone(), options);
                    let outcome = exec.run_program(&mut db, &compiled.ram);
                    assert_eq!(outcome, Err(ExecError::IterationLimit { limit: cap }));
                    device.arena().metrics().get("fresh_columns").unwrap()
                })
                .collect()
        }
        let cycle: Vec<(u32, u32)> = (0..120).map(|i| (i, (i + 1) % 120)).collect();
        let (layers, width) = (48, 4);
        let layered: Vec<(u32, u32)> = (0..layers * width * width)
            .map(|e| {
                let (layer, from, to) = (e / (width * width), e / width % width, e % width);
                (layer * width + from, (layer + 1) % layers * width + to)
            })
            .collect();
        let minmax_tag = |i: u32| 0.2 + f64::from(i % 7) / 10.0;
        for edges in [&cycle, &layered] {
            let unit = fresh_by_cap(&Unit::new(), edges, |_| ());
            let minmax = fresh_by_cap(&MaxMinProb::new(), edges, minmax_tag);
            for by_cap in [unit, minmax] {
                let steady: Vec<u64> = by_cap[3..].windows(2).map(|w| w[1] - w[0]).collect();
                assert!(
                    steady.iter().all(|&delta| delta <= 1),
                    "fresh columns per steady-state iteration: {steady:?}"
                );
                let new_runs = steady.iter().filter(|&&delta| delta == 1).count();
                assert!(
                    new_runs <= 1 + steady.len().ilog2() as usize,
                    "{new_runs} iterations of {} allocated fresh columns: {steady:?}",
                    steady.len()
                );
            }
        }
    }

    const LINEAR_TC: &str = "type edge(x: u32, y: u32)
         rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
         query path";

    /// Runs `source` over the chain `0 → 1 → … → n` and returns the outcome
    /// with `path` as `Database::rows` reports it (not re-sorted).
    fn run_chain(
        source: &str,
        n: u32,
        options: RuntimeOptions,
    ) -> (Result<ExecutionStats, ExecError>, Vec<(u32, u32)>) {
        let compiled = parse(source).unwrap();
        let device = Device::sequential();
        let mut db = Database::new(compiled.ram.schemas.clone(), Unit::new());
        for i in 0..n {
            db.insert("edge", &[Value::U32(i), Value::U32(i + 1)], ());
        }
        db.seal(&device);
        let exec = Executor::new(device, Unit::new(), options);
        let outcome = exec.run_program(&mut db, &compiled.ram);
        let rows = db
            .rows("path")
            .into_iter()
            .map(|(t, _)| (t[0].as_u32().unwrap(), t[1].as_u32().unwrap()))
            .collect();
        (outcome, rows)
    }

    /// Every `(i, j)` of the chain with `0 < j - i <= hops`, in sorted order.
    fn chain_paths(n: u32, hops: u32) -> Vec<(u32, u32)> {
        (0..n)
            .flat_map(|i| (i + 1..=(i + hops).min(n)).map(move |j| (i, j)))
            .collect()
    }

    #[test]
    fn nonlinear_recursion_compacts_before_loading_stable() {
        // `path ⋈ path` has a (stable, recent) variant, and a single-partition
        // load must be one sorted table — so the runs are folded on demand,
        // every iteration. The closure must not notice.
        let nonlinear = "type edge(x: u32, y: u32)
             rel path(x, y) = edge(x, y) or (path(x, z) and path(z, y))
             query path";
        let stratum = parse(nonlinear).unwrap();
        let stratum = compile_stratum_with_options(
            &stratum.ram.strata[0],
            &stratum.ram,
            &RuntimeOptions::default(),
        );
        assert!(stratum.program.instructions.iter().any(|i| matches!(
            i,
            Instr::Load {
                part: DbPart::Stable,
                ..
            }
        )));
        let (linear, want) = run_chain(LINEAR_TC, 70, RuntimeOptions::default());
        let (outcome, rows) = run_chain(nonlinear, 70, RuntimeOptions::default());
        assert_eq!(rows, want);
        assert_eq!(rows, chain_paths(70, 70));
        // Doubling path lengths closes the chain in O(log n) iterations.
        assert!(outcome.unwrap().iterations < linear.unwrap().iterations / 4);
    }

    #[test]
    fn a_stratum_cut_short_leaves_one_sorted_table() {
        // Iteration k derives the paths of k + 1 hops, so a cap of 10 leaves
        // exactly the paths of at most 10 hops — as one sorted table, with
        // the runs and the last frontier folded in.
        let (outcome, rows) = run_chain(
            LINEAR_TC,
            40,
            RuntimeOptions {
                max_iterations: 10,
                ..RuntimeOptions::default()
            },
        );
        assert_eq!(outcome, Err(ExecError::IterationLimit { limit: 10 }));
        assert_eq!(rows, chain_paths(40, 10));

        // Wherever the deadline falls, the iterations that completed are all
        // there and nothing else is: some whole number of hops.
        let (outcome, rows) = run_chain(
            LINEAR_TC,
            3000,
            RuntimeOptions::default().with_timeout_ms(Some(5)),
        );
        assert!(matches!(outcome, Err(ExecError::Timeout { .. })));
        let hops = rows.iter().map(|(i, j)| j - i).max().unwrap_or(0);
        assert_eq!(rows, chain_paths(3000, hops));
    }

    #[test]
    fn update_phase_writes_each_row_a_logarithmic_number_of_times() {
        // Folding every frontier into one sorted table rewrote all of it on
        // every iteration: Θ(iterations × facts / 2) rows. With geometric
        // runs a row is rewritten when its run doubles, and once more by the
        // final compaction.
        for n in [128u32, 512] {
            let (outcome, rows) = run_chain(LINEAR_TC, n, RuntimeOptions::default());
            let stats = outcome.unwrap();
            assert_eq!(stats.facts_produced, rows.len());
            // A chain derives every path exactly once.
            assert_eq!(stats.candidate_rows, rows.len());
            let bound = stats.facts_produced * (2 + stats.iterations.ilog2() as usize);
            assert!(
                stats.update_rows_written > 0 && stats.update_rows_written <= bound,
                "{n} edges: {} rows written, bound {bound}",
                stats.update_rows_written
            );
        }
    }

    #[test]
    fn a_chain_derives_each_path_once_and_loads_each_frontier_once() {
        // The base rule runs in the first iteration only, so each iteration
        // joins just the last frontier: the 64-edge chain's 2,080 paths are
        // each a candidate once, in 64 iterations and one that finds
        // nothing, and the loads read the edges once (a cached load) and
        // every frontier once — the arithmetic of the 512-edge chain's
        // 131,328 / 513 / 131,840.
        let (outcome, rows) = run_chain(LINEAR_TC, 64, RuntimeOptions::default());
        let stats = outcome.unwrap();
        assert_eq!(rows.len(), 64 * 65 / 2);
        assert_eq!(stats.candidate_rows, 2_080);
        assert_eq!(stats.facts_produced, 2_080);
        assert_eq!(stats.iterations, 65);
        assert_eq!(stats.rows_loaded, 2_144);
    }

    #[test]
    fn a_known_row_sketch_spares_a_chain_its_searches() {
        // No candidate of a chain is known. Once the run has derived 8×
        // its candidate batch and 4,096 rows, the sketch rules out almost
        // every candidate, and only the rows of the iterations before it
        // and its false positives are searched.
        let (outcome, rows) = run_chain(LINEAR_TC, 512, RuntimeOptions::default());
        let stats = outcome.unwrap();
        assert_eq!(rows, chain_paths(512, 512));
        assert_eq!(stats.facts_produced, 131_328);
        assert_eq!(stats.candidate_rows, 131_328);
        assert_eq!(stats.rows_searched, ROWS_SEARCHED_ON_THE_CHAIN);
        assert!(stats.rows_searched * 20 <= stats.facts_produced);

        // Where the candidate batches are as large as what the run knows
        // and many candidates are known, no sketch is built and every
        // distinct candidate is searched: the counts of the same run
        // without a sketch.
        let searched: Vec<usize> = [32, 128]
            .into_iter()
            .map(|nodes| {
                let compiled = parse(LINEAR_TC).unwrap();
                let device = Device::sequential();
                let prov = MaxMinProb::new();
                let mut db = Database::new(compiled.ram.schemas.clone(), prov);
                for (i, from) in (0..nodes).enumerate() {
                    for k in 0..8 {
                        let to = (from * 5 + k * k * 3 + 1) % nodes;
                        let p = 0.5 + (i % 5) as f64 / 10.0;
                        db.insert("edge", &[Value::U32(from), Value::U32(to)], p);
                    }
                }
                db.seal(&device);
                let exec = Executor::new(device, prov, RuntimeOptions::default());
                let stats = exec.run_program(&mut db, &compiled.ram).unwrap();
                stats.rows_searched
            })
            .collect();
        assert_eq!(searched, [2_736, 46_152]);
    }

    /// The distinct candidate rows the 512-edge chain searches for: the
    /// 4,572 of its first 9 iterations, before the sketch, and 43 false
    /// positives after. Without the sketch it searches all 131,328.
    const ROWS_SEARCHED_ON_THE_CHAIN: usize = 4_615;

    #[test]
    fn memory_budget_produces_oom_error() {
        let compiled = parse(
            "type edge(x: u32, y: u32)
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))",
        )
        .unwrap();
        let device = Device::new(DeviceConfig {
            memory_limit: Some(2_000),
            ..DeviceConfig::default()
        });
        let mut db = Database::new(compiled.ram.schemas.clone(), Unit::new());
        for i in 0..200u32 {
            db.insert("edge", &[Value::U32(i), Value::U32(i + 1)], ());
        }
        db.seal(&device);
        let exec = Executor::new(device, Unit::new(), RuntimeOptions::default());
        let err = exec.run_program(&mut db, &compiled.ram).unwrap_err();
        assert!(matches!(
            err,
            ExecError::Device(DeviceError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn a_stratum_of_another_program_is_refused() {
        let compiled = parse(LINEAR_TC).unwrap();
        let other = parse("type edge(x: u32, y: u32)\nrel hop(x, y) = edge(x, y)").unwrap();
        let device = Device::sequential();
        let mut db = Database::new(other.ram.schemas.clone(), Unit::new());
        db.insert("edge", &[Value::U32(0), Value::U32(1)], ());
        db.seal(&device);
        let exec = Executor::new(device, Unit::new(), RuntimeOptions::default());
        let stratum = compile_stratum_with_options(
            &compiled.ram.strata[0],
            &compiled.ram,
            &RuntimeOptions::default(),
        );
        let err = exec.run_stratum(&mut db, &stratum).unwrap_err();
        let relation = "path".to_string();
        assert_eq!(err, ExecError::UnknownRelation { relation });
        assert_eq!(db.rows("edge").len(), 1, "nothing ran");
    }

    #[test]
    fn timeout_is_reported() {
        let compiled = parse(
            "type edge(x: u32, y: u32)
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))",
        )
        .unwrap();
        let device = Device::sequential();
        let mut db = Database::new(compiled.ram.schemas.clone(), Unit::new());
        for i in 0..3000u32 {
            db.insert("edge", &[Value::U32(i), Value::U32(i + 1)], ());
        }
        db.seal(&device);
        let exec = Executor::new(
            device,
            Unit::new(),
            RuntimeOptions::default().with_timeout_ms(Some(0)),
        );
        let err = exec.run_program(&mut db, &compiled.ram).unwrap_err();
        assert!(matches!(err, ExecError::Timeout { .. }));
    }

    #[test]
    fn stores_move_a_register_they_are_last_to_read_and_copy_a_shared_one() {
        use crate::isa::ApmProgram;
        use lobster_ram::{RelationSchema, RowProjection, ScalarExpr, ValueType};

        // `src` is loaded once; `same` is stored from the loaded registers
        // twice (the first store must leave them intact for the second) and
        // `swapped` from registers a columnar copy aliased to them (the
        // buffers are still the loaded registers' when it is stored).
        let reg = |n: u32| RegId(n);
        let store = |relation: &str, columns: [u32; 2], tags: u32| Instr::Store {
            relation: relation.into(),
            columns: columns.map(RegId).to_vec(),
            tags: reg(tags),
            packed: false,
        };
        let program = ApmProgram::new(
            vec![
                Instr::Load {
                    relation: "src".into(),
                    part: DbPart::Recent,
                    columns: vec![reg(0), reg(1)],
                    tags: reg(2),
                },
                Instr::Eval {
                    inputs: vec![reg(0), reg(1)],
                    input_tags: reg(2),
                    projection: RowProjection::new(
                        vec![ScalarExpr::Col(1), ScalarExpr::Col(0)],
                        None,
                    ),
                    pack: kernels::identity_lanes(2),
                    outputs: vec![reg(3), reg(4)],
                    output_tags: reg(5),
                },
                store("same", [0, 1], 2),
                store("swapped", [3, 4], 5),
                store("same", [0, 1], 2),
            ],
            vec![false; 5],
            6,
            Vec::new(),
            vec!["src".into(), "same".into(), "swapped".into()],
        );
        // Only the last store is the last reader of what it stores.
        assert!(program.last_reads(2).is_empty());
        assert_eq!(program.last_reads(3), [reg(3), reg(4), reg(5)]);
        assert_eq!(program.last_reads(4), [reg(0), reg(1), reg(2)]);
        let relations = program.stored_relations.clone();
        let compiled = CompiledStratum {
            program,
            relations: relations.clone(),
            recursive: false,
            merge_joins: 0,
            hash_joins: 0,
        };
        let schemas = relations
            .iter()
            .map(|name| {
                let schema = RelationSchema::new(name, vec![ValueType::U32, ValueType::U32]);
                (name.clone(), schema)
            })
            .collect();
        let device = Device::sequential();
        let prov = MaxMinProb::new();
        let mut db = Database::new(schemas, prov);
        let rows: Vec<(u32, u32, f64)> = (0..200)
            .map(|i| (i % 17, i, 0.1 + f64::from(i) / 400.0))
            .collect();
        for &(a, b, p) in &rows {
            db.insert("src", &[Value::U32(a), Value::U32(b)], p);
        }
        db.seal(&device);
        let exec = Executor::new(device, prov, RuntimeOptions::default());
        let stats = exec.run_stratum(&mut db, &compiled).unwrap();
        assert_eq!(stats.candidate_rows, 3 * rows.len());
        assert_eq!(stats.facts_produced, 2 * rows.len());
        let src = db.rows("src");
        assert_eq!(src.len(), rows.len());
        assert_eq!(db.rows("same"), src);
        let mut swapped: Vec<_> = src
            .iter()
            .map(|(t, tag)| (vec![t[1], t[0]], *tag))
            .collect();
        swapped.sort_by_key(|(t, _)| (t[0].as_u32(), t[1].as_u32()));
        assert_eq!(db.rows("swapped"), swapped);
    }

    #[test]
    fn stats_report_iterations_and_kernels() {
        let compiled = parse(
            "type edge(x: u32, y: u32)
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))",
        )
        .unwrap();
        let device = Device::sequential();
        let mut db = Database::new(compiled.ram.schemas.clone(), Unit::new());
        for i in 0..10u32 {
            db.insert("edge", &[Value::U32(i), Value::U32(i + 1)], ());
        }
        db.seal(&device);
        let exec = Executor::new(device, Unit::new(), RuntimeOptions::default());
        let stats = exec.run_program(&mut db, &compiled.ram).unwrap();
        // A chain of 11 nodes needs ~10 iterations to close.
        assert!(stats.iterations >= 9, "iterations = {}", stats.iterations);
        assert!(stats.kernel_launches > 0);
        assert!(stats.facts_produced >= 55 - 10);
        assert_eq!(stats.strata, 1);
    }
}
