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
use lobster_gpu::kernels::{JoinBuild, JoinColumn, PackLane};
use lobster_gpu::{kernels, Column, Device, DeviceError, HashIndex};
use lobster_provenance::Provenance;
use lobster_ram::RamProgram;
use std::collections::HashMap;
use std::fmt;
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
type LoadCache<T> = HashMap<String, LoadedTable<T>>;

/// What one run of a stratum keeps from iteration to iteration.
struct StratumRun<P: Provenance> {
    /// The run entered with the caller's stable/recent split instead of the
    /// semi-naive preamble, and `stable` must leave as it came.
    seeded: bool,
    /// Registers that survive across iterations.
    static_file: HashMap<RegId, RegValue<P>>,
    /// Cached "all" loads of relations not updated by this stratum (the
    /// buffer-reuse optimization: these buffers are identical every
    /// iteration).
    load_cache: LoadCache<P::Tag>,
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
}

impl ExecutionStats {
    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: &ExecutionStats) {
        self.iterations += other.iterations;
        self.facts_produced += other.facts_produced;
        self.candidate_rows += other.candidate_rows;
        self.kernel_launches += other.kernel_launches;
        self.elapsed += other.elapsed;
        self.strata += other.strata;
        self.update_rows_written += other.update_rows_written;
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
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Device(e) => write!(f, "device error: {e}"),
            ExecError::Timeout { elapsed } => write!(f, "timed out after {elapsed:?}"),
            ExecError::IterationLimit { limit } => {
                write!(f, "exceeded the iteration limit of {limit}")
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
            other => panic!("expected data register, found {other:?}"),
        }
    }

    fn tags(&self) -> &Arc<Vec<P::Tag>> {
        match self {
            RegValue::Tags(tags) => tags,
            other => panic!("expected tag register, found {other:?}"),
        }
    }

    fn index(&self) -> &HashIndex {
        match self {
            RegValue::Index(index) => index,
            other => panic!("expected index register, found {other:?}"),
        }
    }
}

/// Reads a register: the iteration's own file first, then the registers that
/// survive across iterations.
fn get<'a, P: Provenance>(
    regs: &'a [Option<RegValue<P>>],
    static_file: &'a HashMap<RegId, RegValue<P>>,
    reg: RegId,
) -> &'a RegValue<P> {
    regs[reg.0 as usize]
        .as_ref()
        .or_else(|| static_file.get(&reg))
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

    /// Compiles and runs every stratum of a RAM program against the
    /// database: the one from-scratch loop over strata. The `timeout_ms`
    /// budget starts here and covers the whole run.
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
        let mut total = ExecutionStats::default();
        let start = Instant::now();
        for stratum in &ram.strata {
            let compiled = compile_stratum_with_options(stratum, ram, &self.options);
            total.merge(&self.run_stratum_from(db, &compiled, start, true)?);
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
    /// needs the split. A seeded run that fails folds everything, like any
    /// other. The iteration loop, update phase, and arena recycling are the
    /// same either way.
    pub(crate) fn run_stratum_from(
        &self,
        db: &mut Database<P>,
        compiled: &CompiledStratum,
        run_start: Instant,
        preamble: bool,
    ) -> Result<ExecutionStats, ExecError> {
        let mut run = StratumRun {
            seeded: !preamble,
            static_file: HashMap::new(),
            load_cache: HashMap::new(),
        };
        let began = Instant::now();
        let kernels_before = self.device.stats().kernel_launches;
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
                data.runs.is_empty(),
                "`{rel}` entered a stratum with live runs"
            );
            if preamble {
                let (stable, recent) = (data.stable.take(), data.recent.take());
                data.recent = SortedTable::merge_disjoint_owned(&self.device, stable, recent);
            }
            data.staged.clear();
        }

        // Dictionary-encoded databases execute in *local* symbol space:
        // loads unpack to local ranks, so the program's symbol constants
        // (global interner ids) must be rewritten to ranks too. Extend the
        // dictionary first — a constant no fact mentions still needs a rank
        // (extension re-encodes stored tables, which is why it happens once,
        // up front, never mid-stratum).
        let consts: Option<Vec<u32>> = db.codec().and_then(|_| {
            let mut consts: Vec<u32> = Vec::new();
            for instr in &compiled.program.instructions {
                if let Instr::Eval { projection, .. } = instr {
                    projection.symbol_consts(&mut consts);
                }
            }
            if consts.is_empty() {
                return None;
            }
            Some(consts)
        });
        let rewritten: Option<CompiledStratum> = consts.map(|consts| {
            db.ensure_symbols(&self.device, consts);
            let codec = db.codec().expect("codec present");
            let mut owned = compiled.clone();
            for instr in &mut owned.program.instructions {
                if let Instr::Eval { projection, .. } = instr {
                    if projection.has_symbol_consts() {
                        *projection = projection.map_symbol_consts(&|g| codec.local_const(g));
                    }
                }
            }
            owned
        });
        let compiled = rewritten.as_ref().unwrap_or(compiled);
        let outcome = self.iterate(db, compiled, run_start, &mut run, &mut stats);
        let StratumRun {
            seeded,
            static_file,
            load_cache,
        } = run;

        // Every way out of the stratum — fix point, iteration cap, timeout,
        // OOM, kernel error — restores the at-rest invariant: the runs fold
        // back into one sorted `stable`. A failed stratum folds its frontier
        // in as well, so the database holds exactly the facts of the
        // completed iterations as one sorted, duplicate-free table. The one
        // exception is the fix point of a seeded run, whose runs are the Δ
        // the caller is waiting for: they fold into `recent`, which the last
        // iteration left empty.
        for rel in &compiled.relations {
            let data = db.relation_data_mut(rel);
            if seeded && outcome.is_ok() {
                debug_assert!(data.recent.is_empty(), "`{rel}` converged with a frontier");
                data.recent = data.fold_runs(&self.device, &mut stats.update_rows_written);
                continue;
            }
            if outcome.is_err() {
                let frontier = data.recent.take();
                stats.update_rows_written += data.push_run(&self.device, frontier, seeded);
            }
            stats.update_rows_written += data.compact(&self.device);
        }

        // The stratum is done: cached loads and static registers die here,
        // so their buffers go back to the arena for the next stratum (or the
        // next run on this device).
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
        stats.kernel_launches = self.device.stats().kernel_launches - kernels_before;
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
        // Pack lanes of the stratum's own relations (`None` = identity
        // layout or full-width database), resolved after any dictionary
        // extension so widths are final for the whole stratum.
        let stratum_lanes: Vec<Option<Vec<Vec<PackLane>>>> = compiled
            .relations
            .iter()
            .map(|rel| db.codec().and_then(|c| c.lanes(rel).cloned()))
            .collect();

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
            // not everything derived so far — and the staged candidates are
            // filtered against all runs in one pass. Consumed tables are
            // recycled into the arena, which is what keeps the next
            // iteration allocation-free.
            let mut changed = false;
            for (rel, lanes) in compiled.relations.iter().zip(&stratum_lanes) {
                let data = db.relation_data_mut(rel);
                let staged = std::mem::take(&mut data.staged);
                stats.candidate_rows += staged.iter().map(|(_, t)| t.len()).sum::<usize>();
                let candidate = Self::collect_staged(
                    &self.device,
                    &self.provenance,
                    staged,
                    data.recent.arity(),
                    lanes.as_deref(),
                );
                let frontier = data.recent.take();
                stats.update_rows_written += data.push_run(&self.device, frontier, seeded);
                let delta = data.new_facts(&self.device, candidate);
                stats.facts_produced += delta.len();
                if !delta.is_empty() {
                    changed = true;
                }
                data.recent = delta;
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

    /// Turns the staged (columns, tags) chunks produced by `store` into one
    /// sorted, deduplicated candidate table, consuming the chunks (dead
    /// buffers go back to the arena).
    ///
    /// When `lanes` is given the relation is stored packed: the logical
    /// columns of every chunk are fused into group words straight into one
    /// buffer — concatenation and packing are one pass — so the sort, dedup,
    /// merge, and difference downstream all run over `packed_arity` columns
    /// instead of the logical arity. A full-width relation keeps its first
    /// chunk as it is and appends the others to it, so the usual single
    /// chunk is not copied at all. `storage_arity` is the stored column
    /// count (`packed_arity` when packed, logical arity otherwise).
    fn collect_staged(
        device: &Device,
        prov: &P,
        staged: Vec<(Vec<Column>, Vec<P::Tag>)>,
        storage_arity: usize,
        lanes: Option<&[Vec<PackLane>]>,
    ) -> SortedTable<P> {
        if staged.is_empty() {
            return SortedTable::empty(storage_arity);
        }
        let packed = lanes.map(|lanes| {
            let tables: Vec<Vec<&[u64]>> = staged
                .iter()
                .map(|(cols, _)| cols.iter().map(|c| c.as_slice()).collect())
                .collect();
            let tables: Vec<&[&[u64]]> = tables.iter().map(|t| t.as_slice()).collect();
            kernels::pack_tables(device, &tables, lanes)
        });
        let mut chunks = staged.into_iter();
        let (mut columns, mut tags) = chunks.next().expect("checked non-empty");
        for (cols, t) in chunks {
            if packed.is_none() {
                for (dst, src) in columns.iter_mut().zip(&cols) {
                    dst.extend_from_slice(src);
                }
            }
            recycle_columns(device, cols);
            tags.extend(t);
        }
        if let Some(packed) = packed {
            recycle_columns(device, std::mem::replace(&mut columns, packed));
        }
        SortedTable::from_unsorted(device, prov, columns, tags)
    }

    /// `load⟨ρ⟩`: one partition of `relation` in columnar form, unpacked to
    /// full-width registers if it is stored packed. `own` says the running
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
        // Packed relations are unpacked into wide registers here (values
        // stay in *local* symbol space); full-width relations and identity
        // layouts copy straight through.
        let lanes = db.codec().and_then(|c| c.lanes(relation));
        let unpack = |packed: &[Column]| -> Vec<Arc<Column>> {
            let lanes = lanes.expect("lanes present");
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
            Some(table) => (
                if lanes.is_some() {
                    unpack(&table.columns)
                } else {
                    table
                        .columns
                        .iter()
                        .map(|c| Arc::new(arena.alloc_copy(exec_sites::LOAD, c)))
                        .collect()
                },
                Arc::new(table.tags.clone()),
            ),
            None => {
                // `all` is compiled as unsorted, so the runs and the
                // frontier are simply concatenated — the (narrow) stored
                // columns first, then one unpack: moving packed bytes is
                // cheaper than moving unpacked ones.
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
                let cols = if lanes.is_some() {
                    let wide = unpack(&merged_cols);
                    recycle_columns(&self.device, merged_cols);
                    wide
                } else {
                    merged_cols.into_iter().map(Arc::new).collect()
                };
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
        (cols, tag_vec)
    }

    /// `join⟨W⟩` / `mergejoin⟨W⟩`: the write pass of a join over `build`,
    /// reading its operands straight out of the register file. Tags are
    /// `left ⊗ right`, whichever side was built on.
    fn join(
        &self,
        regs: &[Option<RegValue<P>>],
        static_file: &HashMap<RegId, RegValue<P>>,
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
                Instr::Store {
                    relation,
                    columns,
                    tags,
                } => {
                    // The registers this store is the last to read leave the
                    // file as they are read, so a buffer nothing else holds
                    // is staged as it is. One that is still shared — a
                    // cached load, a register a columnar copy aliased, a
                    // later store — is copied.
                    let last = program.last_reads(pc);
                    let mut take = |reg: RegId| {
                        let slot = &mut regs[reg.0 as usize];
                        let value = if last.contains(&reg) {
                            slot.take()
                        } else {
                            slot.clone()
                        };
                        value.expect("register read before write")
                    };
                    let cols: Vec<Arc<Column>> =
                        columns.iter().map(|r| take(*r).data().clone()).collect();
                    let tag_vec = take(*tags).tags().clone();
                    let arena = self.device.arena();
                    let staged = if tag_vec.iter().all(|t| self.provenance.accept(t)) {
                        let cols = cols
                            .into_iter()
                            .map(|col| {
                                Arc::try_unwrap(col).unwrap_or_else(|shared| {
                                    arena.alloc_copy(exec_sites::STORE, &shared)
                                })
                            })
                            .collect();
                        let tag_vec =
                            Arc::try_unwrap(tag_vec).unwrap_or_else(|shared| (*shared).clone());
                        (cols, tag_vec)
                    } else {
                        // Rows whose tag collapsed to an unacceptable value
                        // (e.g. a conflicting proof) are dropped while
                        // copying.
                        let keep: Vec<usize> = (0..tag_vec.len())
                            .filter(|&i| self.provenance.accept(&tag_vec[i]))
                            .collect();
                        let filtered_cols = cols
                            .into_iter()
                            .map(|src| {
                                let mut out = arena.alloc_empty(exec_sites::STORE, keep.len());
                                out.extend(keep.iter().map(|&i| src[i]));
                                Self::recycle_register(&self.device, RegValue::Data(src));
                                out
                            })
                            .collect();
                        let filtered_tags = keep.iter().map(|&i| tag_vec[i].clone()).collect();
                        (filtered_cols, filtered_tags)
                    };
                    db.relation_data_mut(relation).staged.push(staged);
                }
                Instr::Eval {
                    inputs,
                    input_tags,
                    projection,
                    outputs,
                    output_tags,
                } => {
                    let in_cols: Vec<Arc<Column>> = inputs.iter().map(|r| data!(*r)).collect();
                    let in_tags = tags!(*input_tags);
                    let rows = in_tags.len();
                    if let Some(perm) = projection.permutation.as_ref() {
                        // Columnar-copy fast path (Section 5.2).
                        self.device.record_kernel();
                        for (out, src) in outputs.iter().zip(perm) {
                            set(&mut regs, *out, RegValue::Data(in_cols[*src].clone()));
                        }
                        set(&mut regs, *output_tags, RegValue::Tags(in_tags.clone()));
                    } else {
                        // Chunk-level evaluation: the input-row buffer, the
                        // output-row buffer, and the expression stack are
                        // hoisted out of the row loop, so evaluating a row
                        // allocates nothing.
                        let out_arity = projection.output_arity();
                        let (out_cols, sources) =
                            kernels::eval(&self.device, rows, out_arity, |range, sink| {
                                let mut row = vec![0u64; in_cols.len()];
                                let mut out = vec![0u64; out_arity];
                                let mut stack: Vec<u64> = Vec::with_capacity(8);
                                for i in range {
                                    for (slot, col) in row.iter_mut().zip(&in_cols) {
                                        *slot = col[i];
                                    }
                                    if projection.eval_into(&row, &mut out, &mut stack) {
                                        sink.emit(i, &out);
                                    }
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
    static_file: &'a HashMap<RegId, RegValue<P>>,
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
            device.arena().stats().fresh_columns
        };
        // Every run crosses every size threshold from iteration 0 (the first
        // candidate stages n ≥ 64 rows), so the instruction-level allocation
        // structure is identical; the longer chains just iterate more. One
        // more run is one more buffer per stored column (two here).
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
        // two columns. A register freed instead of recycled (one released
        // while its instruction still held a handle on it) would show as a
        // fresh column in every iteration.
        fn fresh_by_cap<Q: Provenance>(prov: &Q, tag: impl Fn(u32) -> Q::Tag) -> Vec<usize> {
            let compiled = parse(LINEAR_TC).unwrap();
            let nodes = 120u32;
            (1..=40)
                .map(|cap| {
                    let device = Device::sequential();
                    let mut db = Database::new(compiled.ram.schemas.clone(), prov.clone());
                    for i in 0..nodes {
                        let edge = [Value::U32(i), Value::U32((i + 1) % nodes)];
                        db.insert("edge", &edge, tag(i));
                    }
                    db.seal(&device);
                    let options = RuntimeOptions {
                        max_iterations: cap,
                        ..RuntimeOptions::default()
                    };
                    let exec = Executor::new(device.clone(), prov.clone(), options);
                    let outcome = exec.run_program(&mut db, &compiled.ram);
                    assert_eq!(outcome, Err(ExecError::IterationLimit { limit: cap }));
                    device.arena().stats().fresh_columns
                })
                .collect()
        }
        let unit = fresh_by_cap(&Unit::new(), |_| ());
        let minmax = fresh_by_cap(&MaxMinProb::new(), |i| 0.2 + f64::from(i % 7) / 10.0);
        for by_cap in [unit, minmax] {
            let steady: Vec<usize> = by_cap[3..].windows(2).map(|w| w[1] - w[0]).collect();
            assert!(
                steady.iter().all(|&delta| delta == 0 || delta == 2),
                "fresh columns per steady-state iteration: {steady:?}"
            );
            let new_runs = steady.iter().filter(|&&delta| delta == 2).count();
            assert!(
                new_runs <= 1 + steady.len().ilog2() as usize,
                "{new_runs} iterations of {} allocated fresh columns: {steady:?}",
                steady.len()
            );
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
    fn encoded_execution_is_bit_identical_to_full_width() {
        use crate::database::EncodingSpec;
        use lobster_gpu::DeviceConfig;

        // Symbol-typed TC with a symbol constant in a rule body, so the
        // encoded run exercises constant rewriting, dictionary-encoded
        // loads/stores, and packed sort/merge/difference.
        let compiled = parse(
            r#"type edge(x: symbol, y: symbol)
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
             rel from_root(y) = path("n000", y)
             query from_root"#,
        )
        .unwrap();
        let symbols = compiled.symbols.clone();
        let names: Vec<u32> = (0..60)
            .map(|i| symbols.intern(&format!("n{i:03}")))
            .collect();
        let spec = EncodingSpec {
            symbol_constants: compiled.ram.symbol_constants(),
            widen_u32: compiled.ram.has_u32_arithmetic(),
        };
        for parallelism in [1, 3] {
            let device = Device::new(DeviceConfig {
                parallelism,
                min_parallel_rows: 1,
                ..DeviceConfig::default()
            });
            let prov = AddMultProb::new();
            let mut wide = Database::new(compiled.ram.schemas.clone(), prov);
            let mut packed = Database::new_encoded(compiled.ram.schemas.clone(), prov, &spec);
            for db in [&mut wide, &mut packed] {
                for (i, w) in names.windows(2).enumerate() {
                    let p = 0.5 + (i as f64) / 200.0;
                    db.insert(
                        "edge",
                        &[Value::Symbol(w[0]), Value::Symbol(w[1])],
                        prov.input_tag(InputFactId(i as u32), Some(p)),
                    );
                }
                db.seal(&device);
            }
            let exec = Executor::new(device, prov, RuntimeOptions::default());
            exec.run_program(&mut wide, &compiled.ram).unwrap();
            exec.run_program(&mut packed, &compiled.ram).unwrap();
            for rel in ["edge", "path", "from_root"] {
                let w = wide.rows(rel);
                let p = packed.rows(rel);
                assert_eq!(w.len(), p.len(), "{rel} row count at par {parallelism}");
                for ((wt, wtag), (pt, ptag)) in w.iter().zip(&p) {
                    assert_eq!(wt, pt, "{rel} tuples at par {parallelism}");
                    assert_eq!(
                        wtag.to_bits(),
                        ptag.to_bits(),
                        "{rel} tags bit-identical at par {parallelism}"
                    );
                }
            }
            assert!(
                packed.size_bytes() < wide.size_bytes(),
                "encoded database should be smaller"
            );
        }
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
    fn one_word_candidates_are_bit_identical_to_full_width_ones() {
        use crate::database::EncodingSpec;

        // A dense random digraph under `addmultprob`: a path is derived many
        // times per iteration and float addition is order-sensitive, so the
        // tags agree to the bit only if the one-word sort (packed `path`)
        // and the multi-column permutation sort (full-width `path`) put
        // duplicate candidates in the same order before `unique` folds them.
        let compiled = parse(LINEAR_TC).unwrap();
        let (nodes, degree) = (60u64, 4u64);
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let edges: Vec<(u32, u32, f64)> = (0..nodes * degree)
            .map(|i| {
                let p = 0.01 + (next() % 1000) as f64 / 25_000.0;
                ((i % nodes) as u32, (next() % nodes) as u32, p)
            })
            .collect();
        let spec = EncodingSpec {
            symbol_constants: compiled.ram.symbol_constants(),
            widen_u32: compiled.ram.has_u32_arithmetic(),
        };
        for parallelism in [1, 4] {
            let device = Device::new(DeviceConfig {
                parallelism,
                min_parallel_rows: 16,
                ..DeviceConfig::default()
            });
            let prov = AddMultProb::new();
            let mut wide = Database::new(compiled.ram.schemas.clone(), prov);
            let mut packed = Database::new_encoded(compiled.ram.schemas.clone(), prov, &spec);
            assert_eq!(packed.storage_arity("path"), 1);
            assert_eq!(wide.storage_arity("path"), 2);
            let exec = Executor::new(device.clone(), prov, RuntimeOptions::default());
            let mut stats = Vec::new();
            for db in [&mut wide, &mut packed] {
                for (i, &(a, b, p)) in edges.iter().enumerate() {
                    let tag = prov.input_tag(InputFactId(i as u32), Some(p));
                    db.insert("edge", &[Value::U32(a), Value::U32(b)], tag);
                }
                db.seal(&device);
                stats.push(exec.run_program(db, &compiled.ram).unwrap());
            }
            assert_eq!(stats[0].candidate_rows, stats[1].candidate_rows);
            assert!(stats[0].candidate_rows > 3 * stats[0].facts_produced);
            let (w, p) = (wide.rows("path"), packed.rows("path"));
            assert!(w.len() > 3000, "the closure is dense: {} paths", w.len());
            assert_eq!(w.len(), p.len());
            for ((wt, wtag), (pt, ptag)) in w.iter().zip(&p) {
                assert_eq!(wt, pt, "tuples at parallelism {parallelism}");
                assert!(
                    *wtag < 1.0,
                    "an unsaturated sum keeps its order-sensitivity"
                );
                assert_eq!(
                    wtag.to_bits(),
                    ptag.to_bits(),
                    "tag of {wt:?} at parallelism {parallelism}"
                );
            }
        }
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
