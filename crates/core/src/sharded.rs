//! Multi-device sharded batch execution: [`ShardedExecutor`],
//! [`ShardConfig`], and [`ShardRunStats`].
//!
//! [`Program::run_batch`] isolates samples with a leading sample-id column,
//! which makes the sample the natural unit of *horizontal* partitioning: a
//! batch can be split across several [`Device`] instances, each shard running
//! its own fix-point over its slice of the samples, and the per-shard results
//! merged back into the caller's order. The executor here does exactly that:
//!
//! * **Workers are persistent.** Constructing an executor spawns one worker
//!   thread per shard device; every batch is fed to those same threads over
//!   a shared work queue, and the threads are only torn down when the
//!   executor is dropped. Each worker keeps a long-lived [`Session`] on its
//!   shard, so a batch pays neither thread spawn/join nor session setup —
//!   the steady-state overheads a serving layer cares about at high request
//!   rates. Several threads may call [`ShardedExecutor::run_batch`]
//!   concurrently; their chunks interleave in the shared queue and each
//!   caller gets exactly its own results.
//! * **Partitioning** is cost-aware: samples are greedily bin-packed over the
//!   shards by descending fact count (longest-processing-time order), so a
//!   mix of large and small samples still balances. A pathologically large
//!   sample — one whose cost exceeds [`ShardConfig::skew_factor`] × the ideal
//!   per-shard share — is carved out as its own work unit instead of pinning
//!   a whole shard's plan to it.
//! * **Execution** is work-stealing: planned chunks go into the shared pool
//!   and each worker takes the most expensive pending chunk whenever it is
//!   idle, so a shard that finishes early steals the work a skewed plan
//!   would have left stranded.
//! * **Memory budgets** are per shard: shard devices are derived with
//!   [`Device::split_shards`], dividing the parent budget `n` ways. Each
//!   shard device also owns its own persistent *kernel* worker pool (sized
//!   by the split parallelism and joined when the shard device drops with
//!   the executor), so shard-level parallelism here multiplies with
//!   kernel-level parallelism inside each shard — see `docs/PERFORMANCE.md`
//!   for how to budget the two against the machine's cores. A chunk
//!   that overflows its shard's budget is *spilled* — split in half and
//!   requeued — so a batch that fits the aggregate budget still completes,
//!   it just pays extra fix-points.
//! * **Results agree bit-for-bit with the unsharded path.** Samples never
//!   interact (the sample-id column keys every join), tables are kept in
//!   sorted order, and gradient ids are remapped from shard-local to global
//!   registration order, so `run_batch` returns exactly what
//!   [`Program::run_batch`] would have — whatever the shard count, plan,
//!   steal schedule, or batch interleaving. The per-result
//!   [`ExecutionStats`] are the one exception: they describe the chunk that
//!   actually ran.
//!
//! # Example: one executor, many batches
//!
//! ```
//! use lobster::{FactSet, Program, ProvenanceKind, ShardConfig, ShardedExecutor, Value};
//!
//! let program = Program::compile(
//!     "type edge(x: u32, y: u32)
//!      rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
//!      query path",
//!     ProvenanceKind::AddMultProb,
//! )
//! .unwrap();
//!
//! // Spawns the two shard workers once...
//! let executor = ShardedExecutor::new(program, ShardConfig::default().with_num_shards(2));
//! // ...and reuses them for every batch. No per-batch spawn/join.
//! for round in 0..10u32 {
//!     let mut sample = FactSet::new();
//!     sample.add("edge", &[Value::U32(round), Value::U32(round + 1)], Some(0.5));
//!     let results = executor.run_batch(&[sample.clone(), sample]).unwrap();
//!     assert_eq!(results.len(), 2);
//! }
//! // Dropping the executor joins the workers.
//! drop(executor);
//! ```
//!
//! On a hot path that owns its batch (a serving scheduler moving request
//! payloads), [`ShardedExecutor::run_batch_owned`] hands the samples to the
//! workers without copying a single fact.
//!
//! [`ExecutionStats`]: lobster_apm::ExecutionStats

use crate::error::LobsterError;
use crate::program::Program;
use crate::session::{FactSet, RunResult, Session};
use lobster_apm::ExecError;
use lobster_gpu::{Device, DeviceError, DeviceStats};
use lobster_provenance::InputFactId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Knobs of the sharded executor.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shard devices the batch is partitioned across.
    pub num_shards: usize,
    /// A sample whose cost exceeds `skew_factor ×` the ideal per-shard share
    /// (total cost / shards) is planned as its own work unit, eligible for
    /// stealing, instead of anchoring one shard's whole plan.
    pub skew_factor: f64,
    /// How many times a chunk may be split in half after a device
    /// out-of-memory before the error is reported. Each split halves the
    /// working-set a shard must hold at once.
    pub max_spill_depth: u32,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            num_shards: 1,
            skew_factor: 2.0,
            max_spill_depth: 4,
        }
    }
}

impl ShardConfig {
    /// Builder-style setter for [`ShardConfig::num_shards`].
    pub fn with_num_shards(mut self, n: usize) -> Self {
        self.num_shards = n.max(1);
        self
    }

    /// Builder-style setter for [`ShardConfig::skew_factor`].
    pub fn with_skew_factor(mut self, factor: f64) -> Self {
        self.skew_factor = factor.max(1.0);
        self
    }

    /// Builder-style setter for [`ShardConfig::max_spill_depth`].
    pub fn with_max_spill_depth(mut self, depth: u32) -> Self {
        self.max_spill_depth = depth;
        self
    }
}

/// What one sharded run did: how the batch was cut, how the shards shared
/// the work, and what each device paid.
#[derive(Debug, Clone, Default)]
pub struct ShardRunStats {
    /// Work units the plan produced (bins plus carved-out skewed samples).
    pub planned_chunks: usize,
    /// Work units actually executed (spills add chunks beyond the plan).
    pub executed_chunks: usize,
    /// Chunks executed by a shard other than the one the plan assigned
    /// (carved-out skew chunks are unassigned and never count as steals).
    pub steals: usize,
    /// Chunk splits forced by a shard running out of device memory.
    pub spills: usize,
    /// Samples executed by each shard, indexed by shard.
    pub per_shard_samples: Vec<usize>,
    /// Device counters of each shard for *this run* (deltas against the
    /// counters at run start, so reusing the executor across batches does
    /// not accumulate; `live_bytes`/`peak_bytes` are the device's current
    /// and high-water gauges), indexed by shard. Includes the per-kernel
    /// time breakdown — `DeviceStats::kernel_time` is busy time (launch wall
    /// time, with pooled chunks summed across the shard's kernel pool
    /// lanes), and
    /// `DeviceStats::kernel_wall` is enqueue-to-completion wall time — so a
    /// serving layer can attribute a batch's cost to sort/join/unique work
    /// per shard and spot pool contention (wall ≫ busy / lanes).
    /// Attribution assumes runs on one executor do not overlap — concurrent
    /// `run_batch` calls share devices and blur each other's deltas (the
    /// results themselves are unaffected).
    pub device_stats: Vec<DeviceStats>,
}

impl ShardRunStats {
    /// The per-shard device counters folded into one aggregate record.
    pub fn merged_device_stats(&self) -> DeviceStats {
        let mut merged = DeviceStats::default();
        for stats in &self.device_stats {
            merged.merge(stats);
        }
        merged
    }
}

/// One schedulable unit of work: a set of samples (global indices, ascending)
/// that one shard runs as a single `run_batch` fix-point.
#[derive(Debug, Clone)]
struct Chunk {
    /// Global sample indices, ascending.
    samples: Vec<usize>,
    /// Total cost of the samples (fact counts).
    cost: u64,
    /// The shard the packing plan assigned this chunk to; `None` for
    /// carved-out skewed samples, which belong to whoever grabs them.
    planned_shard: Option<usize>,
    /// How many out-of-memory splits produced this chunk.
    spill_depth: u32,
}

/// Greedy cost-aware partition of `costs` into at most `num_shards` bins,
/// with samples above the skew threshold carved out as their own chunks.
fn plan_chunks(costs: &[u64], num_shards: usize, skew_factor: f64) -> Vec<Chunk> {
    let total: u64 = costs.iter().sum();
    let ideal = total as f64 / num_shards.max(1) as f64;
    let threshold = skew_factor * ideal;

    let mut chunks = Vec::new();
    let mut packable: Vec<usize> = Vec::new();
    for (i, &cost) in costs.iter().enumerate() {
        // Only a sample that dominates the ideal share is carved out; when
        // every sample is equally huge (ideal ≈ cost) packing stays even.
        if num_shards > 1 && cost as f64 > threshold {
            chunks.push(Chunk {
                samples: vec![i],
                cost,
                planned_shard: None,
                spill_depth: 0,
            });
        } else {
            packable.push(i);
        }
    }

    // Longest-processing-time greedy packing of the rest: place each sample,
    // largest first, on the currently lightest bin. Ties break on the lower
    // index so the plan is deterministic.
    packable.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    let mut bins: Vec<(u64, Vec<usize>)> = vec![(0, Vec::new()); num_shards.max(1)];
    for i in packable {
        let lightest = bins
            .iter()
            .enumerate()
            .min_by_key(|(b, (load, _))| (*load, *b))
            .map(|(b, _)| b)
            .expect("at least one bin");
        bins[lightest].0 += costs[i];
        bins[lightest].1.push(i);
    }
    for (b, (cost, mut samples)) in bins.into_iter().enumerate() {
        if samples.is_empty() {
            continue;
        }
        samples.sort_unstable();
        chunks.push(Chunk {
            samples,
            cost,
            planned_shard: Some(b),
            spill_depth: 0,
        });
    }
    chunks
}

/// The mutable half of one run's shared state, guarded by
/// [`RunShared::progress`].
#[derive(Debug)]
struct RunProgress {
    /// Chunks of this run that are queued or executing. The submitting
    /// thread sleeps until this reaches zero; spills raise it, completions
    /// (and failure drains) lower it.
    remaining: usize,
    /// Merged results in caller order, filled in as chunks complete.
    results: Vec<Option<RunResult>>,
    /// First unrecoverable error. Once set, the run's still-pending chunks
    /// are drained without executing.
    error: Option<LobsterError>,
    /// Chunks executed by a shard other than the planned one.
    steals: usize,
    /// Out-of-memory chunk splits.
    spills: usize,
    /// Chunks executed (spill halves included).
    executed: usize,
    /// Samples executed by each shard.
    per_shard_samples: Vec<usize>,
}

/// One batch in flight: the owned samples, the gradient-remap layout, and
/// the progress the workers update. Shared between the submitting thread and
/// every worker holding one of the run's chunks.
#[derive(Debug)]
struct RunShared {
    /// The batch, owned for the duration of the run — workers are long-lived
    /// threads and cannot borrow from the submitting stack frame.
    samples: Vec<FactSet>,
    /// Each sample's offset into the global (unsharded) fact registration
    /// order.
    global_offsets: Vec<u32>,
    /// Fact ids `0..inline_facts` are the program's inline facts, identical
    /// in every shard and in the global order.
    inline_facts: u32,
    /// Spill ceiling, copied from [`ShardConfig::max_spill_depth`].
    max_spill_depth: u32,
    /// Submission sequence number — a deterministic tie-breaker when chunks
    /// of several concurrent runs have equal cost.
    seq: u64,
    /// Static per-relation planning weights from the program's cost model —
    /// the spill path re-costs chunk halves on the same scale the planner
    /// used (`execute_item` has no program in scope, so the snapshot rides
    /// with the run).
    weights: Arc<BTreeMap<String, u64>>,
    progress: Mutex<RunProgress>,
    /// Signalled when `remaining` reaches zero.
    done: Condvar,
}

/// Locks a mutex, recovering from poison. The persistent runtime must keep
/// serving after a worker panic (the panic is converted into a run error by
/// [`ChunkPanicGuard`]), and every critical section here leaves its state
/// usable even when a caller-supplied closure panicked mid-update: a failed
/// run's partial results are discarded wholesale, and the queue mutations
/// themselves (`extend`, `swap_remove`) cannot unwind half-done.
fn lock_recover<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl RunShared {
    /// Retires one chunk of this run, waking the submitter when it was the
    /// last. `update` is applied to the progress under the same lock.
    ///
    /// Poison-tolerant: if a previous holder panicked before its decrement
    /// (the only panic window — `update` runs first), the count still
    /// reflects that un-retired chunk, and its [`ChunkPanicGuard`] performs
    /// the missing retirement through this same path.
    fn retire_chunk(&self, update: impl FnOnce(&mut RunProgress)) {
        let mut progress = lock_recover(&self.progress);
        update(&mut progress);
        progress.remaining -= 1;
        let finished = progress.remaining == 0;
        drop(progress);
        if finished {
            self.done.notify_all();
        }
    }

    fn failed(&self) -> bool {
        lock_recover(&self.progress).error.is_some()
    }
}

/// One entry of the worker pool's queue: a chunk plus the run it belongs to.
#[derive(Debug)]
struct WorkItem {
    run: Arc<RunShared>,
    chunk: Chunk,
}

/// State shared between the executor handle and its persistent workers.
#[derive(Debug)]
struct PoolShared {
    /// Pending chunks across all in-flight runs.
    queue: Mutex<Vec<WorkItem>>,
    /// Signalled when work arrives or shutdown begins.
    work: Condvar,
    /// Set (under the queue lock) by [`ShardedExecutor::drop`]; workers exit
    /// once the queue is empty.
    shutdown: AtomicBool,
}

impl PoolShared {
    /// Takes the most expensive pending chunk (ties: oldest run, then lowest
    /// leading sample index, so the drain order is deterministic), blocking
    /// while the queue is empty. Returns `None` on shutdown.
    fn take_item(&self) -> Option<WorkItem> {
        let mut queue = lock_recover(&self.queue);
        loop {
            let best = queue
                .iter()
                .enumerate()
                .max_by_key(|(_, item)| {
                    (
                        item.chunk.cost,
                        std::cmp::Reverse(item.run.seq),
                        std::cmp::Reverse(item.chunk.samples[0]),
                    )
                })
                .map(|(i, _)| i);
            if let Some(best) = best {
                return Some(queue.swap_remove(best));
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            queue = self
                .work
                .wait(queue)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Enqueues items and wakes idle workers. Waking all of them is
    /// deliberate: a fresh run usually carries one chunk per shard.
    fn submit(&self, items: impl IntoIterator<Item = WorkItem>) {
        let mut queue = lock_recover(&self.queue);
        queue.extend(items);
        drop(queue);
        self.work.notify_all();
    }
}

/// While armed, marks the chunk's run as failed if the worker unwinds
/// mid-execution — so a panicking worker turns into a run error for the
/// submitter instead of a hang.
struct ChunkPanicGuard {
    run: Arc<RunShared>,
    armed: bool,
}

impl Drop for ChunkPanicGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.run.retire_chunk(|progress| {
            progress.error.get_or_insert(LobsterError::Internal {
                message: "shard worker panicked while executing a chunk".to_string(),
            });
        });
    }
}

/// Runs batches of one compiled [`Program`] across several shard devices,
/// over a pool of worker threads that live as long as the executor.
///
/// Construction derives the shard devices from the program's own device with
/// [`Device::split_shards`] (dividing its memory budget and kernel workers)
/// and spawns one worker thread per shard — each holding a persistent
/// [`Session`] on its shard, so repeated batches re-pay neither thread
/// spawn/join nor session setup. [`ShardedExecutor::run_batch`] plans
/// (cost-aware bin-packing with skew carve-outs), executes (work-stealing
/// shared queue, out-of-memory spills), and merges (caller order, global
/// gradient ids) — see the "Multi-device sharding" section of the crate docs
/// and the module docs above for a worked example. Dropping the executor
/// joins the workers, so hold one executor (or a `BatchScheduler` with
/// `num_shards > 1`, which holds one for you) for as long as batches keep
/// coming.
pub struct ShardedExecutor {
    /// The parent program (unsharded device) — used for validation and
    /// planning; workers hold their own shard-bound clones.
    program: Program,
    /// The shard devices, in worker order — retained for per-run stat deltas
    /// and [`ShardedExecutor::shard_devices`].
    shard_devices: Vec<Device>,
    pool: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    config: ShardConfig,
    /// Fact ids `0..inline_facts` are the program's inline facts, identical
    /// in every shard and in the global order.
    inline_facts: u32,
    /// Issues [`RunShared::seq`] numbers.
    run_seq: AtomicU64,
    /// Per-relation planning weights snapshotted from the program's static
    /// cost model at construction; shared with every run (see
    /// [`RunShared::weights`]).
    relation_weights: Arc<BTreeMap<String, u64>>,
}

impl std::fmt::Debug for ShardedExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedExecutor")
            .field("num_shards", &self.shard_devices.len())
            .field("config", &self.config)
            .finish()
    }
}

impl ShardedExecutor {
    /// Creates an executor over `config.num_shards` devices derived from the
    /// program's device, spawning one persistent worker thread per shard.
    pub fn new(program: Program, config: ShardConfig) -> Self {
        let devices = program.device().split_shards(config.num_shards.max(1));
        Self::with_devices(program, devices, config)
    }

    /// Creates an executor over explicit shard devices (overriding
    /// [`Device::split_shards`]-derived budgets — e.g. heterogeneous
    /// devices). `config.num_shards` is ignored in favour of `devices.len()`.
    pub fn with_devices(program: Program, devices: Vec<Device>, config: ShardConfig) -> Self {
        assert!(!devices.is_empty(), "at least one shard device");
        // A fresh session pre-registers exactly the program's inline facts,
        // so their count comes straight off the compiled artifact — no need
        // to build (and throw away) a session with its registry here.
        let inline_facts = program.artifact.compiled.facts.len() as u32;
        let config = ShardConfig {
            num_shards: devices.len(),
            ..config
        };
        let pool = Arc::new(PoolShared {
            queue: Mutex::new(Vec::new()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = devices
            .iter()
            .enumerate()
            .map(|(shard_idx, device)| {
                let shard_program = program.with_device(device.clone());
                let pool = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("lobster-shard-{shard_idx}"))
                    .spawn(move || worker_loop(shard_idx, &shard_program, &pool))
                    .expect("spawn shard worker")
            })
            .collect();
        let relation_weights = Arc::new(program.cost_model().relation_weights().clone());
        ShardedExecutor {
            program,
            shard_devices: devices,
            pool,
            workers,
            config,
            inline_facts,
            run_seq: AtomicU64::new(0),
            relation_weights,
        }
    }

    /// Number of shard devices (and persistent worker threads).
    pub fn num_shards(&self) -> usize {
        self.shard_devices.len()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// The shard devices, indexed by shard.
    pub fn shard_devices(&self) -> Vec<&Device> {
        self.shard_devices.iter().collect()
    }

    /// Runs `samples` across the shards and returns one [`RunResult`] per
    /// sample in the caller's order — exactly the results
    /// [`Program::run_batch`] would produce on one device.
    ///
    /// The borrowed samples are copied once into the run (workers are
    /// long-lived threads and cannot borrow from this stack frame); a caller
    /// that owns its batch avoids the copy with
    /// [`ShardedExecutor::run_batch_owned`].
    ///
    /// # Errors
    ///
    /// Returns a [`LobsterError`] on bad facts, or on execution failure of
    /// any chunk (an out-of-memory chunk is first split up to
    /// [`ShardConfig::max_spill_depth`] times).
    pub fn run_batch(&self, samples: &[FactSet]) -> Result<Vec<RunResult>, LobsterError> {
        self.run_batch_with_stats(samples)
            .map(|(results, _)| results)
    }

    /// Like [`ShardedExecutor::run_batch`], additionally reporting how the
    /// batch was partitioned and what each shard did.
    ///
    /// # Errors
    ///
    /// See [`ShardedExecutor::run_batch`].
    pub fn run_batch_with_stats(
        &self,
        samples: &[FactSet],
    ) -> Result<(Vec<RunResult>, ShardRunStats), LobsterError> {
        self.run_batch_owned(samples.to_vec())
    }

    /// Runs an owned batch across the shards — the zero-copy variant of
    /// [`ShardedExecutor::run_batch`] for callers that already own their
    /// samples (a serving scheduler moving request payloads): the fact sets
    /// are handed to the workers as-is, nothing is cloned.
    ///
    /// # Errors
    ///
    /// See [`ShardedExecutor::run_batch`].
    pub fn run_batch_owned(
        &self,
        samples: Vec<FactSet>,
    ) -> Result<(Vec<RunResult>, ShardRunStats), LobsterError> {
        // Validate every sample up front — the same rule set as `run_batch`
        // — so no shard starts a fix-point for a batch that is going to be
        // rejected.
        for facts in &samples {
            self.program.validate_facts(facts)?;
        }
        self.submit_validated(samples)
    }

    /// Plans, queues and awaits a batch whose every fact
    /// [`Program::validate_facts`] accepted. A fact it would have refused
    /// panics the worker that meets it (the database layer's contract),
    /// which fails this run — see [`ChunkPanicGuard`].
    fn submit_validated(
        &self,
        samples: Vec<FactSet>,
    ) -> Result<(Vec<RunResult>, ShardRunStats), LobsterError> {
        let num_shards = self.shard_devices.len();
        // Snapshot every shard's counters up front so the reported device
        // stats are this run's *deltas*, not the executor's lifetime
        // accumulation (the executor is meant to be reused across batches).
        let before: Vec<DeviceStats> = self.shard_devices.iter().map(Device::stats).collect();
        let device_deltas = |devices: &[Device]| {
            devices
                .iter()
                .zip(&before)
                .map(|(d, b)| d.stats().delta_since(b))
                .collect::<Vec<_>>()
        };
        let mut stats = ShardRunStats {
            per_shard_samples: vec![0; num_shards],
            device_stats: Vec::new(),
            ..ShardRunStats::default()
        };
        if samples.is_empty() {
            stats.device_stats = device_deltas(&self.shard_devices);
            return Ok((Vec::new(), stats));
        }

        // Global registration order: `run_batch` hands out ids inline facts
        // first, then sample 0's facts, sample 1's, … Gradient remapping
        // needs each sample's global offset into that order.
        let mut global_offsets = Vec::with_capacity(samples.len());
        let mut offset = 0u32;
        for sample in &samples {
            global_offsets.push(offset);
            offset += sample.len() as u32;
        }

        let costs: Vec<u64> = samples
            .iter()
            .map(|s| sample_cost(s, &self.relation_weights))
            .collect();
        let chunks = plan_chunks(&costs, num_shards, self.config.skew_factor);
        stats.planned_chunks = chunks.len();

        let run = Arc::new(RunShared {
            global_offsets,
            inline_facts: self.inline_facts,
            max_spill_depth: self.config.max_spill_depth,
            seq: self.run_seq.fetch_add(1, Ordering::Relaxed),
            weights: Arc::clone(&self.relation_weights),
            progress: Mutex::new(RunProgress {
                remaining: chunks.len(),
                results: vec![None; samples.len()],
                error: None,
                steals: 0,
                spills: 0,
                executed: 0,
                per_shard_samples: vec![0; num_shards],
            }),
            done: Condvar::new(),
            samples,
        });
        self.pool.submit(chunks.into_iter().map(|chunk| WorkItem {
            run: Arc::clone(&run),
            chunk,
        }));

        // Sleep until the workers have retired every chunk (completed,
        // spilled into retired halves, or drained after a failure).
        // Poison-tolerant like the workers: a panicked chunk surfaces as the
        // run's `error`, not as a poisoned-lock panic here.
        let mut progress = lock_recover(&run.progress);
        while progress.remaining > 0 {
            progress = run
                .done
                .wait(progress)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if let Some(e) = progress.error.take() {
            return Err(e);
        }
        let results = progress
            .results
            .drain(..)
            .map(|r| r.expect("every sample ran"))
            .collect();
        stats.steals = progress.steals;
        stats.spills = progress.spills;
        stats.executed_chunks = progress.executed;
        stats.per_shard_samples = std::mem::take(&mut progress.per_shard_samples);
        drop(progress);
        stats.device_stats = device_deltas(&self.shard_devices);
        Ok((results, stats))
    }
}

impl Drop for ShardedExecutor {
    fn drop(&mut self) {
        // `&mut self` proves no `run_batch` borrow is alive, so the queue is
        // empty: every chunk a run submitted was retired before that run
        // returned. Setting the flag under the queue lock serializes with
        // `take_item`'s check-then-wait — a worker that read
        // `shutdown == false` is guaranteed to be inside `wait` (lock
        // released) before the notification fires.
        {
            let _queue = lock_recover(&self.pool.queue);
            self.pool.shutdown.store(true, Ordering::SeqCst);
        }
        self.pool.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One persistent shard worker: drain the shared queue until shutdown. The
/// session — registry, inline facts, batch-fork scratch — is built once and
/// reused by every chunk this worker executes.
///
/// The worker must outlive any single chunk: a panic inside a chunk (a bug —
/// well-formed batches return errors instead) is caught, the chunk's run is
/// failed by its [`ChunkPanicGuard`], and the worker rebuilds its session
/// (whose internal state the unwind may have poisoned) and keeps serving.
/// Letting the unwind kill the thread instead would silently shrink a
/// persistent executor until, with every worker dead, `run_batch` callers
/// block forever on a queue nobody drains.
fn worker_loop(shard_idx: usize, program: &Program, pool: &PoolShared) {
    let mut session = program.session();
    while let Some(item) = pool.take_item() {
        // `AssertUnwindSafe` is sound here: the only state crossing the
        // catch boundary is the session (rebuilt below on panic) and the
        // item's run (failed by the guard; its submitter sees the error).
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_item(shard_idx, &session, item, pool);
        }));
        if outcome.is_err() {
            session = program.session();
        }
    }
}

/// Executes (or retires) one queued chunk on this worker's shard.
fn execute_item(shard_idx: usize, session: &Session, item: WorkItem, pool: &PoolShared) {
    let WorkItem { run, chunk } = item;
    // A failed run's remaining chunks are drained without executing, so the
    // submitter wakes as soon as every in-flight chunk has been retired.
    if run.failed() {
        run.retire_chunk(|_| {});
        return;
    }
    let mut guard = ChunkPanicGuard {
        run: Arc::clone(&run),
        armed: true,
    };
    // Borrow the chunk's samples out of the run — a chunk execution (and any
    // spill retry) copies no fact payloads and repeats no validation (the
    // whole batch was validated once at submission).
    let chunk_samples: Vec<&FactSet> = chunk.samples.iter().map(|&g| &run.samples[g]).collect();
    match session.run_batch_refs_prevalidated(&chunk_samples) {
        Ok(chunk_results) => {
            // The guard stays armed through retirement: if the merge below
            // panics, the decrement never ran, and the guard performs the
            // missing retirement (failing the run) through the
            // poison-tolerant lock — the submitter neither hangs on a
            // never-retired chunk nor double-counts a retired one.
            run.retire_chunk(|progress| {
                let mut local_offset = 0u32;
                for (&global, mut result) in chunk.samples.iter().zip(chunk_results) {
                    let sample_len = run.samples[global].len() as u32;
                    remap_gradients(
                        &mut result,
                        run.inline_facts,
                        local_offset,
                        sample_len,
                        run.global_offsets[global],
                    );
                    progress.results[global] = Some(result);
                    local_offset += sample_len;
                }
                progress.executed += 1;
                progress.per_shard_samples[shard_idx] += chunk.samples.len();
                if chunk
                    .planned_shard
                    .is_some_and(|planned| planned != shard_idx)
                {
                    progress.steals += 1;
                }
            });
            guard.armed = false;
        }
        Err(e)
            if is_oom(&e) && chunk.samples.len() > 1 && chunk.spill_depth < run.max_spill_depth =>
        {
            // Spill: halve the working set and requeue both halves (for any
            // idle shard to pick up). The halves preserve ascending sample
            // order, so merged results — and the gradient remap — are
            // unaffected.
            let mid = chunk.samples.len() / 2;
            let (left, right) = chunk.samples.split_at(mid);
            let half = |indices: &[usize]| Chunk {
                cost: indices
                    .iter()
                    .map(|&g| sample_cost(&run.samples[g], &run.weights))
                    .sum(),
                samples: indices.to_vec(),
                planned_shard: Some(shard_idx),
                spill_depth: chunk.spill_depth + 1,
            };
            let halves = [half(left), half(right)].map(|chunk| WorkItem {
                run: Arc::clone(&run),
                chunk,
            });
            // Two halves in, the original out — net one more outstanding
            // chunk, never zero mid-spill. Queueing under the same lock
            // leaves no panic window between the accounting and the
            // submission (a guard firing in such a window would fail the
            // run while `remaining` counted halves nobody queued, hanging
            // the submitter).
            {
                let mut progress = lock_recover(&run.progress);
                progress.spills += 1;
                progress.remaining += 1;
                pool.submit(halves);
            }
            guard.armed = false;
        }
        Err(e) => {
            // Unrecoverable (or spill-exhausted): fail the run. Chunks of
            // this run still queued are drained by whichever workers take
            // them.
            guard.armed = false;
            run.retire_chunk(|progress| {
                progress.error.get_or_insert(e);
            });
        }
    }
}

/// The planning cost of one sample — the sum of its facts' relation weights
/// from the program's static cost model (relations feeding many or recursive
/// joins count for more than pure-output relations), at least 1 so empty
/// samples still occupy a slot. Facts for relations the model has never seen
/// weigh 1, so the model degrades to plain fact counting. The single cost
/// function shared by the planner and the spill path, so requeued halves
/// compete in the work-stealing queue on the same scale as planned chunks.
fn sample_cost(facts: &FactSet, weights: &BTreeMap<String, u64>) -> u64 {
    facts
        .facts()
        .map(|(relation, _, _, _)| weights.get(relation).copied().unwrap_or(1))
        .sum::<u64>()
        .max(1)
}

/// `true` for the device out-of-memory error the spill path can recover from
/// by shrinking the working set.
fn is_oom(e: &LobsterError) -> bool {
    matches!(
        e,
        LobsterError::Execution(ExecError::Device(DeviceError::OutOfMemory { .. }))
    )
}

/// Rewrites one chunk-local result's gradient ids into the global
/// registration order of the unsharded batch: inline-fact ids (`0..inline`)
/// are shared and unchanged; the sample's own facts move from the chunk's
/// offset to the sample's global offset. Sample isolation guarantees no
/// other ids can occur; any that do are dropped rather than silently pointed
/// at another sample's facts.
fn remap_gradients(
    result: &mut RunResult,
    inline: u32,
    local_offset: u32,
    sample_len: u32,
    global_offset: u32,
) {
    result.map_gradient_ids(|id| {
        if id.0 < inline {
            return Some(id);
        }
        let local = id.0 - inline;
        local
            .checked_sub(local_offset)
            .filter(|rel| *rel < sample_len)
            .map(|rel| InputFactId(inline + global_offset + rel))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Lobster;
    use lobster_provenance::ProvenanceKind;
    use lobster_ram::Value;

    const TC: &str = "type edge(x: u32, y: u32)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";

    fn chain(len: u32, base: u32) -> FactSet {
        let mut facts = FactSet::new();
        for i in 0..len {
            facts.add(
                "edge",
                &[Value::U32(base + i), Value::U32(base + i + 1)],
                Some(0.9),
            );
        }
        facts
    }

    #[test]
    fn plan_balances_uniform_costs() {
        let chunks = plan_chunks(&[3, 3, 3, 3, 3, 3], 3, 2.0);
        assert_eq!(chunks.len(), 3);
        for chunk in &chunks {
            assert_eq!(chunk.cost, 6);
            assert_eq!(chunk.samples.len(), 2);
            assert!(chunk.planned_shard.is_some());
        }
        // Every sample appears exactly once.
        let mut all: Vec<usize> = chunks.iter().flat_map(|c| c.samples.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn plan_carves_out_skewed_samples() {
        // Sample 2 holds 60 of 70 facts: far beyond 2× the ideal share
        // (70/2 = 35), so it becomes its own unassigned chunk.
        let chunks = plan_chunks(&[5, 5, 60], 2, 1.5);
        let skewed: Vec<&Chunk> = chunks
            .iter()
            .filter(|c| c.planned_shard.is_none())
            .collect();
        assert_eq!(skewed.len(), 1);
        assert_eq!(skewed[0].samples, vec![2]);
        // The remaining samples are packed over the two shards.
        let packed: u64 = chunks
            .iter()
            .filter(|c| c.planned_shard.is_some())
            .map(|c| c.cost)
            .sum();
        assert_eq!(packed, 10);
    }

    #[test]
    fn plan_with_fewer_samples_than_shards_skips_empty_bins() {
        let chunks = plan_chunks(&[2, 4], 4, 2.0);
        assert_eq!(chunks.len(), 2);
        for chunk in &chunks {
            assert_eq!(chunk.samples.len(), 1);
        }
    }

    #[test]
    fn sharded_run_matches_unsharded_results() {
        let program = Program::compile(TC, ProvenanceKind::DiffAddMultProb).unwrap();
        let samples: Vec<FactSet> = (0..7).map(|i| chain(2 + i % 3, i * 10)).collect();
        let reference = program.run_batch(&samples).unwrap();
        for shards in 1..=4 {
            let executor = ShardedExecutor::new(
                program.clone(),
                ShardConfig::default().with_num_shards(shards),
            );
            let (results, stats) = executor.run_batch_with_stats(&samples).unwrap();
            assert_eq!(results.len(), reference.len());
            assert_eq!(stats.per_shard_samples.iter().sum::<usize>(), samples.len());
            for (got, want) in results.iter().zip(&reference) {
                assert_eq!(got.relations(), want.relations());
                for rel in want.relations() {
                    assert_eq!(got.relation(rel), want.relation(rel), "shards={shards}");
                }
            }
        }
    }

    #[test]
    fn owned_batches_match_borrowed_ones() {
        let program = Program::compile(TC, ProvenanceKind::DiffAddMultProb).unwrap();
        let samples: Vec<FactSet> = (0..5).map(|i| chain(2, i * 10)).collect();
        let executor = ShardedExecutor::new(program, ShardConfig::default().with_num_shards(2));
        let borrowed = executor.run_batch(&samples).unwrap();
        let (owned, _) = executor.run_batch_owned(samples).unwrap();
        for (a, b) in borrowed.iter().zip(&owned) {
            assert_eq!(a.relations(), b.relations());
            for rel in a.relations() {
                assert_eq!(a.relation(rel), b.relation(rel));
            }
        }
    }

    #[test]
    fn empty_batch_is_an_empty_result() {
        let program = Program::compile(TC, ProvenanceKind::Unit).unwrap();
        let executor = ShardedExecutor::new(program, ShardConfig::default().with_num_shards(3));
        let (results, stats) = executor.run_batch_with_stats(&[]).unwrap();
        assert!(results.is_empty());
        assert_eq!(stats.planned_chunks, 0);
        assert_eq!(stats.executed_chunks, 0);
    }

    #[test]
    fn bad_facts_are_rejected_before_any_shard_runs() {
        let program = Program::compile(TC, ProvenanceKind::Unit).unwrap();
        let executor = ShardedExecutor::new(program, ShardConfig::default().with_num_shards(2));
        let mut bad = FactSet::new();
        bad.add("ghost", &[Value::U32(0)], None);
        let err = executor.run_batch(&[chain(2, 0), bad]).unwrap_err();
        assert!(matches!(err, LobsterError::BadFact { .. }));
        // So is a value that is not of its column's type.
        let mut mistyped = FactSet::new();
        mistyped.add("edge", &[Value::I64(1 << 40), Value::U32(1)], None);
        let err = executor.run_batch(&[chain(2, 0), mistyped]).unwrap_err();
        assert!(matches!(err, LobsterError::BadFact { .. }), "{err}");
        // No shard device saw any work.
        for device in executor.shard_devices() {
            assert_eq!(device.stats().kernel_launches, 0);
        }
    }

    #[test]
    fn failures_with_sleeping_siblings_never_hang_the_run() {
        use lobster_gpu::DeviceConfig;
        // Three single-sample chunks over two shards with a budget no split
        // can satisfy: one worker fails while the other may be anywhere in
        // its take-item/wait cycle. Repeat on the SAME executor to give
        // every interleaving (and the failed-run drain path) many chances —
        // each run must error out, never deadlock, and never poison the
        // persistent pool for the next run.
        let program = Lobster::builder(TC)
            .device(lobster_gpu::Device::new(DeviceConfig {
                parallelism: 1,
                memory_limit: Some(32),
                ..DeviceConfig::default()
            }))
            .provenance(ProvenanceKind::Unit)
            .compile()
            .unwrap();
        let samples: Vec<FactSet> = (0..3).map(|i| chain(3, i * 100)).collect();
        let executor = ShardedExecutor::new(program, ShardConfig::default().with_num_shards(2));
        for _ in 0..20 {
            let err = executor.run_batch(&samples).unwrap_err();
            assert!(matches!(err, LobsterError::Execution(_)));
        }
    }

    #[test]
    fn a_panicking_chunk_fails_its_run_and_the_executor_keeps_serving() {
        let program = Program::compile(TC, ProvenanceKind::DiffAddMultProb).unwrap();
        let good: Vec<FactSet> = (0..4).map(|i| chain(2 + i % 2, i * 10)).collect();
        let reference = program.run_batch(&good).unwrap();
        let executor = ShardedExecutor::new(program, ShardConfig::default().with_num_shards(2));
        // Submitted past validation, a fact for an unknown relation panics
        // in the database layer, inside the worker that loads its chunk.
        let mut ghost = FactSet::new();
        ghost.add("ghost", &[Value::U32(0)], None);
        for round in 0..20 {
            let err = executor
                .submit_validated(vec![chain(2, 0), ghost.clone()])
                .unwrap_err();
            assert!(
                matches!(&err, LobsterError::Internal { message }
                    if message.starts_with("shard worker panicked")),
                "round {round}: {err}"
            );
            // The same executor serves the next batch, on rebuilt sessions,
            // bit-identical to the unsharded path...
            let results = executor.run_batch(&good).unwrap();
            assert_eq!(results.len(), reference.len());
            for (got, want) in results.iter().zip(&reference) {
                assert_eq!(got.relations(), want.relations());
                for rel in want.relations() {
                    assert_eq!(got.relation(rel), want.relation(rel), "round {round}");
                }
            }
            // ...and no worker thread died of the panic.
            let alive = executor.workers.iter().filter(|w| !w.is_finished());
            assert_eq!(alive.count(), 2, "round {round}");
        }
    }

    #[test]
    fn reused_executors_report_per_run_device_stats_not_lifetime_totals() {
        let program = Program::compile(TC, ProvenanceKind::Unit).unwrap();
        let executor = ShardedExecutor::new(program, ShardConfig::default().with_num_shards(2));
        let samples: Vec<FactSet> = (0..4).map(|i| chain(3, i * 10)).collect();
        let (_, first) = executor.run_batch_with_stats(&samples).unwrap();
        let (_, second) = executor.run_batch_with_stats(&samples).unwrap();
        let (a, b) = (
            first.merged_device_stats().kernel_launches,
            second.merged_device_stats().kernel_launches,
        );
        assert!(a > 0);
        // Identical work → identical per-run counters; a cumulative snapshot
        // would have doubled on the second run.
        assert_eq!(a, b);
    }

    #[test]
    fn a_hundred_batches_reuse_the_same_workers_without_stat_creep() {
        let program = Program::compile(TC, ProvenanceKind::DiffAddMultProb).unwrap();
        let reference = program.run_batch(&[chain(2, 0), chain(3, 10)]).unwrap();
        let executor = ShardedExecutor::new(program, ShardConfig::default().with_num_shards(2));
        let mut first_run_launches = None;
        for round in 0..120 {
            let (results, stats) = executor
                .run_batch_with_stats(&[chain(2, 0), chain(3, 10)])
                .unwrap();
            // Same work every round → the per-run device deltas must not
            // grow with executor age...
            let launches = stats.merged_device_stats().kernel_launches;
            let expected = *first_run_launches.get_or_insert(launches);
            assert_eq!(launches, expected, "round {round}");
            // ...and neither may the per-run chunk counters.
            assert_eq!(stats.executed_chunks, stats.planned_chunks, "round {round}");
            // Results stay bit-identical to the unsharded reference.
            for (got, want) in results.iter().zip(&reference) {
                for rel in want.relations() {
                    assert_eq!(got.relation(rel), want.relation(rel), "round {round}");
                }
            }
        }
    }

    #[test]
    fn concurrent_runs_on_one_executor_stay_isolated() {
        let program = Program::compile(TC, ProvenanceKind::DiffAddMultProb).unwrap();
        let batches: Vec<Vec<FactSet>> = (0..4u32)
            .map(|t| {
                (0..5)
                    .map(|i| chain(1 + (t + i) % 3, t * 1000 + i * 10))
                    .collect()
            })
            .collect();
        let references: Vec<_> = batches
            .iter()
            .map(|batch| program.run_batch(batch).unwrap())
            .collect();
        let executor = Arc::new(ShardedExecutor::new(
            program,
            ShardConfig::default().with_num_shards(2),
        ));
        let handles: Vec<_> = batches
            .iter()
            .enumerate()
            .map(|(t, batch)| {
                let executor = Arc::clone(&executor);
                let batch = batch.clone();
                std::thread::spawn(move || {
                    let mut last = None;
                    for _ in 0..6 {
                        last = Some(executor.run_batch(&batch).unwrap());
                    }
                    (t, last.expect("six runs"))
                })
            })
            .collect();
        for handle in handles {
            // Each concurrent caller receives exactly its own batch's
            // results, bit-identical to the unsharded reference — chunks of
            // the four interleaved runs never cross-contaminate.
            let (t, results) = handle.join().expect("runner thread");
            assert_eq!(results.len(), references[t].len());
            for (i, (got, want)) in results.iter().zip(&references[t]).enumerate() {
                for rel in want.relations() {
                    assert_eq!(
                        got.relation(rel),
                        want.relation(rel),
                        "thread {t} sample {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn dropping_an_executor_joins_its_workers() {
        let program = Program::compile(TC, ProvenanceKind::Unit).unwrap();
        // Never-used executors tear down cleanly...
        drop(ShardedExecutor::new(
            program.clone(),
            ShardConfig::default().with_num_shards(3),
        ));
        // ...as do heavily-used ones, including right after a failed run.
        let executor =
            ShardedExecutor::new(program.clone(), ShardConfig::default().with_num_shards(2));
        for i in 0..8 {
            executor.run_batch(&[chain(2, i * 10)]).unwrap();
        }
        drop(executor);
        use lobster_gpu::DeviceConfig;
        let tiny = Lobster::builder(TC)
            .device(lobster_gpu::Device::new(DeviceConfig {
                parallelism: 1,
                memory_limit: Some(32),
                ..DeviceConfig::default()
            }))
            .provenance(ProvenanceKind::Unit)
            .compile()
            .unwrap();
        let executor = ShardedExecutor::new(tiny, ShardConfig::default().with_num_shards(2));
        assert!(executor.run_batch(&[chain(3, 0)]).is_err());
        drop(executor); // must not hang on the drained failed run
    }

    #[test]
    fn executor_reports_shard_devices_and_config() {
        let program = Program::compile(TC, ProvenanceKind::Unit).unwrap();
        let executor = ShardedExecutor::new(
            program,
            ShardConfig::default()
                .with_num_shards(3)
                .with_skew_factor(1.5)
                .with_max_spill_depth(2),
        );
        assert_eq!(executor.num_shards(), 3);
        assert_eq!(executor.shard_devices().len(), 3);
        assert!((executor.config().skew_factor - 1.5).abs() < 1e-12);
        assert_eq!(executor.config().max_spill_depth, 2);
    }
}
