//! Lobster: a GPU-accelerated framework for neurosymbolic programming.
//!
//! This crate is the user-facing API of the Lobster reproduction. It ties
//! together the Datalog front-end (`lobster-datalog`), the RAM and APM
//! intermediate representations (`lobster-ram`, `lobster-apm`), the simulated
//! GPU device (`lobster-gpu`), and the provenance semiring library
//! (`lobster-provenance`) around a compile-once / session-per-request split:
//!
//! * [`Program`] — the immutable compiled artifact: parsed, stratified,
//!   RAM-compiled, and batch-transformed exactly once. Programs are
//!   `Arc`-shared internally, so cloning one (or sending clones to worker
//!   threads) costs a pointer copy. Build one with [`Lobster::builder`].
//! * [`Session`] — cheap per-request state: the request's input facts and
//!   the registry that issues their ids. Open one per sample/request with
//!   [`Program::session`]; nothing a session does is visible to any other
//!   session of the same program.
//!
//! # Usage
//!
//! The reasoning mode is the provenance semiring, picked from the semiring
//! library by [`ProvenanceKind`] — named in the code, or parsed from a
//! config file or request field (`"diff-top-1-proofs".parse()`), so a
//! server need not hard-code it. It is a property of the compiled program,
//! not of its type: discrete, probabilistic and differentiable reasoning
//! share one [`Program`] / [`Session`] API.
//!
//! ```
//! use lobster::{Lobster, ProvenanceKind, Value};
//!
//! // Compile once...
//! let program = Lobster::builder(
//!     "type edge(x: u32, y: u32)
//!      rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
//!      query path",
//! )
//! .provenance(ProvenanceKind::DiffTop1Proof)
//! .compile()
//! .unwrap();
//!
//! // ...then open a cheap session per sample.
//! let mut session = program.session();
//! session.add_fact("edge", &[Value::U32(0), Value::U32(1)], Some(0.9)).unwrap();
//! session.add_fact("edge", &[Value::U32(1), Value::U32(2)], Some(0.8)).unwrap();
//! let result = session.run().unwrap();
//! let p = result.probability("path", &[Value::U32(0), Value::U32(2)]);
//! assert!((p - 0.72).abs() < 1e-9);
//! ```
//!
//! # Batched execution
//!
//! [`Program::run_batch`] runs a whole mini-batch of independent samples in
//! one fix-point (paper Section 4.3). All fact registration is scoped to the
//! call — repeated batches never accumulate state:
//!
//! ```
//! use lobster::{FactSet, Program, ProvenanceKind, Value};
//!
//! let program = Program::compile(
//!     "type edge(x: u32, y: u32)
//!      rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
//!      query path",
//!     ProvenanceKind::Unit,
//! )
//! .unwrap();
//! let mut sample = FactSet::new();
//! sample.add("edge", &[Value::U32(0), Value::U32(1)], None);
//! let results = program.run_batch(&[sample.clone(), sample]).unwrap();
//! assert_eq!(results.len(), 2);
//! ```
//!
//! For differentiable provenances, [`RunResult::gradient`] exposes the
//! gradient of every output probability with respect to every input fact —
//! which is what lets an upstream network train end-to-end.
//!
//! # Runtime options
//!
//! [`RuntimeOptions`] has four fields, and they are the only execution
//! knobs: `static_registers` and `buffer_reuse` (the two optimizations of
//! the paper's Figure 10 ablation, both on by default), `max_iterations`
//! per stratum, and `timeout_ms`, one wall-clock budget for a whole run.
//! Join strategy and storage width are not options: a join takes the merge
//! path where sort-order inference proves both inputs sorted on the key,
//! and every program's relations are stored packed and dictionary-encoded,
//! `u32` columns in 4-byte lanes (`u32` arithmetic wraps at 32 bits, and
//! arithmetic over symbols does not compile). Every entry point —
//! [`Session::run`], [`Session::run_batch`], [`Session::run_incremental`],
//! the shard workers — reaches its fix point the same way:
//! `lobster_apm::Executor::run_strata` over the strata compiled with the
//! [`Program`] under its options (`lobster_apm::refresh_database` for an
//! incremental refresh), with one host→device transfer recorded before a
//! from-scratch run and one device→host transfer after it. Options are
//! fixed before `compile()`, so a warm request compiles nothing.
//!
//! # Serving
//!
//! A server builds on two properties of this API: a [`Program`] is an
//! immutable, `Arc`-shared artifact (compile once, share across every
//! request thread), and [`Program::run_batch`] pays one fix-point for a
//! whole mini-batch of independent requests. The `lobster-serve` crate
//! packages both behind a **persistent runtime** — everything structural is
//! built once and recycled, so a warm request pays only validation,
//! queueing, and its share of a fix-point:
//!
//! * `ProgramCache` — a keyed cache `(source hash, provenance kind, options
//!   fingerprint) → Arc<Program>` with LRU eviction by compiled size, so
//!   each distinct program compiles once per process no matter how many
//!   threads race for it. The key ingredients live here:
//!   [`Lobster::source_hash`] / [`Program::source_hash`] identify what was
//!   compiled, [`RuntimeOptions::fingerprint`] identifies how, and
//!   [`Program::compiled_size_bytes`] weighs the artifact for eviction.
//! * `BatchScheduler` — accumulates per-request [`FactSet`]s into
//!   mini-batches (one fix-point per batch) with `max_batch_size` /
//!   `max_queue_delay` knobs, routing each result back to its caller.
//!   Each scheduler worker opens one [`Session`] for its life and runs
//!   every single-device batch on it; with `num_shards > 1` the scheduler
//!   holds **one** long-lived [`ShardedExecutor`] whose shard workers serve
//!   every batch it ever runs.
//!
//! See `docs/ARCHITECTURE.md` for the full request lifecycle (diagram, knob
//! reference, shard-vs-batch guidance) and the `serve` example in
//! `lobster-serve` for the end-to-end flow.
//!
//! ## Session lifetime
//!
//! Opening a session costs about 90 ns ([`Program::session`]), so a
//! one-off request opens its own and drops it. [`Session::run_batch`] takes
//! `&self` and registers the samples' facts on a *fork* of the session
//! registry, so a long-lived session — a scheduler worker's, a shard
//! worker's — serves any number of batches unchanged; the forks are
//! recycled, so steady-state serving allocates no fresh registry per batch.
//!
//! ## Multi-device sharding
//!
//! Because the sample-id column isolates every sample of a batch, a batch
//! can also be partitioned *across devices*: a [`ShardedExecutor`] spawns
//! one persistent worker thread per shard device (derived from the
//! program's device) at construction, feeds every batch to those workers
//! over a shared queue, runs one fix-point per shard slice, and merges the
//! per-shard results back into the caller's order — with tuples,
//! probabilities, and gradients identical to the single-device
//! [`Program::run_batch`]. The batching scheduler exposes the same knob as
//! `SchedulerConfig::num_shards`, holding one executor for all its batches,
//! so scheduled batches fan out without any change to clients.
//!
//! *When to shard.* Sharding pays off when a single batch's fix-point is
//! the bottleneck and spare devices (or cores — shard devices execute on
//! threads) are idle: large batches, deep recursions, or a latency target
//! the full-batch fix-point misses. For small batches the extra fix-points
//! per batch cost more than the overlap wins — measure with the
//! `serve_throughput` bench, which records sharded rows next to their
//! single-device counterparts.
//!
//! *Budget knobs.* Shard devices are derived with
//! [`Device::split_shards`](lobster_gpu::Device::split_shards): the parent
//! memory budget and kernel workers are divided `N` ways, so an `N`-shard
//! executor stays within its program's memory envelope, and within its
//! worker envelope as long as `N` does not exceed the device's parallelism
//! (each shard keeps at least one worker, so more shards than workers
//! oversubscribes). Because the executor is persistent and shared, that
//! envelope spans every concurrent `run_batch` caller. A chunk that
//! overflows its shard's budget is split in half and retried
//! ([`ShardConfig::max_spill_depth`] bounds how often), so batches that fit
//! the aggregate budget still complete.
//!
//! *Skew behavior.* Samples are bin-packed over shards by fact count
//! (largest first). A pathologically large sample — beyond
//! [`ShardConfig::skew_factor`] × the ideal per-shard share — becomes its
//! own work unit, and idle shards steal pending work units, so one monster
//! sample delays only itself, not the whole batch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod program;
mod session;
mod sharded;

pub use error::LobsterError;
pub use program::{Lobster, LobsterBuilder, Program};
pub use session::{FactSet, RunResult, Session};
pub use sharded::{ShardConfig, ShardRunStats, ShardedExecutor};

/// The name `benchmark/` still spells for [`Program`]; the next `benchmark`
/// PR drops it (ROADMAP item 4).
#[doc(hidden)]
pub type DynProgram = Program;
/// Likewise for [`Session`].
#[doc(hidden)]
pub type DynSession = Session;

// Re-export the pieces users routinely need alongside the program/session.
pub use lobster_apm::{ExecutionStats, RuntimeOptions};
pub use lobster_gpu::{Arena, ArenaStats, Device, DeviceConfig, DeviceStats, KernelTime};
pub use lobster_provenance::{
    AddMultProb, Boolean, DiffAddMultProb, DiffMaxMinProb, DiffTop1Proof, InputFactId,
    InputFactRegistry, MaxMinProb, Output, Provenance, ProvenanceKind, SessionProvenance,
    Top1Proof, Unit,
};
pub use lobster_ram::{Diagnostic, Severity, SymbolTable, Value, ValueType};
