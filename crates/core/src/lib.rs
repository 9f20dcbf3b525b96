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
//! and every program's relations are stored packed, `u32` and `symbol`
//! columns in 4-byte lanes (`u32` arithmetic wraps at 32 bits, and
//! arithmetic over symbols does not compile). Every entry point —
//! [`Session::run`], [`Session::run_batch`], [`Session::run_incremental`]
//! — reaches its fix point the same way:
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
//!   every batch on it with [`Session::run_batch`]: one batch, one fix
//!   point, one device.
//!
//! See `docs/ARCHITECTURE.md` for the full request lifecycle (diagram, knob
//! reference) and the `serve` example in `lobster-serve` for the end-to-end
//! flow.
//!
//! ## Session lifetime
//!
//! Opening a session costs about 90 ns ([`Program::session`]), so a
//! one-off request opens its own and drops it. [`Session::run_batch`] takes
//! `&self` and registers the samples' facts on a *fork* of the session
//! registry, so a long-lived session — a scheduler worker's — serves any
//! number of batches unchanged; the forks are recycled, so steady-state
//! serving allocates no fresh registry per batch.
//!
//! ## One device per batch
//!
//! A batch runs as one fix point on the program's [`Device`], with the
//! sample id as a leading key; parallelism inside it comes from the
//! device's kernel lanes. A batch whose working set exceeds the device's
//! `memory_limit` fails as a whole with [`LobsterError::Execution`]
//! (`DeviceError::OutOfMemory`); nothing is split and retried.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod program;
mod session;

pub use error::LobsterError;
pub use program::{Lobster, LobsterBuilder, Program};
pub use session::{FactSet, RunResult, Session};

/// The name `benchmark/` still spells for [`Program`]; the next change to
/// `benchmark/` drops it.
#[doc(hidden)]
pub type DynProgram = Program;
/// Likewise for [`Session`].
#[doc(hidden)]
pub type DynSession = Session;

// Re-export the pieces users routinely need alongside the program/session.
pub use lobster_apm::{ExecutionStats, RuntimeOptions};
pub use lobster_gpu::{metrics, Arena, Device, DeviceConfig, Metrics, Snapshot};
pub use lobster_provenance::{
    AddMultProb, Boolean, DiffAddMultProb, DiffMaxMinProb, DiffTop1Proof, InputFactId,
    InputFactRegistry, MaxMinProb, Output, Provenance, ProvenanceKind, SessionProvenance,
    Top1Proof, Unit,
};
pub use lobster_ram::{Diagnostic, Severity, SymbolTable, Value, ValueType};
