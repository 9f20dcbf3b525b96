//! APM — the Abstract Parallel Machine.
//!
//! APM is Lobster's low-level intermediate language (paper Section 3.2): an
//! assembly-style, SSA, control-flow-free program over vector registers,
//! designed so that *any* APM program maps efficiently onto a GPU. This crate
//! contains:
//!
//! * the APM instruction set ([`Instr`], mirroring Table 1 of the paper),
//! * the RAM → APM compiler ([`compile_stratum_with_options`], mirroring the
//!   translation rules of Appendix A, including the semi-naive expansion of
//!   joins over the stable / recent / delta partitions of the database),
//! * the tagged, columnar [`Database`] that holds every relation on the
//!   (simulated) device, and
//! * the [`Executor`] that runs APM programs to a fix point (Algorithm 1)
//!   with the optimizations of Section 4: arena allocation & buffer reuse,
//!   hash-index reuse via static registers, and batched evaluation.
//!
//! The executor is generic over the provenance semiring, so the same compiled
//! program supports discrete, probabilistic, and differentiable reasoning.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod compiler;
mod config;
mod database;
mod executor;
mod incremental;
mod isa;

pub use batch::batch_transform;
#[doc(hidden)]
pub use compiler::compile_stratum_hash_only;
pub use compiler::{
    compile_stratum_delta, compile_stratum_with_options, secondary_orders, CompiledStratum,
};
pub use config::{fnv1a, RuntimeOptions};
pub use database::{Database, EncodingSpec, SecondaryOrder, SortedTable, StoragePlan};
pub use executor::{ExecError, ExecutionStats, Executor};
pub use incremental::{refresh_database, EdbChanges, EdbContent, Refresh, RelationChange};
pub use isa::{ApmProgram, DbPart, Instr, JoinSource, JoinWrite, RegId};
