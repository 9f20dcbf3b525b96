//! The Relational Algebra Machine (RAM): Lobster's mid-level intermediate
//! representation.
//!
//! The Datalog front-end (`lobster-datalog`) compiles a user-level program
//! into a RAM program (Figure 4 of the paper): an ordered list of *strata*,
//! each containing rules of the form `ρ ← ε` where `ε` is a relational
//! algebra expression over project (`π`), select (`σ`), join (`⊲⊳`) and
//! union. A cartesian product is a join on no columns, an intersection a
//! join on every column. The APM back-end (`lobster-apm`) then lowers each
//! stratum to APM instructions for execution on the (simulated) GPU.
//!
//! This crate also defines the data model shared by every layer:
//!
//! * [`Value`] / [`ValueType`] — 64-bit encoded cell values,
//! * [`SymbolTable`] — string interning for symbolic constants,
//! * [`ExprProgram`] — the bytecode stack machine of Section 5.2 used to
//!   evaluate projection and selection expressions row-by-row on the device.
//!
//! # Static analysis
//!
//! The [`passes`] module analyzes a finished [`RamProgram`]: the front end
//! gates on its validator, and the lint reports the rest. Which join runs
//! as a merge and which hashes is the APM compiler's decision, not one of
//! these facts.
//!
//! * [`passes::validate_program`] — the one IR validator (schemas,
//!   arities, join widths, column bounds, operand types), reporting *every*
//!   error with rule provenance. The Datalog front end runs it on every
//!   program it compiles;
//! * [`passes::live_relations`] / [`passes::eliminate_dead_rules`] — output
//!   reachability and dead rules;
//! * [`passes::CostModel`] — static per-stratum join counts,
//!   summed in the `joins=` of `Program::explain`'s summary line;
//! * [`passes::lint_program`] — the combined diagnostics report
//!   ([`passes::Diagnostic`]) surfaced by `Program::diagnostics()` and the
//!   `lobster-lint` tool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expr;
pub mod passes;
mod program;
mod symbols;
mod value;

pub use expr::{BinaryOp, ByteOp, ExprProgram, RowProjection, ScalarExpr, UnaryOp};
pub use passes::{Diagnostic, IrError, RuleRef, Severity};
pub use program::{RamExpr, RamProgram, RamRule, RelationSchema, Stratum};
pub use symbols::SymbolTable;
pub use value::{Tuple, Value, ValueType};
