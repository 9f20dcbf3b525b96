//! Multi-pass static analysis over RAM programs.
//!
//! The passes in this module compute compile-time facts about a
//! [`RamProgram`](crate::RamProgram) that downstream layers consume instead
//! of guessing at run time:
//!
//! * [`validate_program`] — the IR validator: schema, arity, column-bound,
//!   and type consistency for every expression of every rule. The Datalog
//!   front end runs it on every program it compiles; the APM compiler
//!   re-checks under `debug_assertions` the RAM it is handed.
//! * [`live_relations`] / [`eliminate_dead_rules`] — relation liveness:
//!   reachability from the program's output relations, identifying rules
//!   that can never contribute to any queried result. The lint reports
//!   them; no runtime path prunes them.
//! * [`CostModel`] — a static cost model: per-stratum rule, join and
//!   recursive-join counts and the linearity flag, reported per program by
//!   `lobster-lint`.
//! * [`lint_program`] — the diagnostics report: validator errors plus
//!   warnings (cartesian products, non-linear recursion, unused inputs,
//!   constant-false filters, dead rules), each carrying rule provenance.

mod cost;
mod lint;
mod liveness;
mod validate;

pub use cost::{CostModel, StratumCost};
pub use lint::{lint_program, Diagnostic, Severity};
pub use liveness::{dead_rules, eliminate_dead_rules, live_relations};
pub use validate::{validate_program, IrError, IrErrorKind};

use std::fmt;

/// Provenance of a diagnostic or validation error: which rule of which
/// stratum it refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleRef {
    /// Stratum index in evaluation order.
    pub stratum: usize,
    /// Rule index within the stratum.
    pub rule: usize,
    /// The rule's target relation.
    pub target: String,
}

impl fmt::Display for RuleRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stratum {}, rule {} (`{}`)",
            self.stratum, self.rule, self.target
        )
    }
}
