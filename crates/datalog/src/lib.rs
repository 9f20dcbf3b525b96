//! The Lobster Datalog front-end.
//!
//! Lobster reuses a Scallop-flavoured Datalog surface language (paper
//! Figure 3c). This crate implements the front-end from scratch: a lexer and
//! recursive-descent parser, relation type inference, stratification by
//! strongly connected components of the dependency graph, and compilation of
//! each rule into the Relational Algebra Machine (RAM) IR defined by
//! [`lobster_ram`].
//!
//! # Supported language
//!
//! ```text
//! type Cell = u32                          // type alias
//! type edge(x: Cell, y: Cell)              // relation declaration
//! rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
//! rel connected() = is_endpoint(x), is_endpoint(y), path(x, y), x != y
//! rel edge = {(0, 1), 0.9::(1, 2)}         // (probabilistic) fact sets
//! query connected
//! ```
//!
//! Rule bodies are conjunctions (`,` / `and`) and disjunctions (`or`) of
//! relation atoms, comparison constraints, and binding equalities
//! (`z == x + 1`). Negation and aggregation are not supported (none of the
//! paper's benchmarks require them).
//!
//! # Semantics of values
//!
//! * `u32` arithmetic wraps at 32 bits: `y - 1` at `y = 0` is 4294967295,
//!   and `x * y` at 65536 × 65536 is 0. `i64` wraps at 64 bits, and `f64`
//!   follows IEEE 754.
//! * Integer `/` and `%` by zero give 0.
//! * `+ - * / %` and negation apply to `u32`, `i64` and `f64` only.
//!   Arithmetic over `symbol` or `bool` operands is a compile error: a
//!   symbol is a name, not a number.
//! * A literal must be of a kind its column type holds. An integer fits
//!   `u32` (when in range), `i64` and `f64`; a float fits `f64`; `true` /
//!   `false` fit `bool`; a string fits `symbol`. Anything else, such as
//!   `r(5)` with `r(x: symbol)` or `r(true)` with `r(x: u32)`, is a compile
//!   error, never a coercion.
//!
//! # Example
//!
//! ```
//! use lobster_datalog::parse;
//!
//! let program = parse(r#"
//!     type edge(x: u32, y: u32)
//!     rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
//!     query path
//! "#).unwrap();
//! assert_eq!(program.ram.strata.len(), 1);
//! assert!(program.ram.strata[0].recursive);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod compile;
mod error;
mod infer;
mod lexer;
mod parser;
mod stratify;

pub use compile::{compile, CompiledProgram, FactDecl};
pub use error::DatalogError;
pub use infer::infer_schemas;
pub use parser::parse_items;
pub use stratify::stratify;

/// Parses and compiles a Datalog program into RAM in one step.
///
/// # Errors
///
/// Returns a [`DatalogError`] describing the first syntax, type, or
/// compilation problem encountered, or a [`DatalogError::Semantic`] listing
/// every IR validation error of the compiled RAM
/// ([`lobster_ram::passes::validate_program`]).
pub fn parse(source: &str) -> Result<CompiledProgram, DatalogError> {
    let items = parser::parse_items(source)?;
    compile::compile(&items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("rel path(x, y) = ").is_err());
        assert!(parse("type = u32").is_err());
    }

    #[test]
    fn parse_accepts_pathfinder_program() {
        let program = parse(
            r#"
            type Cell = u32
            type edge(x: Cell, y: Cell)
            type is_endpoint(x: Cell)
            rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
            rel endpoints_connected() = is_endpoint(x), is_endpoint(y), path(x, y), x != y
            query endpoints_connected
            "#,
        )
        .unwrap();
        assert_eq!(program.queries, vec!["endpoints_connected".to_string()]);
        assert_eq!(program.ram.strata.len(), 2);
    }
}
