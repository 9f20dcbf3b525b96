//! Top-level error type.

use std::fmt;

/// Errors surfaced by the Lobster public API.
#[derive(Debug, Clone, PartialEq)]
pub enum LobsterError {
    /// The Datalog program failed to parse or compile.
    Frontend(lobster_datalog::DatalogError),
    /// Execution failed (device OOM, timeout, iteration cap).
    Execution(lobster_apm::ExecError),
    /// A fact referenced an unknown relation, had the wrong arity, or held a
    /// value that is not of its column's type.
    BadFact {
        /// Description of the problem.
        message: String,
    },
    /// The builder was misconfigured (e.g. `compile()` without a provenance
    /// kind).
    Config {
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for LobsterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LobsterError::Frontend(e) => write!(f, "{e}"),
            LobsterError::Execution(e) => write!(f, "{e}"),
            LobsterError::BadFact { message } => write!(f, "{message}"),
            LobsterError::Config { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for LobsterError {}

impl From<lobster_datalog::DatalogError> for LobsterError {
    fn from(e: lobster_datalog::DatalogError) -> Self {
        LobsterError::Frontend(e)
    }
}

impl From<lobster_apm::ExecError> for LobsterError {
    fn from(e: lobster_apm::ExecError) -> Self {
        LobsterError::Execution(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_cause() {
        let e: LobsterError = lobster_datalog::parse("rel x(").unwrap_err().into();
        assert!(e.to_string().contains("syntax error"));
        let e = LobsterError::BadFact {
            message: "unknown relation `foo`".into(),
        };
        assert!(e.to_string().contains("foo"));
    }
}
