//! The `lobster_ram::passes` pipeline against the real compiled workload
//! programs — the suite the paper evaluates, not synthetic fixtures. These
//! pin the facts the cost model reports; the join strategies the APM
//! compiler chooses are in `crates/bench/tests/plans.txt`.

use lobster_ram::passes::{lint_program, validate_program, CostModel};
use lobster_ram::Severity;
use lobster_workloads::suite::table2;

/// Every program the suite ships must compile to RAM that the IR validator
/// accepts — the executor assumes validated IR, and CI runs `lobster-lint`
/// over the same set.
#[test]
fn every_workload_program_passes_ir_validation() {
    for info in table2() {
        let compiled = lobster_datalog::parse(info.program)
            .unwrap_or_else(|e| panic!("{} failed to parse: {e}", info.name));
        if let Err(errors) = validate_program(&compiled.ram) {
            let rendered: Vec<String> = errors.iter().map(ToString::to_string).collect();
            panic!(
                "{} failed IR validation:\n{}",
                info.name,
                rendered.join("\n")
            );
        }
    }
}

/// No workload program may carry an error-severity diagnostic; warnings are
/// expected (several paper programs contain cartesian products by design).
#[test]
fn no_workload_program_lints_at_error_severity() {
    for info in table2() {
        let compiled = lobster_datalog::parse(info.program).unwrap();
        let errors: Vec<String> = lint_program(&compiled.ram)
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(ToString::to_string)
            .collect();
        assert!(
            errors.is_empty(),
            "{} has error diagnostics:\n{}",
            info.name,
            errors.join("\n")
        );
    }
}

/// Transitive closure and CLUTRR are *linear* recursions: one recursive
/// input per join, so the executor's static-index reuse (paper Section 4.2)
/// stays enabled. The lint pass must not flag them.
#[test]
fn transitive_closure_and_clutrr_recursion_is_linear() {
    for (name, source) in [
        ("TC", lobster_workloads::graphs::TRANSITIVE_CLOSURE),
        ("CLUTRR", lobster_workloads::clutrr::PROGRAM),
    ] {
        let compiled = lobster_datalog::parse(source).unwrap();
        let diagnostics = lint_program(&compiled.ram);
        assert!(
            diagnostics.iter().all(|d| d.code != "non-linear-recursion"),
            "{name} unexpectedly flagged as non-linear"
        );
        // The programs do recurse — the linearity claim is not vacuous.
        assert!(compiled.ram.strata.iter().any(|s| s.recursive));
    }
}

/// CSPA is the suite's join-heavy stress case: one mutually recursive
/// stratum whose joins pair recursive inputs. The cost model must see all
/// seven join sites, classify them recursive, and flag the stratum
/// non-linear, which the lint reports.
#[test]
fn cspa_cost_model_counts_recursive_joins_and_flags_non_linearity() {
    let compiled = lobster_datalog::parse(lobster_workloads::cspa::PROGRAM).unwrap();
    let cost = CostModel::analyze(&compiled.ram);
    assert_eq!(cost.strata.len(), 1);
    assert!(compiled.ram.strata[0].recursive);
    let stratum = &cost.strata[0];
    assert_eq!(stratum.joins, 7);
    assert!(stratum.recursive_joins > 0);
    assert!(!stratum.linear);
    // The non-linear recursion shows up in lint too: value_flow joins
    // value_flow.
    let diagnostics = lint_program(&compiled.ram);
    assert!(diagnostics.iter().any(|d| d.code == "non-linear-recursion"));
}
