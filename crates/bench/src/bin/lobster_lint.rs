//! `lobster-lint` — static analysis over compiled RAM programs.
//!
//! Compiles each target Datalog program to RAM and runs the full
//! `lobster_ram::passes` pipeline over it: IR validation, lint diagnostics
//! (dead rules, cartesian products, constant-false filters, unused
//! relations, non-linear recursion) and the static cost model. It then
//! compiles every stratum to APM as a `Program` does and reports the join
//! sites the compiler sent down the merge path and the hash path (across
//! every semi-naive variant).
//!
//! With no arguments the entire built-in workload suite (the paper's
//! Table 2, which includes the CSPA program Table 4 scales) is analyzed —
//! this is what CI runs. File paths may be passed instead to lint programs
//! from disk.
//!
//! Exit status: non-zero if any program fails to parse or compile (the
//! front end rejects IR that fails validation, printing the validator's
//! errors) or produces an error-severity diagnostic. Warnings are reported
//! but do not fail the run unless `--deny-warnings` is given.

use lobster_apm::{compile_stratum_with_options, RuntimeOptions};
use lobster_ram::passes::{lint_program, CostModel};
use lobster_ram::Severity;
use lobster_workloads::suite::table2;

/// One named program source to analyze.
struct Target {
    name: String,
    source: String,
}

fn builtin_targets() -> Vec<Target> {
    table2()
        .iter()
        .map(|info| Target {
            name: info.name.to_string(),
            source: info.program.to_string(),
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let verbose = args.iter().any(|a| a == "--verbose");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    let targets: Vec<Target> = if paths.is_empty() {
        builtin_targets()
    } else {
        paths
            .iter()
            .map(|path| Target {
                name: path.to_string(),
                source: std::fs::read_to_string(path)
                    .unwrap_or_else(|e| panic!("read {path}: {e}")),
            })
            .collect()
    };

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for target in &targets {
        let compiled = match lobster_datalog::parse(&target.source) {
            Ok(compiled) => compiled,
            Err(e) => {
                println!("{}: FRONTEND ERROR: {e}", target.name);
                errors += 1;
                continue;
            }
        };
        let diagnostics = lint_program(&compiled.ram);
        let cost = CostModel::analyze(&compiled.ram);
        let strata = compiled.ram.strata.len();
        let rules: usize = compiled.ram.strata.iter().map(|s| s.rules.len()).sum();
        let joins: usize = cost.strata.iter().map(|s| s.joins).sum();
        let (mut merge, mut hash) = (0, 0);
        for stratum in &compiled.ram.strata {
            let apm =
                compile_stratum_with_options(stratum, &compiled.ram, &RuntimeOptions::default());
            merge += apm.merge_joins;
            hash += apm.hash_joins;
        }
        let errs = diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let warns = diagnostics.len() - errs;
        errors += errs;
        warnings += warns;
        println!(
            "{:<24} {strata} strata, {rules} rules, {joins} joins \
             (merge={merge} hash={hash}) — {errs} errors, {warns} warnings",
            target.name,
        );
        for d in &diagnostics {
            println!("  {d}");
        }
        if verbose {
            for s in &cost.strata {
                println!(
                    "  stratum [{}]{}: score {}, {} rules, {} joins ({} recursive)",
                    s.relations.join(", "),
                    if s.recursive { " (recursive)" } else { "" },
                    s.score(),
                    s.rules,
                    s.joins,
                    s.recursive_joins,
                );
            }
        }
    }

    println!(
        "\n{} programs analyzed: {errors} errors, {warnings} warnings",
        targets.len(),
    );
    if errors > 0 || (deny_warnings && warnings > 0) {
        std::process::exit(1);
    }
}
