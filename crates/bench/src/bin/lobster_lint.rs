//! `lobster-lint` — static analysis over compiled Lobster programs.
//!
//! Compiles each program into a `Program` and prints what it computed: the
//! first line of `Program::explain` as `<name> | lint | <line>` (strata,
//! rules, joins, merge/hash join sites, errors and warnings by code — the
//! golden ledger's `lint` line byte for byte), then each of
//! `Program::diagnostics`, and with `--verbose` the rest of `explain`:
//! every stratum's APM listings and every relation's storage. With no
//! arguments it reads the built-in Table 2 suite, which CI runs; file paths
//! may be passed instead.
//!
//! Exit status: non-zero if any program fails to parse or compile (the
//! front end rejects IR that fails validation, printing the validator's
//! errors) or produces an error-severity diagnostic. Warnings are reported
//! but do not fail the run unless `--deny-warnings` is given.

use lobster::{Program, ProvenanceKind, Severity};
use lobster_workloads::suite::{table2, BenchmarkInfo};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let verbose = args.iter().any(|a| a == "--verbose");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    // (name, source) per program.
    let targets: Vec<(String, String)> = if paths.is_empty() {
        let source = |info: BenchmarkInfo| (info.name.to_string(), info.program.to_string());
        table2().into_iter().map(source).collect()
    } else {
        let read = |path: &String| match std::fs::read_to_string(path) {
            Ok(source) => (path.clone(), source),
            Err(e) => panic!("read {path}: {e}"),
        };
        paths.into_iter().map(read).collect()
    };

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for (name, source) in &targets {
        // The compiled plan is the same for every provenance kind.
        let program = match Program::compile(source, ProvenanceKind::Unit) {
            Ok(program) => program,
            Err(e) => {
                println!("{name}: FRONTEND ERROR: {e}");
                errors += 1;
                continue;
            }
        };
        let explain = program.explain();
        let mut lines = explain.lines();
        println!("{name} | lint | {}", lines.next().unwrap_or(""));
        for d in program.diagnostics() {
            println!("  {d}");
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
            }
        }
        if verbose {
            for line in lines {
                println!("  {line}");
            }
        }
    }

    println!(
        "lint | total | {} programs, {errors} errors, {warnings} warnings",
        targets.len(),
    );
    if errors > 0 || (deny_warnings && warnings > 0) {
        std::process::exit(1);
    }
}
