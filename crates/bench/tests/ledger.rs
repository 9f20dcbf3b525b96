//! The golden ledger: what the nine Table 2 programs compute, and how much
//! work they take to compute it, pinned in `tests/ledger.txt`.
//!
//! Every program of `lobster_workloads::suite::table2()` runs under its own
//! provenance kind on three samples from its generator (one `StdRng` seeded
//! with [`SEED`] per program, at the small sizes of [`sample`]). Each entry
//! point records one line:
//!
//! * `run` — `Session::run` over sample 0;
//! * `run_batch` — `Session::run_batch` over all three samples;
//! * `run_incremental` (the three `unit` programs) — one insert: sample 0
//!   but its last fact is materialized, then the last fact is inserted and
//!   `Session::run_incremental` propagates it.
//!
//! A line holds an FNV-1a digest of the outputs (every relation's tuples in
//! result order, probability bits and gradient bits) and the
//! `ExecutionStats` counters that are exact at one lane. The last of them,
//! `strata_compiled`, counts the strata the entry point compiled as it ran:
//! 0 for `run` and `run_batch`, whose `Program` compiled its strata once,
//! and the delta strata an incremental insert compiles. Per program, one
//! more line, `lint`, is the first line of `Program::explain`, which
//! `lobster-lint` prints too: strata, rules, joins, the join sites the
//! program compiled to the merge path and to the hash path (across every
//! semi-naive variant), errors and warnings by code.
//!
//! Before comparing with the file, the test checks that the ledger is
//! repeatable: two renders at kernel parallelism 1 in one process are equal,
//! and the digests at parallelism 4 equal those at 1. A mismatch with the
//! file prints a line diff (the `golden` module, shared with `plans.rs`).
//!
//! The file is a check's data: a change that moves a line says which and
//! why, and rewrites the file by running the ignored twin by hand:
//!
//! ```text
//! cargo test -p lobster-bench --test ledger -- --ignored rewrite_ledger
//! ```

mod golden;

use lobster::{
    Device, DeviceConfig, ExecutionStats, FactSet, Lobster, Program, RunResult, Severity, Value,
};
use lobster_provenance::ProvenanceKind;
use lobster_workloads::suite::{table2, BenchmarkInfo};
use lobster_workloads::{clutrr, cspa, graphs, hwf, pacman, pathfinder, psa, rna, WorkloadFacts};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write;

/// The seed of every program's input generator.
const SEED: u64 = 7;

/// Samples per program: sample 0 feeds `run` and `run_incremental`, all of
/// them `run_batch`.
const SAMPLES: usize = 3;

const LEDGER: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/ledger.txt");

/// One sample of `name`'s input, and the generator call that made it.
fn sample(name: &str, rng: &mut StdRng) -> (&'static str, WorkloadFacts) {
    match name {
        "Pathfinder" => (
            "pathfinder::generate(4, true)",
            pathfinder::generate(4, true, rng).facts(),
        ),
        "PacMan-Maze" => ("pacman::generate(5)", pacman::generate(5, rng).facts()),
        "HWF" => ("hwf::generate(3)", hwf::generate(3, rng).facts()),
        "CLUTRR" => ("clutrr::generate(4)", clutrr::generate(4, rng).facts()),
        "Prob. Static Analysis" => (
            "psa::generate(40, 2)",
            psa::generate("ledger", 40, 2, rng).facts,
        ),
        "RNA SSP" => ("rna::generate(12)", rna::generate(12, rng).facts()),
        "Transitive Closure" => (
            "graphs::scale_free(40, 2)",
            edges("edge", graphs::scale_free(40, 2, rng)),
        ),
        "Same Generation" => (
            "graphs::tree_with_cross_edges(40, 3)",
            edges("parent", graphs::tree_with_cross_edges(40, 3, rng)),
        ),
        "CSPA" => (
            "cspa::generate(40, 2)",
            cspa::generate("ledger", 40, 2, rng).facts,
        ),
        other => panic!("no generator for `{other}`"),
    }
}

fn edges(relation: &str, edges: Vec<(u32, u32)>) -> WorkloadFacts {
    let mut facts = WorkloadFacts::new();
    for (a, b) in edges {
        facts.push(relation, vec![Value::U32(a), Value::U32(b)], None);
    }
    facts
}

fn fact_set(facts: &[(String, Vec<Value>, Option<f64>)]) -> FactSet {
    let mut set = FactSet::new();
    for (relation, values, prob) in facts {
        set.add(relation.clone(), values, *prob);
    }
    set
}

fn device(parallelism: usize) -> Device {
    Device::new(DeviceConfig {
        parallelism,
        // Low threshold so parallelism-4 runs actually chunk these small
        // inputs instead of falling back to sequential loops.
        min_parallel_rows: 64,
        ..DeviceConfig::default()
    })
}

/// Folds one result's outputs into an FNV-1a digest. The suite has no
/// `symbol` column, so every value hashes by its own bits.
fn digest_into(bytes: &mut Vec<u8>, result: &RunResult) {
    for relation in result.relations() {
        bytes.extend_from_slice(relation.as_bytes());
        bytes.push(0);
        for (tuple, output) in result.relation(relation) {
            for value in tuple {
                let (tag, bits) = match *value {
                    Value::U32(v) => (0u8, u64::from(v)),
                    Value::I64(v) => (1, v as u64),
                    Value::F64(v) => (2, v.to_bits()),
                    Value::Symbol(v) => (3, u64::from(v)),
                    Value::Bool(v) => (4, u64::from(v)),
                };
                bytes.push(tag);
                bytes.extend_from_slice(&bits.to_le_bytes());
            }
            bytes.extend_from_slice(&output.probability.to_bits().to_le_bytes());
            for (id, gradient) in &output.gradient {
                bytes.extend_from_slice(&id.0.to_le_bytes());
                bytes.extend_from_slice(&gradient.to_bits().to_le_bytes());
            }
            bytes.push(0xff);
        }
    }
}

/// One entry point's ledger record.
struct Entry {
    name: &'static str,
    digest: u64,
    stats: ExecutionStats,
}

impl Entry {
    fn new(name: &'static str, results: &[RunResult]) -> Self {
        let mut bytes = Vec::new();
        for result in results {
            digest_into(&mut bytes, result);
        }
        Entry {
            name,
            // FNV-1a: stable across processes, unlike `std`'s hasher.
            digest: bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
                (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
            }),
            // A batch's results share the stats of its one execution.
            stats: results[0].stats.clone(),
        }
    }

    fn line(&self, program: &str) -> String {
        let s = &self.stats;
        format!(
            "{program} | {} | digest={:016x} iterations={} candidate_rows={} \
             facts_produced={} rows_searched={} kernel_launches={} \
             update_rows_written={} rows_loaded={} strata_compiled={}",
            self.name,
            self.digest,
            s.iterations,
            s.candidate_rows,
            s.facts_produced,
            s.rows_searched,
            s.kernel_launches,
            s.update_rows_written,
            s.rows_loaded,
            s.strata_compiled,
        )
    }
}

/// Runs every entry point of `program`, compiled from `info`, over
/// `samples`.
fn entries(program: &Program, info: &BenchmarkInfo, samples: &[WorkloadFacts]) -> Vec<Entry> {
    let sets: Vec<FactSet> = samples.iter().map(|s| fact_set(&s.facts)).collect();

    let mut session = program.session();
    session.insert_facts(&sets[0]).unwrap();
    let mut entries = vec![Entry::new("run", &[session.run().unwrap()])];

    let batch = program.session().run_batch(&sets).unwrap();
    entries.push(Entry::new("run_batch", &batch));

    if info.provenance == ProvenanceKind::Unit {
        let (last, base) = samples[0].facts.split_last().expect("a sample has facts");
        let mut session = program.session();
        session.insert_facts(&fact_set(base)).unwrap();
        session.run_incremental().unwrap();
        session
            .insert_facts(&fact_set(std::slice::from_ref(last)))
            .unwrap();
        let inserted = session.run_incremental().unwrap();
        entries.push(Entry::new("run_incremental", &[inserted]));
    }
    entries
}

/// The ledger at `parallelism`: its text, and every entry's digest.
fn render(parallelism: usize) -> (String, Vec<u64>) {
    let mut text = String::from(
        "# The golden ledger of crates/bench/tests/ledger.rs: regenerate it with\n\
         # `cargo test -p lobster-bench --test ledger -- --ignored rewrite_ledger`.\n",
    );
    let mut digests = Vec::new();
    let (mut errors, mut warnings) = (0, 0);
    let suite = table2();
    for info in &suite {
        let mut rng = StdRng::seed_from_u64(SEED);
        let (call, samples): (Vec<&str>, Vec<WorkloadFacts>) =
            (0..SAMPLES).map(|_| sample(info.name, &mut rng)).unzip();
        let sizes: Vec<String> = samples.iter().map(|s| s.len().to_string()).collect();
        writeln!(
            text,
            "{} | input | {} {} seed={SEED} facts=[{}]",
            info.name,
            info.provenance,
            call[0],
            sizes.join(" "),
        )
        .unwrap();
        let program = Lobster::builder(info.program)
            .device(device(parallelism))
            .provenance(info.provenance)
            .compile()
            .unwrap_or_else(|e| panic!("{}: {e}", info.name));
        let explain = program.explain();
        let summary = explain.lines().next().unwrap_or_default();
        writeln!(text, "{} | lint | {summary}", info.name).unwrap();
        let diagnostics = program.diagnostics();
        let errs = diagnostics.iter().filter(|d| d.severity == Severity::Error);
        let errs = errs.count();
        errors += errs;
        warnings += diagnostics.len() - errs;
        for entry in entries(&program, info, &samples) {
            writeln!(text, "{}", entry.line(info.name)).unwrap();
            digests.push(entry.digest);
        }
    }
    writeln!(
        text,
        "lint | total | {} programs, {errors} errors, {warnings} warnings",
        suite.len()
    )
    .unwrap();
    (text, digests)
}

#[test]
fn ledger_matches_the_committed_file() {
    let (text, digests) = render(1);
    let (_, parallel) = render(4);
    assert_eq!(digests, parallel, "digests at parallelism 4 differ from 1");
    golden::assert_golden(LEDGER, &text, &render(1).0, "rewrite_ledger");
}

/// Rewrites `tests/ledger.txt` from the current code. Run by hand, only for
/// a change that means to move the ledger.
#[test]
#[ignore]
fn rewrite_ledger() {
    golden::rewrite(LEDGER, &render(1).0);
}
