//! Incremental fix-point maintenance cost, written to `BENCH_incremental.json`.
//!
//! The question the artifact answers: after a session has materialized a
//! fix-point, what does a small delta cost relative to evaluating from
//! scratch — and does that cost scale with `|Δ|` or with `|DB|`? Each row
//! measures one chain-shaped transitive-closure workload (the worst case for
//! from-scratch evaluation: a chain of `n` edges needs `n` fix-point
//! iterations and derives `n(n+1)/2` paths):
//!
//! * `from_scratch_ms` — a fresh session evaluating the whole database.
//! * `delta1_ms` / `delta16_ms` — inserting 1 / 16 new edges into the
//!   materialized session and running `run_incremental`, which drains the
//!   tuple-level semi-naive frontier in a handful of iterations regardless
//!   of database size (`delta1_iterations` records how many). These are
//!   steady-state numbers: one untimed insertion comes first, so that what
//!   grows by doubling — above all the session's decoded view of `path`, a
//!   vector sized exactly at materialisation — has grown. That reallocation
//!   is paid once per doubling of the relation, not per update;
//!   `delta1_first_ms` is the same `|Δ|=1` update made as the very first one,
//!   so its price stays visible.
//! * `retract1_ms` — retracting one edge, which takes the stratum-level
//!   delete/re-derive path and is expected to cost about a from-scratch run;
//!   it is recorded so the fallback's price is visible, not hidden.
//!
//! Run with `cargo run -p lobster-bench --release --bin incremental_bench`.
//! Knobs:
//!
//! * `--quick` / `LOBSTER_BENCH_QUICK=1` — shrink the workloads for a CI
//!   smoke run.
//! * `--repeats N` — best-of-N timing (default 3).
//! * `--assert-delta-factor X` — exit non-zero unless the `|Δ|=1` update on
//!   the largest workload is at least `X ×` cheaper than from-scratch.
//!
//! The artifact stamps `quick_mode` and `cpus` like every other bench
//! artifact, so a degraded regeneration is self-describing.

use lobster::{FactSet, Lobster, ProvenanceKind, Value};
use lobster_bench::{print_header, quick_mode};
use std::time::{Duration, Instant};

const TC: &str = "type edge(x: u32, y: u32)
    rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
    query path";

/// First node of the edge a warm session has already taken: far from every
/// chain measured.
const FAR: u32 = 1_000_000;

/// One measured workload size.
struct Row {
    edges: usize,
    path_tuples: usize,
    from_scratch: Duration,
    scratch_iterations: usize,
    delta1: Duration,
    delta1_iterations: usize,
    delta1_first: Duration,
    delta16: Duration,
    retract1: Duration,
}

impl Row {
    fn scratch_over_delta1(&self) -> f64 {
        self.from_scratch.as_secs_f64() / self.delta1.as_secs_f64().max(1e-9)
    }

    fn json(&self) -> String {
        format!(
            "{{\"edges\": {}, \"path_tuples\": {}, \"from_scratch_ms\": {:.3}, \
             \"scratch_iterations\": {}, \"delta1_ms\": {:.3}, \"delta1_iterations\": {}, \
             \"delta1_first_ms\": {:.3}, \"delta16_ms\": {:.3}, \"retract1_ms\": {:.3}, \
             \"scratch_over_delta1\": {:.3}}}",
            self.edges,
            self.path_tuples,
            self.from_scratch.as_secs_f64() * 1e3,
            self.scratch_iterations,
            self.delta1.as_secs_f64() * 1e3,
            self.delta1_iterations,
            self.delta1_first.as_secs_f64() * 1e3,
            self.delta16.as_secs_f64() * 1e3,
            self.retract1.as_secs_f64() * 1e3,
            self.scratch_over_delta1(),
        )
    }
}

fn chain(from: u32, count: usize) -> FactSet {
    let mut facts = FactSet::new();
    for i in 0..count as u32 {
        facts.add(
            "edge",
            &[Value::U32(from + i), Value::U32(from + i + 1)],
            None,
        );
    }
    facts
}

fn best_of(repeats: usize, mut f: impl FnMut() -> Duration) -> Duration {
    (0..repeats)
        .map(|_| f())
        .min()
        .expect("at least one repeat")
}

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = quick_mode() || args.iter().any(|a| a == "--quick");
    let repeats: usize = arg_value(&args, "--repeats")
        .map(|v| v.parse().expect("--repeats takes a number"))
        .unwrap_or(3)
        .max(1);
    let assert_delta_factor: Option<f64> = arg_value(&args, "--assert-delta-factor")
        .map(|v| v.parse().expect("--assert-delta-factor takes a number"));
    let sizes: &[usize] = if quick {
        &[32, 64, 128]
    } else {
        &[128, 512, 1024]
    };

    print_header(
        "Incremental maintenance — delta updates against materialized fix-points",
        "delta cost must track |Δ|, not |DB|; chain TC is the worst case for from-scratch",
    );

    let program = Lobster::builder(TC)
        .provenance(ProvenanceKind::Unit)
        .compile()
        .expect("TC compiles");

    let mut rows: Vec<Row> = Vec::new();
    for &edges in sizes {
        // From-scratch reference: a fresh session per repeat, timed over the
        // full evaluation only (fact registration excluded on both paths).
        let mut scratch_iterations = 0;
        let from_scratch = best_of(repeats, || {
            let mut session = program.session();
            session.insert_facts(&chain(0, edges)).expect("chain facts");
            let start = Instant::now();
            let result = session.run().expect("TC runs");
            let elapsed = start.elapsed();
            assert_eq!(result.len("path"), edges * (edges + 1) / 2);
            scratch_iterations = result.stats.iterations;
            elapsed
        });

        // Every repeat materializes a session of its own, so the measured
        // update always applies to the same fix point *and* the session is
        // the only holder of its decoded outputs. (A clone of one base
        // session would share them with the base, and the timed update would
        // pay for copying all of `path` before it could patch a row in — the
        // cost of holding on to an old result, not of the update.) A `warm`
        // session has also taken one insertion already: an edge far from the
        // chain, which adds one path.
        let materialized = |warm: bool| {
            let mut session = program.session();
            let ids = session.insert_facts(&chain(0, edges)).expect("chain facts");
            session.run_incremental().expect("materializes");
            if warm {
                session.insert_facts(&chain(FAR, 1)).expect("far edge");
                session.run_incremental().expect("first update runs");
            }
            (session, ids)
        };

        let measure_insert = |delta: usize, warm: bool| {
            let mut iterations = 0;
            let wall = best_of(repeats, || {
                let (mut session, _) = materialized(warm);
                session
                    .insert_facts(&chain(edges as u32, delta))
                    .expect("delta facts");
                let start = Instant::now();
                let result = session.run_incremental().expect("delta update runs");
                let elapsed = start.elapsed();
                let grown = edges + delta;
                assert_eq!(
                    result.len("path"),
                    grown * (grown + 1) / 2 + usize::from(warm)
                );
                iterations = result.stats.iterations;
                elapsed
            });
            (wall, iterations)
        };
        let (delta1, delta1_iterations) = measure_insert(1, true);
        let (delta1_first, _) = measure_insert(1, false);
        let (delta16, _) = measure_insert(16, true);

        let retract1 = best_of(repeats, || {
            let (mut session, ids) = materialized(false);
            assert_eq!(session.retract_facts(&ids[..1]), 1);
            let start = Instant::now();
            let result = session.run_incremental().expect("retraction runs");
            let elapsed = start.elapsed();
            // Dropping edge (0, 1) removes exactly the `edges` paths that
            // started at node 0.
            assert_eq!(result.len("path"), edges * (edges + 1) / 2 - edges);
            elapsed
        });

        rows.push(Row {
            edges,
            path_tuples: edges * (edges + 1) / 2,
            from_scratch,
            scratch_iterations,
            delta1,
            delta1_iterations,
            delta1_first,
            delta16,
            retract1,
        });
    }

    println!(
        "{:>8} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "edges", "paths", "scratch(ms)", "Δ=1(ms)", "first Δ=1", "Δ=16(ms)", "retract", "factor"
    );
    for r in &rows {
        println!(
            "{:>8} {:>12} {:>12.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>8.1}x",
            r.edges,
            r.path_tuples,
            r.from_scratch.as_secs_f64() * 1e3,
            r.delta1.as_secs_f64() * 1e3,
            r.delta1_first.as_secs_f64() * 1e3,
            r.delta16.as_secs_f64() * 1e3,
            r.retract1.as_secs_f64() * 1e3,
            r.scratch_over_delta1(),
        );
    }

    let largest = rows.last().expect("at least one size");
    let largest_factor = largest.scratch_over_delta1();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let delta_gate = match assert_delta_factor {
        None => "not-requested",
        Some(required) if largest_factor < required => {
            eprintln!(
                "FAIL: |Δ|=1 update on {} edges is only {largest_factor:.2}x cheaper than \
                 from-scratch, below required {required:.2}x",
                largest.edges
            );
            "failed"
        }
        Some(required) => {
            println!(
                "|Δ|=1 on {} edges: {largest_factor:.2}x cheaper than from-scratch \
                 (required ≥ {required:.2}x)",
                largest.edges
            );
            "passed"
        }
    };

    let rows_json = rows
        .iter()
        .map(Row::json)
        .collect::<Vec<_>>()
        .join(",\n    ");
    let json = format!(
        "{{\n  \"workload\": \"chain-transitive-closure\",\n  \"provenance\": \"unit\",\n  \
         \"quick_mode\": {quick},\n  \"cpus\": {cpus},\n  \"repeats\": {repeats},\n  \
         \"sizes\": [\n    {rows_json}\n  ],\n  \
         \"largest_scratch_over_delta1\": {largest_factor:.3},\n  \
         \"delta_factor_gate\": \"{delta_gate}\"\n}}\n",
    );
    let json = match lobster_bench::degraded_overwrite_warning(
        "BENCH_incremental.json",
        lobster_bench::ArtifactMode::current(quick),
    ) {
        Some(note) => {
            let mut doc =
                lobster_serve::json::parse(&json).expect("incremental artifact is valid JSON");
            doc.set(
                "mode_warning",
                lobster_serve::json::Json::from(note.as_str()),
            );
            doc.to_pretty() + "\n"
        }
        None => json,
    };
    std::fs::write("BENCH_incremental.json", &json).expect("write BENCH_incremental.json");
    println!("\nwrote BENCH_incremental.json");

    if delta_gate == "failed" {
        std::process::exit(1);
    }
}
