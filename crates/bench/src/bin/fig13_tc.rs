//! Figure 13: speedup over Soufflé on Transitive Closure for Lobster and the
//! FVLog stand-in across twelve graphs.
//!
//! Run with `cargo run -p lobster-bench --release --bin fig13_tc`.

use lobster::{Device, Lobster, ProvenanceKind, Value};
use lobster_baselines::FvlogEngine;
use lobster_bench::{print_header, quick_mode, run_lobster, run_souffle, time_it, Outcome};
use lobster_workloads::graphs::{self, NamedGraph};
use lobster_workloads::WorkloadFacts;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn edge_facts(edges: &[(u32, u32)]) -> WorkloadFacts {
    let mut facts = WorkloadFacts::new();
    for &(a, b) in edges {
        facts.push("edge", vec![Value::U32(a), Value::U32(b)], None);
    }
    facts
}

fn main() {
    print_header(
        "Figure 13 — Transitive Closure, speedup over Soufflé",
        "paper: Lobster consistently beats Soufflé (up to ~80x) and often beats FVLog",
    );
    let mut rng = StdRng::seed_from_u64(13);
    let program = Lobster::builder(graphs::TRANSITIVE_CLOSURE)
        .provenance(ProvenanceKind::Unit)
        .compile()
        .expect("program compiles");
    println!(
        "{:<16} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "graph", "edges", "souffle (s)", "lobster (s)", "fvlog (s)", "lobster spd", "fvlog spd"
    );
    for graph in graphs::FIG13_GRAPHS {
        let graph = if quick_mode() {
            NamedGraph {
                nodes: graph.nodes / 4,
                ..graph
            }
        } else {
            graph
        };
        let edges = graph.edges(&mut rng);
        let facts = edge_facts(&edges);
        let discrete: Vec<(String, Vec<u64>)> = facts.encoded_discrete();

        let souffle = run_souffle(graphs::TRANSITIVE_CLOSURE, &discrete, None);
        let (lobster, _) = run_lobster(&program, &facts);
        let ram = lobster_datalog::parse(graphs::TRANSITIVE_CLOSURE)
            .expect("compiles")
            .ram;
        let fvlog_engine = FvlogEngine::new(Device::default());
        let (fvlog_result, fvlog_time) = time_it(|| fvlog_engine.run(&ram, &discrete));
        let fvlog = match fvlog_result {
            Ok(_) => Outcome::Ok(fvlog_time),
            Err(_) => Outcome::Oom,
        };
        let spd = |system: &Outcome| match (souffle.seconds(), system.seconds()) {
            (Some(b), Some(s)) => format!("{:.2}x", b / s.max(1e-9)),
            _ => "-".to_string(),
        };
        println!(
            "{:<16} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
            graph.name,
            edges.len(),
            souffle.cell(),
            lobster.cell(),
            fvlog.cell(),
            spd(&lobster),
            spd(&fvlog)
        );
    }
}
