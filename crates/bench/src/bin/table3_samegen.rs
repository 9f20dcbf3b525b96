//! Table 3: runtime of Lobster versus FVLog on the Same Generation task,
//! including the out-of-memory entries produced by the device memory budget.
//!
//! Run with `cargo run -p lobster-bench --release --bin table3_samegen`.

use lobster::{Device, DeviceConfig, Lobster, ProvenanceKind, Value};
use lobster_baselines::FvlogEngine;
use lobster_bench::{print_header, quick_mode, time_it, Outcome};
use lobster_workloads::graphs::{self, NamedGraph};
use lobster_workloads::WorkloadFacts;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Simulated device memory budget. Same Generation on dense graphs produces
/// quadratic intermediate results, so some inputs exceed the budget — the OOM
/// entries of the paper's Table 3.
fn budget() -> usize {
    if quick_mode() {
        64 << 20
    } else {
        256 << 20
    }
}

fn main() {
    print_header(
        "Table 3 — Same Generation runtime (seconds)",
        "paper: Lobster is at least 2x faster than FVLog per dataset; both systems OOM on some inputs",
    );
    let mut rng = StdRng::seed_from_u64(3);
    println!(
        "{:<16} {:>8} {:>12} {:>12}",
        "dataset", "edges", "lobster (s)", "fvlog (s)"
    );
    for graph in graphs::TABLE3_GRAPHS {
        let graph = if quick_mode() {
            NamedGraph {
                nodes: graph.nodes / 3,
                ..graph
            }
        } else {
            graph
        };
        let edges = graph.edges(&mut rng);
        let mut facts = WorkloadFacts::new();
        for &(p, c) in &edges {
            facts.push("parent", vec![Value::U32(p), Value::U32(c)], None);
        }
        let device_config = DeviceConfig {
            memory_limit: Some(budget()),
            ..DeviceConfig::default()
        };

        // Lobster with the full optimization set and a budgeted device.
        let program = Lobster::builder(graphs::SAME_GENERATION)
            .device(Device::new(device_config.clone()))
            .provenance(ProvenanceKind::Unit)
            .compile()
            .expect("program compiles");
        let mut session = program.session();
        facts.add_to_session(&mut session).expect("facts load");
        let (lobster_result, lobster_time) = time_it(|| session.run());
        let lobster = match lobster_result {
            Ok(_) => Outcome::Ok(lobster_time),
            Err(_) => Outcome::Oom,
        };

        // FVLog: same device budget, no APM optimizations.
        let ram = lobster_datalog::parse(graphs::SAME_GENERATION)
            .expect("compiles")
            .ram;
        let fvlog_engine = FvlogEngine::new(Device::new(device_config));
        let discrete = facts.encoded_discrete();
        let (fvlog_result, fvlog_time) = time_it(|| fvlog_engine.run(&ram, &discrete));
        let fvlog = match fvlog_result {
            Ok(_) => Outcome::Ok(fvlog_time),
            Err(_) => Outcome::Oom,
        };

        println!(
            "{:<16} {:>8} {:>12} {:>12}",
            graph.name,
            edges.len(),
            lobster.cell(),
            fvlog.cell()
        );
    }
}
