//! Criterion ablation benchmarks: the optimizations of Section 4 (static
//! registers, buffer reuse) measured on a transitive-closure fix point, and
//! Lobster versus the tuple-at-a-time Scallop baseline on the same input.

use criterion::{criterion_group, criterion_main, Criterion};
use lobster::{Lobster, Program, ProvenanceKind, RuntimeOptions, Value};
use lobster_baselines::ScallopEngine;
use lobster_provenance::Unit;
use lobster_workloads::graphs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn chain_and_shortcut_edges(n: u32) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(42);
    graphs::mesh(n, 3, &mut rng)
}

fn compile_tc(options: RuntimeOptions) -> Program {
    Lobster::builder(graphs::TRANSITIVE_CLOSURE)
        .options(options)
        .provenance(ProvenanceKind::Unit)
        .compile()
        .expect("program compiles")
}

fn run_lobster_tc(program: &Program, edges: &[(u32, u32)]) {
    let mut session = program.session();
    for &(a, b) in edges {
        session
            .add_fact("edge", &[Value::U32(a), Value::U32(b)], None)
            .expect("valid fact");
    }
    session.run().expect("run succeeds");
}

fn bench_optimizations(c: &mut Criterion) {
    let edges = chain_and_shortcut_edges(400);
    let mut group = c.benchmark_group("tc_optimizations");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    let configs = [
        ("both", RuntimeOptions::optimized()),
        (
            "no_static_registers",
            RuntimeOptions::optimized().with_static_registers(false),
        ),
        (
            "no_buffer_reuse",
            RuntimeOptions::optimized().with_buffer_reuse(false),
        ),
        ("none", RuntimeOptions::unoptimized()),
    ];
    for (label, options) in configs {
        let program = compile_tc(options);
        group.bench_function(label, |b| b.iter(|| run_lobster_tc(&program, &edges)));
    }
    group.finish();
}

fn bench_vs_scallop(c: &mut Criterion) {
    let edges = chain_and_shortcut_edges(250);
    let ram = lobster_datalog::parse(graphs::TRANSITIVE_CLOSURE)
        .expect("compiles")
        .ram;
    let facts: Vec<(String, Vec<u64>, ())> = edges
        .iter()
        .map(|&(a, b)| ("edge".to_string(), vec![u64::from(a), u64::from(b)], ()))
        .collect();
    let mut group = c.benchmark_group("tc_engines");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    let program = compile_tc(RuntimeOptions::optimized());
    group.bench_function("lobster", |b| b.iter(|| run_lobster_tc(&program, &edges)));
    group.bench_function("scallop_baseline", |b| {
        let engine = ScallopEngine::new(Unit::new());
        b.iter(|| engine.run(&ram, &facts).expect("baseline run succeeds"))
    });
    group.finish();
}

criterion_group!(ablation_benches, bench_optimizations, bench_vs_scallop);
criterion_main!(ablation_benches);
