//! A `Program` compiles every stratum once, when it is built, and every
//! request runs those strata: the artifact holds exactly what the compiler
//! emits, a warm request compiles nothing (`ExecutionStats::strata_compiled`),
//! and one artifact shared by many threads answers each of them as a single
//! thread would, bit for bit.

use lobster::{FactSet, Lobster, Program, ProvenanceKind, RunResult, Value};
use lobster_apm::{compile_stratum_with_options, CompiledStratum, RuntimeOptions};
use lobster_workloads::{clutrr, cspa};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const TC: &str = "type edge(x: u32, y: u32)
    rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
    query path";

fn compile(source: &str, kind: ProvenanceKind, options: RuntimeOptions) -> Program {
    Lobster::builder(source)
        .options(options)
        .provenance(kind)
        .compile()
        .unwrap()
}

fn clutrr_samples(n: usize, seed: u64) -> Vec<FactSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| clutrr::generate(2 + i % 4, &mut rng).facts().to_fact_set())
        .collect()
}

#[test]
fn the_artifact_holds_what_the_compiler_emits() {
    for source in [TC, clutrr::PROGRAM, cspa::PROGRAM] {
        for options in [RuntimeOptions::default(), RuntimeOptions::unoptimized()] {
            let program = compile(source, ProvenanceKind::Unit, options.clone());
            let ram = program.ram();
            let emitted: Vec<CompiledStratum> = ram
                .strata
                .iter()
                .map(|stratum| compile_stratum_with_options(stratum, ram, &options))
                .collect();
            assert!(!emitted.is_empty());
            assert_eq!(program.compiled_strata(), emitted.as_slice());
        }
    }
}

#[test]
fn a_warm_request_compiles_nothing() {
    let program = compile(
        clutrr::PROGRAM,
        ProvenanceKind::DiffTop1Proof,
        RuntimeOptions::default(),
    );
    let samples = clutrr_samples(4, 11);

    let mut session = program.session();
    let ids = session.insert_facts(&samples[0]).unwrap();
    let run = session.run().unwrap();
    assert!(run.stats.strata > 0);
    assert_eq!(run.stats.strata_compiled, 0, "Session::run");

    for result in program.run_batch(&samples).unwrap() {
        assert!(result.stats.strata > 0);
        assert_eq!(result.stats.strata_compiled, 0, "run_batch");
    }

    let materialized = session.run_incremental().unwrap();
    assert_eq!(materialized.stats.strata_compiled, 0, "materialization");
    // A retraction under a proof semiring takes the recompute tier, which
    // reruns the program's own strata.
    session.retract_facts(&ids[..1]);
    let recomputed = session.run_incremental().unwrap();
    assert!(recomputed.stats.strata > 0);
    assert_eq!(recomputed.stats.strata_compiled, 0, "recompute tier");
}

#[test]
fn a_refresh_counts_what_it_compiles() {
    let program = compile(TC, ProvenanceKind::Unit, RuntimeOptions::default());
    let mut session = program.session();
    let mut base = FactSet::new();
    for i in 0..6u32 {
        base.add("edge", &[Value::U32(i), Value::U32(i + 1)], None);
    }
    let ids = session.insert_facts(&base).unwrap();
    assert_eq!(session.run_incremental().unwrap().stats.strata_compiled, 0);

    // An insertion compiles the one delta stratum it reaches.
    let mut more = FactSet::new();
    more.add("edge", &[Value::U32(6), Value::U32(7)], None);
    session.insert_facts(&more).unwrap();
    let inserted = session.run_incremental().unwrap();
    assert_eq!(inserted.stats.strata_compiled, 1);

    // A retraction compiles its passes: over-deletion, re-derivation, and
    // the delta stratum that takes back what was derived again.
    session.retract_facts(&ids[2..3]);
    let retracted = session.run_incremental().unwrap();
    assert!(retracted.stats.strata_compiled >= 1);
    assert_eq!(
        retracted.relation("path"),
        session.run().unwrap().relation("path")
    );
}

/// One output row: its relation, tuple, probability bits and gradient bits.
type RowBits = (String, Vec<Value>, u64, Vec<(u32, u64)>);

/// Every output row of `result`, bit for bit.
fn bits(result: &RunResult) -> Vec<RowBits> {
    let mut out = Vec::new();
    for relation in result.relations() {
        for (tuple, output) in result.relation(relation) {
            let gradient = output.gradient.iter().map(|(id, g)| (id.0, g.to_bits()));
            out.push((
                relation.to_string(),
                tuple.clone(),
                output.probability.to_bits(),
                gradient.collect(),
            ));
        }
    }
    out
}

#[test]
fn one_program_serves_many_threads_bit_identically() {
    let program = Arc::new(compile(
        clutrr::PROGRAM,
        ProvenanceKind::DiffTop1Proof,
        RuntimeOptions::default(),
    ));
    let samples = Arc::new(clutrr_samples(6, 29));
    let single = |program: &Program, samples: &[FactSet]| {
        let batched: Vec<_> = program
            .run_batch(samples)
            .unwrap()
            .iter()
            .map(bits)
            .collect();
        let sequential: Vec<_> = samples
            .iter()
            .map(|sample| {
                let mut session = program.session();
                session.insert_facts(sample).unwrap();
                bits(&session.run().unwrap())
            })
            .collect();
        (batched, sequential)
    };
    let expected = single(&program, &samples);
    assert!(expected.0.iter().flatten().any(|row| !row.3.is_empty()));

    let threads: Vec<_> = (0..4)
        .map(|_| {
            let (program, samples) = (Arc::clone(&program), Arc::clone(&samples));
            std::thread::spawn(move || (0..3).map(|_| single(&program, &samples)).collect())
        })
        .collect();
    for thread in threads {
        let rounds: Vec<_> = thread.join().unwrap();
        for round in rounds {
            assert_eq!(round, expected);
        }
    }
}
