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

/// Only what a query reads is compiled: no query reaches `back`, so its rule
/// and the stratum it alone fills are dropped. Every entry point runs the
/// strata of the program without it and outputs what that program does,
/// and a fact for `back` still validates and inserts.
#[test]
fn a_dead_stratum_is_dropped_at_compile() {
    let dead = format!("{TC}\n    rel back(y, x) = path(x, y)");
    let mut facts = FactSet::new();
    for (x, y) in [(0u32, 1u32), (1, 2), (2, 0), (2, 3)] {
        facts.add("edge", &[Value::U32(x), Value::U32(y)], Some(0.5));
    }
    let mut last = FactSet::new();
    last.add("edge", &[Value::U32(3), Value::U32(4)], Some(0.5));
    let runs = |program: &Program| {
        let mut session = program.session();
        session.insert_facts(&facts).unwrap();
        let mut results = vec![session.run().unwrap()];
        results.extend(program.run_batch(std::slice::from_ref(&facts)).unwrap());
        results.push(session.run_incremental().unwrap());
        session.insert_facts(&last).unwrap();
        results.push(session.run_incremental().unwrap());
        results
    };
    for kind in ProvenanceKind::ALL {
        let [with, without] = [dead.as_str(), TC].map(|s| compile(s, kind, Default::default()));
        for (i, (a, b)) in runs(&with).iter().zip(&runs(&without)).enumerate() {
            assert_eq!(a.stats.strata, b.stats.strata, "{kind}, run {i}");
            assert_eq!(a.relation("path"), b.relation("path"), "{kind}, run {i}");
        }
        let mut session = with.session();
        let back = [Value::U32(1), Value::U32(0)];
        session.add_fact("back", &back, Some(0.5)).unwrap();
        assert!(session.run().unwrap().relation("path").is_empty());
    }
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

#[test]
fn a_run_counts_only_its_own_kernel_launches() {
    // Every session of a `Program` shares its device, so a run that read the
    // device-wide launch count would also count what other threads launched
    // meanwhile.
    let program = Arc::new(compile(TC, ProvenanceKind::Unit, RuntimeOptions::default()));
    let mut chain = FactSet::new();
    for i in 0..64u32 {
        chain.add("edge", &[Value::U32(i), Value::U32(i + 1)], None);
    }
    let launches = |program: &Program, facts: &FactSet| {
        let mut session = program.session();
        session.insert_facts(facts).unwrap();
        session.run().unwrap().stats.kernel_launches
    };
    let alone = launches(&program, &chain);
    assert!(alone > 0);

    let chain = Arc::new(chain);
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let (program, chain) = (Arc::clone(&program), Arc::clone(&chain));
            std::thread::spawn(move || {
                (0..10)
                    .map(|_| launches(&program, &chain))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for thread in threads {
        assert_eq!(thread.join().unwrap(), vec![alone; 10]);
    }
}
