//! Cross-crate integration tests: the full pipeline (Datalog front-end → RAM
//! → APM → simulated GPU) must agree with the independent tuple-at-a-time
//! baselines on every benchmark program, optimizations must not change
//! results, batching must equal per-sample execution, and provenance
//! gradients must match finite differences through a whole program.

use lobster::{Device, Lobster, ProvenanceKind, RuntimeOptions, Value};
use lobster_baselines::{ScallopEngine, SouffleEngine};
use lobster_provenance::MaxMinProb;
use lobster_workloads::{clutrr, cspa, graphs, hwf, pacman, pathfinder, psa, rna, WorkloadFacts};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Runs a discrete workload on Lobster and returns the full set of derived
/// tuples per queried relation.
fn lobster_discrete(program: &str, facts: &WorkloadFacts) -> BTreeSet<(String, Vec<u64>)> {
    let mut session = Lobster::builder(program)
        .provenance(ProvenanceKind::Unit)
        .compile()
        .unwrap()
        .session();
    facts.add_to_session(&mut session).unwrap();
    let result = session.run().unwrap();
    let mut out = BTreeSet::new();
    for rel in result.relations() {
        for (tuple, _) in result.relation(rel) {
            out.insert((rel.to_string(), tuple.iter().map(Value::encode).collect()));
        }
    }
    out
}

/// Runs the same workload on the Soufflé baseline restricted to the queried
/// relations.
fn souffle_discrete(
    program: &str,
    facts: &WorkloadFacts,
    queried: &[String],
) -> BTreeSet<(String, Vec<u64>)> {
    let compiled = lobster_datalog::parse(program).unwrap();
    let engine = SouffleEngine::new(2);
    let db = engine
        .run(&compiled.ram, &facts.encoded_discrete())
        .unwrap();
    let mut out = BTreeSet::new();
    for rel in queried {
        for row in db.get(rel).into_iter().flatten() {
            out.insert((rel.clone(), row.clone()));
        }
    }
    out
}

#[test]
fn discrete_benchmarks_agree_with_the_cpu_baseline() {
    let mut rng = StdRng::seed_from_u64(100);
    // Transitive closure on a scale-free graph.
    let tc_edges = graphs::scale_free(120, 2, &mut rng);
    let mut tc_facts = WorkloadFacts::new();
    for (a, b) in &tc_edges {
        tc_facts.push("edge", vec![Value::U32(*a), Value::U32(*b)], None);
    }
    // Same generation on a tree.
    let sg_edges = graphs::tree_with_cross_edges(80, 2, &mut rng);
    let mut sg_facts = WorkloadFacts::new();
    for (p, c) in &sg_edges {
        sg_facts.push("parent", vec![Value::U32(*p), Value::U32(*c)], None);
    }
    // CSPA on a small synthetic program.
    let cspa_sample = cspa::generate("httpd", 60, 2, &mut rng);

    let cases = [
        (
            graphs::TRANSITIVE_CLOSURE,
            tc_facts,
            vec!["path".to_string()],
        ),
        (graphs::SAME_GENERATION, sg_facts, vec!["sg".to_string()]),
        (
            cspa::PROGRAM,
            cspa_sample.facts,
            vec![
                "value_flow".to_string(),
                "value_alias".to_string(),
                "memory_alias".to_string(),
            ],
        ),
    ];
    for (program, facts, queried) in cases {
        let lobster = lobster_discrete(program, &facts);
        let baseline = souffle_discrete(program, &facts, &queried);
        assert_eq!(lobster, baseline, "engines disagree on {program:.40}");
    }
}

#[test]
fn probabilistic_benchmarks_agree_with_scallop_on_weights() {
    let mut rng = StdRng::seed_from_u64(101);
    let sample = psa::generate("sunflow-core", 100, 3, &mut rng);
    // Lobster.
    let mut session = Lobster::builder(psa::PROGRAM)
        .provenance(ProvenanceKind::MaxMinProb)
        .compile()
        .unwrap()
        .session();
    sample.facts.add_to_session(&mut session).unwrap();
    let result = session.run().unwrap();
    // Scallop baseline with the same provenance.
    let prov = MaxMinProb::new();
    let compiled = lobster_datalog::parse(psa::PROGRAM).unwrap();
    let facts: Vec<(String, Vec<u64>, f64)> = sample.facts.encoded_probabilistic();
    let tagged: Vec<(String, Vec<u64>, f64)> = facts
        .iter()
        .map(|(r, t, p)| (r.clone(), t.clone(), *p))
        .collect();
    let engine = ScallopEngine::new(prov);
    let db = engine.run(&compiled.ram, &tagged).unwrap();

    // Every alarm derived by Lobster must exist in the baseline with the same
    // max-min severity (and vice versa).
    let lobster_alarms: Vec<(Vec<u64>, f64)> = result
        .relation("alarm")
        .iter()
        .map(|(t, o)| (t.iter().map(Value::encode).collect(), o.probability))
        .collect();
    let baseline_alarms = &db["alarm"];
    assert_eq!(lobster_alarms.len(), baseline_alarms.len());
    for (tuple, severity) in &lobster_alarms {
        let baseline_severity = baseline_alarms
            .get(tuple)
            .expect("alarm missing from baseline");
        assert!(
            (severity - baseline_severity).abs() < 1e-9,
            "severity mismatch for {tuple:?}: {severity} vs {baseline_severity}"
        );
    }
}

#[test]
fn every_benchmark_program_runs_end_to_end() {
    let mut rng = StdRng::seed_from_u64(102);
    // Differentiable tasks.
    let pf = pathfinder::generate(5, true, &mut rng);
    let mut session = Lobster::builder(pathfinder::PROGRAM)
        .provenance(ProvenanceKind::DiffTop1Proof)
        .compile()
        .unwrap()
        .session();
    pf.facts().add_to_session(&mut session).unwrap();
    assert!(
        session
            .run()
            .unwrap()
            .probability("endpoints_connected", &[])
            > 0.0
    );

    let pm = pacman::generate(5, &mut rng);
    let mut session = Lobster::builder(pacman::PROGRAM)
        .provenance(ProvenanceKind::DiffTop1Proof)
        .compile()
        .unwrap()
        .session();
    pm.facts().add_to_session(&mut session).unwrap();
    assert!(!session.run().unwrap().relation("action").is_empty());

    let formula = hwf::generate(3, &mut rng);
    let mut session = Lobster::builder(hwf::PROGRAM)
        .provenance(ProvenanceKind::DiffTop1Proof)
        .compile()
        .unwrap()
        .session();
    formula.facts().add_to_session(&mut session).unwrap();
    assert!(!session.run().unwrap().relation("result").is_empty());

    let kin = clutrr::generate(3, &mut rng);
    let mut session = Lobster::builder(clutrr::PROGRAM)
        .provenance(ProvenanceKind::DiffTop1Proof)
        .compile()
        .unwrap()
        .session();
    kin.facts().add_to_session(&mut session).unwrap();
    session.run().unwrap();

    // Probabilistic tasks.
    let seq = rna::generate(30, &mut rng);
    let mut session = Lobster::builder(rna::PROGRAM)
        .provenance(ProvenanceKind::Top1Proof)
        .compile()
        .unwrap()
        .session();
    seq.facts().add_to_session(&mut session).unwrap();
    session.run().unwrap();
}

#[test]
fn optimization_toggles_preserve_results_on_a_real_workload() {
    let mut rng = StdRng::seed_from_u64(103);
    let edges = graphs::mesh(150, 3, &mut rng);
    let mut facts = WorkloadFacts::new();
    for (a, b) in &edges {
        facts.push("edge", vec![Value::U32(*a), Value::U32(*b)], None);
    }
    let mut reference: Option<BTreeSet<(String, Vec<u64>)>> = None;
    // The four cells of Figure 10: None, Static, Alloc, Both.
    for options in [
        RuntimeOptions::unoptimized(),
        RuntimeOptions::unoptimized().with_static_registers(true),
        RuntimeOptions::unoptimized().with_buffer_reuse(true),
        RuntimeOptions::optimized(),
    ] {
        let mut session = Lobster::builder(graphs::TRANSITIVE_CLOSURE)
            .options(options)
            .device(Device::sequential())
            .provenance(ProvenanceKind::Unit)
            .compile()
            .unwrap()
            .session();
        facts.add_to_session(&mut session).unwrap();
        let result = session.run().unwrap();
        let tuples: BTreeSet<(String, Vec<u64>)> = result
            .relation("path")
            .iter()
            .map(|(t, _)| ("path".to_string(), t.iter().map(Value::encode).collect()))
            .collect();
        match &reference {
            None => reference = Some(tuples),
            Some(expected) => assert_eq!(&tuples, expected),
        }
    }
}

#[test]
fn batched_execution_matches_per_sample_execution() {
    let mut rng = StdRng::seed_from_u64(104);
    let samples: Vec<_> = (0..4)
        .map(|i| pathfinder::generate(4, i % 2 == 0, &mut rng))
        .collect();
    let program = Lobster::builder(pathfinder::PROGRAM)
        .provenance(ProvenanceKind::Unit)
        .compile()
        .unwrap();
    let fact_sets: Vec<_> = samples.iter().map(|s| s.facts().to_fact_set()).collect();
    let batched = program.run_batch(&fact_sets).unwrap();
    for (i, sample) in samples.iter().enumerate() {
        let mut single = program.session();
        sample.facts().add_to_session(&mut single).unwrap();
        let expected = single.run().unwrap();
        assert_eq!(
            batched[i].len("endpoints_connected"),
            expected.len("endpoints_connected"),
            "sample {i} diverged between batched and per-sample execution"
        );
    }
}

#[test]
fn gradients_match_finite_differences_through_a_whole_program() {
    // A 3-edge chain: P(connected) = p0 * p1 * p2 under diff-top-1-proofs.
    let program = Lobster::builder(pathfinder::PROGRAM)
        .provenance(ProvenanceKind::DiffTop1Proof)
        .compile()
        .unwrap();
    let mut session = program.session();
    let probs = [0.9, 0.6, 0.7];
    let mut ids = Vec::new();
    for (i, p) in probs.iter().enumerate() {
        let id = session
            .add_fact(
                "edge",
                &[Value::U32(i as u32), Value::U32(i as u32 + 1)],
                Some(*p),
            )
            .unwrap();
        ids.push(id);
    }
    session
        .add_fact("is_endpoint", &[Value::U32(0)], None)
        .unwrap();
    session
        .add_fact("is_endpoint", &[Value::U32(3)], None)
        .unwrap();
    let base = session.run().unwrap();
    let p0 = base.probability("endpoints_connected", &[]);
    let grad: std::collections::HashMap<_, _> = base
        .gradient("endpoints_connected", &[])
        .into_iter()
        .collect();
    let eps = 1e-5;
    for (k, id) in ids.iter().enumerate() {
        session.set_fact_probability(*id, probs[k] + eps);
        let p_plus = session
            .run()
            .unwrap()
            .probability("endpoints_connected", &[]);
        session.set_fact_probability(*id, probs[k]);
        let numeric = (p_plus - p0) / eps;
        let analytic = grad.get(id).copied().unwrap_or(0.0);
        assert!(
            (numeric - analytic).abs() < 1e-3,
            "gradient mismatch for fact {k}: analytic {analytic}, numeric {numeric}"
        );
    }
}
