//! Cross-provenance agreement tests for the compile-once API:
//! `Program::run_batch` over N samples must produce identical probabilities
//! and gradients to N sequential single-sample `Session::run`s, under every
//! provenance kind. (That each kind runs the semiring it names is pinned in
//! `lobster`'s own `engine` tests, against `lobster_apm` driven by hand.)

use lobster::{FactSet, Lobster, Program, ProvenanceKind, Value};
use lobster_workloads::{pathfinder, WorkloadFacts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const TC: &str = "type edge(x: u32, y: u32)
    rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
    query path";

/// Random per-sample chain-with-shortcuts fact sets over disjoint node
/// ranges, with probabilistic edges.
fn random_samples(n: usize, seed: u64) -> Vec<WorkloadFacts> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut facts = WorkloadFacts::new();
            let len = rng.gen_range(2u32..6);
            for i in 0..len {
                facts.push(
                    "edge",
                    vec![Value::U32(i), Value::U32(i + 1)],
                    Some(rng.gen_range(0.2..0.95)),
                );
            }
            // A certain (non-probabilistic) shortcut edge.
            facts.push("edge", vec![Value::U32(0), Value::U32(len)], None);
            facts
        })
        .collect()
}

/// Asserts that batched execution of `samples` matches sequential
/// single-sample sessions: same derived tuples, same probabilities, and —
/// after translating the batch's registry offsets — same gradients.
///
/// `run_batch` registers the program's inline facts first (ids
/// `0..inline`, identical in both runs), then sample k's facts after those
/// of samples 0..k — so a fact at position `i` of sample `k` has batch id
/// `inline + offset_k + i` where `offset_k` is the total fact count of the
/// preceding samples, while in a standalone session it has id `inline + i`.
fn assert_batch_matches_sequential(program: &Program, samples: &[WorkloadFacts]) {
    let fact_sets: Vec<FactSet> = samples.iter().map(WorkloadFacts::to_fact_set).collect();
    let batched = program.run_batch(&fact_sets).unwrap();
    assert_eq!(batched.len(), samples.len());
    let inline = program.session().fact_count() as u32;

    let mut offset = 0u32;
    for (k, sample) in samples.iter().enumerate() {
        let mut session = program.session();
        sample.add_to_session(&mut session).unwrap();
        let expected = session.run().unwrap();

        for rel in expected.relations() {
            assert_eq!(
                batched[k].len(rel),
                expected.len(rel),
                "sample {k}: tuple count of `{rel}` diverged"
            );
            for (tuple, out) in expected.relation(rel) {
                let batch_p = batched[k].probability(rel, tuple);
                assert!(
                    (batch_p - out.probability).abs() < 1e-9,
                    "sample {k}: probability of {tuple:?} diverged: {batch_p} vs {}",
                    out.probability
                );
                let batch_grad: BTreeMap<u32, f64> = batched[k]
                    .gradient(rel, tuple)
                    .into_iter()
                    .map(|(id, g)| {
                        // Inline (shared) facts keep their id; per-sample
                        // facts are shifted by the preceding samples' count.
                        if id.0 < inline {
                            (id.0, g)
                        } else {
                            (id.0 - offset, g)
                        }
                    })
                    .collect();
                let session_grad: BTreeMap<u32, f64> =
                    out.gradient.iter().map(|(id, g)| (id.0, *g)).collect();
                assert_eq!(
                    batch_grad.keys().collect::<Vec<_>>(),
                    session_grad.keys().collect::<Vec<_>>(),
                    "sample {k}: gradient support of {tuple:?} diverged"
                );
                for (fact, g) in &session_grad {
                    assert!(
                        (batch_grad[fact] - g).abs() < 1e-9,
                        "sample {k}: gradient of {tuple:?} w.r.t. fact {fact} diverged"
                    );
                }
            }
        }
        offset += sample.len() as u32;
    }
}

/// Batched TC against sequential TC for every kind `selected` picks.
fn assert_tc_batches_match(selected: impl Fn(ProvenanceKind) -> bool, seed: u64) {
    for kind in ProvenanceKind::ALL
        .into_iter()
        .filter(|kind| selected(*kind))
    {
        let program = Program::compile(TC, kind).unwrap();
        assert_batch_matches_sequential(&program, &random_samples(5, seed));
    }
}

// Between them the three tests below cover `ProvenanceKind::ALL`.

#[test]
fn batch_matches_sequential_for_discrete() {
    assert_tc_batches_match(|kind| !kind.is_probabilistic(), 1);
}

#[test]
fn batch_matches_sequential_for_addmultprob() {
    assert_tc_batches_match(
        |kind| kind.is_probabilistic() && !kind.is_differentiable(),
        2,
    );
}

#[test]
fn batch_matches_sequential_for_diff_top1() {
    assert_tc_batches_match(ProvenanceKind::is_differentiable, 3);
}

#[test]
fn batch_matches_sequential_with_inline_program_facts() {
    // The inline probabilistic fact is shared by every sample and keeps the
    // same registry id in batched and sequential runs, while per-sample
    // fact ids are offset — this exercises both id-translation branches.
    let program = Lobster::builder(
        "type edge(x: u32, y: u32)
         rel edge = {0.5::(0, 1)}
         rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
         query path",
    )
    .provenance(ProvenanceKind::DiffTop1Proof)
    .compile()
    .unwrap();
    assert_batch_matches_sequential(&program, &random_samples(3, 7));
}

#[test]
fn batch_matches_sequential_on_a_real_workload() {
    let mut rng = StdRng::seed_from_u64(4);
    let samples: Vec<WorkloadFacts> = (0..4)
        .map(|i| pathfinder::generate(4, i % 2 == 0, &mut rng).facts())
        .collect();
    let program = Lobster::builder(pathfinder::PROGRAM)
        .provenance(ProvenanceKind::DiffTop1Proof)
        .compile()
        .unwrap();
    assert_batch_matches_sequential(&program, &samples);
}
