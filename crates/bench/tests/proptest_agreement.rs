//! Property-based tests: on arbitrary random graphs the GPU-simulated
//! Lobster engine, the tuple-at-a-time Scallop baseline, and a direct
//! reference implementation must produce identical relations, and provenance
//! invariants must hold on arbitrary formula shapes.
//!
//! The original crates.io `proptest` dependency is unavailable in this
//! offline workspace, so each property is exercised over a seeded stream of
//! random cases instead of proptest strategies; failures print the seed of
//! the offending case so it can be replayed.

use lobster::{Program, ProvenanceKind, Value};
use lobster_baselines::ScallopEngine;
use lobster_provenance::{AddMultProb, DiffAddMultProb, InputFactId, MaxMinProb, Provenance, Unit};
use lobster_workloads::graphs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const CASES: u64 = 24;

/// Reference transitive closure by repeated squaring over a set.
fn reference_tc(edges: &[(u32, u32)]) -> BTreeSet<(u32, u32)> {
    let mut closure: BTreeSet<(u32, u32)> = edges.iter().copied().collect();
    loop {
        let mut added = Vec::new();
        for &(a, b) in &closure {
            for &(c, d) in &closure {
                if b == c && !closure.contains(&(a, d)) {
                    added.push((a, d));
                }
            }
        }
        if added.is_empty() {
            break;
        }
        closure.extend(added);
    }
    closure
}

#[test]
fn lobster_scallop_and_reference_agree_on_transitive_closure() {
    // Which tuples exist does not depend on the semiring when every fact is
    // certain, so every kind must derive the reference closure.
    let programs =
        ProvenanceKind::ALL.map(|kind| Program::compile(graphs::TRANSITIVE_CLOSURE, kind).unwrap());
    let compiled = lobster_datalog::parse(graphs::TRANSITIVE_CLOSURE).unwrap();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7C00 + case);
        let edges: Vec<(u32, u32)> = (0..rng.gen_range(1usize..40))
            .map(|_| (rng.gen_range(0u32..12), rng.gen_range(0u32..12)))
            .collect();
        let reference = reference_tc(&edges);

        for program in &programs {
            let mut session = program.session();
            for &(a, b) in &edges {
                session
                    .add_fact("edge", &[Value::U32(a), Value::U32(b)], None)
                    .unwrap();
            }
            let lobster: BTreeSet<(u32, u32)> = session
                .run()
                .unwrap()
                .relation("path")
                .iter()
                .map(|(t, _)| (t[0].as_u32().unwrap(), t[1].as_u32().unwrap()))
                .collect();
            let kind = program.kind();
            assert_eq!(
                lobster, reference,
                "case {case}: lobster ({kind}) vs reference"
            );
        }

        let facts: Vec<(String, Vec<u64>, ())> = edges
            .iter()
            .map(|&(a, b)| ("edge".to_string(), vec![u64::from(a), u64::from(b)], ()))
            .collect();
        let scallop = ScallopEngine::new(Unit::new())
            .run(&compiled.ram, &facts)
            .unwrap();
        let baseline: BTreeSet<(u32, u32)> = scallop["path"]
            .keys()
            .map(|t| (t[0] as u32, t[1] as u32))
            .collect();
        assert_eq!(baseline, reference, "case {case}: scallop vs reference");
    }
}

#[test]
fn max_min_path_probability_is_bottleneck_of_best_path() {
    // A single chain 0 -> 1 -> ... -> n with random edge probabilities: the
    // max-min probability of path(0, n) is the minimum edge probability.
    let program = Program::compile(graphs::TRANSITIVE_CLOSURE, ProvenanceKind::MaxMinProb).unwrap();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3A00 + case);
        let probs: Vec<f64> = (0..rng.gen_range(3usize..8))
            .map(|_| rng.gen_range(0.05..1.0))
            .collect();
        let mut session = program.session();
        for (i, p) in probs.iter().enumerate() {
            session
                .add_fact(
                    "edge",
                    &[Value::U32(i as u32), Value::U32(i as u32 + 1)],
                    Some(*p),
                )
                .unwrap();
        }
        let result = session.run().unwrap();
        let end = probs.len() as u32;
        let p = result.probability("path", &[Value::U32(0), Value::U32(end)]);
        let expected = probs.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            (p - expected).abs() < 1e-9,
            "case {case}: {p} vs {expected}"
        );
    }
}

#[test]
fn addmult_semiring_operations_stay_in_range() {
    let prov = AddMultProb::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xAD00 + case);
        let (a, b, c) = (
            rng.gen_range(0.0f64..1.0),
            rng.gen_range(0.0f64..1.0),
            rng.gen_range(0.0f64..1.0),
        );
        let combos = [
            prov.mul(&a, &b),
            prov.add(&a, &b),
            prov.add(&prov.mul(&a, &b), &c),
            prov.mul(&prov.add(&a, &b), &c),
        ];
        for value in combos {
            assert!(
                (0.0..=1.0).contains(&prov.weight(&value)),
                "case {case}: weight {} out of range",
                prov.weight(&value)
            );
        }
    }
}

#[test]
fn diff_addmult_gradients_match_finite_differences() {
    let prov = DiffAddMultProb::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD1F0 + case);
        let pa = rng.gen_range(0.05f64..0.95);
        let pb = rng.gen_range(0.05f64..0.95);
        let eval = |x: f64, y: f64| {
            let a = prov.input_tag(InputFactId(0), Some(x));
            let b = prov.input_tag(InputFactId(1), Some(y));
            prov.add(&prov.mul(&a, &b), &a)
        };
        let base = eval(pa, pb);
        let out = prov.output(&base);
        let eps = 1e-6;
        let da = (eval(pa + eps, pb).value - base.value) / eps;
        let analytic_a = out
            .gradient
            .iter()
            .find(|(f, _)| *f == InputFactId(0))
            .map(|(_, g)| *g)
            .unwrap_or(0.0);
        assert!(
            (da - analytic_a).abs() < 1e-3,
            "case {case}: {da} vs {analytic_a}"
        );
    }
}

#[test]
fn minmax_weight_is_monotone_in_inputs() {
    // Raising any input probability can never lower a max-min output.
    let prov = MaxMinProb::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3303 + case);
        let probs: Vec<f64> = (0..rng.gen_range(2usize..6))
            .map(|_| rng.gen_range(0.05..1.0))
            .collect();
        let bump = rng.gen_range(0.0f64..0.05);
        let folded = probs.iter().fold(prov.one(), |acc, p| prov.mul(&acc, p));
        let bumped: Vec<f64> = probs.iter().map(|p| (p + bump).min(1.0)).collect();
        let folded_bumped = bumped.iter().fold(prov.one(), |acc, p| prov.mul(&acc, p));
        assert!(
            prov.weight(&folded_bumped) + 1e-12 >= prov.weight(&folded),
            "case {case}: monotonicity violated"
        );
    }
}
