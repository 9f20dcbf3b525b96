//! Incremental-maintenance differential suite: after every step of a random
//! insert/retract/reweight trace, `Session::run_incremental` must be
//! bit-identical — tuples, probabilities, proofs-through-gradients — to a
//! from-scratch `Session::run` on the very same session. The same session is
//! deliberately the reference: retraction burns fact ids without reusing
//! them, so both paths see identical ids and identical tie-breaks.
//!
//! Like the other differential suites in this crate, randomness comes from a
//! seeded stream of cases; failures print the seed so a trace can be
//! replayed.

use lobster::{
    Device, DeviceConfig, FactSet, Lobster, Program, ProvenanceKind, RuntimeOptions, Session, Value,
};
use lobster_provenance::InputFactId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TC: &str = "type edge(x: u32, y: u32)
    rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
    query path";

/// The three reasoning modes the tentpole demands (probabilities, proofs,
/// gradients). `Unit` — the tuple-level delta path — is exercised separately.
const KINDS: [ProvenanceKind; 3] = [
    ProvenanceKind::AddMultProb,
    ProvenanceKind::Top1Proof,
    ProvenanceKind::DiffTop1Proof,
];

const PARALLELISM: [usize; 2] = [1, 4];

fn device(parallelism: usize) -> Device {
    Device::new(DeviceConfig {
        parallelism,
        ..DeviceConfig::default()
    })
}

/// Exact (bit-level) agreement: identical relation sets, identical tuple
/// order, identical probabilities, identical gradient vectors. No tolerance.
fn assert_identical(got: &lobster::RunResult, want: &lobster::RunResult, what: &str) {
    assert_eq!(got.relations(), want.relations(), "{what}: relation sets");
    for rel in want.relations() {
        assert_eq!(
            got.relation(rel),
            want.relation(rel),
            "{what}: `{rel}` rows (tuples, probabilities, or gradients) diverged"
        );
    }
}

/// One random trace step applied to a session over a small node domain (so
/// inserts collide with existing edges and retracts hit real support).
/// `inputs` are the binary relations an insert picks from.
fn random_step(
    session: &mut Session,
    inputs: &[&str],
    live: &mut Vec<InputFactId>,
    rng: &mut StdRng,
    probabilistic: bool,
) {
    let roll: f64 = rng.gen_range(0.0f64..1.0);
    if roll < 0.55 || live.is_empty() {
        // Insert a small batch of random edges.
        let count = rng.gen_range(1usize..4);
        let mut facts = FactSet::new();
        for _ in 0..count {
            let relation = inputs[rng.gen_range(0..inputs.len())];
            let x = rng.gen_range(0u32..8);
            let y = rng.gen_range(0u32..8);
            let prob = probabilistic.then(|| rng.gen_range(0.05f64..1.0));
            facts.add(relation, &[Value::U32(x), Value::U32(y)], prob);
        }
        live.extend(session.insert_facts(&facts).unwrap());
    } else if roll < 0.85 {
        // Retract a random batch of previously inserted facts.
        let count = rng.gen_range(1usize..live.len().min(3) + 1);
        let mut ids = Vec::new();
        for _ in 0..count {
            ids.push(live.swap_remove(rng.gen_range(0..live.len())));
        }
        assert_eq!(session.retract_facts(&ids), ids.len());
    } else if probabilistic {
        // Reweight a surviving fact (a training-loop step).
        let id = live[rng.gen_range(0..live.len())];
        session.set_fact_probability(id, rng.gen_range(0.05f64..1.0));
    }
}

fn run_trace(kind: ProvenanceKind, parallelism: usize, seed: u64, steps: usize) {
    run_trace_over("TC", TC, &["edge"], kind, parallelism, seed, steps);
}

fn run_trace_over(
    name: &str,
    source: &str,
    inputs: &[&str],
    kind: ProvenanceKind,
    parallelism: usize,
    seed: u64,
    steps: usize,
) {
    let program = Lobster::builder(source)
        .device(device(parallelism))
        .provenance(kind)
        .compile()
        .unwrap();
    let mut session = program.session();
    let mut live: Vec<InputFactId> = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..steps {
        let probabilistic = kind.is_probabilistic();
        random_step(&mut session, inputs, &mut live, &mut rng, probabilistic);
        let incremental = session.run_incremental().unwrap();
        let scratch = session.run().unwrap();
        assert_identical(
            &incremental,
            &scratch,
            &format!("{name}, kind {kind}, parallelism {parallelism}, seed {seed:#x}, step {step}"),
        );
    }
}

#[test]
fn random_traces_stay_bit_identical_across_kinds_and_parallelism() {
    for kind in KINDS {
        for parallelism in PARALLELISM {
            for case in 0..3u64 {
                run_trace(kind, parallelism, 0xDE17A + case, 10);
            }
        }
    }
}

#[test]
fn unit_traces_exercise_the_tuple_level_delta_path() {
    // Insert-only Unit refreshes take the semi-naive tuple-level path
    // (delta-exact provenance); mixed traces fall back per step. Both must
    // agree with from-scratch.
    for parallelism in PARALLELISM {
        for case in 0..3u64 {
            run_trace(ProvenanceKind::Unit, parallelism, 0x0DD + case, 12);
        }
    }
}

#[test]
fn insert_only_trace_grows_a_materialized_chain() {
    // A pure insertion stream on the delta path: every step extends a chain
    // by one edge, which must re-derive exactly the new paths.
    let program = Lobster::builder(TC)
        .provenance(ProvenanceKind::Unit)
        .compile()
        .unwrap();
    let mut session = program.session();
    for i in 0..16u32 {
        let mut facts = FactSet::new();
        facts.add("edge", &[Value::U32(i), Value::U32(i + 1)], None);
        session.insert_facts(&facts).unwrap();
        let incremental = session.run_incremental().unwrap();
        let scratch = session.run().unwrap();
        assert_identical(&incremental, &scratch, &format!("chain step {i}"));
        let expected = ((i as usize + 1) * (i as usize + 2)) / 2;
        assert_eq!(incremental.len("path"), expected, "step {i}");
        if i > 0 {
            // Proof the tuple-level path ran: a from-scratch fix point needs
            // one iteration per chain hop, while the delta drains in a
            // handful regardless of |DB|.
            assert!(
                incremental.stats.iterations < scratch.stats.iterations,
                "step {i}: delta took {} iterations, scratch {}",
                incremental.stats.iterations,
                scratch.stats.iterations
            );
            assert!(
                incremental.stats.iterations <= 4,
                "step {i}: delta frontier did not drain quickly ({} iterations)",
                incremental.stats.iterations
            );
        }
    }
}

#[test]
fn appending_an_edge_derives_each_new_path_once() {
    // Counters, not clocks: the edge `n -> n+1` gives the chain `n + 1` new
    // paths, all from the one join of Δ`edge` with the old `path` (and the
    // base rule) in iteration 0; iteration 1 finds nothing to extend them
    // with and stages nothing. Re-running the Δ`edge` variant there would
    // stage all of them again — 2(n + 1) candidates for n + 1 facts. And
    // the old table is rewritten once, by the fold that ends the refresh.
    let program = Lobster::builder(TC)
        .provenance(ProvenanceKind::Unit)
        .compile()
        .unwrap();
    for n in [64u32, 512] {
        let mut session = program.session();
        session
            .insert_facts(&facts_of((0..n).map(|i| ("edge", i, i + 1))))
            .unwrap();
        session.run_incremental().unwrap();
        session
            .insert_facts(&facts_of([("edge", n, n + 1)]))
            .unwrap();
        let stats = session.run_incremental().unwrap().stats;
        let new_paths = n as usize + 1;
        assert_eq!(stats.iterations, 2, "{n} edges");
        assert_eq!(stats.facts_produced, new_paths, "{n} edges");
        assert_eq!(stats.candidate_rows, new_paths, "{n} edges");
        let (old_edges, old_paths) = (n as usize, (n * (n + 1) / 2) as usize);
        assert_eq!(
            stats.update_rows_written,
            (old_edges + 1) + (old_paths + new_paths),
            "{n} edges"
        );
    }
}

#[test]
fn a_fact_inserted_into_a_non_recursive_relation_recomputes_its_stratum() {
    // `both` is derived by a stratum that does not iterate, so it has no
    // tuple-level tier — and at rest it keeps its rows in `recent`, where a
    // seeded Δ would have to go. The insertion is a recompute.
    let program = Program::compile(
        "type a(x: u32)
         type b(x: u32)
         rel both(x) = a(x), b(x)
         rel reach(x) = both(x) or (reach(y) and a(y) and b(x))
         query both
         query reach",
        ProvenanceKind::Unit,
    )
    .unwrap();
    let mut session = program.session();
    let mut facts = FactSet::new();
    for x in 0..4u32 {
        facts.add("a", &[Value::U32(x)], None);
        facts.add("b", &[Value::U32(x + 2)], None);
    }
    session.insert_facts(&facts).unwrap();
    session.run_incremental().unwrap();
    let mut direct = FactSet::new();
    direct.add("both", &[Value::U32(9)], None);
    direct.add("a", &[Value::U32(9)], None);
    session.insert_facts(&direct).unwrap();
    let incremental = session.run_incremental().unwrap();
    assert_identical(&incremental, &session.run().unwrap(), "direct insert");
    assert!(incremental.contains("both", &[Value::U32(9)]));
}

// ---------------------------------------------------------------------------
// Program shapes. The delta compile ranks a rule's own leaves before its
// changed-input leaves and runs the input-`recent` variants once; whether
// that is complete depends on where the changed input sits in the rule, how
// many there are, and what else is recursive — so every shape below runs the
// same differential, `unit` on the tuple-level tier and the other kinds on
// the recompute tier.
// ---------------------------------------------------------------------------

/// One program shape: its source, the binary relations a random step inserts
/// into, and a deep instance — base facts whose fix point needs many
/// iterations, and a last insertion that a delta run settles in a few.
struct Shape {
    name: &'static str,
    source: &'static str,
    inputs: &'static [&'static str],
    deep: fn() -> (FactSet, FactSet),
}

fn facts_of(rows: impl IntoIterator<Item = (&'static str, u32, u32)>) -> FactSet {
    let mut facts = FactSet::new();
    for (relation, x, y) in rows {
        facts.add(relation, &[Value::U32(x), Value::U32(y)], None);
    }
    facts
}

/// A 40-edge chain of `edge`s from node 1, and the edge that extends it at
/// the far end — or at the front, for a rule that recurses on the right of
/// `edge`: either way the new edge's paths come from one join of Δ`edge`
/// with the old fix point.
fn chain_and_one_more(in_front: bool) -> (FactSet, FactSet) {
    let one_more = if in_front { (0, 1) } else { (41, 42) };
    (
        facts_of((1..41).map(|i| ("edge", i, i + 1))),
        facts_of([("edge", one_more.0, one_more.1)]),
    )
}

const SHAPES: [Shape; 7] = [
    Shape {
        name: "left-leaf TC",
        source: "type edge(x: u32, y: u32)
            rel path(x, y) = edge(x, y) or (edge(x, z) and path(z, y))
            query path",
        inputs: &["edge"],
        deep: || chain_and_one_more(true),
    },
    Shape {
        name: "non-linear TC",
        source: "type edge(x: u32, y: u32)
            rel path(x, y) = edge(x, y) or (path(x, z) and path(z, y))
            query path",
        inputs: &["edge"],
        // Path doubling closes 64 edges in nine iterations; the edge that
        // extends the chain needs three.
        deep: || {
            (
                facts_of((0..64).map(|i| ("edge", i, i + 1))),
                facts_of([("edge", 64, 65)]),
            )
        },
    },
    Shape {
        name: "two changed inputs in one rule",
        source: "type a(x: u32, y: u32)
            type b(x: u32, y: u32)
            rel reach(x, y) = a(x, y) or (reach(x, z) and b(z, w) and a(w, y))
            query reach",
        inputs: &["a", "b"],
        // a, b, a, b, … along a chain; the last step adds a `b` and an `a`
        // together, and the new `reach` rows need both.
        deep: || {
            (
                facts_of((0..40).map(|i| (if i % 2 == 0 { "a" } else { "b" }, i, i + 1))),
                facts_of([("b", 39, 40), ("a", 40, 41)]),
            )
        },
    },
    Shape {
        name: "mutual recursion",
        source: "type edge(x: u32, y: u32)
            rel odd(x, y) = edge(x, y) or (edge(x, z) and even(z, y))
            rel even(x, y) = edge(x, z) and odd(z, y)
            query odd
            query even",
        inputs: &["edge"],
        deep: || chain_and_one_more(true),
    },
    Shape {
        name: "same generation",
        source: "type parent(p: u32, c: u32)
            rel sg(x, y) = parent(p, x), parent(p, y), x != y
            rel sg(x, y) = parent(a, x), parent(b, y), sg(a, b)
            query sg",
        inputs: &["parent"],
        // A binary tree of six levels less its last leaf, then that leaf:
        // it is of one generation with every other leaf.
        deep: || {
            (
                facts_of((2..63).map(|c| ("parent", c / 2, c))),
                facts_of([("parent", 31, 63)]),
            )
        },
    },
    Shape {
        name: "facts inserted into an own relation",
        source: "type edge(x: u32, y: u32)
            rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
            query path",
        inputs: &["edge", "path"],
        // A `path` fact no edge supports, near the end of the chain.
        deep: || {
            (
                facts_of((0..40).map(|i| ("edge", i, i + 1))),
                facts_of([("path", 100, 38)]),
            )
        },
    },
    Shape {
        name: "a second recursive stratum reading the first's delta",
        source: "type edge(x: u32, y: u32)
            type hop(x: u32, y: u32)
            rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
            rel far(x, y) = path(x, y) or (far(x, z) and hop(z, w) and path(w, y))
            query path
            query far",
        inputs: &["edge", "hop"],
        deep: || {
            let (mut base, one_more) = chain_and_one_more(false);
            base.add("hop", &[Value::U32(20), Value::U32(1)], None);
            (base, one_more)
        },
    },
];

#[test]
fn every_program_shape_stays_bit_identical_on_both_tiers() {
    for shape in &SHAPES {
        for (kind, steps) in [(ProvenanceKind::Unit, 12)]
            .into_iter()
            .chain(KINDS.map(|kind| (kind, 8)))
        {
            for case in 0..3u64 {
                let parallelism = PARALLELISM[case as usize % 2];
                let seed = 0x5AA9E + case;
                run_trace_over(
                    shape.name,
                    shape.source,
                    shape.inputs,
                    kind,
                    parallelism,
                    seed,
                    steps,
                );
            }
        }
    }
}

#[test]
fn every_program_shape_takes_the_tuple_level_tier_on_an_insert() {
    // With and without the executor's two optimizations: a delta build makes
    // the index over a changed input a static register and its `all` load a
    // cached one, and neither may be what the result rests on.
    let options = [RuntimeOptions::default(), RuntimeOptions::unoptimized()];
    for (shape, options) in SHAPES
        .iter()
        .flat_map(|s| options.iter().map(move |o| (s, o)))
    {
        let program = Lobster::builder(shape.source)
            .options(options.clone())
            .provenance(ProvenanceKind::Unit)
            .compile()
            .unwrap();
        let mut session = program.session();
        let (base, next) = (shape.deep)();
        session.insert_facts(&base).unwrap();
        let before = session.run_incremental().unwrap();
        session.insert_facts(&next).unwrap();
        let incremental = session.run_incremental().unwrap();
        let scratch = session.run().unwrap();
        assert_identical(&incremental, &scratch, shape.name);
        let rows = |result: &lobster::RunResult| -> usize {
            result.relations().iter().map(|r| result.len(r)).sum()
        };
        assert!(
            rows(&incremental) > rows(&before),
            "{}: the insertion derived nothing",
            shape.name
        );
        // Proof the tuple-level tier ran and the recompute tier did not: the
        // fix point is deep, the delta's cone shallow.
        assert!(
            incremental.stats.iterations * 2 < scratch.stats.iterations,
            "{}: delta took {} iterations, scratch {}",
            shape.name,
            incremental.stats.iterations,
            scratch.stats.iterations
        );
    }
}

// ---------------------------------------------------------------------------
// Delta edge-case property tests (satellite): idempotence, no-op retracts,
// retract-then-reinsert, and the zero-kernel empty delta.
// ---------------------------------------------------------------------------

#[test]
fn double_insert_is_idempotent() {
    let program = Lobster::builder(TC)
        .provenance(ProvenanceKind::Unit)
        .compile()
        .unwrap();

    let mut once = program.session();
    let mut edge = FactSet::new();
    edge.add("edge", &[Value::U32(0), Value::U32(1)], None);
    once.insert_facts(&edge).unwrap();
    let want = once.run_incremental().unwrap();

    let mut twice = program.session();
    twice.insert_facts(&edge).unwrap();
    twice.run_incremental().unwrap();
    // Materialized state exists; the duplicate arrives as a delta.
    twice.insert_facts(&edge).unwrap();
    let got = twice.run_incremental().unwrap();

    assert_identical(&got, &want, "double insert");
    assert_identical(&got, &twice.run().unwrap(), "double insert vs scratch");
}

#[test]
fn retracting_a_nonexistent_fact_is_a_noop() {
    let program = Program::compile(TC, ProvenanceKind::AddMultProb).unwrap();
    let mut session = program.session();
    let mut facts = FactSet::new();
    facts.add("edge", &[Value::U32(0), Value::U32(1)], Some(0.5));
    let ids = session.insert_facts(&facts).unwrap();
    let before = session.run_incremental().unwrap();

    // An id that was never issued, then a double retract of a real id.
    assert_eq!(session.retract_facts(&[InputFactId(999)]), 0);
    let after = session.run_incremental().unwrap();
    assert_identical(&after, &before, "retract of unknown id");

    assert_eq!(session.retract_facts(&ids), 1);
    assert_eq!(session.retract_facts(&ids), 0, "second retract is a no-op");
    let empty = session.run_incremental().unwrap();
    assert_identical(&empty, &session.run().unwrap(), "after double retract");
    assert!(empty.is_empty("path"));
}

#[test]
fn retract_then_reinsert_restores_bit_identical_state() {
    let program = Program::compile(TC, ProvenanceKind::AddMultProb).unwrap();
    let mut session = program.session();
    let mut base = FactSet::new();
    base.add("edge", &[Value::U32(0), Value::U32(1)], Some(0.9));
    base.add("edge", &[Value::U32(1), Value::U32(2)], Some(0.5));
    session.insert_facts(&base).unwrap();
    let mut extra = FactSet::new();
    extra.add("edge", &[Value::U32(2), Value::U32(3)], Some(0.25));
    let extra_ids = session.insert_facts(&extra).unwrap();
    let original = session.run_incremental().unwrap();

    assert_eq!(session.retract_facts(&extra_ids), 1);
    session.run_incremental().unwrap();
    session.insert_facts(&extra).unwrap();
    let restored = session.run_incremental().unwrap();

    // AddMultProb outputs are id-free, so the restored state must match the
    // original bit for bit — and, as always, the from-scratch reference.
    assert_identical(&restored, &original, "retract-then-reinsert");
    assert_identical(&restored, &session.run().unwrap(), "vs scratch");
}

#[test]
fn empty_delta_launches_zero_kernels() {
    for kind in [ProvenanceKind::Unit, ProvenanceKind::DiffTop1Proof] {
        let program = Program::compile(TC, kind).unwrap();
        let mut session = program.session();
        let mut facts = FactSet::new();
        for i in 0..6u32 {
            facts.add(
                "edge",
                &[Value::U32(i), Value::U32(i + 1)],
                kind.is_probabilistic().then_some(0.5),
            );
        }
        session.insert_facts(&facts).unwrap();
        let first = session.run_incremental().unwrap();
        assert!(first.stats.kernel_launches > 0, "materializing run works");

        let before = program.device().stats().kernel_launches;
        let cached = session.run_incremental().unwrap();
        let after = program.device().stats().kernel_launches;
        assert_eq!(after, before, "kind {kind}: empty delta launched kernels");
        assert_eq!(cached.stats.kernel_launches, 0);
        assert_identical(&cached, &first, "kind {kind}: cached result");
    }
}

#[test]
fn prob_update_refresh_matches_scratch_and_keeps_gradient_ids() {
    // The training-loop pattern: reweight inputs between incremental runs.
    let program = Program::compile(TC, ProvenanceKind::DiffTop1Proof).unwrap();
    let mut session = program.session();
    let mut facts = FactSet::new();
    facts.add("edge", &[Value::U32(0), Value::U32(1)], Some(0.9));
    facts.add("edge", &[Value::U32(1), Value::U32(2)], Some(0.5));
    let ids = session.insert_facts(&facts).unwrap();
    session.run_incremental().unwrap();

    session.set_fact_probability(ids[1], 0.75);
    let refreshed = session.run_incremental().unwrap();
    assert_identical(&refreshed, &session.run().unwrap(), "after reweight");
    let target = [Value::U32(0), Value::U32(2)];
    assert!((refreshed.probability("path", &target) - 0.675).abs() < 1e-12);
    // Gradient ids survive the refresh: they still name the original facts.
    let grad = refreshed.gradient("path", &target);
    assert!(grad
        .iter()
        .any(|(id, g)| *id == ids[0] && (*g - 0.75).abs() < 1e-12));
    assert!(grad
        .iter()
        .any(|(id, g)| *id == ids[1] && (*g - 0.9).abs() < 1e-12));
}
