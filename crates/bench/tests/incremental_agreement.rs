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
    Device, DeviceConfig, FactSet, Lobster, Program, ProvenanceKind, RuntimeOptions, Session,
    SymbolTable, Value,
};
use lobster_provenance::InputFactId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

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
/// `inputs` are the binary relations an insert picks from, `node` the value
/// a node number is stored as.
fn random_step(
    session: &mut Session,
    inputs: &[&str],
    node: fn(u32) -> Value,
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
            facts.add(relation, &[node(x), node(y)], prob);
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
    let tc = Shape {
        name: "TC",
        source: TC,
        inputs: &["edge"],
        node: Value::U32,
        deep: || chain_and_one_more(false),
    };
    run_trace_over(&tc, kind, parallelism, seed, steps);
}

fn run_trace_over(
    shape: &Shape,
    kind: ProvenanceKind,
    parallelism: usize,
    seed: u64,
    steps: usize,
) {
    let Shape {
        name,
        source,
        inputs,
        node,
        ..
    } = *shape;
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
        random_step(
            &mut session,
            inputs,
            node,
            &mut live,
            &mut rng,
            probabilistic,
        );
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
    // Unit is delta-exact, so every step takes the tuple-level tier: an
    // insert the semi-naive delta path, a retraction delete/re-derive, a
    // mixed step both in one refresh. Each must agree with from-scratch.
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
fn a_fact_inserted_into_a_non_recursive_relation_is_refreshed_tuple_by_tuple() {
    // `both` is derived by a stratum that does not iterate, and rests as one
    // sorted table like every other relation: its asserted row is a Δ
    // seeded into it, and the strata it reaches are compiled for the delta
    // and run on the tuple-level tier.
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
    assert!(incremental.stats.strata_compiled > 0, "no delta compile");
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
/// into, the value a node number is stored as, and a deep instance — base
/// facts whose fix point needs many iterations, and a last insertion that a
/// delta run settles in a few.
struct Shape {
    name: &'static str,
    source: &'static str,
    inputs: &'static [&'static str],
    node: fn(u32) -> Value,
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

/// Node `i` of the symbol-keyed shape: the interned name `sym-node-{i}`. The
/// first call interns all 64 names in a scrambled order, so no node's id
/// follows its number, and a trace brings symbols to the session in the
/// order its random steps draw them.
fn sym_node(i: u32) -> Value {
    static IDS: OnceLock<Vec<u32>> = OnceLock::new();
    let ids = IDS.get_or_init(|| {
        let symbols = SymbolTable::global();
        let mut ids = vec![0; 64];
        for k in 0..64 {
            let i = (k * 37 + 11) % 64;
            ids[i] = symbols.intern(&format!("sym-node-{i:02}"));
        }
        ids
    });
    Value::Symbol(ids[i as usize])
}

/// [`chain_and_one_more`] over symbol nodes, extended at the far end.
fn symbol_chain_and_one_more() -> (FactSet, FactSet) {
    let edges = |from: std::ops::Range<u32>| {
        let mut facts = FactSet::new();
        for i in from {
            facts.add("edge", &[sym_node(i), sym_node(i + 1)], None);
        }
        facts
    };
    (edges(1..41), edges(41..42))
}

/// Node `i` of the `i64`-keyed shape: a word whose high and low bits are
/// both set, negative for the lower half of the nodes.
fn i64_node(i: u32) -> Value {
    Value::I64((i64::from(i) - 32) << 40 | i64::from(i))
}

/// A 64-edge chain of `i64` nodes and the edge that extends it at the far
/// end, as the non-linear TC shape's.
fn i64_chain_and_one_more() -> (FactSet, FactSet) {
    let edges = |from: std::ops::Range<u32>| {
        let mut facts = FactSet::new();
        for i in from {
            facts.add("edge", &[i64_node(i), i64_node(i + 1)], None);
        }
        facts
    };
    (edges(0..64), edges(64..65))
}

const SHAPES: [Shape; 10] = [
    Shape {
        name: "left-leaf TC",
        source: "type edge(x: u32, y: u32)
            rel path(x, y) = edge(x, y) or (edge(x, z) and path(z, y))
            query path",
        inputs: &["edge"],
        node: Value::U32,
        deep: || chain_and_one_more(true),
    },
    Shape {
        name: "non-linear TC",
        source: "type edge(x: u32, y: u32)
            rel path(x, y) = edge(x, y) or (path(x, z) and path(z, y))
            query path",
        inputs: &["edge"],
        node: Value::U32,
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
        node: Value::U32,
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
        node: Value::U32,
        deep: || chain_and_one_more(true),
    },
    Shape {
        name: "same generation",
        source: "type parent(p: u32, c: u32)
            rel sg(x, y) = parent(p, x), parent(p, y), x != y
            rel sg(x, y) = parent(a, x), parent(b, y), sg(a, b)
            query sg",
        inputs: &["parent"],
        node: Value::U32,
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
        node: Value::U32,
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
        node: Value::U32,
        deep: || {
            let (mut base, one_more) = chain_and_one_more(false);
            base.add("hop", &[Value::U32(20), Value::U32(1)], None);
            (base, one_more)
        },
    },
    Shape {
        name: "symbol-keyed TC with a symbol constant",
        source: "type edge(x: symbol, y: symbol)
            rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
            rel from_hub(y) = path(\"sym-node-03\", y)
            query path
            query from_hub",
        inputs: &["edge"],
        node: sym_node,
        deep: symbol_chain_and_one_more,
    },
    Shape {
        name: "a single-pass relation with facts of its own in a recursive join",
        source: "type edge(x: u32, y: u32)
            type hop(x: u32, y: u32)
            rel link(x, y) = hop(x, z) and hop(z, y)
            rel path(x, y) = edge(x, y) or (path(x, z) and link(z, y))
            query link
            query path",
        inputs: &["edge", "hop", "link"],
        node: Value::U32,
        // A chain of asserted `link`s that `path` walks from node 0, one
        // `link` a `hop` pair derives, and an edge near its far end.
        deep: || {
            let links = (1..41).map(|i| ("link", i, i + 1));
            let rest = [("edge", 0, 1), ("hop", 41, 50), ("hop", 50, 42)];
            (facts_of(links.chain(rest)), facts_of([("edge", 39, 40)]))
        },
    },
    Shape {
        name: "i64-keyed non-linear TC and siblings",
        source: "type edge(x: i64, y: i64)
            rel path(x, y) = edge(x, y) or (path(x, z) and path(z, y))
            rel sibling(x, y) = edge(p, x), edge(p, y), x != y
            query path
            query sibling",
        inputs: &["edge"],
        node: i64_node,
        deep: i64_chain_and_one_more,
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
                run_trace_over(shape, kind, parallelism, seed, steps);
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

        let before = program.device().metrics().get("kernel_launches");
        let cached = session.run_incremental().unwrap();
        let after = program.device().metrics().get("kernel_launches");
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

// ---------------------------------------------------------------------------
// Retraction at tuple level (delete/re-derive). Each case retracts under
// `unit` and must equal a from-scratch run bit for bit; the counters say
// the over-deletion and re-derivation ran, and how much they touched.
// ---------------------------------------------------------------------------

/// Materializes `source` over `base`, applies `change` and refreshes; returns
/// the refresh's statistics after checking it against a from-scratch run.
fn refresh_after(
    source: &str,
    base: &FactSet,
    change: impl FnOnce(&mut Session, &[InputFactId]),
) -> lobster::ExecutionStats {
    let program = Lobster::builder(source)
        .provenance(ProvenanceKind::Unit)
        .compile()
        .unwrap();
    let mut session = program.session();
    let ids = session.insert_facts(base).unwrap();
    session.run_incremental().unwrap();
    change(&mut session, &ids);
    let incremental = session.run_incremental().unwrap();
    assert_identical(&incremental, &session.run().unwrap(), source);
    incremental.stats
}

#[test]
fn a_cycle_fed_by_a_retracted_edge_loses_the_paths_only_the_edge_supported() {
    // 0 -> 1 feeds the cycle 1 <-> 2. Without it, `path(0, 1)` and
    // `path(0, 2)` still derive each other around the cycle — support with
    // no base, which over-deletion removes and re-derivation cannot bring
    // back.
    let base = facts_of([("edge", 0, 1), ("edge", 1, 2), ("edge", 2, 1)]);
    let stats = refresh_after(TC, &base, |session, ids| {
        assert_eq!(session.retract_facts(&ids[..1]), 1);
    });
    assert_eq!(stats.facts_over_deleted, 2);
    assert_eq!(stats.facts_rederived, 0);
}

#[test]
fn a_diamond_re_derives_what_its_other_side_supports() {
    // 0 -> {1, 2} -> 3 -> 4. Without 1 -> 3, node 1 reaches neither 3 nor
    // 4, while 0 still reaches both through 2.
    let base = facts_of([
        ("edge", 0, 1),
        ("edge", 1, 3),
        ("edge", 0, 2),
        ("edge", 2, 3),
        ("edge", 3, 4),
    ]);
    let stats = refresh_after(TC, &base, |session, ids| {
        assert_eq!(session.retract_facts(&ids[1..2]), 1);
    });
    assert_eq!(stats.facts_over_deleted, 4, "(1, 3) (1, 4) (0, 3) (0, 4)");
    assert_eq!(stats.facts_rederived, 2, "(0, 3) (0, 4)");
}

#[test]
fn a_tuple_asserted_twice_survives_the_retraction_of_one_copy() {
    let base = facts_of([("edge", 0, 1), ("edge", 1, 2), ("edge", 0, 1)]);
    let stats = refresh_after(TC, &base, |session, ids| {
        assert_eq!(session.retract_facts(&ids[2..]), 1);
    });
    assert_eq!(stats, lobster::ExecutionStats::default(), "nothing changed");
}

#[test]
fn a_tuple_both_asserted_and_derived_keeps_whichever_support_is_left() {
    let base = facts_of([("edge", 0, 1), ("edge", 1, 2), ("path", 0, 2)]);
    // The edges go: the asserted `path(0, 2)` stays, over-deleted first.
    let stats = refresh_after(TC, &base, |session, ids| {
        assert_eq!(session.retract_facts(&ids[1..2]), 1);
    });
    assert_eq!(stats.facts_over_deleted, 2, "(1, 2) (0, 2)");
    assert_eq!(stats.facts_rederived, 1, "(0, 2)");
    // The assertion goes: the edges still derive `path(0, 2)`.
    let stats = refresh_after(TC, &base, |session, ids| {
        assert_eq!(session.retract_facts(&ids[2..]), 1);
    });
    assert_eq!(stats.facts_over_deleted, 1);
    assert_eq!(stats.facts_rederived, 1);
}

#[test]
fn an_insert_and_a_retract_in_one_refresh() {
    let base = facts_of((0..6).map(|i| ("edge", i, i + 1)));
    let stats = refresh_after(TC, &base, |session, ids| {
        assert_eq!(session.retract_facts(&ids[2..3]), 1);
        session.insert_facts(&facts_of([("edge", 6, 7)])).unwrap();
    });
    // 2 -> 3 carried the paths from {0, 1, 2} to {3, …, 6}.
    assert_eq!(stats.facts_over_deleted, 12);
    assert_eq!(stats.facts_rederived, 0);
    // Over-deletion, re-derivation, and one seeded run that takes 6 -> 7
    // to the survivors: no recompute.
    assert_eq!(stats.strata, 3);
}

#[test]
fn a_second_recursive_stratum_over_the_retracted_relation() {
    let shape = SHAPES
        .iter()
        .find(|s| s.name.starts_with("a second recursive stratum"))
        .unwrap();
    let (mut base, _) = (shape.deep)();
    base.add("hop", &[Value::U32(30), Value::U32(10)], None);
    // `far` reads `path` twice, `hop` once: drop an edge mid-chain, then a
    // hop.
    let stats = refresh_after(shape.source, &base, |session, ids| {
        assert_eq!(session.retract_facts(&ids[25..26]), 1);
    });
    assert!(stats.facts_over_deleted > 0 && stats.facts_rederived > 0);
    let stats = refresh_after(shape.source, &base, |session, ids| {
        assert_eq!(session.retract_facts(&ids[ids.len() - 1..]), 1);
    });
    assert!(stats.facts_over_deleted > 0);
}

/// The forest of the repo benchmark's `incr_updates` workload, unshuffled:
/// 30 chains of 66 nodes with a skip edge `i -> i + 2` at every fourth node,
/// and 8 links, each from the tail of one chain to the node 6 from the end
/// of another, no chain used twice.
fn forest() -> (FactSet, Vec<FactSet>) {
    forest_of(30)
}

/// [`forest`] with `chains` chains and the same 8 links.
fn forest_of(chains: u32) -> (FactSet, Vec<FactSet>) {
    const LEN: u32 = 66;
    let node = |chain: u32, pos: u32| chain * LEN + pos;
    let mut edges = Vec::new();
    for chain in 0..chains {
        for pos in 0..LEN - 1 {
            edges.push(("edge", node(chain, pos), node(chain, pos + 1)));
            if pos % 4 == 0 && pos + 2 < LEN {
                edges.push(("edge", node(chain, pos), node(chain, pos + 2)));
            }
        }
    }
    let links = (0..8)
        .map(|k| facts_of([("edge", node(2 * k, LEN - 1), node(2 * k + 1, LEN - 6))]))
        .collect();
    (facts_of(edges), links)
}

#[test]
fn retracting_the_forest_links_touches_only_their_cone() {
    // Counters, not clocks. Each link gave every node of its source chain a
    // path to the last six nodes of its target: 66 × 6 rows, which is what
    // over-deletion must remove — all of them, nothing else — and nothing
    // comes back. The deletion's fix point follows the six nodes down the
    // target chain; one pass re-derives. A recompute of the stratum would
    // take ~50 iterations and stage more candidate rows than `path` holds.
    let program = Lobster::builder(TC)
        .provenance(ProvenanceKind::Unit)
        .compile()
        .unwrap();
    let mut session = program.session();
    let (base, links) = forest();
    session.insert_facts(&base).unwrap();
    let paths = session.run_incremental().unwrap().len("path");
    let mut ids = Vec::new();
    for link in &links {
        ids.extend(session.insert_facts(link).unwrap());
        session.run_incremental().unwrap();
    }
    assert_eq!(session.retract_facts(&ids), links.len());
    let retracted = session.run_incremental().unwrap();
    assert_identical(&retracted, &session.run().unwrap(), "forest");
    assert_eq!(retracted.len("path"), paths);
    let stats = &retracted.stats;
    assert_eq!(stats.facts_over_deleted, 8 * 66 * 6);
    assert_eq!(stats.facts_rederived, 0);
    assert!(stats.iterations <= 8, "{} iterations", stats.iterations);
    assert!(
        stats.candidate_rows < paths,
        "{} candidate rows against {paths} paths",
        stats.candidate_rows
    );
}

#[test]
fn an_insert_reads_no_more_rows_from_a_forest_twice_the_size() {
    // Counters, not clocks. Each link joins one new edge with the old
    // `path`: in the first iteration the rows ending at the link's source
    // are looked up in `path`'s order on its second column, and from then
    // on the frontier looks up the edges leaving its nodes. Neither read
    // depends on how many other chains the forest holds, so the same eight
    // inserts into 30 and into 60 chains read the same rows and stage the
    // same candidates — where loading `path` whole read all of it.
    let program = Lobster::builder(TC)
        .provenance(ProvenanceKind::Unit)
        .compile()
        .unwrap();
    let inserts = |chains: u32| {
        let mut session = program.session();
        let (base, links) = forest_of(chains);
        session.insert_facts(&base).unwrap();
        let paths = session.run_incremental().unwrap().len("path");
        let stats: Vec<(usize, usize)> = links
            .iter()
            .map(|link| {
                session.insert_facts(link).unwrap();
                let stats = session.run_incremental().unwrap().stats;
                (stats.rows_loaded, stats.candidate_rows)
            })
            .collect();
        (paths, stats)
    };
    let (small_paths, small) = inserts(30);
    let (big_paths, big) = inserts(60);
    assert_eq!(big_paths, 2 * small_paths);
    assert_eq!(small, big, "(rows loaded, candidate rows) per insert");
    for (loaded, candidates) in small {
        // One chain's worth of rows: the 65 paths into the link's source,
        // its 66 × 6 new paths as they are derived, and the edges they
        // meet.
        assert!(candidates > 66 * 6, "{candidates} candidate rows");
        assert!(loaded < 1_000, "{loaded} rows loaded of {small_paths}");
    }
}
