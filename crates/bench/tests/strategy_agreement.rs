//! Differential tests for the join strategy the engine picks from the
//! program alone, with no option to select it, and the invariants of the
//! one storage layout every program gets.
//!
//! * **join strategy** — a join compiles to the merge path where sort-order
//!   inference proves both inputs sorted on the key, and to the hash
//!   build+probe path everywhere else. It must be invisible in the results:
//!   with identical seeded inputs the planned build and the hash-only build
//!   reach *bit-identical* fix points — same tuples in the same stored
//!   order, same probability bits, same gradients, for every relation —
//!   across provenance kinds and device parallelism levels.
//! * **packed storage** — every relation is stored in packed columns, `u32`
//!   and `symbol` lanes 4 bytes wide (a symbol as its interner id), `i64`
//!   and `f64` lanes a whole word. On each workload, under four kinds, as
//!   `run_batch` and as `Session::run` execute it: the fix point at
//!   parallelism 1 equals the one at parallelism 4 bit for bit; every
//!   relation's rows strictly ascend in logical lexicographic order, the
//!   order one word per column would sort into; and the `unit` tuple set
//!   equals `ScallopEngine`'s, which keeps whole tuples in `BTreeMap`s — a
//!   storage reference that shares nothing with the packed layout.
//!   (`oracle_agreement` checks random programs against an oracle that
//!   shares no code with the engine.)
//!
//! There is no knob to flip, so each run is built here from `lobster_apm`'s
//! parts: `Database::from_plan`, the planned compile entry or the hidden
//! `compile_stratum_hash_only` hook, and `Executor::run_stratum` per
//! stratum, over the batch-transformed program with the facts as sample 0 —
//! what `run_batch` executes — and, for the storage invariants, over the
//! plain program too.
//!
//! The join guarantee rests on the hash index's ascending-build-row match
//! order (documented on `HashIndex::for_each_match`): a merge join emits the
//! same (build, probe) pairs in the same order. The stored order rests on
//! one order-preservation fact: packed group words place the first logical
//! column in the most-significant lane (word order = column-lexicographic
//! order). Incremental delta sessions run through the same seal/refresh
//! path and are pinned by `incremental_agreement`.

use lobster::{Device, DeviceConfig, FactSet, Lobster, Output, ProvenanceKind, SymbolTable, Value};
use lobster_apm::{
    batch_transform, compile_stratum_hash_only, compile_stratum_with_options, Database, Executor,
    RuntimeOptions, StoragePlan,
};
use lobster_baselines::ScallopEngine;
use lobster_provenance::{
    AddMultProb, Boolean, DiffAddMultProb, DiffMaxMinProb, DiffTop1Proof, InputFactRegistry,
    MaxMinProb, Provenance, SessionProvenance, Top1Proof, Unit,
};
use lobster_ram::{RamExpr, RamProgram, RamRule, RelationSchema, Stratum, ValueType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const PARALLELISMS: [usize; 2] = [1, 4];

fn device_with(parallelism: usize) -> Device {
    Device::new(DeviceConfig {
        parallelism,
        // Low threshold so parallelism-4 runs actually chunk the small
        // seeded workloads instead of falling back to sequential loops.
        min_parallel_rows: 64,
        ..DeviceConfig::default()
    })
}

#[derive(Clone, Copy)]
enum Joins {
    /// What every run executes: merge where inference allows, hash elsewhere.
    Planned,
    /// Every join through the hash path (the hidden test hook).
    HashOnly,
}

/// A relation's rows in stored order, tags rendered as outputs.
type Rows = Vec<(Vec<Value>, Output)>;

/// One fix point: every relation's rows as stored, plus what the run was
/// made of.
struct FixPoint {
    relations: Vec<(String, Rows)>,
    merge_joins: usize,
    hash_joins: usize,
    size_bytes: usize,
}

/// Runs `ram` over `facts` to its fix point. With `sample` set, `ram` is a
/// batch-transformed program and every fact is a row of that sample.
fn fix_point<P: SessionProvenance>(
    ram: &RamProgram,
    facts: &FactSet,
    sample: Option<u32>,
    parallelism: usize,
    joins: Joins,
) -> FixPoint {
    let device = device_with(parallelism);
    let registry = InputFactRegistry::new();
    let provenance = P::bind(registry.clone());
    let mut db = Database::from_plan(&StoragePlan::for_program(ram), provenance.clone());
    let mut row = Vec::new();
    for (relation, values, prob, exclusion) in facts.facts() {
        let tag = provenance.input_tag(registry.register(prob, exclusion), prob);
        row.clear();
        row.extend(sample.map(Value::U32));
        row.extend_from_slice(values);
        db.insert(relation, &row, tag);
    }
    db.seal(&device);

    let options = RuntimeOptions::default();
    let executor = Executor::new(device, provenance.clone(), options.clone());
    let (mut merge_joins, mut hash_joins) = (0, 0);
    for stratum in &ram.strata {
        let compiled = match joins {
            Joins::Planned => compile_stratum_with_options(stratum, ram, &options),
            Joins::HashOnly => compile_stratum_hash_only(stratum, ram),
        };
        merge_joins += compiled.merge_joins;
        hash_joins += compiled.hash_joins;
        executor
            .run_stratum(&mut db, &compiled)
            .expect("stratum runs");
    }
    let relations = ram
        .schemas
        .keys()
        .map(|name| {
            let rows = db
                .rows(name)
                .into_iter()
                .map(|(tuple, tag)| (tuple, provenance.output(&tag)))
                .collect();
            (name.clone(), rows)
        })
        .collect();
    FixPoint {
        relations,
        merge_joins,
        hash_joins,
        size_bytes: db.size_bytes(),
    }
}

/// Asserts two fix points are bit-identical: same relations, same tuples in
/// the same stored order, equal probability bits, equal gradients.
fn assert_bit_identical(a: &FixPoint, b: &FixPoint, context: &str) {
    assert_eq!(a.relations.len(), b.relations.len(), "{context}: relations");
    for ((name, rows_a), (name_b, rows_b)) in a.relations.iter().zip(&b.relations) {
        assert_eq!(name, name_b, "{context}: relation names");
        assert_eq!(
            rows_a.len(),
            rows_b.len(),
            "{context}: `{name}` cardinality"
        );
        for (i, ((ta, oa), (tb, ob))) in rows_a.iter().zip(rows_b).enumerate() {
            assert_eq!(ta, tb, "{context}: `{name}` tuple {i}");
            assert_eq!(
                oa.probability.to_bits(),
                ob.probability.to_bits(),
                "{context}: `{name}` tuple {i} probability"
            );
            assert_eq!(
                oa.gradient, ob.gradient,
                "{context}: `{name}` tuple {i} gradient"
            );
        }
    }
}

/// The batch-transformed RAM of `source`, which `run_batch` executes. None
/// of the suite's programs declares inline facts, so the sample's facts are
/// the whole input.
fn batched(source: &str) -> RamProgram {
    let compiled = lobster_datalog::parse(source).expect("program compiles");
    assert!(compiled.facts.is_empty(), "inline facts are not replayed");
    batch_transform(&compiled.ram)
}

/// Planned joins against hash-only joins. `expect_merge` says whether the program has a
/// merge-eligible join at all — asserted, so the comparison cannot quietly
/// become one build against itself.
fn join_differential_for<P: SessionProvenance>(
    name: &str,
    ram: &RamProgram,
    facts: &FactSet,
    expect_merge: bool,
) {
    for p in PARALLELISMS {
        let context = format!("{name} ({}, parallelism {p})", std::any::type_name::<P>());
        let plan = fix_point::<P>(ram, facts, Some(0), p, Joins::Planned);
        let hash = fix_point::<P>(ram, facts, Some(0), p, Joins::HashOnly);
        assert_eq!(hash.merge_joins, 0, "{context}: hash-only build merged");
        assert_eq!(
            plan.merge_joins > 0,
            expect_merge,
            "{context}: planned build has {} merge joins",
            plan.merge_joins
        );
        assert_eq!(
            plan.merge_joins + plan.hash_joins,
            hash.hash_joins,
            "{context}: join sites"
        );
        assert_bit_identical(&plan, &hash, &context);
    }
}

fn join_differential(name: &str, source: &str, facts: &FactSet, expect_merge: bool) {
    let ram = batched(source);
    join_differential_for::<Unit>(name, &ram, facts, expect_merge);
    join_differential_for::<AddMultProb>(name, &ram, facts, expect_merge);
    join_differential_for::<MaxMinProb>(name, &ram, facts, expect_merge);
    join_differential_for::<DiffTop1Proof>(name, &ram, facts, expect_merge);
}

/// The packed-storage invariants of one kind, under the planned build: the
/// fix points at every parallelism are bit-identical, and every relation's
/// rows strictly ascend in logical lexicographic order. With `sample` set,
/// `ram` is batch-transformed and the facts are that sample's rows. Returns
/// the fix point.
fn storage_invariants_for<P: SessionProvenance>(
    name: &str,
    ram: &RamProgram,
    facts: &FactSet,
    sample: Option<u32>,
) -> FixPoint {
    let context = format!("{name} ({}, sample {sample:?})", std::any::type_name::<P>());
    let [first, rest @ ..] =
        PARALLELISMS.map(|p| fix_point::<P>(ram, facts, sample, p, Joins::Planned));
    for (p, other) in PARALLELISMS[1..].iter().zip(&rest) {
        let context = format!("{context}, parallelism {} vs {p}", PARALLELISMS[0]);
        assert_bit_identical(&first, other, &context);
    }
    for (relation, rows) in &first.relations {
        let words = |(tuple, _): &(Vec<Value>, Output)| -> Vec<u64> {
            tuple.iter().map(Value::encode).collect()
        };
        let words: Vec<Vec<u64>> = rows.iter().map(words).collect();
        if let Some(i) = words.windows(2).position(|pair| pair[0] >= pair[1]) {
            panic!(
                "{context}: `{relation}` rows {i} and {} out of order: {:?} then {:?}",
                i + 1,
                rows[i].0,
                rows[i + 1].0
            );
        }
    }
    first
}

/// [`storage_invariants_for`] under four kinds, and the `unit` tuple set
/// against `ScallopEngine`'s: over the batch-transformed program, which
/// `run_batch` executes and whose `u32` sample column makes every layout
/// packed, and over the plain one, which `Session::run` executes and where
/// a relation of 8-byte columns only is stored one word per column.
fn storage_invariants(name: &str, source: &str, facts: &FactSet) {
    let batched = batched(source);
    let plain = lobster_datalog::parse(source)
        .expect("program compiles")
        .ram;
    for (ram, sample) in [(batched, Some(0)), (plain, None)] {
        let unit = storage_invariants_for::<Unit>(name, &ram, facts, sample);
        storage_invariants_for::<AddMultProb>(name, &ram, facts, sample);
        storage_invariants_for::<MaxMinProb>(name, &ram, facts, sample);
        storage_invariants_for::<DiffTop1Proof>(name, &ram, facts, sample);

        let rows: Vec<(String, Vec<u64>, ())> = facts
            .facts()
            .map(|(relation, values, _, _)| {
                let row = sample
                    .map(u64::from)
                    .into_iter()
                    .chain(values.iter().map(Value::encode));
                (relation.to_string(), row.collect(), ())
            })
            .collect();
        let scallop = ScallopEngine::new(Unit::new())
            .run(&ram, &rows)
            .expect("the tuple-at-a-time engine runs");
        for (relation, rows) in &unit.relations {
            let ours: BTreeSet<Vec<u64>> = rows
                .iter()
                .map(|(tuple, _)| tuple.iter().map(Value::encode).collect())
                .collect();
            let theirs: BTreeSet<Vec<u64>> = scallop
                .get(relation)
                .map(|tuples| tuples.keys().cloned().collect())
                .unwrap_or_default();
            assert_eq!(
                ours, theirs,
                "{name} (sample {sample:?}): `{relation}` against ScallopEngine"
            );
        }
    }
}

/// `count` random probabilistic binary facts over `0..nodes`.
fn random_pairs(facts: &mut FactSet, rng: &mut StdRng, relation: &str, count: usize, nodes: u32) {
    for _ in 0..count {
        let a = rng.gen_range(0..nodes);
        let b = rng.gen_range(0..nodes);
        facts.add(
            relation,
            &[Value::U32(a), Value::U32(b)],
            Some(rng.gen_range(0.3..1.0)),
        );
    }
}

fn cspa_facts(seed: u64) -> FactSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut facts = FactSet::new();
    random_pairs(&mut facts, &mut rng, "assign", 150, 24);
    random_pairs(&mut facts, &mut rng, "dereference", 80, 24);
    facts
}

/// Same Generation: its `parent ⋈ parent` base rule is the suite's
/// merge-eligible join, so the two builds genuinely take different paths.
#[test]
fn same_generation_merge_join_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut facts = FactSet::new();
    random_pairs(&mut facts, &mut rng, "parent", 220, 28);
    join_differential(
        "same-generation",
        lobster_workloads::graphs::SAME_GENERATION,
        &facts,
        true,
    );
}

/// A relation a single-pass stratum derives that also holds facts of its
/// own: `r`'s asserted rows (5, 6, 7) and its derived rows (1, 2, 3) rest as
/// one sorted table, which the next stratum's merge join reads as its build
/// side. Were they to rest as two sorted halves, their concatenation would
/// not be sorted, and the merge join would find only the asserted half.
#[test]
fn a_single_pass_relation_with_facts_of_its_own_rests_sorted() {
    let source = "type s(x: u32, y: u32)
        type e(x: u32, z: u32)
        type r(x: u32, y: u32)
        rel r(x, y) = s(x, y)
        rel out(x, y, z) = e(x, z) and r(x, y)
        query out";
    let mut facts = FactSet::new();
    for x in [5, 6, 7] {
        facts.add("r", &[Value::U32(x), Value::U32(0)], None);
    }
    for x in [1, 2, 3] {
        facts.add("s", &[Value::U32(x), Value::U32(0)], None);
    }
    for x in [1, 2, 3, 5, 6, 7] {
        facts.add("e", &[Value::U32(x), Value::U32(100 + x)], None);
    }
    let name = "single-pass build side";
    join_differential(name, source, &facts, true);
    storage_invariants(name, source, &facts);
    for kind in ProvenanceKind::ALL {
        let program = Lobster::builder(source).provenance(kind).compile().unwrap();
        let mut session = program.session();
        session.insert_facts(&facts).unwrap();
        assert_eq!(session.run().unwrap().len("out"), 6, "{kind}: run");
        let batch = program.run_batch(std::slice::from_ref(&facts)).unwrap();
        assert_eq!(batch[0].len("out"), 6, "{kind}: run_batch");
        let incremental = session.run_incremental().unwrap();
        assert_eq!(incremental.len("out"), 6, "{kind}: run_incremental");
    }
}

/// Transitive closure stays on the hash path (its probe side is a column
/// swap, sorted prefix 0) — the differential pins that sort-order inference
/// never perturbs programs it does not apply to.
#[test]
fn transitive_closure_has_no_merge_eligible_join() {
    let mut rng = StdRng::seed_from_u64(12);
    let mut facts = FactSet::new();
    random_pairs(&mut facts, &mut rng, "edge", 160, 40);
    join_differential(
        "transitive-closure",
        lobster_workloads::graphs::TRANSITIVE_CLOSURE,
        &facts,
        false,
    );
}

/// CSPA: non-linear mutual recursion, the join-heavy stress case of
/// Table 4. Its doubly-recursive rules (`value_flow(z, x), value_flow(z, y)`)
/// have a stable ⋈ recent semi-naive variant whose two sides are single
/// sorted partitions keyed on their first column, so a few of its join
/// sites are merge-eligible and the rest hash.
#[test]
fn cspa_is_bit_identical_across_join_strategies() {
    join_differential(
        "cspa",
        lobster_workloads::cspa::PROGRAM,
        &cspa_facts(13),
        true,
    );
}

/// `pair(x, y) = a(x), b(y)`: a cartesian product, written as the join on
/// no columns the front end emits for it.
fn width_zero_product() -> RamProgram {
    let schema = |name: &str, arity: usize| {
        let schema = RelationSchema::new(name, vec![ValueType::U32; arity]);
        (name.to_string(), schema)
    };
    RamProgram {
        schemas: [schema("a", 1), schema("b", 1), schema("pair", 2)].into(),
        strata: vec![Stratum {
            relations: vec!["pair".into()],
            rules: vec![RamRule {
                target: "pair".into(),
                expr: RamExpr::relation("a").join(RamExpr::relation("b"), 0),
            }],
            recursive: false,
        }],
        outputs: vec!["pair".into()],
    }
}

/// The width-0 join of [`width_zero_product`] under one kind, as
/// `Executor::run_program` runs it and over its batch transform (the facts
/// as sample 0), against `ScallopEngine` over the same program and tags:
/// the same 12 tuples, probability bits and gradients.
fn width_zero_join_for<P: SessionProvenance>(facts: &FactSet) {
    let plain = width_zero_product();
    let batched = batch_transform(&plain);
    for (ram, sample) in [(plain, None), (batched, Some(0))] {
        for p in PARALLELISMS {
            let device = device_with(p);
            let registry = InputFactRegistry::new();
            let provenance = P::bind(registry.clone());
            let context = format!("{} (sample {sample:?}, parallelism {p})", provenance.name());
            let mut db = Database::from_plan(&StoragePlan::for_program(&ram), provenance.clone());
            let mut inputs = Vec::new();
            for (relation, values, prob, exclusion) in facts.facts() {
                let tag = provenance.input_tag(registry.register(prob, exclusion), prob);
                let row: Vec<Value> = sample
                    .map(Value::U32)
                    .into_iter()
                    .chain(values.iter().copied())
                    .collect();
                inputs.push((
                    relation.to_string(),
                    row.iter().map(Value::encode).collect(),
                    tag.clone(),
                ));
                db.insert(relation, &row, tag);
            }
            db.seal(&device);
            let executor = Executor::new(device, provenance.clone(), RuntimeOptions::default());
            executor.run_program(&mut db, &ram).expect("program runs");
            let rendered = |tuple: Vec<u64>, tag: &P::Tag| {
                let output = provenance.output(tag);
                (tuple, output.probability.to_bits(), output.gradient)
            };
            let ours: Vec<_> = db
                .rows("pair")
                .into_iter()
                .map(|(tuple, tag)| rendered(tuple.iter().map(Value::encode).collect(), &tag))
                .collect();
            let scallop = ScallopEngine::new(provenance.clone())
                .run(&ram, &inputs)
                .expect("the tuple-at-a-time engine runs");
            let theirs: Vec<_> = scallop["pair"]
                .iter()
                .map(|(tuple, tag)| rendered(tuple.clone(), tag))
                .collect();
            assert_eq!(ours.len(), 12, "{context}: `pair` rows");
            assert_eq!(ours, theirs, "{context}: `pair` against ScallopEngine");
        }
    }
}

/// A join on no columns is a cartesian product under every kind, run
/// straight and batched: the executor sees each side's rows although
/// neither has a key column.
#[test]
fn width_zero_join_is_a_product_under_every_kind() {
    let mut facts = FactSet::new();
    for (x, prob) in [(1, 0.9), (2, 0.8), (3, 0.7)] {
        facts.add("a", &[Value::U32(x)], Some(prob));
    }
    for (y, prob) in [(10, 0.6), (20, 0.5), (30, 0.4), (40, 0.3)] {
        facts.add("b", &[Value::U32(y)], Some(prob));
    }
    width_zero_join_for::<Unit>(&facts);
    width_zero_join_for::<Boolean>(&facts);
    width_zero_join_for::<MaxMinProb>(&facts);
    width_zero_join_for::<AddMultProb>(&facts);
    width_zero_join_for::<Top1Proof>(&facts);
    width_zero_join_for::<DiffMaxMinProb>(&facts);
    width_zero_join_for::<DiffAddMultProb>(&facts);
    width_zero_join_for::<DiffTop1Proof>(&facts);
}

/// Transitive closure over `u32` keys: with no `u32` arithmetic in the
/// program, both 4-byte edge columns pack into a single word column. Over
/// `i64` keys every lane is a whole word.
#[test]
fn transitive_closure_encoded_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(21);
    let mut facts = FactSet::new();
    random_pairs(&mut facts, &mut rng, "edge", 160, 40);
    storage_invariants(
        "transitive-closure",
        lobster_workloads::graphs::TRANSITIVE_CLOSURE,
        &facts,
    );

    // The same closure over `i64` nodes that need all 64 bits, and an
    // `(i64, f64)` relation it feeds: under the plain program every column
    // is 8 bytes wide, so each relation is stored one word per column.
    let source = "type edge(x: i64, y: i64)
        type score(x: i64, s: f64)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        rel scored(x, s) = path(x, y) and score(y, s)
        query path
        query scored";
    let node = |i: i64| Value::I64((i - 20) << 40 | i);
    let mut facts = FactSet::new();
    for _ in 0..120 {
        let (x, y) = (rng.gen_range(0..40), rng.gen_range(0..40));
        facts.add("edge", &[node(x), node(y)], Some(rng.gen_range(0.3..1.0)));
    }
    for y in (0..40).step_by(3) {
        let s = Value::F64(rng.gen_range(-1e9..1e9));
        facts.add("score", &[node(y), s], Some(rng.gen_range(0.3..1.0)));
    }
    storage_invariants("i64-closure", source, &facts);
}

/// CLUTRR: arity-3 relations whose 12 logical bytes split across two packed
/// groups — the multi-group layout case — with probabilistic kinship facts
/// driving gradients through the composition join.
#[test]
fn clutrr_encoded_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(22);
    let sample = lobster_workloads::clutrr::generate(6, &mut rng);
    let facts = sample.facts().to_fact_set();
    storage_invariants("clutrr", lobster_workloads::clutrr::PROGRAM, &facts);
}

/// CSPA: non-linear mutual recursion over seven join sites; the join-heavy
/// stress case of Table 4, here exercising packed keys on every join.
#[test]
fn cspa_encoded_is_bit_identical() {
    storage_invariants("cspa", lobster_workloads::cspa::PROGRAM, &cspa_facts(23));
}

/// RNA SSP: `u32` arithmetic in a recursive stratum (`i2 == i + 1`), with
/// the spans it computes stored in 4-byte lanes.
#[test]
fn rna_encoded_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(25);
    let sample = lobster_workloads::rna::generate(24, &mut rng);
    let facts = sample.facts().to_fact_set();
    storage_invariants("rna-ssp", lobster_workloads::rna::PROGRAM, &facts);
}

/// PacMan: `u32` arithmetic over grid coordinates, and the arity-4 `move`
/// relation that packs into two words.
#[test]
fn pacman_encoded_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(26);
    let sample = lobster_workloads::pacman::generate(6, &mut rng);
    let facts = sample.facts().to_fact_set();
    storage_invariants("pacman", lobster_workloads::pacman::PROGRAM, &facts);
}

/// `u32` arithmetic that overflows — sums past 2³², differences below 0,
/// products of two 2¹⁶ values — over random values near both ends of the
/// range: every result wraps at 32 bits, so it fits its 4-byte lane and
/// meets the facts of the same value.
#[test]
fn overflowing_u32_arithmetic_encoded_is_bit_identical() {
    let source = "type a(y: u32)
        type r(x: u32)
        type p(x: u32, y: u32)
        rel r(x) = a(y), x == y + 4294967295
        rel r(x) = a(y), x == y - 1
        rel r(x) = r(y), x == y * 65536
        rel zero(x, y) = p(x, y), x * y == 0
        query r
        query zero";
    let mut rng = StdRng::seed_from_u64(27);
    let value = |rng: &mut StdRng| match rng.gen_range(0..3) {
        0 => rng.gen_range(0..8),
        1 => u32::MAX - rng.gen_range(0..8),
        _ => rng.gen_range(1..5) << 16,
    };
    let mut facts = FactSet::new();
    for _ in 0..40 {
        let (a, r) = (value(&mut rng), value(&mut rng));
        facts.add("a", &[Value::U32(a)], Some(rng.gen_range(0.3..1.0)));
        facts.add("r", &[Value::U32(r)], Some(rng.gen_range(0.3..1.0)));
        let (x, y) = (value(&mut rng), value(&mut rng));
        facts.add("p", &[Value::U32(x), Value::U32(y)], Some(0.5));
    }
    storage_invariants("overflowing-u32", source, &facts);
}

/// Symbol-keyed reachability with a symbol constant in a rule body: ids are
/// sparse interner ids stored in 4-byte lanes, two to a word, and the
/// constant, an interner id too, is compared against them as compiled.
/// Input facts arrive in an order unrelated to interning order, so packed
/// sorts and merges see a genuinely shuffled set of ids.
#[test]
fn symbol_reachability_encoded_is_bit_identical() {
    let source = "type edge(x: symbol, y: symbol)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        rel from_root(y) = path(\"node-widely-spaced-000\", y)
        query from_root";
    let symbols = SymbolTable::global();
    let ids: Vec<u32> = (0..48)
        .map(|i| symbols.intern(&format!("node-widely-spaced-{i:03}")))
        .collect();
    let mut rng = StdRng::seed_from_u64(24);
    let mut facts = FactSet::new();
    for _ in 0..120 {
        let x = ids[rng.gen_range(0..ids.len())];
        let y = ids[rng.gen_range(0..ids.len())];
        facts.add(
            "edge",
            &[Value::Symbol(x), Value::Symbol(y)],
            Some(rng.gen_range(0.3..1.0)),
        );
    }
    storage_invariants("symbol-reachability", source, &facts);
}

/// The wide-string workload of `kernel_bench` (`wide_string[encoded]`): a
/// symbol-keyed transitive closure over a chain of long entity names. The
/// fix-point database — what a run copies back to the host — must be at
/// least 1.2× smaller packed than one word per column would be: each row's
/// arity × 8 bytes plus its tag, what full-width storage held. Byte counts
/// are exact, so this holds or fails the same way on every machine.
#[test]
fn encoded_symbol_closure_is_at_least_1_2x_smaller() {
    let source = "type edge(x: symbol, y: symbol)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";
    let ram = lobster_datalog::parse(source).expect("compiles").ram;
    let symbols = SymbolTable::global();
    let ids: Vec<u32> = (0..=120u32)
        .map(|i| symbols.intern(&format!("entity-with-a-rather-long-name-{i:06}")))
        .collect();
    let mut facts = FactSet::new();
    for pair in ids.windows(2) {
        facts.add(
            "edge",
            &[Value::Symbol(pair[0]), Value::Symbol(pair[1])],
            None,
        );
    }
    let packed = fix_point::<Unit>(&ram, &facts, None, 4, Joins::Planned);
    let tag = std::mem::size_of::<<Unit as Provenance>::Tag>();
    let full_width: usize = packed
        .relations
        .iter()
        .map(|(relation, rows)| rows.len() * (ram.schemas[relation].arity() * 8 + tag))
        .sum();
    // What `size_bytes` measured of the same fix point stored full width.
    assert_eq!(full_width, 118_080);
    let factor = full_width as f64 / packed.size_bytes as f64;
    assert!(
        factor >= 1.2,
        "full width {full_width} bytes ÷ packed {} bytes = {factor:.2}, below 1.2",
        packed.size_bytes
    );
}
