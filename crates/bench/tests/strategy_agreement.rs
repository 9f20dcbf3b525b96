//! Differential tests for the two execution strategies the engine picks
//! from the program alone, with no option to select them:
//!
//! * **join strategy** — a join compiles to the merge path where sort-order
//!   inference proves both inputs sorted on the key, and to the hash
//!   build+probe path everywhere else;
//! * **storage width** — every program's relations are stored in packed,
//!   dictionary-encoded columns, `u32` lanes 4 bytes wide; full-width
//!   storage survives only as the reference side here.
//!
//! Each must be invisible in the results: with identical seeded inputs the
//! planned build and the hash-only build, and the encoded and the full-width
//! database, reach *bit-identical* fix points — same tuples in the same
//! stored order, same probability bits, same gradients, for every relation —
//! across provenance kinds and device parallelism levels.
//!
//! There is no knob to flip, so both sides of each comparison are built here
//! from `lobster_apm`'s parts: `Database::new` / `Database::from_plan`,
//! the planned compile entry or the hidden `compile_stratum_hash_only` hook,
//! and `Executor::run_stratum` per stratum, over the batch-transformed
//! program with the facts as sample 0 — what `run_batch` executes.
//!
//! The join guarantee rests on the hash index's ascending-build-row match
//! order (documented on `HashIndex::for_each_match`): a merge join emits the
//! same (build, probe) pairs in the same order. The storage guarantee rests
//! on two order-preservation facts: local symbol ids are ranks in the sorted
//! used-set (local order = global order), and packed group words place the
//! first logical column in the most-significant lane (word order =
//! column-lexicographic order). Incremental delta sessions run through the
//! same encoded seal/refresh path and are pinned by `incremental_agreement`.

use lobster::{Device, DeviceConfig, FactSet, Output, SymbolTable, Value};
use lobster_apm::{
    batch_transform, compile_stratum_hash_only, compile_stratum_with_options, Database, Executor,
    RuntimeOptions, StoragePlan,
};
use lobster_provenance::{
    AddMultProb, DiffTop1Proof, InputFactRegistry, MaxMinProb, SessionProvenance, Unit,
};
use lobster_ram::RamProgram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

#[derive(Clone, Copy)]
enum Storage {
    Encoded,
    FullWidth,
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
    storage: Storage,
) -> FixPoint {
    let device = device_with(parallelism);
    let registry = InputFactRegistry::new();
    let provenance = P::bind(registry.clone());
    let mut db = match storage {
        Storage::FullWidth => Database::new(ram.schemas.clone(), provenance.clone()),
        Storage::Encoded => Database::from_plan(&StoragePlan::for_program(ram), provenance.clone()),
    };
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

/// Planned joins against hash-only joins, both on the encoded database a
/// session would use. `expect_merge` says whether the program has a
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
        let plan = fix_point::<P>(ram, facts, Some(0), p, Joins::Planned, Storage::Encoded);
        let hash = fix_point::<P>(ram, facts, Some(0), p, Joins::HashOnly, Storage::Encoded);
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

/// The encoded database against the full-width one, both under the planned
/// build.
fn storage_differential_for<P: SessionProvenance>(name: &str, ram: &RamProgram, facts: &FactSet) {
    for p in PARALLELISMS {
        let context = format!("{name} ({}, parallelism {p})", std::any::type_name::<P>());
        let packed = fix_point::<P>(ram, facts, Some(0), p, Joins::Planned, Storage::Encoded);
        let wide = fix_point::<P>(ram, facts, Some(0), p, Joins::Planned, Storage::FullWidth);
        assert!(
            packed.size_bytes < wide.size_bytes,
            "{context}: encoded {} bytes, full width {}",
            packed.size_bytes,
            wide.size_bytes
        );
        assert_bit_identical(&packed, &wide, &context);
    }
}

fn storage_differential(name: &str, source: &str, facts: &FactSet) {
    let ram = batched(source);
    storage_differential_for::<Unit>(name, &ram, facts);
    storage_differential_for::<AddMultProb>(name, &ram, facts);
    storage_differential_for::<MaxMinProb>(name, &ram, facts);
    storage_differential_for::<DiffTop1Proof>(name, &ram, facts);
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

/// Transitive closure over `u32` keys: with no `u32` arithmetic in the
/// program, both 4-byte edge columns pack into a single word column.
#[test]
fn transitive_closure_encoded_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(21);
    let mut facts = FactSet::new();
    random_pairs(&mut facts, &mut rng, "edge", 160, 40);
    storage_differential(
        "transitive-closure",
        lobster_workloads::graphs::TRANSITIVE_CLOSURE,
        &facts,
    );
}

/// CLUTRR: arity-3 relations whose 12 logical bytes split across two packed
/// groups — the multi-group layout case — with probabilistic kinship facts
/// driving gradients through the composition join.
#[test]
fn clutrr_encoded_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(22);
    let sample = lobster_workloads::clutrr::generate(6, &mut rng);
    let facts = sample.facts().to_fact_set();
    storage_differential("clutrr", lobster_workloads::clutrr::PROGRAM, &facts);
}

/// CSPA: non-linear mutual recursion over seven join sites; the join-heavy
/// stress case of Table 4, here exercising packed keys on every join.
#[test]
fn cspa_encoded_is_bit_identical() {
    storage_differential("cspa", lobster_workloads::cspa::PROGRAM, &cspa_facts(23));
}

/// RNA SSP: `u32` arithmetic in a recursive stratum (`i2 == i + 1`), with
/// the spans it computes stored in 4-byte lanes.
#[test]
fn rna_encoded_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(25);
    let sample = lobster_workloads::rna::generate(24, &mut rng);
    let facts = sample.facts().to_fact_set();
    storage_differential("rna-ssp", lobster_workloads::rna::PROGRAM, &facts);
}

/// PacMan: `u32` arithmetic over grid coordinates, and the arity-4 `move`
/// relation that packs into two words.
#[test]
fn pacman_encoded_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(26);
    let sample = lobster_workloads::pacman::generate(6, &mut rng);
    let facts = sample.facts().to_fact_set();
    storage_differential("pacman", lobster_workloads::pacman::PROGRAM, &facts);
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
    storage_differential("overflowing-u32", source, &facts);
}

/// The storage words of the nine suite programs' plain (unbatched)
/// relations: every program is planned the same way, `u32` lanes 4 bytes
/// wide whether or not its rules do `u32` arithmetic (PacMan, HWF and RNA
/// SSP do).
#[test]
fn suite_storage_words_are_pinned() {
    let expected = [
        ("Pathfinder", 3),
        ("PacMan-Maze", 8),
        ("HWF", 7),
        ("CLUTRR", 8),
        ("Prob. Static Analysis", 12),
        ("RNA SSP", 3),
        ("Transitive Closure", 2),
        ("Same Generation", 2),
        ("CSPA", 5),
    ];
    let suite = lobster_workloads::suite::table2();
    assert_eq!(suite.len(), expected.len());
    let mut one_word = 0;
    for (info, (name, want)) in suite.iter().zip(expected) {
        assert_eq!(info.name, name);
        let ram = lobster_datalog::parse(info.program).unwrap().ram;
        let plan = StoragePlan::for_program(&ram);
        let words: Vec<usize> = ram
            .schemas
            .keys()
            .map(|relation| plan.layout(relation).unwrap().packed_arity())
            .collect();
        assert_eq!(words.iter().sum::<usize>(), want, "{name}");
        one_word += words.iter().filter(|&&w| w == 1).count();
    }
    assert_eq!(one_word, 38);

    // Lane bytes per group of two programs without arithmetic, as they
    // always were: TC's two `u32`s share a word, CLUTRR's three take two.
    let lanes = |source: &str, relation: &str| -> Vec<Vec<usize>> {
        let ram = lobster_datalog::parse(source).unwrap().ram;
        let plan = StoragePlan::for_program(&ram);
        let groups = &plan.layout(relation).unwrap().groups;
        groups
            .iter()
            .map(|g| g.lanes.iter().map(|l| l.bytes).collect())
            .collect()
    };
    let tc = lobster_workloads::graphs::TRANSITIVE_CLOSURE;
    assert_eq!(lanes(tc, "path"), [vec![4, 4]]);
    assert_eq!(lanes(tc, "edge"), [vec![4, 4]]);
    let clutrr = lobster_workloads::clutrr::PROGRAM;
    for relation in ["kinship", "composition", "derived"] {
        assert_eq!(lanes(clutrr, relation), [vec![4, 4], vec![4]], "{relation}");
    }
}

/// Symbol-keyed reachability with a symbol constant in a rule body: the
/// dictionary path proper — global ids are sparse interner ids, local ids
/// are 1-byte ranks, and the constant must be rewritten into local space at
/// stratum entry. Input facts arrive in id order unrelated to
/// interning order, so the dictionary's rank assignment is exercised on a
/// genuinely shuffled used-set.
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
    storage_differential("symbol-reachability", source, &facts);
}

/// The wide-string workload of `kernel_bench` (`wide_string[encoded]`): a
/// symbol-keyed transitive closure over a chain of long entity names. The
/// fix-point database — what a run copies back to the host — must be at
/// least 1.2× smaller encoded than at full width. Byte counts are exact, so
/// this holds or fails the same way on every machine.
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
    let packed = fix_point::<Unit>(&ram, &facts, None, 4, Joins::Planned, Storage::Encoded);
    let wide = fix_point::<Unit>(&ram, &facts, None, 4, Joins::Planned, Storage::FullWidth);
    assert_bit_identical(&packed, &wide, "wide-string closure");
    let factor = wide.size_bytes as f64 / packed.size_bytes as f64;
    assert!(
        factor >= 1.2,
        "full width {} bytes ÷ encoded {} bytes = {factor:.2}, below 1.2",
        wide.size_bytes,
        packed.size_bytes
    );
}
