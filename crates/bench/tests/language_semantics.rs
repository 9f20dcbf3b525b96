//! The value semantics the language promises (`lobster_datalog`'s "Semantics
//! of values"), checked end to end:
//!
//! * `u32` arithmetic wraps at 32 bits on every entry point — `run`,
//!   `run_batch`, and `run_incremental` both materializing and taking a
//!   delta — and in the Scallop-style baseline, which shares the evaluator.
//!   A wrapped result is an ordinary `u32`: it deduplicates against a fact
//!   of the same value, so a set relation never holds one tuple twice.
//! * Arithmetic over `symbol` or `bool` operands does not compile, and the
//!   error names the rule.
//! * A literal of a kind its column type cannot hold does not compile.

use lobster::{FactSet, Program, ProvenanceKind, RunResult, Value};
use lobster_baselines::ScallopEngine;
use lobster_provenance::Unit;

/// Three ways past 32 bits, each landing on a value a fact already holds:
/// `1 + 4294967295` wraps to 0, `0 - 1` to 4294967295, and
/// `65536 × 65536` to 0.
const WRAPPING: &str = "
    type a(y: u32)
    type r(x: u32)
    type b(y: u32)
    type s(x: u32)
    type p(x: u32, y: u32)
    rel r(x) = a(y), x == y + 4294967295
    rel s(x) = b(y), x == y - 1
    rel zero(x, y) = p(x, y), x * y == 0
    query r
    query s
    query zero";

const TOP: u32 = u32::MAX;

/// The facts the derived rows coincide with, and the pair whose product is
/// a true zero only at 32 bits beside one whose product is not zero at all.
fn known_facts() -> FactSet {
    let mut facts = FactSet::new();
    facts.add("r", &[Value::U32(0)], Some(0.8));
    facts.add("s", &[Value::U32(TOP)], Some(0.95));
    facts.add("p", &[Value::U32(2), Value::U32(3)], Some(0.6));
    facts
}

/// The facts whose derivations wrap.
fn wrapping_facts() -> FactSet {
    let mut facts = FactSet::new();
    facts.add("a", &[Value::U32(1)], Some(0.5));
    facts.add("b", &[Value::U32(0)], Some(0.9));
    facts.add("p", &[Value::U32(65_536), Value::U32(65_536)], Some(0.7));
    facts
}

fn all_facts() -> FactSet {
    let mut facts = known_facts();
    for (relation, values, prob, _) in wrapping_facts().facts() {
        facts.add(relation, values, prob);
    }
    facts
}

/// One row per relation, each the 32-bit value, with the semiring's tag: a
/// derived row and a fact of the same value fold into one tuple.
fn assert_wrapped(result: &RunResult, kind: ProvenanceKind, context: &str) {
    let rows = |name: &str| -> Vec<Vec<Value>> {
        let rows = result.relation(name).iter();
        rows.map(|(tuple, _)| tuple.clone()).collect()
    };
    assert_eq!(rows("r"), [vec![Value::U32(0)]], "{context}: r");
    assert_eq!(rows("s"), [vec![Value::U32(TOP)]], "{context}: s");
    let big = Value::U32(65_536);
    assert_eq!(rows("zero"), [vec![big, big]], "{context}: zero");
    if kind == ProvenanceKind::MaxMinProb {
        // One tag per tuple, the fact's: it is the likelier support.
        assert_eq!(result.probability("r", &[Value::U32(0)]), 0.8, "{context}");
        assert_eq!(
            result.probability("s", &[Value::U32(TOP)]),
            0.95,
            "{context}"
        );
        assert_eq!(result.probability("zero", &[big, big]), 0.7, "{context}");
    }
}

#[test]
fn u32_arithmetic_wraps_at_32_bits_on_every_entry_point() {
    for kind in [ProvenanceKind::Unit, ProvenanceKind::MaxMinProb] {
        let program = Program::compile(WRAPPING, kind).unwrap();

        let mut session = program.session();
        session.insert_facts(&all_facts()).unwrap();
        assert_wrapped(&session.run().unwrap(), kind, &format!("{kind} run"));

        let batch = program.run_batch(&[known_facts(), all_facts()]).unwrap();
        assert_wrapped(&batch[1], kind, &format!("{kind} run_batch"));
        assert!(batch[0].is_empty("zero"), "{kind}: 2 × 3 is not zero");

        // Materialized with everything, and materialized first with the
        // known facts alone, then given the wrapping ones as a delta.
        let mut whole = program.session();
        whole.insert_facts(&all_facts()).unwrap();
        let context = format!("{kind} run_incremental (materialize)");
        assert_wrapped(&whole.run_incremental().unwrap(), kind, &context);
        let mut delta = program.session();
        delta.insert_facts(&known_facts()).unwrap();
        delta.run_incremental().unwrap();
        delta.insert_facts(&wrapping_facts()).unwrap();
        let context = format!("{kind} run_incremental (delta)");
        assert_wrapped(&delta.run_incremental().unwrap(), kind, &context);
    }
}

#[test]
fn the_baseline_wraps_u32_arithmetic_too() {
    let compiled = lobster_datalog::parse(WRAPPING).unwrap();
    let facts: Vec<(String, Vec<u64>, ())> = all_facts()
        .facts()
        .map(|(relation, values, _, _)| {
            let words = values.iter().map(Value::encode).collect();
            (relation.to_string(), words, ())
        })
        .collect();
    let db = ScallopEngine::new(Unit::new())
        .run(&compiled.ram, &facts)
        .unwrap();
    let keys = |name: &str| db[name].keys().cloned().collect::<Vec<_>>();
    assert_eq!(keys("r"), [vec![0]]);
    assert_eq!(keys("s"), [vec![u64::from(TOP)]]);
    assert_eq!(keys("zero"), [vec![65_536, 65_536]]);
}

#[test]
fn arithmetic_over_symbols_or_bools_does_not_compile() {
    for (source, rule) in [
        (
            "type a(x: symbol, y: symbol)
             rel glued(z) = a(x, y), z == x + y",
            "(`glued`)",
        ),
        (
            "type f(b: bool)
             rel flipped(c) = f(b), c == -b",
            "(`flipped`)",
        ),
        (
            "type a(x: symbol, y: symbol)
             rel bigger(x) = a(x, y), x * y == y",
            "(`bigger`)",
        ),
    ] {
        let error = Program::compile(source, ProvenanceKind::Unit)
            .unwrap_err()
            .to_string();
        assert!(error.contains("arithmetic over"), "{source}: {error}");
        assert!(error.contains(rule), "{source}: {error}");
    }
}

/// Coerced, each of these would misbehave at run time: an integer read as a
/// symbol id past the dictionary, a float's bits packed into a `u32` lane, a
/// constant matching whichever symbol was interned first, 2³² truncated to
/// `false`, and `true` stored as the number 1. So each is a compile error.
#[test]
fn a_literal_that_does_not_fit_its_column_does_not_compile() {
    let sources = [
        "type a(x: u32) type r(x: symbol) rel r(5) = a(x) query r",
        "type a(x: u32) type r(x: u32) rel r(1.5) = a(x) query r",
        "type a(x: symbol) rel r() = a(0) query r",
        "type a(x: bool) rel r() = a(4294967296) query r",
        "type a(x: u32) type r(x: u32) rel r(true) = a(x) query r",
    ];
    for source in sources {
        let outcome = std::panic::catch_unwind(|| Program::compile(source, ProvenanceKind::Unit));
        let error = outcome
            .unwrap_or_else(|_| panic!("{source}: compile panicked"))
            .unwrap_err()
            .to_string();
        assert!(error.contains("does not fit"), "{source}: {error}");
    }
}
