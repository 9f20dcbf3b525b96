//! Incremental (delta) maintenance of a materialized fix point.
//!
//! After a full run, a session can keep its [`Database`] — every relation at
//! its fix point, as one sorted table — and re-evaluate only what a batch of
//! fact insertions, retractions, or probability updates can actually affect.
//! [`refresh_database`] implements the refresh in two tiers:
//!
//! * **Tuple-level semi-naive insertion** for recursive strata whose
//!   provenance is [`delta_exact`](lobster_provenance::Provenance::delta_exact)
//!   and whose refresh is insert-only. A relation that gained rows is held
//!   as a split — `stable` the old table, `recent` its Δ — from the moment
//!   it changes until the refresh ends. The inserted rows seed the split of
//!   their relations; a stratum that reads a split relation is recompiled
//!   with [`compile_stratum_delta`] and run seeded, which joins the old
//!   tables against Δ in its first iteration only and from then on follows
//!   its own frontier; and the seeded run hands its own relations back as
//!   the same kind of split (`Executor::run_stratum_from`: the frontiers it
//!   pushed, merged among themselves, *are* Δ), for the strata downstream.
//!   One `merge` per split relation at the very end is the only pass that
//!   rewrites an old table, so an insert costs O(|Δ| + its derivation cone)
//!   plus one scan of each old table it joins and that one fold.
//! * **Stratum-level recompute** for everything else — retractions
//!   (delete/re-derive: the stratum's relations are reset to their EDB
//!   content and re-derived from surviving support), probability updates,
//!   and provenances whose tags fold information across derivations in rank
//!   order (where dropping re-derivations of existing rows would diverge
//!   from a from-scratch run). Affected strata are recomputed exactly as
//!   `Executor::run_program` would — same compile entry, same options, same
//!   stratum run — so the result is bit-identical by construction;
//!   unaffected strata are skipped entirely and launch zero kernels.
//!
//! Dirtiness propagates along the stratum order: a recomputed relation whose
//! content is bitwise unchanged, or a delta-updated one whose Δ came out
//! empty, does not dirty its consumers. The same bookkeeping yields the
//! report a reader of the outputs needs to stay current without re-reading
//! them ([`Refresh::outputs`]): per output relation, the rows added and
//! where they went, or "rebuilt".

use crate::compiler::{compile_stratum_delta, compile_stratum_with_options};
use crate::database::{Database, SortedTable};
use crate::executor::{ExecError, ExecutionStats, Executor};
use lobster_gpu::{Columns, Device};
use lobster_provenance::Provenance;
use lobster_ram::RamProgram;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// The extensional content of one relation, in fact-registration order:
/// encoded columns plus one input tag per row.
pub type EdbContent<Tag> = (Columns, Vec<Tag>);

/// How a refresh changed one relation.
#[derive(Debug)]
pub enum RelationChange<P: Provenance> {
    /// Rows were added and nothing else moved.
    Inserted {
        /// The added rows, in the database's storage encoding and stored
        /// order ([`Database::decode_table`] reads them).
        rows: SortedTable<P>,
        /// `positions[i]` is the index of `rows[i]` in the relation's new
        /// stored order — the order [`Database::rows`] reports.
        positions: Vec<usize>,
    },
    /// The relation was re-derived; how the result differs from what was
    /// there is not known.
    Rebuilt,
}

/// What [`refresh_database`] did.
#[derive(Debug)]
pub struct Refresh<P: Provenance> {
    /// The executed strata's merged statistics. Strata outside the change
    /// cone are skipped and contribute nothing (no kernels, no iterations).
    pub stats: ExecutionStats,
    /// Every output relation of the program whose content changed; one that
    /// is absent reads exactly as it did before the refresh.
    pub outputs: BTreeMap<String, RelationChange<P>>,
}

/// Folds a relation's temporary stable/recent split back into a single
/// stable table and returns its Δ half — what `recent` held, which is never
/// empty for a split — with the number of rows the merge wrote.
fn fold_split<P: Provenance>(
    device: &Device,
    db: &mut Database<P>,
    rel: &str,
) -> (SortedTable<P>, usize) {
    let data = db.relation_data_mut(rel);
    let (stable, delta) = (data.stable.take(), data.recent.take());
    data.stable = stable.merge_disjoint(device, &delta);
    let written = data.stable.len();
    stable.recycle(device);
    (delta, written)
}

/// Refreshes a materialized database after a batch of EDB changes.
///
/// * `inserted` — newly inserted rows per relation, eligible for the
///   tuple-level delta path. The caller must only populate this when the
///   refresh is insert-only **and** the provenance is
///   [`delta_exact`](lobster_provenance::Provenance::delta_exact); otherwise
///   the affected relations belong in `rebuild`.
/// * `rebuild` — relations whose EDB content must be rebuilt from scratch
///   (retractions, probability changes, or non-delta-exact insertions).
/// * `edb` — supplies the **full** current EDB content of a relation in
///   fact-registration order; called lazily, only for rebuilt relations and
///   the own relations of recomputed strata.
///
/// Returns what ran and what it did to the program's output relations. The
/// executor's `timeout_ms` budget covers the whole refresh.
///
/// # Errors
///
/// Returns an [`ExecError`] on device OOM, timeout, or a hit iteration cap.
/// The database is then part-way through the refresh — some relations
/// updated, some still split — and must be rebuilt, not refreshed again.
pub fn refresh_database<P: Provenance>(
    executor: &Executor<P>,
    db: &mut Database<P>,
    ram: &RamProgram,
    inserted: &BTreeMap<String, EdbContent<P::Tag>>,
    rebuild: &BTreeSet<String>,
    edb: &dyn Fn(&str) -> EdbContent<P::Tag>,
) -> Result<Refresh<P>, ExecError> {
    let device = executor.device().clone();
    let run_start = Instant::now();
    let mut stats = ExecutionStats::default();

    // Relations whose content differs from the materialized state.
    let mut changed: BTreeSet<String> = BTreeSet::new();
    // Relations currently holding a (stable = old content, recent = Δ)
    // split that downstream delta strata can consume as a frontier. Folded
    // back to a single stable table before returning.
    let mut split: BTreeSet<String> = BTreeSet::new();

    let idb: BTreeSet<&String> = ram.strata.iter().flat_map(|s| &s.relations).collect();
    // Seed the insertion frontier: recent ← Δ \ stable. Rows already
    // present are dropped here (the provenance is delta-exact, so their
    // tags carry no new information), which keeps double-inserts idempotent
    // and the disjointness invariant of the final fold intact.
    for (rel, (cols, tags)) in inserted {
        // A relation some stratum derives in a single pass has no
        // tuple-level tier, and at rest its rows sit in `recent` (the one
        // pass's frontier), so there is nowhere to seed a Δ: an insertion
        // into one is a recompute.
        let single_pass = |s: &lobster_ram::Stratum| !s.recursive && s.relations.contains(rel);
        if ram.strata.iter().any(single_pass) {
            changed.insert(rel.clone());
            continue;
        }
        let delta = db.encoded_from_unsorted(&device, rel, cols.clone(), tags.clone(), true);
        if delta.is_empty() {
            continue;
        }
        let data = db.relation_data_mut(rel);
        debug_assert!(
            data.recent.is_empty(),
            "relation `{rel}` already has a live frontier"
        );
        data.recent = delta;
        changed.insert(rel.clone());
        split.insert(rel.clone());
    }

    // Rebuild the EDB tables of recompute-path relations. Pure EDB
    // relations whose rebuilt content is bitwise unchanged (e.g. a
    // retract-then-reinsert of the same fact) are pruned from the change
    // set; IDB relations are reset by their defining stratum below.
    for rel in rebuild {
        if idb.contains(rel) {
            changed.insert(rel.clone());
            continue;
        }
        let (cols, tags) = edb(rel);
        let new = db.encoded_from_unsorted(&device, rel, cols, tags, false);
        let data = db.relation_data_mut(rel);
        debug_assert!(
            data.recent.is_empty(),
            "EDB relation `{rel}` has a frontier"
        );
        if data.stable.columns == new.columns && data.stable.tags == new.tags {
            new.recycle(&device);
            continue;
        }
        let old = std::mem::replace(&mut data.stable, new);
        old.recycle(&device);
        changed.insert(rel.clone());
    }

    for stratum in &ram.strata {
        let mut referenced = Vec::new();
        for rule in &stratum.rules {
            rule.expr.referenced_relations(&mut referenced);
        }
        let own_changed = stratum.relations.iter().any(|r| changed.contains(r));
        let input_changed = referenced.iter().any(|r| changed.contains(r));
        if !own_changed && !input_changed {
            continue;
        }

        // The tuple-level path needs every changed relation this stratum
        // touches to still carry a live Δ split; anything changed via
        // recompute (split discarded) forces the consumer to recompute too.
        let split_complete = stratum
            .relations
            .iter()
            .chain(referenced.iter())
            .filter(|r| changed.contains(*r))
            .all(|r| split.contains(r));

        if stratum.recursive && split_complete {
            // Tuple-level semi-naive insertion. The seeded run hands every
            // own relation back as the split downstream strata read: the
            // old table in `stable`, untouched, and what it derived (with
            // what was seeded) in `recent`.
            let changed_inputs: BTreeSet<String> = referenced
                .iter()
                .filter(|r| changed.contains(*r))
                .cloned()
                .collect();
            let compiled = compile_stratum_delta(stratum, ram, &changed_inputs, executor.options());
            stats.merge(&executor.run_stratum_from(db, &compiled, run_start, false)?);
            for rel in &stratum.relations {
                if !db.relation_data(rel).recent.is_empty() {
                    changed.insert(rel.clone());
                    split.insert(rel.clone());
                }
            }
        } else {
            // Stratum-level recompute (delete/re-derive): restore the exact
            // stratum-entry state of a from-scratch run, then replay it.
            for rel in referenced
                .iter()
                .filter(|r| !stratum.relations.contains(*r))
            {
                if split.remove(rel.as_str()) {
                    // Loads assume single sorted partitions; fold the split.
                    let (delta, written) = fold_split(&device, db, rel);
                    stats.update_rows_written += written;
                    delta.recycle(&device);
                }
            }
            let old_tables: Vec<(String, SortedTable<P>, SortedTable<P>)> = stratum
                .relations
                .iter()
                .map(|rel| {
                    let (cols, tags) = edb(rel);
                    let new = db.encoded_from_unsorted(&device, rel, cols, tags, false);
                    // A pending EDB seed on this relation is subsumed by the
                    // full rebuild.
                    split.remove(rel);
                    let data = db.relation_data_mut(rel);
                    let old_stable = std::mem::replace(&mut data.stable, new);
                    (rel.clone(), old_stable, data.recent.take())
                })
                .collect();
            let compiled = compile_stratum_with_options(stratum, ram, executor.options());
            stats.merge(&executor.run_stratum_from(db, &compiled, run_start, true)?);
            for (rel, old_stable, old_recent) in old_tables {
                let data = db.relation_data_mut(&rel);
                let same = data.stable.columns == old_stable.columns
                    && data.stable.tags == old_stable.tags
                    && data.recent.columns == old_recent.columns
                    && data.recent.tags == old_recent.tags;
                if !same {
                    changed.insert(rel.clone());
                }
                old_stable.recycle(&device);
                old_recent.recycle(&device);
            }
        }
    }

    // Restore the canonical single-table state of every still-split
    // relation (matching what a from-scratch seal/convergence leaves): the
    // one pass of the tuple-level path that rewrites a table. An output
    // relation's Δ half goes into the report, with the place the merge gave
    // each of its rows — taken before the merge, from the same comparison.
    let mut outputs = BTreeMap::new();
    for rel in &split {
        let positions = ram.outputs.contains(rel).then(|| {
            let data = db.relation_data(rel);
            data.stable.merge_positions(&device, &data.recent)
        });
        let (rows, written) = fold_split(&device, db, rel);
        stats.update_rows_written += written;
        match positions {
            Some(positions) => {
                outputs.insert(rel.clone(), RelationChange::Inserted { rows, positions });
            }
            None => rows.recycle(&device),
        }
    }
    for rel in &ram.outputs {
        if changed.contains(rel) && !split.contains(rel) {
            outputs.insert(rel.clone(), RelationChange::Rebuilt);
        }
    }
    Ok(Refresh { stats, outputs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeOptions;
    use lobster_datalog::parse;
    use lobster_provenance::Unit;
    use lobster_ram::{Tuple, Value};

    /// TC over `edge`, a second output nothing below touches, and `edge`
    /// itself as an output.
    const SOURCE: &str = "type edge(x: u32, y: u32)
         type colour(x: u32, c: u32)
         rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
         rel painted(x) = colour(x, c)
         query path
         query painted
         query edge";

    fn edb(edges: &[(u32, u32)]) -> EdbContent<()> {
        let columns = vec![
            edges.iter().map(|(x, _)| u64::from(*x)).collect(),
            edges.iter().map(|(_, y)| u64::from(*y)).collect(),
        ];
        (columns, vec![(); edges.len()])
    }

    fn materialized(edges: &[(u32, u32)]) -> (RamProgram, Executor<Unit>, Database<Unit>) {
        let ram = parse(SOURCE).unwrap().ram;
        let device = Device::sequential();
        let mut db = Database::new(ram.schemas.clone(), Unit::new());
        for (x, y) in edges {
            db.insert("edge", &[Value::U32(*x), Value::U32(*y)], ());
        }
        db.insert("colour", &[Value::U32(1), Value::U32(7)], ());
        db.seal(&device);
        let executor = Executor::new(device, Unit::new(), RuntimeOptions::default());
        executor.run_program(&mut db, &ram).unwrap();
        (ram, executor, db)
    }

    fn tuples(db: &Database<Unit>, relation: &str) -> Vec<Tuple> {
        db.rows(relation).into_iter().map(|(t, ())| t).collect()
    }

    #[test]
    fn an_insertion_reports_the_added_rows_and_where_they_went() {
        let base = [(4, 5), (1, 2), (2, 3)];
        let (ram, executor, mut db) = materialized(&base);
        let before: BTreeMap<&str, Vec<Tuple>> = ["path", "edge", "painted"]
            .map(|rel| (rel, tuples(&db, rel)))
            .into();
        // 3 -> 4 joins the two chains: six new paths, scattered among the
        // four old ones.
        let inserted = BTreeMap::from([("edge".to_string(), edb(&[(3, 4)]))]);
        let refresh = refresh_database(
            &executor,
            &mut db,
            &ram,
            &inserted,
            &BTreeSet::new(),
            &|_| unreachable!("an insertion reads no EDB content"),
        )
        .unwrap();
        assert_eq!(refresh.stats.facts_produced, 6);
        assert_eq!(
            refresh.outputs.keys().collect::<Vec<_>>(),
            ["edge", "path"],
            "`painted` is not in the change cone"
        );
        for (rel, change) in &refresh.outputs {
            let RelationChange::Inserted { rows, positions } = change else {
                panic!("`{rel}` was rebuilt");
            };
            // Splicing the decoded Δ into the old rows at the reported
            // places gives what the database now holds, in its order.
            let mut expected = before[rel.as_str()].clone();
            let added = db.decode_table(rel, rows, |()| ());
            assert_eq!(added.len(), if rel == "path" { 6 } else { 1 });
            for ((tuple, ()), at) in added.into_iter().zip(positions) {
                expected.insert(*at, tuple);
            }
            assert_eq!(tuples(&db, rel), expected, "`{rel}`");
        }
        // The splits are merged back, and every relation is what a from-scratch
        // run on the same facts leaves.
        let (_, _, scratch) = materialized(&[(4, 5), (1, 2), (2, 3), (3, 4)]);
        for rel in ["path", "edge", "painted"] {
            let (got, want) = (db.relation_data(rel), scratch.relation_data(rel));
            assert_eq!(got.stable.columns, want.stable.columns, "`{rel}`");
            assert_eq!(got.recent.columns, want.recent.columns, "`{rel}`");
        }

        // The same fact again changes nothing and reports nothing.
        let again = refresh_database(
            &executor,
            &mut db,
            &ram,
            &inserted,
            &BTreeSet::new(),
            &|_| unreachable!(),
        )
        .unwrap();
        assert!(again.outputs.is_empty());
        assert_eq!(again.stats, ExecutionStats::default());
    }

    #[test]
    fn a_recompute_reports_rebuilt_for_what_changed_and_nothing_for_the_rest() {
        let (ram, executor, mut db) = materialized(&[(1, 2), (2, 3), (3, 4)]);
        // Retract 3 -> 4: `edge` is rebuilt from its surviving facts and
        // `path` re-derived.
        let rebuild = BTreeSet::from(["edge".to_string()]);
        let survivors = |rel: &str| match rel {
            "edge" => edb(&[(1, 2), (2, 3)]),
            _ => (vec![Vec::new(); 2], Vec::new()),
        };
        let refresh = refresh_database(
            &executor,
            &mut db,
            &ram,
            &BTreeMap::new(),
            &rebuild,
            &survivors,
        )
        .unwrap();
        assert_eq!(refresh.outputs.keys().collect::<Vec<_>>(), ["edge", "path"]);
        assert!(refresh
            .outputs
            .values()
            .all(|change| matches!(change, RelationChange::Rebuilt)));
        assert_eq!(tuples(&db, "path").len(), 3);

        // Rebuilding to the same content is not a change.
        let refresh = refresh_database(
            &executor,
            &mut db,
            &ram,
            &BTreeMap::new(),
            &rebuild,
            &survivors,
        )
        .unwrap();
        assert!(refresh.outputs.is_empty());
        assert_eq!(refresh.stats.strata, 0);
    }
}
