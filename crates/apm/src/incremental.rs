//! Incremental (delta) maintenance of a materialized fix point.
//!
//! After a full run, a session can keep its [`Database`] — every relation's
//! stable/recent split at the fix point — and re-evaluate only what a batch
//! of fact insertions, retractions, or probability updates can actually
//! affect. [`refresh_database`] implements the refresh in two tiers:
//!
//! * **Tuple-level semi-naive insertion** for recursive strata whose
//!   provenance is [`delta_exact`](lobster_provenance::Provenance::delta_exact)
//!   and whose refresh is insert-only: the newly inserted rows are seeded
//!   into the `recent` partition of their relations, the stratum is
//!   recompiled with [`compile_stratum_delta`] (widening the semi-naive
//!   variant expansion to the changed inputs), and the executor iterates
//!   until the insertion frontier drains. Work scales with |Δ| and the size
//!   of its derivation cone, not |DB|.
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
//! Dirtiness propagates along the stratum order: a recomputed or
//! delta-updated relation whose content (including the stable/recent split)
//! is bitwise unchanged does not dirty its consumers.

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

/// Folds a relation's temporary stable/recent split back into a single
/// stable table. `folded` may hold the precomputed result (saved by the
/// delta path, bitwise equal to the merge) to avoid re-merging.
fn fold_split<P: Provenance>(
    device: &Device,
    db: &mut Database<P>,
    rel: &str,
    folded: &mut BTreeMap<String, SortedTable<P>>,
) {
    let data = db.relation_data_mut(rel);
    let arity = data.stable.arity();
    let stable = std::mem::replace(&mut data.stable, SortedTable::empty(arity));
    let recent = std::mem::replace(&mut data.recent, SortedTable::empty(arity));
    match folded.remove(rel) {
        Some(full) => {
            stable.recycle(device);
            recent.recycle(device);
            db.relation_data_mut(rel).stable = full;
        }
        None => {
            db.relation_data_mut(rel).stable =
                SortedTable::merge_disjoint_owned(device, stable, recent);
        }
    }
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
/// Returns the executed strata's merged statistics. Strata outside the
/// change cone are skipped and contribute nothing (no kernels, no
/// iterations). The executor's `timeout_ms` budget covers the whole refresh.
///
/// # Errors
///
/// Returns an [`ExecError`] on device OOM, timeout, or a hit iteration cap.
pub fn refresh_database<P: Provenance>(
    executor: &Executor<P>,
    db: &mut Database<P>,
    ram: &RamProgram,
    inserted: &BTreeMap<String, EdbContent<P::Tag>>,
    rebuild: &BTreeSet<String>,
    edb: &dyn Fn(&str) -> EdbContent<P::Tag>,
) -> Result<ExecutionStats, ExecError> {
    let device = executor.device().clone();
    let run_start = Instant::now();
    let mut stats = ExecutionStats::default();

    // Relations whose content differs from the materialized state.
    let mut changed: BTreeSet<String> = BTreeSet::new();
    // Relations currently holding a (stable = old content, recent = Δ)
    // split that downstream delta strata can consume as a frontier. Folded
    // back to a single stable table before returning.
    let mut seeded: BTreeSet<String> = BTreeSet::new();
    // Saved post-run stable tables for delta-updated relations (bitwise
    // equal to folding their split), reused by `fold_split`.
    let mut folded: BTreeMap<String, SortedTable<P>> = BTreeMap::new();

    let idb: BTreeSet<&String> = ram.strata.iter().flat_map(|s| &s.relations).collect();

    // Seed the insertion frontier: recent ← Δ \ stable. Rows already
    // present are dropped here (the provenance is delta-exact, so their
    // tags carry no new information), which keeps double-inserts idempotent
    // and the disjointness invariant of the final fold intact.
    for (rel, (cols, tags)) in inserted {
        let table = db.encoded_from_unsorted(&device, rel, cols.clone(), tags.clone());
        let data = db.relation_data_mut(rel);
        let delta = data.stable.difference_from_owned(&device, table);
        if delta.is_empty() {
            continue;
        }
        debug_assert!(
            data.recent.is_empty(),
            "relation `{rel}` already has a live frontier"
        );
        data.recent = delta;
        changed.insert(rel.clone());
        seeded.insert(rel.clone());
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
        let new = db.encoded_from_unsorted(&device, rel, cols, tags);
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

    if changed.is_empty() {
        return Ok(stats);
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
            .all(|r| seeded.contains(r));

        if stratum.recursive && split_complete {
            // Tuple-level semi-naive insertion.
            let changed_inputs: BTreeSet<String> = referenced
                .iter()
                .filter(|r| changed.contains(*r))
                .cloned()
                .collect();
            let compiled = compile_stratum_delta(stratum, ram, &changed_inputs, executor.options());
            let old_tables: Vec<(String, SortedTable<P>)> = stratum
                .relations
                .iter()
                .map(|rel| (rel.clone(), db.relation_data(rel).stable.clone()))
                .collect();
            stats.merge(&executor.run_stratum_from(db, &compiled, run_start, false)?);
            for (rel, old_stable) in old_tables {
                let data = db.relation_data_mut(&rel);
                debug_assert!(data.recent.is_empty(), "seeded run left a frontier");
                let arity = data.stable.arity();
                let new_stable = std::mem::replace(&mut data.stable, SortedTable::empty(arity));
                let delta = old_stable.difference_from(&device, &new_stable);
                if delta.is_empty() {
                    db.relation_data_mut(&rel).stable = new_stable;
                    old_stable.recycle(&device);
                    continue;
                }
                // Re-split so downstream delta strata see old content as
                // stable and the newly derived rows as their frontier; the
                // post-run stable is saved for the final fold.
                let data = db.relation_data_mut(&rel);
                data.stable = old_stable;
                data.recent = delta;
                folded.insert(rel.clone(), new_stable);
                changed.insert(rel.clone());
                seeded.insert(rel.clone());
            }
        } else {
            // Stratum-level recompute (delete/re-derive): restore the exact
            // stratum-entry state of a from-scratch run, then replay it.
            for rel in referenced
                .iter()
                .filter(|r| !stratum.relations.contains(*r))
            {
                if seeded.remove(rel.as_str()) {
                    // Loads assume single sorted partitions; fold the split.
                    fold_split(&device, db, rel, &mut folded);
                }
            }
            let old_tables: Vec<(String, SortedTable<P>, SortedTable<P>)> = stratum
                .relations
                .iter()
                .map(|rel| {
                    let (cols, tags) = edb(rel);
                    let new = db.encoded_from_unsorted(&device, rel, cols, tags);
                    if seeded.remove(rel) {
                        // A pending EDB seed on this relation is subsumed by
                        // the full rebuild.
                        folded.remove(rel);
                    }
                    let data = db.relation_data_mut(rel);
                    let arity = data.stable.arity();
                    let old_stable = std::mem::replace(&mut data.stable, new);
                    let old_recent = std::mem::replace(&mut data.recent, SortedTable::empty(arity));
                    (rel.clone(), old_stable, old_recent)
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
    // relation (matching what a from-scratch seal/convergence leaves).
    let still_split: Vec<String> = seeded.into_iter().collect();
    for rel in still_split {
        fold_split(&device, db, &rel, &mut folded);
    }
    for (_, table) in folded {
        table.recycle(&device);
    }
    Ok(stats)
}
