//! Incremental (delta) maintenance of a materialized fix point.
//!
//! After a full run, a session can keep its [`Database`] — every relation at
//! its fix point, as one sorted table — and re-evaluate only what a batch of
//! fact insertions, retractions, or probability updates can actually affect.
//! [`refresh_database`] implements the refresh in two tiers:
//!
//! * **Tuple level**, for recursive strata under a provenance that is
//!   [`delta_exact`](lobster_provenance::Provenance::delta_exact).
//!   - *Insertion.* A relation that gained rows is held as a split —
//!     `stable` the old table, `recent` its Δ — from the moment it changes
//!     until the refresh ends. The inserted rows seed the split of their
//!     relations; a stratum that reads a split relation is recompiled with
//!     [`compile_stratum_delta`] and run seeded, which joins the old tables
//!     against Δ in its first iteration only and from then on follows its
//!     own frontier; and the seeded run hands its own relations back as the
//!     same kind of split (`Executor::run_stratum_from`: the frontiers it
//!     pushed, merged among themselves, *are* Δ), for the strata downstream.
//!     Where a Δ meets an old table, only the table's rows the Δ's keys name
//!     are read (`lookup`), in the table or in one of its secondary orders.
//!     One `merge` per split relation at the very end is the only pass that
//!     rewrites an old table — and its orders — so an insert costs
//!     O(|Δ| + its derivation cone) plus that one fold, a block copy.
//!   - *Retraction* is delete/re-derive (DRed), in passes over the whole
//!     program that are strata of their own, compiled as from scratch but
//!     with an insert's lookups — their scratch relations are the Δs — and
//!     run by the executor as it runs any other. The passes live in
//!     scratch relations stored beside the materialized ones, in their
//!     layouts, and removed before the refresh returns. (1) An EDB
//!     relation's lost rows Δ⁻ are its old table less its rebuilt one. For
//!     every rule and every body leaf over a relation that may lose rows, a
//!     *deletion rule* `h⁻ :- …, b⁻, …` reads that leaf's losses and the
//!     other leaves' old tables; the rules' joint fix point D is every
//!     derived row with a derivation through a lost one. (2) Each derived
//!     relation keeps the survivors S = old \ D. (3) One non-recursive pass
//!     evaluates the rules of D's relations over S, each head column
//!     restricted by a semijoin with the values D holds there, pushed down
//!     to the leaf column it copies: a rule instance whose head is in D
//!     passes every one, and a big leaf's rows are looked up by the few
//!     values of a filter instead of joined whole. What the pass derives
//!     outside S, with the relation's own asserted rows outside S, is R₀.
//!     (4) R₀ seeds the insertion machinery above, beside any rows the
//!     refresh inserts.
//! * **Stratum-level recompute** for everything else — provenances whose
//!   tags fold information across derivations in rank order (where dropping
//!   re-derivations of existing rows would diverge from a from-scratch run),
//!   strata derived in a single pass (whose rows rest in `recent`, where no
//!   Δ can go), and the strata downstream of those. Affected strata are
//!   recomputed exactly as a from-scratch run recomputes them — the same
//!   compiled strata the caller runs with `Executor::run_strata`, the same
//!   stratum run — so the result is bit-identical by construction;
//!   unaffected strata are skipped entirely and launch zero kernels.
//!
//! Dirtiness propagates along the stratum order: a recomputed relation whose
//! content is bitwise unchanged, or a delta-updated one whose Δ came out
//! empty, does not dirty its consumers. The same bookkeeping yields the
//! report a reader of the outputs needs to stay current without re-reading
//! them ([`Refresh::outputs`]): per output relation, the rows added and
//! where they went, the places of the rows removed, or "rebuilt".

use crate::compiler::{compile_refresh_pass, compile_stratum_delta, CompiledStratum};
use crate::database::{Database, SecondaryOrder, SortedTable, Stable};
use crate::executor::{ExecError, ExecutionStats, Executor};
use lobster_gpu::{Columns, Device};
use lobster_provenance::Provenance;
use lobster_ram::{ByteOp, RamExpr, RamProgram, RamRule, RowProjection, ScalarExpr, Stratum};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// The extensional content of one relation, in fact-registration order:
/// encoded columns plus one input tag per row.
pub type EdbContent<Tag> = (Columns, Vec<Tag>);

/// What changed on the EDB side since a database was last brought up to
/// date: what [`refresh_database`] works from.
pub struct EdbChanges<'a, Tag> {
    /// Rows of the facts registered since then, per relation.
    pub inserted: BTreeMap<String, EdbContent<Tag>>,
    /// Rows of the facts retracted since then that the database holds, per
    /// relation. A row another fact still asserts stays.
    pub retracted: BTreeMap<String, EdbContent<Tag>>,
    /// Relations one of whose facts had its probability changed.
    pub reweighted: BTreeSet<String>,
    /// The full current EDB content of a relation, in fact-registration
    /// order; called lazily, only for the relations a refresh rebuilds or
    /// re-derives.
    pub content: &'a dyn Fn(&str) -> EdbContent<Tag>,
}

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
    /// Rows were removed and nothing else moved.
    Removed {
        /// The indices of the removed rows in the relation's old stored
        /// order, ascending.
        positions: Vec<usize>,
    },
    /// The relation was recomputed, or it both lost and gained rows; how
    /// the result differs from what was there is not reported.
    Rebuilt,
}

/// What [`refresh_database`] did.
#[derive(Debug)]
pub struct Refresh<P: Provenance> {
    /// The merged statistics of every stratum the refresh ran, its
    /// over-deletion and re-derivation passes included. Strata outside the
    /// change cone are skipped and contribute nothing (no kernels, no
    /// iterations).
    pub stats: ExecutionStats,
    /// Every output relation of the program whose content changed; one that
    /// is absent reads exactly as it did before the refresh.
    pub outputs: BTreeMap<String, RelationChange<P>>,
}

/// Suffix of the scratch relation that holds the rows a relation may have
/// lost: the retraction's Δ⁻ of an EDB relation, or what over-deletion
/// removed from a derived one.
const LOST: &str = "⁻";
/// Suffix of the scratch relation that holds rows a relation gains: the Δ⁺
/// of an EDB relation, or the rows a derived one asserts and re-derives.
const GAINED: &str = "⁺";

/// The scratch relations of one refresh, in the database beside the
/// relations they are named after. No source name can spell one: the
/// suffixes are not identifier characters.
#[derive(Default)]
struct Scratch(BTreeSet<String>);

impl Scratch {
    /// `base` with `suffix`: added to the database, with `base`'s columns,
    /// unless it already was.
    fn add<P: Provenance>(&mut self, db: &mut Database<P>, base: &str, suffix: &str) -> String {
        let types = db.schema(base).expect("known relation").arg_types.clone();
        self.add_typed(db, format!("{base}{suffix}"), types)
    }

    fn add_typed<P: Provenance>(
        &mut self,
        db: &mut Database<P>,
        name: String,
        arg_types: Vec<lobster_ram::ValueType>,
    ) -> String {
        if self.0.insert(name.clone()) {
            db.add_relation(&name, arg_types);
        }
        name
    }

    /// Stores `table` as the stable partition of `base` with `suffix`,
    /// added first if need be. An empty table is dropped.
    fn store<P: Provenance>(
        &mut self,
        db: &mut Database<P>,
        device: &Device,
        base: &str,
        suffix: &str,
        table: SortedTable<P>,
    ) {
        if table.is_empty() {
            table.recycle(device);
            return;
        }
        let name = self.add(db, base, suffix);
        let old = std::mem::replace(&mut db.relation_data_mut(&name).stable, table);
        old.recycle(device);
    }

    fn remove_all<P: Provenance>(self, db: &mut Database<P>, device: &Device) {
        for name in self.0 {
            db.remove_relation(device, &name);
        }
    }
}

/// Folds a relation's temporary stable/recent split back into a single
/// stable table, and its Δ half into the relation's secondary orders, and
/// returns that Δ — what `recent` held, which is never empty for a split —
/// with the number of rows the merge of the relation's table wrote.
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
    db.update_orders(device, rel, Stable::Gained(&delta));
    (delta, written)
}

/// The relations a stratum's rules read.
fn reads(stratum: &Stratum) -> Vec<String> {
    let mut referenced = Vec::new();
    for rule in &stratum.rules {
        rule.expr.referenced_relations(&mut referenced);
    }
    referenced
}

/// Which strata may take the tuple-level tier, decided before anything
/// runs from which relations have EDB changes: under a delta-exact
/// provenance, every recursive stratum that reads no relation rebuilt
/// without a tuple-level Δ — one derived in a single pass, or by a stratum
/// that is itself recomputed. Strata the changes cannot reach are `false`.
fn tuple_tier(ram: &RamProgram, edb_changed: &BTreeSet<&str>, delta_exact: bool) -> Vec<bool> {
    let single_pass = |rel: &str| {
        ram.strata
            .iter()
            .any(|s| !s.recursive && s.relations.iter().any(|r| r == rel))
    };
    let mut touched: BTreeSet<&str> = edb_changed.clone();
    let mut rebuilt: BTreeSet<&str> = edb_changed
        .iter()
        .copied()
        .filter(|rel| !delta_exact || single_pass(rel))
        .collect();
    ram.strata
        .iter()
        .map(|stratum| {
            let referenced = reads(stratum);
            let relations = || stratum.relations.iter().chain(&referenced);
            if !relations().any(|r| touched.contains(r.as_str())) {
                return false;
            }
            let tuple = delta_exact
                && stratum.recursive
                && !relations().any(|r| rebuilt.contains(r.as_str()));
            let own = stratum.relations.iter().map(String::as_str);
            touched.extend(own.clone());
            if !tuple {
                rebuilt.extend(own);
            }
            tuple
        })
        .collect()
}

/// A one-stratum program over the relations `stratum` names, with their
/// schemas as the database holds them: what the compiler takes.
fn program_of<P: Provenance>(db: &Database<P>, stratum: Stratum) -> RamProgram {
    let mut names = reads(&stratum);
    names.extend(stratum.relations.iter().cloned());
    let schemas = names
        .into_iter()
        .map(|name| {
            let schema = db.schema(&name).expect("known relation").clone();
            (name, schema)
        })
        .collect();
    RamProgram {
        schemas,
        strata: vec![stratum],
        outputs: Vec::new(),
    }
}

/// `expr` restricted to the rows whose column `column` is a row of the
/// one-column relation `keys`. The semijoin goes down to the leaf the
/// column copies — through projections that copy it, selections, joins,
/// intersections and both sides of a union — so that only that leaf's
/// matching rows enter the rest of the rule; a column a projection computes
/// is filtered where it is computed.
fn restrict(
    expr: &RamExpr,
    column: usize,
    keys: &str,
    relation_arity: &impl Fn(&str) -> Option<usize>,
) -> RamExpr {
    let arity = |e: &RamExpr| e.arity(relation_arity).expect("known relations");
    let boxed = |e: RamExpr| Box::new(e);
    match expr {
        RamExpr::Relation(_) => semijoin(expr.clone(), column, arity(expr), keys),
        RamExpr::Project { input, proj } => match proj.programs[column].ops.as_slice() {
            [ByteOp::PushCol(source)] => {
                restrict(input, *source, keys, relation_arity).project(proj.clone())
            }
            _ => semijoin(expr.clone(), column, arity(expr), keys),
        },
        RamExpr::Select { input, cond } => {
            restrict(input, column, keys, relation_arity).select(cond.clone())
        }
        RamExpr::Join { left, right, width } => {
            let left_arity = arity(left);
            if column < left_arity {
                restrict(left, column, keys, relation_arity).join((**right).clone(), *width)
            } else {
                let right_column = column - left_arity + width;
                (**left)
                    .clone()
                    .join(restrict(right, right_column, keys, relation_arity), *width)
            }
        }
        RamExpr::Product(left, right) => {
            let left_arity = arity(left);
            if column < left_arity {
                RamExpr::Product(
                    boxed(restrict(left, column, keys, relation_arity)),
                    right.clone(),
                )
            } else {
                let right_column = column - left_arity;
                RamExpr::Product(
                    left.clone(),
                    boxed(restrict(right, right_column, keys, relation_arity)),
                )
            }
        }
        RamExpr::Intersect(left, right) => RamExpr::Intersect(
            boxed(restrict(left, column, keys, relation_arity)),
            right.clone(),
        ),
        RamExpr::Union(left, right) => RamExpr::Union(
            boxed(restrict(left, column, keys, relation_arity)),
            boxed(restrict(right, column, keys, relation_arity)),
        ),
    }
}

/// `expr ⋉ keys` on column `column` of `expr`, in `expr`'s column order: a
/// join on the key column brought to the front, and back. The key table is
/// a scratch relation, so the pass's compile looks up a stored relation's
/// matching rows (`lookup`) where it, or one of its secondary orders, is
/// sorted on the column.
fn semijoin(expr: RamExpr, column: usize, arity: usize, keys: &str) -> RamExpr {
    let keys = RamExpr::relation(keys);
    if column == 0 {
        return expr.join(keys, 1);
    }
    let columns = |order: Vec<usize>| {
        RowProjection::new(order.into_iter().map(ScalarExpr::Col).collect(), None)
    };
    let front = std::iter::once(column).chain((0..arity).filter(|&c| c != column));
    // Column `c` sits one place further right at the front when it came
    // before `column`, and where it was when it came after.
    let back = (0..arity).map(|c| match c.cmp(&column) {
        std::cmp::Ordering::Less => c + 1,
        std::cmp::Ordering::Equal => 0,
        std::cmp::Ordering::Greater => c,
    });
    expr.project(columns(front.collect()))
        .join(keys, 1)
        .project(columns(back.collect()))
}

/// `table` less the rows of `known`, recycling `table`.
fn minus<P: Provenance>(
    device: &Device,
    known: &SortedTable<P>,
    table: SortedTable<P>,
) -> SortedTable<P> {
    let kept = known.difference_from(device, &table);
    table.recycle(device);
    kept
}

/// The bookkeeping of one refresh.
struct Refreshing<'a, P: Provenance> {
    executor: &'a Executor<P>,
    device: Device,
    ram: &'a RamProgram,
    run_start: Instant,
    stats: ExecutionStats,
    scratch: Scratch,
    /// The secondary orders the database keeps, which the refresh's
    /// compiles may look rows up in.
    orders: Vec<SecondaryOrder>,
    /// Relations whose content differs from the materialized state.
    changed: BTreeSet<String>,
    /// Relations holding a (stable = old content, recent = Δ) split that
    /// downstream delta strata can consume as a frontier. Folded back to a
    /// single stable table before returning.
    split: BTreeSet<String>,
    /// Relations that lost rows tuple by tuple: `stable` holds what
    /// survived, and their `LOST` scratch relation what did not.
    deleted: BTreeSet<String>,
    /// Relations of `deleted` that also gained rows they did not lose.
    grew: BTreeSet<String>,
}

/// Refreshes a materialized database after a batch of EDB changes.
///
/// Under a [`delta_exact`](lobster_provenance::Provenance::delta_exact)
/// provenance the insertions and retractions of `changes` go tuple by tuple
/// through every recursive stratum they reach (see the module docs), and
/// reweights change nothing: a tag that carries no information beyond
/// membership cannot read a weight. Otherwise — and for relations a stratum
/// derives in a single pass — every relation with a change is rebuilt from
/// `changes.content` and its stratum recomputed.
///
/// `strata` are `ram`'s strata compiled as a from-scratch run compiles them
/// ([`compile_stratum_with_options`](crate::compile_stratum_with_options)
/// with the executor's options), one per stratum and in order: the
/// recompute tier runs them as they are. What the tuple-level tier compiles
/// is counted in [`ExecutionStats::strata_compiled`].
///
/// Returns what ran and what it did to the program's output relations. The
/// executor's `timeout_ms` budget covers the whole refresh.
///
/// # Errors
///
/// Returns an [`ExecError`] on device OOM, timeout, or a hit iteration cap.
/// The database is then part-way through the refresh — some relations
/// updated, some still split, scratch relations beside them — and must be
/// rebuilt, not refreshed again.
pub fn refresh_database<P: Provenance>(
    executor: &Executor<P>,
    db: &mut Database<P>,
    ram: &RamProgram,
    strata: &[CompiledStratum],
    changes: &EdbChanges<'_, P::Tag>,
) -> Result<Refresh<P>, ExecError> {
    debug_assert_eq!(strata.len(), ram.strata.len(), "one compiled stratum each");
    let delta_exact = db.provenance().delta_exact();
    let mut edb_changed: BTreeSet<&str> = changes
        .inserted
        .keys()
        .chain(changes.retracted.keys())
        .map(String::as_str)
        .collect();
    if !delta_exact {
        edb_changed.extend(changes.reweighted.iter().map(String::as_str));
    }
    let plan = tuple_tier(ram, &edb_changed, delta_exact);
    let mut refresh = Refreshing {
        executor,
        device: executor.device().clone(),
        ram,
        run_start: Instant::now(),
        stats: ExecutionStats::default(),
        scratch: Scratch::default(),
        orders: db.orders(),
        changed: BTreeSet::new(),
        split: BTreeSet::new(),
        deleted: BTreeSet::new(),
        grew: BTreeSet::new(),
    };
    if delta_exact {
        refresh.stage(db, changes, &edb_changed, &plan);
        refresh.over_delete(db, &plan)?;
        refresh.rederive(db, changes, &plan)?;
        refresh.seed(db);
    } else {
        refresh.rebuild_edb(db, changes, &edb_changed);
    }
    for ((stratum, compiled), &planned) in ram.strata.iter().zip(strata).zip(&plan) {
        refresh.refresh_stratum(db, changes, stratum, compiled, planned, delta_exact)?;
    }
    Ok(refresh.finish(db))
}

impl<P: Provenance> Refreshing<'_, P> {
    /// Compiles one pass of a retraction — every scratch relation drives
    /// the joins it is in — and runs it to its fix point.
    fn run_pass(&mut self, db: &mut Database<P>, stratum: Stratum) -> Result<(), ExecError> {
        let program = program_of(db, stratum);
        let stratum = &program.strata[0];
        let compiled = compile_refresh_pass(stratum, &program, &self.scratch.0, &self.orders);
        self.stats.strata_compiled += 1;
        let ran = self
            .executor
            .run_stratum_from(db, &compiled, self.run_start, true)?;
        self.stats.merge(&ran);
        Ok(())
    }

    /// Rebuilds every changed EDB relation from its current content — the
    /// recompute tier's entry. Pure EDB relations whose rebuilt content is
    /// bitwise unchanged (e.g. a retract-then-reinsert of the same fact) are
    /// pruned from the change set; derived relations are reset by their
    /// defining stratum.
    fn rebuild_edb(
        &mut self,
        db: &mut Database<P>,
        changes: &EdbChanges<'_, P::Tag>,
        edb_changed: &BTreeSet<&str>,
    ) {
        let device = &self.device;
        for &rel in edb_changed {
            if self
                .ram
                .strata
                .iter()
                .any(|s| s.relations.iter().any(|r| r == rel))
            {
                self.changed.insert(rel.to_string());
                continue;
            }
            let (cols, tags) = (changes.content)(rel);
            let new = db.encoded_from_unsorted(device, rel, cols, tags, false);
            let data = db.relation_data_mut(rel);
            debug_assert!(
                data.recent.is_empty(),
                "EDB relation `{rel}` has a frontier"
            );
            if data.stable.columns == new.columns && data.stable.tags == new.tags {
                new.recycle(device);
                continue;
            }
            let old = std::mem::replace(&mut data.stable, new);
            old.recycle(device);
            self.changed.insert(rel.to_string());
        }
    }

    /// Stages each EDB change of a delta-exact refresh in scratch relations,
    /// leaving every materialized table as it is for over-deletion to read:
    /// an EDB relation's lost and gained rows (old table less rebuilt one,
    /// and the other way round; or the inserted rows less the old table), a
    /// derived relation's own asserted rows and, of its retracted ones, those
    /// no fact asserts any more. A relation some stratum derives in a single
    /// pass, or a retraction from a derived relation whose stratum is
    /// recomputed, is only marked changed: the recompute rebuilds it.
    fn stage(
        &mut self,
        db: &mut Database<P>,
        changes: &EdbChanges<'_, P::Tag>,
        edb_changed: &BTreeSet<&str>,
        plan: &[bool],
    ) {
        let device = &self.device;
        let scratch = &mut self.scratch;
        for &rel in edb_changed {
            let defined_by = self
                .ram
                .strata
                .iter()
                .position(|s| s.relations.iter().any(|r| r == rel));
            let retracted = changes.retracted.get(rel);
            match defined_by {
                Some(s) if !self.ram.strata[s].recursive || (retracted.is_some() && !plan[s]) => {
                    self.changed.insert(rel.to_string());
                }
                Some(_) => {
                    let encode = |db: &mut Database<P>, (cols, tags): &EdbContent<P::Tag>| {
                        db.encoded_from_unsorted(device, rel, cols.clone(), tags.clone(), false)
                    };
                    let asserted = match retracted {
                        Some(rows) => {
                            let asserted = encode(db, &(changes.content)(rel));
                            let gone = minus(device, &asserted, encode(db, rows));
                            scratch.store(db, device, rel, LOST, gone);
                            asserted
                        }
                        None => encode(db, &changes.inserted[rel]),
                    };
                    scratch.store(db, device, rel, GAINED, asserted);
                }
                None if retracted.is_some() => {
                    let (cols, tags) = (changes.content)(rel);
                    let new = db.encoded_from_unsorted(device, rel, cols, tags, false);
                    let old = &db.relation_data(rel).stable;
                    let (lost, gained) =
                        (new.difference_from(device, old), minus(device, old, new));
                    scratch.store(db, device, rel, LOST, lost);
                    scratch.store(db, device, rel, GAINED, gained);
                }
                None => {
                    let (cols, tags) = &changes.inserted[rel];
                    let gained =
                        db.encoded_from_unsorted(device, rel, cols.clone(), tags.clone(), true);
                    scratch.store(db, device, rel, GAINED, gained);
                }
            }
        }
    }

    /// Over-deletion: one stratum of deletion rules for every planned
    /// stratum that reads, or defines, a relation that may lose rows, run to
    /// its fix point against the old tables; then each relation that lost
    /// rows keeps its survivors.
    fn over_delete(&mut self, db: &mut Database<P>, plan: &[bool]) -> Result<(), ExecError> {
        let mut losing: BTreeSet<String> = self
            .scratch
            .0
            .iter()
            .filter_map(|name| name.strip_suffix(LOST))
            .map(str::to_string)
            .collect();
        if losing.is_empty() {
            return Ok(());
        }
        let mut deletion = Stratum {
            recursive: true,
            ..Stratum::default()
        };
        for (stratum, _) in self.ram.strata.iter().zip(plan).filter(|(_, &p)| p) {
            let referenced = reads(stratum);
            if !stratum
                .relations
                .iter()
                .chain(&referenced)
                .any(|r| losing.contains(r))
            {
                continue;
            }
            losing.extend(stratum.relations.iter().cloned());
            for rel in &stratum.relations {
                let name = self.scratch.add(db, rel, LOST);
                deletion.relations.push(name);
            }
            for rule in &stratum.rules {
                let mut leaves = Vec::new();
                rule.expr.referenced_relations(&mut leaves);
                let lost_leaves = leaves
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| losing.contains(*l));
                for (leaf, _) in lost_leaves {
                    let mut at = 0;
                    let expr = rule.expr.map_leaves(&mut |name| {
                        let here = at;
                        at += 1;
                        if here == leaf {
                            RamExpr::relation(format!("{name}{LOST}"))
                        } else {
                            RamExpr::relation(name)
                        }
                    });
                    deletion.rules.push(RamRule {
                        target: format!("{}{LOST}", rule.target),
                        expr,
                    });
                }
            }
        }
        if !deletion.relations.is_empty() {
            self.run_pass(db, deletion)?;
        }
        let derived: BTreeSet<&String> =
            self.ram.strata.iter().flat_map(|s| &s.relations).collect();
        for rel in &losing {
            let lost_name = format!("{rel}{LOST}");
            let lost = db.relation_data(&lost_name).stable.len();
            if lost == 0 {
                continue;
            }
            if derived.contains(rel) {
                self.stats.facts_over_deleted += lost;
            }
            let lost = db.relation_data_mut(&lost_name).stable.take();
            db.relation_data_mut(rel)
                .stable
                .remove_rows(&self.device, &lost);
            db.update_orders(&self.device, rel, Stable::Lost(&lost));
            db.relation_data_mut(&lost_name).stable = lost;
            self.deleted.insert(rel.clone());
            self.changed.insert(rel.clone());
        }
        Ok(())
    }

    /// One scratch relation per column of `rel`, holding the distinct
    /// values its over-deleted rows have in that column: the filters
    /// re-derivation restricts a rule for `rel` by.
    fn column_keys(&mut self, db: &mut Database<P>, rel: &str) -> Vec<String> {
        let lost_name = format!("{rel}{LOST}");
        let lost = &db.relation_data(&lost_name).stable;
        let wide = db.wide_columns(&self.device, &lost_name, lost);
        let tags = lost.tags.clone();
        let types = db.schema(rel).expect("known relation").arg_types.clone();
        wide.into_iter()
            .zip(types)
            .enumerate()
            .map(|(column, (values, ty))| {
                let name = self
                    .scratch
                    .add_typed(db, format!("{lost_name}{column}"), vec![ty]);
                let keys = db.encoded_from_unsorted(
                    &self.device,
                    &name,
                    vec![values],
                    tags.clone(),
                    false,
                );
                db.relation_data_mut(&name).stable = keys;
                name
            })
            .collect()
    }

    /// Re-derivation's one pass: every rule of a relation that lost rows,
    /// over the survivors and restricted to the values the lost rows hold in
    /// each head column, into the relation's `GAINED` scratch relation —
    /// which starts out as the relation's own asserted rows, so those come
    /// back too.
    fn rederive(
        &mut self,
        db: &mut Database<P>,
        changes: &EdbChanges<'_, P::Tag>,
        plan: &[bool],
    ) -> Result<(), ExecError> {
        let ram = self.ram;
        let mut pass = Stratum::default();
        for (stratum, _) in ram.strata.iter().zip(plan).filter(|(_, &p)| p) {
            let mut filters = BTreeMap::new();
            let lost: Vec<&String> = stratum
                .relations
                .iter()
                .filter(|r| self.deleted.contains(*r))
                .collect();
            for rel in lost {
                let (cols, tags) = (changes.content)(rel);
                let asserted = db.encoded_from_unsorted(&self.device, rel, cols, tags, false);
                let name = self.scratch.add(db, rel, GAINED);
                let stale = std::mem::replace(&mut db.relation_data_mut(&name).stable, asserted);
                stale.recycle(&self.device);
                pass.relations.push(name);
                filters.insert(rel, self.column_keys(db, rel));
            }
            for rule in stratum.rules.iter() {
                let Some(keys) = filters.get(&rule.target) else {
                    continue;
                };
                let arity = |name: &str| db.schema(name).map(|schema| schema.arity());
                let mut expr = rule.expr.clone();
                for (column, keys) in keys.iter().enumerate() {
                    expr = restrict(&expr, column, keys, &arity);
                }
                pass.rules.push(RamRule {
                    target: format!("{}{GAINED}", rule.target),
                    expr,
                });
            }
        }
        if !pass.relations.is_empty() {
            self.run_pass(db, pass)?;
        }
        Ok(())
    }

    /// Moves what each relation gains into its `recent`, less what it
    /// already holds: the splits the strata below start from. An EDB
    /// relation that lost rows is settled here.
    fn seed(&mut self, db: &mut Database<P>) {
        let device = &self.device;
        let gaining: Vec<String> = self
            .scratch
            .0
            .iter()
            .filter_map(|name| name.strip_suffix(GAINED))
            .map(str::to_string)
            .collect();
        for rel in gaining {
            let plus = db.relation_data_mut(&format!("{rel}{GAINED}"));
            let (asserted, derived) = (plus.stable.take(), plus.recent.take());
            let data = db.relation_data_mut(&rel);
            debug_assert!(
                data.recent.is_empty(),
                "relation `{rel}` already has a live frontier"
            );
            let asserted = minus(device, &data.stable, asserted);
            let derived = minus(device, &data.stable, derived);
            data.recent = SortedTable::merge_disjoint_owned(device, asserted, derived);
            if !data.recent.is_empty() {
                self.changed.insert(rel.clone());
                self.split.insert(rel);
            }
        }
        let derived: BTreeSet<&String> =
            self.ram.strata.iter().flat_map(|s| &s.relations).collect();
        for rel in self.deleted.iter().filter(|r| !derived.contains(r)) {
            if !db.relation_data(rel).recent.is_empty() {
                self.grew.insert(rel.clone());
            }
        }
    }

    /// After its stratum, what a derived relation that lost rows did not get
    /// back: its `LOST` rows less what the refresh derived again, which
    /// `facts_rederived` counts. One that also gained rows it had not lost
    /// has `grew` set.
    fn settle(&mut self, db: &mut Database<P>, rel: &str) {
        let lost_name = format!("{rel}{LOST}");
        let regained = &db.relation_data(rel).recent;
        if regained.is_empty() {
            return;
        }
        let lost = db.relation_data_mut(&lost_name).stable.take();
        let gone = db
            .relation_data(rel)
            .recent
            .difference_from(&self.device, &lost);
        let rederived = lost.len() - gone.len();
        self.stats.facts_rederived += rederived;
        if db.relation_data(rel).recent.len() > rederived {
            self.grew.insert(rel.to_string());
        }
        lost.recycle(&self.device);
        db.relation_data_mut(&lost_name).stable = gone;
    }

    /// Brings one stratum up to date, on the tier its changes allow;
    /// `compiled` is the stratum as a from-scratch run compiles it.
    fn refresh_stratum(
        &mut self,
        db: &mut Database<P>,
        changes: &EdbChanges<'_, P::Tag>,
        stratum: &Stratum,
        compiled: &CompiledStratum,
        planned: bool,
        delta_exact: bool,
    ) -> Result<(), ExecError> {
        let device = self.device.clone();
        let referenced = reads(stratum);
        let touched = || stratum.relations.iter().chain(&referenced);
        if !touched().any(|r| self.changed.contains(r)) {
            return Ok(());
        }
        // The tuple-level tier needs every changed relation this stratum
        // touches to carry its change tuple by tuple — a live Δ split, or
        // survivors beside the rows they lost (which only a planned stratum
        // over-deleted for). Anything changed via recompute forces the
        // consumer to recompute too.
        let tuple_level = delta_exact
            && stratum.recursive
            && touched()
                .filter(|r| self.changed.contains(*r))
                .all(|r| self.split.contains(r) || self.deleted.contains(r))
            && (planned || !touched().any(|r| self.deleted.contains(r)));
        if tuple_level {
            // Tuple-level semi-naive insertion. The seeded run hands every
            // own relation back as the split downstream strata read: the
            // old table (or its survivors) in `stable`, untouched, and what
            // it derived (with what was seeded) in `recent`.
            let changed_inputs: BTreeSet<String> = referenced
                .iter()
                .filter(|r| self.split.contains(*r) && !stratum.relations.contains(r))
                .cloned()
                .collect();
            if !changed_inputs.is_empty()
                || stratum.relations.iter().any(|r| self.split.contains(r))
            {
                let options = self.executor.options();
                let compiled = compile_stratum_delta(
                    stratum,
                    self.ram,
                    &changed_inputs,
                    &self.orders,
                    options,
                );
                self.stats.strata_compiled += 1;
                let ran = self
                    .executor
                    .run_stratum_from(db, &compiled, self.run_start, false)?;
                self.stats.merge(&ran);
                for rel in &stratum.relations {
                    if !db.relation_data(rel).recent.is_empty() {
                        self.changed.insert(rel.clone());
                        self.split.insert(rel.clone());
                    }
                }
            }
            for rel in &stratum.relations {
                if self.deleted.contains(rel) {
                    self.settle(db, rel);
                }
            }
            return Ok(());
        }
        // Stratum-level recompute: restore the exact stratum-entry state of
        // a from-scratch run, then replay it.
        for rel in referenced
            .iter()
            .filter(|r| !stratum.relations.contains(*r))
        {
            if self.split.remove(rel.as_str()) {
                // Loads assume single sorted partitions; fold the split. What
                // the relation gained or lost is no longer reported.
                let (delta, written) = fold_split(&device, db, rel);
                self.stats.update_rows_written += written;
                delta.recycle(&device);
                self.deleted.remove(rel.as_str());
            }
        }
        let old_tables: Vec<(String, SortedTable<P>, SortedTable<P>)> = stratum
            .relations
            .iter()
            .map(|rel| {
                let (cols, tags) = (changes.content)(rel);
                let new = db.encoded_from_unsorted(&device, rel, cols, tags, false);
                // A pending EDB seed on this relation is subsumed by the
                // full rebuild.
                self.split.remove(rel);
                let data = db.relation_data_mut(rel);
                let old_stable = std::mem::replace(&mut data.stable, new);
                (rel.clone(), old_stable, data.recent.take())
            })
            .collect();
        let ran = self
            .executor
            .run_stratum_from(db, compiled, self.run_start, true)?;
        self.stats.merge(&ran);
        for (rel, old_stable, old_recent) in old_tables {
            let data = db.relation_data(&rel);
            let same = data.stable.columns == old_stable.columns
                && data.stable.tags == old_stable.tags
                && data.recent.columns == old_recent.columns
                && data.recent.tags == old_recent.tags;
            if !same {
                db.update_orders(&device, &rel, Stable::Rebuilt);
                self.changed.insert(rel);
            }
            old_stable.recycle(&device);
            old_recent.recycle(&device);
        }
        Ok(())
    }

    /// Restores the canonical single-table state of every still-split
    /// relation (matching what a from-scratch seal/convergence leaves) — the
    /// one pass of the tuple-level path that rewrites a table — drops the
    /// scratch relations, and reports each changed output relation: an
    /// insertion with its Δ and the place the merge gave each row (taken
    /// before the merge, from the same comparison), a removal with the
    /// places the lost rows had, or a rebuild.
    fn finish(mut self, db: &mut Database<P>) -> Refresh<P> {
        let device = self.device.clone();
        let mut outputs = BTreeMap::new();
        for rel in &self.split {
            let inserted = self.ram.outputs.contains(rel) && !self.deleted.contains(rel);
            let positions = inserted.then(|| {
                let data = db.relation_data(rel);
                data.stable.merge_positions(&device, &data.recent)
            });
            let (rows, written) = fold_split(&device, db, rel);
            self.stats.update_rows_written += written;
            match positions {
                Some(positions) => {
                    outputs.insert(rel.clone(), RelationChange::Inserted { rows, positions });
                }
                None => rows.recycle(&device),
            }
        }
        for rel in &self.ram.outputs {
            if self.deleted.contains(rel) {
                let lost = &db.relation_data(&format!("{rel}{LOST}")).stable;
                let change = if self.grew.contains(rel) {
                    RelationChange::Rebuilt
                } else if !lost.is_empty() {
                    let positions = db.relation_data(rel).stable.merge_positions(&device, lost);
                    RelationChange::Removed { positions }
                } else {
                    continue;
                };
                outputs.insert(rel.clone(), change);
            } else if self.changed.contains(rel) && !self.split.contains(rel) {
                outputs.insert(rel.clone(), RelationChange::Rebuilt);
            }
        }
        self.scratch.remove_all(db, &device);
        debug_assert!(
            db.stale_orders(&device).is_empty(),
            "secondary orders out of step with their relations: {:?}",
            db.stale_orders(&device)
        );
        Refresh {
            stats: self.stats,
            outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeOptions;
    use lobster_datalog::parse;
    use lobster_provenance::{MaxMinProb, Unit};
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

    fn edb<T: Clone>(edges: &[(u32, u32)], tag: T) -> EdbContent<T> {
        let columns = vec![
            edges.iter().map(|(x, _)| u64::from(*x)).collect(),
            edges.iter().map(|(_, y)| u64::from(*y)).collect(),
        ];
        (columns, vec![tag; edges.len()])
    }

    fn materialized_with<P: Provenance>(
        provenance: P,
        tag: P::Tag,
        edges: &[(u32, u32)],
    ) -> (RamProgram, Executor<P>, Database<P>) {
        let ram = parse(SOURCE).unwrap().ram;
        let device = Device::sequential();
        let mut db = Database::new(ram.schemas.clone(), provenance.clone());
        for (x, y) in edges {
            db.insert("edge", &[Value::U32(*x), Value::U32(*y)], tag.clone());
        }
        db.insert("colour", &[Value::U32(1), Value::U32(7)], tag);
        db.seal(&device);
        let executor = Executor::new(device, provenance, RuntimeOptions::default());
        executor.run_program(&mut db, &ram).unwrap();
        (ram, executor, db)
    }

    fn materialized(edges: &[(u32, u32)]) -> (RamProgram, Executor<Unit>, Database<Unit>) {
        materialized_with(Unit::new(), (), edges)
    }

    /// `ram`'s strata as a from-scratch run compiles them.
    fn strata(ram: &RamProgram) -> Vec<CompiledStratum> {
        let options = RuntimeOptions::default();
        let compile = |stratum| crate::compile_stratum_with_options(stratum, ram, &options);
        ram.strata.iter().map(compile).collect()
    }

    fn tuples<P: Provenance>(db: &Database<P>, relation: &str) -> Vec<Tuple> {
        db.rows(relation).into_iter().map(|(t, _)| t).collect()
    }

    /// The changes of a refresh that inserts `inserted` and retracts
    /// `retracted` from `edge`, whose content is then `edges`.
    fn edge_changes<'a, T: Clone>(
        inserted: &[(u32, u32)],
        retracted: &[(u32, u32)],
        tag: T,
        content: &'a dyn Fn(&str) -> EdbContent<T>,
    ) -> EdbChanges<'a, T> {
        let of = |rows: &[(u32, u32)]| {
            (!rows.is_empty())
                .then(|| ("edge".to_string(), edb(rows, tag.clone())))
                .into_iter()
                .collect()
        };
        EdbChanges {
            inserted: of(inserted),
            retracted: of(retracted),
            reweighted: BTreeSet::new(),
            content,
        }
    }

    /// After a refresh, every relation is what a from-scratch run on the
    /// same facts leaves, bit for bit, and no scratch relation is left.
    fn assert_scratch_equal(db: &Database<Unit>, edges: &[(u32, u32)]) {
        let (_, _, scratch) = materialized(edges);
        assert_eq!(db.relation_names(), scratch.relation_names());
        for rel in ["path", "edge", "painted"] {
            let (got, want) = (db.relation_data(rel), scratch.relation_data(rel));
            assert_eq!(got.stable.columns, want.stable.columns, "`{rel}`");
            assert_eq!(got.recent.columns, want.recent.columns, "`{rel}`");
        }
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
        let unread = |_: &str| unreachable!("an insertion reads no EDB content");
        let changes = edge_changes(&[(3, 4)], &[], (), &unread);
        let refresh = refresh_database(&executor, &mut db, &ram, &strata(&ram), &changes).unwrap();
        assert_eq!(refresh.stats.facts_produced, 6);
        assert_eq!(
            refresh.stats.strata_compiled, 1,
            "the delta stratum of `path`"
        );
        assert_eq!(
            refresh.outputs.keys().collect::<Vec<_>>(),
            ["edge", "path"],
            "`painted` is not in the change cone"
        );
        for (rel, change) in &refresh.outputs {
            let RelationChange::Inserted { rows, positions } = change else {
                panic!("`{rel}` was not reported as an insertion");
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
        assert_scratch_equal(&db, &[(4, 5), (1, 2), (2, 3), (3, 4)]);

        // The same fact again changes nothing and reports nothing.
        let again = refresh_database(&executor, &mut db, &ram, &strata(&ram), &changes).unwrap();
        assert!(again.outputs.is_empty());
        assert_eq!(again.stats, ExecutionStats::default());
    }

    #[test]
    fn a_retraction_reports_the_removed_rows_and_where_they_were() {
        // A diamond 1 -> {2, 3} -> 4 -> 5. Without 2 -> 4, the paths from 2
        // beyond it are gone, while 1 still reaches 4 and 5 through 3: they
        // are over-deleted with the rest and derived again.
        let base = [(1, 2), (2, 4), (1, 3), (3, 4), (4, 5)];
        let survivors = [(1, 2), (1, 3), (3, 4), (4, 5)];
        let (ram, executor, mut db) = materialized(&base);
        let before: BTreeMap<&str, Vec<Tuple>> =
            ["path", "edge"].map(|rel| (rel, tuples(&db, rel))).into();
        let content = |rel: &str| match rel {
            "edge" => edb(&survivors, ()),
            _ => (vec![Vec::new(); 2], Vec::new()),
        };
        let changes = edge_changes(&[], &[(2, 4)], (), &content);
        let refresh = refresh_database(&executor, &mut db, &ram, &strata(&ram), &changes).unwrap();
        assert_eq!(
            refresh.stats.facts_over_deleted, 4,
            "(2, 4) (2, 5) (1, 4) (1, 5)"
        );
        assert_eq!(refresh.stats.facts_rederived, 2, "(1, 4) (1, 5)");
        assert_eq!(
            refresh.outputs.keys().collect::<Vec<_>>(),
            ["edge", "path"],
            "`painted` is not in the change cone"
        );
        for (rel, change) in &refresh.outputs {
            let RelationChange::Removed { positions } = change else {
                panic!("`{rel}` was not reported as a removal");
            };
            // Dropping the reported places from the old rows gives what the
            // database now holds, in its order.
            let mut expected = before[rel.as_str()].clone();
            assert_eq!(positions.len(), if rel == "path" { 2 } else { 1 });
            for &at in positions.iter().rev() {
                expected.remove(at);
            }
            assert_eq!(tuples(&db, rel), expected, "`{rel}`");
        }
        assert_scratch_equal(&db, &survivors);
    }

    #[test]
    fn a_recompute_reports_rebuilt_for_what_changed_and_nothing_for_the_rest() {
        // Max-min is not delta-exact: a retraction rebuilds `edge` from its
        // surviving facts and re-derives `path`.
        let (ram, executor, mut db) =
            materialized_with(MaxMinProb::new(), 0.5, &[(1, 2), (2, 3), (3, 4)]);
        let survivors = |rel: &str| match rel {
            "edge" => edb(&[(1, 2), (2, 3)], 0.5),
            _ => (vec![Vec::new(); 2], Vec::new()),
        };
        let changes = edge_changes(&[], &[(3, 4)], 0.5, &survivors);
        let refresh = refresh_database(&executor, &mut db, &ram, &strata(&ram), &changes).unwrap();
        assert_eq!(refresh.outputs.keys().collect::<Vec<_>>(), ["edge", "path"]);
        assert!(refresh.stats.strata > 0);
        assert_eq!(
            refresh.stats.strata_compiled, 0,
            "a recompute compiles nothing"
        );
        assert!(refresh
            .outputs
            .values()
            .all(|change| matches!(change, RelationChange::Rebuilt)));
        assert_eq!(tuples(&db, "path").len(), 3);

        // Rebuilding to the same content is not a change.
        let refresh = refresh_database(&executor, &mut db, &ram, &strata(&ram), &changes).unwrap();
        assert!(refresh.outputs.is_empty());
        assert_eq!(refresh.stats.strata, 0);
    }

    /// Symbol-keyed TC beside a relation a single-pass stratum derives and
    /// `path` reads: a change to `hop` rebuilds `link`, which sends `path`'s
    /// stratum to the recompute tier.
    const SYMBOL_TC: &str = "type edge(x: symbol, y: symbol)
         type hop(x: symbol, y: symbol)
         rel link(x, y) = hop(x, y)
         rel path(x, y) = edge(x, y) or link(x, y) or (path(x, z) and edge(z, y))
         query path";

    /// One fact: its relation and its two symbol ids.
    type Fact = (&'static str, [u32; 2]);

    /// The EDB content of `rel` among `facts`, in registration order.
    fn content_of(facts: &[Fact], rel: &str) -> EdbContent<()> {
        let rows: Vec<&[u32; 2]> = facts.iter().filter(|f| f.0 == rel).map(|f| &f.1).collect();
        let column = |c: usize| rows.iter().map(|row| u64::from(row[c])).collect();
        (vec![column(0), column(1)], vec![(); rows.len()])
    }

    /// `facts` per relation, as a refresh takes inserted or retracted rows.
    fn rows_by_relation(facts: &[Fact]) -> BTreeMap<String, EdbContent<()>> {
        let relations: BTreeSet<&str> = facts.iter().map(|f| f.0).collect();
        relations
            .into_iter()
            .map(|rel| (rel.to_string(), content_of(facts, rel)))
            .collect()
    }

    /// A database over `facts` at its fix point, keeping the orders the
    /// planner names for `ram`.
    fn materialized_symbols(ram: &RamProgram, device: &Device, facts: &[Fact]) -> Database<Unit> {
        let spec = crate::EncodingSpec::default();
        let mut db = Database::new_encoded(ram.schemas.clone(), Unit::new(), &spec);
        for (rel, [x, y]) in facts {
            db.insert(rel, &[Value::Symbol(*x), Value::Symbol(*y)], ());
        }
        db.seal(device);
        let executor = Executor::new(device.clone(), Unit::new(), RuntimeOptions::default());
        executor.run_program(&mut db, ram).unwrap();
        db.build_orders(device, &crate::secondary_orders(ram));
        db
    }

    #[test]
    fn secondary_orders_follow_their_relations_through_random_traces() {
        // After every step of a random insert / retract / reweight trace,
        // the order equals its relation re-sorted key-first, bit for bit,
        // and the relations decode to what a from-scratch run derives. Steps
        // that change `hop` take the recompute tier; inserts bring new
        // symbols, so the dictionary grows and every table is re-encoded,
        // once past the width of one byte.
        let ram = parse(SYMBOL_TC).unwrap().ram;
        let path_on_z = SecondaryOrder {
            relation: "path".to_string(),
            key: vec![1],
        };
        assert_eq!(crate::secondary_orders(&ram), [path_on_z]);
        let device = Device::sequential();
        let executor = Executor::new(device.clone(), Unit::new(), RuntimeOptions::default());
        for seed in 1..5u64 {
            let mut state = seed;
            let mut below = |bound: u32| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % u64::from(bound)) as u32
            };
            let mut facts: Vec<Fact> = (0..12).map(|i| ("edge", [i, i + 1])).collect();
            let mut db = materialized_symbols(&ram, &device, &facts);
            let mut symbols = 13;
            for step in 0..24 {
                let (mut inserted, mut retracted, mut reweighted) =
                    (Vec::new(), Vec::new(), BTreeSet::new());
                let rel = if step % 5 == 3 { "hop" } else { "edge" };
                match below(4) {
                    _ if step == 10 => {
                        // 250 new symbols, in edges of their own.
                        let pair = |i: u32| ("edge", [symbols + 2 * i, symbols + 2 * i + 1]);
                        inserted.extend((0..125).map(pair));
                        symbols += 250;
                    }
                    0 | 1 => {
                        for _ in 0..1 + below(3) {
                            let mut node = || match below(3) {
                                0 => {
                                    symbols += 1;
                                    symbols
                                }
                                _ => below(symbols),
                            };
                            inserted.push((rel, [node(), node()]));
                        }
                    }
                    2 if !facts.is_empty() => {
                        for _ in 0..1 + below(2) {
                            if let Some(at) = (!facts.is_empty()).then(|| below(facts.len() as u32))
                            {
                                retracted.push(facts.remove(at as usize));
                            }
                        }
                    }
                    _ => {
                        reweighted.insert(rel.to_string());
                    }
                }
                facts.extend(inserted.iter().copied());
                let content = |rel: &str| content_of(&facts, rel);
                let changes = EdbChanges {
                    inserted: rows_by_relation(&inserted),
                    retracted: rows_by_relation(&retracted),
                    reweighted,
                    content: &content,
                };
                refresh_database(&executor, &mut db, &ram, &strata(&ram), &changes).unwrap();
                let ctx = format!("seed {seed}, step {step}");
                assert_eq!(db.stale_orders(&device), [], "{ctx}");
                let scratch = materialized_symbols(&ram, &device, &facts);
                for rel in ["edge", "hop", "link", "path"] {
                    assert_eq!(tuples(&db, rel), tuples(&scratch, rel), "`{rel}`, {ctx}");
                }
            }
        }
    }
}
