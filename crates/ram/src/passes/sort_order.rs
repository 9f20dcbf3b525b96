//! Sort-order inference: which column prefixes of an expression's result
//! arrive lexicographically sorted.
//!
//! Every relation partition is stored as a sorted table (sorted
//! lexicographically by row, deduplicated). The executor's loads therefore
//! produce sorted columns whenever they read a single partition — and, for
//! relations the running stratum does not update, even the combined "all"
//! partition. That rests on the engine's at-rest invariant (documented on
//! `lobster_apm`'s `RelationData` and `Executor::run_stratum_from`): outside
//! its defining stratum's run, every relation — derived by a recursive
//! stratum, by a single-pass one, or by none — is one sorted `stable` table
//! with its `recent` half empty. This pass propagates that invariant
//! through the expression operators:
//!
//! * **project** keeps the longest output prefix that is an identity prefix
//!   of the input (output column `i` reads input column `i`), capped by the
//!   input's sorted prefix; filters drop rows but never reorder them;
//! * **select** preserves the input's sorted prefix unchanged;
//! * **join / union / product / intersect** outputs are conservatively
//!   unsorted (a join interleaves probe-major, a union concatenates).
//!
//! A join site where *both* inputs are sorted on at least the key width can
//! skip the hash build+probe entirely: the matches of each probe row are one
//! contiguous run of the sorted build side, found by binary search. The
//! [`JoinStrategy`] hint records that decision; the APM compiler consults it
//! per semi-naive variant (the same leaf loads different partitions in
//! different variants, so the strategy is a per-variant fact).

use crate::{ByteOp, ExprProgram, RamExpr, RamProgram, RowProjection, Stratum};
use std::collections::BTreeSet;

/// How a join site should be executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Build a hash index over the build side, probe per row.
    Hash,
    /// Both sides sorted on the key prefix: binary-search the sorted build
    /// side per probe row, no index at all.
    Merge,
}

/// Picks the strategy for a join on `width` key columns whose inputs are
/// sorted on `left_prefix` / `right_prefix` columns. A zero-width join is a
/// cartesian product in disguise and never merges.
pub fn join_strategy(left_prefix: usize, right_prefix: usize, width: usize) -> JoinStrategy {
    if width > 0 && left_prefix >= width && right_prefix >= width {
        JoinStrategy::Merge
    } else {
        JoinStrategy::Hash
    }
}

/// The sorted prefix that survives a projection applied to an input sorted
/// on its first `input_prefix` columns: the longest run of output columns
/// that read the same-numbered input column, capped by `input_prefix`.
/// (Filters reject rows but preserve order, so they don't cap anything.)
pub fn projection_sorted_prefix(proj: &RowProjection, input_prefix: usize) -> usize {
    let mut prefix = 0;
    for (out_col, program) in proj.programs.iter().enumerate() {
        if program_as_column(program) == Some(out_col) && out_col < input_prefix {
            prefix += 1;
        } else {
            break;
        }
    }
    prefix
}

/// If a compiled column program is a bare column read, returns its index.
fn program_as_column(program: &ExprProgram) -> Option<usize> {
    match program.ops.as_slice() {
        [ByteOp::PushCol(i)] => Some(*i),
        _ => None,
    }
}

/// The sorted prefix of an expression's result, given the sorted prefix of
/// each `Relation` leaf. `leaf_sorted` is called once per leaf in traversal
/// order (left before right), which lets the APM compiler replay its
/// semi-naive partition assignment exactly.
pub fn expr_sorted_prefix(expr: &RamExpr, leaf_sorted: &mut impl FnMut(&str) -> usize) -> usize {
    match expr {
        RamExpr::Relation(name) => leaf_sorted(name),
        RamExpr::Project { input, proj } => {
            let input_prefix = expr_sorted_prefix(input, leaf_sorted);
            projection_sorted_prefix(proj, input_prefix)
        }
        RamExpr::Select { input, .. } => expr_sorted_prefix(input, leaf_sorted),
        RamExpr::Join { left, right, .. }
        | RamExpr::Union(left, right)
        | RamExpr::Product(left, right)
        | RamExpr::Intersect(left, right) => {
            // Both sides must still be visited so the caller's leaf cursor
            // stays aligned with traversal order.
            expr_sorted_prefix(left, leaf_sorted);
            expr_sorted_prefix(right, leaf_sorted);
            0
        }
    }
}

/// Conservative whole-stratum count of merge-eligible join sites: a leaf is
/// taken as fully sorted when its relation is *not* updated by the stratum
/// (such loads read a relation at rest, one sorted table with its recent
/// half empty — the invariant in the module docs), and unsorted when it is
/// (the semi-naive `all` partition interleaves two sorted halves).
/// The compiler's per-variant decision can only find *more* merge sites
/// than this (single-partition loads of own relations are sorted too).
pub fn merge_eligible_joins(stratum: &Stratum, ram: &RamProgram) -> usize {
    let own: BTreeSet<&str> = stratum.relations.iter().map(String::as_str).collect();
    let mut eligible = 0;
    for rule in &stratum.rules {
        count_in_expr(&rule.expr, ram, &own, &mut eligible);
    }
    eligible
}

/// Walks an expression, counting joins whose two sides are sorted on at
/// least the key width under the conservative leaf rule.
fn count_in_expr(
    expr: &RamExpr,
    ram: &RamProgram,
    own: &BTreeSet<&str>,
    eligible: &mut usize,
) -> usize {
    let mut leaf = |name: &str| {
        if own.contains(name) {
            0
        } else {
            ram.arity(name).unwrap_or(0)
        }
    };
    match expr {
        RamExpr::Relation(_) | RamExpr::Select { .. } | RamExpr::Project { .. } => {
            // Leaves and unary operators: delegate to the pure computation
            // (joins can only nest beneath them through their input).
            match expr {
                RamExpr::Project { input, .. } | RamExpr::Select { input, .. } => {
                    count_in_expr(input, ram, own, eligible);
                }
                _ => {}
            }
            expr_sorted_prefix(expr, &mut leaf)
        }
        RamExpr::Join { left, right, width } => {
            let l = count_in_expr(left, ram, own, eligible);
            let r = count_in_expr(right, ram, own, eligible);
            if join_strategy(l, r, *width) == JoinStrategy::Merge {
                *eligible += 1;
            }
            0
        }
        RamExpr::Union(left, right)
        | RamExpr::Product(left, right)
        | RamExpr::Intersect(left, right) => {
            count_in_expr(left, ram, own, eligible);
            count_in_expr(right, ram, own, eligible);
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RamRule, RelationSchema, ScalarExpr, ValueType};
    use std::collections::BTreeMap;

    fn two_col_program() -> RamProgram {
        let mut schemas = BTreeMap::new();
        for name in ["a", "b", "out"] {
            schemas.insert(
                name.to_string(),
                RelationSchema::new(name, vec![ValueType::U32, ValueType::U32]),
            );
        }
        RamProgram {
            schemas,
            strata: Vec::new(),
            outputs: vec!["out".into()],
        }
    }

    #[test]
    fn identity_prefix_survives_projection() {
        // (0, 1) → keeps both; (0, arithmetic) → keeps one; (1, 0) → none.
        let keep_both = RowProjection::new(vec![ScalarExpr::Col(0), ScalarExpr::Col(1)], None);
        assert_eq!(projection_sorted_prefix(&keep_both, 2), 2);
        let compute = RowProjection::new(
            vec![
                ScalarExpr::Col(0),
                ScalarExpr::binary(
                    crate::BinaryOp::Add,
                    ValueType::U32,
                    ScalarExpr::Col(1),
                    ScalarExpr::Col(0),
                ),
            ],
            None,
        );
        assert_eq!(projection_sorted_prefix(&compute, 2), 1);
        let swap = RowProjection::new(vec![ScalarExpr::Col(1), ScalarExpr::Col(0)], None);
        assert_eq!(projection_sorted_prefix(&swap, 2), 0);
    }

    #[test]
    fn input_prefix_caps_projection_prefix() {
        let keep_both = RowProjection::new(vec![ScalarExpr::Col(0), ScalarExpr::Col(1)], None);
        assert_eq!(projection_sorted_prefix(&keep_both, 1), 1);
        assert_eq!(projection_sorted_prefix(&keep_both, 0), 0);
    }

    #[test]
    fn filtered_identity_projection_keeps_order() {
        // A filter forces `permutation: None`, but the per-column programs
        // are still bare column reads — order is preserved, rows are only
        // dropped.
        let filtered = RowProjection::new(
            vec![ScalarExpr::Col(0), ScalarExpr::Col(1)],
            Some(ScalarExpr::binary(
                crate::BinaryOp::Ne,
                ValueType::U32,
                ScalarExpr::Col(0),
                ScalarExpr::Col(1),
            )),
        );
        assert!(!filtered.is_permutation());
        assert_eq!(projection_sorted_prefix(&filtered, 2), 2);
    }

    #[test]
    fn select_preserves_and_join_destroys_sortedness() {
        let select = RamExpr::relation("a").select(ScalarExpr::binary(
            crate::BinaryOp::Ne,
            ValueType::U32,
            ScalarExpr::Col(0),
            ScalarExpr::Col(1),
        ));
        assert_eq!(expr_sorted_prefix(&select, &mut |_| 2), 2);
        let join = RamExpr::relation("a").join(RamExpr::relation("b"), 1);
        assert_eq!(expr_sorted_prefix(&join, &mut |_| 2), 0);
    }

    #[test]
    fn leaf_cursor_visits_leaves_in_traversal_order() {
        let expr = RamExpr::relation("a").join(RamExpr::relation("b"), 1);
        let mut seen = Vec::new();
        expr_sorted_prefix(&expr, &mut |name| {
            seen.push(name.to_string());
            0
        });
        assert_eq!(seen, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn join_strategy_requires_both_sides_and_nonzero_width() {
        assert_eq!(join_strategy(2, 2, 1), JoinStrategy::Merge);
        assert_eq!(join_strategy(1, 2, 2), JoinStrategy::Hash);
        assert_eq!(join_strategy(2, 0, 1), JoinStrategy::Hash);
        assert_eq!(join_strategy(2, 2, 0), JoinStrategy::Hash);
    }

    #[test]
    fn nonrecursive_edb_join_is_merge_eligible() {
        let ram = two_col_program();
        let stratum = Stratum {
            relations: vec!["out".into()],
            rules: vec![RamRule {
                target: "out".into(),
                expr: RamExpr::relation("a").join(RamExpr::relation("b"), 1),
            }],
            recursive: false,
        };
        assert_eq!(merge_eligible_joins(&stratum, &ram), 1);
    }

    #[test]
    fn own_relation_leaves_are_conservatively_unsorted() {
        let ram = two_col_program();
        let stratum = Stratum {
            relations: vec!["out".into()],
            rules: vec![RamRule {
                target: "out".into(),
                expr: RamExpr::relation("out").join(RamExpr::relation("b"), 1),
            }],
            recursive: true,
        };
        assert_eq!(merge_eligible_joins(&stratum, &ram), 0);
    }
}
