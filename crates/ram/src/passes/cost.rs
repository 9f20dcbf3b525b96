//! Static cost model: per-stratum join counts.
//!
//! One walk over each stratum's rules counts its join sites, the ones that
//! read the stratum's own relations, and whether any join reads them on
//! both sides (non-linear recursion, which the lint flags). The counts are
//! intentionally coarse — they compare strata, not absolute time. The
//! `joins=` count of `Program::explain`'s summary line, which `lobster-lint`
//! and the golden ledger print, is their sum. Which joins run as merges and
//! which hash is the APM compiler's decision, and its `CompiledStratum`
//! reports it.

use crate::{RamExpr, RamProgram, Stratum};
use std::collections::BTreeSet;

/// Static cost summary of one stratum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StratumCost {
    /// Total join sites across the stratum's rules.
    pub joins: usize,
    /// Join sites with at least one input that reads a relation the
    /// stratum updates.
    pub recursive_joins: usize,
    /// Whether every join has at most one such input: the "linear
    /// recursion" of the paper's Section 4.2, which lets the index of the
    /// other side be built once and reused across fix-point iterations.
    pub linear: bool,
}

impl StratumCost {
    /// Counts one stratum.
    fn analyze(stratum: &Stratum) -> Self {
        let own: BTreeSet<&str> = stratum.relations.iter().map(String::as_str).collect();
        let reads_own = |expr: &RamExpr| {
            let mut referenced = Vec::new();
            expr.referenced_relations(&mut referenced);
            referenced.iter().any(|name| own.contains(name.as_str()))
        };
        let mut cost = StratumCost {
            joins: 0,
            recursive_joins: 0,
            linear: true,
        };
        for rule in &stratum.rules {
            rule.expr.visit(&mut |node| {
                if let RamExpr::Join { left, right, .. } = node {
                    let (l, r) = (reads_own(left), reads_own(right));
                    cost.joins += 1;
                    cost.recursive_joins += usize::from(l || r);
                    cost.linear &= !(l && r);
                }
            });
        }
        cost
    }
}

/// Program-level cost facts: one summary per stratum.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    /// One summary per stratum, in evaluation order.
    pub strata: Vec<StratumCost>,
}

impl CostModel {
    /// Computes the model for a program.
    pub fn analyze(ram: &RamProgram) -> Self {
        let strata = ram.strata.iter().map(StratumCost::analyze).collect();
        Self { strata }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RamRule, RelationSchema, RowProjection, ScalarExpr, ValueType};
    use std::collections::BTreeMap;

    /// One stratum updating `path` with `rules`, over `edge` and `path`.
    fn program(rules: Vec<RamExpr>, recursive: bool) -> RamProgram {
        let mut schemas = BTreeMap::new();
        for name in ["edge", "path"] {
            schemas.insert(
                name.to_string(),
                RelationSchema::new(name, vec![ValueType::U32, ValueType::U32]),
            );
        }
        let rules = rules
            .into_iter()
            .map(|expr| RamRule {
                target: "path".into(),
                expr,
            })
            .collect();
        RamProgram {
            schemas,
            strata: vec![Stratum {
                relations: vec!["path".into()],
                rules,
                recursive,
            }],
            outputs: vec!["path".into()],
        }
    }

    /// Transitive closure: `path = edge; path = path ⋈ edge` (recursive).
    fn tc_program() -> RamProgram {
        let path_zx = RamExpr::relation("path").project(RowProjection::new(
            vec![ScalarExpr::Col(1), ScalarExpr::Col(0)],
            None,
        ));
        program(
            vec![
                RamExpr::relation("edge"),
                path_zx.join(RamExpr::relation("edge"), 1),
            ],
            true,
        )
    }

    #[test]
    fn stratum_cost_summarises_structure() {
        let model = CostModel::analyze(&tc_program());
        assert_eq!(model.strata.len(), 1);
        let cost = &model.strata[0];
        assert_eq!(cost.joins, 1);
        assert_eq!(cost.recursive_joins, 1);
        assert!(cost.linear);
    }

    #[test]
    fn linear_recursion_is_detected() {
        assert!(CostModel::analyze(&tc_program()).strata[0].linear);
        let path_path = RamExpr::relation("path").join(RamExpr::relation("path"), 1);
        let cost = &CostModel::analyze(&program(vec![path_path], true)).strata[0];
        assert_eq!((cost.joins, cost.recursive_joins), (1, 1));
        assert!(!cost.linear);
    }

    #[test]
    fn recursive_joins_are_counted() {
        // One join reads `path`, one reads only `edge`, one nests both.
        let edge_edge = RamExpr::relation("edge").join(RamExpr::relation("edge"), 1);
        let path_edge = RamExpr::relation("path").join(RamExpr::relation("edge"), 1);
        let nested = edge_edge.clone().join(path_edge.clone(), 1);
        let cost =
            &CostModel::analyze(&program(vec![edge_edge, path_edge, nested], true)).strata[0];
        // The nested rule holds three joins: its own, which reads `path`
        // on its right, and copies of the two others.
        assert_eq!((cost.joins, cost.recursive_joins), (5, 3));
        assert!(cost.linear);
    }

    #[test]
    fn non_recursive_stratum_has_zero_recursive_joins() {
        let edge_edge = RamExpr::relation("edge").join(RamExpr::relation("edge"), 1);
        let cost = &CostModel::analyze(&program(vec![edge_edge], false)).strata[0];
        assert_eq!((cost.joins, cost.recursive_joins), (1, 0));
        assert!(cost.linear);
    }
}
