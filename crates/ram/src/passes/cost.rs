//! Static cost model: per-relation and per-stratum weights.
//!
//! A sample's fact count treats a fact feeding three recursive joins the
//! same as one that a single non-recursive rule copies through. This pass
//! derives a cheap static weight per relation from the program structure:
//!
//! ```text
//! weight(R) = 1 + joins(R) + 2 × recursive_refs(R)
//! ```
//!
//! where `joins(R)` counts the join operands referencing `R` across all
//! rules, and `recursive_refs(R)` counts references to `R` from rules of
//! recursive strata (facts feeding a fix point are amortised over every
//! iteration). The weights are intentionally coarse — they refine relative
//! ordering between samples, not absolute time. `lobster-lint` reports the
//! per-stratum summary for every workload program.

use crate::analysis::StratumAnalysis;
use crate::{RamExpr, RamProgram};
use std::collections::BTreeMap;

/// Static cost summary of one stratum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StratumCost {
    /// Relations the stratum updates.
    pub relations: Vec<String>,
    /// Number of rules (before semi-naive variant expansion).
    pub rules: usize,
    /// Total join sites across the stratum's rules.
    pub joins: usize,
    /// Join sites with at least one recursive input.
    pub recursive_joins: usize,
    /// Join sites where sort-order inference proves both inputs sorted on
    /// the key prefix (merge-path candidates).
    pub merge_eligible_joins: usize,
    /// Whether the stratum iterates to a fix point.
    pub recursive: bool,
    /// Widest relation arity touched by the stratum.
    pub max_arity: usize,
}

impl StratumCost {
    /// A scalar score for comparing strata: rules plus join sites, with
    /// recursive joins double-weighted (they re-run every iteration).
    pub fn score(&self) -> u64 {
        (self.rules + self.joins + 2 * self.recursive_joins) as u64
    }
}

/// Program-level cost facts: per-relation weights and per-stratum
/// summaries.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    relation_weights: BTreeMap<String, u64>,
    /// One summary per stratum, in evaluation order.
    pub strata: Vec<StratumCost>,
}

impl CostModel {
    /// Computes the model for a program.
    pub fn analyze(ram: &RamProgram) -> Self {
        let mut joins: BTreeMap<&str, u64> = BTreeMap::new();
        let mut recursive_refs: BTreeMap<&str, u64> = BTreeMap::new();
        let mut strata = Vec::with_capacity(ram.strata.len());
        for stratum in &ram.strata {
            let analysis = StratumAnalysis::analyze(stratum);
            let mut max_arity = 0;
            for rule in &stratum.rules {
                let mut referenced = Vec::new();
                rule.expr.referenced_relations(&mut referenced);
                for name in referenced {
                    if let Some(arity) = ram.arity(&name) {
                        max_arity = max_arity.max(arity);
                    }
                    if stratum.recursive {
                        if let Some((key, _)) = ram.schemas.get_key_value(&name) {
                            *recursive_refs.entry(key).or_insert(0) += 1;
                        }
                    }
                }
                count_join_operands(&rule.expr, ram, &mut joins);
                if let Some(arity) = ram.arity(&rule.target) {
                    max_arity = max_arity.max(arity);
                }
            }
            strata.push(StratumCost {
                relations: stratum.relations.clone(),
                rules: stratum.rules.len(),
                joins: analysis.total_joins,
                recursive_joins: analysis.recursive_joins,
                merge_eligible_joins: super::merge_eligible_joins(stratum, ram),
                recursive: stratum.recursive,
                max_arity,
            });
        }
        let relation_weights = ram
            .schemas
            .keys()
            .map(|name| {
                let weight = 1
                    + joins.get(name.as_str()).copied().unwrap_or(0)
                    + 2 * recursive_refs.get(name.as_str()).copied().unwrap_or(0);
                (name.clone(), weight)
            })
            .collect();
        Self {
            relation_weights,
            strata,
        }
    }

    /// The weight of one fact of `relation`; unknown relations weigh 1.
    pub fn relation_weight(&self, relation: &str) -> u64 {
        self.relation_weights.get(relation).copied().unwrap_or(1)
    }

    /// The full weight table, for consumers that snapshot it.
    pub fn relation_weights(&self) -> &BTreeMap<String, u64> {
        &self.relation_weights
    }
}

/// Adds one join participation per join operand referencing each relation.
fn count_join_operands<'a>(
    expr: &RamExpr,
    ram: &'a RamProgram,
    joins: &mut BTreeMap<&'a str, u64>,
) {
    expr.visit(&mut |node| {
        if let RamExpr::Join { left, right, .. } = node {
            for side in [left, right] {
                let mut referenced = Vec::new();
                side.referenced_relations(&mut referenced);
                for name in referenced {
                    if let Some((key, _)) = ram.schemas.get_key_value(&name) {
                        *joins.entry(key).or_insert(0) += 1;
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RamRule, RelationSchema, Stratum, ValueType};

    /// Transitive closure: `path = edge; path = path ⋈ edge` (recursive).
    fn tc_program() -> RamProgram {
        let mut schemas = BTreeMap::new();
        for name in ["edge", "path"] {
            schemas.insert(
                name.to_string(),
                RelationSchema::new(name, vec![ValueType::U32, ValueType::U32]),
            );
        }
        RamProgram {
            schemas,
            strata: vec![Stratum {
                relations: vec!["path".into()],
                rules: vec![
                    RamRule {
                        target: "path".into(),
                        expr: RamExpr::relation("edge"),
                    },
                    RamRule {
                        target: "path".into(),
                        expr: RamExpr::relation("path").join(RamExpr::relation("edge"), 1),
                    },
                ],
                recursive: true,
            }],
            outputs: vec!["path".into()],
        }
    }

    #[test]
    fn recursive_references_dominate_weights() {
        let model = CostModel::analyze(&tc_program());
        // edge: 1 base + 1 join operand + 2×2 recursive refs (both rules).
        assert_eq!(model.relation_weight("edge"), 6);
        // path: 1 base + 1 join operand + 2×1 recursive ref.
        assert_eq!(model.relation_weight("path"), 4);
        assert_eq!(model.relation_weight("unknown"), 1);
    }

    #[test]
    fn stratum_cost_summarises_structure() {
        let model = CostModel::analyze(&tc_program());
        assert_eq!(model.strata.len(), 1);
        let cost = &model.strata[0];
        assert_eq!(cost.rules, 2);
        assert_eq!(cost.joins, 1);
        assert_eq!(cost.recursive_joins, 1);
        assert!(cost.recursive);
        assert_eq!(cost.max_arity, 2);
        assert_eq!(cost.score(), 2 + 1 + 2);
    }

    #[test]
    fn weights_are_stable_over_identical_programs() {
        let a = CostModel::analyze(&tc_program());
        let b = CostModel::analyze(&tc_program());
        assert_eq!(a.relation_weights(), b.relation_weights());
    }
}
