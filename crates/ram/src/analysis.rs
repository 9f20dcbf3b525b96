//! Static analyses over RAM programs used by the optimizer and the lint.
//!
//! * [`is_linear_recursive`] — detects the "linear recursion" property of
//!   Section 4.2: every join in a recursive stratum has at most one input
//!   that depends on the stratum's own relations, which is what allows the
//!   hash index of the other (EDB / stable) side to be built once and reused
//!   across fix-point iterations via a static register.
//! * [`count_recursive_joins`] — the heuristic of Section 5.3 for
//!   identifying the longest-running stratum.

use crate::{RamExpr, Stratum};
use std::collections::BTreeSet;

/// Summary of a stratum produced by [`StratumAnalysis::analyze`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StratumAnalysis {
    /// Number of joins whose inputs include a relation defined in this
    /// stratum (i.e. joins that participate in the recursion).
    pub recursive_joins: usize,
    /// Total number of joins in the stratum.
    pub total_joins: usize,
    /// Whether every join is linear recursive.
    pub linear_recursive: bool,
    /// Relations read by the stratum but defined elsewhere.
    pub input_relations: Vec<String>,
    /// Relations defined by the stratum.
    pub output_relations: Vec<String>,
}

impl StratumAnalysis {
    /// Analyzes a stratum.
    pub fn analyze(stratum: &Stratum) -> Self {
        let own: BTreeSet<&str> = stratum.relations.iter().map(String::as_str).collect();
        let mut recursive_joins = 0;
        let mut total_joins = 0;
        let mut linear = true;
        let mut inputs: BTreeSet<String> = BTreeSet::new();
        for rule in &stratum.rules {
            let mut refs = Vec::new();
            rule.expr.referenced_relations(&mut refs);
            for r in refs {
                if !own.contains(r.as_str()) {
                    inputs.insert(r);
                }
            }
            rule.expr.visit(&mut |e| {
                if let RamExpr::Join { left, right, .. } = e {
                    total_joins += 1;
                    let l = depends_on(left, &own);
                    let r = depends_on(right, &own);
                    if l || r {
                        recursive_joins += 1;
                    }
                    if l && r {
                        linear = false;
                    }
                }
            });
        }
        StratumAnalysis {
            recursive_joins,
            total_joins,
            linear_recursive: linear,
            input_relations: inputs.into_iter().collect(),
            output_relations: stratum.relations.clone(),
        }
    }
}

fn depends_on(expr: &RamExpr, own: &BTreeSet<&str>) -> bool {
    let mut refs = Vec::new();
    expr.referenced_relations(&mut refs);
    refs.iter().any(|r| own.contains(r.as_str()))
}

/// Whether every join of the stratum has at most one input that depends on
/// the stratum's own (recursive) relations.
pub fn is_linear_recursive(stratum: &Stratum) -> bool {
    StratumAnalysis::analyze(stratum).linear_recursive
}

/// Number of joins in the stratum that involve a recursive relation: the
/// paper's heuristic for identifying the longest-running stratum.
pub fn count_recursive_joins(stratum: &Stratum) -> usize {
    StratumAnalysis::analyze(stratum).recursive_joins
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RamRule, RowProjection, ScalarExpr};

    fn linear_stratum() -> Stratum {
        // path(x,y) :- path(x,z), edge(z,y): one recursive input per join.
        let path_zx = RamExpr::relation("path").project(RowProjection::new(
            vec![ScalarExpr::Col(1), ScalarExpr::Col(0)],
            None,
        ));
        let expr = path_zx
            .join(RamExpr::relation("edge"), 1)
            .project(RowProjection::new(
                vec![ScalarExpr::Col(1), ScalarExpr::Col(2)],
                None,
            ));
        Stratum {
            relations: vec!["path".into()],
            rules: vec![RamRule {
                target: "path".into(),
                expr,
            }],
            recursive: true,
        }
    }

    fn nonlinear_stratum() -> Stratum {
        // path(x,y) :- path(x,z), path(z,y): both join inputs are recursive.
        let expr = RamExpr::relation("path").join(RamExpr::relation("path"), 1);
        Stratum {
            relations: vec!["path".into()],
            rules: vec![RamRule {
                target: "path".into(),
                expr,
            }],
            recursive: true,
        }
    }

    #[test]
    fn linear_recursion_is_detected() {
        assert!(is_linear_recursive(&linear_stratum()));
        assert!(!is_linear_recursive(&nonlinear_stratum()));
    }

    #[test]
    fn recursive_joins_are_counted() {
        assert_eq!(count_recursive_joins(&linear_stratum()), 1);
        let analysis = StratumAnalysis::analyze(&linear_stratum());
        assert_eq!(analysis.total_joins, 1);
        assert_eq!(analysis.input_relations, vec!["edge".to_string()]);
        assert_eq!(analysis.output_relations, vec!["path".to_string()]);
    }

    #[test]
    fn non_recursive_stratum_has_zero_recursive_joins() {
        let stratum = Stratum {
            relations: vec!["result".into()],
            rules: vec![RamRule {
                target: "result".into(),
                expr: RamExpr::relation("a").join(RamExpr::relation("b"), 1),
            }],
            recursive: false,
        };
        assert_eq!(count_recursive_joins(&stratum), 0);
        assert!(is_linear_recursive(&stratum));
        assert_eq!(StratumAnalysis::analyze(&stratum).total_joins, 1);
    }
}
