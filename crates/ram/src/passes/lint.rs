//! Lint diagnostics: validator errors plus structural warnings, each with
//! rule provenance.
//!
//! Warnings flag RAM shapes that execute correctly but poorly, or that
//! suggest a front-end mistake:
//!
//! * `cartesian-product` — a `Product` node or a width-0 join multiplies
//!   its inputs' cardinalities;
//! * `non-linear-recursion` — a recursive stratum joining two recursive
//!   inputs, which disables the static-index reuse of the Lobster paper's
//!   Section 4.2 (every iteration rebuilds its join index);
//! * `unused-relation` — a declared relation no rule reads and no query
//!   returns: facts inserted there are dead weight;
//! * `constant-false-filter` — a selection or projection filter that
//!   references no columns and evaluates to false, making the rule a no-op;
//! * `dead-rule` — a rule that cannot reach any declared output (see
//!   [`super::liveness`]).

use super::{dead_rules, validate_program, RuleRef};
use crate::analysis::StratumAnalysis;
use crate::{RamExpr, RamProgram, ScalarExpr};
use std::collections::BTreeSet;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The program is structurally invalid and must not be executed.
    Error,
    /// The program executes correctly but something looks wasteful or
    /// unintended.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Stable machine-readable code (`cartesian-product`, `invalid-ir`, …).
    pub code: &'static str,
    /// The rule the finding refers to, when attributable to one.
    pub rule: Option<RuleRef>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(rule) = &self.rule {
            write!(f, " at {rule}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Runs every analysis over the program and returns the combined report:
/// validator errors first, then warnings in (stratum, rule) order, then
/// program-level warnings. An empty report means the program is clean.
pub fn lint_program(ram: &RamProgram) -> Vec<Diagnostic> {
    let mut report = Vec::new();
    if let Err(errors) = validate_program(ram) {
        for error in errors {
            report.push(Diagnostic {
                severity: Severity::Error,
                code: "invalid-ir",
                message: error.kind.to_string(),
                rule: Some(error.rule),
            });
        }
    }
    let dead: BTreeSet<(usize, usize)> = dead_rules(ram)
        .into_iter()
        .map(|r| (r.stratum, r.rule))
        .collect();
    for (stratum_idx, stratum) in ram.strata.iter().enumerate() {
        let analysis = StratumAnalysis::analyze(stratum);
        for (rule_idx, rule) in stratum.rules.iter().enumerate() {
            let at = || RuleRef {
                stratum: stratum_idx,
                rule: rule_idx,
                target: rule.target.clone(),
            };
            rule.expr.visit(&mut |node| match node {
                RamExpr::Product(..) => report.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "cartesian-product",
                    rule: Some(at()),
                    message: "product multiplies its input cardinalities; \
                              join on a shared key if one exists"
                        .into(),
                }),
                RamExpr::Join { width: 0, .. } => report.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "cartesian-product",
                    rule: Some(at()),
                    message: "width-0 join is a cartesian product".into(),
                }),
                RamExpr::Select { cond, .. } if is_constant_false(cond) => {
                    report.push(Diagnostic {
                        severity: Severity::Warning,
                        code: "constant-false-filter",
                        rule: Some(at()),
                        message: "selection condition is constant false; \
                                  the rule derives nothing"
                            .into(),
                    });
                }
                RamExpr::Project { proj, .. } => {
                    if let Some(filter) = &proj.filter {
                        if is_constant_false_program(filter) {
                            report.push(Diagnostic {
                                severity: Severity::Warning,
                                code: "constant-false-filter",
                                rule: Some(at()),
                                message: "projection filter is constant false; \
                                          the rule derives nothing"
                                    .into(),
                            });
                        }
                    }
                }
                _ => {}
            });
            if dead.contains(&(stratum_idx, rule_idx)) {
                report.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "dead-rule",
                    rule: Some(at()),
                    message: format!(
                        "`{}` cannot reach any declared output; \
                         the rule never affects query results",
                        rule.target
                    ),
                });
            }
        }
        if stratum.recursive && !analysis.linear_recursive {
            report.push(Diagnostic {
                severity: Severity::Warning,
                code: "non-linear-recursion",
                rule: None,
                message: format!(
                    "stratum {stratum_idx} joins two recursive inputs; \
                     static index reuse is disabled and join indexes are \
                     rebuilt every iteration"
                ),
            });
        }
    }
    for name in unused_relations(ram) {
        report.push(Diagnostic {
            severity: Severity::Warning,
            code: "unused-relation",
            rule: None,
            message: format!("relation `{name}` is never read by a rule and never queried"),
        });
    }
    report
}

/// A condition with no column references that evaluates to false.
fn is_constant_false(cond: &ScalarExpr) -> bool {
    cond.max_column().is_none() && !cond.compile().eval_bool(&[])
}

/// The compiled-bytecode variant of [`is_constant_false`], for projection
/// filters (which only survive in compiled form).
fn is_constant_false_program(program: &crate::ExprProgram) -> bool {
    let reads_columns = program
        .ops
        .iter()
        .any(|op| matches!(op, crate::ByteOp::PushCol(_)));
    !reads_columns && !program.eval_bool(&[])
}

/// Declared relations no rule body reads and no query returns. Rule
/// *targets* don't count as uses: deriving into a relation nobody reads is
/// exactly the waste this lint flags.
fn unused_relations(ram: &RamProgram) -> Vec<String> {
    let mut used: BTreeSet<String> = ram.outputs.iter().cloned().collect();
    for stratum in &ram.strata {
        for rule in &stratum.rules {
            let mut referenced = Vec::new();
            rule.expr.referenced_relations(&mut referenced);
            used.extend(referenced);
        }
    }
    ram.schemas
        .keys()
        .filter(|name| !used.contains(*name))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinaryOp, RamRule, RelationSchema, Stratum, ValueType};
    use std::collections::BTreeMap;

    fn schemas(names: &[&str]) -> BTreeMap<String, RelationSchema> {
        names
            .iter()
            .map(|name| {
                (
                    name.to_string(),
                    RelationSchema::new(*name, vec![ValueType::U32, ValueType::U32]),
                )
            })
            .collect()
    }

    #[test]
    fn clean_program_has_empty_report() {
        let ram = RamProgram {
            schemas: schemas(&["edge", "path"]),
            strata: vec![Stratum {
                relations: vec!["path".into()],
                rules: vec![RamRule {
                    target: "path".into(),
                    expr: RamExpr::relation("edge"),
                }],
                recursive: false,
            }],
            outputs: vec!["path".into()],
        };
        assert!(lint_program(&ram).is_empty());
    }

    #[test]
    fn products_and_width_zero_joins_are_flagged() {
        let ram = RamProgram {
            schemas: schemas(&["a", "b", "wide"]),
            strata: vec![Stratum {
                relations: vec!["wide".into()],
                rules: vec![RamRule {
                    target: "wide".into(),
                    expr: RamExpr::Project {
                        input: Box::new(RamExpr::relation("a").join(RamExpr::relation("b"), 0)),
                        proj: crate::RowProjection::new(
                            vec![ScalarExpr::Col(0), ScalarExpr::Col(2)],
                            None,
                        ),
                    },
                }],
                recursive: false,
            }],
            outputs: vec!["wide".into()],
        };
        let report = lint_program(&ram);
        assert!(report
            .iter()
            .any(|d| d.code == "cartesian-product" && d.severity == Severity::Warning));
    }

    #[test]
    fn constant_false_filter_is_flagged() {
        let always_false = ScalarExpr::binary(
            BinaryOp::Eq,
            ValueType::U32,
            ScalarExpr::Const(crate::Value::U32(0)),
            ScalarExpr::Const(crate::Value::U32(1)),
        );
        let ram = RamProgram {
            schemas: schemas(&["edge", "path"]),
            strata: vec![Stratum {
                relations: vec!["path".into()],
                rules: vec![RamRule {
                    target: "path".into(),
                    expr: RamExpr::relation("edge").select(always_false),
                }],
                recursive: false,
            }],
            outputs: vec!["path".into()],
        };
        let report = lint_program(&ram);
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].code, "constant-false-filter");
        assert_eq!(report[0].rule.as_ref().unwrap().target, "path");
    }

    #[test]
    fn symbol_arithmetic_is_flagged_in_selects_and_projections() {
        let mut schemas = schemas(&["pair", "out"]);
        for schema in schemas.values_mut() {
            *schema = RelationSchema::new(
                schema.name.clone(),
                vec![ValueType::Symbol, ValueType::Symbol],
            );
        }
        let sym_sum = ScalarExpr::binary(
            BinaryOp::Add,
            ValueType::Symbol,
            ScalarExpr::Col(0),
            ScalarExpr::Col(1),
        );
        let ram = RamProgram {
            schemas,
            strata: vec![Stratum {
                relations: vec!["out".into()],
                rules: vec![
                    RamRule {
                        target: "out".into(),
                        // Comparison at symbol type is fine; the nested
                        // addition is not.
                        expr: RamExpr::relation("pair").select(ScalarExpr::binary(
                            BinaryOp::Eq,
                            ValueType::Symbol,
                            sym_sum.clone(),
                            ScalarExpr::Col(0),
                        )),
                    },
                    RamRule {
                        target: "out".into(),
                        expr: RamExpr::Project {
                            input: Box::new(RamExpr::relation("pair")),
                            proj: crate::RowProjection::new(
                                vec![sym_sum, ScalarExpr::Col(1)],
                                None,
                            ),
                        },
                    },
                ],
                recursive: false,
            }],
            outputs: vec!["out".into()],
        };
        // Arithmetic over symbols is an IR error, reported once per site
        // with the rule it is in.
        let report = lint_program(&ram);
        assert_eq!(report.len(), 2, "{report:?}");
        assert!(report
            .iter()
            .all(|d| d.code == "invalid-ir" && d.severity == Severity::Error));
        assert!(report[0].message.contains("in selection predicate"));
        assert_eq!(report[0].rule.as_ref().unwrap().rule, 0);
        assert!(report[1].message.contains("in output column 0"));
        assert_eq!(report[1].rule.as_ref().unwrap().rule, 1);

        // Pure comparisons over symbols are order-preserving and stay clean.
        let clean = RamProgram {
            schemas: {
                let mut s = BTreeMap::new();
                s.insert(
                    "pair".to_string(),
                    RelationSchema::new("pair", vec![ValueType::Symbol, ValueType::Symbol]),
                );
                s.insert(
                    "out".to_string(),
                    RelationSchema::new("out", vec![ValueType::Symbol, ValueType::Symbol]),
                );
                s
            },
            strata: vec![Stratum {
                relations: vec!["out".into()],
                rules: vec![RamRule {
                    target: "out".into(),
                    expr: RamExpr::relation("pair").select(ScalarExpr::binary(
                        BinaryOp::Lt,
                        ValueType::Symbol,
                        ScalarExpr::Col(0),
                        ScalarExpr::Col(1),
                    )),
                }],
                recursive: false,
            }],
            outputs: vec!["out".into()],
        };
        assert!(lint_program(&clean).is_empty());
    }

    #[test]
    fn unused_relation_and_dead_rule_are_flagged() {
        let ram = RamProgram {
            schemas: schemas(&["edge", "path", "noise", "scratch"]),
            strata: vec![
                Stratum {
                    relations: vec!["path".into()],
                    rules: vec![RamRule {
                        target: "path".into(),
                        expr: RamExpr::relation("edge"),
                    }],
                    recursive: false,
                },
                Stratum {
                    relations: vec!["scratch".into()],
                    rules: vec![RamRule {
                        target: "scratch".into(),
                        expr: RamExpr::relation("noise"),
                    }],
                    recursive: false,
                },
            ],
            outputs: vec!["path".into()],
        };
        let report = lint_program(&ram);
        let codes: Vec<&str> = report.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"dead-rule"));
        // `scratch` is derived but never read or queried.
        assert!(report
            .iter()
            .any(|d| d.code == "unused-relation" && d.message.contains("scratch")));
    }

    #[test]
    fn nonlinear_recursion_is_flagged_at_stratum_level() {
        let ram = RamProgram {
            schemas: schemas(&["edge", "path"]),
            strata: vec![Stratum {
                relations: vec!["path".into()],
                rules: vec![
                    RamRule {
                        target: "path".into(),
                        expr: RamExpr::relation("edge"),
                    },
                    RamRule {
                        target: "path".into(),
                        expr: RamExpr::relation("path").join(RamExpr::relation("path"), 1),
                    },
                ],
                recursive: true,
            }],
            outputs: vec!["path".into()],
        };
        let report = lint_program(&ram);
        assert!(report
            .iter()
            .any(|d| d.code == "non-linear-recursion" && d.rule.is_none()));
    }

    #[test]
    fn diagnostics_render_with_provenance() {
        let diag = Diagnostic {
            severity: Severity::Warning,
            code: "cartesian-product",
            rule: Some(RuleRef {
                stratum: 2,
                rule: 1,
                target: "path".into(),
            }),
            message: "width-0 join is a cartesian product".into(),
        };
        assert_eq!(
            diag.to_string(),
            "warning[cartesian-product] at stratum 2, rule 1 (`path`): \
             width-0 join is a cartesian product"
        );
    }
}
