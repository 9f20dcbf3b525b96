//! The IR validator: schema / arity / column-bound / type consistency.
//!
//! [`RamProgram::validate`](crate::RamProgram::validate) catches the
//! coarse structural errors (unknown relations, rule-vs-target arity, join
//! width). This pass goes further: it checks every column reference of every
//! projection and selection against the arity of its input, type-checks
//! scalar expressions against the relation schemas (arithmetic over symbols
//! or bools is an error), and verifies that join
//! keys and union/intersect sides agree column-by-column. Errors carry rule
//! provenance, so a malformed rewrite is reported as "stratum 2, rule 1
//! (`value_alias`): …" instead of surfacing as executor misbehaviour at
//! request time.

use super::RuleRef;
use crate::{
    BinaryOp, ByteOp, ExprProgram, RamExpr, RamProgram, RowProjection, ScalarExpr, UnaryOp,
    ValueType,
};
use std::fmt;

/// What the validator found wrong at one place of one rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrErrorKind {
    /// An expression references a relation with no declared schema.
    UnknownRelation(String),
    /// A projection or selection reads a column past its input's arity.
    ColumnOutOfBounds {
        /// The referenced column index.
        column: usize,
        /// The input arity it must be below.
        arity: usize,
    },
    /// A join's key width exceeds one of its input arities.
    BadJoinWidth {
        /// Requested key width.
        width: usize,
        /// Left input arity.
        left: usize,
        /// Right input arity.
        right: usize,
    },
    /// Union / intersect sides with different arities.
    SideArityMismatch {
        /// Left input arity.
        left: usize,
        /// Right input arity.
        right: usize,
    },
    /// A rule expression whose arity differs from its target schema.
    TargetArityMismatch {
        /// The target relation's declared arity.
        expected: usize,
        /// The rule expression's arity.
        actual: usize,
    },
    /// Two columns (or an operand and its operator annotation) with
    /// incompatible types.
    TypeMismatch {
        /// Where the mismatch was found.
        context: String,
        /// The type required there.
        expected: ValueType,
        /// The type found instead.
        found: ValueType,
    },
    /// `+ - * / %` or negation at `symbol` or `bool` operand type. A symbol
    /// is a name and a bool a truth value: the result would read an interned
    /// id, which depends on interning order, as a number.
    NonNumericArithmetic {
        /// Where the operator was found.
        context: String,
        /// The operand type it was applied at.
        ty: ValueType,
    },
}

impl fmt::Display for IrErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrErrorKind::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            IrErrorKind::ColumnOutOfBounds { column, arity } => {
                write!(f, "column {column} out of bounds for arity {arity}")
            }
            IrErrorKind::BadJoinWidth { width, left, right } => write!(
                f,
                "join width {width} exceeds input arities ({left}, {right})"
            ),
            IrErrorKind::SideArityMismatch { left, right } => {
                write!(f, "sides have different arities ({left} vs {right})")
            }
            IrErrorKind::TargetArityMismatch { expected, actual } => {
                write!(f, "target expects arity {expected}, rule produces {actual}")
            }
            IrErrorKind::TypeMismatch {
                context,
                expected,
                found,
            } => write!(f, "type mismatch in {context}: {expected} vs {found}"),
            IrErrorKind::NonNumericArithmetic { context, ty } => write!(
                f,
                "arithmetic over `{ty}` operands in {context}: \
                 only u32, i64 and f64 are numbers"
            ),
        }
    }
}

/// One validation error with its rule provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrError {
    /// The rule the error was found in.
    pub rule: RuleRef,
    /// What is wrong.
    pub kind: IrErrorKind,
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.rule, self.kind)
    }
}

impl std::error::Error for IrError {}

/// The inferred column types of an expression result. `None` marks a column
/// whose type cannot be derived statically (the output of arithmetic whose
/// operand types are unknown).
type ColTypes = Vec<Option<ValueType>>;

/// Validates every rule of every stratum, collecting all errors instead of
/// stopping at the first.
///
/// # Errors
///
/// Returns every [`IrError`] found, in (stratum, rule) order.
pub fn validate_program(ram: &RamProgram) -> Result<(), Vec<IrError>> {
    let mut errors = Vec::new();
    for (si, stratum) in ram.strata.iter().enumerate() {
        for (ri, rule) in stratum.rules.iter().enumerate() {
            let at = RuleRef {
                stratum: si,
                rule: ri,
                target: rule.target.clone(),
            };
            let mut push = |kind: IrErrorKind| {
                errors.push(IrError {
                    rule: at.clone(),
                    kind,
                })
            };
            let Some(target) = ram.schema(&rule.target) else {
                push(IrErrorKind::UnknownRelation(rule.target.clone()));
                continue;
            };
            let types = match infer_types(&rule.expr, ram, &mut push) {
                Some(types) => types,
                // The failure was already recorded; the rule's downstream
                // checks would only cascade from it.
                None => continue,
            };
            if types.len() != target.arity() {
                push(IrErrorKind::TargetArityMismatch {
                    expected: target.arity(),
                    actual: types.len(),
                });
                continue;
            }
            for (c, (inferred, declared)) in types.iter().zip(&target.arg_types).enumerate() {
                if let Some(t) = inferred {
                    if t != declared {
                        push(IrErrorKind::TypeMismatch {
                            context: format!("column {c} stored into `{}`", rule.target),
                            expected: *declared,
                            found: *t,
                        });
                    }
                }
            }
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Bottom-up type inference over one rule expression. Local errors are
/// reported through `push`; returns `None` when the expression is too broken
/// to assign a result type at all (unknown relation), which stops the
/// cascade.
fn infer_types(
    expr: &RamExpr,
    ram: &RamProgram,
    push: &mut impl FnMut(IrErrorKind),
) -> Option<ColTypes> {
    match expr {
        RamExpr::Relation(name) => match ram.schema(name) {
            Some(schema) => Some(schema.arg_types.iter().copied().map(Some).collect()),
            None => {
                push(IrErrorKind::UnknownRelation(name.clone()));
                None
            }
        },
        RamExpr::Project { input, proj } => {
            let input_types = infer_types(input, ram, push)?;
            Some(check_projection(proj, &input_types, push))
        }
        RamExpr::Select { input, cond } => {
            let input_types = infer_types(input, ram, push)?;
            check_scalar(cond, &input_types, push);
            Some(input_types)
        }
        RamExpr::Join { left, right, width } => {
            let l = infer_types(left, ram, push)?;
            let r = infer_types(right, ram, push)?;
            if *width > l.len() || *width > r.len() {
                push(IrErrorKind::BadJoinWidth {
                    width: *width,
                    left: l.len(),
                    right: r.len(),
                });
                return None;
            }
            for k in 0..*width {
                if let (Some(lt), Some(rt)) = (l[k], r[k]) {
                    if lt != rt {
                        push(IrErrorKind::TypeMismatch {
                            context: format!("join key column {k}"),
                            expected: lt,
                            found: rt,
                        });
                    }
                }
            }
            // Join output: the left row, then the non-key right columns.
            let mut out = l;
            out.extend(r.into_iter().skip(*width));
            Some(out)
        }
        RamExpr::Union(left, right) | RamExpr::Intersect(left, right) => {
            let l = infer_types(left, ram, push)?;
            let r = infer_types(right, ram, push)?;
            if l.len() != r.len() {
                push(IrErrorKind::SideArityMismatch {
                    left: l.len(),
                    right: r.len(),
                });
                return Some(l);
            }
            // A column's type is known only when both sides agree on it.
            Some(
                l.into_iter()
                    .zip(r)
                    .map(|(a, b)| match (a, b) {
                        (Some(x), Some(y)) if x == y => Some(x),
                        _ => None,
                    })
                    .collect(),
            )
        }
        RamExpr::Product(left, right) => {
            let mut l = infer_types(left, ram, push)?;
            l.extend(infer_types(right, ram, push)?);
            Some(l)
        }
    }
}

/// Checks a compiled projection's column bounds and operand types against
/// the input column types; returns the output column types.
fn check_projection(
    proj: &RowProjection,
    input_types: &[Option<ValueType>],
    push: &mut impl FnMut(IrErrorKind),
) -> ColTypes {
    if let Some(filter) = &proj.filter {
        check_program(filter, input_types, "projection filter", push);
    }
    proj.programs
        .iter()
        .enumerate()
        .map(|(c, program)| {
            check_program(program, input_types, &format!("output column {c}"), push)
        })
        .collect()
}

/// Abstract interpretation of one expression bytecode program over column
/// *types*: bounds-checks every column read and flags operands whose known
/// type disagrees with the operator's type annotation. Returns the result
/// type when derivable.
fn check_program(
    program: &ExprProgram,
    input_types: &[Option<ValueType>],
    context: &str,
    push: &mut impl FnMut(IrErrorKind),
) -> Option<ValueType> {
    let arity = input_types.len();
    let mut stack: Vec<Option<ValueType>> = Vec::with_capacity(8);
    for op in &program.ops {
        match op {
            ByteOp::PushCol(i) => {
                if *i >= arity {
                    push(IrErrorKind::ColumnOutOfBounds { column: *i, arity });
                    stack.push(None);
                } else {
                    stack.push(input_types[*i]);
                }
            }
            // Generic constants are already encoded in bytecode; their
            // logical type is gone, so they never conflict. Symbol constants
            // keep their type.
            ByteOp::PushConst(_) => stack.push(None),
            ByteOp::PushSymConst(_) => stack.push(Some(ValueType::Symbol)),
            ByteOp::Binary(op, ty) => {
                let b = stack.pop().flatten();
                let a = stack.pop().flatten();
                for operand in [a, b].into_iter().flatten() {
                    check_operand(operand, *ty, context, push);
                }
                check_arithmetic(op.is_arithmetic(), *ty, context, push);
                stack.push(Some(result_type(Some(*op), *ty)));
            }
            ByteOp::Unary(op, ty) => {
                if let Some(operand) = stack.pop().flatten() {
                    check_operand(operand, *ty, context, push);
                }
                check_arithmetic(*op == UnaryOp::Neg, *ty, context, push);
                stack.push(Some(*ty));
            }
        }
    }
    stack.pop().flatten()
}

/// Type check of an uncompiled scalar expression (selection predicates keep
/// their tree form); returns the result type when derivable.
fn check_scalar(
    expr: &ScalarExpr,
    input_types: &[Option<ValueType>],
    push: &mut impl FnMut(IrErrorKind),
) -> Option<ValueType> {
    match expr {
        ScalarExpr::Col(i) => {
            if *i >= input_types.len() {
                push(IrErrorKind::ColumnOutOfBounds {
                    column: *i,
                    arity: input_types.len(),
                });
                None
            } else {
                input_types[*i]
            }
        }
        ScalarExpr::Const(v) => Some(v.value_type()),
        ScalarExpr::Binary { op, ty, lhs, rhs } => {
            for side in [lhs, rhs] {
                if let Some(t) = check_scalar(side, input_types, push) {
                    check_operand(t, *ty, "selection predicate", push);
                }
            }
            check_arithmetic(op.is_arithmetic(), *ty, "selection predicate", push);
            Some(result_type(Some(*op), *ty))
        }
        ScalarExpr::Unary { op, ty, expr } => {
            if let Some(t) = check_scalar(expr, input_types, push) {
                check_operand(t, *ty, "selection predicate", push);
            }
            check_arithmetic(*op == UnaryOp::Neg, *ty, "selection predicate", push);
            Some(*ty)
        }
    }
}

/// Rejects an arithmetic operator (`arithmetic` set) annotated with a type
/// that is not a number.
fn check_arithmetic(
    arithmetic: bool,
    ty: ValueType,
    context: &str,
    push: &mut impl FnMut(IrErrorKind),
) {
    if arithmetic && matches!(ty, ValueType::Symbol | ValueType::Bool) {
        push(IrErrorKind::NonNumericArithmetic {
            context: context.to_string(),
            ty,
        });
    }
}

/// One operand check: a known operand type must match the operator's type
/// annotation. `Bool` operands are accepted where the annotation is a word
/// type (comparison results feed logical connectives annotated with the
/// column type).
fn check_operand(
    found: ValueType,
    annotated: ValueType,
    context: &str,
    push: &mut impl FnMut(IrErrorKind),
) {
    if found == annotated || found == ValueType::Bool {
        return;
    }
    push(IrErrorKind::TypeMismatch {
        context: context.to_string(),
        expected: annotated,
        found,
    });
}

/// The result type of an operator: comparisons and logical connectives
/// produce booleans, arithmetic produces the annotated type.
fn result_type(op: Option<BinaryOp>, ty: ValueType) -> ValueType {
    match op {
        Some(op) if op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or) => {
            ValueType::Bool
        }
        _ => ty,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RamRule, RelationSchema, Stratum, Value};
    use std::collections::BTreeMap;

    fn program_with_rule(expr: RamExpr) -> RamProgram {
        let mut schemas = BTreeMap::new();
        schemas.insert(
            "edge".to_string(),
            RelationSchema::new("edge", vec![ValueType::U32, ValueType::U32]),
        );
        schemas.insert(
            "weight".to_string(),
            RelationSchema::new("weight", vec![ValueType::U32, ValueType::F64]),
        );
        schemas.insert(
            "path".to_string(),
            RelationSchema::new("path", vec![ValueType::U32, ValueType::U32]),
        );
        RamProgram {
            schemas,
            strata: vec![Stratum {
                relations: vec!["path".into()],
                rules: vec![RamRule {
                    target: "path".into(),
                    expr,
                }],
                recursive: false,
            }],
            outputs: vec!["path".into()],
        }
    }

    #[test]
    fn well_formed_rule_passes() {
        let expr = RamExpr::relation("edge").project(RowProjection::new(
            vec![ScalarExpr::Col(1), ScalarExpr::Col(0)],
            None,
        ));
        validate_program(&program_with_rule(expr)).unwrap();
    }

    #[test]
    fn out_of_bounds_projection_column_is_reported() {
        let expr = RamExpr::relation("edge").project(RowProjection::new(
            vec![ScalarExpr::Col(0), ScalarExpr::Col(5)],
            None,
        ));
        let errors = validate_program(&program_with_rule(expr)).unwrap_err();
        assert!(errors.iter().any(|e| matches!(
            e.kind,
            IrErrorKind::ColumnOutOfBounds {
                column: 5,
                arity: 2
            }
        )));
        assert_eq!(errors[0].rule.target, "path");
    }

    #[test]
    fn out_of_bounds_selection_column_is_reported() {
        let expr = RamExpr::relation("edge").select(ScalarExpr::binary(
            BinaryOp::Ne,
            ValueType::U32,
            ScalarExpr::Col(0),
            ScalarExpr::Col(9),
        ));
        let errors = validate_program(&program_with_rule(expr)).unwrap_err();
        assert!(errors
            .iter()
            .any(|e| matches!(e.kind, IrErrorKind::ColumnOutOfBounds { column: 9, .. })));
    }

    #[test]
    fn join_key_type_mismatch_is_reported() {
        // weight(u32, f64) reordered to (f64, u32) joined with edge(u32, u32)
        // on the first column: f64 vs u32 keys.
        let flipped = RamExpr::relation("weight").project(RowProjection::new(
            vec![ScalarExpr::Col(1), ScalarExpr::Col(0)],
            None,
        ));
        let expr = flipped
            .join(RamExpr::relation("edge"), 1)
            .project(RowProjection::new(
                vec![ScalarExpr::Col(1), ScalarExpr::Col(2)],
                None,
            ));
        let errors = validate_program(&program_with_rule(expr)).unwrap_err();
        assert!(errors
            .iter()
            .any(|e| matches!(e.kind, IrErrorKind::TypeMismatch { .. })));
    }

    #[test]
    fn bad_join_width_is_reported_with_both_arities() {
        let expr = RamExpr::relation("edge").join(RamExpr::relation("edge"), 4);
        let errors = validate_program(&program_with_rule(expr)).unwrap_err();
        assert!(errors.iter().any(|e| matches!(
            e.kind,
            IrErrorKind::BadJoinWidth {
                width: 4,
                left: 2,
                right: 2
            }
        )));
    }

    #[test]
    fn union_side_arity_mismatch_is_reported() {
        let narrow =
            RamExpr::relation("edge").project(RowProjection::new(vec![ScalarExpr::Col(0)], None));
        let expr = RamExpr::Union(Box::new(RamExpr::relation("edge")), Box::new(narrow));
        let errors = validate_program(&program_with_rule(expr)).unwrap_err();
        assert!(errors
            .iter()
            .any(|e| matches!(e.kind, IrErrorKind::SideArityMismatch { left: 2, right: 1 })));
    }

    #[test]
    fn stored_column_type_mismatch_is_reported() {
        // weight(u32, f64) stored into path(u32, u32): column 1 is f64.
        let expr = RamExpr::relation("weight");
        let errors = validate_program(&program_with_rule(expr)).unwrap_err();
        assert!(errors.iter().any(|e| matches!(
            e.kind,
            IrErrorKind::TypeMismatch {
                expected: ValueType::U32,
                found: ValueType::F64,
                ..
            }
        )));
    }

    #[test]
    fn unknown_relation_is_reported_without_cascading() {
        let expr = RamExpr::relation("ghost").join(RamExpr::relation("edge"), 1);
        let errors = validate_program(&program_with_rule(expr)).unwrap_err();
        assert_eq!(errors.len(), 1);
        assert!(matches!(
            &errors[0].kind,
            IrErrorKind::UnknownRelation(name) if name == "ghost"
        ));
    }

    #[test]
    fn typed_operator_over_wrong_column_type_is_reported() {
        // Comparing the f64 column of `weight` with u32 semantics.
        let expr = RamExpr::relation("weight")
            .select(ScalarExpr::binary(
                BinaryOp::Lt,
                ValueType::U32,
                ScalarExpr::Col(1),
                ScalarExpr::Const(Value::U32(3)),
            ))
            .project(RowProjection::new(
                vec![ScalarExpr::Col(0), ScalarExpr::Col(0)],
                None,
            ));
        let errors = validate_program(&program_with_rule(expr)).unwrap_err();
        assert!(errors.iter().any(|e| matches!(
            e.kind,
            IrErrorKind::TypeMismatch {
                expected: ValueType::U32,
                found: ValueType::F64,
                ..
            }
        )));
    }

    #[test]
    fn errors_from_multiple_rules_are_all_collected() {
        let mut ram = program_with_rule(RamExpr::relation("ghost"));
        ram.strata[0].rules.push(RamRule {
            target: "path".into(),
            expr: RamExpr::relation("edge").join(RamExpr::relation("edge"), 3),
        });
        let errors = validate_program(&ram).unwrap_err();
        assert_eq!(errors.len(), 2);
        assert_eq!(errors[1].rule.rule, 1);
    }
}
