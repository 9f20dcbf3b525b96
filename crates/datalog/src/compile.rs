//! Compilation of parsed rules into the RAM intermediate representation.

use crate::ast::{Atom, BinOp, Body, Expr, Item};
use crate::error::DatalogError;
use crate::infer::{expr_type, infer_schemas, unify};
use crate::stratify::{stratify, stratum_is_recursive};
use lobster_ram::passes::validate_program;
use lobster_ram::{
    BinaryOp, RamExpr, RamProgram, RamRule, RelationSchema, RowProjection, ScalarExpr, Stratum,
    SymbolTable, Tuple, Value, ValueType,
};
use std::collections::BTreeMap;

/// One fact listed in a `rel name = { ... }` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FactDecl {
    /// Target relation.
    pub relation: String,
    /// The tuple of values.
    pub values: Tuple,
    /// Optional probability.
    pub probability: Option<f64>,
}

/// The result of compiling a Datalog program.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The RAM program (schemas, strata, outputs).
    pub ram: RamProgram,
    /// Interner for symbolic constants appearing in the program or its facts.
    pub symbols: SymbolTable,
    /// Facts declared inline in the program source.
    pub facts: Vec<FactDecl>,
    /// Relations named in `query` items.
    pub queries: Vec<String>,
}

/// Compiles parsed items into RAM.
///
/// # Errors
///
/// Returns a [`DatalogError`] for semantic problems: unknown relations,
/// arity mismatches, unsupported expressions, or unbound variables; and a
/// [`DatalogError::Semantic`] listing every error
/// [`validate_program`] finds in the compiled RAM (arithmetic over
/// `symbol` or `bool` operands, for one).
pub fn compile(items: &[Item]) -> Result<CompiledProgram, DatalogError> {
    let inferred = infer_schemas(items)?;
    // Intern through the process-wide table: every compiled program agrees
    // on symbol ids, so long-lived sessions, incremental delta sessions, and TCP
    // connections can exchange encoded facts without re-interning.
    let symbols = SymbolTable::global();

    let mut schemas: BTreeMap<String, RelationSchema> = BTreeMap::new();
    for (name, types) in &inferred {
        schemas.insert(
            name.clone(),
            RelationSchema::new(name.clone(), types.clone()),
        );
    }

    // Inline facts.
    let mut facts = Vec::new();
    for item in items {
        if let Item::Facts {
            name,
            facts: literals,
        } = item
        {
            let schema = schemas
                .get(name)
                .ok_or_else(|| DatalogError::semantic(format!("unknown relation `{name}`")))?
                .clone();
            for literal in literals {
                if literal.values.len() != schema.arity() {
                    return Err(DatalogError::semantic(format!(
                        "fact for `{name}` has arity {}, expected {}",
                        literal.values.len(),
                        schema.arity()
                    )));
                }
                let values: Tuple = literal
                    .values
                    .iter()
                    .zip(&schema.arg_types)
                    .map(|(expr, ty)| const_value(expr, *ty, &symbols))
                    .collect::<Result<_, _>>()?;
                facts.push(FactDecl {
                    relation: name.clone(),
                    values,
                    probability: literal.probability,
                });
            }
        }
    }

    // Queries.
    let queries: Vec<String> = items
        .iter()
        .filter_map(|item| match item {
            Item::Query { name } => Some(name.clone()),
            _ => None,
        })
        .collect();
    for q in &queries {
        if !schemas.contains_key(q) {
            return Err(DatalogError::semantic(format!(
                "query of unknown relation `{q}`"
            )));
        }
    }

    // Rules grouped into strata.
    let strata_names = stratify(items);
    let mut strata = Vec::new();
    for relations in &strata_names {
        let mut rules = Vec::new();
        for item in items {
            if let Item::Rule { head, body } = item {
                if !relations.contains(&head.name) {
                    continue;
                }
                for conjunct in body.to_dnf() {
                    rules.push(compile_conjunct(head, &conjunct, &schemas, &symbols)?);
                }
            }
        }
        strata.push(Stratum {
            relations: relations.clone(),
            rules,
            recursive: stratum_is_recursive(relations, items),
        });
    }

    let outputs = if queries.is_empty() {
        strata_names.iter().flatten().cloned().collect()
    } else {
        queries.clone()
    };

    let ram = RamProgram {
        schemas,
        strata,
        outputs,
    };
    // The one RAM validator, with rule provenance: the compiler is expected
    // to always produce valid IR, but a rejection here beats executor
    // misbehaviour at request time.
    if let Err(errors) = validate_program(&ram) {
        let rendered: Vec<String> = errors.iter().map(ToString::to_string).collect();
        return Err(DatalogError::semantic(format!(
            "compiled program failed IR validation:\n{}",
            rendered.join("\n")
        )));
    }
    Ok(CompiledProgram {
        ram,
        symbols,
        facts,
        queries,
    })
}

/// Evaluates a constant expression into a [`Value`] of the expected type.
/// A literal must be of a kind that fits the type: an integer fits `u32`
/// (when in range), `i64` and `f64`; a float `f64`; a bool `bool`; a string
/// `symbol`. Anything else is a semantic error, never a coercion.
fn const_value(
    expr: &Expr,
    expected: ValueType,
    symbols: &SymbolTable,
) -> Result<Value, DatalogError> {
    let float = |e: &Expr| -> Result<f64, DatalogError> {
        const_value(e, ValueType::F64, symbols).map(|v| v.as_f64())
    };
    Ok(match (expr, expected) {
        (Expr::Int(v), ValueType::U32) => {
            Value::U32(u32::try_from(*v).map_err(|_| {
                DatalogError::semantic(format!("constant {v} out of range for u32"))
            })?)
        }
        (Expr::Int(v), ValueType::I64) => Value::I64(*v),
        (Expr::Int(v), ValueType::F64) => Value::F64(*v as f64),
        (Expr::Float(v), ValueType::F64) => Value::F64(*v),
        (Expr::Bool(v), ValueType::Bool) => Value::Bool(*v),
        (Expr::Str(s), ValueType::Symbol) => Value::Symbol(symbols.intern(s)),
        (Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::Str(_), _) => {
            return Err(DatalogError::semantic(format!(
                "constant {expr:?} does not fit a `{expected}` column"
            )))
        }
        (Expr::Neg(inner), ValueType::I64) => {
            let v = const_value(inner, ValueType::I64, symbols)?;
            match v {
                Value::I64(i) => Value::I64(-i),
                other => other,
            }
        }
        (Expr::Neg(inner), ValueType::F64) => Value::F64(-float(inner)?),
        (Expr::Binary(op, a, b), ValueType::F64) => {
            let (x, y) = (float(a)?, float(b)?);
            Value::F64(match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Rem => x % y,
                _ => {
                    return Err(DatalogError::semantic(
                        "comparison operators are not allowed in constant facts",
                    ))
                }
            })
        }
        other => {
            return Err(DatalogError::semantic(format!(
                "unsupported constant expression {other:?}"
            )))
        }
    })
}

/// State carried while compiling one conjunctive rule body.
struct RuleBuilder<'a> {
    schemas: &'a BTreeMap<String, RelationSchema>,
    symbols: &'a SymbolTable,
    /// Current expression (None before the first atom).
    expr: Option<RamExpr>,
    /// Variable names bound to the current expression's columns, in order.
    bound: Vec<String>,
    /// Types of bound variables.
    var_types: BTreeMap<String, ValueType>,
}

impl<'a> RuleBuilder<'a> {
    fn column_of(&self, var: &str) -> Option<usize> {
        self.bound.iter().position(|b| b == var)
    }

    /// Converts a surface expression over bound variables into a typed
    /// [`ScalarExpr`] over the current columns.
    fn to_scalar(
        &self,
        expr: &Expr,
        expected: Option<ValueType>,
    ) -> Result<ScalarExpr, DatalogError> {
        match expr {
            Expr::Var(v) => {
                let col = self
                    .column_of(v)
                    .ok_or_else(|| DatalogError::semantic(format!("unbound variable `{v}`")))?;
                Ok(ScalarExpr::Col(col))
            }
            Expr::Wildcard => Err(DatalogError::semantic(
                "wildcard `_` is not allowed in this position",
            )),
            Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::Str(_) => {
                let ty = expected
                    .or_else(|| expr_type(expr, &self.var_types))
                    .unwrap_or(ValueType::U32);
                Ok(ScalarExpr::Const(const_value(expr, ty, self.symbols)?))
            }
            Expr::Neg(inner) => {
                let ty = expected
                    .or_else(|| expr_type(expr, &self.var_types))
                    .unwrap_or(ValueType::I64);
                Ok(ScalarExpr::unary(
                    lobster_ram::UnaryOp::Neg,
                    ty,
                    self.to_scalar(inner, Some(ty))?,
                ))
            }
            Expr::Binary(op, a, b) => {
                let operand_ty =
                    unify(expr_type(a, &self.var_types), expr_type(b, &self.var_types))
                        .or(if op_is_comparison(*op) {
                            None
                        } else {
                            expected
                        })
                        .unwrap_or(ValueType::U32);
                let ram_op = convert_op(*op);
                Ok(ScalarExpr::binary(
                    ram_op,
                    operand_ty,
                    self.to_scalar(a, Some(operand_ty))?,
                    self.to_scalar(b, Some(operand_ty))?,
                ))
            }
        }
    }

    /// Adds a body atom: builds its per-atom expression and joins it with the
    /// current expression on their shared variables.
    fn add_atom(&mut self, atom: &Atom) -> Result<(), DatalogError> {
        let schema = self
            .schemas
            .get(&atom.name)
            .ok_or_else(|| DatalogError::semantic(format!("unknown relation `{}`", atom.name)))?;
        if schema.arity() != atom.args.len() {
            return Err(DatalogError::semantic(format!(
                "relation `{}` used with arity {}, declared with {}",
                atom.name,
                atom.args.len(),
                schema.arity()
            )));
        }

        // Per-atom projection: keep the first occurrence of each variable,
        // filter on constants and repeated variables.
        let mut atom_vars: Vec<(String, usize, ValueType)> = Vec::new();
        let mut filters: Vec<ScalarExpr> = Vec::new();
        for (i, arg) in atom.args.iter().enumerate() {
            let ty = schema.arg_types[i];
            match arg {
                Expr::Var(v) => {
                    if let Some((_, first_col, _)) = atom_vars.iter().find(|(name, _, _)| name == v)
                    {
                        filters.push(ScalarExpr::binary(
                            BinaryOp::Eq,
                            ty,
                            ScalarExpr::Col(i),
                            ScalarExpr::Col(*first_col),
                        ));
                    } else {
                        atom_vars.push((v.clone(), i, ty));
                    }
                }
                Expr::Wildcard => {}
                constant if constant.is_constant() => {
                    filters.push(ScalarExpr::binary(
                        BinaryOp::Eq,
                        ty,
                        ScalarExpr::Col(i),
                        ScalarExpr::Const(const_value(constant, ty, self.symbols)?),
                    ));
                }
                other => {
                    return Err(DatalogError::semantic(format!(
                        "unsupported expression {other:?} in body atom `{}` — bind it with `v == ...` instead",
                        atom.name
                    )));
                }
            }
        }

        let filter = filters
            .into_iter()
            .reduce(|a, b| ScalarExpr::binary(BinaryOp::And, ValueType::Bool, a, b));
        let needs_projection = filter.is_some()
            || atom_vars.len() != schema.arity()
            || atom_vars
                .iter()
                .enumerate()
                .any(|(k, (_, col, _))| k != *col);
        let mut atom_expr = RamExpr::relation(&atom.name);
        if needs_projection {
            atom_expr = atom_expr.project(RowProjection::new(
                atom_vars
                    .iter()
                    .map(|(_, col, _)| ScalarExpr::Col(*col))
                    .collect(),
                filter,
            ));
        }
        for (name, _, ty) in &atom_vars {
            self.var_types.entry(name.clone()).or_insert(*ty);
        }
        let atom_var_names: Vec<String> = atom_vars.into_iter().map(|(name, _, _)| name).collect();

        match self.expr.take() {
            None => {
                self.expr = Some(atom_expr);
                self.bound = atom_var_names;
            }
            Some(current) => {
                // Shared variables become the join key; with none, the join
                // is on no columns, a cartesian product.
                let shared: Vec<String> = self
                    .bound
                    .iter()
                    .filter(|v| atom_var_names.contains(v))
                    .cloned()
                    .collect();
                let left_rest: Vec<String> = self
                    .bound
                    .iter()
                    .filter(|v| !shared.contains(v))
                    .cloned()
                    .collect();
                let right_rest: Vec<String> = atom_var_names
                    .iter()
                    .filter(|v| !shared.contains(v))
                    .cloned()
                    .collect();
                let left_order: Vec<usize> = shared
                    .iter()
                    .chain(&left_rest)
                    // cannot fail: every name here comes from `self.bound`.
                    .map(|v| self.column_of(v).expect("bound variable"))
                    .collect();
                let right_order: Vec<usize> = shared
                    .iter()
                    .chain(&right_rest)
                    .map(|v| {
                        atom_var_names
                            .iter()
                            .position(|a| a == v)
                            // cannot fail: every name here comes from `atom_var_names`.
                            .expect("atom variable")
                    })
                    .collect();
                let left = reorder(current, &left_order);
                let right = reorder(atom_expr, &right_order);
                self.expr = Some(left.join(right, shared.len()));
                let mut bound = shared;
                bound.extend(left_rest);
                bound.extend(right_rest);
                self.bound = bound;
            }
        }
        Ok(())
    }

    /// Applies a binding `var == expr`, extending the tuple with a computed
    /// column.
    fn add_binding(&mut self, var: &str, value: &Expr) -> Result<(), DatalogError> {
        let ty = expr_type(value, &self.var_types).unwrap_or(ValueType::U32);
        let mut outputs: Vec<ScalarExpr> = (0..self.bound.len()).map(ScalarExpr::Col).collect();
        outputs.push(self.to_scalar(value, Some(ty))?);
        let current = self.expr.take().ok_or_else(|| {
            DatalogError::semantic("rule body must contain at least one relation atom")
        })?;
        self.expr = Some(current.project(RowProjection::new(outputs, None)));
        self.bound.push(var.to_string());
        self.var_types.insert(var.to_string(), ty);
        Ok(())
    }

    /// Applies a fully bound constraint as a selection.
    fn add_constraint(&mut self, constraint: &Expr) -> Result<(), DatalogError> {
        let cond = self.to_scalar(constraint, Some(ValueType::Bool))?;
        let current = self.expr.take().ok_or_else(|| {
            DatalogError::semantic("rule body must contain at least one relation atom")
        })?;
        self.expr = Some(current.select(cond));
        Ok(())
    }
}

fn op_is_comparison(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    )
}

fn convert_op(op: BinOp) -> BinaryOp {
    match op {
        BinOp::Add => BinaryOp::Add,
        BinOp::Sub => BinaryOp::Sub,
        BinOp::Mul => BinaryOp::Mul,
        BinOp::Div => BinaryOp::Div,
        BinOp::Rem => BinaryOp::Rem,
        BinOp::Eq => BinaryOp::Eq,
        BinOp::Ne => BinaryOp::Ne,
        BinOp::Lt => BinaryOp::Lt,
        BinOp::Le => BinaryOp::Le,
        BinOp::Gt => BinaryOp::Gt,
        BinOp::Ge => BinaryOp::Ge,
        BinOp::And => BinaryOp::And,
        BinOp::Or => BinaryOp::Or,
    }
}

/// Wraps an expression in a column-permuting projection (identity permutations
/// are skipped).
fn reorder(expr: RamExpr, order: &[usize]) -> RamExpr {
    if order.iter().enumerate().all(|(i, &c)| i == c) {
        // Only skip when the permutation is the identity over the full width;
        // narrower permutations still need the projection.
        if let RamExpr::Project { ref proj, .. } = expr {
            if proj.output_arity() == order.len() {
                return expr;
            }
        } else {
            return expr;
        }
    }
    expr.project(RowProjection::new(
        order.iter().map(|&c| ScalarExpr::Col(c)).collect(),
        None,
    ))
}

/// Compiles one conjunctive body into a RAM rule.
fn compile_conjunct(
    head: &Atom,
    conjuncts: &[Body],
    schemas: &BTreeMap<String, RelationSchema>,
    symbols: &SymbolTable,
) -> Result<RamRule, DatalogError> {
    let head_schema = schemas
        .get(&head.name)
        .ok_or_else(|| DatalogError::semantic(format!("unknown relation `{}`", head.name)))?
        .clone();
    if head_schema.arity() != head.args.len() {
        return Err(DatalogError::semantic(format!(
            "head of rule for `{}` has arity {}, declared with {}",
            head.name,
            head.args.len(),
            head_schema.arity()
        )));
    }

    let mut builder = RuleBuilder {
        schemas,
        symbols,
        expr: None,
        bound: Vec::new(),
        var_types: BTreeMap::new(),
    };

    // First pass: atoms, collecting constraints for later.
    let mut pending: Vec<Expr> = Vec::new();
    for unit in conjuncts {
        match unit {
            Body::Atom(atom) => builder.add_atom(atom)?,
            Body::Constraint(expr) => pending.push(expr.clone()),
            Body::And(_) | Body::Or(_) => {
                return Err(DatalogError::semantic("body was not fully normalized"))
            }
        }
    }
    if builder.expr.is_none() {
        return Err(DatalogError::semantic(format!(
            "rule for `{}` has no relation atom in its body",
            head.name
        )));
    }

    // Second pass: constraints and bindings, applied once their variables are
    // bound, repeating until no further progress is possible.
    loop {
        let mut progress = false;
        let mut still_pending = Vec::new();
        for constraint in pending {
            let mut vars = Vec::new();
            constraint.collect_vars(&mut vars);
            let all_bound = vars.iter().all(|v| builder.column_of(v).is_some());
            if all_bound {
                // `true` constraints (e.g. from `= true` bodies) are no-ops.
                if matches!(constraint, Expr::Bool(true)) {
                    progress = true;
                    continue;
                }
                builder.add_constraint(&constraint)?;
                progress = true;
                continue;
            }
            // Binding form: `v == expr` (or `expr == v`) with exactly one
            // unbound side.
            if let Expr::Binary(BinOp::Eq, lhs, rhs) = &constraint {
                let try_bind = |builder: &mut RuleBuilder,
                                var_side: &Expr,
                                val_side: &Expr|
                 -> Result<bool, DatalogError> {
                    if let Some(var) = var_side.as_var() {
                        if builder.column_of(var).is_none() {
                            let mut val_vars = Vec::new();
                            val_side.collect_vars(&mut val_vars);
                            if val_vars.iter().all(|v| builder.column_of(v).is_some()) {
                                builder.add_binding(var, val_side)?;
                                return Ok(true);
                            }
                        }
                    }
                    Ok(false)
                };
                if try_bind(&mut builder, lhs, rhs)? || try_bind(&mut builder, rhs, lhs)? {
                    progress = true;
                    continue;
                }
            }
            still_pending.push(constraint);
        }
        pending = still_pending;
        if pending.is_empty() || !progress {
            break;
        }
    }
    if !pending.is_empty() {
        return Err(DatalogError::semantic(format!(
            "constraint {:?} in rule for `{}` uses unbound variables",
            pending[0], head.name
        )));
    }

    // Head projection.
    let outputs: Vec<ScalarExpr> = head
        .args
        .iter()
        .zip(&head_schema.arg_types)
        .map(|(arg, ty)| builder.to_scalar(arg, Some(*ty)))
        .collect::<Result<_, _>>()?;
    let expr = builder
        .expr
        .take()
        // cannot fail: an atom-less body returned above; constraints only wrap the expression.
        .expect("expression present after atoms")
        .project(RowProjection::new(outputs, None));

    Ok(RamRule {
        target: head.name.clone(),
        expr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_items;

    fn compile_src(src: &str) -> CompiledProgram {
        compile(&parse_items(src).unwrap()).unwrap()
    }

    #[test]
    fn transitive_closure_compiles_to_one_recursive_stratum() {
        let program = compile_src(
            "type edge(x: u32, y: u32)
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
             query path",
        );
        assert_eq!(program.ram.strata.len(), 1);
        let stratum = &program.ram.strata[0];
        assert!(stratum.recursive);
        assert_eq!(stratum.rules.len(), 2);
        assert_eq!(program.ram.outputs, vec!["path".to_string()]);
        validate_program(&program.ram).unwrap();
    }

    #[test]
    fn constants_in_atoms_become_filters() {
        let program = compile_src(
            "type edge(x: u32, y: u32)
             rel from_zero(y) = edge(0, y)",
        );
        let rule = &program.ram.strata[0].rules[0];
        // The atom projection must carry a filter.
        let mut found_filter = false;
        rule.expr.visit(&mut |e| {
            if let RamExpr::Project { proj, .. } = e {
                if proj.filter.is_some() {
                    found_filter = true;
                }
            }
        });
        assert!(found_filter);
    }

    #[test]
    fn repeated_variables_in_one_atom_become_equality_filters() {
        let program = compile_src(
            "type edge(x: u32, y: u32)
             rel self_loop(x) = edge(x, x)",
        );
        validate_program(&program.ram).unwrap();
        let rule = &program.ram.strata[0].rules[0];
        let mut found_filter = false;
        rule.expr.visit(&mut |e| {
            if let RamExpr::Project { proj, .. } = e {
                if proj.filter.is_some() {
                    found_filter = true;
                }
            }
        });
        assert!(found_filter);
    }

    #[test]
    fn bindings_extend_the_tuple() {
        let program = compile_src(
            "type cell(x: u32)
             rel next(x, y) = cell(x), y == x + 1",
        );
        validate_program(&program.ram).unwrap();
        assert_eq!(program.ram.schemas["next"].arity(), 2);
    }

    #[test]
    fn facts_are_collected_with_probabilities() {
        let program = compile_src(
            r#"type edge(x: u32, y: u32)
               rel edge = {(0, 1), 0.5::(1, 2)}
               rel path(x, y) = edge(x, y)"#,
        );
        assert_eq!(program.facts.len(), 2);
        assert_eq!(program.facts[0].probability, None);
        assert_eq!(program.facts[1].probability, Some(0.5));
        assert_eq!(program.facts[1].values, vec![Value::U32(1), Value::U32(2)]);
    }

    #[test]
    fn string_constants_are_interned() {
        let program = compile_src(
            r#"type kinship(r: String, a: u32, b: u32)
               rel mother(a, b) = kinship("mother", a, b)"#,
        );
        assert!(program.symbols.lookup("mother").is_some());
    }

    #[test]
    fn unbound_head_variable_is_an_error() {
        let items = parse_items(
            "type edge(x: u32, y: u32)
             rel bad(x, z) = edge(x, y)",
        )
        .unwrap();
        assert!(compile(&items).is_err());
    }

    #[test]
    fn unbound_constraint_variable_is_an_error() {
        let items = parse_items(
            "type edge(x: u32, y: u32)
             rel bad(x) = edge(x, y), z < y",
        )
        .unwrap();
        assert!(compile(&items).is_err());
    }

    #[test]
    fn cartesian_product_when_no_shared_variables() {
        let program = compile_src(
            "type a(x: u32)
             type b(y: u32)
             rel pair(x, y) = a(x), b(y)",
        );
        let mut found_product = false;
        program.ram.strata[0].rules[0].expr.visit(&mut |e| {
            if matches!(e, RamExpr::Join { width: 0, .. }) {
                found_product = true;
            }
        });
        assert!(found_product);
    }

    #[test]
    fn nullary_heads_are_supported() {
        let program = compile_src(
            "type edge(x: u32, y: u32)
             rel connected() = edge(x, y)",
        );
        assert_eq!(program.ram.schemas["connected"].arity(), 0);
        validate_program(&program.ram).unwrap();
    }

    #[test]
    fn mutual_recursion_shares_a_stratum() {
        let program = compile_src(
            "type succ(x: u32, y: u32)
             type zero(x: u32)
             rel even(x) = zero(x) or (odd(y), succ(y, x))
             rel odd(x) = even(y), succ(y, x)",
        );
        assert_eq!(program.ram.strata.len(), 1);
        assert_eq!(program.ram.strata[0].relations.len(), 2);
        assert!(program.ram.strata[0].recursive);
    }
}
