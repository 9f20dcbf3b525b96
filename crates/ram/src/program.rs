//! The RAM program structure: expressions, rules, strata, and programs.

use crate::{RowProjection, ScalarExpr, ValueType};
use std::collections::BTreeMap;

/// The schema of one relation: its name and column types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSchema {
    /// Relation name.
    pub name: String,
    /// Column types, in order.
    pub arg_types: Vec<ValueType>,
}

impl RelationSchema {
    /// Creates a schema.
    pub fn new(name: impl Into<String>, arg_types: Vec<ValueType>) -> Self {
        RelationSchema {
            name: name.into(),
            arg_types,
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.arg_types.len()
    }
}

/// A relational-algebra expression (the `ε` of Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub enum RamExpr {
    /// A reference to a relation in the database.
    Relation(String),
    /// Projection `π_α(ε)`; may also filter rows (a fused `σ∘π`).
    Project {
        /// Input expression.
        input: Box<RamExpr>,
        /// The projection function.
        proj: RowProjection,
    },
    /// Selection `σ_β(ε)`.
    Select {
        /// Input expression.
        input: Box<RamExpr>,
        /// The selection predicate over the input row.
        cond: ScalarExpr,
    },
    /// Join `ε₁ ⊲⊳_w ε₂` on the first `w` columns of each side. The output
    /// row is the left row followed by the non-key columns of the right row.
    /// A join on no columns is the cartesian product `ε₁ × ε₂`, and one on
    /// every column of two sides of equal arity is the intersection
    /// `ε₁ ∩ ε₂`.
    Join {
        /// Left (probe) input.
        left: Box<RamExpr>,
        /// Right (build) input.
        right: Box<RamExpr>,
        /// Number of key columns.
        width: usize,
    },
    /// Union `ε₁ ∪ ε₂`.
    Union(Box<RamExpr>, Box<RamExpr>),
}

impl RamExpr {
    /// A reference to a relation.
    pub fn relation(name: impl Into<String>) -> Self {
        RamExpr::Relation(name.into())
    }

    /// Wraps the expression in a projection.
    pub fn project(self, proj: RowProjection) -> Self {
        RamExpr::Project {
            input: Box::new(self),
            proj,
        }
    }

    /// Wraps the expression in a selection.
    pub fn select(self, cond: ScalarExpr) -> Self {
        RamExpr::Select {
            input: Box::new(self),
            cond,
        }
    }

    /// Joins two expressions on their first `width` columns.
    pub fn join(self, other: RamExpr, width: usize) -> Self {
        RamExpr::Join {
            left: Box::new(self),
            right: Box::new(other),
            width,
        }
    }

    /// The arity of the expression given a lookup of relation arities.
    pub fn arity(&self, relation_arity: &impl Fn(&str) -> Option<usize>) -> Option<usize> {
        match self {
            RamExpr::Relation(name) => relation_arity(name),
            RamExpr::Project { proj, .. } => Some(proj.output_arity()),
            RamExpr::Select { input, .. } => input.arity(relation_arity),
            RamExpr::Join { left, right, width } => {
                let l = left.arity(relation_arity)?;
                let r = right.arity(relation_arity)?;
                Some(l + r - width)
            }
            RamExpr::Union(l, _) => l.arity(relation_arity),
        }
    }

    /// Collects the names of every relation referenced by the expression.
    pub fn referenced_relations(&self, out: &mut Vec<String>) {
        match self {
            RamExpr::Relation(name) => out.push(name.clone()),
            RamExpr::Project { input, .. } | RamExpr::Select { input, .. } => {
                input.referenced_relations(out)
            }
            RamExpr::Join { left, right, .. } | RamExpr::Union(left, right) => {
                left.referenced_relations(out);
                right.referenced_relations(out);
            }
        }
    }

    /// The expression with every relation leaf replaced by `f` of its name,
    /// the leaves met in the order [`RamExpr::referenced_relations`] lists
    /// them.
    pub fn map_leaves(&self, f: &mut impl FnMut(&str) -> RamExpr) -> RamExpr {
        let mut pair = |left: &RamExpr, right: &RamExpr| {
            let left = Box::new(left.map_leaves(f));
            (left, Box::new(right.map_leaves(f)))
        };
        match self {
            RamExpr::Relation(name) => f(name),
            RamExpr::Project { input, proj } => input.map_leaves(f).project(proj.clone()),
            RamExpr::Select { input, cond } => input.map_leaves(f).select(cond.clone()),
            RamExpr::Join { left, right, width } => {
                let (left, right) = pair(left, right);
                RamExpr::Join {
                    left,
                    right,
                    width: *width,
                }
            }
            RamExpr::Union(left, right) => {
                let (left, right) = pair(left, right);
                RamExpr::Union(left, right)
            }
        }
    }

    /// Number of operator nodes in the expression tree.
    pub fn node_count(&self) -> usize {
        let mut count = 0;
        self.visit(&mut |_| count += 1);
        count
    }

    /// Visits every sub-expression, outermost first.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a RamExpr)) {
        f(self);
        match self {
            RamExpr::Relation(_) => {}
            RamExpr::Project { input, .. } | RamExpr::Select { input, .. } => input.visit(f),
            RamExpr::Join { left, right, .. } | RamExpr::Union(left, right) => {
                left.visit(f);
                right.visit(f);
            }
        }
    }
}

/// A RAM rule `ρ ← ε`.
#[derive(Debug, Clone, PartialEq)]
pub struct RamRule {
    /// The relation updated by this rule.
    pub target: String,
    /// The query producing new facts for the target.
    pub expr: RamExpr,
}

/// A stratum: a set of rules evaluated together to a fix point.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Stratum {
    /// Relations defined (updated) by this stratum.
    pub relations: Vec<String>,
    /// The rules of the stratum.
    pub rules: Vec<RamRule>,
    /// Whether the stratum is recursive (needs fix-point iteration).
    pub recursive: bool,
}

/// A complete RAM program: schemas, strata in evaluation order, and the
/// relations the user asked to query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RamProgram {
    /// Schemas of every relation (EDB and IDB).
    pub schemas: BTreeMap<String, RelationSchema>,
    /// Strata in dependency order.
    pub strata: Vec<Stratum>,
    /// Output (queried) relations.
    pub outputs: Vec<String>,
}

impl RamProgram {
    /// The schema of a relation, if declared.
    pub fn schema(&self, name: &str) -> Option<&RelationSchema> {
        self.schemas.get(name)
    }

    /// The interner ids of every symbol constant appearing in any rule
    /// expression, sorted and deduplicated. Introspection only: storage
    /// keeps a symbol as its interner id, so no runtime needs the list.
    pub fn symbol_constants(&self) -> Vec<u32> {
        let mut ids = Vec::new();
        for stratum in &self.strata {
            for rule in &stratum.rules {
                rule.expr.visit(&mut |node| match node {
                    RamExpr::Select { cond, .. } => cond.symbol_consts(&mut ids),
                    RamExpr::Project { proj, .. } => proj.symbol_consts(&mut ids),
                    _ => {}
                });
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// A name `benchmark/` still spells; always `false`, because the
    /// validator rejects arithmetic over symbols. The next change to
    /// `benchmark/` drops it.
    #[doc(hidden)]
    pub fn has_symbol_arithmetic(&self) -> bool {
        false
    }

    /// Likewise: storage no longer depends on `u32` arithmetic, so this is
    /// always `false`.
    #[doc(hidden)]
    pub fn has_u32_arithmetic(&self) -> bool {
        false
    }

    /// The arity of a relation, if declared.
    pub fn arity(&self, name: &str) -> Option<usize> {
        self.schemas.get(name).map(RelationSchema::arity)
    }

    /// Relations that are never the target of any rule (the extensional
    /// database).
    pub fn edb_relations(&self) -> Vec<String> {
        let idb: std::collections::BTreeSet<&str> = self
            .strata
            .iter()
            .flat_map(|s| s.rules.iter().map(|r| r.target.as_str()))
            .collect();
        self.schemas
            .keys()
            .filter(|name| !idb.contains(name.as_str()))
            .cloned()
            .collect()
    }

    /// A deterministic estimate of the compiled program's resident size in
    /// bytes: relation schemas plus every operator node of every rule at a
    /// fixed per-node cost. Serving-layer caches use this as the LRU weight
    /// when budgeting how many compiled programs stay resident, so the exact
    /// constants matter less than the estimate being stable across runs and
    /// monotone in program complexity.
    pub fn size_estimate(&self) -> usize {
        // Costs approximate the in-memory footprint of the corresponding
        // structures (strings, boxed enum nodes, vectors) on a 64-bit target.
        const PER_SCHEMA: usize = 64;
        const PER_COLUMN: usize = 16;
        const PER_RULE: usize = 64;
        const PER_EXPR_NODE: usize = 96;
        let schemas: usize = self
            .schemas
            .values()
            .map(|s| PER_SCHEMA + s.name.len() + s.arg_types.len() * PER_COLUMN)
            .sum();
        let rules: usize = self
            .strata
            .iter()
            .flat_map(|stratum| stratum.rules.iter())
            .map(|rule| PER_RULE + rule.target.len() + rule.expr.node_count() * PER_EXPR_NODE)
            .sum();
        let outputs: usize = self.outputs.iter().map(|name| 24 + name.len()).sum();
        schemas + rules + outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{validate_program, IrErrorKind};
    use crate::{RowProjection, ScalarExpr};

    fn tc_program() -> RamProgram {
        // path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y)).
        let mut schemas = BTreeMap::new();
        schemas.insert(
            "edge".to_string(),
            RelationSchema::new("edge", vec![ValueType::U32, ValueType::U32]),
        );
        schemas.insert(
            "path".to_string(),
            RelationSchema::new("path", vec![ValueType::U32, ValueType::U32]),
        );
        let base = RamRule {
            target: "path".into(),
            expr: RamExpr::relation("edge"),
        };
        // path(x,z) joined with edge(z,y) on z: reorder path to (z, x).
        let path_zx = RamExpr::relation("path").project(RowProjection::new(
            vec![ScalarExpr::Col(1), ScalarExpr::Col(0)],
            None,
        ));
        let joined = path_zx.join(RamExpr::relation("edge"), 1);
        // joined columns: (z, x, y) -> project to (x, y).
        let rec = RamRule {
            target: "path".into(),
            expr: joined.project(RowProjection::new(
                vec![ScalarExpr::Col(1), ScalarExpr::Col(2)],
                None,
            )),
        };
        RamProgram {
            schemas,
            strata: vec![Stratum {
                relations: vec!["path".into()],
                rules: vec![base, rec],
                recursive: true,
            }],
            outputs: vec!["path".into()],
        }
    }

    /// What `validate_program` rejects in `prog`, all of it at the rule
    /// appended to `tc_program`'s stratum.
    fn rejections(prog: &RamProgram) -> Vec<IrErrorKind> {
        let errors = validate_program(prog).unwrap_err();
        for error in &errors {
            assert_eq!((error.rule.stratum, error.rule.rule), (0, 2), "{error}");
        }
        errors.into_iter().map(|error| error.kind).collect()
    }

    #[test]
    fn transitive_closure_program_validates() {
        let prog = tc_program();
        validate_program(&prog).unwrap();
        assert_eq!(prog.edb_relations(), vec!["edge".to_string()]);
    }

    #[test]
    fn arity_of_join_expression() {
        let prog = tc_program();
        let lookup = |name: &str| prog.arity(name);
        let expr = RamExpr::relation("path").join(RamExpr::relation("edge"), 1);
        assert_eq!(expr.arity(&lookup), Some(3));
        let product = RamExpr::relation("path").join(RamExpr::relation("edge"), 0);
        assert_eq!(product.arity(&lookup), Some(4));
    }

    #[test]
    fn unknown_relation_is_rejected() {
        let mut prog = tc_program();
        prog.strata[0].rules.push(RamRule {
            target: "path".into(),
            expr: RamExpr::relation("ghost"),
        });
        assert_eq!(
            rejections(&prog),
            [IrErrorKind::UnknownRelation("ghost".into())]
        );
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut prog = tc_program();
        prog.strata[0].rules.push(RamRule {
            target: "path".into(),
            expr: RamExpr::relation("edge")
                .project(RowProjection::new(vec![ScalarExpr::Col(0)], None)),
        });
        assert_eq!(
            rejections(&prog),
            [IrErrorKind::TargetArityMismatch {
                expected: 2,
                actual: 1
            }]
        );
    }

    #[test]
    fn bad_join_width_is_rejected() {
        let mut prog = tc_program();
        prog.strata[0].rules.push(RamRule {
            target: "path".into(),
            expr: RamExpr::relation("edge").join(RamExpr::relation("edge"), 3),
        });
        assert_eq!(
            rejections(&prog),
            [IrErrorKind::BadJoinWidth {
                width: 3,
                left: 2,
                right: 2
            }]
        );
    }

    #[test]
    fn referenced_relations_are_collected() {
        let expr = RamExpr::relation("a")
            .join(RamExpr::relation("b"), 1)
            .select(ScalarExpr::binary(
                crate::BinaryOp::Ne,
                ValueType::U32,
                ScalarExpr::Col(0),
                ScalarExpr::Col(1),
            ));
        let mut refs = Vec::new();
        expr.referenced_relations(&mut refs);
        assert_eq!(refs, vec!["a".to_string(), "b".to_string()]);
    }
}
