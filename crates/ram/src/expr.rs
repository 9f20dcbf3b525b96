//! Scalar expressions and the bytecode stack machine that evaluates them.
//!
//! Projection and selection functions in RAM are arbitrary expressions over
//! the columns of a row. Following Section 5.2 of the paper, expressions that
//! merely permute or subset columns take a fast path of columnar copies,
//! while expressions containing arithmetic or comparisons are compiled to a
//! small bytecode program executed by each device thread against one row with
//! a fixed-size stack.

use crate::{Value, ValueType};

/// Binary operators usable in projection / selection expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division by zero yields 0).
    Div,
    /// Remainder (by zero yields 0).
    Rem,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical and.
    And,
    /// Logical or.
    Or,
}

impl BinaryOp {
    /// Whether the operator produces a boolean regardless of operand type.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        )
    }

    /// Whether the operator computes a number from its operands' magnitudes
    /// (`+ - * / %`), as opposed to comparing or combining truth values.
    pub(crate) fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Rem
        )
    }
}

/// Unary operators usable in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation.
    Not,
}

/// A scalar expression over the columns of a row.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// The value of column `i` of the input row.
    Col(usize),
    /// A constant.
    Const(Value),
    /// A binary operation; `ty` is the operand type used for arithmetic and
    /// ordering semantics.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Operand type.
        ty: ValueType,
        /// Left operand.
        lhs: Box<ScalarExpr>,
        /// Right operand.
        rhs: Box<ScalarExpr>,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand type.
        ty: ValueType,
        /// Operand.
        expr: Box<ScalarExpr>,
    },
}

impl ScalarExpr {
    /// Convenience constructor for a typed binary expression.
    pub fn binary(op: BinaryOp, ty: ValueType, lhs: ScalarExpr, rhs: ScalarExpr) -> Self {
        ScalarExpr::Binary {
            op,
            ty,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Convenience constructor for a typed unary expression.
    pub fn unary(op: UnaryOp, ty: ValueType, expr: ScalarExpr) -> Self {
        ScalarExpr::Unary {
            op,
            ty,
            expr: Box::new(expr),
        }
    }

    /// Compiles the expression to bytecode.
    pub fn compile(&self) -> ExprProgram {
        let mut ops = Vec::new();
        self.emit(&mut ops);
        ExprProgram { ops }
    }

    fn emit(&self, ops: &mut Vec<ByteOp>) {
        match self {
            ScalarExpr::Col(i) => ops.push(ByteOp::PushCol(*i)),
            // Symbol constants keep their identity in the bytecode, so
            // `RamProgram::symbol_constants` can list them; they evaluate to
            // the same word as `PushConst` would.
            ScalarExpr::Const(Value::Symbol(id)) => ops.push(ByteOp::PushSymConst(*id)),
            ScalarExpr::Const(v) => ops.push(ByteOp::PushConst(v.encode())),
            ScalarExpr::Binary { op, ty, lhs, rhs } => {
                lhs.emit(ops);
                rhs.emit(ops);
                ops.push(ByteOp::Binary(*op, *ty));
            }
            ScalarExpr::Unary { op, ty, expr } => {
                expr.emit(ops);
                ops.push(ByteOp::Unary(*op, *ty));
            }
        }
    }

    /// If this expression is a bare column reference, returns its index.
    pub fn as_column(&self) -> Option<usize> {
        match self {
            ScalarExpr::Col(i) => Some(*i),
            _ => None,
        }
    }

    /// Collects the interner ids of every `Value::Symbol` constant in the
    /// expression tree.
    pub fn symbol_consts(&self, out: &mut Vec<u32>) {
        match self {
            ScalarExpr::Const(Value::Symbol(id)) => out.push(*id),
            ScalarExpr::Col(_) | ScalarExpr::Const(_) => {}
            ScalarExpr::Binary { lhs, rhs, .. } => {
                lhs.symbol_consts(out);
                rhs.symbol_consts(out);
            }
            ScalarExpr::Unary { expr, .. } => expr.symbol_consts(out),
        }
    }

    /// The largest column index referenced by the expression, if any.
    pub fn max_column(&self) -> Option<usize> {
        match self {
            ScalarExpr::Col(i) => Some(*i),
            ScalarExpr::Const(_) => None,
            ScalarExpr::Binary { lhs, rhs, .. } => match (lhs.max_column(), rhs.max_column()) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
            ScalarExpr::Unary { expr, .. } => expr.max_column(),
        }
    }
}

/// One bytecode instruction of the expression stack machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ByteOp {
    /// Push the encoded value of input column `i`.
    PushCol(usize),
    /// Push an encoded constant.
    PushConst(u64),
    /// Push a symbol constant by its interner id. Evaluates like
    /// `PushConst(id as u64)`; kept distinct so the program's symbol
    /// constants can be listed ([`ExprProgram::symbol_consts`]).
    PushSymConst(u32),
    /// Pop two operands, apply a typed binary operator, push the result.
    Binary(BinaryOp, ValueType),
    /// Pop one operand, apply a typed unary operator, push the result.
    Unary(UnaryOp, ValueType),
}

/// A compiled expression: a straight-line bytecode program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExprProgram {
    /// The instructions, executed in order.
    pub ops: Vec<ByteOp>,
}

impl ExprProgram {
    /// Evaluates the program against an encoded row, returning the encoded
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if the program is malformed (stack underflow) — compiled
    /// programs produced by [`ScalarExpr::compile`] are always well formed.
    pub fn eval(&self, row: &[u64]) -> u64 {
        let mut stack: Vec<u64> = Vec::with_capacity(8);
        self.eval_with_stack(row, &mut stack)
    }

    /// [`ExprProgram::eval`] with a caller-provided operand stack, so a hot
    /// loop evaluating many rows reuses one allocation. The stack is cleared
    /// on entry.
    ///
    /// # Panics
    ///
    /// Panics if the program is malformed (stack underflow) — compiled
    /// programs produced by [`ScalarExpr::compile`] are always well formed.
    pub fn eval_with_stack(&self, row: &[u64], stack: &mut Vec<u64>) -> u64 {
        stack.clear();
        for op in &self.ops {
            match op {
                ByteOp::PushCol(i) => stack.push(row[*i]),
                ByteOp::PushConst(c) => stack.push(*c),
                ByteOp::PushSymConst(id) => stack.push(u64::from(*id)),
                ByteOp::Binary(op, ty) => {
                    let b = stack.pop().expect("expression stack underflow");
                    let a = stack.pop().expect("expression stack underflow");
                    stack.push(apply_binary(*op, *ty, a, b));
                }
                ByteOp::Unary(op, ty) => {
                    let a = stack.pop().expect("expression stack underflow");
                    stack.push(apply_unary(*op, *ty, a));
                }
            }
        }
        stack.pop().expect("expression produced no value")
    }

    /// Evaluates the program as a boolean predicate (non-zero = true).
    pub fn eval_bool(&self, row: &[u64]) -> bool {
        self.eval(row) != 0
    }

    /// The interner ids of every symbol constant in the program.
    pub fn symbol_consts(&self, out: &mut Vec<u32>) {
        for op in &self.ops {
            if let ByteOp::PushSymConst(id) = op {
                out.push(*id);
            }
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` for the empty program.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

fn apply_binary(op: BinaryOp, ty: ValueType, a: u64, b: u64) -> u64 {
    use BinaryOp::*;
    match ty {
        ValueType::F64 => {
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            match op {
                Add => (x + y).to_bits(),
                Sub => (x - y).to_bits(),
                Mul => (x * y).to_bits(),
                Div => (x / y).to_bits(),
                Rem => (x % y).to_bits(),
                Eq => u64::from(x == y),
                Ne => u64::from(x != y),
                Lt => u64::from(x < y),
                Le => u64::from(x <= y),
                Gt => u64::from(x > y),
                Ge => u64::from(x >= y),
                And => u64::from(x != 0.0 && y != 0.0),
                Or => u64::from(x != 0.0 || y != 0.0),
            }
        }
        ValueType::I64 => {
            let (x, y) = (a as i64, b as i64);
            match op {
                Add => x.wrapping_add(y) as u64,
                Sub => x.wrapping_sub(y) as u64,
                Mul => x.wrapping_mul(y) as u64,
                Div => x.checked_div(y).unwrap_or(0) as u64,
                Rem => x.checked_rem(y).unwrap_or(0) as u64,
                Eq => u64::from(x == y),
                Ne => u64::from(x != y),
                Lt => u64::from(x < y),
                Le => u64::from(x <= y),
                Gt => u64::from(x > y),
                Ge => u64::from(x >= y),
                And => u64::from(x != 0 && y != 0),
                Or => u64::from(x != 0 || y != 0),
            }
        }
        // U32, Symbol, and Bool are 32-bit words: arithmetic wraps at 32
        // bits, so no result is a word its column type cannot hold. (The
        // validator rejects arithmetic over symbols and bools; the mask
        // keeps even a hand-built program inside the type.)
        _ => match op {
            Add => u64::from((a as u32).wrapping_add(b as u32)),
            Sub => u64::from((a as u32).wrapping_sub(b as u32)),
            Mul => u64::from((a as u32).wrapping_mul(b as u32)),
            Div => u64::from((a as u32).checked_div(b as u32).unwrap_or(0)),
            Rem => u64::from((a as u32).checked_rem(b as u32).unwrap_or(0)),
            Eq => u64::from(a == b),
            Ne => u64::from(a != b),
            Lt => u64::from(a < b),
            Le => u64::from(a <= b),
            Gt => u64::from(a > b),
            Ge => u64::from(a >= b),
            And => u64::from(a != 0 && b != 0),
            Or => u64::from(a != 0 || b != 0),
        },
    }
}

fn apply_unary(op: UnaryOp, ty: ValueType, a: u64) -> u64 {
    match (op, ty) {
        (UnaryOp::Neg, ValueType::F64) => (-f64::from_bits(a)).to_bits(),
        (UnaryOp::Neg, ValueType::I64) => (a as i64).wrapping_neg() as u64,
        (UnaryOp::Neg, _) => u64::from((a as u32).wrapping_neg()),
        (UnaryOp::Not, _) => u64::from(a == 0),
    }
}

/// A row-to-row projection: one compiled expression per output column, with a
/// fast path when the projection is a pure column permutation / subset.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RowProjection {
    /// The compiled expression for each output column.
    pub programs: Vec<ExprProgram>,
    /// When every output column is a bare input column, the list of source
    /// columns (the columnar-copy fast path of Section 5.2).
    pub permutation: Option<Vec<usize>>,
    /// Optional selection predicate applied to the *input* row; rows failing
    /// the predicate produce no output.
    pub filter: Option<ExprProgram>,
}

impl RowProjection {
    /// Builds a projection from output expressions and an optional filter.
    pub fn new(outputs: Vec<ScalarExpr>, filter: Option<ScalarExpr>) -> Self {
        let permutation: Option<Vec<usize>> = if filter.is_none() {
            outputs.iter().map(ScalarExpr::as_column).collect()
        } else {
            None
        };
        RowProjection {
            programs: outputs.iter().map(ScalarExpr::compile).collect(),
            permutation,
            filter: filter.map(|f| f.compile()),
        }
    }

    /// The identity projection over `arity` columns.
    pub fn identity(arity: usize) -> Self {
        RowProjection::new((0..arity).map(ScalarExpr::Col).collect(), None)
    }

    /// Number of output columns.
    pub fn output_arity(&self) -> usize {
        self.programs.len()
    }

    /// Evaluates the projection against an encoded row; `None` when the
    /// filter rejects the row.
    pub fn eval(&self, row: &[u64]) -> Option<Vec<u64>> {
        if let Some(filter) = &self.filter {
            if !filter.eval_bool(row) {
                return None;
            }
        }
        Some(self.programs.iter().map(|p| p.eval(row)).collect())
    }

    /// Allocation-free [`RowProjection::eval`]: writes the output row into
    /// `out` (length must equal [`RowProjection::output_arity`]) reusing the
    /// caller's expression stack, returning `false` when the filter rejects
    /// the row (leaving `out` unspecified).
    pub fn eval_into(&self, row: &[u64], out: &mut [u64], stack: &mut Vec<u64>) -> bool {
        debug_assert_eq!(out.len(), self.output_arity());
        if let Some(filter) = &self.filter {
            if filter.eval_with_stack(row, stack) == 0 {
                return false;
            }
        }
        for (slot, program) in out.iter_mut().zip(&self.programs) {
            *slot = program.eval_with_stack(row, stack);
        }
        true
    }

    /// Whether the projection is a pure column permutation (no arithmetic, no
    /// filter), eligible for the columnar-copy fast path.
    pub fn is_permutation(&self) -> bool {
        self.permutation.is_some()
    }

    /// Collects the interner ids of every symbol constant in the projection.
    pub fn symbol_consts(&self, out: &mut Vec<u32>) {
        for program in &self.programs {
            program.symbol_consts(out);
        }
        if let Some(filter) = &self.filter {
            filter.symbol_consts(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_on_u32() {
        let e = ScalarExpr::binary(
            BinaryOp::Add,
            ValueType::U32,
            ScalarExpr::Col(0),
            ScalarExpr::Const(Value::U32(5)),
        );
        assert_eq!(e.compile().eval(&[10]), 15);
        // Every `u32` result wraps at 32 bits, never at the 64-bit word.
        let max = u64::from(u32::MAX);
        assert_eq!(e.compile().eval(&[max]), 4);
        let at = |op, a, b| {
            let e = ScalarExpr::binary(op, ValueType::U32, ScalarExpr::Col(0), ScalarExpr::Col(1));
            e.compile().eval(&[a, b])
        };
        assert_eq!(at(BinaryOp::Sub, 0, 1), max);
        assert_eq!(at(BinaryOp::Mul, 65_536, 65_536), 0);
        assert_eq!(at(BinaryOp::Add, 1, max), 0);
        let neg = ScalarExpr::unary(UnaryOp::Neg, ValueType::U32, ScalarExpr::Col(0));
        assert_eq!(neg.compile().eval(&[1]), max);
    }

    #[test]
    fn arithmetic_on_f64() {
        let e = ScalarExpr::binary(
            BinaryOp::Div,
            ValueType::F64,
            ScalarExpr::Col(0),
            ScalarExpr::Col(1),
        );
        let row = [Value::F64(1.0).encode(), Value::F64(4.0).encode()];
        assert_eq!(f64::from_bits(e.compile().eval(&row)), 0.25);
    }

    #[test]
    fn signed_comparison_respects_sign() {
        let e = ScalarExpr::binary(
            BinaryOp::Lt,
            ValueType::I64,
            ScalarExpr::Const(Value::I64(-5)),
            ScalarExpr::Const(Value::I64(3)),
        );
        assert_eq!(e.compile().eval(&[]), 1);
    }

    #[test]
    fn division_by_zero_is_zero_for_integers() {
        let e = ScalarExpr::binary(
            BinaryOp::Div,
            ValueType::U32,
            ScalarExpr::Const(Value::U32(10)),
            ScalarExpr::Const(Value::U32(0)),
        );
        assert_eq!(e.compile().eval(&[]), 0);
    }

    #[test]
    fn unary_operators() {
        let neg = ScalarExpr::unary(UnaryOp::Neg, ValueType::I64, ScalarExpr::Col(0));
        assert_eq!(neg.compile().eval(&[Value::I64(4).encode()]) as i64, -4);
        let not = ScalarExpr::unary(UnaryOp::Not, ValueType::Bool, ScalarExpr::Col(0));
        assert_eq!(not.compile().eval(&[0]), 1);
        assert_eq!(not.compile().eval(&[1]), 0);
    }

    #[test]
    fn projection_permutation_fast_path() {
        let proj = RowProjection::new(vec![ScalarExpr::Col(2), ScalarExpr::Col(0)], None);
        assert!(proj.is_permutation());
        assert_eq!(proj.permutation, Some(vec![2, 0]));
        assert_eq!(proj.eval(&[10, 20, 30]), Some(vec![30, 10]));
    }

    #[test]
    fn projection_with_filter_rejects_rows() {
        let filter = ScalarExpr::binary(
            BinaryOp::Ne,
            ValueType::U32,
            ScalarExpr::Col(0),
            ScalarExpr::Col(1),
        );
        let proj = RowProjection::new(vec![ScalarExpr::Col(0)], Some(filter));
        assert!(!proj.is_permutation());
        assert_eq!(proj.eval(&[1, 1]), None);
        assert_eq!(proj.eval(&[1, 2]), Some(vec![1]));
    }

    #[test]
    fn identity_projection() {
        let proj = RowProjection::identity(3);
        assert_eq!(proj.output_arity(), 3);
        assert_eq!(proj.eval(&[7, 8, 9]), Some(vec![7, 8, 9]));
    }

    #[test]
    fn symbol_consts_are_listed_and_evaluate_to_their_id() {
        let e = ScalarExpr::binary(
            BinaryOp::Eq,
            ValueType::Symbol,
            ScalarExpr::Col(0),
            ScalarExpr::Const(Value::Symbol(40)),
        );
        let program = e.compile();
        let mut ids = Vec::new();
        program.symbol_consts(&mut ids);
        assert_eq!(ids, vec![40]);
        // The constant evaluates to its interner id.
        assert_eq!(program.eval(&[40]), 1);
        assert_eq!(program.eval(&[41]), 0);

        let proj = RowProjection::new(vec![ScalarExpr::Col(0)], Some(e));
        let mut ids = Vec::new();
        proj.symbol_consts(&mut ids);
        assert_eq!(ids, vec![40]);
        assert_eq!(proj.eval(&[40]), Some(vec![40]));
        assert_eq!(proj.eval(&[7]), None);
    }

    #[test]
    fn max_column_tracks_references() {
        let e = ScalarExpr::binary(
            BinaryOp::Add,
            ValueType::U32,
            ScalarExpr::Col(3),
            ScalarExpr::Const(Value::U32(1)),
        );
        assert_eq!(e.max_column(), Some(3));
        assert_eq!(ScalarExpr::Const(Value::U32(1)).max_column(), None);
    }
}
