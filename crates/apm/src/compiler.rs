//! The RAM → APM compiler (paper Section 3.3 and Appendix A).
//!
//! Each stratum of a RAM program is flattened into a straight-line APM
//! program that is executed once per fix-point iteration. The compiler:
//!
//! * expands every rule into its semi-naive variants over the stable /
//!   recent / all partitions of the database, so only the frontier of newly
//!   derived facts drives each iteration (Section 3.4);
//! * lowers project and select to `eval` (row-level parallelism), joins to
//!   the `build`/`count`/`scan`/`join` sequence of Figure 6 — the `join`
//!   writes the output columns itself, and a column permutation directly
//!   over a join is folded into that list — and unions to `append`. A join
//!   on no columns, a cartesian product, reads a constant key on each side
//!   and builds on its right one, so it runs like any other hash join;
//! * has the `join` or `eval` whose table a `store` stages as it is write
//!   it in the stored relation's storage encoding, so a candidate row is
//!   born packed — a permutation over a selection or another projection is
//!   composed with it into one `eval` for that;
//! * picks each join's strategy per semi-naive variant from the sorted
//!   column prefix it tracks through the expression: a merge where both
//!   sides arrive sorted on the key, a hash build+probe otherwise. This is
//!   the only place the choice is made; [`CompiledStratum`] counts it, and
//!   `lobster-lint` and the golden ledger report those counts;
//! * marks hash indices whose build side is iteration-invariant as *static
//!   registers* so they are built once and reused (Section 4.2) — the
//!   "linear recursion" case that covers nearly all programs in the paper's
//!   evaluation;
//! * in the compiles a refresh makes ([`compile_stratum_delta`] and the
//!   passes of a retraction), reads only the matching rows of a stored leaf
//!   that a join meets with a Δ (`lookup`), where the leaf's table or one of
//!   the [`secondary_orders`] the database keeps is sorted on the join key.

use crate::config::RuntimeOptions;
use crate::database::{plan_lanes, SecondaryOrder};
use crate::isa::{ApmProgram, DbPart, Instr, JoinSource, JoinWrite, RegId};
use lobster_gpu::kernels::identity_lanes;
use lobster_ram::{
    ByteOp, ExprProgram, RamExpr, RamProgram, RamRule, RowProjection, ScalarExpr, Stratum, Value,
};
use std::collections::BTreeSet;

/// The result of compiling one stratum.
#[derive(Debug, PartialEq)]
pub struct CompiledStratum {
    /// The APM program executed each iteration.
    pub program: ApmProgram,
    /// Relations updated by the stratum.
    pub relations: Vec<String>,
    /// Whether the stratum requires fix-point iteration.
    pub recursive: bool,
    /// Join sites compiled to the merge path (across all semi-naive
    /// variants).
    pub merge_joins: usize,
    /// Join sites compiled to the hash build+probe path.
    pub hash_joins: usize,
}

impl CompiledStratum {
    /// A deterministic estimate of the compiled stratum's resident size in
    /// bytes (see [`ApmProgram::size_estimate`]).
    pub fn size_estimate(&self) -> usize {
        let names: usize = self.relations.iter().map(|r| 24 + r.len()).sum();
        self.program.size_estimate() + names
    }
}

struct Compiler<'a> {
    ram: &'a RamProgram,
    /// The relations whose leaves take part in the stable / recent / all
    /// partitioning: the stratum's own, plus `changed_inputs`.
    tracked: BTreeSet<String>,
    /// Set only by [`compile_stratum_delta`]: tracked relations the stratum
    /// reads but does not update. Their split is the caller's and stays put
    /// while the stratum iterates.
    changed_inputs: BTreeSet<String>,
    instructions: Vec<Instr>,
    first_iteration_only: Vec<bool>,
    static_registers: Vec<RegId>,
    next_reg: u32,
    current_first_only: bool,
    /// Set only by [`compile_stratum_hash_only`]: ignore sort-order
    /// inference and send every join through the hash path.
    hash_only: bool,
    /// Set only by the compiles a refresh makes: where a join may look up
    /// a stored leaf's rows instead of reading it whole.
    keyed: Option<Keyed<'a>>,
    merge_joins: usize,
    hash_joins: usize,
}

/// What a refresh's compile knows that a from-scratch one does not: which
/// leaves hold a Δ, and which stored tables are sorted on which keys.
struct Keyed<'a> {
    /// Relations every leaf of which holds a Δ: the scratch relations of a
    /// retraction's passes. (A tracked leaf's `recent` holds one too.)
    driving: &'a BTreeSet<String>,
    /// The secondary orders the database keeps.
    orders: &'a [SecondaryOrder],
}

/// A relation leaf, or a column permutation of one, that is one side of a
/// join on `width` columns: the relation, and the relation columns the
/// side's first `width` columns copy — the key the join reads it on.
fn leaf_key(expr: &RamExpr, width: usize) -> Option<(&str, Vec<usize>)> {
    let (name, permutation) = match expr {
        RamExpr::Relation(name) => (name, None),
        RamExpr::Project { input, proj } => match (&**input, &proj.permutation) {
            (RamExpr::Relation(name), Some(permutation)) => (name, Some(permutation)),
            _ => return None,
        },
        _ => return None,
    };
    let key = (0..width)
        .map(|c| permutation.map_or(c, |p| p[c]))
        .collect();
    Some((name, key))
}

/// Whether `key` is the first `key.len()` columns, in order: a table stored
/// sorted is sorted on it.
fn is_prefix(key: &[usize]) -> bool {
    key.iter().copied().eq(0..key.len())
}

/// How a join site is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinStrategy {
    /// Build a hash index over the build side, probe per row.
    Hash,
    /// Both sides sorted on the key prefix: binary-search the sorted build
    /// side per probe row, no index at all.
    Merge,
}

/// Picks the strategy for a join on `width` key columns whose inputs are
/// sorted on `left_prefix` / `right_prefix` columns. A zero-width join is a
/// cartesian product in disguise and never merges.
fn join_strategy(left_prefix: usize, right_prefix: usize, width: usize) -> JoinStrategy {
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
fn projection_sorted_prefix(proj: &RowProjection, input_prefix: usize) -> usize {
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

/// The value flowing out of [`Compiler::compile_expr`]: the registers of a
/// table plus the statically known sorted column prefix of its rows (the
/// fact the join-strategy decision consumes).
struct Compiled {
    columns: Vec<RegId>,
    tags: RegId,
    sorted_prefix: usize,
}

impl<'a> Compiler<'a> {
    fn new(ram: &'a RamProgram, own_relations: BTreeSet<String>) -> Self {
        Compiler {
            ram,
            tracked: own_relations,
            changed_inputs: BTreeSet::new(),
            instructions: Vec::new(),
            first_iteration_only: Vec::new(),
            static_registers: Vec::new(),
            next_reg: 0,
            current_first_only: false,
            hash_only: false,
            keyed: None,
            merge_joins: 0,
            hash_joins: 0,
        }
    }

    /// Assembles the emitted instructions into the stratum's program, which
    /// is where every register's last reader is marked.
    fn finish(self, stratum: &Stratum, recursive: bool) -> CompiledStratum {
        CompiledStratum {
            program: ApmProgram::new(
                self.instructions,
                self.first_iteration_only,
                self.next_reg,
                self.static_registers,
                stratum.relations.clone(),
            ),
            relations: stratum.relations.clone(),
            recursive,
            merge_joins: self.merge_joins,
            hash_joins: self.hash_joins,
        }
    }

    fn fresh(&mut self) -> RegId {
        let reg = RegId(self.next_reg);
        self.next_reg += 1;
        reg
    }

    fn fresh_n(&mut self, n: usize) -> Vec<RegId> {
        (0..n).map(|_| self.fresh()).collect()
    }

    fn emit(&mut self, instr: Instr) {
        self.instructions.push(instr);
        self.first_iteration_only.push(self.current_first_only);
    }

    fn arity(&self, expr: &RamExpr) -> usize {
        let arity = expr.arity(&|name| self.ram.arity(name));
        // The front end runs `validate_program` on every program it
        // compiles, and it rejects a rule over an undeclared relation.
        // cannot fail: a validated program declares every relation it names.
        arity.expect("validated program has known arities")
    }

    /// The arity of a relation a rule of the program names.
    fn relation_arity(&self, name: &str) -> usize {
        // cannot fail: a validated program declares every relation it names.
        self.ram.arity(name).expect("relation arity")
    }

    /// Whether an expression depends on a relation this stratum updates,
    /// i.e. whether its value can differ from one iteration to the next. A
    /// changed input does not count: every partition of it is the same table
    /// on every iteration, so an index built over it can be static.
    fn is_recursive_expr(&self, expr: &RamExpr) -> bool {
        let mut refs = Vec::new();
        expr.referenced_relations(&mut refs);
        refs.iter()
            .any(|r| self.tracked.contains(r) && !self.changed_inputs.contains(r))
    }

    /// The leaf `Relation` occurrences over tracked relations, in traversal
    /// order: `true` where the leaf reads a changed input, `false` where it
    /// reads one of the stratum's own relations.
    fn tracked_leaves(&self, expr: &RamExpr) -> Vec<bool> {
        let mut leaves = Vec::new();
        expr.visit(&mut |e| {
            if let RamExpr::Relation(name) = e {
                if self.tracked.contains(name) {
                    leaves.push(self.changed_inputs.contains(name));
                }
            }
        });
        leaves
    }

    /// Compiles an expression. `parts` assigns a database partition to each
    /// recursive leaf (indexed by `next_recursive_leaf`); non-recursive
    /// leaves always load the full relation.
    ///
    /// Alongside the output registers, the compiler tracks the sorted column
    /// prefix of each intermediate table, with exact per-variant partition
    /// knowledge: a single-partition load is fully sorted because
    /// tables are stored sorted, and a full (`all`) load of a relation this
    /// stratum does *not* update is fully sorted too — every relation rests
    /// as one sorted `stable` table with `recent` empty once its defining
    /// stratum has run, recursive or not, so the concatenation is just the
    /// sorted stable half.
    fn compile_expr(
        &mut self,
        expr: &RamExpr,
        parts: &[DbPart],
        next_recursive_leaf: &mut usize,
    ) -> Compiled {
        match expr {
            RamExpr::Relation(name) => {
                let tracked = self.tracked.contains(name);
                let part = if tracked {
                    let part = parts[*next_recursive_leaf];
                    *next_recursive_leaf += 1;
                    part
                } else {
                    DbPart::All
                };
                let arity = self.relation_arity(name);
                let columns = self.fresh_n(arity);
                let tags = self.fresh();
                self.emit(Instr::Load {
                    relation: name.clone(),
                    part,
                    columns: columns.clone(),
                    tags,
                });
                let sorted_prefix = if part != DbPart::All || !tracked {
                    arity
                } else {
                    // `all` on a tracked relation concatenates two sorted
                    // halves, which is not sorted overall.
                    0
                };
                Compiled {
                    columns,
                    tags,
                    sorted_prefix,
                }
            }
            RamExpr::Project { input, proj } => {
                self.compile_project(input, proj, parts, next_recursive_leaf)
            }
            RamExpr::Select { input, cond } => {
                let arity = self.arity(input);
                let input = self.compile_expr(input, parts, next_recursive_leaf);
                let projection = RowProjection::new(
                    (0..arity).map(ScalarExpr::Col).collect(),
                    Some(cond.clone()),
                );
                let outputs = self.fresh_n(arity);
                let output_tags = self.fresh();
                self.emit(Instr::Eval {
                    inputs: input.columns,
                    input_tags: input.tags,
                    projection,
                    pack: identity_lanes(arity),
                    outputs: outputs.clone(),
                    output_tags,
                });
                Compiled {
                    columns: outputs,
                    tags: output_tags,
                    // Selection drops rows without reordering them.
                    sorted_prefix: input.sorted_prefix,
                }
            }
            RamExpr::Join { left, right, width } => {
                self.compile_join(left, right, *width, None, parts, next_recursive_leaf)
            }
            RamExpr::Union(left, right) => {
                let l = self.compile_expr(left, parts, next_recursive_leaf);
                let r = self.compile_expr(right, parts, next_recursive_leaf);
                let outputs = self.fresh_n(l.columns.len());
                let output_tags = self.fresh();
                self.emit(Instr::Append {
                    inputs: vec![(l.columns, l.tags), (r.columns, r.tags)],
                    outputs: outputs.clone(),
                    output_tags,
                });
                Compiled {
                    columns: outputs,
                    tags: output_tags,
                    sorted_prefix: 0,
                }
            }
        }
    }

    /// Compiles `proj` over `input`. A pure column permutation directly
    /// over a join is the join's own output list: the columns it drops are
    /// never written. Over a selection or another projection it is composed
    /// with that one, so one `eval` writes the kept columns of the rows that
    /// pass — and a `store` of them is fed straight by the kernel that
    /// wrote them.
    fn compile_project(
        &mut self,
        input: &RamExpr,
        proj: &RowProjection,
        parts: &[DbPart],
        next_recursive_leaf: &mut usize,
    ) -> Compiled {
        if let Some(select) = proj.permutation.as_deref() {
            if let Some((left, right, width)) = self.as_join(input) {
                let mut joined =
                    self.compile_join(left, right, width, Some(select), parts, next_recursive_leaf);
                joined.sorted_prefix = projection_sorted_prefix(proj, joined.sorted_prefix);
                return joined;
            }
            let inner = match input {
                RamExpr::Select { input, cond } => {
                    let columns = (0..self.arity(input)).map(ScalarExpr::Col).collect();
                    Some((input, RowProjection::new(columns, Some(cond.clone()))))
                }
                RamExpr::Project { input, proj } => Some((input, proj.clone())),
                _ => None,
            };
            if let Some((input, inner)) = inner {
                let composed = RowProjection {
                    programs: select.iter().map(|&c| inner.programs[c].clone()).collect(),
                    permutation: inner
                        .permutation
                        .map(|columns| select.iter().map(|&c| columns[c]).collect()),
                    filter: inner.filter,
                };
                return self.compile_project(input, &composed, parts, next_recursive_leaf);
            }
        }
        let input = self.compile_expr(input, parts, next_recursive_leaf);
        self.project(input, proj)
    }

    /// `proj` over a compiled table.
    fn project(&mut self, input: Compiled, proj: &RowProjection) -> Compiled {
        let outputs = self.fresh_n(proj.output_arity());
        let output_tags = self.fresh();
        self.emit(Instr::Eval {
            inputs: input.columns,
            input_tags: input.tags,
            projection: proj.clone(),
            pack: identity_lanes(outputs.len()),
            outputs: outputs.clone(),
            output_tags,
        });
        Compiled {
            columns: outputs,
            tags: output_tags,
            sorted_prefix: projection_sorted_prefix(proj, input.sorted_prefix),
        }
    }

    /// The operands of a join expression: `left ⊲⊳_w right`.
    fn as_join<'e>(&self, expr: &'e RamExpr) -> Option<(&'e RamExpr, &'e RamExpr, usize)> {
        match expr {
            RamExpr::Join { left, right, width } => Some((left, right, *width)),
            _ => None,
        }
    }

    /// Compiles `left ⊲⊳_w right`. When sort-order inference proves both
    /// inputs sorted on the key prefix, emits the merge-path sequence
    /// `mergecount`/`scan`/`mergejoin` — no hash index is built at all.
    /// Otherwise emits the hash-join sequence of Figure 6. The two paths
    /// write bit-identical tables, so the choice is invisible downstream.
    ///
    /// The join's table is the full left row, then the non-key columns of
    /// the right row; `select` (a permutation folded in from the projection
    /// above) picks and orders the columns of it that are actually written.
    ///
    /// In a refresh's compile, a join of a side that holds a Δ with a
    /// stored leaf the Δ side's key can look up in ([`Compiler::keyed_read`])
    /// compiles the Δ side first and reads only the leaf's matching rows
    /// (`lookup`). Those come out sorted on the key, so the join is a merge
    /// with them on the build side: no index is built, and each Δ row's
    /// matches are found by a search of the few rows looked up.
    fn compile_join(
        &mut self,
        left: &RamExpr,
        right: &RamExpr,
        width: usize,
        select: Option<&[usize]>,
        parts: &[DbPart],
        next_recursive_leaf: &mut usize,
    ) -> Compiled {
        let start = *next_recursive_leaf;
        let right_start = start + self.tracked_leaves(left).len();
        let lookup = if self.holds_delta(left, parts, start) {
            self.keyed_read(right, width, parts, right_start)
                .map(|read| (false, read))
        } else if self.holds_delta(right, parts, right_start) {
            self.keyed_read(left, width, parts, start)
                .map(|read| (true, read))
        } else {
            None
        };
        if let Some((stored_is_left, (relation, part, key, in_order))) = lookup {
            let (stored, delta) = if stored_is_left {
                (left, right)
            } else {
                (right, left)
            };
            let mut at = if stored_is_left { right_start } else { start };
            let delta = self.compile_expr(delta, parts, &mut at);
            *next_recursive_leaf = right_start + self.tracked_leaves(right).len();
            let arity = self.relation_arity(&relation);
            let columns = self.fresh_n(arity);
            let tags = self.fresh();
            self.emit(Instr::Lookup {
                relation,
                part,
                key,
                in_order,
                probes: delta.columns[..width].to_vec(),
                columns: columns.clone(),
                tags,
            });
            let mut found = Compiled {
                columns,
                tags,
                sorted_prefix: 0,
            };
            if let RamExpr::Project { proj, .. } = stored {
                found = self.project(found, proj);
            }
            let (l, r) = if stored_is_left {
                (found, delta)
            } else {
                (delta, found)
            };
            let merge = JoinStrategy::Merge;
            return self.emit_join(l, r, width, select, stored_is_left, merge, false);
        }

        let l = self.compile_expr(left, parts, next_recursive_leaf);
        let r = self.compile_expr(right, parts, next_recursive_leaf);

        // Build the hash index on the side that does not depend on the
        // stratum's own relations when possible: that index is identical on
        // every iteration, so it can live in a static register and be reused
        // (the linear-recursion optimization of Section 4.2). A join on no
        // columns builds on its right side, so that its rows come out as a
        // product's: left rows outer, right rows inner, the order the ⊕ fold
        // over duplicate candidates reads them in.
        let left_recursive = self.is_recursive_expr(left);
        let right_recursive = self.is_recursive_expr(right);
        let build_is_left = width > 0 && !left_recursive && right_recursive;
        let static_ = if build_is_left {
            !left_recursive
        } else {
            !right_recursive
        };
        let strategy = if self.hash_only {
            JoinStrategy::Hash
        } else {
            join_strategy(l.sorted_prefix, r.sorted_prefix, width)
        };
        self.emit_join(l, r, width, select, build_is_left, strategy, static_)
    }

    /// Whether a relation leaf of `expr` holds a Δ, in a refresh's compile:
    /// a leaf over a driving relation, or a tracked leaf's `recent`.
    /// `expr`'s tracked leaves read `parts[at..]`.
    fn holds_delta(&self, expr: &RamExpr, parts: &[DbPart], at: usize) -> bool {
        let Some(keyed) = &self.keyed else {
            return false;
        };
        let mut at = at;
        let mut delta = false;
        expr.visit(&mut |e| {
            if let RamExpr::Relation(name) = e {
                let recent = self.tracked.contains(name) && {
                    at += 1;
                    parts[at - 1] == DbPart::Recent
                };
                delta |= recent || keyed.driving.contains(name);
            }
        });
        delta
    }

    /// How a refresh's compile can look up the rows of `expr`, one side of
    /// a join on `width` columns whose other side holds a Δ: the relation,
    /// partition and key, and whether it is searched in a secondary order,
    /// when `expr` is a stored leaf (or a column permutation of one) whose
    /// partition is sorted on the key where it is stored. That is the case
    /// when the key is a prefix of the relation's columns, or when the
    /// database keeps a secondary order on it and the partition is `stable`
    /// alone (an untracked relation at rest holds nothing else). A leaf of
    /// the stratum's own relation qualifies only in a first-iteration
    /// variant reading `stable`: the table the seeded run entered with,
    /// before any frontier was pushed to it.
    fn keyed_read(
        &self,
        expr: &RamExpr,
        width: usize,
        parts: &[DbPart],
        at: usize,
    ) -> Option<(String, DbPart, Vec<usize>, bool)> {
        let keyed = self.keyed.as_ref()?;
        let (relation, key) = leaf_key(expr, width).filter(|_| width > 0)?;
        let tracked = self.tracked.contains(relation);
        let part = if tracked { parts[at] } else { DbPart::All };
        let own = tracked && !self.changed_inputs.contains(relation);
        if keyed.driving.contains(relation)
            || part == DbPart::Recent
            || (own && !(part == DbPart::Stable && self.current_first_only))
        {
            return None;
        }
        let in_order = !is_prefix(&key);
        let ordered = || {
            let mut orders = keyed.orders.iter();
            (part == DbPart::Stable || !tracked)
                && orders.any(|order| order.relation == relation && order.key == key)
        };
        (!in_order || ordered()).then(|| (relation.to_string(), part, key, in_order))
    }

    /// Emits the join of two compiled sides by `strategy`, built on the
    /// left when `build_is_left`; a hash index is kept across iterations
    /// when `static_`.
    #[allow(clippy::too_many_arguments)]
    fn emit_join(
        &mut self,
        l: Compiled,
        r: Compiled,
        width: usize,
        select: Option<&[usize]>,
        build_is_left: bool,
        strategy: JoinStrategy,
        static_: bool,
    ) -> Compiled {
        let (build, probe) = if build_is_left { (&l, &r) } else { (&r, &l) };
        let source = |is_left: bool, reg: RegId| {
            if is_left == build_is_left {
                JoinSource::Build(reg)
            } else {
                JoinSource::Probe(reg)
            }
        };
        let left_row = l.columns.iter().map(|&reg| source(true, reg));
        let right_rest = r.columns[width..].iter().map(|&reg| source(false, reg));
        let table: Vec<JoinSource> = left_row.chain(right_rest).collect();
        let sources: Vec<JoinSource> = match select {
            Some(select) => select.iter().map(|&column| table[column]).collect(),
            None => table,
        };

        let build_keys = self.join_keys(build, width);
        let probe_keys = self.join_keys(probe, width);
        let counts = self.fresh();
        let offsets = self.fresh();
        let outputs = self.fresh_n(sources.len());
        let output_tags = self.fresh();
        let write = JoinWrite {
            probe_keys,
            counts,
            offsets,
            sources,
            build_tags: build.tags,
            probe_tags: probe.tags,
            build_is_left,
            pack: identity_lanes(outputs.len()),
            outputs: outputs.clone(),
            output_tags,
        };
        match strategy {
            JoinStrategy::Merge => {
                self.merge_joins += 1;
                self.emit(Instr::MergeCount {
                    build_keys: build_keys.clone(),
                    probe_keys: write.probe_keys.clone(),
                    counts,
                });
                self.emit(Instr::Scan { counts, offsets });
                self.emit(Instr::MergeJoin { build_keys, write });
            }
            JoinStrategy::Hash => {
                self.hash_joins += 1;
                let index = self.fresh();
                if static_ {
                    self.static_registers.push(index);
                }
                self.emit(Instr::Build {
                    keys: build_keys,
                    index,
                    static_,
                });
                self.emit(Instr::Count {
                    index,
                    probe_keys: write.probe_keys.clone(),
                    counts,
                });
                self.emit(Instr::Scan { counts, offsets });
                self.emit(Instr::Join { index, write });
            }
        }
        Compiled {
            columns: outputs,
            tags: output_tags,
            sorted_prefix: 0,
        }
    }

    /// The key columns of `side` for a join on `width` columns: its first
    /// `width`. A join on none, a cartesian product, reads a constant
    /// column instead, written here, because the kernels take a side's row
    /// count from its first key column.
    fn join_keys(&mut self, side: &Compiled, width: usize) -> Vec<RegId> {
        if width > 0 {
            return side.columns[..width].to_vec();
        }
        let key = self.fresh();
        let output_tags = self.fresh();
        self.emit(Instr::Eval {
            inputs: Vec::new(),
            input_tags: side.tags,
            projection: RowProjection::new(vec![ScalarExpr::Const(Value::U32(0))], None),
            pack: identity_lanes(1),
            outputs: vec![key],
            output_tags,
        });
        vec![key]
    }

    /// Compiles one rule, expanding it into its semi-naive variants: one per
    /// tracked leaf, reading that leaf's `recent` partition, the `stable`
    /// partition of every leaf ranked before it and `all` of every leaf
    /// ranked after it. The stratum's own leaves rank first, in traversal
    /// order, then the leaves over changed inputs (none in a from-scratch
    /// build); a variant whose `recent` leaf is a changed input runs in the
    /// first iteration only — see [`compile_stratum_delta`] for why.
    fn compile_rule(&mut self, rule: &RamRule, recursive_stratum: bool) {
        let leaves = self.tracked_leaves(&rule.expr);
        let variants: Vec<(Vec<DbPart>, bool)> = if !recursive_stratum || leaves.is_empty() {
            // Base rules only need to run while the initial facts are still
            // the frontier (the first iteration).
            vec![(Vec::new(), recursive_stratum)]
        } else {
            let mut ranked: Vec<usize> = (0..leaves.len()).collect();
            // Stable: traversal order survives inside each class.
            ranked.sort_by_key(|&leaf| leaves[leaf]);
            (0..ranked.len())
                .map(|rank| {
                    let mut parts = vec![DbPart::All; leaves.len()];
                    for &leaf in &ranked[..rank] {
                        parts[leaf] = DbPart::Stable;
                    }
                    parts[ranked[rank]] = DbPart::Recent;
                    (parts, leaves[ranked[rank]])
                })
                .collect()
        };
        for (parts, first_only) in variants {
            self.current_first_only = first_only;
            let mut next_leaf = 0;
            let compiled = self.compile_expr(&rule.expr, &parts, &mut next_leaf);
            self.emit_store(&rule.target, compiled);
            self.current_first_only = false;
        }
    }

    /// Stages a compiled table into `relation`. A table that is exactly
    /// what the last instruction — a `join`, a `mergejoin` or an `eval`
    /// that is not a column permutation — wrote is written by it in the
    /// relation's storage encoding — the lanes the database plans from the
    /// relation's column types, one output register per lane group — and
    /// staged as it is. Any other table is packed by the store. (A relation
    /// of 8-byte columns only plans the identity lanes, so its writer is
    /// fused the same way.)
    fn emit_store(&mut self, relation: &str, table: Compiled) {
        let writer = match self.instructions.last_mut() {
            Some(Instr::Join { write, .. } | Instr::MergeJoin { write, .. }) => {
                Some((&mut write.outputs, write.output_tags, &mut write.pack))
            }
            Some(Instr::Eval {
                projection,
                pack,
                outputs,
                output_tags,
                ..
            }) if projection.permutation.is_none() => Some((outputs, *output_tags, pack)),
            _ => None,
        };
        let mut columns = table.columns;
        let packed = match writer {
            Some((outputs, tags, pack)) if *outputs == columns && tags == table.tags => {
                // cannot fail: a validated program declares every relation it names.
                let schema = self.ram.schemas.get(relation).expect("stored relation");
                let lanes = plan_lanes(&schema.arg_types);
                outputs.truncate(lanes.len());
                columns.truncate(lanes.len());
                *pack = lanes.into();
                true
            }
            _ => false,
        };
        self.emit(Instr::Store {
            relation: relation.to_string(),
            columns,
            tags: table.tags,
            packed,
        });
    }
}

/// Compiles a stratum for *incremental* (delta) re-evaluation after some of
/// its input relations gained new facts.
///
/// The semi-naive variant expansion is widened: the tracked set is the
/// stratum's own relations **plus** `changed_inputs`, so every leaf over a
/// changed relation participates in the stable/recent/all partitioning. The
/// caller seeds the `recent` partition of each changed input with the newly
/// inserted rows (and of each own relation with its new EDB rows) and runs
/// the program without the semi-naive preamble, as
/// [`refresh_database`](crate::refresh_database) does. Rules with no tracked
/// leaf are dropped outright: their derivations cannot have changed.
///
/// **Leaf ranking.** Within a rule the stratum's own leaves rank before the
/// changed-input leaves, whatever their order in the rule body. An
/// own-`recent` variant therefore reads every changed input as `all` (old
/// rows and Δ together), and a changed-input-`recent` variant reads every own
/// leaf as `stable`. The latter are marked `first_iteration_only`: a changed
/// input's `recent` is the caller's Δ and never drains, so left to run every
/// iteration such a variant would load, probe and re-derive against the
/// whole materialized relation again and again.
///
/// **Why that is complete.** A derivation that uses a new own fact — seeded
/// or derived — is produced in the last iteration *k* whose frontier holds
/// one of its own leaves, by the own-`recent` variant of its lowest-ranked
/// leaf in that frontier: the other own leaves are `stable` or `all` there
/// and every input leaf is `all`. One that uses only old own facts and some
/// Δ input row is produced in iteration 0 — the one iteration in which
/// `stable` still *is* the set the run entered with — by the input-`recent`
/// variant of its lowest-ranked Δ leaf. One over old facts only is already
/// materialized, and no variant reads it.
///
/// Two deliberate differences from [`compile_stratum_with_options`]:
///
/// * every rule with a tracked leaf gets the full variant expansion even in
///   a non-recursive stratum (the base-rule "first iteration only" shortcut
///   assumes the whole database is the frontier, which is exactly what a
///   delta run avoids);
/// * the compiled stratum is always marked recursive, so the executor
///   iterates until the insertion frontier drains instead of stopping after
///   one pass.
///
/// `stored_relations`/`relations` stay the stratum's own relations: the
/// executor's update phase folds frontiers for those only, leaving the
/// caller-managed splits of the changed input relations untouched — which is
/// also why a hash index over a changed input is a static register.
///
/// **Keyed reads.** Wherever a variant joins a side that holds a Δ — a
/// leaf's `recent` — with a stored leaf whose table is sorted on the join
/// key, or one of whose `orders` is, the stored leaf is not loaded: a
/// `lookup` reads only the rows the Δ side's keys name. So the
/// first-iteration variants no longer read the old table of an own
/// relation whole, and the own-`recent` variants read only the rows of a
/// changed input their frontier joins.
pub fn compile_stratum_delta(
    stratum: &Stratum,
    ram: &RamProgram,
    changed_inputs: &BTreeSet<String>,
    orders: &[SecondaryOrder],
) -> CompiledStratum {
    let mut tracked: BTreeSet<String> = stratum.relations.iter().cloned().collect();
    tracked.extend(changed_inputs.iter().cloned());
    let mut compiler = Compiler::new(ram, tracked);
    static NONE: BTreeSet<String> = BTreeSet::new();
    compiler.keyed = Some(Keyed {
        driving: &NONE,
        orders,
    });
    compiler.changed_inputs = changed_inputs
        .iter()
        .filter(|r| !stratum.relations.contains(r))
        .cloned()
        .collect();
    for rule in &stratum.rules {
        if compiler.tracked_leaves(&rule.expr).is_empty() {
            // No leaf over a changed relation: every derivation of this rule
            // is already in the materialized stable set.
            continue;
        }
        compiler.compile_rule(rule, true);
    }
    compiler.finish(stratum, true)
}

/// Compiles a RAM stratum into the APM program a from-scratch run executes:
/// the one from-scratch compile entry. A compiled `Program` calls it once
/// per stratum, with its own options, and keeps the result for every run
/// and for the recompute path of [`refresh_database`];
/// [`Executor::run_program`] calls it per run, with the executor's.
///
/// No field of `options` changes the emitted program today — static
/// registers and buffer reuse are honoured by the executor, instruction by
/// instruction, and every join takes the strategy sort-order inference
/// picks. The parameter stays because it is the one way a compile-time
/// option can arrive, from the executor that will run the result, and
/// because the repo benchmark's replay (`benchmark/src/replay.rs`) calls
/// this function by this name and signature.
///
/// Under `debug_assertions` the whole source program is re-validated first
/// (`lobster_ram::passes::validate_program`), so a malformed rewrite
/// panics at compile time with rule provenance instead of surfacing as
/// executor misbehaviour mid-request.
///
/// [`Executor::run_program`]: crate::Executor::run_program
/// [`refresh_database`]: crate::refresh_database
pub fn compile_stratum_with_options(
    stratum: &Stratum,
    ram: &RamProgram,
    _options: &RuntimeOptions,
) -> CompiledStratum {
    compile_from_scratch(stratum, ram, false, None)
}

/// Test hook: [`compile_stratum_with_options`] with sort-order inference
/// ignored, so every join — merge-eligible or not — takes the hash path.
/// It exists to give the join-strategy differential
/// (`crates/bench/tests/strategy_agreement.rs`) its second build; no
/// non-test code calls it and no option, builder or cache key leads here.
#[doc(hidden)]
pub fn compile_stratum_hash_only(stratum: &Stratum, ram: &RamProgram) -> CompiledStratum {
    compile_from_scratch(stratum, ram, true, None)
}

/// Compiles one pass of a retraction's delete/re-derive
/// ([`refresh_database`](crate::refresh_database)) — a stratum over the
/// refresh's scratch relations — as [`compile_stratum_with_options`] does,
/// with the keyed reads of [`compile_stratum_delta`]: every leaf over a
/// `driving` relation holds a Δ, so a join of one with a stored leaf looks
/// up the leaf's matching rows, in its table or in one of `orders`.
pub(crate) fn compile_refresh_pass(
    stratum: &Stratum,
    ram: &RamProgram,
    driving: &BTreeSet<String>,
    orders: &[SecondaryOrder],
) -> CompiledStratum {
    let keyed = Keyed { driving, orders };
    compile_from_scratch(stratum, ram, false, Some(keyed))
}

fn compile_from_scratch<'a>(
    stratum: &Stratum,
    ram: &'a RamProgram,
    hash_only: bool,
    keyed: Option<Keyed<'a>>,
) -> CompiledStratum {
    #[cfg(debug_assertions)]
    if let Err(errors) = lobster_ram::passes::validate_program(ram) {
        let rendered: Vec<String> = errors.iter().map(ToString::to_string).collect();
        // The front end refuses an invalid program with a typed error before
        // it gets here, so no Datalog string or wire frame reaches this
        // panic. It is a debug-only invariant check on RAM built or
        // rewritten in code — a test's hand-built program, `batch_transform`,
        // a refresh's scratch strata — where a failure is a bug in that code.
        // cannot fail: from input; the invariant check trips on a code bug.
        panic!(
            "invalid RAM program reached the compiler:\n{}",
            rendered.join("\n")
        );
    }
    let own_relations = stratum.relations.iter().cloned().collect();
    let mut compiler = Compiler::new(ram, own_relations);
    compiler.hash_only = hash_only;
    compiler.keyed = keyed;
    for rule in &stratum.rules {
        compiler.compile_rule(rule, stratum.recursive);
    }
    compiler.finish(stratum, stratum.recursive)
}

/// The secondary orders a materialized database keeps for `ram`: one per
/// (relation, key) that a join of a recursive stratum — one whose delta run
/// iterates, reading its inputs again in every iteration — reads on a key
/// that is not a prefix of the relation's columns. Every relation rests as
/// one sorted `stable` table, which is what an order mirrors, whichever
/// stratum derives it.
pub fn secondary_orders(ram: &RamProgram) -> Vec<SecondaryOrder> {
    let mut orders = BTreeSet::new();
    for rule in ram
        .strata
        .iter()
        .filter(|s| s.recursive)
        .flat_map(|s| &s.rules)
    {
        rule.expr.visit(&mut |expr| {
            let RamExpr::Join { left, right, width } = expr else {
                return;
            };
            let width = *width;
            for side in [left, right] {
                if let Some((relation, key)) = leaf_key(side, width) {
                    if !is_prefix(&key) {
                        orders.insert(SecondaryOrder {
                            relation: relation.to_string(),
                            key,
                        });
                    }
                }
            }
        });
    }
    orders.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_datalog::parse;
    use lobster_gpu::kernels::PackLane;
    use lobster_ram::{BinaryOp, RelationSchema, ValueType};

    /// The from-scratch build every run executes.
    fn compile(stratum: &Stratum, ram: &RamProgram) -> CompiledStratum {
        compile_stratum_with_options(stratum, ram, &RuntimeOptions::default())
    }

    fn transitive_closure() -> (lobster_ram::RamProgram, Stratum) {
        let compiled = parse(
            "type edge(x: u32, y: u32)
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
             query path",
        )
        .unwrap();
        let stratum = compiled.ram.strata[0].clone();
        (compiled.ram, stratum)
    }

    #[test]
    fn base_rule_is_first_iteration_only() {
        let (ram, stratum) = transitive_closure();
        let compiled = compile(&stratum, &ram);
        assert!(compiled.recursive);
        // At least one instruction is first-iteration-only (the base rule)
        // and at least one is not (the recursive rule).
        assert!(compiled.program.first_iteration_only.iter().any(|&b| b));
        assert!(compiled.program.first_iteration_only.iter().any(|&b| !b));
    }

    #[test]
    fn recursive_join_builds_static_index_on_edb_side() {
        let (ram, stratum) = transitive_closure();
        let compiled = compile(&stratum, &ram);
        // The join against the EDB `edge` relation should produce a static
        // index register.
        assert!(!compiled.program.static_registers.is_empty());
        let builds: Vec<_> = compiled
            .program
            .instructions
            .iter()
            .filter(|i| matches!(i, Instr::Build { .. }))
            .collect();
        assert!(!builds.is_empty());
        assert!(builds
            .iter()
            .any(|b| matches!(b, Instr::Build { static_: true, .. })));
    }

    #[test]
    fn program_contains_expected_instruction_mix() {
        let (ram, stratum) = transitive_closure();
        let compiled = compile(&stratum, &ram);
        let mnemonics: Vec<&str> = compiled
            .program
            .instructions
            .iter()
            .map(Instr::mnemonic)
            .collect();
        for expected in ["load", "store", "build", "count", "scan", "join"] {
            assert!(
                mnemonics.contains(&expected),
                "missing `{expected}` in {mnemonics:?}"
            );
        }
        assert!(compiled.program.register_count > 0);
        assert!(!compiled.program.listing().is_empty());
    }

    /// The CLUTRR program of `lobster-workloads`, which this crate cannot
    /// depend on.
    const CLUTRR: &str = "type kinship(r: u32, a: u32, b: u32)
             type composition(r1: u32, r2: u32, r3: u32)
             type target(a: u32, b: u32)
             rel derived(r, a, b) = kinship(r, a, b)
             rel derived(r3, a, c) = derived(r1, a, b), kinship(r2, b, c), composition(r1, r2, r3)
             rel answer(r) = target(a, b), derived(r, a, b)";

    /// The CSPA program of `lobster-workloads`.
    const CSPA: &str = "type assign(dst: u32, src: u32)
             type dereference(p: u32, v: u32)
             rel value_flow(x, y) = assign(y, x)
             rel value_flow(x, y) = assign(x, z), memory_alias(z, y)
             rel value_flow(x, y) = value_flow(x, z), value_flow(z, y)
             rel memory_alias(x, w) = dereference(y, x), value_alias(y, z), dereference(z, w)
             rel value_alias(x, y) = value_flow(z, x), value_flow(z, y)
             rel value_alias(x, y) = value_flow(z, x), memory_alias(z, w), value_flow(w, y)
             rel value_flow(x, x) = assign(x, y)
             rel value_flow(x, x) = assign(y, x)
             rel memory_alias(x, x) = assign(y, x)
             rel memory_alias(x, x) = assign(x, y)";

    #[test]
    fn a_join_writes_the_columns_the_rule_keeps_and_nothing_is_gathered() {
        // The three gated programs.
        let (tc_ram, _) = transitive_closure();
        for ram in [
            tc_ram.clone(),
            parse(CLUTRR).unwrap().ram,
            parse(CSPA).unwrap().ram,
        ] {
            let mut joins = 0;
            for stratum in &ram.strata {
                for instr in &compile(stratum, &ram).program.instructions {
                    assert!(!instr.mnemonic().contains("gather"), "{instr}");
                    if let Instr::Join { write, .. } | Instr::MergeJoin { write, .. } = instr {
                        joins += 1;
                        // One word per lane group, the lanes covering every
                        // source once.
                        assert_eq!(write.pack.len(), write.outputs.len());
                        let mut lanes: Vec<usize> = write
                            .pack
                            .iter()
                            .flatten()
                            .map(|lane| lane.column)
                            .collect();
                        lanes.sort_unstable();
                        assert!(lanes.into_iter().eq(0..write.sources.len()));
                    }
                }
            }
            assert!(joins > 0);
        }
        // TC: `path(x, z) ⋈ edge(z, y)` probes with the frontier and keeps
        // (x, y) — the key column `z` the projection above the join drops is
        // not among the columns written, and no `eval` stands between the
        // join and its `store`.
        let tc = compile(&tc_ram.strata[0], &tc_ram).program;
        let at = tc
            .instructions
            .iter()
            .position(|i| matches!(i, Instr::Join { .. }))
            .expect("TC joins");
        let Instr::Join { write, .. } = &tc.instructions[at] else {
            unreachable!()
        };
        assert!(matches!(
            write.sources[..],
            [JoinSource::Probe(x), JoinSource::Build(_)] if !write.probe_keys.contains(&x)
        ));
        assert!(!write.build_is_left);
        assert!(matches!(
            &tc.instructions[at + 1],
            Instr::Store { columns, tags, packed: true, .. }
                if *columns == write.outputs && *tags == write.output_tags
        ));
        // `path(x: u32, y: u32)` is stored as one word, `x` in its high
        // half, and the join writes that word.
        let lane = |column, shift| PackLane {
            column,
            shift,
            mask: u64::from(u32::MAX),
        };
        assert_eq!(write.pack, vec![vec![lane(0, 32), lane(1, 0)]]);
    }

    #[test]
    fn a_store_right_after_the_kernel_that_wrote_its_table_stages_packed_words() {
        // Whether a join or an eval packs for its store depends on the
        // program's shape alone: the store after it must stage exactly its
        // output registers, and an eval must run a kernel (a column
        // permutation only copies registers). Every store a recursive
        // variant runs, in all three gated programs, is fed straight by a
        // join; a base rule's store of a load is not, and packs its chunk
        // itself. Same Generation's selection over a join is an eval.
        let (tc_ram, _) = transitive_closure();
        let same_generation = "type parent(p: u32, c: u32)
             rel sg(x, y) = parent(p, x), parent(p, y), x != y
             rel sg(x, y) = parent(a, x), parent(b, y), sg(a, b)";
        let programs = [
            tc_ram,
            parse(CLUTRR).unwrap().ram,
            parse(CSPA).unwrap().ram,
            parse(same_generation).unwrap().ram,
        ];
        let mut evals = 0;
        for ram in programs {
            for stratum in &ram.strata {
                let program = compile(stratum, &ram).program;
                for (pc, instr) in program.instructions.iter().enumerate() {
                    let Instr::Store {
                        columns,
                        tags,
                        packed,
                        ..
                    } = instr
                    else {
                        continue;
                    };
                    let mut staged = columns.clone();
                    staged.push(*tags);
                    let fed = pc
                        .checked_sub(1)
                        .map(|p| &program.instructions[p])
                        .filter(|w| {
                            let copies = matches!(w, Instr::Eval { projection, .. }
                            if projection.permutation.is_some());
                            w.pack().is_some() && !copies && w.defs() == staged
                        });
                    assert_eq!(*packed, fed.is_some(), "{instr}");
                    evals += usize::from(matches!(fed, Some(Instr::Eval { .. })));
                    if stratum.recursive && !program.first_iteration_only[pc] {
                        assert!(*packed, "{instr}");
                    }
                }
            }
        }
        assert!(evals > 0);
    }

    #[test]
    fn nonrecursive_stratum_has_single_variant() {
        let compiled = parse(
            "type a(x: u32)
             type b(x: u32)
             rel both(x) = a(x), b(x)",
        )
        .unwrap();
        let stratum = compiled.ram.strata[0].clone();
        let apm = compile(&stratum, &compiled.ram);
        assert!(!apm.recursive);
        let stores = apm
            .program
            .instructions
            .iter()
            .filter(|i| matches!(i, Instr::Store { .. }))
            .count();
        assert_eq!(stores, 1);
        assert!(apm.program.first_iteration_only.iter().all(|&b| !b));
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
                    BinaryOp::Add,
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
                BinaryOp::Ne,
                ValueType::U32,
                ScalarExpr::Col(0),
                ScalarExpr::Col(1),
            )),
        );
        assert!(!filtered.is_permutation());
        assert_eq!(projection_sorted_prefix(&filtered, 2), 2);
    }

    #[test]
    fn join_strategy_requires_both_sides_and_nonzero_width() {
        assert_eq!(join_strategy(2, 2, 1), JoinStrategy::Merge);
        assert_eq!(join_strategy(1, 2, 2), JoinStrategy::Hash);
        assert_eq!(join_strategy(2, 0, 1), JoinStrategy::Hash);
        assert_eq!(join_strategy(2, 2, 0), JoinStrategy::Hash);
    }

    #[test]
    fn select_preserves_and_join_destroys_sortedness() {
        let schemas = ["a", "b", "c", "out"]
            .into_iter()
            .map(|name| {
                let schema = RelationSchema::new(name, vec![ValueType::U32, ValueType::U32]);
                (name.to_string(), schema)
            })
            .collect();
        let ne = ScalarExpr::binary(
            BinaryOp::Ne,
            ValueType::U32,
            ScalarExpr::Col(0),
            ScalarExpr::Col(1),
        );
        let first_two = RowProjection::new(vec![ScalarExpr::Col(0), ScalarExpr::Col(1)], None);
        let rule = |expr: RamExpr| RamRule {
            target: "out".into(),
            expr: expr.project(first_two.clone()),
        };
        let stratum = Stratum {
            relations: vec!["out".into()],
            rules: vec![
                // A filtered load is still sorted: the join merges.
                rule(
                    RamExpr::relation("a")
                        .select(ne)
                        .join(RamExpr::relation("b"), 1),
                ),
                // `a ⋈ b` merges; its output is unsorted, so joining it
                // with `c` hashes.
                rule(
                    RamExpr::relation("a")
                        .join(RamExpr::relation("b"), 1)
                        .join(RamExpr::relation("c"), 1),
                ),
            ],
            recursive: false,
        };
        let ram = RamProgram {
            schemas,
            strata: vec![stratum.clone()],
            outputs: vec!["out".into()],
        };
        let apm = compile(&stratum, &ram);
        assert_eq!((apm.merge_joins, apm.hash_joins), (2, 1));
    }

    #[test]
    fn nonrecursive_edb_join_compiles_to_merge_path() {
        let compiled = parse(
            "type a(x: u32)
             type b(x: u32)
             rel both(x) = a(x), b(x)",
        )
        .unwrap();
        let stratum = compiled.ram.strata[0].clone();
        let apm = compile(&stratum, &compiled.ram);
        // Both sides are full loads of relations the stratum doesn't update,
        // hence sorted — the join needs no hash index at all.
        assert_eq!(apm.merge_joins, 1);
        assert_eq!(apm.hash_joins, 0);
        let mnemonics: Vec<&str> = apm
            .program
            .instructions
            .iter()
            .map(Instr::mnemonic)
            .collect();
        assert!(mnemonics.contains(&"mergecount"));
        assert!(mnemonics.contains(&"mergejoin"));
        assert!(!mnemonics.contains(&"build"));
        assert!(!mnemonics.contains(&"count"));
    }

    #[test]
    fn merge_join_option_disabled_falls_back_to_hash() {
        let compiled = parse(
            "type a(x: u32)
             type b(x: u32)
             rel both(x) = a(x), b(x)",
        )
        .unwrap();
        let stratum = compiled.ram.strata[0].clone();
        let apm = compile_stratum_hash_only(&stratum, &compiled.ram);
        assert_eq!(apm.merge_joins, 0);
        assert_eq!(apm.hash_joins, 1);
        assert!(apm
            .program
            .instructions
            .iter()
            .any(|i| matches!(i, Instr::Build { .. })));
    }

    #[test]
    fn projected_probe_side_keeps_transitive_closure_on_hash_path() {
        // The TC recursive join probes `path` projected to (y, x) — not a
        // prefix-preserving projection, so its sort order is unknown and the
        // static-index hash path of Section 4.2 must be preserved.
        let (ram, stratum) = transitive_closure();
        let apm = compile(&stratum, &ram);
        assert_eq!(apm.merge_joins, 0);
        assert!(apm.hash_joins >= 1);
    }

    #[test]
    fn nonlinear_recursion_expands_to_multiple_variants() {
        let compiled = parse(
            "type edge(x: u32, y: u32)
             rel path(x, y) = edge(x, y) or (path(x, z) and path(z, y))",
        )
        .unwrap();
        let stratum = compiled.ram.strata[0].clone();
        let apm = compile(&stratum, &compiled.ram);
        // The recursive rule has two recursive leaves, so it expands into two
        // semi-naive variants plus the base rule: three stores.
        let stores = apm
            .program
            .instructions
            .iter()
            .filter(|i| matches!(i, Instr::Store { .. }))
            .count();
        assert_eq!(stores, 3);
        // Both-recursive joins cannot use static indices.
        assert!(apm
            .program
            .instructions
            .iter()
            .filter_map(|i| match i {
                Instr::Build { static_, .. } => Some(*static_),
                _ => None,
            })
            .all(|s| !s));
    }

    /// Splits a delta-compiled stratum into its variants (each ends at its
    /// `store`) and returns, per variant, the relation its `recent` leaf
    /// reads and the first-iteration-only flags of its instructions.
    fn delta_variants(source: &str, changed: &[&str]) -> (Vec<String>, Vec<(String, Vec<bool>)>) {
        let compiled = parse(source).unwrap();
        let stratum = compiled
            .ram
            .strata
            .iter()
            .find(|s| s.recursive)
            .expect("a recursive stratum");
        let changed = changed.iter().map(|r| r.to_string()).collect();
        let orders = secondary_orders(&compiled.ram);
        let apm = compile_stratum_delta(stratum, &compiled.ram, &changed, &orders);
        let program = &apm.program;
        let mut variants = Vec::new();
        let (mut recent, mut flags) = (Vec::new(), Vec::new());
        for (instr, first_only) in program
            .instructions
            .iter()
            .zip(&program.first_iteration_only)
        {
            flags.push(*first_only);
            match instr {
                Instr::Load {
                    relation,
                    part: DbPart::Recent,
                    ..
                } => recent.push(relation.clone()),
                Instr::Store { .. } => {
                    assert_eq!(recent.len(), 1, "one `recent` leaf per variant");
                    variants.push((recent.remove(0), std::mem::take(&mut flags)));
                }
                _ => {}
            }
        }
        assert!(flags.is_empty(), "instructions after the last store");
        (stratum.relations.clone(), variants)
    }

    #[test]
    fn delta_variants_over_a_changed_input_run_in_the_first_iteration_only() {
        // The changed input on the right of the own leaf, on its left, twice
        // in one rule, and beside two own leaves.
        let cases: [(&str, &[&str]); 4] = [
            (
                "type edge(x: u32, y: u32)
                 rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))",
                &["edge"],
            ),
            (
                "type edge(x: u32, y: u32)
                 rel path(x, y) = edge(x, y) or (edge(x, z) and path(z, y))",
                &["edge"],
            ),
            (
                "type a(x: u32, y: u32)
                 type b(x: u32, y: u32)
                 rel reach(x, y) = a(x, y) or (reach(x, z) and b(z, w) and a(w, y))",
                &["a", "b"],
            ),
            (
                "type edge(x: u32, y: u32)
                 rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, w) and path(w, y))",
                &["edge", "path"],
            ),
        ];
        for (source, changed) in cases {
            let (own, variants) = delta_variants(source, changed);
            let (mut over_own, mut over_input) = (0, 0);
            for (recent, flags) in &variants {
                if own.contains(recent) {
                    over_own += 1;
                    assert!(
                        flags.iter().all(|first_only| !first_only),
                        "an own-recent variant of `{recent}` must run every iteration"
                    );
                } else {
                    over_input += 1;
                    assert!(
                        changed.contains(&recent.as_str()),
                        "`{recent}` is not tracked"
                    );
                    assert!(
                        flags.iter().all(|first_only| *first_only),
                        "a variant over Δ`{recent}` must run in the first iteration only"
                    );
                }
            }
            assert!(over_own >= 1 && over_input >= 2, "{source}: {variants:?}");
        }
    }

    #[test]
    fn delta_variants_read_own_leaves_as_stable_and_later_inputs_as_all() {
        // `edge(x, z) and path(z, y)`: the own leaf ranks first although the
        // rule names it second, so the variant over Δ`edge` joins it with
        // the *stable* `path` and the own-recent variant reads *all* of
        // `edge` — old rows and Δ together.
        let compiled = parse(
            "type edge(x: u32, y: u32)
             rel path(x, y) = edge(x, y) or (edge(x, z) and path(z, y))",
        )
        .unwrap();
        let changed = ["edge".to_string()].into_iter().collect();
        let apm = compile_stratum_delta(&compiled.ram.strata[0], &compiled.ram, &changed, &[]);
        let reads: Vec<(&str, &str, DbPart)> = apm
            .program
            .instructions
            .iter()
            .filter_map(|i| match i {
                Instr::Load { relation, part, .. } | Instr::Lookup { relation, part, .. } => {
                    Some((i.mnemonic(), relation.as_str(), *part))
                }
                _ => None,
            })
            .collect();
        // With no secondary order on `edge`'s second column the own-recent
        // variant loads `edge` whole; the variant over Δ`edge` looks up the
        // `path` rows its keys name, `path` being sorted on its first column.
        assert_eq!(
            reads,
            [
                ("load", "edge", DbPart::Recent),
                ("load", "edge", DbPart::All),
                ("load", "path", DbPart::Recent),
                ("load", "edge", DbPart::Recent),
                ("lookup", "path", DbPart::Stable),
            ]
        );
        // `edge` does not change while the stratum iterates, so the index
        // the own-recent variant probes is built once.
        assert!(apm
            .program
            .instructions
            .iter()
            .any(|i| matches!(i, Instr::Build { static_: true, .. })));
    }

    /// The `Debug` form `program` had before a join fed a `store` packed
    /// words: the output registers of each join or eval that packs through
    /// other than the identity lanes — one per column, fresh and
    /// consecutive — restored, with its store's, and the two fields packing
    /// added left out.
    fn unpacked_debug(program: &ApmProgram) -> String {
        let mut instructions = program.instructions.clone();
        let mut restored = None;
        // Registers `first..` for `n` outputs.
        let consecutive = |outputs: &[RegId], n| (outputs[0].0..).take(n).map(RegId).collect();
        for instr in &mut instructions {
            restored = match instr {
                Instr::Store { columns, .. } => {
                    if let Some(outputs) = restored.take() {
                        *columns = outputs;
                    }
                    None
                }
                Instr::Join { write, .. } | Instr::MergeJoin { write, .. } => {
                    let width = write.sources.len();
                    let packs = std::mem::take(&mut write.pack) != identity_lanes(width);
                    packs.then(|| {
                        write.outputs = consecutive(&write.outputs, width);
                        write.outputs.clone()
                    })
                }
                Instr::Eval {
                    projection,
                    pack,
                    outputs,
                    ..
                } => {
                    let width = projection.output_arity();
                    let packs = std::mem::take(pack) != identity_lanes(width);
                    packs.then(|| {
                        *outputs = consecutive(outputs, width);
                        outputs.clone()
                    })
                }
                _ => None,
            };
        }
        let program = ApmProgram::new(
            instructions,
            program.first_iteration_only.clone(),
            program.register_count,
            program.static_registers.clone(),
            program.stored_relations.clone(),
        );
        format!("{program:?}")
            .replace("pack: [], ", "")
            .replace(", packed: true", "")
            .replace(", packed: false", "")
    }

    #[test]
    fn from_scratch_compiles_emit_what_they_did_before_keyed_reads() {
        // Lookups and secondary orders belong to a refresh's compiles: the
        // program a from-scratch run executes is, instruction for
        // instruction, the one emitted before they existed, but for the
        // packed words a join writes for the store after it. The constants
        // hash the `Debug` form of every stratum's program as it was then,
        // which `unpacked_debug` restores.
        let (tc_ram, _) = transitive_closure();
        for (name, ram, want) in [
            ("TC", tc_ram, 0x5714_e0e6_3226_e02d_u64),
            ("CLUTRR", parse(CLUTRR).unwrap().ram, 0x4851_940d_57b9_e8ef),
            ("CSPA", parse(CSPA).unwrap().ram, 0x4237_bab0_b2a7_a6d1),
        ] {
            let programs: String = ram
                .strata
                .iter()
                .map(|stratum| unpacked_debug(&compile(stratum, &ram).program))
                .collect();
            assert_eq!(crate::fnv1a(programs.as_bytes()), want, "{name}");
            assert!(!programs.contains("Lookup"), "{name}");
        }
    }

    #[test]
    fn the_planner_orders_a_relation_on_each_key_a_recursive_join_reads_past_its_prefix() {
        let order = |relation: &str, key: &[usize]| SecondaryOrder {
            relation: relation.to_string(),
            key: key.to_vec(),
        };
        // TC reads `edge` on its first column and `path` on its second.
        let (tc_ram, _) = transitive_closure();
        assert_eq!(secondary_orders(&tc_ram), [order("path", &[1])]);
        // CLUTRR: `derived(r1, a, b), kinship(r2, b, c)` joins on `b`, the
        // last column of one and the second of the other.
        assert_eq!(
            secondary_orders(&parse(CLUTRR).unwrap().ram),
            [order("derived", &[2]), order("kinship", &[1])]
        );
        // CSPA: `assign(x, z), memory_alias(z, y)` and `value_flow(x, z),
        // value_flow(z, y)`; `dereference` is read on its first column.
        assert_eq!(
            secondary_orders(&parse(CSPA).unwrap().ram),
            [order("assign", &[1]), order("value_flow", &[1])]
        );
    }
}
