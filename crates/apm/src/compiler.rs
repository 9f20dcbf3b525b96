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
//!   over a join is folded into that list — unions to `append`, and products
//!   to a dedicated instruction;
//! * marks hash indices whose build side is iteration-invariant as *static
//!   registers* so they are built once and reused (Section 4.2) — the
//!   "linear recursion" case that covers nearly all programs in the paper's
//!   evaluation.

use crate::config::RuntimeOptions;
use crate::isa::{ApmProgram, DbPart, Instr, JoinSource, JoinWrite, RegId};
use lobster_ram::passes::{join_strategy, projection_sorted_prefix, JoinStrategy};
use lobster_ram::{RamExpr, RamProgram, RamRule, RowProjection, ScalarExpr, Stratum};
use std::collections::BTreeSet;

/// The result of compiling one stratum.
#[derive(Debug, Clone)]
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
    merge_joins: usize,
    hash_joins: usize,
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
        expr.arity(&|name| self.ram.arity(name))
            .expect("validated program has known arities")
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
    /// prefix of each intermediate table (mirroring
    /// `lobster_ram::passes::expr_sorted_prefix`, but with exact per-variant
    /// partition knowledge): a single-partition load is fully sorted because
    /// tables are stored sorted, and a full (`all`) load of a relation this
    /// stratum does *not* update is fully sorted too — its recent half is
    /// empty once the defining stratum reached its fix point, so the
    /// concatenation is just the sorted stable half.
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
                let arity = self.ram.arity(name).expect("relation arity");
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
                // A pure column permutation directly over a join is the
                // join's own output list: the columns it drops are never
                // written.
                if let (Some(select), Some((left, right, width))) =
                    (proj.permutation.as_deref(), self.as_join(input))
                {
                    let mut joined = self.compile_join(
                        left,
                        right,
                        width,
                        Some(select),
                        parts,
                        next_recursive_leaf,
                    );
                    joined.sorted_prefix = projection_sorted_prefix(proj, joined.sorted_prefix);
                    return joined;
                }
                let input = self.compile_expr(input, parts, next_recursive_leaf);
                let outputs = self.fresh_n(proj.output_arity());
                let output_tags = self.fresh();
                self.emit(Instr::Eval {
                    inputs: input.columns,
                    input_tags: input.tags,
                    projection: proj.clone(),
                    outputs: outputs.clone(),
                    output_tags,
                });
                Compiled {
                    columns: outputs,
                    tags: output_tags,
                    sorted_prefix: projection_sorted_prefix(proj, input.sorted_prefix),
                }
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
            RamExpr::Join { .. } | RamExpr::Intersect(..) => {
                let (left, right, width) = self.as_join(expr).expect("a join");
                self.compile_join(left, right, width, None, parts, next_recursive_leaf)
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
            RamExpr::Product(left, right) => {
                let l = self.compile_expr(left, parts, next_recursive_leaf);
                let r = self.compile_expr(right, parts, next_recursive_leaf);
                let outputs = self.fresh_n(l.columns.len() + r.columns.len());
                let output_tags = self.fresh();
                self.emit(Instr::Product {
                    left: l.columns,
                    left_tags: l.tags,
                    right: r.columns,
                    right_tags: r.tags,
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

    /// The operands of a join expression: `left ⊲⊳_w right`, or `a ∩ b` —
    /// a join on every column that keeps the left row, which the join
    /// output convention already does.
    fn as_join<'e>(&self, expr: &'e RamExpr) -> Option<(&'e RamExpr, &'e RamExpr, usize)> {
        match expr {
            RamExpr::Join { left, right, width } => Some((left, right, *width)),
            RamExpr::Intersect(left, right) => Some((left, right, self.arity(left))),
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
    fn compile_join(
        &mut self,
        left: &RamExpr,
        right: &RamExpr,
        width: usize,
        select: Option<&[usize]>,
        parts: &[DbPart],
        next_recursive_leaf: &mut usize,
    ) -> Compiled {
        let l = self.compile_expr(left, parts, next_recursive_leaf);
        let r = self.compile_expr(right, parts, next_recursive_leaf);

        // Build the hash index on the side that does not depend on the
        // stratum's own relations when possible: that index is identical on
        // every iteration, so it can live in a static register and be reused
        // (the linear-recursion optimization of Section 4.2).
        let left_recursive = self.is_recursive_expr(left);
        let right_recursive = self.is_recursive_expr(right);
        let build_is_left = !left_recursive && right_recursive;
        let static_ = if build_is_left {
            !left_recursive
        } else {
            !right_recursive
        };

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

        let strategy = if self.hash_only {
            JoinStrategy::Hash
        } else {
            join_strategy(l.sorted_prefix, r.sorted_prefix, width)
        };

        let counts = self.fresh();
        let offsets = self.fresh();
        let outputs = self.fresh_n(sources.len());
        let output_tags = self.fresh();
        let build_keys = build.columns[..width].to_vec();
        let write = JoinWrite {
            probe_keys: probe.columns[..width].to_vec(),
            counts,
            offsets,
            sources,
            build_tags: build.tags,
            probe_tags: probe.tags,
            build_is_left,
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
            self.emit(Instr::Store {
                relation: rule.target.clone(),
                columns: compiled.columns,
                tags: compiled.tags,
            });
            self.current_first_only = false;
        }
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
/// `options` are the options of the executor that will run the result, as
/// for [`compile_stratum_with_options`].
pub fn compile_stratum_delta(
    stratum: &Stratum,
    ram: &RamProgram,
    changed_inputs: &BTreeSet<String>,
    _options: &RuntimeOptions,
) -> CompiledStratum {
    let mut tracked: BTreeSet<String> = stratum.relations.iter().cloned().collect();
    tracked.extend(changed_inputs.iter().cloned());
    let mut compiler = Compiler::new(ram, tracked);
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
/// the one from-scratch compile entry, called by [`Executor::run_program`]
/// and by the recompute path of [`refresh_database`], each with the
/// executor's own options.
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
    compile_from_scratch(stratum, ram, false)
}

/// Test hook: [`compile_stratum_with_options`] with sort-order inference
/// ignored, so every join — merge-eligible or not — takes the hash path.
/// It exists to give the join-strategy differential
/// (`crates/bench/tests/strategy_agreement.rs`) its second build; no
/// non-test code calls it and no option, builder or cache key leads here.
#[doc(hidden)]
pub fn compile_stratum_hash_only(stratum: &Stratum, ram: &RamProgram) -> CompiledStratum {
    compile_from_scratch(stratum, ram, true)
}

fn compile_from_scratch(stratum: &Stratum, ram: &RamProgram, hash_only: bool) -> CompiledStratum {
    #[cfg(debug_assertions)]
    if let Err(errors) = lobster_ram::passes::validate_program(ram) {
        let rendered: Vec<String> = errors.iter().map(ToString::to_string).collect();
        panic!(
            "invalid RAM program reached the compiler:\n{}",
            rendered.join("\n")
        );
    }
    let own_relations = stratum.relations.iter().cloned().collect();
    let mut compiler = Compiler::new(ram, own_relations);
    compiler.hash_only = hash_only;
    for rule in &stratum.rules {
        compiler.compile_rule(rule, stratum.recursive);
    }
    compiler.finish(stratum, stratum.recursive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_datalog::parse;

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

    #[test]
    fn a_join_writes_the_columns_the_rule_keeps_and_nothing_is_gathered() {
        // The three gated programs. The CLUTRR and CSPA sources are those of
        // `lobster-workloads`, which this crate cannot depend on.
        let clutrr = "type kinship(r: u32, a: u32, b: u32)
             type composition(r1: u32, r2: u32, r3: u32)
             type target(a: u32, b: u32)
             rel derived(r, a, b) = kinship(r, a, b)
             rel derived(r3, a, c) = derived(r1, a, b), kinship(r2, b, c), composition(r1, r2, r3)
             rel answer(r) = target(a, b), derived(r, a, b)";
        let cspa = "type assign(dst: u32, src: u32)
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
        let (tc_ram, _) = transitive_closure();
        for ram in [
            tc_ram.clone(),
            parse(clutrr).unwrap().ram,
            parse(cspa).unwrap().ram,
        ] {
            let mut joins = 0;
            for stratum in &ram.strata {
                for instr in &compile(stratum, &ram).program.instructions {
                    assert!(!instr.mnemonic().contains("gather"), "{instr}");
                    if let Instr::Join { write, .. } | Instr::MergeJoin { write, .. } = instr {
                        joins += 1;
                        assert_eq!(write.sources.len(), write.outputs.len());
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
            Instr::Store { columns, tags, .. }
                if *columns == write.outputs && *tags == write.output_tags
        ));
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
        let apm =
            compile_stratum_delta(stratum, &compiled.ram, &changed, &RuntimeOptions::default());
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
        let apm = compile_stratum_delta(
            &compiled.ram.strata[0],
            &compiled.ram,
            &changed,
            &RuntimeOptions::default(),
        );
        let loads: Vec<(&str, DbPart)> = apm
            .program
            .instructions
            .iter()
            .filter_map(|i| match i {
                Instr::Load { relation, part, .. } => Some((relation.as_str(), *part)),
                _ => None,
            })
            .collect();
        assert_eq!(
            loads,
            [
                ("edge", DbPart::Recent),
                ("edge", DbPart::All),
                ("path", DbPart::Recent),
                ("edge", DbPart::Recent),
                ("path", DbPart::Stable),
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
}
