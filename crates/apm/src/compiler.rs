//! The RAM → APM compiler (paper Section 3.3 and Appendix A).
//!
//! Each stratum of a RAM program is flattened into a straight-line APM
//! program that is executed once per fix-point iteration. The compiler:
//!
//! * expands every rule into its semi-naive variants over the stable /
//!   recent / all partitions of the database, so only the frontier of newly
//!   derived facts drives each iteration (Section 3.4);
//! * lowers project and select to `eval` (row-level parallelism), joins to
//!   the `build`/`count`/`scan`/`join`/`gather` sequence of Figure 6, unions
//!   to `append`, and products to a dedicated instruction;
//! * marks hash indices whose build side is iteration-invariant as *static
//!   registers* so they are built once and reused (Section 4.2) — the
//!   "linear recursion" case that covers nearly all programs in the paper's
//!   evaluation.

use crate::config::RuntimeOptions;
use crate::isa::{ApmProgram, DbPart, Instr, RegId};
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
    own_relations: BTreeSet<String>,
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
            own_relations,
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

    /// Whether an expression depends on a relation defined in this stratum.
    fn is_recursive_expr(&self, expr: &RamExpr) -> bool {
        let mut refs = Vec::new();
        expr.referenced_relations(&mut refs);
        refs.iter().any(|r| self.own_relations.contains(r))
    }

    /// Leaf `Relation` occurrences that refer to this stratum's relations, in
    /// traversal order.
    fn recursive_leaf_count(&self, expr: &RamExpr) -> usize {
        let mut count = 0;
        expr.visit(&mut |e| {
            if let RamExpr::Relation(name) = e {
                if self.own_relations.contains(name) {
                    count += 1;
                }
            }
        });
        count
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
                let own = self.own_relations.contains(name);
                let part = if own {
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
                let sorted_prefix = if part != DbPart::All || !own {
                    arity
                } else {
                    // `all` on an own relation concatenates two sorted
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
            RamExpr::Join { left, right, width } => {
                self.compile_join(left, right, *width, parts, next_recursive_leaf)
            }
            RamExpr::Intersect(left, right) => {
                // a ∩ b is a join on every column followed by keeping the
                // left row (which the join output convention already does).
                let width = self.arity(left);
                self.compile_join(left, right, width, parts, next_recursive_leaf)
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

    /// Compiles `left ⊲⊳_w right`. When sort-order inference proves both
    /// inputs sorted on the key prefix, emits the merge-path sequence
    /// `mergecount`/`scan`/`mergejoin` — no hash index is built at all.
    /// Otherwise emits the hash-join sequence of Figure 6. The two paths
    /// produce bit-identical index pairs, so the choice is invisible
    /// downstream.
    fn compile_join(
        &mut self,
        left: &RamExpr,
        right: &RamExpr,
        width: usize,
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
        let build_left = !left_recursive && right_recursive;
        let static_ = if build_left {
            !left_recursive
        } else {
            !right_recursive
        };

        let (build_cols, build_tags, probe_cols, probe_tags) = if build_left {
            (&l.columns, l.tags, &r.columns, r.tags)
        } else {
            (&r.columns, r.tags, &l.columns, l.tags)
        };

        let strategy = if self.hash_only {
            JoinStrategy::Hash
        } else {
            join_strategy(l.sorted_prefix, r.sorted_prefix, width)
        };

        let counts = self.fresh();
        let offsets = self.fresh();
        let build_indices = self.fresh();
        let probe_indices = self.fresh();
        match strategy {
            JoinStrategy::Merge => {
                self.merge_joins += 1;
                self.emit(Instr::MergeCount {
                    build_keys: build_cols[..width].to_vec(),
                    probe_keys: probe_cols[..width].to_vec(),
                    counts,
                });
                self.emit(Instr::Scan { counts, offsets });
                self.emit(Instr::MergeJoin {
                    build_keys: build_cols[..width].to_vec(),
                    probe_keys: probe_cols[..width].to_vec(),
                    counts,
                    offsets,
                    build_indices,
                    probe_indices,
                });
            }
            JoinStrategy::Hash => {
                self.hash_joins += 1;
                let index = self.fresh();
                if static_ {
                    self.static_registers.push(index);
                }
                self.emit(Instr::Build {
                    keys: build_cols[..width].to_vec(),
                    index,
                    static_,
                });
                self.emit(Instr::Count {
                    index,
                    probe_keys: probe_cols[..width].to_vec(),
                    counts,
                });
                self.emit(Instr::Scan { counts, offsets });
                self.emit(Instr::Join {
                    index,
                    probe_keys: probe_cols[..width].to_vec(),
                    counts,
                    offsets,
                    build_indices,
                    probe_indices,
                });
            }
        }

        // Gather the output table: the full left row, then the non-key
        // columns of the right row.
        let (left_indices, right_indices) = if build_left {
            (build_indices, probe_indices)
        } else {
            (probe_indices, build_indices)
        };
        let out_left = self.fresh_n(l.columns.len());
        self.emit(Instr::Gather {
            indices: left_indices,
            sources: l.columns.clone(),
            destinations: out_left.clone(),
        });
        let out_right = self.fresh_n(r.columns.len() - width);
        if !out_right.is_empty() {
            self.emit(Instr::Gather {
                indices: right_indices,
                sources: r.columns[width..].to_vec(),
                destinations: out_right.clone(),
            });
        }
        let output_tags = self.fresh();
        self.emit(Instr::GatherMulTags {
            left_indices,
            right_indices,
            left_tags: if build_left { build_tags } else { probe_tags },
            right_tags: if build_left { probe_tags } else { build_tags },
            output: output_tags,
        });

        let mut outputs = out_left;
        outputs.extend(out_right);
        Compiled {
            columns: outputs,
            tags: output_tags,
            sorted_prefix: 0,
        }
    }

    /// Compiles one rule, expanding it into its semi-naive variants.
    fn compile_rule(&mut self, rule: &RamRule, recursive_stratum: bool) {
        let recursive_leaves = self.recursive_leaf_count(&rule.expr);
        let variants: Vec<(Vec<DbPart>, bool)> = if !recursive_stratum || recursive_leaves == 0 {
            // Base rules only need to run while the initial facts are still
            // the frontier (the first iteration).
            vec![(Vec::new(), recursive_stratum)]
        } else {
            (0..recursive_leaves)
                .map(|i| {
                    let parts = (0..recursive_leaves)
                        .map(|j| {
                            if j < i {
                                DbPart::Stable
                            } else if j == i {
                                DbPart::Recent
                            } else {
                                DbPart::All
                            }
                        })
                        .collect();
                    (parts, false)
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
/// [`refresh_database`](crate::refresh_database) does; derivations touching
/// at least one new fact are then produced by the recent-part variants while
/// derivations over purely old facts — already materialized — are never
/// recomputed. Rules with no tracked leaf are dropped outright: their
/// derivations cannot have changed.
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
/// caller-managed splits of the changed input relations untouched.
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
    for rule in &stratum.rules {
        if compiler.recursive_leaf_count(&rule.expr) == 0 {
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
        for expected in [
            "load",
            "store",
            "build",
            "count",
            "scan",
            "join",
            "gather",
            "gather_mul",
        ] {
            assert!(
                mnemonics.contains(&expected),
                "missing `{expected}` in {mnemonics:?}"
            );
        }
        assert!(compiled.program.register_count > 0);
        assert!(!compiled.program.listing().is_empty());
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
}
