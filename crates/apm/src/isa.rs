//! The APM instruction set (paper Table 1).
//!
//! APM programs are straight-line sequences of vector instructions over
//! virtual registers. There is no control flow, every register is written
//! exactly once per iteration (SSA), and every instruction admits a massively
//! parallel implementation — the properties that guarantee efficient GPU
//! execution (Section 3.2).

use lobster_ram::RowProjection;
use std::fmt;

/// A virtual vector register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegId(pub u32);

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Which partition of a relation a `load` reads, implementing semi-naive
/// evaluation (Section 3.4): `Stable` facts are older than the previous
/// iteration, `Recent` facts were derived in the previous iteration, and
/// `All` is their union.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbPart {
    /// Facts known before the previous iteration.
    Stable,
    /// Facts discovered in the previous iteration (the frontier).
    Recent,
    /// Stable ∪ recent.
    All,
}

impl fmt::Display for DbPart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DbPart::Stable => "stable",
            DbPart::Recent => "recent",
            DbPart::All => "all",
        };
        f.write_str(s)
    }
}

/// One output column of a join: a column register of the build or of the
/// probe side, read at the matching row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSource {
    /// A build-side column register.
    Build(RegId),
    /// A probe-side column register.
    Probe(RegId),
}

impl JoinSource {
    /// The column register read.
    pub fn register(self) -> RegId {
        match self {
            JoinSource::Build(reg) | JoinSource::Probe(reg) => reg,
        }
    }
}

/// The operands `join` and `mergejoin` share: what the write pass reads
/// besides the build side, and what it writes. The output table is
/// `sources` column by column — the compiler lists exactly the columns
/// something downstream reads, so a join key that the next projection drops
/// is never written — tagged `left ⊗ right`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinWrite {
    /// Probe key column registers.
    pub probe_keys: Vec<RegId>,
    /// Counts register (from `count` / `mergecount`).
    pub counts: RegId,
    /// Offsets register (from `scan`).
    pub offsets: RegId,
    /// Where each output column comes from, in output order.
    pub sources: Vec<JoinSource>,
    /// Build-side tag register.
    pub build_tags: RegId,
    /// Probe-side tag register.
    pub probe_tags: RegId,
    /// Whether the build side is the join's *left* input: an output tag is
    /// `build ⊗ probe` when set, `probe ⊗ build` otherwise.
    pub build_is_left: bool,
    /// Destination column registers, one per source.
    pub outputs: Vec<RegId>,
    /// Destination tag register.
    pub output_tags: RegId,
}

impl JoinWrite {
    fn defs(&self) -> Vec<RegId> {
        let mut regs = self.outputs.clone();
        regs.push(self.output_tags);
        regs
    }

    fn for_each_register(&self, f: impl FnMut(RegId)) {
        let sources = self.sources.iter().map(|source| source.register());
        self.probe_keys
            .iter()
            .copied()
            .chain(sources)
            .chain(self.outputs.iter().copied())
            .chain([
                self.counts,
                self.offsets,
                self.build_tags,
                self.probe_tags,
                self.output_tags,
            ])
            .for_each(f);
    }
}

/// One APM instruction.
///
/// Register operands are written `Vec<RegId>` when the instruction operates
/// on a whole table (one register per column); a separate register carries
/// the provenance tags of the table.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `[s̄, s_t] = load⟨ρ⟩()`: load the columns and tags of a relation
    /// partition into registers.
    Load {
        /// Relation name.
        relation: String,
        /// Partition to read.
        part: DbPart,
        /// Destination column registers.
        columns: Vec<RegId>,
        /// Destination tag register.
        tags: RegId,
    },
    /// `store⟨ρ⟩(s̄, s_t)`: stage the rows of a table as candidate delta
    /// facts for a relation. Staged facts are deduplicated and folded into
    /// the database by the end-of-iteration update sequence.
    Store {
        /// Target relation.
        relation: String,
        /// Source column registers.
        columns: Vec<RegId>,
        /// Source tag register.
        tags: RegId,
    },
    /// `d̄ ← eval⟨α⟩(s̄)`: row-wise projection / selection. Tags of surviving
    /// rows are copied from the corresponding input rows.
    Eval {
        /// Input column registers.
        inputs: Vec<RegId>,
        /// Input tag register.
        input_tags: RegId,
        /// The projection (with optional fused filter).
        projection: RowProjection,
        /// Output column registers.
        outputs: Vec<RegId>,
        /// Output tag register.
        output_tags: RegId,
    },
    /// `d ← build(s̄)`: build a hash index over key columns. When `static_`
    /// is set the index is built on the first iteration only and reused
    /// afterwards (Section 4.2).
    Build {
        /// Key column registers.
        keys: Vec<RegId>,
        /// Destination register holding the index.
        index: RegId,
        /// Whether the index lives in a static register.
        static_: bool,
    },
    /// `c ← count(b̄, h, ā)`: per-probe-row match counts.
    Count {
        /// Register holding the hash index.
        index: RegId,
        /// Probe key column registers.
        probe_keys: Vec<RegId>,
        /// Destination register for the counts.
        counts: RegId,
    },
    /// `o ← scan(c)`: exclusive prefix sum of the counts.
    Scan {
        /// Input counts register.
        counts: RegId,
        /// Destination offsets register.
        offsets: RegId,
    },
    /// `[d̄, d_t] ← join⟨W⟩(b̄, ā, h, c, o)`: the write pass of a hash join —
    /// emits the output columns and the ⊗-ed tags of every match directly.
    Join {
        /// Register holding the hash index (build side).
        index: RegId,
        /// What to write (shared with `mergejoin`).
        write: JoinWrite,
    },
    /// `c ← mergecount(b̄, ā)`: per-probe-row match counts by binary search
    /// over a *sorted* build side — the merge-path counterpart of `count`.
    /// Emitted instead of `build`+`count` when sort-order inference proves
    /// both join inputs sorted on the key prefix: no hash index exists at
    /// all on this path.
    MergeCount {
        /// Build-side key column registers (lexicographically sorted).
        build_keys: Vec<RegId>,
        /// Probe key column registers.
        probe_keys: Vec<RegId>,
        /// Destination register for the counts.
        counts: RegId,
    },
    /// `[d̄, d_t] ← mergejoin⟨W⟩(b̄, ā, c, o)`: the write pass of a
    /// sort-merge join. Bit-identical output to `join` (same rows, same
    /// order, same tags).
    MergeJoin {
        /// Build-side key column registers (lexicographically sorted).
        build_keys: Vec<RegId>,
        /// What to write (shared with `join`).
        write: JoinWrite,
    },
    /// Cartesian product of two tables (used when a rule joins relations with
    /// no shared variables).
    Product {
        /// Left column registers.
        left: Vec<RegId>,
        /// Left tag register.
        left_tags: RegId,
        /// Right column registers.
        right: Vec<RegId>,
        /// Right tag register.
        right_tags: RegId,
        /// Output column registers (left columns then right columns).
        outputs: Vec<RegId>,
        /// Output tag register.
        output_tags: RegId,
    },
    /// Row-wise concatenation of several tables (the `append`/`copy` used by
    /// the Join translation rule to combine the semi-naive variants, and by
    /// unions).
    Append {
        /// The input tables: (column registers, tag register) pairs.
        inputs: Vec<(Vec<RegId>, RegId)>,
        /// Output column registers.
        outputs: Vec<RegId>,
        /// Output tag register.
        output_tags: RegId,
    },
}

impl Instr {
    /// A short mnemonic for statistics and debugging.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instr::Load { .. } => "load",
            Instr::Store { .. } => "store",
            Instr::Eval { .. } => "eval",
            Instr::Build { .. } => "build",
            Instr::Count { .. } => "count",
            Instr::Scan { .. } => "scan",
            Instr::Join { .. } => "join",
            Instr::MergeCount { .. } => "mergecount",
            Instr::MergeJoin { .. } => "mergejoin",
            Instr::Product { .. } => "product",
            Instr::Append { .. } => "append",
        }
    }

    /// Registers written by this instruction.
    pub fn defs(&self) -> Vec<RegId> {
        match self {
            Instr::Load { columns, tags, .. } => {
                let mut regs = columns.clone();
                regs.push(*tags);
                regs
            }
            Instr::Store { .. } => Vec::new(),
            Instr::Eval {
                outputs,
                output_tags,
                ..
            } => {
                let mut regs = outputs.clone();
                regs.push(*output_tags);
                regs
            }
            Instr::Build { index, .. } => vec![*index],
            Instr::Count { counts, .. } => vec![*counts],
            Instr::Scan { offsets, .. } => vec![*offsets],
            Instr::MergeCount { counts, .. } => vec![*counts],
            Instr::Join { write, .. } | Instr::MergeJoin { write, .. } => write.defs(),
            Instr::Product {
                outputs,
                output_tags,
                ..
            } => {
                let mut regs = outputs.clone();
                regs.push(*output_tags);
                regs
            }
            Instr::Append {
                outputs,
                output_tags,
                ..
            } => {
                let mut regs = outputs.clone();
                regs.push(*output_tags);
                regs
            }
        }
    }
}

impl Instr {
    /// Calls `f` on every register the instruction reads or writes (one it
    /// mentions twice is visited twice).
    pub fn for_each_register(&self, mut f: impl FnMut(RegId)) {
        let mut all = |regs: &[RegId]| regs.iter().copied().for_each(&mut f);
        match self {
            Instr::Load { columns, tags, .. } | Instr::Store { columns, tags, .. } => {
                all(columns);
                all(&[*tags]);
            }
            Instr::Eval {
                inputs,
                input_tags,
                outputs,
                output_tags,
                ..
            } => {
                all(inputs);
                all(outputs);
                all(&[*input_tags, *output_tags]);
            }
            Instr::Build { keys, index, .. } => {
                all(keys);
                all(&[*index]);
            }
            Instr::Count {
                index,
                probe_keys,
                counts,
            } => {
                all(probe_keys);
                all(&[*index, *counts]);
            }
            Instr::Scan { counts, offsets } => all(&[*counts, *offsets]),
            Instr::Join { index, write } => {
                all(&[*index]);
                write.for_each_register(f);
            }
            Instr::MergeCount {
                build_keys,
                probe_keys,
                counts,
            } => {
                all(build_keys);
                all(probe_keys);
                all(&[*counts]);
            }
            Instr::MergeJoin { build_keys, write } => {
                all(build_keys);
                write.for_each_register(f);
            }
            Instr::Product {
                left,
                left_tags,
                right,
                right_tags,
                outputs,
                output_tags,
            } => {
                all(left);
                all(right);
                all(outputs);
                all(&[*left_tags, *right_tags, *output_tags]);
            }
            Instr::Append {
                inputs,
                outputs,
                output_tags,
            } => {
                for (columns, tags) in inputs {
                    all(columns);
                    all(&[*tags]);
                }
                all(outputs);
                all(&[*output_tags]);
            }
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Load {
                relation,
                part,
                columns,
                tags,
            } => {
                write!(f, "{:?},{tags} <- load<{relation}:{part}>()", columns)
            }
            Instr::Store {
                relation,
                columns,
                tags,
            } => {
                write!(f, "store<{relation}>({columns:?}, {tags})")
            }
            other => write!(f, "{} {:?} <- ...", other.mnemonic(), other.defs()),
        }
    }
}

/// A compiled APM program for one stratum: the instruction body executed once
/// per fix-point iteration plus metadata about the registers it uses.
#[derive(Debug, Clone, Default)]
pub struct ApmProgram {
    /// Instructions executed, in order, each iteration.
    pub instructions: Vec<Instr>,
    /// Instructions executed only on the first iteration (non-recursive rules
    /// of a recursive stratum, e.g. the base case of a transitive closure).
    pub first_iteration_only: Vec<bool>,
    /// Number of virtual registers used.
    pub register_count: u32,
    /// Registers marked `static` (values persist across iterations).
    pub static_registers: Vec<RegId>,
    /// Relations written by this program.
    pub stored_relations: Vec<String>,
    /// Every non-static register, latest death first: the registers no
    /// instruction after `pc` mentions are
    /// `dead[died_after[pc + 1]..died_after[pc]]`.
    dead: Vec<RegId>,
    died_after: Vec<usize>,
}

impl ApmProgram {
    /// Assembles a program, marking for every register the last instruction
    /// that mentions it ([`ApmProgram::last_reads`]).
    pub fn new(
        instructions: Vec<Instr>,
        first_iteration_only: Vec<bool>,
        register_count: u32,
        static_registers: Vec<RegId>,
        stored_relations: Vec<String>,
    ) -> Self {
        let mut seen = vec![false; register_count as usize];
        for reg in &static_registers {
            seen[reg.0 as usize] = true;
        }
        // Backwards, the first mention of a register is its last.
        let mut dead = Vec::with_capacity(seen.len());
        let mut died_after = vec![0; instructions.len() + 1];
        for (pc, instr) in instructions.iter().enumerate().rev() {
            instr.for_each_register(|reg| {
                if !std::mem::replace(&mut seen[reg.0 as usize], true) {
                    dead.push(reg);
                }
            });
            died_after[pc] = dead.len();
        }
        ApmProgram {
            instructions,
            first_iteration_only,
            register_count,
            static_registers,
            stored_relations,
            dead,
            died_after,
        }
    }

    /// The registers no instruction after `pc` mentions: those it is the
    /// last to read, and those it writes that nothing reads. The executor
    /// drops them right after the instruction, which returns their buffers
    /// to the arena mid-iteration and lets `store` take a buffer it is the
    /// last reader of instead of copying it. Static registers are never
    /// listed.
    pub fn last_reads(&self, pc: usize) -> &[RegId] {
        &self.dead[self.died_after[pc + 1]..self.died_after[pc]]
    }

    /// Number of instructions in the program body.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// `true` when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// A readable listing of the program (for debugging and documentation).
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for (i, instr) in self.instructions.iter().enumerate() {
            let marker = if self.first_iteration_only.get(i).copied().unwrap_or(false) {
                "*"
            } else {
                " "
            };
            out.push_str(&format!("{marker}{i:4}: {instr}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `r1 ⋈ r4` keyed on the probe column `r1`, writing (probe `r1`, build
    /// `r5`) into `r8, r9` and the tags into `r10`.
    fn join_write() -> JoinWrite {
        JoinWrite {
            probe_keys: vec![RegId(1)],
            counts: RegId(2),
            offsets: RegId(3),
            sources: vec![JoinSource::Probe(RegId(1)), JoinSource::Build(RegId(5))],
            build_tags: RegId(6),
            probe_tags: RegId(7),
            build_is_left: false,
            outputs: vec![RegId(8), RegId(9)],
            output_tags: RegId(10),
        }
    }

    #[test]
    fn defs_cover_written_registers() {
        let instr = Instr::Join {
            index: RegId(0),
            write: join_write(),
        };
        assert_eq!(instr.defs(), vec![RegId(8), RegId(9), RegId(10)]);
        assert_eq!(instr.mnemonic(), "join");
        // Liveness sees every operand: the index, the keys, both sides'
        // source columns and tags, and what is written.
        let mut mentioned = Vec::new();
        instr.for_each_register(|reg| mentioned.push(reg.0));
        mentioned.sort_unstable();
        mentioned.dedup();
        assert_eq!(mentioned, [0, 1, 2, 3, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn merge_join_defs_match_hash_join_shape() {
        let count = Instr::MergeCount {
            build_keys: vec![RegId(0)],
            probe_keys: vec![RegId(1)],
            counts: RegId(2),
        };
        assert_eq!(count.defs(), vec![RegId(2)]);
        assert_eq!(count.mnemonic(), "mergecount");
        let join = Instr::MergeJoin {
            build_keys: vec![RegId(4)],
            write: join_write(),
        };
        assert_eq!(join.defs(), vec![RegId(8), RegId(9), RegId(10)]);
        assert_eq!(join.mnemonic(), "mergejoin");
        let mut mentioned = Vec::new();
        join.for_each_register(|reg| mentioned.push(reg.0));
        assert!(mentioned.contains(&4) && mentioned.contains(&5));
    }

    #[test]
    fn store_defines_nothing() {
        let instr = Instr::Store {
            relation: "path".into(),
            columns: vec![RegId(0)],
            tags: RegId(1),
        };
        assert!(instr.defs().is_empty());
        assert_eq!(instr.mnemonic(), "store");
    }

    #[test]
    fn listing_marks_first_iteration_instructions() {
        let program = ApmProgram::new(
            vec![
                Instr::Load {
                    relation: "edge".into(),
                    part: DbPart::All,
                    columns: vec![RegId(0), RegId(1)],
                    tags: RegId(2),
                },
                Instr::Store {
                    relation: "path".into(),
                    columns: vec![RegId(0), RegId(1)],
                    tags: RegId(2),
                },
            ],
            vec![true, true],
            3,
            vec![],
            vec!["path".into()],
        );
        assert!(program.last_reads(0).is_empty());
        assert_eq!(program.last_reads(1), [RegId(0), RegId(1), RegId(2)]);
        let listing = program.listing();
        assert!(listing.contains("load<edge:all>"));
        assert!(listing.starts_with('*'));
        assert_eq!(program.len(), 2);
        assert!(!program.is_empty());
    }

    #[test]
    fn display_of_regs_and_parts() {
        assert_eq!(RegId(3).to_string(), "r3");
        assert_eq!(DbPart::Recent.to_string(), "recent");
    }
}
