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
    /// `[i_l, i_r] ← join⟨W⟩(b̄, ā, h, c, o)`: emit matching index pairs.
    Join {
        /// Register holding the hash index (build side).
        index: RegId,
        /// Probe key column registers.
        probe_keys: Vec<RegId>,
        /// Counts register (from `count`).
        counts: RegId,
        /// Offsets register (from `scan`).
        offsets: RegId,
        /// Destination register for build-side row indices.
        build_indices: RegId,
        /// Destination register for probe-side row indices.
        probe_indices: RegId,
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
    /// `[i_l, i_r] ← mergejoin⟨W⟩(b̄, ā, c, o)`: emit matching index pairs
    /// of a sort-merge join. Bit-identical output to `join` (same pairs,
    /// same order, same positions).
    MergeJoin {
        /// Build-side key column registers (lexicographically sorted).
        build_keys: Vec<RegId>,
        /// Probe key column registers.
        probe_keys: Vec<RegId>,
        /// Counts register (from `mergecount`).
        counts: RegId,
        /// Offsets register (from `scan`).
        offsets: RegId,
        /// Destination register for build-side row indices.
        build_indices: RegId,
        /// Destination register for probe-side row indices.
        probe_indices: RegId,
    },
    /// `d̄ ← gather(i, s̄)`: gather rows of the source columns by index.
    Gather {
        /// Index register.
        indices: RegId,
        /// Source column registers.
        sources: Vec<RegId>,
        /// Destination column registers.
        destinations: Vec<RegId>,
    },
    /// `d_t ← gather⟨⊗⟩([i_l, i_r], [t_l, t_r])`: gather one tag from each
    /// side of a join and combine them with the semiring conjunction.
    GatherMulTags {
        /// Build-side index register.
        left_indices: RegId,
        /// Probe-side index register.
        right_indices: RegId,
        /// Build-side tag register.
        left_tags: RegId,
        /// Probe-side tag register.
        right_tags: RegId,
        /// Destination tag register.
        output: RegId,
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
            Instr::Gather { .. } => "gather",
            Instr::GatherMulTags { .. } => "gather_mul",
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
            Instr::Join {
                build_indices,
                probe_indices,
                ..
            } => {
                vec![*build_indices, *probe_indices]
            }
            Instr::MergeCount { counts, .. } => vec![*counts],
            Instr::MergeJoin {
                build_indices,
                probe_indices,
                ..
            } => {
                vec![*build_indices, *probe_indices]
            }
            Instr::Gather { destinations, .. } => destinations.clone(),
            Instr::GatherMulTags { output, .. } => vec![*output],
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
            Instr::Join {
                index,
                probe_keys,
                counts,
                offsets,
                build_indices,
                probe_indices,
            } => {
                all(probe_keys);
                all(&[*index, *counts, *offsets, *build_indices, *probe_indices]);
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
            Instr::MergeJoin {
                build_keys,
                probe_keys,
                counts,
                offsets,
                build_indices,
                probe_indices,
            } => {
                all(build_keys);
                all(probe_keys);
                all(&[*counts, *offsets, *build_indices, *probe_indices]);
            }
            Instr::Gather {
                indices,
                sources,
                destinations,
            } => {
                all(sources);
                all(destinations);
                all(&[*indices]);
            }
            Instr::GatherMulTags {
                left_indices,
                right_indices,
                left_tags,
                right_tags,
                output,
            } => all(&[
                *left_indices,
                *right_indices,
                *left_tags,
                *right_tags,
                *output,
            ]),
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

    #[test]
    fn defs_cover_written_registers() {
        let instr = Instr::Join {
            index: RegId(0),
            probe_keys: vec![RegId(1)],
            counts: RegId(2),
            offsets: RegId(3),
            build_indices: RegId(4),
            probe_indices: RegId(5),
        };
        assert_eq!(instr.defs(), vec![RegId(4), RegId(5)]);
        assert_eq!(instr.mnemonic(), "join");
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
            build_keys: vec![RegId(0)],
            probe_keys: vec![RegId(1)],
            counts: RegId(2),
            offsets: RegId(3),
            build_indices: RegId(4),
            probe_indices: RegId(5),
        };
        assert_eq!(join.defs(), vec![RegId(4), RegId(5)]);
        assert_eq!(join.mnemonic(), "mergejoin");
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
