//! Benchmark workloads: the Datalog programs and synthetic input generators
//! for every task in the paper's evaluation (Table 2).
//!
//! The paper evaluates Lobster on nine tasks spanning differentiable,
//! probabilistic, and discrete reasoning. The original datasets (Pathfinder
//! images, PacMan frames, handwritten formulas, CLUTRR text, the ArchiveII
//! RNA database, SNAP graphs, and program graphs for the pointer analysis)
//! are not redistributable here, so each module pairs the task's Datalog
//! program with a *synthetic generator* that produces inputs with the same
//! structure and the same knobs the paper scales (grid size, maze size,
//! formula length, chain length, sequence length, graph size). What the
//! symbolic engines see — relation sizes, recursion depth, join fan-out,
//! probability structure — matches the original workloads.
//!
//! | Module | Task | Reasoning |
//! |---|---|---|
//! | [`pathfinder`] | Pathfinder connectivity | differentiable |
//! | [`pacman`] | PacMan-Maze planning | differentiable |
//! | [`hwf`] | Handwritten formula evaluation | differentiable |
//! | [`clutrr`] | CLUTRR kinship reasoning | differentiable |
//! | [`psa`] | Probabilistic static analysis | probabilistic |
//! | [`rna`] | RNA secondary structure prediction | probabilistic |
//! | [`graphs`] | Transitive closure & same generation | discrete |
//! | [`cspa`] | Context-sensitive pointer analysis | discrete |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clutrr;
pub mod cspa;
pub mod graphs;
pub mod hwf;
pub mod pacman;
pub mod pathfinder;
pub mod psa;
pub mod rna;
pub mod suite;

use lobster::{FactSet, LobsterError, Session, Value};

/// A set of generated facts in a neutral form usable by both Lobster and the
/// baseline engines.
#[derive(Debug, Clone, Default)]
pub struct WorkloadFacts {
    /// `(relation, tuple, probability)` triples; `None` marks
    /// non-probabilistic facts.
    pub facts: Vec<(String, Vec<Value>, Option<f64>)>,
}

impl WorkloadFacts {
    /// An empty fact collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fact.
    pub fn push(&mut self, relation: impl Into<String>, values: Vec<Value>, prob: Option<f64>) {
        self.facts.push((relation.into(), values, prob));
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// `true` when no facts were generated.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Converts to a [`FactSet`] for
    /// [`Program::run_batch`](lobster::Program::run_batch).
    pub fn to_fact_set(&self) -> FactSet {
        let mut set = FactSet::new();
        for (rel, values, prob) in &self.facts {
            set.add(rel.clone(), values, *prob);
        }
        set
    }

    /// Registers every fact on a Lobster session.
    ///
    /// # Errors
    ///
    /// Propagates [`LobsterError::BadFact`] for malformed facts.
    pub fn add_to_session(&self, session: &mut Session) -> Result<(), LobsterError> {
        for (rel, values, prob) in &self.facts {
            session.add_fact(rel, values, *prob)?;
        }
        Ok(())
    }

    /// Encoded facts with probabilities (for the Scallop / ProbLog
    /// baselines). Non-probabilistic facts get probability 1.
    pub fn encoded_probabilistic(&self) -> Vec<(String, Vec<u64>, f64)> {
        self.facts
            .iter()
            .map(|(rel, values, prob)| {
                (
                    rel.clone(),
                    values.iter().map(Value::encode).collect(),
                    prob.unwrap_or(1.0),
                )
            })
            .collect()
    }

    /// Encoded facts without probabilities (for the discrete baselines).
    pub fn encoded_discrete(&self) -> Vec<(String, Vec<u64>)> {
        self.facts
            .iter()
            .map(|(rel, values, _)| (rel.clone(), values.iter().map(Value::encode).collect()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_facts_conversions() {
        let mut facts = WorkloadFacts::new();
        facts.push("edge", vec![Value::U32(0), Value::U32(1)], Some(0.5));
        facts.push("edge", vec![Value::U32(1), Value::U32(2)], None);
        assert_eq!(facts.len(), 2);
        assert!(!facts.is_empty());
        let probabilistic = facts.encoded_probabilistic();
        assert_eq!(probabilistic[0].2, 0.5);
        assert_eq!(probabilistic[1].2, 1.0);
        let discrete = facts.encoded_discrete();
        assert_eq!(discrete[0].1, vec![0, 1]);
        let set = facts.to_fact_set();
        assert_eq!(set.len(), 2);
    }
}
