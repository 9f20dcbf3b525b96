//! `tc_chain` and `tc_dense`: transitive closure from scratch, once per op.

use super::{compile_on_one_thread, Profile, Workload};
use crate::inputs::{self, Graph, TC_SOURCE};
use crate::measure::{metered, Cost};
use crate::oracle::{closure, Closure};
use crate::replay::traced_run;
use crate::trace::Tracer;
use lobster::{DynProgram, FactSet, ProvenanceKind, RunResult};

pub struct Tc {
    kind: ProvenanceKind,
    ops_per_second: f64,
    facts: FactSet,
    expected: Closure,
}

impl Tc {
    /// A 512-edge chain under `unit`: 131 328 tuples in 513 iterations.
    pub fn chain(seed: u64) -> Tc {
        Tc::new(inputs::chain(seed), ProvenanceKind::Unit, 2.1)
    }

    /// 500 nodes x 8 out-edges with probabilities under `minmaxprob`:
    /// 250 000 tagged tuples in a handful of iterations.
    pub fn dense(seed: u64) -> Tc {
        Tc::new(inputs::dense(seed), ProvenanceKind::MaxMinProb, 3.8)
    }

    fn new(graph: Graph, kind: ProvenanceKind, ops_per_second: f64) -> Tc {
        Tc {
            kind,
            ops_per_second,
            facts: graph.fact_set(),
            expected: closure(&graph),
        }
    }
}

/// The op: a fresh session, the edges, one run.
fn run(program: &DynProgram, facts: &FactSet) -> Result<RunResult, String> {
    let mut session = program.session();
    session.insert_facts(facts).map_err(|e| e.to_string())?;
    session.run().map_err(|e| e.to_string())
}

impl Workload for Tc {
    type Live = DynProgram;

    fn ops_per_second(&self) -> f64 {
        self.ops_per_second
    }

    fn set_up(&self) -> Result<DynProgram, String> {
        let mut program = compile_on_one_thread(TC_SOURCE, self.kind)?;
        self.op(&mut program, 0)?;
        Ok(program)
    }

    fn op(&self, program: &mut DynProgram, _index: usize) -> Result<Cost, String> {
        let (result, cost) = metered(|| run(program, &self.facts));
        self.expected.check(result?.relation("path"))?;
        Ok(cost)
    }

    fn traced_request(
        &self,
        program: &mut DynProgram,
        index: usize,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let result = traced_run(program, &self.facts, index, tracer)?;
        self.expected.check(result.relation("path"))
    }

    fn profile(&self) -> Profile<'_> {
        Profile {
            source: TC_SOURCE,
            kind: self.kind,
            facts: &self.facts,
            iterations: self.expected.depth + 1,
        }
    }
}
