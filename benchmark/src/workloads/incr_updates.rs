//! `incr_updates`: one materialised session; every op inserts the same eight
//! links one at a time (tuple-delta path) and retracts them together
//! (recompute path), so the state returns to base and rounds are identical.

use super::{compile_on_one_thread, Profile, Workload};
use crate::inputs::{self, edge_facts, Graph, FOREST_CHAIN_NODES, FOREST_LINK_REACH, TC_SOURCE};
use crate::measure::{metered, Cost};
use crate::oracle::{closure, Closure};
use crate::replay::{replay, same_outputs, Shape};
use crate::trace::{Kind, Tracer};
use lobster::{DynProgram, DynSession, FactSet, InputFactId, ProvenanceKind, RunResult};

/// Every node of one chain gains a path to the last nodes of another.
const TUPLES_PER_LINK: usize = FOREST_CHAIN_NODES * FOREST_LINK_REACH;

pub struct IncrUpdates {
    base_facts: FactSet,
    /// One single-edge fact set per link, in insertion order.
    link_facts: Vec<FactSet>,
    /// The base plus the first link: what the incremental probe runs on.
    profile_facts: FactSet,
    profile_iterations: usize,
    base: Closure,
    /// The closure with every link in place.
    linked: Closure,
}

pub struct Materialised {
    program: DynProgram,
    session: DynSession,
}

impl IncrUpdates {
    pub fn new(seed: u64) -> IncrUpdates {
        let forest = inputs::forest(seed);
        let with_links = |count: usize| {
            let mut edges = forest.base.edges.clone();
            edges.extend(forest.links[..count].iter().map(|&(x, y)| (x, y, None)));
            Graph {
                nodes: forest.base.nodes,
                edges,
            }
        };
        let first_link = with_links(1);
        IncrUpdates {
            base_facts: forest.base.fact_set(),
            link_facts: forest
                .links
                .iter()
                .map(|&(x, y)| edge_facts(&[(x, y, None)]))
                .collect(),
            profile_facts: first_link.fact_set(),
            profile_iterations: closure(&first_link).depth + 1,
            base: closure(&forest.base),
            linked: closure(&with_links(forest.links.len())),
        }
    }

    /// Checks the `path` relation after `links` links are in place: the
    /// count always, the tuple set too where the oracle holds it.
    fn check(&self, result: &RunResult, links: usize) -> Result<(), String> {
        let rows = result.relation("path");
        let expected = self.base.count + links * TUPLES_PER_LINK;
        if rows.len() != expected {
            return Err(format!(
                "path has {} tuples with {links} links in, the oracle {expected}",
                rows.len()
            ));
        }
        if links == 0 {
            self.base.check(rows)
        } else if links == self.link_facts.len() {
            self.linked.check(rows)
        } else {
            Ok(())
        }
    }
}

fn insert(session: &mut DynSession, link: &FactSet) -> Result<(InputFactId, RunResult), String> {
    let ids = session.insert_facts(link).map_err(|e| e.to_string())?;
    let result = session.run_incremental().map_err(|e| e.to_string())?;
    Ok((ids[0], result))
}

fn retract(session: &mut DynSession, ids: &[InputFactId]) -> Result<RunResult, String> {
    let removed = session.retract_facts(ids);
    if removed != ids.len() {
        return Err(format!("retracted {removed} of {} links", ids.len()));
    }
    session.run_incremental().map_err(|e| e.to_string())
}

impl Workload for IncrUpdates {
    type Live = Materialised;

    fn ops_per_second(&self) -> f64 {
        5.0
    }

    fn set_up(&self) -> Result<Materialised, String> {
        let program = compile_on_one_thread(TC_SOURCE, ProvenanceKind::Unit)?;
        let mut session = program.session();
        session
            .insert_facts(&self.base_facts)
            .map_err(|e| e.to_string())?;
        let materialised = session.run_incremental().map_err(|e| e.to_string())?;
        self.check(&materialised, 0)?;
        let mut live = Materialised { program, session };
        self.op(&mut live, 0)?;
        Ok(live)
    }

    fn op(&self, live: &mut Materialised, _index: usize) -> Result<Cost, String> {
        let mut total = Cost::default();
        let mut ids = Vec::with_capacity(self.link_facts.len());
        for (done, link) in self.link_facts.iter().enumerate() {
            let (inserted, cost) = metered(|| insert(&mut live.session, link));
            total += cost;
            let (id, result) = inserted?;
            ids.push(id);
            self.check(&result, done + 1)?;
        }
        let (retracted, cost) = metered(|| retract(&mut live.session, &ids));
        total += cost;
        self.check(&retracted?, 0)?;
        Ok(total)
    }

    /// The same round with a span per step. What an insert does beneath the
    /// session (delta propagation, then decoding all of `path`) cannot be
    /// called from outside without the session's own database, so only the
    /// retraction is decomposed: it re-derives from the surviving facts, which
    /// is what a from-scratch load, execute and decode of the base replays.
    fn traced_request(
        &self,
        live: &mut Materialised,
        index: usize,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let root = tracer.begin_op(index);
        let mut steps = Vec::with_capacity(self.link_facts.len());
        for link in &self.link_facts {
            let (inserted, _) = tracer.time("core.incremental.insert", root, Kind::Inline, || {
                insert(&mut live.session, link)
            });
            steps.push(inserted);
        }
        // Checks wait until the root span is closed; a failed insert has no
        // id to retract and is reported then.
        let ids: Vec<InputFactId> = steps
            .iter()
            .filter_map(|step| step.as_ref().ok().map(|(id, _)| *id))
            .collect();
        let (retracted, span) = tracer.time("core.incremental.retract", root, Kind::Inline, || {
            retract(&mut live.session, &ids)
        });
        tracer.end(root);
        for (done, step) in steps.into_iter().enumerate() {
            self.check(&step?.1, done + 1)?;
        }
        let retracted = retracted?;
        self.check(&retracted, 0)?;
        let replayed = replay(
            ProvenanceKind::Unit,
            live.program.ram(),
            live.program.device(),
            &self.base_facts,
            Shape::Plain,
            tracer,
            span,
        )?;
        same_outputs(&retracted, &replayed)
    }

    fn profile(&self) -> Profile<'_> {
        Profile {
            source: TC_SOURCE,
            kind: ProvenanceKind::Unit,
            facts: &self.profile_facts,
            iterations: self.profile_iterations,
        }
    }
}
