//! The per-request half of the Lobster API: [`Session`], [`FactSet`], and
//! [`RunResult`].
//!
//! A [`Session`] is cheap to open ([`Program::session`]) and owns everything
//! that varies between requests: the registered input facts and the
//! [`InputFactRegistry`] that issues their ids. Dropping the session drops
//! that state; the shared [`Program`] is untouched. Batched runs fork the
//! session registry, so even `run_batch` leaves no trace behind — fixing the
//! seed design where every batch leaked fresh fact ids into a shared,
//! ever-growing registry.

use crate::engine::{self, AnyEngine, SessionFacts};
use crate::error::LobsterError;
use crate::program::Program;
use lobster_apm::ExecutionStats;
use lobster_provenance::{InputFactId, InputFactRegistry, Output};
use lobster_ram::{SymbolTable, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// One raw fact of a [`FactSet`]: relation, tuple, optional probability,
/// optional mutual-exclusion group.
type RawFact = (String, Vec<Value>, Option<f64>, Option<u32>);

/// A set of input facts for one sample, used by batched execution.
#[derive(Debug, Clone, Default)]
pub struct FactSet {
    facts: Vec<RawFact>,
}

impl FactSet {
    /// An empty fact set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fact with an optional probability.
    pub fn add(&mut self, relation: impl Into<String>, values: &[Value], prob: Option<f64>) {
        self.facts
            .push((relation.into(), values.to_vec(), prob, None));
    }

    /// Adds a fact belonging to a mutual-exclusion group (e.g. the ten
    /// classifications of one digit image).
    pub fn add_with_exclusion(
        &mut self,
        relation: impl Into<String>,
        values: &[Value],
        prob: Option<f64>,
        exclusion: u32,
    ) {
        self.facts
            .push((relation.into(), values.to_vec(), prob, Some(exclusion)));
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// `true` when no facts have been added.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// The facts in insertion order:
    /// `(relation, values, probability, exclusion group)`. The position of a
    /// fact in this iteration is its request-local index — the id a serving
    /// layer reports gradients against.
    pub fn facts(&self) -> impl Iterator<Item = (&str, &[Value], Option<f64>, Option<u32>)> {
        self.facts
            .iter()
            .map(|(relation, values, prob, exclusion)| {
                (relation.as_str(), values.as_slice(), *prob, *exclusion)
            })
    }
}

/// The decoded rows of every output relation, in stored order. The rows are
/// behind an `Arc` so that a materialized session and the results it returns
/// can share them.
pub(crate) type OutputView = BTreeMap<String, Arc<Vec<(Tuple, Output)>>>;

/// One registered input fact inside a session.
#[derive(Debug, Clone)]
pub(crate) struct RegisteredFact {
    pub(crate) relation: String,
    pub(crate) values: Vec<Value>,
    pub(crate) id: InputFactId,
    pub(crate) probabilistic: bool,
}

/// The bookkeeping kept between [`Session::run_incremental`] calls beside
/// the materialized database (which the session's engine holds): enough to
/// detect, at the next call, which relations changed and how.
#[derive(Debug, Clone)]
struct IncrementalState {
    /// `facts.len()` at the last refresh; facts registered past this
    /// watermark are pending insertions.
    watermark: usize,
    /// Relations touched by [`Session::retract_facts`] since the last
    /// refresh.
    retracted: BTreeSet<String>,
    /// Effective probability of each fact in `facts[..watermark]` at the
    /// last refresh, used to detect [`Session::set_fact_probability`] calls
    /// made between refreshes.
    probs: Vec<f64>,
    /// The materialized database's output relations, decoded: what the last
    /// [`Session::run_incremental`] returned, and shares with that result.
    /// A refresh brings it up to date from what `refresh_database` reports
    /// instead of decoding the database again — an insertion decodes its Δ
    /// rows and merges them in, in place unless a caller still holds an
    /// earlier result (then that relation's rows are copied first, so a
    /// result never changes after it was returned); a relation the refresh
    /// left alone is not looked at.
    view: OutputView,
}

/// The result of one Lobster run: for every queried relation, the derived
/// tuples with their output probability and gradient.
///
/// `RunResult` is provenance-erased — outputs are plain probabilities and
/// sparse gradients whatever semiring produced them.
#[derive(Debug, Clone)]
pub struct RunResult {
    outputs: OutputView,
    /// Execution statistics (iterations, kernels, elapsed time).
    pub stats: ExecutionStats,
    symbols: SymbolTable,
}

impl RunResult {
    /// Names of the relations captured in this result.
    pub fn relations(&self) -> Vec<&str> {
        self.outputs.keys().map(String::as_str).collect()
    }

    /// The derived tuples of a relation with their outputs.
    pub fn relation(&self, name: &str) -> &[(Tuple, Output)] {
        self.outputs.get(name).map_or(&[], |rows| rows.as_slice())
    }

    /// Number of derived tuples in a relation.
    pub fn len(&self, name: &str) -> usize {
        self.relation(name).len()
    }

    /// `true` when the relation derived no tuples.
    pub fn is_empty(&self, name: &str) -> bool {
        self.relation(name).is_empty()
    }

    /// Whether a specific tuple was derived.
    pub fn contains(&self, name: &str, tuple: &[Value]) -> bool {
        self.relation(name)
            .iter()
            .any(|(t, _)| t.as_slice() == tuple)
    }

    /// The probability of a derived tuple (0 when it was not derived).
    pub fn probability(&self, name: &str, tuple: &[Value]) -> f64 {
        self.relation(name)
            .iter()
            .find(|(t, _)| t.as_slice() == tuple)
            .map(|(_, o)| o.probability)
            .unwrap_or(0.0)
    }

    /// The gradient of a derived tuple's probability with respect to input
    /// facts (empty when the tuple was not derived or the provenance is not
    /// differentiable).
    pub fn gradient(&self, name: &str, tuple: &[Value]) -> Vec<(InputFactId, f64)> {
        self.relation(name)
            .iter()
            .find(|(t, _)| t.as_slice() == tuple)
            .map(|(_, o)| o.gradient.clone())
            .unwrap_or_default()
    }

    /// Resolves an interned symbol id back to its string. The returned
    /// handle shares the symbol table's storage (no allocation per call).
    pub fn resolve_symbol(&self, value: &Value) -> Option<std::sync::Arc<str>> {
        match value {
            Value::Symbol(id) => self.symbols.resolve(*id),
            _ => None,
        }
    }

    /// Rewrites the id of every gradient entry through `f`, dropping entries
    /// for which `f` returns `None`.
    ///
    /// Batched execution registers all samples' facts on one shared
    /// registry, so raw gradient ids are batch-relative; a serving layer
    /// that knows where each request's facts landed uses this to translate
    /// them into request-local ids (and to drop entries that point at other
    /// requests' facts).
    pub fn map_gradient_ids(&mut self, mut f: impl FnMut(InputFactId) -> Option<InputFactId>) {
        for rows in self.outputs.values_mut() {
            for (_, output) in Arc::make_mut(rows).iter_mut() {
                output.gradient = std::mem::take(&mut output.gradient)
                    .into_iter()
                    .filter_map(|(id, g)| f(id).map(|id| (id, g)))
                    .collect();
            }
        }
    }
}

/// What the engine reads of a session. A field-by-field borrow, so that
/// `engine` can be borrowed mutably beside it.
macro_rules! session_facts {
    ($session:expr) => {
        SessionFacts {
            program: &$session.program,
            registry: &$session.registry,
            facts: &$session.facts,
        }
    };
}

/// Cheap per-request state over a shared [`Program`]: this request's input
/// facts and their registry.
///
/// Open with [`Program::session`], feed facts with [`Session::add_fact`],
/// execute with [`Session::run`] (or [`Session::run_batch`] for a
/// mini-batch). Probabilities of registered facts can be updated between
/// runs with [`Session::set_fact_probability`], which is how a training loop
/// feeds new network outputs to the same symbolic program.
#[derive(Debug)]
pub struct Session {
    program: Program,
    registry: InputFactRegistry,
    facts: Vec<RegisteredFact>,
    /// Recycled fork registries for [`Session::run_batch`]: each batched run
    /// forks the session registry, and reusing a previous run's fork turns
    /// that per-batch allocation into an in-place copy. A small pool (rather
    /// than one slot) because `run_batch` takes `&self` and may run
    /// concurrently from several threads.
    batch_forks: Mutex<Vec<InputFactRegistry>>,
    /// The program's semiring bound to `registry` — the only part of a
    /// session that knows which semiring it is — and, while `incremental`
    /// is `Some`, the materialized database.
    engine: Box<dyn AnyEngine>,
    /// Change-detection state kept across [`Session::run_incremental`]
    /// calls; `None` until the first incremental run.
    incremental: Option<IncrementalState>,
}

impl Clone for Session {
    fn clone(&self) -> Self {
        Session {
            program: self.program.clone(),
            registry: self.registry.clone(),
            facts: self.facts.clone(),
            // Scratch registries are per-instance recycling state, not
            // session state — the clone starts with none.
            batch_forks: Mutex::new(Vec::new()),
            engine: self.engine.boxed_clone(),
            incremental: self.incremental.clone(),
        }
    }
}

impl Session {
    /// Creates a session and pre-registers the program's inline facts (which
    /// were validated at compile time).
    pub(crate) fn new(program: Program) -> Self {
        let registry = InputFactRegistry::new();
        let facts = program
            .artifact
            .compiled
            .facts
            .iter()
            .map(|fact| RegisteredFact {
                relation: fact.relation.clone(),
                values: fact.values.clone(),
                id: registry.register(fact.probability, None),
                probabilistic: fact.probability.is_some(),
            })
            .collect();
        Session {
            engine: engine::bind(program.kind(), &registry),
            program,
            registry,
            facts,
            batch_forks: Mutex::new(Vec::new()),
            incremental: None,
        }
    }

    /// The program this session runs.
    pub fn program(&self) -> &Program {
        &self.program
    }

    fn result(&self, outputs: OutputView, stats: ExecutionStats) -> RunResult {
        RunResult {
            outputs,
            stats,
            symbols: self.program.artifact.compiled.symbols.clone(),
        }
    }

    /// Registers an input fact.
    ///
    /// # Errors
    ///
    /// Returns [`LobsterError::BadFact`] for an unknown relation, an arity
    /// mismatch, or a value that is not of its column's type.
    pub fn add_fact(
        &mut self,
        relation: &str,
        values: &[Value],
        prob: Option<f64>,
    ) -> Result<InputFactId, LobsterError> {
        self.add_fact_with_exclusion(relation, values, prob, None)
    }

    /// Registers an input fact belonging to a mutual-exclusion group.
    ///
    /// # Errors
    ///
    /// See [`Session::add_fact`].
    pub fn add_fact_with_exclusion(
        &mut self,
        relation: &str,
        values: &[Value],
        prob: Option<f64>,
        exclusion: Option<u32>,
    ) -> Result<InputFactId, LobsterError> {
        self.program.check_fact(relation, values)?;
        Ok(self.register(relation, values, prob, exclusion))
    }

    /// Registers a fact that [`Program::check_fact`] accepted.
    fn register(
        &mut self,
        relation: &str,
        values: &[Value],
        prob: Option<f64>,
        exclusion: Option<u32>,
    ) -> InputFactId {
        let id = self.registry.register(prob, exclusion);
        self.facts.push(RegisteredFact {
            relation: relation.to_string(),
            values: values.to_vec(),
            id,
            probabilistic: prob.is_some(),
        });
        id
    }

    /// Updates the probability of an already registered fact (used between
    /// training iterations).
    pub fn set_fact_probability(&self, id: InputFactId, prob: f64) {
        self.registry.set_prob(id, prob);
    }

    /// Number of registered facts.
    pub fn fact_count(&self) -> usize {
        self.facts.len()
    }

    /// Runs the program against this session's facts.
    ///
    /// # Errors
    ///
    /// Returns a [`LobsterError::Execution`] on device OOM or timeout.
    pub fn run(&self) -> Result<RunResult, LobsterError> {
        let (outputs, stats) = self.engine.run(session_facts!(self))?;
        Ok(self.result(outputs, stats))
    }

    /// The effective probability of a registered fact (1.0 when the fact is
    /// not probabilistic), as used for incremental change detection.
    fn fact_prob(&self, fact: &RegisteredFact) -> f64 {
        if fact.probabilistic {
            self.registry.prob(fact.id)
        } else {
            1.0
        }
    }

    fn fact_probs(&self) -> Vec<f64> {
        self.facts.iter().map(|f| self.fact_prob(f)).collect()
    }

    /// Registers every fact of `facts` as a pending insertion and returns
    /// their ids (in `facts` order). The whole set is validated before
    /// anything registers, so a bad fact never leaves a half-applied delta.
    ///
    /// Insertions take effect at the next run: [`Session::run`] always sees
    /// the current facts, and [`Session::run_incremental`] propagates them
    /// through the materialized fix point as a delta.
    ///
    /// # Errors
    ///
    /// Returns [`LobsterError::BadFact`] as [`Session::add_fact`] does; no
    /// fact of the set is registered in that case.
    pub fn insert_facts(&mut self, facts: &FactSet) -> Result<Vec<InputFactId>, LobsterError> {
        self.program.validate_facts(facts)?;
        Ok(facts
            .facts()
            .map(|(relation, values, prob, exclusion)| {
                self.register(relation, values, prob, exclusion)
            })
            .collect())
    }

    /// Removes previously registered facts by id and returns how many were
    /// actually removed. Retracting an unknown or already-retracted id is a
    /// no-op.
    ///
    /// The registry is left untouched: retracted ids are never reused, so
    /// the ids (and therefore the gradients and proofs) of surviving facts
    /// keep their meaning across retractions. The removal takes effect at
    /// the next run; [`Session::run_incremental`] re-derives the affected
    /// strata from the surviving support (delete/re-derive).
    pub fn retract_facts(&mut self, ids: &[InputFactId]) -> usize {
        let mut removed = 0;
        for id in ids {
            let Some(pos) = self.facts.iter().position(|f| f.id == *id) else {
                continue;
            };
            let fact = self.facts.remove(pos);
            removed += 1;
            if let Some(state) = self.incremental.as_mut() {
                state.retracted.insert(fact.relation);
                if pos < state.watermark {
                    state.watermark -= 1;
                    state.probs.remove(pos);
                }
            }
        }
        removed
    }

    /// `true` when the session holds a materialized fix point from a
    /// previous [`Session::run_incremental`] call.
    pub fn is_materialized(&self) -> bool {
        self.incremental.is_some()
    }

    /// Runs the program incrementally.
    ///
    /// The first call materializes: it runs from scratch (exactly like
    /// [`Session::run`]) and keeps the resulting database. Subsequent calls
    /// re-evaluate only what the facts registered, retracted, or reweighted
    /// since the previous call can affect:
    ///
    /// * nothing changed — the stored outputs are returned without
    ///   launching a single kernel;
    /// * insert-only changes under a
    ///   [`delta_exact`](lobster_provenance::Provenance::delta_exact)
    ///   provenance — recursive strata propagate the new rows tuple-level
    ///   with semi-naive delta rules, so cost scales with |Δ| and its
    ///   derivation cone, not |DB|;
    /// * retractions, probability updates, or richer provenances — the
    ///   affected strata (and only those) are re-derived from the surviving
    ///   EDB support, replaying exactly what a from-scratch run would do.
    ///
    /// In every case the resulting state — tuples *and* tags, including
    /// proofs and gradients — is bit-identical to [`Session::run`] on the
    /// same session. The returned statistics cover only the work of this
    /// call.
    ///
    /// The result shares its rows with the session, which keeps them
    /// current by delta: an insertion decodes only the rows it added and
    /// merges them in, an output relation the change did not reach is not
    /// decoded at all. A result never changes after it was returned — if
    /// one is still alive when the next insertion arrives, the session
    /// copies that relation's rows before it patches them — so dropping a
    /// result before the next update is what keeps updates O(|Δ|).
    ///
    /// # Errors
    ///
    /// Returns a [`LobsterError::Execution`] on device OOM or timeout. The
    /// materialized state is dropped then (the refresh stopped part-way),
    /// and the next call materializes afresh.
    pub fn run_incremental(&mut self) -> Result<RunResult, LobsterError> {
        let Some(mut state) = self.incremental.take() else {
            return self.materialize();
        };

        // Host-side dirty detection: retractions, probability updates, and
        // facts registered past the watermark.
        let mut rebuild = std::mem::take(&mut state.retracted);
        let mut reweighted = false;
        for (fact, old) in self.facts[..state.watermark].iter().zip(&state.probs) {
            if self.fact_prob(fact) != *old {
                rebuild.insert(fact.relation.clone());
                reweighted = true;
            }
        }

        let stats = if rebuild.is_empty() && state.watermark == self.facts.len() {
            // Empty delta: serve straight from the materialized fix point —
            // all checks above are host-side, so zero kernels launch, and
            // the view is current, so nothing is decoded.
            ExecutionStats::default()
        } else {
            let refreshed = self.engine.refresh(
                session_facts!(self),
                state.watermark,
                rebuild,
                reweighted,
                &mut state.view,
            );
            // A refresh that failed stopped part-way: `state` is not put
            // back and the database goes with it, so the next call
            // materializes afresh.
            let stats = refreshed.map_err(|e| {
                self.engine.dematerialize();
                e
            })?;
            state.watermark = self.facts.len();
            state.probs = self.fact_probs();
            stats
        };
        let result = self.result(state.view.clone(), stats);
        self.incremental = Some(state);
        Ok(result)
    }

    /// First [`Session::run_incremental`] call: run from scratch and keep
    /// the database.
    fn materialize(&mut self) -> Result<RunResult, LobsterError> {
        let (view, stats) = self.engine.materialize(session_facts!(self))?;
        self.incremental = Some(IncrementalState {
            watermark: self.facts.len(),
            retracted: BTreeSet::new(),
            probs: self.fact_probs(),
            view: view.clone(),
        });
        Ok(self.result(view, stats))
    }

    /// Runs a whole batch of samples in a single execution using the batched
    /// evaluation of Section 4.3: a sample-id column is prepended to every
    /// relation so all samples share one database and one fix-point run.
    ///
    /// The session's own facts (inline program facts included) are shared by
    /// every sample. Registration of the per-sample facts is scoped to this
    /// call: the session registry is *forked*, the samples' facts are
    /// registered on the fork in order (sample 0's facts first, then sample
    /// 1's, …), and the fork is dropped with the call — repeated batches
    /// never grow the session registry.
    ///
    /// Returns one [`RunResult`] per sample, in order. Each result carries
    /// the statistics of the shared batched execution; gradient entries
    /// refer to fact ids in the order described above.
    ///
    /// # Errors
    ///
    /// Returns a [`LobsterError`] on bad facts or execution failure.
    pub fn run_batch(&self, samples: &[FactSet]) -> Result<Vec<RunResult>, LobsterError> {
        // Validate everything up front so no sample registers anything for
        // a batch that then aborts half-built.
        for facts in samples {
            self.program.validate_facts(facts)?;
        }
        self.run_batch_refs_prevalidated(&samples.iter().collect::<Vec<_>>())
    }

    /// [`Session::run_batch`] over borrowed, **already validated** samples —
    /// lets the sharded executor, which validates the whole batch once up
    /// front, run each (possibly non-contiguous, possibly retried) chunk
    /// without cloning any fact set or re-walking the schema checks.
    ///
    /// Unknown relations or arity mismatches in `samples` panic inside the
    /// database layer instead of surfacing as [`LobsterError::BadFact`]; the
    /// caller owns the validation.
    pub(crate) fn run_batch_refs_prevalidated(
        &self,
        samples: &[&FactSet],
    ) -> Result<Vec<RunResult>, LobsterError> {
        // Scope all registration to this run: per-sample facts go into a
        // fork of the session registry. The fork itself is recycled — a
        // previous run's fork registry is reforked in place when one is
        // idle — so steady-state batches allocate no fresh registry.
        let fork = self
            .batch_forks
            .lock()
            .expect("session fork pool poisoned")
            .pop()
            .unwrap_or_default();
        fork.refork_from(&self.registry);
        let outcome = self.engine.run_batch(session_facts!(self), &fork, samples);
        // Results are registry-free (plain probabilities and gradients), so
        // with the run's database and rebound provenance gone the fork has
        // no other owner and can be recycled for the next batch.
        self.batch_forks
            .lock()
            .expect("session fork pool poisoned")
            .push(fork);
        let (per_sample, stats) = outcome?;
        Ok(per_sample
            .into_iter()
            .map(|outputs| self.result(outputs, stats.clone()))
            .collect())
    }
}

/// Merges `added` into `rows` in place so that `added[i]` ends up at index
/// `positions[i]` (ascending) of the result. Works from the back, so every
/// old row after the first insertion point moves once and none before it
/// moves at all; nothing is allocated beyond the growth of `rows` itself.
pub(crate) fn splice_at<T: Default>(rows: &mut Vec<T>, mut added: Vec<T>, positions: &[usize]) {
    debug_assert_eq!(added.len(), positions.len());
    // `read..write` is the gap: default-valued slots between the old rows
    // still to move and the part of the result already in place.
    let mut read = rows.len();
    rows.resize_with(read + added.len(), T::default);
    let mut write = rows.len();
    while let Some(row) = added.pop() {
        let at = positions[added.len()];
        while write - 1 > at {
            write -= 1;
            read -= 1;
            rows.swap(write, read);
        }
        write -= 1;
        rows[write] = row;
    }
    debug_assert_eq!(read, write, "positions do not describe a merge");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Lobster;
    use lobster_apm::Executor;
    use lobster_provenance::{ProvenanceKind, Unit};

    const TC: &str = "type edge(x: u32, y: u32)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";

    #[test]
    fn one_program_serves_many_independent_sessions() {
        let program = Program::compile(TC, ProvenanceKind::Unit).unwrap();
        let mut a = program.session();
        let mut b = program.session();
        a.add_fact("edge", &[Value::U32(0), Value::U32(1)], None)
            .unwrap();
        a.add_fact("edge", &[Value::U32(1), Value::U32(2)], None)
            .unwrap();
        b.add_fact("edge", &[Value::U32(7), Value::U32(8)], None)
            .unwrap();
        let ra = a.run().unwrap();
        let rb = b.run().unwrap();
        assert_eq!(ra.len("path"), 3);
        assert_eq!(rb.len("path"), 1);
        // Sessions do not share registries: both start their ids at 0.
        assert_eq!(a.registry.len(), 2);
        assert_eq!(b.registry.len(), 1);
    }

    #[test]
    fn repeated_batches_do_not_grow_the_session_registry() {
        let program = Program::compile(TC, ProvenanceKind::DiffTop1Proof).unwrap();
        let session = program.session();
        let mut sample = FactSet::new();
        sample.add("edge", &[Value::U32(0), Value::U32(1)], Some(0.5));
        let before = session.registry.len();
        for _ in 0..10 {
            session.run_batch(std::slice::from_ref(&sample)).unwrap();
        }
        // The seed design registered one fresh id per sample per call into
        // the shared registry; the session-scoped design registers into a
        // per-call fork.
        assert_eq!(session.registry.len(), before);
    }

    #[test]
    fn sessions_over_shared_programs_compute_gradients() {
        let program = Program::compile(TC, ProvenanceKind::DiffTop1Proof).unwrap();
        let mut session = program.session();
        let e01 = session
            .add_fact("edge", &[Value::U32(0), Value::U32(1)], Some(0.9))
            .unwrap();
        let e12 = session
            .add_fact("edge", &[Value::U32(1), Value::U32(2)], Some(0.5))
            .unwrap();
        let result = session.run().unwrap();
        let target = [Value::U32(0), Value::U32(2)];
        assert!((result.probability("path", &target) - 0.45).abs() < 1e-9);
        let grad: BTreeMap<_, _> = result.gradient("path", &target).into_iter().collect();
        assert!((grad[&e01] - 0.5).abs() < 1e-9);
        assert!((grad[&e12] - 0.9).abs() < 1e-9);
    }

    #[test]
    fn probabilities_update_between_runs() {
        let program = Program::compile(TC, ProvenanceKind::DiffTop1Proof).unwrap();
        let mut session = program.session();
        let e01 = session
            .add_fact("edge", &[Value::U32(0), Value::U32(1)], Some(0.5))
            .unwrap();
        let before = session
            .run()
            .unwrap()
            .probability("path", &[Value::U32(0), Value::U32(1)]);
        session.set_fact_probability(e01, 0.25);
        let after = session
            .run()
            .unwrap()
            .probability("path", &[Value::U32(0), Value::U32(1)]);
        assert!((before - 0.5).abs() < 1e-9);
        assert!((after - 0.25).abs() < 1e-9);
    }

    #[test]
    fn sessions_can_run_concurrently_from_threads() {
        let program = Program::compile(TC, ProvenanceKind::Unit).unwrap();
        let handles: Vec<_> = (0..4u32)
            .map(|i| {
                let program = program.clone();
                std::thread::spawn(move || {
                    let mut session = program.session();
                    session
                        .add_fact("edge", &[Value::U32(i), Value::U32(i + 1)], None)
                        .unwrap();
                    session.run().unwrap().len("path")
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), 1);
        }
    }

    #[test]
    fn bad_facts_are_rejected() {
        let program = Program::compile(TC, ProvenanceKind::Unit).unwrap();
        let mut session = program.session();
        assert!(matches!(
            session.add_fact("ghost", &[Value::U32(0)], None),
            Err(LobsterError::BadFact { .. })
        ));
        assert!(matches!(
            session.add_fact("edge", &[Value::U32(0)], None),
            Err(LobsterError::BadFact { .. })
        ));
    }

    #[test]
    fn a_mistyped_value_is_refused_at_every_entry_point() {
        // `edge` is `(u32, u32)`. Unchecked, 2^40 reaches the packed column
        // store: a debug build panics there, a release build keeps the low
        // 32 bits and derives `path(0, 1)` — a different fact.
        let program = Program::compile(TC, ProvenanceKind::Unit).unwrap();
        let wide = [Value::I64(1 << 40), Value::U32(1)];
        let is_bad_fact = |e: LobsterError| matches!(e, LobsterError::BadFact { .. });

        let mut session = program.session();
        assert!(is_bad_fact(
            session.add_fact("edge", &wide, None).unwrap_err()
        ));
        assert!(is_bad_fact(
            session
                .add_fact("edge", &[Value::F64(0.5), Value::U32(1)], None)
                .unwrap_err()
        ));
        let mut facts = edge(0, 1);
        facts.add("edge", &wide, None);
        assert!(is_bad_fact(session.insert_facts(&facts).unwrap_err()));
        // Nothing registered, the good fact ahead of the bad one included.
        assert_eq!(session.fact_count(), 0);
        assert!(is_bad_fact(
            session.run_batch(&[edge(0, 1), facts.clone()]).unwrap_err()
        ));
        assert!(is_bad_fact(program.run_batch(&[facts]).unwrap_err()));
        assert!(session.run().unwrap().is_empty("path"));
    }

    #[test]
    fn concurrent_batches_on_one_session_each_get_their_own_fork() {
        let program = Program::compile(TC, ProvenanceKind::DiffTop1Proof).unwrap();
        let session = std::sync::Arc::new(program.session());
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let session = std::sync::Arc::clone(&session);
                std::thread::spawn(move || {
                    for _ in 0..8 {
                        let mut sample = FactSet::new();
                        sample.add("edge", &[Value::U32(t), Value::U32(t + 1)], Some(0.5));
                        let results = session.run_batch(std::slice::from_ref(&sample)).unwrap();
                        let p = results[0].probability("path", &[Value::U32(t), Value::U32(t + 1)]);
                        assert!((p - 0.5).abs() < 1e-9);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        // The recycled forks never leak registrations back into the session.
        assert_eq!(session.registry.len(), 0);
    }

    #[test]
    fn a_run_records_one_transfer_each_way() {
        // Two strata, so a per-stratum transfer would show up as a count.
        let program = Lobster::builder(
            "type edge(x: u32, y: u32)
             type is_endpoint(x: u32)
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
             rel connected() = is_endpoint(x), is_endpoint(y), path(x, y), x != y
             query connected",
        )
        .device(lobster_gpu::Device::sequential())
        .provenance(ProvenanceKind::Unit)
        .compile()
        .unwrap();
        let facts: Vec<(&str, Vec<Value>)> = [(0u32, 1u32), (1, 2), (2, 3)]
            .iter()
            .map(|&(a, b)| ("edge", vec![Value::U32(a), Value::U32(b)]))
            .chain([0, 3].map(|n| ("is_endpoint", vec![Value::U32(n)])))
            .collect();

        // The same database built by hand: its size sealed, and at the fix
        // point, is what the run must report moving.
        let device = lobster_gpu::Device::sequential();
        let mut db = engine::new_database(Unit::new(), program.ram());
        for (relation, values) in &facts {
            db.insert(relation, values, ());
        }
        db.seal(&device);
        let sealed_bytes = db.size_bytes();
        Executor::new(device, Unit::new(), program.options().clone())
            .run_program(&mut db, program.ram())
            .unwrap();
        let fix_point_bytes = db.size_bytes();
        assert!(fix_point_bytes > sealed_bytes);

        let mut session = program.session();
        for (relation, values) in &facts {
            session.add_fact(relation, values, None).unwrap();
        }
        assert_eq!(session.run().unwrap().len("connected"), 1);
        let moved = program.device().stats();
        assert_eq!(moved.transfers, 2);
        assert_eq!(moved.bytes_to_device, sealed_bytes);
        assert_eq!(moved.bytes_to_host, fix_point_bytes);
    }

    #[test]
    fn inline_facts_are_preregistered() {
        let program = Lobster::builder(
            "type edge(x: u32, y: u32)
             rel edge = {(0, 1), 0.5::(1, 2)}
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
             query path",
        )
        .provenance(ProvenanceKind::AddMultProb)
        .compile()
        .unwrap();
        let session = program.session();
        assert_eq!(session.fact_count(), 2);
        let result = session.run().unwrap();
        assert_eq!(result.len("path"), 3);
        assert!((result.probability("path", &[Value::U32(0), Value::U32(2)]) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn splice_at_puts_every_added_row_where_it_is_told() {
        // Every way of choosing which slots of the result are new.
        for len in 0..7usize {
            for mask in 0u32..1 << len {
                let result: Vec<u32> = (0..len as u32).collect();
                let is_new = |i: &usize| mask & (1 << i) != 0;
                let positions: Vec<usize> = (0..len).filter(is_new).collect();
                let added: Vec<u32> = positions.iter().map(|&i| result[i]).collect();
                let mut rows: Vec<u32> =
                    (0..len).filter(|i| !is_new(i)).map(|i| result[i]).collect();
                splice_at(&mut rows, added, &positions);
                assert_eq!(rows, result, "mask {mask:#b}");
            }
        }
    }

    fn edge(x: u32, y: u32) -> FactSet {
        let mut facts = FactSet::new();
        facts.add("edge", &[Value::U32(x), Value::U32(y)], None);
        facts
    }

    #[test]
    fn a_held_result_keeps_its_rows_across_an_insert() {
        let program = Program::compile(TC, ProvenanceKind::Unit).unwrap();
        let mut session = program.session();
        session.insert_facts(&edge(1, 2)).unwrap();
        session.insert_facts(&edge(2, 3)).unwrap();
        let held = session.run_incremental().unwrap();
        let before = held.relation("path").to_vec();
        assert_eq!(before.len(), 3);

        // The session shares the rows with `held`, so the insert must copy
        // them before it patches — and the empty-delta call after it hands
        // out the patched rows, not a fresh decode.
        session.insert_facts(&edge(0, 1)).unwrap();
        let grown = session.run_incremental().unwrap();
        assert_eq!(held.relation("path"), before);
        assert_eq!(grown.len("path"), 6);
        assert_eq!(
            grown.relation("path"),
            session.run().unwrap().relation("path")
        );
        let again = session.run_incremental().unwrap();
        assert_eq!(again.stats.kernel_launches, 0);
        assert!(std::ptr::eq(again.relation("path"), grown.relation("path")));
    }

    #[test]
    fn a_cloned_session_patches_its_own_copy_of_the_view() {
        let program = Program::compile(TC, ProvenanceKind::Unit).unwrap();
        let mut original = program.session();
        original.insert_facts(&edge(1, 2)).unwrap();
        original.run_incremental().unwrap();
        let mut clone = original.clone();
        clone.insert_facts(&edge(2, 3)).unwrap();
        assert_eq!(clone.run_incremental().unwrap().len("path"), 3);
        // The original neither sees the clone's rows nor lost its own.
        assert_eq!(original.run_incremental().unwrap().len("path"), 1);
        original.insert_facts(&edge(0, 1)).unwrap();
        let result = original.run_incremental().unwrap();
        assert_eq!(
            result.relation("path"),
            original.run().unwrap().relation("path")
        );
        assert_eq!(result.len("path"), 3);
        assert!(!result.contains("path", &[Value::U32(2), Value::U32(3)]));
    }

    #[test]
    fn a_failed_refresh_drops_the_materialized_state() {
        // Four edges close in five iterations; the edge put in front of them
        // needs a sixth to find that nothing follows its last path.
        let program = Lobster::builder(TC)
            .options(lobster_apm::RuntimeOptions {
                max_iterations: 5,
                ..lobster_apm::RuntimeOptions::default()
            })
            .provenance(ProvenanceKind::Unit)
            .compile()
            .unwrap();
        let mut session = program.session();
        for i in 1..5 {
            session.insert_facts(&edge(i, i + 1)).unwrap();
        }
        assert_eq!(session.run_incremental().unwrap().len("path"), 10);
        let front = session.insert_facts(&edge(0, 1)).unwrap();
        assert!(matches!(
            session.run_incremental(),
            Err(LobsterError::Execution(_))
        ));
        // The database stopped part-way through the refresh, so it is gone:
        // the next call starts over instead of refreshing a half-done state.
        assert!(!session.is_materialized());
        session.retract_facts(&front);
        let result = session.run_incremental().unwrap();
        assert!(session.is_materialized());
        assert_eq!(
            result.relation("path"),
            session.run().unwrap().relation("path")
        );
        assert_eq!(result.len("path"), 10);
    }
}
