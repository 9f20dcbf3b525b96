//! Where a session's provenance semiring is bound.
//!
//! [`Program`] and [`Session`](crate::Session) are plain types: the semiring
//! is a [`ProvenanceKind`] the program carries, not a type parameter.
//! Everything above this module — facts, registry, change detection, pools,
//! shard workers — is the same code for every semiring. A semiring is
//! *used* in exactly three calls — a from-scratch run, a batched run, an
//! incremental run — and those three go through the [`AnyEngine`] a session
//! owns: one dynamic dispatch per call into an [`Engine<P>`] that holds the
//! provenance instance (and, once materialized, the `Database<P>`) and
//! drives the generic `lobster_apm` executor, so every inner loop below
//! that one call stays monomorphised.
//!
//! [`bind`] is the one place the eight kinds are enumerated.

use crate::error::LobsterError;
use crate::program::Program;
use crate::session::{splice_at, FactSet, OutputView, RegisteredFact};
use lobster_apm::{
    refresh_database, Database, EdbContent, EncodingSpec, ExecutionStats, Executor, RelationChange,
};
use lobster_gpu::{Columns, Device, TransferDirection};
use lobster_provenance::{
    AddMultProb, Boolean, DiffAddMultProb, DiffMaxMinProb, DiffTop1Proof, InputFactRegistry,
    MaxMinProb, Provenance, ProvenanceKind, SessionProvenance, Top1Proof, Unit,
};
use lobster_ram::{RamProgram, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The engine of a fresh session over `registry`: the semiring `kind` names,
/// bound to that registry, behind the erased interface.
pub(crate) fn bind(kind: ProvenanceKind, registry: &InputFactRegistry) -> Box<dyn AnyEngine> {
    fn engine<P: SessionProvenance>(registry: &InputFactRegistry) -> Box<dyn AnyEngine> {
        Box::new(Engine {
            provenance: P::bind(registry.clone()),
            db: None,
        })
    }
    match kind {
        ProvenanceKind::Unit => engine::<Unit>(registry),
        ProvenanceKind::Boolean => engine::<Boolean>(registry),
        ProvenanceKind::MaxMinProb => engine::<MaxMinProb>(registry),
        ProvenanceKind::AddMultProb => engine::<AddMultProb>(registry),
        ProvenanceKind::Top1Proof => engine::<Top1Proof>(registry),
        ProvenanceKind::DiffMaxMinProb => engine::<DiffMaxMinProb>(registry),
        ProvenanceKind::DiffAddMultProb => engine::<DiffAddMultProb>(registry),
        ProvenanceKind::DiffTop1Proof => engine::<DiffTop1Proof>(registry),
    }
}

/// The semiring-free state of a session, as the engine reads it.
#[derive(Clone, Copy)]
pub(crate) struct SessionFacts<'a> {
    pub(crate) program: &'a Program,
    pub(crate) registry: &'a InputFactRegistry,
    pub(crate) facts: &'a [RegisteredFact],
}

/// What a session asks of its semiring, with the semiring erased. Results
/// are decoded rows ([`OutputView`]) — plain probabilities and gradients
/// whatever semiring produced them.
pub(crate) trait AnyEngine: std::fmt::Debug + Send + Sync {
    /// `Clone`, object-safe. The clone's provenance stays bound to the
    /// registry this engine was bound to (registries are shared handles).
    fn boxed_clone(&self) -> Box<dyn AnyEngine>;

    /// Runs the program from scratch against the session's facts.
    fn run(&self, session: SessionFacts<'_>) -> Result<(OutputView, ExecutionStats), LobsterError>;

    /// Runs `samples` in one batched fix point, their facts registered on
    /// `fork` (a fork of the session registry) in sample order. One view per
    /// sample. The samples must already be validated: an unknown relation or
    /// arity mismatch panics inside the database layer.
    fn run_batch(
        &self,
        session: SessionFacts<'_>,
        fork: &InputFactRegistry,
        samples: &[&FactSet],
    ) -> Result<(Vec<OutputView>, ExecutionStats), LobsterError>;

    /// Runs from scratch like [`AnyEngine::run`] and keeps the database for
    /// [`AnyEngine::refresh`].
    fn materialize(
        &mut self,
        session: SessionFacts<'_>,
    ) -> Result<(OutputView, ExecutionStats), LobsterError>;

    /// Brings the kept database and `view`, its decoded outputs, up to date:
    /// `session.facts[watermark..]` are new since the last refresh, the
    /// relations in `rebuild` lost a fact or had one reweighted
    /// (`reweighted`) — not both empty. After an error the database is
    /// part-way through the refresh and must be dropped.
    fn refresh(
        &mut self,
        session: SessionFacts<'_>,
        watermark: usize,
        rebuild: BTreeSet<String>,
        reweighted: bool,
        view: &mut OutputView,
    ) -> Result<ExecutionStats, LobsterError>;

    /// Drops the kept database, if any.
    fn dematerialize(&mut self);
}

/// A provenance instance bound to its session's registry, and the
/// materialized database of that session once
/// [`Session::run_incremental`](crate::Session::run_incremental) made one.
#[derive(Debug, Clone)]
struct Engine<P: SessionProvenance> {
    provenance: P,
    /// EDB facts plus every derived relation at the fix point.
    db: Option<Database<P>>,
}

/// Creates the database a run of `ram` executes against: narrow
/// dictionary-encoded storage when the program is eligible, full-width
/// otherwise.
///
/// Eligibility: programs applying arithmetic to `Symbol`/`Bool` operands
/// (the `symbol-arithmetic` lint) treat raw interner ids as numbers, so
/// their results are not invariant under re-encoding — they get
/// full-width storage. Programs with `u32` arithmetic stay encoded but
/// keep `u32` lanes at word width (see
/// `lobster_ram::RelationLayout::plan`).
pub(crate) fn new_database<P: Provenance>(provenance: P, ram: &RamProgram) -> Database<P> {
    if ram.has_symbol_arithmetic() {
        Database::new(ram.schemas.clone(), provenance)
    } else {
        let spec = EncodingSpec {
            symbol_constants: ram.symbol_constants(),
            widen_u32: ram.has_u32_arithmetic(),
        };
        Database::new_encoded(ram.schemas.clone(), provenance, &spec)
    }
}

/// Runs `ram` against the sealed `db` with the given provenance
/// instance. The whole program runs on the device, so the run records
/// one host→device transfer of the input database and one device→host
/// transfer of the fix point (Section 5.3's placement, with nothing left
/// to place while there is a single executor).
fn execute<P: Provenance>(
    program: &Program,
    provenance: &P,
    db: &mut Database<P>,
    ram: &RamProgram,
) -> Result<ExecutionStats, LobsterError> {
    let executor = Executor::new(
        program.device.clone(),
        provenance.clone(),
        program.options.clone(),
    );
    program
        .device
        .record_transfer(TransferDirection::HostToDevice, db.size_bytes());
    let stats = executor.run_program(db, ram)?;
    program
        .device
        .record_transfer(TransferDirection::DeviceToHost, db.size_bytes());
    Ok(stats)
}

/// The tag a registered fact enters the database with.
fn input_tag<P: Provenance>(
    provenance: &P,
    registry: &InputFactRegistry,
    fact: &RegisteredFact,
) -> P::Tag {
    let prob = fact.probabilistic.then(|| registry.prob(fact.id));
    provenance.input_tag(fact.id, prob)
}

/// `values` as a row of sample `sample` in a batched relation, built in `row`.
fn sample_row<'a>(row: &'a mut Vec<Value>, sample: u32, values: &[Value]) -> &'a [Value] {
    row.clear();
    row.push(Value::U32(sample));
    row.extend_from_slice(values);
    row
}

/// Inserts the session's facts in registration order, as they are or — in a
/// batched database — as rows of sample `sample`.
fn load<P: Provenance>(
    db: &mut Database<P>,
    provenance: &P,
    registry: &InputFactRegistry,
    facts: &[RegisteredFact],
    sample: Option<u32>,
) {
    let mut row = Vec::new();
    for fact in facts {
        let tag = input_tag(provenance, registry, fact);
        let values = match sample {
            None => fact.values.as_slice(),
            Some(sample) => sample_row(&mut row, sample, &fact.values),
        };
        db.insert(&fact.relation, values, tag);
    }
}

/// Decodes `relations` of `db`, in stored order.
fn decode<P: Provenance>(provenance: &P, db: &Database<P>, relations: &[String]) -> OutputView {
    relations
        .iter()
        .map(|relation| {
            let rows = db.decode_rows(relation, |tag| provenance.output(tag));
            (relation.clone(), Arc::new(rows))
        })
        .collect()
}

impl<P: SessionProvenance> Engine<P> {
    /// The fix point of the session's facts, from scratch.
    fn fix_point(
        &self,
        session: SessionFacts<'_>,
    ) -> Result<(Database<P>, ExecutionStats), LobsterError> {
        let SessionFacts {
            program,
            registry,
            facts,
        } = session;
        let ram = program.ram();
        let mut db = new_database(self.provenance.clone(), ram);
        load(&mut db, &self.provenance, registry, facts, None);
        db.seal(&program.device);
        let stats = execute(program, &self.provenance, &mut db, ram)?;
        Ok((db, stats))
    }
}

/// Brings `view` up to date with `db` from what the refresh reported about
/// each output relation.
fn patch_view<P: Provenance>(
    provenance: &P,
    device: &Device,
    db: &Database<P>,
    view: &mut OutputView,
    changes: BTreeMap<String, RelationChange<P>>,
) {
    for (relation, change) in changes {
        match change {
            RelationChange::Inserted { rows, positions } => {
                let added = db.decode_table(&relation, &rows, |tag| provenance.output(tag));
                rows.recycle(device);
                let rows = view.get_mut(&relation).expect("an output relation");
                splice_at(Arc::make_mut(rows), added, &positions);
            }
            RelationChange::Rebuilt => {
                // The stale rows go first: unless a caller still holds
                // them they are freed before their replacement is built.
                view.remove(&relation);
                let rows = db.decode_rows(&relation, |tag| provenance.output(tag));
                view.insert(relation, Arc::new(rows));
            }
        }
    }
}

impl<P: SessionProvenance> AnyEngine for Engine<P> {
    fn boxed_clone(&self) -> Box<dyn AnyEngine> {
        Box::new(self.clone())
    }

    fn run(&self, session: SessionFacts<'_>) -> Result<(OutputView, ExecutionStats), LobsterError> {
        let (db, stats) = self.fix_point(session)?;
        let outputs = &session.program.ram().outputs;
        Ok((decode(&self.provenance, &db, outputs), stats))
    }

    fn materialize(
        &mut self,
        session: SessionFacts<'_>,
    ) -> Result<(OutputView, ExecutionStats), LobsterError> {
        let (db, stats) = self.fix_point(session)?;
        let view = decode(&self.provenance, &db, &session.program.ram().outputs);
        self.db = Some(db);
        Ok((view, stats))
    }

    fn dematerialize(&mut self) {
        self.db = None;
    }

    fn refresh(
        &mut self,
        session: SessionFacts<'_>,
        watermark: usize,
        mut rebuild: BTreeSet<String>,
        reweighted: bool,
        view: &mut OutputView,
    ) -> Result<ExecutionStats, LobsterError> {
        let SessionFacts {
            program,
            registry,
            facts,
        } = session;
        let provenance = &self.provenance;
        let delta_ok = rebuild.is_empty() && provenance.delta_exact();
        let mut inserted: BTreeMap<String, EdbContent<P::Tag>> = BTreeMap::new();
        for fact in &facts[watermark..] {
            if delta_ok {
                let (columns, tags) = inserted
                    .entry(fact.relation.clone())
                    .or_insert_with(|| (vec![Vec::new(); fact.values.len()], Vec::new()));
                for (col, value) in columns.iter_mut().zip(&fact.values) {
                    col.push(value.encode());
                }
                tags.push(input_tag(provenance, registry, fact));
            } else {
                rebuild.insert(fact.relation.clone());
            }
        }

        let executor = Executor::new(
            program.device.clone(),
            provenance.clone(),
            program.options.clone(),
        );
        let ram = program.ram();
        // Full EDB content of one relation in fact-registration order — the
        // order `run` inserts facts, so a rebuilt table is bit-identical to
        // a from-scratch seal.
        let edb = |relation: &str| {
            let arity = ram.schemas[relation].arity();
            let mut columns: Columns = vec![Vec::new(); arity];
            let mut tags = Vec::new();
            for fact in facts {
                if fact.relation != relation {
                    continue;
                }
                for (col, value) in columns.iter_mut().zip(&fact.values) {
                    col.push(value.encode());
                }
                tags.push(input_tag(provenance, registry, fact));
            }
            (columns, tags)
        };
        let db = self.db.as_mut().expect("materialized");
        let refreshed = refresh_database(&executor, db, ram, &inserted, &rebuild, &edb)?;
        let mut changes = refreshed.outputs;
        if reweighted {
            // A proof tag reads its facts' probabilities from the
            // registry when it is decoded, so a row can decode
            // differently although no table changed a bit.
            for relation in &ram.outputs {
                changes.insert(relation.clone(), RelationChange::Rebuilt);
            }
        }
        patch_view(provenance, &program.device, db, view, changes);
        debug_assert!(
            *view == decode(provenance, db, &ram.outputs),
            "the view is not what the database decodes to"
        );
        Ok(refreshed.stats)
    }

    fn run_batch(
        &self,
        session: SessionFacts<'_>,
        fork: &InputFactRegistry,
        samples: &[&FactSet],
    ) -> Result<(Vec<OutputView>, ExecutionStats), LobsterError> {
        let SessionFacts { program, facts, .. } = session;
        let batched = &program.artifact.batched;
        // Per-sample facts register on the fork, visible to a provenance
        // instance rebound to it — the session registry never sees them.
        let provenance = self.provenance.rebind(fork.clone());
        let mut db = new_database(provenance.clone(), batched);
        let mut row = Vec::new();
        for (sample, sample_facts) in samples.iter().enumerate() {
            let sample = sample as u32;
            load(&mut db, &provenance, fork, facts, Some(sample));
            for (relation, values, prob, exclusion) in sample_facts.facts() {
                let id = fork.register(prob, exclusion);
                let tag = provenance.input_tag(id, prob);
                db.insert(relation, sample_row(&mut row, sample, values), tag);
            }
        }
        db.seal(&program.device);
        let stats = execute(program, &provenance, &mut db, batched)?;
        // Split the batched outputs back into per-sample results.
        let mut per_sample: Vec<OutputView> = vec![BTreeMap::new(); samples.len()];
        for relation in &batched.outputs {
            for sample_outputs in per_sample.iter_mut() {
                sample_outputs.entry(relation.clone()).or_default();
            }
            for (tuple, out) in db.decode_rows(relation, |tag| provenance.output(tag)) {
                let Some(Value::U32(sample)) = tuple.first().copied() else {
                    continue;
                };
                let sample = sample as usize;
                if sample >= per_sample.len() {
                    continue;
                }
                let mut rest = tuple;
                rest.remove(0);
                let rows = per_sample[sample]
                    .get_mut(relation)
                    .expect("entry initialized above");
                Arc::get_mut(rows)
                    .expect("nothing shares the rows yet")
                    .push((rest, out));
            }
        }
        Ok((per_sample, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Lobster;
    use lobster_apm::RuntimeOptions;
    use lobster_provenance::Output;
    use lobster_ram::Tuple;

    /// A diamond `0 → {1, 2} → 3` whose two routes a semiring family weighs
    /// differently, and an edge of probability zero behind it:
    /// `path(0, 3)` is max(min(.9, .5), min(.6, .7)) = .6 under max-min,
    /// .9·.5 + .6·.7 = .87 under add-mult and max(.45, .42) = .45 as the
    /// most likely proof; of the two discrete kinds `unit` ignores
    /// probabilities and derives `path(3, 4)`, `bool` reads zero as absent and
    /// does not; only the differentiable kinds report gradients.
    const TC: &str = "type edge(x: u32, y: u32)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";
    const EDGES: [(u32, u32, f64); 5] = [
        (0, 1, 0.9),
        (1, 3, 0.5),
        (0, 2, 0.6),
        (2, 3, 0.7),
        (3, 4, 0.0),
    ];

    type Rows = Vec<(Tuple, Output)>;

    /// `path` at the fix point of `EDGES`, from `lobster_apm` parts and the
    /// concrete semiring — no `Program`, no `Session`, no `bind`.
    fn by_hand<P: SessionProvenance>(ram: &RamProgram) -> Rows {
        let registry = InputFactRegistry::new();
        let provenance = P::bind(registry.clone());
        let spec = EncodingSpec {
            symbol_constants: ram.symbol_constants(),
            widen_u32: ram.has_u32_arithmetic(),
        };
        let mut db = Database::new_encoded(ram.schemas.clone(), provenance.clone(), &spec);
        for (x, y, p) in EDGES {
            let id = registry.register(Some(p), None);
            let tag = provenance.input_tag(id, Some(p));
            db.insert("edge", &[Value::U32(x), Value::U32(y)], tag);
        }
        let device = Device::sequential();
        db.seal(&device);
        Executor::new(device, provenance.clone(), RuntimeOptions::default())
            .run_program(&mut db, ram)
            .unwrap();
        db.decode_rows("path", |tag| provenance.output(tag))
    }

    /// A row's tuple, probability bits and gradient bits.
    type RowBits<'a> = (&'a Tuple, u64, Vec<(u32, u64)>);

    /// Tuples, order, probability bits and gradient bits.
    fn bits(rows: &[(Tuple, Output)]) -> Vec<RowBits<'_>> {
        rows.iter()
            .map(|(tuple, out)| {
                let gradient = out.gradient.iter().map(|(id, g)| (id.0, g.to_bits()));
                (tuple, out.probability.to_bits(), gradient.collect())
            })
            .collect()
    }

    #[test]
    fn the_public_types_are_send_and_sync() {
        // A session holds its engine as a trait object: an auto trait lost
        // there must fail here, not three crates later in `lobster-serve`.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Program>();
        assert_send_sync::<crate::Session>();
        assert_send_sync::<crate::ShardedExecutor>();
    }

    #[test]
    fn every_kind_runs_the_semiring_it_names() {
        // Each kind, its semiring by hand, and what `path(0, 3)` weighs.
        type ByHand = fn(&RamProgram) -> Rows;
        let table: [(ProvenanceKind, ByHand, f64); 8] = [
            (ProvenanceKind::Unit, by_hand::<Unit>, 1.0),
            (ProvenanceKind::Boolean, by_hand::<Boolean>, 1.0),
            (ProvenanceKind::MaxMinProb, by_hand::<MaxMinProb>, 0.6),
            (ProvenanceKind::AddMultProb, by_hand::<AddMultProb>, 0.87),
            (ProvenanceKind::Top1Proof, by_hand::<Top1Proof>, 0.45),
            (
                ProvenanceKind::DiffMaxMinProb,
                by_hand::<DiffMaxMinProb>,
                0.6,
            ),
            (
                ProvenanceKind::DiffAddMultProb,
                by_hand::<DiffAddMultProb>,
                0.87,
            ),
            (
                ProvenanceKind::DiffTop1Proof,
                by_hand::<DiffTop1Proof>,
                0.45,
            ),
        ];
        assert_eq!(table.map(|(kind, ..)| kind), ProvenanceKind::ALL);

        let mut sample = FactSet::new();
        for (x, y, p) in EDGES {
            sample.add("edge", &[Value::U32(x), Value::U32(y)], Some(p));
        }
        for (kind, by_hand, weight) in table {
            let program = Lobster::builder(TC)
                .device(Device::sequential())
                .provenance(kind)
                .compile()
                .unwrap();
            assert_eq!(program.kind(), kind);
            let expected = by_hand(program.ram());

            // The three calls that run a semiring agree with it bit for bit.
            let mut session = program.session();
            session.insert_facts(&sample).unwrap();
            let run = session.run().unwrap();
            assert_eq!(bits(run.relation("path")), bits(&expected), "{kind}: run");
            let incremental = session.run_incremental().unwrap();
            assert_eq!(
                bits(incremental.relation("path")),
                bits(&expected),
                "{kind}: run_incremental"
            );
            let batched = program.run_batch(std::slice::from_ref(&sample)).unwrap();
            assert_eq!(
                bits(batched[0].relation("path")),
                bits(&expected),
                "{kind}: run_batch"
            );

            // And the answer tells the semirings apart, so an arm of `bind`
            // wired to another kind's type cannot pass.
            let p = run.probability("path", &[Value::U32(0), Value::U32(3)]);
            assert!((p - weight).abs() < 1e-12, "{kind}: {p}");
            let gradient = run.gradient("path", &[Value::U32(0), Value::U32(3)]);
            assert_eq!(!gradient.is_empty(), kind.is_differentiable(), "{kind}");
            if !kind.is_probabilistic() {
                let dead_end = run.contains("path", &[Value::U32(3), Value::U32(4)]);
                assert_eq!(dead_end, kind == ProvenanceKind::Unit, "{kind}");
            }
        }
    }
}
