//! One run of a program driven through `lobster_apm`'s public calls — load,
//! execute, decode — in place of `DynSession::run` / `run_batch`, so each of
//! the three can be timed on its own. The output must equal the session's.

use crate::trace::{Kind, SpanId, Tracer};
use lobster::{DynProgram, FactSet, Output, ProvenanceKind, RunResult, Value};
use lobster_apm::{compile_stratum_with_options, Database, EncodingSpec, Executor, RuntimeOptions};
use lobster_gpu::Device;
use lobster_provenance::{DiffTop1Proof, InputFactRegistry, MaxMinProb, SessionProvenance, Unit};
use lobster_ram::RamProgram;
use std::collections::BTreeMap;

/// Output relation name to `(tuple, output)` rows, as `RunResult` holds them.
pub type Outputs = BTreeMap<String, Vec<(Vec<Value>, Output)>>;

/// How the facts reach the database: as they are (`DynSession::run`), or as
/// sample 0 of a batch of one over the batch-transformed program
/// (`run_batch`, which is what the scheduler calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Plain,
    BatchOfOne,
}

/// Runs `ram` over `facts`, recording `apm.load`, `apm.execute` (with the
/// per-run stratum compilation it repeats as its child `apm.compile`) and
/// `apm.decode` as replay spans under `parent`.
pub fn replay(
    kind: ProvenanceKind,
    ram: &RamProgram,
    device: &Device,
    facts: &FactSet,
    shape: Shape,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<Outputs, String> {
    match kind {
        ProvenanceKind::Unit => replay_typed::<Unit>(ram, device, facts, shape, tracer, parent),
        ProvenanceKind::MaxMinProb => {
            replay_typed::<MaxMinProb>(ram, device, facts, shape, tracer, parent)
        }
        ProvenanceKind::DiffTop1Proof => {
            replay_typed::<DiffTop1Proof>(ram, device, facts, shape, tracer, parent)
        }
        other => Err(format!("no workload runs under {other}")),
    }
}

fn replay_typed<P: SessionProvenance>(
    ram: &RamProgram,
    device: &Device,
    facts: &FactSet,
    shape: Shape,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<Outputs, String> {
    let options = RuntimeOptions::default();
    let registry = InputFactRegistry::new();
    let provenance = P::bind(registry.clone());

    let (mut db, _) = tracer.time("apm.load", parent, Kind::Replay, || {
        // The same storage choice a session makes: narrow encoded columns
        // unless the program does arithmetic over symbols.
        let mut db = if ram.has_symbol_arithmetic() {
            Database::new(ram.schemas.clone(), provenance.clone())
        } else {
            let spec = EncodingSpec {
                symbol_constants: ram.symbol_constants(),
                widen_u32: ram.has_u32_arithmetic(),
            };
            Database::new_encoded(ram.schemas.clone(), provenance.clone(), &spec)
        };
        let mut row = Vec::new();
        for (relation, values, prob, exclusion) in facts.facts() {
            let tag = provenance.input_tag(registry.register(prob, exclusion), prob);
            row.clear();
            if shape == Shape::BatchOfOne {
                row.push(Value::U32(0));
            }
            row.extend_from_slice(values);
            db.insert(relation, &row, tag);
        }
        db.seal(device);
        db
    });

    let executor = Executor::new(device.clone(), provenance.clone(), options.clone());
    let (ran, execute) = tracer.time("apm.execute", parent, Kind::Replay, || {
        executor.run_program(&mut db, ram)
    });
    ran.map_err(|e| format!("replayed execution failed: {e}"))?;
    tracer.time("apm.compile", execute, Kind::Replay, || {
        for stratum in &ram.strata {
            std::hint::black_box(compile_stratum_with_options(stratum, ram, &options));
        }
    });

    let (outputs, _) = tracer.time("apm.decode", parent, Kind::Replay, || {
        let mut outputs = Outputs::new();
        for relation in &ram.outputs {
            let rows = db
                .rows(relation)
                .into_iter()
                .map(|(mut tuple, tag)| {
                    if shape == Shape::BatchOfOne {
                        tuple.remove(0);
                    }
                    (tuple, provenance.output(&tag))
                })
                .collect();
            outputs.insert(relation.clone(), rows);
        }
        outputs
    });
    Ok(outputs)
}

/// One from-scratch run as the TC workloads issue it — open a session, insert
/// the facts, run — with a span around each call under a root span for `op`,
/// and the run replayed through `lobster_apm` beneath the run's span.
pub fn traced_run(
    program: &DynProgram,
    facts: &FactSet,
    op: usize,
    tracer: &mut Tracer,
) -> Result<RunResult, String> {
    let root = tracer.begin_op(op);
    let (mut session, _) = tracer.time("core.session.open", root, Kind::Inline, || {
        program.session()
    });
    let (inserted, _) = tracer.time("core.session.insert_facts", root, Kind::Inline, || {
        session.insert_facts(facts)
    });
    let (result, run) = tracer.time("core.session.run", root, Kind::Inline, || session.run());
    tracer.end(root);
    inserted.map_err(|e| e.to_string())?;
    let result = result.map_err(|e| e.to_string())?;
    let replayed = replay(
        program.kind(),
        program.ram(),
        program.device(),
        facts,
        Shape::Plain,
        tracer,
        run,
    )?;
    same_outputs(&result, &replayed)?;
    Ok(result)
}

/// `Ok` when a session's result holds exactly the replayed rows.
pub fn same_outputs(result: &RunResult, replayed: &Outputs) -> Result<(), String> {
    for (relation, rows) in replayed {
        if result.relation(relation) != rows.as_slice() {
            return Err(format!(
                "the decomposed op's `{relation}` differs from the whole op's"
            ));
        }
    }
    Ok(())
}
