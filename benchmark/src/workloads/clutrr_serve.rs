//! `clutrr_serve`: CLUTRR requests over loopback TCP, one connection, one
//! request in flight, batch size 1. An op is one pass over the generated
//! samples, so every op is the same work; times are reported per request.

use super::{Profile, Workload};
use crate::inputs::{clutrr_samples, ClutrrSample, CLUTRR_CHAIN, CLUTRR_SOURCE};
use crate::measure::{metered, Cost};
use crate::oracle::{clutrr_expected, ClutrrExpected};
use crate::replay::{replay, Shape};
use crate::trace::{Kind, Tracer};
use lobster::{DynProgram, FactSet, InputFactId, Output, ProvenanceKind, Value};
use lobster_apm::batch_transform;
use lobster_ram::RamProgram;
use lobster_serve::json::{self, obj, Json};
use lobster_serve::{
    AdmissionConfig, AdmissionController, Client, KeyStore, ProgramCache, Quota, Reply,
    SchedulerConfig, Server, ServerConfig,
};
use std::sync::Arc;

pub const KIND: ProvenanceKind = ProvenanceKind::DiffTop1Proof;
pub const API_KEY: &str = "benchmark";

pub struct ClutrrServe {
    pub samples: Vec<ClutrrSample>,
    expected: Vec<ClutrrExpected>,
}

/// A running server and its one client. Fields drop in this order: the
/// client hangs up before the server drains and joins its threads.
pub struct Serving {
    pub client: Client,
    pub server: Server,
    pub program: Arc<DynProgram>,
    /// What `run_batch` executes: the program with a sample-id column.
    batched: RamProgram,
    pub admission: AdmissionController,
    /// Per sample, the first reply that passed the oracle; every later reply
    /// must equal it.
    golden: Vec<Option<Json>>,
}

impl ClutrrServe {
    pub fn new(seed: u64) -> ClutrrServe {
        let samples = clutrr_samples(seed);
        let expected = samples.iter().map(clutrr_expected).collect();
        ClutrrServe { samples, expected }
    }

    /// Compiles through a fresh `ProgramCache`, binds a server on an
    /// ephemeral loopback port and connects the client.
    pub fn serve(&self) -> Result<Serving, String> {
        let cache = Arc::new(ProgramCache::new());
        let program = cache
            .get_or_compile(CLUTRR_SOURCE, KIND)
            .map_err(|e| e.to_string())?;
        let keys = KeyStore::new();
        keys.add_key(API_KEY, Quota::unlimited());
        let config = ServerConfig {
            scheduler: SchedulerConfig::default()
                .with_max_batch_size(1)
                .with_workers(1)
                .with_num_shards(1),
            cache: Some(cache),
            ..ServerConfig::default()
        };
        let server = Server::bind(("127.0.0.1", 0), Arc::clone(&program), keys, config)
            .map_err(|e| format!("cannot bind a loopback port: {e}"))?;
        let client = Client::connect(server.local_addr(), API_KEY)
            .map_err(|e| format!("cannot connect to the server: {e}"))?;
        Ok(Serving {
            client,
            server,
            batched: batch_transform(program.ram()),
            program,
            admission: AdmissionController::new(AdmissionConfig::default()),
            golden: vec![None; self.samples.len()],
        })
    }

    /// A refusal or a wrong answer fails the request.
    fn check(&self, live: &mut Serving, sample: usize, reply: &Reply) -> Result<(), String> {
        if !reply.ok() {
            return Err(format!(
                "request refused: {}",
                reply.code().unwrap_or("no code")
            ));
        }
        match &live.golden[sample] {
            Some(golden) if golden == reply.json() => Ok(()),
            Some(_) => Err(format!(
                "reply for sample {sample} differs from its golden reply"
            )),
            None => {
                self.expected[sample].check(&reply_rows(reply.json(), "answer")?)?;
                live.golden[sample] = Some(reply.json().clone());
                Ok(())
            }
        }
    }
}

/// The rows of one relation of a `run` reply, as a `RunResult` holds them.
pub fn reply_rows(reply: &Json, relation: &str) -> Result<Vec<(Vec<Value>, Output)>, String> {
    let malformed = || format!("malformed `{relation}` in reply {}", reply.to_compact());
    let rows = reply
        .get("relations")
        .and_then(|relations| relations.get(relation))
        .and_then(Json::as_arr)
        .ok_or_else(malformed)?;
    rows.iter()
        .map(|row| {
            let tuple = row
                .get("tuple")
                .and_then(Json::as_arr)?
                .iter()
                .map(|value| Some(Value::U32(u32::try_from(value.get("u32")?.as_u64()?).ok()?)))
                .collect::<Option<Vec<Value>>>()?;
            let gradient = match row.get("grad") {
                None => Vec::new(),
                Some(grad) => grad
                    .as_arr()?
                    .iter()
                    .map(|entry| {
                        let [id, value] = entry.as_arr()? else {
                            return None;
                        };
                        let id = InputFactId(u32::try_from(id.as_u64()?).ok()?);
                        Some((id, value.as_f64()?))
                    })
                    .collect::<Option<Vec<_>>>()?,
            };
            let probability = row.get("prob")?.as_f64()?;
            Some((
                tuple,
                Output {
                    probability,
                    gradient,
                },
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(malformed)
}

/// The `run` request frame `Client::run` sends for `facts` (every value of
/// this workload is a `u32`).
pub fn request_frame(facts: &FactSet) -> Json {
    let wire_facts = facts
        .facts()
        .map(|(relation, values, prob, _)| {
            let values = values
                .iter()
                .map(|value| match value {
                    Value::U32(n) => obj([("u32", Json::from(u64::from(*n)))]),
                    other => unreachable!("the generator emits u32 values only, not {other:?}"),
                })
                .collect();
            let mut fact = obj([("rel", Json::from(relation)), ("values", Json::Arr(values))]);
            if let Some(p) = prob {
                fact.set("prob", Json::Num(p));
            }
            fact
        })
        .collect();
    obj([
        ("op", Json::from("run")),
        ("key", Json::from(API_KEY)),
        ("facts", Json::Arr(wire_facts)),
    ])
}

impl Workload for ClutrrServe {
    type Live = Serving;

    fn ops_per_second(&self) -> f64 {
        30.0
    }

    /// A set-up is 30 ms of work: compile, bind, spawn, connect, the first
    /// pass over the samples.
    fn set_ups(&self) -> usize {
        16
    }

    fn requests_per_op(&self) -> usize {
        self.samples.len()
    }

    fn set_up(&self) -> Result<Serving, String> {
        let mut live = self.serve()?;
        self.op(&mut live, 0)?;
        Ok(live)
    }

    fn op(&self, live: &mut Serving, _index: usize) -> Result<Cost, String> {
        let mut replies = Vec::with_capacity(self.samples.len());
        let ((), cost) = metered(|| {
            for request in &self.samples {
                replies.push(live.client.run(&request.facts));
            }
        });
        for (sample, reply) in replies.into_iter().enumerate() {
            self.check(live, sample, &reply.map_err(|e| e.to_string())?)?;
        }
        Ok(cost)
    }

    /// One request over the wire, then the same request one layer further
    /// down each time: the frames through `json`, the key through the
    /// `KeyStore`, admission, the scheduler in process, `run_batch` directly,
    /// and load / execute / decode through `lobster_apm`.
    fn traced_request(
        &self,
        live: &mut Serving,
        index: usize,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let sample = index % self.samples.len();
        let facts = &self.samples[sample].facts;
        let root = tracer.begin_op(index);
        let (reply, net) = tracer.time("serve.net", root, Kind::Inline, || live.client.run(facts));
        tracer.end(root);
        let reply = reply.map_err(|e| e.to_string())?;
        self.check(live, sample, &reply)?;

        let request = request_frame(facts);
        let (frames, _) = tracer.time("serve.json.serialize", net, Kind::Replay, || {
            (request.to_compact(), reply.json().to_compact())
        });
        let (parsed, _) = tracer.time("serve.json.parse", net, Kind::Replay, || {
            (json::parse(&frames.0), json::parse(&frames.1))
        });
        if parsed.0.as_ref() != Ok(&request) || parsed.1.as_ref() != Ok(reply.json()) {
            return Err("a frame does not survive serialising and parsing".to_string());
        }
        let (authorised, _) = tracer.time("serve.auth.check", net, Kind::Replay, || {
            live.server.keys().check(API_KEY)
        });
        authorised.map_err(|e| format!("the key was refused: {e:?}"))?;
        let (admitted, _) = tracer.time("serve.admission.admit", net, Kind::Replay, || {
            live.admission.admit(0)
        });
        admitted.map_err(|_| "an idle server shed the request".to_string())?;

        let submitted = facts.clone();
        let (scheduled, scheduler) = tracer.time("serve.scheduler", net, Kind::Replay, || {
            live.server.scheduler().submit(submitted).wait()
        });
        let scheduled = scheduled.map_err(|e| e.to_string())?;
        let (batch, session) =
            tracer.time("core.session.run_batch1", scheduler, Kind::Replay, || {
                live.program.run_batch(std::slice::from_ref(facts))
            });
        let batch = batch.map_err(|e| e.to_string())?;
        let replayed = replay(
            KIND,
            &live.batched,
            live.program.device(),
            facts,
            Shape::BatchOfOne,
            tracer,
            session,
        )?;

        let wire = reply_rows(reply.json(), "answer")?;
        let same = wire == scheduled.relation("answer")
            && wire == batch[0].relation("answer")
            && Some(&wire) == replayed.get("answer");
        if !same {
            return Err(format!(
                "the decomposed request's `answer` differs from the reply's for sample {sample}"
            ));
        }
        Ok(())
    }

    fn profile(&self) -> Profile<'_> {
        Profile {
            source: CLUTRR_SOURCE,
            kind: KIND,
            facts: &self.samples[0].facts,
            // One iteration states the links, one per composition, one to
            // find nothing new.
            iterations: CLUTRR_CHAIN + 1,
        }
    }
}
