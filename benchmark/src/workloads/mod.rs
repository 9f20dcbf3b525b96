//! The four workloads. Each is a closed loop with one op in flight and every
//! op identical, so a low percentile of op time is the op's cost on a quiet
//! machine.

pub mod clutrr_serve;
pub mod incr_updates;
pub mod tc;

use crate::measure::Cost;
use crate::trace::Tracer;
use lobster::{DynProgram, FactSet, Lobster, ProvenanceKind};
use lobster_gpu::{Device, DeviceConfig};

/// Name and the reason the workload exists, as `BENCHMARK.json` records it.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "tc_chain",
        "iteration-bound: 513 tiny fix-point iterations, so per-iteration and per-launch fixed cost dominates and kernel throughput does not",
    ),
    (
        "tc_dense",
        "kernel-bound: 250k tagged tuples in a handful of iterations, so sorts, joins, tag disjunction and decode dominate and per-iteration cost does not",
    ),
    (
        "clutrr_serve",
        "request-path-bound: tiny fix-points behind TCP, JSON, auth, admission and the scheduler at batch size 1, so the serving layers dominate",
    ),
    (
        "incr_updates",
        "write-path: single-edge inserts (tuple delta) and a retraction (recompute) on one materialised session, the fix-point code used the other way round",
    ),
];

/// What the per-layer probes need to time each layer's calls on this
/// workload's own program and input.
pub struct Profile<'a> {
    pub source: &'static str,
    pub kind: ProvenanceKind,
    /// One run's input. The incremental probe materialises all but the last
    /// fact, then inserts and retracts that one.
    pub facts: &'a FactSet,
    /// Fix-point iterations one run of `facts` takes, known to the generator.
    pub iterations: usize,
}

pub trait Workload {
    /// What set-up leaves running: compiled program, session, server, client.
    type Live;

    /// Timed ops per second of `--seconds` on the machine the sizes were
    /// chosen on; the op count of a run is this times `--seconds`, so the
    /// work of a run is fixed by its arguments, not by how fast it went.
    fn ops_per_second(&self) -> f64;

    /// Requests one op answers. Per-op metrics are reported per request.
    fn requests_per_op(&self) -> usize {
        1
    }

    /// How often a run sets up from scratch; `setup_s` is the lower quartile.
    /// More where one set-up is too short to time well.
    fn set_ups(&self) -> usize {
        6
    }

    /// From generated inputs to the first op answered and checked: compile,
    /// device / session / server construction, one cold op.
    fn set_up(&self) -> Result<Self::Live, String>;

    /// One op. The calls into the program are on the clock, the check of the
    /// answer against the oracle is not.
    fn op(&self, live: &mut Self::Live, index: usize) -> Result<Cost, String>;

    /// One request with a span around each layer call and the layers beneath
    /// it replayed; fails when a replay's output differs from the request's.
    /// Called `REQUESTS_PER_OP` times per op's worth of work.
    fn traced_request(
        &self,
        live: &mut Self::Live,
        index: usize,
        tracer: &mut Tracer,
    ) -> Result<(), String>;

    fn profile(&self) -> Profile<'_>;
}

/// Every device the harness builds computes on one thread: on a small shared
/// box a second kernel thread buys speed at the price of a spread three
/// times as wide (see the README).
pub fn one_thread_device() -> Device {
    Device::new(DeviceConfig {
        parallelism: 1,
        ..DeviceConfig::default()
    })
}

/// Compiles `source` for a one-thread device.
pub fn compile_on_one_thread(source: &str, kind: ProvenanceKind) -> Result<DynProgram, String> {
    Lobster::builder(source)
        .device(one_thread_device())
        .provenance(kind)
        .compile()
        .map_err(|e| e.to_string())
}
