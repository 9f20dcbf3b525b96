//! A miniature model server: one process-wide [`ProgramCache`], one
//! [`BatchScheduler`] per hot program, many concurrent request threads —
//! batched on the scheduler's persistent runtime (one long-lived session
//! per worker serving every batch) — and one-off requests on their own
//! sessions. This is the executable version of the request
//! lifecycle described in `docs/ARCHITECTURE.md`.
//!
//! Run with `cargo run -p lobster-serve --example serve`. The example prints
//! the cache behaviour (miss → compile, hits, coalesced concurrent
//! requests) and the scheduler's batching statistics, so it doubles as a
//! quick tour of the serving knobs.

use lobster::{FactSet, ProvenanceKind, Value};
use lobster_serve::{BatchScheduler, ProgramCache, SchedulerConfig};
use std::sync::Arc;
use std::time::Duration;

const REACHABILITY: &str = "type edge(x: u32, y: u32)
    rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
    query path";

fn main() {
    // --- The cache: each distinct program compiles once per process. ------
    let cache = Arc::new(ProgramCache::with_budget(1 << 20));

    // Eight "handler threads" race for the same program. Exactly one
    // compiles; the other seven block and share the artifact.
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache
                    .get_or_compile(REACHABILITY, ProvenanceKind::AddMultProb)
                    .expect("program compiles")
            })
        })
        .collect();
    // Join every handler, so the counters below count all eight requests.
    let programs: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("handler thread"))
        .collect();
    let program = programs
        .into_iter()
        .next_back()
        .expect("eight handlers ran");
    let mut json = String::new();
    cache.metrics().write_json(&mut json);
    println!("cache after 8 concurrent requests: {json}");
    // Re-requesting is now a pure hit.
    cache
        .get_or_compile(REACHABILITY, ProvenanceKind::AddMultProb)
        .expect("cached");
    let hits = cache.metrics().get("hits").unwrap_or(0);
    println!("cache: re-request hits ({hits} total hits)");

    // --- The scheduler: one fix-point per mini-batch, on a persistent ----
    // --- runtime. ---------------------------------------------------------
    // `max_batch_size` caps how many requests share a fix-point;
    // `max_queue_delay` bounds how long the first request of a batch can
    // wait for company. The scheduler spawns its worker ONCE, here, and the
    // worker opens one session for its life — every batch below runs on it
    // as one fix point, paying no per-batch spawn/join or session setup.
    let scheduler = BatchScheduler::new(
        program,
        SchedulerConfig::default()
            .with_max_batch_size(16)
            .with_max_queue_delay(Duration::from_millis(2)),
    );

    // Sixty-four independent requests, submitted as fast as possible.
    let tickets: Vec<_> = (0..64u32)
        .map(|i| {
            let mut request = FactSet::new();
            request.add("edge", &[Value::U32(i), Value::U32(i + 1)], Some(0.9));
            request.add("edge", &[Value::U32(i + 1), Value::U32(i + 2)], Some(0.9));
            scheduler.submit(request)
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let i = i as u32;
        let result = ticket.wait().expect("request served");
        let p = result.probability("path", &[Value::U32(i), Value::U32(i + 2)]);
        assert!((p - 0.81).abs() < 1e-9, "request {i}: {p}");
    }
    let metrics = scheduler.metrics();
    let mut json = String::new();
    metrics.write_json(&mut json);
    println!("scheduler, one persistent session: {json}");
    assert!(
        metrics.get("batches") < metrics.get("samples"),
        "batching amortized at least one fix-point"
    );

    // --- One-off requests: a session each. --------------------------------
    // A handler that runs one-off (unbatched) requests opens a session per
    // request (about 90 ns) and drops it, so request state never leaks.
    for i in 0..32u32 {
        let mut session = scheduler.program().session();
        session
            .add_fact("edge", &[Value::U32(i), Value::U32(i + 1)], Some(0.5))
            .expect("well-formed fact");
        let result = session.run().expect("request runs");
        assert_eq!(result.len("path"), 1, "a fresh session starts clean");
    }
    println!("one-off sessions: 32 requests, each on its own session");
}
