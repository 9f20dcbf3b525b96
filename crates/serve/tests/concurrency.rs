//! Concurrency contracts of the serving layer: single compilation under
//! thread contention, eviction within the byte budget, and batch/sequential
//! result agreement across flush boundaries.

use lobster::{FactSet, Program, ProvenanceKind, RuntimeOptions, Value};
use lobster_serve::{BatchScheduler, ProgramCache, SchedulerConfig};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const TC: &str = "type edge(x: u32, y: u32)
    rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
    query path";

/// Distinct sources (different constants) so each compiles to a distinct
/// cache entry.
fn variant_source(i: usize) -> String {
    format!(
        "type edge(x: u32, y: u32)
         rel edge = {{({i}, {})}}
         rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
         query path",
        i + 1
    )
}

#[test]
fn eight_threads_same_source_compile_exactly_once() {
    let cache = Arc::new(ProgramCache::new());
    let barrier = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Line all threads up so they hit the cache together.
                barrier.wait();
                cache
                    .get_or_compile(TC, ProvenanceKind::AddMultProb)
                    .expect("compiles")
            })
        })
        .collect();
    let programs: Vec<Arc<Program>> = handles
        .into_iter()
        .map(|h| h.join().expect("thread"))
        .collect();

    // Exactly one compilation happened, and every thread got the same
    // artifact (pointer-equal Arc), not a private copy.
    let stats = cache.stats();
    assert_eq!(stats.compiles, 1, "stats: {stats:?}");
    assert_eq!(stats.hits + stats.misses + stats.coalesced, 8);
    assert_eq!(stats.misses, 1);
    for program in &programs[1..] {
        assert!(Arc::ptr_eq(&programs[0], program));
    }
    // And the shared artifact works.
    let mut sample = FactSet::new();
    sample.add("edge", &[Value::U32(0), Value::U32(1)], Some(0.5));
    let results = programs[0].run_batch(&[sample]).unwrap();
    assert!((results[0].probability("path", &[Value::U32(0), Value::U32(1)]) - 0.5).abs() < 1e-9);
}

#[test]
fn contended_threads_over_many_keys_compile_each_key_once() {
    let cache = Arc::new(ProgramCache::new());
    let sources: Arc<Vec<String>> = Arc::new((0..4).map(variant_source).collect());
    let barrier = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let sources = Arc::clone(&sources);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // Each thread requests every key, starting at a different
                // offset so compiles overlap across keys.
                for i in 0..sources.len() {
                    let source = &sources[(t + i) % sources.len()];
                    cache
                        .get_or_compile(source, ProvenanceKind::Unit)
                        .expect("compiles");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("thread");
    }
    assert_eq!(cache.stats().compiles, 4);
    assert_eq!(cache.len(), 4);
}

#[test]
fn eviction_respects_the_size_budget() {
    // Budget sized for roughly two compiled variants of the program.
    let one = Program::compile(&variant_source(0), ProvenanceKind::Unit)
        .unwrap()
        .compiled_size_bytes();
    let budget = one * 2 + one / 2;
    let cache = ProgramCache::with_budget(budget);

    for i in 0..6 {
        cache
            .get_or_compile(&variant_source(i), ProvenanceKind::Unit)
            .unwrap();
        assert!(
            cache.stats().resident_bytes <= budget,
            "after insert {i}: {} resident > {budget} budget",
            cache.stats().resident_bytes
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.compiles, 6);
    assert!(stats.evictions >= 4, "stats: {stats:?}");
    assert!(stats.resident_programs <= 2);

    // LRU order: the most recently inserted program survived…
    let options = RuntimeOptions::default();
    assert!(cache.contains(&variant_source(5), ProvenanceKind::Unit, &options));
    // …the oldest did not, and re-requesting it recompiles.
    assert!(!cache.contains(&variant_source(0), ProvenanceKind::Unit, &options));
    cache
        .get_or_compile(&variant_source(0), ProvenanceKind::Unit)
        .unwrap();
    assert_eq!(cache.stats().compiles, 7);
}

#[test]
fn recently_used_entries_survive_eviction_over_older_ones() {
    let one = Program::compile(&variant_source(0), ProvenanceKind::Unit)
        .unwrap()
        .compiled_size_bytes();
    let cache = ProgramCache::with_budget(one * 2 + one / 2);
    cache
        .get_or_compile(&variant_source(0), ProvenanceKind::Unit)
        .unwrap();
    cache
        .get_or_compile(&variant_source(1), ProvenanceKind::Unit)
        .unwrap();
    // Touch 0 so 1 becomes the LRU victim when 2 arrives.
    cache
        .get_or_compile(&variant_source(0), ProvenanceKind::Unit)
        .unwrap();
    cache
        .get_or_compile(&variant_source(2), ProvenanceKind::Unit)
        .unwrap();
    let options = RuntimeOptions::default();
    assert!(cache.contains(&variant_source(0), ProvenanceKind::Unit, &options));
    assert!(!cache.contains(&variant_source(1), ProvenanceKind::Unit, &options));
    assert!(cache.contains(&variant_source(2), ProvenanceKind::Unit, &options));
}

/// One request per chain link plus a shared query edge — enough variety
/// that per-request results differ and misrouting would be caught.
fn request(i: u32) -> FactSet {
    let mut facts = FactSet::new();
    facts.add("edge", &[Value::U32(i), Value::U32(i + 1)], Some(0.9));
    facts.add("edge", &[Value::U32(i + 1), Value::U32(i + 2)], Some(0.8));
    facts
}

/// Asserts two results agree on every queried relation: same tuples, same
/// probabilities.
fn assert_same_outputs(a: &lobster::RunResult, b: &lobster::RunResult, what: &str) {
    assert_eq!(a.relations(), b.relations(), "{what}: relation sets differ");
    for relation in a.relations() {
        let mut left: Vec<_> = a
            .relation(relation)
            .iter()
            .map(|(t, o)| (t.clone(), o.probability))
            .collect();
        let mut right: Vec<_> = b
            .relation(relation)
            .iter()
            .map(|(t, o)| (t.clone(), o.probability))
            .collect();
        let by_tuple = |x: &(Vec<Value>, f64), y: &(Vec<Value>, f64)| {
            format!("{:?}", x.0).cmp(&format!("{:?}", y.0))
        };
        left.sort_by(by_tuple);
        right.sort_by(by_tuple);
        assert_eq!(left.len(), right.len(), "{what}: `{relation}` sizes");
        for ((lt, lp), (rt, rp)) in left.iter().zip(&right) {
            assert_eq!(lt, rt, "{what}: `{relation}` tuples");
            assert!((lp - rp).abs() < 1e-9, "{what}: `{relation}` {lp} vs {rp}");
        }
    }
}

/// Serves 10 requests through a scheduler cutting the set at several flush
/// boundaries (max_batch_size 4) with the given shard count, and asserts
/// every served result agrees with the whole set run as one `run_batch`
/// fix-point.
fn assert_flush_boundary_agreement(num_shards: usize) {
    let program = Arc::new(Program::compile(TC, ProvenanceKind::AddMultProb).unwrap());
    let requests: Vec<FactSet> = (0..10).map(request).collect();

    // Ground truth: the whole set in one fix-point on one device.
    let reference = program.run_batch(&requests).unwrap();

    // The scheduler must split these 10 requests across at least 3 batches
    // (max_batch_size 4), so several flush boundaries cut the set — and with
    // `num_shards > 1` each of those batches is additionally cut across
    // shard devices.
    let scheduler = BatchScheduler::new(
        Arc::clone(&program),
        SchedulerConfig::default()
            .with_max_batch_size(4)
            .with_max_queue_delay(Duration::from_millis(1))
            .with_num_shards(num_shards),
    );
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| scheduler.submit(r.clone()))
        .collect();
    let served: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("request served"))
        .collect();
    let stats = scheduler.stats();
    assert_eq!(stats.samples, 10);
    assert!(stats.batches >= 3, "stats: {stats:?}");

    for (i, (batched, one_shot)) in served.iter().zip(&reference).enumerate() {
        assert_same_outputs(
            batched,
            one_shot,
            &format!("request {i} (shards {num_shards})"),
        );
    }
}

#[test]
fn scheduler_results_agree_with_one_shot_run_batch_across_flush_boundaries() {
    assert_flush_boundary_agreement(1);
}

#[test]
fn sharded_scheduler_results_agree_with_one_shot_run_batch_across_flush_boundaries() {
    // Every pooled batch additionally fans out across 2 and 3 shard devices;
    // flush boundaries and shard boundaries together must stay invisible.
    assert_flush_boundary_agreement(2);
    assert_flush_boundary_agreement(3);
}

#[test]
fn sharded_scheduler_gradients_stay_request_local() {
    use lobster::InputFactId;

    // Requests with *different* fact counts forced into one sharded batch:
    // the gradient remap must hold whichever shard a request's sample lands
    // on.
    let program = Arc::new(Program::compile(TC, ProvenanceKind::DiffAddMultProb).unwrap());
    let requests: Vec<FactSet> = (0..6).map(request).collect();
    let mut small = FactSet::new();
    small.add("edge", &[Value::U32(90), Value::U32(91)], Some(0.7));

    let scheduler = BatchScheduler::new(
        Arc::clone(&program),
        SchedulerConfig::default()
            .with_max_batch_size(7)
            .with_max_queue_delay(Duration::from_secs(30))
            .with_num_shards(3),
    );
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| scheduler.submit(r.clone()))
        .collect();
    let t_small = scheduler.submit(small.clone());
    for (i, ticket) in tickets.into_iter().enumerate() {
        let result = ticket.wait().expect("served");
        let reference = &program
            .run_batch(std::slice::from_ref(&requests[i]))
            .unwrap()[0];
        let target = [Value::U32(i as u32), Value::U32(i as u32 + 2)];
        let got: std::collections::BTreeMap<_, _> =
            result.gradient("path", &target).into_iter().collect();
        let want: std::collections::BTreeMap<_, _> =
            reference.gradient("path", &target).into_iter().collect();
        assert_eq!(got.len(), want.len(), "request {i}");
        for (id, g) in &want {
            assert!(id.0 < requests[i].len() as u32, "request-local id {id}");
            assert!((got[id] - g).abs() < 1e-9, "request {i} fact {id}");
        }
    }
    let result = t_small.wait().expect("served");
    let grad = result.gradient("path", &[Value::U32(90), Value::U32(91)]);
    assert_eq!(grad.len(), 1);
    assert_eq!(grad[0].0, InputFactId(0));
    assert_eq!(scheduler.stats().batches, 1, "requests must share a batch");
}

#[test]
fn gradients_through_the_scheduler_use_request_local_fact_ids() {
    use lobster::InputFactId;

    let program = Arc::new(Program::compile(TC, ProvenanceKind::DiffAddMultProb).unwrap());
    // Two requests with different fact counts, forced into one batch: the
    // second request's facts land at batch-relative ids 2.., so without
    // remapping its gradients would point into the first request's facts.
    let mut first = FactSet::new();
    first.add("edge", &[Value::U32(0), Value::U32(1)], Some(0.9));
    first.add("edge", &[Value::U32(1), Value::U32(2)], Some(0.8));
    let mut second = FactSet::new();
    second.add("edge", &[Value::U32(5), Value::U32(6)], Some(0.7));

    let scheduler = BatchScheduler::new(
        Arc::clone(&program),
        SchedulerConfig::default()
            .with_max_batch_size(2)
            .with_max_queue_delay(Duration::from_secs(30)),
    );
    let t_first = scheduler.submit(first.clone());
    let t_second = scheduler.submit(second.clone());
    let r_first = t_first.wait().unwrap();
    let r_second = t_second.wait().unwrap();
    assert_eq!(scheduler.stats().batches, 1, "requests must share a batch");

    // Reference: each request alone in its own run_batch, where ids are
    // request-local by construction (no inline facts, single sample).
    let ref_first = &program.run_batch(std::slice::from_ref(&first)).unwrap()[0];
    let ref_second = &program.run_batch(std::slice::from_ref(&second)).unwrap()[0];

    let target = [Value::U32(0), Value::U32(2)];
    let got: std::collections::BTreeMap<_, _> =
        r_first.gradient("path", &target).into_iter().collect();
    let want: std::collections::BTreeMap<_, _> =
        ref_first.gradient("path", &target).into_iter().collect();
    assert_eq!(got.len(), want.len());
    for (id, g) in &want {
        assert!(id.0 < first.len() as u32, "request-local id, got {id}");
        assert!((got[id] - g).abs() < 1e-9, "{id}: {} vs {g}", got[id]);
    }

    // The single-fact request's gradient must reference its own fact 0,
    // not batch-relative id 2.
    let target = [Value::U32(5), Value::U32(6)];
    let grad = r_second.gradient("path", &target);
    assert_eq!(grad.len(), 1);
    assert_eq!(grad[0].0, InputFactId(0));
    assert_eq!(ref_second.gradient("path", &target)[0].0, InputFactId(0));
    assert!((grad[0].1 - ref_second.gradient("path", &target)[0].1).abs() < 1e-9);
}

#[test]
fn scheduler_agreement_holds_under_concurrent_submission() {
    let program = Arc::new(Program::compile(TC, ProvenanceKind::DiffAddMultProb).unwrap());
    let requests: Vec<FactSet> = (0..16).map(request).collect();
    let reference = program.run_batch(&requests).unwrap();

    let scheduler = Arc::new(BatchScheduler::new(
        Arc::clone(&program),
        SchedulerConfig::default()
            .with_max_batch_size(5)
            .with_max_queue_delay(Duration::from_millis(1))
            .with_workers(2),
    ));
    // Submit from 4 threads at once; collect (request index, result).
    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4usize)
        .map(|t| {
            let scheduler = Arc::clone(&scheduler);
            let requests = requests.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                (0..16)
                    .filter(|i| i % 4 == t)
                    .map(|i| (i, scheduler.run_one(requests[i].clone()).expect("served")))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for handle in handles {
        for (i, result) in handle.join().expect("thread") {
            assert_same_outputs(&result, &reference[i], &format!("request {i}"));
        }
    }
    assert_eq!(scheduler.stats().samples, 16);
}
