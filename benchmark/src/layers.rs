//! Per-layer probes: each times public calls of one crate, from outside,
//! and reports the median of its repeats.
//!
//! Probes on the workload's own program and input (`Profile`): the compile
//! path, a session run decomposed through `lobster_apm`, incremental
//! maintenance, and the Scallop-style baseline. Probes on inputs fixed by the
//! seed alone, the same whatever the workload: the kernels on columns shaped
//! like `tc_dense`'s tables, tag arithmetic, and the serving path on the
//! CLUTRR requests.

use crate::inputs::{self, DENSE_NODES, TC_SOURCE};
use crate::measure::{median, median_ms, metered};
use crate::pin;
use crate::prng::SplitMix64;
use crate::replay::{replay, traced_run, Shape};
use crate::report::Metrics;
use crate::run::Plan;
use crate::trace::Tracer;
use crate::workloads::clutrr_serve::{request_frame, ClutrrServe, API_KEY};
use crate::workloads::{compile_on_one_thread, one_thread_device, Profile};
use lobster::{FactSet, ProvenanceKind, Value};
use lobster_baselines::ScallopEngine;
use lobster_gpu::kernels::{
    count_matches, difference, hash_join, merge, merge_count, merge_join, scan, sort_permutation,
    unique,
};
use lobster_gpu::{Device, DeviceConfig, HashIndex};
use lobster_provenance::{
    DiffTop1Proof, InputFactId, InputFactRegistry, MaxMinProb, Provenance, SessionProvenance, Unit,
};
use lobster_ram::passes::{eliminate_dead_rules, lint_program, validate_program, CostModel};
use lobster_ram::RamProgram;
use lobster_serve::{json, BatchScheduler, ProgramCache, SchedulerConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

pub fn probe(profile: &Profile<'_>, plan: &Plan) -> Result<Metrics, String> {
    let (heavy, light) = plan.probe_repeats();
    let mut metrics = Metrics::new();
    compile_path(profile, light, &mut metrics)?;
    let run_ms = session_run(profile, heavy, &mut metrics)?;
    incremental(profile, heavy, &mut metrics)?;
    baseline(profile, heavy, run_ms, &mut metrics)?;
    kernels(plan.seed, heavy, &mut metrics);
    tags(plan.seed, heavy, &mut metrics)?;
    serving(plan.seed, light, &mut metrics)?;
    Ok(metrics)
}

/// Source text to a runnable program, one crate at a time, and through the
/// program cache.
fn compile_path(
    profile: &Profile<'_>,
    repeats: usize,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let (source, kind) = (profile.source, profile.kind);
    let ram = lobster_datalog::parse(source)
        .map_err(|e| e.to_string())?
        .ram;
    metrics.push((
        "datalog.parse_ms",
        median_ms(repeats, || {
            black_box(lobster_datalog::parse(black_box(source)).is_ok());
        }),
    ));
    metrics.push((
        "ram.passes_ms",
        median_ms(repeats, || {
            black_box(validate_program(&ram).is_ok());
            black_box(lint_program(&ram));
            black_box(CostModel::analyze(&ram));
            black_box(eliminate_dead_rules(&ram));
        }),
    ));
    metrics.push((
        "core.compile_ms",
        median_ms(repeats, || {
            black_box(compile_on_one_thread(source, kind).is_ok());
        }),
    ));
    let misses: Vec<f64> = (0..repeats)
        .map(|_| {
            let cache = ProgramCache::new();
            metered(|| black_box(cache.get_or_compile(source, kind).is_ok()))
                .1
                .ms()
        })
        .collect();
    metrics.push(("serve.cache.miss_ms", median(&misses)));
    let cache = ProgramCache::new();
    cache
        .get_or_compile(source, kind)
        .map_err(|e| e.to_string())?;
    const HITS: usize = 1000;
    metrics.push((
        "serve.cache.hit_us",
        1e3 / HITS as f64
            * median_ms(repeats, || {
                for _ in 0..HITS {
                    black_box(cache.get_or_compile(source, kind).is_ok());
                }
            }),
    ));
    Ok(())
}

/// One from-scratch run of the profile, decomposed: the session's calls, and
/// beneath `run` the load, execute (with the stratum compilation it repeats
/// every run) and decode calls of `lobster_apm`. Returns the run's time.
fn session_run(
    profile: &Profile<'_>,
    repeats: usize,
    metrics: &mut Metrics,
) -> Result<f64, String> {
    let program = compile_on_one_thread(profile.source, profile.kind)?;
    let mut tracer = Tracer::new();
    for op in 0..repeats {
        traced_run(&program, profile.facts, op, &mut tracer)?;
    }
    let summary = tracer.summary();
    let ms = |span: &str| summary.layer(span).map_or(0.0, |layer| layer.total_ms);
    let run_ms = ms("core.session.run");
    metrics.extend([
        ("core.session.open_us", 1e3 * ms("core.session.open")),
        (
            "core.session.insert_facts_us",
            1e3 * ms("core.session.insert_facts"),
        ),
        ("core.session.run_ms", run_ms),
        ("apm.compile_ms", ms("apm.compile")),
        ("apm.load_ms", ms("apm.load")),
        ("apm.execute_ms", ms("apm.execute")),
        ("apm.decode_ms", ms("apm.decode")),
        (
            "apm.execute_ms_per_iteration",
            ms("apm.execute") / profile.iterations as f64,
        ),
    ]);
    Ok(run_ms)
}

/// Materialise all but the profile's last fact, then insert and retract that
/// one, each followed by `run_incremental`.
fn incremental(profile: &Profile<'_>, repeats: usize, metrics: &mut Metrics) -> Result<(), String> {
    let program = compile_on_one_thread(profile.source, profile.kind)?;
    let (mut base, mut last) = (FactSet::new(), FactSet::new());
    for (position, (relation, values, prob, exclusion)) in profile.facts.facts().enumerate() {
        let into = if position + 1 < profile.facts.len() {
            &mut base
        } else {
            &mut last
        };
        match exclusion {
            Some(group) => into.add_with_exclusion(relation, values, prob, group),
            None => into.add(relation, values, prob),
        }
    }
    let (mut materialise, mut insert, mut retract) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..repeats {
        let mut session = program.session();
        session.insert_facts(&base).map_err(|e| e.to_string())?;
        let (run, cost) = metered(|| session.run_incremental());
        run.map_err(|e| e.to_string())?;
        materialise.push(cost.ms());
        let (inserted, cost) = metered(|| {
            let ids = session.insert_facts(&last)?;
            session.run_incremental().map(|_| ids)
        });
        let ids = inserted.map_err(|e| e.to_string())?;
        insert.push(cost.ms());
        let (retracted, cost) = metered(|| {
            session.retract_facts(&ids);
            session.run_incremental()
        });
        retracted.map_err(|e| e.to_string())?;
        retract.push(cost.ms());
    }
    metrics.extend([
        ("core.incremental.materialize_ms", median(&materialise)),
        ("core.incremental.insert_ms", median(&insert)),
        ("core.incremental.retract_ms", median(&retract)),
    ]);
    Ok(())
}

/// The paper's yardstick: the tuple-at-a-time baseline on the same input.
fn baseline(
    profile: &Profile<'_>,
    repeats: usize,
    run_ms: f64,
    metrics: &mut Metrics,
) -> Result<(), String> {
    fn scallop_ms<P: SessionProvenance>(
        ram: &RamProgram,
        facts: &FactSet,
        repeats: usize,
    ) -> Result<f64, String> {
        let registry = InputFactRegistry::new();
        let provenance = P::bind(registry.clone());
        let tagged: Vec<(String, Vec<u64>, P::Tag)> = facts
            .facts()
            .map(|(relation, values, prob, exclusion)| {
                let id = registry.register(prob, exclusion);
                (
                    relation.to_string(),
                    values.iter().map(Value::encode).collect(),
                    provenance.input_tag(id, prob),
                )
            })
            .collect();
        let engine = ScallopEngine::new(provenance).with_timeout(Some(Duration::from_secs(60)));
        let mut ms = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            let (ran, cost) = metered(|| engine.run(ram, &tagged));
            ran.map_err(|e| e.to_string())?;
            ms.push(cost.ms());
        }
        Ok(median(&ms))
    }
    let ram = lobster_datalog::parse(profile.source)
        .map_err(|e| e.to_string())?
        .ram;
    let op_ms = match profile.kind {
        ProvenanceKind::Unit => scallop_ms::<Unit>(&ram, profile.facts, repeats),
        ProvenanceKind::MaxMinProb => scallop_ms::<MaxMinProb>(&ram, profile.facts, repeats),
        ProvenanceKind::DiffTop1Proof => scallop_ms::<DiffTop1Proof>(&ram, profile.facts, repeats),
        other => Err(format!("no workload runs under {other}")),
    }?;
    metrics.extend([
        ("baselines.scallop.op_ms", op_ms),
        ("baselines.scallop.speedup", op_ms / run_ms),
    ]);
    Ok(())
}

/// The kernels the fix-point spends its time in, on columns shaped like
/// `tc_dense`'s final `path` (all pairs, sorted) and `edge` tables.
fn kernels(seed: u64, repeats: usize, metrics: &mut Metrics) {
    // One untimed call first: whether a kernel's output buffers come from
    // pages the process already holds depends on what ran before it.
    fn warm_median_ms(repeats: usize, mut f: impl FnMut()) -> f64 {
        f();
        median_ms(repeats, f)
    }
    let device = one_thread_device();
    let n = DENSE_NODES as u64;
    let rows = (n * n) as usize;
    let path_x: Vec<u64> = (0..n * n).map(|i| i / n).collect();
    let path_y: Vec<u64> = (0..n * n).map(|i| i % n).collect();
    let tag_of = |row: usize| 0.05 + (row % 19) as f64 / 20.0;
    let path_tags: Vec<f64> = (0..rows).map(tag_of).collect();
    let mut edges: Vec<(u64, u64)> = inputs::dense(seed)
        .edges
        .iter()
        .map(|&(x, y, _)| (u64::from(x), u64::from(y)))
        .collect();
    edges.sort_unstable();
    let (edge_x, edge_y): (Vec<u64>, Vec<u64>) = edges.into_iter().unzip();

    let order = SplitMix64::new(seed, 5).permutation(rows);
    let shuffled =
        |column: &[u64]| -> Vec<u64> { order.iter().map(|&row| column[row as usize]).collect() };
    let (shuffled_x, shuffled_y) = (shuffled(&path_x), shuffled(&path_y));
    let sort_ms = warm_median_ms(repeats, || {
        black_box(sort_permutation(&device, &[&shuffled_x, &shuffled_y]));
    });

    // Every row twice, as a sorted union of two derivations holds it.
    let twice = |column: &[u64]| -> Vec<u64> { column.iter().flat_map(|&v| [v, v]).collect() };
    let (twice_x, twice_y) = (twice(&path_x), twice(&path_y));
    let twice_tags: Vec<f64> = (0..2 * rows).map(tag_of).collect();
    let unique_ms = warm_median_ms(repeats, || {
        black_box(unique(
            &device,
            &[&twice_x, &twice_y],
            &twice_tags,
            |a, b| a.max(*b),
        ));
    });

    let every_other = |column: &[u64], phase: usize| -> Vec<u64> {
        column.iter().skip(phase).step_by(2).copied().collect()
    };
    let (even_x, even_y) = (every_other(&path_x, 0), every_other(&path_y, 0));
    let (odd_x, odd_y) = (every_other(&path_x, 1), every_other(&path_y, 1));
    let even_tags: Vec<f64> = (0..even_x.len()).map(tag_of).collect();
    let odd_tags: Vec<f64> = (0..odd_x.len()).map(tag_of).collect();
    let merge_ms = warm_median_ms(repeats, || {
        black_box(merge(
            &device,
            &[&even_x, &even_y],
            &even_tags,
            &[&odd_x, &odd_y],
            &odd_tags,
        ));
    });
    let difference_ms = warm_median_ms(repeats, || {
        black_box(difference(
            &device,
            &[&path_x, &path_y],
            &path_tags,
            &[&even_x, &even_y],
            even_x.len(),
        ));
    });

    // path(x, z) joined with edge(z, y): build on the small side.
    let expansion = device.config().hash_table_expansion;
    let hash_build_ms = warm_median_ms(repeats, || {
        black_box(HashIndex::build(&device, &[&edge_x], expansion));
    });
    let index = HashIndex::build(&device, &[&edge_x], expansion);
    let mut pairs = 0u64;
    let hash_join_ms = warm_median_ms(repeats, || {
        let counts = count_matches(&device, &index, &[&path_y]);
        let (offsets, total) = scan(&device, &counts);
        black_box(hash_join(
            &device,
            &index,
            &[&path_y],
            &counts,
            &offsets,
            total,
        ));
        pairs = total;
    });
    let merge_join_ms = warm_median_ms(repeats, || {
        let counts = merge_count(&device, &[&edge_x], &[&path_y]);
        let (offsets, total) = scan(&device, &counts);
        black_box(merge_join(
            &device,
            &[&edge_x],
            &[&path_y],
            &counts,
            &offsets,
            total,
        ));
    });
    black_box(&edge_y);

    // The same seven calls on one-row inputs: what a launch costs when there
    // is nothing to do, as in most of `tc_chain`'s 513 iterations.
    const LAUNCHES: usize = 7;
    const ROUNDS: usize = 200;
    let (one, one_tag) = (vec![1u64], vec![1.0f64]);
    let floor_ms = warm_median_ms(repeats, || {
        for _ in 0..ROUNDS {
            black_box(sort_permutation(&device, &[&one]));
            black_box(unique(&device, &[&one], &one_tag, |a, b| a.max(*b)));
            black_box(merge(&device, &[&one], &one_tag, &[&one], &one_tag));
            black_box(difference(&device, &[&one], &one_tag, &[&one], 1));
            let index = HashIndex::build(&device, &[&one], expansion);
            let counts = count_matches(&device, &index, &[&one]);
            let (offsets, total) = scan(&device, &counts);
            black_box(hash_join(
                &device,
                &index,
                &[&one],
                &counts,
                &offsets,
                total,
            ));
            black_box(merge_join(
                &device,
                &[&one],
                &[&one],
                &counts,
                &offsets,
                total,
            ));
        }
    });

    let mrows_per_s = |count: u64, ms: f64| count as f64 / 1e3 / ms;
    metrics.extend([
        ("gpu.sort_permutation_ms", sort_ms),
        ("gpu.unique_ms", unique_ms),
        ("gpu.merge_ms", merge_ms),
        ("gpu.difference_ms", difference_ms),
        ("gpu.hash_build_ms", hash_build_ms),
        ("gpu.hash_join_ms", hash_join_ms),
        ("gpu.merge_join_ms", merge_join_ms),
        (
            "gpu.sort_permutation_mrows_per_s",
            mrows_per_s(rows as u64, sort_ms),
        ),
        (
            "gpu.hash_join_mrows_per_s",
            mrows_per_s(pairs, hash_join_ms),
        ),
        (
            "gpu.merge_join_mrows_per_s",
            mrows_per_s(pairs, merge_join_ms),
        ),
        (
            "gpu.launch_floor_us",
            1e3 * floor_ms / (ROUNDS * LAUNCHES) as f64,
        ),
    ]);
}

/// Nanoseconds per `mul` followed by `add`, through the trait.
fn tagop_ns<P: Provenance>(provenance: &P, tags: &[P::Tag], repeats: usize) -> f64 {
    const OPS: usize = 20_000;
    let ms = median_ms(repeats, || {
        let mut sum = provenance.zero();
        for i in 0..OPS {
            let product = provenance.mul(&tags[i % tags.len()], &tags[(i + 1) % tags.len()]);
            sum = provenance.add(&sum, &product);
        }
        black_box(sum);
    });
    1e6 * ms / OPS as f64
}

/// `apm.execute` of the TC program on `facts` under `kind` on `device`.
fn execute_ms(
    ram: &RamProgram,
    facts: &FactSet,
    kind: ProvenanceKind,
    device: &Device,
    repeats: usize,
) -> Result<f64, String> {
    let mut tracer = Tracer::new();
    for op in 0..repeats {
        let root = tracer.begin_op(op);
        tracer.end(root);
        replay(kind, ram, device, facts, Shape::Plain, &mut tracer, root)?;
    }
    let summary = tracer.summary();
    Ok(summary
        .layer("apm.execute")
        .map_or(0.0, |layer| layer.total_ms))
}

/// What tags cost: the two semirings' arithmetic, the dense closure with
/// tags over without, and (informational) with a second kernel thread.
fn tags(seed: u64, repeats: usize, metrics: &mut Metrics) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed, 6);
    let probs: Vec<f64> = (0..16).map(|_| rng.uniform(0.05, 1.0)).collect();
    let minmax = MaxMinProb::new();
    let registry = InputFactRegistry::new();
    let top1 = DiffTop1Proof::new(registry.clone());
    let input = |fact: usize, prob: f64| (InputFactId(fact as u32), Some(prob));
    let minmax_tags: Vec<_> = probs
        .iter()
        .enumerate()
        .map(|(fact, &prob)| {
            let (id, prob) = input(fact, prob);
            minmax.input_tag(id, prob)
        })
        .collect();
    let top1_tags: Vec<_> = probs
        .iter()
        .map(|&prob| top1.input_tag(registry.register(Some(prob), None), Some(prob)))
        .collect();

    let ram = lobster_datalog::parse(TC_SOURCE)
        .map_err(|e| e.to_string())?
        .ram;
    let dense = inputs::dense(seed).fact_set();
    let one_thread = one_thread_device();
    let dense_ms = |kind, device: &Device| execute_ms(&ram, &dense, kind, device, repeats);
    let tagged = dense_ms(ProvenanceKind::MaxMinProb, &one_thread)?;
    let untagged = dense_ms(ProvenanceKind::Unit, &one_thread)?;
    let parallel = pin::on_all_cpus(|| {
        let two_threads = Device::new(DeviceConfig {
            parallelism: 2,
            ..DeviceConfig::default()
        });
        dense_ms(ProvenanceKind::MaxMinProb, &two_threads)
    })?;
    metrics.extend([
        (
            "provenance.minmaxprob.tagop_ns",
            tagop_ns(&minmax, &minmax_tags, repeats),
        ),
        (
            "provenance.difftop1.tagop_ns",
            tagop_ns(&top1, &top1_tags, repeats),
        ),
        ("provenance.tag_overhead_ratio", tagged / untagged),
        ("gpu.parallel2_factor", parallel / tagged),
    ]);
    Ok(())
}

/// The serving path on the CLUTRR requests, outside in: the wire, the
/// scheduler in process, `run_batch` directly; and the pieces a request
/// passes on the way (frames through `json`, key check, admission).
fn serving(seed: u64, repeats: usize, metrics: &mut Metrics) -> Result<(), String> {
    let workload = ClutrrServe::new(seed);
    let mut live = workload.serve()?;
    let requests: Vec<&FactSet> = workload.samples.iter().map(|s| &s.facts).collect();
    let over = |f: &mut dyn FnMut(&FactSet) -> Result<(), String>| -> Result<f64, String> {
        let mut ms = Vec::with_capacity(requests.len());
        for _ in 0..repeats.min(3) {
            for facts in &requests {
                let (outcome, cost) = metered(|| f(facts));
                outcome?;
                ms.push(cost.ms());
            }
        }
        Ok(median(&ms))
    };

    let net_ms = over(&mut |facts| match live.client.run(facts) {
        Ok(reply) if reply.ok() => Ok(()),
        Ok(reply) => Err(format!("request refused: {:?}", reply.code())),
        Err(e) => Err(e.to_string()),
    })?;
    let ping_ms = median_ms(10 * repeats, || {
        black_box(live.client.ping().is_ok());
    });
    let reply = live.client.run(requests[0]).map_err(|e| e.to_string())?;
    let request = request_frame(requests[0]);
    let (request_text, reply_text) = (request.to_compact(), reply.json().to_compact());
    const FRAMES: usize = 100;
    let parse_ms = median_ms(repeats, || {
        for _ in 0..FRAMES {
            black_box(json::parse(&request_text).is_ok());
            black_box(json::parse(&reply_text).is_ok());
        }
    });
    let serialize_ms = median_ms(repeats, || {
        for _ in 0..FRAMES {
            black_box(request.to_compact());
            black_box(reply.json().to_compact());
        }
    });
    const CHECKS: usize = 10_000;
    let auth_ms = median_ms(repeats, || {
        for _ in 0..CHECKS {
            black_box(live.server.keys().check(API_KEY).is_ok());
        }
    });
    let admit_ms = median_ms(repeats, || {
        for _ in 0..CHECKS {
            black_box(live.admission.admit(0).is_ok());
        }
    });

    let scheduler = live.server.scheduler();
    let scheduler_ms = {
        let mut ms = Vec::new();
        for facts in &requests {
            let facts = (*facts).clone();
            let (outcome, cost) = metered(|| scheduler.submit(facts).wait());
            outcome.map_err(|e| e.to_string())?;
            ms.push(cost.ms());
        }
        median(&ms)
    };
    const BATCH: usize = 32;
    let batching = BatchScheduler::new(
        Arc::clone(&live.program),
        SchedulerConfig::default()
            .with_max_batch_size(BATCH)
            .with_max_queue_delay(Duration::from_secs(5)),
    );
    let mut batches = Vec::new();
    let first_batch = || -> Vec<FactSet> {
        requests[..BATCH]
            .iter()
            .map(|facts| (*facts).clone())
            .collect()
    };
    for _ in 0..repeats {
        let batch = first_batch();
        let (outcome, cost) = metered(|| {
            let tickets: Vec<_> = batch.into_iter().map(|f| batching.submit(f)).collect();
            tickets
                .into_iter()
                .try_for_each(|ticket| ticket.wait().map(|_| ()))
        });
        outcome.map_err(|e| e.to_string())?;
        batches.push(cost.ms() / BATCH as f64);
    }
    drop(batching);

    let program = Arc::clone(&live.program);
    let batch1_ms = over(&mut |facts| {
        program
            .run_batch(std::slice::from_ref(facts))
            .map(|_| ())
            .map_err(|e| e.to_string())
    })?;
    let batch = first_batch();
    let mut batch32 = Vec::new();
    for _ in 0..repeats {
        let (outcome, cost) = metered(|| program.run_batch(&batch));
        outcome.map_err(|e| e.to_string())?;
        batch32.push(cost.ms() / BATCH as f64);
    }

    metrics.extend([
        ("core.session.run_batch1_ms", batch1_ms),
        ("core.session.run_batch32_ms_per_sample", median(&batch32)),
        ("serve.json.parse_us", 1e3 * parse_ms / FRAMES as f64),
        (
            "serve.json.serialize_us",
            1e3 * serialize_ms / FRAMES as f64,
        ),
        ("serve.auth.check_ns", 1e6 * auth_ms / CHECKS as f64),
        ("serve.admission.admit_ns", 1e6 * admit_ms / CHECKS as f64),
        ("serve.scheduler.roundtrip_ms", scheduler_ms),
        ("serve.scheduler.batch32_ms_per_req", median(&batches)),
        ("serve.net.roundtrip_ms", net_ms),
        ("serve.net.ping_us", 1e3 * ping_ms),
    ]);
    Ok(())
}
