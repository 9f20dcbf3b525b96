//! Serving throughput: one-request-at-a-time vs the batching scheduler on
//! the CLUTRR workload, written to `BENCH_serve.json`.
//!
//! The baseline (`sequential`) serves requests through the *same*
//! [`BatchScheduler`] stack with batching disabled (`max_batch_size = 1`) —
//! one fix-point and one dispatch per request, which is what a
//! Scallop-style server does. The batched runs turn the batching knob up and
//! pay one fix-point per mini-batch. A `direct-loop` row (plain in-process
//! loop, no scheduler, no threads) is also recorded so the dispatch overhead
//! itself is visible. Reported per configuration: wall time, samples/sec,
//! and p50/p99 request latency.
//!
//! Run with `cargo run -p lobster-bench --release --bin serve_throughput`.
//! Knobs:
//!
//! * `LOBSTER_BENCH_QUICK=1` — shrink the workload for a CI smoke run.
//! * `--requests N`, `--chain-length L` — workload size overrides.
//! * `--assert-batched-not-slower` — exit non-zero unless the largest batch
//!   size reaches at least the sequential throughput (the CI gate).
//! * `--assert-speedup X` — exit non-zero unless the largest batch size
//!   reaches `X ×` the sequential throughput.

use lobster::ProvenanceKind;
use lobster_bench::{
    arg_value, degraded_overwrite_warning, print_header, quick_mode, scaled, ArtifactMode,
};
use lobster_serve::json::{parse, Json};
use lobster_serve::{BatchScheduler, ProgramCache, SchedulerConfig};
use lobster_workloads::clutrr;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Latency/throughput figures for one configuration.
struct Measurement {
    label: String,
    batch_size: usize,
    wall: Duration,
    latencies_ms: Vec<f64>,
    fixpoints: u64,
}

impl Measurement {
    fn samples_per_sec(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    fn percentile_ms(&self, p: f64) -> f64 {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    fn json(&self, sequential_sps: f64) -> String {
        format!(
            "{{\"label\": \"{}\", \"batch_size\": {}, \"wall_s\": {:.6}, \
             \"samples_per_sec\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"fixpoints\": {}, \"speedup_vs_sequential\": {:.3}}}",
            self.label,
            self.batch_size,
            self.wall.as_secs_f64(),
            self.samples_per_sec(),
            self.percentile_ms(50.0),
            self.percentile_ms(99.0),
            self.fixpoints,
            self.samples_per_sec() / sequential_sps.max(1e-12),
        )
    }
}

/// A plain in-process loop — no scheduler, no threads. Not the baseline (a
/// server cannot run this way), but recorded so the scheduler's own overhead
/// is visible next to the batching win.
fn run_direct(
    label: &str,
    program: &lobster::Program,
    requests: &[lobster::FactSet],
) -> Measurement {
    let start = Instant::now();
    let mut latencies = Vec::with_capacity(requests.len());
    for request in requests {
        let t = Instant::now();
        program
            .run_batch(std::slice::from_ref(request))
            .expect("request runs");
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Measurement {
        label: label.to_string(),
        batch_size: 1,
        wall: start.elapsed(),
        latencies_ms: latencies,
        fixpoints: requests.len() as u64,
    }
}

/// The batching scheduler at a given `max_batch_size`:
/// requests are submitted open-loop (all at once, as a loaded server's queue
/// would look) and awaited in submission order; each latency spans
/// submit → result read.
fn run_batched(
    program: &std::sync::Arc<lobster::Program>,
    requests: &[lobster::FactSet],
    batch_size: usize,
) -> Measurement {
    let scheduler = BatchScheduler::new(
        std::sync::Arc::clone(program),
        SchedulerConfig::default()
            .with_max_batch_size(batch_size)
            .with_max_queue_delay(Duration::from_millis(2)),
    );
    let label = if batch_size == 1 {
        "sequential".to_string()
    } else {
        format!("batched-{batch_size}")
    };
    // Clone the request payloads before starting the clock: a real client
    // constructs its request once, so the copy is not part of serving time.
    let payloads: Vec<lobster::FactSet> = requests.to_vec();
    let start = Instant::now();
    let tickets: Vec<(Instant, lobster_serve::Ticket)> = payloads
        .into_iter()
        .map(|request| (Instant::now(), scheduler.submit(request)))
        .collect();
    let latencies: Vec<f64> = tickets
        .into_iter()
        .map(|(submitted, ticket)| {
            ticket.wait().expect("request served");
            submitted.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    Measurement {
        label,
        batch_size,
        wall: start.elapsed(),
        latencies_ms: latencies,
        fixpoints: scheduler.metrics().get("batches").unwrap_or(0),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Multiples of the largest batch size, so no configuration pays a
    // trailing partial batch (and its queue-delay timer) by construction.
    let requests_n: usize = arg_value(&args, "--requests")
        .map(|v| v.parse().expect("--requests takes a number"))
        .unwrap_or_else(|| scaled(96, 64));
    if requests_n < 4 {
        eprintln!("--requests must be at least 4 (the smallest batched configuration)");
        std::process::exit(2);
    }
    let chain_length: usize = arg_value(&args, "--chain-length")
        .map(|v| v.parse().expect("--chain-length takes a number"))
        .unwrap_or_else(|| scaled(5, 4));
    let repeats: usize = arg_value(&args, "--repeats")
        .map(|v| v.parse().expect("--repeats takes a number"))
        .unwrap_or(3)
        .max(1);
    let assert_not_slower = args.iter().any(|a| a == "--assert-batched-not-slower");
    let assert_speedup: Option<f64> = arg_value(&args, "--assert-speedup")
        .map(|v| v.parse().expect("--assert-speedup takes a number"));

    print_header(
        "Serving throughput — batched scheduler vs one-request-at-a-time",
        "CLUTRR workload; one fix-point per batch vs one per request",
    );

    // Compile once through the serving cache — the same path a server takes.
    let cache = ProgramCache::new();
    let program = cache
        .get_or_compile(clutrr::PROGRAM, ProvenanceKind::DiffTop1Proof)
        .expect("CLUTRR program compiles");
    assert_eq!(cache.metrics().get("compiles"), Some(1));

    let mut rng = StdRng::seed_from_u64(42);
    let requests: Vec<lobster::FactSet> = (0..requests_n)
        .map(|_| {
            clutrr::generate(chain_length, &mut rng)
                .facts()
                .to_fact_set()
        })
        .collect();
    println!(
        "{requests_n} requests, chain length {chain_length}, provenance {}\n",
        ProvenanceKind::DiffTop1Proof
    );

    // Warm up allocators and the simulated device so the sequential baseline
    // is not penalized for going first.
    run_direct("warmup", &program, &requests[..requests_n.min(4)]);
    let device_before = program.device().metrics();

    // Every configuration (the baseline included) is measured several times
    // and keeps its best run: wall times here are milliseconds, so a single
    // descheduling blip otherwise dominates the comparison. One selection
    // rule for every row — the CI gates compare like with like.
    let best_of = |run: &dyn Fn() -> Measurement| -> Measurement {
        (0..repeats)
            .map(|_| run())
            .max_by(|a, b| a.samples_per_sec().total_cmp(&b.samples_per_sec()))
            .expect("at least one repeat")
    };
    let direct = best_of(&|| run_direct("direct-loop", &program, &requests));
    let sequential = best_of(&|| run_batched(&program, &requests, 1));
    let batch_sizes: Vec<usize> = [4usize, 8, 16, 32]
        .iter()
        .copied()
        .filter(|b| *b <= requests_n)
        .collect();
    let batched: Vec<Measurement> = batch_sizes
        .iter()
        .map(|b| best_of(&|| run_batched(&program, &requests, *b)))
        .collect();
    let seq_sps = sequential.samples_per_sec();
    println!(
        "{:<20} {:>10} {:>14} {:>10} {:>10} {:>10} {:>9}",
        "config", "fixpoints", "samples/sec", "p50 (ms)", "p99 (ms)", "wall (s)", "speedup"
    );
    for m in [&direct, &sequential].into_iter().chain(&batched) {
        println!(
            "{:<20} {:>10} {:>14.1} {:>10.2} {:>10.2} {:>10.3} {:>8.2}x",
            m.label,
            m.fixpoints,
            m.samples_per_sec(),
            m.percentile_ms(50.0),
            m.percentile_ms(99.0),
            m.wall.as_secs_f64(),
            m.samples_per_sec() / seq_sps.max(1e-12),
        );
    }

    // BENCH_serve.json — machine-readable record, uploaded as a CI artifact.
    // Where the serving wall time went, per kernel bucket.
    let moved = program.device().metrics().delta_since(&device_before);
    let kernel_ms = |bucket: &str| {
        let ns = moved.get(&format!("kernel_time.{bucket}_ns"));
        ns.unwrap_or(0) as f64 / 1e6
    };
    let json = format!(
        "{{\n  \"workload\": \"clutrr\",\n  \"provenance\": \"{}\",\n  \
         \"requests\": {},\n  \"chain_length\": {},\n  \"quick_mode\": {},\n  \
         \"cpus\": {},\n  \
         \"direct_loop\": {},\n  \
         \"kernel_time_ms\": {{\"sort_ms\": {:.3}, \"join_ms\": {:.3}, \
         \"other_ms\": {:.3}}},\n  \
         \"sequential\": {},\n  \"batched\": [\n    {}\n  ]\n}}\n",
        ProvenanceKind::DiffTop1Proof,
        requests_n,
        chain_length,
        quick_mode(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        direct.json(seq_sps),
        kernel_ms("sort"),
        kernel_ms("join"),
        kernel_ms("other"),
        sequential.json(seq_sps),
        batched
            .iter()
            .map(|m| m.json(seq_sps))
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    // The artifact may carry an `overload` section written by the
    // `serve_load` load generator; a throughput rerun must not silently
    // discard it. And a degraded rerun (quick mode / 1 CPU) over a committed
    // full-fidelity artifact warns loudly and stamps the file.
    let mut doc = parse(&json).expect("serve artifact is valid JSON");
    if let Some(overload) = std::fs::read_to_string("BENCH_serve.json")
        .ok()
        .and_then(|old| parse(&old).ok())
        .and_then(|old| old.get("overload").cloned())
    {
        doc.set("overload", overload);
        println!("preserved the existing `overload` section (rerun serve_load to refresh it)");
    }
    if let Some(note) = degraded_overwrite_warning("BENCH_serve.json", ArtifactMode::current(false))
    {
        doc.set("mode_warning", Json::from(note.as_str()));
    }
    std::fs::write("BENCH_serve.json", doc.to_pretty() + "\n").expect("write BENCH_serve.json");
    println!("\nwrote BENCH_serve.json");

    let largest = batched.last().expect("at least one batch size");
    let speedup = largest.samples_per_sec() / seq_sps.max(1e-12);
    if assert_not_slower && speedup < 1.0 {
        eprintln!(
            "FAIL: batched throughput ({:.1}/s at batch {}) below sequential ({seq_sps:.1}/s)",
            largest.samples_per_sec(),
            largest.batch_size,
        );
        std::process::exit(1);
    }
    if let Some(required) = assert_speedup {
        if speedup < required {
            eprintln!(
                "FAIL: batched speedup {speedup:.2}x at batch {} below required {required:.2}x",
                largest.batch_size,
            );
            std::process::exit(1);
        }
    }
}
