//! Kernel-layer throughput: every hot kernel at parallelism 1/2/4/8 plus an
//! end-to-end transitive-closure fix-point, written to `BENCH_kernels.json`.
//!
//! Each kernel row reports the best-of-N wall time at a given worker count
//! over the *same* input data, so `speedup_vs_p1` isolates what the parallel
//! decomposition (merge-path partitioning, partitioned hash builds, chunked
//! probes, whole segments per worker) actually buys on this machine. The
//! separate `sort_permutation` and `unique` references run sequentially at
//! every worker count, so they have no rows here; `sort_permutation` only
//! prepares the sorted inputs, outside the timings. The end-to-end
//! chain-TC row publishes no factor: its frontiers stay under
//! `min_parallel_rows`, so every launch is sequential whatever the worker
//! count and a factor against parallelism 1 could not move. Beside its wall
//! time it records two work counters that repeat exactly, so they read the
//! same on a machine too noisy for wall time: `candidate_rows`, the rows the
//! update phase was handed, and `rows_searched`, the distinct ones it
//! searched for in the known runs — all of them but those the known-row
//! sketch ruled out. A
//! `kernel_time_ms` section breaks the device's accumulated chunk-execution
//! (busy) time into the sort/join/unique buckets of its metrics
//! ([`Device::metrics`]' `kernel_time`), and `kernel_wall_ms` does the same
//! for enqueue-to-completion wall time — busy exceeding wall means pool lanes
//! overlapped; wall far above busy/lanes means the pool queued. Busy time is
//! published only up to one lane per CPU: past that it is `null`, with the
//! reason, because a chunk's busy time is a wall-clock interval that counts
//! the time its lane sat descheduled. The `sort_unique` row, measured after
//! the others at every lane count, runs [`kernels::sort_unique`] over a 2
//! M-row candidate of one-word rows shaped like `tc_dense`'s against a 250
//! k-row known run (a quarter of each in quick mode); the
//! `sort_unique_two_word` row, measured last, runs it over the same rows
//! with `x` and `y` in two words each, as a batched relation's sample-id
//! column keeps them. This is what lets serving-layer numbers (`BENCH_serve.json`) be
//! attributed to individual kernels; `docs/PERFORMANCE.md` walks through
//! reading both.
//!
//! Run with `cargo run -p lobster-bench --release --bin kernel_bench`.
//! Knobs:
//!
//! * `--quick` / `LOBSTER_BENCH_QUICK=1` — shrink the workload for a CI
//!   smoke run.
//! * `--rows N` — per-kernel input size override.
//! * `--assert-parallel-factor X` — exit non-zero unless `sort_unique` (the
//!   one-word row, the engine's candidate-to-frontier kernel) *and*
//!   hash_build at parallelism 4 each reach `X ×` the parallelism-1
//!   throughput. Kernel pool workers are threads, so on a single-CPU
//!   machine they cannot overlap; the gate is skipped (but the factors
//!   still recorded) when fewer than 2 CPUs are available.
//! * `--assert-merge-join-factor X` — exit non-zero unless the merge join
//!   (pre-sorted build side, no index) beats a hash join *including* its
//!   index build by `X ×` at parallelism 4 — the wall-clock case the APM
//!   compiler exploits when both of a join's inputs arrive sorted on the
//!   key and it emits `MergeCount`/`MergeJoin` instead of a hash join.
//!
//! `BENCH_kernels.json` records the machine context (`cpus`) and each
//! gate's outcome (`not-requested` / `passed` / `failed` /
//! `skipped-single-cpu`), so a recorded run is self-describing: a missing
//! speedup on a one-CPU runner is distinguishable from a regression.

use lobster::{Lobster, ProvenanceKind, SymbolTable, Value};
use lobster_bench::{arg_value, best_of, print_header, quick_mode};
use lobster_gpu::{kernels, Device, DeviceConfig, HashIndex, Snapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const PARALLELISMS: [usize; 4] = [1, 2, 4, 8];

/// One measured configuration of one kernel.
struct Row {
    kernel: &'static str,
    parallelism: usize,
    rows: usize,
    wall: Duration,
    /// An `e2e` row's work counters, which repeat exactly:
    /// `ExecutionStats::rows_searched` and `candidate_rows`.
    work: Option<(usize, usize)>,
}

impl Row {
    /// The row as JSON, with `speedup_vs_p1` when a factor is given.
    fn json(&self, speedup_vs_p1: Option<f64>) -> String {
        let speedup = speedup_vs_p1.map_or(String::new(), |factor| {
            format!(", \"speedup_vs_p1\": {factor:.3}")
        });
        let work = self.work.map_or(String::new(), |(searched, candidates)| {
            format!(", \"rows_searched\": {searched}, \"candidate_rows\": {candidates}")
        });
        format!(
            "{{\"kernel\": \"{}\", \"parallelism\": {}, \"rows\": {}, \
             \"wall_ms\": {:.3}{work}{speedup}}}",
            self.kernel,
            self.parallelism,
            self.rows,
            self.wall.as_secs_f64() * 1e3,
        )
    }
}

fn device_with(parallelism: usize) -> Device {
    Device::new(DeviceConfig {
        parallelism,
        min_parallel_rows: 1024,
        ..DeviceConfig::default()
    })
}

fn refs(cols: &[Vec<u64>]) -> Vec<&[u64]> {
    cols.iter().map(|c| c.as_slice()).collect()
}

/// The rows of `cols` in the order of `device`'s sort, and their tags: the
/// sorted inputs some kernels require, prepared outside the timings.
fn sorted_on(device: &Device, cols: &[Vec<u64>], tags: &[f64]) -> (Vec<Vec<u64>>, Vec<f64>) {
    let perm = kernels::sort_permutation(device, &refs(cols));
    let sorted = cols
        .iter()
        .map(|col| perm.iter().map(|&i| col[i as usize]).collect())
        .collect();
    (sorted, kernels::gather_tags(device, &perm, tags))
}

fn random_cols(rng: &mut StdRng, rows: usize, arity: usize, key_space: u64) -> Vec<Vec<u64>> {
    (0..arity)
        .map(|_| (0..rows).map(|_| rng.gen_range(0..key_space)).collect())
        .collect()
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = quick_mode() || args.iter().any(|a| a == "--quick");
    let scale = |full: usize, small: usize| if quick { small } else { full };
    // Quick mode still uses enough rows that per-chunk compute dominates
    // thread-spawn overhead on small CI runners — the ≥1.0× gate measures
    // the decomposition, not the spawn cost.
    let rows: usize = arg_value(&args, "--rows")
        .map(|v| v.parse().expect("--rows takes a number"))
        .unwrap_or_else(|| scale(400_000, 150_000));
    let repeats: usize = arg_value(&args, "--repeats")
        .map(|v| v.parse().expect("--repeats takes a number"))
        .unwrap_or(3)
        .max(1);
    let assert_factor: Option<f64> = arg_value(&args, "--assert-parallel-factor")
        .map(|v| v.parse().expect("--assert-parallel-factor takes a number"));
    let assert_merge_factor: Option<f64> =
        arg_value(&args, "--assert-merge-join-factor").map(|v| {
            v.parse()
                .expect("--assert-merge-join-factor takes a number")
        });
    let tc_edges = scale(400, 120);

    print_header(
        "Kernel throughput — segment-parallel sort_unique, chunked joins",
        "same inputs at 1/2/4/8 workers; speedups isolate the parallel decomposition",
    );

    let mut rng = StdRng::seed_from_u64(7);
    // Shared inputs. Small key spaces create the duplicate/match density a
    // fix-point actually sees.
    let table = random_cols(&mut rng, rows, 2, (rows as u64 / 2).max(8));
    let tags: Vec<f64> = (0..rows)
        .map(|_| rng.gen_range(0..1 << 20) as f64 * 0.5)
        .collect();
    let counts: Vec<u64> = (0..rows).map(|_| rng.gen_range(0..4)).collect();
    let build = random_cols(&mut rng, rows, 1, (rows as u64 / 4).max(4));
    let probe = random_cols(&mut rng, rows, 1, (rows as u64 / 4).max(4));
    let half = rows / 2;
    // A fix-point candidate shaped like `tc_dense`'s: packed `(x, y)` words
    // whose leading lane comes in runs of 1 000 rows (a join emits in probe
    // order) with 9 varying low bits, and a sorted run of known words — 125
    // of the 512 `y`s of every `x`.
    let sources = scale(2_000, 500) as u64;
    let candidate: Vec<u64> = (0..sources * 1000)
        .map(|i| (i / 1000) << 32 | rng.gen_range(0..512))
        .collect();
    let candidate_tags: Vec<f64> = candidate.iter().map(|_| rng.gen_range(0.0..1.0)).collect();
    let known: Vec<u64> = (0..sources)
        .flat_map(|x| {
            let mut ys: Vec<u64> = (0..125).map(|k| (x * 7 + 4 * k) % 512).collect();
            ys.sort_unstable();
            ys.into_iter().map(move |y| x << 32 | y)
        })
        .collect();
    // The same rows and known run with `x` and `y` in a word each.
    let split = |words: &[u64]| -> Vec<Vec<u64>> {
        let column = |shift: u32| words.iter().map(|w| w >> shift & 0xFFFF_FFFF).collect();
        vec![column(32), column(0)]
    };
    let (candidate_2w, known_2w) = (split(&candidate), split(&known));

    let mut rows_out: Vec<Row> = Vec::new();
    let mut times_out: Vec<(usize, Snapshot)> = Vec::new();
    for &p in &PARALLELISMS {
        let device = device_with(p);
        // Inputs that must be pre-sorted are prepared outside the timings.
        let (sorted, sorted_tags) = sorted_on(&device, &table, &tags);
        let (a_half, at_half) = (
            sorted
                .iter()
                .map(|c| c[..half].to_vec())
                .collect::<Vec<_>>(),
            &sorted_tags[..half],
        );
        // The merge join's precondition — *both* sides sorted on the key —
        // is prepared outside the timings, exactly as the executor sees it
        // when the compiler picks the merge path (stable partitions
        // are maintained sorted; the sort is never paid per join). All three
        // join rows run over these same sorted inputs, so they compare the
        // strategies the compiler actually chooses between and
        // `hash_build_join` − `hash_join` is the cost of the index build.
        let (sorted_build, _) = sorted_on(&device, &build, &tags);
        let (sorted_probe, _) = sorted_on(&device, &probe, &tags);
        let index = HashIndex::build(&device, &refs(&sorted_build), 2);

        let mut bench = |kernel: &'static str, rows: usize, f: &mut dyn FnMut()| {
            let wall = best_of(repeats, || {
                let start = Instant::now();
                f();
                start.elapsed()
            });
            rows_out.push(Row {
                kernel,
                parallelism: p,
                rows,
                wall,
                work: None,
            });
        };

        bench("scan", rows, &mut || {
            let (offsets, _) = kernels::scan(&device, &counts);
            device.arena().recycle_shared(offsets);
        });
        bench("merge", rows, &mut || {
            let (cols, _tags) = kernels::merge(
                &device,
                &refs(&sorted),
                &sorted_tags,
                &refs(&a_half),
                at_half,
            );
            for col in cols {
                device.arena().recycle_shared(col);
            }
        });
        bench("difference", rows, &mut || {
            let (cols, _tags) =
                kernels::difference(&device, &refs(&sorted), &sorted_tags, &refs(&a_half), half);
            for col in cols {
                device.arena().recycle_shared(col);
            }
        });
        bench("eval", rows, &mut || {
            let col0 = &sorted[0];
            let col1 = &sorted[1];
            let (cols, src) = kernels::eval(&device, rows, 2, |range, sink| {
                let mut out = [0u64; 2];
                for i in range {
                    if col0[i] % 5 != 0 {
                        out[0] = col0[i].wrapping_mul(3) + 1;
                        out[1] = col1[i] ^ col0[i];
                        sink.emit(i, &out);
                    }
                }
            });
            for col in cols {
                device.arena().recycle_shared(col);
            }
            device.arena().recycle_shared(src);
        });
        bench("hash_build", rows, &mut || {
            // The partitioned index build: hash once, radix-scatter row ids
            // by partition, build the per-partition slot tables in parallel.
            let fresh = HashIndex::build(&device, &refs(&build), 2);
            fresh.recycle(&device);
        });
        bench("hash_join", rows, &mut || {
            // The static-register case: the index (partitioned at this row
            // count) outlives the iteration; count, scan, join.
            let counts = kernels::count_matches(&device, &index, &refs(&sorted_probe));
            let (offsets, total) = kernels::scan(&device, &counts);
            let (bi, pi) = kernels::hash_join(
                &device,
                &index,
                &refs(&sorted_probe),
                &counts,
                &offsets,
                total,
            );
            for col in [counts, offsets, bi, pi] {
                device.arena().recycle_shared(col);
            }
        });
        bench("hash_build_join", rows, &mut || {
            // The per-iteration cost when the index cannot be reused (the
            // non-static case): build, count, scan, join.
            let fresh = HashIndex::build(&device, &refs(&sorted_build), 2);
            let counts = kernels::count_matches(&device, &fresh, &refs(&sorted_probe));
            let (offsets, total) = kernels::scan(&device, &counts);
            let (bi, pi) = kernels::hash_join(
                &device,
                &fresh,
                &refs(&sorted_probe),
                &counts,
                &offsets,
                total,
            );
            for col in [counts, offsets, bi, pi] {
                device.arena().recycle_shared(col);
            }
        });
        bench("merge_join", rows, &mut || {
            // The index-free path of a compiled merge join
            // (`MergeCount`/`MergeJoin`): binary searches over the sorted
            // build side, no build step at all.
            let counts = kernels::merge_count(&device, &refs(&sorted_build), &refs(&sorted_probe));
            let (offsets, total) = kernels::scan(&device, &counts);
            let (bi, pi) = kernels::merge_join(
                &device,
                &refs(&sorted_build),
                &refs(&sorted_probe),
                &counts,
                &offsets,
                total,
            );
            for col in [counts, offsets, bi, pi] {
                device.arena().recycle_shared(col);
            }
        });
        // Candidate rows to new frontier in one launch: sort, fold the tags
        // of duplicates (max, as min-max probability does), drop what the
        // known run holds — over one-word rows, then over the same rows in
        // two words, whose segments are one `x` each and take the
        // direct-address path. Last, because a 2 M-row launch leaves buffers
        // in the arena pools that change what the rows after it read (`eval`
        // at one lane ran 2x faster behind it).
        let one_word = (vec![candidate.as_slice()], vec![known.as_slice()]);
        let two_words = (refs(&candidate_2w), refs(&known_2w));
        for (kernel, (rows, known)) in [
            ("sort_unique", &one_word),
            ("sort_unique_two_word", &two_words),
        ] {
            bench(kernel, candidate.len(), &mut || {
                let or = |a: &f64, b: &f64| a.max(*b);
                let (cols, _, _) =
                    kernels::sort_unique(&device, rows, &candidate_tags, or, known, None);
                for col in cols {
                    device.arena().recycle_shared(col);
                }
            });
        }

        times_out.push((p, device.metrics()));
    }

    // End-to-end: the canonical transitive-closure fix-point, whose cost is
    // dominated by exactly the kernels measured above.
    let tc_source = "type edge(x: u32, y: u32)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";
    let mut e2e_rows: Vec<Row> = Vec::new();
    for &p in &PARALLELISMS {
        let mut work = (0, 0);
        let wall = best_of(repeats, || {
            // The e2e row uses the production chunking threshold: small
            // fix-point iterations stay sequential, exactly as served
            // traffic would run them.
            let device = Device::new(DeviceConfig {
                parallelism: p,
                ..DeviceConfig::default()
            });
            let program = Lobster::builder(tc_source)
                .device(device)
                .provenance(ProvenanceKind::Unit)
                .compile()
                .expect("TC compiles");
            let mut session = program.session();
            for i in 0..tc_edges as u32 {
                session
                    .add_fact("edge", &[Value::U32(i), Value::U32(i + 1)], None)
                    .expect("edge fact");
            }
            let start = Instant::now();
            let result = session.run().expect("TC runs");
            let elapsed = start.elapsed();
            assert!(result.len("path") > tc_edges);
            work = (result.stats.rows_searched, result.stats.candidate_rows);
            elapsed
        });
        e2e_rows.push(Row {
            kernel: "transitive_closure",
            parallelism: p,
            rows: tc_edges,
            wall,
            work: Some(work),
        });
    }

    // Wide-string workload: the same transitive closure, but over *symbol*
    // keys — long entity names interned to ids — in the packed storage
    // every program gets: the two 4-byte symbol lanes of every table pack
    // into a single word column. `bytes_per_fixpoint` is the host↔device
    // transfer volume the run records (the sealed input in, the whole
    // fix-point database out), which is deterministic for a given
    // workload; wall time rides along for context. That one word per
    // column would move at least 1.2× the bytes is asserted in tier-1
    // (`strategy_agreement.rs`), not measured here.
    let sym_source = "type edge(x: symbol, y: symbol)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";
    let sym_edges = tc_edges;
    let symbols = SymbolTable::global();
    let ids: Vec<u32> = (0..=sym_edges as u32)
        .map(|i| symbols.intern(&format!("entity-with-a-rather-long-name-{i:06}")))
        .collect();
    let (wide_wall, wide_bytes) = (0..repeats)
        .map(|_| {
            let device = Device::new(DeviceConfig {
                parallelism: 4,
                ..DeviceConfig::default()
            });
            let program = Lobster::builder(sym_source)
                .device(device.clone())
                .provenance(ProvenanceKind::Unit)
                .compile()
                .expect("symbol TC compiles");
            let mut session = program.session();
            for pair in ids.windows(2) {
                session
                    .add_fact(
                        "edge",
                        &[Value::Symbol(pair[0]), Value::Symbol(pair[1])],
                        None,
                    )
                    .expect("edge fact");
            }
            let before = device.metrics();
            let start = Instant::now();
            let result = session.run().expect("symbol TC runs");
            let wall = start.elapsed();
            let moved = device.metrics().delta_since(&before);
            assert!(result.len("path") > sym_edges);
            let bytes = |direction| moved.get(direction).unwrap_or(0);
            (wall, bytes("bytes_to_device") + bytes("bytes_to_host"))
        })
        .min()
        .expect("at least one repeat");

    // Wall seconds of one measured kernel row.
    let wall_at = |kernel: &str, p: usize| {
        rows_out
            .iter()
            .find(|r| r.kernel == kernel && r.parallelism == p)
            .map(|r| r.wall.as_secs_f64())
            .expect("row measured")
    };
    let factor = |kernel: &str, p: usize| wall_at(kernel, 1) / wall_at(kernel, p).max(1e-12);
    println!(
        "{:<20} {:>12} {:>6} {:>12} {:>9}",
        "kernel", "rows", "par", "wall (ms)", "speedup"
    );
    for r in &rows_out {
        println!(
            "{:<20} {:>12} {:>6} {:>12.3} {:>8.2}x",
            r.kernel,
            r.rows,
            r.parallelism,
            r.wall.as_secs_f64() * 1e3,
            factor(r.kernel, r.parallelism),
        );
    }
    for r in &e2e_rows {
        println!(
            "{:<20} {:>12} {:>6} {:>12.3}",
            r.kernel,
            r.rows,
            r.parallelism,
            r.wall.as_secs_f64() * 1e3,
        );
    }

    println!(
        "{:<20} {:>12} {:>6} {:>12.3} {:>9.2}MB",
        "sym_tc_encoded",
        sym_edges,
        4,
        wide_wall.as_secs_f64() * 1e3,
        wide_bytes as f64 / 1e6,
    );

    let sort_unique_factor = factor("sort_unique", 4);
    let hash_build_factor = factor("hash_build", 4);
    // How much the sorted-build merge path buys over paying a fresh hash
    // index every join, at the gate parallelism.
    let merge_factor = wall_at("hash_build_join", 4) / wall_at("merge_join", 4).max(1e-12);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Evaluate the gates *before* writing the JSON so each outcome is
    // recorded alongside the numbers it judged; the process still exits
    // non-zero after the write when a requested gate failed.
    let parallel_gate = match assert_factor {
        None => "not-requested",
        Some(_) if cpus < 2 => {
            // Kernel pool workers are threads; on one CPU they serialize, so
            // the factor measures the machine, not the kernels.
            println!(
                "sort_unique x4 {sort_unique_factor:.2}x / hash_build x4 \
                 {hash_build_factor:.2}x — gate skipped \
                 ({cpus} CPU available, workers cannot overlap)"
            );
            "skipped-single-cpu"
        }
        Some(required) if sort_unique_factor < required || hash_build_factor < required => {
            eprintln!(
                "FAIL: parallel(4) sort_unique {sort_unique_factor:.2}x / \
                 hash_build {hash_build_factor:.2}x below required {required:.2}x vs sequential"
            );
            "failed"
        }
        Some(required) => {
            println!(
                "sort_unique x4 {sort_unique_factor:.2}x / hash_build x4 \
                 {hash_build_factor:.2}x (required ≥ {required:.2}x)"
            );
            "passed"
        }
    };
    let merge_gate = match assert_merge_factor {
        None => "not-requested",
        Some(required) if merge_factor < required => {
            eprintln!(
                "FAIL: merge join {merge_factor:.2}x vs hash-join-with-build, \
                 below required {required:.2}x"
            );
            "failed"
        }
        Some(required) => {
            println!(
                "merge join {merge_factor:.2}x vs hash-join-with-build (required ≥ {required:.2}x)"
            );
            "passed"
        }
    };
    let kernel_rows_json = rows_out
        .iter()
        .map(|r| r.json(Some(factor(r.kernel, r.parallelism))))
        .collect::<Vec<_>>()
        .join(",\n    ");
    let e2e_json = e2e_rows
        .iter()
        .map(|r| r.json(None))
        .collect::<Vec<_>>()
        .join(",\n    ");
    let time_buckets = |metrics: &Snapshot, group: &str| {
        let ms = |bucket: &str| {
            let ns = metrics.get(&format!("{group}.{bucket}_ns")).unwrap_or(0);
            format!("\"{bucket}_ms\": {:.3}", ns as f64 / 1e6)
        };
        [ms("sort"), ms("join"), ms("unique"), ms("other")].join(", ")
    };
    // A chunk's busy time is a wall-clock interval on its worker, so with
    // more lanes than CPUs it also counts the time a lane sat descheduled:
    // those buckets are not published.
    let times_json = times_out
        .iter()
        .map(|(p, metrics)| {
            if *p > cpus {
                format!(
                    "{{\"parallelism\": {p}, \"sort_ms\": null, \"join_ms\": null, \
                     \"unique_ms\": null, \"other_ms\": null, \"reason\": \"{p} lanes on \
                     {cpus} CPUs: busy time per chunk is a wall-clock interval and would \
                     count the time a lane sits descheduled\"}}"
                )
            } else {
                let buckets = time_buckets(metrics, "kernel_time");
                format!("{{\"parallelism\": {p}, {buckets}}}")
            }
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let walls_json = times_out
        .iter()
        .map(|(p, metrics)| {
            let buckets = time_buckets(metrics, "kernel_wall");
            format!("{{\"parallelism\": {p}, {buckets}}}")
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let wide_json = format!(
        "{{\"mode\": \"encoded\", \"edges\": {sym_edges}, \"parallelism\": 4, \
         \"wall_ms\": {:.3}, \"bytes_per_fixpoint\": {wide_bytes}}}",
        wide_wall.as_secs_f64() * 1e3,
    );
    let json = format!(
        "{{\n  \"workload\": \"synthetic-kernels\",\n  \"rows\": {rows},\n  \
         \"tc_edges\": {tc_edges},\n  \"quick_mode\": {quick},\n  \"cpus\": {cpus},\n  \
         \"kernels\": [\n    {kernel_rows_json}\n  ],\n  \
         \"e2e\": [\n    {e2e_json}\n  ],\n  \
         \"wide_string\": [\n    {wide_json}\n  ],\n  \
         \"kernel_time_ms\": [\n    {times_json}\n  ],\n  \
         \"kernel_wall_ms\": [\n    {walls_json}\n  ],\n  \
         \"sort_unique_parallel4_factor\": {sort_unique_factor:.3},\n  \
         \"hash_build_parallel4_factor\": {hash_build_factor:.3},\n  \
         \"merge_vs_hash_build_parallel4_factor\": {merge_factor:.3},\n  \
         \"parallel_factor_gate\": \"{parallel_gate}\",\n  \
         \"merge_join_gate\": \"{merge_gate}\"\n}}\n",
    );
    // A degraded rerun (quick mode / 1 CPU) over a committed full-fidelity
    // artifact warns loudly and stamps the file.
    let json = match lobster_bench::degraded_overwrite_warning(
        "BENCH_kernels.json",
        lobster_bench::ArtifactMode::current(quick),
    ) {
        Some(note) => {
            let mut doc = lobster_serve::json::parse(&json).expect("kernel artifact is valid JSON");
            doc.set(
                "mode_warning",
                lobster_serve::json::Json::from(note.as_str()),
            );
            doc.to_pretty() + "\n"
        }
        None => json,
    };
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("\nwrote BENCH_kernels.json");

    if parallel_gate == "failed" || merge_gate == "failed" {
        std::process::exit(1);
    }
}
