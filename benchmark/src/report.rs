//! The metric tables (the source `BENCHMARK.json` is generated from), the
//! stamp every output document carries, and the result line the driver reads.

use crate::measure::{first_line, nproc};
use crate::workloads::WORKLOADS;
use lobster_serve::json::{obj, Json};
use std::path::PathBuf;
use std::process::Command;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The share by which the metric may worsen before it counts as a
    /// regression, and within which two same-code run sets must agree.
    pub bound: f64,
}

/// Why each metric and bound is what it is: see the README's "End-to-end
/// metrics". Every time here is a low percentile, because on a shared machine
/// that is the only kind that repeats.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p10_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_p10_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "alloc_mb_per_op",
        unit: "MB",
        better: "lower",
        bound: 0.05,
    },
];

/// `(name, unit, better)` of every per-layer metric a traced run reports.
pub const PER_LAYER: [(&str, &str, &str); 54] = [
    ("datalog.parse_ms", "ms", "lower"),
    ("ram.passes_ms", "ms", "lower"),
    ("core.compile_ms", "ms", "lower"),
    ("serve.cache.miss_ms", "ms", "lower"),
    ("serve.cache.hit_us", "us", "lower"),
    ("apm.compile_ms", "ms", "lower"),
    ("apm.load_ms", "ms", "lower"),
    ("apm.execute_ms", "ms", "lower"),
    ("apm.decode_ms", "ms", "lower"),
    ("apm.execute_ms_per_iteration", "ms", "lower"),
    ("gpu.sort_permutation_ms", "ms", "lower"),
    ("gpu.unique_ms", "ms", "lower"),
    ("gpu.merge_ms", "ms", "lower"),
    ("gpu.difference_ms", "ms", "lower"),
    ("gpu.hash_build_ms", "ms", "lower"),
    ("gpu.hash_join_ms", "ms", "lower"),
    ("gpu.merge_join_ms", "ms", "lower"),
    ("gpu.sort_permutation_mrows_per_s", "Mrows/s", "higher"),
    ("gpu.hash_join_mrows_per_s", "Mrows/s", "higher"),
    ("gpu.merge_join_mrows_per_s", "Mrows/s", "higher"),
    ("gpu.launch_floor_us", "us", "lower"),
    ("gpu.parallel2_factor", "ratio", "lower"),
    ("provenance.minmaxprob.tagop_ns", "ns", "lower"),
    ("provenance.difftop1.tagop_ns", "ns", "lower"),
    ("provenance.tag_overhead_ratio", "ratio", "lower"),
    ("core.session.open_us", "us", "lower"),
    ("core.session.insert_facts_us", "us", "lower"),
    ("core.session.run_ms", "ms", "lower"),
    ("core.session.run_batch1_ms", "ms", "lower"),
    ("core.session.run_batch32_ms_per_sample", "ms", "lower"),
    ("core.incremental.materialize_ms", "ms", "lower"),
    ("core.incremental.insert_ms", "ms", "lower"),
    ("core.incremental.retract_ms", "ms", "lower"),
    ("serve.json.parse_us", "us", "lower"),
    ("serve.json.serialize_us", "us", "lower"),
    ("serve.auth.check_ns", "ns", "lower"),
    ("serve.admission.admit_ns", "ns", "lower"),
    ("serve.scheduler.roundtrip_ms", "ms", "lower"),
    ("serve.scheduler.batch32_ms_per_req", "ms", "lower"),
    ("serve.net.roundtrip_ms", "ms", "lower"),
    ("serve.net.ping_us", "us", "lower"),
    ("baselines.scallop.op_ms", "ms", "lower"),
    ("baselines.scallop.speedup", "ratio", "higher"),
    ("harness.op_p50_ms", "ms", "lower"),
    ("harness.ops_per_s", "1/s", "higher"),
    ("harness.cpu_ms_per_op", "ms", "lower"),
    ("harness.op_p90_ms", "ms", "lower"),
    ("harness.op_p99_ms", "ms", "lower"),
    ("harness.op_max_ms", "ms", "lower"),
    ("harness.alloc_calls_per_op", "count", "lower"),
    ("harness.rss_growth_mb", "MB", "lower"),
    ("harness.disturbed_share", "ratio", "lower"),
    ("harness.trace_overhead_pct", "%", "lower"),
    ("harness.layers_sum_pct", "%", "higher"),
];

/// Seconds one run measures under the driver: long enough for 60 or more
/// ops of the slowest workload, short enough that the driver's 92 runs and
/// two builds fit its cap with a third to spare.
pub const RUN_SECONDS: u64 = 20;

/// The document at the root of the repository, generated from the tables
/// above so that the two cannot disagree.
pub fn manifest() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| obj([("name", Json::from(*name)), ("why", Json::from(*why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|metric| {
            obj([
                ("name", Json::from(metric.name)),
                ("unit", Json::from(metric.unit)),
                ("better", Json::from(metric.better)),
                ("bound", Json::Num(metric.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            obj([
                ("name", Json::from(*name)),
                ("unit", Json::from(*unit)),
                ("better", Json::from(*better)),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj([
        (
            "command",
            Json::Arr(command.iter().map(|word| Json::from(*word)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

/// The harness's own directory, fixed when it was built: outputs go to
/// `out/` beneath it whatever the working directory is.
pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// What one run measured, by metric name in table order.
pub type Metrics = Vec<(&'static str, f64)>;

/// One run of one workload.
#[derive(Default)]
pub struct Report {
    /// Requests issued in the measured phases, and how many of them erred,
    /// were refused or answered wrongly.
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub metrics: Metrics,
    /// What the run did and what it measured besides: printed and written
    /// to the document, neither gated nor part of the driver's line.
    pub details: Vec<(&'static str, Json)>,
    /// Lines for the reader only (the span summary of a traced run).
    pub table: Vec<String>,
    /// Too long to print, written to the document: per-op times, spans.
    pub bulk: Vec<(&'static str, Json)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `{name: value}` of every metric, for the documents.
    pub fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, value)| ((*name).to_string(), Json::Num(*value)))
                .collect(),
        )
    }

    /// The line the driver reads: exactly these four keys.
    pub fn result_line(&self, units: impl Fn(&str) -> &'static str) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let metric = obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::from(units(name))),
                ]);
                ((*name).to_string(), metric)
            })
            .collect();
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_compact()
    }
}

pub fn end_to_end_unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|metric| metric.name == name)
        .map_or("", |metric| metric.unit)
}

pub fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|metric| metric.0 == name)
        .map_or("", |metric| metric.1)
}

/// Where and how a document was measured. A document stamped `smoke` or
/// `degraded` is never comparable with another.
pub fn stamp(workload: &str, seed: u64, seconds: f64, smoke: bool) -> Vec<(&'static str, Json)> {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").map_or_else(
        |_| "unknown".to_string(),
        |release| release.trim().to_string(),
    );
    // The ceiling keeps git from searching above the checkout for a
    // repository when the checkout itself is none.
    let dir = benchmark_dir();
    let ceiling = dir.parent().and_then(|root| root.parent()).unwrap_or(&dir);
    let commit = first_line(
        Command::new("git")
            .env("GIT_CEILING_DIRECTORIES", ceiling)
            .arg("-C")
            .arg(&dir)
            .args(["rev-parse", "HEAD"]),
    );
    vec![
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        // One busy thread plus one spare is what the design assumes.
        ("degraded", Json::Bool(nproc() < 2)),
        ("nproc", Json::from(nproc())),
        ("kernel", Json::from(kernel.as_str())),
        (
            "rustc",
            Json::from(first_line(Command::new("rustc").arg("-V")).as_str()),
        ),
        ("git_commit", Json::from(commit.as_str())),
        ("build_profile", Json::from("release")),
    ]
}

/// A document's pairs as the `Json` object they form.
pub fn document(pairs: Vec<(&'static str, Json)>) -> Json {
    Json::Obj(
        pairs
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}
