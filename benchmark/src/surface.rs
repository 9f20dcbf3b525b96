//! The harness stays off everything ROADMAP item 4 deletes, so that those
//! refactors need not touch `benchmark/`. `--smoke` fails when a source file
//! mentions one of these names.

/// Every source file of the harness but this one, which has to spell the
/// names out.
const SOURCES: [(&str, &str); 17] = [
    ("alloc.rs", include_str!("alloc.rs")),
    ("inputs.rs", include_str!("inputs.rs")),
    ("layers.rs", include_str!("layers.rs")),
    ("main.rs", include_str!("main.rs")),
    ("measure.rs", include_str!("measure.rs")),
    ("oracle.rs", include_str!("oracle.rs")),
    ("pin.rs", include_str!("pin.rs")),
    ("prng.rs", include_str!("prng.rs")),
    ("replay.rs", include_str!("replay.rs")),
    ("report.rs", include_str!("report.rs")),
    ("run.rs", include_str!("run.rs")),
    ("sys.rs", include_str!("sys.rs")),
    ("trace.rs", include_str!("trace.rs")),
    (
        "workloads/clutrr_serve.rs",
        include_str!("workloads/clutrr_serve.rs"),
    ),
    (
        "workloads/incr_updates.rs",
        include_str!("workloads/incr_updates.rs"),
    ),
    ("workloads/mod.rs", include_str!("workloads/mod.rs")),
    ("workloads/tc.rs", include_str!("workloads/tc.rs")),
];

/// The deprecated shim, the typed twins of the `Dyn` API, the monolithic
/// join kept only to be benchmarked against, the offload planner, every
/// option that is not the default, and every hand-rolled `*Stats` struct.
const BANNED: [&str; 14] = [
    "LobsterContext",
    "compile_typed",
    "Program<",
    "SessionPool",
    "ShardedExecutor",
    "hash_join_monolithic",
    "build_partitioned",
    "OffloadPlan",
    "plan_offload",
    "RuntimeOptions {",
    "RuntimeOptions::optimized",
    "RuntimeOptions::unoptimized",
    "stratum_scheduling",
    "Stats",
];

/// `file: name` for every banned name a source file mentions.
pub fn violations() -> Vec<String> {
    SOURCES
        .iter()
        .flat_map(|(file, text)| {
            BANNED
                .iter()
                .filter(|name| text.contains(**name))
                .map(move |name| format!("{file}: {name}"))
        })
        .collect()
}
