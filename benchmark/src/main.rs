//! The repo benchmark. One run of one workload, as the driver asks for it:
//!
//! ```text
//! lobster-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints every metric by name and unit and, as its last line, the result
//! the driver reads. `all` runs every workload both ways, `repeat` checks
//! that two sets of runs agree within the bounds, `--smoke` is a fast check
//! of the harness itself. See the README.

mod alloc;
mod inputs;
mod layers;
mod measure;
mod oracle;
mod pin;
mod prng;
mod replay;
mod report;
mod run;
mod surface;
mod sys;
mod trace;
mod workloads;

use lobster_serve::json::{self, Json};
use report::{end_to_end_unit, per_layer_unit, Report, END_TO_END, RUN_SECONDS};
use run::Plan;
use std::process::{Command, ExitCode, Stdio};
use workloads::clutrr_serve::ClutrrServe;
use workloads::incr_updates::IncrUpdates;
use workloads::tc::Tc;
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  lobster-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  lobster-benchmark all      [--seed N] [--seconds S] [--smoke]
  lobster-benchmark repeat   [--sets K] [--seed N] [--seconds S] [--smoke]
  lobster-benchmark manifest
  lobster-benchmark --smoke
workloads: tc_chain, tc_dense, clutrr_serve, incr_updates";

/// Seconds per run under `--smoke`: about 1 % of the default op counts.
const SMOKE_SECONDS: f64 = 0.2;

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    sets: usize,
    smoke: bool,
}

impl Args {
    fn parse(words: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            command: None,
            workload: None,
            seed: 1,
            seconds: None,
            trace: false,
            sets: 2,
            smoke: false,
        };
        let mut words = words.peekable();
        if let Some(first) = words.peek() {
            if !first.starts_with("--") {
                args.command = words.next();
            }
        }
        while let Some(flag) = words.next() {
            if flag == "--smoke" {
                args.smoke = true;
                continue;
            }
            let value = words
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => args.workload = Some(value),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    let seconds: f64 = value.parse().map_err(|_| bad())?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err(bad());
                    }
                    args.seconds = Some(seconds);
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--sets" => {
                    args.sets = value.parse().map_err(|_| bad())?;
                    if args.sets < 2 {
                        return Err(bad());
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(args)
    }

    fn plan(&self) -> Plan {
        Plan {
            seed: self.seed,
            seconds: match (self.smoke, self.seconds) {
                (true, _) => SMOKE_SECONDS,
                (false, Some(seconds)) => seconds,
                (false, None) => RUN_SECONDS as f64,
            },
            smoke: self.smoke,
        }
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("lobster-benchmark measures optimized builds only: build with --release");
        return ExitCode::from(2);
    }
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match (args.command.as_deref(), &args.workload) {
            (None, Some(workload)) => one_run(workload, &args),
            (Some("all"), None) => all(&args),
            (None, None) if args.smoke => all(&args),
            (Some("repeat"), None) => repeat(&args),
            (Some("manifest"), None) => {
                println!("{}", report::manifest().to_pretty());
                Ok(true)
            }
            _ => Err(USAGE.to_string()),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn measure<W: Workload>(workload: &W, trace: bool, plan: &Plan) -> Result<Report, String> {
    if trace {
        run::traced(workload, plan)
    } else {
        run::untraced(workload, plan)
    }
}

/// One run of one workload; `Ok(false)` when an op failed.
fn one_run(name: &str, args: &Args) -> Result<bool, String> {
    let plan = args.plan();
    let pinned_cpu = pin::to_one_cpu();
    let report = match name {
        "tc_chain" => measure(&Tc::chain(plan.seed), args.trace, &plan),
        "tc_dense" => measure(&Tc::dense(plan.seed), args.trace, &plan),
        "clutrr_serve" => measure(&ClutrrServe::new(plan.seed), args.trace, &plan),
        "incr_updates" => measure(&IncrUpdates::new(plan.seed), args.trace, &plan),
        _ => Err(format!("unknown workload {name}\n{USAGE}")),
    }?;
    let (units, file): (fn(&str) -> &'static str, _) = if args.trace {
        (per_layer_unit, format!("trace-{name}.json"))
    } else {
        (end_to_end_unit, format!("run-{name}.json"))
    };

    let mut document = report::stamp(name, plan.seed, plan.seconds, plan.smoke);
    document.push(("pinned_cpu", pinned_cpu.map_or(Json::Null, Json::from)));
    document.push(("traced", Json::Bool(args.trace)));
    document.extend(report.details.iter().cloned());
    for (key, value) in &document {
        println!("# {key}: {}", value.to_compact());
    }
    for line in &report.table {
        println!("# {line}");
    }
    for (metric, value) in &report.metrics {
        println!("{name}/{metric} {value} {}", units(metric));
    }
    if let Some(error) = &report.first_error {
        println!("# first failure: {error}");
    }
    document.push(("metrics", report.metrics_json()));
    document.extend(report.bulk.iter().cloned());
    let out = report::benchmark_dir().join("out");
    let file = out.join(file);
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&file, report::document(document).to_compact()))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!("{}", report.result_line(units));
    Ok(report.correct())
}

/// Runs this binary again for one workload and returns the result line's
/// document. Each run gets a process of its own so that peak memory, the
/// allocator's state and the symbol interner start fresh.
fn child_run(name: &str, trace: bool, args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let plan = args.plan();
    let mut command = Command::new(exe);
    command
        .args(["--workload", name])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if plan.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (rest, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{name} printed no result"))?;
    println!("{rest}");
    let result = json::parse(line).map_err(|e| format!("{name} printed a bad result: {e}"))?;
    if !output.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{name} failed: {line}"));
    }
    Ok(result)
}

/// Every workload, untraced then traced. With `--smoke`, also the checks of
/// the harness itself.
fn all(args: &Args) -> Result<bool, String> {
    if args.smoke {
        let violations = surface::violations();
        if !violations.is_empty() {
            return Err(format!(
                "the harness mentions names it must stay off:\n  {}",
                violations.join("\n  ")
            ));
        }
        let file = report::benchmark_dir().join("../BENCHMARK.json");
        if let Ok(text) = std::fs::read_to_string(&file) {
            if json::parse(&text).ok() != Some(report::manifest()) {
                return Err("BENCHMARK.json differs from `lobster-benchmark manifest`".to_string());
            }
        }
    }
    let mut results = Vec::new();
    for (name, _) in WORKLOADS {
        for trace in [false, true] {
            let result = child_run(name, trace, args)?;
            results.push((format!("{name}/trace{}", u8::from(trace)), result));
        }
    }
    let out = report::benchmark_dir().join("out");
    let file = out.join("benchmark.json");
    let mut document = report::stamp("all", args.seed, args.plan().seconds, args.smoke);
    document.push(("runs", Json::Obj(results)));
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&file, report::document(document).to_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!("# every workload passed; written to {}", file.display());
    Ok(true)
}

/// Runs every workload `--sets` times with this binary and this seed,
/// alternating the order, and compares each end-to-end metric across the
/// sets with its bound: the repeatability criterion.
fn repeat(args: &Args) -> Result<bool, String> {
    let mut sets: Vec<Vec<Json>> = Vec::new();
    for set in 0..args.sets {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        let mut results = vec![Json::Null; WORKLOADS.len()];
        for workload in order {
            results[workload] = child_run(WORKLOADS[workload].0, false, args)?;
        }
        sets.push(results);
    }
    let mut within = true;
    println!("# workload/metric, value per set, widest relative difference, bound");
    for (workload, (name, _)) in WORKLOADS.iter().enumerate() {
        for metric in &END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|set| {
                    set[workload]
                        .get("metrics")?
                        .get(metric.name)?
                        .get("value")?
                        .as_f64()
                })
                .collect();
            if values.len() != sets.len() {
                return Err(format!("{name} did not report {}", metric.name));
            }
            let (low, high) = values
                .iter()
                .fold((f64::INFINITY, 0f64), |(low, high), &v| {
                    (low.min(v), high.max(v))
                });
            let difference = (high - low) / low;
            let verdict = if difference <= metric.bound {
                "ok"
            } else {
                within = false;
                "EXCEEDS"
            };
            println!(
                "{name}/{} {values:?} {:.2}% {:.0}% {verdict}",
                metric.name,
                100.0 * difference,
                100.0 * metric.bound
            );
        }
    }
    if args.smoke {
        println!("# smoke run: differences are not meaningful and are not enforced");
        return Ok(true);
    }
    Ok(within)
}
