//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (Section 6).
//!
//! Each figure/table has a dedicated binary in `src/bin/` that prints the
//! measured numbers next to the values reported in the paper. Absolute
//! numbers differ (the paper's testbed is a 40-core Xeon with an RTX 2080
//! Ti / A100; this reproduction runs the GPU as a simulated device), but the
//! *shape* of each result — which system wins, how speedups scale with
//! problem size, where systems time out or run out of memory — is what the
//! harness reproduces.
//!
//! Set `LOBSTER_BENCH_QUICK=1` to shrink every workload for a fast smoke run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod train;

use lobster::{Program, Provenance, Value};
use lobster_baselines::{BaselineError, ScallopEngine, SouffleEngine};
use lobster_workloads::WorkloadFacts;
use std::time::{Duration, Instant};

/// Whether quick mode is enabled (`LOBSTER_BENCH_QUICK=1`).
pub fn quick_mode() -> bool {
    std::env::var("LOBSTER_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Scales a workload size down in quick mode.
pub fn scaled(full: usize, quick: usize) -> usize {
    if quick_mode() {
        quick
    } else {
        full
    }
}

/// The fidelity a benchmark artifact was produced at: whether the workload
/// was shrunk (`quick_mode`) and how many CPUs the measuring machine had.
/// Both are stamped into every artifact, so a committed artifact
/// self-describes and a degraded regeneration is detectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactMode {
    /// The artifact was produced with a shrunk (smoke-run) workload.
    pub quick_mode: bool,
    /// CPUs available to the measuring machine.
    pub cpus: usize,
}

impl ArtifactMode {
    /// The mode the current process would produce artifacts at. `quick`
    /// ORs in a bin-specific flag (e.g. `--quick`) on top of
    /// [`quick_mode()`].
    pub fn current(quick: bool) -> Self {
        ArtifactMode {
            quick_mode: quick_mode() || quick,
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// A degraded artifact is one a full-fidelity artifact must not be
    /// silently replaced by: a shrunk workload, or a machine where worker
    /// threads cannot overlap.
    pub fn is_degraded(&self) -> bool {
        self.quick_mode || self.cpus < 2
    }
}

/// Reads the mode stamped in an existing artifact, `None` when the file is
/// absent or carries no stamp (pre-stamp artifacts count as unknown, not
/// full).
pub fn read_artifact_mode(path: &str) -> Option<ArtifactMode> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = lobster_serve::json::parse(&text).ok()?;
    Some(ArtifactMode {
        quick_mode: doc.get("quick_mode")?.as_bool()?,
        cpus: doc.get("cpus")?.as_u64()? as usize,
    })
}

/// The guard every artifact-writing bin calls before overwriting `path`:
/// when a degraded run (quick mode, or fewer than 2 CPUs) is about to
/// replace a committed full-fidelity artifact, print a loud warning and
/// return the note to stamp into the new artifact (`mode_warning` field) so
/// the degradation is visible in the file itself, not only in a scrolled-by
/// log line.
pub fn degraded_overwrite_warning(path: &str, mode: ArtifactMode) -> Option<String> {
    if !mode.is_degraded() {
        return None;
    }
    let previous = read_artifact_mode(path)?;
    if previous.is_degraded() {
        return None;
    }
    let what = match (mode.quick_mode, mode.cpus < 2) {
        (true, true) => format!("a quick-mode, {}-CPU run", mode.cpus),
        (true, false) => "a quick-mode run".to_string(),
        (false, _) => format!("a {}-CPU run", mode.cpus),
    };
    let note = format!(
        "{what} overwrote a full-fidelity artifact (was quick_mode: {}, cpus: {}); \
         numbers are not comparable with the committed history — regenerate \
         full-mode on a multi-CPU machine before committing",
        previous.quick_mode, previous.cpus,
    );
    eprintln!("\n{}", "!".repeat(72));
    eprintln!("WARNING: {path}: {note}");
    eprintln!("{}\n", "!".repeat(72));
    Some(note)
}

/// The value following the command-line flag `name` in `args`, if any.
pub fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The shortest of `repeats` (at least one) timings taken by `f`.
pub fn best_of(repeats: usize, mut f: impl FnMut() -> Duration) -> Duration {
    (0..repeats)
        .map(|_| f())
        .min()
        .expect("at least one repeat")
}

/// Times a closure.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// The outcome of running one system on one workload.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Completed in the given time.
    Ok(Duration),
    /// Ran out of (simulated device) memory.
    Oom,
    /// Hit the timeout.
    Timeout,
}

impl Outcome {
    /// The runtime in seconds, if the run completed.
    pub fn seconds(&self) -> Option<f64> {
        match self {
            Outcome::Ok(d) => Some(d.as_secs_f64()),
            _ => None,
        }
    }

    /// Formats the outcome like the paper's tables (`OOM`, `timeout`, or
    /// seconds).
    pub fn cell(&self) -> String {
        match self {
            Outcome::Ok(d) => format!("{:.2}", d.as_secs_f64()),
            Outcome::Oom => "OOM".to_string(),
            Outcome::Timeout => "timeout".to_string(),
        }
    }
}

/// Formats a speedup of `baseline` over `system` (`baseline / system`).
pub fn speedup(baseline: &Outcome, system: &Outcome) -> String {
    match (baseline.seconds(), system.seconds()) {
        (Some(b), Some(s)) if s > 0.0 => format!("{:.2}x", b / s),
        _ => "-".to_string(),
    }
}

/// Prints a header for a figure/table reproduction.
pub fn print_header(title: &str, paper_summary: &str) {
    println!("\n=== {title} ===");
    println!("paper: {paper_summary}");
    println!("{}", "-".repeat(72));
}

/// Runs a probabilistic or discrete workload on a compiled Lobster
/// [`Program`] and returns the symbolic runtime together with the number of
/// facts in the queried relation.
///
/// The program carries its own device and runtime options (set them on the
/// [`lobster::Lobster::builder`] chain); this helper opens a fresh session
/// per call, so one compiled program can be reused across measurements.
///
/// # Panics
///
/// Panics when a fact is malformed — bench workloads are trusted inputs.
pub fn run_lobster(program: &Program, facts: &WorkloadFacts) -> (Outcome, usize) {
    let mut session = program.session();
    facts
        .add_to_session(&mut session)
        .expect("workload facts must match the program");
    match time_it(|| session.run()) {
        (Ok(result), elapsed) => {
            let total: usize = result.relations().iter().map(|r| result.len(r)).sum();
            (Outcome::Ok(elapsed), total)
        }
        (Err(lobster::LobsterError::Execution(lobster_apm::ExecError::Device(_))), _) => {
            (Outcome::Oom, 0)
        }
        (Err(lobster::LobsterError::Execution(lobster_apm::ExecError::Timeout { .. })), _) => {
            (Outcome::Timeout, 0)
        }
        (Err(other), _) => panic!("unexpected failure: {other}"),
    }
}

/// Runs a workload on the Scallop baseline with the given provenance.
///
/// # Panics
///
/// Panics when the program fails to compile.
pub fn run_scallop<P: Provenance>(
    program: &str,
    provenance: P,
    facts: &[(String, Vec<u64>, P::Tag)],
    timeout: Option<Duration>,
) -> Outcome {
    let ram = lobster_datalog::parse(program)
        .expect("benchmark program compiles")
        .ram;
    let engine = ScallopEngine::new(provenance).with_timeout(timeout);
    match time_it(|| engine.run(&ram, facts)) {
        (Ok(_), elapsed) => Outcome::Ok(elapsed),
        (Err(BaselineError::Timeout { .. }), _) => Outcome::Timeout,
        (Err(other), _) => panic!("unexpected baseline failure: {other}"),
    }
}

/// Runs a discrete workload on the Soufflé baseline.
///
/// # Panics
///
/// Panics when the program fails to compile.
pub fn run_souffle(
    program: &str,
    facts: &[(String, Vec<u64>)],
    timeout: Option<Duration>,
) -> Outcome {
    let ram = lobster_datalog::parse(program)
        .expect("benchmark program compiles")
        .ram;
    let engine = SouffleEngine::default().with_timeout(timeout);
    match time_it(|| engine.run(&ram, facts)) {
        (Ok(_), elapsed) => Outcome::Ok(elapsed),
        (Err(BaselineError::Timeout { .. }), _) => Outcome::Timeout,
        (Err(other), _) => panic!("unexpected baseline failure: {other}"),
    }
}

/// Converts probabilistic workload facts into Scallop-baseline facts for a
/// provenance, registering probabilities through `input_tag`.
pub fn scallop_facts<P: Provenance>(
    provenance: &P,
    facts: &WorkloadFacts,
) -> Vec<(String, Vec<u64>, P::Tag)> {
    facts
        .facts
        .iter()
        .enumerate()
        .map(|(i, (rel, values, prob))| {
            let tag = provenance.input_tag(lobster_provenance::InputFactId(i as u32), *prob);
            (rel.clone(), values.iter().map(Value::encode).collect(), tag)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_formatting() {
        assert_eq!(Outcome::Oom.cell(), "OOM");
        assert_eq!(Outcome::Timeout.cell(), "timeout");
        assert_eq!(Outcome::Ok(Duration::from_millis(1500)).cell(), "1.50");
        assert_eq!(
            speedup(
                &Outcome::Ok(Duration::from_secs(4)),
                &Outcome::Ok(Duration::from_secs(2))
            ),
            "2.00x"
        );
        assert_eq!(
            speedup(&Outcome::Oom, &Outcome::Ok(Duration::from_secs(1))),
            "-"
        );
    }

    #[test]
    fn quick_scaling() {
        // The env var is not set in tests, so the full size is returned.
        if !quick_mode() {
            assert_eq!(scaled(100, 10), 100);
        }
    }

    #[test]
    fn artifact_mode_round_trips_and_guards_degraded_overwrites() {
        let dir = std::env::temp_dir().join(format!("lobster-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let path = path.to_str().unwrap();
        // Absent file: unknown mode, no warning whatever the writer's mode.
        assert_eq!(read_artifact_mode(path), None);
        let degraded = ArtifactMode {
            quick_mode: true,
            cpus: 1,
        };
        assert!(degraded_overwrite_warning(path, degraded).is_none());
        // A committed full-mode artifact must not be silently replaced.
        std::fs::write(path, "{\"quick_mode\": false, \"cpus\": 8, \"x\": 1}").unwrap();
        assert_eq!(
            read_artifact_mode(path),
            Some(ArtifactMode {
                quick_mode: false,
                cpus: 8
            })
        );
        let note = degraded_overwrite_warning(path, degraded).expect("warns");
        assert!(note.contains("quick-mode"), "{note}");
        // A full-fidelity writer over a full artifact: no warning.
        let full = ArtifactMode {
            quick_mode: false,
            cpus: 8,
        };
        assert!(!full.is_degraded());
        assert!(degraded_overwrite_warning(path, full).is_none());
        // Degraded over degraded: also fine (nothing of higher fidelity is
        // lost).
        std::fs::write(path, "{\"quick_mode\": true, \"cpus\": 1}").unwrap();
        assert!(degraded_overwrite_warning(path, degraded).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_lobster_and_scallop_on_a_tiny_workload() {
        use lobster_workloads::graphs;
        let mut facts = WorkloadFacts::new();
        for i in 0..20u32 {
            facts.push("edge", vec![Value::U32(i), Value::U32(i + 1)], None);
        }
        let program = lobster::Lobster::builder(graphs::TRANSITIVE_CLOSURE)
            .provenance(lobster::ProvenanceKind::Unit)
            .compile()
            .unwrap();
        let (outcome, derived) = run_lobster(&program, &facts);
        assert!(outcome.seconds().is_some());
        assert_eq!(derived, 210);
        let baseline = run_scallop(
            graphs::TRANSITIVE_CLOSURE,
            lobster::Unit::new(),
            &scallop_facts(&lobster::Unit::new(), &facts),
            None,
        );
        assert!(baseline.seconds().is_some());
    }
}
