//! One run of one workload: untraced for the end-to-end metrics, traced for
//! the per-layer ones.

use crate::layers;
use crate::measure::{metered, quantile, status_mb};
use crate::report::{Metrics, Report, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::Workload;
use lobster_serve::json::Json;
use std::time::{Duration, Instant};

const MB: f64 = (1u64 << 20) as f64;

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// How much a run does. Everything is fixed by the arguments, nothing by how
/// fast the machine turned out to be.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

impl Plan {
    /// Set-ups from scratch; `setup_s` is their lower quartile.
    fn set_ups(&self, wanted: usize) -> usize {
        if self.smoke {
            1
        } else {
            wanted
        }
    }

    /// Untimed ops between set-up and the clock.
    fn warm_up_ops(&self) -> usize {
        if self.smoke {
            0
        } else {
            3
        }
    }

    fn timed_ops(&self, ops_per_second: f64) -> usize {
        let least = if self.smoke { 1 } else { 10 };
        ((ops_per_second * self.seconds).round() as usize).max(least)
    }

    /// Ops of the traced run: as many untraced for reference, then as many
    /// traced. A quarter of a timed run and 20 at most, because a traced
    /// request runs its layers a second time.
    fn traced_ops(&self, ops_per_second: f64) -> usize {
        (self.timed_ops(ops_per_second) / 4).clamp(1, 20)
    }

    /// The loop stops early once it has run for this long: a machine several
    /// times slower than the one the op counts were chosen on must not run
    /// into the driver's limits. A run cut short says so in its document.
    fn deadline(&self) -> Duration {
        Duration::from_secs_f64(3.0 * self.seconds + 10.0)
    }

    /// Repeats of a probe that costs about one op, and of one that costs
    /// microseconds.
    pub fn probe_repeats(&self) -> (usize, usize) {
        if self.smoke {
            (1, 3)
        } else {
            (3, 15)
        }
    }
}

/// Measurements of one timed loop.
#[derive(Default)]
struct Samples {
    /// Requests issued, and those of them whose op succeeded: the sums below
    /// cover the latter.
    attempted: u64,
    answered: u64,
    first_error: Option<String>,
    /// Wall and CPU time of each successful op, per request.
    op_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    alloc_bytes: u64,
    alloc_calls: u64,
    rss_growth_mb: f64,
    cut_short: bool,
}

impl Samples {
    fn quantile(&self, q: f64) -> f64 {
        quantile(&self.op_ms, q)
    }

    fn per_request(&self, total: f64) -> f64 {
        total / self.answered as f64
    }

    /// Ops slower than 1.1 x the 10th percentile: how loud the machine was.
    fn disturbed_share(&self) -> f64 {
        let limit = 1.1 * self.quantile(0.1);
        self.op_ms.iter().filter(|&&ms| ms > limit).count() as f64 / self.op_ms.len() as f64
    }

    /// What the machine's other tenants move as much as the code does, so
    /// reported and never gated: the median, the mean (as closed-loop
    /// throughput and as CPU per request) and the tails; allocator calls,
    /// memory growth, and how disturbed the run was.
    fn harness_metrics(&self) -> Metrics {
        vec![
            ("harness.op_p50_ms", self.quantile(0.5)),
            ("harness.ops_per_s", 1e3 / mean(&self.op_ms)),
            ("harness.cpu_ms_per_op", mean(&self.cpu_ms)),
            ("harness.op_p90_ms", self.quantile(0.9)),
            ("harness.op_p99_ms", self.quantile(0.99)),
            ("harness.op_max_ms", self.quantile(1.0)),
            (
                "harness.alloc_calls_per_op",
                self.per_request(self.alloc_calls as f64),
            ),
            ("harness.rss_growth_mb", self.rss_growth_mb),
            ("harness.disturbed_share", self.disturbed_share()),
        ]
    }
}

/// The closed loop: one op in flight, `ops` of them, each checked.
fn timed_loop<W: Workload>(
    workload: &W,
    live: &mut W::Live,
    ops: usize,
    deadline: Duration,
) -> Result<Samples, String> {
    let per_op = workload.requests_per_op() as u64;
    let mut samples = Samples::default();
    let rss_before = status_mb("VmRSS");
    let started = Instant::now();
    for index in 0..ops {
        if started.elapsed() > deadline {
            samples.cut_short = true;
            break;
        }
        let outcome = workload.op(live, index);
        samples.attempted += per_op;
        match outcome {
            Ok(cost) => {
                samples.answered += per_op;
                samples.op_ms.push(cost.ms() / per_op as f64);
                samples.cpu_ms.push(cost.cpu_s * 1e3 / per_op as f64);
                samples.alloc_bytes += cost.alloc_bytes;
                samples.alloc_calls += cost.alloc_calls;
            }
            Err(error) => {
                samples.first_error.get_or_insert(error);
            }
        }
    }
    samples.rss_growth_mb = status_mb("VmRSS") - rss_before;
    if samples.op_ms.is_empty() {
        return Err(format!(
            "no op succeeded: {}",
            samples.first_error.as_deref().unwrap_or("none was run")
        ));
    }
    Ok(samples)
}

/// Sets up `times` times from scratch, each instance torn down (off the
/// clock) before the next is made, and returns the last one with every
/// set-up's time in seconds.
fn set_up<W: Workload>(workload: &W, times: usize) -> Result<(W::Live, Vec<f64>), String> {
    let mut seconds = Vec::new();
    let mut live = None;
    for _ in 0..times {
        drop(live.take());
        let (made, cost) = metered(|| workload.set_up());
        live = Some(made?);
        seconds.push(cost.wall.as_secs_f64());
    }
    Ok((live.ok_or("no set-up was asked for")?, seconds))
}

fn warm_up<W: Workload>(workload: &W, live: &mut W::Live, ops: usize) -> Result<(), String> {
    (0..ops).try_for_each(|index| workload.op(live, index).map(|_| ()))
}

/// What the run did, and the wall time of every timed op, in order, so that
/// any other statistic can be computed from the document.
fn describe(samples: &Samples, ops_planned: usize, report: &mut Report) {
    report.details.extend([
        ("ops_planned", Json::from(ops_planned)),
        ("ops_timed", Json::from(samples.op_ms.len())),
        ("cut_short", Json::Bool(samples.cut_short)),
    ]);
    report.bulk.push((
        "op_ms",
        Json::Arr(samples.op_ms.iter().map(|&ms| Json::Num(ms)).collect()),
    ));
}

/// The end-to-end run: tracing off.
pub fn untraced<W: Workload>(workload: &W, plan: &Plan) -> Result<Report, String> {
    // Half of the set-ups before the timed phase and half after it, so that
    // a burst of interference, which lasts seconds, reaches one half at most;
    // the lower quartile of them all is then a set-up on a quiet machine.
    let set_ups = plan.set_ups(workload.set_ups());
    let (mut live, mut set_up_s) = set_up(workload, set_ups.div_ceil(2))?;
    warm_up(workload, &mut live, plan.warm_up_ops())?;
    let ops = plan.timed_ops(workload.ops_per_second());
    let samples = timed_loop(workload, &mut live, ops, plan.deadline())?;
    drop(live);
    if set_ups > 1 {
        set_up_s.extend(set_up(workload, set_ups / 2)?.1);
    }
    let mut report = Report {
        attempted: samples.attempted,
        failed: samples.attempted - samples.answered,
        first_error: samples.first_error.clone(),
        metrics: vec![
            ("setup_s", quantile(&set_up_s, 0.25)),
            ("op_p10_ms", samples.quantile(0.1)),
            ("cpu_p10_ms", quantile(&samples.cpu_ms, 0.1)),
            ("peak_rss_mb", status_mb("VmHWM")),
            (
                "alloc_mb_per_op",
                samples.per_request(samples.alloc_bytes as f64 / MB),
            ),
        ],
        ..Report::default()
    };
    describe(&samples, ops, &mut report);
    report.details.push((
        "set_ups_s",
        Json::Arr(set_up_s.iter().map(|&s| Json::Num(s)).collect()),
    ));
    for (name, value) in samples.harness_metrics() {
        report.details.push((name, Json::Num(value)));
    }
    Ok(report)
}

/// The per-layer run: a few untraced ops for reference, as many traced
/// requests, then the layer probes.
pub fn traced<W: Workload>(workload: &W, plan: &Plan) -> Result<Report, String> {
    let (mut live, _) = set_up(workload, 1)?;
    warm_up(workload, &mut live, plan.warm_up_ops())?;
    let ops = plan.traced_ops(workload.ops_per_second());
    let reference = timed_loop(workload, &mut live, ops, plan.deadline())?;

    let mut tracer = Tracer::new();
    let requests = ops * workload.requests_per_op();
    let mut failed = reference.attempted - reference.answered;
    let mut first_error = reference.first_error.clone();
    for index in 0..requests {
        if let Err(error) = workload.traced_request(&mut live, index, &mut tracer) {
            failed += 1;
            first_error.get_or_insert(error);
        }
    }
    drop(live);

    let summary = tracer.summary();
    let root_ms = summary.root_ms();
    let untraced_ms = reference.quantile(0.5);
    let mut measured = layers::probe(&workload.profile(), plan)?;
    measured.extend(reference.harness_metrics());
    measured.extend([
        (
            "harness.trace_overhead_pct",
            100.0 * (root_ms - untraced_ms) / untraced_ms,
        ),
        (
            "harness.layers_sum_pct",
            100.0 * summary.layers_sum_ms() / root_ms,
        ),
    ]);
    // The driver wants every per-layer metric, in the table's order.
    let metrics: Metrics = PER_LAYER
        .iter()
        .map(|&(wanted, _, _)| {
            measured
                .iter()
                .find(|(name, _)| *name == wanted)
                .copied()
                .ok_or_else(|| format!("the traced run did not measure {wanted}"))
        })
        .collect::<Result<_, String>>()?;

    let mut report = Report {
        attempted: reference.attempted + requests as u64,
        failed,
        first_error,
        metrics,
        ..Report::default()
    };
    describe(&reference, ops, &mut report);
    report.details.extend([
        ("traced_requests", Json::from(requests)),
        ("untraced_op_p50_ms", Json::Num(untraced_ms)),
        ("traced_op_p50_ms", Json::Num(root_ms)),
    ]);
    report.table = summary.lines();
    report.bulk.push(("layers", summary.json()));
    report.bulk.push(("spans", tracer.spans_json()));
    Ok(report)
}
