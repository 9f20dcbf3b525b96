//! Closed-loop multi-client load generator for the `lobster-serve` TCP
//! front end, recording tail latency under overload into the `overload`
//! section of `BENCH_serve.json`.
//!
//! The question this bin answers is the admission-control contract: with
//! offered load at roughly **2× measured capacity**, is the p99 latency of
//! *accepted* requests still bounded (they wait behind at most
//! `max_pending` others), with the excess shed carrying a structured
//! `retry_after_ms` — and does a graceful drain at the end resolve every
//! in-flight request with zero hung connections?
//!
//! Phases:
//!
//! 1. **Calibrate** — all clients run closed-loop (next request as soon as
//!    the previous resolves, honouring retry-after hints) against the real
//!    server; the accepted rate is the capacity estimate `C`.
//! 2. **Overload** — the same clients are paced to offer `2 × C` in
//!    aggregate. Accepted latencies, shed counts and hint presence are
//!    recorded per reply.
//! 3. **Drain** — `Server::shutdown` mid-idle; every client must have
//!    exited cleanly (a transport error or read-deadline expiry counts as a
//!    hung connection) and the server must report zero open connections.
//!
//! Run with `cargo run -p lobster-bench --release --bin serve_load`. Knobs:
//!
//! * `LOBSTER_BENCH_QUICK=1` / `--quick` — shrink durations for a CI smoke
//!   run (the artifact is stamped accordingly).
//! * `--clients N`, `--duration-ms D`, `--max-pending P` — load shape.
//! * `--assert-zero-hung` — exit non-zero if any client hung, saw a
//!   transport error, or a shed reply arrived without `retry_after_ms`, or
//!   if connections were left open after the clients finished (the CI
//!   gate).
//! * `--p99-limit-ms X` — exit non-zero unless the accepted p99 under
//!   overload stayed below `X` ms (CI uses a generous bound; the point is
//!   "bounded", not "fast").

use lobster::{FactSet, ProvenanceKind};
use lobster_bench::{arg_value, print_header, quick_mode, ArtifactMode};
use lobster_serve::json::{obj, parse, Json};
use lobster_serve::{
    AdmissionConfig, Client, KeyStore, ProgramCache, Quota, SchedulerConfig, Server, ServerConfig,
};
use lobster_workloads::clutrr;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What one client thread observed during one phase.
#[derive(Debug, Default, Clone)]
struct ClientReport {
    attempts: u64,
    accepted: u64,
    shed: u64,
    /// Shed replies that carried the structured `retry_after_ms` hint.
    shed_with_hint: u64,
    other_rejects: u64,
    /// Transport failures — including a read deadline expiring, which is
    /// what a hung connection looks like from the client.
    transport_errors: u64,
    accepted_latencies_ms: Vec<f64>,
}

impl ClientReport {
    fn merge(mut self, other: &ClientReport) -> ClientReport {
        self.attempts += other.attempts;
        self.accepted += other.accepted;
        self.shed += other.shed;
        self.shed_with_hint += other.shed_with_hint;
        self.other_rejects += other.other_rejects;
        self.transport_errors += other.transport_errors;
        self.accepted_latencies_ms
            .extend_from_slice(&other.accepted_latencies_ms);
        self
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// One client running closed-loop until `deadline`: the next request goes
/// out as soon as the previous reply lands — no sooner than `interval`
/// after the last send when pacing is on, and no sooner than the server's
/// retry-after hint after a shed.
fn run_client(
    addr: SocketAddr,
    key: String,
    requests: Vec<FactSet>,
    deadline: Instant,
    interval: Option<Duration>,
) -> ClientReport {
    let mut report = ClientReport::default();
    let Ok(mut client) = Client::connect(addr, key) else {
        report.transport_errors = 1;
        return report;
    };
    let mut next_request = 0usize;
    let mut backoff: Option<Duration> = None;
    let mut last_send = Instant::now();
    while Instant::now() < deadline {
        // Pacing think-time and shed backoff overlap, they don't stack.
        let wait = match (interval, backoff.take()) {
            (Some(interval), hint) => {
                let pace = interval.saturating_sub(last_send.elapsed());
                pace.max(hint.unwrap_or(Duration::ZERO))
            }
            (None, hint) => hint.unwrap_or(Duration::ZERO),
        };
        // Never sleep past the deadline's tail.
        let remaining = deadline.saturating_duration_since(Instant::now());
        if wait >= remaining {
            break;
        }
        if wait > Duration::ZERO {
            std::thread::sleep(wait);
        }
        let request = &requests[next_request % requests.len()];
        next_request += 1;
        report.attempts += 1;
        last_send = Instant::now();
        match client.run(request) {
            Ok(reply) if reply.ok() => {
                report.accepted += 1;
                report
                    .accepted_latencies_ms
                    .push(last_send.elapsed().as_secs_f64() * 1e3);
            }
            Ok(reply) => match reply.code() {
                Some("shed") | Some("quota") => {
                    report.shed += 1;
                    if let Some(hint) = reply.retry_after() {
                        report.shed_with_hint += 1;
                        // Honour the hint, capped so one pessimistic
                        // estimate cannot idle a client for the whole run.
                        backoff = Some(hint.min(Duration::from_millis(250)));
                    }
                }
                _ => report.other_rejects += 1,
            },
            Err(_) => {
                report.transport_errors += 1;
                return report;
            }
        }
    }
    report
}

fn run_phase(
    addr: SocketAddr,
    clients: usize,
    requests: &[FactSet],
    duration: Duration,
    interval: Option<Duration>,
) -> ClientReport {
    let deadline = Instant::now() + duration;
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let key = format!("load-{i}");
            let requests = requests.to_vec();
            std::thread::spawn(move || run_client(addr, key, requests, deadline, interval))
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread must not panic"))
        .fold(ClientReport::default(), |acc, r| acc.merge(&r))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = quick_mode() || args.iter().any(|a| a == "--quick");
    let pick = |full: u64, q: u64| if quick { q } else { full };
    let clients: usize = arg_value(&args, "--clients")
        .map(|v| v.parse().expect("--clients takes a number"))
        .unwrap_or(pick(8, 4) as usize)
        .max(1);
    let duration = Duration::from_millis(
        arg_value(&args, "--duration-ms")
            .map(|v| v.parse().expect("--duration-ms takes a number"))
            .unwrap_or(pick(4000, 1200)),
    );
    let max_pending: usize = arg_value(&args, "--max-pending")
        .map(|v| v.parse().expect("--max-pending takes a number"))
        .unwrap_or(pick(32, 8) as usize)
        .max(1);
    let assert_zero_hung = args.iter().any(|a| a == "--assert-zero-hung");
    let p99_limit_ms: Option<f64> = arg_value(&args, "--p99-limit-ms")
        .map(|v| v.parse().expect("--p99-limit-ms takes a number"));

    print_header(
        "Serving under overload — closed-loop load generator",
        "shed beyond max_pending with retry-after; accepted p99 stays bounded",
    );

    // The overload phase needs more connections than the calibration pool:
    // a closed-loop client holds at most one request in flight, so the
    // backlog can only exceed `max_pending` (and shedding can only start)
    // when the client count does — and the 2× target rate must be reachable
    // through per-request latencies that grow as the queue fills.
    let overload_clients = (clients * 4).max(max_pending * 4);
    let cache = std::sync::Arc::new(ProgramCache::new());
    let program = cache
        .get_or_compile(clutrr::PROGRAM, ProvenanceKind::DiffTop1Proof)
        .expect("CLUTRR program compiles");
    let keys = KeyStore::new();
    for i in 0..clients.max(overload_clients) {
        keys.add_key(format!("load-{i}"), Quota::unlimited());
    }
    let server = Server::bind(
        ("127.0.0.1", 0),
        program,
        keys,
        ServerConfig {
            scheduler: SchedulerConfig::default()
                .with_max_batch_size(8)
                .with_max_queue_delay(Duration::from_millis(2)),
            admission: AdmissionConfig::default().with_max_pending(max_pending),
            cache: Some(cache),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    println!(
        "server on {addr}: max_pending {max_pending}, {clients} clients, \
         {duration:?} per phase{}",
        if quick { " (quick)" } else { "" }
    );

    let chain_length = pick(5, 4) as usize;
    let mut rng = StdRng::seed_from_u64(7);
    let requests: Vec<FactSet> = (0..16)
        .map(|_| {
            clutrr::generate(chain_length, &mut rng)
                .facts()
                .to_fact_set()
        })
        .collect();

    // Phase 1: capacity. Unpaced closed loop — the accepted rate is what
    // the stack can actually serve at this concurrency.
    let calibration = run_phase(addr, clients, &requests, duration / 2, None);
    let calibration_secs = (duration / 2).as_secs_f64();
    let capacity_rps = calibration.accepted as f64 / calibration_secs.max(1e-9);
    if calibration.accepted == 0 {
        eprintln!("FAIL: calibration served nothing — the server is not serving");
        std::process::exit(1);
    }
    println!(
        "calibration: {:.1} accepted/s ({} accepted, {} shed)",
        capacity_rps, calibration.accepted, calibration.shed
    );

    // Phase 2: overload at ~2× capacity. Per-client think time spreads the
    // target rate across the (larger) overload pool; shed replies must
    // carry hints.
    let target_rps = 2.0 * capacity_rps;
    let interval = Duration::from_secs_f64(overload_clients as f64 / target_rps.max(1e-9));
    let overload = run_phase(addr, overload_clients, &requests, duration, Some(interval));
    let overload_secs = duration.as_secs_f64();
    let mut latencies = overload.accepted_latencies_ms.clone();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let p50 = percentile(&latencies, 50.0);
    let p99 = percentile(&latencies, 99.0);
    let max_ms = latencies.last().copied().unwrap_or(0.0);
    let offered_rps = overload.attempts as f64 / overload_secs.max(1e-9);
    let accepted_rps = overload.accepted as f64 / overload_secs.max(1e-9);
    println!(
        "overload: offered {offered_rps:.1}/s (target {target_rps:.1}/s), accepted \
         {accepted_rps:.1}/s, shed {} ({} with retry-after), transport errors {}",
        overload.shed, overload.shed_with_hint, overload.transport_errors
    );
    println!("accepted latency: p50 {p50:.2} ms, p99 {p99:.2} ms, max {max_ms:.2} ms");

    // Phase 3: drain. Clients are done; the server must report no open
    // connections (their threads observed the EOFs), then shut down with
    // every accepted ticket resolved — `shutdown` joining is that proof.
    let settle = Instant::now();
    let open = |server: &Server| server.metrics().get("connections.open").unwrap_or(0);
    while open(&server) > 0 && settle.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(10));
    }
    let metrics = server.metrics();
    let get = |name: &str| metrics.get(name).unwrap_or(0);
    let open_after = get("connections.open");
    server.shutdown();
    println!(
        "drained: {} connections served {} requests, {} open after the run",
        get("connections.accepted"),
        get("connections.served"),
        open_after
    );

    let hung = overload.transport_errors + calibration.transport_errors + open_after;
    let hints_missing = overload.shed - overload.shed_with_hint;
    let zero_hung_gate = if !assert_zero_hung {
        "not-requested"
    } else if hung == 0 && hints_missing == 0 {
        "passed"
    } else {
        "failed"
    };
    let p99_gate = match p99_limit_ms {
        None => "not-requested",
        Some(limit) if p99.is_finite() && p99 > 0.0 && p99 <= limit => "passed",
        Some(_) => "failed",
    };

    let mode = ArtifactMode::current(quick);
    let mut section = obj([
        ("quick_mode", Json::Bool(mode.quick_mode)),
        ("cpus", Json::from(mode.cpus)),
        ("clients", Json::from(clients)),
        ("overload_clients", Json::from(overload_clients)),
        ("duration_s", Json::Num(overload_secs)),
        ("max_pending", Json::from(max_pending)),
        ("capacity_rps", Json::Num(capacity_rps)),
        ("target_rps", Json::Num(target_rps)),
        ("offered_rps", Json::Num(offered_rps)),
        ("accepted_rps", Json::Num(accepted_rps)),
        ("attempts", Json::from(overload.attempts)),
        ("accepted", Json::from(overload.accepted)),
        ("shed", Json::from(overload.shed)),
        ("shed_with_retry_after", Json::from(overload.shed_with_hint)),
        ("other_rejects", Json::from(overload.other_rejects)),
        ("transport_errors", Json::from(overload.transport_errors)),
        ("hung_connections", Json::from(hung)),
        ("accepted_p50_ms", Json::Num(p50)),
        ("accepted_p99_ms", Json::Num(p99)),
        ("accepted_max_ms", Json::Num(max_ms)),
        ("admitted_total", Json::from(get("admission.admitted"))),
        ("shed_total", Json::from(get("admission.shed"))),
        ("open_connections_after", Json::from(open_after)),
        ("drained", Json::Bool(true)),
        ("zero_hung_gate", Json::from(zero_hung_gate)),
        ("p99_gate", Json::from(p99_gate)),
    ]);

    // Merge into BENCH_serve.json without disturbing the throughput
    // sections. A degraded overload section replacing a full-fidelity one
    // warns loudly and stamps itself, mirroring the whole-artifact guard.
    let mut doc = std::fs::read_to_string("BENCH_serve.json")
        .ok()
        .and_then(|text| parse(&text).ok())
        .unwrap_or_else(|| obj([("workload", Json::from("clutrr"))]));
    let previous_full = doc
        .get("overload")
        .map(|old| {
            let was_quick = old
                .get("quick_mode")
                .and_then(Json::as_bool)
                .unwrap_or(true);
            let cpus = old.get("cpus").and_then(Json::as_u64).unwrap_or(1);
            !was_quick && cpus >= 2
        })
        .unwrap_or(false);
    if mode.is_degraded() && previous_full {
        let note = "a degraded run (quick mode or <2 CPUs) replaced a full-fidelity \
                    overload section; regenerate full-mode on a multi-CPU machine \
                    before committing";
        eprintln!("\n{}", "!".repeat(72));
        eprintln!("WARNING: BENCH_serve.json overload: {note}");
        eprintln!("{}\n", "!".repeat(72));
        section.set("mode_warning", Json::from(note));
    }
    doc.set("overload", section);
    std::fs::write("BENCH_serve.json", doc.to_pretty() + "\n").expect("write BENCH_serve.json");
    println!("\nwrote the `overload` section of BENCH_serve.json");

    if zero_hung_gate == "failed" {
        eprintln!(
            "FAIL: {hung} hung connections / transport errors, {hints_missing} shed \
             replies without retry_after_ms"
        );
        std::process::exit(1);
    }
    if p99_gate == "failed" {
        eprintln!(
            "FAIL: accepted p99 {p99:.2} ms exceeds the {:.2} ms limit (or nothing was accepted)",
            p99_limit_ms.unwrap_or(f64::NAN)
        );
        std::process::exit(1);
    }
}
