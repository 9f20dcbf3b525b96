//! The network front end: a std-TCP, length-prefixed JSON protocol over the
//! [`BatchScheduler`], with API-key auth, quota enforcement, queue-depth
//! admission control, and graceful drain.
//!
//! No async runtime — matching the workspace's std-threads stance, the
//! server is one accept thread plus one plain thread per connection, and
//! every blocking wait is bounded (read polls observe the drain flag, ticket
//! waits carry [`ServerConfig::request_timeout`]). A connection costs a
//! thread, which is the right trade here: the expensive resource is the
//! fix-point, not the socket, and admission control bounds how much work
//! connections can enqueue no matter how many there are.
//!
//! # Protocol
//!
//! Every message — both directions — is one *frame*: a 4-byte big-endian
//! payload length followed by that many bytes of UTF-8 JSON. Frames above
//! [`ServerConfig::max_frame_bytes`] are rejected without being read.
//! Requests are objects with an `"op"`:
//!
//! ```json
//! {"op": "run", "key": "...", "facts": [
//!     {"rel": "edge", "values": [{"u32": 0}, {"u32": 1}], "prob": 0.9}]}
//! {"op": "metrics", "key": "..."}
//! {"op": "ping"}
//! ```
//!
//! Values are tagged objects — `{"u32": n}`, `{"i64": n}` (as a string when
//! outside ±2^53), `{"f64": x}`, `{"bool": b}`, `{"sym": "text"}` (interned
//! into the process-wide symbol table on receipt), `{"sym_id": n}` (a raw
//! already-interned id) — and responses resolve interned symbols back to
//! `{"sym": "text"}` where possible. Because compilation and the wire layer
//! share one interner, ids in request facts agree with the ids symbol
//! constants compiled to, across every session on the server. The
//! tag is the value's type, and the scheduler checks it against the
//! relation's schema with the rest of the fact: a `{"i64": ..}` in a `u32`
//! column is a `bad-request`, not a truncation. A successful `run` answers
//!
//! ```json
//! {"ok": true, "relations": {"path": [
//!     {"tuple": [{"u32": 0}, {"u32": 1}], "prob": 0.9, "grad": [[0, 1.0]]}]},
//!  "iterations": 3}
//! ```
//!
//! and every rejection is structured:
//!
//! ```json
//! {"ok": false, "code": "shed", "error": "...", "retry_after_ms": 12}
//! ```
//!
//! Codes: `unauthorized`, `quota` (carries `retry_after_ms`), `shed`
//! (carries `retry_after_ms`), `bad-request`, `execution`, `timeout`,
//! `shutdown`, `disconnected`. The request pipeline is strictly
//! frame → auth ([`KeyStore`]) → admission ([`AdmissionController`], capped
//! against the scheduler's live pending depth) → scheduler — a request
//! pays nothing downstream of the first stage that rejects it, so abusive
//! or over-quota traffic cannot displace admitted work.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] flips the drain flag, wakes the accept loop, and
//! joins: new connections are refused, idle connections are told
//! `"shutdown"` and closed, and connections with a request in flight write
//! that response first — in-flight tickets resolve, because dropping the
//! scheduler drains its queue before the workers exit.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionStats};
use crate::auth::{AuthError, AuthStats, KeyStore};
use crate::cache::{CacheStats, ProgramCache};
use crate::error::ServeError;
use crate::json::{obj, parse, Json};
use crate::scheduler::{BatchScheduler, SchedulerConfig};
use lobster::{
    ArenaStats, DeviceStats, FactSet, LobsterError, Program, RunResult, SymbolTable, Value,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Knobs of the [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Scheduler knobs (batching, workers, shards).
    pub scheduler: SchedulerConfig,
    /// Admission-control knobs (pending cap, retry-after window).
    pub admission: AdmissionConfig,
    /// Largest accepted frame payload. Oversized frames are rejected before
    /// allocation.
    pub max_frame_bytes: usize,
    /// How long a connection waits for its request's batch before answering
    /// `timeout`. The request still runs; only the wait is abandoned.
    pub request_timeout: Duration,
    /// The program cache whose stats the metrics endpoint reports (the
    /// cache the server's program was compiled through, typically).
    pub cache: Option<Arc<ProgramCache>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            scheduler: SchedulerConfig::default(),
            admission: AdmissionConfig::default(),
            max_frame_bytes: 4 << 20,
            request_timeout: Duration::from_secs(30),
            cache: None,
        }
    }
}

/// Counters describing a [`Server`]'s connections and requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections_accepted: u64,
    /// Connections refused because the server was draining.
    pub connections_refused: u64,
    /// Connections currently open.
    pub open_connections: usize,
    /// `run` requests answered successfully.
    pub requests_served: u64,
    /// Requests rejected at any stage (auth, quota, admission, parse).
    pub requests_rejected: u64,
}

struct ServerShared {
    scheduler: BatchScheduler,
    keys: KeyStore,
    admission: AdmissionController,
    config: ServerConfig,
    addr: SocketAddr,
    started: Instant,
    draining: AtomicBool,
    connections_accepted: AtomicU64,
    connections_refused: AtomicU64,
    open_connections: AtomicUsize,
    requests_served: AtomicU64,
    requests_rejected: AtomicU64,
}

/// The TCP front end: accept loop, per-connection threads, and the
/// frame → auth → admission → scheduler pipeline.
///
/// Construct with [`Server::bind`]; stop with [`Server::shutdown`] (graceful
/// drain) or by dropping (which shuts down the same way).
pub struct Server {
    shared: Arc<ServerShared>,
    accept_thread: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.shared.addr)
            .field("draining", &self.shared.draining.load(Ordering::SeqCst))
            .finish()
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `program` behind a [`BatchScheduler`] built from
    /// `config.scheduler`. `keys` is the admission list — an empty store
    /// rejects every request until keys are added via [`Server::keys`].
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        program: Arc<Program>,
        keys: KeyStore,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            scheduler: BatchScheduler::new(program, config.scheduler.clone()),
            keys,
            admission: AdmissionController::new(config.admission.clone()),
            config,
            addr: local_addr,
            started: Instant::now(),
            draining: AtomicBool::new(false),
            connections_accepted: AtomicU64::new(0),
            connections_refused: AtomicU64::new(0),
            open_connections: AtomicUsize::new(0),
            requests_served: AtomicU64::new(0),
            requests_rejected: AtomicU64::new(0),
        });
        let connections = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("lobster-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, &connections))
                .expect("spawn accept thread")
        };
        Ok(Server {
            shared,
            accept_thread: Some(accept_thread),
            connections,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The key store — add or revoke API keys at runtime.
    pub fn keys(&self) -> &KeyStore {
        &self.shared.keys
    }

    /// The scheduler behind the wire (for tests and in-process callers).
    pub fn scheduler(&self) -> &BatchScheduler {
        &self.shared.scheduler
    }

    /// A snapshot of the connection/request counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections_accepted: self.shared.connections_accepted.load(Ordering::Relaxed),
            connections_refused: self.shared.connections_refused.load(Ordering::Relaxed),
            open_connections: self.shared.open_connections.load(Ordering::Relaxed),
            requests_served: self.shared.requests_served.load(Ordering::Relaxed),
            requests_rejected: self.shared.requests_rejected.load(Ordering::Relaxed),
        }
    }

    /// A snapshot of the admission-control counters.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.shared.admission.stats()
    }

    /// A snapshot of the auth counters.
    pub fn auth_stats(&self) -> AuthStats {
        self.shared.keys.stats()
    }

    /// The metrics document served by the `metrics` op, as JSON (what an
    /// in-process caller scrapes instead of opening a socket).
    pub fn metrics_json(&self) -> Json {
        metrics_json(&self.shared)
    }

    /// Graceful drain: refuse new connections, let every connection finish
    /// (an in-flight request writes its response; idle connections are told
    /// `shutdown`), join all threads, then tear down the scheduler —
    /// whose own drop drains its queue, so every accepted ticket resolves.
    pub fn shutdown(mut self) {
        self.drain_and_join();
    }

    fn drain_and_join(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.shared.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // The accept thread has exited: nobody pushes new handles anymore.
        let handles = std::mem::take(
            &mut *self
                .connections
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for handle in handles {
            let _ = handle.join();
        }
        // The scheduler (and its drain) runs when `self.shared` drops; all
        // connection threads are gone, so no ticket is left unresolved.
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.drain_and_join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<ServerShared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            // The wake-up connection (and any racer) is refused by closing
            // without a frame; clients see EOF.
            if stream.is_ok() {
                shared.connections_refused.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        let Ok(stream) = stream else { continue };
        shared.connections_accepted.fetch_add(1, Ordering::Relaxed);
        shared.open_connections.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("lobster-conn".to_string())
            .spawn(move || {
                connection_loop(stream, &shared);
                shared.open_connections.fetch_sub(1, Ordering::Relaxed);
            })
            .expect("spawn connection thread");
        let mut handles = connections.lock().unwrap_or_else(PoisonError::into_inner);
        handles.retain(|h| !h.is_finished());
        handles.push(handle);
    }
}

/// How often a blocked read re-checks the drain flag.
const READ_POLL: Duration = Duration::from_millis(100);
/// How long a drain waits for a half-read frame to finish arriving before
/// dropping the connection.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// One frame read with drain awareness. `Ok(Some(payload))` is a complete
/// frame; `Ok(None)` means the connection should close (clean EOF, or the
/// server is draining and no frame was in progress).
fn read_frame(
    stream: &mut TcpStream,
    max_bytes: usize,
    draining: &AtomicBool,
) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut buf: Option<(Vec<u8>, usize)> = None; // (payload, filled)
    let mut header_filled = 0usize;
    let mut drain_seen: Option<Instant> = None;
    loop {
        let mid_frame = header_filled > 0 || buf.is_some();
        if draining.load(Ordering::SeqCst) {
            if !mid_frame {
                return Ok(None);
            }
            // Give a half-sent frame a grace period, then cut the cord —
            // a stalled client must not hold the drain hostage.
            let since = *drain_seen.get_or_insert_with(Instant::now);
            if since.elapsed() > DRAIN_GRACE {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "drain grace expired mid-frame",
                ));
            }
        }
        let read = if let Some((payload, filled)) = &mut buf {
            match stream.read(&mut payload[*filled..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "eof mid-frame",
                    ))
                }
                Ok(n) => {
                    *filled += n;
                    if *filled == payload.len() {
                        let (payload, _) = buf.take().expect("frame in progress");
                        return Ok(Some(payload));
                    }
                    continue;
                }
                Err(e) => Err(e),
            }
        } else {
            match stream.read(&mut header[header_filled..]) {
                Ok(0) => {
                    if header_filled == 0 {
                        return Ok(None);
                    }
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "eof mid-header",
                    ));
                }
                Ok(n) => {
                    header_filled += n;
                    if header_filled == 4 {
                        let len = u32::from_be_bytes(header) as usize;
                        if len > max_bytes {
                            return Err(std::io::Error::new(
                                ErrorKind::InvalidData,
                                format!("frame of {len} bytes exceeds the {max_bytes} limit"),
                            ));
                        }
                        header_filled = 0;
                        if len == 0 {
                            return Ok(Some(Vec::new()));
                        }
                        buf = Some((vec![0u8; len], 0));
                    }
                    continue;
                }
                Err(e) => Err(e),
            }
        };
        match read {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
            Ok(()) => unreachable!(),
        }
    }
}

/// Writes one length-prefixed frame.
fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(ErrorKind::InvalidData, "frame payload exceeds u32 length")
    })?;
    stream.write_all(&len.to_be_bytes())?;
    stream.write_all(payload)?;
    stream.flush()
}

fn send(stream: &mut TcpStream, response: &Json) -> std::io::Result<()> {
    write_frame(stream, response.to_compact().as_bytes())
}

fn reject(code: &str, message: &str, retry_after: Option<Duration>) -> Json {
    let mut response = obj([
        ("ok", Json::Bool(false)),
        ("code", Json::from(code)),
        ("error", Json::from(message)),
    ]);
    if let Some(retry) = retry_after {
        // Ceil to a millisecond so a non-zero hint never rounds to "now".
        let ms = retry.as_millis().max(1) as u64;
        response.set("retry_after_ms", Json::from(ms));
    }
    response
}

fn connection_loop(mut stream: TcpStream, shared: &ServerShared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    loop {
        let payload = match read_frame(&mut stream, shared.config.max_frame_bytes, &shared.draining)
        {
            Ok(Some(payload)) => payload,
            Ok(None) => {
                // Clean close — or a drain with no frame in progress, which
                // deserves a parting `shutdown` so the client knows to go
                // elsewhere rather than retry here.
                if shared.draining.load(Ordering::SeqCst) {
                    let _ = send(
                        &mut stream,
                        &reject("shutdown", "server is draining; connection closed", None),
                    );
                }
                return;
            }
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                let _ = send(&mut stream, &reject("bad-frame", &e.to_string(), None));
                return;
            }
            Err(_) => return,
        };
        let response = handle_request(&payload, shared);
        if send(&mut stream, &response).is_err() {
            // The client went away mid-response; the request (if any) has
            // already run — nothing to unwind.
            return;
        }
    }
}

fn handle_request(payload: &[u8], shared: &ServerShared) -> Json {
    let rejected = |response: Json| {
        shared.requests_rejected.fetch_add(1, Ordering::Relaxed);
        response
    };
    let Ok(text) = std::str::from_utf8(payload) else {
        return rejected(reject("bad-request", "payload is not UTF-8", None));
    };
    let request = match parse(text) {
        Ok(request) => request,
        Err(e) => return rejected(reject("bad-request", &e.to_string(), None)),
    };
    let op = request.get("op").and_then(Json::as_str).unwrap_or("");
    match op {
        "ping" => obj([("ok", Json::Bool(true)), ("pong", Json::Bool(true))]),
        "metrics" | "run" => {
            // Stage 1: auth. The key is checked (and, for `run`, a quota
            // token spent) before anything else happens.
            let key = request.get("key").and_then(Json::as_str).unwrap_or("");
            if let Err(e) = shared.keys.check(key) {
                return rejected(match e {
                    AuthError::Unauthorized => {
                        reject("unauthorized", "unknown or missing API key", None)
                    }
                    AuthError::QuotaExceeded { retry_after } => {
                        reject("quota", "per-key quota exhausted", Some(retry_after))
                    }
                });
            }
            if op == "metrics" {
                return metrics_json(shared);
            }
            // Stage 2: admission. The scheduler's live depth decides;
            // shedding here is what keeps the queue — and the p99 of
            // everything already admitted — bounded.
            if let Err(retry_after) = shared.admission.admit(shared.scheduler.pending()) {
                return rejected(reject(
                    "shed",
                    "server at capacity; retry after the hinted delay",
                    Some(retry_after),
                ));
            }
            // Stage 3: the scheduler.
            let facts = match facts_from_json(request.get("facts")) {
                Ok(facts) => facts,
                Err(message) => return rejected(reject("bad-request", &message, None)),
            };
            let submitted = Instant::now();
            let ticket = shared.scheduler.submit(facts);
            match ticket.wait_timeout(shared.config.request_timeout) {
                Ok(result) => {
                    shared.admission.observe(submitted.elapsed());
                    shared.requests_served.fetch_add(1, Ordering::Relaxed);
                    result_to_json(&result)
                }
                Err(ServeError::Lobster(LobsterError::BadFact { message })) => {
                    rejected(reject("bad-request", &message, None))
                }
                Err(ServeError::Lobster(e)) => rejected(reject("execution", &e.to_string(), None)),
                Err(ServeError::TimedOut) => rejected(reject(
                    "timeout",
                    "request did not complete within the server's deadline",
                    None,
                )),
                Err(ServeError::ShutDown) => {
                    rejected(reject("shutdown", "server shut down mid-request", None))
                }
                Err(ServeError::Disconnected) => rejected(reject(
                    "disconnected",
                    "scheduler worker died without responding",
                    None,
                )),
            }
        }
        other => rejected(reject(
            "bad-request",
            &format!("unknown op `{other}` (expected run, metrics, or ping)"),
            None,
        )),
    }
}

// ---------------------------------------------------------------------------
// Wire encoding of facts and results.

fn value_to_json(value: &Value, result: Option<&RunResult>) -> Json {
    match value {
        Value::U32(n) => obj([("u32", Json::from(u64::from(*n)))]),
        Value::I64(n) => {
            if n.unsigned_abs() <= 1 << 53 {
                obj([("i64", Json::Num(*n as f64))])
            } else {
                obj([("i64", Json::from(n.to_string().as_str()))])
            }
        }
        Value::F64(x) => obj([("f64", Json::Num(*x))]),
        Value::Bool(b) => obj([("bool", Json::Bool(*b))]),
        Value::Symbol(id) => match result.and_then(|r| r.resolve_symbol(value)) {
            Some(text) => obj([("sym", Json::from(&*text))]),
            None => obj([("sym_id", Json::from(u64::from(*id)))]),
        },
    }
}

fn value_from_json(json: &Json) -> Result<Value, String> {
    let Json::Obj(pairs) = json else {
        return Err(format!(
            "value must be a tagged object, got {}",
            json.to_compact()
        ));
    };
    let [(tag, inner)] = pairs.as_slice() else {
        return Err("value object must have exactly one tag".to_string());
    };
    match tag.as_str() {
        "u32" => inner
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .map(Value::U32)
            .ok_or_else(|| format!("bad u32: {}", inner.to_compact())),
        "i64" => match inner {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => {
                Ok(Value::I64(*n as i64))
            }
            Json::Str(s) => s
                .parse()
                .map(Value::I64)
                .map_err(|_| format!("bad i64 string: {s:?}")),
            _ => Err(format!("bad i64: {}", inner.to_compact())),
        },
        "f64" => inner
            .as_f64()
            .map(Value::F64)
            .ok_or_else(|| format!("bad f64: {}", inner.to_compact())),
        "bool" => inner
            .as_bool()
            .map(Value::Bool)
            .ok_or_else(|| format!("bad bool: {}", inner.to_compact())),
        "sym" => inner
            .as_str()
            .map(|text| Value::Symbol(SymbolTable::global().intern(text)))
            .ok_or_else(|| format!("bad sym: {}", inner.to_compact())),
        "sym_id" => inner
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .map(Value::Symbol)
            .ok_or_else(|| format!("bad sym_id: {}", inner.to_compact())),
        other => Err(format!("unknown value tag `{other}`")),
    }
}

/// Builds the wire form of one fact for a `run` request (the [`Client`]
/// uses this; servers parse the inverse).
fn fact_to_json(
    relation: &str,
    values: &[Value],
    prob: Option<f64>,
    exclusion: Option<u32>,
) -> Json {
    let mut fact = obj([
        ("rel", Json::from(relation)),
        (
            "values",
            Json::Arr(values.iter().map(|v| value_to_json(v, None)).collect()),
        ),
    ]);
    if let Some(p) = prob {
        fact.set("prob", Json::Num(p));
    }
    if let Some(x) = exclusion {
        fact.set("exclusion", Json::from(u64::from(x)));
    }
    fact
}

fn facts_from_json(json: Option<&Json>) -> Result<FactSet, String> {
    let Some(items) = json.and_then(Json::as_arr) else {
        return Err("`facts` must be an array".to_string());
    };
    let mut facts = FactSet::new();
    for item in items {
        let relation = item
            .get("rel")
            .and_then(Json::as_str)
            .ok_or("fact is missing `rel`")?;
        let values = item
            .get("values")
            .and_then(Json::as_arr)
            .ok_or("fact is missing `values`")?
            .iter()
            .map(value_from_json)
            .collect::<Result<Vec<Value>, String>>()?;
        let prob = item.get("prob").and_then(Json::as_f64);
        if let Some(p) = prob {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability {p} outside [0, 1]"));
            }
        }
        let exclusion = item
            .get("exclusion")
            .and_then(Json::as_u64)
            .and_then(|n| u32::try_from(n).ok());
        match exclusion {
            Some(group) => facts.add_with_exclusion(relation, &values, prob, group),
            None => facts.add(relation, &values, prob),
        }
    }
    Ok(facts)
}

fn result_to_json(result: &RunResult) -> Json {
    let relations = result
        .relations()
        .into_iter()
        .map(|name| {
            let rows = result
                .relation(name)
                .iter()
                .map(|(tuple, output)| {
                    let mut row = obj([
                        (
                            "tuple",
                            Json::Arr(
                                tuple
                                    .iter()
                                    .map(|v| value_to_json(v, Some(result)))
                                    .collect(),
                            ),
                        ),
                        ("prob", Json::Num(output.probability)),
                    ]);
                    if !output.gradient.is_empty() {
                        row.set(
                            "grad",
                            Json::Arr(
                                output
                                    .gradient
                                    .iter()
                                    .map(|(id, g)| {
                                        Json::Arr(vec![Json::from(u64::from(id.0)), Json::Num(*g)])
                                    })
                                    .collect(),
                            ),
                        );
                    }
                    row
                })
                .collect();
            (name.to_string(), Json::Arr(rows))
        })
        .collect();
    obj([
        ("ok", Json::Bool(true)),
        ("relations", Json::Obj(relations)),
        ("iterations", Json::from(result.stats.iterations)),
    ])
}

fn kernel_time_json(time: &lobster::KernelTime) -> Json {
    obj([
        ("sort_ms", Json::Num(time.sort_ns as f64 / 1e6)),
        ("join_ms", Json::Num(time.join_ns as f64 / 1e6)),
        ("unique_ms", Json::Num(time.unique_ns as f64 / 1e6)),
        ("other_ms", Json::Num(time.other_ns as f64 / 1e6)),
    ])
}

fn cache_stats_json(stats: &CacheStats) -> Json {
    obj([
        ("hits", Json::from(stats.hits)),
        ("misses", Json::from(stats.misses)),
        ("coalesced", Json::from(stats.coalesced)),
        ("compiles", Json::from(stats.compiles)),
        ("evictions", Json::from(stats.evictions)),
        ("collisions", Json::from(stats.collisions)),
        ("resident_bytes", Json::from(stats.resident_bytes)),
        ("resident_programs", Json::from(stats.resident_programs)),
    ])
}

/// The `metrics` document: every stats surface the serving stack already
/// collects, serialized in one place — scheduler, admission, auth, device
/// (kernel-time buckets and arena, summed over the devices that execute
/// batches), connections, and the program cache when the server was given
/// one.
fn metrics_json(shared: &ServerShared) -> Json {
    let scheduler = shared.scheduler.stats();
    let admission = shared.admission.stats();
    let auth = shared.keys.stats();
    let mut device = DeviceStats::default();
    let mut arena = ArenaStats::default();
    for executing in shared.scheduler.devices() {
        device.merge(&executing.stats());
        let stats = executing.arena().stats();
        arena.fresh_columns += stats.fresh_columns;
        arena.reused_columns += stats.reused_columns;
        arena.recycled_columns += stats.recycled_columns;
        arena.pooled_buffers += stats.pooled_buffers;
        arena.pooled_bytes += stats.pooled_bytes;
    }
    let mut metrics = obj([
        ("ok", Json::Bool(true)),
        (
            "uptime_s",
            Json::Num(shared.started.elapsed().as_secs_f64()),
        ),
        (
            "scheduler",
            obj([
                ("batches", Json::from(scheduler.batches)),
                ("sharded_chunks", Json::from(scheduler.sharded_chunks)),
                ("samples", Json::from(scheduler.samples)),
                ("full_flushes", Json::from(scheduler.full_flushes)),
                ("timer_flushes", Json::from(scheduler.timer_flushes)),
                ("largest_batch", Json::from(scheduler.largest_batch)),
                ("queued", Json::from(shared.scheduler.queued())),
                ("executing", Json::from(shared.scheduler.executing())),
            ]),
        ),
        (
            "admission",
            obj([
                ("admitted", Json::from(admission.admitted)),
                ("shed", Json::from(admission.shed)),
                (
                    "max_pending",
                    Json::from(shared.config.admission.max_pending),
                ),
            ]),
        ),
        (
            "auth",
            obj([
                ("admitted", Json::from(auth.admitted)),
                ("unauthorized", Json::from(auth.unauthorized)),
                ("quota_rejected", Json::from(auth.quota_rejected)),
                ("keys", Json::from(shared.keys.len())),
            ]),
        ),
        (
            "connections",
            obj([
                (
                    "accepted",
                    Json::from(shared.connections_accepted.load(Ordering::Relaxed)),
                ),
                (
                    "refused",
                    Json::from(shared.connections_refused.load(Ordering::Relaxed)),
                ),
                (
                    "open",
                    Json::from(shared.open_connections.load(Ordering::Relaxed)),
                ),
                (
                    "served",
                    Json::from(shared.requests_served.load(Ordering::Relaxed)),
                ),
                (
                    "rejected",
                    Json::from(shared.requests_rejected.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        (
            "device",
            obj([
                ("kernel_launches", Json::from(device.kernel_launches)),
                ("kernel_time", kernel_time_json(&device.kernel_time)),
                ("kernel_wall", kernel_time_json(&device.kernel_wall)),
                ("allocations", Json::from(device.allocations)),
                ("live_bytes", Json::from(device.live_bytes)),
                ("peak_bytes", Json::from(device.peak_bytes)),
                (
                    "arena",
                    obj([
                        ("fresh_columns", Json::from(arena.fresh_columns)),
                        ("reused_columns", Json::from(arena.reused_columns)),
                        ("recycled_columns", Json::from(arena.recycled_columns)),
                        ("pooled_buffers", Json::from(arena.pooled_buffers)),
                        ("pooled_bytes", Json::from(arena.pooled_bytes)),
                    ]),
                ),
            ]),
        ),
    ]);
    if let Some(cache) = &shared.config.cache {
        metrics.set("cache", cache_stats_json(&cache.stats()));
    }
    metrics
}

// ---------------------------------------------------------------------------
// Client.

/// Why a [`Client`] call failed *at the transport layer* (protocol-level
/// rejections arrive as a normal [`Reply`] instead).
#[derive(Debug)]
pub enum ClientError {
    /// Socket failure (includes the read deadline expiring).
    Io(std::io::Error),
    /// The server's frame did not contain valid JSON.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport failure: {e}"),
            ClientError::Protocol(message) => write!(f, "protocol violation: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A server response, thinly wrapped for the fields every caller reads.
#[derive(Debug, Clone)]
pub struct Reply {
    json: Json,
}

impl Reply {
    /// Whether the request succeeded.
    pub fn ok(&self) -> bool {
        self.json.get("ok").and_then(Json::as_bool).unwrap_or(false)
    }

    /// The rejection code (`shed`, `quota`, …) of a failed request.
    pub fn code(&self) -> Option<&str> {
        self.json.get("code").and_then(Json::as_str)
    }

    /// The structured backoff hint of a `shed`/`quota` rejection.
    pub fn retry_after(&self) -> Option<Duration> {
        self.json
            .get("retry_after_ms")
            .and_then(Json::as_u64)
            .map(Duration::from_millis)
    }

    /// The probability of a derived tuple in a successful `run` reply
    /// (`0.0` when not derived).
    pub fn probability(&self, relation: &str, tuple: &[Value]) -> f64 {
        let want: Vec<Json> = tuple.iter().map(|v| value_to_json(v, None)).collect();
        self.json
            .get("relations")
            .and_then(|r| r.get(relation))
            .and_then(Json::as_arr)
            .and_then(|rows| {
                rows.iter()
                    .find(|row| row.get("tuple").and_then(Json::as_arr) == Some(want.as_slice()))
            })
            .and_then(|row| row.get("prob"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    /// Number of derived tuples in a relation of a successful `run` reply.
    pub fn len(&self, relation: &str) -> usize {
        self.json
            .get("relations")
            .and_then(|r| r.get(relation))
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len)
    }

    /// `true` when the relation derived no tuples (or is absent).
    pub fn is_empty(&self, relation: &str) -> bool {
        self.len(relation) == 0
    }

    /// The raw response document.
    pub fn json(&self) -> &Json {
        &self.json
    }
}

/// A blocking protocol client: one TCP connection, requests answered in
/// order. Used by the load generator, the integration tests, and as the
/// reference implementation of the wire format.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    key: String,
}

impl Client {
    /// Connects and remembers `key` for every subsequent request.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs, key: impl Into<String>) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        // A deadline on every read: a client of a draining or wedged server
        // reports an error instead of hanging forever (the load generator's
        // "zero hung connections" assertion counts on this).
        let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
        Ok(Client {
            stream,
            key: key.into(),
        })
    }

    fn request(&mut self, request: &Json) -> Result<Reply, ClientError> {
        write_frame(&mut self.stream, request.to_compact().as_bytes())?;
        // The client never drains; a dummy flag keeps `read_frame` shared.
        static NEVER: AtomicBool = AtomicBool::new(false);
        let payload =
            read_frame(&mut self.stream, u32::MAX as usize, &NEVER)?.ok_or_else(|| {
                ClientError::Io(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            })?;
        let text = std::str::from_utf8(&payload)
            .map_err(|_| ClientError::Protocol("response is not UTF-8".to_string()))?;
        let json = parse(text).map_err(|e| ClientError::Protocol(e.to_string()))?;
        Ok(Reply { json })
    }

    /// Health check.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn ping(&mut self) -> Result<Reply, ClientError> {
        self.request(&obj([("op", Json::from("ping"))]))
    }

    /// Submits one `run` request and blocks for the reply (success or
    /// structured rejection).
    ///
    /// # Errors
    ///
    /// Transport failures only; rejections are `Ok` replies with
    /// [`Reply::ok`] false.
    pub fn run(&mut self, facts: &FactSet) -> Result<Reply, ClientError> {
        let wire_facts: Vec<Json> = facts
            .facts()
            .map(|(relation, values, prob, exclusion)| {
                fact_to_json(relation, values, prob, exclusion)
            })
            .collect();
        self.request(&obj([
            ("op", Json::from("run")),
            ("key", Json::from(self.key.as_str())),
            ("facts", Json::Arr(wire_facts)),
        ]))
    }

    /// Fetches the server's metrics document.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn metrics(&mut self) -> Result<Reply, ClientError> {
        self.request(&obj([
            ("op", Json::from("metrics")),
            ("key", Json::from(self.key.as_str())),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::Quota;
    use lobster::ProvenanceKind;

    const TC: &str = "type edge(x: u32, y: u32)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";

    fn test_server(configure: impl FnOnce(ServerConfig) -> ServerConfig) -> Server {
        let program =
            Arc::new(Program::compile(TC, ProvenanceKind::AddMultProb).expect("compiles"));
        let keys = KeyStore::new();
        keys.add_key("test-key", Quota::unlimited());
        Server::bind(
            ("127.0.0.1", 0),
            program,
            keys,
            configure(ServerConfig::default()),
        )
        .expect("bind")
    }

    fn edge_request(a: u32, b: u32, p: f64) -> FactSet {
        let mut facts = FactSet::new();
        facts.add("edge", &[Value::U32(a), Value::U32(b)], Some(p));
        facts
    }

    #[test]
    fn run_round_trips_over_tcp() {
        let server = test_server(|c| c);
        let mut client = Client::connect(server.local_addr(), "test-key").unwrap();
        assert!(client.ping().unwrap().ok());
        let reply = client.run(&edge_request(0, 1, 0.75)).unwrap();
        assert!(reply.ok(), "reply: {:?}", reply.json().to_compact());
        assert_eq!(reply.len("path"), 1);
        let p = reply.probability("path", &[Value::U32(0), Value::U32(1)]);
        assert!((p - 0.75).abs() < 1e-9);
        server.shutdown();
    }

    #[test]
    fn gradients_and_multi_hop_tuples_cross_the_wire() {
        let program =
            Arc::new(Program::compile(TC, ProvenanceKind::DiffTop1Proof).expect("compiles"));
        let keys = KeyStore::new();
        keys.add_key("k", Quota::unlimited());
        let server =
            Server::bind(("127.0.0.1", 0), program, keys, ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr(), "k").unwrap();
        let mut facts = FactSet::new();
        facts.add("edge", &[Value::U32(0), Value::U32(1)], Some(0.9));
        facts.add("edge", &[Value::U32(1), Value::U32(2)], Some(0.5));
        let reply = client.run(&facts).unwrap();
        assert!(reply.ok());
        assert_eq!(reply.len("path"), 3);
        let p = reply.probability("path", &[Value::U32(0), Value::U32(2)]);
        assert!((p - 0.45).abs() < 1e-9, "p = {p}");
        // The 2-hop tuple's gradient names both request-local fact ids.
        let rows = reply
            .json()
            .get("relations")
            .and_then(|r| r.get("path"))
            .and_then(Json::as_arr)
            .unwrap();
        let grads: Vec<&Json> = rows.iter().filter_map(|row| row.get("grad")).collect();
        assert!(!grads.is_empty(), "no gradients in {rows:?}");
        server.shutdown();
    }

    #[test]
    fn unknown_keys_and_unknown_ops_are_rejected() {
        let server = test_server(|c| c);
        let mut client = Client::connect(server.local_addr(), "wrong-key").unwrap();
        let reply = client.run(&edge_request(0, 1, 0.5)).unwrap();
        assert!(!reply.ok());
        assert_eq!(reply.code(), Some("unauthorized"));
        let reply = client
            .request(&obj([("op", Json::from("explode"))]))
            .unwrap();
        assert_eq!(reply.code(), Some("bad-request"));
        assert_eq!(server.stats().requests_rejected, 2);
        server.shutdown();
    }

    #[test]
    fn malformed_facts_are_rejected_as_bad_request() {
        let server = test_server(|c| c);
        let mut client = Client::connect(server.local_addr(), "test-key").unwrap();
        // Unknown relation — rejected by the scheduler's validation.
        let mut ghost = FactSet::new();
        ghost.add("ghost", &[Value::U32(0)], None);
        let reply = client.run(&ghost).unwrap();
        assert_eq!(reply.code(), Some("bad-request"));
        // Unparseable value tag — rejected by the wire decoder.
        let reply = client
            .request(&obj([
                ("op", Json::from("run")),
                ("key", Json::from("test-key")),
                (
                    "facts",
                    Json::Arr(vec![obj([
                        ("rel", Json::from("edge")),
                        ("values", Json::Arr(vec![obj([("blob", Json::Null)])])),
                    ])]),
                ),
            ]))
            .unwrap();
        assert_eq!(reply.code(), Some("bad-request"));
        // A well-formed value of the wrong type for its column — 2^40 in
        // `edge(u32, u32)` — rejected against the schema. Unchecked, a
        // release build stores its low 32 bits and answers `path(0, 1)`.
        let wide = obj([("i64", Json::from("1099511627776"))]);
        let reply = client
            .request(&obj([
                ("op", Json::from("run")),
                ("key", Json::from("test-key")),
                (
                    "facts",
                    Json::Arr(vec![obj([
                        ("rel", Json::from("edge")),
                        (
                            "values",
                            Json::Arr(vec![wide, obj([("u32", Json::from(1u64))])]),
                        ),
                    ])]),
                ),
            ]))
            .unwrap();
        assert_eq!(reply.code(), Some("bad-request"), "{:?}", reply.json());
        // The connection survives rejections.
        let reply = client.run(&edge_request(0, 1, 0.5)).unwrap();
        assert!(reply.ok());
        assert_eq!(reply.len("path"), 1);
        server.shutdown();
    }

    #[test]
    fn metrics_reports_every_stats_surface() {
        let cache = Arc::new(ProgramCache::new());
        let program = cache
            .get_or_compile(TC, ProvenanceKind::AddMultProb)
            .unwrap();
        let keys = KeyStore::new();
        keys.add_key("k", Quota::unlimited());
        let server = Server::bind(
            ("127.0.0.1", 0),
            program,
            keys,
            ServerConfig {
                cache: Some(Arc::clone(&cache)),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr(), "k").unwrap();
        assert!(client.run(&edge_request(0, 1, 0.5)).unwrap().ok());
        let metrics = client.metrics().unwrap();
        assert!(metrics.ok());
        let doc = metrics.json();
        let samples = doc
            .get("scheduler")
            .and_then(|s| s.get("samples"))
            .and_then(Json::as_u64);
        assert_eq!(samples, Some(1));
        assert_eq!(
            doc.get("admission")
                .and_then(|a| a.get("admitted"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            doc.get("cache")
                .and_then(|c| c.get("compiles"))
                .and_then(Json::as_u64),
            Some(1)
        );
        for surface in ["auth", "connections", "device"] {
            assert!(doc.get(surface).is_some(), "metrics missing {surface}");
        }
        assert!(
            doc.get("device")
                .and_then(|d| d.get("kernel_time"))
                .and_then(|t| t.get("join_ms"))
                .and_then(Json::as_f64)
                .is_some(),
            "kernel-time buckets missing"
        );
        server.shutdown();
    }

    #[test]
    fn sharded_metrics_report_the_shard_devices_work() {
        // The program's own device runs nothing once it is split into
        // shards; the document must count the devices that do.
        let server = test_server(|mut c| {
            c.scheduler = c.scheduler.with_num_shards(2);
            c
        });
        let mut client = Client::connect(server.local_addr(), "test-key").unwrap();
        assert!(client.run(&edge_request(0, 1, 0.5)).unwrap().ok());
        let metrics = client.metrics().unwrap();
        let device = metrics.json().get("device").expect("device block");
        let launches = device.get("kernel_launches").and_then(Json::as_u64);
        assert!(launches > Some(0), "kernel_launches: {launches:?}");
        let fresh = device
            .get("arena")
            .and_then(|a| a.get("fresh_columns"))
            .and_then(Json::as_u64);
        assert!(fresh > Some(0), "arena.fresh_columns: {fresh:?}");
        server.shutdown();
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocation() {
        let server = test_server(|mut c| {
            c.max_frame_bytes = 64;
            c
        });
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(&(1_000_000u32).to_be_bytes()).unwrap();
        stream.flush().unwrap();
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        static NEVER: AtomicBool = AtomicBool::new(false);
        let reply = read_frame(&mut stream, u32::MAX as usize, &NEVER)
            .unwrap()
            .expect("a bad-frame reply");
        let json = parse(std::str::from_utf8(&reply).unwrap()).unwrap();
        assert_eq!(json.get("code").and_then(Json::as_str), Some("bad-frame"));
        server.shutdown();
    }

    #[test]
    fn value_encoding_round_trips_every_type() {
        for value in [
            Value::U32(0),
            Value::U32(u32::MAX),
            Value::I64(-5),
            Value::I64(i64::MAX),
            Value::F64(2.5),
            Value::Bool(true),
            Value::Symbol(7),
        ] {
            let encoded = value_to_json(&value, None);
            let decoded = value_from_json(&encoded).expect("decodes");
            assert_eq!(value, decoded, "via {}", encoded.to_compact());
        }
    }

    #[test]
    fn sym_text_values_intern_through_the_shared_table() {
        let json = obj([("sym", Json::from("net-shared-intern"))]);
        let decoded = value_from_json(&json).expect("decodes");
        let expected = SymbolTable::global().intern("net-shared-intern");
        assert_eq!(decoded, Value::Symbol(expected));
        // A second decode agrees with the first: the id is stable.
        assert_eq!(value_from_json(&json).unwrap(), Value::Symbol(expected));
        // Non-string payloads are rejected, not silently coerced.
        let bad = obj([("sym", Json::from(3u64))]);
        assert!(value_from_json(&bad).is_err());
    }
}
