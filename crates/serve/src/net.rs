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
//! payload length followed by that many bytes of UTF-8 JSON, sent in one
//! write. Frames above [`ServerConfig::max_frame_bytes`] are rejected
//! without being read. A `run` request is decoded straight into a
//! [`FactSet`] and its reply written straight from the [`RunResult`] rows:
//! no JSON tree on either side, and the bytes the tree would give.
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
//! into the process-wide symbol table once the whole frame has been
//! checked), `{"sym_id": n}` (a raw id the process has interned; any other
//! is a `bad-request`) — and responses resolve interned symbols back to
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
use crate::json::{self, obj, parse, write_int, write_number, write_str, Json, JsonError, Tokens};
use crate::scheduler::{BatchScheduler, SchedulerConfig};
use lobster::{FactSet, LobsterError, Program, RunResult, SymbolTable, Value};
use std::borrow::Cow;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Knobs of the [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Scheduler knobs (batching, workers).
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
                .spawn(move || accept_loop(&listener, &shared, &connections))?
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
        let open = OpenConnection::new(shared);
        let spawned = std::thread::Builder::new()
            .name("lobster-conn".to_string())
            .spawn(move || connection_loop(stream, &open.0));
        match spawned {
            Ok(handle) => {
                shared.connections_accepted.fetch_add(1, Ordering::Relaxed);
                let mut handles = connections.lock().unwrap_or_else(PoisonError::into_inner);
                handles.retain(|h| !h.is_finished());
                handles.push(handle);
            }
            // The thread never started: its closure, and with it the stream
            // and its open count, is dropped, so the client sees the
            // connection close and the server keeps accepting.
            Err(_) => {
                shared.connections_refused.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// One open connection, counted for as long as its thread holds this: a
/// thread that panics is uncounted as it unwinds, and one that never
/// started is uncounted when its closure is dropped.
struct OpenConnection(Arc<ServerShared>);

impl OpenConnection {
    fn new(shared: &Arc<ServerShared>) -> Self {
        shared.open_connections.fetch_add(1, Ordering::Relaxed);
        OpenConnection(Arc::clone(shared))
    }
}

impl Drop for OpenConnection {
    fn drop(&mut self) {
        self.0.open_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// How often a blocked read re-checks the drain flag.
const READ_POLL: Duration = Duration::from_millis(100);
/// How long a drain waits for a half-read frame to finish arriving before
/// dropping the connection.
const DRAIN_GRACE: Duration = Duration::from_secs(2);
/// Capacity a connection's frame buffers keep between frames; a larger
/// frame's buffer is given back once it has been handled.
const KEEP_BYTES: usize = 64 << 10;

/// One frame read with drain awareness into `payload`, whose allocation is
/// reused from frame to frame. `Ok(true)` is a complete frame; `Ok(false)`
/// means the connection should close (clean EOF, or the server is draining
/// and no frame was in progress).
fn read_frame(
    stream: &mut TcpStream,
    max_bytes: usize,
    draining: &AtomicBool,
    payload: &mut Vec<u8>,
) -> std::io::Result<bool> {
    let mut header = [0u8; 4];
    let mut header_filled = 0usize;
    // `Some(filled)` once the header has been read.
    let mut filled: Option<usize> = None;
    let mut drain_seen: Option<Instant> = None;
    loop {
        if draining.load(Ordering::SeqCst) {
            if header_filled == 0 && filled.is_none() {
                return Ok(false);
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
        let read = match filled {
            Some(filled) => stream.read(&mut payload[filled..]),
            None => stream.read(&mut header[header_filled..]),
        };
        match read {
            Ok(0) if header_filled == 0 && filled.is_none() => return Ok(false),
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    if filled.is_some() {
                        "eof mid-frame"
                    } else {
                        "eof mid-header"
                    },
                ))
            }
            Ok(n) => match &mut filled {
                Some(filled) => {
                    *filled += n;
                    if *filled == payload.len() {
                        return Ok(true);
                    }
                }
                None => {
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
                        payload.clear();
                        payload.resize(len, 0);
                        if len == 0 {
                            return Ok(true);
                        }
                        filled = Some(0);
                    }
                }
            },
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Sends one frame in one `write_all`: `build` writes the payload into
/// `out` behind four reserved bytes, which then take the big-endian length.
/// `out` is left empty, its allocation kept for the next frame.
fn send_frame(
    stream: &mut impl Write,
    out: &mut String,
    build: impl FnOnce(&mut String),
) -> std::io::Result<()> {
    out.clear();
    out.push_str("\0\0\0\0");
    build(out);
    let mut frame = std::mem::take(out).into_bytes();
    let sent = match u32::try_from(frame.len() - 4) {
        Ok(len) => {
            frame[..4].copy_from_slice(&len.to_be_bytes());
            stream.write_all(&frame)
        }
        Err(_) => Err(std::io::Error::new(
            ErrorKind::InvalidData,
            "frame payload exceeds u32 length",
        )),
    };
    frame.clear();
    frame.shrink_to(KEEP_BYTES);
    // An empty buffer is UTF-8, so the allocation comes back as it went.
    *out = String::from_utf8(frame).unwrap_or_default();
    sent
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
    let mut payload = Vec::new();
    let mut out = String::new();
    loop {
        match read_frame(
            &mut stream,
            shared.config.max_frame_bytes,
            &shared.draining,
            &mut payload,
        ) {
            Ok(true) => {}
            Ok(false) => {
                // Clean close — or a drain with no frame in progress, which
                // deserves a parting `shutdown` so the client knows to go
                // elsewhere rather than retry here.
                if shared.draining.load(Ordering::SeqCst) {
                    let shutdown =
                        reject("shutdown", "server is draining; connection closed", None);
                    let _ = send_frame(&mut stream, &mut out, |out| shutdown.write_compact(out));
                }
                return;
            }
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                let bad = reject("bad-frame", &e.to_string(), None);
                let _ = send_frame(&mut stream, &mut out, |out| bad.write_compact(out));
                return;
            }
            Err(_) => return,
        }
        let answer = handle_request(&payload, shared);
        payload.clear();
        payload.shrink_to(KEEP_BYTES);
        if send_frame(&mut stream, &mut out, |out| answer.write(out)).is_err() {
            // The client went away mid-response; the request (if any) has
            // already run — nothing to unwind.
            return;
        }
    }
}

/// What a request is answered with: a document, or a `run`'s result, whose
/// rows are written straight into the frame.
enum Answer {
    Doc(Json),
    Rows(RunResult),
}

impl Answer {
    fn write(&self, out: &mut String) {
        match self {
            Answer::Doc(json) => json.write_compact(out),
            Answer::Rows(result) => write_run_reply(result, out),
        }
    }
}

fn handle_request(payload: &[u8], shared: &ServerShared) -> Answer {
    let rejected = |response: Json| {
        shared.requests_rejected.fetch_add(1, Ordering::Relaxed);
        Answer::Doc(response)
    };
    let Ok(text) = std::str::from_utf8(payload) else {
        return rejected(reject("bad-request", "payload is not UTF-8", None));
    };
    let Request { op, key, facts } = match decode_request(text) {
        Ok(request) => request,
        Err(e) => return rejected(reject("bad-request", &e.to_string(), None)),
    };
    match &*op {
        "ping" => Answer::Doc(obj([("ok", Json::Bool(true)), ("pong", Json::Bool(true))])),
        "metrics" | "run" => {
            // Stage 1: auth. The key is checked (and, for `run`, a quota
            // token spent) before anything else happens.
            if let Err(e) = shared.keys.check(&key) {
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
                return Answer::Doc(metrics_json(shared));
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
            let program = shared.scheduler.program();
            let facts = match facts.and_then(|facts| facts.intern(program)) {
                Ok(facts) => facts,
                Err(message) => return rejected(reject("bad-request", &message, None)),
            };
            let submitted = Instant::now();
            let ticket = shared.scheduler.submit(facts);
            match ticket.wait_timeout(shared.config.request_timeout) {
                Ok(result) => {
                    shared.admission.observe(submitted.elapsed());
                    shared.requests_served.fetch_add(1, Ordering::Relaxed);
                    Answer::Rows(result)
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
// Wire encoding of facts and results: requests are decoded and replies
// written without a JSON tree, to the bytes the tree would give.

/// A request frame, decoded: the first `op` and `key` (empty unless a
/// string) and, for a `run`, its facts — or the first reason they are
/// refused, which the pipeline reports after auth and admission.
struct Request<'a> {
    op: Cow<'a, str>,
    key: Cow<'a, str>,
    facts: Result<WireFacts<'a>, String>,
}

/// Decodes a request frame in one pass. A syntax error anywhere refuses the
/// frame with the error [`json::parse`] gives; facts that are malformed are
/// read on to the end of the frame, so a later syntax error still wins. The
/// first of duplicate keys counts; unknown keys are checked and skipped.
fn decode_request(text: &str) -> Result<Request<'_>, JsonError> {
    let mut tokens = Tokens::new(text);
    tokens.skip_ws();
    let (mut op, mut key, mut facts) = (None, None, None);
    if tokens.peek() == Some(b'{') {
        if tokens.begin_object()? {
            loop {
                match &*tokens.key()? {
                    "op" if op.is_none() => op = Some(tokens.string_or_tree(1)?.ok()),
                    "key" if key.is_none() => key = Some(tokens.string_or_tree(1)?.ok()),
                    "facts" if facts.is_none() => facts = Some(FactDecoder::decode(&mut tokens)?),
                    _ => drop(tokens.value(1)?),
                }
                if !tokens.next_member()? {
                    break;
                }
            }
        }
    } else {
        tokens.value(0)?;
    }
    tokens.finish()?;
    Ok(Request {
        op: op.flatten().unwrap_or_default(),
        key: key.flatten().unwrap_or_default(),
        facts: facts.unwrap_or_else(|| Err("`facts` must be an array".to_string())),
    })
}

/// The facts of a `run` frame. A `sym` text stands as an unresolved symbol
/// until [`WireFacts::intern`], so a frame rejected for any reason leaves
/// the process-global symbol table as it was.
struct WireFacts<'a> {
    facts: FactSet,
    /// Each `sym` text, with the place of its value among all the frame's
    /// values, in order.
    texts: Vec<(usize, Cow<'a, str>)>,
}

impl WireFacts<'_> {
    /// The facts with their texts interned. A frame that names symbols by
    /// text is first checked against `program`'s relations, arities and
    /// column types.
    fn intern(self, program: &Program) -> Result<FactSet, String> {
        if self.texts.is_empty() {
            return Ok(self.facts);
        }
        program
            .validate_facts(&self.facts)
            .map_err(|e| e.to_string())?;
        let symbols = SymbolTable::global();
        let mut texts = self.texts.iter().peekable();
        let mut interned = FactSet::new();
        let mut row = Vec::new();
        let mut at = 0;
        for (relation, values, prob, exclusion) in self.facts.facts() {
            row.clear();
            for &value in values {
                row.push(match texts.next_if(|(place, _)| *place == at) {
                    Some((_, text)) => Value::Symbol(symbols.intern(text)),
                    None => value,
                });
                at += 1;
            }
            match exclusion {
                Some(group) => interned.add_with_exclusion(relation, &row, prob, group),
                None => interned.add(relation, &row, prob),
            }
        }
        Ok(interned)
    }
}

/// Reads a `facts` array into a [`FactSet`]. Each method returns the
/// syntax error that refuses the frame, or else the first error of the
/// facts it read — the same message as the tree walk it replaces.
struct FactDecoder<'a> {
    facts: FactSet,
    texts: Vec<(usize, Cow<'a, str>)>,
    /// The values of the fact being read.
    row: Vec<Value>,
    /// Values in the facts already added.
    values: usize,
    symbols: SymbolTable,
}

type Decoded<T> = Result<Result<T, String>, JsonError>;

/// The array at the cursor, item by item through `item` until one is
/// refused; the items after it are only syntax-checked. Anything but an
/// array is refused with `not_array`.
fn items<'a>(
    tokens: &mut Tokens<'a>,
    depth: usize,
    not_array: &str,
    mut item: impl FnMut(&mut Tokens<'a>) -> Decoded<()>,
) -> Decoded<()> {
    if tokens.peek() != Some(b'[') {
        tokens.value(depth)?;
        return Ok(Err(not_array.to_string()));
    }
    tokens.enter(depth)?;
    let mut refused = None;
    if tokens.begin_array()? {
        loop {
            if refused.is_some() {
                tokens.value(depth + 1)?;
            } else if let Err(e) = item(tokens)? {
                refused = Some(e);
            }
            if !tokens.next_item()? {
                break;
            }
        }
    }
    Ok(refused.map_or(Ok(()), Err))
}

impl<'a> FactDecoder<'a> {
    /// The `facts` member's value, at depth 1.
    fn decode(tokens: &mut Tokens<'a>) -> Decoded<WireFacts<'a>> {
        let mut decoder = FactDecoder {
            facts: FactSet::new(),
            texts: Vec::new(),
            row: Vec::new(),
            values: 0,
            symbols: SymbolTable::global(),
        };
        let read = items(tokens, 1, "`facts` must be an array", |tokens| {
            decoder.fact(tokens, 2)
        })?;
        Ok(read.map(|()| WireFacts {
            facts: decoder.facts,
            texts: decoder.texts,
        }))
    }

    /// One fact object. Its fields are judged in the order `rel`, `values`,
    /// `prob`, whatever order the frame gives them in; a `prob` or an
    /// `exclusion` that is not a number in range is ignored.
    fn fact(&mut self, tokens: &mut Tokens<'a>, depth: usize) -> Decoded<()> {
        const NO_REL: &str = "fact is missing `rel`";
        const NO_VALUES: &str = "fact is missing `values`";
        if tokens.peek() != Some(b'{') {
            tokens.value(depth)?;
            return Ok(Err(NO_REL.to_string()));
        }
        tokens.enter(depth)?;
        self.row.clear();
        let (mut rel, mut values, mut prob, mut exclusion) = (None, None, None, None);
        if tokens.begin_object()? {
            loop {
                match &*tokens.key()? {
                    "rel" if rel.is_none() => rel = Some(tokens.string_or_tree(depth + 1)?.ok()),
                    "values" if values.is_none() => {
                        let read = items(tokens, depth + 1, NO_VALUES, |tokens| {
                            let value = self.value(tokens, depth + 2)?;
                            Ok(value.map(|value| self.row.push(value)))
                        })?;
                        values = Some(read);
                    }
                    "prob" if prob.is_none() => prob = Some(tokens.value(depth + 1)?),
                    "exclusion" if exclusion.is_none() => {
                        exclusion = Some(tokens.value(depth + 1)?);
                    }
                    _ => drop(tokens.value(depth + 1)?),
                }
                if !tokens.next_member()? {
                    break;
                }
            }
        }
        let Some(Some(relation)) = rel else {
            return Ok(Err(NO_REL.to_string()));
        };
        if let Err(e) = values.unwrap_or_else(|| Err(NO_VALUES.to_string())) {
            return Ok(Err(e));
        }
        let prob = prob.as_ref().and_then(Json::as_f64);
        if let Some(p) = prob {
            if !(0.0..=1.0).contains(&p) {
                return Ok(Err(format!("probability {p} outside [0, 1]")));
            }
        }
        let exclusion = exclusion
            .as_ref()
            .and_then(Json::as_u64)
            .and_then(|n| u32::try_from(n).ok());
        match exclusion {
            Some(group) => self
                .facts
                .add_with_exclusion(relation, &self.row, prob, group),
            None => self.facts.add(relation, &self.row, prob),
        }
        self.values += self.row.len();
        Ok(Ok(()))
    }

    /// One tagged value. A `sym` text is recorded in `self.texts` and
    /// stands as `Value::Symbol(u32::MAX)`, which type checks read as a
    /// symbol; a `sym_id` must name a symbol the process has interned.
    fn value(&mut self, tokens: &mut Tokens<'a>, depth: usize) -> Decoded<Value> {
        const ONE_TAG: &str = "value object must have exactly one tag";
        if tokens.peek() != Some(b'{') {
            let other = tokens.value(depth)?;
            return Ok(Err(format!(
                "value must be a tagged object, got {}",
                other.to_compact()
            )));
        }
        tokens.enter(depth)?;
        if !tokens.begin_object()? {
            return Ok(Err(ONE_TAG.to_string()));
        }
        let tag = tokens.key()?;
        let value = match &*tag {
            "sym" => match tokens.string_or_tree(depth + 1)? {
                Ok(text) => {
                    self.texts.push((self.values + self.row.len(), text));
                    Ok(Value::Symbol(u32::MAX))
                }
                Err(other) => Err(format!("bad sym: {}", other.to_compact())),
            },
            "i64" => match tokens.string_or_tree(depth + 1)? {
                Ok(text) => text
                    .parse()
                    .map(Value::I64)
                    .map_err(|_| format!("bad i64 string: {text:?}")),
                Err(Json::Num(n)) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => {
                    Ok(Value::I64(n as i64))
                }
                Err(other) => Err(format!("bad i64: {}", other.to_compact())),
            },
            tag => {
                let inner = tokens.value(depth + 1)?;
                self.scalar(tag, &inner)
            }
        };
        if tokens.next_member()? {
            loop {
                tokens.key()?;
                tokens.value(depth + 1)?;
                if !tokens.next_member()? {
                    break;
                }
            }
            return Ok(Err(ONE_TAG.to_string()));
        }
        Ok(value)
    }

    /// A value whose tag is neither `sym` nor `i64`.
    fn scalar(&self, tag: &str, inner: &Json) -> Result<Value, String> {
        let id = || inner.as_u64().and_then(|n| u32::try_from(n).ok());
        match tag {
            "u32" => id()
                .map(Value::U32)
                .ok_or_else(|| format!("bad u32: {}", inner.to_compact())),
            "f64" => inner
                .as_f64()
                .map(Value::F64)
                .ok_or_else(|| format!("bad f64: {}", inner.to_compact())),
            "bool" => inner
                .as_bool()
                .map(Value::Bool)
                .ok_or_else(|| format!("bad bool: {}", inner.to_compact())),
            "sym_id" => match id() {
                Some(id) if self.symbols.resolve(id).is_some() => Ok(Value::Symbol(id)),
                Some(id) => Err(format!("unknown sym_id {id}: no symbol has that id")),
                None => Err(format!("bad sym_id: {}", inner.to_compact())),
            },
            other => Err(format!("unknown value tag `{other}`")),
        }
    }
}

/// Writes a value as the wire tags it: `{"u32": n}`, `{"i64": n}` (a
/// string beyond ±2^53), `{"f64": x}`, `{"bool": b}`, and a symbol as
/// `{"sym": "text"}` when `result` resolves it, else `{"sym_id": n}`.
fn write_value(value: &Value, result: Option<&RunResult>, out: &mut String) {
    match value {
        Value::U32(n) => {
            out.push_str("{\"u32\": ");
            write_int(i64::from(*n), out);
        }
        Value::I64(n) if n.unsigned_abs() <= 1 << 53 => {
            out.push_str("{\"i64\": ");
            write_int(*n, out);
        }
        Value::I64(n) => {
            out.push_str("{\"i64\": \"");
            write_int(*n, out);
            out.push('"');
        }
        Value::F64(x) => {
            out.push_str("{\"f64\": ");
            write_number(*x, out);
        }
        Value::Bool(b) => out.push_str(if *b {
            "{\"bool\": true"
        } else {
            "{\"bool\": false"
        }),
        Value::Symbol(id) => match result.and_then(|r| r.resolve_symbol(value)) {
            Some(text) => {
                out.push_str("{\"sym\": ");
                write_str(&text, out);
            }
            None => {
                out.push_str("{\"sym_id\": ");
                write_int(i64::from(*id), out);
            }
        },
    }
    out.push('}');
}

/// Writes `values` as a wire array.
fn write_tuple(values: &[Value], result: Option<&RunResult>, out: &mut String) {
    out.push('[');
    for (i, value) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_value(value, result, out);
    }
    out.push(']');
}

/// Writes the `run` request for `facts`:
/// `{"op": "run", "key": .., "facts": [{"rel": .., "values": [..], "prob": p?, "exclusion": n?}, ..]}`.
fn write_run_request(key: &str, facts: &FactSet, out: &mut String) {
    out.push_str("{\"op\": \"run\", \"key\": ");
    write_str(key, out);
    out.push_str(", \"facts\": [");
    for (i, (relation, values, prob, exclusion)) in facts.facts().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"rel\": ");
        write_str(relation, out);
        out.push_str(", \"values\": ");
        write_tuple(values, None, out);
        if let Some(p) = prob {
            out.push_str(", \"prob\": ");
            write_number(p, out);
        }
        if let Some(group) = exclusion {
            out.push_str(", \"exclusion\": ");
            write_int(i64::from(group), out);
        }
        out.push('}');
    }
    out.push_str("]}");
}

/// Writes a successful `run` reply:
/// `{"ok": true, "relations": {name: [{"tuple": [..], "prob": p, "grad": [[id, g], ..]?}, ..]}, "iterations": n}`.
fn write_run_reply(result: &RunResult, out: &mut String) {
    out.push_str("{\"ok\": true, \"relations\": {");
    for (i, name) in result.relations().into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(name, out);
        out.push_str(": [");
        for (j, (tuple, output)) in result.relation(name).iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"tuple\": ");
            write_tuple(tuple, Some(result), out);
            out.push_str(", \"prob\": ");
            write_number(output.probability, out);
            if !output.gradient.is_empty() {
                out.push_str(", \"grad\": [");
                for (k, (id, g)) in output.gradient.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    out.push('[');
                    write_int(i64::from(id.0), out);
                    out.push_str(", ");
                    write_number(*g, out);
                    out.push(']');
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push(']');
    }
    out.push_str("}, \"iterations\": ");
    write_number(result.stats.iterations as f64, out);
    out.push('}');
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
/// (kernel-time buckets and arena of the program's device, which runs every
/// batch), connections, and the program cache when the server was given
/// one. In the kernel-time buckets, the engine's frontier updates (candidate
/// rows sorted, deduplicated and filtered in one launch) count in
/// `sort_ms`; `unique_ms` counts only the standalone `unique` kernel, which
/// the engine does not call.
fn metrics_json(shared: &ServerShared) -> Json {
    let scheduler = shared.scheduler.stats();
    let admission = shared.admission.stats();
    let auth = shared.keys.stats();
    let program_device = shared.scheduler.program().device();
    let device = program_device.stats();
    let arena = program_device.arena().stats();
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
        let mut text = String::new();
        write_tuple(tuple, None, &mut text);
        let want = parse(&text).ok();
        self.json
            .get("relations")
            .and_then(|r| r.get(relation))
            .and_then(Json::as_arr)
            .and_then(|rows| rows.iter().find(|row| row.get("tuple") == want.as_ref()))
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
    /// The outgoing frame, built in place; kept between requests.
    out: String,
    /// The reply frame's payload; kept between requests.
    payload: Vec<u8>,
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
            out: String::new(),
            payload: Vec::new(),
        })
    }

    /// Sends the request `build` writes (it is handed the API key) and
    /// parses the reply.
    fn exchange(&mut self, build: impl FnOnce(&str, &mut String)) -> Result<Reply, ClientError> {
        let Client {
            stream,
            key,
            out,
            payload,
        } = self;
        send_frame(stream, out, |out| build(key, out))?;
        // The client never drains; a dummy flag keeps `read_frame` shared.
        static NEVER: AtomicBool = AtomicBool::new(false);
        if !read_frame(stream, u32::MAX as usize, &NEVER, payload)? {
            return Err(ClientError::Io(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let json = json::parse_bytes(payload).map_err(|e| ClientError::Protocol(e.to_string()));
        payload.clear();
        payload.shrink_to(KEEP_BYTES);
        Ok(Reply { json: json? })
    }

    fn request(&mut self, request: &Json) -> Result<Reply, ClientError> {
        self.exchange(|_, out| request.write_compact(out))
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
    /// structured rejection). The request is written straight from `facts`.
    ///
    /// # Errors
    ///
    /// Transport failures only; rejections are `Ok` replies with
    /// [`Reply::ok`] false.
    pub fn run(&mut self, facts: &FactSet) -> Result<Reply, ClientError> {
        self.exchange(|key, out| write_run_request(key, facts, out))
    }

    /// Fetches the server's metrics document.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn metrics(&mut self) -> Result<Reply, ClientError> {
        self.exchange(|key, out| {
            obj([("op", Json::from("metrics")), ("key", Json::from(key))]).write_compact(out);
        })
    }
}

#[cfg(test)]
mod wire_tests;

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
        // The device block counts the work of the device that ran the batch.
        let device = doc.get("device").expect("device block");
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
    fn a_batch_over_the_device_budget_is_an_execution_reply_and_the_server_keeps_serving() {
        // Nothing is split and retried: a batch whose working set overflows
        // the device's memory budget answers each of its requests with a
        // typed `execution` error, and the connection and server carry on.
        let program = lobster::Lobster::builder(TC)
            .device(lobster::Device::new(lobster::DeviceConfig {
                parallelism: 1,
                memory_limit: Some(8),
                ..lobster::DeviceConfig::default()
            }))
            .provenance(ProvenanceKind::AddMultProb)
            .compile()
            .expect("compiles");
        let keys = KeyStore::new();
        keys.add_key("k", Quota::unlimited());
        let server = Server::bind(
            ("127.0.0.1", 0),
            Arc::new(program),
            keys,
            ServerConfig::default(),
        )
        .expect("bind");
        let mut client = Client::connect(server.local_addr(), "k").unwrap();
        let reply = client.run(&edge_request(0, 1, 0.5)).unwrap();
        assert!(!reply.ok());
        assert_eq!(reply.code(), Some("execution"), "{:?}", reply.json());
        let error = reply.json().get("error").and_then(Json::as_str);
        assert!(
            error.is_some_and(|e| e.contains("out of memory")),
            "{error:?}"
        );
        // The same connection still answers.
        assert!(client.ping().unwrap().ok());
        let metrics = client.metrics().unwrap();
        assert!(metrics.ok());
        let open = metrics
            .json()
            .get("connections")
            .and_then(|c| c.get("open"))
            .and_then(Json::as_u64);
        assert_eq!(open, Some(1));
        assert_eq!(server.stats().open_connections, 1);
        drop(client);
        let settle = Instant::now();
        while server.stats().open_connections > 0 && settle.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.stats().open_connections, 0);
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
        let mut reply = Vec::new();
        assert!(
            read_frame(&mut stream, u32::MAX as usize, &NEVER, &mut reply).unwrap(),
            "a bad-frame reply"
        );
        let json = json::parse_bytes(&reply).unwrap();
        assert_eq!(json.get("code").and_then(Json::as_str), Some("bad-frame"));
        server.shutdown();
    }

    /// The values of the one fact of a `run` frame, decoded and interned
    /// against `program`.
    fn decode_values(frame: &str, program: &Program) -> Result<Vec<Value>, String> {
        let facts = decode_request(frame)
            .map_err(|e| e.to_string())?
            .facts?
            .intern(program)?;
        let (_, values, _, _) = facts.facts().next().ok_or("no fact")?;
        Ok(values.to_vec())
    }

    #[test]
    fn value_encoding_round_trips_every_type() {
        let program = Program::compile(TC, ProvenanceKind::Unit).expect("compiles");
        // A `sym_id` must name a symbol the process has interned.
        let symbol = SymbolTable::global().intern("net-value-encoding");
        for value in [
            Value::U32(0),
            Value::U32(u32::MAX),
            Value::I64(-5),
            Value::I64(i64::MAX),
            Value::F64(2.5),
            Value::Bool(true),
            Value::Symbol(symbol),
        ] {
            let mut facts = FactSet::new();
            facts.add("r", &[value], None);
            let mut frame = String::new();
            write_run_request("k", &facts, &mut frame);
            assert_eq!(
                decode_values(&frame, &program),
                Ok(vec![value]),
                "via {frame}"
            );
        }
    }

    fn symbol_program() -> Program {
        Program::compile(
            "type named(x: symbol)
             rel seen(x) = named(x)
             query seen",
            ProvenanceKind::Unit,
        )
        .expect("compiles")
    }

    #[test]
    fn sym_text_values_intern_through_the_shared_table() {
        let program = symbol_program();
        let decode = |value: &str| {
            let frame =
                format!(r#"{{"op": "run", "facts": [{{"rel": "named", "values": [{value}]}}]}}"#);
            decode_values(&frame, &program)
        };
        let decoded = decode(r#"{"sym": "net-shared-intern"}"#);
        let expected = SymbolTable::global().intern("net-shared-intern");
        assert_eq!(decoded, Ok(vec![Value::Symbol(expected)]));
        // A second decode agrees with the first: the id is stable.
        assert_eq!(decode(r#"{"sym": "net-shared-intern"}"#), decoded);
        // Non-string payloads are rejected, not silently coerced.
        assert!(decode(r#"{"sym": 3}"#).is_err());
    }

    #[test]
    fn a_rejected_frame_interns_nothing() {
        let program = symbol_program();
        let keys = KeyStore::new();
        keys.add_key("k", Quota::unlimited());
        let server = Server::bind(
            ("127.0.0.1", 0),
            Arc::new(program),
            keys,
            ServerConfig::default(),
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr(), "k").unwrap();
        let frame = |facts: Vec<Json>| {
            obj([
                ("op", Json::from("run")),
                ("key", Json::from("k")),
                ("facts", Json::Arr(facts)),
            ])
        };
        let fact = |rel: &str, text: &str| {
            obj([
                ("rel", Json::from(rel)),
                ("values", Json::Arr(vec![obj([("sym", Json::from(text))])])),
            ])
        };
        let global = SymbolTable::global();

        // A fresh text beside a fact for an undeclared relation: the frame
        // is refused and the text never reaches the table.
        let fresh = "net-rejected-frame-text";
        let reply = client
            .request(&frame(vec![fact("named", fresh), fact("ghost", "x")]))
            .unwrap();
        assert_eq!(reply.code(), Some("bad-request"), "{:?}", reply.json());
        assert_eq!(global.lookup(fresh), None);
        // Nor does a text whose own fact has the wrong arity.
        let wide = obj([
            ("rel", Json::from("named")),
            (
                "values",
                Json::Arr(vec![
                    obj([("sym", Json::from(fresh))]),
                    obj([("u32", Json::from(1u64))]),
                ]),
            ),
        ]);
        let reply = client.request(&frame(vec![wide])).unwrap();
        assert_eq!(reply.code(), Some("bad-request"), "{:?}", reply.json());
        assert_eq!(global.lookup(fresh), None);

        // A valid frame still interns its texts, and answers with them.
        let kept = "net-accepted-frame-text";
        let reply = client.request(&frame(vec![fact("named", kept)])).unwrap();
        assert!(reply.ok(), "{:?}", reply.json());
        assert!(global.lookup(kept).is_some());
        assert_eq!(reply.len("seen"), 1);
        assert!(reply.json().to_compact().contains(kept));
        server.shutdown();
    }

    #[test]
    fn unknown_sym_ids_are_refused_before_anything_is_interned() {
        let keys = KeyStore::new();
        keys.add_key("k", Quota::unlimited());
        let server = Server::bind(
            ("127.0.0.1", 0),
            Arc::new(symbol_program()),
            keys,
            ServerConfig::default(),
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr(), "k").unwrap();
        let global = SymbolTable::global();
        let known = global.intern("net-known-sym-id");
        let unknown = u32::MAX - 1;
        assert_eq!(global.resolve(unknown), None);
        let frame = |values: &str| {
            format!(
                r#"{{"op": "run", "key": "k", "facts": [{{"rel": "named", "values": [{{"sym": "net-sym-id-frame-text"}}]}}, {{"rel": "named", "values": [{values}]}}]}}"#
            )
        };
        let send = |client: &mut Client, text: String| {
            client.exchange(|_, out| out.push_str(&text)).unwrap()
        };
        // An id nobody was issued refuses the frame, and the text beside it
        // is never interned.
        let reply = send(&mut client, frame(&format!(r#"{{"sym_id": {unknown}}}"#)));
        assert_eq!(reply.code(), Some("bad-request"), "{:?}", reply.json());
        let error = reply.json().get("error").and_then(Json::as_str);
        assert!(error.is_some_and(|e| e.contains("sym_id")), "{error:?}");
        assert_eq!(global.lookup("net-sym-id-frame-text"), None);
        // An issued id is accepted and answered by its text.
        let reply = send(&mut client, frame(&format!(r#"{{"sym_id": {known}}}"#)));
        assert!(reply.ok(), "{:?}", reply.json());
        assert_eq!(reply.len("seen"), 2);
        assert!(reply.json().to_compact().contains("net-known-sym-id"));
        server.shutdown();
    }

    #[test]
    fn a_connection_thread_that_panics_is_no_longer_counted_open() {
        let server = test_server(|c| c);
        let shared = Arc::clone(&server.shared);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _open = OpenConnection::new(&shared);
            assert_eq!(shared.open_connections.load(Ordering::Relaxed), 1);
            panic!("a connection thread panics mid-request");
        }));
        assert!(unwound.is_err());
        assert_eq!(server.stats().open_connections, 0);
        // The drain's zero-open-connections check still holds afterwards.
        let mut client = Client::connect(server.local_addr(), "test-key").unwrap();
        assert!(client.run(&edge_request(0, 1, 0.5)).unwrap().ok());
        drop(client);
        let settle = Instant::now();
        while server.stats().open_connections > 0 && settle.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.stats().open_connections, 0);
        server.shutdown();
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        /// Counts the `write` calls a frame takes.
        #[derive(Default)]
        struct Writes {
            calls: usize,
            bytes: Vec<u8>,
        }
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.calls += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Writes::default();
        let mut out = String::new();
        let facts = edge_request(0, 1, 0.5);
        for _ in 0..2 {
            sink.bytes.clear();
            sink.calls = 0;
            send_frame(&mut sink, &mut out, |out| {
                write_run_request("k", &facts, out)
            })
            .unwrap();
            assert_eq!(sink.calls, 1);
            let (len, payload) = sink.bytes.split_at(4);
            assert_eq!(
                u32::from_be_bytes(len.try_into().unwrap()) as usize,
                payload.len()
            );
            assert_eq!(
                std::str::from_utf8(payload).unwrap(),
                r#"{"op": "run", "key": "k", "facts": [{"rel": "edge", "values": [{"u32": 0}, {"u32": 1}], "prob": 0.5}]}"#
            );
            // The buffer is empty again and keeps its allocation.
            assert!(out.is_empty() && out.capacity() >= payload.len() + 4);
        }
    }
}
