//! The batching request scheduler.

use crate::error::ServeError;
use lobster::{Device, FactSet, InputFactId, Program, RunResult, ShardConfig, ShardedExecutor};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Recovers a queue guard from a poisoned lock. The queue is a plain
/// `VecDeque` plus `Instant`s — valid whatever a panicking holder was doing
/// mid-push — so a single worker panicking (e.g. on a pathological request)
/// must not cascade `expect` panics through every sibling worker, every
/// subsequent `submit`, and the scheduler's own `Drop`.
fn recover<'a, T>(
    result: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Knobs trading per-request latency against batched throughput.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// A batch is flushed as soon as it holds this many requests.
    pub max_batch_size: usize,
    /// A batch is flushed this long after its *first* request arrived, even
    /// if it is not full — bounding the queueing latency a request can pay.
    pub max_queue_delay: Duration,
    /// Number of worker threads draining the queue. Each worker runs whole
    /// batches, so more workers overlap fix-points of *different* batches.
    pub workers: usize,
    /// Number of shard devices each batch is partitioned across. `1` (the
    /// default) runs every batch on the program's own device; above 1, the
    /// scheduler holds **one** persistent [`ShardedExecutor`] — shard
    /// worker threads spawned at construction and fed every batch
    /// over its work queue — and batches fan out over devices derived with
    /// `Device::split_shards`, overlapping fix-points of *slices of the same
    /// batch*. Results — tuples, probabilities, request-local gradient ids —
    /// are identical either way.
    ///
    /// Because the executor (and its budget split) is shared by all
    /// scheduler workers, the shard devices' memory budgets sum to the
    /// program device's `memory_limit` *however many batches execute
    /// concurrently* — the envelope spans the scheduler, not one batch. A
    /// chunk that overflows its shard's budget spills (splits and retries)
    /// rather than failing outright.
    pub num_shards: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_batch_size: 32,
            max_queue_delay: Duration::from_millis(2),
            workers: 1,
            num_shards: 1,
        }
    }
}

impl SchedulerConfig {
    /// Builder-style setter for [`SchedulerConfig::max_batch_size`].
    pub fn with_max_batch_size(mut self, n: usize) -> Self {
        self.max_batch_size = n.max(1);
        self
    }

    /// Builder-style setter for [`SchedulerConfig::max_queue_delay`].
    pub fn with_max_queue_delay(mut self, delay: Duration) -> Self {
        self.max_queue_delay = delay;
        self
    }

    /// Builder-style setter for [`SchedulerConfig::workers`].
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Builder-style setter for [`SchedulerConfig::num_shards`].
    pub fn with_num_shards(mut self, n: usize) -> Self {
        self.num_shards = n.max(1);
        self
    }
}

/// Counters describing the batches a scheduler has run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Batches executed. Without sharding every batch costs one fix-point;
    /// with [`SchedulerConfig::num_shards`] above 1 see
    /// [`SchedulerStats::sharded_chunks`] for the fix-points actually paid.
    pub batches: u64,
    /// Shard chunks executed across all sharded batches — each chunk is one
    /// fix-point (spills included). `0` when `num_shards` is 1.
    pub sharded_chunks: u64,
    /// Requests served across all batches.
    pub samples: u64,
    /// Batches flushed because they reached `max_batch_size`.
    pub full_flushes: u64,
    /// Batches flushed by the `max_queue_delay` timer (or shutdown drain).
    pub timer_flushes: u64,
    /// Largest batch executed so far.
    pub largest_batch: usize,
}

struct Request {
    facts: FactSet,
    reply: mpsc::Sender<Result<RunResult, ServeError>>,
    /// When the request entered the queue; the flush timer of a batch runs
    /// from its *oldest* request, so queueing latency is bounded by
    /// `max_queue_delay` even when workers were busy while it waited.
    enqueued: Instant,
}

struct Shared {
    program: Arc<Program>,
    /// The persistent sharded executor (`num_shards > 1` only): shard worker
    /// threads are spawned once, here, and reused by every batch from every
    /// scheduler worker. Dropped — and its workers joined — with the
    /// scheduler.
    executor: Option<ShardedExecutor>,
    config: SchedulerConfig,
    queue: Mutex<VecDeque<Request>>,
    /// Signalled on submit and on shutdown.
    arrivals: Condvar,
    shutdown: AtomicBool,
    /// Requests drained into a batch that has not finished replying yet.
    /// `queued + executing` is the scheduler's *pending* count — the depth
    /// an admission controller caps.
    executing: AtomicUsize,
    batches: AtomicU64,
    sharded_chunks: AtomicU64,
    samples: AtomicU64,
    full_flushes: AtomicU64,
    timer_flushes: AtomicU64,
    largest_batch: AtomicUsize,
}

/// A pending request's handle: redeem it with [`Ticket::wait`] (or
/// [`Ticket::wait_timeout`] when the caller holds a deadline).
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<RunResult, ServeError>>,
    /// Back-reference for telling a clean shutdown apart from a worker that
    /// died without responding. `Weak`: a stray ticket must not keep the
    /// scheduler's program/executor alive.
    shared: Weak<Shared>,
}

impl Ticket {
    /// Blocks until the batch containing this request has run and returns
    /// this request's result.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Lobster`] when the batch failed to execute
    /// (every request of the failing batch receives the same error),
    /// [`ServeError::ShutDown`] when the scheduler was shut down before the
    /// request was served, or [`ServeError::Disconnected`] when the worker
    /// holding the request died without responding *and* the scheduler was
    /// not shutting down — a crash, not a clean drain.
    pub fn wait(self) -> Result<RunResult, ServeError> {
        match self.rx.recv() {
            Ok(outcome) => outcome,
            Err(mpsc::RecvError) => Err(self.disconnect_error()),
        }
    }

    /// Like [`Ticket::wait`], but gives up after `timeout`.
    ///
    /// A timeout abandons only the *wait*: the request stays in the
    /// scheduler and still runs (and is still counted); its result is
    /// discarded when it arrives. Remote clients holding a response
    /// deadline use this so a slow batch cannot pin a connection thread
    /// forever.
    ///
    /// # Errors
    ///
    /// [`ServeError::TimedOut`] when `timeout` elapses first; otherwise as
    /// [`Ticket::wait`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<RunResult, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(outcome) => outcome,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::TimedOut),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(self.disconnect_error()),
        }
    }

    /// The reply sender vanished without sending: a clean shutdown only if
    /// the scheduler actually was (or is gone entirely — its `Drop` drains
    /// before releasing the allocation, so an unreachable `Shared` implies
    /// the drain finished). Anything else is a dead worker.
    fn disconnect_error(&self) -> ServeError {
        match self.shared.upgrade() {
            Some(shared) if !shared.shutdown.load(Ordering::SeqCst) => ServeError::Disconnected,
            _ => ServeError::ShutDown,
        }
    }
}

/// Accumulates per-request [`FactSet`]s into mini-batches and runs each
/// batch in one fix-point instead of one per request (the paper's batched
/// evaluation, applied to serving).
///
/// The execution state behind the batches is *persistent*: each scheduler
/// worker opens one session for its life and runs every single-device batch
/// on it, and with [`SchedulerConfig::num_shards`] above 1 every batch is
/// fed to one long-lived [`ShardedExecutor`] whose shard worker threads are
/// spawned when the scheduler is built — so a batch pays neither session
/// setup nor thread spawn/join, the steady-state overheads that dominate at
/// high request rates. See `docs/ARCHITECTURE.md` for the full request
/// lifecycle.
///
/// Requests are submitted with [`BatchScheduler::submit`], which returns a
/// [`Ticket`] immediately; worker threads flush the queue whenever a batch
/// fills up ([`SchedulerConfig::max_batch_size`]) or the oldest queued
/// request has waited [`SchedulerConfig::max_queue_delay`]. Derived tuples
/// and probabilities are identical to running the same requests in one
/// [`Program::run_batch`] call: samples are isolated by the sample-id
/// column, whatever batch each request lands in. Gradient entries are
/// rewritten to *request-local* fact ids — `InputFactId(i)` is the `i`-th
/// fact added to the submitted [`FactSet`] — with entries for other
/// requests' and inline program facts dropped, so they too are independent
/// of batch placement.
///
/// Dropping the scheduler drains the queue (every queued request still
/// runs), joins the scheduler workers, and tears down the persistent
/// executor's shard workers.
pub struct BatchScheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for BatchScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchScheduler")
            .field("config", &self.shared.config)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl BatchScheduler {
    /// Spawns the worker threads for `program` with the given knobs.
    pub fn new(program: Arc<Program>, config: SchedulerConfig) -> Self {
        // When sharding, build ONE persistent executor up front: its shard
        // workers serve every batch this scheduler will ever run (spawn/join
        // is paid here, not per batch).
        let executor = (config.num_shards > 1).then(|| {
            let shards = ShardConfig::default().with_num_shards(config.num_shards);
            ShardedExecutor::new(Program::clone(&program), shards)
        });
        let shared = Arc::new(Shared {
            program,
            executor,
            config: config.clone(),
            queue: Mutex::new(VecDeque::new()),
            arrivals: Condvar::new(),
            shutdown: AtomicBool::new(false),
            executing: AtomicUsize::new(0),
            batches: AtomicU64::new(0),
            sharded_chunks: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            full_flushes: AtomicU64::new(0),
            timer_flushes: AtomicU64::new(0),
            largest_batch: AtomicUsize::new(0),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lobster-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn scheduler worker")
            })
            .collect();
        BatchScheduler { shared, workers }
    }

    /// The program this scheduler serves.
    pub fn program(&self) -> &Arc<Program> {
        &self.shared.program
    }

    /// Enqueues one request and returns its [`Ticket`] without blocking.
    ///
    /// Malformed requests (unknown relation, wrong arity) are rejected here,
    /// before they can reach a batch: the returned ticket yields the
    /// [`LobsterError::BadFact`](lobster::LobsterError::BadFact) immediately,
    /// and the requests they would have been co-batched with are unaffected.
    pub fn submit(&self, facts: FactSet) -> Ticket {
        let (tx, rx) = mpsc::channel();
        let ticket = Ticket {
            rx,
            shared: Arc::downgrade(&self.shared),
        };
        if let Err(e) = self.shared.program.validate_facts(&facts) {
            let _ = tx.send(Err(ServeError::Lobster(e)));
            return ticket;
        }
        let queued = {
            let mut queue = recover(self.shared.queue.lock());
            queue.push_back(Request {
                facts,
                reply: tx,
                enqueued: Instant::now(),
            });
            queue.len()
        };
        // Wake workers only on the transitions they act on — the first
        // request of a batch (a phase-1 sleeper must start its timer) and a
        // full batch (a phase-2 collector can flush early). Notifying on
        // every submit instead turns a hot submission stream into a wakeup
        // storm in which the collector rechecks a not-yet-full queue once
        // per request; in-between requests are picked up at flush time
        // regardless.
        if queued == 1 || queued >= self.shared.config.max_batch_size {
            self.shared.arrivals.notify_all();
        }
        ticket
    }

    /// Requests currently waiting in the queue (not yet drained into a
    /// batch).
    pub fn queued(&self) -> usize {
        recover(self.shared.queue.lock()).len()
    }

    /// Requests drained into batches that have not finished replying.
    pub fn executing(&self) -> usize {
        self.shared.executing.load(Ordering::Relaxed)
    }

    /// Requests the scheduler currently holds: queued plus executing. This
    /// is the depth an [`AdmissionController`](crate::AdmissionController)
    /// caps — everything a newly accepted request could wait behind.
    pub fn pending(&self) -> usize {
        // Read `executing` first: a request moving queue → batch between
        // the two reads is then counted twice (transiently high), never
        // missed — admission control must over-count, not under-count.
        let executing = self.executing();
        executing + self.queued()
    }

    /// The devices this scheduler's batches execute on: the program's own
    /// when unsharded, the executor's shard devices otherwise (the program's
    /// device then runs nothing — `Device::split_shards`).
    pub fn devices(&self) -> Vec<&Device> {
        match &self.shared.executor {
            Some(executor) => executor.shard_devices(),
            None => vec![self.shared.program.device()],
        }
    }

    /// Convenience: submit one request and block for its result.
    ///
    /// # Errors
    ///
    /// See [`Ticket::wait`].
    pub fn run_one(&self, facts: FactSet) -> Result<RunResult, ServeError> {
        self.submit(facts).wait()
    }

    /// A snapshot of the scheduler counters.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            batches: self.shared.batches.load(Ordering::Relaxed),
            sharded_chunks: self.shared.sharded_chunks.load(Ordering::Relaxed),
            samples: self.shared.samples.load(Ordering::Relaxed),
            full_flushes: self.shared.full_flushes.load(Ordering::Relaxed),
            timer_flushes: self.shared.timer_flushes.load(Ordering::Relaxed),
            largest_batch: self.shared.largest_batch.load(Ordering::Relaxed),
        }
    }
}

impl Drop for BatchScheduler {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.arrivals.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Collects the next batch off the queue, honouring `max_batch_size` and
/// `max_queue_delay`, or returns `None` when shut down with an empty queue.
fn next_batch(shared: &Shared) -> Option<Vec<Request>> {
    let config = &shared.config;
    let mut queue = recover(shared.queue.lock());
    'restart: loop {
        // Phase 1: wait for the first request (or shutdown).
        loop {
            if !queue.is_empty() {
                break;
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            queue = recover(shared.arrivals.wait(queue));
        }
        // Phase 2: give the batch until `max_queue_delay` after its *oldest*
        // request arrived to fill up. Shutdown flushes immediately — the
        // drain must not dawdle. The lock is released while waiting, so a
        // sibling worker may drain the queue under us: the deadline is
        // re-derived from the *current* front each iteration, and an emptied
        // queue sends us back to phase 1 rather than flushing a phantom
        // batch (or punishing a fresh request with a dead request's expired
        // deadline).
        let mut timed_out = false;
        while queue.len() < config.max_batch_size && !shared.shutdown.load(Ordering::SeqCst) {
            let Some(front) = queue.front() else {
                continue 'restart;
            };
            let deadline = front.enqueued + config.max_queue_delay;
            let now = Instant::now();
            if now >= deadline {
                timed_out = true;
                break;
            }
            // The wait result is deliberately ignored: whether this wake was
            // a timeout or a notify, the loop top re-derives the deadline
            // from the *current* front and only declares a timeout when that
            // deadline has genuinely passed. Trusting `timed_out()` here
            // would flush a request that arrived during the wait against a
            // drained request's expired deadline.
            let (guard, _) = shared
                .arrivals
                .wait_timeout(queue, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            queue = guard;
            if queue.is_empty() {
                continue 'restart;
            }
        }
        if queue.is_empty() {
            // A sibling drained the queue between our last wake and here.
            continue 'restart;
        }
        if queue.len() >= config.max_batch_size {
            shared.full_flushes.fetch_add(1, Ordering::Relaxed);
        } else {
            // Timer expiry or shutdown drain.
            debug_assert!(timed_out || shared.shutdown.load(Ordering::SeqCst));
            shared.timer_flushes.fetch_add(1, Ordering::Relaxed);
        }
        let n = queue.len().min(config.max_batch_size);
        // Move the requests from "queued" to "executing" under the queue
        // lock, so `pending()` never observes them in neither state.
        shared.executing.fetch_add(n, Ordering::Relaxed);
        return Some(queue.drain(..n).collect());
    }
}

/// Decrements `executing` when the batch is done — by `Drop`, so a worker
/// panicking mid-batch cannot leave its requests counted as in flight
/// forever (the admission depth would ratchet shut).
struct ExecutingGuard<'a> {
    shared: &'a Shared,
    n: usize,
}

impl Drop for ExecutingGuard<'_> {
    fn drop(&mut self) {
        self.shared.executing.fetch_sub(self.n, Ordering::Relaxed);
    }
}

fn worker_loop(shared: &Shared) {
    // One session for the life of the thread, as a shard worker holds:
    // `run_batch` registers a batch's facts on a fork of the session's
    // registry, so no batch leaves a trace on it. Its fact count is the
    // number of inline program facts; batched execution hands out
    // per-request fact ids starting after these.
    let session = shared.program.session();
    let inline_facts = session.fact_count() as u32;
    while let Some(batch) = next_batch(shared) {
        let _executing = ExecutingGuard {
            shared,
            n: batch.len(),
        };
        if batch.is_empty() {
            continue;
        }
        // Move the fact sets out of the requests rather than cloning them:
        // request payloads are in the hot path of every batch.
        let (facts, replies): (Vec<FactSet>, Vec<_>) =
            batch.into_iter().map(|r| (r.facts, r.reply)).unzip();
        shared.batches.fetch_add(1, Ordering::Relaxed);
        shared
            .samples
            .fetch_add(facts.len() as u64, Ordering::Relaxed);
        shared
            .largest_batch
            .fetch_max(facts.len(), Ordering::Relaxed);
        // The gradient remap below needs each request's fact count; snapshot
        // them before the sharded path takes ownership of the payloads.
        let request_lens: Vec<u32> = facts.iter().map(|f| f.len() as u32).collect();
        // With `num_shards > 1` the batch is handed — without copying a
        // fact — to the scheduler's persistent sharded executor: its
        // long-lived shard workers fan the batch out across shard devices
        // and merge results back into submission order with the same global
        // fact-id layout, so the request-local gradient remap below is
        // shard-agnostic. Single-device batches run on this worker's
        // session.
        let outcome = if let Some(executor) = &shared.executor {
            executor.run_batch_owned(facts).map(|(results, stats)| {
                shared
                    .sharded_chunks
                    .fetch_add(stats.executed_chunks as u64, Ordering::Relaxed);
                results
            })
        } else {
            session.run_batch(&facts)
        };
        match outcome {
            Ok(mut results) => {
                // Raw gradient ids are batch-relative (all samples share one
                // forked registry, ids handed out in batch order after the
                // inline program facts). Translate each result's ids into
                // request-local indices — the position of the fact in the
                // submitted `FactSet` — and drop entries pointing at other
                // requests' or inline facts, so a client's gradients mean
                // the same thing whatever batch its request landed in.
                let mut next_id = inline_facts;
                for (result, len) in results.iter_mut().zip(&request_lens) {
                    let start = next_id;
                    let len = *len;
                    next_id += len;
                    result.map_gradient_ids(|id| {
                        id.0.checked_sub(start)
                            .filter(|local| *local < len)
                            .map(InputFactId)
                    });
                }
                for (reply, result) in replies.into_iter().zip(results) {
                    // A dropped ticket just discards the result.
                    let _ = reply.send(Ok(result));
                }
            }
            Err(e) => {
                for reply in replies {
                    let _ = reply.send(Err(ServeError::Lobster(e.clone())));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster::{ProvenanceKind, Value};

    const TC: &str = "type edge(x: u32, y: u32)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";

    fn edge_request(a: u32, b: u32, p: f64) -> FactSet {
        let mut facts = FactSet::new();
        facts.add("edge", &[Value::U32(a), Value::U32(b)], Some(p));
        facts
    }

    fn program() -> Arc<Program> {
        Arc::new(Program::compile(TC, ProvenanceKind::AddMultProb).unwrap())
    }

    #[test]
    fn single_request_round_trips() {
        let scheduler = BatchScheduler::new(program(), SchedulerConfig::default());
        let result = scheduler.run_one(edge_request(0, 1, 0.75)).unwrap();
        assert!((result.probability("path", &[Value::U32(0), Value::U32(1)]) - 0.75).abs() < 1e-9);
        let stats = scheduler.stats();
        assert_eq!((stats.batches, stats.samples), (1, 1));
    }

    #[test]
    fn a_full_batch_flushes_without_waiting_for_the_timer() {
        let scheduler = BatchScheduler::new(
            program(),
            SchedulerConfig::default()
                .with_max_batch_size(4)
                // A timer long enough that a timer flush would hang the test.
                .with_max_queue_delay(Duration::from_secs(30)),
        );
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| scheduler.submit(edge_request(i, i + 1, 0.5)))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let result = ticket.wait().unwrap();
            let (a, b) = (i as u32, i as u32 + 1);
            assert!(
                (result.probability("path", &[Value::U32(a), Value::U32(b)]) - 0.5).abs() < 1e-9
            );
        }
        assert!(scheduler.stats().full_flushes >= 1);
    }

    #[test]
    fn sharded_batches_round_trip_with_correct_results() {
        let scheduler = BatchScheduler::new(
            program(),
            SchedulerConfig::default()
                .with_max_batch_size(4)
                .with_max_queue_delay(Duration::from_secs(30))
                .with_num_shards(2),
        );
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| scheduler.submit(edge_request(i * 10, i * 10 + 1, 0.25 + 0.1 * f64::from(i))))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let result = ticket.wait().unwrap();
            let (a, b) = (i as u32 * 10, i as u32 * 10 + 1);
            let expected = 0.25 + 0.1 * i as f64;
            assert!(
                (result.probability("path", &[Value::U32(a), Value::U32(b)]) - expected).abs()
                    < 1e-9
            );
        }
        let stats = scheduler.stats();
        assert_eq!(stats.samples, 4);
        // One full batch of 4 over 2 shards executes exactly 2 chunks (one
        // fix-point each) — the counter measures, it does not model.
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.sharded_chunks, 2);
    }

    #[test]
    fn the_persistent_executor_serves_many_batches_and_tears_down_cleanly() {
        let scheduler = BatchScheduler::new(
            program(),
            SchedulerConfig::default()
                .with_max_batch_size(2)
                .with_max_queue_delay(Duration::from_secs(30))
                .with_num_shards(2),
        );
        // 40 full batches through the same two shard workers. Every result
        // must be correct and every batch must pay its chunks — reuse may
        // not corrupt, leak, or accumulate.
        for round in 0..40u32 {
            let a = scheduler.submit(edge_request(round * 10, round * 10 + 1, 0.5));
            let b = scheduler.submit(edge_request(round * 10 + 2, round * 10 + 3, 0.5));
            for (ticket, x) in [(a, round * 10), (b, round * 10 + 2)] {
                let result = ticket.wait().unwrap();
                assert!(
                    (result.probability("path", &[Value::U32(x), Value::U32(x + 1)]) - 0.5).abs()
                        < 1e-9,
                    "round {round}"
                );
            }
        }
        let stats = scheduler.stats();
        assert_eq!(stats.samples, 80);
        assert_eq!(stats.batches, 40);
        // Two single-request chunks per batch, no spills: measured, not
        // modeled — a leak across batches would show up here.
        assert_eq!(stats.sharded_chunks, 80);
        drop(scheduler); // joins scheduler workers AND shard workers
    }

    #[test]
    fn batches_on_a_workers_long_lived_session_leak_no_facts_or_probabilities() {
        let scheduler = BatchScheduler::new(
            program(),
            SchedulerConfig::default()
                .with_max_batch_size(1)
                .with_max_queue_delay(Duration::from_millis(1)),
        );
        // Sequential single-request batches all run on the one worker's
        // session; a fact leaking between batches would surface as an extra
        // `path` tuple or a wrong probability in a later request.
        for i in 0..30u32 {
            let result = scheduler
                .run_one(edge_request(0, 1, 0.1 + 0.02 * i as f64))
                .unwrap();
            let expected = 0.1 + 0.02 * f64::from(i);
            assert!(
                (result.probability("path", &[Value::U32(0), Value::U32(1)]) - expected).abs()
                    < 1e-9,
                "batch {i}"
            );
            assert_eq!(result.len("path"), 1, "batch {i}: leaked facts");
        }

        // A probabilistic inline fact is the state a batch could disturb (its
        // registry entry is shared by every batch the session runs). Two
        // workers, so both sessions serve: batch 1 and batch 30 must be
        // bit-identical to `Program::run_batch` on the same request, with
        // gradient ids request-local (the inline fact's entry dropped).
        let program = Arc::new(
            Program::compile(
                "type edge(x: u32, y: u32)
                 rel edge = {0.5::(1, 2)}
                 rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
                 query path",
                ProvenanceKind::DiffTop1Proof,
            )
            .unwrap(),
        );
        let rows = |result: &RunResult| -> Vec<_> {
            let path = result.relation("path").iter();
            path.map(|(tuple, out)| {
                let gradient = out.gradient.iter().map(|(id, g)| (id.0, g.to_bits()));
                let gradient: Vec<_> = gradient.collect();
                (tuple.clone(), out.probability.to_bits(), gradient)
            })
            .collect()
        };
        let request = edge_request(2, 3, 0.25);
        let mut reference = program.run_batch(std::slice::from_ref(&request)).unwrap();
        reference[0].map_gradient_ids(|id| id.0.checked_sub(1).map(InputFactId));
        let reference = rows(&reference[0]);
        assert_eq!(reference.len(), 3, "edge(1, 2), edge(2, 3) and their join");
        assert!(reference.iter().any(|row| !row.2.is_empty()), "no gradient");
        let scheduler = BatchScheduler::new(
            Arc::clone(&program),
            SchedulerConfig::default()
                .with_max_batch_size(1)
                .with_max_queue_delay(Duration::from_millis(1))
                .with_workers(2),
        );
        for i in 1..=30 {
            let result = scheduler.run_one(request.clone()).unwrap();
            assert_eq!(rows(&result), reference, "batch {i}");
        }
    }

    #[test]
    fn drop_drains_queued_requests() {
        let scheduler = BatchScheduler::new(
            program(),
            SchedulerConfig::default()
                .with_max_batch_size(64)
                .with_max_queue_delay(Duration::from_secs(30)),
        );
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| scheduler.submit(edge_request(i, i + 1, 0.5)))
            .collect();
        drop(scheduler);
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
    }

    #[test]
    fn trickled_requests_with_two_workers_are_all_served_without_phantom_batches() {
        let scheduler = BatchScheduler::new(
            program(),
            SchedulerConfig::default()
                .with_max_batch_size(4)
                .with_max_queue_delay(Duration::from_micros(200))
                .with_workers(2),
        );
        // Trickle requests so timer flushes race both workers against the
        // queue (the stale-deadline case: one worker drains while the other
        // still holds the old front's expired deadline).
        let mut tickets = Vec::new();
        for i in 0..20u32 {
            tickets.push(scheduler.submit(edge_request(i, i + 1, 0.5)));
            if i % 3 == 0 {
                std::thread::sleep(Duration::from_micros(300));
            }
        }
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        let stats = scheduler.stats();
        assert_eq!(stats.samples, 20);
        // Every counted flush carried at least one request.
        assert!(stats.batches <= 20, "stats: {stats:?}");
        assert_eq!(stats.full_flushes + stats.timer_flushes, stats.batches);
    }

    #[test]
    fn malformed_requests_are_rejected_at_submit_without_harming_the_batch() {
        let scheduler = BatchScheduler::new(
            program(),
            SchedulerConfig::default()
                .with_max_batch_size(2)
                .with_max_queue_delay(Duration::from_millis(20)),
        );
        let good = scheduler.submit(edge_request(0, 1, 0.5));
        let mut unknown = FactSet::new();
        unknown.add("ghost", &[Value::U32(0)], None);
        let mut wrong_arity = FactSet::new();
        wrong_arity.add("edge", &[Value::U32(0)], None);
        // Both malformed requests fail immediately (no queueing), each with
        // its own BadFact...
        for bad in [scheduler.submit(unknown), scheduler.submit(wrong_arity)] {
            match bad.wait() {
                Err(ServeError::Lobster(lobster::LobsterError::BadFact { .. })) => {}
                other => panic!("expected BadFact, got {other:?}"),
            }
        }
        // ...while the co-submitted good request is served normally.
        let result = good.wait().unwrap();
        assert!((result.probability("path", &[Value::U32(0), Value::U32(1)]) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn a_poisoned_queue_lock_does_not_take_down_the_scheduler() {
        let scheduler = Arc::new(BatchScheduler::new(
            program(),
            SchedulerConfig::default()
                .with_max_batch_size(1)
                .with_max_queue_delay(Duration::from_millis(1)),
        ));
        // Poison the queue mutex: a thread panics while holding it. Every
        // lock site — submit, queued(), the workers' next_batch, Drop's
        // drain — must recover the guard instead of cascading the panic.
        let poisoner = {
            let scheduler = Arc::clone(&scheduler);
            std::thread::spawn(move || {
                let _guard = scheduler.shared.queue.lock().unwrap();
                panic!("deliberate poison");
            })
        };
        assert!(poisoner.join().is_err(), "the poisoner must panic");
        assert!(scheduler.shared.queue.lock().is_err(), "lock not poisoned");
        // The scheduler still serves, counts, and drains.
        let result = scheduler.run_one(edge_request(0, 1, 0.5)).unwrap();
        assert!((result.probability("path", &[Value::U32(0), Value::U32(1)]) - 0.5).abs() < 1e-9);
        assert_eq!(scheduler.queued(), 0);
        let late = scheduler.submit(edge_request(1, 2, 0.5));
        drop(Arc::into_inner(scheduler).expect("sole owner"));
        assert!(late.wait().is_ok(), "drop must still drain the queue");
    }

    #[test]
    fn a_dead_sender_is_a_disconnect_while_the_scheduler_lives() {
        let scheduler = BatchScheduler::new(program(), SchedulerConfig::default());
        // Forge the failure `wait` must classify: the reply sender vanished
        // (as after a worker crash) while the scheduler is alive and healthy.
        let (tx, rx) = mpsc::channel();
        drop(tx);
        let ticket = Ticket {
            rx,
            shared: Arc::downgrade(&scheduler.shared),
        };
        assert_eq!(ticket.wait().unwrap_err(), ServeError::Disconnected);
        // The scheduler itself keeps serving after the lost request.
        assert!(scheduler.run_one(edge_request(0, 1, 0.5)).is_ok());
    }

    #[test]
    fn a_dead_sender_during_shutdown_is_a_clean_shutdown() {
        let scheduler = BatchScheduler::new(program(), SchedulerConfig::default());
        let shared = Arc::clone(&scheduler.shared);
        let (tx, rx) = mpsc::channel();
        drop(tx);
        let mid_shutdown = Ticket {
            rx,
            shared: Arc::downgrade(&shared),
        };
        let (tx, rx) = mpsc::channel();
        drop(tx);
        let after_teardown = Ticket {
            rx,
            shared: Arc::downgrade(&scheduler.shared),
        };
        drop(scheduler);
        // The shutdown flag is set (observed via our kept Arc)...
        assert_eq!(mid_shutdown.wait().unwrap_err(), ServeError::ShutDown);
        drop(shared);
        // ...and once the Shared allocation itself is gone (drain finished),
        // an unresolvable Weak means the same thing.
        assert_eq!(after_teardown.wait().unwrap_err(), ServeError::ShutDown);
    }

    #[test]
    fn wait_timeout_bounds_the_wait_without_cancelling_the_request() {
        let scheduler = BatchScheduler::new(
            program(),
            SchedulerConfig::default()
                .with_max_batch_size(64)
                // A flush timer long enough that only shutdown drains.
                .with_max_queue_delay(Duration::from_secs(30)),
        );
        let ticket = scheduler.submit(edge_request(0, 1, 0.5));
        assert_eq!(
            ticket.wait_timeout(Duration::from_millis(20)).unwrap_err(),
            ServeError::TimedOut
        );
        // The abandoned request is still in the scheduler and still runs —
        // the drop-drain executes it (samples counts served requests).
        drop(scheduler);
    }

    #[test]
    fn wait_timeout_returns_the_result_when_the_batch_beats_the_deadline() {
        let scheduler = BatchScheduler::new(
            program(),
            SchedulerConfig::default()
                .with_max_batch_size(1)
                .with_max_queue_delay(Duration::from_millis(1)),
        );
        let ticket = scheduler.submit(edge_request(0, 1, 0.75));
        let result = ticket.wait_timeout(Duration::from_secs(30)).unwrap();
        assert!((result.probability("path", &[Value::U32(0), Value::U32(1)]) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn pending_tracks_queued_plus_executing() {
        let scheduler = BatchScheduler::new(
            program(),
            SchedulerConfig::default()
                .with_max_batch_size(64)
                .with_max_queue_delay(Duration::from_secs(30)),
        );
        assert_eq!(scheduler.pending(), 0);
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| scheduler.submit(edge_request(i, i + 1, 0.5)))
            .collect();
        // Nothing has flushed (the timer is 30s): all three are queued.
        assert_eq!(scheduler.pending(), 3);
        drop(scheduler);
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
    }

    #[test]
    fn execution_failures_reach_every_request_in_the_batch() {
        // A device with a absurdly small memory budget makes every run OOM —
        // an execution error `submit` cannot screen out, so the whole batch
        // reports it.
        let program = Arc::new(
            lobster::Lobster::builder(TC)
                .device(lobster::Device::new(lobster::DeviceConfig {
                    parallelism: 1,
                    memory_limit: Some(8),
                    hash_table_expansion: 2,
                    min_parallel_rows: 4096,
                }))
                .provenance(ProvenanceKind::AddMultProb)
                .compile()
                .unwrap(),
        );
        let scheduler = BatchScheduler::new(
            program,
            SchedulerConfig::default()
                .with_max_batch_size(2)
                .with_max_queue_delay(Duration::from_secs(30)),
        );
        let a = scheduler.submit(edge_request(0, 1, 0.5));
        let b = scheduler.submit(edge_request(1, 2, 0.5));
        assert!(matches!(a.wait(), Err(ServeError::Lobster(_))));
        assert!(matches!(b.wait(), Err(ServeError::Lobster(_))));
    }
}
