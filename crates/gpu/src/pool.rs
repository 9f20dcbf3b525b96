//! The persistent per-device kernel worker pool.
//!
//! Before this module existed every parallel kernel launch paid a
//! `std::thread::scope` spawn/join: tens of microseconds per launch, which on
//! small fix-point iterations (hundreds of launches, each over a few thousand
//! rows) ate the entire parallel speedup — `BENCH_kernels.json` recorded
//! parallel-4 factors *below 1.0*. The pool replaces that with long-lived
//! worker threads spawned once at [`Device`](crate::Device) construction and
//! joined when the last clone of the device is dropped.
//!
//! # Execution model
//!
//! A kernel launch submits a **job**: a chunk-indexed task `Fn(usize)` plus a
//! chunk count. Workers (and the launching thread, which always participates)
//! claim chunk indices with an atomic counter, so chunks are load-balanced at
//! the granularity the kernel chose — and a job with more chunks than workers
//! (e.g. one task per hash partition) self-balances without any planning.
//! The launcher blocks until every chunk has finished, then propagates the
//! first worker panic, if any, via [`std::panic::resume_unwind`].
//!
//! Determinism is unaffected: the pool decides only *which thread* runs a
//! chunk, never what the chunk computes, and `run_chunks` in the crate's
//! `parallel` module reassembles results strictly in chunk-index order.
//!
//! # Why the one `unsafe` in this crate lives here
//!
//! Kernel chunk closures borrow their inputs and outputs from the launching
//! stack frame. `std::thread::scope` is the only *safe* std primitive that
//! lets other threads run borrowed closures, and it cannot outlive a call —
//! which is exactly the spawn/join cost this pool exists to remove. The pool
//! therefore erases the task's lifetime to hand it to persistent workers
//! (`TaskRef`), and re-establishes safety with a completion barrier:
//! `WorkerPool::run` does not return — not even by unwinding — until
//! `done == total`, i.e. until no thread can touch the task again. Worker
//! panics are caught (so `done` always reaches `total`) and re-raised on the
//! launcher after the barrier.
#![allow(unsafe_code)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A kernel task with its lifetime erased. Constructed only inside
/// [`WorkerPool::run`], which guarantees the reference outlives every use
/// (see the module docs).
#[derive(Clone, Copy)]
struct TaskRef(&'static (dyn Fn(usize) + Sync));

/// One submitted launch: the erased task plus claim/completion counters.
struct Job {
    task: TaskRef,
    /// Number of chunks.
    total: usize,
    /// Next chunk index to claim; values `>= total` mean "exhausted".
    next: AtomicUsize,
    /// Chunks that have finished executing (panicked chunks included).
    done: AtomicUsize,
    /// Summed wall time spent executing chunks, across all threads.
    busy_ns: AtomicU64,
    /// First panic payload raised by a chunk.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job {
    /// Claims and runs chunks until none remain, then signals completion.
    /// Never unwinds: chunk panics are recorded for the launcher.
    fn execute(self: &Arc<Job>, shared: &Shared) {
        loop {
            let chunk = self.next.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.total {
                return;
            }
            let start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| (self.task.0)(chunk)));
            let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.busy_ns.fetch_add(elapsed, Ordering::Relaxed);
            if let Err(payload) = outcome {
                let mut slot = lock_recover(&self.panic);
                slot.get_or_insert(payload);
            }
            // AcqRel: the final increment's release sequence publishes every
            // chunk's writes to the launcher's acquire load in `run`.
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
                // Take the state lock before notifying so the wakeup cannot
                // race a launcher that is between its check and its wait.
                let mut state = lock_recover(&shared.state);
                state.jobs.retain(|j| !Arc::ptr_eq(j, self));
                drop(state);
                shared.done.notify_all();
            }
        }
    }
}

#[derive(Default)]
struct State {
    /// Jobs that may still have unclaimed chunks, oldest first.
    jobs: Vec<Arc<Job>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for work or shutdown.
    work: Condvar,
    /// Launchers wait here for their job's completion.
    done: Condvar,
}

/// Locks a mutex, recovering from poisoning: the pool's own critical
/// sections never panic, and the completion barrier must hold even if some
/// unrelated thread poisoned a lock while unwinding.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The number of one pool's `lobster-kernel-N` threads that have been
/// spawned and have not yet exited. The handle outlives the pool, so a
/// lifecycle test can watch the count reach zero when the last device clone
/// drops — without reading the process-wide thread count, which sibling
/// tests creating and dropping their own pools also move.
#[derive(Debug, Clone)]
pub struct LiveWorkers(Arc<AtomicUsize>);

impl LiveWorkers {
    /// Threads of this pool alive right now.
    pub fn get(&self) -> usize {
        self.0.load(Ordering::SeqCst)
    }
}

/// Decrements a pool's live count when its worker thread exits, however it
/// exits.
struct LiveGuard(Arc<AtomicUsize>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The persistent worker pool owned by a [`Device`](crate::Device): spawned
/// at device construction, joined when the last device clone drops. See the
/// module docs for the execution model.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    live: Arc<AtomicUsize>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` long-lived worker threads (`lobster-kernel-N`). The
    /// launching thread always participates in chunk execution, so a device
    /// with parallelism `P` constructs a pool of `P - 1` workers. With zero
    /// workers every launch runs inline on the caller.
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let live = Arc::new(AtomicUsize::new(0));
        let handles = (0..workers)
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                // Counted by the spawner, so the count is exact as soon as
                // `new` returns; a failed spawn drops the guard unrun.
                live.fetch_add(1, Ordering::SeqCst);
                let guard = LiveGuard(Arc::clone(&live));
                std::thread::Builder::new()
                    .name(format!("lobster-kernel-{i}"))
                    .spawn(move || {
                        let _guard = guard;
                        worker_loop(&shared);
                    })
                    .ok()
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
            live,
        }
    }

    /// A handle on this pool's live-thread count (see [`LiveWorkers`]).
    pub(crate) fn live_workers(&self) -> LiveWorkers {
        LiveWorkers(Arc::clone(&self.live))
    }

    /// Number of pooled worker threads (the launcher is not counted).
    pub(crate) fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs `task(0..total)` across the pool, blocking until every chunk has
    /// finished, and returns the summed chunk execution time (busy time —
    /// across concurrent threads it can exceed the call's wall time). The
    /// first chunk panic is re-raised here after all chunks complete.
    pub(crate) fn run(&self, total: usize, task: &(dyn Fn(usize) + Sync)) -> Duration {
        if total == 0 {
            return Duration::ZERO;
        }
        if self.workers.is_empty() || total == 1 {
            let start = Instant::now();
            for chunk in 0..total {
                task(chunk);
            }
            return start.elapsed();
        }
        // SAFETY: the only lifetime-erased reference in this crate. It is
        // dereferenced exclusively by `Job::execute`, which touches the task
        // only for claimed chunks and increments `done` after each; this
        // function does not return (and cannot unwind — its own chunk
        // executions are caught inside `execute`) until `done == total`,
        // after which no thread dereferences the task again. The borrow
        // therefore strictly outlives every use.
        let task: TaskRef = TaskRef(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        });
        let job = Arc::new(Job {
            task,
            total,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            busy_ns: AtomicU64::new(0),
            panic: Mutex::new(None),
        });
        lock_recover(&self.shared.state).jobs.push(Arc::clone(&job));
        self.shared.work.notify_all();
        // Participate: the launcher is one of the device's `parallelism`
        // execution lanes.
        job.execute(&self.shared);
        // Completion barrier (see SAFETY above).
        let mut state = lock_recover(&self.shared.state);
        while job.done.load(Ordering::Acquire) < job.total {
            state = self
                .shared
                .done
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(state);
        if let Some(payload) = lock_recover(&job.panic).take() {
            resume_unwind(payload);
        }
        Duration::from_nanos(job.busy_ns.load(Ordering::Relaxed))
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock_recover(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            // A worker that panicked outside a task (impossible today) has
            // already detached; joining the rest must still happen.
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = lock_recover(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                // Prune exhausted jobs (their chunks may still be executing
                // on other threads; the list only drives discovery).
                state
                    .jobs
                    .retain(|j| j.next.load(Ordering::Relaxed) < j.total);
                if let Some(job) = state.jobs.first() {
                    break Arc::clone(job);
                }
                state = shared
                    .work
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        job.execute(shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn chunks_cover_exactly_once() {
        let pool = WorkerPool::new(3);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run(1000, &|c| {
            hits[c].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_workers_runs_inline() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 0);
        let sum = AtomicUsize::new(0);
        pool.run(10, &|c| {
            sum.fetch_add(c, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn concurrent_launches_share_the_pool() {
        let pool = Arc::new(WorkerPool::new(2));
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = &pool;
                let total = &total;
                scope.spawn(move || {
                    pool.run(64, &|_| {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 64);
    }

    #[test]
    fn panic_propagates_after_all_chunks_finish() {
        let pool = WorkerPool::new(2);
        let completed = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run(32, &|c| {
                if c == 7 {
                    panic!("chunk 7 exploded");
                }
                completed.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(outcome.is_err());
        // Every non-panicking chunk still ran — the barrier held.
        assert_eq!(completed.load(Ordering::Relaxed), 31);
        // The pool survives a panicked launch.
        let again = AtomicUsize::new(0);
        pool.run(8, &|_| {
            again.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(again.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn busy_time_is_reported() {
        let pool = WorkerPool::new(1);
        let busy = pool.run(4, &|_| {
            std::thread::sleep(Duration::from_millis(2));
        });
        assert!(busy >= Duration::from_millis(4), "busy was {busy:?}");
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(4);
        let live = pool.live_workers();
        assert_eq!(live.get(), 4);
        pool.run(16, &|_| {});
        drop(pool); // must not hang or leak
        assert_eq!(live.get(), 0, "drop returned before every worker exited");
    }
}
