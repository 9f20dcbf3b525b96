//! Session recycling: [`SessionPool`].
//!
//! Opening a [`Session`] is cheap but not free: it allocates the session's
//! fact vector and input-fact registry and re-registers the program's inline
//! facts. A server paying that cost once per request (or per batch) at high
//! request rates spends a measurable slice of its time re-building identical
//! state. A session pool keeps finished sessions and hands them back out:
//!
//! * [`SessionPool::acquire`] pops an idle session (or opens a fresh one
//!   when the pool is empty) and returns a [`PooledSession`] guard that
//!   dereferences to the session.
//! * Dropping the guard [`reset`](Session::reset)s the session — per-request
//!   facts dropped, inline probabilities restored, ids re-issued from the
//!   same starting point — and returns it to the pool, allocations intact.
//!   A recycled session is indistinguishable from a freshly opened one, and
//!   because the reset happens on *release*, an idle session is always
//!   clean: one request's facts can never leak into the next request's
//!   session.
//!
//! ```
//! use lobster::{Program, ProvenanceKind, Value};
//!
//! let program = Program::compile(
//!     "type edge(x: u32, y: u32)
//!      rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
//!      query path",
//!     ProvenanceKind::AddMultProb,
//! )
//! .unwrap();
//! let pool = program.session_pool();
//! for i in 0..3u32 {
//!     let mut session = pool.acquire();
//!     session.add_fact("edge", &[Value::U32(i), Value::U32(i + 1)], Some(0.5)).unwrap();
//!     let result = session.run().unwrap();
//!     assert_eq!(result.len("path"), 1); // previous requests' facts are gone
//! }
//! assert_eq!(pool.stats().created, 1); // one session served all three requests
//! ```

use crate::program::Program;
use crate::session::Session;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How many sessions a pool keeps idle by default. Enough for a scheduler's
/// worker fleet; beyond it, released sessions are simply dropped.
const DEFAULT_MAX_IDLE: usize = 16;

/// Counters describing what a session pool has done.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionPoolStats {
    /// Sessions the pool had to open because no idle one was available.
    pub created: u64,
    /// Acquisitions served by recycling an idle session.
    pub reused: u64,
}

/// A pool of reusable sessions over one compiled program.
///
/// Construct with [`SessionPool::new`] or the [`Program::session_pool`]
/// convenience. See the module docs above for the usage pattern and the
/// cleanliness guarantee.
#[derive(Debug)]
pub struct SessionPool {
    program: Program,
    idle: Mutex<Vec<Session>>,
    max_idle: usize,
    created: AtomicU64,
    reused: AtomicU64,
}

impl SessionPool {
    /// Creates a pool over `program` keeping up to 16 idle sessions.
    pub fn new(program: Program) -> Self {
        Self::with_max_idle(program, DEFAULT_MAX_IDLE)
    }

    /// Creates a pool keeping at most `max_idle` idle sessions; sessions
    /// released beyond that are dropped instead of pooled.
    pub fn with_max_idle(program: Program, max_idle: usize) -> Self {
        SessionPool {
            program,
            idle: Mutex::new(Vec::new()),
            max_idle,
            created: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// The program whose sessions this pool recycles.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Takes an idle session (or opens a fresh one when none is idle) as a
    /// guard that returns — and resets — the session when dropped.
    pub fn acquire(&self) -> PooledSession<'_> {
        let recycled = self.idle.lock().expect("session pool poisoned").pop();
        let session = match recycled {
            Some(session) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                session
            }
            None => {
                self.created.fetch_add(1, Ordering::Relaxed);
                self.program.session()
            }
        };
        PooledSession {
            pool: self,
            session: Some(session),
        }
    }

    /// Number of sessions currently idle in the pool.
    pub fn idle_len(&self) -> usize {
        self.idle.lock().expect("session pool poisoned").len()
    }

    /// A snapshot of the pool counters.
    pub fn stats(&self) -> SessionPoolStats {
        SessionPoolStats {
            created: self.created.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
        }
    }
}

/// A session on loan from a [`SessionPool`]; dereferences to the session
/// and returns it — reset to its freshly-opened state — on drop.
#[derive(Debug)]
pub struct PooledSession<'a> {
    pool: &'a SessionPool,
    session: Option<Session>,
}

impl PooledSession<'_> {
    /// Consumes the guard *without* returning the session to the pool — for
    /// the rare caller that wants to keep the session past the pool.
    pub fn detach(mut self) -> Session {
        self.session.take().expect("session present until drop")
    }
}

impl Deref for PooledSession<'_> {
    type Target = Session;

    fn deref(&self) -> &Self::Target {
        self.session.as_ref().expect("session present until drop")
    }
}

impl DerefMut for PooledSession<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.session.as_mut().expect("session present until drop")
    }
}

impl Drop for PooledSession<'_> {
    fn drop(&mut self) {
        let Some(mut session) = self.session.take() else {
            return;
        };
        // A guard dropped during a panic unwind discards its session
        // instead of recycling it: the panic may have poisoned the
        // session's internal locks, so resetting here could panic inside
        // Drop (a process abort), and pooling it would fail every future
        // borrower. The next acquire simply opens a fresh session — the
        // same recover-by-rebuild the sharded workers use.
        if std::thread::panicking() {
            return;
        }
        // Reset *before* pooling: an idle session is always clean, so a
        // request can never observe a predecessor's facts.
        session.reset();
        let mut idle = self.pool.idle.lock().expect("session pool poisoned");
        if idle.len() < self.pool.max_idle {
            idle.push(session);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::FactSet;
    use lobster_provenance::{InputFactId, ProvenanceKind};
    use lobster_ram::Value;

    const TC: &str = "type edge(x: u32, y: u32)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";

    const TC_INLINE: &str = "type edge(x: u32, y: u32)
        rel edge = {0.5::(1, 2)}
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";

    #[test]
    fn released_sessions_are_reused() {
        let pool = Program::compile(TC, ProvenanceKind::AddMultProb)
            .unwrap()
            .session_pool();
        for _ in 0..5 {
            let mut session = pool.acquire();
            session
                .add_fact("edge", &[Value::U32(0), Value::U32(1)], Some(0.5))
                .unwrap();
            session.run().unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.created, 1);
        assert_eq!(stats.reused, 4);
        assert_eq!(pool.idle_len(), 1);
        // Batched runs through a recycled session behave like fresh ones.
        let session = pool.acquire();
        assert_eq!(session.fact_count(), 0);
        let mut sample = FactSet::new();
        sample.add("edge", &[Value::U32(0), Value::U32(1)], Some(0.25));
        let results = session.run_batch(std::slice::from_ref(&sample)).unwrap();
        assert!(
            (results[0].probability("path", &[Value::U32(0), Value::U32(1)]) - 0.25).abs() < 1e-9
        );
    }

    #[test]
    fn recycled_sessions_come_back_clean() {
        let pool = Program::compile(TC_INLINE, ProvenanceKind::AddMultProb)
            .unwrap()
            .session_pool();
        {
            let mut dirty = pool.acquire();
            dirty
                .add_fact("edge", &[Value::U32(7), Value::U32(8)], Some(0.9))
                .unwrap();
            dirty.set_fact_probability(InputFactId(0), 0.001);
            dirty.run().unwrap();
        }
        // The recycled session shows no trace of the first request: only
        // the inline fact, at its original probability, ids restarting
        // where a fresh session's would.
        let mut session = pool.acquire();
        assert_eq!(session.fact_count(), 1);
        let result = session.run().unwrap();
        assert_eq!(result.len("path"), 1);
        assert!((result.probability("path", &[Value::U32(1), Value::U32(2)]) - 0.5).abs() < 1e-9);
        assert!(!result.contains("path", &[Value::U32(7), Value::U32(8)]));
        let id = session
            .add_fact("edge", &[Value::U32(0), Value::U32(1)], None)
            .unwrap();
        assert_eq!(id, InputFactId(1));
    }

    #[test]
    fn pool_is_bounded_and_detach_leaks_nothing_back() {
        let pool = SessionPool::with_max_idle(
            Program::compile(TC, ProvenanceKind::AddMultProb).unwrap(),
            1,
        );
        let a = pool.acquire();
        let b = pool.acquire();
        drop(a);
        drop(b); // beyond max_idle: dropped, not pooled
        assert_eq!(pool.idle_len(), 1);
        let kept = pool.acquire().detach();
        assert_eq!(pool.idle_len(), 0);
        drop(kept); // detached sessions never return
        assert_eq!(pool.idle_len(), 0);
    }

    #[test]
    fn sessions_held_during_a_panic_are_discarded_not_recycled() {
        let pool = Program::compile(TC, ProvenanceKind::AddMultProb)
            .unwrap()
            .session_pool();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut session = pool.acquire();
            session
                .add_fact("edge", &[Value::U32(0), Value::U32(1)], Some(0.5))
                .unwrap();
            panic!("request handler bug");
        }));
        assert!(outcome.is_err());
        // The possibly-poisoned session was dropped, not pooled...
        assert_eq!(pool.idle_len(), 0);
        // ...and the pool recovers by opening a fresh one.
        let mut session = pool.acquire();
        session
            .add_fact("edge", &[Value::U32(2), Value::U32(3)], Some(0.5))
            .unwrap();
        assert_eq!(session.run().unwrap().len("path"), 1);
        assert_eq!(pool.stats().created, 2);
    }

    #[test]
    fn concurrent_acquire_release_stays_consistent() {
        let pool = std::sync::Arc::new(
            Program::compile(TC, ProvenanceKind::AddMultProb)
                .unwrap()
                .session_pool(),
        );
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let pool = std::sync::Arc::clone(&pool);
                std::thread::spawn(move || {
                    for i in 0..10 {
                        let mut session = pool.acquire();
                        session
                            .add_fact("edge", &[Value::U32(t), Value::U32(t + 1)], Some(0.5))
                            .unwrap();
                        let result = session.run().unwrap();
                        assert_eq!(result.len("path"), 1, "thread {t} iter {i}");
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.created + stats.reused, 40);
        assert!(stats.created <= 4, "stats: {stats:?}");
    }
}
