//! The Arc-shared compiled-program cache.

use lobster::metrics::{Kind, Metrics, Snapshot};
use lobster::{Lobster, LobsterError, Program, ProvenanceKind, RuntimeOptions};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// The identity of a compiled program: what it was compiled from (source
/// hash), which semiring it reasons in, and which runtime options shape its
/// execution. Two requests with equal keys are served by the same artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Stable hash of the Datalog source ([`Lobster::source_hash`]).
    pub source_hash: u64,
    /// The provenance semiring the program reasons in.
    pub kind: ProvenanceKind,
    /// Stable fingerprint of the runtime options
    /// ([`RuntimeOptions::fingerprint`]).
    pub options_fingerprint: u64,
}

impl CacheKey {
    /// The key identifying `source` compiled for `kind` under `options`.
    pub fn new(source: &str, kind: ProvenanceKind, options: &RuntimeOptions) -> Self {
        CacheKey {
            source_hash: Lobster::source_hash(source),
            kind,
            options_fingerprint: options.fingerprint(),
        }
    }
}

/// One cache slot. The `OnceLock` gives single-flight compilation for free:
/// the first thread to reach `get_or_init` runs the compile, every
/// concurrent thread for the same key blocks until it finishes, and nobody
/// compiles twice.
#[derive(Debug, Default)]
struct Slot {
    cell: OnceLock<Result<Arc<Program>, LobsterError>>,
}

#[derive(Debug)]
struct Entry {
    slot: Arc<Slot>,
    /// The exact source and options this entry was compiled from. The map
    /// key carries only 64-bit hashes of both, so hits verify against these
    /// before serving the artifact — a hash collision must never silently
    /// hand a caller somebody else's compiled program.
    source: String,
    options: RuntimeOptions,
    /// Logical timestamp of the last request for this key (LRU order).
    last_used: u64,
    /// Estimated resident bytes of the compiled artifact; `0` while the
    /// compile is still in flight (in-flight entries are never evicted).
    cost: usize,
}

#[derive(Debug, Default)]
struct CacheState {
    entries: HashMap<CacheKey, Entry>,
    /// Monotone logical clock advanced on every request.
    tick: u64,
    /// Total `cost` of all compiled entries.
    resident_bytes: usize,
}

/// The cache's registry entries; the constants below index them.
const ENTRIES: &[(&str, Kind)] = &[
    // Requests served by an already-compiled entry.
    ("hits", Kind::Counter),
    // Requests that created a new entry (and triggered a compile).
    ("misses", Kind::Counter),
    // Requests that found an entry still compiling and blocked on it
    // instead of compiling again.
    ("coalesced", Kind::Counter),
    // Compilations actually performed.
    ("compiles", Kind::Counter),
    // Entries evicted to stay within the byte budget.
    ("evictions", Kind::Counter),
    // Requests whose key collided with a different source (served by an
    // uncached compile instead of the wrong artifact).
    ("collisions", Kind::Counter),
    // Estimated resident bytes of the cached artifacts, and how many
    // (compiled) programs they are: read from the map, under its lock,
    // when a snapshot is taken.
    ("resident_bytes", Kind::Gauge),
    ("resident_programs", Kind::Gauge),
];
const HITS: usize = 0;
const MISSES: usize = 1;
const COALESCED: usize = 2;
const COMPILES: usize = 3;
const EVICTIONS: usize = 4;
const COLLISIONS: usize = 5;
const RESIDENT_BYTES: usize = 6;
const RESIDENT_PROGRAMS: usize = 7;

/// A process-wide cache of compiled programs keyed by [`CacheKey`].
///
/// Each distinct `(source, provenance kind, runtime options)` combination is
/// compiled exactly once per process, no matter how many threads request it
/// concurrently; every caller shares the resulting [`Arc<Program>`].
/// When a byte budget is set ([`ProgramCache::with_budget`]), least-recently
/// used entries are evicted until the estimated resident size of the cached
/// artifacts fits the budget. Evicted programs stay alive for as long as any
/// caller still holds the `Arc` — eviction only drops the cache's reference.
///
/// All methods take `&self`; the cache is `Sync` and meant to be shared
/// (e.g. in an `Arc`) across request-handling threads.
#[derive(Debug)]
pub struct ProgramCache {
    state: Mutex<CacheState>,
    /// Byte budget for resident artifacts; `None` is unbounded.
    budget: Option<usize>,
    metrics: Metrics,
}

impl Default for ProgramCache {
    fn default() -> Self {
        ProgramCache {
            state: Mutex::default(),
            budget: None,
            metrics: Metrics::new(ENTRIES),
        }
    }
}

impl ProgramCache {
    /// An unbounded cache: nothing is ever evicted.
    pub fn new() -> Self {
        Self::default()
    }

    /// The map, whatever a thread that panicked holding it was doing: no
    /// caller code runs under the lock (compiles run in `get_or_init`,
    /// outside it), and every update under it leaves the map usable.
    fn lock_state(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A cache that evicts least-recently-used entries once the estimated
    /// resident size of compiled artifacts exceeds `budget_bytes`. The most
    /// recently requested entry is never evicted, so a single program larger
    /// than the budget still caches (and is replaced as soon as a different
    /// program is requested).
    pub fn with_budget(budget_bytes: usize) -> Self {
        ProgramCache {
            budget: Some(budget_bytes),
            ..Self::default()
        }
    }

    /// Returns the cached program for `(source, kind)` under default
    /// [`RuntimeOptions`], compiling it first if needed.
    ///
    /// # Errors
    ///
    /// Returns the compile error when the source does not compile; failed
    /// compiles are not cached, so a later call retries.
    pub fn get_or_compile(
        &self,
        source: &str,
        kind: ProvenanceKind,
    ) -> Result<Arc<Program>, LobsterError> {
        self.get_or_compile_with(source, kind, RuntimeOptions::default())
    }

    /// Returns the cached program for `(source, kind, options)`, compiling
    /// it first if needed. Concurrent calls with the same key coalesce onto
    /// one compilation.
    ///
    /// # Errors
    ///
    /// Returns the compile error when the source does not compile; failed
    /// compiles are not cached, so a later call retries.
    pub fn get_or_compile_with(
        &self,
        source: &str,
        kind: ProvenanceKind,
        options: RuntimeOptions,
    ) -> Result<Arc<Program>, LobsterError> {
        let key = CacheKey::new(source, kind, &options);
        self.get_or_compile_keyed(key, source, kind, options)
    }

    /// The keyed lookup behind [`ProgramCache::get_or_compile_with`]. Taking
    /// the key explicitly keeps the collision branch honestly testable: a
    /// 64-bit FNV-1a collision cannot be manufactured from real sources, but
    /// a test can pass a key that belongs to a *different* source and must
    /// observe exactly what a genuine collision would produce.
    fn get_or_compile_keyed(
        &self,
        key: CacheKey,
        source: &str,
        kind: ProvenanceKind,
        options: RuntimeOptions,
    ) -> Result<Arc<Program>, LobsterError> {
        let slot = {
            let mut state = self.lock_state();
            state.tick += 1;
            let tick = state.tick;
            match state.entries.get_mut(&key) {
                Some(entry) if entry.source == source && entry.options == options => {
                    entry.last_used = tick;
                    if entry.slot.cell.get().is_some() {
                        self.metrics.add(HITS, 1);
                    } else {
                        self.metrics.add(COALESCED, 1);
                    }
                    Arc::clone(&entry.slot)
                }
                Some(_) => {
                    // 64-bit hash collision with a different source or
                    // option set. Serve this request with an uncached
                    // compile — correct, if slower — rather than evicting
                    // the resident program or returning the wrong artifact.
                    drop(state);
                    self.metrics.add(COLLISIONS, 1);
                    self.metrics.add(COMPILES, 1);
                    return Lobster::builder(source)
                        .options(options)
                        .provenance(kind)
                        .compile()
                        .map(Arc::new);
                }
                None => {
                    self.metrics.add(MISSES, 1);
                    let slot = Arc::new(Slot::default());
                    state.entries.insert(
                        key,
                        Entry {
                            slot: Arc::clone(&slot),
                            source: source.to_string(),
                            options: options.clone(),
                            last_used: tick,
                            cost: 0,
                        },
                    );
                    slot
                }
            }
        };

        // Outside the map lock: at most one thread runs the closure, all
        // other requesters of this key block inside `get_or_init` until the
        // artifact (or the error) is ready. Holding no lock here means a
        // slow compile never stalls requests for *other* keys.
        let mut compiled_here = false;
        let outcome = slot.cell.get_or_init(|| {
            compiled_here = true;
            self.metrics.add(COMPILES, 1);
            Lobster::builder(source)
                .options(options.clone())
                .provenance(kind)
                .compile()
                .map(Arc::new)
        });

        // Post-compile bookkeeping only touches the entry *this* request
        // created (`Arc::ptr_eq` on the slot): a `clear()` racing the
        // compile may have replaced the map entry with a fresh in-flight one
        // for the same key, and charging our cost to it — or removing it on
        // our error — would corrupt the accounting of a different request.
        match outcome {
            Ok(program) => {
                if compiled_here {
                    let cost = program.compiled_size_bytes().max(1);
                    let mut state = self.lock_state();
                    if let Some(entry) = state.entries.get_mut(&key) {
                        if Arc::ptr_eq(&entry.slot, &slot) {
                            entry.cost = cost;
                            state.resident_bytes += cost;
                            self.evict_to_budget(&mut state, key);
                        }
                    }
                }
                Ok(Arc::clone(program))
            }
            Err(e) => {
                if compiled_here {
                    let mut state = self.lock_state();
                    if state
                        .entries
                        .get(&key)
                        .is_some_and(|entry| Arc::ptr_eq(&entry.slot, &slot))
                    {
                        state.entries.remove(&key);
                    }
                }
                Err(e.clone())
            }
        }
    }

    /// Evicts least-recently-used compiled entries until the resident bytes
    /// fit the budget. `protect` (the key just requested) and in-flight
    /// entries (`cost == 0`) are exempt.
    fn evict_to_budget(&self, state: &mut CacheState, protect: CacheKey) {
        let Some(budget) = self.budget else { return };
        while state.resident_bytes > budget {
            let victim = state
                .entries
                .iter()
                .filter(|(k, e)| **k != protect && e.cost > 0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(entry) = state.entries.remove(&victim) {
                state.resident_bytes -= entry.cost;
                self.metrics.add(EVICTIONS, 1);
            }
        }
    }

    /// Whether the artifact for `(source, kind, options)` is currently
    /// resident (compiled and not evicted).
    pub fn contains(&self, source: &str, kind: ProvenanceKind, options: &RuntimeOptions) -> bool {
        let key = CacheKey::new(source, kind, options);
        let state = self.lock_state();
        state.entries.get(&key).is_some_and(|e| {
            e.source == source && e.options == *options && e.slot.cell.get().is_some()
        })
    }

    /// Number of cached (compiled or in-flight) programs.
    pub fn len(&self) -> usize {
        self.lock_state().entries.len()
    }

    /// `true` when the cache holds no programs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached artifact (outstanding `Arc`s stay alive).
    pub fn clear(&self) {
        let mut state = self.lock_state();
        state.entries.clear();
        state.resident_bytes = 0;
    }

    /// The cache's counters since construction, and what it holds now.
    pub fn metrics(&self) -> Snapshot {
        let state = self.lock_state();
        let programs = state.entries.values().filter(|e| e.cost > 0).count();
        self.metrics
            .set(RESIDENT_BYTES, state.resident_bytes as u64);
        self.metrics.set(RESIDENT_PROGRAMS, programs as u64);
        drop(state);
        self.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TC: &str = "type edge(x: u32, y: u32)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = ProgramCache::new();
        let a = cache.get_or_compile(TC, ProvenanceKind::Unit).unwrap();
        let b = cache.get_or_compile(TC, ProvenanceKind::Unit).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let metrics = cache.metrics();
        assert_eq!(metrics.get("compiles"), Some(1));
        assert_eq!(metrics.get("misses"), Some(1));
        assert_eq!(metrics.get("hits"), Some(1));
    }

    #[test]
    fn distinct_kinds_and_options_are_distinct_entries() {
        let cache = ProgramCache::new();
        cache.get_or_compile(TC, ProvenanceKind::Unit).unwrap();
        cache
            .get_or_compile(TC, ProvenanceKind::AddMultProb)
            .unwrap();
        cache
            .get_or_compile_with(TC, ProvenanceKind::Unit, RuntimeOptions::unoptimized())
            .unwrap();
        assert_eq!(cache.metrics().get("compiles"), Some(3));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn diagnostics_are_cached_with_the_program() {
        // A program with a never-read relation carries a lint warning in its
        // compiled artifact; a cache hit serves the identical diagnostics
        // without re-running the analysis passes.
        const NOISY: &str = "type edge(x: u32, y: u32)
            type orphan(x: u32)
            rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
            query path";
        let cache = ProgramCache::new();
        let first = cache.get_or_compile(NOISY, ProvenanceKind::Unit).unwrap();
        assert!(first
            .diagnostics()
            .iter()
            .any(|d| d.code == "unused-relation"));
        let second = cache.get_or_compile(NOISY, ProvenanceKind::Unit).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(first.diagnostics().len(), second.diagnostics().len());
        assert_eq!(cache.metrics().get("compiles"), Some(1));
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = ProgramCache::new();
        assert!(cache
            .get_or_compile("rel x(", ProvenanceKind::Unit)
            .is_err());
        assert!(cache.is_empty());
        // A retry compiles again (and still fails) rather than observing a
        // poisoned entry.
        assert!(cache
            .get_or_compile("rel x(", ProvenanceKind::Unit)
            .is_err());
        assert_eq!(cache.metrics().get("compiles"), Some(2));
    }

    #[test]
    fn forced_key_collision_compiles_uncached_and_preserves_the_original() {
        // A disconnected-edge program: `path` derives exactly one tuple per
        // edge fact, distinguishing it from TC's three-tuple closure below.
        const OTHER: &str = "type edge(x: u32, y: u32)
            rel path(x, y) = edge(x, y)
            query path";

        let cache = ProgramCache::new();
        let original = cache.get_or_compile(TC, ProvenanceKind::Unit).unwrap();

        // Deterministic forced collision: request OTHER under TC's key, as
        // if both sources hashed to the same 64 bits.
        let options = RuntimeOptions::default();
        let colliding_key = CacheKey::new(TC, ProvenanceKind::Unit, &options);
        let collided = cache
            .get_or_compile_keyed(colliding_key, OTHER, ProvenanceKind::Unit, options.clone())
            .unwrap();

        // The mismatch was detected and served by an uncached compile: the
        // collision stat ticks, a second compile happened, and the caller
        // got OTHER's semantics, not the resident artifact.
        let metrics = cache.metrics();
        assert_eq!(metrics.get("collisions"), Some(1), "{metrics:?}");
        assert_eq!(metrics.get("compiles"), Some(2));
        assert!(!Arc::ptr_eq(&original, &collided));
        let mut chain = lobster::FactSet::new();
        chain.add(
            "edge",
            &[lobster::Value::U32(0), lobster::Value::U32(1)],
            None,
        );
        chain.add(
            "edge",
            &[lobster::Value::U32(1), lobster::Value::U32(2)],
            None,
        );
        assert_eq!(
            collided.run_batch(std::slice::from_ref(&chain)).unwrap()[0].len("path"),
            2
        );

        // The colliding request neither evicted nor corrupted the resident
        // entry: the original key still hits and still serves TC (closure of
        // the 2-chain has 3 tuples).
        let again = cache.get_or_compile(TC, ProvenanceKind::Unit).unwrap();
        assert!(Arc::ptr_eq(&original, &again));
        assert_eq!(
            again.run_batch(std::slice::from_ref(&chain)).unwrap()[0].len("path"),
            3
        );
        let metrics = cache.metrics();
        assert_eq!(metrics.get("hits"), Some(1), "{metrics:?}");
        assert_eq!(
            metrics.get("compiles"),
            Some(2),
            "the hit must not recompile"
        );
        assert_eq!(metrics.get("resident_programs"), Some(1));
    }

    #[test]
    fn contains_reflects_residency() {
        let cache = ProgramCache::new();
        let options = RuntimeOptions::default();
        assert!(!cache.contains(TC, ProvenanceKind::Unit, &options));
        cache.get_or_compile(TC, ProvenanceKind::Unit).unwrap();
        assert!(cache.contains(TC, ProvenanceKind::Unit, &options));
        cache.clear();
        assert!(!cache.contains(TC, ProvenanceKind::Unit, &options));
    }
}
