//! The Arc-shared compiled-program cache.

use lobster::metrics::{Kind, Metrics, Snapshot};
use lobster::{Lobster, LobsterError, Program, ProvenanceKind};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// One cache slot. The `OnceLock` gives single-flight compilation for free:
/// the first thread to reach `get_or_init` runs the compile, every
/// concurrent thread for the same program blocks until it finishes, and
/// nobody compiles twice.
#[derive(Debug, Default)]
struct Slot {
    cell: OnceLock<Result<Arc<Program>, LobsterError>>,
}

#[derive(Debug)]
struct Entry {
    /// The provenance semiring this entry was compiled for.
    kind: ProvenanceKind,
    slot: Arc<Slot>,
    /// Logical timestamp of the last request for this entry (LRU order).
    last_used: u64,
    /// Estimated resident bytes of the compiled artifact; `0` while the
    /// compile is still in flight (in-flight entries are never evicted).
    cost: usize,
}

#[derive(Debug, Default)]
struct CacheState {
    /// Source text → one entry per provenance kind it was requested under.
    /// Keyed by the text itself, so a lookup by `&str` allocates nothing
    /// and no two sources share an entry.
    entries: HashMap<String, Vec<Entry>>,
    /// Monotone logical clock advanced on every request.
    tick: u64,
    /// Total `cost` of all compiled entries.
    resident_bytes: usize,
}

impl CacheState {
    /// The entry for `source` compiled for `kind`.
    fn entry(&mut self, source: &str, kind: ProvenanceKind) -> Option<&mut Entry> {
        self.entries
            .get_mut(source)?
            .iter_mut()
            .find(|entry| entry.kind == kind)
    }

    /// Removes the entry of `source` that holds `slot`, and `source` itself
    /// once it has no entry left.
    fn remove(&mut self, source: &str, slot: &Arc<Slot>) -> Option<Entry> {
        let kinds = self.entries.get_mut(source)?;
        let at = kinds.iter().position(|e| Arc::ptr_eq(&e.slot, slot))?;
        let entry = kinds.swap_remove(at);
        if kinds.is_empty() {
            self.entries.remove(source);
        }
        Some(entry)
    }
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
const RESIDENT_BYTES: usize = 5;
const RESIDENT_PROGRAMS: usize = 6;

/// A process-wide cache of compiled programs keyed by their source text and
/// provenance kind.
///
/// Each distinct `(source, provenance kind)` pair is compiled exactly once
/// per process, no matter how many threads request it concurrently; every
/// caller shares the resulting [`Arc<Program>`].
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

    /// Returns the cached program for `(source, kind)`, compiling it first
    /// if needed. Concurrent calls for the same pair coalesce onto one
    /// compilation.
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
        let slot = {
            let mut state = self.lock_state();
            state.tick += 1;
            let tick = state.tick;
            if let Some(entry) = state.entry(source, kind) {
                entry.last_used = tick;
                if entry.slot.cell.get().is_some() {
                    self.metrics.add(HITS, 1);
                } else {
                    self.metrics.add(COALESCED, 1);
                }
                Arc::clone(&entry.slot)
            } else {
                self.metrics.add(MISSES, 1);
                let slot = Arc::new(Slot::default());
                state
                    .entries
                    .entry(source.to_string())
                    .or_default()
                    .push(Entry {
                        kind,
                        slot: Arc::clone(&slot),
                        last_used: tick,
                        cost: 0,
                    });
                slot
            }
        };

        // Outside the map lock: at most one thread runs the closure, all
        // other requesters of this entry block inside `get_or_init` until
        // the artifact (or the error) is ready. Holding no lock here means
        // a slow compile never stalls requests for *other* programs.
        let mut compiled_here = false;
        let outcome = slot.cell.get_or_init(|| {
            compiled_here = true;
            self.metrics.add(COMPILES, 1);
            Lobster::builder(source)
                .provenance(kind)
                .compile()
                .map(Arc::new)
        });

        // Post-compile bookkeeping only touches the entry *this* request
        // created (`Arc::ptr_eq` on the slot): a `clear()` racing the
        // compile may have replaced it with a fresh in-flight entry for the
        // same program, and charging our cost to that one — or removing it
        // on our error — would corrupt the accounting of a different
        // request.
        match outcome {
            Ok(program) => {
                if compiled_here {
                    let cost = program.compiled_size_bytes().max(1);
                    let state = &mut *self.lock_state();
                    if let Some(entry) = state
                        .entry(source, kind)
                        .filter(|entry| Arc::ptr_eq(&entry.slot, &slot))
                    {
                        entry.cost = cost;
                        state.resident_bytes += cost;
                        self.evict_to_budget(state, &slot);
                    }
                }
                Ok(Arc::clone(program))
            }
            Err(e) => {
                if compiled_here {
                    self.lock_state().remove(source, &slot);
                }
                Err(e.clone())
            }
        }
    }

    /// Evicts least-recently-used compiled entries until the resident bytes
    /// fit the budget. The entry holding `protect` (the one just compiled)
    /// and in-flight entries (`cost == 0`) are exempt.
    fn evict_to_budget(&self, state: &mut CacheState, protect: &Arc<Slot>) {
        let Some(budget) = self.budget else { return };
        while state.resident_bytes > budget {
            let victim = state
                .entries
                .iter()
                .flat_map(|(source, kinds)| kinds.iter().map(move |entry| (source, entry)))
                .filter(|(_, entry)| entry.cost > 0 && !Arc::ptr_eq(&entry.slot, protect))
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(source, entry)| (source.clone(), Arc::clone(&entry.slot)));
            let Some((source, slot)) = victim else { break };
            if let Some(entry) = state.remove(&source, &slot) {
                state.resident_bytes -= entry.cost;
                self.metrics.add(EVICTIONS, 1);
            }
        }
    }

    /// Whether the artifact for `(source, kind)` is currently resident
    /// (compiled and not evicted).
    pub fn contains(&self, source: &str, kind: ProvenanceKind) -> bool {
        self.lock_state()
            .entry(source, kind)
            .is_some_and(|entry| entry.slot.cell.get().is_some())
    }

    /// Number of cached (compiled or in-flight) programs.
    pub fn len(&self) -> usize {
        self.lock_state().entries.values().map(Vec::len).sum()
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
        let programs = state
            .entries
            .values()
            .flatten()
            .filter(|entry| entry.cost > 0)
            .count();
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
    fn an_equal_source_in_another_allocation_hits() {
        let cache = ProgramCache::new();
        let first = cache.get_or_compile(TC, ProvenanceKind::Unit).unwrap();
        let copy = String::from(TC);
        assert_ne!(copy.as_ptr(), TC.as_ptr());
        let second = cache.get_or_compile(&copy, ProvenanceKind::Unit).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let metrics = cache.metrics();
        assert_eq!(metrics.get("hits"), Some(1));
        assert_eq!(metrics.get("compiles"), Some(1));
    }

    #[test]
    fn distinct_kinds_are_distinct_entries() {
        let cache = ProgramCache::new();
        let unit = cache.get_or_compile(TC, ProvenanceKind::Unit).unwrap();
        let prob = cache
            .get_or_compile(TC, ProvenanceKind::AddMultProb)
            .unwrap();
        assert!(!Arc::ptr_eq(&unit, &prob));
        assert_eq!(prob.kind(), ProvenanceKind::AddMultProb);
        assert_eq!(cache.len(), 2);
        // Each kind's entry compiled once: asking again hits both.
        for (kind, compiled) in [
            (ProvenanceKind::Unit, &unit),
            (ProvenanceKind::AddMultProb, &prob),
        ] {
            assert!(Arc::ptr_eq(
                &cache.get_or_compile(TC, kind).unwrap(),
                compiled
            ));
        }
        let metrics = cache.metrics();
        assert_eq!(metrics.get("compiles"), Some(2));
        assert_eq!(metrics.get("hits"), Some(2));
        assert_eq!(metrics.get("resident_programs"), Some(2));
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
    fn contains_reflects_residency() {
        let cache = ProgramCache::new();
        assert!(!cache.contains(TC, ProvenanceKind::Unit));
        cache.get_or_compile(TC, ProvenanceKind::Unit).unwrap();
        assert!(cache.contains(TC, ProvenanceKind::Unit));
        assert!(!cache.contains(TC, ProvenanceKind::AddMultProb));
        cache.clear();
        assert!(!cache.contains(TC, ProvenanceKind::Unit));
    }
}
