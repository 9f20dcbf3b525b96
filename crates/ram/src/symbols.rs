//! String interning for symbolic constants.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

#[derive(Debug, Default)]
struct Inner {
    by_name: HashMap<Arc<str>, u32>,
    by_id: Vec<Arc<str>>,
}

/// A shared, append-only table interning strings to dense `u32` ids.
///
/// Symbols appear in relation columns of type [`crate::ValueType::Symbol`]
/// (e.g. kinship relation names in the CLUTRR benchmark or alarm kinds in the
/// static-analysis benchmark). The table is cheaply cloneable and clones share
/// state, so a front-end, runtime, and result decoder can all hold handles to
/// one table.
///
/// Strings are stored as `Arc<str>` shared between the name→id map and the
/// id→name vector, so [`SymbolTable::resolve`] hands out a reference-counted
/// handle instead of allocating a fresh `String` per decoded tuple.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    inner: Arc<RwLock<Inner>>,
}

impl SymbolTable {
    /// Creates an empty symbol table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide shared symbol table.
    ///
    /// Every compiled program interns through this table, so pooled
    /// sessions, incremental delta sessions, and TCP connections all agree
    /// on symbol ids without re-interning, and cached outputs stay stable
    /// across session recycling. Ids are dense and append-only for the
    /// lifetime of the process, and a database stores a symbol as its id,
    /// in a 4-byte lane like a `u32`.
    pub fn global() -> SymbolTable {
        static GLOBAL: OnceLock<SymbolTable> = OnceLock::new();
        GLOBAL.get_or_init(SymbolTable::new).clone()
    }

    /// Interns `name`, returning its id (existing id if already interned).
    pub fn intern(&self, name: &str) -> u32 {
        {
            let inner = self.inner.read().expect("symbol table poisoned");
            if let Some(&id) = inner.by_name.get(name) {
                return id;
            }
        }
        let mut inner = self.inner.write().expect("symbol table poisoned");
        if let Some(&id) = inner.by_name.get(name) {
            return id;
        }
        let id = inner.by_id.len() as u32;
        let name: Arc<str> = Arc::from(name);
        inner.by_id.push(Arc::clone(&name));
        inner.by_name.insert(name, id);
        id
    }

    /// Looks up an already interned symbol without interning it.
    pub fn lookup(&self, name: &str) -> Option<u32> {
        self.inner
            .read()
            .expect("symbol table poisoned")
            .by_name
            .get(name)
            .copied()
    }

    /// Resolves an id back to its string, if known. The returned handle
    /// shares the table's storage — no per-call allocation.
    pub fn resolve(&self, id: u32) -> Option<Arc<str>> {
        self.inner
            .read()
            .expect("symbol table poisoned")
            .by_id
            .get(id as usize)
            .cloned()
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .expect("symbol table poisoned")
            .by_id
            .len()
    }

    /// `true` when no symbols have been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let t = SymbolTable::new();
        let a = t.intern("mother");
        let b = t.intern("father");
        assert_ne!(a, b);
        assert_eq!(t.intern("mother"), a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resolve_and_lookup() {
        let t = SymbolTable::new();
        let a = t.intern("alarm");
        assert_eq!(t.resolve(a).as_deref(), Some("alarm"));
        assert_eq!(t.lookup("alarm"), Some(a));
        assert_eq!(t.lookup("missing"), None);
        assert_eq!(t.resolve(99), None);
    }

    #[test]
    fn clones_share_state() {
        let t = SymbolTable::new();
        let clone = t.clone();
        let id = t.intern("shared");
        assert_eq!(clone.resolve(id).as_deref(), Some("shared"));
        assert!(!clone.is_empty());
    }

    #[test]
    fn resolve_shares_storage_without_allocating() {
        let t = SymbolTable::new();
        let id = t.intern("aunt");
        let a = t.resolve(id).unwrap();
        let b = t.resolve(id).unwrap();
        // Both handles point at the same allocation.
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn global_table_is_one_instance() {
        let a = SymbolTable::global();
        let b = SymbolTable::global();
        let id = a.intern("lobster-global-test-symbol");
        assert_eq!(b.resolve(id).as_deref(), Some("lobster-global-test-symbol"));
    }

    /// Many threads interning overlapping name sets must converge on one id
    /// per name, dense ids, and consistent resolution — the contract pooled
    /// sessions and TCP connections rely on when they share one table.
    #[test]
    fn concurrent_interning_agrees_across_threads() {
        const THREADS: usize = 8;
        const NAMES: usize = 200;
        let table = SymbolTable::new();
        let barrier = std::sync::Barrier::new(THREADS);
        let ids: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let table = table.clone();
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        // Each thread walks the shared name set from a
                        // different offset so first-intern races cover every
                        // name, then records the id it observed.
                        (0..NAMES)
                            .map(|i| table.intern(&format!("sym-{}", (i + t * 37) % NAMES)))
                            .collect::<Vec<u32>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Exactly one id per distinct name, and every id is in 0..NAMES.
        assert_eq!(table.len(), NAMES);
        for (t, thread_ids) in ids.iter().enumerate() {
            for (i, &id) in thread_ids.iter().enumerate() {
                let name = format!("sym-{}", (i + t * 37) % NAMES);
                assert!((id as usize) < NAMES, "non-dense id {id}");
                assert_eq!(table.lookup(&name), Some(id), "thread {t} saw a stale id");
                assert_eq!(table.resolve(id).as_deref(), Some(name.as_str()));
            }
        }
    }
}
