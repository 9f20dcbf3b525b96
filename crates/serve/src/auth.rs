//! API keys and per-key request quotas.
//!
//! The network front end ([`crate::net`]) authenticates every request
//! against a [`KeyStore`]: a map from API key to a token-bucket quota.
//! Authentication answers two independent questions — *is this client who
//! they claim* (key lookup) and *may they submit right now* (quota) — and
//! both are answered **before** the request touches the scheduler queue, so
//! an over-quota client cannot displace in-quota traffic.
//!
//! Quotas are token buckets: a key holds up to `burst` tokens, refilled at
//! `per_second` tokens per second; each admitted request spends one. A spent
//! bucket rejects with the exact [`Duration`] until the next token — the
//! client-visible `retry_after_ms` — so well-behaved clients back off with
//! precision instead of hammering.

use lobster::metrics::{Kind, Metrics, Snapshot};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The quota attached to one API key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quota {
    /// Sustained admission rate, in requests per second.
    pub per_second: f64,
    /// Burst capacity: requests admitted back-to-back from a full bucket.
    pub burst: u32,
}

impl Quota {
    /// A quota admitting `per_second` sustained requests with the given
    /// burst.
    pub fn per_second(per_second: f64, burst: u32) -> Self {
        Quota {
            per_second: per_second.max(f64::MIN_POSITIVE),
            burst: burst.max(1),
        }
    }

    /// A quota that never rejects (practically unlimited).
    pub fn unlimited() -> Self {
        Quota {
            per_second: f64::MAX,
            burst: u32::MAX,
        }
    }
}

/// One key's live bucket state.
#[derive(Debug)]
struct Bucket {
    quota: Quota,
    /// Tokens available, in `[0, burst]`.
    tokens: f64,
    /// When `tokens` was last refilled.
    refilled: Instant,
}

impl Bucket {
    fn refill(&mut self, now: Instant) {
        let elapsed = now.duration_since(self.refilled).as_secs_f64();
        self.tokens = (self.tokens + elapsed * self.quota.per_second).min(self.quota.burst as f64);
        self.refilled = now;
    }
}

/// Why a request was turned away at the door.
#[derive(Debug, Clone, PartialEq)]
pub enum AuthError {
    /// The presented key is not in the store (or no key was presented).
    Unauthorized,
    /// The key is valid but its bucket is empty; a token will be available
    /// after `retry_after`.
    QuotaExceeded {
        /// Time until the bucket holds a full token again.
        retry_after: Duration,
    },
}

/// The store's registry entries; the constants below index them. The
/// counters are the store's, not a key's: removing a key keeps its history.
const ENTRIES: &[(&str, Kind)] = &[
    // Requests admitted (a token was spent).
    ("admitted", Kind::Counter),
    // Requests presenting an unknown key.
    ("unauthorized", Kind::Counter),
    // Requests rejected because their key's bucket was empty.
    ("quota_rejected", Kind::Counter),
    // Keys registered.
    ("keys", Kind::Gauge),
];
const ADMITTED: usize = 0;
const UNAUTHORIZED: usize = 1;
const QUOTA_REJECTED: usize = 2;
const KEYS: usize = 3;

/// A map from API key to token-bucket quota, shared by every connection
/// thread of a server.
///
/// All methods take `&self`; the store is `Sync`. Keys are compared as
/// whole strings via hash-map lookup. An empty store rejects everything —
/// a server is closed by default and opened key by key.
#[derive(Debug)]
pub struct KeyStore {
    buckets: Mutex<HashMap<String, Bucket>>,
    metrics: Metrics,
}

impl Default for KeyStore {
    fn default() -> Self {
        KeyStore {
            buckets: Mutex::default(),
            metrics: Metrics::new(ENTRIES),
        }
    }
}

impl KeyStore {
    /// An empty store: every request is [`AuthError::Unauthorized`] until
    /// keys are added.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a key with the given quota. Replacing an existing
    /// key resets its bucket to full.
    pub fn add_key(&self, key: impl Into<String>, quota: Quota) {
        let mut buckets = self.lock_buckets();
        buckets.insert(
            key.into(),
            Bucket {
                quota,
                tokens: quota.burst as f64,
                refilled: Instant::now(),
            },
        );
        self.metrics.set(KEYS, buckets.len() as u64);
    }

    /// Removes a key; subsequent requests with it are unauthorized.
    pub fn remove_key(&self, key: &str) {
        let mut buckets = self.lock_buckets();
        buckets.remove(key);
        self.metrics.set(KEYS, buckets.len() as u64);
    }

    /// Checks `key` and spends one quota token on success.
    ///
    /// # Errors
    ///
    /// [`AuthError::Unauthorized`] for unknown keys,
    /// [`AuthError::QuotaExceeded`] (with the exact wait for the next token)
    /// for empty buckets.
    pub fn check(&self, key: &str) -> Result<(), AuthError> {
        let now = Instant::now();
        let mut buckets = self.lock_buckets();
        let Some(bucket) = buckets.get_mut(key) else {
            self.metrics.add(UNAUTHORIZED, 1);
            return Err(AuthError::Unauthorized);
        };
        bucket.refill(now);
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            self.metrics.add(ADMITTED, 1);
            Ok(())
        } else {
            self.metrics.add(QUOTA_REJECTED, 1);
            let missing = 1.0 - bucket.tokens;
            let retry_after = Duration::from_secs_f64(missing / bucket.quota.per_second);
            Err(AuthError::QuotaExceeded { retry_after })
        }
    }

    /// The store's decision counters, over every key it has held, and the
    /// number of keys it holds.
    pub fn metrics(&self) -> Snapshot {
        self.metrics.snapshot()
    }

    /// Number of registered keys.
    pub fn len(&self) -> usize {
        self.metrics.get(KEYS) as usize
    }

    /// `true` when no keys are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock_buckets(&self) -> std::sync::MutexGuard<'_, HashMap<String, Bucket>> {
        // Bucket state is plain data, valid whatever a panicking holder was
        // doing — recover the guard rather than cascading the panic.
        self.buckets
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_keys_are_unauthorized() {
        let store = KeyStore::new();
        assert_eq!(store.check("ghost"), Err(AuthError::Unauthorized));
        store.add_key("real", Quota::unlimited());
        assert_eq!(store.check("ghost"), Err(AuthError::Unauthorized));
        assert!(store.check("real").is_ok());
        let metrics = store.metrics();
        assert_eq!(metrics.get("admitted"), Some(1));
        assert_eq!(metrics.get("unauthorized"), Some(2));
    }

    #[test]
    fn burst_admits_then_quota_rejects_with_a_positive_retry_after() {
        let store = KeyStore::new();
        // 1 token/hour effectively: the bucket will not refill mid-test.
        store.add_key("k", Quota::per_second(1.0 / 3600.0, 2));
        assert!(store.check("k").is_ok());
        assert!(store.check("k").is_ok());
        match store.check("k") {
            Err(AuthError::QuotaExceeded { retry_after }) => {
                assert!(retry_after > Duration::from_secs(60), "{retry_after:?}");
            }
            other => panic!("expected quota rejection, got {other:?}"),
        }
        let metrics = store.metrics();
        assert_eq!(metrics.get("admitted"), Some(2));
        assert_eq!(metrics.get("quota_rejected"), Some(1));
    }

    #[test]
    fn buckets_refill_over_time() {
        let store = KeyStore::new();
        store.add_key("k", Quota::per_second(1000.0, 1));
        assert!(store.check("k").is_ok());
        // At 1000 tokens/sec a few milliseconds refill the single-token
        // bucket.
        std::thread::sleep(Duration::from_millis(5));
        assert!(store.check("k").is_ok());
    }

    #[test]
    fn removed_keys_stop_authenticating() {
        let store = KeyStore::new();
        store.add_key("k", Quota::unlimited());
        assert!(store.check("k").is_ok());
        store.remove_key("k");
        assert_eq!(store.check("k"), Err(AuthError::Unauthorized));
    }

    #[test]
    fn counters_survive_a_removed_key() {
        let store = KeyStore::new();
        store.add_key("k", Quota::per_second(1.0 / 3600.0, 2));
        assert!(store.check("k").is_ok());
        assert!(store.check("k").is_ok());
        assert!(store.check("k").is_err());
        store.remove_key("k");
        let metrics = store.metrics();
        assert_eq!(metrics.get("admitted"), Some(2));
        assert_eq!(metrics.get("quota_rejected"), Some(1));
        assert_eq!(metrics.get("keys"), Some(0));
    }
}
