//! Runtime configuration and optimization toggles.

/// The FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a 64-bit hash state. Start from [`fnv1a`] for
/// a whole buffer; use this directly to chain several fields into one hash.
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A stable FNV-1a 64-bit hash of `bytes` — process-independent, unlike
/// `std`'s randomized hasher, so it can identify artifacts across runs.
/// Shared by [`RuntimeOptions::fingerprint`] and the core crate's source
/// hashing so the two fingerprints never drift apart.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Options controlling the APM executor: the two optimization toggles of
/// the paper's ablation study (Figure 10) and the two run limits.
///
/// These are the only execution knobs. Everything else the engine decides
/// from the program itself: joins take the merge path exactly where
/// sort-order inference proves both inputs sorted on the key, every
/// program's relations are stored in one packed dictionary-encoded layout
/// (`StoragePlan::for_program`), and dead rules are reported by the lint,
/// never pruned behind the caller's back.
///
/// `RuntimeOptions` has structural equality and hashing, and a stable
/// [`fingerprint`](RuntimeOptions::fingerprint), so it can key caches of
/// compiled programs: two option sets with the same fingerprint produce the
/// same execution behaviour.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RuntimeOptions {
    /// Reuse hash indices across fix-point iterations by storing them in
    /// static registers when the build side of a join is iteration-invariant
    /// (Section 4.2). Disabling this rebuilds every index on every iteration.
    pub static_registers: bool,
    /// Arena allocation and cross-iteration buffer reuse for per-iteration
    /// temporaries (Section 4.1).
    pub buffer_reuse: bool,
    /// Maximum number of fix-point iterations per stratum (safety net against
    /// non-terminating programs).
    pub max_iterations: usize,
    /// Optional wall-clock budget in milliseconds for one whole run — every
    /// stratum of a from-scratch run or of an incremental refresh draws on
    /// the same budget. A from-scratch run's strata are compiled before the
    /// budget starts (a `Program` compiles them once, with itself); the
    /// strata a refresh compiles on the way count against it. The executor
    /// aborts with an error when it is exceeded (used to reproduce the
    /// paper's 2-hour-timeout entries at laptop scale).
    pub timeout_ms: Option<u64>,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            static_registers: true,
            buffer_reuse: true,
            max_iterations: 1_000_000,
            timeout_ms: None,
        }
    }
}

impl RuntimeOptions {
    /// The fully optimized configuration (the paper's "Both").
    pub fn optimized() -> Self {
        Self::default()
    }

    /// Both optimizations disabled (the paper's "None").
    pub fn unoptimized() -> Self {
        RuntimeOptions {
            static_registers: false,
            buffer_reuse: false,
            ..Self::default()
        }
    }

    /// Builder-style setter for [`RuntimeOptions::static_registers`].
    pub fn with_static_registers(mut self, enabled: bool) -> Self {
        self.static_registers = enabled;
        self
    }

    /// Builder-style setter for [`RuntimeOptions::buffer_reuse`].
    pub fn with_buffer_reuse(mut self, enabled: bool) -> Self {
        self.buffer_reuse = enabled;
        self
    }

    /// Builder-style setter for [`RuntimeOptions::timeout_ms`].
    pub fn with_timeout_ms(mut self, timeout: Option<u64>) -> Self {
        self.timeout_ms = timeout;
        self
    }

    /// A stable 64-bit fingerprint of every field (FNV-1a), independent of
    /// the process and of `std`'s randomized hasher. Equal options always
    /// fingerprint equally, so `(source hash, provenance kind, options
    /// fingerprint)` is a well-defined compiled-program cache key.
    pub fn fingerprint(&self) -> u64 {
        // Destructured without `..`: a new field does not compile until it
        // is mixed in, so it cannot be left out of the cache key.
        let RuntimeOptions {
            static_registers,
            buffer_reuse,
            max_iterations,
            timeout_ms,
        } = self;
        let mix = |hash, value: u64| fnv1a_extend(hash, &value.to_le_bytes());
        let mut hash = FNV_OFFSET;
        hash = mix(hash, u64::from(*static_registers));
        hash = mix(hash, u64::from(*buffer_reuse));
        hash = mix(hash, *max_iterations as u64);
        // Distinguish `None` from `Some(0)`.
        hash = mix(hash, u64::from(timeout_ms.is_some()));
        hash = mix(hash, timeout_ms.unwrap_or(0));
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_all_optimizations() {
        let opts = RuntimeOptions::default();
        assert!(opts.static_registers);
        assert!(opts.buffer_reuse);
    }

    #[test]
    fn unoptimized_disables_everything() {
        let opts = RuntimeOptions::unoptimized();
        assert!(!opts.static_registers);
        assert!(!opts.buffer_reuse);
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let base = RuntimeOptions::default();
        assert_eq!(base.fingerprint(), RuntimeOptions::default().fingerprint());
        assert_eq!(base, RuntimeOptions::default());
        // Every field participates.
        assert_ne!(
            base.fingerprint(),
            base.clone().with_static_registers(false).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            base.clone().with_buffer_reuse(false).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            base.clone().with_timeout_ms(Some(0)).fingerprint()
        );
        let mut capped = base.clone();
        capped.max_iterations = 7;
        assert_ne!(base.fingerprint(), capped.fingerprint());
    }

    #[test]
    fn builder_setters_compose() {
        let opts = RuntimeOptions::default()
            .with_static_registers(false)
            .with_buffer_reuse(false)
            .with_timeout_ms(Some(100));
        assert!(!opts.static_registers);
        assert!(!opts.buffer_reuse);
        assert_eq!(opts.timeout_ms, Some(100));
    }
}
