//! Runtime configuration and optimization toggles.

/// Options controlling the APM executor: the two optimization toggles of
/// the paper's ablation study (Figure 10) and the two run limits.
///
/// These are the only execution knobs. Everything else the engine decides
/// from the program itself: joins take the merge path exactly where
/// sort-order inference proves both inputs sorted on the key, every
/// program's relations are stored in one packed layout
/// (`StoragePlan::for_program`), and dead rules are dropped when a
/// `Program` is compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
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
