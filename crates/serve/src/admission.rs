//! Queue-depth admission control: shed load instead of queueing unboundedly.
//!
//! A batching scheduler with an unbounded queue has no worst-case latency:
//! when offered load exceeds capacity the queue — and every accepted
//! request's wait — grows without bound. The [`AdmissionController`] caps
//! the number of requests the scheduler may hold (queued + executing); a
//! request arriving above the cap is **shed** with a structured
//! retry-after instead of enqueued. Accepted requests therefore wait behind
//! at most `max_pending` others, which is what bounds the served p99 under
//! overload (`BENCH_serve.json`, `overload` section).
//!
//! The retry-after hint is derived from an exponentially-weighted moving
//! average of observed request service time: a shed client is told to come
//! back roughly when the current backlog will have drained. The estimate is
//! deliberately conservative (clamped to [`AdmissionConfig::min_retry`],
//! [`AdmissionConfig::max_retry`]) — its job is to spread retries out, not
//! to promise a slot.

use lobster::metrics::{Kind, Metrics, Snapshot};
use std::sync::Mutex;
use std::time::Duration;

/// Knobs of the [`AdmissionController`].
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Requests the scheduler may hold (queued + executing) before arrivals
    /// are shed.
    pub max_pending: usize,
    /// Floor for the retry-after hint.
    pub min_retry: Duration,
    /// Ceiling for the retry-after hint.
    pub max_retry: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_pending: 256,
            min_retry: Duration::from_millis(1),
            max_retry: Duration::from_secs(5),
        }
    }
}

impl AdmissionConfig {
    /// Builder-style setter for [`AdmissionConfig::max_pending`].
    pub fn with_max_pending(mut self, n: usize) -> Self {
        self.max_pending = n.max(1);
        self
    }
}

/// The controller's registry entries; the constants below index them.
const ENTRIES: &[(&str, Kind)] = &[
    // Requests admitted to the scheduler queue.
    ("admitted", Kind::Counter),
    // Requests shed at the door with a retry-after.
    ("shed", Kind::Counter),
    // The configured cap on pending requests.
    ("max_pending", Kind::Gauge),
];
const ADMITTED: usize = 0;
const SHED: usize = 1;
const MAX_PENDING: usize = 2;

/// Decides, per request, whether the scheduler may take one more.
///
/// The controller holds no queue of its own — it reads the scheduler's live
/// pending count (passed in by the caller, who owns the scheduler handle)
/// and keeps only counters and the service-time EWMA. All methods take
/// `&self`.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    metrics: Metrics,
    /// EWMA of per-request service time (submit → resolve), in nanoseconds;
    /// `0` until the first observation.
    ewma_service_ns: Mutex<f64>,
}

impl AdmissionController {
    /// A controller with the given knobs.
    pub fn new(config: AdmissionConfig) -> Self {
        let metrics = Metrics::new(ENTRIES);
        metrics.set(MAX_PENDING, config.max_pending as u64);
        AdmissionController {
            config,
            metrics,
            ewma_service_ns: Mutex::new(0.0),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Admission decision for one arriving request given the scheduler's
    /// current pending count (queued + executing).
    ///
    /// # Errors
    ///
    /// Returns the retry-after hint when the request must be shed.
    pub fn admit(&self, pending: usize) -> Result<(), Duration> {
        if pending < self.config.max_pending {
            self.metrics.add(ADMITTED, 1);
            Ok(())
        } else {
            self.metrics.add(SHED, 1);
            Err(self.retry_after(pending))
        }
    }

    /// Feeds one completed request's observed service time (submit →
    /// resolve) into the EWMA behind the retry-after estimate.
    pub fn observe(&self, service_time: Duration) {
        let mut ewma = self
            .ewma_service_ns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let sample = service_time.as_nanos() as f64;
        // alpha 0.2: a few dozen requests dominate the estimate, one
        // descheduling blip does not.
        *ewma = if *ewma == 0.0 {
            sample
        } else {
            0.8 * *ewma + 0.2 * sample
        };
    }

    /// The hint a request shed at `pending` depth receives: the estimated
    /// time for the excess backlog (everything beyond the cap, plus this
    /// request) to drain, clamped to the configured window.
    fn retry_after(&self, pending: usize) -> Duration {
        let ewma_ns = *self
            .ewma_service_ns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let excess = pending.saturating_sub(self.config.max_pending) + 1;
        let estimate = if ewma_ns > 0.0 {
            Duration::from_nanos((ewma_ns * excess as f64) as u64)
        } else {
            // No completions observed yet — fall back to the floor; the
            // point is a non-zero, structured backoff, not accuracy.
            self.config.min_retry
        };
        estimate.clamp(self.config.min_retry, self.config.max_retry)
    }

    /// The decision counters and the configured cap.
    pub fn metrics(&self) -> Snapshot {
        self.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_below_the_cap_and_sheds_at_it() {
        let controller = AdmissionController::new(AdmissionConfig::default().with_max_pending(2));
        assert!(controller.admit(0).is_ok());
        assert!(controller.admit(1).is_ok());
        let retry = controller.admit(2).expect_err("at the cap");
        assert!(retry >= controller.config().min_retry);
        let metrics = controller.metrics();
        assert_eq!(metrics.get("admitted"), Some(2));
        assert_eq!(metrics.get("shed"), Some(1));
        assert_eq!(metrics.get("max_pending"), Some(2));
    }

    #[test]
    fn retry_after_scales_with_the_backlog_and_observed_service_time() {
        let controller = AdmissionController::new(AdmissionConfig::default().with_max_pending(4));
        for _ in 0..10 {
            controller.observe(Duration::from_millis(10));
        }
        let small = controller.admit(4).expect_err("shed");
        let large = controller.admit(40).expect_err("shed");
        // One excess request ≈ one service time; 37 excess ≈ 37 of them.
        assert!(small >= Duration::from_millis(5), "{small:?}");
        assert!(large > small * 10, "{large:?} vs {small:?}");
    }

    #[test]
    fn retry_after_is_clamped_to_the_configured_window() {
        let config = AdmissionConfig {
            max_pending: 1,
            min_retry: Duration::from_millis(2),
            max_retry: Duration::from_millis(50),
        };
        let controller = AdmissionController::new(config);
        // No observations yet: the floor.
        assert_eq!(
            controller.admit(1).expect_err("shed"),
            Duration::from_millis(2)
        );
        controller.observe(Duration::from_secs(10));
        // A huge backlog times a huge EWMA still respects the ceiling.
        assert_eq!(
            controller.admit(1000).expect_err("shed"),
            Duration::from_millis(50)
        );
    }
}
