//! Tuning knobs for the admission controller.
//!
//! Everything here is measured in **virtual** milliseconds on the shared
//! `SimClock`; the admission layer never consults the wall clock.

use std::fmt;

/// Strict-priority class of a queued query. `High` drains before `Normal`,
/// `Normal` before `Low`; fair queueing across templates applies *within* a
/// class.
///
/// The derive order doubles as the drain order, so the `Ord` impl and the
/// `BTreeMap<PriorityClass, _>` iteration in the queue agree by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PriorityClass {
    /// Latency-critical traffic; always dequeued first.
    High,
    /// Default class for ordinary queries.
    Normal,
    /// Background / best-effort traffic; first to starve under overload.
    Low,
}

impl PriorityClass {
    /// Stable lowercase name used in journal events and metric labels.
    pub fn as_str(&self) -> &'static str {
        match self {
            PriorityClass::High => "high",
            PriorityClass::Normal => "normal",
            PriorityClass::Low => "low",
        }
    }
}

impl fmt::Display for PriorityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Admission-control configuration.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Queue-wait component of the per-query deadline budget (`0.0`
    /// contributes nothing). Together with `exec_deadline_ms` it forms the
    /// total arrival-relative deadline each ticket carries; a ticket is shed
    /// at dispatch time only when it can no longer make that deadline.
    pub queue_deadline_ms: f64,
    /// Execution component of the deadline budget, also enforced from
    /// dispatch: once a query's remaining budget is exhausted mid-flight,
    /// the retry budget is forfeited and late completions count as deadline
    /// misses (`0.0` disables; both components zero means no deadline).
    pub exec_deadline_ms: f64,
    /// Concurrency tokens contributed by a healthy, well-calibrated server.
    /// Calibration slowdown and reliability penalties scale this down;
    /// a `down` server contributes zero.
    pub base_tokens: u32,
    /// Enqueue-time bound on total queue depth; arrivals beyond it are shed
    /// immediately (`0` means unbounded).
    pub max_queue_depth: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_deadline_ms: 200.0,
            exec_deadline_ms: 400.0,
            base_tokens: 4,
            max_queue_depth: 1024,
        }
    }
}

impl AdmissionConfig {
    /// Total arrival-relative deadline budget (queue + execution
    /// components), or `None` when both components are disabled.
    pub fn deadline_budget_ms(&self) -> Option<f64> {
        let budget = self.queue_deadline_ms.max(0.0) + self.exec_deadline_ms.max(0.0);
        if budget > 0.0 {
            Some(budget)
        } else {
            None
        }
    }
}
