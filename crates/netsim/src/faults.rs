//! Transient-fault windows on virtual time (the sim harness's
//! "flaky-error" fault class).
//!
//! [`crate::AvailabilitySchedule`] models hard outages — the server does
//! not answer at all. A [`FaultSchedule`] models the softer failure mode
//! real federations see far more often: the server answers, but a
//! fraction of requests inside a window come back as errors. The remote
//! server consults `rate_at(t)` per request; a steady fault rate is a
//! window spanning the run.
//!
//! Determinism: the schedule itself is pure state (windows on
//! `SimTime`); the *decision* whether a particular request faults must
//! not depend on execution order, so callers derive it from a stateless
//! hash of the request identity (see `qcc_remote::RemoteServer`), never
//! from a shared RNG stream.

use parking_lot::Mutex;
use qcc_common::SimTime;
use std::sync::Arc;

/// One flaky window: requests in `[from, until)` fault with `rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Probability in `[0, 1]` that a request inside the window faults.
    pub rate: f64,
}

/// A server's transient-fault schedule. Cheap to clone; clones share
/// state (like [`crate::AvailabilitySchedule`]), so the experiment driver
/// and the server see the same windows.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    windows: Arc<Mutex<Vec<FaultWindow>>>,
}

impl FaultSchedule {
    /// A schedule with no flaky windows.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Add a flaky window. Overlapping windows combine by taking the
    /// maximum rate (the worst regime wins).
    pub fn add_window(&self, from: SimTime, until: SimTime, rate: f64) {
        self.windows.lock().push(FaultWindow {
            from,
            until,
            rate: rate.clamp(0.0, 1.0),
        });
    }

    /// The transient-fault rate in effect at `t` (0.0 outside windows).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        self.windows
            .lock()
            .iter()
            .filter(|w| w.from <= t && t < w.until)
            .map(|w| w.rate)
            .fold(0.0, f64::max)
    }

    /// Is any window active at `t`?
    pub fn is_flaky(&self, t: SimTime) -> bool {
        self.rate_at(t) > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: f64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn rate_zero_outside_windows() {
        let f = FaultSchedule::none();
        assert_eq!(f.rate_at(t(5.0)), 0.0);
        f.add_window(t(10.0), t(20.0), 0.5);
        assert_eq!(f.rate_at(t(9.999)), 0.0);
        assert_eq!(f.rate_at(t(20.0)), 0.0, "end is exclusive");
        assert_eq!(f.rate_at(t(10.0)), 0.5, "start is inclusive");
    }

    #[test]
    fn overlapping_windows_take_max_rate() {
        let f = FaultSchedule::none();
        f.add_window(t(0.0), t(100.0), 0.2);
        f.add_window(t(50.0), t(150.0), 0.7);
        assert_eq!(f.rate_at(t(25.0)), 0.2);
        assert_eq!(f.rate_at(t(75.0)), 0.7);
        assert_eq!(f.rate_at(t(120.0)), 0.7);
    }

    #[test]
    fn rate_is_clamped_to_unit_interval() {
        let f = FaultSchedule::none();
        f.add_window(t(0.0), t(10.0), 3.0);
        assert_eq!(f.rate_at(t(5.0)), 1.0);
    }

    #[test]
    fn clones_share_windows() {
        let f = FaultSchedule::none();
        let g = f.clone();
        f.add_window(t(0.0), t(10.0), 0.4);
        assert_eq!(g.rate_at(t(5.0)), 0.4);
    }
}
