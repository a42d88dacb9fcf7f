//! Server availability schedules.
//!
//! The QCC's daemon programs probe remote sources and pin the cost of
//! unavailable servers to infinity (paper §3.3). This module supplies the
//! ground truth those daemons observe: planned outage windows on the
//! virtual timeline.

use parking_lot::Mutex;
use qcc_common::SimTime;
use std::sync::Arc;

/// Outage windows for one server. Shared: clones see the same schedule.
#[derive(Debug, Clone, Default)]
pub struct AvailabilitySchedule {
    /// `(down_from, up_again)` half-open windows, kept sorted.
    windows: Arc<Mutex<Vec<(SimTime, SimTime)>>>,
}

impl AvailabilitySchedule {
    /// An always-up schedule.
    pub fn always_up() -> Self {
        AvailabilitySchedule::default()
    }

    /// Schedule an outage in `[from, until)`.
    pub fn add_outage(&self, from: SimTime, until: SimTime) {
        let mut w = self.windows.lock();
        w.push((from, until));
        w.sort_by(|a, b| a.0.as_millis().total_cmp(&b.0.as_millis()));
    }

    /// Is the server up at `t`?
    pub fn is_up(&self, t: SimTime) -> bool {
        !self
            .windows
            .lock()
            .iter()
            .any(|(from, until)| t >= *from && t < *until)
    }

    /// The earliest outage start strictly inside `(from, until)`, if any.
    ///
    /// Streaming fragment execution uses this to find the first
    /// down-transition that would interrupt an in-flight request: the
    /// caller has already verified the server is up at `from` (so no
    /// window covers it), and a request that finishes exactly at a
    /// window start counts as completed — both bounds are strict.
    pub fn next_down_within(&self, from: SimTime, until: SimTime) -> Option<SimTime> {
        self.windows
            .lock()
            .iter()
            .map(|(start, _)| *start)
            .find(|start| *start > from && *start < until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_up_by_default() {
        let a = AvailabilitySchedule::always_up();
        assert!(a.is_up(SimTime::ZERO));
        assert!(a.is_up(SimTime::from_millis(1e9)));
    }

    #[test]
    fn outage_window_half_open() {
        let a = AvailabilitySchedule::always_up();
        a.add_outage(SimTime::from_millis(100.0), SimTime::from_millis(200.0));
        assert!(a.is_up(SimTime::from_millis(99.9)));
        assert!(!a.is_up(SimTime::from_millis(100.0)));
        assert!(!a.is_up(SimTime::from_millis(199.9)));
        assert!(a.is_up(SimTime::from_millis(200.0)));
    }

    #[test]
    fn next_down_within_is_strict_on_both_bounds() {
        let a = AvailabilitySchedule::always_up();
        a.add_outage(SimTime::from_millis(100.0), SimTime::from_millis(200.0));
        // Window start strictly inside the span is found.
        assert_eq!(
            a.next_down_within(SimTime::from_millis(50.0), SimTime::from_millis(150.0))
                .map(SimTime::as_millis),
            Some(100.0)
        );
        // A request finishing exactly at the window start completes.
        assert_eq!(
            a.next_down_within(SimTime::from_millis(50.0), SimTime::from_millis(100.0)),
            None
        );
        // A request issued exactly at the window start was already
        // rejected by the arrival liveness check; the transition at
        // `from` itself does not count.
        assert_eq!(
            a.next_down_within(SimTime::from_millis(100.0), SimTime::from_millis(300.0)),
            None
        );
        // Earliest of several windows wins.
        a.add_outage(SimTime::from_millis(60.0), SimTime::from_millis(70.0));
        assert_eq!(
            a.next_down_within(SimTime::from_millis(50.0), SimTime::from_millis(150.0))
                .map(SimTime::as_millis),
            Some(60.0)
        );
    }

    #[test]
    fn clones_share_schedule() {
        let a = AvailabilitySchedule::always_up();
        let b = a.clone();
        a.add_outage(SimTime::ZERO, SimTime::from_millis(10.0));
        assert!(!b.is_up(SimTime::from_millis(5.0)));
    }
}
