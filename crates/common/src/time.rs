//! Virtual simulation time.
//!
//! All response times in this workspace are *simulated*: the remote engines
//! compute how much work a query did (rows scanned, tuples joined, bytes
//! shipped) and the load/network models translate that work into virtual
//! milliseconds. Nothing sleeps; experiments are deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point on the virtual timeline, in milliseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

/// A span of virtual time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// Simulation epoch.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        SimTime(ms)
    }

    /// Milliseconds since the epoch.
    pub fn as_millis(self) -> f64 {
        self.0
    }

    /// Duration elapsed since `earlier`; clamped at zero if `earlier` is
    /// in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration((self.0 - earlier.0).max(0.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Construct from milliseconds. Negative inputs clamp to zero.
    pub fn from_millis(ms: f64) -> Self {
        SimDuration(ms.max(0.0))
    }

    /// Construct from seconds. Negative inputs clamp to zero.
    pub fn from_secs(s: f64) -> Self {
        SimDuration((s * 1000.0).max(0.0))
    }

    /// The duration in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0
    }

    /// The duration in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 / 1000.0
    }

    /// Larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration((self.0 * rhs).max(0.0))
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration((self.0 / rhs).max(0.0))
    }
}

/// A shareable virtual clock. Cloning yields a handle onto the same
/// timeline. Nothing in the workspace sleeps: components *advance* the
/// clock by the durations their models compute.
///
/// This is the injected clock of lint rule L1: components that need "the
/// current time" take a `SimClock` (or an explicit `SimTime`) so that
/// tests and experiments control the timeline; reading the host clock is
/// banned everywhere outside this file.
///
/// # Coordinator-only advance contract
///
/// Under scatter-gather parallelism (see `qcc_common::scatter` and
/// DESIGN.md §2 "Scatter-gather and QCC_THREADS"), **only the
/// coordinating thread of a scatter unit may advance a shared clock**,
/// and only *after* the gather barrier — by the maximum of the durations
/// its workers reported.
/// Workers never touch the shared timeline; a worker that needs a local
/// timeline forks a private clock from the coordinator's snapshot with
/// [`SimClock::at`]. This keeps virtual time a pure function of the
/// workload, identical for any worker-thread count.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    inner: std::sync::Arc<parking_lot::Mutex<SimTime>>,
}

impl SimClock {
    /// A clock at the epoch.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// A new, *independent* clock whose timeline starts at `t`.
    ///
    /// Unlike [`Clone`], the returned clock shares nothing with any other
    /// clock. Scatter workers fork one from the coordinator's snapshot so
    /// each unit of work advances a private timeline; the coordinator
    /// later reconciles the shared clock per the coordinator-only advance
    /// contract (see the type-level docs).
    pub fn at(t: SimTime) -> Self {
        SimClock {
            inner: std::sync::Arc::new(parking_lot::Mutex::new(t)),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        *self.inner.lock()
    }

    /// Advance the clock by `d`, returning the new time.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        let mut t = self.inner.lock();
        *t += d;
        *t
    }

    /// Jump directly to `t` if it is in the future (no-op otherwise —
    /// virtual time never goes backwards). Returns the current time.
    pub fn advance_to(&self, t: SimTime) -> SimTime {
        let mut cur = self.inner.lock();
        if t > *cur {
            *cur = t;
        }
        *cur
    }
}

/// Wall-clock stopwatch for benchmark harnesses.
///
/// This is the single sanctioned gateway to real time in the workspace:
/// lint rule L1 (clock discipline) forbids `Instant::now()` everywhere
/// else so that no simulation or calibration path can accidentally read
/// the host clock. Benchmarks that genuinely need wall time go through
/// here, which keeps the rule's allowlist at exactly one file.
#[derive(Debug)]
pub struct WallStopwatch {
    start: std::time::Instant,
}

impl WallStopwatch {
    /// Start timing now.
    #[allow(clippy::new_without_default)]
    pub fn start() -> WallStopwatch {
        WallStopwatch {
            start: std::time::Instant::now(),
        }
    }

    /// Nanoseconds elapsed since [`WallStopwatch::start`].
    pub fn elapsed_nanos(&self) -> u128 {
        self.start.elapsed().as_nanos()
    }

    /// Seconds elapsed since [`WallStopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000.0 {
            write!(f, "{:.3}s", self.0 / 1000.0)
        } else {
            write!(f, "{:.3}ms", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::ZERO + SimDuration::from_millis(5.0) + SimDuration::from_secs(1.0);
        assert!((t.as_millis() - 1005.0).abs() < 1e-9);
        assert!((t.since(SimTime::ZERO).as_secs() - 1.005).abs() < 1e-9);
    }

    #[test]
    fn since_clamps_to_zero() {
        let a = SimTime::from_millis(10.0);
        let b = SimTime::from_millis(20.0);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!((b - a).as_millis(), 10.0);
    }

    #[test]
    fn negative_durations_clamp() {
        assert_eq!(SimDuration::from_millis(-5.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis(4.0) * -1.0, SimDuration::ZERO);
    }

    #[test]
    fn forked_clock_is_independent() {
        let shared = SimClock::new();
        shared.advance(SimDuration::from_millis(7.0));
        let fork = SimClock::at(shared.now());
        assert_eq!(fork.now(), shared.now());
        fork.advance(SimDuration::from_millis(100.0));
        assert_eq!(shared.now().as_millis(), 7.0);
        assert_eq!(fork.now().as_millis(), 107.0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_millis(12.5).to_string(), "12.500ms");
        assert_eq!(SimDuration::from_secs(2.0).to_string(), "2.000s");
    }
}
