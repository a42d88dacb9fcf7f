//! A clock the open loop can be read by.
//!
//! `run_open_loop` is one call, so the harness cannot read the clock at
//! segment boundaries the way the closed loops do. Instead every wrapper
//! of the open-loop world is decorated: each fragment execution ticks a
//! shared counter, and every [`Ticks::every`]-th tick notes the wall
//! clock. Fragment executions are spread evenly over the run's work,
//! so consecutive notes bound segments of equal work. The decorator adds
//! one lock and one counter increment per fragment (tens of nanoseconds
//! against ~100 µs per arrival) and forwards everything else untouched.

use qcc_common::{Result, ServerId, SimDuration, SimTime, WallStopwatch};
use qcc_wrapper::{FragmentPlan, Wrapper, WrapperKind, WrapperResult, WrapperStream};
use std::sync::{Arc, Mutex};

/// Shared tick counter plus the clock notes taken so far.
#[derive(Debug)]
pub struct Ticks {
    every: u64,
    clock: WallStopwatch,
    /// `(ticks so far, wall ns at every `every`-th tick)`.
    state: Mutex<(u64, Vec<u64>)>,
}

impl Ticks {
    pub fn new(every: u64) -> Arc<Ticks> {
        Arc::new(Ticks {
            every,
            clock: WallStopwatch::start(),
            state: Mutex::new((0, Vec::new())),
        })
    }

    fn tick(&self) {
        let mut state = self
            .state
            .lock()
            .expect("tick state is a counter and a list: valid at every step");
        state.0 += 1;
        if state.0.is_multiple_of(self.every) {
            let note = self.clock.elapsed_nanos() as u64;
            state.1.push(note);
        }
    }

    /// Forget everything noted so far (the warm-up ticked too).
    pub fn reset(&self) {
        *self.state.lock().expect("see tick") = (0, Vec::new());
    }

    /// Wall seconds of every full segment since the last reset, and the
    /// share of all ticks those segments cover.
    pub fn segments(&self) -> (Vec<f64>, f64) {
        let state = self.state.lock().expect("see tick");
        let segments: Vec<f64> = state
            .1
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64 / 1e9)
            .collect();
        let covered = segments.len() as u64 * self.every;
        let share = covered as f64 / state.0.max(1) as f64;
        (segments, share)
    }
}

/// A wrapper that ticks on every fragment execution and otherwise
/// forwards to the wrapper it decorates.
#[derive(Debug)]
pub struct TickWrapper {
    pub inner: Arc<dyn Wrapper>,
    pub ticks: Arc<Ticks>,
}

impl Wrapper for TickWrapper {
    fn server_id(&self) -> &ServerId {
        self.inner.server_id()
    }

    fn kind(&self) -> WrapperKind {
        self.inner.kind()
    }

    fn tables(&self) -> Vec<String> {
        self.inner.tables()
    }

    fn plan(&self, sql: &str, at: SimTime) -> Result<(Vec<FragmentPlan>, SimDuration)> {
        self.inner.plan(sql, at)
    }

    fn execute(&self, plan: &FragmentPlan, at: SimTime) -> Result<WrapperResult> {
        self.ticks.tick();
        self.inner.execute(plan, at)
    }

    fn execute_stream(
        &self,
        plan: &FragmentPlan,
        at: SimTime,
        cursor: usize,
        interruptible: bool,
    ) -> Result<WrapperStream> {
        self.ticks.tick();
        self.inner.execute_stream(plan, at, cursor, interruptible)
    }

    fn ping(&self, at: SimTime) -> Result<SimDuration> {
        self.inner.ping(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_nth_tick_bounds_a_segment() {
        let ticks = Ticks::new(3);
        for _ in 0..10 {
            ticks.tick();
        }
        // Notes at ticks 3, 6, 9: two full segments covering 6 of 10 ticks.
        let (segments, share) = ticks.segments();
        assert_eq!(segments.len(), 2);
        assert_eq!(share, 0.6);
        ticks.reset();
        assert_eq!(ticks.segments(), (Vec::new(), 0.0));
    }
}
