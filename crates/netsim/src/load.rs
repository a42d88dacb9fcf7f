//! Server load state and the slowdown curve.

use crate::profile::LoadProfile;
use parking_lot::Mutex;
use qcc_common::SimTime;
use std::sync::Arc;

/// Utilization is capped below 1.0 so the processor-sharing curve stays
/// finite; beyond this point a real system would be thrashing anyway.
pub const MAX_UTILIZATION: f64 = 0.95;

/// Processor-sharing slowdown: at utilization `rho`, a job takes
/// `1 + sensitivity · rho / (1 − rho)` times as long as on an idle server.
/// `sensitivity` captures how steeply a given server (or resource class)
/// degrades — the paper's Figure 9 shows this differs per server and per
/// query type.
pub fn slowdown(rho: f64, sensitivity: f64) -> f64 {
    let rho = rho.clamp(0.0, MAX_UTILIZATION);
    1.0 + sensitivity * rho / (1.0 - rho)
}

/// A server's load state: a background profile (driven by the experiment
/// phases) plus self-inflicted load from queries currently in flight.
#[derive(Debug, Clone)]
pub struct ServerLoad {
    background: Arc<Mutex<LoadProfile>>,
    inflight: Arc<Mutex<u32>>,
    /// Utilization each in-flight query contributes.
    per_query_load: f64,
}

impl ServerLoad {
    /// A load model with the given background profile. Each in-flight query
    /// adds `per_query_load` utilization (hot-spot feedback).
    pub fn new(background: LoadProfile, per_query_load: f64) -> Self {
        ServerLoad {
            background: Arc::new(Mutex::new(background)),
            inflight: Arc::new(Mutex::new(0)),
            per_query_load,
        }
    }

    /// Replace the background profile (used when an experiment enters a new
    /// phase).
    pub fn set_background(&self, profile: LoadProfile) {
        *self.background.lock() = profile;
    }

    /// Effective utilization at time `t`.
    pub fn utilization(&self, t: SimTime) -> f64 {
        let bg = self.background.lock().level(t);
        let inflight = *self.inflight.lock() as f64;
        (bg + inflight * self.per_query_load).clamp(0.0, MAX_UTILIZATION)
    }

    /// Mark a query as started; returns a guard that decrements on drop.
    pub fn begin_query(&self) -> InflightGuard {
        *self.inflight.lock() += 1;
        InflightGuard {
            inflight: Arc::clone(&self.inflight),
        }
    }

    /// Number of queries currently in flight.
    pub fn inflight(&self) -> u32 {
        *self.inflight.lock()
    }
}

/// RAII guard for an in-flight query.
#[derive(Debug)]
pub struct InflightGuard {
    inflight: Arc<Mutex<u32>>,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        let mut n = self.inflight.lock();
        *n = n.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_monotone_in_load() {
        let mut prev = 0.0;
        for i in 0..=10 {
            let rho = i as f64 / 10.0;
            let s = slowdown(rho, 1.0);
            assert!(s >= prev, "slowdown must not decrease");
            prev = s;
        }
        assert_eq!(slowdown(0.0, 1.0), 1.0, "idle server: no slowdown");
    }

    #[test]
    fn slowdown_scales_with_sensitivity() {
        let gentle = slowdown(0.8, 0.5);
        let steep = slowdown(0.8, 3.0);
        assert!(steep > gentle * 3.0);
    }

    #[test]
    fn slowdown_finite_at_saturation() {
        assert!(slowdown(1.0, 1.0).is_finite());
        assert!(slowdown(5.0, 1.0).is_finite(), "clamped above 1");
    }

    #[test]
    fn inflight_guard_counts() {
        let load = ServerLoad::new(LoadProfile::Constant(0.2), 0.1);
        let t = SimTime::ZERO;
        assert!((load.utilization(t) - 0.2).abs() < 1e-12);
        {
            let _g1 = load.begin_query();
            let _g2 = load.begin_query();
            assert_eq!(load.inflight(), 2);
            assert!((load.utilization(t) - 0.4).abs() < 1e-12);
        }
        assert_eq!(load.inflight(), 0);
        assert!((load.utilization(t) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn utilization_caps() {
        let load = ServerLoad::new(LoadProfile::Constant(0.9), 0.2);
        let _g: Vec<_> = (0..10).map(|_| load.begin_query()).collect();
        assert_eq!(load.utilization(SimTime::ZERO), MAX_UTILIZATION);
    }

    #[test]
    fn background_swap_takes_effect() {
        let load = ServerLoad::new(LoadProfile::Constant(0.1), 0.0);
        load.set_background(LoadProfile::Constant(0.8));
        assert!((load.utilization(SimTime::ZERO) - 0.8).abs() < 1e-12);
    }
}
