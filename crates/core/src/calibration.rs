//! Calibration factors.
//!
//! §3.1: *"their combined effects can be captured using a single query
//! fragment processing cost calibration factor per data source (and query
//! fragment if runtime statistics is available), defined as the ratio of
//! the average runtime cost vs. the average estimated cost."*
//!
//! The factor is computed over sliding windows so it tracks load *changes*
//! rather than averaging across regimes, and is refined per fragment
//! signature once enough observations accumulate. §3.2's workload factor
//! for the integrator is kept in a separate table, as the paper notes.

use crate::config::QccConfig;
use parking_lot::Mutex;
use qcc_common::{CounterFamily, Obs, ServerId, SlidingWindow};
use std::collections::BTreeMap;

/// Lower clamp on any calibration factor. A factor this small would make
/// the planner treat a server as ~free; nothing the probe loop or the
/// ratio windows produce legitimately goes below it.
pub const MIN_FACTOR: f64 = 1e-3;
/// Upper clamp on any calibration factor. Estimates can collapse toward
/// zero (degenerate fragments, denormal means) and probe seeds can
/// misbehave; the ratio must stay finite so downstream cost arithmetic
/// (`estimate × factor`) never turns into `inf`/`NaN`.
pub const MAX_FACTOR: f64 = 1e6;

/// Ratio history: separate sums of observed and estimated values, so the
/// factor is avg(observed) / avg(estimated) exactly as the paper defines
/// (not the average of per-query ratios).
#[derive(Debug, Clone)]
struct RatioWindow {
    observed: SlidingWindow,
    estimated: SlidingWindow,
}

impl RatioWindow {
    fn new(capacity: usize) -> Self {
        RatioWindow {
            observed: SlidingWindow::new(capacity),
            estimated: SlidingWindow::new(capacity),
        }
    }

    fn push(&mut self, observed: f64, estimated: f64) {
        self.observed.push(observed);
        self.estimated.push(estimated);
    }

    fn factor(&self) -> Option<f64> {
        let obs = self.observed.mean()?;
        let est = self.estimated.mean()?;
        if est <= 0.0 || !obs.is_finite() {
            return None;
        }
        let raw = obs / est;
        // est > 0 does not make the ratio safe: a denormal mean estimate
        // under a large observed mean overflows to infinity.
        if !raw.is_finite() {
            return Some(MAX_FACTOR);
        }
        Some(raw.clamp(MIN_FACTOR, MAX_FACTOR))
    }

    fn len(&self) -> usize {
        self.observed.len()
    }

    /// Coefficient of variation of the observed history (drives the
    /// adaptive calibration cycle, §3.4).
    fn observed_cov(&self) -> Option<f64> {
        self.observed.coeff_of_variation()
    }
}

/// All calibration state.
#[derive(Debug)]
pub struct CalibrationTable {
    window: usize,
    min_fragment_obs: usize,
    /// Per-server factor windows.
    per_server: Mutex<BTreeMap<ServerId, RatioWindow>>,
    /// Per-(server, fragment signature) windows, nested so a lookup
    /// borrows both parts of the key.
    per_fragment: Mutex<BTreeMap<ServerId, BTreeMap<String, RatioWindow>>>,
    /// Integrator workload factor window — "the table maintained in QCC
    /// for II query cost calibration factors is different from the table
    /// maintained for query fragment processing cost calibration factors"
    /// (§3.2).
    ii: Mutex<RatioWindow>,
    /// Manual seeds (from daemon probes) used until real data arrives.
    seeds: Mutex<BTreeMap<ServerId, f64>>,
    obs: Obs,
    samples_total: CounterFamily,
}

impl CalibrationTable {
    /// Fresh table.
    pub fn new(config: &QccConfig) -> Self {
        CalibrationTable {
            window: config.calibration_window,
            min_fragment_obs: config.min_fragment_observations,
            per_server: Mutex::new(BTreeMap::new()),
            per_fragment: Mutex::new(BTreeMap::new()),
            ii: Mutex::new(RatioWindow::new(config.calibration_window)),
            seeds: Mutex::new(BTreeMap::new()),
            obs: Obs::off(),
            samples_total: CounterFamily::default(),
        }
    }

    /// Attach an observability handle (sample/seed counters).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.samples_total = obs.counter_family("calibration_samples_total", "server");
        self.obs = obs;
        self
    }

    /// Record a runtime observation for a fragment at a server.
    pub fn record_fragment(
        &self,
        server: &ServerId,
        signature: &str,
        estimated_total: f64,
        observed_ms: f64,
    ) {
        if estimated_total <= 0.0 || !observed_ms.is_finite() {
            return;
        }
        self.per_server
            .lock()
            .entry(server.clone())
            .or_insert_with(|| RatioWindow::new(self.window))
            .push(observed_ms, estimated_total);
        let mut per_fragment = self.per_fragment.lock();
        let windows = per_fragment.entry(server.clone()).or_default();
        // Look the window up first: the signature is copied only when it
        // opens a new one.
        match windows.get_mut(signature) {
            Some(window) => window.push(observed_ms, estimated_total),
            None => {
                let mut window = RatioWindow::new(self.window);
                window.push(observed_ms, estimated_total);
                windows.insert(signature.to_owned(), window);
            }
        }
        drop(per_fragment);
        self.samples_total.inc(server.as_str());
    }

    /// Seed a server's factor from a daemon probe (used only while no
    /// runtime observations exist).
    pub fn seed_server(&self, server: &ServerId, factor: f64) {
        if !factor.is_finite() {
            return;
        }
        self.seeds
            .lock()
            .insert(server.clone(), factor.clamp(MIN_FACTOR, MAX_FACTOR));
        self.obs
            .counter_inc("calibration_seeds_total", &[("server", server.as_str())]);
    }

    /// The calibration factor to apply to a fragment estimate at a server:
    /// the per-fragment factor when enough observations exist, else the
    /// per-server factor, else a daemon seed, else 1.0.
    pub fn fragment_factor(&self, server: &ServerId, signature: &str) -> f64 {
        {
            let frag = self.per_fragment.lock();
            if let Some(w) = frag.get(server).and_then(|of| of.get(signature)) {
                if w.len() >= self.min_fragment_obs {
                    if let Some(f) = w.factor() {
                        return f;
                    }
                }
            }
        }
        {
            let servers = self.per_server.lock();
            if let Some(f) = servers.get(server).and_then(RatioWindow::factor) {
                return f;
            }
        }
        self.seeds.lock().get(server).copied().unwrap_or(1.0)
    }

    /// The per-server factor alone (1.0 when unknown).
    pub fn server_factor(&self, server: &ServerId) -> f64 {
        self.per_server
            .lock()
            .get(server)
            .and_then(RatioWindow::factor)
            .or_else(|| self.seeds.lock().get(server).copied())
            .unwrap_or(1.0)
    }

    /// Record an end-to-end observation for the integrator workload factor.
    pub fn record_ii(&self, estimated_total: f64, observed_ms: f64) {
        if estimated_total <= 0.0 || !observed_ms.is_finite() {
            return;
        }
        self.ii.lock().push(observed_ms, estimated_total);
    }

    /// The integrator workload calibration factor (1.0 when unknown).
    pub fn ii_factor(&self) -> f64 {
        self.ii.lock().factor().unwrap_or(1.0)
    }

    /// Every server with calibration state (window or seed) and its
    /// current per-server factor. Oracle accessor: the sim harness checks
    /// all factors are finite, positive, and within the clamp bounds.
    pub fn server_factors(&self) -> BTreeMap<ServerId, f64> {
        let mut out = BTreeMap::new();
        for id in self.per_server.lock().keys() {
            out.insert(id.clone(), 0.0);
        }
        for id in self.seeds.lock().keys() {
            out.entry(id.clone()).or_insert(0.0);
        }
        for (id, f) in out.iter_mut() {
            *f = self.server_factor(id);
        }
        out
    }

    /// Variability of a server's observed costs (coefficient of variation),
    /// if known. High variability → shorter calibration cycles (§3.4).
    pub fn server_cov(&self, server: &ServerId) -> Option<f64> {
        self.per_server
            .lock()
            .get(server)
            .and_then(RatioWindow::observed_cov)
    }

    /// Drop all state for a server (e.g. after a long outage, history is
    /// stale).
    pub fn reset_server(&self, server: &ServerId) {
        self.per_server.lock().remove(server);
        self.per_fragment.lock().remove(server);
        self.seeds.lock().remove(server);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> CalibrationTable {
        CalibrationTable::new(&QccConfig::default())
    }

    fn table_min3() -> CalibrationTable {
        CalibrationTable::new(&QccConfig {
            min_fragment_observations: 3,
            ..QccConfig::default()
        })
    }

    #[test]
    fn paper_worked_example_section_3_1() {
        // Figure 4: estimated 5, observed 8 at S1 → factor 1.6;
        // estimated 5, observed 7 at S2 → factor 1.4.
        let t = table();
        t.record_fragment(&ServerId::new("S1"), "qf1_p1", 5.0, 8.0);
        t.record_fragment(&ServerId::new("S2"), "qf2_p2", 5.0, 7.0);
        assert!((t.server_factor(&ServerId::new("S1")) - 1.6).abs() < 1e-12);
        assert!((t.server_factor(&ServerId::new("S2")) - 1.4).abs() < 1e-12);
        // Figure 5: a new fragment QF3 with estimate 8 at S2 calibrates to
        // 8 × 1.4 = 11.2.
        let factor = t.fragment_factor(&ServerId::new("S2"), "qf3_p1");
        assert!((8.0 * factor - 11.2).abs() < 1e-9);
    }

    #[test]
    fn factor_is_ratio_of_averages() {
        // avg(obs)/avg(est), not avg(obs/est): [(10,1),(10,100)] →
        // avg obs 10, avg est 50.5 → ≈ 0.198, not (10 + 0.1)/2.
        let t = table();
        let s = ServerId::new("S1");
        t.record_fragment(&s, "x", 1.0, 10.0);
        t.record_fragment(&s, "x", 100.0, 10.0);
        assert!((t.server_factor(&s) - 10.0 / 50.5).abs() < 1e-9);
    }

    #[test]
    fn per_fragment_factor_needs_min_observations() {
        let t = table_min3();
        let s = ServerId::new("S1");
        // Server-level history says 2.0; the specific fragment says 4.0
        // but only has 1 observation (< min 3) → server factor used.
        t.record_fragment(&s, "other", 10.0, 20.0);
        t.record_fragment(&s, "other", 10.0, 20.0);
        t.record_fragment(&s, "mine", 10.0, 40.0);
        let f = t.fragment_factor(&s, "mine");
        // Server window: [(20,10),(20,10),(40,10)] → 80/30 ≈ 2.67.
        assert!((f - 80.0 / 30.0).abs() < 1e-9);
        // Two more observations of 'mine' push it over the threshold.
        t.record_fragment(&s, "mine", 10.0, 40.0);
        t.record_fragment(&s, "mine", 10.0, 40.0);
        assert!((t.fragment_factor(&s, "mine") - 4.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_server_is_identity() {
        let t = table();
        assert_eq!(t.fragment_factor(&ServerId::new("S9"), "sig"), 1.0);
    }

    #[test]
    fn seed_used_until_observations_arrive() {
        let t = table();
        let s = ServerId::new("S1");
        t.seed_server(&s, 2.5);
        assert_eq!(t.fragment_factor(&s, "sig"), 2.5);
        t.record_fragment(&s, "sig", 10.0, 10.0);
        assert_eq!(t.fragment_factor(&s, "sig"), 1.0, "real data beats seed");
    }

    #[test]
    fn window_tracks_load_shift() {
        let t = table();
        let s = ServerId::new("S1");
        for _ in 0..8 {
            t.record_fragment(&s, "sig", 10.0, 10.0);
        }
        assert!((t.server_factor(&s) - 1.0).abs() < 1e-9);
        // Server gets loaded: observed jumps 5×. Within one window the
        // factor converges to 5.
        for _ in 0..8 {
            t.record_fragment(&s, "sig", 10.0, 50.0);
        }
        assert!((t.server_factor(&s) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ii_factor_is_one_ratio_of_averages() {
        let t = table();
        assert_eq!(t.ii_factor(), 1.0);
        t.record_ii(100.0, 150.0);
        t.record_ii(100.0, 90.0);
        t.record_ii(0.0, 90.0);
        assert!((t.ii_factor() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn cov_signals_variability() {
        let t = table();
        let s = ServerId::new("S1");
        t.record_fragment(&s, "sig", 10.0, 10.0);
        t.record_fragment(&s, "sig", 10.0, 10.0);
        assert_eq!(t.server_cov(&s), Some(0.0));
        t.record_fragment(&s, "sig", 10.0, 100.0);
        assert!(t.server_cov(&s).unwrap() > 0.5);
    }

    #[test]
    fn reset_clears_history() {
        let t = table();
        let s = ServerId::new("S1");
        t.record_fragment(&s, "sig", 10.0, 30.0);
        t.seed_server(&s, 9.0);
        t.reset_server(&s);
        assert_eq!(t.fragment_factor(&s, "sig"), 1.0);
    }

    #[test]
    fn invalid_inputs_ignored() {
        let t = table();
        let s = ServerId::new("S1");
        t.record_fragment(&s, "sig", 0.0, 10.0);
        t.record_fragment(&s, "sig", -5.0, 10.0);
        t.record_fragment(&s, "sig", 10.0, f64::INFINITY);
        assert_eq!(t.server_factor(&s), 1.0);
    }

    #[test]
    fn degenerate_estimate_overflow_clamps_to_max() {
        // est > 0 passes the record guard, but a denormal mean estimate
        // under a huge observed mean overflows the raw ratio to infinity.
        let t = table();
        let s = ServerId::new("S1");
        t.record_fragment(&s, "sig", 1e-300, 1e300);
        let f = t.server_factor(&s);
        assert!(f.is_finite(), "factor must never be inf/NaN, got {f}");
        assert_eq!(f, MAX_FACTOR);
        assert_eq!(t.fragment_factor(&s, "other"), MAX_FACTOR);
    }

    #[test]
    fn tiny_ratio_clamps_to_min() {
        let t = table();
        let s = ServerId::new("S1");
        t.record_fragment(&s, "sig", 1e9, 1e-9);
        assert_eq!(t.server_factor(&s), MIN_FACTOR);
    }

    #[test]
    fn empty_history_is_identity_not_nan() {
        let t = table();
        let s = ServerId::new("S1");
        assert_eq!(t.server_factor(&s), 1.0);
        assert_eq!(t.fragment_factor(&s, "sig"), 1.0);
        assert!(t.server_factors().is_empty());
    }

    #[test]
    fn non_finite_seeds_rejected_and_extremes_clamped() {
        let t = table();
        let s = ServerId::new("S1");
        t.seed_server(&s, f64::INFINITY);
        t.seed_server(&s, f64::NAN);
        assert_eq!(t.server_factor(&s), 1.0, "non-finite seeds dropped");
        t.seed_server(&s, 1e12);
        assert_eq!(t.server_factor(&s), MAX_FACTOR);
        t.seed_server(&s, 0.0);
        assert_eq!(t.server_factor(&s), MIN_FACTOR);
    }

    #[test]
    fn server_factors_covers_windows_and_seeds() {
        let t = table();
        let a = ServerId::new("S1");
        let b = ServerId::new("S2");
        t.record_fragment(&a, "sig", 10.0, 20.0);
        t.seed_server(&b, 3.0);
        let m = t.server_factors();
        assert_eq!(m.len(), 2);
        assert!((m[&a] - 2.0).abs() < 1e-12);
        assert!((m[&b] - 3.0).abs() < 1e-12);
        assert!(m.values().all(|f| f.is_finite() && *f > 0.0));
    }
}
