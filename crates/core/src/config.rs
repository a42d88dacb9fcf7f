//! QCC configuration.

/// Where load distribution operates (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBalanceMode {
    /// No rotation: always the cheapest calibrated plan (§3 behaviour).
    Disabled,
    /// Rotate only among plans that execute the *identical* fragment plan
    /// on different servers (§4.1).
    FragmentLevel,
    /// Rotate among near-equal global plans on different server sets,
    /// after dominance elimination (§4.2).
    GlobalLevel,
}

/// Tuning knobs for the calibrator.
#[derive(Debug, Clone)]
pub struct QccConfig {
    /// Sliding-window length for calibration ratio histories.
    pub calibration_window: usize,
    /// Observations required before a per-(server, fragment-signature)
    /// factor overrides the per-server factor. The paper's worked example
    /// (Figure 5) calibrates from a single observation, so the default is
    /// 1; raise it to smooth noisy environments.
    pub min_fragment_observations: usize,
    /// Cost band for plan clustering: plans within this relative distance
    /// of the cheapest are interchangeable (the paper uses 20 %).
    pub cost_band: f64,
    /// Load distribution mode.
    pub load_balance: LoadBalanceMode,
    /// Base interval between availability-daemon probes (virtual ms).
    pub probe_interval_ms: f64,
    /// Bounds for the adaptive probe interval (§3.4).
    pub probe_interval_bounds_ms: (f64, f64),
    /// Expected ping latency of a healthy unloaded server; the daemon
    /// seeds calibration factors from the ratio of measured to expected.
    pub expected_ping_ms: f64,
    /// Per-slot re-dispatch budget: how many times the federation
    /// re-dispatches one failed fragment slot before the query fails.
    /// Plumbed into `FederationConfig::retry_limit` by the scenario
    /// builders; under admission control the execution deadline can
    /// forfeit the remaining budget early.
    pub retry_limit: usize,
}

impl Default for QccConfig {
    fn default() -> Self {
        QccConfig {
            calibration_window: 8,
            min_fragment_observations: 1,
            cost_band: 0.2,
            load_balance: LoadBalanceMode::Disabled,
            probe_interval_ms: 1_000.0,
            probe_interval_bounds_ms: (100.0, 10_000.0),
            expected_ping_ms: 1.0,
            retry_limit: 2,
        }
    }
}

impl QccConfig {
    /// Config with load distribution enabled at the given level.
    pub fn with_load_balance(mode: LoadBalanceMode) -> Self {
        QccConfig {
            load_balance: mode,
            ..QccConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = QccConfig::default();
        assert_eq!(c.cost_band, 0.2, "the paper's 20% band");
        assert_eq!(c.load_balance, LoadBalanceMode::Disabled);
    }
}
