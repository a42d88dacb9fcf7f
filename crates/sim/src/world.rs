//! Build the simulated world for a [`SimConfig`]: a QCC-routed scenario
//! with the fault schedule injected through the existing `netsim` layers
//! (availability windows, flaky-fault schedules, background-load and
//! link-congestion profiles), plus the precomputed open-loop arrivals.

use crate::config::{FaultSpec, SimConfig};
use qcc_common::SimTime;
use qcc_core::QccConfig;
use qcc_netsim::LoadProfile;
use qcc_workload::openloop::{poisson_arrivals, ArrivalEvent};
use qcc_workload::scenario::{scale_server_specs, Scenario, ScenarioConfig};
use std::collections::BTreeMap;

/// Salt separating the arrival-process RNG stream from the data seed.
const ARRIVAL_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Salt separating the generated fleet's server-spec stream from the
/// data seed (fleet mode only).
const FLEET_SALT: u64 = 0xf1ee_7000_5eed_0001;

/// The assembled world, ready for the driver.
pub struct SimWorld {
    /// The QCC-routed scenario with faults injected.
    pub scenario: Scenario,
    /// The precomputed open-loop arrival sequence.
    pub arrivals: Vec<ArrivalEvent>,
}

/// The probe expectation handed to `QccConfig::expected_ping_ms`. The
/// sim's servers answer a healthy ping in `0.2/speed` virtual ms
/// (0.08–0.25 for generated speeds), so the default of 1.0 would floor
/// every baseline above the real ping and flatten calibration seeds; a
/// low floor keeps the seed a genuine load signal.
pub const EXPECTED_PING_MS: f64 = 0.05;

/// Build the scenario for `config` with `threads` scatter workers and
/// inject every fault.
pub fn build(config: &SimConfig, threads: usize) -> SimWorld {
    // Fleet mode derives the per-server specs from the seed instead of
    // the explicit servers list, and attaches the replica catalog with
    // the configured source-selection bound.
    let (server_specs, replication_factor) = if config.fleet > 0 {
        (
            scale_server_specs(config.fleet, config.seed ^ FLEET_SALT),
            config.replication,
        )
    } else {
        (config.servers.clone(), 0)
    };
    let scenario_config = ScenarioConfig {
        large_rows: config.large_rows,
        small_rows: config.small_rows,
        seed: config.seed,
        link_rtt_ms: 0.2,
        link_bandwidth: 500_000.0,
        threads,
        obs_enabled: true,
        server_specs,
        replication_factor,
        stall_factor: config.reroute,
    };
    let qcc_config = QccConfig {
        retry_limit: config.retry_limit,
        expected_ping_ms: EXPECTED_PING_MS,
        ..QccConfig::default()
    };
    let scenario = Scenario::build_with_qcc(qcc_config, scenario_config);

    // Level windows accumulated per server, then merged into one Steps
    // profile each (overlaps take the max level, like real co-located
    // load would).
    let mut load_windows: BTreeMap<usize, Vec<(f64, f64, f64)>> = BTreeMap::new();
    let mut link_windows: BTreeMap<usize, Vec<(f64, f64, f64)>> = BTreeMap::new();
    for fault in &config.faults {
        match *fault {
            FaultSpec::Crash {
                server,
                from_ms,
                until_ms,
            } => {
                scenario.servers[server].availability().add_outage(
                    SimTime::from_millis(from_ms),
                    SimTime::from_millis(until_ms),
                );
            }
            FaultSpec::Flaky {
                server,
                from_ms,
                until_ms,
                rate,
            } => {
                scenario.servers[server].faults().add_window(
                    SimTime::from_millis(from_ms),
                    SimTime::from_millis(until_ms),
                    rate,
                );
            }
            FaultSpec::Surge {
                server,
                from_ms,
                until_ms,
                level,
            } => {
                load_windows
                    .entry(server)
                    .or_default()
                    .push((from_ms, until_ms, level));
            }
            FaultSpec::Spike {
                server,
                from_ms,
                until_ms,
                level,
            } => {
                link_windows
                    .entry(server)
                    .or_default()
                    .push((from_ms, until_ms, level));
            }
            FaultSpec::Ramp {
                server,
                from_ms,
                until_ms,
                level,
            } => {
                // Staircase approximation of a linear climb: four equal
                // sub-windows at 25/50/75/100% of the peak.
                let steps = 4;
                let width = (until_ms - from_ms) / steps as f64;
                let windows = link_windows.entry(server).or_default();
                for k in 0..steps {
                    windows.push((
                        from_ms + k as f64 * width,
                        until_ms,
                        level * (k + 1) as f64 / steps as f64,
                    ));
                }
            }
        }
    }
    for (server, windows) in &load_windows {
        scenario.servers[*server]
            .load()
            .set_background(steps_profile(windows));
    }
    for (server, windows) in &link_windows {
        let id = scenario.servers[*server].id().clone();
        if let Ok(link) = scenario.network.link(&id) {
            link.set_congestion(steps_profile(windows));
        }
    }

    let arrivals = poisson_arrivals(
        config.rate_per_ms,
        config.arrivals,
        config.seed ^ ARRIVAL_SALT,
    );
    SimWorld { scenario, arrivals }
}

/// Merge `(from, until, level)` windows into a piecewise-constant
/// [`LoadProfile::Steps`]: at every window edge the level is the max over
/// all windows containing that instant (0 outside).
fn steps_profile(windows: &[(f64, f64, f64)]) -> LoadProfile {
    let mut edges: Vec<f64> = windows.iter().flat_map(|w| [w.0, w.1]).collect();
    edges.sort_by(f64::total_cmp);
    edges.dedup();
    let steps = edges
        .iter()
        .map(|&e| {
            let level = windows
                .iter()
                .filter(|w| w.0 <= e && e < w.1)
                .map(|w| w.2)
                .fold(0.0, f64::max);
            (SimTime::from_millis(e), level)
        })
        .collect();
    LoadProfile::Steps(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::generate;

    #[test]
    fn steps_profile_unions_overlaps_by_max() {
        let p = steps_profile(&[(0.0, 100.0, 0.3), (50.0, 150.0, 0.8)]);
        assert_eq!(p.level(SimTime::from_millis(25.0)), 0.3);
        assert_eq!(p.level(SimTime::from_millis(75.0)), 0.8);
        assert_eq!(p.level(SimTime::from_millis(120.0)), 0.8);
        assert_eq!(p.level(SimTime::from_millis(200.0)), 0.0);
    }

    #[test]
    fn build_applies_crash_and_flaky_schedules() {
        let config = crate::config::parse(
            "sim(seed: 3, servers: [(1.0, 0.2), (2.0, 0.1)], large_rows: 100, small_rows: 20, \
             arrivals: 4, rate_per_ms: 0.1, retry_limit: 2, \
             faults: [crash(0, 50.0, 80.0), flaky(1, 10.0, 30.0, 0.5)])",
        )
        .unwrap();
        let world = build(&config, 1);
        assert!(!world.scenario.servers[0]
            .availability()
            .is_up(SimTime::from_millis(60.0)));
        assert!(world.scenario.servers[0]
            .availability()
            .is_up(SimTime::from_millis(90.0)));
        assert!(world.scenario.servers[1]
            .faults()
            .is_flaky(SimTime::from_millis(20.0)));
        assert_eq!(world.arrivals.len(), 4);
    }

    #[test]
    fn fleet_build_generates_servers_and_attaches_the_catalog() {
        let config = crate::config::parse(
            "sim(seed: 4, servers: [], large_rows: 60, small_rows: 12, arrivals: 3, \
             rate_per_ms: 0.1, retry_limit: 2, fleet: 24, replication: 3, faults: [])",
        )
        .unwrap();
        let world = build(&config, 1);
        assert_eq!(world.scenario.servers.len(), 24);
        let catalog = world.scenario.catalog.as_ref().expect("catalog attached");
        assert_eq!(catalog.bound(), 3);
        // Every server registered its cost hint once, so each fragment
        // has a fleet-sized scoreable candidate set before pruning.
        assert_eq!(world.scenario.obs.events_of("catalog_register").len(), 24);
        // Classic mode stays catalog-free: the pre-catalog path is
        // byte-identical.
        let classic = crate::config::parse(
            "sim(seed: 4, servers: [(1.0, 0.2), (2.0, 0.1)], large_rows: 60, small_rows: 12, \
             arrivals: 3, rate_per_ms: 0.1, retry_limit: 2, faults: [])",
        )
        .unwrap();
        assert!(build(&classic, 1).scenario.catalog.is_none());
    }

    #[test]
    fn generated_configs_build() {
        for seed in [0u64, 1, 2] {
            let config = generate(seed);
            let world = build(&config, 1);
            assert_eq!(world.scenario.servers.len(), config.servers.len());
            assert_eq!(world.arrivals.len(), config.arrivals);
        }
    }
}
