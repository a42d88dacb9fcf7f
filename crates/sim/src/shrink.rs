//! Greedy scenario shrinking (delta debugging).
//!
//! Given a failing config, repeatedly try structure-preserving
//! reductions — drop one fault, halve the workload, halve the data,
//! drop the last server — keeping each reduction only if the shrunk
//! config *still fails*. Runs to a fixpoint under a run budget. The
//! result is the minimal failing case whose replay line goes into the
//! report and the regression corpus.

use crate::config::SimConfig;
use crate::driver::BugSwitches;

/// Outcome of a shrink pass.
pub struct Shrunk {
    /// The minimized failing config.
    pub config: SimConfig,
    /// How many candidate configs were evaluated.
    pub evaluated: usize,
}

/// Shrink `config` (which must already fail) to a smaller config that
/// still fails, evaluating at most `budget` candidates.
pub fn shrink(config: &SimConfig, bug: &BugSwitches, budget: usize) -> Shrunk {
    let mut current = config.clone();
    let mut evaluated = 0usize;
    let fails = |c: &SimConfig, evaluated: &mut usize| -> bool {
        *evaluated += 1;
        !crate::check_config(c, bug).violations.is_empty()
    };
    loop {
        let mut reduced = false;

        // Drop faults one at a time (first-to-last; restart the scan
        // after any success so indices stay valid).
        let mut i = 0;
        while i < current.faults.len() && evaluated < budget {
            let mut candidate = current.clone();
            candidate.faults.remove(i);
            if fails(&candidate, &mut evaluated) {
                current = candidate;
                reduced = true;
            } else {
                i += 1;
            }
        }

        // Drop the slow-cancel multiplier: if the failure reproduces with
        // `reroute` absent, slow-cancel is not implicated and the replay
        // line shrinks to the default configuration.
        if current.reroute > 0.0 && evaluated < budget {
            let mut candidate = current.clone();
            candidate.reroute = 0.0;
            if fails(&candidate, &mut evaluated) {
                current = candidate;
                reduced = true;
            }
        }

        // Halve the workload.
        if current.arrivals > 4 && evaluated < budget {
            let mut candidate = current.clone();
            candidate.arrivals = (candidate.arrivals / 2).max(4);
            if fails(&candidate, &mut evaluated) {
                current = candidate;
                reduced = true;
            }
        }

        // Halve the data.
        if current.large_rows > 50 && evaluated < budget {
            let mut candidate = current.clone();
            candidate.large_rows = (candidate.large_rows / 2).max(50);
            candidate.small_rows = (candidate.small_rows / 2).max(10);
            if fails(&candidate, &mut evaluated) {
                current = candidate;
                reduced = true;
            }
        }

        // Halve the generated fleet (fleet mode only), but only when
        // every fault index survives in the smaller fleet.
        if current.fleet > 16 && evaluated < budget {
            let half = current.fleet / 2;
            if current.faults.iter().all(|f| f.server() < half) {
                let mut candidate = current.clone();
                candidate.fleet = half;
                if fails(&candidate, &mut evaluated) {
                    current = candidate;
                    reduced = true;
                }
            }
        }

        // Drop the last server, but only when no fault references it
        // (removing a referenced server would change fault semantics,
        // not just scale).
        let last = current.servers.len().saturating_sub(1);
        if current.servers.len() > 2
            && current.faults.iter().all(|f| f.server() < last)
            && evaluated < budget
        {
            let mut candidate = current.clone();
            candidate.servers.pop();
            if fails(&candidate, &mut evaluated) {
                current = candidate;
                reduced = true;
            }
        }

        if !reduced || evaluated >= budget {
            return Shrunk {
                config: current,
                evaluated,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::parse;

    #[test]
    fn shrink_minimizes_an_injected_conservation_failure() {
        // The injected drop_completion bug fails for any config that
        // completes ≥ 3 queries, so shrinking must strip the faults and
        // halve the dimensions down to their floors.
        let config = parse(
            "sim(seed: 9, servers: [(1.0, 0.2), (1.5, 0.1), (2.0, 0.05)], large_rows: 200, \
             small_rows: 40, arrivals: 16, rate_per_ms: 0.1, retry_limit: 2, \
             faults: [surge(0, 10.0, 50.0, 0.8), spike(1, 20.0, 60.0, 0.5)])",
        )
        .expect("valid test config");
        let bug = BugSwitches {
            drop_completion: true,
        };
        assert!(
            !crate::check_config(&config, &bug).violations.is_empty(),
            "precondition: the injected bug must fail"
        );
        let shrunk = shrink(&config, &bug, 60);
        assert!(
            !crate::check_config(&shrunk.config, &bug)
                .violations
                .is_empty(),
            "shrunk config must still fail"
        );
        assert!(
            shrunk.config.faults.is_empty(),
            "faults are not needed to fail"
        );
        assert!(shrunk.config.arrivals <= 4);
        assert!(shrunk.config.servers.len() == 2);
        // The replay line round-trips.
        let line = shrunk.config.render();
        assert_eq!(crate::config::parse(&line).unwrap(), shrunk.config);
    }

    #[test]
    fn shrink_disables_reroute_when_not_implicated() {
        // drop_completion fails regardless of slow-cancel, so the shrinker
        // must drop the reroute key (the shrunk replay line then runs the
        // default configuration).
        let config = parse(
            "sim(seed: 3, servers: [], large_rows: 60, small_rows: 12, arrivals: 8, \
             rate_per_ms: 0.1, retry_limit: 2, fleet: 24, replication: 3, reroute: 3.0, \
             faults: [])",
        )
        .expect("valid reroute config");
        let bug = BugSwitches {
            drop_completion: true,
        };
        assert!(
            !crate::check_config(&config, &bug).violations.is_empty(),
            "precondition: the injected bug must fail"
        );
        let shrunk = shrink(&config, &bug, 20);
        assert!(
            !crate::check_config(&shrunk.config, &bug)
                .violations
                .is_empty(),
            "shrunk config must still fail"
        );
        assert_eq!(shrunk.config.reroute, 0.0, "reroute knob was not shed");
        let line = shrunk.config.render();
        assert_eq!(crate::config::parse(&line).unwrap(), shrunk.config);
    }

    #[test]
    fn shrink_halves_a_failing_fleet() {
        let config = parse(
            "sim(seed: 3, servers: [], large_rows: 60, small_rows: 12, arrivals: 8, \
             rate_per_ms: 0.1, retry_limit: 2, fleet: 24, replication: 3, faults: [])",
        )
        .expect("valid fleet config");
        let bug = BugSwitches {
            drop_completion: true,
        };
        assert!(
            !crate::check_config(&config, &bug).violations.is_empty(),
            "precondition: the injected bug must fail"
        );
        let shrunk = shrink(&config, &bug, 12);
        assert!(
            !crate::check_config(&shrunk.config, &bug)
                .violations
                .is_empty(),
            "shrunk config must still fail"
        );
        assert!(
            shrunk.config.fleet < 24,
            "fleet was not reduced: {}",
            shrunk.config.fleet
        );
        let line = shrunk.config.render();
        assert_eq!(crate::config::parse(&line).unwrap(), shrunk.config);
    }
}
