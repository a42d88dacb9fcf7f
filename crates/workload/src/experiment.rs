//! The experiment driver: runs the §5.3 workload phase by phase and
//! collects the measurements behind Table 2 and Figures 9–11.

use crate::phases::{apply_phase, Phase, PhaseSchedule};
use crate::querytypes::{QueryType, ALL_QUERY_TYPES};
use crate::scenario::{Routing, Scenario, ScenarioConfig};
use qcc_core::AvailabilityDaemon;
use std::collections::{BTreeMap, BTreeSet};

/// Aggregated measurements for one phase.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// 1-based phase number.
    pub number: usize,
    /// Mean response time per query type (ms), indexed by
    /// [`QueryType::index`].
    pub per_type_ms: [f64; 4],
    /// The server that served the majority of each type's queries.
    pub per_type_server: [String; 4],
    /// Mean response time over the whole phase workload (ms).
    pub avg_ms: f64,
    /// qcc-obs metrics snapshot taken at the end of the phase (cumulative
    /// across phases; `None` when the scenario was built with obs off).
    pub metrics: Option<String>,
}

/// A full experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The routing mode that produced it.
    pub routing: Routing,
    /// Per-phase aggregates, in schedule order.
    pub phases: Vec<PhaseResult>,
}

impl ExperimentResult {
    /// Per-phase response-time gain of `self` over a baseline:
    /// `1 − avg(self) / avg(baseline)`, in `[−∞, 1)`; positive means
    /// `self` is faster.
    pub fn gain_over(&self, baseline: &ExperimentResult) -> Vec<f64> {
        self.phases
            .iter()
            .zip(&baseline.phases)
            .map(|(a, b)| 1.0 - a.avg_ms / b.avg_ms)
            .collect()
    }

    /// Mean gain across phases.
    pub fn mean_gain_over(&self, baseline: &ExperimentResult) -> f64 {
        let gains = self.gain_over(baseline);
        gains.iter().sum::<f64>() / gains.len().max(1) as f64
    }
}

/// Run the paper's workload (each phase: `instances_per_type` instances of
/// each of the four types, uniformly interleaved) under a routing mode.
///
/// For QCC-driven modes, each phase boundary triggers a re-calibration
/// cycle (§3.4): calibration state resets, the availability daemon probes
/// all sources to seed fresh factors, and `warmup_rounds` unmeasured
/// rounds let the calibrator observe the new regime — mirroring the
/// paper's procedure of measuring after cost observation (§5.1 steps 3–6).
pub fn run_phases(
    routing: Routing,
    config: &ScenarioConfig,
    schedule: &PhaseSchedule,
    instances_per_type: u32,
    warmup_rounds: u32,
) -> ExperimentResult {
    let scenario = Scenario::build_with(routing, config.clone());
    run_phases_on(
        &scenario,
        routing,
        schedule,
        instances_per_type,
        warmup_rounds,
    )
}

/// Like [`run_phases`], over an already-built scenario (ablations build
/// scenarios with custom QCC configurations first).
pub fn run_phases_on(
    scenario: &Scenario,
    routing: Routing,
    schedule: &PhaseSchedule,
    instances_per_type: u32,
    warmup_rounds: u32,
) -> ExperimentResult {
    let daemon = scenario.qcc.as_ref().map(|qcc| {
        AvailabilityDaemon::new(
            std::sync::Arc::clone(qcc),
            scenario.wrappers.clone(),
            scenario.clock.clone(),
        )
    });

    let mut phases = Vec::with_capacity(schedule.phases.len());
    for phase in &schedule.phases {
        phases.push(run_one_phase(
            scenario,
            daemon.as_ref(),
            phase,
            instances_per_type,
            warmup_rounds,
        ));
    }
    ExperimentResult { routing, phases }
}

fn run_one_phase(
    scenario: &Scenario,
    daemon: Option<&AvailabilityDaemon>,
    phase: &Phase,
    instances_per_type: u32,
    warmup_rounds: u32,
) -> PhaseResult {
    apply_phase(scenario, phase);

    if let Some(qcc) = &scenario.qcc {
        // Phase boundary = re-calibration cycle: stale history from the
        // previous load regime is dropped and probes seed fresh factors.
        for server in &scenario.servers {
            qcc.calibration.reset_server(server.id());
        }
        qcc.load_balancer.reset_period();
        if let Some(d) = daemon {
            d.probe_all();
        }
        // Paper §5.1 steps 3–4: "Query fragments ... are forwarded to the
        // *available servers* and the corresponding server response times
        // are observed." Each warm-up round observes every fragment at
        // every candidate server, so the calibration factors cover the
        // whole routing space before measurement begins.
        for round in 0..warmup_rounds {
            // Keep the availability daemon's adaptive cycle alive during
            // warm-up: due probes run at the top of every round, so an
            // outage struck mid-phase is noticed within a probe interval.
            if let Some(d) = daemon {
                d.run_due_probes();
            }
            for qt in ALL_QUERY_TYPES {
                let sql = qt.sql(round);
                let Ok((_, candidates)) = scenario.federation.explain_global(&sql) else {
                    continue;
                };
                // One probe per distinct (server, plan shape).
                let mut observed: BTreeSet<String> = BTreeSet::new();
                let mut probes = Vec::new();
                for cand in &candidates {
                    for fc in &cand.fragments {
                        let key = format!("{}#{}", fc.plan.server, fc.plan.signature);
                        if !observed.insert(key) {
                            continue;
                        }
                        if let Ok(wrapper) = scenario.federation.wrapper(&fc.plan.server) {
                            let wrapper = std::sync::Arc::clone(wrapper);
                            probes.push((fc, wrapper));
                        }
                    }
                }
                // Scatter the probes at one snapshot (they are pure given
                // the timestamp), gather in probe order, record the
                // observations sequentially, and advance the clock once —
                // by the slowest probe.
                let at = scenario.clock.now();
                let threads = scenario.federation.config().threads;
                let results = qcc_common::scatter_indexed(probes.len(), threads, |i| {
                    let (fc, wrapper) = &probes[i];
                    wrapper.execute(&fc.plan, at).ok()
                });
                let mut slowest = qcc_common::SimDuration::ZERO;
                for ((fc, _), result) in probes.iter().zip(results) {
                    let Some(result) = result else { continue };
                    slowest = slowest.max(result.response_time);
                    if let Some(est) = fc.plan.cost {
                        qcc.calibration.record_fragment(
                            &fc.plan.server,
                            &fc.plan.signature,
                            est.total(),
                            result.response_time.as_millis(),
                        );
                    }
                }
                scenario.clock.advance(slowest);
            }
        }
    }

    // Warm the compile-time plan caches for every measured statement, in
    // every mode: plan caching is shared integrator infrastructure, so
    // measured response times compare *routing*, not cold compiles.
    for i in 0..instances_per_type {
        for qt in ALL_QUERY_TYPES {
            let _ = scenario.federation.explain_global(&qt.sql(i));
        }
    }

    let mut sums = [0.0f64; 4];
    let mut counts = [0u32; 4];
    let mut server_votes: [BTreeMap<String, u32>; 4] = Default::default();
    for i in 0..instances_per_type {
        // The daemon also stays live between measured batches — this is
        // where an outage detected by a failed execute gets re-probed (and
        // recovery observed) within the fast probe-interval bound.
        if let Some(d) = daemon {
            d.run_due_probes();
        }
        // One batch per instance round: the four query types arrive
        // together (the paper's concurrent clients), routed against the
        // same frozen adaptive state and executed in parallel workers.
        let sqls: Vec<String> = ALL_QUERY_TYPES.iter().map(|qt| qt.sql(i)).collect();
        let outcomes = scenario.federation.submit_batch(&sqls);
        for (qt, outcome) in ALL_QUERY_TYPES.iter().zip(outcomes) {
            let out = outcome.expect("experiment workload queries succeed");
            let idx = qt.index();
            sums[idx] += out.response_ms;
            counts[idx] += 1;
            if let Some(server) = out.servers.iter().next() {
                *server_votes[idx].entry(server.to_string()).or_insert(0) += 1;
            }
        }
    }

    let per_type_ms = std::array::from_fn(|i| {
        if counts[i] > 0 {
            sums[i] / counts[i] as f64
        } else {
            0.0
        }
    });
    let per_type_server = std::array::from_fn(|i| {
        server_votes[i]
            .iter()
            .max_by_key(|(_, &n)| n)
            .map(|(s, _)| s.clone())
            .unwrap_or_default()
    });
    let total: f64 = sums.iter().sum();
    let n: u32 = counts.iter().sum();
    let metrics = if scenario.obs.is_enabled() {
        if let Some(qcc) = &scenario.qcc {
            scenario
                .obs
                .gauge_set("plan_cache_entries", &[], qcc.plan_cache.len() as f64);
        }
        Some(scenario.obs.metrics_snapshot())
    } else {
        None
    };
    PhaseResult {
        number: phase.number,
        per_type_ms,
        per_type_server,
        avg_ms: if n > 0 { total / n as f64 } else { 0.0 },
        metrics,
    }
}

/// One measurement of the Figure 9 sensitivity sweep.
#[derive(Debug, Clone)]
pub struct SensitivityPoint {
    /// Query type.
    pub qt: QueryType,
    /// Server measured.
    pub server: String,
    /// Whether the server ran its update workload.
    pub loaded: bool,
    /// Instance index.
    pub instance: u32,
    /// Observed response time (ms) through the wrapper.
    pub response_ms: f64,
}

/// Figure 9: for every query type, measure each server's response time
/// for several instances, under low and high load.
pub fn sensitivity_sweep(config: &ScenarioConfig, instances: u32) -> Vec<SensitivityPoint> {
    use crate::phases::clear_phase;
    use crate::scenario::contention_for;
    use qcc_netsim::LoadProfile;

    let scenario = Scenario::build_with(Routing::Baseline, config.clone());
    let mut points = Vec::new();
    for server in &scenario.servers {
        let wrapper = scenario
            .federation
            .wrapper(server.id())
            .expect("wrapper registered")
            .clone();
        for loaded in [false, true] {
            clear_phase(&scenario);
            if loaded {
                server
                    .load()
                    .set_background(LoadProfile::Constant(crate::phases::HIGH_LOAD));
                server.set_contention(contention_for(server.id()));
            }
            for qt in ALL_QUERY_TYPES {
                for i in 0..instances {
                    let at = scenario.clock.now();
                    let (plans, took) = wrapper.plan(&qt.sql(i), at).expect("healthy server plans");
                    scenario.clock.advance(took);
                    let best = plans.first().expect("at least one plan");
                    let result = wrapper
                        .execute(best, scenario.clock.now())
                        .expect("healthy server executes");
                    scenario.clock.advance(result.response_time);
                    points.push(SensitivityPoint {
                        qt,
                        server: server.id().to_string(),
                        loaded,
                        instance: i,
                        response_ms: result.response_time.as_millis(),
                    });
                }
            }
        }
    }
    clear_phase(&scenario);
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScenarioConfig {
        ScenarioConfig::tiny()
    }

    #[test]
    fn sensitivity_sweep_shows_load_effect() {
        let points = sensitivity_sweep(&tiny(), 2);
        // 3 servers × 2 load states × 4 types × 2 instances.
        assert_eq!(points.len(), 48);
        // For every (server, type): loaded ≥ unloaded.
        for qt in ALL_QUERY_TYPES {
            for server in ["S1", "S2", "S3"] {
                let avg = |loaded: bool| {
                    let xs: Vec<f64> = points
                        .iter()
                        .filter(|p| p.qt == qt && p.server == server && p.loaded == loaded)
                        .map(|p| p.response_ms)
                        .collect();
                    xs.iter().sum::<f64>() / xs.len() as f64
                };
                assert!(
                    avg(true) >= avg(false),
                    "{qt}@{server}: load must not speed things up"
                );
            }
        }
    }

    #[test]
    fn qt2_s3_is_most_load_sensitive() {
        let points = sensitivity_sweep(&tiny(), 2);
        let ratio = |server: &str, qt: QueryType| {
            let avg = |loaded: bool| {
                let xs: Vec<f64> = points
                    .iter()
                    .filter(|p| p.qt == qt && p.server == server && p.loaded == loaded)
                    .map(|p| p.response_ms)
                    .collect();
                xs.iter().sum::<f64>() / xs.len() as f64
            };
            avg(true) / avg(false)
        };
        // §5.2: "for one of the costlier query types (QT2), S3 is much
        // more sensitive to load than the others".
        assert!(ratio("S3", QueryType::QT2) > ratio("S1", QueryType::QT2));
        assert!(ratio("S3", QueryType::QT2) > ratio("S2", QueryType::QT2));
        // While for QT1, S3 is barely load sensitive.
        assert!(ratio("S3", QueryType::QT1) < ratio("S1", QueryType::QT1));
    }

    #[test]
    fn short_experiment_runs_all_routings() {
        let schedule = PhaseSchedule {
            phases: PhaseSchedule::paper_table1().phases[..2].to_vec(),
        };
        for routing in [Routing::Fixed1, Routing::Fixed2, Routing::Qcc] {
            let r = run_phases(routing, &tiny(), &schedule, 2, 1);
            assert_eq!(r.phases.len(), 2);
            for p in &r.phases {
                assert!(p.avg_ms > 0.0);
            }
        }
    }

    #[test]
    fn qcc_beats_fixed1_when_s3_available() {
        // Phase 1 (no load): QCC should route to the fast server and beat
        // the registration-time assignment.
        let schedule = PhaseSchedule {
            phases: PhaseSchedule::paper_table1().phases[..1].to_vec(),
        };
        let fixed = run_phases(Routing::Fixed1, &tiny(), &schedule, 3, 1);
        let qcc = run_phases(Routing::Qcc, &tiny(), &schedule, 3, 1);
        assert!(
            qcc.phases[0].avg_ms < fixed.phases[0].avg_ms,
            "qcc {} vs fixed {}",
            qcc.phases[0].avg_ms,
            fixed.phases[0].avg_ms
        );
        let gain = qcc.gain_over(&fixed)[0];
        assert!(gain > 0.1, "gain {gain}");
    }

    #[test]
    fn qcc_avoids_loaded_s3_for_qt2() {
        // Phase 2: S3 loaded. QCC should route QT2 away from S3.
        let schedule = PhaseSchedule {
            phases: vec![PhaseSchedule::paper_table1().phases[1].clone()],
        };
        let qcc = run_phases(Routing::Qcc, &tiny(), &schedule, 3, 2);
        let server = &qcc.phases[0].per_type_server[QueryType::QT2.index()];
        assert_ne!(server, "S3", "QT2 re-routed away from loaded S3");
        // QT1 stays on S3 even though S3 is loaded.
        assert_eq!(qcc.phases[0].per_type_server[QueryType::QT1.index()], "S3");
    }
}
