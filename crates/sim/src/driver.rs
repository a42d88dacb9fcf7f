//! Drive one simulated scenario through the full stack — admission
//! queue, QCC routing, federation slot re-dispatch, availability daemon — on
//! virtual time, and collect everything the oracles need.
//!
//! The serving loop is `qcc_workload::run_open_loop_with_daemon`, the one
//! open-loop driver every bench, test and example runs, here with the
//! availability daemon's timer in it (crash detection and recovery both
//! flow through its due probes). What is the sim's own: the baseline
//! probe before the first arrival, a cool-down after the arrivals drain
//! that marches virtual time past the last fault window in probe-interval
//! steps so every downed server is probed back up before the end-of-run
//! oracles look at the world, and the paired unprotected baseline.

use crate::config::SimConfig;
use crate::world::build;
use qcc_admission::{AdmissionConfig, AdmissionController};
use qcc_common::{Event, Obs, ServerId, SimDuration, SimTime};
use qcc_core::{AvailabilityDaemon, Qcc};
use qcc_workload::{
    run_open_loop, run_open_loop_with_daemon, AdmissionMode, OpenLoopReport, Scenario,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Deliberate bugs the harness can inject into its *own* accounting.
/// Used to validate that the oracles actually catch violations (a
/// harness that can't fail is not a test).
#[derive(Debug, Clone, Copy, Default)]
pub struct BugSwitches {
    /// Silently drop every third completed query from the tally — a
    /// conservation violation the conservation oracle must flag.
    pub drop_completion: bool,
}

impl BugSwitches {
    /// No injected bugs (the normal mode).
    pub fn none() -> Self {
        BugSwitches::default()
    }
}

/// Everything a finished run exposes to the oracles.
pub struct RunArtifacts {
    /// Total arrivals offered.
    pub total: usize,
    /// Queries that completed (per the driver's tally).
    pub completed: usize,
    /// Queries shed (queue full, queue deadline, or token shed).
    pub shed: usize,
    /// Queries that failed for non-shed reasons (re-dispatches exhausted,
    /// execution deadline).
    pub failed: usize,
    /// The full event journal, in append order.
    pub journal: Vec<Event>,
    /// The rendered JSONL journal (byte-compared across thread counts).
    pub journal_text: String,
    /// The rendered metrics snapshot (byte-compared across thread counts).
    pub metrics_text: String,
    /// Per-server calibration factors at end of run.
    pub factors: BTreeMap<ServerId, f64>,
    /// Servers still believed down at end of run.
    pub down_at_end: Vec<ServerId>,
    /// Server ids in scenario order (fault specs index into this).
    pub server_ids: Vec<ServerId>,
    /// The retry budget the run was configured with.
    pub retry_limit: usize,
    /// The run's observability handle (counter lookups for oracles).
    pub obs: Obs,
    /// Arrival-relative deadline budget used for goodput accounting
    /// (queue + exec components of the admission config).
    pub deadline_budget_ms: f64,
    /// Completions within the deadline budget, admission on.
    pub admitted_goodput: usize,
    /// p99 arrival→completion response (nearest rank), admission on.
    pub admitted_p99_ms: f64,
    /// Completions within the same budget for the paired unprotected
    /// baseline (same world, same arrivals, fixed-width FIFO pool).
    pub baseline_goodput: usize,
    /// p99 arrival→completion response of the baseline.
    pub baseline_p99_ms: f64,
}

/// Admission shape used for every simulated run: a queue deadline loose
/// enough that a healthy world completes everything, tight enough that
/// storms produce sheds and deadline events worth checking, and the
/// scenario's execution deadline (a tight one makes fragments hedge).
fn admission_config(config: &SimConfig) -> AdmissionConfig {
    AdmissionConfig {
        queue_deadline_ms: 400.0,
        exec_deadline_ms: config.exec_deadline_ms,
        max_queue_depth: 128,
        ..AdmissionConfig::default()
    }
}

/// The admitted world after its arrivals have been served.
struct Served {
    scenario: Scenario,
    qcc: Arc<Qcc>,
    daemon: AvailabilityDaemon,
    total: usize,
    report: OpenLoopReport,
}

/// Build `config`'s world with admission and the availability daemon
/// attached, and serve its arrivals through the shared open-loop driver.
fn serve(config: &SimConfig, threads: usize) -> Served {
    let world = build(config, threads);
    let mut scenario = world.scenario;
    let qcc = Arc::clone(scenario.qcc.as_ref().expect("QCC-routed scenario"));
    let admission = Arc::new(AdmissionController::with_obs(
        admission_config(config),
        scenario.obs.clone(),
    ));
    scenario.federation.set_admission(Arc::clone(&admission));
    let daemon = AvailabilityDaemon::new(
        Arc::clone(&qcc),
        scenario.wrappers.clone(),
        scenario.clock.clone(),
    );
    // Baseline probe of the healthy world (establishes ping baselines).
    daemon.probe_all();
    let report = run_open_loop_with_daemon(
        &scenario,
        AdmissionMode::Admitted(&admission),
        &world.arrivals,
        &daemon,
    );
    Served {
        scenario,
        qcc,
        daemon,
        total: world.arrivals.len(),
        report,
    }
}

/// Run `config` to completion with `threads` scatter workers.
pub fn run(config: &SimConfig, threads: usize, bug: &BugSwitches) -> RunArtifacts {
    let Served {
        scenario,
        qcc,
        daemon,
        total,
        report,
    } = serve(config, threads);
    // Injected accounting bug: every third completion is lost.
    let dropped = if bug.drop_completion {
        report.completed.len() / 3
    } else {
        0
    };

    // Cool-down: step past the last fault window so the daemon's
    // fast-bound probes restore every crashed server, then keep stepping
    // (bounded) until nothing is believed down.
    let lo = qcc.config.probe_interval_bounds_ms.0;
    let target = SimTime::from_millis(config.last_fault_end_ms() + 3.0 * lo);
    while scenario.clock.now() < target {
        scenario.clock.advance(SimDuration::from_millis(lo));
        daemon.run_due_probes();
    }
    let mut extra = 0;
    while !qcc.reliability.down_servers().is_empty() && extra < 20 {
        scenario.clock.advance(SimDuration::from_millis(lo));
        daemon.run_due_probes();
        extra += 1;
    }

    // Paired unprotected baseline: the same config builds a fresh world
    // (identical arrivals, faults, and seeds) driven through a fixed-width
    // FIFO pool with no admission, no deadlines, and no probe daemon. Its
    // goodput/p99 against the same deadline budget is what the
    // `goodput_dominance` oracle holds the admitted run to. The baseline
    // has its own Obs, so the admitted run's journal stays untouched.
    let admission = admission_config(config);
    let deadline_budget_ms = admission.deadline_budget_ms().unwrap_or(f64::INFINITY);
    let baseline_world = build(config, threads);
    let width = baseline_world.scenario.servers.len() * admission.base_tokens as usize;
    let baseline = run_open_loop(
        &baseline_world.scenario,
        AdmissionMode::Unprotected {
            width: width.max(1),
        },
        &baseline_world.arrivals,
    );

    RunArtifacts {
        total,
        completed: report.completed.len() - dropped,
        shed: report.shed as usize,
        failed: report.failed as usize,
        journal: scenario.obs.journal(),
        journal_text: scenario.obs.journal_snapshot(),
        metrics_text: scenario.obs.metrics_snapshot(),
        factors: qcc.calibration.server_factors(),
        down_at_end: qcc.reliability.down_servers(),
        server_ids: scenario.servers.iter().map(|s| s.id().clone()).collect(),
        retry_limit: config.retry_limit,
        obs: scenario.obs.clone(),
        deadline_budget_ms,
        admitted_goodput: report.goodput(deadline_budget_ms),
        admitted_p99_ms: report.response_percentile(99.0),
        baseline_goodput: baseline.goodput(deadline_budget_ms),
        baseline_p99_ms: baseline.response_percentile(99.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::parse;

    fn tiny_config(faults: &str) -> SimConfig {
        parse(&format!(
            "sim(seed: 11, servers: [(1.0, 0.2), (2.0, 0.1)], large_rows: 120, small_rows: 24, \
             arrivals: 10, rate_per_ms: 0.1, retry_limit: 2, faults: [{faults}])"
        ))
        .expect("valid test config")
    }

    #[test]
    fn healthy_run_conserves_queries() {
        let a = run(&tiny_config(""), 1, &BugSwitches::none());
        assert_eq!(a.total, 10);
        assert_eq!(a.completed + a.shed + a.failed, a.total);
        assert!(a.down_at_end.is_empty());
        assert!(!a.journal.is_empty());
    }

    #[test]
    fn injected_drop_breaks_conservation() {
        let a = run(
            &tiny_config(""),
            1,
            &BugSwitches {
                drop_completion: true,
            },
        );
        assert!(a.completed + a.shed + a.failed < a.total);
    }

    #[test]
    fn crash_window_is_detected_and_recovered() {
        let a = run(
            &tiny_config("crash(0, 20.0, 120.0)"),
            1,
            &BugSwitches::none(),
        );
        assert!(
            a.down_at_end.is_empty(),
            "cool-down must restore the server"
        );
        assert_eq!(a.completed + a.shed + a.failed, a.total);
    }

    #[test]
    fn admitted_goodput_and_p99_are_the_shared_reports() {
        // Far past saturation: the queue-deadline and queue-full sheds
        // leave a completion set whose tail straddles the deadline budget.
        let config = parse(
            "sim(seed: 5, servers: [(1.0, 0.2), (2.0, 0.1)], large_rows: 4000, small_rows: 100, \
             arrivals: 300, rate_per_ms: 4.0, retry_limit: 2, faults: [])",
        )
        .expect("valid test config");
        let a = run(&config, 1, &BugSwitches::none());
        assert!(a.shed > 0, "the config must shed");
        let report = serve(&config, 1).report;
        assert_eq!(a.completed, report.completed.len());
        assert_eq!(a.admitted_goodput, report.goodput(a.deadline_budget_ms));
        assert_eq!(a.admitted_p99_ms, report.response_percentile(99.0));
    }
}
