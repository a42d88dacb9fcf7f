//! Overload end-to-end: at ~2x the saturation arrival rate, admission
//! control turns unbounded backlog growth into bounded latency plus
//! shedding — and *dominates* the unprotected baseline on both goodput
//! and tail latency.
//!
//! * **Admission on** — every admitted-and-completed query meets its
//!   total deadline (queue deadline + execution deadline measured from
//!   arrival), p99 stays bounded, and a nonzero fraction of the offered
//!   load is shed: the queue is doing its job. Per-reason shed counters
//!   partition the controller's aggregate exactly (no double counting).
//! * **Admission off** — the same arrival sequence dispatched
//!   unconditionally piles concurrency onto the servers; each round's
//!   mean response exceeds the previous round's (monotone growth, the
//!   open-loop saturation signature) and the final round dwarfs the
//!   first.
//! * **Dominance** — admission-on completes at least as many queries
//!   within the deadline budget as admission-off, at no worse p99.
//! * **The daemon is a timer of the same loop** — driven with an
//!   availability daemon, a crashed server is probed back up and serves
//!   again before the arrivals end; driven without one it stays down for
//!   the rest of the run. A daemon whose probes never come due changes
//!   nothing: the journals are byte-identical.

use load_aware_federation::admission::{AdmissionConfig, AdmissionController, SHED_REASONS};
use load_aware_federation::common::SimTime;
use load_aware_federation::qcc::{AvailabilityDaemon, QccConfig};
use load_aware_federation::workload::{
    poisson_arrivals, run_open_loop, run_open_loop_with_daemon, AdmissionMode, ArrivalEvent,
    Scenario, ScenarioConfig,
};
use std::sync::Arc;

const QUEUE_DEADLINE_MS: f64 = 40.0;
const EXEC_DEADLINE_MS: f64 = 120.0;

fn overload_arrivals() -> Vec<ArrivalEvent> {
    // The tiny scenario drains roughly 3 queries/ms from a cold start;
    // 6/ms is ~2x saturation. The window is long enough (~200ms of
    // offered load) that an unprotected pool's backlog visibly outgrows
    // the deadline budget — a short burst would let FIFO catch up before
    // its tail latency ever crossed the budget.
    poisson_arrivals(6.0, 1200, 0xfeed)
}

fn admitted_controller(scenario: &Scenario) -> Arc<AdmissionController> {
    Arc::new(AdmissionController::with_obs(
        AdmissionConfig {
            queue_deadline_ms: QUEUE_DEADLINE_MS,
            exec_deadline_ms: EXEC_DEADLINE_MS,
            base_tokens: 4,
            // Deep queue: bursts wait under EDF and shed-on-dispatch
            // decides their fate; the depth bound is a memory guard, not
            // the shedding policy.
            max_queue_depth: 1024,
            ..AdmissionConfig::default()
        },
        scenario.obs.clone(),
    ))
}

#[test]
fn admission_bounds_latency_and_sheds_under_overload() {
    let mut scenario = Scenario::build_with_qcc(QccConfig::default(), ScenarioConfig::tiny());
    let admission = admitted_controller(&scenario);
    scenario.federation.set_admission(Arc::clone(&admission));
    let arrivals = overload_arrivals();
    let report = run_open_loop(&scenario, AdmissionMode::Admitted(&admission), &arrivals);

    assert!(report.shed > 0, "2x saturation must shed");
    assert!(
        !report.completed.is_empty(),
        "admission must still complete queries"
    );
    assert_eq!(report.failed, 0, "no non-admission failures expected");
    // Tail latency stays inside the total arrival-to-result budget (queue
    // deadline plus execution deadline). The shed-on-dispatch estimator is
    // an EWMA, so an occasional marginal query can land a few ms past the
    // budget — the guarantee is the tail, not every last completion.
    let budget = QUEUE_DEADLINE_MS + EXEC_DEADLINE_MS;
    let p99 = report.response_percentile(99.0);
    assert!(
        p99 <= budget,
        "p99 {p99:.3}ms exceeds the {budget}ms deadline budget"
    );
    assert!(
        report.goodput(budget) * 100 >= report.completed.len() * 99,
        "at least 99% of completions must be on time ({} of {})",
        report.goodput(budget),
        report.completed.len()
    );

    // Shed accounting: the per-reason `sheds_total` counters partition
    // the controller's aggregate shed count exactly — every shed carries
    // exactly one reason, and a ticket that is dequeued but later fails
    // token acquisition is not counted twice.
    let counts = admission.counts();
    let by_reason: u64 = SHED_REASONS
        .iter()
        .map(|reason| {
            admission
                .obs_handle()
                .counter_value("sheds_total", &[("reason", reason)])
        })
        .sum();
    assert_eq!(
        by_reason, counts.shed,
        "per-reason shed counters must sum exactly to AdmissionCounts::shed"
    );
    assert_eq!(
        report.shed, counts.shed,
        "driver-observed sheds and controller counters must agree"
    );
    assert_eq!(
        counts.enqueued,
        counts.dispatched
            + (counts.shed
                - admission
                    .obs_handle()
                    .counter_value("sheds_total", &[("reason", "queue_full")])
                - admission
                    .obs_handle()
                    .counter_value("sheds_total", &[("reason", "no_tokens")])),
        "every enqueued ticket is either dispatched or shed from the queue"
    );
}

#[test]
fn admission_dominates_unprotected_baseline_on_goodput_and_p99() {
    let arrivals = overload_arrivals();
    let budget = QUEUE_DEADLINE_MS + EXEC_DEADLINE_MS;

    let mut admitted_scenario =
        Scenario::build_with_qcc(QccConfig::default(), ScenarioConfig::tiny());
    let admission = admitted_controller(&admitted_scenario);
    admitted_scenario
        .federation
        .set_admission(Arc::clone(&admission));
    let admitted = run_open_loop(
        &admitted_scenario,
        AdmissionMode::Admitted(&admission),
        &arrivals,
    );

    // Same arrival sequence, fresh identical world, fixed-width FIFO pool
    // sized to the admitted run's aggregate token budget (3 servers x 4
    // base tokens) — the only difference is the policy.
    let baseline_scenario = Scenario::build_with_qcc(QccConfig::default(), ScenarioConfig::tiny());
    let baseline = run_open_loop(
        &baseline_scenario,
        AdmissionMode::Unprotected { width: 12 },
        &arrivals,
    );

    for reason in SHED_REASONS {
        eprintln!(
            "shed[{reason}] = {}",
            admission
                .obs_handle()
                .counter_value("sheds_total", &[("reason", reason)])
        );
    }
    eprintln!(
        "admitted: completed={} shed={} | baseline completed={}",
        admitted.completed.len(),
        admitted.shed,
        baseline.completed.len()
    );
    let (admitted_goodput, baseline_goodput) = (admitted.goodput(budget), baseline.goodput(budget));
    assert!(
        admitted_goodput >= baseline_goodput,
        "admission-on goodput {admitted_goodput} must dominate \
         admission-off {baseline_goodput} at 2x saturation"
    );
    let (admitted_p99, baseline_p99) = (
        admitted.response_percentile(99.0),
        baseline.response_percentile(99.0),
    );
    assert!(
        admitted_p99 <= baseline_p99.min(budget),
        "admission-on p99 {admitted_p99:.3}ms must beat both the baseline \
         p99 {baseline_p99:.3}ms and the {budget}ms deadline budget"
    );
}

#[test]
fn no_admission_baseline_grows_without_bound() {
    let scenario = Scenario::build_with_qcc(QccConfig::default(), ScenarioConfig::tiny());
    let arrivals = overload_arrivals();
    // Same worker-pool budget the admitted run gets from its tokens
    // (3 servers x 4 base tokens) — the only difference is no queueing
    // policy, no deadlines, no shedding.
    let report = run_open_loop(
        &scenario,
        AdmissionMode::Unprotected { width: 12 },
        &arrivals,
    );

    assert_eq!(report.shed, 0, "nothing sheds without admission");
    assert_eq!(
        report.completed.len(),
        arrivals.len(),
        "unprotected mode completes everything, however late"
    );
    let means = &report.round_mean_response_ms;
    assert!(
        means.len() >= 3,
        "expected several dispatch rounds, got {}",
        means.len()
    );
    // Monotonically increasing round means: each round inherits the
    // previous round's backlog plus everything that arrived meanwhile.
    for pair in means.windows(2) {
        assert!(
            pair[1] > pair[0],
            "round means must grow monotonically under overload: {means:?}"
        );
    }
    let (first, last) = (means[0], means[means.len() - 1]);
    assert!(
        last > 5.0 * first,
        "unbounded growth expected: first round {first:.3}ms, last {last:.3}ms"
    );
}

/// A tiny admitted 3-server world, its admission controller, and a
/// daemon that has taken its baseline probe. `crash` is an outage window
/// on S3, the server the healthy world routes most fragments to.
fn daemon_world(
    qcc_config: QccConfig,
    crash: Option<(f64, f64)>,
) -> (Scenario, Arc<AdmissionController>, AvailabilityDaemon) {
    let mut scenario = Scenario::build_with_qcc(qcc_config, ScenarioConfig::tiny());
    let admission = admitted_controller(&scenario);
    scenario.federation.set_admission(Arc::clone(&admission));
    if let Some((from_ms, until_ms)) = crash {
        scenario.server("S3").availability().add_outage(
            SimTime::from_millis(from_ms),
            SimTime::from_millis(until_ms),
        );
    }
    let daemon = AvailabilityDaemon::new(
        Arc::clone(scenario.qcc.as_ref().expect("QCC-routed scenario")),
        scenario.wrappers.clone(),
        scenario.clock.clone(),
    );
    daemon.probe_all();
    (scenario, admission, daemon)
}

#[test]
fn a_daemon_in_the_loop_restores_a_crashed_server_and_no_daemon_never_does() {
    // Light load, ~0.5 queries/ms for ~400 virtual ms: the crash window
    // ends well before the last arrival. Down servers are re-probed at
    // the fast bound, 20 ms here.
    let qcc_config = QccConfig {
        probe_interval_bounds_ms: (20.0, 10_000.0),
        ..QccConfig::default()
    };
    let crash = Some((30.0, 90.0));
    let arrivals = poisson_arrivals(0.5, 200, 0xd00d);
    let last_arrival = arrivals.last().expect("arrivals").at;
    let s3_events = |scenario: &Scenario, kind: &str| -> Vec<SimTime> {
        scenario
            .obs
            .events_of(kind)
            .iter()
            .filter(|e| e.str_field("server") == Some("S3"))
            .map(|e| e.at)
            .collect()
    };

    let (scenario, admission, daemon) = daemon_world(qcc_config.clone(), crash);
    let report = run_open_loop_with_daemon(
        &scenario,
        AdmissionMode::Admitted(&admission),
        &arrivals,
        &daemon,
    );
    assert_eq!(
        report.completed.len() + report.shed as usize + report.failed as usize,
        arrivals.len()
    );
    let down = s3_events(&scenario, "server_down");
    let restored = s3_events(&scenario, "server_restored");
    assert!(!down.is_empty(), "the crash must be noticed");
    assert!(!restored.is_empty(), "the daemon must probe S3 back up");
    assert!(down[0] < restored[0] && restored[0] < last_arrival);
    assert!(
        s3_events(&scenario, "fragment")
            .iter()
            .any(|at| *at > restored[0]),
        "the restored server must serve fragments again"
    );

    // The same world through the plain loop: nothing ever probes, so the
    // first failure prices S3 out for the rest of the run.
    let (scenario, admission, _daemon) = daemon_world(qcc_config, crash);
    run_open_loop(&scenario, AdmissionMode::Admitted(&admission), &arrivals);
    let down = s3_events(&scenario, "server_down");
    assert!(!down.is_empty(), "the crash must be noticed");
    assert!(s3_events(&scenario, "server_restored").is_empty());
    assert!(
        s3_events(&scenario, "fragment")
            .iter()
            .all(|at| *at <= down[0]),
        "no fragment lands on a server nobody probes back up"
    );
}

#[test]
fn a_daemon_that_is_never_due_leaves_the_schedule_untouched() {
    // One probe cycle longer than the run: after the baseline probe no
    // probe comes due, so the daemon-carrying loop must be the plain one.
    let never_due = QccConfig {
        probe_interval_ms: 1e9,
        probe_interval_bounds_ms: (1e9, 1e9),
        ..QccConfig::default()
    };
    let arrivals = overload_arrivals();

    let (scenario, admission, _daemon) = daemon_world(never_due.clone(), None);
    run_open_loop(&scenario, AdmissionMode::Admitted(&admission), &arrivals);
    let plain = scenario.obs.journal_snapshot();

    let (scenario, admission, daemon) = daemon_world(never_due, None);
    run_open_loop_with_daemon(
        &scenario,
        AdmissionMode::Admitted(&admission),
        &arrivals,
        &daemon,
    );
    assert_eq!(
        scenario.obs.counter_value("probe_cycles_total", &[]),
        0,
        "no probe may have come due"
    );
    assert!(plain == scenario.obs.journal_snapshot(), "journals differ");
}
