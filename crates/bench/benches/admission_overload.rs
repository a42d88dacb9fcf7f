//! Admission control under overload (PR 4's tentpole): the same 2x-
//! saturation Poisson arrival sequence served with admission control on
//! (WFQ queue + tokens + deadlines + shedding) and off (a fixed-width
//! worker pool dispatching FIFO, no policy).
//!
//! The table reports, per mode: completions, sheds, p50/p99 response
//! measured from *arrival* (so queueing time counts), goodput (answers
//! within the deadline budget), and host wall time. The shape to look
//! for: the unprotected pool completes everything but its tail is
//! unbounded — the last arrivals wait behind the whole backlog — while
//! admission holds p99 under the deadline budget and sheds the excess.
//! A machine-checkable verdict line (`goodput dominance: OK|VIOLATED`)
//! asserts admission-on wins on *both* axes: goodput at least the
//! unprotected pool's, p99 no worse than the deadline budget. `ci.sh`
//! greps it, and a violation exits 1.
//!
//! Arrival count scales with `QCC_INSTANCES` (default 5 instances ->
//! 1200 arrivals, enough for the unprotected tail to blow through the
//! deadline budget); the arrival rate is fixed at ~2x the tiny
//! scenario's drain rate. Virtual-time numbers are byte-identical for
//! any `QCC_THREADS` (`tests/admission_determinism.rs`).

use qcc_admission::{AdmissionConfig, AdmissionController};
use qcc_bench::{BenchScale, Verdict};
use qcc_common::WallStopwatch;
use qcc_core::QccConfig;
use qcc_workload::{
    poisson_arrivals, run_open_loop, AdmissionMode, ArrivalEvent, OpenLoopReport, Scenario,
    ScenarioConfig,
};
use std::sync::Arc;

const RATE_PER_MS: f64 = 6.0;
const SEED: u64 = 0xfeed;
const QUEUE_DEADLINE_MS: f64 = 40.0;
const EXEC_DEADLINE_MS: f64 = 120.0;
/// 3 servers x 4 base tokens: the unprotected pool gets the same
/// concurrency budget the admitted run derives from its tokens.
const UNPROTECTED_WIDTH: usize = 12;

fn admission_config() -> AdmissionConfig {
    AdmissionConfig {
        queue_deadline_ms: QUEUE_DEADLINE_MS,
        exec_deadline_ms: EXEC_DEADLINE_MS,
        base_tokens: 4,
        // Deep queue: shed-on-dispatch (EDF + per-template estimates)
        // decides what drops, not a shallow depth bound dropping viable
        // bursts at the door.
        max_queue_depth: 1024,
        ..AdmissionConfig::default()
    }
}

fn run_admitted(arrivals: &[ArrivalEvent]) -> (OpenLoopReport, f64) {
    let mut scenario = Scenario::build_with_qcc(QccConfig::default(), ScenarioConfig::tiny());
    let admission = Arc::new(AdmissionController::with_obs(
        admission_config(),
        scenario.obs.clone(),
    ));
    scenario.federation.set_admission(Arc::clone(&admission));
    let sw = WallStopwatch::start();
    let report = run_open_loop(&scenario, AdmissionMode::Admitted(&admission), arrivals);
    (report, sw.elapsed_nanos() as f64 / 1e6)
}

fn run_unprotected(arrivals: &[ArrivalEvent]) -> (OpenLoopReport, f64) {
    let scenario = Scenario::build_with_qcc(QccConfig::default(), ScenarioConfig::tiny());
    let sw = WallStopwatch::start();
    let report = run_open_loop(
        &scenario,
        AdmissionMode::Unprotected {
            width: UNPROTECTED_WIDTH,
        },
        arrivals,
    );
    (report, sw.elapsed_nanos() as f64 / 1e6)
}

fn main() {
    let scale = BenchScale::from_env();
    let count = (scale.instances as usize * 240).max(150);
    let arrivals = poisson_arrivals(RATE_PER_MS, count, SEED);
    let budget = QUEUE_DEADLINE_MS + EXEC_DEADLINE_MS;
    println!(
        "admission control at ~2x saturation: {} Poisson arrivals at {RATE_PER_MS}/ms \
         (seed {SEED:#x}), deadline budget {budget} ms",
        arrivals.len()
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    let on = run_admitted(&arrivals);
    let off = run_unprotected(&arrivals);
    let (on_good, off_good) = (on.0.goodput(budget), off.0.goodput(budget));
    let on_p99 = on.0.response_percentile(99.0);
    let mut verdict = Verdict::new("goodput dominance");
    if on_good < off_good {
        verdict.violate(format!("goodput: on {on_good} < off {off_good}"));
    }
    if on_p99 > budget {
        verdict.violate(format!("p99: on {on_p99:.2} > budget {budget} ms"));
    }
    for (name, (report, wall_ms)) in [("admission on", on), ("admission off", off)] {
        rows.push(vec![
            name.to_string(),
            report.completed.len().to_string(),
            report.shed.to_string(),
            format!("{:.2}", report.response_percentile(50.0)),
            format!("{:.2}", report.response_percentile(99.0)),
            format!(
                "{} ({:.0}%)",
                report.goodput(budget),
                100.0 * report.goodput(budget) as f64 / arrivals.len() as f64
            ),
            format!("{wall_ms:.1}"),
        ]);
    }
    qcc_bench::print_table(
        &format!(
            "admission on vs off ({} arrivals, unprotected pool width {UNPROTECTED_WIDTH})",
            arrivals.len()
        ),
        &[
            "mode".to_string(),
            "completed".to_string(),
            "shed".to_string(),
            "p50 ms".to_string(),
            "p99 ms".to_string(),
            "goodput".to_string(),
            "wall ms".to_string(),
        ],
        &rows,
    );
    verdict.finish(&format!(
        "on {on_good} >= off {off_good}, p99 {on_p99:.2} <= {budget} ms"
    ));
}
