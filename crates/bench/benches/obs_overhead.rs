//! Wall-clock overhead of the qcc-obs observability layer.
//!
//! The same two-phase calibrated experiment runs with the recorder on
//! (the default: every compile span, fragment event, probe, counter and
//! histogram lands in the registry/journal) and with it off (`Obs::off()`,
//! every emission an early-return no-op). Each variant runs several
//! repetitions and reports the median, because at smoke scale a single
//! run is dominated by allocator and scheduler noise.
//!
//! Virtual time must be bit-identical between the two — instrumentation
//! observes the simulation, it never participates — so the table carries
//! a determinism column.

use qcc_bench::BenchScale;
use qcc_common::WallStopwatch;
use qcc_workload::experiment::run_phases_on;
use qcc_workload::{PhaseSchedule, Routing, Scenario, ScenarioConfig};

const REPS: usize = 5;

/// One full run; returns (wall ms, final-phase virtual avg ms, journal
/// events recorded, metric series recorded).
fn run_once(base: &ScenarioConfig, obs_enabled: bool) -> (f64, f64, usize, usize) {
    let scenario = Scenario::build_with(
        Routing::Qcc,
        ScenarioConfig {
            obs_enabled,
            ..base.clone()
        },
    );
    let schedule = PhaseSchedule {
        phases: PhaseSchedule::paper_table1().phases[..2].to_vec(),
    };
    let scale = BenchScale::from_env();
    let sw = WallStopwatch::start();
    let result = run_phases_on(
        &scenario,
        Routing::Qcc,
        &schedule,
        scale.instances,
        scale.warmup,
    );
    let wall_ms = sw.elapsed_nanos() as f64 / 1e6;
    let series = scenario
        .obs
        .metrics_snapshot()
        .lines()
        .filter(|l| !l.is_empty())
        .count();
    (
        wall_ms,
        result.phases.last().map(|p| p.avg_ms).unwrap_or(0.0),
        scenario.obs.journal_len(),
        series,
    )
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let scale = BenchScale::from_env();
    println!("qcc-obs overhead: median of {REPS} two-phase runs per variant");

    let mut rows = Vec::new();
    let mut virtual_bits = Vec::new();
    let mut base_median = 0.0;
    for (name, enabled) in [("obs off", false), ("obs on", true)] {
        let mut walls = Vec::with_capacity(REPS);
        let mut sample = (0.0, 0.0, 0, 0);
        for _ in 0..REPS {
            sample = run_once(&scale.config, enabled);
            walls.push(sample.0);
        }
        let med = median(walls);
        if !enabled {
            base_median = med;
        }
        virtual_bits.push(sample.1.to_bits());
        rows.push(vec![
            name.to_string(),
            format!("{med:.1}"),
            format!("{:+.1}%", (med / base_median - 1.0) * 100.0),
            format!("{:.2}", sample.1),
            sample.2.to_string(),
            sample.3.to_string(),
        ]);
    }
    qcc_bench::print_table(
        "observability overhead (two-phase calibrated run)",
        &[
            "variant".to_string(),
            "wall ms".to_string(),
            "vs off".to_string(),
            "virtual ms".to_string(),
            "events".to_string(),
            "series".to_string(),
        ],
        &rows,
    );
    println!(
        "virtual time {} across variants",
        if virtual_bits.windows(2).all(|w| w[0] == w[1]) {
            "identical"
        } else {
            "DIVERGED"
        }
    );

    // One instrumented run's final-phase snapshot, rendered the way
    // reports embed it.
    let scenario = Scenario::build_with(Routing::Qcc, scale.config.clone());
    let schedule = PhaseSchedule {
        phases: PhaseSchedule::paper_table1().phases[..2].to_vec(),
    };
    let result = run_phases_on(
        &scenario,
        Routing::Qcc,
        &schedule,
        scale.instances,
        scale.warmup,
    );
    if let Some(last) = result.phases.last() {
        qcc_bench::print_phase_metrics("final-phase metrics snapshot", last);
    }
}
