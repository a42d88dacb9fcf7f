//! Pins the exact bytes of both observability snapshots: the length and
//! the FNV-1a hash of `metrics_snapshot()` and `journal_snapshot()` after
//! fixed runs. `obs_determinism` and `admission_determinism` compare a
//! run against itself at other thread counts; this test compares it
//! against the bytes the journal and registry rendered before their
//! storage was reorganised, so a change to how events or series are held
//! that alters one byte of the rendering fails here.
//!
//! Three worlds: the paper's three servers walked through the first four
//! Table 1 phases with no replica catalog and with one (replication 3),
//! and an admitted open-loop run past saturation that sheds, dequeues and
//! hedges.

use load_aware_federation::admission::{AdmissionConfig, AdmissionController};
use load_aware_federation::qcc::QccConfig;
use load_aware_federation::workload::experiment::run_phases_on;
use load_aware_federation::workload::{
    poisson_arrivals, run_open_loop, AdmissionMode, PhaseSchedule, Routing, Scenario,
    ScenarioConfig,
};
use std::sync::Arc;

/// 64-bit FNV-1a.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(bytes, FNV-1a)` of one snapshot.
type Pin = (usize, u64);

fn pin(snapshot: &str) -> Pin {
    (snapshot.len(), fnv1a(snapshot))
}

fn assert_pinned(world: &str, metrics: &str, journal: &str, expected: (Pin, Pin)) {
    let got = (pin(metrics), pin(journal));
    assert_eq!(
        got, expected,
        "{world}: (metrics, journal) as (bytes, FNV-1a) moved; metrics:\n{metrics}"
    );
}

/// The first four Table 1 phases, three instances per type, one warm-up
/// round, with a probe cadence that comes due between batches.
fn phases(replication_factor: usize) -> (String, String) {
    let scenario = Scenario::build_with_qcc(
        QccConfig {
            probe_interval_ms: 4.0,
            probe_interval_bounds_ms: (1.0, 50.0),
            ..QccConfig::default()
        },
        ScenarioConfig {
            threads: 1,
            replication_factor,
            stall_factor: 3.0,
            ..ScenarioConfig::tiny()
        },
    );
    let schedule = PhaseSchedule {
        phases: PhaseSchedule::paper_table1().phases[..4].to_vec(),
    };
    run_phases_on(&scenario, Routing::Qcc, &schedule, 3, 1);
    (
        scenario.obs.metrics_snapshot(),
        scenario.obs.journal_snapshot(),
    )
}

#[test]
fn table1_phases_without_a_catalog_render_the_pinned_bytes() {
    let (metrics, journal) = phases(0);
    assert_pinned(
        "phases, replication 0",
        &metrics,
        &journal,
        (
            (917, 0xecd3_e36d_3f8e_acf6),
            (56_371, 0x4d92_9c1e_40ce_0782),
        ),
    );
}

#[test]
fn table1_phases_with_a_catalog_render_the_pinned_bytes() {
    let (metrics, journal) = phases(3);
    assert_pinned(
        "phases, replication 3",
        &metrics,
        &journal,
        (
            (1_041, 0x3f96_2f1c_bbc5_69b0),
            (56_579, 0xe43d_75ab_6958_07f4),
        ),
    );
}

#[test]
fn admitted_open_loop_renders_the_pinned_bytes() {
    let mut scenario = Scenario::build_with_qcc(
        QccConfig::default(),
        ScenarioConfig {
            threads: 1,
            replication_factor: 3,
            stall_factor: 3.0,
            ..ScenarioConfig::tiny()
        },
    );
    let admission = Arc::new(AdmissionController::with_obs(
        AdmissionConfig {
            queue_deadline_ms: 40.0,
            exec_deadline_ms: 6.0,
            base_tokens: 4,
            max_queue_depth: 32,
            ..AdmissionConfig::default()
        },
        scenario.obs.clone(),
    ));
    scenario.federation.set_admission(Arc::clone(&admission));
    let arrivals = poisson_arrivals(6.0, 300, 0xfeed);
    let report = run_open_loop(&scenario, AdmissionMode::Admitted(&admission), &arrivals);
    let obs = &scenario.obs;
    let hedges = obs.events_of("hedge").len();
    let dequeues = obs.events_of("dequeue").len();
    assert!(report.shed > 0, "the run must shed");
    assert!(dequeues > 0, "the run must dequeue");
    assert!(hedges > 0, "the run must hedge");
    assert_pinned(
        "admitted open loop",
        &obs.metrics_snapshot(),
        &obs.journal_snapshot(),
        (
            (1_415, 0x14fd_36dc_584c_8f42),
            (181_403, 0x440f_7e10_6417_9c2e),
        ),
    );
}
