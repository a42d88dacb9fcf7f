//! The scatter-gather layer's headline guarantee: **determinism under
//! parallelism**. Routing decisions, calibration factors, the journal
//! and result rows must be byte-identical for any worker-pool
//! width — threads is purely a wall-clock knob (DESIGN.md §2
//! "Scatter-gather and QCC_THREADS").
//!
//! These are golden equivalence tests: the `threads = 1` run is the
//! reference, and wider pools must reproduce it bit for bit (`f64`
//! comparisons go through `to_bits`, so not even a ULP of drift passes).

use load_aware_federation::workload::experiment::run_phases_on;
use load_aware_federation::workload::{
    PhaseSchedule, Routing, Scenario, ScenarioConfig, ALL_QUERY_TYPES,
};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

fn config(threads: usize) -> ScenarioConfig {
    ScenarioConfig {
        threads,
        ..ScenarioConfig::tiny()
    }
}

/// Everything observable about a finished run, with floats frozen as bit
/// patterns so equality is exact.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    phases: Vec<(usize, [u64; 4], [String; 4], u64)>,
    server_factors: Vec<(String, u64)>,
    ii_factor: u64,
    /// Every submit, compile, fragment and completion with its virtual
    /// timestamp, as JSONL.
    journal: String,
}

fn fingerprint(scenario: &Scenario, routing: Routing) -> Fingerprint {
    let schedule = PhaseSchedule {
        // Two contrasting phases keep the test fast while still exercising
        // the re-calibration cycle at a phase boundary.
        phases: PhaseSchedule::paper_table1().phases[..2].to_vec(),
    };
    let result = run_phases_on(scenario, routing, &schedule, 2, 1);

    let phases = result
        .phases
        .iter()
        .map(|p| {
            (
                p.number,
                std::array::from_fn(|i| p.per_type_ms[i].to_bits()),
                p.per_type_server.clone(),
                p.avg_ms.to_bits(),
            )
        })
        .collect();
    let qcc = scenario.qcc.as_ref().expect("QCC routing");
    let server_factors = scenario
        .servers
        .iter()
        .map(|s| {
            (
                s.id().to_string(),
                qcc.calibration.server_factor(s.id()).to_bits(),
            )
        })
        .collect();
    Fingerprint {
        phases,
        server_factors,
        ii_factor: qcc.calibration.ii_factor().to_bits(),
        journal: scenario.obs.journal_snapshot(),
    }
}

#[test]
fn phase_run_is_byte_identical_across_thread_counts() {
    let routing = Routing::Qcc;
    let reference = fingerprint(&Scenario::build_with(routing, config(1)), routing);
    assert!(
        reference.journal.contains("\"kind\":\"query_complete\""),
        "reference run must actually route queries"
    );
    for threads in &THREAD_COUNTS[1..] {
        let got = fingerprint(&Scenario::build_with(routing, config(*threads)), routing);
        assert_eq!(
            got, reference,
            "threads={threads} diverged from the sequential reference"
        );
    }
}

#[test]
fn batch_outcomes_are_byte_identical_across_thread_counts() {
    // Full QueryOutcome comparison over batched submission: ids, rows,
    // plan signatures, server sets, per-fragment times, estimates.
    let sqls: Vec<String> = (0..3)
        .flat_map(|i| ALL_QUERY_TYPES.iter().map(move |qt| qt.sql(i)))
        .collect();
    let outcome_print = |threads: usize| -> Vec<String> {
        let scenario = Scenario::build_with(Routing::Qcc, config(threads));
        scenario
            .federation
            .submit_batch(&sqls)
            .into_iter()
            .map(|r| {
                let out = r.expect("batch queries succeed");
                format!(
                    "{:?} {:?} {} {} {:?} {:?} {}",
                    out.id,
                    out.rows,
                    out.response_ms.to_bits(),
                    out.chosen_signature,
                    out.servers,
                    out.fragment_times
                        .iter()
                        .map(|(s, ms)| (s.to_string(), ms.to_bits()))
                        .collect::<Vec<_>>(),
                    out.estimated_cost.to_bits(),
                )
            })
            .collect()
    };
    let reference = outcome_print(1);
    assert_eq!(reference.len(), sqls.len());
    for threads in &THREAD_COUNTS[1..] {
        assert_eq!(
            outcome_print(*threads),
            reference,
            "threads={threads} produced different batch outcomes"
        );
    }
}

#[test]
fn plan_cache_and_patroller_survive_concurrent_hammering() {
    use load_aware_federation::common::{Cost, FieldValue, Obs, ServerId, SimTime};
    use load_aware_federation::federation::{PlanCache, QueryPatroller};
    use load_aware_federation::wrapper::FragmentPlan;

    let cache = Arc::new(PlanCache::new());
    let patroller = Arc::new(QueryPatroller::new());
    let obs = Obs::new();
    patroller.set_obs(obs.clone());
    let workers = 8;
    let per_worker = 200;

    std::thread::scope(|s| {
        for w in 0..workers {
            let cache = Arc::clone(&cache);
            let patroller = Arc::clone(&patroller);
            s.spawn(move || {
                for i in 0..per_worker {
                    let server = ServerId::new(format!("S{}", i % 3));
                    let sql = format!("SELECT {}", i % 7);
                    cache.put(
                        &server,
                        sql.as_str(),
                        vec![FragmentPlan {
                            server: server.clone(),
                            sql: sql.clone(),
                            descriptor: None,
                            cost: Some(Cost::fixed(1.0)),
                            signature: format!("sig{}", i % 7),
                        }],
                    );
                    let _ = cache.get(&server, sql.as_str());
                    if i % 50 == 49 {
                        cache.invalidate_server(&server);
                    }
                    let at = SimTime::from_millis((w * per_worker + i) as f64);
                    let id = patroller.record_submit(&sql, at);
                    patroller.record_complete(id, at);
                }
            });
        }
    });

    // Every submit got a unique id and a completion; no entry was lost or
    // corrupted by interleaving.
    let ids: std::collections::BTreeSet<u64> = obs
        .events_of("query_submit")
        .iter()
        .map(|e| match e.field("query") {
            Some(FieldValue::U64(id)) => *id,
            other => panic!("query field: {other:?}"),
        })
        .collect();
    assert_eq!(ids.len(), workers * per_worker);
    assert_eq!(
        obs.counter_value("queries_total", &[("status", "ok")]) as usize,
        workers * per_worker
    );
    let (hits, misses) = cache.stats();
    assert_eq!(
        (hits + misses) as usize,
        workers * per_worker,
        "every get must count as exactly one hit or miss"
    );
    // The cache is still coherent: whatever remains maps the key it was
    // stored under.
    for server in ["S0", "S1", "S2"].map(ServerId::new) {
        for i in 0..7 {
            let sql = format!("SELECT {i}");
            if let Some(plans) = cache.get(&server, sql.as_str()) {
                assert_eq!(plans[0].sql, sql);
                assert_eq!(plans[0].server, server);
            }
        }
    }
}
