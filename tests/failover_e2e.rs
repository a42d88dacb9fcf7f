//! End-to-end failover, both ways a server can drop out from under the
//! coordinator, each readable from the qcc-obs journal in causal order:
//!
//! * the outage opens *mid-service*: the in-flight streams are cut at the
//!   transition, the stall detector cancels them, and each remainder is
//!   resumed on a replica — no query fails;
//! * the outage opens *between batches*: nothing is in flight, so the next
//!   batch's stale cached plans meet it as an arrival refusal — the stall
//!   detector takes the refused slot and re-dispatches it whole to a
//!   replica at the same instant.
//!
//! Either way the availability daemon's fast re-probe detects recovery
//! and routing opens back up.
//!
//! This is also the regression test for the once-dead adaptive probe
//! cycle: the configured probe interval (5 s) is far longer than the whole
//! phase, so recovery can only be observed if (a) `run_due_probes` really
//! runs between measured batches and (b) a down server's re-probe interval
//! is clamped to the fast bound instead of waiting out the stale schedule.

use load_aware_federation::common::{FieldValue, Obs, ServerId, SimTime};
use load_aware_federation::qcc::QccConfig;
use load_aware_federation::workload::experiment::run_phases_on;
use load_aware_federation::workload::{
    PhaseSchedule, QueryType, Routing, Scenario, ScenarioConfig,
};

/// Fast down-probe bound (virtual ms); the scheduled interval is 5 s.
const FAST_BOUND_MS: f64 = 0.5;

const INSTANCES: u32 = 8;

fn qcc_config() -> QccConfig {
    QccConfig {
        probe_interval_ms: 5_000.0,
        probe_interval_bounds_ms: (FAST_BOUND_MS, 10_000.0),
        ..QccConfig::default()
    }
}

fn schedule() -> PhaseSchedule {
    PhaseSchedule {
        // Phase 1: no background load; the outage is the only disturbance.
        phases: PhaseSchedule::paper_table1().phases[..1].to_vec(),
    }
}

/// Dry run to learn when the measured batches happen in virtual time
/// (warm-up and cache warming occupy the first stretch of the phase):
/// returns the start of batch 2, the start of batch 3, and the gap between
/// them. Batches of four queries are submitted together and batch b + 1
/// starts the instant batch b has drained. The runs are deterministic, so
/// a disturbed run follows the same timeline up to the moment its outage
/// begins.
fn batch_timeline() -> (SimTime, SimTime, f64) {
    let baseline = Scenario::build_with_qcc(qcc_config(), ScenarioConfig::tiny());
    run_phases_on(&baseline, Routing::Qcc, &schedule(), INSTANCES, 1);
    let submits = baseline.obs.events_of("query_submit");
    assert_eq!(submits.len(), (INSTANCES * 4) as usize);
    let (batch2, batch3) = (submits[2 * 4].at, submits[3 * 4].at);
    let gap = batch3.since(batch2).as_millis();
    assert!(gap > 0.0);
    (batch2, batch3, gap)
}

/// Run phase 1 with S3 down over `[from, until)`. `run_phases_on` asserts
/// every query succeeds, so returning at all means the outage was
/// absorbed.
fn run_with_s3_outage(from: SimTime, until: SimTime) -> Scenario {
    let scenario = Scenario::build_with_qcc(qcc_config(), ScenarioConfig::tiny());
    scenario.server("S3").availability().add_outage(from, until);
    let result = run_phases_on(&scenario, Routing::Qcc, &schedule(), INSTANCES, 1);
    assert_eq!(result.phases.len(), 1);
    assert!(scenario.obs.events_of("query_failed").is_empty());
    scenario
}

/// Time of the first `kind` event naming `server`.
fn first_at(obs: &Obs, kind: &str, server: &str) -> Option<SimTime> {
    obs.events_of(kind)
        .into_iter()
        .find(|e| e.str_field("server") == Some(server))
        .map(|e| e.at)
}

#[test]
fn outage_mid_service_cuts_streams_and_resumes_on_replica() {
    // S3 vanishes halfway through batch 2, while it is serving fragments.
    let (batch2, _, gap) = batch_timeline();
    let outage_start = SimTime::from_millis(batch2.as_millis() + 0.5 * gap);
    let outage_end = SimTime::from_millis(outage_start.as_millis() + 2.6 * gap);
    let scenario = run_with_s3_outage(outage_start, outage_end);
    let obs = &scenario.obs;

    // Causal chain: the stream is cut at the transition (reliability marks
    // S3 down at that very instant), the detector notices one probe
    // interval later and cancels, the remainder is dispatched to a replica
    // and resumes there.
    let down_at = first_at(obs, "server_down", "S3").expect("S3 marked down at the cut");
    let stall = obs
        .events_of("fragment_stall")
        .into_iter()
        .next()
        .expect("an in-flight stream was cut");
    assert_eq!(stall.str_field("server"), Some("S3"));
    assert_eq!(stall.str_field("reason"), Some("interrupt"));
    let dispatch = obs
        .events_of("reroute_dispatch")
        .into_iter()
        .next()
        .expect("remainder re-dispatched");
    assert_eq!(dispatch.str_field("from"), Some("S3"));
    assert_ne!(dispatch.str_field("to"), Some("S3"));
    let resume = obs
        .events_of("fragment_resume")
        .into_iter()
        .next()
        .expect("remainder resumed");
    assert_eq!(resume.str_field("server"), dispatch.str_field("to"));
    assert_eq!(down_at, outage_start, "server_down is stamped at the cut");
    assert!(down_at < stall.at && stall.at <= dispatch.at && dispatch.at < resume.at);

    let restored_at = first_at(obs, "server_restored", "S3").expect("probe saw S3 recover");
    assert!(restored_at >= outage_end);
}

#[test]
fn outage_between_batches_is_refused_redispatched_and_restored() {
    // S3 vanishes the instant batch 2 has drained — nothing is mid-service
    // — and stays gone long enough that at least one between-batch probe
    // finds it still down.
    let (_, outage_start, gap) = batch_timeline();
    let outage_end = SimTime::from_millis(outage_start.as_millis() + 2.6 * gap);
    let scenario = run_with_s3_outage(outage_start, outage_end);
    let s3 = ServerId::new("S3");
    let obs = &scenario.obs;
    assert!(
        obs.events_of("fragment_stall")
            .iter()
            .all(|e| e.str_field("reason") == Some("arrival")),
        "no stream was in flight when the outage opened"
    );

    // The journal tells the failover story in causal order: the stale
    // cached plan walks into the outage and is refused on arrival
    // (reliability marks S3 down, the slot stalls), the slot is
    // re-dispatched whole to a replica at the same instant, the query
    // completes without S3, and the fast re-probe sees the server come
    // back.
    let down_at = first_at(obs, "server_down", "S3").expect("reliability marked S3 down");
    let stall = obs
        .events_of("fragment_stall")
        .into_iter()
        .find(|e| e.str_field("server") == Some("S3"))
        .expect("a slot sent to S3 stalled");
    let dispatch = obs
        .events_of("reroute_dispatch")
        .into_iter()
        .find(|e| e.str_field("from") == Some("S3"))
        .expect("the refused slot was re-dispatched");
    assert_eq!(dispatch.str_field("reason"), Some("arrival"));
    assert_eq!(dispatch.field("cursor"), Some(&FieldValue::U64(0)));
    let rescuer = dispatch.str_field("to").expect("dispatch names a target");
    assert_ne!(rescuer, "S3");
    let query = dispatch.field("query").expect("dispatch names its query");
    let complete = obs
        .events_of("query_complete")
        .into_iter()
        .find(|e| e.field("query") == Some(query))
        .expect("the rescued query completed");
    let restored_at = first_at(obs, "server_restored", "S3").expect("probe saw S3 recover");
    assert!(down_at >= outage_start && down_at < outage_end);
    assert_eq!(stall.at, down_at, "the refusal is detected at dispatch");
    assert_eq!(dispatch.at, stall.at, "a refusal costs no probe interval");
    assert!(dispatch.at <= complete.at && complete.at < restored_at);
    assert!(
        restored_at >= outage_end,
        "restore can only be observed after the outage ends"
    );
    let served: Vec<String> = obs
        .events_of("fragment")
        .iter()
        .filter(|e| e.field("query") == Some(query))
        .map(|e| e.str_field("server").unwrap_or_default().to_string())
        .collect();
    assert!(
        served.iter().any(|s| s == rescuer) && !served.iter().any(|s| s == "S3"),
        "the rescued query must complete without S3, got {served:?}"
    );

    // Regression (dead probe cycle): with a 5 s schedule the restore is
    // only observable because down servers are re-probed at the fast
    // bound between batches; recovery must be seen within batch
    // granularity of the outage ending, not "eventually".
    let lag = restored_at.since(outage_end).as_millis();
    assert!(
        lag <= 3.0 * gap,
        "recovery detected {lag:.3} ms after outage end (batch gap {gap:.3} ms)"
    );

    // Regression (interval clamp): every probe of S3 fired while it was
    // down must have rescheduled at the fast bound, not the adaptive
    // interval derived from the 5 s default.
    let down_probes: Vec<_> = obs
        .events_of("probe")
        .into_iter()
        .filter(|e| {
            e.str_field("server") == Some("S3") && e.field("ok") == Some(&FieldValue::Bool(false))
        })
        .collect();
    assert!(
        !down_probes.is_empty(),
        "the daemon must have probed S3 during the outage"
    );
    for p in &down_probes {
        assert_eq!(
            p.field("interval_ms"),
            Some(&FieldValue::F64(FAST_BOUND_MS)),
            "down-server re-probe must clamp to the fast bound"
        );
    }

    // After recovery the server is routable again: reliability agrees,
    // and a fresh compile offers S3 candidates.
    let qcc = scenario.qcc.as_ref().expect("qcc routing");
    assert!(!qcc.reliability.is_down(&s3), "S3 healthy after restore");
    let (_, candidates) = scenario
        .federation
        .explain_global(&QueryType::QT1.sql(99))
        .expect("post-recovery compile succeeds");
    assert!(
        candidates.iter().any(|c| c.server_set().contains(&s3)),
        "post-recovery candidates include the restored server"
    );

    // And the counters agree with the journal.
    assert!(
        obs.counter_value(
            "fragment_stalls_total",
            &[("server", "S3"), ("reason", "arrival")]
        ) >= 1
    );
    assert!(obs.counter_value("server_down_total", &[("server", "S3")]) >= 1);
    assert!(obs.counter_value("server_recovered_total", &[("server", "S3")]) >= 1);
}
