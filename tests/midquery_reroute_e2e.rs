//! End-to-end mid-query failover through the full QCC stack: a replica
//! crashes while streaming a fragment, the coordinator observes the
//! interrupted stream, bans the source (reliability marks it down), cancels
//! the slot, and re-dispatches the *remainder* — the cursor position, not
//! the whole fragment — to a within-band replica among the fragment's
//! nickname sources.
//! The journal must tell the story in causal order (ban → stall → reroute
//! dispatch → resume → merged completion), the merged result must carry
//! zero duplicate and zero missing rows, and the episode must never feed a
//! truncated response time into calibration.

use load_aware_federation::common::{Event, FieldValue, Row, ServerId, SimTime};
use load_aware_federation::qcc::QccConfig;
use load_aware_federation::workload::scenario::{scale_server_specs, Scenario, ScenarioConfig};

const FLEET: usize = 12;
const SEED: u64 = 77;

/// A wide scan: the fragment ships thousands of rows, so its stream has
/// several chunks and an interrupt can leave a genuine mid-stream cursor
/// (aggregates collapse to one chunk and always restart at 0).
const SQL: &str = "SELECT a.id, a.grp FROM big_a a WHERE a.sel > 2000";

fn config() -> ScenarioConfig {
    ScenarioConfig {
        large_rows: 3000,
        small_rows: 60,
        seed: SEED,
        threads: 1,
        obs_enabled: true,
        server_specs: scale_server_specs(FLEET, SEED),
        replication_factor: 3,
        stall_factor: 4.0,
        ..ScenarioConfig::default()
    }
}

fn build() -> Scenario {
    Scenario::build_with_qcc(QccConfig::default(), config())
}

fn ms_field(e: &Event) -> f64 {
    match e.field("ms") {
        Some(FieldValue::F64(v)) => *v,
        _ => 0.0,
    }
}

fn u64_field(e: &Event, name: &str) -> u64 {
    match e.field(name) {
        Some(FieldValue::U64(v)) => *v,
        other => panic!("{name} field: {other:?}"),
    }
}

/// One completed reroute episode with a strict mid-stream remainder.
struct Episode {
    scenario: Scenario,
    victim: ServerId,
    cut: SimTime,
    expected_rows: Vec<Row>,
    outcome_rows: Vec<Row>,
}

/// Dry-run to learn the victim fragment's timeline and the fault-free
/// result, then sweep the crash instant across the fragment's response
/// interval until the interrupt leaves a genuine mid-stream cursor (at
/// least one chunk already delivered when the source dies). Runs are
/// deterministic, so the disturbed run follows the baseline timeline up
/// to the crash.
fn reroute_episode() -> Episode {
    let baseline = build();
    let expected_rows = baseline.federation.submit(SQL).expect("baseline run").rows;
    let frags = baseline.obs.events_of("fragment");
    let victim_frag = frags
        .iter()
        .max_by(|a, b| ms_field(a).total_cmp(&ms_field(b)))
        .expect("baseline journalled fragment events");
    let victim = ServerId::new(victim_frag.str_field("server").expect("server field"));
    let frag_start = victim_frag.at.as_millis();
    let frag_ms = ms_field(victim_frag);
    assert!(frag_ms > 0.0);

    for frac in [0.55, 0.65, 0.75, 0.85, 0.95, 0.45, 0.35, 0.25] {
        let cut = SimTime::from_millis(frag_start + frac * frag_ms);
        let scenario = build();
        scenario
            .server(victim.as_str())
            .availability()
            .add_outage(cut, SimTime::from_millis(1e12));
        let outcome = scenario.federation.submit(SQL).expect("rerouted run");
        let mid_stream = scenario
            .obs
            .events_of("reroute_dispatch")
            .iter()
            .any(|e| u64_field(e, "cursor") >= 1);
        if mid_stream {
            return Episode {
                scenario,
                victim,
                cut,
                expected_rows,
                outcome_rows: outcome.rows,
            };
        }
    }
    panic!("no crash placement inside the victim fragment produced a mid-stream reroute");
}

#[test]
fn crash_mid_stream_bans_reroutes_remainder_and_merges_exactly() {
    let ep = reroute_episode();
    let obs = &ep.scenario.obs;
    let victim = &ep.victim;

    // Zero duplicates, zero losses: the merged result is exactly the
    // fault-free result.
    assert_eq!(
        ep.outcome_rows, ep.expected_rows,
        "rerouted result must match the fault-free result row-for-row"
    );

    // The journal tells the failover story in causal order.
    let stall = obs
        .events_of("fragment_stall")
        .into_iter()
        .find(|e| e.str_field("server") == Some(victim.as_str()))
        .expect("stall journalled for the victim");
    assert_eq!(stall.str_field("reason"), Some("interrupt"));
    let dispatch = obs
        .events_of("reroute_dispatch")
        .into_iter()
        .next()
        .expect("remainder re-dispatched");
    let resume = obs
        .events_of("fragment_resume")
        .into_iter()
        .next()
        .expect("remainder resumed");
    let complete = obs
        .events_of("query_complete")
        .into_iter()
        .next()
        .expect("query completed");
    let down = obs
        .events_of("server_down")
        .into_iter()
        .find(|e| e.str_field("server") == Some(victim.as_str()))
        .expect("reliability banned the victim");
    assert_eq!(
        down.at, ep.cut,
        "the ban lands at the interrupt instant, not the arrival"
    );
    assert!(stall.at <= dispatch.at, "stall precedes the re-dispatch");
    assert!(dispatch.at <= resume.at, "dispatch precedes the resume");
    assert!(
        resume.at <= complete.at,
        "resume precedes the merged completion"
    );
    assert_eq!(dispatch.str_field("from"), Some(victim.as_str()));
    let rescuer = dispatch.str_field("to").expect("dispatch names a target");
    assert_ne!(rescuer, victim.as_str(), "remainder goes to a sibling");
    let cursor = u64_field(&dispatch, "cursor");
    let total = u64_field(&dispatch, "total_chunks");
    assert!(
        cursor >= 1 && cursor < total,
        "a mid-stream reroute carries a strict remainder ({cursor}/{total})"
    );

    // Stream provenance tiles the chunk range exactly: chunks 0..cursor
    // from the victim, cursor..total from the rescuer, nothing twice.
    let stream = obs
        .events_of("fragment_stream")
        .into_iter()
        .next()
        .expect("resumed fragment journals its provenance");
    let sources = stream.str_field("sources").expect("sources field");
    assert_eq!(
        sources,
        format!("{victim}:0..{cursor}+{rescuer}:{cursor}..{total}"),
        "provenance must tile the chunk range exactly"
    );

    // One re-dispatch absorbed the fault, and the victim is marked down
    // for subsequent routing.
    assert_eq!(
        obs.counter_value("fragment_reroutes_total", &[("server", rescuer)]),
        1
    );
    let qcc = ep.scenario.qcc.as_ref().expect("qcc routing");
    assert!(qcc.reliability.is_down(victim));
}

#[test]
fn cancelled_partial_delivery_never_feeds_calibration() {
    let ep = reroute_episode();
    let obs = &ep.scenario.obs;
    let qcc = ep.scenario.qcc.as_ref().expect("qcc routing");

    // `calibration_samples_total` counts exactly what the calibration
    // windows took in (it is incremented where the sample is pushed), and
    // a `fragment` event is journalled at the fragment's start instant for
    // every execution that ran to completion. The truncated episode is
    // pinned here: the victim's samples are its completions that started
    // before the interrupt instant, nothing more.
    let samples =
        |server: &str| obs.counter_value("calibration_samples_total", &[("server", server)]);
    let fragments = obs.events_of("fragment");
    let victim_before_cut = fragments
        .iter()
        .filter(|e| e.str_field("server") == Some(ep.victim.as_str()) && e.at < ep.cut)
        .count() as u64;
    assert_eq!(
        samples(ep.victim.as_str()),
        victim_before_cut,
        "an interrupted fragment must not record a (truncated) calibration sample"
    );
    // Full completions are acknowledged exactly once each; the rescued
    // remainder is journalled as a resumed fragment but is *not* a
    // calibration sample (its response time covers only the tail).
    let resumes = obs.events_of("fragment_resume").len();
    assert!(resumes >= 1, "the episode must actually reroute");
    let total_samples: u64 = ep
        .scenario
        .servers
        .iter()
        .map(|s| samples(s.id().as_str()))
        .sum();
    assert_eq!(
        total_samples as usize,
        fragments.len() - resumes,
        "calibration samples = full fragment completions, excluding resumed remainders"
    );
    // Every surviving calibration input is a finite, positive,
    // whole-fragment observation.
    for e in &fragments {
        let ms = ms_field(e);
        assert!(
            ms > 0.0 && ms.is_finite(),
            "calibration samples stay finite and positive"
        );
    }
    assert!(qcc
        .calibration
        .server_factors()
        .values()
        .all(|f| f.is_finite() && *f > 0.0));
}
