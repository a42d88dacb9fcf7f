//! Mid-query failover recovery (PR 10's tentpole): one wide-scan query on
//! a replicated fleet whose source crashes mid-stream, measured twice on
//! the same virtual timeline:
//!
//! * **fault-free** — the streamed execution with no fault, the latency
//!   floor;
//! * **adaptive** — the crash interrupts the stream, the coordinator
//!   cancels and re-dispatches the *remainder* (cursor position) to a
//!   within-band replica, and the query completes.
//!
//! The machine-checkable verdict (`reroute recovery: OK|VIOLATED`)
//! asserts the adaptive run really re-dispatched (`reroute_dispatch >=
//! 1`), completed within 2x the fault-free latency, and returned the exact
//! fault-free row count. `ci.sh` greps the verdict.

use qcc_common::{FieldValue, SimTime};
use qcc_core::QccConfig;
use qcc_workload::scenario::{scale_server_specs, Scenario, ScenarioConfig};

const FLEET: usize = 12;
const SEED: u64 = 77;

/// Wide scan: a multi-chunk fragment stream, so the crash can leave a
/// partially-delivered prefix worth resuming.
const SQL: &str = "SELECT a.id, a.grp FROM big_a a WHERE a.sel > 2000";

fn scenario() -> Scenario {
    Scenario::build_with_qcc(
        QccConfig::default(),
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
        },
    )
}

fn main() {
    // Fault-free floor, plus the victim fragment's timeline (the runs are
    // deterministic, so the faulted runs share it up to the crash).
    let clean = scenario();
    let clean_out = clean.federation.submit(SQL).expect("fault-free run");
    let frags = clean.obs.events_of("fragment");
    let victim_frag = frags
        .iter()
        .max_by(|a, b| {
            let ms = |e: &&qcc_common::Event| match e.field("ms") {
                Some(FieldValue::F64(v)) => *v,
                _ => 0.0,
            };
            ms(a).total_cmp(&ms(b))
        })
        .expect("fragment journalled");
    let victim = victim_frag
        .str_field("server")
        .expect("server field")
        .to_string();
    let frag_start = victim_frag.at.as_millis();
    let frag_ms = match victim_frag.field("ms") {
        Some(FieldValue::F64(v)) => *v,
        _ => 0.0,
    };
    println!(
        "fault-free: {:.3} ms ({} rows, victim fragment {victim} {:.3} ms)",
        clean_out.response_ms,
        clean_out.rows.len(),
        frag_ms
    );

    // Adaptive run: sweep the crash instant across the fragment until the
    // interrupt actually costs delivered chunks (a mid-stream cut), then
    // measure the rerouted completion.
    let mut adaptive: Option<(usize, u64, f64)> = None;
    for frac in [0.55, 0.65, 0.75, 0.85, 0.45, 0.35, 0.25] {
        let cut = frag_start + frac * frag_ms;
        let s = scenario();
        s.server(&victim)
            .availability()
            .add_outage(SimTime::from_millis(cut), SimTime::from_millis(1e12));
        let Ok(out) = s.federation.submit(SQL) else {
            continue;
        };
        let reroutes = s.obs.events_of("reroute_dispatch").len() as u64;
        if reroutes >= 1 {
            adaptive = Some((out.rows.len(), reroutes, out.response_ms));
            break;
        }
    }
    let Some((adaptive_rows, reroutes, adaptive_ms)) = adaptive else {
        println!("reroute recovery: VIOLATED (no crash placement produced a reroute)");
        std::process::exit(1);
    };
    println!("adaptive: {adaptive_ms:.3} ms ({adaptive_rows} rows, {reroutes} reroute(s))");

    let exact = adaptive_rows == clean_out.rows.len();
    let bounded = adaptive_ms <= 2.0 * clean_out.response_ms;
    if exact && bounded {
        println!(
            "reroute recovery: OK (adaptive {adaptive_ms:.3} ms <= 2x fault-free {:.3} ms, \
             exact rows)",
            clean_out.response_ms
        );
    } else {
        println!("reroute recovery: VIOLATED (exact_rows={exact} bounded={bounded})");
        std::process::exit(1);
    }
}
