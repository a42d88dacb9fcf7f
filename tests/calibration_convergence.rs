//! Integration tests for §3's calibration mechanics: factors converge to
//! the true slowdown, track regime changes, and produce better routing
//! than raw estimates.

use load_aware_federation::common::{Column, DataType, Row, Schema, ServerId, Value};
use load_aware_federation::federation::{Federation, FederationConfig, NicknameCatalog};
use load_aware_federation::netsim::{Link, LoadProfile, Network, SimClock};
use load_aware_federation::qcc::{Qcc, QccConfig};
use load_aware_federation::remote::{RemoteServer, ServerProfile};
use load_aware_federation::storage::{Catalog, Table};
use load_aware_federation::wrapper::RelationalWrapper;
use std::sync::Arc;

struct World {
    fast: Arc<RemoteServer>,
    federation: Federation,
    qcc: Arc<Qcc>,
}

fn world() -> World {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("v", DataType::Int),
    ]);
    let mut t = Table::new("t", schema.clone());
    for i in 0..5_000i64 {
        t.insert(Row::new(vec![Value::Int(i), Value::Int(i % 100)]))
            .unwrap();
    }
    let mk = |name: &str, speed: f64| {
        let mut c = Catalog::new();
        c.register(t.clone());
        let mut p = ServerProfile::new(ServerId::new(name));
        p.speed = speed;
        RemoteServer::new(p, c)
    };
    let fast = mk("fast", 2.0);
    let slow = mk("slow", 1.0);
    let mut network = Network::new();
    for n in ["fast", "slow"] {
        network.add_link(ServerId::new(n), Link::lan());
    }
    let network = Arc::new(network);
    let mut nicknames = NicknameCatalog::new();
    nicknames.define("t", schema);
    nicknames
        .add_source("t", ServerId::new("fast"), "t")
        .unwrap();
    nicknames
        .add_source("t", ServerId::new("slow"), "t")
        .unwrap();
    let qcc = Qcc::new(QccConfig::default());
    let mut federation = Federation::new(
        nicknames,
        SimClock::new(),
        qcc.middleware(),
        FederationConfig::default(),
    );
    federation.add_wrapper(Arc::new(RelationalWrapper::new(
        Arc::clone(&fast),
        Arc::clone(&network),
    )));
    federation.add_wrapper(Arc::new(RelationalWrapper::new(slow, network)));
    World {
        fast,
        federation,
        qcc,
    }
}

const SQL: &str = "SELECT v, COUNT(*) AS n FROM t WHERE v < 50 GROUP BY v";

#[test]
fn factor_stabilizes_under_steady_load() {
    let w = world();
    w.fast.load().set_background(LoadProfile::Constant(0.6));
    // Drive enough queries for the window to fill while the fast server
    // is still chosen (its calibrated cost stays competitive at 0.6 load).
    let mut factors = Vec::new();
    for _ in 0..12 {
        let _ = w.federation.submit(SQL).unwrap();
        factors.push(w.qcc.calibration.server_factor(&ServerId::new("fast")));
    }
    let tail: Vec<f64> = factors[factors.len() - 3..].to_vec();
    let spread = tail.iter().cloned().fold(f64::MIN, f64::max)
        - tail.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        spread < 0.05 * tail[0],
        "factor should stabilize, tail = {tail:?}"
    );
    // Under load the factor must exceed 1 (observed > unloaded estimate).
    assert!(tail[0] > 1.5, "loaded server factor {}", tail[0]);
}

#[test]
fn factor_tracks_load_increase() {
    let w = world();
    for _ in 0..6 {
        let _ = w.federation.submit(SQL).unwrap();
    }
    let idle = w.qcc.calibration.server_factor(&ServerId::new("fast"));

    w.fast.load().set_background(LoadProfile::Constant(0.8));
    // The fast server must keep being observed for its factor to track;
    // feed observations even if routing would prefer the slow server by
    // submitting repeatedly (exploration via optimistic windows keeps some
    // traffic on `fast` until its window fills with slow samples).
    for _ in 0..16 {
        let _ = w.federation.submit(SQL).unwrap();
    }
    let loaded = w.qcc.calibration.server_factor(&ServerId::new("fast"));
    // The window mixes pre- and post-load samples (routing shifts away as
    // the factor rises), so require a clear increase rather than the full
    // steady-state ratio.
    assert!(
        loaded > idle * 1.4,
        "factor should rise with load: idle {idle}, loaded {loaded}"
    );
    // Stale-factor caveat (DESIGN.md §8 "Calibration"): once routing avoids
    // `fast`, its factor cannot decay on its own — a re-calibration cycle
    // (reset + daemon probe) refreshes it, as the experiment driver does
    // at phase boundaries.
    w.fast.load().set_background(LoadProfile::Constant(0.0));
    w.qcc.calibration.reset_server(&ServerId::new("fast"));
    for _ in 0..4 {
        let _ = w.federation.submit(SQL).unwrap();
    }
    let recovered = w.qcc.calibration.server_factor(&ServerId::new("fast"));
    assert!(
        recovered < loaded,
        "after reset + fresh observations the factor falls: {recovered} vs {loaded}"
    );
}

#[test]
fn calibrated_routing_prefers_truly_faster_server() {
    // The fast server is loaded enough that the slow-but-idle replica is
    // truly faster. Raw estimates still say "fast"; calibration must
    // flip the choice within a few queries.
    let w = world();
    w.fast.load().set_background(LoadProfile::Constant(0.9));
    // The default config explores an alternative every 8th query of a
    // template (re-calibration), so judge the steady state by majority.
    let mut slow_hits = 0;
    for _ in 0..12 {
        let out = w.federation.submit(SQL).unwrap();
        if out.servers.contains(&qcc_common::ServerId::new("slow")) {
            slow_hits += 1;
        }
    }
    assert!(
        slow_hits >= 9,
        "routing should settle on the idle replica, got {slow_hits}/12"
    );
}

#[test]
fn ii_workload_factor_learns_end_to_end_gap() {
    let w = world();
    for _ in 0..6 {
        let _ = w.federation.submit(SQL).unwrap();
    }
    // The end-to-end observation includes network time the optimizer's
    // cost didn't model, so the workload factor settles somewhere
    // positive and finite (usually ≳1).
    let f = w.qcc.calibration.ii_factor();
    assert!(f.is_finite() && f > 0.1, "ii factor {f}");
}

#[test]
fn records_pair_estimates_with_observations() {
    let w = world();
    let out = w.federation.submit(SQL).unwrap();
    assert!(!out.fragment_times.is_empty());
    assert!(out.estimated_cost > 0.0, "relational fragments are costed");
    assert!(out.fragment_times.iter().all(|(_, ms)| *ms > 0.0));
    // Both candidate servers were consulted at compile time.
    for server in ["fast", "slow"] {
        let explains = w
            .qcc
            .obs
            .counter_value("explain_requests_total", &[("server", server)]);
        assert!(explains >= 1, "{server} was never asked to EXPLAIN");
    }
}

#[test]
fn a_fragment_never_seen_is_costed_with_its_servers_factor() {
    // Figure 5: a fragment with no runtime history gets the wrapper's raw
    // estimate times its server's calibration factor — "instead of
    // returning this estimated cost directly, MW calibrates the cost".
    let w = world();
    w.fast.load().set_background(LoadProfile::Constant(0.6));
    for _ in 0..12 {
        let _ = w.federation.submit(SQL).unwrap();
    }
    let fast = ServerId::new("fast");
    let factor = w.qcc.calibration.server_factor(&fast);
    assert!(
        factor > 1.5,
        "the loaded server has learned a factor: {factor}"
    );

    let new_sql = "SELECT id FROM t WHERE id < 10";
    let (_, candidates) = w.federation.explain_global(new_sql).unwrap();
    let mut costed = 0;
    for fragment in candidates.iter().flat_map(|c| &c.fragments) {
        if fragment.plan.server != fast {
            continue;
        }
        let raw = fragment.plan.cost.expect("relational plans are costed");
        assert_eq!(
            fragment.effective_cost.total().to_bits(),
            raw.calibrate(factor).total().to_bits(),
            "never-seen fragment at {fast}: raw {} × factor {factor}",
            raw.total()
        );
        costed += 1;
    }
    assert!(costed > 0, "no candidate fragment on {fast}");
}
