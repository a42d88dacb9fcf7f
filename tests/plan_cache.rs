//! The meta-wrapper plan cache (Figure 5: *"MW can compute the calibrated
//! runtime cost without having to consult the wrapper"*).

use load_aware_federation::common::{Column, DataType, Row, Schema, ServerId, Value};
use load_aware_federation::federation::{Federation, FederationConfig, NicknameCatalog};
use load_aware_federation::netsim::{Link, LoadProfile, Network, SimClock};
use load_aware_federation::qcc::{Qcc, QccConfig};
use load_aware_federation::remote::{RemoteServer, ServerProfile};
use load_aware_federation::storage::{Catalog, Table};
use load_aware_federation::wrapper::RelationalWrapper;
use std::sync::Arc;

const SQL: &str = "SELECT COUNT(*) FROM t WHERE v > 3";

fn world() -> (Federation, Arc<Qcc>) {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("v", DataType::Int),
    ]);
    let mut t = Table::new("t", schema.clone());
    for i in 0..500i64 {
        t.insert(Row::new(vec![Value::Int(i), Value::Int(i % 10)]))
            .unwrap();
    }
    let mut c = Catalog::new();
    c.register(t);
    let server = RemoteServer::new(ServerProfile::new(ServerId::new("S1")), c);
    let mut net = Network::new();
    // A slow link makes the saved EXPLAIN round trip visible.
    net.add_link(
        ServerId::new("S1"),
        Link::new(20.0, 50_000.0, LoadProfile::Constant(0.0)),
    );
    let mut nicknames = NicknameCatalog::new();
    nicknames.define("t", schema);
    nicknames.add_source("t", ServerId::new("S1"), "t").unwrap();
    let qcc = Qcc::new(QccConfig::default());
    let mut fed = Federation::new(
        nicknames,
        SimClock::new(),
        qcc.middleware(),
        FederationConfig::default(),
    );
    fed.add_wrapper(Arc::new(RelationalWrapper::new(server, Arc::new(net))));
    (fed, qcc)
}

#[test]
fn repeated_statement_skips_the_explain_round_trip() {
    let (fed, qcc) = world();
    let first = fed.submit(SQL).unwrap();
    let second = fed.submit(SQL).unwrap();
    assert!(
        second.response_ms < first.response_ms - 30.0,
        "cache hit saves the EXPLAIN RTT: {} vs {}",
        first.response_ms,
        second.response_ms
    );
    let (hits, misses) = qcc.plan_cache.stats();
    assert!(hits >= 1, "hits {hits}");
    assert!(misses >= 1, "misses {misses}");
    // Results are identical either way.
    assert_eq!(first.rows, second.rows);
}

#[test]
fn cached_plans_are_recalibrated_with_fresh_factors() {
    let (fed, qcc) = world();
    fed.submit(SQL).unwrap();
    let factor_before = qcc.calibration.server_factor(&ServerId::new("S1"));
    // Force a very different factor and recompile from cache: the
    // effective cost must reflect the new factor, not the cached one.
    qcc.calibration.reset_server(&ServerId::new("S1"));
    qcc.calibration
        .record_fragment(&ServerId::new("S1"), "ignored", 1.0, 50.0);
    let (_, candidates) = fed.explain_global(SQL).unwrap();
    let effective = candidates[0].fragments[0].effective_cost.total();
    let raw = candidates[0].fragments[0]
        .plan
        .cost
        .map(|c| c.total())
        .unwrap();
    assert!(
        (effective / raw - 50.0).abs() < 1e-6,
        "fresh factor applied to cached plan: {} vs raw {raw} (old factor {factor_before})",
        effective
    );
}
