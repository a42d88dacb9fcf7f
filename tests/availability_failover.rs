//! Integration tests for §3.3: availability detection, cost pinning,
//! re-routing, recovery, and the reliability factor for flaky servers.

use load_aware_federation::common::{
    Column, DataType, QccError, Row, Schema, ServerId, SimDuration, SimTime, Value,
};
use load_aware_federation::federation::{
    Federation, FederationConfig, NicknameCatalog, PassthroughMiddleware,
};
use load_aware_federation::netsim::{Link, Network, SimClock};
use load_aware_federation::qcc::{AvailabilityDaemon, Qcc, QccConfig};
use load_aware_federation::remote::{RemoteServer, ServerProfile};
use load_aware_federation::storage::{Catalog, Table};
use load_aware_federation::wrapper::{RelationalWrapper, Wrapper};
use std::sync::Arc;

const SQL: &str = "SELECT COUNT(*) FROM data WHERE v > 10";

struct World {
    primary: Arc<RemoteServer>,
    backup: Arc<RemoteServer>,
    clock: SimClock,
    federation: Federation,
    qcc: Arc<Qcc>,
    daemon: AvailabilityDaemon,
}

/// A primary/backup world whose primary faults at `primary_fault_rate`
/// for the whole run (one fault window spanning it).
fn world(primary_fault_rate: f64) -> World {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("v", DataType::Int),
    ]);
    let mut data = Table::new("data", schema.clone());
    for i in 0..2_000i64 {
        data.insert(Row::new(vec![Value::Int(i), Value::Int(i % 100)]))
            .unwrap();
    }
    let mk = |name: &str, speed: f64| {
        let mut c = Catalog::new();
        c.register(data.clone());
        let mut p = ServerProfile::new(ServerId::new(name));
        p.speed = speed;
        RemoteServer::new(p, c)
    };
    let primary = mk("primary", 2.0);
    primary.faults().add_window(
        SimTime::ZERO,
        SimTime::from_millis(f64::INFINITY),
        primary_fault_rate,
    );
    let backup = mk("backup", 1.0);
    let mut network = Network::new();
    for n in ["primary", "backup"] {
        network.add_link(ServerId::new(n), Link::lan());
    }
    let network = Arc::new(network);
    let mut nicknames = NicknameCatalog::new();
    nicknames.define("data", schema);
    nicknames
        .add_source("data", ServerId::new("primary"), "data")
        .unwrap();
    nicknames
        .add_source("data", ServerId::new("backup"), "data")
        .unwrap();
    let qcc = Qcc::new(QccConfig {
        probe_interval_ms: 100.0,
        ..QccConfig::default()
    });
    let clock = SimClock::new();
    let mut federation = Federation::new(
        nicknames,
        clock.clone(),
        qcc.middleware(),
        FederationConfig::default(),
    );
    let wrappers: Vec<Arc<dyn Wrapper>> = vec![
        Arc::new(RelationalWrapper::new(
            Arc::clone(&primary),
            Arc::clone(&network),
        )),
        Arc::new(RelationalWrapper::new(Arc::clone(&backup), network)),
    ];
    for w in &wrappers {
        federation.add_wrapper(Arc::clone(w));
    }
    let daemon = AvailabilityDaemon::new(Arc::clone(&qcc), wrappers, clock.clone());
    World {
        primary,
        backup,
        clock,
        federation,
        qcc,
        daemon,
    }
}

#[test]
fn outage_triggers_reroute_and_recovery_restores() {
    let w = world(0.0);
    // Healthy: fast primary serves.
    let out = w.federation.submit(SQL).unwrap();
    assert!(out.servers.contains(&ServerId::new("primary")));

    // Outage window on the virtual timeline.
    let t0 = w.clock.now();
    w.primary
        .availability()
        .add_outage(t0, t0 + SimDuration::from_millis(1_000.0));

    // Mid-outage: the submit discovers the failure at compile time (the
    // wrapper errors), the MW records it, and the query lands on backup.
    let out = w.federation.submit(SQL).unwrap();
    assert!(
        out.servers.contains(&ServerId::new("backup")),
        "re-routed during outage, got {:?}",
        out.servers
    );
    assert!(w.qcc.reliability.is_down(&ServerId::new("primary")));
    assert_eq!(
        w.qcc.reliability.factor(&ServerId::new("primary")),
        f64::INFINITY
    );

    // While believed down, the MW does not even consult the server.
    let out = w.federation.submit(SQL).unwrap();
    assert!(out.servers.contains(&ServerId::new("backup")));

    // After the outage a daemon probe revives it...
    w.clock.advance(SimDuration::from_millis(2_000.0));
    w.daemon.run_due_probes();
    assert!(!w.qcc.reliability.is_down(&ServerId::new("primary")));
    assert!(w
        .qcc
        .reliability
        .factor(&ServerId::new("primary"))
        .is_finite());
}

#[test]
fn all_sources_down_fails_cleanly() {
    let w = world(0.0);
    let t0 = w.clock.now();
    let long = t0 + SimDuration::from_millis(1e9);
    w.primary.availability().add_outage(t0, long);
    w.backup.availability().add_outage(t0, long);
    let err = w.federation.submit(SQL).unwrap_err();
    assert!(
        matches!(err, QccError::NoViablePlan(_)),
        "expected NoViablePlan, got {err}"
    );
}

#[test]
fn flaky_server_is_penalized_until_reliable() {
    let w = world(0.35);
    // Submit a batch: primary faults get recorded; the reliability factor
    // inflates primary's costs; routing shifts toward backup.
    let mut backup_hits = 0;
    for _ in 0..30 {
        if let Ok(out) = w.federation.submit(SQL) {
            if out.servers.contains(&ServerId::new("backup")) {
                backup_hits += 1;
            }
        }
    }
    assert!(
        w.qcc.reliability.error_rate(&ServerId::new("primary")) > 0.0,
        "faults recorded"
    );
    assert!(
        backup_hits > 0,
        "reliability penalty should divert some traffic to backup"
    );
    // The meta-wrapper counted the failed requests against the server.
    let failures = w
        .qcc
        .obs
        .counter_value("fragment_failures_total", &[("server", "primary")]);
    assert!(failures >= 1, "primary's failures are counted");
}

#[test]
fn faults_are_retried_within_one_query() {
    // Even with a fault rate, most submissions succeed because the
    // federation re-routes to a healthy candidate within the same query.
    let w = world(0.5);
    let mut ok = 0;
    for _ in 0..20 {
        if w.federation.submit(SQL).is_ok() {
            ok += 1;
        }
    }
    assert!(
        ok >= 18,
        "retry should mask most transient faults, got {ok}/20"
    );
}

#[test]
fn runtime_fault_fails_over_within_the_same_query() {
    // Fault rate 1.0: the primary always answers EXPLAIN (compile is not
    // subject to faults) but always fails EXECUTE. The federation must
    // ban it mid-query and finish on the backup, deterministically.
    let w = world(1.0);
    let out = w.federation.submit(SQL).unwrap();
    assert!(
        out.servers.contains(&ServerId::new("backup")),
        "failed over to {:?}",
        out.servers
    );
    // The fault is in the failure counter and the reliability state.
    assert!(w.qcc.reliability.error_rate(&ServerId::new("primary")) > 0.0);
    let failures = w
        .qcc
        .obs
        .counter_value("fragment_failures_total", &[("server", "primary")]);
    assert!(failures >= 1, "primary's failed EXECUTE is counted");
}

#[test]
fn baseline_without_qcc_does_not_track_availability() {
    // The same outage under a passthrough middleware: the federation still
    // retries (compile-time skip of dead servers), but nothing learns —
    // no reliability state exists. This pins down what the QCC adds.
    let schema = Schema::new(vec![Column::new("id", DataType::Int)]);
    let mut data = Table::new("data", schema.clone());
    for i in 0..100i64 {
        data.insert(Row::new(vec![Value::Int(i)])).unwrap();
    }
    let mut c1 = Catalog::new();
    c1.register(data.clone());
    let mut c2 = Catalog::new();
    c2.register(data);
    let p = RemoteServer::new(ServerProfile::new(ServerId::new("p")), c1);
    let b = RemoteServer::new(ServerProfile::new(ServerId::new("b")), c2);
    let mut net = Network::new();
    net.add_link(ServerId::new("p"), Link::lan());
    net.add_link(ServerId::new("b"), Link::lan());
    let net = Arc::new(net);
    let mut nicknames = NicknameCatalog::new();
    nicknames.define("data", schema);
    nicknames
        .add_source("data", ServerId::new("p"), "data")
        .unwrap();
    nicknames
        .add_source("data", ServerId::new("b"), "data")
        .unwrap();
    let clock = SimClock::new();
    let mut fed = Federation::new(
        nicknames,
        clock.clone(),
        Arc::new(PassthroughMiddleware::default()),
        FederationConfig::default(),
    );
    fed.add_wrapper(Arc::new(RelationalWrapper::new(
        Arc::clone(&p),
        Arc::clone(&net),
    )));
    fed.add_wrapper(Arc::new(RelationalWrapper::new(b, net)));

    p.availability()
        .add_outage(SimTime::ZERO, SimTime::from_millis(1e9));
    // Queries still succeed via the surviving replica...
    let out = fed.submit("SELECT COUNT(*) FROM data").unwrap();
    assert!(out.servers.contains(&ServerId::new("b")));
    // ...but every single compile re-contacts the dead server (no memory),
    // which is precisely the cost QCC's availability state removes.
}
