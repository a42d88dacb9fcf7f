//! Availability-aware routing (§3.3): a remote source goes down
//! mid-workload; the QCC detects it (failed fragments + daemon probes), pins
//! its cost to infinity so no fragments route there, and re-admits it once
//! probes see it back up. The whole story is replayed from the qcc-obs
//! journal and metrics registry at the end (DESIGN.md §13).
//!
//! Run with: `cargo run --release --example failover_availability`

use load_aware_federation::common::{
    Column, DataType, Obs, Row, Schema, ServerId, SimDuration, SimTime, Value,
};
use load_aware_federation::federation::{Federation, FederationConfig, NicknameCatalog};
use load_aware_federation::netsim::{Link, LoadProfile, Network, SimClock};
use load_aware_federation::qcc::{AvailabilityDaemon, Qcc, QccConfig};
use load_aware_federation::remote::{RemoteServer, ServerProfile};
use load_aware_federation::storage::{Catalog, Table};
use load_aware_federation::wrapper::{RelationalWrapper, Wrapper};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("v", DataType::Int),
    ]);
    let mut metrics = Table::new("metrics", schema.clone());
    for i in 0..10_000i64 {
        metrics.insert(Row::new(vec![Value::Int(i), Value::Int(i % 50)]))?;
    }

    // `primary` is fast; `backup` is slower but steady.
    let mk = |name: &str, speed: f64| {
        let mut c = Catalog::new();
        c.register(metrics.clone());
        let mut p = ServerProfile::new(ServerId::new(name));
        p.speed = speed;
        RemoteServer::new(p, c)
    };
    let primary = mk("primary", 2.0);
    let backup = mk("backup", 1.0);

    let mut network = Network::new();
    for n in ["primary", "backup"] {
        network.add_link(
            ServerId::new(n),
            Link::new(2.0, 50_000.0, LoadProfile::Constant(0.0)),
        );
    }
    let network = Arc::new(network);

    let mut nicknames = NicknameCatalog::new();
    nicknames.define("metrics", schema);
    nicknames.add_source("metrics", ServerId::new("primary"), "metrics")?;
    nicknames.add_source("metrics", ServerId::new("backup"), "metrics")?;

    let obs = Obs::new();
    let qcc = Qcc::with_obs(
        QccConfig {
            probe_interval_ms: 500.0,
            ..QccConfig::default()
        },
        obs.clone(),
    );
    let clock = SimClock::new();
    let mut federation = Federation::new(
        nicknames,
        clock.clone(),
        qcc.middleware(),
        FederationConfig::default(),
    );
    federation.set_obs(obs.clone());
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

    // Schedule an outage of the primary on the virtual timeline.
    let outage_start = SimTime::from_millis(400.0);
    let outage_end = SimTime::from_millis(2_500.0);
    primary.availability().add_outage(outage_start, outage_end);
    println!(
        "primary will be down during [{outage_start}, t={:.0}ms)",
        outage_end.as_millis()
    );

    let sql = "SELECT v, COUNT(*) AS n FROM metrics WHERE v < 10 GROUP BY v";
    for step in 0..14 {
        // The daemon probes on its own cadence as virtual time advances.
        daemon.run_due_probes();
        match federation.submit(sql) {
            Ok(out) => {
                let down = qcc.reliability.is_down(&ServerId::new("primary"));
                let reliability = qcc.reliability.factor(&ServerId::new("primary"));
                println!(
                    "[{:8}] query {step:2} → {:?} in {:.2} ms (primary believed {}, reliability factor {:.2})",
                    clock.now().to_string(),
                    out.servers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
                    out.response_ms,
                    if down { "DOWN" } else { "up" },
                    reliability,
                );
            }
            Err(e) => println!("[{:8}] query {step:2} failed: {e}", clock.now().to_string()),
        }
        // Idle gap between queries so the timeline crosses the outage.
        clock.advance(SimDuration::from_millis(250.0));
    }

    // Note the tail of the run: even after the primary is back up, the
    // QCC keeps routing to the backup for a while — the reliability
    // factor (§3.3) penalizes the recently-flaky server until its error
    // window washes out: "access not only high performance but also
    // highly available remote servers."
    println!("\nErrors the meta-wrapper captured:");
    for name in ["primary", "backup"] {
        println!(
            "   {name}: {} failed fragment requests",
            obs.counter_value("fragment_failures_total", &[("server", name)])
        );
    }
    for e in obs.events_of("server_down") {
        let server = e.str_field("server").unwrap_or_default();
        println!("   [{}] {server}: marked down", e.at);
    }
    for e in obs.events_of("query_failed") {
        let error = e.str_field("error").unwrap_or_default();
        println!("   [{}] query failed: {error}", e.at);
    }

    // The same story, machine-readable: every ban, reroute, probe and
    // recovery landed in the qcc-obs journal as it happened, and the
    // registry kept the tallies.
    println!("\nqcc-obs journal (JSONL, virtual timestamps):");
    for line in obs.journal_snapshot().lines() {
        println!("   {line}");
    }
    println!("\nqcc-obs metrics snapshot:");
    for line in obs.metrics_snapshot().lines() {
        println!("   {line}");
    }
    Ok(())
}
