//! Quickstart: build a small federation with a replicated table, attach
//! the Query Cost Calibrator, and watch routing adapt when a server gets
//! loaded.
//!
//! Run with: `cargo run --release --example quickstart`

use load_aware_federation::common::{Column, DataType, Row, Schema, ServerId, Value};
use load_aware_federation::federation::{Federation, FederationConfig, NicknameCatalog};
use load_aware_federation::netsim::{Link, LoadProfile, Network, SimClock};
use load_aware_federation::qcc::{Qcc, QccConfig};
use load_aware_federation::remote::{RemoteServer, ServerProfile};
use load_aware_federation::storage::{Catalog, Table};
use load_aware_federation::wrapper::RelationalWrapper;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Data: an `events` table, replicated on two servers.
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("kind", DataType::Str),
        Column::new("amount", DataType::Float),
    ]);
    let mut events = Table::new("events", schema.clone());
    for i in 0..20_000i64 {
        events.insert(Row::new(vec![
            Value::Int(i),
            Value::from(if i % 3 == 0 { "click" } else { "view" }),
            Value::Float((i % 97) as f64),
        ]))?;
    }

    // 2. Two remote servers: `fast` has twice the CPU of `slow`.
    let make_server = |name: &str, speed: f64| {
        let mut catalog = Catalog::new();
        catalog.register(events.clone());
        let mut profile = ServerProfile::new(ServerId::new(name));
        profile.speed = speed;
        RemoteServer::new(profile, catalog)
    };
    let fast = make_server("fast", 2.0);
    let slow = make_server("slow", 1.0);

    // 3. Network links from the integrator to each server.
    let mut network = Network::new();
    network.add_link(
        ServerId::new("fast"),
        Link::new(5.0, 20_000.0, LoadProfile::Constant(0.0)),
    );
    network.add_link(
        ServerId::new("slow"),
        Link::new(5.0, 20_000.0, LoadProfile::Constant(0.0)),
    );
    let network = Arc::new(network);

    // 4. Nicknames: `events` resolves to either replica.
    let mut nicknames = NicknameCatalog::new();
    nicknames.define("events", schema);
    nicknames.add_source("events", ServerId::new("fast"), "events")?;
    nicknames.add_source("events", ServerId::new("slow"), "events")?;

    // 5. The QCC middleware plus the federation, journaling into the
    // QCC's observability handle.
    let qcc = Qcc::new(QccConfig::default());
    let clock = SimClock::new();
    let mut federation = Federation::new(
        nicknames,
        clock.clone(),
        qcc.middleware(),
        FederationConfig::default(),
    );
    federation.set_obs(qcc.obs.clone());
    federation.add_wrapper(Arc::new(RelationalWrapper::new(
        Arc::clone(&fast),
        Arc::clone(&network),
    )));
    federation.add_wrapper(Arc::new(RelationalWrapper::new(Arc::clone(&slow), network)));

    let sql = "SELECT kind, COUNT(*) AS n, AVG(amount) AS avg_amount \
               FROM events WHERE amount > 10.0 GROUP BY kind ORDER BY kind";

    // 6a. EXPLAIN: see the decomposition and the costed candidates before
    // anything executes.
    let (decomposed, candidates) = federation.explain_global(sql)?;
    println!(
        "{}",
        load_aware_federation::federation::render_explain(&decomposed, &candidates)
    );

    // 6b. Unloaded: the fast server wins on raw cost.
    println!("--- unloaded ---");
    for _ in 0..3 {
        let out = federation.submit(sql)?;
        println!(
            "routed to {:?}, response {:.2} ms, {} rows",
            out.servers
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
            out.response_ms,
            out.rows.len()
        );
        for row in &out.rows {
            println!("   {row}");
        }
    }

    // 7. Load the fast server: its observed times inflate, the calibration
    // factor rises, and the QCC re-routes to the slow-but-idle replica.
    println!("--- fast server now heavily loaded ---");
    fast.load().set_background(LoadProfile::Constant(0.9));
    for i in 0..6 {
        let out = federation.submit(sql)?;
        let factor = qcc.calibration.server_factor(&ServerId::new("fast"));
        println!(
            "query {i}: routed to {:?}, response {:.2} ms (fast's calibration factor: {factor:.2})",
            out.servers
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
            out.response_ms,
        );
    }

    // 8. The journal kept the run's history; the counters keep the tallies.
    println!(
        "--- {} queries answered, {} journal events, virtual time is {} ---",
        qcc.obs.counter_value("queries_total", &[("status", "ok")]),
        qcc.obs.journal_len(),
        clock.now()
    );
    Ok(())
}
