//! The paper's §3 worked example, end to end (Figures 3–6).
//!
//! A federated query `Q1` integrates two sources, `S1` and `S2`. At
//! compile time, the wrappers return plans with estimated costs; at run
//! time, the meta-wrapper observes the real response times; the QCC
//! derives per-server calibration factors as the ratio of observed to
//! estimated cost; and a *new* query `Q5` — containing a fragment never
//! seen before — is costed with the calibrated estimate instead of the
//! raw one, exactly as Figure 5 shows.
//!
//! Run with: `cargo run --release --example calibration_walkthrough`

use load_aware_federation::common::{Column, DataType, Row, Schema, ServerId, Value};
use load_aware_federation::federation::{Federation, FederationConfig, NicknameCatalog};
use load_aware_federation::netsim::{Link, LoadProfile, Network, SimClock};
use load_aware_federation::qcc::{Qcc, QccConfig};
use load_aware_federation::remote::{RemoteServer, ServerProfile};
use load_aware_federation::storage::{Catalog, Table};
use load_aware_federation::wrapper::RelationalWrapper;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // S1 hosts `inventory`, S2 hosts `suppliers` — both also host a
    // `parts` table Q5 will touch for the first time later.
    let inventory_schema = Schema::new(vec![
        Column::new("part_id", DataType::Int),
        Column::new("warehouse", DataType::Int),
        Column::new("qty", DataType::Int),
    ]);
    let suppliers_schema = Schema::new(vec![
        Column::new("part_id", DataType::Int),
        Column::new("name", DataType::Str),
    ]);
    let parts_schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("weight", DataType::Float),
    ]);

    let mut inventory = Table::new("inventory", inventory_schema.clone());
    for i in 0..30_000i64 {
        inventory.insert(Row::new(vec![
            Value::Int(i % 5_000),
            Value::Int(i % 7),
            Value::Int(i % 100),
        ]))?;
    }
    let mut suppliers = Table::new("suppliers", suppliers_schema.clone());
    for i in 0..5_000i64 {
        suppliers.insert(Row::new(vec![
            Value::Int(i),
            Value::Str(format!("supplier_{i}")),
        ]))?;
    }
    let mut parts = Table::new("parts", parts_schema.clone());
    for i in 0..5_000i64 {
        parts.insert(Row::new(vec![Value::Int(i), Value::Float((i % 50) as f64)]))?;
    }

    let mut cat1 = Catalog::new();
    cat1.register(inventory);
    cat1.register(parts.clone());
    let mut cat2 = Catalog::new();
    cat2.register(suppliers);
    cat2.register(parts);

    let s1 = RemoteServer::new(ServerProfile::new(ServerId::new("S1")), cat1);
    let s2 = RemoteServer::new(ServerProfile::new(ServerId::new("S2")), cat2);

    let mut network = Network::new();
    for id in ["S1", "S2"] {
        network.add_link(
            ServerId::new(id),
            Link::new(3.0, 30_000.0, LoadProfile::Constant(0.0)),
        );
    }
    let network = Arc::new(network);

    let mut nicknames = NicknameCatalog::new();
    nicknames.define("inventory", inventory_schema);
    nicknames.define("suppliers", suppliers_schema);
    nicknames.define("parts", parts_schema);
    nicknames.add_source("inventory", ServerId::new("S1"), "inventory")?;
    nicknames.add_source("suppliers", ServerId::new("S2"), "suppliers")?;
    nicknames.add_source("parts", ServerId::new("S2"), "parts")?;

    let qcc = Qcc::new(QccConfig::default());
    let clock = SimClock::new();
    let mut federation = Federation::new(
        nicknames,
        clock,
        qcc.middleware(),
        FederationConfig::default(),
    );
    federation.add_wrapper(Arc::new(RelationalWrapper::new(
        Arc::clone(&s1),
        Arc::clone(&network),
    )));
    federation.add_wrapper(Arc::new(RelationalWrapper::new(Arc::clone(&s2), network)));

    // Both sources are quietly under load the optimizer knows nothing
    // about — the gap the calibrator will discover.
    s1.load().set_background(LoadProfile::Constant(0.60));
    s2.load().set_background(LoadProfile::Constant(0.45));

    // ---- Compile + run Q1 (Figures 3 and 4) ----
    let q1 = "SELECT s.name, SUM(i.qty) AS total \
              FROM inventory i JOIN suppliers s ON i.part_id = s.part_id \
              WHERE i.warehouse = 3 GROUP BY s.name ORDER BY total DESC LIMIT 5";
    println!("Q1: {q1}\n");
    // Compile time (Figure 3): the wrappers' plans and estimated costs.
    let (_, candidates) = federation.explain_global(q1)?;
    let out = federation.submit(q1)?;
    println!("Q1 executed on {:?}; fragment response times:", out.servers);
    for (server, ms) in &out.fragment_times {
        println!("   {server}: observed {ms:.2} ms");
    }

    // The meta-wrapper paired each fragment's estimate with its observed
    // time; the QCC turned the pairs into per-server calibration factors
    // (Figure 4's 8/5 = 1.6 and 7/5 = 1.4 computation, with our numbers).
    let executed = candidates
        .iter()
        .find(|c| c.signature() == out.chosen_signature)
        .ok_or("the executed plan was not among the compiled candidates")?;
    println!("\nEstimated vs observed, per fragment of the executed plan:");
    for (i, (f, (server, observed))) in executed
        .fragments
        .iter()
        .zip(&out.fragment_times)
        .enumerate()
    {
        let estimated = f.plan.cost.map(|c| c.total()).unwrap_or(f64::NAN);
        println!(
            "   fragment {i} @ {server}: estimated {estimated:.2}, observed {observed:.2} → ratio {:.2}",
            observed / estimated
        );
    }
    for id in ["S1", "S2"] {
        println!(
            "QCC calibration factor for {id}: {:.3}",
            qcc.calibration.server_factor(&ServerId::new(id))
        );
    }

    // ---- Q5: a fragment never seen before (Figure 5) ----
    // `parts` lives on S2; its fragment has no runtime history, so the
    // meta-wrapper returns the wrapper's estimate multiplied by S2's
    // *server* calibration factor — "instead of returning this estimated
    // cost directly, MW calibrates the cost".
    let q5 = "SELECT i.warehouse, COUNT(*) AS n \
              FROM inventory i JOIN parts p ON i.part_id = p.id \
              WHERE p.weight > 25.0 GROUP BY i.warehouse";
    println!("\nQ5 (new fragment on S2): {q5}\n");
    let (_, candidates) = federation.explain_global(q5)?;
    for cand in candidates.iter().take(3) {
        for f in &cand.fragments {
            let raw = f.plan.cost.map(|c| c.total()).unwrap_or(f64::NAN);
            println!(
                "   candidate fragment @ {}: raw estimate {:.2} → calibrated {:.2} ({}x)",
                f.plan.server,
                raw,
                f.effective_cost.total(),
                f.effective_cost.total() / raw
            );
        }
    }
    let out = federation.submit(q5)?;
    println!(
        "\nQ5 executed on {:?} in {:.2} ms ({} rows)",
        out.servers,
        out.response_ms,
        out.rows.len()
    );
    Ok(())
}
