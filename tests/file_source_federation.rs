//! A federated join across a relational source and a *file* source.
//!
//! Per the paper (§1, compile-time step 3), file wrappers return paths
//! without cost estimates; the QCC is then the only way such sources ever
//! become cost-comparable — daemon probes seed a factor and runtime
//! observations refine it (§2: the simulated-catalog machinery exists
//! precisely because "wrappers do not provide cost estimation").

use load_aware_federation::common::{Column, DataType, Row, Schema, ServerId, Value};
use load_aware_federation::federation::{
    Federation, FederationConfig, NicknameCatalog, DEFAULT_UNCOSTED,
};
use load_aware_federation::netsim::{Link, LoadProfile, Network, SimClock};
use load_aware_federation::qcc::{Qcc, QccConfig};
use load_aware_federation::remote::{RemoteServer, ServerProfile};
use load_aware_federation::storage::{Catalog, Table};
use load_aware_federation::wrapper::{file::FlatFile, FileWrapper, RelationalWrapper};
use std::sync::Arc;

fn world() -> (Federation, Arc<Qcc>) {
    // Relational source: a `machines` table on server DB1.
    let machines_schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("rack", DataType::Str),
    ]);
    let mut machines = Table::new("machines", machines_schema.clone());
    for i in 0..50i64 {
        machines
            .insert(Row::new(vec![
                Value::Int(i),
                Value::Str(format!("rack{}", i % 5)),
            ]))
            .unwrap();
    }
    let mut cat = Catalog::new();
    cat.register(machines);
    let db1 = RemoteServer::new(ServerProfile::new(ServerId::new("DB1")), cat);

    // File source: a log file keyed by machine id.
    let logs_schema = Schema::new(vec![
        Column::new("machine_id", DataType::Int),
        Column::new("level", DataType::Str),
    ]);
    let mut log_rows = Vec::new();
    for i in 0..400i64 {
        log_rows.push(Row::new(vec![
            Value::Int(i % 50),
            // i % 7 spreads error lines across machines (and hence racks).
            Value::from(if i % 7 == 0 { "error" } else { "info" }),
        ]));
    }

    let mut network = Network::new();
    network.add_link(ServerId::new("DB1"), Link::lan());
    network.add_link(
        ServerId::new("FS1"),
        Link::new(1.0, 10_000.0, LoadProfile::Constant(0.0)),
    );
    let network = Arc::new(network);

    let file_wrapper = FileWrapper::new(ServerId::new("FS1"), Arc::clone(&network));
    file_wrapper
        .add_file(
            "logs",
            FlatFile {
                schema: logs_schema.clone(),
                rows: log_rows,
            },
        )
        .unwrap();

    let mut nicknames = NicknameCatalog::new();
    nicknames.define("machines", machines_schema);
    nicknames.define("logs", logs_schema);
    nicknames
        .add_source("machines", ServerId::new("DB1"), "machines")
        .unwrap();
    nicknames
        .add_source("logs", ServerId::new("FS1"), "logs")
        .unwrap();

    let qcc = Qcc::new(QccConfig::default());
    let mut fed = Federation::new(
        nicknames,
        SimClock::new(),
        qcc.middleware(),
        FederationConfig::default(),
    );
    fed.add_wrapper(Arc::new(RelationalWrapper::new(db1, network)));
    fed.add_wrapper(Arc::new(file_wrapper));
    (fed, qcc)
}

#[test]
fn join_across_relational_and_file_sources() {
    let (fed, _) = world();
    let out = fed
        .submit(
            "SELECT m.rack, COUNT(*) AS errors FROM machines m JOIN logs l \
             ON l.machine_id = m.id WHERE l.level = 'error' \
             GROUP BY m.rack ORDER BY m.rack",
        )
        .unwrap();
    // Expected counts derived from the same generation rule.
    let mut expected: std::collections::BTreeMap<String, i64> = Default::default();
    for i in (0..400i64).step_by(7) {
        let machine = i % 50;
        *expected.entry(format!("rack{}", machine % 5)).or_insert(0) += 1;
    }
    assert_eq!(out.rows.len(), expected.len());
    for row in &out.rows {
        let rack = row.get(0).as_str().unwrap();
        assert_eq!(row.get(1).as_i64().unwrap(), expected[rack], "{rack}");
    }
    assert_eq!(out.servers.len(), 2, "both source kinds participated");
}

#[test]
fn file_fragments_are_costed_with_the_default_until_calibrated() {
    let (fed, qcc) = world();
    let (_, candidates) = fed
        .explain_global("SELECT level FROM logs WHERE level = 'error'")
        .unwrap();
    assert_eq!(candidates.len(), 1);
    let frag = &candidates[0].fragments[0];
    assert!(frag.plan.cost.is_none(), "file wrapper reports no cost");
    assert!(
        (frag.effective_cost.total() - DEFAULT_UNCOSTED).abs() < 1e-9,
        "uncalibrated file fragments carry the default cost"
    );

    // After a few executions the QCC has learned a real factor for the
    // file source, so future estimates track observed behaviour.
    for _ in 0..3 {
        fed.submit("SELECT level FROM logs WHERE level = 'error'")
            .unwrap();
    }
    let factor = qcc.calibration.server_factor(&ServerId::new("FS1"));
    assert!(
        factor != 1.0,
        "runtime observations must have produced a factor, got {factor}"
    );
    let (_, candidates) = fed
        .explain_global("SELECT level FROM logs WHERE level = 'error'")
        .unwrap();
    let calibrated = candidates[0].fragments[0].effective_cost.total();
    assert!(
        (calibrated - DEFAULT_UNCOSTED).abs() > 1e-6,
        "calibration must move the default cost, got {calibrated}"
    );
}

#[test]
fn file_fragment_filters_before_shipping() {
    let (fed, _) = world();
    let out = fed
        .submit("SELECT machine_id FROM logs WHERE level = 'error' ORDER BY machine_id LIMIT 5")
        .unwrap();
    assert_eq!(out.rows.len(), 5);
    // All shipped rows satisfy the predicate (level column was consumed
    // at the access layer, only machine_id arrives).
    assert!(out.rows.iter().all(|r| r.len() == 1));
}
