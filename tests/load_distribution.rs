//! Integration tests for §4's load distribution over the Figure 7/8
//! scenario: origin servers S1 and S2 with replicas R1 and R2, and a
//! federated join Q6 across the two nicknames.

use load_aware_federation::common::{Column, DataType, Row, Schema, ServerId, Value};
use load_aware_federation::federation::{Federation, FederationConfig, NicknameCatalog};
use load_aware_federation::netsim::{Link, Network, SimClock};
use load_aware_federation::qcc::{LoadBalanceMode, Qcc, QccConfig, SimulatedFederation};
use load_aware_federation::remote::{RemoteServer, ServerProfile};
use load_aware_federation::storage::{Catalog, Table};
use load_aware_federation::wrapper::RelationalWrapper;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

const Q6: &str = "SELECT c.seg, COUNT(*) AS n FROM orders o JOIN customers c \
                  ON o.cust = c.id GROUP BY c.seg";

struct World {
    servers: Vec<Arc<RemoteServer>>,
    nicknames: NicknameCatalog,
    network: Arc<Network>,
}

fn world() -> World {
    let orders_schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("cust", DataType::Int),
    ]);
    let customers_schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("seg", DataType::Str),
    ]);
    let mut orders = Table::new("orders", orders_schema.clone());
    for i in 0..5_000i64 {
        orders
            .insert(Row::new(vec![Value::Int(i), Value::Int(i % 100)]))
            .unwrap();
    }
    let mut customers = Table::new("customers", customers_schema.clone());
    for i in 0..100i64 {
        customers
            .insert(Row::new(vec![
                Value::Int(i),
                Value::from(if i % 2 == 0 { "a" } else { "b" }),
            ]))
            .unwrap();
    }
    let make = |id: &str, t: &Table| {
        let mut c = Catalog::new();
        c.register(t.clone());
        RemoteServer::new(ServerProfile::new(ServerId::new(id)), c)
    };
    let servers = vec![
        make("S1", &orders),
        make("R1", &orders),
        make("S2", &customers),
        make("R2", &customers),
    ];
    let mut network = Network::new();
    for s in &servers {
        network.add_link(s.id().clone(), Link::lan());
    }
    let mut nicknames = NicknameCatalog::new();
    nicknames.define("orders", orders_schema);
    nicknames.define("customers", customers_schema);
    for (nick, srv) in [
        ("orders", "S1"),
        ("orders", "R1"),
        ("customers", "S2"),
        ("customers", "R2"),
    ] {
        nicknames
            .add_source(nick, ServerId::new(srv), nick)
            .unwrap();
    }
    World {
        servers,
        nicknames,
        network: Arc::new(network),
    }
}

fn federation(world: &World, config: QccConfig) -> (Federation, Arc<Qcc>) {
    let qcc = Qcc::new(config);
    let mut fed = Federation::new(
        world.nicknames.clone(),
        SimClock::new(),
        qcc.middleware(),
        FederationConfig::default(),
    );
    for s in &world.servers {
        fed.add_wrapper(Arc::new(RelationalWrapper::new(
            Arc::clone(s),
            Arc::clone(&world.network),
        )));
    }
    (fed, qcc)
}

fn server_sets(fed: &Federation, n: usize) -> Vec<BTreeSet<String>> {
    (0..n)
        .map(|_| {
            fed.submit(Q6)
                .expect("Q6 executes")
                .servers
                .iter()
                .map(|s| s.to_string())
                .collect()
        })
        .collect()
}

#[test]
fn without_calibration_one_server_set_takes_all() {
    // A pure cost-based federation (no QCC) sticks to the single cheapest
    // plan forever — the hot-spot behaviour §4 sets out to fix. (With the
    // QCC attached, even without round-robin the calibrator explores:
    // an unobserved replica's estimate stays optimistic, so equal replicas
    // alternate. That drift is calibration, not load balancing.)
    let w = world();
    let mut fed = Federation::new(
        w.nicknames.clone(),
        SimClock::new(),
        Arc::new(load_aware_federation::federation::PassthroughMiddleware::default()),
        FederationConfig::default(),
    );
    for s in &w.servers {
        fed.add_wrapper(Arc::new(RelationalWrapper::new(
            Arc::clone(s),
            Arc::clone(&w.network),
        )));
    }
    let sets = server_sets(&fed, 8);
    let distinct: BTreeSet<_> = sets.into_iter().collect();
    assert_eq!(
        distinct.len(),
        1,
        "cheapest-only routing must stick to one server pair, got {distinct:?}"
    );
}

#[test]
fn global_level_rotation_spreads_over_all_replica_pairs() {
    let w = world();
    let (fed, _) = federation(
        &w,
        QccConfig::with_load_balance(LoadBalanceMode::GlobalLevel),
    );
    let sets = server_sets(&fed, 12);
    let distinct: BTreeSet<_> = sets.iter().cloned().collect();
    // All servers equal → all four pairs are within the 20% band.
    assert!(
        distinct.len() >= 3,
        "rotation should cover several server sets, got {distinct:?}"
    );
    // Every server participates.
    let mut participation: HashMap<String, usize> = HashMap::new();
    for set in &sets {
        for s in set {
            *participation.entry(s.clone()).or_insert(0) += 1;
        }
    }
    for id in ["S1", "R1", "S2", "R2"] {
        assert!(
            participation.get(id).copied().unwrap_or(0) > 0,
            "{id} never used: {participation:?}"
        );
    }
}

#[test]
fn fragment_level_rotation_requires_identical_plans() {
    let w = world();
    let (fed, _) = federation(
        &w,
        QccConfig::with_load_balance(LoadBalanceMode::FragmentLevel),
    );
    // Replicas hold identical data and catalogs, so the same plan shape
    // exists on the replica — rotation is allowed and spreads load.
    let sets = server_sets(&fed, 12);
    let distinct: BTreeSet<_> = sets.into_iter().collect();
    assert!(distinct.len() >= 2, "got {distinct:?}");
}

#[test]
fn rotation_preserves_results() {
    let w = world();
    let (fed, _) = federation(
        &w,
        QccConfig::with_load_balance(LoadBalanceMode::GlobalLevel),
    );
    let mut first: Option<Vec<Row>> = None;
    for _ in 0..8 {
        let mut rows = fed.submit(Q6).unwrap().rows;
        rows.sort_by(|a, b| a.values().cmp(b.values()));
        match &first {
            None => first = Some(rows),
            Some(f) => assert_eq!(&rows, f, "rotation changed query results"),
        }
    }
}

#[test]
fn whatif_enumerates_one_winner_per_subset() {
    let w = world();
    let sim = SimulatedFederation::from_servers(w.nicknames.clone(), &w.servers);
    let best = sim.enumerate_by_subsets(Q6).unwrap();
    assert_eq!(best.len(), 4, "2 orders hosts × 2 customers hosts");
    assert_eq!(sim.explain_runs(), 4, "the paper's four explain-mode runs");
    // Exclusion-based what-if: drop S1 → only R1-based pairs remain.
    let without_s1 = sim.enumerate_excluding(Q6, &[ServerId::new("S1")]).unwrap();
    assert!(without_s1
        .iter()
        .all(|c| !c.server_set().contains(&ServerId::new("S1"))));
    assert!(!without_s1.is_empty());
}

#[test]
fn meta_wrapper_records_cover_all_rotated_servers() {
    let w = world();
    let (fed, qcc) = federation(
        &w,
        QccConfig::with_load_balance(LoadBalanceMode::GlobalLevel),
    );
    let _ = server_sets(&fed, 12);
    // A calibration sample is counted only for a completed fragment whose
    // estimate was positive, so the counter pairs both facts per server.
    let servers: Vec<&str> = w
        .servers
        .iter()
        .map(|s| s.id().as_str())
        .filter(|id| {
            qcc.obs
                .counter_value("calibration_samples_total", &[("server", id)])
                > 0
        })
        .collect();
    assert!(
        servers.len() >= 3,
        "runtime observations should span rotated servers: {servers:?}"
    );
}
