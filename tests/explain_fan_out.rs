//! The EXPLAIN fan-out (DESIGN.md §6): every selected replica of a
//! fragment is asked at one snapshot, so a cold compile advances virtual
//! time by the slowest round trip; and replicas of one table image share
//! one computed answer, which equals what a fresh EXPLAIN returns.

use load_aware_federation::common::{
    Column, Cost, DataType, Row, Schema, ServerId, SimTime, Value,
};
use load_aware_federation::engine::Engine;
use load_aware_federation::federation::decompose::decompose;
use load_aware_federation::federation::{
    Federation, FederationConfig, NicknameCatalog, PassthroughMiddleware,
};
use load_aware_federation::netsim::{Link, LoadProfile, Network, SimClock};
use load_aware_federation::remote::{RemoteServer, ServerProfile};
use load_aware_federation::storage::{Catalog, Table};
use load_aware_federation::workload::{Routing, Scenario, ScenarioConfig, ALL_QUERY_TYPES};
use load_aware_federation::wrapper::{RelationalWrapper, Wrapper};
use std::sync::Arc;

/// Link round-trip latencies of the three replicas, in virtual ms: all
/// distinct, the slowest in the middle.
const RTTS: [f64; 3] = [1.5, 9.0, 4.0];

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("v", DataType::Int),
    ])
}

fn catalog() -> Catalog {
    let mut t = Table::new("t", schema());
    for i in 0..2_000i64 {
        t.insert(Row::new(vec![Value::Int(i), Value::Int(i % 13)]))
            .unwrap();
    }
    let mut c = Catalog::new();
    c.register(t);
    c.create_index("t", "v").unwrap();
    c
}

/// Three replicas of one image behind links of [`RTTS`], built from
/// clones of one engine, in a federation whose nickname `t` resolves to
/// all three; and, on the same links, three servers with engines of their
/// own.
fn fan_out_world() -> (Federation, Vec<RelationalWrapper>, Vec<RelationalWrapper>) {
    let image = Arc::new(catalog());
    let engine = Engine::new(Arc::clone(&image));
    let ids: Vec<ServerId> = (1..=3).map(|i| ServerId::new(format!("R{i}"))).collect();
    let mut net = Network::new();
    for (id, rtt) in ids.iter().zip(RTTS) {
        net.add_link(
            id.clone(),
            Link::new(rtt, 2_000.0, LoadProfile::Constant(0.0)),
        );
    }
    let net = Arc::new(net);
    let wrap = |id: &ServerId, engine: Engine| {
        let server = RemoteServer::new(ServerProfile::new(id.clone()), engine);
        RelationalWrapper::new(server, Arc::clone(&net))
    };
    let shared: Vec<RelationalWrapper> = ids.iter().map(|id| wrap(id, engine.clone())).collect();
    let apart: Vec<RelationalWrapper> = ids
        .iter()
        .map(|id| wrap(id, Engine::new(Arc::clone(&image))))
        .collect();
    let mut nicknames = NicknameCatalog::new();
    nicknames.define("t", schema());
    for id in &ids {
        nicknames.add_source("t", id.clone(), "t").unwrap();
    }
    let mut fed = Federation::new(
        nicknames,
        SimClock::new(),
        Arc::new(PassthroughMiddleware::default()),
        FederationConfig::default(),
    );
    for w in &shared {
        fed.add_wrapper(Arc::new(w.clone()));
    }
    (fed, shared, apart)
}

/// A cold compile of one fragment at three replicas advances the clock by
/// the slowest EXPLAIN round trip, not by the sum; and a replica answered
/// from the shared slot still takes its own link's request and response
/// time.
#[test]
fn cold_fan_out_advances_by_the_slowest_round_trip() {
    let (fed, shared, apart) = fan_out_world();
    let sql = "SELECT v, COUNT(*) AS n FROM t WHERE v > 4 GROUP BY v";
    let decomposed = decompose(sql, fed.nicknames()).unwrap();
    assert_eq!(decomposed.fragments.len(), 1);
    assert_eq!(decomposed.fragments[0].candidate_servers.len(), 3);
    let text = decomposed.fragments[0]
        .sql_for_server(fed.nicknames(), shared[0].server_id())
        .unwrap();

    let before = fed.clock().now();
    fed.explain_global(sql).unwrap();
    let advance = fed.clock().now() - before;

    // Each replica's round trip from the same instant: the engines apart
    // plan the text again; the shared engine answers all three from its
    // slot, which the compile left holding this text.
    let trips: Vec<f64> = apart
        .iter()
        .map(|w| w.plan(&text, before).unwrap().1.as_millis())
        .collect();
    for (w, own) in shared.iter().zip(&trips) {
        let took = w.plan(&text, before).unwrap().1.as_millis();
        assert_eq!(
            took.to_bits(),
            own.to_bits(),
            "{}: {took} from the shared slot, {own} on its own link",
            w.server_id()
        );
    }
    for (i, a) in trips.iter().enumerate() {
        assert!(trips[i + 1..].iter().all(|b| b != a), "{trips:?}");
    }
    let slowest = trips.iter().copied().fold(0.0_f64, f64::max);
    assert_eq!(
        advance.as_millis().to_bits(),
        slowest.to_bits(),
        "the fan-out advanced {advance}; round trips {trips:?}"
    );
    assert!(advance.as_millis() < trips.iter().sum::<f64>());
}

/// Fleet-shaped statements over the scenario tables: scans, aggregates,
/// two- and three-way joins, `BETWEEN`, `ORDER BY` and `LIMIT`.
const FLEET_SHAPED: [&str; 12] = [
    "SELECT a.id, a.val FROM big_a a WHERE a.sel < 3000 ORDER BY a.id LIMIT 10",
    "SELECT d.grp, d.sel FROM big_d d WHERE d.val >= 40 AND d.sel BETWEEN 100 AND 2600",
    "SELECT b.id, b.qty FROM big_b b WHERE b.qty = 7 ORDER BY b.id DESC",
    "SELECT c.flag, COUNT(*) AS n FROM big_c c WHERE c.flag <= 900 GROUP BY c.flag",
    "SELECT s.cat, COUNT(*) AS n, AVG(s.bonus) AS m0 FROM small_s s WHERE s.bonus > 30 \
     GROUP BY s.cat ORDER BY s.cat LIMIT 5",
    "SELECT COUNT(*) AS n, MAX(a.val) AS m0 FROM big_a a WHERE a.sel = 4242",
    "SELECT a.id, b.qty FROM big_a a JOIN big_b b ON b.a_id = a.id WHERE a.sel > 8000",
    "SELECT d.grp, COUNT(*) AS n, SUM(b.qty) AS m0 FROM big_d d JOIN big_b b ON b.a_id = d.id \
     WHERE d.sel < 5000 GROUP BY d.grp ORDER BY d.grp",
    "SELECT s.cat, MIN(a.val) AS m0 FROM big_a a JOIN small_s s ON a.grp = s.id \
     WHERE s.bonus >= 50 AND a.val < 70 GROUP BY s.cat",
    "SELECT d.id, s.cat FROM big_d d JOIN small_s s ON d.grp = s.id WHERE d.sel <= 1200",
    "SELECT b.a_id, c.flag FROM big_b b JOIN big_c c ON c.b_id = b.id \
     WHERE c.flag BETWEEN 10 AND 1260",
    "SELECT a.grp, COUNT(*) AS n FROM big_a a JOIN big_b b ON b.a_id = a.id \
     JOIN big_c c ON c.b_id = b.id WHERE c.flag > 2500 GROUP BY a.grp ORDER BY a.grp LIMIT 20",
];

/// Every QT1–QT4 instance and every fleet-shaped statement, as the
/// world's servers receive it, is answered by each replica exactly as a
/// fresh `Engine::explain` answers it: the same plans in the same order
/// (`Debug` text), the same signatures, and costs equal to the bit after
/// the replica's own `1/speed` scaling. The replicas are asked in turn,
/// so the first of each statement plans it and the rest share that
/// answer.
#[test]
fn shared_answers_equal_a_fresh_explain() {
    let scenario = Scenario::build_with(Routing::Baseline, ScenarioConfig::tiny());
    let nicknames = scenario.federation.nicknames();
    let paper = ALL_QUERY_TYPES
        .iter()
        .flat_map(|qt| (0..10).map(move |i| qt.sql(i)));
    let statements: Vec<String> = paper
        .chain(FLEET_SHAPED.iter().map(|s| s.to_string()))
        .collect();
    let mut plans_checked = 0;
    for sql in &statements {
        let decomposed = decompose(sql, nicknames).unwrap();
        for frag in &decomposed.fragments {
            for server in &scenario.servers {
                let text = frag.sql_for_server(nicknames, server.id()).unwrap();
                let fresh = server.engine().explain(&text).unwrap();
                let got = server.explain(&text, SimTime::ZERO).unwrap();
                assert_eq!(got.len(), fresh.len(), "{text}");
                let scale = 1.0 / server.profile().speed;
                for (g, f) in got.iter().zip(&fresh) {
                    assert_eq!(format!("{:?}", g.descriptor), format!("{:?}", f.plan));
                    assert_eq!(g.signature, f.plan.signature(), "{text}");
                    let want = f.cost.calibrate(scale);
                    let bits =
                        |c: &Cost| [c.first_tuple, c.next_tuple, c.cardinality].map(f64::to_bits);
                    assert_eq!(bits(&g.cost), bits(&want), "{text} at {}", server.id());
                    plans_checked += 1;
                }
            }
        }
    }
    assert!(
        plans_checked > 3 * statements.len(),
        "{plans_checked} plans"
    );
}
