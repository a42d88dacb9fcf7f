use super::*;
use crate::middleware::PassthroughMiddleware;
use qcc_common::{
    Column, ColumnBatch, ColumnVector, Cost, DataType, FieldValue, Schema, SimDuration, Value,
};
use qcc_engine::Engine;
use qcc_netsim::{Link, Network};
use qcc_remote::{RemoteServer, ServerProfile};
use qcc_storage::{Catalog, Table};
use qcc_wrapper::{RelationalWrapper, WrapperResult};

/// Two servers: S1 hosts accounts+branches, S2 hosts a replica of
/// branches only.
fn setup() -> Federation {
    let accounts_schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("balance", DataType::Float),
        Column::new("branch_id", DataType::Int),
    ]);
    let branches_schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("city", DataType::Str),
    ]);

    let mut accounts = Table::new("accounts", accounts_schema.clone());
    for i in 0..500i64 {
        accounts
            .insert(Row::new(vec![
                Value::Int(i),
                Value::Float((i % 100) as f64),
                Value::Int(i % 10),
            ]))
            .unwrap();
    }
    let mut branches = Table::new("branches", branches_schema.clone());
    for i in 0..10i64 {
        branches
            .insert(Row::new(vec![
                Value::Int(i),
                Value::Str(format!("city{i}")),
            ]))
            .unwrap();
    }

    let mut cat1 = Catalog::new();
    cat1.register(accounts.clone());
    cat1.register(branches.clone());
    let mut cat2 = Catalog::new();
    cat2.register(branches.clone());

    let s1 = RemoteServer::new(ServerProfile::new(ServerId::new("S1")), cat1);
    let s2 = RemoteServer::new(ServerProfile::new(ServerId::new("S2")), cat2);

    let mut net = Network::new();
    net.add_link(ServerId::new("S1"), Link::lan());
    net.add_link(ServerId::new("S2"), Link::lan());
    let net = Arc::new(net);

    let mut nicknames = NicknameCatalog::new();
    nicknames.define("accounts", accounts_schema);
    nicknames.define("branches", branches_schema);
    nicknames
        .add_source("accounts", ServerId::new("S1"), "accounts")
        .unwrap();
    nicknames
        .add_source("branches", ServerId::new("S1"), "branches")
        .unwrap();
    nicknames
        .add_source("branches", ServerId::new("S2"), "branches")
        .unwrap();

    let mut fed = Federation::new(
        nicknames,
        SimClock::new(),
        Arc::new(PassthroughMiddleware::default()),
        FederationConfig::default(),
    );
    fed.add_wrapper(Arc::new(RelationalWrapper::new(s1, Arc::clone(&net))));
    fed.add_wrapper(Arc::new(RelationalWrapper::new(s2, net)));
    fed
}

#[test]
fn single_source_query_round_trips() {
    let mut fed = setup();
    fed.set_obs(Obs::new());
    let out = fed
        .submit("SELECT COUNT(*) FROM accounts WHERE balance > 50.0")
        .unwrap();
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0].get(0), &Value::Int(245));
    assert!(out.response_ms > 0.0);
    assert_eq!(
        fed.obs()
            .counter_value("queries_total", &[("status", "ok")]),
        1
    );
}

#[test]
fn colocated_join_pushes_to_s1() {
    let fed = setup();
    let out = fed
        .submit(
            "SELECT b.city, COUNT(*) AS n FROM accounts a JOIN branches b \
             ON a.branch_id = b.id GROUP BY b.city ORDER BY b.city",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 10);
    assert_eq!(out.rows[0].get(1), &Value::Int(50));
    assert!(out.servers.contains(&ServerId::new("S1")));
    assert_eq!(out.servers.len(), 1, "join pushed to the coherent host");
}

#[test]
fn replica_choice_exists_for_replicated_nickname() {
    let fed = setup();
    let (_, candidates) = fed.explain_global("SELECT COUNT(*) FROM branches").unwrap();
    let servers: BTreeSet<String> = candidates
        .iter()
        .map(|c| c.server_set().iter().next().unwrap().to_string())
        .collect();
    assert!(servers.contains("S1") && servers.contains("S2"));
}

#[test]
fn failure_reroutes_to_replica() {
    // Build a setup where we keep direct handles to the servers.
    let branches_schema = Schema::new(vec![Column::new("id", DataType::Int)]);
    let mut branches = Table::new("branches", branches_schema.clone());
    for i in 0..10i64 {
        branches.insert(Row::new(vec![Value::Int(i)])).unwrap();
    }
    let mut cat1 = Catalog::new();
    cat1.register(branches.clone());
    let mut cat2 = Catalog::new();
    cat2.register(branches);
    let s1 = RemoteServer::new(ServerProfile::new(ServerId::new("S1")), cat1);
    let s2 = RemoteServer::new(ServerProfile::new(ServerId::new("S2")), cat2);
    let mut net = Network::new();
    net.add_link(ServerId::new("S1"), Link::lan());
    net.add_link(ServerId::new("S2"), Link::lan());
    let net = Arc::new(net);
    let mut nicknames = NicknameCatalog::new();
    nicknames.define("branches", branches_schema);
    nicknames
        .add_source("branches", ServerId::new("S1"), "branches")
        .unwrap();
    nicknames
        .add_source("branches", ServerId::new("S2"), "branches")
        .unwrap();
    let mut fed = Federation::new(
        nicknames,
        SimClock::new(),
        Arc::new(PassthroughMiddleware::default()),
        FederationConfig::default(),
    );
    fed.add_wrapper(Arc::new(RelationalWrapper::new(
        Arc::clone(&s1),
        Arc::clone(&net),
    )));
    fed.add_wrapper(Arc::new(RelationalWrapper::new(s2, net)));

    // S1 goes down *after compile time* is hard to time here; instead
    // take it down for the whole run — compile skips it, S2 serves.
    s1.availability()
        .add_outage(SimTime::ZERO, SimTime::from_millis(1e12));
    let out = fed.submit("SELECT COUNT(*) FROM branches").unwrap();
    assert_eq!(out.rows[0].get(0), &Value::Int(10));
    assert!(out.servers.contains(&ServerId::new("S2")));
}

/// Servers S1..Sn on LAN links, `hosts[i]` naming the tables S(i+1)
/// holds — each a 5000-row table of one Int `id` column (multi-chunk at
/// BATCH_ROWS=1024) — with the journal enabled.
fn id_table_fleet(hosts: &[&[&str]], stall_factor: f64) -> (Federation, Vec<Arc<RemoteServer>>) {
    let sized: Vec<(&[&str], i64)> = hosts.iter().map(|tables| (*tables, 5000)).collect();
    sized_id_table_fleet(&sized, stall_factor)
}

/// [`id_table_fleet`] with a row count per server: its tables hold ids
/// `0..rows`.
fn sized_id_table_fleet(
    hosts: &[(&[&str], i64)],
    stall_factor: f64,
) -> (Federation, Vec<Arc<RemoteServer>>) {
    let schema = Schema::new(vec![Column::new("id", DataType::Int)]);
    let mut net = Network::new();
    let mut nicknames = NicknameCatalog::new();
    let mut servers = Vec::new();
    for (i, &(tables, rows)) in hosts.iter().enumerate() {
        let id = ServerId::new(format!("S{}", i + 1));
        let mut catalog = Catalog::new();
        for &name in tables {
            let mut table = Table::new(name, schema.clone());
            for row in 0..rows {
                table.insert(Row::new(vec![Value::Int(row)])).unwrap();
            }
            catalog.register(table);
            if !nicknames.names().contains(&name) {
                nicknames.define(name, schema.clone());
            }
            nicknames.add_source(name, id.clone(), name).unwrap();
        }
        net.add_link(id.clone(), Link::lan());
        servers.push(RemoteServer::new(ServerProfile::new(id), catalog));
    }
    let net = Arc::new(net);
    let mut fed = Federation::new(
        nicknames,
        SimClock::new(),
        Arc::new(PassthroughMiddleware::default()),
        FederationConfig {
            stall_factor,
            ..FederationConfig::default()
        },
    );
    fed.set_obs(Obs::new());
    for server in &servers {
        fed.add_wrapper(Arc::new(RelationalWrapper::new(
            Arc::clone(server),
            Arc::clone(&net),
        )));
    }
    (fed, servers)
}

/// Two full `branches` replicas; returns S1's handle for fault
/// injection.
fn streaming_fixture(stall_factor: f64) -> (Federation, Arc<RemoteServer>) {
    let (fed, servers) = id_table_fleet(&[&["branches"], &["branches"]], stall_factor);
    (fed, Arc::clone(&servers[0]))
}

fn sorted_ids(rows: &[Row]) -> Vec<i64> {
    let mut ids: Vec<i64> = rows
        .iter()
        .map(|r| match r.get(0) {
            Value::Int(i) => *i,
            v => panic!("unexpected value {v:?}"),
        })
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn midquery_interrupt_reroutes_remainder_without_duplicates() {
    // Dry run on a healthy fleet to learn when the fragment executes
    // and how long it takes (all virtual time, fully deterministic).
    let (dry, _) = streaming_fixture(0.0);
    dry.submit("SELECT id FROM branches").unwrap();
    let frag = &dry.obs().events_of("fragment")[0];
    let t0 = frag.at.as_millis();
    let Some(FieldValue::F64(ms)) = frag.field("ms") else {
        panic!("fragment event lacks ms");
    };

    // Fresh identical world where the serving replica crashes 30% of
    // the way into the fragment: the stream is cut mid-service and the
    // remainder must resume on the sibling at the cursor.
    let (fed, s1) = streaming_fixture(0.0);
    s1.availability().add_outage(
        SimTime::from_millis(t0 + 0.3 * ms),
        SimTime::from_millis(1e12),
    );
    let out = fed.submit("SELECT id FROM branches").unwrap();
    assert_eq!(
        sorted_ids(&out.rows),
        (0..5000).collect::<Vec<_>>(),
        "every row exactly once: no duplicates, no loss"
    );
    let obs = fed.obs();
    assert_eq!(obs.events_of("fragment_stall").len(), 1);
    let stall = &obs.events_of("fragment_stall")[0];
    assert_eq!(stall.str_field("reason"), Some("interrupt"));
    assert_eq!(obs.events_of("reroute_dispatch").len(), 1);
    assert_eq!(obs.events_of("fragment_resume").len(), 1);
    let stream = &obs.events_of("fragment_stream")[0];
    let sources = stream.str_field("sources").unwrap();
    assert!(
        sources.starts_with("S1:0..") && sources.contains("+S2:"),
        "stitched provenance, got {sources}"
    );
    assert_eq!(out.fragment_times[0].0, ServerId::new("S2"));
    assert_eq!(
        out.servers,
        BTreeSet::from([ServerId::new("S2")]),
        "the outcome names the server that finished the slot"
    );
    assert_eq!(
        obs.counter_value("fragment_reroutes_total", &[("server", "S2")]),
        1
    );
}

#[test]
fn stalled_fragment_cancels_and_reroutes_to_fast_replica() {
    // S1 is crushed by background load (the estimate is load-blind,
    // so its stream overruns stall_factor × estimate); S2 idles. The
    // detector must cancel S1 at the threshold and finish on S2.
    let (fed, s1) = streaming_fixture(3.0);
    s1.load().set_background(LoadProfile::Constant(0.95));
    let out = fed.submit("SELECT id FROM branches").unwrap();
    assert_eq!(sorted_ids(&out.rows), (0..5000).collect::<Vec<_>>());
    let obs = fed.obs();
    let stall = &obs.events_of("fragment_stall")[0];
    assert_eq!(stall.str_field("reason"), Some("slow"));
    assert_eq!(obs.events_of("reroute_dispatch").len(), 1);
    assert_eq!(out.fragment_times[0].0, ServerId::new("S2"));
}

#[test]
fn no_viable_plan_when_all_sources_down() {
    let branches_schema = Schema::new(vec![Column::new("id", DataType::Int)]);
    let mut cat = Catalog::new();
    cat.register(Table::new("branches", branches_schema.clone()));
    let s1 = RemoteServer::new(ServerProfile::new(ServerId::new("S1")), cat);
    s1.availability()
        .add_outage(SimTime::ZERO, SimTime::from_millis(1e12));
    let mut net = Network::new();
    net.add_link(ServerId::new("S1"), Link::lan());
    let mut nicknames = NicknameCatalog::new();
    nicknames.define("branches", branches_schema);
    nicknames
        .add_source("branches", ServerId::new("S1"), "branches")
        .unwrap();
    let mut fed = Federation::new(
        nicknames,
        SimClock::new(),
        Arc::new(PassthroughMiddleware::default()),
        FederationConfig::default(),
    );
    fed.add_wrapper(Arc::new(RelationalWrapper::new(s1, Arc::new(net))));
    fed.set_obs(Obs::new());
    let err = fed.submit("SELECT COUNT(*) FROM branches").unwrap_err();
    assert!(matches!(err, QccError::NoViablePlan(_)), "{err}");
    assert_eq!(
        fed.obs().events_of("query_failed")[0].str_field("error"),
        Some(err.to_string().as_str())
    );
}

#[test]
fn clock_advances_with_execution() {
    let fed = setup();
    let before = fed.clock().now();
    fed.submit("SELECT * FROM accounts WHERE id < 100").unwrap();
    assert!(fed.clock().now() > before);
}

#[test]
fn cross_source_merge_join_correct() {
    // Force a split: accounts only on S1, branches only on S2.
    let accounts_schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("branch_id", DataType::Int),
    ]);
    let branches_schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("city", DataType::Str),
    ]);
    let mut accounts = Table::new("accounts", accounts_schema.clone());
    for i in 0..100i64 {
        accounts
            .insert(Row::new(vec![Value::Int(i), Value::Int(i % 5)]))
            .unwrap();
    }
    let mut branches = Table::new("branches", branches_schema.clone());
    for i in 0..5i64 {
        branches
            .insert(Row::new(vec![Value::Int(i), Value::Str(format!("c{i}"))]))
            .unwrap();
    }
    let mut cat1 = Catalog::new();
    cat1.register(accounts);
    let mut cat2 = Catalog::new();
    cat2.register(branches);
    let s1 = RemoteServer::new(ServerProfile::new(ServerId::new("S1")), cat1);
    let s2 = RemoteServer::new(ServerProfile::new(ServerId::new("S2")), cat2);
    let mut net = Network::new();
    net.add_link(ServerId::new("S1"), Link::lan());
    net.add_link(ServerId::new("S2"), Link::lan());
    let net = Arc::new(net);
    let mut nicknames = NicknameCatalog::new();
    nicknames.define("accounts", accounts_schema);
    nicknames.define("branches", branches_schema);
    nicknames
        .add_source("accounts", ServerId::new("S1"), "accounts")
        .unwrap();
    nicknames
        .add_source("branches", ServerId::new("S2"), "branches")
        .unwrap();
    let mut fed = Federation::new(
        nicknames,
        SimClock::new(),
        Arc::new(PassthroughMiddleware::default()),
        FederationConfig::default(),
    );
    fed.set_obs(Obs::new());
    fed.add_wrapper(Arc::new(RelationalWrapper::new(s1, Arc::clone(&net))));
    fed.add_wrapper(Arc::new(RelationalWrapper::new(s2, net)));

    let out = fed
        .submit(
            "SELECT b.city, COUNT(*) AS n FROM accounts a JOIN branches b \
             ON a.branch_id = b.id GROUP BY b.city ORDER BY b.city",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 5);
    for r in &out.rows {
        assert_eq!(r.get(1), &Value::Int(20));
    }
    assert_eq!(out.servers.len(), 2, "both sources touched");
    assert_eq!(out.fragment_times.len(), 2);
    // A cross-source split is the one shape that exercises the local
    // merge, so this is where the "merge" journal event is pinned.
    let merges = fed.obs().events_of("merge");
    assert_eq!(merges.len(), 1);
    assert!(merges[0].field("ms").is_some());
    assert_eq!(fed.obs().events_of("fragment").len(), 2);
}

#[test]
fn pressured_fragment_hedges_to_replica_and_suppresses_duplicate() {
    let mut fed = setup();
    fed.set_obs(Obs::new());
    // The compile spends this deadline, so every fragment is pressured
    // and the replicated nickname must hedge to its equal-cost second
    // host.
    let admission = Arc::new(AdmissionController::new(qcc_admission::AdmissionConfig {
        exec_deadline_ms: 0.001,
        ..Default::default()
    }));
    admission.set_capacity(&ServerId::new("S1"), 2, SimTime::ZERO);
    admission.set_capacity(&ServerId::new("S2"), 2, SimTime::ZERO);
    fed.set_admission(Arc::clone(&admission));

    let out = fed.submit("SELECT COUNT(*) FROM branches").unwrap();
    assert_eq!(
        out.rows[0].get(0),
        &Value::Int(10),
        "one merged result; the losing replica's rows are suppressed"
    );
    let hedges = fed.obs().events_of("hedge");
    assert_eq!(hedges.len(), 1, "single-fragment plan hedges exactly once");
    assert!(hedges[0].field("primary").is_some());
    assert_ne!(
        hedges[0].field("primary"),
        hedges[0].field("hedge"),
        "the hedge replica must sit on a different server"
    );
    let results = fed.obs().events_of("hedge_result");
    assert_eq!(results.len(), 1);
    assert!(results[0].field("winner").is_some());
    assert_eq!(
        fed.obs()
            .counter_value("hedge_duplicates_suppressed_total", &[]),
        1,
        "healthy world: both replicas answer, exactly one duplicate suppressed"
    );
}

#[test]
fn unrescued_slot_fails_naming_its_own_server_not_a_rescued_slots() {
    // Slot 0 (`branches`, two replicas) can hedge; slot 1 (`accounts`,
    // one host) cannot.
    const SQL: &str = "SELECT b.id FROM branches b JOIN accounts a ON a.id = b.id";
    let build = |exec_deadline_ms| {
        let (mut fed, servers) =
            id_table_fleet(&[&["branches"], &["branches"], &["accounts"]], 0.0);
        let admission = Arc::new(AdmissionController::new(qcc_admission::AdmissionConfig {
            exec_deadline_ms,
            ..Default::default()
        }));
        for server in &servers {
            admission.set_capacity(server.id(), 2, SimTime::ZERO);
        }
        fed.set_admission(admission);
        (fed, servers)
    };
    // Dry run, its deadline spent by the compile: learn the dispatch
    // instant and slot 0's primary.
    let (dry, _) = build(0.001);
    dry.submit(SQL).unwrap();
    let hedge = &dry.obs().events_of("hedge")[0];
    assert_eq!(hedge.field("fragment"), Some(&FieldValue::U64(0)));
    let primary0 = hedge.str_field("primary").unwrap().to_string();
    let dispatched = hedge.at;

    // Same world, but slot 0's primary and slot 1's only host both
    // refuse the EXECUTE on arrival (up for the EXPLAIN, down from the
    // dispatch instant on). The deadline ends at that instant: both slots
    // are pressured, yet a refusal there is not past it. The hedge rescues
    // slot 0; nothing can take over slot 1, so the error names slot 1 and
    // its server.
    let (fed, servers) = build(dispatched.as_millis());
    for server in &servers {
        if server.id().as_str() == primary0 || server.id().as_str() == "S3" {
            server
                .availability()
                .add_outage(dispatched, SimTime::from_millis(1e12));
        }
    }
    let err = fed.submit(SQL).unwrap_err();
    let QccError::NoViablePlan(message) = &err else {
        panic!("expected NoViablePlan, got {err}");
    };
    assert!(
        message.contains("fragment 1") && message.contains("S3"),
        "{message}"
    );
    let obs = fed.obs();
    assert_eq!(obs.counter_value("hedge_wins_total", &[]), 1);
    assert!(
        obs.events_of("reroute_dispatch").is_empty(),
        "the hedge won slot 0, and slot 1 has no other host"
    );
    let stalls = obs.events_of("fragment_stall");
    assert_eq!(stalls.len(), 1);
    assert_eq!(stalls[0].field("fragment"), Some(&FieldValue::U64(1)));
    assert_eq!(stalls[0].str_field("server"), Some("S3"));
    assert_eq!(stalls[0].str_field("reason"), Some("arrival"));
    assert_eq!(
        stalls[0].at, dispatched,
        "a refusal is detected at dispatch"
    );
}

/// A passthrough that logs the server of every fragment acknowledged as a
/// calibration sample, in acknowledgement order.
struct SampleLog(Arc<parking_lot::Mutex<Vec<ServerId>>>);

impl Middleware for SampleLog {
    fn plan_fragment(
        &self,
        wrapper: &dyn qcc_wrapper::Wrapper,
        fragment: qcc_common::FragmentId,
        sql: &Arc<str>,
        at: SimTime,
        effects: &mut Deferred,
    ) -> Result<(Vec<crate::middleware::FragmentCandidate>, SimDuration)> {
        PassthroughMiddleware::default().plan_fragment(wrapper, fragment, sql, at, effects)
    }

    fn execute_fragment_stream(
        &self,
        wrapper: &dyn qcc_wrapper::Wrapper,
        plan: &qcc_wrapper::FragmentPlan,
        at: SimTime,
        cursor: usize,
        _effects: &mut Deferred,
    ) -> Result<qcc_wrapper::WrapperStream> {
        wrapper.execute_stream(plan, at, cursor, true)
    }

    fn observe_fragment(&self, plan: &qcc_wrapper::FragmentPlan, _observed_ms: f64) {
        self.0.lock().push(plan.server.clone());
    }
}

#[test]
fn refused_slot_is_redispatched_alone_and_its_healthy_sibling_runs_once() {
    // Dry run: the fault-free rows, the dispatch instant and each slot's
    // server (fragments are journalled in slot order).
    let dry = cross_source_fleet();
    let clean = dry.submit(CROSS_SOURCE).unwrap();
    let frags = dry.obs().events_of("fragment");
    assert_eq!(frags.len(), 2);
    let dispatched = frags[0].at;
    let slot0 = ServerId::new(frags[0].str_field("server").unwrap());
    let slot1 = ServerId::new(frags[1].str_field("server").unwrap());
    let rescuer = ServerId::new(if slot1.as_str() == "S3" { "S4" } else { "S3" });

    // Same world, but slot 1's primary refuses from the dispatch instant on.
    let (mut fed, servers) = id_table_fleet(&[&["a"], &["a"], &["b"], &["b"]], 0.0);
    let samples = Arc::new(parking_lot::Mutex::new(Vec::new()));
    fed.middleware = Arc::new(SampleLog(Arc::clone(&samples)));
    let victim = servers.iter().find(|s| *s.id() == slot1).unwrap();
    victim
        .availability()
        .add_outage(dispatched, SimTime::from_millis(1e12));
    let out = fed.submit(CROSS_SOURCE).unwrap();
    assert_eq!(out.rows, clean.rows);
    assert_eq!(
        out.servers,
        BTreeSet::from([slot0.clone(), rescuer.clone()])
    );

    // Slot 0 ran, was journalled and was sampled exactly once; slot 1
    // restarted whole on the sibling, which is a sample too.
    let obs = fed.obs();
    let served: Vec<ServerId> = obs
        .events_of("fragment")
        .iter()
        .map(|e| ServerId::new(e.str_field("server").unwrap()))
        .collect();
    assert_eq!(served, [slot0.clone(), rescuer.clone()]);
    assert_eq!(*samples.lock(), [slot0, rescuer.clone()]);
    let dispatches = obs.events_of("reroute_dispatch");
    assert_eq!(dispatches.len(), 1);
    let d = &dispatches[0];
    assert_eq!(d.field("fragment"), Some(&FieldValue::U64(1)));
    assert_eq!(d.str_field("from"), Some(slot1.as_str()));
    assert_eq!(d.str_field("to"), Some(rescuer.as_str()));
    assert_eq!(d.str_field("reason"), Some("arrival"));
    assert_eq!(d.field("cursor"), Some(&FieldValue::U64(0)));
    assert_eq!(d.at, dispatched, "a refusal costs no probe interval");
}

#[test]
fn refused_replica_moves_the_slot_on_until_retry_limit() {
    const SQL: &str = "SELECT id FROM branches";
    let hosts: [&[&str]; 3] = [&["branches"]; 3];
    let (dry, _) = id_table_fleet(&hosts, 0.0);
    dry.submit(SQL).unwrap();
    let frag = &dry.obs().events_of("fragment")[0];
    let (dispatched, primary) = (frag.at, frag.str_field("server").unwrap().to_string());
    // The replicas cost the same, so a restart takes them in server order:
    // refuse the primary and the first replica, leaving the second.
    let mut replicas: Vec<String> = ["S1", "S2", "S3"].map(String::from).to_vec();
    replicas.retain(|s| *s != primary);
    let world = |retry_limit: usize| {
        let (mut fed, servers) = id_table_fleet(&hosts, 0.0);
        fed.config.retry_limit = retry_limit;
        for server in &servers {
            if [&primary, &replicas[0]].contains(&&server.id().to_string()) {
                server
                    .availability()
                    .add_outage(dispatched, SimTime::from_millis(1e12));
            }
        }
        fed
    };

    let fed = world(2);
    let out = fed.submit(SQL).unwrap();
    assert_eq!(sorted_ids(&out.rows), (0..5000).collect::<Vec<_>>());
    assert_eq!(out.servers, BTreeSet::from([ServerId::new(&replicas[1])]));
    let hops: Vec<(String, String, String)> = fed
        .obs()
        .events_of("reroute_dispatch")
        .iter()
        .map(|e| {
            assert_eq!(e.at, dispatched);
            let field = |name| e.str_field(name).unwrap().to_string();
            (field("from"), field("to"), field("reason"))
        })
        .collect();
    let arrival = || "arrival".to_string();
    assert_eq!(
        hops,
        [
            (primary.clone(), replicas[0].clone(), arrival()),
            (replicas[0].clone(), replicas[1].clone(), arrival()),
        ]
    );

    // One re-dispatch allowed: the refused replica ends the slot's loop.
    let fed = world(1);
    let err = fed.submit(SQL).unwrap_err();
    let QccError::NoViablePlan(message) = &err else {
        panic!("expected NoViablePlan, got {err}");
    };
    assert!(
        message.contains(&primary) && message.contains(&replicas[0]),
        "{message}"
    );
    assert_eq!(fed.obs().events_of("reroute_dispatch").len(), 1);
}

#[test]
fn redispatch_past_the_deadline_forfeits_the_query() {
    // A deadline shorter than one probe interval: an interrupt is
    // detected after the budget is spent. The replica S2 has no tokens,
    // so the pressured fragment cannot hedge to it.
    let build = || {
        let (mut fed, s1) = streaming_fixture(0.0);
        let admission = Arc::new(AdmissionController::new(qcc_admission::AdmissionConfig {
            exec_deadline_ms: 0.5,
            ..Default::default()
        }));
        admission.set_capacity(&ServerId::new("S1"), 2, SimTime::ZERO);
        admission.set_capacity(&ServerId::new("S2"), 0, SimTime::ZERO);
        fed.set_admission(admission);
        (fed, s1)
    };
    let (dry, _) = build();
    dry.submit("SELECT id FROM branches").unwrap();
    let frag = &dry.obs().events_of("fragment")[0];
    assert_eq!(frag.str_field("server"), Some("S1"));
    let Some(FieldValue::F64(ms)) = frag.field("ms") else {
        panic!("fragment event lacks ms");
    };

    let (fed, s1) = build();
    s1.availability().add_outage(
        SimTime::from_millis(frag.at.as_millis() + 0.3 * ms),
        SimTime::from_millis(1e12),
    );
    let err = fed.submit("SELECT id FROM branches").unwrap_err();
    assert!(matches!(err, QccError::DeadlineExceeded(_)), "{err}");
    let obs = fed.obs();
    let forfeits = obs.events_of("deadline_exceeded");
    assert_eq!(forfeits.len(), 1);
    assert_eq!(forfeits[0].str_field("stage"), Some("redispatch"));
    assert_eq!(
        obs.counter_value("deadline_exceeded_total", &[("stage", "redispatch")]),
        1
    );
    assert!(obs.events_of("reroute_dispatch").is_empty());
}

/// `a` on S1/S2, `b` on S3/S4, journal on: a join across the two is two
/// fragments (2 × 2 combinations) merged at the integrator.
fn cross_source_fleet() -> Federation {
    id_table_fleet(&[&["a"], &["a"], &["b"], &["b"]], 0.0).0
}

const CROSS_SOURCE: &str = "SELECT COUNT(*) FROM a x, b y WHERE x.id = y.id";

#[test]
fn repeated_statement_is_decomposed_and_merge_costed_once() {
    let fed = cross_source_fleet();
    let first = fed.submit(CROSS_SOURCE).unwrap();
    assert_eq!(first.rows[0].get(0), &Value::Int(5000));
    for _ in 1..100 {
        assert_eq!(fed.submit(CROSS_SOURCE).unwrap().rows, first.rows);
    }
    let count = |name| fed.obs().counter_value(name, &[]);
    // A miss is a decompose; the four combinations share one cardinality
    // vector, hence one merge-cost EXPLAIN for all hundred arrivals; and
    // every replica ships 5000 rows, hence one planned merge.
    assert_eq!(count("compiled_template_misses_total"), 1);
    assert_eq!(count("compiled_template_hits_total"), 99);
    assert_eq!(count("integration_estimates_total"), 1);
    assert_eq!(count("merge_plans_total"), 1);
    assert_eq!(count("compiled_template_evictions_total"), 0);
}

#[test]
fn integration_memo_is_bit_identical_to_a_direct_estimate() {
    let fed = cross_source_fleet();
    let (_, fresh) = fed.explain_global(CROSS_SOURCE).unwrap();
    let (_, remembered) = fed.explain_global(CROSS_SOURCE).unwrap();
    let template = fed
        .template(&fed.statement(CROSS_SOURCE), &mut Deferred::new())
        .unwrap();
    assert_eq!(
        fed.obs().counter_value("integration_estimates_total", &[]),
        1,
        "the second compile answered from the memo"
    );
    let crate::MergeSpec::Merge { stmt } = &template.decomposed.merge else {
        panic!("cross-source statement merges at the integrator");
    };
    assert_eq!(fresh.len(), 4);
    for (a, b) in fresh.iter().zip(&remembered) {
        let cardinalities: Vec<u64> = a
            .fragments
            .iter()
            .map(|f| f.effective_cost.cardinality.max(1.0) as u64)
            .collect();
        let direct = fed.estimate_integration(&template, stmt, &cardinalities);
        let bits = |c: Cost| [c.first_tuple, c.next_tuple, c.cardinality].map(f64::to_bits);
        // The passthrough middleware's II calibration is the identity.
        assert_eq!(bits(a.integration_cost), bits(direct));
        assert_eq!(bits(b.integration_cost), bits(direct));
    }
}

/// What a cold engine — full ANALYZE, fresh plan — answers for
/// `CROSS_SOURCE`'s merge over the fragment results `a_from` and `b_from`
/// ship, and the `Work` it charges.
fn cold_merge(
    fed: &Federation,
    a_from: &RemoteServer,
    b_from: &RemoteServer,
) -> (Vec<Row>, qcc_engine::Work) {
    let (decomposed, _) = fed.explain_global(CROSS_SOURCE).unwrap();
    let shipped = decomposed.fragments.iter().zip([a_from, b_from]);
    let shipped = shipped.map(|(frag, server)| {
        let sql = frag.sql_for_server(fed.nicknames(), server.id()).unwrap();
        let plan = server.engine().explain(&sql).unwrap().remove(0).plan;
        server.engine().execute_plan_batches(&plan).unwrap().0
    });
    cold_merge_of(&decomposed, shipped.collect())
}

/// What a cold engine answers for `decomposed`'s merge over the given
/// batches per fragment, and the `Work` it charges.
fn cold_merge_of(
    decomposed: &crate::DecomposedQuery,
    shipped: Vec<Vec<ColumnBatch>>,
) -> (Vec<Row>, qcc_engine::Work) {
    let crate::MergeSpec::Merge { stmt } = &decomposed.merge else {
        panic!("cross-source statement merges at the integrator");
    };
    let mut catalog = Catalog::new();
    for (i, (frag, batches)) in decomposed.fragments.iter().zip(shipped).enumerate() {
        let name = crate::decompose::frag_table(i);
        catalog.register(Table::from_batches(name, frag.output_schema(), batches).unwrap());
    }
    Engine::new(catalog).execute_stmt(stmt).unwrap()
}

#[test]
fn merge_is_planned_once_per_gathered_row_count_vector() {
    // `a` is 3000 rows on S1 and 5000 on S2: the cheaper S1 serves until
    // it goes down, then S2 does — a second vector for the same text.
    let (fed, servers) =
        sized_id_table_fleet(&[(&["a"], 3000), (&["a"], 5000), (&["b"], 5000)], 0.0);
    let merge_ms = || -> Vec<u64> {
        let merges = fed.obs().events_of("merge");
        let ms = merges.iter().map(|e| match e.field("ms") {
            Some(FieldValue::F64(ms)) => ms.to_bits(),
            other => panic!("merge event without ms: {other:?}"),
        });
        ms.collect()
    };
    for (a_from, plans) in [(0, 1), (1, 2)] {
        let (rows, work) = cold_merge(&fed, &servers[a_from], &servers[2]);
        let before = merge_ms().len();
        for _ in 0..5 {
            let out = fed.submit(CROSS_SOURCE).unwrap();
            assert!(out.servers.contains(servers[a_from].id()));
            assert_eq!(out.rows, rows);
        }
        // The integrator is idle at full speed: a merge's ms is its Work.
        assert_eq!(merge_ms()[before..], [work.cpu_units.to_bits(); 5]);
        assert_eq!(fed.obs().counter_value("merge_plans_total", &[]), plans);
        servers[a_from]
            .availability()
            .add_outage(fed.clock().now(), SimTime::from_millis(1e12));
    }
}

/// `ids` as one shipped single-column fragment result.
fn id_result(ids: std::ops::Range<i64>, columns: usize) -> WrapperResult {
    let mut column = ColumnVector::new_for(Some(DataType::Int));
    ids.clone().for_each(|id| column.push(Value::Int(id)));
    let batch = ColumnBatch::new(vec![Arc::new(column); columns], ids.count());
    WrapperResult {
        batches: vec![batch],
        response_time: SimDuration::ZERO,
        bytes: 0,
    }
}

#[test]
fn merge_plan_memo_is_bounded_and_a_hit_still_checks_its_batches() {
    use template::MERGE_PLAN_MEMO_CAPACITY;
    let fed = cross_source_fleet();
    let template = fed
        .template(&fed.statement(CROSS_SOURCE), &mut Deferred::new())
        .unwrap();
    let merge = |results: Vec<WrapperResult>| {
        let mut effects = Deferred::new();
        let merged = fed.merge_global(&template, results, vec![], fed.clock(), &mut effects);
        effects.apply();
        merged.map(|(rows, _, _)| rows)
    };
    for round in 0..3 * MERGE_PLAN_MEMO_CAPACITY as i64 {
        let rows = merge(vec![id_result(0..round + 1, 1), id_result(0..8, 1)]).unwrap();
        assert_eq!(rows[0].get(0), &Value::Int((round + 1).min(8)));
        assert!(template.merge_plans_held() <= MERGE_PLAN_MEMO_CAPACITY);
    }
    assert_eq!(template.merge_plans_held(), MERGE_PLAN_MEMO_CAPACITY);
    let planned = || fed.obs().counter_value("merge_plans_total", &[]);
    assert_eq!(planned(), 3 * MERGE_PLAN_MEMO_CAPACITY as u64);

    // The newest vector is resident: a hit. A batch of the wrong arity
    // with that row count is a typed error, never a panic in the executor.
    let newest = 3 * MERGE_PLAN_MEMO_CAPACITY as i64;
    merge(vec![id_result(0..newest, 1), id_result(0..8, 1)]).unwrap();
    let err = merge(vec![id_result(0..newest, 1), id_result(0..8, 2)]).unwrap_err();
    assert!(
        matches!(&err, QccError::Execution(m) if m.starts_with("fragment 1 result mismatch")),
        "{err}"
    );
    assert_eq!(planned(), 3 * MERGE_PLAN_MEMO_CAPACITY as u64);
}

/// A warm hit binds the shipped batches to the stored plan's scans
/// without adopting them as tables, and still checks them as a table
/// would: a `Str` column, or a `Mixed` one holding a string, where `Int`
/// is declared is the typed `fragment {i} result mismatch`; a fragment
/// that ships no batch at all merges as a cold engine over an empty
/// table does, rows and `Work`.
#[test]
fn a_warm_hit_checks_column_types_and_merges_a_fragment_of_no_batches() {
    let fed = cross_source_fleet();
    let template = fed
        .template(&fed.statement(CROSS_SOURCE), &mut Deferred::new())
        .unwrap();
    let merge_ms = parking_lot::Mutex::new(Vec::new());
    let merge = |results: Vec<WrapperResult>| {
        let mut effects = Deferred::new();
        let merged = fed.merge_global(&template, results, vec![], fed.clock(), &mut effects);
        effects.apply();
        merged.map(|(rows, _, merge)| {
            merge_ms.lock().extend(merge.map(|(_, ms)| ms));
            rows
        })
    };
    let planned = || fed.obs().counter_value("merge_plans_total", &[]);
    merge(vec![id_result(0..8, 1), id_result(0..8, 1)]).unwrap();
    assert_eq!(planned(), 1);

    let shipped = |column: ColumnVector| WrapperResult {
        batches: vec![ColumnBatch::new(vec![Arc::new(column)], 8)],
        response_time: SimDuration::ZERO,
        bytes: 0,
    };
    let mut strings = ColumnVector::new_for(Some(DataType::Str));
    (0..8).for_each(|i| strings.push(Value::Str(format!("id{i}"))));
    let cell = |i: i64| match i {
        5 => Value::from("five"),
        i => Value::Int(i),
    };
    let mixed = ColumnVector::Mixed((0..8).map(cell).collect());
    for column in [strings, mixed] {
        let err = merge(vec![id_result(0..8, 1), shipped(column)]).unwrap_err();
        assert!(
            matches!(&err, QccError::Execution(m) if m.starts_with("fragment 1 result mismatch")),
            "{err}"
        );
    }
    assert_eq!(planned(), 1, "both mistyped results were warm hits");

    let (rows, work) = cold_merge_of(
        &template.decomposed,
        vec![id_result(0..8, 1).batches, vec![]],
    );
    let nothing = || WrapperResult {
        batches: Vec::new(),
        response_time: SimDuration::ZERO,
        bytes: 0,
    };
    for _ in 0..2 {
        assert_eq!(merge(vec![id_result(0..8, 1), nothing()]).unwrap(), rows);
    }
    assert_eq!(
        planned(),
        2,
        "planned at the first arrival, a hit at the second"
    );
    let merge_ms = merge_ms.lock();
    let ms: Vec<u64> = merge_ms[merge_ms.len() - 2..]
        .iter()
        .map(|ms| ms.to_bits())
        .collect();
    // The integrator is idle at full speed: a merge's ms is its Work.
    assert_eq!(ms, [work.cpu_units.to_bits(); 2]);
}

#[test]
fn template_cache_never_exceeds_its_capacity() {
    let fed = cross_source_fleet();
    let statements = 10 * TEMPLATE_CACHE_CAPACITY;
    for i in 0..statements {
        fed.explain_global(&format!("SELECT id FROM a WHERE id = {i}"))
            .unwrap();
        assert!(fed.templates.lock().len() <= TEMPLATE_CACHE_CAPACITY);
    }
    let count = |name| fed.obs().counter_value(name, &[]);
    assert_eq!(fed.templates.lock().len(), TEMPLATE_CACHE_CAPACITY);
    assert_eq!(count("compiled_template_misses_total"), statements as u64);
    assert_eq!(
        count("compiled_template_evictions_total"),
        (statements - TEMPLATE_CACHE_CAPACITY) as u64,
        "one insert and one eviction per distinct statement once full"
    );
    // Insertion order: the newest statements are resident, the first is not.
    fed.explain_global(&format!("SELECT id FROM a WHERE id = {}", statements - 1))
        .unwrap();
    assert_eq!(count("compiled_template_hits_total"), 1);
    fed.explain_global("SELECT id FROM a WHERE id = 0").unwrap();
    assert_eq!(count("compiled_template_hits_total"), 1);
}
