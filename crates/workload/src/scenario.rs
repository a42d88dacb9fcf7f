//! The experimental scenario of §5: one II, three remote servers hosting
//! replicated sample tables.
//!
//! *"we created an information integration scenario with one II server and
//! three remote servers ... Each table has been populated with randomly
//! generated data ... the tables are replicated and distributed on the
//! three remote servers such that each server is involved in a diverse set
//! of queries. The tables sizes also varied, with small tables having on
//! the order of 1000s of tuples and large tables having on the order of
//! 100000s of tuples."*
//!
//! Server heterogeneity: S3 is "the most powerful machine among the three
//! available servers" (fastest CPU) but degrades steeply under its update
//! workload for plans touching `small_s` or the `big_a.sel` index — the
//! differential sensitivity Figure 9 documents. S1 and S2 are slower but
//! flatter.

use crate::baselines::FixedRoutingMiddleware;
use qcc_catalog::ReplicaCatalog;
use qcc_common::{Obs, Pcg32, ServerId, SimTime};
use qcc_core::{LoadBalanceMode, Qcc, QccConfig};
use qcc_federation::{
    Federation, FederationConfig, Middleware, NicknameCatalog, PassthroughMiddleware,
};
use qcc_netsim::{Link, LoadProfile, Network, SimClock};
use qcc_remote::{RemoteServer, ServerProfile};
use qcc_storage::{Catalog, ColumnSpec, TableSpec};
use qcc_wrapper::{RelationalWrapper, Wrapper};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Scenario sizing and seeding.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Rows in the large tables (paper: ~100 000).
    pub large_rows: u64,
    /// Rows in the small table (paper: ~1 000).
    pub small_rows: u64,
    /// Data seed.
    pub seed: u64,
    /// Base round-trip latency of each server link in virtual ms.
    pub link_rtt_ms: f64,
    /// Link bandwidth in bytes per virtual ms.
    pub link_bandwidth: f64,
    /// Scatter worker-pool width for the federation (EXPLAIN fan-out,
    /// fragment execution, batched submission). Purely a wall-clock knob:
    /// results are byte-identical for any value ≥ 1.
    pub threads: usize,
    /// Record metrics + journal through qcc-obs (false = every emission
    /// is a no-op; used by benches to measure instrumentation overhead).
    pub obs_enabled: bool,
    /// `(speed, base load sensitivity)` per server, in id order
    /// (S1, S2, ...). Defaults to the paper's three-server mix
    /// [`SERVER_SPEEDS`]; the sim harness randomizes count and shape.
    pub server_specs: Vec<(f64, f64)>,
    /// Source-selection replication bound. 0 (the default) attaches no
    /// replica catalog — the pre-catalog compile path, byte-identical to
    /// every existing golden. > 0 builds a [`ReplicaCatalog`] with this
    /// bound, registers every server's cost hint in it, and attaches it
    /// to the federation (and the QCC when present), so each query's
    /// EXPLAIN fan-out is pruned to at most this many replicas per
    /// fragment set.
    pub replication_factor: usize,
    /// Handed to `FederationConfig::stall_factor`, the stall detector's
    /// slow-cancel multiplier (DESIGN.md §15). 0.0 (the default) never
    /// cancels a healthy stream for slowness; interrupted streams are
    /// rescued at any value.
    pub stall_factor: f64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            large_rows: 100_000,
            small_rows: 1_000,
            seed: 0x5eed,
            link_rtt_ms: 2.0,
            link_bandwidth: 50_000.0,
            threads: qcc_common::default_threads(),
            obs_enabled: true,
            server_specs: SERVER_SPEEDS.to_vec(),
            replication_factor: 0,
            stall_factor: FederationConfig::default().stall_factor,
        }
    }
}

impl ScenarioConfig {
    /// A scaled-down config for fast tests (same structure, less data).
    pub fn tiny() -> Self {
        ScenarioConfig {
            large_rows: 2_000,
            small_rows: 100,
            link_rtt_ms: 0.2,
            link_bandwidth: 500_000.0,
            ..ScenarioConfig::default()
        }
    }

    /// A servers-in-the-hundreds configuration: `n_servers` generated
    /// hosts with deterministically varied (and pairwise distinct) speeds,
    /// tiny tables (the fleet exists to be routed over, not scanned hard),
    /// and the replica catalog attached with replication bound 3.
    pub fn scale(n_servers: usize) -> Self {
        ScenarioConfig {
            large_rows: 200,
            small_rows: 40,
            link_rtt_ms: 0.2,
            link_bandwidth: 500_000.0,
            server_specs: scale_server_specs(n_servers, 0x5eed),
            replication_factor: 3,
            ..ScenarioConfig::default()
        }
    }
}

/// Deterministic per-server `(speed, base load sensitivity)` specs for a
/// generated fleet. Speeds are drawn from [0.8, 2.5) and nudged by a
/// per-index epsilon so no two servers tie exactly — source selection and
/// the cost race then have a unique winner, which is what makes
/// pruned-vs-unpruned plan identity checkable at fleet scale.
pub fn scale_server_specs(n_servers: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = Pcg32::new(seed, 0xf1ee7);
    (0..n_servers)
        .map(|i| {
            let speed = rng.range_f64(0.8, 2.5) + i as f64 * 1e-6;
            let sensitivity = rng.range_f64(0.05, 0.40);
            (speed, sensitivity)
        })
        .collect()
}

/// How queries are routed — which middleware drives the federation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Baseline II: raw cost-based choice, no calibration.
    Baseline,
    /// Fixed registration-time assignment 1 (QT1,QT3→S1, QT2→S2, QT4→S3).
    Fixed1,
    /// Fixed assignment 2: everything to the most powerful server, S3.
    Fixed2,
    /// QCC-calibrated adaptive routing.
    Qcc,
    /// QCC with round-robin load distribution at the given level.
    QccBalanced(LoadBalanceMode),
}

/// The middleware a world is built around.
enum Router {
    /// A middleware that needs nothing from the world.
    Plain(Arc<dyn Middleware>),
    /// A QCC with this configuration, sharing the world's obs handle.
    Qcc(QccConfig),
}

/// Every nickname resolves to every server.
fn every_server(_table: &str, n: usize) -> std::ops::Range<usize> {
    0..n
}

/// The assembled experiment world.
pub struct Scenario {
    /// The remote servers, in id order (S1, S2, ...).
    pub servers: Vec<Arc<RemoteServer>>,
    /// Wrappers (same order as `servers`).
    pub wrappers: Vec<Arc<dyn Wrapper>>,
    /// The federated integrator.
    pub federation: Federation,
    /// The QCC, when routing is QCC-driven.
    pub qcc: Option<Arc<Qcc>>,
    /// The shared clock.
    pub clock: SimClock,
    /// The network the wrappers route through (exposed so fault
    /// injectors can reshape per-server link congestion mid-run).
    pub network: Arc<Network>,
    /// The scenario-wide observability handle (shared by the federation,
    /// its patroller, and the QCC when present).
    pub obs: Obs,
    /// The replica catalog, when `replication_factor > 0` asked for one.
    /// Shared by the federation (source selection) and the QCC (health
    /// pushes).
    pub catalog: Option<Arc<ReplicaCatalog>>,
}

/// CPU speeds: S3 is the most powerful machine.
pub const SERVER_SPEEDS: [(f64, f64); 3] = [
    // (speed, base load sensitivity)
    (1.0, 0.30), // S1
    (1.1, 0.30), // S2
    (2.0, 0.04), // S3
];

impl Scenario {
    /// Build the full-size paper scenario.
    pub fn build(routing: Routing) -> Scenario {
        Scenario::build_with(routing, ScenarioConfig::default())
    }

    /// Build a scaled-down scenario for tests.
    pub fn tiny_for_tests() -> Scenario {
        Scenario::build_with(Routing::Qcc, ScenarioConfig::tiny())
    }

    /// Build with a custom QCC configuration (ablations tune windows,
    /// bands and balancing modes through this).
    pub fn build_with_qcc(qcc_config: QccConfig, config: ScenarioConfig) -> Scenario {
        Scenario::assemble(Router::Qcc(qcc_config), config, every_server)
    }

    /// [`Scenario::build_with_qcc`] with the *nicknames* partitioned:
    /// `big_a` and `big_b` resolve to the first half of the servers, every
    /// other table to the second half (each server still holds every
    /// table). A statement over one half is a single pushed-down fragment
    /// with that half's servers as replicas; a join across the halves
    /// decomposes into two fragments merged at the integrator — the
    /// coordinator-bound plan shapes the default world, where every
    /// server hosts every nickname, never produces.
    pub fn build_partitioned(qcc_config: QccConfig, config: ScenarioConfig) -> Scenario {
        Scenario::assemble(Router::Qcc(qcc_config), config, |table, n| {
            if matches!(table, "big_a" | "big_b") {
                0..n / 2
            } else {
                n / 2..n
            }
        })
    }

    /// Build with explicit sizing.
    pub fn build_with(routing: Routing, config: ScenarioConfig) -> Scenario {
        let router = match routing {
            Routing::Baseline => Router::Plain(Arc::new(PassthroughMiddleware::with_cache())),
            Routing::Fixed1 => Router::Plain(Arc::new(FixedRoutingMiddleware::new(
                crate::baselines::FIXED_ASSIGNMENT_1(),
            ))),
            Routing::Fixed2 => Router::Plain(Arc::new(FixedRoutingMiddleware::new(
                crate::baselines::FIXED_ASSIGNMENT_2(),
            ))),
            Routing::Qcc => Router::Qcc(QccConfig::default()),
            Routing::QccBalanced(mode) => Router::Qcc(QccConfig::with_load_balance(mode)),
        };
        Scenario::assemble(router, config, every_server)
    }

    /// The one world builder: servers over one shared table image, their
    /// links and wrappers, and a federation around `router` whose nickname
    /// `table` resolves to the servers at indices `hosts(table, n)`.
    fn assemble(
        router: Router,
        config: ScenarioConfig,
        hosts: fn(&str, usize) -> std::ops::Range<usize>,
    ) -> Scenario {
        let specs = table_specs(&config);

        // One image per replica set: the tables are generated, analyzed
        // and indexed once, and every server holds an `Arc` of that one
        // immutable catalog (DESIGN.md §13).
        let mut image = Catalog::new();
        for spec in &specs {
            image.register(spec.generate(config.seed));
        }
        // Access paths the selective query types exploit.
        image.create_index("big_a", "sel").expect("column exists");
        image.create_index("big_a", "id").expect("column exists");
        image.create_index("big_d", "sel").expect("column exists");
        image.create_index("big_c", "flag").expect("column exists");
        let image = Arc::new(image);

        let clock = SimClock::new();
        let mut servers = Vec::new();
        let mut network = Network::new();
        for (i, (speed, base_sensitivity)) in config.server_specs.iter().enumerate() {
            let id = ServerId::new(format!("S{}", i + 1));
            let profile = ServerProfile {
                id: id.clone(),
                speed: *speed,
                base_sensitivity: *base_sensitivity,
                per_query_load: 0.03,
            };
            servers.push(RemoteServer::new(profile, Arc::clone(&image)));
            network.add_link(
                id,
                Link::new(
                    config.link_rtt_ms,
                    config.link_bandwidth,
                    LoadProfile::Constant(0.0),
                ),
            );
        }
        let network = Arc::new(network);

        let mut nicknames = NicknameCatalog::new();
        for spec in &specs {
            nicknames.define(&spec.name, spec.schema());
            for s in &servers[hosts(&spec.name, servers.len())] {
                nicknames
                    .add_source(&spec.name, s.id().clone(), &spec.name)
                    .expect("nickname defined above");
            }
        }

        let obs = if config.obs_enabled {
            Obs::new()
        } else {
            Obs::off()
        };
        let (middleware, qcc, retry_limit): (Arc<dyn Middleware>, _, _) = match router {
            Router::Plain(middleware) => {
                (middleware, None, FederationConfig::default().retry_limit)
            }
            Router::Qcc(qcc_config) => {
                let qcc = Qcc::with_obs(qcc_config, obs.clone());
                let retry_limit = qcc.config.retry_limit;
                (qcc.middleware(), Some(qcc), retry_limit)
            }
        };

        let mut federation = Federation::new(
            nicknames,
            clock.clone(),
            middleware,
            FederationConfig {
                threads: config.threads,
                retry_limit,
                stall_factor: config.stall_factor,
                ..FederationConfig::default()
            },
        );
        federation.set_obs(obs.clone());
        let mut wrappers: Vec<Arc<dyn Wrapper>> = Vec::new();
        for s in &servers {
            let w: Arc<dyn Wrapper> =
                Arc::new(RelationalWrapper::new(Arc::clone(s), Arc::clone(&network)));
            federation.add_wrapper(Arc::clone(&w));
            wrappers.push(w);
        }

        let catalog = build_replica_catalog(config.replication_factor, &servers, &obs);
        if let Some(catalog) = &catalog {
            federation.set_catalog(Arc::clone(catalog));
            if let Some(qcc) = &qcc {
                qcc.set_catalog(Arc::clone(catalog));
            }
        }

        Scenario {
            servers,
            wrappers,
            federation,
            qcc,
            clock,
            network,
            obs,
            catalog,
        }
    }

    /// The server with the given id.
    pub fn server(&self, id: &str) -> &Arc<RemoteServer> {
        self.servers
            .iter()
            .find(|s| s.id().as_str() == id)
            .expect("known server id")
    }
}

/// Build the replica catalog for a fleet: one cost hint per server of
/// `1 / speed` — the same scaling the wrappers' raw EXPLAIN estimates
/// carry, so the catalog's pre-EXPLAIN ranking agrees with the
/// post-EXPLAIN cost race and the capped survivor set always contains the
/// eventual winner. Placement stays in the nickname catalog; the bound
/// caps *consultation*, not placement.
fn build_replica_catalog(
    replication_factor: usize,
    servers: &[Arc<RemoteServer>],
    obs: &Obs,
) -> Option<Arc<ReplicaCatalog>> {
    if replication_factor == 0 {
        return None;
    }
    let catalog = ReplicaCatalog::new(replication_factor).with_obs(obs.clone());
    for s in servers {
        catalog.register(s.id().clone(), 1.0 / s.profile().speed, SimTime::ZERO);
    }
    Some(Arc::new(catalog))
}

/// The sample tables: three large, one small, per the paper's size mix.
fn table_specs(config: &ScenarioConfig) -> Vec<TableSpec> {
    vec![
        TableSpec::new(
            "big_a",
            config.large_rows,
            vec![
                ColumnSpec::Serial { name: "id".into() },
                ColumnSpec::IntUniform {
                    name: "grp".into(),
                    lo: 0,
                    hi: config.small_rows.max(1) as i64,
                },
                ColumnSpec::FloatUniform {
                    name: "val".into(),
                    lo: 0.0,
                    hi: 100.0,
                },
                ColumnSpec::IntUniform {
                    name: "sel".into(),
                    lo: 0,
                    hi: 10_000,
                },
            ],
        ),
        TableSpec::new(
            "big_d",
            config.large_rows,
            vec![
                ColumnSpec::Serial { name: "id".into() },
                ColumnSpec::IntUniform {
                    name: "grp".into(),
                    lo: 0,
                    hi: config.small_rows.max(1) as i64,
                },
                ColumnSpec::FloatUniform {
                    name: "val".into(),
                    lo: 0.0,
                    hi: 100.0,
                },
                ColumnSpec::IntUniform {
                    name: "sel".into(),
                    lo: 0,
                    hi: 10_000,
                },
            ],
        ),
        TableSpec::new(
            "big_b",
            config.large_rows,
            vec![
                ColumnSpec::Serial { name: "id".into() },
                ColumnSpec::IntUniform {
                    name: "a_id".into(),
                    lo: 0,
                    hi: config.large_rows as i64,
                },
                ColumnSpec::IntUniform {
                    name: "qty".into(),
                    lo: 0,
                    hi: 100,
                },
            ],
        ),
        TableSpec::new(
            "big_c",
            config.large_rows,
            vec![
                ColumnSpec::Serial { name: "id".into() },
                ColumnSpec::IntUniform {
                    name: "b_id".into(),
                    lo: 0,
                    hi: config.large_rows as i64,
                },
                ColumnSpec::IntUniform {
                    name: "flag".into(),
                    lo: 0,
                    hi: 5_000,
                },
            ],
        ),
        TableSpec::new(
            "small_s",
            config.small_rows,
            vec![
                ColumnSpec::Serial { name: "id".into() },
                ColumnSpec::StrPool {
                    name: "cat".into(),
                    pool_size: 10,
                },
                ColumnSpec::FloatUniform {
                    name: "bonus".into(),
                    lo: 0.0,
                    hi: 100.0,
                },
            ],
        ),
    ]
}

/// Per-table / per-index contention each server suffers while its update
/// workload runs (phase "Load" state). See DESIGN.md: these are the
/// heterogeneity knobs that produce Figure 9's shapes.
pub fn contention_for(server: &ServerId) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    match server.as_str() {
        // S1/S2: flat moderate contention everywhere; updates on the small
        // table and the indexes contend a bit harder.
        "S1" | "S2" => {
            for t in ["big_a", "big_b", "big_c"] {
                m.insert(t.to_string(), 0.15);
            }
            m.insert("big_d".into(), 0.30);
            m.insert("small_s".into(), 0.40);
        }
        // S3: nearly insensitive for most scans, but its update workload
        // hammers small_s and big_d — the paper's "for QT2, S3 is much
        // more sensitive to load than the others" (and likewise QT3,
        // whose tables include big_d).
        "S3" => {
            m.insert("small_s".into(), 1.10);
            m.insert("big_d".into(), 1.10);
        }
        _ => {}
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builds_with_replicated_tables() {
        let s = Scenario::tiny_for_tests();
        assert_eq!(s.servers.len(), 3);
        for srv in &s.servers {
            let names = srv.engine().catalog().table_names();
            assert_eq!(names, vec!["big_a", "big_b", "big_c", "big_d", "small_s"]);
        }
        // Every nickname resolvable on every server.
        let common = s
            .federation
            .nicknames()
            .common_servers(&["big_a", "big_b", "big_c", "big_d", "small_s"])
            .unwrap();
        assert_eq!(common.len(), 3);
    }

    #[test]
    fn every_replica_holds_identical_data() {
        let s = Scenario::tiny_for_tests();
        let a = s.server("S1").engine().catalog().entry("big_a").unwrap();
        let b = s.server("S3").engine().catalog().entry("big_a").unwrap();
        assert_eq!(a.table.rows(), b.table.rows());
    }

    /// Every builder hands all of a world's servers one shared table
    /// image: the same `Catalog` by address, not equal copies.
    #[test]
    fn every_builder_shares_one_image_across_servers() {
        let worlds = [
            (
                "build_with",
                Scenario::build_with(Routing::Baseline, ScenarioConfig::scale(6)),
            ),
            (
                "build_with_qcc",
                Scenario::build_with_qcc(QccConfig::default(), ScenarioConfig::scale(6)),
            ),
            (
                "build_partitioned",
                Scenario::build_partitioned(QccConfig::default(), ScenarioConfig::scale(6)),
            ),
        ];
        for (builder, s) in &worlds {
            let image = s.servers[0].engine().catalog();
            for srv in &s.servers {
                let catalog = srv.engine().catalog();
                assert!(
                    std::ptr::eq(image, catalog),
                    "{builder}: {} holds its own catalog",
                    srv.id()
                );
                assert_eq!(catalog.table_names(), image.table_names(), "{builder}");
            }
        }
    }

    #[test]
    fn s3_is_fastest() {
        let s = Scenario::tiny_for_tests();
        assert!(s.server("S3").profile().speed > s.server("S1").profile().speed);
    }

    #[test]
    fn queries_execute_end_to_end() {
        let s = Scenario::tiny_for_tests();
        for qt in crate::ALL_QUERY_TYPES {
            let out = s
                .federation
                .submit(&qt.sql(0))
                .unwrap_or_else(|e| panic!("{qt}: {e}"));
            assert!(out.response_ms > 0.0, "{qt}");
        }
    }

    #[test]
    fn default_build_attaches_no_catalog() {
        // replication_factor 0 must leave the compile path exactly as it
        // was pre-catalog: no catalog object, no catalog journal events.
        let s = Scenario::tiny_for_tests();
        assert!(s.catalog.is_none());
        s.federation.submit("SELECT COUNT(*) FROM small_s").unwrap();
        assert!(s.obs.events_of("catalog_register").is_empty());
        assert!(s.obs.events_of("catalog_prune").is_empty());
    }

    #[test]
    fn scale_build_prunes_explain_fan_out_to_the_replication_bound() {
        let n = 20;
        let config = ScenarioConfig::scale(n);
        assert_eq!(config.server_specs.len(), n);
        let s = Scenario::build_with(Routing::Qcc, config);
        let catalog = s.catalog.as_ref().expect("scale build attaches a catalog");
        assert_eq!(catalog.bound(), 3);
        assert_eq!(
            s.obs.events_of("catalog_register").len(),
            n,
            "one registration per server"
        );

        s.federation.submit("SELECT COUNT(*) FROM small_s").unwrap();
        let spans = s.obs.events_of("compile");
        assert_eq!(spans.len(), 1);
        let tasks = spans[0].field("explain_tasks").expect("span field");
        let tasks = match tasks {
            qcc_common::FieldValue::U64(v) => *v as usize,
            other => panic!("unexpected field {other:?}"),
        };
        assert!(
            tasks <= 3,
            "one fragment × bound 3: got {tasks} EXPLAIN tasks over {n} servers"
        );
        assert!(
            s.obs.counter_value("catalog_candidates_pruned_total", &[]) as usize >= n - 3,
            "pruned candidates are counted"
        );
        assert_eq!(s.obs.events_of("catalog_prune").len(), 1);
    }

    /// Pruning soundness (seeded property): across fleets and seeds, the
    /// plan chosen over the pruned candidate set is the plan chosen over
    /// the full set — same signature, same cost. Pruning may only change
    /// how many servers are *consulted*, never which plan wins.
    #[test]
    fn pruned_and_unpruned_compiles_choose_identical_plans() {
        for seed in [1u64, 7, 42] {
            for n in [8usize, 17, 120] {
                let mut pruned_cfg = ScenarioConfig::scale(n);
                pruned_cfg.seed = seed;
                pruned_cfg.server_specs = scale_server_specs(n, seed);
                let mut full_cfg = pruned_cfg.clone();
                full_cfg.replication_factor = 0;
                let pruned = Scenario::build_with(Routing::Qcc, pruned_cfg);
                let full = Scenario::build_with(Routing::Qcc, full_cfg);
                for sql in [
                    "SELECT COUNT(*) FROM small_s",
                    "SELECT a.sel, COUNT(*) AS n FROM big_a a WHERE a.sel < 500 \
                     GROUP BY a.sel ORDER BY a.sel",
                    // Two nicknames: grouped by host membership, scored
                    // on the summed hints.
                    "SELECT s.cat, COUNT(*) AS n FROM big_a a JOIN small_s s ON a.grp = s.id \
                     WHERE a.sel < 500 GROUP BY s.cat ORDER BY s.cat",
                ] {
                    let (_, pc) = pruned.federation.explain_global(sql).unwrap();
                    let (_, fc) = full.federation.explain_global(sql).unwrap();
                    assert!(pc.len() <= fc.len());
                    assert_eq!(
                        pc[0].signature(),
                        fc[0].signature(),
                        "winner diverged (seed {seed}, n {n}, {sql})"
                    );
                    assert!(
                        (pc[0].total_cost() - fc[0].total_cost()).abs() < 1e-9,
                        "winning cost diverged (seed {seed}, n {n}, {sql})"
                    );
                }
            }
        }
    }

    #[test]
    fn all_query_types_return_identical_rows_from_any_server() {
        // Correctness does not depend on routing: force each server via
        // the fixed baselines and compare results.
        let qcc = Scenario::build_with(Routing::Qcc, ScenarioConfig::tiny());
        let f2 = Scenario::build_with(Routing::Fixed2, ScenarioConfig::tiny());
        for qt in crate::ALL_QUERY_TYPES {
            let a = qcc.federation.submit(&qt.sql(1)).unwrap();
            let b = f2.federation.submit(&qt.sql(1)).unwrap();
            let mut ra = a.rows.clone();
            let mut rb = b.rows.clone();
            ra.sort_by(|x, y| x.values().cmp(y.values()));
            rb.sort_by(|x, y| x.values().cmp(y.values()));
            assert_eq!(ra, rb, "{qt}");
        }
    }
}
