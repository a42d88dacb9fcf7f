//! The four workloads: their constants, their seeded inputs and the world
//! each one runs against.

use crate::shapes::{self, Shape};
use crate::ticks::{TickWrapper, Ticks};
use qcc_admission::{AdmissionConfig, AdmissionController};
use qcc_common::{Obs, Pcg32, Row, ServerId, SimDuration, SimTime};
use qcc_core::{Qcc, QccConfig};
use qcc_federation::{Federation, FederationConfig, NicknameCatalog, DEFAULT_PLAN_CACHE_CAPACITY};
use qcc_workload::scenario::scale_server_specs;
use qcc_workload::{
    poisson_arrivals, ArrivalEvent, QueryType, Routing, Scenario, ScenarioConfig, ALL_QUERY_TYPES,
};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperPhases,
    CoordinatorHot,
    FleetAdhoc,
    OverloadFaults,
}

pub const ALL_WORKLOADS: [Workload; 4] = [
    Workload::PaperPhases,
    Workload::CoordinatorHot,
    Workload::FleetAdhoc,
    Workload::OverloadFaults,
];

/// Statements in one cycle of the paper mix (QT1–QT4 × 10 instances).
pub const CYCLE: usize = 40;
/// Fragment executions per clock note in the open loop (about 60 ms).
const TICKS_PER_SEGMENT: u64 = 250;
/// Table-1 load phases in `paper_phases`.
pub const PHASES: usize = 8;
/// Poisson arrival rate of `overload_faults` per virtual ms: about twice
/// what the tiny three-server world drains (as the `admission_overload`
/// bench measured it).
const ARRIVALS_PER_MS: f64 = 6.0;
const QUEUE_DEADLINE_MS: f64 = 40.0;
const EXEC_DEADLINE_MS: f64 = 120.0;
/// Fault windows in `overload_faults`, the share of the arrival horizon
/// each one covers, and the error rate inside a flaky one.
const FAULT_WINDOWS: usize = 10;
const FAULT_WINDOW_SHARE: f64 = 0.03;
const FLAKY_RATE: f64 = 0.5;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperPhases => "paper_phases",
            Workload::CoordinatorHot => "coordinator_hot",
            Workload::FleetAdhoc => "fleet_adhoc",
            Workload::OverloadFaults => "overload_faults",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL_WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Operations per requested second of measurement. Tuned once on the
    /// recorded host (2 cores, see BENCHMARK.json / README.md) so that
    /// `--seconds N` measures for about N seconds there, then frozen: the
    /// operation count, not the clock, ends a run, so every count-derived
    /// and virtual-time metric repeats exactly for a given seed.
    fn ops_per_second(self) -> usize {
        match self {
            Workload::PaperPhases => 134,
            Workload::CoordinatorHot => 2_300,
            Workload::FleetAdhoc => 2_500,
            Workload::OverloadFaults => 7_000,
        }
    }

    /// Operations in one run. `--smoke` divides by 50.
    pub fn ops(self, seconds: u64, smoke: bool) -> usize {
        let full = self.ops_per_second() * seconds as usize;
        let ops = if smoke { full / 50 } else { full };
        match self {
            // Whole phases only.
            Workload::PaperPhases => (ops / PHASES).max(1) * PHASES,
            // The working set must overflow the plan cache: that is what
            // the workload is for.
            Workload::FleetAdhoc if !smoke => ops.max(DEFAULT_PLAN_CACHE_CAPACITY + 500),
            _ => ops.max(1),
        }
    }

    /// Virtual-time deadline an answer must meet to count as goodput.
    pub fn deadline_ms(self) -> f64 {
        match self {
            Workload::PaperPhases => 400.0,
            Workload::CoordinatorHot | Workload::FleetAdhoc => 50.0,
            Workload::OverloadFaults => QUEUE_DEADLINE_MS + EXEC_DEADLINE_MS,
        }
    }

    /// Whether measured statements compile cold (never seen before).
    pub fn cold_compile(self) -> bool {
        self == Workload::FleetAdhoc
    }
}

/// One statement of a closed-loop workload.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub sql: String,
    /// The statement the traced ladder compiles a second time: the same
    /// text where compiles are cache-hot, a variant where they are cold.
    pub probe_sql: String,
    /// Query class for per-class trace summaries.
    pub class: &'static str,
}

/// What the seed generates. The program under test sees only these.
pub enum Inputs {
    Closed(Vec<Stmt>),
    Open(Vec<ArrivalEvent>),
}

impl Inputs {
    pub fn len(&self) -> usize {
        match self {
            Inputs::Closed(s) => s.len(),
            Inputs::Open(a) => a.len(),
        }
    }

    /// Virtual length of an open-loop arrival stream (0 for closed loops).
    pub fn horizon_ms(&self) -> f64 {
        match self {
            Inputs::Closed(_) => 0.0,
            Inputs::Open(a) => a.last().map_or(0.0, |a| a.at.as_millis()),
        }
    }
}

pub fn class_of(qt: QueryType) -> &'static str {
    match qt {
        QueryType::QT1 => "QT1",
        QueryType::QT2 => "QT2",
        QueryType::QT3 => "QT3",
        QueryType::QT4 => "QT4",
    }
}

/// The forty paper statements (QT1–QT4 × 10 instances).
pub fn paper_statements() -> Vec<(QueryType, String)> {
    ALL_QUERY_TYPES
        .into_iter()
        .flat_map(|qt| (0..10).map(move |i| (qt, qt.sql(i))))
        .collect()
}

pub fn generate_inputs(workload: Workload, seed: u64, ops: usize) -> Inputs {
    match workload {
        Workload::PaperPhases | Workload::CoordinatorHot => {
            // The uniform mix as shuffled cycles: each cycle holds every
            // one of the forty statements once, in a seeded order. Any
            // whole number of cycles is then the same work, which lets
            // the harness compare segments of a run with one another.
            let mut pool = paper_statements();
            debug_assert_eq!(pool.len(), CYCLE);
            let mut rng = Pcg32::new(seed, 0x9c0ffee);
            let mut stmts = Vec::with_capacity(ops + CYCLE);
            while stmts.len() < ops {
                rng.shuffle(&mut pool);
                stmts.extend(pool.iter().map(|(qt, sql)| Stmt {
                    sql: sql.clone(),
                    probe_sql: sql.clone(),
                    class: class_of(*qt),
                }));
            }
            stmts.truncate(ops);
            Inputs::Closed(stmts)
        }
        Workload::FleetAdhoc => Inputs::Closed(
            shapes::generate(seed, ops)
                .iter()
                .map(|s: &Shape| Stmt {
                    sql: s.sql(0),
                    probe_sql: s.sql(1),
                    class: s.class,
                })
                .collect(),
        ),
        Workload::OverloadFaults => Inputs::Open(poisson_arrivals(ARRIVALS_PER_MS, ops, seed)),
    }
}

/// A built world, warmed and ready for the measured section.
pub struct World {
    pub scenario: Scenario,
    /// Present in `overload_faults` only.
    pub admission: Option<Arc<AdmissionController>>,
    /// The open loop's segment clock; `overload_faults` only.
    pub ticks: Option<Arc<Ticks>>,
    /// `(statement, rows of its first submit)` for every warm-up statement;
    /// the output check compares them with a second engine.
    pub warm_rows: Vec<(String, Vec<Row>)>,
}

impl World {
    pub fn qcc(&self) -> &Arc<Qcc> {
        self.scenario
            .qcc
            .as_ref()
            .expect("every world routes by QCC")
    }
}

/// Build the world of `workload` and submit each warm-up statement once.
/// `horizon_ms` is the virtual length of the open-loop arrival stream
/// (ignored by the closed loops); the outage windows are laid over it.
///
/// This is what `setup_s` times: datagen, index build, catalog
/// registration, wrappers, federation + QCC wiring, warm-up submits.
pub fn build_world(workload: Workload, horizon_ms: f64) -> World {
    let mut scenario = match workload {
        Workload::PaperPhases => Scenario::build_with(
            Routing::Qcc,
            ScenarioConfig {
                large_rows: 40_000,
                small_rows: 1_000,
                threads: 1,
                ..ScenarioConfig::default()
            },
        ),
        Workload::CoordinatorHot => coordinator_world(),
        Workload::FleetAdhoc => Scenario::build_with(
            Routing::Qcc,
            ScenarioConfig {
                threads: 1,
                ..ScenarioConfig::scale(250)
            },
        ),
        Workload::OverloadFaults => Scenario::build_with_qcc(
            QccConfig::default(),
            ScenarioConfig {
                threads: 1,
                replication_factor: 3,
                stall_factor: 3.0,
                ..ScenarioConfig::tiny()
            },
        ),
    };

    // Warm-up: the paper statements, once each. `fleet_adhoc` warms only
    // the first instance of each type — its measured statements are cold
    // by design, the warm-up merely seeds the servers' calibration.
    let warm: Vec<String> = paper_statements()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| workload != Workload::FleetAdhoc || i % 10 == 0)
        .map(|(_, (_, sql))| sql)
        .collect();
    let warm_rows = warm
        .into_iter()
        .map(|sql| {
            let out = scenario
                .federation
                .submit(&sql)
                .unwrap_or_else(|e| panic!("warm-up submit failed: {sql}: {e}"));
            (sql, out.rows)
        })
        .collect();

    let (mut admission, mut ticks) = (None, None);
    if workload == Workload::OverloadFaults {
        let clock = Ticks::new(TICKS_PER_SEGMENT);
        for inner in &scenario.wrappers {
            // Same server id: replaces the wrapper registered under it.
            scenario.federation.add_wrapper(Arc::new(TickWrapper {
                inner: Arc::clone(inner),
                ticks: Arc::clone(&clock),
            }));
        }
        ticks = Some(clock);
        // Every feature on: admission (as the `admission_overload` bench
        // configures it), replica catalog and mid-query reroute (above),
        // retries, and a server that keeps going down.
        let controller = Arc::new(AdmissionController::with_obs(
            AdmissionConfig {
                queue_deadline_ms: QUEUE_DEADLINE_MS,
                exec_deadline_ms: EXEC_DEADLINE_MS,
                base_tokens: 4,
                max_queue_depth: 1024,
                ..AdmissionConfig::default()
            },
            scenario.obs.clone(),
        ));
        scenario.federation.set_admission(Arc::clone(&controller));
        admission = Some(controller);
        // Ten evenly spaced windows over the arrival horizon, starting
        // after the warm-up, all on S2. The first nine are flaky (half its
        // requests fail): whole-query retries. The last is a crash, which
        // cuts the streams in flight (remainder reroute) and lasts:
        // nothing in the open-loop driver probes a downed server, so the
        // QCC never routes to it again, and an earlier crash would leave
        // the rest of the run a two-server world. S2 is never a
        // fragment's only surviving source (S3 is faster), so every fault
        // has somewhere to go; the run asserts recovery really happened.
        let t0 = scenario.clock.now().as_millis();
        let s2 = scenario.server("S2");
        for k in 0..FAULT_WINDOWS {
            let from =
                SimTime::from_millis(t0 + horizon_ms * (k as f64 + 0.5) / FAULT_WINDOWS as f64);
            let until = from + SimDuration::from_millis(horizon_ms * FAULT_WINDOW_SHARE);
            if k + 1 < FAULT_WINDOWS {
                s2.faults().add_window(from, until, FLAKY_RATE);
            } else {
                s2.availability().add_outage(from, until);
            }
        }
    }
    World {
        scenario,
        admission,
        ticks,
        warm_rows,
    }
}

/// The arrival stream shifted to start at `by`, the world's current
/// virtual time (the warm-up already advanced the clock).
pub fn shifted_arrivals(arrivals: &[ArrivalEvent], by: SimTime) -> Vec<ArrivalEvent> {
    let by = SimDuration::from_millis(by.as_millis());
    arrivals
        .iter()
        .map(|a| ArrivalEvent {
            at: a.at + by,
            ..a.clone()
        })
        .collect()
}

/// `coordinator_hot`: six servers holding 200/40-row replicas, with the
/// *nicknames* partitioned — `big_a`, `big_b` resolve to S1–S3, `big_c`,
/// `big_d`, `small_s` to S4–S6 — so QT1 is one pushed-down fragment while
/// QT2, QT3 and QT4 are two fragments merged at the integrator. Fragment
/// execution is trivial; what is left is the coordinator.
fn coordinator_world() -> Scenario {
    let config = ScenarioConfig {
        threads: 1,
        replication_factor: 0,
        server_specs: scale_server_specs(6, 0x5eed),
        ..ScenarioConfig::scale(6)
    };
    // Servers, wrappers, network and clock come from the stock builder;
    // the federation is rebuilt around partitioned nicknames, the way
    // `Scenario::build_with_qcc` rebuilds one around a QCC.
    let mut scenario = Scenario::build_with(Routing::Baseline, config);
    let mut nicknames = NicknameCatalog::new();
    let tables = scenario.servers[0].engine().catalog();
    for table in tables.table_names() {
        let schema = tables
            .entry(table)
            .expect("listed table exists")
            .table
            .schema()
            .clone();
        nicknames.define(table, schema);
        let hosts = if matches!(table, "big_a" | "big_b") {
            &scenario.servers[..3]
        } else {
            &scenario.servers[3..]
        };
        for s in hosts {
            nicknames
                .add_source(table, ServerId::clone(s.id()), table)
                .expect("nickname defined above");
        }
    }
    let obs = Obs::new();
    let qcc = Qcc::with_obs(QccConfig::default(), obs.clone());
    let mut federation = Federation::new(
        nicknames,
        scenario.clock.clone(),
        qcc.middleware(),
        FederationConfig {
            threads: 1,
            retry_limit: qcc.config.retry_limit,
            ..FederationConfig::default()
        },
    );
    federation.set_obs(obs.clone());
    for w in &scenario.wrappers {
        federation.add_wrapper(Arc::clone(w));
    }
    scenario.federation = federation;
    scenario.qcc = Some(qcc);
    scenario.obs = obs;
    scenario
}
