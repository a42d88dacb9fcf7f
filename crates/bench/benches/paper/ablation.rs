//! Ablations of the QCC's design choices (DESIGN.md §8):
//!
//! 1. **Calibration window size** — measured as *adaptation lag*: how many
//!    queries after a sudden load flip until routing leaves the loaded
//!    server. Small windows react fast; large windows average the new
//!    regime away.
//! 2. **Per-fragment vs per-server-only factors** — §3.1 argues for
//!    fragment-level refinement; per-server-only forces all query types
//!    to share one factor, mis-routing the types whose sensitivity
//!    differs from the average.
//! 3. **Cost band width for load distribution** — §4's 20% band, measured
//!    on equal replicas: a 5% band with small cost jitter rotates less
//!    than the 20% band; the spread across servers is the observable.

use qcc_bench::{print_table, BenchScale, WARMUP};
use qcc_common::{Column, DataType, Row, Schema, ServerId, Value};
use qcc_core::{LoadBalanceMode, Qcc, QccConfig};
use qcc_federation::{Federation, FederationConfig, NicknameCatalog};
use qcc_netsim::{Link, LoadProfile, Network, SimClock};
use qcc_remote::{RemoteServer, ServerProfile};
use qcc_storage::{Catalog, Table};
use qcc_workload::{run_phases_on, PhaseSchedule, QueryType, Routing, Scenario};
use qcc_wrapper::RelationalWrapper;
use std::sync::Arc;

/// Print the three ablation tables.
pub fn run(scale: &BenchScale) {
    ablation_window_size(scale);
    ablation_fragment_factors(scale);
    ablation_cost_band();
}

/// 1. Window size vs adaptation lag after an unannounced load flip
///    (no phase-boundary reset — the window must do the forgetting).
fn ablation_window_size(scale: &BenchScale) {
    let mut rows = Vec::new();
    for window in [2usize, 8, 32] {
        let config = QccConfig {
            calibration_window: window,
            ..QccConfig::default()
        };
        let scenario = Scenario::build_with_qcc(config, scale.config.clone());
        // Establish S3 as the learned choice for QT2 while unloaded,
        // with enough history to saturate the largest window under test.
        for i in 0..36 {
            let _ = scenario.federation.submit(&QueryType::QT2.sql(i));
        }
        // A *moderate* load flips on S3 (drastic jumps re-route within a
        // couple of queries regardless of window; the window's inertia
        // shows on gentler shifts).
        scenario
            .server("S3")
            .load()
            .set_background(LoadProfile::Constant(0.6));
        scenario
            .server("S3")
            .set_contention(qcc_workload::scenario::contention_for(&ServerId::new("S3")));
        let mut lag = None;
        for i in 0..48 {
            let out = scenario
                .federation
                .submit(&QueryType::QT2.sql(i))
                .expect("runs");
            if !out.servers.contains(&ServerId::new("S3")) {
                lag = Some(i + 1);
                break;
            }
        }
        rows.push(vec![
            format!("window={window}"),
            lag.map(|l| l.to_string()).unwrap_or_else(|| ">48".into()),
        ]);
    }
    print_table(
        "Ablation 1 — calibration window vs adaptation lag (queries until re-route)",
        &["config".into(), "lag".into()],
        &rows,
    );
}

/// 2. Per-fragment refinement on/off, over the contrast phases.
fn ablation_fragment_factors(scale: &BenchScale) {
    let schedule = PhaseSchedule {
        phases: PhaseSchedule::paper_table1()
            .phases
            .into_iter()
            .filter(|p| [2, 8].contains(&p.number))
            .collect(),
    };
    let mut rows = Vec::new();
    for (label, min_obs) in [
        ("per-fragment (min_obs=1)", 1usize),
        ("per-server only", usize::MAX),
    ] {
        let config = QccConfig {
            min_fragment_observations: min_obs,
            ..QccConfig::default()
        };
        let scenario = Scenario::build_with_qcc(config, scale.config.clone());
        let result = run_phases_on(&scenario, Routing::Qcc, &schedule, scale.instances, WARMUP);
        let mut row = vec![label.to_string()];
        row.extend(result.phases.iter().map(|p| format!("{:.1}", p.avg_ms)));
        rows.push(row);
    }
    print_table(
        "Ablation 2 — fragment-level calibration factors (mean response ms)",
        &["config".into(), "S3 loaded".into(), "all loaded".into()],
        &rows,
    );
}

/// 3. Cost band width over *equal replicas* whose links differ slightly
///    (≈8% cost spread): the 5% band excludes the slower pair, the 20%
///    band admits it, 50% admits everything.
fn ablation_cost_band() {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("v", DataType::Int),
    ]);
    let mut data = Table::new("data", schema.clone());
    for i in 0..3_000i64 {
        data.insert(Row::new(vec![Value::Int(i), Value::Int(i % 20)]))
            .unwrap();
    }

    let mut rows = Vec::new();
    for band in [0.05f64, 0.2, 0.5] {
        // Three replicas with slightly different CPU speeds so their
        // calibrated costs sit ~8% apart.
        let mut network = Network::new();
        let mut nicknames = NicknameCatalog::new();
        nicknames.define("data", schema.clone());
        let mut servers = Vec::new();
        for (i, speed) in [1.0f64, 0.93, 0.86].iter().enumerate() {
            let id = ServerId::new(format!("N{i}"));
            let mut c = Catalog::new();
            c.register(data.clone());
            let mut p = ServerProfile::new(id.clone());
            p.speed = *speed;
            servers.push(RemoteServer::new(p, c));
            network.add_link(
                id.clone(),
                Link::new(0.5, 100_000.0, LoadProfile::Constant(0.0)),
            );
            nicknames.add_source("data", id, "data").expect("defined");
        }
        let network = Arc::new(network);
        let qcc = Qcc::new(QccConfig {
            cost_band: band,
            load_balance: LoadBalanceMode::GlobalLevel,
            ..QccConfig::default()
        });
        let mut fed = Federation::new(
            nicknames,
            SimClock::new(),
            qcc.middleware(),
            FederationConfig::default(),
        );
        for s in &servers {
            fed.add_wrapper(Arc::new(RelationalWrapper::new(
                Arc::clone(s),
                Arc::clone(&network),
            )));
        }
        let sql = "SELECT v, COUNT(*) AS n FROM data GROUP BY v";
        let mut counts = [0usize; 3];
        for _ in 0..24 {
            let out = fed.submit(sql).expect("runs");
            for (i, _) in [0, 1, 2].iter().enumerate() {
                if out.servers.contains(&ServerId::new(format!("N{i}"))) {
                    counts[i] += 1;
                }
            }
        }
        rows.push(vec![
            format!("band={:.0}%", band * 100.0),
            format!("{:.0}%", 100.0 * counts[0] as f64 / 24.0),
            format!("{:.0}%", 100.0 * counts[1] as f64 / 24.0),
            format!("{:.0}%", 100.0 * counts[2] as f64 / 24.0),
        ]);
    }
    print_table(
        "Ablation 3 — cost band vs load spread over near-equal replicas (share of queries)",
        &[
            "config".into(),
            "N0 (fastest)".into(),
            "N1 (−7%)".into(),
            "N2 (−14%)".into(),
        ],
        &rows,
    );
}
