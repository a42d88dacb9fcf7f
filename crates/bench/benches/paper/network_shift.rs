//! Supplementary: the "network aware" half of the paper's title.
//!
//! The paper folds network latency into the same calibration factor as
//! server load (§3.1) and gives it no dedicated figure; this module
//! produces one. Two identical replicas — one near (2 ms RTT), one far
//! (12 ms RTT) — serve a steady query stream while congestion on the near
//! link steps up and back down. The series shows the response time the
//! client sees and which replica served each window, under the baseline
//! (no QCC) and under QCC routing.

use qcc_bench::print_table;
use qcc_common::{Column, DataType, Row, Schema, ServerId, SimDuration, SimTime, Value};
use qcc_core::{Qcc, QccConfig};
use qcc_federation::{
    Federation, FederationConfig, Middleware, NicknameCatalog, PassthroughMiddleware,
};
use qcc_netsim::{Link, LoadProfile, Network, SimClock};
use qcc_remote::{RemoteServer, ServerProfile};
use qcc_storage::{Catalog, Table};
use qcc_wrapper::RelationalWrapper;
use std::sync::Arc;

const SQL: &str = "SELECT grp, COUNT(*) AS n FROM readings GROUP BY grp";

fn build(with_qcc: bool) -> (Federation, Link, SimClock) {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("grp", DataType::Int),
    ]);
    let mut readings = Table::new("readings", schema.clone());
    for i in 0..8_000i64 {
        readings
            .insert(Row::new(vec![Value::Int(i), Value::Int(i % 10)]))
            .unwrap();
    }
    let mk = |name: &str| {
        let mut c = Catalog::new();
        c.register(readings.clone());
        RemoteServer::new(ServerProfile::new(ServerId::new(name)), c)
    };
    let near = mk("near");
    let far = mk("far");

    // Congestion steps: calm until 1 s, congested 1–3 s, calm again.
    let near_link = Link::new(
        2.0,
        20_000.0,
        LoadProfile::Steps(vec![
            (SimTime::from_millis(1_000.0), 0.92),
            (SimTime::from_millis(3_000.0), 0.0),
        ]),
    );
    let far_link = Link::new(12.0, 20_000.0, LoadProfile::Constant(0.0));
    let mut network = Network::new();
    network.add_link(ServerId::new("near"), near_link.clone());
    network.add_link(ServerId::new("far"), far_link);
    let network = Arc::new(network);

    let mut nicknames = NicknameCatalog::new();
    nicknames.define("readings", schema);
    nicknames
        .add_source("readings", ServerId::new("near"), "readings")
        .unwrap();
    nicknames
        .add_source("readings", ServerId::new("far"), "readings")
        .unwrap();

    let middleware: Arc<dyn Middleware> = if with_qcc {
        Qcc::new(QccConfig::default()).middleware()
    } else {
        Arc::new(PassthroughMiddleware::default())
    };
    let clock = SimClock::new();
    let mut fed = Federation::new(
        nicknames,
        clock.clone(),
        middleware,
        FederationConfig::default(),
    );
    fed.add_wrapper(Arc::new(RelationalWrapper::new(near, Arc::clone(&network))));
    fed.add_wrapper(Arc::new(RelationalWrapper::new(far, network)));
    (fed, near_link, clock)
}

fn series(with_qcc: bool) -> Vec<(f64, String, f64)> {
    let (fed, _link, clock) = build(with_qcc);
    let mut series = Vec::new();
    for _ in 0..40 {
        let t = clock.now().as_millis();
        let out = fed.submit(SQL).expect("healthy servers");
        let server = out
            .servers
            .iter()
            .next()
            .map(ServerId::to_string)
            .unwrap_or_default();
        series.push((t, server, out.response_ms));
        clock.advance(SimDuration::from_millis(100.0));
    }
    series
}

/// Print the congestion-step series and its window averages.
pub fn run() {
    let baseline = series(false);
    let qcc = series(true);

    let header = vec![
        "t (ms)".to_string(),
        "phase".to_string(),
        "baseline server".to_string(),
        "baseline ms".to_string(),
        "qcc server".to_string(),
        "qcc ms".to_string(),
    ];
    let rows: Vec<Vec<String>> = baseline
        .iter()
        .zip(&qcc)
        .map(|((t, bs, bms), (_, qs, qms))| {
            let phase = if *t < 1_000.0 {
                "calm"
            } else if *t < 3_000.0 {
                "CONGESTED"
            } else {
                "calm again"
            };
            vec![
                format!("{t:.0}"),
                phase.to_string(),
                bs.clone(),
                format!("{bms:.1}"),
                qs.clone(),
                format!("{qms:.1}"),
            ]
        })
        .collect();
    print_table(
        "Supplementary — congestion step on the near link (baseline vs QCC routing)",
        &header,
        &rows,
    );

    let avg = |series: &[(f64, String, f64)], from: f64, to: f64| {
        let xs: Vec<f64> = series
            .iter()
            .filter(|(t, _, _)| *t >= from && *t < to)
            .map(|(_, _, ms)| *ms)
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    print_table(
        "Congested-window averages",
        &["routing".into(), "calm ms".into(), "congested ms".into()],
        &[
            vec![
                "baseline".into(),
                format!("{:.1}", avg(&baseline, 0.0, 1_000.0)),
                format!("{:.1}", avg(&baseline, 1_200.0, 3_000.0)),
            ],
            vec![
                "qcc".into(),
                format!("{:.1}", avg(&qcc, 0.0, 1_000.0)),
                format!("{:.1}", avg(&qcc, 1_200.0, 3_000.0)),
            ],
        ],
    );
}
