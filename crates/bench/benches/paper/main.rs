//! The paper's §5 evaluation, then the ablations and the network-awareness
//! series: everything EXPERIMENTS.md quotes, in its order. One QCC-routed
//! 8-phase run feeds Table 2 and both gain figures.
//!
//! * Table 1 — the eight combinations of server load conditions.
//! * Figure 9 (a–d) — each query type's response time per server, base
//!   and loaded. Shapes: S3 is best overall; for QT2, S3 is much more
//!   load-sensitive than the others; for QT3 a loaded S3 loses to the
//!   unloaded S1/S2 yet stays competitive when all are loaded; for QT1
//!   and QT4, S3 stays best even under load.
//! * Table 2 — the registration-time assignment against the server QCC
//!   picks per phase. Shapes: QT1 and QT4 stay on S3; QT2 and QT3 follow
//!   S3 except when S3 is loaded, detouring to the least-loaded
//!   alternative (S2 before S1), and return to S3 when all are loaded.
//! * Figure 10 — QCC's gain over Fixed Assignment 1 (QT1, QT3 → S1,
//!   QT2 → S2, QT4 → S3). Shapes: QCC wins every phase; the mean gain is
//!   large (paper ≈ 50 %) and stays high with all three loaded (≈ 60 %).
//! * Figure 11 — QCC's gain over Fixed Assignment 2 (all → S3). Shapes:
//!   ≈ 0 where S3 is unloaded, a real gain where S3 carries the update
//!   load and an alternative is free (phases 2, 4 and 6).
//! * [`ablation`] and [`network_shift`] — design choices the paper does
//!   not measure, and the "network aware" half of its title.

mod ablation;
mod network_shift;

use qcc_bench::{print_gains, print_table, BenchScale, WARMUP};
use qcc_common::ServerId;
use qcc_workload::{
    run_phases, sensitivity_sweep, PhaseSchedule, QueryType, Routing, ALL_QUERY_TYPES,
    FIXED_ASSIGNMENT_1,
};

const SERVERS: [&str; 3] = ["S1", "S2", "S3"];

fn main() {
    let scale = BenchScale::from_env();
    let schedule = PhaseSchedule::paper_table1();
    let run = |routing| run_phases(routing, &scale.config, &schedule, scale.instances, WARMUP);
    let phase_header = |first: &[&str]| -> Vec<String> {
        first
            .iter()
            .map(|s| s.to_string())
            .chain(schedule.phases.iter().map(|p| format!("Phase{}", p.number)))
            .collect()
    };

    let rows: Vec<Vec<String>> = SERVERS
        .iter()
        .map(|s| {
            let id = ServerId::new(s);
            std::iter::once(s.to_string())
                .chain(
                    schedule
                        .phases
                        .iter()
                        .map(|p| if p.is_loaded(&id) { "Load" } else { "Base" }.to_string()),
                )
                .collect()
        })
        .collect();
    print_table(
        "Table 1 — Combinations of Server Load Conditions",
        &phase_header(&["Server"]),
        &rows,
    );

    figure9(&scale);

    let qcc = run(Routing::Qcc);
    let fixed = FIXED_ASSIGNMENT_1();
    let rows: Vec<Vec<String>> = ALL_QUERY_TYPES
        .iter()
        .map(|qt| {
            let mut row = vec![qt.to_string(), fixed[qt].to_string()];
            for phase in &qcc.phases {
                row.push(phase.per_type_server[qt.index()].clone());
            }
            row
        })
        .collect();
    print_table(
        "Table 2 — Fixed Server Assignment vs Dynamic Assignment (per phase)",
        &phase_header(&["Query Type", "Fixed"]),
        &rows,
    );
    // Companion: the measured per-type response times behind the choices.
    let rows: Vec<Vec<String>> = ALL_QUERY_TYPES
        .iter()
        .map(|qt| {
            std::iter::once(qt.to_string())
                .chain(
                    qcc.phases
                        .iter()
                        .map(|p| format!("{:.1}", p.per_type_ms[qt.index()])),
                )
                .collect()
        })
        .collect();
    print_table(
        "QCC per-type mean response time (ms)",
        &phase_header(&["Query Type"]),
        &rows,
    );

    print_gains(
        "Figure 10 — QCC performance gain over Fixed Assignment 1",
        &qcc,
        &run(Routing::Fixed1),
    );
    print_gains(
        "Figure 11 — QCC performance gain over Fixed Assignment 2 (all → S3)",
        &qcc,
        &run(Routing::Fixed2),
    );

    ablation::run(&scale);
    network_shift::run();
}

/// Figure 9's four panels, one table each, then the load-slowdown ratios
/// the paper's prose discusses.
fn figure9(scale: &BenchScale) {
    let points = sensitivity_sweep(&scale.config, scale.instances);
    let mean = |qt: QueryType, server: &str, loaded: bool| {
        let xs: Vec<f64> = points
            .iter()
            .filter(|p| p.qt == qt && p.server == server && p.loaded == loaded)
            .map(|p| p.response_ms)
            .collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    let header: Vec<String> = std::iter::once("instance".to_string())
        .chain(
            SERVERS
                .iter()
                .flat_map(|s| [format!("{s} base"), format!("{s} load")]),
        )
        .collect();
    for qt in ALL_QUERY_TYPES {
        let mut rows = Vec::new();
        for i in 0..scale.instances {
            let mut row = vec![format!("{i}")];
            for server in SERVERS {
                for loaded in [false, true] {
                    let v = points
                        .iter()
                        .find(|p| {
                            p.qt == qt
                                && p.server == server
                                && p.loaded == loaded
                                && p.instance == i
                        })
                        .map(|p| p.response_ms)
                        .unwrap_or(f64::NAN);
                    row.push(format!("{v:.2}"));
                }
            }
            rows.push(row);
        }
        let mut avg_row = vec!["avg".to_string()];
        for server in SERVERS {
            for loaded in [false, true] {
                avg_row.push(format!("{:.2}", mean(qt, server, loaded)));
            }
        }
        rows.push(avg_row);
        let panel = match qt {
            QueryType::QT1 => "(a) QT1: large ⋈ large, mild selection, aggregation",
            QueryType::QT2 => "(b) QT2: large ⋈ small selection table",
            QueryType::QT3 => "(c) QT3: large ⋈ large, highly selective",
            QueryType::QT4 => "(d) QT4: three-way join, highly selective",
        };
        print_table(
            &format!("Figure 9 {panel} — response time (ms)"),
            &header,
            &rows,
        );
    }

    let rows: Vec<Vec<String>> = ALL_QUERY_TYPES
        .iter()
        .map(|&qt| {
            std::iter::once(qt.to_string())
                .chain(
                    SERVERS
                        .iter()
                        .map(|s| format!("{:.2}x", mean(qt, s, true) / mean(qt, s, false))),
                )
                .collect()
        })
        .collect();
    print_table(
        "Figure 9 summary — load slowdown ratio (loaded / base)",
        &["type".into(), "S1".into(), "S2".into(), "S3".into()],
        &rows,
    );
}
