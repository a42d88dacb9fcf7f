//! Output checks. Any mismatch is an `Err`, which exits non-zero before a
//! result line is printed.

use crate::run::{Measured, ROWS_KEPT_EVERY};
use crate::stats::Counters;
use crate::worlds::{Inputs, Workload, World};
use crate::Options;
use qcc_common::{FieldValue, Row, SimTime, Value};
use qcc_core::QccConfig;
use qcc_engine::Engine;
use qcc_workload::scenario::scale_server_specs;
use qcc_workload::{QueryType, Scenario, ScenarioConfig};

/// Row-set equality up to order, with floats compared to a relative 1e-9:
/// an integrator-side merge may add a float column in another order than
/// the single engine does.
fn same_rows(mut got: Vec<Row>, mut want: Vec<Row>) -> bool {
    let by_values = |a: &Row, b: &Row| a.values().cmp(b.values());
    got.sort_by(by_values);
    want.sort_by(by_values);
    got.len() == want.len()
        && got.iter().zip(&want).all(|(g, w)| {
            g.len() == w.len()
                && g.values()
                    .iter()
                    .zip(w.values())
                    .all(|(a, b)| match (a, b) {
                        (Value::Float(x), Value::Float(y)) => {
                            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
                        }
                        _ => a == b,
                    })
        })
}

/// The federation's rows for `sql` must equal what one local engine
/// holding the same tables returns (as `tests/end_to_end_correctness.rs`).
fn check_against(reference: &Engine, sql: &str, got: Vec<Row>) -> Result<(), String> {
    let (want, _) = reference
        .execute_sql(sql)
        .map_err(|e| format!("reference engine rejected {sql}: {e}"))?;
    if same_rows(got, want) {
        Ok(())
    } else {
        Err(format!("rows differ from the reference engine for: {sql}"))
    }
}

/// Every server holds every table, so any one server's engine is the
/// single-engine reference.
fn reference(world: &World) -> &Engine {
    world.scenario.servers[0].engine()
}

/// Before timing: the first submit of every warm-up statement.
pub fn check_warm_outputs(world: &World) -> Result<(), String> {
    world
        .warm_rows
        .iter()
        .try_for_each(|(sql, rows)| check_against(reference(world), sql, rows.clone()))
}

/// After the clock stops: accounting, and the outputs of a cold workload
/// (whose first submit of each statement *is* the measured one).
pub fn check_measured(
    workload: Workload,
    world: &World,
    inputs: &Inputs,
    m: &Measured,
) -> Result<(), String> {
    let answered = m.virt_ms.len() as u64;
    if answered + m.shed + m.failed != m.attempted || m.attempted != inputs.len() as u64 {
        return Err(format!(
            "accounting: {answered} answered + {} shed + {} failed != {} attempted",
            m.shed, m.failed, m.attempted
        ));
    }
    if m.failed > 0 {
        return Err(format!("{} operations failed", m.failed));
    }
    match inputs {
        Inputs::Closed(stmts) => {
            for (i, (stmt, &count)) in stmts.iter().zip(&m.row_counts).enumerate() {
                let (want, _) = reference(world)
                    .execute_sql(&stmt.sql)
                    .map_err(|e| format!("reference engine rejected {}: {e}", stmt.sql))?;
                let same = match i % ROWS_KEPT_EVERY {
                    0 => same_rows(m.rows[i / ROWS_KEPT_EVERY].clone(), want),
                    _ => count == want.len(),
                };
                if !same {
                    return Err(format!(
                        "rows differ from the reference engine for: {}",
                        stmt.sql
                    ));
                }
            }
        }
        Inputs::Open(_) => {
            // The recovery path must really have run.
            let recoveries =
                m.counters.get("retries_total") + m.counters.get("fragment_reroutes_total");
            if recoveries == 0 {
                return Err("no outage window cut a stream: retries + reroutes == 0".into());
            }
        }
    }
    if workload.cold_compile() {
        let misses = m.counters.get("plan_cache_misses_total");
        if misses < m.attempted {
            return Err(format!(
                "{} statements but only {misses} plan-cache misses: not every compile was cold",
                m.attempted
            ));
        }
    }
    Ok(())
}

/// A rescued query returns the fault-free rows. One wide scan (a
/// multi-chunk stream, so a crash leaves a prefix worth resuming) and one
/// paper statement each run on a fresh fleet whose busiest source crashes
/// mid-stream; the answer must equal the reference engine's and a
/// recovery mechanism must have fired. The crash instant sweeps the
/// fragment's service interval until it costs delivered work, as the
/// `midquery_reroute` bench does.
pub fn check_rescue() -> Result<(), String> {
    let fleet = || {
        Scenario::build_with_qcc(
            QccConfig::default(),
            ScenarioConfig {
                large_rows: 3_000,
                small_rows: 60,
                threads: 1,
                server_specs: scale_server_specs(12, 77),
                replication_factor: 3,
                stall_factor: 3.0,
                ..ScenarioConfig::default()
            },
        )
    };
    let f64_field = |e: &qcc_common::Event, name: &str| match e.field(name) {
        Some(FieldValue::F64(v)) => *v,
        _ => 0.0,
    };
    for sql in [
        "SELECT a.id, a.grp FROM big_a a WHERE a.sel > 2000".to_string(),
        QueryType::QT1.sql(0),
    ] {
        let clean = fleet();
        clean
            .federation
            .submit(&sql)
            .map_err(|e| format!("fault-free probe failed: {e}"))?;
        let fragments = clean.obs.events_of("fragment");
        let victim = fragments
            .iter()
            .max_by(|a, b| f64_field(a, "ms").total_cmp(&f64_field(b, "ms")))
            .ok_or("fault-free probe journalled no fragment")?;
        let server = victim
            .str_field("server")
            .ok_or("fragment without server")?;
        let (start, ms) = (victim.at.as_millis(), f64_field(victim, "ms"));

        let mut rescued = false;
        for frac in [0.55, 0.65, 0.75, 0.85, 0.45, 0.35, 0.25] {
            let s = fleet();
            s.server(server).availability().add_outage(
                SimTime::from_millis(start + frac * ms),
                SimTime::from_millis(1e12),
            );
            let out = s
                .federation
                .submit(&sql)
                .map_err(|e| format!("crash at {frac} of the stream was not survived: {e}"))?;
            check_against(s.servers[0].engine(), &sql, out.rows)?;
            let c = Counters::parse(&s.obs.metrics_snapshot());
            if c.get("retries_total") + c.get("fragment_reroutes_total") > 0 {
                rescued = true;
                break;
            }
        }
        if !rescued {
            return Err(format!("no crash placement exercised recovery for: {sql}"));
        }
    }
    Ok(())
}

/// `--check-repeat`: run the workload twice in this process and require
/// every exact metric — virtual times, shares, every counter-derived
/// per-layer metric — to be bit-identical.
pub fn check_repeat(workload: Workload, opts: Options) -> Result<String, String> {
    let exact = || -> Result<Vec<(String, u64)>, String> {
        let (world, inputs, _) = crate::prepare(workload, opts, false)?;
        let m = crate::run::run_measured(workload, &world, &inputs, Default::default());
        check_measured(workload, &world, &inputs, &m)?;
        let mut all = crate::end_to_end_metrics(workload, &m);
        all.extend(crate::trace::counter_metrics(&world, &m));
        Ok(all
            .into_iter()
            .filter(|metric| !matches!(metric.name, "qps" | "cpu_us_per_query"))
            .map(|metric| (metric.name.to_string(), metric.value.to_bits()))
            .collect())
    };
    let (first, second) = (exact()?, exact()?);
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        if a != b {
            return Err(format!(
                "{name} did not repeat: {} then {}",
                f64::from_bits(*a),
                f64::from_bits(*b)
            ));
        }
    }
    Ok(format!(
        "check-repeat {}: {} exact metrics identical across two runs",
        workload.name(),
        first.len()
    ))
}
