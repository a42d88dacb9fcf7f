//! Randomized test: on randomly generated tables and randomly composed
//! queries from the supported subset, the optimized engine and the naive
//! reference evaluator must agree exactly.
//!
//! Driven by the workspace's deterministic `Pcg32` so the suite runs
//! offline and failures reproduce from the fixed seeds.

#[path = "support/naive.rs"]
mod naive;

use load_aware_federation::common::{Column, ColumnBatch, DataType, Pcg32, Row, Schema, Value};
use load_aware_federation::engine::{execute_batches, rowexec, Engine};
use load_aware_federation::storage::{Catalog, ColumnSpec, Table, TableSpec};
use qcc_sql::parse_select;

/// Random small tables `ta(a, b, s)` and `tb(a, c)`.
fn random_catalog(rng: &mut Pcg32) -> Catalog {
    let mut ta = Table::new(
        "ta",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
            Column::new("s", DataType::Str),
        ]),
    );
    let n_a = rng.range_u64(0, 40);
    for _ in 0..n_a {
        ta.insert(Row::new(vec![
            Value::Int(rng.range_i64(0, 20)),
            Value::Int(rng.range_i64(-5, 5)),
            Value::Str((*rng.choose(b"abc") as char).to_string()),
        ]))
        .unwrap();
    }
    let mut tb = Table::new(
        "tb",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("c", DataType::Int),
        ]),
    );
    let n_b = rng.range_u64(0, 40);
    for _ in 0..n_b {
        tb.insert(Row::new(vec![
            Value::Int(rng.range_i64(0, 20)),
            Value::Int(rng.range_i64(-5, 5)),
        ]))
        .unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.register(ta);
    catalog.register(tb);
    catalog.create_index("ta", "a").unwrap();
    catalog
}

fn random_predicate(rng: &mut Pcg32) -> String {
    match rng.range_u64(0, 7) {
        0 => format!("ta.a > {}", rng.range_i64(0, 20)),
        1 => format!("ta.a = {}", rng.range_i64(0, 20)),
        2 => format!("ta.b <= {}", rng.range_i64(-5, 5)),
        3 => format!(
            "ta.a BETWEEN {} AND {}",
            rng.range_i64(0, 10),
            rng.range_i64(5, 20)
        ),
        4 => "ta.s IN ('a', 'b')".to_string(),
        5 => "ta.s LIKE 'a%'".to_string(),
        _ => format!(
            "ta.a < {} OR ta.b = {}",
            rng.range_i64(0, 20),
            rng.range_i64(-5, 5)
        ),
    }
}

/// Random queries over the two tables, spanning scans, joins, predicates,
/// grouping, ordering and limits.
fn random_query(rng: &mut Pcg32) -> String {
    let p = random_predicate(rng);
    match rng.range_u64(0, 6) {
        0 => {
            let mut q = format!("SELECT ta.a, ta.b FROM ta WHERE {p} ORDER BY ta.a, ta.b, ta.s");
            if rng.next_f64() < 0.5 {
                q.push_str(&format!(" LIMIT {}", rng.range_u64(0, 10)));
            }
            q
        }
        1 => format!(
            "SELECT ta.a, tb.c FROM ta JOIN tb ON ta.a = tb.a WHERE {p} \
             ORDER BY ta.a, tb.c, ta.b"
        ),
        2 => format!(
            "SELECT ta.s, COUNT(*) AS n, SUM(ta.b) AS t, MIN(ta.a) AS lo \
             FROM ta WHERE {p} GROUP BY ta.s ORDER BY ta.s"
        ),
        3 => format!(
            "SELECT ta.s, COUNT(*) AS n, AVG(tb.c) AS m FROM ta JOIN tb ON ta.a = tb.a \
             WHERE {p} GROUP BY ta.s HAVING COUNT(*) > 1 ORDER BY ta.s"
        ),
        4 => "SELECT DISTINCT ta.s FROM ta ORDER BY ta.s".to_string(),
        _ => "SELECT COUNT(*), SUM(ta.b), MAX(ta.a), COUNT(DISTINCT ta.s) FROM ta".to_string(),
    }
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|x, y| x.values().cmp(y.values()));
    rows
}

#[test]
fn engine_agrees_with_naive() {
    let mut rng = Pcg32::seed_from(301);
    for case in 0..128 {
        let catalog = random_catalog(&mut rng);
        let sql = random_query(&mut rng);
        let engine = Engine::new(catalog);
        let stmt = parse_select(&sql).expect("generated SQL parses");
        let expected = naive::evaluate(&stmt, engine.catalog())
            .unwrap_or_else(|e| panic!("case {case}: naive failed on {sql}: {e}"));
        let (actual, _) = engine
            .execute_sql(&sql)
            .unwrap_or_else(|e| panic!("case {case}: engine failed on {sql}: {e}"));
        // Queries whose output order is fully determined by ORDER BY could
        // compare directly, but LIMIT under ties admits any valid subset;
        // compare per-query accordingly.
        if sql.contains("LIMIT") {
            assert_eq!(
                actual.len(),
                expected.len(),
                "case {case}: row count for {sql}"
            );
        } else {
            assert_eq!(
                sorted(actual),
                sorted(expected),
                "case {case}: rows for {sql}"
            );
        }
    }
}

#[test]
fn every_offered_plan_is_equivalent() {
    let mut rng = Pcg32::seed_from(302);
    let mut multi_plan_cases = 0;
    for case in 0..128 {
        // All alternative plans the engine offers (seq vs index paths)
        // must produce identical results.
        let catalog = random_catalog(&mut rng);
        let sql = random_query(&mut rng);
        let engine = Engine::new(catalog);
        let plans = engine.explain(&sql).expect("plans");
        if plans.len() <= 1 {
            continue;
        }
        multi_plan_cases += 1;
        let reference: Vec<Row> = {
            let (rows, _) = engine.execute_plan(&plans[0].plan).expect("plan 0 runs");
            sorted(rows)
        };
        for p in &plans[1..] {
            let (rows, _) = engine.execute_plan(&p.plan).expect("alt plan runs");
            if sql.contains("LIMIT") {
                assert_eq!(rows.len(), reference.len(), "case {case}");
            } else {
                assert_eq!(
                    sorted(rows),
                    reference.clone(),
                    "case {case}: plan divergence for {sql}"
                );
            }
        }
    }
    assert!(
        multi_plan_cases > 10,
        "expected the generator to hit multi-plan queries, got {multi_plan_cases}"
    );
}

fn batch_rows(batches: &[ColumnBatch]) -> Vec<Row> {
    batches.iter().flat_map(ColumnBatch::to_rows).collect()
}

/// The columnar executor must be observationally identical to the
/// row-at-a-time reference: same rows IN THE SAME ORDER (both executors
/// preserve scan/probe/first-seen order) and the exact same virtual-time
/// `Work` (bit-identical f64 accounting — zone-map pruning and batching
/// may change wall-clock time but never virtual time).
#[test]
fn columnar_engine_matches_row_engine() {
    let mut rng = Pcg32::seed_from(303);
    let mut plans_checked = 0usize;
    for case in 0..128 {
        let catalog = random_catalog(&mut rng);
        let sql = random_query(&mut rng);
        let engine = Engine::new(catalog);
        let plans = engine.explain(&sql).expect("plans");
        for (pi, p) in plans.iter().enumerate() {
            let (rrows, rwork) =
                rowexec::execute_rows(&p.plan, engine.catalog(), engine.cost_model())
                    .unwrap_or_else(|e| {
                        panic!("case {case} plan {pi}: row engine failed on {sql}: {e}")
                    });
            let (batches, bwork) = execute_batches(&p.plan, engine.catalog(), engine.cost_model())
                .unwrap_or_else(|e| {
                    panic!("case {case} plan {pi}: batch engine failed on {sql}: {e}")
                });
            assert_eq!(
                batch_rows(&batches),
                rrows,
                "case {case} plan {pi}: row divergence for {sql}"
            );
            assert_eq!(
                bwork, rwork,
                "case {case} plan {pi}: virtual-time Work divergence for {sql}"
            );
            plans_checked += 1;
        }
    }
    assert!(
        plans_checked > 128,
        "too few plans exercised: {plans_checked}"
    );
}

/// Scenario-shaped tables (the §5 schema at reduced scale) through the four
/// paper query templates: both executors agree exactly, plan by plan.
#[test]
fn columnar_engine_matches_row_engine_on_scenario_templates() {
    const LARGE: u64 = 400;
    const SMALL: u64 = 20;
    let specs = vec![
        TableSpec::new(
            "big_a",
            LARGE,
            vec![
                ColumnSpec::Serial { name: "id".into() },
                ColumnSpec::IntUniform {
                    name: "grp".into(),
                    lo: 0,
                    hi: SMALL as i64,
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
            LARGE,
            vec![
                ColumnSpec::Serial { name: "id".into() },
                ColumnSpec::IntUniform {
                    name: "grp".into(),
                    lo: 0,
                    hi: SMALL as i64,
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
            LARGE,
            vec![
                ColumnSpec::Serial { name: "id".into() },
                ColumnSpec::IntUniform {
                    name: "a_id".into(),
                    lo: 0,
                    hi: LARGE as i64,
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
            LARGE,
            vec![
                ColumnSpec::Serial { name: "id".into() },
                ColumnSpec::IntUniform {
                    name: "b_id".into(),
                    lo: 0,
                    hi: LARGE as i64,
                },
                ColumnSpec::IntUniform {
                    name: "flag".into(),
                    lo: 0,
                    hi: 200,
                },
            ],
        ),
        TableSpec::new(
            "small_s",
            SMALL,
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
    ];
    let mut catalog = Catalog::new();
    for (i, spec) in specs.iter().enumerate() {
        catalog.register(spec.generate(0xC01A + i as u64));
    }
    catalog.create_index("big_a", "sel").unwrap();
    catalog.create_index("big_a", "id").unwrap();
    catalog.create_index("big_d", "sel").unwrap();
    catalog.create_index("big_c", "flag").unwrap();
    let engine = Engine::new(catalog);

    for qt in qcc_workload::ALL_QUERY_TYPES {
        for instance in 0..4u32 {
            let sql = qt.sql(instance);
            let plans = engine.explain(&sql).expect("plans");
            assert!(!plans.is_empty(), "{qt} instance {instance}: no plans");
            for (pi, p) in plans.iter().enumerate() {
                let (rrows, rwork) =
                    rowexec::execute_rows(&p.plan, engine.catalog(), engine.cost_model())
                        .unwrap_or_else(|e| panic!("{qt}#{instance} plan {pi}: row engine: {e}"));
                let (batches, bwork) =
                    execute_batches(&p.plan, engine.catalog(), engine.cost_model())
                        .unwrap_or_else(|e| panic!("{qt}#{instance} plan {pi}: batch engine: {e}"));
                assert_eq!(
                    batch_rows(&batches),
                    rrows,
                    "{qt}#{instance} plan {pi}: rows"
                );
                assert_eq!(bwork, rwork, "{qt}#{instance} plan {pi}: Work");
            }
        }
    }
}

/// The oracle itself against answers worked out by hand (it has no unit
/// tests of its own: it is linked only into the suites that use it), and
/// the engine against the same answers.
#[test]
fn oracle_and_engine_match_hand_computed_answers() {
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]),
    );
    for i in 0..20i64 {
        t.insert(Row::new(vec![Value::Int(i), Value::Int(i % 4)]))
            .unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.register(t);
    let engine = Engine::new(catalog);
    let int_rows = |rows: &[&[i64]]| -> Vec<Row> {
        rows.iter()
            .map(|r| Row::new(r.iter().map(|&v| Value::Int(v)).collect()))
            .collect()
    };
    let cases = [
        (
            "SELECT a FROM t WHERE a < 3 ORDER BY a",
            int_rows(&[&[0], &[1], &[2]]),
        ),
        (
            "SELECT b, COUNT(*) FROM t GROUP BY b HAVING COUNT(*) > 0 ORDER BY b",
            int_rows(&[&[0, 5], &[1, 5], &[2, 5], &[3, 5]]),
        ),
        (
            "SELECT x.a, y.a FROM t x, t y WHERE x.a = y.a AND x.a < 2 ORDER BY x.a",
            int_rows(&[&[0, 0], &[1, 1]]),
        ),
        ("SELECT SUM(a) + COUNT(*) FROM t", int_rows(&[&[190 + 20]])),
    ];
    for (sql, expected) in cases {
        let stmt = parse_select(sql).expect("parses");
        let oracle = naive::evaluate(&stmt, engine.catalog()).expect("oracle runs");
        assert_eq!(oracle, expected, "oracle: {sql}");
        let (actual, _) = engine.execute_sql(sql).expect("engine runs");
        assert_eq!(actual, expected, "engine: {sql}");
    }
}

/// Integer overflow reachable from SQL text widens to `Float` — the rule
/// `+`, `-`, `*` and `SUM` already follow — instead of panicking
/// (`i64::MIN / -1` in any build, `-i64::MIN` in debug) or wrapping to a
/// negative `Int` (`-i64::MIN` in release). Checked through the batch
/// engine, the row reference and the oracle; run it with `--release` too.
#[test]
fn integer_overflow_widens_to_float_through_every_executor() {
    let mut t = Table::new("t", Schema::new(vec![Column::new("a", DataType::Int)]));
    t.insert(Row::new(vec![Value::Int(1)])).unwrap();
    let mut catalog = Catalog::new();
    catalog.register(t);
    let engine = Engine::new(catalog);
    let widened = vec![Row::new(vec![Value::Float(9.223372036854775808e18)])];
    let cases = [
        (
            "SELECT (0 - 9223372036854775807 - 1) / (0 - 1) FROM t",
            &widened,
        ),
        ("SELECT -(0 - 9223372036854775807 - 1) FROM t", &widened),
        // Division by zero stays NULL, also for the overflowing dividend.
        (
            "SELECT (0 - 9223372036854775807 - 1) / 0 FROM t",
            &vec![Row::new(vec![Value::Null])],
        ),
    ];
    // `Value` equality is numeric across Int and Float, so compare the
    // `Debug` form: the result must *be* a Float, not merely equal one.
    for (sql, expected) in cases {
        let expected = format!("{expected:?}");
        let (batch, _) = engine.execute_sql(sql).expect("batch engine runs");
        assert_eq!(format!("{batch:?}"), expected, "batch engine: {sql}");
        for p in engine.explain(sql).expect("plans") {
            let (rows, _) = rowexec::execute_rows(&p.plan, engine.catalog(), engine.cost_model())
                .expect("row reference runs");
            assert_eq!(format!("{rows:?}"), expected, "row reference: {sql}");
        }
        let stmt = parse_select(sql).expect("parses");
        let oracle = naive::evaluate(&stmt, engine.catalog()).expect("oracle runs");
        assert_eq!(format!("{oracle:?}"), expected, "oracle: {sql}");
    }
}
