//! Randomized test: on randomly generated tables and randomly composed
//! queries from the supported subset, the optimized engine and the naive
//! reference evaluator must agree exactly.
//!
//! Driven by the workspace's deterministic `Pcg32` so the suite runs
//! offline and failures reproduce from the fixed seeds.

#[path = "support/corpus.rs"]
mod corpus;
#[path = "support/digest.rs"]
mod digest;
#[path = "support/naive.rs"]
mod naive;

use load_aware_federation::common::{
    Column, ColumnBatch, DataType, Pcg32, QccError, Row, Schema, Value,
};
use load_aware_federation::engine::{execute_batches, execute_over, Engine, PlanNode};
use load_aware_federation::storage::{Catalog, ColumnSpec, Table, TableChunk, TableSpec};
use qcc_sql::parse_select;
use std::sync::Arc;

/// The corpus: the 128 cases each suite always drew, then — from the same
/// stream, so those keep their draws — 96 cases over NULL-bearing tables
/// with FLOAT, string and two-column keys, and 24 statements over one
/// catalog of several chunks per table; then 64 cases and 16 statements
/// over one multi-chunk catalog whose `Int` join and group keys are spread
/// past the row-id table's dense range; then 48 cases and 16 statements
/// over one multi-chunk catalog of string join, group, `DISTINCT` and
/// `ORDER BY` keys; then 64 cases and 16 statements over one multi-chunk
/// catalog of aggregates straight over hash joins. The oracle cross-joins,
/// so its multi-chunk catalogs keep `tb` small.
fn cases(seed: u64, big_b: bool) -> Vec<(Catalog, String)> {
    let mut rng = Pcg32::seed_from(seed);
    let mut out = Vec::new();
    for _ in 0..128 {
        let catalog = corpus::random_catalog(&mut rng);
        out.push((catalog, corpus::random_query(&mut rng)));
    }
    for _ in 0..96 {
        let (rows_a, rows_b) = (rng.range_u64(0, 60), rng.range_u64(0, 60));
        let catalog = corpus::nullable_catalog(&mut rng, rows_a, rows_b);
        out.push((catalog, corpus::nullable_query(&mut rng)));
    }
    let rows_a = corpus::multi_chunk_rows(&mut rng);
    let rows_b = if big_b {
        corpus::multi_chunk_rows(&mut rng)
    } else {
        rng.range_u64(30, 60)
    };
    let big = corpus::nullable_catalog(&mut rng, rows_a, rows_b);
    for _ in 0..24 {
        out.push((big.clone(), corpus::nullable_query(&mut rng)));
    }
    for _ in 0..64 {
        let (rows_a, rows_b) = (rng.range_u64(0, 60), rng.range_u64(0, 60));
        let catalog = corpus::sparse_catalog(&mut rng, rows_a, rows_b);
        out.push((catalog, corpus::sparse_query(&mut rng)));
    }
    let (rows_a, rows_b) = (corpus::multi_chunk_rows(&mut rng), rng.range_u64(30, 60));
    let big = corpus::sparse_catalog(&mut rng, rows_a, rows_b);
    for _ in 0..16 {
        out.push((big.clone(), corpus::sparse_query(&mut rng)));
    }
    for _ in 0..48 {
        let (rows_a, rows_b) = (rng.range_u64(0, 60), rng.range_u64(0, 60));
        let catalog = corpus::string_catalog(&mut rng, rows_a, rows_b);
        out.push((catalog, corpus::string_query(&mut rng)));
    }
    let rows_a = corpus::multi_chunk_rows(&mut rng);
    let rows_b = if big_b {
        corpus::multi_chunk_rows(&mut rng)
    } else {
        rng.range_u64(30, 60)
    };
    let big = corpus::string_catalog(&mut rng, rows_a, rows_b);
    for _ in 0..16 {
        out.push((big.clone(), corpus::string_query(&mut rng)));
    }
    for _ in 0..64 {
        let (rows_a, rows_b) = (rng.range_u64(0, 60), rng.range_u64(0, 60));
        let rows_c = rng.range_u64(0, 8);
        let catalog = corpus::groupjoin_catalog(&mut rng, rows_a, rows_b, rows_c);
        out.push((catalog, corpus::groupjoin_query(&mut rng)));
    }
    let rows_a = corpus::multi_chunk_rows(&mut rng);
    let rows_b = if big_b {
        corpus::multi_chunk_rows(&mut rng)
    } else {
        rng.range_u64(30, 60)
    };
    let rows_c = rng.range_u64(0, 8);
    let big = corpus::groupjoin_catalog(&mut rng, rows_a, rows_b, rows_c);
    for _ in 0..16 {
        out.push((big.clone(), corpus::groupjoin_query(&mut rng)));
    }
    out
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|x, y| x.values().cmp(y.values()));
    rows
}

#[test]
fn engine_agrees_with_naive() {
    for (case, (catalog, sql)) in cases(301, false).into_iter().enumerate() {
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
    let mut multi_plan_cases = 0;
    for (case, (catalog, sql)) in cases(302, true).into_iter().enumerate() {
        // All alternative plans the engine offers (seq vs index paths)
        // must produce identical results.
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

/// `h` continued over the batch execution of `plan` (see
/// [`digest::run_digest`]).
fn execution_digest(h: u64, engine: &Engine, plan: &PlanNode) -> u64 {
    let (batches, w) = execute_batches(plan, engine.catalog(), engine.cost_model())
        .unwrap_or_else(|e| panic!("{}: {e}", plan.signature()));
    let work = [
        w.cpu_units.to_bits(),
        w.rows_scanned,
        w.rows_output,
        w.result_bytes,
    ];
    digest::run_digest(h, &plan.signature(), work, &batch_rows(&batches))
}

/// Every plan offered for the corpus returns the rows IN THE SAME ORDER
/// and the `Work` to the bit that both the columnar executor and the
/// row-at-a-time reference returned when the reference was deleted. They
/// agreed on every plan: both preserve scan / probe / first-seen order
/// (most of the newer statements have no `ORDER BY` to hide behind), and
/// zone-map pruning and batching change wall-clock time but never virtual
/// time. One digest per block of [`cases`], so a failure names the block.
#[test]
fn columnar_engine_matches_row_engine() {
    let pinned: [(&str, usize, u64); 9] = [
        ("random", 128, 0x34ad0487a6c63e67),
        ("nullable", 96, 0xdc651c217d6f6233),
        ("nullable, multi-chunk", 24, 0x9fe9516bfe8aebd6),
        ("sparse", 64, 0xf0aaf8d4fa90cd9b),
        ("sparse, multi-chunk", 16, 0xebda2df8f4288083),
        ("string", 48, 0x6794a189ad02292e),
        ("string, multi-chunk", 16, 0x2bad55dcbbebe343),
        ("groupjoin", 64, 0xa253f5d66ceb0581),
        ("groupjoin, multi-chunk", 16, 0xf2d051ab3d65e02d),
    ];
    let mut cases = cases(303, true).into_iter();
    let mut plans_checked = 0usize;
    for (block, n, want) in pinned {
        let mut h = digest::EMPTY;
        for (catalog, sql) in cases.by_ref().take(n) {
            let engine = Engine::new(catalog);
            for p in engine.explain(&sql).expect("plans") {
                h = execution_digest(h, &engine, &p.plan);
                plans_checked += 1;
            }
        }
        assert_eq!(h, want, "{block} block: rows or Work moved");
    }
    assert!(cases.next().is_none(), "a case in no pinned block");
    assert!(
        plans_checked > 128,
        "too few plans exercised: {plans_checked}"
    );
}

/// Runs every plan `engine` offers for `sql` over slots holding each
/// table's chunks as batches (what the integrator's merge does with the
/// gathered fragment results). A `SeqScan`-only plan must return what it
/// returns over the catalog — the same rows in the same order, compared
/// by `Debug` form so `Int(3)` and `Float(3.0)` differ, and the `Work`
/// to the bit — and an index plan must be a typed error. Returns the
/// (`SeqScan`-only, index) plans checked.
fn check_slots_against_catalog(engine: &Engine, sql: &str) -> (usize, usize) {
    let batches = table_batches(engine.catalog());
    let slots: Vec<(&str, &[ColumnBatch])> = batches.iter().map(|(n, b)| (*n, &b[..])).collect();
    let (mut seq, mut index) = (0, 0);
    for p in engine.explain(sql).expect("plans") {
        let sig = p.plan.signature();
        let over = execute_over(&p.plan, &slots, engine.cost_model());
        if sig.contains("idxscan(") {
            let err = over.expect_err("an index scan over slots");
            assert!(matches!(err, QccError::Execution(_)), "{sig}: {err}");
            index += 1;
            continue;
        }
        let (rows, work) = over.unwrap_or_else(|e| panic!("{sig} over slots: {e}: {sql}"));
        let (want_rows, want_work) = engine.execute_plan(&p.plan).expect("runs");
        assert_eq!(
            format!("{rows:?}"),
            format!("{want_rows:?}"),
            "{sig}: rows over slots for {sql}"
        );
        assert_eq!(work, want_work, "{sig}: Work over slots for {sql}");
        assert_eq!(work.cpu_units.to_bits(), want_work.cpu_units.to_bits());
        seq += 1;
    }
    (seq, index)
}

/// Each table of `catalog` by name, its chunks as batches: the slots an
/// integrator's merge would read.
fn table_batches(catalog: &Catalog) -> Vec<(&str, Vec<ColumnBatch>)> {
    catalog
        .table_names()
        .into_iter()
        .map(|name| {
            let chunks = catalog.entry(name).unwrap().table.chunks();
            (name, chunks.iter().map(TableChunk::to_batch).collect())
        })
        .collect()
}

/// `ORDER BY` is stable: rows whose sort keys tie leave in input order,
/// whichever direction, on a second key's ties too and where a `LIMIT`
/// cuts through a tie group. Over a catalog and over slots; the expected
/// rows are worked out by hand.
#[test]
fn order_by_ties_keep_input_order() {
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("j", DataType::Int),
            Column::new("p", DataType::Str),
        ]),
    );
    // Row i: (k[i], j[i], the i-th letter).
    let (k, j) = ([2, 1, 2, 1, 3, 2, 1], [1, 2, 0, 1, 0, 1, 2]);
    for (i, p) in "abcdefg".chars().enumerate() {
        let row = vec![
            Value::Int(k[i]),
            Value::Int(j[i]),
            Value::from(p.to_string()),
        ];
        t.insert(Row::new(row)).unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.register(t);
    let engine = Engine::new(catalog);
    let batches = table_batches(engine.catalog());
    let slots: Vec<(&str, &[ColumnBatch])> = batches.iter().map(|(n, b)| (*n, &b[..])).collect();
    let letters =
        |rows: Vec<Row>| -> String { rows.iter().map(|r| r.get(0).as_str().unwrap()).collect() };
    for (sql, want) in [
        ("SELECT p FROM t ORDER BY k", "bdgacfe"),
        ("SELECT p FROM t ORDER BY k DESC", "eacfbdg"),
        ("SELECT p FROM t ORDER BY k, j DESC", "bgdafce"),
        ("SELECT p FROM t ORDER BY j, k DESC", "ecafdbg"),
        ("SELECT p FROM t ORDER BY k DESC LIMIT 3", "eac"),
        ("SELECT p FROM t ORDER BY k LIMIT 2", "bd"),
    ] {
        for p in engine.explain(sql).expect("plans") {
            let sig = p.plan.signature();
            let (batches, _) = execute_batches(&p.plan, engine.catalog(), engine.cost_model())
                .expect("runs over the catalog");
            assert_eq!(letters(batch_rows(&batches)), want, "{sig}: {sql}");
            let (rows, _) =
                execute_over(&p.plan, &slots, engine.cost_model()).expect("runs over slots");
            assert_eq!(letters(rows), want, "{sig} over slots: {sql}");
        }
    }
}

/// [`check_slots_against_catalog`] for every statement of the corpus, then
/// for pushed-down predicates over a clustered table of five chunks whose
/// zone maps decide chunks in the catalog run: `SkipAll` (`id < 0`, and
/// all but the last chunk of `id > 4950`), `KeepAll` (`id >= 0`) and both
/// through `AND` / `OR`. A slot has no zone maps, so its scan evaluates
/// every row those verdicts skip or keep wholesale.
#[test]
fn slots_equal_the_catalog_to_the_bit() {
    let (mut seq, mut index) = (0, 0);
    for (catalog, sql) in cases(303, true) {
        let (s, i) = check_slots_against_catalog(&Engine::new(catalog), &sql);
        seq += s;
        index += i;
    }
    assert!(
        seq > 350 && index > 50,
        "{seq} seq-scan plans, {index} index plans"
    );

    let mut t = Table::new(
        "seq",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("v", DataType::Int),
        ]),
    );
    for i in 0..5000i64 {
        let v = if i % 11 == 0 {
            Value::Null
        } else {
            Value::Int(i % 7)
        };
        t.insert(Row::new(vec![Value::Int(i), v])).unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.register(t);
    catalog.create_index("seq", "id").unwrap();
    let engine = Engine::new(catalog);
    for sql in [
        "SELECT * FROM seq WHERE id > 4950",
        "SELECT * FROM seq WHERE id >= 0",
        "SELECT * FROM seq WHERE id < 0",
        "SELECT v FROM seq WHERE id < 1024 OR id >= 4096",
        "SELECT COUNT(*) FROM seq WHERE id BETWEEN 1000 AND 1010 AND v = 3",
        "SELECT id FROM seq WHERE v >= 0",
        "SELECT v, COUNT(*) FROM seq WHERE id >= 2048 AND v < 7 GROUP BY v",
    ] {
        let (s, _) = check_slots_against_catalog(&engine, sql);
        assert!(s > 0, "no seq-scan plan for {sql}");
    }
    // `id >= 0` keeps every chunk whole in the catalog run: its root
    // batches are the table's own column vectors, not gathers.
    let keep_all = engine.explain("SELECT * FROM seq WHERE id >= 0").unwrap();
    let seq_plan = keep_all
        .iter()
        .find(|p| p.plan.signature() == "seqscan(seq,pred)");
    let (batches, _) = engine
        .execute_plan_batches(&seq_plan.expect("a seq-scan plan").plan)
        .unwrap();
    let chunks = engine.catalog().entry("seq").unwrap().table.chunks();
    assert_eq!(batches.len(), chunks.len());
    for (b, c) in batches.iter().zip(chunks) {
        assert!(Arc::ptr_eq(&b.columns()[0], &c.columns()[0]));
    }
}

/// Scenario-shaped tables (the §5 schema at reduced scale) through the four
/// paper query templates: every plan's rows and `Work` are those both
/// executors returned when the row reference was deleted (one digest).
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

    let mut h = digest::EMPTY;
    for qt in qcc_workload::ALL_QUERY_TYPES {
        for instance in 0..4u32 {
            let plans = engine.explain(&qt.sql(instance)).expect("plans");
            assert!(!plans.is_empty(), "{qt} instance {instance}: no plans");
            for p in &plans {
                h = execution_digest(h, &engine, &p.plan);
            }
        }
    }
    assert_eq!(h, 0x72162f05bedd3cbf, "QT1–QT4: rows or Work moved");
}

/// The oracle itself against answers worked out by hand (its interpreter
/// has no unit tests of its own: it is linked only into the suites that
/// use it), and the engine against the same answers.
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
/// engine and the oracle; run it with `--release` too.
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
        let stmt = parse_select(sql).expect("parses");
        let oracle = naive::evaluate(&stmt, engine.catalog()).expect("oracle runs");
        assert_eq!(format!("{oracle:?}"), expected, "oracle: {sql}");
    }
}

/// `Int` against `Float` is compared exactly, so equality is what the hash
/// says it is. Above 2^53 the old cast rounded the integer: the hash join
/// (keyed on a hash that told `2^53 + 1` from `2^53.0`) and the
/// nested-loop join (comparing through the cast, which did not) returned
/// different rows for the same condition.
#[test]
fn int_float_equality_is_exact_through_every_join_and_executor() {
    const P53: i64 = 1 << 53;
    let mut a = Table::new("a", Schema::new(vec![Column::new("k", DataType::Int)]));
    a.insert(Row::new(vec![Value::Int(P53 + 1)])).unwrap();
    a.insert(Row::new(vec![Value::Int(P53)])).unwrap();
    let mut b = Table::new("b", Schema::new(vec![Column::new("k", DataType::Float)]));
    b.insert(Row::new(vec![Value::Float(P53 as f64)])).unwrap();
    let mut catalog = Catalog::new();
    catalog.register(a);
    catalog.register(b);
    let engine = Engine::new(catalog);
    // Only 2^53 = 2^53.0; 2^53 + 1 is no float.
    let expected = vec![Row::new(vec![Value::Int(P53), Value::Float(P53 as f64)])];
    for (sql, join) in [
        ("SELECT * FROM a JOIN b ON a.k = b.k", "hj("),
        ("SELECT * FROM a, b WHERE a.k >= b.k AND a.k <= b.k", "nlj("),
    ] {
        let plans = engine.explain(sql).expect("plans");
        assert!(
            plans.iter().any(|p| p.plan.signature().contains(join)),
            "{sql}: no {join} plan offered"
        );
        for p in &plans {
            let sig = p.plan.signature();
            let (rows, _) = engine.execute_plan(&p.plan).expect("batch engine runs");
            assert_eq!(rows, expected, "batch engine, {sig}: {sql}");
        }
        let stmt = parse_select(sql).expect("parses");
        let oracle = naive::evaluate(&stmt, engine.catalog()).expect("oracle runs");
        assert_eq!(oracle, expected, "oracle: {sql}");
    }
}

/// The row count of every root batch, for each plan offered for QT1–QT4
/// and five statements with multi-batch roots, at `Scenario::tiny` scale
/// (2 000 / 100 rows). `RemoteServer::execute_stream` turns this list into
/// cursor offsets, resume points and interrupt cuts, so it is part of the
/// virtual-time contract like `Work` is. Recorded at the commit before the
/// row-id hash table and column pruning went in.
#[test]
fn root_batch_row_counts_are_pinned_at_tiny_scale() {
    let scenario = qcc_workload::Scenario::tiny_for_tests();
    let engine = scenario.server("S1").engine();
    let qt = |i: usize| qcc_workload::ALL_QUERY_TYPES[i].sql(0);
    let pinned: [(String, &[(&str, &[usize])]); 9] = [
        (
            qt(0),
            &[
                (
                    "proj(agg[1](hj(seqscan(big_a,pred),seqscan(big_b))))",
                    &[100],
                ),
                (
                    "proj(agg[1](hj(idxscan(big_a.sel range),seqscan(big_b))))",
                    &[100],
                ),
            ],
        ),
        (
            qt(1),
            &[(
                "proj(agg[1](hj(seqscan(small_s,pred),seqscan(big_a))))",
                &[10],
            )],
        ),
        (
            qt(2),
            &[
                (
                    "proj(agg[1](hj(idxscan(big_d.sel range),seqscan(big_b))))",
                    &[11],
                ),
                (
                    "proj(agg[1](hj(seqscan(big_d,pred),seqscan(big_b))))",
                    &[11],
                ),
            ],
        ),
        (
            qt(3),
            &[
                (
                    "proj(agg[0](hj(hj(idxscan(big_c.flag eq),seqscan(big_b)),seqscan(big_a))))",
                    &[1],
                ),
                (
                    "proj(agg[0](hj(hj(seqscan(big_c,pred),seqscan(big_b)),seqscan(big_a))))",
                    &[1],
                ),
            ],
        ),
        (
            "SELECT * FROM big_a WHERE big_a.sel > 5000".into(),
            &[
                ("seqscan(big_a,pred)", &[494, 494]),
                ("idxscan(big_a.sel range)", &[988]),
            ],
        ),
        (
            "SELECT DISTINCT big_a.grp FROM big_a".into(),
            &[("distinct(proj(seqscan(big_a)))", &[100])],
        ),
        (
            "SELECT big_b.id FROM big_b LIMIT 1500".into(),
            &[("limit[1500](proj(seqscan(big_b)))", &[1024, 476])],
        ),
        (
            "SELECT a.id, b.qty FROM big_a a JOIN big_b b ON b.a_id = a.id WHERE a.sel > 9000"
                .into(),
            &[
                ("proj(hj(idxscan(big_a.sel range),seqscan(big_b)))", &[201]),
                ("proj(hj(seqscan(big_a,pred),seqscan(big_b)))", &[201]),
            ],
        ),
        (
            "SELECT big_a.id * 2 AS x FROM big_a WHERE big_a.val > 50.0".into(),
            &[("proj(seqscan(big_a,pred))", &[501, 475])],
        ),
    ];
    for (sql, plans) in pinned {
        let got: Vec<(String, Vec<usize>)> = engine
            .explain(&sql)
            .expect("plans")
            .iter()
            .map(|p| {
                let (batches, _) = engine.execute_plan_batches(&p.plan).expect("runs");
                (
                    p.plan.signature(),
                    batches.iter().map(ColumnBatch::n_rows).collect(),
                )
            })
            .collect();
        let want: Vec<(String, Vec<usize>)> = plans
            .iter()
            .map(|&(sig, counts)| (sig.to_owned(), counts.to_vec()))
            .collect();
        assert_eq!(got, want, "{sql}");
    }
}

/// FNV-1a over the `Debug` form of every row, in batch order: the cells'
/// values and types (`Int(3)` and `Float(3.0)` print apart).
fn rows_digest(batches: &[ColumnBatch]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for row in batch_rows(batches) {
        for b in format!("{row:?}").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// QT1–QT4 at the scale `qcc-perf`'s `paper_phases` runs (40 000 / 1 000
/// rows), instances 0 and 7, every offered plan: the `Work` bits, the
/// root's per-batch row counts and a digest of its rows, recorded before
/// the row-id table's dense layout went in. At this scale every join key
/// of the templates is one dense `Int` column, and so is every group key
/// but QT2's `s.cat`: a string, whose cells index `small_s`'s one
/// dictionary (the row-id table's code layout). These are the plans whose
/// virtual times are the paper's result.
#[test]
fn qt1_to_qt4_are_pinned_at_paper_scale() {
    // (signature, cpu_units bits, rows_scanned, rows_output, result_bytes,
    //  per-batch row counts, rows digest), QT1#0, QT1#7, … QT4#7.
    type Pin = (&'static str, u64, u64, u64, u64, &'static [usize], u64);
    const QT1_SEQ: &str = "proj(agg[1](hj(seqscan(big_a,pred),seqscan(big_b))))";
    const QT1_IDX: &str = "proj(agg[1](hj(idxscan(big_a.sel range),seqscan(big_b))))";
    const QT2: &str = "proj(agg[1](hj(seqscan(small_s,pred),seqscan(big_a))))";
    const QT3_IDX: &str = "proj(agg[1](hj(idxscan(big_d.sel range),seqscan(big_b))))";
    const QT3_SEQ: &str = "proj(agg[1](hj(seqscan(big_d,pred),seqscan(big_b))))";
    const QT4_IDX: &str =
        "proj(agg[0](hj(hj(idxscan(big_c.flag eq),seqscan(big_b)),seqscan(big_a))))";
    const QT4_SEQ: &str = "proj(agg[0](hj(hj(seqscan(big_c,pred),seqscan(big_b)),seqscan(big_a))))";
    let pinned: [Pin; 14] = [
        (
            QT1_SEQ,
            0x405be45f06f6cea1,
            80000,
            1000,
            24000,
            &[1000],
            0xfcc8b3671cdbc7ba,
        ),
        (
            QT1_IDX,
            0x405e0737f38c8fd9,
            72021,
            1000,
            24000,
            &[1000],
            0xfcc8b3671cdbc7ba,
        ),
        (
            QT1_SEQ,
            0x405a5997f62b9fd9,
            80000,
            1000,
            24000,
            &[1000],
            0xaa992e3c20874bbf,
        ),
        (
            QT1_IDX,
            0x405bfd4299d8b9d6,
            69141,
            1000,
            24000,
            &[1000],
            0xaa992e3c20874bbf,
        ),
        (
            QT2,
            0x4052decbfb15b16b,
            41000,
            10,
            260,
            &[10],
            0x6e0b56018807c46c,
        ),
        (
            QT2,
            0x40502123a29c748f,
            41000,
            10,
            260,
            &[10],
            0x74190ceac193ee6e,
        ),
        (
            QT3_IDX,
            0x403fa34acaff6d05,
            40368,
            206,
            4944,
            &[206],
            0x3894c34525665ebb,
        ),
        (
            QT3_SEQ,
            0x4046778b588e3677,
            80000,
            206,
            4944,
            &[206],
            0x3894c34525665ebb,
        ),
        (
            QT3_IDX,
            0x403f4858793dd960,
            40245,
            145,
            3480,
            &[145],
            0x6eab45da7070a018,
        ),
        (
            QT3_SEQ,
            0x404654ef34d6a152,
            80000,
            145,
            3480,
            &[145],
            0x6eab45da7070a018,
        ),
        (
            QT4_IDX,
            0x404e4b58e2196529,
            80011,
            1,
            16,
            &[1],
            0x0f5fcb20dd716a57,
        ),
        (
            QT4_SEQ,
            0x40528863497b7419,
            120000,
            1,
            16,
            &[1],
            0x0f5fcb20dd716a57,
        ),
        (
            QT4_IDX,
            0x404e498f7121ab4a,
            80007,
            1,
            16,
            &[1],
            0xab5beee41d7b1fd1,
        ),
        (
            QT4_SEQ,
            0x405287abc9470652,
            120000,
            1,
            16,
            &[1],
            0xab5beee41d7b1fd1,
        ),
    ];
    let scenario = qcc_workload::Scenario::build_with(
        qcc_workload::Routing::Baseline,
        qcc_workload::ScenarioConfig {
            large_rows: 40_000,
            small_rows: 1_000,
            threads: 1,
            server_specs: vec![(1.0, 0.3)],
            ..qcc_workload::ScenarioConfig::default()
        },
    );
    let engine = scenario.server("S1").engine();
    let mut got = Vec::new();
    for qt in qcc_workload::ALL_QUERY_TYPES {
        for instance in [0u32, 7] {
            for p in engine.explain(&qt.sql(instance)).expect("plans") {
                let (batches, w) = engine.execute_plan_batches(&p.plan).expect("runs");
                got.push((
                    format!("{qt}#{instance}"),
                    p.plan.signature(),
                    w.cpu_units.to_bits(),
                    w.rows_scanned,
                    w.rows_output,
                    w.result_bytes,
                    batches.iter().map(ColumnBatch::n_rows).collect::<Vec<_>>(),
                    rows_digest(&batches),
                ));
            }
        }
    }
    assert_eq!(got.len(), pinned.len(), "offered plans");
    for (g, &(sig, cpu, scanned, out, bytes, counts, digest)) in got.iter().zip(&pinned) {
        let want = (sig, cpu, scanned, out, bytes, counts, digest);
        let g_view = (g.1.as_str(), g.2, g.3, g.4, g.5, &g.6[..], g.7);
        assert_eq!(g_view, want, "{}", g.0);
    }
}
