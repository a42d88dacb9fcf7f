//! Wall-clock speedup of columnar batch execution (PR 7's tentpole).
//!
//! Virtual time is untouched by the execution model: the batch executor
//! replicates the row executor's `Work` accounting expression for
//! expression (operator-level totals, never per-chunk partials), so the
//! virtual digest column must read `identical` on every row. What the
//! columnar rewrite buys is *host* wall-clock time: zero-copy Arc-shared
//! scans, selection vectors instead of row materialization, a
//! column-compare fast path for simple predicates, and zone-map chunk
//! pruning on clustered columns.
//!
//! Eleven workloads over the §5 scenario schema at `QCC_LARGE_ROWS` scale,
//! each run through `rowexec::execute_rows` (the row-at-a-time reference)
//! and `execute_batches` (the columnar engine) on the *same* plan:
//!
//! * `scan`          — full-table scan (Arc sharing vs per-row clones).
//! * `filter`        — selective predicate on an unclustered column.
//! * `filter zoned`  — range predicate on the clustered serial key, where
//!   per-chunk min/max summaries let the batch engine skip whole chunks.
//! * `join+agg`      — the paper's QT1 (large ⋈ large, group aggregate).
//! * `QT2`           — small filtered build side, string group key: the
//!   join gathers `s.cat` as codes of `small_s`'s one dictionary, so the
//!   group key takes the row-id table's code layout.
//! * `QT4`           — three-way join, global aggregate.
//! * `agg`           — grouped aggregation over the large table.
//! * `aggs`          — every aggregate function at once: `COUNT`, `SUM` and
//!   `AVG` take the typed state (fed from `Int` and `Float` payloads),
//!   `MIN` and `MAX` the per-group accumulator.
//! * `distinct`      — duplicate elimination over the large table.
//! * `sparse join`   — large ⋈ large on an `Int` key spread over 64
//!   values per row: the row-id table's hashed layout, where every `Int`
//!   join and group key above takes its dense one.
//! * `str group`     — grouping on a string drawn from as many tags as
//!   rows (≈ 0.63 distinct per row), a dictionary per storage chunk: the
//!   hashed layout over strings, the high-cardinality case codes do not
//!   serve.
//!
//! Wall times are informational (they move with the host). What is gated
//! is a count: this binary wraps the system allocator in a counter, and
//! the hashing operators — the eight workloads from `join+agg` down — must
//! allocate per chunk and per group, not per row. The last line reads
//! `columnar allocations: OK|VIOLATED`; `ci.sh` greps it. The virtual
//! digest compares, besides the `Work` bits and the row counts, every
//! result row with the row reference's.
//!
//! Batch ms at the default scale, medians of six alternating runs of this
//! binary built on the engine before and after dictionary-coded strings
//! (2-vCPU AMD EPYC): `QT2` 0.95 → 0.44; `str group` 2.93 → 2.17, its
//! allocations per row 1.27 → 0.007 (a string per group and per projected
//! row before); `distinct` 0.39 → 0.13 (its projection of a bare column
//! now shares the scan's vector); `join+agg` 1.06 → 1.02, `sparse join`
//! 0.97 → 0.94, `agg` 0.27 → 0.24, `QT4` 0.18 → 0.18, `scan` 0.02,
//! `filter` 0.33 and `filter zoned` 0.20 → 0.21 held.
//!
//! The same, before and after the branch-free `Int` filter, the key-free
//! dense join build, the two-pass dense probe and the typed aggregate
//! state (2-vCPU Intel Xeon, a slower host): `join+agg` 1.89 → 1.35,
//! `agg` 0.49 → 0.30, `str group` 5.86 → 3.90 (a typed count and sum
//! per group), `QT2` 0.87 → 0.67, `QT4` 0.47 → 0.39, `filter` 0.70 →
//! 0.58, `aggs` 1.79 → 1.58 (its `MIN` / `MAX` keep the accumulator),
//! `filter zoned` 0.30 → 0.27, `sparse join` 1.96 → 1.89 (its hashed
//! probe is unchanged), `scan` 0.07 → 0.05, `distinct` 0.26 → 0.26.

use qcc_bench::{counting, BenchScale, CountingAllocator};
use qcc_common::{ColumnBatch, WallStopwatch};
use qcc_engine::{execute_batches, rowexec, Engine};
use qcc_storage::{Catalog, ColumnSpec, TableSpec};

const REPS: usize = 5;

/// Heap allocations the batch engine may make per base-table row read, on
/// the workloads that hash. Measured: 0.004 to 0.010 at the default scale
/// (40 000 / 1 000 rows) and at most 0.060 at the CI smoke scale (2 000 /
/// 100 rows, where a query's few dozen fixed allocations weigh more), so
/// the bound has a 4x margin where it is tightest. The executor
/// this replaced measures 0.85 on `join+agg`, 1.59 on `QT2` and 1.02 on
/// `distinct` at the default scale — a key vector per distinct build key,
/// per group and per distinct row, a `String` per string-keyed row — and
/// fails the bound on each (its `QT4`, 0.010, and `agg`, 0.080, pass: few
/// build keys, few groups).
const MAX_ALLOCS_PER_ROW: f64 = 0.25;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The scenario's table shapes (see `qcc-workload`), without indexes so
/// every query has exactly one plan and both executors run it.
fn build_catalog(large: u64, small: u64) -> Catalog {
    let specs = vec![
        TableSpec::new(
            "big_a",
            large,
            vec![
                ColumnSpec::Serial { name: "id".into() },
                ColumnSpec::IntUniform {
                    name: "grp".into(),
                    lo: 0,
                    hi: small as i64,
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
            large,
            vec![
                ColumnSpec::Serial { name: "id".into() },
                ColumnSpec::IntUniform {
                    name: "a_id".into(),
                    lo: 0,
                    hi: large as i64,
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
            large,
            vec![
                ColumnSpec::Serial { name: "id".into() },
                ColumnSpec::IntUniform {
                    name: "b_id".into(),
                    lo: 0,
                    hi: large as i64,
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
            small,
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
        // Join keys spread over 64 values per row: the row-id table's
        // hashed layout (the tables above join on dense keys).
        TableSpec::new(
            "sparse",
            large,
            vec![
                ColumnSpec::IntUniform {
                    name: "k".into(),
                    lo: 0,
                    hi: large as i64 * 64,
                },
                ColumnSpec::IntUniform {
                    name: "qty".into(),
                    lo: 0,
                    hi: 100,
                },
            ],
        ),
        // A string per row from as many tags as rows: about 0.63 distinct
        // strings per row, a dictionary per chunk, so grouping on it takes
        // the row-id table's hashed layout.
        TableSpec::new(
            "strs",
            large,
            vec![
                ColumnSpec::StrPool {
                    name: "tag".into(),
                    pool_size: large,
                },
                ColumnSpec::IntUniform {
                    name: "qty".into(),
                    lo: 0,
                    hi: 100,
                },
            ],
        ),
    ];
    let mut catalog = Catalog::new();
    for (i, spec) in specs.iter().enumerate() {
        catalog.register(spec.generate(7_001 + i as u64));
    }
    catalog
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

struct Outcome {
    rows_out: u64,
    row_ms: f64,
    batch_ms: f64,
    /// Heap allocations per base-table row read, each executor.
    row_allocs: f64,
    batch_allocs: f64,
    digest_ok: bool,
}

/// Run one query through both executors and report medians plus the
/// virtual-time digest comparison.
fn run_query(engine: &Engine, sql: &str) -> Outcome {
    let plans = engine.explain(sql).expect("bench query plans");
    let plan = &plans[0].plan;
    let mut row_times = Vec::with_capacity(REPS);
    let mut batch_times = Vec::with_capacity(REPS);
    let mut rows_out = 0u64;
    let (mut row_allocs, mut batch_allocs) = (0.0, 0.0);
    let mut digest_ok = true;
    for _ in 0..REPS {
        let sw = WallStopwatch::start();
        let ((rrows, rwork), allocs) = counting(|| {
            rowexec::execute_rows(plan, engine.catalog(), engine.cost_model()).expect("row engine")
        });
        row_times.push(sw.elapsed_nanos() as f64 / 1e6);
        row_allocs = allocs as f64 / rwork.rows_scanned.max(1) as f64;

        let sw = WallStopwatch::start();
        let ((batches, bwork), allocs) = counting(|| {
            execute_batches(plan, engine.catalog(), engine.cost_model()).expect("batch engine")
        });
        batch_times.push(sw.elapsed_nanos() as f64 / 1e6);
        batch_allocs = allocs as f64 / bwork.rows_scanned.max(1) as f64;

        rows_out = bwork.rows_output;
        let brows: Vec<_> = batches.iter().flat_map(ColumnBatch::to_rows).collect();
        digest_ok = digest_ok
            && bwork.cpu_units.to_bits() == rwork.cpu_units.to_bits()
            && bwork.rows_output == rrows.len() as u64
            && bwork.result_bytes == rwork.result_bytes
            && brows == rrows;
    }
    Outcome {
        rows_out,
        row_ms: median(row_times),
        batch_ms: median(batch_times),
        row_allocs,
        batch_allocs,
        digest_ok,
    }
}

fn main() {
    let scale = BenchScale::from_env();
    let large = scale.config.large_rows;
    let small = scale.config.small_rows;
    println!("columnar execution wall-clock speedup (large tables: {large} rows)");
    let catalog = build_catalog(large, small);
    let engine = Engine::new(catalog);

    let zone_hi = (large / 50).max(1);
    // (name, statement, gated on allocations)
    let workloads: Vec<(&str, String, bool)> = vec![
        ("scan", "SELECT * FROM big_a".into(), false),
        (
            "filter",
            "SELECT * FROM big_a WHERE big_a.sel > 9000".into(),
            false,
        ),
        (
            "filter zoned",
            format!("SELECT * FROM big_a WHERE big_a.id < {zone_hi}"),
            false,
        ),
        (
            "join+agg",
            "SELECT a.grp, COUNT(*) AS n, SUM(b.qty) AS total \
             FROM big_a a JOIN big_b b ON b.a_id = a.id \
             WHERE a.sel > 2000 GROUP BY a.grp"
                .into(),
            true,
        ),
        (
            "QT2",
            "SELECT s.cat, COUNT(*) AS n, AVG(a.val) AS avg_val \
             FROM big_a a JOIN small_s s ON a.grp = s.id \
             WHERE s.bonus > 20 GROUP BY s.cat"
                .into(),
            true,
        ),
        (
            "QT4",
            "SELECT COUNT(*) AS n, SUM(b.qty) AS total \
             FROM big_a a JOIN big_b b ON b.a_id = a.id \
             JOIN big_c c ON c.b_id = b.id \
             WHERE c.flag = 100"
                .into(),
            true,
        ),
        (
            "agg",
            "SELECT a.grp, COUNT(*) AS n, SUM(a.val) AS total FROM big_a a GROUP BY a.grp".into(),
            true,
        ),
        (
            "aggs",
            "SELECT a.grp, COUNT(a.val), SUM(a.sel), AVG(a.val), MIN(a.val), MAX(a.sel) \
             FROM big_a a GROUP BY a.grp"
                .into(),
            true,
        ),
        (
            "distinct",
            "SELECT DISTINCT a.grp FROM big_a a".into(),
            true,
        ),
        (
            "sparse join",
            "SELECT COUNT(*) AS n, SUM(y.qty) AS total \
             FROM sparse x JOIN sparse y ON x.k = y.k"
                .into(),
            true,
        ),
        (
            "str group",
            "SELECT t.tag, COUNT(*) AS n, SUM(t.qty) AS total FROM strs t GROUP BY t.tag".into(),
            true,
        ),
    ];

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut allocations_ok = true;
    for (name, sql, gated) in &workloads {
        let o = run_query(&engine, sql);
        allocations_ok &= !gated || o.batch_allocs <= MAX_ALLOCS_PER_ROW;
        rows.push(vec![
            (*name).to_string(),
            o.rows_out.to_string(),
            format!("{:.2}", o.row_ms),
            format!("{:.2}", o.batch_ms),
            format!("{:.2}x", o.row_ms / o.batch_ms),
            format!("{:.3}", o.row_allocs),
            format!("{:.3}", o.batch_allocs),
            if o.digest_ok {
                "identical".to_string()
            } else {
                "DIVERGED".to_string()
            },
        ]);
    }
    qcc_bench::print_table(
        "row-at-a-time vs columnar batches (median of 5 runs)",
        &[
            "workload".to_string(),
            "rows out".to_string(),
            "row ms".to_string(),
            "batch ms".to_string(),
            "speedup".to_string(),
            "row allocs/row".to_string(),
            "batch allocs/row".to_string(),
            "virtual digest".to_string(),
        ],
        &rows,
    );
    println!(
        "\ncolumnar allocations: {} (batch engine, join+agg / QT2 / QT4 / agg / aggs / distinct \
         / sparse join / str group: at most {MAX_ALLOCS_PER_ROW} heap allocations per base-table \
         row read)",
        if allocations_ok { "OK" } else { "VIOLATED" }
    );
}
