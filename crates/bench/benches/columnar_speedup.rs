//! Wall-clock time of columnar batch execution, with a digest of each
//! result pinned.
//!
//! Twelve workloads over the §5 scenario schema at `QCC_LARGE_ROWS` scale,
//! each run through `execute_batches` on its first plan:
//!
//! * `scan`          — full-table scan (Arc-shared column vectors).
//! * `filter`        — selective predicate on an unclustered column.
//! * `filter zoned`  — range predicate on the clustered serial key, where
//!   per-chunk min/max summaries let the batch engine skip whole chunks.
//! * `join+agg`      — the paper's QT1 (large ⋈ large, group aggregate).
//! * `QT2`           — small filtered build side, string group key: the
//!   join gathers `s.cat` as codes of `small_s`'s one dictionary, so the
//!   group key takes the row-id table's code layout.
//! * `QT4`           — three-way join, global aggregate.
//! * `QT3`           — an index-scanned build side (`big_d.sel`, the one
//!   index) under a grouped `MIN` of a build-side argument.
//! * `agg`           — grouped aggregation over the large table.
//! * `aggs`          — every aggregate function at once: `COUNT`, `SUM`,
//!   `AVG`, `MIN` and `MAX` take the typed state, fed from `Int` and
//!   `Float` payloads.
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
//! the hashing operators — the nine workloads from `join+agg` down — must
//! allocate per chunk and per group, not per row. The last line reads
//! `columnar allocations: OK|VIOLATED`; `ci.sh` greps it. The virtual
//! digest (`tests/support/digest.rs`: the `Work` bits and every result
//! row, a float by its bits) is compared with the one pinned for the
//! workload at `ci.sh`'s smoke scale (2 000 / 100 rows) and at the
//! default scale (40 000 / 1 000), recorded while the row-at-a-time
//! executor this bench once timed returned the same rows and `Work`; at
//! any other scale it reads `unpinned`.
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
//! 0.58, `aggs` 1.79 → 1.58 (its `MIN` / `MAX` kept a per-group
//! accumulator), `filter zoned` 0.30 → 0.27, `sparse join` 1.96 → 1.89
//! (its hashed probe is unchanged), `scan` 0.07 → 0.05, `distinct` 0.26
//! → 0.26.
//!
//! The same, before and after the groupjoin (an aggregate straight over a
//! hash join is fed by the join's matches, with no join output; medians
//! of three alternating runs, 2-vCPU Intel Xeon): `join+agg` 1.98 → 1.64,
//! `QT2` 1.06 → 0.61, `QT4` 0.56 → 0.54, `QT3` 0.29 → 0.27.

use qcc_bench::{counting, BenchScale, CountingAllocator};
use qcc_common::{ColumnBatch, WallStopwatch};
use qcc_engine::{execute_batches, Engine};
use qcc_storage::{Catalog, ColumnSpec, TableSpec};

const REPS: usize = 5;

#[path = "../../../tests/support/digest.rs"]
mod digest;

/// The `(large, small)` row counts the digests are pinned at, in the order
/// of each workload's pins: `ci.sh`'s smoke scale and the default.
const PINNED_SCALES: [(u64, u64); 2] = [(2_000, 100), (40_000, 1_000)];

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

/// The scenario's table shapes (see `qcc-workload`), with one index,
/// `big_d.sel`: every other query has exactly one plan, and `QT3` runs the
/// first one offered, its index scan.
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
        // QT3's table, the one with an index: its `sel` range is read
        // through it.
        TableSpec::new(
            "big_d",
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
    ];
    let mut catalog = Catalog::new();
    for (i, spec) in specs.iter().enumerate() {
        catalog.register(spec.generate(7_001 + i as u64));
    }
    catalog.create_index("big_d", "sel").expect("column exists");
    catalog
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

struct Outcome {
    rows_out: u64,
    batch_ms: f64,
    /// Heap allocations per base-table row read.
    batch_allocs: f64,
    /// The digest of every repetition, if they agree.
    digest: Option<u64>,
}

/// Run one query's plan `REPS` times and report medians plus the
/// virtual-time digest.
fn run_query(engine: &Engine, sql: &str) -> Outcome {
    let plans = engine.explain(sql).expect("bench query plans");
    let plan = &plans[0].plan;
    let mut batch_times = Vec::with_capacity(REPS);
    let mut rows_out = 0u64;
    let mut batch_allocs = 0.0;
    let mut digests = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let sw = WallStopwatch::start();
        let ((batches, w), allocs) = counting(|| {
            execute_batches(plan, engine.catalog(), engine.cost_model()).expect("batch engine")
        });
        batch_times.push(sw.elapsed_nanos() as f64 / 1e6);
        batch_allocs = allocs as f64 / w.rows_scanned.max(1) as f64;

        rows_out = w.rows_output;
        let rows: Vec<_> = batches.iter().flat_map(ColumnBatch::to_rows).collect();
        let work = [
            w.cpu_units.to_bits(),
            w.rows_scanned,
            w.rows_output,
            w.result_bytes,
        ];
        digests.push(digest::run_digest(
            digest::EMPTY,
            &plan.signature(),
            work,
            &rows,
        ));
    }
    Outcome {
        rows_out,
        batch_ms: median(batch_times),
        batch_allocs,
        digest: digests
            .windows(2)
            .all(|d| d[0] == d[1])
            .then_some(digests[0]),
    }
}

fn main() {
    let scale = BenchScale::from_env();
    let large = scale.config.large_rows;
    let small = scale.config.small_rows;
    println!("columnar execution wall-clock time (large tables: {large} rows)");
    let catalog = build_catalog(large, small);
    let engine = Engine::new(catalog);
    let pinned_scale = PINNED_SCALES.iter().position(|&s| s == (large, small));

    let zone_hi = (large / 50).max(1);
    // (name, statement, gated on allocations, digests at PINNED_SCALES)
    let workloads: Vec<(&str, String, bool, [u64; 2])> = vec![
        (
            "scan",
            "SELECT * FROM big_a".into(),
            false,
            [0xdbecf9b7866d9c6d, 0x5ee83e315d26a62d],
        ),
        (
            "filter",
            "SELECT * FROM big_a WHERE big_a.sel > 9000".into(),
            false,
            [0x4f1de1762b34d02d, 0xa9edf05299e3acae],
        ),
        (
            "filter zoned",
            format!("SELECT * FROM big_a WHERE big_a.id < {zone_hi}"),
            false,
            [0x047576dd7a1cb8bb, 0xf3872087fd764b86],
        ),
        (
            "join+agg",
            "SELECT a.grp, COUNT(*) AS n, SUM(b.qty) AS total \
             FROM big_a a JOIN big_b b ON b.a_id = a.id \
             WHERE a.sel > 2000 GROUP BY a.grp"
                .into(),
            true,
            [0x9935b5212b2a38eb, 0x1a10db035ee03597],
        ),
        (
            "QT2",
            "SELECT s.cat, COUNT(*) AS n, AVG(a.val) AS avg_val \
             FROM big_a a JOIN small_s s ON a.grp = s.id \
             WHERE s.bonus > 20 GROUP BY s.cat"
                .into(),
            true,
            [0xce49787190be82e7, 0xd924476e0c1e6943],
        ),
        (
            "QT4",
            "SELECT COUNT(*) AS n, SUM(b.qty) AS total \
             FROM big_a a JOIN big_b b ON b.a_id = a.id \
             JOIN big_c c ON c.b_id = b.id \
             WHERE c.flag = 100"
                .into(),
            true,
            [0x707ac70568815c4b, 0xb7e7a7f20595d472],
        ),
        (
            "QT3",
            "SELECT d.grp, COUNT(*) AS n, MIN(d.val) AS lo \
             FROM big_d d JOIN big_b b ON b.a_id = d.id \
             WHERE d.sel > 9900 GROUP BY d.grp"
                .into(),
            true,
            [0x6e8e72b548de740f, 0x2b1116fa86916f4a],
        ),
        (
            "agg",
            "SELECT a.grp, COUNT(*) AS n, SUM(a.val) AS total FROM big_a a GROUP BY a.grp".into(),
            true,
            [0x29eb623f3a6ba89b, 0x7007398a7c1d735a],
        ),
        (
            "aggs",
            "SELECT a.grp, COUNT(a.val), SUM(a.sel), AVG(a.val), MIN(a.val), MAX(a.sel) \
             FROM big_a a GROUP BY a.grp"
                .into(),
            true,
            [0xdd51783f38ec7775, 0x876951928fd50e8b],
        ),
        (
            "distinct",
            "SELECT DISTINCT a.grp FROM big_a a".into(),
            true,
            [0x23d42127724a4db6, 0xf012c9f2966c01b1],
        ),
        (
            "sparse join",
            "SELECT COUNT(*) AS n, SUM(y.qty) AS total \
             FROM sparse x JOIN sparse y ON x.k = y.k"
                .into(),
            true,
            [0x94327a16e3670d9a, 0x33d1552f296ade70],
        ),
        (
            "str group",
            "SELECT t.tag, COUNT(*) AS n, SUM(t.qty) AS total FROM strs t GROUP BY t.tag".into(),
            true,
            [0xaa41d837cf2fd23a, 0xbd45436e0452197d],
        ),
    ];

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut allocations_ok = true;
    for (name, sql, gated, pins) in &workloads {
        let o = run_query(&engine, sql);
        allocations_ok &= !gated || o.batch_allocs <= MAX_ALLOCS_PER_ROW;
        let digest = match (o.digest, pinned_scale) {
            (Some(got), Some(i)) if got == pins[i] => "identical",
            (Some(_), None) => "unpinned",
            _ => "DIVERGED",
        };
        rows.push(vec![
            (*name).to_string(),
            o.rows_out.to_string(),
            format!("{:.2}", o.batch_ms),
            format!("{:.3}", o.batch_allocs),
            digest.to_string(),
        ]);
    }
    qcc_bench::print_table(
        "columnar batches (median of 5 runs)",
        &[
            "workload".to_string(),
            "rows out".to_string(),
            "batch ms".to_string(),
            "batch allocs/row".to_string(),
            "virtual digest".to_string(),
        ],
        &rows,
    );
    println!(
        "\ncolumnar allocations: {} (batch engine, join+agg / QT2 / QT4 / QT3 / agg / aggs / \
         distinct / sparse join / str group: at most {MAX_ALLOCS_PER_ROW} heap allocations per \
         base-table row read)",
        if allocations_ok { "OK" } else { "VIOLATED" }
    );
}
