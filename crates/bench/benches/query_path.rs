//! The per-arrival query path, gated on counts (DESIGN.md §16).
//!
//! Once a statement has been submitted, submitting it again must be
//! costing, routing and executing only: no parse or decompose (a
//! compiled-template miss), no merge-cost EXPLAIN at the integrator, no
//! planning of the merge it runs there (ANALYZE of the gathered results,
//! plan enumeration, costing), no EXPLAIN round trip to a wrapper. Four
//! fixed plan shapes, one bench each — the shapes differ in what compile
//! has to enumerate, so a regression that only bites multi-fragment or
//! multi-replica plans still shows:
//!
//! * single-source pushdown — one fragment, one source;
//! * co-located join — one fragment holding the join, one source;
//! * cross-source merge — two single-source fragments merged at the
//!   integrator;
//! * 3-replica fan-out — two fragments with three replicas each, so at
//!   least 3 × 3 combinations to enumerate and cost.
//!
//! After one warm-up submit per shape, `SUBMITS` further submits must add
//! nothing to `compiled_template_misses_total`,
//! `integration_estimates_total`, `merge_plans_total` and
//! `explain_requests_total`.
//!
//! The bench also counts heap allocations per warm submit
//! (`qcc_bench::CountingAllocator`), at one scatter thread so the count
//! is the code's, not the host's. The two merging shapes are gated on
//! it: a warm merge binds the stored plan's scans to the shipped batches
//! and builds no `Table`, zone map, `Catalog` or `Engine`, and one that
//! did would show as ≈ 20 more. Measured before → after the warm merge
//! stopped building them: single-source 160.5 → 160.5, co-located join
//! 216.5 → 216.5, cross-source merge 261.1 → 240.1, 3-replica fan-out
//! 282.4 → 261.4.
//!
//! The verdict line (`query path: OK|VIOLATED`) rests on those counts
//! alone and `ci.sh` greps it; the µs/submit column is printed for
//! information and never gates (wall time on a shared host is noise).

use qcc_bench::{counting, CountingAllocator};
use qcc_common::WallStopwatch;
use qcc_core::QccConfig;
use qcc_workload::scenario::scale_server_specs;
use qcc_workload::{Scenario, ScenarioConfig};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Measured submits per shape, after the warm-up submit.
const SUBMITS: usize = 200;

/// Counters that must not move once a statement is warm.
const FROZEN: [&str; 4] = [
    "compiled_template_misses_total",
    "integration_estimates_total",
    "merge_plans_total",
    "explain_requests_total",
];

struct Shape {
    name: &'static str,
    /// Servers in the partitioned world: `big_a`, `big_b` resolve to the
    /// first half, the other tables to the second half.
    servers: usize,
    sql: &'static str,
    fragments: usize,
    /// Candidate servers of every fragment.
    replicas: usize,
    /// Heap allocations a warm submit may make on average, where gated.
    max_allocs: Option<f64>,
}

const SHAPES: [Shape; 4] = [
    Shape {
        name: "single-source pushdown",
        servers: 2,
        sql: "SELECT a.grp, COUNT(*) AS n FROM big_a a WHERE a.sel > 2000 GROUP BY a.grp",
        fragments: 1,
        replicas: 1,
        max_allocs: None,
    },
    Shape {
        name: "co-located join",
        servers: 2,
        sql: "SELECT a.grp, COUNT(*) AS n, SUM(b.qty) AS total \
              FROM big_a a JOIN big_b b ON b.a_id = a.id WHERE a.sel > 2000 GROUP BY a.grp",
        fragments: 1,
        replicas: 1,
        max_allocs: None,
    },
    Shape {
        name: "cross-source merge",
        servers: 2,
        sql: "SELECT s.cat, COUNT(*) AS n, AVG(a.val) AS avg_val \
              FROM big_a a JOIN small_s s ON a.grp = s.id WHERE s.bonus > 20 GROUP BY s.cat",
        fragments: 2,
        replicas: 1,
        max_allocs: Some(250.0),
    },
    Shape {
        name: "3-replica fan-out",
        servers: 6,
        sql: "SELECT s.cat, COUNT(*) AS n, AVG(a.val) AS avg_val \
              FROM big_a a JOIN small_s s ON a.grp = s.id WHERE s.bonus > 20 GROUP BY s.cat",
        fragments: 2,
        replicas: 3,
        max_allocs: Some(271.0),
    },
];

fn world(servers: usize) -> Scenario {
    Scenario::build_partitioned(
        QccConfig::default(),
        ScenarioConfig {
            large_rows: 200,
            small_rows: 40,
            server_specs: scale_server_specs(servers, 0x5eed),
            threads: 1,
            ..ScenarioConfig::tiny()
        },
    )
}

/// The [`FROZEN`] counters so far, in that order.
fn frozen_counts(scenario: &Scenario) -> [u64; 4] {
    FROZEN.map(|name| {
        let per_server: u64 = scenario
            .servers
            .iter()
            .map(|s| {
                scenario
                    .obs
                    .counter_value(name, &[("server", s.id().as_str())])
            })
            .sum();
        scenario.obs.counter_value(name, &[]) + per_server
    })
}

fn main() {
    println!(
        "query path: {SUBMITS} submits per shape after one warm-up submit; \
         a warm statement must not be parsed, decomposed, merge-costed, merge-planned or \
         EXPLAINed again"
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    for shape in &SHAPES {
        let scenario = world(shape.servers);
        let fed = &scenario.federation;
        let (decomposed, _) = fed.explain_global(shape.sql).expect("shape compiles");
        let replicas: Vec<usize> = decomposed
            .fragments
            .iter()
            .map(|f| f.candidate_servers.len())
            .collect();
        if replicas != vec![shape.replicas; shape.fragments] {
            violations.push(format!(
                "{}: expected {} fragment(s) with {} source(s) each, decomposed to {replicas:?}",
                shape.name, shape.fragments, shape.replicas
            ));
        }
        let expected = fed.submit(shape.sql).expect("warm-up submit").rows;
        let before = frozen_counts(&scenario);
        let sw = WallStopwatch::start();
        let (changed, allocs) = counting(|| {
            (0..SUBMITS).any(|_| fed.submit(shape.sql).expect("warm submit").rows != expected)
        });
        let us_per_submit = sw.elapsed_nanos() as f64 / 1e3 / SUBMITS as f64;
        if changed {
            violations.push(format!("{}: a warm submit changed the answer", shape.name));
        }
        let allocs_per_submit = allocs as f64 / SUBMITS as f64;
        if let Some(bound) = shape.max_allocs.filter(|&b| allocs_per_submit > b) {
            violations.push(format!(
                "{}: {allocs_per_submit:.1} allocations per warm submit, bound {bound}",
                shape.name
            ));
        }
        let after = frozen_counts(&scenario);
        let added: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        for (name, n) in FROZEN.iter().zip(&added) {
            if *n > 0 {
                violations.push(format!("{}: {name} grew by {n}", shape.name));
            }
        }
        rows.push(vec![
            shape.name.to_string(),
            format!("{} x {}", shape.fragments, shape.replicas),
            added[0].to_string(),
            added[1].to_string(),
            added[2].to_string(),
            added[3].to_string(),
            format!("{allocs_per_submit:.1}"),
            format!("{us_per_submit:.1}"),
        ]);
    }
    qcc_bench::print_table(
        "work added by warm submits, per plan shape",
        &[
            "shape".to_string(),
            "fragments x sources".to_string(),
            "template misses".to_string(),
            "merge-cost EXPLAINs".to_string(),
            "merge plans".to_string(),
            "wrapper EXPLAINs".to_string(),
            "allocs/submit".to_string(),
            "us/submit (info)".to_string(),
        ],
        &rows,
    );
    if violations.is_empty() {
        println!(
            "query path: OK (0 template misses, 0 merge-cost EXPLAINs, 0 merge plans, \
             0 wrapper EXPLAINs over {SUBMITS} warm submits of each of {} shapes; \
             merging shapes within their allocation bounds)",
            SHAPES.len()
        );
    } else {
        for v in &violations {
            println!("  {v}");
        }
        println!(
            "query path: VIOLATED ({} check(s) failed)",
            violations.len()
        );
    }
}
