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
//! is the code's, not the host's, and gates every shape on it: a warm
//! merge binds the stored plan's scans to the shipped batches and builds
//! no `Table`, zone map, `Catalog` or `Engine` (one that did would show
//! as ≈ 20 more). Each shape runs a second time with obs off, and the
//! difference (the `obs allocs/submit` column) is gated too: a metric
//! emission through a handle and a journal event whose strings are shared
//! allocate nothing, so what obs adds is the one boxed closure of the
//! `compile` span (and a first emission per new label value). Measured
//! with obs on, before → after metric handles, shared-string event fields
//! and the segmented journal: single-source 153.5 → 130.5, co-located
//! join 195.5 → 172.5, cross-source merge 225.1 → 190.0, 3-replica
//! fan-out 246.4 → 207.6; obs allocations 20 / 20 / 31 / 35 → 1 / 1 / 1
//! / 1.2. Later, 124.5 / 168.5 / 186.0 / 203.6 → 122.5 / 153.5 / 171.0 /
//! 188.6, the bounds tightened to match: a remote's contention lookup
//! stopped building its keys (−2 everywhere), and an aggregate over a
//! hash join, at a remote and at the integrator's merge alike, stopped
//! gathering the join's output (−13 more where there is one).
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

/// Heap allocations per warm submit that obs may add: the run with obs on
/// minus the same run with obs off.
const MAX_OBS_ALLOCS: f64 = 2.0;

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
    /// Heap allocations a warm submit may make on average.
    max_allocs: f64,
}

const SHAPES: [Shape; 4] = [
    Shape {
        name: "single-source pushdown",
        servers: 2,
        sql: "SELECT a.grp, COUNT(*) AS n FROM big_a a WHERE a.sel > 2000 GROUP BY a.grp",
        fragments: 1,
        replicas: 1,
        max_allocs: 126.0,
    },
    Shape {
        name: "co-located join",
        servers: 2,
        sql: "SELECT a.grp, COUNT(*) AS n, SUM(b.qty) AS total \
              FROM big_a a JOIN big_b b ON b.a_id = a.id WHERE a.sel > 2000 GROUP BY a.grp",
        fragments: 1,
        replicas: 1,
        max_allocs: 157.0,
    },
    Shape {
        name: "cross-source merge",
        servers: 2,
        sql: "SELECT s.cat, COUNT(*) AS n, AVG(a.val) AS avg_val \
              FROM big_a a JOIN small_s s ON a.grp = s.id WHERE s.bonus > 20 GROUP BY s.cat",
        fragments: 2,
        replicas: 1,
        max_allocs: 175.0,
    },
    Shape {
        name: "3-replica fan-out",
        servers: 6,
        sql: "SELECT s.cat, COUNT(*) AS n, AVG(a.val) AS avg_val \
              FROM big_a a JOIN small_s s ON a.grp = s.id WHERE s.bonus > 20 GROUP BY s.cat",
        fragments: 2,
        replicas: 3,
        max_allocs: 192.0,
    },
];

fn world(servers: usize, obs_enabled: bool) -> Scenario {
    Scenario::build_partitioned(
        QccConfig::default(),
        ScenarioConfig {
            large_rows: 200,
            small_rows: 40,
            server_specs: scale_server_specs(servers, 0x5eed),
            threads: 1,
            obs_enabled,
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

/// What `SUBMITS` warm submits of one shape did.
struct Warm {
    /// The [`FROZEN`] counters' growth (all 0 with obs off).
    added: [u64; 4],
    allocs_per_submit: f64,
    us_per_submit: f64,
}

/// One warm-up submit of `shape`, then `SUBMITS` counted ones. A
/// decomposition or answer that differs from the shape's is a violation.
fn run_warm(shape: &Shape, obs_enabled: bool, violations: &mut Vec<String>) -> Warm {
    let scenario = world(shape.servers, obs_enabled);
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
        violations.push(format!(
            "{} (obs {}): a warm submit changed the answer",
            shape.name,
            if obs_enabled { "on" } else { "off" }
        ));
    }
    let after = frozen_counts(&scenario);
    let mut added = [0; 4];
    for (i, (a, b)) in after.iter().zip(before).enumerate() {
        added[i] = a - b;
    }
    Warm {
        added,
        allocs_per_submit: allocs as f64 / SUBMITS as f64,
        us_per_submit,
    }
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
        let on = run_warm(shape, true, &mut violations);
        let off = run_warm(shape, false, &mut violations);
        if on.allocs_per_submit > shape.max_allocs {
            violations.push(format!(
                "{}: {:.1} allocations per warm submit, bound {}",
                shape.name, on.allocs_per_submit, shape.max_allocs
            ));
        }
        let obs_allocs = on.allocs_per_submit - off.allocs_per_submit;
        if obs_allocs > MAX_OBS_ALLOCS {
            violations.push(format!(
                "{}: obs makes {obs_allocs:.1} allocations per warm submit, bound {MAX_OBS_ALLOCS}",
                shape.name
            ));
        }
        for (name, n) in FROZEN.iter().zip(&on.added) {
            if *n > 0 {
                violations.push(format!("{}: {name} grew by {n}", shape.name));
            }
        }
        rows.push(vec![
            shape.name.to_string(),
            format!("{} x {}", shape.fragments, shape.replicas),
            on.added[0].to_string(),
            on.added[1].to_string(),
            on.added[2].to_string(),
            on.added[3].to_string(),
            format!("{:.1}", on.allocs_per_submit),
            format!("{obs_allocs:.1}"),
            format!("{:.1}", on.us_per_submit),
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
            "obs allocs/submit".to_string(),
            "us/submit (info)".to_string(),
        ],
        &rows,
    );
    if violations.is_empty() {
        println!(
            "query path: OK (0 template misses, 0 merge-cost EXPLAINs, 0 merge plans, \
             0 wrapper EXPLAINs over {SUBMITS} warm submits of each of {} shapes; \
             every shape within its allocation bounds)",
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
