//! Federation compile at fleet scale (PR 9's tentpole): EXPLAIN fan-out
//! and compile+route latency at 50/100/250/500 servers with the replica
//! catalog's source selection on (bound 3) and off (every replica asked
//! to EXPLAIN).
//!
//! Source selection runs *before* the EXPLAIN fan-out, so with full
//! replication the pruned compile contacts at most `bound` servers per
//! fragment instead of the whole fleet — and, because the catalog's cost
//! hints rank servers exactly as the calibrated EXPLAIN costs do, the
//! chosen plan must be identical either way. The verdict line
//! (`scale pruning: OK|VIOLATED`) asserts four properties — pruned
//! fan-out within the replication bound, fan-out reduced at least 5x at
//! every fleet size of 25+ servers, winners byte-identical, and the heap
//! allocations of `decompose` + `select_sources` not growing with the
//! fleet — and `ci.sh` greps it; a violation exits 1.
//!
//! The fourth is a count, not a stopwatch: this binary wraps the system
//! allocator in a counter. Source selection and grouping that allocate per
//! candidate (a lower-cased name per lookup, a host list per intersection)
//! show as hundreds of extra allocations at 250 servers; the slot-indexed
//! catalog and the membership-test grouping make a fixed number per
//! statement, whatever the fleet (DESIGN.md §5).
//!
//! `QCC_FLEETS` (comma-separated server counts) overrides the default
//! 50,100,250,500 sweep for smoke runs.

use qcc_bench::{counting, median, CountingAllocator, Verdict};
use qcc_common::{FieldValue, WallStopwatch};
use qcc_federation::decompose;
use qcc_workload::{Routing, Scenario, ScenarioConfig};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The catalog's source-selection bound (`ScenarioConfig::scale`).
const BOUND: usize = 3;

/// Allocations `decompose` + `select_sources` may make for a statement at
/// the largest fleet beyond what they make at the smallest. Measured: +0
/// for both probes from 50 to 250 servers (47 and 215 at either); the code
/// this gate replaced measured 109 / 344 at 50 servers and 313 / 750 at 250.
const MAX_ALLOC_GROWTH: u64 = 16;

/// A cheap single-table probe and a two-table join. Under full
/// replication both decompose to one co-located fragment whose candidate
/// set is the whole fleet, so each compile's EXPLAIN fan-out is `n`
/// unpruned and at most the catalog bound pruned.
const SQLS: [&str; 2] = [
    "SELECT COUNT(*) FROM small_s",
    "SELECT s.cat, COUNT(*) AS n, AVG(a.val) AS avg_val \
     FROM big_a a JOIN small_s s ON a.grp = s.id \
     WHERE a.sel < 500 GROUP BY s.cat ORDER BY s.cat",
];

fn fleets_from_env() -> Vec<usize> {
    std::env::var("QCC_FLEETS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .filter(|&n| n > 0)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![50, 100, 250, 500])
}

/// The `explain_tasks` count of the newest compile span.
fn last_fanout(scenario: &Scenario) -> u64 {
    scenario
        .obs
        .events_of("compile")
        .last()
        .and_then(|e| match e.field("explain_tasks") {
            Some(FieldValue::U64(v)) => Some(*v),
            _ => None,
        })
        .unwrap_or(0)
}

struct Measured {
    /// Total EXPLAIN tasks across the probe SQLs (one compile each).
    fanout: u64,
    /// Summed median compile+route wall ms across the probe SQLs.
    compile_ms: f64,
    /// Winning plan per SQL: (signature, total cost).
    winners: Vec<(String, f64)>,
    /// Per SQL: heap allocations of one `decompose` plus one
    /// `select_sources` per fragment (0 with selection off).
    select_allocs: Vec<u64>,
}

fn measure(n: usize, pruned: bool) -> Measured {
    let mut cfg = ScenarioConfig::scale(n);
    if !pruned {
        cfg.replication_factor = 0;
    }
    let scenario = Scenario::build_with(Routing::Qcc, cfg);
    let mut fanout = 0u64;
    let mut compile_ms = 0.0;
    let mut winners = Vec::new();
    let mut select_allocs = Vec::new();
    for sql in SQLS {
        compile_ms += median(
            (0..3)
                .map(|_| {
                    let sw = WallStopwatch::start();
                    scenario.federation.explain_global(sql).expect("compiles");
                    sw.elapsed_nanos() as f64 / 1e6
                })
                .collect(),
        );
        fanout += last_fanout(&scenario);
        let (_, candidates) = scenario.federation.explain_global(sql).expect("compiles");
        let best = candidates.first().expect("at least one candidate");
        winners.push((best.signature(), best.total_cost()));
        let ((), allocs) = counting(|| {
            let Some(catalog) = &scenario.catalog else {
                return;
            };
            let decomposed = decompose(sql, scenario.federation.nicknames()).expect("decomposes");
            for frag in &decomposed.fragments {
                catalog.select_sources(&frag.nicknames, &frag.candidate_servers);
            }
        });
        select_allocs.push(allocs);
    }
    Measured {
        fanout,
        compile_ms,
        winners,
        select_allocs,
    }
}

fn main() {
    let fleets = fleets_from_env();
    println!(
        "federation compile at fleet scale: full replication, catalog bound {BOUND}, \
         fleets {fleets:?}, {} probe queries",
        SQLS.len()
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut verdict = Verdict::new("scale pruning");
    // (fleet size, allocation count per probe SQL) of every pruned run.
    let mut select_allocs: Vec<(usize, Vec<u64>)> = Vec::new();
    for &n in &fleets {
        let on = measure(n, true);
        select_allocs.push((n, on.select_allocs.clone()));
        let off = measure(n, false);
        // With full replication the unpruned compile asks every server
        // per fragment, so the total fragment count falls out of it.
        let fragments = ((off.fanout as usize) / n).max(1);
        if on.fanout as usize > BOUND * fragments {
            verdict.violate(format!(
                "n={n}: pruned fan-out {} exceeds bound {BOUND} x {fragments} fragments",
                on.fanout
            ));
        }
        let ratio = off.fanout as f64 / (on.fanout.max(1)) as f64;
        if n >= 25 && ratio < 5.0 {
            verdict.violate(format!("n={n}: fan-out reduction {ratio:.1}x < 5x"));
        }
        let winners_match = on.winners.len() == off.winners.len()
            && on
                .winners
                .iter()
                .zip(&off.winners)
                .all(|(a, b)| a.0 == b.0 && (a.1 - b.1).abs() < 1e-9);
        if !winners_match {
            verdict.violate(format!("n={n}: chosen plan diverged under pruning"));
        }
        for (mode, m) in [("pruned", &on), ("full", &off)] {
            rows.push(vec![
                n.to_string(),
                mode.to_string(),
                m.fanout.to_string(),
                format!("{:.2}", m.compile_ms),
                if mode == "pruned" {
                    format!("{ratio:.1}x")
                } else {
                    "1.0x".to_string()
                },
                if winners_match {
                    "identical".to_string()
                } else {
                    "DIVERGED".to_string()
                },
                m.select_allocs
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(" / "),
            ]);
        }
    }
    select_allocs.sort();
    if let (Some((_, small)), Some((_, large))) = (select_allocs.first(), select_allocs.last()) {
        for ((sql, small), large) in SQLS.iter().zip(small).zip(large) {
            if *large > small + MAX_ALLOC_GROWTH {
                verdict.violate(format!(
                    "decompose + select_sources allocate with the fleet: {small} -> {large} \
                     (allowed +{MAX_ALLOC_GROWTH}) for {sql}"
                ));
            }
        }
    }
    qcc_bench::print_table(
        "EXPLAIN fan-out and compile+route latency, source selection on vs off",
        &[
            "servers".to_string(),
            "selection".to_string(),
            "explain tasks".to_string(),
            "compile ms".to_string(),
            "reduction".to_string(),
            "winner".to_string(),
            "select allocs".to_string(),
        ],
        &rows,
    );
    verdict.finish(&format!(
        "fan-out within bound {BOUND} per fragment, >=5x reduction, winners identical, \
         decompose + select allocations flat across {} fleet sizes",
        fleets.len()
    ));
}
