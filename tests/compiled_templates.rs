//! Hot equals cold, without a switch (DESIGN.md §16).
//!
//! The compiled-template cache is keyed by the exact SQL text, so a
//! statement with extra trailing spaces always misses while parsing to the
//! same AST. That gives the equivalence test its two arms with no knob to
//! turn: world A submits a seeded sequence over the 40 paper statements
//! (repeats hit), world B submits the same sequence with a fresh
//! whitespace variant every time (every compile builds a new template).
//! Everything an arrival can observe — response time, chosen plan,
//! per-fragment times, estimated cost, rows, the final clock — must agree
//! to the bit, across load-phase changes and a server outage with
//! recovery, one query at a time and in batches at 1 and 8 threads.

use load_aware_federation::common::{Pcg32, Row, ServerId, SimDuration};
use load_aware_federation::federation::QueryOutcome;
use load_aware_federation::qcc::{AvailabilityDaemon, QccConfig};
use load_aware_federation::workload::scenario::scale_server_specs;
use load_aware_federation::workload::{
    apply_phase, Phase, QueryType, Scenario, ScenarioConfig, ALL_QUERY_TYPES,
};
use std::sync::Arc;

const ROUNDS: usize = 3;
const BATCH: usize = 4;

/// Six servers, nicknames partitioned: QT1 is one pushed-down fragment
/// with three replicas, QT2–QT4 are two fragments merged at the
/// integrator.
fn world(threads: usize) -> Scenario {
    Scenario::build_partitioned(
        QccConfig {
            probe_interval_ms: 20.0,
            probe_interval_bounds_ms: (0.5, 50.0),
            ..QccConfig::default()
        },
        ScenarioConfig {
            threads,
            server_specs: scale_server_specs(6, 0x5eed),
            ..ScenarioConfig::tiny()
        },
    )
}

/// What one arrival observed, floats as bit patterns.
#[derive(Debug, PartialEq)]
struct Observed {
    response_ms: u64,
    chosen_signature: String,
    fragment_times: Vec<(ServerId, u64)>,
    estimated_cost: u64,
    rows: Vec<String>,
}

fn observe(outcome: Result<QueryOutcome, String>) -> Result<Observed, String> {
    let out = outcome?;
    let mut rows: Vec<String> = out.rows.iter().map(|r: &Row| format!("{r:?}")).collect();
    rows.sort();
    Ok(Observed {
        response_ms: out.response_ms.to_bits(),
        chosen_signature: out.chosen_signature,
        fragment_times: out
            .fragment_times
            .into_iter()
            .map(|(s, ms)| (s, ms.to_bits()))
            .collect(),
        estimated_cost: out.estimated_cost.to_bits(),
        rows,
    })
}

struct Run {
    observed: Vec<Result<Observed, String>>,
    final_clock_bits: u64,
    template_hits: u64,
    template_misses: u64,
    explain_requests: u64,
    /// `server_down` and `server_restored` events journalled.
    outage_story: (usize, usize),
}

/// Drive one world. `fresh_text` appends a distinct run of spaces to every
/// submitted statement; `batched` goes through `submit_batch`.
fn drive(threads: usize, fresh_text: bool, batched: bool) -> Run {
    let scenario = world(threads);
    let qcc = scenario.qcc.clone().expect("QCC-routed world");
    let daemon = AvailabilityDaemon::new(
        Arc::clone(&qcc),
        scenario.wrappers.clone(),
        scenario.clock.clone(),
    );
    daemon.probe_all();

    let mut pool: Vec<String> = ALL_QUERY_TYPES
        .into_iter()
        .flat_map(|qt: QueryType| (0..10).map(move |i| qt.sql(i)))
        .collect();
    let mut rng = Pcg32::new(7, 0xc0de);
    let mut sequence = Vec::new();
    for _ in 0..ROUNDS {
        rng.shuffle(&mut pool);
        sequence.extend(pool.iter().cloned());
    }
    let texts: Vec<String> = sequence
        .iter()
        .enumerate()
        .map(|(i, sql)| match fresh_text {
            true => format!("{sql}{}", " ".repeat(i + 1)),
            false => sql.clone(),
        })
        .collect();

    let loaded = |servers: &[&str]| Phase {
        number: 0,
        loaded: servers.iter().map(ServerId::new).collect(),
    };
    let mut observed = Vec::new();
    for (step, chunk) in texts.chunks(BATCH).enumerate() {
        let at = step * BATCH;
        // Two load-phase changes and one outage, placed by submit index so
        // both worlds meet them at the same point of the sequence.
        if at == 32 {
            apply_phase(&scenario, &loaded(&["S1", "S4"]));
        }
        if at == 80 {
            apply_phase(&scenario, &loaded(&["S2", "S3", "S6"]));
        }
        if at == 48 {
            let now = scenario.clock.now();
            scenario
                .server("S5")
                .availability()
                .add_outage(now, now + SimDuration::from_millis(25.0));
        }
        daemon.run_due_probes();
        if batched {
            for outcome in scenario.federation.submit_batch(chunk) {
                observed.push(observe(outcome.map_err(|e| e.to_string())));
            }
        } else {
            for sql in chunk {
                let outcome = scenario.federation.submit(sql);
                observed.push(observe(outcome.map_err(|e| e.to_string())));
            }
        }
    }
    let counter = |name| scenario.obs.counter_value(name, &[]);
    let explain_requests = scenario
        .servers
        .iter()
        .map(|s| {
            scenario
                .obs
                .counter_value("explain_requests_total", &[("server", s.id().as_str())])
        })
        .sum();
    Run {
        observed,
        final_clock_bits: scenario.clock.now().as_millis().to_bits(),
        template_hits: counter("compiled_template_hits_total"),
        template_misses: counter("compiled_template_misses_total"),
        explain_requests,
        outage_story: (
            scenario.obs.events_of("server_down").len(),
            scenario.obs.events_of("server_restored").len(),
        ),
    }
}

fn assert_same(a: &Run, b: &Run, what: &str) {
    assert_eq!(a.observed.len(), b.observed.len());
    for (i, (x, y)) in a.observed.iter().zip(&b.observed).enumerate() {
        assert_eq!(x, y, "{what}: arrival {i} diverged");
    }
    assert_eq!(
        a.final_clock_bits, b.final_clock_bits,
        "{what}: final clock diverged"
    );
    assert_eq!(a.outage_story, b.outage_story, "{what}: outage story");
    assert_eq!(
        a.explain_requests, b.explain_requests,
        "{what}: the plan cache, not the template cache, governs EXPLAIN round trips"
    );
}

#[test]
fn hot_equals_cold_one_query_at_a_time() {
    let hot = drive(1, false, false);
    let cold = drive(1, true, false);
    let arrivals = (ROUNDS * 40) as u64;
    assert_eq!(
        (hot.template_misses, hot.template_hits),
        (40, arrivals - 40),
        "each statement compiles once, every repeat hits"
    );
    assert_eq!(
        (cold.template_misses, cold.template_hits),
        (arrivals, 0),
        "a fresh text never hits"
    );
    assert!(
        hot.observed.iter().all(|o| o.is_ok()),
        "the outage is absorbed by replicas"
    );
    assert_eq!(hot.outage_story, (1, 1), "S5 was met down, then restored");
    let touched_s5 = |r: &Run, range: std::ops::Range<usize>| {
        r.observed[range]
            .iter()
            .flatten()
            .flat_map(|o| &o.fragment_times)
            .any(|(s, _)| s.as_str() == "S5")
    };
    assert!(
        touched_s5(&hot, 0..48) && touched_s5(&hot, 100..120),
        "S5 serves before its outage and again after recovery"
    );
    assert_same(&hot, &cold, "submit");
}

#[test]
fn hot_equals_cold_in_batches_at_one_and_eight_threads() {
    let hot = drive(1, false, true);
    assert!(hot.template_hits > 0 && hot.template_misses >= 40);
    for threads in [1, 8] {
        let cold = drive(threads, true, true);
        assert_eq!(cold.template_hits, 0);
        assert_same(
            &hot,
            &cold,
            &format!("submit_batch, cold at {threads} threads"),
        );
        let again = drive(threads, false, true);
        assert_eq!(
            (again.template_hits, again.template_misses),
            (hot.template_hits, hot.template_misses),
            "deferred inserts: the same hits and misses at {threads} threads"
        );
        assert_same(
            &hot,
            &again,
            &format!("submit_batch, hot at {threads} threads"),
        );
    }
}
