//! The traced run: per-layer metrics.
//!
//! Nothing inside the program is instrumented. The traced run (1) repeats
//! the untraced measured section on one world and reads the program's own
//! counters, and (2) builds a second, identical world and replays a
//! sample of the statements through a *probe ladder*: `submit` alone,
//! then each layer's public entry point called directly on the same
//! statement — `explain_global`, `decompose`, `parse_select`,
//! `select_sources`, `Wrapper::plan` → `RemoteServer::explain` →
//! `Engine::explain`, `Wrapper::execute` → `RemoteServer::execute` →
//! `Engine::execute_plan_batches`. Every call is a span (name, start,
//! end, parent, query) kept in memory and written out at exit.
//!
//! A replayed child runs after its parent returned, so containment is
//! logical: for self times the children are laid end to end from the
//! parent's start (one thread, so production runs them in sequence too)
//! and the parent's self time is its duration minus what they cover.
//! The ladder advances the virtual clock and feeds the QCC, so its world
//! is used for wall-clock numbers only.

use crate::run::{run_measured, Keep, Measured};
use crate::stats::{median, percentile, result_line, Metric};
use crate::worlds::{build_world, Inputs, Stmt, Workload, World};
use crate::{check, Options};
use qcc_admission::{AdmissionConfig, AdmissionController};
use qcc_common::{FieldValue, Obs, ServerId, SimTime, WallStopwatch};
use qcc_engine::Work;
use qcc_federation::{decompose, GlobalCandidate};
use qcc_sql::parse_select;
use qcc_storage::{Catalog, ColumnSpec, TableSpec};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Ladder samples per workload, sized so the ladder takes about as long
/// as the measured section.
fn ladder_samples(workload: Workload, smoke: bool) -> usize {
    let full = match workload {
        Workload::PaperPhases => 240,
        Workload::CoordinatorHot => 2_000,
        Workload::FleetAdhoc => 1_200,
        Workload::OverloadFaults => 2_000,
    };
    if smoke {
        full / 50
    } else {
        full
    }
}

/// The layers, in call order, with the metric each one's share goes by.
/// A span's layer is the crate it calls into.
const LAYER_SHARES: [(&str, &str); 6] = [
    ("federation", "share.federation"),
    ("sql", "share.sql"),
    ("catalog", "share.catalog"),
    ("wrapper", "share.wrapper"),
    ("remote", "share.remote"),
    ("engine", "share.engine"),
];

/// Span names, one per probed entry point; the prefix is the layer.
const SUBMIT: &str = "federation.submit";
const COMPILE: &str = "federation.explain_global";
const DECOMPOSE: &str = "federation.decompose";
const PARSE: &str = "sql.parse_select";
const SELECT: &str = "catalog.select_sources";
const W_PLAN: &str = "wrapper.plan";
const R_EXPLAIN: &str = "remote.explain";
const E_EXPLAIN: &str = "engine.explain";
const W_EXEC: &str = "wrapper.execute";
const R_EXEC: &str = "remote.execute";
const E_EXEC: &str = "engine.execute_plan_batches";

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Sample (statement) number; spans of one statement share it.
    pub query: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
struct Recorder {
    clock: WallStopwatch,
    spans: Vec<Span>,
}

impl Recorder {
    /// Time `f` as a span; returns the span's index and `f`'s result.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        query: usize,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start_ns = self.clock.elapsed_nanos() as u64;
        let out = std::hint::black_box(f());
        let end_ns = self.clock.elapsed_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            query,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1, out)
    }
}

/// Calls, total duration and children's total duration of one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct NameTotals {
    calls: u64,
    total_ns: u64,
    children_ns: u64,
}

impl NameTotals {
    /// Time spent in the spans themselves: their total minus what their
    /// direct children took. Taken over totals, not span by span: a thin
    /// wrapper and the call it forwards to are two separate replays of
    /// nearly equal length, and flooring each noisy difference at zero
    /// would bias the sum upwards. A replayed child that outlasts its
    /// parent in total (a cold replay of a cache-hit call) floors at zero.
    fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.children_ns)
    }

    fn self_us_per_call(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.self_ns() as f64 / 1e3 / self.calls as f64
    }
}

/// Totals by span name over the spans `include` accepts. Children are
/// replayed one after another on one thread, so what they cover of their
/// parent is the sum of their durations.
fn name_totals(
    spans: &[Span],
    include: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans.iter().filter(|s| include(s)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
        if let Some(p) = s.parent {
            out.entry(spans[p].name).or_default().children_ns += s.duration_ns();
        }
    }
    out
}

/// Inputs the core micro-probes reuse from the ladder.
#[derive(Default)]
struct CoreInputs {
    /// `(server, plan signature, estimated total)` of winning fragments.
    fragments: Vec<(ServerId, String, f64)>,
    /// `(template, candidates)` of compiled statements.
    choices: Vec<(String, Vec<GlobalCandidate>)>,
}

/// Replay `sample` through the probe ladder on `world`.
fn run_ladder(
    workload: Workload,
    world: &World,
    sample: &[Stmt],
    rec: &mut Recorder,
) -> (Work, CoreInputs) {
    let scenario = &world.scenario;
    let fed = &scenario.federation;
    // Work the engine reported for the sampled winning plans, summed
    // field by field (`Work::absorb` leaves the root's output alone).
    let mut work = Work::default();
    let mut core = CoreInputs::default();
    for (q, stmt) in sample.iter().enumerate() {
        let at = scenario.clock.now();
        let (submit, _) = rec.span(SUBMIT, None, q, || fed.submit(&stmt.sql));
        let (compile, compiled) = rec.span(COMPILE, Some(submit), q, || {
            fed.explain_global(&stmt.probe_sql)
        });
        // A statement that does not compile here (its source is inside
        // an outage window) has nothing further to probe.
        let Ok((decomposed, candidates)) = compiled else {
            continue;
        };
        let (dec, _) = rec.span(DECOMPOSE, Some(compile), q, || {
            decompose(&stmt.probe_sql, fed.nicknames())
        });
        let _ = rec.span(PARSE, Some(dec), q, || parse_select(&stmt.probe_sql));
        let Some(winner) = candidates.first() else {
            continue;
        };

        for (frag, chosen) in decomposed.fragments.iter().zip(&winner.fragments) {
            let selected = match &scenario.catalog {
                Some(catalog) => {
                    rec.span(SELECT, Some(compile), q, || {
                        catalog.select_sources(&frag.nicknames, &frag.candidate_servers)
                    })
                    .1
                }
                None => frag.candidate_servers.clone(),
            };
            // A cold compile asks every selected source for plans; a hot
            // one asks none, so the EXPLAIN chain is probed on the winner
            // only and is not a child of the compile span.
            let (servers, parent) = if workload.cold_compile() {
                (selected, Some(compile))
            } else {
                (vec![chosen.plan.server.clone()], None)
            };
            for server in &servers {
                let (Ok(wrapper), Ok(sql)) = (
                    fed.wrapper(server),
                    frag.sql_for_server(fed.nicknames(), server),
                ) else {
                    continue;
                };
                let remote = scenario.server(server.as_str());
                let (w, _) = rec.span(W_PLAN, parent, q, || wrapper.plan(&sql, at));
                let (r, _) = rec.span(R_EXPLAIN, Some(w), q, || remote.explain(&sql, at));
                let _ = rec.span(E_EXPLAIN, Some(r), q, || remote.engine().explain(&sql));
            }
        }

        for chosen in &winner.fragments {
            let plan = &chosen.plan;
            let (Ok(wrapper), Some(descriptor)) = (fed.wrapper(&plan.server), &plan.descriptor)
            else {
                continue;
            };
            let remote = scenario.server(plan.server.as_str());
            let (w, _) = rec.span(W_EXEC, Some(submit), q, || wrapper.execute(plan, at));
            let (r, _) = rec.span(R_EXEC, Some(w), q, || remote.execute(descriptor, at));
            let (_, executed) = rec.span(E_EXEC, Some(r), q, || {
                remote.engine().execute_plan_batches(descriptor)
            });
            if let Ok((_, w)) = executed {
                work.cpu_units += w.cpu_units;
                work.rows_scanned += w.rows_scanned;
                work.rows_output += w.rows_output;
                work.result_bytes += w.result_bytes;
            }
            if let Some(cost) = plan.cost {
                core.fragments
                    .push((plan.server.clone(), plan.signature.clone(), cost.total()));
            }
        }
        if core.choices.len() < 64 {
            core.choices
                .push((decomposed.template_signature.clone(), candidates));
        }
    }
    (work, core)
}

/// `num / den`, or 0 where there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean wall µs per call of `f` over `rounds` calls.
fn per_call_us(rounds: usize, mut f: impl FnMut(usize)) -> f64 {
    if rounds == 0 {
        return 0.0;
    }
    let sw = WallStopwatch::start();
    for i in 0..rounds {
        f(i);
    }
    sw.elapsed_nanos() as f64 / 1e3 / rounds as f64
}

/// Stand-alone probes of the QCC core, admission and storage layers.
fn micro_probes(world: &World, inputs: &Inputs, core: &CoreInputs, smoke: bool) -> Vec<Metric> {
    let qcc = world.qcc();
    let rounds = if smoke { 200 } else { 20_000 };
    let mut out = Vec::new();

    let frags = &core.fragments;
    out.push(Metric::new(
        "core.record_and_factor_us",
        per_call_us(if frags.is_empty() { 0 } else { rounds }, |i| {
            let (server, signature, est) = &frags[i % frags.len()];
            qcc.calibration
                .record_fragment(server, signature, *est, *est * 1.1);
            std::hint::black_box(qcc.calibration.fragment_factor(server, signature));
        }),
        "us",
    ));
    let choices = &core.choices;
    out.push(Metric::new(
        "core.lb_choose_us",
        per_call_us(if choices.is_empty() { 0 } else { rounds }, |i| {
            let (template, candidates) = &choices[i % choices.len()];
            std::hint::black_box(qcc.load_balancer.choose(template, candidates));
        }),
        "us",
    ));

    // Admission: a stand-alone controller (journalling like the real one)
    // refreshed from this world's QCC state, and fed the run's own
    // arrival sequence in rounds of one dispatch quota.
    let controller = AdmissionController::with_obs(
        world
            .admission
            .as_ref()
            .map_or_else(AdmissionConfig::default, |a| a.config().clone()),
        Obs::new(),
    );
    let server_ids: Vec<ServerId> = world
        .scenario
        .servers
        .iter()
        .map(|s| s.id().clone())
        .collect();
    let now = world.scenario.clock.now();
    out.push(Metric::new(
        "core.refresh_admission_us",
        per_call_us(rounds / 20, |_| {
            qcc.refresh_admission(&controller, &server_ids, now)
        }),
        "us",
    ));
    let (mut enqueue_us, mut dequeue_us) = (Vec::new(), Vec::new());
    if let Inputs::Open(arrivals) = inputs {
        let per_round = (controller.dispatch_quota().max(1) as f64 * 2.0) as usize;
        for round in arrivals.chunks(per_round) {
            for a in round {
                let sw = WallStopwatch::start();
                let _ = controller.enqueue(&a.sql, &a.qt.to_string(), a.class, a.at);
                enqueue_us.push(sw.elapsed_nanos() as f64 / 1e3);
            }
            let at = round.last().map_or(SimTime::ZERO, |a| a.at);
            let sw = WallStopwatch::start();
            std::hint::black_box(controller.dequeue_batch(at));
            dequeue_us.push(sw.elapsed_nanos() as f64 / 1e3);
        }
    }
    out.push(Metric::new(
        "admission.enqueue_us",
        median(&mut enqueue_us),
        "us",
    ));
    out.push(Metric::new(
        "admission.dequeue_batch_us",
        median(&mut dequeue_us),
        "us",
    ));

    // Storage: generate and index one table shaped like `big_a` at this
    // world's size (the two steps `setup_s` is mostly made of).
    let rows = world.scenario.servers[0]
        .engine()
        .catalog()
        .entry("big_a")
        .map_or(0, |e| e.table.row_count());
    let spec = TableSpec::new(
        "probe",
        rows as u64,
        vec![
            ColumnSpec::Serial { name: "id".into() },
            ColumnSpec::IntUniform {
                name: "grp".into(),
                lo: 0,
                hi: 1_000,
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
    );
    let sw = WallStopwatch::start();
    let table = spec.generate(0x5eed);
    out.push(Metric::new("storage.datagen_s", sw.elapsed_secs(), "s"));
    let mut catalog = Catalog::new();
    catalog.register(table);
    let sw = WallStopwatch::start();
    catalog
        .create_index("probe", "sel")
        .expect("probe table has a sel column");
    out.push(Metric::new("storage.index_build_s", sw.elapsed_secs(), "s"));
    out
}

/// Per-layer metrics that come from the program's own counters and
/// journal over the untraced section. They repeat exactly for a seed.
pub fn counter_metrics(world: &World, m: &Measured) -> Vec<Metric> {
    let c = &m.counters;
    let n = m.attempted as f64;
    let count = |name: &str| c.get(name) as f64;
    let obs = &world.scenario.obs;

    let u64_field = |e: &qcc_common::Event, name: &str| match e.field(name) {
        Some(FieldValue::U64(v)) => *v,
        _ => 0,
    };
    let (mut kept, mut full) = (0u64, 0u64);
    for e in obs.events_of("catalog_prune") {
        if e.at >= m.virt_start {
            kept += u64_field(&e, "kept");
            full += u64_field(&e, "full");
        }
    }
    let mut waits: Vec<f64> = obs
        .events_of("dequeue")
        .iter()
        .filter_map(|e| match e.field("waited_ms") {
            Some(FieldValue::F64(v)) => Some(*v),
            _ => None,
        })
        .collect();
    // Queries that completed after at least one ban.
    let rerouted_queries = obs
        .events_of("reroute")
        .iter()
        .filter(|e| e.at >= m.virt_start)
        .count() as f64;
    let redispatches =
        count("retries_total") + count("hedges_total") + count("fragment_reroutes_total");
    let rescued = rerouted_queries + count("hedge_wins_total") + count("fragment_resumes_total");
    let (hits, misses) = (
        count("plan_cache_hits_total"),
        count("plan_cache_misses_total"),
    );
    vec![
        Metric::new(
            "federation.fragments_per_query",
            ratio(count("fragments_total"), n),
            "count",
        ),
        Metric::new(
            "federation.explain_requests_per_query",
            ratio(count("explain_requests_total"), n),
            "count",
        ),
        Metric::new(
            "federation.plan_cache_hit_ratio",
            ratio(hits, hits + misses),
            "share",
        ),
        Metric::new(
            "federation.plan_cache_evictions",
            count("plan_cache_evictions_total"),
            "count",
        ),
        Metric::new("federation.retries", count("retries_total"), "count"),
        Metric::new("federation.hedges", count("hedges_total"), "count"),
        Metric::new(
            "federation.reroutes",
            count("fragment_reroutes_total"),
            "count",
        ),
        Metric::new(
            "federation.fragment_cancels",
            count("fragment_cancels_total"),
            "count",
        ),
        Metric::new(
            "federation.rescue_success_ratio",
            ratio(rescued, redispatches),
            "share",
        ),
        Metric::new(
            "catalog.survivor_ratio",
            ratio(kept as f64, full as f64),
            "share",
        ),
        Metric::new(
            "catalog.pruned_per_query",
            ratio(count("catalog_candidates_pruned_total"), n),
            "count",
        ),
        Metric::new(
            "core.calibration_samples",
            count("calibration_samples_total"),
            "count",
        ),
        Metric::new("core.lb_rotations", count("lb_rotations_total"), "count"),
        Metric::new("admission.sheds", count("sheds_total"), "count"),
        Metric::new("admission.token_waits", count("token_waits_total"), "count"),
        Metric::new(
            "admission.deadline_misses",
            count("deadline_misses_total"),
            "count",
        ),
        Metric::new(
            "admission.queue_wait_virt_ms_p50",
            median(&mut waits),
            "virt_ms",
        ),
        Metric::new(
            "obs.events_per_query",
            ratio(m.journal_events as f64, n),
            "count",
        ),
        Metric::new(
            "latency.virt_ms_p50",
            percentile(&mut m.virt_ms.clone(), 50.0),
            "virt_ms",
        ),
    ]
}

/// `--trace 1`: every per-layer metric.
pub fn traced_run(workload: Workload, opts: Options) -> Result<String, String> {
    // World A: the measured section again, tracing off, for the counters
    // and the per-call wall times.
    let (world, inputs, _) = crate::prepare(workload, opts, false)?;
    let keep = Keep {
        submit_us: true,
        rows: workload.cold_compile(),
    };
    let m = run_measured(workload, &world, &inputs, keep);
    check::check_measured(workload, &world, &inputs, &m)?;
    let mut metrics = counter_metrics(&world, &m);

    let obs = &world.scenario.obs;
    let sw = WallStopwatch::start();
    let journal_bytes = obs.journal_snapshot().len();
    let snapshot_ms = sw.elapsed_nanos() as f64 / 1e6;
    metrics.push(Metric::new(
        "obs.journal_bytes_per_query",
        journal_bytes as f64 / (m.attempted + world.warm_rows.len() as u64) as f64,
        "B",
    ));
    metrics.push(Metric::new("obs.journal_snapshot_ms", snapshot_ms, "ms"));

    let mut submit_us = m.submit_us.clone();
    metrics.push(Metric::new(
        "federation.submit_us_p50",
        percentile(&mut submit_us, 50.0),
        "us",
    ));
    metrics.push(Metric::new(
        "federation.submit_us_p99",
        percentile(&mut submit_us, 99.0),
        "us",
    ));
    // Rate over the last tenth of the segments ÷ rate over the first
    // (median segment times, so a burst in either tenth does not count).
    let tenth = (m.segments.len() / 10).max(1);
    let typical = |segments: &[f64]| median(&mut segments.to_vec());
    let (first, last) = (
        typical(&m.segments[..tenth.min(m.segments.len())]),
        typical(&m.segments[m.segments.len().saturating_sub(tenth)..]),
    );
    metrics.push(Metric::new(
        "process.qps_drift",
        if last > 0.0 { first / last } else { 0.0 },
        "ratio",
    ));
    // How much of the section's wall time the steady total left out.
    metrics.push(Metric::new(
        "process.disturbed_share",
        (1.0 - m.steady_s().0 / m.wall_s).max(0.0),
        "share",
    ));
    metrics.push(Metric::new(
        "process.rss_kib_per_query",
        (m.rss_kib.1 as f64 - m.rss_kib.0 as f64) / m.attempted as f64,
        "KiB",
    ));
    // The arrival stream is laid out on the virtual timeline before the
    // run starts, so the generator cannot fall behind.
    metrics.push(Metric::new("openloop.generator_lag_ms", 0.0, "virt_ms"));
    drop(world);

    // World B: the probe ladder over every k-th statement.
    let world = build_world(workload, inputs.horizon_ms());
    let step = (inputs.len() / ladder_samples(workload, opts.smoke).max(1)).max(1);
    let sample: Vec<Stmt> = match &inputs {
        Inputs::Closed(stmts) => stmts.iter().step_by(step).cloned().collect(),
        Inputs::Open(arrivals) => arrivals
            .iter()
            .step_by(step)
            .map(|a| Stmt {
                sql: a.sql.clone(),
                probe_sql: a.sql.clone(),
                class: crate::worlds::class_of(a.qt),
            })
            .collect(),
    };
    let mut rec = Recorder {
        clock: WallStopwatch::start(),
        spans: Vec::with_capacity(sample.len() * 16),
    };
    let (work, core) = run_ladder(workload, &world, &sample, &mut rec);
    let ladder_ns = rec.clock.elapsed_nanos() as f64;
    metrics.extend(ladder_metrics(&rec.spans, &work, sample.len(), ladder_ns));
    metrics.extend(micro_probes(&world, &inputs, &core, opts.smoke));
    write_trace_file(workload, &sample, &rec.spans)?;
    Ok(result_line(true, m.attempted, m.failed, &metrics))
}

/// Median span durations, mean self times, and each layer's share.
fn ladder_metrics(spans: &[Span], work: &Work, samples: usize, ladder_ns: f64) -> Vec<Metric> {
    let mut durations: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        durations
            .entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64 / 1e3);
    }
    let mut med = |name: &str| durations.get_mut(name).map_or(0.0, |v| median(v));
    // Only spans under a submit add up to it; the hot workloads' EXPLAIN
    // probes hang outside.
    let under_submit = name_totals(spans, |s| root_of(spans, s) == SUBMIT);
    let own = |name: &str| under_submit.get(name).copied().unwrap_or_default();
    let mut out = vec![
        Metric::new("sql.parse_us", med(PARSE), "us"),
        Metric::new(
            "federation.decompose_us",
            own(DECOMPOSE).self_us_per_call(),
            "us",
        ),
        Metric::new("federation.compile_us", med(COMPILE), "us"),
        Metric::new(
            "federation.compile_self_us",
            own(COMPILE).self_us_per_call(),
            "us",
        ),
        Metric::new(
            "federation.merge_dispatch_us",
            own(SUBMIT).self_us_per_call(),
            "us",
        ),
        Metric::new("catalog.select_sources_us", med(SELECT), "us"),
        Metric::new("wrapper.plan_us", med(W_PLAN), "us"),
        Metric::new("remote.explain_us", med(R_EXPLAIN), "us"),
        Metric::new("engine.explain_us", med(E_EXPLAIN), "us"),
        Metric::new("wrapper.execute_us", med(W_EXEC), "us"),
        Metric::new("remote.execute_us", med(R_EXEC), "us"),
        Metric::new("engine.execute_us", med(E_EXEC), "us"),
    ];
    // Shares of the work under `submit`, by the layer doing it. Where the
    // replays fit inside their parents the self times add up to the
    // submits exactly; `trace.self_sum_ratio` says how far off they are.
    let self_total: u64 = under_submit.values().map(NameTotals::self_ns).sum();
    let submit_ns = own(SUBMIT).total_ns;
    for (layer, share) in LAYER_SHARES {
        let ns: u64 = under_submit
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, t)| t.self_ns())
            .sum();
        out.push(Metric::new(
            share,
            ratio(ns as f64, self_total as f64),
            "share",
        ));
    }
    let n = samples.max(1) as f64;
    out.extend([
        Metric::new(
            "engine.rows_scanned_per_row_out",
            work.rows_scanned as f64 / work.rows_output.max(1) as f64,
            "count",
        ),
        Metric::new("engine.cpu_units_per_query", work.cpu_units / n, "count"),
        Metric::new(
            "wrapper.result_bytes_per_query",
            work.result_bytes as f64 / n,
            "B",
        ),
        Metric::new(
            "trace.self_sum_ratio",
            ratio(self_total as f64, submit_ns as f64),
            "ratio",
        ),
        Metric::new(
            "trace.overhead_ratio",
            ratio(ladder_ns, submit_ns as f64),
            "ratio",
        ),
    ]);
    out
}

/// Name of the outermost ancestor of `span`.
fn root_of(spans: &[Span], span: &Span) -> &'static str {
    let mut s = span;
    while let Some(p) = s.parent {
        s = &spans[p];
    }
    s.name
}

/// Write the spans and per-class medians to
/// `$CARGO_TARGET_DIR/qcc-perf/<workload>.trace.json` (`target/` when the
/// variable is unset): ignored build output, inside the checkout.
fn write_trace_file(workload: Workload, sample: &[Stmt], spans: &[Span]) -> Result<(), String> {
    let mut classes: Vec<&str> = sample.iter().map(|s| s.class).collect();
    classes.sort_unstable();
    classes.dedup();
    let mut out = format!("{{\"workload\": \"{}\", \"classes\": {{", workload.name());
    for (i, class) in classes.iter().enumerate() {
        let _ = write!(out, "{}\"{class}\": {{", if i > 0 { ", " } else { "" });
        let totals = name_totals(spans, |s| sample[s.query].class == *class);
        for (j, (name, t)) in totals.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\": {{\"calls\": {}, \"us_mean\": {}, \"self_us_mean\": {}}}",
                if j > 0 { ", " } else { "" },
                t.calls,
                t.total_ns as f64 / 1e3 / t.calls.max(1) as f64,
                t.self_us_per_call()
            );
        }
        out.push('}');
    }
    out.push_str("}, \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"query\": {}, \
             \"start_ns\": {}, \"end_ns\": {}}}{}",
            s.name,
            s.query,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    let dir = std::path::PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
    )
    .join("qcc-perf");
    let path = dir.join(format!("{}.trace.json", workload.name()));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, out))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_total_minus_direct_children() {
        let span = |name, parent, query, start_ns, end_ns| Span {
            name,
            parent,
            query,
            start_ns,
            end_ns,
        };
        let spans = [
            // Query 0: submit 100, of which compile 40 (of which parse 10)
            // and execute 50.
            span(SUBMIT, None, 0, 0, 100),
            span(COMPILE, Some(0), 0, 100, 140),
            span(PARSE, Some(1), 0, 140, 150),
            span(W_EXEC, Some(0), 0, 150, 200),
            // Query 1: the execute replay outlasts its submit.
            span(SUBMIT, None, 1, 200, 260),
            span(W_EXEC, Some(4), 1, 260, 340),
            // An EXPLAIN probe outside any submit.
            span(W_PLAN, None, 1, 340, 350),
        ];
        let all = name_totals(&spans, |_| true);
        assert_eq!(all[SUBMIT].calls, 2);
        assert_eq!(all[SUBMIT].total_ns, 160);
        assert_eq!(all[SUBMIT].children_ns, 40 + 50 + 80);
        assert_eq!(all[SUBMIT].self_ns(), 0, "floored, not negative");
        assert_eq!(
            all[COMPILE].self_ns(),
            30,
            "grandchildren are not subtracted twice"
        );
        assert_eq!(all[PARSE].self_ns(), 10);
        assert_eq!(all[W_EXEC].self_ns(), 130);
        assert_eq!(all[W_PLAN].self_ns(), 10);

        let first = name_totals(&spans, |s| s.query == 0);
        assert_eq!(first[SUBMIT].self_ns(), 10);
        assert_eq!(first[SUBMIT].self_us_per_call(), 0.01);
        assert!(!first.contains_key(W_PLAN));

        let under_submit = name_totals(&spans, |s| root_of(&spans, s) == SUBMIT);
        assert!(!under_submit.contains_key(W_PLAN));
        assert_eq!(root_of(&spans, &spans[2]), SUBMIT);
        assert_eq!(NameTotals::default().self_us_per_call(), 0.0);
    }
}
