//! Invariant oracles over a finished run's journal, metrics, and
//! end-of-run state.
//!
//! Every oracle is written to be *sound* under the injected fault
//! schedule: it only flags states the determinism substrate guarantees
//! cannot legitimately occur. Conditional oracles (ban liveness,
//! calibration direction) gate on evidence in the journal — a fault
//! window nobody probed or routed through proves nothing, and is not
//! flagged.

use crate::config::{FaultSpec, SimConfig};
use crate::driver::RunArtifacts;
use crate::world::build;
use qcc_common::obs::reroute_events as ev;
use qcc_common::{Event, FieldValue};
use std::collections::{BTreeMap, BTreeSet};

/// One oracle violation: which invariant broke and how.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Oracle name (stable identifier, used in reports and tests).
    pub oracle: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

fn u64_field(e: &Event, name: &str) -> Option<u64> {
    match e.field(name) {
        Some(FieldValue::U64(v)) => Some(*v),
        _ => None,
    }
}

fn f64_field(e: &Event, name: &str) -> Option<f64> {
    match e.field(name) {
        Some(FieldValue::F64(v)) => Some(*v),
        _ => None,
    }
}

fn bool_field(e: &Event, name: &str) -> Option<bool> {
    match e.field(name) {
        Some(FieldValue::Bool(v)) => Some(*v),
        _ => None,
    }
}

/// Run every oracle; returns all violations found (empty = run is clean).
pub fn check_all(a: &RunArtifacts, config: &SimConfig) -> Vec<Violation> {
    let mut v = Vec::new();
    conservation(a, &mut v);
    journal_conservation(a, &mut v);
    ban_liveness(a, config, &mut v);
    no_route_to_banned(a, &mut v);
    calibration_sanity(a, config, &mut v);
    bounded_retries(a, &mut v);
    goodput_dominance(a, config, &mut v);
    prune_soundness(a, config, &mut v);
    no_dup_no_loss_reroute(a, config, &mut v);
    bounded_stall(a, config, &mut v);
    hedge_soundness(a, &mut v);
    v
}

/// Every offered query ends exactly once: completed, shed, or failed.
fn conservation(a: &RunArtifacts, out: &mut Vec<Violation>) {
    let accounted = a.completed + a.shed + a.failed;
    if accounted != a.total {
        out.push(Violation {
            oracle: "conservation",
            detail: format!(
                "{} arrivals but {} accounted (completed {} + shed {} + failed {})",
                a.total, accounted, a.completed, a.shed, a.failed
            ),
        });
    }
}

/// Journal-level conservation: every `enqueue` seq is terminated by
/// exactly one `dequeue` or `shed`; `shed` seqs without an `enqueue` are
/// legal only for `queue_full` (refused at the door, never queued).
fn journal_conservation(a: &RunArtifacts, out: &mut Vec<Violation>) {
    let mut enqueued: BTreeMap<u64, u32> = BTreeMap::new();
    let mut terminated: BTreeMap<u64, u32> = BTreeMap::new();
    for e in &a.journal {
        match e.kind {
            "enqueue" => {
                if let Some(seq) = u64_field(e, "seq") {
                    *enqueued.entry(seq).or_insert(0) += 1;
                }
            }
            "dequeue" => {
                if let Some(seq) = u64_field(e, "seq") {
                    *terminated.entry(seq).or_insert(0) += 1;
                }
            }
            "shed" => {
                if let Some(seq) = u64_field(e, "seq") {
                    if e.str_field("reason") == Some("queue_full") {
                        // Refused before queueing: must NOT have an
                        // enqueue event, checked below.
                        terminated.entry(seq).or_insert(0);
                    } else {
                        *terminated.entry(seq).or_insert(0) += 1;
                    }
                }
            }
            _ => {}
        }
    }
    for (seq, n) in &enqueued {
        if *n != 1 {
            out.push(Violation {
                oracle: "journal_conservation",
                detail: format!("seq {seq} enqueued {n} times"),
            });
        }
        match terminated.get(seq) {
            Some(1) => {}
            Some(t) => out.push(Violation {
                oracle: "journal_conservation",
                detail: format!("seq {seq} terminated {t} times"),
            }),
            None => out.push(Violation {
                oracle: "journal_conservation",
                detail: format!("seq {seq} enqueued but never dequeued or shed"),
            }),
        }
    }
}

/// Per-server believed-down timeline reconstructed from the journal:
/// `server_down` opens an interval, the next `server_restored` closes it.
fn down_intervals(a: &RunArtifacts, server: &str) -> Vec<(f64, f64)> {
    let mut intervals = Vec::new();
    let mut open: Option<f64> = None;
    for e in &a.journal {
        if e.str_field("server") != Some(server) {
            continue;
        }
        match e.kind {
            "server_down" => {
                if open.is_none() {
                    open = Some(e.at.as_millis());
                }
            }
            "server_restored" => {
                if let Some(from) = open.take() {
                    intervals.push((from, e.at.as_millis()));
                }
            }
            _ => {}
        }
    }
    if let Some(from) = open {
        intervals.push((from, f64::INFINITY));
    }
    intervals
}

/// Ban liveness: crashed servers are banned when evidence arrives and
/// restored once the outage ends.
///
/// * Nothing is believed down at end of run (the cool-down probes past
///   every fault window).
/// * Down/recovered transition counters balance per server.
/// * Every `server_down` event lies inside a crash window of that server
///   — nothing else in the fault model makes a server unreachable, so a
///   down event elsewhere is a false ban.
/// * A failed probe inside a crash window implies the server is believed
///   down by that instant (the probe verdict itself must flip the state).
fn ban_liveness(a: &RunArtifacts, config: &SimConfig, out: &mut Vec<Violation>) {
    for id in &a.down_at_end {
        out.push(Violation {
            oracle: "ban_liveness",
            detail: format!("{id} still believed down after recovery cool-down"),
        });
    }
    for id in &a.server_ids {
        let down = a
            .obs
            .counter_value("server_down_total", &[("server", id.as_str())]);
        let recovered = a
            .obs
            .counter_value("server_recovered_total", &[("server", id.as_str())]);
        if down != recovered {
            out.push(Violation {
                oracle: "ban_liveness",
                detail: format!("{id}: {down} down transitions but {recovered} recoveries"),
            });
        }
    }
    // Crash windows per server index.
    let crash_windows = |server: usize| -> Vec<(f64, f64)> {
        config
            .faults
            .iter()
            .filter_map(|f| match f {
                FaultSpec::Crash {
                    server: s,
                    from_ms,
                    until_ms,
                } if *s == server => Some((*from_ms, *until_ms)),
                _ => None,
            })
            .collect()
    };
    for (idx, id) in a.server_ids.iter().enumerate() {
        let windows = crash_windows(idx);
        for e in &a.journal {
            if e.kind == "server_down" && e.str_field("server") == Some(id.as_str()) {
                let t = e.at.as_millis();
                if !windows.iter().any(|(from, until)| *from <= t && t < *until) {
                    out.push(Violation {
                        oracle: "ban_liveness",
                        detail: format!(
                            "false ban: {id} marked down at {t:.3}ms outside any crash window"
                        ),
                    });
                }
            }
        }
        let intervals = down_intervals(a, id.as_str());
        let believed_down_at = |t: f64| intervals.iter().any(|(from, to)| *from <= t && t < *to);
        for e in &a.journal {
            if e.kind == "probe"
                && e.str_field("server") == Some(id.as_str())
                && bool_field(e, "ok") == Some(false)
            {
                let t = e.at.as_millis();
                if windows.iter().any(|(from, until)| *from <= t && t < *until)
                    && !believed_down_at(t)
                {
                    out.push(Violation {
                        oracle: "ban_liveness",
                        detail: format!(
                            "{id}: probe failed at {t:.3}ms inside a crash window but the server was not banned"
                        ),
                    });
                }
            }
        }
    }
}

/// No fragment is dispatched to a server while it is believed down. A
/// successful `fragment` event is stamped at its batch start; any batch
/// starting strictly after a `server_down` and before the matching
/// `server_restored` compiles against the frozen down state, so a
/// fragment on that server in that open interval is a routing leak.
fn no_route_to_banned(a: &RunArtifacts, out: &mut Vec<Violation>) {
    for id in &a.server_ids {
        let intervals = down_intervals(a, id.as_str());
        if intervals.is_empty() {
            continue;
        }
        for e in &a.journal {
            if e.kind == "fragment" && e.str_field("server") == Some(id.as_str()) {
                let t = e.at.as_millis();
                if intervals.iter().any(|(from, to)| *from < t && t < *to) {
                    out.push(Violation {
                        oracle: "no_route_to_banned",
                        detail: format!(
                            "fragment executed on {id} at {t:.3}ms while it was believed down"
                        ),
                    });
                }
            }
        }
    }
}

/// Calibration sanity: every factor finite, positive, and inside the
/// clamp bounds; and when a heavy surge window contains probe seeds, at
/// least one of those seeds points in the injected direction (slower).
fn calibration_sanity(a: &RunArtifacts, config: &SimConfig, out: &mut Vec<Violation>) {
    for (id, f) in &a.factors {
        if !f.is_finite() || *f <= 0.0 || *f > qcc_core::calibration::MAX_FACTOR {
            out.push(Violation {
                oracle: "calibration_sanity",
                detail: format!("{id}: calibration factor {f} out of bounds"),
            });
        }
    }
    for fault in &config.faults {
        let FaultSpec::Surge {
            server,
            from_ms,
            until_ms,
            level,
        } = fault
        else {
            continue;
        };
        if *level < 0.7 {
            continue;
        }
        let Some(id) = a.server_ids.get(*server) else {
            continue;
        };
        let seeds: Vec<f64> = a
            .journal
            .iter()
            .filter(|e| {
                e.kind == "calibration_seed"
                    && e.str_field("server") == Some(id.as_str())
                    && e.at.as_millis() > *from_ms
                    && e.at.as_millis() < *until_ms
            })
            .filter_map(|e| f64_field(e, "factor"))
            .collect();
        if !seeds.is_empty() {
            let max = seeds.iter().copied().fold(0.0, f64::max);
            if max < 1.05 {
                out.push(Violation {
                    oracle: "calibration_sanity",
                    detail: format!(
                        "{id}: surge level {level} from {from_ms:.1}–{until_ms:.1}ms, but max \
                         in-window probe seed {max:.3} never moved toward the injected load"
                    ),
                });
            }
        }
    }
}

/// Goodput dominance under load surges: the whole point of admission
/// control is that protecting the system must not cost useful work.
/// Whenever the fault schedule injects a surge (the scenario class the
/// policy exists for), the admitted run must complete at least as many
/// queries within the deadline budget as the paired unprotected baseline
/// (same world, same arrivals, fixed-width FIFO pool), and its p99
/// arrival→completion response must not exceed the worse of the baseline's
/// p99 and the budget itself — i.e. admission may never *create* a tail
/// the unprotected system didn't have. Gated on surge evidence: a faultless
/// or crash-only run proves nothing about shedding policy and is not
/// flagged.
fn goodput_dominance(a: &RunArtifacts, config: &SimConfig, out: &mut Vec<Violation>) {
    let surged = config
        .faults
        .iter()
        .any(|f| matches!(f, FaultSpec::Surge { .. }));
    if !surged {
        return;
    }
    if a.admitted_goodput < a.baseline_goodput {
        out.push(Violation {
            oracle: "goodput_dominance",
            detail: format!(
                "admission-on goodput {} < admission-off {} (budget {:.1}ms)",
                a.admitted_goodput, a.baseline_goodput, a.deadline_budget_ms
            ),
        });
    }
    let p99_cap = a.baseline_p99_ms.max(a.deadline_budget_ms);
    if a.admitted_p99_ms > p99_cap {
        out.push(Violation {
            oracle: "goodput_dominance",
            detail: format!(
                "admission-on p99 {:.3}ms exceeds max(baseline p99 {:.3}ms, budget {:.1}ms)",
                a.admitted_p99_ms, a.baseline_p99_ms, a.deadline_budget_ms
            ),
        });
    }
}

/// Replica-catalog pruning soundness (fleet mode only). Three layers:
///
/// * every journaled `catalog_prune` kept a nonempty strict subset of
///   the full candidate set;
/// * the `catalog_candidates_pruned_total` counter reconciles exactly
///   with the journal's per-compile `full - kept` sums;
/// * the core property — source selection never changes the *winner*: a
///   fresh fault-free build of the same world compiles each distinct
///   workload query to the same best plan (signature and cost) with the
///   catalog attached and with pruning disabled. Compile-time behaviour
///   does not depend on the fault schedule, so clearing it keeps every
///   server answerable at t = 0 without weakening the check.
fn prune_soundness(a: &RunArtifacts, config: &SimConfig, out: &mut Vec<Violation>) {
    if config.fleet == 0 || config.replication == 0 {
        return;
    }
    let mut pruned_sum = 0u64;
    for e in &a.journal {
        if e.kind != "catalog_prune" {
            continue;
        }
        match (u64_field(e, "full"), u64_field(e, "kept")) {
            (Some(full), Some(kept)) => {
                if kept == 0 || kept >= full {
                    out.push(Violation {
                        oracle: "prune_soundness",
                        detail: format!("prune event kept {kept} of {full} candidates"),
                    });
                }
                pruned_sum += full.saturating_sub(kept);
            }
            _ => out.push(Violation {
                oracle: "prune_soundness",
                detail: "catalog_prune event missing full/kept fields".to_string(),
            }),
        }
    }
    let counter = a.obs.counter_value("catalog_candidates_pruned_total", &[]);
    if counter != pruned_sum {
        out.push(Violation {
            oracle: "prune_soundness",
            detail: format!(
                "catalog_candidates_pruned_total {counter} != journaled prune sum {pruned_sum}"
            ),
        });
    }
    let mut healthy = config.clone();
    healthy.faults.clear();
    let mut unpruned = healthy.clone();
    unpruned.replication = 0;
    let pruned_world = build(&healthy, 1);
    let full_world = build(&unpruned, 1);
    let mut seen = BTreeSet::new();
    for arrival in &pruned_world.arrivals {
        if !seen.insert(arrival.sql.clone()) {
            continue;
        }
        if seen.len() > 4 {
            break;
        }
        let p = pruned_world
            .scenario
            .federation
            .explain_global(&arrival.sql);
        let f = full_world.scenario.federation.explain_global(&arrival.sql);
        match (p, f) {
            (Ok((_, pc)), Ok((_, fc))) if !pc.is_empty() && !fc.is_empty() => {
                if pc[0].signature() != fc[0].signature()
                    || (pc[0].total_cost() - fc[0].total_cost()).abs() > 1e-9
                {
                    out.push(Violation {
                        oracle: "prune_soundness",
                        detail: format!(
                            "winner diverged under pruning for '{}': {} (cost {:.6}) vs {} (cost {:.6})",
                            arrival.sql,
                            pc[0].signature(),
                            pc[0].total_cost(),
                            fc[0].signature(),
                            fc[0].total_cost()
                        ),
                    });
                }
            }
            _ => out.push(Violation {
                oracle: "prune_soundness",
                detail: format!("explain failed for '{}'", arrival.sql),
            }),
        }
    }
}

/// Parse a `fragment_stream` provenance string (`"S1:0..3+S2:3..7"`)
/// into `(server, from, to)` segments; `None` on any malformed segment.
fn parse_stream_sources(s: &str) -> Option<Vec<(String, usize, usize)>> {
    let mut out = Vec::new();
    for seg in s.split('+') {
        let (server, range) = seg.rsplit_once(':')?;
        let (from, to) = range.split_once("..")?;
        let (from, to) = (from.parse().ok()?, to.parse().ok()?);
        if server.is_empty() || from >= to {
            return None;
        }
        out.push((server.to_string(), from, to));
    }
    Some(out)
}

/// Mid-query reroute row accounting (DESIGN.md §15). Every journaled
/// `fragment_stream` provenance must tile `[0, total_chunks)` exactly
/// once: contiguous segments, starting at 0, ending at the total, no
/// overlap and no gap — i.e. no chunk is delivered twice (duplicate rows)
/// or never (lost rows) across the stitched sources. Interrupt rescue is
/// always on, so this is checked on every run; with `reroute` absent the
/// slow-cancel multiplier is 0, and only a `reason = slow` stall or
/// dispatch is a violation.
fn no_dup_no_loss_reroute(a: &RunArtifacts, config: &SimConfig, out: &mut Vec<Violation>) {
    if config.reroute <= 0.0 {
        for e in &a.journal {
            if matches!(e.kind, "fragment_stall" | "reroute_dispatch")
                && e.str_field("reason") == Some("slow")
            {
                out.push(Violation {
                    oracle: "no_dup_no_loss_reroute",
                    detail: format!(
                        "slow-cancel disabled but a slow {} appears at {:.3}ms",
                        e.kind,
                        e.at.as_millis()
                    ),
                });
            }
        }
    }
    for e in &a.journal {
        if e.kind != "fragment_stream" {
            continue;
        }
        let (Some(sources), Some(total)) = (
            e.str_field("sources").and_then(parse_stream_sources),
            u64_field(e, "total_chunks"),
        ) else {
            out.push(Violation {
                oracle: "no_dup_no_loss_reroute",
                detail: format!(
                    "fragment_stream at {:.3}ms has a malformed sources/total_chunks payload",
                    e.at.as_millis()
                ),
            });
            continue;
        };
        let tiles = sources
            .first()
            .map(|(_, from, _)| *from == 0)
            .unwrap_or(false)
            && sources.windows(2).all(|w| w[0].2 == w[1].1)
            && sources.last().map(|(_, _, to)| *to == total as usize) == Some(true);
        if !tiles {
            out.push(Violation {
                oracle: "no_dup_no_loss_reroute",
                detail: format!(
                    "stream sources '{}' do not cover [0, {total}) exactly once",
                    e.str_field("sources").unwrap_or_default()
                ),
            });
        }
    }
}

/// Stall detection is bounded (DESIGN.md §15): a slot re-dispatch happens
/// *when the detector says it should*, never arbitrarily late.
///
/// * reason `slow`: the dispatch instant is at most `stall_factor ×`
///   the fragment's calibrated estimate past the fragment start (the
///   cancel fires exactly at the threshold).
/// * reason `interrupt`: the dispatch trails the recorded fault
///   transition by at most one probe interval, and that transition lies
///   inside an injected crash window (nothing else cuts a stream).
/// * reason `arrival`: a refusal is synchronous, so the dispatch leaves at
///   the instant the refusing `from` server was sent the slot — the
///   fragment start, or the slot's previous re-dispatch — and `from` has a
///   crash or flaky window covering that instant (nothing else refuses a
///   request).
fn bounded_stall(a: &RunArtifacts, config: &SimConfig, out: &mut Vec<Violation>) {
    const EPS: f64 = 1e-6;
    let probe_ms = qcc_federation::REROUTE_PROBE_MS;
    // Does fault `f` take its server down (or, with `flaky`, make it
    // refuse requests) at `t`?
    let covers = |f: &FaultSpec, flaky: bool, t: f64| match *f {
        FaultSpec::Crash {
            from_ms, until_ms, ..
        } => from_ms <= t && t < until_ms,
        FaultSpec::Flaky {
            from_ms, until_ms, ..
        } => flaky && from_ms <= t && t < until_ms,
        _ => false,
    };
    let mut flag = |detail: String| {
        out.push(Violation {
            oracle: "bounded_stall",
            detail,
        })
    };
    // The instant each (query, fragment) slot was last re-dispatched.
    let mut sent: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    for e in a.journal.iter().filter(|e| e.kind == ev::REROUTE_DISPATCH) {
        let at = e.at.as_millis();
        let start = f64_field(e, "frag_start_ms");
        let slot = u64_field(e, "query").zip(u64_field(e, "fragment"));
        match e.str_field("reason") {
            Some("slow") => match (start, f64_field(e, "threshold_ms")) {
                (Some(start), Some(threshold)) => {
                    if at - start > threshold + EPS {
                        flag(format!(
                            "slow reroute dispatched {:.3}ms after fragment start, past the \
                             {threshold:.3}ms stall threshold",
                            at - start
                        ));
                    }
                }
                _ => flag(format!(
                    "slow reroute_dispatch at {at:.3}ms lacks frag_start_ms/threshold_ms"
                )),
            },
            Some("interrupt") => match f64_field(e, "fault_ms") {
                Some(fault) => {
                    if !(-EPS..=probe_ms + EPS).contains(&(at - fault)) {
                        flag(format!(
                            "interrupt reroute dispatched {:.3}ms after the fault transition \
                             (probe interval {probe_ms:.3}ms)",
                            at - fault
                        ));
                    }
                    if !config.faults.iter().any(|f| covers(f, false, fault)) {
                        flag(format!(
                            "stream cut at {fault:.3}ms outside any injected crash window"
                        ));
                    }
                }
                None => flag(format!(
                    "interrupt reroute_dispatch at {at:.3}ms lacks fault_ms"
                )),
            },
            Some("arrival") => match (slot, e.str_field("from"), start) {
                (Some((query, fragment)), Some(from), Some(start)) => {
                    let sent_at = sent.get(&(query, fragment)).copied().unwrap_or(start);
                    if (at - sent_at).abs() > EPS {
                        flag(format!(
                            "query {query} fragment {fragment}: arrival reroute dispatched at \
                             {at:.3}ms, not when {from} was sent the slot ({sent_at:.3}ms)"
                        ));
                    }
                    let server = a.server_ids.iter().position(|id| id.as_str() == from);
                    let refusing = |i| {
                        config
                            .faults
                            .iter()
                            .any(|f| f.server() == i && covers(f, true, at))
                    };
                    if !server.is_some_and(refusing) {
                        flag(format!(
                            "{from} refused a fragment at {at:.3}ms outside any injected crash \
                             or flaky window"
                        ));
                    }
                }
                _ => flag(format!(
                    "arrival reroute_dispatch at {at:.3}ms lacks query/fragment/from/frag_start_ms"
                )),
            },
            other => flag(format!(
                "reroute_dispatch at {at:.3}ms has unknown reason {other:?}"
            )),
        }
        if let Some(slot) = slot {
            sent.insert(slot, at);
        }
    }
}

/// Hedged slots are sound (DESIGN.md §10 "Hedged re-dispatch"). Every
/// `hedge` duplicates its slot onto a server other than the primary, at
/// most once per (query, fragment), and onto a server not believed down
/// at that instant (the ban timeline [`no_route_to_banned`] reads). Every
/// `hedge_result` belongs to a hedged slot and suppresses that slot's
/// primary or hedge, never its own winner. The winner may be a third
/// server: when neither stream finished inside the stall threshold, the
/// slot was re-dispatched.
fn hedge_soundness(a: &RunArtifacts, out: &mut Vec<Violation>) {
    let mut flag = |detail: String| {
        out.push(Violation {
            oracle: "hedge_soundness",
            detail,
        })
    };
    let mut hedged: BTreeMap<(u64, u64), (&str, &str)> = BTreeMap::new();
    for e in a.journal.iter().filter(|e| e.kind == "hedge") {
        let at = e.at.as_millis();
        let slot = u64_field(e, "query").zip(u64_field(e, "fragment"));
        let (Some((query, fragment)), Some(primary), Some(hedge)) =
            (slot, e.str_field("primary"), e.str_field("hedge"))
        else {
            flag(format!(
                "hedge at {at:.3}ms lacks query/fragment/primary/hedge"
            ));
            continue;
        };
        if hedge == primary {
            flag(format!(
                "query {query} fragment {fragment}: hedged onto its own primary {primary}"
            ));
        }
        if hedged.insert((query, fragment), (primary, hedge)).is_some() {
            flag(format!("query {query} fragment {fragment} hedged twice"));
        }
        let banned = down_intervals(a, hedge)
            .iter()
            .any(|(from, to)| *from < at && at < *to);
        if banned {
            flag(format!(
                "query {query} fragment {fragment}: hedged onto {hedge} at {at:.3}ms while \
                 it was believed down"
            ));
        }
    }
    for e in a.journal.iter().filter(|e| e.kind == "hedge_result") {
        let at = e.at.as_millis();
        let slot = u64_field(e, "query").zip(u64_field(e, "fragment"));
        let (Some((query, fragment)), Some(winner), Some(suppressed)) =
            (slot, e.str_field("winner"), e.str_field("suppressed"))
        else {
            flag(format!(
                "hedge_result at {at:.3}ms lacks query/fragment/winner/suppressed"
            ));
            continue;
        };
        let Some((primary, hedge)) = hedged.get(&(query, fragment)) else {
            flag(format!(
                "query {query} fragment {fragment}: hedge_result without a hedge"
            ));
            continue;
        };
        if ![*primary, *hedge].contains(&suppressed) || winner == suppressed {
            flag(format!(
                "query {query} fragment {fragment}: {winner} won and {suppressed} was \
                 suppressed, but the slot raced {primary} against {hedge}"
            ));
        }
    }
}

/// Re-dispatch budgets are bounded (DESIGN.md §15): no query re-dispatches
/// one fragment slot more than `retry_limit` times.
fn bounded_retries(a: &RunArtifacts, out: &mut Vec<Violation>) {
    let mut per_slot: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for e in a.journal.iter().filter(|e| e.kind == ev::REROUTE_DISPATCH) {
        let slot = u64_field(e, "query").zip(u64_field(e, "fragment"));
        *per_slot.entry(slot.unwrap_or_default()).or_insert(0) += 1;
    }
    for ((query, fragment), n) in per_slot {
        if n > a.retry_limit {
            out.push(Violation {
                oracle: "bounded_retries",
                detail: format!(
                    "query {query} fragment {fragment} re-dispatched {n} times, past retry \
                     limit {}",
                    a.retry_limit
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::parse;
    use crate::driver::{run, BugSwitches};

    fn tiny(faults: &str) -> SimConfig {
        parse(&format!(
            "sim(seed: 5, servers: [(1.0, 0.2), (1.8, 0.1)], large_rows: 120, small_rows: 24, \
             arrivals: 12, rate_per_ms: 0.1, retry_limit: 2, faults: [{faults}])"
        ))
        .expect("valid test config")
    }

    #[test]
    fn healthy_run_passes_all_oracles() {
        let config = tiny("");
        let a = run(&config, 1, &BugSwitches::none());
        let v = check_all(&a, &config);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn crash_run_passes_all_oracles() {
        let config = tiny("crash(0, 20.0, 150.0)");
        let a = run(&config, 1, &BugSwitches::none());
        let v = check_all(&a, &config);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn fleet_run_passes_all_oracles_including_prune_soundness() {
        let config = parse(
            "sim(seed: 5, servers: [], large_rows: 60, small_rows: 12, arrivals: 8, \
             rate_per_ms: 0.1, retry_limit: 2, fleet: 20, replication: 3, faults: [])",
        )
        .expect("valid fleet config");
        let a = run(&config, 1, &BugSwitches::none());
        let v = check_all(&a, &config);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
        // The fleet actually exercised pruning: with 20 replicas per
        // fragment and a bound of 3, every compile must have cut the
        // candidate set.
        assert!(
            a.obs.counter_value("catalog_candidates_pruned_total", &[]) > 0,
            "fleet run never pruned"
        );
    }

    #[test]
    fn reroute_run_passes_all_oracles() {
        // Mid-query adaptivity on, with a crash window inside the arrival
        // span: streams may be cut and rerouted; the run must stay clean
        // under every oracle including the two reroute-specific ones.
        let config = parse(
            "sim(seed: 5, servers: [(1.0, 0.2), (1.8, 0.1)], large_rows: 120, small_rows: 24, \
             arrivals: 12, rate_per_ms: 0.1, retry_limit: 2, reroute: 3.0, \
             faults: [crash(0, 20.0, 150.0)])",
        )
        .expect("valid test config");
        let a = run(&config, 1, &BugSwitches::none());
        let v = check_all(&a, &config);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn stream_sources_must_tile_exactly() {
        let ok = parse_stream_sources("S1:0..3+S2:3..7").unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok[1], ("S2".to_string(), 3, 7));
        // Single-source and gap/overlap/degenerate shapes.
        assert!(parse_stream_sources("S2:0..7").is_some());
        assert!(parse_stream_sources("S1:3..3").is_none(), "empty range");
        assert!(parse_stream_sources("S1:0..x").is_none(), "bad number");
        assert!(parse_stream_sources(":0..3").is_none(), "missing server");
        // Tiling itself is judged by the oracle; verify the window checks
        // it relies on behave on a gap.
        let gap = parse_stream_sources("S1:0..3+S2:4..7").unwrap();
        assert!(!gap.windows(2).all(|w| w[0].2 == w[1].1));
    }

    #[test]
    fn absent_reroute_flags_only_slow_cancels() {
        // With `reroute` absent a crash may still cut a stream (interrupt
        // rescue is always on), but nothing is ever cancelled for
        // slowness...
        let config = tiny("crash(0, 20.0, 150.0)");
        let mut a = run(&config, 1, &BugSwitches::none());
        assert!(!a
            .journal
            .iter()
            .any(|e| e.str_field("reason") == Some("slow")));
        let mut v = Vec::new();
        no_dup_no_loss_reroute(&a, &config, &mut v);
        assert!(v.is_empty(), "{v:?}");
        // ...so a slow stall in such a run is a violation.
        a.journal.push(qcc_common::Event {
            at: qcc_common::SimTime::from_millis(30.0),
            kind: "fragment_stall",
            fields: vec![("reason", "slow".into())],
        });
        no_dup_no_loss_reroute(&a, &config, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    /// A doctored `arrival` re-dispatch of query 1's fragment 0, which
    /// started at `start`.
    fn refusal(at: f64, start: f64, from: &str, to: &str) -> Event {
        Event {
            at: qcc_common::SimTime::from_millis(at),
            kind: ev::REROUTE_DISPATCH,
            fields: vec![
                ("query", 1u64.into()),
                ("fragment", 0u64.into()),
                ("from", from.into()),
                ("to", to.into()),
                ("cursor", 0u64.into()),
                ("reason", "arrival".into()),
                ("frag_start_ms", start.into()),
            ],
        }
    }

    #[test]
    fn bounded_retries_flags_a_slot_redispatched_past_the_limit() {
        let config = tiny("crash(0, 20.0, 150.0)");
        let mut a = run(&config, 1, &BugSwitches::none());
        a.journal.retain(|e| e.kind != ev::REROUTE_DISPATCH);
        for _ in 0..a.retry_limit {
            a.journal.push(refusal(30.0, 30.0, "S1", "S2"));
        }
        let mut v = Vec::new();
        bounded_retries(&a, &mut v);
        assert!(v.is_empty(), "{v:?}");
        a.journal.push(refusal(30.0, 30.0, "S1", "S2"));
        bounded_retries(&a, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("query 1 fragment 0"), "{v:?}");
    }

    #[test]
    fn bounded_stall_flags_an_arrival_redispatch_without_a_refusal() {
        // S1 is down and S2 flaky over [20, 150).
        let config = tiny("crash(0, 20.0, 150.0), flaky(1, 20.0, 150.0, 0.5)");
        let mut a = run(&config, 1, &BugSwitches::none());
        a.journal.retain(|e| e.kind != ev::REROUTE_DISPATCH);
        let check = |a: &RunArtifacts| {
            let mut v = Vec::new();
            bounded_stall(a, &config, &mut v);
            v
        };
        // S1 refuses at the fragment start and S2 refuses the re-dispatch
        // at the same instant: sound.
        a.journal.push(refusal(30.0, 30.0, "S1", "S2"));
        a.journal.push(refusal(30.0, 30.0, "S2", "S1"));
        let v = check(&a);
        assert!(v.is_empty(), "{v:?}");
        a.journal.clear();
        // After both windows closed, nothing refuses.
        a.journal.push(refusal(160.0, 160.0, "S1", "S2"));
        let v = check(&a);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0]
            .detail
            .contains("outside any injected crash or flaky window"));
        a.journal.clear();
        // Inside S1's window, but later than S1 was ever sent the slot.
        a.journal.push(refusal(31.0, 30.0, "S1", "S2"));
        let v = check(&a);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("not when S1 was sent the slot"));
    }

    /// A doctored event of `kind` at 30 ms, for query 1's fragment 0.
    fn slot_event(kind: &'static str, servers: [(&'static str, &str); 2]) -> Event {
        let mut fields = vec![("query", 1u64.into()), ("fragment", 0u64.into())];
        fields.extend(servers.map(|(name, server)| (name, server.into())));
        Event {
            at: qcc_common::SimTime::from_millis(30.0),
            kind,
            fields,
        }
    }

    fn hedge(primary: &str, hedge: &str) -> Event {
        slot_event("hedge", [("primary", primary), ("hedge", hedge)])
    }

    fn hedge_result(winner: &str, suppressed: &str) -> Event {
        slot_event(
            "hedge_result",
            [("winner", winner), ("suppressed", suppressed)],
        )
    }

    #[test]
    fn hedged_run_passes_and_doctored_hedges_fail_hedge_soundness() {
        let config = parse(
            "sim(seed: 5, servers: [(1.0, 0.2), (1.1, 0.1)], large_rows: 400, small_rows: 24, \
             arrivals: 12, rate_per_ms: 0.1, retry_limit: 2, exec_deadline_ms: 4.0, faults: [])",
        )
        .expect("valid test config");
        let mut a = run(&config, 1, &BugSwitches::none());
        let v = check_all(&a, &config);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
        assert!(
            a.journal.iter().any(|e| e.kind == "hedge"),
            "the tight deadline must hedge"
        );
        let mut check = |journal: Vec<Event>| {
            a.journal = journal;
            let mut v = Vec::new();
            hedge_soundness(&a, &mut v);
            v.iter().map(|v| v.detail.clone()).collect::<Vec<_>>()
        };
        // A race the primary won, and one neither stream won in time.
        assert!(check(vec![hedge("S1", "S2"), hedge_result("S1", "S2")]).is_empty());
        assert!(check(vec![hedge("S1", "S2"), hedge_result("S3", "S1")]).is_empty());
        let mut flagged = |journal, needle: &str| {
            let v = check(journal);
            assert!(v.len() == 1 && v[0].contains(needle), "{needle}: {v:?}");
        };
        flagged(vec![hedge("S1", "S1")], "hedged onto its own primary");
        flagged(vec![hedge("S1", "S2"), hedge("S1", "S2")], "hedged twice");
        let down = Event {
            at: qcc_common::SimTime::from_millis(10.0),
            kind: "server_down",
            fields: vec![("server", "S2".into())],
        };
        flagged(vec![down, hedge("S1", "S2")], "while it was believed down");
        flagged(
            vec![hedge_result("S1", "S2")],
            "hedge_result without a hedge",
        );
        flagged(
            vec![hedge("S1", "S2"), hedge_result("S2", "S2")],
            "but the slot raced S1 against S2",
        );
        flagged(
            vec![hedge("S1", "S2"), hedge_result("S1", "S3")],
            "but the slot raced S1 against S2",
        );
    }

    #[test]
    fn conservation_oracle_catches_injected_drop() {
        let config = tiny("");
        let a = run(
            &config,
            1,
            &BugSwitches {
                drop_completion: true,
            },
        );
        let v = check_all(&a, &config);
        assert!(
            v.iter().any(|x| x.oracle == "conservation"),
            "expected a conservation violation, got: {v:?}"
        );
    }
}
