//! Open-loop saturation driver.
//!
//! The phase experiments (§5) are *closed-loop*: each batch waits for the
//! previous one, so offered load can never exceed service capacity. This
//! module generates an **open-loop** arrival process — Poisson
//! interarrivals drawn from the deterministic `Pcg32`, laid out on the
//! virtual timeline up front — and drives it through the federation so the
//! system can be pushed *past* saturation. With an
//! [`AdmissionController`] attached the backlog turns into bounded
//! queueing plus shedding; without one every due arrival dispatches
//! immediately and each server's inflight count (held via RAII
//! [`qcc_netsim::load::InflightGuard`]s for the duration of the round) drives
//! utilization — and therefore response times — up round over round.
//!
//! There is one loop ([`run_open_loop`]; [`run_open_loop_with_daemon`]
//! is the same loop with the availability daemon's probe timer in it).
//! Everything in it runs on the coordinator thread between `submit_batch`
//! calls: due probes, arrival admission, capacity refresh, dequeue and
//! guard placement are all pure functions of the precomputed arrival
//! sequence and the frozen adaptive state, so a run is byte-identical for
//! any `QCC_THREADS` (see `tests/admission_determinism.rs`).

use crate::querytypes::{QueryType, ALL_QUERY_TYPES};
use crate::scenario::Scenario;
use qcc_admission::{AdmissionController, PriorityClass, QueueTicket};
use qcc_common::{Pcg32, QccError, SimTime};
use qcc_core::AvailabilityDaemon;
use std::collections::{BTreeMap, VecDeque};

/// One scheduled arrival of the open-loop process.
#[derive(Debug, Clone)]
pub struct ArrivalEvent {
    /// Scheduled arrival time on the virtual timeline.
    pub at: SimTime,
    /// The query type this arrival instantiates.
    pub qt: QueryType,
    /// Concrete SQL text.
    pub sql: String,
    /// Priority class (QT4 is latency-critical, QT1 best-effort).
    pub class: PriorityClass,
}

/// Priority assignment for the paper's query mix: the very selective
/// point-ish QT4 rides `High`, the heavy scan-and-aggregate QT1 rides
/// `Low`, the rest are `Normal`.
pub fn class_of(qt: QueryType) -> PriorityClass {
    match qt {
        QueryType::QT4 => PriorityClass::High,
        QueryType::QT1 => PriorityClass::Low,
        _ => PriorityClass::Normal,
    }
}

/// Generate `count` Poisson arrivals at `rate_per_ms` (exponential
/// interarrival times via inverse transform on `Pcg32`), cycling query
/// types uniformly at random with randomized instances. The whole
/// sequence is materialized up front, so the offered load is independent
/// of how fast the system drains it — the defining open-loop property.
pub fn poisson_arrivals(rate_per_ms: f64, count: usize, seed: u64) -> Vec<ArrivalEvent> {
    let mut rng = Pcg32::seed_from(seed);
    let mut t = 0.0f64;
    let mut arrivals = Vec::with_capacity(count);
    for _ in 0..count {
        // u ∈ [0,1) so 1-u ∈ (0,1]: ln is finite, dt ≥ 0.
        let u = rng.next_f64();
        t += -(1.0 - u).ln() / rate_per_ms;
        let qt = ALL_QUERY_TYPES[rng.range_u64(0, ALL_QUERY_TYPES.len() as u64) as usize];
        let instance = rng.range_u64(0, 10) as u32;
        arrivals.push(ArrivalEvent {
            at: SimTime::from_millis(t),
            qt,
            sql: qt.sql(instance),
            class: class_of(qt),
        });
    }
    arrivals
}

/// One query that made it all the way through.
#[derive(Debug, Clone)]
pub struct CompletedQuery {
    /// Query-type name ("QT1"…).
    pub template: String,
    /// Scheduled arrival time.
    pub arrived: SimTime,
    /// Arrival → merged-result latency (queue wait + execution).
    pub response_ms: f64,
}

/// Outcome of an open-loop run.
#[derive(Debug, Default)]
pub struct OpenLoopReport {
    /// Queries that completed, in dispatch order.
    pub completed: Vec<CompletedQuery>,
    /// Queries shed by admission (queue full / queue deadline / no tokens).
    pub shed: u64,
    /// Queries that failed for non-admission reasons.
    pub failed: u64,
    /// Dispatch rounds executed.
    pub rounds: usize,
    /// Mean arrival→completion response per round (the admission-off
    /// saturation signature: monotone growth).
    pub round_mean_response_ms: Vec<f64>,
}

impl OpenLoopReport {
    /// The `p`-quantile (0–100) of completed response times, by the
    /// nearest-rank method. Zero if nothing completed.
    pub fn response_percentile(&self, p: f64) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        let mut times: Vec<f64> = self.completed.iter().map(|c| c.response_ms).collect();
        times.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * times.len() as f64).ceil() as usize;
        times[rank.saturating_sub(1).min(times.len() - 1)]
    }

    /// Queries that completed within `deadline_ms` of *arrival* — the
    /// goodput numerator under overload.
    pub fn goodput(&self, deadline_ms: f64) -> usize {
        self.completed
            .iter()
            .filter(|c| c.response_ms <= deadline_ms)
            .count()
    }
}

/// How the open-loop driver hands arrivals to the federation.
#[derive(Debug, Clone, Copy)]
pub enum AdmissionMode<'a> {
    /// Full admission control: priority/WFQ queue, calibration-derived
    /// token capacities, queue + execution deadlines, shedding.
    Admitted(&'a AdmissionController),
    /// No admission: strict-FIFO dispatch through a fixed pool of `width`
    /// concurrent queries (a real integrator's connection/worker pool).
    /// Nothing is ever shed and nothing has a deadline, so past
    /// saturation the backlog — and with it every later query's
    /// response time — grows without bound.
    Unprotected {
        /// Concurrent queries per dispatch round.
        width: usize,
    },
}

/// Drive a precomputed arrival sequence through `scenario`'s federation.
///
/// One loop serves both modes. Each turn reads `now`, releases the due
/// arrivals into the pending queue — the admission queue (immediate shed
/// if full) or the unprotected FIFO pool, the only thing the modes differ
/// in — jumps the clock to the next arrival when nothing is pending,
/// takes a round, and dispatches it as one `submit_batch`. In
/// [`AdmissionMode::Admitted`] taking a round is: refresh per-server
/// token capacities from QCC state, then dequeue a quota-bounded WFQ
/// batch (queue-deadline sheds happen here). In
/// [`AdmissionMode::Unprotected`] it is the oldest `width` pending
/// arrivals, unconditionally.
///
/// During each round the driver holds one inflight guard per dispatched
/// query, assigned round-robin across the scenario's servers in dispatch
/// order, so batch width feeds back into server utilization (the hot-spot
/// feedback loop the phase driver models the same way). Guard counts are
/// constant for the whole batch, keeping execution deterministic.
///
/// No availability daemon runs: a server that crashes mid-run is never
/// probed back up. [`run_open_loop_with_daemon`] is the same loop with
/// the daemon's timer in it.
pub fn run_open_loop(
    scenario: &Scenario,
    mode: AdmissionMode<'_>,
    arrivals: &[ArrivalEvent],
) -> OpenLoopReport {
    drive(scenario, mode, arrivals, None)
}

/// [`run_open_loop`] with the availability daemon (§3.3) as a second
/// timer beside the arrivals: every turn of the loop first fires the
/// probes that have come due on the virtual timeline, so a crashed server
/// is detected between rounds and restored once its fault window ends.
/// With a daemon whose probes never come due the schedule — and the
/// journal — is exactly [`run_open_loop`]'s.
pub fn run_open_loop_with_daemon(
    scenario: &Scenario,
    mode: AdmissionMode<'_>,
    arrivals: &[ArrivalEvent],
    daemon: &AvailabilityDaemon,
) -> OpenLoopReport {
    drive(scenario, mode, arrivals, Some(daemon))
}

fn drive(
    scenario: &Scenario,
    mode: AdmissionMode<'_>,
    arrivals: &[ArrivalEvent],
    daemon: Option<&AvailabilityDaemon>,
) -> OpenLoopReport {
    let server_ids: Vec<_> = scenario.servers.iter().map(|s| s.id().clone()).collect();
    let mut report = OpenLoopReport::default();
    // The unprotected mode's pending queue; the admitted mode's is the
    // controller's own.
    let mut pool: VecDeque<QueueTicket> = VecDeque::new();
    let mut next = 0usize;
    loop {
        if let Some(daemon) = daemon {
            daemon.run_due_probes();
        }
        let now = scenario.clock.now();
        while next < arrivals.len() && arrivals[next].at <= now {
            let a = &arrivals[next];
            match mode {
                AdmissionMode::Admitted(admission) => {
                    if admission
                        .enqueue(&a.sql, &a.qt.to_string(), a.class, a.at)
                        .is_err()
                    {
                        report.shed += 1;
                    }
                }
                // No admission: nothing is ever refused and nothing has
                // a deadline.
                AdmissionMode::Unprotected { .. } => pool.push_back(QueueTicket {
                    seq: next as u64,
                    sql: a.sql.clone(),
                    template: a.qt.to_string(),
                    class: a.class,
                    enqueued_at: a.at,
                    deadline_ms: f64::INFINITY,
                }),
            }
            next += 1;
        }
        let pending = match mode {
            AdmissionMode::Admitted(admission) => admission.queue_depth(),
            AdmissionMode::Unprotected { .. } => pool.len(),
        };
        if pending == 0 {
            if next >= arrivals.len() {
                break;
            }
            // Idle: jump to the next scheduled arrival.
            scenario.clock.advance_to(arrivals[next].at);
            continue;
        }
        let (admission, round) = match mode {
            AdmissionMode::Admitted(admission) => {
                // Coordinator-side capacity refresh between batches; the
                // batch below gates against this frozen snapshot.
                if let Some(qcc) = &scenario.qcc {
                    qcc.refresh_admission(admission, &server_ids, now);
                }
                let batch = admission.dequeue_batch(now);
                report.shed += batch.shed.len() as u64;
                (Some(admission), batch.admitted)
            }
            // The oldest `width` pending queries dispatch, the rest wait
            // for the pool.
            AdmissionMode::Unprotected { width } => {
                let take = width.max(1).min(pool.len());
                (None, pool.drain(..take).collect())
            }
        };
        if round.is_empty() {
            continue; // everything popped this round was doomed; queue shrank
        }
        dispatch_round(scenario, admission, &round, now, &mut report);
    }
    report
}

/// Dispatch one round as a single `submit_batch`, holding an inflight
/// guard per query for the round's duration. With admission attached the
/// guards follow the deadline-aware token slot plan (earliest-deadline
/// tickets ride the healthiest servers, and each server carries at most
/// its token capacity per cycle); without one — or before the first
/// capacity refresh — placement is round-robin. Each admitted ticket also
/// hands the federation its remaining deadline budget, and completed
/// outcomes feed the per-template execution estimator back.
fn dispatch_round(
    scenario: &Scenario,
    admission: Option<&AdmissionController>,
    tickets: &[QueueTicket],
    dispatched_at: SimTime,
    report: &mut OpenLoopReport,
) {
    let slots = admission
        .map(|a| a.dispatch_slots(tickets.len()))
        .unwrap_or_default();
    let server_index: BTreeMap<&str, usize> = scenario
        .servers
        .iter()
        .enumerate()
        .map(|(i, s)| (s.id().as_str(), i))
        .collect();
    let guards: Vec<_> = tickets
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let idx = slots
                .get(i)
                .and_then(|sid| server_index.get(sid.as_str()).copied())
                .unwrap_or(i % scenario.servers.len());
            scenario.servers[idx].load().begin_query()
        })
        .collect();
    let sqls: Vec<String> = tickets.iter().map(|t| t.sql.clone()).collect();
    let outcomes = match admission {
        Some(_) => {
            let budgets: Vec<Option<f64>> = tickets
                .iter()
                .map(|t| t.remaining_budget_ms(dispatched_at))
                .collect();
            scenario
                .federation
                .submit_batch_with_budgets(&sqls, &budgets)
        }
        None => scenario.federation.submit_batch(&sqls),
    };
    drop(guards);
    let wait_ms: Vec<f64> = tickets
        .iter()
        .map(|t| dispatched_at.since(t.enqueued_at).as_millis())
        .collect();
    let mut round_sum = 0.0;
    let mut round_n = 0usize;
    for ((ticket, outcome), wait) in tickets.iter().zip(outcomes).zip(wait_ms) {
        match outcome {
            Ok(out) => {
                if let Some(admission) = admission {
                    admission.record_exec(&ticket.template, out.response_ms);
                }
                let response_ms = wait + out.response_ms;
                round_sum += response_ms;
                round_n += 1;
                report.completed.push(CompletedQuery {
                    template: ticket.template.clone(),
                    arrived: ticket.enqueued_at,
                    response_ms,
                });
            }
            Err(QccError::Shed(_)) => report.shed += 1,
            Err(_) => report.failed += 1,
        }
    }
    if round_n > 0 {
        report
            .round_mean_response_ms
            .push(round_sum / round_n as f64);
    }
    report.rounds += 1;
}
