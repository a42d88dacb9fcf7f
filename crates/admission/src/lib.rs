//! # qcc-admission — deadline-aware admission control for the serving path
//!
//! The QCC middleware (paper §3–§5) folds remote load into *plan choice*;
//! this crate adds the serving-stack counterpart: deciding whether a query
//! should run **now**, **wait**, or be **shed**, using the same calibrated
//! state the router already maintains.
//!
//! Four mechanisms, all on virtual time:
//!
//! 1. **Arrival queue** ([`queue`]) — strict [`PriorityClass`]es with
//!    earliest-deadline-first dequeue per class (WFQ finish tags as the
//!    tie-break), so an open-loop arrival process past saturation degrades
//!    into bounded queueing instead of unbounded concurrency and the
//!    scarce dispatch slots go to the work that can still make it.
//! 2. **Concurrency tokens** ([`tokens`]) — per-server capacities derived
//!    by the coordinator from QCC calibration factors and availability
//!    state (down ⇒ zero, flaky ⇒ reduced). The frozen capacity snapshot
//!    gates candidate selection in `Federation::run`, the aggregate quota
//!    bounds each dequeue round's width, and the deadline-aware
//!    [`AdmissionController::dispatch_slots`] plan releases tokens to the
//!    most urgent tickets first.
//! 3. **Shed-on-dispatch** (`estimate`) — tickets carry an absolute
//!    arrival-relative deadline; at dispatch time a ticket is shed only
//!    when `now + estimate > deadline` (per-template execution EWMA fed
//!    back from completed queries), so transient bursts drain instead of
//!    being dropped on raw queue age.
//! 4. **Execution deadlines** — each dispatched ticket hands its remaining
//!    budget to the federation, which forfeits the retry budget once it is
//!    spent. The budget is all this crate hands over: when a fragment hedges
//!    is the federation's fixed rule, not a setting here.
//!
//! ## Determinism
//!
//! All admission decisions are taken by the coordinator between scatter
//! batches: enqueue/dequeue/shed and capacity refresh never run on worker
//! threads, every timestamp is a `SimTime`, and the WFQ drain order is a
//! pure function of the arrival sequence. Journal events are therefore
//! emitted directly (coordinator-sequential), and the whole layer is
//! byte-identical for any `QCC_THREADS` — enforced by
//! `tests/admission_determinism.rs`.

pub mod config;
mod estimate;
pub mod queue;
pub mod tokens;

pub use config::{AdmissionConfig, PriorityClass};
pub use queue::QueueTicket;

use crate::estimate::EstimateBook;
use crate::queue::{ArrivalQueue, EnqueueOutcome};
use crate::tokens::TokenPool;
use qcc_common::{CounterFamily, GaugeHandle, HistogramHandle, Obs, QccError, ServerId, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};

/// Every reason a query can be shed, exactly as it appears in the
/// `sheds_total{reason}` metric and `shed` journal events. The per-reason
/// counters partition [`AdmissionCounts::shed`]: each shed increments
/// exactly one reason (pinned by `tests/admission_overload_e2e.rs`).
pub const SHED_REASONS: &[&str] = &[
    "queue_full",
    "deadline_lapsed",
    "predicted_late",
    "no_tokens",
];

/// Counter snapshot for quick assertions without an `Obs` handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionCounts {
    /// Queries accepted into the arrival queue.
    pub enqueued: u64,
    /// Queries released for dispatch by `dequeue_batch`.
    pub dispatched: u64,
    /// Queries shed, summed over every [`SHED_REASONS`] entry (the
    /// federation reports its token sheds back via
    /// [`AdmissionController::note_shed`]).
    pub shed: u64,
}

/// Result of one dequeue round.
#[derive(Debug, Default)]
pub struct DequeuedBatch {
    /// Tickets released for dispatch, in EDF-over-WFQ order, at most
    /// `dispatch_quota`.
    pub admitted: Vec<QueueTicket>,
    /// Tickets shed at dispatch time: deadline already lapsed, or the
    /// service-time estimate predicts a miss.
    pub shed: Vec<QueueTicket>,
}

/// The admission controller: arrival queue + token pool + deadline policy.
///
/// One instance is shared (via `Arc`) between the open-loop driver, which
/// enqueues arrivals and dequeues dispatch batches, and the federation,
/// which consults per-server capacities at plan-selection time.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    queue: ArrivalQueue,
    tokens: TokenPool,
    estimates: EstimateBook,
    obs: Obs,
    metrics: Metrics,
    enqueued: AtomicU64,
    dispatched: AtomicU64,
    shed: AtomicU64,
}

/// The series every arrival emits into, resolved once.
#[derive(Debug)]
struct Metrics {
    /// `admission_enqueued_total{class}`.
    enqueued: CounterFamily,
    /// `admission_dispatched_total{class}`.
    dispatched: CounterFamily,
    /// `sheds_total{reason}`.
    sheds: CounterFamily,
    /// `admission_queue_depth`.
    depth: GaugeHandle,
    /// `admission_queue_wait_ms`.
    wait_ms: HistogramHandle,
}

impl AdmissionController {
    /// A controller with no observability attached.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController::with_obs(config, Obs::off())
    }

    /// A controller emitting journal events and metrics to `obs`.
    pub fn with_obs(config: AdmissionConfig, obs: Obs) -> Self {
        let base = config.base_tokens;
        AdmissionController {
            config,
            queue: ArrivalQueue::default(),
            tokens: TokenPool::new(base),
            estimates: EstimateBook::default(),
            metrics: Metrics {
                enqueued: obs.counter_family("admission_enqueued_total", "class"),
                dispatched: obs.counter_family("admission_dispatched_total", "class"),
                sheds: obs.counter_family("sheds_total", "reason"),
                depth: obs.gauge("admission_queue_depth", &[]),
                wait_ms: obs.histogram("admission_queue_wait_ms", &[]),
            },
            obs,
            enqueued: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Offer a query to the arrival queue. Returns the admission sequence
    /// number, or `QccError::Shed` if the queue is at `max_queue_depth`.
    /// The ticket is stamped with its absolute deadline (arrival plus the
    /// configured budget); age alone never sheds it — only the
    /// shed-on-dispatch check in [`Self::dequeue_batch`] can.
    pub fn enqueue(
        &self,
        sql: &str,
        template: &str,
        class: PriorityClass,
        now: SimTime,
    ) -> Result<u64, QccError> {
        let deadline_ms = match self.config.deadline_budget_ms() {
            Some(budget) => now.as_millis() + budget,
            None => f64::INFINITY,
        };
        match self.queue.enqueue(
            sql,
            template,
            class,
            now,
            deadline_ms,
            self.config.max_queue_depth,
        ) {
            EnqueueOutcome::Queued(ticket, depth) => {
                self.enqueued.fetch_add(1, Ordering::Relaxed);
                self.metrics.enqueued.inc(class.as_str());
                self.metrics.depth.set(depth as f64);
                self.obs.event(
                    now,
                    "enqueue",
                    vec![
                        ("seq", ticket.seq.into()),
                        ("template", self.obs.intern(&ticket.template).into()),
                        ("class", self.obs.intern(class.as_str()).into()),
                        ("depth", depth.into()),
                    ],
                );
                Ok(ticket.seq)
            }
            EnqueueOutcome::Full(ticket) => {
                self.record_shed(&ticket, now, "queue_full");
                Err(QccError::Shed(format!(
                    "arrival queue full (depth {})",
                    self.config.max_queue_depth
                )))
            }
        }
    }

    /// Release the next dispatch batch: up to [`Self::dispatch_quota`]
    /// tickets in EDF-over-WFQ order. Shedding happens here, at dispatch
    /// time, and only on predicted lateness — a ticket whose deadline has
    /// already passed sheds as `deadline_lapsed`, one whose per-template
    /// service estimate predicts a miss (`now + estimate > deadline`)
    /// sheds as `predicted_late`, and neither counts against
    /// the quota. A backlog that can still drain in time is dispatched in
    /// full, however old.
    pub fn dequeue_batch(&self, now: SimTime) -> DequeuedBatch {
        let quota = self.tokens.dispatch_quota();
        let mut batch = DequeuedBatch::default();
        while batch.admitted.len() < quota {
            let Some(ticket) = self.queue.pop() else {
                break;
            };
            let waited = now.since(ticket.enqueued_at).as_millis();
            if ticket.lapsed(now) {
                self.record_shed(&ticket, now, "deadline_lapsed");
                batch.shed.push(ticket);
                continue;
            }
            let estimate = self.estimates.exec_estimate(&ticket.template);
            if ticket.predicted_late(now, estimate) {
                self.record_shed(&ticket, now, "predicted_late");
                batch.shed.push(ticket);
                continue;
            }
            self.dispatched.fetch_add(1, Ordering::Relaxed);
            self.metrics.dispatched.inc(ticket.class.as_str());
            self.metrics.wait_ms.observe(waited);
            self.obs.event(
                now,
                "dequeue",
                vec![
                    ("seq", ticket.seq.into()),
                    ("template", self.obs.intern(&ticket.template).into()),
                    ("class", self.obs.intern(ticket.class.as_str()).into()),
                    ("waited_ms", waited.into()),
                ],
            );
            batch.admitted.push(ticket);
        }
        self.metrics.depth.set(self.queue.depth() as f64);
        batch
    }

    /// Current arrival-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Aggregate dispatch quota for the next dequeue round.
    pub fn dispatch_quota(&self) -> usize {
        self.tokens.dispatch_quota()
    }

    /// Frozen per-server capacity as of the last coordinator refresh.
    pub fn capacity(&self, server: &ServerId) -> u32 {
        self.tokens.capacity(server)
    }

    /// Deadline-aware token release order for a round of `n` dispatches:
    /// slot `i` names the server whose inflight token the `i`-th dequeued
    /// (earliest-deadline) ticket should hold, healthiest servers first.
    /// Empty before the first capacity refresh or when every server is
    /// down — callers then fall back to round-robin placement.
    pub fn dispatch_slots(&self, n: usize) -> Vec<ServerId> {
        self.tokens.slot_plan(n)
    }

    /// Coordinator-side feedback: one observed dispatch→completion time
    /// for `template`. Feeds the shed-on-dispatch estimator; call it
    /// between batches only (the open-loop drivers do, from completed
    /// outcomes) so estimates stay thread-count independent.
    pub fn record_exec(&self, template: &str, exec_ms: f64) {
        self.estimates.record_exec(template, exec_ms);
    }

    /// Current per-template execution-time estimate (`0.0` if unseen).
    pub fn exec_estimate(&self, template: &str) -> f64 {
        self.estimates.exec_estimate(template)
    }

    /// Coordinator-side capacity update (between batches only). Returns
    /// `true` exactly on a down transition (capacity newly zero), which is
    /// the caller's cue to invalidate cached plans for the server.
    pub fn set_capacity(&self, server: &ServerId, cap: u32, at: SimTime) -> bool {
        let change = self.tokens.set_capacity(server, cap);
        if change.changed {
            self.obs.gauge_set(
                "admission_tokens",
                &[("server", server.as_str())],
                f64::from(cap),
            );
            self.obs.event(
                at,
                "token_capacity",
                vec![
                    ("server", server.into()),
                    ("capacity", u64::from(cap).into()),
                    ("down", change.went_down.into()),
                ],
            );
        }
        change.went_down
    }

    /// Record a shed decided outside the queue (e.g. the federation finding
    /// no token-admissible plan). Keeps the crate-level shed counter and
    /// `sheds_total` metric authoritative across layers.
    pub fn note_shed(&self, reason: &'static str) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.metrics.sheds.inc(reason);
    }

    /// Record a mid-query remainder re-dispatch riding the token pool:
    /// the rerouted fragment consults the frozen per-server capacity
    /// (via [`AdmissionController::capacity`]) but consumes no extra
    /// inflight token — the query's own admission slot covers its
    /// remainder, so re-dispatch never double-counts against the pool.
    /// Commutative counter only; safe inline from worker threads.
    pub fn note_reroute_reuse(&self, server: &ServerId) {
        self.obs
            .counter_inc("reroute_token_reuses_total", &[("server", server.as_str())]);
    }

    /// The attached observability handle (disabled if constructed via
    /// [`AdmissionController::new`]).
    pub fn obs_handle(&self) -> &Obs {
        &self.obs
    }

    /// Counter snapshot.
    pub fn counts(&self) -> AdmissionCounts {
        AdmissionCounts {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            dispatched: self.dispatched.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }

    fn record_shed(&self, ticket: &QueueTicket, now: SimTime, reason: &'static str) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.metrics.sheds.inc(reason);
        let waited = now.since(ticket.enqueued_at).as_millis();
        self.obs.event(
            now,
            "shed",
            vec![
                ("seq", ticket.seq.into()),
                ("template", self.obs.intern(&ticket.template).into()),
                ("class", self.obs.intern(ticket.class.as_str()).into()),
                ("reason", self.obs.intern(reason).into()),
                ("waited_ms", waited.into()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::SimDuration;

    fn controller(config: AdmissionConfig) -> AdmissionController {
        AdmissionController::with_obs(config, Obs::new())
    }

    fn enqueue_ok(ctl: &AdmissionController, template: &str, class: PriorityClass, at: f64) -> u64 {
        match ctl.enqueue("SELECT 1", template, class, SimTime::from_millis(at)) {
            Ok(seq) => seq,
            Err(e) => unreachable!("enqueue unexpectedly shed: {e}"),
        }
    }

    #[test]
    fn fifo_within_template_and_strict_priority_across_classes() {
        let ctl = controller(AdmissionConfig::default());
        enqueue_ok(&ctl, "QT1", PriorityClass::Low, 0.0);
        enqueue_ok(&ctl, "QT1", PriorityClass::Normal, 0.0);
        let urgent = enqueue_ok(&ctl, "QT4", PriorityClass::High, 0.0);
        let batch = ctl.dequeue_batch(SimTime::from_millis(1.0));
        assert_eq!(batch.admitted[0].seq, urgent, "high class drains first");
        assert_eq!(batch.admitted[1].class, PriorityClass::Normal);
        assert_eq!(batch.admitted[2].class, PriorityClass::Low);
        assert!(batch.shed.is_empty());
    }

    #[test]
    fn queue_full_sheds_at_enqueue() {
        let ctl = controller(AdmissionConfig {
            max_queue_depth: 2,
            ..AdmissionConfig::default()
        });
        enqueue_ok(&ctl, "QT1", PriorityClass::Normal, 0.0);
        enqueue_ok(&ctl, "QT1", PriorityClass::Normal, 0.0);
        let rejected = ctl.enqueue("SELECT 1", "QT1", PriorityClass::Normal, SimTime::ZERO);
        assert!(matches!(rejected, Err(QccError::Shed(_))));
        assert_eq!(ctl.counts().shed, 1);
        assert_eq!(ctl.queue_depth(), 2);
        assert_eq!(
            ctl.obs_handle()
                .counter_value("sheds_total", &[("reason", "queue_full")]),
            1
        );
    }

    #[test]
    fn lapsed_deadline_sheds_at_dispatch_without_consuming_quota() {
        let ctl = controller(AdmissionConfig {
            queue_deadline_ms: 10.0,
            exec_deadline_ms: 0.0, // total budget: 10ms from arrival
            base_tokens: 1,
            ..AdmissionConfig::default()
        });
        enqueue_ok(&ctl, "QT1", PriorityClass::Normal, 0.0); // deadline 10ms
        let fresh = enqueue_ok(&ctl, "QT1", PriorityClass::Normal, 48.0); // deadline 58ms
        let now = SimTime::ZERO + SimDuration::from_millis(50.0);
        let batch = ctl.dequeue_batch(now);
        assert_eq!(batch.shed.len(), 1, "lapsed entry shed at dispatch");
        assert_eq!(batch.admitted.len(), 1, "shed does not consume quota");
        assert_eq!(batch.admitted[0].seq, fresh);
        assert_eq!(
            ctl.obs_handle()
                .counter_value("sheds_total", &[("reason", "deadline_lapsed")]),
            1
        );
    }

    #[test]
    fn old_but_still_viable_backlog_is_dispatched_not_shed() {
        // The old policy shed on raw queue age; the new one only sheds
        // work that can no longer make its deadline. An entry well past
        // the queue-budget component but with execution budget to spare
        // must dispatch.
        let ctl = controller(AdmissionConfig {
            queue_deadline_ms: 10.0,
            exec_deadline_ms: 100.0, // total budget: 110ms
            base_tokens: 1,
            ..AdmissionConfig::default()
        });
        let seq = enqueue_ok(&ctl, "QT1", PriorityClass::Normal, 0.0);
        let batch = ctl.dequeue_batch(SimTime::from_millis(50.0));
        assert_eq!(batch.admitted.first().map(|t| t.seq), Some(seq));
        assert!(batch.shed.is_empty(), "transient burst drains, not drops");
    }

    #[test]
    fn predicted_late_sheds_when_estimate_cannot_make_deadline() {
        let ctl = controller(AdmissionConfig {
            queue_deadline_ms: 20.0,
            exec_deadline_ms: 40.0, // total budget: 60ms
            base_tokens: 4,
            ..AdmissionConfig::default()
        });
        ctl.record_exec("QT1", 100.0); // QT1 is known to take ~100ms
        ctl.record_exec("QT2", 5.0); // QT2 is quick
        let doomed = enqueue_ok(&ctl, "QT1", PriorityClass::Normal, 0.0);
        let viable = enqueue_ok(&ctl, "QT2", PriorityClass::Normal, 0.0);
        let batch = ctl.dequeue_batch(SimTime::from_millis(10.0));
        assert_eq!(batch.shed.first().map(|t| t.seq), Some(doomed));
        assert_eq!(batch.admitted.first().map(|t| t.seq), Some(viable));
        assert_eq!(
            ctl.obs_handle()
                .counter_value("sheds_total", &[("reason", "predicted_late")]),
            1
        );
    }

    #[test]
    fn edf_dequeue_prefers_earlier_deadline_within_class() {
        let ctl = controller(AdmissionConfig {
            base_tokens: 4,
            ..AdmissionConfig::default()
        });
        // Later arrival ⇒ later deadline; EDF must still drain the earlier
        // arrival first even though WFQ tags alone would interleave.
        let first = enqueue_ok(&ctl, "QT2", PriorityClass::Normal, 0.0);
        let second = enqueue_ok(&ctl, "QT1", PriorityClass::Normal, 5.0);
        let batch = ctl.dequeue_batch(SimTime::from_millis(6.0));
        assert_eq!(batch.admitted[0].seq, first);
        assert_eq!(batch.admitted[1].seq, second);
    }

    #[test]
    fn dispatch_slots_release_tokens_to_strong_servers_first() {
        let ctl = controller(AdmissionConfig::default());
        assert!(
            ctl.dispatch_slots(3).is_empty(),
            "no slot plan before the first capacity refresh"
        );
        let (s1, s2, s3) = (
            ServerId::new("S1"),
            ServerId::new("S2"),
            ServerId::new("S3"),
        );
        ctl.set_capacity(&s1, 1, SimTime::ZERO);
        ctl.set_capacity(&s2, 3, SimTime::ZERO);
        ctl.set_capacity(&s3, 0, SimTime::ZERO);
        let slots = ctl.dispatch_slots(6);
        let names: Vec<&str> = slots.iter().map(|s| s.as_str()).collect();
        // Token-by-token, highest capacity first, downed server excluded,
        // wrapping once the 4 real tokens are spent.
        assert_eq!(names, ["S2", "S1", "S2", "S2", "S2", "S1"]);
    }

    #[test]
    fn reroute_reuse_never_double_counts_tokens() {
        let ctl = controller(AdmissionConfig::default());
        let s1 = ServerId::new("S1");
        ctl.set_capacity(&s1, 2, SimTime::ZERO);
        let quota_before = ctl.dispatch_quota();
        // A remainder re-dispatch notes the reuse but must leave the
        // frozen capacity snapshot and the dispatch quota untouched — the
        // rerouted fragment rides the query's own admission slot.
        ctl.note_reroute_reuse(&s1);
        ctl.note_reroute_reuse(&s1);
        assert_eq!(ctl.capacity(&s1), 2);
        assert_eq!(ctl.dispatch_quota(), quota_before);
        assert_eq!(
            ctl.obs_handle()
                .counter_value("reroute_token_reuses_total", &[("server", "S1")]),
            2
        );
        assert_eq!(ctl.counts().shed, 0, "a reuse is not a shed");
    }

    #[test]
    fn capacity_transitions_report_down_once_and_drive_quota() {
        let ctl = controller(AdmissionConfig::default());
        let s1 = ServerId::new("S1");
        let s2 = ServerId::new("S2");
        assert_eq!(
            ctl.dispatch_quota(),
            4,
            "pre-refresh quota falls back to base"
        );
        assert!(!ctl.set_capacity(&s1, 3, SimTime::ZERO));
        assert!(!ctl.set_capacity(&s2, 2, SimTime::ZERO));
        assert_eq!(ctl.dispatch_quota(), 5);
        assert!(ctl.set_capacity(&s2, 0, SimTime::ZERO), "down transition");
        assert!(
            !ctl.set_capacity(&s2, 0, SimTime::ZERO),
            "already down: no transition"
        );
        assert_eq!(ctl.capacity(&s2), 0);
        assert_eq!(ctl.dispatch_quota(), 3);
        assert!(ctl.set_capacity(&s1, 0, SimTime::ZERO));
        assert_eq!(ctl.dispatch_quota(), 1, "quota floors at one");
        assert!(
            !ctl.set_capacity(&s1, 2, SimTime::ZERO),
            "recovery is not a down transition"
        );
    }

    #[test]
    fn drain_order_is_deterministic_for_identical_arrival_sequences() {
        let run = || {
            let ctl = controller(AdmissionConfig {
                base_tokens: 8,
                ..AdmissionConfig::default()
            });
            for i in 0..12u64 {
                let template = ["QT1", "QT2", "QT3"][(i % 3) as usize];
                let class = [PriorityClass::Normal, PriorityClass::Low][(i % 2) as usize];
                enqueue_ok(&ctl, template, class, i as f64);
            }
            let mut order = Vec::new();
            loop {
                let batch = ctl.dequeue_batch(SimTime::from_millis(20.0));
                if batch.admitted.is_empty() && batch.shed.is_empty() {
                    break;
                }
                order.extend(batch.admitted.into_iter().map(|t| t.seq));
            }
            order
        };
        assert_eq!(run(), run());
    }
}
