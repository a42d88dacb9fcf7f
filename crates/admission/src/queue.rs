//! Deterministic virtual-time arrival queue.
//!
//! Discipline: strict priority across [`PriorityClass`]es;
//! earliest-deadline-first (EDF) across query templates *within* a class,
//! with the fair-queueing finish tag as the tie-break so template fairness
//! survives whenever deadlines don't discriminate (equal arrivals, or
//! deadlines disabled). Each subqueue is FIFO — open-loop drivers enqueue
//! in arrival order, so per-template deadlines are monotone and the head
//! is always the subqueue's earliest deadline. Each enqueue stamps a
//! finish tag `max(class_virtual_time, last_tag_of_template) + 1` (every
//! template has the same share),
//! and dequeue picks the minimum `(deadline, tag, template)` head in the
//! highest nonempty class. All state lives behind one mutex and every
//! input is a `SimTime`, so the drain order is a pure function of the
//! arrival sequence — no wall clock, no thread interleaving.

use crate::config::PriorityClass;
use parking_lot::Mutex;
use qcc_common::SimTime;
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};

/// One admitted-to-queue query, identified by a monotone sequence number
/// that journal events use as the correlation key.
#[derive(Debug, Clone)]
pub struct QueueTicket {
    /// Admission sequence number (assigned at enqueue, never reused).
    pub seq: u64,
    /// SQL text to submit when the query is dispatched.
    pub sql: String,
    /// WFQ key — the workload layer uses the query-template name ("QT1"…).
    pub template: String,
    /// Strict-priority class.
    pub class: PriorityClass,
    /// Virtual time the query entered the queue.
    pub enqueued_at: SimTime,
    /// Absolute deadline on the virtual timeline (arrival plus the
    /// configured budget); `f64::INFINITY` when deadlines are disabled.
    pub deadline_ms: f64,
}

impl QueueTicket {
    /// True once the deadline has *passed*. The comparison is strictly
    /// greater on both the enqueue and dequeue sides: a ticket whose age
    /// exactly equals its budget is still admissible (see the boundary
    /// test below).
    pub fn lapsed(&self, now: SimTime) -> bool {
        now.as_millis() > self.deadline_ms
    }

    /// Shed-on-dispatch predicate: would dispatching now, with
    /// `estimate_ms` of predicted service time, miss the deadline? Uses
    /// the same strictly-greater boundary as [`QueueTicket::lapsed`], so a
    /// query predicted to finish *exactly at* the deadline is dispatched.
    pub fn predicted_late(&self, now: SimTime, estimate_ms: f64) -> bool {
        now.as_millis() + estimate_ms > self.deadline_ms
    }

    /// Remaining deadline budget at `now` (virtual ms, possibly negative),
    /// or `None` when the ticket carries no deadline.
    pub fn remaining_budget_ms(&self, now: SimTime) -> Option<f64> {
        if self.deadline_ms.is_finite() {
            Some(self.deadline_ms - now.as_millis())
        } else {
            None
        }
    }
}

#[derive(Debug, Default)]
struct SubQueue {
    /// FIFO of (ticket, WFQ finish tag).
    entries: VecDeque<(QueueTicket, f64)>,
    /// Finish tag of the most recently enqueued entry; keeps per-template
    /// tags monotone even while the subqueue drains empty.
    last_tag: f64,
}

#[derive(Debug, Default)]
struct ClassState {
    templates: BTreeMap<String, SubQueue>,
    /// Class-local virtual time: the largest finish tag ever dequeued.
    virtual_time: f64,
}

#[derive(Debug, Default)]
struct QueueState {
    classes: BTreeMap<PriorityClass, ClassState>,
    depth: usize,
    next_seq: u64,
}

/// The arrival queue proper. Only the coordinator thread touches it (all
/// admission decisions happen between scatter batches), but the mutex makes
/// that invariant a non-issue rather than a soundness condition.
#[derive(Debug, Default)]
pub(crate) struct ArrivalQueue {
    state: Mutex<QueueState>,
}

pub(crate) enum EnqueueOutcome {
    /// Admitted to the queue at the returned depth (post-enqueue).
    Queued(QueueTicket, usize),
    /// Rejected because the queue is at `max_queue_depth`.
    Full(QueueTicket),
}

impl ArrivalQueue {
    /// Enqueue `sql` under `(class, template)` with an absolute
    /// `deadline_ms`. A ticket (with a fresh sequence number) is minted
    /// either way so shed events stay journal-correlatable.
    pub(crate) fn enqueue(
        &self,
        sql: &str,
        template: &str,
        class: PriorityClass,
        now: SimTime,
        deadline_ms: f64,
        max_depth: usize,
    ) -> EnqueueOutcome {
        let mut state = self.state.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        let ticket = QueueTicket {
            seq,
            sql: sql.to_string(),
            template: template.to_string(),
            class,
            enqueued_at: now,
            deadline_ms,
        };
        if max_depth > 0 && state.depth >= max_depth {
            return EnqueueOutcome::Full(ticket);
        }
        let class_state = state.classes.entry(class).or_default();
        let sub = class_state
            .templates
            .entry(template.to_string())
            .or_default();
        let tag = class_state.virtual_time.max(sub.last_tag) + 1.0;
        sub.last_tag = tag;
        sub.entries.push_back((ticket.clone(), tag));
        state.depth += 1;
        EnqueueOutcome::Queued(ticket, state.depth)
    }

    /// Dequeue the next query per the EDF-over-WFQ discipline, or `None`
    /// if empty: within the highest nonempty class, the head with the
    /// earliest deadline wins; equal deadlines fall back to the WFQ finish
    /// tag; equal tags to the lexicographically-first template.
    pub(crate) fn pop(&self) -> Option<QueueTicket> {
        let mut state = self.state.lock();
        let mut picked: Option<(PriorityClass, String, f64, f64)> = None;
        for (class, class_state) in &state.classes {
            for (template, sub) in &class_state.templates {
                if let Some((head, tag)) = sub.entries.front() {
                    // Strictly-less keeps the lexicographically-first
                    // template on full ties (BTreeMap iterates name order).
                    let better = match &picked {
                        None => true,
                        Some((_, _, best_deadline, best_tag)) => {
                            match head.deadline_ms.total_cmp(best_deadline) {
                                Ordering::Less => true,
                                Ordering::Greater => false,
                                Ordering::Equal => *tag < *best_tag,
                            }
                        }
                    };
                    if better {
                        picked = Some((*class, template.clone(), head.deadline_ms, *tag));
                    }
                }
            }
            if picked.is_some() {
                break; // strict priority: never look past the first nonempty class
            }
        }
        let (class, template, _, tag) = picked?;
        let class_state = state.classes.get_mut(&class)?;
        class_state.virtual_time = class_state.virtual_time.max(tag);
        let ticket = class_state
            .templates
            .get_mut(&template)
            .and_then(|sub| sub.entries.pop_front())
            .map(|(ticket, _)| ticket)?;
        state.depth -= 1;
        Some(ticket)
    }

    /// Current queue depth.
    pub(crate) fn depth(&self) -> usize {
        self.state.lock().depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enqueue(q: &ArrivalQueue, template: &str, at: f64, deadline: f64) -> u64 {
        match q.enqueue(
            "SELECT 1",
            template,
            PriorityClass::Normal,
            SimTime::from_millis(at),
            deadline,
            0,
        ) {
            EnqueueOutcome::Queued(t, _) => t.seq,
            EnqueueOutcome::Full(_) => unreachable!("unbounded queue refused an arrival"),
        }
    }

    /// Pin the deadline boundary: a ticket whose age exactly equals its
    /// budget is *not* late — both `lapsed` and `predicted_late` use the
    /// same strictly-greater comparison, so the enqueue and dequeue sides
    /// can never disagree about an exactly-at-deadline query.
    #[test]
    fn exact_deadline_age_is_still_admissible() {
        let q = ArrivalQueue::default();
        enqueue(&q, "QT1", 0.0, 40.0); // budget 40ms, arrival at t=0
        let ticket = q.pop().expect("queued");
        let exactly_at = SimTime::from_millis(40.0);
        assert!(
            !ticket.lapsed(exactly_at),
            "age == deadline must stay admissible"
        );
        assert!(
            !ticket.predicted_late(exactly_at, 0.0),
            "predicted finish == deadline must stay admissible"
        );
        assert_eq!(ticket.remaining_budget_ms(exactly_at), Some(0.0));
        let just_past = SimTime::from_millis(40.0 + 1e-9);
        assert!(ticket.lapsed(just_past), "age > deadline has lapsed");
        assert!(
            ticket.predicted_late(exactly_at, 1e-9),
            "any predicted overshoot is late"
        );
    }

    #[test]
    fn infinite_deadline_never_lapses() {
        let q = ArrivalQueue::default();
        enqueue(&q, "QT1", 0.0, f64::INFINITY);
        let ticket = q.pop().expect("queued");
        let far = SimTime::from_millis(1e12);
        assert!(!ticket.lapsed(far));
        assert!(!ticket.predicted_late(far, 1e12));
        assert_eq!(ticket.remaining_budget_ms(far), None);
    }

    #[test]
    fn earliest_deadline_first_across_templates_within_class() {
        let q = ArrivalQueue::default();
        // QT2 arrives first but with a later deadline than QT1.
        let late = enqueue(&q, "QT2", 0.0, 500.0);
        let tight = enqueue(&q, "QT1", 1.0, 100.0);
        assert_eq!(
            q.pop().map(|t| t.seq),
            Some(tight),
            "earliest deadline first"
        );
        assert_eq!(q.pop().map(|t| t.seq), Some(late));
    }

    #[test]
    fn equal_deadlines_fall_back_to_finish_tags() {
        let q = ArrivalQueue::default();
        // Same arrival instant, same budget: deadlines tie, so the WFQ
        // finish tags (equal shares ⇒ template name order) decide.
        let b = enqueue(&q, "QTb", 0.0, 200.0);
        let a = enqueue(&q, "QTa", 0.0, 200.0);
        assert_eq!(q.pop().map(|t| t.seq), Some(a), "tag tie-break by name");
        assert_eq!(q.pop().map(|t| t.seq), Some(b));
    }
}
