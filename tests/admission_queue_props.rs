//! Randomized property tests for the admission arrival queue, in the
//! style of `engine_vs_naive_prop.rs`: scenarios are generated from the
//! workspace's deterministic `Pcg32` (fixed seeds, offline, reproducible)
//! and checked against discipline invariants rather than golden outputs.
//!
//! Properties:
//!
//! 1. **Strict priority never inverts** — whenever a ticket is dequeued,
//!    no ticket of a strictly higher class is still waiting.
//! 2. **WFQ never starves a nonempty template** — every template has the
//!    same share, so with every arrival enqueued up front the `k`-th
//!    service of template `t` happens within the finish-tag bound
//!    `Σ_s min(len_s, k + 1)` positions of the class drain, and the drain
//!    is round-robin (prefix service counts differ by at most one while
//!    all templates still have backlog).
//! 3. **Drain order is invariant under arrival-batch chunking** — the
//!    concatenated admitted order is the same whether the queue is
//!    drained one ticket, two, five, or sixteen tickets per round.
//! 4. **EDF within a class** — with deadlines enabled and monotone
//!    arrival times, a ticket is never dequeued after one with a strictly
//!    later deadline in the same class; equal deadlines fall back to the
//!    WFQ finish-tag order (identical drain to a deadline-free run); and
//!    the EDF drain order is itself invariant under dispatch-quota
//!    chunking.

use load_aware_federation::admission::{AdmissionConfig, AdmissionController, PriorityClass};
use load_aware_federation::common::{Pcg32, ServerId, SimTime};
use std::collections::BTreeMap;

const CLASSES: [PriorityClass; 3] = [
    PriorityClass::High,
    PriorityClass::Normal,
    PriorityClass::Low,
];

/// One generated arrival: `(template, class)` — the SQL text is irrelevant
/// to queue discipline.
fn random_arrivals(rng: &mut Pcg32, templates: &[&str]) -> Vec<(String, PriorityClass)> {
    let n = rng.range_u64(20, 120) as usize;
    (0..n)
        .map(|_| {
            let t = *rng.choose(templates);
            let c = *rng.choose(&CLASSES);
            (t.to_string(), c)
        })
        .collect()
}

fn controller() -> AdmissionController {
    AdmissionController::new(AdmissionConfig {
        // Disable the queue deadline and the depth bound: these tests are
        // about drain *order*, so nothing may be shed.
        queue_deadline_ms: 0.0,
        exec_deadline_ms: 0.0,
        max_queue_depth: 0,
        ..AdmissionConfig::default()
    })
}

/// Enqueue every arrival at t=0, then drain with `quota` tickets per
/// round, returning `(seq, template, class)` in admitted order.
fn drain_with_quota(
    arrivals: &[(String, PriorityClass)],
    quota: u32,
) -> Vec<(u64, String, PriorityClass)> {
    let ctl = controller();
    let t0 = SimTime::from_millis(0.0);
    // One synthetic server whose capacity *is* the dispatch quota.
    assert!(!ctl.set_capacity(&ServerId::new("s0"), quota, t0));
    for (template, class) in arrivals {
        ctl.enqueue("SELECT 1", template, *class, t0)
            .expect("depth bound disabled; enqueue cannot shed");
    }
    let mut out = Vec::with_capacity(arrivals.len());
    while ctl.queue_depth() > 0 {
        let batch = ctl.dequeue_batch(t0);
        assert!(batch.shed.is_empty(), "deadline disabled; nothing may shed");
        assert!(
            batch.admitted.len() <= quota as usize,
            "round width {} exceeds quota {quota}",
            batch.admitted.len()
        );
        assert!(
            !batch.admitted.is_empty(),
            "nonempty queue must make progress"
        );
        for t in batch.admitted {
            out.push((t.seq, t.template, t.class));
        }
    }
    out
}

/// A controller with a finite deadline budget so EDF is active, but one
/// large enough (1e6 ms) that nothing can shed during a drain.
fn edf_controller() -> AdmissionController {
    AdmissionController::new(AdmissionConfig {
        queue_deadline_ms: 1_000_000.0,
        exec_deadline_ms: 0.0,
        max_queue_depth: 0,
        ..AdmissionConfig::default()
    })
}

/// Enqueue arrivals at staggered times (`i` ms apart, so deadlines are
/// monotone in arrival order), then drain with `quota` tickets per round
/// starting at the last arrival time. Returns `(seq, template, class,
/// deadline_ms)` in admitted order.
fn drain_staggered_with_quota(
    arrivals: &[(String, PriorityClass)],
    quota: u32,
) -> Vec<(u64, String, PriorityClass, f64)> {
    let ctl = edf_controller();
    assert!(!ctl.set_capacity(&ServerId::new("s0"), quota, SimTime::ZERO));
    for (i, (template, class)) in arrivals.iter().enumerate() {
        ctl.enqueue("SELECT 1", template, *class, SimTime::from_millis(i as f64))
            .expect("depth bound disabled; enqueue cannot shed");
    }
    let now = SimTime::from_millis(arrivals.len() as f64);
    let mut out = Vec::with_capacity(arrivals.len());
    while ctl.queue_depth() > 0 {
        let batch = ctl.dequeue_batch(now);
        assert!(
            batch.shed.is_empty(),
            "budget is 1e6 ms; nothing may shed during the drain"
        );
        for t in batch.admitted {
            out.push((t.seq, t.template, t.class, t.deadline_ms));
        }
    }
    out
}

#[test]
fn strict_priority_never_inverts() {
    let templates = ["QT1", "QT2", "QT3", "QT4"];
    for seed in 0..20u64 {
        let mut rng = Pcg32::seed_from(0xAD31_5510 ^ seed);
        let arrivals = random_arrivals(&mut rng, &templates);
        let drained = drain_with_quota(&arrivals, 1);
        assert_eq!(drained.len(), arrivals.len());
        // With quota 1 each round pops exactly one ticket, so the drain
        // order is the pop order: track what is still queued and assert no
        // higher class was waiting when a lower class was served.
        let mut remaining: BTreeMap<PriorityClass, usize> = BTreeMap::new();
        for (_, class) in &arrivals {
            *remaining.entry(*class).or_insert(0) += 1;
        }
        for (seq, template, class) in drained {
            let higher_waiting: usize = remaining
                .iter()
                .filter(|(c, _)| **c < class)
                .map(|(_, n)| *n)
                .sum();
            assert_eq!(
                higher_waiting, 0,
                "seed {seed}: seq {seq} ({template}, {class}) dequeued while \
                 {higher_waiting} higher-priority tickets were waiting"
            );
            *remaining.get_mut(&class).expect("was enqueued") -= 1;
        }
    }
}

#[test]
fn equal_weight_wfq_is_round_robin_within_a_class() {
    let templates = ["QT1", "QT2", "QT3"];
    for seed in 0..20u64 {
        let mut rng = Pcg32::seed_from(0x00FA_1234 ^ seed);
        // Single class isolates the WFQ discipline from strict priority.
        let arrivals: Vec<(String, PriorityClass)> = random_arrivals(&mut rng, &templates)
            .into_iter()
            .map(|(t, _)| (t, PriorityClass::Normal))
            .collect();
        let drained = drain_with_quota(&arrivals, 1);
        let mut backlog: BTreeMap<&str, isize> = BTreeMap::new();
        for (t, _) in &arrivals {
            *backlog
                .entry(templates.iter().find(|x| **x == *t).unwrap())
                .or_insert(0) += 1;
        }
        let mut served: BTreeMap<&str, isize> = BTreeMap::new();
        for (_, template, _) in &drained {
            let t = *templates.iter().find(|x| **x == *template).unwrap();
            *served.entry(t).or_insert(0) += 1;
            *backlog.get_mut(t).unwrap() -= 1;
            // While every template still has backlog, equal weights mean
            // pure round-robin: prefix service counts differ by ≤ 1.
            if backlog.values().all(|b| *b > 0) {
                let max = served.values().copied().max().unwrap_or(0);
                let min = templates
                    .iter()
                    .map(|t| served.get(t).copied().unwrap_or(0))
                    .min()
                    .unwrap();
                assert!(
                    max - min <= 1,
                    "seed {seed}: round-robin violated (served spread {max}-{min})"
                );
            }
        }
    }
}

#[test]
fn weighted_wfq_never_starves_a_nonempty_template() {
    let templates = ["QT1", "QT2", "QT3", "QT4"];
    for seed in 0..20u64 {
        let mut rng = Pcg32::seed_from(0x57A2_7E00 ^ seed);
        let arrivals: Vec<(String, PriorityClass)> = random_arrivals(&mut rng, &templates)
            .into_iter()
            .map(|(t, _)| (t, PriorityClass::Normal))
            .collect();
        let mut len: BTreeMap<&str, usize> = BTreeMap::new();
        for (t, _) in &arrivals {
            *len.entry(templates.iter().find(|x| **x == *t).unwrap())
                .or_insert(0) += 1;
        }
        let drained = drain_with_quota(&arrivals, 1);
        // Finish-tag bound: template t's k-th entry carries tag k, and a
        // pop always serves a minimal tag, so before it is served at most
        // k + 1 entries of each template s (capped by its backlog) can go
        // first. Position is 1-based within the drain.
        let mut kth: BTreeMap<&str, usize> = BTreeMap::new();
        for (position, (_, template, _)) in drained.iter().enumerate() {
            let t = *templates.iter().find(|x| **x == *template).unwrap();
            let k = kth.entry(t).or_insert(0);
            *k += 1;
            let bound: usize = templates
                .iter()
                .map(|s| (*k + 1).min(len.get(s).copied().unwrap_or(0)))
                .sum();
            assert!(
                position + 1 <= bound,
                "seed {seed}: service {k} of {t} at position {} \
                 exceeds the no-starvation bound {bound}",
                position + 1
            );
        }
    }
}

#[test]
fn drain_order_is_invariant_under_quota_chunking() {
    let templates = ["QT1", "QT2", "QT3", "QT4", "QT5"];
    for seed in 0..20u64 {
        let mut rng = Pcg32::seed_from(0xC4_0B17 ^ seed);
        let arrivals = random_arrivals(&mut rng, &templates);
        let reference = drain_with_quota(&arrivals, 1);
        for quota in [2u32, 5, 16] {
            let chunked = drain_with_quota(&arrivals, quota);
            assert_eq!(
                reference, chunked,
                "seed {seed}: drain order changed under quota {quota}"
            );
        }
    }
}

#[test]
fn edf_never_dequeues_a_later_deadline_before_an_earlier_one_within_a_class() {
    let templates = ["QT1", "QT2", "QT3", "QT4"];
    for seed in 0..20u64 {
        let mut rng = Pcg32::seed_from(0xEDF0_0001 ^ seed);
        let arrivals = random_arrivals(&mut rng, &templates);
        let drained = drain_staggered_with_quota(&arrivals, 1);
        assert_eq!(drained.len(), arrivals.len());
        // Within each class the drain must be sorted by deadline: arrival
        // times are strictly increasing, so per-template FIFOs hold
        // increasing deadlines and an EDF pop merges them in order.
        let mut last_by_class: BTreeMap<PriorityClass, f64> = BTreeMap::new();
        for (seq, template, class, deadline) in drained {
            if let Some(prev) = last_by_class.get(&class) {
                assert!(
                    deadline >= *prev,
                    "seed {seed}: seq {seq} ({template}, {class}) with deadline \
                     {deadline} dequeued after deadline {prev} in the same class"
                );
            }
            last_by_class.insert(class, deadline);
        }
    }
}

#[test]
fn equal_deadline_ties_follow_wfq_finish_tag_order() {
    let templates = ["QT1", "QT2", "QT3"];
    for seed in 0..20u64 {
        let mut rng = Pcg32::seed_from(0xEDF0_0002 ^ seed);
        let arrivals = random_arrivals(&mut rng, &templates);
        // All enqueued at t=0: with the budget enabled every ticket gets
        // the *same* finite deadline, so EDF is pure tie-break territory
        // and the drain must match the deadline-free WFQ reference.
        let reference = drain_with_quota(&arrivals, 1);
        let ctl = edf_controller();
        assert!(!ctl.set_capacity(&ServerId::new("s0"), 1, SimTime::ZERO));
        for (template, class) in &arrivals {
            ctl.enqueue("SELECT 1", template, *class, SimTime::ZERO)
                .expect("depth bound disabled; enqueue cannot shed");
        }
        let mut tied = Vec::with_capacity(arrivals.len());
        while ctl.queue_depth() > 0 {
            let batch = ctl.dequeue_batch(SimTime::ZERO);
            assert!(batch.shed.is_empty());
            for t in batch.admitted {
                tied.push((t.seq, t.template, t.class));
            }
        }
        assert_eq!(
            reference, tied,
            "seed {seed}: equal finite deadlines must drain in WFQ finish-tag order"
        );
    }
}

#[test]
fn edf_drain_order_is_invariant_under_quota_chunking() {
    let templates = ["QT1", "QT2", "QT3", "QT4", "QT5"];
    for seed in 0..20u64 {
        let mut rng = Pcg32::seed_from(0xEDF0_0003 ^ seed);
        let arrivals = random_arrivals(&mut rng, &templates);
        let reference = drain_staggered_with_quota(&arrivals, 1);
        for quota in [2u32, 5, 16] {
            let chunked = drain_staggered_with_quota(&arrivals, quota);
            assert_eq!(
                reference, chunked,
                "seed {seed}: EDF drain order changed under quota {quota}"
            );
        }
    }
}
