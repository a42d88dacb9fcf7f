//! Round-robin load distribution (§4).
//!
//! Implements both levels the paper describes:
//!
//! * **Global level** (§4.2): among the enumerated global plans, (1) for
//!   plans executing on the *same set of servers* keep only the cheapest
//!   (dominance elimination), (2) cluster the survivors whose calibrated
//!   costs are within the band (20 %) of the cheapest, and (3) rotate the
//!   cluster round-robin across repeated queries of the same template.
//!   The paper's §4.2 also gates rotation on a workload threshold (cost ×
//!   frequency). Here the threshold is 0, and at 0 the gate can never
//!   hold a template back: a positive cost times a frequency of at least
//!   1 always exceeds it. So there is no gate.
//! * **Fragment level** (§4.1): like the above, but a plan may only join
//!   the cluster if every fragment runs the *identical* plan shape as in
//!   the cheapest plan (only the server differs) — "exchangeable query
//!   fragment processing plans need to be identical".

use crate::config::{LoadBalanceMode, QccConfig};
use parking_lot::Mutex;
use qcc_common::{CounterHandle, FifoMap, Obs, ServerId};
use qcc_federation::GlobalCandidate;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Templates the balancer keeps a frequency and a cursor for, oldest first
/// out. A template that comes back after this many others starts a fresh
/// period, which is what `reset_period` does to every template anyway; a
/// stream of never-repeating statements then holds this many entries
/// instead of one per statement served.
const TEMPLATE_STATE_CAPACITY: usize = 4096;

/// Re-calibration exploration: every `EXPLORATION_INTERVAL`-th query of a
/// template in a period is routed to the best plan on a *different*
/// server set, so a server the router abandons keeps producing fresh
/// observations and its stale factor clears (§3.4's periodic
/// re-calibration, realized as lightweight in-band exploration).
const EXPLORATION_INTERVAL: u64 = 8;

#[derive(Debug, Default)]
struct TemplateState {
    /// Queries of this template seen so far in the current period.
    frequency: u64,
    /// Round-robin cursor.
    cursor: usize,
}

/// Round-robin plan rotation state.
#[derive(Debug)]
pub struct LoadBalancer {
    mode: LoadBalanceMode,
    band: f64,
    state: Mutex<FifoMap<Arc<str>, TemplateState>>,
    commits_total: CounterHandle,
    rotations_total: CounterHandle,
}

impl LoadBalancer {
    /// Fresh balancer.
    pub fn new(config: &QccConfig) -> Self {
        LoadBalancer {
            mode: config.load_balance,
            band: config.cost_band,
            state: Mutex::new(FifoMap::new(TEMPLATE_STATE_CAPACITY)),
            commits_total: CounterHandle::default(),
            rotations_total: CounterHandle::default(),
        }
    }

    /// Attach an observability handle (commit/rotation counters).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.commits_total = obs.counter("lb_commits_total", &[]);
        self.rotations_total = obs.counter("lb_rotations_total", &[]);
        self
    }

    /// The active mode.
    pub fn mode(&self) -> LoadBalanceMode {
        self.mode
    }

    /// Templates the balancer currently holds state for (bounded by a
    /// private capacity: the oldest template is forgotten first).
    pub fn tracked_templates(&self) -> usize {
        self.state.lock().len()
    }

    /// Reset per-template frequencies (the paper re-evaluates distribution
    /// periodically as calibrated costs change).
    pub fn reset_period(&self) {
        let mut st = self.state.lock();
        for t in st.values_mut() {
            t.frequency = 0;
        }
    }

    /// Choose a candidate index for this query. `candidates` must be
    /// non-empty. Equivalent to [`LoadBalancer::peek`] immediately
    /// followed by [`LoadBalancer::commit`].
    pub fn choose(&self, template: &str, candidates: &[GlobalCandidate]) -> usize {
        let (pick, commit) = self.peek(template, candidates);
        self.commit(template, commit);
        pick
    }

    /// Decide a candidate index *without* mutating any state, returning
    /// the pick plus the [`ChoiceCommit`] that records it.
    ///
    /// This is the scatter-safe half of [`LoadBalancer::choose`]: workers
    /// peek against frozen state, and the coordinator applies the commits
    /// at the gather barrier in deterministic order. The decision is made
    /// as if the template's frequency had already been incremented, so
    /// `peek`+`commit` replays the exact sequence `choose` produces.
    pub fn peek(&self, template: &str, candidates: &[GlobalCandidate]) -> (usize, ChoiceCommit) {
        debug_assert!(!candidates.is_empty());
        const NO_ROTATION: ChoiceCommit = ChoiceCommit {
            rotated: false,
            cluster_len: 0,
        };
        let cheapest_idx = argmin(candidates);

        // The frequency this query brings the template to (state itself
        // is untouched until commit).
        let (frequency, cursor) = {
            let st = self.state.lock();
            st.get(template)
                .map(|t| (t.frequency + 1, t.cursor))
                .unwrap_or((1, 0))
        };

        // Re-calibration exploration (§3.4). Runs in every mode; in the
        // rotating modes it simply adds one extra off-cluster sample per
        // period.
        if frequency % EXPLORATION_INTERVAL == 0 && candidates.len() > 1 {
            if let Some(alt) = best_alternative(candidates, cheapest_idx) {
                return (alt, NO_ROTATION);
            }
        }

        if self.mode == LoadBalanceMode::Disabled || candidates.len() == 1 {
            return (cheapest_idx, NO_ROTATION);
        }

        // Dominance elimination: cheapest plan per server set.
        let mut best_per_set: BTreeMap<Vec<&ServerId>, usize> = BTreeMap::new();
        for (i, c) in candidates.iter().enumerate() {
            let mut key: Vec<&ServerId> = c.servers().collect();
            key.sort_unstable();
            key.dedup();
            match best_per_set.get(&key) {
                Some(&j) if candidates[j].total_cost() <= c.total_cost() => {}
                _ => {
                    best_per_set.insert(key, i);
                }
            }
        }
        let mut survivors: Vec<usize> = best_per_set.into_values().collect();
        // Deterministic order: cost, then candidate index as a tiebreak
        // (BTreeMap iteration order must not leak into routing decisions).
        survivors.sort_by(|&a, &b| {
            candidates[a]
                .total_cost()
                .total_cmp(&candidates[b].total_cost())
                .then(a.cmp(&b))
        });

        let cheapest = survivors[0];
        let cheapest_cost = candidates[cheapest].total_cost();
        if !cheapest_cost.is_finite() || cheapest_cost <= 0.0 {
            return (cheapest, NO_ROTATION);
        }

        // Cluster within the band (and, at fragment level, with identical
        // per-fragment plan shapes).
        let cluster: Vec<usize> = survivors
            .into_iter()
            .filter(|&i| {
                let c = &candidates[i];
                if (c.total_cost() - cheapest_cost) / cheapest_cost > self.band {
                    return false;
                }
                if self.mode == LoadBalanceMode::FragmentLevel {
                    fragments_identical(c, &candidates[cheapest])
                } else {
                    true
                }
            })
            .collect();
        if cluster.len() <= 1 {
            return (cheapest, NO_ROTATION);
        }

        // Round-robin over the cluster (cursor advances at commit).
        let pick = cluster[cursor % cluster.len()];
        (
            pick,
            ChoiceCommit {
                rotated: true,
                cluster_len: cluster.len(),
            },
        )
    }

    /// Apply the state transition of a decision returned by
    /// [`LoadBalancer::peek`]: bump the template's frequency and, if the
    /// pick came from the rotation cluster, advance the cursor.
    pub fn commit(&self, template: &str, commit: ChoiceCommit) {
        let advance = |t: &mut TemplateState| {
            t.frequency += 1;
            if commit.rotated && commit.cluster_len > 0 {
                t.cursor = (t.cursor + 1) % commit.cluster_len;
            }
        };
        let mut st = self.state.lock();
        match st.get_mut(template) {
            Some(t) => advance(t),
            None => {
                let mut t = TemplateState::default();
                advance(&mut t);
                st.insert(Arc::from(template), t);
            }
        }
        drop(st);
        self.commits_total.inc();
        if commit.rotated {
            self.rotations_total.inc();
        }
    }
}

/// The deferred state transition of one [`LoadBalancer::peek`] decision.
#[derive(Debug, Clone, Copy)]
pub struct ChoiceCommit {
    /// The pick came from the rotation cluster, so the cursor advances.
    rotated: bool,
    /// Cluster size at decision time (the cursor wraps modulo this).
    cluster_len: usize,
}

/// The cheapest candidate whose server set differs from `cheapest`'s.
fn best_alternative(candidates: &[GlobalCandidate], cheapest: usize) -> Option<usize> {
    let base_set = candidates[cheapest].server_set();
    candidates
        .iter()
        .enumerate()
        .filter(|(i, c)| *i != cheapest && c.server_set() != base_set)
        .filter(|(_, c)| c.total_cost().is_finite())
        .min_by(|(i, a), (j, b)| a.total_cost().total_cmp(&b.total_cost()).then(i.cmp(j)))
        .map(|(i, _)| i)
}

fn argmin(candidates: &[GlobalCandidate]) -> usize {
    candidates
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.total_cost().total_cmp(&b.total_cost()))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// True when both plans run identical fragment plan shapes (the servers
/// may differ).
fn fragments_identical(a: &GlobalCandidate, b: &GlobalCandidate) -> bool {
    a.fragments.len() == b.fragments.len()
        && a.fragments
            .iter()
            .zip(&b.fragments)
            .all(|(x, y)| x.plan.signature == y.plan.signature)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::{Cost, FragmentId, QueryId, ServerId};
    use qcc_federation::FragmentCandidate;
    use qcc_wrapper::FragmentPlan;

    fn candidate(servers: &[(&str, f64, &str)], integration: f64) -> GlobalCandidate {
        GlobalCandidate {
            fragments: servers
                .iter()
                .enumerate()
                .map(|(i, (srv, cost, sig))| FragmentCandidate {
                    fragment: FragmentId::new(QueryId(0), i as u32),
                    plan: std::sync::Arc::new(FragmentPlan {
                        server: ServerId::new(srv),
                        sql: "SELECT 1".into(),
                        descriptor: None,
                        cost: Some(Cost::fixed(*cost)),
                        signature: (*sig).to_owned(),
                    }),
                    effective_cost: Cost::fixed(*cost),
                })
                .collect(),
            integration_cost: Cost::fixed(integration),
        }
    }

    fn balancer(mode: LoadBalanceMode) -> LoadBalancer {
        LoadBalancer::new(&QccConfig::with_load_balance(mode))
    }

    #[test]
    fn disabled_mode_always_cheapest() {
        let lb = balancer(LoadBalanceMode::Disabled);
        let cands = vec![
            candidate(&[("S1", 10.0, "p")], 0.0),
            candidate(&[("S2", 9.0, "p")], 0.0),
        ];
        for _ in 0..5 {
            assert_eq!(lb.choose("q", &cands), 1);
        }
    }

    #[test]
    fn paper_q6_scenario_global_level() {
        // §4.2: nine plans over {S1,S2,R1,R2}. Dominated plans (same server
        // set, higher cost) are eliminated; p5, p6, p8 survive and rotate.
        let lb = balancer(LoadBalanceMode::GlobalLevel);
        let cands = vec![
            candidate(&[("S1", 50.0, "a"), ("S2", 50.0, "b")], 0.0), // p1 dominated by p5
            candidate(&[("S1", 48.0, "a2"), ("S2", 49.0, "b")], 0.0), // p2 dominated
            candidate(&[("R1", 47.0, "a"), ("S2", 46.0, "b")], 0.0), // p3 dominated by p6
            candidate(&[("S1", 52.0, "a"), ("S2", 41.0, "b2")], 0.0), // p4 dominated
            candidate(&[("S1", 40.0, "a"), ("S2", 40.0, "b")], 0.0), // p5 survivor
            candidate(&[("R1", 42.0, "a"), ("S2", 41.0, "b")], 0.0), // p6 survivor
            candidate(&[("S1", 49.0, "a"), ("R2", 48.0, "b")], 0.0), // p7 dominated by p8
            candidate(&[("S1", 43.0, "a"), ("R2", 44.0, "b")], 0.0), // p8 survivor
            candidate(&[("R1", 60.0, "a"), ("R2", 60.0, "b")], 0.0), // p9 survivor but out of band
        ];
        let mut picks = Vec::new();
        for _ in 0..6 {
            picks.push(lb.choose("q6", &cands));
        }
        // Rotation among exactly {4, 5, 7} (p5, p6, p8).
        let unique: std::collections::BTreeSet<usize> = picks.iter().copied().collect();
        assert_eq!(unique, [4usize, 5, 7].into_iter().collect());
        // Perfect round-robin: each appears twice in 6 picks.
        for &i in &[4usize, 5, 7] {
            assert_eq!(picks.iter().filter(|&&p| p == i).count(), 2);
        }
    }

    #[test]
    fn out_of_band_plans_excluded() {
        let lb = balancer(LoadBalanceMode::GlobalLevel);
        let cands = vec![
            candidate(&[("S1", 100.0, "a")], 0.0),
            candidate(&[("S2", 125.0, "a")], 0.0), // 25% worse: out of 20% band
        ];
        for _ in 0..4 {
            assert_eq!(lb.choose("q", &cands), 0);
        }
    }

    #[test]
    fn fragment_level_requires_identical_shapes() {
        let lb = balancer(LoadBalanceMode::FragmentLevel);
        let cands = vec![
            candidate(&[("S1", 10.0, "idxscan(t.a = 5)")], 0.0),
            // Same cost band, same shape, different server: exchangeable.
            candidate(&[("R1", 10.5, "idxscan(t.a = 5)")], 0.0),
            // Same cost band but different shape: NOT exchangeable.
            candidate(&[("S2", 10.2, "seqscan(t,pred)")], 0.0),
        ];
        let picks: std::collections::BTreeSet<usize> =
            (0..6).map(|_| lb.choose("q", &cands)).collect();
        assert_eq!(picks, [0usize, 1].into_iter().collect());
    }

    #[test]
    fn global_level_allows_shape_substitution() {
        let lb = balancer(LoadBalanceMode::GlobalLevel);
        let cands = vec![
            candidate(&[("S1", 10.0, "idxscan(t.a = 5)")], 0.0),
            candidate(&[("S2", 10.2, "seqscan(t,pred)")], 0.0),
        ];
        let picks: std::collections::BTreeSet<usize> =
            (0..4).map(|_| lb.choose("q", &cands)).collect();
        assert_eq!(picks.len(), 2, "different shapes may rotate globally");
    }

    #[test]
    fn templates_rotate_independently() {
        let lb = balancer(LoadBalanceMode::GlobalLevel);
        let cands = vec![
            candidate(&[("S1", 10.0, "a")], 0.0),
            candidate(&[("S2", 10.0, "a")], 0.0),
        ];
        let a1 = lb.choose("qa", &cands);
        let b1 = lb.choose("qb", &cands);
        assert_eq!(a1, b1, "each template starts at cursor 0");
    }

    #[test]
    fn template_state_is_bounded_and_the_oldest_template_starts_over() {
        let lb = balancer(LoadBalanceMode::GlobalLevel);
        let cands = vec![
            candidate(&[("S1", 10.0, "a")], 0.0),
            candidate(&[("S2", 10.0, "a")], 0.0),
        ];
        assert_eq!(lb.choose("q0", &cands), 0, "cursor 0 -> 1");
        for i in 1..=TEMPLATE_STATE_CAPACITY {
            lb.choose(&format!("q{i}"), &cands);
        }
        assert_eq!(lb.tracked_templates(), TEMPLATE_STATE_CAPACITY);
        assert_eq!(lb.choose("q0", &cands), 0, "q0 was evicted: cursor 0 again");
        assert_eq!(lb.choose("q0", &cands), 1);
    }

    #[test]
    fn reset_period_clears_frequency() {
        // Exploration fires on the EXPLORATION_INTERVAL-th query of a
        // template's period; a reset restarts that count.
        let lb = balancer(LoadBalanceMode::Disabled);
        let cands = vec![
            candidate(&[("S1", 10.0, "a")], 0.0),
            candidate(&[("S2", 12.0, "a")], 0.0),
        ];
        for _ in 1..EXPLORATION_INTERVAL {
            assert_eq!(lb.choose("q", &cands), 0);
        }
        lb.reset_period();
        // Without the reset the first of these would be the exploration.
        for _ in 1..EXPLORATION_INTERVAL {
            assert_eq!(lb.choose("q", &cands), 0, "count restarted at reset");
        }
        assert_eq!(
            lb.choose("q", &cands),
            1,
            "the period's EXPLORATION_INTERVAL-th query explores"
        );
    }

    #[test]
    fn peek_is_pure_until_commit() {
        let lb = balancer(LoadBalanceMode::GlobalLevel);
        let cands = vec![
            candidate(&[("S1", 10.0, "a")], 0.0),
            candidate(&[("S2", 10.0, "a")], 0.0),
        ];
        let (p1, _) = lb.peek("q", &cands);
        let (p2, c2) = lb.peek("q", &cands);
        assert_eq!(p1, p2, "peek does not advance the cursor");
        lb.commit("q", c2);
        let (p3, _) = lb.peek("q", &cands);
        assert_ne!(p2, p3, "commit advances the cursor");
    }

    #[test]
    fn candidate_exactly_at_band_edge_is_included() {
        // The cluster filter drops a plan only when its relative distance
        // from the cheapest *exceeds* the band. At exactly 20% the plan is
        // interchangeable; one hair past it is not. Six picks stay short
        // of the first exploration.
        let lb = balancer(LoadBalanceMode::GlobalLevel);
        let cands = vec![
            candidate(&[("S1", 100.0, "a")], 0.0),
            candidate(&[("S2", 120.0, "a")], 0.0), // exactly +20%: in band
            candidate(&[("S3", 120.1, "a")], 0.0), // just past: out of band
        ];
        let picks: Vec<usize> = (0..6).map(|_| lb.choose("q", &cands)).collect();
        let unique: std::collections::BTreeSet<usize> = picks.iter().copied().collect();
        assert_eq!(
            unique,
            [0usize, 1].into_iter().collect(),
            "edge candidate rotates, past-edge candidate never picked"
        );
        for &i in &[0usize, 1] {
            assert_eq!(
                picks.iter().filter(|&&p| p == i).count(),
                3,
                "perfect round-robin over the two in-band plans"
            );
        }
    }

    #[test]
    fn infinite_cheapest_short_circuits() {
        let lb = balancer(LoadBalanceMode::GlobalLevel);
        let cands = vec![candidate(&[("S1", f64::INFINITY, "a")], 0.0)];
        assert_eq!(lb.choose("q", &cands), 0);
    }
}
