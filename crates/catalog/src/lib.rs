//! The replica catalog: replication-aware source selection for
//! federations in the hundreds of servers.
//!
//! The paper's experiments route over three servers, where enumerating
//! every (fragment, server) pair at compile time is free. At 100–500
//! servers the EXPLAIN fan-out itself becomes the bottleneck: a query
//! touching two fully-replicated fragments would dispatch 2 × N EXPLAIN
//! probes before any routing decision. This crate ranks a fragment's
//! candidate servers *before* the fan-out and prunes them:
//!
//! 1. **Dominance pruning**: a replica that is strictly worse on both
//!    calibrated cost and reliability band than a surviving sibling can
//!    never be chosen by the cost-based optimizer, so consulting it is
//!    pure waste (the replicated-fragment pruning of Montoya et al.).
//! 2. **Replication-bound capping**: of the survivors, only the best
//!    `bound` replicas per fragment set (ordered by calibrated cost,
//!    then band, then server id) are consulted. Because the ordering is
//!    consistent with the federation's own effective-cost ordering, the
//!    eventual winner always survives the cap — pruning changes how many
//!    servers are consulted, never which plan wins.
//!
//! Which server hosts which table is recorded once, in the federation's
//! nickname catalog (the paper's nickname registration, §1): the
//! candidates handed to [`ReplicaCatalog::select_sources`] are already
//! that table's sources. The catalog only keeps what ranks them — per
//! server, one cost hint and the health routing pushes in.
//!
//! Selection is **fail-open**: candidates the catalog has no cost hint
//! for are passed through untouched, so a world that never registers
//! servers behaves exactly as if the catalog were absent.
//!
//! Determinism: servers are interned into dense slots through an ordered
//! map and everything per server is a slot-indexed vector; selection is a
//! pure function of (hints, health, candidate order) — never of slot
//! order — and every mutation is coordinator-side. The catalog never
//! reads a clock — time is always injected by the caller.
//!
//! Cost: selection is one slot lookup per candidate and allocates nothing
//! per candidate (DESIGN.md §14 "What a cold compile costs").

use parking_lot::Mutex;
use qcc_common::{Obs, ServerId, SimTime};
use std::collections::BTreeMap;

/// Reliability band of a healthy, error-free replica.
pub const HEALTHY_BAND: u8 = 0;

/// Reliability band of a replica believed down (worst possible).
pub const DOWN_BAND: u8 = u8::MAX;

/// Routing health of one server, as pushed by the calibration layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Health {
    /// Multiplier on the server's base cost hint (calibration ×
    /// reliability inflation; infinite while the server is down).
    pub cost_factor: f64,
    /// Discrete reliability band: [`HEALTHY_BAND`] for a clean history,
    /// higher as recent errors accumulate, [`DOWN_BAND`] while down.
    pub band: u8,
}

impl Default for Health {
    fn default() -> Self {
        Health {
            cost_factor: 1.0,
            band: HEALTHY_BAND,
        }
    }
}

/// What the catalog knows of one server.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Base per-fragment cost hint (typically 1 / server speed); `None`
    /// until the server is registered.
    cost_hint: Option<f64>,
    /// Last pushed health (healthy default until pushed).
    health: Health,
}

#[derive(Debug, Default)]
struct State {
    /// server → dense slot, handed out on the first `register` or
    /// `update_health` that names the server. Slots are only ever added,
    /// so a slot-indexed vector never needs invalidating.
    slots: BTreeMap<ServerId, usize>,
    servers: Vec<Slot>,
}

impl State {
    /// The slot of `server`, interning it on first sight.
    fn intern(&mut self, server: &ServerId) -> &mut Slot {
        let next = self.servers.len();
        let slot = *self.slots.entry(server.clone()).or_insert(next);
        if slot == next {
            self.servers.push(Slot::default());
        }
        &mut self.servers[slot]
    }
}

/// The deterministic replica catalog.
#[derive(Debug)]
pub struct ReplicaCatalog {
    state: Mutex<State>,
    /// Replication bound: the maximum number of replicas consulted per
    /// fragment set (0 = unbounded; dominance pruning still applies).
    bound: usize,
    obs: Obs,
}

impl ReplicaCatalog {
    /// Empty catalog with the given replication bound (0 = unbounded).
    pub fn new(bound: usize) -> Self {
        ReplicaCatalog {
            state: Mutex::new(State::default()),
            bound,
            obs: Obs::off(),
        }
    }

    /// Attach an observability handle (registration journal events).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The replication bound (0 = unbounded).
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Register `server` with its per-fragment cost hint at virtual time
    /// `at`. Re-registering updates the hint in place (no second journal
    /// event). Coordinator-side only.
    pub fn register(&self, server: ServerId, cost_hint: f64, at: SimTime) {
        let fresh = self
            .state
            .lock()
            .intern(&server)
            .cost_hint
            .replace(cost_hint)
            .is_none();
        if fresh {
            self.obs.event(
                at,
                "catalog_register",
                vec![
                    ("server", (&server).into()),
                    ("cost_hint", cost_hint.into()),
                ],
            );
        }
    }

    /// Push routing health for `server` (calibration × reliability). No
    /// journal event — this is the hot path, refreshed between batches.
    pub fn update_health(&self, server: &ServerId, cost_factor: f64, band: u8) {
        self.state.lock().intern(server).health = Health { cost_factor, band };
    }

    /// The last pushed health of `server` (healthy default if never set).
    pub fn health(&self, server: &ServerId) -> Health {
        let st = self.state.lock();
        st.slots
            .get(server)
            .map(|&slot| st.servers[slot].health)
            .unwrap_or_default()
    }

    /// Source selection: prune `candidates` — the servers hosting every
    /// table in `fragments` — for one fragment, preserving the original
    /// candidate order.
    ///
    /// A candidate is *scoreable* when it is registered; unscoreable
    /// candidates fail open (kept untouched, exempt from the bound), and
    /// with no fragment names nothing is scoreable. Scoreable candidates
    /// are scored `(calibrated cost, band)` where cost = the server's
    /// hint added once per fragment name, times its health factor, then:
    ///
    /// 1. a candidate strictly worse than some sibling on *both* cost
    ///    and band is dominated and dropped;
    /// 2. the survivors are capped to the best `bound` by
    ///    `(cost, band, server id)` — an ordering consistent with the
    ///    federation's effective-cost ordering, so the cheapest replica
    ///    (the eventual winner) always survives.
    pub fn select_sources(&self, fragments: &[String], candidates: &[ServerId]) -> Vec<ServerId> {
        struct Scored {
            index: usize,
            cost: f64,
            band: u8,
        }
        if fragments.is_empty() {
            return candidates.to_vec();
        }
        let st = self.state.lock();
        // `keep[i]` starts out true for exactly the fail-open candidates.
        let mut keep = vec![false; candidates.len()];
        let mut scored: Vec<Scored> = Vec::with_capacity(candidates.len());
        for (index, server) in candidates.iter().enumerate() {
            let known = st.slots.get(server).map(|&slot| st.servers[slot]);
            match known {
                Some(Slot {
                    cost_hint: Some(hint),
                    health,
                }) => scored.push(Scored {
                    index,
                    // The same float sum, term by term, as one hint per
                    // fragment name.
                    cost: fragments.iter().fold(0.0, |sum, _| sum + hint) * health.cost_factor,
                    band: health.band,
                }),
                _ => keep[index] = true,
            }
        }
        drop(st);

        // Dominance: strictly worse on BOTH axes than some sibling, i.e.
        // the cheapest cost in any strictly lower band is strictly below
        // its own. `floor` holds the cheapest cost per distinct band,
        // ascending, then (second loop) per band the cheapest *below* it.
        // Infinity stands for "none": `inf < x` and `NaN < x` never hold.
        let mut floor: Vec<(u8, f64)> = Vec::new();
        for c in &scored {
            let at = floor.binary_search_by_key(&c.band, |&(band, _)| band);
            let at = at.unwrap_or_else(|at| {
                floor.insert(at, (c.band, f64::INFINITY));
                at
            });
            if c.cost < floor[at].1 {
                floor[at].1 = c.cost;
            }
        }
        let mut below = f64::INFINITY;
        for (_, cheapest) in floor.iter_mut() {
            let own = std::mem::replace(cheapest, below);
            if own < below {
                below = own;
            }
        }
        scored.retain(|c| {
            let at = floor.binary_search_by_key(&c.band, |&(band, _)| band);
            !at.is_ok_and(|at| floor[at].1 < c.cost)
        });

        // Cap to the best `bound` by (cost, band, candidate order) — a
        // total order, so the best `bound` are one set however they are
        // found. The candidate order tie-break equals server-id order
        // whenever the caller passes candidates sorted by id.
        if self.bound > 0 && scored.len() > self.bound {
            scored.select_nth_unstable_by(self.bound - 1, |a, b| {
                a.cost
                    .total_cmp(&b.cost)
                    .then(a.band.cmp(&b.band))
                    .then(a.index.cmp(&b.index))
            });
            scored.truncate(self.bound);
        }
        for c in &scored {
            keep[c.index] = true;
        }
        let kept = candidates.iter().zip(keep).filter(|(_, keep)| *keep);
        kept.map(|(server, _)| server.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::Pcg32;

    fn ids(names: &[&str]) -> Vec<ServerId> {
        names.iter().map(ServerId::new).collect()
    }

    fn catalog_of(bound: usize, hints: &[(&str, f64)]) -> ReplicaCatalog {
        let c = ReplicaCatalog::new(bound);
        for (server, hint) in hints {
            c.register(ServerId::new(server), *hint, SimTime::ZERO);
        }
        c
    }

    fn t() -> Vec<String> {
        vec!["t".to_string()]
    }

    /// `select_sources` as it stood before the slot index, kept verbatim as
    /// the reference the property below compares against. It reads the two
    /// string-keyed maps the catalog used to hold.
    fn reference_select_sources(
        registered: &BTreeMap<String, BTreeMap<ServerId, f64>>,
        pushed: &BTreeMap<ServerId, Health>,
        bound: usize,
        fragments: &[String],
        candidates: &[ServerId],
    ) -> Vec<ServerId> {
        struct Scored {
            index: usize,
            cost: f64,
            band: u8,
        }
        let mut scored: Vec<Scored> = Vec::new();
        let mut fail_open: Vec<usize> = Vec::new();
        for (index, server) in candidates.iter().enumerate() {
            let mut cost = 0.0;
            let mut known = !fragments.is_empty();
            for fragment in fragments {
                match registered
                    .get(&fragment.to_ascii_lowercase())
                    .and_then(|per_fragment| per_fragment.get(server))
                {
                    Some(cost_hint) => cost += cost_hint,
                    None => {
                        known = false;
                        break;
                    }
                }
            }
            if !known {
                fail_open.push(index);
                continue;
            }
            let health = pushed.get(server).copied().unwrap_or_default();
            scored.push(Scored {
                index,
                cost: cost * health.cost_factor,
                band: health.band,
            });
        }

        // Dominance: strictly worse on BOTH axes than some sibling.
        let dominated: Vec<bool> = scored
            .iter()
            .map(|c| {
                scored
                    .iter()
                    .any(|other| other.band < c.band && other.cost < c.cost)
            })
            .collect();
        let mut survivors: Vec<&Scored> = scored
            .iter()
            .zip(&dominated)
            .filter(|(_, &dominated)| !dominated)
            .map(|(c, _)| c)
            .collect();

        survivors.sort_by(|a, b| {
            a.cost
                .total_cmp(&b.cost)
                .then(a.band.cmp(&b.band))
                .then(a.index.cmp(&b.index))
        });
        if bound > 0 {
            survivors.truncate(bound);
        }

        let mut keep: Vec<usize> = fail_open;
        keep.extend(survivors.iter().map(|c| c.index));
        keep.sort_unstable();
        keep.into_iter()
            .map(|index| candidates[index].clone())
            .collect()
    }

    /// Seeded property: over partially registered fleets, mixed-case
    /// nicknames, shuffled candidates with strangers, every band class and
    /// infinite / NaN / tied costs, per-server hints return what the double
    /// loop over per-table maps returned when every registered server
    /// carries its one hint under every requested nickname.
    #[test]
    fn selection_equals_the_reference_on_generated_catalogs() {
        let mut rng = Pcg32::seed_from(0x5e1ec7);
        let mut pruned_cases = 0;
        for case in 0..2_500 {
            let bound = rng.range_u64(0, 6) as usize;
            let catalog = ReplicaCatalog::new(bound);
            let mut registered: BTreeMap<String, BTreeMap<ServerId, f64>> = BTreeMap::new();
            let mut pushed: BTreeMap<ServerId, Health> = BTreeMap::new();
            let nicknames = &["Big_A", "small_s", "ORDERS"][..rng.range_u64(1, 4) as usize];
            let n = rng.range_u64(0, 41);
            let fleet: Vec<ServerId> = (0..n).map(|i| ServerId::new(format!("S{i:02}"))).collect();
            // Costs from a small pool so ties, infinities and NaN all occur.
            let hints = [0.25, 0.5, 0.5, 1.0, 2.0, f64::INFINITY];
            let factors = [1.0, 1.0, 2.0, 4.0, f64::INFINITY, f64::NAN];
            for server in &fleet {
                // Health pushed before, after or without a registration.
                let health_first = rng.range_u64(0, 2) == 0;
                let mut push = |rng: &mut Pcg32| {
                    if rng.range_u64(0, 3) == 0 {
                        let band = match rng.range_u64(0, 4) {
                            0 => HEALTHY_BAND,
                            1 | 2 => rng.range_u64(1, 11) as u8,
                            _ => DOWN_BAND,
                        };
                        let health = Health {
                            cost_factor: *rng.choose(&factors),
                            band,
                        };
                        catalog.update_health(server, health.cost_factor, health.band);
                        pushed.insert(server.clone(), health);
                    }
                };
                if health_first {
                    push(&mut rng);
                }
                if rng.range_u64(0, 5) > 0 {
                    let hint = *rng.choose(&hints);
                    catalog.register(server.clone(), hint, SimTime::ZERO);
                    for nickname in nicknames {
                        let per_fragment = registered.entry(nickname.to_ascii_lowercase());
                        per_fragment.or_default().insert(server.clone(), hint);
                    }
                }
                if !health_first {
                    push(&mut rng);
                }
            }
            let mut candidates = fleet.clone();
            candidates.extend(ids(&["X1", "X2"]));
            rng.shuffle(&mut candidates);
            candidates.truncate(rng.range_u64(0, candidates.len() as u64 + 1) as usize);
            let asked: Vec<String> = nicknames
                .iter()
                .map(|name| match rng.range_u64(0, 3) {
                    0 => name.to_ascii_uppercase(),
                    1 => name.to_ascii_lowercase(),
                    _ => name.to_string(),
                })
                .collect();
            let expected =
                reference_select_sources(&registered, &pushed, bound, &asked, &candidates);
            assert_eq!(
                catalog.select_sources(&asked, &candidates),
                expected,
                "case {case}: bound {bound}, {asked:?} over {candidates:?}"
            );
            pruned_cases += usize::from(expected.len() < candidates.len());
        }
        assert!(pruned_cases > 1_000, "only {pruned_cases} cases pruned");
    }

    #[test]
    fn register_is_once_per_server() {
        let obs = Obs::new();
        let c = ReplicaCatalog::new(1).with_obs(obs.clone());
        let at = SimTime::from_millis(5.0);
        c.register(ServerId::new("S1"), 1.0, at);
        c.register(ServerId::new("S2"), 0.5, at);
        c.register(ServerId::new("S1"), 0.25, at); // update, no second event
        assert_eq!(obs.events_of("catalog_register").len(), 2);
        let kept = c.select_sources(&t(), &ids(&["S1", "S2"]));
        assert_eq!(kept, ids(&["S1"]), "the updated hint ranks S1 first");
    }

    #[test]
    fn selection_caps_to_cheapest_bound() {
        let c = catalog_of(2, &[("S1", 1.0), ("S2", 0.5), ("S3", 0.8), ("S4", 2.0)]);
        let kept = c.select_sources(&t(), &ids(&["S1", "S2", "S3", "S4"]));
        assert_eq!(kept, ids(&["S2", "S3"]), "two cheapest, original order");
    }

    #[test]
    fn dominated_replica_is_pruned_before_the_cap() {
        // S3 is strictly worse than S1 on both cost and band; S2 is
        // cheaper but in a worse band (not dominated, survives).
        let c = catalog_of(0, &[("S1", 1.0), ("S2", 0.5), ("S3", 3.0)]);
        c.update_health(&ServerId::new("S2"), 1.0, 2);
        c.update_health(&ServerId::new("S3"), 1.0, 2);
        let kept = c.select_sources(&t(), &ids(&["S1", "S2", "S3"]));
        assert_eq!(kept, ids(&["S1", "S2"]));
    }

    #[test]
    fn cheapest_replica_always_survives() {
        let c = catalog_of(1, &[("S1", 0.9), ("S2", 0.2), ("S3", 0.4)]);
        let kept = c.select_sources(&t(), &ids(&["S1", "S2", "S3"]));
        assert_eq!(kept, ids(&["S2"]));
    }

    #[test]
    fn health_factor_reorders_selection() {
        let c = catalog_of(1, &[("S1", 1.0), ("S2", 0.5)]);
        // S2 is nominally cheaper, but calibration learned it is 4× slow.
        c.update_health(&ServerId::new("S2"), 4.0, HEALTHY_BAND);
        let kept = c.select_sources(&t(), &ids(&["S1", "S2"]));
        assert_eq!(kept, ids(&["S1"]));
    }

    #[test]
    fn multi_fragment_cost_is_summed() {
        // 0.1 is below its successor, but three of each add up to the same
        // float: the tie then falls to candidate order.
        let up = f64::from_bits(0.1f64.to_bits() + 1);
        let c = catalog_of(1, &[("S1", 0.1), ("S2", up)]);
        let candidates = ids(&["S2", "S1"]);
        assert_eq!(c.select_sources(&t(), &candidates), ids(&["S1"]));
        let three: Vec<String> = ["a", "b", "c"].map(String::from).to_vec();
        assert_eq!(c.select_sources(&three, &candidates), ids(&["S2"]));
    }

    #[test]
    fn unregistered_candidates_fail_open() {
        let c = catalog_of(1, &[("S1", 1.0), ("S2", 0.5)]);
        // S9 has no hint: it must pass through even though the bound is 1,
        // and a pushed health alone does not register it.
        c.update_health(&ServerId::new("S9"), 1.0, HEALTHY_BAND);
        let kept = c.select_sources(&t(), &ids(&["S1", "S2", "S9"]));
        assert_eq!(kept, ids(&["S2", "S9"]));
        // No fragment names: nothing is scoreable, everything passes.
        let kept = c.select_sources(&[], &ids(&["S1", "S2"]));
        assert_eq!(kept, ids(&["S1", "S2"]));
    }

    #[test]
    fn nickname_lookup_is_case_insensitive() {
        // Only the number of names counts, so their case cannot matter.
        let c = catalog_of(1, &[("S1", 1.0), ("S2", 0.5)]);
        let candidates = ids(&["S1", "S2"]);
        assert_eq!(
            c.select_sources(&["BIG_A".into()], &candidates),
            c.select_sources(&["big_a".into()], &candidates)
        );
    }
}
