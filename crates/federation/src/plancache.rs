//! The meta-wrapper's plan cache.
//!
//! Figure 5's walkthrough: *"since we already have a plan and an estimated
//! cost for QF1, MW can compute the calibrated runtime cost without
//! having to consult the wrapper."* The cache stores each wrapper's raw
//! EXPLAIN response keyed by (server, exact fragment SQL); on a hit the
//! meta-wrapper re-applies the *current* calibration factors to the
//! cached raw estimates and skips the network round trip entirely.
//!
//! Values are [`SharedPlans`]: a hit is a pointer bump, and every
//! [`crate::FragmentCandidate`] built from a response shares its plan
//! with the cache by `Arc`, so neither a hit nor anything downstream of
//! it (enumerating, filtering, choosing candidates) deep-clones a plan
//! descriptor. The fragment SQL is an `Arc<str>` end to end: the compiled
//! template that translated it and the cache key hold the one allocation,
//! so probing with it allocates nothing. The hit/miss
//! counters, and their metric handles, are lock-free atomics — under
//! compile-time fan-out every worker thread probes the cache
//! concurrently, so `get` takes exactly one short map lock.
//!
//! The cache is **bounded**: at most `capacity` entries, evicted in
//! insertion order by the shared [`FifoMap`] so the eviction sequence is
//! deterministic — it depends only on the order of inserts, never on
//! access patterns or thread interleavings that re-touch existing keys.
//! Overwriting an existing key keeps its original queue position; an
//! invalidated key leaves the queue with its entry, so it is never
//! counted as an eviction later.

use parking_lot::Mutex;
use qcc_common::{CounterHandle, FifoMap, Obs, ServerId};
use qcc_wrapper::FragmentPlan;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default entry cap. Far above the workloads simulated here; the bound
/// exists so a production-scale stream of distinct fragment SQLs cannot
/// grow the cache forever.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 4096;

/// One wrapper's EXPLAIN response, shared between the cache and every
/// candidate built from it.
pub type SharedPlans = Arc<[Arc<FragmentPlan>]>;

/// Put the plans a wrapper just returned in shareable form (the plans
/// move; nothing is copied).
pub fn share_plans(plans: Vec<FragmentPlan>) -> SharedPlans {
    plans.into_iter().map(Arc::new).collect()
}

/// Shared compile-time plan cache with a FIFO entry cap.
#[derive(Debug)]
pub struct PlanCache {
    state: Mutex<FifoMap<(ServerId, Arc<str>), SharedPlans>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    obs: Obs,
    hits_total: CounterHandle,
    misses_total: CounterHandle,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// Empty cache with the default entry cap.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Empty cache holding at most `capacity` entries (0 = unbounded).
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            state: Mutex::new(FifoMap::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            obs: Obs::off(),
            hits_total: CounterHandle::default(),
            misses_total: CounterHandle::default(),
        }
    }

    /// Attach an observability handle (hit/miss/eviction counters).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.hits_total = obs.counter("plan_cache_hits_total", &[]);
        self.misses_total = obs.counter("plan_cache_misses_total", &[]);
        self.obs = obs;
        self
    }

    /// The configured entry cap (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.state.lock().capacity()
    }

    /// Cached wrapper plans for this (server, fragment SQL), if any.
    /// Hits share the stored plans; nothing is deep-cloned, and probing
    /// with an `Arc<str>` allocates nothing.
    pub fn get(&self, server: &ServerId, sql: impl Into<Arc<str>>) -> Option<SharedPlans> {
        let key = (server.clone(), sql.into());
        let found = self.state.lock().get(&key).cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.hits_total.inc();
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.misses_total.inc();
        }
        found
    }

    /// Store a wrapper's EXPLAIN response.
    pub fn put(&self, server: &ServerId, sql: impl Into<Arc<str>>, plans: Vec<FragmentPlan>) {
        self.put_shared(server, sql.into(), share_plans(plans));
    }

    /// Store an already-shared EXPLAIN response (the caller keeps a handle
    /// too). May evict the oldest entries to stay within the cap.
    pub fn put_shared(&self, server: &ServerId, sql: Arc<str>, plans: SharedPlans) {
        let evicted = self.state.lock().insert((server.clone(), sql), plans);
        if evicted > 0 {
            self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
            self.obs
                .counter_add("plan_cache_evictions_total", &[], evicted as u64);
        }
    }

    /// Drop every cached plan for one server (after it was down — its
    /// catalog may have changed while unreachable). Every entry under a
    /// server names tables that server hosts, so there is nothing finer
    /// to scope this to. Not counted as evictions.
    pub fn invalidate_server(&self, server: &ServerId) {
        self.state.lock().retain(|(s, _), _| s != server);
    }

    /// Drop everything.
    pub fn clear(&self) {
        self.state.lock().clear();
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of entries evicted by the cap (invalidations don't count).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.state.lock().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::Cost;

    fn plan(server: &str) -> FragmentPlan {
        FragmentPlan {
            server: ServerId::new(server),
            sql: "SELECT 1".into(),
            descriptor: None,
            cost: Some(Cost::fixed(3.0)),
            signature: "sig".into(),
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let c = PlanCache::new();
        let s = ServerId::new("S1");
        assert!(c.get(&s, "q").is_none());
        c.put(&s, "q", vec![plan("S1")]);
        assert_eq!(c.get(&s, "q").unwrap().len(), 1);
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn hits_share_the_stored_plans() {
        let c = PlanCache::new();
        let s = ServerId::new("S1");
        c.put(&s, "q", vec![plan("S1")]);
        let a = c.get(&s, "q").unwrap();
        let b = c.get(&s, "q").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a[0], &b[0]));
    }

    #[test]
    fn keys_are_per_server_and_sql() {
        let c = PlanCache::new();
        c.put(&ServerId::new("S1"), "q", vec![plan("S1")]);
        assert!(c.get(&ServerId::new("S2"), "q").is_none());
        assert!(c.get(&ServerId::new("S1"), "other").is_none());
    }

    #[test]
    fn invalidate_server_is_selective() {
        let c = PlanCache::new();
        c.put(&ServerId::new("S1"), "q", vec![plan("S1")]);
        c.put(&ServerId::new("S2"), "q", vec![plan("S2")]);
        c.invalidate_server(&ServerId::new("S1"));
        assert!(c.get(&ServerId::new("S1"), "q").is_none());
        assert!(c.get(&ServerId::new("S2"), "q").is_some());
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn cap_evicts_in_insertion_order() {
        let c = PlanCache::with_capacity(2);
        let s = ServerId::new("S1");
        c.put(&s, "q1", vec![plan("S1")]);
        c.put(&s, "q2", vec![plan("S1")]);
        c.put(&s, "q3", vec![plan("S1")]); // evicts q1 (oldest)
        assert!(c.get(&s, "q1").is_none());
        assert!(c.get(&s, "q2").is_some());
        assert!(c.get(&s, "q3").is_some());
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn overwrite_keeps_queue_position_and_never_evicts() {
        let c = PlanCache::with_capacity(2);
        let s = ServerId::new("S1");
        c.put(&s, "q1", vec![plan("S1")]);
        c.put(&s, "q2", vec![plan("S1")]);
        // Re-putting q1 is an overwrite: no growth, no eviction, and q1
        // stays oldest.
        c.put(&s, "q1", vec![plan("S1")]);
        assert_eq!((c.len(), c.evictions()), (2, 0));
        c.put(&s, "q3", vec![plan("S1")]);
        assert!(c.get(&s, "q1").is_none(), "q1 was still the FIFO head");
        assert!(c.get(&s, "q2").is_some());
    }

    #[test]
    fn invalidation_is_not_an_eviction() {
        let c = PlanCache::with_capacity(2);
        let s1 = ServerId::new("S1");
        let s2 = ServerId::new("S2");
        c.put(&s1, "q1", vec![plan("S1")]);
        c.put(&s2, "q2", vec![plan("S2")]);
        c.invalidate_server(&s1);
        assert_eq!(c.len(), 1);
        // Two inserts fit: (S1, q1) left the queue with its entry.
        c.put(&s2, "q3", vec![plan("S2")]);
        assert_eq!((c.len(), c.evictions()), (2, 0));
        c.put(&s2, "q4", vec![plan("S2")]); // now a real eviction: q2
        assert_eq!((c.len(), c.evictions()), (2, 1));
        assert!(c.get(&s2, "q2").is_none());
        assert!(c.get(&s2, "q3").is_some());
        assert!(c.get(&s2, "q4").is_some());
    }

    #[test]
    fn invalidated_then_reinserted_key_is_the_newest() {
        // Cap 3: put a, invalidate, put b, c, a, d. The stale queue used
        // to pop a's *old* position and evict the just-inserted a while
        // the older b survived.
        let c = PlanCache::with_capacity(3);
        let (s1, s2) = (ServerId::new("S1"), ServerId::new("S2"));
        c.put(&s1, "a", vec![plan("S1")]);
        c.invalidate_server(&s1);
        c.put(&s2, "b", vec![plan("S2")]);
        c.put(&s2, "c", vec![plan("S2")]);
        c.put(&s1, "a", vec![plan("S1")]);
        c.put(&s2, "d", vec![plan("S2")]);
        assert!(c.get(&s2, "b").is_none(), "b was the oldest live entry");
        assert!(c.get(&s1, "a").is_some());
        assert_eq!((c.len(), c.evictions()), (3, 1));
    }

    #[test]
    fn zero_capacity_is_unbounded() {
        let c = PlanCache::with_capacity(0);
        let s = ServerId::new("S1");
        for i in 0..100 {
            c.put(&s, format!("q{i}"), vec![plan("S1")]);
        }
        assert_eq!((c.len(), c.evictions()), (100, 0));
    }

    #[test]
    fn eviction_counter_surfaces_via_obs() {
        let obs = Obs::new();
        let c = PlanCache::with_capacity(1).with_obs(obs.clone());
        let s = ServerId::new("S1");
        c.put(&s, "q1", vec![plan("S1")]);
        c.put(&s, "q2", vec![plan("S1")]);
        let _ = c.get(&s, "q2");
        let _ = c.get(&s, "gone");
        assert_eq!(obs.counter_value("plan_cache_evictions_total", &[]), 1);
        assert_eq!(obs.counter_value("plan_cache_hits_total", &[]), 1);
        assert_eq!(obs.counter_value("plan_cache_misses_total", &[]), 1);
    }
}
