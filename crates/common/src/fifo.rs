//! A bounded map that evicts in insertion order.
//!
//! The one FIFO structure behind the coordinator's bounded state: the
//! integrator's caches (the plan cache, the compiled-template cache and
//! each template's two memos) and the load balancer's per-template state.
//! A key lives in the map and in the queue, so callers key it on an `Arc`
//! (or something as small): the two copies then share one allocation.
//! Eviction depends only on the order of inserts — never on which keys
//! are read, nor on thread interleavings that re-touch existing keys — so
//! a cache built on it evicts the same entries at any thread count as long
//! as its inserts arrive in a deterministic order (DESIGN.md §3
//! "Deferred inserts and bounded caches").

use std::borrow::Borrow;
use std::collections::{BTreeMap, VecDeque};

/// Map holding at most `capacity` entries, oldest insert evicted first.
#[derive(Debug)]
pub struct FifoMap<K, V> {
    entries: BTreeMap<K, V>,
    /// Insertion order of exactly the live keys: every removal also takes
    /// the key out of the queue, so a key that is removed and inserted
    /// again queues once, at its new position, and the queue can never
    /// outgrow the map.
    order: VecDeque<K>,
    /// Maximum live entries; 0 means unbounded.
    capacity: usize,
}

impl<K: Ord + Clone, V> FifoMap<K, V> {
    /// Empty map holding at most `capacity` entries (0 = unbounded).
    pub fn new(capacity: usize) -> Self {
        FifoMap {
            entries: BTreeMap::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    /// The configured entry cap (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The value stored under `key`, if any. Reading never reorders.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.entries.get(key)
    }

    /// The value stored under `key`, for updating in place (its queue
    /// position stays).
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.entries.get_mut(key)
    }

    /// Every live value, in key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.values_mut()
    }

    /// Store `value` under `key` and return how many entries the cap
    /// evicted to make room. Overwriting a live key replaces its value,
    /// keeps its queue position and evicts nothing.
    pub fn insert(&mut self, key: K, value: V) -> usize {
        if let Some(slot) = self.entries.get_mut(&key) {
            *slot = value;
            return 0;
        }
        self.order.push_back(key.clone());
        self.entries.insert(key, value);
        let mut evicted = 0;
        while self.capacity > 0 && self.entries.len() > self.capacity {
            // The queue holds every live key, so it cannot run dry first.
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.entries.remove(&oldest);
            evicted += 1;
        }
        evicted
    }

    /// Drop every entry `keep` rejects (an invalidation, not an eviction)
    /// and return how many were dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|k, v| keep(k, v));
        let dropped = before - self.entries.len();
        if dropped > 0 {
            let entries = &self.entries;
            self.order.retain(|k| entries.contains_key(k));
        }
        dropped
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_in_insertion_order_and_overwrite_keeps_position() {
        let mut m = FifoMap::new(2);
        assert_eq!(m.insert("a", 1), 0);
        assert_eq!(m.insert("b", 2), 0);
        assert_eq!(m.insert("a", 10), 0, "overwrite: no growth, no eviction");
        assert_eq!(m.insert("c", 3), 1);
        assert_eq!(m.get("a"), None, "a was still the FIFO head");
        assert_eq!((m.get("b"), m.get("c")), (Some(&2), Some(&3)));
        assert_eq!(m.len(), 2);
    }

    /// The first stale-queue reproduction: a key dropped and inserted
    /// again used to sit in the queue twice, so the cap popped its *old*
    /// position — evicting the newest entry while an older one survived.
    #[test]
    fn reinserted_key_queues_at_its_new_position() {
        let mut m = FifoMap::new(3);
        m.insert("a", 0);
        assert_eq!(m.retain(|k, _| *k != "a"), 1);
        for key in ["b", "c", "a"] {
            assert_eq!(m.insert(key, 0), 0);
        }
        assert_eq!(m.insert("d", 0), 1);
        assert!(m.get("b").is_none(), "the oldest live entry is evicted");
        assert!(
            m.get("a").is_some(),
            "the re-inserted key is the newest but one"
        );
        assert_eq!(m.len(), 3);
    }

    /// The second: drop → re-insert churn below the cap never popped, so
    /// the queue grew by one pair per round, forever.
    #[test]
    fn churn_below_the_cap_cannot_grow_the_queue() {
        let mut m = FifoMap::new(4);
        for round in 0..1_000 {
            m.insert("a", round);
            assert_eq!(m.order.len(), m.len());
            m.retain(|_, _| false);
        }
        assert_eq!((m.len(), m.order.len()), (0, 0));
    }

    #[test]
    fn zero_capacity_is_unbounded_and_clear_empties() {
        let mut m = FifoMap::new(0);
        for i in 0..100 {
            assert_eq!(m.insert(i, ()), 0);
        }
        assert_eq!(m.len(), 100);
        m.clear();
        assert_eq!((m.len(), m.order.len()), (0, 0));
    }
}
