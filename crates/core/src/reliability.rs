//! Availability and reliability tracking (§3.3).
//!
//! * A server the QCC believes is **down** has its costs pinned to
//!   infinity so no fragments route to it; daemon probes flip it back.
//! * A server that is up but **flaky** (transient faults) gets a
//!   reliability factor > 1: *"QCC influences II to access not only high
//!   performance but also highly available remote servers."*

use parking_lot::Mutex;
use qcc_common::{Obs, ServerId, SimTime};
use std::collections::BTreeMap;

/// Cost inflation per unit of recent error rate:
/// `factor = 1 + RELIABILITY_PENALTY × error_rate`.
const RELIABILITY_PENALTY: f64 = 4.0;
/// Request outcomes remembered per server for the error rate.
const RELIABILITY_WINDOW: usize = 16;

#[derive(Debug, Default)]
struct ServerHealth {
    /// Believed down since (None = believed up).
    down_since: Option<SimTime>,
    /// Ring of the last [`RELIABILITY_WINDOW`] request outcomes (true =
    /// success).
    outcomes: Vec<bool>,
    next: usize,
}

impl ServerHealth {
    fn push(&mut self, ok: bool) {
        if self.outcomes.len() < RELIABILITY_WINDOW {
            self.outcomes.push(ok);
        } else {
            self.outcomes[self.next] = ok;
            self.next = (self.next + 1) % RELIABILITY_WINDOW;
        }
    }

    fn error_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let errors = self.outcomes.iter().filter(|&&ok| !ok).count();
        errors as f64 / self.outcomes.len() as f64
    }
}

/// Shared availability / reliability state.
#[derive(Debug, Default)]
pub struct ReliabilityTracker {
    state: Mutex<BTreeMap<ServerId, ServerHealth>>,
    obs: Obs,
}

impl ReliabilityTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        ReliabilityTracker::default()
    }

    /// Attach an observability handle (up/down transition counters and
    /// `server_down` journal events). All mutating entry points here are
    /// called from deferred effects or the daemon — coordinator-sequential
    /// contexts — so journaling transitions directly is deterministic.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Record a successful interaction with a server. Clears the down
    /// flag (the server evidently answered).
    pub fn record_success(&self, server: &ServerId) {
        let mut st = self.state.lock();
        let h = st.entry(server.clone()).or_default();
        h.push(true);
        let was_down = h.down_since.take().is_some();
        drop(st);
        if was_down {
            self.obs
                .counter_inc("server_recovered_total", &[("server", server.as_str())]);
        }
    }

    /// Record a transient fault (server answered with an error).
    pub fn record_fault(&self, server: &ServerId) {
        let mut st = self.state.lock();
        st.entry(server.clone()).or_default().push(false);
        drop(st);
        self.obs
            .counter_inc("server_faults_total", &[("server", server.as_str())]);
    }

    /// Record that the server did not answer at all: mark it down.
    pub fn record_unreachable(&self, server: &ServerId, at: SimTime) {
        let mut st = self.state.lock();
        let h = st.entry(server.clone()).or_default();
        h.push(false);
        let went_down = h.down_since.is_none();
        h.down_since.get_or_insert(at);
        drop(st);
        if went_down {
            self.obs
                .counter_inc("server_down_total", &[("server", server.as_str())]);
            self.obs
                .event(at, "server_down", [("server", server.into())]);
        }
    }

    /// Daemon probe verdicts.
    pub fn record_probe(&self, server: &ServerId, up: bool, at: SimTime) {
        if up {
            self.record_success(server);
        } else {
            self.record_unreachable(server, at);
        }
    }

    /// Is the server currently believed down?
    pub fn is_down(&self, server: &ServerId) -> bool {
        self.state
            .lock()
            .get(server)
            .is_some_and(|h| h.down_since.is_some())
    }

    /// The reliability factor to multiply into the server's costs:
    /// infinity while down, otherwise `1 + penalty × recent error rate`.
    pub fn factor(&self, server: &ServerId) -> f64 {
        let st = self.state.lock();
        match st.get(server) {
            None => 1.0,
            Some(h) if h.down_since.is_some() => f64::INFINITY,
            Some(h) => 1.0 + RELIABILITY_PENALTY * h.error_rate(),
        }
    }

    /// Every server currently believed down, in id order. Oracle
    /// accessor: the sim harness compares this against the injected
    /// outage schedule at end of run.
    pub fn down_servers(&self) -> Vec<ServerId> {
        self.state
            .lock()
            .iter()
            .filter(|(_, h)| h.down_since.is_some())
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// Recent error rate in `[0, 1]`.
    pub fn error_rate(&self, server: &ServerId) -> f64 {
        self.state
            .lock()
            .get(server)
            .map(ServerHealth::error_rate)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> ReliabilityTracker {
        ReliabilityTracker::new()
    }

    #[test]
    fn unknown_server_is_neutral() {
        let t = tracker();
        assert_eq!(t.factor(&ServerId::new("S1")), 1.0);
        assert!(!t.is_down(&ServerId::new("S1")));
    }

    #[test]
    fn down_server_costs_infinity() {
        let t = tracker();
        let s = ServerId::new("S1");
        t.record_unreachable(&s, SimTime::ZERO);
        assert!(t.is_down(&s));
        assert_eq!(t.factor(&s), f64::INFINITY);
        // A successful probe restores it.
        t.record_probe(&s, true, SimTime::from_millis(100.0));
        assert!(!t.is_down(&s));
        assert!(t.factor(&s).is_finite());
    }

    #[test]
    fn flaky_server_gets_inflated_costs() {
        let t = tracker();
        let s = ServerId::new("S1");
        for i in 0..16 {
            if i % 4 == 0 {
                t.record_fault(&s);
            } else {
                t.record_success(&s);
            }
        }
        let f = t.factor(&s);
        // 25% errors × penalty 4 → factor 2.0.
        assert!((f - 2.0).abs() < 1e-9, "factor {f}");
        assert!((t.error_rate(&s) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn window_forgets_old_faults() {
        let t = tracker();
        let s = ServerId::new("S1");
        for _ in 0..16 {
            t.record_fault(&s);
        }
        assert!(t.factor(&s) > 4.0);
        for _ in 0..16 {
            t.record_success(&s);
        }
        assert_eq!(t.factor(&s), 1.0);
    }

    #[test]
    fn down_since_persists_across_faults() {
        let t = tracker();
        let s = ServerId::new("S1");
        t.record_unreachable(&s, SimTime::from_millis(5.0));
        t.record_unreachable(&s, SimTime::from_millis(9.0));
        assert!(t.is_down(&s));
    }

    #[test]
    fn transitions_counted_once_not_per_record() {
        let obs = Obs::new();
        let t = ReliabilityTracker::new().with_obs(obs.clone());
        let s = ServerId::new("S1");
        t.record_success(&s); // up → up: no transition
        t.record_unreachable(&s, SimTime::ZERO);
        t.record_unreachable(&s, SimTime::from_millis(1.0)); // still down
        t.record_success(&s);
        t.record_success(&s); // still up
        assert_eq!(
            obs.counter_value("server_down_total", &[("server", "S1")]),
            1
        );
        assert_eq!(
            obs.counter_value("server_recovered_total", &[("server", "S1")]),
            1
        );
        assert_eq!(obs.events_of("server_down").len(), 1);
    }
}
