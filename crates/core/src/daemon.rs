//! The availability daemon (§3.3) with adaptive calibration cycles (§3.4).
//!
//! *"QCC also uses daemon programs that periodically access remote
//! sources, through MW, to ensure their availability. The daemon programs
//! are also used to derive initial query cost calibration factors by
//! exploring the network latency and processing latency at remote
//! sources."*
//!
//! Probe cadence adapts per server: the higher the variability of the
//! server's observed costs, the more often it is probed, within
//! configurable bounds.

use crate::Qcc;
use parking_lot::Mutex;
use qcc_common::{ServerId, SimClock, SimDuration, SimTime};
use qcc_wrapper::Wrapper;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How strongly variability shortens the probe interval.
const ADAPT_GAIN: f64 = 4.0;

#[derive(Debug, Clone, Copy)]
struct ProbeState {
    next_due: SimTime,
    interval_ms: f64,
    /// When this server was last actually probed (drives the fast re-probe
    /// path for servers believed down).
    last_probe: SimTime,
    /// Fastest ping ever observed: the server's personal baseline. Seeding
    /// from `current / baseline` self-normalizes link latency, which a
    /// fixed expectation cannot (a far-away healthy server is not slow).
    baseline_ping_ms: f64,
}

/// Periodically probes every wrapped source.
///
/// Time is *injected*: the daemon reads the shared [`SimClock`] handed to
/// its constructor (lint rule L1 — no component may consult the host
/// clock), so tests and experiments drive probe schedules by advancing
/// virtual time.
pub struct AvailabilityDaemon {
    qcc: Arc<Qcc>,
    wrappers: Vec<Arc<dyn Wrapper>>,
    clock: SimClock,
    state: Mutex<BTreeMap<ServerId, ProbeState>>,
}

impl AvailabilityDaemon {
    /// A daemon probing `wrappers` on behalf of `qcc`, telling time by
    /// `clock`.
    pub fn new(qcc: Arc<Qcc>, wrappers: Vec<Arc<dyn Wrapper>>, clock: SimClock) -> Self {
        AvailabilityDaemon {
            qcc,
            wrappers,
            clock,
            state: Mutex::new(BTreeMap::new()),
        }
    }

    /// Probe every source whose interval has elapsed at the current
    /// virtual time. Returns the servers probed. Call this from the
    /// experiment driver as virtual time advances (nothing sleeps).
    pub fn run_due_probes(&self) -> Vec<ServerId> {
        let at = self.clock.now();
        let (lo, _hi) = self.qcc.config.probe_interval_bounds_ms;
        let mut probed = Vec::new();
        for w in &self.wrappers {
            let id = w.server_id().clone();
            let state = { self.state.lock().get(&id).copied() };
            let due = match state {
                None => true,
                // A server believed down is re-probed at the fast bound
                // regardless of its scheduled `next_due`: down-ness may
                // have been detected by an execute failure *after* the
                // schedule was set (possibly to the 10 s upper bound), and
                // recovery detection must not wait that long.
                Some(p) if self.qcc.reliability.is_down(&id) => {
                    at >= p.last_probe + SimDuration::from_millis(lo)
                }
                Some(p) => at >= p.next_due,
            };
            if !due {
                continue;
            }
            self.probe_one(w.as_ref(), at);
            probed.push(id);
        }
        if !probed.is_empty() {
            // Counts adaptive probe cycles only (not startup `probe_all`),
            // so a nonzero value proves the mid-phase probe loop is alive.
            self.qcc.obs.counter_inc("probe_cycles_total", &[]);
        }
        probed
    }

    /// Probe every source unconditionally at the current virtual time
    /// (used at startup to seed calibration factors before any query
    /// runs).
    pub fn probe_all(&self) {
        let at = self.clock.now();
        for w in &self.wrappers {
            self.probe_one(w.as_ref(), at);
        }
    }

    fn probe_one(&self, wrapper: &dyn Wrapper, at: SimTime) {
        let id = wrapper.server_id().clone();
        let was_down = self.qcc.reliability.is_down(&id);
        let prev_baseline = self
            .state
            .lock()
            .get(&id)
            .map(|p| p.baseline_ping_ms)
            .unwrap_or(f64::INFINITY);
        let mut baseline = prev_baseline;
        let mut ping_ms = None;
        match wrapper.ping(at) {
            Ok(latency) => {
                self.qcc.reliability.record_probe(&id, true, at);
                // Seed the calibration factor from the ratio of this ping
                // to the server's own best-ever ping. A server probing 3×
                // slower than its baseline likely serves fragments ~3×
                // slower too; the baseline cancels out the (constant)
                // network latency of the link, which a fixed expectation
                // would misattribute to server slowness. The configured
                // `expected_ping_ms` only floors the baseline so that a
                // first-ever probe of a loaded server isn't taken as its
                // healthy self. Real observations override seeds at once.
                let ms = latency.as_millis();
                ping_ms = Some(ms);
                baseline = baseline.min(ms).max(self.qcc.config.expected_ping_ms);
                let ratio = ms / baseline;
                let seed = ratio.max(1.0);
                self.qcc.calibration.seed_server(&id, seed);
                self.qcc.obs.event(
                    at,
                    "calibration_seed",
                    [("server", (&id).into()), ("factor", seed.into())],
                );
                if was_down {
                    self.qcc
                        .obs
                        .event(at, "server_restored", [("server", (&id).into())]);
                }
            }
            Err(_) => {
                self.qcc.reliability.record_probe(&id, false, at);
            }
        }
        self.qcc.sync_catalog_health(&id);
        let outcome = if ping_ms.is_some() { "up" } else { "down" };
        self.qcc.obs.counter_inc(
            "probes_total",
            &[("server", id.as_str()), ("outcome", outcome)],
        );
        // Adaptive cycle: base interval shortened by observed variability.
        let cov = self.qcc.calibration.server_cov(&id).unwrap_or(0.0);
        let (lo, hi) = self.qcc.config.probe_interval_bounds_ms;
        let mut interval =
            (self.qcc.config.probe_interval_ms / (1.0 + ADAPT_GAIN * cov)).clamp(lo, hi);
        if self.qcc.reliability.is_down(&id) {
            // While the server is believed down, recovery detection is the
            // whole point of probing — hold the cycle at the fast bound
            // instead of whatever (possibly 10 s upper-bound) adaptive
            // interval its healthy history produced.
            interval = lo;
        }
        let mut fields = vec![("server", (&id).into()), ("ok", ping_ms.is_some().into())];
        if let Some(ms) = ping_ms {
            fields.push(("ms", ms.into()));
        }
        fields.push(("interval_ms", interval.into()));
        self.qcc.obs.event(at, "probe", fields);
        self.state.lock().insert(
            id,
            ProbeState {
                next_due: at + SimDuration::from_millis(interval),
                interval_ms: interval,
                last_probe: at,
                baseline_ping_ms: baseline,
            },
        );
    }

    /// The current probe interval for a server (after its last probe).
    pub fn probe_interval_ms(&self, server: &ServerId) -> Option<f64> {
        self.state.lock().get(server).map(|p| p.interval_ms)
    }
}

impl std::fmt::Debug for AvailabilityDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AvailabilityDaemon")
            .field("sources", &self.wrappers.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QccConfig;
    use qcc_common::{Column, DataType, Row, Schema, SimDuration, Value};
    use qcc_netsim::{Link, Network};
    use qcc_remote::{RemoteServer, ServerProfile};
    use qcc_storage::{Catalog, Table};
    use qcc_wrapper::RelationalWrapper;

    fn build(server_id: &str) -> (Arc<RemoteServer>, Arc<dyn Wrapper>) {
        let mut t = Table::new("t", Schema::new(vec![Column::new("a", DataType::Int)]));
        for i in 0..100i64 {
            t.insert(Row::new(vec![Value::Int(i)])).unwrap();
        }
        let mut c = Catalog::new();
        c.register(t);
        let server = RemoteServer::new(ServerProfile::new(ServerId::new(server_id)), c);
        let mut net = Network::new();
        net.add_link(ServerId::new(server_id), Link::lan());
        let wrapper: Arc<dyn Wrapper> =
            Arc::new(RelationalWrapper::new(Arc::clone(&server), Arc::new(net)));
        (server, wrapper)
    }

    #[test]
    fn probe_detects_outage_and_recovery() {
        let (server, wrapper) = build("S1");
        let qcc = Qcc::new(QccConfig::default());
        let clock = SimClock::new();
        let daemon = AvailabilityDaemon::new(Arc::clone(&qcc), vec![wrapper], clock.clone());
        let s1 = ServerId::new("S1");

        daemon.probe_all();
        assert!(!qcc.reliability.is_down(&s1));

        server
            .availability()
            .add_outage(SimTime::from_millis(10.0), SimTime::from_millis(20.0));
        clock.advance_to(SimTime::from_millis(15.0));
        daemon.probe_all();
        assert!(qcc.reliability.is_down(&s1));
        assert_eq!(qcc.reliability.factor(&s1), f64::INFINITY);

        clock.advance_to(SimTime::from_millis(25.0));
        daemon.probe_all();
        assert!(!qcc.reliability.is_down(&s1), "recovery observed");
    }

    #[test]
    fn probe_seeds_calibration_factor() {
        let (server, wrapper) = build("S1");
        let qcc = Qcc::new(QccConfig {
            // Keep the baseline floor below the healthy ping of this setup.
            expected_ping_ms: 0.05,
            ..QccConfig::default()
        });
        let clock = SimClock::new();
        let daemon = AvailabilityDaemon::new(Arc::clone(&qcc), vec![wrapper], clock.clone());
        // First probe while healthy establishes the baseline...
        daemon.probe_all();
        let healthy = qcc.calibration.server_factor(&ServerId::new("S1"));
        assert!(
            (healthy - 1.0).abs() < 0.2,
            "healthy seed ≈ 1, got {healthy}"
        );
        // ...then load the server: the next probe seeds a factor > 1.
        server
            .load()
            .set_background(qcc_netsim::LoadProfile::Constant(0.9));
        clock.advance_to(SimTime::from_millis(1.0));
        daemon.probe_all();
        let f = qcc.calibration.server_factor(&ServerId::new("S1"));
        assert!(f > 1.5, "loaded server seeds factor > 1, got {f}");
    }

    #[test]
    fn seeds_normalize_out_link_latency() {
        // A healthy server behind a slow link must NOT be seeded as slow:
        // the ratio-to-own-baseline cancels the constant RTT.
        let mut t = Table::new("t", Schema::new(vec![Column::new("a", DataType::Int)]));
        t.insert(Row::new(vec![Value::Int(1)])).unwrap();
        let mut c = Catalog::new();
        c.register(t);
        let server = RemoteServer::new(ServerProfile::new(ServerId::new("far")), c);
        let mut net = Network::new();
        net.add_link(
            ServerId::new("far"),
            qcc_netsim::Link::new(25.0, 1000.0, qcc_netsim::LoadProfile::Constant(0.0)),
        );
        let wrapper: Arc<dyn Wrapper> = Arc::new(RelationalWrapper::new(server, Arc::new(net)));
        let qcc = Qcc::new(QccConfig::default());
        let clock = SimClock::new();
        let daemon = AvailabilityDaemon::new(Arc::clone(&qcc), vec![wrapper], clock.clone());
        daemon.probe_all();
        clock.advance_to(SimTime::from_millis(1.0));
        daemon.probe_all();
        let f = qcc.calibration.server_factor(&ServerId::new("far"));
        assert!(
            (f - 1.0).abs() < 0.1,
            "distant healthy server seed ≈ 1, got {f}"
        );
    }

    #[test]
    fn due_probes_respect_interval() {
        let (_server, wrapper) = build("S1");
        let qcc = Qcc::new(QccConfig::default());
        let clock = SimClock::new();
        let daemon = AvailabilityDaemon::new(Arc::clone(&qcc), vec![wrapper], clock.clone());
        assert_eq!(daemon.run_due_probes().len(), 1);
        // Immediately after, nothing is due.
        clock.advance(SimDuration::from_millis(1.0));
        assert!(daemon.run_due_probes().is_empty());
        // After the base interval it is due again.
        clock.advance_to(SimTime::ZERO + SimDuration::from_millis(2000.0));
        assert_eq!(daemon.run_due_probes().len(), 1);
    }

    #[test]
    fn down_server_clamps_interval_to_fast_bound() {
        let (server, wrapper) = build("S1");
        let qcc = Qcc::new(QccConfig::default());
        let clock = SimClock::new();
        let daemon = AvailabilityDaemon::new(Arc::clone(&qcc), vec![wrapper], clock.clone());
        let s1 = ServerId::new("S1");
        let (lo, _hi) = qcc.config.probe_interval_bounds_ms;

        daemon.probe_all();
        let healthy = daemon.probe_interval_ms(&s1).unwrap();
        assert!(healthy > lo, "healthy interval above the fast bound");

        server
            .availability()
            .add_outage(SimTime::from_millis(10.0), SimTime::from_millis(1e9));
        clock.advance_to(SimTime::from_millis(15.0));
        daemon.probe_all();
        assert!(qcc.reliability.is_down(&s1));
        assert_eq!(
            daemon.probe_interval_ms(&s1),
            Some(lo),
            "down server re-probes at the lower bound"
        );
    }

    #[test]
    fn execute_detected_outage_reprobed_within_fast_bound() {
        // The daemon probed a healthy server and scheduled the next probe
        // a full base interval out; then an *execute* failure marks the
        // server down. Recovery probing must not wait for the stale
        // schedule — the down fast-path re-probes after the lower bound.
        let (server, wrapper) = build("S1");
        let qcc = Qcc::new(QccConfig::default());
        let clock = SimClock::new();
        let daemon = AvailabilityDaemon::new(Arc::clone(&qcc), vec![wrapper], clock.clone());
        let s1 = ServerId::new("S1");
        let (lo, _hi) = qcc.config.probe_interval_bounds_ms;

        assert_eq!(daemon.run_due_probes().len(), 1); // healthy: next due in ~1000ms
        server
            .availability()
            .add_outage(SimTime::from_millis(1.0), SimTime::from_millis(150.0));
        clock.advance_to(SimTime::from_millis(2.0));
        qcc.reliability.record_unreachable(&s1, clock.now());

        // Before the fast bound elapses: still not due.
        clock.advance(SimDuration::from_millis(lo / 2.0));
        assert!(daemon.run_due_probes().is_empty());
        // One fast-bound interval after the last probe: due despite the
        // stale next_due, and (outage over by then? no — 52ms < 150ms) the
        // probe confirms the outage.
        clock.advance_to(SimTime::from_millis(lo + 1.0));
        assert_eq!(daemon.run_due_probes(), vec![s1.clone()]);
        assert!(qcc.reliability.is_down(&s1));
        // Recovery is then detected one fast-bound cycle after the outage
        // ends, not after the healthy 1000ms schedule.
        clock.advance_to(SimTime::from_millis(151.0) + SimDuration::from_millis(lo));
        assert_eq!(daemon.run_due_probes(), vec![s1.clone()]);
        assert!(!qcc.reliability.is_down(&s1), "recovery detected fast");
        assert!(qcc.obs.counter_value("probe_cycles_total", &[]) >= 3);
        assert_eq!(qcc.obs.events_of("server_restored").len(), 1);
    }

    #[test]
    fn variability_shortens_cycle() {
        let (_server, wrapper) = build("S1");
        let qcc = Qcc::new(QccConfig::default());
        let s1 = ServerId::new("S1");
        let clock = SimClock::new();
        let daemon = AvailabilityDaemon::new(Arc::clone(&qcc), vec![wrapper], clock.clone());

        daemon.probe_all();
        let stable = daemon.probe_interval_ms(&s1).unwrap();

        // Inject highly variable observations.
        for (est, obs) in [(10.0, 10.0), (10.0, 80.0), (10.0, 5.0), (10.0, 120.0)] {
            qcc.calibration.record_fragment(&s1, "sig", est, obs);
        }
        clock.advance_to(SimTime::from_millis(1.0));
        daemon.probe_all();
        let volatile = daemon.probe_interval_ms(&s1).unwrap();
        assert!(
            volatile < stable / 2.0,
            "volatile {volatile} vs stable {stable}"
        );
    }
}
