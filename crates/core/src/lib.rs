//! The Query Cost Calibrator (QCC) and meta-wrapper — the paper's
//! contribution.
//!
//! The QCC attaches to the federation layer through the [`Middleware`]
//! seam and, without modifying the optimizer, makes it load- and
//! network-aware:
//!
//! * **Recording** ([`metawrapper`]): the meta-wrapper sees every fragment
//!   statement, its estimated cost, its server mapping, and its observed
//!   runtime response time (paper §2, items a–e). It keeps no log of its
//!   own: estimate/observation pairs go straight into the calibration
//!   windows, errors into the reliability rings, and the history of a run
//!   is the `Obs` journal (DESIGN.md §13 "Where the paper's records live").
//! * **Calibration** ([`calibration`]): per-server (and, with enough
//!   observations, per-fragment-signature) calibration factors — the ratio
//!   of average observed to average estimated cost — scale all future
//!   estimates (§3.1); a workload factor calibrates the integrator's own
//!   merge costs (§3.2).
//! * **Availability & reliability** ([`reliability`], [`daemon`]): error
//!   records and periodic daemon probes pin down servers' costs to
//!   infinity while they are down and inflate costs of flaky servers
//!   (§3.3); probe cadence adapts to the variance of each server's
//!   history (§3.4).
//! * **Load distribution** ([`loadbalance`]): dominance elimination over
//!   global plans, clustering of plans within a cost band, and
//!   round-robin rotation — at fragment or global level (§4).
//! * **What-if planning** ([`whatif`]): a simulated federated system over
//!   virtual (data-less) catalogs enumerates alternative global plans by
//!   pinning server subsets, the paper's "execute Q6 in explain mode only
//!   four times" trick (§4.2).

pub mod calibration;
pub mod config;
pub mod daemon;
pub mod loadbalance;
pub mod metawrapper;
pub mod reliability;
pub mod whatif;

pub use calibration::CalibrationTable;
pub use config::{LoadBalanceMode, QccConfig};
pub use daemon::AvailabilityDaemon;
pub use loadbalance::LoadBalancer;
pub use metawrapper::MetaWrapper;
pub use qcc_federation::PlanCache;
pub use reliability::ReliabilityTracker;
pub use whatif::SimulatedFederation;

pub use qcc_federation::Middleware;

use parking_lot::Mutex;
use qcc_admission::AdmissionController;
use qcc_catalog::ReplicaCatalog;
use qcc_common::{Obs, ServerId, SimTime};
use std::sync::Arc;

/// The assembled QCC: calibration + reliability + load distribution,
/// exposed to the federation as a [`Middleware`].
#[derive(Debug)]
pub struct Qcc {
    /// Tuning knobs.
    pub config: QccConfig,
    /// Calibration factors.
    pub calibration: CalibrationTable,
    /// Availability / reliability state.
    pub reliability: ReliabilityTracker,
    /// Round-robin load distribution state.
    pub load_balancer: LoadBalancer,
    /// Compile-time plan cache (Figure 5: MW answers repeated fragments
    /// without consulting the wrapper).
    pub plan_cache: PlanCache,
    /// Shared observability handle (qcc-obs); every subcomponent emits
    /// through a clone of it.
    pub obs: Obs,
    /// Replica catalog (absent unless [`Qcc::set_catalog`] is called).
    /// When attached, the admission refresh and the daemon push each
    /// server's calibrated health into it for source selection.
    catalog: Mutex<Option<Arc<ReplicaCatalog>>>,
}

impl Qcc {
    /// Build a QCC with the given configuration and an enabled
    /// observability registry.
    pub fn new(config: QccConfig) -> Arc<Self> {
        Qcc::with_obs(config, Obs::new())
    }

    /// Build a QCC emitting into the given observability handle (pass
    /// [`Obs::off`] to disable instrumentation entirely).
    pub fn with_obs(config: QccConfig, obs: Obs) -> Arc<Self> {
        Arc::new(Qcc {
            calibration: CalibrationTable::new(&config).with_obs(obs.clone()),
            reliability: ReliabilityTracker::new().with_obs(obs.clone()),
            load_balancer: LoadBalancer::new(&config).with_obs(obs.clone()),
            plan_cache: PlanCache::new().with_obs(obs.clone()),
            obs,
            config,
            catalog: Mutex::new(None),
        })
    }

    /// Attach the replica catalog shared with the federation. Coordinator
    /// side, typically once at world-build time.
    pub fn set_catalog(&self, catalog: Arc<ReplicaCatalog>) {
        *self.catalog.lock() = Some(catalog);
    }

    /// The attached replica catalog, if any.
    pub fn catalog(&self) -> Option<Arc<ReplicaCatalog>> {
        self.catalog.lock().clone()
    }

    /// Reliability band for catalog source selection: [`qcc_catalog::HEALTHY_BAND`]
    /// for a clean recent history, 1–10 as the recent error rate rises,
    /// [`qcc_catalog::DOWN_BAND`] while the server is believed down.
    pub fn reliability_band(&self, server: &ServerId) -> u8 {
        if self.reliability.is_down(server) {
            return qcc_catalog::DOWN_BAND;
        }
        (self.reliability.error_rate(server) * 10.0)
            .ceil()
            .min(10.0) as u8
    }

    /// Push the current calibration × reliability health of `server` into
    /// the attached catalog (nothing without one). Coordinator-side only.
    pub fn sync_catalog_health(&self, server: &ServerId) {
        let Some(catalog) = self.catalog() else {
            return;
        };
        if self.reliability.is_down(server) {
            catalog.update_health(server, f64::INFINITY, qcc_catalog::DOWN_BAND);
        } else {
            catalog.update_health(
                server,
                self.calibration.server_factor(server) * self.reliability.factor(server),
                self.reliability_band(server),
            );
        }
    }

    /// The middleware to hand to [`qcc_federation::Federation::new`].
    pub fn middleware(self: &Arc<Self>) -> Arc<MetaWrapper> {
        Arc::new(MetaWrapper::new(Arc::clone(self)))
    }

    /// Recompute the admission controller's per-server token capacities
    /// from current calibration and availability state. Coordinator-side
    /// only, **between** batches: while a batch is in flight the
    /// federation gates against the frozen snapshot.
    ///
    /// Token derivation (DESIGN.md §9 "Tokens"): a down server contributes
    /// zero tokens; an up server contributes `base_tokens` scaled down by its
    /// combined calibration × reliability slowdown, floored at one so a
    /// merely-slow server keeps draining. On a down *transition* the
    /// server's cached plans are invalidated — they were compiled under
    /// pre-outage calibration, and its catalog may have changed while
    /// unreachable — so a recovered server re-EXPLAINs fresh.
    pub fn refresh_admission(
        &self,
        admission: &AdmissionController,
        servers: &[ServerId],
        at: SimTime,
    ) {
        for server in servers {
            self.sync_catalog_health(server);
            let cap = if self.reliability.is_down(server) {
                0
            } else {
                let slowdown =
                    self.calibration.server_factor(server) * self.reliability.factor(server);
                let base = f64::from(admission.config().base_tokens);
                ((base / slowdown.max(1.0)).floor() as u32).max(1)
            };
            if admission.set_capacity(server, cap, at) {
                self.plan_cache.invalidate_server(server);
                self.obs.counter_inc(
                    "plan_cache_invalidations_total",
                    &[("server", server.as_str())],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_admission::AdmissionConfig;

    /// Regression: a down transition must drop the server's cached plans
    /// (they were compiled under pre-outage calibration), leave other
    /// servers' entries alone, and fire exactly once per transition so a
    /// recovered server is not repeatedly invalidated.
    #[test]
    fn down_transition_zeroes_tokens_and_invalidates_plan_cache() {
        let qcc = Qcc::new(QccConfig::default());
        let admission = AdmissionController::new(AdmissionConfig::default());
        let (s1, s2) = (ServerId::new("S1"), ServerId::new("S2"));
        let servers = [s1.clone(), s2.clone()];
        qcc.plan_cache.put(&s1, "SELECT 1", Vec::new());
        qcc.plan_cache.put(&s2, "SELECT 1", Vec::new());
        assert_eq!(qcc.plan_cache.len(), 2);

        let t = SimTime::from_millis(10.0);
        qcc.refresh_admission(&admission, &servers, t);
        assert_eq!(
            qcc.plan_cache.len(),
            2,
            "healthy refresh invalidates nothing"
        );
        assert!(admission.capacity(&s1) > 0);

        qcc.reliability.record_unreachable(&s1, t);
        qcc.refresh_admission(&admission, &servers, t);
        assert_eq!(admission.capacity(&s1), 0, "down server holds zero tokens");
        assert!(
            qcc.plan_cache.get(&s1, "SELECT 1").is_none(),
            "S1 plans dropped"
        );
        assert!(
            qcc.plan_cache.get(&s2, "SELECT 1").is_some(),
            "S2 plans survive"
        );
        assert_eq!(
            qcc.obs
                .counter_value("plan_cache_invalidations_total", &[("server", "S1")]),
            1
        );

        // Still down: no second invalidation (get() above re-counted
        // nothing; the transition edge is what matters).
        qcc.refresh_admission(&admission, &servers, t);
        assert_eq!(
            qcc.obs
                .counter_value("plan_cache_invalidations_total", &[("server", "S1")]),
            1,
            "no re-invalidation while the server stays down"
        );

        // Recovery restores tokens without another invalidation.
        qcc.reliability
            .record_probe(&s1, true, SimTime::from_millis(20.0));
        qcc.refresh_admission(&admission, &servers, SimTime::from_millis(20.0));
        assert!(
            admission.capacity(&s1) > 0,
            "recovered server earns tokens back"
        );
        assert_eq!(
            qcc.obs
                .counter_value("plan_cache_invalidations_total", &[("server", "S1")]),
            1
        );
    }

    /// With a replica catalog attached, a down transition pushes the
    /// down band into it and drops every cached plan of the server — the
    /// one invalidation path — while the other server keeps its plans;
    /// recovery pushes a finite health back and invalidates nothing.
    #[test]
    fn catalog_tracks_health_across_the_down_transition() {
        let qcc = Qcc::new(QccConfig::default());
        let admission = AdmissionController::new(AdmissionConfig::default());
        let (s1, s2) = (ServerId::new("S1"), ServerId::new("S2"));
        let servers = [s1.clone(), s2.clone()];
        let catalog = Arc::new(ReplicaCatalog::new(3));
        catalog.register(s1.clone(), 1.0, SimTime::ZERO);
        catalog.register(s2.clone(), 1.0, SimTime::ZERO);
        qcc.set_catalog(Arc::clone(&catalog));
        for sql in ["SELECT a.id FROM big_a a", "SELECT COUNT(*) FROM small_s"] {
            qcc.plan_cache.put(&s1, sql, Vec::new());
            qcc.plan_cache.put(&s2, sql, Vec::new());
        }

        let t = SimTime::from_millis(10.0);
        qcc.refresh_admission(&admission, &servers, t);
        assert_eq!(catalog.health(&s1).band, qcc_catalog::HEALTHY_BAND);
        qcc.reliability.record_unreachable(&s1, t);
        qcc.refresh_admission(&admission, &servers, t);
        let down = catalog.health(&s1);
        assert_eq!(down.band, qcc_catalog::DOWN_BAND);
        assert_eq!(down.cost_factor, f64::INFINITY);
        assert_eq!(qcc.plan_cache.len(), 2, "S1's plans drop, S2's stay");
        assert!(qcc
            .plan_cache
            .get(&s2, "SELECT COUNT(*) FROM small_s")
            .is_some());

        qcc.reliability
            .record_probe(&s1, true, SimTime::from_millis(20.0));
        qcc.refresh_admission(&admission, &servers, SimTime::from_millis(20.0));
        assert!(catalog.health(&s1).cost_factor.is_finite());
        assert_eq!(
            qcc.obs
                .counter_value("plan_cache_invalidations_total", &[("server", "S1")]),
            1,
            "recovery invalidates nothing"
        );
    }
}
