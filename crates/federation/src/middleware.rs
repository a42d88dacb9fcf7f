//! The middleware seam between the integrator and the wrappers.
//!
//! In the paper's architecture (Figure 2), the meta-wrapper (MW) sits
//! between II and the wrappers: it forwards EXPLAIN and EXECUTE requests,
//! records statements / estimated costs / fragment-to-server mappings /
//! response times, and — together with the QCC — *calibrates* the costs it
//! passes back so the II optimizer makes load- and network-aware choices
//! without being modified.
//!
//! The [`Middleware`] trait is that seam. [`PassthroughMiddleware`] is the
//! baseline II behaviour (no recording, no calibration); the QCC crate
//! provides the calibrating implementation.

use qcc_common::{Cost, FragmentId, Result, ServerId, SimDuration, SimTime};
use qcc_wrapper::{FragmentPlan, Wrapper, WrapperStream};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Effects a buffer makes room for at its first: a warm query with the
/// journal on defers up to five (its compile span, the balancer commit,
/// one acknowledgement per fragment of two, its close), so a query's
/// buffer is allocated once rather than grown.
const FIRST_RESERVE: usize = 8;

/// Deferred shared-state writes gathered during a scatter unit.
///
/// Middleware calls made from scatter workers must not mutate shared
/// state directly — at one thread the scatter runs inline (earlier tasks'
/// writes would be visible to later tasks), at eight threads it
/// interleaves, and the results would differ. Instead, every side effect
/// (journal events, calibration samples, plan-cache inserts, load
/// balancer commits) is pushed into a `Deferred` buffer; the coordinator
/// applies the buffers **at the gather barrier, in task-index order**, so
/// the sequence of shared-state mutations is identical for any thread
/// count. See DESIGN.md "Threading model".
#[derive(Default)]
pub struct Deferred {
    effects: Vec<Box<dyn FnOnce() + Send>>,
}

impl Deferred {
    /// Empty buffer.
    pub fn new() -> Self {
        Deferred::default()
    }

    /// Queue one side effect to run at the gather barrier.
    pub fn defer(&mut self, effect: impl FnOnce() + Send + 'static) {
        if self.effects.capacity() == 0 {
            self.effects.reserve(FIRST_RESERVE);
        }
        self.effects.push(Box::new(effect));
    }

    /// Append another buffer's effects after this one's (coordinator use:
    /// merge per-task buffers in task-index order).
    pub fn merge(&mut self, mut other: Deferred) {
        self.effects.append(&mut other.effects);
    }

    /// Run every queued effect, in the order queued.
    pub fn apply(self) {
        for effect in self.effects {
            effect();
        }
    }

    /// Number of queued effects.
    pub fn len(&self) -> usize {
        self.effects.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }
}

impl fmt::Debug for Deferred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deferred")
            .field("effects", &self.effects.len())
            .finish()
    }
}

/// Cost assigned to fragment plans whose wrapper reports none (file
/// wrappers). The value is deliberately arbitrary — the paper's point is
/// that only calibration can make such sources comparable.
pub const DEFAULT_UNCOSTED: f64 = 10.0;

/// One candidate execution of one fragment: a server, a concrete plan, and
/// the (possibly calibrated) cost the optimizer will use.
///
/// Cloning a candidate copies a pointer, an id and a [`Cost`]: the plan
/// is shared — with the plan cache entry it came from and with every
/// global combination that uses it.
#[derive(Debug, Clone)]
pub struct FragmentCandidate {
    /// Which fragment of the decomposed query this is.
    pub fragment: FragmentId,
    /// The wrapper-provided plan (shared, never deep-cloned).
    pub plan: Arc<FragmentPlan>,
    /// The cost used for global optimization (calibrated when a QCC is
    /// attached; otherwise the wrapper's raw estimate).
    pub effective_cost: Cost,
}

/// A fully specified global plan: one candidate per fragment plus the
/// estimated integration cost at the II.
#[derive(Debug, Clone)]
pub struct GlobalCandidate {
    /// Chosen candidate per fragment, in fragment order.
    pub fragments: Vec<FragmentCandidate>,
    /// Estimated (calibrated) cost of merging at the integrator.
    pub integration_cost: Cost,
}

impl GlobalCandidate {
    /// Total estimated cost. Remote fragments run in parallel, so the
    /// remote contribution is the slowest fragment; integration follows.
    pub fn total_cost(&self) -> f64 {
        let remote = self
            .fragments
            .iter()
            .map(|f| f.effective_cost.total())
            .fold(0.0_f64, f64::max);
        remote + self.integration_cost.total()
    }

    /// The server of each fragment, in fragment order (repeats when two
    /// fragments share a server). Allocation-free: what the per-attempt
    /// filters walk instead of building a [`GlobalCandidate::server_set`].
    pub fn servers(&self) -> impl Iterator<Item = &ServerId> {
        self.fragments.iter().map(|f| &f.plan.server)
    }

    /// The set of servers this plan touches.
    pub fn server_set(&self) -> BTreeSet<ServerId> {
        self.servers().cloned().collect()
    }

    /// A canonical signature of the plan: per-fragment server + plan shape.
    pub fn signature(&self) -> String {
        let parts: Vec<String> = self
            .fragments
            .iter()
            .map(|f| format!("{}@{}", f.plan.signature, f.plan.server))
            .collect();
        parts.join("|")
    }
}

/// The seam between II and the wrappers.
///
/// Every method that mutates middleware state takes an `effects` buffer:
/// implementations must read shared state freely but push all *writes*
/// into `effects` (see [`Deferred`]). Callers apply the buffers at their
/// gather barriers in deterministic order. Single-threaded callers pass a
/// buffer and apply it immediately — the observable behaviour is the same.
/// The two acknowledgements, [`Middleware::observe_fragment`] and
/// [`Middleware::observe_query`], are the exception: the federation defers
/// the calls themselves, each in one closure with the journal events of
/// what it acknowledges, so they run at the gather barrier and write
/// directly.
pub trait Middleware: Send + Sync {
    /// Compile time: forward an EXPLAIN to a wrapper. Implementations may
    /// calibrate the returned costs. `sql` is the compiled template's
    /// translation for this server; caches share it rather than copy it.
    fn plan_fragment(
        &self,
        wrapper: &dyn Wrapper,
        fragment: FragmentId,
        sql: &Arc<str>,
        at: SimTime,
        effects: &mut Deferred,
    ) -> Result<(Vec<FragmentCandidate>, SimDuration)>;

    /// Runtime: forward an EXECUTE to a wrapper — the one dispatch method,
    /// a resumable stream starting at chunk `cursor` (the cursor protocol;
    /// see `Wrapper::execute_stream`). Failures, including mid-stream
    /// interrupts, are recorded here, at the time the integrator observes
    /// them. Implementations must NOT record success-side observations
    /// here: a stream the coordinator later cancels must not feed its
    /// truncated response time into calibration. The coordinator
    /// acknowledges each accepted completion once, through
    /// [`Middleware::observe_fragment`], and reports mid-flight
    /// cancellations through [`Middleware::observe_fragment_cancel`].
    fn execute_fragment_stream(
        &self,
        wrapper: &dyn Wrapper,
        plan: &FragmentPlan,
        at: SimTime,
        cursor: usize,
        effects: &mut Deferred,
    ) -> Result<WrapperStream>;

    /// Coordinator acknowledgement that a streamed fragment ran to
    /// completion uncancelled: an honest whole-fragment sample for the
    /// reliability and calibration windows. Called at the gather barrier,
    /// in task order, right after the fragment's journal event. No-op by
    /// default.
    fn observe_fragment(&self, _plan: &FragmentPlan, _observed_ms: f64) {}

    /// Coordinator notice that a streamed fragment was cancelled
    /// mid-flight (stall detector fired). Implementations may penalize
    /// the server's reliability factor; they must NOT feed the truncated
    /// response time into calibration. No-op by default.
    fn observe_fragment_cancel(&self, _server: &ServerId, _effects: &mut Deferred) {}

    /// Calibrate the integrator-side merge cost (the paper's workload cost
    /// calibration factor, §3.2). Identity by default. Read-only.
    fn calibrate_integration(&self, cost: Cost) -> Cost {
        cost
    }

    /// Choose among the enumerated global candidates for a query. The
    /// default picks the lowest total cost — classic cost-based II. A QCC
    /// may instead rotate among near-equal plans for load distribution
    /// (§4.2). `query_sig` identifies the *query template* so rotation
    /// state survives across repeated similar queries; frequency/cursor
    /// updates go through `effects`, which share the signature rather
    /// than copy it.
    fn choose_global(
        &self,
        _query_sig: &Arc<str>,
        candidates: &[GlobalCandidate],
        _effects: &mut Deferred,
    ) -> usize {
        candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cost().total_cmp(&b.total_cost()))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Record the end-to-end outcome of a federated query (submit-to-merge
    /// response time vs. the chosen plan's estimate). Feeds the II workload
    /// calibration factor. Called at the gather barrier, right after the
    /// query's merge is journalled. No-op by default.
    fn observe_query(&self, _estimated_total: f64, _observed_ms: f64) {}
}

/// Baseline middleware: forwards requests untouched. This is the paper's
/// "prototype version of DB2 Information Integrator" without QCC.
///
/// An optional [`crate::PlanCache`] makes repeated fragments skip the
/// EXPLAIN round trip — plan caching is integrator infrastructure shared
/// by every routing configuration, so comparisons against calibrated
/// middlewares isolate *routing* effects (see `qcc-workload`).
#[derive(Debug, Default, Clone)]
pub struct PassthroughMiddleware {
    cache: Option<Arc<crate::PlanCache>>,
}

impl PassthroughMiddleware {
    /// Baseline with a plan cache attached.
    pub fn with_cache() -> Self {
        PassthroughMiddleware {
            cache: Some(Arc::new(crate::PlanCache::new())),
        }
    }
}

impl Middleware for PassthroughMiddleware {
    fn plan_fragment(
        &self,
        wrapper: &dyn Wrapper,
        fragment: FragmentId,
        sql: &Arc<str>,
        at: SimTime,
        effects: &mut Deferred,
    ) -> Result<(Vec<FragmentCandidate>, SimDuration)> {
        let server = wrapper.server_id();
        let cached = self
            .cache
            .as_deref()
            .and_then(|c| c.get(server, Arc::clone(sql)));
        let (plans, took) = match cached {
            Some(plans) => (plans, SimDuration::ZERO),
            None => {
                let (plans, took) = wrapper.plan(sql, at)?;
                let plans = crate::plancache::share_plans(plans);
                if let Some(c) = self.cache.clone() {
                    let (server, sql, plans) = (server.clone(), Arc::clone(sql), plans.clone());
                    effects.defer(move || c.put_shared(&server, sql, plans));
                }
                (plans, took)
            }
        };
        Ok((
            plans
                .iter()
                .map(|plan| FragmentCandidate {
                    fragment,
                    effective_cost: plan.cost.unwrap_or(Cost::fixed(DEFAULT_UNCOSTED)),
                    plan: Arc::clone(plan),
                })
                .collect(),
            took,
        ))
    }

    fn execute_fragment_stream(
        &self,
        wrapper: &dyn Wrapper,
        plan: &FragmentPlan,
        at: SimTime,
        cursor: usize,
        _effects: &mut Deferred,
    ) -> Result<WrapperStream> {
        wrapper.execute_stream(plan, at, cursor, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::QueryId;

    fn candidate(server: &str, cost: f64, sig: &str) -> FragmentCandidate {
        FragmentCandidate {
            fragment: FragmentId::new(QueryId(0), 0),
            plan: Arc::new(FragmentPlan {
                server: ServerId::new(server),
                sql: "SELECT 1".into(),
                descriptor: None,
                cost: Some(Cost::fixed(cost)),
                signature: sig.into(),
            }),
            effective_cost: Cost::fixed(cost),
        }
    }

    #[test]
    fn total_cost_takes_slowest_fragment_plus_integration() {
        let g = GlobalCandidate {
            fragments: vec![candidate("S1", 10.0, "a"), candidate("S2", 30.0, "b")],
            integration_cost: Cost::fixed(5.0),
        };
        assert_eq!(g.total_cost(), 35.0);
    }

    #[test]
    fn server_set_dedups() {
        let g = GlobalCandidate {
            fragments: vec![candidate("S1", 1.0, "a"), candidate("S1", 2.0, "b")],
            integration_cost: Cost::ZERO,
        };
        assert_eq!(g.server_set().len(), 1);
    }

    #[test]
    fn default_choice_is_cheapest() {
        let mk = |c: f64| GlobalCandidate {
            fragments: vec![candidate("S1", c, "a")],
            integration_cost: Cost::ZERO,
        };
        let cands = vec![mk(10.0), mk(3.0), mk(7.0)];
        let mw = PassthroughMiddleware::default();
        assert_eq!(
            mw.choose_global(&Arc::from("q"), &cands, &mut Deferred::new()),
            1
        );
    }

    #[test]
    fn deferred_applies_in_queue_order() {
        use parking_lot::Mutex;
        let seen: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let mut a = Deferred::new();
        let mut b = Deferred::new();
        for (buf, v) in [(&mut a, 1), (&mut b, 2)] {
            let seen = seen.clone();
            buf.defer(move || seen.lock().push(v));
        }
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
        a.merge(b);
        assert_eq!(a.len(), 2);
        a.apply();
        assert_eq!(*seen.lock(), vec![1, 2]);
    }

    #[test]
    fn signature_includes_server_and_shape() {
        let g = GlobalCandidate {
            fragments: vec![candidate("S1", 1.0, "seqscan(t)")],
            integration_cost: Cost::ZERO,
        };
        assert_eq!(g.signature(), "seqscan(t)@S1");
    }
}
