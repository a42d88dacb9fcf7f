//! The meta-wrapper: the middleware that observes every fragment and
//! calibrates costs on the way through (paper §2, Figures 3–5).
//!
//! Under scatter-gather parallelism the meta-wrapper is called from worker
//! threads, so it follows the frozen-state/deferred-effects discipline
//! (DESIGN.md "Threading model"): every *read* (reliability factors,
//! calibration factors, plan-cache probes, load-balancer peeks) sees the
//! state frozen at scatter time, and every *write* (calibration
//! samples, reliability outcomes, cache inserts, balancer commits) is
//! pushed into the caller's [`Deferred`] buffer and applied at the gather
//! barrier in task order. Each observation defers exactly one closure —
//! one lock acquisition sequence per observation, not per field. The two
//! acknowledgements (`observe_fragment`, `observe_query`) are deferred by
//! the federation itself and write directly.

use crate::Qcc;
use qcc_common::{Cost, FragmentId, QccError, Result, ServerId, SimDuration, SimTime};
use qcc_federation::{
    share_plans, Deferred, FragmentCandidate, GlobalCandidate, Middleware, DEFAULT_UNCOSTED,
};
use qcc_wrapper::{FragmentPlan, StreamOutcome, Wrapper, WrapperStream};
use std::sync::Arc;

/// Middleware implementation binding a [`Qcc`] into the federation.
#[derive(Debug)]
pub struct MetaWrapper {
    qcc: Arc<Qcc>,
}

impl MetaWrapper {
    /// Wrap a QCC.
    pub fn new(qcc: Arc<Qcc>) -> Self {
        MetaWrapper { qcc }
    }

    /// The underlying QCC.
    pub fn qcc(&self) -> &Arc<Qcc> {
        &self.qcc
    }
}

impl Middleware for MetaWrapper {
    fn plan_fragment(
        &self,
        wrapper: &dyn Wrapper,
        fragment: FragmentId,
        sql: &Arc<str>,
        at: SimTime,
        effects: &mut Deferred,
    ) -> Result<(Vec<FragmentCandidate>, SimDuration)> {
        let server = wrapper.server_id().clone();

        // A server the QCC believes is down is not even consulted; its
        // cost is "infinity" until a daemon probe revives it (§3.3).
        if self.qcc.reliability.is_down(&server) {
            return Err(QccError::ServerUnavailable(server));
        }

        // Plan-cache hit: reuse the wrapper's earlier EXPLAIN response and
        // skip the round trip — calibration below still applies the
        // *current* factors (Figure 5's walkthrough).
        let (plans, took) = match self.qcc.plan_cache.get(&server, Arc::clone(sql)) {
            Some(plans) => (plans, SimDuration::ZERO),
            None => match wrapper.plan(sql, at) {
                Ok((plans, took)) => {
                    // Counter only (commutative): plan_fragment runs on
                    // worker threads during the EXPLAIN fan-out.
                    self.qcc
                        .obs
                        .counter_inc("explain_requests_total", &[("server", server.as_str())]);
                    let plans = share_plans(plans);
                    let qcc = self.qcc.clone();
                    let (srv, sql_key, stored) = (server.clone(), Arc::clone(sql), plans.clone());
                    effects.defer(move || {
                        qcc.plan_cache.put_shared(&srv, sql_key, stored);
                        qcc.reliability.record_success(&srv);
                    });
                    (plans, took)
                }
                Err(e) => {
                    self.defer_failure(effects, &server, &e, at);
                    return Err(e);
                }
            },
        };

        // Calibrate: raw estimate × fragment factor × reliability.
        let reliability = self.qcc.reliability.factor(&server);
        let candidates = plans
            .iter()
            .map(|plan| {
                let raw = plan.cost.unwrap_or(Cost::fixed(DEFAULT_UNCOSTED));
                let factor = self
                    .qcc
                    .calibration
                    .fragment_factor(&server, &plan.signature);
                FragmentCandidate {
                    fragment,
                    plan: Arc::clone(plan),
                    effective_cost: raw.calibrate(factor * reliability),
                }
            })
            .collect();
        Ok((candidates, took))
    }

    fn execute_fragment_stream(
        &self,
        wrapper: &dyn Wrapper,
        plan: &FragmentPlan,
        at: SimTime,
        cursor: usize,
        effects: &mut Deferred,
    ) -> Result<WrapperStream> {
        let server = wrapper.server_id().clone();
        match wrapper.execute_stream(plan, at, cursor, true) {
            Ok(stream) => {
                if let StreamOutcome::Interrupted { at: cut } = stream.outcome {
                    // The source died mid-stream. Record the failure at
                    // the transition instant — the time the integrator
                    // observed it, inside the crash window — so the ban
                    // and the `server_down` span line up with ground
                    // truth. Success-side recording (reliability,
                    // calibration) waits for `observe_fragment`: the
                    // truncated response time must never skew factors.
                    self.defer_failure(
                        effects,
                        &server,
                        &QccError::ServerUnavailable(server.clone()),
                        cut,
                    );
                }
                Ok(stream)
            }
            Err(e) => {
                self.defer_failure(effects, &server, &e, at);
                Err(e)
            }
        }
    }

    fn observe_fragment(&self, plan: &FragmentPlan, observed_ms: f64) {
        // Item (e): feed the calibration window with the observed ÷
        // raw-estimate pair. The coordinator only acknowledges full,
        // uncancelled completions, so the observed time is an honest
        // whole-fragment sample. Uncosted fragments (file sources)
        // calibrate against the DEFAULT_UNCOSTED baseline — the only way
        // such sources ever become cost-comparable (§2: "when wrappers do
        // not provide cost estimation").
        let est = plan.cost.map(|c| c.total()).unwrap_or(DEFAULT_UNCOSTED);
        self.qcc.reliability.record_success(&plan.server);
        self.qcc
            .calibration
            .record_fragment(&plan.server, &plan.signature, est, observed_ms);
    }

    fn observe_fragment_cancel(&self, server: &ServerId, effects: &mut Deferred) {
        // A stall-cancel is soft evidence against the server: penalize
        // its reliability factor (like a transient fault) so routing
        // shifts away, but feed nothing into the calibration windows —
        // the truncated time is not a valid sample.
        self.qcc
            .obs
            .counter_inc("fragment_cancels_total", &[("server", server.as_str())]);
        let qcc = self.qcc.clone();
        let server = server.clone();
        effects.defer(move || qcc.reliability.record_fault(&server));
    }

    fn calibrate_integration(&self, cost: Cost) -> Cost {
        cost.calibrate(self.qcc.calibration.ii_factor())
    }

    fn choose_global(
        &self,
        query_sig: &Arc<str>,
        candidates: &[GlobalCandidate],
        effects: &mut Deferred,
    ) -> usize {
        if candidates.is_empty() {
            return 0;
        }
        let (pick, commit) = self.qcc.load_balancer.peek(query_sig, candidates);
        let (qcc, sig) = (self.qcc.clone(), Arc::clone(query_sig));
        effects.defer(move || qcc.load_balancer.commit(&sig, commit));
        pick
    }

    fn observe_query(&self, estimated_total: f64, observed_ms: f64) {
        self.qcc.calibration.record_ii(estimated_total, observed_ms);
    }
}

impl MetaWrapper {
    fn defer_failure(&self, effects: &mut Deferred, server: &ServerId, e: &QccError, at: SimTime) {
        self.qcc
            .obs
            .counter_inc("fragment_failures_total", &[("server", server.as_str())]);
        let qcc = self.qcc.clone();
        let server = server.clone();
        match e {
            QccError::ServerUnavailable(_) => effects.defer(move || {
                qcc.reliability.record_unreachable(&server, at);
                // While unreachable the server's catalog may change, so
                // its cached plans are no longer trustworthy.
                qcc.plan_cache.invalidate_server(&server);
            }),
            QccError::ServerFault { .. } => {
                effects.defer(move || qcc.reliability.record_fault(&server))
            }
            _ => {}
        }
    }
}
