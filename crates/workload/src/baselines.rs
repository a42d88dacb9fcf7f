//! Fixed-assignment baselines (§5.3).
//!
//! *"We assume a typical federated information system in which how
//! federated queries are distributed to remote servers are fixed and
//! pre-determined in the phase of nickname definition registration."*
//!
//! Assignment 1: QT1, QT3 → S1; QT2 → S2; QT4 → S3 (the paper's
//! registration). Assignment 2: everything → S3, "one natural way of load
//! distribution is to pick S3 as the default server" (Figure 11).

use crate::querytypes::QueryType;
use qcc_common::{FragmentId, Result, ServerId, SimDuration, SimTime};
use qcc_federation::{
    Deferred, FragmentCandidate, GlobalCandidate, Middleware, PassthroughMiddleware,
};
use qcc_wrapper::{FragmentPlan, Wrapper, WrapperStream};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The paper's registration-time assignment (Figure 10's baseline).
#[allow(non_snake_case)]
pub fn FIXED_ASSIGNMENT_1() -> BTreeMap<QueryType, ServerId> {
    BTreeMap::from([
        (QueryType::QT1, ServerId::new("S1")),
        (QueryType::QT2, ServerId::new("S2")),
        (QueryType::QT3, ServerId::new("S1")),
        (QueryType::QT4, ServerId::new("S3")),
    ])
}

/// Everything to the most powerful server (Figure 11's baseline).
#[allow(non_snake_case)]
pub fn FIXED_ASSIGNMENT_2() -> BTreeMap<QueryType, ServerId> {
    BTreeMap::from([
        (QueryType::QT1, ServerId::new("S3")),
        (QueryType::QT2, ServerId::new("S3")),
        (QueryType::QT3, ServerId::new("S3")),
        (QueryType::QT4, ServerId::new("S3")),
    ])
}

/// A middleware that routes each query type to its registered server,
/// ignoring costs — the behaviour of a federation whose nicknames were
/// bound to specific servers at registration time.
#[derive(Debug)]
pub struct FixedRoutingMiddleware {
    assignment: BTreeMap<QueryType, ServerId>,
    inner: PassthroughMiddleware,
}

impl FixedRoutingMiddleware {
    /// Route per the given type → server table.
    pub fn new(assignment: BTreeMap<QueryType, ServerId>) -> Self {
        FixedRoutingMiddleware {
            assignment,
            // Plan caching is shared integrator infrastructure: the fixed
            // baselines get it too, so comparisons with the QCC isolate
            // routing effects rather than compile-time round trips.
            inner: PassthroughMiddleware::with_cache(),
        }
    }
}

impl Middleware for FixedRoutingMiddleware {
    fn plan_fragment(
        &self,
        wrapper: &dyn Wrapper,
        fragment: FragmentId,
        sql: &Arc<str>,
        at: SimTime,
        effects: &mut Deferred,
    ) -> Result<(Vec<FragmentCandidate>, SimDuration)> {
        self.inner
            .plan_fragment(wrapper, fragment, sql, at, effects)
    }

    fn execute_fragment_stream(
        &self,
        wrapper: &dyn Wrapper,
        plan: &FragmentPlan,
        at: SimTime,
        cursor: usize,
        effects: &mut Deferred,
    ) -> Result<WrapperStream> {
        self.inner
            .execute_fragment_stream(wrapper, plan, at, cursor, effects)
    }

    fn choose_global(
        &self,
        query_sig: &Arc<str>,
        candidates: &[GlobalCandidate],
        effects: &mut Deferred,
    ) -> usize {
        if let Some(target) =
            QueryType::of_template(query_sig).and_then(|qt| self.assignment.get(&qt))
        {
            // Pick the cheapest candidate running entirely on the target
            // server; the assignment is absolute, not cost-based.
            if let Some((i, _)) = candidates
                .iter()
                .enumerate()
                .filter(|(_, c)| c.servers().all(|s| s == target))
                .min_by(|(_, a), (_, b)| a.total_cost().total_cmp(&b.total_cost()))
            {
                return i;
            }
        }
        // Unknown template or target unavailable: fall back to cost.
        self.inner.choose_global(query_sig, candidates, effects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Routing, Scenario, ScenarioConfig};
    use crate::ALL_QUERY_TYPES;

    #[test]
    fn fixed1_routes_per_registration() {
        let s = Scenario::build_with(Routing::Fixed1, ScenarioConfig::tiny());
        let expected = FIXED_ASSIGNMENT_1();
        for qt in ALL_QUERY_TYPES {
            let out = s.federation.submit(&qt.sql(0)).unwrap();
            let want = expected.get(&qt).unwrap();
            assert!(
                out.servers.contains(want) && out.servers.len() == 1,
                "{qt} went to {:?}, want {want}",
                out.servers
            );
        }
    }

    #[test]
    fn fixed2_routes_everything_to_s3() {
        let s = Scenario::build_with(Routing::Fixed2, ScenarioConfig::tiny());
        for qt in ALL_QUERY_TYPES {
            let out = s.federation.submit(&qt.sql(0)).unwrap();
            assert!(out.servers.contains(&ServerId::new("S3")), "{qt}");
            assert_eq!(out.servers.len(), 1, "{qt}");
        }
    }
}
