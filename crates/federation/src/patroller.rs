//! The query patroller.
//!
//! Per the paper (§1): the patroller intercepts every user query, records
//! the statement and submission time, and after execution records the
//! completion time "in the log for future use". Here that log is the
//! `Obs` journal (`query_submit` / `query_complete` / `query_failed`
//! events); the patroller itself holds only what it needs to write the
//! next event — the id counter and the submit times of queries in flight.

use parking_lot::Mutex;
use qcc_common::{CounterHandle, FieldValue, HistogramHandle, Obs, QueryId, SimTime};
use std::collections::BTreeMap;

/// The patroller: id assignment plus the query lifecycle events and
/// metrics.
#[derive(Debug, Default)]
pub struct QueryPatroller {
    inner: Mutex<PatrollerState>,
}

#[derive(Debug, Default)]
struct PatrollerState {
    next_id: u64,
    /// Submit time of every query not yet finished.
    in_flight: BTreeMap<QueryId, SimTime>,
    /// Journal handle. The federation calls the patroller only from
    /// coordinator-sequential code (submits before the scatter, finishes
    /// at the gather barrier in task order), so direct journal emission
    /// here is deterministic.
    obs: Obs,
    /// `queries_total{status=ok}` and `query_response_ms`, resolved once.
    ok_total: CounterHandle,
    response_ms: HistogramHandle,
}

impl QueryPatroller {
    /// A fresh patroller.
    pub fn new() -> Self {
        QueryPatroller::default()
    }

    /// Attach an observability handle.
    pub fn set_obs(&self, obs: Obs) {
        let mut st = self.inner.lock();
        st.ok_total = obs.counter("queries_total", &[("status", "ok")]);
        st.response_ms = obs.histogram("query_response_ms", &[]);
        st.obs = obs;
    }

    /// Record a submission; returns the assigned id. The statement is
    /// journalled as given: pass a shared `Arc<str>` to share it.
    pub fn record_submit(&self, sql: impl Into<FieldValue>, at: SimTime) -> QueryId {
        let mut st = self.inner.lock();
        let id = QueryId(st.next_id);
        st.next_id += 1;
        st.in_flight.insert(id, at);
        if st.obs.is_enabled() {
            st.obs.event(
                at,
                "query_submit",
                [("query", id.0.into()), ("sql", sql.into())],
            );
        }
        id
    }

    /// Record successful completion.
    pub fn record_complete(&self, id: QueryId, at: SimTime) {
        self.finish(id, at, None);
    }

    /// Record failure.
    pub fn record_failure(&self, id: QueryId, at: SimTime, error: String) {
        self.finish(id, at, Some(error));
    }

    fn finish(&self, id: QueryId, at: SimTime, error: Option<String>) {
        let mut st = self.inner.lock();
        let Some(submitted) = st.in_flight.remove(&id) else {
            return;
        };
        if !st.obs.is_enabled() {
            return;
        }
        match error {
            None => {
                let ms = at.since(submitted).as_millis();
                st.obs.event(
                    at,
                    "query_complete",
                    [("query", id.0.into()), ("ms", ms.into())],
                );
                st.response_ms.observe(ms);
                st.ok_total.inc();
            }
            Some(error) => {
                st.obs.event(
                    at,
                    "query_failed",
                    [("query", id.0.into()), ("error", error.into())],
                );
                st.obs.counter_inc("queries_total", &[("status", "failed")]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::{FieldValue, SimDuration};

    fn patroller() -> (QueryPatroller, Obs) {
        let (p, obs) = (QueryPatroller::new(), Obs::new());
        p.set_obs(obs.clone());
        (p, obs)
    }

    #[test]
    fn submit_complete_cycle() {
        let (p, obs) = patroller();
        let t0 = SimTime::ZERO;
        let id = p.record_submit("SELECT 1", t0);
        let t1 = t0 + SimDuration::from_millis(42.0);
        p.record_complete(id, t1);
        assert_eq!(
            obs.events_of("query_submit")[0].str_field("sql"),
            Some("SELECT 1")
        );
        let done = obs.events_of("query_complete");
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].at, t1);
        assert_eq!(done[0].field("ms"), Some(&FieldValue::F64(42.0)));
        assert_eq!(obs.counter_value("queries_total", &[("status", "ok")]), 1);
        // Finished means forgotten: a second finish of the same id is a
        // no-op, not a second event.
        p.record_complete(id, t1);
        assert_eq!(obs.events_of("query_complete").len(), 1);
    }

    #[test]
    fn ids_are_unique_and_ordered() {
        let p = QueryPatroller::new();
        let a = p.record_submit("a", SimTime::ZERO);
        let b = p.record_submit("b", SimTime::ZERO);
        assert!(b > a);
    }

    #[test]
    fn failures_recorded() {
        let (p, obs) = patroller();
        let id = p.record_submit("bad", SimTime::ZERO);
        p.record_failure(id, SimTime::ZERO, "server down".into());
        let failed = obs.events_of("query_failed");
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].str_field("error"), Some("server down"));
        assert_eq!(
            obs.counter_value("queries_total", &[("status", "failed")]),
            1
        );
    }
}
