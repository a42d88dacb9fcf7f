//! The meta-wrapper's record store.
//!
//! Paper §2: at compile time MW records (a) the incoming federated query
//! statements, (b) the estimated cost of the federated queries, (c) the
//! outgoing query fragments, and (d) their mappings to the remote servers.
//! At runtime it records (e) the response time of each query fragment.
//! QCC also records error messages from accessing remote servers (§2 end).

use parking_lot::Mutex;
use qcc_common::{Cost, FragmentId, QueryId, ServerId, SimTime};
use qcc_federation::PlanLabel;
use std::sync::Arc;

/// Compile-time record: one candidate fragment plan at one server. One
/// is written per candidate per arrival, into an append-only store, so it
/// holds no string of its own: it shares the plan's label with the plan
/// cache (the label, not the plan — a record must not keep an evicted
/// plan's descriptor alive). Read the mapping through the accessors.
#[derive(Debug, Clone)]
pub struct FragmentCompileRecord {
    /// Owning query.
    pub query: QueryId,
    /// Fragment id.
    pub fragment: FragmentId,
    /// When the EXPLAIN happened (or was answered from the plan cache).
    pub at: SimTime,
    plan: Arc<PlanLabel>,
}

impl FragmentCompileRecord {
    /// Record the plan labelled `plan` as a candidate for `fragment` of
    /// `query`.
    pub fn new(query: QueryId, fragment: FragmentId, plan: Arc<PlanLabel>, at: SimTime) -> Self {
        FragmentCompileRecord {
            query,
            fragment,
            at,
            plan,
        }
    }

    /// Target server.
    pub fn server(&self) -> &ServerId {
        &self.plan.server
    }

    /// Fragment SQL as sent to the wrapper.
    pub fn sql(&self) -> &str {
        &self.plan.sql
    }

    /// Plan-shape signature.
    pub fn signature(&self) -> &str {
        &self.plan.signature
    }

    /// The wrapper's raw estimated cost (None for file sources).
    pub fn estimated(&self) -> Option<Cost> {
        self.plan.cost
    }
}

/// Runtime record: one fragment execution.
#[derive(Debug, Clone)]
pub struct FragmentRunRecord {
    /// Owning query.
    pub query: QueryId,
    /// Fragment id.
    pub fragment: FragmentId,
    /// Server it ran on.
    pub server: ServerId,
    /// Plan-shape signature.
    pub signature: String,
    /// The raw estimate that had been reported at compile time.
    pub estimated_total: Option<f64>,
    /// Observed response time (virtual ms).
    pub observed_ms: f64,
    /// When execution started.
    pub at: SimTime,
}

/// An error observed while contacting a remote server.
#[derive(Debug, Clone)]
pub struct ErrorRecord {
    /// The failing server.
    pub server: ServerId,
    /// Error message.
    pub message: String,
    /// When it happened.
    pub at: SimTime,
}

/// Append-only shared record store.
#[derive(Debug, Clone, Default)]
pub struct RecordStore {
    inner: Arc<Mutex<Records>>,
}

#[derive(Debug, Default)]
struct Records {
    compiles: Vec<FragmentCompileRecord>,
    runs: Vec<FragmentRunRecord>,
    errors: Vec<ErrorRecord>,
}

impl RecordStore {
    /// Fresh empty store.
    pub fn new() -> Self {
        RecordStore::default()
    }

    /// Record a compile-time fragment plan.
    pub fn record_compile(&self, r: FragmentCompileRecord) {
        self.inner.lock().compiles.push(r);
    }

    /// Record a runtime fragment execution.
    pub fn record_run(&self, r: FragmentRunRecord) {
        self.inner.lock().runs.push(r);
    }

    /// Record an error.
    pub fn record_error(&self, r: ErrorRecord) {
        self.inner.lock().errors.push(r);
    }

    /// Snapshot of compile records.
    pub fn compiles(&self) -> Vec<FragmentCompileRecord> {
        self.inner.lock().compiles.clone()
    }

    /// Snapshot of run records.
    pub fn runs(&self) -> Vec<FragmentRunRecord> {
        self.inner.lock().runs.clone()
    }

    /// Snapshot of error records.
    pub fn errors(&self) -> Vec<ErrorRecord> {
        self.inner.lock().errors.clone()
    }

    /// Runs observed at one server, oldest first.
    pub fn runs_for_server(&self, server: &ServerId) -> Vec<FragmentRunRecord> {
        self.inner
            .lock()
            .runs
            .iter()
            .filter(|r| &r.server == server)
            .cloned()
            .collect()
    }

    /// Number of stored runtime observations.
    pub fn run_count(&self) -> usize {
        self.inner.lock().runs.len()
    }

    /// Aggregated per-server history (§3.4: "QCC maintains aggregated
    /// histories of the various dynamic values associated with the remote
    /// source access costs"): observation count, mean observed response,
    /// mean observed/estimated ratio, and error count.
    pub fn server_summaries(&self) -> Vec<ServerSummary> {
        let inner = self.inner.lock();
        let mut map: std::collections::BTreeMap<ServerId, ServerSummary> =
            std::collections::BTreeMap::new();
        for r in &inner.runs {
            let s = map
                .entry(r.server.clone())
                .or_insert_with(|| ServerSummary {
                    server: r.server.clone(),
                    observations: 0,
                    mean_observed_ms: 0.0,
                    mean_ratio: 0.0,
                    errors: 0,
                });
            s.observations += 1;
            s.mean_observed_ms += r.observed_ms;
            if let Some(est) = r.estimated_total {
                if est > 0.0 {
                    s.mean_ratio += r.observed_ms / est;
                }
            }
        }
        for e in &inner.errors {
            map.entry(e.server.clone())
                .or_insert_with(|| ServerSummary {
                    server: e.server.clone(),
                    observations: 0,
                    mean_observed_ms: 0.0,
                    mean_ratio: 0.0,
                    errors: 0,
                })
                .errors += 1;
        }
        map.into_values()
            .map(|mut s| {
                if s.observations > 0 {
                    s.mean_observed_ms /= s.observations as f64;
                    s.mean_ratio /= s.observations as f64;
                }
                s
            })
            .collect()
    }

    /// The observed workload by fragment plan shape: `(signature,
    /// executions)` pairs, most frequent first — the frequency input for
    /// the placement advisor and the load distributor's workload
    /// threshold.
    pub fn fragment_frequencies(&self) -> Vec<(String, u64)> {
        let inner = self.inner.lock();
        let mut map: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for r in &inner.runs {
            *map.entry(r.signature.as_str()).or_insert(0) += 1;
        }
        let mut out: Vec<(String, u64)> = map.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }
}

/// Aggregated view of one server's history.
#[derive(Debug, Clone)]
pub struct ServerSummary {
    /// The server.
    pub server: ServerId,
    /// Number of runtime observations.
    pub observations: u64,
    /// Mean observed fragment response time (ms).
    pub mean_observed_ms: f64,
    /// Mean observed/estimated ratio.
    pub mean_ratio: f64,
    /// Errors recorded against this server.
    pub errors: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_and_filter() {
        let store = RecordStore::new();
        let q = QueryId(1);
        store.record_compile(FragmentCompileRecord::new(
            q,
            FragmentId::new(q, 0),
            Arc::new(PlanLabel {
                server: ServerId::new("S1"),
                sql: "SELECT 1".into(),
                signature: "sig".into(),
                cost: Some(Cost::fixed(5.0)),
            }),
            SimTime::ZERO,
        ));
        for (srv, ms) in [("S1", 8.0), ("S2", 7.0), ("S1", 9.0)] {
            store.record_run(FragmentRunRecord {
                query: q,
                fragment: FragmentId::new(q, 0),
                server: ServerId::new(srv),
                signature: "sig".into(),
                estimated_total: Some(5.0),
                observed_ms: ms,
                at: SimTime::ZERO,
            });
        }
        store.record_error(ErrorRecord {
            server: ServerId::new("S2"),
            message: "boom".into(),
            at: SimTime::ZERO,
        });
        let compiles = store.compiles();
        assert_eq!(compiles.len(), 1);
        let c = &compiles[0];
        assert_eq!(
            (c.server().as_str(), c.sql(), c.signature()),
            ("S1", "SELECT 1", "sig")
        );
        assert_eq!(c.estimated(), Some(Cost::fixed(5.0)));
        assert_eq!(store.run_count(), 3);
        assert_eq!(store.runs_for_server(&ServerId::new("S1")).len(), 2);
        assert_eq!(store.errors().len(), 1);
    }

    #[test]
    fn server_summaries_aggregate() {
        let store = RecordStore::new();
        let q = QueryId(1);
        for (srv, est, obs) in [("S1", 5.0, 8.0), ("S1", 5.0, 12.0), ("S2", 4.0, 4.0)] {
            store.record_run(FragmentRunRecord {
                query: q,
                fragment: FragmentId::new(q, 0),
                server: ServerId::new(srv),
                signature: "sig".into(),
                estimated_total: Some(est),
                observed_ms: obs,
                at: SimTime::ZERO,
            });
        }
        store.record_error(ErrorRecord {
            server: ServerId::new("S2"),
            message: "x".into(),
            at: SimTime::ZERO,
        });
        let summaries = store.server_summaries();
        assert_eq!(summaries.len(), 2);
        let s1 = summaries
            .iter()
            .find(|s| s.server.as_str() == "S1")
            .unwrap();
        assert_eq!(s1.observations, 2);
        assert!((s1.mean_observed_ms - 10.0).abs() < 1e-9);
        assert!((s1.mean_ratio - 2.0).abs() < 1e-9);
        let s2 = summaries
            .iter()
            .find(|s| s.server.as_str() == "S2")
            .unwrap();
        assert_eq!(s2.errors, 1);
    }

    #[test]
    fn fragment_frequencies_rank_by_count() {
        let store = RecordStore::new();
        let q = QueryId(1);
        for sig in ["hot", "hot", "hot", "cold"] {
            store.record_run(FragmentRunRecord {
                query: q,
                fragment: FragmentId::new(q, 0),
                server: ServerId::new("S1"),
                signature: sig.into(),
                estimated_total: Some(1.0),
                observed_ms: 1.0,
                at: SimTime::ZERO,
            });
        }
        let freqs = store.fragment_frequencies();
        assert_eq!(freqs[0], ("hot".to_string(), 3));
        assert_eq!(freqs[1], ("cold".to_string(), 1));
    }

    #[test]
    fn clones_share_state() {
        let a = RecordStore::new();
        let b = a.clone();
        a.record_error(ErrorRecord {
            server: ServerId::new("S1"),
            message: "x".into(),
            at: SimTime::ZERO,
        });
        assert_eq!(b.errors().len(), 1);
    }
}
