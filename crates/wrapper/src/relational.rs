//! Relational wrapper over a simulated remote DBMS.

use crate::traits::{
    FragmentPlan, StreamChunk, StreamOutcome, Wrapper, WrapperKind, WrapperStream,
};
use qcc_common::{QccError, Result, ServerId, SimDuration, SimTime};
use qcc_netsim::Network;
use qcc_remote::{RemoteServer, RemoteStreamStatus};
use std::sync::Arc;

/// Approximate size of a request message (fragment SQL + descriptor id).
const REQUEST_BYTES: u64 = 256;
/// Approximate size of an EXPLAIN response per returned plan.
const EXPLAIN_RESPONSE_BYTES: u64 = 512;

/// A wrapper around a relational remote server. All traffic is charged
/// against the server's network link.
#[derive(Debug, Clone)]
pub struct RelationalWrapper {
    server: Arc<RemoteServer>,
    network: Arc<Network>,
}

impl RelationalWrapper {
    /// Wrap a remote server reachable over `network`.
    pub fn new(server: Arc<RemoteServer>, network: Arc<Network>) -> Self {
        RelationalWrapper { server, network }
    }

    /// The wrapped server (tests and the load driver use this).
    pub fn server(&self) -> &Arc<RemoteServer> {
        &self.server
    }
}

impl Wrapper for RelationalWrapper {
    fn server_id(&self) -> &ServerId {
        self.server.id()
    }

    fn kind(&self) -> WrapperKind {
        WrapperKind::Relational
    }

    fn tables(&self) -> Vec<String> {
        self.server
            .engine()
            .catalog()
            .table_names()
            .into_iter()
            .map(str::to_owned)
            .collect()
    }

    fn plan(&self, sql: &str, at: SimTime) -> Result<(Vec<FragmentPlan>, SimDuration)> {
        let id = self.server.id().clone();
        let request = self.network.transfer_time(&id, REQUEST_BYTES, at)?;
        let arrived = at + request;
        let plans = self.server.explain(sql, arrived)?;
        let response = self.network.transfer_time(
            &id,
            EXPLAIN_RESPONSE_BYTES * plans.len().max(1) as u64,
            arrived,
        )?;
        let fragment_plans = plans
            .into_iter()
            .map(|p| FragmentPlan {
                server: id.clone(),
                sql: sql.to_owned(),
                descriptor: Some(p.descriptor),
                cost: Some(p.cost),
                signature: p.signature,
            })
            .collect();
        Ok((fragment_plans, request + response))
    }

    fn execute_stream(
        &self,
        plan: &FragmentPlan,
        at: SimTime,
        cursor: usize,
        interruptible: bool,
    ) -> Result<WrapperStream> {
        let descriptor = plan.descriptor.as_ref().ok_or_else(|| {
            QccError::Execution("relational fragment plan without descriptor".into())
        })?;
        let id = self.server.id().clone();
        let request = self.network.transfer_time(&id, REQUEST_BYTES, at)?;
        let arrived = at + request;
        let stream = self
            .server
            .execute_stream(descriptor, arrived, cursor, interruptible)?;
        let chunks: Vec<StreamChunk> = stream
            .chunks
            .into_iter()
            .map(|c| StreamChunk {
                batch: c.batch,
                at: arrived + c.offset,
            })
            .collect();
        let (outcome, response_time) = match stream.status {
            RemoteStreamStatus::Complete => {
                // One result transfer for the delivered bytes, issued at
                // service end.
                let served = arrived + stream.elapsed;
                let response = self
                    .network
                    .transfer_time(&id, stream.result_bytes, served)?;
                (StreamOutcome::Complete, request + stream.elapsed + response)
            }
            RemoteStreamStatus::Interrupted { at: down_at } => {
                // The interrupt surfaces at the integrator at the
                // down-transition instant; detection latency on top of
                // that is the coordinator's stall-probe interval.
                (StreamOutcome::Interrupted { at: down_at }, down_at - at)
            }
        };
        Ok(WrapperStream {
            chunks,
            outcome,
            cursor,
            total_chunks: stream.total_chunks,
            response_time,
            bytes: stream.result_bytes,
        })
    }

    fn ping(&self, at: SimTime) -> Result<SimDuration> {
        let id = self.server.id().clone();
        let request = self.network.transfer_time(&id, 64, at)?;
        let service = self.server.ping(at + request)?;
        let response = self
            .network
            .transfer_time(&id, 64, at + request + service)?;
        Ok(request + service + response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::{Column, DataType, Row, Schema, Value};
    use qcc_netsim::{Link, LoadProfile};
    use qcc_remote::ServerProfile;
    use qcc_storage::{Catalog, Table};

    fn setup(rtt: f64) -> RelationalWrapper {
        let mut t = Table::new("t", Schema::new(vec![Column::new("a", DataType::Int)]));
        for i in 0..5000i64 {
            t.insert(Row::new(vec![Value::Int(i)])).unwrap();
        }
        let mut c = Catalog::new();
        c.register(t);
        let server = RemoteServer::new(ServerProfile::new(ServerId::new("S1")), c);
        let mut net = Network::new();
        net.add_link(
            ServerId::new("S1"),
            Link::new(rtt, 1000.0, LoadProfile::Constant(0.0)),
        );
        RelationalWrapper::new(server, Arc::new(net))
    }

    #[test]
    fn plan_returns_costed_fragments() {
        let w = setup(1.0);
        let (plans, took) = w
            .plan("SELECT * FROM t WHERE a > 500", SimTime::ZERO)
            .unwrap();
        assert!(!plans.is_empty());
        assert!(plans[0].cost.is_some());
        assert!(plans[0].descriptor.is_some());
        assert!(took.as_millis() > 0.0, "explain pays network time");
    }

    #[test]
    fn execute_charges_network_both_ways() {
        let near = setup(0.1);
        let far = setup(50.0);
        let (plans_near, _) = near.plan("SELECT * FROM t", SimTime::ZERO).unwrap();
        let (plans_far, _) = far.plan("SELECT * FROM t", SimTime::ZERO).unwrap();
        let rn = near.execute(&plans_near[0], SimTime::ZERO).unwrap();
        let rf = far.execute(&plans_far[0], SimTime::ZERO).unwrap();
        assert_eq!(rn.n_rows(), rf.n_rows());
        assert!(
            rf.response_time.as_millis() > rn.response_time.as_millis() + 90.0,
            "two RTTs difference: {} vs {}",
            rf.response_time,
            rn.response_time
        );
    }

    #[test]
    fn larger_results_take_longer_to_ship() {
        let w = setup(1.0);
        let (small, _) = w
            .plan("SELECT * FROM t WHERE a < 10", SimTime::ZERO)
            .unwrap();
        let (large, _) = w.plan("SELECT * FROM t", SimTime::ZERO).unwrap();
        let rs = w.execute(&small[0], SimTime::ZERO).unwrap();
        let rl = w.execute(&large[0], SimTime::ZERO).unwrap();
        assert!(rl.bytes > rs.bytes * 50);
        assert!(rl.response_time > rs.response_time);
    }

    /// `execute` is the collapsed cursor-0 stream, so comparing the two
    /// would compare a method with its own definition. What `execute`
    /// charges for `SELECT * FROM t WHERE a > 100` at time zero (request +
    /// service + one result transfer) is pinned instead, recorded at the
    /// last commit that wrote that charge out separately.
    const EXECUTE_MS_BITS: u64 = 0x4046505bc01a36e3;
    const EXECUTE_BYTES: u64 = 39192;

    #[test]
    fn execute_charges_are_pinned() {
        let w = setup(1.0);
        let (plans, _) = w
            .plan("SELECT * FROM t WHERE a > 100", SimTime::ZERO)
            .unwrap();
        let one_shot = w.execute(&plans[0], SimTime::ZERO).unwrap();
        assert_eq!(
            one_shot.response_time.as_millis().to_bits(),
            EXECUTE_MS_BITS
        );
        assert_eq!(one_shot.bytes, EXECUTE_BYTES);
        assert_eq!(one_shot.n_rows(), 4899);
    }

    #[test]
    fn interrupt_surfaces_at_transition_and_resumes_elsewhere() {
        let w = setup(1.0);
        let (plans, _) = w
            .plan("SELECT * FROM t WHERE a > 100", SimTime::ZERO)
            .unwrap();
        let stream = w.execute_stream(&plans[0], SimTime::ZERO, 0, true).unwrap();
        assert_eq!(stream.outcome, StreamOutcome::Complete);
        assert!(stream.total_chunks >= 2, "need a multi-chunk result");
        // Armed but never fired, the interrupt changes no total.
        assert_eq!(stream.response_time.as_millis().to_bits(), EXECUTE_MS_BITS);
        assert_eq!(stream.bytes, EXECUTE_BYTES);

        // Cut the stream mid-service and check the interrupt instant.
        let mid_chunk = &stream.chunks[stream.total_chunks / 2];
        let cut_at = mid_chunk.at;
        w.server()
            .availability()
            .add_outage(cut_at, cut_at + SimDuration::from_millis(1e6));
        let cut = w.execute_stream(&plans[0], SimTime::ZERO, 0, true).unwrap();
        assert_eq!(cut.outcome, StreamOutcome::Interrupted { at: cut_at });
        assert!(cut.delivered() < stream.total_chunks);
        assert!(cut.chunks.iter().all(|c| c.at < cut_at));
        // Resume elsewhere (fresh identical source): remainder rows equal
        // the uninterrupted suffix.
        let fresh = setup(1.0);
        let rest = fresh
            .execute_stream(&plans[0], cut_at, cut.next_cursor(), true)
            .unwrap();
        assert_eq!(rest.outcome, StreamOutcome::Complete);
        let mut rows = cut.rows();
        rows.extend(rest.rows());
        assert_eq!(rows, stream.rows());
    }

    #[test]
    fn ping_round_trips() {
        let w = setup(10.0);
        let t = w.ping(SimTime::ZERO).unwrap();
        assert!(t.as_millis() >= 20.0, "two RTTs: {t}");
    }

    #[test]
    fn tables_lists_catalog() {
        let w = setup(1.0);
        assert_eq!(w.tables(), vec!["t".to_string()]);
        assert_eq!(w.kind(), WrapperKind::Relational);
    }
}
