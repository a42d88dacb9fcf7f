//! The remote server implementation.

use parking_lot::Mutex;
use qcc_common::{ColumnBatch, Cost, QccError, Result, Row, ServerId, SimDuration, SimTime};
use qcc_engine::{Engine, PlanNode, Work};
use qcc_netsim::{slowdown, AvailabilitySchedule, FaultSchedule, LoadProfile, ServerLoad};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Static characteristics of a remote server.
#[derive(Debug, Clone)]
pub struct ServerProfile {
    /// Server identifier.
    pub id: ServerId,
    /// CPU speed multiplier: work units per virtual millisecond. The
    /// paper's S3 is "the most powerful machine among the three".
    pub speed: f64,
    /// Baseline load sensitivity of the processor-sharing slowdown.
    pub base_sensitivity: f64,
    /// Utilization added per in-flight query (hot-spot feedback).
    pub per_query_load: f64,
}

impl ServerProfile {
    /// A balanced default profile.
    pub fn new(id: impl Into<ServerId>) -> Self {
        ServerProfile {
            id: id.into(),
            speed: 1.0,
            base_sensitivity: 1.0,
            per_query_load: 0.05,
        }
    }
}

/// One candidate execution plan for a fragment, as reported by EXPLAIN.
#[derive(Debug, Clone)]
pub struct RemotePlan {
    /// The executable plan (the paper's "execution descriptor"), shared
    /// with every replica of the server's table image that answered the
    /// same EXPLAIN.
    pub descriptor: Arc<PlanNode>,
    /// The server's own cost estimate (load-blind).
    pub cost: Cost,
    /// Canonical plan-shape signature (for interchangeability tests).
    pub signature: String,
}

/// The outcome of executing a fragment at a remote server.
#[derive(Debug, Clone)]
pub struct RemoteResult {
    /// Result batches in columnar form. Columns are `Arc`-shared with the
    /// server's storage where the plan permits (bare scans), so shipping a
    /// fragment result does not copy table data.
    pub batches: Vec<ColumnBatch>,
    /// Virtual service time at the server (excluding network).
    pub elapsed: SimDuration,
    /// Result size in bytes (for transfer costing).
    pub result_bytes: u64,
}

impl RemoteResult {
    /// Materialize the result as rows (compatibility view for row-oriented
    /// consumers and tests).
    pub fn rows(&self) -> Vec<Row> {
        self.batches.iter().flat_map(ColumnBatch::to_rows).collect()
    }

    /// Total result rows across batches.
    pub fn n_rows(&self) -> usize {
        self.batches.iter().map(ColumnBatch::n_rows).sum()
    }
}

/// One chunk of a streamed fragment result: a column batch plus the
/// service-time offset (from request arrival) at which it left the server.
#[derive(Debug, Clone)]
pub struct RemoteStreamChunk {
    /// The chunk payload (one of the plan's result batches).
    pub batch: ColumnBatch,
    /// Service-time offset from request arrival at which this chunk was
    /// produced. Offsets are interior interpolations of the one-shot
    /// service time, proportional to cumulative rows; the last chunk of a
    /// complete stream lands exactly at the one-shot service time.
    pub offset: SimDuration,
}

/// Terminal status of a streamed execution.
#[derive(Debug, Clone, PartialEq)]
pub enum RemoteStreamStatus {
    /// Every requested chunk was produced.
    Complete,
    /// The server went down mid-service at `at` (absolute virtual time):
    /// chunks produced strictly before `at` were delivered, the rest
    /// never left the server.
    Interrupted {
        /// The down-transition instant that cut the service.
        at: SimTime,
    },
}

/// The outcome of a resumable streamed execution (the cursor protocol).
///
/// A request with `cursor = c` asks for chunks `c..total_chunks` of the
/// plan's result. Chunk indices are positions in the plan's batch list,
/// which is deterministic per plan shape, so any server holding an
/// identical replica can resume another server's stream at its cursor.
#[derive(Debug, Clone)]
pub struct RemoteStream {
    /// Delivered chunks, in order. The first has absolute index `cursor`.
    pub chunks: Vec<RemoteStreamChunk>,
    /// Whether the stream ran to completion or was cut by an outage.
    pub status: RemoteStreamStatus,
    /// Absolute index of the first chunk requested.
    pub cursor: usize,
    /// Total chunks in the full (cursor-0) result.
    pub total_chunks: usize,
    /// Virtual service time at the server for the delivered portion.
    pub elapsed: SimDuration,
    /// Bytes of the delivered chunks (for transfer costing).
    pub result_bytes: u64,
    /// Execution work for the full plan, independent of the cursor (the
    /// equivalence gates compare this against the row-at-a-time
    /// reference).
    pub work: Work,
}

impl RemoteStream {
    /// Number of chunks delivered by this call.
    pub fn delivered(&self) -> usize {
        self.chunks.len()
    }

    /// Materialize the delivered chunks as rows.
    pub fn rows(&self) -> Vec<Row> {
        self.chunks.iter().flat_map(|c| c.batch.to_rows()).collect()
    }
}

/// A simulated remote DBMS server.
pub struct RemoteServer {
    profile: ServerProfile,
    engine: Engine,
    load: ServerLoad,
    availability: AvailabilitySchedule,
    /// Flaky windows: transient-error rates on virtual time, the one
    /// transient-fault mechanism (a steady rate is a window spanning the
    /// run). Decisions are stateless — hashed from the request identity —
    /// so batch execution stays byte-identical for any `QCC_THREADS`.
    faults: FaultSchedule,
    /// Extra slowdown sensitivity per table while the update workload
    /// contends on it (set by the experiment's load driver).
    contention: Mutex<Contention>,
}

/// [`RemoteServer::set_contention`]'s map, its keys lowercased once.
#[derive(Default)]
struct Contention {
    /// Per table: `(table, extra sensitivity)`.
    tables: Vec<(String, f64)>,
    /// Per index access: `("<table>.<column>", extra sensitivity)`, from
    /// the map's `idx:` keys.
    indexes: Vec<(String, f64)>,
}

impl Contention {
    /// The largest extra sensitivity of the entries of `of` that `matches`.
    fn max_of(of: &[(String, f64)], matches: impl Fn(&[u8]) -> bool) -> f64 {
        of.iter()
            .filter(|(key, _)| matches(key.as_bytes()))
            .fold(0.0_f64, |m, &(_, extra)| m.max(extra))
    }
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    h
}

impl RemoteServer {
    /// Create a server over an engine, or over a catalog (a `Catalog` or
    /// an `Arc<Catalog>`, which gets an engine of its own), initially idle
    /// and always up. Replicas of one table image pass clones of one
    /// [`Engine`], so they share its catalog and its last EXPLAIN answer.
    pub fn new(profile: ServerProfile, engine: impl Into<Engine>) -> Arc<Self> {
        let load = ServerLoad::new(LoadProfile::Constant(0.0), profile.per_query_load);
        Arc::new(RemoteServer {
            profile,
            engine: engine.into(),
            load,
            availability: AvailabilitySchedule::always_up(),
            faults: FaultSchedule::none(),
            contention: Mutex::new(Contention::default()),
        })
    }

    /// The server's identifier.
    pub fn id(&self) -> &ServerId {
        &self.profile.id
    }

    /// The server's static profile.
    pub fn profile(&self) -> &ServerProfile {
        &self.profile
    }

    /// The server's load state (the experiment driver swaps background
    /// profiles per phase and may hold in-flight guards to emulate
    /// concurrency).
    pub fn load(&self) -> &ServerLoad {
        &self.load
    }

    /// The server's availability schedule.
    pub fn availability(&self) -> &AvailabilitySchedule {
        &self.availability
    }

    /// The server's transient-fault schedule (flaky windows on virtual
    /// time; clones share state, so fault injectors keep a handle).
    pub fn faults(&self) -> &FaultSchedule {
        &self.faults
    }

    /// The hosted engine (tests use this to inspect the catalog).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Set per-table contention sensitivities (replaces the previous map).
    /// The experiment's heavy-update phases hammer specific tables on
    /// specific servers; queries scanning those tables slow down steeply.
    /// Keys name a table, or an index as `idx:<table>.<column>`, in any
    /// case.
    pub fn set_contention(&self, map: BTreeMap<String, f64>) {
        let mut contention = Contention::default();
        for (key, extra) in map {
            let key = key.to_ascii_lowercase();
            match key.strip_prefix("idx:") {
                Some(index) => contention.indexes.push((index.to_owned(), extra)),
                None => contention.tables.push((key, extra)),
            }
        }
        *self.contention.lock() = contention;
    }

    /// EXPLAIN a fragment: candidate plans with load-blind cost estimates,
    /// cheapest first. Fails when the server is down, whatever its engine
    /// last answered. The plans come from [`Engine::explain_shared`], so a
    /// replica asked the text another replica of its image was just asked
    /// shares that answer's trees and scales only the costs.
    pub fn explain(&self, sql: &str, at: SimTime) -> Result<Vec<RemotePlan>> {
        self.check_up(at)?;
        let plans = self.engine.explain_shared(sql)?;
        Ok(plans
            .iter()
            .map(|p| RemotePlan {
                descriptor: Arc::clone(&p.plan),
                // Scale estimates by CPU speed: a faster server honestly
                // reports lower expected times.
                cost: p.cost.calibrate(1.0 / self.profile.speed),
                signature: p.signature.clone(),
            })
            .collect())
    }

    /// Execute a plan at virtual time `at`, returning rows and the virtual
    /// service time. May fail with [`QccError::ServerUnavailable`] (down)
    /// or [`QccError::ServerFault`] (transient fault, per the fault
    /// schedule).
    ///
    /// This is the call-and-wait view over [`RemoteServer::execute_stream`]
    /// with cursor 0 and no mid-service interruption; the service-time
    /// arithmetic is float-identical to the pre-streaming implementation.
    pub fn execute(&self, descriptor: &PlanNode, at: SimTime) -> Result<RemoteResult> {
        let stream = self.execute_stream(descriptor, at, 0, false)?;
        Ok(RemoteResult {
            result_bytes: stream.result_bytes,
            batches: stream.chunks.into_iter().map(|c| c.batch).collect(),
            elapsed: stream.elapsed,
        })
    }

    /// Execute chunks `cursor..` of a plan at virtual time `at`, streaming
    /// resumable chunks (the cursor protocol).
    ///
    /// The timing model is the one-shot service time with interior chunk
    /// boundaries interpolated proportionally to cumulative result rows; a
    /// cursor-`c` request is charged the proportional remainder, so
    /// resuming never replays already-delivered work. When `interruptible`
    /// is set, an availability window opening strictly inside the service
    /// interval cuts the stream: chunks produced strictly before the
    /// down-transition are delivered, the status reports
    /// [`RemoteStreamStatus::Interrupted`] at the transition instant, and
    /// the caller may resume the remainder elsewhere. (Only crash windows
    /// interrupt; flaky windows stay arrival-sampled, as before.)
    pub fn execute_stream(
        &self,
        descriptor: &PlanNode,
        at: SimTime,
        cursor: usize,
        interruptible: bool,
    ) -> Result<RemoteStream> {
        self.check_up(at)?;
        // Transient faults must not consume a shared RNG stream: under
        // `submit_batch` fragments execute on worker threads in
        // nondeterministic order, so the decision is a stateless hash of
        // the request identity (server, plan shape, virtual time) — the
        // same request faults the same way for any `QCC_THREADS`. Resumed
        // requests (cursor > 0) mix the cursor in so a remainder rolls its
        // own fate; cursor-0 requests hash exactly as before.
        let window_rate = self.faults.rate_at(at);
        if window_rate > 0.0 {
            let mut h = fnv1a(0xcbf29ce484222325, self.profile.id.as_str().as_bytes());
            h = fnv1a(h, descriptor.signature().as_bytes());
            h = fnv1a(h, &at.as_millis().to_bits().to_le_bytes());
            if cursor > 0 {
                h = fnv1a(h, &(cursor as u64).to_le_bytes());
            }
            let roll = (h >> 11) as f64 / (1u64 << 53) as f64;
            if roll < window_rate {
                return Err(QccError::ServerFault {
                    server: self.profile.id.clone(),
                    message: "transient fault window".into(),
                });
            }
        }
        // Utilization sampled before this query starts (its own footprint
        // is represented by in-flight guards the driver may hold).
        let rho = self.load.utilization(at);
        let sensitivity = self.effective_sensitivity(descriptor);
        let (batches, work) = self.engine.execute_plan_batches(descriptor)?;
        let service_ms = work.cpu_units / self.profile.speed * slowdown(rho, sensitivity);
        let total_chunks = batches.len();
        if cursor > total_chunks {
            return Err(QccError::Execution(format!(
                "stream cursor {cursor} past end ({total_chunks} chunks) at {}",
                self.profile.id
            )));
        }
        // Chunk boundary offsets over the one-shot service time,
        // proportional to cumulative rows (even spacing when the result
        // is empty). `boundary(i)` is the offset at which chunk `i-1`
        // completes; boundary(total_chunks) is exactly `service_ms`.
        let total_rows: usize = batches.iter().map(ColumnBatch::n_rows).sum();
        let mut cum = 0usize;
        let mut boundaries = Vec::with_capacity(total_chunks);
        for (i, b) in batches.iter().enumerate() {
            cum += b.n_rows();
            let frac = if total_rows > 0 {
                cum as f64 / total_rows as f64
            } else {
                (i + 1) as f64 / total_chunks as f64
            };
            boundaries.push(if cum == total_rows && i + 1 == total_chunks {
                service_ms
            } else {
                service_ms * frac
            });
        }
        let base_ms = if cursor == 0 {
            0.0
        } else {
            boundaries[cursor - 1]
        };
        let full_elapsed_ms = service_ms - base_ms;
        // First down-transition strictly inside the service interval (the
        // arrival liveness check already passed, so no window covers
        // `at`; finishing exactly at a window start counts as complete).
        let interrupt = if interruptible {
            self.availability
                .next_down_within(at, at + SimDuration::from_millis(full_elapsed_ms))
        } else {
            None
        };
        let mut chunks = Vec::new();
        let mut result_bytes = 0u64;
        for (i, batch) in batches.into_iter().enumerate().skip(cursor) {
            let offset_ms = boundaries[i] - base_ms;
            if let Some(down_at) = interrupt {
                // A chunk completing exactly at the down-transition never
                // left the server.
                if at + SimDuration::from_millis(offset_ms) >= down_at {
                    break;
                }
            }
            result_bytes += batch.byte_size();
            chunks.push(RemoteStreamChunk {
                batch,
                offset: SimDuration::from_millis(offset_ms),
            });
        }
        let (status, elapsed) = match interrupt {
            Some(down_at) => (
                RemoteStreamStatus::Interrupted { at: down_at },
                down_at - at,
            ),
            None => (
                RemoteStreamStatus::Complete,
                SimDuration::from_millis(full_elapsed_ms),
            ),
        };
        // A complete cursor-0 stream reports the full result size
        // verbatim (byte-identical to the call-and-wait path).
        if cursor == 0 && status == RemoteStreamStatus::Complete {
            result_bytes = work.result_bytes;
        }
        Ok(RemoteStream {
            chunks,
            status,
            cursor,
            total_chunks,
            elapsed,
            result_bytes,
            work,
        })
    }

    /// Cheap liveness probe (the QCC daemons call this). Returns the probe's
    /// service time, or an error when down.
    pub fn ping(&self, at: SimTime) -> Result<SimDuration> {
        self.check_up(at)?;
        let rho = self.load.utilization(at);
        let ms = 0.2 / self.profile.speed * slowdown(rho, self.profile.base_sensitivity);
        Ok(SimDuration::from_millis(ms))
    }

    fn check_up(&self, at: SimTime) -> Result<()> {
        if self.availability.is_up(at) {
            Ok(())
        } else {
            Err(QccError::ServerUnavailable(self.profile.id.clone()))
        }
    }

    fn effective_sensitivity(&self, descriptor: &PlanNode) -> f64 {
        let contention = self.contention.lock();
        if contention.tables.is_empty() && contention.indexes.is_empty() {
            return self.profile.base_sensitivity;
        }
        let table_extra = descriptor
            .base_tables()
            .iter()
            .map(|t| {
                Contention::max_of(&contention.tables, |key| {
                    key.eq_ignore_ascii_case(t.as_bytes())
                })
            })
            .fold(0.0_f64, f64::max);
        // Index accesses contend separately: a heavy update workload
        // hammers B-tree pages, so index-driven plans can degrade more
        // than table scans on the same table.
        let index_extra = descriptor
            .index_scans()
            .iter()
            .map(|(t, c)| {
                Contention::max_of(&contention.indexes, |key| {
                    let (t, c) = (t.as_bytes(), c.as_bytes());
                    key.len() == t.len() + 1 + c.len()
                        && key[..t.len()].eq_ignore_ascii_case(t)
                        && key[t.len()] == b'.'
                        && key[t.len() + 1..].eq_ignore_ascii_case(c)
                })
            })
            .fold(0.0_f64, f64::max);
        self.profile.base_sensitivity + table_extra.max(index_extra)
    }
}

impl std::fmt::Debug for RemoteServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteServer")
            .field("id", &self.profile.id)
            .field("speed", &self.profile.speed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::{Column, DataType, Schema, Value};
    use qcc_storage::{Catalog, Table};

    fn catalog(rows: i64) -> Catalog {
        let mut t = Table::new(
            "items",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("v", DataType::Int),
            ]),
        );
        for i in 0..rows {
            t.insert(Row::new(vec![Value::Int(i), Value::Int(i % 7)]))
                .unwrap();
        }
        let mut c = Catalog::new();
        c.register(t);
        c
    }

    fn server(speed: f64) -> Arc<RemoteServer> {
        let mut profile = ServerProfile::new(ServerId::new("S1"));
        profile.speed = speed;
        RemoteServer::new(profile, catalog(10_000))
    }

    #[test]
    fn explain_returns_cheapest_first() {
        let s = server(1.0);
        let plans = s
            .explain("SELECT * FROM items WHERE v = 3", SimTime::ZERO)
            .unwrap();
        assert!(!plans.is_empty());
        for w in plans.windows(2) {
            assert!(w[0].cost.total() <= w[1].cost.total());
        }
    }

    #[test]
    fn faster_server_reports_lower_estimates() {
        let slow = server(1.0);
        let fast = server(2.0);
        let sql = "SELECT COUNT(*) FROM items";
        let cs = slow.explain(sql, SimTime::ZERO).unwrap()[0].cost.total();
        let cf = fast.explain(sql, SimTime::ZERO).unwrap()[0].cost.total();
        assert!((cs / cf - 2.0).abs() < 1e-6);
    }

    #[test]
    fn execute_returns_rows_and_time() {
        let s = server(1.0);
        let plans = s
            .explain("SELECT COUNT(*) FROM items", SimTime::ZERO)
            .unwrap();
        let r = s.execute(&plans[0].descriptor, SimTime::ZERO).unwrap();
        assert_eq!(r.rows()[0].get(0), &Value::Int(10_000));
        assert!(r.elapsed.as_millis() > 0.0);
    }

    #[test]
    fn load_slows_execution() {
        let s = server(1.0);
        let plans = s
            .explain("SELECT COUNT(*) FROM items", SimTime::ZERO)
            .unwrap();
        let idle = s.execute(&plans[0].descriptor, SimTime::ZERO).unwrap();
        s.load().set_background(LoadProfile::Constant(0.8));
        let loaded = s.execute(&plans[0].descriptor, SimTime::ZERO).unwrap();
        assert!(
            loaded.elapsed.as_millis() > idle.elapsed.as_millis() * 3.0,
            "idle {} vs loaded {}",
            idle.elapsed,
            loaded.elapsed
        );
    }

    #[test]
    fn contention_targets_specific_tables() {
        let s = server(1.0);
        s.load().set_background(LoadProfile::Constant(0.7));
        let plans = s
            .explain("SELECT COUNT(*) FROM items", SimTime::ZERO)
            .unwrap();
        let before = s.execute(&plans[0].descriptor, SimTime::ZERO).unwrap();
        let mut map = BTreeMap::new();
        map.insert("items".to_string(), 5.0);
        s.set_contention(map);
        let after = s.execute(&plans[0].descriptor, SimTime::ZERO).unwrap();
        assert!(after.elapsed.as_millis() > before.elapsed.as_millis() * 2.0);
        // Contention on an unrelated table does nothing.
        let mut map = BTreeMap::new();
        map.insert("other".to_string(), 5.0);
        s.set_contention(map);
        let unrelated = s.execute(&plans[0].descriptor, SimTime::ZERO).unwrap();
        assert!((unrelated.elapsed.as_millis() - before.elapsed.as_millis()).abs() < 1e-9);
    }

    /// A key charges its table, or its index, whatever the case of either:
    /// names are looked up case-insensitively everywhere else too.
    #[test]
    fn contention_keys_match_in_any_case() {
        let mut c = catalog(10_000);
        c.create_index("items", "id").unwrap();
        let s = RemoteServer::new(ServerProfile::new(ServerId::new("S1")), c);
        s.load().set_background(LoadProfile::Constant(0.7));
        let plans = s
            .explain("SELECT v FROM items WHERE id = 3", SimTime::ZERO)
            .unwrap();
        let index = plans
            .iter()
            .find(|p| p.descriptor.signature().contains("idxscan"))
            .expect("an index plan");
        let elapsed = |map: &[(&str, f64)]| {
            s.set_contention(map.iter().map(|&(k, x)| (k.to_owned(), x)).collect());
            let r = s.execute(&index.descriptor, SimTime::ZERO).unwrap();
            r.elapsed.as_millis()
        };
        let before = elapsed(&[]);
        for map in [
            [("ITEMS", 5.0)],
            [("Items", 5.0)],
            [("idx:ITEMS.Id", 5.0)],
            [("IDX:items.id", 5.0)],
        ] {
            let after = elapsed(&map);
            assert!(after > before * 2.0, "{map:?}: {before} -> {after}");
        }
        assert_eq!(elapsed(&[("idx:items.v", 5.0), ("item", 5.0)]), before);
    }

    #[test]
    fn outage_rejects_requests() {
        let s = server(1.0);
        s.availability()
            .add_outage(SimTime::from_millis(10.0), SimTime::from_millis(20.0));
        assert!(s
            .explain("SELECT * FROM items", SimTime::from_millis(15.0))
            .is_err());
        let plans = s.explain("SELECT * FROM items", SimTime::ZERO).unwrap();
        assert!(matches!(
            s.execute(&plans[0].descriptor, SimTime::from_millis(15.0)),
            Err(QccError::ServerUnavailable(_))
        ));
        assert!(s.ping(SimTime::from_millis(15.0)).is_err());
        assert!(s.ping(SimTime::from_millis(25.0)).is_ok());
    }

    #[test]
    fn faults_injected_at_configured_rate() {
        let s = RemoteServer::new(ServerProfile::new(ServerId::new("flaky")), catalog(100));
        s.faults()
            .add_window(SimTime::ZERO, SimTime::from_millis(f64::INFINITY), 0.5);
        let plans = s.explain("SELECT * FROM items", SimTime::ZERO).unwrap();
        // Identical requests at one instant share one fate by design, so
        // each request arrives at its own instant.
        let faults = (0..200)
            .filter(|&i| {
                let at = SimTime::from_millis(f64::from(i) * 0.5);
                matches!(
                    s.execute(&plans[0].descriptor, at),
                    Err(QccError::ServerFault { .. })
                )
            })
            .count();
        assert!((60..140).contains(&faults), "got {faults} faults of 200");
        let at = SimTime::from_millis(3.0);
        let fate = s.execute(&plans[0].descriptor, at).is_err();
        assert_eq!(s.execute(&plans[0].descriptor, at).is_err(), fate);
    }

    #[test]
    fn stream_matches_execute_bit_for_bit() {
        let s = server(1.0);
        s.load().set_background(LoadProfile::Constant(0.4));
        let plans = s
            .explain("SELECT * FROM items WHERE v < 5", SimTime::ZERO)
            .unwrap();
        let one_shot = s.execute(&plans[0].descriptor, SimTime::ZERO).unwrap();
        let stream = s
            .execute_stream(&plans[0].descriptor, SimTime::ZERO, 0, true)
            .unwrap();
        assert_eq!(stream.status, RemoteStreamStatus::Complete);
        assert_eq!(stream.cursor, 0);
        assert_eq!(stream.total_chunks, one_shot.batches.len());
        assert_eq!(
            stream.elapsed.as_millis().to_bits(),
            one_shot.elapsed.as_millis().to_bits()
        );
        assert_eq!(stream.result_bytes, one_shot.result_bytes);
        assert_eq!(stream.rows(), one_shot.rows());
        // The last chunk lands exactly at the one-shot service time and
        // offsets are nondecreasing.
        let last = stream.chunks.last().unwrap();
        assert_eq!(
            last.offset.as_millis().to_bits(),
            one_shot.elapsed.as_millis().to_bits()
        );
        for w in stream.chunks.windows(2) {
            assert!(w[0].offset.as_millis() <= w[1].offset.as_millis());
        }
    }

    #[test]
    fn resume_covers_exactly_the_remainder() {
        let s = server(1.0);
        let plans = s
            .explain("SELECT * FROM items WHERE v < 5", SimTime::ZERO)
            .unwrap();
        let full = s
            .execute_stream(&plans[0].descriptor, SimTime::ZERO, 0, false)
            .unwrap();
        assert!(full.total_chunks >= 2, "need a multi-chunk result");
        for cursor in 0..=full.total_chunks {
            let rest = s
                .execute_stream(&plans[0].descriptor, SimTime::ZERO, cursor, false)
                .unwrap();
            assert_eq!(rest.status, RemoteStreamStatus::Complete);
            assert_eq!(rest.delivered(), full.total_chunks - cursor);
            let mut expect: Vec<Row> = Vec::new();
            for c in &full.chunks[cursor..] {
                expect.extend(c.batch.to_rows());
            }
            assert_eq!(rest.rows(), expect);
            // Proportionally less service time remains as the cursor
            // advances; delivered bytes sum to the full size.
            assert!(rest.elapsed.as_millis() <= full.elapsed.as_millis() + 1e-9);
            let prefix: u64 = full.chunks[..cursor]
                .iter()
                .map(|c| c.batch.byte_size())
                .sum();
            assert_eq!(prefix + rest.result_bytes, full.result_bytes);
        }
    }

    #[test]
    fn midservice_outage_interrupts_the_stream() {
        let s = server(1.0);
        let plans = s
            .explain("SELECT * FROM items WHERE v < 5", SimTime::ZERO)
            .unwrap();
        let full = s
            .execute_stream(&plans[0].descriptor, SimTime::ZERO, 0, true)
            .unwrap();
        assert!(full.total_chunks >= 2);
        // Open a crash window halfway through the service interval.
        let mid = SimTime::from_millis(full.elapsed.as_millis() / 2.0);
        s.availability()
            .add_outage(mid, mid + SimDuration::from_millis(1e6));
        let cut = s
            .execute_stream(&plans[0].descriptor, SimTime::ZERO, 0, true)
            .unwrap();
        assert_eq!(cut.status, RemoteStreamStatus::Interrupted { at: mid });
        assert!(cut.delivered() < full.total_chunks);
        assert_eq!(cut.elapsed.as_millis(), mid.as_millis());
        for c in &cut.chunks {
            assert!(SimTime::ZERO + c.offset < mid);
        }
        // The non-interruptible path still sees only arrival liveness
        // (the pre-streaming contract).
        let blind = s
            .execute_stream(&plans[0].descriptor, SimTime::ZERO, 0, false)
            .unwrap();
        assert_eq!(blind.status, RemoteStreamStatus::Complete);
        // A replica (same data, no outage) resumes the remainder.
        let replica = server(1.0);
        let rest = replica
            .execute_stream(&plans[0].descriptor, mid, cut.delivered(), true)
            .unwrap();
        assert_eq!(rest.status, RemoteStreamStatus::Complete);
        let mut rows = cut.rows();
        rows.extend(rest.rows());
        assert_eq!(rows, full.rows());
    }

    /// A server of the given speed over a clone of `engine`.
    fn replica(name: &str, speed: f64, engine: &Engine) -> Arc<RemoteServer> {
        let mut profile = ServerProfile::new(ServerId::new(name));
        profile.speed = speed;
        RemoteServer::new(profile, engine.clone())
    }

    /// The bits of every field of a cost.
    fn bits(c: Cost) -> [u64; 3] {
        [c.first_tuple, c.next_tuple, c.cardinality].map(f64::to_bits)
    }

    /// `plans` are what a fresh EXPLAIN of `sql` on `engine` answers at a
    /// server of `speed`: the same trees, signatures and scaled costs.
    fn assert_fresh(plans: &[RemotePlan], engine: &Engine, sql: &str, speed: f64) {
        let fresh = engine.explain(sql).unwrap();
        assert_eq!(plans.len(), fresh.len(), "{sql}");
        for (p, f) in plans.iter().zip(&fresh) {
            assert_eq!(format!("{:?}", p.descriptor), format!("{:?}", f.plan));
            assert_eq!(p.signature, f.plan.signature());
            assert_eq!(bits(p.cost), bits(f.cost.calibrate(1.0 / speed)), "{sql}");
        }
    }

    #[test]
    fn replicas_of_one_engine_share_the_explain_answer() {
        let mut c = catalog(10_000);
        c.create_index("items", "v").unwrap();
        let engine = Engine::new(c);
        let (a, b) = (replica("A", 1.0, &engine), replica("B", 2.5, &engine));
        let sql = "SELECT id FROM items WHERE v = 3";
        let first = a.explain(sql, SimTime::ZERO).unwrap();
        let second = b.explain(sql, SimTime::ZERO).unwrap();
        assert!(first.len() >= 2, "an index plan and a scan");
        for (x, y) in first.iter().zip(&second) {
            assert!(Arc::ptr_eq(&x.descriptor, &y.descriptor));
        }
        assert_fresh(&first, &engine, sql, 1.0);
        assert_fresh(&second, &engine, sql, 2.5);
    }

    #[test]
    fn an_outage_refuses_while_the_slot_holds_the_text() {
        let engine = Engine::new(catalog(100));
        let (up, down) = (replica("up", 1.0, &engine), replica("down", 1.0, &engine));
        down.availability()
            .add_outage(SimTime::from_millis(10.0), SimTime::from_millis(20.0));
        let sql = "SELECT COUNT(*) FROM items";
        let at = SimTime::from_millis(15.0);
        up.explain(sql, at).unwrap();
        assert!(matches!(
            down.explain(sql, at),
            Err(QccError::ServerUnavailable(_))
        ));
        assert_fresh(
            &down.explain(sql, SimTime::ZERO).unwrap(),
            &engine,
            sql,
            1.0,
        );
    }

    #[test]
    fn engines_built_apart_never_share_a_slot() {
        let image = Arc::new(catalog(100));
        let (x, y) = (Engine::new(Arc::clone(&image)), Engine::new(image));
        let sql = "SELECT * FROM items WHERE v > 2";
        let (from_x, from_y) = (replica("X", 1.0, &x), replica("Y", 1.0, &y));
        let px = from_x.explain(sql, SimTime::ZERO).unwrap();
        let py = from_y.explain(sql, SimTime::ZERO).unwrap();
        assert!(!Arc::ptr_eq(&px[0].descriptor, &py[0].descriptor));
        let (s1, s2) = (server(1.0), server(1.0));
        let p1 = s1.explain(sql, SimTime::ZERO).unwrap();
        let p2 = s2.explain(sql, SimTime::ZERO).unwrap();
        assert!(!Arc::ptr_eq(&p1[0].descriptor, &p2[0].descriptor));
    }

    #[test]
    fn asking_a_then_b_then_a_answers_each() {
        let engine = Engine::new(catalog(1_000));
        let (r1, r2) = (replica("R1", 1.0, &engine), replica("R2", 3.0, &engine));
        let a = "SELECT v, COUNT(*) AS n FROM items GROUP BY v";
        let b = "SELECT id FROM items WHERE v < 2";
        for (server, sql, speed) in [(&r1, a, 1.0), (&r2, b, 3.0), (&r1, a, 1.0), (&r2, a, 3.0)] {
            assert_fresh(
                &server.explain(sql, SimTime::ZERO).unwrap(),
                &engine,
                sql,
                speed,
            );
        }
    }

    #[test]
    fn ping_reflects_load() {
        let s = server(1.0);
        let idle = s.ping(SimTime::ZERO).unwrap();
        s.load().set_background(LoadProfile::Constant(0.9));
        let loaded = s.ping(SimTime::ZERO).unwrap();
        assert!(loaded.as_millis() > idle.as_millis() * 5.0);
    }
}
