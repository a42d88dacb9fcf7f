//! File wrapper.
//!
//! Per the paper (§1, compile-time step 3): *"For those sub-queries that
//! are forwarded to a file wrapper, file paths are returned to II without
//! estimated cost."* A file source holds flat files of rows; the only
//! access path is a full read of the file, optionally filtered at the
//! integrator side. Because the wrapper reports no cost, the QCC's
//! calibration (seeded by daemon probes and runtime observations) is the
//! only cost information the optimizer ever gets for these sources.
//!
//! The fragment's projection/filter runs on the same batch engine the
//! relational sources use: each registered file is loaded once into an
//! [`Engine`] of its own. Only the rows and result bytes come from the
//! engine; the *time* charged is the wrapper's full-file read model.

use crate::traits::{FragmentPlan, Wrapper, WrapperKind, WrapperStream};
use parking_lot::Mutex;
use qcc_common::{QccError, Result, Row, Schema, ServerId, SimDuration, SimTime};
use qcc_engine::Engine;
use qcc_netsim::{Network, ServerLoad};
use qcc_storage::{Catalog, Table};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One flat file as handed to [`FileWrapper::add_file`]: a schema and its
/// rows.
#[derive(Debug, Clone)]
pub struct FlatFile {
    /// Schema of the records.
    pub schema: Schema,
    /// Records.
    pub rows: Vec<Row>,
}

/// A file source exposing flat files by path.
#[derive(Debug)]
pub struct FileWrapper {
    id: ServerId,
    /// One engine per file, over a catalog holding just that file.
    files: Mutex<BTreeMap<String, Arc<Engine>>>,
    network: Arc<Network>,
    load: ServerLoad,
    /// Virtual milliseconds to read one row from disk.
    read_ms_per_row: f64,
}

impl FileWrapper {
    /// A file source named `id`, reachable over `network`.
    pub fn new(id: ServerId, network: Arc<Network>) -> Self {
        FileWrapper {
            id,
            files: Mutex::new(BTreeMap::new()),
            network,
            load: ServerLoad::new(qcc_netsim::LoadProfile::Constant(0.0), 0.02),
            read_ms_per_row: 0.002,
        }
    }

    /// Register a file under `path` (e.g. `"data/feeds.csv"`). The path
    /// doubles as the table name the federation layer maps nicknames to.
    /// Fails when a row does not fit the file's schema.
    pub fn add_file(&self, path: impl Into<String>, file: FlatFile) -> Result<()> {
        let path = path.into().to_ascii_lowercase();
        let mut table = Table::new(path.clone(), file.schema);
        table.insert_all(file.rows)?;
        let mut catalog = Catalog::new();
        catalog.register(table);
        self.files
            .lock()
            .insert(path, Arc::new(Engine::new(catalog)));
        Ok(())
    }

    /// The source's load model (file servers slow down under load too).
    pub fn load(&self) -> &ServerLoad {
        &self.load
    }
}

impl Wrapper for FileWrapper {
    fn server_id(&self) -> &ServerId {
        &self.id
    }

    fn kind(&self) -> WrapperKind {
        WrapperKind::File
    }

    fn tables(&self) -> Vec<String> {
        self.files.lock().keys().cloned().collect()
    }

    fn plan(&self, sql: &str, at: SimTime) -> Result<(Vec<FragmentPlan>, SimDuration)> {
        // The fragment for a file source is `SELECT * FROM <path>`; the
        // wrapper confirms the path exists and returns it — with NO cost.
        let stmt = qcc_sql::parse_select(sql)?;
        let path = stmt.from.name.to_ascii_lowercase();
        if !self.files.lock().contains_key(&path) {
            return Err(QccError::UnknownTable(path));
        }
        let rtt = self.network.transfer_time(&self.id, 128, at)?;
        Ok((
            vec![FragmentPlan {
                server: self.id.clone(),
                sql: sql.to_owned(),
                descriptor: None,
                cost: None, // File wrappers never estimate.
                signature: format!("file({path})"),
            }],
            rtt,
        ))
    }

    fn execute_stream(
        &self,
        plan: &FragmentPlan,
        at: SimTime,
        cursor: usize,
        _interruptible: bool,
    ) -> Result<WrapperStream> {
        let stmt = qcc_sql::parse_select(&plan.sql)?;
        let path = stmt.from.name.to_ascii_lowercase();
        let engine = self
            .files
            .lock()
            .get(&path)
            .cloned()
            .ok_or_else(|| QccError::UnknownTable(path.clone()))?;
        let request = self.network.transfer_time(&self.id, 128, at)?;
        // A file source cannot execute SQL: the whole file is read (and
        // charged), then the fragment's projection/filter is applied at
        // the access layer before shipping — so the integrator receives
        // rows in the fragment's declared shape.
        let rho = self.load.utilization(at);
        let file_rows = engine.catalog().entry(&path)?.table.row_count();
        let read_ms = file_rows as f64 * self.read_ms_per_row * qcc_netsim::slowdown(rho, 1.0);
        let service = SimDuration::from_millis(read_ms);
        let plans = engine.explain_stmt(&stmt)?;
        let best = plans
            .first()
            .ok_or_else(|| QccError::Planning("no plan produced".into()))?;
        let (batches, work) = engine.execute_plan_batches(&best.plan)?;
        let response =
            self.network
                .transfer_time(&self.id, work.result_bytes, at + request + service)?;
        // The file is re-scanned wholesale on every call, so nothing
        // pipelines: every chunk lands when the full result does.
        WrapperStream::one_shot(batches, request + service + response, at, cursor, &self.id)
    }

    fn ping(&self, at: SimTime) -> Result<SimDuration> {
        let rtt = self.network.transfer_time(&self.id, 64, at)?;
        Ok(rtt + rtt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::{Column, DataType, Value};
    use qcc_netsim::{Link, LoadProfile};

    /// An empty file source `F1` behind a 2 ms link.
    fn source() -> FileWrapper {
        let mut net = Network::new();
        net.add_link(
            ServerId::new("F1"),
            Link::new(2.0, 1000.0, LoadProfile::Constant(0.0)),
        );
        FileWrapper::new(ServerId::new("F1"), Arc::new(net))
    }

    fn setup() -> FileWrapper {
        let w = source();
        let schema = Schema::new(vec![
            Column::new("ts", DataType::Int),
            Column::new("line", DataType::Str),
        ]);
        let rows = (0..100i64)
            .map(|i| Row::new(vec![Value::Int(i), Value::Str(format!("line{i}"))]))
            .collect();
        w.add_file("logs", FlatFile { schema, rows }).unwrap();
        w
    }

    #[test]
    fn plan_has_no_cost() {
        let w = setup();
        let (plans, _) = w.plan("SELECT * FROM logs", SimTime::ZERO).unwrap();
        assert_eq!(plans.len(), 1);
        assert!(plans[0].cost.is_none(), "file wrappers report no cost");
        assert!(plans[0].descriptor.is_none());
        assert_eq!(plans[0].signature, "file(logs)");
    }

    #[test]
    fn unknown_path_rejected() {
        let w = setup();
        assert!(matches!(
            w.plan("SELECT * FROM nope", SimTime::ZERO),
            Err(QccError::UnknownTable(_))
        ));
    }

    #[test]
    fn execute_reads_whole_file() {
        let w = setup();
        let (plans, _) = w.plan("SELECT * FROM logs", SimTime::ZERO).unwrap();
        let r = w.execute(&plans[0], SimTime::ZERO).unwrap();
        assert_eq!(r.n_rows(), 100);
        assert!(r.response_time.as_millis() > 4.0, "pays two RTTs");
    }

    #[test]
    fn load_slows_reads() {
        let w = setup();
        let (plans, _) = w.plan("SELECT * FROM logs", SimTime::ZERO).unwrap();
        let idle = w.execute(&plans[0], SimTime::ZERO).unwrap();
        w.load().set_background(LoadProfile::Constant(0.9));
        let busy = w.execute(&plans[0], SimTime::ZERO).unwrap();
        assert!(busy.response_time > idle.response_time);
    }

    /// 3 000 rows (three storage chunks) with NULLs in two columns and
    /// exact `Int` values in the FLOAT column.
    fn feed() -> FileWrapper {
        let w = source();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("tag", DataType::Str),
            Column::new("score", DataType::Float),
        ]);
        let rows = (0..3000i64)
            .map(|i| {
                let tag = if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Str(format!("t{}", i % 7))
                };
                let score = if i % 13 == 0 {
                    Value::Null
                } else if i % 3 == 0 {
                    Value::Int(i % 5)
                } else {
                    Value::Float(i as f64 * 0.25)
                };
                Row::new(vec![Value::Int(i), tag, score])
            })
            .collect();
        w.add_file("feed", FlatFile { schema, rows }).unwrap();
        w
    }

    /// FNV-1a over the rows' `Debug` form (which, unlike `Display`, tells
    /// `Int(3)` from `Float(3.0)`), in order.
    fn digest(rows: &[Row]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for row in rows {
            for b in format!("{row:?}").bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// What a file fragment ships and what it is charged, per statement
    /// shape: `(sql, rows, digest of rows in order, bytes, response-time
    /// bits idle, response-time bits at background load 0.9)`, recorded
    /// at the last commit where the wrapper evaluated fragments with the
    /// AST interpreter over a per-call copy of the file. Only the number
    /// of batches may differ from that path.
    #[test]
    fn shipped_rows_bytes_and_time_are_pinned() {
        let pinned: [(&str, usize, u64, u64, u64, u64); 8] = [
            (
                "SELECT f.id, f.tag FROM feed f",
                3000,
                0xb5b6a70fd32d51d3,
                29727,
                0x4043ed70a3d70a3e,
                0x405776b851eb8520,
            ),
            (
                "SELECT * FROM feed WHERE id >= 2500",
                500,
                0xf87a7b5945fe33b3,
                8689,
                0x4032d126e978d4fe,
                0x40523449ba5e3540,
            ),
            (
                "SELECT tag FROM feed",
                3000,
                0x9b2fd35f9f998ca7,
                5727,
                0x402fb5c28f5c28f6,
                0x405176b851eb8520,
            ),
            (
                "SELECT * FROM feed WHERE id < 0",
                0,
                0xcbf29ce484222325,
                0,
                0x40244189374bc6a8,
                0x4050083126e978d6,
            ),
            (
                "SELECT tag, COUNT(*) AS n, SUM(score) AS s FROM feed GROUP BY tag",
                8,
                0xa2706cecadcb0dcd,
                143,
                0x40248ac083126e98,
                0x4050115810624dd4,
            ),
            (
                "SELECT DISTINCT tag FROM feed",
                8,
                0xd743bfc831abc7a9,
                15,
                0x402449374bc6a7f0,
                0x40500926e978d4ff,
            ),
            (
                "SELECT id, score FROM feed ORDER BY score DESC, id LIMIT 7",
                7,
                0xcbfd08104d1d4e21,
                112,
                0x40247ae147ae147b,
                0x40500f5c28f5c290,
            ),
            (
                "SELECT id, score FROM feed WHERE score IS NULL OR score < 2",
                605,
                0x611897b5b6168e1c,
                8063,
                0x403230e560418938,
                0x40520c395810624f,
            ),
        ];
        let at = SimTime::from_millis(3.0);
        let idle = feed();
        let busy = feed();
        busy.load().set_background(LoadProfile::Constant(0.9));
        for (sql, n_rows, rows_digest, bytes, idle_bits, busy_bits) in pinned {
            let (plans, _) = idle.plan(sql, at).unwrap();
            for (w, bits) in [(&idle, idle_bits), (&busy, busy_bits)] {
                let r = w.execute(&plans[0], at).unwrap();
                assert_eq!(r.n_rows(), n_rows, "{sql}");
                assert_eq!(digest(&r.rows()), rows_digest, "{sql}");
                assert_eq!(r.bytes, bytes, "{sql}");
                assert_eq!(r.response_time.as_millis().to_bits(), bits, "{sql}");
            }
        }
    }

    #[test]
    fn stream_at_cursor_one_returns_exactly_the_suffix() {
        let w = feed();
        let at = SimTime::from_millis(3.0);
        let (plans, _) = w.plan("SELECT * FROM feed", at).unwrap();
        let full = w.execute_stream(&plans[0], at, 0, true).unwrap();
        assert_eq!(full.total_chunks, 3, "one chunk per storage chunk");
        let first = full.chunks[0].batch.n_rows();
        let rest = w.execute_stream(&plans[0], at, 1, true).unwrap();
        assert_eq!(rest.cursor, 1);
        assert_eq!(rest.delivered(), 2);
        assert_eq!(rest.rows(), full.rows()[first..]);
        assert_eq!(
            rest.bytes,
            rest.chunks.iter().map(|c| c.batch.byte_size()).sum::<u64>()
        );
        // The file is re-read whole whatever the cursor: same charge.
        assert_eq!(rest.response_time, full.response_time);
        assert!(w.execute_stream(&plans[0], at, 4, true).is_err());
    }

    #[test]
    fn malformed_file_is_rejected_at_registration() {
        let w = setup();
        let schema = Schema::new(vec![Column::new("ts", DataType::Int)]);
        let rows = vec![Row::new(vec![Value::from("not a number")])];
        assert!(matches!(
            w.add_file("bad", FlatFile { schema, rows }),
            Err(QccError::TypeMismatch(_))
        ));
        assert_eq!(w.tables(), vec!["logs".to_string()]);
    }
}
