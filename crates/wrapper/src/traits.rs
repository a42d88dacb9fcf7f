//! The wrapper abstraction.

use qcc_common::{ColumnBatch, Cost, QccError, Result, Row, ServerId, SimDuration, SimTime};
use qcc_engine::PlanNode;

/// The two wrapper families the paper distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WrapperKind {
    /// Relational DBMS wrapper: plans with cost estimates.
    Relational,
    /// File wrapper: paths, no cost estimates.
    File,
}

/// One candidate fragment execution plan at one source, as returned to the
/// integrator (and recorded by the meta-wrapper) at compile time.
#[derive(Debug, Clone)]
pub struct FragmentPlan {
    /// The source server this plan executes on.
    pub server: ServerId,
    /// The fragment SQL this plan answers.
    pub sql: String,
    /// The execution descriptor (absent for file sources, which are
    /// re-scanned wholesale).
    pub descriptor: Option<PlanNode>,
    /// The wrapper's cost estimate. `None` for file wrappers — the paper's
    /// file wrapper "returns file paths to II without estimated cost".
    pub cost: Option<Cost>,
    /// Canonical plan-shape signature; two fragment plans with equal
    /// signatures (and equal SQL) are interchangeable for load balancing.
    pub signature: String,
}

/// The runtime outcome of executing a fragment plan through a wrapper.
#[derive(Debug, Clone)]
pub struct WrapperResult {
    /// Result batches in columnar form, `Arc`-shared with the source where
    /// the plan permits (no copy for bare scans).
    pub batches: Vec<ColumnBatch>,
    /// End-to-end fragment response time observed at the integrator:
    /// request transfer + remote service + result transfer.
    pub response_time: SimDuration,
    /// Result payload size in bytes.
    pub bytes: u64,
}

impl WrapperResult {
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

/// One chunk of a streamed fragment as seen at the integrator: the payload
/// plus the absolute virtual time the source produced it. Interior chunks
/// pipeline with execution; the transfer of the full result is charged
/// once, in the stream's `response_time`.
#[derive(Debug, Clone)]
pub struct StreamChunk {
    /// The chunk payload (one result batch).
    pub batch: ColumnBatch,
    /// Absolute virtual time the chunk left the source.
    pub at: SimTime,
}

/// Terminal outcome of a streamed fragment execution.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamOutcome {
    /// Every requested chunk arrived.
    Complete,
    /// The source went down mid-stream at `at` (absolute virtual time).
    /// Chunks produced strictly before `at` were delivered; the caller
    /// may resume the remainder at `cursor + delivered` on a replica.
    Interrupted { at: SimTime },
}

/// A resumable fragment result stream (the integrator-side view of the
/// cursor protocol).
#[derive(Debug, Clone)]
pub struct WrapperStream {
    /// Delivered chunks in order; the first has absolute index `cursor`.
    pub chunks: Vec<StreamChunk>,
    /// Complete, or cut by an outage.
    pub outcome: StreamOutcome,
    /// Absolute index of the first chunk requested.
    pub cursor: usize,
    /// Total chunks in the full (cursor-0) result.
    pub total_chunks: usize,
    /// For a complete stream: end-to-end response time (request
    /// transfer, remaining service, result transfer); at `cursor` 0 it is
    /// what [`Wrapper::execute`] reports. For an interrupted stream: time
    /// until the interrupt surfaced at the integrator.
    pub response_time: SimDuration,
    /// Bytes of the delivered chunks.
    pub bytes: u64,
}

impl WrapperStream {
    /// The stream of a source that cannot pipeline (a file wrapper
    /// re-scans wholesale): chunks `cursor..` of `batches`, all landing
    /// when the full result does, at `at + response_time`.
    pub fn one_shot(
        batches: Vec<ColumnBatch>,
        response_time: SimDuration,
        at: SimTime,
        cursor: usize,
        server: &ServerId,
    ) -> Result<WrapperStream> {
        let total_chunks = batches.len();
        if cursor > total_chunks {
            return Err(QccError::Execution(format!(
                "stream cursor {cursor} past end ({total_chunks} chunks) at {server}"
            )));
        }
        let done = at + response_time;
        let chunks: Vec<StreamChunk> = batches
            .into_iter()
            .skip(cursor)
            .map(|batch| StreamChunk { batch, at: done })
            .collect();
        Ok(WrapperStream {
            bytes: chunks.iter().map(|c| c.batch.byte_size()).sum(),
            chunks,
            outcome: StreamOutcome::Complete,
            cursor,
            total_chunks,
            response_time,
        })
    }

    /// Number of chunks delivered by this call.
    pub fn delivered(&self) -> usize {
        self.chunks.len()
    }

    /// The absolute cursor position after this call (first undelivered
    /// chunk index).
    pub fn next_cursor(&self) -> usize {
        self.cursor + self.chunks.len()
    }

    /// Materialize the delivered chunks as rows.
    pub fn rows(&self) -> Vec<Row> {
        self.chunks.iter().flat_map(|c| c.batch.to_rows()).collect()
    }
}

/// A source wrapper: the integrator's only interface to a remote source.
pub trait Wrapper: Send + Sync + std::fmt::Debug {
    /// The wrapped source's server id.
    fn server_id(&self) -> &ServerId;

    /// Relational or file.
    fn kind(&self) -> WrapperKind;

    /// Base tables this source can serve (lowercased).
    fn tables(&self) -> Vec<String>;

    /// Compile-time: candidate execution plans for a fragment, plus the
    /// virtual time the EXPLAIN round trip itself consumed.
    fn plan(&self, sql: &str, at: SimTime) -> Result<(Vec<FragmentPlan>, SimDuration)>;

    /// Runtime: execute chunks `cursor..` of a fragment plan as a
    /// resumable stream. This is the method a wrapper implements; the
    /// coordinator dispatches every fragment through it. When
    /// `interruptible` is set, a source crash opening mid-service cuts the
    /// stream instead of going unnoticed until the next arrival-time
    /// liveness check. A source that cannot pipeline builds its answer
    /// with [`WrapperStream::one_shot`].
    fn execute_stream(
        &self,
        plan: &FragmentPlan,
        at: SimTime,
        cursor: usize,
        interruptible: bool,
    ) -> Result<WrapperStream>;

    /// Runtime: execute a fragment plan and wait for the whole result —
    /// the complete cursor-0 stream, not interruptible, collapsed.
    fn execute(&self, plan: &FragmentPlan, at: SimTime) -> Result<WrapperResult> {
        let stream = self.execute_stream(plan, at, 0, false)?;
        Ok(WrapperResult {
            batches: stream.chunks.into_iter().map(|c| c.batch).collect(),
            response_time: stream.response_time,
            bytes: stream.bytes,
        })
    }

    /// Liveness probe (QCC availability daemons call this through the
    /// meta-wrapper). Returns round-trip time.
    fn ping(&self, at: SimTime) -> Result<SimDuration>;
}
