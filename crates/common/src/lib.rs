//! Shared foundation types for the load-aware federated query routing system.
//!
//! This crate holds everything that more than one subsystem needs to agree
//! on: SQL values and rows, schemas, identifiers, the cost model of the
//! federated optimizer (first-tuple / next-tuple / cardinality, per the
//! paper's §3), virtual simulation time, a deterministic PRNG, and small
//! statistics helpers used by the calibrator.
//!
//! Nothing in here depends on any other crate in the workspace.

pub mod column;
pub mod cost;
pub mod error;
pub mod fifo;
pub mod ids;
pub mod obs;
pub mod rng;
pub mod row;
pub mod scatter;
pub mod stats;
pub mod time;
pub mod value;

pub use column::{CellRef, ColumnBatch, ColumnSummary, ColumnVector, BATCH_ROWS};
pub use cost::Cost;
pub use error::{QccError, Result};
pub use fifo::FifoMap;
pub use ids::{FragmentId, QueryId, ServerId};
pub use obs::{
    CounterFamily, CounterHandle, Event, Field, FieldValue, GaugeHandle, HistogramHandle, Obs,
};
pub use rng::Pcg32;
pub use row::{Column, Row, Schema};
pub use scatter::{default_threads, scatter_indexed};
pub use stats::SlidingWindow;
pub use time::{SimClock, SimDuration, SimTime, WallStopwatch};
pub use value::{DataType, Value};
