//! In-memory storage layer for the simulated remote servers.
//!
//! The remote servers of a world share one immutable [`Catalog`] of
//! [`Table`]s (each holds an `Arc` of it).
//! Tables carry [`stats::TableStats`] (row counts, per-column distinct
//! values, min/max, equi-depth histograms) that the per-server optimizer
//! uses for cardinality estimation, and optional secondary [`index::Index`]es
//! that enable cheap highly-selective access paths (the reason the paper's
//! QT3 stays cheap on a loaded server).

pub mod catalog;
pub mod datagen;
pub mod index;
pub mod stats;
pub mod table;

pub use catalog::Catalog;
pub use datagen::{ColumnSpec, TableSpec};
pub use index::Index;
pub use stats::{ColumnQuickStats, ColumnStats, Histogram, TableStats};
pub use table::{check_batches, Table, TableChunk};
