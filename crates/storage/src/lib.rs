//! In-memory storage layer for the simulated remote servers.
//!
//! Each remote server in the federation owns a [`Catalog`] of [`Table`]s.
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
pub use table::{apply_update_batch, check_batches, Table, TableChunk};
