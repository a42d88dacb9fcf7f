//! Per-server catalogs: tables, their statistics, and their indexes.

use crate::index::Index;
use crate::stats::TableStats;
use crate::table::Table;
use qcc_common::{QccError, Result};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A table plus everything the optimizer knows about it.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The data.
    pub table: Table,
    /// Optimizer statistics (computed by [`TableStats::analyze`] when
    /// [`Catalog::register`] adds the table).
    pub stats: TableStats,
    /// Secondary indexes.
    pub indexes: Vec<Index>,
}

/// A named collection of tables, as hosted by one remote server — or by the
/// QCC's *simulated federated system*, whose catalogs hold statistics and
/// virtual (empty) tables without the actual data (paper §2).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    entries: BTreeMap<String, CatalogEntry>,
}

/// The key a table name is stored under: the name lower-cased. Plans and
/// fragments spell names the way the catalog lists them, so the usual
/// lookup — one per scan node per execution and per EXPLAIN — borrows.
fn key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table, analyzing it immediately. Replaces any previous
    /// table with the same name (case-insensitive).
    pub fn register(&mut self, table: Table) {
        let stats = TableStats::analyze(&table);
        self.entries.insert(
            key(table.name()).into_owned(),
            CatalogEntry {
                table,
                stats,
                indexes: Vec::new(),
            },
        );
    }

    /// Register a *virtual* table: schema and statistics but no rows.
    /// Virtual tables support EXPLAIN (cost estimation) but not execution —
    /// they are the substance of the simulated federated system.
    pub fn register_virtual(&mut self, table: Table, stats: TableStats) {
        self.entries.insert(
            key(table.name()).into_owned(),
            CatalogEntry {
                table,
                stats,
                indexes: Vec::new(),
            },
        );
    }

    /// Build and attach an index on `table.column`.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        let entry = self.entry_mut(table)?;
        // Replace an existing index on the same column.
        entry
            .indexes
            .retain(|i| !i.column_name().eq_ignore_ascii_case(column));
        let idx = Index::build(&entry.table, column)?;
        entry.indexes.push(idx);
        Ok(())
    }

    /// Look up a table entry.
    pub fn entry(&self, name: &str) -> Result<&CatalogEntry> {
        self.entries
            .get(&*key(name))
            .ok_or_else(|| QccError::UnknownTable(name.to_owned()))
    }

    /// Mutable lookup.
    fn entry_mut(&mut self, name: &str) -> Result<&mut CatalogEntry> {
        self.entries
            .get_mut(&*key(name))
            .ok_or_else(|| QccError::UnknownTable(name.to_owned()))
    }

    /// True if a table with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(&*key(name))
    }

    /// All table names (lowercased), sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Derive the data-less twin of this catalog: same schemas, same
    /// statistics, no rows. This is what the QCC's simulated federated
    /// system runs EXPLAIN against.
    pub fn to_virtual(&self) -> Catalog {
        let mut out = Catalog::new();
        for entry in self.entries.values() {
            let empty = Table::new(entry.table.name(), entry.table.schema().clone());
            out.register_virtual(empty, entry.stats.clone());
            // Virtual indexes: rebuilt empty, but recorded so that the
            // optimizer still sees the access path existing.
            for idx in &entry.indexes {
                // Ignore failures: the column exists by construction.
                let _ = out.create_index(entry.table.name(), idx.column_name());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::{Column, DataType, Row, Schema, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut t = Table::new(
            "Orders",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("total", DataType::Float),
            ]),
        );
        for i in 0..50i64 {
            t.insert(Row::new(vec![Value::Int(i), Value::Float(i as f64 * 1.5)]))
                .unwrap();
        }
        c.register(t);
        c
    }

    #[test]
    fn register_and_lookup_case_insensitive() {
        let c = catalog();
        assert!(c.contains("orders"));
        assert!(c.contains("ORDERS"));
        assert_eq!(c.entry("orders").unwrap().stats.row_count, 50);
        assert!(matches!(c.entry("nope"), Err(QccError::UnknownTable(_))));
    }

    #[test]
    fn duplicate_index_replaced() {
        let mut c = catalog();
        c.create_index("orders", "id").unwrap();
        c.create_index("orders", "id").unwrap();
        assert_eq!(c.entry("orders").unwrap().indexes.len(), 1);
    }

    #[test]
    fn virtual_twin_keeps_stats_drops_rows() {
        let mut c = catalog();
        c.create_index("orders", "id").unwrap();
        let v = c.to_virtual();
        let e = v.entry("orders").unwrap();
        assert_eq!(e.table.row_count(), 0, "no data in the virtual catalog");
        assert_eq!(e.stats.row_count, 50, "statistics preserved");
        assert_eq!(e.indexes.len(), 1, "access paths preserved");
    }
}
