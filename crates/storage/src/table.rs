//! Columnar in-memory tables.
//!
//! A table stores its rows as a sequence of column chunks ([`BATCH_ROWS`]
//! rows each on the insert path; adopted batches keep their own size).
//! Each chunk carries per-column [`ColumnSummary`] zone maps (min / max /
//! null count) that the vectorized scan uses to skip or bulk-accept whole
//! chunks. A string column's chunk is one dictionary of its distinct
//! strings, interned as rows are inserted, plus a code per cell. `rows()`
//! materializes the legacy `Row` view for row-oriented boundaries (the
//! naive reference evaluator, tests, result display).

use qcc_common::{
    ColumnBatch, ColumnSummary, ColumnVector, DataType, QccError, Result, Row, Schema, Value,
    BATCH_ROWS,
};
use std::collections::HashMap;
use std::sync::Arc;

/// One chunk of a table: `Arc`-shared column vectors plus zone maps.
#[derive(Debug, Clone)]
pub struct TableChunk {
    columns: Vec<Arc<ColumnVector>>,
    summaries: Vec<ColumnSummary>,
    len: usize,
}

impl TableChunk {
    fn empty(schema: &Schema) -> TableChunk {
        TableChunk {
            columns: schema
                .columns()
                .iter()
                .map(|c| Arc::new(ColumnVector::new_for(Some(c.ty))))
                .collect(),
            summaries: vec![ColumnSummary::default(); schema.len()],
            len: 0,
        }
    }

    /// The shared column vectors.
    pub fn columns(&self) -> &[Arc<ColumnVector>] {
        &self.columns
    }

    /// Per-column zone maps, in schema order.
    pub fn summaries(&self) -> &[ColumnSummary] {
        &self.summaries
    }

    /// Number of rows in the chunk.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Zero-copy view of the chunk as a batch.
    pub fn to_batch(&self) -> ColumnBatch {
        ColumnBatch::new(self.columns.clone(), self.len)
    }
}

/// An in-memory base table: a schema plus columnar chunks.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    /// Shared: adopting batches under a schema somebody already holds (the
    /// integrator planning a merge) copies a pointer, not the names.
    schema: Arc<Schema>,
    chunks: Vec<TableChunk>,
    /// Starting global row position of each chunk (parallel to `chunks`).
    starts: Vec<usize>,
    row_count: usize,
    /// Per column of the last chunk, each string `insert` put there and its
    /// code, so a chunk's dictionary holds each of its distinct strings
    /// once. Cleared whenever another chunk becomes the last.
    interned: Vec<HashMap<Arc<str>, u32>>,
}

impl Table {
    /// An empty table.
    pub fn new(name: impl Into<String>, schema: impl Into<Arc<Schema>>) -> Self {
        Table {
            name: name.into(),
            schema: schema.into(),
            chunks: Vec::new(),
            starts: Vec::new(),
            row_count: 0,
            interned: Vec::new(),
        }
    }

    /// Build a table by adopting pre-built column batches without copying
    /// cell data: each batch's `Arc`-shared columns become one chunk. The
    /// batches must pass [`check_batches`].
    pub fn from_batches(
        name: impl Into<String>,
        schema: impl Into<Arc<Schema>>,
        batches: Vec<ColumnBatch>,
    ) -> Result<Table> {
        let mut table = Table::new(name, schema);
        check_batches(&table.name, &table.schema, &batches)?;
        for batch in batches {
            if batch.n_rows() > 0 {
                table.adopt_batch(batch);
            }
        }
        Ok(table)
    }

    fn adopt_batch(&mut self, batch: ColumnBatch) {
        let len = batch.n_rows();
        self.starts.push(self.row_count);
        self.chunks.push(TableChunk {
            summaries: batch.columns().iter().map(|c| c.summarize()).collect(),
            columns: batch.columns().to_vec(),
            len,
        });
        self.row_count += len;
        // The maps index the dictionaries of the chunk before.
        self.interned.clear();
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema (columns are unqualified at the base-table level).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The columnar chunks, in row order.
    pub fn chunks(&self) -> &[TableChunk] {
        &self.chunks
    }

    /// Materialized `Row` compatibility view of the whole table.
    pub fn rows(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.row_count);
        for chunk in &self.chunks {
            for r in 0..chunk.len {
                out.push(Row::new(chunk.columns.iter().map(|c| c.value(r)).collect()));
            }
        }
        out
    }

    /// Map a global row position to `(chunk index, offset within chunk)`.
    pub fn locate(&self, pos: usize) -> Option<(usize, usize)> {
        if pos >= self.row_count {
            return None;
        }
        let chunk = self.starts.partition_point(|&s| s <= pos) - 1;
        Some((chunk, pos - self.starts[chunk]))
    }

    /// Number of stored rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Append a row after validating its arity and types. NULL is accepted
    /// in any column.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.validate(&row)?;
        if self.chunks.last().is_none_or(|c| c.len >= BATCH_ROWS) {
            self.starts.push(self.row_count);
            self.chunks.push(TableChunk::empty(&self.schema));
            self.interned.clear();
        }
        self.interned.resize_with(self.schema.len(), HashMap::new);
        if let Some(chunk) = self.chunks.last_mut() {
            for (i, v) in row.into_values().into_iter().enumerate() {
                chunk.summaries[i].observe(&v);
                let column = Arc::make_mut(&mut chunk.columns[i]);
                match v {
                    Value::Str(s) => column.push_interned(s, &mut self.interned[i]),
                    v => column.push(v),
                }
            }
            chunk.len += 1;
        }
        self.row_count += 1;
        Ok(())
    }

    /// Append many rows, validating each.
    pub fn insert_all(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<()> {
        for row in rows {
            self.insert(row)?;
        }
        Ok(())
    }

    /// Total byte width of all rows (approximation used for transfer-cost
    /// accounting and stats).
    pub fn byte_size(&self) -> usize {
        self.chunks
            .iter()
            .flat_map(|c| c.columns.iter())
            .map(|c| c.byte_size() as usize)
            .sum()
    }

    /// Average row width in bytes (the schema-width default when empty).
    pub fn avg_row_width(&self) -> f64 {
        if self.row_count == 0 {
            // Assume 8 bytes per column when there is no data to measure.
            return (self.schema.len() * 8) as f64;
        }
        self.byte_size() as f64 / self.row_count as f64
    }

    fn validate(&self, row: &Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(QccError::TypeMismatch(format!(
                "table {} expects {} columns, row has {}",
                self.name,
                self.schema.len(),
                row.len()
            )));
        }
        for (i, v) in row.values().iter().enumerate() {
            let expected = self.schema.column(i).ty;
            match v.data_type() {
                Some(t) if !accepts(expected, t) => {
                    return Err(QccError::TypeMismatch(format!(
                        "table {} column {} expects {expected}, got {t} ({v})",
                        self.name,
                        self.schema.column(i).name,
                    )));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Check column batches against the schema of `table`, as
/// [`Table::from_batches`] adopts them and the integrator's merge reads
/// them: every batch with rows must match the schema's arity and column
/// types (NULL anywhere; exact `Int` values are acceptable in FLOAT
/// columns, mirroring the row-level insert rules). Batches without rows
/// are skipped.
pub fn check_batches(table: &str, schema: &Schema, batches: &[ColumnBatch]) -> Result<()> {
    for batch in batches.iter().filter(|b| b.n_rows() > 0) {
        if batch.n_cols() != schema.len() {
            return Err(QccError::TypeMismatch(format!(
                "table {table} expects {} columns, batch has {}",
                schema.len(),
                batch.n_cols()
            )));
        }
        for (column, col) in schema.columns().iter().zip(batch.columns()) {
            let expected = column.ty;
            let got = match &**col {
                ColumnVector::Int { .. } => DataType::Int,
                ColumnVector::Float { .. } => DataType::Float,
                ColumnVector::Str { .. } => DataType::Str,
                // Cell by cell: the first cell of a type not accepted.
                ColumnVector::Mixed(vals) => match vals
                    .iter()
                    .filter_map(Value::data_type)
                    .find(|&t| !accepts(expected, t))
                {
                    None => continue,
                    Some(t) => t,
                },
            };
            if !accepts(expected, got) {
                return Err(QccError::TypeMismatch(format!(
                    "table {table} column {} expects {expected}, got {got}",
                    column.name,
                )));
            }
        }
    }
    Ok(())
}

/// Whether a column declared `expected` holds a `got` value.
fn accepts(expected: DataType, got: DataType) -> bool {
    got == expected || (got, expected) == (DataType::Int, DataType::Float)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::Column;

    fn table() -> Table {
        Table::new(
            "t",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Str),
                Column::new("score", DataType::Float),
            ]),
        )
    }

    #[test]
    fn insert_and_scan() {
        let mut t = table();
        t.insert(Row::new(vec![
            Value::Int(1),
            Value::from("a"),
            Value::Float(0.5),
        ]))
        .unwrap();
        t.insert(Row::new(vec![Value::Int(2), Value::Null, Value::Null]))
            .unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.rows()[1].get(1), &Value::Null);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = table();
        let err = t.insert(Row::new(vec![Value::Int(1)])).unwrap_err();
        assert!(matches!(err, QccError::TypeMismatch(_)));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = table();
        let err = t
            .insert(Row::new(vec![
                Value::from("oops"),
                Value::from("a"),
                Value::Float(0.5),
            ]))
            .unwrap_err();
        assert!(matches!(err, QccError::TypeMismatch(_)));
    }

    #[test]
    fn int_widens_to_float_column() {
        let mut t = table();
        t.insert(Row::new(vec![
            Value::Int(1),
            Value::from("a"),
            Value::Int(3),
        ]))
        .unwrap();
        // The exact Int value must survive the columnar round trip.
        assert_eq!(t.rows()[0].get(2), &Value::Int(3));
    }

    #[test]
    fn avg_row_width_empty_fallback() {
        let t = table();
        assert_eq!(t.avg_row_width(), 24.0);
    }

    #[test]
    fn chunking_splits_at_batch_rows() {
        let mut t = Table::new("t", Schema::new(vec![Column::new("v", DataType::Int)]));
        for i in 0..(BATCH_ROWS as i64 + 5) {
            t.insert(Row::new(vec![Value::Int(i)])).unwrap();
        }
        assert_eq!(t.chunks().len(), 2);
        assert_eq!(t.chunks()[0].len(), BATCH_ROWS);
        assert_eq!(t.chunks()[1].len(), 5);
        assert_eq!(t.locate(BATCH_ROWS + 2), Some((1, 2)));
        assert_eq!(
            t.rows()[BATCH_ROWS + 2].get(0).as_i64(),
            Some(BATCH_ROWS as i64 + 2)
        );
        assert_eq!(
            t.chunks()[0].summaries()[0].max,
            Some(Value::Int(BATCH_ROWS as i64 - 1))
        );
    }

    /// Each chunk's dictionary holds its distinct strings once; a chunk
    /// adopted from a batch takes inserts after its own entries, and the
    /// batch it came from keeps its cells.
    #[test]
    fn inserted_strings_are_interned_per_chunk() {
        let schema = Schema::new(vec![Column::new("s", DataType::Str)]);
        let mut t = Table::new("t", schema.clone());
        let cell = |i: usize| match i % 7 {
            0 => Value::Null,
            _ => Value::Str(format!("tag_{}", i % 10)),
        };
        let rows: Vec<Row> = (0..BATCH_ROWS + 5)
            .map(|i| Row::new(vec![cell(i)]))
            .collect();
        t.insert_all(rows.clone()).unwrap();
        assert_eq!(t.rows(), rows);
        let entries = |t: &Table, c: usize| {
            let (_, _, dict) = t.chunks()[c].columns()[0].str_codes().unwrap();
            dict.len()
        };
        assert_eq!(entries(&t, 0), 10);
        // Rows 1024..1029 hold tags 4 to 8.
        assert_eq!(entries(&t, 1), 5);

        let mut adopted = Table::from_batches("u", schema, vec![t.chunks()[1].to_batch()]).unwrap();
        let more = [Value::from("tag_4"), Value::from("new"), Value::Null];
        for v in &more {
            adopted.insert(Row::new(vec![v.clone()])).unwrap();
        }
        let want: Vec<Row> = rows[BATCH_ROWS..]
            .iter()
            .cloned()
            .chain(more.iter().map(|v| Row::new(vec![v.clone()])))
            .collect();
        assert_eq!(adopted.rows(), want);
        assert_eq!(t.rows(), rows);
    }

    #[test]
    fn from_batches_adopts_columns_without_copy() {
        let mut src = Table::new("src", Schema::new(vec![Column::new("v", DataType::Int)]));
        for i in 0..10 {
            src.insert(Row::new(vec![Value::Int(i)])).unwrap();
        }
        let batch = src.chunks()[0].to_batch();
        let shared = Arc::as_ptr(&batch.columns()[0]);
        let t = Table::from_batches("dst", src.schema().clone(), vec![batch]).unwrap();
        assert_eq!(t.row_count(), 10);
        assert_eq!(
            Arc::as_ptr(&t.chunks()[0].columns()[0]),
            shared,
            "adopted, not copied"
        );
        assert_eq!(t.rows(), src.rows());
    }

    #[test]
    fn from_batches_rejects_wrong_types() {
        let mut v = ColumnVector::new_for(Some(DataType::Str));
        v.push(Value::from("a"));
        let batch = ColumnBatch::new(vec![Arc::new(v)], 1);
        let err = Table::from_batches(
            "t",
            Schema::new(vec![Column::new("v", DataType::Int)]),
            vec![batch],
        )
        .unwrap_err();
        assert!(matches!(err, QccError::TypeMismatch(_)));
    }
}
