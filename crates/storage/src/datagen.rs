//! Seeded synthetic data generation.
//!
//! The paper populated the DB2 sample schema "with randomly generated
//! data", with small tables around 1 000 tuples and large tables around
//! 100 000 (§5). These generators reproduce that setup deterministically.
//!
//! [`TableSpec::generate`] fills column chunks directly: [`BATCH_ROWS`]
//! rows a chunk, each string column interned per chunk, the chunks then
//! adopted whole. The random stream is drawn row-major (every column of
//! row 0, then of row 1, ...), so the table is chunk for chunk the one
//! that [`Table::insert`] of the same rows builds: same cells, dictionaries
//! and zone maps.

use crate::table::Table;
use qcc_common::{Column, ColumnBatch, ColumnVector, DataType, Pcg32, Schema, Value, BATCH_ROWS};
use std::collections::HashMap;
use std::sync::Arc;

/// How to generate values for one column.
#[derive(Debug, Clone)]
pub enum ColumnSpec {
    /// Sequential 0..n primary key.
    Serial {
        /// Column name.
        name: String,
    },
    /// Uniform integer in `[lo, hi)`.
    IntUniform {
        /// Column name.
        name: String,
        /// Inclusive lower bound.
        lo: i64,
        /// Exclusive upper bound.
        hi: i64,
    },
    /// Zipf-ish skewed integer in `[0, n)`: value v has weight 1/(v+1).
    IntSkewed {
        /// Column name.
        name: String,
        /// Number of distinct values.
        n: i64,
    },
    /// Uniform float in `[lo, hi)`.
    FloatUniform {
        /// Column name.
        name: String,
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// String drawn uniformly from a pool of `pool_size` distinct tags.
    StrPool {
        /// Column name.
        name: String,
        /// Number of distinct strings.
        pool_size: u64,
    },
}

impl ColumnSpec {
    /// The generated column's name.
    pub fn name(&self) -> &str {
        match self {
            ColumnSpec::Serial { name }
            | ColumnSpec::IntUniform { name, .. }
            | ColumnSpec::IntSkewed { name, .. }
            | ColumnSpec::FloatUniform { name, .. }
            | ColumnSpec::StrPool { name, .. } => name,
        }
    }

    /// The generated column's type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnSpec::Serial { .. }
            | ColumnSpec::IntUniform { .. }
            | ColumnSpec::IntSkewed { .. } => DataType::Int,
            ColumnSpec::FloatUniform { .. } => DataType::Float,
            ColumnSpec::StrPool { .. } => DataType::Str,
        }
    }

    /// Draw row `row_idx`'s value and append it to `column`; a string goes
    /// through the chunk's `interned` map, as [`Table::insert`] puts it.
    fn push_next(
        &self,
        row_idx: u64,
        rng: &mut Pcg32,
        column: &mut ColumnVector,
        interned: &mut HashMap<Arc<str>, u32>,
    ) {
        let v = match self {
            ColumnSpec::Serial { .. } => Value::Int(row_idx as i64),
            ColumnSpec::IntUniform { lo, hi, .. } => Value::Int(rng.range_i64(*lo, *hi)),
            ColumnSpec::IntSkewed { n, .. } => {
                // Inverse-CDF sampling of weights 1/(v+1): harmonic skew.
                let u = rng.next_f64();
                let hn = (*n as f64).ln() + 0.5772;
                let target = u * hn;
                let v = (target.exp() - 1.0).clamp(0.0, (*n - 1) as f64);
                Value::Int(v as i64)
            }
            ColumnSpec::FloatUniform { lo, hi, .. } => Value::Float(rng.range_f64(*lo, *hi)),
            ColumnSpec::StrPool { pool_size, .. } => {
                let tag = rng.range_u64(0, (*pool_size).max(1));
                return column.push_interned(format!("tag_{tag:06}"), interned);
            }
        };
        column.push(v);
    }
}

/// Specification of a full synthetic table.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table name.
    pub name: String,
    /// Number of rows to generate.
    pub rows: u64,
    /// Column generators.
    pub columns: Vec<ColumnSpec>,
}

impl TableSpec {
    /// Construct a spec.
    pub fn new(name: impl Into<String>, rows: u64, columns: Vec<ColumnSpec>) -> Self {
        TableSpec {
            name: name.into(),
            rows,
            columns,
        }
    }

    /// The schema this spec generates.
    pub fn schema(&self) -> Schema {
        Schema::new(
            self.columns
                .iter()
                .map(|c| Column::new(c.name(), c.data_type()))
                .collect(),
        )
    }

    /// Generate the table. The same `(spec, seed)` always produces the same
    /// data; the table name does not influence the stream, so replicas built
    /// from the same spec and seed hold identical data (as the paper's
    /// replicated tables must).
    pub fn generate(&self, seed: u64) -> Table {
        let mut rng = Pcg32::seed_from(seed);
        let mut chunks = Vec::with_capacity((self.rows as usize).div_ceil(BATCH_ROWS));
        let mut start = 0;
        while start < self.rows {
            let end = self.rows.min(start + BATCH_ROWS as u64);
            let mut columns: Vec<ColumnVector> = self
                .columns
                .iter()
                .map(|c| {
                    let mut v = ColumnVector::new_for(Some(c.data_type()));
                    v.reserve((end - start) as usize);
                    v
                })
                .collect();
            let mut interned = vec![HashMap::new(); columns.len()];
            for r in start..end {
                for ((spec, column), interned) in
                    self.columns.iter().zip(&mut columns).zip(&mut interned)
                {
                    spec.push_next(r, &mut rng, column, interned);
                }
            }
            let columns = columns.into_iter().map(Arc::new).collect();
            chunks.push(ColumnBatch::new(columns, (end - start) as usize));
            start = end;
        }
        Table::from_batches(self.name.clone(), self.schema(), chunks)
            .expect("generated chunks match schema")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TableSpec {
        TableSpec::new(
            "items",
            500,
            vec![
                ColumnSpec::Serial { name: "id".into() },
                ColumnSpec::IntUniform {
                    name: "qty".into(),
                    lo: 0,
                    hi: 100,
                },
                ColumnSpec::FloatUniform {
                    name: "price".into(),
                    lo: 1.0,
                    hi: 50.0,
                },
                ColumnSpec::StrPool {
                    name: "cat".into(),
                    pool_size: 8,
                },
                ColumnSpec::IntSkewed {
                    name: "pop".into(),
                    n: 1000,
                },
            ],
        )
    }

    #[test]
    fn deterministic_for_seed() {
        let a = spec().generate(7);
        let b = spec().generate(7);
        assert_eq!(a.rows(), b.rows());
        let c = spec().generate(8);
        assert_ne!(a.rows(), c.rows(), "different seed differs");
    }

    #[test]
    fn replica_semantics_name_independent() {
        let mut replica_spec = spec();
        replica_spec.name = "items_replica".into();
        let original = spec().generate(42);
        let replica = replica_spec.generate(42);
        assert_eq!(original.rows(), replica.rows());
    }

    #[test]
    fn row_count_and_schema() {
        let t = spec().generate(1);
        assert_eq!(t.row_count(), 500);
        assert_eq!(t.schema().len(), 5);
        assert_eq!(t.schema().column(0).name, "id");
    }

    #[test]
    fn serial_is_sequential() {
        let t = spec().generate(1);
        assert_eq!(t.rows()[0].get(0), &Value::Int(0));
        assert_eq!(t.rows()[499].get(0), &Value::Int(499));
    }

    #[test]
    fn uniform_bounds_respected() {
        let t = spec().generate(3);
        for row in t.rows() {
            let qty = row.get(1).as_i64().unwrap();
            assert!((0..100).contains(&qty));
            let price = row.get(2).as_f64().unwrap();
            assert!((1.0..50.0).contains(&price));
        }
    }

    #[test]
    fn skewed_prefers_small_values() {
        let t = spec().generate(5);
        let below_100 = t
            .rows()
            .iter()
            .filter(|r| r.get(4).as_i64().unwrap() < 100)
            .count();
        // Harmonic skew should put well over half the mass below 100/1000.
        assert!(below_100 > 250, "got {below_100} of 500");
    }

    #[test]
    fn string_pool_size_respected() {
        let t = spec().generate(9);
        let distinct: std::collections::HashSet<_> = t
            .rows()
            .iter()
            .map(|r| r.get(3).as_str().unwrap().to_owned())
            .collect();
        assert!(distinct.len() <= 8);
        assert!(distinct.len() >= 6, "should see most of the pool");
    }

    /// The value the row-by-row path drew for `spec` at row `r`: the
    /// reference [`generated_chunks_equal_row_by_row_inserts`] inserts.
    fn draw(spec: &ColumnSpec, r: u64, rng: &mut Pcg32) -> Value {
        match spec {
            ColumnSpec::Serial { .. } => Value::Int(r as i64),
            ColumnSpec::IntUniform { lo, hi, .. } => Value::Int(rng.range_i64(*lo, *hi)),
            ColumnSpec::IntSkewed { n, .. } => {
                let target = rng.next_f64() * ((*n as f64).ln() + 0.5772);
                Value::Int((target.exp() - 1.0).clamp(0.0, (*n - 1) as f64) as i64)
            }
            ColumnSpec::FloatUniform { lo, hi, .. } => Value::Float(rng.range_f64(*lo, *hi)),
            ColumnSpec::StrPool { pool_size, .. } => {
                let tag = rng.range_u64(0, (*pool_size).max(1));
                Value::Str(format!("tag_{tag:06}"))
            }
        }
    }

    /// `generate` builds, chunk for chunk, the table that `Table::insert`
    /// of the same rows (drawn row-major) builds: the same cells, string
    /// dictionaries (the entries in use and the room after them), zone
    /// maps and row width. Two tables past a chunk boundary, one with a
    /// 10-tag and one with a 5 000-tag string pool.
    #[test]
    fn generated_chunks_equal_row_by_row_inserts() {
        let mut wide = spec();
        wide.rows = 2 * BATCH_ROWS as u64 + 300;
        wide.columns[3] = ColumnSpec::StrPool {
            name: "cat".into(),
            pool_size: 10,
        };
        let mut tags = wide.clone();
        tags.columns[3] = ColumnSpec::StrPool {
            name: "cat".into(),
            pool_size: 5_000,
        };
        for spec in [wide, tags] {
            let generated = spec.generate(11);
            let mut rng = Pcg32::seed_from(11);
            let mut reference = Table::new(spec.name.clone(), spec.schema());
            for r in 0..spec.rows {
                let row = spec.columns.iter().map(|c| draw(c, r, &mut rng)).collect();
                reference.insert(qcc_common::Row::new(row)).unwrap();
            }
            assert_eq!(generated.chunks().len(), reference.chunks().len());
            for (g, want) in generated.chunks().iter().zip(reference.chunks()) {
                assert_eq!(g.len(), want.len());
                for (gc, wc) in g.columns().iter().zip(want.columns()) {
                    assert_eq!(format!("{gc:?}"), format!("{wc:?}"));
                    let used = |c: &ColumnVector| c.str_codes().map(|(_, _, d)| d.to_vec());
                    assert_eq!(used(gc), used(wc), "dictionary entries in use");
                }
                assert_eq!(
                    format!("{:?}", g.summaries()),
                    format!("{:?}", want.summaries())
                );
            }
            assert_eq!(
                generated.avg_row_width().to_bits(),
                reference.avg_row_width().to_bits()
            );
        }
    }
}
