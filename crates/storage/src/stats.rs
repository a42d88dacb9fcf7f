//! Table statistics for cardinality estimation.
//!
//! The per-server optimizers estimate selectivities from these statistics;
//! because the statistics are summaries (not the data), the estimates carry
//! realistic errors — exactly the situation the paper's calibrator assumes
//! ("assuming that the original cost estimates are valid", §3.1).

use crate::table::Table;
use qcc_common::{ColumnSummary, ColumnVector, Value};
use std::collections::HashSet;

/// Number of buckets in the equi-depth histograms.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// An equi-depth histogram over a numeric column.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bucket upper bounds (inclusive), ascending. The lower bound of the
    /// first bucket is `min`.
    bounds: Vec<f64>,
    /// Rows per bucket.
    depth: f64,
    /// Column minimum.
    min: f64,
    /// Column maximum.
    max: f64,
    /// Total non-null rows the histogram summarizes.
    total: f64,
}

impl Histogram {
    /// Build an equi-depth histogram from (unsorted) numeric samples.
    /// Returns `None` when there are no non-null numeric values.
    pub fn build(mut values: Vec<f64>) -> Option<Histogram> {
        values.sort_by(f64::total_cmp);
        Histogram::from_sorted(values.len(), |i| values[i])
    }

    /// The histogram of `n` values whose `i`-th smallest (by
    /// `f64::total_cmp`) is `at(i)`; `None` when `n` is 0.
    fn from_sorted(n: usize, at: impl Fn(usize) -> f64) -> Option<Histogram> {
        if n == 0 {
            return None;
        }
        let total = n as f64;
        let buckets = HISTOGRAM_BUCKETS.min(n);
        let depth = total / buckets as f64;
        let bounds = (1..=buckets)
            .map(|b| at(((b as f64 * depth).ceil() as usize - 1).min(n - 1)))
            .collect();
        Some(Histogram {
            bounds,
            depth,
            min: at(0),
            max: at(n - 1),
            total,
        })
    }

    /// Estimated fraction of rows with value ≤ `x`.
    pub fn selectivity_le(&self, x: f64) -> f64 {
        if x < self.min {
            return 0.0;
        }
        if x >= self.max {
            return 1.0;
        }
        let mut rows = 0.0;
        let mut lower = self.min;
        for &upper in &self.bounds {
            if x >= upper {
                rows += self.depth;
                lower = upper;
            } else {
                // Linear interpolation inside the bucket.
                let span = upper - lower;
                let frac = if span <= 0.0 { 1.0 } else { (x - lower) / span };
                rows += self.depth * frac.clamp(0.0, 1.0);
                break;
            }
        }
        (rows / self.total).clamp(0.0, 1.0)
    }

    /// Estimated fraction of rows in `[lo, hi]`.
    pub fn selectivity_range(&self, lo: Option<f64>, hi: Option<f64>) -> f64 {
        let hi_sel = hi.map_or(1.0, |h| self.selectivity_le(h));
        let lo_sel = lo.map_or(0.0, |l| self.selectivity_le(l));
        (hi_sel - lo_sel).clamp(0.0, 1.0)
    }

    /// Column minimum.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Column maximum.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Statistics for a single column.
#[derive(Debug, Clone, Default)]
pub struct ColumnStats {
    /// Number of distinct non-null values.
    pub distinct: u64,
    /// Number of NULLs.
    pub null_count: u64,
    /// Histogram over numeric values (absent for string columns).
    pub histogram: Option<Histogram>,
    /// Smallest non-null value (from the columnar zone maps).
    pub min: Option<Value>,
    /// Largest non-null value (from the columnar zone maps).
    pub max: Option<Value>,
}

impl ColumnStats {
    /// Selectivity of `col = literal`.
    pub fn selectivity_eq(&self, total_rows: u64) -> f64 {
        if total_rows == 0 {
            return 0.0;
        }
        if self.distinct == 0 {
            return 0.0;
        }
        // Uniformity assumption over distinct values.
        let non_null = (total_rows - self.null_count) as f64;
        (non_null / self.distinct as f64) / total_rows as f64
    }
}

/// Statistics for a whole table, as collected by `ANALYZE`.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Row count at analyze time.
    pub row_count: u64,
    /// Average row width in bytes.
    pub avg_row_width: f64,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Collect statistics from a table (a full scan; fine for a simulator).
    ///
    /// Min, max and the NULL count merge the chunks' zone maps. A column
    /// whose every chunk is an `Int` vector (or every chunk a `Float`
    /// vector) is counted by one sort of its non-null payloads: distinct
    /// values are runs of equal ones (`f64::total_cmp` equality for
    /// floats, which is `Value`'s), and the histogram reads the sorted run
    /// — an `Int` converted to `f64` after sorting, which keeps the order.
    /// Any other column (strings, a mix of representations) hashes each
    /// non-null cell as a `Value`. Both give what a `HashSet<Value>` of the
    /// cells and a histogram of their `f64` views give.
    pub fn analyze(table: &Table) -> TableStats {
        let columns = (0..table.schema().len())
            .map(|i| {
                let mut summary = ColumnSummary::default();
                for chunk in table.chunks() {
                    summary.merge(&chunk.summaries()[i]);
                }
                let vectors: Vec<&ColumnVector> =
                    table.chunks().iter().map(|c| &*c.columns()[i]).collect();
                let (distinct, histogram) =
                    typed_counts(&vectors).unwrap_or_else(|| value_counts(&vectors));
                ColumnStats {
                    distinct,
                    null_count: summary.null_count,
                    histogram,
                    min: summary.min,
                    max: summary.max,
                }
            })
            .collect();
        TableStats {
            row_count: table.row_count() as u64,
            avg_row_width: table.avg_row_width(),
            columns,
        }
    }

    /// Stats for an empty table with the given column count (placeholder
    /// used by the simulated federated system's *virtual tables*, which
    /// keep statistics without any data — paper §2).
    pub fn virtual_table(row_count: u64, avg_row_width: f64, columns: Vec<ColumnStats>) -> Self {
        TableStats {
            row_count,
            avg_row_width,
            columns,
        }
    }
}

/// Distinct count and histogram of one column's non-null cells.
type Counts = (u64, Option<Histogram>);

/// [`Counts`] by one sort of the non-null payloads, when every chunk is an
/// `Int` vector or every chunk a `Float` vector; `None` otherwise.
fn typed_counts(vectors: &[&ColumnVector]) -> Option<Counts> {
    match vectors.first()? {
        ColumnVector::Int { .. } => {
            let mut ints = payloads(vectors, |v| match v {
                ColumnVector::Int { data, nulls } => Some((data, nulls)),
                _ => None,
            })?;
            ints.sort_unstable();
            let distinct = runs(&ints, |a, b| a == b);
            Some((
                distinct,
                Histogram::from_sorted(ints.len(), |i| ints[i] as f64),
            ))
        }
        ColumnVector::Float { .. } => {
            let mut floats = payloads(vectors, |v| match v {
                ColumnVector::Float { data, nulls } => Some((data, nulls)),
                _ => None,
            })?;
            floats.sort_unstable_by(f64::total_cmp);
            let distinct = runs(&floats, |a, b| a.total_cmp(b).is_eq());
            Some((
                distinct,
                Histogram::from_sorted(floats.len(), |i| floats[i]),
            ))
        }
        _ => None,
    }
}

/// The non-null payloads of every vector, if `slices` reads each one's
/// payloads and null mask.
fn payloads<'a, T: Copy + 'a>(
    vectors: &[&'a ColumnVector],
    slices: impl Fn(&'a ColumnVector) -> Option<(&'a Vec<T>, &'a Vec<bool>)>,
) -> Option<Vec<T>> {
    let mut out = Vec::new();
    for v in vectors {
        let (data, nulls) = slices(v)?;
        out.extend(
            data.iter()
                .zip(nulls)
                .filter(|(_, &null)| !null)
                .map(|(&x, _)| x),
        );
    }
    Some(out)
}

/// Runs of `eq` values in a sorted slice: its distinct count.
fn runs<T>(sorted: &[T], eq: impl Fn(&T, &T) -> bool) -> u64 {
    let breaks = sorted.windows(2).filter(|w| !eq(&w[0], &w[1])).count();
    (breaks + usize::from(!sorted.is_empty())) as u64
}

/// [`Counts`] cell by cell: a `HashSet<Value>` of the non-null cells and a
/// histogram of their numeric views.
fn value_counts(vectors: &[&ColumnVector]) -> Counts {
    let mut distinct: HashSet<Value> = HashSet::new();
    let mut numerics: Vec<f64> = Vec::new();
    for vector in vectors {
        for r in 0..vector.len() {
            let cell = vector.cell(r);
            if !cell.is_null() {
                distinct.insert(cell.to_value());
                numerics.extend(cell.as_f64());
            }
        }
    }
    (distinct.len() as u64, Histogram::build(numerics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::{Column, DataType, Row, Schema, BATCH_ROWS};

    fn int_table(values: &[i64]) -> Table {
        let mut t = Table::new("t", Schema::new(vec![Column::new("v", DataType::Int)]));
        for &v in values {
            t.insert(Row::new(vec![Value::Int(v)])).unwrap();
        }
        t
    }

    #[test]
    fn histogram_uniform_range_estimates() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = Histogram::build(values).unwrap();
        // P(v <= 499) should be about one half.
        let sel = h.selectivity_le(499.0);
        assert!((sel - 0.5).abs() < 0.05, "sel = {sel}");
        assert_eq!(h.selectivity_le(-1.0), 0.0);
        assert_eq!(h.selectivity_le(2000.0), 1.0);
    }

    #[test]
    fn histogram_skewed_data() {
        // 90% of values are 0, the rest spread over [1, 100].
        let mut values = vec![0.0; 900];
        values.extend((1..=100).map(|i| i as f64));
        let h = Histogram::build(values).unwrap();
        let sel0 = h.selectivity_le(0.0);
        assert!(sel0 > 0.8, "mass at zero should dominate, got {sel0}");
    }

    #[test]
    fn histogram_range_selectivity() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = Histogram::build(values).unwrap();
        let sel = h.selectivity_range(Some(250.0), Some(750.0));
        assert!((sel - 0.5).abs() < 0.06, "sel = {sel}");
        let open = h.selectivity_range(None, Some(100.0));
        assert!((open - 0.1).abs() < 0.05, "sel = {open}");
    }

    #[test]
    fn histogram_empty_is_none() {
        assert!(Histogram::build(vec![]).is_none());
    }

    #[test]
    fn analyze_counts_distinct_and_nulls() {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("s", DataType::Str),
            ]),
        );
        t.insert(Row::new(vec![Value::Int(1), Value::from("x")]))
            .unwrap();
        t.insert(Row::new(vec![Value::Int(1), Value::Null]))
            .unwrap();
        t.insert(Row::new(vec![Value::Int(2), Value::from("y")]))
            .unwrap();
        let stats = TableStats::analyze(&t);
        assert_eq!(stats.row_count, 3);
        assert_eq!(stats.columns[0].distinct, 2);
        assert_eq!(stats.columns[0].null_count, 0);
        assert_eq!(stats.columns[1].distinct, 2);
        assert_eq!(stats.columns[1].null_count, 1);
        assert!(stats.columns[0].histogram.is_some());
        assert!(
            stats.columns[1].histogram.is_none(),
            "strings: no histogram"
        );
    }

    #[test]
    fn eq_selectivity_uniform() {
        let t = int_table(&(0..100).collect::<Vec<_>>());
        let stats = TableStats::analyze(&t);
        let sel = stats.columns[0].selectivity_eq(stats.row_count);
        assert!((sel - 0.01).abs() < 1e-9);
    }

    #[test]
    fn eq_selectivity_empty_table() {
        let t = int_table(&[]);
        let stats = TableStats::analyze(&t);
        assert_eq!(stats.columns[0].selectivity_eq(0), 0.0);
    }

    #[test]
    fn analyze_exposes_min_max_from_zone_maps() {
        let t = int_table(&[7, -3, 12, 12]);
        let stats = TableStats::analyze(&t);
        assert_eq!(stats.columns[0].min, Some(Value::Int(-3)));
        assert_eq!(stats.columns[0].max, Some(Value::Int(12)));
        let empty = TableStats::analyze(&int_table(&[]));
        assert_eq!(empty.columns[0].min, None);
        assert_eq!(empty.columns[0].max, None);
    }

    /// The statistics of column `i` cell by cell, as `analyze` once took
    /// them for every column: a `HashSet<Value>` of the non-null cells, a
    /// histogram of their numeric views, zone maps folded in row order.
    fn value_reference(table: &Table, i: usize) -> ColumnStats {
        let mut distinct = HashSet::new();
        let mut numerics = Vec::new();
        let mut summary = ColumnSummary::default();
        let mut nulls = 0;
        for row in table.rows() {
            let v = row.get(i);
            summary.observe(v);
            if v.is_null() {
                nulls += 1;
            } else {
                distinct.insert(v.clone());
                numerics.extend(v.as_f64());
            }
        }
        ColumnStats {
            distinct: distinct.len() as u64,
            null_count: nulls,
            histogram: Histogram::build(numerics),
            min: summary.min,
            max: summary.max,
        }
    }

    /// Every field equal, floats bit for bit.
    fn assert_same(got: &ColumnStats, want: &ColumnStats, what: &str) {
        assert_eq!(got.distinct, want.distinct, "{what}: distinct");
        assert_eq!(got.null_count, want.null_count, "{what}: nulls");
        assert_eq!(
            format!("{:?}", got.min),
            format!("{:?}", want.min),
            "{what}: min"
        );
        assert_eq!(
            format!("{:?}", got.max),
            format!("{:?}", want.max),
            "{what}: max"
        );
        let bits = |h: &Option<Histogram>| {
            h.as_ref().map(|h| {
                let mut b: Vec<u64> = h.bounds.iter().map(|x| x.to_bits()).collect();
                b.extend([h.depth, h.min, h.max, h.total].map(f64::to_bits));
                b
            })
        };
        assert_eq!(
            bits(&got.histogram),
            bits(&want.histogram),
            "{what}: histogram"
        );
    }

    /// The one-sort path over `Int` and `Float` columns counts what the
    /// `Value` path counts: NULLs, `-0.0` beside `0.0` (distinct under the
    /// total order), NaNs of several payloads, and integers above 2^53
    /// whose `f64` views collide; a FLOAT column an `Int` insert demoted
    /// to `Mixed`, and one adopted as a `Float` chunk beside an `Int`
    /// chunk (where `Int(3)` equals `Float(3.0)`), take the `Value` path.
    #[test]
    fn typed_analyze_equals_value_analyze() {
        let big = 1i64 << 53;
        let ints = [
            Some(big),
            Some(big + 1),
            Some(big + 2),
            None,
            Some(-big - 1),
            Some(-big),
        ]
        .into_iter()
        .chain([Some(i64::MAX), Some(i64::MIN), Some(0), Some(-7), Some(-7)]);
        let floats = [Some(0.0), Some(-0.0), Some(f64::NAN), None, Some(-f64::NAN)]
            .into_iter()
            .chain([
                Some(f64::from_bits(0x7ff8_0000_0000_0001)),
                Some(f64::INFINITY),
            ])
            .chain([Some(f64::NEG_INFINITY), Some(-0.0), Some(2.5), Some(2.5)]);
        let schema = Schema::new(vec![
            Column::new("i", DataType::Int),
            Column::new("f", DataType::Float),
            Column::new("demoted", DataType::Float),
            Column::new("s", DataType::Str),
        ]);
        let mut t = Table::new("t", schema.clone());
        let (ints, floats): (Vec<_>, Vec<_>) = (ints.collect(), floats.collect());
        // Three chunks, the last partial; the demoting `Int` in the second.
        for r in 0..2 * BATCH_ROWS + 100 {
            let i = ints[r % ints.len()]
                .map_or(Value::Null, |x| Value::Int(x.wrapping_add((r % 3) as i64)));
            let f = floats[r % floats.len()].map_or(Value::Null, Value::Float);
            let demoted = match r {
                r if r == BATCH_ROWS + 5 => Value::Int(3),
                r if r % 9 == 0 => Value::Null,
                r => Value::Float((r % 50) as f64 / 2.0),
            };
            let s = if r % 4 == 0 {
                Value::Null
            } else {
                Value::Str(format!("s{}", r % 30))
            };
            t.insert(Row::new(vec![i, f, demoted, s])).unwrap();
        }
        assert!(matches!(
            &*t.chunks()[0].columns()[2],
            ColumnVector::Float { .. }
        ));
        assert!(matches!(
            &*t.chunks()[1].columns()[2],
            ColumnVector::Mixed(_)
        ));
        let stats = TableStats::analyze(&t);
        for (i, name) in ["int", "float", "demoted", "str"].iter().enumerate() {
            assert_same(&stats.columns[i], &value_reference(&t, i), name);
        }

        // A FLOAT column adopted as a Float chunk and an Int chunk.
        let float_schema = Schema::new(vec![Column::new("f", DataType::Float)]);
        let chunk = |ty: DataType, vals: &[Value]| {
            let mut t = Table::new("c", Schema::new(vec![Column::new("f", ty)]));
            for v in vals {
                t.insert(Row::new(vec![v.clone()])).unwrap();
            }
            t.chunks()[0].to_batch()
        };
        let batches = vec![
            chunk(
                DataType::Float,
                &[Value::Float(3.0), Value::Float(-0.0), Value::Null],
            ),
            chunk(
                DataType::Int,
                &[Value::Int(3), Value::Int(0), Value::Int(4)],
            ),
        ];
        let adopted = Table::from_batches("a", float_schema, batches).unwrap();
        assert!(matches!(
            &*adopted.chunks()[1].columns()[0],
            ColumnVector::Int { .. }
        ));
        let stats = TableStats::analyze(&adopted);
        assert_same(
            &stats.columns[0],
            &value_reference(&adopted, 0),
            "float + int chunks",
        );
        assert_eq!(
            stats.columns[0].distinct, 4,
            "Int(3) is Float(3.0); Int(0) is not -0.0"
        );
    }
}
