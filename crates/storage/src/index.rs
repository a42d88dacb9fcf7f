//! Secondary indexes over in-memory tables.
//!
//! An index on one column holds its distinct non-NULL keys in one sorted
//! array and the row positions that carry them in another, grouped by key,
//! each group's start in an offset array. The per-server optimizer offers
//! an index access path when a fragment has an equality or range predicate
//! on an indexed column; this is what lets a highly selective query (the
//! paper's QT3) remain cheap on a server even under heavy load.
//!
//! The build sorts the column's `(key, position)` pairs once and lays the
//! runs of equal keys out in order: typed `(i64, u32)` pairs when every
//! chunk of the column is an `Int` vector, `(Value, u32)` pairs under a
//! stable sort otherwise. Either way a key's positions ascend, and since
//! the keys are sorted, a key range is one contiguous run of positions.

use crate::table::Table;
use qcc_common::{ColumnVector, QccError, Result, Value};
use std::ops::{Bound, Range};

/// A single-column secondary index.
#[derive(Debug, Clone)]
pub struct Index {
    column: usize,
    column_name: String,
    /// The distinct non-NULL keys, ascending under [`Value::total_cmp`].
    keys: Vec<Value>,
    /// `keys.len() + 1` entries: key `i`'s positions are
    /// `positions[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Row positions grouped by key, ascending within a key.
    positions: Vec<u32>,
}

impl Index {
    /// Build an index on `column_name` of `table`.
    pub fn build(table: &Table, column_name: &str) -> Result<Index> {
        let column = table.schema().resolve(None, column_name)?;
        if table.row_count() > u32::MAX as usize {
            return Err(QccError::Config("table too large to index".into()));
        }
        // NULLs are not indexed (SQL semantics: = never matches).
        let (keys, offsets, positions) = match int_pairs(table, column) {
            Some(mut pairs) => {
                pairs.sort_unstable();
                lay_out(pairs)
            }
            None => {
                let mut pairs: Vec<(Value, u32)> = Vec::with_capacity(table.row_count());
                let mut pos = 0u32;
                for chunk in table.chunks() {
                    let vector = &chunk.columns()[column];
                    for r in 0..chunk.len() {
                        let key = vector.value(r);
                        if !key.is_null() {
                            pairs.push((key, pos));
                        }
                        pos += 1;
                    }
                }
                // Stable: equal keys keep ascending positions, and each
                // run's first key is the one stored.
                pairs.sort_by(|a, b| a.0.cmp(&b.0));
                lay_out(pairs)
            }
        };
        Ok(Index {
            column,
            column_name: column_name.to_owned(),
            keys,
            offsets,
            positions,
        })
    }

    /// The indexed column's position in the table schema.
    pub fn column(&self) -> usize {
        self.column
    }

    /// The indexed column's name.
    pub fn column_name(&self) -> &str {
        &self.column_name
    }

    /// Row positions with `col = key`, ascending.
    pub fn lookup_eq(&self, key: &Value) -> &[u32] {
        match self.keys.binary_search(key) {
            Ok(i) => self.run(i..i + 1),
            Err(_) => &[],
        }
    }

    /// Row positions with `lo ≤/< col ≤/< hi` (bounds per [`Bound`]),
    /// in key order; empty when the bounds admit no key.
    pub fn lookup_range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> &[u32] {
        let start = match lo {
            Bound::Included(l) => self.keys.partition_point(|k| k < l),
            Bound::Excluded(l) => self.keys.partition_point(|k| k <= l),
            Bound::Unbounded => 0,
        };
        let end = match hi {
            Bound::Included(h) => self.keys.partition_point(|k| k <= h),
            Bound::Excluded(h) => self.keys.partition_point(|k| k < h),
            Bound::Unbounded => self.keys.len(),
        };
        if start >= end {
            return &[];
        }
        self.run(start..end)
    }

    /// The positions of keys `keys.start..keys.end`.
    fn run(&self, keys: Range<usize>) -> &[u32] {
        &self.positions[self.offsets[keys.start] as usize..self.offsets[keys.end] as usize]
    }
}

/// `column`'s non-NULL `(key, position)` pairs in position order, when
/// every chunk of it is an `Int` vector; `None` otherwise.
fn int_pairs(table: &Table, column: usize) -> Option<Vec<(i64, u32)>> {
    let mut pairs: Vec<(i64, u32)> = Vec::with_capacity(table.row_count());
    let mut pos = 0u32;
    for chunk in table.chunks() {
        let ColumnVector::Int { data, nulls } = &*chunk.columns()[column] else {
            return None;
        };
        for (&key, &null) in data.iter().zip(nulls) {
            if !null {
                pairs.push((key, pos));
            }
            pos += 1;
        }
    }
    Some(pairs)
}

/// The keys, offsets and positions of `pairs`, sorted by key: one key per
/// run of equal keys (the run's first), the run's positions in order.
/// Each array is allocated at its final length, since the index lives as
/// long as the table image.
fn lay_out<K: PartialEq>(pairs: Vec<(K, u32)>) -> (Vec<Value>, Vec<u32>, Vec<u32>)
where
    Value: From<K>,
{
    let runs = pairs.chunk_by(|a, b| a.0 == b.0).count();
    let mut keys = Vec::with_capacity(runs);
    let mut offsets = Vec::with_capacity(runs + 1);
    let mut positions = Vec::with_capacity(pairs.len());
    let mut pairs = pairs.into_iter().peekable();
    while let Some((key, pos)) = pairs.next() {
        offsets.push(positions.len() as u32);
        positions.push(pos);
        while let Some((_, pos)) = pairs.next_if(|(k, _)| *k == key) {
            positions.push(pos);
        }
        keys.push(Value::from(key));
    }
    offsets.push(positions.len() as u32);
    (keys, offsets, positions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::{Column, DataType, Row, Schema, BATCH_ROWS};
    use std::collections::BTreeMap;
    use std::ops::RangeBounds;

    fn table() -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("grp", DataType::Int),
            ]),
        );
        for i in 0..100i64 {
            t.insert(Row::new(vec![Value::Int(i), Value::Int(i % 10)]))
                .unwrap();
        }
        t.insert(Row::new(vec![Value::Int(1000), Value::Null]))
            .unwrap();
        t
    }

    #[test]
    fn eq_lookup() {
        let t = table();
        let idx = Index::build(&t, "grp").unwrap();
        let hits = idx.lookup_eq(&Value::Int(3));
        assert_eq!(hits.len(), 10);
        for &pos in hits {
            assert_eq!(t.rows()[pos as usize].get(1), &Value::Int(3));
        }
    }

    #[test]
    fn eq_lookup_missing_key() {
        let t = table();
        let idx = Index::build(&t, "grp").unwrap();
        assert!(idx.lookup_eq(&Value::Int(999)).is_empty());
    }

    #[test]
    fn nulls_not_indexed() {
        let t = table();
        let idx = Index::build(&t, "grp").unwrap();
        assert!(idx.lookup_eq(&Value::Null).is_empty());
    }

    #[test]
    fn range_lookup() {
        let t = table();
        let idx = Index::build(&t, "id").unwrap();
        let hits = idx.lookup_range(
            Bound::Included(&Value::Int(10)),
            Bound::Excluded(&Value::Int(20)),
        );
        assert_eq!(hits.len(), 10);
        let unbounded = idx.lookup_range(Bound::Unbounded, Bound::Included(&Value::Int(4)));
        assert_eq!(unbounded.len(), 5);
    }

    #[test]
    fn inverted_range_is_empty() {
        let t = table();
        let idx = Index::build(&t, "id").unwrap();
        let hits = idx.lookup_range(
            Bound::Included(&Value::Int(20)),
            Bound::Included(&Value::Int(10)),
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn unknown_column_errors() {
        let t = table();
        assert!(Index::build(&t, "nope").is_err());
    }

    /// A one-column table of `cells`, inserted row by row.
    fn column_table(ty: DataType, cells: impl IntoIterator<Item = Value>) -> Table {
        let mut t = Table::new("t", Schema::new(vec![Column::new("k", ty)]));
        for cell in cells {
            t.insert(Row::new(vec![cell])).unwrap();
        }
        t
    }

    /// Checks the index on `t.k` against a `BTreeMap<Value, Vec<u32>>`
    /// filled cell by cell (each key kept as first inserted): the flat
    /// layout iterates as the map does, key representation included, and
    /// `lookup_eq` / `lookup_range` answer every key, every `extra` probe
    /// and NULL, and every pair of bounds built from them, as the map does.
    fn assert_equals_map_reference(t: &Table, extra: &[Value]) {
        let index = Index::build(t, "k").unwrap();
        let mut map: BTreeMap<Value, Vec<u32>> = BTreeMap::new();
        for (pos, row) in t.rows().iter().enumerate() {
            if !row.get(0).is_null() {
                map.entry(row.get(0).clone()).or_default().push(pos as u32);
            }
        }
        let flat: Vec<String> = (0..index.keys.len())
            .map(|i| format!("{:?} {:?}", index.keys[i], index.run(i..i + 1)))
            .collect();
        let reference: Vec<String> = map.iter().map(|(k, v)| format!("{k:?} {v:?}")).collect();
        assert_eq!(flat, reference);
        assert_eq!(index.offsets.len(), index.keys.len() + 1);
        assert_eq!(index.offsets.last(), Some(&(index.positions.len() as u32)));

        let probes: Vec<Value> = map
            .keys()
            .cloned()
            .chain(extra.iter().cloned())
            .chain([Value::Null])
            .collect();
        for key in &probes {
            let expected = map.get(key).map(Vec::as_slice).unwrap_or(&[]);
            assert_eq!(index.lookup_eq(key), expected, "{key:?}");
        }
        let bounds = |v: &Value| [Bound::Included(v.clone()), Bound::Excluded(v.clone())];
        let mut ends: Vec<Bound<Value>> = probes.iter().flat_map(bounds).collect();
        ends.push(Bound::Unbounded);
        for lo in &ends {
            for hi in &ends {
                let range = (lo.as_ref(), hi.as_ref());
                let expected: Vec<u32> = map
                    .iter()
                    .filter(|(k, _)| range.contains(k))
                    .flat_map(|(_, v)| v.iter().copied())
                    .collect();
                let got = index.lookup_range(lo.as_ref(), hi.as_ref());
                assert_eq!(got, expected, "{range:?}");
                if let (Bound::Excluded(l), Bound::Excluded(h)) = range {
                    if l == h {
                        assert!(got.is_empty());
                    }
                }
            }
        }
    }

    /// A bulk-loaded `Int` index answers every lookup as a map filled cell
    /// by cell does: each key's positions ascending across chunks, NULLs
    /// unindexed, ranges bounded, unbounded, inverted and `(v, v)` with
    /// both ends excluded alike, and a `Float` probe equal to an integer
    /// key finds it.
    #[test]
    fn bulk_loaded_index_equals_entry_built() {
        let keys = [5i64, -3, 5, i64::MAX, 0, i64::MIN, 17, 5, -3];
        let cells = (0..2 * BATCH_ROWS + 77).map(|r| match r % 11 {
            10 => Value::Null,
            i => Value::Int(keys[i % keys.len()].wrapping_add((r % 4) as i64)),
        });
        let t = column_table(DataType::Int, cells);
        assert_equals_map_reference(
            &t,
            &[
                Value::Int(4),
                Value::Int(1_000),
                Value::Float(5.0),
                Value::Float(5.5),
            ],
        );
        let index = Index::build(&t, "k").unwrap();
        assert!(!index.lookup_eq(&Value::Float(5.0)).is_empty());
        assert_eq!(
            index.lookup_eq(&Value::Float(5.0)),
            index.lookup_eq(&Value::Int(5))
        );
    }

    /// A `Str` column's index equals the map reference.
    #[test]
    fn str_index_equals_entry_built() {
        let cells = (0..2 * BATCH_ROWS + 40).map(|r| match r % 7 {
            6 => Value::Null,
            _ => Value::Str(format!("s{}", (r * 13) % 37)),
        });
        let t = column_table(DataType::Str, cells);
        assert_equals_map_reference(&t, &[Value::Str("s".into()), Value::Str("t".into())]);
    }

    /// A `Float` column's index keeps `-0.0`, `0.0` and every NaN payload
    /// apart, as `total_cmp` does, and equals the map reference.
    #[test]
    fn float_index_equals_entry_built() {
        let floats = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            2.5,
            -1.0,
        ];
        let cells = (0..BATCH_ROWS + 300).map(|r| match r % 10 {
            9 => Value::Null,
            i => Value::Float(floats[i]),
        });
        let t = column_table(DataType::Float, cells);
        assert!(matches!(
            &*t.chunks()[0].columns()[0],
            ColumnVector::Float { .. }
        ));
        assert_equals_map_reference(&t, &[Value::Int(0), Value::Float(1.0)]);
        let index = Index::build(&t, "k").unwrap();
        assert_eq!(index.keys.len(), floats.len());
    }

    /// A column whose chunks mix `Int` and `Float` cells, `Int(k)` beside
    /// an equal `Float(k)`, takes the stable `Value` sort: each run keeps
    /// its first cell's representation and ascending positions.
    #[test]
    fn mixed_int_float_index_equals_entry_built() {
        let cells = (0..2 * BATCH_ROWS + 60).map(|r| {
            let k = ((r * 7) % 23) as i64;
            match r % 5 {
                0 => Value::Int(k),
                1 => Value::Float(k as f64),
                2 => Value::Float(k as f64 + 0.5),
                3 if r % 2 == 0 => Value::Null,
                _ => Value::Int(-k),
            }
        });
        let t = column_table(DataType::Float, cells);
        assert!(t
            .chunks()
            .iter()
            .all(|c| matches!(&*c.columns()[0], ColumnVector::Mixed(_))));
        assert_equals_map_reference(&t, &[Value::Int(100), Value::Float(-0.5)]);
    }

    /// An index on an empty table (as `Catalog::to_virtual` builds) answers
    /// every lookup with nothing.
    #[test]
    fn empty_table_index_is_empty() {
        let t = column_table(DataType::Int, []);
        let index = Index::build(&t, "k").unwrap();
        assert_eq!(index.offsets, [0]);
        assert!(index.lookup_eq(&Value::Int(0)).is_empty());
        assert!(index
            .lookup_range(Bound::Unbounded, Bound::Unbounded)
            .is_empty());
        assert_equals_map_reference(&t, &[Value::Int(0)]);
    }
}
