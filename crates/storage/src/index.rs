//! Secondary indexes over in-memory tables.
//!
//! A B-tree keyed on one column, mapping each key to the row positions that
//! carry it. The per-server optimizer offers an index access path when a
//! fragment has an equality or range predicate on an indexed column; this
//! is what lets a highly selective query (the paper's QT3) remain cheap on
//! a server even under heavy load.
//!
//! An index on a column whose every chunk is an `Int` vector is
//! bulk-loaded: its `(key, position)` pairs sorted once, grouped, and the
//! sorted groups collected into the map. Any other column inserts cell by
//! cell. Either way a key's positions ascend, and lookups read the one map.

use crate::table::Table;
use qcc_common::{ColumnVector, QccError, Result, Value};
use std::collections::BTreeMap;
use std::ops::Bound;

/// A single-column secondary index.
#[derive(Debug, Clone)]
pub struct Index {
    column: usize,
    column_name: String,
    map: BTreeMap<Value, Vec<u32>>,
}

impl Index {
    /// Build an index on `column_name` of `table`.
    pub fn build(table: &Table, column_name: &str) -> Result<Index> {
        let column = table.schema().resolve(None, column_name)?;
        if table.row_count() > u32::MAX as usize {
            return Err(QccError::Config("table too large to index".into()));
        }
        // NULLs are not indexed (SQL semantics: = never matches).
        let map = int_map(table, column).unwrap_or_else(|| {
            let mut map: BTreeMap<Value, Vec<u32>> = BTreeMap::new();
            let mut pos = 0u32;
            for chunk in table.chunks() {
                let vector = &chunk.columns()[column];
                for r in 0..chunk.len() {
                    let key = vector.value(r);
                    if !key.is_null() {
                        map.entry(key).or_default().push(pos);
                    }
                    pos += 1;
                }
            }
            map
        });
        Ok(Index {
            column,
            column_name: column_name.to_owned(),
            map,
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

    /// Row positions with `col = key`.
    pub fn lookup_eq(&self, key: &Value) -> &[u32] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Row positions with `lo ≤/< col ≤/< hi` (bounds per [`Bound`]),
    /// in key order.
    pub fn lookup_range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<u32> {
        // BTreeMap::range panics on an inverted range and on `(v, v)` with
        // both ends excluded; both are empty.
        if let (Bound::Included(l) | Bound::Excluded(l), Bound::Included(h) | Bound::Excluded(h)) =
            (&lo, &hi)
        {
            let both_excluded = matches!((&lo, &hi), (Bound::Excluded(_), Bound::Excluded(_)));
            if l > h || (l == h && both_excluded) {
                return vec![];
            }
        }
        let mut out = Vec::new();
        for positions in self.map.range::<Value, _>((lo, hi)).map(|(_, v)| v) {
            out.extend_from_slice(positions);
        }
        out
    }
}

/// The map of `column`'s non-NULL keys, bulk-loaded from its sorted
/// `(key, position)` pairs, when every chunk of it is an `Int` vector;
/// `None` otherwise.
fn int_map(table: &Table, column: usize) -> Option<BTreeMap<Value, Vec<u32>>> {
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
    pairs.sort_unstable();
    Some(
        pairs
            .chunk_by(|a, b| a.0 == b.0)
            .map(|group| {
                let positions = group.iter().map(|&(_, p)| p).collect();
                (Value::Int(group[0].0), positions)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::{Column, DataType, Row, Schema};

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

    /// A bulk-loaded index answers every lookup as one built by inserting
    /// cell by cell does: each key's positions ascending across chunks,
    /// NULLs unindexed, ranges bounded, unbounded and inverted alike.
    #[test]
    fn bulk_loaded_index_equals_entry_built() {
        let mut t = Table::new("t", Schema::new(vec![Column::new("k", DataType::Int)]));
        let keys = [5i64, -3, 5, i64::MAX, 0, i64::MIN, 17, 5, -3];
        for r in 0..2 * qcc_common::BATCH_ROWS + 77 {
            let key = match r % 11 {
                10 => Value::Null,
                i => Value::Int(keys[i % keys.len()].wrapping_add((r % 4) as i64)),
            };
            t.insert(Row::new(vec![key])).unwrap();
        }
        let bulk = Index::build(&t, "k").unwrap();
        let mut map: BTreeMap<Value, Vec<u32>> = BTreeMap::new();
        for (pos, row) in t.rows().iter().enumerate() {
            if !row.get(0).is_null() {
                map.entry(row.get(0).clone()).or_default().push(pos as u32);
            }
        }
        let entry_built = Index {
            column: 0,
            column_name: "k".into(),
            map,
        };
        assert!(bulk.lookup_eq(&Value::Null).is_empty());
        let probes: Vec<Value> = entry_built
            .map
            .keys()
            .cloned()
            .chain([
                Value::Int(4),
                Value::Int(1_000),
                Value::Float(5.0),
                Value::Null,
            ])
            .collect();
        for key in &probes {
            assert_eq!(bulk.lookup_eq(key), entry_built.lookup_eq(key), "{key:?}");
            assert!(bulk.lookup_eq(key).windows(2).all(|w| w[0] < w[1]));
        }
        let bounds = |v: &Value| [Bound::Included(v.clone()), Bound::Excluded(v.clone())];
        let mut ends: Vec<Bound<Value>> = probes.iter().flat_map(bounds).collect();
        ends.push(Bound::Unbounded);
        for lo in &ends {
            for hi in &ends {
                if let (Bound::Excluded(l), Bound::Excluded(h)) = (lo, hi) {
                    if l == h {
                        assert!(bulk.lookup_range(lo.as_ref(), hi.as_ref()).is_empty());
                    }
                }
                assert_eq!(
                    bulk.lookup_range(lo.as_ref(), hi.as_ref()),
                    entry_built.lookup_range(lo.as_ref(), hi.as_ref()),
                    "{lo:?}..{hi:?}"
                );
            }
        }
    }
}
