//! The row-id hash table behind hash join, hash aggregate and DISTINCT.
//!
//! Rows are numbered in insertion order. For each row the table keeps its
//! key cells — copied into typed key columns, position = row id — its
//! 64-bit key hash, and a link to the next row of the same hash bucket;
//! `heads` maps a bucket to the first row of its chain. A lookup walks one
//! chain comparing hashes, then key cells (`total_cmp == Equal`, the
//! equality `Value` has). Nothing is allocated per row or per key: the
//! arrays are flat, and `heads` is sized once from the row count the
//! operator already knows.
//!
//! Keys arrive a chunk at a time as key *columns*. They are hashed column
//! by column ([`CellRef::hash64`], the hash `Value` has), and the
//! representation of a single `Int` key is matched once per chunk, so the
//! paper's templates compare keys in loops over `&[i64]` / `&[bool]`; any
//! other shape compares cell by cell.

use qcc_common::{CellRef, ColumnVector};
use std::cmp::Ordering;

const NONE: u32 = u32::MAX;

/// The live rows of a chunk, as physical row indices in order.
#[derive(Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// Every row of a chunk this long.
    All(usize),
    /// The listed rows.
    Ids(&'a [u32]),
}

impl Rows<'_> {
    pub(crate) fn len(self) -> usize {
        match self {
            Rows::All(n) => n,
            Rows::Ids(ids) => ids.len(),
        }
    }

    /// Physical index of the `i`-th live row.
    #[inline]
    pub(crate) fn get(self, i: usize) -> usize {
        match self {
            Rows::All(_) => i,
            Rows::Ids(ids) => ids[i] as usize,
        }
    }

    /// Call `f` on `col`'s cell at each live row, in order.
    #[inline]
    pub(crate) fn cells<'c>(self, col: &'c ColumnVector, f: impl FnMut(CellRef<'c>)) {
        match self {
            Rows::All(n) => col.for_each_cell(0..n, f),
            Rows::Ids(ids) => col.for_each_cell(ids.iter().map(|&i| i as usize), f),
        }
    }
}

/// One inserted row: its key hash and the next row of its bucket. Side by
/// side, so a step along a chain costs one cache line, not two.
struct Link {
    hash: u64,
    next: u32,
}

/// Hashes and chain links of the inserted rows.
struct Chains {
    /// Row id → the row.
    links: Vec<Link>,
    /// Bucket → first row of its chain. A power of two long.
    heads: Vec<u32>,
}

impl Chains {
    #[inline]
    fn bucket(&self, hash: u64) -> usize {
        hash as usize & (self.heads.len() - 1)
    }
}

/// One chunk's key columns against the table's stored ones.
enum Keys<'a> {
    /// A single key, `Int` on both sides.
    Int {
        stored: &'a mut Vec<i64>,
        stored_nulls: &'a mut Vec<bool>,
        data: &'a [i64],
        nulls: &'a [bool],
    },
    /// Any other shape.
    Any {
        stored: &'a mut [ColumnVector],
        cols: &'a [&'a ColumnVector],
    },
}

impl<'a> Keys<'a> {
    fn new(stored: &'a mut Vec<ColumnVector>, cols: &'a [&'a ColumnVector]) -> Keys<'a> {
        if stored.is_empty() {
            stored.extend(cols.iter().map(|c| c.empty_like()));
        }
        match (&mut stored[..], cols) {
            (
                [ColumnVector::Int {
                    data: stored,
                    nulls: stored_nulls,
                }],
                [ColumnVector::Int { data, nulls }],
            ) => Keys::Int {
                stored,
                stored_nulls,
                data,
                nulls,
            },
            (stored, cols) => Keys::Any { stored, cols },
        }
    }

    /// Stored row `id` has the key of chunk row `r`.
    #[inline]
    fn eq(&self, id: usize, r: usize) -> bool {
        match self {
            Keys::Int {
                stored,
                stored_nulls,
                data,
                nulls,
            } => stored_nulls[id] == nulls[r] && (nulls[r] || stored[id] == data[r]),
            Keys::Any { stored, cols } => stored
                .iter()
                .zip(*cols)
                .all(|(s, c)| s.cell(id).total_cmp(c.cell(r)) == Ordering::Equal),
        }
    }

    /// Append chunk row `r`'s key to the stored columns.
    #[inline]
    fn push(&mut self, r: usize) {
        match self {
            Keys::Int {
                stored,
                stored_nulls,
                data,
                nulls,
            } => {
                stored.push(data[r]);
                stored_nulls.push(nulls[r]);
            }
            Keys::Any { stored, cols } => {
                for (s, c) in stored.iter_mut().zip(*cols) {
                    s.push_cell(c.cell(r));
                }
            }
        }
    }
}

/// See the module documentation.
pub(crate) struct RowTable {
    /// Key columns of the inserted rows (empty until the first chunk
    /// shows their representation).
    keys: Vec<ColumnVector>,
    chains: Chains,
    /// Per live row of the chunk in hand: key hash, and whether any key
    /// cell is NULL.
    chunk_hashes: Vec<u64>,
    chunk_nulls: Vec<bool>,
}

impl RowTable {
    /// A table that will hold at most `rows` rows.
    pub(crate) fn for_rows(rows: usize) -> RowTable {
        RowTable {
            keys: Vec::new(),
            chains: Chains {
                links: Vec::new(),
                heads: vec![NONE; (rows.max(1) * 2).next_power_of_two()],
            },
            chunk_hashes: Vec::new(),
            chunk_nulls: Vec::new(),
        }
    }

    /// Number of rows inserted.
    pub(crate) fn len(&self) -> usize {
        self.chains.links.len()
    }

    /// The key columns of the inserted rows, by row id.
    pub(crate) fn into_keys(self) -> Vec<ColumnVector> {
        self.keys
    }

    fn hash_chunk(&mut self, cols: &[&ColumnVector], rows: Rows<'_>) {
        let (hashes, any_null) = (&mut self.chunk_hashes, &mut self.chunk_nulls);
        hashes.clear();
        hashes.resize(rows.len(), 0);
        any_null.clear();
        any_null.resize(rows.len(), false);
        for col in cols {
            let mut i = 0;
            rows.cells(col, |c| {
                let h = hashes[i].rotate_left(5) ^ c.hash64();
                hashes[i] = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                any_null[i] |= c.is_null();
                i += 1;
            });
        }
    }

    /// Join build: append every live row whose keys are all non-NULL
    /// (a NULL key never joins), reporting each one's physical index.
    /// Rows are not findable until [`RowTable::link`].
    pub(crate) fn insert_chunk(
        &mut self,
        cols: &[&ColumnVector],
        rows: Rows<'_>,
        mut inserted: impl FnMut(usize),
    ) {
        self.hash_chunk(cols, rows);
        let mut keys = Keys::new(&mut self.keys, cols);
        for (i, (&h, &null)) in self.chunk_hashes.iter().zip(&self.chunk_nulls).enumerate() {
            if null {
                continue;
            }
            let r = rows.get(i);
            self.chains.links.push(Link {
                hash: h,
                next: NONE,
            });
            keys.push(r);
            inserted(r);
        }
    }

    /// Join build, after the last chunk: chain the rows. Linking each at
    /// its bucket's head, last row first, leaves every chain in insertion
    /// order — so a probe meets a key's duplicates in build order without
    /// the table keeping a tail per bucket.
    pub(crate) fn link(&mut self) {
        let chains = &mut self.chains;
        for id in (0..chains.links.len()).rev() {
            let b = chains.bucket(chains.links[id].hash);
            chains.links[id].next = chains.heads[b];
            chains.heads[b] = id as u32;
        }
    }

    /// Join probe: for every live row with all keys non-NULL, in order,
    /// report `(build row id, physical probe row)` for each build row of
    /// the same key, in build insertion order.
    pub(crate) fn probe_chunk(
        &mut self,
        cols: &[&ColumnVector],
        rows: Rows<'_>,
        mut on_match: impl FnMut(u32, usize),
    ) {
        self.hash_chunk(cols, rows);
        let keys = Keys::new(&mut self.keys, cols);
        let chains = &self.chains;
        for (i, (&h, &null)) in self.chunk_hashes.iter().zip(&self.chunk_nulls).enumerate() {
            if null {
                continue;
            }
            let r = rows.get(i);
            let mut id = chains.heads[chains.bucket(h)];
            while id != NONE {
                let link = &chains.links[id as usize];
                if link.hash == h && keys.eq(id as usize, r) {
                    on_match(id, r);
                }
                id = link.next;
            }
        }
    }

    /// Grouping: map each live row to the id of the row holding its key,
    /// inserting the key when it is new — so ids are dense and in
    /// first-seen order. NULL is a key like any other.
    pub(crate) fn group_ids(&mut self, cols: &[&ColumnVector], rows: Rows<'_>, ids: &mut Vec<u32>) {
        self.hash_chunk(cols, rows);
        let mut keys = Keys::new(&mut self.keys, cols);
        let chains = &mut self.chains;
        ids.clear();
        for (i, &h) in self.chunk_hashes.iter().enumerate() {
            let r = rows.get(i);
            let b = chains.bucket(h);
            let mut id = chains.heads[b];
            while id != NONE {
                let link = &chains.links[id as usize];
                if link.hash == h && keys.eq(id as usize, r) {
                    break;
                }
                id = link.next;
            }
            if id == NONE {
                id = chains.links.len() as u32;
                chains.links.push(Link {
                    hash: h,
                    next: chains.heads[b],
                });
                chains.heads[b] = id;
                keys.push(r);
            }
            ids.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::{DataType, Value};

    fn column(ty: DataType, vals: &[Value]) -> ColumnVector {
        let mut c = ColumnVector::new_for(Some(ty));
        for v in vals {
            c.push(v.clone());
        }
        c
    }

    #[test]
    fn group_ids_are_dense_in_first_seen_order_and_null_is_a_key() {
        let col = column(
            DataType::Int,
            &[
                Value::Int(7),
                Value::Null,
                Value::Int(3),
                Value::Int(7),
                Value::Null,
            ],
        );
        let mut table = RowTable::for_rows(5);
        let mut ids = Vec::new();
        table.group_ids(&[&col], Rows::All(5), &mut ids);
        assert_eq!(ids, vec![0, 1, 2, 0, 1]);
        // A second chunk, selected rows only, keeps numbering.
        let more = column(
            DataType::Int,
            &[Value::Int(9), Value::Int(3), Value::Int(1)],
        );
        table.group_ids(&[&more], Rows::Ids(&[1, 2]), &mut ids);
        assert_eq!(ids, vec![2, 3]);
        let keys = table.into_keys();
        assert_eq!(
            (0..4).map(|i| keys[0].value(i)).collect::<Vec<_>>(),
            vec![Value::Int(7), Value::Null, Value::Int(3), Value::Int(1)]
        );
    }

    #[test]
    fn probe_reports_duplicates_in_build_order_and_skips_null_keys() {
        let build = column(
            DataType::Int,
            &[
                Value::Int(1),
                Value::Int(2),
                Value::Null,
                Value::Int(1),
                Value::Int(1),
            ],
        );
        let mut table = RowTable::for_rows(5);
        let mut inserted = Vec::new();
        table.insert_chunk(&[&build], Rows::All(5), |r| inserted.push(r));
        table.link();
        assert_eq!(inserted, vec![0, 1, 3, 4], "the NULL key is not inserted");
        // Probed with a FLOAT column: the generic comparison, same hash.
        let probe = column(
            DataType::Float,
            &[Value::Float(1.0), Value::Null, Value::Float(2.0)],
        );
        let mut matches = Vec::new();
        table.probe_chunk(&[&probe], Rows::All(3), |id, r| matches.push((id, r)));
        assert_eq!(matches, vec![(0, 0), (2, 0), (3, 0), (1, 2)]);
    }

    #[test]
    fn two_keys_compare_every_cell() {
        let a = column(
            DataType::Int,
            &[Value::Int(1), Value::Int(1), Value::Int(1)],
        );
        let s = column(
            DataType::Str,
            &[Value::from("x"), Value::from("y"), Value::from("x")],
        );
        let mut table = RowTable::for_rows(3);
        let mut ids = Vec::new();
        table.group_ids(&[&a, &s], Rows::All(3), &mut ids);
        assert_eq!(ids, vec![0, 1, 0]);
    }
}
