//! The row-id table behind hash join, hash aggregate and DISTINCT.
//!
//! Rows are numbered in insertion order. For each row the table keeps a
//! link to the next row of its chain and, where a lookup compares keys or
//! the operator reads them back, its key cells — copied into typed key
//! columns, position = row id; `heads` maps a chain to its first row.
//! Nothing is allocated per row or per key: the arrays are flat, and
//! `heads` is sized once, from keys the operator already holds.
//!
//! The layout is picked once per table, from those keys ([`Layout::pick`]):
//!
//! * **Dense** — one key column whose non-NULL cells are all `Int`, over a
//!   range of at most [`DENSE_SLOTS_PER_LOOKUP`] slots per row the operator
//!   looks up. The chain of key `k` starts at `heads[k − min]`, NULL's at
//!   `heads[span]`; a chain holds one key only, so nothing is hashed and no
//!   key is compared. A probe cell outside the range misses on one compare.
//! * **Codes** — one `Str` key column whose every chunk, build and probe,
//!   indexes one dictionary of at most [`DENSE_SLOTS_PER_LOOKUP`] entries
//!   per row looked up. Once per table each entry is mapped to the first
//!   entry of equal content, its *canonical* code; the chain of a string
//!   starts at `heads[canonical code]`, NULL's after the last entry. As in
//!   the dense layout, nothing is hashed or compared per row, and a
//!   dictionary whose entries repeat still gives one chain per string.
//! * **Hashed** — any other key. A chain is a hash bucket: each row keeps
//!   its 64-bit key hash ([`CellRef::hash64`], the hash `Value` has), and a
//!   lookup walks one chain comparing hashes, then key cells. A single
//!   `Int` key is matched once per chunk and compared in a loop over
//!   `&[i64]` / `&[bool]`; any other shape compares cell by cell.
//!
//! A join build keeps key cells in the hashed layout only: a dense or code
//! chain holds one key, so its probe compares none. A grouping keeps them
//! in every layout, as the output's group columns.
//!
//! All three answer every lookup alike, in the same order: equality is
//! `total_cmp == Equal` (the equality `Value` has) — so a `Float` cell
//! finds `Int` key `k` only where it equals `k` exactly, which `-0.0`, NaN
//! and fractions never do, and strings are equal by content — chains keep
//! insertion order, and ids are handed out first-seen.
//!
//! The closures run once per row are `#[inline(always)]`: left to the
//! compiler, some were called out of line, once per row, which cost the
//! hashed join a fifth of its time.

use qcc_common::{CellRef, ColumnVector};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

const NONE: u32 = u32::MAX;

/// The dense layout's key range, and the code layout's dictionary, may
/// span at most this many slots per row the operator looks up, so their
/// zero-filled `heads` is bounded by work the operator already does per
/// row, whatever the keys.
const DENSE_SLOTS_PER_LOOKUP: u64 = 4;

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

    /// Call `f` on each live row's physical index, in order.
    #[inline]
    fn for_each(self, mut f: impl FnMut(usize)) {
        match self {
            Rows::All(n) => (0..n).for_each(f),
            Rows::Ids(ids) => ids.iter().for_each(
                #[inline(always)]
                |&i| f(i as usize),
            ),
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

/// One chunk's key columns and its live rows.
pub(crate) type KeyChunk<'a> = (Vec<&'a ColumnVector>, Rows<'a>);

fn total_rows(chunks: &[KeyChunk<'_>]) -> usize {
    chunks.iter().map(|(_, rows)| rows.len()).sum()
}

/// How a key finds its chain.
#[derive(Clone, Debug, PartialEq)]
enum Layout {
    /// `heads[hash & (heads.len() - 1)]`.
    Hashed,
    /// `heads[key - min]` for `key - min < span`, `heads[span]` for NULL.
    Dense { min: i64, span: u64 },
    /// `heads[canon[code]]` for a string's dictionary code,
    /// `heads[canon.len()]` for NULL.
    Codes { canon: Vec<u32> },
}

impl Layout {
    /// The layout for keys `chunks`, to be looked up by the rows of
    /// `chunks` and `probes`. Codes if every chunk of both is keyed on one
    /// `Str` column, all of one dictionary no longer than
    /// `DENSE_SLOTS_PER_LOOKUP` entries per lookup; dense if the key of
    /// `chunks` is one column whose non-NULL cells are all `Int` and whose
    /// range spans at most that many slots per lookup; hashed otherwise.
    fn pick(chunks: &[KeyChunk<'_>], probes: &[KeyChunk<'_>]) -> Layout {
        let lookups = (total_rows(chunks) + total_rows(probes)) as u64;
        let max_slots = DENSE_SLOTS_PER_LOOKUP.saturating_mul(lookups);
        if let Some(dict) = shared_dict(chunks, probes) {
            return if dict.len() as u64 <= max_slots {
                Layout::Codes {
                    canon: canonical(dict),
                }
            } else {
                Layout::Hashed
            };
        }
        // An empty range while `min > max`.
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        let mut extend = |k: i64| {
            min = min.min(k);
            max = max.max(k);
        };
        for (cols, rows) in chunks {
            let [col] = cols[..] else {
                return Layout::Hashed;
            };
            let mut all_int = true;
            match col {
                ColumnVector::Int { data, nulls } => rows.for_each(
                    #[inline(always)]
                    |r| {
                        if !nulls[r] {
                            extend(data[r]);
                        }
                    },
                ),
                _ => rows.cells(
                    col,
                    #[inline(always)]
                    |c| match c {
                        CellRef::Int(k) => extend(k),
                        CellRef::Null => {}
                        _ => all_int = false,
                    },
                ),
            }
            if !all_int {
                return Layout::Hashed;
            }
        }
        if min > max {
            return Layout::Dense { min: 0, span: 0 };
        }
        // The distance between two `i64`s always fits a `u64`.
        let width = max.wrapping_sub(min) as u64;
        if width < max_slots {
            Layout::Dense {
                min,
                span: width + 1,
            }
        } else {
            Layout::Hashed
        }
    }

    /// The slot of NULL in a dense or code table: one past the keys'.
    fn null_slot(&self) -> u64 {
        match self {
            Layout::Dense { span, .. } => *span,
            Layout::Codes { canon } => canon.len() as u64,
            Layout::Hashed => 0,
        }
    }

    /// Call `f(row, slot)` for each live row of a dense or code table's key
    /// column, in order: the key's slot, [`Layout::null_slot`] for NULL,
    /// one past that for a key in no slot.
    #[inline]
    fn slots(&self, col: &ColumnVector, rows: Rows<'_>, f: impl FnMut(usize, u64)) {
        match self {
            Layout::Dense { min, span } => dense_slots(col, rows, *min, *span, f),
            Layout::Codes { canon } => code_slots(col, rows, canon, f),
            Layout::Hashed => {}
        }
    }
}

/// The dictionary that every chunk of `chunks` and `probes` indexes with
/// its one key column, if there is one.
fn shared_dict<'a>(chunks: &[KeyChunk<'a>], probes: &[KeyChunk<'a>]) -> Option<&'a [Arc<str>]> {
    let dict = |(cols, _): &KeyChunk<'a>| match cols[..] {
        [col] => col.str_codes().map(|(_, _, dict)| dict),
        _ => None,
    };
    let mut all = chunks.iter().chain(probes);
    let first = dict(all.next()?)?;
    all.all(|c| dict(c).is_some_and(|d| std::ptr::eq(d, first)))
        .then_some(first)
}

/// Each entry of `dict` → the first entry of the same content.
fn canonical(dict: &[Arc<str>]) -> Vec<u32> {
    let mut first = HashMap::with_capacity(dict.len());
    (0..dict.len() as u32)
        .map(|code| *first.entry(&*dict[code as usize]).or_insert(code))
        .collect()
}

/// One inserted row: its key hash — in the dense and code layouts, its
/// slot — and the next row of its chain. Side by side, so a step along a
/// chain costs one cache line, not two.
struct Link {
    hash: u64,
    next: u32,
}

/// The chain links of the inserted rows.
struct Chains {
    layout: Layout,
    /// Row id → the row.
    links: Vec<Link>,
    /// Chain → its first row. Hashed: a power of two long; dense: one slot
    /// per key of the range, then NULL's; codes: one slot per dictionary
    /// entry, then NULL's.
    heads: Vec<u32>,
}

impl Chains {
    /// The chain of a row whose hash (or slot) is `h`.
    #[inline]
    fn head(&self, h: u64) -> usize {
        match self.layout {
            Layout::Hashed => h as usize & (self.heads.len() - 1),
            Layout::Dense { .. } | Layout::Codes { .. } => h as usize,
        }
    }
}

/// [`Layout::slots`] of a dense table: `k - min` for an `Int` key `k` in
/// the range, `span` for NULL, `span + 1` for a key in no slot. An `Int`
/// column is read in a loop over `&[i64]` / `&[bool]`, any other cell by
/// cell.
#[inline]
fn dense_slots(
    col: &ColumnVector,
    rows: Rows<'_>,
    min: i64,
    span: u64,
    mut f: impl FnMut(usize, u64),
) {
    // One compare decides: `k - min` as `u64` is exact for `k >= min`, and
    // below `min` it wraps to at least `2^63 - min`, more than `max - min`.
    let slot = |k: i64| match k.wrapping_sub(min) as u64 {
        off if off < span => off,
        _ => span + 1,
    };
    match col {
        ColumnVector::Int { data, nulls } => {
            rows.for_each(
                #[inline(always)]
                |r| f(r, if nulls[r] { span } else { slot(data[r]) }),
            );
        }
        _ => {
            let mut i = 0;
            rows.cells(
                col,
                #[inline(always)]
                |c| {
                    let s = match c {
                        CellRef::Null => span,
                        CellRef::Int(k) => slot(k),
                        // `x as i64` is the one `Int` that `x` can equal;
                        // `total_cmp` says whether it does.
                        CellRef::Float(x) if CellRef::Int(x as i64).total_cmp(c).is_eq() => {
                            slot(x as i64)
                        }
                        CellRef::Float(_) | CellRef::Str(_) => span + 1,
                    };
                    f(rows.get(i), s);
                    i += 1;
                },
            );
        }
    }
}

/// [`Layout::slots`] of a code table: `canon[code]`, `canon.len()` for
/// NULL. The table was picked for these chunks, so every one indexes the
/// dictionary `canon` was made from; a column of no dictionary would have
/// no slot.
#[inline]
fn code_slots(col: &ColumnVector, rows: Rows<'_>, canon: &[u32], mut f: impl FnMut(usize, u64)) {
    let null = canon.len() as u64;
    match col.str_codes() {
        Some((codes, nulls, _)) => rows.for_each(
            #[inline(always)]
            |r| {
                f(
                    r,
                    if nulls[r] {
                        null
                    } else {
                        u64::from(canon[codes[r] as usize])
                    },
                )
            },
        ),
        None => rows.for_each(
            #[inline(always)]
            |r| f(r, null + 1),
        ),
    }
}

/// Fill `hashes` / `nulls` with each live row's key hash, and whether any
/// of its key cells is NULL. The columns are hashed one at a time.
fn hash_chunk(
    hashes: &mut Vec<u64>,
    nulls: &mut Vec<bool>,
    cols: &[&ColumnVector],
    rows: Rows<'_>,
) {
    hashes.clear();
    hashes.resize(rows.len(), 0);
    nulls.clear();
    nulls.resize(rows.len(), false);
    for col in cols {
        let mut i = 0;
        rows.cells(
            col,
            #[inline(always)]
            |c| {
                let h = hashes[i].rotate_left(5) ^ c.hash64();
                hashes[i] = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                nulls[i] |= c.is_null();
                i += 1;
            },
        );
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
                    s.push_from(c, r);
                }
            }
        }
    }
}

/// See the module documentation.
pub(crate) struct RowTable {
    /// Key columns of the inserted rows (empty until the first chunk
    /// shows their representation, and in a dense or code join build).
    keys: Vec<ColumnVector>,
    chains: Chains,
    /// Hashed layout, per live row of the chunk in hand: key hash, and
    /// whether any key cell is NULL.
    chunk_hashes: Vec<u64>,
    chunk_nulls: Vec<bool>,
    /// Dense or code join probe, per probe row of the chunk in hand whose
    /// chain is not empty: the row and its chain's first row. Reused, and
    /// only ever grown, from chunk to chunk.
    chunk_heads: Vec<(u32, u32)>,
}

impl RowTable {
    /// An empty table of `layout` that will hold at most `rows` rows.
    fn new(layout: Layout, rows: usize) -> RowTable {
        let heads = match layout {
            Layout::Hashed => (rows.max(1) * 2).next_power_of_two(),
            Layout::Dense { .. } | Layout::Codes { .. } => layout.null_slot() as usize + 1,
        };
        RowTable {
            keys: Vec::new(),
            chains: Chains {
                layout,
                links: Vec::new(),
                heads: vec![NONE; heads],
            },
            chunk_hashes: Vec::new(),
            chunk_nulls: Vec::new(),
            chunk_heads: Vec::new(),
        }
    }

    /// Join build: a table of every live row of `chunks` whose keys are all
    /// non-NULL (a NULL key never joins), reporting each one's chunk and
    /// physical row as it is inserted. The keys of `probes` follow, chunk
    /// by chunk, through [`RowTable::probe_chunk`]. Only a hashed table
    /// stores the keys.
    pub(crate) fn build(
        chunks: &[KeyChunk<'_>],
        probes: &[KeyChunk<'_>],
        inserted: impl FnMut(usize, usize),
    ) -> RowTable {
        RowTable::build_as(Layout::pick(chunks, probes), chunks, inserted)
    }

    fn build_as(
        layout: Layout,
        chunks: &[KeyChunk<'_>],
        mut inserted: impl FnMut(usize, usize),
    ) -> RowTable {
        let rows = total_rows(chunks);
        let mut table = RowTable::new(layout, rows);
        table.chains.links.reserve(rows);
        if let (Layout::Hashed, Some((cols, _))) = (&table.chains.layout, chunks.first()) {
            table.keys = cols
                .iter()
                .map(|c| {
                    let mut k = c.empty_like();
                    k.reserve(rows);
                    k
                })
                .collect();
        }
        for (ci, (cols, rows)) in chunks.iter().enumerate() {
            let Chains { layout, links, .. } = &mut table.chains;
            match layout {
                Layout::Hashed => {
                    let mut keys = Keys::new(&mut table.keys, cols);
                    let (hashes, nulls) = (&mut table.chunk_hashes, &mut table.chunk_nulls);
                    hash_chunk(hashes, nulls, cols, *rows);
                    for (i, (&h, &null)) in hashes.iter().zip(nulls.iter()).enumerate() {
                        if !null {
                            let r = rows.get(i);
                            links.push(Link {
                                hash: h,
                                next: NONE,
                            });
                            keys.push(r);
                            inserted(ci, r);
                        }
                    }
                }
                // A chain holds one key: its probe compares none, so none
                // is stored.
                layout => {
                    let null = layout.null_slot();
                    layout.slots(
                        cols[0],
                        *rows,
                        #[inline(always)]
                        |r, s| {
                            if s < null {
                                links.push(Link {
                                    hash: s,
                                    next: NONE,
                                });
                                inserted(ci, r);
                            }
                        },
                    );
                }
            }
        }
        // Linking each row at its chain's head, last row first, leaves
        // every chain in insertion order — so a probe meets a key's
        // duplicates in build order without the table keeping a tail per
        // chain.
        let chains = &mut table.chains;
        for id in (0..chains.links.len()).rev() {
            let b = chains.head(chains.links[id].hash);
            chains.links[id].next = chains.heads[b];
            chains.heads[b] = id as u32;
        }
        table
    }

    /// Grouping: an empty table for the keys of `chunks`, to be handed
    /// these same chunks, in order, through [`RowTable::group_ids`].
    pub(crate) fn for_groups(chunks: &[KeyChunk<'_>]) -> RowTable {
        RowTable::new(Layout::pick(chunks, &[]), total_rows(chunks))
    }

    /// Grouping without ids: append to `slots` a slot for each live row of
    /// `chunks`, in order, that the row shares with exactly the rows of
    /// its key, and return how many slots there are. In the dense and code
    /// layouts a key's slot is its chain's, so nothing is inserted; in the
    /// hashed one it is the id [`RowTable::group_ids`] gives the key.
    pub(crate) fn key_slots(chunks: &[KeyChunk<'_>], slots: &mut Vec<u32>) -> usize {
        match Layout::pick(chunks, &[]) {
            Layout::Hashed => {
                let mut table = RowTable::new(Layout::Hashed, total_rows(chunks));
                let mut ids = Vec::new();
                for (cols, rows) in chunks {
                    table.group_ids(cols, *rows, &mut ids);
                    slots.extend_from_slice(&ids);
                }
                table.len()
            }
            layout => {
                for (cols, rows) in chunks {
                    layout.slots(
                        cols[0],
                        *rows,
                        #[inline(always)]
                        |_, s| slots.push(s as u32),
                    );
                }
                layout.null_slot() as usize + 1
            }
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

    /// Join probe: for every live row with all keys non-NULL, in order,
    /// report `(build row id, physical probe row)` to `on_match` for each
    /// build row of the same key, in build insertion order. A dense or code
    /// table first finds every row's chain, then tells `reserve` how many
    /// rows have a non-empty one — each at least one match — before the
    /// first match. Both are handed `matches`, where the caller keeps what
    /// they fill.
    pub(crate) fn probe_chunk<M>(
        &mut self,
        cols: &[&ColumnVector],
        rows: Rows<'_>,
        matches: &mut M,
        reserve: impl FnOnce(&mut M, usize),
        mut on_match: impl FnMut(&mut M, u32, usize),
    ) {
        let chains = &self.chains;
        match &chains.layout {
            Layout::Hashed => {
                hash_chunk(&mut self.chunk_hashes, &mut self.chunk_nulls, cols, rows);
                let keys = Keys::new(&mut self.keys, cols);
                for (i, (&h, &null)) in self.chunk_hashes.iter().zip(&self.chunk_nulls).enumerate()
                {
                    if null {
                        continue;
                    }
                    let r = rows.get(i);
                    let mut id = chains.heads[chains.head(h)];
                    while id != NONE {
                        let link = &chains.links[id as usize];
                        if link.hash == h && keys.eq(id as usize, r) {
                            on_match(matches, id, r);
                        }
                        id = link.next;
                    }
                }
            }
            // A chain holds one key: every row of it matches. The first
            // pass writes each row with its chain's head and keeps it only
            // if the chain is not empty — one write and one add, whether or
            // not it matches; the second walks the kept chains in order.
            layout => {
                // Nothing is inserted at NULL's slot, so it reads as an
                // empty chain, as does a key in no slot, clamped to it.
                let null = layout.null_slot();
                let cands = &mut self.chunk_heads;
                if cands.len() < rows.len() {
                    cands.resize(rows.len(), (0, NONE));
                }
                let mut n = 0;
                layout.slots(
                    cols[0],
                    rows,
                    #[inline(always)]
                    |r, s| {
                        let head = chains.heads[s.min(null) as usize];
                        cands[n] = (r as u32, head);
                        n += usize::from(head != NONE);
                    },
                );
                reserve(matches, n);
                for &(r, mut id) in &cands[..n] {
                    while id != NONE {
                        on_match(matches, id, r as usize);
                        id = chains.links[id as usize].next;
                    }
                }
            }
        }
    }

    /// Grouping: map each live row to the id of the row holding its key,
    /// inserting the key when it is new — so ids are dense and in
    /// first-seen order. NULL is a key like any other.
    pub(crate) fn group_ids(&mut self, cols: &[&ColumnVector], rows: Rows<'_>, ids: &mut Vec<u32>) {
        let mut keys = Keys::new(&mut self.keys, cols);
        let chains = &mut self.chains;
        ids.clear();
        match &chains.layout {
            Layout::Hashed => {
                hash_chunk(&mut self.chunk_hashes, &mut self.chunk_nulls, cols, rows);
                for (i, &h) in self.chunk_hashes.iter().enumerate() {
                    let r = rows.get(i);
                    let b = chains.head(h);
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
            // A slot holds one group. The table was picked for these
            // chunks, so every key has a slot (any other key fails here,
            // on the index).
            layout => layout.slots(
                cols[0],
                rows,
                #[inline(always)]
                |r, s| {
                    let head = &mut chains.heads[s as usize];
                    if *head == NONE {
                        *head = chains.links.len() as u32;
                        chains.links.push(Link {
                            hash: s,
                            next: NONE,
                        });
                        keys.push(r);
                    }
                    ids.push(*head);
                },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::{DataType, Pcg32, Value};

    fn column(ty: DataType, vals: &[Value]) -> ColumnVector {
        let mut c = ColumnVector::new_for(Some(ty));
        for v in vals {
            c.push(v.clone());
        }
        c
    }

    /// The cells of key columns, by content. `Debug`, not `==`: `Value`
    /// equality is numeric across types.
    fn cells(keys: &[ColumnVector]) -> String {
        let cells: Vec<Vec<CellRef>> = keys
            .iter()
            .map(|k| (0..k.len()).map(|i| k.cell(i)).collect())
            .collect();
        format!("{cells:?}")
    }

    /// What the join finds over `build` and `probe` in `layout`: the
    /// inserted `(chunk, row)`s, the matches per probe chunk, and the
    /// stored keys. A dense or code probe must announce, before its first
    /// match, exactly the number of probe rows that match; a hashed one
    /// announces nothing.
    type Joined = (Vec<(usize, usize)>, Vec<Vec<(u32, usize)>>, String);

    fn joined(build: &[KeyChunk<'_>], probe: &[KeyChunk<'_>], layout: &Layout) -> Joined {
        let mut inserted = Vec::new();
        let mut table = RowTable::build_as(layout.clone(), build, |ci, r| inserted.push((ci, r)));
        let keys = cells(&table.keys);
        let matches = probe
            .iter()
            .map(|(cols, rows)| {
                let mut m = (None, Vec::new());
                table.probe_chunk(
                    cols,
                    *rows,
                    &mut m,
                    |(reserved, m), n| {
                        assert!(m.is_empty(), "reserve after a match");
                        *reserved = Some(n);
                    },
                    |(_, m), id, r| m.push((id, r)),
                );
                let (reserved, m) = m;
                let mut matched: Vec<usize> = m.iter().map(|&(_, r)| r).collect();
                matched.dedup();
                let want = (*layout != Layout::Hashed).then_some(matched.len());
                assert_eq!(reserved, want, "{layout:?}");
                m
            })
            .collect();
        (inserted, matches, keys)
    }

    /// The group ids of each chunk in `layout`, and the stored keys.
    fn grouped(chunks: &[KeyChunk<'_>], layout: &Layout) -> (Vec<Vec<u32>>, String) {
        let mut table = RowTable::new(layout.clone(), total_rows(chunks));
        let ids = chunks
            .iter()
            .map(|(cols, rows)| {
                let mut ids = Vec::new();
                table.group_ids(cols, *rows, &mut ids);
                ids
            })
            .collect();
        (ids, cells(&table.into_keys()))
    }

    fn join_layout(build: &[KeyChunk<'_>], probe: &[KeyChunk<'_>]) -> Layout {
        Layout::pick(build, probe)
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
        // A second chunk, selected rows only, keeps numbering.
        let more = column(
            DataType::Int,
            &[Value::Int(9), Value::Int(3), Value::Int(1)],
        );
        let chunks = [
            (vec![&col], Rows::All(5)),
            (vec![&more], Rows::Ids(&[1, 2])),
        ];
        let picked = RowTable::for_groups(&chunks).chains.layout;
        assert_eq!(picked, Layout::Dense { min: 1, span: 7 });
        for layout in [picked, Layout::Hashed] {
            let (ids, keys) = grouped(&chunks, &layout);
            assert_eq!(ids, vec![vec![0, 1, 2, 0, 1], vec![2, 3]], "{layout:?}");
            let want = column(
                DataType::Int,
                &[Value::Int(7), Value::Null, Value::Int(3), Value::Int(1)],
            );
            assert_eq!(keys, cells(&[want]), "{layout:?}");
        }
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
        // Probed with a FLOAT column: cell by cell, `total_cmp` equality.
        let probe = column(
            DataType::Float,
            &[Value::Float(1.0), Value::Null, Value::Float(2.0)],
        );
        let build = [(vec![&build], Rows::All(5))];
        let probe = [(vec![&probe], Rows::All(3))];
        let picked = join_layout(&build, &probe);
        assert_eq!(picked, Layout::Dense { min: 1, span: 2 });
        for layout in [picked, Layout::Hashed] {
            let (inserted, matches, _) = joined(&build, &probe, &layout);
            let rows: Vec<usize> = inserted.iter().map(|&(_, r)| r).collect();
            assert_eq!(rows, vec![0, 1, 3, 4], "the NULL key is not inserted");
            assert_eq!(matches, vec![vec![(0, 0), (2, 0), (3, 0), (1, 2)]]);
        }
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
        let chunks = [(vec![&a, &s], Rows::All(3))];
        let mut table = RowTable::for_groups(&chunks);
        assert_eq!(table.chains.layout, Layout::Hashed);
        let mut ids = Vec::new();
        table.group_ids(&[&a, &s], Rows::All(3), &mut ids);
        assert_eq!(ids, vec![0, 1, 0]);
    }

    /// `-0.0` is not `0` under `total_cmp`, so it finds no `Int` key —
    /// although it casts to `0`, hashes as `0` and compares equal to it
    /// with `==`.
    #[test]
    fn negative_zero_joins_no_int_key() {
        let build = column(DataType::Int, &[Value::Int(0), Value::Int(1)]);
        let probe = column(
            DataType::Float,
            &[Value::Float(-0.0), Value::Float(0.0), Value::Float(1.0)],
        );
        let build = [(vec![&build], Rows::All(2))];
        let probe = [(vec![&probe], Rows::All(3))];
        let picked = join_layout(&build, &probe);
        assert!(matches!(picked, Layout::Dense { .. }));
        for layout in [picked, Layout::Hashed] {
            let (_, matches, _) = joined(&build, &probe, &layout);
            assert_eq!(matches, vec![vec![(0, 1), (1, 2)]], "{layout:?}");
        }
    }

    /// A dictionary may hold a string twice (a column filled cell by cell
    /// adds an entry per cell): the code layout maps both entries to one
    /// slot, so they are one key.
    #[test]
    fn repeated_dictionary_entries_are_one_key() {
        let s = column(
            DataType::Str,
            &[
                Value::from("x"),
                Value::from("y"),
                Value::Null,
                Value::from("x"),
            ],
        );
        let chunks = [(vec![&s], Rows::All(4))];
        let picked = RowTable::for_groups(&chunks).chains.layout;
        assert_eq!(
            picked,
            Layout::Codes {
                canon: vec![0, 1, 0]
            }
        );
        for layout in [picked, Layout::Hashed] {
            let (ids, keys) = grouped(&chunks, &layout);
            assert_eq!(ids, vec![vec![0, 1, 2, 0]], "{layout:?}");
            let want = column(
                DataType::Str,
                &[Value::from("x"), Value::from("y"), Value::Null],
            );
            assert_eq!(keys, cells(&[want]), "{layout:?}");
        }
    }

    /// One generated chunk: a key column and, maybe, a selection.
    type GenChunk = (ColumnVector, Option<Vec<u32>>);

    fn key_chunks(chunks: &[GenChunk]) -> Vec<KeyChunk<'_>> {
        chunks
            .iter()
            .map(|(col, ids)| {
                let rows = ids.as_deref().map_or(Rows::All(col.len()), Rows::Ids);
                (vec![col], rows)
            })
            .collect()
    }

    /// `vals` as a column of the representation they fit — a typed vector,
    /// or `Mixed` — now and then forced to `Mixed`; selected in full or in
    /// part.
    fn gen_chunk(rng: &mut Pcg32, ty: DataType, vals: Vec<Value>) -> GenChunk {
        let col = if rng.next_f64() < 0.15 {
            ColumnVector::Mixed(vals)
        } else {
            column(ty, &vals)
        };
        let ids = selection(rng, col.len());
        (col, ids)
    }

    /// All of `len` rows, or about six in ten of them.
    fn selection(rng: &mut Pcg32, len: usize) -> Option<Vec<u32>> {
        (rng.next_f64() < 0.4).then(|| (0..len as u32).filter(|_| rng.next_f64() < 0.6).collect())
    }

    /// `n` cells from `cell`, about one in ten NULL.
    fn gen_cells(rng: &mut Pcg32, cell: impl Fn(&mut Pcg32) -> Value) -> Vec<Value> {
        let n = rng.range_u64(0, 40);
        (0..n)
            .map(|_| {
                if rng.next_f64() < 0.1 {
                    Value::Null
                } else {
                    cell(rng)
                }
            })
            .collect()
    }

    /// The join every layout must reproduce: each build row with a
    /// non-NULL key in order, and per probe row each of them whose key
    /// `total_cmp`s equal, in build order.
    fn naive_join(
        build: &[KeyChunk<'_>],
        probe: &[KeyChunk<'_>],
    ) -> (Vec<(usize, usize)>, Vec<Vec<(u32, usize)>>) {
        let live = |(cols, rows): &KeyChunk<'_>| -> Vec<(usize, Value)> {
            (0..rows.len())
                .map(|i| (rows.get(i), cols[0].value(rows.get(i))))
                .filter(|(_, v)| !v.is_null())
                .collect()
        };
        let mut inserted = Vec::new();
        let mut keys = Vec::new();
        for (ci, chunk) in build.iter().enumerate() {
            for (r, v) in live(chunk) {
                inserted.push((ci, r));
                keys.push(v);
            }
        }
        let matches = probe
            .iter()
            .map(|chunk| {
                let mut m = Vec::new();
                for (r, v) in live(chunk) {
                    for (id, k) in keys.iter().enumerate() {
                        if k.total_cmp(&v) == Ordering::Equal {
                            m.push((id as u32, r));
                        }
                    }
                }
                m
            })
            .collect();
        (inserted, matches)
    }

    /// First-seen group ids under `total_cmp` equality, NULL a key.
    fn naive_groups(chunks: &[KeyChunk<'_>]) -> Vec<Vec<u32>> {
        let mut seen: Vec<Value> = Vec::new();
        chunks
            .iter()
            .map(|(cols, rows)| {
                (0..rows.len())
                    .map(|i| {
                        let v = cols[0].value(rows.get(i));
                        let id = seen.iter().position(|s| s.total_cmp(&v) == Ordering::Equal);
                        id.unwrap_or_else(|| {
                            seen.push(v);
                            seen.len() - 1
                        }) as u32
                    })
                    .collect()
            })
            .collect()
    }

    /// The cases of the two-pass probe a join case covers (counted where
    /// `picked` is dense or codes): a build key on more than one row, a
    /// NULL probe key, an `Int` probe key outside the dense range.
    #[derive(Default)]
    struct Covered {
        duplicate_build_keys: usize,
        null_probe_keys: usize,
        outside_the_range: usize,
    }

    /// The live cells of `chunks`' one key column.
    fn live_cells<'c>(chunks: &'c [KeyChunk<'_>]) -> Vec<CellRef<'c>> {
        let live =
            |(cols, rows): &'c KeyChunk<'_>| (0..rows.len()).map(|i| cols[0].cell(rows.get(i)));
        chunks.iter().flat_map(live).collect()
    }

    /// The three-way check of the layout properties: the join of `keyed`
    /// and `probe` — or, with no probe side, the grouping of `keyed` —
    /// gives the same inserted rows, match lists and group ids in `picked`
    /// as in the hashed layout, and is the one `total_cmp` defines. Stored
    /// keys are compared where a table keeps them: a grouping's, in every
    /// layout, are the same; a hashed join build's are each inserted
    /// row's key, and a dense or code one stores none.
    fn agree(
        case: usize,
        keyed: &[KeyChunk<'_>],
        probe: Option<&[KeyChunk<'_>]>,
        picked: &Layout,
        covered: &mut Covered,
    ) {
        match probe {
            Some(probe) => {
                let got = joined(keyed, probe, picked);
                let want = joined(keyed, probe, &Layout::Hashed);
                let (inserted, matches) = (&want.0, &want.1);
                assert_eq!(
                    (&got.0, &got.1),
                    (inserted, matches),
                    "case {case}: {picked:?}"
                );
                assert_eq!(
                    (inserted.clone(), matches.clone()),
                    naive_join(keyed, probe),
                    "case {case}"
                );
                let stored = inserted.iter().map(|&(ci, r)| keyed[ci].0[0].cell(r));
                let stored: Vec<Vec<CellRef>> = keyed
                    .first()
                    .map(|_| stored.collect())
                    .into_iter()
                    .collect();
                assert_eq!(want.2, format!("{stored:?}"), "case {case}: hashed keys");
                if *picked == Layout::Hashed {
                    return;
                }
                assert_eq!(got.2, "[]", "case {case}: {picked:?} stores keys");
                let mut keys: Vec<CellRef> = stored.concat();
                keys.sort_by(|a, b| a.total_cmp(*b));
                let probes = live_cells(probe);
                let outside = |c: &CellRef| match (picked, c) {
                    (Layout::Dense { min, span }, CellRef::Int(k)) => {
                        !(0..i128::from(*span)).contains(&(i128::from(*k) - i128::from(*min)))
                    }
                    _ => false,
                };
                let dup = keys.windows(2).any(|w| w[0].total_cmp(w[1]).is_eq());
                covered.duplicate_build_keys += usize::from(dup);
                covered.null_probe_keys += usize::from(probes.iter().any(|c| c.is_null()));
                covered.outside_the_range += usize::from(probes.iter().any(outside));
            }
            None => {
                let got = grouped(keyed, picked);
                let want = grouped(keyed, &Layout::Hashed);
                assert_eq!(got, want, "case {case}: {picked:?}");
                assert_eq!(got.0, naive_groups(keyed), "case {case}");
            }
        }
    }

    /// Seeded property: on single-column keys of every shape, the layout
    /// `Layout::pick` chooses and the hashed layout give the same inserted
    /// rows, match lists, group ids and stored keys, and both are the
    /// join and grouping `total_cmp` defines. Keys: NULLs, duplicates,
    /// negatives, the ends of `i64` (a range from `i64::MIN` to
    /// `i64::MAX` must not overflow), ranges exactly at the dense
    /// threshold and one past it, several chunks with selections; probes
    /// of `Int`, `Float` (`-0.0`, `0.5`, NaN, ±2^53, ±2^63, halves),
    /// `Str` and `Mixed` cells.
    #[test]
    fn dense_and_hashed_layouts_agree() {
        const P53: f64 = 9_007_199_254_740_992.0;
        const P63: f64 = 9_223_372_036_854_775_808.0;
        let mut rng = Pcg32::seed_from(2_500);
        let (mut dense, mut hashed, mut at_threshold) = (0, 0, 0);
        let mut covered = Covered::default();
        for case in 0..2_000 {
            // Keys in `[lo, lo + width)`, wrapping past `i64::MAX`.
            let lo = match rng.range_u64(0, 5) {
                0 => i64::MIN,
                1 => i64::MAX - 3,
                2 => -40,
                _ => rng.range_i64(-1_000_000, 1_000_000),
            };
            // One case in four puts the range at the dense threshold or
            // one past it: keys in a window of four, then one chunk
            // holding the two ends.
            let threshold = (rng.range_u64(0, 4) == 0).then(|| rng.range_u64(0, 2));
            let width = match threshold {
                Some(_) => 4,
                None => *rng.choose(&[1u64, 3, 8, 40, 400, 1 << 20, u64::MAX]),
            };
            let ends = threshold.is_none() && rng.range_u64(0, 4) == 0;
            let key = move |rng: &mut Pcg32| match rng.range_u64(0, 20) {
                0 if ends => Value::Int(i64::MIN),
                1 if ends => Value::Int(i64::MAX),
                _ => Value::Int(lo.wrapping_add(rng.range_u64(0, width) as i64)),
            };
            let probe_cell = move |rng: &mut Pcg32| {
                // A key of the range, or one just outside it.
                let k = lo
                    .wrapping_sub(1)
                    .wrapping_add(rng.range_u64(0, width.saturating_add(2)) as i64);
                match rng.range_u64(0, 10) {
                    0..=4 => Value::Int(k),
                    5..=7 => Value::Float(*rng.choose(&[
                        k as f64,
                        k as f64 + 0.5,
                        -0.0,
                        0.0,
                        0.5,
                        f64::NAN,
                        P53,
                    ])),
                    8 => Value::Float(*rng.choose(&[-P53, P63, -P63, 1.0, -1.0])),
                    _ => Value::Str(k.to_string()),
                }
            };
            let is_join = rng.next_f64() < 0.6;
            let mut keyed: Vec<GenChunk> = (0..rng.range_u64(0, 4))
                .map(|_| {
                    let cells = gen_cells(&mut rng, key);
                    gen_chunk(&mut rng, DataType::Int, cells)
                })
                .collect();
            let probe: Vec<GenChunk> = (0..if is_join { rng.range_u64(0, 4) } else { 0 })
                .map(|_| {
                    let ty = *rng.choose(&[DataType::Int, DataType::Float, DataType::Str]);
                    let cells = gen_cells(&mut rng, probe_cell);
                    let cells = match ty {
                        // A typed chunk holds its type only (or NULL).
                        DataType::Int => cells
                            .into_iter()
                            .filter(|v| matches!(v, Value::Int(_) | Value::Null))
                            .collect(),
                        DataType::Float => cells
                            .into_iter()
                            .filter(|v| matches!(v, Value::Float(_) | Value::Null))
                            .collect(),
                        // The rest: a `Mixed` column.
                        DataType::Str => cells,
                    };
                    gen_chunk(&mut rng, ty, cells)
                })
                .collect();
            if let Some(past) = threshold {
                let rows = |c: &[GenChunk]| total_rows(&key_chunks(c));
                let lookups = rows(&keyed) + rows(&probe) + 2;
                let span = 4 * lookups as i64 + past as i64;
                // The window of four sits at one end of the range.
                let (min, max) = if lo == i64::MIN || rng.next_f64() < 0.5 && lo != i64::MAX - 3 {
                    (lo, lo + span - 1)
                } else {
                    (lo + 3 - (span - 1), lo + 3)
                };
                keyed.push((
                    column(DataType::Int, &[Value::Int(min), Value::Int(max)]),
                    None,
                ));
            }
            let (keyed, probe) = (key_chunks(&keyed), key_chunks(&probe));
            let picked = join_layout(&keyed, &probe);
            if let Some(past) = threshold {
                at_threshold += 1;
                assert_eq!(
                    matches!(picked, Layout::Dense { .. }),
                    past == 0,
                    "case {case}: {picked:?}"
                );
            }
            if picked == Layout::Hashed {
                hashed += 1;
            } else {
                dense += 1;
            }
            agree(
                case,
                &keyed,
                is_join.then_some(&probe[..]),
                &picked,
                &mut covered,
            );
        }
        assert!(
            dense > 600 && hashed > 300,
            "{dense} dense, {hashed} hashed"
        );
        assert!(at_threshold > 300, "{at_threshold}");
        let Covered {
            duplicate_build_keys: dup,
            null_probe_keys: null,
            outside_the_range: outside,
        } = covered;
        eprintln!("dense joins: {dup} with duplicate build keys, {null} with NULL probe keys, {outside} with probe keys outside the range");
        assert!(
            dup > 100 && null > 100 && outside > 100,
            "{dup} / {null} / {outside}"
        );
    }

    /// A string column of `n` strings drawn from `pool` — so its `n`
    /// dictionary entries repeat when the pool is small — and about one
    /// NULL cell per ten; never empty.
    fn dictionary(rng: &mut Pcg32, n: u64, pool: u64) -> ColumnVector {
        let mut col = ColumnVector::new_for(Some(DataType::Str));
        for _ in 0..n {
            if rng.next_f64() < 0.1 {
                col.push(Value::Null);
            }
            let k = rng.range_u64(0, pool);
            col.push(Value::Str(match k % 3 {
                0 => format!("s{k}"),
                _ => format!("a string longer than eight bytes, {k}"),
            }));
        }
        if col.is_empty() {
            col.push(Value::Null);
        }
        col
    }

    /// Seeded property, the string half of `dense_and_hashed_layouts_agree`
    /// with the same three-way check. Key chunks are gathered from one
    /// dictionary (the code layout) or from several (hashed); dictionaries
    /// repeat entries (a pool of 1, 3 or 8 strings) and hold NULL cells;
    /// one case in four sizes the dictionary exactly at the code layout's
    /// threshold or one past it; probes mix in chunks of another dictionary
    /// and chunks of `Int`, `Float` and `Mixed` cells; chunks are selected
    /// in full or in part.
    #[test]
    fn code_and_hashed_layouts_agree() {
        let mut rng = Pcg32::seed_from(2_800);
        let (mut codes, mut hashed, mut at_threshold) = (0, 0, 0);
        let mut covered = Covered::default();
        for case in 0..2_000 {
            let is_join = rng.next_f64() < 0.6;
            let threshold = (rng.range_u64(0, 4) == 0).then(|| rng.range_u64(0, 2));
            // Where a chunk's cells come from: dictionary 0, 1 or 2, or
            // (probes only) 3 `Int`, 4 `Float`, 5 `Mixed` cells. At the
            // threshold, every chunk is of dictionary 0.
            let several = threshold.is_none() && rng.range_u64(0, 4) == 0;
            let build_src = |rng: &mut Pcg32| if several { rng.range_u64(0, 3) } else { 0 };
            let probe_src = |rng: &mut Pcg32| match rng.range_u64(0, 8) {
                _ if threshold.is_some() => 0,
                0 => 1,
                1..=3 => rng.range_u64(3, 6),
                _ => build_src(rng),
            };
            let shape = |rng: &mut Pcg32, src: u64| {
                let len = rng.range_u64(0, 40) as usize;
                (src, len, selection(rng, len))
            };
            // At the threshold, at least one chunk shows the dictionary.
            let keyed: Vec<_> = (0..rng.range_u64(u64::from(threshold.is_some()), 4))
                .map(|_| {
                    let src = build_src(&mut rng);
                    shape(&mut rng, src)
                })
                .collect();
            let probe: Vec<_> = (0..if is_join { rng.range_u64(0, 4) } else { 0 })
                .map(|_| {
                    let src = probe_src(&mut rng);
                    shape(&mut rng, src)
                })
                .collect();
            let live = |shapes: &[(u64, usize, Option<Vec<u32>>)]| -> u64 {
                let live = shapes
                    .iter()
                    .map(|(_, len, ids)| ids.as_ref().map_or(*len, Vec::len));
                live.sum::<usize>() as u64
            };
            let lookups = live(&keyed) + live(&probe);
            let pool = *rng.choose(&[1u64, 3, 8, 1_000]);
            let dicts: Vec<ColumnVector> = (0..3)
                .map(|d| {
                    let n = match threshold {
                        Some(past) if d == 0 => 4 * lookups + past,
                        _ => rng.range_u64(0, 60),
                    };
                    dictionary(&mut rng, n, pool)
                })
                .collect();
            let mut chunk = |(src, len, ids): &(u64, usize, Option<Vec<u32>>)| -> GenChunk {
                let mut cells = |cell: &dyn Fn(&mut Pcg32) -> Value| -> Vec<Value> {
                    (0..*len)
                        .map(|_| match rng.range_u64(0, 10) {
                            0 => Value::Null,
                            _ => cell(&mut rng),
                        })
                        .collect()
                };
                let col = match src {
                    0..=2 => {
                        let dict = &dicts[*src as usize];
                        let rows: Vec<usize> = (0..*len)
                            .map(|_| rng.range_u64(0, dict.len() as u64) as usize)
                            .collect();
                        ColumnVector::gather(&[dict], rows.into_iter().map(|r| (0, r)))
                    }
                    3 => column(
                        DataType::Int,
                        &cells(&|rng| Value::Int(rng.range_i64(-2, 3))),
                    ),
                    4 => column(
                        DataType::Float,
                        &cells(&|rng| Value::Float(*rng.choose(&[0.0, -0.0, 1.0, f64::NAN]))),
                    ),
                    _ => ColumnVector::Mixed(cells(&|rng| match rng.range_u64(0, 3) {
                        0 => Value::Int(rng.range_i64(-2, 3)),
                        1 => Value::Float(0.5),
                        _ => Value::Str(format!("s{}", 3 * rng.range_u64(0, 3))),
                    })),
                };
                (col, ids.clone())
            };
            let keyed: Vec<GenChunk> = keyed.iter().map(&mut chunk).collect();
            let probe: Vec<GenChunk> = probe.iter().map(&mut chunk).collect();
            let (keyed, probe) = (key_chunks(&keyed), key_chunks(&probe));
            let picked = join_layout(&keyed, &probe);
            if let Some(past) = threshold {
                at_threshold += 1;
                assert_eq!(
                    matches!(picked, Layout::Codes { .. }),
                    past == 0,
                    "case {case}: {picked:?}"
                );
            }
            match picked {
                Layout::Codes { .. } => codes += 1,
                Layout::Hashed => hashed += 1,
                Layout::Dense { .. } => {}
            }
            agree(
                case,
                &keyed,
                is_join.then_some(&probe[..]),
                &picked,
                &mut covered,
            );
        }
        assert!(
            codes > 600 && hashed > 300,
            "{codes} codes, {hashed} hashed"
        );
        assert!(at_threshold > 300, "{at_threshold}");
        // A code probe only ever meets strings of the build's dictionary:
        // no key of it lies outside the layout.
        let (dup, null) = (covered.duplicate_build_keys, covered.null_probe_keys);
        eprintln!("code joins: {dup} with duplicate build keys, {null} with NULL probe keys");
        assert!(dup > 100 && null > 100, "{dup} / {null}");
    }
}
