//! Columnar batches: typed column vectors, borrowed cell views, and
//! per-column summaries.
//!
//! The storage layer keeps every table as a sequence of fixed-size column
//! chunks ([`BATCH_ROWS`] rows each, except when a batch is adopted
//! wholesale), and the execution engines stream [`ColumnBatch`]es between
//! operators instead of materializing `Vec<Row>` per node. [`CellRef`] is
//! the zero-copy view of one cell, and the one place scalar SQL semantics
//! (three-valued comparison, NULL-propagating arithmetic) are defined: an
//! owned [`Value`] is evaluated through [`CellRef::of`].

use crate::row::Row;
use crate::value::{int_float_cmp, DataType, Value, TWO_63};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Rows per storage chunk. Batches produced by operators may be larger
/// (a materialized join output is a single batch), but base tables are
/// chunked at this granularity so zone maps stay selective.
pub const BATCH_ROWS: usize = 1024;

/// A borrowed view of one cell. Copyable; strings are borrowed.
///
/// [`CellRef::total_cmp`] and [`Value::total_cmp`] are a mirrored pair on
/// purpose (both sit on sort and index-build hot paths); every other
/// comparison and arithmetic method exists here only.
#[derive(Debug, Clone, Copy)]
pub enum CellRef<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Borrowed UTF-8 string.
    Str(&'a str),
}

impl<'a> CellRef<'a> {
    /// Borrowing view of a [`Value`].
    pub fn of(v: &'a Value) -> CellRef<'a> {
        match v {
            Value::Null => CellRef::Null,
            Value::Int(i) => CellRef::Int(*i),
            Value::Float(f) => CellRef::Float(*f),
            Value::Str(s) => CellRef::Str(s),
        }
    }

    /// Owned value (clones the string for `Str`).
    pub fn to_value(self) -> Value {
        match self {
            CellRef::Null => Value::Null,
            CellRef::Int(i) => Value::Int(i),
            CellRef::Float(f) => Value::Float(f),
            CellRef::Str(s) => Value::Str(s.to_owned()),
        }
    }

    /// True iff the cell is SQL NULL.
    pub fn is_null(self) -> bool {
        matches!(self, CellRef::Null)
    }

    /// Numeric view, mirroring [`Value::as_f64`].
    pub fn as_f64(self) -> Option<f64> {
        match self {
            CellRef::Int(i) => Some(i as f64),
            CellRef::Float(f) => Some(f),
            _ => None,
        }
    }

    /// String view, mirroring [`Value::as_str`].
    pub fn as_str(self) -> Option<&'a str> {
        match self {
            CellRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate byte width, mirroring [`Value::byte_width`].
    pub fn byte_width(self) -> usize {
        match self {
            CellRef::Null => 1,
            CellRef::Int(_) | CellRef::Float(_) => 8,
            CellRef::Str(s) => s.len(),
        }
    }

    /// Total order mirroring [`Value::total_cmp`]: NULLs first, numbers
    /// compared exactly across Int/Float, numbers before strings.
    pub fn total_cmp(self, other: CellRef<'_>) -> Ordering {
        use CellRef::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(&b),
            (Float(a), Float(b)) => a.total_cmp(&b),
            (Int(a), Float(b)) => int_float_cmp(a, b),
            (Float(a), Int(b)) => int_float_cmp(b, a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (Int(_) | Float(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_) | Float(_)) => Ordering::Greater,
        }
    }

    /// 64-bit hash consistent with [`CellRef::total_cmp`]: cells that
    /// compare `Equal` hash alike, so a float holding an integer hashes as
    /// that integer. The one hash definition: `Value`'s `Hash` feeds this
    /// to its hasher, and the engine's row-id table keys on it directly.
    #[inline]
    pub fn hash64(self) -> u64 {
        match self {
            CellRef::Null => 0x6e75_6c6c_6e75_6c6c,
            CellRef::Int(i) => mix(i as u64),
            CellRef::Float(f) if f.fract() == 0.0 && (-TWO_63..TWO_63).contains(&f) => {
                mix(f as i64 as u64)
            }
            CellRef::Float(f) => mix(f.to_bits() ^ 0xf10a_7f10_a7f1_0a7f),
            CellRef::Str(s) => {
                // Eight bytes a step; the length goes in first so a
                // zero-padded tail cannot collide with a longer string.
                let word = |bytes: &[u8]| {
                    bytes
                        .iter()
                        .rev()
                        .fold(0u64, |w, &b| (w << 8) | u64::from(b))
                };
                let mut words = s.as_bytes().chunks_exact(8);
                let mut h = mix(s.len() as u64 ^ 0x5712_5712_5712_5712);
                for w in &mut words {
                    h = mix(h ^ word(w));
                }
                mix(h ^ word(words.remainder()))
            }
        }
    }

    /// Total order against an owned [`Value`].
    pub fn total_cmp_value(self, other: &Value) -> Ordering {
        self.total_cmp(CellRef::of(other))
    }

    /// SQL three-valued-logic comparison: `None` when either side is NULL.
    pub fn sql_cmp(self, other: CellRef<'_>) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other))
    }

    /// SQL three-valued-logic equality: NULL = anything is unknown (`None`).
    pub fn sql_eq(self, other: CellRef<'_>) -> Option<bool> {
        self.sql_cmp(other).map(|ord| ord == Ordering::Equal)
    }

    /// Addition with SQL NULL propagation; Int overflow widens to Float.
    pub fn add(self, other: CellRef<'a>) -> CellRef<'a> {
        numeric_binop(self, other, |a, b| a + b, |a, b| a.checked_add(b))
    }

    /// Subtraction with SQL NULL propagation; Int overflow widens to Float.
    pub fn sub(self, other: CellRef<'a>) -> CellRef<'a> {
        numeric_binop(self, other, |a, b| a - b, |a, b| a.checked_sub(b))
    }

    /// Multiplication with SQL NULL propagation; Int overflow widens to
    /// Float.
    pub fn mul(self, other: CellRef<'a>) -> CellRef<'a> {
        numeric_binop(self, other, |a, b| a * b, |a, b| a.checked_mul(b))
    }

    /// Division: anything over (float or int) zero is NULL (the permissive
    /// behaviour the workload generators expect), Int/Int truncates —
    /// widening to Float on the one overflow, `i64::MIN / -1` — and mixed
    /// operands divide as floats.
    pub fn div(self, other: CellRef<'a>) -> CellRef<'a> {
        match (self.as_f64(), other.as_f64()) {
            (Some(_), Some(b)) if b == 0.0 => CellRef::Null,
            (Some(a), Some(b)) => match (self, other) {
                (CellRef::Int(x), CellRef::Int(y)) => {
                    x.checked_div(y).map_or(CellRef::Float(a / b), CellRef::Int)
                }
                _ => CellRef::Float(a / b),
            },
            _ => CellRef::Null,
        }
    }
}

/// One multiply-xorshift round: cheap enough for a per-row key loop, and
/// it spreads dense integer keys over the low bits a table masks with.
#[inline]
fn mix(x: u64) -> u64 {
    let h = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 32)
}

fn numeric_binop<'a>(
    a: CellRef<'a>,
    b: CellRef<'a>,
    f_float: impl Fn(f64, f64) -> f64,
    f_int: impl Fn(i64, i64) -> Option<i64>,
) -> CellRef<'a> {
    match (a, b) {
        (CellRef::Int(x), CellRef::Int(y)) => match f_int(x, y) {
            Some(v) => CellRef::Int(v),
            None => CellRef::Float(f_float(x as f64, y as f64)),
        },
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => CellRef::Float(f_float(x, y)),
            _ => CellRef::Null,
        },
    }
}

/// One column of values, stored as a typed vector where possible.
///
/// Typed vectors carry a parallel null mask. A column falls back to the
/// [`ColumnVector::Mixed`] representation when it receives values of more
/// than one type (e.g. exact `Int` values stored in a FLOAT-typed column,
/// which the row model preserves as `Value::Int`), so the round trip
/// through columnar storage never changes a value's type.
#[derive(Debug, Clone)]
pub enum ColumnVector {
    /// Integer vector with null mask.
    Int {
        /// Cell payloads (unspecified where null).
        data: Vec<i64>,
        /// Null mask, parallel to `data`.
        nulls: Vec<bool>,
    },
    /// Float vector with null mask.
    Float {
        /// Cell payloads (unspecified where null).
        data: Vec<f64>,
        /// Null mask, parallel to `data`.
        nulls: Vec<bool>,
    },
    /// String vector with null mask: each cell is a code into a dictionary
    /// of strings. Only this module names the fields; everything else reads
    /// cells, and the row-id table the codes through
    /// [`ColumnVector::str_codes`].
    Str {
        /// Each cell's entry in `dict` (unspecified where null).
        codes: Vec<u32>,
        /// Null mask, parallel to `codes`.
        nulls: Vec<bool>,
        /// The strings the codes index. Shared: a gather from columns of
        /// one dictionary copies codes and clones this pointer once, so an
        /// operator that copies rows (a join's output, a sort) copies a
        /// string cell as four bytes. Entries may repeat.
        dict: Arc<[Arc<str>]>,
        /// Entries of `dict` in use. The rest is room a push fills in
        /// place while no other column holds `dict`.
        dict_len: u32,
    },
    /// Fallback: heterogeneous values stored as-is.
    Mixed(Vec<Value>),
}

/// Append `s` to a `Str` vector's dictionary and return its code. A
/// dictionary the vector alone holds takes it in place, in room left by the
/// last copy; a full or shared one is copied into one twice as long (the
/// room holding `s`), so a vector filled cell by cell pays an amortized
/// O(1) per entry.
fn append_entry(dict: &mut Arc<[Arc<str>]>, dict_len: &mut u32, s: Arc<str>) -> u32 {
    let code = *dict_len;
    let n = code as usize;
    match Arc::get_mut(dict) {
        Some(entries) if n < entries.len() => entries[n] = s,
        _ => {
            let room = n.max(4);
            *dict = dict[..n]
                .iter()
                .cloned()
                .chain(std::iter::repeat_n(s, room))
                .collect();
        }
    }
    *dict_len += 1;
    code
}

/// A `Str` vector's codes, null mask and dictionary: cell `i` is
/// `dict[codes[i]]` unless `nulls[i]` ([`ColumnVector::str_codes`]).
pub type StrCodes<'a> = (&'a [u32], &'a [bool], &'a [Arc<str>]);

/// [`ColumnVector::gather`] over `Str` vectors of more than one
/// dictionary: one new entry per picked non-NULL cell, sharing the
/// source's string. Nothing is read of a dictionary beyond the picked
/// entries.
fn gather_strings(
    srcs: &[StrCodes<'_>],
    picks: impl ExactSizeIterator<Item = (usize, usize)>,
) -> ColumnVector {
    let mut codes = Vec::with_capacity(picks.len());
    let mut nulls = Vec::with_capacity(picks.len());
    let mut entries = Vec::with_capacity(picks.len());
    for (s, r) in picks {
        let (src_codes, src_nulls, src_dict) = srcs[s];
        if src_nulls[r] {
            codes.push(0);
        } else {
            codes.push(entries.len() as u32);
            entries.push(Arc::clone(&src_dict[src_codes[r] as usize]));
        }
        nulls.push(src_nulls[r]);
    }
    ColumnVector::Str {
        codes,
        nulls,
        dict_len: entries.len() as u32,
        dict: entries.into(),
    }
}

impl ColumnVector {
    /// Empty vector for a declared type (`None` → [`ColumnVector::Mixed`]).
    pub fn new_for(ty: Option<DataType>) -> ColumnVector {
        match ty {
            Some(DataType::Int) => ColumnVector::Int {
                data: Vec::new(),
                nulls: Vec::new(),
            },
            Some(DataType::Float) => ColumnVector::Float {
                data: Vec::new(),
                nulls: Vec::new(),
            },
            Some(DataType::Str) => ColumnVector::Str {
                codes: Vec::new(),
                nulls: Vec::new(),
                dict: Arc::default(),
                dict_len: 0,
            },
            None => ColumnVector::Mixed(Vec::new()),
        }
    }

    /// Empty vector of the same representation as `self`.
    pub fn empty_like(&self) -> ColumnVector {
        match self {
            ColumnVector::Int { .. } => ColumnVector::new_for(Some(DataType::Int)),
            ColumnVector::Float { .. } => ColumnVector::new_for(Some(DataType::Float)),
            ColumnVector::Str { .. } => ColumnVector::new_for(Some(DataType::Str)),
            ColumnVector::Mixed(_) => ColumnVector::Mixed(Vec::new()),
        }
    }

    /// Reserve room for `additional` more cells.
    pub fn reserve(&mut self, additional: usize) {
        match self {
            ColumnVector::Int { data, nulls } => {
                data.reserve(additional);
                nulls.reserve(additional);
            }
            ColumnVector::Float { data, nulls } => {
                data.reserve(additional);
                nulls.reserve(additional);
            }
            ColumnVector::Str { codes, nulls, .. } => {
                codes.reserve(additional);
                nulls.reserve(additional);
            }
            ColumnVector::Mixed(vals) => vals.reserve(additional),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            ColumnVector::Int { data, .. } => data.len(),
            ColumnVector::Float { data, .. } => data.len(),
            ColumnVector::Str { codes, .. } => codes.len(),
            ColumnVector::Mixed(v) => v.len(),
        }
    }

    /// True if the vector has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrowed view of cell `i`.
    pub fn cell(&self, i: usize) -> CellRef<'_> {
        match self {
            ColumnVector::Int { data, nulls } => {
                if nulls[i] {
                    CellRef::Null
                } else {
                    CellRef::Int(data[i])
                }
            }
            ColumnVector::Float { data, nulls } => {
                if nulls[i] {
                    CellRef::Null
                } else {
                    CellRef::Float(data[i])
                }
            }
            ColumnVector::Str {
                codes, nulls, dict, ..
            } => {
                if nulls[i] {
                    CellRef::Null
                } else {
                    CellRef::Str(&dict[codes[i] as usize])
                }
            }
            ColumnVector::Mixed(v) => CellRef::of(&v[i]),
        }
    }

    /// Call `f` on the cells at `rows`, in order. The representation is
    /// matched once, outside the loop, so over a typed vector `f` runs in
    /// a loop over the payload and null-mask slices with the cell's
    /// variant known.
    #[inline]
    pub fn for_each_cell<'a>(
        &'a self,
        rows: impl Iterator<Item = usize>,
        mut f: impl FnMut(CellRef<'a>),
    ) {
        match self {
            ColumnVector::Int { data, nulls } => {
                for r in rows {
                    f(if nulls[r] {
                        CellRef::Null
                    } else {
                        CellRef::Int(data[r])
                    });
                }
            }
            ColumnVector::Float { data, nulls } => {
                for r in rows {
                    f(if nulls[r] {
                        CellRef::Null
                    } else {
                        CellRef::Float(data[r])
                    });
                }
            }
            ColumnVector::Str {
                codes, nulls, dict, ..
            } => {
                for r in rows {
                    f(if nulls[r] {
                        CellRef::Null
                    } else {
                        CellRef::Str(&dict[codes[r] as usize])
                    });
                }
            }
            ColumnVector::Mixed(vals) => {
                for r in rows {
                    f(CellRef::of(&vals[r]));
                }
            }
        }
    }

    /// Owned clone of cell `i`.
    pub fn value(&self, i: usize) -> Value {
        self.cell(i).to_value()
    }

    /// Append an owned value, demoting to [`ColumnVector::Mixed`] when the
    /// value does not fit the current representation.
    pub fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (ColumnVector::Int { data, nulls }, Value::Int(i)) => {
                data.push(i);
                nulls.push(false);
            }
            (ColumnVector::Int { data, nulls }, Value::Null) => {
                data.push(0);
                nulls.push(true);
            }
            (ColumnVector::Float { data, nulls }, Value::Float(f)) => {
                data.push(f);
                nulls.push(false);
            }
            (ColumnVector::Float { data, nulls }, Value::Null) => {
                data.push(0.0);
                nulls.push(true);
            }
            (
                ColumnVector::Str {
                    codes,
                    nulls,
                    dict,
                    dict_len,
                },
                Value::Str(s),
            ) => {
                codes.push(append_entry(dict, dict_len, s.into()));
                nulls.push(false);
            }
            (ColumnVector::Str { codes, nulls, .. }, Value::Null) => {
                codes.push(0);
                nulls.push(true);
            }
            (ColumnVector::Mixed(vals), v) => vals.push(v),
            (_, v) => {
                self.demote_to_mixed();
                if let ColumnVector::Mixed(vals) = self {
                    vals.push(v);
                }
            }
        }
    }

    /// Append a borrowed cell (clones the string for `Str`).
    pub fn push_cell(&mut self, c: CellRef<'_>) {
        match (&mut *self, c) {
            (ColumnVector::Int { data, nulls }, CellRef::Int(i)) => {
                data.push(i);
                nulls.push(false);
            }
            (ColumnVector::Int { data, nulls }, CellRef::Null) => {
                data.push(0);
                nulls.push(true);
            }
            (ColumnVector::Float { data, nulls }, CellRef::Float(f)) => {
                data.push(f);
                nulls.push(false);
            }
            (ColumnVector::Float { data, nulls }, CellRef::Null) => {
                data.push(0.0);
                nulls.push(true);
            }
            (
                ColumnVector::Str {
                    codes,
                    nulls,
                    dict,
                    dict_len,
                },
                CellRef::Str(s),
            ) => {
                codes.push(append_entry(dict, dict_len, s.into()));
                nulls.push(false);
            }
            (ColumnVector::Str { codes, nulls, .. }, CellRef::Null) => {
                codes.push(0);
                nulls.push(true);
            }
            (ColumnVector::Mixed(vals), c) => vals.push(c.to_value()),
            (_, c) => {
                self.demote_to_mixed();
                if let ColumnVector::Mixed(vals) = self {
                    vals.push(c.to_value());
                }
            }
        }
    }

    /// Append cell `r` of `src`, as [`ColumnVector::push_cell`] does —
    /// except that a string cell of one `Str` vector pushed onto another
    /// shares `src`'s string instead of allocating a copy.
    pub fn push_from(&mut self, src: &ColumnVector, r: usize) {
        match (&mut *self, src.str_codes()) {
            (
                ColumnVector::Str {
                    codes,
                    nulls,
                    dict,
                    dict_len,
                },
                Some((src_codes, src_nulls, src_dict)),
            ) => {
                let code = if src_nulls[r] {
                    0
                } else {
                    let s = Arc::clone(&src_dict[src_codes[r] as usize]);
                    append_entry(dict, dict_len, s)
                };
                codes.push(code);
                nulls.push(src_nulls[r]);
            }
            _ => self.push_cell(src.cell(r)),
        }
    }

    /// Append `s` to a `Str` vector as the entry `interned` maps it to, or
    /// as a new entry that `interned` then maps it to: a vector filled
    /// through one map (and nothing else) stores each distinct string once.
    /// Any other vector takes `s` as [`ColumnVector::push`] does.
    pub fn push_interned(&mut self, s: String, interned: &mut HashMap<Arc<str>, u32>) {
        let ColumnVector::Str {
            codes,
            nulls,
            dict,
            dict_len,
        } = self
        else {
            return self.push(Value::Str(s));
        };
        let code = match interned.get(s.as_str()) {
            Some(&code) => code,
            None => {
                let s: Arc<str> = s.into();
                let code = append_entry(dict, dict_len, Arc::clone(&s));
                interned.insert(s, code);
                code
            }
        };
        codes.push(code);
        nulls.push(false);
    }

    /// A `Str` vector's codes, null mask and dictionary; `None` for any
    /// other vector. Vectors whose dictionaries are the same slice
    /// (`std::ptr::eq`) index one dictionary.
    pub fn str_codes(&self) -> Option<StrCodes<'_>> {
        match self {
            ColumnVector::Str {
                codes,
                nulls,
                dict,
                dict_len,
            } => Some((codes, nulls, &dict[..*dict_len as usize])),
            _ => None,
        }
    }

    /// The cells `(source, row)` of `srcs` in pick order, as one fresh
    /// vector — the copy every operator that reorders or combines rows
    /// goes through. Sources of one typed representation are copied by a
    /// typed loop: strings of one dictionary as codes, the dictionary
    /// shared; strings of several as one new entry per picked cell. A mix
    /// of representations is appended cell by cell, demoting as
    /// [`ColumnVector::push_cell`] does.
    pub fn gather(
        srcs: &[&ColumnVector],
        picks: impl ExactSizeIterator<Item = (usize, usize)>,
    ) -> ColumnVector {
        fn copy<T: Copy>(
            srcs: &[(&[T], &[bool])],
            picks: impl ExactSizeIterator<Item = (usize, usize)>,
        ) -> (Vec<T>, Vec<bool>) {
            let mut data = Vec::with_capacity(picks.len());
            let mut nulls = Vec::with_capacity(picks.len());
            for (s, r) in picks {
                let (d, n) = srcs[s];
                data.push(d[r]);
                nulls.push(n[r]);
            }
            (data, nulls)
        }
        // The typed copy, if every source is a `$variant` vector.
        macro_rules! typed {
            ($variant:ident) => {
                let slices: Option<Vec<_>> = srcs
                    .iter()
                    .map(|c| match c {
                        ColumnVector::$variant { data, nulls } => Some((&data[..], &nulls[..])),
                        _ => None,
                    })
                    .collect();
                if let Some(slices) = slices {
                    let (data, nulls) = copy(&slices, picks);
                    return ColumnVector::$variant { data, nulls };
                }
            };
        }
        let Some(first) = srcs.first() else {
            return ColumnVector::Mixed(Vec::new());
        };
        match first {
            ColumnVector::Int { .. } => {
                typed!(Int);
            }
            ColumnVector::Float { .. } => {
                typed!(Float);
            }
            ColumnVector::Str { dict, dict_len, .. } => {
                let parts: Option<Vec<_>> = srcs.iter().map(|c| c.str_codes()).collect();
                if let Some(parts) = parts {
                    if parts.iter().all(|&(_, _, d)| std::ptr::eq(d, parts[0].2)) {
                        let slices: Vec<_> = parts.iter().map(|&(c, n, _)| (c, n)).collect();
                        let (codes, nulls) = copy(&slices, picks);
                        return ColumnVector::Str {
                            codes,
                            nulls,
                            dict: Arc::clone(dict),
                            dict_len: *dict_len,
                        };
                    }
                    return gather_strings(&parts, picks);
                }
            }
            ColumnVector::Mixed(_) => {}
        }
        let mut out = first.empty_like();
        for (s, r) in picks {
            out.push_from(srcs[s], r);
        }
        out
    }

    fn demote_to_mixed(&mut self) {
        if matches!(self, ColumnVector::Mixed(_)) {
            return;
        }
        let vals: Vec<Value> = (0..self.len()).map(|i| self.value(i)).collect();
        *self = ColumnVector::Mixed(vals);
    }

    /// Total byte width of all cells (matches summing [`Value::byte_width`]
    /// over the materialized rows).
    pub fn byte_size(&self) -> u64 {
        match self {
            ColumnVector::Int { nulls, .. } | ColumnVector::Float { nulls, .. } => {
                let n = nulls.iter().filter(|b| **b).count() as u64;
                8 * (nulls.len() as u64 - n) + n
            }
            ColumnVector::Str {
                codes, nulls, dict, ..
            } => codes
                .iter()
                .zip(nulls)
                .map(|(&c, &null)| {
                    if null {
                        1
                    } else {
                        dict[c as usize].len() as u64
                    }
                })
                .sum(),
            ColumnVector::Mixed(vals) => vals.iter().map(|v| v.byte_width() as u64).sum(),
        }
    }

    /// One-pass summary (min / max / null count) over all cells.
    pub fn summarize(&self) -> ColumnSummary {
        let mut s = ColumnSummary::default();
        for i in 0..self.len() {
            s.observe_cell(self.cell(i));
        }
        s
    }
}

/// Per-chunk zone map: min / max (by the total value order) and null count.
#[derive(Debug, Clone, Default)]
pub struct ColumnSummary {
    /// Smallest non-null value, `None` when all cells are null (or empty).
    pub min: Option<Value>,
    /// Largest non-null value.
    pub max: Option<Value>,
    /// Number of NULL cells.
    pub null_count: u64,
}

impl ColumnSummary {
    /// Fold one owned value into the summary.
    pub fn observe(&mut self, v: &Value) {
        self.observe_cell(CellRef::of(v));
    }

    /// Fold one borrowed cell into the summary.
    pub fn observe_cell(&mut self, c: CellRef<'_>) {
        if c.is_null() {
            self.null_count += 1;
            return;
        }
        match &self.min {
            None => self.min = Some(c.to_value()),
            Some(m) if c.total_cmp_value(m) == Ordering::Less => self.min = Some(c.to_value()),
            _ => {}
        }
        match &self.max {
            None => self.max = Some(c.to_value()),
            Some(m) if c.total_cmp_value(m) == Ordering::Greater => self.max = Some(c.to_value()),
            _ => {}
        }
    }

    /// Merge another summary into this one.
    pub fn merge(&mut self, other: &ColumnSummary) {
        self.null_count += other.null_count;
        if let Some(m) = &other.min {
            self.observe(m);
        }
        if let Some(m) = &other.max {
            self.observe(m);
        }
    }
}

/// A batch of rows in columnar form. Columns are `Arc`-shared so scans,
/// fragment results, and the coordinator merge can pass table data around
/// without copying it.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    columns: Vec<Arc<ColumnVector>>,
    rows: usize,
}

impl ColumnBatch {
    /// Batch from shared columns. `rows` is carried explicitly so that
    /// zero-column batches (degenerate but legal) keep their row count.
    pub fn new(columns: Vec<Arc<ColumnVector>>, rows: usize) -> ColumnBatch {
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        ColumnBatch { columns, rows }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// The shared columns.
    pub fn columns(&self) -> &[Arc<ColumnVector>] {
        &self.columns
    }

    /// Materialize the batch as rows (the `Row` compatibility view).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.rows)
            .map(|r| Row::new(self.columns.iter().map(|c| c.value(r)).collect()))
            .collect()
    }

    /// Total byte width of all cells.
    pub fn byte_size(&self) -> u64 {
        let cells: u64 = self.columns.iter().map(|c| c.byte_size()).sum();
        if self.columns.is_empty() {
            0
        } else {
            cells
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kind of cell, and the places where `Int` meets `Float`: the
    /// 2^53 neighbourhood (where `i64 as f64` starts rounding), the ends
    /// of `i64`, both zeros, the infinities and both NaNs.
    fn cross_type_corpus() -> Vec<Value> {
        const P53: i64 = 1 << 53;
        let mut cases = vec![
            Value::Null,
            Value::Str("a".into()),
            Value::Str("b".into()),
            Value::Str("a longer string than eight bytes".into()),
            Value::Str("a longer string than eight bytex".into()),
        ];
        for i in [
            -3,
            0,
            3,
            P53 - 1,
            P53,
            P53 + 1,
            P53 + 2,
            -P53,
            -P53 - 1,
            i64::MAX - 1,
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
        ] {
            cases.push(Value::Int(i));
        }
        for f in [
            -3.0,
            -0.0,
            0.0,
            0.5,
            3.0,
            P53 as f64 - 1.0,
            P53 as f64,
            P53 as f64 + 2.0,
            -(P53 as f64),
            -(P53 as f64) - 2.0,
            9_223_372_036_854_775_808.0,  // 2^63 = i64::MAX + 1
            9_223_372_036_854_774_784.0,  // the largest float below it
            -9_223_372_036_854_775_808.0, // i64::MIN
            -9_223_372_036_854_777_856.0, // the next float below it
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ] {
            cases.push(Value::Float(f));
        }
        cases
    }

    /// The one mirrored pair that remains.
    #[test]
    fn cellref_mirrors_value_total_cmp() {
        let cases = cross_type_corpus();
        for a in &cases {
            for b in &cases {
                assert_eq!(
                    CellRef::of(a).total_cmp(CellRef::of(b)),
                    a.total_cmp(b),
                    "total_cmp({a}, {b})"
                );
            }
        }
    }

    /// `Int` against `Float` is compared exactly: the order is a total
    /// order (it was not transitive while `2^53 + 1` rounded to `2^53`),
    /// and NaN and the zeros sit where `f64::total_cmp` puts them.
    #[test]
    fn total_cmp_is_a_total_order_across_int_and_float() {
        const P53: i64 = 1 << 53;
        let cmp = |a: Value, b: Value| a.total_cmp(&b);
        assert_eq!(
            cmp(Value::Int(P53 + 1), Value::Float(P53 as f64)),
            Ordering::Greater
        );
        assert_eq!(
            cmp(Value::Float(P53 as f64), Value::Int(P53 + 1)),
            Ordering::Less
        );
        assert_eq!(
            cmp(Value::Int(P53), Value::Float(P53 as f64)),
            Ordering::Equal
        );
        assert_eq!(
            cmp(Value::Int(i64::MAX), Value::Float(i64::MAX as f64)),
            Ordering::Less,
            "i64::MAX as f64 is 2^63"
        );
        assert_eq!(
            cmp(Value::Int(i64::MIN), Value::Float(i64::MIN as f64)),
            Ordering::Equal
        );
        assert_eq!(cmp(Value::Int(0), Value::Float(0.0)), Ordering::Equal);
        assert_eq!(cmp(Value::Int(0), Value::Float(-0.0)), Ordering::Greater);
        assert_eq!(
            cmp(Value::Int(i64::MAX), Value::Float(f64::NAN)),
            Ordering::Less
        );
        assert_eq!(
            cmp(Value::Int(i64::MIN), Value::Float(-f64::NAN)),
            Ordering::Greater
        );
        let cases = cross_type_corpus();
        for a in &cases {
            for b in &cases {
                assert_eq!(a.total_cmp(b), b.total_cmp(a).reverse(), "{a} vs {b}");
                for c in &cases {
                    if a.total_cmp(b) != Ordering::Greater && b.total_cmp(c) != Ordering::Greater {
                        assert_ne!(a.total_cmp(c), Ordering::Greater, "{a} <= {b} <= {c}");
                    }
                }
            }
        }
    }

    /// The `Hash`/`Eq` contract hash joins rest on, for `Value` under a
    /// std hasher and for the cell hash the engine's table uses.
    #[test]
    fn equal_cells_hash_alike() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let std_hash = BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default();
        let cases = cross_type_corpus();
        let mut equal_across_types = 0;
        for a in &cases {
            for b in &cases {
                if a.total_cmp(b) != Ordering::Equal {
                    continue;
                }
                assert_eq!(
                    CellRef::of(a).hash64(),
                    CellRef::of(b).hash64(),
                    "hash64({a}) vs hash64({b})"
                );
                assert_eq!(std_hash.hash_one(a), std_hash.hash_one(b), "{a} vs {b}");
                equal_across_types += usize::from(a.data_type() != b.data_type());
            }
        }
        assert!(equal_across_types >= 10, "{equal_across_types}");
        // Not a constant function: the corpus's unequal strings and the
        // 2^53 neighbours hash apart.
        let h = |v: &Value| CellRef::of(v).hash64();
        assert_ne!(
            h(&Value::Int((1 << 53) + 1)),
            h(&Value::Float((1u64 << 53) as f64))
        );
        assert_ne!(h(&cases[3]), h(&cases[4]));
    }

    fn int(i: i64) -> CellRef<'static> {
        CellRef::Int(i)
    }

    #[test]
    fn sql_eq_is_three_valued() {
        assert_eq!(CellRef::Null.sql_eq(int(1)), None);
        assert_eq!(int(1).sql_eq(CellRef::Null), None);
        assert_eq!(int(1).sql_eq(int(1)), Some(true));
        assert_eq!(int(1).sql_eq(int(2)), Some(false));
        assert_eq!(int(1).sql_cmp(CellRef::Null), None);
        assert_eq!(int(1).sql_cmp(CellRef::Float(1.5)), Some(Ordering::Less));
    }

    #[test]
    fn arithmetic_null_propagation() {
        assert!(CellRef::Null.add(int(1)).is_null());
        assert!(int(1).mul(CellRef::Null).is_null());
        assert!(int(1).sub(CellRef::Str("x")).is_null());
        assert_eq!(int(2).add(int(3)).to_value(), Value::Int(5));
        assert_eq!(
            int(2).mul(CellRef::Float(1.5)).to_value(),
            Value::Float(3.0)
        );
    }

    #[test]
    fn integer_overflow_widens_to_float() {
        // `Value` equality is numeric across Int and Float; match the
        // variant so a saturated `Int(i64::MAX)` cannot pass.
        for c in [
            int(i64::MAX).add(int(1)),
            int(i64::MAX).sub(int(-1)),
            int(i64::MIN).mul(int(-1)),
            int(i64::MIN).div(int(-1)),
        ] {
            assert!(
                matches!(c, CellRef::Float(f) if f == 9.223372036854775808e18),
                "{c:?}"
            );
        }
    }

    #[test]
    fn division_by_zero_is_null() {
        assert!(int(1).div(int(0)).is_null());
        assert!(int(i64::MIN).div(int(0)).is_null());
        assert!(CellRef::Float(1.0).div(CellRef::Float(0.0)).is_null());
    }

    #[test]
    fn integer_division_truncates() {
        assert_eq!(int(7).div(int(2)).to_value(), Value::Int(3));
        assert_eq!(int(-7).div(int(2)).to_value(), Value::Int(-3));
        assert_eq!(
            int(7).div(CellRef::Float(2.0)).to_value(),
            Value::Float(3.5)
        );
    }

    #[test]
    fn typed_vector_roundtrip_with_nulls() {
        let mut v = ColumnVector::new_for(Some(DataType::Int));
        v.push(Value::Int(1));
        v.push(Value::Null);
        v.push(Value::Int(3));
        assert_eq!(v.len(), 3);
        assert_eq!(v.value(0), Value::Int(1));
        assert_eq!(v.value(1), Value::Null);
        assert_eq!(v.value(2), Value::Int(3));
        assert_eq!(v.byte_size(), 8 + 1 + 8);
    }

    #[test]
    fn float_column_demotes_to_preserve_int_values() {
        // The row model stores exact Int values in FLOAT columns; the
        // columnar form must round-trip them unchanged.
        let mut v = ColumnVector::new_for(Some(DataType::Float));
        v.push(Value::Float(0.5));
        v.push(Value::Int(3));
        assert!(matches!(v, ColumnVector::Mixed(_)));
        assert_eq!(v.value(0), Value::Float(0.5));
        assert_eq!(v.value(1), Value::Int(3));
    }

    #[test]
    fn summary_tracks_min_max_nulls() {
        let mut v = ColumnVector::new_for(Some(DataType::Int));
        for x in [5i64, -2, 9, 9] {
            v.push(Value::Int(x));
        }
        v.push(Value::Null);
        let s = v.summarize();
        assert_eq!(s.min, Some(Value::Int(-2)));
        assert_eq!(s.max, Some(Value::Int(9)));
        assert_eq!(s.null_count, 1);
    }

    #[test]
    fn summary_merge() {
        let mut a = ColumnSummary::default();
        a.observe(&Value::Int(4));
        let mut b = ColumnSummary::default();
        b.observe(&Value::Int(10));
        b.observe(&Value::Null);
        a.merge(&b);
        assert_eq!(a.min, Some(Value::Int(4)));
        assert_eq!(a.max, Some(Value::Int(10)));
        assert_eq!(a.null_count, 1);
    }

    #[test]
    fn batch_roundtrips_to_rows() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::from("a")]),
            Row::new(vec![Value::Null, Value::from("b")]),
        ];
        let mut cols = vec![
            ColumnVector::new_for(Some(DataType::Int)),
            ColumnVector::new_for(Some(DataType::Str)),
        ];
        for row in &rows {
            for (col, v) in cols.iter_mut().zip(row.values()) {
                col.push(v.clone());
            }
        }
        let batch = ColumnBatch::new(cols.into_iter().map(Arc::new).collect(), rows.len());
        assert_eq!(batch.n_rows(), 2);
        assert_eq!(batch.to_rows(), rows);
        assert_eq!(
            batch.byte_size(),
            rows.iter().map(|r| r.byte_width() as u64).sum::<u64>()
        );
        // Gathered back from each column (one dictionary) and from it and a
        // copy refilled cell by cell (two), the rows are unchanged.
        let refilled = |c: &ColumnVector| {
            let mut out = c.empty_like();
            (0..c.len()).for_each(|i| out.push_cell(c.cell(i)));
            out
        };
        for other in [false, true] {
            let cols = batch.columns().iter().map(|c| {
                let copy = refilled(c);
                let srcs = if other { [&**c, &copy] } else { [&**c, &**c] };
                Arc::new(ColumnVector::gather(&srcs, [(1, 0), (0, 1)].into_iter()))
            });
            assert_eq!(ColumnBatch::new(cols.collect(), 2).to_rows(), rows);
        }
    }

    fn strings(cells: &[Option<&str>]) -> ColumnVector {
        let mut v = ColumnVector::new_for(Some(DataType::Str));
        for s in cells {
            v.push(s.map_or(Value::Null, Value::from));
        }
        v
    }

    fn values(c: &ColumnVector) -> Vec<Value> {
        (0..c.len()).map(|i| c.value(i)).collect()
    }

    #[test]
    fn single_dictionary_gather_shares_the_dictionary() {
        let src = strings(&[Some("a"), None, Some("bb"), Some("a")]);
        // A clone holds the same dictionary.
        let out = ColumnVector::gather(
            &[&src, &src.clone()],
            [(1, 3), (0, 1), (0, 2), (1, 0)].into_iter(),
        );
        let (ColumnVector::Str { dict: a, .. }, ColumnVector::Str { dict: b, .. }) = (&src, &out)
        else {
            panic!("{out:?}");
        };
        assert!(Arc::ptr_eq(a, b));
        assert_eq!(
            values(&out),
            [
                Value::from("a"),
                Value::Null,
                Value::from("bb"),
                Value::from("a")
            ]
        );
    }

    #[test]
    fn cross_dictionary_gather_keeps_every_value() {
        let a = strings(&[Some("a"), None, Some("bb")]);
        let b = strings(&[Some("bb"), Some("c"), Some("unpicked")]);
        let picks = [(0, 2), (1, 1), (0, 1), (1, 0), (0, 0), (1, 1)];
        let out = ColumnVector::gather(&[&a, &b], picks.into_iter());
        let want: Vec<Value> = picks.iter().map(|&(s, r)| [&a, &b][s].value(r)).collect();
        assert_eq!(values(&out), want);
        // One entry per picked string, nothing else of either dictionary.
        assert_eq!(out.str_codes().map(|(_, _, dict)| dict.len()), Some(5));
    }

    #[test]
    fn string_pushes_and_mixed_demotion_keep_values() {
        let src = strings(&[Some("x"), None, Some("a longer string than eight bytes")]);
        let mut v = ColumnVector::new_for(Some(DataType::Str));
        (0..src.len()).for_each(|i| v.push_cell(src.cell(i)));
        (0..src.len()).for_each(|i| v.push_from(&src, i));
        let mut interned = HashMap::new();
        for s in ["y", "x", "y"] {
            v.push_interned(s.to_string(), &mut interned);
        }
        assert_eq!(interned.len(), 2, "each distinct string is interned once");
        let mut want = values(&src);
        want.extend(values(&src));
        want.extend(["y", "x", "y"].map(Value::from));
        assert_eq!(values(&v), want);
        v.push(Value::Int(7));
        assert!(matches!(v, ColumnVector::Mixed(_)));
        want.push(Value::Int(7));
        assert_eq!(format!("{:?}", values(&v)), format!("{want:?}"));
    }

    #[test]
    fn string_byte_size_is_the_sum_of_lengths_and_one_per_null() {
        let v = strings(&[Some("abc"), None, Some(""), Some("abc"), None]);
        assert_eq!(v.byte_size(), 3 + 1 + 0 + 3 + 1);
        let picked = ColumnVector::gather(&[&v], [(0, 3), (0, 4)].into_iter());
        assert_eq!(picked.byte_size(), 3 + 1);
    }

    /// A dictionary filled cell by cell is copied at doublings only, and
    /// never while another column holds it.
    #[test]
    fn dictionary_grows_in_place_until_shared() {
        let mut v = ColumnVector::new_for(Some(DataType::Str));
        let (mut copies, mut at) = (0, std::ptr::null());
        for i in 0..1000 {
            v.push(Value::Str(i.to_string()));
            let (_, _, dict) = v.str_codes().unwrap();
            if dict.as_ptr() != at {
                copies += 1;
                at = dict.as_ptr();
            }
        }
        assert_eq!(copies, 9, "4, 8, ..., 1024 entries");
        let shared = v.clone();
        v.push(Value::from("new"));
        let want: Vec<Value> = (0..1000).map(|i| Value::Str(i.to_string())).collect();
        assert_eq!(values(&shared), want);
        assert_eq!(v.value(1000), Value::from("new"));
    }

    #[test]
    fn empty_batch_keeps_arity_and_rows() {
        let cols = (0..3).map(|_| Arc::new(ColumnVector::new_for(None)));
        let batch = ColumnBatch::new(cols.collect(), 0);
        assert_eq!(batch.n_rows(), 0);
        assert_eq!(batch.n_cols(), 3);
        assert!(batch.to_rows().is_empty());
    }
}
