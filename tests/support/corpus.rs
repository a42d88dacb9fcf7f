//! The random catalogs and statements of the executor equivalence suites:
//! `tests/engine_vs_naive_prop.rs` (batch engine vs row reference vs
//! oracle) and the batch engine's own pruning-equivalence unit test, which
//! `#[path]`-includes this file.
//!
//! Five generations, each drawn after the one before so the old cases
//! stay the old cases. The first — small NULL-free `Int`-keyed tables, one
//! equi-join key, `ORDER BY` on every grouped statement — is what the
//! suites always drew. The second reaches what a hash table must get
//! right: NULLs in every column (join and group keys included), a `FLOAT`
//! key joined to an `INT` one, string keys, two keys, a residual, duplicate
//! build keys, first-seen group order, and tables of several chunks. Its
//! `Int` keys span a small range, so the row-id table lays them out
//! densely; the third spreads them far apart, which takes its hashed
//! layout for a single `Int` key. The fourth is about strings: string join
//! and group keys, `DISTINCT` and `ORDER BY` over them, NULL strings, and
//! string columns of one chunk (one dictionary: the row-id table's code
//! layout) and of several (a dictionary per chunk, so hashed — or, once a
//! join has gathered them into one, codes whose entries repeat). The fifth
//! is a hash join straight under a hash aggregate, the shape of all four
//! paper query types: group keys from the build side, the probe side and
//! both, arguments from either side and from both, a global aggregate over
//! a chain of two joins, `DISTINCT`, a residual, and NULL join and group
//! keys.

#![allow(dead_code)]

use qcc_common::{Column, DataType, Pcg32, Row, Schema, Value, BATCH_ROWS};
use qcc_storage::{Catalog, Table};

/// Random small tables `ta(a, b, s)` and `tb(a, c)`.
pub fn random_catalog(rng: &mut Pcg32) -> Catalog {
    let mut ta = Table::new(
        "ta",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
            Column::new("s", DataType::Str),
        ]),
    );
    let n_a = rng.range_u64(0, 40);
    for _ in 0..n_a {
        ta.insert(Row::new(vec![
            Value::Int(rng.range_i64(0, 20)),
            Value::Int(rng.range_i64(-5, 5)),
            Value::Str((*rng.choose(b"abc") as char).to_string()),
        ]))
        .unwrap();
    }
    let mut tb = Table::new(
        "tb",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("c", DataType::Int),
        ]),
    );
    let n_b = rng.range_u64(0, 40);
    for _ in 0..n_b {
        tb.insert(Row::new(vec![
            Value::Int(rng.range_i64(0, 20)),
            Value::Int(rng.range_i64(-5, 5)),
        ]))
        .unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.register(ta);
    catalog.register(tb);
    catalog.create_index("ta", "a").unwrap();
    catalog
}

fn random_predicate(rng: &mut Pcg32) -> String {
    match rng.range_u64(0, 7) {
        0 => format!("ta.a > {}", rng.range_i64(0, 20)),
        1 => format!("ta.a = {}", rng.range_i64(0, 20)),
        2 => format!("ta.b <= {}", rng.range_i64(-5, 5)),
        3 => format!(
            "ta.a BETWEEN {} AND {}",
            rng.range_i64(0, 10),
            rng.range_i64(5, 20)
        ),
        4 => "ta.s IN ('a', 'b')".to_string(),
        5 => "ta.s LIKE 'a%'".to_string(),
        _ => format!(
            "ta.a < {} OR ta.b = {}",
            rng.range_i64(0, 20),
            rng.range_i64(-5, 5)
        ),
    }
}

/// Random queries over the two tables, spanning scans, joins, predicates,
/// grouping, ordering and limits.
pub fn random_query(rng: &mut Pcg32) -> String {
    let p = random_predicate(rng);
    match rng.range_u64(0, 6) {
        0 => {
            let mut q = format!("SELECT ta.a, ta.b FROM ta WHERE {p} ORDER BY ta.a, ta.b, ta.s");
            if rng.next_f64() < 0.5 {
                q.push_str(&format!(" LIMIT {}", rng.range_u64(0, 10)));
            }
            q
        }
        1 => format!(
            "SELECT ta.a, tb.c FROM ta JOIN tb ON ta.a = tb.a WHERE {p} \
             ORDER BY ta.a, tb.c, ta.b"
        ),
        2 => format!(
            "SELECT ta.s, COUNT(*) AS n, SUM(ta.b) AS t, MIN(ta.a) AS lo \
             FROM ta WHERE {p} GROUP BY ta.s ORDER BY ta.s"
        ),
        3 => format!(
            "SELECT ta.s, COUNT(*) AS n, AVG(tb.c) AS m FROM ta JOIN tb ON ta.a = tb.a \
             WHERE {p} GROUP BY ta.s HAVING COUNT(*) > 1 ORDER BY ta.s"
        ),
        4 => "SELECT DISTINCT ta.s FROM ta ORDER BY ta.s".to_string(),
        _ => "SELECT COUNT(*), SUM(ta.b), MAX(ta.a), COUNT(DISTINCT ta.s) FROM ta".to_string(),
    }
}

/// More rows than two storage chunks hold, so scans, joins and grouping
/// over such a table see several chunks and non-trivial selections.
pub fn multi_chunk_rows(rng: &mut Pcg32) -> u64 {
    2 * BATCH_ROWS as u64 + rng.range_u64(1, 400)
}

/// `ta(a, b, s, f)` and `tb(a, c, s)` of the given sizes, about one cell
/// in ten NULL in every column. Key domains grow with the tables, so a
/// key keeps a handful of duplicates whatever the size; `f` is a FLOAT
/// column of whole and half numbers over `a`'s domain, so `ta.f = tb.a`
/// joins a FLOAT key to an INT one. (Halves keep every float sum exact:
/// the oracle adds in another order.)
pub fn nullable_catalog(rng: &mut Pcg32, rows_a: u64, rows_b: u64) -> Catalog {
    keyed_catalog(rng, rows_a, rows_b, 1, 0)
}

/// [`nullable_catalog`] with the `a` keys spread: key `k` is stored as
/// `k * SPARSE_STRIDE + SPARSE_OFFSET` — negative as well as positive,
/// about a million apart — and `f` likewise, so `ta.f = tb.a` still meets
/// half of its floats. A join or grouping on `a` alone therefore spans far
/// more values than it has rows and takes the row-id table's hashed layout
/// for a single `Int` key; `b` and `c` keep their small range (the dense
/// layout, NULL and negative keys).
pub fn sparse_catalog(rng: &mut Pcg32, rows_a: u64, rows_b: u64) -> Catalog {
    keyed_catalog(rng, rows_a, rows_b, SPARSE_STRIDE, SPARSE_OFFSET)
}

/// Odd, so a half-numbered `f` lands between two stored keys.
const SPARSE_STRIDE: i64 = 1_000_003;
const SPARSE_OFFSET: i64 = -500_000_000;

fn keyed_catalog(rng: &mut Pcg32, rows_a: u64, rows_b: u64, stride: i64, offset: i64) -> Catalog {
    let keys = (rows_a.max(rows_b) as i64 / 2).max(20);
    let key = |k: i64| Value::Int(k * stride + offset);
    let strings = (rows_a.max(rows_b) as i64 / 50).max(3);
    fn or_null(rng: &mut Pcg32, v: Value) -> Value {
        if rng.next_f64() < 0.1 {
            Value::Null
        } else {
            v
        }
    }
    let mut ta = Table::new(
        "ta",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
            Column::new("s", DataType::Str),
            Column::new("f", DataType::Float),
        ]),
    );
    for _ in 0..rows_a {
        let row = vec![
            key(rng.range_i64(0, keys)),
            Value::Int(rng.range_i64(-5, 5)),
            Value::Str(format!("s{}", rng.range_i64(0, strings))),
            Value::Float(rng.range_i64(0, 2 * keys) as f64 / 2.0 * stride as f64 + offset as f64),
        ];
        ta.insert(Row::new(row.into_iter().map(|v| or_null(rng, v)).collect()))
            .unwrap();
    }
    let mut tb = Table::new(
        "tb",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("c", DataType::Int),
            Column::new("s", DataType::Str),
        ]),
    );
    for _ in 0..rows_b {
        let row = vec![
            key(rng.range_i64(0, keys)),
            Value::Int(rng.range_i64(-5, 5)),
            Value::Str(format!("s{}", rng.range_i64(0, strings + 1))),
        ];
        tb.insert(Row::new(row.into_iter().map(|v| or_null(rng, v)).collect()))
            .unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.register(ta);
    catalog.register(tb);
    catalog.create_index("ta", "a").unwrap();
    catalog
}

/// Statements over [`nullable_catalog`]. None of the joins and grouped
/// statements has an `ORDER BY`: match order (probe order × build order)
/// and first-seen group order are part of what is compared.
pub fn nullable_query(rng: &mut Pcg32) -> String {
    let p = match rng.range_u64(0, 5) {
        0 => format!("ta.a > {}", rng.range_i64(0, 15)),
        1 => format!("ta.b <= {}", rng.range_i64(-5, 5)),
        2 => "ta.s IN ('s0', 's1')".to_string(),
        3 => "ta.f IS NOT NULL".to_string(),
        _ => format!(
            "ta.a < {} OR ta.b = {}",
            rng.range_i64(0, 20),
            rng.range_i64(-5, 5)
        ),
    };
    match rng.range_u64(0, 10) {
        0 => format!("SELECT ta.a, ta.f, tb.c FROM ta JOIN tb ON ta.f = tb.a WHERE {p}"),
        1 => format!("SELECT ta.a, ta.s, tb.c FROM ta JOIN tb ON ta.s = tb.s WHERE {p}"),
        2 => "SELECT ta.a, ta.b, tb.s FROM ta JOIN tb ON ta.a = tb.a AND ta.b = tb.c".to_string(),
        3 => "SELECT ta.b, tb.c, ta.s FROM ta JOIN tb ON ta.a = tb.a \
              AND (ta.b > tb.c OR ta.s = 's0')"
            .to_string(),
        4 => format!(
            "SELECT ta.s, COUNT(*) AS n, SUM(ta.b) AS t, MIN(ta.s) AS lo, MAX(ta.s) AS hi, \
             AVG(ta.f) AS m, COUNT(DISTINCT ta.b) AS d FROM ta WHERE {p} GROUP BY ta.s"
        ),
        5 => "SELECT ta.f, ta.s, COUNT(*) AS n, AVG(ta.f) AS m, MAX(ta.a) AS hi \
              FROM ta GROUP BY ta.f, ta.s"
            .to_string(),
        6 => format!(
            "SELECT tb.s, COUNT(*) AS n, MIN(ta.s) AS lo, AVG(ta.f) AS m, SUM(tb.c) AS t \
             FROM ta JOIN tb ON ta.a = tb.a WHERE {p} GROUP BY tb.s"
        ),
        7 => "SELECT DISTINCT ta.s, ta.b FROM ta".to_string(),
        8 => format!(
            "SELECT COUNT(*), COUNT(DISTINCT ta.s), MIN(ta.s), MAX(ta.s), AVG(ta.f), \
             SUM(ta.f), COUNT(ta.a) FROM ta WHERE {p}"
        ),
        _ => format!(
            "SELECT ta.s, ta.a, ta.f FROM ta WHERE {p} ORDER BY ta.s DESC, ta.a + ta.b, ta.f, ta.a"
        ),
    }
}

/// `ta(a, s, t)` and `tb(c, s)` of the given sizes: `s` and `t` are strings
/// from a pool that grows with the tables (`s` and `t` overlap, and `tb.s`
/// reaches one string past `ta.s`'s), with an empty string among them and
/// about one cell in ten NULL; `a` and `c` are small `Int`s.
pub fn string_catalog(rng: &mut Pcg32, rows_a: u64, rows_b: u64) -> Catalog {
    let strings = (rows_a.max(rows_b) / 40).max(4);
    let string = |rng: &mut Pcg32, pool: u64| -> Value {
        match rng.range_u64(0, pool + 1) {
            _ if rng.next_f64() < 0.1 => Value::Null,
            0 => Value::Str(String::new()),
            k if k % 2 == 0 => Value::Str(format!("s{k}")),
            k => Value::Str(format!("a string past eight bytes {k}")),
        }
    };
    let mut ta = Table::new(
        "ta",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("s", DataType::Str),
            Column::new("t", DataType::Str),
        ]),
    );
    for _ in 0..rows_a {
        let row = vec![
            Value::Int(rng.range_i64(0, 10)),
            string(rng, strings),
            string(rng, strings / 2),
        ];
        ta.insert(Row::new(row)).unwrap();
    }
    let mut tb = Table::new(
        "tb",
        Schema::new(vec![
            Column::new("c", DataType::Int),
            Column::new("s", DataType::Str),
        ]),
    );
    for _ in 0..rows_b {
        let row = vec![Value::Int(rng.range_i64(0, 10)), string(rng, strings + 1)];
        tb.insert(Row::new(row)).unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.register(ta);
    catalog.register(tb);
    catalog.create_index("ta", "a").unwrap();
    catalog
}

/// Statements over [`string_catalog`]: joins on a string key, grouping and
/// `DISTINCT` on strings — of `ta` (a dictionary per chunk), of `tb` and of
/// a join's output — and `ORDER BY` over strings. Joins and grouped
/// statements have no `ORDER BY`: match order and first-seen group order
/// are compared.
pub fn string_query(rng: &mut Pcg32) -> String {
    let p = match rng.range_u64(0, 6) {
        0 => "ta.s = 's2'".to_string(),
        1 => format!("ta.s > 's{}'", rng.range_u64(0, 6)),
        2 => "ta.t IS NULL".to_string(),
        3 => "ta.t LIKE 'a%'".to_string(),
        4 => "ta.s IN ('', 's4', 'a string past eight bytes 1')".to_string(),
        _ => format!("ta.a < {}", rng.range_i64(0, 10)),
    };
    match rng.range_u64(0, 10) {
        0 => format!("SELECT ta.a, ta.s, tb.c FROM ta JOIN tb ON ta.s = tb.s WHERE {p}"),
        1 => format!(
            "SELECT ta.s, COUNT(*) AS n, SUM(ta.a) AS t, MIN(ta.t) AS lo FROM ta \
             WHERE {p} GROUP BY ta.s"
        ),
        2 => "SELECT tb.s, COUNT(*) AS n, MAX(tb.c) AS hi FROM tb GROUP BY tb.s".to_string(),
        3 => format!(
            "SELECT tb.s, COUNT(*) AS n, MAX(ta.t) AS hi FROM ta JOIN tb ON ta.a = tb.c \
             WHERE {p} GROUP BY tb.s"
        ),
        4 => format!(
            "SELECT ta.s, COUNT(*) AS n, MIN(tb.c) AS lo FROM ta JOIN tb ON ta.s = tb.s \
             WHERE {p} GROUP BY ta.s"
        ),
        5 => "SELECT DISTINCT ta.s FROM ta".to_string(),
        6 => "SELECT DISTINCT ta.t, tb.s FROM ta JOIN tb ON ta.a = tb.c".to_string(),
        7 => format!("SELECT ta.s, ta.t, ta.a FROM ta WHERE {p} ORDER BY ta.s DESC, ta.t, ta.a"),
        8 => format!(
            "SELECT COUNT(*), COUNT(DISTINCT ta.s), MIN(ta.s), MAX(ta.t), COUNT(ta.t) \
             FROM ta WHERE {p}"
        ),
        _ => "SELECT ta.s, tb.s, COUNT(*) AS n FROM ta JOIN tb ON ta.s = tb.s AND ta.a = tb.c \
              GROUP BY ta.s, tb.s"
            .to_string(),
    }
}

/// Statements over [`sparse_catalog`]: single-`Int`-key joins and grouping
/// on the spread `a` (hashed) and on the small-range `b` / `c` (dense),
/// none with an `ORDER BY`.
pub fn sparse_query(rng: &mut Pcg32) -> String {
    let p = match rng.range_u64(0, 4) {
        0 => format!(
            "ta.a > {}",
            rng.range_i64(0, 20) * SPARSE_STRIDE + SPARSE_OFFSET
        ),
        1 => format!("ta.b <= {}", rng.range_i64(-5, 5)),
        2 => "ta.s IN ('s0', 's1')".to_string(),
        _ => "ta.f IS NOT NULL".to_string(),
    };
    match rng.range_u64(0, 6) {
        0 => format!("SELECT ta.a, ta.f, tb.c FROM ta JOIN tb ON ta.a = tb.a WHERE {p}"),
        1 => format!(
            "SELECT ta.a, COUNT(*) AS n, SUM(ta.b) AS t, MIN(ta.s) AS lo FROM ta \
             WHERE {p} GROUP BY ta.a"
        ),
        2 => "SELECT DISTINCT ta.a FROM ta".to_string(),
        3 => format!("SELECT ta.b, COUNT(*) AS n, AVG(ta.f) AS m FROM ta WHERE {p} GROUP BY ta.b"),
        4 => format!("SELECT ta.a, tb.a, tb.c FROM ta JOIN tb ON ta.b = tb.c WHERE {p}"),
        _ => format!("SELECT ta.f, tb.c FROM ta JOIN tb ON ta.f = tb.a WHERE {p}"),
    }
}

/// [`nullable_catalog`] and a third table `tc(b, d, s)` of `rows_c` rows,
/// for chains of two joins: `b` on `ta.b`'s range, `d` a small `Int`, `s`
/// on `tb.s`'s pool, about one cell in ten NULL.
pub fn groupjoin_catalog(rng: &mut Pcg32, rows_a: u64, rows_b: u64, rows_c: u64) -> Catalog {
    let mut catalog = nullable_catalog(rng, rows_a, rows_b);
    let mut tc = Table::new(
        "tc",
        Schema::new(vec![
            Column::new("b", DataType::Int),
            Column::new("d", DataType::Int),
            Column::new("s", DataType::Str),
        ]),
    );
    for _ in 0..rows_c {
        let row = [
            Value::Int(rng.range_i64(-5, 5)),
            Value::Int(rng.range_i64(-3, 3)),
            Value::Str(format!("s{}", rng.range_i64(0, 4))),
        ];
        let row = row
            .into_iter()
            .map(|v| if rng.next_f64() < 0.1 { Value::Null } else { v });
        tc.insert(Row::new(row.collect())).unwrap();
    }
    catalog.register(tc);
    catalog
}

/// Statements over [`groupjoin_catalog`], each an aggregate straight over
/// a hash join. Which side a table is on follows the drawn sizes, so a
/// key or argument of `ta` is on the build side in some cases and on the
/// probe side in others. None has an `ORDER BY`: first-seen group order
/// is compared.
pub fn groupjoin_query(rng: &mut Pcg32) -> String {
    let p = match rng.range_u64(0, 4) {
        0 => format!("ta.a > {}", rng.range_i64(0, 15)),
        1 => format!("ta.b <= {}", rng.range_i64(-5, 5)),
        2 => "ta.f IS NOT NULL".to_string(),
        _ => format!("tb.c < {}", rng.range_i64(-5, 5)),
    };
    match rng.range_u64(0, 10) {
        0 => format!(
            "SELECT ta.b, COUNT(*) AS n, SUM(tb.c) AS t, AVG(ta.f) AS m \
             FROM ta JOIN tb ON ta.a = tb.a WHERE {p} GROUP BY ta.b"
        ),
        1 => format!(
            "SELECT tb.c, COUNT(*) AS n, MIN(ta.s) AS lo, MAX(tb.s) AS hi, MIN(ta.f) AS flo \
             FROM ta JOIN tb ON ta.a = tb.a WHERE {p} GROUP BY tb.c"
        ),
        2 => format!(
            "SELECT ta.s, tb.c, COUNT(*) AS n, MAX(ta.f) AS hi, MIN(tb.a) AS lo \
             FROM ta JOIN tb ON ta.a = tb.a WHERE {p} GROUP BY ta.s, tb.c"
        ),
        3 => format!(
            "SELECT COUNT(*) AS n, SUM(tb.c) AS t, MIN(tc.d) AS lo, MAX(ta.s) AS hi \
             FROM ta JOIN tb ON ta.a = tb.a JOIN tc ON tc.b = ta.b WHERE {p}"
        ),
        4 => format!(
            "SELECT ta.b, COUNT(DISTINCT tb.c) AS d, COUNT(*) AS n, SUM(DISTINCT ta.a) AS t \
             FROM ta JOIN tb ON ta.a = tb.a WHERE {p} GROUP BY ta.b"
        ),
        5 => "SELECT tb.s, COUNT(*) AS n, SUM(ta.b) AS t, MAX(tb.c) AS hi \
              FROM ta JOIN tb ON ta.a = tb.a AND ta.b > tb.c GROUP BY tb.s"
            .to_string(),
        6 => "SELECT ta.f, COUNT(*) AS n, SUM(ta.f) AS t, COUNT(tb.s) AS k \
              FROM ta JOIN tb ON ta.f = tb.a GROUP BY ta.f"
            .to_string(),
        7 => format!(
            "SELECT ta.s, COUNT(*) AS n, SUM(ta.b * tb.c) AS t, AVG(tb.c + 1) AS m, \
             MAX(ta.b - 1) AS hi FROM ta JOIN tb ON ta.s = tb.s WHERE {p} GROUP BY ta.s"
        ),
        8 => format!(
            "SELECT tc.d, COUNT(*) AS n, MAX(tb.s) AS hi, SUM(ta.f) AS t \
             FROM ta JOIN tb ON ta.a = tb.a JOIN tc ON tc.b = ta.b WHERE {p} GROUP BY tc.d"
        ),
        _ => format!(
            "SELECT COUNT(*) AS n, COUNT(ta.f) AS k, AVG(ta.f) AS m, MIN(tb.s) AS lo \
             FROM ta JOIN tb ON ta.a = tb.a WHERE {p}"
        ),
    }
}
