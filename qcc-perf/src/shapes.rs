//! Seeded generator of ad-hoc query *templates* for `fleet_adhoc`.
//!
//! Every draw is a statement whose template signature (the statement with
//! literals blanked, the key the QCC groups by) has not been produced
//! before, so a run of N draws is N cold compiles: no plan-cache entry,
//! no calibration history, no round-robin state is ever reused.
//!
//! A statement varies in table set, projection or aggregates, predicate
//! columns and operators, grouping, ordering and limit. `LIMIT` appears
//! only under a total order (a unique key, or every group key), so the
//! output check can compare against a second engine row for row.

use qcc_common::Pcg32;
use qcc_federation::decompose::template_signature;
use qcc_sql::parse_select;
use std::collections::BTreeSet;

/// One generated statement.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Statement text up to the first predicate literal.
    head: String,
    /// The first predicate literal; [`Shape::sql`] shifts it.
    literal: i64,
    /// Statement text after the literal.
    tail: String,
    /// `scan`, `agg`, `join` or `join_agg`.
    pub class: &'static str,
}

impl Shape {
    /// Variant `k` of the statement: same template, first predicate
    /// literal shifted by `k`. Variants miss the (server, fragment SQL)
    /// plan cache like a fresh template does, which lets the traced probe
    /// ladder compile the same shape cold more than once.
    pub fn sql(&self, k: i64) -> String {
        format!("{}{}{}", self.head, self.literal + k, self.tail)
    }
}

struct Col {
    name: &'static str,
    /// Exclusive upper bound of the uniform integer/float domain; 0 marks
    /// a string column (never used in predicates or numeric aggregates).
    hi: i64,
}

struct Tab {
    alias: &'static str,
    cols: &'static [Col],
}

const fn col(name: &'static str, hi: i64) -> Col {
    Col { name, hi }
}

/// First column of every table: a serial key, unique per row, so ordering
/// a single table by it is a total order.
const ID: Col = col("id", 200);

// Domains follow `qcc_workload::ScenarioConfig::scale` (200 / 40 rows).
const BIG_A: Tab = Tab {
    alias: "a",
    cols: &[ID, col("grp", 40), col("val", 100), col("sel", 10_000)],
};
const BIG_D: Tab = Tab {
    alias: "d",
    cols: &[ID, col("grp", 40), col("val", 100), col("sel", 10_000)],
};
const BIG_B: Tab = Tab {
    alias: "b",
    cols: &[ID, col("a_id", 200), col("qty", 100)],
};
const BIG_C: Tab = Tab {
    alias: "c",
    cols: &[ID, col("b_id", 200), col("flag", 5_000)],
};
const SMALL_S: Tab = Tab {
    alias: "s",
    cols: &[ID, col("cat", 0), col("bonus", 100)],
};

/// `(tables, FROM clause)`: five single tables, five two-way joins and the
/// three-way join of QT4.
const TABLE_SETS: &[(&[Tab], &str)] = &[
    (&[BIG_A], "big_a a"),
    (&[BIG_D], "big_d d"),
    (&[BIG_B], "big_b b"),
    (&[BIG_C], "big_c c"),
    (&[SMALL_S], "small_s s"),
    (&[BIG_A, BIG_B], "big_a a JOIN big_b b ON b.a_id = a.id"),
    (&[BIG_D, BIG_B], "big_d d JOIN big_b b ON b.a_id = d.id"),
    (&[BIG_A, SMALL_S], "big_a a JOIN small_s s ON a.grp = s.id"),
    (&[BIG_D, SMALL_S], "big_d d JOIN small_s s ON d.grp = s.id"),
    (&[BIG_B, BIG_C], "big_b b JOIN big_c c ON c.b_id = b.id"),
    (
        &[BIG_A, BIG_B, BIG_C],
        "big_a a JOIN big_b b ON b.a_id = a.id JOIN big_c c ON c.b_id = b.id",
    ),
];

const COMPARISONS: &[&str] = &["<", "<=", ">", ">=", "="];
const AGGREGATES: &[&str] = &["SUM", "MIN", "MAX", "AVG"];
const LIMITS: &[u64] = &[5, 10, 20, 50];

/// Draw `count` statements with pairwise distinct template signatures.
pub fn generate(seed: u64, count: usize) -> Vec<Shape> {
    let mut rng = Pcg32::new(seed, 0x5ba9e5);
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let shape = draw(&mut rng);
        let stmt = parse_select(&shape.sql(0)).expect("generated statements parse");
        if seen.insert(template_signature(&stmt)) {
            out.push(shape);
        }
    }
    out
}

fn draw(rng: &mut Pcg32) -> Shape {
    let (tabs, from) = rng.choose(TABLE_SETS);
    let qualified: Vec<(String, &Col)> = tabs
        .iter()
        .flat_map(|t| {
            t.cols
                .iter()
                .map(|c| (format!("{}.{}", t.alias, c.name), c))
        })
        .collect();
    let numeric: Vec<&(String, &Col)> = qualified.iter().filter(|(_, c)| c.hi > 0).collect();
    let joined = tabs.len() > 1;
    let aggregate = rng.next_f64() < 0.5;

    let mut group_by = String::new();
    let mut order_by: Vec<String> = Vec::new();
    // LIMIT needs a total order: every group key, or a single table's id.
    let mut total_order = false;
    let select_list = if aggregate {
        let keys: Vec<String> = pick_subset(rng, &qualified, 0, 2)
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let mut items = keys.clone();
        items.push("COUNT(*) AS n".into());
        for (i, (name, _)) in pick_subset(rng, &numeric, 0, 2).iter().enumerate() {
            items.push(format!("{}({name}) AS m{i}", rng.choose(AGGREGATES)));
        }
        if !keys.is_empty() {
            group_by = format!(" GROUP BY {}", keys.join(", "));
            if rng.next_f64() < 0.5 {
                order_by = keys;
                total_order = true;
            }
        }
        items.join(", ")
    } else {
        if rng.next_f64() < 0.5 {
            order_by = vec![qualified[0].0.clone()];
            total_order = !joined;
        }
        let cols: Vec<String> = pick_subset(rng, &qualified, 1, 4)
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        cols.join(", ")
    };

    // One or two conjuncts; the first one's literal is the variant knob.
    let (first_name, first_col) = *rng.choose(&numeric);
    let first_op = *rng.choose(COMPARISONS);
    let literal = rng.range_i64(0, first_col.hi);
    let mut tail = String::new();
    if rng.next_f64() < 0.5 {
        let (name, c) = *rng.choose(&numeric);
        if rng.next_f64() < 0.3 {
            let lo = rng.range_i64(0, c.hi);
            tail = format!(" AND {name} BETWEEN {lo} AND {}", lo + c.hi / 4);
        } else {
            let op = rng.choose(COMPARISONS);
            tail = format!(" AND {name} {op} {}", rng.range_i64(0, c.hi));
        }
    }
    tail.push_str(&group_by);
    if !order_by.is_empty() {
        let dir = if rng.next_f64() < 0.3 { " DESC" } else { "" };
        tail.push_str(&format!(" ORDER BY {}{dir}", order_by.join(", ")));
        if total_order && rng.next_f64() < 0.5 {
            tail.push_str(&format!(" LIMIT {}", rng.choose(LIMITS)));
        }
    }
    Shape {
        head: format!("SELECT {select_list} FROM {from} WHERE {first_name} {first_op} "),
        literal,
        tail,
        class: match (joined, aggregate) {
            (false, false) => "scan",
            (false, true) => "agg",
            (true, false) => "join",
            (true, true) => "join_agg",
        },
    }
}

/// A random subset of `pool` with `min..=max` elements, in pool order.
fn pick_subset<T: Clone>(rng: &mut Pcg32, pool: &[T], min: usize, max: usize) -> Vec<T> {
    let want = rng.range_u64(min as u64, max.min(pool.len()) as u64 + 1) as usize;
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut idx);
    idx.truncate(want);
    idx.sort_unstable();
    idx.into_iter().map(|i| pool[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_are_distinct_parseable_and_seeded() {
        let shapes = generate(7, 3_000);
        let mut signatures = BTreeSet::new();
        let mut classes = BTreeSet::new();
        for s in &shapes {
            let stmt = parse_select(&s.sql(0)).unwrap_or_else(|e| panic!("{}: {e}", s.sql(0)));
            assert!(signatures.insert(template_signature(&stmt)), "{}", s.sql(0));
            let variant = parse_select(&s.sql(3)).unwrap_or_else(|e| panic!("{}: {e}", s.sql(3)));
            assert_eq!(
                template_signature(&variant),
                template_signature(&stmt),
                "a variant keeps its template"
            );
            assert_ne!(s.sql(3), s.sql(0), "a variant changes the fragment SQL");
            classes.insert(s.class);
        }
        assert_eq!(classes.len(), 4, "all four classes occur");
        let again: Vec<String> = generate(7, 50).iter().map(|s| s.sql(0)).collect();
        let first: Vec<String> = shapes[..50].iter().map(|s| s.sql(0)).collect();
        assert_eq!(again, first, "same seed, same statements");
        let other: Vec<String> = generate(8, 50).iter().map(|s| s.sql(0)).collect();
        assert_ne!(other, first, "another seed, other statements");
    }
}
