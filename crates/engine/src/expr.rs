//! Compiled scalar expressions.
//!
//! Column references are resolved to positional indices once, at plan
//! build time, so row-at-a-time evaluation does no name lookups. Booleans
//! are represented as `Value::Int(0 | 1)` with `Value::Null` as SQL's
//! *unknown*; [`CompiledExpr::eval_predicate`] maps unknown to `false` (WHERE semantics).
//!
//! This module owns the expression tree; evaluating it is
//! [`crate::vexpr`]'s job, and the `Row`-taking methods here are views
//! over that one evaluator.

use crate::vexpr::{cell_truth, eval_cells, eval_predicate_cells};
use qcc_common::{CellRef, QccError, Result, Row, Schema, Value};
use qcc_sql::{AggFunc, BinaryOp, Expr, UnaryOp};
use std::cmp::Ordering;
use std::collections::HashSet;

/// An expression with all column references resolved to row positions.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledExpr {
    /// Value at a row position.
    Column(usize),
    /// Constant.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<CompiledExpr>,
        /// Right operand.
        right: Box<CompiledExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<CompiledExpr>,
    },
    /// `IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<CompiledExpr>,
        /// Negated form.
        negated: bool,
    },
    /// `[NOT] IN (list)`.
    InList {
        /// Tested expression.
        expr: Box<CompiledExpr>,
        /// Members.
        list: Vec<CompiledExpr>,
        /// Negated form.
        negated: bool,
    },
    /// `[NOT] BETWEEN`.
    Between {
        /// Tested expression.
        expr: Box<CompiledExpr>,
        /// Lower bound.
        low: Box<CompiledExpr>,
        /// Upper bound.
        high: Box<CompiledExpr>,
        /// Negated form.
        negated: bool,
    },
    /// `[NOT] LIKE`.
    Like {
        /// Tested expression.
        expr: Box<CompiledExpr>,
        /// SQL pattern (`%`, `_`).
        pattern: String,
        /// Negated form.
        negated: bool,
    },
}

/// Compile an AST expression against a schema. Aggregate calls are
/// rejected — the planner routes them through [`crate::plan::AggSpec`]
/// before compilation.
pub fn compile(expr: &Expr, schema: &Schema) -> Result<CompiledExpr> {
    match expr {
        Expr::Column { table, name } => {
            let idx = schema.resolve(table.as_deref(), name)?;
            Ok(CompiledExpr::Column(idx))
        }
        Expr::Literal(v) => Ok(CompiledExpr::Literal(v.clone())),
        Expr::Binary { op, left, right } => Ok(CompiledExpr::Binary {
            op: *op,
            left: Box::new(compile(left, schema)?),
            right: Box::new(compile(right, schema)?),
        }),
        Expr::Unary { op, expr } => Ok(CompiledExpr::Unary {
            op: *op,
            expr: Box::new(compile(expr, schema)?),
        }),
        Expr::Agg { .. } => Err(QccError::Planning(
            "aggregate expression in scalar context".into(),
        )),
        Expr::IsNull { expr, negated } => Ok(CompiledExpr::IsNull {
            expr: Box::new(compile(expr, schema)?),
            negated: *negated,
        }),
        Expr::InList {
            expr,
            list,
            negated,
        } => Ok(CompiledExpr::InList {
            expr: Box::new(compile(expr, schema)?),
            list: list
                .iter()
                .map(|e| compile(e, schema))
                .collect::<Result<_>>()?,
            negated: *negated,
        }),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Ok(CompiledExpr::Between {
            expr: Box::new(compile(expr, schema)?),
            low: Box::new(compile(low, schema)?),
            high: Box::new(compile(high, schema)?),
            negated: *negated,
        }),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Ok(CompiledExpr::Like {
            expr: Box::new(compile(expr, schema)?),
            pattern: pattern.clone(),
            negated: *negated,
        }),
    }
}

impl CompiledExpr {
    /// Evaluate against a row. Booleans come back as `Int(0|1)`, unknown
    /// as `Null`.
    pub fn eval(&self, row: &Row) -> Value {
        eval_cells(self, row).to_value()
    }

    /// Evaluate as a WHERE predicate: unknown (`NULL`) rejects the row.
    pub fn eval_predicate(&self, row: &Row) -> bool {
        eval_predicate_cells(self, row)
    }

    /// Set `used[i]` for every column `i` the expression reads.
    pub(crate) fn mark_columns(&self, used: &mut [bool]) {
        match self {
            CompiledExpr::Column(i) => used[*i] = true,
            CompiledExpr::Literal(_) => {}
            CompiledExpr::Binary { left, right, .. } => {
                left.mark_columns(used);
                right.mark_columns(used);
            }
            CompiledExpr::Unary { expr, .. }
            | CompiledExpr::IsNull { expr, .. }
            | CompiledExpr::Like { expr, .. } => expr.mark_columns(used),
            CompiledExpr::InList { expr, list, .. } => {
                expr.mark_columns(used);
                list.iter().for_each(|e| e.mark_columns(used));
            }
            CompiledExpr::Between {
                expr, low, high, ..
            } => {
                expr.mark_columns(used);
                low.mark_columns(used);
                high.mark_columns(used);
            }
        }
    }

    /// Number of nodes (used for per-tuple CPU accounting).
    pub fn node_count(&self) -> usize {
        match self {
            CompiledExpr::Column(_) | CompiledExpr::Literal(_) => 1,
            CompiledExpr::Binary { left, right, .. } => 1 + left.node_count() + right.node_count(),
            CompiledExpr::Unary { expr, .. } | CompiledExpr::IsNull { expr, .. } => {
                1 + expr.node_count()
            }
            CompiledExpr::InList { expr, list, .. } => {
                1 + expr.node_count() + list.iter().map(CompiledExpr::node_count).sum::<usize>()
            }
            CompiledExpr::Between {
                expr, low, high, ..
            } => 1 + expr.node_count() + low.node_count() + high.node_count(),
            CompiledExpr::Like { expr, .. } => 1 + expr.node_count(),
        }
    }
}

/// SQL truthiness of a value: nonzero numbers are true, NULL is unknown.
pub fn truth(v: &Value) -> Option<bool> {
    cell_truth(CellRef::of(v))
}

/// SQL LIKE matching with `%` (any run) and `_` (any single char).
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // Collapse consecutive %.
                let rest = &p[1..];
                (0..=s.len()).any(|skip| rec(&s[skip..], rest))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

/// Aggregate accumulator of the row reference's hash aggregate and of the
/// test oracle, and of the batch engine's `MIN` / `MAX` and `DISTINCT`
/// aggregates. Each variant holds the state of the function it computes
/// and nothing else.
#[derive(Debug, Clone)]
pub enum AggAccumulator {
    /// `COUNT(*)` / `COUNT(x)`: rows, or non-NULL inputs.
    Count(u64),
    /// `SUM(x)`.
    Sum(NumericSum),
    /// `AVG(x)`.
    Avg(NumericSum),
    /// `MIN(x)` / `MAX(x)`: the extreme so far, and which side of it a
    /// new input must fall on to replace it.
    Extreme {
        /// The extreme among the inputs seen, `None` before the first.
        best: Option<Value>,
        /// `Less` for MIN, `Greater` for MAX.
        replaces: Ordering,
    },
    /// `f(DISTINCT x)`: `inner` sees each distinct input once.
    Distinct {
        /// Inputs already forwarded.
        seen: HashSet<Value>,
        /// The function being computed.
        inner: Box<AggAccumulator>,
    },
}

/// Running sum of the numeric inputs, exact in `i64` until it overflows
/// (or meets a float) and widens to the `f64` kept alongside.
#[derive(Debug, Clone)]
pub struct NumericSum {
    count: u64,
    sum: f64,
    int_sum: i64,
    is_int: bool,
}

impl NumericSum {
    /// The sum of no input.
    pub(crate) const EMPTY: NumericSum = NumericSum {
        count: 0,
        sum: 0.0,
        int_sum: 0,
        is_int: true,
    };

    /// Add a non-NULL cell.
    pub(crate) fn add(&mut self, c: CellRef<'_>) {
        self.count += 1;
        match c {
            CellRef::Int(i) => {
                self.sum += i as f64;
                match self.int_sum.checked_add(i) {
                    Some(s) => self.int_sum = s,
                    None => self.is_int = false,
                }
            }
            CellRef::Float(f) => {
                self.sum += f;
                self.is_int = false;
            }
            _ => {}
        }
    }

    /// [`NumericSum::add`] of `CellRef::Int(v)` where `live`, and nothing
    /// where not (a NULL cell, whose payload `v` is unspecified), without
    /// branching on either: a dead cell adds `0`, which leaves both sums
    /// as they are (the `f64` one starts at `+0.0` and so is never `-0.0`,
    /// the one value `+ 0.0` changes).
    #[inline(always)]
    pub(crate) fn add_int(&mut self, v: i64, live: bool) {
        let v = if live { v } else { 0 };
        self.count += u64::from(live);
        self.sum += v as f64;
        match self.int_sum.checked_add(v) {
            Some(s) => self.int_sum = s,
            None => self.is_int = false,
        }
    }

    /// [`NumericSum::add_int`] for `CellRef::Float(x)`.
    #[inline(always)]
    pub(crate) fn add_float(&mut self, x: f64, live: bool) {
        self.count += u64::from(live);
        self.sum += if live { x } else { 0.0 };
        self.is_int &= !live;
    }

    /// `SUM` of the inputs (`avg`: `AVG`); NULL if there were none.
    pub(crate) fn finish(&self, avg: bool) -> Value {
        match self {
            s if s.count == 0 => Value::Null,
            s if avg => Value::Float(s.sum / s.count as f64),
            s if s.is_int => Value::Int(s.int_sum),
            s => Value::Float(s.sum),
        }
    }
}

impl AggAccumulator {
    /// Fresh accumulator for a function.
    pub fn new(func: AggFunc, distinct: bool) -> Self {
        let acc = match func {
            AggFunc::Count => AggAccumulator::Count(0),
            AggFunc::Sum => AggAccumulator::Sum(NumericSum::EMPTY),
            AggFunc::Avg => AggAccumulator::Avg(NumericSum::EMPTY),
            AggFunc::Min | AggFunc::Max => AggAccumulator::Extreme {
                best: None,
                replaces: if func == AggFunc::Min {
                    Ordering::Less
                } else {
                    Ordering::Greater
                },
            },
        };
        if distinct {
            AggAccumulator::Distinct {
                seen: HashSet::new(),
                inner: Box::new(acc),
            }
        } else {
            acc
        }
    }

    /// Feed one input value (`None` means `COUNT(*)`'s row marker).
    pub fn push(&mut self, v: Option<&Value>) {
        self.push_cell(v.map(CellRef::of));
    }

    /// Feed one input cell (`None` means `COUNT(*)`'s row marker, which
    /// counts the row whatever it holds). Values are only materialized on
    /// the slow paths (DISTINCT insertion, new MIN/MAX extremes).
    #[inline]
    pub fn push_cell(&mut self, c: Option<CellRef<'_>>) {
        let c = match c {
            Some(CellRef::Null) => return, // Aggregates skip NULLs.
            Some(c) => c,
            None => {
                match self {
                    AggAccumulator::Count(n) => *n += 1,
                    AggAccumulator::Distinct { inner, .. } => inner.push_cell(None),
                    _ => {}
                }
                return;
            }
        };
        match self {
            AggAccumulator::Count(n) => *n += 1,
            AggAccumulator::Sum(s) | AggAccumulator::Avg(s) => s.add(c),
            AggAccumulator::Extreme { best, replaces } => {
                if best
                    .as_ref()
                    .is_none_or(|b| c.total_cmp_value(b) == *replaces)
                {
                    *best = Some(c.to_value());
                }
            }
            AggAccumulator::Distinct { seen, inner } => {
                if seen.insert(c.to_value()) {
                    inner.push_cell(Some(c));
                }
            }
        }
    }

    /// Final aggregate value.
    pub fn finish(&self) -> Value {
        match self {
            AggAccumulator::Count(n) => Value::Int(*n as i64),
            AggAccumulator::Sum(s) => s.finish(false),
            AggAccumulator::Avg(s) => s.finish(true),
            AggAccumulator::Extreme { best, .. } => best.clone().unwrap_or(Value::Null),
            AggAccumulator::Distinct { inner, .. } => inner.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::{Column, DataType};
    use qcc_sql::parse_select;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::qualified("t", "a", DataType::Int),
            Column::qualified("t", "b", DataType::Str),
            Column::qualified("t", "c", DataType::Float),
        ])
    }

    fn compile_where(sql_where: &str) -> CompiledExpr {
        let stmt = parse_select(&format!("SELECT * FROM t WHERE {sql_where}")).unwrap();
        compile(stmt.where_clause.as_ref().unwrap(), &schema()).unwrap()
    }

    fn row(a: Value, b: Value, c: Value) -> Row {
        Row::new(vec![a, b, c])
    }

    #[test]
    fn comparison_and_arithmetic() {
        let e = compile_where("a + 1 > 10");
        assert!(e.eval_predicate(&row(Value::Int(10), Value::Null, Value::Null)));
        assert!(!e.eval_predicate(&row(Value::Int(9), Value::Null, Value::Null)));
    }

    #[test]
    fn null_comparison_rejects() {
        let e = compile_where("a > 10");
        assert!(!e.eval_predicate(&row(Value::Null, Value::Null, Value::Null)));
    }

    #[test]
    fn three_valued_and_or() {
        // NULL OR TRUE = TRUE; NULL AND TRUE = NULL (rejected).
        let e = compile_where("a > 0 OR c > 0.0");
        assert!(e.eval_predicate(&row(Value::Null, Value::Null, Value::Float(1.0))));
        let e = compile_where("a > 0 AND c > 0.0");
        assert!(!e.eval_predicate(&row(Value::Null, Value::Null, Value::Float(1.0))));
        // FALSE AND NULL = FALSE, definite.
        let e = compile_where("NOT (a > 0 AND c > 0.0)");
        assert!(e.eval_predicate(&row(Value::Int(0), Value::Null, Value::Null)));
    }

    #[test]
    fn in_list_with_null_semantics() {
        let e = compile_where("a IN (1, 2, 3)");
        assert!(e.eval_predicate(&row(Value::Int(2), Value::Null, Value::Null)));
        assert!(!e.eval_predicate(&row(Value::Int(9), Value::Null, Value::Null)));
        // NULL NOT IN (...) is unknown → rejected.
        let e = compile_where("a NOT IN (1, 2)");
        assert!(!e.eval_predicate(&row(Value::Null, Value::Null, Value::Null)));
        assert!(e.eval_predicate(&row(Value::Int(5), Value::Null, Value::Null)));
        // x IN (NULL) where x doesn't match any non-null: unknown → rejected,
        // and NOT IN with a NULL member is also unknown.
        let e = compile_where("a IN (1, NULL)");
        assert!(!e.eval_predicate(&row(Value::Int(5), Value::Null, Value::Null)));
        assert!(e.eval_predicate(&row(Value::Int(1), Value::Null, Value::Null)));
    }

    #[test]
    fn between_inclusive() {
        let e = compile_where("a BETWEEN 2 AND 4");
        assert!(e.eval_predicate(&row(Value::Int(2), Value::Null, Value::Null)));
        assert!(e.eval_predicate(&row(Value::Int(4), Value::Null, Value::Null)));
        assert!(!e.eval_predicate(&row(Value::Int(5), Value::Null, Value::Null)));
        let e = compile_where("a NOT BETWEEN 2 AND 4");
        assert!(e.eval_predicate(&row(Value::Int(5), Value::Null, Value::Null)));
    }

    #[test]
    fn is_null_forms() {
        let e = compile_where("b IS NULL");
        assert!(e.eval_predicate(&row(Value::Int(0), Value::Null, Value::Null)));
        let e = compile_where("b IS NOT NULL");
        assert!(e.eval_predicate(&row(Value::Int(0), Value::from("x"), Value::Null)));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(!like_match("hello", "h_llx"));
        assert!(like_match("abcabc", "%abc"));
        assert!(like_match("a%b", "a%b"));
        assert!(!like_match("hello", "HELLO"), "LIKE is case sensitive");
    }

    #[test]
    fn like_on_non_string_is_unknown() {
        let e = compile_where("a LIKE 'x%'");
        assert!(!e.eval_predicate(&row(Value::Int(1), Value::Null, Value::Null)));
    }

    #[test]
    fn unknown_column_fails_compile() {
        let stmt = parse_select("SELECT * FROM t WHERE nope > 1").unwrap();
        assert!(compile(stmt.where_clause.as_ref().unwrap(), &schema()).is_err());
    }

    #[test]
    fn aggregate_rejected_in_scalar_context() {
        let stmt = parse_select("SELECT * FROM t WHERE SUM(a) > 1").unwrap();
        assert!(compile(stmt.where_clause.as_ref().unwrap(), &schema()).is_err());
    }

    #[test]
    fn accumulator_count_sum_avg() {
        let mut count_star = AggAccumulator::new(AggFunc::Count, false);
        let mut sum = AggAccumulator::new(AggFunc::Sum, false);
        let mut avg = AggAccumulator::new(AggFunc::Avg, false);
        for v in [Value::Int(1), Value::Int(2), Value::Null, Value::Int(3)] {
            count_star.push(None);
            sum.push(Some(&v));
            avg.push(Some(&v));
        }
        assert_eq!(count_star.finish(), Value::Int(4), "COUNT(*) counts NULLs");
        assert_eq!(sum.finish(), Value::Int(6), "SUM skips NULLs");
        assert_eq!(avg.finish(), Value::Float(2.0), "AVG skips NULLs");
    }

    #[test]
    fn accumulator_distinct() {
        let mut c = AggAccumulator::new(AggFunc::Count, true);
        for v in [Value::Int(1), Value::Int(1), Value::Int(2)] {
            c.push(Some(&v));
        }
        assert_eq!(c.finish(), Value::Int(2));
    }

    #[test]
    fn accumulator_min_max_empty() {
        let acc = AggAccumulator::new(AggFunc::Min, false);
        assert_eq!(acc.finish(), Value::Null);
        let mut acc = AggAccumulator::new(AggFunc::Max, false);
        acc.push(Some(&Value::Int(5)));
        acc.push(Some(&Value::Int(9)));
        acc.push(Some(&Value::Int(7)));
        assert_eq!(acc.finish(), Value::Int(9));
    }

    #[test]
    fn sum_overflow_widens() {
        let mut s = AggAccumulator::new(AggFunc::Sum, false);
        s.push(Some(&Value::Int(i64::MAX)));
        s.push(Some(&Value::Int(i64::MAX)));
        assert!(matches!(s.finish(), Value::Float(_)));
    }

    #[test]
    fn node_count_counts() {
        let e = compile_where("a + 1 > 10 AND b IS NULL");
        assert!(e.node_count() >= 6);
    }
}
