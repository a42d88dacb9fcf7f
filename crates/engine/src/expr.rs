//! Compiled scalar expressions.
//!
//! Column references are resolved to positional indices once, at plan
//! build time, so row-at-a-time evaluation does no name lookups. Booleans
//! are represented as `Value::Int(0 | 1)` with `Value::Null` as SQL's
//! *unknown*; [`CompiledExpr::eval_predicate`] maps unknown to `false` (WHERE semantics).
//!
//! This module owns the expression tree; evaluating it is
//! `crate::vexpr`'s job, and the `Row`-taking methods here are views
//! over that one evaluator.

use crate::vexpr::{cell_truth, eval_cells, eval_predicate_cells};
use qcc_common::{CellRef, QccError, Result, Row, Schema, Value};
use qcc_sql::{BinaryOp, Expr, UnaryOp};

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
    fn node_count_counts() {
        let e = compile_where("a + 1 > 10 AND b IS NULL");
        assert!(e.node_count() >= 6);
    }
}
