//! The scalar evaluator.
//!
//! [`eval_cells`] is the one implementation of expression evaluation —
//! three-valued logic, NULL propagation, arithmetic (delegated to
//! [`CellRef`]). It reads operands through a [`Cells`] view, so the same
//! code serves a row of typed column vectors ([`RowView`], [`PairView`])
//! and a materialized [`Row`]; [`CompiledExpr::eval`] is the `Row` view
//! with the result made owned. Strings are borrowed, never cloned, during
//! evaluation.

use crate::expr::{like_match, CompiledExpr};
use qcc_common::{CellRef, ColumnVector, Row};
use qcc_sql::{BinaryOp, UnaryOp};
use std::cmp::Ordering;
use std::sync::Arc;

/// A row-shaped view into columnar data: cell `i` of the current row.
pub(crate) trait Cells {
    /// The cell in column `i`.
    fn col(&self, i: usize) -> CellRef<'_>;
}

/// One row of a single chunk.
pub(crate) struct RowView<'a> {
    /// The chunk's columns.
    pub cols: &'a [Arc<ColumnVector>],
    /// Physical row index within the chunk.
    pub row: usize,
}

impl Cells for RowView<'_> {
    fn col(&self, i: usize) -> CellRef<'_> {
        self.cols[i].cell(self.row)
    }
}

/// A joined row: left-side columns then right-side columns.
pub(crate) struct PairView<'a> {
    /// Build/outer-side columns.
    pub left: &'a [Arc<ColumnVector>],
    /// Physical row index on the left side.
    pub lrow: usize,
    /// Probe/inner-side columns.
    pub right: &'a [Arc<ColumnVector>],
    /// Physical row index on the right side.
    pub rrow: usize,
}

impl Cells for PairView<'_> {
    fn col(&self, i: usize) -> CellRef<'_> {
        if i < self.left.len() {
            self.left[i].cell(self.lrow)
        } else {
            self.right[i - self.left.len()].cell(self.rrow)
        }
    }
}

impl Cells for Row {
    fn col(&self, i: usize) -> CellRef<'_> {
        CellRef::of(self.get(i))
    }
}

/// SQL truthiness of a cell: nonzero numbers are true, NULL is unknown.
pub(crate) fn cell_truth(c: CellRef<'_>) -> Option<bool> {
    match c {
        CellRef::Null => None,
        CellRef::Int(i) => Some(i != 0),
        CellRef::Float(f) => Some(f != 0.0),
        CellRef::Str(_) => Some(false),
    }
}

fn bool_cell(b: bool) -> CellRef<'static> {
    CellRef::Int(if b { 1 } else { 0 })
}

/// Evaluate an expression over a cell view, with booleans as `Int(0|1)`
/// and unknown as `Null`.
pub(crate) fn eval_cells<'a, C: Cells>(expr: &'a CompiledExpr, cells: &'a C) -> CellRef<'a> {
    match expr {
        CompiledExpr::Column(i) => cells.col(*i),
        CompiledExpr::Literal(v) => CellRef::of(v),
        CompiledExpr::Binary { op, left, right } => {
            eval_binary(*op, eval_cells(left, cells), eval_cells(right, cells))
        }
        CompiledExpr::Unary { op, expr } => {
            let v = eval_cells(expr, cells);
            match op {
                UnaryOp::Neg => match v {
                    // `-i64::MIN` widens to Float, as binary arithmetic does.
                    CellRef::Int(i) => i
                        .checked_neg()
                        .map_or(CellRef::Float(-(i as f64)), CellRef::Int),
                    CellRef::Float(f) => CellRef::Float(-f),
                    _ => CellRef::Null,
                },
                UnaryOp::Not => match cell_truth(v) {
                    Some(b) => bool_cell(!b),
                    None => CellRef::Null,
                },
            }
        }
        CompiledExpr::IsNull { expr, negated } => {
            let isnull = eval_cells(expr, cells).is_null();
            bool_cell(isnull != *negated)
        }
        CompiledExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_cells(expr, cells);
            if v.is_null() {
                return CellRef::Null;
            }
            let mut saw_null = false;
            for item in list {
                let member = eval_cells(item, cells);
                match v.sql_eq(member) {
                    Some(true) => return bool_cell(!*negated),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                CellRef::Null
            } else {
                bool_cell(*negated)
            }
        }
        CompiledExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_cells(expr, cells);
            let lo = eval_cells(low, cells);
            let hi = eval_cells(high, cells);
            let ge = v.sql_cmp(lo).map(|o| o != Ordering::Less);
            let le = v.sql_cmp(hi).map(|o| o != Ordering::Greater);
            match (ge, le) {
                (Some(a), Some(b)) => bool_cell((a && b) != *negated),
                // Short-circuit definite falsity even with one NULL bound.
                (Some(false), _) | (_, Some(false)) => bool_cell(*negated),
                _ => CellRef::Null,
            }
        }
        CompiledExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_cells(expr, cells);
            match v.as_str() {
                Some(s) => bool_cell(like_match(s, pattern) != *negated),
                None => CellRef::Null,
            }
        }
    }
}

fn eval_binary<'a>(op: BinaryOp, l: CellRef<'a>, r: CellRef<'a>) -> CellRef<'a> {
    use BinaryOp::*;
    match op {
        And => match (cell_truth(l), cell_truth(r)) {
            (Some(false), _) | (_, Some(false)) => bool_cell(false),
            (Some(true), Some(true)) => bool_cell(true),
            _ => CellRef::Null,
        },
        Or => match (cell_truth(l), cell_truth(r)) {
            (Some(true), _) | (_, Some(true)) => bool_cell(true),
            (Some(false), Some(false)) => bool_cell(false),
            _ => CellRef::Null,
        },
        Eq | NotEq | Lt | LtEq | Gt | GtEq => l
            .sql_cmp(r)
            .map_or(CellRef::Null, |ord| bool_cell(cmp_holds(op, ord))),
        Add => l.add(r),
        Sub => l.sub(r),
        Mul => l.mul(r),
        Div => l.div(r),
    }
}

/// Whether comparison operator `op` holds for operands ordered `ord`
/// (false for a non-comparison operator).
#[inline]
pub(crate) fn cmp_holds(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => false,
    }
}

/// Evaluate as a WHERE predicate: unknown (`NULL`) rejects the row.
pub(crate) fn eval_predicate_cells<C: Cells>(expr: &CompiledExpr, cells: &C) -> bool {
    cell_truth(eval_cells(expr, cells)).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::{Column, DataType, Row, Schema, Value};
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
        crate::expr::compile(stmt.where_clause.as_ref().unwrap(), &schema()).unwrap()
    }

    /// `CompiledExpr::eval` is this evaluator over the `Row` view, so this
    /// pins the two kinds of view against each other: typed column
    /// vectors (`RowView`) and a materialized `Row` must hand the
    /// evaluator the same cells, on every predicate shape and NULL
    /// pattern the expression language supports.
    #[test]
    fn eval_cells_agrees_with_eval() {
        let predicates = [
            "a + 1 > 10",
            "a > 10",
            "a > 0 OR c > 0.0",
            "a > 0 AND c > 0.0",
            "NOT (a > 0 AND c > 0.0)",
            "a IN (1, 2, 3)",
            "a NOT IN (1, 2)",
            "a IN (1, NULL)",
            "a BETWEEN 2 AND 4",
            "a NOT BETWEEN 2 AND 4",
            "b IS NULL",
            "b IS NOT NULL",
            "b LIKE 'a%'",
            "a LIKE 'x%'",
            "-a < 0",
            "a * 2 + 1 = 7",
            "a / 0 IS NULL",
            "c / 2.0 > 0.2",
            "a - c < 1",
        ];
        let rows = [
            Row::new(vec![Value::Int(3), Value::from("abc"), Value::Float(0.5)]),
            Row::new(vec![Value::Int(0), Value::from("xyz"), Value::Float(0.0)]),
            Row::new(vec![Value::Null, Value::Null, Value::Null]),
            Row::new(vec![Value::Int(11), Value::from(""), Value::Float(-2.5)]),
        ];
        // Column-vector copy of the rows.
        let mut cols = vec![
            ColumnVector::new_for(Some(DataType::Int)),
            ColumnVector::new_for(Some(DataType::Str)),
            ColumnVector::new_for(Some(DataType::Float)),
        ];
        for row in &rows {
            for (i, v) in row.values().iter().enumerate() {
                cols[i].push(v.clone());
            }
        }
        let cols: Vec<Arc<ColumnVector>> = cols.into_iter().map(Arc::new).collect();
        for sql in predicates {
            let e = compile_where(sql);
            for (r, row) in rows.iter().enumerate() {
                let view = RowView {
                    cols: &cols,
                    row: r,
                };
                assert_eq!(
                    eval_cells(&e, &view).to_value(),
                    e.eval(row),
                    "{sql} on row {r}"
                );
                assert_eq!(
                    eval_predicate_cells(&e, &view),
                    e.eval_predicate(row),
                    "predicate {sql} on row {r}"
                );
            }
        }
    }
}
