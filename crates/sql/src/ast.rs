//! Abstract syntax tree for the SQL subset, with a `Display` implementation
//! that re-emits valid SQL (used to ship fragments to remote servers).

use qcc_common::Value;
use std::fmt;

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Logical OR.
    Or,
    /// Logical AND.
    And,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinaryOp {
    /// SQL spelling of the operator.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinaryOp::Or => "OR",
            BinaryOp::And => "AND",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        }
    }

    /// Parser precedence (higher binds tighter).
    pub fn precedence(&self) -> u8 {
        match self {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => 4,
            BinaryOp::Add | BinaryOp::Sub => 5,
            BinaryOp::Mul | BinaryOp::Div => 6,
        }
    }

    /// True for comparison operators.
    pub fn is_comparison(&self) -> bool {
        self.precedence() == 4
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `AVG`
    Avg,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
}

impl AggFunc {
    /// SQL spelling.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// A scalar or aggregate expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference, optionally qualified with a table/nickname.
    Column {
        /// Table or alias qualifier.
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// Literal constant.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Aggregate call. `arg == None` means `COUNT(*)`.
    Agg {
        /// Aggregate function.
        func: AggFunc,
        /// Argument (`None` for `COUNT(*)`).
        arg: Option<Box<Expr>>,
        /// DISTINCT aggregation.
        distinct: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// List members.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'` with `%` and `_` wildcards.
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern literal.
        pattern: String,
        /// True for `NOT LIKE`.
        negated: bool,
    },
}

impl Expr {
    /// Convenience: unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            table: None,
            name: name.into(),
        }
    }

    /// Convenience: qualified column reference.
    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column {
            table: Some(table.into()),
            name: name.into(),
        }
    }

    /// Convenience: literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Convenience: binary op.
    pub fn binary(op: BinaryOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `self AND other`, flattening a `None` left side.
    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::And, self, other)
    }

    /// True if the expression (transitively) contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Column { .. } | Expr::Literal(_) => false,
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Unary { expr, .. } => expr.contains_aggregate(),
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            Expr::Like { expr, .. } => expr.contains_aggregate(),
        }
    }

    /// Collect all column references into `out`.
    pub fn collect_columns<'a>(&'a self, out: &mut Vec<(&'a Option<String>, &'a str)>) {
        match self {
            Expr::Column { table, name } => out.push((table, name)),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Unary { expr, .. } => expr.collect_columns(out),
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.collect_columns(out);
                }
            }
            Expr::IsNull { expr, .. } => expr.collect_columns(out),
            Expr::InList { expr, list, .. } => {
                expr.collect_columns(out);
                for e in list {
                    e.collect_columns(out);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.collect_columns(out);
                low.collect_columns(out);
                high.collect_columns(out);
            }
            Expr::Like { expr, .. } => expr.collect_columns(out),
        }
    }
}

/// An item in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional output name.
        alias: Option<String>,
    },
}

/// A base table reference with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table (or nickname) name.
    pub name: String,
    /// Optional alias.
    pub alias: Option<String>,
}

impl TableRef {
    /// A table reference with no alias.
    pub fn new(name: impl Into<String>) -> Self {
        TableRef {
            name: name.into(),
            alias: None,
        }
    }

    /// The name the table's columns are qualified with (alias if present).
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// An explicit `JOIN ... ON` clause (inner joins only).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// Joined table.
    pub table: TableRef,
    /// Join condition.
    pub on: Expr,
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort expression.
    pub expr: Expr,
    /// Descending order.
    pub desc: bool,
}

/// A parsed `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// First FROM table.
    pub from: TableRef,
    /// Additional comma-listed FROM tables (implicit cross joins, usually
    /// constrained in WHERE).
    pub from_rest: Vec<TableRef>,
    /// Explicit `JOIN ... ON` clauses.
    pub joins: Vec<JoinClause>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` keys.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderItem>,
    /// `LIMIT` row count.
    pub limit: Option<u64>,
}

impl SelectStmt {
    /// A minimal `SELECT * FROM name` statement, for building in code.
    pub fn scan(name: impl Into<String>) -> Self {
        SelectStmt {
            distinct: false,
            items: vec![SelectItem::Wildcard],
            from: TableRef::new(name),
            from_rest: vec![],
            joins: vec![],
            where_clause: None,
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
        }
    }

    /// Every table referenced in FROM / JOIN, in syntactic order.
    pub fn tables(&self) -> Vec<&TableRef> {
        let mut out = vec![&self.from];
        out.extend(self.from_rest.iter());
        out.extend(self.joins.iter().map(|j| &j.table));
        out
    }
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column { table, name } => match table {
                Some(t) => write!(f, "{t}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { op, left, right } => {
                // Parenthesize everything nested for unambiguous round-trips.
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => write!(f, "(-{expr})"),
                UnaryOp::Not => write!(f, "(NOT {expr})"),
            },
            Expr::Agg {
                func,
                arg,
                distinct,
            } => {
                write!(f, "{}(", func.name())?;
                if *distinct {
                    write!(f, "DISTINCT ")?;
                }
                match arg {
                    Some(a) => write!(f, "{a})"),
                    None => write!(f, "*)"),
                }
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE '{}')",
                if *negated { "NOT " } else { "" },
                pattern.replace('\'', "''")
            ),
        }
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => write!(f, "*"),
            SelectItem::Expr { expr, alias } => match alias {
                Some(a) => write!(f, "{expr} AS {a}"),
                None => write!(f, "{expr}"),
            },
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} {a}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, " FROM {}", self.from)?;
        for t in &self.from_rest {
            write!(f, ", {t}")?;
        }
        for j in &self.joins {
            write!(f, " JOIN {} ON {}", j.table, j.on)?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", o.expr)?;
                if o.desc {
                    write!(f, " DESC")?;
                }
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_simple_select() {
        let mut s = SelectStmt::scan("orders");
        s.where_clause = Some(Expr::binary(
            BinaryOp::Gt,
            Expr::col("amount"),
            Expr::lit(100i64),
        ));
        assert_eq!(s.to_string(), "SELECT * FROM orders WHERE (amount > 100)");
    }

    #[test]
    fn display_join_and_agg() {
        let mut s = SelectStmt::scan("a");
        s.items = vec![SelectItem::Expr {
            expr: Expr::Agg {
                func: AggFunc::Sum,
                arg: Some(Box::new(Expr::qcol("a", "x"))),
                distinct: false,
            },
            alias: Some("total".into()),
        }];
        s.joins.push(JoinClause {
            table: TableRef {
                name: "b".into(),
                alias: Some("bb".into()),
            },
            on: Expr::binary(BinaryOp::Eq, Expr::qcol("a", "id"), Expr::qcol("bb", "id")),
        });
        s.group_by = vec![Expr::qcol("a", "k")];
        assert_eq!(
            s.to_string(),
            "SELECT SUM(a.x) AS total FROM a JOIN b bb ON (a.id = bb.id) GROUP BY a.k"
        );
    }

    #[test]
    fn contains_aggregate_traversal() {
        let plain = Expr::binary(BinaryOp::Add, Expr::col("a"), Expr::lit(1i64));
        assert!(!plain.contains_aggregate());
        let agg = Expr::binary(
            BinaryOp::Gt,
            Expr::Agg {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            },
            Expr::lit(5i64),
        );
        assert!(agg.contains_aggregate());
    }

    #[test]
    fn collect_columns_finds_all() {
        let e = Expr::Between {
            expr: Box::new(Expr::qcol("t", "a")),
            low: Box::new(Expr::col("b")),
            high: Box::new(Expr::lit(10i64)),
            negated: false,
        };
        let mut cols = vec![];
        e.collect_columns(&mut cols);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].1, "a");
        assert_eq!(cols[1].1, "b");
    }

    #[test]
    fn binding_name_prefers_alias() {
        assert_eq!(TableRef::new("t").binding_name(), "t");
        let aliased = TableRef {
            name: "t".into(),
            alias: Some("x".into()),
        };
        assert_eq!(aliased.binding_name(), "x");
    }

    #[test]
    fn like_pattern_escaped() {
        let e = Expr::Like {
            expr: Box::new(Expr::col("name")),
            pattern: "o'%".into(),
            negated: true,
        };
        assert_eq!(e.to_string(), "(name NOT LIKE 'o''%')");
    }
}
