//! Rows and schemas.

use crate::error::{QccError, Result};
use crate::value::{DataType, Value};
use std::fmt;

/// A named, typed column in a schema. The optional `table` qualifier carries
/// the (nick)name the column was bound from, so that `t1.a` and `t2.a` stay
/// distinguishable after joins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Optional table / nickname qualifier.
    pub table: Option<String>,
    /// Column name.
    pub name: String,
    /// Scalar type of the column.
    pub ty: DataType,
}

impl Column {
    /// An unqualified column.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Column {
            table: None,
            name: name.into(),
            ty,
        }
    }

    /// A column qualified with a table name.
    pub fn qualified(table: impl Into<String>, name: impl Into<String>, ty: DataType) -> Self {
        Column {
            table: Some(table.into()),
            name: name.into(),
            ty,
        }
    }

    /// True if this column answers to the given (optionally qualified) name.
    pub fn matches(&self, table: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match table {
            None => true,
            Some(t) => self
                .table
                .as_deref()
                .is_some_and(|own| own.eq_ignore_ascii_case(t)),
        }
    }
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{}.{}", t, self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Create a schema from columns.
    pub fn new(columns: Vec<Column>) -> Self {
        Schema { columns }
    }

    /// Empty schema.
    pub fn empty() -> Self {
        Schema { columns: vec![] }
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of the column answering to `table.name`, erroring when the
    /// reference is unknown or ambiguous.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize> {
        let mut found = None;
        for (i, c) in self.columns.iter().enumerate() {
            if c.matches(table, name) {
                if found.is_some() {
                    return Err(QccError::AmbiguousColumn(format_col(table, name)));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| QccError::UnknownColumn(format_col(table, name)))
    }

    /// Column at an index.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// New schema with every column qualified by `table` (used when binding
    /// a base table under an alias).
    pub fn qualify(&self, table: &str) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| Column {
                    table: Some(table.to_owned()),
                    name: c.name.clone(),
                    ty: c.ty,
                })
                .collect(),
        }
    }

    /// Concatenation of two schemas (the shape of a join output).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Schema { columns }
    }

    /// New schema keeping only the columns at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
        }
    }
}

fn format_col(table: Option<&str>, name: &str) -> String {
    match table {
        Some(t) => format!("{t}.{name}"),
        None => name.to_owned(),
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c} {}", c.ty)?;
        }
        write!(f, ")")
    }
}

/// A materialized tuple.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Create a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// The values, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at a column index.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the row has no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Concatenate two rows (join output).
    pub fn join(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend(self.values.iter().cloned());
        values.extend(other.values.iter().cloned());
        Row { values }
    }

    /// New row keeping only the values at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row {
            values: indices.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }

    /// Approximate wire size of the row in bytes (for the network model).
    pub fn byte_width(&self) -> usize {
        self.values.iter().map(Value::byte_width).sum()
    }

    /// Consume the row, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row { values }
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema_ab() -> Schema {
        Schema::new(vec![
            Column::qualified("t", "a", DataType::Int),
            Column::qualified("t", "b", DataType::Str),
        ])
    }

    #[test]
    fn resolve_unqualified_and_qualified() {
        let s = schema_ab();
        assert_eq!(s.resolve(None, "a").unwrap(), 0);
        assert_eq!(s.resolve(Some("t"), "b").unwrap(), 1);
        assert_eq!(s.resolve(Some("T"), "B").unwrap(), 1, "case-insensitive");
    }

    #[test]
    fn resolve_unknown_column_errors() {
        let s = schema_ab();
        assert!(matches!(
            s.resolve(None, "zzz"),
            Err(QccError::UnknownColumn(_))
        ));
        assert!(matches!(
            s.resolve(Some("other"), "a"),
            Err(QccError::UnknownColumn(_))
        ));
    }

    #[test]
    fn resolve_ambiguous_column_errors() {
        let s = Schema::new(vec![
            Column::qualified("t1", "a", DataType::Int),
            Column::qualified("t2", "a", DataType::Int),
        ]);
        assert!(matches!(
            s.resolve(None, "a"),
            Err(QccError::AmbiguousColumn(_))
        ));
        assert_eq!(s.resolve(Some("t2"), "a").unwrap(), 1);
    }

    #[test]
    fn join_concatenates() {
        let s = schema_ab();
        let joined = s.join(&s);
        assert_eq!(joined.len(), 4);
        let r = Row::new(vec![Value::Int(1), Value::from("x")]);
        let j = r.join(&r);
        assert_eq!(j.len(), 4);
        assert_eq!(j.get(2), &Value::Int(1));
    }

    #[test]
    fn project_reorders() {
        let r = Row::new(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(
            r.project(&[2, 0]),
            Row::new(vec![Value::Int(3), Value::Int(1)])
        );
        let s = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
            Column::new("c", DataType::Int),
        ]);
        let p = s.project(&[2, 0]);
        assert_eq!(p.column(0).name, "c");
        assert_eq!(p.column(1).name, "a");
    }

    #[test]
    fn qualify_rewrites_table() {
        let s = schema_ab().qualify("alias");
        assert_eq!(s.column(0).table.as_deref(), Some("alias"));
        assert!(s.resolve(Some("alias"), "a").is_ok());
        assert!(s.resolve(Some("t"), "a").is_err());
    }
}
