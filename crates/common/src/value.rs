//! SQL values and data types.
//!
//! The engines in this workspace operate over a deliberately small scalar
//! type system — 64-bit integers, 64-bit floats, UTF-8 strings, and NULL —
//! which is all the paper's experimental workload (§5) requires.

use crate::column::CellRef;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Scalar data types supported by the engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "VARCHAR"),
        }
    }
}

/// A single SQL scalar value.
///
/// `Value` implements a *total* order (needed for sorting and grouping):
/// NULL sorts first, then integers and floats (compared numerically, and
/// exactly, across the two types), then strings. `NaN` floats compare
/// equal to each other and greater than every other float so that ordering
/// stays total.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// The data type of this value, or `None` for NULL (which is untyped).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// True iff this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view of the value, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view of the value, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Total order over all values (NULLs first). Used for ORDER BY and for
    /// grouping keys; distinct from [`crate::CellRef::sql_cmp`], which is
    /// three-valued. Scalar SQL semantics (comparison, arithmetic) are
    /// defined on [`crate::CellRef`] only — view a value with
    /// [`crate::CellRef::of`].
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => int_float_cmp(*a, *b),
            (Float(a), Int(b)) => int_float_cmp(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            // Numbers sort before strings.
            (Int(_) | Float(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_) | Float(_)) => Ordering::Greater,
        }
    }

    /// Approximate in-memory width of the value in bytes, used by the
    /// network model to charge transfer time for shipped tuples.
    pub fn byte_width(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => s.len(),
        }
    }
}

/// 2^63: the floats in `[-TWO_63, TWO_63)` are the ones whose integral
/// part is an `i64`.
pub(crate) const TWO_63: f64 = 9_223_372_036_854_775_808.0;

/// `Int(a)` against `Float(b)`, exactly. Casting the integer is lossy above
/// 2^53 (`9007199254740993 as f64 == 9007199254740992.0`), which made
/// equality non-transitive and disagree with the hash, so the cast is used
/// only where it is exact; NaN and ±0.0 keep `f64::total_cmp`'s places.
pub(crate) fn int_float_cmp(a: i64, b: f64) -> Ordering {
    const EXACT: i64 = 1 << 53;
    if (-EXACT..=EXACT).contains(&a) || b.is_nan() {
        return (a as f64).total_cmp(&b);
    }
    if b >= TWO_63 {
        return Ordering::Less;
    }
    if b < -TWO_63 {
        return Ordering::Greater;
    }
    // `b` is in [-2^63, 2^63): its integral part is an exact i64, and what
    // is left decides a tie.
    let whole = b.trunc();
    a.cmp(&(whole as i64))
        .then_with(|| 0.0f64.total_cmp(&(b - whole)))
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(CellRef::of(self).hash64());
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Str(String::new()));
    }

    #[test]
    fn cross_type_numeric_compare() {
        assert_eq!(Value::Int(3).total_cmp(&Value::Float(3.0)), Ordering::Equal);
        assert!(Value::Int(3) < Value::Float(3.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn numbers_sort_before_strings() {
        assert!(Value::Int(999) < Value::Str("0".into()));
        assert!(Value::Float(1e300) < Value::Str("a".into()));
    }

    #[test]
    fn hash_consistent_with_eq_across_types() {
        let a = Value::Int(42);
        let b = Value::Float(42.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn display_escapes_quotes() {
        assert_eq!(Value::Str("o'neil".into()).to_string(), "'o''neil'");
    }

    #[test]
    fn nan_ordering_is_total() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        assert!(Value::Float(f64::INFINITY) < nan);
    }

    #[test]
    fn byte_widths() {
        assert_eq!(Value::Int(1).byte_width(), 8);
        assert_eq!(Value::Str("abcd".into()).byte_width(), 4);
        assert_eq!(Value::Null.byte_width(), 1);
    }
}
