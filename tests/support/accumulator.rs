//! The aggregate reference: one accumulator per group and aggregate, fed
//! one input value at a time (test support: `#[path]`-included by
//! `naive.rs` and by `qcc-engine`'s unit tests, so it may only name
//! `qcc_common` and `qcc_sql`).
//!
//! It shares no code with the engine's typed aggregate state, which
//! `exec::tests::typed_aggregate_state_equals_the_reference_accumulator`
//! checks against it to the bit.

use qcc_common::Value;
use qcc_sql::AggFunc;
use std::cmp::Ordering;
use std::collections::HashSet;

/// Aggregate accumulator. Each variant holds the state of the function it
/// computes and nothing else.
#[derive(Debug, Clone)]
pub enum AggAccumulator {
    /// `COUNT(*)` / `COUNT(x)`: rows, or non-NULL inputs.
    Count(u64),
    /// `SUM(x)`.
    Sum(Sum),
    /// `AVG(x)`.
    Avg(Sum),
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

/// Running sum of the numeric inputs, exact in `i64` (`int_sum`) until it
/// overflows or meets a float, then the `f64` kept alongside.
#[derive(Debug, Clone)]
pub struct Sum {
    count: u64,
    sum: f64,
    int_sum: Option<i64>,
}

impl Sum {
    const EMPTY: Sum = Sum {
        count: 0,
        sum: 0.0,
        int_sum: Some(0),
    };

    fn add(&mut self, v: &Value) {
        self.count += 1;
        match *v {
            Value::Int(i) => {
                self.sum += i as f64;
                self.int_sum = self.int_sum.and_then(|s| s.checked_add(i));
            }
            Value::Float(f) => {
                self.sum += f;
                self.int_sum = None;
            }
            _ => {}
        }
    }

    /// `SUM` of the inputs (`avg`: `AVG`); NULL if there were none.
    fn finish(&self, avg: bool) -> Value {
        match (self.count, self.int_sum) {
            (0, _) => Value::Null,
            (n, _) if avg => Value::Float(self.sum / n as f64),
            (_, Some(i)) => Value::Int(i),
            (_, None) => Value::Float(self.sum),
        }
    }
}

impl AggAccumulator {
    /// Fresh accumulator for a function.
    pub fn new(func: AggFunc, distinct: bool) -> Self {
        let acc = match func {
            AggFunc::Count => AggAccumulator::Count(0),
            AggFunc::Sum => AggAccumulator::Sum(Sum::EMPTY),
            AggFunc::Avg => AggAccumulator::Avg(Sum::EMPTY),
            AggFunc::Min => AggAccumulator::Extreme {
                best: None,
                replaces: Ordering::Less,
            },
            AggFunc::Max => AggAccumulator::Extreme {
                best: None,
                replaces: Ordering::Greater,
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

    /// Feed one input value (`None` means `COUNT(*)`'s row marker, which
    /// counts the row whatever it holds). NULL is no input.
    pub fn push(&mut self, v: Option<&Value>) {
        match (self, v) {
            (_, Some(Value::Null)) => {}
            (AggAccumulator::Count(n), _) => *n += 1,
            (AggAccumulator::Distinct { seen, inner }, Some(v)) => {
                if seen.insert(v.clone()) {
                    inner.push(Some(v));
                }
            }
            (AggAccumulator::Distinct { inner, .. }, None) => inner.push(None),
            (AggAccumulator::Sum(s) | AggAccumulator::Avg(s), Some(v)) => s.add(v),
            (AggAccumulator::Extreme { best, replaces }, Some(v)) => {
                if best.as_ref().is_none_or(|b| v.total_cmp(b) == *replaces) {
                    *best = Some(v.clone());
                }
            }
            // A row marker is no number to add or compare.
            (_, None) => {}
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
}
