//! The federated optimizer's cost model primitives.
//!
//! Per the paper (§3): *"The parameters associated with cost functions in II
//! include first tuple cost, next tuple cost, and cardinality, and total
//! cost (i.e. first tuple cost + next tuple cost × cardinality)."*
//!
//! Costs are dimensionless "optimizer units"; the simulation maps one unit
//! to one virtual millisecond on an unloaded, speed-1.0 server, which is the
//! conventional calibration point.

use std::fmt;
use std::ops::{Add, Mul};

/// An estimated (or calibrated) cost of producing a stream of tuples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    /// Cost to produce the first tuple (setup: plan dispatch, first probe).
    pub first_tuple: f64,
    /// Marginal cost per additional tuple.
    pub next_tuple: f64,
    /// Estimated number of output tuples.
    pub cardinality: f64,
}

impl Cost {
    /// A zero cost.
    pub const ZERO: Cost = Cost {
        first_tuple: 0.0,
        next_tuple: 0.0,
        cardinality: 0.0,
    };

    /// The "never pick this" cost the QCC assigns to unavailable servers.
    pub const INFINITE: Cost = Cost {
        first_tuple: f64::INFINITY,
        next_tuple: f64::INFINITY,
        cardinality: 0.0,
    };

    /// Build a cost from its three components.
    pub fn new(first_tuple: f64, next_tuple: f64, cardinality: f64) -> Self {
        Cost {
            first_tuple,
            next_tuple,
            cardinality,
        }
    }

    /// A cost that is entirely setup (no per-tuple component).
    pub fn fixed(total: f64) -> Self {
        Cost {
            first_tuple: total,
            next_tuple: 0.0,
            cardinality: 0.0,
        }
    }

    /// Total cost = first tuple cost + next tuple cost × cardinality.
    pub fn total(&self) -> f64 {
        if self.first_tuple.is_infinite() || self.next_tuple.is_infinite() {
            return f64::INFINITY;
        }
        self.first_tuple + self.next_tuple * self.cardinality
    }

    /// True when the QCC has pinned this cost to infinity (server down).
    pub fn is_infinite(&self) -> bool {
        self.total().is_infinite()
    }

    /// Scale both cost components by a calibration factor, leaving the
    /// cardinality estimate untouched. This is exactly what the QCC does
    /// with its per-server calibration factor.
    pub fn calibrate(&self, factor: f64) -> Cost {
        Cost {
            first_tuple: self.first_tuple * factor,
            next_tuple: self.next_tuple * factor,
            cardinality: self.cardinality,
        }
    }

    /// Sequential composition: do `self`, then `other` (cardinality of the
    /// combined stream is `other`'s — the downstream operator's output).
    pub fn then(&self, other: &Cost) -> Cost {
        Cost {
            first_tuple: self.total() + other.first_tuple,
            next_tuple: other.next_tuple,
            cardinality: other.cardinality,
        }
    }
}

impl Add for Cost {
    type Output = Cost;
    /// Parallel composition of two independent streams consumed together:
    /// setup costs and per-stream totals add; cardinalities add.
    fn add(self, rhs: Cost) -> Cost {
        Cost {
            first_tuple: self.first_tuple + rhs.first_tuple,
            next_tuple: weighted_next(self, rhs),
            cardinality: self.cardinality + rhs.cardinality,
        }
    }
}

/// Per-tuple cost of a merged stream: preserves total cost additivity.
fn weighted_next(a: Cost, b: Cost) -> f64 {
    let card = a.cardinality + b.cardinality;
    if card <= 0.0 {
        return a.next_tuple.max(b.next_tuple);
    }
    (a.next_tuple * a.cardinality + b.next_tuple * b.cardinality) / card
}

impl Mul<f64> for Cost {
    type Output = Cost;
    fn mul(self, rhs: f64) -> Cost {
        self.calibrate(rhs)
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cost(first={:.2}, next={:.4}, card={:.0}, total={:.2})",
            self.first_tuple,
            self.next_tuple,
            self.cardinality,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_formula_matches_paper() {
        let c = Cost::new(5.0, 0.5, 100.0);
        assert_eq!(c.total(), 55.0);
    }

    #[test]
    fn calibrate_scales_costs_not_cardinality() {
        let c = Cost::new(5.0, 0.5, 100.0).calibrate(1.4);
        assert!((c.first_tuple - 7.0).abs() < 1e-12);
        assert!((c.next_tuple - 0.7).abs() < 1e-12);
        assert_eq!(c.cardinality, 100.0);
        assert!((c.total() - 77.0).abs() < 1e-9);
    }

    #[test]
    fn infinite_cost_dominates() {
        assert!(Cost::INFINITE.is_infinite());
        assert!(Cost::INFINITE.calibrate(0.5).is_infinite());
    }

    #[test]
    fn add_preserves_total() {
        let a = Cost::new(2.0, 0.1, 50.0);
        let b = Cost::new(3.0, 0.3, 10.0);
        let sum = a + b;
        assert!((sum.total() - (a.total() + b.total())).abs() < 1e-9);
        assert_eq!(sum.cardinality, 60.0);
    }

    #[test]
    fn then_sequences_totals() {
        let a = Cost::new(2.0, 0.1, 50.0); // total 7
        let b = Cost::new(1.0, 0.2, 10.0); // total 3
        let seq = a.then(&b);
        assert!((seq.total() - 10.0).abs() < 1e-9);
        assert_eq!(seq.cardinality, 10.0);
    }
}
