//! Time-varying level profiles.
//!
//! A [`LoadProfile`] maps virtual time to a level in `[0, 1]`. The same
//! type drives server background load and link congestion (where the level
//! is interpreted as utilization of the bottleneck resource).

use qcc_common::SimTime;

/// A deterministic function from virtual time to a level in `[0, 1]`.
#[derive(Debug, Clone)]
pub enum LoadProfile {
    /// Always the same level.
    Constant(f64),
    /// Piecewise-constant steps: `(from, level)` pairs, sorted by time.
    /// The level before the first step is 0.
    Steps(Vec<(SimTime, f64)>),
}

impl LoadProfile {
    /// The level at time `t`, clamped to `[0, 1]`.
    pub fn level(&self, t: SimTime) -> f64 {
        let v = match self {
            LoadProfile::Constant(l) => *l,
            LoadProfile::Steps(steps) => {
                let mut level = 0.0;
                for (from, l) in steps {
                    if t >= *from {
                        level = *l;
                    } else {
                        break;
                    }
                }
                level
            }
        };
        v.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile() {
        let p = LoadProfile::Constant(0.7);
        assert_eq!(p.level(SimTime::ZERO), 0.7);
        assert_eq!(p.level(SimTime::from_millis(1e6)), 0.7);
        assert_eq!(
            LoadProfile::Constant(3.0).level(SimTime::ZERO),
            1.0,
            "clamped"
        );
    }

    #[test]
    fn steps_profile() {
        let p = LoadProfile::Steps(vec![
            (SimTime::from_millis(100.0), 0.5),
            (SimTime::from_millis(200.0), 0.9),
        ]);
        assert_eq!(p.level(SimTime::from_millis(50.0)), 0.0);
        assert_eq!(p.level(SimTime::from_millis(100.0)), 0.5);
        assert_eq!(p.level(SimTime::from_millis(150.0)), 0.5);
        assert_eq!(p.level(SimTime::from_millis(250.0)), 0.9);
    }
}
