//! Small statistics helpers used by the Query Cost Calibrator.
//!
//! The paper (§3.4) says QCC "maintains aggregated histories of the various
//! dynamic values associated with the remote source access costs to compute
//! and maintain running averages", and adjusts the calibration cycle from
//! them. This is the history container.

/// Fixed-capacity sliding window of recent observations.
///
/// The QCC's calibration factor is "the ratio of the average runtime cost
/// vs. the average estimated cost" over recent history; bounding the window
/// lets the factor track load *changes* instead of averaging them away.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    buf: Vec<f64>,
    capacity: usize,
    next: usize,
}

impl SlidingWindow {
    /// A window holding at most `capacity` observations. Panics when
    /// `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
        }
    }

    /// Add an observation, evicting the oldest when full.
    pub fn push(&mut self, x: f64) {
        if self.buf.len() < self.capacity {
            self.buf.push(x);
        } else {
            self.buf[self.next] = x;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Number of observations currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no observations are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Mean of held observations (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else {
            Some(self.buf.iter().sum::<f64>() / self.buf.len() as f64)
        }
    }

    /// Population variance of held observations (`None` with < 2).
    pub fn variance(&self) -> Option<f64> {
        if self.buf.len() < 2 {
            return None;
        }
        let mean = self.mean().expect("non-empty");
        Some(self.buf.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / self.buf.len() as f64)
    }

    /// Coefficient of variation of held observations (`None` with < 2).
    pub fn coeff_of_variation(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var = self.variance()?;
        if mean.abs() < f64::EPSILON {
            Some(0.0)
        } else {
            Some(var.sqrt() / mean.abs())
        }
    }

    /// Drop all held observations.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_evicts_oldest() {
        let mut w = SlidingWindow::new(3);
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.push(x);
        }
        // 1.0 evicted; mean of {2,3,4} = 3.
        assert_eq!(w.mean(), Some(3.0));
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn window_mean_tracks_shift() {
        let mut w = SlidingWindow::new(4);
        for _ in 0..4 {
            w.push(1.0);
        }
        assert_eq!(w.mean(), Some(1.0));
        for _ in 0..4 {
            w.push(10.0);
        }
        assert_eq!(w.mean(), Some(10.0), "window forgets the old regime");
    }

    #[test]
    fn window_variance_and_cov() {
        let mut w = SlidingWindow::new(8);
        assert_eq!(w.variance(), None);
        w.push(5.0);
        assert_eq!(w.variance(), None);
        w.push(5.0);
        assert_eq!(w.variance(), Some(0.0));
        assert_eq!(w.coeff_of_variation(), Some(0.0));
        w.push(11.0);
        assert!(w.variance().unwrap() > 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn window_zero_capacity_panics() {
        SlidingWindow::new(0);
    }
}
