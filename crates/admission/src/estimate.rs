//! Per-template service-time estimator for the shed-on-dispatch policy.
//!
//! The controller keeps an EWMA of observed dispatch→completion times per
//! query template (fed back by the open-loop drivers from real outcomes,
//! which embed the calibrated routing and current contention). It is
//! updated only from the coordinator thread between scatter batches, so
//! every estimate
//! is a pure function of the arrival/outcome sequence and the whole layer
//! stays byte-identical across `QCC_THREADS` settings.
//!
//! An unknown template estimates `0.0` — optimistic by design: the first
//! instance of a template is always dispatched, and the measured outcome
//! seeds the estimate for its successors.

use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Smoothing factor of the EWMA: recent samples dominate quickly
/// (a surge shows up within a few completions) without single-sample
/// noise whipsawing the shed decision.
const ALPHA: f64 = 0.25;

fn ewma(current: Option<f64>, sample: f64) -> f64 {
    match current {
        Some(v) => (1.0 - ALPHA) * v + ALPHA * sample,
        None => sample,
    }
}

/// The estimator proper (one per [`crate::AdmissionController`]).
#[derive(Debug, Default)]
pub(crate) struct EstimateBook {
    exec_ms: Mutex<BTreeMap<String, f64>>,
}

impl EstimateBook {
    /// Fold one observed dispatch→completion time for `template`.
    pub(crate) fn record_exec(&self, template: &str, ms: f64) {
        if !ms.is_finite() || ms < 0.0 {
            return;
        }
        let mut exec_ms = self.exec_ms.lock();
        let next = ewma(exec_ms.get(template).copied(), ms);
        exec_ms.insert(template.to_string(), next);
    }

    /// Current execution-time estimate for `template` (`0.0` if unseen).
    pub(crate) fn exec_estimate(&self, template: &str) -> f64 {
        self.exec_ms.lock().get(template).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_seeds_then_ewma_smooths() {
        let book = EstimateBook::default();
        assert_eq!(
            book.exec_estimate("QT1"),
            0.0,
            "unseen template is optimistic"
        );
        book.record_exec("QT1", 100.0);
        assert_eq!(
            book.exec_estimate("QT1"),
            100.0,
            "first sample seeds directly"
        );
        book.record_exec("QT1", 200.0);
        let blended = book.exec_estimate("QT1");
        assert!(blended > 100.0 && blended < 200.0, "EWMA blends: {blended}");
        assert_eq!(book.exec_estimate("QT2"), 0.0, "templates are independent");
        for degenerate in [f64::NAN, -5.0, f64::INFINITY] {
            book.record_exec("QT2", degenerate);
        }
        assert_eq!(book.exec_estimate("QT2"), 0.0, "degenerate samples ignored");
    }
}
