//! qcc-obs: a deterministic, virtual-time observability layer.
//!
//! Two surfaces, one handle:
//!
//! * a **metrics registry** — counters, gauges and histograms keyed by a
//!   static metric name plus a sorted label set, rendered as a stable
//!   `name{k=v,...} value` text snapshot;
//! * a **structured event journal** — an append-only list of events (and
//!   spans, which are events carrying a duration), rendered as JSONL.
//!
//! Determinism is the design constraint, not an afterthought. The layer
//! holds no clock: every event timestamp is an explicit [`SimTime`]
//! supplied by the caller, so journals advance in virtual time only.
//! Under scatter-gather parallelism (DESIGN.md "Threading model") the
//! rules are:
//!
//! * **Counters** are commutative (`u64` additions), so worker threads may
//!   bump them directly — totals are thread-count independent.
//! * **Journal events, gauges and histograms** are order- or
//!   rounding-sensitive; they must be emitted from coordinator-sequential
//!   code, or buffered through a `Deferred` and applied at the gather
//!   barrier in task order.
//!
//! Followed, these rules make [`Obs::metrics_snapshot`] and
//! [`Obs::journal_snapshot`] byte-identical for any `QCC_THREADS`
//! (enforced by `tests/obs_determinism.rs`).
//!
//! A disabled handle ([`Obs::off`]) turns every operation into a cheap
//! no-op, so instrumented code never needs `if` guards.

use crate::time::SimTime;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Upper bounds (ms) of the fixed histogram buckets; the final implicit
/// bucket is `+inf`. Chosen to straddle the simulated latencies in play:
/// sub-millisecond pings up to multi-second phase queries.
pub const HISTOGRAM_BOUNDS_MS: [f64; 8] = [0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0];

/// Journal event kinds of the mid-query adaptivity machinery (streamed
/// fragment execution: stall detection, remainder re-dispatch, resume,
/// per-slot stream provenance). Shared between the federation (emitter)
/// and the sim oracles (checker) so the two can never drift on a string.
pub mod reroute_events {
    /// Stall detector fired: a fragment's source refused it on arrival
    /// (`reason = "arrival"`), died mid-stream (`reason = "interrupt"`), or
    /// overran `stall_factor ×` its calibrated estimate (`reason =
    /// "slow"`).
    pub const FRAGMENT_STALL: &str = "fragment_stall";
    /// The stalled slot was re-dispatched to another server: its
    /// remainder from the cursor on, or the whole fragment at cursor 0.
    pub const REROUTE_DISPATCH: &str = "reroute_dispatch";
    /// The re-dispatched slot completed and rejoined the merge.
    pub const FRAGMENT_RESUME: &str = "fragment_resume";
    /// Cursor-range provenance of a slot served by more than one source
    /// (`sources` field, e.g. `"S1:0..3+S2:3..7"`): the no-duplicate /
    /// no-loss oracle replays these ranges against `total_chunks`.
    pub const FRAGMENT_STREAM: &str = "fragment_stream";
}

/// One histogram: count/sum/min/max plus fixed cumulative-style buckets
/// (each slot counts observations `<=` the matching bound; the last slot
/// is the overflow).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Per-bucket observation counts (`HISTOGRAM_BOUNDS_MS` + overflow).
    pub buckets: [u64; HISTOGRAM_BOUNDS_MS.len() + 1],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HISTOGRAM_BOUNDS_MS.len() + 1],
        }
    }
}

impl Histogram {
    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let slot = HISTOGRAM_BOUNDS_MS
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(HISTOGRAM_BOUNDS_MS.len());
        self.buckets[slot] += 1;
    }
}

/// One registered metric series.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotone `u64` counter.
    Counter(u64),
    /// Last-write-wins `f64` gauge.
    Gauge(f64),
    /// Fixed-bucket latency histogram.
    Histogram(Histogram),
}

/// A typed journal field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string field.
    Str(String),
    /// An unsigned integer field.
    U64(u64),
    /// A float field (rendered as a JSON number when finite).
    F64(f64),
    /// A boolean field.
    Bool(bool),
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// One journal entry: a virtual timestamp, a static kind, and an ordered
/// field list (insertion order is preserved into the JSONL rendering).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual time the event happened (span start for spans).
    pub at: SimTime,
    /// Static event kind, e.g. `"probe"` or `"server_down"`.
    pub kind: &'static str,
    /// Ordered payload fields.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// The value of a field by name, if present.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// A string field by name, if present and a string.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        match self.field(name) {
            Some(FieldValue::Str(s)) => Some(s.as_str()),
            _ => None,
        }
    }
}

#[derive(Debug, Default)]
struct ObsInner {
    /// Keyed by the fully rendered series name (`name{k=v,...}`), which is
    /// already in snapshot order.
    metrics: Mutex<BTreeMap<String, Metric>>,
    journal: Mutex<Vec<Event>>,
}

/// The shared observability handle. Cheap to clone; a disabled handle
/// ([`Obs::off`], also the `Default`) makes every operation a no-op.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// An enabled, empty registry + journal.
    pub fn new() -> Self {
        Obs {
            inner: Some(Arc::new(ObsInner::default())),
        }
    }

    /// A disabled handle: every emit is a no-op, every snapshot empty.
    pub fn off() -> Self {
        Obs { inner: None }
    }

    /// Whether emissions are recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `delta` to a counter series. Safe from worker threads: counter
    /// additions commute, so totals are thread-count independent.
    pub fn counter_add(&self, name: &'static str, labels: &[(&'static str, &str)], delta: u64) {
        let Some(inner) = &self.inner else { return };
        let key = series_key(name, labels);
        let mut metrics = inner.metrics.lock();
        match metrics.entry(key).or_insert(Metric::Counter(0)) {
            Metric::Counter(v) => *v += delta,
            _ => debug_assert!(false, "metric {name} is not a counter"),
        }
    }

    /// Increment a counter series by one.
    pub fn counter_inc(&self, name: &'static str, labels: &[(&'static str, &str)]) {
        self.counter_add(name, labels, 1);
    }

    /// Current value of a counter series (0 when absent or disabled).
    pub fn counter_value(&self, name: &'static str, labels: &[(&'static str, &str)]) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        match inner.metrics.lock().get(&series_key(name, labels)) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Set a gauge series. Last write wins, so only emit from
    /// coordinator-sequential code (or a `Deferred`).
    pub fn gauge_set(&self, name: &'static str, labels: &[(&'static str, &str)], value: f64) {
        let Some(inner) = &self.inner else { return };
        let key = series_key(name, labels);
        inner.metrics.lock().insert(key, Metric::Gauge(value));
    }

    /// Record a histogram observation. Float sums do not commute, so only
    /// emit from coordinator-sequential code (or a `Deferred`).
    pub fn observe(&self, name: &'static str, labels: &[(&'static str, &str)], value: f64) {
        let Some(inner) = &self.inner else { return };
        let key = series_key(name, labels);
        let mut metrics = inner.metrics.lock();
        match metrics
            .entry(key)
            .or_insert(Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.observe(value),
            _ => debug_assert!(false, "metric {name} is not a histogram"),
        }
    }

    /// Append a journal event. Journal order is snapshot order, so only
    /// emit from coordinator-sequential code (or a `Deferred`).
    pub fn event(&self, at: SimTime, kind: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        let Some(inner) = &self.inner else { return };
        inner.journal.lock().push(Event { at, kind, fields });
    }

    /// Append a span: an event timestamped at `start` whose fields end
    /// with the elapsed virtual milliseconds.
    pub fn span(
        &self,
        kind: &'static str,
        start: SimTime,
        end: SimTime,
        mut fields: Vec<(&'static str, FieldValue)>,
    ) {
        if self.inner.is_none() {
            return;
        }
        fields.push(("ms", FieldValue::F64((end - start).as_millis())));
        self.event(start, kind, fields);
    }

    /// A copy of the full journal.
    pub fn journal(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => inner.journal.lock().clone(),
            None => Vec::new(),
        }
    }

    /// Number of journal entries.
    pub fn journal_len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.journal.lock().len(),
            None => 0,
        }
    }

    /// All journal entries of one kind, in journal order.
    pub fn events_of(&self, kind: &str) -> Vec<Event> {
        match &self.inner {
            Some(inner) => inner
                .journal
                .lock()
                .iter()
                .filter(|e| e.kind == kind)
                .cloned()
                .collect(),
            None => Vec::new(),
        }
    }

    /// The metrics registry as sorted `name{k=v,...} value` lines.
    pub fn metrics_snapshot(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let metrics = inner.metrics.lock();
        let mut out = String::new();
        for (series, metric) in metrics.iter() {
            match metric {
                Metric::Counter(v) => {
                    let _ = writeln!(out, "{series} {v}");
                }
                Metric::Gauge(v) => {
                    let _ = writeln!(out, "{series} {}", fmt_f64(*v));
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{series} count={} sum={} min={} max={}",
                        h.count,
                        fmt_f64(h.sum),
                        fmt_f64(h.min),
                        fmt_f64(h.max)
                    );
                    for (i, n) in h.buckets.iter().enumerate() {
                        match HISTOGRAM_BOUNDS_MS.get(i) {
                            Some(b) => {
                                let _ = write!(out, " le{}={n}", fmt_f64(*b));
                            }
                            None => {
                                let _ = write!(out, " inf={n}");
                            }
                        }
                    }
                    out.push('\n');
                }
            }
        }
        out
    }

    /// The journal as JSONL: one `{"at":..,"kind":..,<fields>}` object per
    /// line, fields in emission order.
    pub fn journal_snapshot(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let journal = inner.journal.lock();
        let mut out = String::new();
        for e in journal.iter() {
            let _ = write!(
                out,
                "{{\"at\":{},\"kind\":{}",
                fmt_f64(e.at.as_millis()),
                json_string(e.kind)
            );
            for (k, v) in &e.fields {
                let _ = write!(out, ",{}:", json_string(k));
                match v {
                    FieldValue::Str(s) => out.push_str(&json_string(s)),
                    FieldValue::U64(n) => {
                        let _ = write!(out, "{n}");
                    }
                    FieldValue::F64(f) => out.push_str(&fmt_f64(*f)),
                    FieldValue::Bool(b) => {
                        let _ = write!(out, "{b}");
                    }
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Render a series key: labels sorted by name so any emission order maps
/// to the same series.
fn series_key(name: &str, labels: &[(&'static str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_owned();
    }
    let mut sorted: Vec<(&str, &str)> = labels.iter().map(|&(k, v)| (k, v)).collect();
    sorted.sort_unstable();
    let mut key = String::with_capacity(name.len() + 16 * sorted.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{k}={v}");
        debug_assert!(
            !k.contains(['{', '}', ',', '=']) && !v.contains(['{', '}', ',', '=']),
            "label chars would make the series key ambiguous"
        );
    }
    key.push('}');
    key
}

/// Deterministic float rendering: shortest round-trip form for finite
/// values (Rust's `{}` for f64), quoted names for non-finite ones so the
/// JSONL stays parseable.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "\"NaN\"".to_owned()
    } else if v > 0.0 {
        "\"inf\"".to_owned()
    } else {
        "\"-inf\"".to_owned()
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_noop() {
        let obs = Obs::off();
        obs.counter_inc("c_total", &[]);
        obs.gauge_set("g", &[], 1.0);
        obs.observe("h_ms", &[], 2.0);
        obs.event(SimTime::from_millis(1.0), "e", vec![]);
        assert!(!obs.is_enabled());
        assert_eq!(obs.counter_value("c_total", &[]), 0);
        assert_eq!(obs.journal_len(), 0);
        assert_eq!(obs.metrics_snapshot(), "");
        assert_eq!(obs.journal_snapshot(), "");
    }

    #[test]
    fn counters_accumulate_per_label_set() {
        let obs = Obs::new();
        obs.counter_inc("probes_total", &[("server", "S1"), ("outcome", "up")]);
        obs.counter_add("probes_total", &[("outcome", "up"), ("server", "S1")], 2);
        obs.counter_inc("probes_total", &[("server", "S2"), ("outcome", "down")]);
        assert_eq!(
            obs.counter_value("probes_total", &[("server", "S1"), ("outcome", "up")]),
            3,
            "label order must not split the series"
        );
        assert_eq!(
            obs.metrics_snapshot(),
            "probes_total{outcome=down,server=S2} 1\nprobes_total{outcome=up,server=S1} 3\n"
        );
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let obs = Obs::new();
        obs.gauge_set("plan_cache_entries", &[], 5.0);
        obs.gauge_set("plan_cache_entries", &[], 3.5);
        assert_eq!(obs.metrics_snapshot(), "plan_cache_entries 3.5\n");
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let obs = Obs::new();
        for v in [0.25, 0.75, 7.0, 5000.0] {
            obs.observe("query_response_ms", &[], v);
        }
        let snap = obs.metrics_snapshot();
        assert!(snap.starts_with("query_response_ms count=4 sum=5008 min=0.25 max=5000"));
        assert!(snap.contains(" le0.5=1 "), "{snap}");
        assert!(snap.contains(" le1=1 "), "{snap}");
        assert!(snap.contains(" le10=1 "), "{snap}");
        assert!(snap.trim_end().ends_with("inf=1"), "{snap}");
    }

    #[test]
    fn journal_renders_jsonl_in_order() {
        let obs = Obs::new();
        obs.event(
            SimTime::from_millis(1.5),
            "probe",
            vec![("server", "S1".into()), ("ok", true.into())],
        );
        obs.span(
            "compile",
            SimTime::from_millis(2.0),
            SimTime::from_millis(3.25),
            vec![("query", 7u64.into())],
        );
        assert_eq!(
            obs.journal_snapshot(),
            "{\"at\":1.5,\"kind\":\"probe\",\"server\":\"S1\",\"ok\":true}\n\
             {\"at\":2,\"kind\":\"compile\",\"query\":7,\"ms\":1.25}\n"
        );
        assert_eq!(obs.events_of("probe").len(), 1);
        let compile = &obs.events_of("compile")[0];
        assert_eq!(compile.field("ms"), Some(&FieldValue::F64(1.25)));
    }

    #[test]
    fn json_strings_are_escaped() {
        let obs = Obs::new();
        obs.event(
            SimTime::ZERO,
            "query_failed",
            vec![("error", "bad \"sql\"\nline\\2".into())],
        );
        assert_eq!(
            obs.journal_snapshot(),
            "{\"at\":0,\"kind\":\"query_failed\",\"error\":\"bad \\\"sql\\\"\\nline\\\\2\"}\n"
        );
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::new();
        let other = obs.clone();
        other.counter_inc("c_total", &[]);
        assert_eq!(obs.counter_value("c_total", &[]), 1);
    }

    #[test]
    fn non_finite_floats_render_as_strings() {
        let obs = Obs::new();
        obs.gauge_set("g", &[], f64::INFINITY);
        assert_eq!(obs.metrics_snapshot(), "g \"inf\"\n");
    }
}
