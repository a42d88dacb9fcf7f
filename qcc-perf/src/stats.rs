//! Order statistics, `/proc` readers and the JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank `p`-th percentile (0 < p ≤ 100) of `values`; 0.0 when empty.
/// The slice is sorted in place.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median by the nearest-rank rule (the lower middle for even counts).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// What a run of equal-work segments would have taken on an undisturbed
/// core. The host's neighbours slow this machine by 30–80 % for seconds
/// to minutes at a time, and a plain total reports mostly how much of
/// that a run caught: the totals of identical runs spread over 15–25 %.
/// The fastest segment is what the work costs when nobody interferes,
/// and repeats two to three times better. So the run is cut into two
/// halves and every segment of a half is charged that half's fastest
/// segment time. Two halves, not one, so that a program that slows down
/// as it runs (a growing journal) still pays for it.
pub fn steady_total(segments: &[f64]) -> f64 {
    let (first, second) = segments.split_at(segments.len().div_ceil(2));
    [first, second]
        .iter()
        .map(|half| half.iter().copied().fold(f64::INFINITY, f64::min) * half.len() as f64)
        .filter(|t| t.is_finite())
        .sum()
}

/// Process CPU time in nanoseconds: on-CPU time from `/proc/self/schedstat`
/// (nanosecond resolution), falling back to utime+stime clock ticks from
/// `/proc/self/stat`.
pub fn process_cpu_nanos() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat(&s))
        .or_else(|| {
            std::fs::read_to_string("/proc/self/stat")
                .ok()
                .and_then(|s| parse_stat_ticks(&s))
                .map(|ticks| ticks * (1_000_000_000 / CLOCK_TICKS_PER_SEC))
        })
        .unwrap_or(0)
}

/// `sysconf(_SC_CLK_TCK)` on every Linux this runs on.
const CLOCK_TICKS_PER_SEC: u64 = 100;

/// First field of `/proc/<pid>/schedstat`: nanoseconds spent on a CPU.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// utime + stime (fields 14 and 15) of `/proc/<pid>/stat`, in clock ticks.
/// The command name (field 2) may itself hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in KiB.
pub fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kib(&s, field))
        .unwrap_or(0)
}

/// Find `<field>:   <n> kB` in the text of `/proc/<pid>/status`.
pub fn parse_status_kib(text: &str, field: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Counter totals of a `qcc_common::Obs::metrics_snapshot`, summed over
/// label sets (`fragments_total{server=S1}` + `{server=S2}` + ...).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    /// Parse `name{k=v,...} <integer>` lines; gauge and histogram lines
    /// (whose second token is not a plain integer) are skipped.
    pub fn parse(snapshot: &str) -> Counters {
        let mut sums = BTreeMap::new();
        for line in snapshot.lines() {
            let mut tokens = line.split(' ');
            let (Some(series), Some(value), None) = (tokens.next(), tokens.next(), tokens.next())
            else {
                continue;
            };
            if let Ok(v) = value.parse::<u64>() {
                let name = series.split('{').next().unwrap_or(series);
                *sums.entry(name.to_string()).or_insert(0) += v;
            }
        }
        Counters(sums)
    }

    /// Total of counter `name` (0 when it never fired).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// `self - earlier`, per counter.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.get(k)))
                .collect(),
        )
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The result line the driver reads: one JSON object, keys exactly
/// `correct`, `attempted`, `failed`, `metrics`. Values print with Rust's
/// shortest round-trip float formatting, i.e. every measured digit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(percentile(&mut v, 0.5), 1.0);
        let mut five = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut five), 3.0);
        assert_eq!(percentile(&mut five, 99.0), 5.0);
        let mut four = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut four), 2.0, "lower middle of an even count");
        assert_eq!(percentile(&mut [], 50.0), 0.0);
        assert_eq!(percentile(&mut [7.5], 99.0), 7.5);
    }

    #[test]
    fn steady_total_drops_bursts_and_keeps_drift() {
        // 20 segments of 1.0; bursts slow some of them by half or more.
        let mut run = vec![1.0; 20];
        assert_eq!(steady_total(&run), 20.0);
        for t in &mut run[2..9] {
            *t = 1.5;
        }
        run[15] = 4.0;
        assert_eq!(steady_total(&run), 20.0, "bursts drop out");
        // A lasting slowdown stays in: the second half is twice as slow.
        let drift: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 2.0 }).collect();
        assert_eq!(steady_total(&drift), 10.0 + 20.0);
        assert_eq!(steady_total(&[]), 0.0);
        assert_eq!(steady_total(&[2.5]), 2.5);
        assert_eq!(
            steady_total(&[3.0, 1.0, 2.0]),
            2.0 + 2.0,
            "halves of 2 and 1"
        );
    }

    #[test]
    fn proc_cpu_time_parsing() {
        assert_eq!(parse_schedstat("123456789 42 7\n"), Some(123_456_789));
        assert_eq!(parse_schedstat(""), None);
        // A command name with spaces and a ')' must not shift the fields.
        let stat = "4242 (qcc perf) x) R 1 4242 4242 0 -1 4194304 2049 0 0 0 \
                    1500 250 0 0 20 0 1 0 100 1000 10 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(1750));
        assert_eq!(parse_stat_ticks("no paren"), None);
        let status = "Name:\tqcc-perf\nVmHWM:\t  123456 kB\nVmRSS:\t   98765 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(123_456));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(98_765));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
        assert!(process_cpu_nanos() > 0, "this process has used some CPU");
    }

    #[test]
    fn counters_sum_over_labels_and_subtract() {
        let before = Counters::parse("fragments_total{server=S1} 2\nretries_total 1\n");
        let after = Counters::parse(
            "admission_queue_depth 3.5\n\
             fragments_total{server=S1} 5\n\
             fragments_total{server=S2} 7\n\
             query_response_ms count=2 sum=3 min=1 max=2 le1=1 inf=1\n\
             retries_total 1\n",
        );
        assert_eq!(after.get("fragments_total"), 12);
        assert_eq!(after.get("query_response_ms"), 0);
        assert_eq!(after.get("never_fired"), 0);
        let delta = after.since(&before);
        assert_eq!(delta.get("fragments_total"), 10);
        assert_eq!(delta.get("retries_total"), 0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[Metric::new("qps", 1.25, "1/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"qps\": {\"value\": 1.25, \"unit\": \"1/s\"}}}"
        );
    }
}
