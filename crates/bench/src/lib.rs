//! Shared plumbing for the benchmark harnesses.
//!
//! `paper` regenerates every table and figure of the paper's §5
//! evaluation, the ablations and the network-awareness series, in the
//! order EXPERIMENTS.md quotes them. Five other targets are gates
//! (`columnar_speedup`, `admission_overload`, `federation_scale`,
//! `midquery_reroute`, `query_path`): each ends in one [`Verdict`]. Scale
//! knobs come from the environment so `cargo bench` stays fast by default
//! while full-fidelity runs remain one variable away:
//!
//! * `QCC_LARGE_ROWS` — rows in the large tables (default 40 000; the
//!   paper used ~100 000).
//! * `QCC_SMALL_ROWS` — rows in the small table (default 1 000).
//! * `QCC_INSTANCES` — query instances per type per phase (default 5; the
//!   paper used 10).

use qcc_workload::{ExperimentResult, ScenarioConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Experiment scale, resolved from the environment.
#[derive(Debug, Clone)]
pub struct BenchScale {
    /// Scenario sizing.
    pub config: ScenarioConfig,
    /// Instances per query type per phase.
    pub instances: u32,
}

/// Unmeasured calibration rounds per phase of a QCC-routed run.
pub const WARMUP: u32 = 2;

impl BenchScale {
    /// Read the scale from the environment.
    pub fn from_env() -> BenchScale {
        let get = |name: &str, default: u64| -> u64 {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        let config = ScenarioConfig {
            large_rows: get("QCC_LARGE_ROWS", 40_000),
            small_rows: get("QCC_SMALL_ROWS", 1_000),
            ..ScenarioConfig::default()
        };
        BenchScale {
            config,
            instances: get("QCC_INSTANCES", 5) as u32,
        }
    }
}

/// Print an aligned table: header row then data rows.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format per-phase gains of one run over a baseline, paper-style
/// (percentage response-time reduction).
pub fn print_gains(title: &str, run: &ExperimentResult, baseline: &ExperimentResult) {
    let header: Vec<String> = std::iter::once("".to_string())
        .chain((1..=run.phases.len()).map(|i| format!("Phase{i}")))
        .chain(["Mean".to_string()])
        .collect();
    let gains = run.gain_over(baseline);
    let mean = run.mean_gain_over(baseline);
    // A gain that rounds to zero prints `0.0`, whichever side of zero its
    // float noise falls on.
    let percent = |g: f64| format!("{:.1}", g * 100.0).replace("-0.0", "0.0");
    let mut row = vec!["gain %".to_string()];
    row.extend(gains.iter().map(|&g| percent(g)));
    row.push(percent(mean));
    let mut base_row = vec!["baseline ms".to_string()];
    base_row.extend(baseline.phases.iter().map(|p| format!("{:.1}", p.avg_ms)));
    base_row.push(String::new());
    let mut run_row = vec!["qcc ms".to_string()];
    run_row.extend(run.phases.iter().map(|p| format!("{:.1}", p.avg_ms)));
    run_row.push(String::new());
    print_table(title, &header, &[base_row, run_row, row]);
}

/// Print the qcc-obs metrics snapshot embedded in a phase result (the
/// cumulative counters/gauges/histograms as of that phase's end), indented
/// under a title. No-op for obs-off runs.
pub fn print_phase_metrics(title: &str, phase: &qcc_workload::PhaseResult) {
    let Some(metrics) = &phase.metrics else {
        return;
    };
    println!("\n== {title} ==");
    for line in metrics.lines() {
        println!("  {line}");
    }
}

/// The median of `xs` (the upper one of an even count).
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// How a gated bench ends: the checks it found violated, then one line
/// `<name>: OK (<detail>)` or `<name>: VIOLATED (<n> check(s) failed)`
/// that `ci.sh` greps. A violation exits the process with status 1.
#[derive(Debug)]
pub struct Verdict {
    name: &'static str,
    violations: Vec<String>,
}

impl Verdict {
    /// A verdict named `name`, with nothing violated yet.
    pub fn new(name: &'static str) -> Verdict {
        Verdict {
            name,
            violations: Vec::new(),
        }
    }

    /// Record one violated check.
    pub fn violate(&mut self, violation: String) {
        self.violations.push(violation);
    }

    /// Print the violations and the verdict line (`ok` is the detail of an
    /// `OK` line); exit with status 1 if any check was violated.
    pub fn finish(self, ok: &str) {
        if self.violations.is_empty() {
            println!("{}: OK ({ok})", self.name);
            return;
        }
        for v in &self.violations {
            println!("  {v}");
        }
        println!(
            "{}: VIOLATED ({} check(s) failed)",
            self.name,
            self.violations.len()
        );
        std::process::exit(1);
    }
}

/// The system allocator, counting calls that obtain memory. A bench that
/// gates on an allocation count installs it as its `#[global_allocator]`
/// and reads the count through [`counting`].
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic that
// publishes nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Run `f`, returning its result and the allocations it made (0 unless
/// the binary installed [`CountingAllocator`]).
pub fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults() {
        let s = BenchScale::from_env();
        assert!(s.config.large_rows >= 1000);
        assert!(s.instances >= 1);
    }
}
