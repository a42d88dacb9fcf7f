//! qcc-sim: deterministic fault-injection simulation testing, in the
//! FoundationDB style.
//!
//! A seed fully determines a scenario: world shape (server count,
//! speeds, sensitivities, data sizes), an open-loop Poisson workload,
//! and a fault schedule on virtual time — crashes, flaky-error windows,
//! load surges, link-congestion spikes and ramps. The scenario runs
//! through the *real* stack (admission queue, QCC calibration and
//! reliability, federation slot re-dispatch, availability daemon) on the
//! shared virtual clock, and a library of invariant oracles then checks
//! the run's `qcc-obs` journal and metrics:
//!
//! * **conservation** — every offered query ends exactly once
//!   (completed / shed / failed), at both the driver and journal level;
//! * **ban_liveness** — crashed servers are banned on evidence and
//!   restored after recovery, with balanced transition counters and no
//!   false bans outside crash windows;
//! * **no_route_to_banned** — no fragment executes on a server inside
//!   its believed-down interval;
//! * **calibration_sanity** — factors stay finite, positive, clamped,
//!   and move toward injected load;
//! * **bounded_retries** — no query re-dispatches a fragment slot more
//!   than `retry_limit` times;
//! * **no_dup_no_loss_reroute** — every rerouted fragment's stream
//!   provenance tiles `[0, total_chunks)` exactly (no chunk delivered
//!   twice, none lost), and with `reroute` absent nothing is cancelled
//!   for slowness;
//! * **bounded_stall** — every stall cancel fires within the configured
//!   stall threshold (slow cancels) or one probe interval of the
//!   interrupt instant, and interrupts trace back to an injected crash
//!   window; a refusal re-dispatches at the instant the refusing server
//!   was sent the slot, inside one of its crash or flaky windows;
//! * **hedge_soundness** — every hedge duplicates its slot once, onto a
//!   server that is neither the primary nor believed down, and every
//!   suppressed duplicate is one of that race's two streams;
//! * **thread_determinism** — journal and metrics are byte-identical
//!   across scatter-pool widths.
//!
//! On failure the harness shrinks the scenario to a minimal failing
//! case ([`shrink`]) and emits a one-line `sim(...)` replay
//! ([`SimConfig::render`]) for the regression corpus ([`corpus`]).

pub mod config;
pub mod corpus;
pub mod driver;
pub mod oracle;
pub mod shrink;
pub mod world;

pub use config::{generate, parse, FaultSpec, SimConfig};
pub use driver::{run, BugSwitches, RunArtifacts};
pub use oracle::{check_all, Violation};
pub use shrink::{shrink, Shrunk};

/// The verdict for one scenario: violations found (empty = clean) plus a
/// thread-invariant one-line summary for reports.
pub struct SeedReport {
    /// The scenario checked.
    pub config: SimConfig,
    /// All oracle violations, including thread-determinism mismatches.
    pub violations: Vec<Violation>,
    /// One-line run summary (identical for any `QCC_THREADS`).
    pub summary: String,
}

impl SeedReport {
    /// Did every oracle pass?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The alternate scatter-pool width checked against the single-threaded
/// reference run: the session's `QCC_THREADS` when it asks for real
/// parallelism, else 8 so the determinism oracle always exercises a
/// genuinely parallel schedule.
pub fn alt_threads() -> usize {
    let d = qcc_common::default_threads();
    if d > 1 {
        d
    } else {
        8
    }
}

/// Check one scenario: run it at 1 thread and at [`alt_threads`], apply
/// every oracle to the reference run, and byte-compare the two runs'
/// journal and metrics.
pub fn check_config(config: &SimConfig, bug: &BugSwitches) -> SeedReport {
    let reference = driver::run(config, 1, bug);
    let parallel = driver::run(config, alt_threads(), bug);
    let mut violations = oracle::check_all(&reference, config);
    if reference.journal_text != parallel.journal_text {
        violations.push(Violation {
            oracle: "thread_determinism",
            detail: format!(
                "journal differs between 1 and {} scatter threads",
                alt_threads()
            ),
        });
    }
    if reference.metrics_text != parallel.metrics_text {
        violations.push(Violation {
            oracle: "thread_determinism",
            detail: format!(
                "metrics differ between 1 and {} scatter threads",
                alt_threads()
            ),
        });
    }
    let summary = format!(
        "total={} completed={} shed={} failed={} journal_events={}",
        reference.total,
        reference.completed,
        reference.shed,
        reference.failed,
        reference.journal.len()
    );
    SeedReport {
        config: config.clone(),
        violations,
        summary,
    }
}

/// Generate the scenario for `seed` and check it.
pub fn check_seed(seed: u64, bug: &BugSwitches) -> SeedReport {
    check_config(&config::generate(seed), bug)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_seed_is_deterministic() {
        let a = check_seed(0, &BugSwitches::none());
        let b = check_seed(0, &BugSwitches::none());
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.ok(), b.ok());
        assert_eq!(a.config, b.config);
    }
}
