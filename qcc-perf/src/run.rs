//! The measured section of each workload, tracing off.

use crate::stats::{process_cpu_nanos, status_kib, steady_total, Counters};
use crate::worlds::{shifted_arrivals, Inputs, Stmt, Workload, World, CYCLE, PHASES};
use qcc_common::{Row, SimTime, WallStopwatch};
use qcc_core::AvailabilityDaemon;
use qcc_workload::{apply_phase, run_open_loop, AdmissionMode, ArrivalEvent, PhaseSchedule};
use std::sync::Arc;

/// What one measured section produced.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    /// Operations that returned an error other than an admission shed.
    pub failed: u64,
    /// Operations admission refused (open loop only).
    pub shed: u64,
    /// Virtual response of every answered operation, in ms; timed from
    /// the scheduled arrival in the open loop.
    pub virt_ms: Vec<f64>,
    /// Wall seconds of the whole section, bursts and all.
    pub wall_s: f64,
    /// Process CPU seconds of the whole section.
    pub cpu_s: f64,
    /// Wall seconds of consecutive segments of equal work, and the share
    /// of the section's work they cover (a ragged end is left out).
    /// `stats::steady_total` turns them into the reported rates.
    pub segments: Vec<f64>,
    pub segment_share: f64,
    /// Resident set before and after the section, KiB.
    pub rss_kib: (u64, u64),
    /// Virtual time at which the section began.
    pub virt_start: SimTime,
    /// What the world's counters advanced by over the section.
    pub counters: Counters,
    /// Journal events appended over the section.
    pub journal_events: u64,
    /// Wall µs of every submit, recorded only on request.
    pub submit_us: Vec<f64>,
    /// Result row count of every submit and the rows themselves of every
    /// [`ROWS_KEPT_EVERY`]-th, kept only on request: the cold workload
    /// checks its outputs after the clock stops, and holding every result
    /// of 40 000 statements would swamp the resident set it reports.
    pub row_counts: Vec<usize>,
    pub rows: Vec<Vec<Row>>,
}

impl Measured {
    /// `(wall s, cpu s)` the section would have taken on an undisturbed
    /// core: the steady total of its segments scaled to all of its work,
    /// and that many seconds at the section's CPU seconds per wall second
    /// (`/proc` accounts CPU time in scheduler ticks, too coarse to take
    /// per segment).
    pub fn steady_s(&self) -> (f64, f64) {
        let wall = steady_total(&self.segments) / self.segment_share;
        (wall, wall * self.cpu_s / self.wall_s)
    }
}

pub const ROWS_KEPT_EVERY: usize = 16;
/// Segments a closed loop is cut into, give or take a statement cycle.
const SEGMENTS: usize = 200;

/// Which optional per-operation records to keep.
#[derive(Debug, Clone, Copy, Default)]
pub struct Keep {
    pub submit_us: bool,
    pub rows: bool,
}

pub fn run_measured(workload: Workload, world: &World, inputs: &Inputs, keep: Keep) -> Measured {
    let obs = &world.scenario.obs;
    let virt_start = world.scenario.clock.now();
    let counters = Counters::parse(&obs.metrics_snapshot());
    let journal_len = obs.journal_len();
    let mut m = match inputs {
        Inputs::Closed(stmts) => run_closed(workload, world, stmts, keep),
        Inputs::Open(arrivals) => run_open(world, arrivals),
    };
    m.virt_start = virt_start;
    m.counters = Counters::parse(&obs.metrics_snapshot()).since(&counters);
    m.journal_events = (obs.journal_len() - journal_len) as u64;
    m
}

/// One client: the next statement is submitted when the previous returns.
fn run_closed(workload: Workload, world: &World, stmts: &[Stmt], keep: Keep) -> Measured {
    let scenario = &world.scenario;
    let n = stmts.len();
    let mut m = Measured {
        attempted: n as u64,
        virt_ms: Vec::with_capacity(n),
        segments: Vec::with_capacity(SEGMENTS + 1),
        submit_us: Vec::with_capacity(if keep.submit_us { n } else { 0 }),
        row_counts: Vec::with_capacity(if keep.rows { n } else { 0 }),
        rows: Vec::with_capacity(if keep.rows {
            n / ROWS_KEPT_EVERY + 1
        } else {
            0
        }),
        ..Measured::default()
    };
    // `paper_phases` walks Table 1: each phase boundary loads a server
    // subset and starts a re-calibration cycle, as the §5.3 driver does
    // (`qcc_workload::experiment`), but without its unmeasured warm-up
    // rounds: the measured queries themselves re-calibrate, so the cost
    // of adapting is inside the reported latencies.
    let phases = (workload == Workload::PaperPhases).then(|| {
        let daemon = AvailabilityDaemon::new(
            Arc::clone(world.qcc()),
            scenario.wrappers.clone(),
            scenario.clock.clone(),
        );
        (PhaseSchedule::paper_table1(), daemon, n / PHASES)
    });

    // Segments of whole statement cycles where the mix cycles (see
    // `worlds::generate_inputs`), so that every segment is the same work.
    let cycle = if workload.cold_compile() { 1 } else { CYCLE };
    let per_segment = (n / SEGMENTS / cycle).max(1) * cycle;
    m.segment_share = (n / per_segment * per_segment) as f64 / n as f64;
    m.rss_kib.0 = status_kib("VmRSS");
    let cpu0 = process_cpu_nanos();
    let wall = WallStopwatch::start();
    let mut mark = 0.0;
    for (i, stmt) in stmts.iter().enumerate() {
        if let Some((schedule, daemon, per_phase)) = &phases {
            if i % per_phase == 0 {
                apply_phase(scenario, &schedule.phases[i / per_phase]);
                for server in &scenario.servers {
                    world.qcc().calibration.reset_server(server.id());
                }
                world.qcc().load_balancer.reset_period();
                daemon.probe_all();
            }
        }
        let call = keep.submit_us.then(WallStopwatch::start);
        let result = scenario.federation.submit(&stmt.sql);
        if let Some(call) = call {
            m.submit_us.push(call.elapsed_nanos() as f64 / 1e3);
        }
        match result {
            Ok(out) => {
                m.virt_ms.push(out.response_ms);
                if keep.rows {
                    m.row_counts.push(out.rows.len());
                    if i % ROWS_KEPT_EVERY == 0 {
                        m.rows.push(out.rows);
                    }
                }
            }
            // A failure fails the run (`check_measured`); nothing to keep.
            Err(_) => m.failed += 1,
        }
        if (i + 1) % per_segment == 0 {
            let now = wall.elapsed_secs();
            m.segments.push(now - mark);
            mark = now;
        }
    }
    m.wall_s = wall.elapsed_secs();
    m.cpu_s = (process_cpu_nanos() - cpu0) as f64 / 1e9;
    m.rss_kib.1 = status_kib("VmRSS");
    m
}

/// Open loop: the arrival stream is laid out on the virtual timeline up
/// front and driven through admission by `run_open_loop`; a slow system
/// does not slow the arrivals down. It is one call into the driver, so
/// the segments come from the world's tick wrappers.
fn run_open(world: &World, arrivals: &[ArrivalEvent]) -> Measured {
    let admission = world.admission.as_ref().expect("open loop runs admitted");
    let ticks = world.ticks.as_ref().expect("open loop world ticks");
    let arrivals = &shifted_arrivals(arrivals, world.scenario.clock.now());
    let mut m = Measured {
        attempted: arrivals.len() as u64,
        ..Measured::default()
    };
    ticks.reset();
    m.rss_kib.0 = status_kib("VmRSS");
    let cpu0 = process_cpu_nanos();
    let wall = WallStopwatch::start();
    let report = run_open_loop(
        &world.scenario,
        AdmissionMode::Admitted(admission),
        arrivals,
    );
    m.wall_s = wall.elapsed_secs();
    m.cpu_s = (process_cpu_nanos() - cpu0) as f64 / 1e9;
    m.rss_kib.1 = status_kib("VmRSS");
    (m.segments, m.segment_share) = ticks.segments();
    m.virt_ms = report.completed.iter().map(|c| c.response_ms).collect();
    m.shed = report.shed;
    m.failed = report.failed;
    m
}
