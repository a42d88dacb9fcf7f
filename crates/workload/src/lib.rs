//! The paper's experimental scenario and drivers (§5).
//!
//! * [`scenario`] — one II plus three remote DB servers (`S1`, `S2`,
//!   `S3`), sample tables (small ≈ 1 000 rows, large ≈ 100 000) replicated
//!   across all servers, S3 "the most powerful machine".
//! * [`querytypes`] — the four query-fragment types of §5.2 with
//!   parameterized instances.
//! * [`phases`] — Table 1's eight combinations of server load, and the
//!   load driver that applies them (background utilization plus per-table
//!   and per-index contention from the heavy update workload).
//! * [`baselines`] — the two fixed-assignment baselines of Figures 10–11:
//!   registration-time routing (QT1,QT3→S1, QT2→S2, QT4→S3) and
//!   default-best-server routing (everything→S3).
//! * [`experiment`] — the driver that runs a workload through a federation
//!   per phase and collects per-type and per-phase response-time averages.
//! * [`openloop`] — Poisson open-loop arrival generator and saturation
//!   driver for the admission-control experiments (queueing, shedding,
//!   deadlines past the service capacity).

pub mod baselines;
pub mod experiment;
pub mod openloop;
pub mod phases;
pub mod querytypes;
pub mod scenario;

pub use baselines::{FixedRoutingMiddleware, FIXED_ASSIGNMENT_1, FIXED_ASSIGNMENT_2};
pub use experiment::{
    run_phases, run_phases_on, sensitivity_sweep, ExperimentResult, PhaseResult, SensitivityPoint,
};
pub use openloop::{
    class_of, poisson_arrivals, run_open_loop, run_open_loop_with_daemon, AdmissionMode,
    ArrivalEvent, CompletedQuery, OpenLoopReport,
};
pub use phases::{apply_phase, clear_phase, Phase, PhaseSchedule, HIGH_LOAD};
pub use querytypes::{QueryType, ALL_QUERY_TYPES};
pub use scenario::{Routing, Scenario, ScenarioConfig};
