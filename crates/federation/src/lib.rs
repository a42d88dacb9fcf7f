//! The federated information integrator (the paper's "II").
//!
//! This crate reproduces, from scratch, the substrate the paper builds on
//! (its Figure 1): a cost-based federated query processor that
//!
//! 1. resolves *nicknames* to remote tables — possibly replicated across
//!    several servers ([`NicknameCatalog`]),
//! 2. rewrites a federated query into per-source *query fragments*
//!    ([`decompose()`](decompose::decompose)),
//! 3. collects candidate fragment execution plans and their estimated
//!    costs from the wrappers (through a pluggable [`Middleware`] — the
//!    seam where the paper's meta-wrapper and QCC attach),
//! 4. performs global cost-based optimization over the combinations
//!    ([`Federation::explain_global`]),
//! 5. executes the chosen fragments at the remote servers and merges the
//!    results locally with a real relational engine, and
//! 6. journals each submission and completion through the
//!    [`QueryPatroller`].
//!
//! Without a calibrating middleware this behaves like the paper's baseline
//! prototype: cost functions reflect statistics only, never load or
//! network state.

pub mod decompose;
pub mod federation;
pub mod middleware;
pub mod nickname;
pub mod patroller;
pub mod plancache;
pub mod report;

/// The seeded statement mutator shared with `qcc-sql`'s fuzz test.
#[cfg(test)]
#[path = "../../../tests/support/mutate.rs"]
mod mutate;

pub use decompose::{decompose, DecomposedQuery, FragmentSpec, MergeSpec};
pub use federation::{Federation, FederationConfig, QueryOutcome, REROUTE_BAND, REROUTE_PROBE_MS};
pub use middleware::{
    Deferred, FragmentCandidate, GlobalCandidate, Middleware, PassthroughMiddleware,
    DEFAULT_UNCOSTED,
};
pub use nickname::{NicknameCatalog, NicknameDef, SourceMapping};
pub use patroller::QueryPatroller;
pub use plancache::{share_plans, PlanCache, SharedPlans, DEFAULT_PLAN_CACHE_CAPACITY};
pub use report::render_explain;
