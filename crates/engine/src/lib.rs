//! Per-server relational engine.
//!
//! Each simulated remote server hosts one `Engine` over its catalog. The
//! engine provides the two entry points the paper's wrappers need:
//!
//! * **EXPLAIN** ([`Engine::explain`]): parse + plan a query and return one
//!   or more candidate physical plans, each with an estimated cost in the
//!   paper's first-tuple / next-tuple / cardinality model. Multiple plans
//!   are returned when alternative access paths exist (the paper's
//!   `QF1_p1`, `QF1_p2`, ...).
//! * **EXECUTE** ([`Engine::execute_plan`]): run a chosen plan over the
//!   real data, returning the result rows and a [`Work`] record of how much
//!   CPU work the execution actually performed. The simulation layers
//!   translate work into virtual response time under load.
//!
//! The integrator's merge runs its planned statement over the gathered
//! fragment batches with [`execute_over`], which binds the plan's scans
//! to named slots instead of catalog tables.

pub mod cost;
pub mod exec;
pub mod expr;
pub mod plan;
pub mod planner;
mod rowtable;
mod vexpr;
pub mod work;

/// The oracle's aggregate accumulator, the reference of the typed state.
#[cfg(test)]
#[path = "../../../tests/support/accumulator.rs"]
mod accumulator;
/// The equivalence suites' random catalogs and statements
/// (`tests/engine_vs_naive_prop.rs`), for the executor's unit tests.
#[cfg(test)]
#[path = "../../../tests/support/corpus.rs"]
mod corpus;
/// The digest that pins an execution's rows and `Work`.
#[cfg(test)]
#[path = "../../../tests/support/digest.rs"]
mod digest;

pub use cost::{estimate_plan, CostModel};
pub use exec::{execute, execute_batches, execute_over};
pub use expr::{compile, CompiledExpr};
pub use plan::{AggSpec, IndexPredicate, PlanNode};
pub use planner::plan_query;
pub use work::Work;

use std::sync::Arc;

use qcc_common::{ColumnBatch, Cost, Result, Row};
use qcc_sql::SelectStmt;
use qcc_storage::Catalog;

/// A candidate physical plan with its estimated cost.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The physical plan.
    pub plan: PlanNode,
    /// Estimated cost (first tuple, next tuple, cardinality).
    pub cost: Cost,
}

/// A relational engine bound to a shared, immutable catalog (DESIGN.md
/// §13 "One image per replica set").
#[derive(Debug, Clone)]
pub struct Engine {
    catalog: Arc<Catalog>,
    cost_model: CostModel,
}

impl Engine {
    /// Create an engine over a catalog with the default cost model.
    pub fn new(catalog: impl Into<Arc<Catalog>>) -> Self {
        Engine {
            catalog: catalog.into(),
            cost_model: CostModel::default(),
        }
    }

    /// The engine's catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The engine's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// EXPLAIN: candidate plans with estimated costs, cheapest first.
    pub fn explain(&self, sql: &str) -> Result<Vec<PlannedQuery>> {
        self.explain_stmt(&qcc_sql::parse_select(sql)?)
    }

    /// EXPLAIN an already-parsed statement (callers that hold the AST —
    /// the integrator's merge statement — skip the text round trip).
    pub fn explain_stmt(&self, stmt: &SelectStmt) -> Result<Vec<PlannedQuery>> {
        let plans = plan_query(stmt, &self.catalog)?;
        let mut out: Vec<PlannedQuery> = plans
            .into_iter()
            .map(|plan| {
                let cost = estimate_plan(&plan, &self.catalog, &self.cost_model);
                PlannedQuery { plan, cost }
            })
            .collect();
        out.sort_by(|a, b| a.cost.total().total_cmp(&b.cost.total()));
        Ok(out)
    }

    /// Execute a previously planned query against the real data.
    pub fn execute_plan(&self, plan: &PlanNode) -> Result<(Vec<Row>, Work)> {
        execute(plan, &self.catalog, &self.cost_model)
    }

    /// Execute a previously planned query, returning columnar batches
    /// (the zero-copy path used by the remote servers).
    pub fn execute_plan_batches(&self, plan: &PlanNode) -> Result<(Vec<ColumnBatch>, Work)> {
        execute_batches(plan, &self.catalog, &self.cost_model)
    }

    /// Convenience: plan with the default (cheapest) plan and execute.
    pub fn execute_sql(&self, sql: &str) -> Result<(Vec<Row>, Work)> {
        self.execute_stmt(&qcc_sql::parse_select(sql)?)
    }

    /// [`Engine::execute_sql`] for an already-parsed statement.
    pub fn execute_stmt(&self, stmt: &SelectStmt) -> Result<(Vec<Row>, Work)> {
        let plans = self.explain_stmt(stmt)?;
        let best = plans
            .first()
            .ok_or_else(|| qcc_common::QccError::Planning("no plan produced".into()))?;
        self.execute_plan(&best.plan)
    }
}
