//! Merge: run the integrator-side merge statement over the gathered
//! fragment results.

use super::template::{Learned, Template};
use super::{Dispatched, Federation, FragmentTimes, II_SPEED};
use crate::decompose::MergeSpec;
use crate::middleware::Deferred;
use qcc_common::{ColumnBatch, QccError, Result, SimDuration};
use qcc_engine::{execute_over, CostModel, Engine, PlanNode};
use qcc_netsim::{slowdown, SimClock};
use qcc_sql::SelectStmt;
use qcc_storage::{check_batches, Catalog, Table};
use qcc_wrapper::WrapperResult;
use std::sync::Arc;

impl Federation {
    /// Merge gathered fragment results at the integrator. The merge's
    /// start and virtual ms are handed back for `run` to journal with the
    /// query's close.
    pub(super) fn merge_global(
        &self,
        template: &Arc<Template>,
        results: Vec<WrapperResult>,
        fragment_times: FragmentTimes,
        clock: &SimClock,
        effects: &mut Deferred,
    ) -> Result<Dispatched> {
        match &template.decomposed.merge {
            MergeSpec::Passthrough => {
                let rows = results
                    .into_iter()
                    .next()
                    .map(|r| r.rows())
                    .unwrap_or_default();
                Ok((rows, fragment_times, None))
            }
            MergeSpec::Merge { stmt } => {
                // The shipped fragment batches are the merge statement's
                // tables, bound by slot name: columnar data is not copied,
                // arity and types are checked.
                let mut slots = Vec::with_capacity(results.len());
                for (i, ((name, schema), result)) in template.slots.iter().zip(&results).enumerate()
                {
                    check_batches(name, schema, &result.batches).map_err(|e| {
                        QccError::Execution(format!("fragment {i} result mismatch: {e}"))
                    })?;
                    slots.push((name.as_str(), &result.batches[..]));
                }
                // The merge is planned once per vector of gathered row
                // counts (DESIGN.md §12): a vector the template has seen
                // runs the plan picked then, straight over the batches.
                let gathered: Vec<u64> = slots
                    .iter()
                    .map(|(_, batches)| batches.iter().map(|b| b.n_rows() as u64).sum())
                    .collect();
                let plan = match template.merge_plan(&gathered) {
                    Some(plan) => plan,
                    None => {
                        self.obs.counter_inc("merge_plans_total", &[]);
                        let plan = Arc::new(plan_merge(template, stmt, &slots)?);
                        let learned = Learned {
                            merge_plan: Some((gathered, Arc::clone(&plan))),
                            ..Learned::default()
                        };
                        let template = Arc::clone(template);
                        effects.defer(move || template.learn(learned));
                        plan
                    }
                };
                let (rows, work) = execute_over(&plan, &slots, &CostModel::default())?;
                let merge_start = clock.now();
                let rho = self.ii_load.utilization(merge_start);
                let merge_ms = work.cpu_units / II_SPEED * slowdown(rho, 1.0);
                clock.advance(SimDuration::from_millis(merge_ms));
                Ok((rows, fragment_times, Some((merge_start, merge_ms))))
            }
        }
    }
}

/// Plan the merge statement as a fresh integrator would: every gathered
/// result ANALYZEd as a table, the planner's cheapest plan taken. The
/// plan only reads what the slots hold, so it then runs over them.
fn plan_merge(
    template: &Template,
    stmt: &SelectStmt,
    slots: &[(&str, &[ColumnBatch])],
) -> Result<PlanNode> {
    let mut catalog = Catalog::new();
    for ((name, schema), (_, batches)) in template.slots.iter().zip(slots) {
        let table = Table::from_batches(name.as_str(), Arc::clone(schema), batches.to_vec())?;
        catalog.register(table);
    }
    let cheapest = Engine::new(catalog).explain_stmt(stmt)?.into_iter().next();
    cheapest
        .map(|planned| planned.plan)
        .ok_or_else(|| QccError::Planning("no plan produced".into()))
}
