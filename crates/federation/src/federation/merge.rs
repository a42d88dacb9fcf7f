//! Merge: run the integrator-side merge statement over the gathered
//! fragment results.

use super::template::{Learned, Template};
use super::{Federation, FragmentTimes, II_SPEED};
use crate::decompose::{frag_table, MergeSpec};
use crate::middleware::Deferred;
use qcc_common::{QccError, QueryId, Result, Row, SimDuration};
use qcc_engine::Engine;
use qcc_netsim::{slowdown, SimClock};
use qcc_storage::{Catalog, Table, TableStats};
use qcc_wrapper::WrapperResult;
use std::sync::Arc;

impl Federation {
    /// Merge gathered fragment results at the integrator.
    pub(super) fn merge_global(
        &self,
        qid: QueryId,
        template: &Arc<Template>,
        results: Vec<WrapperResult>,
        fragment_times: FragmentTimes,
        clock: &SimClock,
        effects: &mut Deferred,
    ) -> Result<(Vec<Row>, FragmentTimes)> {
        match &template.decomposed.merge {
            MergeSpec::Passthrough => {
                let rows = results
                    .into_iter()
                    .next()
                    .map(|r| r.rows())
                    .unwrap_or_default();
                Ok((rows, fragment_times))
            }
            MergeSpec::Merge { stmt } => {
                // Adopt the shipped fragment batches as temp tables —
                // columnar data is not copied, arity and types are checked.
                let mut tables = Vec::with_capacity(results.len());
                for (i, (schema, result)) in template.schemas.iter().zip(results).enumerate() {
                    let table =
                        Table::from_batches(frag_table(i), Arc::clone(schema), result.batches)
                            .map_err(|e| {
                                QccError::Execution(format!("fragment {i} result mismatch: {e}"))
                            })?;
                    tables.push(table);
                }
                // The merge is planned once per vector of gathered row
                // counts (DESIGN.md §16): a vector the template has seen
                // runs the plan picked then, and since the executor reads
                // tables, never statistics, its tables are registered
                // without an ANALYZE.
                let gathered: Vec<u64> = tables.iter().map(|t| t.row_count() as u64).collect();
                let known = template.merge_plan(&gathered);
                let mut catalog = Catalog::new();
                for (table, &rows) in tables.into_iter().zip(&gathered) {
                    match known {
                        Some(_) => {
                            let stats = TableStats::virtual_table(rows, 0.0, Vec::new());
                            catalog.register_virtual(table, stats);
                        }
                        None => catalog.register(table),
                    }
                }
                let engine = Engine::new(catalog);
                let plan = match known {
                    Some(plan) => plan,
                    None => {
                        self.obs.counter_inc("merge_plans_total", &[]);
                        let cheapest = engine.explain_stmt(stmt)?.into_iter().next();
                        let planned = cheapest
                            .ok_or_else(|| QccError::Planning("no plan produced".into()))?;
                        let plan = Arc::new(planned.plan);
                        let learned = Learned {
                            merge_plan: Some((gathered, Arc::clone(&plan))),
                            ..Learned::default()
                        };
                        let template = Arc::clone(template);
                        effects.defer(move || template.learn(learned));
                        plan
                    }
                };
                let (rows, work) = engine.execute_plan(&plan)?;
                let merge_start = clock.now();
                let rho = self.ii_load.utilization(merge_start);
                let merge_ms = work.cpu_units / II_SPEED * slowdown(rho, 1.0);
                clock.advance(SimDuration::from_millis(merge_ms));
                self.journal(effects, merge_start, "merge", || {
                    vec![("query", qid.0.into()), ("ms", merge_ms.into())]
                });
                Ok((rows, fragment_times))
            }
        }
    }
}
