//! Merge: run the integrator-side merge statement over the gathered
//! fragment results.

use super::{Federation, FragmentTimes};
use crate::decompose::{frag_table, DecomposedQuery, MergeSpec};
use crate::middleware::Deferred;
use qcc_common::{QccError, QueryId, Result, Row, SimDuration};
use qcc_engine::Engine;
use qcc_netsim::{slowdown, SimClock};
use qcc_storage::{Catalog, Table};
use qcc_wrapper::WrapperResult;

impl Federation {
    /// Merge gathered fragment results at the integrator.
    pub(super) fn merge_global(
        &self,
        qid: QueryId,
        decomposed: &DecomposedQuery,
        results: Vec<WrapperResult>,
        fragment_times: FragmentTimes,
        clock: &SimClock,
        effects: &mut Deferred,
    ) -> Result<(Vec<Row>, FragmentTimes)> {
        match &decomposed.merge {
            MergeSpec::Passthrough => {
                let rows = results
                    .into_iter()
                    .next()
                    .map(|r| r.rows())
                    .unwrap_or_default();
                Ok((rows, fragment_times))
            }
            MergeSpec::Merge { stmt } => {
                // Register the shipped fragment batches as temp tables —
                // adopting the columnar data without copying — and run the
                // merge with the real engine.
                let mut catalog = Catalog::new();
                for (i, (frag, result)) in decomposed.fragments.iter().zip(results).enumerate() {
                    let table =
                        Table::from_batches(frag_table(i), frag.output_schema(), result.batches)
                            .map_err(|e| {
                                QccError::Execution(format!("fragment {i} result mismatch: {e}"))
                            })?;
                    catalog.register(table);
                }
                let engine = Engine::new(catalog);
                let (rows, work) = engine.execute_stmt(stmt)?;
                let merge_start = clock.now();
                let rho = self.ii_load.utilization(merge_start);
                let merge_ms = work.cpu_units / self.config.ii_speed * slowdown(rho, 1.0);
                clock.advance(SimDuration::from_millis(merge_ms));
                self.journal(effects, merge_start, "merge", || {
                    vec![("query", qid.0.into()), ("ms", merge_ms.into())]
                });
                Ok((rows, fragment_times))
            }
        }
    }
}
