//! Compile: fetch (or build) the statement's template, source-select, fan
//! out the EXPLAINs, enumerate and cost the global candidates.

use super::template::{Learned, Statement, Template};
use super::{Federation, II_SPEED};
use crate::decompose::MergeSpec;
use crate::middleware::{Deferred, FragmentCandidate, GlobalCandidate};
use qcc_common::{
    scatter_indexed, Cost, FragmentId, QccError, QueryId, Result, ServerId, SimDuration,
};
use qcc_engine::Engine;
use qcc_netsim::SimClock;
use qcc_sql::SelectStmt;
use qcc_storage::{Catalog, ColumnStats, Table, TableStats};
use qcc_wrapper::Wrapper;
use std::borrow::Cow;
use std::sync::Arc;

/// Cap on enumerated global plan candidates per query.
const MAX_GLOBAL_CANDIDATES: usize = 64;

impl Federation {
    pub(super) fn compile(
        &self,
        qid: QueryId,
        statement: &Statement,
        clock: &SimClock,
        effects: &mut Deferred,
    ) -> Result<(Arc<Template>, Vec<GlobalCandidate>)> {
        // Parse and decompose happen once per statement text; from here on
        // a first arrival and a repeat run the same code.
        let template = self.template(statement, effects)?;
        let decomposed = &template.decomposed;
        let mut learned = Learned::default();

        // Source selection: when a replica catalog is attached, prune each
        // fragment's candidate set *before* the EXPLAIN fan-out — dominated
        // replicas (strictly worse calibrated cost AND reliability band
        // than a surviving sibling) never win the cost race, so consulting
        // them is pure network waste. Selection preserves candidate order
        // and fails open on unregistered servers, so a world without a
        // catalog (or with an empty one) compiles exactly as before.
        let selected: Vec<Cow<'_, [ServerId]>> = decomposed
            .fragments
            .iter()
            .map(|frag| match &self.catalog {
                Some(catalog) => {
                    Cow::Owned(catalog.select_sources(&frag.nicknames, &frag.candidate_servers))
                }
                None => Cow::Borrowed(frag.candidate_servers.as_slice()),
            })
            .collect();
        if self.catalog.is_some() {
            let full: usize = decomposed
                .fragments
                .iter()
                .map(|f| f.candidate_servers.len())
                .sum();
            let kept: usize = selected.iter().map(|s| s.len()).sum();
            if kept < full {
                // Commutative counter: safe inline on worker threads (L9).
                self.metrics.pruned.add((full - kept) as u64);
            }
            if self.obs.is_enabled() {
                let (obs, set_size) = (self.obs.clone(), self.metrics.set_size.clone());
                let at = clock.now();
                effects.defer(move || {
                    // Per-query candidate-set-size distribution (post-prune).
                    set_size.observe(kept as f64);
                    if kept < full {
                        let query = (qid.0 != u64::MAX).then(|| ("query", qid.0.into()));
                        let counts = [("full", full.into()), ("kept", kept.into())];
                        obs.event(at, "catalog_prune", query.into_iter().chain(counts));
                    }
                });
            }
        }

        // Scatter: every (fragment, candidate server) EXPLAIN is
        // dispatched concurrently at one snapshot — the MW fans the
        // requests out, so virtual time advances by the slowest round
        // trip, not the sum. Results gather in (fragment, server) task
        // order, making the outcome independent of the thread count.
        struct ExplainTask<'a> {
            slot: usize,
            fid: FragmentId,
            wrapper: &'a Arc<dyn Wrapper>,
            frag_sql: Arc<str>,
        }
        let mut tasks: Vec<ExplainTask<'_>> = Vec::new();
        for (slot, frag) in decomposed.fragments.iter().enumerate() {
            let fid = FragmentId::new(qid, frag.index);
            // Remote table names → the fragment as translated for them:
            // servers whose names agree are sent the same text, so it is
            // printed once and they share the allocation.
            let mut translated: Vec<(Vec<&str>, Arc<str>)> = Vec::new();
            for server in selected[slot].iter() {
                let Ok(wrapper) = self.wrapper(server) else {
                    continue;
                };
                let frag_sql = match template.fragment_sql(slot, server) {
                    Some(sql) => sql,
                    None => {
                        let remote = |n: &String| self.nicknames.remote_table(n, server);
                        let names: Vec<&str> =
                            frag.nicknames.iter().map(remote).collect::<Result<_>>()?;
                        let sql = match translated.iter().find(|(known, _)| *known == names) {
                            Some((_, sql)) => Arc::clone(sql),
                            None => {
                                let sql = frag.sql_for_server(&self.nicknames, server)?.into();
                                translated.push((names, Arc::clone(&sql)));
                                sql
                            }
                        };
                        learned
                            .fragment_sql
                            .push((slot, server.clone(), Arc::clone(&sql)));
                        sql
                    }
                };
                tasks.push(ExplainTask {
                    slot,
                    fid,
                    wrapper,
                    frag_sql,
                });
            }
        }
        let at = clock.now();
        let outcomes = scatter_indexed(tasks.len(), self.config.threads, |i| {
            let t = &tasks[i];
            let mut local = Deferred::new();
            let result = self.middleware.plan_fragment(
                t.wrapper.as_ref(),
                t.fid,
                &t.frag_sql,
                at,
                &mut local,
            );
            (result, local)
        });

        // Gather barrier: merge deferred effects and bucket candidates in
        // task order; one clock advance for the whole EXPLAIN fan-out.
        let mut per_fragment: Vec<Vec<FragmentCandidate>> =
            decomposed.fragments.iter().map(|_| Vec::new()).collect();
        let mut slowest = SimDuration::ZERO;
        let mut fatal = None;
        for (task, (result, local)) in tasks.iter().zip(outcomes) {
            effects.merge(local);
            match result {
                Ok((plans, took)) => {
                    slowest = slowest.max(took);
                    per_fragment[task.slot].extend(plans);
                }
                Err(QccError::ServerUnavailable(_)) | Err(QccError::ServerFault { .. }) => {
                    // A down server contributes no candidates; the MW has
                    // recorded the failure.
                }
                Err(e) => {
                    if fatal.is_none() {
                        fatal = Some(e);
                    }
                }
            }
        }
        clock.advance(slowest);
        if let Some(e) = fatal {
            return Err(e);
        }

        for (slot, frag) in decomposed.fragments.iter().enumerate() {
            let candidates = &mut per_fragment[slot];
            if candidates.is_empty() {
                return Err(QccError::NoViablePlan(format!(
                    "no server could plan fragment {} ({})",
                    frag.index, frag.stmt
                )));
            }
            // Drop candidates the calibrator pinned to infinity (downed
            // servers), unless nothing else remains.
            if candidates.iter().any(|c| !c.effective_cost.is_infinite()) {
                candidates.retain(|c| !c.effective_cost.is_infinite());
            }
            // Keep the cheapest plans first so candidate capping keeps the
            // most promising combinations.
            candidates.sort_by(|a, b| {
                a.effective_cost
                    .total()
                    .total_cmp(&b.effective_cost.total())
            });
        }

        // Capped Cartesian product, enumerated as index vectors in
        // lexicographic order (rightmost fragment varies fastest);
        // only the surviving combinations materialize candidates, and a
        // candidate clone shares its plan (a pointer, an id and a `Cost`).
        let mut combos: Vec<Vec<FragmentCandidate>> = Vec::new();
        let mut odometer = vec![0usize; per_fragment.len()];
        'enumerate: while combos.len() < MAX_GLOBAL_CANDIDATES {
            combos.push(
                odometer
                    .iter()
                    .zip(&per_fragment)
                    .map(|(&i, cands)| cands[i].clone())
                    .collect(),
            );
            let mut pos = per_fragment.len();
            loop {
                if pos == 0 {
                    break 'enumerate; // every combination enumerated
                }
                pos -= 1;
                odometer[pos] += 1;
                if odometer[pos] < per_fragment[pos].len() {
                    break;
                }
                odometer[pos] = 0;
            }
        }

        // Integration cost: estimated once per distinct vector of fragment
        // cardinalities — combinations that differ only in *where* their
        // fragments run merge the same amount of data — and remembered by
        // the template uncalibrated; the II factor is applied per arrival.
        // A vector first met in this compile is in `learned` until the
        // gather barrier hands it to the template.
        let merge_stmt = match &decomposed.merge {
            MergeSpec::Merge { stmt } => Some(stmt.as_ref()),
            MergeSpec::Passthrough => None,
        };
        let mut cardinalities: Vec<u64> = Vec::with_capacity(per_fragment.len());
        let mut candidates: Vec<GlobalCandidate> = combos
            .into_iter()
            .map(|fragments| {
                let integration = merge_stmt.map_or(Cost::ZERO, |stmt| {
                    cardinalities.clear();
                    cardinalities.extend(
                        fragments
                            .iter()
                            .map(|f| f.effective_cost.cardinality.max(1.0) as u64),
                    );
                    let fresh = &mut learned.integration;
                    template
                        .integration(&cardinalities)
                        .or_else(|| {
                            let met = fresh.iter().find(|(known, _)| *known == cardinalities);
                            met.map(|(_, cost)| *cost)
                        })
                        .unwrap_or_else(|| {
                            let cost = self.estimate_integration(&template, stmt, &cardinalities);
                            fresh.push((cardinalities.clone(), cost));
                            cost
                        })
                });
                GlobalCandidate {
                    integration_cost: self.middleware.calibrate_integration(integration),
                    fragments,
                }
            })
            .collect();
        candidates.sort_by(|a, b| a.total_cost().total_cmp(&b.total_cost()));

        // Compile span (covers the EXPLAIN fan-out): journaled via the
        // deferred buffer because compile runs on worker threads under
        // `submit_batch`.
        if self.obs.is_enabled() {
            let obs = self.obs.clone();
            let query = (qid.0 != u64::MAX).then(|| ("query", qid.0.into()));
            let fields = [
                ("template", (&template.signature).into()),
                ("explain_tasks", tasks.len().into()),
                ("candidates", candidates.len().into()),
            ];
            let end = clock.now();
            effects.defer(move || obs.span("compile", at, end, query.into_iter().chain(fields)));
        }
        if !learned.is_empty() {
            let template = Arc::clone(&template);
            effects.defer(move || template.learn(learned));
        }
        Ok((template, candidates))
    }

    /// Estimated cost of running the merge statement at the integrator
    /// over fragment results of the given estimated cardinalities (one per
    /// fragment), planned against a virtual catalog carrying exactly those
    /// statistics. A pure function of the template and the vector.
    pub(super) fn estimate_integration(
        &self,
        template: &Template,
        stmt: &SelectStmt,
        cardinalities: &[u64],
    ) -> Cost {
        self.obs.counter_inc("integration_estimates_total", &[]);
        let mut catalog = Catalog::new();
        for ((name, schema), &card) in template.slots.iter().zip(cardinalities) {
            let columns = schema
                .columns()
                .iter()
                .map(|_| ColumnStats {
                    distinct: (card / 2).max(1),
                    ..ColumnStats::default()
                })
                .collect();
            let stats = TableStats::virtual_table(card, 8.0 * schema.len() as f64, columns);
            catalog.register_virtual(Table::new(name.as_str(), Arc::clone(schema)), stats);
        }
        let engine = Engine::new(catalog);
        match engine.explain_stmt(stmt) {
            Ok(plans) if !plans.is_empty() => plans[0].cost.calibrate(1.0 / II_SPEED),
            _ => Cost::fixed(1.0),
        }
    }
}
