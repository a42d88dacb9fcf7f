//! The integrator's orchestration: compile, globally optimize, execute
//! remotely, merge locally.

use crate::decompose::{decompose, frag_table, DecomposedQuery, MergeSpec};
use crate::middleware::{Deferred, FragmentCandidate, GlobalCandidate, Middleware};
use crate::nickname::NicknameCatalog;
use crate::patroller::QueryPatroller;
use parking_lot::Mutex;
use qcc_admission::AdmissionController;
use qcc_catalog::ReplicaCatalog;
use qcc_common::obs::reroute_events as ev;
use qcc_common::{
    scatter_indexed, Cost, FieldValue, FragmentId, Obs, QccError, QueryId, Result, Row, ServerId,
    SimDuration, SimTime,
};
use qcc_engine::Engine;
use qcc_netsim::{slowdown, LoadProfile, ServerLoad, SimClock};
use qcc_storage::{Catalog, ColumnStats, Table, TableStats};
use qcc_wrapper::{FragmentPlan, StreamOutcome, Wrapper, WrapperResult, WrapperStream};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Integrator configuration.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Integrator CPU speed (work units per virtual ms).
    pub ii_speed: f64,
    /// Cap on enumerated global plan candidates per query.
    pub max_global_candidates: usize,
    /// How many times a query is re-routed after a fragment failure before
    /// giving up.
    pub retry_limit: usize,
    /// Worker-pool width for scatter-gather fan-out (compile-time EXPLAIN
    /// dispatch, fragment execution, `submit_batch`). Results are
    /// byte-identical for any value ≥ 1; this only trades wall-clock time
    /// (see DESIGN.md "Threading model").
    pub threads: usize,
    /// Slow-cancel multiplier of the stall detector (DESIGN.md §15): a
    /// healthy stream still incomplete after `stall_factor ×` its
    /// calibrated estimate is cancelled and its *remainder* re-dispatched
    /// to a within-band replica at the cursor. `0.0` — the default — never
    /// cancels a healthy stream for slowness. Interrupt rescue (the source
    /// dies mid-stream) does not depend on this value: it is always on.
    pub stall_factor: f64,
}

/// Virtual-time lag between a mid-stream interrupt and the stall detector
/// noticing it (one probe interval).
pub const REROUTE_PROBE_MS: f64 = 1.0;

/// Replica selection band: a remainder only re-dispatches to an alternate
/// whose calibrated cost is within this multiple of the cancelled
/// primary's estimate.
pub const REROUTE_BAND: f64 = 2.0;

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            ii_speed: 1.0,
            max_global_candidates: 64,
            retry_limit: 2,
            threads: qcc_common::default_threads(),
            stall_factor: 0.0,
        }
    }
}

/// The outcome of a federated query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Patroller-assigned id.
    pub id: QueryId,
    /// Result rows.
    pub rows: Vec<Row>,
    /// End-to-end response time in virtual ms (submit → merged result).
    pub response_ms: f64,
    /// Signature of the executed global plan.
    pub chosen_signature: String,
    /// Servers the executed plan touched.
    pub servers: BTreeSet<ServerId>,
    /// Observed per-fragment response times `(server, ms)`.
    pub fragment_times: Vec<(ServerId, f64)>,
    /// The estimated total cost of the chosen plan (for calibration
    /// inspection in tests and experiments).
    pub estimated_cost: f64,
}

/// A compiled federated query: its decomposition plus the enumerated
/// global candidates, costed and sorted cheapest-first.
pub type CompiledGlobal = (DecomposedQuery, Vec<GlobalCandidate>);

/// Observed `(server, response ms)` pairs, one per executed fragment.
pub type FragmentTimes = Vec<(ServerId, f64)>;

/// The federated information integrator.
pub struct Federation {
    nicknames: NicknameCatalog,
    wrappers: BTreeMap<ServerId, Arc<dyn Wrapper>>,
    middleware: Arc<dyn Middleware>,
    patroller: QueryPatroller,
    clock: SimClock,
    ii_load: ServerLoad,
    config: FederationConfig,
    /// The explain table: query template → winning global plan signature
    /// (the paper stores the selected plan and its estimated costs here).
    explain_table: Mutex<BTreeMap<String, String>>,
    /// Observability handle (disabled unless [`Federation::set_obs`] is
    /// called). Worker-side journal emissions ride the `Deferred` buffers
    /// so snapshots stay thread-count independent.
    obs: Obs,
    /// Admission controller (absent unless [`Federation::set_admission`]
    /// is called). `run` consults its *frozen* per-server token capacities
    /// at plan-selection time — the coordinator refreshes them only
    /// between batches, so every query in a batch gates against the same
    /// snapshot regardless of thread count.
    admission: Option<Arc<AdmissionController>>,
    /// Replica catalog (absent unless [`Federation::set_catalog`] is
    /// called). When attached, `compile` runs source selection against it
    /// *before* the EXPLAIN fan-out, pruning dominated replicas so the
    /// fan-out stays O(relevant replicas) instead of O(servers).
    catalog: Option<Arc<ReplicaCatalog>>,
}

impl Federation {
    /// Build an integrator.
    pub fn new(
        nicknames: NicknameCatalog,
        clock: SimClock,
        middleware: Arc<dyn Middleware>,
        config: FederationConfig,
    ) -> Self {
        Federation {
            nicknames,
            wrappers: BTreeMap::new(),
            middleware,
            patroller: QueryPatroller::new(),
            clock,
            ii_load: ServerLoad::new(LoadProfile::Constant(0.0), 0.02),
            config,
            explain_table: Mutex::new(BTreeMap::new()),
            obs: Obs::off(),
            admission: None,
            catalog: None,
        }
    }

    /// Attach an admission controller; `run` will gate candidate selection
    /// on its token capacities and enforce the execution deadline.
    pub fn set_admission(&mut self, admission: Arc<AdmissionController>) {
        self.admission = Some(admission);
    }

    /// The attached admission controller, if any.
    pub fn admission(&self) -> Option<&Arc<AdmissionController>> {
        self.admission.as_ref()
    }

    /// Attach a replica catalog; `compile` will prune each fragment's
    /// candidate servers through [`ReplicaCatalog::select_sources`] before
    /// dispatching the EXPLAIN fan-out.
    pub fn set_catalog(&mut self, catalog: Arc<ReplicaCatalog>) {
        self.catalog = Some(catalog);
    }

    /// The attached replica catalog, if any.
    pub fn catalog(&self) -> Option<&Arc<ReplicaCatalog>> {
        self.catalog.as_ref()
    }

    /// Attach an observability handle; the patroller journals through the
    /// same one.
    pub fn set_obs(&mut self, obs: Obs) {
        self.patroller.set_obs(obs.clone());
        self.obs = obs;
    }

    /// The observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Register a wrapper for a server.
    pub fn add_wrapper(&mut self, wrapper: Arc<dyn Wrapper>) {
        self.wrappers.insert(wrapper.server_id().clone(), wrapper);
    }

    /// The nickname catalog.
    pub fn nicknames(&self) -> &NicknameCatalog {
        &self.nicknames
    }

    /// The query patroller (its log is the QCC's runtime feed).
    pub fn patroller(&self) -> &QueryPatroller {
        &self.patroller
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The integrator configuration.
    pub fn config(&self) -> &FederationConfig {
        &self.config
    }

    /// The integrator's own load model (§3.2: II load affects merge cost).
    pub fn ii_load(&self) -> &ServerLoad {
        &self.ii_load
    }

    /// The wrapper registered for `server`.
    pub fn wrapper(&self, server: &ServerId) -> Result<&Arc<dyn Wrapper>> {
        self.wrappers
            .get(server)
            .ok_or_else(|| QccError::Config(format!("no wrapper for server {server}")))
    }

    /// Snapshot of the explain table (template → winning plan signature).
    pub fn explain_table(&self) -> BTreeMap<String, String> {
        self.explain_table.lock().clone()
    }

    /// Compile a query: decompose and enumerate global candidates with
    /// (possibly calibrated) costs. Advances the clock by the slowest
    /// EXPLAIN round trip (they are dispatched concurrently). Does not
    /// execute.
    pub fn explain_global(&self, sql: &str) -> Result<CompiledGlobal> {
        let qid = QueryId(u64::MAX); // sentinel: not a logged submission
        let mut effects = Deferred::new();
        let compiled = self.compile(qid, sql, &self.clock, &mut effects);
        effects.apply();
        compiled
    }

    /// Submit a federated query: compile, choose a global plan, execute
    /// the fragments remotely (in parallel), merge locally, and log it all.
    pub fn submit(&self, sql: &str) -> Result<QueryOutcome> {
        let submitted = self.clock.now();
        let qid = self.patroller.record_submit(sql, submitted);
        let mut effects = Deferred::new();
        let result = self.run(qid, sql, &self.clock, &mut effects, None);
        effects.apply();
        match result {
            Ok(outcome) => {
                self.patroller.record_complete(qid, self.clock.now());
                Ok(outcome)
            }
            Err(e) => {
                self.patroller
                    .record_failure(qid, self.clock.now(), e.to_string());
                Err(e)
            }
        }
    }

    /// Submit a batch of federated queries that logically start at the
    /// same instant, spread across the scatter worker pool.
    ///
    /// Each query runs against a private clock forked from the shared
    /// snapshot ([`SimClock::at`]); the coordinator gathers in
    /// submission-index order, applying each query's deferred side
    /// effects and patroller completion before the next query's, then
    /// advances the shared clock once — to the latest per-query end time.
    /// Every query in the batch therefore routes against the same frozen
    /// adaptive state (load balancer, calibration, reliability):
    /// adaptation happens at batch granularity, and the outcomes are
    /// byte-identical for any `threads` setting, including 1.
    pub fn submit_batch(&self, sqls: &[String]) -> Vec<Result<QueryOutcome>> {
        self.submit_batch_with_budgets(sqls, &[])
    }

    /// [`Federation::submit_batch`] with an optional remaining deadline
    /// budget per query (virtual ms from dispatch, as handed out by the
    /// admission queue). A query's effective execution deadline is the
    /// smaller of the configured `exec_deadline_ms` and its budget, so a
    /// ticket that spent most of its budget queueing gets a proportionally
    /// tighter retry/hedge horizon. `budgets` may be empty (no budgets) or
    /// must match `sqls` in length; `None` entries mean "no budget".
    pub fn submit_batch_with_budgets(
        &self,
        sqls: &[String],
        budgets: &[Option<f64>],
    ) -> Vec<Result<QueryOutcome>> {
        let t0 = self.clock.now();
        let qids: Vec<QueryId> = sqls
            .iter()
            .map(|sql| self.patroller.record_submit(sql, t0))
            .collect();
        let outcomes = scatter_indexed(sqls.len(), self.config.threads, |i| {
            let clock = SimClock::at(t0);
            let mut local = Deferred::new();
            let budget = budgets.get(i).copied().flatten();
            let result = self.run(qids[i], &sqls[i], &clock, &mut local, budget);
            (result, local, clock.now())
        });
        let mut latest = t0;
        let mut out = Vec::with_capacity(sqls.len());
        for (i, (result, local, end)) in outcomes.into_iter().enumerate() {
            local.apply();
            match &result {
                Ok(_) => self.patroller.record_complete(qids[i], end),
                Err(e) => self.patroller.record_failure(qids[i], end, e.to_string()),
            }
            if end > latest {
                latest = end;
            }
            out.push(result);
        }
        self.clock.advance_to(latest);
        out
    }

    fn run(
        &self,
        qid: QueryId,
        sql: &str,
        clock: &SimClock,
        effects: &mut Deferred,
        budget_ms: Option<f64>,
    ) -> Result<QueryOutcome> {
        let submitted = clock.now();
        let (decomposed, mut candidates) = self.compile(qid, sql, clock, effects)?;
        if candidates.is_empty() {
            return Err(QccError::NoViablePlan("no global candidates".into()));
        }
        let mut banned: BTreeSet<ServerId> = BTreeSet::new();
        // Effective execution deadline: the configured per-dispatch limit,
        // tightened by whatever remains of the ticket's arrival-relative
        // budget. A ticket dispatched with (almost) nothing left keeps a
        // hair of budget so the deadline machinery stays armed rather than
        // reading 0.0 as "disabled".
        let configured = self
            .admission
            .as_ref()
            .map(|a| a.config().exec_deadline_ms)
            .unwrap_or(0.0);
        let exec_deadline_ms = match budget_ms {
            Some(budget) => {
                let budget = budget.max(0.001);
                if configured > 0.0 {
                    configured.min(budget)
                } else {
                    budget
                }
            }
            None => configured,
        };

        // The retry *budget*: up to `retry_limit` re-routes, but the
        // execution deadline can forfeit whatever budget remains.
        for attempt in 0..=self.config.retry_limit {
            if attempt > 0 && exec_deadline_ms > 0.0 {
                let elapsed = clock.now().since(submitted).as_millis();
                if elapsed > exec_deadline_ms {
                    self.obs
                        .counter_inc("deadline_exceeded_total", &[("stage", "retry")]);
                    self.journal(effects, clock.now(), "deadline_exceeded", || {
                        vec![
                            ("query", qid.0.into()),
                            ("stage", "retry".into()),
                            ("attempt", (attempt as u64).into()),
                            ("elapsed_ms", elapsed.into()),
                            ("deadline_ms", exec_deadline_ms.into()),
                        ]
                    });
                    return Err(QccError::DeadlineExceeded(format!(
                        "retry budget forfeited after {elapsed:.3}ms (deadline {exec_deadline_ms}ms)"
                    )));
                }
            }
            // Filter candidates avoiding servers that already failed.
            let viable: Vec<&GlobalCandidate> = candidates
                .iter()
                .filter(|c| c.server_set().is_disjoint(&banned))
                .collect();
            if viable.is_empty() {
                break;
            }
            // Token gate: a plan is admissible only if every server it
            // touches has concurrency tokens in the frozen snapshot. A
            // nonempty blocked set means the router steered around a
            // token-exhausted server (a "token wait" — in virtual time the
            // wait materializes as a reroute, never a sleep).
            let (viable, blocked_count) = match &self.admission {
                Some(admission) => {
                    let (admissible, blocked): (Vec<&GlobalCandidate>, Vec<&GlobalCandidate>) =
                        viable.into_iter().partition(|c| {
                            c.server_set().iter().all(|s| admission.capacity(s) > 0)
                        });
                    (admissible, blocked.len())
                }
                None => (viable, 0),
            };
            if blocked_count > 0 {
                self.obs.counter_inc("token_waits_total", &[]);
                self.journal(effects, clock.now(), "token_wait", || {
                    vec![
                        ("query", qid.0.into()),
                        ("attempt", (attempt as u64).into()),
                        ("blocked_candidates", blocked_count.into()),
                    ]
                });
            }
            if viable.is_empty() {
                // Every surviving plan needs a token-exhausted server:
                // shed before any fragment work rather than pile on.
                if let Some(admission) = &self.admission {
                    admission.note_shed("no_tokens");
                }
                return Err(QccError::Shed(
                    "no token-admissible global plan (all candidate servers exhausted)".into(),
                ));
            }
            let viable_owned: Vec<GlobalCandidate> = viable.into_iter().cloned().collect();
            let idx = self
                .middleware
                .choose_global(&decomposed.template_signature, &viable_owned, effects)
                .min(viable_owned.len() - 1);
            let chosen = &viable_owned[idx];
            // Inline (not deferred) by design: within one batch every
            // query sees the same frozen routing state, so same-template
            // queries write the same winner — the table's contents are
            // deterministic even though the write order is not.
            self.explain_table
                .lock()
                .insert(decomposed.template_signature.clone(), chosen.signature());

            let remaining_ms = (exec_deadline_ms > 0.0)
                .then(|| exec_deadline_ms - clock.now().since(submitted).as_millis());
            let executed = self.dispatch_fragments(
                qid,
                &decomposed,
                chosen,
                &candidates,
                &banned,
                remaining_ms,
                clock,
                effects,
            );
            match executed {
                Ok((rows, fragment_times)) => {
                    let response_ms = clock.now().since(submitted).as_millis();
                    if exec_deadline_ms > 0.0 && response_ms > exec_deadline_ms {
                        // Completed, but late: the result still counts, the
                        // goodput accounting does not.
                        self.obs.counter_inc("deadline_misses_total", &[]);
                        self.journal(effects, clock.now(), "deadline_exceeded", || {
                            vec![
                                ("query", qid.0.into()),
                                ("stage", "completion".into()),
                                ("elapsed_ms", response_ms.into()),
                                ("deadline_ms", exec_deadline_ms.into()),
                            ]
                        });
                    }
                    self.middleware.observe_query(
                        qid,
                        &decomposed.template_signature,
                        chosen.total_cost(),
                        response_ms,
                        effects,
                    );
                    // A success after at least one ban is a reroute: the
                    // retry loop found a plan avoiding the failed servers.
                    if !banned.is_empty() {
                        self.journal(effects, clock.now(), "reroute", || {
                            vec![
                                ("query", qid.0.into()),
                                ("attempt", (attempt as u64).into()),
                                ("servers", join_servers(&chosen.server_set()).into()),
                            ]
                        });
                    }
                    return Ok(QueryOutcome {
                        id: qid,
                        rows,
                        response_ms,
                        chosen_signature: chosen.signature(),
                        servers: chosen.server_set(),
                        fragment_times,
                        estimated_cost: chosen.total_cost(),
                    });
                }
                Err(QccError::ServerUnavailable(s))
                | Err(QccError::ServerFault { server: s, .. }) => {
                    // The fallback of last resort: slot-level recovery
                    // (hedge, remainder re-dispatch) could not save the
                    // fragment, so ban the failed server and re-plan the
                    // whole query. The middleware has already recorded the
                    // failure (reliability input).
                    self.obs.counter_inc("retries_total", &[]);
                    self.journal(effects, clock.now(), "server_banned", || {
                        vec![
                            ("query", qid.0.into()),
                            ("server", s.to_string().into()),
                            ("attempt", (attempt as u64).into()),
                        ]
                    });
                    banned.insert(s);
                    candidates.retain(|c| c.server_set().is_disjoint(&banned));
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        Err(QccError::NoViablePlan(format!(
            "all retries exhausted; unavailable servers: {banned:?}"
        )))
    }

    /// Journal one event through the deferred buffer — `run` and everything
    /// below it execute on scatter workers under `submit_batch`, so journal
    /// appends must wait for the gather barrier (L9). `fields` is only
    /// built when the journal is on.
    fn journal(
        &self,
        effects: &mut Deferred,
        at: SimTime,
        kind: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, FieldValue)>,
    ) {
        if self.obs.is_enabled() {
            let obs = self.obs.clone();
            let fields = fields();
            effects.defer(move || obs.event(at, kind, fields));
        }
    }
}

impl Federation {
    pub(super) fn compile(
        &self,
        qid: QueryId,
        sql: &str,
        clock: &SimClock,
        effects: &mut Deferred,
    ) -> Result<CompiledGlobal> {
        let decomposed = decompose(sql, &self.nicknames)?;

        // Source selection: when a replica catalog is attached, prune each
        // fragment's candidate set *before* the EXPLAIN fan-out — dominated
        // replicas (strictly worse calibrated cost AND reliability band
        // than a surviving sibling) never win the cost race, so consulting
        // them is pure network waste. Selection preserves candidate order
        // and fails open on unregistered fragments, so a world without a
        // catalog (or with an empty one) compiles exactly as before.
        let selected: Vec<Vec<ServerId>> = decomposed
            .fragments
            .iter()
            .map(|frag| match &self.catalog {
                Some(catalog) => catalog.select_sources(&frag.nicknames, &frag.candidate_servers),
                None => frag.candidate_servers.clone(),
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
                self.obs
                    .counter_add("catalog_candidates_pruned_total", &[], (full - kept) as u64);
            }
            if self.obs.is_enabled() {
                let obs = self.obs.clone();
                let at = clock.now();
                effects.defer(move || {
                    // Per-query candidate-set-size distribution (post-prune).
                    obs.observe("catalog_candidate_set_size", &[], kept as f64);
                    if kept < full {
                        let mut fields: Vec<(&'static str, qcc_common::FieldValue)> = Vec::new();
                        if qid.0 != u64::MAX {
                            fields.push(("query", qid.0.into()));
                        }
                        fields.extend([("full", full.into()), ("kept", kept.into())]);
                        obs.event(at, "catalog_prune", fields);
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
            frag_sql: String,
        }
        let mut tasks: Vec<ExplainTask<'_>> = Vec::new();
        for (slot, frag) in decomposed.fragments.iter().enumerate() {
            let fid = FragmentId::new(qid, frag.index);
            for server in &selected[slot] {
                let Ok(wrapper) = self.wrapper(server) else {
                    continue;
                };
                tasks.push(ExplainTask {
                    slot,
                    fid,
                    wrapper,
                    frag_sql: frag.sql_for_server(&self.nicknames, server)?,
                });
            }
        }
        let at = clock.now();
        let outcomes = scatter_indexed(tasks.len(), self.config.threads, |i| {
            let t = &tasks[i];
            let mut local = Deferred::new();
            let result = self.middleware.plan_fragment(
                t.wrapper.as_ref(),
                qid,
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
            let finite: Vec<FragmentCandidate> = candidates
                .iter()
                .filter(|c| !c.effective_cost.is_infinite())
                .cloned()
                .collect();
            if !finite.is_empty() {
                *candidates = finite;
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
        // lexicographic order (rightmost fragment varies fastest — the
        // same first-`cap` set the old combo-cloning loop produced);
        // only the surviving combinations materialize candidate clones.
        let cap = self.config.max_global_candidates;
        let mut combos: Vec<Vec<FragmentCandidate>> = Vec::new();
        let mut odometer = vec![0usize; per_fragment.len()];
        'enumerate: while combos.len() < cap {
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

        let mut candidates: Vec<GlobalCandidate> = combos
            .into_iter()
            .map(|fragments| {
                let integration = self.estimate_integration(&decomposed, &fragments);
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
            let template = decomposed.template_signature.clone();
            let (explain_tasks, n_candidates) = (tasks.len(), candidates.len());
            let end = clock.now();
            effects.defer(move || {
                let mut fields: Vec<(&'static str, qcc_common::FieldValue)> = Vec::new();
                if qid.0 != u64::MAX {
                    fields.push(("query", qid.0.into()));
                }
                fields.extend([
                    ("template", template.into()),
                    ("explain_tasks", explain_tasks.into()),
                    ("candidates", n_candidates.into()),
                ]);
                obs.span("compile", at, end, fields);
            });
        }
        Ok((decomposed, candidates))
    }

    /// Estimated merge cost at the integrator for one fragment-candidate
    /// combination, using a virtual catalog whose table statistics come
    /// from the fragments' estimated cardinalities.
    fn estimate_integration(
        &self,
        decomposed: &DecomposedQuery,
        fragments: &[FragmentCandidate],
    ) -> Cost {
        let MergeSpec::Merge { stmt } = &decomposed.merge else {
            return Cost::ZERO;
        };
        let mut catalog = Catalog::new();
        for (i, frag) in decomposed.fragments.iter().enumerate() {
            let schema = frag.output_schema();
            let card = fragments
                .get(i)
                .map(|f| f.effective_cost.cardinality)
                .unwrap_or(1.0)
                .max(1.0) as u64;
            let columns = schema
                .columns()
                .iter()
                .map(|_| ColumnStats {
                    distinct: (card / 2).max(1),
                    ..ColumnStats::default()
                })
                .collect();
            let stats = TableStats::virtual_table(card, 8.0 * schema.len() as f64, columns);
            catalog.register_virtual(Table::new(frag_table(i), schema), stats);
        }
        let engine = Engine::new(catalog);
        match engine.explain(&stmt.to_string()) {
            Ok(plans) if !plans.is_empty() => plans[0].cost.calibrate(1.0 / self.config.ii_speed),
            _ => Cost::fixed(1.0),
        }
    }
}

/// One stream of a slot's race: the primary, or its hedge replica.
pub(super) struct Run<'a> {
    pub(super) cand: &'a FragmentCandidate,
    pub(super) stream: WrapperStream,
    pub(super) hedge: bool,
}

impl Run<'_> {
    pub(super) fn is_complete(&self) -> bool {
        self.stream.outcome == StreamOutcome::Complete
    }
}

impl Federation {
    /// Execute the fragments of a chosen global plan — the only fragment
    /// executor (DESIGN.md §15). The scatter fans out cursor-0 streams for
    /// every fragment (and every hedge replica), all stamped with the
    /// shared `start` snapshot; the gather then resolves slots
    /// sequentially on the coordinator, advances the clock once by the
    /// slowest slot, and merges. A stream that completed within the stall
    /// threshold is accepted as-is; where a hedge ran, the fastest such
    /// completion wins its slot (ties favour the primary) and a hedge that
    /// succeeds where its primary failed rescues the query without burning
    /// a retry. Otherwise the stall detector cancels the stream and
    /// re-dispatches its *remainder* ([`Federation::resolve_stall`]).
    /// Duplicate rows are impossible by construction: each chunk index is
    /// merged from exactly one source.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn dispatch_fragments(
        &self,
        qid: QueryId,
        decomposed: &DecomposedQuery,
        chosen: &GlobalCandidate,
        pool: &[GlobalCandidate],
        banned: &BTreeSet<ServerId>,
        remaining_ms: Option<f64>,
        clock: &SimClock,
        effects: &mut Deferred,
    ) -> Result<(Vec<Row>, FragmentTimes)> {
        let start = clock.now();
        let hedges = self.plan_hedges(qid, chosen, pool, banned, remaining_ms, start, effects);
        let n = chosen.fragments.len();
        // Task order: primaries by slot, then hedges by slot.
        let tasks: Vec<(usize, &FragmentCandidate)> = chosen
            .fragments
            .iter()
            .enumerate()
            .chain(hedges.iter().map(|(slot, cand)| (*slot, cand)))
            .collect();
        let outcomes = scatter_indexed(tasks.len(), self.config.threads, |i| {
            let cand = tasks[i].1;
            let mut local = Deferred::new();
            let result = self.wrapper(&cand.plan.server).and_then(|wrapper| {
                self.middleware.execute_fragment_stream(
                    wrapper.as_ref(),
                    qid,
                    cand.fragment,
                    &cand.plan,
                    start,
                    0,
                    &mut local,
                )
            });
            (result, local)
        });

        // Gather barrier: merge every task's deferred observations in task
        // order before any slot is resolved. Each primary keeps its own
        // outcome; a failed hedge is merely absent insurance (the
        // middleware recorded the failure).
        let mut primary: Vec<Result<WrapperStream>> = Vec::with_capacity(n);
        let mut hedge: BTreeMap<usize, WrapperStream> = BTreeMap::new();
        for (i, (result, local)) in outcomes.into_iter().enumerate() {
            effects.merge(local);
            if i < n {
                primary.push(result);
            } else if let Ok(stream) = result {
                hedge.insert(tasks[i].0, stream);
            }
        }

        // Slot resolution runs on the coordinator, in slot order — fully
        // deterministic for any thread count (everything past the barrier
        // is sequential).
        let mut results: Vec<WrapperResult> = Vec::with_capacity(n);
        let mut fragment_times: FragmentTimes = Vec::with_capacity(n);
        let mut slowest = SimDuration::ZERO;
        for (slot, (primary_cand, p)) in chosen.fragments.iter().zip(primary).enumerate() {
            let h = hedge.remove(&slot).map(|stream| Run {
                cand: &hedges[&slot],
                stream,
                hedge: true,
            });
            let p = match p {
                Ok(stream) => Some(Run {
                    cand: primary_cand,
                    stream,
                    hedge: false,
                }),
                // Unrescued: surface this slot's own error, so the retry
                // loop bans the server that actually failed it.
                Err(e) if h.is_none() => return Err(e),
                Err(_) => None,
            };
            let mut runs: Vec<Run<'_>> = p.into_iter().chain(h).collect();

            let threshold_ms = match self.config.stall_factor * primary_cand.effective_cost.total()
            {
                t if t > 0.0 => t,
                _ => f64::INFINITY,
            };
            // The fastest clean completion wins the slot; `min_by` keeps
            // the first of equals, so ties favour the primary — the hedge
            // is insurance, not a reroute.
            let winner = runs
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    r.is_complete() && r.stream.response_time.as_millis() <= threshold_ms
                })
                .min_by(|(_, a), (_, b)| {
                    let ms = |r: &Run<'_>| r.stream.response_time.as_millis();
                    ms(a).total_cmp(&ms(b))
                })
                .map(|(i, _)| i);
            // No clean completion: the detector acts on a complete-but-slow
            // stream first, then an interrupted primary, then an
            // interrupted hedge.
            let ix = winner.unwrap_or_else(|| runs.iter().position(Run::is_complete).unwrap_or(0));
            let run = runs.remove(ix);
            let other = runs.pop();
            let duplicate = other.as_ref().filter(|o| o.is_complete());

            let (result, server) = if winner.is_some() {
                if run.hedge {
                    self.obs.counter_inc("hedge_wins_total", &[]);
                }
                self.note_complete_stream(qid, run.cand, &run.stream, start, effects);
                if let Some(dup) = duplicate {
                    // The losing replica ran to completion uncancelled:
                    // its rows are dropped below, but its whole-fragment
                    // time is an honest calibration sample.
                    self.note_complete_stream(qid, dup.cand, &dup.stream, start, effects);
                }
                let server = run.cand.plan.server.clone();
                (stream_result(run.stream), server)
            } else {
                self.resolve_stall(
                    qid,
                    slot,
                    decomposed,
                    primary_cand,
                    run,
                    other.as_ref().map(|o| &o.cand.plan.server),
                    pool,
                    banned,
                    threshold_ms,
                    start,
                    effects,
                )?
            };
            if let Some(dup) = duplicate {
                // The one duplicate-suppression point: exactly one stream
                // feeds the slot; a second that arrived in full is dropped
                // here and journalled.
                self.suppress_duplicate(qid, slot, &server, &dup.cand.plan.server, start, effects);
            }
            slowest = slowest.max(result.response_time);
            fragment_times.push((server, result.response_time.as_millis()));
            results.push(result);
        }
        clock.advance(slowest);
        self.merge_global(qid, decomposed, results, fragment_times, clock, effects)
    }

    /// Hedged dispatch: choose (and journal) a hedge replica for every
    /// pressured fragment of `chosen` — one whose remaining deadline
    /// budget is below `hedge_slack_factor ×` its calibrated cost. The
    /// replica is the cheapest alternate plan for the slot on a different,
    /// unbanned server within `hedge_band ×` the primary's cost. Both run
    /// concurrently; the faster result wins and the loser is suppressed.
    #[allow(clippy::too_many_arguments)]
    fn plan_hedges(
        &self,
        qid: QueryId,
        chosen: &GlobalCandidate,
        pool: &[GlobalCandidate],
        banned: &BTreeSet<ServerId>,
        remaining_ms: Option<f64>,
        at: SimTime,
        effects: &mut Deferred,
    ) -> BTreeMap<usize, FragmentCandidate> {
        let mut hedges = BTreeMap::new();
        let (Some(admission), Some(remaining)) = (&self.admission, remaining_ms) else {
            return hedges;
        };
        let slack = admission.config().hedge_slack_factor;
        if slack <= 0.0 {
            return hedges;
        }
        let band = admission.config().hedge_band.max(1.0);
        for (slot, primary) in chosen.fragments.iter().enumerate() {
            let est = primary.effective_cost.total();
            if est <= 0.0 || remaining >= slack * est {
                continue;
            }
            let Some(alt) = self.cheapest_alternate(slot, pool, est * band, |alt| {
                alt.plan.server != primary.plan.server && !banned.contains(&alt.plan.server)
            }) else {
                continue;
            };
            self.obs
                .counter_inc("hedges_total", &[("server", alt.plan.server.as_str())]);
            self.journal(effects, at, "hedge", || {
                vec![
                    ("query", qid.0.into()),
                    ("fragment", slot.into()),
                    ("primary", primary.plan.server.to_string().into()),
                    ("hedge", alt.plan.server.to_string().into()),
                    ("est_ms", est.into()),
                ]
            });
            hedges.insert(slot, alt.clone());
        }
        hedges
    }

    /// The within-band alternate picker, shared by hedge planning and
    /// remainder re-dispatch: the cheapest plan for `slot` in the
    /// enumerated candidate `pool` whose calibrated cost is at most
    /// `limit`, whose server has token capacity in the frozen admission
    /// snapshot, and which the caller finds `eligible`. Ties break by
    /// server id — fully deterministic.
    pub(super) fn cheapest_alternate<'a>(
        &self,
        slot: usize,
        pool: &'a [GlobalCandidate],
        limit: f64,
        eligible: impl Fn(&FragmentCandidate) -> bool,
    ) -> Option<&'a FragmentCandidate> {
        pool.iter()
            .filter_map(|cand| cand.fragments.get(slot))
            .filter(|alt| {
                alt.effective_cost.total() <= limit
                    && self
                        .admission
                        .as_ref()
                        .is_none_or(|a| a.capacity(&alt.plan.server) > 0)
                    && eligible(alt)
            })
            .min_by(|a, b| {
                let cost = |c: &FragmentCandidate| c.effective_cost.total();
                cost(a)
                    .total_cmp(&cost(b))
                    .then_with(|| a.plan.server.cmp(&b.plan.server))
            })
    }

    /// Accept a fully-completed, uncancelled stream: count it, journal the
    /// fragment span, and acknowledge it to the middleware. This is the
    /// only caller of [`Middleware::observe_fragment`], hence the single
    /// rule for what feeds reliability and calibration — cancelled streams
    /// and rescued remainders never reach it.
    pub(super) fn note_complete_stream(
        &self,
        qid: QueryId,
        cand: &FragmentCandidate,
        stream: &WrapperStream,
        start: SimTime,
        effects: &mut Deferred,
    ) {
        let ms = stream.response_time.as_millis();
        self.journal_fragment(qid, &cand.plan, ms, start, effects);
        self.middleware
            .observe_fragment(qid, cand.fragment, &cand.plan, ms, start, effects);
    }

    /// Count and journal one `plan` execution that delivered rows to the
    /// merge (a whole fragment, or a resumed remainder).
    pub(super) fn journal_fragment(
        &self,
        qid: QueryId,
        plan: &FragmentPlan,
        ms: f64,
        at: SimTime,
        effects: &mut Deferred,
    ) {
        self.obs
            .counter_inc("fragments_total", &[("server", plan.server.as_str())]);
        self.journal(effects, at, "fragment", || {
            vec![
                ("query", qid.0.into()),
                ("server", plan.server.to_string().into()),
                ("signature", plan.signature.clone().into()),
                ("ms", ms.into()),
            ]
        });
    }
}

/// A completed stream's chunks as the slot's merge input.
pub(super) fn stream_result(stream: WrapperStream) -> WrapperResult {
    WrapperResult {
        bytes: stream.bytes,
        response_time: stream.response_time,
        batches: stream.chunks.into_iter().map(|c| c.batch).collect(),
    }
}

impl Federation {
    /// Cancel a stalled (or interrupted) base stream and re-dispatch its
    /// remainder — the chunks past the cursor — to a within-band replica,
    /// once. Returns the stitched slot result and the server that finished
    /// it; if no replica can finish it, the failure surfaces to the
    /// whole-query retry loop, which bans the server and re-plans.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn resolve_stall(
        &self,
        qid: QueryId,
        slot: usize,
        decomposed: &DecomposedQuery,
        primary_cand: &FragmentCandidate,
        base: Run<'_>,
        also_excluded: Option<&ServerId>,
        pool: &[GlobalCandidate],
        banned: &BTreeSet<ServerId>,
        threshold_ms: f64,
        start: SimTime,
        effects: &mut Deferred,
    ) -> Result<(WrapperResult, ServerId)> {
        let probe = SimDuration::from_millis(REROUTE_PROBE_MS);
        let base_server = base.cand.plan.server.clone();
        let mut excluded = banned.clone();
        excluded.insert(base_server.clone());
        excluded.extend(also_excluded.cloned());
        let alt = self.pick_reroute_replica(slot, decomposed, primary_cand, pool, &excluded);

        // The detection instant, the chunks the integrator keeps, and the
        // late chunks it must suppress.
        let total_chunks = base.stream.total_chunks;
        let (cancel_at, reason, mut kept, fault_ms) = match base.stream.outcome {
            StreamOutcome::Interrupted { at } => {
                // The source died mid-stream; every delivered chunk
                // precedes the transition, and detection costs one probe
                // interval.
                let fault_ms = Some(at.as_millis());
                (at + probe, "interrupt", base.stream.chunks, fault_ms)
            }
            StreamOutcome::Complete => {
                let cancel_at = start + SimDuration::from_millis(threshold_ms);
                let late = base
                    .stream
                    .chunks
                    .iter()
                    .filter(|c| c.at > cancel_at)
                    .count();
                if late == 0 || alt.is_none() {
                    // Every chunk beat the threshold (only the transfer
                    // tail overran), or no within-band replica exists:
                    // cancelling gains nothing, so the slow result is kept
                    // whole.
                    let why = if late == 0 { "tail" } else { "no_replica" };
                    self.obs
                        .counter_inc("reroute_declined_total", &[("reason", why)]);
                    self.note_complete_stream(qid, base.cand, &base.stream, start, effects);
                    return Ok((stream_result(base.stream), base_server));
                }
                self.obs
                    .counter_add("reroute_chunks_suppressed_total", &[], late as u64);
                let mut kept = base.stream.chunks;
                kept.retain(|c| c.at <= cancel_at);
                (cancel_at, "slow", kept, None)
            }
        };
        self.journal_stall(
            qid,
            slot,
            &base_server,
            reason,
            cancel_at,
            start,
            threshold_ms,
            effects,
        );
        if reason == "slow" {
            // A stall-cancel is soft reliability evidence; the interrupt
            // case was already recorded (at the transition instant) by the
            // middleware when the stream came back cut.
            self.middleware.observe_fragment_cancel(
                qid,
                primary_cand.fragment,
                &base_server,
                cancel_at,
                effects,
            );
        }
        let Some(alt) = alt else {
            self.obs.counter_inc("reroute_exhausted_total", &[]);
            return Err(QccError::ServerUnavailable(base_server));
        };

        let alt_server = alt.plan.server.clone();
        let cursor = kept.len();
        // The remainder rides the slot's admission token — the picker
        // consulted the frozen capacity snapshot, but nothing is consumed;
        // journal the reuse.
        if let Some(admission) = &self.admission {
            admission.note_reroute_reuse(&alt_server);
        }
        self.obs.counter_inc(
            "fragment_reroutes_total",
            &[("server", alt_server.as_str())],
        );
        self.journal(effects, cancel_at, ev::REROUTE_DISPATCH, || {
            let mut fields: Vec<(&'static str, FieldValue)> = vec![
                ("query", qid.0.into()),
                ("fragment", slot.into()),
                ("from", base_server.to_string().into()),
                ("to", alt_server.to_string().into()),
                ("cursor", cursor.into()),
                ("total_chunks", total_chunks.into()),
                ("reason", reason.into()),
                ("est_ms", primary_cand.effective_cost.total().into()),
                ("frag_start_ms", start.as_millis().into()),
            ];
            if threshold_ms.is_finite() {
                fields.push(("threshold_ms", threshold_ms.into()));
            }
            if let Some(f) = fault_ms {
                fields.push(("fault_ms", f.into()));
            }
            fields
        });
        let resumed = self.wrapper(&alt_server).and_then(|wrapper| {
            self.middleware.execute_fragment_stream(
                wrapper.as_ref(),
                qid,
                primary_cand.fragment,
                &alt.plan,
                cancel_at,
                cursor,
                effects,
            )
        });
        match resumed {
            Ok(stream) if stream.outcome == StreamOutcome::Complete => {
                let end = cancel_at + stream.response_time;
                let ms = stream.response_time.as_millis();
                self.obs
                    .counter_inc("fragment_resumes_total", &[("server", alt_server.as_str())]);
                // Journalled as a fragment, but never acknowledged to the
                // middleware: a partial run is not a valid calibration
                // sample for the whole-fragment estimate.
                self.journal_fragment(qid, &alt.plan, ms, cancel_at, effects);
                self.journal(effects, end, ev::FRAGMENT_RESUME, || {
                    vec![
                        ("query", qid.0.into()),
                        ("fragment", slot.into()),
                        ("server", alt_server.to_string().into()),
                        ("cursor", cursor.into()),
                        ("chunks", stream.delivered().into()),
                        ("ms", ms.into()),
                    ]
                });
                self.journal(effects, end, ev::FRAGMENT_STREAM, || {
                    // Provenance "S1:0..k+S2:k..n" must tile the chunk range.
                    let resumed = format!("{alt_server}:{cursor}..{}", stream.next_cursor());
                    let sources = match cursor {
                        0 => resumed,
                        k => format!("{base_server}:0..{k}+{resumed}"),
                    };
                    vec![
                        ("query", qid.0.into()),
                        ("fragment", slot.into()),
                        ("sources", sources.into()),
                        ("total_chunks", total_chunks.into()),
                    ]
                });
                kept.extend(stream.chunks);
                let result = WrapperResult {
                    bytes: kept.iter().map(|c| c.batch.byte_size()).sum(),
                    response_time: end.since(start),
                    batches: kept.into_iter().map(|c| c.batch).collect(),
                };
                return Ok((result, alt_server));
            }
            Ok(stream) => {
                // The replica died mid-remainder too.
                if let StreamOutcome::Interrupted { at } = stream.outcome {
                    self.journal_stall(
                        qid,
                        slot,
                        &alt_server,
                        "interrupt",
                        at + probe,
                        start,
                        threshold_ms,
                        effects,
                    );
                }
            }
            // Dead on arrival (recorded by the middleware).
            Err(QccError::ServerUnavailable(_)) | Err(QccError::ServerFault { .. }) => {}
            Err(e) => return Err(e),
        }
        self.obs.counter_inc("reroute_exhausted_total", &[]);
        Err(QccError::ServerUnavailable(alt_server))
    }

    /// The replica a cancelled fragment's remainder re-dispatches to: the
    /// cheapest alternate for the slot ([`Federation::cheapest_alternate`])
    /// outside `excluded`, within [`REROUTE_BAND`] of the primary's
    /// estimate, with the *same plan signature and SQL* (so the cursor
    /// protocol's chunk schedule lines up); when a replica catalog is
    /// attached the alternate must also be a registered sibling on every
    /// nickname the fragment scans (fail open for unregistered fragments,
    /// as compile does).
    fn pick_reroute_replica<'a>(
        &self,
        slot: usize,
        decomposed: &DecomposedQuery,
        primary: &FragmentCandidate,
        pool: &'a [GlobalCandidate],
        excluded: &BTreeSet<ServerId>,
    ) -> Option<&'a FragmentCandidate> {
        let limit = match primary.effective_cost.total() {
            est if est > 0.0 => est * REROUTE_BAND,
            _ => f64::INFINITY,
        };
        let nicknames = &decomposed.fragments[slot].nicknames;
        self.cheapest_alternate(slot, pool, limit, |alt| {
            !excluded.contains(&alt.plan.server)
                && alt.plan.signature == primary.plan.signature
                && alt.plan.sql == primary.plan.sql
                && self.catalog.as_ref().is_none_or(|catalog| {
                    nicknames.iter().all(|nn| {
                        catalog.replicas(nn).is_empty()
                            || catalog
                                .siblings(nn, &primary.plan.server)
                                .contains(&alt.plan.server)
                    })
                })
        })
    }

    /// Count and journal a stall-detector cancellation.
    #[allow(clippy::too_many_arguments)]
    fn journal_stall(
        &self,
        qid: QueryId,
        slot: usize,
        server: &ServerId,
        reason: &'static str,
        cancel_at: SimTime,
        start: SimTime,
        threshold_ms: f64,
        effects: &mut Deferred,
    ) {
        self.obs.counter_inc(
            "fragment_stalls_total",
            &[("server", server.as_str()), ("reason", reason)],
        );
        self.journal(effects, cancel_at, ev::FRAGMENT_STALL, || {
            let mut fields: Vec<(&'static str, FieldValue)> = vec![
                ("query", qid.0.into()),
                ("fragment", slot.into()),
                ("server", server.to_string().into()),
                ("reason", reason.into()),
                ("elapsed_ms", cancel_at.since(start).as_millis().into()),
            ];
            if threshold_ms.is_finite() {
                fields.push(("threshold_ms", threshold_ms.into()));
            }
            fields
        });
    }

    /// Count and journal a suppressed duplicate slot result.
    pub(super) fn suppress_duplicate(
        &self,
        qid: QueryId,
        slot: usize,
        winner: &ServerId,
        suppressed: &ServerId,
        start: SimTime,
        effects: &mut Deferred,
    ) {
        self.obs
            .counter_inc("hedge_duplicates_suppressed_total", &[]);
        self.journal(effects, start, "hedge_result", || {
            vec![
                ("query", qid.0.into()),
                ("fragment", slot.into()),
                ("winner", winner.to_string().into()),
                ("suppressed", suppressed.to_string().into()),
            ]
        });
    }
}

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
                let (rows, work) = engine.execute_sql(&stmt.to_string())?;
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

/// Comma-joined server names (sets iterate sorted, so this is stable).
fn join_servers(set: &BTreeSet<ServerId>) -> String {
    set.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(",")
}

impl std::fmt::Debug for Federation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Federation")
            .field("nicknames", &self.nicknames.names())
            .field("wrappers", &self.wrappers.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::middleware::PassthroughMiddleware;
    use qcc_common::{Column, DataType, FieldValue, Schema, SimTime, Value};
    use qcc_netsim::{Link, Network};
    use qcc_remote::{RemoteServer, ServerProfile};
    use qcc_wrapper::RelationalWrapper;

    /// Two servers: S1 hosts accounts+branches, S2 hosts a replica of
    /// branches only.
    fn setup() -> Federation {
        let accounts_schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("balance", DataType::Float),
            Column::new("branch_id", DataType::Int),
        ]);
        let branches_schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("city", DataType::Str),
        ]);

        let mut accounts = Table::new("accounts", accounts_schema.clone());
        for i in 0..500i64 {
            accounts
                .insert(Row::new(vec![
                    Value::Int(i),
                    Value::Float((i % 100) as f64),
                    Value::Int(i % 10),
                ]))
                .unwrap();
        }
        let mut branches = Table::new("branches", branches_schema.clone());
        for i in 0..10i64 {
            branches
                .insert(Row::new(vec![
                    Value::Int(i),
                    Value::Str(format!("city{i}")),
                ]))
                .unwrap();
        }

        let mut cat1 = Catalog::new();
        cat1.register(accounts.clone());
        cat1.register(branches.clone());
        let mut cat2 = Catalog::new();
        cat2.register(branches.clone());

        let s1 = RemoteServer::new(ServerProfile::new(ServerId::new("S1")), cat1);
        let s2 = RemoteServer::new(ServerProfile::new(ServerId::new("S2")), cat2);

        let mut net = Network::new();
        net.add_link(ServerId::new("S1"), Link::lan());
        net.add_link(ServerId::new("S2"), Link::lan());
        let net = Arc::new(net);

        let mut nicknames = NicknameCatalog::new();
        nicknames.define("accounts", accounts_schema);
        nicknames.define("branches", branches_schema);
        nicknames
            .add_source("accounts", ServerId::new("S1"), "accounts")
            .unwrap();
        nicknames
            .add_source("branches", ServerId::new("S1"), "branches")
            .unwrap();
        nicknames
            .add_source("branches", ServerId::new("S2"), "branches")
            .unwrap();

        let mut fed = Federation::new(
            nicknames,
            SimClock::new(),
            Arc::new(PassthroughMiddleware::default()),
            FederationConfig::default(),
        );
        fed.add_wrapper(Arc::new(RelationalWrapper::new(s1, Arc::clone(&net))));
        fed.add_wrapper(Arc::new(RelationalWrapper::new(s2, net)));
        fed
    }

    #[test]
    fn single_source_query_round_trips() {
        let fed = setup();
        let out = fed
            .submit("SELECT COUNT(*) FROM accounts WHERE balance > 50.0")
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].get(0), &Value::Int(245));
        assert!(out.response_ms > 0.0);
        assert_eq!(fed.patroller().len(), 1);
    }

    #[test]
    fn colocated_join_pushes_to_s1() {
        let fed = setup();
        let out = fed
            .submit(
                "SELECT b.city, COUNT(*) AS n FROM accounts a JOIN branches b \
                 ON a.branch_id = b.id GROUP BY b.city ORDER BY b.city",
            )
            .unwrap();
        assert_eq!(out.rows.len(), 10);
        assert_eq!(out.rows[0].get(1), &Value::Int(50));
        assert!(out.servers.contains(&ServerId::new("S1")));
        assert_eq!(out.servers.len(), 1, "join pushed to the coherent host");
    }

    #[test]
    fn replica_choice_exists_for_replicated_nickname() {
        let fed = setup();
        let (_, candidates) = fed.explain_global("SELECT COUNT(*) FROM branches").unwrap();
        let servers: BTreeSet<String> = candidates
            .iter()
            .map(|c| c.server_set().iter().next().unwrap().to_string())
            .collect();
        assert!(servers.contains("S1") && servers.contains("S2"));
    }

    #[test]
    fn explain_table_records_winner() {
        let fed = setup();
        fed.submit("SELECT COUNT(*) FROM branches").unwrap();
        assert_eq!(fed.explain_table().len(), 1);
    }

    #[test]
    fn failure_reroutes_to_replica() {
        // Build a setup where we keep direct handles to the servers.
        let branches_schema = Schema::new(vec![Column::new("id", DataType::Int)]);
        let mut branches = Table::new("branches", branches_schema.clone());
        for i in 0..10i64 {
            branches.insert(Row::new(vec![Value::Int(i)])).unwrap();
        }
        let mut cat1 = Catalog::new();
        cat1.register(branches.clone());
        let mut cat2 = Catalog::new();
        cat2.register(branches);
        let s1 = RemoteServer::new(ServerProfile::new(ServerId::new("S1")), cat1);
        let s2 = RemoteServer::new(ServerProfile::new(ServerId::new("S2")), cat2);
        let mut net = Network::new();
        net.add_link(ServerId::new("S1"), Link::lan());
        net.add_link(ServerId::new("S2"), Link::lan());
        let net = Arc::new(net);
        let mut nicknames = NicknameCatalog::new();
        nicknames.define("branches", branches_schema);
        nicknames
            .add_source("branches", ServerId::new("S1"), "branches")
            .unwrap();
        nicknames
            .add_source("branches", ServerId::new("S2"), "branches")
            .unwrap();
        let mut fed = Federation::new(
            nicknames,
            SimClock::new(),
            Arc::new(PassthroughMiddleware::default()),
            FederationConfig::default(),
        );
        fed.add_wrapper(Arc::new(RelationalWrapper::new(
            Arc::clone(&s1),
            Arc::clone(&net),
        )));
        fed.add_wrapper(Arc::new(RelationalWrapper::new(s2, net)));

        // S1 goes down *after compile time* is hard to time here; instead
        // take it down for the whole run — compile skips it, S2 serves.
        s1.availability()
            .add_outage(SimTime::ZERO, SimTime::from_millis(1e12));
        let out = fed.submit("SELECT COUNT(*) FROM branches").unwrap();
        assert_eq!(out.rows[0].get(0), &Value::Int(10));
        assert!(out.servers.contains(&ServerId::new("S2")));
    }

    /// Servers S1..Sn on LAN links, `hosts[i]` naming the tables S(i+1)
    /// holds — each a 5000-row table of one Int `id` column (multi-chunk at
    /// BATCH_ROWS=1024) — with the journal enabled.
    fn id_table_fleet(
        hosts: &[&[&str]],
        stall_factor: f64,
    ) -> (Federation, Vec<Arc<RemoteServer>>) {
        let schema = Schema::new(vec![Column::new("id", DataType::Int)]);
        let mut net = Network::new();
        let mut nicknames = NicknameCatalog::new();
        let mut servers = Vec::new();
        for (i, tables) in hosts.iter().enumerate() {
            let id = ServerId::new(format!("S{}", i + 1));
            let mut catalog = Catalog::new();
            for &name in *tables {
                let mut table = Table::new(name, schema.clone());
                for row in 0..5000i64 {
                    table.insert(Row::new(vec![Value::Int(row)])).unwrap();
                }
                catalog.register(table);
                if !nicknames.names().contains(&name) {
                    nicknames.define(name, schema.clone());
                }
                nicknames.add_source(name, id.clone(), name).unwrap();
            }
            net.add_link(id.clone(), Link::lan());
            servers.push(RemoteServer::new(ServerProfile::new(id), catalog));
        }
        let net = Arc::new(net);
        let mut fed = Federation::new(
            nicknames,
            SimClock::new(),
            Arc::new(PassthroughMiddleware::default()),
            FederationConfig {
                stall_factor,
                ..FederationConfig::default()
            },
        );
        fed.set_obs(Obs::new());
        for server in &servers {
            fed.add_wrapper(Arc::new(RelationalWrapper::new(
                Arc::clone(server),
                Arc::clone(&net),
            )));
        }
        (fed, servers)
    }

    /// Two full `branches` replicas; returns S1's handle for fault
    /// injection.
    fn streaming_fixture(stall_factor: f64) -> (Federation, Arc<RemoteServer>) {
        let (fed, servers) = id_table_fleet(&[&["branches"], &["branches"]], stall_factor);
        (fed, Arc::clone(&servers[0]))
    }

    fn sorted_ids(rows: &[Row]) -> Vec<i64> {
        let mut ids: Vec<i64> = rows
            .iter()
            .map(|r| match r.get(0) {
                Value::Int(i) => *i,
                v => panic!("unexpected value {v:?}"),
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn midquery_interrupt_reroutes_remainder_without_duplicates() {
        // Dry run on a healthy fleet to learn when the fragment executes
        // and how long it takes (all virtual time, fully deterministic).
        let (dry, _) = streaming_fixture(0.0);
        dry.submit("SELECT id FROM branches").unwrap();
        let frag = &dry.obs().events_of("fragment")[0];
        let t0 = frag.at.as_millis();
        let Some(FieldValue::F64(ms)) = frag.field("ms") else {
            panic!("fragment event lacks ms");
        };

        // Fresh identical world where the serving replica crashes 30% of
        // the way into the fragment: the stream is cut mid-service and the
        // remainder must resume on the sibling at the cursor.
        let (fed, s1) = streaming_fixture(0.0);
        s1.availability().add_outage(
            SimTime::from_millis(t0 + 0.3 * ms),
            SimTime::from_millis(1e12),
        );
        let out = fed.submit("SELECT id FROM branches").unwrap();
        assert_eq!(
            sorted_ids(&out.rows),
            (0..5000).collect::<Vec<_>>(),
            "every row exactly once: no duplicates, no loss"
        );
        let obs = fed.obs();
        assert_eq!(obs.events_of("fragment_stall").len(), 1);
        let stall = &obs.events_of("fragment_stall")[0];
        assert_eq!(stall.str_field("reason"), Some("interrupt"));
        assert_eq!(obs.events_of("reroute_dispatch").len(), 1);
        assert_eq!(obs.events_of("fragment_resume").len(), 1);
        let stream = &obs.events_of("fragment_stream")[0];
        let sources = stream.str_field("sources").unwrap();
        assert!(
            sources.starts_with("S1:0..") && sources.contains("+S2:"),
            "stitched provenance, got {sources}"
        );
        assert_eq!(out.fragment_times[0].0, ServerId::new("S2"));
        assert_eq!(
            obs.counter_value("fragment_reroutes_total", &[("server", "S2")]),
            1
        );
        // The interrupt was detected mid-query, not burned as a whole-query
        // retry.
        assert_eq!(obs.counter_value("retries_total", &[]), 0);
    }

    #[test]
    fn stalled_fragment_cancels_and_reroutes_to_fast_replica() {
        // S1 is crushed by background load (the estimate is load-blind,
        // so its stream overruns stall_factor × estimate); S2 idles. The
        // detector must cancel S1 at the threshold and finish on S2.
        let (fed, s1) = streaming_fixture(3.0);
        s1.load().set_background(LoadProfile::Constant(0.95));
        let out = fed.submit("SELECT id FROM branches").unwrap();
        assert_eq!(sorted_ids(&out.rows), (0..5000).collect::<Vec<_>>());
        let obs = fed.obs();
        let stall = &obs.events_of("fragment_stall")[0];
        assert_eq!(stall.str_field("reason"), Some("slow"));
        assert_eq!(obs.events_of("reroute_dispatch").len(), 1);
        assert_eq!(out.fragment_times[0].0, ServerId::new("S2"));
        // A slow-cancel feeds the reliability penalty hook, not a retry.
        assert_eq!(obs.counter_value("retries_total", &[]), 0);
    }

    #[test]
    fn no_viable_plan_when_all_sources_down() {
        let branches_schema = Schema::new(vec![Column::new("id", DataType::Int)]);
        let mut cat = Catalog::new();
        cat.register(Table::new("branches", branches_schema.clone()));
        let s1 = RemoteServer::new(ServerProfile::new(ServerId::new("S1")), cat);
        s1.availability()
            .add_outage(SimTime::ZERO, SimTime::from_millis(1e12));
        let mut net = Network::new();
        net.add_link(ServerId::new("S1"), Link::lan());
        let mut nicknames = NicknameCatalog::new();
        nicknames.define("branches", branches_schema);
        nicknames
            .add_source("branches", ServerId::new("S1"), "branches")
            .unwrap();
        let mut fed = Federation::new(
            nicknames,
            SimClock::new(),
            Arc::new(PassthroughMiddleware::default()),
            FederationConfig::default(),
        );
        fed.add_wrapper(Arc::new(RelationalWrapper::new(s1, Arc::new(net))));
        let err = fed.submit("SELECT COUNT(*) FROM branches").unwrap_err();
        assert!(matches!(err, QccError::NoViablePlan(_)), "{err}");
        assert_eq!(
            fed.patroller().log()[0].status,
            crate::patroller::QueryStatus::Failed(err.to_string())
        );
    }

    #[test]
    fn clock_advances_with_execution() {
        let fed = setup();
        let before = fed.clock().now();
        fed.submit("SELECT * FROM accounts WHERE id < 100").unwrap();
        assert!(fed.clock().now() > before);
    }

    #[test]
    fn cross_source_merge_join_correct() {
        // Force a split: accounts only on S1, branches only on S2.
        let accounts_schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("branch_id", DataType::Int),
        ]);
        let branches_schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("city", DataType::Str),
        ]);
        let mut accounts = Table::new("accounts", accounts_schema.clone());
        for i in 0..100i64 {
            accounts
                .insert(Row::new(vec![Value::Int(i), Value::Int(i % 5)]))
                .unwrap();
        }
        let mut branches = Table::new("branches", branches_schema.clone());
        for i in 0..5i64 {
            branches
                .insert(Row::new(vec![Value::Int(i), Value::Str(format!("c{i}"))]))
                .unwrap();
        }
        let mut cat1 = Catalog::new();
        cat1.register(accounts);
        let mut cat2 = Catalog::new();
        cat2.register(branches);
        let s1 = RemoteServer::new(ServerProfile::new(ServerId::new("S1")), cat1);
        let s2 = RemoteServer::new(ServerProfile::new(ServerId::new("S2")), cat2);
        let mut net = Network::new();
        net.add_link(ServerId::new("S1"), Link::lan());
        net.add_link(ServerId::new("S2"), Link::lan());
        let net = Arc::new(net);
        let mut nicknames = NicknameCatalog::new();
        nicknames.define("accounts", accounts_schema);
        nicknames.define("branches", branches_schema);
        nicknames
            .add_source("accounts", ServerId::new("S1"), "accounts")
            .unwrap();
        nicknames
            .add_source("branches", ServerId::new("S2"), "branches")
            .unwrap();
        let mut fed = Federation::new(
            nicknames,
            SimClock::new(),
            Arc::new(PassthroughMiddleware::default()),
            FederationConfig::default(),
        );
        fed.set_obs(Obs::new());
        fed.add_wrapper(Arc::new(RelationalWrapper::new(s1, Arc::clone(&net))));
        fed.add_wrapper(Arc::new(RelationalWrapper::new(s2, net)));

        let out = fed
            .submit(
                "SELECT b.city, COUNT(*) AS n FROM accounts a JOIN branches b \
                 ON a.branch_id = b.id GROUP BY b.city ORDER BY b.city",
            )
            .unwrap();
        assert_eq!(out.rows.len(), 5);
        for r in &out.rows {
            assert_eq!(r.get(1), &Value::Int(20));
        }
        assert_eq!(out.servers.len(), 2, "both sources touched");
        assert_eq!(out.fragment_times.len(), 2);
        // A cross-source split is the one shape that exercises the local
        // merge, so this is where the "merge" journal event is pinned.
        let merges = fed.obs().events_of("merge");
        assert_eq!(merges.len(), 1);
        assert!(merges[0].field("ms").is_some());
        assert_eq!(fed.obs().events_of("fragment").len(), 2);
    }

    #[test]
    fn pressured_fragment_hedges_to_replica_and_suppresses_duplicate() {
        let mut fed = setup();
        fed.set_obs(Obs::new());
        // A slack factor this large marks every fragment of a
        // finite-deadline query as pressured, so the replicated nickname
        // must hedge to its second host.
        let admission = Arc::new(AdmissionController::new(qcc_admission::AdmissionConfig {
            exec_deadline_ms: 50.0,
            hedge_slack_factor: 1_000_000.0,
            hedge_band: 10.0,
            ..Default::default()
        }));
        admission.set_capacity(&ServerId::new("S1"), 2, SimTime::ZERO);
        admission.set_capacity(&ServerId::new("S2"), 2, SimTime::ZERO);
        fed.set_admission(Arc::clone(&admission));

        let out = fed.submit("SELECT COUNT(*) FROM branches").unwrap();
        assert_eq!(
            out.rows[0].get(0),
            &Value::Int(10),
            "one merged result; the losing replica's rows are suppressed"
        );
        let hedges = fed.obs().events_of("hedge");
        assert_eq!(hedges.len(), 1, "single-fragment plan hedges exactly once");
        assert!(hedges[0].field("primary").is_some());
        assert_ne!(
            hedges[0].field("primary"),
            hedges[0].field("hedge"),
            "the hedge replica must sit on a different server"
        );
        let results = fed.obs().events_of("hedge_result");
        assert_eq!(results.len(), 1);
        assert!(results[0].field("winner").is_some());
        assert_eq!(
            fed.obs()
                .counter_value("hedge_duplicates_suppressed_total", &[]),
            1,
            "healthy world: both replicas answer, exactly one duplicate suppressed"
        );
    }

    #[test]
    fn unrescued_slot_surfaces_its_own_error_not_a_rescued_slots() {
        // Slot 0 (`branches`, two replicas) can hedge; slot 1 (`accounts`,
        // one host) cannot.
        const SQL: &str = "SELECT b.id FROM branches b JOIN accounts a ON a.id = b.id";
        let build = || {
            let (mut fed, servers) =
                id_table_fleet(&[&["branches"], &["branches"], &["accounts"]], 0.0);
            let admission = Arc::new(AdmissionController::new(qcc_admission::AdmissionConfig {
                exec_deadline_ms: 50.0,
                hedge_slack_factor: 1_000_000.0,
                hedge_band: 10.0,
                ..Default::default()
            }));
            for server in &servers {
                admission.set_capacity(server.id(), 2, SimTime::ZERO);
            }
            fed.set_admission(admission);
            (fed, servers)
        };
        // Dry run: learn the dispatch instant and slot 0's primary.
        let (dry, _) = build();
        dry.submit(SQL).unwrap();
        let hedge = &dry.obs().events_of("hedge")[0];
        assert_eq!(hedge.field("fragment"), Some(&FieldValue::U64(0)));
        let primary0 = hedge.str_field("primary").unwrap().to_string();
        let dispatched = hedge.at;

        // Same world, but slot 0's primary and slot 1's only host both
        // refuse the EXECUTE on arrival (up for the EXPLAIN, down from the
        // dispatch instant on). The hedge rescues slot 0; nothing can
        // rescue slot 1, so the server to ban is slot 1's.
        let (fed, servers) = build();
        for server in &servers {
            if server.id().as_str() == primary0 || server.id().as_str() == "S3" {
                server
                    .availability()
                    .add_outage(dispatched, SimTime::from_millis(1e12));
            }
        }
        let err = fed.submit(SQL).unwrap_err();
        assert!(matches!(err, QccError::NoViablePlan(_)), "{err}");
        let bans = fed.obs().events_of("server_banned");
        assert_eq!(
            bans.len(),
            1,
            "one ban leaves no plan: accounts has one host"
        );
        assert_eq!(bans[0].str_field("server"), Some("S3"));
    }
}
