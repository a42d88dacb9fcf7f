//! The integrator's orchestration: compile, globally optimize, execute
//! remotely, merge locally. This file holds the [`Federation`] struct, its
//! configuration and accessors, `submit*` and the per-query `run`: compile
//! → token gate → choose → dispatch → completion bookkeeping. The stages it
//! drives live in the child modules.

mod compile;
mod dispatch;
mod merge;
mod recover;
mod template;

pub use recover::{REROUTE_BAND, REROUTE_PROBE_MS};
pub use template::TEMPLATE_CACHE_CAPACITY;

use crate::decompose::DecomposedQuery;
use crate::middleware::{Deferred, GlobalCandidate, Middleware};
use crate::nickname::NicknameCatalog;
use crate::patroller::QueryPatroller;
use qcc_admission::AdmissionController;
use qcc_catalog::ReplicaCatalog;
use qcc_common::{
    scatter_indexed, CounterFamily, CounterHandle, Field, HistogramHandle, Obs, QccError, QueryId,
    Result, Row, ServerId, SimTime,
};
use qcc_netsim::{LoadProfile, ServerLoad, SimClock};
use qcc_wrapper::Wrapper;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use template::Statement;

/// Integrator CPU speed (work units per virtual ms): what the merge's
/// estimate (`compile.rs`) and its execution (`merge.rs`) divide by.
const II_SPEED: f64 = 1.0;

/// Integrator configuration.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// How many times one fragment slot is re-dispatched after a failure
    /// (refused on arrival, cut mid-stream, or cancelled as slow) before
    /// the query fails (DESIGN.md §10). Each re-dispatch avoids every
    /// server that already failed the slot.
    pub retry_limit: usize,
    /// Worker-pool width for scatter-gather fan-out (compile-time EXPLAIN
    /// dispatch, fragment execution, `submit_batch`). Results are
    /// byte-identical for any value ≥ 1; this only trades wall-clock time
    /// (see DESIGN.md §2 "Scatter-gather and QCC_THREADS").
    pub threads: usize,
    /// Slow-cancel multiplier of the stall detector (DESIGN.md §10): a
    /// healthy stream still incomplete after `stall_factor ×` its
    /// calibrated estimate is cancelled and its *remainder* re-dispatched
    /// to a within-band replica at the cursor. `0.0` — the default — never
    /// cancels a healthy stream for slowness. Interrupt rescue (the source
    /// dies mid-stream) does not depend on this value: it is always on.
    pub stall_factor: f64,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
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
    /// The servers that finished the fragment slots: the chosen plan's,
    /// except where a hedge or a re-dispatch rescued a slot.
    pub servers: BTreeSet<ServerId>,
    /// Observed per-fragment response times `(server, ms)`.
    pub fragment_times: Vec<(ServerId, f64)>,
    /// The estimated total cost of the chosen plan (for calibration
    /// inspection in tests and experiments).
    pub estimated_cost: f64,
}

/// A compiled federated query: its decomposition (shared with the
/// statement's compiled template) plus the enumerated global candidates,
/// costed and sorted cheapest-first.
pub type CompiledGlobal = (Arc<DecomposedQuery>, Vec<GlobalCandidate>);

/// Observed `(server, response ms)` pairs, one per executed fragment.
pub type FragmentTimes = Vec<(ServerId, f64)>;

/// A dispatched query's rows, its fragment times, and its merge's start
/// and virtual ms (none for a passthrough).
type Dispatched = (Vec<Row>, FragmentTimes, Option<(SimTime, f64)>);

/// The federated information integrator.
pub struct Federation {
    nicknames: NicknameCatalog,
    wrappers: BTreeMap<ServerId, Arc<dyn Wrapper>>,
    middleware: Arc<dyn Middleware>,
    patroller: QueryPatroller,
    clock: SimClock,
    ii_load: ServerLoad,
    config: FederationConfig,
    /// Compiled templates by exact SQL text (DESIGN.md §3). Probed on the
    /// query's own thread, inserted into through the `Deferred` buffers.
    templates: template::TemplateCache,
    /// Observability handle (disabled unless [`Federation::set_obs`] is
    /// called). Worker-side journal emissions ride the `Deferred` buffers
    /// so snapshots stay thread-count independent.
    obs: Obs,
    /// The per-arrival series of `obs`, resolved once.
    metrics: Metrics,
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
            templates: template::new_cache(),
            obs: Obs::off(),
            metrics: Metrics::default(),
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

    /// Attach an observability handle; the patroller journals through the
    /// same one.
    pub fn set_obs(&mut self, obs: Obs) {
        self.patroller.set_obs(obs.clone());
        self.metrics = Metrics {
            template_hits: obs.counter("compiled_template_hits_total", &[]),
            fragments: obs.counter_family("fragments_total", "server"),
            pruned: obs.counter("catalog_candidates_pruned_total", &[]),
            set_size: obs.histogram("catalog_candidate_set_size", &[]),
        };
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

    /// Compile a query: decompose and enumerate global candidates with
    /// (possibly calibrated) costs. Advances the clock by the slowest
    /// EXPLAIN round trip (they are dispatched concurrently). Does not
    /// execute.
    pub fn explain_global(&self, sql: &str) -> Result<CompiledGlobal> {
        let qid = QueryId(u64::MAX); // sentinel: not a logged submission
        let mut effects = Deferred::new();
        let statement = self.statement(sql);
        let compiled = self.compile(qid, &statement, &self.clock, &mut effects);
        effects.apply();
        compiled.map(|(template, candidates)| (Arc::clone(&template.decomposed), candidates))
    }

    /// Submit a federated query: compile, choose a global plan, execute
    /// the fragments remotely (in parallel), merge locally, and log it all.
    pub fn submit(&self, sql: &str) -> Result<QueryOutcome> {
        let submitted = self.clock.now();
        let statement = self.statement(sql);
        let qid = self
            .patroller
            .record_submit(Arc::clone(&statement.sql), submitted);
        let mut effects = Deferred::new();
        let result = self.run(qid, &statement, &self.clock, &mut effects, None);
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
    /// tighter re-dispatch/hedge horizon. `budgets` may be empty (no
    /// budgets) or must match `sqls` in length; `None` entries mean "no
    /// budget".
    pub fn submit_batch_with_budgets(
        &self,
        sqls: &[String],
        budgets: &[Option<f64>],
    ) -> Vec<Result<QueryOutcome>> {
        let t0 = self.clock.now();
        let arrivals: Vec<(QueryId, Statement)> = sqls
            .iter()
            .map(|sql| {
                let statement = self.statement(sql);
                let qid = self.patroller.record_submit(Arc::clone(&statement.sql), t0);
                (qid, statement)
            })
            .collect();
        let outcomes = scatter_indexed(sqls.len(), self.config.threads, |i| {
            let clock = SimClock::at(t0);
            let mut local = Deferred::new();
            let budget = budgets.get(i).copied().flatten();
            let (qid, statement) = &arrivals[i];
            let result = self.run(*qid, statement, &clock, &mut local, budget);
            (result, local, clock.now())
        });
        let mut latest = t0;
        let mut out = Vec::with_capacity(sqls.len());
        for ((qid, _), (result, local, end)) in arrivals.iter().zip(outcomes) {
            local.apply();
            match &result {
                Ok(_) => self.patroller.record_complete(*qid, end),
                Err(e) => self.patroller.record_failure(*qid, end, e.to_string()),
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
        statement: &Statement,
        clock: &SimClock,
        effects: &mut Deferred,
        budget_ms: Option<f64>,
    ) -> Result<QueryOutcome> {
        let submitted = clock.now();
        let (template, candidates) = self.compile(qid, statement, clock, effects)?;
        if candidates.is_empty() {
            return Err(QccError::NoViablePlan("no global candidates".into()));
        }
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

        // Token gate: a plan is admissible only if every server it touches
        // has concurrency tokens in the frozen snapshot. A nonempty blocked
        // set means the router steered around a token-exhausted server (a
        // "token wait" — in virtual time the wait materializes as a
        // reroute, never a sleep).
        let admissible: Option<Vec<GlobalCandidate>> = self.admission.as_ref().map(|a| {
            candidates
                .iter()
                .filter(|c| c.servers().all(|s| a.capacity(s) > 0))
                .cloned()
                .collect()
        });
        let viable: &[GlobalCandidate] = admissible.as_deref().unwrap_or(&candidates);
        let blocked_count = candidates.len() - viable.len();
        if blocked_count > 0 {
            self.obs.counter_inc("token_waits_total", &[]);
            self.journal(effects, clock.now(), "token_wait", || {
                [
                    ("query", qid.0.into()),
                    ("blocked_candidates", blocked_count.into()),
                ]
            });
        }
        if viable.is_empty() {
            // Every plan needs a token-exhausted server: shed before any
            // fragment work rather than pile on.
            if let Some(admission) = &self.admission {
                admission.note_shed("no_tokens");
            }
            return Err(QccError::Shed(
                "no token-admissible global plan (all candidate servers exhausted)".into(),
            ));
        }
        let idx = self
            .middleware
            .choose_global(&template.signature, viable, effects)
            .min(viable.len() - 1);
        let chosen = &viable[idx];

        // A failed fragment is re-dispatched inside its own slot
        // (`dispatch.rs`, `recover.rs`); what reaches here either merged
        // or cannot be answered.
        let remaining_ms = (exec_deadline_ms > 0.0)
            .then(|| exec_deadline_ms - clock.now().since(submitted).as_millis());
        let (rows, fragment_times, merge) = self.dispatch_fragments(
            qid,
            &template,
            chosen,
            &candidates,
            remaining_ms,
            clock,
            effects,
        )?;
        let response_ms = clock.now().since(submitted).as_millis();
        let merged = merge.and_then(|(at, ms)| {
            self.pending_event(at, "merge", || [("query", qid.0.into()), ("ms", ms.into())])
        });
        let late = if exec_deadline_ms > 0.0 && response_ms > exec_deadline_ms {
            // Completed, but late: the result still counts, the goodput
            // accounting does not.
            self.obs.counter_inc("deadline_misses_total", &[]);
            self.pending_event(clock.now(), "deadline_exceeded", || {
                [
                    ("query", qid.0.into()),
                    ("stage", "completion".into()),
                    ("elapsed_ms", response_ms.into()),
                    ("deadline_ms", exec_deadline_ms.into()),
                ]
            })
        } else {
            None
        };
        // The query's close is one deferred closure: its merge and lateness
        // events, then the middleware's end-to-end sample.
        let (middleware, estimate) = (Arc::clone(&self.middleware), chosen.total_cost());
        effects.defer(move || {
            if let Some(event) = merged {
                event.append();
            }
            if let Some(event) = late {
                event.append();
            }
            middleware.observe_query(estimate, response_ms);
        });
        Ok(QueryOutcome {
            id: qid,
            rows,
            response_ms,
            chosen_signature: chosen.signature(),
            servers: fragment_times.iter().map(|(s, _)| s.clone()).collect(),
            fragment_times,
            estimated_cost: chosen.total_cost(),
        })
    }

    /// Journal one event through the deferred buffer — `run` and everything
    /// below it execute on scatter workers under `submit_batch`, so journal
    /// appends must wait for the gather barrier (L9). `fields` is only
    /// built when the journal is on.
    fn journal<I>(
        &self,
        effects: &mut Deferred,
        at: SimTime,
        kind: &'static str,
        fields: impl FnOnce() -> I,
    ) where
        I: IntoIterator<Item = Field> + Send + 'static,
    {
        if let Some(event) = self.pending_event(at, kind, fields) {
            effects.defer(move || event.append());
        }
    }

    /// One event, to be appended at the gather barrier by itself or inside
    /// another deferred closure; `None` (and `fields` never built) when the
    /// journal is off.
    fn pending_event<I>(
        &self,
        at: SimTime,
        kind: &'static str,
        fields: impl FnOnce() -> I,
    ) -> Option<PendingEvent<I>>
    where
        I: IntoIterator<Item = Field>,
    {
        self.obs.is_enabled().then(|| PendingEvent {
            obs: self.obs.clone(),
            at,
            kind,
            fields: fields(),
        })
    }
}

/// A journal event built where it happened, appended at the gather
/// barrier.
struct PendingEvent<I> {
    obs: Obs,
    at: SimTime,
    kind: &'static str,
    fields: I,
}

impl<I: IntoIterator<Item = Field>> PendingEvent<I> {
    fn append(self) {
        self.obs.event(self.at, self.kind, self.fields);
    }
}

/// The series a warm arrival emits into, resolved when obs is attached.
#[derive(Default)]
struct Metrics {
    /// `compiled_template_hits_total`.
    template_hits: CounterHandle,
    /// `fragments_total{server}`.
    fragments: CounterFamily,
    /// `catalog_candidates_pruned_total`.
    pruned: CounterHandle,
    /// `catalog_candidate_set_size`.
    set_size: HistogramHandle,
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
mod tests;
