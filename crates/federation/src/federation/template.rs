//! Compiled query templates (DESIGN.md §3): what the integrator keeps per
//! statement text so that an arrival of a statement it has seen before is
//! costed, routed and merged without being parsed, decomposed or
//! merge-planned again.
//!
//! Everything in a [`Template`] is a pure function of the SQL text and the
//! nickname catalog (immutable once the [`Federation`] is built) — and,
//! for the planned merge, of the fragment results the text gathers, which
//! the memo tells apart by their row counts — so an entry can never go
//! stale and there is nothing to invalidate. Whatever depends on the state
//! of the world — plan lists, calibration, reliability, the load
//! balancer's rotation, admission — is not in here and is evaluated on
//! every arrival.

use super::Federation;
use crate::decompose::{decompose, frag_table, DecomposedQuery, MergeSpec};
use crate::middleware::Deferred;
use parking_lot::Mutex;
use qcc_common::{Cost, FifoMap, Result, Schema, ServerId};
use qcc_engine::PlanNode;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Templates kept by a [`Federation`]. Sized for a working set of a few
/// dozen statements (the paper's mix is 40); a stream of distinct ad-hoc
/// statements costs one insert and one eviction each and leaves the
/// resident set where it was.
pub const TEMPLATE_CACHE_CAPACITY: usize = 128;

/// Integration estimates kept per template: one per distinct vector of
/// fragment cardinalities, of which a template sees a handful (replicas
/// with equal statistics estimate equal cardinalities).
const INTEGRATION_MEMO_CAPACITY: usize = 64;

/// Planned merges kept per template: one per distinct vector of *gathered*
/// fragment row counts — one per routing of a statement whose replicas
/// differ in size, one in all when they do not.
pub(super) const MERGE_PLAN_MEMO_CAPACITY: usize = 16;

/// The compiled-template cache, keyed by the exact SQL text (one copy of
/// it, shared by the map and its eviction queue; probed by `&str`).
pub(super) type TemplateCache = Arc<Mutex<FifoMap<Arc<str>, Arc<Template>>>>;

pub(super) fn new_cache() -> TemplateCache {
    Arc::new(Mutex::new(FifoMap::new(TEMPLATE_CACHE_CAPACITY)))
}

/// One compiled statement.
pub(super) struct Template {
    /// The statement text: the cache key, and the `sql` of every
    /// `query_submit` event of this statement.
    pub(super) sql: Arc<str>,
    /// The decomposition: fragments, their output schemas, the parsed
    /// merge statement and the template signature.
    pub(super) decomposed: Arc<DecomposedQuery>,
    /// `decomposed.template_signature`, shared by every `compile` span and
    /// load-balancer commit of this statement.
    pub(super) signature: Arc<str>,
    /// Per fragment slot: the name the merge statement reads its shipped
    /// result under (`__frag{i}`) and the schema the result is checked
    /// against there. Empty for a passthrough template, which never
    /// merges.
    pub(super) slots: Vec<(String, Arc<Schema>)>,
    memo: Mutex<Memo>,
}

/// The parts of a template that fill in as arrivals need them.
struct Memo {
    /// Per fragment slot: the fragment SQL translated for each server that
    /// reached the EXPLAIN fan-out.
    fragment_sql: Vec<BTreeMap<ServerId, Arc<str>>>,
    /// The *uncalibrated* integration estimate per vector of fragment
    /// cardinalities.
    integration: FifoMap<Arc<[u64]>, Cost>,
    /// The plan the engine's planner picked for the merge statement the
    /// first time this vector of gathered fragment row counts arrived.
    merge_plan: FifoMap<Arc<[u64]>, Arc<PlanNode>>,
}

/// What one arrival worked out that its template did not hold yet. It is
/// handed back through the arrival's [`Deferred`] buffer, so a template
/// only changes at a gather barrier.
#[derive(Default)]
pub(super) struct Learned {
    pub(super) fragment_sql: Vec<(usize, ServerId, Arc<str>)>,
    pub(super) integration: Vec<(Vec<u64>, Cost)>,
    pub(super) merge_plan: Option<(Vec<u64>, Arc<PlanNode>)>,
}

impl Template {
    fn new(sql: Arc<str>, decomposed: DecomposedQuery) -> Self {
        let memo = Memo {
            fragment_sql: vec![BTreeMap::new(); decomposed.fragments.len()],
            integration: FifoMap::new(INTEGRATION_MEMO_CAPACITY),
            merge_plan: FifoMap::new(MERGE_PLAN_MEMO_CAPACITY),
        };
        let slots = match decomposed.merge {
            MergeSpec::Merge { .. } => {
                let fragments = decomposed.fragments.iter().enumerate();
                fragments
                    .map(|(i, f)| (frag_table(i), Arc::new(f.output_schema())))
                    .collect()
            }
            MergeSpec::Passthrough => Vec::new(),
        };
        Template {
            sql,
            signature: decomposed.template_signature.as_str().into(),
            slots,
            decomposed: Arc::new(decomposed),
            memo: Mutex::new(memo),
        }
    }

    /// Fragment `slot`'s SQL as translated for `server`, if a compile has
    /// translated it before.
    pub(super) fn fragment_sql(&self, slot: usize, server: &ServerId) -> Option<Arc<str>> {
        self.memo.lock().fragment_sql[slot].get(server).cloned()
    }

    /// The remembered integration estimate for `cardinalities`.
    pub(super) fn integration(&self, cardinalities: &[u64]) -> Option<Cost> {
        self.memo.lock().integration.get(cardinalities).copied()
    }

    /// The remembered merge plan for fragment results of `rows` rows.
    pub(super) fn merge_plan(&self, rows: &[u64]) -> Option<Arc<PlanNode>> {
        self.memo.lock().merge_plan.get(rows).cloned()
    }

    #[cfg(test)]
    pub(super) fn merge_plans_held(&self) -> usize {
        self.memo.lock().merge_plan.len()
    }

    /// Remember what an arrival learned.
    pub(super) fn learn(&self, learned: Learned) {
        let mut memo = self.memo.lock();
        for (slot, server, sql) in learned.fragment_sql {
            memo.fragment_sql[slot].insert(server, sql);
        }
        for (cardinalities, cost) in learned.integration {
            memo.integration.insert(cardinalities.into(), cost);
        }
        if let Some((rows, plan)) = learned.merge_plan {
            memo.merge_plan.insert(rows.into(), plan);
        }
    }
}

impl Learned {
    pub(super) fn is_empty(&self) -> bool {
        self.fragment_sql.is_empty() && self.integration.is_empty() && self.merge_plan.is_none()
    }
}

/// A statement as one arrival carries it: its text, shared with the
/// template cache when the statement is cached, and its compiled template
/// if it is.
pub(super) struct Statement {
    pub(super) sql: Arc<str>,
    template: Option<Arc<Template>>,
}

impl Federation {
    /// Probe the template cache for `sql`, once per arrival. Under
    /// `submit_batch` every query of a batch probes the cache as it stood
    /// when the batch started: inserts wait for the gather barrier.
    pub(super) fn statement(&self, sql: &str) -> Statement {
        if let Some(template) = self.templates.lock().get(sql) {
            self.metrics.template_hits.inc();
            return Statement {
                sql: Arc::clone(&template.sql),
                template: Some(Arc::clone(template)),
            };
        }
        self.obs.counter_inc("compiled_template_misses_total", &[]);
        Statement {
            sql: sql.into(),
            template: None,
        }
    }

    /// The compiled template of `statement`. A statement not in the cache
    /// is decomposed here and its insert deferred, so inserts (with their
    /// FIFO evictions) happen at the gather barrier in submission order —
    /// the same hits, misses and evictions at any thread count.
    pub(super) fn template(
        &self,
        statement: &Statement,
        effects: &mut Deferred,
    ) -> Result<Arc<Template>> {
        if let Some(template) = &statement.template {
            return Ok(Arc::clone(template));
        }
        let sql = Arc::clone(&statement.sql);
        let template = Arc::new(Template::new(
            Arc::clone(&sql),
            decompose(&sql, &self.nicknames)?,
        ));
        let (cache, obs) = (Arc::clone(&self.templates), self.obs.clone());
        let stored = Arc::clone(&template);
        effects.defer(move || {
            let evicted = cache.lock().insert(sql, stored);
            if evicted > 0 {
                obs.counter_add("compiled_template_evictions_total", &[], evicted as u64);
            }
        });
        Ok(template)
    }
}
