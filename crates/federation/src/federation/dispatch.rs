//! Dispatch: the one fragment executor — scatter the streams, gather,
//! resolve each slot — plus hedge planning and the alternate picker it
//! shares with slot re-dispatch.

use super::template::Template;
use super::{Dispatched, Federation, FragmentTimes, PendingEvent};
use crate::middleware::{Deferred, FragmentCandidate, GlobalCandidate};
use qcc_common::{scatter_indexed, Field, QccError, QueryId, Result, SimDuration, SimTime};
use qcc_netsim::SimClock;
use qcc_wrapper::{FragmentPlan, StreamOutcome, WrapperResult, WrapperStream};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Hedge trigger: a fragment is pressured, and hedged, when its query's
/// remaining deadline budget is below this multiple of its calibrated
/// cost.
const HEDGE_SLACK_FACTOR: f64 = 2.0;

/// Hedge selection band: a hedge replica's calibrated cost is at most
/// this multiple of the primary's.
const HEDGE_BAND: f64 = 1.5;

/// One stream of a slot's race: the primary, or its hedge replica.
struct Run<'a> {
    cand: &'a FragmentCandidate,
    /// What the source sent; `None` when it refused the request on arrival
    /// (the middleware has recorded the failure).
    stream: Option<WrapperStream>,
}

impl Run<'_> {
    /// The stream, if it ran to completion.
    fn complete(&self) -> Option<&WrapperStream> {
        self.stream
            .as_ref()
            .filter(|s| s.outcome == StreamOutcome::Complete)
    }
}

impl Federation {
    /// Execute the fragments of a chosen global plan — the only fragment
    /// executor (DESIGN.md §10). The scatter fans out cursor-0 streams for
    /// every fragment (and every hedge replica), all stamped with the
    /// shared `start` snapshot; the gather then resolves slots
    /// sequentially on the coordinator, advances the clock once by the
    /// slowest slot, and merges. A stream that completed within the stall
    /// threshold is accepted as-is; where a hedge ran, the fastest such
    /// completion wins its slot (ties favour the primary), so a hedge
    /// rescues a primary that failed. Otherwise the stall detector takes
    /// the slot — refused on arrival, cut mid-stream, or slow — and
    /// re-dispatches it ([`Federation::resolve_stall`]). Duplicate rows
    /// are impossible by construction: each chunk index is merged from
    /// exactly one source.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn dispatch_fragments(
        &self,
        qid: QueryId,
        template: &Arc<Template>,
        chosen: &GlobalCandidate,
        pool: &[GlobalCandidate],
        remaining_ms: Option<f64>,
        clock: &SimClock,
        effects: &mut Deferred,
    ) -> Result<Dispatched> {
        let start = clock.now();
        let hedges = self.plan_hedges(qid, chosen, pool, remaining_ms, start, effects);
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
            // A primary refused on arrival is a stream that delivered
            // nothing; any other error fails the query.
            let stream = match p {
                Ok(stream) => Some(stream),
                Err(QccError::ServerUnavailable(_) | QccError::ServerFault { .. }) => None,
                Err(e) => return Err(e),
            };
            let p = Run {
                cand: primary_cand,
                stream,
            };
            let h = hedge.remove(&slot).map(|stream| Run {
                cand: &hedges[&slot],
                stream: Some(stream),
            });
            // The primary first, then its hedge.
            let mut runs: Vec<Run<'_>> = std::iter::once(p).chain(h).collect();

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
                .filter_map(|(i, r)| r.complete().map(|s| (i, s.response_time.as_millis())))
                .filter(|(_, ms)| *ms <= threshold_ms)
                .min_by(|(_, a), (_, b)| a.total_cmp(b))
                .map(|(i, _)| i);
            // No clean completion: the detector acts on a complete-but-slow
            // stream first, then on a cut one (the primary before the
            // hedge), then on the refusal.
            let ix = winner.unwrap_or_else(|| {
                let position = |has: fn(&Run<'_>) -> bool| runs.iter().position(has);
                position(|r| r.complete().is_some())
                    .or_else(|| position(|r| r.stream.is_some()))
                    .unwrap_or(0)
            });
            let run = runs.remove(ix);
            let other = runs.pop();
            let duplicate = other
                .as_ref()
                .and_then(|o| o.complete().map(|stream| (o.cand, stream)));

            let (result, server) = match (winner, run.stream) {
                (Some(_), Some(stream)) => {
                    if ix > 0 {
                        self.obs.counter_inc("hedge_wins_total", &[]);
                    }
                    self.note_complete_stream(qid, run.cand, &stream, start, effects);
                    if let Some((cand, dup)) = duplicate {
                        // The losing replica ran to completion uncancelled:
                        // its rows are dropped below, but its whole-fragment
                        // time is an honest calibration sample.
                        self.note_complete_stream(qid, cand, dup, start, effects);
                    }
                    (stream_result(stream), run.cand.plan.server.clone())
                }
                (_, stream) => {
                    // Neither of the slot's own servers takes a re-dispatch.
                    let own = [Some(primary_cand), hedges.get(&slot)]
                        .into_iter()
                        .flatten();
                    let excluded = own.map(|c| c.plan.server.clone()).collect();
                    self.resolve_stall(
                        qid,
                        slot,
                        run.cand,
                        stream,
                        excluded,
                        pool,
                        threshold_ms,
                        remaining_ms,
                        start,
                        effects,
                    )?
                }
            };
            if let Some((cand, _)) = duplicate {
                // The one duplicate-suppression point: exactly one stream
                // feeds the slot; a second that arrived in full is dropped
                // here and journalled.
                self.suppress_duplicate(qid, slot, &server, &cand.plan.server, start, effects);
            }
            slowest = slowest.max(result.response_time);
            fragment_times.push((server, result.response_time.as_millis()));
            results.push(result);
        }
        clock.advance(slowest);
        self.merge_global(template, results, fragment_times, clock, effects)
    }

    /// Hedged dispatch: choose (and journal) a hedge replica for every
    /// pressured fragment of `chosen` — one whose remaining deadline
    /// budget is below [`HEDGE_SLACK_FACTOR`] × its calibrated cost. The
    /// replica is the cheapest alternate plan for the slot on a different
    /// server within [`HEDGE_BAND`] × the primary's cost. Both run
    /// concurrently; the faster result wins and the loser is suppressed.
    fn plan_hedges(
        &self,
        qid: QueryId,
        chosen: &GlobalCandidate,
        pool: &[GlobalCandidate],
        remaining_ms: Option<f64>,
        at: SimTime,
        effects: &mut Deferred,
    ) -> BTreeMap<usize, FragmentCandidate> {
        let mut hedges = BTreeMap::new();
        let Some(remaining) = remaining_ms.filter(|_| self.admission.is_some()) else {
            return hedges;
        };
        for (slot, primary) in chosen.fragments.iter().enumerate() {
            let est = primary.effective_cost.total();
            if est <= 0.0 || remaining >= HEDGE_SLACK_FACTOR * est {
                continue;
            }
            let Some(alt) = self.cheapest_alternate(slot, pool, est * HEDGE_BAND, |alt| {
                alt.plan.server != primary.plan.server
            }) else {
                continue;
            };
            self.obs
                .counter_inc("hedges_total", &[("server", alt.plan.server.as_str())]);
            self.journal(effects, at, "hedge", || {
                [
                    ("query", qid.0.into()),
                    ("fragment", slot.into()),
                    ("primary", (&primary.plan.server).into()),
                    ("hedge", (&alt.plan.server).into()),
                    ("est_ms", est.into()),
                ]
            });
            hedges.insert(slot, alt.clone());
        }
        hedges
    }

    /// The alternate picker, shared by hedge planning and slot
    /// re-dispatch: the cheapest plan for `slot` in the
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
    /// fragment span, and acknowledge it to the middleware, in one deferred
    /// closure. This is the only caller of
    /// [`Middleware::observe_fragment`](crate::Middleware::observe_fragment),
    /// hence the single rule for what feeds reliability and calibration —
    /// cancelled streams and resumed remainders never reach it.
    pub(super) fn note_complete_stream(
        &self,
        qid: QueryId,
        cand: &FragmentCandidate,
        stream: &WrapperStream,
        start: SimTime,
        effects: &mut Deferred,
    ) {
        let ms = stream.response_time.as_millis();
        let event = self.fragment_event(qid, &cand.plan, ms, start);
        let (middleware, plan) = (Arc::clone(&self.middleware), Arc::clone(&cand.plan));
        effects.defer(move || {
            if let Some(event) = event {
                event.append();
            }
            middleware.observe_fragment(&plan, ms);
        });
    }

    /// Count and journal one resumed remainder that ran to completion.
    pub(super) fn journal_fragment(
        &self,
        qid: QueryId,
        plan: &FragmentPlan,
        ms: f64,
        at: SimTime,
        effects: &mut Deferred,
    ) {
        if let Some(event) = self.fragment_event(qid, plan, ms, at) {
            effects.defer(move || event.append());
        }
    }

    /// Count one completed `plan` execution and build its `fragment`
    /// event, if the journal is on.
    fn fragment_event(
        &self,
        qid: QueryId,
        plan: &FragmentPlan,
        ms: f64,
        at: SimTime,
    ) -> Option<PendingEvent<[Field; 4]>> {
        self.metrics.fragments.inc(plan.server.as_str());
        self.pending_event(at, "fragment", || {
            [
                ("query", qid.0.into()),
                ("server", (&plan.server).into()),
                ("signature", self.obs.intern(&plan.signature).into()),
                ("ms", ms.into()),
            ]
        })
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
