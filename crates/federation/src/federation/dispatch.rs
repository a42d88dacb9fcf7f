//! Dispatch: the one fragment executor — scatter the streams, gather,
//! resolve each slot — plus hedge planning and the within-band alternate
//! picker it shares with remainder re-dispatch.

use super::template::Template;
use super::{Federation, FragmentTimes};
use crate::middleware::{Deferred, FragmentCandidate, GlobalCandidate};
use qcc_common::{scatter_indexed, QueryId, Result, Row, ServerId, SimDuration, SimTime};
use qcc_netsim::SimClock;
use qcc_wrapper::{FragmentPlan, StreamOutcome, WrapperResult, WrapperStream};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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
        template: &Arc<Template>,
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
                    &template.decomposed,
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
        self.merge_global(qid, template, results, fragment_times, clock, effects)
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
        self.middleware.observe_fragment(&cand.plan, ms, effects);
    }

    /// Count and journal one `plan` execution that ran to completion (a
    /// whole fragment, or a resumed remainder).
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
