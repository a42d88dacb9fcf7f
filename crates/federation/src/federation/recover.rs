//! Recover: the stall detector's cancel-and-re-dispatch of a slot's
//! remainder, and the stall / duplicate-suppression journalling.

use super::dispatch::{stream_result, Run};
use super::Federation;
use crate::decompose::DecomposedQuery;
use crate::middleware::{Deferred, FragmentCandidate, GlobalCandidate};
use qcc_common::obs::reroute_events as ev;
use qcc_common::{FieldValue, QccError, QueryId, Result, ServerId, SimDuration, SimTime};
use qcc_wrapper::{StreamOutcome, WrapperResult, WrapperStream};
use std::collections::BTreeSet;

/// Virtual-time lag between a mid-stream interrupt and the stall detector
/// noticing it (one probe interval).
pub const REROUTE_PROBE_MS: f64 = 1.0;

/// Replica selection band: a remainder only re-dispatches to an alternate
/// whose calibrated cost is within this multiple of the cancelled
/// primary's estimate.
pub const REROUTE_BAND: f64 = 2.0;

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
        let pick = || self.pick_reroute_replica(slot, decomposed, primary_cand, pool, &excluded);

        // The detection instant, the chunks the integrator keeps, and the
        // replica that takes over.
        let total_chunks = base.stream.total_chunks;
        let (cancel_at, reason, mut kept, fault_ms, alt) = match base.stream.outcome {
            StreamOutcome::Interrupted { at } => {
                // The source died mid-stream; every delivered chunk
                // precedes the transition, and detection costs one probe
                // interval.
                let fault_ms = Some(at.as_millis());
                (
                    at + probe,
                    "interrupt",
                    base.stream.chunks,
                    fault_ms,
                    pick(),
                )
            }
            StreamOutcome::Complete => {
                let cancel_at = start + SimDuration::from_millis(threshold_ms);
                let late = base
                    .stream
                    .chunks
                    .iter()
                    .filter(|c| c.at > cancel_at)
                    .count();
                let alt = if late > 0 { pick() } else { None };
                if alt.is_none() {
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
                // The late chunks are suppressed, never merged.
                self.obs
                    .counter_add("reroute_chunks_suppressed_total", &[], late as u64);
                let mut kept = base.stream.chunks;
                kept.retain(|c| c.at <= cancel_at);
                (cancel_at, "slow", kept, None, alt)
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
            self.middleware
                .observe_fragment_cancel(&base_server, effects);
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
                &alt.plan,
                cancel_at,
                cursor,
                effects,
            )
        });
        match resumed {
            Ok(
                stream @ WrapperStream {
                    outcome: StreamOutcome::Complete,
                    ..
                },
            ) => {
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
            // The replica died mid-remainder too.
            Ok(WrapperStream {
                outcome: StreamOutcome::Interrupted { at },
                ..
            }) => self.journal_stall(
                qid,
                slot,
                &alt_server,
                "interrupt",
                at + probe,
                start,
                threshold_ms,
                effects,
            ),
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
