//! Recover: the stall detector's re-dispatch of a slot — refused on
//! arrival, cut mid-stream, or cancelled as slow — and the stall /
//! duplicate-suppression journalling.

use super::dispatch::stream_result;
use super::Federation;
use crate::middleware::{Deferred, FragmentCandidate, GlobalCandidate};
use qcc_common::obs::reroute_events as ev;
use qcc_common::{FieldValue, QccError, QueryId, Result, ServerId, SimDuration, SimTime};
use qcc_wrapper::{StreamOutcome, WrapperResult, WrapperStream};
use std::collections::BTreeSet;

/// Virtual-time lag between a mid-stream interrupt and the stall detector
/// noticing it (one probe interval). A refusal on arrival is synchronous
/// and costs no lag.
pub const REROUTE_PROBE_MS: f64 = 1.0;

/// Replica selection band: a remainder only resumes on an alternate whose
/// calibrated cost is within this multiple of the estimate of the stream
/// it continues.
pub const REROUTE_BAND: f64 = 2.0;

impl Federation {
    /// Take over a slot whose stream did not win — `stream` is `None` when
    /// `cand`'s server refused it on arrival, cut when the source died
    /// mid-stream, complete when it overran the stall threshold — and
    /// re-dispatch it, at most `retry_limit` times, each time from the
    /// instant the last failure was detected. A re-dispatch resumes the
    /// kept prefix at its cursor on a replica with the same chunk schedule
    /// when one exists, and otherwise restarts the fragment at cursor 0 on
    /// any plan for the slot; it never goes to a server in `excluded` or
    /// to one that already failed the slot, and a failed re-dispatch adds
    /// nothing to the prefix. A slow stream only resumes: with no replica
    /// it is kept whole. Returns the stitched slot result and the server
    /// that finished it.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn resolve_stall(
        &self,
        qid: QueryId,
        slot: usize,
        cand: &FragmentCandidate,
        stream: Option<WrapperStream>,
        mut excluded: BTreeSet<ServerId>,
        pool: &[GlobalCandidate],
        threshold_ms: f64,
        remaining_ms: Option<f64>,
        start: SimTime,
        effects: &mut Deferred,
    ) -> Result<(WrapperResult, ServerId)> {
        let probe = SimDuration::from_millis(REROUTE_PROBE_MS);
        let total_chunks = stream.as_ref().map_or(0, |s| s.total_chunks);
        // The detection instant, why the slot stalled, the chunks the
        // integrator keeps, and the instant a dead source was cut.
        let (mut at, mut reason, mut kept, mut fault_ms) = match stream {
            None => (start, "arrival", Vec::new(), None),
            Some(WrapperStream {
                outcome: StreamOutcome::Interrupted { at },
                chunks,
                ..
            }) => {
                // Every delivered chunk precedes the transition, and
                // detection costs one probe interval.
                (at + probe, "interrupt", chunks, Some(at.as_millis()))
            }
            Some(stream) => {
                let cancel_at = start + SimDuration::from_millis(threshold_ms);
                let late = stream.chunks.iter().filter(|c| c.at > cancel_at).count();
                if late == 0 || self.resume_replica(slot, cand, pool, &excluded).is_none() {
                    // Every chunk beat the threshold (only the transfer
                    // tail overran), or no replica can resume it:
                    // cancelling gains nothing, so the slow result is kept
                    // whole.
                    let why = if late == 0 { "tail" } else { "no_replica" };
                    self.obs
                        .counter_inc("reroute_declined_total", &[("reason", why)]);
                    self.note_complete_stream(qid, cand, &stream, start, effects);
                    return Ok((stream_result(stream), cand.plan.server.clone()));
                }
                // The late chunks are suppressed, never merged.
                self.obs
                    .counter_add("reroute_chunks_suppressed_total", &[], late as u64);
                let mut kept = stream.chunks;
                kept.retain(|c| c.at <= cancel_at);
                (cancel_at, "slow", kept, None)
            }
        };
        self.journal_stall(
            qid,
            slot,
            &cand.plan.server,
            reason,
            at,
            start,
            threshold_ms,
            effects,
        );
        if reason == "slow" {
            // A stall-cancel is soft reliability evidence; a refusal or an
            // interrupt was already recorded by the middleware.
            self.middleware
                .observe_fragment_cancel(&cand.plan.server, effects);
        }

        let mut from = &cand.plan.server;
        for _ in 0..self.config.retry_limit {
            let elapsed = at.since(start).as_millis();
            if let Some(remaining) = remaining_ms.filter(|r| elapsed > *r) {
                self.obs
                    .counter_inc("deadline_exceeded_total", &[("stage", "redispatch")]);
                self.journal(effects, at, "deadline_exceeded", || {
                    vec![
                        ("query", qid.0.into()),
                        ("stage", "redispatch".into()),
                        ("fragment", slot.into()),
                        ("elapsed_ms", elapsed.into()),
                        ("remaining_ms", remaining.into()),
                    ]
                });
                return Err(QccError::DeadlineExceeded(format!(
                    "fragment {slot} re-dispatch {elapsed:.3}ms after dispatch, past the \
                     {remaining:.3}ms its deadline left"
                )));
            }
            let resume = match kept.len() {
                0 => None,
                _ => self.resume_replica(slot, cand, pool, &excluded),
            };
            let restart = || {
                self.cheapest_alternate(slot, pool, f64::INFINITY, |alt| {
                    !excluded.contains(&alt.plan.server)
                })
            };
            let Some(alt) = resume.or_else(restart) else {
                break;
            };
            if resume.is_none() {
                // No replica shares the kept prefix's chunk schedule: the
                // fragment restarts whole.
                kept.clear();
            }
            let cursor = kept.len();
            let to = &alt.plan.server;
            // The re-dispatch rides the slot's admission token — the picker
            // consulted the frozen capacity snapshot, but nothing is
            // consumed; journal the reuse.
            if let Some(admission) = &self.admission {
                admission.note_reroute_reuse(to);
            }
            self.obs
                .counter_inc("fragment_reroutes_total", &[("server", to.as_str())]);
            self.journal(effects, at, ev::REROUTE_DISPATCH, || {
                let mut fields: Vec<(&'static str, FieldValue)> = vec![
                    ("query", qid.0.into()),
                    ("fragment", slot.into()),
                    ("from", from.into()),
                    ("to", to.into()),
                    ("cursor", cursor.into()),
                ];
                if cursor > 0 {
                    fields.push(("total_chunks", total_chunks.into()));
                }
                fields.extend([
                    ("reason", reason.into()),
                    ("est_ms", cand.effective_cost.total().into()),
                    ("frag_start_ms", start.as_millis().into()),
                ]);
                if threshold_ms.is_finite() {
                    fields.push(("threshold_ms", threshold_ms.into()));
                }
                if let Some(f) = fault_ms {
                    fields.push(("fault_ms", f.into()));
                }
                fields
            });
            let dispatched = self.wrapper(to).and_then(|wrapper| {
                self.middleware.execute_fragment_stream(
                    wrapper.as_ref(),
                    &alt.plan,
                    at,
                    cursor,
                    effects,
                )
            });
            excluded.insert(to.clone());
            match dispatched {
                // The replica died mid-run too.
                Ok(WrapperStream {
                    outcome: StreamOutcome::Interrupted { at: cut },
                    ..
                }) => {
                    (at, reason, fault_ms) = (cut + probe, "interrupt", Some(cut.as_millis()));
                }
                Ok(stream) => {
                    let end = at + stream.response_time;
                    let ms = stream.response_time.as_millis();
                    self.obs
                        .counter_inc("fragment_resumes_total", &[("server", to.as_str())]);
                    if cursor == 0 {
                        // A whole-fragment run: an honest calibration
                        // sample.
                        self.note_complete_stream(qid, alt, &stream, at, effects);
                    } else {
                        // Journalled as a fragment, but never acknowledged
                        // to the middleware: a partial run is not a valid
                        // calibration sample for the whole-fragment
                        // estimate.
                        self.journal_fragment(qid, &alt.plan, ms, at, effects);
                    }
                    self.journal(effects, end, ev::FRAGMENT_RESUME, || {
                        vec![
                            ("query", qid.0.into()),
                            ("fragment", slot.into()),
                            ("server", to.into()),
                            ("cursor", cursor.into()),
                            ("chunks", stream.delivered().into()),
                            ("ms", ms.into()),
                        ]
                    });
                    if cursor > 0 {
                        // Provenance "S1:0..k+S2:k..n" must tile the chunk
                        // range.
                        let (base, next) = (&cand.plan.server, stream.next_cursor());
                        let sources = format!("{base}:0..{cursor}+{to}:{cursor}..{next}");
                        self.journal(effects, end, ev::FRAGMENT_STREAM, || {
                            vec![
                                ("query", qid.0.into()),
                                ("fragment", slot.into()),
                                ("sources", sources.into()),
                                ("total_chunks", total_chunks.into()),
                            ]
                        });
                    }
                    kept.extend(stream.chunks);
                    let result = WrapperResult {
                        bytes: kept.iter().map(|c| c.batch.byte_size()).sum(),
                        response_time: end.since(start),
                        batches: kept.into_iter().map(|c| c.batch).collect(),
                    };
                    return Ok((result, to.clone()));
                }
                // Refused on arrival (recorded by the middleware): the next
                // re-dispatch leaves at once.
                Err(QccError::ServerUnavailable(_) | QccError::ServerFault { .. }) => {
                    (reason, fault_ms) = ("arrival", None);
                }
                Err(e) => return Err(e),
            }
            self.journal_stall(qid, slot, to, reason, at, start, threshold_ms, effects);
            from = to;
        }
        self.obs.counter_inc("reroute_exhausted_total", &[]);
        let tried: Vec<&str> = excluded.iter().map(ServerId::as_str).collect();
        Err(QccError::NoViablePlan(format!(
            "no server could finish fragment {slot}; tried {}",
            tried.join(", ")
        )))
    }

    /// The resume rule: the cheapest alternate for the slot
    /// ([`Federation::cheapest_alternate`]) outside `excluded`, within
    /// [`REROUTE_BAND`] of `base`'s estimate, with `base`'s *plan signature
    /// and SQL* (so the cursor protocol's chunk schedule lines up). The
    /// pool holds only plans of the fragment's nickname sources, so every
    /// alternate hosts the tables the fragment scans.
    fn resume_replica<'a>(
        &self,
        slot: usize,
        base: &FragmentCandidate,
        pool: &'a [GlobalCandidate],
        excluded: &BTreeSet<ServerId>,
    ) -> Option<&'a FragmentCandidate> {
        let limit = match base.effective_cost.total() {
            est if est > 0.0 => est * REROUTE_BAND,
            _ => f64::INFINITY,
        };
        self.cheapest_alternate(slot, pool, limit, |alt| {
            !excluded.contains(&alt.plan.server)
                && alt.plan.signature == base.plan.signature
                && alt.plan.sql == base.plan.sql
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
                ("server", server.into()),
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
                ("winner", winner.into()),
                ("suppressed", suppressed.into()),
            ]
        });
    }
}
