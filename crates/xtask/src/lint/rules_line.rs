//! The token-local rules L1–L7, re-expressed on the lexer's token
//! stream (see DESIGN.md §15 for the rule rationale).
//!
//! Compared to the v1 masked-line engine this changes two things:
//! string/comment contents can never match (the token stream simply does
//! not contain them as code), and chains split across lines by rustfmt
//! (`m\n  .lock()\n  .unwrap()`) match without the v1 two-line join
//! hack, because token sequences are whitespace-blind.

use super::index::{self, FileIndex};
use super::lexer::{Tok, TokKind};
use super::{
    coverage_for, is_test_like, scope_applies, Rule, Violation, CLOCK_ALLOWLIST, THREAD_ALLOWLIST,
};

/// Does the token sequence starting at `at` have exactly these texts?
fn seq(code: &[Tok<'_>], at: usize, want: &[&str]) -> bool {
    want.iter()
        .enumerate()
        .all(|(k, w)| code.get(at + k).is_some_and(|t| t.text == *w))
}

/// Run L1–L7 over one file, appending raw (pre-waiver) findings.
pub fn check(path: &str, toks: &[Tok<'_>], idx: &FileIndex, out: &mut Vec<Violation>) {
    let code = index::code_view(toks);
    let test_like = is_test_like(path);
    let cov = coverage_for(path);

    let l1 = path != CLOCK_ALLOWLIST;
    let l2 = cov.is_some_and(|c| scope_applies(c.l2, c.dir, path)) && !test_like;
    let l3 = cov.is_some_and(|c| scope_applies(c.l3, c.dir, path)) && !test_like;
    let l4 = !test_like;
    let l5 = path != THREAD_ALLOWLIST && !test_like;
    let l6 = cov.is_some_and(|c| scope_applies(c.l6, c.dir, path)) && !test_like;
    let l7 = !test_like;

    let mut push = |rule: Rule, tok: &Tok<'_>, message: String| {
        out.push(Violation {
            rule,
            path: path.to_string(),
            line: tok.line as usize,
            col: tok.col as usize,
            message,
        });
    };

    for (i, t) in code.iter().enumerate() {
        let in_test = idx.in_cfg_test(t.line);

        // L1 clock discipline — applies even in test code: a wall-clock
        // read in a test makes the test's golden output time-dependent.
        if l1
            && t.kind == TokKind::Ident
            && (t.text == "Instant" || t.text == "SystemTime")
            && seq(&code, i + 1, &[":", ":", "now", "("])
        {
            push(
                Rule::L1,
                t,
                format!(
                    "`{}::now` reads the host clock; all time in this workspace is \
                     virtual — use the `qcc-common::time` clock (SimTime / \
                     WallStopwatch)",
                    t.text
                ),
            );
        }

        if in_test {
            continue;
        }

        // L2 hashed-container determinism.
        if l2 && t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            push(
                Rule::L2,
                t,
                format!(
                    "`{}` in an order-sensitive module: hashed iteration \
                     order is nondeterministic — use BTreeMap/BTreeSet or an \
                     explicit sort",
                    t.text
                ),
            );
        }

        // L3 panic-freedom.
        if l3 {
            let hit: Option<(&str, &str)> = if seq(&code, i, &[".", "unwrap", "(", ")"]) {
                Some((".unwrap()", "return a Result via qcc-common::error instead"))
            } else if seq(&code, i, &[".", "expect", "("]) {
                Some((".expect", "return a Result via qcc-common::error instead"))
            } else if t.text == "panic" && seq(&code, i + 1, &["!"]) {
                Some(("panic!", "return a Result via qcc-common::error instead"))
            } else if t.text == "todo" && seq(&code, i + 1, &["!"]) {
                Some(("todo!", "unfinished code must not ship in library crates"))
            } else if t.text == "unimplemented" && seq(&code, i + 1, &["!"]) {
                Some((
                    "unimplemented!",
                    "unfinished code must not ship in library crates",
                ))
            } else {
                None
            };
            if let Some((pat, why)) = hit {
                push(
                    Rule::L3,
                    t,
                    format!("`{pat}` can panic mid-query and corrupt calibration; {why}"),
                );
            }
        }

        // L4a: poison-propagating std lock idiom. (L4b — guard held
        // across a remote call — lives in rules_flow on the index.)
        if l4 && t.text == "." {
            for m in ["lock", "read", "write"] {
                if seq(&code, i + 1, &[m, "(", ")", ".", "unwrap", "(", ")"]) {
                    push(
                        Rule::L4,
                        t,
                        format!(
                            "`.{m}().unwrap()` propagates mutex poisoning as a panic — use \
                             the workspace parking_lot shim (lock() returns the guard)"
                        ),
                    );
                }
            }
        }

        // L5 thread discipline.
        if l5
            && t.text == "thread"
            && (seq(&code, i + 1, &[":", ":", "spawn", "("])
                || seq(&code, i + 1, &[":", ":", "scope", "("]))
        {
            let what = code[i + 3].text;
            push(
                Rule::L5,
                t,
                format!(
                    "`thread::{what}` outside the scatter layer: ad-hoc threads bypass \
                     the gather barrier and break the deterministic \
                     frozen-state/deferred-effects contract — use \
                     `qcc_common::scatter_indexed` instead"
                ),
            );
        }

        // L6 output discipline.
        if l6
            && t.kind == TokKind::Ident
            && (t.text == "println" || t.text == "eprintln")
            && seq(&code, i + 1, &["!"])
        {
            push(
                Rule::L6,
                t,
                format!(
                    "`{}!` in library code: stdout writes bypass the \
                     qcc-obs metrics/journal and garble binary reports — \
                     emit an obs event/counter or return data to the caller",
                    t.text
                ),
            );
        }

        // L7 no wall-clock blocking.
        if l7 {
            let hit: Option<&str> =
                if t.text == "thread" && seq(&code, i + 1, &[":", ":", "sleep", "("]) {
                    Some("thread::sleep")
                } else if t.kind == TokKind::Ident
                    && (t.text == "park_timeout" || t.text == "sleep_ms")
                    && seq(&code, i + 1, &["("])
                {
                    Some(t.text)
                } else if t.text == "." && seq(&code, i + 1, &["wait_timeout", "("]) {
                    Some(".wait_timeout")
                } else {
                    None
                };
            if let Some(pat) = hit {
                push(
                    Rule::L7,
                    t,
                    format!(
                        "`{pat}(...)` blocks on the wall clock: the serving path runs \
                         in virtual time, so a real sleep stalls the coordinator \
                         without advancing SimTime — model the wait by advancing \
                         the SimClock instead"
                    ),
                );
            }
        }
    }
}
