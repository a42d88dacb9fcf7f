//! The flow-aware rules: L4b (guard held across a remote call), L8
//! (lock-order discipline), L9 (scatter-closure purity), L10
//! (float-ordering determinism).
//!
//! L4b, L9 and L10 are per-file ([`check_local`]); L8 needs the whole
//! workspace — per-file acquisition facts are absorbed into a
//! [`LockGraph`] and analyzed once every file has been indexed.
//!
//! ## L8 model
//!
//! Nodes are normalized lock identities (see [`super::index`]). An edge
//! `A → B` means "B was acquired while a guard on A was held" — either
//! directly in one function body, or because a call was made with A held
//! and the (transitively resolved, by bare callee name) callee acquires
//! B somewhere inside. Violations are:
//!
//! * **recursive acquisition** `A → A` — parking_lot mutexes are not
//!   reentrant, so this is a self-deadlock the moment both sites run on
//!   one thread;
//! * **majority-order inversion** — both `A → B` and `B → A` exist and
//!   one direction has strictly more sites: the minority sites are
//!   reported (the majority is taken as the intended workspace order);
//! * **cycle** — a strongly-connected component of the remaining graph
//!   (ties and longer cycles), every edge of which is reported.
//!
//! Call-edge resolution is by bare name against the workspace fn index,
//! and only when the name is unique in the workspace — an ambiguous name
//! (two `fn observe` on different types) would draw edges from the wrong
//! target — excluding a blocklist of ubiquitous std method names (`get`,
//! `push`, `insert`, …) that would otherwise alias user fns; an
//! unresolvable callee contributes no edge. This under-approximates
//! (trait dispatch, function pointers, ambiguous names), which is the
//! right trade for a linter: every edge it draws corresponds to a
//! syntactically real acquire-while-held.
//!
//! ## L9 model
//!
//! Closures passed to `scatter_indexed`/`submit_batch` run on worker
//! threads under the frozen-state/deferred-effects contract (DESIGN.md
//! §2): they may read frozen shared state and write only through their
//! own locals (gathered by the coordinator) or a `Deferred` buffer.
//! Structurally enforced: no `&mut` capture of non-local state, no
//! order-sensitive obs emission (`event`/`span`/`gauge_set`/`observe` —
//! commutative `counter_inc`/`counter_add` are fine) outside a
//! `.defer(…)` thunk, and no lock acquisition whose receiver is not a
//! closure-local (whitelist: [`super::L9_LOCK_WHITELIST`]).

use super::index::{self, FileIndex, HeldGuard};
use super::lexer::{Tok, TokKind};
use super::{
    coverage_for, is_test_like, scope_applies, Rule, Violation, L9_LOCK_WHITELIST,
    REMOTE_CALL_MARKERS,
};
use std::collections::{BTreeMap, BTreeSet};

/// Comparator-taking functions whose closure must not use `partial_cmp`.
const SORT_FNS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "min_by",
    "max_by",
    "binary_search_by",
];

/// Obs emissions that are order-sensitive (must be deferred to the
/// gather barrier); the commutative counter API is allowed inline.
const ORDERED_OBS: &[&str] = &["event", "span", "gauge_set", "observe"];

/// Ubiquitous std method names never resolved to workspace fns when
/// building cross-function lock edges (they would alias collection and
/// iterator methods and draw fictitious edges).
const CALL_RESOLUTION_BLOCKLIST: &[&str] = &[
    "as_mut",
    "as_ref",
    "clear",
    "clone",
    "cloned",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "default",
    "entry",
    "eq",
    "extend",
    "filter",
    "find",
    "fmt",
    "from",
    "get",
    "get_mut",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "len",
    "map",
    "max",
    "min",
    "new",
    "next",
    "pop",
    "push",
    "remove",
    "retain",
    "sort",
    "sort_by",
    "sort_by_key",
    "to_string",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
];

fn seq(code: &[Tok<'_>], at: usize, want: &[&str]) -> bool {
    want.iter()
        .enumerate()
        .all(|(k, w)| code.get(at + k).is_some_and(|t| t.text == *w))
}

/// Index of the `)` matching the `(` at `open`.
fn matching_close(code: &[Tok<'_>], open: usize) -> Option<usize> {
    let mut d: i64 = 0;
    let mut i = open;
    while i < code.len() {
        match code[i].text {
            "(" | "[" | "{" => d += 1,
            ")" | "]" | "}" => {
                d -= 1;
                if d == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Run the per-file flow rules (L4b, L9, L10).
pub fn check_local(path: &str, toks: &[Tok<'_>], idx: &FileIndex, out: &mut Vec<Violation>) {
    let test_like = is_test_like(path);
    let code = index::code_view(toks);

    // ---- L4b: guard held across a remote/wrapper execution call ----
    if !test_like {
        for f in &idx.fns {
            for call in &f.calls {
                if !call.is_method
                    || !REMOTE_CALL_MARKERS.contains(&call.callee.as_str())
                    || idx.in_cfg_test(call.line)
                {
                    continue;
                }
                for g in &call.held {
                    out.push(Violation {
                        rule: Rule::L4,
                        path: path.to_string(),
                        line: call.line as usize,
                        col: call.col as usize,
                        message: format!(
                            "remote call `.{}(...)` while lock guard `{}` (taken at \
                             line {}) is held — drop the guard before leaving the \
                             integrator",
                            call.callee, g.name, g.line
                        ),
                    });
                }
            }
        }
    }

    // ---- L9: scatter-closure purity ----
    if !test_like {
        for c in &idx.scatter_closures {
            if idx.in_cfg_test(c.line) {
                continue;
            }
            check_closure_purity(path, &code, c, out);
        }
    }

    // ---- L10: float-ordering determinism ----
    let l10 = coverage_for(path).is_some_and(|c| scope_applies(c.l10, c.dir, path)) && !test_like;
    if l10 {
        // Comparator ranges of sort-like calls.
        let mut comparator_ranges: Vec<(usize, usize, &str)> = Vec::new();
        for (i, t) in code.iter().enumerate() {
            if t.kind == TokKind::Ident
                && SORT_FNS.contains(&t.text)
                && code.get(i + 1).is_some_and(|n| n.text == "(")
            {
                if let Some(close) = matching_close(&code, i + 1) {
                    comparator_ranges.push((i + 2, close, t.text));
                }
            }
        }
        for (i, t) in code.iter().enumerate() {
            if t.kind != TokKind::Ident || t.text != "partial_cmp" || idx.in_cfg_test(t.line) {
                continue;
            }
            // Inside a sort comparator: always a violation — a NaN there
            // collapses to `Equal` (or panics) and breaks the total order
            // the deterministic routing tie-breaks depend on.
            if let Some((_, _, sort_fn)) =
                comparator_ranges.iter().find(|&&(a, b, _)| i >= a && i < b)
            {
                out.push(Violation {
                    rule: Rule::L10,
                    path: path.to_string(),
                    line: t.line as usize,
                    col: t.col as usize,
                    message: format!(
                        "`partial_cmp` inside a `{sort_fn}` comparator: a NaN key makes \
                         the comparison non-total and the resulting order \
                         scheduling-dependent — compare with `f64::total_cmp` (or sort \
                         on an integer key)"
                    ),
                });
                continue;
            }
            // `x.partial_cmp(y).unwrap()` / `.expect(…)` anywhere in
            // scope: the unwrap turns an incomparable pair into a panic
            // on the serving path.
            if i > 0 && code[i - 1].text == "." && code.get(i + 1).is_some_and(|n| n.text == "(") {
                if let Some(close) = matching_close(&code, i + 1) {
                    if seq(&code, close + 1, &[".", "unwrap", "("])
                        || seq(&code, close + 1, &[".", "expect", "("])
                    {
                        out.push(Violation {
                            rule: Rule::L10,
                            path: path.to_string(),
                            line: t.line as usize,
                            col: t.col as usize,
                            message: "`partial_cmp(..).unwrap()` on float keys panics on NaN \
                                      and orders nothing totally — use `f64::total_cmp`"
                                .to_string(),
                        });
                    }
                }
            }
        }
    }
}

/// L9: scan one scatter-closure body.
fn check_closure_purity(
    path: &str,
    code: &[Tok<'_>],
    c: &index::ClosureInfo,
    out: &mut Vec<Violation>,
) {
    let body = &code[c.body.0..c.body.1];

    // Closure-local names: parameters, `let` bindings (all idents of the
    // pattern, loosely), and `for` loop variables.
    let mut locals: BTreeSet<&str> = c.params.iter().map(String::as_str).collect();
    for (i, t) in body.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text {
            "let" => {
                let mut j = i + 1;
                while let Some(n) = body.get(j) {
                    match n.text {
                        "=" | ";" => break,
                        _ if n.kind == TokKind::Ident => {
                            locals.insert(n.text);
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            "for" => {
                if let Some(n) = body.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    locals.insert(n.text);
                }
            }
            _ => {}
        }
    }

    // `.defer(…)` argument ranges: emissions inside a deferred thunk are
    // exactly the sanctioned pattern.
    let mut defer_ranges: Vec<(usize, usize)> = Vec::new();
    for i in 0..body.len() {
        if body[i].text == "." && seq(body, i + 1, &["defer", "("]) {
            if let Some(close) = matching_close(body, i + 2) {
                defer_ranges.push((i + 3, close));
            }
        }
    }
    let in_defer = |i: usize| defer_ranges.iter().any(|&(a, b)| i >= a && i < b);

    let mut push = |tok: &Tok<'_>, message: String| {
        out.push(Violation {
            rule: Rule::L9,
            path: path.to_string(),
            line: tok.line as usize,
            col: tok.col as usize,
            message,
        });
    };

    for i in 0..body.len() {
        let t = &body[i];

        // Captured `&mut` shared state: a mutable borrow of anything not
        // bound inside the closure races against the other workers.
        if t.text == "&"
            && body.get(i + 1).is_some_and(|n| n.text == "mut")
            && body
                .get(i + 2)
                .is_some_and(|n| n.kind == TokKind::Ident && !locals.contains(n.text))
        {
            let name = body[i + 2].text;
            push(
                t,
                format!(
                    "scatter closure takes `&mut {name}` on captured state: worker \
                     threads must not mutate shared state — accumulate into a \
                     closure-local (gathered in index order) or a Deferred buffer"
                ),
            );
        }

        // Order-sensitive obs emissions: journal/span/gauge writes from
        // workers interleave by schedule; only commutative counters (and
        // emissions packed into a `.defer(…)` thunk) are allowed.
        if t.text == "."
            && body
                .get(i + 1)
                .is_some_and(|n| ORDERED_OBS.contains(&n.text))
            && body.get(i + 2).is_some_and(|n| n.text == "(")
            && !in_defer(i)
        {
            let name = body[i + 1].text;
            push(
                &body[i + 1],
                format!(
                    "order-sensitive obs emission `.{name}(...)` inside a scatter \
                     closure: worker-side journal/gauge writes interleave by \
                     schedule and break byte-identical snapshots — defer it to the \
                     gather barrier (`Deferred::defer`) or use a commutative counter"
                ),
            );
        }

        // Lock acquisition on non-local state: the closure must run
        // against frozen state; taking a shared lock reintroduces
        // blocking and order dependence.
        if t.text == "."
            && body
                .get(i + 1)
                .is_some_and(|n| matches!(n.text, "lock" | "read" | "write"))
            && body.get(i + 2).is_some_and(|n| n.text == "(")
            && body.get(i + 3).is_some_and(|n| n.text == ")")
        {
            let chain = index::receiver_chain(body, i);
            let root_is_local = chain.first().is_some_and(|r| locals.contains(r));
            let display = if chain.is_empty() {
                "<expr>".to_string()
            } else {
                chain.join(".")
            };
            if !root_is_local && !L9_LOCK_WHITELIST.contains(&display.as_str()) {
                push(
                    &body[i + 1],
                    format!(
                        "lock acquisition `{display}.{}()` inside a scatter closure: \
                         workers must run against frozen state — move the access \
                         before the scatter, or whitelist the lock in \
                         L9_LOCK_WHITELIST with a determinism argument",
                        body[i + 1].text
                    ),
                );
            }
        }
    }
}

/// One lock-ordering edge site.
#[derive(Debug, Clone)]
struct EdgeSite {
    path: String,
    line: usize,
    col: usize,
    /// The call this edge flowed through, for cross-function edges.
    via: Option<String>,
}

/// Per-function facts retained for the workspace pass.
#[derive(Debug)]
struct FnFacts {
    name: String,
    direct_locks: BTreeSet<String>,
    /// Calls made with at least the possibility of lock relevance:
    /// (callee, line, col, guards held).
    calls: Vec<(String, usize, usize, Vec<HeldGuard>)>,
    path: String,
}

/// The workspace-wide lock-acquisition graph (L8).
#[derive(Default)]
pub struct LockGraph {
    /// (from, to) → sites. BTreeMap for deterministic iteration.
    edges: BTreeMap<(String, String), Vec<EdgeSite>>,
    fns: Vec<FnFacts>,
}

impl LockGraph {
    /// Absorb one file's index: direct nested-acquisition edges now,
    /// call facts for the cross-function pass later. Test code is
    /// exempt, like every library-code rule.
    pub fn absorb(&mut self, path: &str, idx: &FileIndex) {
        if is_test_like(path) {
            return;
        }
        for f in &idx.fns {
            if idx.in_cfg_test(f.lines.0) {
                continue;
            }
            let mut direct = BTreeSet::new();
            for acq in &f.locks {
                if idx.in_cfg_test(acq.line) {
                    continue;
                }
                direct.insert(acq.id.clone());
                for held in &acq.held {
                    self.edges
                        .entry((held.id.clone(), acq.id.clone()))
                        .or_default()
                        .push(EdgeSite {
                            path: path.to_string(),
                            line: acq.line as usize,
                            col: acq.col as usize,
                            via: None,
                        });
                }
            }
            self.fns.push(FnFacts {
                name: f.name.clone(),
                direct_locks: direct,
                calls: f
                    .calls
                    .iter()
                    .filter(|c| !idx.in_cfg_test(c.line))
                    .map(|c| {
                        (
                            c.callee.clone(),
                            c.line as usize,
                            c.col as usize,
                            c.held.clone(),
                        )
                    })
                    .collect(),
                path: path.to_string(),
            });
        }
    }

    /// Finish the workspace pass: resolve cross-function edges, then
    /// report self-loops, majority-order inversions, and cycles.
    pub fn analyze(mut self, _indexes: &[FileIndex]) -> Vec<Violation> {
        // Transitive lock sets per fn, resolved by bare callee name.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in self.fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
        // Resolve a bare callee name only when it names exactly one
        // workspace fn (and is not a ubiquitous std method name): an
        // ambiguous name (`observe`: Obs::observe vs Histogram::observe)
        // would draw edges from the wrong target. Under-approximates —
        // the right direction for a deadlock linter's cross-fn edges.
        let resolvable = |callee: &str| -> &[usize] {
            if CALL_RESOLUTION_BLOCKLIST.contains(&callee) {
                return &[];
            }
            match by_name.get(callee) {
                Some(fns) if fns.len() == 1 => fns.as_slice(),
                _ => &[],
            }
        };

        // Fixpoint: locks*(f) = direct(f) ∪ ⋃ locks*(callee).
        let mut closure: Vec<BTreeSet<String>> =
            self.fns.iter().map(|f| f.direct_locks.clone()).collect();
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                let mut add: Vec<String> = Vec::new();
                for (callee, _, _, _) in &self.fns[i].calls {
                    for &g in resolvable(callee) {
                        if g == i {
                            continue;
                        }
                        for l in &closure[g] {
                            if !closure[i].contains(l) {
                                add.push(l.clone());
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    changed = true;
                    closure[i].extend(add);
                }
            }
            if !changed {
                break;
            }
        }

        // Cross-function edges: a call with guards held reaches every
        // lock its callee (transitively) acquires.
        let mut cross: Vec<((String, String), EdgeSite)> = Vec::new();
        for f in &self.fns {
            for (callee, line, col, held) in &f.calls {
                if held.is_empty() {
                    continue;
                }
                let mut reached: BTreeSet<&String> = BTreeSet::new();
                for &g in resolvable(callee) {
                    reached.extend(closure[g].iter());
                }
                for to in reached {
                    for h in held {
                        cross.push((
                            (h.id.clone(), to.clone()),
                            EdgeSite {
                                path: f.path.clone(),
                                line: *line,
                                col: *col,
                                via: Some(callee.clone()),
                            },
                        ));
                    }
                }
            }
        }
        for (key, site) in cross {
            self.edges.entry(key).or_default().push(site);
        }

        let mut out = Vec::new();
        let mut handled: BTreeSet<(String, String)> = BTreeSet::new();

        // 1. Recursive acquisition (self-loops): non-reentrant mutexes
        // self-deadlock here.
        for ((from, to), sites) in &self.edges {
            if from == to {
                for s in sites {
                    out.push(edge_violation(
                        s,
                        &format!(
                            "recursive acquisition of lock `{from}`{via}: parking_lot \
                             locks are not reentrant — this self-deadlocks",
                            via = via_suffix(s)
                        ),
                    ));
                }
                handled.insert((from.clone(), to.clone()));
            }
        }

        // 2. Majority-order inversions: both directions observed, one
        // strictly rarer — the rare one inverts the workspace order.
        let keys: Vec<(String, String)> = self.edges.keys().cloned().collect();
        for (from, to) in &keys {
            if from >= to || handled.contains(&(from.clone(), to.clone())) {
                continue;
            }
            let fwd = self.edges.get(&(from.clone(), to.clone()));
            let rev = self.edges.get(&(to.clone(), from.clone()));
            let (Some(fwd), Some(rev)) = (fwd, rev) else {
                continue;
            };
            let (minority, majority, maj_dir) = match fwd.len().cmp(&rev.len()) {
                std::cmp::Ordering::Less => (fwd, rev, (to, from)),
                std::cmp::Ordering::Greater => (rev, fwd, (from, to)),
                std::cmp::Ordering::Equal => {
                    // No majority: report both directions as a cycle.
                    for (dir_from, dir_to, sites) in [(from, to, fwd), (to, from, rev)] {
                        for s in sites {
                            out.push(edge_violation(
                                s,
                                &format!(
                                    "lock-order cycle: `{dir_from}` is held while \
                                     `{dir_to}` is acquired{via}, and the opposite \
                                     order also occurs — pick one global order",
                                    via = via_suffix(s)
                                ),
                            ));
                        }
                    }
                    handled.insert((from.clone(), to.clone()));
                    handled.insert((to.clone(), from.clone()));
                    continue;
                }
            };
            let example = &majority[0];
            for s in minority {
                out.push(edge_violation(
                    s,
                    &format!(
                        "lock-order inversion: acquiring `{}` while holding `{}`{via} \
                         inverts the majority order `{}` before `{}` ({} site(s), e.g. \
                         {}:{}) — two threads taking the two orders deadlock",
                        maj_dir.0,
                        maj_dir.1,
                        maj_dir.0,
                        maj_dir.1,
                        majority.len(),
                        example.path,
                        example.line,
                        via = via_suffix(s)
                    ),
                ));
            }
            handled.insert((from.clone(), to.clone()));
            handled.insert((to.clone(), from.clone()));
        }

        // 3. Longer cycles: SCCs of the remaining graph.
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (from, to) in self.edges.keys() {
            if handled.contains(&(from.clone(), to.clone())) {
                continue;
            }
            adj.entry(from).or_default().insert(to);
            adj.entry(to).or_default(); // ensure node exists
        }
        let sccs = strongly_connected(&adj);
        for scc in sccs {
            if scc.len() < 2 {
                continue;
            }
            let members: BTreeSet<&str> = scc.iter().copied().collect();
            let cycle: Vec<&str> = scc.to_vec();
            for ((from, to), sites) in &self.edges {
                if handled.contains(&(from.clone(), to.clone())) {
                    continue;
                }
                if members.contains(from.as_str()) && members.contains(to.as_str()) {
                    for s in sites {
                        out.push(edge_violation(
                            s,
                            &format!(
                                "lock-order cycle through {{{}}}: `{from}` held while \
                                 `{to}` acquired{via} — break the cycle or impose a \
                                 total acquisition order",
                                cycle.join(", "),
                                via = via_suffix(s)
                            ),
                        ));
                    }
                }
            }
        }

        out
    }
}

fn via_suffix(s: &EdgeSite) -> String {
    match &s.via {
        Some(callee) => format!(" (via call to `{callee}`)"),
        None => String::new(),
    }
}

fn edge_violation(s: &EdgeSite, message: &str) -> Violation {
    Violation {
        rule: Rule::L8,
        path: s.path.clone(),
        line: s.line,
        col: s.col,
        message: message.to_string(),
    }
}

/// Tarjan's SCC, iterative, deterministic (BTreeMap adjacency). Returns
/// components in a stable order.
fn strongly_connected<'a>(adj: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> Vec<Vec<&'a str>> {
    #[derive(Default, Clone)]
    struct NodeState {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let mut state: BTreeMap<&str, NodeState> =
        nodes.iter().map(|&n| (n, NodeState::default())).collect();
    let mut counter = 0usize;
    let mut stack: Vec<&str> = Vec::new();
    let mut sccs: Vec<Vec<&str>> = Vec::new();

    for &root in &nodes {
        if state[root].index.is_some() {
            continue;
        }
        // Iterative DFS: (node, neighbor iterator position).
        let mut work: Vec<(&str, Vec<&str>, usize)> = Vec::new();
        let neigh: Vec<&str> = adj[root].iter().copied().collect();
        state.get_mut(root).map(|s| {
            s.index = Some(counter);
            s.lowlink = counter;
            s.on_stack = true;
        });
        counter += 1;
        stack.push(root);
        work.push((root, neigh, 0));

        while let Some((v, neighbors, mut pos)) = work.pop() {
            let mut descended = false;
            while pos < neighbors.len() {
                let w = neighbors[pos];
                pos += 1;
                match state[w].index {
                    None => {
                        // Descend into w.
                        work.push((v, neighbors.clone(), pos));
                        let wneigh: Vec<&str> = adj[w].iter().copied().collect();
                        if let Some(s) = state.get_mut(w) {
                            s.index = Some(counter);
                            s.lowlink = counter;
                            s.on_stack = true;
                        }
                        counter += 1;
                        stack.push(w);
                        work.push((w, wneigh, 0));
                        descended = true;
                        break;
                    }
                    Some(widx) => {
                        if state[w].on_stack {
                            let wl = state[w].lowlink.min(widx);
                            if let Some(s) = state.get_mut(v) {
                                s.lowlink = s.lowlink.min(wl);
                            }
                        }
                    }
                }
            }
            if descended {
                continue;
            }
            // v finished: maybe root of an SCC.
            if state[v].lowlink == state[v].index.unwrap_or(0) {
                let mut comp = Vec::new();
                while let Some(w) = stack.pop() {
                    if let Some(s) = state.get_mut(w) {
                        s.on_stack = false;
                    }
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                comp.sort();
                sccs.push(comp);
            }
            // Propagate lowlink to parent.
            if let Some(&(p, _, _)) = work.last() {
                let vl = state[v].lowlink;
                if let Some(s) = state.get_mut(p) {
                    s.lowlink = s.lowlink.min(vl);
                }
            }
        }
    }
    sccs
}
