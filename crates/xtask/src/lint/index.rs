//! Per-file item index: the lightweight structural layer between the
//! token stream and the flow rules.
//!
//! One forward pass over the code tokens (comments stripped) recovers,
//! without a full parser:
//!
//! * `fn` items and their body spans, attributed to the enclosing
//!   `impl` block's type name;
//! * call edges by bare callee name (`foo(…)`, `x.foo(…)`), each with a
//!   snapshot of the lock guards live at the call site;
//! * lock acquisitions (`….lock()` / `.read()` / `.write()`) with a
//!   normalized *lock identity*, the guards already held when each was
//!   taken, and guard lifetimes tracked through `let` bindings,
//!   `drop(guard)`, and scope exit;
//! * `#[cfg(test)]` block spans (line ranges) so inline unit tests stay
//!   exempt from the library-code rules;
//! * closures passed to `scatter_indexed` / `submit_batch`, with their
//!   parameter lists and body token ranges, for the L9 purity rule.
//!
//! Lock identity normalization: `self.field….lock()` inside
//! `impl Type` becomes `Type.field…`; a local-rooted chain is prefixed
//! with the impl type (or the function name outside any impl), so the
//! same field locked from several methods of one type maps to one graph
//! node while unrelated locals stay distinct. An unrecognizable receiver
//! (e.g. a call result) gets a site-unique `<expr:LINE>` identity, which
//! can never merge with anything — deliberately conservative.

use super::lexer::{Tok, TokKind};

/// The code view: all tokens except comments. Index ranges stored in
/// [`FileIndex`] refer to positions in this filtered sequence, so every
/// consumer must build it with this same function.
pub fn code_view<'a>(toks: &[Tok<'a>]) -> Vec<Tok<'a>> {
    toks.iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .copied()
        .collect()
}

/// A lock guard (or set of guards) live at some program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeldGuard {
    /// Normalized lock identity (graph node).
    pub id: String,
    /// Binding name (`st`), or `<transient>` for an unbound acquisition.
    pub name: String,
    /// Line the guard was acquired on.
    pub line: u32,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Bare callee name (`plan_fragment` for both `plan_fragment(…)` and
    /// `x.plan_fragment(…)`).
    pub callee: String,
    /// Was this a method call (`.callee(`)?
    pub is_method: bool,
    /// 1-based line of the callee name.
    pub line: u32,
    /// 1-based column of the callee name.
    pub col: u32,
    /// Guards live when the call was made.
    pub held: Vec<HeldGuard>,
}

/// One lock acquisition site.
#[derive(Debug, Clone)]
pub struct LockAcq {
    /// Normalized lock identity.
    pub id: String,
    /// 1-based line of the acquiring call.
    pub line: u32,
    /// 1-based column of the acquiring call.
    pub col: u32,
    /// `let` binding holding the guard, if any (a bare `….lock()`
    /// expression is a transient acquisition: taken and released within
    /// the statement).
    pub binding: Option<String>,
    /// Guards already held when this one was acquired — each yields an
    /// ordering edge `held → this`.
    pub held: Vec<HeldGuard>,
}

/// One indexed function.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Bare name.
    pub name: String,
    /// Enclosing `impl` type, if any.
    pub owner: Option<String>,
    /// `Type::name`, or just `name` for free functions.
    pub qualified: String,
    /// Line span of the body (1-based, inclusive).
    pub lines: (u32, u32),
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
    /// Lock acquisitions in body order.
    pub locks: Vec<LockAcq>,
}

/// A closure passed to a scatter-layer entry point.
#[derive(Debug, Clone)]
pub struct ClosureInfo {
    /// The function it was passed to (`scatter_indexed`, `submit_batch`).
    pub callee: String,
    /// Closure parameter names.
    pub params: Vec<String>,
    /// Token range of the body in the [`code_view`] sequence
    /// (inclusive start, exclusive end).
    pub body: (usize, usize),
    /// Line of the closure's opening `|`.
    pub line: u32,
}

/// The per-file index.
#[derive(Debug, Default)]
pub struct FileIndex {
    /// Every function body, in source order.
    pub fns: Vec<FnInfo>,
    /// Every closure passed to `scatter_indexed` / `submit_batch`.
    pub scatter_closures: Vec<ClosureInfo>,
    /// `#[cfg(test)]` block spans as (start_line, end_line), inclusive.
    pub cfg_test_ranges: Vec<(u32, u32)>,
}

impl FileIndex {
    /// Is `line` inside a `#[cfg(test)]` block?
    pub fn in_cfg_test(&self, line: u32) -> bool {
        self.cfg_test_ranges
            .iter()
            .any(|&(a, b)| line >= a && line <= b)
    }
}

/// Rust keywords that can precede `(` without being calls.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "super", "trait", "type", "union", "unsafe", "use", "where",
    "while", "yield",
];

/// Lock primitives: consumed by the guard tracker, never call edges.
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// A guard live inside the innermost open function.
#[derive(Debug, Clone)]
struct LiveGuard {
    name: String,
    id: String,
    /// Brace depth at acquisition; the guard dies when depth drops below.
    depth: i64,
    line: u32,
}

/// An `fn` whose body the scan is currently inside.
struct OpenFn {
    fn_idx: usize,
    /// Depth value *after* consuming the body's `{`.
    body_depth: i64,
    guards: Vec<LiveGuard>,
}

/// Build the index for one file. `path` is used only for readable lock
/// identities of otherwise-anonymous sites.
pub fn build(toks: &[Tok<'_>], _path: &str) -> FileIndex {
    let code = code_view(toks);
    let mut idx = FileIndex::default();

    let mut depth: i64 = 0;
    let mut impl_stack: Vec<(i64, String)> = Vec::new(); // (depth after `{`, type)
    let mut pending_impl: Option<String> = None;
    let mut open_fns: Vec<OpenFn> = Vec::new();
    // Token position of each not-yet-reached body `{` → fn index.
    let mut pending_bodies: Vec<(usize, usize)> = Vec::new();
    let mut pending_cfg_test = false;
    let mut open_cfg: Option<(i64, u32)> = None;
    // `let [mut] name =` seen, `;` not yet: the next lock binds to it.
    let mut pending_let: Option<String> = None;

    let mut i = 0usize;
    while i < code.len() {
        let t = &code[i];
        let text = t.text;

        // ---- #[cfg(test)] attribute ----
        if text == "#" && matches_texts(&code, i + 1, &["[", "cfg", "(", "test", ")", "]"]) {
            pending_cfg_test = true;
            i += 7;
            continue;
        }

        // ---- impl header ----
        if t.kind == TokKind::Ident && text == "impl" && prev_code(&code, i) != Some("dyn") {
            let (ty, after) = parse_impl_header(&code, i + 1);
            pending_impl = Some(ty);
            i = after; // stops at the `{` (or wherever the header ended)
            continue;
        }

        // ---- fn item ----
        if t.kind == TokKind::Ident && text == "fn" {
            if let Some(name_tok) = code.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                let name = name_tok.text.to_string();
                let owner = impl_stack.last().map(|(_, ty)| ty.clone());
                if let Some(body_open) = find_fn_body_open(&code, i + 2) {
                    let qualified = match &owner {
                        Some(ty) => format!("{ty}::{name}"),
                        None => name.clone(),
                    };
                    let fn_idx = idx.fns.len();
                    idx.fns.push(FnInfo {
                        name,
                        owner,
                        qualified,
                        lines: (code[body_open].line, code[body_open].line),
                        calls: Vec::new(),
                        locks: Vec::new(),
                    });
                    pending_bodies.push((body_open, fn_idx));
                }
                // Trait declarations (`fn f(…);`) have no body: skip.
                i += 2;
                continue;
            }
        }

        match text {
            "{" => {
                depth += 1;
                if let Some(ty) = pending_impl.take() {
                    impl_stack.push((depth, ty));
                }
                if let Some(pos) = pending_bodies.iter().position(|&(at, _)| at == i) {
                    let (_, fn_idx) = pending_bodies.swap_remove(pos);
                    open_fns.push(OpenFn {
                        fn_idx,
                        body_depth: depth,
                        guards: Vec::new(),
                    });
                }
                if pending_cfg_test && open_cfg.is_none() {
                    open_cfg = Some((depth, t.line));
                }
                pending_cfg_test = false;
            }
            "}" => {
                if let Some((d, start)) = open_cfg {
                    if depth == d {
                        idx.cfg_test_ranges.push((start, t.line));
                        open_cfg = None;
                    }
                }
                while let Some(open) = open_fns.last() {
                    if depth == open.body_depth {
                        let fn_idx = open.fn_idx;
                        idx.fns[fn_idx].lines.1 = t.line;
                        open_fns.pop();
                    } else {
                        break;
                    }
                }
                while impl_stack.last().is_some_and(|&(d, _)| d == depth) {
                    impl_stack.pop();
                }
                depth -= 1;
                if let Some(open) = open_fns.last_mut() {
                    open.guards.retain(|g| depth >= g.depth);
                }
            }
            ";" => {
                pending_let = None;
            }
            "let" if t.kind == TokKind::Ident => {
                pending_let = parse_let_binding(&code, i + 1);
            }
            _ => {}
        }

        // ---- lock acquisition: `.lock()` / `.read()` / `.write()` ----
        if text == "."
            && code
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && LOCK_METHODS.contains(&n.text))
            && code.get(i + 2).is_some_and(|n| n.text == "(")
            && code.get(i + 3).is_some_and(|n| n.text == ")")
        {
            let site = code[i + 1];
            let chain = receiver_chain(&code, i);
            if let Some(open) = open_fns.last_mut() {
                let info = &idx.fns[open.fn_idx];
                let id = lock_identity(&chain, info.owner.as_deref(), &info.name, site.line);
                let held: Vec<HeldGuard> = open
                    .guards
                    .iter()
                    .map(|g| HeldGuard {
                        id: g.id.clone(),
                        name: g.name.clone(),
                        line: g.line,
                    })
                    .collect();
                // `let x = m.lock().get(…)…;` chains off a *temporary*
                // guard that dies at the semicolon — the binding holds
                // the chained result, not the guard. Only a chain that
                // stops at `.lock()` binds a live guard.
                let chained = code.get(i + 4).is_some_and(|n| n.text == ".");
                let binding = if chained {
                    pending_let = None;
                    None
                } else {
                    pending_let.take()
                };
                if let Some(name) = &binding {
                    open.guards.push(LiveGuard {
                        name: name.clone(),
                        id: id.clone(),
                        depth,
                        line: site.line,
                    });
                }
                idx.fns[open.fn_idx].locks.push(LockAcq {
                    id,
                    line: site.line,
                    col: site.col,
                    binding,
                    held,
                });
            }
            i += 4;
            continue;
        }

        // ---- drop(guard): explicit end of a guard's life ----
        if t.kind == TokKind::Ident
            && text == "drop"
            && code.get(i + 1).is_some_and(|n| n.text == "(")
            && code.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
            && code.get(i + 3).is_some_and(|n| n.text == ")")
        {
            let victim = code[i + 2].text;
            if let Some(open) = open_fns.last_mut() {
                open.guards.retain(|g| g.name != victim);
            }
            i += 4;
            continue;
        }

        // ---- call sites ----
        if t.kind == TokKind::Ident
            && !is_keyword(text)
            && !LOCK_METHODS.contains(&text)
            && text != "drop"
            && code.get(i + 1).is_some_and(|n| n.text == "(")
            && prev_code(&code, i) != Some("fn")
        {
            let is_method = prev_code(&code, i) == Some(".");
            if let Some(open) = open_fns.last() {
                let held: Vec<HeldGuard> = open
                    .guards
                    .iter()
                    .map(|g| HeldGuard {
                        id: g.id.clone(),
                        name: g.name.clone(),
                        line: g.line,
                    })
                    .collect();
                idx.fns[open.fn_idx].calls.push(CallSite {
                    callee: text.to_string(),
                    is_method,
                    line: t.line,
                    col: t.col,
                    held,
                });
            }
            if text == "scatter_indexed" || text == "submit_batch" {
                if let Some(c) = parse_scatter_closure(&code, i, text) {
                    idx.scatter_closures.push(c);
                }
            }
        }

        i += 1;
    }

    if let Some((_, start)) = open_cfg {
        // Unterminated (invalid Rust): exempt to EOF.
        idx.cfg_test_ranges.push((start, u32::MAX));
    }
    idx
}

/// Do the token texts starting at `at` equal `want`?
fn matches_texts(code: &[Tok<'_>], at: usize, want: &[&str]) -> bool {
    want.iter()
        .enumerate()
        .all(|(k, w)| code.get(at + k).is_some_and(|t| t.text == *w))
}

fn prev_code<'a>(code: &[Tok<'a>], i: usize) -> Option<&'a str> {
    i.checked_sub(1).map(|p| code[p].text)
}

/// Parse the type name out of an `impl` header starting after the `impl`
/// token: last path segment before `{`, reset at `for` (trait impls),
/// stopped at `where`. Returns (type_name, index of the `{`).
fn parse_impl_header(code: &[Tok<'_>], mut i: usize) -> (String, usize) {
    let mut angle: i64 = 0;
    let mut last_ident: Option<&str> = None;
    while i < code.len() {
        let t = &code[i];
        match t.text {
            "<" => angle += 1,
            ">" if prev_code(code, i) != Some("-") && prev_code(code, i) != Some("=") => {
                angle -= 1;
            }
            "{" if angle <= 0 => break,
            ";" if angle <= 0 => break, // `impl Trait for Type;` (never valid, be safe)
            "for" if angle == 0 => last_ident = None,
            "where" if angle == 0 => {
                // Type fully named; skip the where clause to the `{`.
                while i < code.len() && code[i].text != "{" {
                    i += 1;
                }
                break;
            }
            _ if angle == 0 && t.kind == TokKind::Ident => last_ident = Some(t.text),
            _ => {}
        }
        i += 1;
    }
    (last_ident.unwrap_or("<impl>").to_string(), i)
}

/// From the token after a `fn` item's name, find the index of the body's
/// opening `{` (skipping generics, parameters, return type and where
/// clause). Returns `None` for bodiless declarations (`fn f(…);`).
fn find_fn_body_open(code: &[Tok<'_>], mut i: usize) -> Option<usize> {
    let mut angle: i64 = 0;
    let mut paren: i64 = 0;
    while i < code.len() {
        match code[i].text {
            "<" => angle += 1,
            ">" if prev_code(code, i) != Some("-") && prev_code(code, i) != Some("=") => {
                angle -= 1;
            }
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            "{" if angle <= 0 && paren == 0 => return Some(i),
            ";" if angle <= 0 && paren == 0 => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// `let [mut] name = …` → `Some(name)`; patterns and other forms → None.
/// (`let _ = …` drops immediately and never holds a lock; `let _g = …`
/// is a live guard and is tracked.)
fn parse_let_binding(code: &[Tok<'_>], mut i: usize) -> Option<String> {
    if code.get(i).is_some_and(|t| t.text == "mut") {
        i += 1;
    }
    let name = code.get(i).filter(|t| t.kind == TokKind::Ident)?;
    if name.text == "_" {
        return None;
    }
    // Allow an explicit type ascription before the `=`.
    let mut j = i + 1;
    if code.get(j).is_some_and(|t| t.text == ":") {
        let mut angle: i64 = 0;
        while j < code.len() {
            match code[j].text {
                "<" => angle += 1,
                ">" if prev_code(code, j) != Some("-") => angle -= 1,
                "=" if angle <= 0 => break,
                ";" if angle <= 0 => return None,
                _ => {}
            }
            j += 1;
        }
    }
    code.get(j)
        .filter(|t| t.text == "=")
        .map(|_| name.text.to_string())
}

/// Walk back from the `.` of `….lock()` and collect the receiver chain:
/// `self.state` → `["self", "state"]`. Stops at the first token that is
/// not an identifier or `.`; an empty result means the receiver was an
/// expression (call result, index, …).
pub fn receiver_chain<'a>(code: &[Tok<'a>], dot_at: usize) -> Vec<&'a str> {
    let mut rev: Vec<&str> = Vec::new();
    let mut j = dot_at; // the `.` before `lock`
    loop {
        let Some(prev) = j.checked_sub(1) else { break };
        let t = &code[prev];
        if t.kind == TokKind::Ident && !is_keyword(t.text) {
            rev.push(t.text);
            // Continue only through a `.` link.
            match prev.checked_sub(1) {
                Some(pp) if code[pp].text == "." => j = pp,
                _ => break,
            }
        } else {
            break;
        }
    }
    rev.reverse();
    rev
}

/// Normalize a receiver chain to a lock identity (graph node name).
fn lock_identity(chain: &[&str], owner: Option<&str>, fn_name: &str, line: u32) -> String {
    let prefix = owner.unwrap_or(fn_name);
    if chain.is_empty() {
        // Unrecognizable receiver: site-unique, merges with nothing.
        return format!("{prefix}.<expr:{line}>");
    }
    if chain[0] == "self" && chain.len() > 1 {
        return format!("{prefix}.{}", chain[1..].join("."));
    }
    format!("{prefix}.{}", chain.join("."))
}

/// At a `scatter_indexed(`/`submit_batch(` call site, find the closure
/// argument (if any) and record its parameters and body span.
fn parse_scatter_closure(code: &[Tok<'_>], call_at: usize, callee: &str) -> Option<ClosureInfo> {
    let open = call_at + 1; // the `(`
    debug_assert_eq!(code[open].text, "(");
    let mut depth: i64 = 0;
    let mut i = open;
    // Find the first `|` at argument depth 1: the closure's parameter
    // list opens there (`||` shows up as two `|` tokens).
    let pipe = loop {
        let t = code.get(i)?;
        match t.text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return None; // call closed without a closure argument
                }
            }
            "|" if depth == 1 && prev_code(code, i) != Some("|") => break i,
            _ => {}
        }
        i += 1;
    };
    // Parameters: identifiers up to the closing `|`.
    let mut params = Vec::new();
    let mut j = pipe + 1;
    while let Some(t) = code.get(j) {
        if t.text == "|" {
            break;
        }
        if t.kind == TokKind::Ident && !is_keyword(t.text) {
            params.push(t.text.to_string());
        }
        j += 1;
    }
    let body_start = j + 1;
    let first = code.get(body_start)?;
    let body_end = if first.text == "{" {
        // Braced body: span to the matching `}`.
        let mut d: i64 = 0;
        let mut k = body_start;
        loop {
            let t = code.get(k)?;
            match t.text {
                "{" => d += 1,
                "}" => {
                    d -= 1;
                    if d == 0 {
                        break k + 1;
                    }
                }
                _ => {}
            }
            k += 1;
        }
    } else {
        // Expression body: to the `,` or `)` closing the argument.
        let mut d: i64 = 0;
        let mut k = body_start;
        loop {
            let t = code.get(k)?;
            match t.text {
                "(" | "[" | "{" => d += 1,
                ")" | "]" | "}" => {
                    if d == 0 {
                        break k;
                    }
                    d -= 1;
                }
                "," if d == 0 => break k,
                _ => {}
            }
            k += 1;
        }
    };
    Some(ClosureInfo {
        callee: callee.to_string(),
        params,
        body: (body_start, body_end),
        line: code[pipe].line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lexer::lex;

    fn index(src: &str) -> FileIndex {
        build(&lex(src), "crates/core/src/x.rs")
    }

    #[test]
    fn fn_and_impl_attribution() {
        let src = "impl Foo {\n    fn a(&self) {}\n}\nfn free() {}\nimpl fmt::Display for Bar {\n    fn fmt(&self) {}\n}\n";
        let idx = index(src);
        let names: Vec<&str> = idx.fns.iter().map(|f| f.qualified.as_str()).collect();
        assert_eq!(names, vec!["Foo::a", "free", "Bar::fmt"]);
    }

    #[test]
    fn generic_fn_body_found_despite_arrow_and_where() {
        let src = "pub fn scatter<T, F>(n: usize, f: F) -> Vec<T>\nwhere\n    T: Send,\n    F: Fn(usize) -> T + Sync,\n{\n    inner(n)\n}\n";
        let idx = index(src);
        assert_eq!(idx.fns.len(), 1);
        assert_eq!(idx.fns[0].calls.len(), 1);
        assert_eq!(idx.fns[0].calls[0].callee, "inner");
    }

    #[test]
    fn trait_declarations_have_no_body() {
        let src = "trait T {\n    fn decl(&self);\n    fn with_default(&self) { self.decl() }\n}\n";
        let idx = index(src);
        assert_eq!(idx.fns.len(), 1);
        assert_eq!(idx.fns[0].name, "with_default");
    }

    #[test]
    fn lock_identity_self_field_uses_impl_type() {
        let src = "impl Daemon {\n    fn tick(&self) {\n        let st = self.state.lock();\n        st.touch();\n    }\n}\n";
        let idx = index(src);
        let locks = &idx.fns[0].locks;
        assert_eq!(locks.len(), 1);
        assert_eq!(locks[0].id, "Daemon.state");
        assert_eq!(locks[0].binding.as_deref(), Some("st"));
    }

    #[test]
    fn nested_acquisition_records_held_guard() {
        let src = "impl D {\n    fn f(&self) {\n        let a = self.alpha.lock();\n        let b = self.beta.lock();\n        drop(b);\n        drop(a);\n    }\n}\n";
        let idx = index(src);
        let locks = &idx.fns[0].locks;
        assert_eq!(locks[0].held.len(), 0);
        assert_eq!(locks[1].held.len(), 1);
        assert_eq!(locks[1].held[0].id, "D.alpha");
    }

    #[test]
    fn drop_ends_guard_before_call() {
        let src = "impl D {\n    fn f(&self) {\n        let g = self.state.lock();\n        drop(g);\n        remote(1);\n    }\n}\n";
        let idx = index(src);
        let call = idx.fns[0].calls.iter().find(|c| c.callee == "remote");
        assert!(call.unwrap().held.is_empty());
    }

    #[test]
    fn scope_exit_ends_guard() {
        let src = "fn f() {\n    {\n        let g = m.lock();\n        g.touch();\n    }\n    remote(1);\n}\n";
        let idx = index(src);
        let call = idx.fns[0].calls.iter().find(|c| c.callee == "remote");
        assert!(call.unwrap().held.is_empty());
    }

    #[test]
    fn transient_lock_does_not_hold() {
        let src = "fn f() {\n    *m.lock() += 1;\n    remote(1);\n}\n";
        let idx = index(src);
        assert_eq!(idx.fns[0].locks.len(), 1);
        assert!(idx.fns[0].locks[0].binding.is_none());
        let call = idx.fns[0].calls.iter().find(|c| c.callee == "remote");
        assert!(call.unwrap().held.is_empty());
    }

    #[test]
    fn call_with_guard_held_is_snapshotted() {
        let src = "impl D {\n    fn f(&self) {\n        let g = self.state.lock();\n        self.remote_call(1);\n    }\n}\n";
        let idx = index(src);
        let call = idx.fns[0]
            .calls
            .iter()
            .find(|c| c.callee == "remote_call")
            .unwrap();
        assert!(call.is_method);
        assert_eq!(call.held.len(), 1);
        assert_eq!(call.held[0].id, "D.state");
    }

    #[test]
    fn cfg_test_ranges_cover_the_mod() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() {}\n}\npub fn h() {}\n";
        let idx = index(src);
        assert_eq!(idx.cfg_test_ranges, vec![(3, 5)]);
        assert!(idx.in_cfg_test(4));
        assert!(!idx.in_cfg_test(6));
    }

    #[test]
    fn scatter_closure_span_and_params() {
        let src = "fn f() {\n    let out = scatter_indexed(n, threads, |i| {\n        let mut local = Deferred::new();\n        run(i, &mut local)\n    });\n}\n";
        let idx = index(src);
        assert_eq!(idx.scatter_closures.len(), 1);
        let c = &idx.scatter_closures[0];
        assert_eq!(c.params, vec!["i"]);
        assert_eq!(c.callee, "scatter_indexed");
        let code = code_view(&lex(src));
        let body: Vec<&str> = code[c.body.0..c.body.1].iter().map(|t| t.text).collect();
        assert!(body.contains(&"Deferred"));
        assert!(body.first() == Some(&"{") && body.last() == Some(&"}"));
    }

    #[test]
    fn scatter_expression_closure_span() {
        let src = "fn f() {\n    let out = scatter_indexed(n, t, |i| work(i, snapshot));\n}\n";
        let idx = index(src);
        let c = &idx.scatter_closures[0];
        let code = code_view(&lex(src));
        let body: Vec<&str> = code[c.body.0..c.body.1].iter().map(|t| t.text).collect();
        assert_eq!(body, vec!["work", "(", "i", ",", "snapshot", ")"]);
    }

    #[test]
    fn no_closure_argument_is_fine() {
        let src = "fn f() {\n    let out = federation.submit_batch(&sqls);\n}\n";
        let idx = index(src);
        assert!(idx.scatter_closures.is_empty());
    }

    #[test]
    fn let_with_type_ascription_still_binds() {
        let src = "fn f() {\n    let g: MutexGuard<'_, State> = m.lock();\n    remote(1);\n}\n";
        let idx = index(src);
        assert_eq!(idx.fns[0].locks[0].binding.as_deref(), Some("g"));
        let call = idx.fns[0].calls.iter().find(|c| c.callee == "remote");
        assert_eq!(call.unwrap().held.len(), 1);
    }
}
