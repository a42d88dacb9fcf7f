//! DESIGN.md stays true to the tree.
//!
//! * Every pin it cites resolves: a `ci.sh: <text>` pin names text the
//!   script contains, a `.rs` pin names a file that exists, and any other
//!   pin names a `fn` declared in the workspace's sources.
//! * Every oracle `sim::oracle::check_all` calls is named in it.
//! * Every `--test X` that `ci.sh` runs is named in it, and every
//!   `--bench X` is named with its flag (a bench name such as `paper` is
//!   also a common word).
//! * Every section reference to it anywhere in the repo — `DESIGN.md`,
//!   then `§` and a section number, then optionally a quoted heading —
//!   names a section that exists and a heading inside that section.
//! * The serving-path stages are its sections, in path order.
//! * It names no pull request: its history is `git log`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The serving-path stages, in the order a query meets them.
const STAGES: [&str; 11] = [
    "Parse",
    "Decompose",
    "Catalog source-select",
    "EXPLAIN fan-out",
    "Plan enumeration",
    "Calibrate and load-balance",
    "Admission queue",
    "Fragment execution",
    "Batch transfer",
    "Coordinator merge",
    "Obs flush",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    let path = root().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Every file under `dir` whose name ends in one of `exts`, skipping
/// build output.
fn files_under(dir: &Path, exts: &[&str], out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" {
                files_under(&path, exts, out);
            }
        } else if exts.iter().any(|ext| name.ends_with(ext)) {
            out.push(path);
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `text` contains `word` as a whole identifier.
fn names(text: &str, word: &str) -> bool {
    text.match_indices(word).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + word.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

/// Every `fn` name declared in `crates/`, `src/`, `tests/` and `examples/`.
fn declared_fns() -> BTreeSet<String> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        files_under(&root().join(dir), &[".rs"], &mut files);
    }
    let mut names = BTreeSet::new();
    for file in files {
        let text = fs::read_to_string(&file).unwrap_or_default();
        let mut rest = text.as_str();
        while let Some(at) = rest.find("fn ") {
            let before = rest[..at].chars().next_back();
            let after = &rest[at + 3..];
            if !before.is_some_and(is_ident) {
                let name: String = after.chars().take_while(|&c| is_ident(c)).collect();
                if !name.is_empty() {
                    names.insert(name);
                }
            }
            rest = after;
        }
    }
    names
}

/// The backticked items of every `Pin:` list, in document order.
fn pins(design: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (at, _) in design.match_indices("Pin:") {
        let mut rest = &design[at + "Pin:".len()..];
        loop {
            rest = rest.trim_start_matches(|c: char| c.is_whitespace() || c == ',');
            if let Some(after) = rest.strip_prefix("and ") {
                rest = after;
                continue;
            }
            let Some(item) = rest.strip_prefix('`') else {
                break;
            };
            let Some(end) = item.find('`') else {
                break;
            };
            out.push(item[..end].to_string());
            rest = &item[end + 1..];
        }
    }
    out
}

/// A top-level section: its number, its title and its `###` headings.
struct Section {
    number: u32,
    title: String,
    headings: Vec<String>,
}

/// Backticks dropped and whitespace collapsed, so a heading and a
/// reference written inside a comment compare alike.
fn normalize(title: &str) -> String {
    title
        .replace('`', "")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

fn sections(design: &str) -> Vec<Section> {
    let mut out: Vec<Section> = Vec::new();
    for line in design.lines() {
        if let Some(heading) = line.strip_prefix("## ") {
            let (number, title) = heading
                .split_once(". ")
                .unwrap_or_else(|| panic!("DESIGN.md heading `{line}` is not `## N. Title`"));
            let number = number
                .parse()
                .unwrap_or_else(|_| panic!("DESIGN.md heading `{line}` has no section number"));
            out.push(Section {
                number,
                title: normalize(title),
                headings: Vec::new(),
            });
        } else if let Some(heading) = line.strip_prefix("### ") {
            if let Some(section) = out.last_mut() {
                section.headings.push(normalize(heading));
            }
        }
    }
    out
}

/// Skips whitespace and the comment markers of Rust, shell and Markdown
/// sources, so a reference may break across comment lines.
fn skip_layout(s: &str) -> &str {
    s.trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '/' | '!' | '#' | '*'))
}

/// A quoted title that may continue on the next comment line.
fn quoted(s: &str) -> Option<String> {
    let body = s.strip_prefix('"')?;
    let end = body.find('"')?;
    let mut title = String::new();
    for (i, line) in body[..end].split('\n').enumerate() {
        let line = if i == 0 { line } else { skip_layout(line) };
        title.push(' ');
        title.push_str(line);
    }
    Some(normalize(&title))
}

/// One reference to DESIGN.md: a section number, maybe a heading.
struct Reference {
    file: String,
    section: Option<u32>,
    title: Option<String>,
}

fn references(file: &str, text: &str) -> Vec<Reference> {
    let mut out = Vec::new();
    for (at, name) in text.match_indices("DESIGN.md") {
        let rest = skip_layout(&text[at + name.len()..]);
        let (section, rest) = match rest.strip_prefix('§') {
            Some(after) => {
                let digits: String = after.chars().take_while(char::is_ascii_digit).collect();
                if digits.is_empty() {
                    continue;
                }
                let after = &after[digits.len()..];
                assert!(
                    !(after.starts_with('.')
                        && after[1..].starts_with(|c: char| c.is_ascii_digit())),
                    "{file}: `DESIGN.md §{digits}.` — DESIGN.md has no numbered subsections; \
                     name the heading instead"
                );
                (digits.parse().ok(), skip_layout(after))
            }
            None => (None, rest),
        };
        let title = quoted(skip_layout(rest.strip_prefix(',').unwrap_or(rest)));
        if section.is_some() || title.is_some() {
            out.push(Reference {
                file: file.to_string(),
                section,
                title,
            });
        }
    }
    out
}

#[test]
fn every_pin_resolves() {
    let design = read("DESIGN.md");
    let ci = read("ci.sh");
    let fns = declared_fns();
    let pins = pins(&design);
    assert!(pins.len() > 100, "found only {} pins", pins.len());
    let mut broken = Vec::new();
    for pin in &pins {
        if let Some(text) = pin.strip_prefix("ci.sh: ") {
            if !ci.contains(text) {
                broken.push(format!("`{pin}`: ci.sh does not contain `{text}`"));
            }
        } else if pin.ends_with(".rs") {
            if !root().join(pin).is_file() {
                broken.push(format!("`{pin}`: no such file"));
            }
        } else {
            let name = pin.rsplit("::").next().unwrap_or(pin);
            if !fns.contains(name) {
                broken.push(format!(
                    "`{pin}`: no `fn {name}` in crates/, src/, tests/ or examples/"
                ));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "DESIGN.md cites pins that do not resolve:\n{}",
        broken.join("\n")
    );
}

#[test]
fn every_sim_oracle_is_named() {
    let design = read("DESIGN.md");
    let oracle = read("crates/sim/src/oracle.rs");
    let start = oracle
        .find("pub fn check_all")
        .expect("crates/sim/src/oracle.rs defines check_all");
    let body = &oracle[start..];
    let body = &body[..body.find("\n}").expect("check_all has a body")];
    let called: Vec<&str> = body
        .lines()
        .skip(1)
        .filter_map(|line| line.trim().split_once('('))
        .map(|(name, _)| name)
        .filter(|name| !name.is_empty() && name.chars().all(is_ident))
        .collect();
    assert!(called.len() > 5, "check_all's oracles: {called:?}");
    let missing: Vec<&&str> = called.iter().filter(|name| !names(&design, name)).collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md does not name these oracles: {missing:?}"
    );
}

#[test]
fn every_ci_test_and_bench_is_named() {
    let design = read("DESIGN.md");
    let ci = read("ci.sh");
    let mut missing = Vec::new();
    for flag in ["--test ", "--bench "] {
        for (at, _) in ci.match_indices(flag) {
            let name: String = ci[at + flag.len()..]
                .chars()
                .take_while(|&c| is_ident(c))
                .collect();
            let named = match flag {
                "--bench " => names(&design, &format!("{flag}{name}")),
                _ => names(&design, &name),
            };
            if !named {
                missing.push(format!("{flag}{name}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "ci.sh runs what DESIGN.md does not name: {missing:?}"
    );
}

#[test]
fn every_design_reference_resolves() {
    let design = read("DESIGN.md");
    let sections = sections(&design);
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        files_under(&root().join(dir), &[".rs"], &mut files);
    }
    files_under(&root().join(".claude/skills"), &[".md"], &mut files);
    for file in [
        "ci.sh",
        "README.md",
        "EXPERIMENTS.md",
        "ROADMAP.md",
        "Cargo.toml",
    ] {
        files.push(root().join(file));
    }
    let this_file = root().join("tests/design_doc.rs");
    let mut refs = Vec::new();
    for path in files.iter().filter(|p| **p != this_file) {
        let text = fs::read_to_string(path).unwrap_or_default();
        let rel = path
            .strip_prefix(root())
            .unwrap_or(path)
            .display()
            .to_string();
        refs.extend(references(&rel, &text));
    }
    assert!(refs.len() > 30, "found only {} references", refs.len());
    let mut broken = Vec::new();
    for r in &refs {
        let shown = format!(
            "{}: DESIGN.md §{} {:?}",
            r.file,
            r.section.map_or("?".to_string(), |n| n.to_string()),
            r.title.as_deref().unwrap_or("")
        );
        let scope: Vec<&Section> = match r.section {
            Some(n) => match sections.iter().find(|s| s.number == n) {
                Some(section) => vec![section],
                None => {
                    broken.push(format!("{shown}: there is no section {n}"));
                    continue;
                }
            },
            None => sections.iter().collect(),
        };
        if let Some(title) = &r.title {
            let found = scope
                .iter()
                .any(|s| s.title == *title || s.headings.contains(title));
            if !found {
                broken.push(format!("{shown}: no such heading there"));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "references to DESIGN.md that do not resolve:\n{}",
        broken.join("\n")
    );
}

#[test]
fn the_stages_are_sections_in_path_order() {
    let design = read("DESIGN.md");
    let titles: Vec<String> = sections(&design).into_iter().map(|s| s.title).collect();
    let first = titles
        .iter()
        .position(|t| t == STAGES[0])
        .unwrap_or_else(|| panic!("no section titled {:?}: {titles:?}", STAGES[0]));
    let found: Vec<&str> = titles[first..]
        .iter()
        .take(STAGES.len())
        .map(String::as_str)
        .collect();
    assert_eq!(
        found, STAGES,
        "DESIGN.md's stage sections are not the path, in order"
    );
}

#[test]
fn design_names_no_pull_request() {
    let design = read("DESIGN.md");
    for (line_no, line) in design.lines().enumerate() {
        for (at, _) in line.match_indices("PR") {
            let before = line[..at].chars().next_back();
            let after = line[at + 2..].trim_start_matches(['s', ' ']);
            assert!(
                before.is_some_and(is_ident) || !after.starts_with(|c: char| c.is_ascii_digit()),
                "DESIGN.md:{}: names a pull request; history belongs in git log: {line}",
                line_no + 1
            );
        }
    }
}
