//! `cargo xtask` — workspace automation. Dependency-free by design: it
//! must run on a machine with no registry access.
//!
//! Subcommands:
//!
//! * `lint [--json] [--rule Ln] [--budget-ms N] [PATH...]` — run the
//!   qcc-lint rules (L1–L10, see `lint/` and DESIGN.md §15) over
//!   every tracked `.rs` file, or over the given files/directories only.
//!   Exits nonzero if any unwaived violation is found. `--json` emits a
//!   machine-readable summary on stdout instead of the human format;
//!   `--rule L8` restricts reporting to one rule; `--budget-ms 5000`
//!   fails the run if linting took longer than the budget (CI asserts
//!   the analysis stays interactive).
//! * `sim [ARGS...]` — build and run the `qcc-sim` deterministic
//!   fault-injection explorer (release profile), forwarding all
//!   arguments. `cargo xtask sim --help` prints the explorer's own
//!   usage; the common calls are `--seeds N`, `--seed S`,
//!   `--replay 'sim(...)'`, and `--replay-corpus` (see DESIGN.md §14).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xtask::lint::{self, report, LintOptions, Rule};

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// Collect workspace-relative (forward-slash) paths of every `.rs` file
/// under `dir`, skipping hidden directories and the lint skip list.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(err) => {
            eprintln!("warning: cannot read {}: {err}", dir.display());
            return;
        }
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with('.') {
            continue;
        }
        let rel = match path.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        if path.is_dir() {
            if !lint::SKIP_PREFIXES
                .iter()
                .any(|p| rel.starts_with(p.trim_end_matches('/')))
            {
                collect_rs_files(root, &path, out);
            }
        } else if lint::is_scanned(&rel) {
            out.push(rel);
        }
    }
}

fn run_lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut rule_filter: Option<Rule> = None;
    let mut budget_ms: Option<u64> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--rule" => {
                let Some(name) = it.next() else {
                    eprintln!("--rule needs an argument (L1..L10)");
                    return ExitCode::FAILURE;
                };
                match Rule::parse(name) {
                    Some(r) => rule_filter = Some(r),
                    None => {
                        eprintln!("unknown rule `{name}` — expected L1..L10");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--budget-ms" => {
                let parsed = it.next().and_then(|n| n.parse::<u64>().ok());
                let Some(ms) = parsed else {
                    eprintln!("--budget-ms needs a millisecond count");
                    return ExitCode::FAILURE;
                };
                budget_ms = Some(ms);
            }
            "--help" | "-h" => {
                println!("usage: cargo xtask lint [--json] [--rule Ln] [--budget-ms N] [PATH...]");
                return ExitCode::SUCCESS;
            }
            other => targets.push(other.to_string()),
        }
    }

    let root = workspace_root();
    let full_scan = targets.is_empty();
    let mut files = Vec::new();
    if full_scan {
        collect_rs_files(&root, &root, &mut files);
    } else {
        for t in &targets {
            let p = root.join(t);
            if p.is_dir() {
                collect_rs_files(&root, &p, &mut files);
            } else {
                let rel = t.replace('\\', "/");
                if lint::is_scanned(&rel) {
                    files.push(rel);
                } else {
                    eprintln!("warning: {t} is not a lintable path, skipping");
                }
            }
        }
    }

    let started = std::time::Instant::now(); // xtask is host tooling, not simulation code
    let mut sources: Vec<(String, String)> = Vec::new();
    for rel in &files {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(src) => sources.push((rel.clone(), src)),
            Err(err) => eprintln!("warning: cannot read {rel}: {err}"),
        }
    }
    let opts = LintOptions {
        rule_filter,
        full_scan,
    };
    let violations = lint::lint_files(&sources, &opts);
    let elapsed_ms = started.elapsed().as_millis() as u64;

    if json {
        println!("{}", report::render_json(&violations, sources.len()));
    } else {
        print!("{}", report::render_text(&violations, sources.len()));
    }

    if let Some(budget) = budget_ms {
        if elapsed_ms > budget {
            eprintln!("qcc-lint: took {elapsed_ms} ms, over the --budget-ms {budget} budget");
            return ExitCode::FAILURE;
        }
        eprintln!("qcc-lint: {elapsed_ms} ms (budget {budget} ms)");
    }

    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Forward to the `qcc-sim` binary (release build, offline). Kept as a
/// subprocess so xtask itself stays dependency-free and the explorer can
/// be invoked identically by hand: `cargo run -p qcc-sim --release -- …`.
fn run_sim(args: &[String]) -> ExitCode {
    let status = std::process::Command::new(env!("CARGO"))
        .current_dir(workspace_root())
        .args(["run", "-q", "-p", "qcc-sim", "--release", "--offline", "--"])
        .args(args)
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(s) => ExitCode::from(s.code().unwrap_or(1).clamp(0, 255) as u8),
        Err(err) => {
            eprintln!("failed to launch qcc-sim: {err}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("sim") => run_sim(&args[1..]),
        Some("--help") | Some("-h") | None => {
            println!(
                "usage: cargo xtask <command>\n\ncommands:\n  lint [--json] [--rule Ln] [--budget-ms N] [PATH...]\n                            enforce workspace invariants L1-L10\n  sim [ARGS...]             run the deterministic fault-injection explorer\n                            (--seed S | --seeds N | --replay 'sim(...)' |\n                             --replay-corpus [DIR]; `sim --help` for all flags)"
            );
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!(
                "unknown xtask command `{other}` — try `cargo xtask lint` or `cargo xtask sim`"
            );
            ExitCode::FAILURE
        }
    }
}
