//! Interactive demo shell over the paper's three-server scenario.
//!
//! ```text
//! cargo run --release --bin qcc-demo
//! qcc> help
//! qcc> sql SELECT s.cat, COUNT(*) AS n FROM big_a a JOIN small_s s ON a.grp = s.id GROUP BY s.cat
//! qcc> load S3 0.85
//! qcc> sql ...            -- watch routing move away from S3
//! qcc> factors
//! qcc> explain SELECT COUNT(*) FROM big_a WHERE sel > 9900
//! ```
//!
//! Commands also work non-interactively: `echo "phase 4" | qcc-demo`.

use load_aware_federation::common::{FieldValue, ServerId};
use load_aware_federation::federation::render_explain;
use load_aware_federation::netsim::LoadProfile;
use load_aware_federation::workload::{
    apply_phase, PhaseSchedule, Routing, Scenario, ScenarioConfig,
};
use std::io::{BufRead, Write};

const HELP: &str = "\
commands:
  sql <SELECT ...>     submit a federated query and show routing + timing
  explain <SELECT ...> compile only: decomposition and costed candidates
  load <S1|S2|S3> <0..1>  set a server's background utilization
  phase <1..8>         apply a Table-1 load phase to all servers
  clear                clear all load
  factors              show current calibration factors per server
  summary              per-server fragments, failures and factors so far
  log [n]              show the last n query lifecycle events of the journal (default 5)
  help                 this text
  quit                 exit";

fn main() {
    println!("Building the paper scenario (3 servers, 5 tables)...");
    let config = ScenarioConfig {
        large_rows: 20_000,
        small_rows: 1_000,
        ..ScenarioConfig::default()
    };
    let scenario = Scenario::build_with(Routing::Qcc, config);
    let schedule = PhaseSchedule::paper_table1();
    println!("Ready. Type 'help' for commands.\n");

    let stdin = std::io::stdin();
    let interactive = atty_stdin();
    loop {
        if interactive {
            print!("qcc> ");
            let _ = std::io::stdout().flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (cmd, rest) = match line.split_once(' ') {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd.to_ascii_lowercase().as_str() {
            "quit" | "exit" => break,
            "help" => println!("{HELP}"),
            "sql" => match scenario.federation.submit(rest) {
                Ok(out) => {
                    let servers: Vec<String> = out.servers.iter().map(|s| s.to_string()).collect();
                    println!(
                        "→ {} row(s) from {{{}}} in {:.2} virtual ms (estimated {:.2})",
                        out.rows.len(),
                        servers.join(", "),
                        out.response_ms,
                        out.estimated_cost
                    );
                    for row in out.rows.iter().take(10) {
                        println!("   {row}");
                    }
                    if out.rows.len() > 10 {
                        println!("   ... {} more", out.rows.len() - 10);
                    }
                }
                Err(e) => println!("error: {e}"),
            },
            "explain" => match scenario.federation.explain_global(rest) {
                Ok((decomposed, candidates)) => {
                    println!("{}", render_explain(&decomposed, &candidates));
                }
                Err(e) => println!("error: {e}"),
            },
            "load" => {
                let mut parts = rest.split_whitespace();
                match (
                    parts.next(),
                    parts.next().and_then(|v| v.parse::<f64>().ok()),
                ) {
                    (Some(name), Some(level)) if level >= 0.0 && level <= 1.0 => {
                        let id = name.to_ascii_uppercase();
                        if scenario.servers.iter().any(|s| s.id().as_str() == id) {
                            let server = scenario.server(&id);
                            server.load().set_background(LoadProfile::Constant(level));
                            if level > 0.0 {
                                server.set_contention(
                                    load_aware_federation::workload::scenario::contention_for(
                                        &ServerId::new(&id),
                                    ),
                                );
                            } else {
                                server.set_contention(Default::default());
                            }
                            println!("{id} background utilization set to {level}");
                        } else {
                            println!("unknown server '{name}' (S1, S2 or S3)");
                        }
                    }
                    _ => println!("usage: load <S1|S2|S3> <0..1>"),
                }
            }
            "phase" => match rest.parse::<usize>() {
                Ok(n) if (1..=8).contains(&n) => {
                    let phase = &schedule.phases[n - 1];
                    apply_phase(&scenario, phase);
                    println!("{}", phase.describe());
                }
                _ => println!("usage: phase <1..8>"),
            },
            "clear" => {
                load_aware_federation::workload::clear_phase(&scenario);
                println!("all servers unloaded");
            }
            "factors" => {
                let qcc = scenario.qcc.as_ref().expect("QCC scenario");
                for s in &scenario.servers {
                    println!(
                        "  {}: calibration {:.3}, reliability {:.3}{}",
                        s.id(),
                        qcc.calibration.server_factor(s.id()),
                        qcc.reliability.factor(s.id()),
                        if qcc.reliability.is_down(s.id()) {
                            " (believed DOWN)"
                        } else {
                            ""
                        }
                    );
                }
            }
            "summary" => {
                let qcc = scenario.qcc.as_ref().expect("QCC scenario");
                let obs = &scenario.obs;
                let mut observed = 0;
                for s in &scenario.servers {
                    let server = [("server", s.id().as_str())];
                    let fragments = obs.counter_value("fragments_total", &server);
                    observed += fragments;
                    println!(
                        "  {}: {fragments} fragments, {} failures, calibration {:.3} over {} samples, reliability {:.3}",
                        s.id(),
                        obs.counter_value("fragment_failures_total", &server),
                        qcc.calibration.server_factor(s.id()),
                        obs.counter_value("calibration_samples_total", &server),
                        qcc.reliability.factor(s.id()),
                    );
                }
                if observed == 0 {
                    println!("  (no runtime observations yet — submit some queries)");
                }
            }
            "log" => {
                let n = rest.parse::<usize>().unwrap_or(5);
                let lifecycle: Vec<_> = scenario
                    .obs
                    .journal()
                    .into_iter()
                    .filter(|e| {
                        matches!(e.kind, "query_submit" | "query_complete" | "query_failed")
                    })
                    .collect();
                for e in &lifecycle[lifecycle.len().saturating_sub(n)..] {
                    let Some(FieldValue::U64(query)) = e.field("query") else {
                        continue;
                    };
                    let detail = match (e.kind, e.field("ms")) {
                        ("query_submit", _) => e.str_field("sql").unwrap_or_default().to_owned(),
                        (_, Some(FieldValue::F64(ms))) => format!("{ms:.2} ms"),
                        _ => e.str_field("error").unwrap_or_default().to_owned(),
                    };
                    println!("  [{}] Q{query} {} — {detail}", e.at, e.kind);
                }
            }
            other => println!("unknown command '{other}' — try 'help'"),
        }
    }
}

/// Crude interactivity check without a libc dependency: honour a common
/// convention instead of detecting the terminal (piped use passes
/// QCC_DEMO_BATCH=1 or just tolerates prompts in output).
fn atty_stdin() -> bool {
    std::env::var("QCC_DEMO_BATCH").is_err()
}
