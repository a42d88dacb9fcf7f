//! `qcc-perf`: the repo's benchmark. See README.md next to this crate's
//! manifest for the workloads, the metrics and how to read them, and
//! BENCHMARK.json at the repo root for the contract the driver checks.
//!
//! ```text
//! qcc-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!          [--smoke] [--check-repeat]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! Any failed output check exits non-zero and prints no result line.

mod check;
mod run;
mod shapes;
mod stats;
mod ticks;
mod trace;
mod worlds;

use qcc_common::WallStopwatch;
use run::{run_measured, Keep, Measured};
use stats::{percentile, result_line, status_kib, Metric};
use std::process::ExitCode;
use worlds::{build_world, generate_inputs, Inputs, Workload, World, ALL_WORKLOADS};

/// World builds per run; `setup_s` is the fastest (the host's neighbours
/// only ever add time, see `stats::steady_total`). Five at least; the
/// cheap worlds (tens of milliseconds) keep building until the builds
/// add up to [`SETUP_BUDGET_S`].
const SETUP_ROUNDS: std::ops::RangeInclusive<usize> = 5..=40;
const SETUP_BUDGET_S: f64 = 1.5;

#[derive(Debug, Clone, Copy)]
struct Options {
    seed: u64,
    seconds: u64,
    smoke: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: qcc-perf --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--smoke] [--check-repeat]",
        ALL_WORKLOADS.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: 15,
        smoke: false,
    };
    let mut trace = false;
    let mut check_repeat = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_default();
        match arg.as_str() {
            "--workload" => workload = Workload::parse(&value()),
            "--seed" => match value().parse() {
                Ok(v) => opts.seed = v,
                Err(_) => return usage(),
            },
            "--seconds" => match value().parse() {
                Ok(v) if (1..=60).contains(&v) => opts.seconds = v,
                _ => return usage(),
            },
            "--trace" => match value().as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(),
            },
            "--smoke" => opts.smoke = true,
            "--check-repeat" => check_repeat = true,
            _ => return usage(),
        }
    }
    let Some(workload) = workload else {
        return usage();
    };

    let outcome = if check_repeat {
        check::check_repeat(workload, opts)
    } else if trace {
        trace::traced_run(workload, opts)
    } else {
        end_to_end_run(workload, opts)
    };
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("qcc-perf: {}: {why}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Generate the inputs, build the world (repeatedly when `repeat_setup`,
/// keeping the last) and check every warm-up output. Returns the set-up
/// times too.
fn prepare(
    workload: Workload,
    opts: Options,
    repeat_setup: bool,
) -> Result<(World, Inputs, Vec<f64>), String> {
    let inputs = generate_inputs(workload, opts.seed, workload.ops(opts.seconds, opts.smoke));
    let mut setup_s = Vec::new();
    let mut world;
    loop {
        let sw = WallStopwatch::start();
        world = build_world(workload, inputs.horizon_ms());
        setup_s.push(sw.elapsed_secs());
        let enough = setup_s.len() >= *SETUP_ROUNDS.start()
            && (setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S
                || setup_s.len() >= *SETUP_ROUNDS.end());
        if !repeat_setup || enough {
            break;
        }
        drop(world); // one world resident at a time
    }
    check::check_warm_outputs(&world)?;
    if workload == Workload::OverloadFaults {
        check::check_rescue()?;
    }
    Ok((world, inputs, setup_s))
}

/// The untraced run: every end-to-end metric.
fn end_to_end_run(workload: Workload, opts: Options) -> Result<String, String> {
    let (world, inputs, setup_s) = prepare(workload, opts, !opts.smoke)?;
    let keep = Keep {
        rows: workload.cold_compile(),
        ..Keep::default()
    };
    let m = run_measured(workload, &world, &inputs, keep);
    check::check_measured(workload, &world, &inputs, &m)?;
    let fastest = setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    let mut metrics = vec![Metric::new("setup_s", fastest, "s")];
    metrics.extend(end_to_end_metrics(workload, &m));
    drop(world);
    metrics.push(Metric::new(
        "peak_rss_mib",
        status_kib("VmHWM") as f64 / 1024.0,
        "MiB",
    ));
    Ok(result_line(true, m.attempted, m.failed, &metrics))
}

/// The end-to-end metrics a measured section yields by itself (`setup_s`
/// and `peak_rss_mib` belong to the whole process).
fn end_to_end_metrics(workload: Workload, m: &Measured) -> Vec<Metric> {
    let attempted = m.attempted as f64;
    let (wall_s, cpu_s) = m.steady_s();
    let mut virt = m.virt_ms.clone();
    let in_time = virt
        .iter()
        .filter(|&&ms| ms <= workload.deadline_ms())
        .count();
    vec![
        Metric::new("qps", attempted / wall_s, "1/s"),
        Metric::new("cpu_us_per_query", cpu_s * 1e6 / attempted, "us"),
        Metric::new(
            "virt_ms_mean",
            virt.iter().sum::<f64>() / virt.len().max(1) as f64,
            "virt_ms",
        ),
        Metric::new("virt_ms_p99", percentile(&mut virt, 99.0), "virt_ms"),
        Metric::new("virt_goodput_share", in_time as f64 / attempted, "share"),
        Metric::new("answered_share", virt.len() as f64 / attempted, "share"),
    ]
}
