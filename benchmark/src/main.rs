//! `satbench`: satwatch's benchmark harness (see `README.md`).
//!
//! ```text
//! satbench --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line (BENCHMARK.json's command)
//! satbench suite [--seed N] [--seconds S] [--rounds R]      all workloads in rotated rounds, then the traced runs
//! satbench aa    [--seed N] [--seconds S] [--rounds R]      the suite twice on one build: the noise floor per metric
//! satbench check                                            pin the 40-customer seed-42 goldens
//! satbench manifest                                         print BENCHMARK.json
//! satbench metrics                                          print README.md's metric tables
//! ```
//! `--scale smoke` (any mode) swaps in the tiny sizes of `smoke.sh`.

mod args;
mod child;
mod e2e;
mod json;
mod proc;
mod replica;
mod spec;
mod staged;
mod stats;
mod suite;
mod tracer;

use args::Args;
use proc::Env;
use spec::{Scale, Workload};
use std::process::ExitCode;

fn scale_of(args: &Args) -> Result<Scale, String> {
    match args.get("scale").unwrap_or("full") {
        "full" => Ok(Scale::Full),
        "smoke" => Ok(Scale::Smoke),
        other => Err(format!("--scale: {other:?} is neither full nor smoke")),
    }
}

/// One run as the driver asks for it. Prints the result line last on
/// stdout; everything else goes to stderr.
fn contract(args: &Args) -> Result<(), String> {
    args.only(&["workload", "seed", "seconds", "trace", "scale"])?;
    let name = args.str("workload")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = args.required("seed")?;
    let seconds: f64 = args.required("seconds")?;
    let traced = match args.str("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
    };
    let env = Env::locate()?;
    let dir = env.fresh_dir(&format!("{name}-s{seed}-p{}", std::process::id())).map_err(|e| e.to_string())?;
    let job = e2e::Job { env: &env, workload, scale: scale_of(args)?, seed, dir };
    let line = if traced { traced_run(&job) } else { untraced_run(&job, seconds) };
    // scratch goes whether or not the run worked
    let removed = std::fs::remove_dir_all(&job.dir).map_err(|e| e.to_string());
    let line = line?;
    removed?;
    println!("{line}");
    Ok(())
}

fn untraced_run(job: &e2e::Job<'_>, seconds: f64) -> Result<String, String> {
    let outcome = job.measure(e2e::SETUPS, e2e::MIN_RUNS, seconds)?;
    eprint!("{}", outcome.describe(job.workload));
    e2e::result_line(&outcome).ok_or_else(|| "no run passed its output check; nothing to report".to_string())
}

fn traced_run(job: &e2e::Job<'_>) -> Result<String, String> {
    let mut staged = staged::Staged { job, tr: tracer::Tracer::new(), layers: staged::Layers::default() };
    let checked = staged.run();
    // the trace is most wanted when a stage failed
    let results = suite::results_dir();
    std::fs::create_dir_all(&results).map_err(|e| e.to_string())?;
    let path = results.join(format!("trace-{}.json", job.workload.name()));
    std::fs::write(&path, staged.tr.to_chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {} ({} spans)", path.display(), staged.tr.spans().len());
    checked?;
    let mut metrics = Vec::new();
    for (metric, value) in staged.layers.in_spec_order()? {
        eprintln!("  {:<30} {value:>18.6} {}", metric.name, metric.unit);
        metrics.push((metric.name, metric.unit, value));
    }
    // one operation per stage, each checked; a failed check is an error above
    let stages = staged.tr.spans().iter().filter(|s| s.name.starts_with("stage.")).count();
    Ok(json::result_line(true, stages, 0, &metrics))
}

fn suite_options(args: &Args) -> Result<suite::Options, String> {
    args.only(&["seed", "seconds", "rounds", "scale"])?;
    let scale = scale_of(args)?;
    let (seconds, rounds) = match scale {
        Scale::Full => (spec::RUN_SECONDS as f64, 3),
        // three runs per window (`e2e::MIN_RUNS`), no timing meant
        Scale::Smoke => (0.0, 1),
    };
    Ok(suite::Options {
        seed: args.parsed_or("seed", 42)?,
        seconds: args.parsed_or("seconds", seconds)?,
        rounds: args.parsed_or("rounds", rounds)?,
        scale,
    })
}

fn dispatch(argv: &[String]) -> Result<(), String> {
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &argv[1..]),
        // bare flags: the driver's form when --workload is among them, else the suite
        _ if argv.iter().any(|a| a == "--workload") => ("run", argv),
        _ => ("suite", argv),
    };
    match command {
        "run" => contract(&Args::parse(rest)?),
        "suite" => suite::suite(&Env::locate()?, &suite_options(&Args::parse(rest)?)?),
        "aa" => suite::aa(&Env::locate()?, &suite_options(&Args::parse(rest)?)?),
        "check" => suite::check(),
        "manifest" => {
            print!("{}", spec::manifest_json());
            Ok(())
        }
        "metrics" => {
            print!("{}", spec::metric_tables_markdown());
            Ok(())
        }
        "child" => {
            let task = rest.first().ok_or("child needs a task")?;
            child::dispatch(task, &Args::parse(&rest[1..])?)
        }
        other => Err(format!("unknown command {other:?} (try suite, aa, check, manifest, metrics, or --workload …)")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("satbench: {e}");
            ExitCode::FAILURE
        }
    }
}
