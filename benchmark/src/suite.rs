//! Everything at once, for a person rather than the driver: all six
//! workloads in rounds (order rotated so no workload always follows
//! the same neighbour), each run a fresh `satbench --workload …`
//! child, then one traced run; and `aa`, the suite twice on one build.

use crate::json;
use crate::proc::{run_child, Env};
use crate::spec::{self, Better, Scale, Workload};
use crate::stats;
use satwatch_analytics::expr::Json;
use satwatch_scenario::digest::fnv1a;
use satwatch_scenario::experiments::paper_reports_columnar;
use satwatch_scenario::{dataset_digest, run};
use std::path::PathBuf;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub rounds: usize,
    pub scale: Scale,
}

/// `results/`, beside the harness's sources (ignored by git).
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Metric values of one set of runs: `[workload][metric] -> per-round values`.
type Set = Vec<Vec<Vec<f64>>>;

/// Run one contract invocation as a child and return its result object.
fn contract_run(env: &Env, opts: &Options, w: Workload, trace: bool, tag: &str) -> Result<Json, String> {
    let dir = env.fresh_dir("suite").map_err(|e| e.to_string())?;
    let (out, err) = (dir.join(format!("{tag}.stdout")), dir.join(format!("{tag}.stderr")));
    let scale = if opts.scale == Scale::Smoke { "smoke" } else { "full" };
    let args: Vec<String> = [
        "--workload",
        w.name(),
        "--seed",
        &opts.seed.to_string(),
        "--seconds",
        &opts.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
        "--scale",
        scale,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let usage = run_child(&env.satbench, &args, &dir, &out, &err).map_err(|e| e.to_string())?;
    let log = std::fs::read_to_string(&err).map_err(|e| e.to_string())?;
    if !usage.ok() {
        return Err(format!("{} (trace {trace}) exited with {:?}:\n{log}", w.name(), usage.exit_code));
    }
    let text = std::fs::read_to_string(&out).map_err(|e| e.to_string())?;
    let line = text.lines().last().ok_or("no result line")?;
    let result = Json::parse(line).map_err(|e| format!("result line {line:?}: {e}"))?;
    let failed = json::field_f64(&result, "failed")?;
    if result.get("correct") != Some(&Json::Bool(true)) || failed != 0.0 {
        return Err(format!("{} (trace {trace}): {failed} runs failed their output check:\n{log}", w.name()));
    }
    Ok(result)
}

fn metric_value(result: &Json, name: &str) -> Result<f64, String> {
    let m = result.get("metrics").and_then(|m| m.get(name)).ok_or_else(|| format!("result has no metric {name}"))?;
    json::field_f64(m, "value")
}

/// The order round `round` runs the workloads in: the start rotates
/// and the direction alternates, so no workload always follows the
/// same neighbour.
fn round_order(round: usize) -> [usize; 6] {
    std::array::from_fn(|slot| if round.is_multiple_of(2) { (slot + round) % 6 } else { (6 + round % 6 - slot) % 6 })
}

/// `rounds` rounds over all workloads, untraced.
fn end_to_end_set(env: &Env, opts: &Options, label: &str) -> Result<Set, String> {
    let mut set: Set = vec![vec![Vec::new(); spec::END_TO_END.len()]; Workload::ALL.len()];
    for round in 0..opts.rounds {
        for i in round_order(round) {
            let w = Workload::ALL[i];
            eprintln!("[{label} round {}/{}] {}", round + 1, opts.rounds, w.name());
            let result = contract_run(env, opts, w, false, "e2e")?;
            for (k, m) in spec::END_TO_END.iter().enumerate() {
                set[i][k].push(metric_value(&result, m.name)?);
            }
        }
    }
    Ok(set)
}

fn print_set(set: &Set) {
    for (i, w) in Workload::ALL.iter().enumerate() {
        println!("{}", w.name());
        for (k, m) in spec::END_TO_END.iter().enumerate() {
            let v = &set[i][k];
            let spread = if v.len() >= 2 {
                let [q1, _, q3] = stats::quartiles(v);
                format!("  (q1 {q1:.6}, q3 {q3:.6}, spread {:.3})", stats::iqr_share(v))
            } else {
                String::new()
            };
            println!("  {:<22} {:>18.6} {:<7} median of {}{spread}", m.name, stats::median(v), m.unit, v.len());
        }
    }
}

fn set_json(set: &Set) -> String {
    let workloads: Vec<(&str, String)> = Workload::ALL
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let metrics: Vec<(&str, String)> = spec::END_TO_END
                .iter()
                .enumerate()
                .map(|(k, m)| {
                    let values: Vec<String> = set[i][k].iter().map(|v| json::number(*v)).collect();
                    let fields = [
                        ("median", json::number(stats::median(&set[i][k]))),
                        ("unit", json::string(m.unit)),
                        ("values", format!("[{}]", values.join(", "))),
                    ];
                    (m.name, json::object(&fields))
                })
                .collect();
            (w.name(), json::object(&metrics))
        })
        .collect();
    json::object(&workloads)
}

fn write_result(name: &str, text: &str) -> Result<(), String> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// All workloads end to end, then one traced run.
pub fn suite(env: &Env, opts: &Options) -> Result<(), String> {
    let set = end_to_end_set(env, opts, "suite")?;
    println!("== end to end (seed {}, {} rounds of {} s) ==", opts.seed, opts.rounds, opts.seconds);
    print_set(&set);
    // the layer rows do not depend on the named workload; its own
    // untraced runs (e2e.wall_ms, proc.*) do, so trace each once. The
    // smoke suite, whose numbers mean nothing, traces one: the e2e
    // rounds above already ran every workload's code and checks
    let traced = if opts.scale == Scale::Smoke { &Workload::ALL[..1] } else { &Workload::ALL[..] };
    let mut layer_fields = Vec::new();
    for &w in traced {
        eprintln!("[suite traced] {}", w.name());
        let result = contract_run(env, opts, w, true, "trace")?;
        println!("== per layer, traced with --workload {} ==", w.name());
        let mut fields = Vec::new();
        for m in &spec::PER_LAYER {
            let own = ["e2e.wall_ms", "proc.user_s", "proc.sys_s"].contains(&m.name);
            let value = metric_value(&result, m.name)?;
            if own || w == Workload::ALL[0] {
                println!("  {:<30} {:>18.6} {}", m.name, value, m.unit);
            }
            fields.push((m.name, json::number(value)));
        }
        layer_fields.push((w.name(), json::object(&fields)));
    }
    let text = json::object(&[
        ("seed", opts.seed.to_string()),
        ("rounds", opts.rounds.to_string()),
        ("seconds", json::number(opts.seconds)),
        ("end_to_end", set_json(&set)),
        ("per_layer", json::object(&layer_fields)),
    ]);
    write_result("suite.json", &format!("{text}\n"))
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The suite's end-to-end part twice on the same build: the measured
/// noise floor of every metric, held against its bound.
pub fn aa(env: &Env, opts: &Options) -> Result<(), String> {
    let a = end_to_end_set(env, opts, "A")?;
    let b = end_to_end_set(env, opts, "B")?;
    println!("== A/A: two sets of {} rounds, same build, seed {} ==", opts.rounds, opts.seed);
    println!(
        "{:<16} {:<20} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "median A", "median B", "B worse", "bound"
    );
    let mut past = Vec::new();
    let mut rows = Vec::new();
    for (i, w) in Workload::ALL.iter().enumerate() {
        let mut fields = Vec::new();
        for (k, m) in spec::END_TO_END.iter().enumerate() {
            let (ma, mb) = (stats::median(&a[i][k]), stats::median(&b[i][k]));
            let worse = worsening(m.better, ma, mb);
            println!(
                "{:<16} {:<20} {ma:>16.4} {mb:>16.4} {:>8.2}% {:>6.0}%",
                w.name(),
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
            // either set could have been the parent
            if worse.abs() > m.bound {
                past.push(format!("{} {}", w.name(), m.name));
            }
            let entry = [
                ("median_a", json::number(ma)),
                ("median_b", json::number(mb)),
                ("noise_floor", json::number(worse.abs())),
                ("bound", json::number(m.bound)),
            ];
            fields.push((m.name, json::object(&entry)));
        }
        rows.push((w.name(), json::object(&fields)));
    }
    let text = json::object(&[
        ("seed", opts.seed.to_string()),
        ("rounds", opts.rounds.to_string()),
        ("seconds", json::number(opts.seconds)),
        ("aa", json::object(&rows)),
    ]);
    write_result("aa.json", &format!("{text}\n"))?;
    if past.is_empty() {
        Ok(())
    } else {
        Err(format!("A/A difference past the bound on: {}", past.join(", ")))
    }
}

/// The goldens every earlier bench entry carries: 40 customers, one
/// day, seed 42 (`BENCH_parallel.json`).
pub fn check() -> Result<(), String> {
    const DATASET: u64 = 0x9251_b3d6_171c_007a;
    const REPORT: u64 = 0xf302_9d48_a840_19bd;
    let ds = run(crate::child::scenario(40, 1, 42));
    let frame = satwatch_analytics::FlowFrame::from_records(&ds.flows, &ds.enrichment);
    let reports = paper_reports_columnar(&frame, &ds.dns, &ds.enrichment, crate::child::MIN_FLOWS, 1);
    let (dataset, report) = (dataset_digest(&ds), fnv1a(reports.render_all().as_bytes()));
    println!("dataset digest {dataset:#018x} (golden {DATASET:#018x})");
    println!("report digest  {report:#018x} (golden {REPORT:#018x})");
    if dataset == DATASET && report == REPORT {
        Ok(())
    } else {
        Err("the 40-customer seed-42 goldens moved: this build does not produce the dataset every earlier number was measured on".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert_eq!(worsening(Better::Lower, 2.0, 2.5), 0.25);
        assert_eq!(worsening(Better::Higher, 2.0, 1.5), 0.25);
        assert!(worsening(Better::Higher, 2.0, 2.5) < 0.0);
    }

    #[test]
    fn every_round_runs_every_workload_in_a_new_order() {
        for round in 0..14 {
            let mut seen = round_order(round);
            seen.sort_unstable();
            assert_eq!(seen, [0, 1, 2, 3, 4, 5]);
        }
        assert_ne!(round_order(0), round_order(1));
        assert_ne!(round_order(0), round_order(2));
    }
}
