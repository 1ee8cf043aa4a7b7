//! The untraced run of one workload: set up (fixtures, in-process
//! reference, one warm-up run), then fresh single-threaded children one
//! at a time (a closed loop) until that set-up's share of the measuring
//! window is over, every one checked against the reference; then the
//! next set-up, on the next population drawn from the seed.

use crate::json;
use crate::proc::{dir_bytes, fnv_file, run_child, ChildUsage, Env};
use crate::spec::{self, Scale, Workload};
use crate::stats;
use satwatch_analytics::expr::Json;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per contract run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Measured runs per window, however short the window.
pub const MIN_RUNS: usize = 3;

/// Things a run's output says that a reference must agree with.
type Facts = Vec<(&'static str, String)>;

pub struct Job<'a> {
    pub env: &'a Env,
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    /// Scratch for this job's fixtures and per-run output.
    pub dir: PathBuf,
}

/// What set-up leaves behind for the measured runs.
struct Prepared {
    flows: f64,
    packets: f64,
    expected: Facts,
}

/// What one run of the workload did, before any check.
struct Ran {
    usage: ChildUsage,
    wall_s: f64,
    disk_bytes: Option<u64>,
    facts: Facts,
}

/// One measured run.
pub struct Run {
    /// The scenario seed of the population it ran on.
    pub seed: u64,
    /// Flow records the run produces or scans.
    pub flows: f64,
    /// Packets the run observes (or its flow records account for).
    pub packets: f64,
    pub usage: ChildUsage,
    /// Spawn to exit for CLI workloads; the child's own timed region
    /// for the library workloads.
    pub wall_s: f64,
    /// Bytes the run left in its output directory, where it has one.
    pub disk_bytes: Option<u64>,
    pub error: Option<String>,
}

pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// The first warm-up run that did not match its reference.
    pub warmup_error: Option<String>,
    pub runs: Vec<Run>,
}

/// Names inside `Job::dir`, as children see them: they run there and
/// get relative paths (`proc::run_child` says why).
const FIXTURES: &str = "fixtures";
const TMP: &str = "tmp";
const CAPTURE: &str = "fixtures/capture.pcap";

fn strings(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// The integer right before `suffix` in `text`, as the CLI's progress
/// lines print their counts (`"… 47381 flows, …"`).
fn count_before(text: &str, suffix: &str) -> Result<u64, String> {
    let end = text.find(suffix).ok_or_else(|| format!("no {suffix:?} in the program's stderr"))?;
    let digits = text[..end].bytes().rev().take_while(u8::is_ascii_digit).count();
    text[end - digits..end].parse().map_err(|_| format!("no count before {suffix:?}"))
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

fn fact<'a>(facts: &'a Facts, key: &str) -> Result<&'a str, String> {
    facts.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str()).ok_or_else(|| format!("run reported no {key}"))
}

fn fact_f64(facts: &Facts, key: &str) -> Result<f64, String> {
    fact(facts, key)?.parse().map_err(|_| format!("{key} is not a number"))
}

/// Every expected fact must be observed with the same value.
fn check(observed: &Facts, expected: &Facts) -> Result<(), String> {
    for (key, want) in expected {
        let got = fact(observed, key)?;
        if got != want {
            return Err(format!("{key}: got {got}, reference says {want}"));
        }
    }
    Ok(())
}

fn json_fact(obj: &Json, key: &'static str) -> Result<(&'static str, String), String> {
    let v = match obj.get(key) {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Int(i)) => i.to_string(),
        Some(Json::Bool(b)) => b.to_string(),
        _ => return Err(format!("child reported no {key}")),
    };
    Ok((key, v))
}

impl Job<'_> {
    fn customers(&self) -> u32 {
        self.workload.customers(self.scale)
    }

    fn days(&self) -> u64 {
        if self.workload == Workload::Campaign4d {
            spec::CAMPAIGN_DAYS
        } else {
            1
        }
    }

    /// `--customers N --days D --seed S`, for the CLI and for child tasks.
    fn scenario_args(&self) -> Vec<String> {
        strings(&[
            "--customers",
            &self.customers().to_string(),
            "--days",
            &self.days().to_string(),
            "--seed",
            &self.seed.to_string(),
        ])
    }

    /// Run `satwatch <command>` on this job's scenario, single-threaded;
    /// returns usage, stdout path, stderr text.
    fn cli(&self, command: &str, extra: &[&str], tag: &str) -> Result<(ChildUsage, PathBuf, String), String> {
        let mut args = vec![command.to_string()];
        args.extend(self.scenario_args());
        args.extend(strings(&["--threads", "1", "--shards", "1"]));
        args.extend(strings(extra));
        self.spawn(&self.env.satwatch, &args, tag)
    }

    /// Run one of `satbench child`'s tasks; returns usage and the JSON it printed.
    fn child(&self, task: &str, extra: &[String], tag: &str) -> Result<(ChildUsage, Json), String> {
        let mut args = strings(&["child", task]);
        args.extend_from_slice(extra);
        let (usage, stdout, stderr) = self.spawn(&self.env.satbench, &args, tag)?;
        if !usage.ok() {
            return Err(format!("child {task} exited with {:?}: {}", usage.exit_code, stderr.trim()));
        }
        let text = std::fs::read_to_string(&stdout).map_err(|e| e.to_string())?;
        let parsed = Json::parse(text.trim()).map_err(|e| format!("child {task} printed {text:?}: {e}"))?;
        Ok((usage, parsed))
    }

    fn spawn(&self, program: &Path, args: &[String], tag: &str) -> Result<(ChildUsage, PathBuf, String), String> {
        let (out, err) = (self.dir.join(format!("{tag}.stdout")), self.dir.join(format!("{tag}.stderr")));
        let usage =
            run_child(program, args, &self.dir, &out, &err).map_err(|e| format!("{}: {e}", program.display()))?;
        let stderr = std::fs::read_to_string(&err).map_err(|e| e.to_string())?;
        Ok((usage, out, stderr))
    }

    /// The in-process reference for this job's scenario.
    fn reference(&self) -> Result<Json, String> {
        Ok(self.child("ref-dataset", &self.scenario_args(), "reference")?.1)
    }

    /// One run of the workload. `Err` is a failed run too: the program
    /// exited non-zero or its output could not be read.
    fn run_once(&self, tag: &str) -> Result<Ran, String> {
        let tmp = self.dir.join(TMP);
        if tmp.exists() {
            std::fs::remove_dir_all(&tmp).map_err(|e| e.to_string())?;
        }
        let cli_ok = |usage: &ChildUsage, stderr: &str| {
            if usage.ok() {
                Ok(())
            } else {
                Err(format!("satwatch exited with {:?}: {}", usage.exit_code, stderr.trim()))
            }
        };
        let mut disk_bytes = None;
        let (usage, wall_s, facts) = match self.workload {
            Workload::ReportDay => {
                let (usage, stdout, stderr) = self.cli("report", &["--figure", "all"], tag)?;
                cli_ok(&usage, &stderr)?;
                let facts = vec![
                    ("stdout_fnv", hex(fnv_file(&stdout).map_err(|e| e.to_string())?)),
                    ("packets", count_before(&stderr, " packets")?.to_string()),
                    ("flows", count_before(&stderr, " flows")?.to_string()),
                ];
                (usage, usage.wall_s, facts)
            }
            Workload::SimulateLogs => {
                let (usage, _, stderr) = self.cli("simulate", &["--out", TMP], tag)?;
                cli_ok(&usage, &stderr)?;
                let mut facts = vec![
                    ("packets", count_before(&stderr, " packets")?.to_string()),
                    ("flows", count_before(&stderr, " flows")?.to_string()),
                ];
                for (key, file) in [
                    ("flows_tsv_fnv", "flows.tsv"),
                    ("dns_tsv_fnv", "dns.tsv"),
                    ("enrichment_tsv_fnv", "enrichment.tsv"),
                ] {
                    facts.push((key, hex(fnv_file(&tmp.join(file)).map_err(|e| format!("{file}: {e}"))?)));
                }
                disk_bytes = Some(dir_bytes(&tmp).map_err(|e| e.to_string())?);
                (usage, usage.wall_s, facts)
            }
            Workload::ReplayLogs => {
                // `replay` takes no scenario: the logs are its input
                let args = strings(&["replay", "--logs", FIXTURES, "--figure", "all"]);
                let (usage, stdout, stderr) = self.spawn(&self.env.satwatch, &args, tag)?;
                cli_ok(&usage, &stderr)?;
                let facts = vec![
                    ("stdout_fnv", hex(fnv_file(&stdout).map_err(|e| e.to_string())?)),
                    ("flows", count_before(&stderr, " flows")?.to_string()),
                ];
                (usage, usage.wall_s, facts)
            }
            Workload::Campaign4d => {
                let (usage, stdout, stderr) = self.cli("campaign", &["--out", TMP], tag)?;
                cli_ok(&usage, &stderr)?;
                let printed = std::fs::read_to_string(&stdout).map_err(|e| e.to_string())?;
                let line = |key: &str| {
                    printed
                        .lines()
                        .find_map(|l| l.strip_prefix(key))
                        .map(|v| v.trim().to_string())
                        .ok_or_else(|| format!("campaign printed no {key}"))
                };
                let facts =
                    vec![("days", line("campaign_days:")?), ("dataset_digest", line("campaign_dataset_digest:")?)];
                disk_bytes = Some(dir_bytes(&tmp).map_err(|e| e.to_string())?);
                (usage, usage.wall_s, facts)
            }
            Workload::WireIngest => {
                let (usage, out) = self.child("wire_ingest", &strings(&["--capture", CAPTURE]), tag)?;
                let mut facts = Facts::new();
                for key in ["frames", "flows", "dns", "parse_errors", "passes_agree"] {
                    facts.push(json_fact(&out, key)?);
                }
                (usage, json::field_f64(&out, "wall_s")?, facts)
            }
            Workload::WarehouseScan => {
                let mut extra = self.scenario_args();
                extra.extend(strings(&["--dir", FIXTURES]));
                let (usage, out) = self.child("warehouse_scan", &extra, tag)?;
                let mut facts = Facts::new();
                for key in ["rows", "report_digest", "pushdown_rows"] {
                    facts.push(json_fact(&out, key)?);
                }
                (usage, json::field_f64(&out, "wall_s")?, facts)
            }
        };
        if tmp.exists() {
            std::fs::remove_dir_all(&tmp).map_err(|e| e.to_string())?;
        }
        Ok(Ran { usage, wall_s, disk_bytes, facts })
    }

    /// Fixtures, reference and the warm-up run. Everything a measured
    /// run is checked against comes out of here, beside the verdict on
    /// the warm-up run itself.
    fn set_up(&self) -> Result<(Prepared, Result<(), String>), String> {
        let fixtures = self.dir.join(FIXTURES);
        if fixtures.exists() {
            std::fs::remove_dir_all(&fixtures).map_err(|e| e.to_string())?;
        }
        std::fs::create_dir_all(&fixtures).map_err(|e| e.to_string())?;
        // `source` is the in-process reference or the fixture
        // generator's report; `expected` the facts it fixes
        let mut expected = Facts::new();
        let source = match self.workload {
            // no in-process twin of `report`: the warm-up is the reference
            Workload::ReportDay => Json::Null,
            Workload::SimulateLogs => {
                let r = self.reference()?;
                expected.extend([json_fact(&r, "packets")?, json_fact(&r, "flows")?, json_fact(&r, "flows_tsv_fnv")?]);
                r
            }
            Workload::ReplayLogs => {
                let r = self.reference()?;
                let (usage, _, stderr) = self.cli("simulate", &["--out", FIXTURES], "fixture")?;
                if !usage.ok() {
                    return Err(format!("fixture: satwatch simulate exited with {:?}: {stderr}", usage.exit_code));
                }
                let written = hex(fnv_file(&fixtures.join("flows.tsv")).map_err(|e| e.to_string())?);
                if written != json::field_str(&r, "flows_tsv_fnv")? {
                    return Err("fixture: the CLI's flows.tsv is not the in-process reference's".into());
                }
                expected.push(json_fact(&r, "flows")?);
                r
            }
            Workload::Campaign4d => {
                let r = self.reference()?;
                expected.push(("days", spec::CAMPAIGN_DAYS.to_string()));
                expected.push(json_fact(&r, "dataset_digest")?);
                r
            }
            Workload::WireIngest => {
                let mut extra = self.scenario_args();
                extra.extend(strings(&["--out", CAPTURE]));
                let (_, made) = self.child("gen-capture", &extra, "fixture")?;
                expected.push(json_fact(&made, "frames")?);
                expected.push(("parse_errors", "0".into()));
                expected.push(("passes_agree", "true".into()));
                made
            }
            Workload::WarehouseScan => {
                let mut extra = self.scenario_args();
                extra.extend(strings(&["--out", FIXTURES]));
                let (_, made) = self.child("gen-segment", &extra, "fixture")?;
                expected.extend([json_fact(&made, "rows")?, json_fact(&made, "report_digest")?]);
                expected.push(("pushdown_rows", json_fact(&made, "match_rows")?.1));
                made
            }
        };
        // the unmeasured first run: checked against what is already
        // expected, then the source of every remaining expectation
        let observed = self.run_once("warmup").map_err(|e| format!("warm-up: {e}"))?.facts;
        let warmup = check(&observed, &expected);
        for (key, value) in observed {
            if !expected.iter().any(|(k, _)| *k == key) {
                expected.push((key, value));
            }
        }
        let seen = |key: &str| fact_f64(&expected, key);
        let told = |key: &str| json::field_f64(&source, key);
        let (flows, packets) = match self.workload {
            Workload::ReportDay | Workload::SimulateLogs => (seen("flows")?, seen("packets")?),
            Workload::ReplayLogs => (seen("flows")?, told("packets")?),
            // the campaign prints no counts; the batch run of the same
            // config, whose digest it must reproduce, has them
            Workload::Campaign4d => (told("flows")?, told("packets")?),
            // every pass observes every frame and emits every flow
            Workload::WireIngest => {
                let passes = spec::WIRE_PASSES as f64;
                (seen("flows")? * passes, seen("frames")? * passes)
            }
            Workload::WarehouseScan => (seen("rows")?, told("packets")?),
        };
        Ok((Prepared { flows, packets, expected }, warmup))
    }

    /// Set up `setups` times (at least once) and measure after each
    /// set-up for an equal share of `seconds`, `min_runs` runs in all at
    /// least.
    ///
    /// Measuring between the set-ups makes the measured runs span the
    /// whole invocation: the host's slow phases last 5-20 s, and the
    /// best run is only steady when the span reaches past one. Each
    /// set-up draws its own population from the seed, so a metric is
    /// read off `setups` populations rather than one: at these sizes a
    /// few heavy users move a population's per-flow costs by 10 %
    /// (README.md, "Best of the window").
    pub fn measure(&self, setups: usize, min_runs: usize, seconds: f64) -> Result<Outcome, String> {
        std::fs::create_dir_all(&self.dir).map_err(|e| e.to_string())?;
        let setups = setups.max(1);
        let part = Duration::from_secs_f64(seconds / setups as f64);
        let part_runs = min_runs.div_ceil(setups);
        let mut setup_s = Vec::with_capacity(setups);
        let mut runs = Vec::new();
        let mut warmup_error = None;
        for population in 0..setups as u64 {
            // injective in (seed, population) short of overflow
            let seed = self.seed.wrapping_mul(setups as u64).wrapping_add(population);
            let job = Job { env: self.env, workload: self.workload, scale: self.scale, seed, dir: self.dir.clone() };
            let t0 = Instant::now();
            let (prepared, warmup) = job.set_up()?;
            setup_s.push(t0.elapsed().as_secs_f64());
            warmup_error = warmup_error.or(warmup.err());
            let (t0, first) = (Instant::now(), runs.len());
            while runs.len() - first < part_runs || t0.elapsed() < part {
                let (usage, wall_s, disk_bytes, error) = match job.run_once("run") {
                    Ok(ran) => (ran.usage, ran.wall_s, ran.disk_bytes, check(&ran.facts, &prepared.expected).err()),
                    Err(e) => (ChildUsage::default(), 0.0, None, Some(e)),
                };
                let (flows, packets) = (prepared.flows, prepared.packets);
                runs.push(Run { seed, flows, packets, usage, wall_s, disk_bytes, error });
            }
        }
        Ok(Outcome { setup_s, warmup_error, runs })
    }
}

impl Outcome {
    pub fn failed(&self) -> usize {
        self.runs.iter().filter(|r| r.error.is_some()).count()
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.warmup_error.is_none()
    }

    /// The end-to-end metrics, in `spec::END_TO_END` order. `None`
    /// when not one run passed: there is nothing honest to report.
    pub fn metrics(&self) -> Option<Vec<(&'static spec::EndToEnd, f64)>> {
        let good: Vec<&Run> = self.runs.iter().filter(|r| r.error.is_none()).collect();
        if good.is_empty() {
            return None;
        }
        let over = |of: fn(&Run) -> f64| good.iter().map(|r| of(r)).collect::<Vec<f64>>();
        // interference from the shared host only ever adds time, so
        // the fastest run is the steadiest estimate
        let values = [
            stats::median(&self.setup_s),
            stats::max(&over(|r| r.flows / r.wall_s)),
            stats::max(&over(|r| r.packets / r.wall_s)),
            stats::min(&over(|r| (r.usage.user_s + r.usage.sys_s) * 1e6 / r.flows)),
            stats::median(&over(|r| r.usage.max_rss_bytes as f64 / r.flows)),
        ];
        Some(spec::END_TO_END.iter().zip(values).collect())
    }

    /// Everything about the runs that is not a contract metric, for
    /// the log.
    pub fn describe(&self, workload: Workload) -> String {
        let mut s = format!("{}: {} runs, {} failed\n", workload.name(), self.runs.len(), self.failed());
        if let Some(e) = &self.warmup_error {
            s.push_str(&format!("  warm-up FAILED its check: {e}\n"));
        }
        for (i, r) in self.runs.iter().enumerate() {
            if let Some(e) = &r.error {
                s.push_str(&format!("  run {i} FAILED: {e}\n"));
            }
        }
        // runs of one population are consecutive
        for runs in self.runs.chunk_by(|a, b| a.seed == b.seed) {
            let r = &runs[0];
            s.push_str(&format!("  scenario seed {}: {} flows, {} packets per run", r.seed, r.flows, r.packets));
            if let Some(bytes) = runs.iter().find_map(|r| r.disk_bytes) {
                s.push_str(&format!(", disk_bytes_per_flow = {:.3} B (exact)", bytes as f64 / r.flows));
            }
            let walls: Vec<f64> = runs.iter().filter(|r| r.error.is_none()).map(|r| r.wall_s).collect();
            if walls.len() >= 4 {
                let [q1, q2, q3] = stats::quartiles(&walls);
                s.push_str(&format!(
                    "\n    wall_s (information only): min {:.4} q1 {q1:.4} median {q2:.4} q3 {q3:.4} over {} runs",
                    stats::min(&walls),
                    walls.len()
                ));
            }
            s.push('\n');
        }
        for (metric, value) in self.metrics().unwrap_or_default() {
            s.push_str(&format!("  {} = {value} {}\n", metric.name, metric.unit));
        }
        s
    }
}

/// The contract's result line for an untraced run.
pub fn result_line(outcome: &Outcome) -> Option<String> {
    let metrics: Vec<_> = outcome.metrics()?.into_iter().map(|(m, value)| (m.name, m.unit, value)).collect();
    Some(json::result_line(outcome.correct(), outcome.runs.len(), outcome.failed(), &metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_read_off_progress_lines() {
        let line = "done in 216.6ms: 533711 packets, 47381 flows, 10906 DNS transactions";
        assert_eq!(count_before(line, " packets"), Ok(533_711));
        assert_eq!(count_before(line, " flows"), Ok(47_381));
        assert!(count_before(line, " segments").is_err());
        assert!(count_before("no flows", " flows").is_err());
    }

    #[test]
    fn a_run_must_agree_with_every_expected_fact() {
        let expected: Facts = vec![("flows", "10".into()), ("digest", "abc".into())];
        let same: Facts = vec![("digest", "abc".into()), ("flows", "10".into()), ("extra", "1".into())];
        assert!(check(&same, &expected).is_ok());
        let differs: Facts = vec![("digest", "abd".into()), ("flows", "10".into())];
        assert!(check(&differs, &expected).unwrap_err().contains("digest"));
        let missing: Facts = vec![("flows", "10".into())];
        assert!(check(&missing, &expected).is_err());
    }
}
