//! `BENCH_satbench.json` is the trajectory of every performance claim:
//! one entry per claim, back-filled from CHANGES.md's pair tables. It
//! is checked like code, so a hand-copied number cannot drift from the
//! runs it summarises:
//!
//! 1. every claim names a `BENCHMARK.json` workload and end-to-end
//!    metric, and CHANGES.md has that PR's entry naming both;
//! 2. where per-run values are listed, each median and the win count
//!    (pairs the change won in the metric's better direction) are
//!    recomputed from them;
//! 3. a `met` verdict has the wins (9 of 10 pairs) and a median gap
//!    wider than the parent's IQR; the acceptance check, where given,
//!    moved the same way.
//!
//! Every failure names the PR.

use satwatch_analytics::expr::Json;
use std::fs;
use std::path::PathBuf;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read_json(name: &str) -> Json {
    let text = fs::read_to_string(root().join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e:?}"))
}

fn num(j: &Json) -> Option<f64> {
    match j {
        Json::Int(i) => Some(*i as f64),
        Json::Num(x) => Some(*x),
        _ => None,
    }
}

fn int(j: &Json) -> Option<i64> {
    match j {
        Json::Int(i) => Some(*i),
        _ => None,
    }
}

fn str_of(j: &Json) -> Option<&str> {
    match j {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn arr(j: &Json) -> Option<&[Json]> {
    match j {
        Json::Arr(a) => Some(a),
        _ => None,
    }
}

/// `values`' median: the middle one, or the mean of the middle two.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A median as CHANGES.md states it, to the digits it gives.
fn close(stated: f64, computed: f64) -> bool {
    (stated - computed).abs() <= 1e-3 * stated.abs()
}

/// `(name, lower_is_better)` of every end-to-end metric, and every
/// workload name, in `BENCHMARK.json`.
fn benchmark() -> (Vec<(String, bool)>, Vec<String>) {
    let spec = read_json("BENCHMARK.json");
    let list = |key: &str| arr(spec.get(key).expect(key)).expect(key).to_vec();
    let metrics = list("end_to_end")
        .iter()
        .map(|m| {
            let name = str_of(m.get("name").unwrap()).unwrap().to_string();
            (name, str_of(m.get("better").unwrap()) == Some("lower"))
        })
        .collect();
    let workloads = list("workloads").iter().map(|w| str_of(w.get("name").unwrap()).unwrap().to_string()).collect();
    (metrics, workloads)
}

/// CHANGES.md's entry for PR `pr`: the line that opens with it.
fn changes_entry(changes: &str, pr: i64) -> Option<&str> {
    let head = format!("PR {pr} ");
    changes.lines().find(|l| l.trim_start_matches(['-', '*', ' ']).starts_with(&head))
}

#[test]
fn every_claim_is_the_one_changes_md_records() {
    let doc = read_json("BENCH_satbench.json");
    let changes = fs::read_to_string(root().join("CHANGES.md")).expect("CHANGES.md");
    let (metrics, workloads) = benchmark();
    let claims = arr(doc.get("claims").expect("claims")).expect("claims is a list");
    assert!(!claims.is_empty());
    let mut last_pr = 0;
    for c in claims {
        let field = |key: &str| c.get(key).unwrap_or_else(|| panic!("a claim has no `{key}`"));
        let pr = int(field("pr")).expect("pr is an integer");
        let ctx = format!("BENCH_satbench.json, PR {pr}");
        assert!(pr > last_pr, "{ctx}: claims are in PR order, one per PR");
        last_pr = pr;
        let commit = str_of(field("commit")).unwrap_or("");
        assert!(commit.len() == 40 && commit.bytes().all(|b| b.is_ascii_hexdigit()), "{ctx}: commit {commit:?}");

        let workload = str_of(field("workload")).expect("workload");
        let metric = str_of(field("metric")).expect("metric");
        assert!(workloads.iter().any(|w| w == workload), "{ctx}: {workload} is no BENCHMARK.json workload");
        let lower_better = metrics
            .iter()
            .find(|(m, _)| m == metric)
            .unwrap_or_else(|| panic!("{ctx}: {metric} is no end-to-end metric"))
            .1;
        let entry = changes_entry(&changes, pr).unwrap_or_else(|| panic!("{ctx}: CHANGES.md has no entry"));
        assert!(
            entry.contains(&format!("`{workload}`")) && entry.contains(metric),
            "{ctx}: CHANGES.md's entry does not name `{workload}` and {metric}"
        );

        let pairs = int(field("pairs")).expect("pairs") as usize;
        let wins = int(field("wins")).expect("wins") as usize;
        assert!(wins <= pairs, "{ctx}: {wins} wins of {pairs} pairs");
        let seeds: Vec<i64> = arr(field("seeds")).expect("seeds").iter().map(|s| int(s).expect("seed")).collect();
        assert!(
            seeds.len() == 2 && seeds[1] - seeds[0] + 1 == pairs as i64,
            "{ctx}: seeds {seeds:?} for {pairs} pairs"
        );
        let better = |parent: f64, change: f64| if lower_better { change < parent } else { change > parent };

        let parent_median = num(field("parent_median")).expect("parent_median");
        let change_median = num(field("change_median")).expect("change_median");
        let runs = |key: &str| arr(field(key)).map(|a| a.iter().map(|v| num(v).expect(key)).collect::<Vec<f64>>());
        match (runs("parent_runs"), runs("change_runs")) {
            (Some(parent), Some(change)) => {
                assert!(parent.len() == pairs && change.len() == pairs, "{ctx}: runs for {pairs} pairs");
                let (p, ch) = (median(&parent), median(&change));
                assert!(close(parent_median, p), "{ctx}: parent median {parent_median}, runs give {p}");
                assert!(close(change_median, ch), "{ctx}: change median {change_median}, runs give {ch}");
                let won = parent.iter().zip(&change).filter(|&(&a, &b)| better(a, b)).count();
                assert_eq!(won, wins, "{ctx}: the runs give {won} wins");
            }
            (None, None) => {}
            _ => panic!("{ctx}: parent_runs and change_runs are listed together or not at all"),
        }

        for key in ["failed", "attempted"] {
            for side in ["parent", "change"] {
                let v = field(key).get(side).unwrap_or_else(|| panic!("{ctx}: {key} has no {side}"));
                assert!(*v == Json::Null || int(v).is_some_and(|n| n >= 0), "{ctx}: {key}.{side} is {v:?}");
            }
        }

        match str_of(field("verdict")) {
            Some("met") => {
                assert!(10 * wins >= 9 * pairs, "{ctx}: met on {wins} wins of {pairs}");
                assert!(better(parent_median, change_median), "{ctx}: met, but the median moved the wrong way");
                if let Some(iqr) = num(field("parent_iqr")) {
                    let gap = (change_median - parent_median).abs();
                    assert!(gap > iqr, "{ctx}: met, but the median gap {gap} is inside the parent IQR {iqr}");
                }
            }
            Some("not met") => {}
            v => panic!("{ctx}: verdict {v:?} is neither \"met\" nor \"not met\""),
        }

        let check = field("acceptance_check");
        if *check != Json::Null {
            let p = num(check.get("parent_median").expect("acceptance_check.parent_median")).unwrap();
            let ch = num(check.get("change_median").expect("acceptance_check.change_median")).unwrap();
            assert!(better(p, ch), "{ctx}: the acceptance check's medians {p} -> {ch} did not move the claimed way");
        }
    }
}
