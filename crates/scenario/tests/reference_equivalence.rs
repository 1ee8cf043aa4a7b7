//! The production packet path against its reference (DESIGN.md §4
//! "Passes reproduce the heap's order"): for any small scenario,
//! `run(cfg)` — cohort synthesis, passes, stretch walker —
//! must equal `run_reference(cfg)`, the single-heap per-packet loop:
//! same packet count, same flow records, same DNS records, same
//! dataset digest.
//!
//! Drives the proptest strategies by hand instead of through the
//! `proptest!` macro: each case runs two day-long scenarios, so the
//! default 64-case budget would dominate the whole suite's wall time.
//! The case count is capped; `PROPTEST_CASES` still lowers it further.

use proptest::prelude::*;
use proptest::test_runner;
use satwatch_scenario::{dataset_digest, run, run_reference, ScenarioConfig};

/// One reference run of `cfg` against one production run.
fn assert_matches_reference(cfg: ScenarioConfig, ctx: &str) {
    let want = run_reference(cfg);
    assert!(want.packets > 0, "{ctx}: scenario produced no traffic");
    let got = run(cfg);
    assert_eq!(got.packets, want.packets, "{ctx}: packet counts diverge");
    assert_eq!(got.flows, want.flows, "{ctx}: flow records diverge");
    assert_eq!(got.dns, want.dns, "{ctx}: dns records diverge");
    assert_eq!(dataset_digest(&got), dataset_digest(&want), "{ctx}: dataset digests diverge");
}

#[test]
fn production_path_matches_reference_on_random_scenarios() {
    let seed0 = test_runner::seed_for("production_path_matches_reference_on_random_scenarios");
    let cases = test_runner::cases().min(3);
    for case in 0..cases {
        let mut rng = TestRng::new(seed0 ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let seed = (0u64..1_000_000).sample(&mut rng);
        let customers = (2u32..7).sample(&mut rng);
        let base = ScenarioConfig::tiny().with_customers(customers).with_seed(seed);
        assert_matches_reference(base, &format!("case {case}: seed={seed} customers={customers}"));
    }
}

/// Flows spilling past midnight into the next day's stream, and the
/// horizon cut one hour after it.
#[test]
fn production_path_matches_reference_across_days() {
    assert_matches_reference(ScenarioConfig::tiny().with_customers(3).with_seed(7).with_days(2), "2 days");
}

/// Each what-if changes the plan/emit branch structure (no PEP setup
/// delay and an end-to-end handshake; a different ground-RTT base; a
/// rewritten resolver on every intent).
#[test]
fn production_path_matches_reference_under_each_ablation() {
    let base = ScenarioConfig::tiny().with_customers(4).with_seed(99);
    assert_matches_reference(base.without_pep(), "without_pep");
    assert_matches_reference(base.with_african_ground_station(), "african_ground_station");
    assert_matches_reference(base.with_forced_operator_dns(), "forced_operator_dns");
}
