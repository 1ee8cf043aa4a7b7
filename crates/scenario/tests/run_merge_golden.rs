//! Byte-identity pin for the run-merge packet scheduler.
//!
//! The scheduler in `scenario::run` replaced the original
//! all-packets-through-one-`BinaryHeap` event loop. Its contract is
//! that the span port sees the exact same packet sequence — and the
//! probe therefore emits the exact same flow/DNS records — as the
//! heap's `(at, seq)` ordering produced. This test pins the full
//! serialized dataset for a fixed workload to a digest captured from
//! the pre-change heap implementation, so any ordering drift (a wrong
//! tie-break, a lost packet, a reordered equal-time pair) shows up as
//! a digest mismatch rather than a silently different dataset.
//!
//! If an *intentional* output change lands (new record field, changed
//! workload model), refresh the constants with
//! `cargo run --release --example golden_digest`.

use satwatch_oracle::run_reference;
use satwatch_scenario::{dataset_digest, run, ScenarioConfig};

/// Digest captured from the pre-run-merge heap scheduler at this
/// workload (tiny, 12 customers, seed 42, 2 days).
const GOLDEN_DIGEST: u64 = 0x89ee_9b28_8213_084d;
const GOLDEN_PACKETS: u64 = 289_179;
const GOLDEN_FLOWS: usize = 25_068;
const GOLDEN_DNS: usize = 5_712;

#[test]
fn run_merge_output_matches_heap_scheduler_golden() {
    let ds = run(ScenarioConfig::tiny().with_customers(12).with_seed(42).with_days(2));
    assert_eq!(ds.packets, GOLDEN_PACKETS, "packet count drifted from the heap-scheduler golden");
    assert_eq!(ds.flows.len(), GOLDEN_FLOWS, "flow count drifted from the heap-scheduler golden");
    assert_eq!(ds.dns.len(), GOLDEN_DNS, "dns count drifted from the heap-scheduler golden");

    // `dataset_digest` serializes exactly like the `simulate`
    // subcommand's log writer, plus the DNS log fields, so the digest
    // covers every byte an analyst would consume.
    let digest = dataset_digest(&ds);
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "dataset bytes diverged from the pre-change heap ordering \
         (got {digest:#018x}); if the change is intentional, refresh \
         via `cargo run --release --example golden_digest`"
    );
}

/// The reference run *is* an all-packets-through-one-heap loop, so it
/// must reproduce the digest captured from the original one.
#[test]
fn reference_run_matches_heap_scheduler_golden() {
    let ds = run_reference(ScenarioConfig::tiny().with_customers(12).with_seed(42).with_days(2));
    assert_eq!(ds.packets, GOLDEN_PACKETS);
    assert_eq!(dataset_digest(&ds), GOLDEN_DIGEST);
}
