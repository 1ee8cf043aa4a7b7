//! The telemetry acceptance gate: instrumentation is observation-only.
//!
//! The whole pipeline is wired with counters, gauges, and span timers,
//! and every one of them must be invisible in the output: the dataset
//! digest (flow log + DNS log bytes) has to be identical with
//! telemetry enabled or disabled. A single instrument whose value
//! feeds back into control flow breaks this.

use satwatch_scenario::{dataset_digest, run, ScenarioConfig};

#[test]
fn dataset_bytes_identical_with_telemetry_on_or_off_at_any_parallelism() {
    let cfg = ScenarioConfig::tiny().with_customers(10);
    let digest_with = |enabled: bool| {
        satwatch_telemetry::set_enabled(enabled);
        let d = dataset_digest(&run(cfg));
        satwatch_telemetry::set_enabled(true);
        d
    };
    assert_eq!(digest_with(false), digest_with(true), "recording telemetry changed the dataset");
}
