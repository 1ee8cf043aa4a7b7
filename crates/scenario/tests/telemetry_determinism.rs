//! The telemetry acceptance gate: instrumentation is observation-only.
//!
//! The whole pipeline is wired with counters, gauges, and span timers,
//! and every one of them must be invisible in the output: the dataset
//! digest (flow log + DNS log bytes) has to be identical with
//! telemetry enabled or disabled. A single instrument whose value
//! feeds back into control flow breaks this.

use satwatch_monitor::record::{write_dns_log, write_dns_rows, write_flow_rows, write_flows};
use satwatch_scenario::digest::{Fnv1aSink, FNV1A_INIT};
use satwatch_scenario::{dataset_digest, run, run_sealed, ScenarioConfig};
use std::ops::ControlFlow;

/// The two logs as `simulate` streams them — header, then each piece
/// as the run seals it — hashed instead of written.
fn streamed_logs_digest(cfg: ScenarioConfig) -> (u64, u64) {
    let (mut flows, mut dns) = (Fnv1aSink(FNV1A_INIT), Fnv1aSink(FNV1A_INIT));
    write_flows(&mut flows, &[]).unwrap();
    write_dns_log(&mut dns, &[]).unwrap();
    run_sealed(cfg, None, |piece| {
        write_flow_rows(&mut flows, &piece.flows).unwrap();
        write_dns_rows(&mut dns, &piece.dns).unwrap();
        ControlFlow::Continue(())
    });
    (flows.0, dns.0)
}

#[test]
fn dataset_bytes_identical_with_telemetry_on_or_off_at_any_parallelism() {
    let cfg = ScenarioConfig::tiny().with_customers(10);
    let digests_with = |enabled: bool| {
        satwatch_telemetry::set_enabled(enabled);
        let d = (dataset_digest(&run(cfg)), streamed_logs_digest(cfg));
        satwatch_telemetry::set_enabled(true);
        d
    };
    let (off, on) = (digests_with(false), digests_with(true));
    assert_eq!(off.0, on.0, "recording telemetry changed the dataset");
    assert_eq!(off.1, on.1, "recording telemetry changed the streamed logs");
}
