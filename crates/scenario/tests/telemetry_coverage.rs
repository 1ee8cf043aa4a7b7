//! One end-to-end run must light up instruments in every layer:
//! scenario (run loop and its passes), satcom (channel, PEP, shaper),
//! monitor (probe, flow table, DPI, sealer), analytics (span timers),
//! and the campaign store. A layer whose counters stay at zero means
//! its wiring regressed. Kept in its own integration binary so nothing
//! here races with the on/off toggling in `telemetry_determinism.rs`.

use satwatch_scenario::{run, run_sealed, run_with_tap, ScenarioConfig};
use satwatch_telemetry::Snapshot;
use std::ops::ControlFlow;

#[test]
fn snapshot_covers_every_pipeline_layer() {
    let ds = run(ScenarioConfig::tiny().with_customers(10));
    let _ = satwatch_analytics::agg::table1(&ds.flows);
    let snap = Snapshot::take();
    let counter = |name: &str| snap.counter(name).unwrap_or_else(|| panic!("{name} missing from snapshot"));

    // scenario layer
    assert!(counter("scenario_intents_total") > 0);
    assert!(counter("scenario_flows_started_total") > 0);
    assert!(counter("scenario_packets_total") > 0);
    assert_eq!(counter("scenario_packets_total"), ds.packets, "run loop counts what the probe observed");

    // scenario phase attribution: one sample per simulated day, and
    // every phase saw at least one non-trivial span (sums are in µs).
    // A pass is timed whole, so there is no merge phase to estimate.
    for phase in ["scenario_flow_synth_us", "scenario_probe_us"] {
        let h = snap.histogram(phase).unwrap_or_else(|| panic!("{phase} missing from snapshot"));
        assert!(h.count > 0, "{phase} records once per day");
    }
    assert!(snap.histogram("scenario_merge_us").is_none(), "the day loop merges nothing");
    // planning is timed inside synthesis, once per day beside it:
    // emission is synthesis minus planning
    let synth = snap.histogram("scenario_flow_synth_us").expect("synthesis timed");
    let plan = snap.histogram("scenario_plan_us").expect("scenario_plan_us missing from snapshot");
    assert_eq!((plan.count, synth.count), (1, 1), "one sample each for the one simulated day");
    assert!(plan.sum <= synth.sum, "planning {} µs inside synthesis {} µs", plan.sum, synth.sum);

    // the passes: at least one per cohort; every DNS record answered
    // took two rows (query, response) through the merged-order DNS
    // lane; the live-run gauge exists (zero after the last day's cut)
    assert!(counter("scenario_passes_total") > 0);
    let answered = counter("monitor_dns_answered_total");
    assert!(answered > 0);
    assert!(counter("scenario_ordered_rows_total") >= 2 * answered);
    assert_eq!(snap.gauge("scenario_live_runs"), Some(0));

    // satcom layer
    assert!(counter("satcom_uplink_traversals_total") > 0);
    assert!(counter("satcom_downlink_traversals_total") > 0);
    assert!(counter("satcom_pep_spoofed_acks_total") > 0, "PEP is on by default");
    let pep_setup = snap.histogram("satcom_pep_setup_us").expect("PEP setup span registered");
    assert!(pep_setup.count > 0);

    // monitor layer
    assert_eq!(counter("monitor_packets_total"), ds.packets);
    // slice-granular hot path: the probe consumed its packets as
    // column slices. Both instruments tick together, once per slice
    // the stretch walker takes (flushed to the registry at every sweep
    // and at finish), and every packet is in exactly one slice.
    let batches = counter("monitor_probe_batches_total");
    assert!(batches > 0, "batched drive is the default path");
    let batch_len = snap.histogram("monitor_probe_batch_len").expect("batch-length histogram registered");
    assert_eq!(batch_len.count, batches, "one length sample per batch");
    assert_eq!(batch_len.sum, ds.packets, "the slices cover every packet once");
    // replaced DNS queries are counted, whether or not this run had one
    assert!(snap.counter("monitor_dns_replaced_total").is_some(), "monitor_dns_replaced_total registered");
    let verdicts: u64 = ["TCP/HTTPS", "TCP/HTTP", "UDP/QUIC", "UDP/DNS", "UDP/RTP", "Other TCP", "Other UDP"]
        .iter()
        .filter_map(|l| snap.counter(&satwatch_telemetry::labelled("monitor_dpi_verdicts_total", &[("l7", l)])))
        .sum();
    assert!(verdicts >= ds.flows.len() as u64, "every finalised flow got a DPI verdict");

    // watermark sealing: the sealed stream of the same run released a
    // piece per sweep, and what stayed resident after the last of them
    // was a tail, not the capture
    let before = Snapshot::take();
    let sealed = run_sealed(ScenarioConfig::tiny().with_customers(10), None, |_| ControlFlow::Continue(()));
    assert_eq!(sealed.packets, ds.packets);
    let after = Snapshot::take();
    let pieces = after.delta(&before).counter("probe_seal_pieces_total");
    assert!(pieces > Some(100), "sealed at the sweeps, not once at the end: {pieces:?}");
    let tail = after.gauge("probe_unsealed_rows").expect("probe_unsealed_rows missing from snapshot");
    assert!((0..ds.flows.len() as i64 / 4).contains(&tail), "{tail} rows unsealed of {}", ds.flows.len());

    // analytics span timers
    let h = snap.histogram("analytics_table1_us").expect("analytics span registered");
    assert!(h.count >= 1);

    // query DSL: per-stage spans and pushdown counters
    let fr = satwatch_analytics::FlowFrame::from_records(&ds.flows, &ds.enrichment);
    let p = satwatch_analytics::Pipeline::parse(
        r#"[
            {"match": {"eq": [{"col": "country"}, "ES"]}},
            {"group": {"by": ["l7"], "aggs": {"bytes": {"sum": "bytes"}}}},
            {"sort": "-bytes"}
        ]"#,
    )
    .unwrap();
    let _ = satwatch_analytics::query::run(&fr, &p).unwrap();
    let snap = Snapshot::take();
    let counter = |name: &str| snap.counter(name).unwrap_or_else(|| panic!("{name} missing from snapshot"));
    for span in ["query_run_us", "query_match_us", "query_group_us", "query_sort_us"] {
        let h = snap.histogram(span).unwrap_or_else(|| panic!("{span} missing from snapshot"));
        assert!(h.count >= 1, "{span} recorded");
    }
    assert_eq!(counter("query_rows_scanned_total"), fr.len() as u64);
    assert!(
        counter("query_rows_after_pushdown_total") < counter("query_rows_scanned_total"),
        "the country LUT pruned rows before the wide columns were read"
    );

    // beam gauges are exported per beam with labels
    assert!(
        snap.values.keys().any(|k| k.starts_with("scenario_beam_peak_utilization_pct{")),
        "per-beam labelled gauges present"
    );

    // a tapped run (`simulate --pcap`) is timed like a plain one
    let before = Snapshot::take();
    let mut tapped = 0u64;
    let ds = run_with_tap(ScenarioConfig::tiny().with_customers(3), |_, _| tapped += 1);
    assert_eq!(tapped, ds.packets, "the tap sees every packet the probe does");
    let during = Snapshot::take().delta(&before);
    for span in ["scenario_setup_us", "scenario_finish_us"] {
        let h = during.histogram(span).unwrap_or_else(|| panic!("{span} missing from snapshot"));
        assert_eq!(h.count, 1, "{span} records once per tapped run");
    }

    // the campaign store: one checkpoint per day, the tail it carried
    // and the state file it wrote among its gauges
    let dir = std::env::temp_dir().join(format!("satwatch-telemetry-coverage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ScenarioConfig::tiny().with_customers(3).with_days(2);
    let before = Snapshot::take();
    run_sealed(cfg, None, |_| ControlFlow::Continue(()));
    let sealed_run_pieces = Snapshot::take().delta(&before).counter("probe_seal_pieces_total").unwrap();
    let before = Snapshot::take();
    let mut campaign = satwatch_campaign::Campaign::create(&dir, cfg).unwrap();
    assert!(campaign.run(&satwatch_campaign::RunOptions::default()).unwrap().completed);
    let snap = Snapshot::take();
    std::fs::remove_dir_all(&dir).unwrap();
    // a segment per day and the closing one; the probe's log is sealed
    // at every sweep, as `run_sealed` seals it, and once more at each
    // day's checkpoint
    assert_eq!(snap.delta(&before).counter("campaign_segments_sealed_total"), Some(3));
    assert_eq!(snap.delta(&before).counter("probe_seal_pieces_total"), Some(sealed_run_pieces + cfg.days));
    assert_eq!(snap.delta(&before).counter("probe_seal_pieces_total"), Some(193));
    assert_eq!(snap.gauge("campaign_days_completed"), Some(2));
    for gauge in ["campaign_rows_carried", "campaign_state_bytes", "campaign_segment_bytes_total"] {
        let v = snap.gauge(gauge).unwrap_or_else(|| panic!("{gauge} missing from snapshot"));
        assert!(v > 0, "{gauge} = {v}");
    }
    let h = snap.histogram("campaign_checkpoint_us").expect("checkpoint span registered");
    assert!(h.count >= 2, "one checkpoint per day");
}
