//! A campaign lights up every instrument it owns, and `DayRunner`'s
//! set-up timer: the instruments are enumerated here, so a new
//! `campaign_*` instrument must be named below and a lost one fails.
//! Kept in its own integration binary so the registry holds what one
//! campaign registered and nothing another test did.

use satwatch_campaign::{Campaign, RunOptions};
use satwatch_scenario::ScenarioConfig;
use satwatch_telemetry::Snapshot;

#[test]
fn a_campaign_records_its_instruments_and_the_setup_timer() {
    let dir = std::env::temp_dir().join(format!("swcampaign-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = dir.join("metrics.json");
    let cfg = ScenarioConfig::tiny().with_customers(6).with_days(2).with_seed(11);
    let mut c = Campaign::create(&dir, cfg).unwrap();
    let out = c.run(&RunOptions { metrics_out: Some(metrics.clone()), ..RunOptions::default() }).unwrap();
    assert!(out.completed);

    let snap = Snapshot::take();
    let setup = snap.histogram("scenario_setup_us").expect("DayRunner times its set-up");
    assert_eq!(setup.count, 1, "one DayRunner, one set-up");
    let gauges = [
        "campaign_days_completed",
        "campaign_rows_carried",
        "campaign_rss_bytes",
        "campaign_segment_bytes_total",
        "campaign_state_bytes",
    ];
    let counters = ["campaign_segments_sealed_total"];
    let histograms = ["campaign_checkpoint_us"];
    for name in gauges {
        assert!(snap.gauge(name).is_some(), "gauge {name} missing");
    }
    assert_eq!(snap.gauge("campaign_days_completed"), Some(2));
    for name in counters {
        assert!(snap.counter(name).is_some_and(|n| n > 0), "counter {name} missing or zero");
    }
    for name in histograms {
        assert!(snap.histogram(name).is_some_and(|h| h.count > 0), "histogram {name} missing or empty");
    }
    let mut named: Vec<&str> = [&gauges[..], &counters, &histograms].concat();
    named.sort_unstable();
    let registered: Vec<&str> = snap.values.keys().map(String::as_str).filter(|n| n.starts_with("campaign_")).collect();
    assert_eq!(registered, named, "the campaign's instruments are the ones named here");

    // the --metrics-out stream carries them too: the final total names
    // the set-up timer and every campaign instrument
    let stream = std::fs::read_to_string(&metrics).unwrap();
    let total = stream.split("\"campaign_final\": true").nth(1).expect("a final snapshot");
    for name in named.iter().chain(&["scenario_setup_us"]) {
        assert!(total.contains(&format!("\"{name}\"")), "the final snapshot lacks {name}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
