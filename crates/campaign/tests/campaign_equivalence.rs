//! The campaign engine's two load-bearing guarantees, end to end:
//!
//! 1. A multi-day campaign — day-partitioned, spilled to disk,
//!    report-folded from sealed segments — produces the *byte-same*
//!    dataset digest and rendered reports as an all-in-RAM batch run
//!    of the identical config.
//! 2. Killing the campaign after any checkpoint and resuming (even
//!    with another worker count for the final fold) reproduces those
//!    bytes exactly.

use satwatch_analytics::FlowFrame;
use satwatch_campaign::{Campaign, DaySummary, RunOptions};
use satwatch_scenario::digest::fnv1a;
use satwatch_scenario::experiments::paper_reports_columnar;
use satwatch_scenario::{dataset_digest, run, ScenarioConfig};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swcampaign-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> ScenarioConfig {
    ScenarioConfig::tiny().with_customers(24).with_days(3).with_seed(0x5eed_0001)
}

/// Batch reference: dataset digest + report digest, all in RAM.
fn batch_digests(cfg: ScenarioConfig) -> (u64, u64) {
    let ds = run(cfg);
    let frame = FlowFrame::from_records(&ds.flows, &ds.enrichment);
    let report = paper_reports_columnar(&frame, &ds.dns, &ds.enrichment, 10, 1).render_all();
    (dataset_digest(&ds), fnv1a(report.as_bytes()))
}

#[test]
fn campaign_is_byte_identical_to_batch() {
    let cfg = cfg();
    let dir = tmp_dir("batch-eq");
    let mut c = Campaign::create(&dir, cfg).unwrap();
    let out = c.run(&RunOptions::default()).unwrap();
    assert!(out.completed);
    assert_eq!(out.days_completed, cfg.days);

    let (want_ds, want_rep) = batch_digests(cfg);
    assert_eq!(out.dataset_digest, Some(want_ds), "dataset digest diverged from the batch run");
    assert_eq!(out.report_digest, Some(want_rep), "report digest diverged from the batch run");

    // one segment per day (plus an optional post-midnight spill day),
    // and the row total matches the batch flow count
    let ds = run(cfg);
    assert!(c.segments().len() as u64 >= cfg.days);
    let rows: u64 = c.segments().iter().map(|s| s.rows).sum();
    assert_eq!(rows, ds.flows.len() as u64);
    assert!(dir.join("report.txt").exists());
    assert!(dir.join("manifest.json").exists());

    // the campaign is re-openable and reports itself complete
    let mut again = Campaign::resume(&dir).unwrap();
    assert!(again.is_complete());
    let replay = again.run(&RunOptions::default()).unwrap();
    assert_eq!(replay.dataset_digest, Some(want_ds));
    assert_eq!(replay.report_digest, Some(want_rep));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn kill_after_each_day_and_resume_is_bit_identical() {
    let cfg = cfg();
    let (want_ds, want_rep) = batch_digests(cfg);

    let dir = tmp_dir("resume");
    // day 0, then "kill": drop the Campaign (and its probe) entirely
    {
        let mut c = Campaign::create(&dir, cfg).unwrap();
        let out = c.run(&RunOptions { abort_after_day: Some(0), ..RunOptions::default() }).unwrap();
        assert!(!out.completed);
        assert_eq!(out.days_completed, 1);
    }
    // resume from disk, day 1, kill again
    {
        let mut c = Campaign::resume(&dir).unwrap();
        assert_eq!(c.days_completed(), 1);
        let out = c.run(&RunOptions { abort_after_day: Some(1), ..RunOptions::default() }).unwrap();
        assert!(!out.completed);
        assert_eq!(out.days_completed, 2);
    }
    // final resume, folding the report on two workers: the worker
    // count must not change a single output byte
    let out = {
        let mut c = Campaign::resume(&dir).unwrap();
        assert_eq!(c.days_completed(), 2);
        c.run(&RunOptions { workers: 2, ..RunOptions::default() }).unwrap()
    };
    assert!(out.completed);
    assert_eq!(out.dataset_digest, Some(want_ds), "kill/resume changed the dataset bytes");
    assert_eq!(out.report_digest, Some(want_rep), "kill/resume changed the report bytes");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_state_file_is_rejected_on_resume() {
    let cfg = ScenarioConfig::tiny().with_customers(10).with_days(2).with_seed(7);
    let dir = tmp_dir("corrupt");
    {
        let mut c = Campaign::create(&dir, cfg).unwrap();
        c.run(&RunOptions { abort_after_day: Some(0), ..RunOptions::default() }).unwrap();
    }
    // flip a byte in the committed state file: resume must fail with
    // a clean error, not a panic or a silently-wrong continuation
    let state = dir.join("state-0.bin");
    let mut bytes = std::fs::read(&state).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&state, &bytes).unwrap();
    let err = Campaign::resume(&dir).err().expect("corrupt state must be rejected");
    let msg = err.to_string();
    assert!(msg.contains("checksum") || msg.contains("corrupt"), "unexpected error: {msg}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The per-day summary (what the progress line prints) accounts for
/// this day's seals only: a day whose bucket is still pinned by a live
/// flow reports nothing sealed — not the previous day's segment again —
/// and the running totals agree with the manifest after every day.
#[test]
fn day_summaries_count_what_each_day_sealed() {
    let cfg = cfg();
    let dir = tmp_dir("summaries");
    let mut c = Campaign::create(&dir, cfg).unwrap();
    let (mut segments, mut rows, mut quiet_days) = (0, 0, 0);
    for day in 0..cfg.days {
        let out = c.run(&RunOptions { abort_after_day: Some(day), ..RunOptions::default() }).unwrap();
        assert_eq!(out.days.len(), 1, "one summary per day simulated by the call");
        let s = &out.days[0];
        assert_eq!(s.day, day);
        segments += s.segments_sealed;
        rows += s.rows_sealed;
        assert_eq!(segments, c.segments().len() as u64, "day {day}: segments sealed so far");
        assert_eq!(rows, c.segments().iter().map(|s| s.rows).sum::<u64>(), "day {day}: rows sealed so far");
        if s.segments_sealed == 0 {
            quiet_days += 1;
            assert_eq!(s.rows_sealed, 0, "day {day} sealed nothing");
            assert!(s.rows_carried > 0, "day {day}: its evicted flows wait in the state file");
        }
    }
    assert!(quiet_days > 0, "the fixture has a day that seals nothing");
    let quiet = DaySummary { day: 2, segments_sealed: 0, rows_sealed: 0, rows_carried: 46_021, live_flows: 9 };
    assert_eq!(
        quiet.to_string(),
        "0 segment(s) sealed (0 rows), 46021 rows carried unsealed, 9 live flows carried",
        "the text after `campaign: day N/M in T — `"
    );
    let out = c.run(&RunOptions::default()).unwrap();
    assert!(out.completed && out.days.is_empty(), "only the final flush was left");
    std::fs::remove_dir_all(&dir).unwrap();
}
