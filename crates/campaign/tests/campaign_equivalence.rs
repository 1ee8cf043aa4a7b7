//! The campaign engine's two load-bearing guarantees, end to end:
//!
//! 1. A multi-day campaign — sealed at each day's watermark, spilled
//!    to disk, report-folded from sealed segments — produces the
//!    *byte-same* dataset digest and rendered reports as an all-in-RAM
//!    batch run of the identical config.
//! 2. Killing the campaign after any checkpoint and resuming (even
//!    with another worker count for the final fold) reproduces those
//!    bytes exactly.

use satwatch_analytics::FlowFrame;
use satwatch_campaign::codec::{write_state_file, DnsBuckets, FlowBuckets, DNS_FILE_MAGIC, STATE_FILE_MAGIC};
use satwatch_campaign::store::FileError;
use satwatch_campaign::{Campaign, CampaignError, DaySummary, Manifest, RunOptions, SECS_PER_DAY};
use satwatch_monitor::checkpoint::{put_bytes, put_u32, put_u64, CheckpointError};
use satwatch_monitor::{Probe, ProbeState};
use satwatch_scenario::digest::fnv1a;
use satwatch_scenario::experiments::paper_reports_columnar;
use satwatch_scenario::{dataset_digest, run, DayRunner, ScenarioConfig};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swcampaign-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Write `body` and its trailing FNV-1a to `path`, as a state file or
/// DNS spill ends; returns the FNV-1a.
fn write_trailed(path: &Path, mut body: Vec<u8>) -> u64 {
    let sum = fnv1a(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    std::fs::write(path, body).unwrap();
    sum
}

fn cfg() -> ScenarioConfig {
    ScenarioConfig::tiny().with_customers(24).with_days(3).with_seed(0x5eed_0001)
}

/// Batch reference for [`cfg`]: dataset digest, report digest and flow
/// count, all in RAM; one run serves every test of the binary.
fn batch_digests() -> (u64, u64, u64) {
    static BATCH: OnceLock<(u64, u64, u64)> = OnceLock::new();
    *BATCH.get_or_init(|| {
        let ds = run(cfg());
        let frame = FlowFrame::from_records(&ds.flows, &ds.enrichment);
        let report = paper_reports_columnar(&frame, &ds.dns, &ds.enrichment, 10, 1).render_all();
        (dataset_digest(&ds), fnv1a(report.as_bytes()), ds.flows.len() as u64)
    })
}

#[test]
fn campaign_is_byte_identical_to_batch() {
    let cfg = cfg();
    let dir = tmp_dir("batch-eq");
    let mut c = Campaign::create(&dir, cfg).unwrap();
    let out = c.run(&RunOptions::default()).unwrap();
    assert!(out.completed);
    assert_eq!(out.days_completed, cfg.days);

    let (want_ds, want_rep, want_rows) = batch_digests();
    assert_eq!(out.dataset_digest, Some(want_ds), "dataset digest diverged from the batch run");
    assert_eq!(out.report_digest, Some(want_rep), "report digest diverged from the batch run");

    // one segment per day and one for the final flush, and the row
    // total matches the batch flow count
    assert!(c.segments().len() as u64 >= cfg.days);
    let rows: u64 = c.segments().iter().map(|s| s.rows).sum();
    assert_eq!(rows, want_rows);
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
    let (want_ds, want_rep, _) = batch_digests();

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
    // final resume
    let out = {
        let mut c = Campaign::resume(&dir).unwrap();
        assert_eq!(c.days_completed(), 2);
        c.run(&RunOptions::default()).unwrap()
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

/// A state file whose checksums hold but whose one flow bucket claims
/// 2³² − 1 rows is refused as truncated before anything is reserved
/// for those rows: a count read from disk is bounded by the bytes left.
#[test]
fn a_state_file_claiming_more_rows_than_it_holds_is_a_typed_error() {
    let cfg = ScenarioConfig::tiny().with_customers(4).with_days(2).with_seed(7);
    let dir = tmp_dir("huge-count");
    {
        let mut c = Campaign::create(&dir, cfg).unwrap();
        c.run(&RunOptions { abort_after_day: Some(0), ..RunOptions::default() }).unwrap();
    }
    let mut bytes = STATE_FILE_MAGIC.to_vec();
    put_bytes(&mut bytes, &ProbeState::empty().encode());
    put_u32(&mut bytes, 1); // one flow bucket:
    put_u64(&mut bytes, 0); // day 0,
    put_u32(&mut bytes, u32::MAX); // 2³² − 1 rows, and none follow
    put_u32(&mut bytes, 0); // no DNS bucket
    let sum = write_trailed(&dir.join("state-0.bin"), bytes);
    let manifest = dir.join("manifest.json");
    let m = Manifest::parse(&std::fs::read_to_string(&manifest).unwrap()).unwrap();
    let m = Manifest { state_file: Some(("state-0.bin".into(), sum)), ..m };
    std::fs::write(&manifest, m.to_json()).unwrap();
    let err = Campaign::resume(&dir).err().expect("the state file must be refused");
    assert!(matches!(err, CampaignError::File { error: FileError::Decode(CheckpointError::Truncated), .. }), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("state-0.bin") && msg.ends_with("truncated mid-field"), "the error names its file: {msg}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same for a DNS spill: one whose checksums hold but whose record
/// count is 2³² − 1 with no record behind it is refused as truncated
/// when the run that completes re-scans it, and the error names the
/// spill, not the probe state.
#[test]
fn a_dns_spill_claiming_more_records_than_it_holds_is_a_typed_error() {
    let cfg = ScenarioConfig::tiny().with_customers(4).with_days(2).with_seed(7);
    let dir = tmp_dir("huge-dns-count");
    {
        let mut c = Campaign::create(&dir, cfg).unwrap();
        c.run(&RunOptions { abort_after_day: Some(0), ..RunOptions::default() }).unwrap();
    }
    let mut bytes = DNS_FILE_MAGIC.to_vec();
    put_u32(&mut bytes, u32::MAX); // 2³² − 1 records, and none follow
    let fnv = write_trailed(&dir.join("dns").join("dns-0.bin"), bytes);
    let manifest = dir.join("manifest.json");
    let mut m = Manifest::parse(&std::fs::read_to_string(&manifest).unwrap()).unwrap();
    m.dns_files[0].fnv = fnv;
    std::fs::write(&manifest, m.to_json()).unwrap();
    let err = Campaign::resume(&dir).unwrap().run(&RunOptions::default()).expect_err("the spill must be refused");
    assert!(matches!(err, CampaignError::File { error: FileError::Decode(CheckpointError::Truncated), .. }), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("dns-0.bin") && !msg.contains("state"), "the error names the spill: {msg}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A flipped byte in a segment or a DNS spill that an earlier run
/// committed fails the resumed run's re-scan with an error naming that
/// file, whichever the file is.
#[test]
fn a_flipped_byte_in_a_committed_file_is_an_error_naming_it() {
    let cfg = ScenarioConfig::tiny().with_customers(4).with_days(3).with_seed(7);
    for name in ["segments/seg-1.swseg", "dns/dns-1.bin"] {
        let dir = tmp_dir("flipped");
        let mut c = Campaign::create(&dir, cfg).unwrap();
        c.run(&RunOptions { abort_after_day: Some(1), ..RunOptions::default() }).unwrap();
        let path = dir.join(name);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        let err = Campaign::resume(&dir).unwrap().run(&RunOptions::default()).expect_err("the flip must be caught");
        assert!(matches!(&err, CampaignError::File { file, .. } if *file == path), "{err}");
        assert!(err.to_string().starts_with(&format!("campaign file {}: ", path.display())), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The per-day summary (what the progress line prints): every simulated
/// day seals one segment holding all but the live tail of that day's
/// evictions, the state file that carries the tail is the smaller
/// artifact, and the running totals agree with the manifest after every
/// day. The per-day `--metrics-out` delta names every campaign
/// instrument, the two gauges of the tail included. The one `Campaign`
/// value runs on after every abort in the same process — the tail
/// crosses each `run` call in the campaign, not in a probe — and ends
/// on the batch digests.
#[test]
fn day_summaries_count_what_each_day_sealed() {
    let cfg = cfg();
    let dir = tmp_dir("summaries");
    let metrics = dir.join("metrics.json");
    let mut c = Campaign::create(&dir, cfg).unwrap();
    let (mut segments, mut rows) = (0, 0);
    for day in 0..cfg.days {
        let opts =
            RunOptions { abort_after_day: Some(day), metrics_out: Some(metrics.clone()), ..RunOptions::default() };
        let out = c.run(&opts).unwrap();
        assert_eq!(out.days.len(), 1, "one summary per day simulated by the call");
        let s = &out.days[0];
        assert_eq!(s.day, day);
        assert_eq!(s.segments_sealed, 1, "day {day} seals one segment");
        assert!(s.rows_carried * 50 < s.rows_sealed, "day {day} carries the live tail, not a day: {s}");
        segments += s.segments_sealed;
        rows += s.rows_sealed;
        assert_eq!(segments, c.segments().len() as u64, "day {day}: segments sealed so far");
        assert_eq!(rows, c.segments().iter().map(|s| s.rows).sum::<u64>(), "day {day}: rows sealed so far");
        let sealed = c.segments().last().unwrap();
        assert_eq!((sealed.day, sealed.rows), (day, s.rows_sealed), "the manifest entry of day {day}'s segment");
        let state_bytes = std::fs::metadata(dir.join(format!("state-{day}.bin"))).unwrap().len();
        assert!(state_bytes < sealed.bytes, "day {day}: state file {state_bytes} B, segment {} B", sealed.bytes);
    }
    // a stream of JSON objects, one per day
    let deltas = std::fs::read_to_string(&metrics).unwrap();
    let deltas: Vec<&str> = deltas.split("{\"campaign_day\": ").skip(1).collect();
    assert_eq!(deltas.len() as u64, cfg.days, "one delta per day");
    for (day, delta) in deltas.iter().enumerate() {
        assert!(delta.starts_with(&format!("{day},")), "deltas are appended in day order");
        for name in [
            "campaign_days_completed",
            "campaign_segment_bytes_total",
            "campaign_rss_bytes",
            "campaign_rows_carried",
            "campaign_state_bytes",
            "campaign_segments_sealed_total",
            "campaign_checkpoint_us",
        ] {
            assert!(delta.contains(&format!("\"{name}\"")), "day {day}'s delta lacks {name}");
        }
    }
    let quiet = DaySummary { day: 2, segments_sealed: 0, rows_sealed: 0, rows_carried: 46_021, live_flows: 9 };
    assert_eq!(
        quiet.to_string(),
        "0 segment(s) sealed (0 rows), 46021 rows carried unsealed, 9 live flows carried",
        "the text after `campaign: day N/M in T — `"
    );
    let out = c.run(&RunOptions::default()).unwrap();
    assert!(out.completed && out.days.is_empty(), "only the final flush was left");
    assert_eq!(c.segments().len() as u64, cfg.days + 1, "the final flush seals the last tail");
    let (want_ds, want_rep, _) = batch_digests();
    assert_eq!(out.dataset_digest, Some(want_ds), "dataset digest diverged from the batch run");
    assert_eq!(out.report_digest, Some(want_rep), "report digest diverged from the batch run");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A directory checkpointed by a binary that sealed whole days — no
/// segment yet after day 0, every evicted flow of the day in the state
/// file's day buckets — resumes and completes to the batch bytes. The
/// day's DNS log is split the way a still older binary left it: its
/// first half in the buckets, the rest drained into the probe state,
/// so the resumed log is the bucket rows, then the state's DNS log,
/// then the rows still to come.
#[test]
fn a_day_bucket_checkpoint_of_an_older_binary_resumes_to_the_batch_digests() {
    let cfg = cfg();
    let dir = tmp_dir("day-buckets");
    drop(Campaign::create(&dir, cfg).unwrap());

    // day 0 as that binary ran it: evictions bucketed by the day of
    // their first packet, in eviction order
    let mut runner = DayRunner::new(cfg);
    let mut probe = Probe::new(runner.probe_config());
    runner.run_day(&mut probe, 0);
    let mut state = probe.export_state();
    let (evicted, logged) = probe.unsealed();
    let (bucketed, drained) = logged.split_at(logged.len() / 2);
    state.dns_log = drained.to_vec();
    let (mut flows, mut dns) = (FlowBuckets::new(), DnsBuckets::new());
    for f in evicted {
        flows.entry(f.first.as_secs() / SECS_PER_DAY).or_default().push(f.clone());
    }
    for d in bucketed {
        dns.entry(d.ts.as_secs() / SECS_PER_DAY).or_default().push(d.clone());
    }
    assert!(flows[&0].len() > 20_000, "a day of rows in the day-0 bucket");
    let sum = write_state_file(&dir.join("state-0.bin"), &state, &flows, &dns).unwrap();
    let manifest = dir.join("manifest.json");
    let fresh = Manifest::parse(&std::fs::read_to_string(&manifest).unwrap()).unwrap();
    assert!(fresh.segments.is_empty() && fresh.dns_files.is_empty());
    let day_one = Manifest { days_completed: 1, state_file: Some(("state-0.bin".into(), sum)), ..fresh };
    std::fs::write(&manifest, day_one.to_json()).unwrap();

    let mut c = Campaign::resume(&dir).unwrap();
    assert_eq!((c.days_completed(), c.segments().len()), (1, 0));
    let out = c.run(&RunOptions::default()).unwrap();
    let (want_ds, want_rep, _) = batch_digests();
    assert_eq!(out.dataset_digest, Some(want_ds), "dataset digest diverged from the batch run");
    assert_eq!(out.report_digest, Some(want_rep), "report digest diverged from the batch run");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An `abort_after_day` the run never reaches is refused before any
/// day runs, whether it lies past the last day or behind the days a
/// resumed campaign has already run; the day a resumed run starts with
/// and the last day stay legal.
#[test]
fn an_abort_after_a_day_the_run_never_reaches_is_refused() {
    let cfg = ScenarioConfig::tiny().with_customers(4).with_days(3).with_seed(7);
    let dir = tmp_dir("abort-range");
    let abort = |day| RunOptions { abort_after_day: Some(day), ..RunOptions::default() };
    let refused = |c: &mut Campaign, day| match c.run(&abort(day)) {
        Err(CampaignError::AbortOutOfReach { day: d, days_completed, days }) => (d, days_completed, days),
        other => panic!("abort after day {day} must be refused, got {other:?}"),
    };
    let mut c = Campaign::create(&dir, cfg).unwrap();
    assert_eq!(refused(&mut c, 3), (3, 0, 3), "past the last day");
    assert_eq!(c.days_completed(), 0, "refused before any day runs");
    assert!(c.segments().is_empty());
    assert!(!c.run(&abort(0)).unwrap().completed);

    let mut c = Campaign::resume(&dir).unwrap();
    assert_eq!(refused(&mut c, 0), (0, 1, 3), "behind the days already run");
    let err = c.run(&abort(0)).unwrap_err().to_string();
    assert!(err.contains("day 0") && err.contains("days 1 to 2"), "{err}");
    assert_eq!((c.days_completed(), c.segments().len()), (1, 1), "refused before any day runs");
    // the day the run starts with, then the last day
    assert_eq!(c.run(&abort(1)).unwrap().days_completed, 2);
    let mut c = Campaign::resume(&dir).unwrap();
    let out = c.run(&abort(2)).unwrap();
    assert!(!out.completed && out.days_completed == 3, "the last day is a legal abort");
    let mut c = Campaign::resume(&dir).unwrap();
    assert_eq!(refused(&mut c, 2), (2, 3, 3), "no day is left to run");
    assert!(c.run(&RunOptions::default()).unwrap().completed);
    std::fs::remove_dir_all(&dir).unwrap();
}
