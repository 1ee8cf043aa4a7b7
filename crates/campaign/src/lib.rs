//! # satwatch-campaign
//!
//! Checkpointed multi-day campaign runner (DESIGN.md §12). The paper's
//! vantage point observed traffic continuously for ~75 days; this
//! crate makes such runs practical by holding the evicted flows of the
//! running day only — what a checkpoint carries over is the live tail,
//! tens of rows — and by surviving `kill -9` at any instant:
//!
//! * **Segments.** Evicted flows collect in the probe's log (a
//!   [`Sealer`]), in eviction order. At every
//!   checkpoint the rows strictly behind the *watermark* (the earlier
//!   of next midnight and the oldest live flow's first packet) are
//!   final — nothing live or future can sort before them — and are
//!   *sealed* (DESIGN.md §10: the call `simulate` makes at every
//!   sweep, here once a day): split off, sorted into canonical
//!   order, folded into the running dataset digest, converted to a
//!   columnar [`FlowFrame`] and written as the next segment,
//!   `segments/seg-<k>.swseg` (`k` is the seal ordinal; per-column
//!   checksums, see [`satwatch_analytics::segment`]). DNS transactions
//!   spill the same way to `dns/dns-<k>.bin`.
//! * **Checkpoints.** After every simulated day the probe's complete
//!   carry-over (live flows, pending DNS, sweep clock) plus the
//!   unsealed tail are written to `state-<day>.bin`, and
//!   `manifest.json` is atomically renamed into place as the commit
//!   point. Resuming re-creates the scenario from the config (every
//!   per-day RNG stream is forked from `(seed, day)` without consuming
//!   parent state, so `days_completed` *is* the full RNG cursor),
//!   imports the probe state, and continues — bit-identically.
//! * **Reports.** At completion the segments are streamed through
//!   [`ReportFold`] in seal order. Seal-order concatenation of
//!   canonically sorted pieces, each wholly behind the next, *is* the
//!   canonical global order (the sort key leads with the first-packet
//!   time), so both the dataset digest and every rendered report are
//!   byte-identical to an all-in-RAM batch run of the same config.

pub mod codec;
pub mod manifest;

pub use manifest::{config_hash, DnsFileInfo, Manifest, SegmentInfo};

use satwatch_analytics::agg::Enrichment;
use satwatch_analytics::segment::{read_segment_file, write_segment_file, SegmentError};
use satwatch_analytics::{FlowFrame, ReportCtx, ReportFold};
use satwatch_monitor::checkpoint::CheckpointError;
use satwatch_monitor::record::{write_flow_rows, write_flows};
use satwatch_monitor::{DnsRecord, FlowRecord, Piece, ProbeState, SealMarks, Sealer, ShardedProbe};
use satwatch_scenario::digest::{fnv1a, write_dns_lines, Fnv1aSink, FNV1A_INIT};
use satwatch_scenario::experiments::{FIG6_SERVICES, MIN_FLOWS};
use satwatch_scenario::{DayRunner, ScenarioConfig};
use satwatch_simcore::SimTime;
use satwatch_telemetry as telemetry;
use satwatch_traffic::Country;
use std::io::Write as _;
use std::path::{Path, PathBuf};

pub const SECS_PER_DAY: u64 = 86_400;

/// Everything that can go wrong while running or resuming a campaign.
#[derive(Debug)]
pub enum CampaignError {
    Io(std::io::Error),
    /// A campaign artifact failed validation (bad magic, checksum
    /// mismatch, malformed manifest, config mismatch…).
    Corrupt(String),
    Segment(SegmentError),
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io(e) => write!(f, "campaign I/O error: {e}"),
            CampaignError::Corrupt(msg) => write!(f, "corrupt campaign state: {msg}"),
            CampaignError::Segment(e) => write!(f, "campaign segment error: {e}"),
            CampaignError::Checkpoint(e) => write!(f, "campaign probe-state error: {e:?}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> CampaignError {
        CampaignError::Io(e)
    }
}

impl From<SegmentError> for CampaignError {
    fn from(e: SegmentError) -> CampaignError {
        CampaignError::Segment(e)
    }
}

impl From<CheckpointError> for CampaignError {
    fn from(e: CheckpointError) -> CampaignError {
        CampaignError::Checkpoint(e)
    }
}

/// Knobs for one [`Campaign::run`] call (not persisted — these shape
/// *this* invocation, never the output bytes).
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Checkpoint day `N` (0-based) and then return instead of
    /// continuing — the CI kill-and-resume simulation, equivalent to
    /// `kill -9` right after day `N`'s checkpoint committed.
    pub abort_after_day: Option<u64>,
    /// Append one telemetry delta snapshot per sealed day (and a
    /// final cumulative one) to this file as a stream of JSON objects.
    pub metrics_out: Option<PathBuf>,
    /// Suppress the per-day progress lines on stderr.
    pub quiet: bool,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions { abort_after_day: None, metrics_out: None, quiet: true }
    }
}

/// What one simulated day left on disk and in RAM: the progress line
/// `run` prints, as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaySummary {
    /// The day just simulated (0-based).
    pub day: u64,
    /// Segments this day's checkpoint sealed: one, holding every
    /// evicted flow behind the watermark.
    pub segments_sealed: u64,
    /// Rows in that segment.
    pub rows_sealed: u64,
    /// Evicted flow records at or past the watermark — the tail that
    /// stays in RAM and is serialised into this day's state file
    /// (tens of rows: the watermark trails midnight by minutes).
    pub rows_carried: u64,
    /// Flows still live in the probe (carried in the state file too).
    pub live_flows: u64,
}

impl std::fmt::Display for DaySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} segment(s) sealed ({} rows), {} rows carried unsealed, {} live flows carried",
            self.segments_sealed, self.rows_sealed, self.rows_carried, self.live_flows
        )
    }
}

/// What a [`Campaign::run`] call achieved.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// `true` when the campaign ran to completion (report written).
    pub completed: bool,
    pub days_completed: u64,
    /// One entry per day simulated by *this* call, in day order.
    pub days: Vec<DaySummary>,
    /// FNV-1a 64 of the full serialized dataset — byte-identical to
    /// [`satwatch_scenario::dataset_digest`] of a batch run. Set when
    /// complete.
    pub dataset_digest: Option<u64>,
    /// FNV-1a 64 of the rendered report text. Set when complete.
    pub report_digest: Option<u64>,
    /// The rendered reports (also written to `<dir>/report.txt`).
    pub report_text: Option<String>,
}

/// A campaign directory: config, progress, and all on-disk artifacts.
pub struct Campaign {
    dir: PathBuf,
    cfg: ScenarioConfig,
    days_completed: u64,
    flow_digest: u64,
    flow_rows: u64,
    segments: Vec<SegmentInfo>,
    dns_files: Vec<DnsFileInfo>,
    complete: bool,
    dataset_digest: Option<u64>,
    report_digest: Option<u64>,
    /// Probe carry-over — the exported state and the rows its
    /// checkpoint left unsealed — loaded by `resume` or left by a `run`
    /// that aborted, consumed by the next `run`.
    probe_carry: Option<(ProbeState, Sealer)>,
}

/// FNV-1a of the flow-log TSV header — the initial flow-digest state.
fn header_digest() -> u64 {
    let mut h = Fnv1aSink(FNV1A_INIT);
    write_flows(&mut h, &[]).expect("hashing cannot fail");
    h.0
}

struct CampaignMetrics {
    days: &'static telemetry::Gauge,
    segment_bytes: &'static telemetry::Gauge,
    rss: &'static telemetry::Gauge,
    rows_carried: &'static telemetry::Gauge,
    state_bytes: &'static telemetry::Gauge,
    sealed: &'static telemetry::Counter,
}

fn metrics() -> &'static CampaignMetrics {
    static M: std::sync::OnceLock<CampaignMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| CampaignMetrics {
        days: telemetry::gauge("campaign_days_completed"),
        segment_bytes: telemetry::gauge("campaign_segment_bytes_total"),
        rss: telemetry::gauge("campaign_rss_bytes"),
        rows_carried: telemetry::gauge("campaign_rows_carried"),
        state_bytes: telemetry::gauge("campaign_state_bytes"),
        sealed: telemetry::counter("campaign_segments_sealed_total"),
    })
}

impl Campaign {
    /// Start a new campaign in `dir` (created if missing). Refuses to
    /// clobber an existing campaign — use [`Campaign::resume`].
    pub fn create(dir: &Path, cfg: ScenarioConfig) -> Result<Campaign, CampaignError> {
        if dir.join("manifest.json").exists() {
            return Err(CampaignError::Corrupt(format!(
                "{} already holds a campaign (manifest.json exists); resume it or pick another directory",
                dir.display()
            )));
        }
        std::fs::create_dir_all(dir.join("segments"))?;
        std::fs::create_dir_all(dir.join("dns"))?;
        let c = Campaign {
            dir: dir.to_path_buf(),
            cfg,
            days_completed: 0,
            flow_digest: header_digest(),
            flow_rows: 0,
            segments: Vec::new(),
            dns_files: Vec::new(),
            complete: false,
            dataset_digest: None,
            report_digest: None,
            probe_carry: None,
        };
        c.write_manifest(None)?;
        Ok(c)
    }

    /// Reopen the campaign in `dir` from its manifest, verifying the
    /// state-file checksum and reloading the probe carry-over and the
    /// unsealed tail (however many rows the state file holds: a binary
    /// that sealed whole days left a day or two of them).
    pub fn resume(dir: &Path) -> Result<Campaign, CampaignError> {
        let path = dir.join("manifest.json");
        let src =
            std::fs::read_to_string(&path).map_err(|e| CampaignError::Corrupt(format!("{}: {e}", path.display())))?;
        let m = Manifest::parse(&src)?;
        let probe_carry = match &m.state_file {
            Some((file, sum)) => {
                let (p, f, d) = codec::read_state_file(&dir.join(file), Some(*sum))?;
                Some((p, Sealer::carrying(codec::flatten(f), codec::flatten(d))))
            }
            None => {
                if m.days_completed > 0 && !m.complete {
                    return Err(CampaignError::Corrupt("manifest mid-campaign but no state file".into()));
                }
                None
            }
        };
        Ok(Campaign {
            dir: dir.to_path_buf(),
            cfg: m.cfg,
            days_completed: m.days_completed,
            flow_digest: m.flow_digest,
            flow_rows: m.flow_rows,
            segments: m.segments,
            dns_files: m.dns_files,
            complete: m.complete,
            dataset_digest: m.dataset_digest,
            report_digest: m.report_digest,
            probe_carry,
        })
    }

    pub fn config(&self) -> ScenarioConfig {
        self.cfg
    }

    pub fn days_completed(&self) -> u64 {
        self.days_completed
    }

    pub fn is_complete(&self) -> bool {
        self.complete
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn segments(&self) -> &[SegmentInfo] {
        &self.segments
    }

    fn segment_path(&self, k: u64) -> PathBuf {
        self.dir.join("segments").join(format!("seg-{k}.swseg"))
    }

    fn dns_path(&self, k: u64) -> PathBuf {
        self.dir.join("dns").join(format!("dns-{k}.bin"))
    }

    /// Run (or continue) the campaign to completion, or up to
    /// `opts.abort_after_day`. Safe to call again after an abort or a
    /// crash-resume; a completed campaign returns its recorded result.
    pub fn run(&mut self, opts: &RunOptions) -> Result<CampaignOutcome, CampaignError> {
        if self.complete {
            return Ok(CampaignOutcome {
                completed: true,
                days_completed: self.days_completed,
                days: Vec::new(),
                dataset_digest: self.dataset_digest,
                report_digest: self.report_digest,
                report_text: None,
            });
        }
        let mut runner = DayRunner::new(self.cfg);
        let enr = runner.enrichment();

        let mut probe = ShardedProbe::new(runner.probe_config(), 1);
        if let Some((state, unsealed)) = self.probe_carry.take() {
            probe.import_state(state, unsealed)?;
        }

        let mut prev_snap = telemetry::Snapshot::take();
        let mut days = Vec::new();
        for day in self.days_completed..self.cfg.days {
            let t0 = std::time::Instant::now();
            runner.run_day(&mut probe, day);

            let _sp = telemetry::span("campaign_checkpoint_us");
            let state = probe.export_state();

            // Seal every row behind the watermark: nothing live or
            // future can still produce a record that sorts before it.
            // The marks are those of the exported state, not of the
            // probe's last sweep: a resumed campaign must cut the same
            // segments, and the state is what it resumes from.
            let next_midnight = SimTime::from_secs((day + 1) * SECS_PER_DAY);
            let marks = SealMarks {
                flows: state.min_live_flow_first().unwrap_or(next_midnight),
                dns: state.min_pending_dns_ts().unwrap_or(next_midnight),
            };
            let sealed_before = self.segments.len();
            self.write_piece(probe.seal(marks.capped(next_midnight)), &enr)?;
            let state_bytes = self.checkpoint(day, &state, &probe)?;
            let rows_carried = probe.unsealed().0.len() as u64;
            let sealed = &self.segments[sealed_before..];
            let summary = DaySummary {
                day,
                segments_sealed: sealed.len() as u64,
                rows_sealed: sealed.iter().map(|s| s.rows).sum(),
                rows_carried,
                live_flows: state.flows.len() as u64,
            };
            drop(_sp);

            let m = metrics();
            m.days.set(self.days_completed as i64);
            m.segment_bytes.set(self.segments.iter().map(|s| s.bytes as i64).sum());
            m.rows_carried.set(rows_carried as i64);
            m.state_bytes.set(state_bytes as i64);
            if let Some(rss) = telemetry::current_rss_bytes() {
                m.rss.set(rss as i64);
            }
            if let Some(path) = &opts.metrics_out {
                let snap = telemetry::Snapshot::take();
                append_metrics_delta(path, day, &snap.delta(&prev_snap))?;
                prev_snap = snap;
            }
            if !opts.quiet {
                eprintln!(
                    "campaign: day {}/{} in {:.1?} — {summary}, rss {} MiB",
                    self.days_completed,
                    self.cfg.days,
                    t0.elapsed(),
                    telemetry::current_rss_bytes().unwrap_or(0) / (1 << 20),
                );
            }
            days.push(summary);
            if opts.abort_after_day == Some(day) {
                let (flows, dns) = probe.unsealed();
                self.probe_carry = Some((state, Sealer::carrying(flows.to_vec(), dns.to_vec())));
                return Ok(CampaignOutcome {
                    completed: false,
                    days_completed: self.days_completed,
                    days,
                    dataset_digest: None,
                    report_digest: None,
                    report_text: None,
                });
            }
        }

        // All days simulated: flush the probe, whose closing seal is
        // the last piece, and fold the final digest and reports.
        let (flows, dns) = probe.finish();
        self.write_piece(Piece { flows, dns }, &enr)?;

        let dns = self.read_all_dns()?;
        let mut digest = Fnv1aSink(self.flow_digest);
        write_dns_lines(&mut digest, &dns).expect("hashing cannot fail");
        let dataset_digest = digest.0;

        let (report_text, report_digest) = self.fold_report(&enr, &dns)?;
        std::fs::write(self.dir.join("report.txt"), &report_text)?;

        self.complete = true;
        self.dataset_digest = Some(dataset_digest);
        self.report_digest = Some(report_digest);
        self.write_manifest(None)?;
        self.remove_stale_state_files(None)?;
        metrics().days.set(self.days_completed as i64);

        if let Some(path) = &opts.metrics_out {
            append_metrics_final(path, &telemetry::Snapshot::take())?;
        }
        if !opts.quiet {
            eprintln!("campaign: complete — dataset digest {dataset_digest:016x}, report digest {report_digest:016x}");
        }
        Ok(CampaignOutcome {
            completed: true,
            days_completed: self.days_completed,
            days,
            dataset_digest: Some(dataset_digest),
            report_digest: Some(report_digest),
            report_text: Some(report_text),
        })
    }

    /// Write a sealed piece as the next segment and the next DNS spill.
    fn write_piece(&mut self, piece: Piece, enr: &Enrichment) -> Result<(), CampaignError> {
        self.write_segment(piece.flows, enr)?;
        self.write_dns_spill(&piece.dns)
    }

    /// Fold canonically sorted `flows` into the digest and write them
    /// as the next segment.
    fn write_segment(&mut self, flows: Vec<FlowRecord>, enr: &Enrichment) -> Result<(), CampaignError> {
        let mut digest = Fnv1aSink(self.flow_digest);
        write_flow_rows(&mut digest, &flows).expect("hashing cannot fail");
        self.flow_digest = digest.0;
        let rows = flows.len() as u64;
        self.flow_rows += rows;
        let frame = FlowFrame::from_records(&flows, enr);
        // the frame is the segment: the records go before it is encoded
        drop(flows);
        let k = self.segments.len() as u64;
        let (bytes, fnv) = write_segment_file(&self.segment_path(k), &frame)?;
        self.segments.push(SegmentInfo { day: k, rows, bytes, fnv });
        metrics().sealed.inc();
        Ok(())
    }

    /// Write canonically sorted `recs` as the next DNS spill.
    fn write_dns_spill(&mut self, recs: &[DnsRecord]) -> Result<(), CampaignError> {
        let k = self.dns_files.len() as u64;
        let fnv = codec::write_dns_file(&self.dns_path(k), recs)?;
        self.dns_files.push(DnsFileInfo { day: k, records: recs.len() as u64, fnv });
        Ok(())
    }

    /// Commit one day — `state` and the rows `probe` holds unsealed —
    /// state file first, manifest rename last (the commit point), then
    /// garbage-collect superseded state files. Returns the state file's
    /// size.
    fn checkpoint(&mut self, day: u64, state: &ProbeState, probe: &ShardedProbe) -> Result<u64, CampaignError> {
        let name = format!("state-{day}.bin");
        let path = self.dir.join(&name);
        let (flows, dns) = probe.unsealed();
        let sum =
            codec::write_state_file(&path, state, &codec::by_day(flows, |f| f.first), &codec::by_day(dns, |d| d.ts))?;
        self.days_completed = day + 1;
        self.write_manifest(Some((name.clone(), sum)))?;
        self.remove_stale_state_files(Some(&name))?;
        Ok(std::fs::metadata(&path)?.len())
    }

    fn write_manifest(&self, state_file: Option<(String, u64)>) -> Result<(), CampaignError> {
        let m = Manifest {
            cfg: self.cfg,
            config_hash: config_hash(&self.cfg),
            days_completed: self.days_completed,
            flow_digest: self.flow_digest,
            flow_rows: self.flow_rows,
            segments: self.segments.clone(),
            dns_files: self.dns_files.clone(),
            state_file,
            complete: self.complete,
            dataset_digest: self.dataset_digest,
            report_digest: self.report_digest,
        };
        let tmp = self.dir.join("manifest.json.tmp");
        std::fs::write(&tmp, m.to_json())?;
        std::fs::rename(&tmp, self.dir.join("manifest.json"))?;
        Ok(())
    }

    fn remove_stale_state_files(&self, keep: Option<&str>) -> Result<(), CampaignError> {
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("state-") && name.ends_with(".bin") && Some(name.as_ref()) != keep {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(())
    }

    /// Load every sealed DNS spill in seal order (checksums verified).
    fn read_all_dns(&self) -> Result<Vec<DnsRecord>, CampaignError> {
        let mut dns = Vec::new();
        for info in &self.dns_files {
            dns.extend(codec::read_dns_file(&self.dns_path(info.day), Some(info.fnv))?);
        }
        Ok(dns)
    }

    /// Stream the sealed segments through an incremental report fold
    /// — one segment's frame in memory at a time, never the whole
    /// dataset.
    /// Returns the rendered text and its digest, byte-identical to
    /// the batch `report_all` over the full frame.
    fn fold_report(&self, enr: &Enrichment, dns: &[DnsRecord]) -> Result<(String, u64), CampaignError> {
        let ctx = ReportCtx { enrichment: enr, countries: &Country::TOP6 };
        let mut fold = ReportFold::new(dns, ctx);
        for info in &self.segments {
            let frame = read_segment_file(&self.segment_path(info.day), Some(info.fnv))?;
            fold.absorb_frame(&frame);
        }
        let reports = fold.finish(&FIG6_SERVICES, MIN_FLOWS);
        let text = reports.render_all();
        let digest = fnv1a(text.as_bytes());
        Ok((text, digest))
    }
}

/// Append one per-day telemetry delta to the metrics stream. Each
/// entry is a complete JSON object; the file is a concatenated stream
/// of them (one campaign day each, plus a final cumulative snapshot).
fn append_metrics_delta(path: &Path, day: u64, delta: &telemetry::Snapshot) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{{\"campaign_day\": {day}, \"delta\": {}}}", delta.to_json().trim_end())
}

fn append_metrics_final(path: &Path, snap: &telemetry::Snapshot) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{{\"campaign_final\": true, \"total\": {}}}", snap.to_json().trim_end())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    /// Rows and marks sit on one grid, ten slots a day, coarse enough
    /// that canonical keys repeat and that a mark often equals a row's
    /// timestamp.
    const SLOT: u64 = SECS_PER_DAY / 10;

    /// Seal `evicted` the way a campaign does, one checkpoint per mark
    /// and a final "seal all", and hold every step to the rule: what
    /// stays is exactly the rows at or past the mark, in the order they
    /// had; what was sealed, piece after piece, is the stable canonical
    /// sort of everything evicted. (The probe's log itself, under marks
    /// in any order, is `proptest_monitor.rs`'s; this is the campaign's
    /// use of it, kills and resumes included.)
    ///
    /// Row `i` is evicted `delay[i]` checkpoints in, or just before the
    /// first checkpoint whose mark passes it if that comes sooner (no
    /// flow is evicted after the watermark has passed its first
    /// packet). `resumed[step]` carries the tail through the state
    /// file's day buckets into a fresh sealer, as a kill and resume
    /// after that checkpoint would. `seal` is one checkpoint's call:
    /// a sealer carrying the rows, sealed at the mark, gives the piece
    /// and what is still unsealed.
    fn check_seal_sequence<T: Clone + PartialEq + std::fmt::Debug>(
        evicted: &[T],
        delay: &[usize],
        mut mark_slots: Vec<u64>,
        resumed: &[bool],
        ts: impl Fn(&T) -> SimTime + Copy,
        seal: impl Fn(Vec<T>, Option<SealMarks>) -> (Vec<T>, Vec<T>),
    ) {
        mark_slots.sort_unstable();
        let marks: Vec<Option<SimTime>> =
            mark_slots.into_iter().map(|s| Some(SimTime::from_secs(s * SLOT))).chain([None]).collect();
        let step_of = |i: usize| {
            let passed_at =
                marks.iter().position(|m| m.is_none_or(|m| ts(&evicted[i]) < m)).expect("the last seals all");
            passed_at.min(delay[i % delay.len()])
        };
        let (mut unsealed, mut sealed, mut eviction_order) = (Vec::new(), Vec::new(), Vec::new());
        for (step, &mark) in marks.iter().enumerate() {
            let arrivals: Vec<T> =
                (0..evicted.len()).filter(|&i| step_of(i) == step).map(|i| evicted[i].clone()).collect();
            eviction_order.extend_from_slice(&arrivals);
            unsealed.extend(arrivals);
            let kept: Vec<T> = unsealed.iter().filter(|r| mark.is_some_and(|m| ts(r) >= m)).cloned().collect();
            let (piece, tail) = seal(unsealed, mark.map(|m| SealMarks { flows: m, dns: m }));
            assert_eq!(tail, kept, "step {step}: the tail is the rows at or past the mark, order kept");
            sealed.extend(piece);
            unsealed = if resumed[step % resumed.len()] { codec::flatten(codec::by_day(&tail, ts)) } else { tail };
        }
        assert!(unsealed.is_empty(), "the last seal takes everything");
        let whole = seal(eviction_order, None).0;
        assert_eq!(sealed, whole, "sealed pieces in seal order are the canonical order of the whole");
    }

    proptest! {
        /// Rows over four days; `c2s_bytes` tells rows of one canonical
        /// key apart, so a seal that reordered a tie fails.
        #[test]
        fn sealed_flow_pieces_concatenate_to_the_canonical_order(
            rows in proptest::collection::vec((0u64..40, 0u8..3), 0..120),
            delay in proptest::collection::vec(0usize..5, 1..8),
            marks in proptest::collection::vec(0u64..=40, 0..6),
            resumed in proptest::collection::vec(any::<bool>(), 1..4),
        ) {
            let evicted: Vec<FlowRecord> = rows
                .iter()
                .enumerate()
                .map(|(i, &(slot, host))| FlowRecord {
                    first: SimTime::from_secs(slot * SLOT),
                    c2s_bytes: i as u64,
                    ..codec::tests::flow(host)
                })
                .collect();
            check_seal_sequence(&evicted, &delay, marks, &resumed, |f| f.first, |rows, marks| {
                let mut sealer = Sealer::carrying(rows, Vec::new());
                (sealer.seal(marks).flows, sealer.unsealed().0.to_vec())
            });
        }

        /// The same for the DNS log under `dns_cmp`, `response_ms`
        /// telling the repeats apart.
        #[test]
        fn sealed_dns_pieces_concatenate_to_the_canonical_order(
            rows in proptest::collection::vec((0u64..40, 0u8..3), 0..120),
            delay in proptest::collection::vec(0usize..5, 1..8),
            marks in proptest::collection::vec(0u64..=40, 0..6),
            resumed in proptest::collection::vec(any::<bool>(), 1..4),
        ) {
            let logged: Vec<DnsRecord> = rows
                .iter()
                .enumerate()
                .map(|(i, &(slot, host))| DnsRecord {
                    client: Ipv4Addr::new(77, 0, 0, host),
                    resolver: Ipv4Addr::new(8, 8, 8, 8),
                    query: "example.org".into(),
                    ts: SimTime::from_secs(slot * SLOT),
                    response_ms: Some(i as f64),
                    answers: Vec::new(),
                })
                .collect();
            check_seal_sequence(&logged, &delay, marks, &resumed, |d| d.ts, |rows, marks| {
                let mut sealer = Sealer::carrying(Vec::new(), rows);
                (sealer.seal(marks).dns, sealer.unsealed().1.to_vec())
            });
        }
    }
}
