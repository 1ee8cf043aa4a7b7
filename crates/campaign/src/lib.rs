//! # satwatch-campaign
//!
//! Checkpointed multi-day campaign runner (DESIGN.md §7). The paper's
//! vantage point observed traffic continuously for ~75 days; this
//! crate makes such runs practical by holding no day of records — the
//! probe's log is sealed at every sweep, as `simulate` seals it — and
//! by surviving `kill -9` at any instant:
//!
//! * **Segments.** At every sweep the rows strictly behind the probe's
//!   *watermarks* (for flows, the earlier of the coming midnight and
//!   the oldest live flow's first packet) are final — nothing live or
//!   future can sort before them — and are *sealed* (DESIGN.md §5)
//!   into a canonically sorted piece. Each piece is folded into the
//!   running dataset digest at once and its flows become rows of the
//!   day's segment, built up as columns (a [`FrameBuilder`]); its DNS
//!   transactions are appended to the day's spill, as bytes. At the
//!   day's checkpoint a last piece is sealed behind the exported
//!   state's marks, and the day's rows are written as the next
//!   segment, `segments/seg-<k>.swseg` (`k` is the seal ordinal;
//!   per-column checksums, see [`satwatch_analytics::segment`]), its
//!   DNS as `dns/dns-<k>.bin`. Pieces sealed at non-decreasing marks
//!   concatenate to what one seal at the checkpoint would release, so
//!   the files are those of a day sealed whole.
//! * **Checkpoints.** After every simulated day the probe's complete
//!   carry-over (live flows, pending DNS, sweep clock) plus the
//!   unsealed tail are written to `state-<day>.bin`, and
//!   `manifest.json` is atomically renamed into place as the commit
//!   point. Resuming re-creates the scenario from the config (every
//!   per-day RNG stream is forked from `(seed, day)` without consuming
//!   parent state, so `days_completed` *is* the full RNG cursor),
//!   imports the probe state, and continues — bit-identically.
//! * **Store.** Every file of the campaign directory is named, written
//!   (a temp file, then a rename), read back against its checksum and
//!   removed by [`store`], and every error it returns names its file
//!   ([`CampaignError::File`]). Its tests inject faults at every one of
//!   its operations and hold a resume to the clean run.
//! * **Reports.** A run that will complete folds every piece into a
//!   [`ReportFold`] as it is sealed — the one fold `report` uses: the
//!   DNS records at the piece's DNS mark, then the open segment's rows,
//!   [`FOLD_ROWS`] at a time; the fold absorbs those its DNS mark has
//!   passed and holds the rest, and at a checkpoint the written segment
//!   is handed over, its rows the DNS mark has not reached carried in
//!   RAM. Completion is a `finish()`: no segment is read back. A run
//!   that starts mid-campaign first re-scans what earlier runs sealed;
//!   a run that stops early folds nothing. Records, not rows, wait for
//!   the marks here (in the probe's sealer): the unsealed tail goes
//!   into the state file, which stores records. Seal-order concatenation of canonically sorted pieces,
//!   each wholly behind the next, *is* the canonical global order (the
//!   sort key leads with the first-packet time), so both the dataset
//!   digest and every rendered report are byte-identical to an
//!   all-in-RAM batch run of the same config.

pub mod codec;
pub mod manifest;
pub mod store;

pub use manifest::{config_hash, DnsFileInfo, Manifest, SegmentInfo};

use satwatch_analytics::agg::Enrichment;
use satwatch_analytics::{FrameBuilder, ReportCtx, ReportFold, FOLD_ROWS};
use satwatch_monitor::record::{encode_flow_row, write_flows};
use satwatch_monitor::{DnsRecord, Piece, Probe, ProbeState, SealMarks, Sealer};
use satwatch_scenario::digest::{fnv1a, fnv1a_update, write_dns_lines, Fnv1aSink, FNV1A_INIT};
use satwatch_scenario::experiments::{FIG6_SERVICES, MIN_FLOWS};
use satwatch_scenario::{DayRunner, ScenarioConfig};
use satwatch_simcore::time::SECS_PER_DAY;
use satwatch_simcore::SimTime;
use satwatch_telemetry as telemetry;
use satwatch_traffic::Country;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use store::{named, FileError, Store};

/// Everything that can go wrong while running or resuming a campaign.
#[derive(Debug)]
pub enum CampaignError {
    /// `file`, in the campaign directory, could not be created,
    /// written, read or removed, or does not hold what the campaign
    /// writes there.
    File { file: PathBuf, error: FileError },
    /// [`RunOptions::abort_after_day`] names a day the run will never
    /// finish: it simulates days `days_completed..days` (none, when
    /// the campaign has run them all). Refused before any day runs.
    AbortOutOfReach { day: u64, days_completed: u64, days: u64 },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::File { file, error } => write!(f, "campaign file {}: {error}", file.display()),
            CampaignError::AbortOutOfReach { day, days_completed, days } if days_completed < days => {
                write!(f, "cannot abort after day {day}: this run simulates days {days_completed} to {}", days - 1)
            }
            CampaignError::AbortOutOfReach { day, days, .. } => {
                write!(f, "cannot abort after day {day}: all {days} days have run")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// Knobs for one [`Campaign::run`] call (not persisted — these shape
/// *this* invocation, never the output bytes).
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Checkpoint day `N` (0-based) and then return instead of
    /// continuing — the CI kill-and-resume simulation, equivalent to
    /// `kill -9` right after day `N`'s checkpoint committed. `N` must
    /// be a day this run simulates
    /// ([`CampaignError::AbortOutOfReach`] otherwise).
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
    /// flow the day's seals released.
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

/// A campaign directory: its store and the manifest last committed
/// there, or about to be.
pub struct Campaign {
    store: Store,
    m: Manifest,
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

/// What the probe sealed since the last checkpoint — the next
/// segment's rows, as columns, and the next DNS spill, as bytes — with
/// the flow digest over every row sealed so far and, in a run that
/// will complete, the report fold.
struct Sealing<'e> {
    /// The open segment: `builder.sealed()`.
    builder: FrameBuilder,
    dns: codec::DnsSpill,
    /// FNV-1a state of the flow log through the last row sealed, and
    /// the rows it covers.
    flow_digest: u64,
    flow_rows: u64,
    /// The flow-log line being hashed, one row at a time.
    line: Vec<u8>,
    fold: Option<ReportFold<'e>>,
}

impl<'e> Sealing<'e> {
    /// Sealing that continues `c`'s digest, feeding `fold` if given.
    fn new(c: &Campaign, enr: &Enrichment, fold: Option<ReportFold<'e>>) -> Sealing<'e> {
        Sealing {
            builder: FrameBuilder::new(enr.clone()),
            dns: codec::DnsSpill::new(),
            flow_digest: c.m.flow_digest,
            flow_rows: c.m.flow_rows,
            line: Vec::new(),
            fold,
        }
    }

    /// Take in the next piece, sealed at `marks` (`None`: the closing
    /// seal, every row): its flows are hashed and become rows of the
    /// open segment, its DNS goes to the fold and the spill, and the
    /// fold absorbs the rows its DNS mark has passed once there are
    /// [`FOLD_ROWS`] of them.
    fn absorb(&mut self, piece: Piece, marks: Option<SealMarks>) {
        for f in &piece.flows {
            self.line.clear();
            encode_flow_row(&mut self.line, f);
            self.flow_digest = fnv1a_update(self.flow_digest, &self.line);
            self.builder.push(f);
        }
        self.flow_rows += piece.flows.len() as u64;
        // every flow of the piece is behind its flow mark
        self.builder.seal_behind(marks.map(|m| m.flows));
        if let Some(fold) = &mut self.fold {
            fold.absorb_dns(&piece.dns, marks.map_or(SimTime::MAX, |m| m.dns));
            fold.absorb_sealed(self.builder.sealed(), FOLD_ROWS);
        }
        self.dns.append(&piece.dns);
    }
}

/// The DNS mark a run resumed from `state` and `unsealed` DNS starts
/// at, on day `day`: no DNS record before it is still to be sealed.
/// Pending queries log at their `asked_at`, the next day's at or after
/// midnight, and the unsealed tail is what it is (a whole day of it in
/// a directory an older binary checkpointed).
fn resume_dns_mark(state: &ProbeState, unsealed: &[DnsRecord], day: u64) -> SimTime {
    let midnight = SimTime::from_secs(day * SECS_PER_DAY);
    let pending = state.min_pending_dns_ts().unwrap_or(midnight);
    unsealed.iter().map(|d| d.ts).fold(pending.min(midnight), SimTime::min)
}

impl Campaign {
    /// Start a new campaign in `dir` (created if missing). Refuses to
    /// clobber an existing campaign — use [`Campaign::resume`].
    pub fn create(dir: &Path, cfg: ScenarioConfig) -> Result<Campaign, CampaignError> {
        let store = Store::create(dir)?;
        let m = Manifest {
            cfg,
            config_hash: config_hash(&cfg),
            days_completed: 0,
            flow_digest: header_digest(),
            flow_rows: 0,
            segments: Vec::new(),
            dns_files: Vec::new(),
            state_file: None,
            complete: false,
            dataset_digest: None,
            report_digest: None,
        };
        store.commit(&m)?;
        Ok(Campaign { store, m, probe_carry: None })
    }

    /// Reopen the campaign in `dir` from its manifest, verifying the
    /// state-file checksum and reloading the probe carry-over and the
    /// unsealed tail (however many rows the state file holds: a binary
    /// that sealed whole days left a day or two of them).
    pub fn resume(dir: &Path) -> Result<Campaign, CampaignError> {
        let store = Store { dir: dir.to_path_buf() };
        let m = store.manifest()?;
        let probe_carry = store.state(&m)?.map(|(p, f, d)| (p, Sealer::carrying(codec::flatten(f), codec::flatten(d))));
        Ok(Campaign { store, m, probe_carry })
    }

    pub fn config(&self) -> ScenarioConfig {
        self.m.cfg
    }

    pub fn days_completed(&self) -> u64 {
        self.m.days_completed
    }

    pub fn is_complete(&self) -> bool {
        self.m.complete
    }

    pub fn dir(&self) -> &Path {
        &self.store.dir
    }

    pub fn segments(&self) -> &[SegmentInfo] {
        &self.m.segments
    }

    /// Run (or continue) the campaign to completion, or up to
    /// `opts.abort_after_day`. Safe to call again after an abort or a
    /// crash-resume; a completed campaign returns its recorded result.
    pub fn run(&mut self, opts: &RunOptions) -> Result<CampaignOutcome, CampaignError> {
        let (days_completed, days) = (self.m.days_completed, self.m.cfg.days);
        if let Some(day) = opts.abort_after_day {
            if !(days_completed..days).contains(&day) {
                return Err(CampaignError::AbortOutOfReach { day, days_completed, days });
            }
        }
        if self.m.complete {
            // a crash may have come between the commit and the removal
            self.store.remove_states(days)?;
            return Ok(self.outcome(Vec::new(), None));
        }
        let mut runner = DayRunner::new(self.m.cfg);
        let enr = runner.enrichment();

        let mut probe = Probe::new(runner.probe_config());
        let mut dns_mark = SimTime::ZERO;
        if let Some((state, unsealed)) = self.probe_carry.take() {
            dns_mark = resume_dns_mark(&state, unsealed.unsealed().1, days_completed);
            let (file, _) = self.m.state_file.as_ref().expect("a carry-over comes from a state file");
            named(&self.store.dir.join(file), probe.import_state(state, unsealed).map_err(FileError::Decode))?;
        }
        // Only a run that will complete folds; one that stops early
        // writes what it always wrote, and the run that completes
        // re-scans it.
        let fold = match opts.abort_after_day {
            None => Some(self.rescan(ReportCtx { enrichment: &enr, countries: &Country::TOP6 }, dns_mark)?),
            Some(_) => None,
        };
        let mut sealing = Sealing::new(self, &enr, fold);

        let mut prev_snap = telemetry::Snapshot::take();
        let mut days = Vec::new();
        for day in days_completed..self.m.cfg.days {
            let t0 = std::time::Instant::now();
            runner.run_day_sealed(&mut probe, day, |piece, marks| sealing.absorb(piece, Some(marks)));

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
            }
            .capped(next_midnight);
            sealing.absorb(probe.seal(marks), Some(marks));
            let rows_sealed = self.seal_segment(&mut sealing)?;
            let (flows, dns) = probe.unsealed();
            let body = codec::state_body(&state, &codec::by_day(flows, |f| f.first), &codec::by_day(dns, |d| d.ts));
            let state_bytes = self.store.checkpoint(&mut self.m, day, &body)?;
            let rows_carried = flows.len() as u64;
            let summary =
                DaySummary { day, segments_sealed: 1, rows_sealed, rows_carried, live_flows: state.flows.len() as u64 };
            drop(_sp);

            let m = metrics();
            m.days.set(self.m.days_completed as i64);
            m.segment_bytes.set(self.m.segments.iter().map(|s| s.bytes as i64).sum());
            m.rows_carried.set(rows_carried as i64);
            m.state_bytes.set(state_bytes as i64);
            if let Some(rss) = telemetry::current_rss_bytes() {
                m.rss.set(rss as i64);
            }
            if let Some(path) = &opts.metrics_out {
                let snap = telemetry::Snapshot::take();
                let delta = snap.delta(&prev_snap).to_json();
                append_metrics(path, format!("{{\"campaign_day\": {day}, \"delta\": {}}}", delta.trim_end()))?;
                prev_snap = snap;
            }
            if !opts.quiet {
                eprintln!(
                    "campaign: day {}/{} in {:.1?} — {summary}, rss {} MiB",
                    self.m.days_completed,
                    self.m.cfg.days,
                    t0.elapsed(),
                    telemetry::current_rss_bytes().unwrap_or(0) / (1 << 20),
                );
            }
            days.push(summary);
            if opts.abort_after_day == Some(day) {
                let (flows, dns) = probe.unsealed();
                self.probe_carry = Some((state, Sealer::carrying(flows.to_vec(), dns.to_vec())));
                return Ok(self.outcome(days, None));
            }
        }

        // All days simulated: flush the probe, whose closing seal is
        // the last piece and passes every row to the fold.
        let (flows, dns) = probe.finish();
        sealing.absorb(Piece { flows, dns }, None);
        self.seal_segment(&mut sealing)?;
        let dataset_digest = self.dataset_digest()?;
        let reports = sealing.fold.take().expect("a run that completes folds").finish(&FIG6_SERVICES, MIN_FLOWS);
        let report_text = reports.render_all();
        let report_digest = fnv1a(report_text.as_bytes());
        self.m.complete = true;
        self.m.state_file = None;
        (self.m.dataset_digest, self.m.report_digest) = (Some(dataset_digest), Some(report_digest));
        self.store.complete(&self.m, &report_text)?;
        metrics().days.set(self.m.days_completed as i64);

        if let Some(path) = &opts.metrics_out {
            let total = telemetry::Snapshot::take().to_json();
            append_metrics(path, format!("{{\"campaign_final\": true, \"total\": {}}}", total.trim_end()))?;
        }
        if !opts.quiet {
            eprintln!("campaign: complete — dataset digest {dataset_digest:016x}, report digest {report_digest:016x}");
        }
        Ok(self.outcome(days, Some(report_text)))
    }

    /// What `run` achieved: the manifest's progress and digests, the
    /// `days` it simulated and the report it rendered.
    fn outcome(&self, days: Vec<DaySummary>, report_text: Option<String>) -> CampaignOutcome {
        let Manifest { complete: completed, days_completed, dataset_digest, report_digest, .. } = self.m;
        CampaignOutcome { completed, days_completed, days, dataset_digest, report_digest, report_text }
    }

    /// Write what `s` sealed since the last checkpoint as the next
    /// segment and the next DNS spill, and start the next ones. Returns
    /// the segment's rows.
    fn seal_segment(&mut self, s: &mut Sealing<'_>) -> Result<u64, CampaignError> {
        let segment = self.store.write_segment(self.m.segments.len() as u64, s.builder.sealed())?;
        let rows = segment.rows;
        self.m.segments.push(segment);
        metrics().sealed.inc();
        let spill = std::mem::replace(&mut s.dns, codec::DnsSpill::new());
        self.m.dns_files.push(self.store.write_dns(self.m.dns_files.len() as u64, spill)?);
        (self.m.flow_digest, self.m.flow_rows) = (s.flow_digest, s.flow_rows);
        match &mut s.fold {
            Some(fold) => fold.hand_over(&mut s.builder),
            None => s.builder.clear_sealed(),
        }
        Ok(rows)
    }

    /// The fold of a run that starts after earlier runs sealed: every
    /// DNS spill, then the rows of every segment behind `dns_mark` —
    /// one file in RAM at a time. The rows at or past it carry.
    fn rescan<'e>(&self, ctx: ReportCtx<'e>, dns_mark: SimTime) -> Result<ReportFold<'e>, CampaignError> {
        let mut fold = ReportFold::new(ctx);
        for info in &self.m.dns_files {
            fold.absorb_dns(&self.store.dns(info)?, SimTime::ZERO);
        }
        // the spills hold every DNS record sealed before the mark
        fold.absorb_dns(&[], dns_mark);
        for info in &self.m.segments {
            fold.carry(self.store.segment(info)?);
        }
        Ok(fold)
    }

    /// The dataset digest: the flow log's, continued over the DNS
    /// spills in seal order, read back one file at a time.
    fn dataset_digest(&self) -> Result<u64, CampaignError> {
        let mut digest = Fnv1aSink(self.m.flow_digest);
        for info in &self.m.dns_files {
            write_dns_lines(&mut digest, &self.store.dns(info)?).expect("hashing cannot fail");
        }
        Ok(digest.0)
    }
}

/// Append one JSON object to the `--metrics-out` stream: one per
/// campaign day, then a final cumulative snapshot.
fn append_metrics(path: &Path, object: String) -> Result<(), CampaignError> {
    let file = std::fs::OpenOptions::new().create(true).append(true).open(path);
    named(path, file.and_then(|mut f| writeln!(f, "{object}")).map_err(FileError::Io))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use satwatch_analytics::{report_all, FlowFrame};
    use satwatch_monitor::FlowRecord;
    use satwatch_scenario::experiments::CSV_MIN_FLOWS;
    use std::net::Ipv4Addr;
    use std::sync::atomic::{AtomicU64, Ordering};

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

    /// Lookups and flows for the fold test sit on a half-hour grid over
    /// two days, and so do the marks.
    const FOLD_SLOT: u64 = 1_800;
    const FOLD_SLOTS: u64 = 100;
    const DOMAINS: [&str; 3] = ["a.video-one.com", "b.video-two.net", "c.cdn-three.org"];

    /// Client `i`'s address; all four are enriched, two in one country.
    fn fold_client(i: u8) -> Ipv4Addr {
        Ipv4Addr::new(77, 0, 1, i)
    }

    fn fold_enrichment() -> Enrichment {
        let mut enr = Enrichment { days: 3, ..Enrichment::default() };
        for (i, country) in
            [Country::TOP6[0], Country::TOP6[1], Country::TOP6[0], Country::TOP6[2]].into_iter().enumerate()
        {
            enr.country_of.insert(fold_client(i as u8), country);
            enr.beam_of.insert(fold_client(i as u8), i as u16);
        }
        enr
    }

    /// A fresh directory per case.
    fn fold_dir() -> PathBuf {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("swcampaign-fold-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    proptest! {
        /// The seal-time fold is the batch fold. Each lookup is a DNS
        /// record and, `delay` seconds later (past the 30 s freshness
        /// window at times), a flow to the name it asked for. Pieces
        /// are sealed at rising flow and DNS marks drawn apart, so at a
        /// checkpoint the DNS mark trails the flow mark as often as it
        /// leads it; a checkpoint writes the open segment and spill,
        /// and a kill after one drops everything in RAM but the
        /// unsealed log — the run that completes re-scans the prefix
        /// from the files, as a resumed campaign does. The reports
        /// match `report_all` over the whole: Table 2 at both floors,
        /// Fig 10 and the rendered text; the flow digest matches the
        /// flow log's.
        #[test]
        fn the_seal_time_fold_is_the_batch_fold(
            lookups in proptest::collection::vec(
                (0u64..FOLD_SLOTS, 0u8..4, 0usize..3, any::<bool>(), 0i64..40, any::<bool>()),
                0..160,
            ),
            steps in proptest::collection::vec((0u64..=FOLD_SLOTS, 0u64..=FOLD_SLOTS, any::<bool>(), any::<bool>()), 0..8),
        ) {
            let enr = fold_enrichment();
            let ctx = ReportCtx { enrichment: &enr, countries: &Country::TOP6 };
            let (mut flows, mut dns) = (Vec::new(), Vec::new());
            for (i, &(slot, client, domain, google, delay, flow)) in lookups.iter().enumerate() {
                let ts = SimTime::from_secs(slot * FOLD_SLOT);
                let client = fold_client(client);
                dns.push(DnsRecord {
                    client,
                    resolver: if google { Ipv4Addr::new(8, 8, 8, 8) } else { Ipv4Addr::new(1, 1, 1, 1) },
                    query: DOMAINS[domain].into(),
                    ts,
                    response_ms: Some(i as f64),
                    answers: Vec::new(),
                });
                if flow {
                    let first = ts + satwatch_simcore::SimDuration::from_secs(delay);
                    let base = codec::tests::flow(0);
                    flows.push(FlowRecord {
                        client,
                        first,
                        last: first + satwatch_simcore::SimDuration::from_secs(5),
                        c2s_bytes: i as u64,
                        ground_rtt: satwatch_monitor::record::RttSummary { avg_ms: 10.0 + i as f64, ..base.ground_rtt },
                        domain: Some(DOMAINS[domain].into()),
                        ..base
                    });
                }
            }
            let whole = Sealer::carrying(flows.clone(), dns.clone()).seal(None);

            let dir = fold_dir();
            let mut c = Campaign::create(&dir, ScenarioConfig::tiny()).unwrap();
            let mut log = Sealer::carrying(flows, dns);
            let mut sealing = Sealing::new(&c, &enr, Some(ReportFold::new(ctx)));
            let mut flow_slots: Vec<u64> = steps.iter().map(|s| s.0).collect();
            let mut dns_slots: Vec<u64> = steps.iter().map(|s| s.1).collect();
            flow_slots.sort_unstable();
            dns_slots.sort_unstable();
            let mut dns_sealed_to = SimTime::ZERO;
            for (i, &(_, _, checkpoint, kill)) in steps.iter().enumerate() {
                let marks = SealMarks {
                    flows: SimTime::from_secs(flow_slots[i] * FOLD_SLOT),
                    dns: SimTime::from_secs(dns_slots[i] * FOLD_SLOT),
                };
                dns_sealed_to = dns_sealed_to.max(marks.dns);
                sealing.absorb(log.seal(Some(marks)), Some(marks));
                if checkpoint {
                    c.seal_segment(&mut sealing).unwrap();
                    c.store.commit(&c.m).unwrap();
                    if kill {
                        drop(sealing);
                        c = Campaign::resume(&dir).unwrap();
                        let dns_mark = log.unsealed().1.iter().map(|d| d.ts).fold(dns_sealed_to, SimTime::min);
                        sealing = Sealing::new(&c, &enr, Some(c.rescan(ctx, dns_mark).unwrap()));
                    }
                }
            }
            sealing.absorb(log.seal(None), None);
            c.seal_segment(&mut sealing).unwrap();
            let fold = sealing.fold.take().unwrap();
            let table2_csv = fold.table2(CSV_MIN_FLOWS);
            let got = fold.finish(&FIG6_SERVICES, MIN_FLOWS);

            let frame = FlowFrame::from_records(&whole.flows, &enr);
            let want = report_all(&frame, &whole.dns, ctx, &FIG6_SERVICES, MIN_FLOWS);
            let want_csv = report_all(&frame, &whole.dns, ctx, &FIG6_SERVICES, CSV_MIN_FLOWS).table2;
            prop_assert_eq!(table2_csv.render(), want_csv.render());
            prop_assert_eq!(got.table2.render(), want.table2.render());
            prop_assert_eq!(got.fig10.render(), want.fig10.render());
            prop_assert_eq!(got.render_all(), want.render_all());
            let mut log_digest = Fnv1aSink(FNV1A_INIT);
            write_flows(&mut log_digest, &whole.flows).unwrap();
            prop_assert_eq!((c.m.flow_digest, c.m.flow_rows), (log_digest.0, whole.flows.len() as u64));
            prop_assert_eq!(c.m.segments.iter().map(|s| s.rows).sum::<u64>(), whole.flows.len() as u64);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
