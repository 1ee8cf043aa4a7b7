//! End-to-end scenario execution: population → daily flow intents →
//! packet synthesis → span port → passive probe → dataset.
//!
//! One runner drives every day of every run: [`DayRunner`]. [`run`] and
//! [`run_with_tap`] keep the probe's log to `finish`; [`run_sealed`]
//! hands out the pieces sealed at every sweep; [`run_streaming`] and
//! [`run_report`] seal frame rows behind the flow watermark,
//! [`run_report`] folding them as they come. Each builds a
//! [`DayRunner`], drives its days with a pass hook and finishes the
//! probe; the campaign engine drives the same days one
//! [`DayRunner::run_day_sealed`] at a time, between checkpoints.

use crate::config::ScenarioConfig;
use crate::flowsim::NetModel;
use satwatch_analytics::agg::{BeamInfo, Enrichment};
use satwatch_analytics::report::TableCdnSelection;
use satwatch_analytics::{FrameBuilder, PaperReports, ReportCtx, ReportFold, FOLD_ROWS};
use satwatch_internet::{CdnCatalog, ResolverId};
use satwatch_monitor::anon::CryptoPan;
/// A per-packet observer of the span port (pcap writers, tests).
pub use satwatch_monitor::Tap;
use satwatch_monitor::{DnsRecord, FlowRecord, FlowTableConfig, LiveRuns, Piece, Probe, ProbeConfig, SealMarks};
use satwatch_netstack::{Packet, PacketColumns};
use satwatch_satcom::channel::default_peak_hour;
use satwatch_satcom::geo::places;
use satwatch_satcom::link::{LinkConfig, LinkModel};
use satwatch_satcom::mac::{Mac, MacConfig};
use satwatch_satcom::pep::{PepConfig, PepModel};
use satwatch_satcom::{GroundStation, SatelliteAccess};
use satwatch_simcore::{SeedTree, SimTime};
use satwatch_traffic::{build_population, catalog::standard_catalog, generate_day, Country, Population};
use std::ops::ControlFlow;
use std::sync::OnceLock;
use std::time::Instant;

/// Telemetry handles (write-only: never read back by the run loop, so
/// recording cannot perturb the deterministic dataset).
struct Metrics {
    intents: &'static satwatch_telemetry::Counter,
    flows: &'static satwatch_telemetry::Counter,
    packets: &'static satwatch_telemetry::Counter,
    intent_gen_us: &'static satwatch_telemetry::Histogram,
    day_us: &'static satwatch_telemetry::Histogram,
    flow_synth_us: &'static satwatch_telemetry::Histogram,
    /// The planning share of `flow_synth_us`; emission is the rest.
    plan_us: &'static satwatch_telemetry::Histogram,
    probe_us: &'static satwatch_telemetry::Histogram,
    setup_us: &'static satwatch_telemetry::Histogram,
    finish_us: &'static satwatch_telemetry::Histogram,
    /// Passes over the live runs (one per cohort bound, plus one per
    /// sweep falling inside one).
    passes: &'static satwatch_telemetry::Counter,
    live_runs: &'static satwatch_telemetry::Gauge,
    /// Rows that took one of the probe's merged-order lanes.
    ordered_rows: &'static satwatch_telemetry::Counter,
}

fn metrics() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        intents: satwatch_telemetry::counter("scenario_intents_total"),
        flows: satwatch_telemetry::counter("scenario_flows_started_total"),
        packets: satwatch_telemetry::counter("scenario_packets_total"),
        intent_gen_us: satwatch_telemetry::histogram("scenario_intent_gen_us"),
        day_us: satwatch_telemetry::histogram("scenario_day_us"),
        flow_synth_us: satwatch_telemetry::histogram("scenario_flow_synth_us"),
        plan_us: satwatch_telemetry::histogram("scenario_plan_us"),
        probe_us: satwatch_telemetry::histogram("scenario_probe_us"),
        passes: satwatch_telemetry::counter("scenario_passes_total"),
        live_runs: satwatch_telemetry::gauge("scenario_live_runs"),
        ordered_rows: satwatch_telemetry::counter("scenario_ordered_rows_total"),
        setup_us: satwatch_telemetry::histogram("scenario_setup_us"),
        finish_us: satwatch_telemetry::histogram("scenario_finish_us"),
    })
}

/// Export each beam's static peak utilization as a labelled gauge, so
/// a snapshot shows which beams a run is stressing.
fn export_beam_gauges(population: &Population) {
    for b in &population.beams {
        satwatch_telemetry::gauge_with("scenario_beam_peak_utilization_pct", &[("beam", &b.name)])
            .set((b.peak_utilization * 100.0) as i64);
    }
}

/// The output of one scenario run: exactly what the paper's analysts
/// have — anonymized flow/DNS logs plus operator enrichment.
pub struct Dataset {
    pub flows: Vec<FlowRecord>,
    pub dns: Vec<DnsRecord>,
    pub enrichment: Enrichment,
    /// Total packets the probe observed.
    pub packets: u64,
}

/// A scenario run with the flow log already columnar: the flows the
/// probe logged went into a `FrameBuilder` after every pass, so no
/// `Vec<FlowRecord>` for the whole capture ever existed — peak memory
/// is bounded by the *live*-flow count, not the total flow count.
pub struct ColumnarDataset {
    pub frame: satwatch_analytics::FlowFrame,
    pub dns: Vec<DnsRecord>,
    pub enrichment: Enrichment,
    /// Total packets the probe observed.
    pub packets: u64,
}

/// What [`run_sealed`] returns beside the pieces it handed out.
pub struct SealedRun {
    pub enrichment: Enrichment,
    /// Total packets the probe observed.
    pub packets: u64,
}

/// Everything `run`/`run_streaming`/`run_reference` share: the
/// deterministic inputs derived from the config before a single packet
/// moves.
pub(crate) struct SimSetup {
    pub(crate) seeds: SeedTree,
    pub(crate) population: Population,
    pub(crate) catalog: Vec<satwatch_traffic::ServiceSpec>,
    pub(crate) model: NetModel,
    pub(crate) anon_seed: u64,
    pub(crate) probe_cfg: ProbeConfig,
    /// Bent-pipe propagation per customer (indexed by customer
    /// index): a pure per-terminal constant — two haversines — hoisted
    /// out of the per-flow snapshot for the cohort planner.
    prop_delays: Vec<satwatch_simcore::SimDuration>,
}

pub(crate) fn setup(cfg: ScenarioConfig) -> SimSetup {
    let seeds = SeedTree::new(cfg.seed);
    let population = build_population(cfg.customers, &seeds);
    let catalog = standard_catalog();
    let model = NetModel {
        access: SatelliteAccess {
            slot: places::SATELLITE,
            gs_location: places::GROUND_STATION_ITALY,
            mac: Mac::new(MacConfig::default()),
            link: LinkModel::new(LinkConfig::default()),
            pep: PepModel::new(PepConfig::default()),
            peak_hour_by_country: default_peak_hour,
            weather: Some(satwatch_satcom::WeatherModel::new(seeds.rng("weather").next_u64())),
        },
        cdns: CdnCatalog::standard(),
        pep_enabled: cfg.pep_enabled,
        african_gs: cfg.african_ground_station,
    };
    let gs = GroundStation::italy_default();
    let anon_seed = seeds.rng("anon").next_u64();
    let probe_cfg = ProbeConfig { anon_seed, ..ProbeConfig::new(FlowTableConfig::new(gs.customer_subnet)) };
    let prop_delays = population
        .customers
        .iter()
        .map(|c| model.access.slot.bent_pipe_delay(c.terminal.location, model.access.gs_location))
        .collect();
    SimSetup { seeds, population, catalog, model, anon_seed, probe_cfg, prop_delays }
}

/// What [`drive_day`] calls after every pass: the probe, to read its log,
/// and the coming midnight — span time steps back to it when the next
/// day starts, so no seal mark may lie past it. `Break` ends the run.
type PassHook<'a> = &'a mut dyn FnMut(&mut Probe, SimTime) -> ControlFlow<()>;

/// The hook of a run that reads the log only at `finish`.
fn no_hook(_: &mut Probe, _: SimTime) -> ControlFlow<()> {
    ControlFlow::Continue(())
}

/// Seal the probe's log behind the marks of a sweep in the pass, held
/// at `midnight`: the piece and the marks it was sealed at, or `None`
/// when the pass swept nothing.
fn seal_swept(probe: &mut Probe, midnight: SimTime) -> Option<(Piece, SealMarks)> {
    let marks = probe.take_marks()?.capped(midnight);
    Some((probe.seal(marks), marks))
}

/// Reusable per-day driver buffers. Created once per run (or per
/// campaign) and recycled across days; every buffer is cleared at the
/// end of each day, so a fresh `DayScratch` per day would produce the
/// same dataset — reuse is purely an allocation optimization.
struct DayScratch {
    /// Flow intents pop from a sorted [`IntentQueue`]; the packets
    /// each flow expands into stay in per-flow runs, pushed in
    /// flow-start order, which the probe reads a pass at a time. Its
    /// merged order `(time, push order, row)` is the
    /// all-packets-through-one-heap `(at, seq)` order of
    /// [`run_reference`](crate::reference::run_reference) bit for bit
    /// — see DESIGN.md "The packet path and its reference" — while
    /// moving no packet data and recycling every run buffer.
    runs: LiveRuns,
    /// Payload bytes for a cohort's packets are bump-allocated
    /// here and frozen into one refcounted block per cohort; the
    /// arena's capacity hint keeps the steady state at one allocation
    /// per cohort.
    arena: satwatch_simcore::PayloadArena,
    /// Memo of the per-flow-constant delay-snapshot inputs (rain
    /// schedule per beam-day, diurnal utilization) for the cohort
    /// planner — pure-function memoization, value-identical snapshots.
    delay_cache: satwatch_satcom::DelayCache,
    /// The running day's pending intents: the one buffer here whose
    /// size is a whole day's (≈ 80 B per intent, 5 MB at 100
    /// customers). A fresh vector per day regrows through the heap
    /// every day after the first — the allocator stops `mmap`ing it
    /// once the first one has been freed — and a multi-day run's peak
    /// crept up by the steps it left behind (`simulate`, 100 customers
    /// × 4 days: 22.1 MB against 20.6 MB reusing it).
    intents: IntentQueue,
}

impl DayScratch {
    fn new() -> DayScratch {
        DayScratch {
            runs: LiveRuns::new(),
            arena: satwatch_simcore::PayloadArena::new(),
            delay_cache: satwatch_satcom::DelayCache::new(),
            intents: IntentQueue::new(),
        }
    }
}

/// One day's pending flow intents, popped in `(start, schedule-order)`
/// order — the order `EventQueue` delivers with its FIFO tie-break.
/// Intents are all known before the drive loop starts and none is ever
/// re-scheduled, so a vector sorted once (descending, popped from the
/// back) replaces the binary heap: no per-pop sift-down shuffling
/// ~100-byte entries, and `peek`/`pop` are a bounds check.
struct IntentQueue {
    /// `(start, schedule seq, intent)`, sorted descending by
    /// `(start, seq)` once [`seal`](Self::seal)ed.
    v: Vec<(SimTime, u32, satwatch_traffic::FlowIntent)>,
}

impl IntentQueue {
    fn new() -> IntentQueue {
        IntentQueue { v: Vec::new() }
    }

    fn schedule(&mut self, at: SimTime, intent: satwatch_traffic::FlowIntent) {
        let seq = self.v.len() as u32;
        self.v.push((at, seq, intent));
    }

    /// Sort for popping. Must be called after the last `schedule` and
    /// before the first `peek_time`/`pop`. `(start, seq)` keys are
    /// unique, so the unstable sort is deterministic.
    fn seal(&mut self) {
        self.v.sort_unstable_by_key(|e| std::cmp::Reverse((e.0, e.1)));
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.v.last().map(|e| e.0)
    }

    fn pop(&mut self) -> Option<satwatch_traffic::FlowIntent> {
        self.v.pop().map(|e| e.2)
    }
}

/// The one day runner: every scenario run — [`run`], [`run_with_tap`],
/// [`run_sealed`], [`run_streaming`], [`run_report`] and the campaign
/// engine calling [`DayRunner::run_day_sealed`] for `0..cfg.days` —
/// drives its days through the *same* per-day code path (`drive_day`),
/// so every probe observes the exact packet stream a batch run would.
///
/// Each simulated day is a pure function of `(cfg.seed, day)`: intent
/// RNG streams are forked per `(day, customer)` and the flow RNG per
/// day, without consuming parent SeedTree state. Resuming a campaign
/// therefore needs no RNG serialization — re-create the `DayRunner`
/// from the same config and continue at the next day.
pub struct DayRunner {
    cfg: ScenarioConfig,
    sim: SimSetup,
    scratch: DayScratch,
}

impl DayRunner {
    /// Derive everything the days need from `cfg` (timed as
    /// `scenario_setup_us`).
    pub fn new(cfg: ScenarioConfig) -> DayRunner {
        let _s = satwatch_telemetry::Span::over(metrics().setup_us);
        let sim = setup(cfg);
        export_beam_gauges(&sim.population);
        DayRunner { cfg, sim, scratch: DayScratch::new() }
    }

    /// The probe configuration a batch run would use (CryptoPan seed
    /// derived from the scenario seed, ground-station customer subnet).
    pub fn probe_config(&self) -> ProbeConfig {
        self.sim.probe_cfg
    }

    /// Operator-side enrichment for this population — a pure function
    /// of the config, identical to the batch run's.
    pub fn enrichment(&self) -> Enrichment {
        build_enrichment(&self.sim.population, self.sim.anon_seed, self.cfg.days)
    }

    /// Simulate one day (`0`-based), feeding every span-port packet to
    /// `probe` in global time order. Days must be driven in order
    /// against a probe carrying the previous day's state (live flows
    /// spill up to one hour past midnight). The day's evictions stay in
    /// the probe's log.
    pub fn run_day(&mut self, probe: &mut Probe, day: u64) {
        let _ = drive_day(self.cfg, &self.sim, probe, &mut None, &mut no_hook, day, &mut self.scratch);
    }

    /// [`run_day`](Self::run_day), sealing the probe's log at every
    /// sweep as [`run_sealed`] does (marks capped at the coming
    /// midnight): `on_piece` gets each piece and the marks it was
    /// sealed at. What stays in the log is the live tail.
    pub fn run_day_sealed(&mut self, probe: &mut Probe, day: u64, mut on_piece: impl FnMut(Piece, SealMarks)) {
        let mut seal = |probe: &mut Probe, midnight| {
            if let Some((piece, marks)) = seal_swept(probe, midnight) {
                on_piece(piece, marks);
            }
            ControlFlow::Continue(())
        };
        let _ = drive_day(self.cfg, &self.sim, probe, &mut None, &mut seal, day, &mut self.scratch);
    }

    /// Drive every day of the scenario through a fresh probe, `hook`
    /// after each pass, then finish the probe — unless the hook ended
    /// the run. Returns the packets observed and `finish`'s closing
    /// seal.
    fn run_all(mut self, mut tap: Option<Tap<'_>>, hook: PassHook<'_>) -> (u64, Option<Piece>) {
        let mut probe = Probe::new(self.sim.probe_cfg);
        for day in 0..self.cfg.days {
            if drive_day(self.cfg, &self.sim, &mut probe, &mut tap, hook, day, &mut self.scratch).is_break() {
                return (probe.packets, None);
            }
        }
        let _s = satwatch_telemetry::Span::over(metrics().finish_us);
        let packets = probe.packets;
        let (flows, dns) = probe.finish();
        (packets, Some(Piece { flows, dns }))
    }
}

/// Run a scenario to completion.
pub fn run(cfg: ScenarioConfig) -> Dataset {
    collect(cfg, None)
}

/// Run a scenario, additionally invoking `tap` for every packet the
/// span port observes (e.g. a pcap writer). The tap sees packets in
/// global time order, exactly as the probe does. Each column row is
/// materialized into a real [`Packet`] for the tap — the probe itself
/// consumes the columns directly.
pub fn run_with_tap(cfg: ScenarioConfig, mut tap: impl FnMut(SimTime, &Packet)) -> Dataset {
    collect(cfg, Some(&mut tap))
}

/// The one body of [`run`] and [`run_with_tap`]: the probe keeps its
/// log to the end, and `finish` sorts the whole capture.
fn collect(cfg: ScenarioConfig, tap: Option<Tap<'_>>) -> Dataset {
    let runner = DayRunner::new(cfg);
    let enrichment = runner.enrichment();
    let (packets, last) = runner.run_all(tap, &mut no_hook);
    let Piece { flows, dns } = last.expect("nothing breaks off the run");
    Dataset { flows, dns, enrichment, packets }
}

/// Run a scenario as a stream of sealed [`Piece`]s: whenever the probe
/// has swept, the rows of both logs behind its watermarks go to
/// `on_piece`, canonically sorted, every piece wholly after the one
/// before — their concatenation is the flow and DNS logs of [`run`],
/// while only the live tail (minutes of rows) is ever resident
/// (DESIGN.md §10). `on_piece` returning `Break` ends the run there:
/// nothing more is simulated or sealed.
pub fn run_sealed(
    cfg: ScenarioConfig,
    tap: Option<Tap<'_>>,
    mut on_piece: impl FnMut(Piece) -> ControlFlow<()>,
) -> SealedRun {
    let runner = DayRunner::new(cfg);
    let enrichment = runner.enrichment();
    let mut seal = |probe: &mut Probe, midnight| match seal_swept(probe, midnight) {
        Some((piece, _)) => on_piece(piece),
        None => ControlFlow::Continue(()),
    };
    let (packets, last) = runner.run_all(tap, &mut seal);
    if let Some(piece) = last {
        let _ = on_piece(piece);
    }
    SealedRun { enrichment, packets }
}

/// Run a scenario with streaming flow ingest: after every pass the
/// flows the probe logged go into an incremental frame builder, in
/// eviction order, and at every sweep the builder seals the rows
/// behind the flow watermark (DESIGN.md §10). The frame is
/// byte-identical to `FlowFrame::from_records` over the batch run's
/// flows, and the DNS log to the batch run's, while the full record
/// vector is never materialized and no day is sorted.
pub fn run_streaming(cfg: ScenarioConfig) -> ColumnarDataset {
    let runner = DayRunner::new(cfg);
    let enrichment = runner.enrichment();
    let mut builder = FrameBuilder::new(enrichment.clone());
    let mut dns = Vec::new();
    let packets = drive_framed(runner, &mut builder, |_, piece, _| dns.extend(piece));
    ColumnarDataset { frame: builder.seal(), dns, enrichment, packets }
}

/// What [`run_report`] returns: the paper's reports of the run, and
/// what its progress line counts.
pub struct ReportRun {
    pub reports: PaperReports,
    /// Table 2 at the CSV export's flow floor,
    /// [`CSV_MIN_FLOWS`](crate::experiments::CSV_MIN_FLOWS).
    pub table2_csv: TableCdnSelection,
    pub flows: usize,
    pub dns: usize,
    /// Total packets the probe observed.
    pub packets: u64,
}

/// Run a scenario and fold every paper report as the probe seals:
/// the DNS records each seal releases go into the fold at their mark,
/// and the frame rows sealed behind the flow mark are handed over
/// 8 192 at a time — the fold absorbs those its DNS has reached and
/// holds the rest ([`ReportFold`]'s DNS-first rule). What stays
/// resident is the live tail and the fold's accumulators — no
/// day-long frame, DNS log or sort. Byte-identical to
/// [`paper_reports_columnar`](crate::experiments::paper_reports_columnar)
/// over [`run_streaming`]'s frame and log.
pub fn run_report(cfg: ScenarioConfig) -> ReportRun {
    use crate::experiments::{CSV_MIN_FLOWS, FIG6_SERVICES, MIN_FLOWS};
    let runner = DayRunner::new(cfg);
    let enrichment = runner.enrichment();
    let mut builder = FrameBuilder::new(enrichment.clone());
    let ctx = ReportCtx { enrichment: &enrichment, countries: &Country::TOP6 };
    let mut fold = ReportFold::new(ctx);
    let (mut flows, mut dns) = (0, 0);
    let packets = drive_framed(runner, &mut builder, |builder, piece, dns_mark| {
        dns += piece.len();
        fold.absorb_dns(&piece, dns_mark);
        // a batch gathered, or the closing seal's
        if builder.sealed().len() >= FOLD_ROWS || dns_mark == SimTime::MAX {
            flows += builder.sealed().len();
            fold.hand_over(builder);
        }
    });
    let table2_csv = fold.table2(CSV_MIN_FLOWS);
    ReportRun { reports: fold.finish(&FIG6_SERVICES, MIN_FLOWS), table2_csv, flows, dns, packets }
}

/// Drive `runner`'s days with their flows sealed into `builder`: the
/// flows the probe logged go in after every pass, and at every sweep
/// (marks capped at midnight, as [`run_sealed`] caps them) the builder
/// seals the rows behind the flow mark and `on_seal` gets the builder,
/// the DNS records sealed at the same marks and the DNS mark. Rows,
/// not records, wait for the marks: a row is 96 bytes, a record 232
/// plus its early-packet log. The closing seal takes every row, and
/// its DNS mark is [`SimTime::MAX`]. Returns the packets observed.
fn drive_framed(
    runner: DayRunner,
    builder: &mut FrameBuilder,
    mut on_seal: impl FnMut(&mut FrameBuilder, Vec<DnsRecord>, SimTime),
) -> u64 {
    let (packets, last) = runner.run_all(None, &mut |probe, midnight| {
        probe.take_flows().for_each(|f| builder.push(&f));
        if let Some(marks) = probe.take_marks() {
            let marks = marks.capped(midnight);
            let dns = probe.seal(marks).dns;
            builder.seal_behind(Some(marks.flows));
            on_seal(builder, dns, marks.dns);
        }
        ControlFlow::Continue(())
    });
    let Piece { flows, dns } = last.expect("nothing breaks off the run");
    flows.iter().for_each(|f| builder.push(f));
    builder.seal_behind(None);
    on_seal(builder, dns, SimTime::MAX);
    packets
}

/// Drive one simulated day: generate the day's intents, expand flows
/// to packets, feed the span port in global time order up to the day
/// horizon (midnight + 1 h spill), `hook` after every pass (`Break`
/// from it ends the run). Every [`DayRunner`] day runs it — each day is
/// a pure function of `(seed, day)` plus the probe state carried in
/// from the previous day.
///
/// Flows synthesize straight into columnar [`PacketColumns`] runs and
/// the probe consumes column slices — no `Packet` struct exists on the
/// hot path unless a `tap` asks for materialized packets. The
/// per-packet semantics this is pinned byte-identical against live in
/// [`run_reference`](crate::reference::run_reference).
fn drive_day(
    cfg: ScenarioConfig,
    sim: &SimSetup,
    probe: &mut Probe,
    tap: &mut Option<Tap<'_>>,
    hook: PassHook<'_>,
    day: u64,
    s: &mut DayScratch,
) -> ControlFlow<()> {
    let SimSetup { seeds, population, catalog, model, prop_delays, .. } = sim;
    let DayScratch { runs, arena, delay_cache, intents } = s;
    let m = metrics();
    // Per-phase wall-clock attribution (flow synthesis vs probe),
    // recorded per day. Gated on the telemetry switch: timing reads
    // never influence the dataset, only the metrics snapshot.
    let timed = satwatch_telemetry::enabled();
    {
        let _day_span = satwatch_telemetry::Span::over(m.day_us);
        // One queue per day bounds memory to a day's intents. Flows may
        // run up to one hour past midnight; later packets are truncated
        // (a negligible tail — flow emission is capped at 20 minutes).
        intents.v.clear();
        // Each customer draws from its own `rng_idx("intents", …)`
        // stream. Customers are scheduled in index order: the queue
        // breaks time ties FIFO, so the insert order is part of the
        // deterministic output.
        {
            let _s = satwatch_telemetry::Span::over(m.intent_gen_us);
            for (i, customer) in population.customers.iter().enumerate() {
                let mut rng = seeds.rng_idx("intents", day * 1_000_000 + i as u64);
                for mut intent in generate_day(customer, i, catalog, day, &mut rng) {
                    if cfg.force_operator_dns {
                        intent.resolver = ResolverId::OperatorEu;
                    }
                    intents.schedule(intent.start, intent);
                }
            }
        }
        m.intents.add(intents.v.len() as u64);
        intents.seal();
        let next_midnight = SimTime::from_secs((day + 1) * satwatch_simcore::time::SECS_PER_DAY);
        let horizon = next_midnight + satwatch_simcore::SimDuration::from_secs(3_600);
        let mut flow_rng = seeds.rng_idx("flows", day);
        // Cohort-batched drive (DESIGN.md "The packet path and its
        // reference"): pop a cohort of consecutive pending intents,
        // run the *planning* pass serially over the shared flow RNG
        // (same stream, same draw order per flow as the reference's
        // flow-at-a-time `simulate_flow`), then expand every plan to
        // packets RNG-free into recycled buffers. Runs are pushed in
        // intent-pop order, so push order — the merged order's
        // tie-break — is the reference heap's sequence order; each
        // run leaves emission time-ordered and starting no earlier than
        // its intent, so it needs no sort, and one pass per cohort
        // reads the rows a pass before every intent would. Intents win
        // time ties against packets, so the bound before each cohort
        // is its first intent time, exclusive; the last pass takes
        // what is left up to the horizon, inclusive.
        // Cohorts stay small enough that a cohort's shared payload
        // block fits the arena's 1 MiB capacity hint — larger cohorts
        // pay geometric-growth memcpy per block.
        const COHORT: usize = 64;
        delay_cache.begin_day(day);
        let mut cohort: Vec<(satwatch_traffic::FlowIntent, crate::flowsim::FlowPlan)> = Vec::with_capacity(COHORT);
        let mut cohort_runs: Vec<PacketColumns> = Vec::with_capacity(COHORT);
        let mut delay_col: Vec<satwatch_simcore::SimDuration> = Vec::new();
        let (mut synth_ns, mut plan_ns, mut probe_ns) = (0u64, 0u64, 0u64);
        loop {
            let ti = intents.peek_time().filter(|&ti| ti <= horizon);
            let bound = ti.unwrap_or(horizon + satwatch_simcore::SimDuration::from_nanos(1));
            let t_probe = timed.then(Instant::now);
            let tap = tap.as_mut().map(|tap| &mut **tap as Tap<'_>);
            let pass = probe.observe_runs(runs, bound, tap);
            if let Some(t0) = t_probe {
                probe_ns += t0.elapsed().as_nanos() as u64;
            }
            m.packets.add(pass.rows);
            m.passes.add(pass.passes);
            m.ordered_rows.add(pass.ordered_rows);
            // The probe's marks trust its clock, and span time steps
            // back to midnight when the next day starts: a mark from
            // the spill hour would pass tomorrow's first flows, so the
            // hook uses none past the coming midnight.
            hook(probe, next_midnight)?;
            if ti.is_none() {
                break;
            }
            let t_synth = timed.then(Instant::now);
            // Planning pass: serial, in intent-pop order — the
            // shared `flow_rng` stream is consumed exactly as the
            // reference consumes it.
            cohort.clear();
            delay_col.clear();
            while cohort.len() < COHORT {
                match intents.peek_time() {
                    Some(ti) if ti <= horizon => {
                        let intent = intents.pop().expect("peeked intent vanished");
                        let customer = &population.customers[intent.customer_index];
                        let beam = population.beam(customer.terminal.beam);
                        let plan = model.plan_flow_cached(
                            &intent,
                            customer,
                            catalog,
                            beam,
                            prop_delays[intent.customer_index],
                            delay_cache,
                            &mut flow_rng,
                            &mut delay_col,
                        );
                        cohort.push((intent, plan));
                    }
                    _ => break,
                }
            }
            if let Some(t0) = t_synth {
                plan_ns += t0.elapsed().as_nanos() as u64;
            }
            m.flows.add(cohort.len() as u64);
            // Emission pass: parent-RNG-free; results are pushed in
            // intent order. All of the cohort's payload bytes
            // accumulate in one arena block, frozen once below:
            // offsets are absolute within the block, so every run
            // shares the same `Bytes` — one allocation per cohort
            // instead of one per flow, identical resolved payloads
            // (see `emit_flow_open`).
            for (intent, plan) in &cohort {
                let customer = &population.customers[intent.customer_index];
                let mut run = runs.spare();
                model.emit_flow_open(intent, customer, plan, &delay_col, arena, &mut run);
                cohort_runs.push(run);
            }
            let block = bytes::Bytes::from(arena.take());
            for mut run in cohort_runs.drain(..) {
                run.payload = block.clone();
                runs.push(run);
            }
            m.live_runs.set(runs.len() as i64);
            if let Some(t0) = t_synth {
                synth_ns += t0.elapsed().as_nanos() as u64;
            }
        }
        if timed {
            m.flow_synth_us.record(synth_ns / 1_000);
            m.plan_us.record(plan_ns / 1_000);
            m.probe_us.record(probe_ns / 1_000);
        }
        // Truncate the post-horizon tail, keeping the buffers.
        runs.clear();
        m.live_runs.set(0);
    }
    ControlFlow::Continue(())
}

/// Operator-side enrichment: the operator holds the CryptoPan key and
/// publishes the anonymized-address → country/beam maps (paper §3.1).
pub fn build_enrichment(population: &Population, anon_seed: u64, days: u64) -> Enrichment {
    let pan = CryptoPan::new(anon_seed);
    let mut enr = Enrichment { days, ..Default::default() };
    for c in &population.customers {
        let anon = pan.anonymize(c.terminal.address);
        let country = Country::from_code(c.terminal.country).expect("known country");
        enr.country_of.insert(anon, country);
        enr.beam_of.insert(anon, c.terminal.beam.0);
    }
    enr.beams = population
        .beams
        .iter()
        .map(|b| BeamInfo {
            name: b.name.clone(),
            country: Country::from_code(b.country).expect("known country"),
            peak_utilization: b.peak_utilization,
        })
        .collect();
    enr
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scenario_produces_consistent_dataset() {
        let ds = run(ScenarioConfig::tiny().with_customers(30));
        assert!(ds.packets > 1000, "{}", ds.packets);
        assert!(ds.flows.len() > 300, "{}", ds.flows.len());
        assert!(!ds.dns.is_empty());
        // every flow's client is enriched
        let known = ds.flows.iter().filter(|f| ds.enrichment.country(f.client).is_some()).count();
        assert_eq!(known, ds.flows.len());
        // DNS clients too
        for d in &ds.dns {
            assert!(ds.enrichment.country(d.client).is_some());
        }
        // some TLS flows carry satellite RTT ≥ 500 ms
        let sat: Vec<f64> = ds.flows.iter().filter_map(|f| f.sat_rtt_ms).collect();
        assert!(!sat.is_empty());
        assert!(sat.iter().all(|&ms| ms > 450.0), "min {:?}", sat.iter().cloned().fold(f64::MAX, f64::min));
    }

    #[test]
    fn runs_are_reproducible() {
        let a = run(ScenarioConfig::tiny().with_customers(20));
        let b = run(ScenarioConfig::tiny().with_customers(20));
        assert_eq!(a.flows.len(), b.flows.len());
        assert_eq!(a.packets, b.packets);
        for (x, y) in a.flows.iter().zip(&b.flows) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn seeds_change_the_dataset() {
        let a = run(ScenarioConfig::tiny().with_customers(20));
        let b = run(ScenarioConfig::tiny().with_customers(20).with_seed(999));
        assert_ne!(a.flows.len(), b.flows.len());
    }
}
