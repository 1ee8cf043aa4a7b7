//! Subcommand implementations for the `satwatch` binary.

use crate::args::Args;
use satwatch_analytics::{
    read_enrichment_log, write_enrichment_log, FrameBuilder, PaperReports, ReportCtx, ReportFold, ResultTable,
    FOLD_ROWS,
};
use satwatch_errant::{export as errant_export, fit_profiles, leo, Period};
use satwatch_monitor::record::{
    last_first, write_dns_log, write_dns_rows, write_flow_rows, write_flows, DnsRows, FlowRows,
};
use satwatch_monitor::Piece;
use satwatch_scenario::{
    experiments, run_report, run_sealed, run_streaming, ColumnarDataset, ReportRun, ScenarioConfig,
};
use satwatch_simcore::SimTime;
use satwatch_traffic::Country;
use std::error::Error;
use std::fs;
use std::io::{self, BufReader, Write};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The full help text.
pub fn usage() -> &'static str {
    "\
usage: satwatch <command> [options]

commands:
  simulate    run a scenario and write TSV flow/DNS logs, each row once
              nothing still open can sort before it: the logs grow as
              the run advances, memory does not grow with --days
                --out DIR (default: satwatch-logs)
                --pcap FILE [--snaplen N]   also write a pcap capture
  replay      re-run the analyses over logs written by `simulate`
                --logs DIR --figure {all|table1|fig2|fig9|fig10|fig11}
  report      run a scenario and render figures/tables: evicted flows
              feed the columnar frame as the run advances, one fused
              sweep fills every output
                --figure {all|table1|fig2|...|fig11|table2}
                --csv DIR    also write plot-ready CSVs
  query       run an aggregation pipeline over the flow frame
                --pipeline JSON        inline pipeline text
                --pipeline-file FILE   pipeline from a JSON file
                                (stages: match, group, project, sort,
                                 limit — see DESIGN.md §8)
                --format {text|csv|json}  table rendering (default text)
  profiles    fit and export ERRANT emulation profiles
                --out FILE (default: stdout)
  ablations   compare baseline vs A1/A2/A3 what-ifs
  topdomains  rank second-level domains by volume and popularity
                --n N (default 20)
  paper-check run every paper-vs-measured shape check (EXPERIMENTS.md)
  rules       print the Table 3 service-classification rule set
  campaign    run a checkpointed multi-day campaign: after each
              simulated day every evicted flow behind the watermark —
              all but the live tail, tens of rows — is sealed to an
              on-disk columnar segment and the probe state is
              checkpointed with that tail, so `kill -9` at any moment
              loses at most one day — resuming reproduces the exact
              bytes of an uninterrupted run (DESIGN.md §7)
                --out DIR            directory for a new campaign
                                     (default: satwatch-campaign)
                --resume DIR         continue the campaign in DIR; the
                                     scenario comes from its manifest,
                                     so the scenario options and --out
                                     are refused
                --abort-after-day N  commit day N's checkpoint
                                     (0-based), then exit — the CI
                                     kill simulation
                                     (--metrics-out appends one JSON
                                      delta snapshot per sealed day
                                      instead of one final snapshot)
  help        show this message (so does --help on any command)

scenario options (all commands):
  --customers N          number of CPEs (default 300)
  --days N               simulated days (default 1)
  --seed N               root seed (default 42)
  --no-pep               disable the split-TCP PEP (A3)
  --african-gs           add an African ground station (A1)
  --force-operator-dns   force the operator resolver (A2)

execution (all commands):
  --threads N, --shards N
                         accepted and ignored: the packet path and the
                         analytics scans run on one thread (DESIGN.md
                         §2)

observability (all commands):
  --metrics-out FILE     write the final telemetry snapshot on exit
                         (JSON; a .prom/.txt extension selects the
                          Prometheus text exposition format)
  --metrics-interval MS  print a one-line live ticker to stderr every
                         MS milliseconds while the command runs
  --no-metrics           disable all telemetry recording (the output
                         artifacts are byte-identical either way)
  --print-rss            print `peak_rss_process_bytes: N` to stderr
                         on exit (process VmHWM; used by CI to compare
                         memory of alternative execution paths)"
}

pub fn dispatch(args: &Args) -> Result<(), Box<dyn Error>> {
    if args.flag("help") || args.command == "help" {
        println!("{}", usage());
        return Ok(());
    }
    // Observability wrapper: an optional live ticker for the duration
    // of the command, and an optional snapshot written on the way out
    // (also on error — a failed run's metrics are the interesting ones).
    if args.flag("no-metrics") {
        satwatch_telemetry::set_enabled(false);
    }
    let interval_ms = args.get_parsed("metrics-interval", 0u64)?;
    let ticker =
        (interval_ms > 0).then(|| satwatch_telemetry::Ticker::start(std::time::Duration::from_millis(interval_ms)));
    let result = run_command(args);
    drop(ticker);
    // `campaign` owns its --metrics-out file (it appends one delta
    // snapshot per sealed day); a final overwrite here would destroy
    // that per-day history.
    if args.command != "campaign" {
        if let Some(path) = args.get("metrics-out") {
            write_metrics(path)?;
        }
    }
    // Machine-greppable RSS line for memory regression checks: CI
    // holds `simulate` flat in `--days` with it, and below `report`
    // and `campaign` on the same config.
    if args.flag("print-rss") {
        match satwatch_telemetry::peak_rss_process_bytes() {
            Some(b) => eprintln!("peak_rss_process_bytes: {b}"),
            None => eprintln!("peak_rss_process_bytes: unavailable"),
        }
    }
    result
}

fn run_command(args: &Args) -> Result<(), Box<dyn Error>> {
    // The two execution options are accepted because scripts and the
    // benchmark harness pass them, type-checked, and ignored: every
    // command runs on one thread (DESIGN.md §2).
    let mut ignored = Vec::new();
    for name in ["threads", "shards"] {
        if args.get_parsed(name, 1usize)? != 1 {
            ignored.push(format!("--{name}"));
        }
    }
    if !ignored.is_empty() {
        eprintln!("note: {} ignored: satwatch runs on one thread", ignored.join(" and "));
    }
    match args.command.as_str() {
        "simulate" => simulate(args),
        "replay" => replay(args),
        "report" => report(args),
        "profiles" => profiles(args),
        "ablations" => ablations(args),
        "topdomains" => topdomains(args),
        "paper-check" => paper_check(args),
        "campaign" => campaign(args),
        "query" => query(args),
        "rules" => {
            print!("{}", satwatch_analytics::Classifier::standard().render_rules());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage()).into()),
    }
}

/// Write the current telemetry snapshot to `path`. The extension
/// picks the format: `.prom`/`.txt` → Prometheus text exposition,
/// anything else → JSON.
fn write_metrics(path: &str) -> Result<(), Box<dyn Error>> {
    let snap = satwatch_telemetry::Snapshot::take();
    let path = Path::new(path);
    let prometheus = path.extension().is_some_and(|e| e == "prom" || e == "txt");
    let text = if prometheus { snap.to_prometheus() } else { snap.to_json() };
    create_parent(path)?;
    fs::write(path, text).map_err(|e| named(path, e))?;
    eprintln!("wrote telemetry snapshot to {}", path.display());
    Ok(())
}

/// The options [`scenario_from`] reads.
const SCENARIO_OPTIONS: [&str; 6] = ["customers", "days", "seed", "no-pep", "african-gs", "force-operator-dns"];

fn scenario_from(args: &Args) -> Result<ScenarioConfig, Box<dyn Error>> {
    let mut cfg = ScenarioConfig::tiny()
        .with_customers(args.get_parsed("customers", 300u32)?)
        .with_days(args.get_parsed("days", 1u64)?)
        .with_seed(args.get_parsed("seed", 42u64)?);
    if args.flag("no-pep") {
        cfg = cfg.without_pep();
    }
    if args.flag("african-gs") {
        cfg = cfg.with_african_ground_station();
    }
    if args.flag("force-operator-dns") {
        cfg = cfg.with_forced_operator_dns();
    }
    Ok(cfg)
}

/// The first of the two progress lines every scenario command prints
/// around its run; the clock of the second starts here.
fn banner_start(cfg: ScenarioConfig) -> Instant {
    eprintln!(
        "simulating {} customers × {} day(s), seed {} (pep={}, african_gs={}, forced_dns={}) …",
        cfg.customers, cfg.days, cfg.seed, cfg.pep_enabled, cfg.african_ground_station, cfg.force_operator_dns
    );
    Instant::now()
}

/// The second line (`satbench` reads the run's counts off it).
fn banner_done(t0: Instant, (packets, flows, dns): (u64, usize, usize)) {
    eprintln!("done in {:.1?}: {packets} packets, {flows} flows, {dns} DNS transactions", t0.elapsed());
}

/// The ingest of every command that renders from a scenario run,
/// between the two progress lines: evicted flows go straight into the
/// frame, the record vector is never materialised.
fn ingest_with_banner(cfg: ScenarioConfig) -> ColumnarDataset {
    let t0 = banner_start(cfg);
    let cds = run_streaming(cfg);
    banner_done(t0, (cds.packets, cds.frame.len(), cds.dns.len()));
    cds
}

fn campaign(args: &Args) -> Result<(), Box<dyn Error>> {
    use satwatch_campaign::{Campaign, CampaignError, RunOptions};

    let mut c = match args.get("resume") {
        Some(dir) => {
            // which scenario runs, and where, is the manifest's to say
            let mut of_a_new_campaign = SCENARIO_OPTIONS.iter().chain(&["out"]);
            if let Some(name) = of_a_new_campaign.find(|name| args.flag(name) || args.get(name).is_some()) {
                return Err(format!(
                    "--{name} cannot be combined with --resume: the scenario comes from the campaign's manifest"
                )
                .into());
            }
            let c = Campaign::resume(Path::new(dir))?;
            eprintln!(
                "campaign: resuming {} at day {}/{} ({} segments sealed)",
                dir,
                c.days_completed(),
                c.config().days,
                c.segments().len()
            );
            c
        }
        None => {
            let out = args.get("out").unwrap_or("satwatch-campaign");
            let cfg = scenario_from(args)?;
            eprintln!("campaign: {} customers × {} day(s), seed {} → {}", cfg.customers, cfg.days, cfg.seed, out);
            Campaign::create(Path::new(out), cfg)?
        }
    };

    let abort_after_day = match args.get("abort-after-day") {
        Some(_) => Some(args.get_parsed("abort-after-day", 0u64)?),
        None => None,
    };
    let opts = RunOptions { abort_after_day, metrics_out: args.get("metrics-out").map(Into::into), quiet: false };
    let outcome = c.run(&opts).map_err(|e| match e {
        CampaignError::AbortOutOfReach { .. } => format!("--abort-after-day: {e}"),
        e => e.to_string(),
    })?;
    if outcome.completed {
        // stdout, machine-greppable — the CI smoke diffs these lines
        // between an interrupted-and-resumed and an uninterrupted run
        println!("campaign_days: {}", outcome.days_completed);
        println!("campaign_dataset_digest: {:016x}", outcome.dataset_digest.expect("complete"));
        println!("campaign_report_digest: {:016x}", outcome.report_digest.expect("complete"));
        eprintln!("campaign: report written to {}", c.dir().join(satwatch_campaign::store::REPORT).display());
    } else {
        println!("campaign_days: {}", outcome.days_completed);
        eprintln!(
            "campaign: stopped after day {} of {} (resume with --resume {})",
            outcome.days_completed,
            c.config().days,
            c.dir().display()
        );
    }
    Ok(())
}

/// An I/O error with the file it happened on.
fn named(path: &Path, e: io::Error) -> String {
    format!("{}: {e}", path.display())
}

/// Create the directory `path` is to be written in, if it names one.
fn create_parent(path: &Path) -> Result<(), String> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => fs::create_dir_all(parent).map_err(|e| named(path, e)),
        _ => Ok(()),
    }
}

/// The flow and DNS logs of `simulate`, appended to piece by piece as
/// the run seals them. The first write that fails is kept, named after
/// its file, and nothing is written to either log after it.
struct LogWriter<W> {
    flows: (PathBuf, W),
    dns: (PathBuf, W),
    /// Rows appended so far: `(flows, DNS transactions)`.
    rows: (usize, usize),
    failed: Option<String>,
}

impl<W: Write> LogWriter<W> {
    /// Start both logs: each gets its header line.
    fn new(flows: (PathBuf, W), dns: (PathBuf, W)) -> LogWriter<W> {
        let mut logs = LogWriter { flows, dns, rows: (0, 0), failed: None };
        let _ = logs.write(|w| write_flows(w, &[]), |w| write_dns_log(w, &[]));
        logs
    }

    /// One block to each log, unless a write has failed before;
    /// `Break` once one has.
    fn write(
        &mut self,
        flows: impl FnOnce(&mut W) -> io::Result<()>,
        dns: impl FnOnce(&mut W) -> io::Result<()>,
    ) -> ControlFlow<()> {
        if self.failed.is_none() {
            self.failed = flows(&mut self.flows.1)
                .map_err(|e| named(&self.flows.0, e))
                .and_then(|()| dns(&mut self.dns.1).map_err(|e| named(&self.dns.0, e)))
                .err();
        }
        match self.failed {
            None => ControlFlow::Continue(()),
            Some(_) => ControlFlow::Break(()),
        }
    }

    /// Append a sealed piece through the block codec (same bytes as
    /// one `write_flows` / `write_dns_log` over the whole run).
    fn append(&mut self, piece: Piece) -> ControlFlow<()> {
        self.rows.0 += piece.flows.len();
        self.rows.1 += piece.dns.len();
        self.write(|w| write_flow_rows(w, &piece.flows), |w| write_dns_rows(w, &piece.dns))
    }
}

fn simulate(args: &Args) -> Result<(), Box<dyn Error>> {
    let cfg = scenario_from(args)?;
    let out_dir = Path::new(args.get("out").unwrap_or("satwatch-logs"));
    fs::create_dir_all(out_dir).map_err(|e| named(out_dir, e))?;
    let [flows, dns, enr] = ["flows.tsv", "dns.tsv", "enrichment.tsv"].map(|name| out_dir.join(name));
    let create = |path: &Path| fs::File::create(path).map(|f| (path.to_path_buf(), f)).map_err(|e| named(path, e));
    // rows leave as the probe is done with them: the logs grow while
    // the run advances, and memory does not grow with `--days`
    let mut logs = LogWriter::new(create(&flows)?, create(&dns)?);
    let run = match args.get("pcap") {
        Some(path) => {
            use satwatch_monitor::pcap::PcapWriter;
            let snaplen: u32 = args.get_parsed("snaplen", 256u32)?;
            let pcap = Path::new(path);
            create_parent(pcap)?;
            let file = std::io::BufWriter::new(fs::File::create(pcap).map_err(|e| named(pcap, e))?);
            let mut writer = PcapWriter::new(file, snaplen).map_err(|e| named(pcap, e))?;
            eprintln!("capturing span traffic to {path} (snaplen {snaplen}) …");
            // the tap cannot return an error: keep the first one and
            // write nothing after it
            let mut failed = None;
            let run = run_sealed(
                cfg,
                Some(&mut |t, pkt| {
                    if failed.is_none() {
                        failed = writer.write(t, pkt).err();
                    }
                }),
                |piece| logs.append(piece),
            );
            let packets = writer.packets_written();
            let flushed = writer.into_inner().into_inner().map(drop).map_err(std::io::IntoInnerError::into_error);
            failed.map_or(flushed, Err).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("pcap: {packets} packets");
            run
        }
        None => {
            let t0 = banner_start(cfg);
            let run = run_sealed(cfg, None, |piece| logs.append(piece));
            if logs.failed.is_none() {
                banner_done(t0, (run.packets, logs.rows.0, logs.rows.1));
            }
            run
        }
    };
    logs.failed.map_or(Ok(()), Err)?;
    // the customer map, as the operator would hand it to the analysts
    fs::File::create(&enr)
        .and_then(|mut f| write_enrichment_log(&mut f, &run.enrichment))
        .map_err(|e| named(&enr, e))?;
    eprintln!("wrote {}, {}, {}", flows.display(), dns.display(), enr.display());
    Ok(())
}

/// One output a command can print: its `--figure` name and how to
/// render it from the report fold.
type Figure = (&'static str, fn(&PaperReports) -> String);

/// The `--figure` value (default `all`), checked against the names the
/// command can render before anything is simulated or read; a name
/// that is not one of them comes back as the error.
fn figure_arg(args: &Args, names: &[&str]) -> Result<String, String> {
    let which = args.get("figure").unwrap_or("all").to_ascii_lowercase();
    if which == "all" || names.contains(&which.as_str()) {
        Ok(which)
    } else {
        Err(which)
    }
}

/// Print `which` (one of `names`, or `all` of them) in [`REPORT_FIGURES`]' order.
fn print_figures(which: &str, names: &[&str], reports: &PaperReports) {
    for (name, render) in REPORT_FIGURES {
        if names.contains(&name) && (which == "all" || which == name) {
            println!("{}", render(reports));
        }
    }
}

/// What `report` renders, in [`PaperReports::render_all`]'s order.
const REPORT_FIGURES: [Figure; 13] = [
    ("table1", |r| r.table1.render()),
    ("fig2", |r| r.fig2.render()),
    ("fig3", |r| r.fig3.render()),
    ("fig4", |r| r.fig4.render()),
    ("fig5", |r| r.fig5.render()),
    ("fig6", |r| r.fig6.render()),
    ("fig7", |r| r.fig7.render()),
    ("fig8a", |r| r.fig8a.render()),
    ("fig8b", |r| r.fig8b.render()),
    ("fig9", |r| r.fig9.render()),
    ("fig10", |r| r.fig10.render()),
    ("table2", |r| r.table2.render()),
    ("fig11", |r| r.fig11.render()),
];

/// `satwatch report`: every figure and table is folded from the rows
/// and DNS records the probe seals as the run goes ([`run_report`]);
/// the day is never held whole.
fn report(args: &Args) -> Result<(), Box<dyn Error>> {
    let cfg = scenario_from(args)?;
    let names = REPORT_FIGURES.map(|(name, _)| name);
    let which = figure_arg(args, &names)
        .map_err(|which| format!("unknown figure {which:?} (try table1, fig2..fig11, table2, all)"))?;
    let t0 = banner_start(cfg);
    let ReportRun { reports, table2_csv, flows, dns, packets } = run_report(cfg);
    banner_done(t0, (packets, flows, dns));
    print_figures(&which, &names, &reports);
    if let Some(dir) = args.get("csv") {
        fs::create_dir_all(dir).map_err(|e| named(Path::new(dir), e))?;
        // the CSV export keeps a lower flow floor than the rendered table
        for (name, contents) in satwatch_analytics::csv::report_files(&reports, &table2_csv) {
            let path = Path::new(dir).join(name);
            fs::write(&path, contents).map_err(|e| named(&path, e))?;
        }
        eprintln!("wrote 13 CSV files to {dir}");
    }
    Ok(())
}

fn profiles(args: &Args) -> Result<(), Box<dyn Error>> {
    let cfg = scenario_from(args)?;
    let mut profiles = fit_profiles(&ingest_with_banner(cfg).frame, &Country::TOP6);
    profiles.push(leo::starlink_reference(Period::Night));
    profiles.push(leo::starlink_reference(Period::Peak));
    let text = errant_export::export(&profiles);
    match args.get("out") {
        Some(path) => {
            fs::write(path, &text).map_err(|e| named(Path::new(path), e))?;
            eprintln!("wrote {} profiles to {path}", profiles.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn topdomains(args: &Args) -> Result<(), Box<dyn Error>> {
    let cfg = scenario_from(args)?;
    let n = args.get_parsed("n", 20usize)?;
    let classifier = satwatch_analytics::Classifier::standard();
    let top = satwatch_analytics::top_domains(&ingest_with_banner(cfg).frame, &classifier, n);
    print!("{}", satwatch_analytics::topdomains::render(&top));
    Ok(())
}

/// Open `dir/name` and decode it with `read`; errors name the file.
fn read_log<T>(
    dir: &str,
    name: &str,
    read: impl FnOnce(BufReader<fs::File>) -> std::io::Result<T>,
) -> Result<T, String> {
    let path = Path::new(dir).join(name);
    fs::File::open(&path).and_then(|f| read(BufReader::new(f))).map_err(|e| named(&path, e))
}

/// What `replay` renders: the figures that need nothing the logs do
/// not hold (beams are not persisted, so no Fig 8b).
const REPLAY_FIGURES: [&str; 5] = ["table1", "fig2", "fig9", "fig10", "fig11"];

/// The reports of the logs in `dir`, folded as they are read: the
/// rows of `flows.tsv` go into the frame builder as they decode and
/// are handed to one [`ReportFold`] [`FOLD_ROWS`] at a time, and
/// `dns.tsv` is read in step, every lookup at or before a row absorbed
/// ahead of it — the path `report` takes (DESIGN.md §6). Both logs
/// must be in the order `simulate` writes; what stays resident is the
/// live batch, the pruned join and the fold's accumulators.
fn replay_reports(dir: &str) -> Result<PaperReports, String> {
    let mut enr = read_log(dir, "enrichment.tsv", read_enrichment_log)?;
    let open = |name: &str| {
        let path = Path::new(dir).join(name);
        fs::File::open(&path).map_err(|e| named(&path, e)).map(|f| (f, path))
    };
    let (flow_file, flow_path) = open("flows.tsv")?;
    let (dns_file, dns_path) = open("dns.tsv")?;
    // the log does not say how long the capture ran: its last day does
    let last = last_first(&flow_file).map_err(|e| named(&flow_path, e))?;
    enr.days = last.map_or(1, |t| t.day() + 1);
    let mut builder = FrameBuilder::new(enr.clone());
    let mut fold = ReportFold::new(ReportCtx { enrichment: &enr, countries: &Country::TOP6 });
    let mut dns_rows = DnsRows::new(BufReader::new(dns_file)).in_order();
    let mut next_dns = || dns_rows.next().transpose().map_err(|e| named(&dns_path, e));
    let (mut next, mut piece) = (next_dns()?, Vec::new());
    let (mut flows, mut dns, mut batch) = (0, 0, 0);
    // every DNS record at or before `until` into the fold, marked at
    // the `ts` of the first one after it
    let mut absorb_dns = |fold: &mut ReportFold<'_>, until: SimTime| -> Result<(), String> {
        while let Some(d) = next.take_if(|d| d.ts <= until) {
            piece.push(d);
            next = next_dns()?;
        }
        dns += piece.len();
        fold.absorb_dns(&piece, next.as_ref().map_or(SimTime::MAX, |d| d.ts));
        piece.clear();
        Ok(())
    };
    for f in FlowRows::new(BufReader::new(flow_file)).in_order() {
        let f = f.map_err(|e| named(&flow_path, e))?;
        absorb_dns(&mut fold, f.first)?;
        if batch == FOLD_ROWS {
            // no row to come is first before this one
            builder.seal_behind(Some(f.first));
            fold.hand_over(&mut builder);
            batch = 0;
        }
        builder.push(&f);
        (flows, batch) = (flows + 1, batch + 1);
    }
    absorb_dns(&mut fold, SimTime::MAX)?;
    builder.seal_behind(None);
    fold.hand_over(&mut builder);
    eprintln!("replaying {flows} flows / {dns} DNS transactions from {dir}");
    Ok(fold.finish(&experiments::FIG6_SERVICES, experiments::MIN_FLOWS))
}

fn replay(args: &Args) -> Result<(), Box<dyn Error>> {
    let dir = args.get("logs").ok_or("replay needs --logs DIR (from `simulate --out DIR`)")?;
    let which = figure_arg(args, &REPLAY_FIGURES).map_err(|which| {
        format!("replay cannot render figure {which:?} (try table1, fig2, fig9, fig10, fig11, all)")
    })?;
    print_figures(&which, &REPLAY_FIGURES, &replay_reports(dir)?);
    Ok(())
}

fn paper_check(args: &Args) -> Result<(), Box<dyn Error>> {
    let cfg = scenario_from(args)?;
    let rows = satwatch_scenario::paper_check::check_all(&ingest_with_banner(cfg));
    print!("{}", satwatch_scenario::paper_check::render(&rows));
    let failed = rows.iter().filter(|r| !r.pass).count();
    if failed > 0 {
        return Err(format!("{failed} checks failed").into());
    }
    Ok(())
}

/// `satwatch query`: run an aggregation pipeline (DESIGN.md §8) over
/// the flow frame of a scenario run. The pipeline comes from
/// `--pipeline '<json>'` or `--pipeline-file FILE`. The rendered table
/// goes to stdout, a one-line pushdown/row-count summary to stderr.
fn query(args: &Args) -> Result<(), Box<dyn Error>> {
    let cfg = scenario_from(args)?;
    let src = match (args.get("pipeline"), args.get("pipeline-file")) {
        (Some(_), Some(_)) => return Err("pass either --pipeline or --pipeline-file, not both".into()),
        (Some(s), None) => s.to_string(),
        (None, Some(path)) => fs::read_to_string(path).map_err(|e| named(Path::new(path), e))?,
        (None, None) => {
            return Err("query needs --pipeline '<json>' or --pipeline-file FILE\n\
                 example: satwatch query --pipeline \
                 '[{\"group\": {\"by\": [\"l7\"], \"aggs\": {\"bytes\": {\"sum\": \"bytes\"}}}}]'"
                .into())
        }
    };
    let pipeline = satwatch_analytics::Pipeline::parse(&src)?;
    let render: fn(&ResultTable) -> String = match args.get("format").unwrap_or("text") {
        "text" => ResultTable::render_text,
        "csv" => ResultTable::render_csv,
        "json" => |table| table.render_json() + "\n",
        other => return Err(format!("unknown --format {other:?} (try text, csv, json)").into()),
    };
    let frame = ingest_with_banner(cfg).frame;
    let t0 = std::time::Instant::now();
    let (table, stats) = satwatch_analytics::query::run_with_stats(&frame, &pipeline, 1)?;
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    print!("{}", render(&table));
    eprintln!(
        "query: scanned {} rows, {} after pushdown, {} result rows in {:.1} ms",
        stats.rows_scanned, stats.rows_after_pushdown, stats.result_rows, elapsed_ms
    );
    Ok(())
}

fn ablations(args: &Args) -> Result<(), Box<dyn Error>> {
    let cfg = scenario_from(args)?;
    eprintln!("running 4 scenarios (baseline + A1 + A2 + A3) …");
    let base = experiments::ablation_summary(cfg);
    let no_pep = experiments::ablation_summary(cfg.without_pep());
    let af = experiments::ablation_summary(cfg.with_african_ground_station());
    let dns = experiments::ablation_summary(cfg.with_forced_operator_dns());
    println!("{:<34} {:>10} {:>10} {:>10} {:>10}", "metric", "baseline", "no PEP", "African GS", "op DNS");
    println!(
        "{:<34} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
        "TLS time-to-first-byte (s)", base.ttfb_s, no_pep.ttfb_s, af.ttfb_s, dns.ttfb_s
    );
    println!(
        "{:<34} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
        "African ground RTT median (ms)",
        base.african_ground_rtt_ms,
        no_pep.african_ground_rtt_ms,
        af.african_ground_rtt_ms,
        dns.african_ground_rtt_ms
    );
    println!(
        "{:<34} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
        "DNS response median (ms)", base.dns_median_ms, no_pep.dns_median_ms, af.dns_median_ms, dns.dns_median_ms
    );
    println!(
        "{:<34} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
        "satellite RTT median (ms)",
        base.sat_rtt_median_ms,
        no_pep.sat_rtt_median_ms,
        af.sat_rtt_median_ms,
        dns.sat_rtt_median_ms
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use satwatch_monitor::record::{read_dns_log, read_flows};
    use satwatch_monitor::FlowRecord;
    use satwatch_scenario::run;

    fn parse(v: &[&str]) -> Args {
        Args::parse(v.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn scenario_options_flow_through() {
        let a = parse(&["report", "--customers", "25", "--days", "2", "--seed", "9", "--no-pep", "--african-gs"]);
        let cfg = scenario_from(&a).unwrap();
        assert_eq!(cfg.customers, 25);
        assert_eq!(cfg.days, 2);
        assert_eq!(cfg.seed, 9);
        assert!(!cfg.pep_enabled);
        assert!(cfg.african_ground_station);
        assert!(!cfg.force_operator_dns);
    }

    #[test]
    fn unknown_command_is_an_error() {
        let a = parse(&["frobnicate"]);
        assert!(dispatch(&a).is_err());
    }

    #[test]
    fn help_always_succeeds() {
        assert!(dispatch(&parse(&["help"])).is_ok());
    }

    #[test]
    fn simulate_writes_logs() {
        let dir = std::env::temp_dir().join(format!("satwatch-cli-test-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_string();
        let a = parse(&["simulate", "--customers", "12", "--seed", "3", "--out", &dir_s]);
        dispatch(&a).unwrap();
        let flows = std::fs::read_to_string(dir.join("flows.tsv")).unwrap();
        assert!(flows.lines().count() > 100, "flow log has rows");
        assert!(flows.starts_with("client\t"));
        let dns = std::fs::read_to_string(dir.join("dns.tsv")).unwrap();
        assert!(dns.lines().count() > 10);
        let enr = std::fs::read_to_string(dir.join("enrichment.tsv")).unwrap();
        // header + at least one customer per country (per-country
        // rounding can add a few above the requested 12)
        assert!(enr.lines().count() >= 13, "{}", enr.lines().count());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_then_replay_round_trips() {
        let dir = std::env::temp_dir().join(format!("satwatch-replay-test-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_string();
        let pcap = dir.join("span.pcap");
        let a = parse(&[
            "simulate",
            "--customers",
            "15",
            "--days",
            "2",
            "--seed",
            "4",
            "--out",
            &dir_s,
            "--pcap",
            pcap.to_str().unwrap(),
            "--snaplen",
            "128",
        ]);
        dispatch(&a).unwrap();
        // the pcap is a valid capture
        let recs = satwatch_monitor::pcap::read_pcap(std::fs::File::open(&pcap).unwrap()).unwrap();
        assert!(recs.len() > 1_000);
        assert!(recs[0].parse().is_ok());
        // and the logs replay into the same Table 1
        let r = parse(&["replay", "--logs", &dir_s, "--figure", "table1"]);
        dispatch(&r).unwrap();
        // replayed domains are interned, so the pointer-keyed classify
        // memo holds one entry per distinct name, not one per flow
        let flows = read_log(&dir_s, "flows.tsv", read_flows).unwrap();
        let (classifier, mut cache) = (satwatch_analytics::Classifier::standard(), Default::default());
        for d in flows.iter().filter_map(|f| f.domain.as_ref()) {
            classifier.classify_cached(d, &mut cache);
        }
        let names: std::collections::BTreeSet<&str> = flows.iter().filter_map(|f| f.domain.as_deref()).collect();
        assert!(names.len() > 20 && flows.len() > 20 * names.len(), "{} names, {} flows", names.len(), flows.len());
        assert_eq!(cache.len(), names.len());

        // what `replay` renders is the record-slice oracle over the
        // same directory, `days` taken from the last row's day
        let dns = read_log(&dir_s, "dns.tsv", read_dns_log).unwrap();
        let mut enr = read_log(&dir_s, "enrichment.tsv", read_enrichment_log).unwrap();
        let assert_replays_to = |flows: &[FlowRecord], enr: &satwatch_analytics::Enrichment| {
            let (got, want) =
                (replay_reports(&dir_s).unwrap(), experiments::paper_reports_records(flows, &dns, enr, 10, 1));
            for (name, render) in REPORT_FIGURES {
                assert_eq!(render(&got), render(&want), "{name} over {} flows", flows.len());
            }
        };
        enr.days = 2;
        assert_eq!(flows.last().unwrap().first.day(), 1);
        assert_replays_to(&flows, &enr);

        // a bad field in the middle of the log fails the command under
        // the file's name and line, before anything is rendered
        let log = std::fs::read_to_string(dir.join("flows.tsv")).unwrap();
        let mut lines: Vec<&str> = log.lines().collect();
        let bad = lines[500].split('\t').enumerate().map(|(i, f)| if i == 3 { "x" } else { f }).collect::<Vec<_>>();
        let bad = bad.join("\t");
        lines[500] = &bad;
        std::fs::write(dir.join("flows.tsv"), lines.join("\n")).unwrap();
        let err = dispatch(&parse(&["replay", "--logs", &dir_s])).unwrap_err().to_string();
        assert_eq!(err, format!("{}: line 500: bad sport", dir.join("flows.tsv").display()));

        // a log of no flows is one day of empty figures
        write_flows(&mut std::fs::File::create(dir.join("flows.tsv")).unwrap(), &[]).unwrap();
        enr.days = 1;
        assert_replays_to(&[], &enr);
        dispatch(&parse(&["replay", "--logs", &dir_s])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `replay` folds as it reads — rows handed over [`FOLD_ROWS`] at
    /// a time, the DNS log read in step — and renders what
    /// `report_all` renders over the whole frame and DNS log, over
    /// logs of several batches and a day boundary. A log whose sort
    /// column goes back fails under its file and line.
    #[test]
    fn replay_folds_like_report_all_over_the_whole_frame() {
        let dir = std::env::temp_dir().join(format!("satwatch-replay-fold-test-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_string();
        dispatch(&parse(&["simulate", "--customers", "20", "--days", "2", "--seed", "11", "--out", &dir_s])).unwrap();
        let flows = read_log(&dir_s, "flows.tsv", read_flows).unwrap();
        let dns = read_log(&dir_s, "dns.tsv", read_dns_log).unwrap();
        assert!(flows.len() > 3 * FOLD_ROWS, "{} flows", flows.len());
        assert_eq!((flows[0].first.day(), flows.last().unwrap().first.day()), (0, 1));
        let mut enr = read_log(&dir_s, "enrichment.tsv", read_enrichment_log).unwrap();
        enr.days = 2;
        let frame = satwatch_analytics::FlowFrame::from_records(&flows, &enr);
        let ctx = ReportCtx { enrichment: &enr, countries: &Country::TOP6 };
        let want =
            satwatch_analytics::report_all(&frame, &dns, ctx, &experiments::FIG6_SERVICES, experiments::MIN_FLOWS);
        let got = replay_reports(&dir_s).unwrap();
        for (name, render) in REPORT_FIGURES {
            assert_eq!(render(&got), render(&want), "{name}");
        }

        // two rows swapped, in either log
        for (name, first_field) in [("flows.tsv", 5), ("dns.tsv", 3)] {
            let path = dir.join(name);
            let log = std::fs::read_to_string(&path).unwrap();
            let mut lines: Vec<&str> = log.lines().collect();
            let key = |l: &str| l.split('\t').nth(first_field).unwrap().parse::<u64>().unwrap();
            let at = (1000..lines.len() - 1).find(|&i| key(lines[i]) < key(lines[i + 1])).unwrap();
            lines.swap(at, at + 1);
            std::fs::write(&path, lines.join("\n")).unwrap();
            let err = replay_reports(&dir_s).unwrap_err();
            assert!(err.starts_with(&format!("{}: line {}: ", path.display(), at + 1)), "{err}");
            assert!(err.contains("goes back"), "{err}");
            std::fs::write(&path, log).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A file that cannot take the bytes (`/dev/full` fails every
    /// write with ENOSPC) fails the command, whichever log it is — or
    /// the pcap capture — and the error names the file.
    #[cfg(target_os = "linux")]
    #[test]
    fn simulate_returns_the_write_error_of_a_full_disk() {
        for full in ["flows.tsv", "dns.tsv", "enrichment.tsv", "span.pcap"] {
            let dir = std::env::temp_dir().join(format!("satwatch-full-test-{}-{full}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            std::os::unix::fs::symlink("/dev/full", dir.join(full)).unwrap();
            let pcap = dir.join("span.pcap");
            let a = parse(&[
                "simulate",
                "--customers",
                "8",
                "--seed",
                "3",
                "--out",
                dir.to_str().unwrap(),
                "--pcap",
                pcap.to_str().unwrap(),
            ]);
            let err = dispatch(&a).expect_err(full).to_string();
            assert!(err.contains("No space left") && err.contains(full), "{full}: {err}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    type Count = std::rc::Rc<std::cell::Cell<usize>>;

    /// A sink that counts its blocks and fails the `fails_on`-th.
    struct Blocks {
        seen: Count,
        fails_on: usize,
    }

    impl Write for Blocks {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            self.seen.set(self.seen.get() + 1);
            if self.seen.get() == self.fails_on {
                return Err(io::Error::other("disk full"));
            }
            Ok(b.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The piece writer keeps the first failed write under its file's
    /// name, breaks the run, and attempts no block on either log
    /// afterwards.
    #[test]
    fn log_writer_names_the_first_failed_write_and_stops() {
        let ds = run(ScenarioConfig::tiny().with_customers(3));
        let piece = || Piece { flows: ds.flows[..4].to_vec(), dns: ds.dns[..4].to_vec() };
        let (flow_blocks, dns_blocks) = (Count::default(), Count::default());
        let sink = |seen: &Count, fails_on| Blocks { seen: seen.clone(), fails_on };
        // header, piece, piece: the DNS log's third block fails
        let mut logs = LogWriter::new(
            ("out/flows.tsv".into(), sink(&flow_blocks, usize::MAX)),
            ("out/dns.tsv".into(), sink(&dns_blocks, 3)),
        );
        assert_eq!(logs.append(piece()), ControlFlow::Continue(()));
        assert_eq!(logs.append(piece()), ControlFlow::Break(()));
        assert_eq!((flow_blocks.get(), dns_blocks.get()), (3, 3));
        assert_eq!(logs.append(piece()), ControlFlow::Break(()), "and stays broken");
        assert_eq!((flow_blocks.get(), dns_blocks.get()), (3, 3), "no block attempted after the failure");
        assert_eq!(logs.failed.as_deref(), Some("out/dns.tsv: disk full"));
        // a header that cannot be written is the first failure
        let logs = LogWriter::new(
            ("out/flows.tsv".into(), sink(&Count::default(), 1)),
            ("out/dns.tsv".into(), sink(&dns_blocks, usize::MAX)),
        );
        assert_eq!(logs.failed.as_deref(), Some("out/flows.tsv: disk full"));
        assert_eq!(dns_blocks.get(), 3, "the other log is not started");
    }

    #[test]
    fn metrics_out_writes_snapshot_in_both_formats() {
        let dir = std::env::temp_dir().join(format!("satwatch-metrics-test-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_string();
        let json_path = dir.join("metrics.json");
        let a = parse(&[
            "simulate",
            "--customers",
            "8",
            "--seed",
            "5",
            "--out",
            &dir_s,
            "--metrics-out",
            json_path.to_str().unwrap(),
        ]);
        dispatch(&a).unwrap();
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"scenario_packets_total\""), "snapshot has pipeline counters");
        let prom_path = dir.join("metrics.prom");
        let p = parse(&[
            "simulate",
            "--customers",
            "8",
            "--seed",
            "5",
            "--out",
            &dir_s,
            "--metrics-out",
            prom_path.to_str().unwrap(),
        ]);
        dispatch(&p).unwrap();
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(prom.lines().any(|l| l.starts_with("scenario_packets_total ")), "Prometheus exposition rows");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_rejects_unknown_figure() {
        let a = parse(&["report", "--customers", "10", "--figure", "fig99"]);
        assert!(dispatch(&a).is_err());
    }

    /// `replay` renders five of the figures; asking for any other used
    /// to print nothing and exit 0.
    #[test]
    fn replay_rejects_a_figure_it_cannot_render() {
        let dir = std::env::temp_dir().join(format!("satwatch-replay-figure-test-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_string();
        dispatch(&parse(&["simulate", "--customers", "8", "--seed", "3", "--out", &dir_s])).unwrap();
        for bad in ["fig99", "fig3"] {
            let err = dispatch(&parse(&["replay", "--logs", &dir_s, "--figure", bad])).expect_err(bad).to_string();
            assert!(err.contains("table1, fig2, fig9, fig10, fig11"), "{bad}: {err}");
        }
        dispatch(&parse(&["replay", "--logs", &dir_s, "--figure", "fig9"])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The help text and the parser's list of known names are the same
    /// set: nothing documented is rejected, nothing accepted is hidden.
    #[test]
    fn every_option_in_usage_is_accepted() {
        use crate::args::{FLAGS, OPTIONS};
        let documented: std::collections::BTreeSet<&str> = usage()
            .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
            .filter_map(|tok| tok.strip_prefix("--"))
            .filter(|name| !name.is_empty())
            .collect();
        let known: std::collections::BTreeSet<&str> = FLAGS.iter().chain(OPTIONS).copied().collect();
        assert_eq!(documented, known);
    }

    /// `query` scans the stream-built frame, whose domain dictionary
    /// is in eviction order; the table must be the one the batch-built
    /// frame (first-appearance order) gives.
    #[test]
    fn query_table_equals_the_batch_built_frames() {
        let pipeline = r#"[
            {"match": {"not": {"isnull": {"col": "country"}}}},
            {"group": {"by": ["domain"], "aggs": {"bytes": {"sum": "bytes"}, "flows": {"count": true}}}},
            {"sort": ["-bytes", "domain"]},
            {"limit": 8}
        ]"#;
        let a = parse(&["query", "--customers", "8", "--pipeline", pipeline]);
        dispatch(&a).unwrap();
        let cfg = scenario_from(&a).unwrap();
        let p = satwatch_analytics::Pipeline::parse(pipeline).unwrap();
        let ds = run(cfg);
        let batch = satwatch_analytics::FlowFrame::from_records(&ds.flows, &ds.enrichment);
        let (want, _) = satwatch_analytics::query::run_with_stats(&batch, &p, 1).unwrap();
        let (got, stats) = satwatch_analytics::query::run_with_stats(&run_streaming(cfg).frame, &p, 1).unwrap();
        assert_eq!(got.render_text(), want.render_text());
        assert_eq!(stats.result_rows, 8, "{stats:?}");
    }

    #[test]
    fn query_rejects_bad_input() {
        // no pipeline at all
        assert!(dispatch(&parse(&["query", "--customers", "8"])).is_err());
        // both sources at once
        let both = parse(&["query", "--pipeline", "[]", "--pipeline-file", "x.json"]);
        assert!(dispatch(&both).is_err());
        // malformed pipeline JSON
        let bad = parse(&["query", "--customers", "8", "--pipeline", "{\"not a\": \"pipeline\"}"]);
        assert!(dispatch(&bad).is_err());
        // unknown output format
        let fmt = parse(&[
            "query",
            "--customers",
            "8",
            "--format",
            "xml",
            "--pipeline",
            r#"[{"group": {"aggs": {"n": {"count": true}}}}]"#,
        ]);
        assert!(dispatch(&fmt).is_err());
    }

    /// `--resume` takes the scenario from the manifest: an option that
    /// would describe another one is refused by name, not dropped.
    #[test]
    fn campaign_resume_refuses_the_options_of_a_new_campaign() {
        let dir = std::env::temp_dir().join(format!("satwatch-resume-test-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_string();
        let new = ["campaign", "--out", &dir_s, "--customers", "6", "--days", "2", "--seed", "3"];
        dispatch(&parse(&[&new[..], &["--abort-after-day", "0"]].concat())).unwrap();
        // a valued scenario option, a what-if flag, the directory
        for extra in [&["--customers", "99"][..], &["--no-pep"], &["--out", "elsewhere"]] {
            let err = dispatch(&parse(&[&["campaign", "--resume", &dir_s], extra].concat())).expect_err(extra[0]);
            let err = err.to_string();
            assert!(err.contains(extra[0]) && err.contains("manifest"), "{}: {err}", extra[0]);
        }
        // what shapes this invocation, not the scenario, stays legal
        let legal = ["--threads", "2", "--shards", "2", "--abort-after-day", "1", "--print-rss"];
        dispatch(&parse(&[&["campaign", "--resume", &dir_s], &legal[..]].concat())).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_pipeline_file_and_formats_render() {
        let dir = std::env::temp_dir().join(format!("satwatch-query-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pipeline.json");
        std::fs::write(&path, r#"{"pipeline": [{"group": {"aggs": {"flows": {"count": true}}}}]}"#).unwrap();
        let p = path.to_str().unwrap().to_string();
        for fmt in ["text", "csv", "json"] {
            let a = parse(&["query", "--customers", "8", "--format", fmt, "--pipeline-file", &p]);
            dispatch(&a).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
