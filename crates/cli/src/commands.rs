//! Subcommand implementations for the `satwatch` binary.

use crate::args::{Args, ReportMode, REPORT_MODE_HELP};
use satwatch_analytics::{read_enrichment_log, write_enrichment_log, Enrichment, FlowFrame, ReportCtx};
use satwatch_errant::{export as errant_export, fit_profiles, leo, Period};
use satwatch_monitor::record::{read_dns_log, read_flows, write_dns_log, write_flows};
use satwatch_monitor::DnsRecord;
use satwatch_scenario::{experiments, run, Dataset, ScenarioConfig};
use satwatch_traffic::Country;
use std::error::Error;
use std::fs;
use std::io::BufReader;
use std::path::Path;

/// The full help text. A function (not a const) so the one shared
/// [`REPORT_MODE_HELP`] string can be spliced into every subcommand
/// that accepts `--report-mode` — the three never drift apart.
pub fn usage() -> String {
    format!(
        "\
usage: satwatch <command> [options]

commands:
  simulate    run a scenario and write TSV flow/DNS logs
                --out DIR (default: satwatch-logs)
                --pcap FILE [--snaplen N]   also write a pcap capture
  replay      re-run the analyses over logs written by `simulate`
                --logs DIR --figure {{all|table1|…}}
  report      run a scenario and render figures/tables
                --figure {{all|table1|fig2|...|fig11|table2}}
                {rm}
                             records: per-figure passes over the flow
                             record slice; columnar: batch frame build
                             + fused one-pass sweep; streaming: frame
                             fed by the eviction stream, records never
                             materialised (same bytes out either way)
                --csv DIR    also write plot-ready CSVs
  query       run an aggregation pipeline over the flow frame
                --pipeline JSON        inline pipeline text
                --pipeline-file FILE   pipeline from a JSON file
                                (stages: match, group, project, sort,
                                 limit — see DESIGN.md §11)
                --format {{text|csv|json}}  table rendering (default text)
                {rm}
  profiles    fit and export ERRANT emulation profiles
                --out FILE (default: stdout)
  ablations   compare baseline vs A1/A2/A3 what-ifs
  topdomains  rank second-level domains by volume and popularity
                --n N (default 20)
  paper-check run every paper-vs-measured shape check (EXPERIMENTS.md)
  rules       print the Table 3 service-classification rule set
  campaign    run a checkpointed multi-day campaign: each simulated
              day is sealed to an on-disk columnar segment and the
              probe state is checkpointed, so `kill -9` at any moment
              loses at most one day — resuming reproduces the exact
              bytes of an uninterrupted run (DESIGN.md §14)
                --out DIR            directory for a new campaign
                                     (default: satwatch-campaign)
                --resume DIR         continue the campaign in DIR;
                                     scenario options come from its
                                     manifest (--threads/--shards
                                     still apply: they never change
                                     the output bytes)
                --abort-after-day N  commit day N's checkpoint
                                     (0-based), then exit — the CI
                                     kill simulation
                                     (--metrics-out appends one JSON
                                      delta snapshot per sealed day
                                      instead of one final snapshot)
  bench       time the pipeline at 1/2/4/8 workers, append JSON results
                --out FILE (default: BENCH_parallel.json; entries
                          accumulate — history is never overwritten)
                --change TEXT  one-line description of the change this
                          run measures (stored next to the git rev)
                {rm}
                --replicate N  tile the dataset N× before analytics so
                          analytics_ms is measurable (default 1)
                --smoke   tiny single-worker workload; exercises the
                          bench path in CI without meaningful timings
                          and diffs its digests against the naive
                          single-heap reference run
  help        show this message

scenario options (all commands):
  --customers N          number of CPEs (default 300)
  --days N               simulated days (default 1)
  --seed N               root seed (default 42)
  --threads N            worker threads for parallel stages
                         (default 1 = serial, 0 = one per core;
                          output is bit-identical at any value)
  --shards N             probe shards for the span-port stream
                         (default 1 = inline probe, 0 = one per core;
                          output is bit-identical at any value)
  --no-pep               disable the split-TCP PEP (A3)
  --african-gs           add an African ground station (A1)
  --force-operator-dns   force the operator resolver (A2)

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
                         memory of alternative execution paths)",
        rm = REPORT_MODE_HELP
    )
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
    // Machine-greppable RSS line for memory regression checks: the CI
    // campaign smoke compares this between the segment-merge report
    // path and the all-in-RAM batch baseline on the same config.
    if args.flag("print-rss") {
        match satwatch_telemetry::peak_rss_process_bytes() {
            Some(b) => eprintln!("peak_rss_process_bytes: {b}"),
            None => eprintln!("peak_rss_process_bytes: unavailable"),
        }
    }
    result
}

fn run_command(args: &Args) -> Result<(), Box<dyn Error>> {
    match args.command.as_str() {
        "simulate" => simulate(args),
        "replay" => replay(args),
        "report" => report(args),
        "profiles" => profiles(args),
        "ablations" => ablations(args),
        "topdomains" => topdomains(args),
        "paper-check" => paper_check(args),
        "campaign" => campaign(args),
        "bench" => bench(args),
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
    let prometheus = Path::new(path).extension().is_some_and(|e| e == "prom" || e == "txt");
    let text = if prometheus { snap.to_prometheus() } else { snap.to_json() };
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    fs::write(path, text)?;
    eprintln!("wrote telemetry snapshot to {path}");
    Ok(())
}

fn scenario_from(args: &Args) -> Result<ScenarioConfig, Box<dyn Error>> {
    // `0` auto-detects one worker per core; oversubscription (more
    // workers than cores) warns and raises the
    // `par_threads_oversubscribed` gauge but is honoured.
    let threads = satwatch_simcore::resolve_workers_or_warn(args.get_parsed("threads", 1usize)?, "threads");
    let shards = satwatch_simcore::resolve_workers_or_warn(args.get_parsed("shards", 1usize)?, "shards");
    let mut cfg = ScenarioConfig::tiny()
        .with_customers(args.get_parsed("customers", 300u32)?)
        .with_days(args.get_parsed("days", 1u64)?)
        .with_seed(args.get_parsed("seed", 42u64)?)
        .with_threads(threads)
        .with_probe_shards(shards);
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

fn run_with_banner(cfg: ScenarioConfig) -> Dataset {
    eprintln!(
        "simulating {} customers × {} day(s), seed {} (pep={}, african_gs={}, forced_dns={}) …",
        cfg.customers, cfg.days, cfg.seed, cfg.pep_enabled, cfg.african_ground_station, cfg.force_operator_dns
    );
    let t0 = std::time::Instant::now();
    let ds = run(cfg);
    eprintln!(
        "done in {:.1?}: {} packets, {} flows, {} DNS transactions",
        t0.elapsed(),
        ds.packets,
        ds.flows.len(),
        ds.dns.len()
    );
    ds
}

fn campaign(args: &Args) -> Result<(), Box<dyn Error>> {
    use satwatch_campaign::{Campaign, RunOptions};

    let mut c = match args.get("resume") {
        Some(dir) => {
            let mut c = Campaign::resume(Path::new(dir))?;
            // perf knobs are re-resolvable per process — they never
            // change the output bytes (config_hash excludes them)
            let stored = c.config();
            let threads =
                satwatch_simcore::resolve_workers_or_warn(args.get_parsed("threads", stored.threads)?, "threads");
            let shards =
                satwatch_simcore::resolve_workers_or_warn(args.get_parsed("shards", stored.probe_shards)?, "shards");
            c.override_perf(threads, shards);
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
    let opts = RunOptions {
        abort_after_day,
        metrics_out: args.get("metrics-out").map(Into::into),
        min_flows: 10,
        quiet: false,
    };
    let outcome = c.run(&opts)?;
    if outcome.completed {
        // stdout, machine-greppable — the CI smoke diffs these lines
        // between an interrupted-and-resumed and an uninterrupted run
        println!("campaign_days: {}", outcome.days_completed);
        println!("campaign_dataset_digest: {:016x}", outcome.dataset_digest.expect("complete"));
        println!("campaign_report_digest: {:016x}", outcome.report_digest.expect("complete"));
        eprintln!("campaign: report written to {}", c.dir().join("report.txt").display());
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

fn simulate(args: &Args) -> Result<(), Box<dyn Error>> {
    let cfg = scenario_from(args)?;
    let out_dir = args.get("out").unwrap_or("satwatch-logs");
    let ds = match args.get("pcap") {
        Some(path) => {
            use satwatch_monitor::pcap::PcapWriter;
            let snaplen: u32 = args.get_parsed("snaplen", 256u32)?;
            if let Some(parent) = Path::new(path).parent() {
                if !parent.as_os_str().is_empty() {
                    fs::create_dir_all(parent)?;
                }
            }
            let file = std::io::BufWriter::new(fs::File::create(path)?);
            let mut writer = PcapWriter::new(file, snaplen)?;
            eprintln!("capturing span traffic to {path} (snaplen {snaplen}) …");
            let ds = satwatch_scenario::run_with_tap(cfg, |t, pkt| {
                let _ = writer.write(t, pkt);
            });
            eprintln!("pcap: {} packets", writer.packets_written());
            ds
        }
        None => run_with_banner(cfg),
    };
    fs::create_dir_all(out_dir)?;
    let [flows, dns, enr] = ["flows.tsv", "dns.tsv", "enrichment.tsv"].map(|name| Path::new(out_dir).join(name));
    write_flows(&mut fs::File::create(&flows)?, &ds.flows)?;
    write_dns_log(&mut fs::File::create(&dns)?, &ds.dns)?;
    // the customer map, as the operator would hand it to the analysts
    write_enrichment_log(&mut fs::File::create(&enr)?, &ds.enrichment)?;
    eprintln!("wrote {}, {}, {}", flows.display(), dns.display(), enr.display());
    Ok(())
}

fn report(args: &Args) -> Result<(), Box<dyn Error>> {
    let cfg = scenario_from(args)?;
    match args.report_mode()? {
        ReportMode::Records => report_records(args, cfg),
        mode => report_frame(args, cfg, mode),
    }
}

/// Build the analytics inputs for `mode`. Records and columnar both
/// batch-run the scenario and build the frame from the completed
/// record vector; streaming feeds evicted flows straight into the
/// frame and never materialises the records. All three produce the
/// same frame bytes (pinned by `columnar_equivalence.rs`).
fn build_frame(cfg: ScenarioConfig, mode: ReportMode) -> (FlowFrame, Vec<DnsRecord>, Enrichment) {
    match mode {
        ReportMode::Records | ReportMode::Columnar => {
            let ds = run_with_banner(cfg);
            let fr = FlowFrame::from_records(&ds.flows, &ds.enrichment);
            (fr, ds.dns, ds.enrichment)
        }
        ReportMode::Streaming => {
            eprintln!(
                "simulating {} customers × {} day(s), seed {} (streaming columnar ingest) …",
                cfg.customers, cfg.days, cfg.seed
            );
            let t0 = std::time::Instant::now();
            let cds = satwatch_scenario::run_streaming(cfg);
            eprintln!(
                "done in {:.1?}: {} packets, {} flows, {} DNS transactions",
                t0.elapsed(),
                cds.packets,
                cds.frame.len(),
                cds.dns.len()
            );
            (cds.frame, cds.dns, cds.enrichment)
        }
    }
}

fn report_records(args: &Args, cfg: ScenarioConfig) -> Result<(), Box<dyn Error>> {
    let which = args.get("figure").unwrap_or("all").to_ascii_lowercase();
    let ds = run_with_banner(cfg);
    let mut printed = false;
    let mut want = |name: &str| {
        let hit = which == "all" || which == name;
        printed |= hit;
        hit
    };
    if want("table1") {
        println!("{}", experiments::table1(&ds).render());
    }
    if want("fig2") {
        println!("{}", experiments::fig2(&ds).render());
    }
    if want("fig3") {
        println!("{}", experiments::fig3(&ds).render());
    }
    if want("fig4") {
        println!("{}", experiments::fig4(&ds).render());
    }
    if want("fig5") {
        println!("{}", experiments::fig5(&ds).render());
    }
    if want("fig6") {
        println!("{}", experiments::fig6(&ds).render());
    }
    if want("fig7") {
        println!("{}", experiments::fig7(&ds).render());
    }
    if want("fig8a") {
        println!("{}", experiments::fig8a(&ds).render());
    }
    if want("fig8b") {
        println!("{}", experiments::fig8b(&ds).render());
    }
    if want("fig9") {
        println!("{}", experiments::fig9(&ds).render());
    }
    if want("fig10") {
        println!("{}", experiments::fig10(&ds).render());
    }
    if want("table2") {
        println!("{}", experiments::table_cdn(&ds, 10).render());
    }
    if want("fig11") {
        println!("{}", experiments::fig11(&ds).render());
    }
    if !printed {
        return Err(format!("unknown figure {which:?} (try table1, fig2..fig11, table2, all)").into());
    }
    if let Some(dir) = args.get("csv") {
        use satwatch_analytics::csv;
        fs::create_dir_all(dir)?;
        let d = Path::new(dir);
        fs::write(d.join("table1.csv"), csv::table1_csv(&experiments::table1(&ds)))?;
        fs::write(d.join("fig2.csv"), csv::fig2_csv(&experiments::fig2(&ds)))?;
        fs::write(d.join("fig3.csv"), csv::fig3_csv(&experiments::fig3(&ds)))?;
        fs::write(d.join("fig4.csv"), csv::fig4_csv(&experiments::fig4(&ds)))?;
        fs::write(d.join("fig5.csv"), csv::fig5_csv(&experiments::fig5(&ds), 200))?;
        fs::write(d.join("fig6.csv"), csv::fig6_csv(&experiments::fig6(&ds)))?;
        fs::write(d.join("fig7.csv"), csv::fig7_csv(&experiments::fig7(&ds)))?;
        fs::write(d.join("fig8a.csv"), csv::fig8a_csv(&experiments::fig8a(&ds), 200))?;
        fs::write(d.join("fig8b.csv"), csv::fig8b_csv(&experiments::fig8b(&ds)))?;
        fs::write(d.join("fig9.csv"), csv::fig9_csv(&experiments::fig9(&ds), 200))?;
        fs::write(d.join("fig10.csv"), csv::fig10_csv(&experiments::fig10(&ds)))?;
        fs::write(d.join("table2.csv"), csv::table_cdn_csv(&experiments::table_cdn(&ds, 5)))?;
        fs::write(d.join("fig11.csv"), csv::fig11_csv(&experiments::fig11(&ds), 200))?;
        eprintln!("wrote 13 CSV files to {dir}");
    }
    Ok(())
}

/// `report --report-mode {columnar|streaming}`: the same figures and
/// tables as the records path, but every output comes from the fused
/// single-sweep `report_all` over a [`FlowFrame`] — batch-built
/// (columnar) or fed by the eviction stream (streaming). Output is
/// byte-identical to the records path; the equivalence is pinned by
/// `columnar_equivalence.rs`.
fn report_frame(args: &Args, cfg: ScenarioConfig, mode: ReportMode) -> Result<(), Box<dyn Error>> {
    let workers = cfg.threads.max(1);
    let (frame, dns, enr) = build_frame(cfg, mode);
    let reports = experiments::paper_reports_columnar(&frame, &dns, &enr, 10, workers);
    let which = args.get("figure").unwrap_or("all").to_ascii_lowercase();
    let mut printed = false;
    let mut want = |name: &str| {
        let hit = which == "all" || which == name;
        printed |= hit;
        hit
    };
    if want("table1") {
        println!("{}", reports.table1.render());
    }
    if want("fig2") {
        println!("{}", reports.fig2.render());
    }
    if want("fig3") {
        println!("{}", reports.fig3.render());
    }
    if want("fig4") {
        println!("{}", reports.fig4.render());
    }
    if want("fig5") {
        println!("{}", reports.fig5.render());
    }
    if want("fig6") {
        println!("{}", reports.fig6.render());
    }
    if want("fig7") {
        println!("{}", reports.fig7.render());
    }
    if want("fig8a") {
        println!("{}", reports.fig8a.render());
    }
    if want("fig8b") {
        println!("{}", reports.fig8b.render());
    }
    if want("fig9") {
        println!("{}", reports.fig9.render());
    }
    if want("fig10") {
        println!("{}", reports.fig10.render());
    }
    if want("table2") {
        println!("{}", reports.table2.render());
    }
    if want("fig11") {
        println!("{}", reports.fig11.render());
    }
    if !printed {
        return Err(format!("unknown figure {which:?} (try table1, fig2..fig11, table2, all)").into());
    }
    if let Some(dir) = args.get("csv") {
        use satwatch_analytics::csv;
        fs::create_dir_all(dir)?;
        let d = Path::new(dir);
        fs::write(d.join("table1.csv"), csv::table1_csv(&reports.table1))?;
        fs::write(d.join("fig2.csv"), csv::fig2_csv(&reports.fig2))?;
        fs::write(d.join("fig3.csv"), csv::fig3_csv(&reports.fig3))?;
        fs::write(d.join("fig4.csv"), csv::fig4_csv(&reports.fig4))?;
        fs::write(d.join("fig5.csv"), csv::fig5_csv(&reports.fig5, 200))?;
        fs::write(d.join("fig6.csv"), csv::fig6_csv(&reports.fig6))?;
        fs::write(d.join("fig7.csv"), csv::fig7_csv(&reports.fig7))?;
        fs::write(d.join("fig8a.csv"), csv::fig8a_csv(&reports.fig8a, 200))?;
        fs::write(d.join("fig8b.csv"), csv::fig8b_csv(&reports.fig8b))?;
        fs::write(d.join("fig9.csv"), csv::fig9_csv(&reports.fig9, 200))?;
        fs::write(d.join("fig10.csv"), csv::fig10_csv(&reports.fig10))?;
        // the CSV export keeps the records path's lower flow floor
        let ctx = ReportCtx { enrichment: &enr, countries: &Country::TOP6 };
        let table2_csv = satwatch_analytics::engine::table_cdn_frame(&frame, &dns, ctx, 5, workers);
        fs::write(d.join("table2.csv"), csv::table_cdn_csv(&table2_csv))?;
        fs::write(d.join("fig11.csv"), csv::fig11_csv(&reports.fig11, 200))?;
        eprintln!("wrote 13 CSV files to {dir}");
    }
    Ok(())
}

fn profiles(args: &Args) -> Result<(), Box<dyn Error>> {
    let cfg = scenario_from(args)?;
    let ds = run_with_banner(cfg);
    let mut profiles = fit_profiles(&ds.flows, &ds.enrichment, &Country::TOP6);
    profiles.push(leo::starlink_reference(Period::Night));
    profiles.push(leo::starlink_reference(Period::Peak));
    let text = errant_export::export(&profiles);
    match args.get("out") {
        Some(path) => {
            fs::write(path, &text)?;
            eprintln!("wrote {} profiles to {path}", profiles.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn topdomains(args: &Args) -> Result<(), Box<dyn Error>> {
    let cfg = scenario_from(args)?;
    let n = args.get_parsed("n", 20usize)?;
    let ds = run_with_banner(cfg);
    let classifier = satwatch_analytics::Classifier::standard();
    let top = satwatch_analytics::top_domains(&ds.flows, &classifier, n);
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
    fs::File::open(&path).and_then(|f| read(BufReader::new(f))).map_err(|e| format!("{}: {e}", path.display()))
}

fn replay(args: &Args) -> Result<(), Box<dyn Error>> {
    let dir = args.get("logs").ok_or("replay needs --logs DIR (from `simulate --out DIR`)")?;
    let flows = read_log(dir, "flows.tsv", read_flows)?;
    let dns = read_log(dir, "dns.tsv", read_dns_log)?;
    let mut enr = read_log(dir, "enrichment.tsv", read_enrichment_log)?;
    enr.days = flows.iter().map(|f| f.first.day()).max().unwrap_or(0) + 1;
    // beams are not persisted; Fig 8b is unavailable on replay
    let ds = Dataset { flows, dns, enrichment: enr, packets: 0 };
    eprintln!("replaying {} flows / {} DNS transactions from {dir}", ds.flows.len(), ds.dns.len());
    let which = args.get("figure").unwrap_or("all").to_ascii_lowercase();
    if which == "all" || which == "table1" {
        println!("{}", experiments::table1(&ds).render());
    }
    if which == "all" || which == "fig2" {
        println!("{}", experiments::fig2(&ds).render());
    }
    if which == "all" || which == "fig9" {
        println!("{}", experiments::fig9(&ds).render());
    }
    if which == "all" || which == "fig10" {
        println!("{}", experiments::fig10(&ds).render());
    }
    if which == "all" || which == "fig11" {
        println!("{}", experiments::fig11(&ds).render());
    }
    Ok(())
}

fn paper_check(args: &Args) -> Result<(), Box<dyn Error>> {
    let cfg = scenario_from(args)?;
    let ds = run_with_banner(cfg);
    let rows = satwatch_scenario::paper_check::check_all(&ds);
    print!("{}", satwatch_scenario::paper_check::render(&rows));
    let failed = rows.iter().filter(|r| !r.pass).count();
    if failed > 0 {
        return Err(format!("{failed} checks failed").into());
    }
    Ok(())
}

/// The min-flows floor the bench's full report sweep runs at (matches
/// the `report` command's Table 2 default).
const BENCH_MIN_FLOWS: usize = 10;

/// One timed bench iteration; which pipeline ran is up to the caller.
struct BenchRun {
    scenario_s: f64,
    agg_s: f64,
    packets: u64,
    /// Analytics input rows (after `--replicate` tiling).
    rows: usize,
    /// Digest of the serialized dataset; `None` for the streaming
    /// path, which never materialises the record vector.
    dataset_digest: Option<u64>,
    /// FNV-1a over the rendered paper report — the cross-mode
    /// equivalence witness (records == columnar == streaming).
    report_digest: u64,
}

fn bench_once(mode: ReportMode, cfg: ScenarioConfig, replicate: usize, workers: usize) -> BenchRun {
    use satwatch_scenario::digest::fnv1a;
    match mode {
        // Baseline: per-figure passes over the flow-record slice.
        ReportMode::Records => {
            let t0 = std::time::Instant::now();
            let ds = run(cfg);
            let scenario_s = t0.elapsed().as_secs_f64();
            let tiled: Vec<satwatch_monitor::FlowRecord>;
            let flows: &[satwatch_monitor::FlowRecord] = if replicate > 1 {
                tiled = (0..replicate).flat_map(|_| ds.flows.iter().cloned()).collect();
                &tiled
            } else {
                &ds.flows
            };
            let t1 = std::time::Instant::now();
            let reports = experiments::paper_reports_records(flows, &ds.dns, &ds.enrichment, BENCH_MIN_FLOWS, workers);
            let agg_s = t1.elapsed().as_secs_f64();
            let report_digest = fnv1a(reports.render_all().as_bytes());
            std::hint::black_box(&reports);
            BenchRun {
                scenario_s,
                agg_s,
                packets: ds.packets,
                rows: flows.len(),
                dataset_digest: Some(satwatch_scenario::dataset_digest(&ds)),
                report_digest,
            }
        }
        // Columnar: frame build + fused one-pass sweep are both on the
        // analytics clock — that is the path being sold.
        ReportMode::Columnar => {
            let t0 = std::time::Instant::now();
            let ds = run(cfg);
            let scenario_s = t0.elapsed().as_secs_f64();
            let t1 = std::time::Instant::now();
            let mut fr = FlowFrame::from_records(&ds.flows, &ds.enrichment);
            if replicate > 1 {
                fr = fr.replicate(replicate);
            }
            let reports = experiments::paper_reports_columnar(&fr, &ds.dns, &ds.enrichment, BENCH_MIN_FLOWS, workers);
            let agg_s = t1.elapsed().as_secs_f64();
            let report_digest = fnv1a(reports.render_all().as_bytes());
            std::hint::black_box(&reports);
            BenchRun {
                scenario_s,
                agg_s,
                packets: ds.packets,
                rows: fr.len(),
                dataset_digest: Some(satwatch_scenario::dataset_digest(&ds)),
                report_digest,
            }
        }
        // Streaming: evicted flows feed the frame during the run, so
        // the frame build cost is inside scenario_s and peak RSS is
        // bounded by live flows, not total flows.
        ReportMode::Streaming => {
            let t0 = std::time::Instant::now();
            let cds = satwatch_scenario::run_streaming(cfg);
            let scenario_s = t0.elapsed().as_secs_f64();
            let t1 = std::time::Instant::now();
            let fr = if replicate > 1 { cds.frame.replicate(replicate) } else { cds.frame };
            let reports = experiments::paper_reports_columnar(&fr, &cds.dns, &cds.enrichment, BENCH_MIN_FLOWS, workers);
            let agg_s = t1.elapsed().as_secs_f64();
            let report_digest = fnv1a(reports.render_all().as_bytes());
            std::hint::black_box(&reports);
            BenchRun { scenario_s, agg_s, packets: cds.packets, rows: fr.len(), dataset_digest: None, report_digest }
        }
    }
}

/// Time the end-to-end pipeline (scenario generation + sharded probe +
/// the full paper-report sweep) at 1/2/4/8 workers and *append* a
/// machine-readable entry to the results file. The JSON is hand-rolled
/// — the offline crate set has no serde — but the schema is stable:
/// `{entries: [{rev, change, workload, report_mode, replicate, cores,
/// peak_rss_process_bytes, runs: [{workers, wall_ms, …, digest,
/// report_digest, metrics}]}]}`. Each bench invocation adds one entry
/// keyed by the working tree's `git describe` plus the free-text
/// `--change` string, so the perf trajectory across commits stays
/// recoverable instead of each run clobbering the last; a legacy
/// single-report file is wrapped as the first entry rather than
/// discarded. Each run carries the dataset digest (all worker counts
/// must agree — the determinism contract; absent in streaming mode,
/// which never holds the record vector) and the report digest
/// (identical across modes — the columnar-equivalence contract), plus
/// the telemetry snapshot delta covering exactly that run. Runs where
/// the requested worker count exceeds the host's cores time lock/cache
/// contention, not scaling — they are flagged `oversubscribed` and
/// labeled `contention_check` so nobody reads them as a speedup curve.
fn bench(args: &Args) -> Result<(), Box<dyn Error>> {
    let smoke = args.flag("smoke");
    let mode = args.report_mode()?;
    let replicate = args.get_parsed("replicate", 1usize)?.max(1);
    let base = if smoke {
        // CI mode: prove the bench path compiles and executes; the
        // timings of a 12-customer run are not meaningful.
        scenario_from(args)?.with_customers(args.get_parsed("customers", 12u32)?)
    } else {
        scenario_from(args)?
    };
    let out_path = args.get("out").unwrap_or("BENCH_parallel.json");
    let cores = satwatch_simcore::available_parallelism().max(1);
    let worker_counts: Vec<usize> =
        if smoke { vec![1] } else { [1usize, 2, 4, 8].iter().copied().filter(|&w| w <= cores * 2).collect() };
    let workload = format!(
        "{} customers x {} day(s), seed {}, replicate {replicate}, {} analytics",
        base.customers,
        base.days,
        base.seed,
        mode.name()
    );
    eprintln!("benchmarking {workload} at {worker_counts:?} workers …");
    let mut runs = Vec::new();
    let mut dataset_ref: Option<u64> = None;
    let mut report_ref: Option<u64> = None;
    let mut packets_ref: Option<u64> = None;
    for &w in &worker_counts {
        // The shared resolver warns (and raises the telemetry gauge)
        // when a count exceeds the cores the runner actually has —
        // such rows time contention, not scaling — and the JSON flag
        // is derived from the same comparison.
        let resolved = satwatch_simcore::resolve_workers_or_warn(w, "workers");
        let oversubscribed = resolved > cores;
        let cfg = base.with_threads(resolved).with_probe_shards(resolved);
        let before = satwatch_telemetry::Snapshot::take();
        let r = bench_once(mode, cfg, replicate, resolved);
        let metrics = satwatch_telemetry::Snapshot::take().delta(&before);
        let wall_s = r.scenario_s + r.agg_s;
        // cross-checks: every worker count must produce the
        // byte-identical dataset and the byte-identical report
        if let Some(digest) = r.dataset_digest {
            match dataset_ref {
                None => dataset_ref = Some(digest),
                Some(d) => assert_eq!(d, digest, "worker count changed the dataset"),
            }
        }
        match report_ref {
            None => report_ref = Some(r.report_digest),
            Some(d) => assert_eq!(d, r.report_digest, "worker count changed the report"),
        }
        packets_ref.get_or_insert(r.packets);
        let pps = r.packets as f64 / r.scenario_s;
        // Per-phase attribution of the scenario wall time, straight
        // from the drive loop's histograms (summed over days): flow
        // synthesis vs merge bookkeeping vs probe consumption.
        let phase_ms = |name: &str| metrics.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e3);
        let flow_synth_ms = phase_ms("scenario_flow_synth_us");
        let merge_ms = phase_ms("scenario_merge_us");
        let probe_ms = phase_ms("scenario_probe_us");
        eprintln!(
            "  workers={w}: {:.2}s scenario + {:.3}s analytics ({} rows), {:.0} packets/s (synth {:.0}ms / merge {:.0}ms / probe {:.0}ms)",
            r.scenario_s, r.agg_s, r.rows, pps, flow_synth_ms, merge_ms, probe_ms
        );
        let digest_field = r.dataset_digest.map_or(String::new(), |d| format!(", \"digest\": \"{d:#018x}\""));
        // more workers than cores measures contention, not scaling —
        // label the row so it can't be misread as a speedup point
        let flags = if oversubscribed { ", \"oversubscribed\": true, \"label\": \"contention_check\"" } else { "" };
        // the snapshot delta is already JSON; re-indent to nest it
        let metrics_json = metrics.to_json().trim_end().replace('\n', "\n    ");
        runs.push(format!(
            concat!(
                "    {{\"workers\": {}, \"wall_ms\": {:.1}, \"scenario_ms\": {:.1}, ",
                "\"flow_synth_ms\": {:.1}, \"merge_ms\": {:.1}, \"probe_ms\": {:.1}, ",
                "\"analytics_ms\": {:.1}, \"packets\": {}, \"packets_per_sec\": {:.0}, ",
                "\"flows\": {}, \"report_digest\": \"{:#018x}\"{}{},\n    \"metrics\": {}}}"
            ),
            w,
            wall_s * 1e3,
            r.scenario_s * 1e3,
            flow_synth_ms,
            merge_ms,
            probe_ms,
            r.agg_s * 1e3,
            r.packets,
            pps,
            r.rows,
            r.report_digest,
            digest_field,
            flags,
            metrics_json
        ));
    }
    // Smoke mode doubles as the equivalence gate: re-run the same
    // workload through the naive single-heap reference
    // (`scenario::run_reference`) and diff its digests and packet
    // count against the runs above. A mismatch is a hot-path ordering
    // bug, so it fails CI loudly.
    let mut reference_check = "";
    if smoke {
        use satwatch_scenario::digest::fnv1a;
        let ds = satwatch_scenario::run_reference(base);
        if let Some(want) = dataset_ref {
            assert_eq!(want, satwatch_scenario::dataset_digest(&ds), "reference run has a different dataset digest");
        }
        assert_eq!(packets_ref, Some(ds.packets), "reference run saw a different packet count");
        // the report bytes are the same in every report mode
        let fr = FlowFrame::from_records(&ds.flows, &ds.enrichment).replicate(replicate);
        let reports = experiments::paper_reports_columnar(&fr, &ds.dns, &ds.enrichment, BENCH_MIN_FLOWS, 1);
        let got = fnv1a(reports.render_all().as_bytes());
        assert_eq!(report_ref, Some(got), "reference run has a different report digest");
        eprintln!("  production-vs-reference digest diff: ok");
        reference_check = "\n      \"reference_check\": \"ok\",";
    }
    // process-lifetime high-water mark: a whole-process figure for the
    // bench summary, not a per-run peak (earlier runs inflate it)
    let peak_rss = satwatch_telemetry::peak_rss_process_bytes().map_or("null".to_string(), |b| b.to_string());
    // One history entry per invocation, keyed by the working tree's
    // git rev plus the operator's free-text --change note, so the file
    // records the perf trajectory instead of only the latest run.
    let rev = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let change = args.get("change").unwrap_or("").replace('"', "'");
    let entry = format!(
        concat!(
            "    {{\n      \"rev\": \"{rev}\",\n      \"change\": \"{change}\",\n",
            "      \"workload\": \"{workload}\",\n      \"report_mode\": \"{mode}\",\n",
            "      \"replicate\": {replicate},\n      \"cores\": {cores},{reference_check}\n",
            "      \"peak_rss_process_bytes\": {peak_rss},\n      \"runs\": [\n{runs}\n      ]\n    }}"
        ),
        rev = rev,
        change = change,
        workload = workload,
        mode = mode.name(),
        replicate = replicate,
        cores = cores,
        reference_check = reference_check,
        peak_rss = peak_rss,
        runs = format!("    {}", runs.join(",\n").replace('\n', "\n    "))
    );
    let json = match fs::read_to_string(out_path) {
        // current schema: splice the new entry before the closing
        // brackets the writer below always emits
        Ok(prev) if prev.contains("\"entries\": [") => {
            let head = prev
                .trim_end()
                .strip_suffix("\n  ]\n}")
                .ok_or("bench history file has an unexpected trailer; refusing to rewrite it")?;
            format!("{head},\n{entry}\n  ]\n}}\n")
        }
        // legacy single-report schema: preserve it as the first entry
        Ok(prev) if prev.trim_start().starts_with('{') => {
            let legacy = format!("    {}", prev.trim_end().replace('\n', "\n    "));
            format!("{{\n  \"entries\": [\n{legacy},\n{entry}\n  ]\n}}\n")
        }
        _ => format!("{{\n  \"entries\": [\n{entry}\n  ]\n}}\n"),
    };
    fs::write(out_path, &json)?;
    eprintln!("appended entry {rev} to {out_path}");
    Ok(())
}

/// `satwatch query`: run an aggregation pipeline (DESIGN.md §11) over
/// the flow frame of a scenario run. The pipeline comes from
/// `--pipeline '<json>'` or `--pipeline-file FILE`; the frame is built
/// per the shared `--report-mode`. The rendered table goes to stdout,
/// a one-line pushdown/row-count summary to stderr.
fn query(args: &Args) -> Result<(), Box<dyn Error>> {
    let cfg = scenario_from(args)?;
    let workers = cfg.threads.max(1);
    let src = match (args.get("pipeline"), args.get("pipeline-file")) {
        (Some(_), Some(_)) => return Err("pass either --pipeline or --pipeline-file, not both".into()),
        (Some(s), None) => s.to_string(),
        (None, Some(path)) => fs::read_to_string(path)?,
        (None, None) => {
            return Err("query needs --pipeline '<json>' or --pipeline-file FILE\n\
                 example: satwatch query --pipeline \
                 '[{\"group\": {\"by\": [\"l7\"], \"aggs\": {\"bytes\": {\"sum\": \"bytes\"}}}}]'"
                .into())
        }
    };
    let pipeline = satwatch_analytics::Pipeline::parse(&src)?;
    let (frame, _dns, _enr) = build_frame(cfg, args.report_mode()?);
    let t0 = std::time::Instant::now();
    let (table, stats) = satwatch_analytics::query::run_with_stats(&frame, &pipeline, workers)?;
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    match args.get("format").unwrap_or("text") {
        "text" => print!("{}", table.render_text()),
        "csv" => print!("{}", table.render_csv()),
        "json" => println!("{}", table.render_json()),
        other => return Err(format!("unknown --format {other:?} (try text, csv, json)").into()),
    }
    eprintln!(
        "query: scanned {} rows, {} after pushdown, {} result rows in {:.1} ms",
        stats.rows_scanned, stats.rows_after_pushdown, stats.result_rows, elapsed_ms
    );
    Ok(())
}

fn ablations(args: &Args) -> Result<(), Box<dyn Error>> {
    let cfg = scenario_from(args)?;
    eprintln!("running 4 scenarios (baseline + A1 + A2 + A3) …");
    let base = experiments::ablation_summary(&run(cfg));
    let no_pep = experiments::ablation_summary(&run(cfg.without_pep()));
    let af = experiments::ablation_summary(&run(cfg.with_african_ground_station()));
    let dns = experiments::ablation_summary(&run(cfg.with_forced_operator_dns()));
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
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A log file that cannot take the bytes (`/dev/full` fails every
    /// write with ENOSPC) fails the command, whichever log it is.
    #[cfg(target_os = "linux")]
    #[test]
    fn simulate_returns_the_write_error_of_a_full_disk() {
        for full in ["flows.tsv", "dns.tsv", "enrichment.tsv"] {
            let dir = std::env::temp_dir().join(format!("satwatch-full-test-{}-{full}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            std::os::unix::fs::symlink("/dev/full", dir.join(full)).unwrap();
            let a = parse(&["simulate", "--customers", "8", "--seed", "3", "--out", dir.to_str().unwrap()]);
            let err = dispatch(&a).expect_err(full).to_string();
            assert!(err.contains("No space left"), "{full}: {err}");
            std::fs::remove_dir_all(&dir).ok();
        }
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

    #[test]
    fn report_columnar_mode_renders() {
        let a = parse(&["report", "--report-mode", "columnar", "--figure", "table1", "--customers", "8"]);
        dispatch(&a).unwrap();
        let bad = parse(&["report", "--report-mode", "rowwise", "--customers", "8"]);
        assert!(dispatch(&bad).is_err());
    }

    #[test]
    fn bench_smoke_modes_share_one_report_digest() {
        let dir = std::env::temp_dir().join(format!("satwatch-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rec_path = dir.join("records.json");
        let strm_path = dir.join("streaming.json");
        let rec_s = rec_path.to_str().unwrap().to_string();
        let strm_s = strm_path.to_str().unwrap().to_string();
        dispatch(&parse(&["bench", "--smoke", "--customers", "8", "--report-mode", "records", "--out", &rec_s]))
            .unwrap();
        dispatch(&parse(&["bench", "--smoke", "--customers", "8", "--report-mode", "streaming", "--out", &strm_s]))
            .unwrap();
        let rec = std::fs::read_to_string(&rec_path).unwrap();
        let strm = std::fs::read_to_string(&strm_path).unwrap();
        let grab = |s: &str| {
            let tag = "\"report_digest\": \"";
            let i = s.find(tag).expect("bench JSON has a report digest") + tag.len();
            s[i..i + 18].to_string()
        };
        assert_eq!(grab(&rec), grab(&strm), "records and streaming disagree on the rendered report");
        assert!(rec.contains("\"digest\": \""), "records mode carries the dataset digest");
        assert!(!strm.contains("\"digest\": \""), "streaming mode never materialises the record vector");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_runs_pipeline_in_every_mode() {
        let pipeline = r#"[
            {"match": {"not": {"isnull": {"col": "country"}}}},
            {"group": {"by": ["l7"], "aggs": {"bytes": {"sum": "bytes"}, "flows": {"count": true}}}},
            {"sort": "-bytes"},
            {"limit": 3}
        ]"#;
        for mode in ["records", "columnar", "streaming"] {
            let a = parse(&["query", "--customers", "8", "--report-mode", mode, "--pipeline", pipeline]);
            dispatch(&a).unwrap();
        }
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
