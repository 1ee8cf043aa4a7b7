//! Work that runs in a child of the harness: the two library
//! workloads, the fixture generators and the in-process references.
//! Each task prints one JSON object on stdout for the parent to read;
//! the parent measures the child from outside (`proc::run_child`).

use crate::args::Args;
use crate::json;
use crate::spec;
use satwatch_analytics::expr::{Expr, Json};
use satwatch_analytics::segment::{read_segment_file, write_segment_file};
use satwatch_analytics::{query, FlowFrame, Pipeline};
use satwatch_campaign::codec::{read_dns_file, write_dns_file};
use satwatch_monitor::pcap::{read_pcap, PcapRecord, PcapWriter};
use satwatch_monitor::record::write_flows;
use satwatch_monitor::{FlowTableConfig, Probe, ProbeConfig};
use satwatch_satcom::GroundStation;
use satwatch_scenario::digest::fnv1a;
use satwatch_scenario::experiments::paper_reports_columnar;
use satwatch_scenario::{dataset_digest, run, run_with_tap, DayRunner, ScenarioConfig};
use std::io::{BufReader, BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

/// Table 2's flow floor, as `satwatch report` and `campaign` use it.
pub const MIN_FLOWS: usize = 10;
/// Largest datagram an IPv4 total-length field can describe.
pub const MAX_WIRE_LEN: usize = 65_535;

/// The config `satwatch <cmd> --customers N --days D --seed S
/// --threads 1 --shards 1` runs.
pub fn scenario(customers: u32, days: u64, seed: u64) -> ScenarioConfig {
    ScenarioConfig::tiny()
        .with_customers(customers)
        .with_days(days)
        .with_seed(seed)
        .with_threads(1)
        .with_probe_shards(1)
}

fn scenario_from(args: &Args) -> Result<ScenarioConfig, String> {
    Ok(scenario(args.required("customers")?, args.parsed_or("days", 1)?, args.required("seed")?))
}

pub fn dispatch(task: &str, args: &Args) -> Result<(), String> {
    let line = match task {
        "ref-dataset" => ref_dataset(scenario_from(args)?),
        "gen-capture" => gen_capture(scenario_from(args)?, Path::new(args.str("out")?))?,
        "gen-segment" => gen_segment(scenario_from(args)?, Path::new(args.str("out")?))?,
        "wire_ingest" => wire_ingest(Path::new(args.str("capture")?))?,
        "warehouse_scan" => warehouse_scan(scenario_from(args)?, Path::new(args.str("dir")?))?,
        other => return Err(format!("unknown child task {other:?}")),
    };
    println!("{line}");
    Ok(())
}

fn hex(v: u64) -> String {
    json::string(&format!("{v:016x}"))
}

/// The in-process reference for the CLI workloads: what `run` yields
/// for the config, digested the way the CLI's outputs are checked.
fn ref_dataset(cfg: ScenarioConfig) -> String {
    let ds = run(cfg);
    let mut tsv = Vec::new();
    write_flows(&mut tsv, &ds.flows).expect("write to Vec cannot fail");
    json::object(&[
        ("packets", ds.packets.to_string()),
        ("flows", ds.flows.len().to_string()),
        ("dns", ds.dns.len().to_string()),
        ("flows_tsv_fnv", hex(fnv1a(&tsv))),
        ("dataset_digest", hex(dataset_digest(&ds))),
    ])
}

/// Capture the span port of one scenario run to a pcap file. Packets
/// longer than an IPv4 datagram can be (the synthesizer's coalesced
/// super-chunks) have no wire form: they are counted and left out.
pub fn write_capture(cfg: ScenarioConfig, out: &Path) -> Result<(u64, u64), String> {
    let file = BufWriter::new(std::fs::File::create(out).map_err(|e| format!("{}: {e}", out.display()))?);
    let mut writer = PcapWriter::new(file, spec::WIRE_SNAPLEN).map_err(|e| e.to_string())?;
    let mut oversize = 0u64;
    let mut failed = None;
    run_with_tap(cfg, |t, pkt| {
        if pkt.wire_len() > MAX_WIRE_LEN {
            oversize += 1;
        } else if let Err(e) = writer.write(t, pkt) {
            failed.get_or_insert(e);
        }
    });
    if let Some(e) = failed {
        return Err(format!("{}: {e}", out.display()));
    }
    let frames = writer.packets_written();
    writer.into_inner().flush().map_err(|e| format!("{}: {e}", out.display()))?;
    Ok((frames, oversize))
}

fn gen_capture(cfg: ScenarioConfig, out: &Path) -> Result<String, String> {
    let (frames, oversize) = write_capture(cfg, out)?;
    Ok(json::object(&[("frames", frames.to_string()), ("skipped_oversize", oversize.to_string())]))
}

/// Frames of a capture file, refusing any the writer should have left out.
pub fn load_capture(path: &Path) -> Result<Vec<PcapRecord>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let frames = read_pcap(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))?;
    match frames.iter().find(|f| f.orig_len as usize > MAX_WIRE_LEN) {
        Some(f) => Err(format!("{}: a frame of {} bytes is not wire-representable", path.display(), f.orig_len)),
        None => Ok(frames),
    }
}

/// The probe a ground-station operator would configure.
pub fn wire_probe() -> Probe {
    Probe::new(ProbeConfig::new(FlowTableConfig::new(GroundStation::italy_default().customer_subnet)))
}

fn wire_ingest(capture: &Path) -> Result<String, String> {
    let t0 = Instant::now();
    let frames = load_capture(capture)?;
    let mut counts = Vec::with_capacity(spec::WIRE_PASSES);
    let mut parse_errors = 0;
    for _ in 0..spec::WIRE_PASSES {
        let mut probe = wire_probe();
        for f in &frames {
            probe.observe_wire(f.t, &f.data);
        }
        parse_errors += probe.parse_errors;
        let (flows, dns) = probe.finish();
        counts.push((flows.len(), dns.len()));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let (flows, dns) = counts[0];
    Ok(json::object(&[
        ("wall_s", json::number(wall_s)),
        ("frames", frames.len().to_string()),
        ("flows", flows.to_string()),
        ("dns", dns.to_string()),
        ("parse_errors", parse_errors.to_string()),
        ("passes_agree", counts.iter().all(|c| *c == counts[0]).to_string()),
    ]))
}

fn pipeline(src: &str) -> Pipeline {
    Pipeline::parse(src).expect("the harness's own pipeline parses")
}

fn selective_predicate() -> Expr {
    let json = Json::parse(spec::SELECTIVE_PREDICATE).expect("the harness's own predicate is JSON");
    Expr::from_json(&json).expect("the harness's own predicate parses")
}

/// Build the `warehouse_scan` fixture: the segment, the DNS log beside
/// it, and the answers an in-RAM frame gives, for the scan to be
/// checked against.
fn gen_segment(cfg: ScenarioConfig, out: &Path) -> Result<String, String> {
    let ds = run(cfg);
    let frame = FlowFrame::from_records(&ds.flows, &ds.enrichment).replicate(spec::WAREHOUSE_REPLICATE);
    let (bytes, _) = write_segment_file(&out.join("frame.swseg"), &frame).map_err(|e| e.to_string())?;
    write_dns_file(&out.join("dns.bin"), &ds.dns).map_err(|e| e.to_string())?;
    let reports = paper_reports_columnar(&frame, &ds.dns, &ds.enrichment, MIN_FLOWS, 1);
    let matching = query::match_rows_naive(&frame, &selective_predicate()).map_err(|e| e.to_string())?;
    Ok(json::object(&[
        ("rows", frame.len().to_string()),
        ("packets", (ds.packets * spec::WAREHOUSE_REPLICATE as u64).to_string()),
        ("segment_bytes", bytes.to_string()),
        ("report_digest", hex(fnv1a(reports.render_all().as_bytes()))),
        ("match_rows", matching.len().to_string()),
    ]))
}

fn warehouse_scan(cfg: ScenarioConfig, dir: &Path) -> Result<String, String> {
    // the operator's enrichment is a pure function of the config; a
    // warehouse holds it beside the segments
    let enrichment = DayRunner::new(cfg).enrichment();
    let (selective, full) = (pipeline(spec::SELECTIVE_PIPELINE), pipeline(spec::FULL_SCAN_PIPELINE));
    let t0 = Instant::now();
    let frame = read_segment_file(&dir.join("frame.swseg"), None).map_err(|e| e.to_string())?;
    let dns = read_dns_file(&dir.join("dns.bin"), None).map_err(|e| e.to_string())?;
    let reports = paper_reports_columnar(&frame, &dns, &enrichment, MIN_FLOWS, 1);
    let report_digest = fnv1a(reports.render_all().as_bytes());
    let mut pushdown_rows = 0;
    let mut result_rows = 0;
    for _ in 0..spec::WAREHOUSE_SELECTIVE_RUNS {
        let (table, stats) = query::run_with_stats(&frame, &selective, 1).map_err(|e| e.to_string())?;
        pushdown_rows = stats.rows_after_pushdown;
        result_rows += table.rows.len();
    }
    for _ in 0..spec::WAREHOUSE_FULL_RUNS {
        let (table, _) = query::run_with_stats(&frame, &full, 1).map_err(|e| e.to_string())?;
        result_rows += table.rows.len();
    }
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(json::object(&[
        ("wall_s", json::number(wall_s)),
        ("rows", frame.len().to_string()),
        ("report_digest", hex(report_digest)),
        ("pushdown_rows", pushdown_rows.to_string()),
        ("result_rows", result_rows.to_string()),
    ]))
}
