//! What the benchmark measures: the six workloads with their sizes,
//! the end-to-end metrics with their bounds, and every per-layer
//! metric of the traced run with the end-to-end number it should move.
//!
//! This module is the single source of `BENCHMARK.json`
//! ([`manifest_json`]; a test pins the committed file to it) and of the
//! tables in `README.md`.

use crate::json;
use Better::Higher;

/// One named workload. The sizes are part of the name's meaning: once
/// a baseline exists they do not change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReportDay,
    SimulateLogs,
    ReplayLogs,
    Campaign4d,
    WireIngest,
    WarehouseScan,
}

/// Full sizes for measuring; smoke sizes run the same code paths and
/// checks in seconds (`smoke.sh`), with timings that mean nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Days of `campaign_4d`, at either scale.
pub const CAMPAIGN_DAYS: u64 = 4;
/// Snap length of the `wire_ingest` capture.
pub const WIRE_SNAPLEN: u32 = 256;
/// Passes of `Probe::observe_wire` over the capture per `wire_ingest` run.
pub const WIRE_PASSES: usize = 4;
/// `FlowFrame::replicate` factor of the `warehouse_scan` segment.
pub const WAREHOUSE_REPLICATE: usize = 8;
/// Selective pipelines / full group-bys per `warehouse_scan` run.
pub const WAREHOUSE_SELECTIVE_RUNS: usize = 8;
pub const WAREHOUSE_FULL_RUNS: usize = 2;
/// Customers of the traced run's staged pipeline.
pub const TRACE_CUSTOMERS: (u32, u32) = (60, 12);

/// The selective ES/evening pipeline of ci.yml's query smoke.
pub const SELECTIVE_PIPELINE: &str = r#"[{"match": {"all": [{"eq": [{"col": "country"}, "ES"]}, {"ge": [{"col": "local_hour"}, 20]}]}}, {"group": {"by": ["service"], "aggs": {"bytes": {"sum": "bytes"}, "flows": {"count": true}}}}, {"sort": "-bytes"}, {"limit": 5}]"#;
/// The predicate of [`SELECTIVE_PIPELINE`] on its own, for `match_rows_naive`.
pub const SELECTIVE_PREDICATE: &str =
    r#"{"all": [{"eq": [{"col": "country"}, "ES"]}, {"ge": [{"col": "local_hour"}, 20]}]}"#;
/// A full scan: every row lands in a group.
pub const FULL_SCAN_PIPELINE: &str = r#"[{"group": {"by": ["country", "service"], "aggs": {"bytes": {"sum": "bytes"}, "flows": {"count": true}}}}, {"sort": "-bytes"}]"#;

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ReportDay,
        Workload::SimulateLogs,
        Workload::ReplayLogs,
        Workload::Campaign4d,
        Workload::WireIngest,
        Workload::WarehouseScan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReportDay => "report_day",
            Workload::SimulateLogs => "simulate_logs",
            Workload::ReplayLogs => "replay_logs",
            Workload::Campaign4d => "campaign_4d",
            Workload::WireIngest => "wire_ingest",
            Workload::WarehouseScan => "warehouse_scan",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Customers of the scenario behind one run.
    pub fn customers(self, scale: Scale) -> u32 {
        let (full, smoke) = match self {
            Workload::ReportDay => (240, 16),
            Workload::SimulateLogs => (100, 12),
            Workload::ReplayLogs => (100, 16),
            Workload::Campaign4d => (60, 12),
            Workload::WireIngest => (100, 12),
            Workload::WarehouseScan => (100, 16),
        };
        match scale {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }

    /// One line for `BENCHMARK.json`: why the workload is here.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ReportDay => "satwatch report, 240 customers x 1 day: the packet path (traffic, flowsim, merge, monitor) is ~95% of the wall and no log is written; hot-path work shows here, log and segment work must not",
            Workload::SimulateLogs => "satwatch simulate, 100 customers: the same packet path, but ~80% of the wall is writing TSV logs; a log-writer fix moves this workload and nothing else",
            Workload::ReplayLogs => "satwatch replay over the logs of 100 customers: no packet path, only TSV reading and record-slice analytics, the read side of the codec simulate_logs writes",
            Workload::Campaign4d => "satwatch campaign, 60 customers x 4 days: day runner, watermark seal, segment encode, state checkpoint, report fold over decoded segments; the only workload that writes and re-reads the store",
            Workload::WireIngest => "read_pcap of a 100-customer snaplen-256 capture, then 4 passes of Probe::observe_wire: the probe's real job, small frames, per-packet parse and flow-table cost, no columnar fast path",
            Workload::WarehouseScan => "read_segment_file of a 100-customer frame replicated 8x, the fused report fold, 8 selective queries, 2 full group-bys: segment decode and scans do all the work, the packet path none",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees, per workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
    pub definition: &'static str,
}

/// Every untraced run reports every one of these (the contract has no
/// per-workload metric sets), so all are intensive quantities defined
/// on all six workloads and robust to the input size a seed draws.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "fixture generation and reference computation for the workload plus its one unmeasured warm-up run; median of the 3 set-ups of a run, each on its own population drawn from the seed",
    },
    EndToEnd {
        name: "flows_per_s",
        unit: "flow/s",
        better: Better::Higher,
        bound: 0.25,
        definition: "flow records produced or scanned by one run, divided by the run's wall (child spawn to exit for CLI workloads, the timed region inside the child for wire_ingest and warehouse_scan); best run of the invocation, whichever of its 3 populations it ran on",
    },
    EndToEnd {
        name: "pkts_per_s",
        unit: "pkt/s",
        better: Higher,
        bound: 0.25,
        definition: "packets observed by the probe in one run divided by its wall, best run; on replay_logs and warehouse_scan, which start from flow records, the packets those records account for",
    },
    EndToEnd {
        name: "cpu_us_per_flow",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        definition: "child user+sys CPU time from wait4 divided by flows; best run. Equals 1e6/flows_per_s while everything is single-threaded and CPU-bound, parts from it when work moves to other threads or waits on I/O",
    },
    EndToEnd {
        name: "rss_bytes_per_flow",
        unit: "B",
        better: Better::Lower,
        bound: 0.25,
        definition: "child peak RSS (ru_maxrss from wait4) divided by flows; median over all measured runs, that is over the 3 populations",
    },
];

/// A per-layer metric of the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The public call(s) the spans are recorded around.
    pub timed: &'static str,
    /// The end-to-end metric and workload it should move.
    pub should_move: &'static str,
}

const fn ms(name: &'static str, timed: &'static str, should_move: &'static str) -> PerLayer {
    PerLayer { name, unit: "ms", better: Better::Lower, timed, should_move }
}

const fn count(name: &'static str, better: Better, timed: &'static str, should_move: &'static str) -> PerLayer {
    PerLayer { name, unit: "count", better, timed, should_move }
}

const fn with_unit(
    name: &'static str,
    unit: &'static str,
    better: Better,
    timed: &'static str,
    should_move: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, timed, should_move }
}

const PACKET_PATH: &str = "pkts_per_s on report_day, simulate_logs, campaign_4d; not wire_ingest";

/// Layer = crate/module name. `*_ms` is busy time around the public
/// call, counts are exact. The packet-path stage (the rows before
/// `analytics.*`, bar `par.*`, and `trace.overhead_share`) runs 8
/// rounds and reports each row's best; every other stage is timed
/// once. Order is the order of the README table.
pub const PER_LAYER: [PerLayer; 66] = [
    ms("scenario.setup_ms", "DayRunner::new", "pkts_per_s on report_day, simulate_logs, campaign_4d (small)"),
    ms("traffic.generate_day_ms", "generate_day over all customers", "pkts_per_s on report_day"),
    count("traffic.intents", Higher, "intents returned by generate_day", "work count"),
    ms("flowsim.plan_ms", "NetModel::plan_flow_cached in intent order, one span per cohort of 64", PACKET_PATH),
    count("flowsim.flows", Higher, "plans made", "work count"),
    ms("flowsim.emit_ms", "emit_flow_open + clamp_and_sort, one span per cohort", PACKET_PATH),
    count("flowsim.pkts", Higher, "rows emitted", "work count"),
    with_unit("flowsim.payload_mb", "MiB", Better::Lower, "bytes frozen out of the payload arena", PACKET_PATH),
    ms("merge.drain_ms", "ColMerge::push + next_span_upto with a no-op consumer", PACKET_PATH),
    count("merge.spans", Better::Lower, "spans handed to the consumer", PACKET_PATH),
    with_unit("merge.pkts_per_span", "pkt", Higher, "rows drained / spans", PACKET_PATH),
    ms("monitor.observe_cols_ms", "drain with ShardedProbe::observe_cols minus merge.drain_ms", PACKET_PATH),
    ms("monitor.finish_ms", "ShardedProbe::finish", "pkts_per_s on the packet-path workloads and wire_ingest"),
    count("monitor.flows_out", Higher, "flow records returned by finish", "work count"),
    count("monitor.dns_out", Higher, "DNS records returned by finish", "work count"),
    ms("scenario.run_ms", "scenario::run on the same config", "flows_per_s on report_day"),
    ms("scenario.unattributed_ms", "scenario.run_ms minus the rows above", "shown, never hidden"),
    with_unit(
        "scenario.unattributed_share",
        "ratio",
        Better::Lower,
        "unattributed_ms / run_ms",
        "ROADMAP item 3's 5% target",
    ),
    ms(
        "par.run_t2_ms",
        "scenario::run at threads=2, shards=2",
        "none gated; answers ROADMAP item 3's workers=2 question",
    ),
    with_unit("par.t2_speedup", "ratio", Higher, "scenario.run_ms / par.run_t2_ms", "none gated"),
    ms("analytics.frame_build_ms", "FlowFrame::from_records", "flows_per_s on report_day (<=3%)"),
    ms("engine.report_fold_ms", "paper_reports_columnar", "flows_per_s on warehouse_scan; report_day <=3%"),
    ms("engine.render_ms", "PaperReports::render_all", "flows_per_s on warehouse_scan"),
    with_unit("engine.rows_per_s", "row/s", Higher, "frame rows / report_fold_ms", "flows_per_s on warehouse_scan"),
    ms("agg.records_reports_ms", "paper_reports_records", "flows_per_s on replay_logs"),
    ms("record.write_flows_ms", "write_flows into a Vec<u8>", "flows_per_s on simulate_logs (codec share only)"),
    with_unit("record.write_mb_per_s", "MiB/s", Higher, "TSV bytes / write_flows_ms", "flows_per_s on simulate_logs"),
    ms("record.read_flows_ms", "read_flows over the CLI-written flows.tsv", "flows_per_s on replay_logs"),
    with_unit("record.read_mb_per_s", "MiB/s", Higher, "TSV bytes / read_flows_ms", "flows_per_s on replay_logs"),
    ms(
        "cli.simulate_overhead_ms",
        "CLI simulate wall minus in-process run + write_flows",
        "flows_per_s on simulate_logs; today most of its wall",
    ),
    ms(
        "cli.report_overhead_ms",
        "CLI report wall minus in-process run + frame + fold + render",
        "flows_per_s on report_day",
    ),
    ms(
        "cli.replay_overhead_ms",
        "CLI replay wall minus in-process read_flows + records reports",
        "flows_per_s on replay_logs",
    ),
    ms("e2e.wall_ms", "median untraced wall of the named workload's own run, 3 runs", "1/flows_per_s of that workload"),
    with_unit("proc.user_s", "s", Better::Lower, "child rusage of those runs", "cpu_us_per_flow"),
    with_unit(
        "proc.sys_s",
        "s",
        Better::Lower,
        "child rusage of those runs",
        "cpu_us_per_flow; on simulate_logs the syscall-per-field signal",
    ),
    with_unit(
        "simulate.disk_bytes_per_flow",
        "B",
        Better::Lower,
        "bytes CLI simulate leaves in its out dir / flows (exact)",
        "disk cost of simulate_logs",
    ),
    ms("campaign.create_ms", "Campaign::create", "flows_per_s on campaign_4d"),
    ms("campaign.day_ms", "Campaign::run with abort_after_day, summed over days", "flows_per_s on campaign_4d"),
    ms("campaign.resume_ms", "Campaign::resume after each day", "flows_per_s on campaign_4d when resumed"),
    ms(
        "campaign.final_fold_ms",
        "the last Campaign::run: final seal + ReportFold over decoded segments",
        "flows_per_s on campaign_4d",
    ),
    ms(
        "campaign.store_overhead_ms",
        "sum of the campaign calls minus a batch run of the same config",
        "flows_per_s on campaign_4d",
    ),
    with_unit(
        "campaign.disk_bytes",
        "B",
        Better::Lower,
        "bytes left in the campaign directory (exact)",
        "disk cost of campaign_4d",
    ),
    with_unit(
        "campaign.disk_bytes_per_flow",
        "B",
        Better::Lower,
        "campaign.disk_bytes / flows (exact)",
        "disk cost of campaign_4d",
    ),
    ms("checkpoint.export_ms", "ShardedProbe::export_state after day 0", "flows_per_s on campaign_4d"),
    ms("checkpoint.write_ms", "codec::write_state_file", "flows_per_s on campaign_4d"),
    ms("checkpoint.read_ms", "codec::read_state_file", "flows_per_s on campaign_4d when resumed"),
    ms("segment.encode_ms", "encode_segment (write_segment_file is a span of its own)", "flows_per_s on campaign_4d"),
    with_unit(
        "segment.encode_mb_per_s",
        "MiB/s",
        Higher,
        "segment bytes / segment.encode_ms",
        "flows_per_s on campaign_4d",
    ),
    ms("segment.decode_ms", "decode_segment (read_segment_file is a span of its own)", "flows_per_s on warehouse_scan"),
    with_unit(
        "segment.decode_mb_per_s",
        "MiB/s",
        Higher,
        "segment bytes / segment.decode_ms",
        "flows_per_s on warehouse_scan",
    ),
    with_unit(
        "segment.bytes_per_row",
        "B",
        Better::Lower,
        "segment bytes / rows (exact)",
        "a size/speed trade shows as encode/decode one up, one down",
    ),
    ms("query.selective_ms", "query::run_with_stats, the ES/evening pipeline", "flows_per_s on warehouse_scan"),
    ms("query.full_scan_ms", "query::run_with_stats, group by country, service", "flows_per_s on warehouse_scan"),
    with_unit(
        "query.pushdown_keep_share",
        "ratio",
        Better::Lower,
        "rows_after_pushdown / rows_scanned",
        "flows_per_s on warehouse_scan",
    ),
    ms("pcap.read_ms", "read_pcap", "pkts_per_s on wire_ingest only"),
    ms("netstack.parse_ms", "Packet::parse over every frame, result dropped", "pkts_per_s on wire_ingest only"),
    with_unit("netstack.parse_pkts_per_s", "pkt/s", Higher, "frames / parse_ms", "pkts_per_s on wire_ingest only"),
    ms("monitor.observe_wire_ms", "Probe::observe_wire over every frame", "pkts_per_s on wire_ingest only"),
    ms("monitor.observe_pkt_ms", "observe_wire_ms minus netstack.parse_ms", "pkts_per_s on wire_ingest only"),
    count("wire.frames", Higher, "frames in the capture", "work count"),
    count(
        "wire.frames_skipped_oversize",
        Better::Lower,
        "packets with wire_len > 65535, not representable on the wire, left out of the capture",
        "none; first finding",
    ),
    with_unit(
        "wire.unrepresentable_share",
        "ratio",
        Better::Lower,
        "frames_skipped_oversize / packets the span port saw",
        "none; first finding",
    ),
    count(
        "wire.parse_errors",
        Better::Lower,
        "Probe::parse_errors after the pass",
        "failed runs on wire_ingest (must be 0)",
    ),
    ms("trace.staged_wall_ms", "the traced run's own wall", "none; prices the staging"),
    with_unit(
        "trace.overhead_share",
        "ratio",
        Better::Lower,
        "packet-path replica with spans on vs off",
        "none; prices the tracing",
    ),
    with_unit("trace.spans", "count", Better::Lower, "spans written to trace.json", "none"),
];

/// How long one contract run measures. The driver makes 4 + 22 x 6
/// runs and allows 3420 s for them and two builds; on the reference
/// host a run takes 15-22 s in all (README.md, "Time budget").
pub const RUN_SECONDS: u64 = 12;

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", json::string(w.name()), json::string(w.why())))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::string(m.name),
                json::string(m.unit),
                json::string(m.better.name()),
                json::number(m.bound)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::string(m.name),
                json::string(m.unit),
                json::string(m.better.name())
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// The metric tables of `README.md`, as markdown (a test pins the
/// README to them).
pub fn metric_tables_markdown() -> String {
    let mut s = String::from("| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n");
    for m in &END_TO_END {
        s.push_str(&format!("| `{}` | {} | {} | {} | {} |\n", m.name, m.unit, m.better.name(), m.bound, m.definition));
    }
    s.push_str("\n| per-layer metric | unit | better | spans around | should move |\n|---|---|---|---|---|\n");
    for m in &PER_LAYER {
        s.push_str(&format!("| `{}` | {} | {} | {} | {} |\n", m.name, m.unit, m.better.name(), m.timed, m.should_move));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use satwatch_analytics::expr::Json;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && seen.insert(w.name()), "{}", w.name());
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}: {}", w.name(), w.why().len());
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        let units = END_TO_END.iter().map(|m| (m.name, m.unit)).chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in units {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{name}: {unit}"
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s carries the largest bound");
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest_json(), "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`");
        assert!(committed.len() <= 64 * 1024);
        let parsed = Json::parse(&committed).expect("valid JSON");
        let Json::Obj(fields) = &parsed else { panic!("an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    }

    #[test]
    fn readme_metric_tables_are_the_generated_ones() {
        let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
        assert!(
            readme.contains(&metric_tables_markdown()),
            "paste the output of `benchmark/run.sh metrics` into README.md"
        );
    }

    /// Library workloads are only comparable to the CLI ones when both
    /// binaries are built with the same settings.
    #[test]
    fn release_profile_equals_the_root_manifests() {
        fn profile(manifest: &str) -> Vec<String> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect()
        }
        let root = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml")).unwrap();
        let ours = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml")).unwrap();
        assert!(!profile(&root).is_empty());
        assert_eq!(profile(&root), profile(&ours));
    }
}
