//! The traced run: the same inputs the end-to-end workloads use (at
//! the trace's own, smaller size), driven in-process through each
//! layer's public functions with a span around every call. Per-layer
//! numbers come only from here; end-to-end numbers never do.
//!
//! Every stage checks what it computed (the replica against `run`, the
//! campaign against the batch digest, decoded segments against the
//! in-RAM frame, …); a failed check fails the traced run.

use crate::child::{self, scenario, MIN_FLOWS};
use crate::e2e::{Job, MIN_RUNS};
use crate::proc::{dir_bytes, run_child};
use crate::replica::{Consumer, Replica};
use crate::spec::{self, Scale, Workload};
use crate::stats;
use crate::tracer::Tracer;
use satwatch_analytics::segment::{decode_segment, encode_segment, read_segment_file, write_segment_file};
use satwatch_analytics::{query, FlowFrame, Pipeline};
use satwatch_campaign::codec::{read_state_file, write_state_file, DnsBuckets, FlowBuckets};
use satwatch_campaign::{Campaign, RunOptions};
use satwatch_monitor::record::{read_flows, write_flows};
use satwatch_monitor::ShardedProbe;
use satwatch_netstack::Packet;
use satwatch_scenario::digest::fnv1a;
use satwatch_scenario::experiments::{self, paper_reports_columnar, paper_reports_records};
use satwatch_scenario::{dataset_digest, run, Dataset, DayRunner, ScenarioConfig};
use std::hint::black_box;
use std::io::BufReader;
use std::ops::Range;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;
/// Rounds of the packet-path stage; each layer reports its best.
const PACKET_PATH_ROUNDS: usize = 8;

/// Values of the per-layer metrics, by `spec::PER_LAYER` name.
#[derive(Default)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(spec::PER_LAYER.iter().any(|m| m.name == name), "{name} is not a spec metric");
        assert!(!self.values.iter().any(|(n, _)| *n == name), "{name} set twice");
        self.values.push((name, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.values.iter().find(|(n, _)| *n == name).unwrap_or_else(|| panic!("{name} not measured yet")).1
    }

    /// Every spec metric in spec order; an error names any a stage forgot.
    pub fn in_spec_order(&self) -> Result<Vec<(&'static spec::PerLayer, f64)>, String> {
        spec::PER_LAYER
            .iter()
            .map(|m| {
                let v = self.values.iter().find(|(n, _)| *n == m.name).ok_or(format!("{} was not measured", m.name))?;
                Ok((m, v.1))
            })
            .collect()
    }
}

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("check failed: {what}"))
    }
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

pub struct Staged<'a> {
    pub job: &'a Job<'a>,
    pub tr: Tracer,
    pub layers: Layers,
}

impl Staged<'_> {
    fn customers(&self) -> u32 {
        match self.job.scale {
            Scale::Full => spec::TRACE_CUSTOMERS.0,
            Scale::Smoke => spec::TRACE_CUSTOMERS.1,
        }
    }

    /// Run every stage; fills `layers` and `tr`.
    pub fn run(&mut self) -> Result<(), String> {
        let t0 = Instant::now();
        std::fs::create_dir_all(&self.job.dir).map_err(|e| e.to_string())?;
        let cfg = scenario(self.customers(), 1, self.job.seed);
        let ds = self.packet_path(cfg)?;
        let frame = self.analytics(&ds)?;
        self.cli(cfg, &ds)?;
        self.campaign()?;
        self.checkpoint(cfg)?;
        self.segment_and_query(&frame, &ds)?;
        self.wire(cfg, &ds)?;
        self.own_workload()?;
        self.layers.set("trace.staged_wall_ms", ms_since(t0));
        self.layers.set("trace.spans", self.tr.spans().len() as f64);
        Ok(())
    }

    /// Traffic, flowsim, merge and monitor: the replica into a no-op,
    /// into the probe, and into the probe with the tracer off, then
    /// `scenario::run` itself, which every probe pass must reproduce.
    /// The whole round is repeated and each layer keeps its best
    /// round: a 200 ms pass falls whole into one of the host's slow or
    /// fast phases, and a difference of two passes from different
    /// phases says nothing.
    fn packet_path(&mut self, cfg: ScenarioConfig) -> Result<Dataset, String> {
        const WL: &str = "report_day";
        /// Span ranges and walls of one round.
        struct Round {
            noop: Range<usize>,
            probe: Range<usize>,
            run: Range<usize>,
            traced_ms: f64,
            untraced_ms: f64,
        }
        let stage = self.tr.begin("stage.packet_path", WL);
        let replica = Replica::new(cfg);
        let mut rounds = Vec::with_capacity(PACKET_PATH_ROUNDS);
        let mut last = None;
        for _ in 0..PACKET_PATH_ROUNDS {
            let a0 = self.tr.spans().len();
            let mut noop = Consumer::Noop;
            let counts = replica.drive(&mut noop, &mut self.tr);
            let a1 = self.tr.spans().len();

            let t_b = Instant::now();
            let mut consumer = replica.probe();
            let probe_counts = replica.drive(&mut consumer, &mut self.tr);
            let replica_ds = replica.dataset(consumer, &mut self.tr);
            let traced_ms = ms_since(t_b);
            let b1 = self.tr.spans().len();

            // the same pass with the tracer off prices the tracing
            self.tr.enabled = false;
            let t_c = Instant::now();
            let mut consumer = replica.probe();
            replica.drive(&mut consumer, &mut self.tr);
            black_box(replica.dataset(consumer, &mut self.tr));
            let untraced_ms = ms_since(t_c);
            self.tr.enabled = true;

            self.tr.span("scenario.setup", WL, || black_box(DayRunner::new(cfg)));
            let ds = self.tr.span("scenario.run", WL, || run(cfg));
            ensure(counts == probe_counts, "both replica passes walk the same stream")?;
            ensure(replica_ds.packets == ds.packets, "replica packet count equals scenario::run's")?;
            ensure(
                dataset_digest(&replica_ds) == dataset_digest(&ds),
                "replica flows + DNS reproduce dataset_digest(&run(cfg))",
            )?;
            rounds.push(Round { noop: a0..a1, probe: a1..b1, run: b1..self.tr.spans().len(), traced_ms, untraced_ms });
            last = Some((counts, ds));
        }
        let (counts, ds) = last.expect("at least one round");
        let t2 = self.tr.span("par.run_t2", WL, || run(cfg.with_threads(2).with_probe_shards(2)));
        ensure(dataset_digest(&t2) == dataset_digest(&ds), "threads=2, shards=2 reproduce the dataset digest")?;
        self.tr.end(stage);

        let (tr, l) = (&self.tr, &mut self.layers);
        let best = |of: &dyn Fn(&Round) -> f64| stats::min(&rounds.iter().map(of).collect::<Vec<_>>());
        let busy = |name: &'static str, pass: fn(&Round) -> &Range<usize>| {
            best(&|r: &Round| tr.busy_ms(name, pass(r).clone()))
        };
        l.set("scenario.setup_ms", busy("scenario.setup", |r| &r.run));
        l.set("traffic.generate_day_ms", busy("traffic.generate_day", |r| &r.probe));
        l.set("traffic.intents", counts.intents as f64);
        l.set("flowsim.plan_ms", busy("flowsim.plan", |r| &r.probe));
        l.set("flowsim.flows", counts.flows as f64);
        l.set("flowsim.emit_ms", busy("flowsim.emit", |r| &r.probe));
        l.set("flowsim.pkts", counts.pkts_emitted as f64);
        l.set("flowsim.payload_mb", counts.payload_bytes as f64 / MIB);
        let merge_ms =
            best(&|r: &Round| tr.busy_ms("merge.push", r.noop.clone()) + tr.busy_ms("merge.drain", r.noop.clone()));
        l.set("merge.drain_ms", merge_ms);
        l.set("merge.spans", counts.spans as f64);
        l.set("merge.pkts_per_span", counts.pkts_drained as f64 / counts.spans as f64);
        let with_probe_ms = best(&|r: &Round| {
            tr.busy_ms("merge.push", r.probe.clone()) + tr.busy_ms("monitor.drain_observe", r.probe.clone())
        });
        l.set("monitor.observe_cols_ms", with_probe_ms - merge_ms);
        l.set("monitor.finish_ms", busy("monitor.finish", |r| &r.probe));
        l.set("monitor.flows_out", ds.flows.len() as f64);
        l.set("monitor.dns_out", ds.dns.len() as f64);
        let run_ms = busy("scenario.run", |r| &r.run);
        l.set("scenario.run_ms", run_ms);
        let attributed: f64 = [
            "scenario.setup_ms",
            "traffic.generate_day_ms",
            "flowsim.plan_ms",
            "flowsim.emit_ms",
            "merge.drain_ms",
            "monitor.observe_cols_ms",
            "monitor.finish_ms",
        ]
        .iter()
        .map(|n| l.get(n))
        .sum();
        l.set("scenario.unattributed_ms", run_ms - attributed);
        l.set("scenario.unattributed_share", (run_ms - attributed) / run_ms);
        l.set("par.run_t2_ms", tr.total_ms("par.run_t2"));
        l.set("par.t2_speedup", run_ms / tr.total_ms("par.run_t2"));
        let (traced_ms, untraced_ms) = (best(&|r: &Round| r.traced_ms), best(&|r: &Round| r.untraced_ms));
        l.set("trace.overhead_share", (traced_ms - untraced_ms) / untraced_ms);
        // first finding: the share of synthesized packets no IPv4
        // datagram can carry (see README)
        l.set("wire.unrepresentable_share", counts.pkts_oversize as f64 / counts.pkts_emitted as f64);
        Ok(ds)
    }

    /// Frame build, the fused fold, the record-slice oracle and the
    /// TSV writer over the dataset `scenario::run` produced.
    fn analytics(&mut self, ds: &Dataset) -> Result<FlowFrame, String> {
        const WL: &str = "report_day";
        let stage = self.tr.begin("stage.analytics", WL);
        let frame = self.tr.span("analytics.frame_build", WL, || FlowFrame::from_records(&ds.flows, &ds.enrichment));
        let columnar = self.tr.span("engine.report_fold", "warehouse_scan", || {
            paper_reports_columnar(&frame, &ds.dns, &ds.enrichment, MIN_FLOWS, 1)
        });
        let text = self.tr.span("engine.render", "warehouse_scan", || columnar.render_all());
        let records = self.tr.span("agg.records_reports", "replay_logs", || {
            paper_reports_records(&ds.flows, &ds.dns, &ds.enrichment, MIN_FLOWS, 1)
        });
        ensure(records.render_all() == text, "record-slice and columnar reports render the same bytes")?;
        let mut tsv = Vec::new();
        self.tr
            .span("record.write_flows", "simulate_logs", || write_flows(&mut tsv, &ds.flows))
            .map_err(|e| e.to_string())?;
        self.tr.end(stage);

        let (tr, l) = (&self.tr, &mut self.layers);
        l.set("analytics.frame_build_ms", tr.total_ms("analytics.frame_build"));
        l.set("engine.report_fold_ms", tr.total_ms("engine.report_fold"));
        l.set("engine.render_ms", tr.total_ms("engine.render"));
        l.set("engine.rows_per_s", frame.len() as f64 / (tr.total_ms("engine.report_fold") / 1e3));
        l.set("agg.records_reports_ms", tr.total_ms("agg.records_reports"));
        l.set("record.write_flows_ms", tr.total_ms("record.write_flows"));
        l.set("record.write_mb_per_s", tsv.len() as f64 / MIB / (tr.total_ms("record.write_flows") / 1e3));
        Ok(frame)
    }

    /// The CLI at the trace's config: what its wall holds beyond the
    /// in-process stages of the same work.
    fn cli(&mut self, cfg: ScenarioConfig, ds: &Dataset) -> Result<(), String> {
        let stage = self.tr.begin("stage.cli", "simulate_logs");
        let job = self.job;
        // children run in `job.dir` and are handed relative names
        let logs_arg = "trace-logs";
        let logs = job.dir.join(logs_arg);
        let (customers, seed) = (cfg.customers.to_string(), cfg.seed.to_string());
        let on_scenario = |command: &str, tail: &[&str]| -> Vec<String> {
            let head = [command, "--customers", &customers, "--seed", &seed, "--threads", "1", "--shards", "1"];
            head.iter().chain(tail).map(|s| s.to_string()).collect()
        };
        let cli = |tr: &mut Tracer, span: &'static str, wl: &'static str, args: Vec<String>| -> Result<(), String> {
            let (out, err) = (job.dir.join(format!("{span}.stdout")), job.dir.join(format!("{span}.stderr")));
            let usage = tr
                .span(span, wl, || run_child(&job.env.satwatch, &args, &job.dir, &out, &err))
                .map_err(|e| e.to_string())?;
            ensure(usage.ok(), &format!("satwatch {} exits 0", args[0]))
        };
        cli(&mut self.tr, "cli.simulate", "simulate_logs", on_scenario("simulate", &["--out", logs_arg]))?;
        cli(&mut self.tr, "cli.report", "report_day", on_scenario("report", &["--figure", "all"]))?;
        let replay = ["replay", "--logs", logs_arg, "--figure", "all"].iter().map(|s| s.to_string()).collect();
        cli(&mut self.tr, "cli.replay", "replay_logs", replay)?;

        // the read side of the codec, over the file the CLI wrote
        let tsv_path = logs.join("flows.tsv");
        let tsv_bytes = std::fs::metadata(&tsv_path).map_err(|e| e.to_string())?.len();
        let read = self.tr.span("record.read_flows", "replay_logs", || {
            std::fs::File::open(&tsv_path).and_then(|f| read_flows(BufReader::new(f)))
        });
        let read = read.map_err(|e| format!("{}: {e}", tsv_path.display()))?;
        ensure(read.len() == ds.flows.len(), "read_flows returns every flow the CLI wrote")?;
        // the five figures `replay` renders, over the record slice
        let replayed = Dataset { flows: read, dns: ds.dns.clone(), enrichment: ds.enrichment.clone(), packets: 0 };
        self.tr.span("agg.replay_figures", "replay_logs", || {
            black_box(experiments::table1(&replayed).render());
            black_box(experiments::fig2(&replayed).render());
            black_box(experiments::fig9(&replayed).render());
            black_box(experiments::fig10(&replayed).render());
            black_box(experiments::fig11(&replayed).render());
        });
        let disk = dir_bytes(&logs).map_err(|e| e.to_string())?;
        self.tr.end(stage);

        let (tr, l) = (&self.tr, &mut self.layers);
        l.set("record.read_flows_ms", tr.total_ms("record.read_flows"));
        l.set("record.read_mb_per_s", tsv_bytes as f64 / MIB / (tr.total_ms("record.read_flows") / 1e3));
        let run_ms = l.get("scenario.run_ms");
        l.set("cli.simulate_overhead_ms", tr.total_ms("cli.simulate") - run_ms - l.get("record.write_flows_ms"));
        let report_stages =
            run_ms + l.get("analytics.frame_build_ms") + l.get("engine.report_fold_ms") + l.get("engine.render_ms");
        l.set("cli.report_overhead_ms", tr.total_ms("cli.report") - report_stages);
        let replay_stages = l.get("record.read_flows_ms") + tr.total_ms("agg.replay_figures");
        l.set("cli.replay_overhead_ms", tr.total_ms("cli.replay") - replay_stages);
        l.set("simulate.disk_bytes_per_flow", disk as f64 / ds.flows.len() as f64);
        Ok(())
    }

    /// The campaign engine day by day, with a resume after each day,
    /// against a batch run of the same config.
    fn campaign(&mut self) -> Result<(), String> {
        const WL: &str = "campaign_4d";
        let stage = self.tr.begin("stage.campaign", WL);
        let cfg = scenario(Workload::Campaign4d.customers(self.job.scale), spec::CAMPAIGN_DAYS, self.job.seed);
        let dir = self.job.dir.join("trace-campaign");
        let err = |e: satwatch_campaign::CampaignError| e.to_string();
        let mut c = self.tr.span("campaign.create", WL, || Campaign::create(&dir, cfg)).map_err(err)?;
        for day in 0..cfg.days {
            let opts = RunOptions { abort_after_day: Some(day), ..RunOptions::default() };
            let outcome = self.tr.span("campaign.day", WL, || c.run(&opts)).map_err(err)?;
            ensure(!outcome.completed && outcome.days_completed == day + 1, "one day per aborted run")?;
            c = self.tr.span("campaign.resume", WL, || Campaign::resume(&dir)).map_err(err)?;
        }
        let outcome = self.tr.span("campaign.final_fold", WL, || c.run(&RunOptions::default())).map_err(err)?;
        let batch = self.tr.span("campaign.batch_run", WL, || run(cfg));
        ensure(outcome.completed, "the campaign completes")?;
        ensure(outcome.dataset_digest == Some(dataset_digest(&batch)), "campaign digest equals the batch run's")?;
        let disk = dir_bytes(&dir).map_err(|e| e.to_string())?;
        self.tr.end(stage);

        let (tr, l) = (&self.tr, &mut self.layers);
        let calls: f64 = ["campaign.create", "campaign.day", "campaign.resume", "campaign.final_fold"]
            .iter()
            .map(|n| tr.total_ms(n))
            .sum();
        l.set("campaign.create_ms", tr.total_ms("campaign.create"));
        l.set("campaign.day_ms", tr.total_ms("campaign.day"));
        l.set("campaign.resume_ms", tr.total_ms("campaign.resume"));
        l.set("campaign.final_fold_ms", tr.total_ms("campaign.final_fold"));
        l.set("campaign.store_overhead_ms", calls - tr.total_ms("campaign.batch_run"));
        l.set("campaign.disk_bytes", disk as f64);
        l.set("campaign.disk_bytes_per_flow", disk as f64 / batch.flows.len() as f64);
        Ok(())
    }

    /// Probe state after one day: export, write, read back.
    fn checkpoint(&mut self, cfg: ScenarioConfig) -> Result<(), String> {
        const WL: &str = "campaign_4d";
        let stage = self.tr.begin("stage.checkpoint", WL);
        let mut runner = DayRunner::new(cfg);
        let mut probe = ShardedProbe::new(runner.probe_config(), 1);
        runner.run_day(&mut probe, 0);
        let state = self.tr.span("checkpoint.export", WL, || probe.export_state());
        let path = self.job.dir.join("trace-state.bin");
        let (flows, dns) = (FlowBuckets::new(), DnsBuckets::new());
        let sum = self.tr.span("checkpoint.write", WL, || write_state_file(&path, &state, &flows, &dns));
        let sum = sum.map_err(|e| e.to_string())?;
        let back =
            self.tr.span("checkpoint.read", WL, || read_state_file(&path, Some(sum))).map_err(|e| e.to_string())?;
        ensure(back.0.encode() == state.encode(), "the state file reads back to the exported state")?;
        self.tr.end(stage);
        let (tr, l) = (&self.tr, &mut self.layers);
        l.set("checkpoint.export_ms", tr.total_ms("checkpoint.export"));
        l.set("checkpoint.write_ms", tr.total_ms("checkpoint.write"));
        l.set("checkpoint.read_ms", tr.total_ms("checkpoint.read"));
        Ok(())
    }

    /// Segment codec and the two query shapes over the replicated frame.
    fn segment_and_query(&mut self, frame: &FlowFrame, ds: &Dataset) -> Result<(), String> {
        const WL: &str = "warehouse_scan";
        let stage = self.tr.begin("stage.warehouse", WL);
        let big = frame.replicate(spec::WAREHOUSE_REPLICATE);
        let bytes = self.tr.span("segment.encode", "campaign_4d", || encode_segment(&big));
        let path = self.job.dir.join("trace-frame.swseg");
        self.tr
            .span("segment.write_file", "campaign_4d", || write_segment_file(&path, &big))
            .map_err(|e| e.to_string())?;
        let decoded = self.tr.span("segment.decode", WL, || decode_segment(&bytes)).map_err(|e| e.to_string())?;
        let from_file =
            self.tr.span("segment.read_file", WL, || read_segment_file(&path, None)).map_err(|e| e.to_string())?;
        let digest = |fr: &FlowFrame| {
            fnv1a(paper_reports_columnar(fr, &ds.dns, &ds.enrichment, MIN_FLOWS, 1).render_all().as_bytes())
        };
        let want = digest(&big);
        ensure(
            digest(&decoded) == want && digest(&from_file) == want,
            "decoded segments report like the in-RAM frame",
        )?;

        let parse = |src: &str| Pipeline::parse(src).map_err(|e| e.to_string());
        let (selective, full) = (parse(spec::SELECTIVE_PIPELINE)?, parse(spec::FULL_SCAN_PIPELINE)?);
        let (_, stats) = self
            .tr
            .span("query.selective", WL, || query::run_with_stats(&decoded, &selective, 1))
            .map_err(|e| e.to_string())?;
        self.tr.span("query.full_scan", WL, || query::run_with_stats(&decoded, &full, 1)).map_err(|e| e.to_string())?;
        self.tr.end(stage);

        let (tr, l) = (&self.tr, &mut self.layers);
        let mb = bytes.len() as f64 / MIB;
        l.set("segment.encode_ms", tr.total_ms("segment.encode"));
        l.set("segment.encode_mb_per_s", mb / (tr.total_ms("segment.encode") / 1e3));
        l.set("segment.decode_ms", tr.total_ms("segment.decode"));
        l.set("segment.decode_mb_per_s", mb / (tr.total_ms("segment.decode") / 1e3));
        l.set("segment.bytes_per_row", bytes.len() as f64 / big.len() as f64);
        l.set("query.selective_ms", tr.total_ms("query.selective"));
        l.set("query.full_scan_ms", tr.total_ms("query.full_scan"));
        l.set("query.pushdown_keep_share", stats.rows_after_pushdown as f64 / stats.rows_scanned as f64);
        Ok(())
    }

    /// The wire path: capture, read back, parse alone, parse + probe.
    fn wire(&mut self, cfg: ScenarioConfig, ds: &Dataset) -> Result<(), String> {
        const WL: &str = "wire_ingest";
        let stage = self.tr.begin("stage.wire", WL);
        let path = self.job.dir.join("trace-capture.pcap");
        let (written, oversize) = self.tr.span("pcap.write", WL, || child::write_capture(cfg, &path))?;
        ensure(written + oversize == ds.packets, "every span-port packet is captured or counted as oversize")?;
        let frames = self.tr.span("pcap.read", WL, || child::load_capture(&path))?;
        ensure(frames.len() as u64 == written, "read_pcap returns every frame written")?;
        self.tr.span("netstack.parse", WL, || {
            for f in &frames {
                let _ = black_box(Packet::parse(&f.data));
            }
        });
        let mut probe = child::wire_probe();
        self.tr.span("monitor.observe_wire", WL, || {
            for f in &frames {
                probe.observe_wire(f.t, &f.data);
            }
        });
        let parse_errors = probe.parse_errors;
        let (flows, _) = self.tr.span("monitor.finish_wire", WL, || probe.finish());
        ensure(parse_errors == 0 && !flows.is_empty(), "the capture parses without errors into flows")?;
        self.tr.end(stage);

        let (tr, l) = (&self.tr, &mut self.layers);
        let parse_ms = tr.total_ms("netstack.parse");
        l.set("pcap.read_ms", tr.total_ms("pcap.read"));
        l.set("netstack.parse_ms", parse_ms);
        l.set("netstack.parse_pkts_per_s", frames.len() as f64 / (parse_ms / 1e3));
        l.set("monitor.observe_wire_ms", tr.total_ms("monitor.observe_wire"));
        l.set("monitor.observe_pkt_ms", tr.total_ms("monitor.observe_wire") - parse_ms);
        l.set("wire.frames", frames.len() as f64);
        l.set("wire.frames_skipped_oversize", oversize as f64);
        l.set("wire.parse_errors", parse_errors as f64);
        Ok(())
    }

    /// The named workload's own runs, untraced, at its own size: the
    /// wall and child rusage the layer rows are to be read against.
    fn own_workload(&mut self) -> Result<(), String> {
        let wl = self.job.workload.name();
        let outcome = self.tr.span("e2e.own_runs", wl, || self.job.measure(1, MIN_RUNS, 0.0))?;
        eprint!("{}", outcome.describe(self.job.workload));
        ensure(outcome.correct(), "the named workload's own runs pass their checks")?;
        let of = |f: fn(&crate::e2e::Run) -> f64| stats::median(&outcome.runs.iter().map(f).collect::<Vec<_>>());
        self.layers.set("e2e.wall_ms", of(|r| r.wall_s * 1e3));
        self.layers.set("proc.user_s", of(|r| r.usage.user_s));
        self.layers.set("proc.sys_s", of(|r| r.usage.sys_s));
        Ok(())
    }
}
