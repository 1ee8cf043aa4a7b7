//! Hot-path micro-benchmarks: the components a real deployment would
//! size hardware for (the paper's probe processed 4.3 PB in real time
//! on DPDK + two NICs — our equivalents must be cheap too).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use satwatch_analytics::Classifier;
use satwatch_monitor::anon::CryptoPan;
use satwatch_monitor::{FlowTableConfig, Probe, ProbeConfig};
use satwatch_netstack::{dns, quic, tls, Packet, PacketColumns, Subnet, TcpFlags, TcpHeader};
use satwatch_simcore::{EventQueue, Rng, SimTime};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::Ipv4Addr;

fn probe_packet_throughput(c: &mut Criterion) {
    // Pre-build a realistic packet mix: handshakes, TLS, DNS, bulk.
    let client = Ipv4Addr::new(10, 1, 2, 3);
    let server = Ipv4Addr::new(198, 18, 0, 1);
    let mut pkts: Vec<Packet> = Vec::new();
    pkts.push(Packet::tcp_control(client, server, 50_000, 443, TcpFlags::SYN));
    pkts.push(Packet::tcp_control(server, client, 443, 50_000, TcpFlags::SYN_ACK));
    let mut h = TcpHeader::new(50_000, 443, TcpFlags::PSH_ACK);
    h.seq = satwatch_netstack::SeqNum(1);
    pkts.push(Packet::tcp(client, server, h.clone(), tls::client_hello("www.youtube.com", [1; 32])));
    pkts.push(Packet::tcp(server, client, TcpHeader::new(443, 50_000, TcpFlags::PSH_ACK), tls::server_hello([2; 32])));
    for _ in 0..12 {
        pkts.push(Packet::tcp(
            server,
            client,
            TcpHeader::new(443, 50_000, TcpFlags::PSH_ACK),
            Bytes::from(vec![0u8; 1400]),
        ));
    }
    let q = dns::DnsMessage::query(7, "play.googleapis.com", dns::RecordType::A);
    pkts.push(Packet::udp(client, Ipv4Addr::new(8, 8, 8, 8), 40_000, 53, q.encode()));

    let mut group = c.benchmark_group("probe");
    group.throughput(Throughput::Elements(pkts.len() as u64));
    group.bench_function("observe_packet_mix", |b| {
        b.iter_batched(
            || Probe::new(ProbeConfig::new(FlowTableConfig::new(Subnet::new(Ipv4Addr::new(10, 0, 0, 0), 8)))),
            |mut probe| {
                for (i, p) in pkts.iter().enumerate() {
                    probe.observe(SimTime::from_nanos(i as u64 * 1000), p);
                }
                black_box(probe.active_flows())
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn cryptopan_anonymize(c: &mut Criterion) {
    let pan = CryptoPan::new(42);
    let mut group = c.benchmark_group("anon");
    group.throughput(Throughput::Elements(1));
    group.bench_function("cryptopan_ipv4", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(0x0101_0101);
            black_box(pan.anonymize(Ipv4Addr::from(i)))
        })
    });
    group.finish();
}

fn dpi_sni_extraction(c: &mut Criterion) {
    let ch = tls::client_hello("scontent-7.cdninstagram.com", [9; 32]);
    let (rec, _) = tls::parse_record(&ch).unwrap();
    c.bench_function("tls_extract_sni", |b| b.iter(|| black_box(tls::extract_sni(rec.body))));
    let initial = quic::initial_with_sni(&[1, 2, 3, 4, 5, 6, 7, 8], &[9], "www.youtube.com", [3; 32]);
    c.bench_function("quic_extract_sni", |b| b.iter(|| black_box(quic::extract_sni(&initial))));
}

fn dns_codec(c: &mut Criterion) {
    let q = dns::DnsMessage::query(1, "ipv4-c012-lagg0.1.oca.nflxvideo.net", dns::RecordType::A);
    let r = dns::DnsMessage::answer_a(&q, &[Ipv4Addr::new(198, 18, 1, 1), Ipv4Addr::new(198, 18, 1, 2)], 300);
    let wire = r.encode();
    c.bench_function("dns_encode_response", |b| b.iter(|| black_box(r.encode())));
    c.bench_function("dns_parse_response", |b| b.iter(|| black_box(dns::DnsMessage::parse(&wire).unwrap())));
}

fn classifier_throughput(c: &mut Criterion) {
    let classifier = Classifier::standard();
    let domains = [
        "audio-sp-7.pscdn.spotify.com",
        "rr4---sn-4g5e6nz7.googlevideo.com",
        "scontent-9.xx.fbcdn.net",
        "media-3.cdn.whatsapp.net",
        "unknown.domain.example.xyz",
        "www.news24.co.za",
    ];
    let mut group = c.benchmark_group("classify");
    group.throughput(Throughput::Elements(domains.len() as u64));
    group.bench_function("table3_classifier", |b| {
        b.iter(|| {
            for d in domains {
                black_box(classifier.classify(d));
            }
        })
    });
    group.finish();
}

fn event_queue_ops(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        let mut rng = Rng::new(1);
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..1_000u64 {
                q.schedule(SimTime::from_nanos(rng.next_u64() % 1_000_000_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
}

fn satellite_channel_sampling(c: &mut Criterion) {
    use satwatch_satcom::channel::default_peak_hour;
    use satwatch_satcom::geo::places;
    use satwatch_satcom::*;
    let access = SatelliteAccess {
        slot: places::SATELLITE,
        gs_location: places::GROUND_STATION_ITALY,
        mac: Mac::new(MacConfig::default()),
        link: LinkModel::new(LinkConfig::default()),
        pep: PepModel::new(PepConfig::default()),
        peak_hour_by_country: default_peak_hour,
        weather: None,
    };
    let beam = Beam {
        id: BeamId(0),
        name: "cd-0".into(),
        country: "CD",
        down_capacity: satwatch_simcore::BitRate::from_gbps(2),
        up_capacity: satwatch_simcore::BitRate::from_mbps(600),
        peak_utilization: 0.93,
        night_utilization: 0.6,
        pep_provisioning: 0.45,
        impairment: 0.05,
    };
    let terminal = Terminal {
        customer: CustomerId(0),
        address: Ipv4Addr::new(10, 0, 0, 1),
        country: "CD",
        location: places::CONGO_KINSHASA,
        beam: BeamId(0),
        plan: Plan::Down10,
        home_rtt: satwatch_simcore::SimDuration::from_millis(3),
    };
    let mut rng = Rng::new(5);
    c.bench_function("segment_rtt_sample", |b| {
        b.iter(|| black_box(access.segment_rtt(&mut rng, &beam, &terminal, 10, SimTime::from_secs(10 * 3600), false)))
    });
}

/// The tentpole trade measured directly: emitting one bulk-data run as
/// struct-of-arrays rows versus materializing the same rows as real
/// `Packet` structs (per-packet `Bytes` payload + boxed TCP header,
/// what the hot path allocated before the columnar refactor).
fn column_synthesis(c: &mut Criterion) {
    const N: usize = 1024;
    let client = Ipv4Addr::new(10, 1, 2, 3);
    let server = Ipv4Addr::new(198, 18, 0, 1);
    let mut group = c.benchmark_group("synthesis");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("columns_push_1k", |b| {
        let mut cols = PacketColumns::default();
        b.iter(|| {
            cols.clear();
            for i in 0..N as u32 {
                cols.push_tcp(
                    SimTime::from_nanos(u64::from(i) * 1_000),
                    server,
                    client,
                    443,
                    50_000,
                    TcpFlags::PSH_ACK,
                    0,
                    i * 1400,
                    1,
                    satwatch_netstack::columns::NO_ARENA,
                    1400,
                );
            }
            black_box(cols.len())
        })
    });
    group.bench_function("packets_build_1k", |b| {
        let payload = Bytes::from(vec![0u8; 1400]);
        b.iter(|| {
            let mut pkts: Vec<(SimTime, Packet)> = Vec::with_capacity(N);
            for i in 0..N as u32 {
                let mut h = TcpHeader::new(443, 50_000, TcpFlags::PSH_ACK);
                h.seq = satwatch_netstack::SeqNum(i * 1400);
                h.ack = satwatch_netstack::SeqNum(1);
                pkts.push((SimTime::from_nanos(u64::from(i) * 1_000), Packet::tcp(server, client, h, payload.clone())));
            }
            black_box(pkts.len())
        })
    });
    group.finish();
}

/// A realistic synthesis workload: a small population's first-day
/// intents plus the model that turns them into packets, built exactly
/// the way the scenario driver builds them.
struct SynthFixture {
    seeds: satwatch_simcore::SeedTree,
    population: satwatch_traffic::Population,
    catalog: Vec<satwatch_traffic::ServiceSpec>,
    model: satwatch_scenario::NetModel,
    intents: Vec<satwatch_traffic::FlowIntent>,
}

fn synth_fixture(n_intents: usize) -> SynthFixture {
    use satwatch_satcom::channel::default_peak_hour;
    use satwatch_satcom::geo::places;
    use satwatch_satcom::link::{LinkConfig, LinkModel};
    use satwatch_satcom::mac::{Mac, MacConfig};
    use satwatch_satcom::pep::{PepConfig, PepModel};
    use satwatch_satcom::SatelliteAccess;
    use satwatch_traffic::{build_population, catalog::standard_catalog, generate_day};

    let seeds = satwatch_simcore::SeedTree::new(42);
    let population = build_population(12, &seeds);
    let catalog = standard_catalog();
    let model = satwatch_scenario::NetModel {
        access: SatelliteAccess {
            slot: places::SATELLITE,
            gs_location: places::GROUND_STATION_ITALY,
            mac: Mac::new(MacConfig::default()),
            link: LinkModel::new(LinkConfig::default()),
            pep: PepModel::new(PepConfig::default()),
            peak_hour_by_country: default_peak_hour,
            weather: None,
        },
        cdns: satwatch_internet::CdnCatalog::standard(),
        pep_enabled: true,
        african_gs: false,
    };
    let mut intents = Vec::new();
    'outer: for (i, customer) in population.customers.iter().enumerate() {
        let mut rng = seeds.rng_idx("intents", i as u64);
        for intent in generate_day(customer, i, &catalog, 0, &mut rng) {
            intents.push(intent);
            if intents.len() == n_intents {
                break 'outer;
            }
        }
    }
    SynthFixture { seeds, population, catalog, model, intents }
}

/// The two-pass flow synthesis measured head-to-head (DESIGN.md "The
/// packet path and its reference"): `synth_plan_1k` runs the cohort
/// driver's shape — one batched sampling pass over the shared RNG
/// stream, then RNG-free emission — against `synth_reference_1k`, the
/// flow-at-a-time `simulate_flow` the reference run uses.
/// `synth_sample_only_1k` isolates the sampling pass, the serial
/// section the parallel dispatch cannot hide.
fn synthesis_two_pass(c: &mut Criterion) {
    let f = synth_fixture(1024);
    let n = f.intents.len() as u64;
    let mut group = c.benchmark_group("synthesis");
    group.throughput(Throughput::Elements(n));
    let prop_delays: Vec<satwatch_simcore::SimDuration> = f
        .population
        .customers
        .iter()
        .map(|c| f.model.access.slot.bent_pipe_delay(c.terminal.location, f.model.access.gs_location))
        .collect();
    group.bench_function("synth_plan_1k", |b| {
        let mut arena = satwatch_simcore::PayloadArena::new();
        let mut out = PacketColumns::default();
        let mut cache = satwatch_satcom::DelayCache::new();
        b.iter(|| {
            let mut rng = f.seeds.rng_idx("flows", 0);
            let mut delay_col = Vec::new();
            let mut plans = Vec::with_capacity(f.intents.len());
            for intent in &f.intents {
                let customer = &f.population.customers[intent.customer_index];
                let beam = f.population.beam(customer.terminal.beam);
                plans.push(f.model.plan_flow_cached(
                    intent,
                    customer,
                    &f.catalog,
                    beam,
                    prop_delays[intent.customer_index],
                    &mut cache,
                    &mut rng,
                    &mut delay_col,
                ));
            }
            let mut rows = 0usize;
            for (intent, plan) in f.intents.iter().zip(&plans) {
                let customer = &f.population.customers[intent.customer_index];
                out.clear();
                f.model.emit_flow(intent, customer, plan, &delay_col, &mut arena, &mut out);
                rows += out.len();
            }
            black_box(rows)
        })
    });
    group.bench_function("synth_sample_only_1k", |b| {
        let mut cache = satwatch_satcom::DelayCache::new();
        b.iter(|| {
            let mut rng = f.seeds.rng_idx("flows", 0);
            let mut delay_col = Vec::new();
            let mut plans = Vec::with_capacity(f.intents.len());
            for intent in &f.intents {
                let customer = &f.population.customers[intent.customer_index];
                let beam = f.population.beam(customer.terminal.beam);
                plans.push(f.model.plan_flow_cached(
                    intent,
                    customer,
                    &f.catalog,
                    beam,
                    prop_delays[intent.customer_index],
                    &mut cache,
                    &mut rng,
                    &mut delay_col,
                ));
            }
            black_box((plans.len(), delay_col.len()))
        })
    });
    group.bench_function("synth_reference_1k", |b| {
        let mut arena = satwatch_simcore::PayloadArena::new();
        let mut out = PacketColumns::default();
        b.iter(|| {
            let mut rng = f.seeds.rng_idx("flows", 0);
            let mut rows = 0usize;
            for intent in &f.intents {
                let customer = &f.population.customers[intent.customer_index];
                let beam = f.population.beam(customer.terminal.beam);
                out.clear();
                f.model.simulate_flow(intent, customer, &f.catalog, beam, &mut rng, &mut arena, &mut out);
                rows += out.len();
            }
            black_box(rows)
        })
    });
    group.finish();
}

/// Synthesized per-flow runs holding at least 1k rows between them,
/// each sorted the way the day loop hands runs to the probe.
fn synth_runs_1k() -> (Vec<PacketColumns>, usize) {
    use satwatch_netstack::SortScratch;

    let f = synth_fixture(256);
    let mut runs: Vec<PacketColumns> = Vec::new();
    let mut rows = 0usize;
    let mut rng = f.seeds.rng_idx("flows", 0);
    let mut arena = satwatch_simcore::PayloadArena::new();
    let mut scratch = SortScratch::default();
    for intent in &f.intents {
        let customer = &f.population.customers[intent.customer_index];
        let beam = f.population.beam(customer.terminal.beam);
        let mut out = PacketColumns::default();
        f.model.simulate_flow(intent, customer, &f.catalog, beam, &mut rng, &mut arena, &mut out);
        out.clamp_and_sort(intent.start, &mut scratch);
        rows += out.len();
        runs.push(out);
        if rows >= 1024 {
            break;
        }
    }
    (runs, rows)
}

fn wire_probe() -> Probe {
    let subnet = satwatch_satcom::GroundStation::italy_default().customer_subnet;
    Probe::new(ProbeConfig::new(FlowTableConfig::new(subnet)))
}

/// The probe's stamp sweep (DESIGN.md §8) against the per-packet
/// walker: identical synthesized runs go through
/// `observe_cols` (branch-light scalar-column sweep + deferred DPI)
/// and through per-packet `observe` on materialized rows.
fn stamp_loop(c: &mut Criterion) {
    let (runs, rows) = synth_runs_1k();
    let mut group = c.benchmark_group("stamp");
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("stamp_loop_1k", |b| {
        b.iter_batched(
            wire_probe,
            |mut p| {
                for run in &runs {
                    p.observe_cols(run, 0, run.len());
                }
                black_box(p.active_flows())
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.bench_function("stamp_rows_1k", |b| {
        b.iter_batched(
            wire_probe,
            |mut p| {
                for run in &runs {
                    for i in 0..run.len() {
                        let pkt = run.materialize(i);
                        p.observe(run.ts[i], &pkt);
                    }
                }
                black_box(p.active_flows())
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// The pieces of the borrowed probe path (ISSUE 13 / DESIGN.md §14),
/// each on its own so it has a trajectory outside the end-to-end wall:
/// `observe_wire` over recorded frames (handshakes, data, ACKs, DNS —
/// the same synthesized runs `stamp_loop_1k` walks, as wire bytes),
/// the canonical sort `finish` ends with, and the inspect buffer under
/// a TLS stream cut at segment size.
fn borrowed_probe_path(c: &mut Criterion) {
    use satwatch_monitor::inspect::InspectBuffer;
    use satwatch_monitor::sort_flows_canonical;

    let (runs, _) = synth_runs_1k();
    let mut frames: Vec<(SimTime, Bytes)> = Vec::new();
    for run in &runs {
        for i in 0..run.len() {
            let pkt = run.materialize(i);
            // (coalesced super-chunks have no wire form)
            if pkt.wire_len() <= 65_535 {
                frames.push((run.ts[i], pkt.encode()));
            }
        }
    }
    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Elements(frames.len() as u64));
    group.bench_function("probe_wire_1k", |b| {
        b.iter_batched(
            wire_probe,
            |mut p| {
                for (t, frame) in &frames {
                    p.observe_wire(*t, frame);
                }
                black_box(p.active_flows())
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();

    // 50k records in eviction order: a real run's flows, tiled forward
    // in time and shuffled
    let day = satwatch_scenario::run(satwatch_scenario::ScenarioConfig::tiny().with_customers(8)).flows;
    let mut flows = Vec::with_capacity(50_000);
    'tile: for lap in 0.. {
        for f in &day {
            if flows.len() == 50_000 {
                break 'tile;
            }
            let mut f = f.clone();
            f.first += satwatch_simcore::SimDuration::from_secs(lap * 86_400);
            flows.push(f);
        }
    }
    let mut rng = Rng::new(0x50f7);
    for i in (1..flows.len()).rev() {
        flows.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut group = c.benchmark_group("finish");
    group.throughput(Throughput::Elements(flows.len() as u64));
    group.bench_function("finish_sort_50k", |b| {
        b.iter_batched(
            || flows.clone(),
            |mut f| {
                sort_flows_canonical(&mut f);
                black_box(f.len())
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();

    let mut stream = tls::client_hello("www.youtube.com", [1; 32]).to_vec();
    stream.extend_from_slice(&tls::client_key_exchange(2));
    stream.extend_from_slice(&tls::change_cipher_spec());
    for i in 0..40 {
        stream.extend_from_slice(&tls::application_data(1_200 + 37 * i, i as u8));
    }
    let mut group = c.benchmark_group("inspect");
    group.throughput(Throughput::Bytes(stream.len() as u64));
    group.bench_function("inspect_feed_tls", |b| {
        b.iter(|| {
            let mut inspect = InspectBuffer::default();
            let mut units = 0usize;
            for segment in stream.chunks(1_460) {
                inspect.feed(black_box(segment), |unit| units += unit.len());
            }
            black_box(units)
        })
    });
    group.finish();
}

/// The flow-log codec on its own (ISSUE 12 / DESIGN.md "Log codec"):
/// `write_flows` into a reused `Vec` and `read_flows` back, over 1024
/// records of a real run, reported once as rows/s and once as MiB/s,
/// so the formatter's trajectory shows outside the CLI wall.
fn tsv_codec(c: &mut Criterion) {
    use satwatch_monitor::record::{read_flows, write_flows};
    let mut flows = satwatch_scenario::run(satwatch_scenario::ScenarioConfig::tiny().with_customers(8)).flows;
    flows.truncate(1024);
    assert_eq!(flows.len(), 1024, "the fixture run yields at least 1024 flows");
    let mut tsv = Vec::new();
    write_flows(&mut tsv, &flows).unwrap();
    for (name, per_iter) in
        [("tsv_rows", Throughput::Elements(flows.len() as u64)), ("tsv_bytes", Throughput::Bytes(tsv.len() as u64))]
    {
        let mut group = c.benchmark_group(name);
        group.throughput(per_iter);
        group.bench_function("tsv_encode_1k", |b| {
            let mut out = Vec::with_capacity(tsv.len());
            b.iter(|| {
                out.clear();
                write_flows(&mut out, black_box(&flows)).unwrap();
                black_box(out.len())
            })
        });
        group.bench_function("tsv_decode_1k", |b| b.iter(|| black_box(read_flows(black_box(&tsv[..])).unwrap().len())));
        group.finish();
    }
}

/// SipHash (std default) vs the in-tree FxHash on the probe's hottest
/// key shapes: the 5-tuple-ish NAT key and a full flow key insert/find
/// cycle. This is the delta that justified swapping the hasher in the
/// flow table, NAT, and aggregation maps.
fn hasher_comparison(c: &mut Criterion) {
    let keys: Vec<(Ipv4Addr, u16)> =
        (0..4_096u32).map(|i| (Ipv4Addr::from(0x0a00_0000 | i), (i % 60_000) as u16 + 1_024)).collect();
    let mut group = c.benchmark_group("hasher");
    group.throughput(Throughput::Elements(keys.len() as u64));
    group.bench_function("siphash_nat_key_insert_get", |b| {
        b.iter(|| {
            let mut m: HashMap<(Ipv4Addr, u16), u64> = HashMap::with_capacity(keys.len());
            for (i, k) in keys.iter().enumerate() {
                m.insert(*k, i as u64);
            }
            let mut acc = 0u64;
            for k in &keys {
                acc = acc.wrapping_add(*m.get(k).unwrap());
            }
            black_box(acc)
        })
    });
    group.bench_function("fxhash_nat_key_insert_get", |b| {
        b.iter(|| {
            let mut m = satwatch_simcore::fx_map_with_capacity::<(Ipv4Addr, u16), u64>(keys.len());
            for (i, k) in keys.iter().enumerate() {
                m.insert(*k, i as u64);
            }
            let mut acc = 0u64;
            for k in &keys {
                acc = acc.wrapping_add(*m.get(k).unwrap());
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// The warehouse's three legs on one 100 000-row frame (ISSUE 15 /
/// DESIGN.md "Codes end to end"), so each can be read apart from
/// `satbench`'s `warehouse_scan`: the code-keyed group-by over two
/// small columns and over the largest dictionary, the lock-step
/// column checksums of an ~8 MB segment (`segment_meta` verifies and
/// decodes no row), and the fused report fold with its DNS join.
fn warehouse(c: &mut Criterion) {
    use satwatch_analytics::engine::{report_all, ReportCtx};
    use satwatch_analytics::segment::segment_meta;
    use satwatch_analytics::{encode_segment, query, FlowFrame, Pipeline};
    use satwatch_traffic::Country;

    const ROWS: usize = 100_000;
    let ds = satwatch_scenario::run(satwatch_scenario::ScenarioConfig::tiny().with_customers(24));
    let flows: Vec<_> = ds.flows.iter().cycle().take(ROWS).cloned().collect();
    let frame = FlowFrame::from_records(&flows, &ds.enrichment);

    let mut group = c.benchmark_group("query");
    group.throughput(Throughput::Elements(ROWS as u64));
    for (name, by) in
        [("group_by_country_service_100k", r#"["country", "service"]"#), ("group_by_domain_100k", r#"["domain"]"#)]
    {
        let pipeline = Pipeline::parse(&format!(
            r#"[{{"group": {{"by": {by}, "aggs": {{"bytes": {{"sum": "bytes"}}, "flows": {{"count": true}}}}}}}}]"#
        ))
        .unwrap();
        group.bench_function(name, |b| {
            b.iter(|| black_box(query::run(black_box(&frame), &pipeline).unwrap().rows.len()))
        });
    }
    group.finish();

    let segment = encode_segment(&frame);
    let mut group = c.benchmark_group("segment");
    group.throughput(Throughput::Bytes(segment.len() as u64));
    group.bench_function("segment_verify_8mb", |b| {
        b.iter(|| black_box(segment_meta(black_box(&segment)).unwrap().rows))
    });
    group.finish();

    let ctx = ReportCtx { enrichment: &ds.enrichment, countries: &Country::TOP6 };
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(ROWS as u64));
    group.bench_function("report_fold_100k", |b| {
        b.iter(|| black_box(report_all(black_box(&frame), &ds.dns, ctx, &["Tiktok", "Google"], 10).table2.rows.len()))
    });
    group.finish();
}

criterion_group! {
    name = micro;
    config = Criterion::default();
    targets = probe_packet_throughput, cryptopan_anonymize, dpi_sni_extraction, dns_codec,
              classifier_throughput, event_queue_ops, satellite_channel_sampling, column_synthesis,
              synthesis_two_pass, stamp_loop, borrowed_probe_path, tsv_codec, hasher_comparison, warehouse
}
criterion_main!(micro);
