//! Hot-path micro-benchmarks: the components a real deployment would
//! size hardware for (the paper's probe processed 4.3 PB in real time
//! on DPDK + two NICs — our equivalents must be cheap too). Only the
//! kernels no `satbench` per-layer row times live here; flow
//! synthesis, the probe's wire path, the log codec, segments, queries
//! and the report fold are timed by `benchmark/`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use satwatch_analytics::Classifier;
use satwatch_monitor::anon::CryptoPan;
use satwatch_monitor::{FlowTableConfig, Probe, ProbeConfig};
use satwatch_netstack::{dns, quic, tls, PacketColumns};
use satwatch_simcore::{Rng, SimTime};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::Ipv4Addr;

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
    // one satellite-RTT sample as flow synthesis draws it: the flow's
    // snapshot is built once, the per-packet terms per sample
    let snap = access.delay_snapshot(&beam, &terminal, 10, SimTime::from_secs(10 * 3600));
    let mut rng = Rng::new(5);
    c.bench_function("segment_rtt_sample", |b| {
        b.iter(|| {
            black_box(snap.downlink(&mut rng) + terminal.home_rtt_sample(&mut rng) + snap.uplink(&mut rng, false))
        })
    });
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

/// Synthesized per-flow runs holding at least 1k rows between them,
/// each in time order as emission leaves it for the probe.
fn synth_runs_1k() -> (Vec<PacketColumns>, usize) {
    let f = synth_fixture(256);
    let mut runs: Vec<PacketColumns> = Vec::new();
    let mut rows = 0usize;
    let mut rng = f.seeds.rng_idx("flows", 0);
    let mut arena = satwatch_simcore::PayloadArena::new();
    for intent in &f.intents {
        let customer = &f.population.customers[intent.customer_index];
        let beam = f.population.beam(customer.terminal.beam);
        let mut out = PacketColumns::default();
        f.model.simulate_flow(intent, customer, &f.catalog, beam, &mut rng, &mut arena, &mut out);
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

/// The probe's one walker (DESIGN.md §4) over long stretches and one
/// row at a time: identical synthesized runs go through `observe_cols`
/// (stretches of a run's rows: branch-light stamp sweep + deferred
/// DPI) and through per-packet `observe` on materialized rows, each a
/// one-row stretch.
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

/// The inspect buffer under a TLS stream cut at segment size.
fn inspect_feed(c: &mut Criterion) {
    use satwatch_monitor::inspect::InspectBuffer;

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

/// SipHash (std default) vs the in-tree FxHash on the probe's hottest
/// key shapes: an (address, port) key insert/find cycle. This is the
/// delta that justified swapping the hasher in the flow table and the
/// aggregation maps.
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

criterion_group! {
    name = micro;
    config = Criterion::default();
    targets = cryptopan_anonymize, dpi_sni_extraction, dns_codec, classifier_throughput,
              satellite_channel_sampling, stamp_loop, inspect_feed, hasher_comparison
}
criterion_main!(micro);
