//! Emission order is a property of flow synthesis, not a sort.
//!
//! The day loop hands every run `emit_flow_open` writes to the probe as
//! it comes out: nothing sorts or clamps it. That is sound only if
//! every run is already in time order and starts no earlier than its
//! intent — the two things the old per-run sort restored. This test
//! draws intents over every protocol, with and without a DNS lookup,
//! with transfers from nothing to past the 48-chunk and the 3 GB
//! coalescing limits, runs them with the PEP on and off and with the
//! African ground station, and checks every run:
//!
//! * its timestamps never decrease;
//! * its first row is at or after the intent's start;
//! * each TCP direction numbers its bytes without gap or overlap: in
//!   time order, every row that takes sequence space (payload, SYN,
//!   FIN) starts where the previous one ended, and a pure ACK carries a
//!   sequence number inside the direction's space. (The server's ACK of
//!   the upload tail is numbered after the whole download, as it always
//!   was, so it may sit among the last download chunks.)
//!
//! `PROPTEST_CASES` sets the number of intents per model.

use proptest::prelude::*;
use satwatch_internet::{CdnCatalog, ResolverId};
use satwatch_netstack::columns::UDP_ROW;
use satwatch_netstack::{PacketColumns, TcpFlags};
use satwatch_satcom::channel::default_peak_hour;
use satwatch_satcom::geo::places;
use satwatch_satcom::{
    DelayCache, LinkConfig, LinkModel, Mac, MacConfig, PepConfig, PepModel, SatelliteAccess, WeatherModel,
};
use satwatch_scenario::NetModel;
use satwatch_simcore::time::SECS_PER_DAY;
use satwatch_simcore::{PayloadArena, Rng, SeedTree, SimTime};
use satwatch_traffic::catalog::standard_catalog;
use satwatch_traffic::{build_population, FlowIntent, FlowProtocol, Population, ServiceSpec};

const PROTOCOLS: [FlowProtocol; 6] = [
    FlowProtocol::Tls,
    FlowProtocol::Quic,
    FlowProtocol::Http,
    FlowProtocol::OtherTcp,
    FlowProtocol::OtherUdp,
    FlowProtocol::Rtp,
];

/// Nothing, a small transfer, one past 48 chunks of 256 kB, one past
/// the 3 GB that 48 chunks of 64 MB can carry.
fn arb_bytes() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..200_000, 12_288_001u64..400_000_000, 3_072_000_001u64..12_000_000_000]
}

fn model(seeds: &SeedTree, pep_enabled: bool, african_gs: bool) -> NetModel {
    NetModel {
        access: SatelliteAccess {
            slot: places::SATELLITE,
            gs_location: places::GROUND_STATION_ITALY,
            mac: Mac::new(MacConfig::default()),
            link: LinkModel::new(LinkConfig::default()),
            pep: PepModel::new(PepConfig::default()),
            peak_hour_by_country: default_peak_hour,
            weather: Some(WeatherModel::new(seeds.rng("weather").next_u64())),
        },
        cdns: CdnCatalog::standard(),
        pep_enabled,
        african_gs,
    }
}

/// One flow through the cohort loop's two passes: plan on the shared
/// stream, then emit into a fresh run.
fn emit(
    (m, cache): &mut (NetModel, DelayCache),
    pop: &Population,
    catalog: &[ServiceSpec],
    intent: &FlowIntent,
    seed: u64,
) -> PacketColumns {
    let customer = &pop.customers[intent.customer_index];
    let propagation = m.access.slot.bent_pipe_delay(customer.terminal.location, m.access.gs_location);
    let (mut delays, mut arena, mut run) = (Vec::new(), PayloadArena::new(), PacketColumns::default());
    let beam = pop.beam(customer.terminal.beam);
    let plan =
        m.plan_flow_cached(intent, customer, catalog, beam, propagation, cache, &mut Rng::new(seed), &mut delays);
    m.emit_flow_open(intent, customer, &plan, &delays, &mut arena, &mut run);
    run
}

/// The sequence-number check of one TCP direction, rows in time order.
fn check_direction(run: &PacketColumns, rows: &[usize], what: &str) {
    let Some(&first) = rows.first() else { return };
    let isn = run.seq[first];
    let mut next = isn;
    for &i in rows {
        let flags = TcpFlags(run.flags[i]);
        let takes = run.pay_len[i] + u32::from(flags.syn()) + u32::from(flags.fin());
        if takes > 0 {
            assert_eq!(run.seq[i], next, "{what}: row {i} starts a gap or an overlap");
            next = next.wrapping_add(takes);
        }
    }
    for &i in rows {
        let offset = run.seq[i].wrapping_sub(isn);
        assert!(offset <= next.wrapping_sub(isn), "{what}: row {i}'s seq lies outside the direction's space");
    }
}

fn check_run(run: &PacketColumns, intent: &FlowIntent, client: std::net::Ipv4Addr, what: &str) {
    assert!(!run.is_empty(), "{what}: no rows");
    assert!(run.ts.windows(2).all(|w| w[0] <= w[1]), "{what}: rows out of time order");
    assert!(run.ts[0] >= intent.start, "{what}: first row before the intent");
    let tcp = |c2s: bool| -> Vec<usize> {
        (0..run.len()).filter(|&i| run.flags[i] != UDP_ROW && (run.src[i] == client) == c2s).collect()
    };
    check_direction(run, &tcp(true), &format!("{what}, client → server"));
    check_direction(run, &tcp(false), &format!("{what}, server → client"));
}

#[test]
fn every_emitted_run_is_time_ordered_and_numbered_without_gaps() {
    let seeds = SeedTree::new(0x0e1);
    let pop = build_population(60, &seeds);
    let catalog = standard_catalog();
    let mut models = [(true, false), (false, false), (true, true), (false, true)].map(|(pep, afr)| {
        let mut cache = DelayCache::new();
        cache.begin_day(0);
        (model(&seeds, pep, afr), cache)
    });
    let intents = (
        (0..pop.customers.len(), 0..catalog.len(), 0..PROTOCOLS.len()),
        (any::<bool>(), arb_bytes(), arb_bytes()),
        (0..SECS_PER_DAY * 1_000_000_000, 0..ResolverId::ALL.len(), any::<u64>()),
    );
    let mut rng = TestRng::new(proptest::test_runner::seed_for("emission_order"));
    for _ in 0..proptest::test_runner::cases() {
        let ((customer, svc, proto), (needs_dns, down_bytes, up_bytes), (start, resolver, seed)) =
            intents.sample(&mut rng);
        let svc = &catalog[svc];
        let intent = FlowIntent {
            customer_index: customer,
            start: SimTime::from_nanos(start),
            service: svc.id,
            domain: svc.sample_domain(&mut Rng::new(seed)),
            protocol: PROTOCOLS[proto],
            down_bytes,
            up_bytes,
            needs_dns,
            resolver: ResolverId::ALL[resolver],
        };
        let client = pop.customers[customer].terminal.address;
        for m in &mut models {
            let run = emit(m, &pop, &catalog, &intent, seed);
            let what = format!("{intent:?}, pep {}, african gs {}", m.0.pep_enabled, m.0.african_gs);
            check_run(&run, &intent, client, &what);
        }
    }
}
