//! Property tests: frame folds equal record passes on arbitrary small
//! flow sets, and stream-order ingestion seals into the batch frame.

use proptest::prelude::*;
use satwatch_analytics::agg::{self, Enrichment};
use satwatch_analytics::engine::{report_all, ReportCtx};
use satwatch_analytics::frame::FrameBuilder;
use satwatch_analytics::{encode_segment, Classifier, FlowFrame};
use satwatch_monitor::record::RttSummary;
use satwatch_monitor::{flow_sort_key, FlowRecord, L7Protocol};
use satwatch_simcore::{SimDuration, SimTime};
use satwatch_traffic::Country;
use std::net::Ipv4Addr;

const DOMAINS: [Option<&str>; 4] = [None, Some("video.tiktokv.com"), Some("docs.google.com"), Some("x.example")];

#[derive(Clone, Debug)]
struct FlowSpec {
    client: u8,
    port: u16,
    l7: u8,
    down: u64,
    up: u64,
    secs: u64,
    dur_s: u64,
    domain: u8,
    sat: Option<u16>,
    ground_samples: u64,
    ground_avg_ms: u16,
}

fn spec_strategy() -> impl Strategy<Value = FlowSpec> {
    // the vendored proptest only implements Strategy for tuples up to
    // arity 6, so the 11 fields are split across two nested tuples
    (
        (
            0u8..4,
            1024u16..u16::MAX,
            0u8..L7Protocol::ALL.len() as u8,
            0u64..30_000_000,
            0u64..1_000_000,
            0u64..86_400 * 2,
        ),
        (1u64..1200, 0u8..DOMAINS.len() as u8, proptest::option::of(450u16..2000), 0u64..5, 5u16..400),
    )
        .prop_map(|((client, port, l7, down, up, secs), (dur_s, domain, sat, ground_samples, ground_avg_ms))| {
            FlowSpec { client, port, l7, down, up, secs, dur_s, domain, sat, ground_samples, ground_avg_ms }
        })
}

fn build(spec: &FlowSpec) -> FlowRecord {
    let first = SimTime::from_secs(spec.secs);
    FlowRecord {
        client: Ipv4Addr::new(77, 0, 0, spec.client),
        server: Ipv4Addr::new(198, 18, 0, 1),
        client_port: spec.port,
        server_port: 443,
        ip_proto: 6,
        first,
        last: first + SimDuration::from_secs(spec.dur_s as i64),
        c2s_packets: 5,
        c2s_bytes: spec.up,
        c2s_payload_bytes: spec.up,
        s2c_packets: 10,
        s2c_bytes: spec.down,
        s2c_payload_bytes: spec.down,
        c2s_retrans: 0,
        s2c_retrans: 0,
        early: vec![],
        syn_seen: true,
        fin_seen: true,
        rst_seen: false,
        ground_rtt: RttSummary {
            samples: spec.ground_samples,
            min_ms: f64::from(spec.ground_avg_ms) - 1.0,
            avg_ms: f64::from(spec.ground_avg_ms),
            max_ms: f64::from(spec.ground_avg_ms) + 1.0,
            std_ms: 1.0,
        },
        s2c_data_first: None,
        s2c_data_last: None,
        sat_rtt_ms: spec.sat.map(f64::from),
        l7: L7Protocol::ALL[spec.l7 as usize],
        domain: DOMAINS[spec.domain as usize].map(Into::into),
    }
}

fn enrichment() -> Enrichment {
    enrichment_describing(2)
}

/// The customer map beside a beam table of `beams_known` entries: all
/// of them (2), one id past the end (1), or none — what a replayed
/// `enrichment.tsv` gives, which persists `beam_of` and not `beams`.
fn enrichment_describing(beams_known: usize) -> Enrichment {
    let mut e = Enrichment { days: 2, ..Default::default() };
    // client 0 stays unmapped on purpose
    e.country_of.insert(Ipv4Addr::new(77, 0, 0, 1), Country::Congo);
    e.country_of.insert(Ipv4Addr::new(77, 0, 0, 2), Country::Spain);
    e.country_of.insert(Ipv4Addr::new(77, 0, 0, 3), Country::Nigeria);
    e.beam_of.insert(Ipv4Addr::new(77, 0, 0, 1), 0);
    e.beam_of.insert(Ipv4Addr::new(77, 0, 0, 2), 1);
    e.beams = vec![
        agg::BeamInfo { name: "cd-0".into(), country: Country::Congo, peak_utilization: 0.8 },
        agg::BeamInfo { name: "es-0".into(), country: Country::Spain, peak_utilization: 0.5 },
    ];
    e.beams.truncate(beams_known);
    e
}

proptest! {
    #[test]
    fn frame_folds_match_record_passes(
        specs in proptest::collection::vec(spec_strategy(), 0..120),
        beams_known in 0usize..=2,
    ) {
        let flows: Vec<FlowRecord> = specs.iter().map(build).collect();
        let enr = enrichment_describing(beams_known);
        let fr = FlowFrame::from_records(&flows, &enr);
        let top = [Country::Congo, Country::Spain, Country::Nigeria];
        let ctx = ReportCtx { enrichment: &enr, countries: &top };
        // the fused sweep — the path production runs — against one
        // record pass per figure
        let services = ["Tiktok", "Google"];
        let all = report_all(&fr, &[], ctx, &services, 1);
        let days = agg::customer_days(&flows, &Classifier::standard());
        prop_assert_eq!(format!("{:?}", agg::table1(&flows)), format!("{:?}", all.table1));
        prop_assert_eq!(format!("{:?}", agg::fig2(&flows, &enr)), format!("{:?}", all.fig2));
        prop_assert_eq!(format!("{:?}", agg::fig3(&flows, &enr)), format!("{:?}", all.fig3));
        prop_assert_eq!(format!("{:?}", agg::fig4(&flows, &enr)), format!("{:?}", all.fig4));
        // Figs 5-7 are functions of the customer-day rollup alone
        prop_assert_eq!(format!("{:?}", agg::fig5(&days, &enr)), format!("{:?}", all.fig5));
        prop_assert_eq!(format!("{:?}", agg::fig6(&days, &enr, &services, &top)), format!("{:?}", all.fig6));
        prop_assert_eq!(format!("{:?}", agg::fig7(&days, &enr, &top)), format!("{:?}", all.fig7));
        prop_assert_eq!(format!("{:?}", agg::fig8a(&flows, &enr, &top)), format!("{:?}", all.fig8a));
        prop_assert_eq!(format!("{:?}", agg::fig8b(&flows, &enr)), format!("{:?}", all.fig8b));
        // a sample of a beam the enrichment does not describe is skipped, not indexed
        prop_assert!(all.fig8b.rows.len() <= beams_known);
        prop_assert_eq!(format!("{:?}", agg::fig9(&flows, &enr, &top)), format!("{:?}", all.fig9));
        prop_assert_eq!(format!("{:?}", agg::fig11(&flows, &enr, &top)), format!("{:?}", all.fig11));
        prop_assert_eq!(
            format!("{:?}", agg::table_cdn_selection(&flows, &[], &enr, &top, 1)),
            format!("{:?}", all.table2)
        );
    }

    #[test]
    fn any_push_order_seals_into_the_canonical_frame(
        specs in proptest::collection::vec(spec_strategy(), 1..80),
        seed in any::<u64>(),
    ) {
        let mut flows: Vec<FlowRecord> = specs.iter().map(build).collect();
        flows.sort_by_key(flow_sort_key);
        let enr = enrichment();
        let batch = FlowFrame::from_records(&flows, &enr);
        // deterministic pseudo-shuffle of the push order
        let mut order: Vec<usize> = (0..flows.len()).collect();
        for i in (1..order.len()).rev() {
            let j = (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut b = FrameBuilder::new(enrichment());
        for &i in &order {
            b.push(&flows[i]);
        }
        let sealed = b.seal();
        prop_assert_eq!(sealed.len(), batch.len());
        prop_assert_eq!(&sealed.first, &batch.first);
        prop_assert_eq!(&sealed.client, &batch.client);
        prop_assert_eq!(&sealed.bytes_up, &batch.bytes_up);
        prop_assert_eq!(&sealed.bytes_down, &batch.bytes_down);
        prop_assert_eq!(&sealed.ground_rtt_avg, &batch.ground_rtt_avg);
        prop_assert_eq!(&sealed.down_bps, &batch.down_bps);
        prop_assert_eq!(&sealed.l7, &batch.l7);
        prop_assert_eq!(&sealed.country, &batch.country);
        prop_assert_eq!(&sealed.local_hour, &batch.local_hour);
        prop_assert_eq!(&sealed.day, &batch.day);
        prop_assert_eq!(&sealed.beam, &batch.beam);
        prop_assert_eq!(&sealed.service, &batch.service);
        prop_assert_eq!(&sealed.category, &batch.category);
        // the coded column: the builders met the names in different
        // orders, so codes and dictionaries may differ — the names per
        // row may not, and once the dictionary is canonicalised (as a
        // segment stores it) the two frames are the same bytes
        for i in 0..batch.len() {
            prop_assert_eq!(sealed.domain_at(i), batch.domain_at(i), "row {}", i);
        }
        prop_assert_eq!(batch.domain_order(), (0..batch.domains.len() as u32).collect::<Vec<_>>());
        prop_assert_eq!(encode_segment(&sealed), encode_segment(&batch));
    }
}
