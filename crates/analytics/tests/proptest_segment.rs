//! Property tests for the `.swseg` segment codec (DESIGN.md §12):
//!
//! * `FlowFrame → segment bytes → FlowFrame` is lossless over random
//!   frames — including bit-exact NaN payloads in the f64 columns and
//!   dictionary-encoded unicode domains. Losslessness is checked as
//!   `encode(decode(bytes)) == bytes`: the encoder is deterministic,
//!   so byte-stable re-encoding proves every column survived.
//! * The frame's `domain` column is codes into its own dictionary; the
//!   stored dictionary is canonical, so frames that hold the same rows
//!   under differently ordered dictionaries are the same bytes.
//! * Any truncation and any byte flip in the column data is rejected
//!   with a typed error — never a panic, never a silently-wrong frame.

use proptest::prelude::*;
use proptest::TestRng;
use satwatch_analytics::agg::Enrichment;
use satwatch_analytics::{decode_segment, encode_segment, FlowFrame, SegmentError};
use satwatch_monitor::record::{EarlyPacket, RttSummary};
use satwatch_monitor::{FlowRecord, L7Protocol};
use satwatch_simcore::{SimDuration, SimTime};
use std::net::Ipv4Addr;

const DOMAINS: &[&str] = &["rr4---sn-4g5e6nz7.googlevideo.com", "video.tiktokv.com", "π.example.إختبار", "a", "x.y"];

fn record(rng: &mut TestRng) -> FlowRecord {
    let i = rng.below(6) as u8;
    let first = SimTime::from_nanos(rng.below(3 * 86_400_000_000_000));
    // occasionally inject NaN / infinities into the float-bearing
    // fields: the columnar spill stores raw bits and must keep them
    let weird = |rng: &mut TestRng, v: f64| match rng.below(12) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => -0.0,
        _ => v,
    };
    let gr = rng.f64() * 100.0;
    FlowRecord {
        client: Ipv4Addr::new(77, 0, 0, i),
        server: Ipv4Addr::new(198, 18, 0, 1 + (rng.below(4) as u8)),
        client_port: 40_000 + rng.below(20_000) as u16,
        server_port: [443u16, 80, 53, 4500][rng.below(4) as usize],
        ip_proto: if rng.below(2) == 0 { 6 } else { 17 },
        first,
        last: first + SimDuration::from_millis(rng.below(600_000) as i64),
        c2s_packets: rng.below(1_000),
        c2s_bytes: rng.below(1 << 30),
        c2s_payload_bytes: rng.below(1 << 30),
        s2c_packets: rng.below(10_000),
        s2c_bytes: rng.below(1 << 32),
        s2c_payload_bytes: rng.below(1 << 32),
        c2s_retrans: rng.below(10),
        s2c_retrans: rng.below(10),
        early: (0..rng.below(4))
            .map(|k| EarlyPacket { offset_ms: k as f64 * 0.5, wire_len: 60 + k as u16, c2s: k % 2 == 0 })
            .collect(),
        syn_seen: rng.below(2) == 0,
        fin_seen: rng.below(2) == 0,
        rst_seen: rng.below(8) == 0,
        ground_rtt: RttSummary {
            samples: rng.below(50),
            min_ms: weird(rng, gr * 0.5),
            avg_ms: weird(rng, gr),
            max_ms: gr * 2.0,
            std_ms: rng.f64(),
        },
        s2c_data_first: (rng.below(2) == 0).then(|| first + SimDuration::from_millis(1)),
        s2c_data_last: (rng.below(2) == 0).then(|| first + SimDuration::from_millis(2)),
        sat_rtt_ms: {
            let v = 550.0 + rng.f64() * 100.0;
            let v = weird(rng, v);
            (rng.below(3) == 0).then_some(v)
        },
        l7: L7Protocol::ALL[rng.below(7) as usize],
        domain: (rng.below(3) != 0).then(|| DOMAINS[rng.below(DOMAINS.len() as u64) as usize].into()),
    }
}

fn frame(seed: u64, n: usize) -> FlowFrame {
    let mut rng = TestRng::new(seed);
    let mut e = Enrichment { days: 3, ..Default::default() };
    e.country_of.insert(Ipv4Addr::new(77, 0, 0, 1), satwatch_traffic::Country::Congo);
    e.beam_of.insert(Ipv4Addr::new(77, 0, 0, 2), 5);
    let mut flows: Vec<FlowRecord> = (0..n).map(|_| record(&mut rng)).collect();
    flows.sort_by_key(satwatch_monitor::flow_sort_key);
    FlowFrame::from_records(&flows, &e)
}

proptest! {
    #[test]
    fn round_trip_is_lossless_on_random_frames(seed in any::<u64>(), n in 0usize..60) {
        let fr = frame(seed, n);
        let bytes = encode_segment(&fr);
        let back = decode_segment(&bytes).expect("fresh segment must decode");
        prop_assert_eq!(back.len(), fr.len());
        // byte-stable re-encode == every column (bit patterns, dict,
        // services table) survived the round trip
        prop_assert_eq!(encode_segment(&back), bytes);
        // the coded column: same name on every row, and the decoded
        // dictionary is the canonical one — distinct names in order of
        // first appearance over rows, every entry used
        for i in 0..fr.len() {
            prop_assert_eq!(back.domain_at(i), fr.domain_at(i), "row {}", i);
        }
        prop_assert_eq!(back.domain_order(), (0..back.domains.len() as u32).collect::<Vec<_>>());
        let distinct: std::collections::HashSet<&str> = back.domains.iter().map(|d| &**d).collect();
        prop_assert_eq!(distinct.len(), back.domains.len());
    }

    #[test]
    fn dictionary_order_and_unused_entries_never_reach_the_bytes(seed in any::<u64>(), n in 0usize..60) {
        let fr = frame(seed, n);
        // the same rows under a rotated dictionary with a stray entry
        // in front, as a builder that met the names in another order
        // (and one name no sealed row uses) would hold them
        let k = fr.domains.len() as u32;
        let mut other = fr.clone();
        other.domains = std::iter::once("unused.example".into())
            .chain((0..k).map(|c| fr.domains[((c + 1) % k) as usize].clone()))
            .collect();
        other.domain = fr.domain.iter().map(|&d| if d == u32::MAX { d } else { (d + k - 1) % k + 1 }).collect();
        for i in 0..fr.len() {
            prop_assert_eq!(other.domain_at(i), fr.domain_at(i), "row {}", i);
        }
        prop_assert_eq!(encode_segment(&other), encode_segment(&fr));
    }

    #[test]
    fn any_truncation_is_rejected_without_panic(seed in any::<u64>(), n in 0usize..20, frac in 0.0f64..1.0) {
        let bytes = encode_segment(&frame(seed, n));
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assert!(cut < bytes.len());
        prop_assert!(decode_segment(&bytes[..cut]).is_err(), "truncated at {} of {}", cut, bytes.len());
    }

    #[test]
    fn column_data_corruption_is_caught_by_checksums(seed in any::<u64>(), n in 1usize..20, pos in any::<u64>(), bit in 0u32..8) {
        let fr = frame(seed, n);
        let bytes = encode_segment(&fr);
        // flip one bit inside the column-run region (after the 8-byte
        // magic, before the footer): the per-column FNV must catch it
        let data_len: usize = {
            let meta = satwatch_analytics::segment::segment_meta(&bytes).unwrap();
            meta.columns.iter().map(|(_, len, _)| *len as usize).sum()
        };
        prop_assert!(data_len > 0); // n >= 1 row and fixed-width columns
        let mut bad = bytes.clone();
        let idx = 8 + (pos as usize % data_len);
        bad[idx] ^= 1 << bit;
        match decode_segment(&bad) {
            Err(SegmentError::Checksum { .. }) => {}
            Err(other) => prop_assert!(false, "expected a checksum error, got: {}", other),
            Ok(_) => prop_assert!(false, "bit flip at {} went undetected", idx),
        }
    }

    #[test]
    fn arbitrary_byte_flips_never_panic(seed in any::<u64>(), n in 0usize..20, pos in any::<u64>(), bit in 0u32..8) {
        let fr = frame(seed, n);
        let mut bytes = encode_segment(&fr);
        let idx = pos as usize % bytes.len();
        bytes[idx] ^= 1 << bit;
        let _ = decode_segment(&bytes); // Err or Ok — but never a panic
    }
}
