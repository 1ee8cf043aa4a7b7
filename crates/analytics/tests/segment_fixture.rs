//! A `.swseg` file written by the build before the frame's `domain`
//! column became dictionary codes (PR 14, `encode_segment` over a
//! per-row `Arc<str>` column that re-hashed every name) must still be
//! what this build reads *and* writes: the format did not move.
//!
//! The fixture is that build's bytes for six hand-made records, kept
//! as a literal so no later encoder can quietly regenerate it.

use satwatch_analytics::agg::Enrichment;
use satwatch_analytics::engine::{report_all, ReportCtx};
use satwatch_analytics::segment::read_segment_file;
use satwatch_analytics::{decode_segment, encode_segment, FlowFrame};
use satwatch_monitor::record::RttSummary;
use satwatch_monitor::{DnsRecord, FlowRecord, L7Protocol};
use satwatch_simcore::fnv::fnv1a;
use satwatch_simcore::{SimDuration, SimTime};
use satwatch_traffic::Country;
use std::net::Ipv4Addr;

/// `encode_segment(&FlowFrame::from_records(&records(), &enrichment()))`
/// at commit dc99cf0, hex.
const PARENT_SEGMENT_HEX: &[&str] = &[
    "53575345470076314d0000004d0000014d0000024d0000004d0000014d0000020000000000000000002aa790eb160000",
    "00544e21d72d0000007ef5b1c244000000a89c42ae5b000000d243d399720000e803000000000000f903000000000000",
    "0a040000000000001b040000000000002c040000000000003d04000000000000808d5b000000000069915b0000000000",
    "52955b00000000003b995b0000000000249d5b00000000000da15b000000000000000000000029400000000000002b40",
    "0000000000002d400000000000002f400000000000803040000000000080314000000000000000000100000000000000",
    "02000000000000000300000000000000000000000000000001000000000000000000000000ca8240000000000000f87f",
    "0000000000da8240000000000000f87f0000000000ea8240000000000000f87f00000000a3e1f14102d9806c0e527e41",
    "a6f61699246d6e41b4ec35cb624f644155caada8b47c5e41ccf69465e26658417b14ae47e17a943f52b81e85eb51f83f",
    "295c8fc2f528084014ae47e17a14124014ae47e17a14184014ae47e17a141e40000102030405ff0001ff0001ff080fff",
    "050c00070e15040b000000000000000000000000000000000100000001000000ffff0300ffffffff0300ffffffff0900",
    "14000900ffffffffff030503ffffffffffff00000000010000000000000002000000ffffffff03000000110000007669",
    "64656f2e74696b746f6b762e636f6d0f000000646f63732e676f6f676c652e636f6d17000000cf802e6578616d706c65",
    "2ed8a5d8aed8aad8a8d8a7d8b11300000006000000636c69656e740800000000000000180000000000000025f2f3d3b2",
    "65cd84050000006669727374200000000000000030000000000000001ca10bb797cda6260800000062797465735f7570",
    "50000000000000003000000000000000cced9445a33318750a00000062797465735f646f776e80000000000000003000",
    "000000000000c0d7cc5727fc73220e00000067726f756e645f7274745f617667b0000000000000003000000000000000",
    "3c535321e5d2d2901200000067726f756e645f7274745f73616d706c6573e0000000000000003000000000000000c488",
    "9927188110c70a0000007361745f7274745f6d73100100000000000030000000000000001ce5243379b2aa2008000000",
    "646f776e5f627073400100000000000030000000000000002126e2cb6a9d7fd5050000006475725f7370010000000000",
    "003000000000000000f4b992041d3c369e020000006c37a0010000000000000600000000000000de0da60ebfc54aa507",
    "000000636f756e747279a6010000000000000600000000000000edd90b840631c6930a0000006c6f63616c5f686f7572",
    "ac0100000000000006000000000000004194d7cd08ed257008000000686f75725f757463b20100000000000006000000",
    "00000000e89902dabf92d1df03000000646179b80100000000000018000000000000007595824bd624d2020400000062",
    "65616dd0010000000000000c00000000000000a5e4d75dba4dac680700000073657276696365dc010000000000000c00",
    "0000000000007bd1371e523a379c0800000063617465676f7279e80100000000000006000000000000001d0d6435a89f",
    "469a0a000000646f6d61696e5f696478ee0100000000000018000000000000007eaefd13c7d4ad860b000000646f6d61",
    "696e5f6469637406020000000000004700000000000000da7060375eb426400600000000000000000000000000000000",
    "d243d39972000026000700000053706f7469667907000000596f7574756265070000004e6574666c697803000000536b",
    "790a0000005072696d65766964656f0800000046616365626f6f6b0700000054776974746572080000004c696e6b6564",
    "696e09000000496e7374616772616d0600000054696b746f6b06000000476f6f676c650400000042696e670500000059",
    "61686f6f0a0000004475636b6475636b676f0800000057686174736170700800000054656c656772616d08000000536e",
    "61706368617405000000536b79706506000000576563686174090000004f666669636533363506000000477375697465",
    "0700000044726f70626f780f0000004d6963726f736f66745570646174650b000000427573696e65737356706e080000",
    "00566f697043616c6c0a0000004170706c65496e6672610b000000476f6f676c65496e6672610c00000043706554656c",
    "656d65747279070000004e65746561736502000000515105000000556d656e67080000004b75616973686f750b000000",
    "53636f6f7065724e657773080000005368616c6c7472790a000000436f6e676f4c6f63616c0c0000004e696765726961",
    "4c6f63616c10000000536f7574684166726963614c6f63616c0a00000047656e657269635765629a0400000000000053",
    "57534547007631",
];

const DOMAINS: [Option<&str>; 6] = [
    None,
    Some("video.tiktokv.com"),
    Some("docs.google.com"),
    Some("video.tiktokv.com"),
    Some("π.example.إختبار"),
    None,
];

fn records() -> Vec<FlowRecord> {
    (0..6u8)
        .map(|i| {
            let first = SimTime::from_secs(3_600 * 7 * u64::from(i) + u64::from(i));
            FlowRecord {
                client: Ipv4Addr::new(77, 0, 0, i % 3),
                server: Ipv4Addr::new(198, 18, 0, 1),
                client_port: 50_000 + u16::from(i),
                server_port: 443,
                ip_proto: 6,
                first,
                last: first + SimDuration::from_millis(1_500 * i64::from(i) + 20),
                c2s_packets: 5,
                c2s_bytes: 1_000 + 17 * u64::from(i),
                c2s_payload_bytes: 900,
                s2c_packets: 10,
                s2c_bytes: 6_000_000 + 1_001 * u64::from(i),
                s2c_payload_bytes: 5_000_000,
                c2s_retrans: 0,
                s2c_retrans: 1,
                early: vec![],
                syn_seen: true,
                fin_seen: true,
                rst_seen: false,
                ground_rtt: RttSummary {
                    samples: u64::from(i % 4),
                    min_ms: 11.0,
                    avg_ms: 12.5 + f64::from(i),
                    max_ms: 14.0,
                    std_ms: 1.0,
                },
                s2c_data_first: Some(first + SimDuration::from_millis(5)),
                s2c_data_last: Some(first + SimDuration::from_millis(1_500 * i64::from(i) + 15)),
                sat_rtt_ms: (i % 2 == 0).then_some(601.25 + f64::from(i)),
                l7: L7Protocol::ALL[usize::from(i) % L7Protocol::ALL.len()],
                domain: DOMAINS[usize::from(i)].map(Into::into),
            }
        })
        .collect()
}

fn enrichment() -> Enrichment {
    let mut e = Enrichment { days: 2, ..Default::default() };
    e.country_of.insert(Ipv4Addr::new(77, 0, 0, 1), Country::Congo);
    e.country_of.insert(Ipv4Addr::new(77, 0, 0, 2), Country::Spain);
    e.beam_of.insert(Ipv4Addr::new(77, 0, 0, 1), 3);
    e
}

fn parent_segment() -> Vec<u8> {
    let hex = PARENT_SEGMENT_HEX.concat();
    (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
}

#[test]
fn a_segment_written_before_the_coded_column_reads_and_writes_the_same() {
    let bytes = parent_segment();
    let decoded = decode_segment(&bytes).expect("the previous build's segment decodes");
    // and reads the same off a file, the whole-file checksum checked
    let path = std::env::temp_dir().join(format!("satwatch-segment-fixture-{}.swseg", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let read = read_segment_file(&path, Some(fnv1a(&bytes)));
    std::fs::remove_file(&path).unwrap();
    assert_eq!(encode_segment(&read.expect("the previous build's file reads")), bytes);
    let built = FlowFrame::from_records(&records(), &enrichment());
    assert_eq!(decoded.len(), 6);
    // the coded column holds what the per-row handles held
    assert_eq!(
        decoded.domains.iter().map(|d| &**d).collect::<Vec<_>>(),
        ["video.tiktokv.com", "docs.google.com", "π.example.إختبار"]
    );
    assert_eq!(decoded.domain, [u32::MAX, 0, 1, 0, 2, u32::MAX]);
    for (i, want) in DOMAINS.iter().enumerate() {
        assert_eq!(decoded.domain_at(i), *want, "row {i}");
    }
    // this build writes the very same file, from the decoded frame
    // and from the records
    assert_eq!(encode_segment(&decoded), bytes, "re-encoding the decoded frame");
    assert_eq!(encode_segment(&built), bytes, "encoding the same records afresh");
    // and reports the same from either
    let enr = enrichment();
    let dns: Vec<DnsRecord> = Vec::new();
    let ctx = ReportCtx { enrichment: &enr, countries: &[Country::Congo, Country::Spain] };
    let render = |fr: &FlowFrame| report_all(fr, &dns, ctx, &["Tiktok", "Google"], 1).render_all();
    assert_eq!(render(&decoded), render(&built));
}
