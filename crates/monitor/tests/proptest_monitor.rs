//! Property tests for the passive monitor: conservation laws on the
//! flow table, prefix preservation of the anonymizer over random
//! address pairs, TSV round trips of arbitrary records, and the
//! sealer's pieces against the sort of the whole capture.

use bytes::Bytes;
use proptest::prelude::*;
use satwatch_monitor::anon::CryptoPan;
use satwatch_monitor::record::{read_flows, write_flows, EarlyPacket, FlowRecord, RttSummary};
use satwatch_monitor::{
    dns_cmp, sort_flows_canonical, DnsRecord, FlowTable, FlowTableConfig, L7Protocol, SealMarks, Sealer,
};
use satwatch_netstack::ip::common_prefix_len;
use satwatch_netstack::{Packet, Subnet};
use satwatch_simcore::SimTime;
use std::net::Ipv4Addr;

fn cfg() -> FlowTableConfig {
    FlowTableConfig::new(Subnet::new(Ipv4Addr::new(10, 0, 0, 0), 8))
}

proptest! {
    #[test]
    fn flowtable_conserves_bytes_and_packets(
        sizes in proptest::collection::vec(0usize..2_000, 1..60),
        dirs in proptest::collection::vec(any::<bool>(), 60)
    ) {
        let client = Ipv4Addr::new(10, 3, 3, 3);
        let server = Ipv4Addr::new(198, 18, 9, 9);
        let mut table = FlowTable::new(cfg());
        let mut c2s = (0u64, 0u64);
        let mut s2c = (0u64, 0u64);
        for (i, &len) in sizes.iter().enumerate() {
            let payload = Bytes::from(vec![0u8; len]);
            let pkt = if dirs[i % dirs.len()] {
                c2s.0 += 1;
                c2s.1 += (20 + 8 + len) as u64;
                Packet::udp(client, server, 5000, 9000, payload)
            } else {
                s2c.0 += 1;
                s2c.1 += (20 + 8 + len) as u64;
                Packet::udp(server, client, 9000, 5000, payload)
            };
            table.process(SimTime::from_nanos(i as u64 * 1_000), &pkt);
        }
        let recs = table.flush();
        prop_assert_eq!(recs.len(), 1);
        let r = &recs[0];
        prop_assert_eq!((r.c2s_packets, r.c2s_bytes), c2s);
        prop_assert_eq!((r.s2c_packets, r.s2c_bytes), s2c);
        prop_assert!(r.last >= r.first);
        prop_assert!(r.early.len() <= 10);
    }

    #[test]
    fn cryptopan_preserves_prefixes_randomly(a in any::<u32>(), b in any::<u32>(), key in any::<u64>()) {
        let pan = CryptoPan::new(key);
        let (x, y) = (Ipv4Addr::from(a), Ipv4Addr::from(b));
        let k = common_prefix_len(x, y);
        let (ax, ay) = (pan.anonymize(x), pan.anonymize(y));
        prop_assert_eq!(common_prefix_len(ax, ay), k);
    }

    #[test]
    fn cryptopan_is_injective_on_samples(addrs in proptest::collection::hash_set(any::<u32>(), 2..200),
                                         key in any::<u64>()) {
        let pan = CryptoPan::new(key);
        let mut out = std::collections::HashSet::new();
        for &a in &addrs {
            prop_assert!(out.insert(pan.anonymize(Ipv4Addr::from(a))));
        }
    }

    #[test]
    fn tsv_round_trip_arbitrary_records(
        client in any::<u32>(), server in any::<u32>(),
        cport in any::<u16>(), sport in any::<u16>(),
        tcp in any::<bool>(),
        first_ns in 0u64..(10u64 * 86_400 * 1_000_000_000),
        dur_ns in 0u64..3_600_000_000_000u64,
        c2s_bytes in any::<u32>(), s2c_bytes in any::<u32>(),
        rtx in 0u64..50,
        sat in proptest::option::of(500.0f64..5_000.0),
        domain in proptest::option::of("[a-z]{1,12}\\.[a-z]{2,8}")
    ) {
        let first = SimTime::from_nanos(first_ns);
        let rec = FlowRecord {
            client: Ipv4Addr::from(client),
            server: Ipv4Addr::from(server),
            client_port: cport,
            server_port: sport,
            ip_proto: if tcp { 6 } else { 17 },
            first,
            last: SimTime::from_nanos(first_ns + dur_ns),
            c2s_packets: 3,
            c2s_bytes: u64::from(c2s_bytes),
            c2s_payload_bytes: u64::from(c2s_bytes) / 2,
            s2c_packets: 5,
            s2c_bytes: u64::from(s2c_bytes),
            s2c_payload_bytes: u64::from(s2c_bytes) / 2,
            c2s_retrans: rtx,
            s2c_retrans: rtx / 2,
            early: vec![EarlyPacket { offset_ms: 0.0, wire_len: 60, c2s: true }],
            syn_seen: tcp,
            fin_seen: tcp,
            rst_seen: false,
            ground_rtt: RttSummary { samples: 2, min_ms: 10.0, avg_ms: 11.0, max_ms: 12.0, std_ms: 1.0 },
            s2c_data_first: Some(first),
            s2c_data_last: Some(SimTime::from_nanos(first_ns + dur_ns)),
            sat_rtt_ms: sat,
            l7: if tcp { L7Protocol::TlsHttps } else { L7Protocol::OtherUdp },
            domain: domain.map(Into::into),
        };
        let mut buf = Vec::new();
        write_flows(&mut buf, std::slice::from_ref(&rec)).unwrap();
        let back = read_flows(std::io::BufReader::new(&buf[..])).unwrap();
        prop_assert_eq!(back.len(), 1);
        let b = &back[0];
        prop_assert_eq!(b.client, rec.client);
        prop_assert_eq!(b.server, rec.server);
        prop_assert_eq!(b.first, rec.first);
        prop_assert_eq!(b.last, rec.last);
        prop_assert_eq!(b.c2s_bytes, rec.c2s_bytes);
        prop_assert_eq!(b.c2s_retrans, rec.c2s_retrans);
        prop_assert_eq!(b.l7, rec.l7);
        prop_assert_eq!(&b.domain, &rec.domain);
        match (b.sat_rtt_ms, rec.sat_rtt_ms) {
            (Some(x), Some(y)) => prop_assert!((x - y).abs() < 0.001),
            (None, None) => {}
            other => prop_assert!(false, "{:?}", other),
        }
    }

    #[test]
    fn sni_survives_arbitrary_segmentation(
        cuts in proptest::collection::btree_set(1usize..180, 0..6),
        swap_first_pair in any::<bool>(),
    ) {
        use satwatch_netstack::tcp::{SeqNum, TcpFlags, TcpHeader};
        use satwatch_netstack::tls;
        // a ClientHello split at arbitrary cut points must still yield
        // its SNI, even with the first two segments swapped
        let ch = tls::client_hello("prop.whatsapp.net", [6; 32]);
        let mut points: Vec<usize> = cuts.into_iter().filter(|&c| c < ch.len()).collect();
        points.push(ch.len());
        points.sort_unstable();
        points.dedup();
        let mut segments = Vec::new();
        let mut start = 0usize;
        for &end in &points {
            if end > start {
                segments.push((start, ch.slice(start..end)));
                start = end;
            }
        }
        if swap_first_pair && segments.len() >= 2 {
            segments.swap(0, 1);
        }
        let client = Ipv4Addr::new(10, 2, 2, 2);
        let server = Ipv4Addr::new(198, 18, 5, 5);
        let mut table = FlowTable::new(cfg());
        // SYN anchors the ISN at 100 (first payload byte = 101)
        let syn = Packet::tcp(client, server, TcpHeader::new(50_002, 443, TcpFlags::SYN), Bytes::new());
        let mut syn = syn;
        if let satwatch_netstack::Transport::Tcp(h) = &mut syn.transport {
            h.seq = SeqNum(100);
        }
        table.process(SimTime::from_nanos(0), &syn);
        for (i, (off, seg)) in segments.iter().enumerate() {
            let mut h = TcpHeader::new(50_002, 443, TcpFlags::PSH_ACK);
            h.seq = SeqNum(101 + *off as u32);
            let pkt = Packet::tcp(client, server, h, seg.clone());
            table.process(SimTime::from_nanos(1_000 + i as u64), &pkt);
        }
        let recs = table.flush();
        prop_assert_eq!(recs.len(), 1);
        prop_assert_eq!(recs[0].domain.as_deref(), Some("prop.whatsapp.net"));
        prop_assert_eq!(recs[0].l7, L7Protocol::TlsHttps);
    }

    /// Rows of both logs arrive in any order on a grid coarse enough
    /// that canonical keys repeat and a mark often equals a row's
    /// timestamp; after any arrival the sealer may be sealed at any
    /// mark finality allows (none later than a row still to come —
    /// in no particular order otherwise, and not the same for the two
    /// logs). The pieces, concatenated, are the stable canonical sort
    /// of everything that arrived: `c2s_bytes` / `response_ms` number
    /// the arrivals, so a tie reordered, or a row at the mark sealed
    /// ahead of a later one that sorts before it, fails.
    #[test]
    fn sealed_pieces_concatenate_to_the_canonical_order_under_any_legal_marks(
        rows in proptest::collection::vec((0u64..30, 0u8..3), 0..160),
        marks in proptest::collection::vec(proptest::option::of(0u64..=30), 1..40),
    ) {
        const SLOT: u64 = 600;
        let flows: Vec<FlowRecord> = rows
            .iter()
            .enumerate()
            .map(|(i, &(slot, host))| FlowRecord {
                client: Ipv4Addr::new(77, 0, 0, host),
                server: Ipv4Addr::new(198, 18, 0, 1),
                client_port: 50_000,
                server_port: 443,
                ip_proto: 6,
                first: SimTime::from_secs(slot * SLOT),
                last: SimTime::from_secs(slot * SLOT + 1),
                c2s_packets: 1,
                c2s_bytes: i as u64,
                c2s_payload_bytes: 0,
                s2c_packets: 0,
                s2c_bytes: 0,
                s2c_payload_bytes: 0,
                c2s_retrans: 0,
                s2c_retrans: 0,
                early: Vec::new(),
                syn_seen: true,
                fin_seen: false,
                rst_seen: false,
                ground_rtt: RttSummary::default(),
                s2c_data_first: None,
                s2c_data_last: None,
                sat_rtt_ms: None,
                l7: L7Protocol::OtherTcp,
                domain: None,
            })
            .collect();
        let dns: Vec<DnsRecord> = rows
            .iter()
            .enumerate()
            .map(|(i, &(slot, host))| DnsRecord {
                client: Ipv4Addr::new(77, 0, 0, host),
                resolver: Ipv4Addr::new(8, 8, 8, 8),
                query: "example.org".into(),
                ts: SimTime::from_secs(slot * SLOT),
                response_ms: Some(i as f64),
                answers: Vec::new(),
            })
            .collect();
        // the earliest slot among the rows arriving after row `i`
        let mut to_come = vec![u64::MAX; rows.len() + 1];
        for i in (0..rows.len()).rev() {
            to_come[i] = to_come[i + 1].min(rows[i].0);
        }
        let legal = |i: usize, at: usize| marks[at % marks.len()].map(|m| SimTime::from_secs(m.min(to_come[i + 1]) * SLOT));
        let mut sealer = Sealer::default();
        let (mut got_flows, mut got_dns) = (Vec::new(), Vec::new());
        for i in 0..=rows.len() {
            let marks = if i < rows.len() {
                sealer.log_flow(flows[i].clone());
                sealer.log_dns(dns[i].clone());
                let Some((flows, dns)) = legal(i, i).zip(legal(i, i + 1)) else { continue };
                Some(SealMarks { flows, dns })
            } else {
                None
            };
            let piece = sealer.seal(marks);
            got_flows.extend(piece.flows);
            got_dns.extend(piece.dns);
        }
        let (mut want_flows, mut want_dns) = (flows, dns);
        sort_flows_canonical(&mut want_flows);
        want_dns.sort_by(dns_cmp);
        prop_assert_eq!(got_flows, want_flows);
        prop_assert_eq!(got_dns, want_dns);
        prop_assert_eq!(sealer.unsealed(), (&[][..], &[][..]));
    }

    #[test]
    fn probe_never_panics_on_arbitrary_wire_bytes(
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 1..50)
    ) {
        let mut probe = satwatch_monitor::Probe::new(satwatch_monitor::ProbeConfig::new(cfg()));
        for (i, frame) in frames.iter().enumerate() {
            probe.observe_wire(SimTime::from_nanos(i as u64), frame);
        }
        let _ = probe.finish();
    }
}
