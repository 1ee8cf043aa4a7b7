//! `Probe::observe` vs `Probe::observe_wire` equivalence.
//!
//! The scenario pipeline hands the probe parsed [`Packet`]s; a real
//! deployment feeds it raw span-port bytes through `observe_wire`.
//! Both entry points must produce identical `FlowRecord`/`DnsRecord`
//! output for the same stream — the wire path re-parses what the
//! encoder wrote, so any encode/parse asymmetry (a dropped TCP
//! option, a mangled DNS name, a truncated TLS record) shows up here
//! as a record diff rather than only as a parse-error count.

use bytes::Bytes;
use satwatch_monitor::flowtable::FlowTableConfig;
use satwatch_monitor::{Probe, ProbeConfig};
use satwatch_netstack::dns::{DnsMessage, RecordType};
use satwatch_netstack::{tls, Packet, SeqNum, Subnet, TcpFlags, TcpHeader};
use satwatch_simcore::{SimDuration, SimTime};
use std::net::Ipv4Addr;

fn probe() -> Probe {
    Probe::new(ProbeConfig::new(FlowTableConfig::new(Subnet::new(Ipv4Addr::new(10, 0, 0, 0), 8))))
}

fn t(ms: i64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

fn tcp(src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16), flags: TcpFlags, seq: u32, ack: u32, payload: &[u8]) -> Packet {
    let mut h = TcpHeader::new(src.1, dst.1, flags);
    h.seq = SeqNum(seq);
    h.ack = SeqNum(ack);
    Packet::tcp(src.0, dst.0, h, Bytes::copy_from_slice(payload))
}

/// A stream covering every record-producing path: TLS-over-TCP with
/// SNI, plain UDP both directions, answered and unanswered DNS, and
/// an idle gap long enough to trigger flow sweeps.
fn stream() -> Vec<(SimTime, Packet)> {
    let mut pkts = Vec::new();
    let resolver = Ipv4Addr::new(8, 8, 8, 8);
    for i in 0..24u8 {
        let client = Ipv4Addr::new(10, 3, (i % 6) + 1, i + 1);
        let server = Ipv4Addr::new(198, 18, 2, (i % 4) + 1);
        let sp = 41_000 + u16::from(i);
        let base = i64::from(i) * 40;

        // DNS lookup first; every third query goes unanswered.
        let q = DnsMessage::query(u16::from(i) + 100, "video.example", RecordType::A);
        pkts.push((t(base), Packet::udp(client, resolver, 30_000 + u16::from(i), 53, q.encode())));
        if i % 3 != 0 {
            let r = DnsMessage::answer_a(&q, &[server], 120);
            pkts.push((t(base + 560), Packet::udp(resolver, client, 53, 30_000 + u16::from(i), r.encode())));
        }

        if i % 2 == 0 {
            // TLS over TCP: handshake, ClientHello with SNI, response.
            let (c, s) = ((client, sp), (server, 443));
            pkts.push((t(base + 600), tcp(c, s, TcpFlags::SYN, 0, 0, &[])));
            pkts.push((t(base + 1160), tcp(s, c, TcpFlags::SYN_ACK, 0, 1, &[])));
            let hello = tls::client_hello("video.example", [i; 32]);
            pkts.push((t(base + 1170), tcp(c, s, TcpFlags::PSH_ACK, 1, 1, &hello)));
            let reply = tls::record(tls::ContentType::ApplicationData, &[0xaa; 400]);
            pkts.push((t(base + 1730), tcp(s, c, TcpFlags::PSH_ACK, 1, 1 + hello.len() as u32, &reply)));
        } else {
            // Plain UDP exchange.
            pkts.push((t(base + 600), Packet::udp(client, server, sp, 443, Bytes::from_static(&[7; 120]))));
            pkts.push((t(base + 1160), Packet::udp(server, client, 443, sp, Bytes::from_static(&[7; 1000]))));
        }
    }
    // Idle gap, then fresh traffic so the periodic sweep fires and
    // evicts the flows above through both entry points identically.
    for i in 0..6u8 {
        let client = Ipv4Addr::new(10, 4, 0, i + 1);
        pkts.push((
            t(500_000 + i64::from(i) * 15),
            Packet::udp(client, Ipv4Addr::new(198, 18, 3, 1), 999, 80, Bytes::from_static(&[1; 60])),
        ));
    }
    pkts.sort_by_key(|(time, _)| *time);
    pkts
}

#[test]
fn observe_and_observe_wire_produce_identical_records() {
    let mut parsed = probe();
    let mut wire = probe();
    for (time, pkt) in stream() {
        parsed.observe(time, &pkt);
        wire.observe_wire(time, &pkt.encode());
    }
    assert_eq!(parsed.packets, wire.packets);
    assert_eq!(wire.parse_errors, 0, "encoded packets must re-parse cleanly");

    let (flows_p, dns_p) = parsed.finish();
    let (flows_w, dns_w) = wire.finish();
    assert!(!flows_p.is_empty() && !dns_p.is_empty(), "stream must exercise both record kinds");
    assert!(flows_p.iter().any(|f| f.domain.is_some()), "stream must exercise the SNI path");
    assert_eq!(flows_p, flows_w, "flow records differ between parsed and wire paths");
    assert_eq!(dns_p, dns_w, "dns records differ between parsed and wire paths");
}
