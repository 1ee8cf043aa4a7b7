//! The borrowed probe path against the owning one it replaced.
//!
//! `Probe::observe_wire` parses a frame in place and never builds a
//! `Packet`; the DNS log walks a message without decoding its names
//! into `String`s; `finish` sorts `(key, index)` pairs and permutes the
//! records in place. Each is held here to the simple, allocating way of
//! doing the same thing — `Packet::parse` + `observe`,
//! `DnsMessage::parse`, the stable `sort_by_key` — on inputs a
//! simulator would never produce: frames cut at every length, header
//! bytes mutated, DNS messages with flipped bytes, records with
//! colliding keys.

use bytes::Bytes;
use proptest::prelude::*;
use satwatch_monitor::pcap::{read_pcap, PcapWriter};
use satwatch_monitor::probe::DEFAULT_ANON_SEED;
use satwatch_monitor::record::{EarlyPacket, RttSummary};
use satwatch_monitor::{
    dns_cmp, flow_sort_key, sort_flows_canonical, CryptoPan, DnsRecord, FlowRecord, FlowTableConfig, L7Protocol, Probe,
    ProbeConfig,
};
use satwatch_netstack::dns::{Answer, DnsMessage, RecordType};
use satwatch_netstack::ip::internet_checksum;
use satwatch_netstack::{tls, Packet, PacketView, SeqNum, Subnet, TcpFlags, TcpHeader, TcpOption};
use satwatch_simcore::{SimDuration, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;

fn subnet() -> Subnet {
    Subnet::new(Ipv4Addr::new(10, 0, 0, 0), 8)
}

fn probe() -> Probe {
    Probe::new(ProbeConfig::new(FlowTableConfig::new(subnet())))
}

fn t(ms: i64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

const RESOLVER: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);

fn tcp(src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16), flags: TcpFlags, seq: u32, ack: u32, payload: &[u8]) -> Packet {
    let mut h = TcpHeader::new(src.1, dst.1, flags);
    h.seq = SeqNum(seq);
    h.ack = SeqNum(ack);
    if flags.syn() {
        h.options = vec![TcpOption::Mss(1460), TcpOption::SackPermitted, TcpOption::WindowScale(7)];
    }
    Packet::tcp(src.0, dst.0, h, Bytes::copy_from_slice(payload))
}

/// A few customers' worth of span-port traffic, time-sorted: TLS flows
/// with 1 400-byte segments (longer than any snaplen below), an HTTP
/// flow that closes, UDP both ways, answered and unanswered DNS.
fn traffic() -> Vec<(SimTime, Packet)> {
    let mut pkts = Vec::new();
    for i in 0..8u8 {
        let client = Ipv4Addr::new(10, 3, i % 3 + 1, i + 1);
        let server = Ipv4Addr::new(198, 18, 2, i % 4 + 1);
        let base = i64::from(i) * 40;
        let q = DnsMessage::query(u16::from(i) + 100, "video.example", RecordType::A);
        pkts.push((t(base), Packet::udp(client, RESOLVER, 30_000 + u16::from(i), 53, q.encode())));
        if i % 3 != 0 {
            let r = DnsMessage::answer_a(&q, &[server], 120);
            pkts.push((t(base + 560), Packet::udp(RESOLVER, client, 53, 30_000 + u16::from(i), r.encode())));
        }
        let (c, s) = ((client, 41_000 + u16::from(i)), (server, if i % 4 == 1 { 80 } else { 443 }));
        match i % 4 {
            0 | 2 => {
                // TLS: handshake both ways, then bulk down and ACKs up
                pkts.push((t(base + 600), tcp(c, s, TcpFlags::SYN, 0, 0, &[])));
                pkts.push((t(base + 612), tcp(s, c, TcpFlags::SYN_ACK, 0, 1, &[])));
                let hello = tls::client_hello("video.example", [i; 32]);
                pkts.push((t(base + 613), tcp(c, s, TcpFlags::PSH_ACK, 1, 1, &hello)));
                let mut flight = tls::server_hello([i; 32]).to_vec();
                flight.extend_from_slice(&tls::certificate(900, i));
                flight.extend_from_slice(&tls::server_hello_done());
                pkts.push((t(base + 630), tcp(s, c, TcpFlags::PSH_ACK, 1, 1 + hello.len() as u32, &flight)));
                let mut reply = tls::client_key_exchange(i).to_vec();
                reply.extend_from_slice(&tls::change_cipher_spec());
                let up = 1 + hello.len() as u32;
                pkts.push((t(base + 1_230), tcp(c, s, TcpFlags::PSH_ACK, up, 1 + flight.len() as u32, &reply)));
                let mut down = 1 + flight.len() as u32;
                for k in 0..12 {
                    let body = tls::application_data(1_395, k);
                    pkts.push((t(base + 1_300 + i64::from(k) * 3), tcp(s, c, TcpFlags::PSH_ACK, down, up, &body)));
                    down += body.len() as u32;
                    pkts.push((t(base + 1_301 + i64::from(k) * 3), tcp(c, s, TcpFlags::ACK, up, down, &[])));
                }
            }
            1 => {
                // HTTP, closed by FIN both ways
                pkts.push((t(base + 600), tcp(c, s, TcpFlags::SYN, 0, 0, &[])));
                pkts.push((t(base + 612), tcp(s, c, TcpFlags::SYN_ACK, 0, 1, &[])));
                let req = satwatch_netstack::http::get_request("www.example", "/", "ua");
                pkts.push((t(base + 613), tcp(c, s, TcpFlags::PSH_ACK, 1, 1, &req)));
                let mut resp = satwatch_netstack::http::ok_response(3_000, "text/html").to_vec();
                resp.resize(resp.len() + 1_200, b'x');
                pkts.push((t(base + 640), tcp(s, c, TcpFlags::PSH_ACK, 1, 1 + req.len() as u32, &resp)));
                pkts.push((t(base + 700), tcp(c, s, TcpFlags::FIN_ACK, 1 + req.len() as u32, 0, &[])));
                pkts.push((t(base + 712), tcp(s, c, TcpFlags::FIN_ACK, 1 + resp.len() as u32, 0, &[])));
            }
            _ => {
                pkts.push((t(base + 600), Packet::udp(c.0, s.0, c.1, 443, Bytes::from(vec![7; 120]))));
                pkts.push((t(base + 1_160), Packet::udp(s.0, c.0, 443, c.1, Bytes::from(vec![7; 1_200]))));
            }
        }
    }
    pkts.sort_by_key(|(time, _)| *time);
    pkts
}

/// The satellite bugfix: a capture's snaplen must not change what a
/// flow is accounted. Tstat counts `ip.total_len`; so does the probe.
#[test]
fn snapped_capture_accounts_the_same_bytes_as_a_full_one() {
    let capture = |snaplen: u32| {
        let mut file = Vec::new();
        let mut w = PcapWriter::new(&mut file, snaplen).unwrap();
        for (time, pkt) in traffic() {
            w.write(time, &pkt).unwrap();
        }
        let mut p = probe();
        let frames = read_pcap(&file[..]).unwrap();
        for f in &frames {
            p.observe_wire(f.t, &f.data);
        }
        assert_eq!(p.parse_errors, 0);
        let cut = frames.iter().filter(|f| f.data.len() < f.orig_len as usize).count();
        (p.finish().0, cut)
    };
    let (full, cut_full) = capture(65_535);
    assert_eq!(cut_full, 0);
    for snaplen in [256, 96, 54] {
        let (snapped, cut) = capture(snaplen);
        assert!(cut > 50, "snaplen {snaplen} must cut the data segments");
        assert_eq!(snapped.len(), full.len());
        for (s, f) in snapped.iter().zip(&full) {
            assert_eq!(flow_sort_key(s), flow_sort_key(f));
            assert_eq!(
                (s.c2s_packets, s.c2s_bytes, s.c2s_payload_bytes, s.s2c_packets, s.s2c_bytes, s.s2c_payload_bytes),
                (f.c2s_packets, f.c2s_bytes, f.c2s_payload_bytes, f.s2c_packets, f.s2c_bytes, f.s2c_payload_bytes),
                "snaplen {snaplen}, flow {:?}",
                flow_sort_key(f)
            );
            assert_eq!(s.early, f.early, "snaplen {snaplen}: early-packet sizes are wire sizes");
            assert_eq!((s.s2c_data_first, s.s2c_data_last), (f.s2c_data_first, f.s2c_data_last));
        }
    }
    // full frames: the wire path still equals the parsed path, bytes and all
    let mut parsed = probe();
    for (time, pkt) in traffic() {
        parsed.observe(time, &pkt);
    }
    assert_eq!(parsed.finish().0, full);
}

/// Zero the fields that account lengths: on a frame whose header says
/// more than the buffer holds (or whose header a mutation made longer
/// than its re-encoding) the wire path counts the header's lengths and
/// `Packet::parse` + `observe` the buffer's. That difference is the
/// snaplen fix; everything else must agree.
fn without_lengths(mut flows: Vec<FlowRecord>) -> Vec<FlowRecord> {
    for f in &mut flows {
        (f.c2s_bytes, f.s2c_bytes, f.c2s_payload_bytes, f.s2c_payload_bytes) = (0, 0, 0, 0);
        (f.s2c_data_first, f.s2c_data_last) = (None, None);
        f.early.iter_mut().for_each(|e| e.wire_len = 0);
    }
    flows
}

fn flow_record(first_ns: u64, client: u8, cport: u16, tcp: bool, tag: u64) -> FlowRecord {
    FlowRecord {
        client: Ipv4Addr::new(10, 0, 0, client),
        server: Ipv4Addr::new(198, 18, 0, 1),
        client_port: cport,
        server_port: 443,
        ip_proto: if tcp { 6 } else { 17 },
        first: SimTime::from_nanos(first_ns),
        last: SimTime::from_nanos(first_ns + 5),
        // where the record stood in the input: ties must keep this order
        c2s_packets: tag,
        c2s_bytes: 0,
        c2s_payload_bytes: 0,
        s2c_packets: 0,
        s2c_bytes: 0,
        s2c_payload_bytes: 0,
        c2s_retrans: 0,
        s2c_retrans: 0,
        early: vec![EarlyPacket { offset_ms: 0.0, wire_len: 60, c2s: true }],
        syn_seen: tcp,
        fin_seen: false,
        rst_seen: false,
        ground_rtt: RttSummary::default(),
        s2c_data_first: None,
        s2c_data_last: None,
        sat_rtt_ms: None,
        l7: L7Protocol::OtherUdp,
        domain: None,
    }
}

/// What the probe's DNS log did before it walked messages in place:
/// `DnsMessage::parse`, owned names, all answers collected.
#[derive(Default)]
struct OwnedDnsLog {
    pending: HashMap<(Ipv4Addr, Ipv4Addr, u16), (String, SimTime)>,
    log: Vec<DnsRecord>,
}

impl OwnedDnsLog {
    fn on_udp(&mut self, at: SimTime, src: Ipv4Addr, dst: Ipv4Addr, sport: u16, dport: u16, payload: &[u8]) {
        if dport != 53 && sport != 53 {
            return;
        }
        let Ok(msg) = DnsMessage::parse(payload) else { return };
        if !msg.is_response && dport == 53 {
            if subnet().contains(src) && !subnet().contains(dst) {
                let name = msg.question.map(|(n, _)| n).unwrap_or_default();
                self.pending.insert((src, dst, msg.id), (name, at));
            }
        } else if msg.is_response && sport == 53 {
            if let Some((name, asked_at)) = self.pending.remove(&(dst, src, msg.id)) {
                let answers = msg
                    .answers
                    .iter()
                    .filter_map(|a| match a {
                        Answer::A { addr, .. } => Some(*addr),
                        _ => None,
                    })
                    .collect();
                self.push(dst, src, &name, asked_at, Some((at - asked_at).as_millis_f64().max(0.0)), answers);
            }
        }
    }

    fn push(&mut self, client: Ipv4Addr, resolver: Ipv4Addr, q: &str, ts: SimTime, ms: Option<f64>, a: Vec<Ipv4Addr>) {
        let client = CryptoPan::new(DEFAULT_ANON_SEED).anonymize(client);
        self.log.push(DnsRecord { client, resolver, query: q.into(), ts, response_ms: ms, answers: a });
    }

    fn finish(mut self) -> Vec<DnsRecord> {
        let mut left: Vec<_> = std::mem::take(&mut self.pending).into_iter().collect();
        left.sort_by_key(|((client, _, id), (_, asked_at))| (*asked_at, *client, *id));
        for ((client, resolver, _), (name, asked_at)) in left {
            self.push(client, resolver, &name, asked_at, None, Vec::new());
        }
        self.log.sort_by(dns_cmp);
        self.log
    }
}

proptest! {
    #[test]
    fn canonical_sort_equals_the_stable_sort(
        keys in proptest::collection::vec((0u64..4, 0u8..3, 0u16..2, any::<bool>()), 0..120)
    ) {
        // few distinct values per field: most keys collide
        let flows: Vec<FlowRecord> =
            keys.iter().enumerate().map(|(i, &(first, client, cport, tcp))| flow_record(first, client, cport, tcp, i as u64)).collect();
        let mut want = flows.clone();
        want.sort_by_key(flow_sort_key);
        let mut got = flows;
        sort_flows_canonical(&mut got);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn observe_wire_equals_parse_then_observe_on_cut_and_mutated_frames(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let (mut wire, mut parsed) = (probe(), probe());
        let mut divergent = false;
        let (mut header_bytes, mut header_payload) = (0u64, 0u64);
        for (time, pkt) in traffic() {
            let mut frame = pkt.encode().to_vec();
            if rng.below(4) == 0 {
                // a mutated header byte, half the time under a valid checksum
                let at = rng.below(frame.len().min(44) as u64) as usize;
                frame[at] ^= 1 << rng.below(8);
                if rng.below(2) == 0 && at < 20 && at != 0 {
                    frame[10..12].fill(0);
                    let sum = internet_checksum(&frame[..20]);
                    frame[10..12].copy_from_slice(&sum.to_be_bytes());
                }
            }
            if rng.below(3) == 0 {
                frame.truncate(rng.below(frame.len() as u64 + 1) as usize);
            }
            wire.observe_wire(time, &frame);
            match Packet::parse(&frame) {
                Ok(p) => {
                    parsed.observe(time, &p);
                    let v = PacketView::parse(&frame).expect("the view parses what the packet parser does");
                    divergent |= (v.wire_len(), v.payload_len()) != (p.wire_len(), p.payload_len());
                    if subnet().contains(p.ip.src) != subnet().contains(p.ip.dst) {
                        header_bytes += u64::from(p.ip.total_len);
                        header_payload += v.payload_len() as u64;
                    }
                }
                Err(e) => {
                    prop_assert_eq!(PacketView::parse(&frame).unwrap_err(), e);
                    parsed.packets += 1;
                    parsed.parse_errors += 1;
                }
            }
        }
        prop_assert_eq!((wire.packets, wire.parse_errors), (parsed.packets, parsed.parse_errors));
        let ((wire_flows, wire_dns), (parsed_flows, parsed_dns)) = (wire.finish(), parsed.finish());
        prop_assert_eq!(wire_dns, parsed_dns);
        // the wire path accounts what the IP headers say, always
        prop_assert_eq!(wire_flows.iter().map(|f| f.c2s_bytes + f.s2c_bytes).sum::<u64>(), header_bytes);
        prop_assert_eq!(wire_flows.iter().map(|f| f.c2s_payload_bytes + f.s2c_payload_bytes).sum::<u64>(), header_payload);
        if divergent {
            prop_assert_eq!(without_lengths(wire_flows), without_lengths(parsed_flows));
        } else {
            prop_assert_eq!(wire_flows, parsed_flows);
        }
    }

    #[test]
    fn dns_log_equals_the_owned_parse_under_byte_flips(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let names = ["a.example", "video.cdn.example.net", "x.y.z.example.org", ""];
        let mut p = probe();
        let mut reference = OwnedDnsLog::default();
        for i in 0..60u16 {
            let client = Ipv4Addr::new(10, 9, 0, 1 + (i / 2 % 5) as u8);
            let q = DnsMessage::query(i / 2, names[rng.below(4) as usize], [RecordType::A, RecordType::Aaaa][rng.below(2) as usize]);
            let (msg, query) = if i % 2 == 0 {
                (q, true)
            } else {
                let addrs: Vec<Ipv4Addr> = (0..rng.below(4)).map(|k| Ipv4Addr::new(198, 18, 7, k as u8)).collect();
                let mut r = DnsMessage::answer_a(&q, &addrs, 60);
                if rng.below(3) == 0 {
                    let name = r.question.as_ref().unwrap().0.clone();
                    r.answers.insert(0, Answer::Cname { name, target: "edge.example.net".into(), ttl: 60 });
                }
                (r, false)
            };
            let mut wire = msg.encode().to_vec();
            for _ in 0..[0, 0, 1, 3][rng.below(4) as usize] {
                let at = rng.below(wire.len() as u64) as usize;
                wire[at] ^= 1 << rng.below(8);
            }
            if rng.below(6) == 0 {
                wire.truncate(rng.below(wire.len() as u64 + 1) as usize);
            }
            let (src, dst, sport, dport) =
                if query { (client, RESOLVER, 40_000, 53) } else { (RESOLVER, client, 53, 40_000) };
            let at = t(i64::from(i) * 7);
            reference.on_udp(at, src, dst, sport, dport, &wire);
            p.observe(at, &Packet::udp(src, dst, sport, dport, Bytes::from(wire)));
        }
        let want = reference.finish();
        prop_assert!(want.iter().any(|d| d.response_ms.is_some()), "some transaction must complete");
        prop_assert_eq!(p.finish().1, want);
    }
}
