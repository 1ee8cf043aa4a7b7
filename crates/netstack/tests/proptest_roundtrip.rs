//! Property tests: every encoder/parser pair in the netstack crate
//! must round-trip arbitrary valid inputs, and parsers must never
//! panic on arbitrary bytes (the monitor feeds them raw traffic).

use bytes::Bytes;
use proptest::prelude::*;
use satwatch_netstack::dns::{self, Answer, DnsHeader, DnsMessage, RecordType};
use satwatch_netstack::ip::{common_prefix_len, internet_checksum, Ipv4Header, Subnet};
use satwatch_netstack::packet::{Packet, PacketView, Transport};
use satwatch_netstack::quic;
use satwatch_netstack::tcp::{SeqNum, TcpFlags, TcpHeader, TcpOption};
use satwatch_netstack::tls;
use satwatch_netstack::udp::UdpHeader;
use std::net::Ipv4Addr;

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_domain() -> impl Strategy<Value = String> {
    // 1-4 labels of [a-z0-9-]{1,12}
    proptest::collection::vec("[a-z0-9][a-z0-9-]{0,11}", 1..5).prop_map(|labels| labels.join("."))
}

fn arb_tcp_options() -> impl Strategy<Value = Vec<TcpOption>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u16>().prop_map(TcpOption::Mss),
            (0u8..15).prop_map(TcpOption::WindowScale),
            Just(TcpOption::SackPermitted),
            (any::<u32>(), any::<u32>()).prop_map(|(tsval, tsecr)| TcpOption::Timestamps { tsval, tsecr }),
        ],
        0..4,
    )
}

proptest! {
    #[test]
    fn ipv4_round_trip(src in arb_addr(), dst in arb_addr(), proto in 0u8..255, ttl in 1u8..255,
                       id in any::<u16>(), dscp in 0u8..63, total in 20u16..1500) {
        let hdr = Ipv4Header { src, dst, protocol: proto, ttl, identification: id, dscp, total_len: total };
        let (parsed, used) = Ipv4Header::parse(&hdr.encode()).unwrap();
        prop_assert_eq!(used, 20);
        prop_assert_eq!(parsed, hdr);
    }

    #[test]
    fn ipv4_checksum_of_valid_header_is_zero(src in arb_addr(), dst in arb_addr()) {
        let wire = Ipv4Header::new(src, dst, 6, 100).encode();
        prop_assert_eq!(internet_checksum(&wire), 0);
    }

    #[test]
    fn ipv4_parse_never_panics(buf in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Ipv4Header::parse(&buf);
    }

    #[test]
    fn tcp_round_trip(sport in any::<u16>(), dport in any::<u16>(), seq in any::<u32>(),
                      ack in any::<u32>(), flags in 0u8..64, window in any::<u16>(),
                      options in arb_tcp_options()) {
        let hdr = TcpHeader {
            src_port: sport, dst_port: dport,
            seq: SeqNum(seq), ack: SeqNum(ack),
            flags: TcpFlags(flags), window, options,
        };
        let wire = hdr.encode();
        prop_assert_eq!(wire.len() % 4, 0);
        let (parsed, used) = TcpHeader::parse(&wire).unwrap();
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(parsed, hdr);
    }

    #[test]
    fn tcp_parse_never_panics(buf in proptest::collection::vec(any::<u8>(), 0..80)) {
        let _ = TcpHeader::parse(&buf);
    }

    #[test]
    fn seq_space_total_order_locally(a in any::<u32>(), delta in 1u32..0x3fff_ffff) {
        let s = SeqNum(a);
        let t = s + delta;
        prop_assert!(t.after(s));
        prop_assert!(!s.after(t));
        prop_assert_eq!(t.distance(s), delta as i32);
    }

    #[test]
    fn udp_round_trip(sport in any::<u16>(), dport in any::<u16>(), plen in 0usize..1400) {
        let hdr = UdpHeader::new(sport, dport, plen);
        let (parsed, _) = UdpHeader::parse(&hdr.encode()).unwrap();
        prop_assert_eq!(parsed, hdr);
    }

    #[test]
    fn tls_sni_round_trip(sni in arb_domain(), random in any::<[u8; 32]>()) {
        let wire = tls::client_hello(&sni, random);
        let (rec, _) = tls::parse_record(&wire).unwrap();
        prop_assert_eq!(tls::extract_sni(rec.body), Some(sni));
    }

    #[test]
    fn tls_parsers_never_panic(buf in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = tls::parse_record(&buf);
        let _ = tls::extract_sni(&buf);
        let _ = tls::handshake_type(&buf);
    }

    #[test]
    fn dns_query_round_trip(id in any::<u16>(), name in arb_domain()) {
        let q = DnsMessage::query(id, &name, RecordType::A);
        prop_assert_eq!(DnsMessage::parse(&q.encode()).unwrap(), q);
    }

    #[test]
    fn dns_in_place_writers_match_the_message_encoder(id in any::<u16>(), name in arb_domain(), addr in arb_addr(),
                                                      ttl in any::<u32>(), prefix in proptest::collection::vec(any::<u8>(), 0..40)) {
        // what already sits in the arena before the message must not matter
        let q = DnsMessage::query(id, &name, RecordType::A);
        let (mut want, mut got) = (prefix.clone(), prefix.clone());
        q.encode_into(&mut want);
        dns::write_a_query(&mut got, id, &name);
        prop_assert_eq!(&got, &want);
        DnsMessage::answer_a(&q, &[addr], ttl).encode_into(&mut want);
        dns::write_a_answer(&mut got, id, &name, addr, ttl);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn dns_response_round_trip(id in any::<u16>(), name in arb_domain(),
                               addrs in proptest::collection::vec(arb_addr(), 1..6), ttl in any::<u32>()) {
        let q = DnsMessage::query(id, &name, RecordType::A);
        let r = DnsMessage::answer_a(&q, &addrs, ttl);
        let parsed = DnsMessage::parse(&r.encode()).unwrap();
        prop_assert_eq!(parsed.answers.len(), addrs.len());
        for (ans, want) in parsed.answers.iter().zip(&addrs) {
            match ans {
                Answer::A { name: n, addr, ttl: t } => {
                    prop_assert_eq!(n, &name);
                    prop_assert_eq!(addr, want);
                    prop_assert_eq!(*t, ttl);
                }
                other => prop_assert!(false, "unexpected answer {:?}", other),
            }
        }
    }

    #[test]
    fn dns_parse_never_panics(buf in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = DnsMessage::parse(&buf);
    }

    /// The in-place walk the monitor's DNS log uses must accept and
    /// reject exactly what the owning parser does, with the same error,
    /// and see the same id, question name and A addresses — also on a
    /// message with flipped bytes, a cut tail, or no shape at all.
    #[test]
    fn dns_walk_agrees_with_owned_parse(id in any::<u16>(), name in arb_domain(),
                                        addrs in proptest::collection::vec(arb_addr(), 0..5),
                                        cname in proptest::option::of(arb_domain()),
                                        flips in proptest::collection::vec((any::<u16>(), 0u8..8), 0..4),
                                        cut in proptest::option::of(any::<u16>()),
                                        noise in proptest::collection::vec(any::<u8>(), 0..64)) {
        let q = DnsMessage::query(id, &name, RecordType::A);
        let mut r = DnsMessage::answer_a(&q, &addrs, 300);
        if let Some(target) = cname {
            r.answers.insert(addrs.len() / 2, Answer::Cname { name: name.clone(), target, ttl: 60 });
        }
        let mut wire = r.encode().to_vec();
        for (at, bit) in flips {
            let at = at as usize % wire.len();
            wire[at] ^= 1 << bit;
        }
        if let Some(cut) = cut {
            wire.truncate(cut as usize % (wire.len() + 1));
        }
        for msg in [q.encode().to_vec(), wire, noise] {
            let mut qname = String::from("left over from the last message");
            let mut seen = Vec::new();
            let walked = DnsHeader::parse(&msg).and_then(|h| h.walk(&msg, &mut qname, |a| seen.push(a)).map(|()| h));
            match DnsMessage::parse(&msg) {
                Ok(owned) => {
                    let h = walked.expect("the walk accepts what the parser accepts");
                    prop_assert_eq!((h.id, h.is_response), (owned.id, owned.is_response));
                    prop_assert_eq!(qname, owned.question.map(|(n, _)| n).unwrap_or_default());
                    let a_records: Vec<Ipv4Addr> = owned.answers.iter().filter_map(|a| match a {
                        Answer::A { addr, .. } => Some(*addr),
                        Answer::Cname { .. } => None,
                    }).collect();
                    prop_assert_eq!(seen, a_records);
                }
                Err(e) => prop_assert_eq!(walked.unwrap_err(), e),
            }
        }
    }

    #[test]
    fn quic_varint_round_trip(v in 0u64..(1 << 62)) {
        let mut b = bytes::BytesMut::new();
        quic::put_varint(&mut b, v);
        let (got, used) = quic::get_varint(&b).unwrap();
        prop_assert_eq!(got, v);
        prop_assert_eq!(used, b.len());
    }

    #[test]
    fn quic_initial_sni_round_trip(sni in arb_domain(),
                                   dcid in proptest::collection::vec(any::<u8>(), 4..19),
                                   random in any::<[u8; 32]>()) {
        let p = quic::initial_with_sni(&dcid, &[1, 2], &sni, random);
        prop_assert_eq!(quic::extract_sni(&p), Some(sni));
    }

    #[test]
    fn quic_parsers_never_panic(buf in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = quic::parse_long_header(&buf);
        let _ = quic::extract_sni(&buf);
    }

    #[test]
    fn full_packet_round_trip_udp(src in arb_addr(), dst in arb_addr(),
                                  sport in any::<u16>(), dport in any::<u16>(),
                                  payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let p = Packet::udp(src, dst, sport, dport, Bytes::from(payload));
        let parsed = Packet::parse(&p.encode()).unwrap();
        prop_assert_eq!(parsed.five_tuple(), p.five_tuple());
        prop_assert_eq!(parsed.payload, p.payload);
    }

    #[test]
    fn full_packet_round_trip_tcp(src in arb_addr(), dst in arb_addr(), flags in 0u8..64,
                                  payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let th = TcpHeader::new(443, 50_000, TcpFlags(flags));
        let p = Packet::tcp(src, dst, th, Bytes::from(payload));
        let parsed = Packet::parse(&p.encode()).unwrap();
        prop_assert_eq!(parsed.five_tuple(), p.five_tuple());
        match parsed.transport {
            Transport::Tcp(t) => prop_assert_eq!(t.flags, TcpFlags(flags)),
            _ => prop_assert!(false, "wrong transport"),
        }
    }

    #[test]
    fn packet_parse_never_panics(buf in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Packet::parse(&buf);
    }

    /// The owned parse is the borrowed one plus a copy, at every cut.
    #[test]
    fn view_and_packet_agree_at_every_length(src in arb_addr(), dst in arb_addr(), udp in any::<bool>(),
                                             opts in arb_tcp_options(),
                                             payload in proptest::collection::vec(any::<u8>(), 0..200)) {
        let pkt = if udp {
            Packet::udp(src, dst, 1, 2, Bytes::from(payload))
        } else {
            let mut h = TcpHeader::new(1, 2, TcpFlags::PSH_ACK);
            h.options = opts;
            Packet::tcp(src, dst, h, Bytes::from(payload))
        };
        let wire = pkt.encode();
        for cut in 0..=wire.len() {
            match (PacketView::parse(&wire[..cut]), Packet::parse(&wire[..cut])) {
                (Ok(v), Ok(p)) => {
                    prop_assert_eq!((v.wire_len(), v.payload_len()), (pkt.wire_len(), pkt.payload_len()));
                    prop_assert_eq!(v.payload, &p.payload[..]);
                    prop_assert_eq!(v.to_packet(), p);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (v, p) => prop_assert!(false, "cut {}: view {:?}, packet {:?}", cut, v, p),
            }
        }
        prop_assert_eq!(Packet::parse(&wire).unwrap(), pkt);
    }

    #[test]
    fn subnet_host_always_contained(net in arb_addr(), prefix in 8u8..30, idx in any::<u32>()) {
        let s = Subnet::new(net, prefix);
        let host = s.host(idx % s.capacity());
        prop_assert!(s.contains(host));
    }

    #[test]
    fn common_prefix_symmetric_and_bounded(a in arb_addr(), b in arb_addr()) {
        let l = common_prefix_len(a, b);
        prop_assert_eq!(l, common_prefix_len(b, a));
        prop_assert!(l <= 32);
        if a == b { prop_assert_eq!(l, 32); }
    }
}
