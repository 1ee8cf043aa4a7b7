//! The composed packet type moved through the simulated network, plus
//! full-datagram wire serialisation used by the monitor-facing span
//! port and by the property tests.

use crate::ip::{proto, Ipv4Header, ParseError, IPV4_HEADER_LEN};
use crate::tcp::{TcpFlags, TcpHeader};
use crate::udp::{UdpHeader, UDP_HEADER_LEN};
use bytes::{Bytes, BytesMut};
use core::fmt;
use std::net::Ipv4Addr;

/// L4 header of a simulated packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Transport {
    Tcp(TcpHeader),
    Udp(UdpHeader),
}

impl Transport {
    pub fn src_port(&self) -> u16 {
        match self {
            Transport::Tcp(t) => t.src_port,
            Transport::Udp(u) => u.src_port,
        }
    }

    pub fn dst_port(&self) -> u16 {
        match self {
            Transport::Tcp(t) => t.dst_port,
            Transport::Udp(u) => u.dst_port,
        }
    }

    pub fn protocol(&self) -> u8 {
        match self {
            Transport::Tcp(_) => proto::TCP,
            Transport::Udp(_) => proto::UDP,
        }
    }
}

/// A full simulated packet: IPv4 + transport + opaque payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    pub ip: Ipv4Header,
    pub transport: Transport,
    pub payload: Bytes,
}

impl Packet {
    /// Build a TCP packet, fixing up the IP total length.
    pub fn tcp(src: Ipv4Addr, dst: Ipv4Addr, tcp: TcpHeader, payload: Bytes) -> Packet {
        let mut p = Packet::tcp_deferred(src, dst, tcp, payload.len());
        p.payload = payload;
        p
    }

    /// Build a UDP packet, fixing up both length fields.
    pub fn udp(src: Ipv4Addr, dst: Ipv4Addr, src_port: u16, dst_port: u16, payload: Bytes) -> Packet {
        let mut p = Packet::udp_deferred(src, dst, src_port, dst_port, payload.len());
        p.payload = payload;
        p
    }

    /// Build a TCP packet whose payload bytes arrive later: all length
    /// fields are baked from `payload_len`, the payload itself is an
    /// empty placeholder the caller patches once the bytes exist (the
    /// arena path freezes one buffer per flow and slices it back).
    /// Until then `wire_len`/`payload_len` disagree with the header.
    pub fn tcp_deferred(src: Ipv4Addr, dst: Ipv4Addr, tcp: TcpHeader, payload_len: usize) -> Packet {
        let l4_len = tcp.wire_len() + payload_len;
        Packet {
            ip: Ipv4Header::new(src, dst, proto::TCP, l4_len),
            transport: Transport::Tcp(tcp),
            payload: Bytes::new(),
        }
    }

    /// UDP twin of [`Packet::tcp_deferred`].
    pub fn udp_deferred(src: Ipv4Addr, dst: Ipv4Addr, src_port: u16, dst_port: u16, payload_len: usize) -> Packet {
        let udp = UdpHeader::new(src_port, dst_port, payload_len);
        let l4_len = UDP_HEADER_LEN + payload_len;
        Packet {
            ip: Ipv4Header::new(src, dst, proto::UDP, l4_len),
            transport: Transport::Udp(udp),
            payload: Bytes::new(),
        }
    }

    /// Convenience: a bare TCP control packet (SYN/ACK/FIN/RST).
    pub fn tcp_control(src: Ipv4Addr, dst: Ipv4Addr, src_port: u16, dst_port: u16, flags: TcpFlags) -> Packet {
        Packet::tcp(src, dst, TcpHeader::new(src_port, dst_port, flags), Bytes::new())
    }

    /// Total on-the-wire length in bytes (IP header + L4 + payload).
    pub fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN
            + match &self.transport {
                Transport::Tcp(t) => t.wire_len(),
                Transport::Udp(_) => UDP_HEADER_LEN,
            }
            + self.payload.len()
    }

    /// L4 payload length.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    pub fn five_tuple(&self) -> FiveTuple {
        FiveTuple::of(&self.ip, &self.transport)
    }

    /// Serialise the full datagram.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(self.wire_len());
        let mut ip = self.ip;
        ip.total_len = self.wire_len() as u16;
        b.extend_from_slice(&ip.encode());
        match &self.transport {
            Transport::Tcp(t) => b.extend_from_slice(&t.encode()),
            Transport::Udp(u) => {
                let mut u = *u;
                u.length = (UDP_HEADER_LEN + self.payload.len()) as u16;
                b.extend_from_slice(&u.encode());
            }
        }
        b.extend_from_slice(&self.payload);
        b.freeze()
    }

    /// Parse a full datagram into an owned packet: the borrowed
    /// [`PacketView::parse`] plus one copy of the captured payload.
    pub fn parse(buf: &[u8]) -> Result<Packet, ParseError> {
        PacketView::parse(buf).map(PacketView::to_packet)
    }
}

/// A datagram parsed in place: the headers by value, the L4 payload as
/// a slice of the caller's buffer. This is what the probe's wire path
/// works on — no `Bytes`, no copy.
///
/// A capture may have snapped the frame: `payload` is what the buffer
/// holds, while [`wire_len`](PacketView::wire_len) and
/// [`payload_len`](PacketView::payload_len) are what the IP header
/// says was on the wire (Tstat's accounting rule).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PacketView<'a> {
    pub ip: Ipv4Header,
    pub transport: Transport,
    /// Captured L4 payload bytes.
    pub payload: &'a [u8],
    /// IP + L4 header bytes in front of the payload.
    header_len: usize,
}

impl<'a> PacketView<'a> {
    /// Parse the headers of a full or snapped datagram.
    pub fn parse(buf: &'a [u8]) -> Result<PacketView<'a>, ParseError> {
        let (ip, ip_len) = Ipv4Header::parse(buf)?;
        let total = (ip.total_len as usize).min(buf.len());
        let l4 = &buf[ip_len..total];
        let (transport, used) = match ip.protocol {
            proto::TCP => {
                let (tcp, used) = TcpHeader::parse(l4)?;
                (Transport::Tcp(tcp), used)
            }
            proto::UDP => {
                let (udp, used) = UdpHeader::parse(l4)?;
                (Transport::Udp(udp), used)
            }
            _ => return Err(ParseError::BadField("unsupported protocol")),
        };
        Ok(PacketView { ip, transport, payload: &l4[used..], header_len: ip_len + used })
    }

    /// On-the-wire length of the datagram: the IP header's total
    /// length, whatever the capture kept of it.
    pub fn wire_len(&self) -> usize {
        self.ip.total_len as usize
    }

    /// On-the-wire L4 payload length, from the IP header. At least
    /// `payload.len()`: the L4 header parsed inside `total_len`.
    pub fn payload_len(&self) -> usize {
        self.wire_len() - self.header_len
    }

    /// Copy the captured payload into an owned [`Packet`].
    pub fn to_packet(self) -> Packet {
        Packet { ip: self.ip, transport: self.transport, payload: Bytes::copy_from_slice(self.payload) }
    }
}

/// The classic 5-tuple flow key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FiveTuple {
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub src_port: u16,
    pub dst_port: u16,
    pub protocol: u8,
}

impl FiveTuple {
    /// The 5-tuple a packet's headers spell, in the packet's direction.
    pub fn of(ip: &Ipv4Header, transport: &Transport) -> FiveTuple {
        FiveTuple {
            src: ip.src,
            dst: ip.dst,
            src_port: transport.src_port(),
            dst_port: transport.dst_port(),
            protocol: transport.protocol(),
        }
    }

    /// The same flow seen from the opposite direction.
    pub fn reversed(&self) -> FiveTuple {
        FiveTuple {
            src: self.dst,
            dst: self.src,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }

    /// A direction-independent key: both directions of a flow map to
    /// the same canonical tuple (the lexicographically smaller end
    /// first).
    pub fn canonical(&self) -> FiveTuple {
        let a = (self.src, self.src_port);
        let b = (self.dst, self.dst_port);
        if a <= b {
            *self
        } else {
            self.reversed()
        }
    }
}

impl fmt::Debug for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = match self.protocol {
            proto::TCP => "tcp",
            proto::UDP => "udp",
            _ => "?",
        };
        write!(f, "{p} {}:{} > {}:{}", self.src, self.src_port, self.dst, self.dst_port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::SeqNum;

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    #[test]
    fn tcp_packet_round_trip() {
        let mut th = TcpHeader::new(443, 55_000, TcpFlags::PSH_ACK);
        th.seq = SeqNum(1000);
        th.ack = SeqNum(2000);
        let p = Packet::tcp(addr(1), addr(2), th, Bytes::from_static(b"data!"));
        let wire = p.encode();
        assert_eq!(wire.len(), p.wire_len());
        let parsed = Packet::parse(&wire).unwrap();
        assert_eq!(parsed.five_tuple(), p.five_tuple());
        assert_eq!(parsed.payload, p.payload);
        match parsed.transport {
            Transport::Tcp(t) => {
                assert_eq!(t.seq, SeqNum(1000));
                assert_eq!(t.flags, TcpFlags::PSH_ACK);
            }
            _ => panic!("wrong transport"),
        }
    }

    #[test]
    fn udp_packet_round_trip() {
        let p = Packet::udp(addr(3), addr(4), 40_000, 53, Bytes::from_static(&[1, 2, 3]));
        let parsed = Packet::parse(&p.encode()).unwrap();
        assert_eq!(parsed.five_tuple().dst_port, 53);
        assert_eq!(parsed.payload.as_ref(), &[1, 2, 3]);
        assert_eq!(parsed.wire_len(), 20 + 8 + 3);
    }

    #[test]
    fn five_tuple_directions() {
        let p = Packet::udp(addr(1), addr(2), 1111, 53, Bytes::new());
        let ft = p.five_tuple();
        let rev = ft.reversed();
        assert_eq!(rev.src, addr(2));
        assert_eq!(rev.dst_port, 1111);
        assert_eq!(ft.canonical(), rev.canonical());
        assert_ne!(ft, rev);
    }

    #[test]
    fn control_packet_has_no_payload() {
        let p = Packet::tcp_control(addr(1), addr(2), 5, 6, TcpFlags::SYN);
        assert_eq!(p.payload_len(), 0);
        assert_eq!(p.wire_len(), 40);
    }

    #[test]
    fn parse_rejects_total_len_wrapped_below_the_header() {
        // 20 + 8 + payload = 65 536 + 7: `encode` stores the length
        // mod 2^16, i.e. 7, less than the header it sits in
        let p = Packet::udp(addr(1), addr(2), 1, 2, Bytes::from(vec![0u8; 65_536 + 7 - 28]));
        assert_eq!(p.wire_len(), 65_536 + 7);
        let wire = p.encode();
        assert_eq!(Packet::parse(&wire).unwrap_err(), ParseError::BadField("total_len"));
        // snapped to a capture's snaplen it is still the same bad header
        assert_eq!(Packet::parse(&wire[..256]).unwrap_err(), ParseError::BadField("total_len"));
    }

    #[test]
    fn view_borrows_the_payload_and_reads_lengths_off_the_ip_header() {
        let p = Packet::tcp(
            addr(1),
            addr(2),
            TcpHeader::new(443, 55_000, TcpFlags::PSH_ACK),
            Bytes::from(vec![7u8; 1_400]),
        );
        let wire = p.encode();
        let full = PacketView::parse(&wire).unwrap();
        assert_eq!((full.wire_len(), full.payload_len(), full.payload.len()), (1_440, 1_400, 1_400));
        assert_eq!(full.clone().to_packet(), p);
        // snapped to 256 bytes: the slice is what was captured, the
        // lengths are still the wire's
        let snapped = PacketView::parse(&wire[..256]).unwrap();
        assert_eq!((snapped.wire_len(), snapped.payload_len(), snapped.payload.len()), (1_440, 1_400, 216));
        assert_eq!((&snapped.ip, &snapped.transport), (&full.ip, &full.transport));
        // trailing bytes past total_len are not payload
        let mut padded = wire.to_vec();
        padded.extend_from_slice(&[0xee; 6]);
        assert_eq!(PacketView::parse(&padded).unwrap(), full);
    }

    #[test]
    fn parse_rejects_unknown_protocol() {
        let hdr = Ipv4Header::new(addr(1), addr(2), 47 /* GRE */, 0);
        let wire = hdr.encode();
        assert_eq!(Packet::parse(&wire).unwrap_err(), ParseError::BadField("unsupported protocol"));
    }

    #[test]
    fn debug_format() {
        let p = Packet::udp(addr(9), addr(8), 1234, 53, Bytes::new());
        assert_eq!(format!("{:?}", p.five_tuple()), "udp 10.0.0.9:1234 > 10.0.0.8:53");
    }
}
