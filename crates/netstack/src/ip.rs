//! IPv4 header encoding/decoding and address utilities.
//!
//! The simulator moves structured packets, but the monitor's DPI path
//! and the property tests exercise real wire encode/parse round-trips,
//! including the internet checksum.

use bytes::{BufMut, Bytes, BytesMut};
use core::fmt;
use std::net::Ipv4Addr;

/// IP protocol numbers used in the workspace.
pub mod proto {
    pub const TCP: u8 = 6;
    pub const UDP: u8 = 17;
}

/// A parsed/parseable IPv4 header (no options — the traffic in the
/// paper's trace is overwhelmingly option-free; IHL is fixed at 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ipv4Header {
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub protocol: u8,
    pub ttl: u8,
    pub identification: u16,
    pub dscp: u8,
    /// Total length of the IP datagram (header + payload), bytes.
    pub total_len: u16,
}

pub const IPV4_HEADER_LEN: usize = 20;

/// Errors from parsing wire formats anywhere in this crate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Buffer shorter than the fixed part of the header.
    Truncated { needed: usize, got: usize },
    /// A version/magic field did not match.
    BadField(&'static str),
    /// Checksum mismatch.
    BadChecksum,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Truncated { needed, got } => {
                write!(f, "truncated: needed {needed} bytes, got {got}")
            }
            ParseError::BadField(which) => write!(f, "bad field: {which}"),
            ParseError::BadChecksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for ParseError {}

impl Ipv4Header {
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, payload_len: usize) -> Ipv4Header {
        Ipv4Header {
            src,
            dst,
            protocol,
            ttl: 64,
            identification: 0,
            dscp: 0,
            total_len: (IPV4_HEADER_LEN + payload_len) as u16,
        }
    }

    /// Serialise to wire format with a valid header checksum.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(IPV4_HEADER_LEN);
        b.put_u8(0x45); // version 4, IHL 5
        b.put_u8(self.dscp << 2);
        b.put_u16(self.total_len);
        b.put_u16(self.identification);
        b.put_u16(0x4000); // DF, no fragmentation in the simulator
        b.put_u8(self.ttl);
        b.put_u8(self.protocol);
        b.put_u16(0); // checksum placeholder
        b.put_slice(&self.src.octets());
        b.put_slice(&self.dst.octets());
        let csum = internet_checksum(&b);
        b[10..12].copy_from_slice(&csum.to_be_bytes());
        b.freeze()
    }

    /// Parse the fixed header, verifying version and checksum.
    /// Returns the header and the header length consumed.
    pub fn parse(buf: &[u8]) -> Result<(Ipv4Header, usize), ParseError> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(ParseError::Truncated { needed: IPV4_HEADER_LEN, got: buf.len() });
        }
        if buf[0] >> 4 != 4 {
            return Err(ParseError::BadField("ip version"));
        }
        let ihl = (buf[0] & 0x0f) as usize * 4;
        if ihl < IPV4_HEADER_LEN || buf.len() < ihl {
            return Err(ParseError::BadField("ihl"));
        }
        if internet_checksum(&buf[..ihl]) != 0 {
            return Err(ParseError::BadChecksum);
        }
        let total_len = u16::from_be_bytes([buf[2], buf[3]]);
        // a datagram cannot be shorter than its own header; a length
        // that wrapped past 16 bits on encode reads as one that is
        if usize::from(total_len) < ihl {
            return Err(ParseError::BadField("total_len"));
        }
        let hdr = Ipv4Header {
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
            protocol: buf[9],
            ttl: buf[8],
            identification: u16::from_be_bytes([buf[4], buf[5]]),
            dscp: buf[1] >> 2,
            total_len,
        };
        Ok((hdr, ihl))
    }
}

/// RFC 1071 internet checksum over `data`. Over a buffer whose
/// checksum field is zero this yields the value to store; over a
/// buffer with a valid stored checksum it yields zero.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(*last) << 8;
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// An IPv4 /prefix subnet, used by the operator's address plan and by
/// the CryptoPan prefix-preservation tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Subnet {
    pub network: Ipv4Addr,
    pub prefix_len: u8,
}

impl Subnet {
    pub fn new(network: Ipv4Addr, prefix_len: u8) -> Subnet {
        assert!(prefix_len <= 32);
        let net = u32::from(network) & Subnet::mask(prefix_len);
        Subnet { network: Ipv4Addr::from(net), prefix_len }
    }

    fn mask(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - prefix_len)
        }
    }

    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & Subnet::mask(self.prefix_len) == u32::from(self.network)
    }

    /// The `i`-th host address inside the subnet (0-based, skipping
    /// the network address). Panics if out of range.
    pub fn host(&self, i: u32) -> Ipv4Addr {
        let capacity = if self.prefix_len >= 31 { 1 } else { (1u32 << (32 - self.prefix_len)) - 2 };
        assert!(i < capacity, "host index {i} outside /{}", self.prefix_len);
        Ipv4Addr::from(u32::from(self.network) + i + 1)
    }

    /// Number of usable host addresses.
    pub fn capacity(&self) -> u32 {
        if self.prefix_len >= 31 {
            1
        } else {
            (1u32 << (32 - self.prefix_len)) - 2
        }
    }
}

impl fmt::Display for Subnet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network, self.prefix_len)
    }
}

/// How many leading bits two addresses share — the quantity CryptoPan
/// must preserve.
pub fn common_prefix_len(a: Ipv4Addr, b: Ipv4Addr) -> u32 {
    (u32::from(a) ^ u32::from(b)).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_parse_round_trip() {
        let hdr = Ipv4Header {
            src: Ipv4Addr::new(10, 1, 2, 3),
            dst: Ipv4Addr::new(142, 250, 1, 1),
            protocol: proto::TCP,
            ttl: 57,
            identification: 0xbeef,
            dscp: 10,
            total_len: 1500,
        };
        let wire = hdr.encode();
        assert_eq!(wire.len(), IPV4_HEADER_LEN);
        let (parsed, consumed) = Ipv4Header::parse(&wire).unwrap();
        assert_eq!(consumed, IPV4_HEADER_LEN);
        assert_eq!(parsed, hdr);
    }

    #[test]
    fn checksum_detects_corruption() {
        let hdr = Ipv4Header::new(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8), proto::UDP, 100);
        let mut wire = hdr.encode().to_vec();
        wire[8] ^= 0xff; // corrupt TTL
        assert_eq!(Ipv4Header::parse(&wire), Err(ParseError::BadChecksum));
    }

    #[test]
    fn parse_rejects_short_and_bad_version() {
        assert!(matches!(Ipv4Header::parse(&[0u8; 10]), Err(ParseError::Truncated { .. })));
        let mut wire = Ipv4Header::new(Ipv4Addr::LOCALHOST, Ipv4Addr::LOCALHOST, 6, 0).encode().to_vec();
        wire[0] = 0x65; // version 6
        assert_eq!(Ipv4Header::parse(&wire), Err(ParseError::BadField("ip version")));
    }

    #[test]
    fn rfc1071_known_vector() {
        // Example from RFC 1071 §3: words 0001 f203 f4f5 f6f7
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 2ddf0, folded = ddf2, checksum = !0xddf2 = 0x220d
        assert_eq!(internet_checksum(&data), 0x220d);
    }

    #[test]
    fn checksum_odd_length() {
        let data = [0xff, 0x00, 0xab];
        // pads the trailing byte with zero
        let manual: u32 = 0xff00 + 0xab00;
        let folded = (manual & 0xffff) + (manual >> 16);
        assert_eq!(internet_checksum(&data), !(folded as u16));
    }

    #[test]
    fn subnet_membership_and_hosts() {
        let s = Subnet::new(Ipv4Addr::new(10, 20, 0, 0), 16);
        assert!(s.contains(Ipv4Addr::new(10, 20, 255, 1)));
        assert!(!s.contains(Ipv4Addr::new(10, 21, 0, 1)));
        assert_eq!(s.host(0), Ipv4Addr::new(10, 20, 0, 1));
        assert_eq!(s.capacity(), 65_534);
        assert_eq!(format!("{s}"), "10.20.0.0/16");
        // network bits below the prefix are masked off at construction
        let s2 = Subnet::new(Ipv4Addr::new(10, 20, 3, 7), 16);
        assert_eq!(s2.network, Ipv4Addr::new(10, 20, 0, 0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn subnet_host_out_of_range() {
        Subnet::new(Ipv4Addr::new(192, 168, 1, 0), 30).host(2);
    }

    #[test]
    fn common_prefix() {
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 0, 2);
        assert_eq!(common_prefix_len(a, b), 30);
        assert_eq!(common_prefix_len(a, a), 32);
        assert_eq!(common_prefix_len(Ipv4Addr::new(0, 0, 0, 0), Ipv4Addr::new(128, 0, 0, 0)), 0);
    }
}
