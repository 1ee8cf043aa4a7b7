//! TCP header encoding/decoding, flags, options, and sequence-space
//! arithmetic.

use crate::ip::ParseError;
use bytes::{BufMut, Bytes, BytesMut};
use core::fmt;
use core::ops::{Add, Sub};

/// TCP flag bitfield.
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    pub const FIN: TcpFlags = TcpFlags(0x01);
    pub const SYN: TcpFlags = TcpFlags(0x02);
    pub const RST: TcpFlags = TcpFlags(0x04);
    pub const ACK: TcpFlags = TcpFlags(0x10);

    pub const SYN_ACK: TcpFlags = TcpFlags(0x12);
    pub const FIN_ACK: TcpFlags = TcpFlags(0x11);
    pub const PSH_ACK: TcpFlags = TcpFlags(0x18);

    #[inline]
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    #[inline]
    pub fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }

    pub fn syn(self) -> bool {
        self.contains(TcpFlags::SYN)
    }

    pub fn ack(self) -> bool {
        self.contains(TcpFlags::ACK)
    }

    pub fn fin(self) -> bool {
        self.contains(TcpFlags::FIN)
    }

    pub fn rst(self) -> bool {
        self.contains(TcpFlags::RST)
    }
}

impl fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [("F", 0x01), ("S", 0x02), ("R", 0x04), ("P", 0x08), (".", 0x10), ("U", 0x20)];
        for (n, bit) in names {
            if self.0 & bit != 0 {
                write!(f, "{n}")?;
            }
        }
        if self.0 == 0 {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// 32-bit TCP sequence number with RFC 793 modular arithmetic.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct SeqNum(pub u32);

impl SeqNum {
    /// Signed distance `self - other` in sequence space.
    #[inline]
    pub fn distance(self, other: SeqNum) -> i32 {
        self.0.wrapping_sub(other.0) as i32
    }

    /// `self` strictly after `other` in sequence space.
    #[inline]
    pub fn after(self, other: SeqNum) -> bool {
        self.distance(other) > 0
    }

    /// `self` at-or-after `other`.
    #[inline]
    pub fn at_or_after(self, other: SeqNum) -> bool {
        self.distance(other) >= 0
    }
}

impl Add<u32> for SeqNum {
    type Output = SeqNum;
    #[inline]
    fn add(self, rhs: u32) -> SeqNum {
        SeqNum(self.0.wrapping_add(rhs))
    }
}

impl Sub<u32> for SeqNum {
    type Output = SeqNum;
    #[inline]
    fn sub(self, rhs: u32) -> SeqNum {
        SeqNum(self.0.wrapping_sub(rhs))
    }
}

/// TCP options relevant to the monitor's heuristics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpOption {
    Mss(u16),
    WindowScale(u8),
    SackPermitted,
    Timestamps { tsval: u32, tsecr: u32 },
}

/// A TCP header with options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TcpHeader {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: SeqNum,
    pub ack: SeqNum,
    pub flags: TcpFlags,
    pub window: u16,
    pub options: Vec<TcpOption>,
}

impl TcpHeader {
    pub fn new(src_port: u16, dst_port: u16, flags: TcpFlags) -> TcpHeader {
        TcpHeader { src_port, dst_port, seq: SeqNum(0), ack: SeqNum(0), flags, window: 65_535, options: Vec::new() }
    }

    /// Header length on the wire including padded options.
    pub fn wire_len(&self) -> usize {
        20 + padded_options_len(&self.options)
    }

    /// Serialise. The checksum field is left zero: the simulator does
    /// not corrupt L4 payloads and the monitor (like Tstat with most
    /// NIC offloads) does not verify L4 checksums.
    pub fn encode(&self) -> Bytes {
        let opt_len = padded_options_len(&self.options);
        let mut b = BytesMut::with_capacity(20 + opt_len);
        b.put_u16(self.src_port);
        b.put_u16(self.dst_port);
        b.put_u32(self.seq.0);
        b.put_u32(self.ack.0);
        let data_offset = ((20 + opt_len) / 4) as u8;
        b.put_u8(data_offset << 4);
        b.put_u8(self.flags.0);
        b.put_u16(self.window);
        b.put_u16(0); // checksum (see doc comment)
        b.put_u16(0); // urgent pointer
        let before = b.len();
        for opt in &self.options {
            match *opt {
                TcpOption::Mss(mss) => {
                    b.put_u8(2);
                    b.put_u8(4);
                    b.put_u16(mss);
                }
                TcpOption::WindowScale(s) => {
                    b.put_u8(3);
                    b.put_u8(3);
                    b.put_u8(s);
                }
                TcpOption::SackPermitted => {
                    b.put_u8(4);
                    b.put_u8(2);
                }
                TcpOption::Timestamps { tsval, tsecr } => {
                    b.put_u8(8);
                    b.put_u8(10);
                    b.put_u32(tsval);
                    b.put_u32(tsecr);
                }
            }
        }
        let written = b.len() - before;
        for _ in written..opt_len {
            b.put_u8(1); // NOP padding
        }
        b.freeze()
    }

    /// Parse from the start of `buf`; returns the header and bytes
    /// consumed (the data offset).
    pub fn parse(buf: &[u8]) -> Result<(TcpHeader, usize), ParseError> {
        if buf.len() < 20 {
            return Err(ParseError::Truncated { needed: 20, got: buf.len() });
        }
        let data_offset = (buf[12] >> 4) as usize * 4;
        if data_offset < 20 {
            return Err(ParseError::BadField("tcp data offset"));
        }
        if buf.len() < data_offset {
            return Err(ParseError::Truncated { needed: data_offset, got: buf.len() });
        }
        let mut options = Vec::new();
        let mut i = 20;
        while i < data_offset {
            match buf[i] {
                0 => break,  // end of options
                1 => i += 1, // NOP
                kind => {
                    if i + 1 >= data_offset {
                        return Err(ParseError::BadField("tcp option length"));
                    }
                    let len = buf[i + 1] as usize;
                    if len < 2 || i + len > data_offset {
                        return Err(ParseError::BadField("tcp option length"));
                    }
                    let body = &buf[i + 2..i + len];
                    match (kind, body.len()) {
                        (2, 2) => options.push(TcpOption::Mss(u16::from_be_bytes([body[0], body[1]]))),
                        (3, 1) => options.push(TcpOption::WindowScale(body[0])),
                        (4, 0) => options.push(TcpOption::SackPermitted),
                        (8, 8) => options.push(TcpOption::Timestamps {
                            tsval: u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
                            tsecr: u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
                        }),
                        _ => {} // unknown option: skip
                    }
                    i += len;
                }
            }
        }
        let hdr = TcpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: SeqNum(u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]])),
            ack: SeqNum(u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]])),
            flags: TcpFlags(buf[13]),
            window: u16::from_be_bytes([buf[14], buf[15]]),
            options,
        };
        Ok((hdr, data_offset))
    }
}

fn padded_options_len(options: &[TcpOption]) -> usize {
    let raw: usize = options
        .iter()
        .map(|o| match o {
            TcpOption::Mss(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::Timestamps { .. } => 10,
        })
        .sum();
    raw.div_ceil(4) * 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_contains_and_debug() {
        let f = TcpFlags::SYN_ACK;
        assert!(f.syn() && f.ack());
        assert!(!f.fin());
        assert!(f.contains(TcpFlags::SYN));
        assert!(!f.contains(TcpFlags::PSH_ACK));
        assert_eq!(format!("{:?}", TcpFlags::SYN_ACK), "S.");
        assert_eq!(format!("{:?}", TcpFlags(0)), "-");
    }

    #[test]
    fn seq_wraparound() {
        let near_max = SeqNum(u32::MAX - 10);
        let wrapped = near_max + 20;
        assert_eq!(wrapped, SeqNum(9));
        assert!(wrapped.after(near_max));
        assert_eq!(wrapped.distance(near_max), 20);
        assert_eq!(near_max.distance(wrapped), -20);
        assert!(wrapped.at_or_after(wrapped));
        assert_eq!(wrapped - 20, near_max);
    }

    #[test]
    fn header_round_trip_no_options() {
        let mut h = TcpHeader::new(443, 50_123, TcpFlags::PSH_ACK);
        h.seq = SeqNum(123_456);
        h.ack = SeqNum(654_321);
        h.window = 29_200;
        let wire = h.encode();
        assert_eq!(wire.len(), 20);
        let (parsed, used) = TcpHeader::parse(&wire).unwrap();
        assert_eq!(used, 20);
        assert_eq!(parsed, h);
    }

    #[test]
    fn header_round_trip_with_options() {
        let mut h = TcpHeader::new(50_000, 443, TcpFlags::SYN);
        h.options = vec![
            TcpOption::Mss(1460),
            TcpOption::SackPermitted,
            TcpOption::WindowScale(7),
            TcpOption::Timestamps { tsval: 0xdead_beef, tsecr: 0 },
        ];
        let wire = h.encode();
        assert_eq!(wire.len() % 4, 0);
        let (parsed, used) = TcpHeader::parse(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(parsed.options, h.options);
        assert_eq!(parsed.flags, TcpFlags::SYN);
    }

    #[test]
    fn parse_rejects_bad_offset_and_truncation() {
        assert!(matches!(TcpHeader::parse(&[0u8; 10]), Err(ParseError::Truncated { .. })));
        let mut wire = TcpHeader::new(1, 2, TcpFlags::ACK).encode().to_vec();
        wire[12] = 0x30; // data offset 12 bytes < 20
        assert_eq!(TcpHeader::parse(&wire).unwrap_err(), ParseError::BadField("tcp data offset"));
        wire[12] = 0xf0; // data offset 60 > buffer
        assert!(matches!(TcpHeader::parse(&wire), Err(ParseError::Truncated { .. })));
    }

    #[test]
    fn parse_skips_unknown_options() {
        // kind 254 (experimental), len 4 + padding, then MSS
        let mut h = TcpHeader::new(1, 2, TcpFlags::SYN);
        h.options = vec![TcpOption::Mss(1400)];
        let mut wire = h.encode().to_vec();
        // hand-craft: extend options area with an unknown option
        // easier: build raw: offset 7 words = 28 bytes
        let mut raw = wire[..20].to_vec();
        raw[12] = 7 << 4;
        raw.extend_from_slice(&[254, 4, 0, 0]); // unknown
        raw.extend_from_slice(&[2, 4, 5, 120]); // MSS 1400
        wire = raw;
        let (parsed, used) = TcpHeader::parse(&wire).unwrap();
        assert_eq!(used, 28);
        assert_eq!(parsed.options, vec![TcpOption::Mss(1400)]);
    }

    #[test]
    fn malformed_option_length_rejected() {
        let mut raw = TcpHeader::new(1, 2, TcpFlags::SYN).encode().to_vec();
        raw[12] = 6 << 4;
        raw.extend_from_slice(&[2, 1, 0, 0]); // MSS with len 1 (invalid)
        assert_eq!(TcpHeader::parse(&raw).unwrap_err(), ParseError::BadField("tcp option length"));
    }
}
