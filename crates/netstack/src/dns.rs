//! DNS message encoding/decoding (RFC 1035 subset).
//!
//! The monitor logs every DNS request/response pair it sees at the
//! ground station: requested name, resolver address, response time and
//! answered addresses (paper §2.2, §6.3). We implement queries and
//! responses with A/CNAME answers, including name-compression-pointer
//! handling on the parse side (responses from real resolvers use them,
//! and our encoder emits them for answer names referring back to the
//! question).

use crate::ip::ParseError;
use bytes::Bytes;
use std::net::Ipv4Addr;

pub const DNS_HEADER_LEN: usize = 12;
/// Maximum label chain length we will follow before declaring a loop.
const MAX_NAME_LEN: usize = 255;

/// Query/record types we model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordType {
    A,
    Aaaa,
    Cname,
}

impl RecordType {
    pub fn to_u16(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Cname => 5,
            RecordType::Aaaa => 28,
        }
    }

    pub fn from_u16(v: u16) -> Option<RecordType> {
        Some(match v {
            1 => RecordType::A,
            5 => RecordType::Cname,
            28 => RecordType::Aaaa,
            _ => return None,
        })
    }
}

/// DNS response codes we use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rcode {
    NoError,
    NxDomain,
    ServFail,
}

impl Rcode {
    pub fn to_u8(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
        }
    }

    pub fn from_u8(v: u8) -> Rcode {
        match v {
            3 => Rcode::NxDomain,
            2 => Rcode::ServFail,
            _ => Rcode::NoError,
        }
    }
}

/// An answer resource record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    A { name: String, addr: Ipv4Addr, ttl: u32 },
    Cname { name: String, target: String, ttl: u32 },
}

/// A DNS message (query or response).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DnsMessage {
    pub id: u16,
    pub is_response: bool,
    pub recursion_desired: bool,
    pub rcode: Rcode,
    pub question: Option<(String, RecordType)>,
    pub answers: Vec<Answer>,
}

impl DnsMessage {
    /// Build a standard recursive query for `name`.
    pub fn query(id: u16, name: &str, rtype: RecordType) -> DnsMessage {
        DnsMessage {
            id,
            is_response: false,
            recursion_desired: true,
            rcode: Rcode::NoError,
            question: Some((name.to_string(), rtype)),
            answers: Vec::new(),
        }
    }

    /// Build a response answering `query` with `addrs`.
    pub fn answer_a(query: &DnsMessage, addrs: &[Ipv4Addr], ttl: u32) -> DnsMessage {
        let (name, rtype) = query.question.clone().expect("query without question");
        DnsMessage {
            id: query.id,
            is_response: true,
            recursion_desired: query.recursion_desired,
            rcode: Rcode::NoError,
            question: Some((name.clone(), rtype)),
            answers: addrs.iter().map(|&addr| Answer::A { name: name.clone(), addr, ttl }).collect(),
        }
    }

    /// Build an error response to `query`.
    pub fn error(query: &DnsMessage, rcode: Rcode) -> DnsMessage {
        DnsMessage {
            id: query.id,
            is_response: true,
            recursion_desired: query.recursion_desired,
            rcode,
            question: query.question.clone(),
            answers: Vec::new(),
        }
    }

    pub fn encode(&self) -> Bytes {
        let mut b = Vec::with_capacity(64);
        self.encode_into(&mut b);
        Bytes::from(b)
    }

    /// Append-into twin of [`encode`](DnsMessage::encode). Compression
    /// pointers are relative to the start of *this* message, so `buf`
    /// must begin the message at its current length (the arena hands
    /// each payload its own logical start).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let base = buf.len();
        buf.extend_from_slice(&self.id.to_be_bytes());
        let mut flags: u16 = 0;
        if self.is_response {
            flags |= 0x8000;
        }
        if self.recursion_desired {
            flags |= 0x0100;
        }
        if self.is_response {
            flags |= 0x0080; // RA: our resolvers always recurse
        }
        flags |= u16::from(self.rcode.to_u8());
        buf.extend_from_slice(&flags.to_be_bytes());
        buf.extend_from_slice(&u16::from(self.question.is_some()).to_be_bytes());
        buf.extend_from_slice(&(self.answers.len() as u16).to_be_bytes());
        buf.extend_from_slice(&0u16.to_be_bytes()); // NS count
        buf.extend_from_slice(&0u16.to_be_bytes()); // AR count
        let mut question_offset = None;
        if let Some((name, rtype)) = &self.question {
            question_offset = Some(buf.len() - base);
            encode_name(buf, name);
            buf.extend_from_slice(&rtype.to_u16().to_be_bytes());
            buf.extend_from_slice(&1u16.to_be_bytes()); // class IN
        }
        for ans in &self.answers {
            let (name, rtype, ttl) = match ans {
                Answer::A { name, ttl, .. } => (name, RecordType::A, *ttl),
                Answer::Cname { name, ttl, .. } => (name, RecordType::Cname, *ttl),
            };
            // Compression: if the answer name equals the question name,
            // emit a pointer to it (the common case for A answers).
            match (&self.question, question_offset) {
                (Some((qname, _)), Some(off)) if qname == name => {
                    buf.extend_from_slice(&(0xC000 | off as u16).to_be_bytes());
                }
                _ => encode_name(buf, name),
            }
            buf.extend_from_slice(&rtype.to_u16().to_be_bytes());
            buf.extend_from_slice(&1u16.to_be_bytes()); // class IN
            buf.extend_from_slice(&ttl.to_be_bytes());
            match ans {
                Answer::A { addr, .. } => {
                    buf.extend_from_slice(&4u16.to_be_bytes());
                    buf.extend_from_slice(&addr.octets());
                }
                Answer::Cname { target, .. } => {
                    let at = buf.len();
                    buf.extend_from_slice(&[0, 0]); // rdlen, backpatched
                    encode_name(buf, target);
                    let rdlen = (buf.len() - at - 2) as u16;
                    buf[at..at + 2].copy_from_slice(&rdlen.to_be_bytes());
                }
            }
        }
    }

    pub fn parse(buf: &[u8]) -> Result<DnsMessage, ParseError> {
        let DnsHeader { id, is_response, has_question, ancount } = DnsHeader::parse(buf)?;
        let flags = u16::from_be_bytes([buf[2], buf[3]]);
        let mut i = DNS_HEADER_LEN;
        let mut question = None;
        if has_question {
            let (name, used) = decode_name(buf, i)?;
            i += used;
            if i + 4 > buf.len() {
                return Err(ParseError::Truncated { needed: i + 4, got: buf.len() });
            }
            let rtype = u16::from_be_bytes([buf[i], buf[i + 1]]);
            i += 4; // type + class
            question = Some((name, RecordType::from_u16(rtype).ok_or(ParseError::BadField("dns qtype"))?));
        }
        let mut answers = Vec::with_capacity(ancount as usize);
        for _ in 0..ancount {
            let (name, used) = decode_name(buf, i)?;
            i += used;
            if i + 10 > buf.len() {
                return Err(ParseError::Truncated { needed: i + 10, got: buf.len() });
            }
            let rtype = u16::from_be_bytes([buf[i], buf[i + 1]]);
            let ttl = u32::from_be_bytes([buf[i + 4], buf[i + 5], buf[i + 6], buf[i + 7]]);
            let rdlen = u16::from_be_bytes([buf[i + 8], buf[i + 9]]) as usize;
            i += 10;
            if i + rdlen > buf.len() {
                return Err(ParseError::Truncated { needed: i + rdlen, got: buf.len() });
            }
            match RecordType::from_u16(rtype) {
                Some(RecordType::A) if rdlen == 4 => {
                    answers.push(Answer::A {
                        name,
                        addr: Ipv4Addr::new(buf[i], buf[i + 1], buf[i + 2], buf[i + 3]),
                        ttl,
                    });
                }
                Some(RecordType::Cname) => {
                    let (target, _) = decode_name(buf, i)?;
                    answers.push(Answer::Cname { name, target, ttl });
                }
                _ => {} // skip unknown rdata
            }
            i += rdlen;
        }
        Ok(DnsMessage {
            id,
            is_response,
            recursion_desired: flags & 0x0100 != 0,
            rcode: Rcode::from_u8((flags & 0x000f) as u8),
            question,
            answers,
        })
    }
}

/// Append a recursive A query for `name`: the bytes of
/// `DnsMessage::query(id, name, RecordType::A).encode_into(buf)`,
/// written in place — the synthesizer's per-lookup path builds no
/// message.
pub fn write_a_query(buf: &mut Vec<u8>, id: u16, name: &str) {
    write_a_head(buf, id, 0x0100, 0, name); // RD
}

/// Append the answer to [`write_a_query`]`(id, name)` carrying the one
/// address `addr`: the query's bytes with QR and RA set and
/// ANCOUNT = 1, then one A record whose name is a `0xC00C` pointer to
/// the question. The bytes of `DnsMessage::answer_a(&query, &[addr],
/// ttl).encode_into(buf)`, written in place.
pub fn write_a_answer(buf: &mut Vec<u8>, id: u16, name: &str, addr: Ipv4Addr, ttl: u32) {
    write_a_head(buf, id, 0x8180, 1, name); // QR, RD, RA
    buf.extend_from_slice(&[0xC0, DNS_HEADER_LEN as u8, 0, 1, 0, 1]); // → question name, A, IN
    buf.extend_from_slice(&ttl.to_be_bytes());
    buf.extend_from_slice(&4u16.to_be_bytes());
    buf.extend_from_slice(&addr.octets());
}

/// Header and A question of a one-question message.
fn write_a_head(buf: &mut Vec<u8>, id: u16, flags: u16, ancount: u16, name: &str) {
    buf.extend_from_slice(&id.to_be_bytes());
    buf.extend_from_slice(&flags.to_be_bytes());
    buf.extend_from_slice(&1u16.to_be_bytes()); // QD count
    buf.extend_from_slice(&ancount.to_be_bytes());
    buf.extend_from_slice(&[0, 0, 0, 0]); // NS, AR count
    encode_name(buf, name);
    buf.extend_from_slice(&[0, 1, 0, 1]); // type A, class IN
}

fn encode_name(b: &mut Vec<u8>, name: &str) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        debug_assert!(label.len() < 64, "label too long: {label}");
        b.push(label.len() as u8);
        b.extend_from_slice(label.as_bytes());
    }
    b.push(0);
}

/// The fixed header of a message, read in place, and from it a walk
/// of the body that builds no owned names: what the monitor's DNS
/// transaction log needs of a packet (id and direction first, then the
/// question name or the answered addresses).
///
/// [`parse`](DnsHeader::parse) followed by [`walk`](DnsHeader::walk)
/// accepts and rejects exactly the messages [`DnsMessage::parse`] does
/// (a property test pins it): a message with one malformed record is
/// rejected whole.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DnsHeader {
    pub id: u16,
    pub is_response: bool,
    has_question: bool,
    ancount: u16,
}

impl DnsHeader {
    pub fn parse(buf: &[u8]) -> Result<DnsHeader, ParseError> {
        if buf.len() < DNS_HEADER_LEN {
            return Err(ParseError::Truncated { needed: DNS_HEADER_LEN, got: buf.len() });
        }
        let flags = u16::from_be_bytes([buf[2], buf[3]]);
        let qdcount = u16::from_be_bytes([buf[4], buf[5]]);
        if qdcount > 1 {
            return Err(ParseError::BadField("dns qdcount"));
        }
        Ok(DnsHeader {
            id: u16::from_be_bytes([buf[0], buf[1]]),
            is_response: flags & 0x8000 != 0,
            has_question: qdcount == 1,
            ancount: u16::from_be_bytes([buf[6], buf[7]]),
        })
    }

    /// Validate the question and every answer of `buf` (the message
    /// this header was parsed from). `qname` is cleared and receives
    /// the question name (empty without a question); `on_a` sees the
    /// address of each A answer, in message order. On `Err` whatever
    /// `on_a` saw belongs to a message to ignore.
    pub fn walk(&self, buf: &[u8], qname: &mut String, mut on_a: impl FnMut(Ipv4Addr)) -> Result<(), ParseError> {
        qname.clear();
        let mut i = DNS_HEADER_LEN;
        if self.has_question {
            i += walk_name(buf, i, |label| push_label(qname, label))?;
            if i + 4 > buf.len() {
                return Err(ParseError::Truncated { needed: i + 4, got: buf.len() });
            }
            RecordType::from_u16(u16::from_be_bytes([buf[i], buf[i + 1]])).ok_or(ParseError::BadField("dns qtype"))?;
            i += 4; // type + class
        }
        for _ in 0..self.ancount {
            i += walk_name(buf, i, |_| {})?;
            if i + 10 > buf.len() {
                return Err(ParseError::Truncated { needed: i + 10, got: buf.len() });
            }
            let rtype = u16::from_be_bytes([buf[i], buf[i + 1]]);
            let rdlen = u16::from_be_bytes([buf[i + 8], buf[i + 9]]) as usize;
            i += 10;
            if i + rdlen > buf.len() {
                return Err(ParseError::Truncated { needed: i + rdlen, got: buf.len() });
            }
            match RecordType::from_u16(rtype) {
                Some(RecordType::A) if rdlen == 4 => on_a(Ipv4Addr::new(buf[i], buf[i + 1], buf[i + 2], buf[i + 3])),
                Some(RecordType::Cname) => {
                    walk_name(buf, i, |_| {})?;
                }
                _ => {} // skip unknown rdata
            }
            i += rdlen;
        }
        Ok(())
    }
}

fn push_label(name: &mut String, label: &str) {
    if !name.is_empty() {
        name.push('.');
    }
    name.push_str(label);
}

/// Decode a (possibly compressed) name starting at `start`. Returns
/// the name and the bytes consumed *at the call site* (pointers count
/// as 2 bytes regardless of target length).
fn decode_name(buf: &[u8], start: usize) -> Result<(String, usize), ParseError> {
    let mut name = String::new();
    let consumed = walk_name(buf, start, |label| push_label(&mut name, label))?;
    Ok((name, consumed))
}

/// Walk the labels of the name at `start`, handing each (lossily
/// decoded) to `on_label`; returns the bytes consumed at the call
/// site. The one place name syntax is checked: pointer direction and
/// count, label bounds, and the 255-byte cap on the dotted name.
fn walk_name(buf: &[u8], start: usize, mut on_label: impl FnMut(&str)) -> Result<usize, ParseError> {
    // length of the dotted name so far, as `decode_name` would hold it
    let mut name_len = 0;
    let mut i = start;
    let mut consumed = None;
    let mut jumps = 0;
    loop {
        let len = *buf.get(i).ok_or(ParseError::Truncated { needed: i + 1, got: buf.len() })? as usize;
        if len & 0xC0 == 0xC0 {
            // compression pointer
            let lo = *buf.get(i + 1).ok_or(ParseError::Truncated { needed: i + 2, got: buf.len() })? as usize;
            let target = ((len & 0x3f) << 8) | lo;
            if consumed.is_none() {
                consumed = Some(i + 2 - start);
            }
            if target >= i {
                return Err(ParseError::BadField("dns forward pointer"));
            }
            jumps += 1;
            if jumps > 16 {
                return Err(ParseError::BadField("dns pointer loop"));
            }
            i = target;
        } else if len == 0 {
            // after a jump `i` is behind `start`: only the first terminator counts
            return Ok(consumed.unwrap_or_else(|| i + 1 - start));
        } else {
            if name_len + len + 1 > MAX_NAME_LEN {
                return Err(ParseError::BadField("dns name too long"));
            }
            let label =
                buf.get(i + 1..i + 1 + len).ok_or(ParseError::Truncated { needed: i + 1 + len, got: buf.len() })?;
            let label = String::from_utf8_lossy(label);
            name_len += usize::from(name_len > 0) + label.len();
            on_label(&label);
            i += 1 + len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_round_trip() {
        let q = DnsMessage::query(0x1234, "play.googleapis.com", RecordType::A);
        let wire = q.encode();
        let parsed = DnsMessage::parse(&wire).unwrap();
        assert_eq!(parsed, q);
        assert!(!parsed.is_response);
        assert!(parsed.recursion_desired);
    }

    #[test]
    fn response_round_trip_with_compression() {
        let q = DnsMessage::query(7, "captive.apple.com", RecordType::A);
        let addrs = [Ipv4Addr::new(17, 253, 1, 2), Ipv4Addr::new(17, 253, 1, 3)];
        let r = DnsMessage::answer_a(&q, &addrs, 300);
        let wire = r.encode();
        // the second answer's name must be a compression pointer:
        // wire must be shorter than a naive encoding of two full names
        assert!(wire.len() < 17 + 2 * (19 + 4) + 2 * (19 + 14));
        let parsed = DnsMessage::parse(&wire).unwrap();
        assert_eq!(parsed.answers.len(), 2);
        match &parsed.answers[0] {
            Answer::A { name, addr, ttl } => {
                assert_eq!(name, "captive.apple.com");
                assert_eq!(*addr, addrs[0]);
                assert_eq!(*ttl, 300);
            }
            other => panic!("unexpected answer {other:?}"),
        }
        assert!(parsed.is_response);
        assert_eq!(parsed.rcode, Rcode::NoError);
    }

    #[test]
    fn cname_answers() {
        let q = DnsMessage::query(9, "www.sky.com", RecordType::A);
        let mut r = DnsMessage::answer_a(&q, &[Ipv4Addr::new(2, 3, 4, 5)], 60);
        r.answers
            .insert(0, Answer::Cname { name: "www.sky.com".into(), target: "sky.com.edgekey.net".into(), ttl: 60 });
        let parsed = DnsMessage::parse(&r.encode()).unwrap();
        assert_eq!(parsed.answers.len(), 2);
        match &parsed.answers[0] {
            Answer::Cname { target, .. } => assert_eq!(target, "sky.com.edgekey.net"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_responses() {
        let q = DnsMessage::query(3, "no.such.domain.example", RecordType::A);
        let r = DnsMessage::error(&q, Rcode::NxDomain);
        let parsed = DnsMessage::parse(&r.encode()).unwrap();
        assert_eq!(parsed.rcode, Rcode::NxDomain);
        assert!(parsed.answers.is_empty());
        assert_eq!(parsed.question.as_ref().unwrap().0, "no.such.domain.example");
    }

    #[test]
    fn parse_rejects_truncation_and_loops() {
        assert!(matches!(DnsMessage::parse(&[0; 5]), Err(ParseError::Truncated { .. })));
        // craft a message whose name is a self-pointer
        let mut wire = DnsMessage::query(1, "a.example", RecordType::A).encode().to_vec();
        wire[12] = 0xC0;
        wire[13] = 12; // points at itself
        assert!(DnsMessage::parse(&wire).is_err());
    }

    #[test]
    fn aaaa_type_parses() {
        let q = DnsMessage::query(2, "dual.example.com", RecordType::Aaaa);
        let parsed = DnsMessage::parse(&q.encode()).unwrap();
        assert_eq!(parsed.question.unwrap().1, RecordType::Aaaa);
    }
}
