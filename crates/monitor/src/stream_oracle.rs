//! Reference oracles for the borrowed stream path, and the property
//! test that holds the production code to them.
//!
//! [`VecReassembler`] and [`CopyAllInspect`] are the implementations
//! the probe ran before payloads were borrowed (DESIGN.md §4
//! "Borrowed payloads"): the reassembler returned a `Vec<Bytes>` per
//! segment, the inspect buffer copied every chunk before looking at it. They are kept verbatim
//! (telemetry aside; the limits are the production constants, which are
//! policy, not algorithm) and compiled for tests only. The production pair —
//! callback [`StreamReassembler`] feeding slice-fed [`InspectBuffer`] —
//! must hand the DPI the same units in the same order and leave the
//! same checkpoint state, segment by segment, on any segmentation,
//! reordering, overlap and duplication of a stream.

use crate::checkpoint;
use crate::inspect::{InspectBuffer, INSPECT_BUF_CAP, INSPECT_COMPACT_AT};
use crate::reassembly::{StreamReassembler, INSPECT_LIMIT, MAX_BUFFERED};
use bytes::Bytes;
use proptest::prelude::*;
use satwatch_netstack::ip::ParseError;
use satwatch_netstack::{http, tls, SeqNum};
use std::collections::BTreeMap;

#[derive(Default)]
struct VecReassembler {
    base: Option<SeqNum>,
    next_off: u64,
    pending: BTreeMap<u64, Bytes>,
    pending_bytes: usize,
    delivered: u64,
    dropped_segments: u64,
}

impl VecReassembler {
    fn set_base(&mut self, first_byte: SeqNum) {
        if self.base.is_none() {
            self.base = Some(first_byte);
        }
    }

    fn insert(&mut self, seq: SeqNum, payload: &Bytes) -> Vec<Bytes> {
        if payload.is_empty() || self.delivered >= INSPECT_LIMIT {
            return Vec::new();
        }
        let base = *self.base.get_or_insert(seq);
        let rel = i64::from(seq.distance(base));
        if rel < 0 {
            return Vec::new();
        }
        let off = rel as u64;
        if off <= self.next_off {
            let skip = (self.next_off - off) as usize;
            if skip >= payload.len() {
                return Vec::new(); // fully duplicate
            }
            self.deliver_from(self.next_off, payload.slice(skip..))
        } else if self.pending_bytes + payload.len() > MAX_BUFFERED {
            self.dropped_segments += 1;
            self.pending.clear();
            self.pending_bytes = 0;
            self.next_off = off;
            self.deliver_from(off, payload.clone())
        } else {
            self.pending_bytes += payload.len();
            self.pending.entry(off).or_insert_with(|| payload.clone());
            Vec::new()
        }
    }

    fn deliver_from(&mut self, at: u64, chunk: Bytes) -> Vec<Bytes> {
        debug_assert_eq!(at, self.next_off);
        let mut out = Vec::new();
        self.push_chunk(chunk, &mut out);
        while let Some((&off, _)) = self.pending.iter().next() {
            if off > self.next_off {
                break; // still a hole
            }
            let seg = self.pending.remove(&off).expect("present");
            self.pending_bytes -= seg.len();
            let skip = (self.next_off - off) as usize;
            if skip < seg.len() {
                self.push_chunk(seg.slice(skip..), &mut out);
            }
        }
        out
    }

    fn push_chunk(&mut self, chunk: Bytes, out: &mut Vec<Bytes>) {
        let take = chunk.len().min((INSPECT_LIMIT - self.delivered) as usize);
        self.next_off += chunk.len() as u64;
        if take > 0 {
            self.delivered += take as u64;
            out.push(chunk.slice(0..take));
        }
    }

    fn write_state(&self, w: &mut Vec<u8>) {
        use checkpoint::*;
        put_opt_u32(w, self.base.map(|s| s.0));
        put_u64(w, self.next_off);
        put_u64(w, self.delivered);
        put_u64(w, self.dropped_segments);
        put_u32(w, self.pending.len() as u32);
        for (&off, seg) in &self.pending {
            put_u64(w, off);
            put_bytes(w, seg);
        }
    }
}

#[derive(Default, PartialEq, Clone, Copy)]
enum Mode {
    #[default]
    Unknown,
    Records,
    Raw,
    Done,
}

#[derive(Default)]
struct CopyAllInspect {
    buf: Vec<u8>,
    start: usize,
    mode: Mode,
}

impl CopyAllInspect {
    fn pending(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    fn feed(&mut self, chunk: &[u8], mut sink: impl FnMut(&[u8])) {
        match self.mode {
            Mode::Done => {}
            Mode::Raw => sink(chunk),
            Mode::Unknown | Mode::Records => {
                self.buf.extend_from_slice(chunk);
                if self.mode == Mode::Unknown {
                    if self.buf.len() >= 2 {
                        if (20..=23).contains(&self.buf[0]) && self.buf[1] == 3 {
                            self.mode = Mode::Records;
                        } else {
                            self.mode = Mode::Raw;
                            let pending = std::mem::take(&mut self.buf);
                            sink(&pending);
                            return;
                        }
                    } else {
                        return; // need more bytes to sniff
                    }
                }
                loop {
                    match tls::parse_record(self.pending()) {
                        Ok((_, used)) => {
                            sink(&self.buf[self.start..self.start + used]);
                            self.start += used;
                        }
                        Err(ParseError::Truncated { .. }) => break,
                        Err(_) => {
                            sink(self.pending());
                            self.start = self.buf.len();
                            self.mode = Mode::Raw;
                            break;
                        }
                    }
                }
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                } else if self.start > INSPECT_COMPACT_AT {
                    self.buf.drain(..self.start);
                    self.start = 0;
                }
                if self.pending().len() > INSPECT_BUF_CAP {
                    let buf = std::mem::take(&mut self.buf);
                    sink(&buf[self.start..]);
                    self.start = 0;
                    self.mode = Mode::Done;
                }
            }
        }
    }

    fn write_state(&self, w: &mut Vec<u8>) {
        let mode = match self.mode {
            Mode::Unknown => 0u8,
            Mode::Records => 1,
            Mode::Raw => 2,
            Mode::Done => 3,
        };
        checkpoint::put_u8(w, mode);
        checkpoint::put_bytes(w, self.pending());
    }
}

/// What a direction of a flow carries, in the sizes that reach every
/// limit of the path: records split across segments, a record longer
/// than the inspect buffer's cap, a stream longer than the inspection
/// limit, a non-TLS head, a stream that stops being TLS.
fn stream(rng: &mut TestRng) -> Vec<u8> {
    let mut s = Vec::new();
    match rng.below(5) {
        0 => {
            // c2s side of a handshake, then application data
            s.extend_from_slice(&tls::client_hello("oracle.example.net", [rng.below(256) as u8; 32]));
            s.extend_from_slice(&tls::client_key_exchange(1));
            s.extend_from_slice(&tls::change_cipher_spec());
            s.extend_from_slice(&tls::finished(2));
            for _ in 0..rng.below(6) {
                s.extend_from_slice(&tls::application_data(rng.below(3_000) as usize, 3));
            }
        }
        1 => {
            // s2c side: ServerHello flight, then bulk past the limit
            s.extend_from_slice(&tls::server_hello([9; 32]));
            s.extend_from_slice(&tls::certificate(800 + rng.below(3_000) as usize, 4));
            s.extend_from_slice(&tls::server_hello_done());
            for _ in 0..rng.below(14) {
                s.extend_from_slice(&tls::application_data(16_000, 5));
            }
        }
        2 => {
            // an HTTP head and a body
            s.extend_from_slice(&http::get_request("oracle.example.net", "/index.html", "ua/1.0"));
            s.resize(s.len() + rng.below(5_000) as usize, b'x');
        }
        3 => {
            // TLS that turns into something else after a few records
            s.extend_from_slice(&tls::client_hello("mangled.example.net", [7; 32]));
            s.extend_from_slice(&tls::application_data(200, 6));
            s.extend_from_slice(&[23, 9, 9, 0, 4, 1, 2, 3, 4]);
            s.resize(s.len() + rng.below(2_000) as usize, 0xee);
        }
        _ => {
            // a record header promising more than will ever be buffered
            s.extend_from_slice(&tls::change_cipher_spec());
            s.extend_from_slice(&[23, 3, 3, 0xff, 0xff]);
            s.resize(s.len() + 20_000 + rng.below(300_000) as usize, 0x11);
        }
    }
    s
}

/// `(offset, length)` of every segment to send, in sending order: the
/// stream cut at random points, then duplicated, overlapped, reordered
/// and holed at random.
fn schedule(rng: &mut TestRng, len: usize) -> Vec<(usize, usize)> {
    // (a long stream in 40-byte segments only costs test time)
    let max_seg = [40, 700, 1_460, 60_000][(rng.below(4) as usize).max(if len > 50_000 { 2 } else { 0 })];
    let mut segs = Vec::new();
    let mut at = 0;
    while at < len {
        let n = (1 + rng.below(max_seg) as usize).min(len - at);
        segs.push((at, n));
        at += n;
    }
    for _ in 0..rng.below(1 + segs.len() as u64 / 3) {
        // a duplicate, or a segment across earlier boundaries
        let (off, n) = segs[rng.below(segs.len() as u64) as usize];
        let extra = if rng.below(2) == 0 {
            (off, n)
        } else {
            let start = off.saturating_sub(rng.below(50) as usize);
            (start, (n + rng.below(100) as usize).min(len - start))
        };
        segs.insert(rng.below(segs.len() as u64 + 1) as usize, extra);
    }
    match rng.below(4) {
        0 => {} // in order: the fast path, end to end
        1 => {
            // local reordering
            for i in 1..segs.len() {
                if rng.below(4) == 0 {
                    segs.swap(i - 1, i);
                }
            }
        }
        2 => {
            // the head arrives last: everything else queues behind the hole
            let head = segs.remove(0);
            segs.push(head);
        }
        _ => {
            for i in (1..segs.len()).rev() {
                segs.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
    }
    segs
}

/// Send `segs` of `data` through both pairs, comparing after every
/// segment; returns the production reassembler for the caller to look
/// at what the schedule reached.
fn check(data: &[u8], segs: &[(usize, usize)], isn: u32, anchored: bool) -> StreamReassembler {
    let (mut new_r, mut new_i) = (StreamReassembler::new(), InspectBuffer::default());
    let (mut old_r, mut old_i) = (VecReassembler::default(), CopyAllInspect::default());
    if anchored {
        // a SYN anchored the stream; else the first segment seen does
        new_r.set_base(SeqNum(isn));
        old_r.set_base(SeqNum(isn));
    }
    let (mut new_units, mut old_units) = (Vec::new(), Vec::new());
    let mut copies = 0;
    for &(off, n) in segs {
        let seq = SeqNum(isn) + off as u32;
        let seg = &data[off..off + n];
        // the two states agree here (checked after every segment)
        let in_order = old_r.pending.is_empty() && old_r.base.is_none_or(|b| b + old_r.next_off as u32 == seq);
        let was = copies;
        new_r.insert(
            seq,
            seg,
            || {
                copies += 1;
                Bytes::copy_from_slice(seg)
            },
            |chunk| new_i.feed(chunk, |unit| new_units.push(unit.to_vec())),
        );
        assert!(!(in_order && copies > was), "an in-order segment was copied");
        for chunk in old_r.insert(seq, &Bytes::copy_from_slice(seg)) {
            old_i.feed(&chunk, |unit| old_units.push(unit.to_vec()));
        }
        // same units so far, same state a checkpoint would write
        assert_eq!(new_units.len(), old_units.len());
        assert_eq!(new_r.delivered_bytes(), old_r.delivered);
        assert_eq!(new_r.dropped_segments, old_r.dropped_segments);
        let (mut new_state, mut old_state) = (Vec::new(), Vec::new());
        new_r.write_state(&mut new_state);
        old_r.write_state(&mut old_state);
        new_i.write_state(&mut new_state);
        old_i.write_state(&mut old_state);
        assert_eq!(new_state, old_state);
    }
    assert!(new_units == old_units, "unit bytes differ");
    new_r
}

/// The two limits a random schedule seldom reaches, reached on purpose.
#[test]
fn oracles_agree_at_the_buffer_cap_and_the_inspection_limit() {
    let mut data = Vec::new();
    while data.len() < 400_000 {
        data.extend_from_slice(&tls::application_data(16_000, 8));
    }
    // the head never arrives: 256 KiB queue up, then the stream skips
    let holed: Vec<_> = (1..data.len() / 50_000).map(|k| (k * 50_000, 50_000)).collect();
    let r = check(&data, &holed, 77, true);
    assert_eq!(r.dropped_segments, 1);
    assert!(r.delivered_bytes() > 0);
    // in order, delivery stops at the limit
    let in_order: Vec<_> = (0..data.len() / 50_000).map(|k| (k * 50_000, 50_000)).collect();
    assert_eq!(check(&data, &in_order, u32::MAX - 9, false).delivered_bytes(), INSPECT_LIMIT);
}

proptest! {
    #[test]
    fn borrowed_stream_path_matches_the_copying_oracles(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let data = stream(&mut rng);
        let segs = schedule(&mut rng, data.len());
        // sequence numbers may wrap inside the stream
        let isn = if rng.below(3) == 0 { u32::MAX - rng.below(5_000) as u32 } else { rng.next_u64() as u32 };
        check(&data, &segs, isn, rng.below(2) == 0);
    }
}
