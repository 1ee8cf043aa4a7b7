//! In-order TCP payload delivery for the DPI path.
//!
//! The probe's DPI and TLS-handshake estimator need the byte stream in
//! order: a ClientHello split across two segments arriving swapped
//! must still parse. Real capture pipelines (Tstat included) keep a
//! small per-flow reassembly buffer for exactly this; ours delivers
//! contiguous payload as it becomes available, with three guardrails:
//!
//! * the out-of-order buffer is capped (`MAX_BUFFERED` bytes) — a hole
//!   that never fills cannot pin memory: the stream skips forward;
//! * only the first `INSPECT_LIMIT` bytes of a stream are delivered —
//!   DPI decisions are made on flow heads (paper §2.2), so bulk data
//!   bypasses reassembly entirely;
//! * duplicate and overlapping segments are trimmed, never re-delivered.
//!
//! Internally every segment is mapped to a *stream offset* relative to
//! the first byte seen on the direction, so sequence-number wraparound
//! within the inspected head is a non-issue.
//!
//! Delivery borrows: [`StreamReassembler::insert`] takes the segment as
//! a slice of the caller's buffer and hands deliverable data to a
//! callback as `&[u8]` chunks. The next expected segment with nothing
//! pending — all but a sliver of real traffic — is delivered straight
//! out of that slice: no allocation, no copy, no refcount. Only a
//! segment that arrives ahead of a hole has to outlive the call, and
//! only then is the caller asked for an owned `Bytes` of it.

use crate::checkpoint::{self, CheckpointError, Reader};
use bytes::Bytes;
use satwatch_netstack::SeqNum;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Out-of-order bytes currently buffered across *all* live
/// reassemblers (every direction of every tracked flow, all shards).
fn pending_gauge() -> &'static satwatch_telemetry::Gauge {
    static G: OnceLock<&'static satwatch_telemetry::Gauge> = OnceLock::new();
    G.get_or_init(|| satwatch_telemetry::gauge("monitor_reassembly_pending_bytes"))
}

fn dropped_counter() -> &'static satwatch_telemetry::Counter {
    static C: OnceLock<&'static satwatch_telemetry::Counter> = OnceLock::new();
    C.get_or_init(|| satwatch_telemetry::counter("monitor_reassembly_dropped_segments_total"))
}

/// Out-of-order buffer cap per direction, bytes.
pub(crate) const MAX_BUFFERED: usize = 262_144;
/// Deliver at most this much stream per direction (DPI inspects heads).
pub(crate) const INSPECT_LIMIT: u64 = 131_072;

/// Per-direction reassembler.
#[derive(Debug, Default)]
pub struct StreamReassembler {
    /// Sequence number of stream offset 0 (first segment seen).
    base: Option<SeqNum>,
    /// Next expected stream offset.
    next_off: u64,
    /// Out-of-order segments keyed by stream offset.
    pending: BTreeMap<u64, Bytes>,
    pending_bytes: usize,
    delivered: u64,
    /// Segments dropped because the buffer was full (telemetry).
    pub dropped_segments: u64,
}

impl StreamReassembler {
    pub fn new() -> StreamReassembler {
        StreamReassembler::default()
    }

    /// Anchor the stream at a known first byte (the SYN's ISN + 1).
    /// Without this, the first *observed* payload segment becomes the
    /// anchor and anything before it is unrecoverable — exactly what a
    /// mid-capture Tstat does too. No-op once anchored.
    pub fn set_base(&mut self, first_byte: SeqNum) {
        if self.base.is_none() {
            self.base = Some(first_byte);
        }
    }

    /// Insert one segment and hand every chunk that is now deliverable
    /// to `deliver`, in stream order. `payload` is borrowed for the
    /// call; `owned` is asked for the same bytes as a `Bytes` only when
    /// the segment has to be buffered behind a hole.
    pub fn insert(
        &mut self,
        seq: SeqNum,
        payload: &[u8],
        owned: impl FnOnce() -> Bytes,
        mut deliver: impl FnMut(&[u8]),
    ) {
        if payload.is_empty() || self.delivered >= INSPECT_LIMIT {
            return;
        }
        let base = *self.base.get_or_insert(seq);
        let rel = i64::from(seq.distance(base));
        if rel < 0 {
            // data from before the observed stream head: a
            // retransmission of bytes we never saw — nothing the DPI
            // can anchor to; drop.
            return;
        }
        let off = rel as u64;
        if off <= self.next_off {
            let skip = (self.next_off - off) as usize;
            if skip < payload.len() {
                // (else fully duplicate)
                self.deliver_from(&payload[skip..], &mut deliver);
            }
        } else if self.pending_bytes + payload.len() > MAX_BUFFERED {
            // future segment, buffer full
            self.dropped_segments += 1;
            dropped_counter().inc();
            // the hole may never fill: skip the stream forward so
            // inspection continues on fresh data
            self.pending.clear();
            pending_gauge().sub(self.pending_bytes as i64);
            self.pending_bytes = 0;
            self.next_off = off;
            self.deliver_from(payload, &mut deliver);
        } else {
            // future segment: buffer, bounded
            self.pending_bytes += payload.len();
            pending_gauge().add(payload.len() as i64);
            self.pending.entry(off).or_insert_with(owned);
        }
    }

    /// Deliver `chunk`, which starts at `self.next_off`, then drain
    /// any pending segments that became contiguous.
    fn deliver_from(&mut self, chunk: &[u8], deliver: &mut impl FnMut(&[u8])) {
        self.push_chunk(chunk, deliver);
        while let Some(entry) = self.pending.first_entry() {
            let off = *entry.key();
            if off > self.next_off {
                break; // still a hole
            }
            let seg = entry.remove();
            self.pending_bytes -= seg.len();
            pending_gauge().sub(seg.len() as i64);
            let skip = (self.next_off - off) as usize;
            if skip < seg.len() {
                self.push_chunk(&seg[skip..], deliver);
            }
        }
    }

    fn push_chunk(&mut self, chunk: &[u8], deliver: &mut impl FnMut(&[u8])) {
        let take = chunk.len().min((INSPECT_LIMIT - self.delivered) as usize);
        self.next_off += chunk.len() as u64;
        if take > 0 {
            self.delivered += take as u64;
            deliver(&chunk[..take]);
        }
    }

    /// Total in-order bytes delivered so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered
    }

    /// Checkpoint bytes: base, next offset, delivered and dropped
    /// counts, then the pending segments in ascending stream-offset
    /// order.
    pub(crate) fn write_state(&self, w: &mut Vec<u8>) {
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

    /// Inverse of [`write_state`](Self::write_state). A reassembler past
    /// `INSPECT_LIMIT` delivered, buffering more than `MAX_BUFFERED`
    /// bytes or holding one offset twice is corrupt. The buffered bytes
    /// re-register with the pending gauge (the exporting reassembler's
    /// `Drop` released its share).
    pub(crate) fn read_state(r: &mut Reader<'_>) -> Result<StreamReassembler, CheckpointError> {
        let base = r.opt_u32()?.map(SeqNum);
        let next_off = r.u64()?;
        let delivered = r.u64()?;
        if delivered > INSPECT_LIMIT {
            return Err(CheckpointError::Corrupt("reassembly delivered"));
        }
        let dropped_segments = r.u64()?;
        let mut s = StreamReassembler {
            base,
            next_off,
            pending: BTreeMap::new(),
            pending_bytes: 0,
            delivered,
            dropped_segments,
        };
        // an offset and a length each
        for _ in 0..r.count(8 + 4)? {
            let off = r.u64()?;
            let seg = r.bytes()?;
            if s.pending_bytes + seg.len() > MAX_BUFFERED {
                return Err(CheckpointError::Corrupt("reassembly pending"));
            }
            // counted as it lands, so `Drop` releases exactly this on an
            // error further on
            s.pending_bytes += seg.len();
            pending_gauge().add(seg.len() as i64);
            if s.pending.insert(off, Bytes::copy_from_slice(seg)).is_some() {
                return Err(CheckpointError::Corrupt("reassembly pending"));
            }
        }
        Ok(s)
    }
}

impl Drop for StreamReassembler {
    /// A flow finalised with a hole still open releases its buffered
    /// bytes here, keeping the global gauge an exact sum over live
    /// reassemblers.
    fn drop(&mut self) {
        if self.pending_bytes > 0 {
            pending_gauge().sub(self.pending_bytes as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Insert `data` at `seq`; returns what became deliverable.
    fn ins(r: &mut StreamReassembler, seq: u32, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        r.insert(SeqNum(seq), data, || Bytes::copy_from_slice(data), |chunk| out.extend_from_slice(chunk));
        out
    }

    #[test]
    fn in_order_fast_path() {
        let mut r = StreamReassembler::new();
        assert_eq!(ins(&mut r, 100, b"hello "), b"hello ");
        assert_eq!(ins(&mut r, 106, b"world"), b"world");
        assert_eq!(r.delivered_bytes(), 11);
    }

    #[test]
    fn in_order_segments_never_ask_for_an_owned_copy() {
        let mut r = StreamReassembler::new();
        let mut chunks = 0;
        for i in 0..50u32 {
            r.insert(SeqNum(i * 4), b"data", || panic!("in-order data must not be copied"), |_| chunks += 1);
        }
        assert_eq!((chunks, r.delivered_bytes()), (50, 200));
    }

    #[test]
    fn out_of_order_two_segments() {
        let mut r = StreamReassembler::new();
        assert_eq!(ins(&mut r, 100, b"AB"), b"AB");
        assert!(ins(&mut r, 106, b"world").is_empty(), "future segment buffered");
        assert_eq!(ins(&mut r, 102, b"CDhl"), b"CDhlworld", "hole filled, both delivered");
        assert_eq!(r.delivered_bytes(), 11);
    }

    #[test]
    fn three_way_shuffle() {
        let mut r = StreamReassembler::new();
        assert_eq!(ins(&mut r, 0, b"AA"), b"AA");
        assert!(ins(&mut r, 6, b"DD").is_empty());
        assert!(ins(&mut r, 4, b"CC").is_empty());
        assert_eq!(ins(&mut r, 2, b"BB"), b"BBCCDD");
    }

    #[test]
    fn duplicates_not_redelivered() {
        let mut r = StreamReassembler::new();
        ins(&mut r, 0, b"0123456789");
        assert!(ins(&mut r, 0, b"0123456789").is_empty());
        assert_eq!(ins(&mut r, 5, b"56789abc"), b"abc");
    }

    #[test]
    fn overlapping_pending_segments_trimmed() {
        let mut r = StreamReassembler::new();
        ins(&mut r, 0, b"XX"); // head 0..2
        assert!(ins(&mut r, 4, b"4567").is_empty()); // 4..8
        assert!(ins(&mut r, 6, b"67ab").is_empty()); // overlaps 6..10
        assert_eq!(ins(&mut r, 2, b"23"), b"234567ab"); // fills the hole
    }

    #[test]
    fn pre_head_retransmission_dropped() {
        let mut r = StreamReassembler::new();
        ins(&mut r, 1000, b"head");
        assert!(ins(&mut r, 500, b"old data").is_empty());
        assert_eq!(r.delivered_bytes(), 4);
    }

    #[test]
    fn tls_record_split_across_segments_reassembles() {
        use satwatch_netstack::tls;
        let ch = tls::client_hello("split.example.com", [7; 32]);
        let (a, rest) = ch.split_at(40);
        let mut r = StreamReassembler::new();
        // the SYN anchored the stream (ISN 0 → first byte 1) …
        r.set_base(SeqNum(1));
        // … so even segments arriving swapped reassemble
        assert!(ins(&mut r, 1 + 40, rest).is_empty());
        let stream = ins(&mut r, 1, a);
        assert_eq!(stream.len(), ch.len());
        let (rec, _) = tls::parse_record(&stream).unwrap();
        assert_eq!(tls::extract_sni(rec.body).as_deref(), Some("split.example.com"));
    }

    #[test]
    fn set_base_is_idempotent_and_first_wins() {
        let mut r = StreamReassembler::new();
        r.set_base(SeqNum(100));
        r.set_base(SeqNum(999)); // ignored
        assert_eq!(ins(&mut r, 100, b"hi"), b"hi");
    }

    #[test]
    fn buffer_cap_skips_forward() {
        let mut r = StreamReassembler::new();
        ins(&mut r, 0, b"x");
        let big = vec![0u8; 100_000];
        ins(&mut r, 10_000, &big);
        ins(&mut r, 200_000, &big);
        assert!(!ins(&mut r, 400_000, &big).is_empty(), "stream skipped past the unfillable hole");
        assert_eq!(r.dropped_segments, 1);
    }

    #[test]
    fn inspect_limit_stops_delivery() {
        let mut r = StreamReassembler::new();
        let chunk = vec![1u8; 60_000];
        let mut total = 0;
        for i in 0..5u32 {
            total += ins(&mut r, i * 60_000, &chunk).len();
        }
        assert!(total as u64 <= INSPECT_LIMIT);
        assert_eq!(r.delivered_bytes(), INSPECT_LIMIT);
        assert!(ins(&mut r, 999_999, &chunk).is_empty());
    }

    /// `r`'s checkpoint bytes, read back.
    fn reread(r: &StreamReassembler) -> Result<StreamReassembler, CheckpointError> {
        let mut w = Vec::new();
        r.write_state(&mut w);
        let mut rd = Reader::new(&w);
        let back = StreamReassembler::read_state(&mut rd)?;
        assert_eq!(rd.remaining(), 0);
        Ok(back)
    }

    #[test]
    fn a_reassembler_with_a_hole_rereads_and_resumes_alike() {
        let mut r = StreamReassembler::new();
        r.set_base(SeqNum(100));
        ins(&mut r, 100, b"AB");
        ins(&mut r, 106, b"world");
        let mut back = reread(&r).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        r.write_state(&mut a);
        back.write_state(&mut b);
        assert_eq!(a, b);
        assert_eq!(ins(&mut back, 102, b"CDhl"), ins(&mut r, 102, b"CDhl"));
    }

    #[test]
    fn a_reassembler_past_its_delivery_limit_is_corrupt() {
        let mut r = StreamReassembler::new();
        r.delivered = INSPECT_LIMIT;
        assert!(reread(&r).is_ok());
        r.delivered = INSPECT_LIMIT + 1;
        assert_eq!(reread(&r).unwrap_err(), CheckpointError::Corrupt("reassembly delivered"));
    }

    #[test]
    fn a_reassembler_buffering_past_its_cap_is_corrupt() {
        // (the gauge is kept whole for the reassembler's `Drop`)
        let mut r = StreamReassembler::new();
        r.pending.insert(1, Bytes::from(vec![0; MAX_BUFFERED]));
        r.pending_bytes = MAX_BUFFERED;
        pending_gauge().add(MAX_BUFFERED as i64);
        assert!(reread(&r).is_ok());
        r.pending.insert(MAX_BUFFERED as u64 + 2, Bytes::from_static(b"x"));
        r.pending_bytes += 1;
        pending_gauge().add(1);
        assert_eq!(reread(&r).unwrap_err(), CheckpointError::Corrupt("reassembly pending"));
    }

    #[test]
    fn a_pending_offset_held_twice_is_corrupt() {
        let mut r = StreamReassembler::new();
        ins(&mut r, 0, b"a");
        ins(&mut r, 5, b"bc");
        let mut w = Vec::new();
        r.write_state(&mut w);
        // the one pending segment is the tail: count, offset, length, bytes
        let segment = w.split_off(w.len() - (8 + 4 + 2));
        w.truncate(w.len() - 4);
        checkpoint::put_u32(&mut w, 2);
        w.extend_from_slice(&segment);
        w.extend_from_slice(&segment);
        let err = StreamReassembler::read_state(&mut Reader::new(&w)).unwrap_err();
        assert_eq!(err, CheckpointError::Corrupt("reassembly pending"));
    }

    #[test]
    fn empty_payloads_ignored() {
        let mut r = StreamReassembler::new();
        assert!(ins(&mut r, 5, b"").is_empty());
        assert_eq!(ins(&mut r, 9, b"ok"), b"ok");
    }
}
