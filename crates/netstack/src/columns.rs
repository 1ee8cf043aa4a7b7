//! Struct-of-arrays packet runs: the columnar representation of one
//! flow's packets on the scenario→probe hot path.
//!
//! A [`PacketColumns`] run holds one flow's packets as parallel
//! arrays — timestamp, endpoints, flags, seq/ack, wire length, and a
//! (payload-offset, payload-len) pair into the run's frozen
//! [`PayloadArena`](satwatch_simcore::PayloadArena) block — instead of
//! a `Vec<(SimTime, Packet)>` of materialized structs, written in time
//! order by flow synthesis. Scheduling (the probe's passes, the
//! harness's merge via [`TimedRun`]) only reads the timestamp
//! column, the flow table consumes
//! scalar columns directly, and a real [`Packet`] is materialized only
//! where something needs one: the pcap/tap boundary, the wire-byte
//! round-trip test, and the scenario's per-packet reference run.
//!
//! ## Payload resolution
//!
//! Row `i`'s payload bytes are
//! * empty if `pay_len[i] == 0`;
//! * `zeros[..pay_len[i]]` if `pay_off[i] == NO_ARENA` — bulk chunks
//!   backed by the process-wide shared zero buffer;
//! * `payload[pay_off[i]..pay_off[i] + pay_len[i]]` otherwise, where
//!   `payload` is the flow's frozen arena block. Offsets recorded
//!   while the arena is live are only meaningful once the builder
//!   freezes the block into [`PacketColumns::payload`]; slices may
//!   intentionally overlap (the RTP header-overlap layout).
//!
//! ## TCP header compression
//!
//! The synthesizer emits a fixed option set on SYN/SYN-ACK
//! (`[Mss, SackPermitted, WindowScale(7)]`) and none elsewhere, and
//! never changes the default window. So one `mss` column (0 = no
//! options) reconstructs the exact header: `wire` is precomputed at
//! push time and [`tcp_header`](PacketColumns::tcp_header) rebuilds a
//! byte-identical [`TcpHeader`] on demand.

use crate::ip::{proto, IPV4_HEADER_LEN};
use crate::packet::{FiveTuple, Packet};
use crate::tcp::{SeqNum, TcpFlags, TcpHeader, TcpOption};
use crate::udp::UDP_HEADER_LEN;
use bytes::Bytes;
use satwatch_simcore::{SimTime, TimedRun};
use std::net::Ipv4Addr;

/// `pay_off` sentinel: the payload is a prefix of the shared zero
/// buffer (`zeros`), not a slice of the flow's arena block.
pub const NO_ARENA: u32 = u32::MAX;

/// `flags` sentinel marking a UDP row. Real TCP flag bytes only use
/// the low six bits, so the value is unambiguous.
pub const UDP_ROW: u8 = 0xFF;

/// TCP header length on rows without options / with the canonical
/// 9-byte SYN option set padded to 12.
const TCP_BASE: u32 = 20;
const SYN_OPTS: u32 = 12;

/// One flow's packets as parallel columns. See the module docs for
/// the layout and payload-resolution rules.
#[derive(Default, Clone)]
pub struct PacketColumns {
    pub ts: Vec<SimTime>,
    pub src: Vec<Ipv4Addr>,
    pub dst: Vec<Ipv4Addr>,
    pub sport: Vec<u16>,
    pub dport: Vec<u16>,
    /// TCP flag bits, or [`UDP_ROW`] for UDP rows.
    pub flags: Vec<u8>,
    /// SYN option marker: 0 = no options, else the MSS value of the
    /// canonical `[Mss, SackPermitted, WindowScale(7)]` triple.
    pub mss: Vec<u16>,
    pub seq: Vec<u32>,
    pub ack: Vec<u32>,
    /// Total on-the-wire length (IP + L4 headers + payload).
    pub wire: Vec<u32>,
    /// Payload offset into `payload`, or [`NO_ARENA`] for `zeros`.
    pub pay_off: Vec<u32>,
    pub pay_len: Vec<u32>,
    /// The flow's frozen arena block.
    pub payload: Bytes,
    /// The shared zero buffer bulk payloads slice from.
    pub zeros: Bytes,
}

impl PacketColumns {
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Reset to empty, keeping column allocations for reuse. Drops
    /// the payload blocks (each run freezes its own).
    pub fn clear(&mut self) {
        self.ts.clear();
        self.src.clear();
        self.dst.clear();
        self.sport.clear();
        self.dport.clear();
        self.flags.clear();
        self.mss.clear();
        self.seq.clear();
        self.ack.clear();
        self.wire.clear();
        self.pay_off.clear();
        self.pay_len.clear();
        self.payload = Bytes::new();
        self.zeros = Bytes::new();
    }

    /// Append one TCP row. `mss` 0 means no options (see module docs).
    #[allow(clippy::too_many_arguments)]
    pub fn push_tcp(
        &mut self,
        t: SimTime,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        sport: u16,
        dport: u16,
        flags: TcpFlags,
        mss: u16,
        seq: u32,
        ack: u32,
        pay_off: u32,
        pay_len: u32,
    ) {
        self.ts.push(t);
        self.src.push(src);
        self.dst.push(dst);
        self.sport.push(sport);
        self.dport.push(dport);
        self.flags.push(flags.0);
        self.mss.push(mss);
        self.seq.push(seq);
        self.ack.push(ack);
        let opts = if mss != 0 { SYN_OPTS } else { 0 };
        self.wire.push(IPV4_HEADER_LEN as u32 + TCP_BASE + opts + pay_len);
        self.pay_off.push(pay_off);
        self.pay_len.push(pay_len);
    }

    /// Append one UDP row.
    #[allow(clippy::too_many_arguments)]
    pub fn push_udp(
        &mut self,
        t: SimTime,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        sport: u16,
        dport: u16,
        pay_off: u32,
        pay_len: u32,
    ) {
        self.ts.push(t);
        self.src.push(src);
        self.dst.push(dst);
        self.sport.push(sport);
        self.dport.push(dport);
        self.flags.push(UDP_ROW);
        self.mss.push(0);
        self.seq.push(0);
        self.ack.push(0);
        self.wire.push((IPV4_HEADER_LEN + UDP_HEADER_LEN) as u32 + pay_len);
        self.pay_off.push(pay_off);
        self.pay_len.push(pay_len);
    }

    #[inline]
    pub fn is_udp(&self, i: usize) -> bool {
        self.flags[i] == UDP_ROW
    }

    #[inline]
    pub fn protocol(&self, i: usize) -> u8 {
        if self.is_udp(i) {
            proto::UDP
        } else {
            proto::TCP
        }
    }

    pub fn five_tuple(&self, i: usize) -> FiveTuple {
        FiveTuple {
            src: self.src[i],
            dst: self.dst[i],
            src_port: self.sport[i],
            dst_port: self.dport[i],
            protocol: self.protocol(i),
        }
    }

    /// Row `i`'s payload bytes, borrowed (no refcount traffic). This
    /// is the DPI-inspection view.
    #[inline]
    pub fn payload_slice(&self, i: usize) -> &[u8] {
        let len = self.pay_len[i] as usize;
        if len == 0 {
            &[]
        } else if self.pay_off[i] == NO_ARENA {
            &self.zeros[..len]
        } else {
            let off = self.pay_off[i] as usize;
            &self.payload[off..off + len]
        }
    }

    /// Row `i`'s payload as an owned (zero-copy) `Bytes`, for the TCP
    /// reassembler which buffers chunks across packets.
    pub fn payload_bytes(&self, i: usize) -> Bytes {
        let len = self.pay_len[i] as usize;
        if len == 0 {
            Bytes::new()
        } else if self.pay_off[i] == NO_ARENA {
            self.zeros.slice(0..len)
        } else {
            let off = self.pay_off[i] as usize;
            self.payload.slice(off..off + len)
        }
    }

    /// Rebuild the exact [`TcpHeader`] the row-oriented path would
    /// have constructed. `i` must be a TCP row.
    pub fn tcp_header(&self, i: usize) -> TcpHeader {
        debug_assert!(!self.is_udp(i));
        let mut h = TcpHeader::new(self.sport[i], self.dport[i], TcpFlags(self.flags[i]));
        h.seq = SeqNum(self.seq[i]);
        h.ack = SeqNum(self.ack[i]);
        if self.mss[i] != 0 {
            h.options = vec![TcpOption::Mss(self.mss[i]), TcpOption::SackPermitted, TcpOption::WindowScale(7)];
        }
        h
    }

    /// Materialize row `i` as a full [`Packet`] — byte-identical to
    /// what the row-oriented synthesis path would have built.
    pub fn materialize(&self, i: usize) -> Packet {
        if self.is_udp(i) {
            Packet::udp(self.src[i], self.dst[i], self.sport[i], self.dport[i], self.payload_bytes(i))
        } else {
            Packet::tcp(self.src[i], self.dst[i], self.tcp_header(i), self.payload_bytes(i))
        }
    }

    /// Materialize every row, appending `(time, packet)` tuples to
    /// `out` in row order — what the scenario's per-packet reference
    /// run schedules.
    pub fn materialize_into(&self, out: &mut Vec<(SimTime, Packet)>) {
        out.reserve(self.len());
        for i in 0..self.len() {
            out.push((self.ts[i], self.materialize(i)));
        }
    }

    /// Clamp every timestamp to `>= t0`, then stable-sort all columns
    /// by time (emission order breaks ties) — the columnar equivalent
    /// of scheduling row `i` into an event heap at `max(ts[i], t0)`.
    /// No-op when already sorted. Flow synthesis writes its runs in
    /// time order, so the day loop calls none of this; it stays for the
    /// benchmark harness's replica of the old merge loop and for tests
    /// that build runs by hand.
    pub fn clamp_and_sort(&mut self, t0: SimTime, scratch: &mut SortScratch) {
        for t in &mut self.ts {
            if *t < t0 {
                *t = t0;
            }
        }
        if self.ts.windows(2).all(|w| w[0] <= w[1]) {
            return;
        }
        let n = self.ts.len();
        scratch.perm.clear();
        scratch.perm.extend(0..n as u32);
        let ts = &self.ts;
        // index tiebreak makes the unstable sort stable
        scratch.perm.sort_unstable_by_key(|&i| (ts[i as usize], i));
        apply(&mut self.ts, &scratch.perm, &mut scratch.t);
        apply(&mut self.src, &scratch.perm, &mut scratch.addr);
        apply(&mut self.dst, &scratch.perm, &mut scratch.addr);
        apply(&mut self.sport, &scratch.perm, &mut scratch.u16s);
        apply(&mut self.dport, &scratch.perm, &mut scratch.u16s);
        apply(&mut self.flags, &scratch.perm, &mut scratch.u8s);
        apply(&mut self.mss, &scratch.perm, &mut scratch.u16s);
        apply(&mut self.seq, &scratch.perm, &mut scratch.u32s);
        apply(&mut self.ack, &scratch.perm, &mut scratch.u32s);
        apply(&mut self.wire, &scratch.perm, &mut scratch.u32s);
        apply(&mut self.pay_off, &scratch.perm, &mut scratch.u32s);
        apply(&mut self.pay_len, &scratch.perm, &mut scratch.u32s);
    }
}

fn apply<T: Copy>(col: &mut Vec<T>, perm: &[u32], tmp: &mut Vec<T>) {
    tmp.clear();
    tmp.extend(perm.iter().map(|&i| col[i as usize]));
    std::mem::swap(col, tmp);
}

/// Reusable scratch space for [`PacketColumns::clamp_and_sort`],
/// owned by the drive loop (not by the runs, which are pooled).
#[derive(Default)]
pub struct SortScratch {
    perm: Vec<u32>,
    t: Vec<SimTime>,
    addr: Vec<Ipv4Addr>,
    u16s: Vec<u16>,
    u8s: Vec<u8>,
    u32s: Vec<u32>,
}

impl TimedRun for PacketColumns {
    fn len(&self) -> usize {
        PacketColumns::len(self)
    }
    fn time_at(&self, i: usize) -> SimTime {
        self.ts[i]
    }
    fn clear(&mut self) {
        PacketColumns::clear(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Transport;

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    fn sample() -> PacketColumns {
        let mut c = PacketColumns::default();
        let arena: &[u8] = b"hello-world-payload";
        c.payload = Bytes::copy_from_slice(arena);
        c.zeros = Bytes::from_static(&[0u8; 4096]);
        // SYN with options
        c.push_tcp(SimTime::from_secs(1), addr(1), addr(2), 40_000, 443, TcpFlags::SYN, 1460, 100, 0, NO_ARENA, 0);
        // data row with an arena payload
        c.push_tcp(SimTime::from_secs(2), addr(1), addr(2), 40_000, 443, TcpFlags::PSH_ACK, 0, 101, 7, 6, 5);
        // bulk row backed by zeros
        c.push_tcp(SimTime::from_secs(3), addr(2), addr(1), 443, 40_000, TcpFlags::PSH_ACK, 0, 7, 106, NO_ARENA, 1000);
        // UDP row
        c.push_udp(SimTime::from_secs(4), addr(1), addr(3), 5555, 53, 0, 11);
        c
    }

    #[test]
    fn payload_resolution_rules() {
        let c = sample();
        assert_eq!(c.payload_slice(0), b"");
        assert_eq!(c.payload_slice(1), b"world");
        assert_eq!(c.payload_slice(2).len(), 1000);
        assert!(c.payload_slice(2).iter().all(|&b| b == 0));
        assert_eq!(c.payload_slice(3), b"hello-world");
        for i in 0..c.len() {
            assert_eq!(c.payload_bytes(i).as_ref(), c.payload_slice(i));
        }
    }

    #[test]
    fn wire_lengths_match_materialized_packets() {
        let c = sample();
        for i in 0..c.len() {
            let p = c.materialize(i);
            assert_eq!(c.wire[i] as usize, p.wire_len(), "row {i}");
            assert_eq!(c.pay_len[i] as usize, p.payload_len(), "row {i}");
            assert_eq!(c.five_tuple(i), p.five_tuple(), "row {i}");
        }
    }

    #[test]
    fn materialized_syn_carries_canonical_options() {
        let c = sample();
        let p = c.materialize(0);
        match &p.transport {
            Transport::Tcp(t) => {
                assert_eq!(t.options, vec![TcpOption::Mss(1460), TcpOption::SackPermitted, TcpOption::WindowScale(7)]);
                assert_eq!(t.seq, SeqNum(100));
                assert_eq!(t.window, TcpHeader::new(0, 0, TcpFlags::SYN).window);
            }
            _ => panic!("expected TCP"),
        }
        // materialized rows survive the wire round trip
        let wire = p.encode();
        let q = Packet::parse(&wire).unwrap();
        assert_eq!(q.encode(), wire);
    }

    #[test]
    fn clamp_and_sort_matches_row_oracle() {
        let mut rng = satwatch_simcore::Rng::new(0x50f7);
        for _ in 0..50 {
            let mut c = PacketColumns { zeros: Bytes::from_static(&[0u8; 64]), ..Default::default() };
            let n = rng.below(30) as usize;
            for i in 0..n {
                let t = SimTime::from_secs(rng.below(8));
                c.push_udp(t, addr(1), addr(2), 1000 + i as u16, 53, NO_ARENA, rng.below(8) as u32);
            }
            let t0 = SimTime::from_secs(rng.below(4));
            // row-oriented oracle: materialize, clamp, stable sort
            let mut rows = Vec::new();
            c.materialize_into(&mut rows);
            for r in &mut rows {
                r.0 = r.0.max(t0);
            }
            rows.sort_by_key(|&(t, _)| t);
            let mut scratch = SortScratch::default();
            c.clamp_and_sort(t0, &mut scratch);
            let mut got = Vec::new();
            c.materialize_into(&mut got);
            assert_eq!(got.len(), rows.len());
            for (g, w) in got.iter().zip(&rows) {
                assert_eq!(g.0, w.0);
                assert_eq!(g.1, w.1);
            }
        }
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = sample();
        c.clear();
        assert!(c.is_empty());
        assert!(c.payload.is_empty());
        assert_eq!(c.flags.len(), 0);
    }
}
