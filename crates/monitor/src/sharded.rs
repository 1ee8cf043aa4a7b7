//! The constructor `benchmark/` holds the probe by: one inline
//! [`Probe`], no threads.
//!
//! The type has this name, and `new` a `shards` argument, because
//! `benchmark/` constructs it that way; the argument is ignored, and
//! everything else is the probe's, through `Deref`. Production code
//! holds a `Probe`. CHANGES.md (PR 18) has the measurements that left
//! the paper's one-probe vantage as the only one; DESIGN.md §10 lists
//! what the harness still calls.

use crate::probe::{Probe, ProbeConfig};
use crate::record::{DnsRecord, FlowRecord};
use std::ops::{Deref, DerefMut};

/// One [`Probe`] behind the constructor signature the harness calls.
pub struct ShardedProbe(Probe);

impl ShardedProbe {
    /// `_shards` is ignored: every value runs the one inline probe.
    pub fn new(cfg: ProbeConfig, _shards: usize) -> ShardedProbe {
        ShardedProbe(Probe::new(cfg))
    }

    /// [`Probe::finish`].
    pub fn finish(self) -> (Vec<FlowRecord>, Vec<DnsRecord>) {
        self.0.finish()
    }
}

impl Deref for ShardedProbe {
    type Target = Probe;

    fn deref(&self) -> &Probe {
        &self.0
    }
}

impl DerefMut for ShardedProbe {
    fn deref_mut(&mut self) -> &mut Probe {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::ProbeState;
    use crate::flowtable::FlowTableConfig;
    use crate::probe::sort_flows_canonical;
    use crate::seal::Sealer;
    use bytes::Bytes;
    use satwatch_netstack::PacketColumns;
    use satwatch_netstack::{SortScratch, Subnet};
    use satwatch_simcore::{SimDuration, SimTime};
    use std::net::Ipv4Addr;

    fn cfg() -> ProbeConfig {
        ProbeConfig::new(FlowTableConfig::new(Subnet::new(Ipv4Addr::new(10, 0, 0, 0), 8)))
    }

    fn t(ms: i64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// A little synthetic stream spanning many host pairs, both
    /// directions, DNS, and a long idle gap that exercises sweeps —
    /// as one time-sorted columnar run.
    fn stream() -> PacketColumns {
        use satwatch_netstack::dns::{DnsMessage, RecordType};
        let mut cols = PacketColumns::default();
        let mut arena = Vec::new();
        let mut udp = |at: SimTime, src, dst, sport, dport, payload: &[u8]| {
            let off = arena.len() as u32;
            arena.extend_from_slice(payload);
            cols.push_udp(at, src, dst, sport, dport, off, payload.len() as u32);
        };
        for i in 0..40u8 {
            let client = Ipv4Addr::new(10, 1, (i % 8) + 1, i + 1);
            let server = Ipv4Addr::new(198, 18, 0, (i % 5) + 1);
            let sport = 40_000 + u16::from(i);
            udp(t(i64::from(i) * 25), client, server, sport, 443, &[7; 100]);
            udp(t(i64::from(i) * 25 + 600), server, client, 443, sport, &[7; 900]);
            // a DNS transaction per client
            let q = DnsMessage::query(u16::from(i), "cdn.example", RecordType::A);
            let resolver = Ipv4Addr::new(8, 8, 8, 8);
            udp(t(i64::from(i) * 25 + 2), client, resolver, 30_000 + u16::from(i), 53, &q.encode());
            if i % 3 != 0 {
                let r = DnsMessage::answer_a(&q, &[Ipv4Addr::new(198, 18, 9, 9)], 60);
                udp(t(i64::from(i) * 25 + 610), resolver, client, 53, 30_000 + u16::from(i), &r.encode());
            }
        }
        // long gap, then fresh traffic triggering idle sweeps
        for i in 0..10u8 {
            let client = Ipv4Addr::new(10, 2, 0, i + 1);
            let server = Ipv4Addr::new(198, 18, 1, 1);
            udp(t(400_000 + i64::from(i) * 10), client, server, 999, 80, &[1; 60]);
        }
        cols.payload = Bytes::from(arena);
        cols.clamp_and_sort(SimTime::ZERO, &mut SortScratch::default());
        cols
    }

    fn run_with_shards(shards: usize) -> (Vec<FlowRecord>, Vec<DnsRecord>) {
        let mut probe = ShardedProbe::new(cfg(), shards);
        let cols = stream();
        probe.observe_cols(&cols, 0, cols.len());
        probe.finish()
    }

    /// The harness's contract for `new`: whatever `shards` says, the
    /// one inline probe runs.
    #[test]
    fn shard_counts_agree_exactly() {
        let baseline = run_with_shards(1);
        assert!(!baseline.0.is_empty() && !baseline.1.is_empty());
        for shards in [0, 2, 8] {
            assert_eq!(run_with_shards(shards), baseline, "output differs at {shards} shards");
        }
    }

    /// The flows streamed out of the probe — taken after every call, in
    /// eviction order, which the sort key restores to canonical — and
    /// `finish`'s rest and DNS log are the batch output.
    #[test]
    fn sink_streams_same_flows_as_batch_finish() {
        let (batch_flows, batch_dns) = run_with_shards(1);
        let mut probe = ShardedProbe::new(cfg(), 1);
        let (cols, mut streamed) = (stream(), Vec::new());
        for i in 0..cols.len() {
            probe.observe_cols(&cols, i, i + 1);
            streamed.extend(probe.take_flows());
        }
        assert!(!streamed.is_empty(), "the idle gap's sweep evicted flows before the end");
        let (rest, dns) = probe.finish();
        assert_eq!(dns, batch_dns, "dns path unaffected by taking flows");
        streamed.extend(rest);
        sort_flows_canonical(&mut streamed);
        assert_eq!(streamed, batch_flows);
    }

    /// Sealing at every sweep's marks, then taking `finish`'s tail,
    /// yields the batch output cut into pieces.
    #[test]
    fn pieces_sealed_at_the_probes_marks_concatenate_to_batch_finish() {
        let batch = run_with_shards(1);
        let mut probe = ShardedProbe::new(cfg(), 1);
        assert_eq!(probe.take_marks(), None, "no sweep yet");
        let (cols, mut got, mut pieces) = (stream(), (Vec::new(), Vec::new()), 0);
        // one packet per call: a mark is taken after every sweep
        for i in 0..cols.len() {
            probe.observe_cols(&cols, i, i + 1);
            if let Some(marks) = probe.take_marks() {
                let piece = probe.seal(marks);
                pieces += usize::from(!piece.flows.is_empty());
                got.0.extend(piece.flows);
                got.1.extend(piece.dns);
            }
        }
        let (rest, dns_tail) = probe.finish();
        pieces += usize::from(!rest.is_empty());
        got.0.extend(rest);
        got.1.extend(dns_tail);
        assert!(pieces > 1, "the idle gap's sweep released a piece before the end");
        assert_eq!(got, batch);
    }

    /// Kill-and-resume at an arbitrary mid-stream point must be
    /// invisible in the output: export, serialize, decode, import into
    /// a brand-new probe with the rows the checkpoint carried unsealed,
    /// continue with the remaining packets, and the records are
    /// byte-identical to the uninterrupted run. The two probes are
    /// built with different `shards` arguments: the argument is
    /// ignored.
    #[test]
    fn checkpoint_resume_is_bit_identical_across_shard_counts() {
        let pkts = stream();
        let baseline = run_with_shards(1);
        let cut = pkts.len() / 2;
        let mut first = ShardedProbe::new(cfg(), 1);
        first.observe_cols(&pkts, 0, cut);
        let state = first.export_state();
        assert!(!state.flows.is_empty(), "capture has live flows at the cut");
        let (flows, dns) = first.unsealed();
        assert!(!dns.is_empty(), "the log carries DNS transactions at the cut");
        let unsealed = Sealer::carrying(flows.to_vec(), dns.to_vec());
        drop(first.finish()); // the killed process's output is discarded
        let decoded = ProbeState::decode(&state.encode()).expect("state decodes");
        let mut resumed = ShardedProbe::new(cfg(), 4);
        resumed.import_state(decoded, unsealed).expect("state imports");
        resumed.observe_cols(&pkts, cut, pkts.len());
        assert_eq!(resumed.finish(), baseline);
    }

    /// The state the one probe exports is, byte for byte, the unified
    /// state the last version that could shard exported from this
    /// capture at 1, 2 and 4 shards (length and Fx hash captured
    /// there): state files of either version import into the other.
    /// That version drained the DNS log into the state; this one keeps
    /// it in the probe, so the pin puts it back.
    #[test]
    fn exported_state_is_shard_count_independent() {
        let pkts = stream();
        let mut probe = ShardedProbe::new(cfg(), 1);
        probe.observe_cols(&pkts, 0, pkts.len() / 2);
        let mut state = probe.export_state();
        assert!(state.dns_log.is_empty(), "the DNS log stays in the probe");
        state.dns_log = probe.unsealed().1.to_vec();
        let bytes = state.encode();
        assert_eq!((bytes.len(), satwatch_simcore::fx_hash_one(&bytes)), (17_143, 0x7be0_900d_fc3a_5efc));
        probe.finish();
    }

    /// A probe whose state reaches every piece of a flow's checkpoint:
    /// a c2s reassembler holding a ClientHello's tail ahead of the hole,
    /// an outstanding ground-RTT sample, a DPI verdict with a domain, a
    /// satellite-RTT estimator armed by a ServerHello, an s2c inspect
    /// buffer holding part of the certificate record after it, an RTP
    /// streak, and a pending DNS query.
    fn every_component() -> Probe {
        use satwatch_netstack::dns::{DnsMessage, RecordType};
        use satwatch_netstack::{rtp, tls, Packet, SeqNum, TcpFlags, TcpHeader};
        let (client, server) = (Ipv4Addr::new(10, 0, 0, 7), Ipv4Addr::new(198, 18, 0, 1));
        let tcp = |c2s: bool, sport: u16, flags: TcpFlags, seq: u32, ack: u32, payload: &[u8]| {
            let (src, dst, sp, dp) = if c2s { (client, server, sport, 443) } else { (server, client, 443, sport) };
            let mut h = TcpHeader::new(sp, dp, flags);
            (h.seq, h.ack) = (SeqNum(seq), SeqNum(ack));
            Packet::tcp(src, dst, h, Bytes::copy_from_slice(payload))
        };
        let hello = tls::client_hello("every.example.net", [5; 32]);
        let server_hello = tls::server_hello([6; 32]);
        let mut flight = server_hello.to_vec();
        flight.extend_from_slice(&tls::certificate(400, 0));
        let cut = server_hello.len() + 30;
        let mut p = Probe::new(cfg());
        for (ms, sport) in [(0, 50_000), (100, 50_001)] {
            p.observe(t(ms), &tcp(true, sport, TcpFlags::SYN, 100, 0, &[]));
            p.observe(t(ms + 12), &tcp(false, sport, TcpFlags::SYN_ACK, 900, 101, &[]));
            p.observe(t(ms + 12), &tcp(true, sport, TcpFlags::ACK, 101, 901, &[]));
        }
        // 50 000: the ClientHello's tail only, ahead of the hole
        p.observe(t(20), &tcp(true, 50_000, TcpFlags::PSH_ACK, 141, 901, &hello[40..]));
        // 50 001: the whole ClientHello, then the ServerHello and part
        // of the certificate record
        p.observe(t(113), &tcp(true, 50_001, TcpFlags::PSH_ACK, 101, 901, &hello));
        p.observe(t(125), &tcp(false, 50_001, TcpFlags::PSH_ACK, 901, 101 + hello.len() as u32, &flight[..cut]));
        let rtp = rtp::RtpHeader { payload_type: 111, sequence: 1, timestamp: 0, ssrc: 1, marker: false };
        p.observe(t(200), &Packet::udp(client, Ipv4Addr::new(198, 18, 0, 2), 40_000, 40_002, rtp.encode(160, 0)));
        let q = DnsMessage::query(9, "pending.example", RecordType::A);
        p.observe(t(300), &Packet::udp(client, Ipv4Addr::new(8, 8, 8, 8), 30_000, 53, q.encode()));
        p
    }

    /// [`every_component`]'s exported state, pinned (length and Fx hash
    /// captured before each component wrote its own bytes), and read
    /// back into a fresh probe it exports the same bytes again.
    #[test]
    fn a_state_reaching_every_component_encodes_to_pinned_bytes() {
        let bytes = every_component().export_state().encode();
        assert_eq!((bytes.len(), satwatch_simcore::fx_hash_one(&bytes)), (1_325, 0x1b45_7e63_9f6c_aa04));
        let mut resumed = Probe::new(cfg());
        resumed.import_state(ProbeState::decode(&bytes).expect("decodes"), Sealer::default()).expect("imports");
        assert_eq!(resumed.export_state().encode(), bytes);
    }

    #[test]
    fn packet_count_matches_single_probe() {
        let mut sharded = ShardedProbe::new(cfg(), 4);
        let mut single = Probe::new(cfg());
        let cols = stream();
        sharded.observe_cols(&cols, 0, cols.len());
        for i in 0..cols.len() {
            single.observe(cols.ts[i], &cols.materialize(i));
        }
        assert_eq!(sharded.packets, single.packets);
        sharded.finish();
    }
}
