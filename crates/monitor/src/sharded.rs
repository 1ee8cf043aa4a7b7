//! Sharded probe: the span-port stream partitioned across N worker
//! threads, each running a full [`Probe`], with a deterministic merge.
//!
//! ## Determinism contract
//!
//! `ShardedProbe` with any shard count produces **byte-identical**
//! output to a single [`Probe`] fed the same packet stream. Three
//! design choices make this true:
//!
//! 1. **Routing by host pair, not five-tuple.** The probe's DNS
//!    transaction table is keyed `(client, resolver, id)` — it ignores
//!    ports — so two queries from different source ports must land on
//!    the same shard to share state. Routing on the unordered
//!    `(min(src, dst), max(src, dst))` address pair guarantees every
//!    packet of a host pair (both directions, all ports, all
//!    protocols) is seen by exactly one shard. The hash is
//!    [`fx_hash_one`], which has no per-process random state, so the
//!    partition itself is reproducible run to run.
//!
//! 2. **Globally driven sweeps.** A single probe sweeps when a packet
//!    arrives ≥ `sweep_interval` after the last sweep. If each shard
//!    swept on *its own* packet arrivals, a quiet shard would sweep
//!    late and evict an idle flow after its five-tuple was reused,
//!    merging two flows that the single probe keeps separate. Instead
//!    the dispatcher keeps the one sweep clock and broadcasts
//!    `Sweep(t)` to every shard at exactly the moments the single
//!    probe would sweep. Per-shard channels are FIFO, so each shard
//!    has processed all packets before `t` when the sweep runs.
//!
//! 3. **Total merge keys.** Each shard's `finish()` output is sorted
//!    by the probe's canonical keys; the merge concatenates and
//!    re-sorts with the same keys. The flow key is total over distinct
//!    flows, and DNS ties always share a shard, so the merged order
//!    equals the single-probe order.

use crate::checkpoint::ProbeState;
use crate::probe::{dns_cmp, sort_flows_canonical, FlowSink, Probe, ProbeConfig};
use crate::record::{DnsRecord, FlowRecord};
use satwatch_netstack::PacketColumns;
use satwatch_simcore::{fx_hash_one, resolve_workers, SimDuration, SimTime};
use std::net::Ipv4Addr;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::thread::JoinHandle;

/// Per-shard channel depth. Deep enough to ride out transient
/// imbalance between shards without stalling the dispatcher.
const SHARD_QUEUE_DEPTH: usize = 4_096;

enum ShardMsg {
    /// A time-sorted same-host-pair columnar run, processed by the
    /// worker as one [`Probe::process_cols`] call. Boxed: the column
    /// struct is ~200 bytes of Vec headers and would dominate the
    /// enum's size otherwise.
    Cols(Box<PacketColumns>),
    Sweep(SimTime),
    /// Export the shard's probe state through the supplied channel.
    /// Per-shard channels are FIFO, so by the time a worker sees this
    /// it has processed every packet dispatched before the checkpoint.
    Checkpoint(SyncSender<ProbeState>),
    /// Install carry-over state (campaign resume; sent before any
    /// packets).
    Restore(Box<ProbeState>),
}

struct ShardOutput {
    flows: Vec<FlowRecord>,
    dns: Vec<DnsRecord>,
    packets: u64,
    parse_errors: u64,
}

enum Mode {
    /// One shard: run the probe inline, no threads, no channel.
    Single(Box<Probe>),
    Threaded {
        senders: Vec<SyncSender<ShardMsg>>,
        workers: Vec<JoinHandle<ShardOutput>>,
    },
}

/// A probe whose packet stream is partitioned across worker threads.
///
/// Construct with the desired shard count (`0` = one per core,
/// `1` = inline single probe) and use exactly like [`Probe`]:
/// `observe_cols()` per span in global time order, then `finish()`.
pub struct ShardedProbe {
    mode: Mode,
    sweep_interval: SimDuration,
    last_sweep: SimTime,
    /// Total packets dispatched (mirrors [`Probe::packets`]).
    pub packets: u64,
}

impl ShardedProbe {
    pub fn new(cfg: ProbeConfig, shards: usize) -> ShardedProbe {
        Self::build(cfg, shards, &mut None::<fn(usize) -> FlowSink>)
    }

    /// A sharded probe whose shards stream evicted flows into sinks
    /// instead of accumulating them: `make_sink(shard)` is called once
    /// per shard, on the caller's thread, before the shard starts.
    /// `finish()` then returns an empty flow vector. Evictions reach
    /// the sinks in per-shard eviction order — any global order must
    /// be restored by the consumer ([`sort_flows_canonical`]).
    pub fn with_flow_sink<F>(cfg: ProbeConfig, shards: usize, make_sink: F) -> ShardedProbe
    where
        F: FnMut(usize) -> FlowSink,
    {
        Self::build(cfg, shards, &mut Some(make_sink))
    }

    fn build<F>(cfg: ProbeConfig, shards: usize, make_sink: &mut Option<F>) -> ShardedProbe
    where
        F: FnMut(usize) -> FlowSink,
    {
        let shards = resolve_workers(shards);
        let mode = if shards <= 1 {
            let mut probe = Probe::new(cfg);
            if let Some(f) = make_sink {
                probe.set_flow_sink(f(0));
            }
            Mode::Single(Box::new(probe))
        } else {
            let mut senders = Vec::with_capacity(shards);
            let mut workers = Vec::with_capacity(shards);
            for shard in 0..shards {
                let (tx, rx) = sync_channel::<ShardMsg>(SHARD_QUEUE_DEPTH);
                senders.push(tx);
                let sink: Option<FlowSink> = make_sink.as_mut().map(|f| f(shard));
                let builder = std::thread::Builder::new().name(format!("probe-shard-{shard}"));
                let handle = builder
                    .spawn(move || {
                        let mut probe = Probe::new(cfg);
                        if let Some(sink) = sink {
                            probe.set_flow_sink(sink);
                        }
                        // resolved once per worker: the registry mutex
                        // stays off the per-packet path
                        let shard_packets = satwatch_telemetry::counter_with(
                            "monitor_shard_packets_total",
                            &[("shard", &shard.to_string())],
                        );
                        while let Ok(msg) = rx.recv() {
                            match msg {
                                ShardMsg::Cols(c) => {
                                    shard_packets.add(c.len() as u64);
                                    probe.process_cols(&c, 0, c.len());
                                }
                                ShardMsg::Sweep(t) => probe.sweep_now(t),
                                ShardMsg::Checkpoint(tx) => {
                                    let _ = tx.send(probe.export_state());
                                }
                                ShardMsg::Restore(s) => {
                                    probe.import_state(*s).expect("restore checksummed checkpoint state");
                                }
                            }
                        }
                        let packets = probe.packets;
                        let parse_errors = probe.parse_errors;
                        let (flows, dns) = probe.finish();
                        ShardOutput { flows, dns, packets, parse_errors }
                    })
                    .expect("spawn probe shard");
                workers.push(handle);
            }
            Mode::Threaded { senders, workers }
        };
        ShardedProbe { mode, sweep_interval: cfg.sweep_interval, last_sweep: SimTime::ZERO, packets: 0 }
    }

    /// Number of shards actually running.
    pub fn shards(&self) -> usize {
        match &self.mode {
            Mode::Single(_) => 1,
            Mode::Threaded { senders, .. } => senders.len(),
        }
    }

    /// Observe columnar rows `[start, end)` of `cols` (one merge-drain
    /// span), which must follow every earlier span in global time
    /// order. Equivalent to [`Probe::observe_cols`] on one probe: the
    /// span is routed in same-host-pair sub-runs, each shipped to its
    /// shard as an extracted [`PacketColumns`] (payload blocks shared
    /// zero-copy). A span that straddles one or more sweep moments is
    /// split at each boundary, so the sweep broadcast lands at exactly
    /// the single-probe moment — after the first row at or past the
    /// boundary, at its timestamp.
    pub fn observe_cols(&mut self, cols: &PacketColumns, start: usize, end: usize) {
        if start >= end {
            return;
        }
        self.packets += (end - start) as u64;
        match &mut self.mode {
            Mode::Single(probe) => probe.observe_cols(cols, start, end),
            Mode::Threaded { senders, .. } => {
                let mut i = start;
                while i < end {
                    let boundary = self.last_sweep + self.sweep_interval;
                    let j = cols.ts[i..end].partition_point(|&t| t < boundary) + i;
                    if j == end {
                        dispatch_cols(senders, cols, i, end);
                        return;
                    }
                    dispatch_cols(senders, cols, i, j + 1);
                    for tx in senders.iter() {
                        tx.send(ShardMsg::Sweep(cols.ts[j])).expect("probe shard alive");
                    }
                    self.last_sweep = cols.ts[j];
                    i = j + 1;
                }
            }
        }
    }

    /// Snapshot the complete probe state for a campaign checkpoint:
    /// every shard exports (after draining all packets dispatched so
    /// far — FIFO channels guarantee ordering) and the per-shard
    /// states merge into one unified, shard-count-independent
    /// [`ProbeState`]. Like [`Probe::export_state`], this drains the
    /// DNS logs into the returned state but leaves live flows and
    /// pending DNS tracking undisturbed — the capture continues.
    pub fn export_state(&mut self) -> ProbeState {
        match &mut self.mode {
            Mode::Single(probe) => probe.export_state(),
            Mode::Threaded { senders, .. } => {
                let mut pending = Vec::with_capacity(senders.len());
                for tx in senders.iter() {
                    let (rtx, rrx) = sync_channel(1);
                    tx.send(ShardMsg::Checkpoint(rtx)).expect("probe shard alive");
                    pending.push(rrx);
                }
                ProbeState::merge(pending.into_iter().map(|rx| rx.recv().expect("probe shard responds")).collect())
            }
        }
    }

    /// Restore checkpointed state into a fresh sharded probe (campaign
    /// resume). Entries are redistributed with the same host-pair hash
    /// the dispatcher routes packets with, so every flow and pending
    /// DNS transaction lands on the shard that will see its future
    /// packets — at *any* shard count, not just the one that exported.
    /// The dispatcher's sweep clock is restored too: the next sweep
    /// broadcast fires exactly when the uninterrupted run's would.
    pub fn import_state(&mut self, state: ProbeState) -> Result<(), crate::checkpoint::CheckpointError> {
        self.last_sweep = state.last_sweep;
        self.packets = state.packets;
        match &mut self.mode {
            Mode::Single(probe) => probe.import_state(state),
            Mode::Threaded { senders, .. } => {
                let n = senders.len();
                let mut shards: Vec<ProbeState> = (0..n).map(|_| ProbeState::empty()).collect();
                for s in &mut shards {
                    s.last_sweep = state.last_sweep;
                }
                for f in state.flows {
                    shards[shard_of(f.src, f.dst, n)].flows.push(f);
                }
                for p in state.pending_dns {
                    shards[shard_of(p.client, p.resolver, n)].pending_dns.push(p);
                }
                // DNS-log routing uses the *anonymized* client — fine:
                // CryptoPan is 1:1, so tied records (which share a raw
                // client/resolver pair) still land on one shard in
                // their original observation order.
                for d in state.dns_log {
                    let shard = shard_of(d.client, d.resolver, n);
                    shards[shard].dns_log.push(d);
                }
                // Global counters are not meaningfully divisible;
                // giving them whole to shard 0 keeps their sums right.
                shards[0].packets = state.packets;
                shards[0].parse_errors = state.parse_errors;
                shards[0].transit_packets = state.transit_packets;
                for (tx, s) in senders.iter().zip(shards) {
                    tx.send(ShardMsg::Restore(Box::new(s))).expect("probe shard alive");
                }
                Ok(())
            }
        }
    }

    /// Finish the capture: flush every shard and merge the outputs
    /// into the canonical single-probe order.
    pub fn finish(self) -> (Vec<FlowRecord>, Vec<DnsRecord>) {
        match self.mode {
            Mode::Single(probe) => probe.finish(),
            Mode::Threaded { senders, workers } => {
                drop(senders); // close channels; workers drain and flush
                let mut flows = Vec::new();
                let mut dns = Vec::new();
                for handle in workers {
                    let out = handle.join().expect("probe shard finished");
                    debug_assert_eq!(out.parse_errors, 0, "shards receive pre-parsed packets");
                    let _ = out.packets;
                    flows.extend(out.flows);
                    dns.extend(out.dns);
                }
                // Stable sorts + total/tie-safe keys ⇒ identical bytes
                // to the single probe (see module docs).
                sort_flows_canonical(&mut flows);
                dns.sort_by(dns_cmp);
                (flows, dns)
            }
        }
    }
}

/// Route a packet to a shard by its unordered address pair.
fn shard_of(src: Ipv4Addr, dst: Ipv4Addr, shards: usize) -> usize {
    let pair = if src <= dst { (src, dst) } else { (dst, src) };
    (fx_hash_one(&pair) % shards as u64) as usize
}

/// Ship the sweep-free rows `[start, end)` to the shards in
/// same-host-pair sub-runs: the shard hash is recomputed only when the
/// address pair changes (a run alternates between at most a couple of
/// pairs). Sub-runs are carved out with [`PacketColumns::extract`],
/// which copies only the scalar columns and shares the payload blocks
/// zero-copy.
fn dispatch_cols(senders: &[SyncSender<ShardMsg>], cols: &PacketColumns, start: usize, end: usize) {
    let n = senders.len();
    let mut seg = start;
    let (mut last_src, mut last_dst) = (cols.src[start], cols.dst[start]);
    let mut cur_shard = shard_of(last_src, last_dst, n);
    for i in start + 1..end {
        let (s, d) = (cols.src[i], cols.dst[i]);
        if (s == last_src && d == last_dst) || (s == last_dst && d == last_src) {
            continue;
        }
        (last_src, last_dst) = (s, d);
        let shard = shard_of(s, d, n);
        if shard != cur_shard {
            senders[cur_shard].send(ShardMsg::Cols(Box::new(cols.extract(seg, i)))).expect("probe shard alive");
            seg = i;
            cur_shard = shard;
        }
    }
    senders[cur_shard].send(ShardMsg::Cols(Box::new(cols.extract(seg, end)))).expect("probe shard alive");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowtable::FlowTableConfig;
    use bytes::Bytes;
    use satwatch_netstack::{SortScratch, Subnet};

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

    #[test]
    fn shard_counts_agree_exactly() {
        let baseline = run_with_shards(1);
        assert!(!baseline.0.is_empty() && !baseline.1.is_empty());
        for shards in [2, 3, 4, 8] {
            let sharded = run_with_shards(shards);
            assert_eq!(sharded.0, baseline.0, "flows differ at {shards} shards");
            assert_eq!(sharded.1, baseline.1, "dns differs at {shards} shards");
        }
    }

    #[test]
    fn both_directions_route_to_same_shard() {
        for n in [2usize, 3, 5, 8] {
            let a = Ipv4Addr::new(10, 1, 2, 3);
            let b = Ipv4Addr::new(198, 18, 0, 7);
            assert_eq!(shard_of(a, b, n), shard_of(b, a, n));
        }
    }

    #[test]
    fn sink_streams_same_flows_as_batch_finish() {
        use std::sync::{Arc, Mutex};
        let (batch_flows, batch_dns) = run_with_shards(1);
        for shards in [1usize, 4] {
            let collected: Arc<Mutex<Vec<FlowRecord>>> = Arc::new(Mutex::new(Vec::new()));
            let mut probe = ShardedProbe::with_flow_sink(cfg(), shards, |_shard| {
                let collected = Arc::clone(&collected);
                Box::new(move |f| collected.lock().unwrap().push(f)) as FlowSink
            });
            let cols = stream();
            probe.observe_cols(&cols, 0, cols.len());
            let (rest, dns) = probe.finish();
            assert!(rest.is_empty(), "sink mode returns no batch flows");
            assert_eq!(dns, batch_dns, "dns path unaffected by the sink");
            let mut streamed = Arc::try_unwrap(collected).unwrap().into_inner().unwrap();
            // eviction order is not canonical; the sort key recovers it
            sort_flows_canonical(&mut streamed);
            assert_eq!(streamed, batch_flows, "shards={shards}");
        }
    }

    /// Kill-and-resume at an arbitrary mid-stream point must be
    /// invisible in the output: export, serialize, decode, import into
    /// a brand-new probe (even at a different shard count), continue
    /// with the remaining packets, and the merged records are
    /// byte-identical to the uninterrupted run.
    #[test]
    fn checkpoint_resume_is_bit_identical_across_shard_counts() {
        let pkts = stream();
        let baseline = run_with_shards(1);
        let cut = pkts.len() / 2;
        for (shards_before, shards_after) in [(1usize, 4usize), (4, 1), (3, 5)] {
            let mut first = ShardedProbe::new(cfg(), shards_before);
            first.observe_cols(&pkts, 0, cut);
            let state = first.export_state();
            drop(first.finish()); // the killed process's output is discarded
            let bytes = state.encode();
            let decoded = ProbeState::decode(&bytes).expect("state decodes");
            // the log drained at checkpoint time is the campaign's to keep
            let mut early_dns = Vec::new();
            let mut resumed = ShardedProbe::new(cfg(), shards_after);
            let mut decoded = decoded;
            early_dns.append(&mut decoded.dns_log);
            resumed.import_state(decoded).expect("state imports");
            resumed.observe_cols(&pkts, cut, pkts.len());
            let (flows, late_dns) = resumed.finish();
            let mut dns = early_dns;
            dns.extend(late_dns);
            dns.sort_by(dns_cmp);
            assert_eq!(flows, baseline.0, "flows differ: {shards_before} → {shards_after} shards");
            assert_eq!(dns, baseline.1, "dns differs: {shards_before} → {shards_after} shards");
        }
    }

    /// The unified state is shard-count independent: exporting the
    /// same capture from 1 and 4 shards yields identical bytes.
    #[test]
    fn exported_state_is_shard_count_independent() {
        let pkts = stream();
        let cut = pkts.len() / 2;
        let mut bytes = Vec::new();
        for shards in [1usize, 2, 4] {
            let mut probe = ShardedProbe::new(cfg(), shards);
            probe.observe_cols(&pkts, 0, cut);
            let state = probe.export_state();
            assert!(!state.flows.is_empty(), "capture has live flows at the cut");
            bytes.push(state.encode());
            probe.finish();
        }
        assert_eq!(bytes[0], bytes[1]);
        assert_eq!(bytes[0], bytes[2]);
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
        assert_eq!(sharded.shards(), 4);
        sharded.finish();
    }
}
