//! 5-tuple flow tracking: the monitor's core data structure.
//!
//! Mirrors Tstat's design (paper §2.2): flows keyed by the classic
//! 5-tuple, per-direction counters, first-10-packet timing, TCP state
//! observation, RTT estimation, and DPI — all updated in one pass over
//! the packet stream, with idle-timeout eviction bounding memory.

use crate::checkpoint::{self, CheckpointError, FlowEntry, Reader};
use crate::dpi::Dpi;
use crate::inspect::InspectBuffer;
use crate::intern::{Domain, DomainInterner};
use crate::reassembly::StreamReassembler;
use crate::record::{EarlyPacket, FlowRecord, L7Protocol, RttSummary};
use crate::rtt::{GroundRtt, SatRtt};
use satwatch_netstack::ip::proto;
use satwatch_netstack::{FiveTuple, Ipv4Header, Packet, PacketColumns, SeqNum, Subnet, TcpFlags, Transport};
use satwatch_simcore::stats::Running;
use satwatch_simcore::{fx_map_with_capacity, FxHashMap, SimDuration, SimTime};
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// Telemetry handles, shared by every flow table (the gauges sum
/// correctly because each table only adds/subtracts its own flows).
/// Write-only: the table never reads these back, so recording cannot
/// perturb output.
struct Metrics {
    live_flows: &'static satwatch_telemetry::Gauge,
    evictions: &'static satwatch_telemetry::Counter,
    transit: &'static satwatch_telemetry::Counter,
    /// One counter per DPI verdict, indexed by [`verdict_index`].
    verdicts: [&'static satwatch_telemetry::Counter; 7],
}

fn metrics() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| {
        use crate::record::L7Protocol as P;
        let v = |p: P| satwatch_telemetry::counter_with("monitor_dpi_verdicts_total", &[("l7", p.label())]);
        Metrics {
            live_flows: satwatch_telemetry::gauge("monitor_flowtable_flows"),
            evictions: satwatch_telemetry::counter("monitor_flowtable_evictions_total"),
            transit: satwatch_telemetry::counter("monitor_transit_packets_total"),
            verdicts: [v(P::TlsHttps), v(P::Http), v(P::Quic), v(P::Dns), v(P::Rtp), v(P::OtherTcp), v(P::OtherUdp)],
        }
    })
}

/// Index into [`Metrics::verdicts`] for a DPI verdict.
fn verdict_index(l7: crate::record::L7Protocol) -> usize {
    use crate::record::L7Protocol as P;
    match l7 {
        P::TlsHttps => 0,
        P::Http => 1,
        P::Quic => 2,
        P::Dns => 3,
        P::Rtp => 4,
        P::OtherTcp => 5,
        P::OtherUdp => 6,
    }
}

/// Inverse of [`verdict_index`] — the checkpoint codec stores a DPI
/// verdict as its index in this array.
const VERDICT_ORDER: [L7Protocol; 7] = [
    L7Protocol::TlsHttps,
    L7Protocol::Http,
    L7Protocol::Quic,
    L7Protocol::Dns,
    L7Protocol::Rtp,
    L7Protocol::OtherTcp,
    L7Protocol::OtherUdp,
];

/// Evict flows idle longer than this (Tstat default is minutes; UDP
/// flows in particular only end by timeout).
const IDLE_TIMEOUT: SimDuration = SimDuration::from_secs(120);

/// How many early packets to time-stamp per flow.
const EARLY_PACKETS: usize = 10;

/// Flow-table configuration.
#[derive(Clone, Copy, Debug)]
pub struct FlowTableConfig {
    /// The operator's customer address space: packets sourced here are
    /// client→server, packets destined here are server→client,
    /// anything else is transit and ignored.
    pub customer_subnet: Subnet,
}

impl FlowTableConfig {
    pub fn new(customer_subnet: Subnet) -> FlowTableConfig {
        FlowTableConfig { customer_subnet }
    }
}

/// Which way a packet crosses the vantage point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Customer → internet (upload side).
    C2s,
    /// Internet → customer (download side).
    S2c,
}

#[derive(Debug)]
struct FlowState {
    key: FiveTuple, // client-first orientation
    first: SimTime,
    last: SimTime,
    c2s_packets: u64,
    c2s_bytes: u64,
    c2s_payload: u64,
    s2c_packets: u64,
    s2c_bytes: u64,
    s2c_payload: u64,
    early: Vec<EarlyPacket>,
    syn_seen: bool,
    fin_c2s: bool,
    fin_s2c: bool,
    rst_seen: bool,
    c2s_retrans: u64,
    s2c_retrans: u64,
    /// Highest sequence end seen per direction (retransmission detection).
    c2s_high: Option<satwatch_netstack::SeqNum>,
    s2c_high: Option<satwatch_netstack::SeqNum>,
    s2c_data_first: Option<SimTime>,
    s2c_data_last: Option<SimTime>,
    ground: GroundRtt,
    sat: SatRtt,
    dpi: Dpi,
    /// Per-direction reassembly feeding DPI and the TLS estimator.
    c2s_stream: StreamReassembler,
    s2c_stream: StreamReassembler,
    c2s_inspect: InspectBuffer,
    s2c_inspect: InspectBuffer,
}

impl FlowState {
    /// The early-packet log is sized once, for good: it never grows,
    /// and `finish_record` hands the allocation on.
    fn new(key: FiveTuple, t: SimTime) -> FlowState {
        FlowState {
            key,
            first: t,
            last: t,
            c2s_packets: 0,
            c2s_bytes: 0,
            c2s_payload: 0,
            s2c_packets: 0,
            s2c_bytes: 0,
            s2c_payload: 0,
            early: Vec::with_capacity(EARLY_PACKETS),
            syn_seen: false,
            fin_c2s: false,
            fin_s2c: false,
            rst_seen: false,
            c2s_retrans: 0,
            s2c_retrans: 0,
            c2s_high: None,
            s2c_high: None,
            s2c_data_first: None,
            s2c_data_last: None,
            ground: GroundRtt::new(),
            sat: SatRtt::new(),
            dpi: Dpi::new(key.protocol == proto::TCP, key.dst_port),
            c2s_stream: StreamReassembler::new(),
            s2c_stream: StreamReassembler::new(),
            c2s_inspect: InspectBuffer::default(),
            s2c_inspect: InspectBuffer::default(),
        }
    }

    fn closed(&self) -> bool {
        self.rst_seen || (self.fin_c2s && self.fin_s2c)
    }

    /// The non-counter per-packet touches: last-seen stamp, early
    /// packet log, download-data timing. Counter accumulation lives
    /// with the caller so the stretch path can batch it in locals.
    #[inline]
    fn stamp(&mut self, t: SimTime, dir: Direction, wire_len: usize, payload_len: u64) {
        self.last = self.last.max(t);
        if dir == Direction::S2c && payload_len > 0 {
            self.s2c_data_first.get_or_insert(t);
            self.s2c_data_last = Some(t);
        }
        if self.early.len() < EARLY_PACKETS {
            self.early.push(EarlyPacket {
                offset_ms: (t - self.first).as_millis_f64(),
                wire_len: wire_len.min(u16::MAX as usize) as u16,
                c2s: dir == Direction::C2s,
            });
        }
    }

    /// TCP state observation for one segment: handshake/teardown
    /// flags, retransmission heuristic, RTT estimators, reassembly
    /// into the DPI. Needs the shared intern table, nothing else from
    /// the flow table — so the batch path can hold one `&mut` to the
    /// flow across a whole stretch.
    ///
    /// Takes scalar header fields and the payload as a slice of the
    /// caller's buffer — a wire frame, a `Packet`'s `Bytes`, a column
    /// run's arena block. `owned` is the same bytes as a `Bytes` and is
    /// invoked at most once, only when the reassembler has to keep the
    /// segment behind a hole: the one place payload outlives the call.
    /// The sequence space the segment occupies is `payload.len()`, the
    /// bytes in hand, also on a snapped frame (DESIGN.md §14).
    #[allow(clippy::too_many_arguments)]
    fn on_tcp(
        &mut self,
        t: SimTime,
        dir: Direction,
        flags: TcpFlags,
        seq: SeqNum,
        ack: SeqNum,
        payload: &[u8],
        owned: impl FnOnce() -> bytes::Bytes,
        names: &mut DomainInterner,
    ) {
        let payload_len = payload.len();
        if flags.syn() {
            self.syn_seen = true;
            // anchor the direction's stream at ISN + 1
            let stream = match dir {
                Direction::C2s => &mut self.c2s_stream,
                Direction::S2c => &mut self.s2c_stream,
            };
            stream.set_base(seq + 1);
        }
        if flags.rst() {
            self.rst_seen = true;
        }
        // Retransmission detection: a payload-bearing segment whose end
        // does not advance the direction's high-water mark re-occupies
        // already-seen sequence space (Tstat's rexmit heuristic).
        if payload_len > 0 {
            let end = seq + payload_len as u32;
            let high = match dir {
                Direction::C2s => &mut self.c2s_high,
                Direction::S2c => &mut self.s2c_high,
            };
            match high {
                Some(h) if !end.after(*h) => match dir {
                    Direction::C2s => self.c2s_retrans += 1,
                    Direction::S2c => self.s2c_retrans += 1,
                },
                Some(h) => *h = end,
                None => *high = Some(end),
            }
        }
        // Reassembly exists only to feed the DPI and the satellite-RTT
        // estimator. Once both are terminal — the DPI verdict/domain
        // can never change again (`is_satisfied` contract) and the
        // handshake RTT sample is captured (`SatRtt` ignores all input
        // after its first sample) — delivering more stream bytes is
        // output-identical to dropping them, so skip the per-segment
        // reassembler insert and inspect-buffer copy entirely. For a
        // TLS bulk flow that removes ~2×128 KiB of memcpy. Checked
        // here, per segment, so the per-packet and stretch paths make
        // the same decision at the same point in the flow.
        let inspect_done = self.sat.sample_ms().is_some() && self.dpi.is_satisfied();
        match dir {
            Direction::C2s => {
                if flags.fin() {
                    self.fin_c2s = true;
                }
                // outbound data (or SYN/FIN occupying sequence space)
                let mut consumed = payload_len as u32;
                if flags.syn() || flags.fin() {
                    consumed += 1;
                }
                if consumed > 0 {
                    self.ground.on_data_out(t, seq + consumed);
                }
                if !inspect_done {
                    let FlowState { sat, dpi, c2s_stream, c2s_inspect, .. } = self;
                    c2s_stream.insert(seq, payload, owned, |chunk| {
                        c2s_inspect.feed(chunk, |unit| {
                            sat.on_c2s_payload(t, unit);
                            dpi.inspect(unit, true, names);
                        })
                    });
                }
            }
            Direction::S2c => {
                if flags.fin() {
                    self.fin_s2c = true;
                }
                if flags.ack() {
                    self.ground.on_ack_in(t, ack);
                }
                if !inspect_done {
                    let FlowState { sat, dpi, s2c_stream, s2c_inspect, .. } = self;
                    s2c_stream.insert(seq, payload, owned, |chunk| {
                        s2c_inspect.feed(chunk, |unit| {
                            sat.on_s2c_payload(t, unit);
                            dpi.inspect(unit, false, names);
                        })
                    });
                }
            }
        }
    }

    /// The flow's output record. Called once, on the boxed state a
    /// finalising path just took out of the map: the state stays where
    /// it is, only the early log's allocation moves into the record.
    fn finish_record(&mut self) -> FlowRecord {
        let ground_rtt = RttSummary::from_running(self.ground.stats());
        let l7 = self.dpi.verdict();
        metrics().verdicts[verdict_index(l7)].inc();
        let domain = self.dpi.domain_handle();
        // DNS flows on TCP port 53 would be OtherTcp; our DPI verdict
        // already covers UDP/53.
        FlowRecord {
            client: self.key.src,
            server: self.key.dst,
            client_port: self.key.src_port,
            server_port: self.key.dst_port,
            ip_proto: self.key.protocol,
            first: self.first,
            last: self.last,
            c2s_packets: self.c2s_packets,
            c2s_bytes: self.c2s_bytes,
            c2s_payload_bytes: self.c2s_payload,
            s2c_packets: self.s2c_packets,
            s2c_bytes: self.s2c_bytes,
            s2c_payload_bytes: self.s2c_payload,
            early: std::mem::take(&mut self.early),
            c2s_retrans: self.c2s_retrans,
            s2c_retrans: self.s2c_retrans,
            syn_seen: self.syn_seen,
            fin_seen: self.fin_c2s || self.fin_s2c,
            rst_seen: self.rst_seen,
            ground_rtt,
            s2c_data_first: self.s2c_data_first,
            s2c_data_last: self.s2c_data_last,
            sat_rtt_ms: self.sat.sample_ms(),
            l7,
            domain,
        }
    }

    /// Checkpoint serialization. The layout leads with the canonical
    /// key prefix `(src, dst, src_port, dst_port, protocol, first)`
    /// that [`checkpoint::FlowEntry`] parses without decoding the full
    /// state. Floats are exact bit patterns; a restored flow continues
    /// the identical packet-by-packet state trajectory.
    fn write_state(&self, w: &mut Vec<u8>) {
        use checkpoint::*;
        put_ip(w, self.key.src);
        put_ip(w, self.key.dst);
        put_u16(w, self.key.src_port);
        put_u16(w, self.key.dst_port);
        put_u8(w, self.key.protocol);
        put_u64(w, self.first.as_nanos());
        put_u64(w, self.last.as_nanos());
        put_u64(w, self.c2s_packets);
        put_u64(w, self.c2s_bytes);
        put_u64(w, self.c2s_payload);
        put_u64(w, self.s2c_packets);
        put_u64(w, self.s2c_bytes);
        put_u64(w, self.s2c_payload);
        put_u32(w, self.early.len() as u32);
        for e in &self.early {
            put_f64(w, e.offset_ms);
            put_u16(w, e.wire_len);
            put_bool(w, e.c2s);
        }
        let flags = u8::from(self.syn_seen)
            | u8::from(self.fin_c2s) << 1
            | u8::from(self.fin_s2c) << 2
            | u8::from(self.rst_seen) << 3;
        put_u8(w, flags);
        put_u64(w, self.c2s_retrans);
        put_u64(w, self.s2c_retrans);
        put_opt_u32(w, self.c2s_high.map(|s| s.0));
        put_opt_u32(w, self.s2c_high.map(|s| s.0));
        put_opt_u64(w, self.s2c_data_first.map(SimTime::as_nanos));
        put_opt_u64(w, self.s2c_data_last.map(SimTime::as_nanos));
        // ground RTT estimator
        let (outstanding, highest_sent, samples) = self.ground.export_state();
        put_u32(w, outstanding.len() as u32);
        for &(seq, t) in outstanding {
            put_u32(w, seq.0);
            put_u64(w, t.as_nanos());
        }
        put_opt_u32(w, highest_sent.map(|s| s.0));
        let (n, mean, m2, min, max) = samples.to_parts();
        put_u64(w, n);
        put_f64(w, mean);
        put_f64(w, m2);
        put_f64(w, min);
        put_f64(w, max);
        // satellite RTT estimator
        let (server_hello_at, sample_ms) = self.sat.export_state();
        put_opt_u64(w, server_hello_at.map(SimTime::as_nanos));
        put_opt_f64(w, sample_ms);
        // DPI
        let (is_tcp, server_port, verdict, domain, saw_ch, rtp_streak, inspected) = self.dpi.export_state();
        put_bool(w, is_tcp);
        put_u16(w, server_port);
        match verdict {
            Some(v) => {
                put_u8(w, 1);
                put_u8(w, verdict_index(v) as u8);
            }
            None => put_u8(w, 0),
        }
        match domain {
            Some(d) => {
                put_u8(w, 1);
                put_str(w, d);
            }
            None => put_u8(w, 0),
        }
        put_bool(w, saw_ch);
        put_u8(w, rtp_streak);
        put_u32(w, inspected);
        // per-direction reassemblers and inspect buffers
        for stream in [&self.c2s_stream, &self.s2c_stream] {
            let (base, next_off, delivered, dropped, pending) = stream.export_state();
            put_opt_u32(w, base.map(|s| s.0));
            put_u64(w, next_off);
            put_u64(w, delivered);
            put_u64(w, dropped);
            put_u32(w, pending.len() as u32);
            for (off, seg) in pending {
                put_u64(w, off);
                put_bytes(w, seg);
            }
        }
        self.c2s_inspect.write_state(w);
        self.s2c_inspect.write_state(w);
    }

    /// Inverse of [`write_state`](Self::write_state). Domain names are
    /// re-interned through `names` so restored flows share one
    /// allocation per name like freshly-tracked ones.
    fn read_state(r: &mut Reader<'_>, names: &mut DomainInterner) -> Result<FlowState, CheckpointError> {
        let key = FiveTuple { src: r.ip()?, dst: r.ip()?, src_port: r.u16()?, dst_port: r.u16()?, protocol: r.u8()? };
        let first = SimTime::from_nanos(r.u64()?);
        let last = SimTime::from_nanos(r.u64()?);
        let c2s_packets = r.u64()?;
        let c2s_bytes = r.u64()?;
        let c2s_payload = r.u64()?;
        let s2c_packets = r.u64()?;
        let s2c_bytes = r.u64()?;
        let s2c_payload = r.u64()?;
        let nearly = r.u32()? as usize;
        // room for the log to fill up, as `new` gives a fresh flow
        let mut early = Vec::with_capacity(nearly.clamp(EARLY_PACKETS, 64));
        for _ in 0..nearly {
            early.push(EarlyPacket { offset_ms: r.f64()?, wire_len: r.u16()?, c2s: r.bool()? });
        }
        let flags = r.u8()?;
        if flags & !0x0f != 0 {
            return Err(CheckpointError::Corrupt("flow flags"));
        }
        let c2s_retrans = r.u64()?;
        let s2c_retrans = r.u64()?;
        let c2s_high = r.opt_u32()?.map(SeqNum);
        let s2c_high = r.opt_u32()?.map(SeqNum);
        let s2c_data_first = r.opt_u64()?.map(SimTime::from_nanos);
        let s2c_data_last = r.opt_u64()?.map(SimTime::from_nanos);
        let nout = r.u32()? as usize;
        let mut outstanding = Vec::with_capacity(nout.min(64));
        for _ in 0..nout {
            outstanding.push((SeqNum(r.u32()?), SimTime::from_nanos(r.u64()?)));
        }
        let highest_sent = r.opt_u32()?.map(SeqNum);
        let samples = {
            let n = r.u64()?;
            let (mean, m2, min, max) = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
            Running::from_parts(n, mean, m2, min, max)
        };
        let ground = GroundRtt::restore_state(outstanding, highest_sent, samples);
        let sat = SatRtt::restore_state(r.opt_u64()?.map(SimTime::from_nanos), r.opt_f64()?);
        let is_tcp = r.bool()?;
        let server_port = r.u16()?;
        let verdict = if r.bool()? {
            let idx = r.u8()? as usize;
            Some(*VERDICT_ORDER.get(idx).ok_or(CheckpointError::Corrupt("dpi verdict"))?)
        } else {
            None
        };
        let domain = if r.bool()? { Some(names.intern(r.str()?)) } else { None };
        let saw_ch = r.bool()?;
        let rtp_streak = r.u8()?;
        let inspected = r.u32()?;
        let dpi = Dpi::restore_state(is_tcp, server_port, verdict, domain, saw_ch, rtp_streak, inspected);
        let mut streams = [StreamReassembler::new(), StreamReassembler::new()];
        for stream in &mut streams {
            let base = r.opt_u32()?.map(SeqNum);
            let next_off = r.u64()?;
            let delivered = r.u64()?;
            let dropped = r.u64()?;
            let npend = r.u32()? as usize;
            let mut pending = Vec::with_capacity(npend.min(64));
            for _ in 0..npend {
                let off = r.u64()?;
                pending.push((off, bytes::Bytes::copy_from_slice(r.bytes()?)));
            }
            *stream = StreamReassembler::restore_state(base, next_off, delivered, dropped, pending);
        }
        let [c2s_stream, s2c_stream] = streams;
        let c2s_inspect = InspectBuffer::read_state(r)?;
        let s2c_inspect = InspectBuffer::read_state(r)?;
        Ok(FlowState {
            key,
            first,
            last,
            c2s_packets,
            c2s_bytes,
            c2s_payload,
            s2c_packets,
            s2c_bytes,
            s2c_payload,
            early,
            syn_seen: flags & 1 != 0,
            fin_c2s: flags & 2 != 0,
            fin_s2c: flags & 4 != 0,
            rst_seen: flags & 8 != 0,
            c2s_retrans,
            s2c_retrans,
            c2s_high,
            s2c_high,
            s2c_data_first,
            s2c_data_last,
            ground,
            sat,
            dpi,
            c2s_stream,
            s2c_stream,
            c2s_inspect,
            s2c_inspect,
        })
    }
}

/// The flow table.
#[derive(Debug)]
pub struct FlowTable {
    cfg: FlowTableConfig,
    /// Fx-hashed: five-tuples are simulator-generated, not adversarial,
    /// and this map is touched once per packet.
    flows: FxHashMap<FiveTuple, Box<FlowState>>,
    /// Records finalised and not yet taken: the probe logs them, or
    /// `flush` returns them.
    pub(crate) finished: Vec<FlowRecord>,
    /// Shared intern table for every name the DPI (or the probe's DNS
    /// log) extracts.
    names: DomainInterner,
    /// Scratch for the columnar stretch walker: row indices whose
    /// payload the deferred-DPI second pass must replay (reused across
    /// stretches to stay allocation-free; never part of checkpoints).
    dpi_candidates: Vec<u32>,
    /// Count of transit packets ignored (neither endpoint a customer).
    pub transit_packets: u64,
}

/// Take a finished flow out of the map and log its record.
fn finalise(flows: &mut FxHashMap<FiveTuple, Box<FlowState>>, finished: &mut Vec<FlowRecord>, key: &FiveTuple) {
    let mut flow = flows.remove(key).expect("finished flow is in the map");
    metrics().live_flows.dec();
    finished.push(flow.finish_record());
}

/// Typical concurrent-flow population per probe: enough to avoid
/// rehashing during warm-up without wasting memory when idle.
const FLOW_TABLE_PRESIZE: usize = 1_024;

impl FlowTable {
    pub fn new(cfg: FlowTableConfig) -> FlowTable {
        FlowTable {
            cfg,
            flows: fx_map_with_capacity(FLOW_TABLE_PRESIZE),
            finished: Vec::new(),
            names: DomainInterner::new(),
            dpi_candidates: Vec::new(),
            transit_packets: 0,
        }
    }

    /// Direction of a packet relative to the customer subnet, or
    /// `None` for transit traffic.
    pub fn direction(&self, pkt: &Packet) -> Option<Direction> {
        self.direction_of(pkt.ip.src, pkt.ip.dst)
    }

    /// [`direction`](Self::direction) on bare addresses — the columnar
    /// path classifies rows without materializing a packet.
    pub fn direction_of(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Option<Direction> {
        let src_cust = self.cfg.customer_subnet.contains(src);
        let dst_cust = self.cfg.customer_subnet.contains(dst);
        match (src_cust, dst_cust) {
            (true, false) => Some(Direction::C2s),
            (false, true) => Some(Direction::S2c),
            _ => None,
        }
    }

    /// Process one packet observed at time `t`.
    pub fn process(&mut self, t: SimTime, pkt: &Packet) {
        self.process_parts(t, &pkt.ip, &pkt.transport, pkt.wire_len(), pkt.payload_len(), &pkt.payload, || {
            pkt.payload.clone()
        });
    }

    /// The per-packet walker, on borrowed parts: what
    /// [`process`](Self::process) and the probe's wire path both run.
    ///
    /// `wire_len` and `payload_len` are the lengths on the wire, which
    /// the byte counters and the early-packet log account; `payload`
    /// is the bytes in hand, which is all DPI and reassembly can look
    /// at. They differ only for a frame a capture snapped. `owned`
    /// yields `payload` as a `Bytes`, should the reassembler have to
    /// keep it.
    #[allow(clippy::too_many_arguments)]
    pub fn process_parts(
        &mut self,
        t: SimTime,
        ip: &Ipv4Header,
        transport: &Transport,
        wire_len: usize,
        payload_len: usize,
        payload: &[u8],
        owned: impl FnOnce() -> bytes::Bytes,
    ) {
        let Some(dir) = self.direction_of(ip.src, ip.dst) else {
            self.transit_packets += 1;
            metrics().transit.inc();
            return;
        };
        let key = match dir {
            Direction::C2s => FiveTuple::of(ip, transport),
            Direction::S2c => FiveTuple::of(ip, transport).reversed(),
        };
        // Split borrows: the flow entry stays borrowed across the whole
        // touch (one hash lookup per packet, where this used to be
        // three: entry, TCP re-lookup, closed-check get).
        let FlowTable { flows, finished, names, .. } = self;
        let mut inserted = false;
        let flow = flows.entry(key).or_insert_with(|| {
            inserted = true;
            Box::new(FlowState::new(key, t))
        });
        if inserted {
            metrics().live_flows.inc();
        }
        let (wire, on_wire_payload) = (wire_len as u64, payload_len as u64);
        match dir {
            Direction::C2s => {
                flow.c2s_packets += 1;
                flow.c2s_bytes += wire;
                flow.c2s_payload += on_wire_payload;
            }
            Direction::S2c => {
                flow.s2c_packets += 1;
                flow.s2c_bytes += wire;
                flow.s2c_payload += on_wire_payload;
            }
        }
        flow.stamp(t, dir, wire_len, on_wire_payload);
        if let Transport::Tcp(tcp) = transport {
            flow.on_tcp(t, dir, tcp.flags, tcp.seq, tcp.ack, payload, owned, names);
        } else if !flow.dpi.is_satisfied() {
            flow.dpi.inspect(payload, dir == Direction::C2s, names);
        }
        // Closed TCP flows are finalised immediately (like Tstat).
        if flow.closed() {
            finalise(flows, finished, &key);
        }
    }

    /// Process the maximal same-flow stretch of columnar rows
    /// `[start, limit)` of `cols`, without materializing a single
    /// [`Packet`]; returns the index one past the last row consumed.
    ///
    /// Equivalent to calling [`process`](Self::process) per row, but
    /// the flow-table entry is resolved once for the whole stretch and
    /// the per-direction packet/byte/payload counters accumulate in
    /// locals, written back once. A mid-stretch close (FIN/RST) ends
    /// the stretch at that row — per-packet semantics let a later
    /// same-key packet open a *new* flow, so the caller must
    /// re-resolve.
    ///
    /// Two passes per stretch (DESIGN.md "The packet path and its
    /// reference"). The **stamp sweep**
    /// walks the scalar columns only — counters, early log, download
    /// timing, handshake/teardown flags, the retransmission
    /// high-water mark and the ground-RTT estimator — with no map
    /// lookups and no payload touch; it also collects the row indices
    /// whose payload DPI still needs. The **deferred DPI pass** then
    /// replays just those candidate rows, in row order, through the
    /// reassembler/inspector, and short-circuits the whole remainder
    /// of the stretch the moment inspection turns terminal. Because
    /// terminality is permanent and only ever advances inside a
    /// payload feed, one liveness check at stretch entry (and one per
    /// candidate) reproduces the per-row gate of
    /// [`process_parts`](Self::process_parts) exactly.
    pub fn process_stretch_cols(&mut self, cols: &PacketColumns, start: usize, limit: usize) -> usize {
        let t0 = cols.ts[start];
        let Some(dir0) = self.direction_of(cols.src[start], cols.dst[start]) else {
            self.transit_packets += 1;
            metrics().transit.inc();
            return start + 1;
        };
        let key = match dir0 {
            Direction::C2s => cols.five_tuple(start),
            Direction::S2c => cols.five_tuple(start).reversed(),
        };
        // Extend the stretch while rows belong to this flow (either
        // orientation). `key.src` is in the customer subnet and
        // `key.dst` is not, so stretch membership implies a definite
        // direction — no subnet checks in the loops below.
        let mut end = start + 1;
        while end < limit {
            let ft = cols.five_tuple(end);
            if ft != key && ft.reversed() != key {
                break;
            }
            end += 1;
        }
        let FlowTable { flows, finished, names, dpi_candidates, .. } = self;
        let mut inserted = false;
        let flow = flows.entry(key).or_insert_with(|| {
            inserted = true;
            Box::new(FlowState::new(key, t0))
        });
        if inserted {
            metrics().live_flows.inc();
        }
        // One protocol and one liveness check for the whole stretch:
        // every row shares the key's protocol, and inspection
        // terminality can only advance in the (deferred) payload pass.
        let is_udp = cols.is_udp(start);
        let live = if is_udp {
            !flow.dpi.is_satisfied()
        } else {
            !(flow.sat.sample_ms().is_some() && flow.dpi.is_satisfied())
        };
        dpi_candidates.clear();

        // --- stamp sweep: scalar columns only ---
        // [C2s, S2c] accumulators, indexed branchlessly by direction.
        let mut pkts = [0u64; 2];
        let mut bytes = [0u64; 2];
        let mut payloads = [0u64; 2];
        let mut room = EARLY_PACKETS.saturating_sub(flow.early.len());
        let mut consumed = end;
        let mut closed = false;
        for i in start..end {
            let t = cols.ts[i];
            let di = usize::from(cols.src[i] != key.src);
            let payload = u64::from(cols.pay_len[i]);
            pkts[di] += 1;
            bytes[di] += u64::from(cols.wire[i]);
            payloads[di] += payload;
            if di == 1 && payload > 0 {
                flow.s2c_data_first.get_or_insert(t);
                flow.s2c_data_last = Some(t);
            }
            if room > 0 {
                room -= 1;
                flow.early.push(EarlyPacket {
                    offset_ms: (t - flow.first).as_millis_f64(),
                    wire_len: (cols.wire[i] as usize).min(u16::MAX as usize) as u16,
                    c2s: di == 0,
                });
            }
            if is_udp {
                // empty-payload inspects are no-ops, so candidates are
                // payload rows only
                if live && payload > 0 {
                    dpi_candidates.push(i as u32);
                }
                continue;
            }
            let flags = TcpFlags(cols.flags[i]);
            if flags.syn() {
                flow.syn_seen = true;
                // anchor the direction's stream at ISN + 1
                let stream = if di == 0 { &mut flow.c2s_stream } else { &mut flow.s2c_stream };
                stream.set_base(SeqNum(cols.seq[i]) + 1);
            }
            if flags.rst() {
                flow.rst_seen = true;
            }
            // Retransmission detection: a payload-bearing segment
            // whose end does not advance the direction's high-water
            // mark re-occupies already-seen sequence space.
            if payload > 0 {
                let seq_end = SeqNum(cols.seq[i]) + cols.pay_len[i];
                let high = if di == 0 { &mut flow.c2s_high } else { &mut flow.s2c_high };
                match high {
                    Some(h) if !seq_end.after(*h) => {
                        if di == 0 {
                            flow.c2s_retrans += 1;
                        } else {
                            flow.s2c_retrans += 1;
                        }
                    }
                    Some(h) => *h = seq_end,
                    None => *high = Some(seq_end),
                }
            }
            if di == 0 {
                if flags.fin() {
                    flow.fin_c2s = true;
                }
                // outbound data (or SYN/FIN occupying sequence space)
                let mut seq_consumed = cols.pay_len[i];
                if flags.syn() || flags.fin() {
                    seq_consumed += 1;
                }
                if seq_consumed > 0 {
                    flow.ground.on_data_out(t, SeqNum(cols.seq[i]) + seq_consumed);
                }
            } else {
                if flags.fin() {
                    flow.fin_s2c = true;
                }
                if flags.ack() {
                    flow.ground.on_ack_in(t, SeqNum(cols.ack[i]));
                }
            }
            if live && payload > 0 {
                dpi_candidates.push(i as u32);
            }
            // A mid-stretch close ends the stretch at this row —
            // per-packet semantics let a later same-key packet open a
            // *new* flow, so the caller must re-resolve.
            if flow.closed() {
                consumed = i + 1;
                closed = true;
                break;
            }
        }
        // A flow's rows arrive in time order, so one write covers every
        // per-row `last = last.max(t)` of `FlowState::stamp`.
        flow.last = flow.last.max(cols.ts[consumed - 1]);
        flow.c2s_packets += pkts[0];
        flow.c2s_bytes += bytes[0];
        flow.c2s_payload += payloads[0];
        flow.s2c_packets += pkts[1];
        flow.s2c_bytes += bytes[1];
        flow.s2c_payload += payloads[1];

        // --- deferred DPI pass: candidate rows only, in row order ---
        if live && !dpi_candidates.is_empty() {
            let FlowState { sat, dpi, c2s_stream, s2c_stream, c2s_inspect, s2c_inspect, .. } = &mut **flow;
            for &ci in dpi_candidates.iter() {
                let i = ci as usize;
                // candidates past a mid-stretch close were never
                // collected (the sweep broke first), so no bound check
                let di = usize::from(cols.src[i] != key.src);
                if is_udp {
                    if dpi.is_satisfied() {
                        break;
                    }
                    dpi.inspect(cols.payload_slice(i), di == 0, names);
                } else {
                    if sat.sample_ms().is_some() && dpi.is_satisfied() {
                        break;
                    }
                    let t = cols.ts[i];
                    let seq = SeqNum(cols.seq[i]);
                    // a buffered segment shares the arena block, zero-copy
                    let (payload, owned) = (cols.payload_slice(i), || cols.payload_bytes(i));
                    if di == 0 {
                        c2s_stream.insert(seq, payload, owned, |chunk| {
                            c2s_inspect.feed(chunk, |unit| {
                                sat.on_c2s_payload(t, unit);
                                dpi.inspect(unit, true, names);
                            })
                        });
                    } else {
                        s2c_stream.insert(seq, payload, owned, |chunk| {
                            s2c_inspect.feed(chunk, |unit| {
                                sat.on_s2c_payload(t, unit);
                                dpi.inspect(unit, false, names);
                            })
                        });
                    }
                }
            }
        }
        if closed {
            finalise(flows, finished, &key);
        }
        consumed
    }

    /// Evict flows idle at time `t`. Call periodically (the probe
    /// does). Returns the earliest `first` among the flows that stay:
    /// no record this table still has to produce starts before it.
    pub fn sweep(&mut self, t: SimTime) -> Option<SimTime> {
        let (mut expired, mut oldest) = (Vec::new(), None::<SimTime>);
        for (k, f) in &self.flows {
            if t - f.last > IDLE_TIMEOUT {
                expired.push(*k);
            } else {
                oldest = Some(oldest.map_or(f.first, |o| o.min(f.first)));
            }
        }
        // deterministic eviction order (HashMap iteration is not); the
        // protocol makes the key total over distinct five-tuples
        expired.sort_by_key(|k| (self.flows[k].first, k.src, k.src_port, k.dst, k.dst_port, k.protocol));
        for k in expired {
            metrics().evictions.inc();
            finalise(&mut self.flows, &mut self.finished, &k);
        }
        oldest
    }

    /// Finalise every remaining flow and return all records.
    pub fn flush(&mut self) -> Vec<FlowRecord> {
        let mut keys: Vec<FiveTuple> = self.flows.keys().copied().collect();
        // deterministic output order: by first-seen time then key
        keys.sort_by_key(|k| (self.flows[k].first, k.src, k.src_port, k.dst, k.dst_port, k.protocol));
        for k in keys {
            finalise(&mut self.flows, &mut self.finished, &k);
        }
        std::mem::take(&mut self.finished)
    }

    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Intern an arbitrary name through the table's shared intern
    /// table (the probe's DNS log shares handles with the DPI).
    pub fn intern(&mut self, name: &str) -> Domain {
        self.names.intern(name)
    }

    /// Serialize every live flow, in the table's canonical order
    /// (first-seen time, then key) — the same order `sweep`/`flush`
    /// evict in, so the export is deterministic.
    /// Non-destructive: the table keeps tracking.
    pub(crate) fn export_flows(&self) -> Vec<FlowEntry> {
        let mut keys: Vec<FiveTuple> = self.flows.keys().copied().collect();
        keys.sort_by_key(|k| (self.flows[k].first, k.src, k.src_port, k.dst, k.dst_port, k.protocol));
        keys.iter()
            .map(|k| {
                let mut w = Vec::new();
                self.flows[k].write_state(&mut w);
                FlowEntry::from_bytes(w).expect("self-encoded flow parses")
            })
            .collect()
    }

    /// Restore one exported flow into the table (checkpoint resume).
    pub(crate) fn import_flow(&mut self, entry: &FlowEntry) -> Result<(), CheckpointError> {
        let FlowTable { flows, names, .. } = self;
        let mut r = Reader::new(entry.state_bytes());
        let flow = FlowState::read_state(&mut r, names)?;
        if r.remaining() != 0 {
            return Err(CheckpointError::Corrupt("flow trailing bytes"));
        }
        if flows.insert(flow.key, Box::new(flow)).is_some() {
            return Err(CheckpointError::Corrupt("duplicate flow key"));
        }
        metrics().live_flows.inc();
        Ok(())
    }
}

// Re-exported for record-construction convenience in tests.
pub use crate::record::L7Protocol as Verdict;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::L7Protocol;
    use bytes::Bytes;
    use satwatch_netstack::tcp::{SeqNum, TcpFlags, TcpHeader};
    use satwatch_netstack::tls;
    use std::net::Ipv4Addr;

    fn cfg() -> FlowTableConfig {
        FlowTableConfig::new(Subnet::new(Ipv4Addr::new(10, 0, 0, 0), 8))
    }

    fn client() -> Ipv4Addr {
        Ipv4Addr::new(10, 1, 2, 3)
    }

    fn server() -> Ipv4Addr {
        Ipv4Addr::new(198, 18, 0, 1)
    }

    fn t(ms: i64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn tcp_pkt(src_is_client: bool, flags: TcpFlags, seq: u32, ack: u32, payload: &[u8]) -> Packet {
        let (src, dst, sport, dport) =
            if src_is_client { (client(), server(), 50_000, 443) } else { (server(), client(), 443, 50_000) };
        let mut h = TcpHeader::new(sport, dport, flags);
        h.seq = SeqNum(seq);
        h.ack = SeqNum(ack);
        Packet::tcp(src, dst, h, Bytes::copy_from_slice(payload))
    }

    /// Simulate the GS-side of a PEP'd TLS flow and return the record.
    fn run_tls_flow(table: &mut FlowTable) {
        // SYN / SYN-ACK / ACK (ground handshake, 12 ms RTT)
        table.process(t(0), &tcp_pkt(true, TcpFlags::SYN, 100, 0, &[]));
        table.process(t(12), &tcp_pkt(false, TcpFlags::SYN_ACK, 900, 101, &[]));
        table.process(t(12), &tcp_pkt(true, TcpFlags::ACK, 101, 901, &[]));
        // ClientHello out
        let ch = tls::client_hello("video.tiktokv.com", [1; 32]);
        table.process(t(13), &tcp_pkt(true, TcpFlags::PSH_ACK, 101, 901, &ch));
        // ServerHello flight back (acks the CH)
        let mut flight = Vec::new();
        flight.extend_from_slice(&tls::server_hello([2; 32]));
        flight.extend_from_slice(&tls::certificate(800, 0));
        flight.extend_from_slice(&tls::server_hello_done());
        table.process(t(25), &tcp_pkt(false, TcpFlags::PSH_ACK, 901, 101 + ch.len() as u32, &flight));
        // CKE+CCS return after one satellite RTT (600 ms)
        let mut reply = Vec::new();
        reply.extend_from_slice(&tls::client_key_exchange(0));
        reply.extend_from_slice(&tls::change_cipher_spec());
        table.process(
            t(625),
            &tcp_pkt(true, TcpFlags::PSH_ACK, 101 + ch.len() as u32, 901 + flight.len() as u32, &reply),
        );
        // app data + close
        table.process(
            t(700),
            &tcp_pkt(false, TcpFlags::PSH_ACK, 901 + flight.len() as u32, 0, &tls::application_data(5000, 7)),
        );
        table.process(t(800), &tcp_pkt(true, TcpFlags::FIN_ACK, 9000, 0, &[]));
        table.process(t(812), &tcp_pkt(false, TcpFlags::FIN_ACK, 99_000, 9001, &[]));
    }

    #[test]
    fn tls_flow_end_to_end() {
        let mut table = FlowTable::new(cfg());
        run_tls_flow(&mut table);
        assert_eq!(table.active_flows(), 0, "FIN/FIN closes the flow");
        let recs = table.flush();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.client, client());
        assert_eq!(r.server, server());
        assert_eq!(r.server_port, 443);
        assert_eq!(r.l7, L7Protocol::TlsHttps);
        assert_eq!(r.domain.as_deref(), Some("video.tiktokv.com"));
        assert!(r.syn_seen && r.fin_seen && !r.rst_seen);
        // satellite RTT = 625-25 = 600 ms
        assert_eq!(r.sat_rtt_ms, Some(600.0));
        // ground RTT from SYN→SYNACK = 12 ms
        assert!(r.ground_rtt.samples >= 1);
        assert!((r.ground_rtt.min_ms - 12.0).abs() < 1.0, "{:?}", r.ground_rtt);
        assert!(r.s2c_bytes > r.c2s_bytes);
        assert_eq!(r.early.len(), 10.min(r.early.len()));
        assert!((r.duration_s() - 0.812).abs() < 1e-6);
    }

    /// The packet sequence of [`run_tls_flow`], as one columnar run
    /// with every payload in a single shared arena block.
    fn tls_flow_cols() -> PacketColumns {
        let ch = tls::client_hello("video.tiktokv.com", [1; 32]);
        let mut flight = Vec::new();
        flight.extend_from_slice(&tls::server_hello([2; 32]));
        flight.extend_from_slice(&tls::certificate(800, 0));
        flight.extend_from_slice(&tls::server_hello_done());
        let mut reply = Vec::new();
        reply.extend_from_slice(&tls::client_key_exchange(0));
        reply.extend_from_slice(&tls::change_cipher_spec());
        let app = tls::application_data(5000, 7);
        let rows: Vec<(i64, bool, TcpFlags, u32, u32, Vec<u8>)> = vec![
            (0, true, TcpFlags::SYN, 100, 0, vec![]),
            (12, false, TcpFlags::SYN_ACK, 900, 101, vec![]),
            (12, true, TcpFlags::ACK, 101, 901, vec![]),
            (13, true, TcpFlags::PSH_ACK, 101, 901, ch.to_vec()),
            (25, false, TcpFlags::PSH_ACK, 901, 101 + ch.len() as u32, flight.clone()),
            (625, true, TcpFlags::PSH_ACK, 101 + ch.len() as u32, 901 + flight.len() as u32, reply),
            (700, false, TcpFlags::PSH_ACK, 901 + flight.len() as u32, 0, app.to_vec()),
            (800, true, TcpFlags::FIN_ACK, 9000, 0, vec![]),
            (812, false, TcpFlags::FIN_ACK, 99_000, 9001, vec![]),
        ];
        let mut cols = PacketColumns::default();
        let mut buf = Vec::new();
        for (ms, c2s, flags, seq, ack, payload) in rows {
            let (src, dst, sport, dport) =
                if c2s { (client(), server(), 50_000, 443) } else { (server(), client(), 443, 50_000) };
            let off = buf.len() as u32;
            buf.extend_from_slice(&payload);
            cols.push_tcp(t(ms), src, dst, sport, dport, flags, 0, seq, ack, off, payload.len() as u32);
        }
        cols.payload = Bytes::from(buf);
        cols
    }

    /// Deferred DPI — the candidate second pass of
    /// `process_stretch_cols` — must agree with inline per-packet DPI
    /// on the verdict *and its timing*: the flow turns terminal
    /// (satellite RTT sampled and DPI satisfied) at the same packet
    /// index, and the finished record is bit-identical.
    #[test]
    fn deferred_dpi_matches_inline_verdict_and_timing() {
        let cols = tls_flow_cols();
        let n = cols.len();
        let terminal = |tbl: &FlowTable| {
            tbl.flows.values().next().is_some_and(|f| f.sat.sample_ms().is_some() && f.dpi.is_satisfied())
        };
        // inline oracle: per-packet process(), payload inspected as
        // each row arrives
        let mut inline_tbl = FlowTable::new(cfg());
        let mut inline_first_terminal = None;
        for i in 0..n {
            let pkt = cols.materialize(i);
            inline_tbl.process(cols.ts[i], &pkt);
            if inline_first_terminal.is_none() && terminal(&inline_tbl) {
                inline_first_terminal = Some(i);
            }
        }
        // deferred path at per-row granularity: each call runs the
        // stamp sweep plus the deferred candidate pass for exactly one
        // row, making the terminality flip observable per packet
        let mut def_tbl = FlowTable::new(cfg());
        let mut deferred_first_terminal = None;
        for i in 0..n {
            assert_eq!(def_tbl.process_stretch_cols(&cols, i, i + 1), i + 1);
            if deferred_first_terminal.is_none() && terminal(&def_tbl) {
                deferred_first_terminal = Some(i);
            }
        }
        assert!(inline_first_terminal.is_some(), "oracle flow never turned terminal");
        assert_eq!(
            deferred_first_terminal, inline_first_terminal,
            "deferred DPI turns terminal at a different packet than inline DPI"
        );
        // whole-stretch drive: one call consumes the longest stretch
        // and batches all its candidates into one DPI pass; the
        // finished record must still match the oracle's exactly
        let mut batch_tbl = FlowTable::new(cfg());
        let mut start = 0;
        while start < n {
            start = batch_tbl.process_stretch_cols(&cols, start, n);
        }
        let (a, b) = (inline_tbl.flush(), batch_tbl.flush());
        assert_eq!(a.len(), 1);
        assert_eq!(a, b, "stretch-batched record diverges from the inline oracle");
        assert_eq!(a[0].l7, L7Protocol::TlsHttps);
        assert_eq!(a[0].domain.as_deref(), Some("video.tiktokv.com"));
    }

    #[test]
    fn rst_closes_flow() {
        let mut table = FlowTable::new(cfg());
        table.process(t(0), &tcp_pkt(true, TcpFlags::SYN, 1, 0, &[]));
        table.process(t(5), &tcp_pkt(false, TcpFlags::RST, 0, 0, &[]));
        assert_eq!(table.active_flows(), 0);
        let recs = table.flush();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].rst_seen);
    }

    #[test]
    fn udp_flow_times_out() {
        let mut table = FlowTable::new(cfg());
        let q = Packet::udp(
            client(),
            Ipv4Addr::new(8, 8, 8, 8),
            40_000,
            53,
            satwatch_netstack::dns::DnsMessage::query(1, "x.com", satwatch_netstack::dns::RecordType::A).encode(),
        );
        table.process(t(0), &q);
        assert_eq!(table.active_flows(), 1);
        table.sweep(t(1_000));
        assert_eq!(table.active_flows(), 1, "not yet idle long enough");
        table.sweep(t(200_000));
        assert_eq!(table.active_flows(), 0);
        let recs = table.flush();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].l7, L7Protocol::Dns);
        assert_eq!(recs[0].ip_proto, 17);
    }

    #[test]
    fn transit_traffic_ignored() {
        let mut table = FlowTable::new(cfg());
        let p = Packet::udp(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2), 1, 2, Bytes::new());
        table.process(t(0), &p);
        assert_eq!(table.active_flows(), 0);
        assert_eq!(table.transit_packets, 1);
        // customer-to-customer is also not a monitored flow
        let p2 = Packet::udp(client(), Ipv4Addr::new(10, 9, 9, 9), 1, 2, Bytes::new());
        table.process(t(0), &p2);
        assert_eq!(table.transit_packets, 2);
    }

    #[test]
    fn directions_merge_into_one_flow() {
        let mut table = FlowTable::new(cfg());
        let out = Packet::udp(client(), server(), 5000, 443, Bytes::from_static(&[0; 50]));
        let back = Packet::udp(server(), client(), 443, 5000, Bytes::from_static(&[0; 500]));
        table.process(t(0), &out);
        table.process(t(600), &back);
        assert_eq!(table.active_flows(), 1);
        let recs = table.flush();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].c2s_packets, 1);
        assert_eq!(recs[0].s2c_packets, 1);
        assert!(recs[0].s2c_bytes > recs[0].c2s_bytes);
    }

    #[test]
    fn early_packets_capped_at_ten() {
        let mut table = FlowTable::new(cfg());
        for i in 0..25 {
            let p = Packet::udp(client(), server(), 5000, 8000, Bytes::from_static(&[1; 100]));
            table.process(t(i * 10), &p);
        }
        let recs = table.flush();
        assert_eq!(recs[0].early.len(), 10);
        assert_eq!(recs[0].c2s_packets, 25);
        // offsets are monotone
        for w in recs[0].early.windows(2) {
            assert!(w[1].offset_ms >= w[0].offset_ms);
        }
    }

    #[test]
    fn retransmissions_detected_per_direction() {
        let mut table = FlowTable::new(cfg());
        // fresh data at seq 1000..1100
        table.process(t(0), &tcp_pkt(true, TcpFlags::PSH_ACK, 1000, 0, &[7; 100]));
        // retransmit the same range
        table.process(t(300), &tcp_pkt(true, TcpFlags::PSH_ACK, 1000, 0, &[7; 100]));
        // new data advances the mark — not a retransmission
        table.process(t(400), &tcp_pkt(true, TcpFlags::PSH_ACK, 1100, 0, &[7; 50]));
        // server side: fresh then partial retransmit
        table.process(t(500), &tcp_pkt(false, TcpFlags::PSH_ACK, 9000, 0, &[1; 200]));
        table.process(t(900), &tcp_pkt(false, TcpFlags::PSH_ACK, 9100, 0, &[1; 100]));
        let recs = table.flush();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].c2s_retrans, 1);
        assert_eq!(recs[0].s2c_retrans, 1, "9100..9200 does not advance past 9200");
        // pure ACKs never count
        let mut table2 = FlowTable::new(cfg());
        table2.process(t(0), &tcp_pkt(true, TcpFlags::ACK, 1, 1, &[]));
        table2.process(t(1), &tcp_pkt(true, TcpFlags::ACK, 1, 1, &[]));
        let recs2 = table2.flush();
        assert_eq!(recs2[0].c2s_retrans, 0);
    }

    #[test]
    fn flush_is_deterministic_order() {
        let build = || {
            let mut table = FlowTable::new(cfg());
            for i in 0..20u8 {
                let p = Packet::udp(Ipv4Addr::new(10, 0, 1, i), server(), 1000 + u16::from(i), 9999, Bytes::new());
                table.process(t(i as i64), &p);
            }
            table.flush()
        };
        let a = build();
        let b = build();
        assert_eq!(a.len(), 20);
        assert_eq!(a, b);
    }
}
