//! 5-tuple flow tracking: the monitor's core data structure.
//!
//! Mirrors Tstat's design (paper §2.2): flows keyed by the classic
//! 5-tuple, per-direction counters, first-10-packet timing, TCP state
//! observation, RTT estimation, and DPI — all updated in one pass over
//! the packet stream, with idle-timeout eviction bounding memory.

use crate::checkpoint::{self, CheckpointError, FlowEntry, Reader};
use crate::dpi::{verdict_index, Dpi, VERDICT_ORDER};
use crate::inspect::InspectBuffer;
use crate::intern::{Domain, DomainInterner};
use crate::reassembly::StreamReassembler;
use crate::record::{EarlyPacket, FlowRecord, RttSummary};
use crate::rtt::{GroundRtt, SatRtt};
use bytes::Bytes;
use satwatch_netstack::ip::proto;
use satwatch_netstack::{
    FiveTuple, Ipv4Header, Packet, PacketColumns, PacketView, SeqNum, Subnet, TcpFlags, TcpHeader, Transport,
};
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
    M.get_or_init(|| Metrics {
        live_flows: satwatch_telemetry::gauge("monitor_flowtable_flows"),
        evictions: satwatch_telemetry::counter("monitor_flowtable_evictions_total"),
        transit: satwatch_telemetry::counter("monitor_transit_packets_total"),
        verdicts: VERDICT_ORDER
            .map(|p| satwatch_telemetry::counter_with("monitor_dpi_verdicts_total", &[("l7", p.label())])),
    })
}

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

    /// The table's canonical flow order: first-seen time, then key —
    /// the order `sweep` and `flush` evict in and `export_flows` writes.
    /// The protocol makes it total over distinct five-tuples.
    fn order_key(&self) -> (SimTime, Ipv4Addr, u16, Ipv4Addr, u16, u8) {
        let k = &self.key;
        (self.first, k.src, k.src_port, k.dst, k.dst_port, k.protocol)
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
        self.ground.write_state(w);
        self.sat.write_state(w);
        self.dpi.write_state(w);
        self.c2s_stream.write_state(w);
        self.s2c_stream.write_state(w);
        self.c2s_inspect.write_state(w);
        self.s2c_inspect.write_state(w);
    }

    /// Inverse of [`write_state`](Self::write_state); `names` is the
    /// table's interner, for the DPI's domain.
    ///
    /// A state file comes from outside the program, so a flow is
    /// refused unless the walker could have left it in the table: no
    /// more early packets than the log holds, and not closed (a close
    /// finalises the flow on the row that closes it). Each component's
    /// `read_state` checks its own caps.
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
        if nearly > EARLY_PACKETS {
            return Err(CheckpointError::Corrupt("early packets"));
        }
        // room for the log to fill up, as `new` gives a fresh flow
        let mut early = Vec::with_capacity(EARLY_PACKETS);
        for _ in 0..nearly {
            early.push(EarlyPacket { offset_ms: r.f64()?, wire_len: r.u16()?, c2s: r.bool()? });
        }
        let flags = r.u8()?;
        if flags & !0x0f != 0 {
            return Err(CheckpointError::Corrupt("flow flags"));
        }
        // RST, or FIN both ways
        if flags & 8 != 0 || flags & 6 == 6 {
            return Err(CheckpointError::Corrupt("closed flow"));
        }
        let c2s_retrans = r.u64()?;
        let s2c_retrans = r.u64()?;
        let c2s_high = r.opt_u32()?.map(SeqNum);
        let s2c_high = r.opt_u32()?.map(SeqNum);
        let s2c_data_first = r.opt_u64()?.map(SimTime::from_nanos);
        let s2c_data_last = r.opt_u64()?.map(SimTime::from_nanos);
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
            // fields evaluate in the order written: the file's order
            ground: GroundRtt::read_state(r)?,
            sat: SatRtt::read_state(r)?,
            dpi: Dpi::read_state(r, names)?,
            c2s_stream: StreamReassembler::read_state(r)?,
            s2c_stream: StreamReassembler::read_state(r)?,
            c2s_inspect: InspectBuffer::read_state(r)?,
            s2c_inspect: InspectBuffer::read_state(r)?,
        })
    }
}

/// What the walker ([`FlowTable::process_stretch`]) reads of row `i`
/// of a stretch, one accessor per field the walker's loops load.
///
/// A row has two lengths (DESIGN.md §14 "Snaplen accounting rule").
/// [`wire_len`](Self::wire_len) and [`payload_len`](Self::payload_len)
/// are what the IP header gives: the byte counters, the early-packet
/// sizes and the download window account them.
/// [`held_len`](Self::held_len) and [`payload`](Self::payload) are the
/// bytes in hand: sequence space, the retransmission mark, ground-RTT
/// expectations, reassembly and DPI candidacy use them. The two differ
/// only on a frame a capture snapped.
pub(crate) trait Rows {
    fn ts(&self, i: usize) -> SimTime;
    fn src(&self, i: usize) -> Ipv4Addr;
    fn five_tuple(&self, i: usize) -> FiveTuple;
    fn is_udp(&self, i: usize) -> bool;
    /// TCP flags; a UDP row's TCP fields are neutral, and the walker
    /// reads none of them.
    fn flags(&self, i: usize) -> TcpFlags;
    fn seq(&self, i: usize) -> SeqNum;
    fn ack(&self, i: usize) -> SeqNum;
    fn wire_len(&self, i: usize) -> u32;
    fn payload_len(&self, i: usize) -> u32;
    fn held_len(&self, i: usize) -> u32;
    fn payload(&self, i: usize) -> &[u8];
    /// [`payload`](Self::payload) as a `Bytes`, for a segment the
    /// reassembler has to keep.
    fn payload_bytes(&self, i: usize) -> Bytes;
}

/// A columnar run's rows: every length is the full one.
impl Rows for PacketColumns {
    fn ts(&self, i: usize) -> SimTime {
        self.ts[i]
    }
    fn src(&self, i: usize) -> Ipv4Addr {
        self.src[i]
    }
    fn five_tuple(&self, i: usize) -> FiveTuple {
        PacketColumns::five_tuple(self, i)
    }
    fn is_udp(&self, i: usize) -> bool {
        PacketColumns::is_udp(self, i)
    }
    fn flags(&self, i: usize) -> TcpFlags {
        TcpFlags(self.flags[i])
    }
    fn seq(&self, i: usize) -> SeqNum {
        SeqNum(self.seq[i])
    }
    fn ack(&self, i: usize) -> SeqNum {
        SeqNum(self.ack[i])
    }
    fn wire_len(&self, i: usize) -> u32 {
        self.wire[i]
    }
    fn payload_len(&self, i: usize) -> u32 {
        self.pay_len[i]
    }
    fn held_len(&self, i: usize) -> u32 {
        self.pay_len[i]
    }
    fn payload(&self, i: usize) -> &[u8] {
        self.payload_slice(i)
    }
    fn payload_bytes(&self, i: usize) -> Bytes {
        PacketColumns::payload_bytes(self, i)
    }
}

/// One parsed packet as a one-row stretch (row 0): how a [`Packet`]
/// and a wire frame's [`PacketView`] reach the walker.
pub(crate) struct Parsed<'a> {
    pub(crate) t: SimTime,
    pub(crate) ip: &'a Ipv4Header,
    pub(crate) transport: &'a Transport,
    /// The lengths the IP header gives.
    pub(crate) wire_len: usize,
    pub(crate) payload_len: usize,
    /// The payload bytes in hand: all of them, or a snapped frame's
    /// head.
    pub(crate) payload: &'a [u8],
    /// `payload` as a shared buffer, where the caller has one; a
    /// segment the reassembler keeps is copied otherwise.
    pub(crate) owned: Option<&'a Bytes>,
}

impl<'a> Parsed<'a> {
    pub(crate) fn packet(t: SimTime, pkt: &'a Packet) -> Parsed<'a> {
        let (wire_len, payload_len) = (pkt.wire_len(), pkt.payload_len());
        Parsed {
            t,
            ip: &pkt.ip,
            transport: &pkt.transport,
            wire_len,
            payload_len,
            payload: &pkt.payload,
            owned: Some(&pkt.payload),
        }
    }

    pub(crate) fn view(t: SimTime, v: &'a PacketView<'_>) -> Parsed<'a> {
        let (wire_len, payload_len) = (v.wire_len(), v.payload_len());
        Parsed { t, ip: &v.ip, transport: &v.transport, wire_len, payload_len, payload: v.payload, owned: None }
    }

    fn tcp(&self) -> Option<&TcpHeader> {
        match self.transport {
            Transport::Tcp(tcp) => Some(tcp),
            Transport::Udp(_) => None,
        }
    }
}

impl Rows for Parsed<'_> {
    fn ts(&self, _: usize) -> SimTime {
        self.t
    }
    fn src(&self, _: usize) -> Ipv4Addr {
        self.ip.src
    }
    fn five_tuple(&self, _: usize) -> FiveTuple {
        FiveTuple::of(self.ip, self.transport)
    }
    fn is_udp(&self, _: usize) -> bool {
        self.tcp().is_none()
    }
    fn flags(&self, _: usize) -> TcpFlags {
        self.tcp().map_or(TcpFlags(0), |tcp| tcp.flags)
    }
    fn seq(&self, _: usize) -> SeqNum {
        self.tcp().map_or(SeqNum(0), |tcp| tcp.seq)
    }
    fn ack(&self, _: usize) -> SeqNum {
        self.tcp().map_or(SeqNum(0), |tcp| tcp.ack)
    }
    fn wire_len(&self, _: usize) -> u32 {
        self.wire_len as u32
    }
    fn payload_len(&self, _: usize) -> u32 {
        self.payload_len as u32
    }
    fn held_len(&self, _: usize) -> u32 {
        self.payload.len() as u32
    }
    fn payload(&self, _: usize) -> &[u8] {
        self.payload
    }
    fn payload_bytes(&self, _: usize) -> Bytes {
        self.owned.map_or_else(|| Bytes::copy_from_slice(self.payload), Bytes::clone)
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
    /// Scratch for the walker: row indices whose
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

    /// Direction of a packet with these addresses relative to the
    /// customer subnet, or `None` for transit traffic.
    pub fn direction_of(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Option<Direction> {
        let src_cust = self.cfg.customer_subnet.contains(src);
        let dst_cust = self.cfg.customer_subnet.contains(dst);
        match (src_cust, dst_cust) {
            (true, false) => Some(Direction::C2s),
            (false, true) => Some(Direction::S2c),
            _ => None,
        }
    }

    /// Process one packet observed at time `t`: a one-row stretch.
    pub fn process(&mut self, t: SimTime, pkt: &Packet) {
        self.process_stretch(&Parsed::packet(t, pkt), 0, 1);
    }

    /// The walker: process the maximal same-flow stretch of rows
    /// `[start, limit)`; returns the index one past the last row
    /// consumed. Columnar runs come here in long stretches, a parsed
    /// packet or wire frame as a stretch of one row ([`Parsed`]).
    ///
    /// Equivalent to a one-row stretch per row, but the flow-table
    /// entry is resolved once for the whole stretch and the
    /// per-direction packet/byte/payload counters accumulate in locals,
    /// written back once. A mid-stretch close (FIN/RST) ends the
    /// stretch at that row — a later same-key packet opens a *new*
    /// flow, so the caller must re-resolve.
    ///
    /// Two passes per stretch (DESIGN.md "The packet path and its
    /// reference"). The **stamp sweep** reads the scalar fields only —
    /// counters, early log, download timing, handshake/teardown flags,
    /// the retransmission high-water mark and the ground-RTT estimator
    /// — with no map lookups and no payload touch; it also collects the
    /// rows whose payload DPI still needs. The **deferred DPI pass**
    /// then replays just those candidate rows, in row order, through
    /// the reassembler/inspector, and short-circuits the whole
    /// remainder of the stretch the moment inspection turns terminal.
    /// Because terminality is permanent and only ever advances inside a
    /// payload feed, one liveness check at stretch entry (and one per
    /// candidate) reproduces the per-row gate a one-row stretch makes.
    pub(crate) fn process_stretch<R: Rows>(&mut self, rows: &R, start: usize, limit: usize) -> usize {
        let t0 = rows.ts(start);
        let first = rows.five_tuple(start);
        let Some(dir0) = self.direction_of(first.src, first.dst) else {
            self.transit_packets += 1;
            metrics().transit.inc();
            return start + 1;
        };
        let key = match dir0 {
            Direction::C2s => first,
            Direction::S2c => first.reversed(),
        };
        // Extend the stretch while rows belong to this flow (either
        // orientation). `key.src` is in the customer subnet and
        // `key.dst` is not, so stretch membership implies a definite
        // direction — no subnet checks in the loops below.
        let mut end = start + 1;
        while end < limit {
            let ft = rows.five_tuple(end);
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
        // Reassembly exists only to feed the DPI and the satellite-RTT
        // estimator. Once both are terminal — the DPI verdict/domain
        // can never change again (`is_satisfied` contract) and the
        // handshake RTT sample is captured (`SatRtt` ignores all input
        // after its first sample) — delivering more stream bytes is
        // output-identical to dropping them, so a flow's bulk skips the
        // reassembler insert and inspect-buffer copy (≈ 2 × 128 KiB of
        // memcpy per TLS bulk flow). One protocol and one liveness
        // check for the whole stretch: every row shares the key's
        // protocol, and terminality can only advance in the (deferred)
        // payload pass.
        let is_udp = rows.is_udp(start);
        let live = if is_udp {
            !flow.dpi.is_satisfied()
        } else {
            !(flow.sat.sample_ms().is_some() && flow.dpi.is_satisfied())
        };
        dpi_candidates.clear();

        // --- stamp sweep: scalar fields only ---
        // [C2s, S2c] accumulators, indexed branchlessly by direction.
        let mut pkts = [0u64; 2];
        let mut bytes = [0u64; 2];
        let mut payloads = [0u64; 2];
        let mut room = EARLY_PACKETS.saturating_sub(flow.early.len());
        let mut consumed = end;
        let mut closed = false;
        for i in start..end {
            let t = rows.ts(i);
            let di = usize::from(rows.src(i) != key.src);
            // the IP header's payload length, and the bytes in hand
            let (payload, held) = (u64::from(rows.payload_len(i)), rows.held_len(i));
            pkts[di] += 1;
            bytes[di] += u64::from(rows.wire_len(i));
            payloads[di] += payload;
            if di == 1 && payload > 0 {
                flow.s2c_data_first.get_or_insert(t);
                flow.s2c_data_last = Some(t);
            }
            if room > 0 {
                room -= 1;
                flow.early.push(EarlyPacket {
                    offset_ms: (t - flow.first).as_millis_f64(),
                    wire_len: (rows.wire_len(i) as usize).min(u16::MAX as usize) as u16,
                    c2s: di == 0,
                });
            }
            if is_udp {
                // empty-payload inspects are no-ops, so candidates are
                // payload rows only
                if live && held > 0 {
                    dpi_candidates.push(i as u32);
                }
                continue;
            }
            let flags = rows.flags(i);
            if flags.syn() {
                flow.syn_seen = true;
                // anchor the direction's stream at ISN + 1
                let stream = if di == 0 { &mut flow.c2s_stream } else { &mut flow.s2c_stream };
                stream.set_base(rows.seq(i) + 1);
            }
            if flags.rst() {
                flow.rst_seen = true;
            }
            // Retransmission detection: a payload-bearing segment
            // whose end does not advance the direction's high-water
            // mark re-occupies already-seen sequence space (Tstat's
            // rexmit heuristic).
            if held > 0 {
                let seq_end = rows.seq(i) + held;
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
                let mut seq_consumed = held;
                if flags.syn() || flags.fin() {
                    seq_consumed += 1;
                }
                if seq_consumed > 0 {
                    flow.ground.on_data_out(t, rows.seq(i) + seq_consumed);
                }
            } else {
                if flags.fin() {
                    flow.fin_s2c = true;
                }
                if flags.ack() {
                    flow.ground.on_ack_in(t, rows.ack(i));
                }
            }
            if live && held > 0 {
                dpi_candidates.push(i as u32);
            }
            // A mid-stretch close ends the stretch at this row — a
            // later same-key packet opens a *new* flow, so the caller
            // must re-resolve.
            if flow.closed() {
                consumed = i + 1;
                closed = true;
                break;
            }
        }
        // A flow's rows arrive in time order, so one write covers every
        // row's `last = last.max(t)`.
        flow.last = flow.last.max(rows.ts(consumed - 1));
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
                let di = usize::from(rows.src(i) != key.src);
                if is_udp {
                    if dpi.is_satisfied() {
                        break;
                    }
                    dpi.inspect(rows.payload(i), di == 0, names);
                } else {
                    if sat.sample_ms().is_some() && dpi.is_satisfied() {
                        break;
                    }
                    let t = rows.ts(i);
                    let seq = rows.seq(i);
                    // a buffered segment shares the row's buffer where
                    // it has one (a run's arena block), zero-copy
                    let (payload, owned) = (rows.payload(i), || rows.payload_bytes(i));
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
        // deterministic eviction order (HashMap iteration is not)
        expired.sort_by_key(|k| self.flows[k].order_key());
        for k in expired {
            metrics().evictions.inc();
            finalise(&mut self.flows, &mut self.finished, &k);
        }
        oldest
    }

    /// Finalise every remaining flow and return all records.
    pub fn flush(&mut self) -> Vec<FlowRecord> {
        let mut keys: Vec<FiveTuple> = self.flows.keys().copied().collect();
        keys.sort_by_key(|k| self.flows[k].order_key());
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
    /// ([`FlowState::order_key`]), so the export is deterministic.
    /// Non-destructive: the table keeps tracking.
    pub(crate) fn export_flows(&self) -> Vec<FlowEntry> {
        let mut flows: Vec<&FlowState> = self.flows.values().map(|f| &**f).collect();
        flows.sort_by_key(|f| f.order_key());
        flows
            .into_iter()
            .map(|f| {
                let mut w = Vec::new();
                f.write_state(&mut w);
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
    use satwatch_netstack::dns::{DnsMessage, RecordType};
    use satwatch_netstack::tcp::TcpHeader;
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

    /// Deferred DPI — the candidate second pass of `process_stretch` —
    /// turns terminal (satellite RTT sampled and DPI satisfied) at the
    /// same packet whether the columnar run walks one row at a time or
    /// the `Packet` path walks each materialized row as a one-row
    /// stretch, and a whole-stretch drive, which batches every
    /// candidate into one DPI pass, finishes the bit-identical record.
    #[test]
    fn deferred_dpi_matches_inline_verdict_and_timing() {
        let cols = tls_flow_cols();
        let n = cols.len();
        let terminal = |tbl: &FlowTable| {
            tbl.flows.values().next().is_some_and(|f| f.sat.sample_ms().is_some() && f.dpi.is_satisfied())
        };
        // per-packet oracle: process() on materialized rows, each a
        // one-row `Parsed` stretch
        let mut inline_tbl = FlowTable::new(cfg());
        let mut inline_first_terminal = None;
        for i in 0..n {
            let pkt = cols.materialize(i);
            inline_tbl.process(cols.ts[i], &pkt);
            if inline_first_terminal.is_none() && terminal(&inline_tbl) {
                inline_first_terminal = Some(i);
            }
        }
        // the columnar rows at per-row granularity: each call runs the
        // stamp sweep plus the deferred candidate pass for exactly one
        // row, making the terminality flip observable per packet
        let mut def_tbl = FlowTable::new(cfg());
        let mut deferred_first_terminal = None;
        for i in 0..n {
            assert_eq!(def_tbl.process_stretch(&cols, i, i + 1), i + 1);
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
            start = batch_tbl.process_stretch(&cols, start, n);
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

    /// A live TLS flow — handshake and ClientHello in, so it has early
    /// packets, an outstanding ground-RTT sample and a reassembler —
    /// exported after `edit` changed one field of its state, then
    /// imported into a fresh table.
    fn import_edited(edit: impl FnOnce(&mut FlowState)) -> Result<(), CheckpointError> {
        let mut table = FlowTable::new(cfg());
        table.process(t(0), &tcp_pkt(true, TcpFlags::SYN, 100, 0, &[]));
        table.process(t(12), &tcp_pkt(false, TcpFlags::SYN_ACK, 900, 101, &[]));
        table.process(t(12), &tcp_pkt(true, TcpFlags::ACK, 101, 901, &[]));
        let ch = tls::client_hello("video.tiktokv.com", [1; 32]);
        table.process(t(13), &tcp_pkt(true, TcpFlags::PSH_ACK, 101, 901, &ch));
        edit(table.flows.values_mut().next().expect("the flow is live"));
        let entries = table.export_flows();
        FlowTable::new(cfg()).import_flow(&entries[0])
    }

    #[test]
    fn an_unedited_export_imports() {
        assert_eq!(import_edited(|_| {}), Ok(()));
    }

    #[test]
    fn more_early_packets_than_the_log_holds_is_corrupt() {
        let err = import_edited(|f| f.early.resize(EARLY_PACKETS + 1, f.early[0]));
        assert_eq!(err, Err(CheckpointError::Corrupt("early packets")));
    }

    /// The walker finalises a flow on the row that closes it, so no
    /// export holds a closed one.
    #[test]
    fn a_closed_flow_is_corrupt() {
        let err = import_edited(|f| f.rst_seen = true);
        assert_eq!(err, Err(CheckpointError::Corrupt("closed flow")));
        let err = import_edited(|f| (f.fin_c2s, f.fin_s2c) = (true, true));
        assert_eq!(err, Err(CheckpointError::Corrupt("closed flow")));
        assert_eq!(import_edited(|f| f.fin_c2s = true), Ok(()), "a half-closed flow is live");
    }

    /// One row of a generated conversation: direction, TCP flags (UDP
    /// when `None`), seq, ack and payload.
    type Seg = (bool, Option<TcpFlags>, u32, u32, Vec<u8>);

    /// One TCP connection's life on a five-tuple: handshake, a
    /// ClientHello split in two (the second half ahead of the hole a
    /// third of the time), the server's flight, the client's key
    /// exchange, data both ways with maybe a retransmission, then a
    /// FIN/FIN or RST close — or, when `may_stay_open`, maybe none.
    fn tcp_life(rng: &mut proptest::TestRng, may_stay_open: bool, out: &mut Vec<Seg>) {
        let (mut c, mut s) = (rng.next_u64() as u32, rng.next_u64() as u32);
        out.push((true, Some(TcpFlags::SYN), c, 0, Vec::new()));
        out.push((false, Some(TcpFlags::SYN_ACK), s, c.wrapping_add(1), Vec::new()));
        (c, s) = (c.wrapping_add(1), s.wrapping_add(1));
        out.push((true, Some(TcpFlags::ACK), c, s, Vec::new()));
        let ch = tls::client_hello("split.example.com", [rng.below(256) as u8; 32]);
        let cut = 1 + rng.below(ch.len() as u64 - 1) as usize;
        let head = (true, Some(TcpFlags::PSH_ACK), c, s, ch[..cut].to_vec());
        let tail = (true, Some(TcpFlags::PSH_ACK), c.wrapping_add(cut as u32), s, ch[cut..].to_vec());
        if rng.below(3) == 0 {
            out.extend([tail, head]);
        } else {
            out.extend([head, tail]);
        }
        c = c.wrapping_add(ch.len() as u32);
        let mut flight = tls::server_hello([2; 32]).to_vec();
        flight.extend_from_slice(&tls::certificate(300, 0));
        flight.extend_from_slice(&tls::server_hello_done());
        out.push((false, Some(TcpFlags::PSH_ACK), s, c, flight.clone()));
        s = s.wrapping_add(flight.len() as u32);
        let mut reply = tls::client_key_exchange(0).to_vec();
        reply.extend_from_slice(&tls::change_cipher_spec());
        out.push((true, Some(TcpFlags::PSH_ACK), c, s, reply.clone()));
        c = c.wrapping_add(reply.len() as u32);
        for _ in 0..rng.below(6) {
            let data = tls::application_data(1 + rng.below(1_500) as usize, 7).to_vec();
            let c2s = rng.below(2) == 0;
            let (seq, ack) = if c2s { (c, s) } else { (s, c) };
            out.push((c2s, Some(TcpFlags::PSH_ACK), seq, ack, data.clone()));
            if rng.below(4) == 0 {
                out.push((c2s, Some(TcpFlags::PSH_ACK), seq, ack, data.clone()));
            }
            if c2s {
                c = c.wrapping_add(data.len() as u32);
            } else {
                s = s.wrapping_add(data.len() as u32);
            }
        }
        match rng.below(if may_stay_open { 3 } else { 2 }) {
            0 => {
                out.push((true, Some(TcpFlags::FIN_ACK), c, s, Vec::new()));
                out.push((false, Some(TcpFlags::FIN_ACK), s, c.wrapping_add(1), Vec::new()));
            }
            1 => {
                let c2s = rng.below(2) == 0;
                out.push((c2s, Some(TcpFlags::RST), if c2s { c } else { s }, 0, Vec::new()));
            }
            _ => {}
        }
    }

    /// Traffic over 2–4 five-tuples, as one time-ordered columnar run:
    /// TCP connections that close and open again on the same
    /// five-tuple, UDP datagrams both ways (DNS on port 53), and the
    /// odd transit row. A conversation keeps the wire for a few rows
    /// at a time, so a close often falls inside a stretch.
    fn generated_traffic(rng: &mut proptest::TestRng) -> PacketColumns {
        let conversations = 2 + rng.below(3) as usize;
        let mut scripts: Vec<(FiveTuple, std::collections::VecDeque<Seg>)> = (0..conversations)
            .map(|k| {
                let (udp, dns) = (rng.below(3) == 0, rng.below(2) == 0);
                let key = FiveTuple {
                    src: Ipv4Addr::new(10, 0, 0, 1 + rng.below(2) as u8),
                    dst: Ipv4Addr::new(198, 18, 0, 1 + rng.below(2) as u8),
                    src_port: 40_000 + k as u16,
                    dst_port: if udp && dns { 53 } else { 443 },
                    protocol: if udp { proto::UDP } else { proto::TCP },
                };
                let mut segs = Vec::new();
                if udp {
                    for id in 0..1 + rng.below(6) as u16 {
                        let q = DnsMessage::query(id, "cdn.example", RecordType::A);
                        let payload = if dns { q.encode().to_vec() } else { vec![id as u8; 1 + id as usize * 40] };
                        segs.push((true, None, 0, 0, payload));
                        if rng.below(3) != 0 {
                            let payload = if dns {
                                let addr = [Ipv4Addr::new(198, 18, 9, 9)];
                                DnsMessage::answer_a(&q, &addr, 60).encode().to_vec()
                            } else {
                                vec![0; 1 + rng.below(900) as usize]
                            };
                            segs.push((false, None, 0, 0, payload));
                        }
                    }
                } else {
                    let lives = 1 + rng.below(3);
                    for life in 0..lives {
                        tcp_life(rng, life + 1 == lives, &mut segs);
                    }
                }
                (key, segs.into())
            })
            .collect();
        let (mut cols, mut arena, mut now, mut current) = (PacketColumns::default(), Vec::new(), 0i64, 0);
        while scripts.iter().any(|(_, segs)| !segs.is_empty()) {
            if rng.below(4) == 0 || scripts[current].1.is_empty() {
                current = rng.below(scripts.len() as u64) as usize;
                continue;
            }
            now += rng.below(3) as i64;
            if rng.below(16) == 0 {
                let (a, b) = (Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2));
                cols.push_udp(t(now), a, b, 1, 2, 0, 0);
            }
            let (key, segs) = &mut scripts[current];
            let (c2s, flags, seq, ack, payload) = segs.pop_front().expect("checked non-empty");
            let ft = if c2s { *key } else { key.reversed() };
            let (off, len) = (arena.len() as u32, payload.len() as u32);
            arena.extend_from_slice(&payload);
            match flags {
                Some(f) => {
                    let mss = if f.syn() { 1_460 } else { 0 };
                    cols.push_tcp(t(now), ft.src, ft.dst, ft.src_port, ft.dst_port, f, mss, seq, ack, off, len)
                }
                None => cols.push_udp(t(now), ft.src, ft.dst, ft.src_port, ft.dst_port, off, len),
            }
        }
        cols.payload = Bytes::from(arena);
        cols
    }

    proptest::proptest! {
        /// Any cut of a run's rows walks like one row at a time: the
        /// walker over stretches between random cut points, and
        /// `process` on each materialized row, agree on the live flows
        /// after every cut, on the records finished so far and their
        /// order, and on `flush`.
        #[test]
        fn any_cut_of_the_rows_walks_like_one_row_at_a_time(seed in proptest::prelude::any::<u64>()) {
            let mut rng = proptest::TestRng::new(seed);
            let cols = generated_traffic(&mut rng);
            let (mut rows, mut cut) = (FlowTable::new(cfg()), FlowTable::new(cfg()));
            let mut a = 0;
            while a < cols.len() {
                let longest = if rng.below(2) == 0 { 4 } else { 64 };
                let b = (a + 1 + rng.below(longest) as usize).min(cols.len());
                let mut i = a;
                while i < b {
                    i = cut.process_stretch(&cols, i, b);
                }
                for k in a..b {
                    rows.process(cols.ts[k], &cols.materialize(k));
                }
                proptest::prop_assert_eq!(cut.active_flows(), rows.active_flows(), "after rows {}..{}", a, b);
                proptest::prop_assert_eq!(&cut.finished, &rows.finished, "after rows {}..{}", a, b);
                a = b;
            }
            proptest::prop_assert_eq!(cut.transit_packets, rows.transit_packets);
            proptest::prop_assert_eq!(cut.flush(), rows.flush());
        }

        /// Any checkpoint cut resumes like no cut: a probe observes rows
        /// `[0, k)` and exports its state, a fresh probe imports it from
        /// the encoded bytes with the log the first one left unsealed
        /// and observes `[k, n)`, and `finish` gives the uninterrupted
        /// run's records. The imported state re-exports to the same
        /// bytes. Time is stretched at random, so sweeps, idle
        /// evictions and DNS timeouts fall on either side of the cut.
        #[test]
        fn any_checkpoint_cut_resumes_like_no_cut(seed in proptest::prelude::any::<u64>()) {
            use crate::{checkpoint::ProbeState, seal::Sealer, Probe, ProbeConfig};
            let mut rng = proptest::TestRng::new(seed);
            let mut cols = generated_traffic(&mut rng);
            let stretch = [1, 1_000, 30_000][rng.below(3) as usize];
            for t in &mut cols.ts {
                *t = SimTime::from_nanos(t.as_nanos() * stretch);
            }
            let (n, probe) = (cols.len(), || Probe::new(ProbeConfig::new(cfg())));
            let k = rng.below(n as u64 + 1) as usize;
            let mut whole = probe();
            whole.observe_cols(&cols, 0, n);
            let mut first = probe();
            first.observe_cols(&cols, 0, k);
            let bytes = first.export_state().encode();
            let (flows, dns) = first.unsealed();
            let mut resumed = probe();
            let state = ProbeState::decode(&bytes).expect("an exported state decodes");
            resumed.import_state(state, Sealer::carrying(flows.to_vec(), dns.to_vec())).expect("and imports");
            proptest::prop_assert_eq!(resumed.export_state().encode(), bytes, "cut at row {} of {}", k, n);
            resumed.observe_cols(&cols, k, n);
            proptest::prop_assert_eq!(resumed.finish(), whole.finish(), "cut at row {} of {}", k, n);
        }
    }
}
