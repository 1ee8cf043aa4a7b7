//! Per-flow packet synthesis: turns one [`FlowIntent`] into the
//! time-stamped packet sequence the ground-station span port observes.
//!
//! The timeline reproduces the paper's Fig 1 choreography:
//!
//! * the CPE spoofs the TCP handshake towards the client and tunnels
//!   the connect request over the satellite to the ground-station PEP,
//!   which opens the real TCP connection — so the span port sees a
//!   SYN only after one satellite traversal plus PEP setup;
//! * the TLS ClientHello crosses once, the ServerHello flight returns
//!   from the origin after one ground RTT, and the ClientKeyExchange
//!   reappears at the span port one *satellite RTT* later — exactly
//!   the gap the monitor's estimator measures;
//! * UDP (DNS, QUIC, RTP) bypasses the PEP and crosses end-to-end;
//! * bulk data drains at the shaped plan rate (plan cap, video rate
//!   factor, beam congestion, shared-AP contention), which also bounds
//!   what the ground proxy fetches.

use bytes::Bytes;
use satwatch_internet::{CdnCatalog, Region};
use satwatch_netstack::columns::NO_ARENA;
use satwatch_netstack::tcp::{SeqNum, TcpFlags};
use satwatch_netstack::{dns, http, quic, rtp, tls, PacketColumns};
use satwatch_satcom::{Beam, SatelliteAccess, TrafficClass};
use satwatch_simcore::{BitRate, Bytes as Volume, Rng, SimDuration, SimTime};
use satwatch_traffic::{Category, Customer, FlowIntent, FlowProtocol, ServiceSpec};
use std::net::Ipv4Addr;

/// Network-wide model shared by all flows.
pub struct NetModel {
    pub access: SatelliteAccess,
    pub cdns: CdnCatalog,
    pub pep_enabled: bool,
    pub african_gs: bool,
}

/// Maximum payload placed in one synthetic packet. Bulk transfers are
/// coalesced into jumbo segments, like a GRO-enabled capture stack
/// delivering aggregated buffers: the monitor counts *bytes*, which is
/// what every analysis uses. The shared zero buffer bounds memory.
const MAX_CHUNK: u64 = 64_000_000;
/// Preferred chunk granularity for medium flows.
const CHUNK_TARGET: u64 = 256_000;
/// Maximum data packets per direction per flow.
const MAX_CHUNKS: usize = 48;
/// Cap on the emission window of a single flow, so multi-GB transfers
/// do not span the whole day (they are truncated in *time*, keeping
/// their byte volume — equivalent to the transfer running at a higher
/// short-term rate, which only sharpens throughput estimates).
const MAX_FLOW_DURATION: SimDuration = SimDuration::from_secs(1200);

/// One zero-filled buffer shared by every bulk payload. Leaked into a
/// `'static` slice so every clone/slice is a plain pointer copy with
/// no refcount traffic — bulk chunks are by far the most-cloned
/// payloads in a run (one 64 MB block for the process lifetime).
fn bulk_buffer() -> Bytes {
    static BUF: std::sync::OnceLock<Bytes> = std::sync::OnceLock::new();
    BUF.get_or_init(|| Bytes::from_static(Box::leak(vec![0u8; MAX_CHUNK as usize].into_boxed_slice()))).clone()
}

/// Split `total` into at most `MAX_CHUNKS` chunks: medium flows get
/// ~CHUNK_TARGET-sized packets, huge flows get proportionally larger
/// (coalesced) ones, capped by the shared buffer. Byte totals are
/// preserved exactly up to `MAX_CHUNKS × MAX_CHUNK` (≈ 3 GB) per
/// direction. Returns (per-packet payload bytes, packets).
fn chunk_plan(total: u64) -> (u64, usize) {
    if total == 0 {
        return (0, 0);
    }
    let n = total.div_ceil(CHUNK_TARGET).clamp(1, MAX_CHUNKS as u64) as usize;
    (total / n as u64, n)
}

struct FlowBuilder<'a> {
    client: Ipv4Addr,
    server: Ipv4Addr,
    client_port: u16,
    server_port: u16,
    cseq: SeqNum,
    sseq: SeqNum,
    /// The flow's packets accumulate as parallel columns — no
    /// per-packet `Packet`/`TcpHeader` structs on this path.
    out: &'a mut PacketColumns,
    /// One flow's payload bytes land in this shared per-run arena.
    /// Rows record (offset, len) pairs into it; [`FlowBuilder::finish`]
    /// freezes the arena block once into the run, making every offset
    /// a zero-copy slice.
    arena: &'a mut satwatch_simcore::PayloadArena,
}

impl<'a> FlowBuilder<'a> {
    fn endpoints(&self, c2s: bool) -> (Ipv4Addr, Ipv4Addr, u16, u16) {
        if c2s {
            (self.client, self.server, self.client_port, self.server_port)
        } else {
            (self.server, self.client, self.server_port, self.client_port)
        }
    }

    /// Seq/ack bookkeeping for one TCP row, mirroring a real stack:
    /// SYN and FIN consume one sequence number each. Returns
    /// `(seq, ack, mss)` where a nonzero `mss` marks the canonical
    /// SYN option set (MSS value differs by direction, as real
    /// client/server stacks advertise).
    fn tcp_meta(&mut self, c2s: bool, flags: TcpFlags, payload_len: usize) -> (u32, u32, u16) {
        let mss = if flags.syn() {
            if c2s {
                1460
            } else {
                1440
            }
        } else {
            0
        };
        let adv = payload_len as u32 + u32::from(flags.syn()) + u32::from(flags.fin());
        if c2s {
            let sa = (self.cseq.0, self.sseq.0);
            self.cseq = self.cseq + adv;
            (sa.0, sa.1, mss)
        } else {
            let sa = (self.sseq.0, self.cseq.0);
            self.sseq = self.sseq + adv;
            (sa.0, sa.1, mss)
        }
    }

    fn push_tcp(&mut self, t: SimTime, c2s: bool, flags: TcpFlags, pay_off: u32, pay_len: u32) {
        let (src, dst, sp, dp) = self.endpoints(c2s);
        let (seq, ack, mss) = self.tcp_meta(c2s, flags, pay_len as usize);
        self.out.push_tcp(t, src, dst, sp, dp, flags, mss, seq, ack, pay_off, pay_len);
    }

    /// A control row (SYN, SYN-ACK, a bare ACK): no payload.
    fn tcp(&mut self, t: SimTime, c2s: bool, flags: TcpFlags) {
        self.push_tcp(t, c2s, flags, NO_ARENA, 0);
    }

    /// A row backed by the shared zero buffer whose `seq`/`ack` the
    /// caller numbered: the data phase interleaves both directions in
    /// time, so the running counters of [`tcp_meta`](Self::tcp_meta)
    /// stop at its start.
    fn tcp_numbered(&mut self, t: SimTime, c2s: bool, flags: TcpFlags, seq: SeqNum, ack: SeqNum, zeros_len: u32) {
        let (src, dst, sp, dp) = self.endpoints(c2s);
        self.out.push_tcp(t, src, dst, sp, dp, flags, 0, seq.0, ack.0, NO_ARENA, zeros_len);
    }

    /// Arena path: `w` appends the payload bytes in place.
    fn tcp_w(&mut self, t: SimTime, c2s: bool, flags: TcpFlags, w: impl FnOnce(&mut Vec<u8>)) {
        let (s, e) = self.arena.write(w);
        self.push_tcp(t, c2s, flags, s as u32, (e - s) as u32);
    }

    /// Bulk UDP chunk backed by the shared zero buffer.
    fn udp(&mut self, t: SimTime, c2s: bool, zeros_len: usize) {
        let (src, dst, sp, dp) = self.endpoints(c2s);
        self.out.push_udp(t, src, dst, sp, dp, NO_ARENA, zeros_len as u32);
    }

    /// Arena path for UDP on the flow's own 5-tuple.
    fn udp_w(&mut self, t: SimTime, c2s: bool, w: impl FnOnce(&mut Vec<u8>)) {
        let (s, e) = self.arena.write(w);
        self.udp_at(t, c2s, s, e);
    }

    /// Arena path with explicit offsets: used by the RTP overlap
    /// layout, where consecutive packets share one header block and
    /// their payload slices intentionally overlap.
    fn udp_at(&mut self, t: SimTime, c2s: bool, s: usize, e: usize) {
        let (src, dst, sp, dp) = self.endpoints(c2s);
        self.out.push_udp(t, src, dst, sp, dp, s as u32, (e - s) as u32);
    }

    /// Arena path with explicit endpoints (the DNS transaction talks
    /// to the resolver, not the flow's server).
    fn udp_raw_w(&mut self, t: SimTime, src: Ipv4Addr, dst: Ipv4Addr, sp: u16, dp: u16, w: impl FnOnce(&mut Vec<u8>)) {
        let (s, e) = self.arena.write(w);
        self.out.push_udp(t, src, dst, sp, dp, s as u32, (e - s) as u32);
    }

    /// Seal the run's shared-zero buffer. The arena block itself is
    /// frozen by the caller — per flow in [`NetModel::emit_flow`] (the
    /// drive loop's RTP runs), once per cohort in the drive loop — so
    /// recorded (offset, len) pairs resolve against whichever block the
    /// caller installs as [`PacketColumns::payload`].
    fn finish(self) {
        self.out.zeros = bulk_buffer();
    }
}

/// All values one flow pulled off the **parent** RNG stream, recorded
/// by [`NetModel::plan_flow_cached`] in exactly the order a one-pass
/// synthesis would draw them, so [`NetModel::emit_flow`] can replay
/// the flow without touching the parent stream at all (DESIGN.md §3,
/// the draw-order proof).
///
/// Scalar draws land in named fields; the variable-length delay draws
/// (uplink/downlink traversals, PEP setup, resolver latency, home-RTT
/// samples) land as a contiguous slice of the cohort's shared delay
/// column, consumed front-to-back by a `DelayCursor`. The "grtt"
/// fork is stored as RNG *state*: forking never consumes parent state,
/// and the ground-RTT jitter draws depend only on the fork and the
/// (branch-deterministic) call order, so emission can draw them live.
pub struct FlowPlan {
    server: Ipv4Addr,
    g_base: SimDuration,
    grtt: Rng,
    client_port: u16,
    server_port: u16,
    cseq: u32,
    sseq: u32,
    /// `(dns_port, query_id)` when the flow opens with a DNS lookup.
    dns: Option<(u16, u16)>,
    proto: ProtoPlan,
    /// This flow's slice of the cohort delay column.
    delays: (u32, u32),
}

/// Protocol-specific parent draws. Branch structure downstream of the
/// plan is a pure function of `(intent, config)` plus these values, so
/// plan and emission traverse the same arms by construction.
enum ProtoPlan {
    Tcp { head: TcpHead, dur_down: SimDuration, dur_up: SimDuration },
    Quic { dcid: [u8; 8], scid: [u8; 5], init_random: [u8; 32], dur_down: SimDuration, dur_up: SimDuration },
    Udp { duration: SimDuration, ssrc: u32 },
}

enum TcpHead {
    Tls { ch_random: [u8; 32], sh_jitter: SimDuration, sh_random: [u8; 32], cert_len: u32 },
    Http { path_n: u32, head_jitter: SimDuration },
    Opaque,
}

/// Front-to-back reader over one flow's slice of the cohort delay
/// column. Emission pops delays at the same call sites planning pushed
/// them; the debug assertion in [`NetModel::emit_flow`] catches any
/// push/pop mismatch immediately.
struct DelayCursor<'a> {
    d: &'a [SimDuration],
    i: usize,
}

impl DelayCursor<'_> {
    #[inline]
    fn next(&mut self) -> SimDuration {
        let v = self.d[self.i];
        self.i += 1;
        v
    }
}

/// `/content/<n>` formatted into a stack buffer — the HTTP request
/// path used to be the hot path's only `format!` allocation.
fn content_path(buf: &mut [u8; 20], mut n: u32) -> &str {
    const PREFIX: &[u8; 9] = b"/content/";
    buf[..9].copy_from_slice(PREFIX);
    let mut digits = [0u8; 10];
    let mut k = 10;
    loop {
        k -= 1;
        digits[k] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    let dl = 10 - k;
    buf[9..9 + dl].copy_from_slice(&digits[k..]);
    std::str::from_utf8(&buf[..9 + dl]).expect("ascii path")
}

impl NetModel {
    /// Ground-segment RTT base for one flow, honouring the A1
    /// ablation: with an African ground station, African customers'
    /// traffic to African/Asian destinations is routed locally.
    fn ground_rtt_base(&self, region: Region, customer_african: bool, rng: &mut Rng) -> SimDuration {
        if self.african_gs && customer_african {
            let ms = match region {
                Region::AfricaWest => 18.0,
                Region::AfricaCentral => 35.0,
                Region::AfricaSouth => 45.0,
                Region::AfricaEast => 40.0,
                Region::China => 170.0,
                // European/US destinations still go through Italy
                _ => return region.sample_ground_rtt(rng),
            };
            SimDuration::from_millis_f64(ms * rng.range_f64(0.9, 1.2))
        } else {
            region.sample_ground_rtt(rng)
        }
    }

    /// Effective download drain rate for one flow.
    fn down_rate(&self, intent_cat: Category, customer: &Customer, beam: &Beam, util: f64, rng: &mut Rng) -> BitRate {
        let class = if intent_cat == Category::Video { TrafficClass::Video } else { TrafficClass::BestEffort };
        let congestion = 1.0 - 0.55 * util * util;
        // impaired channels fall down the DVB-S2 MODCOD ladder and
        // lose spectral efficiency (blended: ACM only bites once the
        // impairment eats the clear-sky margin)
        let impairment_loss = satwatch_satcom::acm::goodput_factor(beam.impairment).max(1.0 - 0.45 * beam.impairment);
        let contention = match customer.archetype {
            satwatch_traffic::Archetype::CommunityAp | satwatch_traffic::Archetype::InternetCafe => {
                1.0 / (1.0 + 0.05 * customer.users as f64 * rng.range_f64(0.3, 1.0))
            }
            _ => 1.0,
        };
        let device = if customer.country.is_african() { rng.range_f64(0.7, 1.0) } else { rng.range_f64(0.92, 1.0) };
        customer
            .terminal
            .plan
            .down()
            .mul_f64(class.rate_factor() * congestion * contention * device * impairment_loss)
            .min(customer.terminal.plan.down())
            .mul_f64(1.0)
    }

    fn up_rate(&self, customer: &Customer, util: f64, rng: &mut Rng) -> BitRate {
        let congestion = 1.0 - 0.5 * util * util;
        customer.terminal.plan.up().mul_f64(congestion * rng.range_f64(0.7, 1.0))
    }

    /// Simulate one flow; rows are appended to the columnar run `out`
    /// in time order, none before the intent starts (other flows' rows
    /// are the reader's business: the probe's passes or the
    /// reference's heap). All payload bytes are bump-allocated in
    /// `arena` and frozen into one `Bytes` block per run — the arena is
    /// drained (`take`) before returning.
    ///
    /// This is the reference's synthesis
    /// ([`run_reference`](crate::reference::run_reference)): the
    /// sampling pass over an uncached delay snapshot (all parent-RNG
    /// draws) followed by [`emit_flow`](Self::emit_flow) (RNG-free
    /// packet emission) — the flow-at-a-time composition of the same
    /// two passes the cohort driver batches.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate_flow(
        &self,
        intent: &FlowIntent,
        customer: &Customer,
        catalog: &[ServiceSpec],
        beam: &Beam,
        rng: &mut Rng,
        arena: &mut satwatch_simcore::PayloadArena,
        out: &mut PacketColumns,
    ) {
        let mut delay_col = Vec::new();
        let hour = intent.start.local_hour(customer.country.tz_offset());
        // One snapshot of the RNG-free delay terms for the whole flow:
        // identical draws, minus two haversines + a rain-fade lookup
        // per packet (see `SatelliteAccess::delay_snapshot`).
        let snap = self.access.delay_snapshot(beam, &customer.terminal, hour, intent.start);
        let plan = self.plan_with(intent, customer, catalog, beam, snap, rng, &mut delay_col);
        self.emit_flow(intent, customer, &plan, &delay_col, arena, out);
    }

    /// Sampling pass, the cohort driver's: consume the parent RNG
    /// stream for one flow and record every drawn value. Serial per
    /// cohort (the stream is shared across flows in intent-pop order);
    /// the recorded plan makes [`emit_flow`](Self::emit_flow)
    /// parent-RNG-free, so a cohort is planned in one pass and emitted
    /// in the next.
    ///
    /// Delay-term draws go through [`DelayPlanner`](satwatch_satcom::channel::DelayPlanner),
    /// which appends each sample to `delay_col` — the cohort's shared
    /// delay column — and hands back `(start, end)` for the plan.
    ///
    /// The snapshot's per-flow-constant inputs are memoized: the
    /// terminal's bent-pipe propagation comes in precomputed (a pure
    /// per-terminal constant) and the rain/utilization terms from
    /// `cache`; the assembled snapshot is value-identical to the
    /// uncached one [`simulate_flow`](Self::simulate_flow) builds (see
    /// [`SatelliteAccess::delay_snapshot_cached`]), so the RNG stream
    /// and the plan are byte-for-byte the same.
    #[allow(clippy::too_many_arguments)]
    pub fn plan_flow_cached(
        &self,
        intent: &FlowIntent,
        customer: &Customer,
        catalog: &[ServiceSpec],
        beam: &Beam,
        propagation: SimDuration,
        cache: &mut satwatch_satcom::DelayCache,
        rng: &mut Rng,
        delay_col: &mut Vec<SimDuration>,
    ) -> FlowPlan {
        let hour = intent.start.local_hour(customer.country.tz_offset());
        let snap = self.access.delay_snapshot_cached(beam, propagation, hour, intent.start, cache);
        self.plan_with(intent, customer, catalog, beam, snap, rng, delay_col)
    }

    /// The sampling pass proper, over an already-built delay snapshot.
    #[allow(clippy::too_many_arguments)]
    fn plan_with(
        &self,
        intent: &FlowIntent,
        customer: &Customer,
        catalog: &[ServiceSpec],
        beam: &Beam,
        snap: satwatch_satcom::channel::DelaySnapshot<'_>,
        rng: &mut Rng,
        delay_col: &mut Vec<SimDuration>,
    ) -> FlowPlan {
        let svc = &catalog[intent.service.0 as usize];
        let terminal = &customer.terminal;
        // the snapshot already holds the hour's diurnal utilization —
        // read it once instead of recomputing the cosine per rate call
        let util = snap.utilization();
        let mut dp = snap.planner(delay_col);

        // --- resolution chain: hint → serving region → server addr ---
        let hint = intent.resolver.hint_region(rng, customer.country.home_region());
        let region = svc.hosting.serving_region(&self.cdns, hint, rng);
        let server = satwatch_internet::server::server_address_for_domain(region, intent.domain.name(), rng);
        let g_base = self.ground_rtt_base(region, customer.country.is_african(), rng);
        let grtt = rng.fork("grtt");

        let client_port = 20_000 + rng.below(40_000) as u16;
        let server_port = match intent.protocol {
            FlowProtocol::Tls => 443,
            FlowProtocol::Quic => 443,
            FlowProtocol::Http => 80,
            FlowProtocol::OtherTcp => *rng.pick(&[8443u16, 4500, 1194, 993, 5001, 9001]),
            FlowProtocol::OtherUdp => *rng.pick(&[3478u16, 4500, 51820, 19302]),
            FlowProtocol::Rtp => (16_384 + rng.below(8_000) * 2) as u16,
        };
        let cseq = rng.next_u32();
        let sseq = rng.next_u32();

        // --- DNS transaction (UDP, PEP bypass) ---
        let mut cold_used = false;
        let dns = if intent.needs_dns {
            let dns_port = 10_000 + rng.below(50_000) as u16;
            let qid = rng.next_u32() as u16;
            dp.up(rng, true);
            cold_used = true;
            dp.push(intent.resolver.sample_response_time(rng));
            dp.down(rng);
            Some((dns_port, qid))
        } else {
            None
        };

        let proto = match intent.protocol {
            FlowProtocol::Tls | FlowProtocol::Http | FlowProtocol::OtherTcp => {
                dp.up(rng, !cold_used);
                if self.pep_enabled {
                    let d = dp.snapshot().pep_setup(rng);
                    dp.push(d);
                }
                let head = match intent.protocol {
                    FlowProtocol::Tls => {
                        if !self.pep_enabled {
                            dp.down(rng);
                            dp.up(rng, false);
                        }
                        let ch_random = rand_bytes32(rng);
                        let sh_jitter = SimDuration::from_millis_f64(rng.range_f64(0.5, 4.0));
                        let sh_random = rand_bytes32(rng);
                        let cert_len = 2400 + rng.below(1200) as u32;
                        dp.down(rng);
                        dp.push(terminal.home_rtt_sample(rng));
                        dp.up(rng, false);
                        TcpHead::Tls { ch_random, sh_jitter, sh_random, cert_len }
                    }
                    FlowProtocol::Http => {
                        if !self.pep_enabled {
                            dp.down(rng);
                            dp.up(rng, false);
                        }
                        let path_n = rng.below(1_000_000) as u32;
                        let head_jitter = SimDuration::from_millis_f64(rng.range_f64(0.5, 5.0));
                        TcpHead::Http { path_n, head_jitter }
                    }
                    _ => TcpHead::Opaque,
                };
                let down_rate = self.down_rate(svc.category, customer, beam, util, rng);
                let up_rate = self.up_rate(customer, util, rng);
                let dur_down = plan_bulk(intent.down_bytes, down_rate, rng);
                let dur_up = plan_bulk(intent.up_bytes, up_rate, rng);
                ProtoPlan::Tcp { head, dur_down, dur_up }
            }
            FlowProtocol::Quic => {
                let mut dcid = [0u8; 8];
                for b in &mut dcid {
                    *b = rng.next_u32() as u8;
                }
                let mut scid = [0u8; 5];
                for b in &mut scid {
                    *b = rng.next_u32() as u8;
                }
                dp.up(rng, !cold_used);
                let init_random = rand_bytes32(rng);
                dp.down(rng);
                dp.push(terminal.home_rtt_sample(rng));
                dp.up(rng, false);
                // data: end-to-end congestion control over the long
                // path is less efficient than the split connection
                // (§2.1 footnote 3)
                let rate = self.down_rate(svc.category, customer, beam, util, rng).mul_f64(0.72);
                let dur_down = Volume(intent.down_bytes).tx_time(rate).min(MAX_FLOW_DURATION);
                let up_rate = self.up_rate(customer, util, rng);
                let dur_up = Volume(intent.up_bytes).tx_time(up_rate).min(MAX_FLOW_DURATION);
                ProtoPlan::Quic { dcid, scid, init_random, dur_down, dur_up }
            }
            FlowProtocol::Rtp | FlowProtocol::OtherUdp => {
                let is_rtp = intent.protocol == FlowProtocol::Rtp;
                // media/tunnel streams run at a codec-ish rate
                let rate = BitRate::from_kbps(if is_rtp { 80 + rng.below(80) } else { 200 + rng.below(800) });
                dp.up(rng, !cold_used);
                let ssrc = rng.next_u32();
                let total = intent.down_bytes + intent.up_bytes;
                let duration = Volume(total).tx_time(rate).min(MAX_FLOW_DURATION).max(SimDuration::from_secs(2));
                ProtoPlan::Udp { duration, ssrc }
            }
        };
        let delays = dp.finish();
        FlowPlan { server, g_base, grtt, client_port, server_port, cseq, sseq, dns, proto, delays }
    }

    /// Emission pass: expand one planned flow into packet columns.
    /// Touches no RNG except the plan's private "grtt" fork — every
    /// parent-stream value is read back from the plan, so emitting a
    /// flow cannot perturb any other flow.
    ///
    /// The run comes out in time order, its first row at or after the
    /// intent's start: the handshake, the DNS transaction and the
    /// UDP/RTP streams are written in time order, and the bulk phase
    /// merges its sources by time (`tests/emission_order.rs`). Nothing
    /// downstream sorts a run.
    ///
    /// Freezes the arena into the run's own payload block. The
    /// cohort loop uses [`emit_flow_open`](Self::emit_flow_open)
    /// instead and freezes once per cohort, except for RTP runs, whose
    /// rows read their region to the stream's end.
    pub fn emit_flow(
        &self,
        intent: &FlowIntent,
        customer: &Customer,
        plan: &FlowPlan,
        delay_col: &[SimDuration],
        arena: &mut satwatch_simcore::PayloadArena,
        out: &mut PacketColumns,
    ) {
        self.emit_flow_open(intent, customer, plan, delay_col, arena, out);
        out.payload = Bytes::from(arena.take());
    }

    /// [`emit_flow`](Self::emit_flow) without the per-flow arena
    /// freeze: rows record offsets into the caller's still-open arena
    /// block, and the caller later patches [`PacketColumns::payload`]
    /// with the block frozen *once for a whole cohort* — offsets are
    /// absolute within the block, so every run of the cohort resolves
    /// its slices out of the same shared `Bytes`. One allocation per
    /// cohort instead of one per flow; the resolved payload bytes are
    /// identical either way.
    pub fn emit_flow_open(
        &self,
        intent: &FlowIntent,
        customer: &Customer,
        plan: &FlowPlan,
        delay_col: &[SimDuration],
        arena: &mut satwatch_simcore::PayloadArena,
        out: &mut PacketColumns,
    ) {
        let terminal = &customer.terminal;
        let mut dq = DelayCursor { d: &delay_col[plan.delays.0 as usize..plan.delays.1 as usize], i: 0 };
        let g_base = plan.g_base;
        let mut grtt = plan.grtt.clone();
        let mut g = move || g_base.mul_f64(grtt.range_f64(0.96, 1.12));
        let mut fb = FlowBuilder {
            client: terminal.address,
            server: plan.server,
            client_port: plan.client_port,
            server_port: plan.server_port,
            cseq: SeqNum(plan.cseq),
            sseq: SeqNum(plan.sseq),
            out,
            arena,
        };

        // --- DNS transaction (UDP, PEP bypass) ---
        let mut t_client_ready = intent.start;
        if let Some((dns_port, qid)) = plan.dns {
            let resolver_addr = intent.resolver.address();
            let t_q = intent.start + dq.next();
            fb.udp_raw_w(t_q, terminal.address, resolver_addr, dns_port, 53, |b| {
                dns::write_a_query(b, qid, intent.domain.name())
            });
            let t_r = t_q + dq.next();
            fb.udp_raw_w(t_r, resolver_addr, terminal.address, 53, dns_port, |b| {
                dns::write_a_answer(b, qid, intent.domain.name(), plan.server, 300)
            });
            t_client_ready = t_r + dq.next();
        }

        match &plan.proto {
            ProtoPlan::Tcp { head, dur_down, dur_up } => {
                self.emit_tcp(intent, head, *dur_down, *dur_up, t_client_ready, &mut g, &mut dq, &mut fb);
            }
            ProtoPlan::Quic { dcid, scid, init_random, dur_down, dur_up } => {
                emit_quic(
                    intent,
                    dcid,
                    scid,
                    *init_random,
                    *dur_down,
                    *dur_up,
                    t_client_ready,
                    &mut g,
                    &mut dq,
                    &mut fb,
                );
            }
            ProtoPlan::Udp { duration, ssrc } => {
                emit_udp_stream(intent, *duration, *ssrc, t_client_ready, &mut dq, &mut fb);
            }
        }
        debug_assert_eq!(dq.i, dq.d.len(), "plan delay column fully consumed");
        fb.finish();
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_tcp(
        &self,
        intent: &FlowIntent,
        head: &TcpHead,
        dur_down: SimDuration,
        dur_up: SimDuration,
        t_ready: SimTime,
        g: &mut impl FnMut() -> SimDuration,
        dq: &mut DelayCursor<'_>,
        fb: &mut FlowBuilder<'_>,
    ) {
        let eps = SimDuration::from_micros(300);
        // With the PEP, the CPE completes the client handshake locally
        // and the connect crosses the satellite once; without it, the
        // SYN itself crosses end-to-end (A3 ablation).
        let t_conn_at_gs = t_ready + dq.next();
        let t_syn = if self.pep_enabled { t_conn_at_gs + dq.next() } else { t_conn_at_gs };
        if self.pep_enabled {
            // the CPE completed the client-side handshake with a
            // spoofed ACK before the tunnel connect crossed the bird
            satwatch_satcom::pep::note_spoofed_ack();
        }
        fb.tcp(t_syn, true, TcpFlags::SYN);
        let t_synack = t_syn + g();
        fb.tcp(t_synack, false, TcpFlags::SYN_ACK);
        fb.tcp(t_synack + eps, true, TcpFlags::ACK);

        #[allow(clippy::needless_late_init)]
        let t_data_start;
        match head {
            TcpHead::Tls { ch_random, sh_jitter, sh_random, cert_len } => {
                // ClientHello: with PEP it was already buffered at the
                // ground station when the tunnel opened; e2e the client
                // learns of SYN-ACK after a satellite round, then the
                // CH crosses again.
                let t_ch = if self.pep_enabled { t_synack + eps + eps } else { t_synack + dq.next() + dq.next() };
                fb.tcp_w(t_ch, true, TcpFlags::PSH_ACK, |b| {
                    tls::client_hello_into(b, intent.domain.name(), *ch_random)
                });
                // server flight
                let t_sh = t_ch.max(t_synack) + g() + *sh_jitter;
                fb.tcp_w(t_sh, false, TcpFlags::PSH_ACK, |b| tls::server_hello_into(b, *sh_random));
                fb.tcp_w(t_sh + eps, false, TcpFlags::PSH_ACK, |b| {
                    tls::certificate_into(b, *cert_len as usize, 0x43);
                    tls::server_hello_done_into(b);
                });
                // ClientKeyExchange returns after one full satellite
                // round trip (+ home) — the monitor's satellite RTT.
                let t_cke = t_sh + dq.next() + dq.next() + dq.next();
                fb.tcp_w(t_cke, true, TcpFlags::PSH_ACK, |b| {
                    tls::client_key_exchange_into(b, 0x6b);
                    tls::change_cipher_spec_into(b);
                    tls::finished_into(b, 0x0f);
                });
                // server CCS+Finished
                let t_srv_fin = t_cke + g();
                fb.tcp_w(t_srv_fin, false, TcpFlags::PSH_ACK, |b| {
                    tls::change_cipher_spec_into(b);
                    tls::finished_into(b, 0x0e);
                });
                t_data_start = t_srv_fin + eps;
            }
            TcpHead::Http { path_n, head_jitter } => {
                // request was buffered at the CPE; the PEP forwards it
                // right after the ground handshake
                let t_get = if self.pep_enabled { t_synack + eps + eps } else { t_synack + dq.next() + dq.next() };
                let mut pathbuf = [0u8; 20];
                let path = content_path(&mut pathbuf, *path_n);
                fb.tcp_w(t_get, true, TcpFlags::PSH_ACK, |b| {
                    http::get_request_into(b, intent.domain.name(), path, "satwatch-ua/1.0")
                });
                let t_head = t_get + g() + *head_jitter;
                fb.tcp_w(t_head, false, TcpFlags::PSH_ACK, |b| {
                    http::ok_response_into(b, intent.down_bytes, "application/octet-stream")
                });
                t_data_start = t_head + eps;
            }
            TcpHead::Opaque => {
                // opaque client-first protocol: one small binary blob,
                // promptly ACKed by the server — that ACK is what the
                // monitor's data↔ACK estimator samples (without it the
                // first paced data chunk would close the sample
                // seconds later and pollute the ground RTT)
                let t_blob = t_synack + eps + eps;
                fb.tcp_w(t_blob, true, TcpFlags::PSH_ACK, |b| b.resize(b.len() + 48, 0xd5));
                let t_blob_ack = t_blob + g();
                fb.tcp(t_blob_ack, false, TcpFlags::ACK);
                t_data_start = t_blob_ack + eps;
            }
        }

        // --- bulk phases, the tail ACK and the FIN exchange ---
        let mut down = Chunks::bulk(t_data_start, intent.down_bytes, dur_down);
        let mut up = Chunks::bulk(t_data_start, intent.up_bytes, dur_up);
        let (t_down_end, t_up_end) = (down.end(), up.end());
        // "grtt" draws: the server acks the upload tail, sampling the
        // ground RTT again, then t_end, then the server's FIN
        let mut t_end = t_down_end.max(t_up_end);
        let mut t_tail_ack = None;
        if intent.up_bytes > 0 {
            t_tail_ack = Some(t_up_end + g());
            t_end = t_end.max(t_up_end + g());
        }
        let t_fin = t_end + eps;
        let (mut t_client_fin, mut t_server_fin) = (Some(t_fin), Some(t_fin + g()));

        // Every row carries the numbers of a download written whole
        // before the upload: download rows ack the client's sequence
        // after the head, upload rows the server's after the download.
        let (c0, s0) = (fb.cseq, fb.sseq);
        let (c_end, s_end) = (c0 + up.total(), s0 + down.total());
        let (mut c, mut s) = (c0, s0);
        // Five sources, each in time order, merged; a time tie goes to
        // the earlier source in this list, which keeps the bytes of the
        // download-then-upload writing a stable sort used to reorder.
        while let Some((t, source)) = first_due([down.peek(), up.peek(), t_tail_ack, t_client_fin, t_server_fin]) {
            match source {
                0 => {
                    let len = down.pop();
                    fb.tcp_numbered(t, false, TcpFlags::PSH_ACK, s, c0, len);
                    s = s + len;
                }
                1 => {
                    let len = up.pop();
                    fb.tcp_numbered(t, true, TcpFlags::PSH_ACK, c, s_end, len);
                    c = c + len;
                }
                2 => {
                    fb.tcp_numbered(t, false, TcpFlags::ACK, s_end, c_end, 0);
                    t_tail_ack = None;
                }
                3 => {
                    fb.tcp_numbered(t, true, TcpFlags::FIN_ACK, c_end, s_end, 0);
                    t_client_fin = None;
                }
                _ => {
                    fb.tcp_numbered(t, false, TcpFlags::FIN_ACK, s_end, c_end + 1, 0);
                    t_server_fin = None;
                }
            }
        }
    }
}

/// The earliest of `heads` and its index; a time tie goes to the
/// lower index. `None` once every source is spent.
fn first_due<const N: usize>(heads: [Option<SimTime>; N]) -> Option<(SimTime, usize)> {
    heads.into_iter().enumerate().filter_map(|(k, t)| Some((t?, k))).min()
}

/// One direction of a bulk transfer: `n` chunks, the `i`-th at
/// `t0 + (duration / n) · (i + 1)`, read front to back — in time order.
struct Chunks {
    t0: SimTime,
    step: SimDuration,
    n: usize,
    next: usize,
    /// Payload of every chunk but the last, and of the last.
    len: u32,
    last: u32,
}

impl Chunks {
    fn new(t0: SimTime, duration: SimDuration, n: usize, len: u64, last: u64) -> Chunks {
        let step = if n == 0 { SimDuration::ZERO } else { duration / n as i64 };
        Chunks { t0, step, n, next: 0, len: len.min(MAX_CHUNK) as u32, last: last.min(MAX_CHUNK) as u32 }
    }

    /// `bytes` cut by [`chunk_plan`], the last chunk taking the rest,
    /// drained over the planned (jittered) `duration`.
    fn bulk(t0: SimTime, bytes: u64, duration: SimDuration) -> Chunks {
        let (chunk, n) = chunk_plan(bytes);
        Chunks::new(t0, duration, n, chunk, bytes - chunk * (n as u64).saturating_sub(1))
    }

    /// The next chunk's time.
    fn peek(&self) -> Option<SimTime> {
        (self.next < self.n).then(|| self.t0 + self.step * (self.next as i64 + 1))
    }

    /// Take the next chunk: its payload length.
    fn pop(&mut self) -> u32 {
        self.next += 1;
        if self.next == self.n {
            self.last
        } else {
            self.len
        }
    }

    /// The last chunk's time, or `t0` when there is none.
    fn end(&self) -> SimTime {
        self.t0 + self.step * self.n as i64
    }

    /// Payload over every chunk, modulo 2³² like a sequence number.
    fn total(&self) -> u32 {
        match self.n {
            0 => 0,
            n => (u64::from(self.len) * (n as u64 - 1) + u64::from(self.last)) as u32,
        }
    }
}

/// Planning half of the bulk phase: the drain duration, including its
/// rate-jitter draw (drawn only when there is anything to send: an
/// empty transfer has no chunks, and `n == 0 ⇔ bytes == 0`).
fn plan_bulk(bytes: u64, rate: BitRate, rng: &mut Rng) -> SimDuration {
    if bytes == 0 {
        return SimDuration::ZERO;
    }
    Volume(bytes).tx_time(rate.mul_f64(rng.range_f64(0.92, 1.0)).min(rate)).min(MAX_FLOW_DURATION)
}

#[allow(clippy::too_many_arguments)]
fn emit_quic(
    intent: &FlowIntent,
    dcid: &[u8; 8],
    scid: &[u8; 5],
    init_random: [u8; 32],
    dur_down: SimDuration,
    dur_up: SimDuration,
    t_ready: SimTime,
    g: &mut impl FnMut() -> SimDuration,
    dq: &mut DelayCursor<'_>,
    fb: &mut FlowBuilder<'_>,
) {
    // QUIC bypasses the PEP: everything end-to-end over 550 ms.
    let t_init = t_ready + dq.next();
    fb.udp_w(t_init, true, |b| quic::initial_with_sni_into(b, dcid, scid, intent.domain.name(), init_random));
    // server handshake flight
    let t_hs = t_init + g();
    fb.udp_w(t_hs, false, |b| quic::short_packet_into(b, scid, 1200, 0x71));
    fb.udp_w(t_hs + SimDuration::from_micros(200), false, |b| quic::short_packet_into(b, scid, 1200, 0x72));
    // client finishes after a satellite round trip
    let t_fin = t_hs + dq.next() + dq.next() + dq.next();
    fb.udp_w(t_fin, true, |b| quic::short_packet_into(b, dcid, 80, 0x73));
    let t0 = t_fin + g();
    let mut down = Chunks::bulk(t0, intent.down_bytes, dur_down);
    // sparse client acks/up data
    let (uchunk, un) = chunk_plan(intent.up_bytes.min(intent.down_bytes / 4 + intent.up_bytes));
    let mut up = Chunks::new(t0, dur_up, un.min(8), uchunk.min(1200), uchunk.min(1200));
    // merged by time, download first on ties
    while let Some((t, source)) = first_due([down.peek(), up.peek()]) {
        if source == 0 {
            fb.udp(t, false, down.pop() as usize);
        } else {
            fb.udp(t, true, up.pop() as usize);
        }
    }
}

fn emit_udp_stream(
    intent: &FlowIntent,
    duration: SimDuration,
    ssrc: u32,
    t_ready: SimTime,
    dq: &mut DelayCursor<'_>,
    fb: &mut FlowBuilder<'_>,
) {
    let is_rtp = intent.protocol == FlowProtocol::Rtp;
    let n_each = ((duration.as_secs_f64() / 2.0) as usize).clamp(2, MAX_CHUNKS);
    let t0 = t_ready + dq.next();
    let chunk_c2s = (intent.up_bytes / n_each as u64).clamp(60, MAX_CHUNK);
    let chunk_s2c = (intent.down_bytes / n_each as u64).clamp(60, MAX_CHUNK);
    if is_rtp {
        // Overlap layout: one arena region holds all 2×n_each RTP
        // headers at a 24-byte stride, followed by a single zero
        // tail long enough for the largest payload. Packet i's
        // payload slice starts at its own header and runs over the
        // *later* headers and into the zeros — legal because
        // nothing downstream reads RTP payload bytes past the
        // 12-byte header (the DPI heuristic inspects exactly
        // `payload[0..12]`; byte counters use lengths only). This
        // turns n_each memsets of media-sized buffers into one
        // shared tail per flow.
        let len_c2s = rtp::RTP_HEADER_LEN + chunk_c2s as usize - rtp::RTP_HEADER_LEN.min(chunk_c2s as usize);
        let len_s2c = rtp::RTP_HEADER_LEN + chunk_s2c as usize;
        let stride = 2 * rtp::RTP_HEADER_LEN;
        let region = stride * (n_each - 1) + len_c2s.max(rtp::RTP_HEADER_LEN + len_s2c);
        let (start, _) = fb.arena.write(|b| {
            // the day loop gives an RTP run an arena of its own: one
            // allocation of the region's size
            b.reserve(region);
            for i in 0..n_each {
                let hdr = rtp::RtpHeader {
                    payload_type: 111,
                    sequence: i as u16,
                    timestamp: (i as u32) * 960,
                    ssrc,
                    marker: i == 0,
                };
                b.extend_from_slice(&hdr.header_bytes());
                let hdr2 = rtp::RtpHeader { ssrc: ssrc ^ 1, ..hdr };
                b.extend_from_slice(&hdr2.header_bytes());
            }
            let base = b.len() - stride * n_each;
            b.resize(base + region, 0);
        });
        for i in 0..n_each {
            let t = t0 + (duration / n_each as i64) * (i as i64 + 1);
            let at = start + stride * i;
            fb.udp_at(t, true, at, at + len_c2s);
            let at2 = at + rtp::RTP_HEADER_LEN;
            fb.udp_at(t + SimDuration::from_millis(3), false, at2, at2 + len_s2c);
        }
    } else {
        for i in 0..n_each {
            let t = t0 + (duration / n_each as i64) * (i as i64 + 1);
            fb.udp(t, true, chunk_c2s as usize);
            fb.udp(t + SimDuration::from_millis(5), false, chunk_s2c as usize);
        }
    }
}

fn rand_bytes32(rng: &mut Rng) -> [u8; 32] {
    let mut b = [0u8; 32];
    for chunk in b.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use satwatch_internet::ResolverId;
    use satwatch_netstack::Packet;
    use satwatch_satcom::channel::default_peak_hour;
    use satwatch_satcom::geo::places;
    use satwatch_satcom::link::{LinkConfig, LinkModel};
    use satwatch_satcom::mac::{Mac, MacConfig};
    use satwatch_satcom::pep::{PepConfig, PepModel};
    use satwatch_simcore::SeedTree;
    use satwatch_traffic::{build_population, catalog::standard_catalog, Country, DomainId};

    fn model(pep: bool) -> NetModel {
        NetModel {
            access: SatelliteAccess {
                slot: places::SATELLITE,
                gs_location: places::GROUND_STATION_ITALY,
                mac: Mac::new(MacConfig::default()),
                link: LinkModel::new(LinkConfig::default()),
                pep: PepModel::new(PepConfig::default()),
                peak_hour_by_country: default_peak_hour,
                weather: None,
            },
            cdns: CdnCatalog::standard(),
            pep_enabled: pep,
            african_gs: false,
        }
    }

    fn sim_one(proto: FlowProtocol, needs_dns: bool, seed: u64) -> Vec<(SimTime, Packet)> {
        let pop = build_population(200, &SeedTree::new(seed));
        let catalog = standard_catalog();
        let customer = pop.customers.iter().find(|c| c.country == Country::Spain && c.activity > 0.0).unwrap();
        let svc = catalog.iter().find(|s| s.name == "Whatsapp").unwrap();
        let intent = FlowIntent {
            customer_index: 0,
            start: SimTime::from_secs(12 * 3600),
            service: svc.id,
            domain: DomainId::of("static.whatsapp.net").unwrap(),
            protocol: proto,
            down_bytes: 200_000,
            up_bytes: 40_000,
            needs_dns,
            resolver: ResolverId::Google,
        };
        let m = model(true);
        let mut rng = Rng::new(seed);
        let mut arena = satwatch_simcore::PayloadArena::new();
        let mut cols = PacketColumns::default();
        m.simulate_flow(&intent, customer, &catalog, pop.beam(customer.terminal.beam), &mut rng, &mut arena, &mut cols);
        let mut out = Vec::new();
        cols.materialize_into(&mut out);
        out
    }

    #[test]
    fn tls_flow_has_ordered_handshake_and_dns() {
        let pkts = sim_one(FlowProtocol::Tls, true, 1);
        assert!(pkts.len() >= 10);
        // first two packets are the DNS transaction
        assert!(matches!(pkts[0].1.transport, satwatch_netstack::Transport::Udp(_)));
        assert_eq!(pkts[0].1.five_tuple().dst_port, 53);
        // a SYN exists and precedes any TLS payload packet
        let syn_idx = pkts
            .iter()
            .position(|(_, p)| matches!(&p.transport, satwatch_netstack::Transport::Tcp(t) if t.flags.syn() && !t.flags.ack()))
            .expect("SYN present");
        let ch_idx =
            pkts.iter().position(|(_, p)| !p.payload.is_empty() && p.payload[0] == 22).expect("TLS record present");
        assert!(syn_idx < ch_idx);
        // timestamps non-decreasing per flow direction stream? At
        // least: the vector should be roughly ordered; enforce sorted
        // by construction for this single flow
        let mut sorted = pkts.clone();
        sorted.sort_by_key(|(t, _)| *t);
        // DNS query happens one satellite traversal after start
        assert!(pkts[0].0 >= SimTime::from_secs(12 * 3600) + SimDuration::from_millis(240));
    }

    #[test]
    fn monitor_measures_tls_flow_correctly() {
        use satwatch_monitor::{FlowTableConfig, Probe, ProbeConfig};
        let mut pkts = sim_one(FlowProtocol::Tls, true, 2);
        pkts.sort_by_key(|(t, _)| *t);
        let cfg = ProbeConfig::new(FlowTableConfig::new(satwatch_netstack::Subnet::new(Ipv4Addr::new(10, 0, 0, 0), 9)));
        let mut probe = Probe::new(cfg);
        for (t, p) in &pkts {
            probe.observe(*t, p);
        }
        let (flows, dns) = probe.finish();
        assert_eq!(dns.len(), 1);
        assert!(dns[0].response_ms.is_some());
        let tcp: Vec<_> = flows.iter().filter(|f| f.ip_proto == 6).collect();
        assert_eq!(tcp.len(), 1);
        let f = tcp[0];
        assert_eq!(f.l7, satwatch_monitor::L7Protocol::TlsHttps);
        assert_eq!(f.domain.as_deref(), Some("static.whatsapp.net"));
        let sat = f.sat_rtt_ms.expect("sat RTT measured");
        assert!(sat > 500.0 && sat < 6000.0, "{sat}");
        assert!(f.ground_rtt.samples >= 1);
        assert!(f.ground_rtt.avg_ms < 400.0);
        assert!(f.s2c_bytes > 200_000, "{}", f.s2c_bytes);
        assert!(f.c2s_bytes > 40_000);
    }

    #[test]
    fn quic_flow_classified_no_sat_rtt() {
        use satwatch_monitor::{FlowTableConfig, Probe, ProbeConfig};
        let mut pkts = sim_one(FlowProtocol::Quic, false, 3);
        pkts.sort_by_key(|(t, _)| *t);
        let cfg = ProbeConfig::new(FlowTableConfig::new(satwatch_netstack::Subnet::new(Ipv4Addr::new(10, 0, 0, 0), 9)));
        let mut probe = Probe::new(cfg);
        for (t, p) in &pkts {
            probe.observe(*t, p);
        }
        let (flows, _) = probe.finish();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].l7, satwatch_monitor::L7Protocol::Quic);
        assert_eq!(flows[0].domain.as_deref(), Some("static.whatsapp.net"));
        assert_eq!(flows[0].sat_rtt_ms, None, "QUIC bypasses the TLS estimator");
    }

    #[test]
    fn http_and_other_protocols_classify() {
        use satwatch_monitor::{FlowTableConfig, Probe, ProbeConfig};
        for (proto, want) in [
            (FlowProtocol::Http, satwatch_monitor::L7Protocol::Http),
            (FlowProtocol::OtherTcp, satwatch_monitor::L7Protocol::OtherTcp),
            (FlowProtocol::Rtp, satwatch_monitor::L7Protocol::Rtp),
            (FlowProtocol::OtherUdp, satwatch_monitor::L7Protocol::OtherUdp),
        ] {
            let mut pkts = sim_one(proto, false, 4);
            pkts.sort_by_key(|(t, _)| *t);
            let cfg =
                ProbeConfig::new(FlowTableConfig::new(satwatch_netstack::Subnet::new(Ipv4Addr::new(10, 0, 0, 0), 9)));
            let mut probe = Probe::new(cfg);
            for (t, p) in &pkts {
                probe.observe(*t, p);
            }
            let (flows, _) = probe.finish();
            assert_eq!(flows.len(), 1, "{proto:?}");
            assert_eq!(flows[0].l7, want, "{proto:?}");
        }
    }

    #[test]
    fn pep_ablation_slows_time_to_first_byte() {
        let pop = build_population(200, &SeedTree::new(5));
        let catalog = standard_catalog();
        let customer = pop.customers.iter().find(|c| c.country == Country::Spain && c.activity > 0.0).unwrap();
        let svc = catalog.iter().find(|s| s.name == "Netflix").unwrap();
        let intent = FlowIntent {
            customer_index: 0,
            start: SimTime::from_secs(12 * 3600),
            service: svc.id,
            domain: DomainId::of("www.netflix.com").unwrap(),
            protocol: FlowProtocol::Tls,
            down_bytes: 2_000_000,
            up_bytes: 5_000,
            needs_dns: false,
            resolver: ResolverId::OperatorEu,
        };
        let ttfb = |pep: bool| {
            let mut m = model(pep);
            m.pep_enabled = pep;
            let mut total = 0.0;
            for seed in 0..40 {
                let mut rng = Rng::new(seed);
                let mut arena = satwatch_simcore::PayloadArena::new();
                let mut cols = PacketColumns::default();
                m.simulate_flow(
                    &intent,
                    customer,
                    &catalog,
                    pop.beam(customer.terminal.beam),
                    &mut rng,
                    &mut arena,
                    &mut cols,
                );
                let mut out = Vec::new();
                cols.materialize_into(&mut out);
                out.sort_by_key(|(t, _)| *t);
                // first s2c data packet ≥ 1 kB = first media byte
                let first = out
                    .iter()
                    .find(|(_, p)| p.ip.dst == customer.terminal.address && p.payload.len() > 1000)
                    .map(|(t, _)| (*t - intent.start).as_secs_f64())
                    .unwrap();
                total += first;
            }
            total / 40.0
        };
        let with_pep = ttfb(true);
        let without = ttfb(false);
        assert!(without > with_pep + 0.4, "pep {with_pep:.2}s vs e2e {without:.2}s");
    }

    #[test]
    fn chunk_plan_bounds() {
        assert_eq!(chunk_plan(0), (0, 0));
        let (c, n) = chunk_plan(100);
        assert_eq!((c, n), (100, 1));
        let (_, n) = chunk_plan(10_000_000);
        assert!(n <= MAX_CHUNKS);
        let (c, n) = chunk_plan(600_000);
        assert_eq!(n, 3);
        assert!(c * n as u64 <= 600_000);
    }

    #[test]
    fn bulk_bytes_preserved_for_large_flows() {
        // Volumes up to several hundred MB must survive chunking:
        // the sum of payload slices equals the requested volume.
        for total in [1_000u64, 1_000_000, 25_000_000, 400_000_000] {
            let (chunk, n) = chunk_plan(total);
            assert!(n >= 1);
            let emitted: u64 = (0..n).map(|i| if i == n - 1 { total - chunk * (n as u64 - 1) } else { chunk }).sum();
            assert_eq!(emitted, total, "total {total}");
            assert!(chunk <= MAX_CHUNK);
        }
    }

    #[test]
    fn african_gs_ablation_shortens_local_paths() {
        let mut m = model(true);
        m.african_gs = true;
        let mut rng = Rng::new(6);
        let local: f64 =
            (0..500).map(|_| m.ground_rtt_base(Region::AfricaCentral, true, &mut rng).as_millis_f64()).sum::<f64>()
                / 500.0;
        assert!(local < 60.0, "{local}");
        // non-African customers still route through Italy
        let via_italy: f64 =
            (0..500).map(|_| m.ground_rtt_base(Region::AfricaCentral, false, &mut rng).as_millis_f64()).sum::<f64>()
                / 500.0;
        assert!(via_italy > 200.0, "{via_italy}");
        // African customers to Europe unchanged
        let eu: f64 =
            (0..500).map(|_| m.ground_rtt_base(Region::EuropeWest, true, &mut rng).as_millis_f64()).sum::<f64>()
                / 500.0;
        assert!(eu < 40.0 && eu > 15.0, "{eu}");
    }
}
