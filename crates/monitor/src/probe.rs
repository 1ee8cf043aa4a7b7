//! The complete passive probe: flow table + DNS transaction log +
//! real-time CryptoPan anonymization, behind a single `observe()`
//! entry point fed by the ground-station span port.
//!
//! Mirrors the paper's deployment (§2.2–2.3): packets are processed in
//! real time, customer addresses are anonymized before anything is
//! stored, and only flow-level summaries leave the probe.

use crate::anon::CryptoPan;
use crate::flowtable::{Direction, FlowTable, FlowTableConfig, Parsed};
use crate::intern::Domain;
use crate::pass::{LiveRuns, PassStats, Tap};
use crate::record::{DnsRecord, FlowRecord};
use crate::seal::{Piece, SealMarks, Sealer};
use satwatch_netstack::dns::DnsHeader;
use satwatch_netstack::{Packet, PacketColumns, PacketView, Transport};
use satwatch_simcore::{fx_map_with_capacity, FxHashMap, SimDuration, SimTime};
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// Telemetry handles shared by every probe instance. Write-only on
/// the packet path.
pub(crate) struct Metrics {
    packets: &'static satwatch_telemetry::Counter,
    batches: &'static satwatch_telemetry::Counter,
    batch_len: &'static satwatch_telemetry::Histogram,
    parse_errors: &'static satwatch_telemetry::Counter,
    dns_answered: &'static satwatch_telemetry::Counter,
    dns_timeouts: &'static satwatch_telemetry::Counter,
    dns_replaced: &'static satwatch_telemetry::Counter,
    pending_dns: &'static satwatch_telemetry::Gauge,
    /// Pieces the [`Sealer`](crate::seal::Sealer) released.
    pub(crate) seal_pieces: &'static satwatch_telemetry::Counter,
    /// Rows of both logs still resident after the last watermark seal
    /// — the live tail, the number behind a streaming run's RSS.
    pub(crate) unsealed_rows: &'static satwatch_telemetry::Gauge,
}

pub(crate) fn metrics() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        packets: satwatch_telemetry::counter("monitor_packets_total"),
        batches: satwatch_telemetry::counter("monitor_probe_batches_total"),
        batch_len: satwatch_telemetry::histogram("monitor_probe_batch_len"),
        parse_errors: satwatch_telemetry::counter("monitor_parse_errors_total"),
        dns_answered: satwatch_telemetry::counter("monitor_dns_answered_total"),
        dns_timeouts: satwatch_telemetry::counter("monitor_dns_timeouts_total"),
        dns_replaced: satwatch_telemetry::counter("monitor_dns_replaced_total"),
        pending_dns: satwatch_telemetry::gauge("monitor_dns_pending"),
        seal_pieces: satwatch_telemetry::counter("probe_seal_pieces_total"),
        unsealed_rows: satwatch_telemetry::gauge("probe_unsealed_rows"),
    })
}

/// How often to run the idle-flow sweep.
const SWEEP_INTERVAL: SimDuration = SimDuration::from_secs(60);

/// Unanswered DNS queries older than this are logged as timeouts.
const DNS_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// Probe configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProbeConfig {
    pub flow_table: FlowTableConfig,
    /// CryptoPan key seed. The operator holds the key; analyses only
    /// ever see anonymized addresses.
    pub anon_seed: u64,
}

/// Default CryptoPan key seed used when the operator does not supply
/// one. Scenarios normally override this from their scenario seed.
pub const DEFAULT_ANON_SEED: u64 = 0x5a70_57a7_c4a9_0001;

impl ProbeConfig {
    pub fn new(flow_table: FlowTableConfig) -> ProbeConfig {
        ProbeConfig { flow_table, anon_seed: DEFAULT_ANON_SEED }
    }
}

/// Memoized [`CryptoPan::anonymize`]. A free function over the two
/// fields involved so call sites can split-borrow the probe.
fn anon_memoized(anon: &CryptoPan, memo: &mut FxHashMap<Ipv4Addr, Ipv4Addr>, addr: Ipv4Addr) -> Ipv4Addr {
    *memo.entry(addr).or_insert_with(|| anon.anonymize(addr))
}

/// Key of an in-flight DNS transaction.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct DnsKey {
    client: Ipv4Addr,
    resolver: Ipv4Addr,
    id: u16,
}

#[derive(Debug)]
struct PendingDns {
    query: Domain,
    asked_at: SimTime,
}

/// A row's place in the merged order of a pass: `(time, run, row)`,
/// runs numbered in push order.
type RowKey = (SimTime, u32, u32);

/// The probe.
pub struct Probe {
    table: FlowTable,
    anon: CryptoPan,
    /// Memoized CryptoPan results. The client-address population is
    /// tiny (one entry per customer CPE) while records number in the
    /// tens of thousands, so caching collapses the 32-round
    /// bit-by-bit walk into a hash probe. Pure memoization of a
    /// deterministic keyed function — output bytes are unchanged.
    anon_memo: FxHashMap<Ipv4Addr, Ipv4Addr>,
    /// Fx-hashed: keys are simulator-generated (client, resolver, id)
    /// triples, touched for every DNS packet.
    pending_dns: FxHashMap<DnsKey, PendingDns>,
    /// The one way records leave: every finished flow, anonymized the
    /// moment the flow table drops it, and every DNS transaction.
    log: Sealer,
    /// The question name of the DNS message being looked at, decoded
    /// here and interned from here: one buffer for the whole capture.
    dns_qname: String,
    last_sweep: SimTime,
    /// The watermarks of the latest periodic sweep nobody has taken.
    marks: Option<SealMarks>,
    /// Total packets observed.
    pub packets: u64,
    /// Packets whose parse failed (should be zero in simulation).
    pub parse_errors: u64,
    /// DNS queries a later query with the same `(client, resolver, id)`
    /// replaced while pending: the earlier one is never logged, not
    /// even as a timeout. Observation only — not part of the
    /// checkpointed state.
    pub dns_replaced: u64,
    /// Locally accumulated slice-length counts (`pending_span_lens[len]`
    /// walker calls on `len` rows) plus the matching packet total,
    /// flushed to the global registry in bulk at each sweep and at
    /// `finish()`: a walker call costs tens of nanoseconds, four atomic
    /// histogram RMWs per call would be measurable, a `u64` bump is
    /// not. Snapshots taken at flush points see identical totals.
    pending_span_lens: Vec<u64>,
    pending_span_packets: u64,
    /// The pass's DNS rows, logged in merged order when it ends.
    dns_rows: Vec<RowKey>,
    /// Flows the pass's walker closed, keyed by their closing row:
    /// they leave in merged order when the pass ends.
    closed: Vec<(RowKey, FlowRecord)>,
    /// Scratch for the pass's merged-order lanes (shared five-tuples,
    /// the tap).
    ordered: Vec<RowKey>,
}

impl Probe {
    pub fn new(cfg: ProbeConfig) -> Probe {
        Probe {
            table: FlowTable::new(cfg.flow_table),
            anon: CryptoPan::new(cfg.anon_seed),
            anon_memo: fx_map_with_capacity(64),
            pending_dns: fx_map_with_capacity(64),
            log: Sealer::default(),
            dns_qname: String::new(),
            last_sweep: SimTime::ZERO,
            marks: None,
            packets: 0,
            parse_errors: 0,
            dns_replaced: 0,
            pending_span_lens: Vec::new(),
            pending_span_packets: 0,
            dns_rows: Vec::new(),
            closed: Vec::new(),
            ordered: Vec::new(),
        }
    }

    /// Observe one packet at the span port.
    pub fn observe(&mut self, t: SimTime, pkt: &Packet) {
        self.observe_parsed(&Parsed::packet(t, pkt));
        self.sweep_if_due(t);
    }

    /// The periodic sweep: fires on the first packet at or past
    /// [`SWEEP_INTERVAL`] since the last one, at that packet's time.
    fn sweep_if_due(&mut self, t: SimTime) {
        if t - self.last_sweep >= SWEEP_INTERVAL {
            self.sweep_now(t);
        }
    }

    /// Observe columnar rows `[start, end)` of `cols`, time-sorted: a
    /// pass over one run (see [`observe_runs`](Self::observe_runs)).
    ///
    /// Equivalent to calling [`observe`](Self::observe) per row: rows
    /// that straddle one or more periodic-sweep moments are split at
    /// each boundary (binary search on the sorted timestamps), so the
    /// sweep fires at exactly the per-packet moment — after the first
    /// row at or past the boundary, at that row's timestamp.
    pub fn observe_cols(&mut self, cols: &PacketColumns, start: usize, end: usize) {
        let mut i = start;
        while i < end {
            let boundary = self.last_sweep + SWEEP_INTERVAL;
            let j = cols.ts[i..end].partition_point(|&t| t < boundary) + i;
            self.walk(cols, 0, i, (j + 1).min(end));
            self.end_pass(|_| cols);
            if j == end {
                return;
            }
            self.sweep_now(cols.ts[j]);
            i = j + 1;
        }
    }

    /// Observe every row of `runs` before `bound`, handing each to
    /// `tap` as well, and consume them.
    ///
    /// Equivalent to [`observe`](Self::observe) per row in the merged
    /// order of all runs — `(time, push order, row)`, the order a k-way
    /// merge would deliver — but each *pass* walks every run's rows as
    /// one slice: flow state is per flow, and a run's rows are in order
    /// among themselves. A pass ends at `bound` or at the row where the
    /// periodic sweep falls due (`LiveRuns::plan`), and the rest of
    /// the probe sees merged order where flows meet (DESIGN.md §8):
    /// * the sweep fires after every row before that cut row and none
    ///   after it;
    /// * DNS rows reach the transaction log in merged order — the
    ///   pending table's key spans flows, and the log keeps
    ///   observation order;
    /// * the rows of runs sharing a live five-tuple walk the flow table
    ///   in merged order, as do the rows `tap` sees;
    /// * flows closed within a pass leave in the order of their
    ///   closing rows.
    pub fn observe_runs(&mut self, runs: &mut LiveRuns, bound: SimTime, mut tap: Option<Tap<'_>>) -> PassStats {
        let mut stats = PassStats::default();
        loop {
            let cut = runs.plan(self.last_sweep + SWEEP_INTERVAL, bound);
            let mut rows = 0;
            for (r, run) in runs.live.iter().enumerate() {
                let slice = run.slice();
                rows += slice.len();
                if run.shared {
                    self.ordered.extend(slice.map(|i| (run.cols.ts[i], r as u32, i as u32)));
                } else if !slice.is_empty() {
                    self.walk(&run.cols, r as u32, slice.start, slice.end);
                }
            }
            // shared five-tuples: walk the merged order in same-run
            // row runs
            let mut ordered = std::mem::take(&mut self.ordered);
            ordered.sort_unstable();
            for group in ordered.chunk_by(|a, b| a.1 == b.1 && a.2 + 1 == b.2) {
                let (_, r, i) = group[0];
                self.walk(&runs.live[r as usize].cols, r, i as usize, i as usize + group.len());
            }
            stats.ordered_rows += (ordered.len() + self.dns_rows.len()) as u64;
            ordered.clear();
            if let Some(tap) = tap.as_deref_mut() {
                for (r, run) in runs.live.iter().enumerate() {
                    ordered.extend(run.slice().map(|i| (run.cols.ts[i], r as u32, i as u32)));
                }
                ordered.sort_unstable();
                for &(t, r, i) in &ordered {
                    tap(t, &runs.live[r as usize].cols.materialize(i as usize));
                }
                stats.ordered_rows += ordered.len() as u64;
                ordered.clear();
            }
            self.ordered = ordered;
            self.end_pass(|r| &runs.live[r as usize].cols);
            runs.settle();
            if rows > 0 {
                stats.passes += 1;
                stats.rows += rows as u64;
            }
            match cut {
                Some(t) => self.sweep_now(t),
                None => return stats,
            }
        }
    }

    /// Where the per-packet and wire-error paths count a packet (the
    /// columnar path batches its counts, see
    /// [`flush_span_metrics`](Self::flush_span_metrics)).
    fn note_packets(&mut self, n: u64) {
        self.packets += n;
        metrics().packets.add(n);
    }

    /// One parsed packet through the flow table, as a one-row stretch,
    /// and the DNS log: the `Packet` and the wire entry points both end
    /// here.
    fn observe_parsed(&mut self, row: &Parsed<'_>) {
        self.note_packets(1);
        self.table.process_stretch(row, 0, 1);
        if let Transport::Udp(udp) = row.transport {
            self.maybe_log_dns_udp(row.t, row.ip.src, row.ip.dst, udp.src_port, udp.dst_port, row.payload);
        }
        if !self.table.finished.is_empty() {
            self.log_finished();
        }
    }

    /// The stretch walker of both columnar entry points: rows `[start,
    /// end)` of `cols` (run number `run` of the pass), time-sorted,
    /// through the flow table in same-flow stretches — entry resolved
    /// once, counters accumulated in locals — with zero `Packet`
    /// materialization and *without* the periodic-sweep check. Port-53
    /// UDP rows are noted for the pass's DNS log and a flow closed
    /// here is held with its closing row; [`end_pass`](Self::end_pass)
    /// releases both in merged order.
    fn walk(&mut self, cols: &PacketColumns, run: u32, start: usize, end: usize) {
        // Packet-rate accounting stays local (no atomics); the batched
        // counts reach the registry via `flush_span_metrics`.
        let n = end - start;
        self.packets += n as u64;
        self.pending_span_packets += n as u64;
        if self.pending_span_lens.len() <= n {
            self.pending_span_lens.resize(n + 1, 0);
        }
        self.pending_span_lens[n] += 1;
        let mut i = start;
        while i < end {
            let finished = self.table.finished.len();
            let j = self.table.process_stretch(cols, i, end);
            // Every row in a stretch shares its flow's port pair, so
            // one check decides for all of them.
            if cols.is_udp(i) && (cols.dport[i] == 53 || cols.sport[i] == 53) {
                self.dns_rows.extend((i..j).map(|k| (cols.ts[k], run, k as u32)));
            }
            if self.table.finished.len() > finished {
                let f = self.table.finished.pop().expect("a stretch closes at most one flow");
                self.closed.push(((cols.ts[j - 1], run, (j - 1) as u32), f));
            }
            i = j;
        }
    }

    /// End a pass: log its DNS rows and release the flows it closed,
    /// each in merged order; `cols_of` resolves a run number.
    fn end_pass<'c>(&mut self, cols_of: impl Fn(u32) -> &'c PacketColumns) {
        let mut rows = std::mem::take(&mut self.dns_rows);
        if !rows.is_sorted() {
            rows.sort_unstable();
        }
        for &(t, r, k) in &rows {
            let (cols, k) = (cols_of(r), k as usize);
            self.maybe_log_dns_udp(t, cols.src[k], cols.dst[k], cols.sport[k], cols.dport[k], cols.payload_slice(k));
        }
        rows.clear();
        self.dns_rows = rows;
        if !self.closed.is_sorted_by_key(|c| c.0) {
            self.closed.sort_unstable_by_key(|c| c.0);
        }
        self.log_finished();
    }

    /// Run the idle-flow sweep and DNS expiry now, resetting the
    /// periodic-sweep clock. The two passes see every live flow and
    /// every pending query anyway, so they also yield the watermarks:
    /// what survives logs with the `first` / `asked_at` it has, what
    /// has not begun begins at or after `t`.
    fn sweep_now(&mut self, t: SimTime) {
        self.flush_span_metrics();
        let oldest_flow = self.table.sweep(t);
        let oldest_query = self.expire_dns(t);
        self.marks =
            Some(SealMarks { flows: oldest_flow.map_or(t, |f| f.min(t)), dns: oldest_query.map_or(t, |q| q.min(t)) });
        self.last_sweep = t;
        self.log_finished();
    }

    /// The [`SealMarks`] of the latest periodic sweep since the last
    /// call, if there was one.
    pub fn take_marks(&mut self) -> Option<SealMarks> {
        self.marks.take()
    }

    /// Release every logged row strictly behind `marks` as the next
    /// canonically ordered piece ([`Sealer::seal`]).
    pub fn seal(&mut self, marks: SealMarks) -> Piece {
        self.log.seal(Some(marks))
    }

    /// The flows logged since the last call, in eviction order
    /// ([`Sealer::take_flows`]).
    pub fn take_flows(&mut self) -> std::vec::Drain<'_, FlowRecord> {
        self.log.take_flows()
    }

    /// Both logs' rows nobody has taken yet, in arrival order.
    pub fn unsealed(&self) -> (&[FlowRecord], &[DnsRecord]) {
        self.log.unsealed()
    }

    /// Flush the locally batched span accounting to the global
    /// registry: the packet counter plus one `record_n` per distinct
    /// span length. Totals after a flush are identical to what
    /// per-span `record`/`inc`/`add` calls would have produced.
    fn flush_span_metrics(&mut self) {
        if self.pending_span_packets == 0 {
            return;
        }
        let m = metrics();
        m.packets.add(self.pending_span_packets);
        self.pending_span_packets = 0;
        for (len, n) in self.pending_span_lens.iter_mut().enumerate() {
            if *n > 0 {
                m.batches.add(*n);
                m.batch_len.record_n(len as u64, *n);
                *n = 0;
            }
        }
    }

    /// Log the flows the table finished, then those the walker closed,
    /// anonymizing on the way: the one way a finished flow leaves.
    fn log_finished(&mut self) {
        let Probe { table, closed, anon, anon_memo, log, .. } = self;
        for mut f in table.finished.drain(..).chain(closed.drain(..).map(|(_, f)| f)) {
            f.client = anon_memoized(anon, anon_memo, f.client);
            log.log_flow(f);
        }
    }

    /// Observe a packet from raw wire bytes — the deployment's entry
    /// point. The frame is parsed in place ([`PacketView`]) and its
    /// payload reaches the flow table and the DNS log as a slice of
    /// `wire`: no `Packet`, no `Bytes`. A snapped frame is accounted at
    /// the length its IP header gives, as Tstat does. Counting goes
    /// through `note_packets` on both arms, so an unparseable frame is
    /// still a packet seen.
    pub fn observe_wire(&mut self, t: SimTime, wire: &[u8]) {
        match PacketView::parse(wire) {
            Ok(v) => {
                self.observe_parsed(&Parsed::view(t, &v));
                self.sweep_if_due(t);
            }
            Err(_) => {
                self.note_packets(1);
                self.parse_errors += 1;
                metrics().parse_errors.inc();
            }
        }
    }

    /// The DNS transaction log on bare UDP fields and a borrowed
    /// payload — shared by the per-packet, wire and columnar paths.
    /// The message is walked in place: a query costs one name decode
    /// into a reused buffer and an intern, a response that matches no
    /// pending query costs twelve header bytes.
    fn maybe_log_dns_udp(
        &mut self,
        t: SimTime,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) {
        if dst_port != 53 && src_port != 53 {
            return;
        }
        // id and direction first; the body is walked in place, and
        // only for a message the log will use
        let Ok(msg) = DnsHeader::parse(payload) else { return };
        if !msg.is_response && dst_port == 53 {
            if self.table.direction_of(src, dst) != Some(Direction::C2s) {
                return;
            }
            if msg.walk(payload, &mut self.dns_qname, |_| {}).is_err() {
                return;
            }
            let key = DnsKey { client: src, resolver: dst, id: msg.id };
            let query = self.table.intern(&self.dns_qname);
            // a query with the key of one still pending replaces it
            if self.pending_dns.insert(key, PendingDns { query, asked_at: t }).is_none() {
                metrics().pending_dns.inc();
            } else {
                self.dns_replaced += 1;
                metrics().dns_replaced.inc();
            }
        } else if msg.is_response && src_port == 53 {
            let key = DnsKey { client: dst, resolver: src, id: msg.id };
            if !self.pending_dns.contains_key(&key) {
                return;
            }
            // a malformed response answers nothing: the query stays pending
            let mut answers = Vec::new();
            if msg.walk(payload, &mut self.dns_qname, |addr| answers.push(addr)).is_err() {
                return;
            }
            let pending = self.pending_dns.remove(&key).expect("checked above");
            let m = metrics();
            m.dns_answered.inc();
            m.pending_dns.dec();
            self.log.log_dns(DnsRecord {
                client: anon_memoized(&self.anon, &mut self.anon_memo, key.client),
                resolver: key.resolver,
                query: pending.query,
                ts: pending.asked_at,
                response_ms: Some((t - pending.asked_at).as_millis_f64().max(0.0)),
                answers,
            });
        }
    }

    /// Log every query unanswered for longer than the timeout;
    /// returns the earliest `asked_at` still pending.
    fn expire_dns(&mut self, t: SimTime) -> Option<SimTime> {
        let (mut expired, mut oldest) = (Vec::new(), None::<SimTime>);
        for (k, p) in &self.pending_dns {
            if t - p.asked_at > DNS_TIMEOUT {
                expired.push(k.clone());
            } else {
                oldest = Some(oldest.map_or(p.asked_at, |o| o.min(p.asked_at)));
            }
        }
        let expired = expired
            .into_iter()
            .map(|k| {
                let p = self.pending_dns.remove(&k).expect("expired entry present");
                (k, p)
            })
            .collect();
        self.log_timeouts(expired);
        oldest
    }

    /// Log queries that will never be answered, ordered by `(asked_at,
    /// client, id)`; the sort is stable, so entries equal on that key
    /// keep the order they come in.
    fn log_timeouts(&mut self, mut timeouts: Vec<(DnsKey, PendingDns)>) {
        timeouts.sort_by_key(|(k, p)| (p.asked_at, k.client, k.id));
        let m = metrics();
        for (k, p) in timeouts {
            m.dns_timeouts.inc();
            m.pending_dns.dec();
            self.log.log_dns(DnsRecord {
                client: anon_memoized(&self.anon, &mut self.anon_memo, k.client),
                resolver: k.resolver,
                query: p.query,
                ts: p.asked_at,
                response_ms: None,
                answers: Vec::new(),
            });
        }
    }

    /// Finish the capture: flush all live flows and pending queries
    /// into the log and seal all of it — the anonymized flow records
    /// and the DNS transaction log nobody has taken yet, in canonical
    /// order.
    pub fn finish(mut self) -> (Vec<FlowRecord>, Vec<DnsRecord>) {
        self.flush_span_metrics();
        // flush unanswered DNS unconditionally: the capture is over, so
        // every pending query is a timeout
        let pending = std::mem::take(&mut self.pending_dns).into_iter().collect();
        self.log_timeouts(pending);
        // the live flows leave the way every eviction did
        self.table.finished = self.table.flush();
        self.log_finished();
        // canonical output order regardless of eviction history
        let Piece { flows, dns } = self.log.seal(None);
        (flows, dns)
    }

    pub fn active_flows(&self) -> usize {
        self.table.active_flows()
    }

    /// Snapshot the probe's complete carry-over state for a campaign
    /// checkpoint. Non-destructive (the probe keeps running); the log
    /// stays in the probe, so the state's `dns_log` is empty — what a
    /// checkpoint carries of the log is [`unsealed`](Self::unsealed).
    /// Flows and pending entries are in their canonical orders, making
    /// the export deterministic.
    pub fn export_state(&mut self) -> crate::checkpoint::ProbeState {
        let mut pending_dns: Vec<crate::checkpoint::PendingDnsEntry> = self
            .pending_dns
            .iter()
            .map(|(k, p)| crate::checkpoint::PendingDnsEntry {
                client: k.client,
                resolver: k.resolver,
                id: k.id,
                query: p.query.to_string(),
                asked_at: p.asked_at,
            })
            .collect();
        pending_dns.sort_by_key(crate::checkpoint::PendingDnsEntry::order_key);
        crate::checkpoint::ProbeState {
            flows: self.table.export_flows(),
            pending_dns,
            dns_log: Vec::new(),
            last_sweep: self.last_sweep,
            packets: self.packets,
            parse_errors: self.parse_errors,
            transit_packets: self.table.transit_packets,
        }
    }

    /// Restore exported state into a **fresh** probe (campaign
    /// resume), its log starting with the rows the checkpoint carried
    /// `unsealed` (then any DNS log an older binary drained into the
    /// state). Domain names re-intern through the flow table, the
    /// live-flow and pending-DNS gauges re-register every entry, and
    /// the sweep clock picks up where the checkpoint left it.
    pub fn import_state(
        &mut self,
        state: crate::checkpoint::ProbeState,
        unsealed: Sealer,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        for entry in &state.flows {
            self.table.import_flow(entry)?;
        }
        for p in state.pending_dns {
            let query = self.table.intern(&p.query);
            let key = DnsKey { client: p.client, resolver: p.resolver, id: p.id };
            if self.pending_dns.insert(key, PendingDns { query, asked_at: p.asked_at }).is_some() {
                return Err(crate::checkpoint::CheckpointError::Corrupt("duplicate pending DNS key"));
            }
            metrics().pending_dns.inc();
        }
        self.log = unsealed;
        for d in state.dns_log {
            self.log.log_dns(d);
        }
        self.last_sweep = state.last_sweep;
        self.packets = state.packets;
        self.parse_errors = state.parse_errors;
        self.table.transit_packets = state.transit_packets;
        Ok(())
    }
}

/// Canonical output order for flow records. The key is total over
/// distinct flows (the `ip_proto` tail disambiguates a TCP and a UDP
/// flow sharing addresses, ports and start time), so sorting any
/// permutation of a capture's records reproduces the batch order
/// exactly. Public so streaming consumers (the columnar
/// `FrameBuilder`, the campaign's segment seal) can restore this order
/// after ingesting evictions out of order.
pub fn flow_sort_key(f: &FlowRecord) -> (SimTime, Ipv4Addr, u16, Ipv4Addr, u16, u8) {
    (f.first, f.client, f.client_port, f.server, f.server_port, f.ip_proto)
}

/// Sort `flows` into the canonical output order, exactly as the stable
/// `sort_by_key(flow_sort_key)` would, without moving a record more
/// than about once.
///
/// The sort runs over `(key, original index)` pairs: the index makes
/// every pair distinct, so an unstable sort has one possible result,
/// and among equal keys it is input order — the stable sort's. The
/// permutation is then applied in place by following its cycles with
/// `swap`. Scratch is 32 bytes per flow, where the stable sort of the
/// 232-byte records took half the vector again.
pub fn sort_flows_canonical(flows: &mut [FlowRecord]) {
    let mut order: Vec<_> = flows.iter().enumerate().map(|(i, f)| (flow_sort_key(f), i)).collect();
    order.sort_unstable();
    // `order[k].1` is the record that belongs at `k`. Walk each cycle
    // once: a swap puts the right record at `k` and leaves the
    // cycle's first record one step further along; a slot is marked
    // done by pointing it at itself.
    for start in 0..order.len() {
        let mut k = start;
        while order[k].1 != start {
            let from = order[k].1;
            flows.swap(k, from);
            order[k].1 = k;
            k = from;
        }
        order[k].1 = k;
    }
}

/// Canonical output order for DNS records, as a borrowed-key
/// comparator: a `sort_by_key` returning an owned tuple would clone
/// the query name for every comparison. Records that tie on this
/// order share a (client, resolver) pair; a stable sort keeps them in
/// observation order. Public for the same reason as
/// [`flow_sort_key`]: external consumers (the campaign runner's
/// seal) must reproduce the probe's canonical order when stitching
/// partial outputs together.
pub fn dns_cmp(a: &DnsRecord, b: &DnsRecord) -> std::cmp::Ordering {
    (a.ts, a.client, a.resolver).cmp(&(b.ts, b.client, b.resolver)).then_with(|| a.query.cmp(&b.query))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use satwatch_netstack::dns::{DnsMessage, RecordType};
    use satwatch_netstack::Subnet;

    fn probe() -> Probe {
        let cfg = ProbeConfig::new(FlowTableConfig::new(Subnet::new(Ipv4Addr::new(10, 0, 0, 0), 8)));
        Probe::new(cfg)
    }

    fn t(ms: i64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn dns_transaction_logged_with_response_time() {
        let mut p = probe();
        let client = Ipv4Addr::new(10, 5, 5, 5);
        let resolver = Ipv4Addr::new(8, 8, 8, 8);
        let q = DnsMessage::query(77, "play.googleapis.com", RecordType::A);
        let qp = Packet::udp(client, resolver, 44_000, 53, q.encode());
        p.observe(t(1000), &qp);
        let r = DnsMessage::answer_a(&q, &[Ipv4Addr::new(198, 18, 0, 9)], 300);
        let rp = Packet::udp(resolver, client, 53, 44_000, r.encode());
        p.observe(t(1022), &rp);
        let (_flows, dns) = p.finish();
        assert_eq!(dns.len(), 1);
        let d = &dns[0];
        assert_eq!(&*d.query, "play.googleapis.com");
        assert_eq!(d.resolver, resolver);
        assert!((d.response_ms.unwrap() - 22.0).abs() < 1e-6);
        assert_eq!(d.answers, vec![Ipv4Addr::new(198, 18, 0, 9)]);
        assert_ne!(d.client, client, "client must be anonymized");
    }

    #[test]
    fn unanswered_dns_logged_as_timeout() {
        let mut p = probe();
        let client = Ipv4Addr::new(10, 5, 5, 6);
        let q = DnsMessage::query(5, "dead.example", RecordType::A);
        p.observe(t(0), &Packet::udp(client, Ipv4Addr::new(1, 1, 1, 1), 40_000, 53, q.encode()));
        let (_, dns) = p.finish();
        assert_eq!(dns.len(), 1);
        assert_eq!(dns[0].response_ms, None);
        assert!(dns[0].answers.is_empty());
    }

    #[test]
    fn mismatched_dns_id_not_matched() {
        let mut p = probe();
        let client = Ipv4Addr::new(10, 5, 5, 7);
        let resolver = Ipv4Addr::new(8, 8, 8, 8);
        let q = DnsMessage::query(1, "a.example", RecordType::A);
        p.observe(t(0), &Packet::udp(client, resolver, 40_000, 53, q.encode()));
        let mut r = DnsMessage::answer_a(&q, &[Ipv4Addr::new(9, 9, 9, 9)], 60);
        r.id = 2; // wrong transaction id (spoof/bug)
        p.observe(t(10), &Packet::udp(resolver, client, 53, 40_000, r.encode()));
        let (_, dns) = p.finish();
        assert_eq!(dns.len(), 1);
        assert_eq!(dns[0].response_ms, None, "unmatched response → query times out");
    }

    /// Two queries with one `(client, resolver, id)` key from different
    /// client ports: the second replaces the first, which is counted
    /// and never logged; the one response answers the later query.
    #[test]
    fn a_replaced_dns_query_is_counted_and_the_response_matches_the_later_one() {
        let mut p = probe();
        let client = Ipv4Addr::new(10, 5, 5, 8);
        let resolver = Ipv4Addr::new(8, 8, 8, 8);
        let first = DnsMessage::query(9, "first.example", RecordType::A);
        let second = DnsMessage::query(9, "second.example", RecordType::A);
        p.observe(t(0), &Packet::udp(client, resolver, 40_001, 53, first.encode()));
        p.observe(t(100), &Packet::udp(client, resolver, 40_002, 53, second.encode()));
        assert_eq!(p.dns_replaced, 1);
        let r = DnsMessage::answer_a(&second, &[Ipv4Addr::new(198, 18, 0, 3)], 60);
        p.observe(t(130), &Packet::udp(resolver, client, 53, 40_002, r.encode()));
        let (_, dns) = p.finish();
        assert_eq!(dns.len(), 1, "the replaced query is not logged, not even as a timeout");
        assert_eq!(&*dns[0].query, "second.example");
        assert_eq!(dns[0].ts, t(100));
        assert!((dns[0].response_ms.unwrap() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn flow_clients_anonymized_prefix_preserving() {
        let mut p = probe();
        let c1 = Ipv4Addr::new(10, 77, 0, 1);
        let c2 = Ipv4Addr::new(10, 77, 0, 2);
        let srv = Ipv4Addr::new(198, 18, 0, 1);
        p.observe(t(0), &Packet::udp(c1, srv, 1000, 8000, Bytes::from_static(&[0; 10])));
        p.observe(t(1), &Packet::udp(c2, srv, 1000, 8000, Bytes::from_static(&[0; 10])));
        let (flows, _) = p.finish();
        assert_eq!(flows.len(), 2);
        assert_ne!(flows[0].client, c1);
        let shared = satwatch_netstack::ip::common_prefix_len(flows[0].client, flows[1].client);
        assert_eq!(shared, satwatch_netstack::ip::common_prefix_len(c1, c2));
    }

    #[test]
    fn observe_wire_parses_and_counts_errors() {
        let mut p = probe();
        let pkt = Packet::udp(Ipv4Addr::new(10, 1, 1, 1), Ipv4Addr::new(198, 18, 0, 1), 1, 2, Bytes::new());
        p.observe_wire(t(0), &pkt.encode());
        p.observe_wire(t(1), &[0xde, 0xad]);
        assert_eq!(p.packets, 2);
        assert_eq!(p.parse_errors, 1);
        assert_eq!(p.active_flows(), 1);
    }

    #[test]
    fn observe_wire_counts_a_wrapped_total_len_as_a_parse_error() {
        // 65 536 + 7 bytes on the wire: the stored 16-bit length is 7,
        // shorter than the IP header. A parse error, not a panic, and
        // the probe keeps going.
        let mut p = probe();
        let (c, srv) = (Ipv4Addr::new(10, 1, 1, 1), Ipv4Addr::new(198, 18, 0, 1));
        let huge = Packet::udp(c, srv, 1, 2, Bytes::from(vec![0u8; 65_536 + 7 - 28]));
        p.observe_wire(t(0), &huge.encode()[..256]);
        p.observe_wire(t(1), &Packet::udp(c, srv, 1, 2, Bytes::new()).encode());
        assert_eq!((p.packets, p.parse_errors, p.active_flows()), (2, 1, 1));
    }

    /// A probe with two live flows and two pending DNS queries, and its
    /// exported state.
    fn exported() -> crate::checkpoint::ProbeState {
        let mut p = probe();
        let (c, resolver) = (Ipv4Addr::new(10, 5, 5, 9), Ipv4Addr::new(8, 8, 8, 8));
        for (i, name) in ["a.example", "b.example"].into_iter().enumerate() {
            let q = DnsMessage::query(i as u16, name, RecordType::A);
            p.observe(t(i as i64), &Packet::udp(c, resolver, 40_000 + i as u16, 53, q.encode()));
        }
        let state = p.export_state();
        assert_eq!((state.flows.len(), state.pending_dns.len()), (2, 2));
        state
    }

    #[test]
    fn a_repeated_pending_dns_key_is_corrupt() {
        let mut state = exported();
        let p = &state.pending_dns[0];
        let (client, resolver, id) = (p.client, p.resolver, p.id);
        let query = "c.example".into();
        state.pending_dns.push(crate::checkpoint::PendingDnsEntry { client, resolver, id, query, asked_at: t(1_000) });
        // still in canonical order, so it decodes; the import refuses it
        let state = crate::checkpoint::ProbeState::decode(&state.encode()).unwrap();
        let err = probe().import_state(state, Sealer::default()).unwrap_err();
        assert_eq!(err, crate::checkpoint::CheckpointError::Corrupt("duplicate pending DNS key"));
    }

    #[test]
    fn state_out_of_canonical_order_is_corrupt() {
        use crate::checkpoint::{CheckpointError, ProbeState};
        let mut state = exported();
        state.flows.swap(0, 1);
        assert_eq!(ProbeState::decode(&state.encode()).unwrap_err(), CheckpointError::Corrupt("flow order"));
        let mut state = exported();
        state.pending_dns.swap(0, 1);
        assert_eq!(ProbeState::decode(&state.encode()).unwrap_err(), CheckpointError::Corrupt("pending DNS order"));
        assert!(ProbeState::decode(&exported().encode()).is_ok());
    }

    #[test]
    fn sweep_runs_on_interval() {
        let mut p = probe();
        let c = Ipv4Addr::new(10, 1, 1, 1);
        let srv = Ipv4Addr::new(198, 18, 0, 1);
        p.observe(t(0), &Packet::udp(c, srv, 1, 2, Bytes::new()));
        // 10 minutes later another packet triggers the sweep, evicting
        // the idle flow
        p.observe(t(600_000), &Packet::udp(c, srv, 3, 4, Bytes::new()));
        assert_eq!(p.active_flows(), 1, "old flow evicted, new one live");
    }
}
