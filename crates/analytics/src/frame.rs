//! Columnar flow analytics: the struct-of-arrays [`FlowFrame`] and
//! its incremental [`FrameBuilder`].
//!
//! The paper reduces tens of billions of flow records to a handful of
//! per-country tables; at that scale the analytics stage is bound by
//! how many times it walks the record array and how much per-flow
//! work each walk repeats. The frame fixes both at build time:
//!
//! * **One enrichment pass.** Country, beam, service, category, and
//!   local hour are resolved once per flow while the frame is built
//!   (classification memoized per interned `Domain` handle) and
//!   stored as small integers. Every downstream figure reads a byte
//!   instead of re-probing hash maps and re-matching patterns.
//! * **Codes, not strings.** The `domain` column is a `u32` code per
//!   row into the frame's `domains` dictionary — the `.swseg` layout,
//!   in RAM. Scans, joins and group-bys compare integers; a name is
//!   looked at once per dictionary entry (DESIGN.md §7 "The
//!   segment").
//! * **Struct of arrays.** Each figure touches only the columns it
//!   needs; a sweep over `bytes_up`/`bytes_down` no longer drags the
//!   whole ~250-byte `FlowRecord` (plus its `early` vector and domain
//!   `Arc`) through the cache.
//! * **Streaming ingest.** [`FrameBuilder::push`] accepts evicted
//!   records one at a time, in *any* order, and
//!   [`FrameBuilder::seal_behind`] restores the probe's canonical
//!   record order a watermark at a time, sorting the rows the marks
//!   have passed on the same total key `Probe::finish` uses — so a run
//!   can stream flows straight from the probe's eviction log into the
//!   frame (or, batch by batch, into the report fold) without ever
//!   materializing `Vec<FlowRecord>` or sorting a day, and still
//!   produce byte-identical reports (see DESIGN.md §6).
//!
//! Row order is the byte-equivalence contract: row `i` of a frame
//! built by [`FlowFrame::from_records`] is `flows[i]`, and a sealed
//! streaming frame equals the batch frame over the same dataset.

use crate::agg::Enrichment;
use crate::classify::Classifier;
use crate::column::{self, with_vec, CellsMut};
use satwatch_monitor::{flow_sort_key, Domain, FlowRecord};
use satwatch_simcore::time::SECS_PER_DAY;
use satwatch_simcore::{FxHashMap, SimTime};
use std::net::Ipv4Addr;
use std::sync::{Arc, OnceLock};

/// Sentinel for "no country mapping" in [`FlowFrame::country`].
pub const NO_COUNTRY: u8 = u8::MAX;
/// Sentinel for "no beam mapping" in [`FlowFrame::beam`].
pub const NO_BEAM: u16 = u16::MAX;
/// Sentinel for "unclassified" in [`FlowFrame::category`].
pub const NO_CATEGORY: u8 = u8::MAX;
/// Sentinel for "unclassified" in [`FlowFrame::service`].
pub const NO_SERVICE: u16 = u16::MAX;
/// Sentinel for "no local hour" (no country) in [`FlowFrame::local_hour`].
pub const NO_HOUR: u8 = u8::MAX;
/// Sentinel for "no domain" in [`FlowFrame::domain`].
pub const NO_DOMAIN: u32 = u32::MAX;

struct Metrics {
    rows: &'static satwatch_telemetry::Counter,
    build_us: &'static satwatch_telemetry::Histogram,
}

fn metrics() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        rows: satwatch_telemetry::counter("analytics_frame_rows_total"),
        build_us: satwatch_telemetry::histogram("analytics_frame_build_us"),
    })
}

/// One flow, resolved to columns. Kept only inside the builder, until
/// a seal passes it; of the sort key only `first` and `client` become
/// columns then, once the canonical order is restored.
#[derive(Clone, Debug)]
struct Row {
    /// [`flow_sort_key`]: `(first, client, client_port, server,
    /// server_port, ip_proto)`.
    key: (SimTime, Ipv4Addr, u16, Ipv4Addr, u16, u8),
    // measurement columns
    bytes_up: u64,
    bytes_down: u64,
    ground_rtt_avg: f64,
    ground_rtt_samples: u64,
    sat_rtt_ms: f64,
    down_bps: f64,
    dur_s: f64,
    l7: u8,
    // pre-resolved enrichment columns (the UTC hour and the day are
    // read off `key.0` at seal time: stored, they would grow a row by 8
    // bytes, the sort key's tail padding)
    country: u8,
    local_hour: u8,
    beam: u16,
    service: u16,
    category: u8,
    domain: u32,
}

/// Struct-of-arrays flow table: one `Vec` per field, all of equal
/// length, row `i` describing one flow. Enrichment (country, beam,
/// local hour) and classification (service, category) are already
/// resolved into small integers — see the module docs. Each column has
/// its line in [`column::CATALOG`].
#[derive(Clone, Debug, Default)]
pub struct FlowFrame {
    /// Anonymized client address (needed by the Table 2 DNS join).
    pub client: Vec<Ipv4Addr>,
    /// Flow start time (needed by the Table 2 DNS join + day/hour).
    pub first: Vec<SimTime>,
    /// Client→server (upload) bytes.
    pub bytes_up: Vec<u64>,
    /// Server→client (download) bytes.
    pub bytes_down: Vec<u64>,
    /// Mean ground-segment RTT, ms (valid iff `ground_rtt_samples > 0`).
    pub ground_rtt_avg: Vec<f64>,
    pub ground_rtt_samples: Vec<u64>,
    /// Satellite RTT, ms; `NaN` when the flow had no TLS estimate.
    pub sat_rtt_ms: Vec<f64>,
    /// Download throughput over the data window, bit/s (paper §6.5).
    pub down_bps: Vec<f64>,
    /// Flow duration, seconds.
    pub dur_s: Vec<f64>,
    /// `L7Protocol::ALL[l7[i]]` is the DPI verdict.
    pub l7: Vec<u8>,
    /// `Country::ALL[country[i]]`, or [`NO_COUNTRY`].
    pub country: Vec<u8>,
    /// Hour of day in the customer's local time, or [`NO_HOUR`].
    pub local_hour: Vec<u8>,
    /// Hour of day, UTC.
    pub hour_utc: Vec<u8>,
    /// Day index of the flow start.
    pub day: Vec<u32>,
    /// Beam id, or [`NO_BEAM`].
    pub beam: Vec<u16>,
    /// `services[service[i]]` is the classified service, or [`NO_SERVICE`].
    pub service: Vec<u16>,
    /// `Category::ALL[category[i]]`, or [`NO_CATEGORY`].
    pub category: Vec<u8>,
    /// `domains[domain[i]]` is the flow's server name, or [`NO_DOMAIN`].
    pub domain: Vec<u32>,
    /// Domain dictionary: `domain` column values index this. Entries
    /// are distinct; their order is the builder's first-push order and
    /// an entry may be unused (`encode_segment` writes the canonical
    /// first-appearance-over-rows order, see [`FlowFrame::domain_order`]).
    pub domains: Vec<Domain>,
    /// Service-index table: `service` column values index this.
    pub services: Vec<&'static str>,
}

impl FlowFrame {
    /// Build a frame from records already in the probe's canonical
    /// output order. Row `i` is `flows[i]` — the caller's iteration
    /// order is preserved exactly, which is what makes frame sweeps
    /// byte-identical to record-slice passes.
    pub fn from_records(flows: &[FlowRecord], enr: &Enrichment) -> FlowFrame {
        let mut b = FrameBuilder::new(enr.clone());
        for f in flows {
            b.push(f);
        }
        b.sealed.append(b.rows.drain(..));
        b.sealed
    }

    /// Number of rows (flows).
    pub fn len(&self) -> usize {
        self.first.len()
    }

    pub fn is_empty(&self) -> bool {
        self.first.is_empty()
    }

    /// Total bytes (both directions) of row `i`.
    #[inline]
    pub fn flow_bytes(&self, i: usize) -> u64 {
        self.bytes_up[i] + self.bytes_down[i]
    }

    /// The server name of row `i`, if the probe saw one.
    #[inline]
    pub fn domain_at(&self, i: usize) -> Option<&str> {
        let d = self.domain[i];
        (d != NO_DOMAIN).then(|| &*self.domains[d as usize])
    }

    /// The dictionary codes in order of first appearance over rows —
    /// the canonical dictionary order a segment stores. Codes no row
    /// uses are absent.
    pub fn domain_order(&self) -> Vec<u32> {
        let mut seen = vec![false; self.domains.len()];
        let mut order = Vec::new();
        for &d in &self.domain {
            if d != NO_DOMAIN && !std::mem::replace(&mut seen[d as usize], true) {
                order.push(d);
            }
        }
        order
    }

    /// The satellite RTT of row `i` in ms, if the flow had an estimate.
    #[inline]
    pub fn sat_rtt_at(&self, i: usize) -> Option<f64> {
        let r = self.sat_rtt_ms[i];
        (!r.is_nan()).then_some(r)
    }

    /// Tile the frame `n` times: rows `0..len` repeated back to back.
    /// `satbench`'s `warehouse_scan` scales the analytics workload this
    /// way without changing the dataset; equals building a frame from the
    /// record slice repeated `n` times.
    pub fn replicate(&self, n: usize) -> FlowFrame {
        let mut out = self.clone();
        for col in column::stored() {
            with_vec!(col.cells_mut(&mut out), |v| (1..n).for_each(|_| v.extend_from_within(..self.len())));
        }
        out
    }

    /// Append resolved rows, in the order given.
    fn append(&mut self, rows: impl ExactSizeIterator<Item = Row>) {
        let n = rows.len();
        metrics().rows.add(n as u64);
        // one reservation per column: a seal of a whole log grows
        // nothing row by row
        for col in column::stored() {
            with_vec!(col.cells_mut(self), |v| v.reserve(n));
        }
        for r in rows {
            let first = r.key.0;
            self.client.push(r.key.1);
            self.first.push(first);
            self.bytes_up.push(r.bytes_up);
            self.bytes_down.push(r.bytes_down);
            self.ground_rtt_avg.push(r.ground_rtt_avg);
            self.ground_rtt_samples.push(r.ground_rtt_samples);
            self.sat_rtt_ms.push(r.sat_rtt_ms);
            self.down_bps.push(r.down_bps);
            self.dur_s.push(r.dur_s);
            self.l7.push(r.l7);
            self.country.push(r.country);
            self.local_hour.push(r.local_hour);
            self.hour_utc.push(first.hour_of_day() as u8);
            self.day.push((first.as_secs() / SECS_PER_DAY) as u32);
            self.beam.push(r.beam);
            self.service.push(r.service);
            self.category.push(r.category);
            self.domain.push(r.domain);
        }
    }

    /// Split the rows at `at`, like `Vec::split_off`: `self` keeps
    /// rows `..at`, the returned frame holds rows `at..` and a copy of
    /// the dictionaries, so its codes mean what they meant here.
    pub fn split_off(&mut self, at: usize) -> FlowFrame {
        let mut rest =
            FlowFrame { domains: self.domains.clone(), services: self.services.clone(), ..FlowFrame::default() };
        for col in column::stored() {
            with_vec!(col.cells_mut(self), col.cells_mut(&mut rest), |v, w| *w = v.split_off(at));
        }
        rest
    }
}

/// What the builder resolved for one distinct domain name: its
/// dictionary code and its Table 3 classification.
#[derive(Clone, Copy, Debug)]
struct DomainEntry {
    code: u32,
    service: u16,
    category: u8,
}

/// Incremental frame builder: the enrichment pass. Owns the
/// enrichment maps and the Table 3 classifier, resolves every pushed
/// record to a `Row`, and seals rows into the columns of a
/// [`FlowFrame`] behind a watermark, in canonical order.
pub struct FrameBuilder {
    enr: Enrichment,
    classifier: Classifier,
    /// Memo per `Domain` handle, keyed by the `Arc`'s address; the
    /// pinned handle keeps that address from being reused. The probe
    /// interns names, so almost every push is a hit here and touches
    /// no string.
    by_handle: FxHashMap<usize, (Domain, DomainEntry)>,
    /// One entry per distinct name, consulted on a handle miss:
    /// handles from different interners share a code.
    by_name: FxHashMap<Domain, DomainEntry>,
    /// Pushed rows no seal has passed yet, in push order: the live
    /// tail of an eviction stream.
    rows: Vec<Row>,
    /// The rows of one seal behind a mark, sorted before they join
    /// `sealed` (kept for its buffer).
    behind: Vec<Row>,
    /// Rows a seal passed, in canonical order, as columns. Its
    /// `domains` and `services` are the builder's dictionaries, filled
    /// in as names are first pushed; the rows are read through
    /// [`sealed`](Self::sealed) or handed out by [`seal`](Self::seal).
    sealed: FlowFrame,
    /// The latest mark sealed behind: a row pushed behind it is late
    /// (the debug check).
    sealed_to: SimTime,
}

impl FrameBuilder {
    /// A builder using the standard Table 3 classifier. The service
    /// table is the rule list in declaration order, so service
    /// indices are stable across builders.
    pub fn new(enr: Enrichment) -> FrameBuilder {
        let classifier = Classifier::standard();
        let services = classifier.rules().iter().map(|r| r.service).collect();
        FrameBuilder {
            enr,
            classifier,
            by_handle: FxHashMap::default(),
            by_name: FxHashMap::default(),
            rows: Vec::new(),
            behind: Vec::new(),
            sealed: FlowFrame { services, ..FlowFrame::default() },
            sealed_to: SimTime::ZERO,
        }
    }

    /// Dictionary code and classification of `d`, interning it on
    /// first sight. Classification is a pure function of the name, so
    /// memoizing it cannot change any verdict.
    fn intern(&mut self, d: &Domain) -> DomainEntry {
        let key = Arc::as_ptr(d) as *const u8 as usize;
        if let Some((_pin, entry)) = self.by_handle.get(&key) {
            return *entry;
        }
        let entry = match self.by_name.get(d) {
            Some(entry) => *entry,
            None => {
                let (service, category) = match self.classifier.classify(d) {
                    Some((svc, cat)) => {
                        let service = self.sealed.services.iter().position(|s| *s == svc);
                        (service.expect("a rule's service is in the table") as u16, cat.index() as u8)
                    }
                    None => (NO_SERVICE, NO_CATEGORY),
                };
                let entry = DomainEntry { code: self.sealed.domains.len() as u32, service, category };
                self.sealed.domains.push(d.clone());
                self.by_name.insert(d.clone(), entry);
                entry
            }
        };
        self.by_handle.insert(key, (d.clone(), entry));
        entry
    }

    /// Resolve one record into a row. Accepts records in any order
    /// not behind a mark already sealed at; [`seal_behind`] restores
    /// the canonical order. The record must carry the *anonymized*
    /// client address (as records leaving the probe do) or the
    /// enrichment lookups will miss.
    ///
    /// [`seal_behind`]: Self::seal_behind
    pub fn push(&mut self, f: &FlowRecord) {
        debug_assert!(f.first >= self.sealed_to, "a flow at {:?} arrived behind a sealed mark", f.first);
        let country = self.enr.country(f.client);
        let domain = match &f.domain {
            Some(d) => self.intern(d),
            None => DomainEntry { code: NO_DOMAIN, service: NO_SERVICE, category: NO_CATEGORY },
        };
        self.rows.push(Row {
            key: flow_sort_key(f),
            bytes_up: f.c2s_bytes,
            bytes_down: f.s2c_bytes,
            ground_rtt_avg: f.ground_rtt.avg_ms,
            ground_rtt_samples: f.ground_rtt.samples,
            sat_rtt_ms: f.sat_rtt_ms.unwrap_or(f64::NAN),
            down_bps: f.download_throughput_bps(),
            dur_s: f.duration_s(),
            l7: f.l7.index() as u8,
            country: country.map_or(NO_COUNTRY, |c| c.index() as u8),
            local_hour: country.map_or(NO_HOUR, |c| f.first.local_hour(c.tz_offset()) as u8),
            beam: self.enr.beam_of.get(&f.client).copied().unwrap_or(NO_BEAM),
            service: domain.service,
            category: domain.category,
            domain: domain.code,
        });
    }

    /// Seal every row strictly behind the flow mark `mark` (`None`:
    /// every row — the input is over): sort them on the total
    /// [`flow_sort_key`] `Probe::finish` sorts by and append them to
    /// the sealed columns.
    ///
    /// Every row still to come starts at or after the mark, so the
    /// sealed sequence, seal after seal, is the canonical order of the
    /// whole capture. The sort is stable and the rows leave the tail in
    /// push order, so a tie breaks as it does in one sort of every row.
    /// Whether a sealed row's DNS lookups are in yet is the report
    /// fold's business (`ReportFold`'s DNS-first rule), not the seal's.
    pub fn seal_behind(&mut self, mark: Option<SimTime>) {
        if self.rows.is_empty() || mark.is_some_and(|mark| mark <= self.sealed_to) {
            return; // nothing can be behind it
        }
        let _span = satwatch_telemetry::Span::over(metrics().build_us);
        let rows = match mark {
            Some(mark) => {
                self.behind.extend(self.rows.extract_if(.., |r| r.key.0 < mark));
                &mut self.behind
            }
            None => &mut self.rows,
        };
        rows.sort_by_key(|r| r.key);
        self.sealed.append(rows.drain(..));
        self.sealed_to = mark.unwrap_or(SimTime::MAX);
    }

    /// The rows sealed since the last [`clear_sealed`](Self::clear_sealed),
    /// as a frame with the builder's dictionaries (codes are stable
    /// across seals).
    pub fn sealed(&self) -> &FlowFrame {
        &self.sealed
    }

    /// Drop the sealed rows, keeping the dictionaries and the buffers.
    pub fn clear_sealed(&mut self) {
        for col in column::stored() {
            with_vec!(col.cells_mut(&mut self.sealed), |v| v.clear());
        }
    }

    /// [`clear_sealed`](Self::clear_sealed), handing the sealed rows
    /// from `at` on to the caller as a frame of their own — for a
    /// consumer that has read the rows before `at` only.
    pub fn take_sealed_from(&mut self, at: usize) -> FlowFrame {
        let rest = self.sealed.split_off(at);
        self.clear_sealed();
        rest
    }

    /// The frame of everything pushed: every row sealed, for input in
    /// no known order (a log read back, a whole capture's stream).
    pub fn seal(mut self) -> FlowFrame {
        self.seal_behind(None);
        self.sealed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satwatch_monitor::record::RttSummary;
    use satwatch_monitor::L7Protocol;
    use satwatch_simcore::SimDuration;
    use satwatch_traffic::{Category, Country};

    fn flow(i: u8, hour: u32, domain: Option<&str>) -> FlowRecord {
        FlowRecord {
            client: Ipv4Addr::new(77, 0, 0, i),
            server: Ipv4Addr::new(198, 18, 0, 1),
            client_port: 50_000 + u16::from(i),
            server_port: 443,
            ip_proto: 6,
            first: SimTime::from_secs(hour as u64 * 3600 + u64::from(i)),
            last: SimTime::from_secs(hour as u64 * 3600 + u64::from(i)) + SimDuration::from_secs(10),
            c2s_packets: 5,
            c2s_bytes: 100 + u64::from(i),
            c2s_payload_bytes: 100,
            s2c_packets: 10,
            s2c_bytes: 1_000 + u64::from(i),
            s2c_payload_bytes: 1_000,
            c2s_retrans: 0,
            s2c_retrans: 0,
            early: vec![],
            syn_seen: true,
            fin_seen: true,
            rst_seen: false,
            ground_rtt: RttSummary { samples: 3, min_ms: 11.0, avg_ms: 12.0, max_ms: 14.0, std_ms: 1.0 },
            s2c_data_first: None,
            s2c_data_last: None,
            sat_rtt_ms: Some(600.0),
            l7: L7Protocol::TlsHttps,
            domain: domain.map(Into::into),
        }
    }

    fn enrichment() -> Enrichment {
        let mut e = Enrichment { days: 1, ..Default::default() };
        e.country_of.insert(Ipv4Addr::new(77, 0, 0, 1), Country::Congo);
        e.beam_of.insert(Ipv4Addr::new(77, 0, 0, 1), 3);
        e
    }

    #[test]
    fn columns_resolve_enrichment_and_classification() {
        let flows = vec![flow(1, 14, Some("video.tiktokv.com")), flow(2, 3, None)];
        let fr = FlowFrame::from_records(&flows, &enrichment());
        assert_eq!(fr.len(), 2);
        // enriched row
        assert_eq!(Country::ALL[fr.country[0] as usize], Country::Congo);
        assert_eq!(fr.beam[0], 3);
        assert_eq!(fr.local_hour[0], 15, "Congo is UTC+1");
        assert_eq!(fr.hour_utc[0], 14);
        assert_eq!(fr.services[fr.service[0] as usize], "Tiktok");
        assert_eq!(Category::ALL[fr.category[0] as usize], Category::Social);
        // unenriched, unclassified row
        assert_eq!(fr.country[1], NO_COUNTRY);
        assert_eq!(fr.beam[1], NO_BEAM);
        assert_eq!(fr.local_hour[1], NO_HOUR);
        assert_eq!(fr.service[1], NO_SERVICE);
        assert_eq!(fr.category[1], NO_CATEGORY);
        assert_eq!(fr.flow_bytes(0), flows[0].c2s_bytes + flows[0].s2c_bytes);
        assert_eq!(L7Protocol::ALL[fr.l7[0] as usize], L7Protocol::TlsHttps);
    }

    #[test]
    fn sealed_stream_equals_batch_in_any_push_order() {
        let mut flows: Vec<FlowRecord> =
            (0..20).map(|i| flow(i % 5, u32::from(i) % 24, Some("docs.google.com"))).collect();
        flows.sort_by_key(flow_sort_key);
        let batch = FlowFrame::from_records(&flows, &enrichment());
        // push in reversed (≠ canonical) order, as an eviction stream might
        let mut b = FrameBuilder::new(enrichment());
        for f in flows.iter().rev() {
            b.push(f);
        }
        crate::column::tests::assert_same_rows(&b.seal(), &batch);
    }

    fn mark(s: u64) -> Option<SimTime> {
        Some(SimTime::from_secs(s))
    }

    /// A seal passes the rows strictly behind the mark, sorted; an
    /// earlier mark afterwards passes nothing; sealed batch after
    /// batch, the rows are the canonical frame.
    #[test]
    fn rows_seal_behind_the_earlier_mark_in_canonical_order() {
        // firsts (hour 0): port i at second i, pushed out of order
        let order = [7u8, 2, 9, 1, 5, 3, 8, 4, 6];
        let mut flows: Vec<FlowRecord> = order.iter().map(|&i| flow(i, 0, Some("docs.google.com"))).collect();
        let mut b = FrameBuilder::new(enrichment());
        flows.iter().for_each(|f| b.push(f));
        b.seal_behind(mark(4));
        let first = b.sealed().clone();
        assert_eq!(first.first, [1, 2, 3].map(SimTime::from_secs), "the rows behind the mark, sorted");
        assert_eq!(first.domains.len(), 1);
        b.clear_sealed();
        b.seal_behind(mark(8));
        b.seal_behind(mark(7));
        assert_eq!(b.sealed().len(), 4, "an earlier mark afterwards passes nothing");
        let rest = b.seal();
        flows.sort_by_key(flow_sort_key);
        let batch = FlowFrame::from_records(&flows, &enrichment());
        assert_eq!([first.first, rest.first].concat(), batch.first);
        assert_eq!([first.client, rest.client].concat(), batch.client);
        assert_eq!([first.domain, rest.domain].concat(), batch.domain);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "arrived behind a sealed mark")]
    fn a_row_behind_a_sealed_mark_is_caught_in_debug_builds() {
        let mut b = FrameBuilder::new(enrichment());
        b.push(&flow(5, 0, None));
        b.seal_behind(mark(4));
        b.push(&flow(3, 0, None));
    }

    #[test]
    fn equal_names_share_one_code_whatever_the_handle() {
        // three handles, two names: as records from two interners
        // carry them
        let flows = vec![
            flow(1, 1, Some("a.example")),
            flow(2, 2, Some("b.example")),
            flow(3, 3, Some("a.example")),
            flow(4, 4, None),
        ];
        let fr = FlowFrame::from_records(&flows, &enrichment());
        assert_eq!(fr.domains.len(), 2);
        assert_eq!(fr.domain, [0, 1, 0, NO_DOMAIN]);
        assert_eq!(fr.domain_at(2), Some("a.example"));
        assert_eq!(fr.domain_at(3), None);
        assert_eq!(fr.domain_order(), [0, 1]);
        // pushed in another order, the dictionary is in push order and
        // the canonical order is still first appearance over *rows*
        let mut b = FrameBuilder::new(enrichment());
        [1, 0, 2, 3].iter().for_each(|&i| b.push(&flows[i]));
        let sealed = b.seal();
        assert_eq!(sealed.domain, [1, 0, 1, NO_DOMAIN]);
        assert_eq!(sealed.domain_order(), [1, 0]);
    }

    #[test]
    fn replicate_tiles_rows() {
        let flows = vec![flow(1, 10, None), flow(2, 11, None)];
        let fr = FlowFrame::from_records(&flows, &enrichment());
        let tiled = fr.replicate(3);
        assert_eq!(tiled.len(), 6);
        assert_eq!(tiled.domain.len(), 6);
        assert_eq!(tiled.domains, fr.domains);
        assert_eq!(&tiled.bytes_up[0..2], &tiled.bytes_up[2..4]);
        assert_eq!(tiled.first[4], fr.first[0]);
    }
}
