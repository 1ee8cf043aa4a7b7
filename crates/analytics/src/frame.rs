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
//!   looked at once per dictionary entry (DESIGN.md "Codes end to
//!   end").
//! * **Struct of arrays.** Each figure touches only the columns it
//!   needs; a sweep over `bytes_up`/`bytes_down` no longer drags the
//!   whole ~250-byte `FlowRecord` (plus its `early` vector and domain
//!   `Arc`) through the cache.
//! * **Streaming ingest.** [`FrameBuilder::push`] accepts evicted
//!   records one at a time, in *any* order, and [`FrameBuilder::seal`]
//!   restores the probe's canonical record order by sorting on the
//!   same total key `Probe::finish` uses — so a run can stream flows
//!   straight from the probe's eviction log into the frame without
//!   ever materializing `Vec<FlowRecord>`, and still produce
//!   byte-identical reports (see DESIGN.md §10).
//!
//! Row order is the byte-equivalence contract: row `i` of a frame
//! built by [`FlowFrame::from_records`] is `flows[i]`, and a sealed
//! streaming frame equals the batch frame over the same dataset.

use crate::agg::Enrichment;
use crate::classify::Classifier;
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

/// One flow, resolved to columns. Kept only inside the builder; of
/// the sort key only `first` and `client` become columns at seal time,
/// once the canonical order is restored.
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
/// resolved into small integers — see the module docs.
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
        b.finish(false)
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
        for _ in 1..n.max(1) {
            out.client.extend_from_slice(&self.client);
            out.first.extend_from_slice(&self.first);
            out.bytes_up.extend_from_slice(&self.bytes_up);
            out.bytes_down.extend_from_slice(&self.bytes_down);
            out.ground_rtt_avg.extend_from_slice(&self.ground_rtt_avg);
            out.ground_rtt_samples.extend_from_slice(&self.ground_rtt_samples);
            out.sat_rtt_ms.extend_from_slice(&self.sat_rtt_ms);
            out.down_bps.extend_from_slice(&self.down_bps);
            out.dur_s.extend_from_slice(&self.dur_s);
            out.l7.extend_from_slice(&self.l7);
            out.country.extend_from_slice(&self.country);
            out.local_hour.extend_from_slice(&self.local_hour);
            out.hour_utc.extend_from_slice(&self.hour_utc);
            out.day.extend_from_slice(&self.day);
            out.beam.extend_from_slice(&self.beam);
            out.service.extend_from_slice(&self.service);
            out.category.extend_from_slice(&self.category);
            out.domain.extend_from_slice(&self.domain);
        }
        out
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
/// record to a `Row`, and seals into a [`FlowFrame`].
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
    domains: Vec<Domain>,
    services: Vec<&'static str>,
    service_idx: FxHashMap<&'static str, u16>,
    rows: Vec<Row>,
}

impl FrameBuilder {
    /// A builder using the standard Table 3 classifier. The service
    /// table is the rule list in declaration order, so service
    /// indices are stable across builders.
    pub fn new(enr: Enrichment) -> FrameBuilder {
        let classifier = Classifier::standard();
        let services: Vec<&'static str> = classifier.rules().iter().map(|r| r.service).collect();
        let service_idx: FxHashMap<&'static str, u16> =
            services.iter().enumerate().map(|(i, s)| (*s, i as u16)).collect();
        FrameBuilder {
            enr,
            classifier,
            by_handle: FxHashMap::default(),
            by_name: FxHashMap::default(),
            domains: Vec::new(),
            services,
            service_idx,
            rows: Vec::new(),
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
                    Some((svc, cat)) => (self.service_idx[svc], cat.index() as u8),
                    None => (NO_SERVICE, NO_CATEGORY),
                };
                let entry = DomainEntry { code: self.domains.len() as u32, service, category };
                self.domains.push(d.clone());
                self.by_name.insert(d.clone(), entry);
                entry
            }
        };
        self.by_handle.insert(key, (d.clone(), entry));
        entry
    }

    /// Resolve one record into a row. Accepts records in any order;
    /// [`FrameBuilder::seal`] restores the canonical order. The record
    /// must carry the *anonymized* client address (as records leaving
    /// the probe do) or the enrichment lookups will miss.
    pub fn push(&mut self, f: &FlowRecord) {
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

    /// Rows buffered so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The enrichment the builder resolves against.
    pub fn enrichment(&self) -> &Enrichment {
        &self.enr
    }

    /// Seal a stream-built frame: sort rows into the probe's canonical
    /// record order, then scatter into columns. Sorting here is what
    /// makes eviction order irrelevant — the key is the same total
    /// [`flow_sort_key`] `Probe::finish` sorts by, so any permutation of
    /// the same flow set seals into the identical frame.
    pub fn seal(self) -> FlowFrame {
        self.finish(true)
    }

    fn finish(mut self, sort: bool) -> FlowFrame {
        let _span = satwatch_telemetry::Span::over(metrics().build_us);
        if sort {
            self.rows.sort_by_key(|r| r.key);
        }
        let n = self.rows.len();
        metrics().rows.add(n as u64);
        let mut fr = FlowFrame {
            client: Vec::with_capacity(n),
            first: Vec::with_capacity(n),
            bytes_up: Vec::with_capacity(n),
            bytes_down: Vec::with_capacity(n),
            ground_rtt_avg: Vec::with_capacity(n),
            ground_rtt_samples: Vec::with_capacity(n),
            sat_rtt_ms: Vec::with_capacity(n),
            down_bps: Vec::with_capacity(n),
            dur_s: Vec::with_capacity(n),
            l7: Vec::with_capacity(n),
            country: Vec::with_capacity(n),
            local_hour: Vec::with_capacity(n),
            hour_utc: Vec::with_capacity(n),
            day: Vec::with_capacity(n),
            beam: Vec::with_capacity(n),
            service: Vec::with_capacity(n),
            category: Vec::with_capacity(n),
            domain: Vec::with_capacity(n),
            domains: self.domains,
            services: self.services,
        };
        for r in self.rows {
            let first = r.key.0;
            fr.client.push(r.key.1);
            fr.first.push(first);
            fr.bytes_up.push(r.bytes_up);
            fr.bytes_down.push(r.bytes_down);
            fr.ground_rtt_avg.push(r.ground_rtt_avg);
            fr.ground_rtt_samples.push(r.ground_rtt_samples);
            fr.sat_rtt_ms.push(r.sat_rtt_ms);
            fr.down_bps.push(r.down_bps);
            fr.dur_s.push(r.dur_s);
            fr.l7.push(r.l7);
            fr.country.push(r.country);
            fr.local_hour.push(r.local_hour);
            fr.hour_utc.push(first.hour_of_day() as u8);
            fr.day.push((first.as_secs() / SECS_PER_DAY) as u32);
            fr.beam.push(r.beam);
            fr.service.push(r.service);
            fr.category.push(r.category);
            fr.domain.push(r.domain);
        }
        fr
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
        let sealed = b.seal();
        assert_eq!(sealed.len(), batch.len());
        assert_eq!(sealed.first, batch.first);
        assert_eq!(sealed.client, batch.client);
        assert_eq!(sealed.bytes_up, batch.bytes_up);
        assert_eq!(sealed.bytes_down, batch.bytes_down);
        assert_eq!(sealed.country, batch.country);
        assert_eq!(sealed.service, batch.service);
        assert_eq!(sealed.category, batch.category);
        assert_eq!(sealed.day, batch.day);
        for i in 0..batch.len() {
            assert_eq!(sealed.domain_at(i), batch.domain_at(i));
        }
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
