//! Aggregation builders: from monitor records (+ operator enrichment)
//! to the typed reports of [`crate::report`].
//!
//! Mirrors the paper's §3.1 pipeline: enrich each record with the
//! customer's country (via the anonymized-subnet↔country map supplied
//! by the operator) and the service (via the domain classifier), then
//! build the aggregate views.
//!
//! These are the reference the columnar engine is pinned to
//! (`columnar_equivalence.rs`, `frame_equivalence.rs`): one plain pass
//! over the record slice per figure, written to be audited by eye.
//! No `satwatch` command folds a record slice through them. What the
//! engine shares with them is production: [`Enrichment`] and its log,
//! the customer-day figures [`fig5`] / [`fig6`] / [`fig7`] (functions
//! of the rollup, whichever path built it) and [`fig10`]'s tallies —
//! the DNS log has no frame, so `ReportFold` absorbs it the same way.

use crate::classify::{second_level_domain, Classifier, ClassifyCache};
use crate::report::*;
use satwatch_internet::ResolverId;
use satwatch_monitor::tsv::{push_ipv4, push_u64, read_rows, write_rows};
use satwatch_monitor::{DnsRecord, FlowRecord, L7Protocol};
use satwatch_simcore::stats::{BoxplotSummary, Cdf};
use satwatch_simcore::time::SECS_PER_DAY;
use satwatch_simcore::{FxHashMap, FxHashSet};
use satwatch_traffic::{Category, Country};
use std::io::{self, BufRead, Write};
use std::net::Ipv4Addr;

/// Operator-provided enrichment: anonymized customer address →
/// country / beam, plus static beam facts (paper §3.1: "mapping the
/// encrypted customer subnet to the corresponding country with the
/// support of the SatCom operator").
#[derive(Clone, Debug, Default)]
pub struct Enrichment {
    pub country_of: FxHashMap<Ipv4Addr, Country>,
    pub beam_of: FxHashMap<Ipv4Addr, u16>,
    pub beams: Vec<BeamInfo>,
    /// Number of days the capture covers.
    pub days: u64,
}

#[derive(Clone, Debug)]
pub struct BeamInfo {
    pub name: String,
    pub country: Country,
    pub peak_utilization: f64,
}

impl Enrichment {
    pub fn country(&self, client: Ipv4Addr) -> Option<Country> {
        self.country_of.get(&client).copied()
    }

    pub fn customers_in(&self, c: Country) -> usize {
        self.country_of.values().filter(|&&cc| cc == c).count()
    }
}

const ENRICHMENT_HEADER: &str = "client\tcountry\tbeam";

/// Beam column of a customer the operator mapped to no beam.
const NO_BEAM: u16 = u16::MAX;

/// Write the customer map (anonymized address → country, beam) as the
/// operator would hand it to the analysts: TSV, one row per customer
/// in address order. `beams` and `days` are not part of the log.
pub fn write_enrichment_log<W: Write>(w: &mut W, enr: &Enrichment) -> io::Result<()> {
    let mut rows: Vec<_> = enr.country_of.iter().collect();
    rows.sort_by_key(|(addr, _)| **addr);
    write_rows(w, Some(ENRICHMENT_HEADER), rows, |b, (addr, country)| {
        push_ipv4(b, *addr);
        b.push(b'\t');
        b.extend_from_slice(country.code().as_bytes());
        b.push(b'\t');
        push_u64(b, u64::from(enr.beam_of.get(addr).copied().unwrap_or(NO_BEAM)));
        b.push(b'\n');
    })
}

/// Read the customer map back. `beams` comes back empty and `days`
/// zero: the caller knows the capture's span, the log does not.
pub fn read_enrichment_log<R: BufRead>(r: R) -> io::Result<Enrichment> {
    let mut enr = Enrichment::default();
    read_rows(r, ENRICHMENT_HEADER, "enrichment log", |mut f| {
        let addr: Ipv4Addr = f.parse("client")?;
        let country = Country::from_code(f.text()).ok_or_else(|| f.bad("country"))?;
        enr.country_of.insert(addr, country);
        let beam: u16 = f.uint("beam")?;
        if beam != NO_BEAM {
            enr.beam_of.insert(addr, beam);
        }
        Ok(())
    })?;
    Ok(enr)
}

/// Night window in local time (paper Fig 8a: 2:00–5:00).
pub fn is_night(local_hour: u32) -> bool {
    (2..5).contains(&local_hour)
}

/// Peak window in local time (paper Fig 8a: 13:00–20:00).
pub fn is_peak(local_hour: u32) -> bool {
    (13..20).contains(&local_hour)
}

fn flow_bytes(f: &FlowRecord) -> u64 {
    f.c2s_bytes + f.s2c_bytes
}

fn local_hour_of(f: &FlowRecord, c: Country) -> u32 {
    f.first.local_hour(c.tz_offset())
}

/// Table 1: protocol volume shares.
pub fn table1(flows: &[FlowRecord]) -> Table1 {
    let _span = satwatch_telemetry::span("analytics_table1_us");
    let mut by_proto: FxHashMap<L7Protocol, u64> = FxHashMap::default();
    let mut total = 0u64;
    for f in flows {
        let b = flow_bytes(f);
        *by_proto.entry(f.l7).or_default() += b;
        total += b;
    }
    let rows = L7Protocol::ALL
        .into_iter()
        .map(|p| (p, 100.0 * by_proto.get(&p).copied().unwrap_or(0) as f64 / total.max(1) as f64))
        .collect();
    Table1 { rows }
}

/// Figure 2: per-country volume & customer shares.
pub fn fig2(flows: &[FlowRecord], enr: &Enrichment) -> Fig2 {
    let _span = satwatch_telemetry::span("analytics_fig2_us");
    let mut vol: FxHashMap<Country, u64> = FxHashMap::default();
    let mut total = 0u64;
    for f in flows {
        if let Some(c) = enr.country(f.client) {
            let b = flow_bytes(f);
            *vol.entry(c).or_default() += b;
            total += b;
        }
    }
    let total_customers: usize = enr.country_of.len();
    let mut rows: Vec<(Country, f64, f64, f64)> = Country::ALL
        .into_iter()
        .map(|c| {
            let v = vol.get(&c).copied().unwrap_or(0);
            let customers = enr.customers_in(c);
            let mb_per_day =
                if customers == 0 || enr.days == 0 { 0.0 } else { v as f64 / 1e6 / customers as f64 / enr.days as f64 };
            (
                c,
                100.0 * v as f64 / total.max(1) as f64,
                100.0 * customers as f64 / total_customers.max(1) as f64,
                mb_per_day,
            )
        })
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    Fig2 { rows }
}

/// Figure 3: protocol share per country (descending volume order).
pub fn fig3(flows: &[FlowRecord], enr: &Enrichment) -> Fig3 {
    let _span = satwatch_telemetry::span("analytics_fig3_us");
    let mut vol: FxHashMap<Country, FxHashMap<L7Protocol, u64>> = FxHashMap::default();
    for f in flows {
        if let Some(c) = enr.country(f.client) {
            *vol.entry(c).or_default().entry(f.l7).or_default() += flow_bytes(f);
        }
    }
    let mut rows: Vec<(Country, Vec<(L7Protocol, f64)>)> = vol
        .into_iter()
        .map(|(c, protos)| {
            let total: u64 = protos.values().sum();
            let shares = L7Protocol::ALL
                .into_iter()
                .map(|p| (p, 100.0 * protos.get(&p).copied().unwrap_or(0) as f64 / total.max(1) as f64))
                .collect();
            (c, shares)
        })
        .collect();
    rows.sort_by_key(|(c, _)| Country::ALL.iter().position(|x| x == c));
    Fig3 { rows }
}

/// Figure 4: hourly traffic profile normalised per country. Byte
/// counts accumulate in `u64` and only become `f64` at the final
/// normalisation.
pub fn fig4(flows: &[FlowRecord], enr: &Enrichment) -> Fig4 {
    let _span = satwatch_telemetry::span("analytics_fig4_us");
    let mut by_hour: FxHashMap<Country, [u64; 24]> = FxHashMap::default();
    for f in flows {
        if let Some(c) = enr.country(f.client) {
            by_hour.entry(c).or_insert([0; 24])[f.first.hour_of_day() as usize] += flow_bytes(f);
        }
    }
    let mut rows: Vec<(Country, [f64; 24])> = by_hour
        .into_iter()
        .map(|(c, bytes)| {
            let max = bytes.iter().copied().max().unwrap_or(0).max(1) as f64;
            let mut prof = [0.0; 24];
            for (p, b) in prof.iter_mut().zip(bytes) {
                *p = b as f64 / max;
            }
            (c, prof)
        })
        .collect();
    rows.sort_by_key(|(c, _)| Country::ALL.iter().position(|x| x == c));
    Fig4 { rows }
}

/// Per-customer-day rollup used by Fig 5 and Fig 7.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CustomerDay {
    pub flows: u64,
    pub down: u64,
    pub up: u64,
    pub by_category: FxHashMap<Category, u64>,
    pub services: FxHashSet<&'static str>,
}

impl CustomerDay {
    /// Merge another summary of the same (client, day) into this one.
    /// Every field is an exact sum or a set union, so merge order
    /// cannot change the result.
    pub(crate) fn absorb(&mut self, other: CustomerDay) {
        self.flows += other.flows;
        self.down += other.down;
        self.up += other.up;
        for (cat, bytes) in other.by_category {
            *self.by_category.entry(cat).or_default() += bytes;
        }
        self.services.extend(other.services);
    }
}

/// Roll flows up into per-(client, day) summaries.
pub fn customer_days(flows: &[FlowRecord], classifier: &Classifier) -> FxHashMap<(Ipv4Addr, u64), CustomerDay> {
    let _span = satwatch_telemetry::span("analytics_customer_days_us");
    let mut map: FxHashMap<(Ipv4Addr, u64), CustomerDay> = FxHashMap::default();
    // SNIs are interned, so the distinct-handle count is tiny;
    // memoizing per handle skips the pattern scan on repeats
    // without changing any verdict (classification is pure).
    let mut cache = ClassifyCache::default();
    for f in flows {
        let day = f.first.as_secs() / SECS_PER_DAY;
        let e = map.entry((f.client, day)).or_default();
        e.flows += 1;
        e.down += f.s2c_bytes;
        e.up += f.c2s_bytes;
        if let Some(domain) = &f.domain {
            if let Some((svc, cat)) = classifier.classify_cached(domain, &mut cache) {
                *e.by_category.entry(cat).or_default() += flow_bytes(f);
                e.services.insert(svc);
            }
        }
    }
    map
}

/// Threshold defining an *active* customer-day (paper §4: ≥ 250 flows).
pub const ACTIVE_FLOWS_THRESHOLD: u64 = 250;

/// Figure 5: CCDF sources of daily flows / download / upload.
/// Volumes are restricted to active customer-days, as in the paper.
pub fn fig5(days: &FxHashMap<(Ipv4Addr, u64), CustomerDay>, enr: &Enrichment) -> Fig5 {
    let mut flows_by_c: FxHashMap<Country, Vec<f64>> = FxHashMap::default();
    let mut down_by_c: FxHashMap<Country, Vec<f64>> = FxHashMap::default();
    let mut up_by_c: FxHashMap<Country, Vec<f64>> = FxHashMap::default();
    for ((client, _), cd) in days {
        let Some(c) = enr.country(*client) else { continue };
        flows_by_c.entry(c).or_default().push(cd.flows as f64);
        if cd.flows >= ACTIVE_FLOWS_THRESHOLD {
            down_by_c.entry(c).or_default().push(cd.down as f64);
            up_by_c.entry(c).or_default().push(cd.up as f64);
        }
    }
    let mut rows = Vec::new();
    for c in Country::ALL {
        if let Some(fl) = flows_by_c.get(&c) {
            rows.push((
                c,
                Cdf::from_values(fl.clone()),
                Cdf::from_values(down_by_c.get(&c).cloned().unwrap_or_default()),
                Cdf::from_values(up_by_c.get(&c).cloned().unwrap_or_default()),
            ));
        }
    }
    Fig5 { rows }
}

/// Figure 6: service popularity (% of customers per day).
pub fn fig6(
    days: &FxHashMap<(Ipv4Addr, u64), CustomerDay>,
    enr: &Enrichment,
    services: &[&'static str],
    countries: &[Country],
) -> Fig6 {
    // count customer-days on which each (service, country) was used
    let mut used: FxHashMap<(&'static str, Country), u64> = FxHashMap::default();
    for ((client, _), cd) in days {
        let Some(c) = enr.country(*client) else { continue };
        for svc in &cd.services {
            *used.entry((svc, c)).or_default() += 1;
        }
    }
    let values = services
        .iter()
        .map(|svc| {
            countries
                .iter()
                .map(|c| {
                    let denom = (enr.customers_in(*c) as u64 * enr.days.max(1)) as f64;
                    100.0 * used.get(&(*svc, *c)).copied().unwrap_or(0) as f64 / denom.max(1.0)
                })
                .collect()
        })
        .collect();
    Fig6 { services: services.to_vec(), countries: countries.to_vec(), values }
}

/// Figure 7: daily volume boxplots per (country, category), over the
/// customer-days that accessed the category.
pub fn fig7(days: &FxHashMap<(Ipv4Addr, u64), CustomerDay>, enr: &Enrichment, countries: &[Country]) -> Fig7 {
    let mut volumes: FxHashMap<(Country, Category), Vec<f64>> = FxHashMap::default();
    for ((client, _), cd) in days {
        let Some(c) = enr.country(*client) else { continue };
        for (cat, bytes) in &cd.by_category {
            volumes.entry((c, *cat)).or_default().push(*bytes as f64 / 1e6);
        }
    }
    let mut rows = Vec::new();
    for c in countries {
        for cat in Category::PAPER_SIX {
            if let Some(v) = volumes.get(&(*c, cat)) {
                if let Some(b) = BoxplotSummary::from_values(v.clone()) {
                    rows.push((*c, cat, b));
                }
            }
        }
    }
    Fig7 { rows }
}

/// Figure 8a: satellite RTT night vs peak per country.
pub fn fig8a(flows: &[FlowRecord], enr: &Enrichment, countries: &[Country]) -> Fig8a {
    let mut night: FxHashMap<Country, Vec<f64>> = FxHashMap::default();
    let mut peak: FxHashMap<Country, Vec<f64>> = FxHashMap::default();
    for f in flows {
        let (Some(c), Some(rtt)) = (enr.country(f.client), f.sat_rtt_ms) else { continue };
        let h = local_hour_of(f, c);
        if is_night(h) {
            night.entry(c).or_default().push(rtt / 1e3);
        } else if is_peak(h) {
            peak.entry(c).or_default().push(rtt / 1e3);
        }
    }
    let rows = countries
        .iter()
        .filter_map(|c| {
            let n = night.get(c)?;
            let p = peak.get(c)?;
            Some((*c, Cdf::from_values(n.clone()), Cdf::from_values(p.clone())))
        })
        .collect();
    Fig8a { rows }
}

/// Figure 8b: per-beam median satellite RTT (peak hours) vs
/// normalised utilization.
pub fn fig8b(flows: &[FlowRecord], enr: &Enrichment) -> Fig8b {
    let mut samples: FxHashMap<u16, Vec<f64>> = FxHashMap::default();
    for f in flows {
        let (Some(c), Some(rtt), Some(&beam)) = (enr.country(f.client), f.sat_rtt_ms, enr.beam_of.get(&f.client))
        else {
            continue;
        };
        if is_peak(local_hour_of(f, c)) {
            samples.entry(beam).or_default().push(rtt / 1e3);
        }
    }
    let max_util = enr.beams.iter().map(|b| b.peak_utilization).fold(0.0f64, f64::max).max(1e-9);
    let mut rows = Vec::new();
    for (beam, mut v) in samples {
        // the id came with the customer map; a replayed log has no beam table
        let Some(info) = enr.beams.get(beam as usize) else { continue };
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        rows.push((info.name.clone(), info.country, info.peak_utilization / max_util, median, v.len()));
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    Fig8b { rows }
}

/// Figure 9: traffic-weighted ground RTT distribution per country.
pub fn fig9(flows: &[FlowRecord], enr: &Enrichment, countries: &[Country]) -> Fig9 {
    let mut samples: FxHashMap<Country, Vec<(f64, f64)>> = FxHashMap::default();
    for f in flows {
        let Some(c) = enr.country(f.client) else { continue };
        if f.ground_rtt.samples == 0 {
            continue;
        }
        samples.entry(c).or_default().push((f.ground_rtt.avg_ms, flow_bytes(f) as f64));
    }
    let rows = countries
        .iter()
        .filter_map(|c| {
            let v = samples.get(c)?;
            let cdf = Cdf::from_weighted(v.clone());
            let med = cdf.quantile(0.5);
            Some((*c, cdf, med))
        })
        .collect();
    Fig9 { rows }
}

/// The resolvers Figure 10 breaks out, in row order; every other
/// resolver counts as `Other`.
const FIG10_RESOLVERS: [ResolverId; 9] = [
    ResolverId::OperatorEu,
    ResolverId::Google,
    ResolverId::Cloudflare,
    ResolverId::Nigerian,
    ResolverId::OpenDns,
    ResolverId::Level3,
    ResolverId::Baidu,
    ResolverId::Dns114,
    ResolverId::Other,
];

/// Figure 10's tallies, one DNS record at a time: per-country lookup
/// counts by resolver and each resolver's response times. Counts are
/// exact and the times are sorted before the median is read, so the
/// log may arrive in pieces.
#[derive(Default)]
pub(crate) struct Fig10Acc {
    counts: FxHashMap<(ResolverId, Country), u64>,
    totals: FxHashMap<Country, u64>,
    times: FxHashMap<ResolverId, Vec<f64>>,
}

impl Fig10Acc {
    pub(crate) fn absorb(&mut self, d: &DnsRecord, enr: &Enrichment) {
        let Some(c) = enr.country(d.client) else { return };
        let r = ResolverId::from_address(d.resolver).unwrap_or(ResolverId::Other);
        // fold the resolvers we don't break out into "Other"
        let r = if FIG10_RESOLVERS.contains(&r) { r } else { ResolverId::Other };
        *self.counts.entry((r, c)).or_default() += 1;
        *self.totals.entry(c).or_default() += 1;
        if let Some(ms) = d.response_ms {
            self.times.entry(r).or_default().push(ms);
        }
    }

    /// Response times held for the medians.
    pub(crate) fn held(&self) -> usize {
        self.times.values().map(Vec::len).sum()
    }

    pub(crate) fn finish(mut self, countries: &[Country]) -> Fig10 {
        let share = FIG10_RESOLVERS
            .iter()
            .map(|r| {
                countries
                    .iter()
                    .map(|c| {
                        100.0 * self.counts.get(&(*r, *c)).copied().unwrap_or(0) as f64
                            / self.totals.get(c).copied().unwrap_or(0).max(1) as f64
                    })
                    .collect()
            })
            .collect();
        let median_ms = FIG10_RESOLVERS
            .iter()
            .map(|r| {
                self.times
                    .remove(r)
                    .map(|mut v| {
                        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                        v[v.len() / 2]
                    })
                    .unwrap_or(f64::NAN)
            })
            .collect();
        Fig10 { resolvers: FIG10_RESOLVERS.to_vec(), countries: countries.to_vec(), share, median_ms }
    }
}

/// Figure 10: resolver adoption per country + median response times.
pub fn fig10(dns: &[DnsRecord], enr: &Enrichment, countries: &[Country]) -> Fig10 {
    let _span = satwatch_telemetry::span("analytics_fig10_us");
    let mut acc = Fig10Acc::default();
    for d in dns {
        acc.absorb(d, enr);
    }
    acc.finish(countries)
}

/// Table 2/4/5: per (SLD, country, resolver) mean ground RTT, joining
/// each flow to the resolver that answered its domain's lookup.
pub fn table_cdn_selection(
    flows: &[FlowRecord],
    dns: &[DnsRecord],
    enr: &Enrichment,
    countries: &[Country],
    min_flows: usize,
) -> TableCdnSelection {
    // (client, fqdn) → time-sorted lookups. A flow is attributed to
    // the most recent lookup *preceding* it within a freshness window,
    // so shared CPEs whose users mix resolvers do not cross-pollute.
    let mut lookups: FxHashMap<(Ipv4Addr, &str), Vec<(satwatch_simcore::SimTime, ResolverId)>> = FxHashMap::default();
    for d in dns {
        let r = ResolverId::from_address(d.resolver).unwrap_or(ResolverId::Other);
        lookups.entry((d.client, &*d.query)).or_default().push((d.ts, r));
    }
    for v in lookups.values_mut() {
        v.sort_by_key(|(t, _)| *t);
    }
    let fresh = satwatch_simcore::SimDuration::from_secs(30);
    let mut acc: FxHashMap<(String, Country, ResolverId), (f64, usize)> = FxHashMap::default();
    for f in flows {
        let (Some(c), Some(domain)) = (enr.country(f.client), f.domain.as_deref()) else { continue };
        if !countries.contains(&c) || f.ground_rtt.samples == 0 {
            continue;
        }
        let Some(entries) = lookups.get(&(f.client, domain)) else { continue };
        let idx = entries.partition_point(|(t, _)| *t <= f.first);
        if idx == 0 {
            continue;
        }
        let (ts, r) = entries[idx - 1];
        if f.first - ts > fresh {
            continue; // stale: likely a different device's lookup
        }
        let sld = second_level_domain(domain);
        let e = acc.entry((sld, c, r)).or_insert((0.0, 0));
        e.0 += f.ground_rtt.avg_ms;
        e.1 += 1;
    }
    let mut rows: Vec<(String, Country, ResolverId, f64, usize)> = acc
        .into_iter()
        .filter(|(_, (_, n))| *n >= min_flows)
        .map(|((sld, c, r), (sum, n))| (sld, c, r, sum / n as f64, n))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    TableCdnSelection { rows }
}

/// Longitudinal view: per-day traffic volume per country (the paper is
/// "the first longitudinal study of SatCom traffic"; this is the
/// day-granularity companion of the hourly Fig 4).
pub fn daily_trend(flows: &[FlowRecord], enr: &Enrichment) -> Vec<(Country, Vec<u64>)> {
    let mut by: FxHashMap<Country, Vec<u64>> = FxHashMap::default();
    let days = enr.days.max(1) as usize;
    for f in flows {
        let Some(c) = enr.country(f.client) else { continue };
        let day = (f.first.as_secs() / SECS_PER_DAY) as usize;
        let v = by.entry(c).or_insert_with(|| vec![0; days]);
        if day < v.len() {
            v[day] += flow_bytes(f);
        }
    }
    let mut rows: Vec<(Country, Vec<u64>)> = by.into_iter().collect();
    rows.sort_by_key(|(c, _)| Country::ALL.iter().position(|x| x == c));
    rows
}

/// Minimum flow size for the throughput analysis (paper §6.5: 10 MB).
pub const THROUGHPUT_MIN_BYTES: u64 = 10_000_000;

/// Figure 11: download throughput per country over large flows.
pub fn fig11(flows: &[FlowRecord], enr: &Enrichment, countries: &[Country]) -> Fig11 {
    let mut all: FxHashMap<Country, Vec<f64>> = FxHashMap::default();
    let mut night: FxHashMap<Country, Vec<f64>> = FxHashMap::default();
    let mut peak: FxHashMap<Country, Vec<f64>> = FxHashMap::default();
    for f in flows {
        let Some(c) = enr.country(f.client) else { continue };
        if f.s2c_bytes < THROUGHPUT_MIN_BYTES {
            continue;
        }
        let mbps = f.download_throughput_bps() / 1e6;
        if mbps <= 0.0 {
            continue;
        }
        all.entry(c).or_default().push(mbps);
        let h = local_hour_of(f, c);
        if is_night(h) {
            night.entry(c).or_default().push(mbps);
        } else if is_peak(h) {
            peak.entry(c).or_default().push(mbps);
        }
    }
    let rows = countries
        .iter()
        .filter_map(|c| {
            let v = all.get(c)?;
            Some((
                *c,
                Cdf::from_values(v.clone()),
                night.get(c).and_then(|v| BoxplotSummary::from_values(v.clone())),
                peak.get(c).and_then(|v| BoxplotSummary::from_values(v.clone())),
            ))
        })
        .collect();
    Fig11 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satwatch_monitor::record::RttSummary;
    use satwatch_simcore::{SimDuration, SimTime};

    fn client(i: u8) -> Ipv4Addr {
        Ipv4Addr::new(77, 0, 0, i)
    }

    fn flow(c: Ipv4Addr, l7: L7Protocol, down: u64, up: u64, hour: u32, domain: Option<&str>) -> FlowRecord {
        FlowRecord {
            client: c,
            server: Ipv4Addr::new(198, 18, 0, 1),
            client_port: 50_000,
            server_port: 443,
            ip_proto: 6,
            first: SimTime::from_secs(hour as u64 * 3600),
            last: SimTime::from_secs(hour as u64 * 3600) + SimDuration::from_secs(10),
            c2s_packets: 5,
            c2s_bytes: up,
            c2s_payload_bytes: up,
            s2c_packets: 10,
            s2c_bytes: down,
            s2c_payload_bytes: down,
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
            l7,
            domain: domain.map(Into::into),
        }
    }

    fn enrichment() -> Enrichment {
        let mut e = Enrichment { days: 1, ..Default::default() };
        e.country_of.insert(client(1), Country::Congo);
        e.country_of.insert(client(2), Country::Spain);
        e.beam_of.insert(client(1), 0);
        e.beam_of.insert(client(2), 1);
        e.beams = vec![
            BeamInfo { name: "cd-0".into(), country: Country::Congo, peak_utilization: 0.9 },
            BeamInfo { name: "es-0".into(), country: Country::Spain, peak_utilization: 0.45 },
        ];
        e
    }

    #[test]
    fn table1_shares_sum_to_100() {
        let flows = vec![
            flow(client(1), L7Protocol::TlsHttps, 700, 100, 10, None),
            flow(client(1), L7Protocol::Quic, 150, 50, 10, None),
        ];
        let t = table1(&flows);
        let total: f64 = t.rows.iter().map(|(_, s)| s).sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert!((t.share(L7Protocol::TlsHttps) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn fig2_volume_and_customer_shares() {
        let flows = vec![
            flow(client(1), L7Protocol::TlsHttps, 900, 100, 10, None),
            flow(client(2), L7Protocol::TlsHttps, 400, 100, 10, None),
        ];
        let f = fig2(&flows, &enrichment());
        let congo = f.row(Country::Congo).unwrap();
        assert!((congo.1 - 1000.0 / 1500.0 * 100.0).abs() < 1e-9);
        assert!((congo.2 - 50.0).abs() < 1e-9);
        // sorted descending by volume
        assert_eq!(f.rows[0].0, Country::Congo);
    }

    #[test]
    fn fig5_active_threshold_applies() {
        let mut days: FxHashMap<(Ipv4Addr, u64), CustomerDay> = FxHashMap::default();
        days.insert((client(1), 0), CustomerDay { flows: 300, down: 5_000_000_000, up: 100, ..Default::default() });
        days.insert((client(2), 0), CustomerDay { flows: 100, down: 9_999_999_999, up: 10, ..Default::default() });
        let f = fig5(&days, &enrichment());
        // Spain's customer was inactive: no volume rows for Spain
        let es = f.row(Country::Spain).unwrap();
        assert_eq!(es.2.count, 0, "inactive customers excluded from volume CCDF");
        let cd = f.row(Country::Congo).unwrap();
        assert_eq!(cd.2.count, 1);
    }

    /// One customer-day: client, day, services used, bytes per category.
    type Cell = (u8, u64, &'static [&'static str], &'static [(Category, u64)]);

    /// Two days, Congo with one customer and Spain with two; a
    /// customer the enrichment does not know counts nowhere.
    fn two_day_customer_days(cells: &[Cell]) -> (FxHashMap<(Ipv4Addr, u64), CustomerDay>, Enrichment) {
        let mut enr = enrichment();
        enr.days = 2;
        enr.country_of.insert(client(3), Country::Spain);
        let mut days = FxHashMap::default();
        for &(c, day, services, bytes) in cells {
            let cd = CustomerDay {
                services: services.iter().copied().collect(),
                by_category: bytes.iter().copied().collect(),
                ..Default::default()
            };
            days.insert((client(c), day), cd);
        }
        (days, enr)
    }

    #[test]
    fn fig6_counts_customer_days_over_customers_times_days() {
        let (days, enr) = two_day_customer_days(&[
            (1, 0, &["Whatsapp", "Youtube"], &[]),
            (1, 1, &["Whatsapp"], &[]),
            (2, 0, &["Youtube"], &[]),
            (3, 1, &["Youtube", "Whatsapp"], &[]),
            (9, 0, &["Youtube", "Netflix"], &[]),
        ]);
        let f =
            fig6(&days, &enr, &["Whatsapp", "Youtube", "Netflix"], &[Country::Congo, Country::Spain, Country::Nigeria]);
        // Congo: 1 customer × 2 days; Spain: 2 × 2; Nigeria: none, and
        // an empty denominator reads as 1
        assert_eq!(f.values, [[100.0, 25.0, 0.0], [50.0, 50.0, 0.0], [0.0, 0.0, 0.0]]);
        assert_eq!(f.value("Youtube", Country::Spain), Some(50.0));
    }

    #[test]
    fn fig7_boxes_each_countrys_customer_days_per_paper_category() {
        let (days, enr) = two_day_customer_days(&[
            (1, 0, &[], &[(Category::Chat, 250_000_000), (Category::Video, 10_000_000), (Category::Web, 7_000_000)]),
            (1, 1, &[], &[(Category::Chat, 50_000_000)]),
            (2, 0, &[], &[(Category::Chat, 2_000_000)]),
            (3, 1, &[], &[(Category::Chat, 4_000_000), (Category::Video, 6_000_000)]),
            (9, 0, &[], &[(Category::Chat, 999_000_000)]),
        ]);
        let f = fig7(&days, &enr, &[Country::Congo, Country::Spain]);
        // countries in the order asked, categories in `PAPER_SIX` order;
        // `Web` is none of the six
        let order: Vec<_> = f.rows.iter().map(|(c, cat, _)| (*c, *cat)).collect();
        assert_eq!(
            order,
            [
                (Country::Congo, Category::Chat),
                (Country::Congo, Category::Video),
                (Country::Spain, Category::Chat),
                (Country::Spain, Category::Video)
            ]
        );
        // MB per customer-day, type-7 quantiles: Congo's chat is
        // {50, 250}, Spain's {2, 4}
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        let b = f.summary(Country::Congo, Category::Chat).unwrap();
        let got = [b.p5, b.q1, b.median, b.q3, b.p95, b.mean];
        assert!(got.iter().zip([60.0, 100.0, 150.0, 200.0, 240.0, 150.0]).all(|(a, b)| close(*a, b)), "{got:?}");
        assert_eq!(b.count, 2);
        let b = f.summary(Country::Spain, Category::Chat).unwrap();
        let got = [b.p5, b.q1, b.median, b.q3, b.p95, b.mean];
        assert!(got.iter().zip([2.1, 2.5, 3.0, 3.5, 3.9, 3.0]).all(|(a, b)| close(*a, b)), "{got:?}");
        let b = f.summary(Country::Congo, Category::Video).unwrap();
        assert_eq!((b.p5, b.median, b.p95, b.count), (10.0, 10.0, 10.0, 1));
        assert_eq!(f.summary(Country::Spain, Category::Video).unwrap().median, 6.0);
    }

    #[test]
    fn fig8a_splits_night_peak_by_local_time() {
        // Congo is UTC+1: flows at 2:00 local = 1:00 UTC... use 3:00
        // local (2:00 UTC) for night and 14:00 local (13:00 UTC) peak.
        let flows = vec![
            flow(client(1), L7Protocol::TlsHttps, 100, 10, 2, None), // 3:00 local → night
            flow(client(1), L7Protocol::TlsHttps, 100, 10, 13, None), // 14:00 local → peak
            flow(client(1), L7Protocol::TlsHttps, 100, 10, 22, None), // neither
        ];
        let f = fig8a(&flows, &enrichment(), &[Country::Congo]);
        let (_, night, peak) = f.row(Country::Congo).unwrap();
        assert_eq!(night.count, 1);
        assert_eq!(peak.count, 1);
    }

    #[test]
    fn fig8b_normalises_utilization() {
        let flows = vec![
            flow(client(1), L7Protocol::TlsHttps, 100, 10, 13, None),
            flow(client(2), L7Protocol::TlsHttps, 100, 10, 13, None),
        ];
        let f = fig8b(&flows, &enrichment());
        assert_eq!(f.rows.len(), 2);
        let cd = f.rows.iter().find(|r| r.0 == "cd-0").unwrap();
        assert!((cd.2 - 1.0).abs() < 1e-9, "max-utilization beam normalises to 1");
        let es = f.rows.iter().find(|r| r.0 == "es-0").unwrap();
        assert!((es.2 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fig10_shares_and_medians() {
        let mk = |c: Ipv4Addr, resolver: Ipv4Addr, ms: f64| DnsRecord {
            client: c,
            resolver,
            query: "x.example".into(),
            ts: SimTime::ZERO,
            response_ms: Some(ms),
            answers: vec![],
        };
        let dns = vec![
            mk(client(1), ResolverId::Google.address(), 20.0),
            mk(client(1), ResolverId::Google.address(), 24.0),
            mk(client(1), ResolverId::Dns114.address(), 110.0),
            mk(client(2), ResolverId::OperatorEu.address(), 4.0),
        ];
        let f = fig10(&dns, &enrichment(), &[Country::Congo, Country::Spain]);
        assert!((f.share_of(ResolverId::Google, Country::Congo).unwrap() - 66.6).abs() < 1.0);
        assert!((f.share_of(ResolverId::OperatorEu, Country::Spain).unwrap() - 100.0).abs() < 1e-9);
        assert!((f.median_of(ResolverId::Google).unwrap() - 24.0).abs() < 1e-9);
    }

    #[test]
    fn cdn_table_joins_flows_to_resolvers() {
        // lookup 2 s before the flow starts (flows at hour 10 start at
        // 36 000 s)
        let dns = vec![DnsRecord {
            client: client(1),
            resolver: ResolverId::Dns114.address(),
            query: "v5.tiktokcdn.com".into(),
            ts: SimTime::from_secs(10 * 3600 - 2),
            response_ms: Some(100.0),
            answers: vec![],
        }];
        let flows = vec![flow(client(1), L7Protocol::TlsHttps, 100, 10, 10, Some("v5.tiktokcdn.com"))];
        let t = table_cdn_selection(&flows, &dns, &enrichment(), Country::ALL.as_ref(), 1);
        assert_eq!(t.rows.len(), 1);
        let (sld, c, r, rtt, n) = &t.rows[0];
        assert_eq!(sld, "tiktokcdn.com");
        assert_eq!(*c, Country::Congo);
        assert_eq!(*r, ResolverId::Dns114);
        assert!((rtt - 12.0).abs() < 1e-9);
        assert_eq!(*n, 1);
        // flows without a matching lookup are skipped
        let t2 = table_cdn_selection(
            &[flow(client(2), L7Protocol::TlsHttps, 1, 1, 1, Some("unseen.example"))],
            &dns,
            &enrichment(),
            Country::ALL.as_ref(),
            1,
        );
        assert!(t2.rows.is_empty());
        // stale lookups (older than the freshness window) are skipped
        let t3 = table_cdn_selection(
            &[flow(client(1), L7Protocol::TlsHttps, 100, 10, 12, Some("v5.tiktokcdn.com"))],
            &dns,
            &enrichment(),
            Country::ALL.as_ref(),
            1,
        );
        assert!(t3.rows.is_empty(), "2-hour-old lookup must not attribute");
    }

    #[test]
    fn fig11_filters_small_flows() {
        let mut big = flow(client(1), L7Protocol::TlsHttps, 20_000_000, 100, 13, None);
        big.last = big.first + SimDuration::from_secs(16); // 10 Mb/s
        let small = flow(client(1), L7Protocol::TlsHttps, 1_000_000, 100, 13, None);
        let f = fig11(&[big, small], &enrichment(), &[Country::Congo]);
        let (_, cdf, night, peak) = f.row(Country::Congo).unwrap();
        assert_eq!(cdf.count, 1, "small flow excluded");
        assert!((cdf.quantile(0.5) - 10.0).abs() < 0.1);
        assert!(night.is_none());
        assert!(peak.is_some());
    }

    #[test]
    fn night_peak_windows() {
        assert!(is_night(2) && is_night(4) && !is_night(5) && !is_night(1));
        assert!(is_peak(13) && is_peak(19) && !is_peak(20) && !is_peak(12));
    }
}
