//! Columnar analytics engine: every paper table/figure as a fold over
//! a [`FlowFrame`], filled together by the fused [`report_all`] sweep
//! (or, frame by frame, by [`ReportFold`]) — the one way in.
//!
//! Each figure is an accumulator with two operations — `absorb` a
//! row, `finish` into the typed report — and rows are absorbed in
//! order, on the calling thread. The byte-equivalence contract with
//! the record-based `agg` functions rests on three facts (DESIGN.md
//! §10):
//!
//! 1. integer tallies are exact, so a frame boundary anywhere in the
//!    row sequence changes no total;
//! 2. every `f64` collection is filled in row order, the record
//!    path's observation order, before any order-sensitive step
//!    (weighted-CDF tie handling, the CDN mean's incremental sum);
//! 3. map-iteration-order differences between the paths are absorbed
//!    by finishers that sort (`Cdf`, `BoxplotSummary`, row sorts on
//!    unique keys) before rendering.
//!
//! The fused sweep exists because the record path reads the ~250-byte
//! `FlowRecord` once *per figure*; [`report_all`] reads each hot
//! column once, total, and resolves no hash lookups or pattern
//! matches at all — they were paid once at frame build.

use crate::agg::{self, CustomerDay, Enrichment, THROUGHPUT_MIN_BYTES};
use crate::classify::second_level_domain;
use crate::frame::{FlowFrame, FrameBuilder, NO_BEAM, NO_CATEGORY, NO_COUNTRY, NO_DOMAIN};
use crate::report::*;
use satwatch_internet::ResolverId;
use satwatch_monitor::{DnsRecord, Domain, L7Protocol};
use satwatch_simcore::{FxHashMap, SimDuration, SimTime};
use satwatch_traffic::{Category, Country};
use std::collections::hash_map::Entry;
use std::net::Ipv4Addr;

const N_PROTO: usize = L7Protocol::ALL.len();
const N_COUNTRY: usize = Country::ALL.len();

/// Shared context of the fold: the enrichment tables and the country
/// selection. Genuinely per-figure inputs (the Fig 6 service list, the
/// Table 2 DNS log and flow floor) stay explicit parameters.
#[derive(Clone, Copy)]
pub struct ReportCtx<'a> {
    pub enrichment: &'a Enrichment,
    pub countries: &'a [Country],
}

// ---------------------------------------------------------------- Table 1

#[derive(Default)]
struct Table1Acc {
    by: [u64; N_PROTO],
    total: u64,
}

impl Table1Acc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize) {
        let b = fr.flow_bytes(i);
        self.by[fr.l7[i] as usize] += b;
        self.total += b;
    }

    fn finish(self) -> Table1 {
        let rows = L7Protocol::ALL
            .into_iter()
            .map(|p| (p, 100.0 * self.by[p.index()] as f64 / self.total.max(1) as f64))
            .collect();
        Table1 { rows }
    }
}

// ---------------------------------------------------------------- Figure 2

#[derive(Default)]
struct Fig2Acc {
    vol: [u64; N_COUNTRY],
    total: u64,
}

impl Fig2Acc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize) {
        let ci = fr.country[i];
        if ci != NO_COUNTRY {
            let b = fr.flow_bytes(i);
            self.vol[ci as usize] += b;
            self.total += b;
        }
    }

    fn finish(self, enr: &Enrichment) -> Fig2 {
        let total_customers = enr.country_of.len();
        let mut rows: Vec<(Country, f64, f64, f64)> = Country::ALL
            .into_iter()
            .map(|c| {
                let v = self.vol[c.index()];
                let customers = enr.customers_in(c);
                let mb_per_day = if customers == 0 || enr.days == 0 {
                    0.0
                } else {
                    v as f64 / 1e6 / customers as f64 / enr.days as f64
                };
                (
                    c,
                    100.0 * v as f64 / self.total.max(1) as f64,
                    100.0 * customers as f64 / total_customers.max(1) as f64,
                    mb_per_day,
                )
            })
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        Fig2 { rows }
    }
}

// ---------------------------------------------------------------- Figure 3

struct Fig3Acc {
    vol: [[u64; N_PROTO]; N_COUNTRY],
    seen: [bool; N_COUNTRY],
}

impl Default for Fig3Acc {
    fn default() -> Self {
        Fig3Acc { vol: [[0; N_PROTO]; N_COUNTRY], seen: [false; N_COUNTRY] }
    }
}

impl Fig3Acc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize) {
        let ci = fr.country[i];
        if ci != NO_COUNTRY {
            self.vol[ci as usize][fr.l7[i] as usize] += fr.flow_bytes(i);
            self.seen[ci as usize] = true;
        }
    }

    fn finish(self) -> Fig3 {
        // `agg::fig3` sorts its rows by `Country::ALL` position, which
        // is exactly the order this emits.
        let rows = Country::ALL
            .into_iter()
            .filter(|c| self.seen[c.index()])
            .map(|c| {
                let protos = &self.vol[c.index()];
                let total: u64 = protos.iter().sum();
                let shares = L7Protocol::ALL
                    .into_iter()
                    .map(|p| (p, 100.0 * protos[p.index()] as f64 / total.max(1) as f64))
                    .collect();
                (c, shares)
            })
            .collect();
        Fig3 { rows }
    }
}

// ---------------------------------------------------------------- Figure 4

struct Fig4Acc {
    by: [[u64; 24]; N_COUNTRY],
    seen: [bool; N_COUNTRY],
}

impl Default for Fig4Acc {
    fn default() -> Self {
        Fig4Acc { by: [[0; 24]; N_COUNTRY], seen: [false; N_COUNTRY] }
    }
}

impl Fig4Acc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize) {
        let ci = fr.country[i];
        if ci != NO_COUNTRY {
            self.by[ci as usize][fr.hour_utc[i] as usize] += fr.flow_bytes(i);
            self.seen[ci as usize] = true;
        }
    }

    fn finish(self) -> Fig4 {
        let rows = Country::ALL
            .into_iter()
            .filter(|c| self.seen[c.index()])
            .map(|c| {
                let bytes = &self.by[c.index()];
                let max = bytes.iter().copied().max().unwrap_or(0).max(1) as f64;
                let mut prof = [0.0; 24];
                for (p, b) in prof.iter_mut().zip(bytes) {
                    *p = *b as f64 / max;
                }
                (c, prof)
            })
            .collect();
        Fig4 { rows }
    }
}

// ------------------------------------------------- customer-days (Fig 5–7)

const N_CATEGORY: usize = Category::ALL.len();
// `DayCell::cats_seen` is one bit per category
const _: () = assert!(N_CATEGORY <= u16::BITS as usize);

/// One customer-day while a frame is being swept: plain integers and
/// the frame's own category / service indices. It becomes a
/// [`CustomerDay`] — hash map, hash set, `&'static str`s — once, when
/// the frame's sweep is over, not once per flow.
#[derive(Default)]
struct DayCell {
    flows: u64,
    down: u64,
    up: u64,
    cat_bytes: [u64; N_CATEGORY],
    /// Bit `c` set = a flow of category `c` was seen (its bytes may
    /// still sum to zero, and `CustomerDay` keeps such an entry).
    cats_seen: u16,
    /// Bit `s` (word `s / 64`) set = `FlowFrame::service` index `s`
    /// was seen; grows to the highest index seen.
    services: Vec<u64>,
}

#[derive(Default)]
struct DaysAcc {
    cells: FxHashMap<(Ipv4Addr, u32), DayCell>,
}

impl DaysAcc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize) {
        let e = self.cells.entry((fr.client[i], fr.day[i])).or_default();
        e.flows += 1;
        e.down += fr.bytes_down[i];
        e.up += fr.bytes_up[i];
        let cat = fr.category[i];
        if cat != NO_CATEGORY {
            e.cat_bytes[cat as usize] += fr.flow_bytes(i);
            e.cats_seen |= 1 << cat;
            let s = fr.service[i] as usize;
            if e.services.len() <= s / 64 {
                e.services.resize(s / 64 + 1, 0);
            }
            e.services[s / 64] |= 1 << (s % 64);
        }
    }

    /// Resolve the cells of a sweep over `fr` into [`CustomerDay`]s.
    fn finish(self, fr: &FlowFrame) -> CustomerDays {
        self.cells
            .into_iter()
            .map(|((client, day), cell)| {
                let cd = CustomerDay {
                    flows: cell.flows,
                    down: cell.down,
                    up: cell.up,
                    by_category: (0..N_CATEGORY)
                        .filter(|c| cell.cats_seen & (1 << c) != 0)
                        .map(|c| (Category::ALL[c], cell.cat_bytes[c]))
                        .collect(),
                    services: (0..cell.services.len() * 64)
                        .filter(|s| cell.services[s / 64] & (1 << (s % 64)) != 0)
                        .map(|s| fr.services[s])
                        .collect(),
                };
                ((client, u64::from(day)), cd)
            })
            .collect()
    }
}

/// The customer-day rollup behind Figures 5–7: [`agg::customer_days`]
/// rebuilt from the frame's pre-resolved category/service columns.
type CustomerDays = FxHashMap<(Ipv4Addr, u64), CustomerDay>;

/// Add the customer-days of a later frame. Every field is an exact
/// sum or a set union, so a customer-day split across frames ends up
/// as if one sweep had seen it whole.
fn merge_customer_days(days: &mut CustomerDays, later: CustomerDays) {
    for (k, cd) in later {
        match days.entry(k) {
            Entry::Occupied(mut e) => e.get_mut().absorb(cd),
            Entry::Vacant(e) => {
                e.insert(cd);
            }
        }
    }
}

// --------------------------------------------------------------- Figure 8a

struct Fig8aAcc {
    night: [Vec<f64>; N_COUNTRY],
    peak: [Vec<f64>; N_COUNTRY],
}

impl Default for Fig8aAcc {
    fn default() -> Self {
        Fig8aAcc { night: std::array::from_fn(|_| Vec::new()), peak: std::array::from_fn(|_| Vec::new()) }
    }
}

impl Fig8aAcc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize) {
        let ci = fr.country[i];
        let rtt = fr.sat_rtt_ms[i];
        if ci == NO_COUNTRY || rtt.is_nan() {
            return;
        }
        let h = u32::from(fr.local_hour[i]);
        if agg::is_night(h) {
            self.night[ci as usize].push(rtt / 1e3);
        } else if agg::is_peak(h) {
            self.peak[ci as usize].push(rtt / 1e3);
        }
    }

    fn finish(self, countries: &[Country]) -> Fig8a {
        let rows = countries
            .iter()
            .filter_map(|c| {
                let n = &self.night[c.index()];
                let p = &self.peak[c.index()];
                if n.is_empty() || p.is_empty() {
                    return None;
                }
                Some((*c, satwatch_simcore::stats::Cdf::from_values(n), satwatch_simcore::stats::Cdf::from_values(p)))
            })
            .collect();
        Fig8a { rows }
    }
}

// --------------------------------------------------------------- Figure 8b

#[derive(Default)]
struct Fig8bAcc {
    samples: FxHashMap<u16, Vec<f64>>,
}

impl Fig8bAcc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize) {
        let rtt = fr.sat_rtt_ms[i];
        if fr.country[i] == NO_COUNTRY || rtt.is_nan() || fr.beam[i] == NO_BEAM {
            return;
        }
        if agg::is_peak(u32::from(fr.local_hour[i])) {
            self.samples.entry(fr.beam[i]).or_default().push(rtt / 1e3);
        }
    }

    fn finish(self, enr: &Enrichment) -> Fig8b {
        let max_util = enr.beams.iter().map(|b| b.peak_utilization).fold(0.0f64, f64::max).max(1e-9);
        let mut rows = Vec::new();
        for (beam, mut v) in self.samples {
            // as `agg::fig8b`: a beam the enrichment does not describe has no row
            let Some(info) = enr.beams.get(beam as usize) else { continue };
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = v[v.len() / 2];
            rows.push((info.name.clone(), info.country, info.peak_utilization / max_util, median, v.len()));
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        Fig8b { rows }
    }
}

// ---------------------------------------------------------------- Figure 9

struct Fig9Acc {
    samples: [Vec<(f64, f64)>; N_COUNTRY],
}

impl Default for Fig9Acc {
    fn default() -> Self {
        Fig9Acc { samples: std::array::from_fn(|_| Vec::new()) }
    }
}

impl Fig9Acc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize) {
        let ci = fr.country[i];
        if ci == NO_COUNTRY || fr.ground_rtt_samples[i] == 0 {
            return;
        }
        // row order, which `Cdf::from_weighted` relies on for
        // tie-group weight sums
        self.samples[ci as usize].push((fr.ground_rtt_avg[i], fr.flow_bytes(i) as f64));
    }

    fn finish(self, countries: &[Country]) -> Fig9 {
        let rows = countries
            .iter()
            .filter_map(|c| {
                let v = &self.samples[c.index()];
                if v.is_empty() {
                    return None;
                }
                let cdf = satwatch_simcore::stats::Cdf::from_weighted(v);
                let med = cdf.quantile(0.5);
                Some((*c, cdf, med))
            })
            .collect();
        Fig9 { rows }
    }
}

// --------------------------------------------------------------- Figure 11

struct Fig11Acc {
    all: [Vec<f64>; N_COUNTRY],
    night: [Vec<f64>; N_COUNTRY],
    peak: [Vec<f64>; N_COUNTRY],
}

impl Default for Fig11Acc {
    fn default() -> Self {
        Fig11Acc {
            all: std::array::from_fn(|_| Vec::new()),
            night: std::array::from_fn(|_| Vec::new()),
            peak: std::array::from_fn(|_| Vec::new()),
        }
    }
}

impl Fig11Acc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize) {
        let ci = fr.country[i];
        if ci == NO_COUNTRY || fr.bytes_down[i] < THROUGHPUT_MIN_BYTES {
            return;
        }
        let mbps = fr.down_bps[i] / 1e6;
        if mbps <= 0.0 {
            return;
        }
        self.all[ci as usize].push(mbps);
        let h = u32::from(fr.local_hour[i]);
        if agg::is_night(h) {
            self.night[ci as usize].push(mbps);
        } else if agg::is_peak(h) {
            self.peak[ci as usize].push(mbps);
        }
    }

    fn finish(self, countries: &[Country]) -> Fig11 {
        use satwatch_simcore::stats::{BoxplotSummary, Cdf};
        let rows = countries
            .iter()
            .filter_map(|c| {
                let v = &self.all[c.index()];
                if v.is_empty() {
                    return None;
                }
                Some((
                    *c,
                    Cdf::from_values(v),
                    BoxplotSummary::from_values(&self.night[c.index()]),
                    BoxplotSummary::from_values(&self.peak[c.index()]),
                ))
            })
            .collect();
        Fig11 { rows }
    }
}

// ------------------------------------------------------- Table 2 (DNS join)

/// "This domain is never looked up" in [`CdnJoin::names_of`].
const NO_NAME: u32 = u32::MAX;

/// DNS side of the Table 2 join: `(client, query name)` → lookups in
/// `ts` order, exactly as `agg::table_cdn_selection` builds it from
/// the whole log, with every distinct query name replaced by a small
/// id. It grows a DNS record at a time, so the log can arrive in
/// pieces and no record is kept once absorbed.
#[derive(Default)]
struct CdnJoin {
    /// Query name → name id, in first-seen order.
    names: FxHashMap<Domain, u32>,
    /// Second-level domain of each name, by name id (the Table 2 row
    /// label), as an index into `slds`.
    sld_of: Vec<u32>,
    sld_ids: FxHashMap<String, u32>,
    slds: Vec<String>,
    /// Each list is what a stable sort by `ts` of the concatenated
    /// log gives: a record goes after every earlier one with a `ts` at
    /// or before its own.
    lookups: FxHashMap<(Ipv4Addr, u32), Vec<(SimTime, ResolverId)>>,
}

impl CdnJoin {
    fn absorb(&mut self, d: &DnsRecord) {
        let r = ResolverId::from_address(d.resolver).unwrap_or(ResolverId::Other);
        let name = match self.names.get(&d.query) {
            Some(&name) => name,
            None => {
                let name = self.names.len() as u32;
                self.names.insert(d.query.clone(), name);
                let next_sld = self.slds.len() as u32;
                let sld = *self.sld_ids.entry(second_level_domain(&d.query)).or_insert_with_key(|sld| {
                    self.slds.push(sld.clone());
                    next_sld
                });
                self.sld_of.push(sld);
                name
            }
        };
        let v = self.lookups.entry((d.client, name)).or_default();
        v.insert(v.partition_point(|(t, _)| *t <= d.ts), (d.ts, r));
    }

    /// Resolve a frame's domain dictionary against the join, once:
    /// the name id of each dictionary code, or [`NO_NAME`]. After
    /// this the sweep looks at no domain string at all. A name the
    /// join has not seen yet has no lookup at or before any row of
    /// the frame (the DNS-first rule of [`ReportFold`]).
    fn names_of(&self, fr: &FlowFrame) -> Vec<u32> {
        fr.domains.iter().map(|d| self.names.get(d).copied().unwrap_or(NO_NAME)).collect()
    }
}

/// What one frame's sweep reads besides the frame: the DNS join, the
/// frame's dictionary resolved against it, and the country selection
/// as a table.
struct SweepCtx<'a> {
    fr: &'a FlowFrame,
    join: &'a CdnJoin,
    /// [`CdnJoin::names_of`] this frame.
    names: Vec<u32>,
    selected: [bool; N_COUNTRY],
}

impl<'a> SweepCtx<'a> {
    fn new(fr: &'a FlowFrame, join: &'a CdnJoin, countries: &[Country]) -> SweepCtx<'a> {
        let mut selected = [false; N_COUNTRY];
        for c in countries {
            selected[c.index()] = true;
        }
        SweepCtx { fr, join, names: join.names_of(fr), selected }
    }
}

/// Freshness window for attributing a flow to a DNS lookup (30 s, as
/// in the record path).
const CDN_FRESH: SimDuration = SimDuration::from_secs(30);

#[derive(Default)]
struct CdnAcc {
    /// Per-key `(sum, count)` of RTT observations, keyed by
    /// `(second-level-domain id, country index, resolver)`: a running
    /// sum from `0.0` in row order, as the record path keeps it.
    acc: FxHashMap<(u32, u8, ResolverId), (f64, usize)>,
}

impl CdnAcc {
    fn absorb(&mut self, cx: &SweepCtx<'_>, i: usize) {
        let fr = cx.fr;
        let (ci, d) = (fr.country[i], fr.domain[i]);
        if ci == NO_COUNTRY || d == NO_DOMAIN || !cx.selected[ci as usize] || fr.ground_rtt_samples[i] == 0 {
            return;
        }
        let name = cx.names[d as usize];
        if name == NO_NAME {
            return;
        }
        let Some(entries) = cx.join.lookups.get(&(fr.client[i], name)) else {
            return;
        };
        let idx = entries.partition_point(|(t, _)| *t <= fr.first[i]);
        if idx == 0 {
            return;
        }
        let (ts, r) = entries[idx - 1];
        if fr.first[i] - ts > CDN_FRESH {
            return; // stale: likely a different device's lookup
        }
        let (sum, n) = self.acc.entry((cx.join.sld_of[name as usize], ci, r)).or_insert((0.0, 0));
        *sum += fr.ground_rtt_avg[i];
        *n += 1;
    }

    /// Table 2 at the floor `min_flows`; the accumulator stays, so
    /// one sweep gives the table at any number of floors.
    fn table(&self, join: &CdnJoin, min_flows: usize) -> TableCdnSelection {
        let mut rows: Vec<(String, Country, ResolverId, f64, usize)> = self
            .acc
            .iter()
            .filter(|(_, (_, n))| *n >= min_flows)
            .map(|(&(sld, ci, r), &(sum, n))| {
                (join.slds[sld as usize].clone(), Country::ALL[ci as usize], r, sum / n as f64, n)
            })
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        TableCdnSelection { rows }
    }
}

// ------------------------------------------------------------ fused sweep

/// All paper outputs at once — the result of one fused frame sweep.
#[derive(Clone, Debug)]
pub struct PaperReports {
    pub table1: Table1,
    pub fig2: Fig2,
    pub fig3: Fig3,
    pub fig4: Fig4,
    pub fig5: Fig5,
    pub fig6: Fig6,
    pub fig7: Fig7,
    pub fig8a: Fig8a,
    pub fig8b: Fig8b,
    pub fig9: Fig9,
    pub fig10: Fig10,
    pub table2: TableCdnSelection,
    pub fig11: Fig11,
}

impl PaperReports {
    /// Every report rendered in the CLI `report` command's order.
    /// `fnv1a(render_all())` is the cross-mode report digest.
    pub fn render_all(&self) -> String {
        [
            self.table1.render(),
            self.fig2.render(),
            self.fig3.render(),
            self.fig4.render(),
            self.fig5.render(),
            self.fig6.render(),
            self.fig7.render(),
            self.fig8a.render(),
            self.fig8b.render(),
            self.fig9.render(),
            self.fig10.render(),
            self.table2.render(),
            self.fig11.render(),
        ]
        .join("\n")
    }
}

/// The whole-sweep accumulator: one `absorb` touches every figure's
/// state, so a single pass over the columns fills the lot. (The
/// customer-day cells are not in here: they are frame-local, see
/// [`ReportFold`].)
#[derive(Default)]
struct MegaAcc {
    table1: Table1Acc,
    fig2: Fig2Acc,
    fig3: Fig3Acc,
    fig4: Fig4Acc,
    fig8a: Fig8aAcc,
    fig8b: Fig8bAcc,
    fig9: Fig9Acc,
    fig11: Fig11Acc,
    cdn: CdnAcc,
}

impl MegaAcc {
    fn absorb(&mut self, cx: &SweepCtx<'_>, i: usize) {
        let fr = cx.fr;
        self.table1.absorb(fr, i);
        self.fig2.absorb(fr, i);
        self.fig3.absorb(fr, i);
        self.fig4.absorb(fr, i);
        self.fig8a.absorb(fr, i);
        self.fig8b.absorb(fr, i);
        self.fig9.absorb(fr, i);
        self.fig11.absorb(fr, i);
        self.cdn.absorb(cx, i);
    }
}

/// Fill every paper output in a single fused sweep over the frame
/// (plus one pass over the DNS log for Fig 10 and the Table 2 join).
/// Byte-identical to running the record-based `agg` functions one by
/// one over the same flows in frame-row order.
pub fn report_all(
    fr: &FlowFrame,
    dns: &[DnsRecord],
    ctx: ReportCtx<'_>,
    services: &[&'static str],
    min_flows: usize,
) -> PaperReports {
    let _span = satwatch_telemetry::span("analytics_report_all_us");
    let mut fold = ReportFold::new(ctx);
    fold.absorb_dns(dns, SimTime::MAX);
    fold.absorb_sealed(fr, 0);
    fold.finish(services, min_flows)
}

// ------------------------------------------------------- incremental fold

/// Rows a sealing run gathers before its [`ReportFold`] absorbs them.
/// A sweep has costs of its own (resolving the frame's dictionary
/// against the DNS join, turning customer-day cells into
/// [`CustomerDay`]s); gathering the sealed rows keeps them off the
/// per-sweep path.
pub const FOLD_ROWS: usize = 8_192;

/// [`report_all`] split into absorb/finish so neither the frame nor
/// the DNS log has to exist in one piece: `report` and the campaign
/// engine hand over the DNS records and the rows the probe seals as
/// the run goes (a resumed campaign first re-scans the segments it
/// sealed before), and both finish into the same [`PaperReports`] the
/// all-in-RAM sweep produces.
///
/// Byte-identity argument: the fold is one accumulator that absorbs
/// rows in order, and a frame boundary is not an event for it — the
/// integer tallies and the `f64` collections after frames `A` then `B`
/// are those after one frame `A ++ B`. Day-major concatenation of
/// canonically sorted day-frames *is* the canonical global order (the
/// sort key leads with `first`), so every rendered report is
/// bit-identical to `report_all` over the concatenated frame.
///
/// The DNS side is built the same way: [`absorb_dns`](Self::absorb_dns)
/// grows the Table 2 join and Fig 10's tallies, and a join list is
/// the stable `ts` sort of the pieces' concatenation whatever the cuts.
/// The one rule between the two streams — **DNS first** — is that a
/// row is absorbed only after every DNS record with `ts ≤ first`: the
/// row's join reads those lookups once and never again. The fold keeps
/// the rule itself. Each DNS piece comes with the mark it was sealed
/// at, and rows come sealed behind the flow mark alone; the fold
/// absorbs the rows behind the DNS mark and holds the rest — the rows
/// of frames already handed over, and an offset into the open one —
/// until a DNS piece moves the mark past them. Debug builds check the
/// rule.
///
/// What is frame-local never crosses a frame boundary: domain codes
/// are resolved to the join's name ids per frame, and the
/// customer-day cells (frame-local service indices) are resolved to
/// [`CustomerDay`]s at the end of each frame's sweep.
pub struct ReportFold<'a> {
    acc: MegaAcc,
    days: CustomerDays,
    join: CdnJoin,
    fig10: agg::Fig10Acc,
    ctx: ReportCtx<'a>,
    /// Every DNS record before it has been absorbed.
    dns_mark: SimTime,
    /// Rows of frames handed over before the DNS mark passed them, in
    /// canonical order; every one comes before the open frame's rows.
    carried: Vec<FlowFrame>,
    /// Rows of the open frame absorbed so far.
    folded: usize,
    /// The latest `first` absorbed: a DNS record at or before it comes
    /// too late (the debug check of the DNS-first rule).
    rows_through: Option<SimTime>,
}

impl<'a> ReportFold<'a> {
    /// An empty fold; DNS records and frames stream in afterwards.
    pub fn new(ctx: ReportCtx<'a>) -> ReportFold<'a> {
        ReportFold {
            acc: MegaAcc::default(),
            days: CustomerDays::default(),
            join: CdnJoin::default(),
            fig10: agg::Fig10Acc::default(),
            ctx,
            dns_mark: SimTime::ZERO,
            carried: Vec::new(),
            folded: 0,
            rows_through: None,
        }
    }

    /// Absorb the next piece of the DNS log (pieces in log order),
    /// sealed at `mark`: with it, every DNS record before `mark` is in
    /// ([`SimTime::MAX`] for the log's last piece). The Table 2 join
    /// and Fig 10 grow by it, and nothing of it is kept beyond that.
    pub fn absorb_dns(&mut self, dns: &[DnsRecord], mark: SimTime) {
        debug_assert!(
            self.rows_through.is_none_or(|t| dns.iter().all(|d| d.ts > t)),
            "a DNS record at or before an absorbed row (first {:?}) came after it: absorb DNS first",
            self.rows_through
        );
        for d in dns {
            self.join.absorb(d);
            self.fig10.absorb(d, self.ctx.enrichment);
        }
        self.dns_mark = self.dns_mark.max(mark);
    }

    /// Absorb the rows behind the DNS mark: the carried ones first,
    /// then those of the open frame `open` — rows sealed behind the
    /// flow mark, in canonical order, the frame growing between calls
    /// — once at least `min_rows` of these are waiting.
    pub fn absorb_sealed(&mut self, open: &FlowFrame, min_rows: usize) {
        if !self.absorb_carried() {
            return;
        }
        let behind = self.folded + open.first[self.folded..].partition_point(|&t| t < self.dns_mark);
        if behind > self.folded && behind - self.folded >= min_rows {
            self.absorb_rows(open, self.folded..behind);
            self.folded = behind;
        }
    }

    /// The open frame, the rows `builder` has sealed, is done with (a
    /// campaign wrote it as a segment, `report` gathered a batch):
    /// absorb what is behind the DNS mark, carry the rest, and clear
    /// the builder's sealed rows for the next open frame.
    pub fn hand_over(&mut self, builder: &mut FrameBuilder) {
        self.absorb_sealed(builder.sealed(), 0);
        if self.folded < builder.sealed().len() {
            self.carried.push(builder.take_sealed_from(self.folded));
        } else {
            builder.clear_sealed();
        }
        self.folded = 0;
    }

    /// Take in a frame sealed before the open one (a segment read
    /// back): absorb what is behind the DNS mark and carry the rest.
    pub fn carry(&mut self, fr: FlowFrame) {
        debug_assert_eq!(self.folded, 0, "carried rows come before the open frame's");
        self.carried.push(fr);
        self.absorb_carried();
    }

    /// Absorb the carried rows behind the DNS mark; `true` once none
    /// is left.
    fn absorb_carried(&mut self) -> bool {
        while !self.carried.is_empty() {
            let mut front = self.carried.remove(0);
            let behind = front.first.partition_point(|&t| t < self.dns_mark);
            self.absorb_rows(&front, 0..behind);
            if behind < front.len() {
                self.carried.insert(0, if behind > 0 { front.split_off(behind) } else { front });
                return false;
            }
        }
        true
    }

    /// Absorb the rows `rows` of `fr`: rows in canonical order across
    /// calls, each behind the DNS mark.
    fn absorb_rows(&mut self, fr: &FlowFrame, rows: std::ops::Range<usize>) {
        if rows.is_empty() {
            return;
        }
        let cx = SweepCtx::new(fr, &self.join, self.ctx.countries);
        let mut days = DaysAcc::default();
        for i in rows.clone() {
            self.acc.absorb(&cx, i);
            days.absorb(fr, i);
        }
        merge_customer_days(&mut self.days, days.finish(fr));
        self.rows_through = Some(fr.first[rows.end - 1]);
    }

    /// Table 2 at another flow floor than [`finish`](Self::finish)'s
    /// (the CSV export's), from the same accumulator.
    pub fn table2(&self, min_flows: usize) -> TableCdnSelection {
        self.acc.cdn.table(&self.join, min_flows)
    }

    /// Finish into the full report set — identical to
    /// [`report_all`] over the concatenation of the absorbed frames
    /// and DNS pieces.
    pub fn finish(self, services: &[&'static str], min_flows: usize) -> PaperReports {
        debug_assert!(self.carried.is_empty(), "the DNS log's last piece passes every row");
        let (enr, countries) = (self.ctx.enrichment, self.ctx.countries);
        let days = self.days;
        PaperReports {
            table1: self.acc.table1.finish(),
            fig2: self.acc.fig2.finish(enr),
            fig3: self.acc.fig3.finish(),
            fig4: self.acc.fig4.finish(),
            fig5: agg::fig5(&days, enr),
            fig6: agg::fig6(&days, enr, services, countries),
            fig7: agg::fig7(&days, enr, countries),
            fig8a: self.acc.fig8a.finish(countries),
            fig8b: self.acc.fig8b.finish(enr),
            fig9: self.acc.fig9.finish(countries),
            fig10: self.fig10.finish(countries),
            table2: self.acc.cdn.table(&self.join, min_flows),
            fig11: self.acc.fig11.finish(countries),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::BeamInfo;
    use crate::classify::Classifier;
    use crate::frame::NO_SERVICE;
    use proptest::prelude::*;
    use satwatch_monitor::record::RttSummary;
    use satwatch_monitor::FlowRecord;
    use satwatch_simcore::SimDuration;

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

    fn sample_flows() -> Vec<FlowRecord> {
        let mut flows = Vec::new();
        for i in 0..211u32 {
            let c = client(1 + (i % 3) as u8); // client 3 has no country
            let l7 = if i % 3 == 0 { L7Protocol::Quic } else { L7Protocol::TlsHttps };
            let domain = [Some("video.tiktokv.com"), None, Some("www.google.com"), None][i as usize % 4];
            let mut f = flow(c, l7, 1_000 + u64::from(i) * 7, 100 + u64::from(i), i % 24, domain);
            // distinct, inexact means: Table 2 sums them in row order
            f.ground_rtt.avg_ms = 9.0 + f64::from(i) * 0.37;
            if i % 5 == 0 {
                f.sat_rtt_ms = None;
            }
            if i % 7 == 0 {
                f.s2c_bytes = THROUGHPUT_MIN_BYTES + u64::from(i);
            }
            flows.push(f);
        }
        flows
    }

    fn sample_dns() -> Vec<DnsRecord> {
        (0..60u64)
            .map(|i| DnsRecord {
                client: client(1 + (i % 2) as u8),
                resolver: if i % 2 == 0 { ResolverId::Google.address() } else { ResolverId::OperatorEu.address() },
                query: "video.tiktokv.com".into(),
                ts: SimTime::from_secs(i * 600),
                response_ms: Some(20.0 + i as f64),
                answers: vec![],
            })
            .collect()
    }

    #[test]
    fn frame_figures_match_record_figures() {
        let flows = sample_flows();
        let dns = sample_dns();
        let enr = enrichment();
        let fr = FlowFrame::from_records(&flows, &enr);
        let days = agg::customer_days(&flows, &Classifier::standard());
        let top = [Country::Congo, Country::Spain];
        let services = ["Tiktok", "Google"];
        let ctx = ReportCtx { enrichment: &enr, countries: &top };
        let all = report_all(&fr, &dns, ctx, &services, 1);
        assert_eq!(format!("{:?}", agg::table1(&flows)), format!("{:?}", all.table1));
        assert_eq!(format!("{:?}", agg::fig2(&flows, &enr)), format!("{:?}", all.fig2));
        assert_eq!(format!("{:?}", agg::fig3(&flows, &enr)), format!("{:?}", all.fig3));
        assert_eq!(format!("{:?}", agg::fig4(&flows, &enr)), format!("{:?}", all.fig4));
        assert_eq!(format!("{:?}", agg::fig5(&days, &enr)), format!("{:?}", all.fig5));
        assert_eq!(format!("{:?}", agg::fig6(&days, &enr, &services, &top)), format!("{:?}", all.fig6));
        assert_eq!(format!("{:?}", agg::fig7(&days, &enr, &top)), format!("{:?}", all.fig7));
        assert_eq!(format!("{:?}", agg::fig8a(&flows, &enr, &top)), format!("{:?}", all.fig8a));
        assert_eq!(format!("{:?}", agg::fig8b(&flows, &enr)), format!("{:?}", all.fig8b));
        assert_eq!(format!("{:?}", agg::fig9(&flows, &enr, &top)), format!("{:?}", all.fig9));
        assert_eq!(format!("{:?}", agg::fig10(&dns, &enr, &top)), format!("{:?}", all.fig10));
        assert_eq!(format!("{:?}", agg::fig11(&flows, &enr, &top)), format!("{:?}", all.fig11));
        assert_eq!(format!("{:?}", agg::table_cdn_selection(&flows, &dns, &enr, &top, 1)), format!("{:?}", all.table2));
    }

    /// Table 2 at a second floor (the CSV export's) comes from the
    /// fused sweep's accumulator and is the fused sweep's Table 2 at
    /// that floor.
    #[test]
    fn fused_sweep_matches_individual_folds() {
        let flows = sample_flows();
        let dns = sample_dns();
        let enr = enrichment();
        let fr = FlowFrame::from_records(&flows, &enr);
        let top = [Country::Congo, Country::Spain];
        let ctx = ReportCtx { enrichment: &enr, countries: &top };
        let mut fold = ReportFold::new(ctx);
        fold.absorb_dns(&dns, SimTime::MAX);
        fold.absorb_sealed(&fr, 0);
        for floor in [1, 20] {
            let all = report_all(&fr, &dns, ctx, &["Tiktok", "Google"], floor);
            assert_eq!(format!("{:?}", all.table2), format!("{:?}", fold.table2(floor)));
            assert!(!all.render_all().is_empty());
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "absorb DNS first")]
    fn a_dns_record_behind_an_absorbed_row_is_caught_in_debug_builds() {
        let (flows, dns, enr) = (sample_flows(), sample_dns(), enrichment());
        let ctx = ReportCtx { enrichment: &enr, countries: &[Country::Congo] };
        let mut fold = ReportFold::new(ctx);
        // a mark that claims the log is in, and a late piece after all
        fold.absorb_dns(&[], SimTime::MAX);
        fold.carry(FlowFrame::from_records(&flows[..1], &enr));
        fold.absorb_dns(&dns, SimTime::MAX);
    }

    /// The same rows under another service numbering. A decoded
    /// segment carries its own service table, so the indices in
    /// `FlowFrame::service` mean something only beside that frame.
    fn renumber_services(fr: &mut FlowFrame) {
        let last = fr.services.len() as u16 - 1;
        fr.services.reverse();
        for s in fr.service.iter_mut().filter(|s| **s != NO_SERVICE) {
            *s = last - *s;
        }
    }

    proptest! {
        /// However the row sequence is cut into frames (1 to 6 of
        /// them, single-row frames included, every other one under its
        /// own service numbering), absorbing the frames in order
        /// finishes to the batch sweep over the whole, to the last bit
        /// of every float.
        #[test]
        fn incremental_fold_matches_batch_sweep(
            cuts in proptest::collection::btree_set(prop_oneof![1usize..211, 1usize..4, 208usize..211], 0..6),
        ) {
            let flows = sample_flows();
            let dns = sample_dns();
            let enr = enrichment();
            let top = [Country::Congo, Country::Spain];
            let services = ["Tiktok", "Google"];
            let ctx = ReportCtx { enrichment: &enr, countries: &top };
            let batch = report_all(&FlowFrame::from_records(&flows, &enr), &dns, ctx, &services, 1);
            let mut fold = ReportFold::new(ctx);
            fold.absorb_dns(&dns, SimTime::MAX);
            let mut start = 0;
            for (k, end) in cuts.iter().copied().chain([flows.len()]).enumerate() {
                let mut piece = FlowFrame::from_records(&flows[start..end], &enr);
                if k % 2 == 1 {
                    renumber_services(&mut piece);
                }
                fold.carry(piece);
                start = end;
            }
            let folded = fold.finish(&services, 1);
            prop_assert_eq!(format!("{folded:?}"), format!("{batch:?}"), "cuts {:?}", cuts);
            prop_assert_eq!(folded.render_all(), batch.render_all(), "cuts {:?}", cuts);
        }

        /// A DNS log in random order and a canonical frame, cut into
        /// random pieces and absorbed DNS first (every record at or
        /// before a row's `first` ahead of the row, other records
        /// early or late at random): Table 2 at both floors and Fig 10
        /// are the record path's over the whole log. The join lists
        /// are then the stable `ts` sort of the log, however the
        /// pieces fell.
        #[test]
        fn dns_first_pieces_fold_to_the_batch_join(
            log in proptest::collection::vec(
                (1u8..4, 0usize..3, 0u64..24, 0u64..140, 0usize..3, proptest::option::of(1.0f64..900.0)),
                0..90,
            ),
            dns_cuts in proptest::collection::btree_set(1usize..90, 0..12),
            row_cuts in proptest::collection::btree_set(1usize..211, 0..8),
            early in any::<u64>(),
        ) {
            let names = ["video.tiktokv.com", "www.google.com", "cdn.example.org"];
            let resolvers = [ResolverId::Google, ResolverId::OperatorEu, ResolverId::Cloudflare];
            let dns: Vec<DnsRecord> = log
                .iter()
                .map(|&(c, q, hour, back, r, response_ms)| DnsRecord {
                    client: client(c),
                    resolver: resolvers[r].address(),
                    query: names[q].into(),
                    ts: SimTime::from_secs((hour * 3600 + 100).saturating_sub(back)),
                    response_ms,
                    answers: vec![],
                })
                .collect();
            let mut flows = sample_flows();
            flows.sort_by_key(satwatch_monitor::flow_sort_key);
            let enr = enrichment();
            let top = [Country::Congo, Country::Spain];
            let ctx = ReportCtx { enrichment: &enr, countries: &top };
            // the log prefix a row needs: through its last record at or before `first`
            let need = |first: SimTime| dns.iter().rposition(|d| d.ts <= first).map_or(0, |k| k + 1);
            let mut dns_ends = dns_cuts.iter().copied().filter(|&k| k < dns.len()).chain([dns.len()]).peekable();
            let mut fold = ReportFold::new(ctx);
            let mut absorbed = 0;
            let mut start = 0;
            for (k, end) in row_cuts.iter().copied().chain([flows.len()]).enumerate() {
                let (need, extra) = (need(flows[end - 1].first), early >> (k % 64) & 1);
                let mut past_need = 0;
                while let Some(&to) = dns_ends.peek() {
                    if absorbed >= need {
                        if past_need == extra {
                            break;
                        }
                        past_need += 1;
                    }
                    dns_ends.next();
                    fold.absorb_dns(&dns[absorbed..to], SimTime::ZERO);
                    absorbed = to;
                }
                // every record at or before the frame's last row is in
                fold.absorb_dns(&[], flows[end - 1].first + SimDuration::from_nanos(1));
                fold.carry(FlowFrame::from_records(&flows[start..end], &enr));
                start = end;
            }
            fold.absorb_dns(&dns[absorbed..], SimTime::MAX);
            let csv = fold.table2(1);
            let folded = fold.finish(&["Tiktok"], 2);
            let oracle = |floor| format!("{:?}", agg::table_cdn_selection(&flows, &dns, &enr, &top, floor));
            prop_assert_eq!(format!("{csv:?}"), oracle(1));
            prop_assert_eq!(format!("{:?}", folded.table2), oracle(2));
            prop_assert_eq!(format!("{:?}", folded.fig10), format!("{:?}", agg::fig10(&dns, &enr, &top)));
        }

        /// The one fold, driven as `report` drives it. Each lookup is a
        /// DNS record and, `delay` seconds later (past the 30 s
        /// freshness window at times), maybe a flow to the name it
        /// asked for, on a half-hour grid over two days. The logs are
        /// sealed at rising flow and DNS marks drawn apart, so the DNS
        /// mark trails the flow mark as often as it leads it: each
        /// piece's DNS goes into the fold at its mark, its flows into a
        /// builder that seals behind the flow mark alone, and the open
        /// frame is handed over once `batch` rows wait — nothing is
        /// written. Table 2 at two floors is the record path's, Fig 10
        /// and the rendered text `report_all`'s over the whole. (The
        /// campaign drives the same fold through checkpoints, kills and
        /// prefix re-scans: `satwatch-campaign`'s
        /// `the_seal_time_fold_is_the_batch_fold`.)
        #[test]
        fn sealed_pieces_fold_to_the_batch_report(
            lookups in proptest::collection::vec(
                (0u64..96, 1u8..4, 0usize..3, 0usize..2, 0i64..40, any::<bool>()),
                0..160,
            ),
            steps in proptest::collection::vec((0u64..=96, 0u64..=96), 0..8),
            batch in 1usize..6,
        ) {
            const SLOT: u64 = 1_800;
            let names = ["video.tiktokv.com", "www.google.com", "cdn.example.org"];
            let resolvers = [ResolverId::Google, ResolverId::OperatorEu];
            let (mut flows, mut dns) = (Vec::new(), Vec::new());
            for (i, &(slot, c, q, r, delay, has_flow)) in lookups.iter().enumerate() {
                let ts = SimTime::from_secs(slot * SLOT);
                dns.push(DnsRecord {
                    client: client(c),
                    resolver: resolvers[r].address(),
                    query: names[q].into(),
                    ts,
                    response_ms: Some(i as f64),
                    answers: vec![],
                });
                if has_flow {
                    let mut f = flow(client(c), L7Protocol::TlsHttps, 1_000 + i as u64, 100, 0, Some(names[q]));
                    f.first = ts + SimDuration::from_secs(delay);
                    f.last = f.first + SimDuration::from_secs(5);
                    f.ground_rtt.avg_ms = 10.0 + i as f64 * 0.37;
                    flows.push(f);
                }
            }
            flows.sort_by_key(satwatch_monitor::flow_sort_key);
            dns.sort_by(satwatch_monitor::dns_cmp);
            let (mut flow_marks, mut dns_marks): (Vec<u64>, Vec<u64>) = steps.into_iter().unzip();
            flow_marks.sort_unstable();
            dns_marks.sort_unstable();
            let marks = flow_marks
                .iter()
                .zip(&dns_marks)
                .map(|(&f, &d)| (SimTime::from_secs(f * SLOT), SimTime::from_secs(d * SLOT)))
                .chain([(SimTime::MAX, SimTime::MAX)]);

            let enr = enrichment();
            let top = [Country::Congo, Country::Spain];
            let services = ["Tiktok", "Google"];
            let ctx = ReportCtx { enrichment: &enr, countries: &top };
            let mut builder = FrameBuilder::new(enr.clone());
            let mut fold = ReportFold::new(ctx);
            let (mut flows_sealed, mut dns_sealed) = (0, 0);
            for (flow_mark, dns_mark) in marks {
                // a seal at the marks: the records behind them that no
                // earlier seal took
                let to = flows_sealed + flows[flows_sealed..].partition_point(|f| f.first < flow_mark);
                flows[flows_sealed..to].iter().for_each(|f| builder.push(f));
                flows_sealed = to;
                builder.seal_behind(Some(flow_mark));
                let to = dns_sealed + dns[dns_sealed..].partition_point(|d| d.ts < dns_mark);
                fold.absorb_dns(&dns[dns_sealed..to], dns_mark);
                dns_sealed = to;
                if builder.sealed().len() >= batch || flow_mark == SimTime::MAX {
                    fold.hand_over(&mut builder);
                }
            }
            let csv = fold.table2(1);
            let folded = fold.finish(&services, 2);
            let oracle = |floor| format!("{:?}", agg::table_cdn_selection(&flows, &dns, &enr, &top, floor));
            prop_assert_eq!(format!("{csv:?}"), oracle(1));
            prop_assert_eq!(format!("{:?}", folded.table2), oracle(2));
            let batch_report = report_all(&FlowFrame::from_records(&flows, &enr), &dns, ctx, &services, 2);
            prop_assert_eq!(format!("{:?}", folded.fig10), format!("{:?}", batch_report.fig10));
            prop_assert_eq!(folded.render_all(), batch_report.render_all());
        }
    }
}
