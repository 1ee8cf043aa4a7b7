//! What is left of the per-experiment runners: the Fig 6 service list,
//! the two whole-report entry points — [`paper_reports_columnar`], the
//! frame fold every command runs, and [`paper_reports_records`], the
//! record-slice reference it is pinned to — and the sealed-run ablation
//! summary. The five per-figure wrappers stay only because `benchmark/`
//! calls them (DESIGN.md §10); nothing in `satwatch` does.

use crate::config::ScenarioConfig;
use crate::run::{run_sealed, Dataset};
use satwatch_analytics::agg::{self, Enrichment};
use satwatch_analytics::report::{Fig10, Fig11, Fig2, Fig9, Table1};
use satwatch_analytics::{Classifier, PaperReports};
use satwatch_monitor::{DnsRecord, FlowRecord, L7Protocol};
use satwatch_traffic::Country;
use std::ops::ControlFlow;

/// Table 2's threshold: a (country, CDN) cell needs this many flows.
/// Every command renders the report at it.
pub const MIN_FLOWS: usize = 10;

/// Table 2's threshold in `report --csv`'s `table2.csv`: the export
/// keeps the cells the rendered table drops for thin data.
pub const CSV_MIN_FLOWS: usize = 5;

/// The Fig 6 service subset (services the user intentionally visits).
pub const FIG6_SERVICES: [&str; 12] = [
    "Google",
    "Whatsapp",
    "Snapchat",
    "Wechat",
    "Telegram",
    "Instagram",
    "Tiktok",
    "Netflix",
    "Primevideo",
    "Sky",
    "Spotify",
    "Dropbox",
];

pub fn table1(ds: &Dataset) -> Table1 {
    agg::table1(&ds.flows)
}

pub fn fig2(ds: &Dataset) -> Fig2 {
    agg::fig2(&ds.flows, &ds.enrichment)
}

pub fn fig9(ds: &Dataset) -> Fig9 {
    agg::fig9(&ds.flows, &ds.enrichment, &Country::TOP6)
}

pub fn fig10(ds: &Dataset) -> Fig10 {
    agg::fig10(&ds.dns, &ds.enrichment, &Country::TOP6)
}

pub fn fig11(ds: &Dataset) -> Fig11 {
    agg::fig11(&ds.flows, &ds.enrichment, &Country::TOP6)
}

/// Every paper output from the record path — the slice-based reference
/// the columnar engine's `report_all` is pinned byte-identical to.
/// One `customer_days` rollup is shared by Figs 5–7 (the classifier
/// memoizes per interned domain handle, so repeated SNIs cost one
/// pattern scan each). `workers` is ignored: the reference is one
/// plain pass per figure.
pub fn paper_reports_records(
    flows: &[FlowRecord],
    dns: &[DnsRecord],
    enr: &Enrichment,
    min_flows: usize,
    _workers: usize,
) -> PaperReports {
    let classifier = Classifier::standard();
    let days = agg::customer_days(flows, &classifier);
    PaperReports {
        table1: agg::table1(flows),
        fig2: agg::fig2(flows, enr),
        fig3: agg::fig3(flows, enr),
        fig4: agg::fig4(flows, enr),
        fig5: agg::fig5(&days, enr),
        fig6: agg::fig6(&days, enr, &FIG6_SERVICES, &Country::TOP6),
        fig7: agg::fig7(&days, enr, &Country::TOP6),
        fig8a: agg::fig8a(flows, enr, &Country::TOP6),
        fig8b: agg::fig8b(flows, enr),
        fig9: agg::fig9(flows, enr, &Country::TOP6),
        fig10: agg::fig10(dns, enr, &Country::TOP6),
        table2: agg::table_cdn_selection(flows, dns, enr, &Country::TOP6, min_flows),
        fig11: agg::fig11(flows, enr, &Country::TOP6),
    }
}

/// The production path: frame + fused sweep, same outputs byte for
/// byte. `_workers` is ignored: the sweep runs on the calling thread,
/// and the parameter stays only because `benchmark/` calls this
/// signature (DESIGN.md §10).
pub fn paper_reports_columnar(
    fr: &satwatch_analytics::FlowFrame,
    dns: &[DnsRecord],
    enr: &Enrichment,
    min_flows: usize,
    _workers: usize,
) -> PaperReports {
    let ctx = satwatch_analytics::ReportCtx { enrichment: enr, countries: &Country::TOP6 };
    satwatch_analytics::report_all(fr, dns, ctx, &FIG6_SERVICES, min_flows)
}

/// Summary statistics for ablation comparisons.
#[derive(Clone, Copy, Debug, Default)]
pub struct AblationSummary {
    /// Median ground RTT of African customers' flows, ms.
    pub african_ground_rtt_ms: f64,
    /// Median DNS response time, ms.
    pub dns_median_ms: f64,
    /// Median satellite RTT, ms.
    pub sat_rtt_median_ms: f64,
    /// Mean time-to-first-data-byte over TLS flows, s.
    pub ttfb_s: f64,
}

/// Run `cfg` and summarise it from its sealed pieces as they arrive,
/// holding four value lists and no record. Pieces come in canonical
/// order, so every list — and the mean's `f64` sum — runs in the order
/// of [`run`](crate::run::run)'s flows.
pub fn ablation_summary(cfg: ScenarioConfig) -> AblationSummary {
    let (mut ground, mut dns_ms, mut sat, mut ttfb) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let run = run_sealed(cfg, None, |piece| {
        for f in &piece.flows {
            ground.extend((f.ground_rtt.samples > 0).then_some((f.client, f.ground_rtt.avg_ms)));
            sat.extend(f.sat_rtt_ms);
            let tls = f.l7 == L7Protocol::TlsHttps;
            ttfb.extend(f.s2c_data_first.filter(|_| tls).map(|t| (t - f.first).as_secs_f64()));
        }
        dns_ms.extend(piece.dns.iter().filter_map(|d| d.response_ms));
        ControlFlow::Continue(())
    });
    // a client's country is known once the run returns the enrichment
    let african = |client| run.enrichment.country(client).is_some_and(|c| c.is_african());
    let mut african_rtt: Vec<f64> = ground.into_iter().filter(|g| african(g.0)).map(|g| g.1).collect();
    african_rtt.sort_by(|a, b| a.partial_cmp(b).unwrap());
    dns_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    sat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let med = |v: &[f64]| if v.is_empty() { f64::NAN } else { v[v.len() / 2] };
    AblationSummary {
        african_ground_rtt_ms: med(&african_rtt),
        dns_median_ms: med(&dns_ms),
        sat_rtt_median_ms: med(&sat),
        ttfb_s: if ttfb.is_empty() { f64::NAN } else { ttfb.iter().sum::<f64>() / ttfb.len() as f64 },
    }
}
