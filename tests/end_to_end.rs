//! End-to-end integration tests: run a small scenario through the
//! full stack (population → packets → probe → analytics) and assert
//! the paper's *qualitative* findings hold. These are the invariants
//! EXPERIMENTS.md reports quantitatively at larger scale.

use satwatch::analytics::PaperReports;
use satwatch::monitor::L7Protocol;
use satwatch::scenario::experiments::paper_reports_columnar;
use satwatch::scenario::{run_streaming, ColumnarDataset, ScenarioConfig};
use satwatch::traffic::{Category, Country};
use std::sync::OnceLock;

/// One shared run and one report fold over it for all assertions (the
/// run is the expensive part).
fn fixture() -> &'static (ColumnarDataset, PaperReports) {
    static RUN: OnceLock<(ColumnarDataset, PaperReports)> = OnceLock::new();
    RUN.get_or_init(|| {
        let cds = run_streaming(ScenarioConfig::tiny().with_customers(260).with_seed(2022));
        let reports = paper_reports_columnar(&cds.frame, &cds.dns, &cds.enrichment, 10, 1);
        (cds, reports)
    })
}

fn dataset() -> &'static ColumnarDataset {
    &fixture().0
}

fn reports() -> &'static PaperReports {
    &fixture().1
}

#[test]
fn table1_web_dominates_and_quic_bypasses() {
    let t = &reports().table1;
    let https = t.share(L7Protocol::TlsHttps);
    let http = t.share(L7Protocol::Http);
    let quic = t.share(L7Protocol::Quic);
    // Paper Table 1: HTTPS 56 %, HTTP 12.1 %, QUIC 19.6 %.
    assert!((40.0..70.0).contains(&https), "https {https}");
    assert!((5.0..20.0).contains(&http), "http {http}");
    assert!((8.0..30.0).contains(&quic), "quic {quic}");
    assert!(https > quic && quic > t.share(L7Protocol::Rtp));
    assert!(t.share(L7Protocol::Dns) < 0.1, "DNS volume < 0.1 %");
    let total: f64 = t.rows.iter().map(|(_, s)| s).sum();
    assert!((total - 100.0).abs() < 1e-6);
}

#[test]
fn fig2_congo_dominates_volume_africa_outconsumes_europe() {
    let f = &reports().fig2;
    assert_eq!(f.rows[0].0, Country::Congo, "Congo generates the most volume");
    let congo = f.row(Country::Congo).unwrap();
    let spain = f.row(Country::Spain).unwrap();
    // volume share exceeds customer share in Congo; opposite in Spain
    assert!(congo.1 > congo.2, "Congo: volume% {} > customers% {}", congo.1, congo.2);
    assert!(spain.1 < spain.2, "Spain: volume% {} < customers% {}", spain.1, spain.2);
    // per-customer daily volume: Congo several times Spain (paper: 600 vs 170 MB)
    assert!(congo.3 > 2.0 * spain.3, "Congo {} MB vs Spain {} MB", congo.3, spain.3);
}

#[test]
fn fig3_germany_vpn_and_uk_http() {
    let f = &reports().fig3;
    let de_other = f.share(Country::Germany, L7Protocol::OtherTcp) + f.share(Country::Germany, L7Protocol::OtherUdp);
    let cd_other = f.share(Country::Congo, L7Protocol::OtherTcp) + f.share(Country::Congo, L7Protocol::OtherUdp);
    assert!(de_other > 1.5 * cd_other, "Germany non-web {de_other}% vs Congo {cd_other}%");
    // Ireland/UK HTTP above Congo's (Sky + Microsoft over plain HTTP)
    let uk_http = f.share(Country::Uk, L7Protocol::Http) + f.share(Country::Ireland, L7Protocol::Http);
    let cd_http = 2.0 * f.share(Country::Congo, L7Protocol::Http);
    assert!(uk_http > cd_http, "UK+IE http {uk_http} vs 2x CD {cd_http}");
}

#[test]
fn fig4_africa_peaks_in_the_morning_europe_in_the_evening() {
    let f = &reports().fig4;
    let congo = f.profile(Country::Congo).expect("Congo profile");
    let spain = f.profile(Country::Spain).expect("Spain profile");
    // Congo (UTC+1): morning block 7–11 UTC strong relative to night
    let cd_morning: f64 = (7..12).map(|h| congo[h]).sum();
    let cd_night: f64 = (0..5).map(|h| congo[h]).sum();
    assert!(cd_morning > 1.5 * cd_night, "morning {cd_morning} night {cd_night}");
    // Spain: evening block 16–21 UTC dominates its morning
    let es_evening: f64 = (16..22).map(|h| spain[h]).sum();
    let es_early: f64 = (0..6).map(|h| spain[h]).sum();
    assert!(es_evening > 1.5 * es_early, "evening {es_evening} early {es_early}");
}

#[test]
fn fig5_idle_knee_in_europe_heavy_tail_in_africa() {
    let f = &reports().fig5;
    // Europe: a large fraction of customer-days below 250 flows
    let es_low = 1.0 - f.ccdf(Country::Spain, 0, 250.0);
    assert!(es_low > 0.30, "Spain idle fraction {es_low}");
    // Africa: almost everyone above 250
    let cd_low = 1.0 - f.ccdf(Country::Congo, 0, 250.0);
    assert!(cd_low < 0.15, "Congo low-flow fraction {cd_low}");
    // African flow-count tail beyond Europe's
    assert!(
        f.ccdf(Country::Congo, 0, 2500.0) > f.ccdf(Country::Spain, 0, 2500.0),
        "African community APs inflate the tail"
    );
}

#[test]
fn fig6_service_popularity_matches_calibration() {
    let f = &reports().fig6;
    // WhatsApp huge everywhere; WeChat a Congo peculiarity
    let wa_cd = f.value("Whatsapp", Country::Congo).unwrap();
    assert!(wa_cd > 30.0, "{wa_cd}");
    let wc_cd = f.value("Wechat", Country::Congo).unwrap();
    let wc_es = f.value("Wechat", Country::Spain).unwrap();
    assert!(wc_cd > wc_es, "WeChat Congo {wc_cd} vs Spain {wc_es}");
    // paid video stronger in Europe than Congo
    let nf_ie = f.value("Netflix", Country::Ireland).unwrap();
    let nf_cd = f.value("Netflix", Country::Congo).unwrap();
    assert!(nf_ie > nf_cd, "Netflix IE {nf_ie} vs CD {nf_cd}");
}

#[test]
fn fig7_african_chat_orders_of_magnitude_above_europe() {
    let f = &reports().fig7;
    let cd = f.summary(Country::Congo, Category::Chat).expect("Congo chat");
    let es = f.summary(Country::Spain, Category::Chat).expect("Spain chat");
    assert!(cd.median > 8.0 * es.median, "chat medians: CD {} vs ES {}", cd.median, es.median);
    assert!(es.median < 40.0, "EU chat median stays small: {}", es.median);
    // audio: Europe above Africa
    let au_es = f.summary(Country::Spain, Category::Audio).expect("Spain audio");
    let au_cd = f.summary(Country::Congo, Category::Audio).expect("Congo audio");
    assert!(au_es.median > au_cd.median);
}

#[test]
fn fig8a_satellite_rtt_floor_and_congestion() {
    let f = &reports().fig8a;
    for (c, night, peak) in &f.rows {
        // physics: nothing below ~540 ms
        assert!(night.quantile(0.01) > 0.5, "{c:?} night p1 {}", night.quantile(0.01));
        assert!(peak.quantile(0.01) > 0.5);
    }
    let (_, cd_night, cd_peak) = f.row(Country::Congo).expect("congo");
    // Congo: heavy 2s tail, worse at peak
    assert!(cd_night.ccdf_at(2.0) > 0.05, "{}", cd_night.ccdf_at(2.0));
    assert!(cd_peak.quantile(0.5) >= cd_night.quantile(0.5) * 0.95);
    // Spain: clean channel (82 % below 1 s at night in the paper)
    let (_, es_night, _) = f.row(Country::Spain).expect("spain");
    assert!(es_night.at(1.0) > 0.75, "{}", es_night.at(1.0));
    // Ireland: the impairment tail is hour-independent (night medians
    // are noisy at this scale — few night flows from a second-home-heavy
    // population — so compare heavy-tail mass, not medians)
    let (_, ie_night, ie_peak) = f.row(Country::Ireland).expect("ireland");
    let (tn, tp) = (ie_night.ccdf_at(1.5), ie_peak.ccdf_at(1.5));
    assert!(tn > 0.05, "IE night tail {tn}");
    let ratio = (tn / tp.max(1e-6)).max(tp / tn.max(1e-6));
    assert!(ratio < 3.5, "IE night tail {tn} vs peak tail {tp}");
}

#[test]
fn fig8b_congested_beams_stand_out() {
    let f = &reports().fig8b;
    assert!(f.rows.len() >= 10, "all beams observed");
    let congo_med: f64 = f.rows.iter().filter(|r| r.1 == Country::Congo).map(|r| r.3).fold(0.0, f64::max);
    let spain_med: f64 = f.rows.iter().filter(|r| r.1 == Country::Spain).map(|r| r.3).fold(0.0, f64::max);
    assert!(congo_med > spain_med + 0.15, "Congo beams {congo_med} vs Spain {spain_med}");
    // normalised utilization: Congo at 1.0 (the most loaded beams)
    let max_util_country = f.rows.iter().max_by(|a, b| a.2.partial_cmp(&b.2).unwrap()).unwrap().1;
    assert_eq!(max_util_country, Country::Congo);
}

#[test]
fn fig9_african_ground_rtt_exceeds_european() {
    let f = &reports().fig9;
    let cd = f.row(Country::Congo).expect("congo").2;
    let es = f.row(Country::Spain).expect("spain").2;
    assert!(cd >= es, "Congo median ground RTT {cd} vs Spain {es}");
    // the African curves have mass beyond 100 ms that Spain lacks
    let (_, cd_cdf, _) = f.row(Country::Congo).unwrap();
    let (_, es_cdf, _) = f.row(Country::Spain).unwrap();
    assert!(cd_cdf.ccdf_at(100.0) > es_cdf.ccdf_at(100.0));
}

#[test]
fn fig10_resolver_landscape() {
    use satwatch::internet::ResolverId;
    let f = &reports().fig10;
    // Google dominates Congo; the operator resolver only matters in Europe
    let g_cd = f.share_of(ResolverId::Google, Country::Congo).unwrap();
    assert!(g_cd > 60.0, "{g_cd}");
    let op_ie = f.share_of(ResolverId::OperatorEu, Country::Ireland).unwrap();
    let op_cd = f.share_of(ResolverId::OperatorEu, Country::Congo).unwrap();
    assert!(op_ie > 5.0 * op_cd.max(0.5), "IE {op_ie} vs CD {op_cd}");
    // response times: operator fastest, Chinese resolvers slowest
    let op = f.median_of(ResolverId::OperatorEu).unwrap();
    let google = f.median_of(ResolverId::Google).unwrap();
    assert!(op < 8.0 && google > op, "op {op} google {google}");
    if let Some(baidu) = f.median_of(ResolverId::Baidu) {
        if !baidu.is_nan() {
            assert!(baidu > 200.0, "{baidu}");
        }
    }
    let nigerian = f.median_of(ResolverId::Nigerian).unwrap();
    assert!((60.0..250.0).contains(&nigerian), "Nigerian resolver RTT inflated to ~120 ms: {nigerian}");
}

#[test]
fn fig11_plan_caps_shape_throughput() {
    let f = &reports().fig11;
    let es = f.row(Country::Spain).expect("spain");
    let cd = f.row(Country::Congo).expect("congo");
    // Europe reaches tens of Mb/s; Africa rarely beats 10
    assert!(es.1.quantile(0.5) > 2.0 * cd.1.quantile(0.5), "ES {} vs CD {}", es.1.quantile(0.5), cd.1.quantile(0.5));
    assert!(es.1.ccdf_at(25.0) > 0.1, "some European flows near plan caps");
    assert!(cd.1.ccdf_at(25.0) < 0.05, "African plans cap at 10/30 Mb/s");
}

#[test]
fn dns_volume_is_negligible_but_transactions_are_many() {
    let ds = dataset();
    assert!(ds.dns.len() > 1_000);
    let answered = ds.dns.iter().filter(|d| d.response_ms.is_some()).count() as f64 / ds.dns.len() as f64;
    assert!(answered > 0.95, "answered fraction {answered}");
}

#[test]
fn satellite_rtt_only_measured_on_tls_flows() {
    let fr = &dataset().frame;
    let mut measured = 0;
    for i in (0..fr.len()).filter(|&i| fr.sat_rtt_at(i).is_some()) {
        assert_eq!(L7Protocol::ALL[fr.l7[i] as usize], L7Protocol::TlsHttps, "TLS-handshake estimator only");
        measured += 1;
    }
    assert!(measured > 1_000, "{measured} sat-RTT samples");
}
