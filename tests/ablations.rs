//! Ablation integration tests (DESIGN.md §1 "Experiment index"): the
//! design choices the paper discusses must move the measurements in
//! the predicted direction when toggled.

use satwatch::analytics::PaperReports;
use satwatch::scenario::experiments::{self, paper_reports_columnar, AblationSummary};
use satwatch::scenario::{run_streaming, ScenarioConfig};
use std::sync::OnceLock;

fn cfg() -> ScenarioConfig {
    ScenarioConfig::tiny().with_customers(150).with_seed(77)
}

/// The baseline every ablation is compared with, run once per binary.
fn base() -> &'static AblationSummary {
    static BASE: OnceLock<AblationSummary> = OnceLock::new();
    BASE.get_or_init(|| experiments::ablation_summary(cfg()))
}

/// The A2 scenario, shared by its two tests: summary and report fold.
fn forced() -> &'static (AblationSummary, PaperReports) {
    static FORCED: OnceLock<(AblationSummary, PaperReports)> = OnceLock::new();
    FORCED.get_or_init(|| {
        let cfg = cfg().with_forced_operator_dns();
        let cds = run_streaming(cfg);
        (experiments::ablation_summary(cfg), paper_reports_columnar(&cds.frame, &cds.dns, &cds.enrichment, 10, 1))
    })
}

#[test]
fn a3_pep_accelerates_connection_setup() {
    let base = base();
    let no_pep = experiments::ablation_summary(cfg().without_pep());
    // Without the split-TCP proxy, the TLS time-to-first-byte grows by
    // at least one extra satellite round trip (~0.6 s).
    assert!(no_pep.ttfb_s > base.ttfb_s + 0.4, "pep {:.2}s vs e2e {:.2}s", base.ttfb_s, no_pep.ttfb_s);
    // The satellite segment itself is untouched.
    assert!((no_pep.sat_rtt_median_ms - base.sat_rtt_median_ms).abs() < 200.0);
}

#[test]
fn a1_african_ground_station_cuts_african_ground_rtt() {
    let base = base();
    let af = experiments::ablation_summary(cfg().with_african_ground_station());
    assert!(
        af.african_ground_rtt_ms <= base.african_ground_rtt_ms,
        "African ground RTT must not get worse: {} vs {}",
        base.african_ground_rtt_ms,
        af.african_ground_rtt_ms
    );
    // satellite RTT unchanged: the bent pipe is the same
    assert!((af.sat_rtt_median_ms - base.sat_rtt_median_ms).abs() < 200.0);
}

#[test]
fn a2_forcing_operator_dns_speeds_resolution() {
    let base = base();
    let (forced, _) = forced();
    // The operator resolver answers in ~4 ms; the open-resolver mix in
    // tens-to-hundreds.
    assert!(
        forced.dns_median_ms < base.dns_median_ms,
        "forced {:.1} ms vs base {:.1} ms",
        forced.dns_median_ms,
        base.dns_median_ms
    );
    assert!(forced.dns_median_ms < 10.0, "{}", forced.dns_median_ms);
}

#[test]
fn a2_forcing_operator_dns_fixes_cdn_selection() {
    use satwatch::internet::ResolverId;
    let (f, reports) = forced();
    let f_forced = &reports.fig10;
    // All DNS traffic moves to the operator resolver.
    for c in satwatch::traffic::Country::TOP6 {
        let share = f_forced.share_of(ResolverId::OperatorEu, c).unwrap();
        assert!(share > 99.0, "{c:?}: {share}");
    }
    // And African customers' ground RTT improves on average (server
    // selection no longer confused by resolver location).
    let b = base();
    assert!(
        f.african_ground_rtt_ms <= b.african_ground_rtt_ms + 2.0,
        "base {} vs forced {}",
        b.african_ground_rtt_ms,
        f.african_ground_rtt_ms
    );
}
