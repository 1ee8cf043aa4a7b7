//! Reproducibility: the entire pipeline is a pure function of
//! (seed, config). Identical inputs must produce bit-identical
//! datasets and reports; different seeds must diverge.

use satwatch::analytics::{FlowFrame, PaperReports};
use satwatch::scenario::experiments::paper_reports_columnar;
use satwatch::scenario::{run, Dataset, ScenarioConfig};

/// One report fold over a run's records.
fn reports(ds: &Dataset) -> PaperReports {
    let frame = FlowFrame::from_records(&ds.flows, &ds.enrichment);
    paper_reports_columnar(&frame, &ds.dns, &ds.enrichment, 10, 1)
}

#[test]
fn identical_seeds_identical_reports() {
    let cfg = ScenarioConfig::tiny().with_customers(60).with_seed(314);
    let a = run(cfg);
    let b = run(cfg);
    assert_eq!(a.packets, b.packets);
    assert_eq!(a.flows, b.flows);
    assert_eq!(a.dns, b.dns);
    // and therefore identical rendered reports
    let (ra, rb) = (reports(&a), reports(&b));
    assert_eq!(ra.table1.render(), rb.table1.render());
    assert_eq!(ra.fig10.render(), rb.fig10.render());
    assert_eq!(ra.fig8a.render(), rb.fig8a.render());
}

#[test]
fn different_seeds_diverge_but_shapes_hold() {
    let a = run(ScenarioConfig::tiny().with_customers(60).with_seed(1));
    let b = run(ScenarioConfig::tiny().with_customers(60).with_seed(2));
    assert_ne!(a.packets, b.packets);
    // the qualitative shape is seed-independent: satellite floor holds
    for ds in [&a, &b] {
        let min_sat = ds.flows.iter().filter_map(|f| f.sat_rtt_ms).fold(f64::INFINITY, f64::min);
        assert!(min_sat > 450.0, "{min_sat}");
    }
}

#[test]
fn anonymization_is_stable_within_a_seed() {
    // The same customer must map to the same anonymized address in
    // every record of one run (otherwise per-customer rollups break).
    let ds = run(ScenarioConfig::tiny().with_customers(40).with_seed(3));
    // group flows by anonymized client; every client seen in flows
    // must be enrichable, and flow counts per client must be plausible
    use std::collections::HashMap;
    let mut per_client: HashMap<std::net::Ipv4Addr, usize> = HashMap::new();
    for f in &ds.flows {
        *per_client.entry(f.client).or_default() += 1;
    }
    assert!(per_client.len() <= 40, "at most one address per customer");
    assert!(per_client.len() >= 30, "most customers appear");
    for (addr, n) in per_client {
        assert!(ds.enrichment.country(addr).is_some(), "{addr} enriched");
        assert!(n >= 10, "client {addr} has only {n} flows");
    }
}
