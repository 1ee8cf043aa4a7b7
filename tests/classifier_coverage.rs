//! Cross-crate invariant: every domain the traffic generator can emit
//! must classify to the generating service's category (Table 3
//! round-trip), and classification must drive Fig 6/7 consistently on
//! real monitor output.

use satwatch::analytics::{second_level_domain, Classifier};
use satwatch::scenario::{run, ScenarioConfig};
use satwatch::simcore::Rng;
use satwatch::traffic::catalog::standard_catalog;

#[test]
fn every_generated_domain_classifies() {
    let classifier = Classifier::standard();
    let catalog = standard_catalog();
    let mut rng = Rng::new(0xC1A551F1);
    for svc in &catalog {
        for _ in 0..100 {
            let d = svc.sample_domain(&mut rng).name();
            let (name, cat) =
                classifier.classify(d).unwrap_or_else(|| panic!("{} emitted unclassifiable domain {d}", svc.name));
            assert_eq!(cat, svc.category, "{d} classified as {name}/{cat:?}");
        }
    }
}

#[test]
fn observed_domains_classify_at_high_rate() {
    // Domains as *observed by the monitor* (through SNI/Host/QUIC
    // extraction) must classify, not just as generated.
    let ds = run(ScenarioConfig::tiny().with_customers(60).with_seed(31));
    let classifier = Classifier::standard();
    let mut with_domain = 0;
    let mut classified = 0;
    for f in &ds.flows {
        if let Some(d) = &f.domain {
            with_domain += 1;
            if classifier.classify(d).is_some() {
                classified += 1;
            }
        }
    }
    assert!(with_domain > 1_000);
    let rate = classified as f64 / with_domain as f64;
    assert!(rate > 0.999, "classification rate {rate}");
}

#[test]
fn sni_extraction_rate_is_high_for_web_protocols() {
    use satwatch::monitor::L7Protocol;
    let ds = run(ScenarioConfig::tiny().with_customers(60).with_seed(32));
    for proto in [L7Protocol::TlsHttps, L7Protocol::Quic, L7Protocol::Http] {
        let total = ds.flows.iter().filter(|f| f.l7 == proto).count();
        let with_domain = ds.flows.iter().filter(|f| f.l7 == proto && f.domain.is_some()).count();
        assert!(total > 50, "{proto:?}: {total}");
        let rate = with_domain as f64 / total as f64;
        assert!(rate > 0.95, "{proto:?} domain extraction rate {rate}");
    }
}

#[test]
fn sld_extraction_consistent_with_generated_domains() {
    let catalog = standard_catalog();
    let mut rng = Rng::new(7);
    for svc in &catalog {
        for _ in 0..20 {
            let d = svc.sample_domain(&mut rng).name();
            let sld = second_level_domain(d);
            assert!(!sld.is_empty());
            assert!(d.ends_with(&sld), "{d} should end with {sld}");
            // an SLD has at most one dot more than its public suffix;
            // sanity: no SLD longer than the domain
            assert!(sld.len() <= d.len());
        }
    }
}
