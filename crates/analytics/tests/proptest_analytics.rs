//! Property tests for the analytics layer: the classifier and SLD
//! extractor must be total (no panics, sane outputs) over arbitrary
//! domain-ish strings, and pattern semantics must be consistent; the
//! enrichment log must round-trip any customer map.

use proptest::prelude::*;
use satwatch_analytics::classify::{second_level_domain, Classifier, Pattern};
use satwatch_analytics::{read_enrichment_log, write_enrichment_log, Enrichment};
use satwatch_traffic::Country;
use std::net::Ipv4Addr;

proptest! {
    #[test]
    fn classifier_total_over_arbitrary_strings(s in "\\PC{0,80}") {
        let c = Classifier::standard();
        let _ = c.classify(&s); // must not panic
    }

    #[test]
    fn classifier_total_over_domainish_strings(s in "[a-z0-9.-]{0,60}") {
        let c = Classifier::standard();
        let _ = c.classify(&s);
        let sld = second_level_domain(&s);
        prop_assert!(sld.len() <= s.len().max(1));
    }

    #[test]
    fn sld_is_a_suffix_with_at_most_three_labels(
        labels in proptest::collection::vec("[a-z0-9]{1,10}", 1..6)
    ) {
        let domain = labels.join(".");
        let sld = second_level_domain(&domain);
        prop_assert!(domain.ends_with(&sld), "{domain} vs {sld}");
        prop_assert!(sld.split('.').count() <= 3);
        prop_assert!(!sld.is_empty());
        // idempotent
        let twice = second_level_domain(&sld);
        prop_assert_eq!(twice.as_str(), sld.as_str());
    }

    #[test]
    fn suffix_pattern_never_matches_lookalikes(label in "[a-z]{1,10}") {
        // `Suffix("sky.com")` must match x.sky.com but never whisky.com-style lookalikes
        let p = Pattern::Suffix("sky.com");
        let sub = format!("{label}.sky.com");
        prop_assert!(p.matches(&sub));
        let glued = format!("{label}sky.com");
        if !label.is_empty() {
            prop_assert!(!p.matches(&glued), "{glued}");
        }
    }

    #[test]
    fn subdomain_suffix_excludes_apex(label in "[a-z]{1,10}") {
        let p = Pattern::SubdomainSuffix("example.org");
        prop_assert!(!p.matches("example.org"));
        let sub = format!("{label}.example.org");
        prop_assert!(p.matches(&sub));
    }

    #[test]
    fn classification_stable_under_case(s in "[a-zA-Z0-9.-]{1,40}") {
        let c = Classifier::standard();
        let lower = c.classify(&s.to_ascii_lowercase());
        let upper = c.classify(&s.to_ascii_uppercase());
        prop_assert_eq!(lower, upper);
    }

    #[test]
    fn enrichment_log_round_trips(
        customers in proptest::collection::vec((any::<u32>(), 0usize..12, proptest::option::of(0u16..u16::MAX)), 0..40)
    ) {
        let mut enr = Enrichment::default();
        for (addr, country, beam) in customers {
            let addr = Ipv4Addr::from(addr);
            enr.country_of.insert(addr, Country::ALL[country]);
            match beam {
                Some(b) => enr.beam_of.insert(addr, b),
                None => enr.beam_of.remove(&addr),
            };
        }
        let mut log = Vec::new();
        write_enrichment_log(&mut log, &enr).unwrap();
        let back = read_enrichment_log(&log[..]).unwrap();
        prop_assert_eq!(&back.country_of, &enr.country_of);
        prop_assert_eq!(&back.beam_of, &enr.beam_of);
        // rows are in address order, whatever order the map iterates in
        let mut again = Vec::new();
        write_enrichment_log(&mut again, &back).unwrap();
        prop_assert_eq!(again, log);
    }
}

#[test]
fn enrichment_reader_rejects_garbage() {
    let err = |log: &str| read_enrichment_log(log.as_bytes()).unwrap_err().to_string();
    assert_eq!(err("client\tbeam\n"), "bad enrichment log header");
    assert_eq!(err("client\tcountry\tbeam\n10.0.0.1\tCD\n"), "line 1: expected 3 fields, got 2");
    assert_eq!(err("client\tcountry\tbeam\n10.0.0.1\tCD\t3\nten\tCD\t3\n"), "line 2: bad client");
    assert_eq!(err("client\tcountry\tbeam\n10.0.0.1\tXX\t3\n"), "line 1: bad country");
    assert_eq!(err("client\tcountry\tbeam\n10.0.0.1\tCD\t70000\n"), "line 1: bad beam");
}
