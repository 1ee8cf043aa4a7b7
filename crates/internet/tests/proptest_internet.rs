//! Property tests for the internet model: selection policies, region
//! geometry, and resolver behaviour over arbitrary inputs.

use proptest::prelude::*;
use satwatch_internet::{CdnCatalog, Region, ResolverId};
use satwatch_simcore::Rng;

proptest! {
    #[test]
    fn every_cdn_selects_within_its_footprint(hint_idx in 0usize..12, cdn_idx in 0usize..6) {
        let cat = CdnCatalog::standard();
        let hint = Region::ALL[hint_idx];
        let op = &cat.operators()[cdn_idx];
        let node = op.select_node(hint);
        prop_assert!(op.footprint.contains(&node), "{} selected {node:?} for {hint:?}", op.name);
    }

    #[test]
    fn anycast_selection_is_hint_independent(a in 0usize..12, b in 0usize..12) {
        let cat = CdnCatalog::standard();
        for op in cat.operators() {
            if op.policy == satwatch_internet::SelectionPolicy::Anycast {
                prop_assert_eq!(op.select_node(Region::ALL[a]), op.select_node(Region::ALL[b]));
            }
        }
    }

    #[test]
    fn dns_based_selection_never_picks_a_farther_node(hint_idx in 0usize..12, cdn_idx in 0usize..6) {
        // the selected node is the nearest footprint node to the hint
        let cat = CdnCatalog::standard();
        let hint = Region::ALL[hint_idx];
        let op = &cat.operators()[cdn_idx];
        if op.policy == satwatch_internet::SelectionPolicy::DnsBased {
            let node = op.select_node(hint);
            for other in &op.footprint {
                prop_assert!(node.distance_km(hint) <= other.distance_km(hint) + 1e-6);
            }
        }
    }

    #[test]
    fn resolver_hints_always_resolve_to_a_region(seed in any::<u64>(), home_idx in 0usize..12) {
        let mut rng = Rng::new(seed);
        for r in ResolverId::ALL {
            let _ = r.hint_region(&mut rng, Region::ALL[home_idx]); // must not panic
        }
    }

    #[test]
    fn response_times_positive_and_roughly_calibrated(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        for r in ResolverId::ALL {
            let t = r.sample_response_time(&mut rng);
            prop_assert!(t.as_millis_f64() > 0.0);
            prop_assert!(t.as_millis_f64() < 50.0 * r.median_response_ms(), "{r:?}: {t}");
        }
    }

    #[test]
    fn server_addresses_stay_in_region_blocks(region_idx in 0usize..12, host in any::<u16>()) {
        use satwatch_internet::server::server_address;
        // the /16 block names the region: shared with every address of
        // the region, with no address of another
        let region = Region::ALL[region_idx];
        let block = |addr: std::net::Ipv4Addr| addr.octets()[..2].to_vec();
        let addr = block(server_address(region, host));
        for other in Region::ALL {
            prop_assert_eq!(addr == block(server_address(other, 0)), other == region, "{:?}", other);
        }
    }

    #[test]
    fn ground_rtt_samples_positive_and_sane(seed in any::<u64>(), region_idx in 0usize..12) {
        let mut rng = Rng::new(seed);
        let region = Region::ALL[region_idx];
        for _ in 0..20 {
            let rtt = region.sample_ground_rtt(&mut rng);
            prop_assert!(rtt.as_millis_f64() > 1.0);
            prop_assert!(rtt.as_millis_f64() < 20.0 * region.median_ground_rtt_ms());
        }
    }
}
