//! Server address allocation: deterministic per-region IPv4 blocks so
//! logs remain interpretable ("manual inspection" of server addresses
//! is part of the paper's methodology, §6.2).

use crate::region::Region;
use satwatch_simcore::Rng;
use std::net::Ipv4Addr;

/// First octet pair identifying each region's address block. These
/// are documentation-style allocations internal to the simulation.
fn region_block(region: Region) -> (u8, u8) {
    match region {
        Region::PeeringCdn => (198, 18),
        Region::EuropeSouth => (198, 19),
        Region::EuropeWest => (198, 20),
        Region::EuropeFar => (198, 21),
        Region::UsEast => (198, 22),
        Region::UsWest => (198, 23),
        Region::AfricaWest => (198, 24),
        Region::AfricaCentral => (198, 25),
        Region::AfricaSouth => (198, 26),
        Region::AfricaEast => (198, 27),
        Region::China => (198, 28),
        Region::MiddleEast => (198, 29),
    }
}

/// Allocate a server address inside a region's block. `host` is any
/// 16-bit discriminator (e.g. a hash of the domain).
pub fn server_address(region: Region, host: u16) -> Ipv4Addr {
    let (a, b) = region_block(region);
    Ipv4Addr::new(a, b, (host >> 8) as u8, host as u8)
}

/// A random-but-deterministic server address for a (region, domain)
/// pair: the same domain in the same region always resolves to the
/// same small set of addresses, like a real CDN node.
pub fn server_address_for_domain(region: Region, domain: &str, rng: &mut Rng) -> Ipv4Addr {
    let mut h: u16 = 0;
    for b in domain.bytes() {
        h = h.wrapping_mul(31).wrapping_add(u16::from(b));
    }
    // a few addresses per (domain, region), like DNS round-robin
    let spread = rng.below(4) as u16;
    server_address(region, h.wrapping_add(spread))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_of(addr: Ipv4Addr) -> (u8, u8) {
        let o = addr.octets();
        (o[0], o[1])
    }

    #[test]
    fn blocks_are_disjoint_and_reversible() {
        let blocks: std::collections::HashSet<(u8, u8)> = Region::ALL.into_iter().map(region_block).collect();
        assert_eq!(blocks.len(), Region::ALL.len());
        for r in Region::ALL {
            assert_eq!(block_of(server_address(r, 0x1234)), region_block(r));
        }
    }

    #[test]
    fn domain_addresses_stable_and_bounded() {
        let mut rng = Rng::new(1);
        let addrs: std::collections::HashSet<Ipv4Addr> =
            (0..100).map(|_| server_address_for_domain(Region::EuropeWest, "static.example.com", &mut rng)).collect();
        assert!(addrs.len() <= 4, "round-robin set of at most 4: {addrs:?}");
        for a in &addrs {
            assert_eq!(block_of(*a), region_block(Region::EuropeWest));
        }
        // different domains land on different addresses (w.h.p.)
        let other = server_address_for_domain(Region::EuropeWest, "video.example.net", &mut rng);
        assert!(!addrs.contains(&other) || addrs.len() > 1);
    }
}
