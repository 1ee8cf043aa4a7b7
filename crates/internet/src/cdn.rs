//! CDN operators, footprints, and server-selection policies.
//!
//! Two selection mechanisms matter to the paper (§6.4):
//!
//! * **DNS-based mapping** — the authoritative resolver returns the
//!   CDN node closest to where it believes the *client* is. That
//!   belief comes from the recursive resolver's location or its ECS
//!   hint, both of which the SatCom architecture confuses (queries
//!   egress in Italy, subscribers geolocate to Africa, resolvers sit
//!   in China…). This produces the inflated per-resolver ground RTTs
//!   of Table 2/4/5.
//! * **Anycast** — the client connects to a fixed address and BGP
//!   routes it to the nearest node *from the ground station*, which is
//!   immune to resolver confusion ("nflxvideo.net \[is\] less affected…
//!   because they use Anycast-based CDN solutions").

use crate::region::Region;
use satwatch_simcore::Rng;

/// Index into a [`CdnCatalog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CdnId(pub u16);

/// How a CDN maps clients to nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// DNS-based: nearest footprint node to the resolver's client hint.
    DnsBased,
    /// Anycast: nearest footprint node to the ground station, always.
    Anycast,
}

/// One CDN operator.
#[derive(Clone, Debug)]
pub struct CdnOperator {
    pub id: CdnId,
    pub name: &'static str,
    pub policy: SelectionPolicy,
    /// Regions with deployed cache nodes. Order is irrelevant;
    /// selection is by distance.
    pub footprint: Vec<Region>,
}

impl CdnOperator {
    /// Pick the serving node for a client whose effective location
    /// (per the resolution chain) is `hint`.
    pub fn select_node(&self, hint: Region) -> Region {
        match self.policy {
            SelectionPolicy::Anycast => self.nearest_node(Region::PeeringCdn),
            SelectionPolicy::DnsBased => self.nearest_node(hint),
        }
    }

    fn nearest_node(&self, target: Region) -> Region {
        *self
            .footprint
            .iter()
            .min_by(|a, b| a.distance_km(target).partial_cmp(&b.distance_km(target)).unwrap())
            .expect("CDN with empty footprint")
    }
}

/// The set of CDNs behind the default scenario's services.
#[derive(Clone, Debug)]
pub struct CdnCatalog {
    operators: Vec<CdnOperator>,
}

/// Well-known CDN ids in the default catalog.
pub mod well_known {
    use super::CdnId;

    /// Hyperscaler CDN with direct peering at the ground station and a
    /// global footprint incl. African nodes (Google-like).
    pub const GLOBAL_PEERING: CdnId = CdnId(0);
    /// Global anycast CDN (Cloudflare-like).
    pub const GLOBAL_ANYCAST: CdnId = CdnId(1);
    /// Video CDN with EU/US presence and anycast steering (Netflix
    /// OCA-like for our purposes).
    pub const VIDEO_ANYCAST: CdnId = CdnId(2);
    /// Commercial CDN with EU/US footprint, DNS mapping (Akamai-like).
    pub const COMMERCIAL_DNS: CdnId = CdnId(3);
    /// Social/chat operator's own CDN, EU + Africa POPs, DNS mapping
    /// (Meta-like: fbcdn/WhatsApp edges).
    pub const SOCIAL_DNS: CdnId = CdnId(4);
    /// Chinese CDN serving Chinese services, footprint China + a few
    /// African POPs (for the Chinese-community services of §6.2).
    pub const CHINA_DNS: CdnId = CdnId(5);
}

impl CdnCatalog {
    pub fn standard() -> CdnCatalog {
        use Region::*;
        let operators = vec![
            CdnOperator {
                id: well_known::GLOBAL_PEERING,
                name: "global-peering",
                policy: SelectionPolicy::DnsBased,
                footprint: vec![
                    PeeringCdn,
                    EuropeSouth,
                    EuropeWest,
                    EuropeFar,
                    UsEast,
                    UsWest,
                    AfricaWest,
                    AfricaSouth,
                    AfricaEast,
                    MiddleEast,
                ],
            },
            CdnOperator {
                id: well_known::GLOBAL_ANYCAST,
                name: "global-anycast",
                policy: SelectionPolicy::Anycast,
                footprint: vec![PeeringCdn, EuropeSouth, EuropeWest, UsEast, UsWest, AfricaWest, AfricaSouth],
            },
            CdnOperator {
                id: well_known::VIDEO_ANYCAST,
                name: "video-anycast",
                policy: SelectionPolicy::Anycast,
                footprint: vec![PeeringCdn, EuropeSouth, EuropeWest, UsEast, UsWest],
            },
            CdnOperator {
                id: well_known::COMMERCIAL_DNS,
                name: "commercial-dns",
                policy: SelectionPolicy::DnsBased,
                footprint: vec![EuropeSouth, EuropeWest, EuropeFar, UsEast, UsWest, MiddleEast],
            },
            CdnOperator {
                id: well_known::SOCIAL_DNS,
                name: "social-dns",
                policy: SelectionPolicy::DnsBased,
                footprint: vec![PeeringCdn, EuropeSouth, EuropeWest, UsEast, AfricaWest, AfricaSouth],
            },
            CdnOperator {
                id: well_known::CHINA_DNS,
                name: "china-dns",
                policy: SelectionPolicy::DnsBased,
                footprint: vec![China, AfricaEast, MiddleEast],
            },
        ];
        CdnCatalog { operators }
    }

    pub fn get(&self, id: CdnId) -> &CdnOperator {
        &self.operators[id.0 as usize]
    }

    pub fn operators(&self) -> &[CdnOperator] {
        &self.operators
    }
}

/// Where a service's content lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hosting {
    /// Single-homed origin in a fixed region (e.g. a Congolese news
    /// site hosted in Kinshasa, or qq.com in China).
    Origin(Region),
    /// Served through a CDN; node selection depends on the resolution
    /// chain.
    Cdn(CdnId),
}

impl Hosting {
    /// Resolve to the serving region for one flow. `hint` is the
    /// client location the resolution chain advertised; irrelevant for
    /// fixed origins and anycast CDNs.
    pub fn serving_region(&self, catalog: &CdnCatalog, hint: Region, _rng: &mut Rng) -> Region {
        match *self {
            Hosting::Origin(r) => r,
            Hosting::Cdn(id) => catalog.get(id).select_node(hint),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anycast_ignores_hint() {
        let cat = CdnCatalog::standard();
        let video = cat.get(well_known::VIDEO_ANYCAST);
        assert_eq!(video.select_node(Region::China), video.select_node(Region::PeeringCdn));
        assert_eq!(video.select_node(Region::AfricaCentral), Region::PeeringCdn);
    }

    #[test]
    fn dns_based_follows_hint() {
        let cat = CdnCatalog::standard();
        let g = cat.get(well_known::GLOBAL_PEERING);
        // correctly-hinted client gets the peering cache
        assert_eq!(g.select_node(Region::PeeringCdn), Region::PeeringCdn);
        // a Nigerian hint pulls the client to the Lagos node — which is
        // *farther* from the ground station (the §6.4 pathology)
        assert_eq!(g.select_node(Region::AfricaWest), Region::AfricaWest);
        assert!(Region::AfricaWest.median_ground_rtt_ms() > Region::PeeringCdn.median_ground_rtt_ms());
    }

    #[test]
    fn china_resolver_hint_lands_in_china() {
        let cat = CdnCatalog::standard();
        let g = cat.get(well_known::GLOBAL_PEERING);
        // a 114DNS-style hint (China) maps to the nearest footprint
        // node to China — MiddleEast for the global CDN
        let node = g.select_node(Region::China);
        assert!(matches!(node, Region::MiddleEast | Region::AfricaEast));
    }

    /// Node selection reads distances off a table now; it must pick
    /// what the per-call great-circle computation picked, for every
    /// operator and every hint.
    #[test]
    fn select_node_matches_direct_haversine_selection() {
        use crate::region::haversine_km;
        let km = |a: Region, b: Region| {
            let ((la1, lo1), (la2, lo2)) = (a.coordinates(), b.coordinates());
            haversine_km(la1, lo1, la2, lo2)
        };
        for op in CdnCatalog::standard().operators() {
            for hint in Region::ALL {
                let target = if op.policy == SelectionPolicy::Anycast { Region::PeeringCdn } else { hint };
                let want =
                    *op.footprint.iter().min_by(|a, b| km(**a, target).partial_cmp(&km(**b, target)).unwrap()).unwrap();
                assert_eq!(op.select_node(hint), want, "{} hinted {hint:?}", op.name);
            }
        }
    }

    #[test]
    fn hosting_resolution() {
        let cat = CdnCatalog::standard();
        let mut rng = Rng::new(1);
        let origin = Hosting::Origin(Region::AfricaCentral);
        assert_eq!(origin.serving_region(&cat, Region::PeeringCdn, &mut rng), Region::AfricaCentral);
        let cdn = Hosting::Cdn(well_known::GLOBAL_ANYCAST);
        assert_eq!(cdn.serving_region(&cat, Region::China, &mut rng), Region::PeeringCdn);
    }

    #[test]
    fn commercial_cdn_has_no_african_node() {
        let cat = CdnCatalog::standard();
        let c = cat.get(well_known::COMMERCIAL_DNS);
        // even with an African hint, the client ends up in Europe/ME —
        // the least-bad node by distance
        let node = c.select_node(Region::AfricaCentral);
        assert!(!node.is_african());
    }
}
