//! Coarse internet geography seen from the ground station.
//!
//! All subscriber traffic enters the internet in Italy (paper §2.1),
//! so what matters for the ground-segment RTT (Fig 9) is the region
//! hosting the server, anchored to the paper's observed bumps:
//! ~12 ms direct-peering CDNs, 15–17 ms and ~35 ms European groups
//! (>80 % of EU traffic), ~95 ms US East coast, ~180 ms US West,
//! 110–350 ms for African in-country services reached back through
//! Italy, and ~250 ms for Chinese services popular in Congo.

use satwatch_simcore::dist::{LogNormal, Sample};
use satwatch_simcore::{Rng, SimDuration};
use std::sync::OnceLock;

/// Server/infrastructure regions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// CDN caches with direct peering at the ground station's IXP.
    PeeringCdn,
    /// Southern-European metros (Milan, Rome, Marseille).
    EuropeSouth,
    /// Western/central European metros (Frankfurt, Amsterdam, London, Paris).
    EuropeWest,
    /// Farther European destinations (Nordics, Eastern Europe).
    EuropeFar,
    UsEast,
    UsWest,
    /// Nigeria and the Gulf of Guinea coast.
    AfricaWest,
    /// DR Congo and Central Africa.
    AfricaCentral,
    /// South Africa.
    AfricaSouth,
    /// Kenya and East Africa.
    AfricaEast,
    China,
    MiddleEast,
}

impl Region {
    pub const ALL: [Region; 12] = [
        Region::PeeringCdn,
        Region::EuropeSouth,
        Region::EuropeWest,
        Region::EuropeFar,
        Region::UsEast,
        Region::UsWest,
        Region::AfricaWest,
        Region::AfricaCentral,
        Region::AfricaSouth,
        Region::AfricaEast,
        Region::China,
        Region::MiddleEast,
    ];

    /// Median ground-segment RTT from the Italian ground station, ms.
    /// Calibration anchors from Fig 9 / Fig 10 / Tables 4–5.
    pub fn median_ground_rtt_ms(self) -> f64 {
        match self {
            Region::PeeringCdn => 12.0,
            Region::EuropeSouth => 16.0,
            Region::EuropeWest => 24.0,
            Region::EuropeFar => 35.0,
            Region::UsEast => 95.0,
            Region::UsWest => 180.0,
            Region::AfricaWest => 115.0,
            Region::AfricaCentral => 320.0,
            Region::AfricaSouth => 190.0,
            Region::AfricaEast => 260.0,
            Region::China => 250.0,
            Region::MiddleEast => 130.0,
        }
    }

    /// Log-space spread of the RTT distribution (path diversity,
    /// transient queueing). African and Chinese paths are noisier.
    pub fn rtt_sigma(self) -> f64 {
        match self {
            Region::PeeringCdn => 0.06,
            Region::EuropeSouth | Region::EuropeWest | Region::EuropeFar => 0.10,
            Region::UsEast | Region::UsWest => 0.08,
            Region::MiddleEast => 0.15,
            Region::AfricaWest | Region::AfricaSouth => 0.22,
            Region::AfricaCentral | Region::AfricaEast | Region::China => 0.25,
        }
    }

    /// Approximate location used only to pick the *nearest footprint
    /// node* during CDN server selection (degrees lat/lon).
    pub fn coordinates(self) -> (f64, f64) {
        match self {
            Region::PeeringCdn => (45.1, 9.9), // at the ground station IXP
            Region::EuropeSouth => (45.4, 9.2),
            Region::EuropeWest => (50.1, 8.7),
            Region::EuropeFar => (59.3, 18.1),
            Region::UsEast => (39.0, -77.5),
            Region::UsWest => (37.4, -122.1),
            Region::AfricaWest => (6.5, 3.4),
            Region::AfricaCentral => (-4.3, 15.3),
            Region::AfricaSouth => (-26.2, 28.0),
            Region::AfricaEast => (-1.3, 36.8),
            Region::China => (39.9, 116.4),
            Region::MiddleEast => (25.2, 55.3),
        }
    }

    /// Great-circle distance to another region, km. Used by server
    /// selection, never by the RTT model (which is measurement-anchored).
    pub fn distance_km(self, other: Region) -> f64 {
        distance_table()[self as usize][other as usize]
    }

    /// Region whose coordinates are closest to the given point.
    pub fn nearest_to(lat: f64, lon: f64) -> Region {
        *Region::ALL
            .iter()
            .min_by(|a, b| {
                let (la, lo) = a.coordinates();
                let (lb, lob) = b.coordinates();
                haversine_km(lat, lon, la, lo).partial_cmp(&haversine_km(lat, lon, lb, lob)).unwrap()
            })
            .unwrap()
    }

    /// Sample one ground-segment RTT from the ground station to a
    /// server in this region.
    pub fn sample_ground_rtt(self, rng: &mut Rng) -> SimDuration {
        let d = LogNormal::from_median(self.median_ground_rtt_ms(), self.rtt_sigma());
        SimDuration::from_millis_f64(d.sample(rng))
    }

    pub fn is_african(self) -> bool {
        matches!(self, Region::AfricaWest | Region::AfricaCentral | Region::AfricaSouth | Region::AfricaEast)
    }

    pub fn is_european(self) -> bool {
        matches!(self, Region::PeeringCdn | Region::EuropeSouth | Region::EuropeWest | Region::EuropeFar)
    }
}

/// Every region-to-region distance, computed once with
/// [`haversine_km`] from [`Region::coordinates`] — the same calls, so
/// the same bits, that server selection used to make per flow. Indexed
/// by discriminant, which is the position in [`Region::ALL`].
fn distance_table() -> &'static [[f64; 12]; 12] {
    static TABLE: OnceLock<[[f64; 12]; 12]> = OnceLock::new();
    TABLE.get_or_init(|| {
        Region::ALL.map(|a| {
            Region::ALL.map(|b| {
                let ((la1, lo1), (la2, lo2)) = (a.coordinates(), b.coordinates());
                haversine_km(la1, lo1, la2, lo2)
            })
        })
    })
}

/// Great-circle distance between two points, km.
pub fn haversine_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    const R: f64 = 6_371.0;
    let (p1, p2) = (lat1.to_radians(), lat2.to_radians());
    let dp = (lat2 - lat1).to_radians();
    let dl = (lon2 - lon1).to_radians();
    let a = (dp / 2.0).sin().powi(2) + p1.cos() * p2.cos() * (dl / 2.0).sin().powi(2);
    2.0 * R * a.sqrt().atan2((1.0 - a).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtt_ordering_matches_paper_bumps() {
        assert!(Region::PeeringCdn.median_ground_rtt_ms() < Region::EuropeSouth.median_ground_rtt_ms());
        assert!(Region::EuropeFar.median_ground_rtt_ms() < Region::UsEast.median_ground_rtt_ms());
        assert!(Region::UsEast.median_ground_rtt_ms() < Region::UsWest.median_ground_rtt_ms());
        // African in-country services are *worse* than US East from
        // the ground station — the paper's central routing finding.
        assert!(Region::AfricaCentral.median_ground_rtt_ms() > Region::UsWest.median_ground_rtt_ms());
    }

    #[test]
    fn sampled_rtt_median_converges() {
        let mut rng = Rng::new(1);
        let mut v: Vec<f64> = (0..20_000).map(|_| Region::UsEast.sample_ground_rtt(&mut rng).as_millis_f64()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = v[v.len() / 2];
        assert!((med / 95.0 - 1.0).abs() < 0.03, "{med}");
    }

    #[test]
    fn haversine_known_distance() {
        // Rome to London ≈ 1430 km
        let d = haversine_km(41.9, 12.5, 51.5, -0.1);
        assert!((d - 1430.0).abs() < 50.0, "{d}");
        assert_eq!(haversine_km(10.0, 20.0, 10.0, 20.0), 0.0);
    }

    #[test]
    fn nearest_region_selection() {
        // Lagos is nearest to AfricaWest
        assert_eq!(Region::nearest_to(6.5, 3.5), Region::AfricaWest);
        // Beijing is nearest to China
        assert_eq!(Region::nearest_to(40.0, 116.0), Region::China);
    }

    #[test]
    fn continental_predicates() {
        assert!(Region::AfricaWest.is_african());
        assert!(!Region::AfricaWest.is_european());
        assert!(Region::EuropeWest.is_european());
        assert!(!Region::China.is_european() && !Region::China.is_african());
    }

    #[test]
    fn distance_table_is_haversine_bit_for_bit() {
        for (i, a) in Region::ALL.into_iter().enumerate() {
            assert_eq!(a as usize, i, "the table is indexed by position in ALL");
            for b in Region::ALL {
                let ((la1, lo1), (la2, lo2)) = (a.coordinates(), b.coordinates());
                assert_eq!(a.distance_km(b).to_bits(), haversine_km(la1, lo1, la2, lo2).to_bits(), "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn distances_symmetric() {
        for a in Region::ALL {
            for b in Region::ALL {
                assert!((a.distance_km(b) - b.distance_km(a)).abs() < 1e-6);
            }
        }
    }
}
