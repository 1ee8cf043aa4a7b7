//! GEO satellite geometry: slant ranges, elevation angles, and
//! propagation delays.
//!
//! The paper's satellite serves Europe and Africa ("from Ireland to
//! South Africa") from a geostationary slot, with the single ground
//! station in Italy. Two facts from §2.1 anchor this module:
//!
//! * a packet traverses 35 786 km twice (CPE → satellite → ground
//!   station), accumulating **240–280 ms** one way depending on the
//!   subscriber's location, and
//! * locations near the edge of coverage (large zenith angle — the
//!   paper calls out Ireland) suffer both longer line-of-sight and
//!   degraded channel quality.

use core::f64::consts::PI;
use satwatch_simcore::SimDuration;

/// Mean Earth radius, km.
pub const EARTH_RADIUS_KM: f64 = 6_371.0;
/// GEO altitude above the equator, km (paper: 35 786 km).
pub const GEO_ALTITUDE_KM: f64 = 35_786.0;
/// Speed of light, km/s.
pub const SPEED_OF_LIGHT_KM_S: f64 = 299_792.458;

/// A point on Earth, degrees. Positive = North / East.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatLon {
    pub lat_deg: f64,
    pub lon_deg: f64,
}

impl LatLon {
    pub const fn new(lat_deg: f64, lon_deg: f64) -> LatLon {
        LatLon { lat_deg, lon_deg }
    }
}

/// A geostationary orbital slot, identified by its sub-satellite
/// longitude (degrees East).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeoSlot {
    pub lon_deg: f64,
}

impl GeoSlot {
    pub const fn new(lon_deg: f64) -> GeoSlot {
        GeoSlot { lon_deg }
    }

    /// Central angle between the sub-satellite point and `p`, radians.
    pub fn central_angle(&self, p: LatLon) -> f64 {
        let lat = p.lat_deg.to_radians();
        let dlon = (p.lon_deg - self.lon_deg).to_radians();
        (lat.cos() * dlon.cos()).acos()
    }

    /// Slant range from `p` to the satellite, km (law of cosines in
    /// the Earth-centre / ground-point / satellite triangle).
    pub fn slant_range_km(&self, p: LatLon) -> f64 {
        let gamma = self.central_angle(p);
        let r = EARTH_RADIUS_KM + GEO_ALTITUDE_KM;
        (EARTH_RADIUS_KM * EARTH_RADIUS_KM + r * r - 2.0 * EARTH_RADIUS_KM * r * gamma.cos()).sqrt()
    }

    /// Elevation angle of the satellite above the local horizon at
    /// `p`, degrees. Negative means the satellite is below the horizon
    /// (no service).
    pub fn elevation_deg(&self, p: LatLon) -> f64 {
        let gamma = self.central_angle(p);
        let d = self.slant_range_km(p);
        let r = EARTH_RADIUS_KM + GEO_ALTITUDE_KM;
        // sin(elev) = (r·cosγ − Re)/d
        ((r * gamma.cos() - EARTH_RADIUS_KM) / d).asin() * 180.0 / PI
    }

    /// One-way propagation delay of the single hop `p` → satellite.
    pub fn hop_delay(&self, p: LatLon) -> SimDuration {
        SimDuration::from_secs_f64(self.slant_range_km(p) / SPEED_OF_LIGHT_KM_S)
    }

    /// One-way delay subscriber → satellite → ground station: the
    /// "twice 35 786 km" figure from §2.1.
    pub fn bent_pipe_delay(&self, subscriber: LatLon, ground_station: LatLon) -> SimDuration {
        self.hop_delay(subscriber) + self.hop_delay(ground_station)
    }

    /// A normalised channel-impairment factor in `[0, 1]` derived from
    /// the elevation angle: 0 for a terminal looking straight up, → 1
    /// as the satellite sinks to the horizon. Drives the FEC/ARQ model
    /// in [`crate::link`]. The exponent sharpens the penalty near the
    /// edge of coverage, matching the paper's Ireland observations.
    pub fn impairment(&self, p: LatLon) -> f64 {
        let elev = self.elevation_deg(p).clamp(0.0, 90.0);
        (1.0 - elev / 90.0).powf(2.5)
    }
}

/// Reference locations used by the default scenario. Approximate
/// population-weighted centroids; the ground station is in Italy
/// (paper §2.1). The satellite slot is chosen between Europe and
/// Africa so that Nigeria sits near the sub-satellite longitude
/// (paper §6.1: "Nigeria['s] favorable position, where the satellite
/// is closer to the zenith").
pub mod places {
    use super::{GeoSlot, LatLon};

    pub const SATELLITE: GeoSlot = GeoSlot::new(3.0);
    pub const GROUND_STATION_ITALY: LatLon = LatLon::new(45.1, 9.9);

    pub const CONGO_KINSHASA: LatLon = LatLon::new(-4.3, 15.3);
    pub const NIGERIA_LAGOS: LatLon = LatLon::new(6.5, 3.4);
    pub const SOUTH_AFRICA_JOBURG: LatLon = LatLon::new(-26.2, 28.0);
    pub const IRELAND_DUBLIN: LatLon = LatLon::new(53.3, -6.3);
    pub const SPAIN_MADRID: LatLon = LatLon::new(40.4, -3.7);
    pub const UK_LONDON: LatLon = LatLon::new(51.5, -0.1);
    pub const GERMANY_FRANKFURT: LatLon = LatLon::new(50.1, 8.7);
    pub const FRANCE_PARIS: LatLon = LatLon::new(48.9, 2.4);
    pub const ITALY_ROME: LatLon = LatLon::new(41.9, 12.5);
    pub const GREECE_ATHENS: LatLon = LatLon::new(38.0, 23.7);
    pub const KENYA_NAIROBI: LatLon = LatLon::new(-1.3, 36.8);
    pub const GHANA_ACCRA: LatLon = LatLon::new(5.6, -0.2);
}

#[cfg(test)]
mod tests {
    use super::places::*;
    use super::*;

    #[test]
    fn nadir_geometry() {
        let slot = GeoSlot::new(0.0);
        let nadir = LatLon::new(0.0, 0.0);
        assert!((slot.slant_range_km(nadir) - GEO_ALTITUDE_KM).abs() < 1.0);
        assert!((slot.elevation_deg(nadir) - 90.0).abs() < 0.01);
        assert!(slot.impairment(nadir) < 1e-6);
        // One hop from nadir ≈ 119.4 ms
        let d = slot.hop_delay(nadir);
        assert!((d.as_millis_f64() - 119.4).abs() < 0.5, "{d}");
    }

    #[test]
    fn paper_one_way_delay_bracket() {
        // §2.1: CPE → sat → ground station accumulates 240–280 ms.
        for p in [
            CONGO_KINSHASA,
            NIGERIA_LAGOS,
            SOUTH_AFRICA_JOBURG,
            IRELAND_DUBLIN,
            SPAIN_MADRID,
            UK_LONDON,
            GERMANY_FRANKFURT,
        ] {
            let d = SATELLITE.bent_pipe_delay(p, GROUND_STATION_ITALY).as_millis_f64();
            assert!((235.0..285.0).contains(&d), "one-way delay {d} ms out of paper bracket for {p:?}");
        }
    }

    #[test]
    fn nigeria_closest_to_zenith() {
        // closer to the zenith = higher elevation
        let e_nigeria = SATELLITE.elevation_deg(NIGERIA_LAGOS);
        for (name, p) in [
            ("congo", CONGO_KINSHASA),
            ("south-africa", SOUTH_AFRICA_JOBURG),
            ("ireland", IRELAND_DUBLIN),
            ("spain", SPAIN_MADRID),
            ("uk", UK_LONDON),
        ] {
            assert!(SATELLITE.elevation_deg(p) < e_nigeria, "{name} should have larger zenith angle");
        }
    }

    #[test]
    fn ireland_worst_impairment_in_europe() {
        let i_irl = SATELLITE.impairment(IRELAND_DUBLIN);
        for p in [SPAIN_MADRID, UK_LONDON, GERMANY_FRANKFURT, ITALY_ROME] {
            assert!(SATELLITE.impairment(p) < i_irl);
        }
        // and clearly worse than the near-equatorial African sites
        assert!(i_irl > 3.0 * SATELLITE.impairment(NIGERIA_LAGOS));
    }

    #[test]
    fn elevation_decreases_with_distance_from_slot() {
        let slot = GeoSlot::new(10.0);
        let near = slot.elevation_deg(LatLon::new(0.0, 10.0));
        let mid = slot.elevation_deg(LatLon::new(30.0, 10.0));
        let far = slot.elevation_deg(LatLon::new(60.0, 10.0));
        assert!(near > mid && mid > far);
    }

    #[test]
    fn below_horizon_is_negative_elevation() {
        let slot = GeoSlot::new(0.0);
        let antipode = LatLon::new(0.0, 180.0);
        assert!(slot.elevation_deg(antipode) < 0.0);
    }

    #[test]
    fn impairment_monotone_in_zenith() {
        let slot = GeoSlot::new(0.0);
        let mut last = -1.0;
        for lat in [0.0, 15.0, 30.0, 45.0, 60.0, 75.0] {
            let imp = slot.impairment(LatLon::new(lat, 0.0));
            assert!(imp > last, "impairment must grow with latitude");
            last = imp;
        }
    }
}
