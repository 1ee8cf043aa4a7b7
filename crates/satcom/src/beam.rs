//! Satellite beams: coverage, capacity, and load profiles.
//!
//! Each beam is an independent physical channel covering one region
//! (paper §2.1). Two beams (up/down) cover each area; we model the
//! *pair* as one `Beam` with separate up/down capacities, which is
//! what matters to delay and throughput. Per-beam utilization drives
//! the MAC queueing model and — per the paper's own finding (§6.1,
//! Fig 8b) — the *PEP processing saturation* that dominates RTT
//! inflation on some beams.

use satwatch_simcore::BitRate;

/// Identifies a beam within the satellite payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BeamId(pub u16);

/// Static beam configuration.
#[derive(Clone, Debug)]
pub struct Beam {
    pub id: BeamId,
    /// Human-readable name, e.g. `"congo-1"`.
    pub name: String,
    /// ISO-like country code of the primary service area.
    pub country: &'static str,
    /// Aggregate downlink capacity of the beam.
    pub down_capacity: BitRate,
    /// Aggregate uplink capacity of the beam.
    pub up_capacity: BitRate,
    /// Peak-hour utilization in `[0, 1)`: fraction of capacity in use
    /// at the busiest local hour. Calibration input (the operator
    /// confirmed congestion on Congolese and some Nigerian beams).
    pub peak_utilization: f64,
    /// Night (2:00–5:00 local) utilization in `[0, 1)`.
    pub night_utilization: f64,
    /// Fraction of the nominal PEP processing capacity provisioned for
    /// this beam (SLA-dependent, §6.1: saturation of the PEP
    /// processing ability, not the beam capacity, causes congestion).
    pub pep_provisioning: f64,
    /// Channel impairment factor in `[0, 1]` from geometry
    /// ([`crate::geo::GeoSlot::impairment`]).
    pub impairment: f64,
}

impl Beam {
    /// Diurnal utilization: cosine interpolation between the night
    /// floor and the peak, with the busiest hour at `peak_hour`
    /// (local). Smooth, periodic, and bounded by the two calibration
    /// points.
    pub fn utilization_at(&self, local_hour: u32, peak_hour: u32) -> f64 {
        let h = local_hour as f64;
        let ph = peak_hour as f64;
        // distance in hours around the 24h circle
        let mut d = (h - ph).abs();
        if d > 12.0 {
            d = 24.0 - d;
        }
        let w = (1.0 + (d / 12.0 * core::f64::consts::PI).cos()) / 2.0; // 1 at peak, 0 at peak+12h
        self.night_utilization + (self.peak_utilization - self.night_utilization) * w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beam(night: f64, peak: f64) -> Beam {
        Beam {
            id: BeamId(1),
            name: "test-1".into(),
            country: "XX",
            down_capacity: BitRate::from_gbps(1),
            up_capacity: BitRate::from_mbps(300),
            peak_utilization: peak,
            night_utilization: night,
            pep_provisioning: 1.0,
            impairment: 0.0,
        }
    }

    #[test]
    fn utilization_hits_calibration_points() {
        let b = beam(0.2, 0.9);
        assert!((b.utilization_at(20, 20) - 0.9).abs() < 1e-9);
        assert!((b.utilization_at(8, 20) - 0.2).abs() < 1e-9); // 12h away
    }

    #[test]
    fn utilization_is_smooth_and_bounded() {
        let b = beam(0.1, 0.8);
        for h in 0..24 {
            let u = b.utilization_at(h, 19);
            assert!((0.1..=0.8).contains(&u), "hour {h}: {u}");
        }
        // monotone decline moving away from the peak
        let at_peak = b.utilization_at(19, 19);
        let off1 = b.utilization_at(22, 19);
        let off2 = b.utilization_at(1, 19);
        assert!(at_peak > off1 && off1 > off2);
    }

    #[test]
    fn utilization_wraps_midnight() {
        let b = beam(0.2, 0.9);
        // peak at 23h: hour 1 is 2h away, hour 11 is 12h away
        assert!(b.utilization_at(1, 23) > b.utilization_at(11, 23));
    }
}
