//! Rain fade: time-varying channel attenuation.
//!
//! GEO consumer terminals run in Ku/Ka band, where rain cells attenuate
//! the signal by many dB; the data-link layer compensates with adaptive
//! coding (lower spectral efficiency) and ARQ, which the subscriber
//! experiences as transient loss/latency episodes. The paper folds
//! this into "channel quality" (§6.1, "link channel quality … can
//! actually add seconds"); we model it explicitly so that impairment
//! is not purely static geometry.
//!
//! The model is a deterministic storm schedule: for each (beam, day)
//! a climate-dependent number of rain events is drawn from a seeded
//! hash, each with a start, duration, and peak attenuation. Querying
//! the model at any instant is a pure function — no mutable state —
//! so simulation replay order can never perturb it.

use crate::beam::BeamId;
use satwatch_simcore::rng::Rng;
use satwatch_simcore::time::{SimTime, SECS_PER_DAY};

/// Coarse climate classes for the service areas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Climate {
    /// Equatorial convective rain: frequent short violent storms
    /// (Congo basin, Gulf of Guinea).
    TropicalConvective,
    /// Mid-latitude frontal rain: more days with rain, weaker cells
    /// (northern/western Europe).
    TemperateMaritime,
    /// Mediterranean / highveld: occasional rain.
    DrySeasonal,
}

impl Climate {
    /// Classify the default scenario's countries.
    pub fn of_country(code: &str) -> Climate {
        match code {
            "CD" | "NG" | "GH" | "CM" | "KE" => Climate::TropicalConvective,
            "IE" | "UK" | "DE" | "FR" => Climate::TemperateMaritime,
            _ => Climate::DrySeasonal,
        }
    }

    /// Mean rain events per day.
    fn events_per_day(self) -> f64 {
        match self {
            Climate::TropicalConvective => 1.4,
            Climate::TemperateMaritime => 1.0,
            Climate::DrySeasonal => 0.35,
        }
    }

    /// Peak impairment range contributed by one storm, `[lo, hi]` in
    /// the same 0..1 scale as the geometric impairment.
    fn peak_range(self) -> (f64, f64) {
        match self {
            Climate::TropicalConvective => (0.25, 0.85),
            Climate::TemperateMaritime => (0.10, 0.45),
            Climate::DrySeasonal => (0.05, 0.35),
        }
    }

    /// Storm duration range in seconds.
    fn duration_range(self) -> (u64, u64) {
        match self {
            Climate::TropicalConvective => (600, 4_500),   // 10–75 min
            Climate::TemperateMaritime => (1_800, 14_400), // 0.5–4 h
            Climate::DrySeasonal => (900, 5_400),
        }
    }
}

/// One rain event on a beam.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RainEvent {
    /// Seconds after midnight the cell arrives.
    pub start_s: u64,
    pub duration_s: u64,
    /// Peak impairment at the centre of the event.
    pub peak: f64,
}

impl RainEvent {
    /// Impairment contributed at `second_of_day`: a triangular
    /// envelope rising to `peak` mid-event.
    pub fn impairment_at(&self, second_of_day: u64) -> f64 {
        if second_of_day < self.start_s || second_of_day >= self.start_s + self.duration_s {
            return 0.0;
        }
        let pos = (second_of_day - self.start_s) as f64 / self.duration_s as f64;
        let envelope = 1.0 - (2.0 * pos - 1.0).abs(); // 0 → 1 → 0
        self.peak * envelope
    }
}

/// The deterministic storm scheduler.
#[derive(Clone, Copy, Debug)]
pub struct WeatherModel {
    seed: u64,
}

impl WeatherModel {
    pub fn new(seed: u64) -> WeatherModel {
        WeatherModel { seed }
    }

    /// The rain events hitting `beam` (in country `country`) on `day`.
    /// Pure function of (seed, beam, day).
    pub fn events(&self, country: &str, beam: BeamId, day: u64) -> Vec<RainEvent> {
        let climate = Climate::of_country(country);
        let mut sm = self.seed ^ (u64::from(beam.0) << 32) ^ day.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = Rng::new(satwatch_simcore::rng::splitmix64(&mut sm));
        // Poisson-ish count via thinning on a small support
        let mean = climate.events_per_day();
        let mut n = 0u32;
        let mut acc = -rng.f64_open().ln();
        while acc < mean && n < 6 {
            n += 1;
            acc += -rng.f64_open().ln();
        }
        let (dlo, dhi) = climate.duration_range();
        let (plo, phi) = climate.peak_range();
        (0..n)
            .map(|_| RainEvent {
                start_s: rng.below(SECS_PER_DAY),
                duration_s: rng.range_u64(dlo, dhi),
                peak: rng.range_f64(plo, phi),
            })
            .collect()
    }

    /// Total rain impairment on `beam` at instant `t` (sum of active
    /// events, clamped to 0.9 so the link never fully dies — adaptive
    /// coding keeps a trickle).
    pub fn rain_impairment(&self, country: &str, beam: BeamId, t: SimTime) -> f64 {
        let day = t.day();
        let sec = t.as_secs() % SECS_PER_DAY;
        let total: f64 = self.events(country, beam, day).iter().map(|e| e.impairment_at(sec)).sum();
        total.min(0.9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn climates_classify() {
        assert_eq!(Climate::of_country("CD"), Climate::TropicalConvective);
        assert_eq!(Climate::of_country("IE"), Climate::TemperateMaritime);
        assert_eq!(Climate::of_country("ES"), Climate::DrySeasonal);
        assert_eq!(Climate::of_country("??"), Climate::DrySeasonal);
    }

    #[test]
    fn schedule_is_deterministic() {
        let w = WeatherModel::new(7);
        let a = w.events("CD", BeamId(1), 3);
        let b = w.events("CD", BeamId(1), 3);
        assert_eq!(a, b);
        // different beams / days diverge (with overwhelming probability
        // at least one parameter differs across a few draws)
        let c = w.events("CD", BeamId(2), 3);
        let d = w.events("CD", BeamId(1), 4);
        assert!(a != c || a != d);
    }

    #[test]
    fn tropical_rains_more() {
        let w = WeatherModel::new(99);
        let days = 300;
        let count = |cc: &str| -> usize { (0..days).map(|d| w.events(cc, BeamId(0), d).len()).sum() };
        let tropical = count("NG");
        let dry = count("ES");
        assert!(tropical > 2 * dry, "tropical {tropical} vs dry {dry}");
    }

    #[test]
    fn event_envelope_shape() {
        let e = RainEvent { start_s: 1000, duration_s: 600, peak: 0.6 };
        assert_eq!(e.impairment_at(999), 0.0);
        assert_eq!(e.impairment_at(1600), 0.0);
        assert!(e.impairment_at(1001) > 0.0);
        // mid-event reaches the peak
        let mid = e.impairment_at(1300);
        assert!((mid - 0.6).abs() < 0.01, "{mid}");
        // edges ramp
        assert!(e.impairment_at(1050) < mid);
        assert!(e.impairment_at(1550) < mid);
    }

    #[test]
    fn impairment_bounded_and_mostly_zero() {
        let w = WeatherModel::new(3);
        let mut wet = 0;
        let n = 5_000;
        for i in 0..n {
            let t = SimTime::from_secs(i * 17 % (7 * SECS_PER_DAY));
            let imp = w.rain_impairment("CD", BeamId(0), t);
            assert!((0.0..=0.9).contains(&imp));
            if imp > 0.0 {
                wet += 1;
            }
        }
        let frac = wet as f64 / n as f64;
        // rain is an episode, not the norm — but it does happen
        assert!(frac > 0.005 && frac < 0.35, "{frac}");
    }
}
