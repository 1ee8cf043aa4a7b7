//! Property tests for the SatCom substrate: physical bounds hold for
//! arbitrary geometry, loads, and times.

use proptest::prelude::*;
use satwatch_satcom::beam::{Beam, BeamId};
use satwatch_satcom::channel::{default_peak_hour, DelayCache, SatelliteAccess};
use satwatch_satcom::geo::{places, GeoSlot, LatLon};
use satwatch_satcom::link::{LinkConfig, LinkModel};
use satwatch_satcom::mac::{Mac, MacConfig};
use satwatch_satcom::pep::{PepConfig, PepModel};
use satwatch_satcom::shaper::Plan;
use satwatch_satcom::weather::WeatherModel;
use satwatch_satcom::{CustomerId, Terminal};
use satwatch_simcore::{BitRate, Rng, SimDuration, SimTime};
use std::net::Ipv4Addr;

fn access(weather: Option<WeatherModel>) -> SatelliteAccess {
    SatelliteAccess {
        slot: places::SATELLITE,
        gs_location: places::GROUND_STATION_ITALY,
        mac: Mac::new(MacConfig::default()),
        link: LinkModel::new(LinkConfig::default()),
        pep: PepModel::new(PepConfig::default()),
        peak_hour_by_country: default_peak_hour,
        weather,
    }
}

proptest! {
    #[test]
    fn elevation_bounded(lat in -80.0f64..80.0, lon in -180.0f64..180.0, slot in -180.0f64..180.0) {
        let s = GeoSlot::new(slot);
        let e = s.elevation_deg(LatLon::new(lat, lon));
        prop_assert!((-90.0..=90.0).contains(&e), "{e}");
        let imp = s.impairment(LatLon::new(lat, lon));
        prop_assert!((0.0..=1.0).contains(&imp));
    }

    #[test]
    fn slant_range_at_least_altitude(lat in -80.0f64..80.0, lon in -180.0f64..180.0) {
        let s = GeoSlot::new(0.0);
        let d = s.slant_range_km(LatLon::new(lat, lon));
        prop_assert!(d >= satwatch_satcom::geo::GEO_ALTITUDE_KM - 1.0);
        if s.elevation_deg(LatLon::new(lat, lon)) >= 0.0 {
            // visible terminals: at most the Earth-tangent maximum (~41 680 km)
            prop_assert!(d < 41_700.0, "{d}");
        } else {
            // beyond the horizon the chord can reach Re + r (~48 530 km)
            prop_assert!(d < 48_600.0, "{d}");
        }
    }

    #[test]
    fn utilization_between_calibration_points(night in 0.0f64..0.9, extra in 0.0f64..0.1,
                                              hour in 0u32..24) {
        let peak = night + extra;
        let beam = Beam {
            id: BeamId(0),
            name: "x".into(),
            country: "ES",
            down_capacity: BitRate::from_gbps(1),
            up_capacity: BitRate::from_mbps(100),
            peak_utilization: peak,
            night_utilization: night,
            pep_provisioning: 1.0,
            impairment: 0.0,
        };
        let u = beam.utilization_at(hour, 19);
        prop_assert!(u >= night - 1e-12 && u <= peak + 1e-12, "{u}");
    }

    #[test]
    fn segment_rtt_above_propagation_floor(seed in any::<u64>(), hour in 0u32..24,
                                           util in 0.0f64..0.95, imp in 0.0f64..0.9,
                                           day_secs in 0u64..(3 * 86_400)) {
        let acc = access(Some(WeatherModel::new(seed)));
        let beam = Beam {
            id: BeamId(0),
            name: "p".into(),
            country: "CD",
            down_capacity: BitRate::from_gbps(1),
            up_capacity: BitRate::from_mbps(100),
            peak_utilization: util.max(0.05),
            night_utilization: (util * 0.5).max(0.02),
            pep_provisioning: 0.5,
            impairment: imp,
        };
        let terminal = Terminal {
            customer: CustomerId(0),
            address: Ipv4Addr::new(10, 0, 0, 1),
            country: "CD",
            location: places::CONGO_KINSHASA,
            beam: BeamId(0),
            plan: Plan::Down10,
            home_rtt: SimDuration::from_millis(3),
        };
        let snap = acc.delay_snapshot(&beam, &terminal, hour, SimTime::from_secs(day_secs));
        let mut rng = Rng::new(seed);
        let rtt = snap.downlink(&mut rng) + terminal.home_rtt_sample(&mut rng) + snap.uplink(&mut rng, false);
        // two bent-pipe traversals ≈ 500 ms minimum, plus processing
        prop_assert!(rtt >= SimDuration::from_millis(500), "{rtt}");
        // and bounded: caps on every stochastic term
        prop_assert!(rtt <= SimDuration::from_secs(60), "{rtt}");
    }

    #[test]
    fn weather_impairment_bounded_everywhere(seed in any::<u64>(), secs in 0u64..(30 * 86_400),
                                             beam_id in 0u16..64) {
        let w = WeatherModel::new(seed);
        for country in ["CD", "NG", "IE", "ES", "UK", "??"] {
            let imp = w.rain_impairment(country, BeamId(beam_id), SimTime::from_secs(secs));
            prop_assert!((0.0..=0.9).contains(&imp), "{country}: {imp}");
        }
    }

    #[test]
    fn pep_delays_nonnegative_bounded(rho in 0.0f64..2.0, seed in any::<u64>()) {
        let pep = PepModel::new(PepConfig::default());
        let mut rng = Rng::new(seed);
        for _ in 0..50 {
            let s = pep.setup_delay(&mut rng, rho);
            prop_assert!(!s.is_negative() && s <= SimDuration::from_secs(8));
            let f = pep.forward_delay(&mut rng, rho);
            prop_assert!(!f.is_negative() && f <= SimDuration::from_secs(1));
        }
    }

    /// `delay_snapshot_cached` is field-for-field `delay_snapshot`: one
    /// cache carried through three days of lookups on a few beams, with
    /// `begin_day` at each midnight and lookups into the spill hour, as
    /// the day loop carries it, draws the same bits as the uncached
    /// snapshot from the same seed.
    #[test]
    fn cached_snapshot_draws_what_the_uncached_one_draws(
        seed in any::<u64>(),
        beams in proptest::collection::vec((0.0f64..0.6, 0.0f64..0.39, 0.3f64..1.0, 0.0f64..0.8), 1..4),
        lookups in proptest::collection::vec((0usize..4, 0u32..24, 0u64..(86_400 + 3_600), any::<bool>()), 1..40),
    ) {
        let acc = access(Some(WeatherModel::new(seed)));
        let sites = [("CD", places::CONGO_KINSHASA), ("IE", places::IRELAND_DUBLIN), ("ES", places::SPAIN_MADRID)];
        let beams: Vec<(Beam, Terminal)> = beams
            .iter()
            .enumerate()
            .map(|(i, &(night, extra, pep, imp))| {
                let (country, location) = sites[i % sites.len()];
                let beam = Beam {
                    id: BeamId(i as u16),
                    name: format!("{country}-{i}"),
                    country,
                    down_capacity: BitRate::from_gbps(1),
                    up_capacity: BitRate::from_mbps(100),
                    peak_utilization: night + extra,
                    night_utilization: night,
                    pep_provisioning: pep,
                    impairment: imp,
                };
                let terminal = Terminal {
                    customer: CustomerId(i as u32),
                    address: Ipv4Addr::new(10, 0, 0, 1 + i as u8),
                    country,
                    location,
                    beam: BeamId(i as u16),
                    plan: Plan::Down30,
                    home_rtt: SimDuration::from_millis(3),
                };
                (beam, terminal)
            })
            .collect();
        let mut cache = DelayCache::new();
        for day in 0..3u64 {
            cache.begin_day(day);
            for &(b, hour, sec, cold) in &lookups {
                let (beam, terminal) = &beams[b % beams.len()];
                let t = SimTime::from_secs(day * 86_400 + sec);
                let plain = acc.delay_snapshot(beam, terminal, hour, t);
                let propagation = acc.slot.bent_pipe_delay(terminal.location, acc.gs_location);
                let cached = acc.delay_snapshot_cached(beam, propagation, hour, t, &mut cache);
                prop_assert_eq!(plain.utilization().to_bits(), cached.utilization().to_bits());
                let (mut a, mut c) = (Rng::new(seed ^ sec), Rng::new(seed ^ sec));
                prop_assert_eq!(plain.uplink(&mut a, cold), cached.uplink(&mut c, cold), "day {} beam {}", day, b);
                prop_assert_eq!(plain.downlink(&mut a), cached.downlink(&mut c));
                prop_assert_eq!(plain.pep_setup(&mut a), cached.pep_setup(&mut c));
            }
        }
    }
}
