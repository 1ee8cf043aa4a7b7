//! Rain-fade integration: storms scheduled by the weather model must
//! show up as transient satellite-RTT degradation, and tropical beams
//! must suffer more than dry ones.

use satwatch::satcom::channel::{default_peak_hour, SatelliteAccess};
use satwatch::satcom::geo::places;
use satwatch::satcom::link::{LinkConfig, LinkModel};
use satwatch::satcom::mac::{Mac, MacConfig};
use satwatch::satcom::pep::{PepConfig, PepModel};
use satwatch::satcom::{Beam, BeamId, CustomerId, Plan, Terminal, WeatherModel};
use satwatch::simcore::{BitRate, Rng, SimDuration, SimTime};
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

fn beam() -> Beam {
    Beam {
        id: BeamId(0),
        name: "ng-0".into(),
        country: "NG",
        down_capacity: BitRate::from_gbps(2),
        up_capacity: BitRate::from_mbps(600),
        peak_utilization: 0.4,
        night_utilization: 0.2,
        pep_provisioning: 1.0,
        impairment: 0.02,
    }
}

fn terminal() -> Terminal {
    Terminal {
        customer: CustomerId(0),
        address: Ipv4Addr::new(10, 0, 0, 1),
        country: "NG",
        location: places::NIGERIA_LAGOS,
        beam: BeamId(0),
        plan: Plan::Down30,
        home_rtt: SimDuration::from_millis(3),
    }
}

#[test]
fn rain_degrades_rtt_during_storms_only() {
    let weather = WeatherModel::new(12345);
    // find a day with a long storm on this beam
    let (day, event) = (0..60)
        .find_map(|day| {
            weather
                .events("NG", BeamId(0), day)
                .into_iter()
                .find(|e| e.duration_s > 1_200 && e.peak > 0.4 && e.start_s < 80_000)
                .map(|e| (day, e))
        })
        .expect("a decent storm within 60 days");
    let acc = access(Some(weather));
    let (b, term) = (beam(), terminal());
    let mid_storm = SimTime::from_secs(day * 86_400 + event.start_s + event.duration_s / 2);
    // a clear instant on the same day, well away from any event
    let clear_sec = (0..86_400u64)
        .step_by(600)
        .find(|&s| acc.impairment_at(&b, SimTime::from_secs(day * 86_400 + s)) < 0.05)
        .expect("some clear-sky minute");
    let clear = SimTime::from_secs(day * 86_400 + clear_sec);

    let mean_rtt = |t: SimTime, seed: u64| {
        let snap = acc.delay_snapshot(&b, &term, 12, t);
        let mut rng = Rng::new(seed);
        (0..3_000)
            .map(|_| {
                (snap.downlink(&mut rng) + term.home_rtt_sample(&mut rng) + snap.uplink(&mut rng, false)).as_secs_f64()
            })
            .sum::<f64>()
            / 3_000.0
    };
    let rainy = mean_rtt(mid_storm, 1);
    let dry = mean_rtt(clear, 1);
    assert!(rainy > dry + 0.05, "storm {rainy:.3}s vs clear {dry:.3}s");
    // and the impairment itself reflects the event envelope
    assert!(acc.impairment_at(&b, mid_storm) > acc.impairment_at(&b, clear));
}

#[test]
fn no_weather_model_means_static_impairment() {
    let acc = access(None);
    let b = beam();
    for s in (0..86_400).step_by(3_600) {
        let imp = acc.impairment_at(&b, SimTime::from_secs(s));
        assert!((imp - b.impairment).abs() < 1e-12);
    }
}

#[test]
fn tropical_beams_rain_more_than_dry_ones() {
    let weather = WeatherModel::new(777);
    let minutes_wet = |country: &str| -> usize {
        (0..30u64)
            .flat_map(|day| (0..86_400u64).step_by(1_800).map(move |s| (day, s)))
            .filter(|&(day, s)| {
                weather.rain_impairment(country, BeamId(3), SimTime::from_secs(day * 86_400 + s)) > 0.05
            })
            .count()
    };
    let tropical = minutes_wet("CD");
    let dry = minutes_wet("ES");
    assert!(tropical > dry, "tropical {tropical} vs dry {dry}");
}
