//! End-to-end satellite segment delay composition.
//!
//! Combines propagation ([`crate::geo`]), MAC access/queueing
//! ([`crate::mac`]), ARQ recovery ([`crate::link`]) and PEP processing
//! ([`crate::pep`]) into per-packet one-way delays and the segment RTT
//! the monitor estimates via the TLS handshake. This is the quantity
//! behind Fig 8a/8b: floor ≥ 550 ms, seconds under congestion or
//! impairment.

use crate::beam::Beam;
use crate::cpe::Terminal;
use crate::geo::{GeoSlot, LatLon};
use crate::link::LinkModel;
use crate::mac::Mac;
use crate::pep::PepModel;
use crate::weather::WeatherModel;
use satwatch_simcore::{Rng, SimDuration, SimTime};
use std::sync::OnceLock;

/// Telemetry handles (write-only; see `satwatch-telemetry` docs).
struct Metrics {
    uplink: &'static satwatch_telemetry::Counter,
    downlink: &'static satwatch_telemetry::Counter,
    stalls: &'static satwatch_telemetry::Counter,
    pep_setup_us: &'static satwatch_telemetry::Histogram,
}

fn metrics() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        uplink: satwatch_telemetry::counter("satcom_uplink_traversals_total"),
        downlink: satwatch_telemetry::counter("satcom_downlink_traversals_total"),
        stalls: satwatch_telemetry::counter("satcom_stalls_total"),
        pep_setup_us: satwatch_telemetry::histogram("satcom_pep_setup_us"),
    })
}

/// The full satellite access network model (one satellite + one
/// ground station, as in the paper's deployment).
#[derive(Clone, Debug)]
pub struct SatelliteAccess {
    pub slot: GeoSlot,
    pub gs_location: LatLon,
    pub mac: Mac,
    pub link: LinkModel,
    pub pep: PepModel,
    /// Local hour of peak demand per beam's service area (Africa peaks
    /// in the morning, Europe in the evening — Fig 4).
    pub peak_hour_by_country: fn(&str) -> u32,
    /// Optional rain-fade model; `None` = clear skies everywhere.
    pub weather: Option<WeatherModel>,
}

/// Default peak hours (local): Europe evening prime time, Africa late
/// morning (paper §4).
pub fn default_peak_hour(country: &str) -> u32 {
    match country {
        "CD" | "NG" | "ZA" | "KE" | "GH" | "CM" | "SN" => 10,
        _ => 19,
    }
}

impl SatelliteAccess {
    /// Beam utilization at a local hour.
    pub fn utilization(&self, beam: &Beam, local_hour: u32) -> f64 {
        beam.utilization_at(local_hour, (self.peak_hour_by_country)(beam.country))
    }

    /// Instantaneous channel impairment: static geometry/coverage-edge
    /// term plus any rain fade at `t`.
    pub fn impairment_at(&self, beam: &Beam, t: SimTime) -> f64 {
        let rain = self.weather.map_or(0.0, |w| w.rain_impairment(beam.country, beam.id, t));
        (beam.impairment + rain).min(0.95)
    }

    /// Snapshot the RNG-free delay inputs for one flow: utilization,
    /// channel impairment, bent-pipe propagation and PEP pressure are
    /// pure functions of (beam, terminal, hour, t), constant across
    /// every packet of a flow. The snapshot's
    /// [`uplink`](DelaySnapshot::uplink),
    /// [`downlink`](DelaySnapshot::downlink) and
    /// [`pep_setup`](DelaySnapshot::pep_setup) draw the per-packet
    /// terms from the RNG.
    pub fn delay_snapshot<'a>(
        &'a self,
        beam: &'a Beam,
        terminal: &Terminal,
        local_hour: u32,
        t: SimTime,
    ) -> DelaySnapshot<'a> {
        let utilization = self.utilization(beam, local_hour);
        DelaySnapshot {
            access: self,
            beam,
            utilization,
            impairment: self.impairment_at(beam, t),
            propagation: self.slot.bent_pipe_delay(terminal.location, self.gs_location),
            pep_utilization: PepModel::effective_utilization(utilization, beam.pep_provisioning),
        }
    }
}

/// Memo of the per-flow-constant delay-snapshot inputs, for drivers
/// that plan thousands of flows against a handful of beams (the
/// cohort synthesis loop): the rain-event schedule per (beam, day)
/// and the diurnal utilization per (beam, hour) are pure functions
/// that [`SatelliteAccess::delay_snapshot`] otherwise recomputes per
/// flow — a Vec allocation plus a Poisson schedule for the rain term,
/// a cosine for the utilization.
/// [`SatelliteAccess::delay_snapshot_cached`] assembles the same
/// snapshot from the memo, value-for-value.
#[derive(Default)]
pub struct DelayCache {
    /// (beam, day) → that day's rain events.
    rain: std::collections::HashMap<(u16, u64), Vec<crate::weather::RainEvent>>,
    /// (beam, local hour) → diurnal utilization.
    util: std::collections::HashMap<(u16, u32), f64>,
}

impl DelayCache {
    pub fn new() -> DelayCache {
        DelayCache::default()
    }

    /// Drop rain schedules for days before `day` (drivers move through
    /// days monotonically, so earlier schedules are dead; utilization
    /// entries are a fixed `beams × 24` set and stay).
    pub fn begin_day(&mut self, day: u64) {
        self.rain.retain(|&(_, d), _| d >= day);
    }
}

impl SatelliteAccess {
    /// [`Self::delay_snapshot`] with the per-flow-constant inputs
    /// memoized in `cache`, and the terminal's bent-pipe propagation
    /// precomputed by the caller (it is a pure per-terminal constant —
    /// two haversines). Field-for-field identical to the uncached
    /// constructor: every memo entry is a pure function of its key,
    /// and the rain sum runs over the same event order.
    pub fn delay_snapshot_cached<'a>(
        &'a self,
        beam: &'a Beam,
        propagation: SimDuration,
        local_hour: u32,
        t: SimTime,
        cache: &mut DelayCache,
    ) -> DelaySnapshot<'a> {
        let utilization =
            *cache.util.entry((beam.id.0, local_hour)).or_insert_with(|| self.utilization(beam, local_hour));
        let rain = match &self.weather {
            None => 0.0,
            Some(w) => {
                let day = t.day();
                let sec = t.as_secs() % satwatch_simcore::time::SECS_PER_DAY;
                let events = cache.rain.entry((beam.id.0, day)).or_insert_with(|| w.events(beam.country, beam.id, day));
                events.iter().map(|e| e.impairment_at(sec)).sum::<f64>().min(0.9)
            }
        };
        DelaySnapshot {
            access: self,
            beam,
            utilization,
            impairment: (beam.impairment + rain).min(0.95),
            propagation,
            pep_utilization: PepModel::effective_utilization(utilization, beam.pep_provisioning),
        }
    }
}

/// Per-flow snapshot of the deterministic delay terms — see
/// [`SatelliteAccess::delay_snapshot`]. Holds everything the
/// per-packet samplers need except the RNG.
pub struct DelaySnapshot<'a> {
    access: &'a SatelliteAccess,
    beam: &'a Beam,
    utilization: f64,
    impairment: f64,
    propagation: SimDuration,
    pep_utilization: f64,
}

impl<'a> DelaySnapshot<'a> {
    /// Wrap this snapshot in a [`DelayPlanner`] that records every
    /// sampled delay term into `col` (the cohort's shared delay
    /// column) for RNG-free replay during batched emission.
    pub fn planner<'c>(self, col: &'c mut Vec<SimDuration>) -> DelayPlanner<'a, 'c> {
        let start = col.len() as u32;
        DelayPlanner { snap: self, col, start }
    }

    /// The beam utilization this snapshot was built with — the same
    /// value [`SatelliteAccess::utilization`] returns for the flow's
    /// (beam, hour), exposed so rate shapers need not recompute the
    /// diurnal curve per flow.
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// PEP connection-setup delay on this beam at this hour (charged
    /// once per TCP connection at the ground proxy).
    pub fn pep_setup(&self, rng: &mut Rng) -> SimDuration {
        let d = self.access.pep.setup_delay(rng, self.pep_utilization);
        metrics().pep_setup_us.record((d.as_nanos() / 1_000).max(0) as u64);
        d
    }

    /// One-way uplink delay (CPE → ground station) for one packet:
    /// propagation, MAC access/queueing, ARQ recovery, PEP processing
    /// and the heavy-tail stall draw, in that (RNG-visible) order.
    pub fn uplink(&self, rng: &mut Rng, cold_start: bool) -> SimDuration {
        metrics().uplink.inc();
        let mac = self.access.mac.uplink_delay(rng, self.utilization, cold_start);
        let arq = self.access.link.arq_delay(rng, self.impairment);
        let pep = self.access.pep.forward_delay(rng, self.pep_utilization);
        self.propagation + mac + arq + pep + self.stall(rng)
    }

    /// One-way downlink delay (ground station → CPE) for one packet,
    /// in the same draw order as [`uplink`](Self::uplink).
    pub fn downlink(&self, rng: &mut Rng) -> SimDuration {
        metrics().downlink.inc();
        let mac = self.access.mac.downlink_delay(rng, self.utilization);
        let arq = self.access.link.arq_delay(rng, self.impairment);
        let pep = self.access.pep.forward_delay(rng, self.pep_utilization);
        self.propagation + mac + arq + pep + self.stall(rng)
    }

    /// Heavy-tail stall term: occasional multi-frame backlogs that the
    /// paper attributes to the MAC scheduler and the saturated PEP on
    /// bandwidth-constrained beams ("about 20 % of RTT samples are
    /// longer than 2 s", §6.1), and to channel impairments at the
    /// coverage edge (Ireland). Two mechanisms, one Pareto tail:
    ///
    /// * congestion pressure `C = util × (1/provisioning − 1)` — zero
    ///   on well-provisioned beams, large on Congo-like ones;
    /// * impairment pressure `I = impairment²`.
    ///
    /// Each traversal stalls with probability `0.18·C + 0.25·I`
    /// (clamped), drawing from a bounded Pareto of scale one frame
    /// floor ~0.7 s and tail index 1.4.
    fn stall(&self, rng: &mut Rng) -> SimDuration {
        let c = (self.utilization * (1.0 / self.beam.pep_provisioning.max(0.05) - 1.0)).clamp(0.0, 1.2);
        let i = self.impairment * self.impairment;
        let p = (0.18 * c + 0.25 * i).clamp(0.0, 0.6);
        if !rng.chance(p) {
            return SimDuration::ZERO;
        }
        metrics().stalls.inc();
        // bounded Pareto(xm = 0.7 s, alpha = 1.4, cap = 10 s)
        let x = 0.7 / rng.f64_open().powf(1.0 / 1.4);
        SimDuration::from_secs_f64(x.min(10.0))
    }
}

/// Recording façade over a [`DelaySnapshot`]: each sampler draws from
/// the RNG in exactly the snapshot's order and appends the drawn value
/// to a shared per-cohort delay column. The flow's `(start, end)`
/// slice of that column (from [`finish`](Self::finish)) lets the
/// emission pass replay the terms positionally without touching the
/// parent RNG — the cohort-synthesis contract of DESIGN.md §8.
pub struct DelayPlanner<'a, 'c> {
    snap: DelaySnapshot<'a>,
    col: &'c mut Vec<SimDuration>,
    start: u32,
}

impl DelayPlanner<'_, '_> {
    /// Sample and record one uplink traversal.
    pub fn up(&mut self, rng: &mut Rng, cold_start: bool) {
        let d = self.snap.uplink(rng, cold_start);
        self.col.push(d);
    }

    /// Sample and record one downlink traversal.
    pub fn down(&mut self, rng: &mut Rng) {
        let d = self.snap.downlink(rng);
        self.col.push(d);
    }

    /// Record an externally sampled term (home RTT, resolver response
    /// time, PEP setup) at its position in the flow's draw order.
    pub fn push(&mut self, d: SimDuration) {
        self.col.push(d);
    }

    /// The underlying snapshot, for per-flow terms that are functions
    /// of its inputs but live outside the delay column (rate shaping,
    /// PEP setup).
    pub fn snapshot(&self) -> &DelaySnapshot<'_> {
        &self.snap
    }

    /// Close out the flow's slice of the delay column.
    pub fn finish(self) -> (u32, u32) {
        (self.start, self.col.len() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beam::{Beam, BeamId};
    use crate::cpe::CustomerId;
    use crate::geo::places;
    use crate::link::LinkConfig;
    use crate::mac::MacConfig;
    use crate::pep::PepConfig;
    use crate::shaper::Plan;
    use satwatch_simcore::BitRate;
    use std::net::Ipv4Addr;

    fn access() -> SatelliteAccess {
        SatelliteAccess {
            slot: places::SATELLITE,
            gs_location: places::GROUND_STATION_ITALY,
            mac: Mac::new(MacConfig::default()),
            link: LinkModel::new(LinkConfig::default()),
            pep: PepModel::new(PepConfig::default()),
            peak_hour_by_country: default_peak_hour,
            weather: None,
        }
    }

    fn beam(country: &'static str, night: f64, peak: f64, pep: f64, impairment: f64) -> Beam {
        Beam {
            id: BeamId(0),
            name: format!("{country}-0"),
            country,
            down_capacity: BitRate::from_gbps(1),
            up_capacity: BitRate::from_mbps(300),
            peak_utilization: peak,
            night_utilization: night,
            pep_provisioning: pep,
            impairment,
        }
    }

    fn terminal(country: &'static str, loc: crate::geo::LatLon) -> Terminal {
        Terminal {
            customer: CustomerId(0),
            address: Ipv4Addr::new(10, 0, 0, 1),
            country,
            location: loc,
            beam: BeamId(0),
            plan: Plan::Down30,
            home_rtt: SimDuration::from_millis(3),
        }
    }

    /// One satellite-segment RTT sample as the TLS estimator sees it:
    /// downlink, home segment, uplink — flow synthesis's draw order.
    fn rtt_sample(snap: &DelaySnapshot<'_>, t: &Terminal, rng: &mut Rng, cold: bool) -> SimDuration {
        snap.downlink(rng) + t.home_rtt_sample(rng) + snap.uplink(rng, cold)
    }

    fn rtt_quantiles(b: &Beam, t: &Terminal, hour: u32, seed: u64) -> (f64, f64, f64) {
        let acc = access();
        let snap = acc.delay_snapshot(b, t, hour, SimTime::from_secs(hour as u64 * 3600));
        let mut rng = Rng::new(seed);
        let mut v: Vec<f64> = (0..4000).map(|_| rtt_sample(&snap, t, &mut rng, false).as_secs_f64()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        (v[v.len() / 10], v[v.len() / 2], v[v.len() * 9 / 10])
    }

    #[test]
    fn rtt_floor_above_550ms() {
        // An idle, perfectly placed beam still cannot beat the physics
        // + one MAC frame each way.
        let b = beam("ES", 0.05, 0.2, 1.0, 0.01);
        let t = terminal("ES", places::SPAIN_MADRID);
        let acc = access();
        let snap = acc.delay_snapshot(&b, &t, 3, SimTime::from_secs(3 * 3600));
        let mut rng = Rng::new(1);
        for _ in 0..2000 {
            let rtt = rtt_sample(&snap, &t, &mut rng, false);
            assert!(rtt >= SimDuration::from_millis(540), "{rtt}");
        }
        let (p10, p50, _) = rtt_quantiles(&b, &t, 3, 2);
        assert!(p10 > 0.55 && p10 < 0.8, "p10 {p10}");
        assert!(p50 < 1.0, "median at night in Spain must be < 1 s, got {p50}");
    }

    #[test]
    fn congested_beam_inflates_rtt_at_peak() {
        // Congo-like: saturated beam, under-provisioned PEP.
        let b = beam("CD", 0.55, 0.93, 0.45, 0.05);
        let t = terminal("CD", places::CONGO_KINSHASA);
        let (_, night_med, _) = rtt_quantiles(&b, &t, 3, 3);
        let (_, peak_med, peak_p90) = rtt_quantiles(&b, &t, 10, 3);
        assert!(peak_med > night_med, "peak {peak_med} vs night {night_med}");
        assert!(peak_p90 > 1.5, "tail should reach seconds: {peak_p90}");
    }

    #[test]
    fn impaired_beam_bad_even_at_night() {
        // Ireland-like: idle beam, strong impairment.
        let b = beam("IE", 0.15, 0.4, 1.0, 0.6);
        let t = terminal("IE", places::IRELAND_DUBLIN);
        let (_, night_med, night_p90) = rtt_quantiles(&b, &t, 3, 4);
        let (_, peak_med, _) = rtt_quantiles(&b, &t, 19, 4);
        // night ≈ peak (paper: "practically identical RTT during
        // nighttime and peak hours rule out congestion")
        assert!((peak_med - night_med).abs() / night_med < 0.35, "night {night_med} peak {peak_med}");
        // and the tail is heavy regardless of hour
        assert!(night_p90 > 1.2, "{night_p90}");
    }

    #[test]
    fn pep_setup_slow_on_underprovisioned_beam() {
        let acc = access();
        let healthy = beam("ES", 0.2, 0.5, 1.0, 0.0);
        let starved = beam("CD", 0.5, 0.93, 0.4, 0.0);
        let t = terminal("CD", places::CONGO_KINSHASA);
        let mean = |b: &Beam, seed| {
            let snap = acc.delay_snapshot(b, &t, 10, SimTime::from_secs(10 * 3600));
            let mut rng = Rng::new(seed);
            (0..3000).map(|_| snap.pep_setup(&mut rng).as_millis_f64()).sum::<f64>() / 3000.0
        };
        assert!(mean(&starved, 5) > 20.0 * mean(&healthy, 5));
    }

    #[test]
    fn stall_tail_reaches_seconds_on_starved_beams() {
        let acc = access();
        let at = SimTime::from_secs(3 * 3600);
        // Congo-like: under-provisioned PEP, high utilization
        let starved = beam("CD", 0.6, 0.93, 0.45, 0.05);
        let t = terminal("CD", places::CONGO_KINSHASA);
        let snap = acc.delay_snapshot(&starved, &t, 3, at);
        let mut rng = Rng::new(71);
        let n = 6000;
        let over_2s = (0..n).filter(|_| rtt_sample(&snap, &t, &mut rng, false) > SimDuration::from_secs(2)).count()
            as f64
            / n as f64;
        // paper: ~20 % of samples above 2 s already off-peak
        assert!((0.08..0.40).contains(&over_2s), "{over_2s}");
        // healthy beam: rare
        let healthy = beam("ES", 0.15, 0.45, 1.0, 0.02);
        let te = terminal("ES", places::SPAIN_MADRID);
        let snap = acc.delay_snapshot(&healthy, &te, 3, at);
        let over_2s_h = (0..n).filter(|_| rtt_sample(&snap, &te, &mut rng, false) > SimDuration::from_secs(2)).count()
            as f64
            / n as f64;
        assert!(over_2s_h < 0.03, "{over_2s_h}");
    }

    #[test]
    fn stall_probability_zero_without_pressure() {
        // a fully provisioned PEP and a clean channel: no stall at any load
        let acc = access();
        let b = beam("ES", 0.1, 0.3, 1.0, 0.0);
        let t = terminal("ES", places::SPAIN_MADRID);
        let snap = acc.delay_snapshot(&b, &t, 19, SimTime::from_secs(19 * 3600));
        let mut rng = Rng::new(5);
        for _ in 0..2000 {
            assert_eq!(snap.stall(&mut rng), SimDuration::ZERO);
        }
    }

    #[test]
    fn cold_start_visible_in_rtt() {
        let b = beam("ES", 0.2, 0.5, 1.0, 0.01);
        let t = terminal("ES", places::SPAIN_MADRID);
        let acc = access();
        let snap = acc.delay_snapshot(&b, &t, 12, SimTime::from_secs(12 * 3600));
        let mean = |cold: bool, seed| {
            let mut rng = Rng::new(seed);
            (0..3000).map(|_| rtt_sample(&snap, &t, &mut rng, cold).as_secs_f64()).sum::<f64>() / 3000.0
        };
        assert!(mean(true, 6) > mean(false, 6) + 0.04);
    }
}
