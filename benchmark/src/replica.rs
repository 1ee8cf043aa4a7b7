//! The packet path of `scenario::run`, rebuilt from the layers' public
//! functions so a span can sit around each call: set-up, intent
//! generation, the serial cohort loop (plan 64 flows, emit them, push
//! the runs, drain the merge up to the next intent − 1 ns) and the
//! probe. It is the `threads == 1` arm of `scenario::run::drive_day`
//! and is only trusted when its flows and DNS log reproduce
//! `dataset_digest(&run(cfg))` bit for bit ([`Replica::dataset`]).

use crate::tracer::Tracer;
use satwatch_internet::{CdnCatalog, ResolverId};
use satwatch_monitor::{FlowTableConfig, ProbeConfig, ShardedProbe};
use satwatch_netstack::{PacketColumns, SortScratch};
use satwatch_satcom::channel::default_peak_hour;
use satwatch_satcom::geo::places;
use satwatch_satcom::{
    DelayCache, GroundStation, LinkConfig, LinkModel, Mac, MacConfig, PepConfig, PepModel, SatelliteAccess,
    WeatherModel,
};
use satwatch_scenario::flowsim::FlowPlan;
use satwatch_scenario::{build_enrichment, Dataset, NetModel, ScenarioConfig};
use satwatch_simcore::time::SECS_PER_DAY;
use satwatch_simcore::{ColMerge, PayloadArena, SeedTree, SimDuration, SimTime};
use satwatch_traffic::catalog::standard_catalog;
use satwatch_traffic::{build_population, generate_day, FlowIntent, Population, ServiceSpec};

/// Flows planned per cohort by the serial drive loop.
const COHORT: usize = 64;
/// The workload whose wall these spans explain first.
const WL: &str = "report_day";

/// Exact work counts of one replica pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub intents: u64,
    pub flows: u64,
    /// Rows emitted by flow synthesis.
    pub pkts_emitted: u64,
    /// Rows emitted that no IPv4 datagram could carry.
    pub pkts_oversize: u64,
    pub payload_bytes: u64,
    /// Column spans handed to the consumer, and the rows in them.
    pub spans: u64,
    pub pkts_drained: u64,
}

/// Who consumes the merged packet stream.
pub enum Consumer {
    /// Nobody: prices the merge on its own.
    Noop,
    Probe(Box<ShardedProbe>),
}

/// The deterministic inputs `scenario::run` derives from a config
/// before a packet moves.
pub struct Replica {
    cfg: ScenarioConfig,
    seeds: SeedTree,
    population: Population,
    catalog: Vec<ServiceSpec>,
    model: NetModel,
    anon_seed: u64,
    probe_cfg: ProbeConfig,
    prop_delays: Vec<SimDuration>,
}

impl Replica {
    pub fn new(cfg: ScenarioConfig) -> Replica {
        let seeds = SeedTree::new(cfg.seed);
        let population = build_population(cfg.customers, &seeds);
        let model = NetModel {
            access: SatelliteAccess {
                slot: places::SATELLITE,
                gs_location: places::GROUND_STATION_ITALY,
                mac: Mac::new(MacConfig::default()),
                link: LinkModel::new(LinkConfig::default()),
                pep: PepModel::new(PepConfig::default()),
                peak_hour_by_country: default_peak_hour,
                weather: Some(WeatherModel::new(seeds.rng("weather").next_u64())),
            },
            cdns: CdnCatalog::standard(),
            pep_enabled: cfg.pep_enabled,
            african_gs: cfg.african_ground_station,
        };
        let anon_seed = seeds.rng("anon").next_u64();
        let subnet = GroundStation::italy_default().customer_subnet;
        let probe_cfg = ProbeConfig { anon_seed, ..ProbeConfig::new(FlowTableConfig::new(subnet)) };
        let prop_delays = population
            .customers
            .iter()
            .map(|c| model.access.slot.bent_pipe_delay(c.terminal.location, model.access.gs_location))
            .collect();
        Replica { cfg, seeds, population, catalog: standard_catalog(), model, anon_seed, probe_cfg, prop_delays }
    }

    pub fn probe(&self) -> Consumer {
        Consumer::Probe(Box::new(ShardedProbe::new(self.probe_cfg, 1)))
    }

    /// One day's intents in the order the drive loop pops them:
    /// `(start, schedule order)`, customers scheduled in index order.
    pub fn intents(&self, day: u64, tr: &mut Tracer) -> Vec<FlowIntent> {
        let open = tr.begin("traffic.generate_day", WL);
        let mut intents = Vec::new();
        for (i, customer) in self.population.customers.iter().enumerate() {
            let mut rng = self.seeds.rng_idx("intents", day * 1_000_000 + i as u64);
            intents.extend(generate_day(customer, i, &self.catalog, day, &mut rng));
        }
        tr.end(open);
        if self.cfg.force_operator_dns {
            for intent in &mut intents {
                intent.resolver = ResolverId::OperatorEu;
            }
        }
        // stable: equal starts keep schedule order; `run` does this in
        // its private event queue, so no layer metric covers it
        tr.span("replica.sort_intents", WL, || intents.sort_by_key(|i| i.start));
        intents
    }

    /// Drive one day's intents through plan, emit, merge and `consumer`.
    pub fn drive_day(
        &self,
        day: u64,
        intents: &[FlowIntent],
        consumer: &mut Consumer,
        tr: &mut Tracer,
        counts: &mut Counts,
    ) {
        let horizon = SimTime::from_secs((day + 1) * SECS_PER_DAY + 3_600);
        let pending = &intents[..intents.partition_point(|i| i.start <= horizon)];
        counts.intents += intents.len() as u64;
        let mut flow_rng = self.seeds.rng_idx("flows", day);
        let mut merge: ColMerge<PacketColumns> = ColMerge::new();
        let mut scratch = SortScratch::default();
        let mut arena = PayloadArena::new();
        let mut delay_cache = DelayCache::new();
        delay_cache.begin_day(day);
        let mut delay_col: Vec<SimDuration> = Vec::new();
        let mut plans: Vec<FlowPlan> = Vec::with_capacity(COHORT);
        let mut runs: Vec<PacketColumns> = Vec::with_capacity(COHORT);
        let drain_name = match consumer {
            Consumer::Noop => "merge.drain",
            Consumer::Probe(_) => "monitor.drain_observe",
        };

        let mut next = 0;
        loop {
            // drain everything that must precede the next cohort's
            // first intent (intents win time ties), or up to the horizon
            let upto = match pending.get(next) {
                Some(i) if i.start == SimTime::ZERO => None,
                Some(i) => Some(SimTime::from_nanos(i.start.as_nanos() - 1)),
                None => Some(horizon),
            };
            if let Some(upto) = upto {
                let open = tr.begin(drain_name, WL);
                while let Some(n) = merge.next_span_upto(upto, |cols, start, end| {
                    if let Consumer::Probe(probe) = consumer {
                        probe.observe_cols(cols, start, end);
                    }
                    (end - start) as u64
                }) {
                    counts.spans += 1;
                    counts.pkts_drained += n;
                }
                tr.end(open);
            }
            if next == pending.len() {
                break;
            }
            let cohort = &pending[next..pending.len().min(next + COHORT)];
            next += cohort.len();
            counts.flows += cohort.len() as u64;

            let open = tr.begin("flowsim.plan", WL);
            plans.clear();
            delay_col.clear();
            for intent in cohort {
                let customer = &self.population.customers[intent.customer_index];
                plans.push(self.model.plan_flow_cached(
                    intent,
                    customer,
                    &self.catalog,
                    self.population.beam(customer.terminal.beam),
                    self.prop_delays[intent.customer_index],
                    &mut delay_cache,
                    &mut flow_rng,
                    &mut delay_col,
                ));
            }
            tr.end(open);

            let open = tr.begin("flowsim.emit", WL);
            for (intent, plan) in cohort.iter().zip(&plans) {
                let customer = &self.population.customers[intent.customer_index];
                let mut run = merge.take_buffer();
                self.model.emit_flow_open(intent, customer, plan, &delay_col, &mut arena, &mut run);
                run.clamp_and_sort(intent.start, &mut scratch);
                runs.push(run);
            }
            tr.end(open);
            for run in &runs {
                counts.pkts_emitted += run.len() as u64;
                counts.pkts_oversize += run.wire.iter().filter(|&&w| w > 65_535).count() as u64;
            }

            let open = tr.begin("merge.push", WL);
            let block = bytes::Bytes::from(arena.take());
            counts.payload_bytes += block.len() as u64;
            for mut run in runs.drain(..) {
                run.payload = block.clone();
                merge.push(run);
            }
            tr.end(open);
        }
    }

    /// Finish the probe and assemble what `scenario::run` returns.
    pub fn dataset(&self, consumer: Consumer, tr: &mut Tracer) -> Dataset {
        let Consumer::Probe(probe) = consumer else { panic!("only a probe pass yields a dataset") };
        let packets = probe.packets;
        let (flows, dns) = tr.span("monitor.finish", WL, || probe.finish());
        let enrichment = tr.span("scenario.build_enrichment", WL, || {
            build_enrichment(&self.population, self.anon_seed, self.cfg.days)
        });
        Dataset { flows, dns, enrichment, packets }
    }

    /// All days of the config through `consumer`.
    pub fn drive(&self, consumer: &mut Consumer, tr: &mut Tracer) -> Counts {
        let mut counts = Counts::default();
        for day in 0..self.cfg.days {
            let intents = self.intents(day, tr);
            self.drive_day(day, &intents, consumer, tr, &mut counts);
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::child::scenario;
    use satwatch_scenario::{dataset_digest, run};

    /// The acceptance test of the replica: same bytes as the real loop.
    #[test]
    fn replica_reproduces_the_run_digest_at_12_customers() {
        for (days, seed) in [(1, 42), (2, 7)] {
            let cfg = scenario(12, days, seed);
            let replica = Replica::new(cfg);
            let mut tr = Tracer::new();
            let mut consumer = replica.probe();
            let counts = replica.drive(&mut consumer, &mut tr);
            let ds = replica.dataset(consumer, &mut tr);
            let want = run(cfg);
            assert_eq!(ds.packets, want.packets);
            assert_eq!(dataset_digest(&ds), dataset_digest(&want), "days={days} seed={seed}");
            assert_eq!(counts.pkts_drained, want.packets);
            assert!(counts.flows > 0 && counts.pkts_emitted >= counts.pkts_drained);
            // the no-op pass walks the same stream
            let mut noop = Consumer::Noop;
            assert_eq!(replica.drive(&mut noop, &mut Tracer::new()), counts);
        }
    }
}
