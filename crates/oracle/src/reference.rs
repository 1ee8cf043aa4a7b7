//! The packet path's reference: one event heap, one flow at a time,
//! one packet at a time.
//!
//! [`run_reference`] is what [`run`](satwatch_scenario::run()) must
//! equal on every config, written to be read in one sitting. It shares
//! only the config-derived inputs ([`setup`]) and [`build_enrichment`]
//! with the production path: no passes over per-flow runs, no cohorts,
//! no delay cache, no telemetry, and every packet reaches the flow
//! table's walker as a stretch of one row, where production walks long
//! ones.
//!
//! Why the two agree. All of a day's intents are scheduled before any
//! packet, so an intent wins a time tie against a packet. A flow's
//! packets are scheduled when its intent pops, so packets of an
//! earlier-started flow carry smaller sequence numbers and win time
//! ties against a later flow's. Within a flow, packets are scheduled in
//! emission order, which breaks ties among them. The production path's
//! merged order `(time, push order, row)`, with runs pushed in
//! intent-pop order and each run written in time order by emission,
//! none of its rows before its intent, is the same total order, and
//! its passes keep that order wherever flows meet (DESIGN.md §4
//! "Passes reproduce the heap's order").

use crate::EventQueue;
use satwatch_internet::ResolverId;
use satwatch_monitor::Probe;
use satwatch_netstack::{Packet, PacketColumns};
use satwatch_scenario::run::setup;
use satwatch_scenario::{build_enrichment, Dataset, ScenarioConfig};
use satwatch_simcore::{PayloadArena, SimTime};
use satwatch_traffic::{generate_day, FlowIntent};

enum Event {
    StartFlow(FlowIntent),
    Packet(Packet),
}

/// Run a scenario to completion on the naive path.
pub fn run_reference(cfg: ScenarioConfig) -> Dataset {
    let sim = setup(cfg);
    let mut probe = Probe::new(sim.probe_cfg);
    for day in 0..cfg.days {
        let mut queue = EventQueue::new();
        for (i, customer) in sim.population.customers.iter().enumerate() {
            let mut rng = sim.seeds.rng_idx("intents", day * 1_000_000 + i as u64);
            for mut intent in generate_day(customer, i, &sim.catalog, day, &mut rng) {
                if cfg.force_operator_dns {
                    intent.resolver = ResolverId::OperatorEu;
                }
                queue.schedule(intent.start, Event::StartFlow(intent));
            }
        }
        // flows may run one hour past midnight; later packets are cut
        let horizon = SimTime::from_secs((day + 1) * satwatch_simcore::time::SECS_PER_DAY + 3_600);
        let mut flow_rng = sim.seeds.rng_idx("flows", day);
        queue.run_until(horizon, |queue, t, event| match event {
            Event::StartFlow(intent) => {
                let customer = &sim.population.customers[intent.customer_index];
                let beam = sim.population.beam(customer.terminal.beam);
                let mut cols = PacketColumns::default();
                sim.model.simulate_flow(
                    &intent,
                    customer,
                    &sim.catalog,
                    beam,
                    &mut flow_rng,
                    &mut PayloadArena::new(),
                    &mut cols,
                );
                let mut packets = Vec::new();
                cols.materialize_into(&mut packets);
                for (t_pkt, packet) in packets {
                    // synthesis stamps no packet before its flow starts
                    // (tests/emission_order.rs)
                    queue.schedule(t_pkt, Event::Packet(packet));
                }
            }
            Event::Packet(packet) => probe.observe(t, &packet),
        });
    }
    let packets = probe.packets;
    let (flows, dns) = probe.finish();
    Dataset { flows, dns, enrichment: build_enrichment(&sim.population, sim.anon_seed, cfg.days), packets }
}
