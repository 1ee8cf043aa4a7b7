//! The pass driver against the reference's event heap.
//!
//! `Probe::observe_runs` reads every live run's rows below a bound as
//! one slice per run. The reference (`satwatch_oracle::run_reference`)
//! schedules every packet on one `EventQueue` and hands each to
//! `Probe::observe` as it pops. Both are driven here over random
//! synthetic days built to meet every place where flows couple:
//! five-tuples reused by two runs live at once, with a FIN or RST
//! mid-run that makes the reuse open a new flow; DNS queries from
//! different runs (and ports) under one `(client, resolver, id)`; rows
//! tied to the nanosecond across runs, on whole seconds, so sweep
//! boundaries land on rows; a midnight rewind and the horizon cut.
//! Everything the probe lets out must agree: the log — evicted flows
//! in eviction order, DNS transactions in observation order, before
//! any sort — every `SealMarks`, the rows a tap sees, and the exported
//! state.

use bytes::Bytes;
use proptest::prelude::*;
use satwatch_monitor::{FlowTableConfig, LiveRuns, Probe, ProbeConfig};
use satwatch_netstack::columns::NO_ARENA;
use satwatch_netstack::dns::{DnsMessage, RecordType};
use satwatch_netstack::{Packet, PacketColumns, SortScratch, Subnet, TcpFlags};
use satwatch_oracle::EventQueue;
use satwatch_simcore::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Seconds of intents per simulated day, and the spill past it: the
/// next day starts before the last one's horizon.
const DAY_S: u64 = 400;
const SPILL_S: u64 = 100;
const RESOLVER: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);
static ZEROS: [u8; 1_500] = [0; 1_500];

fn cfg() -> ProbeConfig {
    ProbeConfig::new(FlowTableConfig::new(Subnet::new(Ipv4Addr::new(10, 0, 0, 0), 8)))
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// One run under construction: rows in emission order, DNS bytes in
/// the run's own payload block.
struct RunBuilder {
    cols: PacketColumns,
    arena: Vec<u8>,
}

impl RunBuilder {
    fn new() -> RunBuilder {
        RunBuilder { cols: PacketColumns::default(), arena: Vec::new() }
    }

    fn dns(&mut self, t: SimTime, src: Ipv4Addr, dst: Ipv4Addr, sport: u16, dport: u16, msg: &DnsMessage) {
        let off = self.arena.len();
        msg.encode_into(&mut self.arena);
        self.cols.push_udp(t, src, dst, sport, dport, off as u32, (self.arena.len() - off) as u32);
    }

    /// Time-ordered and starting no earlier than the intent, as
    /// synthesis emits a run (`crates/scenario/tests/emission_order.rs`).
    fn finish(mut self, start: SimTime) -> PacketColumns {
        self.cols.payload = Bytes::from(self.arena);
        self.cols.zeros = Bytes::from_static(&ZEROS);
        self.cols.clamp_and_sort(start, &mut SortScratch::default());
        self.cols
    }
}

/// A DNS transaction: query `q` seconds after `t0`, the answer `a`
/// seconds after that (past the 5 s timeout sometimes), or none.
#[allow(clippy::too_many_arguments)]
fn dns_transaction(
    b: &mut RunBuilder,
    t0: u64,
    client: Ipv4Addr,
    port: u16,
    id: u16,
    q: u64,
    a: Option<u64>,
    name: &str,
) {
    let query = DnsMessage::query(id, name, RecordType::A);
    b.dns(secs(t0 + q), client, RESOLVER, port, 53, &query);
    if let Some(a) = a {
        let answer = DnsMessage::answer_a(&query, &[Ipv4Addr::new(198, 18, 0, 9)], 60);
        b.dns(secs(t0 + q + a), RESOLVER, client, 53, port, &answer);
    }
}

/// One flow's run starting at `t0`: maybe a DNS lookup, then a TCP or
/// UDP flow on a five-tuple drawn from a small pool, rows on whole
/// seconds, sometimes closed mid-run by RST or a FIN pair and reused
/// after.
fn random_run(rng: &mut TestRng, t0: u64) -> PacketColumns {
    let mut b = RunBuilder::new();
    let client = Ipv4Addr::new(10, 0, 0, 1 + rng.below(2) as u8);
    if rng.below(2) == 0 {
        let port = 5_000 + rng.below(3) as u16;
        let answer = (rng.below(5) != 0).then(|| rng.below(8));
        let name = ["a.example", "b.example"][rng.below(2) as usize];
        dns_transaction(&mut b, t0, client, port, 1 + rng.below(2) as u16, rng.below(3), answer, name);
    }
    let server = Ipv4Addr::new(198, 18, 0, 1 + rng.below(2) as u8);
    let cport = 40_000 + rng.below(2) as u16;
    let tcp = rng.below(4) != 0;
    let n = 1 + rng.below(12) as usize;
    let mut offs: Vec<u64> = (0..n).map(|_| 4 + rng.below(90)).collect();
    offs.sort_unstable();
    let close = (rng.below(10) < 4).then(|| 1 + rng.below(n as u64) as usize);
    let (mut cseq, mut sseq) = (rng.below(1 << 20) as u32, rng.below(1 << 20) as u32);
    for (i, &off) in offs.iter().enumerate() {
        let t = secs(t0 + off);
        let c2s = i == 0 || rng.below(2) == 0;
        let (src, dst, sp, dp) = if c2s { (client, server, cport, 443) } else { (server, client, 443, cport) };
        let len = if rng.below(3) == 0 { 0 } else { 1 + rng.below(1_400) as u32 };
        if !tcp {
            b.cols.push_udp(t, src, dst, sp, dp, NO_ARENA, len);
            continue;
        }
        let flags = match (i, close) {
            (0, _) => TcpFlags::SYN,
            (i, Some(c)) if i == c && rng.below(2) == 0 => TcpFlags::RST,
            (i, Some(c)) if i == c || i == c + 1 => TcpFlags::FIN_ACK,
            _ if len > 0 => TcpFlags::PSH_ACK,
            _ => TcpFlags::ACK,
        };
        let len = if flags.syn() || flags.rst() { 0 } else { len };
        let (seq, ack) = if c2s { (&mut cseq, sseq) } else { (&mut sseq, cseq) };
        let at = *seq;
        *seq = seq.wrapping_add(len + u32::from(flags.syn() || flags.fin()));
        b.cols.push_tcp(t, src, dst, sp, dp, flags, 0, at, ack, NO_ARENA, len);
    }
    b.finish(secs(t0))
}

/// Two runs asking under one `(client, resolver, id)` from different
/// ports, the second before the first is answered: one query replaces
/// the other whatever else the case draws.
fn colliding_lookups(t0: u64) -> [PacketColumns; 2] {
    let client = Ipv4Addr::new(10, 0, 0, 3);
    [(5_100, 1, 3), (5_101, 2, 4)].map(|(port, q, a)| {
        let mut b = RunBuilder::new();
        dns_transaction(&mut b, t0, client, port, 7, q, Some(a), "c.example");
        b.finish(secs(t0))
    })
}

/// One simulated day: cohorts of runs, each cohort under the intent
/// time of its first run.
fn random_day(rng: &mut TestRng, day: u64) -> Vec<(SimTime, Vec<PacketColumns>)> {
    let start = day * DAY_S;
    let mut intents: Vec<u64> = (0..8 + rng.below(40)).map(|_| start + rng.below(DAY_S)).collect();
    intents.sort_unstable();
    let mut cohorts = Vec::new();
    if day == 0 {
        cohorts.push((SimTime::ZERO, colliding_lookups(0).into()));
    }
    let mut i = 0;
    while i < intents.len() {
        let n = (1 + rng.below(5) as usize).min(intents.len() - i);
        let runs = intents[i..i + n].iter().map(|&t0| random_run(rng, t0)).collect();
        cohorts.push((secs(intents[i]), runs));
        i += n;
    }
    cohorts
}

proptest! {
    #[test]
    fn pass_driver_matches_the_heap(seed in any::<u64>(), days in 1u64..=2, tapped in any::<bool>()) {
        let mut rng = TestRng::new(seed);
        let (mut heaped, mut passed) = (Probe::new(cfg()), Probe::new(cfg()));
        let mut runs = LiveRuns::new();
        let (mut heaped_tap, mut passed_tap) = (Vec::new(), Vec::new());
        let mut packets = Vec::new();
        let mut steps = 0;
        for day in 0..days {
            let horizon = secs(day * DAY_S + DAY_S + SPILL_S);
            // one heap per day, as the reference keeps: the next day
            // rewinds below this one's horizon
            let mut queue = EventQueue::new();
            let cohorts = random_day(&mut rng, day);
            let bounds: Vec<Option<SimTime>> = cohorts.iter().map(|c| Some(c.0)).chain([None]).collect();
            for (bound, cohort) in bounds.into_iter().zip(cohorts.into_iter().map(Some).chain([None])) {
                // the heap pops through `bound − 1 ns` (intents win
                // ties) or the horizon; the passes read below `bound`
                // or through the horizon
                let upto = match bound {
                    Some(t) => (t != SimTime::ZERO).then(|| SimTime::from_nanos(t.as_nanos() - 1)),
                    None => Some(horizon),
                };
                if let Some(upto) = upto {
                    queue.run_until(upto, |_, t, packet: Packet| {
                        heaped.observe(t, &packet);
                        if tapped {
                            heaped_tap.push((t, packet));
                        }
                    });
                }
                let mut tap = |t: SimTime, p: &Packet| passed_tap.push((t, p.clone()));
                let tap = tapped.then_some(&mut tap as &mut dyn FnMut(SimTime, &Packet));
                let stats = passed.observe_runs(&mut runs, bound.unwrap_or(horizon + SimDuration::from_nanos(1)), tap);
                prop_assert!(stats.rows == 0 || stats.passes > 0);
                prop_assert_eq!(passed.packets, heaped.packets, "step {}", steps);
                prop_assert_eq!(passed.take_marks(), heaped.take_marks(), "step {}", steps);
                prop_assert_eq!(passed.unsealed(), heaped.unsealed(), "step {}", steps);
                steps += 1;
                // each run's rows join the heap in push order, each
                // run's in emission order
                for run in cohort.into_iter().flat_map(|c| c.1) {
                    run.materialize_into(&mut packets);
                    for (t, packet) in packets.drain(..) {
                        queue.schedule(t, packet);
                    }
                    runs.push(run);
                }
            }
            // the horizon cut: rows past it leave with the day's heap
            runs.clear();
            prop_assert_eq!(passed.export_state().encode(), heaped.export_state().encode(), "day {}", day);
        }
        prop_assert_eq!(&passed_tap, &heaped_tap);
        prop_assert!(passed.dns_replaced > 0, "the colliding lookups replaced a query");
        prop_assert_eq!(passed.dns_replaced, heaped.dns_replaced);
        prop_assert_eq!(passed.finish(), heaped.finish());
    }
}
