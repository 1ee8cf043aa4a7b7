//! Allocation budgets of the probe's wire path and of synthesis.
//!
//! `Probe::observe_wire` borrows: a frame is parsed in place, in-order
//! stream data reaches the DPI as slices of the frame, and a flow's
//! record is written once. This test counts heap allocations to keep
//! it that way — a steady-state data frame costs none, and a whole
//! capture costs a small, pinned number per flow (flow state, early
//! log, the handshake's SYN options and DPI strings, the record).
//! Synthesis allocates nothing per flow: intents carry interned domain
//! names and DNS messages are written in place, pinned by a budget per
//! intent and one per flow of a whole streaming run. A probe state
//! read from disk reserves no more than its bytes hold, however many
//! entries its counts claim: the counter also sums the bytes asked for.
//!
//! `report`'s library call holds the live tail, not the day, and a
//! campaign the live tail and its open day's segment as columns: the
//! peak live heap per flow of both is pinned too (the allocator also
//! tracks the bytes live and their peak).
//!
//! The counter is per thread, so the tests can share the binary's
//! one global allocator while the harness runs them side by side.
//! Implementing `GlobalAlloc` is the one thing here that needs
//! `unsafe`; it forwards to `System` untouched.

use bytes::Bytes;
use satwatch_monitor::checkpoint::CheckpointError;
use satwatch_monitor::{FlowTableConfig, Probe, ProbeConfig, ProbeState};
use satwatch_netstack::{tls, Packet, SeqNum, TcpFlags, TcpHeader, TcpOption};
use satwatch_scenario::{run_with_tap, ScenarioConfig};
use satwatch_simcore::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

thread_local! {
    // const-initialised and without a destructor: touching it from
    // inside the allocator cannot itself allocate or re-enter
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    // bytes this thread holds (what it allocated less what it freed,
    // so it may go negative) and their high-water mark
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation of `size` bytes.
fn note(size: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + size as u64));
}

/// Move the live bytes by `delta`, raising the peak with them.
fn live(delta: i64) {
    let now = LIVE.with(|n| {
        n.set(n.get() + delta);
        n.get()
    });
    PEAK.with(|p| p.set(p.get().max(now)));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        live(layout.size() as i64);
        // SAFETY: the caller's obligations are passed on as they came
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: as above
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: as above
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Bytes this thread asks for (a reallocation at its new size) while
/// `f` runs.
fn bytes_requested_in(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

/// The most bytes this thread held at once while `f` ran, beyond what
/// it held when `f` began.
fn peak_live_bytes_in(f: impl FnOnce()) -> i64 {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    f();
    PEAK.with(Cell::get) - before
}

fn probe() -> Probe {
    let gs = satwatch_satcom::GroundStation::italy_default();
    Probe::new(ProbeConfig::new(FlowTableConfig::new(gs.customer_subnet)))
}

#[test]
fn an_in_order_data_frame_of_an_established_tls_flow_allocates_nothing() {
    let gs = satwatch_satcom::GroundStation::italy_default();
    let (client, server) = (gs.customer_subnet.host(7), Ipv4Addr::new(198, 18, 0, 1));
    let seg = |c2s: bool, flags: TcpFlags, seq: u32, ack: u32, payload: &[u8]| {
        let (src, dst, sp, dp) = if c2s { (client, server, 50_000, 443) } else { (server, client, 443, 50_000) };
        let mut h = TcpHeader::new(sp, dp, flags);
        (h.seq, h.ack) = (SeqNum(seq), SeqNum(ack));
        if flags.syn() {
            h.options = vec![TcpOption::Mss(1460), TcpOption::SackPermitted, TcpOption::WindowScale(7)];
        }
        Packet::tcp(src, dst, h, Bytes::copy_from_slice(payload)).encode()
    };
    let ms = |n: i64| SimTime::ZERO + SimDuration::from_millis(n);

    let hello = tls::client_hello("video.example.net", [1; 32]);
    let mut flight = tls::server_hello([2; 32]).to_vec();
    flight.extend_from_slice(&tls::certificate(1_000, 3));
    flight.extend_from_slice(&tls::server_hello_done());
    let mut reply = tls::client_key_exchange(4).to_vec();
    reply.extend_from_slice(&tls::change_cipher_spec());
    let (mut up, mut down) = (101 + hello.len() as u32, 901 + flight.len() as u32);
    let handshake = [
        seg(true, TcpFlags::SYN, 100, 0, &[]),
        seg(false, TcpFlags::SYN_ACK, 900, 101, &[]),
        seg(true, TcpFlags::ACK, 101, 901, &[]),
        seg(true, TcpFlags::PSH_ACK, 101, 901, &hello),
        seg(false, TcpFlags::PSH_ACK, 901, up, &flight),
        seg(true, TcpFlags::PSH_ACK, up, down, &reply),
    ];
    up += reply.len() as u32;
    // 10 000 in-order frames: 1 400-byte records down, requests and ACKs up
    let mut data = Vec::new();
    for i in 0..5_000u32 {
        let body = tls::application_data(1_395, i as u8);
        data.push(seg(false, TcpFlags::PSH_ACK, down, up, &body));
        down += body.len() as u32;
        let request = if i % 50 == 0 { tls::application_data(300, 9) } else { Bytes::new() };
        data.push(seg(true, TcpFlags::PSH_ACK, up, down, &request));
        up += request.len() as u32;
    }

    let mut p = probe();
    for (i, frame) in handshake.iter().enumerate() {
        p.observe_wire(ms(i as i64 * 300), frame);
    }
    // 20 ms apart: the run crosses three periodic sweeps
    let spent = allocations_in(|| {
        for (i, frame) in data.iter().enumerate() {
            p.observe_wire(ms(2_000 + i as i64 * 20), frame);
        }
    });
    assert_eq!((p.packets, p.parse_errors, p.active_flows()), (10_006, 0, 1));
    let (flows, _) = p.finish();
    assert_eq!(flows[0].domain.as_deref(), Some("video.example.net"));
    assert!(flows[0].sat_rtt_ms.is_some(), "the handshake was seen whole");
    assert_eq!(flows[0].s2c_packets, 5_002);
    assert_eq!(spent, 0, "allocations over 10 000 in-order data frames");
}

/// What the wire path needs per flow on a real mix, pinned: 12
/// customers' span port, every frame through `observe_wire`, then
/// `finish`. Measured 5.46 when written; the budget allows ×1.5.
#[test]
fn a_whole_capture_stays_inside_its_allocation_budget_per_flow() {
    const BUDGET_PER_FLOW: f64 = 8.1;
    let cfg = ScenarioConfig::tiny().with_customers(12).with_seed(7);
    let mut frames: Vec<(SimTime, Bytes)> = Vec::new();
    run_with_tap(cfg, |t, pkt| {
        // (the synthesizer's coalesced super-chunks have no wire form)
        if pkt.wire_len() <= 65_535 {
            frames.push((t, pkt.encode()));
        }
    });
    let mut p = probe();
    let mut flows = 0;
    let spent = allocations_in(|| {
        for (t, frame) in &frames {
            p.observe_wire(*t, frame);
        }
        assert_eq!(p.parse_errors, 0);
        flows = p.finish().0.len();
    });
    assert!(flows > 1_000, "the capture holds a day of 12 customers: {flows} flows");
    let per_flow = spent as f64 / flows as f64;
    eprintln!("{spent} allocations, {flows} flows, {} frames: {per_flow:.2} per flow", frames.len());
    assert!(per_flow <= BUDGET_PER_FLOW, "{per_flow:.2} allocations per flow, budget {BUDGET_PER_FLOW}");
}

/// Intent generation allocates per customer-day, not per intent: a
/// flow's domain is a catalog name or one of its template's interned
/// expansions, so what is left is the day's intent vector growing and
/// the per-day working sets. 40 customers, one day, the expansion
/// table already built (it is built once per process). Measured 0.021
/// per intent; 1.64 while every intent owned its domain `String`.
#[test]
fn intent_generation_allocates_per_customer_day_not_per_intent() {
    const BUDGET_PER_INTENT: f64 = 0.1;
    let seeds = satwatch_simcore::SeedTree::new(42);
    let population = satwatch_traffic::build_population(40, &seeds);
    let catalog = satwatch_traffic::catalog::standard_catalog();
    let day = |customers: &mut dyn Iterator<Item = (usize, &satwatch_traffic::Customer)>| {
        customers
            .map(|(i, c)| {
                satwatch_traffic::generate_day(c, i, &catalog, 0, &mut seeds.rng_idx("intents", i as u64)).len()
            })
            .sum::<usize>()
    };
    day(&mut population.customers.iter().enumerate().take(1));
    let mut intents = 0;
    let spent = allocations_in(|| intents = day(&mut population.customers.iter().enumerate()));
    assert!(intents > 10_000, "a day of 40 customers: {intents} intents");
    let per_intent = spent as f64 / intents as f64;
    eprintln!("{spent} allocations, {intents} intents: {per_intent:.3} per intent");
    assert!(per_intent <= BUDGET_PER_INTENT, "{per_intent:.3} allocations per intent, budget {BUDGET_PER_INTENT}");
}

/// The whole streaming run, intents to sealed frame, per flow logged:
/// 40 customers, one day. Synthesis writes each flow's DNS messages
/// straight into the cohort's arena and reuses every run buffer, so
/// what remains is the probe's per-flow state and record and the
/// frame. Measured 4.70 per flow; 7.11 while each lookup built a
/// `DnsMessage` and each intent owned its domain.
#[test]
fn a_streaming_run_stays_inside_its_allocation_budget_per_flow() {
    const BUDGET_PER_FLOW: f64 = 5.2;
    let mut flows = 0;
    let spent = allocations_in(|| {
        flows = satwatch_scenario::run_streaming(ScenarioConfig::tiny().with_customers(40).with_seed(42)).frame.len()
    });
    assert!(flows > 10_000, "a day of 40 customers: {flows} flows");
    let per_flow = spent as f64 / flows as f64;
    eprintln!("{spent} allocations, {flows} flows: {per_flow:.2} per flow");
    assert!(per_flow <= BUDGET_PER_FLOW, "{per_flow:.2} allocations per flow, budget {BUDGET_PER_FLOW}");
}

/// Each count of an encoded probe state — live flows, pending DNS
/// queries, the DNS log — set to 2³² − 1 with no entries behind it:
/// the decoder refuses it as truncated having asked for a few KiB, not
/// for the tens of MiB a reservation of the claimed entries would take.
#[test]
fn a_probe_state_claiming_more_entries_than_it_holds_reserves_nothing_for_them() {
    let state = ProbeState::empty().encode();
    // magic, version, the sweep clock and three counters, then the counts
    for at in [38, 42, 46] {
        let mut hostile = state.clone();
        hostile[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let asked = bytes_requested_in(|| {
            assert_eq!(ProbeState::decode(&hostile).unwrap_err(), CheckpointError::Truncated);
        });
        assert!(asked <= 4_096, "{asked} bytes asked for decoding the count at byte {at}");
    }
}

/// `report`'s library call, 40 customers, one day: the rows and DNS
/// records the probe seals are folded as it goes, so the day's frame,
/// its sort and its DNS log are never live at once. Measured 260.4 B
/// of peak live heap per flow; the calls it replaced (`run_streaming`,
/// then `report_all` and Table 2 at the CSV floor over its frame)
/// peaked at 335.9. The budget allows ×1.25, below the old peak.
#[test]
fn the_report_fold_peaks_at_its_budget_of_live_heap_per_flow() {
    const BUDGET_PER_FLOW: f64 = 325.0;
    let mut flows = 0;
    let peak = peak_live_bytes_in(|| {
        flows = satwatch_scenario::run_report(ScenarioConfig::tiny().with_customers(40).with_seed(42)).flows
    });
    assert!(flows > 10_000, "a day of 40 customers: {flows} flows");
    let per_flow = peak as f64 / flows as f64;
    eprintln!("{peak} bytes live at the peak, {flows} flows: {per_flow:.1} per flow");
    assert!(per_flow <= BUDGET_PER_FLOW, "{per_flow:.1} bytes live per flow at the peak, budget {BUDGET_PER_FLOW}");
}

/// A campaign seals the probe's log at every sweep: the day's flows
/// leave as rows of its segment (columns, ≈ 90 B a row), its DNS as
/// spill bytes, and the report folds as they go — no day of records is
/// resident and no segment is read back. Measured 225.9 B of peak live
/// heap per flow at 40 customers × 2 days; the parent, which held each
/// day's records until its checkpoint and re-read every segment and
/// DNS spill at completion, peaked at 525.1. The budget allows ×1.25,
/// well below the old peak.
///
/// Synthesis leaks one 64 MB zero block for bulk payloads on first use
/// (`calloc`'d, so it costs no resident memory): a small run first
/// makes sure it is not charged to the campaign, whichever test of the
/// binary meets it first.
#[test]
fn the_campaign_peaks_at_its_budget_of_live_heap_per_flow() {
    const BUDGET_PER_FLOW: f64 = 280.0;
    run_with_tap(ScenarioConfig::tiny().with_customers(5), |_, _| {});
    let dir = std::env::temp_dir().join(format!("swcampaign-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ScenarioConfig::tiny().with_customers(40).with_days(2).with_seed(42);
    let mut flows = 0;
    let peak = peak_live_bytes_in(|| {
        let mut c = satwatch_campaign::Campaign::create(&dir, cfg).unwrap();
        assert!(c.run(&satwatch_campaign::RunOptions::default()).unwrap().completed);
        flows = c.segments().iter().map(|s| s.rows).sum::<u64>();
    });
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(flows > 50_000, "two days of 40 customers: {flows} flows");
    let per_flow = peak as f64 / flows as f64;
    eprintln!("campaign: {peak} bytes live at the peak, {flows} flows: {per_flow:.1} per flow");
    assert!(per_flow <= BUDGET_PER_FLOW, "{per_flow:.1} bytes live per flow at the peak, budget {BUDGET_PER_FLOW}");
}
