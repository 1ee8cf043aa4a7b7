//! Wire-level round-trip over *column-materialized* packets.
//!
//! The columnar hot path never builds a `Packet` for the probe, so the
//! only place real header bytes exist is the materialization boundary
//! (used by taps and the pcap writer) and the `observe_wire` byte
//! oracle. This test pins both against a real scenario's column
//! output:
//!
//! 1. every wire-representable materialized packet must survive
//!    encode → parse → re-encode byte-identically (no TCP option,
//!    flag, or payload detail exists only in column form), and
//! 2. a probe fed the encoded wire bytes must produce the same flow
//!    and DNS records as the scenario's own columnar probe — closing
//!    the loop columns → `Packet` → bytes → parser → flow table.
//!
//! The simulator deliberately emits GSO-style super-chunks (bulk
//! transfers coalesced up to tens of MB per logical packet) whose
//! payload exceeds IPv4's 16-bit `total_len`; those cannot exist as
//! single wire datagrams, so they go through the parsed `observe`
//! entry point instead — the record-equivalence check still covers
//! the whole stream.

use satwatch_monitor::Probe;
use satwatch_netstack::Packet;
use satwatch_scenario::{run_with_tap, DayRunner, ScenarioConfig};
use satwatch_simcore::SimTime;

/// Largest datagram IPv4 can label: u16 total_len.
const MAX_WIRE: usize = 65_535;

#[test]
fn materialized_columns_roundtrip_and_match_wire_probe() {
    let cfg = ScenarioConfig::tiny().with_customers(12).with_seed(7);
    let mut tapped: Vec<(SimTime, Packet)> = Vec::new();
    let ds = run_with_tap(cfg, |t, p| tapped.push((t, p.clone())));
    assert_eq!(tapped.len() as u64, ds.packets, "tap must see every probe packet");

    // The probe the dataset came from used the config `DayRunner`
    // derives from the scenario seed; build an identical one and drive
    // it with wire bytes instead of columns.
    let mut wire = Probe::new(DayRunner::new(cfg).probe_config());
    let mut roundtripped = 0usize;
    for (t, pkt) in &tapped {
        if pkt.wire_len() > MAX_WIRE {
            // Simulator super-chunk: not a single wire datagram.
            wire.observe(*t, pkt);
            continue;
        }
        let bytes = pkt.encode();
        let reparsed = Packet::parse(&bytes).expect("materialized packet must re-parse");
        assert_eq!(reparsed.encode(), bytes, "re-encode must be byte-identical at t={t:?}");
        wire.observe_wire(*t, &bytes);
        roundtripped += 1;
    }
    assert_eq!(wire.parse_errors, 0, "no materialized packet may fail the wire parser");
    assert!(
        roundtripped * 2 >= tapped.len(),
        "most packets must be wire-representable: {roundtripped}/{}",
        tapped.len()
    );

    let (flows, dns) = wire.finish();
    assert_eq!(flows, ds.flows, "wire-fed flow records diverge from the columnar probe's");
    assert_eq!(dns, ds.dns, "wire-fed dns records diverge from the columnar probe's");
}
