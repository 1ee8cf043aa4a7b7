//! Byte-identity pin for the wire path at real snap lengths.
//!
//! `column_wire_roundtrip.rs` drives whole frames through
//! `Probe::observe_wire`; a capture that keeps only each frame's head
//! — what `benchmark/`'s `wire_ingest` reads, and what a span-port
//! deployment stores — takes the accounting rule of DESIGN.md §14:
//! counters from the IP header, sequence space and DPI from the bytes
//! in hand. This test writes a scenario's span port through
//! [`PcapWriter`] at three snap lengths, reads each capture back with
//! [`read_pcap`], feeds every frame to `observe_wire` and folds the
//! finished flow and DNS logs into one FNV-1a digest per snap length.
//!
//! Frames above 65 535 bytes (the synthesizer's super-chunks) are not
//! wire datagrams and are left out of every capture.

use satwatch_monitor::pcap::{read_pcap, PcapWriter};
use satwatch_monitor::record::write_flows;
use satwatch_monitor::Probe;
use satwatch_netstack::Packet;
use satwatch_scenario::digest::{write_dns_lines, Fnv1aSink, FNV1A_INIT};
use satwatch_scenario::{run_with_tap, DayRunner, ScenarioConfig};
use satwatch_simcore::SimTime;

/// Largest datagram IPv4 can label: u16 total_len.
const MAX_WIRE: usize = 65_535;

/// `(flows, dns records, digest)` of the capture of `frames` at
/// `snaplen`, read back and observed from the wire.
fn wire_digest(cfg: &ScenarioConfig, frames: &[(SimTime, Packet)], snaplen: u32) -> (usize, usize, u64) {
    let mut w = PcapWriter::new(Vec::new(), snaplen).unwrap();
    for (t, p) in frames {
        w.write(*t, p).unwrap();
    }
    let capture = w.into_inner();
    // the probe config `run_with_tap` derives from the scenario
    let mut probe = Probe::new(DayRunner::new(*cfg).probe_config());
    for rec in read_pcap(&capture[..]).unwrap() {
        probe.observe_wire(rec.t, &rec.data);
    }
    assert_eq!(probe.parse_errors, 0, "every frame's headers survive a {snaplen}-byte snap");
    let (flows, dns) = probe.finish();
    let mut h = Fnv1aSink(FNV1A_INIT);
    write_flows(&mut h, &flows).and_then(|()| write_dns_lines(&mut h, &dns)).unwrap();
    (flows.len(), dns.len(), h.0)
}

#[test]
fn snapped_captures_observed_from_the_wire_match_the_golden() {
    let cfg = ScenarioConfig::tiny().with_customers(12).with_seed(7);
    let mut frames = Vec::new();
    run_with_tap(cfg, |t, p| {
        if p.wire_len() <= MAX_WIRE {
            frames.push((t, p.clone()));
        }
    });
    let got = GOLDEN.map(|(snaplen, _)| (snaplen, wire_digest(&cfg, &frames, snaplen)));
    assert_eq!(got, GOLDEN, "got {got:#x?}");
}

/// `(snaplen, (flows, dns records, digest))`, 12 customers, seed 7.
const GOLDEN: [(u32, (usize, usize, u64)); 3] = [
    (65_535, (8_458, 1_980, 0x4f36_f9c8_8ea3_066f)),
    (256, (8_458, 1_980, 0xeeff_21c3_5028_3021)),
    (96, (8_458, 1_980, 0x113c_6404_c0c6_1c80)),
];
