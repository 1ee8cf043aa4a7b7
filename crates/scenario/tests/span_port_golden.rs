//! Byte-identity pin for every row the span port carries.
//!
//! The dataset digest (`run_merge_golden.rs`) pins what the probe
//! *keeps*; a row the probe reads but does not log — an upload chunk's
//! `ack`, a bulk chunk's `seq`, the order of two rows of one flow at
//! one instant — can change without moving it. This test folds every
//! row `run_with_tap` delivers, in delivery order, into one FNV-1a
//! digest: time, five-tuple, TCP flags, `seq`, `ack`, wire length and
//! the payload. Payloads of up to 64 KiB are hashed byte for byte;
//! larger ones are the synthesizer's zero-filled super-chunks, and only
//! their length is hashed.
//!
//! The digests were captured before flow emission stopped sorting its
//! rows, so they hold the time-ordered emission to the sorted one.

use satwatch_netstack::{Packet, Transport};
use satwatch_scenario::{run_with_tap, ScenarioConfig};
use satwatch_simcore::fnv::{fnv1a_update, FNV1A_INIT};

/// Payloads above this are zero-filled bulk chunks: length only.
const BYTEWISE_MAX: usize = 64 * 1024;

/// `(rows, digest)` of the span port of `cfg`.
fn span_port(cfg: ScenarioConfig) -> (u64, u64) {
    let (mut rows, mut h) = (0u64, FNV1A_INIT);
    let ds = run_with_tap(cfg, |t, p: &Packet| {
        rows += 1;
        let ft = p.five_tuple();
        let (flags, seq, ack) = match &p.transport {
            Transport::Tcp(tcp) => (tcp.flags.0, tcp.seq.0, tcp.ack.0),
            Transport::Udp(_) => (0xFF, 0, 0),
        };
        h = fnv1a_update(h, &t.as_nanos().to_le_bytes());
        h = fnv1a_update(h, &ft.src.octets());
        h = fnv1a_update(h, &ft.dst.octets());
        h = fnv1a_update(h, &ft.src_port.to_le_bytes());
        h = fnv1a_update(h, &ft.dst_port.to_le_bytes());
        h = fnv1a_update(h, &[ft.protocol, flags]);
        h = fnv1a_update(h, &seq.to_le_bytes());
        h = fnv1a_update(h, &ack.to_le_bytes());
        h = fnv1a_update(h, &(p.wire_len() as u32).to_le_bytes());
        h = fnv1a_update(h, &(p.payload.len() as u32).to_le_bytes());
        if p.payload.len() <= BYTEWISE_MAX {
            h = fnv1a_update(h, &p.payload);
        }
    });
    assert_eq!(rows, ds.packets, "the tap sees every row the probe does");
    (rows, h)
}

#[test]
fn span_port_rows_match_the_golden() {
    let cfg = ScenarioConfig::tiny().with_customers(20).with_seed(42).with_days(2);
    let (rows, digest) = span_port(cfg);
    assert_eq!((rows, digest), (GOLDEN_ROWS, GOLDEN_DIGEST), "got ({rows}, {digest:#018x})");
}

#[test]
fn span_port_rows_match_the_golden_with_every_ablation() {
    let cfg = ScenarioConfig::tiny()
        .with_customers(20)
        .with_seed(42)
        .with_days(2)
        .with_african_ground_station()
        .with_forced_operator_dns()
        .without_pep();
    let (rows, digest) = span_port(cfg);
    assert_eq!((rows, digest), (ABLATED_ROWS, ABLATED_DIGEST), "got ({rows}, {digest:#018x})");
}

/// 20 customers × 2 days, seed 42.
const GOLDEN_ROWS: u64 = 414_094;
const GOLDEN_DIGEST: u64 = 0x17f1_8d69_703a_7da0;
/// The same with A1 (African ground station), A2 (operator DNS) and
/// A3 (no PEP) on.
const ABLATED_ROWS: u64 = 414_150;
const ABLATED_DIGEST: u64 = 0x556b_6096_ef85_17d8;
