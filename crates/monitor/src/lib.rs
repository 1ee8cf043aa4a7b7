//! # satwatch-monitor
//!
//! The paper's measurement contribution: a Tstat-style passive flow
//! monitor for the SatCom ground-station span port (§2.2).
//!
//! * [`flowtable`] — 5-tuple flow tracking with per-direction
//!   statistics, first-10-packet timing and idle eviction, in one
//!   walker: a columnar run's rows in stretches, a parsed packet as a
//!   stretch of one row.
//! * [`rtt`] — the two RTT estimators: data↔ACK matching for the
//!   ground segment, and the TLS ServerHello→ClientKeyExchange trick
//!   for the satellite segment.
//! * [`dpi`] — protocol identification and domain extraction (TLS
//!   SNI, HTTP Host, QUIC Initial SNI, DNS, RTP heuristics).
//! * [`anon`] — CryptoPan prefix-preserving anonymization (with a
//!   from-scratch Speck64/128 as the PRF; see DESIGN.md).
//! * [`reassembly`] — bounded in-order TCP payload delivery feeding
//!   the DPI/TLS path (out-of-order robustness).
//! * [`inspect`] — cuts the delivered stream into the complete units
//!   (TLS records, raw chunks) the DPI inspects.
//! * [`pcap`] — libpcap export/import with snap-length support, so the
//!   simulated span traffic feeds real tools (Wireshark, real Tstat).
//! * [`record`] — Tstat-like flow/DNS records and their TSV logs.
//! * [`tsv`] — the block codec those logs are built from: allocation-free
//!   field encoders, 64 KiB block writes, a line-buffer reader.
//! * [`probe`] — the composed probe: one `observe()` per packet,
//!   `finish()` yields anonymized records.
//! * [`pass`] — the span port's pending per-flow runs, which the probe
//!   consumes a pass at a time, one slice per run.
//! * [`sharded`] — the probe under the constructor the benchmark
//!   harness calls: one inline `Probe` behind `Deref`, no threads.
//! * [`seal`] — the probe's output log: per-sweep marks seal its rows
//!   into canonically ordered pieces, so a consumer holds the live
//!   tail instead of the capture.
//! * [`checkpoint`] — complete probe-state serialization (live flows,
//!   pending DNS, sweep clock) so multi-day campaigns survive `kill
//!   -9` and resume bit-identically.
//!
//! ```
//! use satwatch_monitor::{FlowTableConfig, Probe, ProbeConfig};
//! use satwatch_netstack::{Packet, Subnet};
//! use satwatch_simcore::SimTime;
//! use std::net::Ipv4Addr;
//!
//! let subnet = Subnet::new(Ipv4Addr::new(10, 0, 0, 0), 8);
//! let mut probe = Probe::new(ProbeConfig::new(FlowTableConfig::new(subnet)));
//! let pkt = Packet::udp(
//!     Ipv4Addr::new(10, 1, 2, 3),           // a customer CPE
//!     Ipv4Addr::new(198, 18, 0, 1),         // an internet server
//!     50_000, 443, bytes::Bytes::from_static(&[0; 64]),
//! );
//! probe.observe(SimTime::from_secs(1), &pkt);
//! let (flows, _dns) = probe.finish();
//! assert_eq!(flows.len(), 1);
//! // the customer address left the probe anonymized
//! assert_ne!(flows[0].client, Ipv4Addr::new(10, 1, 2, 3));
//! ```

pub mod anon;
pub mod checkpoint;
pub mod dpi;
pub mod flowtable;
pub mod inspect;
pub mod intern;
pub mod pass;
pub mod pcap;
pub mod probe;
pub mod reassembly;
pub mod record;
pub mod rtt;
pub mod seal;
pub mod sharded;
#[cfg(test)]
mod stream_oracle;
pub mod tsv;

pub use anon::CryptoPan;
pub use checkpoint::{CheckpointError, ProbeState};
pub use flowtable::{Direction, FlowTable, FlowTableConfig};
pub use intern::{Domain, DomainInterner};
pub use pass::{LiveRuns, PassStats, Tap};
pub use probe::{dns_cmp, flow_sort_key, sort_flows_canonical, Probe, ProbeConfig};
pub use record::{DnsRecord, FlowRecord, L7Protocol, RttSummary};
pub use seal::{Piece, SealMarks, Sealer};
pub use sharded::ShardedProbe;
