//! # satwatch-netstack
//!
//! Wire formats for the satwatch simulator and monitor: everything the
//! paper's Tstat probe parses off the ground-station span port.
//!
//! * [`ip`] — IPv4 header + internet checksum, subnets, prefix math.
//! * [`tcp`] — TCP header with options and sequence-space arithmetic.
//! * [`udp`] — UDP header.
//! * [`tls`] — TLS 1.2 records/handshake incl. SNI extraction and the
//!   handshake-message recognition the satellite-RTT estimator needs.
//! * [`dns`] — DNS query/response messages with name compression.
//! * [`http`] — HTTP/1.1 heads and Host extraction.
//! * [`quic`] — QUIC v1 framing and Initial-packet SNI extraction.
//! * [`rtp`] — RTP header and detection heuristic.
//! * [`packet`] — the composed [`packet::Packet`] moved through the
//!   simulated network, with full-datagram encode/parse, and
//!   [`packet::PacketView`], the same parse borrowing its payload.
//! * [`columns`] — struct-of-arrays packet runs
//!   ([`columns::PacketColumns`]), the columnar hot-path twin of
//!   [`packet::Packet`] with on-demand materialization.
//!
//! Every encoder has a matching parser and the pair is round-trip
//! property-tested (`tests/proptest_roundtrip.rs`): the traffic
//! generator *encodes* real bytes, the monitor *parses* them — the DPI
//! path never sees oracle data structures.
//!
//! ```
//! use satwatch_netstack::tls;
//!
//! // build a ClientHello like a subscriber device would …
//! let wire = tls::client_hello("media.cdn.whatsapp.net", [7; 32]);
//! // … and extract the SNI like the ground-station probe does
//! let (record, _) = tls::parse_record(&wire).unwrap();
//! assert_eq!(tls::extract_sni(record.body).as_deref(), Some("media.cdn.whatsapp.net"));
//! ```

pub mod columns;
pub mod dns;
pub mod http;
pub mod ip;
pub mod packet;
pub mod quic;
pub mod rtp;
pub mod tcp;
pub mod tls;
pub mod udp;

pub use columns::{PacketColumns, SortScratch};
pub use ip::{Ipv4Header, ParseError, Subnet};
pub use packet::{FiveTuple, Packet, PacketView, Transport};
pub use tcp::{SeqNum, TcpFlags, TcpHeader, TcpOption};
pub use udp::UdpHeader;
