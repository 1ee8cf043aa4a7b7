//! # satwatch
//!
//! A passive characterization toolkit for GEO satellite internet
//! access, reproducing *"When Satellite is All You Have: Watching the
//! Internet from 550 ms"* (Perdices et al., ACM IMC 2022) as a
//! self-contained Rust workspace.
//!
//! The facade crate re-exports the whole stack:
//!
//! * [`simcore`] — deterministic discrete-event simulation primitives.
//! * [`netstack`] — wire formats (IPv4/TCP/UDP/TLS/DNS/HTTP/QUIC/RTP).
//! * [`satcom`] — the GEO access network: geometry, beams, MAC,
//!   FEC/ARQ, the split-TCP PEP, QoS shaping, ground station.
//! * [`internet`] — regions, CDNs, open resolvers, server selection.
//! * [`traffic`] — the country-calibrated synthetic population.
//! * [`monitor`] — the Tstat-style passive probe (the paper's §2.2).
//! * [`analytics`] — classification, aggregation, figure/table reports.
//! * [`scenario`] — end-to-end runs, the report entry points, ablations.
//! * [`errant`] — ERRANT-style emulation-profile fitting/export.
//!
//! ## Quickstart
//!
//! ```
//! use satwatch::scenario::{self, ScenarioConfig};
//! use satwatch::scenario::experiments::paper_reports_columnar;
//!
//! // Simulate a small deployment for one day — flows stream into the
//! // columnar frame as the probe evicts them — and print Table 1 off
//! // the one fold that fills every table and figure.
//! let ds = scenario::run_streaming(ScenarioConfig::tiny());
//! let reports = paper_reports_columnar(&ds.frame, &ds.dns, &ds.enrichment, 10, 1);
//! println!("{}", reports.table1.render());
//! assert!(reports.table1.share(satwatch::monitor::L7Protocol::TlsHttps) > 20.0);
//! ```

pub use satwatch_analytics as analytics;
pub use satwatch_errant as errant;
pub use satwatch_internet as internet;
pub use satwatch_monitor as monitor;
pub use satwatch_netstack as netstack;
pub use satwatch_satcom as satcom;
pub use satwatch_scenario as scenario;
pub use satwatch_simcore as simcore;
pub use satwatch_traffic as traffic;
