//! # satwatch-bench
//!
//! Criterion benches under `benches/`:
//!
//! * `micro` — the kernels no `satbench` per-layer row times:
//!   CryptoPan, TLS/QUIC SNI and DNS parsing, the domain classifier,
//!   the satellite-RTT sample, the probe's stamp sweep, the inspect
//!   buffer, and SipHash vs FxHash.
//! * `telemetry_overhead` — the packet path with telemetry on and off
//!   (the < 2 % budget).
//!
//! Run with `cargo bench --workspace`. Everything else — flow
//! synthesis, the probe, the log codec, segments, queries, the report
//! fold, the A1–A3 ablations — is timed end to end and per layer by
//! `satbench` (`benchmark/`), not here.
