//! # satwatch-bench
//!
//! Criterion benches under `benches/`:
//!
//! * `ablations` — the A1/A2/A3 what-ifs from DESIGN.md §5.
//! * `micro` — hot-path micro-benchmarks: probe packet processing,
//!   CryptoPan, DPI/SNI extraction, flow synthesis, the event queue,
//!   the domain classifier, and the warehouse legs (group-bys,
//!   segment verify, the report fold).
//! * `telemetry_overhead` — the packet path with telemetry on and off.
//!
//! Run with `cargo bench --workspace`. The paper's tables and figures
//! are timed end to end by `satbench` (`benchmark/`, rows
//! `engine.report_fold_ms` and `agg.records_reports_ms`), not here.
