//! # satwatch-oracle
//!
//! The packet path's reference, outside production. Nothing here is
//! built into the `satwatch` binary or the library crates: every
//! crate that uses this one lists it under `[dev-dependencies]`.
//!
//! * [`EventQueue`] — a binary heap of timestamped events with a FIFO
//!   tie-break: the scheduler every packet-path oracle pops from.
//! * [`run_reference`] — a whole scenario run through one
//!   [`EventQueue`] per day, every packet handed to
//!   `Probe::observe` one at a time: what `scenario::run` must equal.
//!
//! The pass driver (`Probe::observe_runs`) is held to the same heap by
//! `crates/monitor/tests/pass_equivalence.rs`, and the harness's
//! tournament merge by `crates/simcore/tests/merge_vs_heap.rs`.

mod event;
mod reference;

pub use event::EventQueue;
pub use reference::run_reference;
