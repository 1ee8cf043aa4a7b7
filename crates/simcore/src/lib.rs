//! # satwatch-simcore
//!
//! Foundation crate for the satwatch workspace: deterministic
//! discrete-event simulation primitives shared by every other crate.
//!
//! * [`time`] — fixed-point simulation clock ([`SimTime`],
//!   [`SimDuration`]) with wall-clock helpers (hour-of-day, local time)
//!   used by the diurnal traffic models.
//! * [`event`] — a deterministic event queue with stable tie-breaking.
//! * [`merge`] — tournament-tree k-way merge over presorted runs: the
//!   benchmark harness's replica loop and the probe's pass-driver
//!   oracle (the day loop itself reads runs a pass at a time).
//! * [`arena`] — per-run payload bump arena: one contiguous byte
//!   block per packet run instead of one allocation per payload.
//! * [`rng`] — reproducible xoshiro256** PRNG with hierarchical seed
//!   derivation, so subsystems have independent streams.
//! * [`dist`] — the random distributions the workload and channel
//!   models draw from (log-normal, Pareto, Weibull, Zipf, …).
//! * [`stats`] — streaming and batch statistics (Welford, quantiles,
//!   CDF/CCDF, boxplot summaries) used to build the paper's figures.
//! * [`units`] — data volume and rate newtypes.
//! * [`fxhash`] — the rustc multiply-xor hasher for hot maps keyed by
//!   small simulator-generated values (no DoS adversary here).
//!
//! The design follows the event-driven, sans-IO ethos of smoltcp: the
//! engine knows nothing about wall-clock time or sockets; everything
//! is a pure function of the seed and the configuration.
//!
//! ```
//! use satwatch_simcore::{EventQueue, SimDuration, SimTime, SeedTree};
//!
//! // a deterministic event loop
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_secs(1), "ping");
//! q.schedule(SimTime::from_secs(3), "pong");
//! let mut log = Vec::new();
//! q.run_until(SimTime::from_secs(10), |q, t, ev| {
//!     log.push((t, ev));
//!     if ev == "ping" {
//!         q.schedule(t + SimDuration::from_millis(500), "echo");
//!     }
//! });
//! assert_eq!(log.len(), 3);
//!
//! // independent, reproducible random streams per subsystem
//! let seeds = SeedTree::new(42);
//! let mut a = seeds.rng("traffic");
//! let mut b = seeds.rng("satcom");
//! assert_ne!(a.next_u64(), b.next_u64());
//! ```

pub mod arena;
pub mod dist;
pub mod event;
pub mod fxhash;
pub mod merge;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

pub use arena::PayloadArena;
pub use event::EventQueue;
pub use fxhash::{fx_hash_one, fx_map_with_capacity, fx_set_with_capacity, FxBuildHasher, FxHashMap, FxHashSet};
pub use merge::{ColMerge, TimedRun};
pub use rng::{Rng, SeedTree};
pub use time::{SimDuration, SimTime};
pub use units::{BitRate, Bytes};
