//! # satwatch-errant
//!
//! Data-driven network-emulation profiles, mirroring the paper's
//! published artifact: the authors exported a GEO SatCom model for
//! their ERRANT emulator (Trevisan et al., *Computer Networks* 2020)
//! so the community can emulate a satellite access and compare it with
//! other technologies, including Starlink (Michel et al., IMC 2022).
//!
//! * [`model`] — the profile type: per (country, period) RTT
//!   distribution + rate caps.
//! * [`fit`] — fit profiles from the flow frame.
//! * [`export`] — ERRANT-style text export with round-trip parsing.
//! * [`netem`] — Linux tc/netem script generation from a profile.
//! * [`leo`] — a Starlink-like LEO reference profile for comparison.
//!
//! ```
//! use satwatch_errant::{leo, Period, export};
//!
//! let reference = leo::starlink_reference(Period::Night);
//! let text = export::export(&[reference]);
//! let back = export::parse(&text).unwrap();
//! assert_eq!(back.len(), 1);
//! assert!(back[0].median_rtt_ms() < 60.0);
//! ```

pub mod export;
pub mod fit;
pub mod leo;
pub mod model;
pub mod netem;

pub use fit::fit_profiles;
pub use model::{EmulationProfile, Period};
