//! # satwatch-traffic
//!
//! The synthetic subscriber population and workload generator,
//! calibrated against the paper's published per-country aggregates:
//!
//! * [`catalog`] — the service catalog (paper Table 3 plus supporting
//!   traffic), with domains, hosting, protocol mixes and flow sizes.
//! * [`country`] — per-country calibration: shares (Fig 2), service
//!   adoption (Fig 6), resolver popularity (Fig 10), beam congestion
//!   (§6.1), plan mixes (§6.5) and category volume factors (Fig 7).
//! * [`archetype`] — customer archetypes: residential, idle second
//!   homes, business VPN sites, community WiFi APs, internet cafés.
//! * [`diurnal`] — hour-of-day activity profiles (Fig 4).
//! * [`population`] — builds the concrete customer/terminal/beam set.
//! * [`dnschoice`] — resolver selection per customer.
//! * [`session`] — the daily flow-intent generator.

pub mod archetype;
pub mod catalog;
pub mod country;
pub mod diurnal;
pub mod dnschoice;
pub mod population;
pub mod session;

pub use archetype::Archetype;
pub use catalog::{Category, DomainId, FlowProtocol, ServiceId, ServiceSpec};
pub use country::Country;
pub use population::{build_population, Customer, Population};
pub use session::{generate_day, FlowIntent};
