//! # satwatch-satcom
//!
//! The GEO SatCom access-network substrate: everything between the
//! subscriber's device and the internet side of the ground station,
//! as described in §2.1 of the paper.
//!
//! * [`acm`] — DVB-S2 adaptive coding & modulation ladder: impairment
//!   → spectral efficiency → goodput factor.
//! * [`geo`] — orbital geometry: slant ranges, zenith angles, and the
//!   240–280 ms bent-pipe propagation delays.
//! * [`beam`] — per-region beams with capacity/utilization profiles.
//! * [`mac`] — slotted-Aloha reservation + demand-assigned TDMA.
//! * [`link`] — FEC residual loss + ARQ recovery tails.
//! * [`pep`] — the split-TCP Performance Enhancing Proxy, including
//!   the per-beam processing-saturation model behind Fig 8b.
//! * [`shaper`] — commercial plans and the per-class rate factors of
//!   the operator's QoS rules.
//! * [`cpe`] — subscriber terminals.
//! * [`ground`] — ground station, customer subnet, operator resolver.
//! * [`weather`] — the deterministic rain-fade schedule.
//! * [`channel`] — composition of all delay terms into a per-flow
//!   [`DelaySnapshot`](channel::DelaySnapshot) that draws per-packet
//!   one-way delays.

pub mod acm;
pub mod beam;
pub mod channel;
pub mod cpe;
pub mod geo;
pub mod ground;
pub mod link;
pub mod mac;
pub mod pep;
pub mod shaper;
pub mod weather;

pub use beam::{Beam, BeamId};
pub use channel::{default_peak_hour, DelayCache, SatelliteAccess};
pub use cpe::{CustomerId, Terminal};
pub use geo::{GeoSlot, LatLon};
pub use ground::GroundStation;
pub use link::{LinkConfig, LinkModel};
pub use mac::{Mac, MacConfig};
pub use pep::{PepConfig, PepModel};
pub use shaper::{Plan, TrafficClass};
pub use weather::{Climate, RainEvent, WeatherModel};
