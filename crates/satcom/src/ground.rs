//! The ground station: tunnel terminator, operator DNS resolver
//! endpoint, and the span port the monitor taps (paper §2.1–2.2). The
//! operator mirrors pre-NAT CPE addresses to the span port, so the
//! probe identifies customers by their private address.

use crate::geo::LatLon;
use satwatch_netstack::Subnet;
use std::net::Ipv4Addr;

/// Ground station configuration.
#[derive(Clone, Debug)]
pub struct GroundStation {
    pub location: LatLon,
    /// The operator's own DNS resolver (the "Operator-EU" row of
    /// Fig 10), co-located with the ground station.
    pub operator_resolver: Ipv4Addr,
    /// Private address space handed to CPEs.
    pub customer_subnet: Subnet,
}

impl GroundStation {
    pub fn italy_default() -> GroundStation {
        GroundStation {
            location: crate::geo::places::GROUND_STATION_ITALY,
            operator_resolver: Ipv4Addr::new(185, 80, 0, 53),
            customer_subnet: Subnet::new(Ipv4Addr::new(10, 0, 0, 0), 9),
        }
    }

    /// Address of the `i`-th CPE.
    pub fn customer_address(&self, i: u32) -> Ipv4Addr {
        self.customer_subnet.host(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn customer_addresses_in_subnet() {
        let gs = GroundStation::italy_default();
        for i in [0u32, 1, 1000, 100_000] {
            assert!(gs.customer_subnet.contains(gs.customer_address(i)));
        }
    }
}
