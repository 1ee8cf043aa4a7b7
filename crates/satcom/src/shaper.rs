//! QoS shaping and commercial plans (paper §2.1).
//!
//! The ground station enforces the subscriber's contract: up to 5 Mb/s
//! uplink and 10/20/30/50/100 Mb/s downlink, plus domain-based rules
//! that shape video streaming below the plan rate. Flow synthesis
//! applies both as a rate cap on each flow.

use satwatch_simcore::BitRate;

/// A commercial subscription plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Plan {
    Down10,
    Down20,
    Down30,
    Down50,
    Down100,
}

impl Plan {
    pub fn down(self) -> BitRate {
        match self {
            Plan::Down10 => BitRate::from_mbps(10),
            Plan::Down20 => BitRate::from_mbps(20),
            Plan::Down30 => BitRate::from_mbps(30),
            Plan::Down50 => BitRate::from_mbps(50),
            Plan::Down100 => BitRate::from_mbps(100),
        }
    }

    /// All plans share the 5 Mb/s uplink cap.
    pub fn up(self) -> BitRate {
        BitRate::from_mbps(5)
    }

    pub fn name(self) -> &'static str {
        match self {
            Plan::Down10 => "10M",
            Plan::Down20 => "20M",
            Plan::Down30 => "30M",
            Plan::Down50 => "50M",
            Plan::Down100 => "100M",
        }
    }

    pub const ALL: [Plan; 5] = [Plan::Down10, Plan::Down20, Plan::Down30, Plan::Down50, Plan::Down100];
}

/// Traffic classes used by the operator's QoS rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Video streaming — shaped below the plan rate to protect the beam.
    Video,
    /// Everything else.
    BestEffort,
}

impl TrafficClass {
    /// Rate multiplier the shaper applies relative to the plan rate.
    pub fn rate_factor(self) -> f64 {
        match self {
            // video streams are paced: high-definition needs ~5-8 Mb/s,
            // the shaper allows bursts but paces sustained transfers.
            TrafficClass::Video => 0.8,
            TrafficClass::BestEffort => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_rates() {
        assert_eq!(Plan::Down10.down().as_mbps(), 10.0);
        assert_eq!(Plan::Down100.down().as_mbps(), 100.0);
        for p in Plan::ALL {
            assert_eq!(p.up().as_mbps(), 5.0);
        }
    }

    #[test]
    fn class_priorities() {
        assert!(TrafficClass::Video.rate_factor() < TrafficClass::BestEffort.rate_factor());
    }
}
