//! Data-volume and data-rate newtypes.
//!
//! Volumes are exact (`u64` bytes); rates are stored in bits/second as
//! `u64`, matching how commercial SatCom plans are quoted (e.g. a
//! "10 Mb/s" plan is exactly 10_000_000 bit/s).

use crate::time::{SimDuration, NANOS_PER_SEC};
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub};

/// A data volume in bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

/// A data rate in bits per second.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BitRate(pub u64);

impl Bytes {
    pub const ZERO: Bytes = Bytes(0);

    #[inline]
    pub const fn from_kb(kb: u64) -> Bytes {
        Bytes(kb * 1_000)
    }

    #[inline]
    pub const fn from_mb(mb: u64) -> Bytes {
        Bytes(mb * 1_000_000)
    }

    #[inline]
    pub const fn from_gb(gb: u64) -> Bytes {
        Bytes(gb * 1_000_000_000)
    }

    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    #[inline]
    pub fn as_mb(self) -> f64 {
        self.0 as f64 / 1e6
    }

    #[inline]
    pub fn as_gb(self) -> f64 {
        self.0 as f64 / 1e9
    }

    #[inline]
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Time to transmit this volume at `rate` (exact integer math,
    /// rounded up to the next nanosecond).
    pub fn tx_time(self, rate: BitRate) -> SimDuration {
        assert!(rate.0 > 0, "transmission at zero rate");
        let bits = self.0 as u128 * 8;
        let nanos = (bits * NANOS_PER_SEC as u128).div_ceil(rate.0 as u128);
        SimDuration::from_nanos(nanos.min(i64::MAX as u128) as i64)
    }
}

impl BitRate {
    pub const ZERO: BitRate = BitRate(0);

    #[inline]
    pub const fn from_bps(bps: u64) -> BitRate {
        BitRate(bps)
    }

    #[inline]
    pub const fn from_kbps(kbps: u64) -> BitRate {
        BitRate(kbps * 1_000)
    }

    #[inline]
    pub const fn from_mbps(mbps: u64) -> BitRate {
        BitRate(mbps * 1_000_000)
    }

    #[inline]
    pub const fn from_gbps(gbps: u64) -> BitRate {
        BitRate(gbps * 1_000_000_000)
    }

    #[inline]
    pub fn as_bps(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_mbps(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Scale by a factor in `[0, +inf)`; used for congestion/back-off.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> BitRate {
        debug_assert!(factor >= 0.0 && factor.is_finite());
        BitRate((self.0 as f64 * factor) as u64)
    }

    #[inline]
    pub fn min(self, other: BitRate) -> BitRate {
        BitRate(self.0.min(other.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl Add for BitRate {
    type Output = BitRate;
    #[inline]
    fn add(self, rhs: BitRate) -> BitRate {
        BitRate(self.0 + rhs.0)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}GB", self.as_gb())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2}MB", self.as_mb())
        } else if self.0 >= 1_000 {
            write!(f, "{:.2}kB", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.2}Mb/s", self.as_mbps())
        } else if self.0 >= 1_000 {
            write!(f, "{:.2}kb/s", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}b/s", self.0)
        }
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_exact() {
        // 1 MB at 8 Mb/s = 1 second exactly.
        let d = Bytes::from_mb(1).tx_time(BitRate::from_mbps(8));
        assert_eq!(d, SimDuration::from_secs(1));
        // 1500 B at 10 Mb/s = 1.2 ms.
        let d = Bytes(1500).tx_time(BitRate::from_mbps(10));
        assert_eq!(d.as_nanos(), 1_200_000);
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 1 Gb/s = 8 ns exactly; 1 byte at 3 bit/s rounds up.
        assert_eq!(Bytes(1).tx_time(BitRate::from_gbps(1)).as_nanos(), 8);
        let d = Bytes(1).tx_time(BitRate(3));
        assert!(d >= SimDuration::from_secs_f64(8.0 / 3.0));
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", Bytes::from_gb(2)), "2.00GB");
        assert_eq!(format!("{}", Bytes::from_mb(3)), "3.00MB");
        assert_eq!(format!("{}", Bytes(512)), "512B");
        assert_eq!(format!("{}", BitRate::from_mbps(10)), "10.00Mb/s");
    }

    #[test]
    fn plan_rate_construction() {
        assert_eq!(BitRate::from_mbps(10).as_bps(), 10_000_000);
        assert_eq!(BitRate::from_gbps(1).as_bps(), 1_000_000_000);
    }
}
