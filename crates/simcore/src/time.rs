//! Simulation time types.
//!
//! The simulator uses a fixed-point representation with nanosecond
//! resolution stored in a `u64`/`i64`. This gives deterministic,
//! platform-independent arithmetic (no floating-point accumulation
//! drift in the event loop) and a range of ~292 years, far beyond any
//! scenario length.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An absolute instant on the simulation clock.
///
/// Time zero is the start of the scenario. Wall-clock semantics
/// (hour-of-day, day index) are layered on top by [`SimTime::hour_of_day`]
/// and friends assuming the scenario starts at 00:00 UTC.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime {
    nanos: u64,
}

/// A span between two [`SimTime`]s. May be negative (e.g. clock skew
/// corrections in estimators).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration {
    nanos: i64,
}

pub const NANOS_PER_MICRO: u64 = 1_000;
pub const NANOS_PER_MILLI: u64 = 1_000_000;
pub const NANOS_PER_SEC: u64 = 1_000_000_000;
pub const SECS_PER_HOUR: u64 = 3_600;
pub const SECS_PER_DAY: u64 = 86_400;

impl SimTime {
    /// The scenario origin (t = 0).
    pub const ZERO: SimTime = SimTime { nanos: 0 };
    /// The greatest representable instant; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime { nanos: u64::MAX };

    /// Construct from raw nanoseconds since scenario start.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime { nanos }
    }

    /// Construct from whole seconds since scenario start.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime { nanos: secs * NANOS_PER_SEC }
    }

    /// Construct from fractional seconds. Only for configuration-time
    /// conversions; the hot path stays in integers.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(secs >= 0.0 && secs.is_finite());
        SimTime { nanos: (secs * NANOS_PER_SEC as f64).round() as u64 }
    }

    /// Raw nanoseconds since scenario start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Whole seconds since scenario start (truncated).
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.nanos / NANOS_PER_SEC
    }

    /// Fractional seconds since scenario start.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / NANOS_PER_SEC as f64
    }

    /// Day index since scenario start (day 0 is the first day),
    /// assuming the scenario starts at midnight UTC.
    #[inline]
    pub const fn day(self) -> u64 {
        self.as_secs() / SECS_PER_DAY
    }

    /// Hour of day in UTC, `0..24`.
    #[inline]
    pub const fn hour_of_day(self) -> u32 {
        ((self.as_secs() % SECS_PER_DAY) / SECS_PER_HOUR) as u32
    }

    /// Hour of day shifted by a time-zone offset in hours
    /// (positive east of Greenwich), wrapped to `0..24`.
    #[inline]
    pub fn local_hour(self, tz_offset_hours: i32) -> u32 {
        let h = self.hour_of_day() as i32 + tz_offset_hours;
        h.rem_euclid(24) as u32
    }

    /// Saturating addition of a (possibly negative) duration.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        if d.nanos >= 0 {
            SimTime { nanos: self.nanos.saturating_add(d.nanos as u64) }
        } else {
            SimTime { nanos: self.nanos.saturating_sub(d.nanos.unsigned_abs()) }
        }
    }

    /// Duration elapsed since `earlier`. Panics in debug builds if
    /// `earlier` is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(self >= earlier, "since() with a future instant");
        SimDuration { nanos: (self.nanos - earlier.nanos) as i64 }
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration { nanos: 0 };
    pub const MAX: SimDuration = SimDuration { nanos: i64::MAX };

    #[inline]
    pub const fn from_nanos(nanos: i64) -> Self {
        SimDuration { nanos }
    }

    #[inline]
    pub const fn from_micros(micros: i64) -> Self {
        SimDuration { nanos: micros * NANOS_PER_MICRO as i64 }
    }

    #[inline]
    pub const fn from_millis(millis: i64) -> Self {
        SimDuration { nanos: millis * NANOS_PER_MILLI as i64 }
    }

    #[inline]
    pub const fn from_secs(secs: i64) -> Self {
        SimDuration { nanos: secs * NANOS_PER_SEC as i64 }
    }

    #[inline]
    pub const fn from_mins(mins: i64) -> Self {
        Self::from_secs(mins * 60)
    }

    #[inline]
    pub const fn from_hours(hours: i64) -> Self {
        Self::from_secs(hours * SECS_PER_HOUR as i64)
    }

    #[inline]
    pub const fn from_days(days: i64) -> Self {
        Self::from_secs(days * SECS_PER_DAY as i64)
    }

    /// Construct from fractional seconds (configuration-time only).
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(secs.is_finite());
        SimDuration { nanos: (secs * NANOS_PER_SEC as f64).round() as i64 }
    }

    /// Construct from fractional milliseconds (configuration-time only).
    #[inline]
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    #[inline]
    pub const fn as_nanos(self) -> i64 {
        self.nanos
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / NANOS_PER_SEC as f64
    }

    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.nanos as f64 / NANOS_PER_MILLI as f64
    }

    #[inline]
    pub const fn is_negative(self) -> bool {
        self.nanos < 0
    }

    /// Multiply by a non-negative float factor, rounding to nearest ns.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor.is_finite());
        SimDuration { nanos: (self.nanos as f64 * factor).round() as i64 }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        self.saturating_add(rhs)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration { nanos: self.nanos as i64 - rhs.nanos as i64 }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration { nanos: self.nanos + rhs.nanos }
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.nanos += rhs.nanos;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration { nanos: self.nanos - rhs.nanos }
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.nanos -= rhs.nanos;
    }
}

impl Neg for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn neg(self) -> SimDuration {
        SimDuration { nanos: -self.nanos }
    }
}

impl Mul<i64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: i64) -> SimDuration {
        SimDuration { nanos: self.nanos * rhs }
    }
}

impl Div<i64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: i64) -> SimDuration {
        SimDuration { nanos: self.nanos / rhs }
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs();
        let sub_ms = (self.nanos % NANOS_PER_SEC) / NANOS_PER_MILLI;
        write!(
            f,
            "t+{}d{:02}:{:02}:{:02}.{:03}",
            s / SECS_PER_DAY,
            (s % SECS_PER_DAY) / 3600,
            (s % 3600) / 60,
            s % 60,
            sub_ms
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let abs = self.nanos.unsigned_abs();
        let sign = if self.nanos < 0 { "-" } else { "" };
        if abs >= NANOS_PER_SEC {
            write!(f, "{sign}{:.3}s", abs as f64 / NANOS_PER_SEC as f64)
        } else if abs >= NANOS_PER_MILLI {
            write!(f, "{sign}{:.3}ms", abs as f64 / NANOS_PER_MILLI as f64)
        } else if abs >= NANOS_PER_MICRO {
            write!(f, "{sign}{:.3}us", abs as f64 / NANOS_PER_MICRO as f64)
        } else {
            write!(f, "{sign}{abs}ns")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
        assert_eq!(SimTime::from_nanos(42).as_nanos(), 42);
        assert_eq!(SimTime::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(550);
        let b = SimDuration::from_millis(50);
        assert_eq!((a + b).as_millis_f64(), 600.0);
        assert_eq!((a - b).as_millis_f64(), 500.0);
        assert_eq!((b - a).as_millis_f64(), -500.0);
        assert!((b - a).is_negative());
        assert_eq!((a * 2).as_millis_f64(), 1100.0);
        assert_eq!((a / 2).as_millis_f64(), 275.0);
        assert_eq!(a.mul_f64(0.5).as_millis_f64(), 275.0);
    }

    #[test]
    fn time_plus_duration() {
        let t = SimTime::from_secs(10);
        let t2 = t + SimDuration::from_millis(250);
        assert_eq!((t2 - t).as_millis_f64(), 250.0);
        // Negative durations move backwards, saturating at zero.
        let t3 = SimTime::from_secs(0) + SimDuration::from_secs(-5);
        assert_eq!(t3, SimTime::ZERO);
    }

    #[test]
    fn hour_of_day_and_local_hour() {
        let t = SimTime::from_secs(2 * SECS_PER_DAY + 9 * 3600 + 120);
        assert_eq!(t.day(), 2);
        assert_eq!(t.hour_of_day(), 9);
        assert_eq!(t.local_hour(1), 10); // Congo: UTC+1
        assert_eq!(t.local_hour(-10), 23);
        let late = SimTime::from_secs(23 * 3600);
        assert_eq!(late.local_hour(2), 1); // wraps to next day
    }

    #[test]
    fn ordering_and_since() {
        let a = SimTime::from_millis_ns(100);
        let b = SimTime::from_millis_ns(300);
        assert!(a < b);
        assert_eq!(b.since(a).as_millis_f64(), 200.0);
    }

    impl SimTime {
        fn from_millis_ns(ms: u64) -> SimTime {
            SimTime::from_nanos(ms * NANOS_PER_MILLI)
        }
    }

    #[test]
    fn debug_formats() {
        let t = SimTime::from_secs(SECS_PER_DAY + 3661) + SimDuration::from_millis(42);
        assert_eq!(format!("{t:?}"), "t+1d01:01:01.042");
        assert_eq!(format!("{:?}", SimDuration::from_millis(550)), "550.000ms");
        assert_eq!(format!("{:?}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{:?}", SimDuration::from_nanos(-1500)), "-1.500us");
        assert_eq!(format!("{:?}", SimDuration::from_nanos(12)), "12ns");
    }
}
