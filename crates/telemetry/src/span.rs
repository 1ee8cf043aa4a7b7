//! RAII span timers: measure a scope, record microseconds into a
//! histogram on drop.
//!
//! ```
//! # use satwatch_telemetry as telemetry;
//! {
//!     let _s = telemetry::span("analytics_table1_us");
//!     // ... timed work ...
//! } // recorded here
//! ```

use crate::instruments::Histogram;
use crate::registry::registry;
use std::time::Instant;

/// An RAII timer recording elapsed microseconds into a histogram when
/// dropped. When recording is disabled the clock is still read (the
/// guard is too cheap to branch) but the record is a no-op.
pub struct Span {
    hist: &'static Histogram,
    start: Instant,
}

impl Span {
    /// Start a span over an already-resolved histogram (hot paths:
    /// look the histogram up once, start spans from the handle).
    #[inline]
    pub fn over(hist: &'static Histogram) -> Span {
        Span { hist, start: Instant::now() }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
    }
}

/// Start a span recording into the histogram named `name` (registry
/// lookup per call — fine for per-stage timing, wrong for per-packet).
pub fn span(name: &str) -> Span {
    Span::over(registry().histogram(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn span_records_on_drop() {
        let r = Registry::default();
        let h = r.histogram("busy_us");
        {
            let _s = Span::over(h);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 2_000, "slept 2 ms, recorded {} us", h.sum());
    }
}
