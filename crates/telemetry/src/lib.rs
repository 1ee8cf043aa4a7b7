//! `satwatch-telemetry` — zero-dependency metrics for the satwatch
//! pipeline: atomic counters/gauges, log-bucketed histograms, RAII
//! span timers, and snapshot export as JSON or Prometheus text.
//!
//! Design rules (see DESIGN.md §9 for the full rationale):
//!
//! - **No dependencies.** Not even on `satwatch-simcore`: this crate
//!   sits at the bottom of the workspace graph so every other crate —
//!   simcore included — can instrument itself.
//! - **Write-only from the pipeline's perspective.** Instruments are
//!   never read back by simulation code, all atomics are `Relaxed`,
//!   and record paths never allocate, so observation cannot perturb
//!   the deterministic output. `crates/scenario` proves this with a
//!   byte-identity test with telemetry on and off.
//! - **One atomic per instrument.** The pipeline records from one
//!   thread and the ticker only reads, so a counter or gauge is a
//!   single relaxed `AtomicU64`: a record is one uncontended
//!   `fetch_add`, a read one load.
//!
//! Typical call-site pattern — resolve handles once, record forever:
//!
//! ```
//! use satwatch_telemetry as telemetry;
//! use std::sync::OnceLock;
//!
//! struct Metrics {
//!     pkts: &'static telemetry::Counter,
//! }
//!
//! fn metrics() -> &'static Metrics {
//!     static M: OnceLock<Metrics> = OnceLock::new();
//!     M.get_or_init(|| Metrics { pkts: telemetry::counter("demo_pkts_total") })
//! }
//!
//! metrics().pkts.inc();
//! ```

mod instruments;
mod registry;
mod snapshot;
mod span;
mod ticker;

pub use instruments::{
    bucket_lower, bucket_of, bucket_upper, enabled, set_enabled, Counter, Gauge, Histogram, BUCKETS,
};
pub use registry::{labelled, registry, Instrument, Registry};
pub use snapshot::{HistogramSnapshot, Snapshot, Value};
pub use span::{span, Span};
pub use ticker::{tick_line, Ticker};

/// The counter named `name` in the global registry (interned on first
/// use; cache the handle on hot paths).
pub fn counter(name: &str) -> &'static Counter {
    registry().counter(name)
}

/// The gauge named `name` in the global registry.
pub fn gauge(name: &str) -> &'static Gauge {
    registry().gauge(name)
}

/// The histogram named `name` in the global registry.
pub fn histogram(name: &str) -> &'static Histogram {
    registry().histogram(name)
}

/// The counter named `name{k="v",…}` in the global registry.
pub fn counter_with(name: &str, labels: &[(&str, &str)]) -> &'static Counter {
    registry().counter(&labelled(name, labels))
}

/// The gauge named `name{k="v",…}` in the global registry.
pub fn gauge_with(name: &str, labels: &[(&str, &str)]) -> &'static Gauge {
    registry().gauge(&labelled(name, labels))
}

#[cfg(target_os = "linux")]
fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Peak resident set size over the *whole process lifetime*, bytes:
/// `VmHWM` from `/proc/self/status` on Linux, `None` elsewhere (or if
/// the read fails — containers sometimes mask procfs).
///
/// The kernel high-water mark never goes down, so this is NOT a
/// per-phase or per-run peak: a memory-hungry warm-up inflates every
/// later reading. Callers comparing phases should sample
/// [`current_rss_bytes`] at phase boundaries instead, or diff
/// successive `peak_rss_process_bytes` readings knowing the result is
/// only a lower bound on the later phase's true peak.
pub fn peak_rss_process_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        proc_status_bytes("VmHWM:")
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Resident set size *right now*, bytes: `VmRSS` from
/// `/proc/self/status` on Linux, `None` elsewhere. Unlike the
/// process-lifetime high-water mark this can fall when memory is
/// released, so sampling it at phase boundaries (the campaign engine
/// samples per sealed day) gives a meaningful per-phase profile.
pub fn current_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        proc_status_bytes("VmRSS:")
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_plausible() {
        let rss = super::peak_rss_process_bytes().expect("VmHWM on linux");
        // more than a page, less than a terabyte
        assert!(rss > 4096 && rss < 1 << 40, "rss={rss}");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn current_rss_never_exceeds_lifetime_peak() {
        let cur = super::current_rss_bytes().expect("VmRSS on linux");
        let peak = super::peak_rss_process_bytes().expect("VmHWM on linux");
        assert!(cur > 4096, "cur={cur}");
        assert!(cur <= peak, "cur={cur} peak={peak}");
    }
}
