//! The three instrument types: [`Counter`]s, [`Gauge`]s and the
//! log-bucketed [`Histogram`].
//!
//! ## One atomic per instrument
//!
//! satwatch records from one thread — the pipeline runs on one, and
//! the ticker thread only reads (DESIGN.md §7). A counter or gauge is
//! therefore a single relaxed `AtomicU64`: a record is one uncontended
//! `fetch_add`, a read is one load. A read concurrent with writes sees
//! every increment that happened-before it and may see in-flight
//! ones — all operational telemetry needs, without stalling the
//! writer.
//!
//! ## Why observation cannot perturb determinism
//!
//! Nothing in this module is ever *read back* by the pipeline:
//! instruments are write-only from the simulator's perspective, all
//! ordering is `Relaxed`, and no instrument allocates on the record
//! path. The pipeline's output is a pure function of (seed, config)
//! whether telemetry is enabled, disabled, or absent.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Global record-path switch. Disabled instruments skip their atomic
/// writes entirely; export still works (it reads whatever was
/// recorded while enabled).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enable or disable all recording. Purely observational either way:
/// pipeline output is byte-identical at any setting.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Whether recording is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    pub const fn new() -> Counter {
        Counter { v: AtomicU64::new(0) }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.v.fetch_add(n, Relaxed);
        }
    }

    pub fn value(&self) -> u64 {
        self.v.load(Relaxed)
    }
}

/// A signed up/down gauge (queue depths, table sizes), stored as the
/// two's-complement bits of an `i64`: a wrapping `fetch_add` of `n as
/// u64` is an exact signed add.
#[derive(Default)]
pub struct Gauge {
    v: AtomicU64,
}

impl Gauge {
    pub const fn new() -> Gauge {
        Gauge { v: AtomicU64::new(0) }
    }

    #[inline]
    pub fn add(&self, n: i64) {
        if enabled() {
            self.v.fetch_add(n as u64, Relaxed);
        }
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Move the gauge to `v`.
    pub fn set(&self, v: i64) {
        if enabled() {
            self.v.store(v as u64, Relaxed);
        }
    }

    pub fn value(&self) -> i64 {
        self.v.load(Relaxed) as i64
    }
}

/// Number of histogram buckets.
pub const BUCKETS: usize = 128;
/// Values below this are counted exactly (one bucket per value).
const LINEAR_MAX: u64 = 16;
/// Sub-bucket bits per power of two above the linear region.
const SUB_BITS: u32 = 2;
/// First octave above the linear region (2^4 = 16).
const FIRST_OCTAVE: u32 = 4;
/// One past the last resolved octave: values ≥ 2^32 clamp into the
/// top bucket.
const LAST_OCTAVE: u32 = 32;

/// Bucket index for a value: exact below 16, then log-linear — 4
/// sub-buckets per power of two (bucket width ≤ 25 % of the value, so
/// ≤ 20 % quantization error; ~2 significant binary digits) up to
/// 2^32, clamped above.
///
/// `16 + (32 − 4) × 4 = 128` buckets exactly.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else if v >= 1u64 << LAST_OCTAVE {
        BUCKETS - 1
    } else {
        let e = 63 - v.leading_zeros(); // FIRST_OCTAVE ..= LAST_OCTAVE-1
        let sub = ((v >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
        LINEAR_MAX as usize + (((e - FIRST_OCTAVE) as usize) << SUB_BITS) + sub
    }
}

/// Inclusive lower bound of a bucket.
pub fn bucket_lower(idx: usize) -> u64 {
    assert!(idx < BUCKETS);
    if idx < LINEAR_MAX as usize {
        idx as u64
    } else {
        let rel = idx - LINEAR_MAX as usize;
        let e = FIRST_OCTAVE + (rel >> SUB_BITS) as u32;
        let sub = (rel & ((1 << SUB_BITS) - 1)) as u64;
        (1u64 << e) + sub * (1u64 << (e - SUB_BITS))
    }
}

/// Exclusive upper bound of a bucket (`u64::MAX` for the top bucket,
/// which absorbs everything ≥ 2^32).
pub fn bucket_upper(idx: usize) -> u64 {
    assert!(idx < BUCKETS);
    if idx == BUCKETS - 1 {
        u64::MAX
    } else {
        bucket_lower(idx + 1)
    }
}

/// A fixed-size log-bucketed histogram (HDR-style) for latencies
/// (microseconds, by convention) and sizes (bytes).
///
/// Buckets are plain relaxed atomics, like every instrument here.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
            self.count.fetch_add(1, Relaxed);
            self.sum.fetch_add(v, Relaxed);
            self.max.fetch_max(v, Relaxed);
        }
    }

    /// Record the value `v` `n` times in one shot — the bulk-flush
    /// path for callers that accumulate per-value counts locally (a
    /// packet-rate hot loop) instead of paying four atomic RMWs per
    /// observation. Indistinguishable from `n` [`record`](Self::record)
    /// calls in any snapshot.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n > 0 && enabled() {
            self.buckets[bucket_of(v)].fetch_add(n, Relaxed);
            self.count.fetch_add(n, Relaxed);
            self.sum.fetch_add(v * n, Relaxed);
            self.max.fetch_max(v, Relaxed);
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Copy of the bucket array.
    pub fn buckets(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        static C: Counter = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        C.inc();
                    }
                });
            }
        });
        assert_eq!(C.value(), 80_000);
    }

    #[test]
    fn gauge_tracks_up_and_down() {
        let g = Gauge::new();
        g.add(10);
        g.sub(3);
        g.dec();
        assert_eq!(g.value(), 6);
        g.set(-5);
        assert_eq!(g.value(), -5);
    }

    #[test]
    fn gauge_concurrent_adds_balance() {
        static G: Gauge = Gauge::new();
        std::thread::scope(|s| {
            for _ in 0..6 {
                s.spawn(|| {
                    for _ in 0..5_000 {
                        G.inc();
                        G.dec();
                    }
                });
            }
        });
        assert_eq!(G.value(), 0);
    }

    #[test]
    fn bucket_count_is_exact() {
        // the layout constants must tile BUCKETS exactly
        assert_eq!(LINEAR_MAX as usize + ((LAST_OCTAVE - FIRST_OCTAVE) as usize) * (1 << SUB_BITS), BUCKETS);
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        for v in (0..1000).chain([1 << 20, (1 << 32) - 1, 1 << 32, u64::MAX]) {
            let idx = bucket_of(v);
            assert!(bucket_lower(idx) <= v, "v={v} idx={idx}");
            assert!(v < bucket_upper(idx) || idx == BUCKETS - 1, "v={v} idx={idx}");
        }
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        for idx in 0..BUCKETS - 1 {
            assert_eq!(bucket_upper(idx), bucket_lower(idx + 1), "idx={idx}");
            assert!(bucket_lower(idx) < bucket_lower(idx + 1));
        }
    }

    #[test]
    fn relative_width_within_25_percent() {
        for idx in LINEAR_MAX as usize..BUCKETS - 1 {
            let lo = bucket_lower(idx) as f64;
            let width = (bucket_upper(idx) - bucket_lower(idx)) as f64;
            assert!(width / lo <= 0.25 + 1e-12, "idx={idx}: width {width} lo {lo}");
        }
    }

    #[test]
    fn histogram_records() {
        let h = Histogram::new();
        for v in [0, 1, 100, 1_000_000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), u64::MAX);
        let b = h.buckets();
        assert_eq!(b.iter().sum::<u64>(), 5);
        assert_eq!(b[BUCKETS - 1], 1, "u64::MAX clamps into the top bucket");
    }

    // NOTE: the set_enabled(false) gate is tested in
    // tests/enabled_gate.rs — a dedicated integration binary — because
    // flipping the global switch would race the other unit tests here.
}
