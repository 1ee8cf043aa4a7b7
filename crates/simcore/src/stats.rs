//! Descriptive statistics used by the analytics pipeline.
//!
//! Two families:
//! * streaming accumulators (Welford mean/variance, min/max) used
//!   per-flow inside the monitor where memory is at a premium;
//! * batch quantile/CDF/CCDF/boxplot extraction used by the report
//!   generators, where exactness matters more than memory.

/// Streaming min/max/mean/std accumulator (Welford's algorithm).
#[derive(Clone, Debug)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Running {
    fn default() -> Running {
        Running::new()
    }
}

impl Running {
    pub fn new() -> Running {
        Running { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Raw state `(n, mean, m2, min, max)` for checkpoint
    /// serialization. Exposes the exact internal bit patterns so a
    /// restored accumulator continues the identical Welford sequence.
    pub fn to_parts(&self) -> (u64, f64, f64, f64, f64) {
        (self.n, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuild from [`Running::to_parts`] output, bit-exact.
    pub fn from_parts(n: u64, mean: f64, m2: f64, min: f64, max: f64) -> Running {
        Running { n, mean, m2, min, max }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Running) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact quantile of a batch, with linear interpolation
/// (type-7 estimator, the R/NumPy default). `q` in `[0,1]`.
/// Sorts a copy — callers with big data should pre-sort and use
/// [`quantile_sorted`].
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    quantile_sorted(&v, q)
}

/// Type-7 quantile over an already-sorted, NaN-free slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Five-number summary + mean matching the paper's boxplots
/// (whiskers at the 5th/95th percentiles, box at quartiles).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoxplotSummary {
    pub p5: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p95: f64,
    pub mean: f64,
    pub count: usize,
}

impl BoxplotSummary {
    pub fn from_values(values: &[f64]) -> Option<BoxplotSummary> {
        let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        Some(BoxplotSummary {
            p5: quantile_sorted(&v, 0.05),
            q1: quantile_sorted(&v, 0.25),
            median: quantile_sorted(&v, 0.50),
            q3: quantile_sorted(&v, 0.75),
            p95: quantile_sorted(&v, 0.95),
            mean,
            count: v.len(),
        })
    }
}

/// An empirical CDF: sorted support points with cumulative probability.
#[derive(Clone, Debug, Default)]
pub struct Cdf {
    /// `(x, P(X <= x))` points, x strictly increasing.
    pub points: Vec<(f64, f64)>,
    pub count: usize,
}

impl Cdf {
    /// Build from raw samples. Duplicate x-values are collapsed.
    pub fn from_values(values: &[f64]) -> Cdf {
        let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = v.len();
        let mut points = Vec::new();
        let mut i = 0;
        while i < n {
            let x = v[i];
            let mut j = i;
            while j < n && v[j] == x {
                j += 1;
            }
            points.push((x, j as f64 / n as f64));
            i = j;
        }
        Cdf { points, count: n }
    }

    /// Build from weighted samples `(x, weight)` — e.g. a
    /// traffic-volume-weighted RTT distribution. Weights must be
    /// non-negative with a positive sum; NaN x values are dropped.
    pub fn from_weighted(samples: &[(f64, f64)]) -> Cdf {
        let mut v: Vec<(f64, f64)> = samples.iter().copied().filter(|(x, w)| !x.is_nan() && *w > 0.0).collect();
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let total: f64 = v.iter().map(|(_, w)| w).sum();
        let mut points = Vec::new();
        let mut acc = 0.0;
        let mut i = 0;
        while i < v.len() {
            let x = v[i].0;
            while i < v.len() && v[i].0 == x {
                acc += v[i].1;
                i += 1;
            }
            points.push((x, acc / total));
        }
        Cdf { points, count: v.len() }
    }

    /// `P(X <= x)`.
    pub fn at(&self, x: f64) -> f64 {
        match self.points.binary_search_by(|(px, _)| px.partial_cmp(&x).unwrap()) {
            Ok(i) => self.points[i].1,
            Err(0) => 0.0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// `P(X > x)` (the CCDF the paper plots for volumes/throughput).
    pub fn ccdf_at(&self, x: f64) -> f64 {
        1.0 - self.at(x)
    }

    /// Smallest support x with `P(X <= x) >= q`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.points.is_empty() {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        for &(x, p) in &self.points {
            if p >= q {
                return x;
            }
        }
        self.points.last().unwrap().0
    }

    /// Downsample to at most `n` evenly spaced (in probability) points —
    /// used when rendering figure series as text.
    pub fn resample(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2);
        (0..n)
            .map(|i| {
                let q = i as f64 / (n - 1) as f64;
                (self.quantile(q.clamp(0.0, 1.0).max(1e-9)), q)
            })
            .collect()
    }
}

/// Fixed-bin linear histogram over `[lo, hi)` with under/overflow bins.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Histogram {
        assert!(hi > lo && nbins > 0);
        Histogram { lo, hi, bins: vec![0; nbins], underflow: 0, overflow: 0, count: 0 }
    }

    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let n = self.bins.len();
            let idx = ((x - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.bins[idx.min(n - 1)] += 1;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Bin centres with normalised densities (sums to the in-range mass).
    pub fn density(&self) -> Vec<(f64, f64)> {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let centre = self.lo + (i as f64 + 0.5) * width;
                (centre, if self.count == 0 { 0.0 } else { c as f64 / self.count as f64 })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_matches_batch() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut r = Running::new();
        for &x in &data {
            r.push(x);
        }
        assert_eq!(r.count(), 8);
        assert!((r.mean() - 5.0).abs() < 1e-12);
        assert!((r.std_dev() - 2.0).abs() < 1e-12); // classic example set
        assert_eq!(r.min(), 2.0);
        assert_eq!(r.max(), 9.0);
    }

    #[test]
    fn running_empty_is_nan() {
        let r = Running::new();
        assert!(r.mean().is_nan());
        assert!(r.min().is_nan());
    }

    #[test]
    fn running_merge_equals_single_pass() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Running::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn quantile_type7() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_ignores_nan() {
        let v = [1.0, f64::NAN, 3.0];
        assert_eq!(quantile(&v, 0.5), 2.0);
    }

    #[test]
    fn boxplot_summary_fields() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let b = BoxplotSummary::from_values(&v).unwrap();
        assert!((b.median - 50.5).abs() < 1e-9);
        assert!((b.q1 - 25.75).abs() < 1e-9);
        assert!((b.q3 - 75.25).abs() < 1e-9);
        assert!((b.p5 - 5.95).abs() < 1e-9);
        assert!((b.p95 - 95.05).abs() < 1e-9);
        assert_eq!(b.count, 100);
        assert!(BoxplotSummary::from_values(&[]).is_none());
    }

    #[test]
    fn cdf_basics() {
        let c = Cdf::from_values(&[1.0, 1.0, 2.0, 3.0]);
        assert_eq!(c.count, 4);
        assert_eq!(c.at(0.5), 0.0);
        assert_eq!(c.at(1.0), 0.5);
        assert_eq!(c.at(2.5), 0.75);
        assert_eq!(c.at(3.0), 1.0);
        assert_eq!(c.ccdf_at(1.0), 0.5);
        assert_eq!(c.quantile(0.5), 1.0);
        assert_eq!(c.quantile(0.75), 2.0);
        assert_eq!(c.quantile(1.0), 3.0);
    }

    #[test]
    fn weighted_cdf() {
        let c = Cdf::from_weighted(&[(10.0, 1.0), (20.0, 3.0), (5.0, 1.0)]);
        assert_eq!(c.at(5.0), 0.2);
        assert_eq!(c.at(10.0), 0.4);
        assert_eq!(c.at(20.0), 1.0);
        assert_eq!(c.quantile(0.5), 20.0);
        // zero/negative weights and NaN x dropped
        let c2 = Cdf::from_weighted(&[(1.0, 0.0), (2.0, 5.0), (f64::NAN, 1.0)]);
        assert_eq!(c2.points.len(), 1);
        assert_eq!(c2.at(2.0), 1.0);
    }

    #[test]
    fn cdf_resample_monotone() {
        let vals: Vec<f64> = (0..1000).map(|i| (i % 97) as f64).collect();
        let c = Cdf::from_values(&vals);
        let pts = c.resample(20);
        assert_eq!(pts.len(), 20);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0, "x must be non-decreasing");
            assert!(w[1].1 >= w[0].1, "p must be non-decreasing");
        }
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        h.push(-1.0);
        h.push(10.0);
        h.push(11.0);
        assert_eq!(h.count(), 13);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        for i in 0..10 {
            assert_eq!(h.bin_count(i), 1);
        }
        let d = h.density();
        assert_eq!(d.len(), 10);
        assert!((d[0].0 - 0.5).abs() < 1e-12);
    }
}
