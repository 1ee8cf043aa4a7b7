//! Random distributions used by the workload and channel models.
//!
//! `rand_distr` is not in the approved offline dependency set, so the
//! samplers are implemented here from their textbook definitions: the
//! log-normal every size and delay model draws from, and the
//! categorical that picks archetypes, plans and resolvers. Each
//! sampler draws from a [`Rng`] passed by the caller — distributions
//! themselves are immutable parameter bundles.

use crate::rng::Rng;

/// A sampling distribution over `f64`.
pub trait Sample {
    /// Draw one sample.
    fn sample(&self, rng: &mut Rng) -> f64;

    /// The distribution mean (used by calibration code and tests).
    fn mean(&self) -> f64;
}

/// Standard normal variate via the Marsaglia polar method (one value
/// per call; the spare is discarded to keep the sampler stateless).
fn std_normal(rng: &mut Rng) -> f64 {
    loop {
        let u = rng.range_f64(-1.0, 1.0);
        let v = rng.range_f64(-1.0, 1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Log-normal distribution parameterised by the underlying normal's
/// `mu`/`sigma`. Heavily used for flow sizes and RTT tails.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogNormal {
    pub mu: f64,
    pub sigma: f64,
}

impl LogNormal {
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite() && mu.is_finite());
        LogNormal { mu, sigma }
    }

    /// Construct from the *median* of the log-normal itself and the
    /// log-space sigma — far more intuitive for calibration
    /// ("median chat volume 250 MB, spread 1.2").
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0);
        LogNormal::new(median.ln(), sigma)
    }

    /// Quantile function (inverse CDF) — used by fitting code.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p) && p > 0.0);
        (self.mu + self.sigma * inverse_std_normal_cdf(p)).exp()
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        (self.mu + self.sigma * std_normal(rng)).exp()
    }

    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

/// Categorical distribution over arbitrary weights.
#[derive(Clone, Debug, PartialEq)]
pub struct Categorical {
    cum: Vec<f64>,
}

impl Categorical {
    /// Weights need not sum to one; they are normalised. All weights
    /// must be non-negative with a positive sum.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty());
        let mut cum = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "bad weight {w}");
            acc += w;
            cum.push(acc);
        }
        assert!(acc > 0.0, "all-zero weights");
        for v in &mut cum {
            *v /= acc;
        }
        Categorical { cum }
    }

    /// Sample an index in `0..len`.
    pub fn sample_index(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        match self.cum.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => (i + 1).min(self.cum.len() - 1),
            Err(i) => i.min(self.cum.len() - 1),
        }
    }
}

/// Acklam's rational approximation of the standard normal inverse CDF.
/// Max absolute error ~1.15e-9 — plenty for quantile-based fitting.
pub fn inverse_std_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile outside (0,1): {p}");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] =
        [7.784_695_709_041_462e-3, 3.224_671_290_700_398e-1, 2.445_134_137_142_996, 3.754_408_661_907_416];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn normal_moments() {
        let mut rng = Rng::new(2);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| std_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "{mean}");
        assert!((var - 1.0).abs() < 0.02, "{var}");
    }

    #[test]
    fn lognormal_median_and_mean() {
        let d = LogNormal::from_median(100.0, 0.5);
        let mut rng = Rng::new(3);
        let n = 100_000;
        let mut samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!((median / 100.0 - 1.0).abs() < 0.03, "median {median}");
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean / d.mean() - 1.0).abs() < 0.05, "mean {mean} vs {}", d.mean());
    }

    #[test]
    fn lognormal_quantile_matches_samples() {
        let d = LogNormal::from_median(50.0, 1.0);
        // Median quantile equals the median parameter.
        assert!((d.quantile(0.5) - 50.0).abs() < 1e-9);
        // 84th percentile of log-normal = median * exp(sigma)
        assert!((d.quantile(0.841_344_7) / (50.0 * 1.0f64.exp()) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn categorical_proportions() {
        let c = Categorical::new(&[1.0, 2.0, 7.0]);
        let mut rng = Rng::new(8);
        let mut counts = [0u32; 3];
        for _ in 0..100_000 {
            counts[c.sample_index(&mut rng)] += 1;
        }
        assert!((counts[0] as f64 / 1e5 - 0.1).abs() < 0.01);
        assert!((counts[1] as f64 / 1e5 - 0.2).abs() < 0.01);
        assert!((counts[2] as f64 / 1e5 - 0.7).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "all-zero weights")]
    fn categorical_rejects_zero_sum() {
        Categorical::new(&[0.0, 0.0]);
    }

    #[test]
    fn inverse_normal_cdf_symmetry() {
        assert!(inverse_std_normal_cdf(0.5).abs() < 1e-9);
        let z95 = inverse_std_normal_cdf(0.975);
        assert!((z95 - 1.959_964).abs() < 1e-4, "{z95}");
        let lo = inverse_std_normal_cdf(0.01);
        let hi = inverse_std_normal_cdf(0.99);
        assert!((lo + hi).abs() < 1e-6);
    }
}
