//! Fitting emulation profiles from the monitor's flow frame.
//!
//! RTT: the satellite-segment RTT samples (TLS-estimated) plus the
//! per-flow ground RTT give the end-to-end RTT a client experiences.
//! We fit a log-normal by quantile matching (median → `mu`,
//! median/p84 ratio → `sigma`), which is robust to the heavy upper
//! tail that congestion adds.
//!
//! Rates: the emulator needs the *achievable* rate, taken as the 95th
//! percentile of per-flow download throughput over ≥1 MB flows.

use crate::model::{EmulationProfile, Period};
use satwatch_analytics::agg::{is_night, is_peak};
use satwatch_analytics::FlowFrame;
use satwatch_simcore::dist::LogNormal;
use satwatch_simcore::stats::quantile;
use satwatch_traffic::Country;

/// Fit a log-normal to samples by quantile matching. Returns `None`
/// for degenerate inputs (needs at least 8 positive samples).
pub fn fit_lognormal(samples: &[f64]) -> Option<LogNormal> {
    let v: Vec<f64> = samples.iter().copied().filter(|x| *x > 0.0 && x.is_finite()).collect();
    if v.len() < 8 {
        return None;
    }
    let median = quantile(&v, 0.5);
    let p84 = quantile(&v, 0.841_344_7); // +1 sigma of the underlying normal
    if median <= 0.0 || p84 <= median {
        return Some(LogNormal::from_median(median.max(1e-9), 0.05));
    }
    let sigma = (p84 / median).ln();
    Some(LogNormal::from_median(median, sigma.clamp(0.01, 3.0)))
}

/// Minimum flow size contributing throughput samples to a fit.
const MIN_RATE_FLOW_BYTES: u64 = 1_000_000;

/// Fit one profile per (country, period) from the flow frame.
pub fn fit_profiles(fr: &FlowFrame, countries: &[Country]) -> Vec<EmulationProfile> {
    let mut out = Vec::new();
    for &country in countries {
        for period in [Period::Night, Period::Peak] {
            let in_period = |local_hour: u8| match period {
                Period::Night => is_night(u32::from(local_hour)),
                Period::Peak => is_peak(u32::from(local_hour)),
            };
            let mut rtt = Vec::new();
            let mut rate = Vec::new();
            let mut up_rate = Vec::new();
            for i in 0..fr.len() {
                if usize::from(fr.country[i]) != country.index() || !in_period(fr.local_hour[i]) {
                    continue;
                }
                if let Some(sat) = fr.sat_rtt_at(i) {
                    // end-to-end RTT = satellite segment + ground segment
                    let ground = if fr.ground_rtt_samples[i] > 0 { fr.ground_rtt_avg[i] } else { 0.0 };
                    rtt.push(sat + ground);
                }
                if fr.bytes_down[i] >= MIN_RATE_FLOW_BYTES {
                    rate.push(fr.down_bps[i] / 1e6);
                }
                if fr.bytes_up[i] >= MIN_RATE_FLOW_BYTES / 4 {
                    let d = fr.dur_s[i];
                    if d > 0.0 {
                        up_rate.push(fr.bytes_up[i] as f64 * 8.0 / d / 1e6);
                    }
                }
            }
            let Some(model) = fit_lognormal(&rtt) else { continue };
            out.push(EmulationProfile {
                name: format!("geo-satcom-{}-{}", country.code(), period.label()),
                country: Some(country),
                period,
                rtt_ms: model,
                download_mbps: if rate.is_empty() { 0.0 } else { quantile(&rate, 0.95) },
                upload_mbps: if up_rate.is_empty() { 0.0 } else { quantile(&up_rate, 0.95) },
                samples: rtt.len(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use satwatch_simcore::dist::Sample;
    use satwatch_simcore::Rng;

    #[test]
    fn lognormal_fit_recovers_parameters() {
        let truth = LogNormal::from_median(620.0, 0.4);
        let mut rng = Rng::new(1);
        let samples: Vec<f64> = (0..20_000).map(|_| truth.sample(&mut rng)).collect();
        let fitted = fit_lognormal(&samples).unwrap();
        assert!((fitted.quantile(0.5) / 620.0 - 1.0).abs() < 0.05, "{}", fitted.quantile(0.5));
        assert!((fitted.sigma - 0.4).abs() < 0.05, "{}", fitted.sigma);
    }

    #[test]
    fn fit_rejects_tiny_or_bad_input() {
        assert!(fit_lognormal(&[1.0, 2.0]).is_none());
        assert!(fit_lognormal(&[]).is_none());
        assert!(fit_lognormal(&[-1.0; 20]).is_none());
        // constant samples degrade gracefully to near-zero sigma
        let f = fit_lognormal(&[500.0; 20]).unwrap();
        assert!(f.sigma <= 0.06);
        assert!((f.quantile(0.5) - 500.0).abs() < 1.0);
    }
}
