//! Performance Enhancing Proxy (RFC 3135) model.
//!
//! The operator splits every TCP connection in three (paper §2.1,
//! Fig 1): the CPE spoofs the server side towards the client, a
//! reliable UDP tunnel crosses the satellite segment, and the ground
//! station proxy opens the real TCP connection to the origin. UDP
//! (QUIC, DNS, RTP) bypasses the PEP entirely.
//!
//! Two behaviours matter to the measurements:
//!
//! 1. **Setup-time inflation under PEP saturation.** The operator told
//!    the authors that congestion on some beams is "not due to the
//!    beam capacity, but rather to the saturation of the PEP
//!    processing ability", slowing connection setup (§6.1, Fig 8b).
//!    We model the PEP as an M/M/1 processor per beam whose
//!    provisioning is an SLA knob.
//! 2. **Decoupled congestion control.** The ground proxy fetches from
//!    the origin at backbone rate while the satellite segment drains
//!    at the shaped plan rate — so measured ground-side throughput
//!    equals the *satellite-side* drain rate for long flows (§6.5).

use satwatch_simcore::{Rng, SimDuration};

/// Count one spoofed handshake: the CPE ACKs the client's SYN locally
/// and the ground proxy ACKs data towards the origin on the client's
/// behalf. Called by the flow synthesizer when it emits the spoofed
/// leg of a PEP-accelerated connection.
pub fn note_spoofed_ack() {
    use std::sync::OnceLock;
    static C: OnceLock<&'static satwatch_telemetry::Counter> = OnceLock::new();
    C.get_or_init(|| satwatch_telemetry::counter("satcom_pep_spoofed_acks_total")).inc();
}

#[derive(Clone, Copy, Debug)]
pub struct PepConfig {
    /// Mean per-connection-setup service time of an unloaded PEP.
    pub setup_service: SimDuration,
    /// Mean per-packet forwarding service time.
    pub forward_service: SimDuration,
}

impl Default for PepConfig {
    fn default() -> PepConfig {
        PepConfig { setup_service: SimDuration::from_millis(2), forward_service: SimDuration::from_micros(80) }
    }
}

#[derive(Clone, Debug)]
pub struct PepModel {
    cfg: PepConfig,
}

impl PepModel {
    pub fn new(cfg: PepConfig) -> PepModel {
        PepModel { cfg }
    }

    /// Effective PEP utilization for a beam: traffic load scaled by
    /// how much PEP capacity the SLA provisioned for that beam.
    /// `provisioning < 1` means an under-provisioned PEP saturates
    /// before the beam does.
    pub fn effective_utilization(beam_utilization: f64, provisioning: f64) -> f64 {
        (beam_utilization / provisioning.max(0.05)).clamp(0.0, 0.995)
    }

    /// Connection-setup processing delay at the given effective PEP
    /// utilization (M/M/1 waiting + service, exponential service).
    pub fn setup_delay(&self, rng: &mut Rng, effective_utilization: f64) -> SimDuration {
        let rho = effective_utilization.clamp(0.0, 0.995);
        // M/M/1 sojourn time: service / (1 - rho), exponential.
        let mean = self.cfg.setup_service.as_secs_f64() / (1.0 - rho);
        let t = -rng.f64_open().ln() * mean;
        // The paper reports seconds of inflation on saturated beams;
        // cap at 8 s to keep tails finite.
        SimDuration::from_secs_f64(t.min(8.0))
    }

    /// Per-packet forwarding delay.
    pub fn forward_delay(&self, rng: &mut Rng, effective_utilization: f64) -> SimDuration {
        let rho = effective_utilization.clamp(0.0, 0.995);
        let mean = self.cfg.forward_service.as_secs_f64() / (1.0 - rho);
        SimDuration::from_secs_f64((-rng.f64_open().ln() * mean).min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_utilization_amplifies_underprovisioning() {
        // A beam at 50% load with half the PEP provisioning behaves
        // like a PEP at 100% (clamped to .995).
        let u = PepModel::effective_utilization(0.5, 0.5);
        assert!((u - 0.995).abs() < 0.01 || u >= 0.95);
        let healthy = PepModel::effective_utilization(0.5, 1.0);
        assert!((healthy - 0.5).abs() < 1e-9);
        // degenerate provisioning must not divide by zero
        assert!(PepModel::effective_utilization(0.5, 0.0) <= 0.995);
    }

    #[test]
    fn setup_delay_saturates_gracefully() {
        let pep = PepModel::new(PepConfig::default());
        let mean = |rho: f64, seed| {
            let mut rng = Rng::new(seed);
            (0..30_000).map(|_| pep.setup_delay(&mut rng, rho).as_millis_f64()).sum::<f64>() / 30_000.0
        };
        let idle = mean(0.1, 1);
        let hot = mean(0.97, 1);
        assert!(idle < 5.0, "{idle}");
        assert!(hot > 40.0, "{hot}");
        // cap holds
        let mut rng = Rng::new(2);
        for _ in 0..10_000 {
            assert!(pep.setup_delay(&mut rng, 0.995) <= SimDuration::from_secs(8));
        }
    }

    #[test]
    fn forward_delay_is_small_when_healthy() {
        let pep = PepModel::new(PepConfig::default());
        let mut rng = Rng::new(3);
        let mean: f64 = (0..30_000).map(|_| pep.forward_delay(&mut rng, 0.3).as_millis_f64()).sum::<f64>() / 30_000.0;
        assert!(mean < 0.5, "{mean} ms");
    }
}
