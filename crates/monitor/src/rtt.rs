//! Passive RTT estimation (paper §2.2, Fig 1).
//!
//! Two estimators run per flow:
//!
//! * [`GroundRtt`] — classic Tstat data↔ACK matching on the TCP
//!   connection between the ground-station PEP and the origin server.
//!   Every outbound data segment (or SYN) opens a sample; the first
//!   inbound segment whose ACK covers it closes the sample.
//!   Retransmissions invalidate their sample (Karn's algorithm).
//! * [`SatRtt`] — the paper's TLS trick: at the ground station, the
//!   gap between the relayed **ServerHello** (heading to the customer)
//!   and the returning **ClientKeyExchange/ChangeCipherSpec** spans
//!   exactly one satellite-segment round trip (plus the negligible
//!   home RTT).

use crate::checkpoint::{self, CheckpointError, Reader};
use satwatch_netstack::tcp::SeqNum;
use satwatch_netstack::tls::{self, ContentType, HandshakeType};
use satwatch_simcore::stats::Running;
use satwatch_simcore::SimTime;

/// Maximum outstanding unacked segments tracked per flow; beyond this
/// the oldest samples are dropped (bounds memory like Tstat does).
const MAX_OUTSTANDING: usize = 32;

/// Ground-segment RTT estimator for one flow.
#[derive(Clone, Debug, Default)]
pub struct GroundRtt {
    /// (end seq, send time) of in-flight c2s segments awaiting an ACK.
    outstanding: Vec<(SeqNum, SimTime)>,
    /// Sequence ends seen before (retransmission detection).
    highest_sent: Option<SeqNum>,
    samples: Running,
}

impl GroundRtt {
    pub fn new() -> GroundRtt {
        GroundRtt::default()
    }

    /// Record an outbound (vantage → server) segment occupying
    /// sequence space up to `seq_end` (exclusive). Pass SYNs with
    /// `seq_end = seq + 1`.
    pub fn on_data_out(&mut self, t: SimTime, seq_end: SeqNum) {
        // Karn: a segment whose range was already sent is a
        // retransmission — drop any matching sample and don't arm.
        if let Some(hi) = self.highest_sent {
            if !seq_end.after(hi) {
                self.outstanding.retain(|&(e, _)| e != seq_end);
                return;
            }
        }
        self.highest_sent = Some(seq_end);
        if self.outstanding.len() == MAX_OUTSTANDING {
            self.outstanding.remove(0);
        }
        self.outstanding.push((seq_end, t));
    }

    /// Record an inbound (server → vantage) ACK.
    pub fn on_ack_in(&mut self, t: SimTime, ack: SeqNum) {
        // close every sample fully covered by this ACK; the newest
        // covered one is the tightest estimate (cumulative ACKs).
        let mut matched: Option<SimTime> = None;
        self.outstanding.retain(|&(end, sent)| {
            if ack.at_or_after(end) {
                matched = Some(match matched {
                    Some(prev) => prev.max(sent),
                    None => sent,
                });
                false
            } else {
                true
            }
        });
        if let Some(sent) = matched {
            if t >= sent {
                self.samples.push((t - sent).as_millis_f64());
            }
        }
    }

    pub fn stats(&self) -> &Running {
        &self.samples
    }

    /// Checkpoint bytes: the outstanding samples in send order, the
    /// retransmission watermark, and the Welford accumulator's exact
    /// bits.
    pub(crate) fn write_state(&self, w: &mut Vec<u8>) {
        use checkpoint::*;
        put_u32(w, self.outstanding.len() as u32);
        for &(seq, t) in &self.outstanding {
            put_u32(w, seq.0);
            put_u64(w, t.as_nanos());
        }
        put_opt_u32(w, self.highest_sent.map(|s| s.0));
        let (n, mean, m2, min, max) = self.samples.to_parts();
        put_u64(w, n);
        for v in [mean, m2, min, max] {
            put_f64(w, v);
        }
    }

    /// Inverse of [`write_state`](Self::write_state). More than
    /// `MAX_OUTSTANDING` samples is corrupt: the cap only holds for a
    /// vector that starts inside it, because `on_data_out` trims a full
    /// one by one, so a longer one would grow with every
    /// unacknowledged segment.
    pub(crate) fn read_state(r: &mut Reader<'_>) -> Result<GroundRtt, CheckpointError> {
        let n = r.u32()? as usize;
        if n > MAX_OUTSTANDING {
            return Err(CheckpointError::Corrupt("ground RTT outstanding"));
        }
        let mut outstanding = Vec::with_capacity(n);
        for _ in 0..n {
            outstanding.push((SeqNum(r.u32()?), SimTime::from_nanos(r.u64()?)));
        }
        let highest_sent = r.opt_u32()?.map(SeqNum);
        let samples = Running::from_parts(r.u64()?, r.f64()?, r.f64()?, r.f64()?, r.f64()?);
        Ok(GroundRtt { outstanding, highest_sent, samples })
    }
}

/// Satellite-segment RTT estimator state machine for one TLS flow.
#[derive(Clone, Copy, Debug, Default)]
pub struct SatRtt {
    server_hello_at: Option<SimTime>,
    sample_ms: Option<f64>,
}

impl SatRtt {
    pub fn new() -> SatRtt {
        SatRtt::default()
    }

    /// Feed a server→client TCP payload (TLS records heading down to
    /// the customer).
    pub fn on_s2c_payload(&mut self, t: SimTime, payload: &[u8]) {
        if self.sample_ms.is_some() || self.server_hello_at.is_some() {
            return;
        }
        for rec in tls::iter_records(payload) {
            if rec.content == ContentType::Handshake
                && tls::handshake_type(rec.body) == Some(HandshakeType::ServerHello)
            {
                self.server_hello_at = Some(t);
                return;
            }
        }
    }

    /// Feed a client→server TCP payload (records coming back up from
    /// the customer after a full satellite round trip).
    pub fn on_c2s_payload(&mut self, t: SimTime, payload: &[u8]) {
        if self.sample_ms.is_some() {
            return;
        }
        let Some(sh_at) = self.server_hello_at else { return };
        for rec in tls::iter_records(payload) {
            let is_cke = rec.content == ContentType::Handshake
                && tls::handshake_type(rec.body) == Some(HandshakeType::ClientKeyExchange);
            let is_ccs = rec.content == ContentType::ChangeCipherSpec;
            if is_cke || is_ccs {
                if t >= sh_at {
                    self.sample_ms = Some((t - sh_at).as_millis_f64());
                }
                return;
            }
        }
    }

    /// The satellite RTT estimate, if the handshake completed.
    pub fn sample_ms(&self) -> Option<f64> {
        self.sample_ms
    }

    /// Checkpoint bytes: the ServerHello time and the sample.
    pub(crate) fn write_state(&self, w: &mut Vec<u8>) {
        checkpoint::put_opt_u64(w, self.server_hello_at.map(SimTime::as_nanos));
        checkpoint::put_opt_f64(w, self.sample_ms);
    }

    /// Inverse of [`write_state`](Self::write_state).
    pub(crate) fn read_state(r: &mut Reader<'_>) -> Result<SatRtt, CheckpointError> {
        Ok(SatRtt { server_hello_at: r.opt_u64()?.map(SimTime::from_nanos), sample_ms: r.opt_f64()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satwatch_simcore::SimDuration;

    fn t(ms: i64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn ground_rtt_basic_sample() {
        let mut g = GroundRtt::new();
        g.on_data_out(t(0), SeqNum(1000));
        g.on_ack_in(t(12), SeqNum(1000));
        assert_eq!(g.stats().count(), 1);
        assert!((g.stats().mean() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn cumulative_ack_closes_many_uses_newest() {
        let mut g = GroundRtt::new();
        g.on_data_out(t(0), SeqNum(1000));
        g.on_data_out(t(5), SeqNum(2000));
        g.on_data_out(t(10), SeqNum(3000));
        g.on_ack_in(t(25), SeqNum(3000)); // covers all three
        assert_eq!(g.stats().count(), 1);
        assert!((g.stats().mean() - 15.0).abs() < 1e-9, "newest sample: 25-10");
        assert_eq!(g.stats().count(), 1);
    }

    #[test]
    fn partial_ack_only_closes_covered() {
        let mut g = GroundRtt::new();
        g.on_data_out(t(0), SeqNum(1000));
        g.on_data_out(t(2), SeqNum(2000));
        g.on_ack_in(t(14), SeqNum(1000));
        assert_eq!(g.stats().count(), 1);
        assert!((g.stats().mean() - 14.0).abs() < 1e-9);
        g.on_ack_in(t(20), SeqNum(2000));
        assert_eq!(g.stats().count(), 2);
        assert!((g.stats().max() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn retransmission_is_discarded() {
        let mut g = GroundRtt::new();
        g.on_data_out(t(0), SeqNum(1000));
        g.on_data_out(t(300), SeqNum(1000)); // retransmit same segment
        g.on_ack_in(t(320), SeqNum(1000));
        // Karn: no sample from a retransmitted segment
        assert_eq!(g.stats().count(), 0);
        // flow continues: new data still sampled
        g.on_data_out(t(400), SeqNum(2000));
        g.on_ack_in(t(412), SeqNum(2000));
        assert_eq!(g.stats().count(), 1);
        assert!((g.stats().mean() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn outstanding_is_bounded() {
        let mut g = GroundRtt::new();
        for i in 0..100u32 {
            g.on_data_out(t(i as i64), SeqNum(1000 * (i + 1)));
        }
        assert!(g.outstanding.len() <= MAX_OUTSTANDING);
    }

    /// `g`'s checkpoint bytes, read back.
    fn reread(g: &GroundRtt) -> Result<GroundRtt, CheckpointError> {
        let mut w = Vec::new();
        g.write_state(&mut w);
        let mut r = Reader::new(&w);
        let back = GroundRtt::read_state(&mut r)?;
        assert_eq!(r.remaining(), 0);
        Ok(back)
    }

    #[test]
    fn a_ground_rtt_rereads_to_the_same_bytes() {
        let mut g = GroundRtt::new();
        for i in 0..100u32 {
            g.on_data_out(t(i as i64), SeqNum(1000 * (i + 1)));
        }
        g.on_ack_in(t(120), SeqNum(80_000));
        assert_eq!(g.outstanding.len(), MAX_OUTSTANDING - 12);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        g.write_state(&mut a);
        reread(&g).unwrap().write_state(&mut b);
        assert_eq!(a, b);
    }

    /// `on_data_out` trims a full outstanding vector by one, so a longer
    /// one restored would grow by one per unacknowledged segment.
    #[test]
    fn more_outstanding_ground_rtt_samples_than_the_cap_is_corrupt() {
        let mut g = GroundRtt::new();
        g.outstanding = vec![(SeqNum(1), t(0)); MAX_OUTSTANDING];
        assert!(reread(&g).is_ok());
        g.outstanding.push((SeqNum(2), t(1)));
        assert_eq!(reread(&g).unwrap_err(), CheckpointError::Corrupt("ground RTT outstanding"));
    }

    #[test]
    fn duplicate_ack_gives_no_second_sample() {
        let mut g = GroundRtt::new();
        g.on_data_out(t(0), SeqNum(1000));
        g.on_ack_in(t(10), SeqNum(1000));
        g.on_ack_in(t(20), SeqNum(1000)); // dup ACK
        assert_eq!(g.stats().count(), 1);
    }

    #[test]
    fn sat_rtt_from_tls_handshake() {
        let mut s = SatRtt::new();
        // server flight at t=100 (ServerHello + Certificate + Done)
        let mut flight = Vec::new();
        flight.extend_from_slice(&tls::server_hello([1; 32]));
        flight.extend_from_slice(&tls::certificate(1000, 0));
        flight.extend_from_slice(&tls::server_hello_done());
        s.on_s2c_payload(t(100), &flight);
        // client key exchange arrives back after 612 ms
        let mut reply = Vec::new();
        reply.extend_from_slice(&tls::client_key_exchange(0));
        reply.extend_from_slice(&tls::change_cipher_spec());
        s.on_c2s_payload(t(712), &reply);
        assert_eq!(s.sample_ms(), Some(612.0));
    }

    #[test]
    fn sat_rtt_accepts_bare_ccs() {
        let mut s = SatRtt::new();
        s.on_s2c_payload(t(0), &tls::server_hello([0; 32]));
        s.on_c2s_payload(t(555), &tls::change_cipher_spec());
        assert_eq!(s.sample_ms(), Some(555.0));
    }

    #[test]
    fn sat_rtt_requires_server_hello_first() {
        let mut s = SatRtt::new();
        s.on_c2s_payload(t(10), &tls::client_key_exchange(0));
        assert_eq!(s.sample_ms(), None);
        // ClientHello alone must not arm the estimator
        s.on_s2c_payload(t(20), &tls::client_hello("x.example", [0; 32]));
        s.on_c2s_payload(t(600), &tls::client_key_exchange(0));
        assert_eq!(s.sample_ms(), None);
    }

    #[test]
    fn sat_rtt_single_sample_per_flow() {
        let mut s = SatRtt::new();
        s.on_s2c_payload(t(0), &tls::server_hello([0; 32]));
        s.on_c2s_payload(t(600), &tls::client_key_exchange(0));
        s.on_s2c_payload(t(700), &tls::server_hello([1; 32]));
        s.on_c2s_payload(t(5000), &tls::client_key_exchange(1));
        assert_eq!(s.sample_ms(), Some(600.0), "only the first handshake counts");
    }

    #[test]
    fn sat_rtt_ignores_non_tls_garbage() {
        let mut s = SatRtt::new();
        s.on_s2c_payload(t(0), b"random bytes that are not tls");
        assert_eq!(s.sample_ms(), None);
        s.on_c2s_payload(t(1), &[0xff; 64]);
        assert_eq!(s.sample_ms(), None);
    }
}
