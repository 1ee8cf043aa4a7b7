//! Deep packet inspection: protocol identification and domain
//! extraction (paper §2.2).
//!
//! Per flow, the DPI engine inspects early payloads and annotates the
//! flow with the server domain name — from the TLS SNI, the HTTP Host
//! header, or the QUIC Initial's embedded ClientHello — and a protocol
//! verdict matching the paper's Table 1 taxonomy.

use crate::checkpoint::{self, CheckpointError, Reader};
use crate::intern::{Domain, DomainInterner};
use crate::record::L7Protocol;
use satwatch_netstack::{http, quic, rtp, tls};

/// Per-flow DPI state.
#[derive(Clone, Debug)]
pub struct Dpi {
    is_tcp: bool,
    server_port: u16,
    verdict: Option<L7Protocol>,
    /// Interned SNI/Host: a shared handle, not a per-flow `String`.
    domain: Option<Domain>,
    /// TLS handshake records seen on the flow (c2s direction).
    saw_tls_client_hello: bool,
    /// Consecutive RTP-plausible packets (heuristic needs ≥ 2).
    rtp_streak: u8,
    /// Payload packets inspected so far; inspection stops after a cap
    /// (like real DPI engines, which only look at flow heads).
    inspected: u32,
}

/// Packets of payload to inspect before giving up on classification.
const INSPECT_CAP: u32 = 12;

/// How a checkpoint stores a verdict: its position here. The flow
/// table's per-verdict counters are indexed the same way.
pub(crate) const VERDICT_ORDER: [L7Protocol; 7] = [
    L7Protocol::TlsHttps,
    L7Protocol::Http,
    L7Protocol::Quic,
    L7Protocol::Dns,
    L7Protocol::Rtp,
    L7Protocol::OtherTcp,
    L7Protocol::OtherUdp,
];

/// `l7`'s position in [`VERDICT_ORDER`].
pub(crate) fn verdict_index(l7: L7Protocol) -> usize {
    VERDICT_ORDER.iter().position(|&v| v == l7).expect("every verdict is in the order")
}

impl Dpi {
    pub fn new(is_tcp: bool, server_port: u16) -> Dpi {
        Dpi {
            is_tcp,
            server_port,
            verdict: None,
            domain: None,
            saw_tls_client_hello: false,
            rtp_streak: 0,
            inspected: 0,
        }
    }

    /// Inspect one payload-bearing packet. `c2s` is true for
    /// client→server packets. Extracted names are interned through
    /// `names` (owned by the flow table, shared across its flows).
    pub fn inspect(&mut self, payload: &[u8], c2s: bool, names: &mut DomainInterner) {
        if payload.is_empty() || self.inspected >= INSPECT_CAP {
            return;
        }
        self.inspected += 1;
        if self.is_tcp {
            self.inspect_tcp(payload, c2s, names);
        } else {
            self.inspect_udp(payload, c2s, names);
        }
    }

    fn inspect_tcp(&mut self, payload: &[u8], c2s: bool, names: &mut DomainInterner) {
        if self.verdict == Some(L7Protocol::TlsHttps) && self.domain.is_some() {
            return;
        }
        // TLS?
        if let Ok((rec, _)) = tls::parse_record(payload) {
            if rec.content == tls::ContentType::Handshake {
                if c2s && tls::handshake_type(rec.body) == Some(tls::HandshakeType::ClientHello) {
                    self.saw_tls_client_hello = true;
                    if let Some(sni) = tls::extract_sni(rec.body) {
                        self.domain = Some(names.intern(&sni));
                    }
                }
                self.verdict = Some(L7Protocol::TlsHttps);
                return;
            }
            if self.saw_tls_client_hello {
                self.verdict = Some(L7Protocol::TlsHttps);
                return;
            }
        }
        // HTTP?
        if c2s && http::looks_like_request(payload) {
            self.verdict = Some(L7Protocol::Http);
            if let Some(host) = http::extract_host(payload) {
                self.domain = Some(names.intern(&host));
            }
            return;
        }
        if !c2s && http::looks_like_response(payload) && self.verdict.is_none() {
            self.verdict = Some(L7Protocol::Http);
        }
    }

    fn inspect_udp(&mut self, payload: &[u8], c2s: bool, names: &mut DomainInterner) {
        if self.verdict.is_some() && self.domain.is_some() {
            return;
        }
        // DNS by port (the monitor logs the transaction separately).
        if self.server_port == 53 {
            self.verdict = Some(L7Protocol::Dns);
            return;
        }
        // QUIC?
        if quic::looks_like_quic(payload) {
            if c2s {
                if let Some(sni) = quic::extract_sni(payload) {
                    self.domain = Some(names.intern(&sni));
                    self.verdict = Some(L7Protocol::Quic);
                    return;
                }
            }
            // short-header or non-Initial packets: only classify QUIC
            // if something earlier confirmed it
            if self.verdict == Some(L7Protocol::Quic) {
                return;
            }
        }
        // RTP heuristic: two consecutive plausible headers.
        if rtp::looks_like_rtp(payload) {
            self.rtp_streak = self.rtp_streak.saturating_add(1);
            if self.rtp_streak >= 2 {
                self.verdict = Some(L7Protocol::Rtp);
            }
        } else {
            self.rtp_streak = 0;
        }
    }

    /// True once inspection can no longer change this flow's verdict
    /// or domain: every further [`inspect`](Self::inspect) call would
    /// hit a terminal short-circuit (or the cap) and be a no-op. The
    /// batch hot path uses this to skip the call (and the payload
    /// parse behind it) entirely — skipping is output-identical
    /// because the terminal conditions are permanent: verdicts and
    /// domains are never unset.
    pub fn is_satisfied(&self) -> bool {
        if self.inspected >= INSPECT_CAP {
            return true;
        }
        if self.is_tcp {
            // Http is *not* terminal: a later TLS record upgrades it.
            self.verdict == Some(L7Protocol::TlsHttps) && self.domain.is_some()
        } else {
            self.verdict.is_some() && self.domain.is_some()
        }
    }

    /// Final protocol verdict for the flow record.
    pub fn verdict(&self) -> L7Protocol {
        match self.verdict {
            Some(v) => v,
            None if self.is_tcp => L7Protocol::OtherTcp,
            None => L7Protocol::OtherUdp,
        }
    }

    pub fn domain(&self) -> Option<&str> {
        self.domain.as_deref()
    }

    /// The interned domain handle (cheap clone for record building).
    pub fn domain_handle(&self) -> Option<Domain> {
        self.domain.clone()
    }

    /// Checkpoint bytes, fields in declaration order; the verdict as
    /// its [`verdict_index`], the domain as its name.
    pub(crate) fn write_state(&self, w: &mut Vec<u8>) {
        use checkpoint::*;
        put_bool(w, self.is_tcp);
        put_u16(w, self.server_port);
        put_bool(w, self.verdict.is_some());
        if let Some(v) = self.verdict {
            put_u8(w, verdict_index(v) as u8);
        }
        put_bool(w, self.domain.is_some());
        if let Some(d) = &self.domain {
            put_str(w, d);
        }
        put_bool(w, self.saw_tls_client_hello);
        put_u8(w, self.rtp_streak);
        put_u32(w, self.inspected);
    }

    /// Inverse of [`write_state`](Self::write_state). The domain is
    /// re-interned through the table's `names`, so restored flows share
    /// one allocation per name like freshly tracked ones.
    pub(crate) fn read_state(r: &mut Reader<'_>, names: &mut DomainInterner) -> Result<Dpi, CheckpointError> {
        let (is_tcp, server_port) = (r.bool()?, r.u16()?);
        let verdict = if r.bool()? {
            Some(*VERDICT_ORDER.get(usize::from(r.u8()?)).ok_or(CheckpointError::Corrupt("dpi verdict"))?)
        } else {
            None
        };
        let domain = if r.bool()? { Some(names.intern(r.str()?)) } else { None };
        Ok(Dpi {
            is_tcp,
            server_port,
            verdict,
            domain,
            saw_tls_client_hello: r.bool()?,
            rtp_streak: r.u8()?,
            inspected: r.u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satwatch_netstack::tls;

    #[test]
    fn tls_flow_classified_with_sni() {
        let mut d = Dpi::new(true, 443);
        let mut names = DomainInterner::default();
        d.inspect(&tls::client_hello("api.snapchat.com", [0; 32]), true, &mut names);
        d.inspect(&tls::server_hello([0; 32]), false, &mut names);
        assert_eq!(d.verdict(), L7Protocol::TlsHttps);
        assert_eq!(d.domain(), Some("api.snapchat.com"));
    }

    #[test]
    fn http_flow_classified_with_host() {
        let mut d = Dpi::new(true, 80);
        let mut names = DomainInterner::default();
        d.inspect(&satwatch_netstack::http::get_request("cdn.sky.com", "/show.ts", "SkyGo"), true, &mut names);
        assert_eq!(d.verdict(), L7Protocol::Http);
        assert_eq!(d.domain(), Some("cdn.sky.com"));
    }

    #[test]
    fn http_response_only_still_http() {
        let mut d = Dpi::new(true, 80);
        let mut names = DomainInterner::default();
        d.inspect(&satwatch_netstack::http::ok_response(100, "text/html"), false, &mut names);
        assert_eq!(d.verdict(), L7Protocol::Http);
        assert_eq!(d.domain(), None);
    }

    #[test]
    fn unknown_tcp_is_other() {
        let mut d = Dpi::new(true, 8443);
        let mut names = DomainInterner::default();
        d.inspect(&[0xde, 0xad, 0xbe, 0xef, 0x01, 0x02], true, &mut names);
        d.inspect(&[0x00; 40], false, &mut names);
        assert_eq!(d.verdict(), L7Protocol::OtherTcp);
    }

    #[test]
    fn quic_initial_classified_with_sni() {
        let mut d = Dpi::new(false, 443);
        let mut names = DomainInterner::default();
        let p = satwatch_netstack::quic::initial_with_sni(&[9; 8], &[1], "www.youtube.com", [7; 32]);
        d.inspect(&p, true, &mut names);
        assert_eq!(d.verdict(), L7Protocol::Quic);
        assert_eq!(d.domain(), Some("www.youtube.com"));
        // subsequent short packets do not change the verdict
        d.inspect(&satwatch_netstack::quic::short_packet(&[9; 8], 100, 0), false, &mut names);
        assert_eq!(d.verdict(), L7Protocol::Quic);
    }

    #[test]
    fn dns_by_port() {
        let mut d = Dpi::new(false, 53);
        let mut names = DomainInterner::default();
        let q = satwatch_netstack::dns::DnsMessage::query(1, "x.example", satwatch_netstack::dns::RecordType::A);
        d.inspect(&q.encode(), true, &mut names);
        assert_eq!(d.verdict(), L7Protocol::Dns);
    }

    #[test]
    fn rtp_needs_two_consecutive_packets() {
        let mut d = Dpi::new(false, 40_000);
        let mut names = DomainInterner::default();
        let h =
            satwatch_netstack::rtp::RtpHeader { payload_type: 111, sequence: 1, timestamp: 0, ssrc: 1, marker: false };
        d.inspect(&h.encode(160, 0), true, &mut names);
        assert_eq!(d.verdict(), L7Protocol::OtherUdp, "one packet is not enough");
        d.inspect(&h.encode(160, 0), true, &mut names);
        assert_eq!(d.verdict(), L7Protocol::Rtp);
    }

    #[test]
    fn rtp_streak_resets_on_mismatch() {
        let mut d = Dpi::new(false, 40_000);
        let mut names = DomainInterner::default();
        let h =
            satwatch_netstack::rtp::RtpHeader { payload_type: 0, sequence: 1, timestamp: 0, ssrc: 1, marker: false };
        d.inspect(&h.encode(160, 0), true, &mut names);
        d.inspect(&[0x01, 0x02, 0x03], true, &mut names); // garbage breaks the streak
        d.inspect(&h.encode(160, 0), true, &mut names);
        assert_eq!(d.verdict(), L7Protocol::OtherUdp);
    }

    #[test]
    fn inspection_cap_stops_work() {
        let mut d = Dpi::new(true, 443);
        let mut names = DomainInterner::default();
        for _ in 0..50 {
            d.inspect(&[1, 2, 3], true, &mut names);
        }
        assert!(d.inspected <= INSPECT_CAP);
        // a late ClientHello past the cap is not inspected
        d.inspect(&tls::client_hello("late.example", [0; 32]), true, &mut names);
        assert_eq!(d.domain(), None);
    }

    #[test]
    fn satisfied_exactly_when_inspect_cannot_change_output() {
        let mut names = DomainInterner::default();
        // TLS with SNI: terminal
        let mut d = Dpi::new(true, 443);
        d.inspect(&tls::client_hello("a.example", [0; 32]), true, &mut names);
        assert!(d.is_satisfied());
        // HTTP with host: NOT terminal (TLS could still upgrade it)
        let mut d = Dpi::new(true, 80);
        d.inspect(&satwatch_netstack::http::get_request("b.example", "/", "ua"), true, &mut names);
        assert!(!d.is_satisfied());
        // UDP DNS: verdict without domain — not yet satisfied
        let mut d = Dpi::new(false, 53);
        d.inspect(&[1, 2, 3], true, &mut names);
        assert!(!d.is_satisfied());
        // cap always satisfies
        let mut d = Dpi::new(false, 9999);
        for _ in 0..INSPECT_CAP {
            d.inspect(&[1, 2, 3], true, &mut names);
        }
        assert!(d.is_satisfied());
    }

    #[test]
    fn the_verdict_order_holds_every_verdict() {
        for v in L7Protocol::ALL {
            assert_eq!(VERDICT_ORDER[verdict_index(v)], v);
        }
    }

    #[test]
    fn checkpoint_bytes_reread_with_an_interned_domain_and_refuse_an_unknown_verdict() {
        let mut names = DomainInterner::default();
        let mut d = Dpi::new(true, 443);
        d.inspect(&tls::client_hello("state.example", [0; 32]), true, &mut names);
        let mut w = Vec::new();
        d.write_state(&mut w);
        let back = Dpi::read_state(&mut Reader::new(&w), &mut names).unwrap();
        assert!(std::sync::Arc::ptr_eq(back.domain.as_ref().unwrap(), d.domain.as_ref().unwrap()));
        let mut again = Vec::new();
        back.write_state(&mut again);
        assert_eq!(again, w);
        // bool, u16, then the verdict tag and its index
        w[4] = VERDICT_ORDER.len() as u8;
        let err = Dpi::read_state(&mut Reader::new(&w), &mut names).unwrap_err();
        assert_eq!(err, CheckpointError::Corrupt("dpi verdict"));
    }

    #[test]
    fn empty_payload_ignored() {
        let mut d = Dpi::new(true, 443);
        let mut names = DomainInterner::default();
        d.inspect(&[], true, &mut names);
        assert_eq!(d.inspected, 0);
    }
}
