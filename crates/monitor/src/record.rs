//! Flow-level output records — the monitor's equivalent of Tstat's
//! per-flow log lines — plus TSV serialisation.
//!
//! One [`FlowRecord`] per terminated flow with the statistics the
//! paper's analyses rely on (§2.2): per-direction volumes, timing of
//! the first packets, ground-RTT statistics from data↔ACK matching,
//! the TLS-estimated satellite RTT, and the DPI verdict (protocol +
//! domain). One [`DnsRecord`] per observed DNS transaction.

pub use crate::intern::Domain;
use crate::intern::DomainInterner;
use crate::tsv::{push_fixed3, push_ipv4, push_u64, read_rows, write_rows};
use satwatch_simcore::stats::Running;
use satwatch_simcore::SimTime;
use std::io::{self, BufRead, Write};
use std::net::Ipv4Addr;

/// L7 protocol classification, matching the paper's Table 1 rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum L7Protocol {
    /// TCP port 443 with a TLS handshake.
    TlsHttps,
    /// Plain-text HTTP.
    Http,
    /// QUIC over UDP.
    Quic,
    /// DNS over UDP.
    Dns,
    /// RTP voice/video.
    Rtp,
    /// TCP that matched nothing (VPNs, proprietary protocols…).
    OtherTcp,
    /// UDP that matched nothing.
    OtherUdp,
}

impl L7Protocol {
    pub fn label(self) -> &'static str {
        match self {
            L7Protocol::TlsHttps => "TCP/HTTPS",
            L7Protocol::Http => "TCP/HTTP",
            L7Protocol::Quic => "UDP/QUIC",
            L7Protocol::Dns => "UDP/DNS",
            L7Protocol::Rtp => "UDP/RTP",
            L7Protocol::OtherTcp => "Other TCP",
            L7Protocol::OtherUdp => "Other UDP",
        }
    }

    pub fn from_label(s: &str) -> Option<L7Protocol> {
        Some(match s {
            "TCP/HTTPS" => L7Protocol::TlsHttps,
            "TCP/HTTP" => L7Protocol::Http,
            "UDP/QUIC" => L7Protocol::Quic,
            "UDP/DNS" => L7Protocol::Dns,
            "UDP/RTP" => L7Protocol::Rtp,
            "Other TCP" => L7Protocol::OtherTcp,
            "Other UDP" => L7Protocol::OtherUdp,
            _ => return None,
        })
    }

    pub const ALL: [L7Protocol; 7] = [
        L7Protocol::TlsHttps,
        L7Protocol::Http,
        L7Protocol::OtherTcp,
        L7Protocol::Quic,
        L7Protocol::Rtp,
        L7Protocol::Dns,
        L7Protocol::OtherUdp,
    ];

    /// Position of `self` in [`L7Protocol::ALL`].
    pub const fn index(self) -> usize {
        match self {
            L7Protocol::TlsHttps => 0,
            L7Protocol::Http => 1,
            L7Protocol::OtherTcp => 2,
            L7Protocol::Quic => 3,
            L7Protocol::Rtp => 4,
            L7Protocol::Dns => 5,
            L7Protocol::OtherUdp => 6,
        }
    }
}

/// Min/avg/max/std summary of the RTT samples in one flow.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RttSummary {
    pub samples: u64,
    pub min_ms: f64,
    pub avg_ms: f64,
    pub max_ms: f64,
    pub std_ms: f64,
}

impl RttSummary {
    pub fn from_running(r: &Running) -> RttSummary {
        if r.count() == 0 {
            return RttSummary::default();
        }
        RttSummary { samples: r.count(), min_ms: r.min(), avg_ms: r.mean(), max_ms: r.max(), std_ms: r.std_dev() }
    }
}

/// Timing/size of one of the first packets of a flow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EarlyPacket {
    /// Offset from the flow's first packet, ms.
    pub offset_ms: f64,
    pub wire_len: u16,
    /// Direction: true = client→server (customer upload side).
    pub c2s: bool,
}

/// One completed flow.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowRecord {
    /// Anonymized customer (CPE) address.
    pub client: Ipv4Addr,
    pub server: Ipv4Addr,
    pub client_port: u16,
    pub server_port: u16,
    /// IP protocol (6 = TCP, 17 = UDP).
    pub ip_proto: u8,
    pub first: SimTime,
    pub last: SimTime,
    pub c2s_packets: u64,
    pub c2s_bytes: u64,
    pub c2s_payload_bytes: u64,
    pub s2c_packets: u64,
    pub s2c_bytes: u64,
    pub s2c_payload_bytes: u64,
    /// TCP segments re-occupying already-seen sequence space, per
    /// direction (Tstat's retransmission counters). On the ground
    /// segment these witness loss between the PEP and the origin.
    pub c2s_retrans: u64,
    pub s2c_retrans: u64,
    /// Timing of the first up-to-10 packets (paper §2.2 metric ii).
    pub early: Vec<EarlyPacket>,
    pub syn_seen: bool,
    pub fin_seen: bool,
    pub rst_seen: bool,
    /// Ground-segment RTT from data↔ACK matching at the vantage point.
    pub ground_rtt: RttSummary,
    /// First/last server→client packet carrying payload. The paper's
    /// §6.5 throughput is computed over this window ("from the first
    /// to the last TCP segment with data sent"), not the whole flow.
    pub s2c_data_first: Option<SimTime>,
    pub s2c_data_last: Option<SimTime>,
    /// Satellite-segment RTT from the TLS ServerHello →
    /// ClientKeyExchange gap, if the flow completed a TLS handshake.
    pub sat_rtt_ms: Option<f64>,
    pub l7: L7Protocol,
    /// Domain from SNI (TLS/QUIC) or Host (HTTP). Interned: records
    /// from one probe, or read from one log, share an `Arc<str>` per
    /// unique name.
    pub domain: Option<Domain>,
}

impl FlowRecord {
    /// Flow duration in seconds (first to last observed packet).
    pub fn duration_s(&self) -> f64 {
        (self.last - self.first).as_secs_f64().max(0.0)
    }

    /// Gross download throughput (server→client), bit/s, computed as
    /// the paper does in §6.5: bytes over the data window ("from the
    /// first to the last TCP segment with data sent"), falling back to
    /// the whole flow when no data window was observed.
    pub fn download_throughput_bps(&self) -> f64 {
        let d = match (self.s2c_data_first, self.s2c_data_last) {
            (Some(a), Some(b)) if b > a => (b - a).as_secs_f64(),
            _ => self.duration_s(),
        };
        if d <= 0.0 {
            return 0.0;
        }
        self.s2c_bytes as f64 * 8.0 / d
    }
}

/// One DNS transaction observed at the ground station.
#[derive(Clone, Debug, PartialEq)]
pub struct DnsRecord {
    /// Anonymized customer address.
    pub client: Ipv4Addr,
    /// Resolver the customer used.
    pub resolver: Ipv4Addr,
    /// Queried name (interned — see [`Domain`]).
    pub query: Domain,
    pub ts: SimTime,
    /// Query → response gap at the vantage point, ms. `None` if the
    /// response was never seen (timeout/loss).
    pub response_ms: Option<f64>,
    pub answers: Vec<Ipv4Addr>,
}

const FLOW_HEADER: &str = "client\tserver\tcport\tsport\tproto\tfirst_ns\tlast_ns\tc2s_pkts\tc2s_bytes\tc2s_payload\ts2c_pkts\ts2c_bytes\ts2c_payload\tc2s_rtx\ts2c_rtx\tsyn\tfin\trst\trtt_n\trtt_min\trtt_avg\trtt_max\trtt_std\tdata_first_ns\tdata_last_ns\tsat_rtt_ms\tl7\tdomain";

const DNS_HEADER: &str = "client\tresolver\tquery\tts_ns\tresponse_ms\tanswers";

/// Write flow records as TSV (one header line + one line per flow),
/// in 64 KiB blocks (see [`write_rows`]); the sink is flushed.
pub fn write_flows<W: Write>(w: &mut W, flows: &[FlowRecord]) -> io::Result<()> {
    write_rows(w, Some(FLOW_HEADER), flows, encode_flow_row)
}

/// The rows of [`write_flows`] without the header, for consumers that
/// stream the log in pieces — `simulate` appends each sealed piece,
/// and the campaign engine's digest fold hashes exactly the bytes the
/// batch flow log would contain.
pub fn write_flow_rows<W: Write>(w: &mut W, flows: &[FlowRecord]) -> io::Result<()> {
    write_rows(w, None, flows, encode_flow_row)
}

/// Append one flow-log row, newline included, without allocating
/// (beyond `out`'s own growth). The one formatter of the flow log.
pub fn encode_flow_row(out: &mut Vec<u8>, f: &FlowRecord) {
    let tab = |out: &mut Vec<u8>| out.push(b'\t');
    push_ipv4(out, f.client);
    tab(out);
    push_ipv4(out, f.server);
    for v in [
        u64::from(f.client_port),
        u64::from(f.server_port),
        u64::from(f.ip_proto),
        f.first.as_nanos(),
        f.last.as_nanos(),
        f.c2s_packets,
        f.c2s_bytes,
        f.c2s_payload_bytes,
        f.s2c_packets,
        f.s2c_bytes,
        f.s2c_payload_bytes,
        f.c2s_retrans,
        f.s2c_retrans,
    ] {
        tab(out);
        push_u64(out, v);
    }
    for flag in [f.syn_seen, f.fin_seen, f.rst_seen] {
        out.extend_from_slice(&[b'\t', b'0' + u8::from(flag)]);
    }
    tab(out);
    push_u64(out, f.ground_rtt.samples);
    for v in [f.ground_rtt.min_ms, f.ground_rtt.avg_ms, f.ground_rtt.max_ms, f.ground_rtt.std_ms] {
        tab(out);
        push_fixed3(out, v);
    }
    for t in [f.s2c_data_first, f.s2c_data_last] {
        tab(out);
        push_or_dash(out, t, |out, t| push_u64(out, t.as_nanos()));
    }
    tab(out);
    push_or_dash(out, f.sat_rtt_ms, push_fixed3);
    tab(out);
    out.extend_from_slice(f.l7.label().as_bytes());
    tab(out);
    out.extend_from_slice(f.domain.as_deref().unwrap_or("-").as_bytes());
    out.push(b'\n');
}

fn push_or_dash<T>(out: &mut Vec<u8>, v: Option<T>, push: impl FnOnce(&mut Vec<u8>, T)) {
    match v {
        Some(v) => push(out, v),
        None => out.push(b'-'),
    }
}

/// Read the flow log back a row at a time: `row` gets each record as
/// it decodes, in file order, and the log is never resident as a
/// whole. Early-packet timing is not serialised (Tstat's default logs
/// omit it too); the field comes back empty. Domains are interned:
/// rows naming the same domain share one `Arc<str>`.
pub fn read_flow_rows<R: BufRead>(r: R, mut row: impl FnMut(FlowRecord)) -> io::Result<()> {
    let mut names = DomainInterner::new();
    read_rows(r, FLOW_HEADER, "flow log", |mut f| {
        row(FlowRecord {
            client: f.parse("client")?,
            server: f.parse("server")?,
            client_port: f.uint("cport")?,
            server_port: f.uint("sport")?,
            ip_proto: f.uint("proto")?,
            first: SimTime::from_nanos(f.uint("first")?),
            last: SimTime::from_nanos(f.uint("last")?),
            c2s_packets: f.uint("c2s_pkts")?,
            c2s_bytes: f.uint("c2s_bytes")?,
            c2s_payload_bytes: f.uint("c2s_payload")?,
            s2c_packets: f.uint("s2c_pkts")?,
            s2c_bytes: f.uint("s2c_bytes")?,
            s2c_payload_bytes: f.uint("s2c_payload")?,
            c2s_retrans: f.uint("c2s_rtx")?,
            s2c_retrans: f.uint("s2c_rtx")?,
            early: Vec::new(),
            syn_seen: f.text() == "1",
            fin_seen: f.text() == "1",
            rst_seen: f.text() == "1",
            ground_rtt: RttSummary {
                samples: f.uint("rtt_n")?,
                min_ms: f.parse("rtt_min")?,
                avg_ms: f.parse("rtt_avg")?,
                max_ms: f.parse("rtt_max")?,
                std_ms: f.parse("rtt_std")?,
            },
            s2c_data_first: f.uint_opt("data_first")?.map(SimTime::from_nanos),
            s2c_data_last: f.uint_opt("data_last")?.map(SimTime::from_nanos),
            sat_rtt_ms: f.parse_opt("sat_rtt")?,
            l7: L7Protocol::from_label(f.text()).ok_or_else(|| f.bad("l7"))?,
            domain: Some(f.text()).filter(|&d| d != "-").map(|d| names.intern(d)),
        });
        Ok(())
    })
}

/// [`read_flow_rows`], collected.
pub fn read_flows<R: BufRead>(r: R) -> io::Result<Vec<FlowRecord>> {
    let mut out = Vec::new();
    read_flow_rows(r, |f| out.push(f))?;
    Ok(out)
}

/// Write the DNS transaction log as TSV: one header line, then one
/// line per transaction with the answers comma-separated.
pub fn write_dns_log<W: Write>(w: &mut W, dns: &[DnsRecord]) -> io::Result<()> {
    write_rows(w, Some(DNS_HEADER), dns, encode_dns_row)
}

/// The rows of [`write_dns_log`] without the header: one piece of a
/// log written as it is sealed.
pub fn write_dns_rows<W: Write>(w: &mut W, dns: &[DnsRecord]) -> io::Result<()> {
    write_rows(w, None, dns, encode_dns_row)
}

fn encode_dns_row(out: &mut Vec<u8>, d: &DnsRecord) {
    encode_dns_head(out, d);
    push_answers(out, &d.answers, b",");
    out.push(b'\n');
}

/// Append the five columns of a DNS row that precede the answers,
/// each followed by a tab. The DNS log and the dataset digest's DNS
/// lines share them and differ only in how they list the answers.
pub fn encode_dns_head(out: &mut Vec<u8>, d: &DnsRecord) {
    push_ipv4(out, d.client);
    out.push(b'\t');
    push_ipv4(out, d.resolver);
    out.push(b'\t');
    out.extend_from_slice(d.query.as_bytes());
    out.push(b'\t');
    push_u64(out, d.ts.as_nanos());
    out.push(b'\t');
    push_or_dash(out, d.response_ms, push_fixed3);
    out.push(b'\t');
}

/// Append `answers` as dotted quads joined by `sep`.
pub fn push_answers(out: &mut Vec<u8>, answers: &[Ipv4Addr], sep: &[u8]) {
    for (i, a) in answers.iter().enumerate() {
        if i > 0 {
            out.extend_from_slice(sep);
        }
        push_ipv4(out, *a);
    }
}

/// Read the DNS transaction log back; query names are interned.
pub fn read_dns_log<R: BufRead>(r: R) -> io::Result<Vec<DnsRecord>> {
    let mut out = Vec::new();
    let mut names = DomainInterner::new();
    read_rows(r, DNS_HEADER, "DNS log", |mut f| {
        out.push(DnsRecord {
            client: f.parse("client")?,
            resolver: f.parse("resolver")?,
            query: names.intern(f.text()),
            ts: SimTime::from_nanos(f.uint("ts")?),
            response_ms: f.parse_opt("response_ms")?,
            answers: match f.text() {
                "" => Vec::new(),
                list => list.split(',').map(str::parse).collect::<Result<_, _>>().map_err(|_| f.bad("answers"))?,
            },
        });
        Ok(())
    })?;
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use satwatch_simcore::SimDuration;

    pub(crate) fn sample_flow() -> FlowRecord {
        FlowRecord {
            client: Ipv4Addr::new(10, 9, 8, 7),
            server: Ipv4Addr::new(198, 18, 0, 1),
            client_port: 55_123,
            server_port: 443,
            ip_proto: 6,
            first: SimTime::from_secs(100),
            last: SimTime::from_secs(100) + SimDuration::from_millis(2500),
            c2s_packets: 12,
            c2s_bytes: 2_400,
            c2s_payload_bytes: 1_900,
            s2c_packets: 40,
            s2c_bytes: 55_000,
            s2c_payload_bytes: 53_000,
            c2s_retrans: 0,
            s2c_retrans: 1,
            early: vec![EarlyPacket { offset_ms: 0.0, wire_len: 60, c2s: true }],
            syn_seen: true,
            fin_seen: true,
            rst_seen: false,
            ground_rtt: RttSummary { samples: 9, min_ms: 11.8, avg_ms: 12.4, max_ms: 14.0, std_ms: 0.6 },
            s2c_data_first: Some(SimTime::from_secs(100)),
            s2c_data_last: Some(SimTime::from_secs(100) + SimDuration::from_millis(2500)),
            sat_rtt_ms: Some(612.5),
            l7: L7Protocol::TlsHttps,
            domain: Some("static.whatsapp.net".into()),
        }
    }

    #[test]
    fn duration_and_throughput() {
        let f = sample_flow();
        assert!((f.duration_s() - 2.5).abs() < 1e-9);
        assert!((f.download_throughput_bps() - 55_000.0 * 8.0 / 2.5).abs() < 1.0);
    }

    #[test]
    fn zero_duration_throughput_is_zero() {
        let mut f = sample_flow();
        f.last = f.first;
        f.s2c_data_first = None;
        f.s2c_data_last = None;
        assert_eq!(f.download_throughput_bps(), 0.0);
    }

    #[test]
    fn throughput_uses_data_window_when_present() {
        let mut f = sample_flow();
        // whole flow lasts 2.5 s, but the data window is only 1 s
        f.s2c_data_first = Some(f.first + SimDuration::from_millis(1000));
        f.s2c_data_last = Some(f.first + SimDuration::from_millis(2000));
        assert!((f.download_throughput_bps() - 55_000.0 * 8.0).abs() < 1.0);
    }

    #[test]
    fn tsv_round_trip() {
        let flows = vec![sample_flow(), {
            let mut f = sample_flow();
            f.l7 = L7Protocol::OtherUdp;
            f.ip_proto = 17;
            f.domain = None;
            f.sat_rtt_ms = None;
            f
        }];
        let mut buf = Vec::new();
        write_flows(&mut buf, &flows).unwrap();
        let mut back = read_flows(io::BufReader::new(&buf[..])).unwrap();
        // early packets are not serialised
        assert_eq!(back.len(), 2);
        for b in &mut back {
            assert!(b.early.is_empty());
        }
        let mut want = flows.clone();
        for w in &mut want {
            w.early.clear();
        }
        // float formatting is 3-decimal; compare field-wise with tolerance
        assert_eq!(back[0].client, want[0].client);
        assert_eq!(back[0].l7, want[0].l7);
        assert_eq!(back[0].domain, want[0].domain);
        assert!((back[0].ground_rtt.avg_ms - want[0].ground_rtt.avg_ms).abs() < 1e-3);
        assert!((back[0].sat_rtt_ms.unwrap() - 612.5).abs() < 1e-3);
        assert_eq!(back[1].sat_rtt_ms, None);
        assert_eq!(back[1].domain, None);
    }

    #[test]
    fn read_rejects_garbage() {
        assert!(read_flows(io::BufReader::new(&b"not a header\n"[..])).is_err());
        let bad = format!("{FLOW_HEADER}\nonly\tthree\tfields\n");
        assert!(read_flows(io::BufReader::new(bad.as_bytes())).is_err());
    }

    /// The `writeln!` body [`encode_flow_row`] replaced: the byte
    /// oracle of the flow log.
    fn flow_row_oracle(w: &mut Vec<u8>, f: &FlowRecord) {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{}\t{}\t{}\t{}\t{}",
            f.client,
            f.server,
            f.client_port,
            f.server_port,
            f.ip_proto,
            f.first.as_nanos(),
            f.last.as_nanos(),
            f.c2s_packets,
            f.c2s_bytes,
            f.c2s_payload_bytes,
            f.s2c_packets,
            f.s2c_bytes,
            f.s2c_payload_bytes,
            f.c2s_retrans,
            f.s2c_retrans,
            u8::from(f.syn_seen),
            u8::from(f.fin_seen),
            u8::from(f.rst_seen),
            f.ground_rtt.samples,
            f.ground_rtt.min_ms,
            f.ground_rtt.avg_ms,
            f.ground_rtt.max_ms,
            f.ground_rtt.std_ms,
            f.s2c_data_first.map_or("-".to_string(), |t| t.as_nanos().to_string()),
            f.s2c_data_last.map_or("-".to_string(), |t| t.as_nanos().to_string()),
            f.sat_rtt_ms.map_or("-".to_string(), |v| format!("{v:.3}")),
            f.l7.label(),
            f.domain.as_deref().unwrap_or("-"),
        )
        .unwrap();
    }

    /// A float of the class `class` selects, shaped by `raw`: every
    /// branch of `push_fixed3` and every value std prints specially.
    fn float_of(class: u8, raw: u64) -> f64 {
        match class % 10 {
            0 => f64::from_bits(raw),                   // anything, NaN payloads included
            1 => (raw % 64_000_000) as f64 / 16_000.0,  // decimal ties k/16000 and their neighbours
            2 => f64::from_bits(raw & ((1 << 52) - 1)), // subnormals
            3 => -0.0,
            4 => f64::NAN,
            5 => [f64::INFINITY, f64::NEG_INFINITY][(raw & 1) as usize],
            6 => 1e20,
            7 => (raw % 10_000_000) as f64 / 1e4, // an RTT in ms
            8 => (raw >> 11) as f64 / 1000.0,     // up to and past the 2^53/1000 fallback bound
            _ => -((raw % 1_000_000) as f64) / 1e3,
        }
    }

    fn counter_of(class: u8, raw: u64) -> u64 {
        [raw, u64::MAX, 0, raw % 100_000][(class % 4) as usize]
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn encode_flow_row_matches_the_fmt_oracle(
            addrs in any::<[u32; 2]>(),
            ports in any::<[u16; 2]>(),
            proto in any::<u8>(),
            raw in any::<[u64; 20]>(),
            classes in any::<[u8; 20]>(),
            flags in any::<[bool; 6]>(),
            l7 in 0usize..7,
            domain in "[a-zäé.日本\\-]{1,40}"
        ) {
            let n = |i: usize| counter_of(classes[i], raw[i]);
            let x = |i: usize| float_of(classes[i], raw[i]);
            let f = FlowRecord {
                client: Ipv4Addr::from(addrs[0]),
                server: Ipv4Addr::from(addrs[1]),
                client_port: ports[0],
                server_port: ports[1],
                ip_proto: proto,
                first: SimTime::from_nanos(n(0)),
                last: SimTime::from_nanos(n(1)),
                c2s_packets: n(2),
                c2s_bytes: n(3),
                c2s_payload_bytes: n(4),
                s2c_packets: n(5),
                s2c_bytes: n(6),
                s2c_payload_bytes: n(7),
                c2s_retrans: n(8),
                s2c_retrans: n(9),
                early: Vec::new(),
                syn_seen: flags[0],
                fin_seen: flags[1],
                rst_seen: flags[2],
                ground_rtt: RttSummary { samples: n(10), min_ms: x(11), avg_ms: x(12), max_ms: x(13), std_ms: x(14) },
                s2c_data_first: flags[3].then(|| SimTime::from_nanos(n(15))),
                s2c_data_last: flags[3].then(|| SimTime::from_nanos(n(16))),
                sat_rtt_ms: flags[4].then(|| x(17)),
                l7: L7Protocol::ALL[l7],
                domain: flags[5].then(|| domain.as_str().into()),
            };
            let (mut got, mut want) = (Vec::new(), Vec::new());
            encode_flow_row(&mut got, &f);
            flow_row_oracle(&mut want, &f);
            prop_assert_eq!(String::from_utf8_lossy(&got), String::from_utf8_lossy(&want));
        }

        #[test]
        fn dns_log_round_trips(
            rows in proptest::collection::vec(
                (any::<[u32; 2]>(), "[a-zé.\\-]{0,30}", any::<u64>(), proptest::option::of(0u32..4_000_000),
                 proptest::collection::vec(any::<u32>(), 0..4)),
                0..20)
        ) {
            let dns: Vec<DnsRecord> = rows
                .into_iter()
                .map(|(addrs, query, ts, response, answers)| DnsRecord {
                    client: Ipv4Addr::from(addrs[0]),
                    resolver: Ipv4Addr::from(addrs[1]),
                    query: query.as_str().into(),
                    ts: SimTime::from_nanos(ts),
                    // thousandths survive the 3-decimal column exactly
                    response_ms: response.map(|r| f64::from(r) / 1000.0),
                    answers: answers.into_iter().map(Ipv4Addr::from).collect(),
                })
                .collect();
            let mut log = Vec::new();
            write_dns_log(&mut log, &dns).unwrap();
            prop_assert_eq!(read_dns_log(&log[..]).unwrap(), dns);
        }
    }

    /// Counts `write` calls; fails every write once `room` bytes are in.
    struct Meter {
        calls: usize,
        bytes: usize,
        room: usize,
    }

    impl Write for Meter {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.bytes + b.len() > self.room {
                return Err(io::Error::other("disk full"));
            }
            self.bytes += b.len();
            Ok(b.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writers_issue_block_writes_and_return_sink_errors() {
        let flows = vec![sample_flow(); 5_000];
        let dns = vec![
            DnsRecord {
                client: Ipv4Addr::new(10, 9, 8, 7),
                resolver: Ipv4Addr::new(8, 8, 8, 8),
                query: "static.whatsapp.net".into(),
                ts: SimTime::from_secs(100),
                response_ms: Some(31.25),
                answers: vec![Ipv4Addr::new(198, 18, 0, 1)],
            };
            5_000
        ];
        let mut flow_sink = Meter { calls: 0, bytes: 0, room: usize::MAX };
        write_flows(&mut flow_sink, &flows).unwrap();
        let mut dns_sink = Meter { calls: 0, bytes: 0, room: usize::MAX };
        write_dns_log(&mut dns_sink, &dns).unwrap();
        for sink in [&flow_sink, &dns_sink] {
            assert!(sink.bytes > 4 * crate::tsv::BLOCK, "several blocks: {} bytes", sink.bytes);
            assert!(sink.calls <= sink.bytes / (32 * 1024) + 2, "{} writes for {} bytes", sink.calls, sink.bytes);
        }
        // a sink that fills up fails the call, wherever it fills up:
        // mid-stream, and in the final partial block
        for room in [0, 100_000, flow_sink.bytes - 1] {
            assert!(write_flows(&mut Meter { calls: 0, bytes: 0, room }, &flows).is_err(), "room {room}");
        }
        assert!(write_dns_log(&mut Meter { calls: 0, bytes: 0, room: dns_sink.bytes - 1 }, &dns).is_err());
    }

    #[test]
    fn readers_intern_domains() {
        let mut other = sample_flow();
        other.domain = Some("video.tiktokv.com".into());
        let mut buf = Vec::new();
        write_flows(&mut buf, &[sample_flow(), other, sample_flow()]).unwrap();
        let back = read_flows(&buf[..]).unwrap();
        let domain = |i: usize| back[i].domain.as_ref().unwrap();
        assert!(std::sync::Arc::ptr_eq(domain(0), domain(2)), "one Arc per distinct name");
        assert!(!std::sync::Arc::ptr_eq(domain(0), domain(1)));
        // the row-at-a-time reader hands out the same records in the
        // same order, one handle per name (the frame builder's handle
        // memo counts on it)
        let mut streamed = Vec::new();
        read_flow_rows(&buf[..], |f| streamed.push(f)).unwrap();
        assert_eq!(streamed, back);
        let handle = |i: usize| streamed[i].domain.as_ref().unwrap();
        assert!(std::sync::Arc::ptr_eq(handle(0), handle(2)) && !std::sync::Arc::ptr_eq(handle(0), handle(1)));

        let q = |name: &str| DnsRecord {
            client: Ipv4Addr::new(10, 9, 8, 7),
            resolver: Ipv4Addr::new(8, 8, 8, 8),
            query: name.into(),
            ts: SimTime::from_secs(1),
            response_ms: None,
            answers: Vec::new(),
        };
        let mut buf = Vec::new();
        write_dns_log(&mut buf, &[q("a.example"), q("b.example"), q("a.example")]).unwrap();
        let back = read_dns_log(&buf[..]).unwrap();
        assert!(std::sync::Arc::ptr_eq(&back[0].query, &back[2].query));
        assert!(!std::sync::Arc::ptr_eq(&back[0].query, &back[1].query));
    }

    #[test]
    fn dns_reader_rejects_garbage() {
        let err = |log: &str| read_dns_log(log.as_bytes()).unwrap_err().to_string();
        assert_eq!(err("client\tquery\n"), "bad DNS log header");
        assert_eq!(err(&format!("{DNS_HEADER}\n1.2.3.4\t8.8.8.8\n")), "line 1: expected 6 fields, got 2");
        assert_eq!(err(&format!("{DNS_HEADER}\n1.2.3.4\t8.8.8.8\tq\t5\t-\t1.2.3\n")), "line 1: bad answers");
        assert_eq!(err(&format!("{DNS_HEADER}\n1.2.3.4\t8.8.8.8\tq\tsoon\t-\t\n")), "line 1: bad ts");
    }

    #[test]
    fn protocol_labels_round_trip() {
        for p in L7Protocol::ALL {
            assert_eq!(L7Protocol::from_label(p.label()), Some(p));
        }
        assert_eq!(L7Protocol::from_label("bogus"), None);
    }

    #[test]
    fn rtt_summary_from_running() {
        let mut r = Running::new();
        for x in [10.0, 12.0, 14.0] {
            r.push(x);
        }
        let s = RttSummary::from_running(&r);
        assert_eq!(s.samples, 3);
        assert_eq!(s.min_ms, 10.0);
        assert_eq!(s.max_ms, 14.0);
        assert!((s.avg_ms - 12.0).abs() < 1e-12);
        assert_eq!(RttSummary::from_running(&Running::new()), RttSummary::default());
    }
}
