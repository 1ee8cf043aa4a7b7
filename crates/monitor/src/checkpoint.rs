//! Probe state checkpointing for resumable campaigns.
//!
//! A multi-day campaign must survive `kill -9`: after each sealed day
//! the campaign runner persists the probe's complete carry-over state
//! — live flows (including their RTT estimators, DPI, reassembly
//! buffers and inspect heads), in-flight DNS transactions, the sweep
//! clock and the packet counters — and a resumed run continues
//! **bit-identically**, because nothing observable lives outside this
//! state: RNG streams are re-derived from the scenario seed tree, and
//! CryptoPan is a pure function of the anonymization seed.
//!
//! ## One unified snapshot
//!
//! [`ProbeState`] lists live flows and pending DNS transactions in
//! their canonical orders, so the same capture always encodes to the
//! same bytes. State files written when the probe could be sharded
//! hold the same unified view (the shards' states merged and sorted by
//! those keys) and import into the one probe unchanged.
//!
//! ## Encoding
//!
//! Hand-rolled little-endian binary (no serde in this workspace).
//! Floats are stored as exact `u64` bit patterns: checkpoint →
//! restore must not perturb a Welford accumulator by even one ULP, or
//! the resumed run's report bytes drift. Integrity is the *caller's*
//! job: the campaign manifest records an FNV-1a checksum of the
//! encoded state and verifies it before decoding.

use crate::record::DnsRecord;
use satwatch_simcore::SimTime;
use std::fmt;
use std::net::Ipv4Addr;

/// Magic prefix of an encoded [`ProbeState`].
pub const STATE_MAGIC: &[u8; 4] = b"SWPS";
/// Encoding version (bump on any layout change).
pub const STATE_VERSION: u16 = 1;

/// Decode failure. `Truncated` means the buffer ended mid-field;
/// `Corrupt` names the first field that failed validation.
#[derive(Debug, PartialEq, Eq)]
pub enum CheckpointError {
    Truncated,
    Corrupt(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint state truncated"),
            CheckpointError::Corrupt(what) => write!(f, "checkpoint state corrupt: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

// ---------------------------------------------------------------- writers

pub fn put_u8(w: &mut Vec<u8>, v: u8) {
    w.push(v);
}

pub fn put_u16(w: &mut Vec<u8>, v: u16) {
    w.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u32(w: &mut Vec<u8>, v: u32) {
    w.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}

/// Exact bit pattern — round-trips NaN payloads and signed zeros.
pub fn put_f64(w: &mut Vec<u8>, v: f64) {
    put_u64(w, v.to_bits());
}

pub fn put_bool(w: &mut Vec<u8>, v: bool) {
    put_u8(w, u8::from(v));
}

pub fn put_ip(w: &mut Vec<u8>, ip: Ipv4Addr) {
    w.extend_from_slice(&ip.octets());
}

pub fn put_opt_u32(w: &mut Vec<u8>, v: Option<u32>) {
    match v {
        Some(x) => {
            put_u8(w, 1);
            put_u32(w, x);
        }
        None => put_u8(w, 0),
    }
}

pub fn put_opt_u64(w: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            put_u8(w, 1);
            put_u64(w, x);
        }
        None => put_u8(w, 0),
    }
}

pub fn put_opt_f64(w: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            put_u8(w, 1);
            put_f64(w, x);
        }
        None => put_u8(w, 0),
    }
}

/// Length-prefixed byte run.
pub fn put_bytes(w: &mut Vec<u8>, b: &[u8]) {
    put_u32(w, b.len() as u32);
    w.extend_from_slice(b);
}

pub fn put_str(w: &mut Vec<u8>, s: &str) {
    put_bytes(w, s.as_bytes());
}

// ---------------------------------------------------------------- reader

/// Bounds-checked cursor over an encoded state buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Corrupt("bool tag")),
        }
    }

    pub fn ip(&mut self) -> Result<Ipv4Addr, CheckpointError> {
        let o = self.take(4)?;
        Ok(Ipv4Addr::new(o[0], o[1], o[2], o[3]))
    }

    pub fn opt_u32(&mut self) -> Result<Option<u32>, CheckpointError> {
        if self.bool()? {
            Ok(Some(self.u32()?))
        } else {
            Ok(None)
        }
    }

    pub fn opt_u64(&mut self) -> Result<Option<u64>, CheckpointError> {
        if self.bool()? {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }

    pub fn opt_f64(&mut self) -> Result<Option<f64>, CheckpointError> {
        if self.bool()? {
            Ok(Some(self.f64()?))
        } else {
            Ok(None)
        }
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    pub fn str(&mut self) -> Result<&'a str, CheckpointError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CheckpointError::Corrupt("utf-8 string"))
    }
}

// ---------------------------------------------------------------- entries

/// One live flow's complete serialized state, tagged with its flow
/// key and first-packet time. The payload bytes are an opaque
/// `FlowState` encoding owned by the flow table (the key fields below
/// are a parsed view of its prefix).
#[derive(Debug)]
pub struct FlowEntry {
    pub first: SimTime,
    pub src: Ipv4Addr,
    pub src_port: u16,
    pub dst: Ipv4Addr,
    pub dst_port: u16,
    pub protocol: u8,
    pub(crate) bytes: Vec<u8>,
}

impl FlowEntry {
    /// Wrap a `FlowState` encoding, parsing the key prefix
    /// (src, dst, src_port, dst_port, protocol, first — see
    /// `FlowState::write_state`).
    pub(crate) fn from_bytes(bytes: Vec<u8>) -> Result<FlowEntry, CheckpointError> {
        let mut r = Reader::new(&bytes);
        let src = r.ip()?;
        let dst = r.ip()?;
        let src_port = r.u16()?;
        let dst_port = r.u16()?;
        let protocol = r.u8()?;
        let first = SimTime::from_nanos(r.u64()?);
        Ok(FlowEntry { first, src, src_port, dst, dst_port, protocol, bytes })
    }

    /// The opaque `FlowState` payload.
    pub(crate) fn state_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The canonical-order key: first-packet time, then flow key.
    fn order_key(&self) -> (SimTime, Ipv4Addr, u16, Ipv4Addr, u16, u8) {
        (self.first, self.src, self.src_port, self.dst, self.dst_port, self.protocol)
    }
}

/// One in-flight (unanswered, not yet timed out) DNS transaction.
#[derive(Debug)]
pub struct PendingDnsEntry {
    pub client: Ipv4Addr,
    pub resolver: Ipv4Addr,
    pub id: u16,
    pub query: String,
    pub asked_at: SimTime,
}

impl PendingDnsEntry {
    /// The canonical-order key.
    fn order_key(&self) -> (SimTime, Ipv4Addr, Ipv4Addr, u16) {
        (self.asked_at, self.client, self.resolver, self.id)
    }
}

/// Complete probe carry-over state: everything a fresh probe needs to
/// continue a capture bit-identically. Produced by
/// [`Probe::export_state`](crate::Probe::export_state) /
/// [`ShardedProbe::export_state`](crate::ShardedProbe::export_state),
/// consumed by the matching `import_state`.
#[derive(Debug)]
pub struct ProbeState {
    /// Live flows in canonical order.
    pub flows: Vec<FlowEntry>,
    /// In-flight DNS transactions, sorted by
    /// `(asked_at, client, resolver, id)`.
    pub pending_dns: Vec<PendingDnsEntry>,
    /// DNS records an older binary drained into its export, in
    /// observation order; this one keeps its log in the probe and
    /// exports none. An import logs them after the carried rows.
    pub dns_log: Vec<DnsRecord>,
    /// The sweep clock.
    pub last_sweep: SimTime,
    pub packets: u64,
    pub parse_errors: u64,
    pub transit_packets: u64,
}

impl ProbeState {
    pub fn empty() -> ProbeState {
        ProbeState {
            flows: Vec::new(),
            pending_dns: Vec::new(),
            dns_log: Vec::new(),
            last_sweep: SimTime::ZERO,
            packets: 0,
            parse_errors: 0,
            transit_packets: 0,
        }
    }

    /// Earliest `first` timestamp among live flows — the campaign's
    /// flow-segment sealing watermark (no future eviction can produce
    /// a record with an earlier `first`). Relies on the canonical sort.
    pub fn min_live_flow_first(&self) -> Option<SimTime> {
        self.flows.first().map(|f| f.first)
    }

    /// Earliest `asked_at` among pending DNS transactions — the DNS
    /// sealing watermark (a pending query logs with `ts = asked_at`
    /// whenever it resolves or times out).
    pub fn min_pending_dns_ts(&self) -> Option<SimTime> {
        self.pending_dns.first().map(|p| p.asked_at)
    }

    /// Serialize to bytes. Deterministic: the same logical state
    /// always encodes to the same bytes (state vectors are kept in
    /// their canonical orders).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Vec::new();
        w.extend_from_slice(STATE_MAGIC);
        put_u16(&mut w, STATE_VERSION);
        put_u64(&mut w, self.last_sweep.as_nanos());
        put_u64(&mut w, self.packets);
        put_u64(&mut w, self.parse_errors);
        put_u64(&mut w, self.transit_packets);
        put_u32(&mut w, self.flows.len() as u32);
        for f in &self.flows {
            put_bytes(&mut w, &f.bytes);
        }
        put_u32(&mut w, self.pending_dns.len() as u32);
        for p in &self.pending_dns {
            put_ip(&mut w, p.client);
            put_ip(&mut w, p.resolver);
            put_u16(&mut w, p.id);
            put_str(&mut w, &p.query);
            put_u64(&mut w, p.asked_at.as_nanos());
        }
        put_u32(&mut w, self.dns_log.len() as u32);
        for d in &self.dns_log {
            put_dns_record(&mut w, d);
        }
        w
    }

    /// Decode an [`encode`](Self::encode) buffer. Beyond framing
    /// (magic/version/lengths), `flows` and `pending_dns` must be in
    /// their canonical orders, strictly — the watermarks read their
    /// first entries; integrity beyond that is the caller's checksum.
    pub fn decode(buf: &[u8]) -> Result<ProbeState, CheckpointError> {
        let mut r = Reader::new(buf);
        if r.take(4)? != STATE_MAGIC {
            return Err(CheckpointError::Corrupt("state magic"));
        }
        if r.u16()? != STATE_VERSION {
            return Err(CheckpointError::Corrupt("state version"));
        }
        let last_sweep = SimTime::from_nanos(r.u64()?);
        let packets = r.u64()?;
        let parse_errors = r.u64()?;
        let transit_packets = r.u64()?;
        let nflows = r.u32()? as usize;
        let mut flows = Vec::with_capacity(nflows.min(1 << 20));
        for _ in 0..nflows {
            flows.push(FlowEntry::from_bytes(r.bytes()?.to_vec())?);
        }
        if !flows.is_sorted_by(|a, b| a.order_key() < b.order_key()) {
            return Err(CheckpointError::Corrupt("flow order"));
        }
        let npending = r.u32()? as usize;
        let mut pending_dns = Vec::with_capacity(npending.min(1 << 20));
        for _ in 0..npending {
            pending_dns.push(PendingDnsEntry {
                client: r.ip()?,
                resolver: r.ip()?,
                id: r.u16()?,
                query: r.str()?.to_string(),
                asked_at: SimTime::from_nanos(r.u64()?),
            });
        }
        if !pending_dns.is_sorted_by(|a, b| a.order_key() < b.order_key()) {
            return Err(CheckpointError::Corrupt("pending DNS order"));
        }
        let nlog = r.u32()? as usize;
        let mut dns_log = Vec::with_capacity(nlog.min(1 << 20));
        for _ in 0..nlog {
            dns_log.push(read_dns_record(&mut r)?);
        }
        if r.remaining() != 0 {
            return Err(CheckpointError::Corrupt("trailing bytes"));
        }
        Ok(ProbeState { flows, pending_dns, dns_log, last_sweep, packets, parse_errors, transit_packets })
    }
}

/// Serialize one [`DnsRecord`] (shared with the campaign's on-disk
/// DNS day buckets — the TSV float formatting is lossy, this is not).
pub fn put_dns_record(w: &mut Vec<u8>, d: &DnsRecord) {
    put_ip(w, d.client);
    put_ip(w, d.resolver);
    put_str(w, &d.query);
    put_u64(w, d.ts.as_nanos());
    put_opt_f64(w, d.response_ms);
    put_u32(w, d.answers.len() as u32);
    for a in &d.answers {
        put_ip(w, *a);
    }
}

/// Inverse of [`put_dns_record`].
pub fn read_dns_record(r: &mut Reader<'_>) -> Result<DnsRecord, CheckpointError> {
    let client = r.ip()?;
    let resolver = r.ip()?;
    let query: crate::intern::Domain = r.str()?.into();
    let ts = SimTime::from_nanos(r.u64()?);
    let response_ms = r.opt_f64()?;
    let n = r.u32()? as usize;
    let mut answers = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        answers.push(r.ip()?);
    }
    Ok(DnsRecord { client, resolver, query, ts, response_ms, answers })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_primitives_round_trip() {
        let mut w = Vec::new();
        put_u8(&mut w, 7);
        put_u16(&mut w, 0xbeef);
        put_u32(&mut w, 0xdead_beef);
        put_u64(&mut w, u64::MAX - 1);
        put_f64(&mut w, -0.0);
        put_f64(&mut w, f64::NAN);
        put_bool(&mut w, true);
        put_ip(&mut w, Ipv4Addr::new(10, 1, 2, 3));
        put_opt_u32(&mut w, Some(5));
        put_opt_u64(&mut w, None);
        put_opt_f64(&mut w, Some(1.5));
        put_str(&mut w, "hello");
        let mut r = Reader::new(&w);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits(), "signed zero preserved");
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.ip().unwrap(), Ipv4Addr::new(10, 1, 2, 3));
        assert_eq!(r.opt_u32().unwrap(), Some(5));
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_f64().unwrap(), Some(1.5));
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), Err(CheckpointError::Truncated));
    }

    #[test]
    fn empty_state_round_trips() {
        let s = ProbeState::empty();
        let bytes = s.encode();
        let back = ProbeState::decode(&bytes).unwrap();
        assert!(back.flows.is_empty());
        assert!(back.pending_dns.is_empty());
        assert!(back.dns_log.is_empty());
        assert_eq!(back.last_sweep, SimTime::ZERO);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(ProbeState::decode(b"nope").unwrap_err(), CheckpointError::Corrupt("state magic"));
        let mut good = ProbeState::empty().encode();
        good.push(0); // trailing byte
        assert_eq!(ProbeState::decode(&good).unwrap_err(), CheckpointError::Corrupt("trailing bytes"));
        let short = &ProbeState::empty().encode()[..10];
        assert_eq!(ProbeState::decode(short).unwrap_err(), CheckpointError::Truncated);
    }

    #[test]
    fn dns_record_codec_is_exact() {
        let d = DnsRecord {
            client: Ipv4Addr::new(100, 64, 3, 4),
            resolver: Ipv4Addr::new(8, 8, 8, 8),
            query: "video.tiktokv.com".into(),
            ts: SimTime::from_nanos(123_456_789_012),
            response_ms: Some(601.2345678901234),
            answers: vec![Ipv4Addr::new(198, 18, 0, 1), Ipv4Addr::new(198, 18, 0, 2)],
        };
        let mut w = Vec::new();
        put_dns_record(&mut w, &d);
        let back = read_dns_record(&mut Reader::new(&w)).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.response_ms.unwrap().to_bits(), d.response_ms.unwrap().to_bits());
    }
}
