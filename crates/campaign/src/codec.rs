//! Binary codecs for the campaign's on-disk carry-over artifacts:
//!
//! * a lossless [`FlowRecord`] codec (the TSV log formats floats with
//!   `%.3` precision — fine for the digest, fatal for a round trip),
//! * sealed DNS spill files (`dns/dns-<k>.bin`),
//! * the per-checkpoint state file (`state-<day>.bin`) bundling the
//!   probe carry-over with the not-yet-sealed flow/DNS tail, grouped
//!   by day — the layout it has had since whole days were carried.
//!
//! Every file ends with a trailing FNV-1a 64 of everything before it
//! and is written via temp-file + rename, so a reader either sees a
//! complete, checksummed artifact or none at all: the path-based
//! functions here write and read through the [store](crate::store)'s
//! `put_trailed` and `read_trailed`.

use crate::store::{named, put_trailed, read_trailed};
use crate::CampaignError;
use satwatch_analytics::segment::write_file;
use satwatch_monitor::checkpoint::{
    put_bool, put_bytes, put_dns_record, put_f64, put_ip, put_opt_f64, put_opt_u64, put_str, put_u16, put_u32, put_u64,
    put_u8, read_dns_record, CheckpointError, Reader, DNS_RECORD_MIN_SIZE,
};
use satwatch_monitor::record::{EarlyPacket, RttSummary, EARLY_PACKETS};
use satwatch_monitor::{DnsRecord, FlowRecord, L7Protocol, ProbeState};
use satwatch_simcore::time::SECS_PER_DAY;
use satwatch_simcore::SimTime;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Magic for `state-<day>.bin` checkpoint files.
pub const STATE_FILE_MAGIC: &[u8; 8] = b"SWCP\0v1\0";
/// Magic for `dns/dns-<k>.bin` spill files.
pub const DNS_FILE_MAGIC: &[u8; 8] = b"SWDN\0v1\0";

/// The fewest bytes [`put_flow_record`] writes: no early packets, no
/// optional field, no domain.
pub const FLOW_RECORD_MIN_SIZE: usize = 13 + 8 * 10 + 2 + 3 + 8 + 8 * 4 + 3 + 1 + 1;

/// Serialize one [`FlowRecord`] losslessly (every field, floats as
/// raw bits). The inverse is [`read_flow_record`].
pub fn put_flow_record(w: &mut Vec<u8>, f: &FlowRecord) {
    put_ip(w, f.client);
    put_ip(w, f.server);
    put_u16(w, f.client_port);
    put_u16(w, f.server_port);
    put_u8(w, f.ip_proto);
    put_u64(w, f.first.as_nanos());
    put_u64(w, f.last.as_nanos());
    put_u64(w, f.c2s_packets);
    put_u64(w, f.c2s_bytes);
    put_u64(w, f.c2s_payload_bytes);
    put_u64(w, f.s2c_packets);
    put_u64(w, f.s2c_bytes);
    put_u64(w, f.s2c_payload_bytes);
    put_u64(w, f.c2s_retrans);
    put_u64(w, f.s2c_retrans);
    put_u16(w, f.early.len() as u16);
    for e in &f.early {
        put_f64(w, e.offset_ms);
        put_u16(w, e.wire_len);
        put_bool(w, e.c2s);
    }
    put_bool(w, f.syn_seen);
    put_bool(w, f.fin_seen);
    put_bool(w, f.rst_seen);
    put_u64(w, f.ground_rtt.samples);
    put_f64(w, f.ground_rtt.min_ms);
    put_f64(w, f.ground_rtt.avg_ms);
    put_f64(w, f.ground_rtt.max_ms);
    put_f64(w, f.ground_rtt.std_ms);
    put_opt_u64(w, f.s2c_data_first.map(|t| t.as_nanos()));
    put_opt_u64(w, f.s2c_data_last.map(|t| t.as_nanos()));
    put_opt_f64(w, f.sat_rtt_ms);
    put_u8(w, f.l7.index() as u8);
    match &f.domain {
        Some(d) => {
            put_bool(w, true);
            put_str(w, d);
        }
        None => put_bool(w, false),
    }
}

/// Inverse of [`put_flow_record`].
pub fn read_flow_record(r: &mut Reader<'_>) -> Result<FlowRecord, CheckpointError> {
    let client = r.ip()?;
    let server = r.ip()?;
    let client_port = r.u16()?;
    let server_port = r.u16()?;
    let ip_proto = r.u8()?;
    let first = SimTime::from_nanos(r.u64()?);
    let last = SimTime::from_nanos(r.u64()?);
    let c2s_packets = r.u64()?;
    let c2s_bytes = r.u64()?;
    let c2s_payload_bytes = r.u64()?;
    let s2c_packets = r.u64()?;
    let s2c_bytes = r.u64()?;
    let s2c_payload_bytes = r.u64()?;
    let c2s_retrans = r.u64()?;
    let s2c_retrans = r.u64()?;
    let n_early = r.u16()? as usize;
    // no record the probe wrote has more
    if n_early > EARLY_PACKETS {
        return Err(CheckpointError::Corrupt("early packets"));
    }
    let mut early = Vec::with_capacity(n_early);
    for _ in 0..n_early {
        early.push(EarlyPacket { offset_ms: r.f64()?, wire_len: r.u16()?, c2s: r.bool()? });
    }
    let syn_seen = r.bool()?;
    let fin_seen = r.bool()?;
    let rst_seen = r.bool()?;
    let ground_rtt =
        RttSummary { samples: r.u64()?, min_ms: r.f64()?, avg_ms: r.f64()?, max_ms: r.f64()?, std_ms: r.f64()? };
    let s2c_data_first = r.opt_u64()?.map(SimTime::from_nanos);
    let s2c_data_last = r.opt_u64()?.map(SimTime::from_nanos);
    let sat_rtt_ms = r.opt_f64()?;
    let l7_idx = r.u8()? as usize;
    let l7 =
        *L7Protocol::ALL.get(l7_idx).ok_or(CheckpointError::Corrupt("flow record has an unknown L7 protocol index"))?;
    let domain = if r.bool()? { Some(r.str()?.into()) } else { None };
    Ok(FlowRecord {
        client,
        server,
        client_port,
        server_port,
        ip_proto,
        first,
        last,
        c2s_packets,
        c2s_bytes,
        c2s_payload_bytes,
        s2c_packets,
        s2c_bytes,
        s2c_payload_bytes,
        c2s_retrans,
        s2c_retrans,
        early,
        syn_seen,
        fin_seen,
        rst_seen,
        ground_rtt,
        s2c_data_first,
        s2c_data_last,
        sat_rtt_ms,
        l7,
        domain,
    })
}

/// Write one sealed DNS spill. Records must already be in canonical
/// [`dns_cmp`](satwatch_monitor::dns_cmp) order.
pub fn write_dns_file(path: &Path, recs: &[DnsRecord]) -> io::Result<u64> {
    let mut spill = DnsSpill::new();
    spill.append(recs);
    write_file(path, |w| put_trailed(w, &spill.finish().0))
}

/// A DNS spill written piece by piece: the bytes [`write_dns_file`]
/// writes for the records appended so far — a few dozen bytes a
/// record, where the records themselves hold their strings and answer
/// lists.
pub(crate) struct DnsSpill {
    buf: Vec<u8>,
    records: u32,
}

/// Where a spill's record count sits: after the magic.
const DNS_COUNT_AT: usize = DNS_FILE_MAGIC.len();

impl DnsSpill {
    pub(crate) fn new() -> DnsSpill {
        let mut buf = DNS_FILE_MAGIC.to_vec();
        put_u32(&mut buf, 0);
        DnsSpill { buf, records: 0 }
    }

    /// Append the next records, in canonical order.
    pub(crate) fn append(&mut self, recs: &[DnsRecord]) {
        for d in recs {
            put_dns_record(&mut self.buf, d);
        }
        self.records += recs.len() as u32;
    }

    /// The file's bytes before its trailing checksum, and the records
    /// they hold.
    pub(crate) fn finish(mut self) -> (Vec<u8>, u64) {
        self.buf[DNS_COUNT_AT..DNS_COUNT_AT + 4].copy_from_slice(&self.records.to_le_bytes());
        (self.buf, u64::from(self.records))
    }
}

/// Inverse of [`write_dns_file`].
pub fn read_dns_file(path: &Path, expect: Option<u64>) -> Result<Vec<DnsRecord>, CampaignError> {
    named(path, read_trailed(path, expect, read_dns_body))
}

/// A DNS spill's records, from the bytes before its checksum.
pub(crate) fn read_dns_body(r: &mut Reader<'_>) -> Result<Vec<DnsRecord>, CheckpointError> {
    if r.take(8)? != DNS_FILE_MAGIC {
        return Err(CheckpointError::Corrupt("bad DNS spill magic"));
    }
    let n = r.count(DNS_RECORD_MIN_SIZE)?;
    let mut recs = Vec::with_capacity(n);
    for _ in 0..n {
        recs.push(read_dns_record(r)?);
    }
    Ok(recs)
}

/// Day-keyed buckets of records evicted but not yet sealed: what a
/// state file stores them as.
pub type FlowBuckets = BTreeMap<u64, Vec<FlowRecord>>;
pub type DnsBuckets = BTreeMap<u64, Vec<DnsRecord>>;

/// Group unsealed `rows` by the day of `ts`, order kept within a day.
pub fn by_day<T: Clone>(rows: &[T], ts: impl Fn(&T) -> SimTime) -> BTreeMap<u64, Vec<T>> {
    let mut buckets = BTreeMap::<u64, Vec<T>>::new();
    for r in rows {
        buckets.entry(ts(r).as_secs() / SECS_PER_DAY).or_default().push(r.clone());
    }
    buckets
}

/// The unsealed rows of a bucket map: day-key order, order within a
/// bucket kept. Rows that tie on a canonical sort key share a
/// timestamp, hence a bucket, so a stable seal-time sort orders the
/// result as it would have ordered the rows before [`by_day`].
pub fn flatten<T>(buckets: BTreeMap<u64, Vec<T>>) -> Vec<T> {
    buckets.into_values().flatten().collect()
}

/// What a state file holds: the probe carry-over and the unsealed rows.
pub(crate) type State = (ProbeState, FlowBuckets, DnsBuckets);

/// Write `state-<day>.bin`: the probe carry-over plus the unsealed
/// rows. Returns the whole-file checksum recorded in the manifest.
pub fn write_state_file(
    path: &Path,
    probe: &ProbeState,
    flow_buckets: &FlowBuckets,
    dns_buckets: &DnsBuckets,
) -> io::Result<u64> {
    write_file(path, |w| put_trailed(w, &state_body(probe, flow_buckets, dns_buckets)))
}

/// The bytes of a state file before its checksum.
pub(crate) fn state_body(probe: &ProbeState, flow_buckets: &FlowBuckets, dns_buckets: &DnsBuckets) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(STATE_FILE_MAGIC);
    put_bytes(&mut buf, &probe.encode());
    put_u32(&mut buf, flow_buckets.len() as u32);
    for (day, flows) in flow_buckets {
        put_u64(&mut buf, *day);
        put_u32(&mut buf, flows.len() as u32);
        for f in flows {
            put_flow_record(&mut buf, f);
        }
    }
    put_u32(&mut buf, dns_buckets.len() as u32);
    for (day, recs) in dns_buckets {
        put_u64(&mut buf, *day);
        put_u32(&mut buf, recs.len() as u32);
        for d in recs {
            put_dns_record(&mut buf, d);
        }
    }
    buf
}

/// Inverse of [`write_state_file`].
pub fn read_state_file(
    path: &Path,
    expect: Option<u64>,
) -> Result<(ProbeState, FlowBuckets, DnsBuckets), CampaignError> {
    named(path, read_trailed(path, expect, read_state_body))
}

/// A state file's contents, from the bytes before its checksum.
pub(crate) fn read_state_body(r: &mut Reader<'_>) -> Result<State, CheckpointError> {
    if r.take(8)? != STATE_FILE_MAGIC {
        return Err(CheckpointError::Corrupt("bad state-file magic"));
    }
    let probe = ProbeState::decode(r.bytes()?)?;
    let mut flow_buckets = FlowBuckets::new();
    for _ in 0..r.u32()? {
        let day = r.u64()?;
        let n = r.count(FLOW_RECORD_MIN_SIZE)?;
        let mut flows = Vec::with_capacity(n);
        for _ in 0..n {
            flows.push(read_flow_record(r)?);
        }
        flow_buckets.insert(day, flows);
    }
    let mut dns_buckets = DnsBuckets::new();
    for _ in 0..r.u32()? {
        let day = r.u64()?;
        let n = r.count(DNS_RECORD_MIN_SIZE)?;
        let mut recs = Vec::with_capacity(n);
        for _ in 0..n {
            recs.push(read_dns_record(r)?);
        }
        dns_buckets.insert(day, recs);
    }
    Ok((probe, flow_buckets, dns_buckets))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::store::FileError;
    use satwatch_simcore::SimDuration;
    use std::net::Ipv4Addr;

    pub(crate) fn flow(i: u8) -> FlowRecord {
        FlowRecord {
            client: Ipv4Addr::new(77, 0, 0, i),
            server: Ipv4Addr::new(198, 18, 0, 1),
            client_port: 50_000 + u16::from(i),
            server_port: 443,
            ip_proto: 6,
            first: SimTime::from_secs(10 * u64::from(i)),
            last: SimTime::from_secs(10 * u64::from(i)) + SimDuration::from_millis(1234),
            c2s_packets: 5,
            c2s_bytes: 700,
            c2s_payload_bytes: 600,
            s2c_packets: 9,
            s2c_bytes: 9_999,
            s2c_payload_bytes: 9_000,
            c2s_retrans: 1,
            s2c_retrans: 2,
            early: vec![
                EarlyPacket { offset_ms: 0.0, wire_len: 60, c2s: true },
                EarlyPacket { offset_ms: 550.123_456, wire_len: 1500, c2s: false },
            ],
            syn_seen: true,
            fin_seen: false,
            rst_seen: true,
            ground_rtt: RttSummary { samples: 3, min_ms: 10.1, avg_ms: 11.7, max_ms: 13.9, std_ms: 0.3 },
            s2c_data_first: Some(SimTime::from_secs(10 * u64::from(i)) + SimDuration::from_millis(2)),
            s2c_data_last: None,
            sat_rtt_ms: (i.is_multiple_of(2)).then_some(601.25),
            l7: L7Protocol::Quic,
            domain: (i.is_multiple_of(3)).then(|| "video.tiktokv.com".into()),
        }
    }

    #[test]
    fn flow_record_round_trips_every_field() {
        for i in 0..6 {
            let f = flow(i);
            let mut buf = Vec::new();
            put_flow_record(&mut buf, &f);
            let mut r = Reader::new(&buf);
            let back = read_flow_record(&mut r).unwrap();
            assert_eq!(back, f);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn the_minimum_record_sizes_are_what_the_writers_write() {
        let mut f = flow(1);
        (f.early, f.s2c_data_first, f.sat_rtt_ms, f.domain) = (Vec::new(), None, None, None);
        let mut buf = Vec::new();
        put_flow_record(&mut buf, &f);
        assert_eq!(buf.len(), FLOW_RECORD_MIN_SIZE);
        let d = DnsRecord {
            client: Ipv4Addr::new(77, 0, 0, 9),
            resolver: Ipv4Addr::new(8, 8, 8, 8),
            query: "".into(),
            ts: SimTime::from_secs(55),
            response_ms: None,
            answers: Vec::new(),
        };
        buf.clear();
        put_dns_record(&mut buf, &d);
        assert_eq!(buf.len(), DNS_RECORD_MIN_SIZE);
    }

    #[test]
    fn state_file_round_trips_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("swcampaign-codec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state-0.bin");

        let mut flow_buckets = FlowBuckets::new();
        flow_buckets.insert(1, vec![flow(5), flow(4)]);
        flow_buckets.insert(0, vec![flow(2), flow(1)]);
        let mut dns_buckets = DnsBuckets::new();
        dns_buckets.insert(
            0,
            vec![DnsRecord {
                client: Ipv4Addr::new(77, 0, 0, 9),
                resolver: Ipv4Addr::new(8, 8, 8, 8),
                query: "example.org".into(),
                ts: SimTime::from_secs(55),
                response_ms: Some(550.25),
                answers: vec![Ipv4Addr::new(1, 2, 3, 4)],
            }],
        );
        let probe = ProbeState::empty();

        let sum = write_state_file(&path, &probe, &flow_buckets, &dns_buckets).unwrap();
        let (p2, f2, d2) = read_state_file(&path, Some(sum)).unwrap();
        assert_eq!(p2.flows.len(), 0);
        assert_eq!(f2, flow_buckets);
        assert_eq!(d2, dns_buckets);
        // what a resume makes of the buckets: day-key order, the order
        // within a bucket kept
        assert_eq!(flatten(f2), [flow(2), flow(1), flow(5), flow(4)]);

        // flip one byte: the trailing checksum must catch it
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[12] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_state_file(&path, Some(sum)).unwrap_err();
        assert!(matches!(&err, CampaignError::File { file, error: FileError::Corrupt(_) } if *file == path), "{err}");
        assert_eq!(err.to_string(), format!("campaign file {}: checksum mismatch", path.display()));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A carried record holds at most `EARLY_PACKETS` early packets, as
    /// the probe logs them. A larger count is refused before anything
    /// is reserved for it, whether its packets follow or not, and the
    /// error names the state file.
    #[test]
    fn a_carried_record_with_more_early_packets_than_the_probe_logs_is_refused() {
        let dir = std::env::temp_dir().join(format!("swcampaign-early-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state-0.bin");
        let state = |records: &[u8]| {
            let mut body = STATE_FILE_MAGIC.to_vec();
            put_bytes(&mut body, &ProbeState::empty().encode());
            put_u32(&mut body, 1); // one flow bucket:
            put_u64(&mut body, 0); // day 0,
            put_u32(&mut body, 1); // one record
            body.extend_from_slice(records);
            put_u32(&mut body, 0); // no DNS bucket
            write_file(&path, |w| put_trailed(w, &body)).unwrap()
        };
        let read = |sum| read_state_file(&path, Some(sum)).map(|(_, flows, _)| flows);

        let mut f = flow(1);
        f.early = vec![f.early[0]; EARLY_PACKETS];
        let mut record = Vec::new();
        put_flow_record(&mut record, &f);
        assert_eq!(read(state(&record)).unwrap()[&0], [f.clone()], "as many as the probe logs");

        // the count sits after the addresses, ports, protocol and ten u64s
        let count_at = 4 + 4 + 2 + 2 + 1 + 8 * 10;
        let too_many = |n: usize, packets_follow: bool| {
            let mut g = f.clone();
            g.early = vec![f.early[0]; if packets_follow { n } else { 0 }];
            let mut record = Vec::new();
            put_flow_record(&mut record, &g);
            record[count_at..count_at + 2].copy_from_slice(&(n as u16).to_le_bytes());
            record
        };
        for (n, packets_follow) in [(11, true), (65_535, true), (65_535, false)] {
            let err = read(state(&too_many(n, packets_follow))).unwrap_err();
            assert!(
                matches!(&err, CampaignError::File { file, error: FileError::Decode(CheckpointError::Corrupt("early packets")) } if *file == path),
                "{n} early packets: {err}"
            );
            assert!(err.to_string().contains("state-0.bin"), "the error names its file: {err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
