//! On-disk columnar segments (`.swseg`): one sealed [`FlowFrame`] per
//! file, written as per-column byte runs with an integrity footer.
//!
//! The campaign engine seals one segment per simulated day, so a
//! multi-day run holds at most one day of flows in RAM while the full
//! capture accumulates on disk. The format is deliberately dumb:
//!
//! ```text
//! [magic 8B] [column byte runs …] [footer] [footer_len u64] [magic 8B]
//! ```
//!
//! * Every numeric column is fixed-width little-endian; `f64` columns
//!   store raw bit patterns (`to_bits`), so `NaN` sentinels and every
//!   last ulp survive the round trip — the decoded frame is
//!   *bit-identical* to the sealed one, which is what lets a
//!   segment-merged report reproduce the in-RAM report byte for byte.
//! * The `domain` column is dictionary-encoded per segment: a string
//!   table of distinct names plus a `u32` index per row
//!   (`u32::MAX` = no domain).
//! * The footer carries the row count, the `first`-timestamp range,
//!   and a per-column FNV-1a 64 checksum; [`decode_segment`] verifies
//!   every checksum before constructing the frame and reports
//!   corruption as a typed [`SegmentError`] — never a panic.
//!
//! The trailing `footer_len` + magic let a reader locate the footer
//! without a seek table and cheaply reject truncated files.

use crate::classify::Classifier;
use crate::frame::{FlowFrame, NO_DOMAIN};
use satwatch_monitor::checkpoint::{put_str, put_u16, put_u32, put_u64, Reader};
use satwatch_monitor::Domain;
use satwatch_simcore::fnv::{fnv1a, FNV1A_INIT, FNV1A_PRIME};
use satwatch_simcore::{FxHashSet, SimTime};
use std::net::Ipv4Addr;
use std::path::Path;

/// File magic: format name + version. Bump the trailing digit on any
/// incompatible layout change.
pub const SEGMENT_MAGIC: &[u8; 8] = b"SWSEG\0v1";

/// Why a segment failed to decode. Corruption and truncation are
/// ordinary, recoverable errors (a campaign resume re-simulates the
/// damaged day); only programmer errors panic.
#[derive(Debug)]
pub enum SegmentError {
    Io(std::io::Error),
    /// File too short for even the fixed framing.
    Truncated,
    /// Structurally invalid: bad magic, out-of-range offsets,
    /// inconsistent row counts, undecodable strings.
    Corrupt(&'static str),
    /// A column's stored FNV-1a checksum does not match its bytes.
    Checksum {
        column: &'static str,
    },
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment io error: {e}"),
            SegmentError::Truncated => write!(f, "segment truncated"),
            SegmentError::Corrupt(why) => write!(f, "segment corrupt: {why}"),
            SegmentError::Checksum { column } => write!(f, "segment checksum mismatch in column {column}"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<std::io::Error> for SegmentError {
    fn from(e: std::io::Error) -> SegmentError {
        SegmentError::Io(e)
    }
}

/// FNV-1a 64 of every run, up to four runs at a time in lock-step.
///
/// One FNV-1a chain is a serial xor-multiply dependency per byte, so
/// a single run hashes at the multiplier's latency; chains over
/// different runs share nothing, so four of them interleaved fill the
/// multiplier's pipeline instead. Each lane still folds exactly its
/// own run's bytes in order, so every value equals the serial
/// [`fnv1a`] of that run — the on-disk checksums are unchanged.
fn fnv1a_lanes(runs: &[&[u8]]) -> Vec<u64> {
    const LANES: usize = 4;
    let mut out = vec![FNV1A_INIT; runs.len()];
    // (run index, unhashed tail) of each busy lane
    let mut lanes: Vec<(usize, &[u8])> = Vec::with_capacity(LANES);
    let mut pending = runs.iter().copied().enumerate().filter(|(_, r)| !r.is_empty());
    loop {
        lanes.retain(|(_, tail)| !tail.is_empty());
        while lanes.len() < LANES {
            match pending.next() {
                Some(lane) => lanes.push(lane),
                None => break,
            }
        }
        let Some(len) = lanes.iter().map(|(_, tail)| tail.len()).min() else {
            return out;
        };
        match lanes.len() {
            1 => fnv1a_advance::<1>(&mut out, &mut lanes, len),
            2 => fnv1a_advance::<2>(&mut out, &mut lanes, len),
            3 => fnv1a_advance::<3>(&mut out, &mut lanes, len),
            _ => fnv1a_advance::<4>(&mut out, &mut lanes, len),
        }
    }
}

/// Hash the next `len` bytes of the `N` busy lanes — one byte of
/// every lane per step — and move their tails past them.
#[allow(clippy::needless_range_loop)] // `i` walks all N runs at once: that is the lock-step
fn fnv1a_advance<const N: usize>(out: &mut [u64], lanes: &mut [(usize, &[u8])], len: usize) {
    let mut h: [u64; N] = std::array::from_fn(|l| out[lanes[l].0]);
    let runs: [&[u8]; N] = std::array::from_fn(|l| &lanes[l].1[..len]);
    for i in 0..len {
        for l in 0..N {
            h[l] = (h[l] ^ u64::from(runs[l][i])).wrapping_mul(FNV1A_PRIME);
        }
    }
    for (l, lane) in lanes.iter_mut().enumerate() {
        out[lane.0] = h[l];
        lane.1 = &lane.1[len..];
    }
}

/// Column names, in file order. The decoder requires exactly this
/// set in this order — the format has no optional columns.
const COLUMNS: &[&str] = &[
    "client",
    "first",
    "bytes_up",
    "bytes_down",
    "ground_rtt_avg",
    "ground_rtt_samples",
    "sat_rtt_ms",
    "down_bps",
    "dur_s",
    "l7",
    "country",
    "local_hour",
    "hour_utc",
    "day",
    "beam",
    "service",
    "category",
    "domain_idx",
    "domain_dict",
];

/// Fixed row width (bytes) of each column, or `None` for the
/// variable-length dictionary column.
fn column_width(name: &str) -> Option<usize> {
    match name {
        "client" | "day" | "domain_idx" => Some(4),
        "first" | "bytes_up" | "bytes_down" | "ground_rtt_samples" => Some(8),
        "ground_rtt_avg" | "sat_rtt_ms" | "down_bps" | "dur_s" => Some(8),
        "l7" | "country" | "local_hour" | "hour_utc" | "category" => Some(1),
        "beam" | "service" => Some(2),
        _ => None,
    }
}

/// Summary a reader can extract without decoding row data — what the
/// campaign manifest records per sealed segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    pub rows: u64,
    /// Earliest `first` timestamp, or `None` for an empty segment.
    pub min_first: Option<SimTime>,
    /// Latest `first` timestamp, or `None` for an empty segment.
    pub max_first: Option<SimTime>,
    /// `(name, byte length, fnv1a)` per column, in file order.
    pub columns: Vec<(String, u64, u64)>,
}

struct FooterCol {
    name: &'static str,
    offset: u64,
    len: u64,
    fnv: u64,
}

impl FooterCol {
    fn run<'a>(&self, bytes: &'a [u8]) -> &'a [u8] {
        &bytes[self.offset as usize..(self.offset + self.len) as usize]
    }
}

/// Append one fixed-width column run: `W` little-endian bytes per row.
fn put_run<const W: usize>(data: &mut Vec<u8>, cells: impl ExactSizeIterator<Item = [u8; W]>) {
    let start = data.len();
    data.resize(start + cells.len() * W, 0);
    for (dst, cell) in data[start..].chunks_exact_mut(W).zip(cells) {
        dst.copy_from_slice(&cell);
    }
}

/// Serialize a sealed frame into `.swseg` bytes.
///
/// The stored dictionary is canonical — distinct names in order of
/// first appearance over rows, unused entries dropped — so the bytes
/// depend only on the rows, not on the order the frame's builder
/// happened to meet the names in. Canonicalising is an integer remap
/// of the code column; no name is hashed or compared.
pub fn encode_segment(fr: &FlowFrame) -> Vec<u8> {
    let order = fr.domain_order();
    let mut remap = vec![NO_DOMAIN; fr.domains.len()];
    for (new, &old) in order.iter().enumerate() {
        remap[old as usize] = new as u32;
    }
    let dict: Vec<&str> = order.iter().map(|&d| &*fr.domains[d as usize]).collect();
    let idx: Vec<u32> = fr.domain.iter().map(|&d| if d == NO_DOMAIN { d } else { remap[d as usize] }).collect();
    encode_columns(fr, &idx, &dict)
}

/// Lay `fr` out as a segment whose `domain_idx` cells and dictionary
/// are exactly the ones given.
fn encode_columns(fr: &FlowFrame, domain_idx: &[u32], dict: &[&str]) -> Vec<u8> {
    let n = fr.len();
    let row_bytes: usize = COLUMNS.iter().filter_map(|c| column_width(c)).sum();
    let mut data = Vec::with_capacity(n * row_bytes + 4096);
    data.extend_from_slice(SEGMENT_MAGIC);
    let mut ranges: Vec<std::ops::Range<usize>> = Vec::with_capacity(COLUMNS.len());
    for &name in COLUMNS {
        let start = data.len();
        match name {
            "client" => put_run(&mut data, fr.client.iter().map(Ipv4Addr::octets)),
            "first" => put_run(&mut data, fr.first.iter().map(|t| t.as_nanos().to_le_bytes())),
            "bytes_up" => put_run(&mut data, fr.bytes_up.iter().map(|v| v.to_le_bytes())),
            "bytes_down" => put_run(&mut data, fr.bytes_down.iter().map(|v| v.to_le_bytes())),
            "ground_rtt_avg" => put_run(&mut data, fr.ground_rtt_avg.iter().map(|v| v.to_bits().to_le_bytes())),
            "ground_rtt_samples" => put_run(&mut data, fr.ground_rtt_samples.iter().map(|v| v.to_le_bytes())),
            "sat_rtt_ms" => put_run(&mut data, fr.sat_rtt_ms.iter().map(|v| v.to_bits().to_le_bytes())),
            "down_bps" => put_run(&mut data, fr.down_bps.iter().map(|v| v.to_bits().to_le_bytes())),
            "dur_s" => put_run(&mut data, fr.dur_s.iter().map(|v| v.to_bits().to_le_bytes())),
            "l7" => data.extend_from_slice(&fr.l7),
            "country" => data.extend_from_slice(&fr.country),
            "local_hour" => data.extend_from_slice(&fr.local_hour),
            "hour_utc" => data.extend_from_slice(&fr.hour_utc),
            "day" => put_run(&mut data, fr.day.iter().map(|v| v.to_le_bytes())),
            "beam" => put_run(&mut data, fr.beam.iter().map(|v| v.to_le_bytes())),
            "service" => put_run(&mut data, fr.service.iter().map(|v| v.to_le_bytes())),
            "category" => data.extend_from_slice(&fr.category),
            "domain_idx" => put_run(&mut data, domain_idx.iter().map(|v| v.to_le_bytes())),
            "domain_dict" => {
                put_u32(&mut data, dict.len() as u32);
                dict.iter().for_each(|name| put_str(&mut data, name));
            }
            _ => unreachable!("column list is closed"),
        }
        ranges.push(start..data.len());
    }
    let runs: Vec<&[u8]> = ranges.iter().map(|r| &data[r.clone()]).collect();
    let sums = fnv1a_lanes(&runs);
    // footer
    let mut footer = Vec::new();
    put_u32(&mut footer, COLUMNS.len() as u32);
    for ((name, range), fnv) in COLUMNS.iter().zip(&ranges).zip(sums) {
        put_str(&mut footer, name);
        put_u64(&mut footer, range.start as u64);
        put_u64(&mut footer, range.len() as u64);
        put_u64(&mut footer, fnv);
    }
    put_u64(&mut footer, n as u64);
    let (min_first, max_first) = match (fr.first.iter().min(), fr.first.iter().max()) {
        (Some(a), Some(b)) => (a.as_nanos(), b.as_nanos()),
        _ => (u64::MAX, 0),
    };
    put_u64(&mut footer, min_first);
    put_u64(&mut footer, max_first);
    put_u16(&mut footer, fr.services.len() as u16);
    fr.services.iter().for_each(|s| put_str(&mut footer, s));
    let footer_len = footer.len() as u64;
    data.extend_from_slice(&footer);
    put_u64(&mut data, footer_len);
    data.extend_from_slice(SEGMENT_MAGIC);
    data
}

/// Parse and checksum-verify the framing + footer, returning the
/// column directory and the data region. Shared by [`decode_segment`]
/// and [`segment_meta`].
#[allow(clippy::type_complexity)]
fn parse_footer(bytes: &[u8]) -> Result<(Vec<FooterCol>, u64, u64, u64, Vec<String>), SegmentError> {
    let min_len = SEGMENT_MAGIC.len() * 2 + 8;
    if bytes.len() < min_len {
        return Err(SegmentError::Truncated);
    }
    if &bytes[..8] != SEGMENT_MAGIC {
        return Err(SegmentError::Corrupt("bad leading magic"));
    }
    if &bytes[bytes.len() - 8..] != SEGMENT_MAGIC {
        return Err(SegmentError::Corrupt("bad trailing magic (truncated?)"));
    }
    let mut tail = Reader::new(&bytes[bytes.len() - 16..bytes.len() - 8]);
    let footer_len = tail.u64().map_err(|_| SegmentError::Truncated)? as usize;
    let footer_end = bytes.len() - 16;
    let footer_start = footer_end.checked_sub(footer_len).ok_or(SegmentError::Corrupt("footer length out of range"))?;
    if footer_start < 8 {
        return Err(SegmentError::Corrupt("footer length out of range"));
    }
    let mut r = Reader::new(&bytes[footer_start..footer_end]);
    let bad = |_: satwatch_monitor::CheckpointError| SegmentError::Corrupt("footer undecodable");
    let n_cols = r.u32().map_err(bad)? as usize;
    if n_cols != COLUMNS.len() {
        return Err(SegmentError::Corrupt("unexpected column count"));
    }
    let mut cols = Vec::with_capacity(n_cols);
    for &expected in COLUMNS {
        let name = r.str().map_err(bad)?;
        if name != expected {
            return Err(SegmentError::Corrupt("unexpected column name"));
        }
        let offset = r.u64().map_err(bad)?;
        let len = r.u64().map_err(bad)?;
        let fnv = r.u64().map_err(bad)?;
        let end = offset.checked_add(len).ok_or(SegmentError::Corrupt("column range overflow"))?;
        if (offset as usize) < 8 || end as usize > footer_start {
            return Err(SegmentError::Corrupt("column range out of bounds"));
        }
        cols.push(FooterCol { name: expected, offset, len, fnv });
    }
    let rows = r.u64().map_err(bad)?;
    let min_first = r.u64().map_err(bad)?;
    let max_first = r.u64().map_err(bad)?;
    let n_services = r.u16().map_err(bad)? as usize;
    let mut services = Vec::with_capacity(n_services);
    for _ in 0..n_services {
        services.push(r.str().map_err(bad)?.to_string());
    }
    if r.remaining() != 0 {
        return Err(SegmentError::Corrupt("trailing footer bytes"));
    }
    // verify every column checksum before any row decoding
    let runs: Vec<&[u8]> = cols.iter().map(|c| c.run(bytes)).collect();
    for (c, fnv) in cols.iter().zip(fnv1a_lanes(&runs)) {
        if fnv != c.fnv {
            return Err(SegmentError::Checksum { column: c.name });
        }
        if let Some(w) = column_width(c.name) {
            if rows.checked_mul(w as u64) != Some(c.len) {
                return Err(SegmentError::Corrupt("column length inconsistent with row count"));
            }
        }
    }
    Ok((cols, rows, min_first, max_first, services))
}

/// Read back the footer summary without decoding rows.
pub fn segment_meta(bytes: &[u8]) -> Result<SegmentMeta, SegmentError> {
    let (cols, rows, min_first, max_first, _services) = parse_footer(bytes)?;
    Ok(SegmentMeta {
        rows,
        min_first: (min_first != u64::MAX).then(|| SimTime::from_nanos(min_first)),
        max_first: (rows > 0).then(|| SimTime::from_nanos(max_first)),
        columns: cols.iter().map(|c| (c.name.to_string(), c.len, c.fnv)).collect(),
    })
}

/// Decode `.swseg` bytes back into the exact [`FlowFrame`] that was
/// encoded. Every column checksum is verified first; any corruption
/// or truncation yields a typed error, never a panic.
pub fn decode_segment(bytes: &[u8]) -> Result<FlowFrame, SegmentError> {
    let (cols, _rows, _min, _max, services) = parse_footer(bytes)?;
    let run = |name: &str| -> &[u8] { cols.iter().find(|c| c.name == name).expect("closed column list").run(bytes) };
    // the services table indexes the standard classifier's rule list;
    // map each stored name back to its `&'static str`
    let classifier = Classifier::standard();
    let known: Vec<&'static str> = classifier.rules().iter().map(|r| r.service).collect();
    let mut svc_static: Vec<&'static str> = Vec::with_capacity(services.len());
    for s in &services {
        match known.iter().find(|k| **k == s.as_str()) {
            Some(k) => svc_static.push(k),
            None => return Err(SegmentError::Corrupt("service name not in the standard table")),
        }
    }
    let u64s = |name: &str| run(name).chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap()));
    let f64s =
        |name: &str| run(name).chunks_exact(8).map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())));
    let u32s = |name: &str| run(name).chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap()));
    let u16s = |name: &str| run(name).chunks_exact(2).map(|c| u16::from_le_bytes(c.try_into().unwrap()));
    // domain dictionary: the frame's code column indexes it as stored,
    // so its entries must be distinct and every index in range
    let mut dr = Reader::new(run("domain_dict"));
    let bad = |_: satwatch_monitor::CheckpointError| SegmentError::Corrupt("domain dictionary undecodable");
    let dict_len = dr.u32().map_err(bad)? as usize;
    // every entry takes at least its length prefix: bound the
    // allocation by the bytes actually present
    let mut domains: Vec<Domain> = Vec::with_capacity(dict_len.min(dr.remaining()));
    let mut distinct: FxHashSet<&str> = FxHashSet::default();
    for _ in 0..dict_len {
        let name = dr.str().map_err(bad)?;
        if !distinct.insert(name) {
            return Err(SegmentError::Corrupt("duplicate dictionary entry"));
        }
        domains.push(Domain::from(name));
    }
    if dr.remaining() != 0 {
        return Err(SegmentError::Corrupt("trailing domain dictionary bytes"));
    }
    let domain: Vec<u32> = u32s("domain_idx").collect();
    if domain.iter().any(|&d| d != NO_DOMAIN && d as usize >= domains.len()) {
        return Err(SegmentError::Corrupt("domain index out of range"));
    }
    let fr = FlowFrame {
        client: run("client").chunks_exact(4).map(|c| Ipv4Addr::new(c[0], c[1], c[2], c[3])).collect(),
        first: u64s("first").map(SimTime::from_nanos).collect(),
        bytes_up: u64s("bytes_up").collect(),
        bytes_down: u64s("bytes_down").collect(),
        ground_rtt_avg: f64s("ground_rtt_avg").collect(),
        ground_rtt_samples: u64s("ground_rtt_samples").collect(),
        sat_rtt_ms: f64s("sat_rtt_ms").collect(),
        down_bps: f64s("down_bps").collect(),
        dur_s: f64s("dur_s").collect(),
        l7: run("l7").to_vec(),
        country: run("country").to_vec(),
        local_hour: run("local_hour").to_vec(),
        hour_utc: run("hour_utc").to_vec(),
        day: u32s("day").collect(),
        beam: u16s("beam").collect(),
        service: u16s("service").collect(),
        category: run("category").to_vec(),
        domain,
        domains,
        services: svc_static,
    };
    Ok(fr)
}

/// Encode `fr` and write it to `path` (via a `.tmp` sibling + rename,
/// so a crash mid-write never leaves a half-segment under the final
/// name). Returns the byte length and whole-file FNV-1a checksum.
pub fn write_segment_file(path: &Path, fr: &FlowFrame) -> Result<(u64, u64), SegmentError> {
    let bytes = encode_segment(fr);
    let tmp = path.with_extension("swseg.tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok((bytes.len() as u64, fnv1a(&bytes)))
}

/// Read and decode a segment file, optionally verifying the
/// whole-file checksum recorded in a campaign manifest.
pub fn read_segment_file(path: &Path, expect_fnv: Option<u64>) -> Result<FlowFrame, SegmentError> {
    let bytes = std::fs::read(path)?;
    if let Some(want) = expect_fnv {
        if fnv1a(&bytes) != want {
            return Err(SegmentError::Checksum { column: "<whole file>" });
        }
    }
    decode_segment(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::Enrichment;
    use crate::frame::FrameBuilder;
    use satwatch_monitor::record::RttSummary;
    use satwatch_monitor::{FlowRecord, L7Protocol};
    use satwatch_simcore::SimDuration;
    use satwatch_traffic::Country;

    fn flow(i: u8, domain: Option<&str>) -> FlowRecord {
        FlowRecord {
            client: Ipv4Addr::new(77, 0, 0, i),
            server: Ipv4Addr::new(198, 18, 0, 1),
            client_port: 50_000 + u16::from(i),
            server_port: 443,
            ip_proto: 6,
            first: SimTime::from_secs(3_600 * u64::from(i)),
            last: SimTime::from_secs(3_600 * u64::from(i)) + SimDuration::from_secs(9),
            c2s_packets: 5,
            c2s_bytes: 100 + u64::from(i),
            c2s_payload_bytes: 90,
            s2c_packets: 10,
            s2c_bytes: 1_000,
            s2c_payload_bytes: 900,
            c2s_retrans: 0,
            s2c_retrans: 1,
            early: vec![],
            syn_seen: true,
            fin_seen: true,
            rst_seen: false,
            ground_rtt: RttSummary { samples: 3, min_ms: 11.0, avg_ms: 12.5, max_ms: 14.0, std_ms: 1.0 },
            s2c_data_first: None,
            s2c_data_last: None,
            sat_rtt_ms: (i.is_multiple_of(2)).then_some(601.25),
            l7: L7Protocol::TlsHttps,
            domain: domain.map(Into::into),
        }
    }

    fn sample_frame() -> FlowFrame {
        let mut e = Enrichment { days: 1, ..Default::default() };
        e.country_of.insert(Ipv4Addr::new(77, 0, 0, 1), Country::Congo);
        e.beam_of.insert(Ipv4Addr::new(77, 0, 0, 1), 3);
        let mut b = FrameBuilder::new(e);
        for i in 0..7 {
            b.push(&flow(i, [None, Some("video.tiktokv.com"), Some("docs.google.com")][i as usize % 3]));
        }
        b.seal()
    }

    fn frames_equal(a: &FlowFrame, b: &FlowFrame) {
        assert_eq!(a.client, b.client);
        assert_eq!(a.first, b.first);
        assert_eq!(a.bytes_up, b.bytes_up);
        assert_eq!(a.bytes_down, b.bytes_down);
        // f64 columns: compare bit patterns (NaN ≠ NaN under ==)
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.ground_rtt_avg), bits(&b.ground_rtt_avg));
        assert_eq!(a.ground_rtt_samples, b.ground_rtt_samples);
        assert_eq!(bits(&a.sat_rtt_ms), bits(&b.sat_rtt_ms));
        assert_eq!(bits(&a.down_bps), bits(&b.down_bps));
        assert_eq!(bits(&a.dur_s), bits(&b.dur_s));
        assert_eq!(a.l7, b.l7);
        assert_eq!(a.country, b.country);
        assert_eq!(a.local_hour, b.local_hour);
        assert_eq!(a.hour_utc, b.hour_utc);
        assert_eq!(a.day, b.day);
        assert_eq!(a.beam, b.beam);
        assert_eq!(a.service, b.service);
        assert_eq!(a.category, b.category);
        // codes may differ (dictionary order is the frame's own); names may not
        let names = |fr: &FlowFrame| (0..fr.len()).map(|i| fr.domain_at(i).map(str::to_string)).collect::<Vec<_>>();
        assert_eq!(names(a), names(b));
        assert_eq!(a.services, b.services);
    }

    #[test]
    fn round_trip_is_lossless() {
        let fr = sample_frame();
        let bytes = encode_segment(&fr);
        let back = decode_segment(&bytes).unwrap();
        frames_equal(&fr, &back);
        let meta = segment_meta(&bytes).unwrap();
        assert_eq!(meta.rows, fr.len() as u64);
        assert_eq!(meta.min_first, Some(fr.first[0]));
        assert_eq!(meta.max_first, Some(*fr.first.last().unwrap()));
    }

    /// The `domain_idx` cells and dictionary `encode_segment` stores
    /// for `fr`, for tests that lay out a doctored variant.
    fn stored_domains(fr: &FlowFrame) -> (Vec<u32>, Vec<String>) {
        let back = decode_segment(&encode_segment(fr)).unwrap();
        (back.domain.clone(), back.domains.iter().map(|d| d.to_string()).collect())
    }

    fn lay_out(fr: &FlowFrame, idx: Vec<u32>, dict: &[String]) -> Vec<u8> {
        let dict: Vec<&str> = dict.iter().map(String::as_str).collect();
        encode_columns(fr, &idx, &dict)
    }

    #[test]
    fn stored_dictionary_is_canonical_whatever_the_frame_order() {
        let fr = sample_frame();
        let (idx, dict) = stored_domains(&fr);
        assert_eq!(dict, ["video.tiktokv.com", "docs.google.com"], "first appearance over rows");
        assert_eq!(idx, [NO_DOMAIN, 0, 1, NO_DOMAIN, 0, 1, NO_DOMAIN]);
        // the same rows under a reversed dictionary with a stray entry
        let mut other = fr.clone();
        other.domains = vec!["unused.example".into(), "docs.google.com".into(), "video.tiktokv.com".into()];
        other.domain = fr.domain.iter().map(|&d| if d == NO_DOMAIN { d } else { 2 - d }).collect();
        frames_equal(&fr, &other);
        assert_eq!(encode_segment(&other), encode_segment(&fr));
    }

    #[test]
    fn duplicate_dictionary_entry_is_rejected() {
        let fr = sample_frame();
        let (idx, mut dict) = stored_domains(&fr);
        dict.push(dict[0].clone());
        let bytes = lay_out(&fr, idx, &dict);
        assert!(matches!(decode_segment(&bytes), Err(SegmentError::Corrupt("duplicate dictionary entry"))));
    }

    #[test]
    fn out_of_range_domain_index_is_rejected() {
        let fr = sample_frame();
        let (mut idx, dict) = stored_domains(&fr);
        idx[1] = dict.len() as u32;
        let bytes = lay_out(&fr, idx, &dict);
        assert!(matches!(decode_segment(&bytes), Err(SegmentError::Corrupt("domain index out of range"))));
    }

    #[test]
    fn unused_dictionary_entry_decodes_and_is_dropped_on_reencode() {
        let fr = sample_frame();
        let (idx, mut dict) = stored_domains(&fr);
        dict.insert(0, "unused.example".to_string());
        let shifted = idx.into_iter().map(|d| if d == NO_DOMAIN { d } else { d + 1 }).collect();
        let bytes = lay_out(&fr, shifted, &dict);
        let back = decode_segment(&bytes).expect("an unused entry is valid v1");
        assert_eq!(back.domains.len(), 3, "the frame keeps the dictionary as stored");
        frames_equal(&fr, &back);
        assert_eq!(encode_segment(&back), encode_segment(&fr), "re-encoding drops it");
    }

    #[test]
    fn row_count_overflow_is_corrupt_not_a_panic() {
        let bytes = encode_segment(&sample_frame());
        let footer_len = u64::from_le_bytes(bytes[bytes.len() - 16..bytes.len() - 8].try_into().unwrap()) as usize;
        let footer_start = bytes.len() - 16 - footer_len;
        let rows_at = footer_start + 4 + COLUMNS.iter().map(|c| 4 + c.len() + 24).sum::<usize>();
        assert_eq!(bytes[rows_at..rows_at + 8], 7u64.to_le_bytes(), "located the row count");
        // 2^61 * 8 wraps to 0; u64::MAX * 2 wraps too: neither may
        // panic (debug) or pass for a wrapped length (release)
        for rows in [1u64 << 61, u64::MAX, (1 << 63) + 7] {
            let mut bad = bytes.clone();
            bad[rows_at..rows_at + 8].copy_from_slice(&rows.to_le_bytes());
            assert!(
                matches!(decode_segment(&bad), Err(SegmentError::Corrupt("column length inconsistent with row count"))),
                "rows = {rows}"
            );
        }
    }

    #[test]
    fn empty_frame_round_trips() {
        let fr = FrameBuilder::new(Enrichment::default()).seal();
        let bytes = encode_segment(&fr);
        let back = decode_segment(&bytes).unwrap();
        assert_eq!(back.len(), 0);
        let meta = segment_meta(&bytes).unwrap();
        assert_eq!(meta.rows, 0);
        assert_eq!(meta.min_first, None);
        assert_eq!(meta.max_first, None);
    }

    #[test]
    fn corruption_is_rejected_with_typed_errors() {
        let bytes = encode_segment(&sample_frame());
        // truncation at every prefix length: error, never panic
        for cut in [0, 1, 7, 8, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_segment(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // flip one byte in a column run: checksum catches it
        let mut bad = bytes.clone();
        bad[10] ^= 0xff;
        assert!(matches!(decode_segment(&bad), Err(SegmentError::Checksum { .. })));
        // bad magic
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(decode_segment(&bad), Err(SegmentError::Corrupt(_))));
    }

    proptest::proptest! {
        /// Lock-step hashing is only a schedule: every lane's value
        /// is the serial FNV-1a of its own run, for any number of
        /// runs of any (unequal, possibly zero) lengths.
        #[test]
        fn lockstep_fnv_equals_the_serial_loop(seed in proptest::any::<u64>(), n_runs in 1usize..10) {
            let mut rng = proptest::TestRng::new(seed);
            let runs: Vec<Vec<u8>> = (0..n_runs)
                .map(|_| {
                    let len = match rng.below(4) {
                        0 => 0,
                        1 => rng.below(8) as usize,
                        _ => rng.below(700) as usize,
                    };
                    (0..len).map(|_| rng.next_u64() as u8).collect()
                })
                .collect();
            let slices: Vec<&[u8]> = runs.iter().map(Vec::as_slice).collect();
            let serial: Vec<u64> = slices.iter().map(|r| fnv1a(r)).collect();
            proptest::prop_assert_eq!(fnv1a_lanes(&slices), serial);
        }
    }

    #[test]
    fn lockstep_fnv_of_no_runs_and_known_vectors() {
        assert!(fnv1a_lanes(&[]).is_empty());
        // FNV-1a 64 test vectors: "" and "a"
        assert_eq!(fnv1a_lanes(&[b"", b"a"]), [0xcbf2_9ce4_8422_2325, 0xaf63_dc4c_8601_ec8c]);
    }
}
