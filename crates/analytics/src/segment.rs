//! On-disk columnar segments (`.swseg`): one sealed [`FlowFrame`] per
//! file, written as per-column byte runs with an integrity footer.
//!
//! The campaign engine writes one segment per checkpoint, so a
//! multi-day run holds at most a day of rows in RAM while the full
//! capture accumulates on disk (DESIGN.md §7 "The segment"). The
//! format is deliberately dumb:
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
//!   and a per-column FNV-1a 64 checksum; the reader verifies every
//!   checksum before it hands out a frame and reports corruption as a
//!   typed [`SegmentError`] — never a panic. It reads the footer
//!   first and then the runs piece by piece, so a file's bytes are
//!   never resident beside the frame ([`read_segment_file`]).
//!
//! The trailing `footer_len` + magic let a reader locate the footer
//! without a seek table and cheaply reject truncated files.

use crate::classify::Classifier;
use crate::column::{with_vec, Cells, CellsMut, Codes, Col, CATALOG};
use crate::frame::{FlowFrame, NO_DOMAIN};
use satwatch_monitor::checkpoint::{put_str, put_u16, put_u32, put_u64, Reader};
use satwatch_monitor::Domain;
use satwatch_simcore::fnv::{fnv1a_update, FNV1A_INIT, FNV1A_PRIME};
use satwatch_simcore::{FxHashSet, SimTime};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::net::Ipv4Addr;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// File magic: format name + version. Bump the trailing digit on any
/// incompatible layout change.
pub const SEGMENT_MAGIC: &[u8; 8] = b"SWSEG\0v1";

/// Why a segment failed to decode. Corruption and truncation are
/// ordinary errors, returned typed and never a panic; only programmer
/// errors panic. Nothing repairs a damaged segment: a campaign whose
/// re-scan meets one fails, naming the file (DESIGN.md §7 "The
/// store").
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

/// Runs [`fnv1a_lanes`] hashes at once.
const FNV1A_LANES: usize = 4;

/// Fold each run into its hash — FNV-1a 64, up to four runs at a
/// time in lock-step. A hash starts at [`FNV1A_INIT`] and can be
/// carried on over the next piece of its run.
///
/// One FNV-1a chain is a serial xor-multiply dependency per byte, so
/// a single run hashes at the multiplier's latency; chains over
/// different runs share nothing, so four of them interleaved fill the
/// multiplier's pipeline instead. Each lane still folds exactly its
/// own run's bytes in order, so every value equals the serial
/// [`fnv1a`](satwatch_simcore::fnv::fnv1a) of that run — the on-disk
/// checksums are unchanged.
fn fnv1a_lanes(hashes: &mut [u64], runs: &[&[u8]]) {
    // (run index, unhashed tail) of each busy lane
    let mut lanes: Vec<(usize, &[u8])> = Vec::with_capacity(FNV1A_LANES);
    let mut pending = runs.iter().copied().enumerate().filter(|(_, r)| !r.is_empty());
    loop {
        lanes.retain(|(_, tail)| !tail.is_empty());
        while lanes.len() < FNV1A_LANES {
            match pending.next() {
                Some(lane) => lanes.push(lane),
                None => break,
            }
        }
        let Some(len) = lanes.iter().map(|(_, tail)| tail.len()).min() else {
            return;
        };
        match lanes.len() {
            1 => fnv1a_advance::<1>(hashes, &mut lanes, len),
            2 => fnv1a_advance::<2>(hashes, &mut lanes, len),
            3 => fnv1a_advance::<3>(hashes, &mut lanes, len),
            _ => fnv1a_advance::<4>(hashes, &mut lanes, len),
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

/// One run of a segment: a catalog column's cells, or (`dict`) the
/// dictionary a [`Codes::Domains`] column's codes index. A file holds
/// every stored column's runs in [`CATALOG`] order, none optional.
#[derive(Clone, Copy)]
struct Run {
    col: Col,
    name: &'static str,
    dict: bool,
}

fn runs() -> impl Iterator<Item = Run> {
    CATALOG.iter().flat_map(|c| c.runs.iter().enumerate().map(|(k, &name)| Run { col: c.id, name, dict: k == 1 }))
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
    /// `(run name, byte length, fnv1a)` per run, in file order.
    pub columns: Vec<(&'static str, u64, u64)>,
}

/// A segment's footer, parsed: where each run lies, and the summary
/// of the frame.
struct Footer {
    /// The run directory, in file order.
    runs: Vec<Extent>,
    rows: u64,
    /// `u64::MAX` for an empty segment.
    min_first: u64,
    max_first: u64,
    services: Vec<String>,
}

/// One run's entry in the footer: its bytes' place and stored FNV-1a.
struct Extent {
    run: Run,
    at: u64,
    len: u64,
    fnv: u64,
}

/// Append one fixed-width run: `W` little-endian bytes per row.
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
    let row_bytes: usize = runs().filter(|r| !r.dict).map(|r| r.col.def().width()).sum();
    let mut data = Vec::with_capacity(fr.len() * row_bytes + 4096);
    write_segment(fr, &mut data).expect("a Vec takes every byte");
    data
}

/// Lay `fr` out as a segment into `w`, canonical dictionary and all
/// (see [`encode_segment`]).
pub fn write_segment(fr: &FlowFrame, w: &mut impl Write) -> std::io::Result<()> {
    let order = fr.domain_order();
    let mut remap = vec![NO_DOMAIN; fr.domains.len()];
    for (new, &old) in order.iter().enumerate() {
        remap[old as usize] = new as u32;
    }
    let dict: Vec<&str> = order.iter().map(|&d| &*fr.domains[d as usize]).collect();
    let idx: Vec<u32> = fr.domain.iter().map(|&d| if d == NO_DOMAIN { d } else { remap[d as usize] }).collect();
    write_columns(fr, &idx, &dict, w)
}

/// Append `run` of `fr` to `data`; `domain_idx` and `dict` stand in
/// for the frame's own domain codes and dictionary.
fn lay_run(data: &mut Vec<u8>, fr: &FlowFrame, run: Run, domain_idx: &[u32], dict: &[&str]) {
    // `f64` as its bit pattern, so `NaN` sentinels and every last ulp
    // survive the round trip
    match run.col.cells(fr) {
        _ if run.dict => {
            put_u32(data, dict.len() as u32);
            dict.iter().for_each(|name| put_str(data, name));
        }
        _ if run.col.def().codes == Some(Codes::Domains) => put_run(data, domain_idx.iter().map(|v| v.to_le_bytes())),
        Cells::Addr(v) => put_run(data, v.iter().map(Ipv4Addr::octets)),
        Cells::Time(v) => put_run(data, v.iter().map(|t| t.as_nanos().to_le_bytes())),
        Cells::U8(v) => data.extend_from_slice(v),
        Cells::U16(v) => put_run(data, v.iter().map(|c| c.to_le_bytes())),
        Cells::U32(v) => put_run(data, v.iter().map(|c| c.to_le_bytes())),
        Cells::U64(v) => put_run(data, v.iter().map(|c| c.to_le_bytes())),
        Cells::F64(v) => put_run(data, v.iter().map(|c| c.to_bits().to_le_bytes())),
        Cells::Sum(..) => unreachable!("a derived column has no run"),
    }
}

/// Lay `fr` out as a segment whose `domain_idx` cells and dictionary
/// are exactly the ones given, into `w`. The runs are built one lane
/// group of [`fnv1a_lanes`] at a time — each group checksummed, then
/// handed to `w` — so no more than four runs are ever held, and never
/// the segment.
fn write_columns(fr: &FlowFrame, domain_idx: &[u32], dict: &[&str], w: &mut impl Write) -> std::io::Result<()> {
    w.write_all(SEGMENT_MAGIC)?;
    let mut offset = SEGMENT_MAGIC.len() as u64;
    let mut footer = Vec::new();
    let all: Vec<Run> = runs().collect();
    put_u32(&mut footer, all.len() as u32);
    let mut group: Vec<Vec<u8>> = Vec::with_capacity(FNV1A_LANES);
    for lanes in all.chunks(FNV1A_LANES) {
        group.resize_with(lanes.len(), Vec::new);
        for (bytes, &run) in group.iter_mut().zip(lanes) {
            bytes.clear();
            lay_run(bytes, fr, run, domain_idx, dict);
        }
        let bytes: Vec<&[u8]> = group.iter().map(Vec::as_slice).collect();
        let mut fnvs = [FNV1A_INIT; FNV1A_LANES];
        fnv1a_lanes(&mut fnvs[..bytes.len()], &bytes);
        for ((run, bytes), fnv) in lanes.iter().zip(&bytes).zip(fnvs) {
            w.write_all(bytes)?;
            put_str(&mut footer, run.name);
            put_u64(&mut footer, offset);
            put_u64(&mut footer, bytes.len() as u64);
            put_u64(&mut footer, fnv);
            offset += bytes.len() as u64;
        }
    }
    put_u64(&mut footer, fr.len() as u64);
    let (min_first, max_first) = match (fr.first.iter().min(), fr.first.iter().max()) {
        (Some(a), Some(b)) => (a.as_nanos(), b.as_nanos()),
        _ => (u64::MAX, 0),
    };
    put_u64(&mut footer, min_first);
    put_u64(&mut footer, max_first);
    put_u16(&mut footer, fr.services.len() as u16);
    fr.services.iter().for_each(|s| put_str(&mut footer, s));
    let footer_len = footer.len() as u64;
    put_u64(&mut footer, footer_len);
    footer.extend_from_slice(SEGMENT_MAGIC);
    w.write_all(&footer)
}

/// A run is read this many bytes at a time: a multiple of every cell
/// width, so a piece holds whole cells.
const PIECE: usize = 64 * 1024;

/// Where a segment's bytes come from. The one decoder reads a slice
/// in memory ([`decode_segment`]) and a file ([`read_segment_file`])
/// alike.
trait Source {
    /// The `len` bytes at `at`, a range the caller has placed inside
    /// the source: a slice lends them, a file reads them into `buf`.
    fn bytes_at<'b>(&'b self, at: u64, len: usize, buf: &'b mut Vec<u8>) -> std::io::Result<&'b [u8]>;
}

impl Source for [u8] {
    fn bytes_at<'b>(&'b self, at: u64, len: usize, _: &'b mut Vec<u8>) -> std::io::Result<&'b [u8]> {
        Ok(&self[at as usize..][..len])
    }
}

impl Source for File {
    fn bytes_at<'b>(&'b self, at: u64, len: usize, buf: &'b mut Vec<u8>) -> std::io::Result<&'b [u8]> {
        buf.resize(len, 0);
        self.read_exact_at(buf, at)?;
        Ok(buf)
    }
}

/// Read the framing and the footer of the `size` bytes of `src`.
fn read_footer(src: &(impl Source + ?Sized), size: u64) -> Result<Footer, SegmentError> {
    let magic = SEGMENT_MAGIC.len() as u64;
    if size < 2 * magic + 8 {
        return Err(SegmentError::Truncated);
    }
    let mut buf = Vec::new();
    if src.bytes_at(0, SEGMENT_MAGIC.len(), &mut buf)? != SEGMENT_MAGIC {
        return Err(SegmentError::Corrupt("bad leading magic"));
    }
    let footer_end = size - magic - 8;
    let tail = src.bytes_at(footer_end, 16, &mut buf)?;
    if tail[8..] != SEGMENT_MAGIC[..] {
        return Err(SegmentError::Corrupt("bad trailing magic (truncated?)"));
    }
    let footer_len = u64::from_le_bytes(tail[..8].try_into().expect("8 bytes"));
    let footer_start = footer_end
        .checked_sub(footer_len)
        .filter(|&start| start >= magic)
        .ok_or(SegmentError::Corrupt("footer length out of range"))?;
    let mut r = Reader::new(src.bytes_at(footer_start, footer_len as usize, &mut buf)?);
    let bad = |_: satwatch_monitor::CheckpointError| SegmentError::Corrupt("footer undecodable");
    let n_runs = r.u32().map_err(bad)? as usize;
    if n_runs != runs().count() {
        return Err(SegmentError::Corrupt("unexpected column count"));
    }
    let mut dir = Vec::with_capacity(n_runs);
    for run in runs() {
        if r.str().map_err(bad)? != run.name {
            return Err(SegmentError::Corrupt("unexpected column name"));
        }
        let at = r.u64().map_err(bad)?;
        let len = r.u64().map_err(bad)?;
        let fnv = r.u64().map_err(bad)?;
        let end = at.checked_add(len).ok_or(SegmentError::Corrupt("column range overflow"))?;
        if at < magic || end > footer_start {
            return Err(SegmentError::Corrupt("column range out of bounds"));
        }
        dir.push(Extent { run, at, len, fnv });
    }
    let rows = r.u64().map_err(bad)?;
    let min_first = r.u64().map_err(bad)?;
    let max_first = r.u64().map_err(bad)?;
    let n_services = r.u16().map_err(bad)? as usize;
    // every entry takes at least its 4-byte length prefix: a count the
    // bytes left cannot hold sizes no allocation
    if n_services * 4 > r.remaining() {
        return Err(SegmentError::Corrupt("service count exceeds the footer"));
    }
    let mut services = Vec::with_capacity(n_services);
    for _ in 0..n_services {
        services.push(r.str().map_err(bad)?.to_string());
    }
    if r.remaining() != 0 {
        return Err(SegmentError::Corrupt("trailing footer bytes"));
    }
    Ok(Footer { runs: dir, rows, min_first, max_first, services })
}

/// Read every run of `footer` off `src`, one lane group of
/// [`fnv1a_lanes`] at a time and [`PIECE`] bytes of each of its runs
/// per step: the group's pieces are hashed in lock-step, and a piece of
/// cells is decoded into `fr` while it is at hand (`None`: checksums
/// only). A cell run decodes only if its length is the row count's, so
/// a column is reserved once and never outgrows the file. Before the
/// next group is read, the group's runs are checked in file order —
/// checksum, then length — so the error is the first bad run's, as if
/// every run had been hashed first. Returns the dictionary run's
/// bytes, for the caller to decode once every run has checked out.
fn read_runs(
    src: &(impl Source + ?Sized),
    footer: &Footer,
    mut fr: Option<&mut FlowFrame>,
) -> Result<Vec<u8>, SegmentError> {
    let sized = |e: &Extent| !e.run.dict && footer.rows.checked_mul(e.run.col.def().width() as u64) == Some(e.len);
    let mut bufs: [Vec<u8>; FNV1A_LANES] = Default::default();
    let mut dict = Vec::new();
    for group in footer.runs.chunks(FNV1A_LANES) {
        if let Some(fr) = fr.as_deref_mut() {
            for e in group.iter().filter(|e| sized(e)) {
                with_vec!(e.run.col.cells_mut(fr), |v| v.reserve_exact(footer.rows as usize));
            }
        }
        let mut hashes = [FNV1A_INIT; FNV1A_LANES];
        let mut done = 0;
        while group.iter().any(|e| e.len > done) {
            let mut pieces: [&[u8]; FNV1A_LANES] = [&[]; FNV1A_LANES];
            for ((piece, buf), e) in pieces.iter_mut().zip(&mut bufs).zip(group) {
                let len = e.len.saturating_sub(done).min(PIECE as u64) as usize;
                if len > 0 {
                    *piece = src.bytes_at(e.at + done, len, buf)?;
                }
            }
            fnv1a_lanes(&mut hashes[..group.len()], &pieces[..group.len()]);
            for (piece, e) in pieces.iter().zip(group) {
                match fr.as_deref_mut() {
                    _ if e.run.dict => dict.extend_from_slice(piece),
                    Some(fr) if sized(e) => extend_cells(e.run.col.cells_mut(fr), piece),
                    _ => {}
                }
            }
            done += PIECE as u64;
        }
        for (e, &fnv) in group.iter().zip(&hashes) {
            if fnv != e.fnv {
                return Err(SegmentError::Checksum { column: e.run.name });
            }
            if !e.run.dict && !sized(e) {
                return Err(SegmentError::Corrupt("column length inconsistent with row count"));
            }
        }
    }
    Ok(dict)
}

/// Read back the footer summary, every run checksummed, no row decoded.
pub fn segment_meta(bytes: &[u8]) -> Result<SegmentMeta, SegmentError> {
    let footer = read_footer(bytes, bytes.len() as u64)?;
    read_runs(bytes, &footer, None)?;
    Ok(SegmentMeta {
        rows: footer.rows,
        min_first: (footer.min_first != u64::MAX).then(|| SimTime::from_nanos(footer.min_first)),
        max_first: (footer.rows > 0).then(|| SimTime::from_nanos(footer.max_first)),
        columns: footer.runs.iter().map(|e| (e.run.name, e.len, e.fnv)).collect(),
    })
}

/// Decode `.swseg` bytes back into the exact [`FlowFrame`] that was
/// encoded: [`read_segment_file`]'s decoder over a slice. Any
/// corruption or truncation yields a typed error, never a panic.
pub fn decode_segment(bytes: &[u8]) -> Result<FlowFrame, SegmentError> {
    decode(bytes, bytes.len() as u64)
}

/// The one segment decoder, over the `size` bytes of `src`: the
/// framing and the footer, then the runs ([`read_runs`]), then the
/// services table, the domain dictionary and the domain codes.
fn decode(src: &(impl Source + ?Sized), size: u64) -> Result<FlowFrame, SegmentError> {
    let footer = read_footer(src, size)?;
    let mut fr = FlowFrame::default();
    let dict = read_runs(src, &footer, Some(&mut fr))?;
    // the services table indexes the standard classifier's rule list;
    // map each stored name back to its `&'static str`
    let classifier = Classifier::standard();
    let known: Vec<&'static str> = classifier.rules().iter().map(|r| r.service).collect();
    fr.services = Vec::with_capacity(footer.services.len());
    for s in &footer.services {
        match known.iter().find(|k| **k == s.as_str()) {
            Some(k) => fr.services.push(k),
            None => return Err(SegmentError::Corrupt("service name not in the standard table")),
        }
    }
    fr.domains = read_dictionary(&dict)?;
    // the frame's code column indexes the dictionary as stored
    if fr.domain.iter().any(|&d| d != NO_DOMAIN && d as usize >= fr.domains.len()) {
        return Err(SegmentError::Corrupt("domain index out of range"));
    }
    Ok(fr)
}

/// Append the cells of `piece`, whole cells of a run whose length the
/// footer checked.
fn extend_cells(cells: CellsMut<'_>, piece: &[u8]) {
    fn chunks<const W: usize>(piece: &[u8]) -> impl Iterator<Item = [u8; W]> + '_ {
        piece.chunks_exact(W).map(|c| c.try_into().expect("chunks of W bytes"))
    }
    match cells {
        CellsMut::Addr(v) => v.extend(chunks(piece).map(Ipv4Addr::from)),
        CellsMut::Time(v) => v.extend(chunks(piece).map(|c| SimTime::from_nanos(u64::from_le_bytes(c)))),
        CellsMut::U8(v) => v.extend_from_slice(piece),
        CellsMut::U16(v) => v.extend(chunks(piece).map(u16::from_le_bytes)),
        CellsMut::U32(v) => v.extend(chunks(piece).map(u32::from_le_bytes)),
        CellsMut::U64(v) => v.extend(chunks(piece).map(u64::from_le_bytes)),
        CellsMut::F64(v) => v.extend(chunks(piece).map(|c| f64::from_bits(u64::from_le_bytes(c)))),
    }
}

/// A stored domain dictionary: its entries must be distinct.
fn read_dictionary(run: &[u8]) -> Result<Vec<Domain>, SegmentError> {
    let mut r = Reader::new(run);
    let bad = |_: satwatch_monitor::CheckpointError| SegmentError::Corrupt("domain dictionary undecodable");
    let n = r.count(4).map_err(bad)?; // each entry: a length prefix and more
    let mut domains: Vec<Domain> = Vec::with_capacity(n);
    let mut distinct: FxHashSet<&str> = FxHashSet::default();
    for _ in 0..n {
        let name = r.str().map_err(bad)?;
        if !distinct.insert(name) {
            return Err(SegmentError::Corrupt("duplicate dictionary entry"));
        }
        domains.push(Domain::from(name));
    }
    if r.remaining() != 0 {
        return Err(SegmentError::Corrupt("trailing domain dictionary bytes"));
    }
    Ok(domains)
}

/// Encode `fr` and write it to `path` through [`write_file`], so a
/// crash mid-write never leaves a half-segment under the final name.
/// Returns the byte length and whole-file FNV-1a checksum.
///
/// The bytes stream to the file as each lane group of runs is laid
/// down, and the whole-file checksum is folded as they pass: no
/// segment-sized buffer, no second pass.
pub fn write_segment_file(path: &Path, fr: &FlowFrame) -> Result<(u64, u64), SegmentError> {
    Ok(write_file(path, |w| write_segment(fr, w).map(|()| w.written()))?)
}

/// Write `path` whole or not at all: `fill` streams the bytes through a
/// [`FileWriter`] into a temp file, `path` with `.tmp` appended, which
/// is renamed to `path` once they are all written. The workspace's one
/// temp-file-and-rename: segments and every file of a campaign
/// directory go through it. Nothing is fsynced (DESIGN.md §7 "The store").
pub fn write_file<T>(path: &Path, fill: impl FnOnce(&mut FileWriter) -> std::io::Result<T>) -> std::io::Result<T> {
    let tmp = path.with_added_extension("tmp");
    let mut w = FileWriter { inner: BufWriter::new(File::create(&tmp)?), len: 0, fnv: FNV1A_INIT };
    let out = fill(&mut w)?;
    w.inner.into_inner().map_err(|e| e.into_error())?;
    std::fs::rename(&tmp, path)?;
    Ok(out)
}

/// What [`write_file`] hands its `fill`: the temp file, buffered,
/// behind a writer that counts the bytes it passes on and folds their
/// FNV-1a.
pub struct FileWriter {
    inner: BufWriter<File>,
    len: u64,
    fnv: u64,
}

impl FileWriter {
    /// The bytes passed on so far: their count and FNV-1a.
    pub fn written(&self) -> (u64, u64) {
        (self.len, self.fnv)
    }

    /// The temp file, every byte written so far flushed to it.
    pub fn file(&mut self) -> std::io::Result<&File> {
        self.inner.flush()?;
        Ok(self.inner.get_ref())
    }
}

impl Write for FileWriter {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(bytes)?;
        self.fnv = fnv1a_update(self.fnv, &bytes[..n]);
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Read and decode a segment file, optionally verifying the
/// whole-file checksum recorded in a campaign manifest. The file is
/// read in pieces — the footer first, then the runs lane group by lane
/// group ([`decode_segment`]'s decoder) — so its bytes are never
/// resident beside the frame. The whole-file checksum is one
/// sequential pass through a 64 KiB buffer, before any
/// decoding.
pub fn read_segment_file(path: &Path, expect_fnv: Option<u64>) -> Result<FlowFrame, SegmentError> {
    let file = File::open(path)?;
    let size = file.metadata()?.len();
    if let Some(want) = expect_fnv {
        let (mut fnv, mut buf, mut at) = (FNV1A_INIT, Vec::new(), 0);
        while at < size {
            let len = (size - at).min(PIECE as u64);
            fnv = fnv1a_update(fnv, file.bytes_at(at, len as usize, &mut buf)?);
            at += len;
        }
        if fnv != want {
            return Err(SegmentError::Checksum { column: "<whole file>" });
        }
    }
    decode(&file, size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::Enrichment;
    use crate::column::tests::assert_same_rows;
    use crate::frame::FrameBuilder;
    use satwatch_monitor::record::RttSummary;
    use satwatch_monitor::{FlowRecord, L7Protocol};
    use satwatch_simcore::fnv::fnv1a;
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

    #[test]
    fn round_trip_is_lossless() {
        let fr = sample_frame();
        let bytes = encode_segment(&fr);
        let back = decode_segment(&bytes).unwrap();
        assert_same_rows(&fr, &back);
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
        let mut data = Vec::new();
        write_columns(fr, &idx, &dict, &mut data).unwrap();
        data
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
        assert_same_rows(&fr, &other);
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
        assert_same_rows(&fr, &back);
        assert_eq!(encode_segment(&back), encode_segment(&fr), "re-encoding drops it");
    }

    #[test]
    fn row_count_overflow_is_corrupt_not_a_panic() {
        let bytes = encode_segment(&sample_frame());
        let footer_len = u64::from_le_bytes(bytes[bytes.len() - 16..bytes.len() - 8].try_into().unwrap()) as usize;
        let footer_start = bytes.len() - 16 - footer_len;
        let rows_at = footer_start + 4 + runs().map(|r| 4 + r.name.len() + 24).sum::<usize>();
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

    /// Runs longer than a piece are read, hashed and decoded in
    /// pieces, off a slice and off a file alike; a flipped byte in a
    /// later piece of a later lane group is that run's checksum error.
    #[test]
    fn runs_of_many_pieces_read_the_same_off_a_file() {
        let fr = sample_frame().replicate(3_000);
        let bytes = encode_segment(&fr);
        let late = segment_meta(&bytes).unwrap().columns.iter().position(|&(name, ..)| name == "dur_s").unwrap();
        assert!(late >= FNV1A_LANES, "a later lane group");
        let path = std::env::temp_dir().join(format!("satwatch-segment-pieces-{}.swseg", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let read = read_segment_file(&path, Some(fnv1a(&bytes)));
        assert!(matches!(read_segment_file(&path, Some(1)), Err(SegmentError::Checksum { column: "<whole file>" })));
        std::fs::remove_file(&path).unwrap();
        assert_same_rows(&fr, &decode_segment(&bytes).unwrap());
        assert_same_rows(&fr, &read.unwrap());
        let footer = read_footer(&bytes[..], bytes.len() as u64).unwrap();
        let run = &footer.runs[late];
        assert!(run.len > 2 * PIECE as u64, "{} bytes", run.len);
        let mut bad = bytes.clone();
        bad[(run.at + run.len - 3) as usize] ^= 0x10;
        assert!(matches!(decode_segment(&bad), Err(SegmentError::Checksum { column: "dur_s" })));
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

    fn lanes(runs: &[&[u8]]) -> Vec<u64> {
        let mut hashes = vec![FNV1A_INIT; runs.len()];
        fnv1a_lanes(&mut hashes, runs);
        hashes
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
            proptest::prop_assert_eq!(lanes(&slices), serial);
            // carried on piece by piece, as the reader hashes a run
            let cut = rng.below(800) as usize;
            let mut hashes = vec![FNV1A_INIT; slices.len()];
            let heads: Vec<&[u8]> = slices.iter().map(|r| &r[..cut.min(r.len())]).collect();
            let tails: Vec<&[u8]> = slices.iter().map(|r| &r[cut.min(r.len())..]).collect();
            fnv1a_lanes(&mut hashes, &heads);
            fnv1a_lanes(&mut hashes, &tails);
            proptest::prop_assert_eq!(hashes, serial);
        }
    }

    #[test]
    fn lockstep_fnv_of_no_runs_and_known_vectors() {
        assert!(lanes(&[]).is_empty());
        // FNV-1a 64 test vectors: "" and "a"
        assert_eq!(lanes(&[b"", b"a"]), [0xcbf2_9ce4_8422_2325, 0xaf63_dc4c_8601_ec8c]);
    }
}
