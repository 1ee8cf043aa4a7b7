//! The TSV block codec the log formats are built from (DESIGN.md §5 "The
//! log codec"): allocation-free field encoders, a writer that hands its
//! sink 64 KiB blocks, and a reader that walks one reused line buffer.
//!
//! The schemas live next to their records — flow and DNS logs in
//! [`crate::record`], the enrichment log beside `Enrichment` in
//! `satwatch-analytics`; this module only knows fields, rows and
//! blocks.

use std::io::{self, BufRead, Read, Write};
use std::net::Ipv4Addr;
use std::str::FromStr;

/// The writer hands its buffer to the sink once it passes this size.
pub const BLOCK: usize = 64 * 1024;

/// Longest row the reader accepts. Real rows are a few hundred bytes;
/// the cap bounds the line buffer on input that never ends a line.
const MAX_LINE: usize = BLOCK;

/// Append `v` in decimal.
pub fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Append `addr` as a dotted quad.
pub fn push_ipv4(out: &mut Vec<u8>, addr: Ipv4Addr) {
    for (i, octet) in addr.octets().into_iter().enumerate() {
        if i > 0 {
            out.push(b'.');
        }
        push_u64(out, u64::from(octet));
    }
}

/// Append `v` exactly as `{:.3}` formats it.
///
/// std prints the decimal expansion of the *exact* binary value,
/// rounded half-to-even at the third place. For a finite `v` in
/// `[0, 2^53 / 1000)` that is integer arithmetic: `v = m · 2^-s` with
/// `m < 2^53` and `s ≥ 1`, so `1000·m < 2^63` fits a `u64` and
/// `1000·v` rounds by inspecting the `s` bits shifted out. Everything
/// else — negative (including `-0.0`), NaN, ±inf, larger values —
/// goes through `write!`, so the bytes are std's by construction.
pub fn push_fixed3(out: &mut Vec<u8>, v: f64) {
    // 2^53 / 1000; non-negative finite doubles order like their bits,
    // and a set sign bit, an infinity or a NaN all compare above
    const LIMIT_BITS: u64 = 0x42A0_624D_D2F1_A9FC;
    let bits = v.to_bits();
    if bits >= LIMIT_BITS {
        write!(out, "{v:.3}").expect("write to Vec cannot fail");
        return;
    }
    let biased = bits >> 52;
    let frac = bits & ((1 << 52) - 1);
    // v = m · 2^-s; subnormals have no implicit bit and the minimum exponent
    let (m, s) = if biased == 0 { (frac, 1074) } else { (frac | (1 << 52), 1075 - biased) };
    let n = m * 1000;
    let thousandths = if s >= 64 {
        // n < 2^63 ≤ 2^(s-1): strictly below half a thousandth
        0
    } else {
        let (q, rem, half) = (n >> s, n & ((1 << s) - 1), 1 << (s - 1));
        q + u64::from(rem > half || (rem == half && q & 1 == 1))
    };
    push_u64(out, thousandths / 1000);
    let f = thousandths % 1000;
    out.extend_from_slice(&[b'.', b'0' + (f / 100) as u8, b'0' + (f / 10 % 10) as u8, b'0' + (f % 10) as u8]);
}

/// Write a TSV log: the optional `header` line, then one row per item
/// of `rows`, each appended by `encode` (newline included).
///
/// Rows go into one reused buffer, which is handed to the sink with a
/// single `write_all` each time it passes [`BLOCK`]: a raw `File` sees
/// one `write(2)` per block, and no more than a block plus one row is
/// ever held. The last partial block is written and the sink flushed
/// before returning; every error of the sink is returned.
pub fn write_rows<W: Write, T>(
    sink: &mut W,
    header: Option<&str>,
    rows: impl IntoIterator<Item = T>,
    mut encode: impl FnMut(&mut Vec<u8>, T),
) -> io::Result<()> {
    let mut buf = Vec::with_capacity(BLOCK + 1024);
    if let Some(header) = header {
        buf.extend_from_slice(header.as_bytes());
        buf.push(b'\n');
    }
    for row in rows {
        encode(&mut buf, row);
        if buf.len() >= BLOCK {
            sink.write_all(&buf)?;
            buf.clear();
        }
    }
    sink.write_all(&buf)?;
    sink.flush()
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A TSV log read a row at a time through one reused line buffer: a
/// pull cursor, so that two logs can be read in step. The first line
/// must equal `header` and every row must have as many fields as it;
/// empty lines are skipped; `what` names the log in the header error.
/// Line numbers count from the header as line 0.
pub struct Rows<R> {
    r: R,
    header: &'static str,
    what: &'static str,
    want: usize,
    buf: Vec<u8>,
    /// The line the next read takes.
    lineno: usize,
}

impl<R: BufRead> Rows<R> {
    /// A cursor at the first line of `r`, which must be `header`.
    pub fn new(r: R, header: &'static str, what: &'static str) -> Rows<R> {
        Rows { r, header, what, want: header.split('\t').count(), buf: Vec::new(), lineno: 0 }
    }

    /// The next data row, `None` at the end of the log.
    pub fn next_row(&mut self) -> io::Result<Option<Fields<'_>>> {
        loop {
            let lineno = self.lineno;
            self.lineno += 1;
            let buf = &mut self.buf;
            buf.clear();
            if self.r.by_ref().take(MAX_LINE as u64 + 1).read_until(b'\n', buf)? == 0 {
                return Ok(None);
            }
            if buf.last() == Some(&b'\n') {
                buf.pop();
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
            } else if buf.len() > MAX_LINE {
                return Err(invalid(format!("line {lineno}: longer than {MAX_LINE} bytes")));
            }
            let not_utf8 = || invalid(format!("line {lineno}: not UTF-8"));
            if lineno == 0 {
                std::str::from_utf8(buf).map_err(|_| not_utf8())?;
                if &buf[..] != self.header.as_bytes() {
                    return Err(invalid(format!("bad {} header", self.what)));
                }
                continue;
            }
            if buf.is_empty() {
                continue;
            }
            let line = std::str::from_utf8(&self.buf).map_err(|_| not_utf8())?;
            let got = 1 + line.bytes().filter(|&b| b == b'\t').count();
            if got != self.want {
                return Err(invalid(format!("line {lineno}: expected {} fields, got {got}", self.want)));
            }
            return Ok(Some(Fields { rest: line, lineno }));
        }
    }
}

/// Feed every data row of a TSV log to `row`: [`Rows`] driven to the
/// end, or to the first error `row` returns.
pub fn read_rows<R: BufRead>(
    r: R,
    header: &'static str,
    what: &'static str,
    mut row: impl FnMut(Fields<'_>) -> io::Result<()>,
) -> io::Result<()> {
    let mut rows = Rows::new(r, header, what);
    while let Some(fields) = rows.next_row()? {
        row(fields)?;
    }
    Ok(())
}

/// Cursor over the tab-separated fields of one row, whose count
/// [`read_rows`] has already checked against the header. Each parsing
/// accessor names its column, for the error.
pub struct Fields<'a> {
    rest: &'a str,
    lineno: usize,
}

impl<'a> Fields<'a> {
    /// An `InvalidData` error naming `column` of this row.
    pub fn bad(&self, column: &str) -> io::Error {
        invalid(format!("line {}: bad {column}", self.lineno))
    }

    /// The next field as text; empty past the last one.
    pub fn text(&mut self) -> &'a str {
        // fields are a few bytes long: a plain scan beats a memchr call
        let end = self.rest.bytes().position(|b| b == b'\t').unwrap_or(self.rest.len());
        let (field, rest) = self.rest.split_at(end);
        self.rest = rest.get(1..).unwrap_or("");
        field
    }

    /// The next field parsed with `FromStr` (addresses, floats).
    pub fn parse<T: FromStr>(&mut self, column: &str) -> io::Result<T> {
        self.text().parse().map_err(|_| self.bad(column))
    }

    /// [`parse`](Self::parse), with `-` for `None`.
    pub fn parse_opt<T: FromStr>(&mut self, column: &str) -> io::Result<Option<T>> {
        match self.text() {
            "-" => Ok(None),
            s => s.parse().map(Some).map_err(|_| self.bad(column)),
        }
    }

    /// The next field as an unsigned integer, parsed from its bytes:
    /// digits only, no sign, overflow rejected.
    pub fn uint<T: TryFrom<u64>>(&mut self, column: &str) -> io::Result<T> {
        let s = self.text();
        self.uint_of(s, column)
    }

    /// [`uint`](Self::uint), with `-` for `None`.
    pub fn uint_opt<T: TryFrom<u64>>(&mut self, column: &str) -> io::Result<Option<T>> {
        match self.text() {
            "-" => Ok(None),
            s => self.uint_of(s, column).map(Some),
        }
    }

    /// [`uint`](Self::uint) of the column the log is sorted on. With a
    /// `floor` (the row above's value) a value below it is an error
    /// naming the line, and the value becomes the floor.
    pub fn uint_from(&mut self, column: &str, floor: &mut Option<u64>) -> io::Result<u64> {
        let v = self.uint(column)?;
        if let Some(floor) = floor {
            if v < *floor {
                return Err(invalid(format!(
                    "line {}: {column} {v} goes back (the row above has {floor})",
                    self.lineno
                )));
            }
            *floor = v;
        }
        Ok(v)
    }

    fn uint_of<T: TryFrom<u64>>(&self, s: &str, column: &str) -> io::Result<T> {
        parse_u64(s).and_then(|v| T::try_from(v).ok()).ok_or_else(|| self.bad(column))
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    if s.is_empty() {
        return None;
    }
    let mut v = 0u64;
    for d in s.bytes() {
        let d = d.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(u64::from(d))?;
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed3(v: f64) -> String {
        let mut out = Vec::new();
        push_fixed3(&mut out, v);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn integers_and_addresses_match_display() {
        for v in [0, 7, 10, 99, 100, 65_535, 1_000_000_007, u64::MAX] {
            let mut out = Vec::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes());
        }
        for addr in [Ipv4Addr::new(0, 0, 0, 0), Ipv4Addr::new(10, 9, 8, 7), Ipv4Addr::new(255, 255, 255, 255)] {
            let mut out = Vec::new();
            push_ipv4(&mut out, addr);
            assert_eq!(out, addr.to_string().as_bytes());
        }
    }

    #[test]
    fn fixed3_rounds_exact_ties_to_even_like_std() {
        assert_eq!(fixed3(0.0625), "0.062");
        assert_eq!(fixed3(0.1875), "0.188");
        assert_eq!(fixed3(0.0), "0.000");
        assert_eq!(fixed3(612.5), "612.500");
        assert_eq!(fixed3(0.9995), "1.000");
        // k/16000 is a decimal tie whenever k ≡ 8 (mod 16): exact in
        // binary when 125 | k, otherwise a double a hair to one side
        for k in 0..64_000u32 {
            let v = f64::from(k) / 16_000.0;
            assert_eq!(fixed3(v), format!("{v:.3}"), "k = {k}");
        }
    }

    #[test]
    fn fixed3_matches_std_at_the_edges_of_the_fast_path() {
        let limit = f64::from_bits(0x42A0_624D_D2F1_A9FC);
        assert_eq!(limit, (1u64 << 53) as f64 / 1000.0);
        for v in [
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::from_bits(f64::MIN_POSITIVE.to_bits() - 1),
            4.9e-4,
            5.0e-4,
            5.1e-4,
            f64::from_bits(limit.to_bits() - 1),
            limit,
            1e20,
            f64::MAX,
            -0.0,
            -12.3456,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(fixed3(v), format!("{v:.3}"), "{v:e}");
        }
    }

    #[test]
    fn reader_names_the_line_and_bounds_it() {
        let rows = |input: &[u8]| {
            let mut seen = Vec::new();
            read_rows(input, "a\tb", "test log", |mut f| {
                seen.push((f.uint::<u8>("a")?, f.text().to_string()));
                Ok(())
            })
            .map(|()| seen)
            .map_err(|e| e.to_string())
        };
        assert_eq!(rows(b""), Ok(vec![]));
        assert_eq!(rows(b"a\tb\n1\tx\r\n\n2\ty"), Ok(vec![(1, "x".into()), (2, "y".into())]));
        assert_eq!(rows(b"b\ta\n"), Err("bad test log header".into()));
        assert_eq!(rows(b"a\tb\n1\tx\n1\n"), Err("line 2: expected 2 fields, got 1".into()));
        for bad in ["256", "-1", "+1", "", "1e2", "99999999999999999999"] {
            assert_eq!(rows(format!("a\tb\n{bad}\tx\n").as_bytes()), Err("line 1: bad a".into()), "{bad:?}");
        }
        assert_eq!(rows(b"a\tb\n1\t\xff\n"), Err("line 1: not UTF-8".into()));
        let mut endless = b"a\tb\n1\t".to_vec();
        endless.resize(MAX_LINE + 100, b'x');
        assert_eq!(rows(&endless), Err(format!("line 1: longer than {MAX_LINE} bytes")));
    }
}
