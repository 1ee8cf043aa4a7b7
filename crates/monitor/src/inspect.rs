//! Per-direction inspection buffer between the reassembler and the DPI.
//!
//! The DPI and the TLS-handshake estimator want *complete units*: a
//! ClientHello split across segments has to be inspected whole. The
//! [`InspectBuffer`] takes the in-order chunks the reassembler delivers
//! and cuts TLS streams at record boundaries; anything that does not
//! look like TLS records is passed through chunk by chunk (HTTP heads
//! and opaque payloads are self-contained in practice).
//!
//! Units are slices of the delivered chunk whenever they can be: with
//! nothing pending, complete records are parsed straight out of the
//! chunk and only an incomplete tail is copied, to wait for the bytes
//! that complete it.

use crate::checkpoint::{self, CheckpointError, Reader};
use satwatch_netstack::ip::ParseError;
use satwatch_netstack::tls;

/// One direction's inspection state. See the module docs.
#[derive(Debug, Default)]
pub struct InspectBuffer {
    /// The incomplete unit carried between chunks; empty in between.
    buf: Vec<u8>,
    /// Consumed prefix of `buf`. Advancing a cursor instead of
    /// `drain(..consumed)` avoids a memmove of the pending tail on
    /// every delivered record; the buffer compacts only when the dead
    /// prefix grows past [`INSPECT_COMPACT_AT`].
    start: usize,
    mode: InspectMode,
}

#[derive(Debug, Default, PartialEq, Clone, Copy)]
enum InspectMode {
    #[default]
    Unknown,
    /// TLS: parse and deliver whole records.
    Records,
    /// Non-TLS: deliver chunks as they come, no buffering.
    Raw,
    /// Inspection finished (cap reached or DPI satisfied).
    Done,
}

/// Bound on the buffered head while waiting for a record to complete.
pub(crate) const INSPECT_BUF_CAP: usize = 16_384;

/// Compact the buffer once this much dead prefix accumulates.
pub(crate) const INSPECT_COMPACT_AT: usize = 4_096;

/// Deliver the complete units at the head of `data` (the whole pending
/// stream, oldest byte first) and return how many bytes they took.
/// Decides the mode on first sight: a TLS record starts with content
/// type 20..=23 and major version 3.
fn deliver_units(mode: &mut InspectMode, data: &[u8], sink: &mut impl FnMut(&[u8])) -> usize {
    if *mode == InspectMode::Unknown {
        if data.len() < 2 {
            return 0; // need more bytes to sniff
        }
        if (20..=23).contains(&data[0]) && data[1] == 3 {
            *mode = InspectMode::Records;
        } else {
            *mode = InspectMode::Raw;
            sink(data);
            return data.len();
        }
    }
    let mut used = 0;
    loop {
        match tls::parse_record(&data[used..]) {
            Ok((_, n)) => {
                sink(&data[used..used + n]);
                used += n;
            }
            Err(ParseError::Truncated { .. }) => return used,
            Err(_) => {
                // stream stopped looking like TLS (e.g. encrypted app
                // data with a mangled header): flush and fall back to
                // raw
                sink(&data[used..]);
                *mode = InspectMode::Raw;
                return data.len();
            }
        }
    }
}

impl InspectBuffer {
    /// Pending (not yet consumed) bytes.
    fn pending(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// Feed one in-order chunk; invokes `sink` for every complete unit.
    pub fn feed(&mut self, chunk: &[u8], mut sink: impl FnMut(&[u8])) {
        match self.mode {
            InspectMode::Done => return,
            InspectMode::Raw => return sink(chunk),
            InspectMode::Unknown | InspectMode::Records => {}
        }
        if self.buf.is_empty() {
            // nothing pending: units are slices of the caller's chunk,
            // only an incomplete tail is kept
            let tail = &chunk[deliver_units(&mut self.mode, chunk, &mut sink)..];
            if tail.len() > INSPECT_BUF_CAP {
                // a record that never completes cannot pin memory
                sink(tail);
                self.mode = InspectMode::Done;
            } else {
                self.buf.extend_from_slice(tail);
            }
            return;
        }
        self.buf.extend_from_slice(chunk);
        self.start += deliver_units(&mut self.mode, &self.buf[self.start..], &mut sink);
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > INSPECT_COMPACT_AT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        if self.pending().len() > INSPECT_BUF_CAP {
            let buf = std::mem::take(&mut self.buf);
            sink(&buf[self.start..]);
            self.start = 0;
            self.mode = InspectMode::Done;
        }
    }

    /// Checkpoint serialization: mode tag + pending tail. The consumed
    /// prefix before `start` is dead (never read again), so only the
    /// pending bytes persist; restore rebases them at `start = 0`,
    /// which is observationally identical.
    pub(crate) fn write_state(&self, w: &mut Vec<u8>) {
        let mode = match self.mode {
            InspectMode::Unknown => 0u8,
            InspectMode::Records => 1,
            InspectMode::Raw => 2,
            InspectMode::Done => 3,
        };
        checkpoint::put_u8(w, mode);
        checkpoint::put_bytes(w, self.pending());
    }

    pub(crate) fn read_state(r: &mut Reader<'_>) -> Result<InspectBuffer, CheckpointError> {
        let mode = match r.u8()? {
            0 => InspectMode::Unknown,
            1 => InspectMode::Records,
            2 => InspectMode::Raw,
            3 => InspectMode::Done,
            _ => return Err(CheckpointError::Corrupt("inspect mode")),
        };
        Ok(InspectBuffer { buf: r.bytes()?.to_vec(), start: 0, mode })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units(b: &mut InspectBuffer, chunk: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        b.feed(chunk, |u| out.push(u.to_vec()));
        out
    }

    #[test]
    fn whole_records_are_units_and_a_split_one_waits() {
        let ch = tls::client_hello("inspect.example", [3; 32]);
        let ccs = tls::change_cipher_spec();
        let mut stream = ch.to_vec();
        stream.extend_from_slice(&ccs);
        let mut b = InspectBuffer::default();
        // both records and the first 3 bytes of a third in one chunk
        let app = tls::application_data(100, 1);
        stream.extend_from_slice(&app[..3]);
        assert_eq!(units(&mut b, &stream), vec![ch.to_vec(), ccs.to_vec()]);
        assert_eq!(b.pending(), &app[..3], "only the incomplete tail is kept");
        assert!(units(&mut b, &app[3..50]).is_empty());
        assert_eq!(units(&mut b, &app[50..]), vec![app.to_vec()]);
        assert!(b.pending().is_empty());
    }

    #[test]
    fn non_tls_goes_raw_and_a_mangled_record_falls_back() {
        let mut b = InspectBuffer::default();
        assert!(units(&mut b, b"G").is_empty(), "one byte cannot be sniffed");
        assert_eq!(units(&mut b, b"ET / HTTP/1.1\r\n"), vec![b"GET / HTTP/1.1\r\n".to_vec()]);
        assert_eq!(units(&mut b, b"more"), vec![b"more".to_vec()]);

        let mut b = InspectBuffer::default();
        let mut stream = tls::change_cipher_spec().to_vec();
        let good = stream.len();
        stream.extend_from_slice(&[23, 9, 9, 0, 1, 0xff]); // bad version
        let got = units(&mut b, &stream);
        assert_eq!(got, vec![stream[..good].to_vec(), stream[good..].to_vec()]);
        assert_eq!(b.mode, InspectMode::Raw);
    }

    #[test]
    fn a_record_that_never_completes_is_flushed_at_the_cap() {
        let mut b = InspectBuffer::default();
        // a header promising 65 535 bytes, of which 16 375 arrive
        let mut head = vec![23u8, 3, 3, 0xff, 0xff];
        head.extend_from_slice(&[0u8; 16_375]);
        assert!(units(&mut b, &head).is_empty());
        let got = units(&mut b, &[1u8; 10]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].len(), 16_390);
        assert_eq!(b.mode, InspectMode::Done);
        assert!(units(&mut b, b"ignored").is_empty());
        // the same tail in one chunk never touches the buffer
        let mut b = InspectBuffer::default();
        head.extend_from_slice(&[1u8; 10]);
        assert_eq!(units(&mut b, &head), vec![head.clone()]);
        assert!(b.buf.is_empty());
    }
}
