//! pcap export/import of the simulated span-port traffic.
//!
//! Writing the classic libpcap format (magic `0xa1b2c3d4`, LINKTYPE
//! `RAW` = 101, microsecond timestamps) makes the simulator's output
//! consumable by the real toolchain — Wireshark, tcpdump, or the real
//! Tstat the paper used. Like an operational capture, the writer
//! supports a *snap length*: packets are truncated to `snaplen` bytes
//! on disk while `orig_len` records the true size, which is exactly
//! what header-only capture deployments do (and what keeps 4.3 PB of
//! traffic storable).

use bytes::Bytes;
use satwatch_netstack::{Packet, ParseError};
use satwatch_simcore::SimTime;
use std::io::{self, Read, Write};

const MAGIC: u32 = 0xa1b2_c3d4;
/// LINKTYPE_RAW: packets begin directly with the IPv4 header.
const LINKTYPE_RAW: u32 = 101;

/// Streaming pcap writer.
pub struct PcapWriter<W: Write> {
    out: W,
    snaplen: u32,
    packets: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Create a writer with the given snap length (bytes kept per
    /// packet on disk). 65535 keeps everything representable.
    pub fn new(mut out: W, snaplen: u32) -> io::Result<PcapWriter<W>> {
        out.write_all(&MAGIC.to_le_bytes())?;
        out.write_all(&2u16.to_le_bytes())?; // version major
        out.write_all(&4u16.to_le_bytes())?; // version minor
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&snaplen.to_le_bytes())?;
        out.write_all(&LINKTYPE_RAW.to_le_bytes())?;
        Ok(PcapWriter { out, snaplen, packets: 0 })
    }

    /// Append one packet observed at `t`.
    pub fn write(&mut self, t: SimTime, pkt: &Packet) -> io::Result<()> {
        let wire = pkt.encode();
        let orig_len = wire.len().min(u32::MAX as usize) as u32;
        let incl_len = orig_len.min(self.snaplen);
        let usec = t.as_nanos() / 1_000;
        self.out.write_all(&((usec / 1_000_000) as u32).to_le_bytes())?;
        self.out.write_all(&((usec % 1_000_000) as u32).to_le_bytes())?;
        self.out.write_all(&incl_len.to_le_bytes())?;
        self.out.write_all(&orig_len.to_le_bytes())?;
        self.out.write_all(&wire[..incl_len as usize])?;
        self.packets += 1;
        Ok(())
    }

    pub fn packets_written(&self) -> u64 {
        self.packets
    }

    pub fn into_inner(self) -> W {
        self.out
    }
}

/// One record read back from a pcap file.
#[derive(Clone, Debug)]
pub struct PcapRecord {
    pub t: SimTime,
    /// Bytes on disk (possibly snapped): a slice of the block the
    /// whole capture was read into.
    pub data: Bytes,
    /// Original on-the-wire length.
    pub orig_len: u32,
}

impl PcapRecord {
    /// Try to parse the captured bytes as a packet. Snapped packets
    /// parse if the headers survived (the usual capture tradeoff).
    pub fn parse(&self) -> Result<Packet, ParseError> {
        Packet::parse(&self.data)
    }
}

/// Read an entire pcap file written by [`PcapWriter`] (or any classic
/// little-endian microsecond pcap with LINKTYPE_RAW).
///
/// The capture is read in one block and every record's `data` is a
/// slice of it: one allocation for the bytes however many frames,
/// memory bounded by the input's length. A capture that ends inside a
/// record header ends there; one that ends inside the file header or a
/// record body is an error.
pub fn read_pcap<R: Read>(mut input: R) -> io::Result<Vec<PcapRecord>> {
    let mut block = Vec::new();
    input.read_to_end(&mut block)?;
    let block = Bytes::from(block);
    let truncated = || io::Error::from(io::ErrorKind::UnexpectedEof);
    let le32 = |at: usize| u32::from_le_bytes(block[at..at + 4].try_into().unwrap());
    if block.len() < 24 {
        return Err(truncated());
    }
    if le32(0) != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not a little-endian usec pcap"));
    }
    let linktype = le32(20);
    if linktype != LINKTYPE_RAW {
        return Err(io::Error::new(io::ErrorKind::InvalidData, format!("unsupported linktype {linktype}")));
    }
    let mut out = Vec::new();
    let mut at = 24;
    while at + 16 <= block.len() {
        let (sec, usec) = (u64::from(le32(at)), u64::from(le32(at + 4)));
        let (incl, orig) = (le32(at + 8), le32(at + 12));
        if incl > 256 * 1024 * 1024 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "implausible record length"));
        }
        at += 16;
        let end = at + incl as usize;
        if end > block.len() {
            return Err(truncated());
        }
        out.push(PcapRecord {
            t: SimTime::from_nanos(sec * 1_000_000_000 + usec * 1_000),
            data: block.slice(at..end),
            orig_len: orig,
        });
        at = end;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use satwatch_netstack::tcp::{TcpFlags, TcpHeader};
    use std::net::Ipv4Addr;

    fn pkt(payload_len: usize) -> Packet {
        Packet::tcp(
            Ipv4Addr::new(10, 1, 1, 1),
            Ipv4Addr::new(198, 18, 0, 1),
            TcpHeader::new(50_000, 443, TcpFlags::PSH_ACK),
            Bytes::from(vec![0xabu8; payload_len]),
        )
    }

    #[test]
    fn write_read_round_trip() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 65_535).unwrap();
        let t1 = SimTime::from_nanos(1_234_567_000);
        let t2 = SimTime::from_secs(99);
        w.write(t1, &pkt(100)).unwrap();
        w.write(t2, &pkt(0)).unwrap();
        assert_eq!(w.packets_written(), 2);
        let recs = read_pcap(&buf[..]).unwrap();
        assert_eq!(recs.len(), 2);
        // microsecond timestamp resolution preserved
        assert_eq!(recs[0].t.as_nanos(), 1_234_567_000);
        assert_eq!(recs[1].t, t2);
        // the full packet parses back
        let p = recs[0].parse().unwrap();
        assert_eq!(p.five_tuple().dst_port, 443);
        assert_eq!(p.payload.len(), 100);
        assert_eq!(recs[0].orig_len as usize, recs[0].data.len());
    }

    #[test]
    fn snaplen_truncates_but_headers_parse() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 64).unwrap();
        w.write(SimTime::from_secs(1), &pkt(1_000)).unwrap();
        let recs = read_pcap(&buf[..]).unwrap();
        assert_eq!(recs[0].data.len(), 64);
        assert_eq!(recs[0].orig_len as usize, 20 + 20 + 1_000);
        // IP+TCP headers survive the snap; payload is short
        let p = recs[0].parse().unwrap();
        assert_eq!(p.five_tuple().src_port, 50_000);
        assert!(p.payload.len() < 1_000);
    }

    #[test]
    fn rejects_garbage_files() {
        assert!(read_pcap(&b"not a pcap at all"[..]).is_err());
        let mut bad = Vec::new();
        {
            let _ = PcapWriter::new(&mut bad, 100).unwrap();
        }
        bad[20] = 1; // mangle linktype
        assert!(read_pcap(&bad[..]).is_err());
    }

    #[test]
    fn truncated_record_is_an_error() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 65_535).unwrap();
        w.write(SimTime::from_secs(1), &pkt(50)).unwrap();
        let whole = buf.len();
        buf.truncate(whole - 10);
        assert!(read_pcap(&buf[..]).is_err());
        assert!(read_pcap(&buf[..20]).is_err(), "file header cut short");
        // a capture that stops inside the next record's header stops there
        buf.resize(whole + 7, 0);
        assert_eq!(read_pcap(&buf[..]).unwrap().len(), 1);
    }

    #[test]
    fn records_share_the_one_block_the_capture_was_read_into() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 96).unwrap();
        for i in 0..50 {
            w.write(SimTime::from_secs(i), &pkt(10 * i as usize)).unwrap();
        }
        let recs = read_pcap(&buf[..]).unwrap();
        assert_eq!(recs.len(), 50);
        // every record's bytes lie inside one allocation the size of the file
        let base = recs[0].data.as_ptr() as usize - (24 + 16);
        for r in &recs {
            let at = r.data.as_ptr() as usize;
            assert!(at >= base && at + r.data.len() <= base + buf.len());
            assert_eq!(r.parse().unwrap().five_tuple().dst_port, 443);
        }
    }
}
