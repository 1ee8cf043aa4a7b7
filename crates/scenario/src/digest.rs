//! Canonical dataset digest: one `u64` over every byte an analyst
//! would consume (the `simulate` TSV flow log plus the DNS log
//! fields). Shared by the golden byte-identity test, the telemetry
//! on/off determinism test, the bench JSON, and the
//! `golden_digest` example — all four must hash the same bytes or
//! "identical digest" stops meaning "identical dataset".

use crate::run::Dataset;
use satwatch_monitor::record::{encode_dns_head, push_answers, write_flows};
use satwatch_monitor::tsv::write_rows;
use satwatch_monitor::DnsRecord;
use std::io::{self, Write};

/// The FNV-1a 64-bit offset basis — the hash state before any byte.
pub const FNV1A_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV1A_INIT, bytes)
}

/// Fold more bytes into an FNV-1a 64 state. FNV is a plain byte fold,
/// so `fnv1a_update(fnv1a_update(INIT, a), b) == fnv1a(a ++ b)` —
/// which is what lets the campaign engine hash the dataset
/// incrementally, day by day, and still land on the exact
/// [`dataset_digest`] value of the equivalent batch run.
pub fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64 as a byte sink: the log writers hand it one block at a
/// time, so a digest never holds the serialized dataset — only the
/// writer's 64 KiB buffer. Wrap a saved state to resume a fold.
pub struct Fnv1aSink(pub u64);

impl Write for Fnv1aSink {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.0 = fnv1a_update(self.0, bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Serialize DNS records exactly as [`dataset_digest`] hashes them:
/// the DNS log's columns, with the answers as `[a, b]`.
pub fn write_dns_lines<W: Write>(w: &mut W, dns: &[DnsRecord]) -> io::Result<()> {
    write_rows(w, None, dns, |b, d| {
        encode_dns_head(b, d);
        b.push(b'[');
        push_answers(b, &d.answers, b", ");
        b.extend_from_slice(b"]\n");
    })
}

/// Digest of the full serialized dataset (flow records in the
/// `simulate` log format, then the DNS transaction log).
pub fn dataset_digest(ds: &Dataset) -> u64 {
    let mut h = Fnv1aSink(FNV1A_INIT);
    write_flows(&mut h, &ds.flows).and_then(|()| write_dns_lines(&mut h, &ds.dns)).expect("hashing cannot fail");
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // reference values for the standard FNV-1a 64 parameters
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    /// The `writeln!` body `write_dns_lines` replaced.
    fn dns_line_oracle(w: &mut Vec<u8>, d: &DnsRecord) {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{:?}",
            d.client,
            d.resolver,
            d.query,
            d.ts.as_nanos(),
            d.response_ms.map_or("-".into(), |v| format!("{v:.3}")),
            d.answers,
        )
        .unwrap();
    }

    #[test]
    fn dns_lines_match_the_fmt_oracle_and_fold_in_blocks() {
        let mut dns = crate::run(crate::ScenarioConfig::tiny().with_customers(8)).dns;
        // the shapes a run may not happen to produce: unanswered, and
        // no / several addresses
        let mut odd = dns[0].clone();
        (odd.response_ms, odd.answers) = (None, Vec::new());
        dns.push(odd.clone());
        (odd.response_ms, odd.answers) =
            (Some(0.0625), vec![[1, 2, 3, 4].into(), [0, 0, 0, 0].into(), [255; 4].into()]);
        dns.push(odd);
        let mut want = Vec::new();
        dns.iter().for_each(|d| dns_line_oracle(&mut want, d));
        assert!(want.len() > 2 * satwatch_monitor::tsv::BLOCK, "several blocks");
        let mut got = Vec::new();
        write_dns_lines(&mut got, &dns).unwrap();
        assert_eq!(got, want);
        // folding block by block lands on the one-shot hash
        let mut h = Fnv1aSink(FNV1A_INIT);
        write_dns_lines(&mut h, &dns).unwrap();
        assert_eq!(h.0, fnv1a(&want));
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        let cfg = crate::ScenarioConfig::tiny().with_customers(8);
        let a = dataset_digest(&crate::run(cfg));
        let b = dataset_digest(&crate::run(cfg));
        assert_eq!(a, b);
        let c = dataset_digest(&crate::run(cfg.with_seed(7)));
        assert_ne!(a, c);
    }
}
