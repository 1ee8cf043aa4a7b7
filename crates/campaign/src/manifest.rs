//! The campaign manifest — `manifest.json` in the campaign directory.
//!
//! The manifest is the *commit point* of every checkpoint: segments,
//! DNS spills, and the state file are written (each atomically) first,
//! and only then is the manifest renamed into place. A campaign
//! directory is therefore always interpretable from its manifest
//! alone; artifacts not referenced by it are leftovers of an
//! interrupted checkpoint and are overwritten or deleted on resume.
//!
//! Serialization is hand-rolled (the workspace has no serde) and the
//! parse side reuses the analytics query DSL's JSON parser. All u64
//! digests/checksums are stored as hex *strings*: the parser's integer
//! type is `i64`, which cannot hold an arbitrary u64 bit pattern.

use crate::CampaignError;
use satwatch_analytics::expr::Json;
use satwatch_scenario::digest::fnv1a;
use satwatch_scenario::ScenarioConfig;
use std::fmt::Write as _;

pub const MANIFEST_VERSION: i64 = 1;

/// One sealed flow segment (`segments/seg-<day>.swseg`).
#[derive(Clone, Debug, PartialEq)]
pub struct SegmentInfo {
    /// The seal ordinal — the segment's position in canonical order.
    /// Named for the time a segment was a day; the interval it covers
    /// is the min/max-ts of its footer.
    pub day: u64,
    pub rows: u64,
    pub bytes: u64,
    /// FNV-1a 64 of the whole segment file.
    pub fnv: u64,
}

/// One sealed DNS spill (`dns/dns-<day>.bin`).
#[derive(Clone, Debug, PartialEq)]
pub struct DnsFileInfo {
    /// The seal ordinal, as for [`SegmentInfo::day`].
    pub day: u64,
    pub records: u64,
    /// FNV-1a 64 of the file body (trailing-checksum format).
    pub fnv: u64,
}

/// Everything a resume needs, plus the final digests once complete.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    pub cfg: ScenarioConfig,
    /// Hash of the config ([`config_hash`]).
    pub config_hash: u64,
    /// Days fully simulated and checkpointed. Because every per-day
    /// RNG stream is forked from `(seed, day)` without consuming
    /// parent state, this one number *is* the complete RNG cursor.
    pub days_completed: u64,
    /// Running FNV-1a over the TSV header + every sealed flow row in
    /// canonical order — the prefix of the final dataset digest.
    pub flow_digest: u64,
    pub flow_rows: u64,
    pub segments: Vec<SegmentInfo>,
    pub dns_files: Vec<DnsFileInfo>,
    /// `(file name, checksum)` of the live checkpoint; `None` once
    /// the campaign is complete (no carry-over remains).
    pub state_file: Option<(String, u64)>,
    pub complete: bool,
    /// Final digests, set when `complete`.
    pub dataset_digest: Option<u64>,
    pub report_digest: Option<u64>,
}

/// Hash of the config: every field, each of which determines the
/// output bytes.
pub fn config_hash(cfg: &ScenarioConfig) -> u64 {
    let ScenarioConfig { seed, customers, days, pep_enabled, african_ground_station, force_operator_dns } = *cfg;
    let fields = format!(
        "seed={seed} customers={customers} days={days} pep={pep_enabled} african_gs={african_ground_station} \
         forced_dns={force_operator_dns}"
    );
    fnv1a(fields.as_bytes())
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

impl Manifest {
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"version\": {MANIFEST_VERSION},");
        let c = &self.cfg;
        let _ = writeln!(
            s,
            "  \"config\": {{\"seed\": {}, \"customers\": {}, \"days\": {}, \"pep_enabled\": {}, \
             \"african_ground_station\": {}, \"force_operator_dns\": {}}},",
            c.seed, c.customers, c.days, c.pep_enabled, c.african_ground_station, c.force_operator_dns
        );
        let _ = writeln!(s, "  \"config_hash\": \"{}\",", hex(self.config_hash));
        let _ = writeln!(s, "  \"days_completed\": {},", self.days_completed);
        let _ = writeln!(s, "  \"flow_digest\": \"{}\",", hex(self.flow_digest));
        let _ = writeln!(s, "  \"flow_rows\": {},", self.flow_rows);
        s.push_str("  \"segments\": [");
        for (i, g) in self.segments.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"day\": {}, \"file\": \"segments/seg-{}.swseg\", \"rows\": {}, \"bytes\": {}, \"fnv\": \"{}\"}}",
                g.day,
                g.day,
                g.rows,
                g.bytes,
                hex(g.fnv)
            );
        }
        s.push_str(if self.segments.is_empty() { "],\n" } else { "\n  ],\n" });
        s.push_str("  \"dns_files\": [");
        for (i, d) in self.dns_files.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"day\": {}, \"file\": \"dns/dns-{}.bin\", \"records\": {}, \"fnv\": \"{}\"}}",
                d.day,
                d.day,
                d.records,
                hex(d.fnv)
            );
        }
        s.push_str(if self.dns_files.is_empty() { "],\n" } else { "\n  ],\n" });
        match &self.state_file {
            Some((file, sum)) => {
                let _ = writeln!(s, "  \"state_file\": {{\"file\": \"{file}\", \"fnv\": \"{}\"}},", hex(*sum));
            }
            None => s.push_str("  \"state_file\": null,\n"),
        }
        match self.dataset_digest {
            Some(d) => {
                let _ = writeln!(s, "  \"dataset_digest\": \"{}\",", hex(d));
            }
            None => s.push_str("  \"dataset_digest\": null,\n"),
        }
        match self.report_digest {
            Some(d) => {
                let _ = writeln!(s, "  \"report_digest\": \"{}\",", hex(d));
            }
            None => s.push_str("  \"report_digest\": null,\n"),
        }
        let _ = writeln!(s, "  \"complete\": {}", self.complete);
        s.push_str("}\n");
        s
    }

    /// Unknown keys are ignored, so a manifest written when the config
    /// had perf knobs, all since removed, still parses; none of them
    /// was ever part of the hash.
    pub fn parse(src: &str) -> Result<Manifest, CampaignError> {
        let j = Json::parse(src).map_err(|e| CampaignError::Corrupt(format!("manifest: {e}")))?;
        let version = get_i64(&j, "version")?;
        if version != MANIFEST_VERSION {
            return Err(CampaignError::Corrupt(format!("manifest: unsupported version {version}")));
        }
        let cj = j.get("config").ok_or_else(|| corrupt("missing config"))?;
        let mut cfg = ScenarioConfig::tiny()
            .with_seed(get_i64(cj, "seed")? as u64)
            .with_customers(get_i64(cj, "customers")? as u32)
            .with_days(get_i64(cj, "days")? as u64);
        if !get_bool(cj, "pep_enabled")? {
            cfg = cfg.without_pep();
        }
        if get_bool(cj, "african_ground_station")? {
            cfg = cfg.with_african_ground_station();
        }
        if get_bool(cj, "force_operator_dns")? {
            cfg = cfg.with_forced_operator_dns();
        }
        let stored_hash = get_hex(&j, "config_hash")?;
        if stored_hash != config_hash(&cfg) {
            return Err(CampaignError::Corrupt("manifest: config_hash does not match the stored config".into()));
        }
        let mut segments = Vec::new();
        for g in get_arr(&j, "segments")? {
            segments.push(SegmentInfo {
                day: get_i64(g, "day")? as u64,
                rows: get_i64(g, "rows")? as u64,
                bytes: get_i64(g, "bytes")? as u64,
                fnv: get_hex(g, "fnv")?,
            });
        }
        let mut dns_files = Vec::new();
        for d in get_arr(&j, "dns_files")? {
            dns_files.push(DnsFileInfo {
                day: get_i64(d, "day")? as u64,
                records: get_i64(d, "records")? as u64,
                fnv: get_hex(d, "fnv")?,
            });
        }
        let state_file = match j.get("state_file") {
            None | Some(Json::Null) => None,
            Some(sj) => Some((get_str(sj, "file")?.to_string(), get_hex(sj, "fnv")?)),
        };
        Ok(Manifest {
            cfg,
            config_hash: stored_hash,
            days_completed: get_i64(&j, "days_completed")? as u64,
            flow_digest: get_hex(&j, "flow_digest")?,
            flow_rows: get_i64(&j, "flow_rows")? as u64,
            segments,
            dns_files,
            state_file,
            complete: get_bool(&j, "complete")?,
            dataset_digest: get_opt_hex(&j, "dataset_digest")?,
            report_digest: get_opt_hex(&j, "report_digest")?,
        })
    }
}

fn corrupt(msg: &str) -> CampaignError {
    CampaignError::Corrupt(format!("manifest: {msg}"))
}

fn get_i64(j: &Json, key: &str) -> Result<i64, CampaignError> {
    match j.get(key) {
        Some(Json::Int(v)) => Ok(*v),
        _ => Err(corrupt(&format!("missing integer field {key:?}"))),
    }
}

fn get_bool(j: &Json, key: &str) -> Result<bool, CampaignError> {
    match j.get(key) {
        Some(Json::Bool(v)) => Ok(*v),
        _ => Err(corrupt(&format!("missing boolean field {key:?}"))),
    }
}

fn get_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, CampaignError> {
    match j.get(key) {
        Some(Json::Str(v)) => Ok(v),
        _ => Err(corrupt(&format!("missing string field {key:?}"))),
    }
}

fn get_hex(j: &Json, key: &str) -> Result<u64, CampaignError> {
    let s = get_str(j, key)?;
    u64::from_str_radix(s, 16).map_err(|_| corrupt(&format!("field {key:?} is not a hex u64")))
}

fn get_opt_hex(j: &Json, key: &str) -> Result<Option<u64>, CampaignError> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(None),
        _ => get_hex(j, key).map(Some),
    }
}

fn get_arr<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], CampaignError> {
    match j.get(key) {
        Some(Json::Arr(v)) => Ok(v),
        _ => Err(corrupt(&format!("missing array field {key:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_through_json() {
        let cfg = ScenarioConfig::tiny().with_customers(44).with_days(3).with_seed(0xfeed);
        let m = Manifest {
            cfg,
            config_hash: config_hash(&cfg),
            days_completed: 2,
            flow_digest: 0xdead_beef_cafe_f00d,
            flow_rows: 12_345,
            segments: vec![
                SegmentInfo { day: 0, rows: 10, bytes: 2_048, fnv: 1 },
                SegmentInfo { day: 1, rows: 0, bytes: 512, fnv: u64::MAX },
            ],
            dns_files: vec![DnsFileInfo { day: 0, records: 7, fnv: 42 }],
            state_file: Some(("state-1.bin".into(), 0x1234)),
            complete: false,
            dataset_digest: None,
            report_digest: None,
        };
        let json = m.to_json();
        for removed in ["threads", "probe_shards", "packet_batching"] {
            assert!(!json.contains(removed), "removed knob {removed} still written: {json}");
        }
        let back = Manifest::parse(&json).unwrap();
        assert_eq!(back, m);

        let done = Manifest {
            state_file: None,
            complete: true,
            dataset_digest: Some(9),
            report_digest: Some(u64::MAX - 1),
            ..m
        };
        let back = Manifest::parse(&done.to_json()).unwrap();
        assert_eq!(back, done);
    }

    /// `old` still resumes: it parses to the knob-free config under the
    /// hash it stored, and what this version writes back differs from
    /// it by `knobs` only.
    fn assert_parses_and_drops(old: &str, knobs: &str) {
        assert!(old.contains(knobs));
        let m = Manifest::parse(old).unwrap();
        assert_eq!(m.cfg, ScenarioConfig::tiny().with_customers(6).with_days(3).with_seed(11));
        assert_eq!(m.config_hash, 0xd691_8795_1bbd_9e86);
        assert_eq!(m.to_json(), old.replace(knobs, ""));
        assert_eq!(Manifest::parse(&m.to_json()).unwrap(), m);
    }

    const BATCHING_KNOBS: &str = r#", "threads": 1, "probe_shards": 2, "packet_batching": true"#;

    /// A manifest exactly as the last version with a batching knob in
    /// the config wrote it (`satwatch campaign --customers 6 --days 3
    /// --seed 11 --shards 2 --abort-after-day 0`).
    const BATCHING_ERA: &str = r#"{
  "version": 1,
  "config": {"seed": 11, "customers": 6, "days": 3, "pep_enabled": true, "african_ground_station": false, "force_operator_dns": false, "threads": 1, "probe_shards": 2, "packet_batching": true},
  "config_hash": "d69187951bbd9e86",
  "days_completed": 1,
  "flow_digest": "55cafed88bf2cf0d",
  "flow_rows": 0,
  "segments": [],
  "dns_files": [
    {"day": 0, "file": "dns/dns-0.bin", "records": 1349, "fnv": "bb2e2f5963eeb7c6"}
  ],
  "state_file": {"file": "state-0.bin", "fnv": "d37aa0ffee83bdef"},
  "dataset_digest": null,
  "report_digest": null,
  "complete": false
}
"#;

    #[test]
    fn manifest_with_a_removed_config_key_still_parses() {
        assert_parses_and_drops(BATCHING_ERA, BATCHING_KNOBS);
    }

    /// The same campaign as the last version with perf knobs at all
    /// wrote it at `--threads 2 --shards 2`: its file differs in the
    /// knobs and in the checksum of the state file beside it, and not
    /// in the hash — the knobs were never part of it.
    #[test]
    fn perf_knobs_do_not_affect_config_hash() {
        let perf_knobs = r#", "threads": 2, "probe_shards": 2"#;
        let perf_era = BATCHING_ERA.replace(BATCHING_KNOBS, perf_knobs).replace("d37aa0ffee83bdef", "584c09605485dfdf");
        assert_parses_and_drops(&perf_era, perf_knobs);
    }

    #[test]
    fn tampered_config_hash_is_rejected() {
        let cfg = ScenarioConfig::tiny();
        let m = Manifest {
            cfg,
            config_hash: config_hash(&cfg),
            days_completed: 0,
            flow_digest: 0,
            flow_rows: 0,
            segments: vec![],
            dns_files: vec![],
            state_file: None,
            complete: false,
            dataset_digest: None,
            report_digest: None,
        };
        let tampered = m.to_json().replace(&format!("\"seed\": {}", cfg.seed), "\"seed\": 777");
        assert!(matches!(Manifest::parse(&tampered), Err(CampaignError::Corrupt(_))));
    }
}
