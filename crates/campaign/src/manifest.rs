//! The campaign manifest — `manifest.json` in the campaign directory.
//!
//! The manifest is the *commit point* of every checkpoint: segments,
//! DNS spills, and the state file are written (each atomically) first,
//! and only then is the manifest renamed into place (the store,
//! [`crate::store`], does all of it). A campaign directory is therefore
//! always interpretable from its manifest alone; artifacts not
//! referenced by it are leftovers of an interrupted checkpoint and are
//! overwritten or deleted on resume.
//!
//! [`Manifest::parse`] refuses a manifest the campaign could not have
//! written: a negative or oversized number, segment or DNS ordinals
//! other than `0..n`, more days completed than the campaign has, a
//! state file other than the store's name for the last day completed,
//! or a file cut short of its closing line.
//!
//! Serialization is hand-rolled (the workspace has no serde) and the
//! parse side reuses the analytics query DSL's JSON parser. All u64
//! digests/checksums are stored as hex *strings*: the parser's integer
//! type is `i64`, which cannot hold an arbitrary u64 bit pattern. The
//! seed is stored as its bits read as an `i64`: the decimal seed below
//! 2⁶³, negative above.

use crate::store::{dns_name, segment_name, state_name, FileError};
use satwatch_analytics::expr::Json;
use satwatch_scenario::digest::fnv1a;
use satwatch_scenario::ScenarioConfig;
use std::fmt::Write as _;

pub const MANIFEST_VERSION: i64 = 1;

/// One sealed flow segment ([`segment_name`]).
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

/// One sealed DNS spill ([`dns_name`]).
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
        let seed = c.seed as i64; // the parser's integer type
        let _ = writeln!(
            s,
            "  \"config\": {{\"seed\": {}, \"customers\": {}, \"days\": {}, \"pep_enabled\": {}, \
             \"african_ground_station\": {}, \"force_operator_dns\": {}}},",
            seed, c.customers, c.days, c.pep_enabled, c.african_ground_station, c.force_operator_dns
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
                "\n    {{\"day\": {}, \"file\": \"{}\", \"rows\": {}, \"bytes\": {}, \"fnv\": \"{}\"}}",
                g.day,
                segment_name(g.day),
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
                "\n    {{\"day\": {}, \"file\": \"{}\", \"records\": {}, \"fnv\": \"{}\"}}",
                d.day,
                dns_name(d.day),
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
    /// was ever part of the hash. What the campaign could not have
    /// written is refused (the module doc lists it).
    pub fn parse(src: &str) -> Result<Manifest, FileError> {
        // the last line of what `to_json` writes: a manifest without it
        // lost its tail
        if !src.ends_with("}\n") {
            return Err(corrupt("cut short"));
        }
        let j = Json::parse(src).map_err(|e| corrupt(&e.to_string()))?;
        let version: i64 = get_int(&j, "version")?;
        if version != MANIFEST_VERSION {
            return Err(corrupt(&format!("unsupported version {version}")));
        }
        let cj = j.get("config").ok_or_else(|| corrupt("missing config"))?;
        let mut cfg = ScenarioConfig::tiny()
            .with_seed(get_int::<i64>(cj, "seed")? as u64)
            .with_customers(get_int(cj, "customers")?)
            .with_days(get_int(cj, "days")?);
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
            return Err(corrupt("config_hash does not match the stored config"));
        }
        let mut segments = Vec::new();
        for g in get_arr(&j, "segments")? {
            let (day, rows, bytes) = (get_int(g, "day")?, get_int(g, "rows")?, get_int(g, "bytes")?);
            segments.push(SegmentInfo { day, rows, bytes, fnv: get_hex(g, "fnv")? });
        }
        let mut dns_files = Vec::new();
        for d in get_arr(&j, "dns_files")? {
            let (day, records) = (get_int(d, "day")?, get_int(d, "records")?);
            dns_files.push(DnsFileInfo { day, records, fnv: get_hex(d, "fnv")? });
        }
        let (n_segments, n_dns) = (segments.len() as u64, dns_files.len() as u64);
        if !segments.iter().map(|g| g.day).eq(0..n_segments) || !dns_files.iter().map(|d| d.day).eq(0..n_dns) {
            return Err(corrupt("segment or DNS spill ordinals other than 0, 1, 2, …"));
        }
        let state_file = match j.get("state_file") {
            None | Some(Json::Null) => None,
            Some(sj) => Some((get_str(sj, "file")?.to_string(), get_hex(sj, "fnv")?)),
        };
        let (days_completed, complete) = (get_int(&j, "days_completed")?, get_bool(&j, "complete")?);
        if days_completed > cfg.days {
            return Err(corrupt(&format!("{days_completed} of {} days completed", cfg.days)));
        }
        // a checkpoint names the state file of its last day; a new or a
        // complete campaign has none
        let want = (days_completed > 0 && !complete).then(|| state_name(days_completed - 1));
        let got = state_file.as_ref().map(|(file, _)| file);
        if got != want.as_ref() {
            return Err(corrupt(&format!("state file {got:?} after {days_completed} days completed, not {want:?}")));
        }
        Ok(Manifest {
            cfg,
            config_hash: stored_hash,
            days_completed,
            flow_digest: get_hex(&j, "flow_digest")?,
            flow_rows: get_int(&j, "flow_rows")?,
            segments,
            dns_files,
            state_file,
            complete,
            dataset_digest: get_opt_hex(&j, "dataset_digest")?,
            report_digest: get_opt_hex(&j, "report_digest")?,
        })
    }
}

fn corrupt(msg: &str) -> FileError {
    FileError::Corrupt(format!("manifest: {msg}"))
}

/// An integer field, refused unless `T` holds it.
fn get_int<T: TryFrom<i64>>(j: &Json, key: &str) -> Result<T, FileError> {
    match j.get(key) {
        Some(Json::Int(v)) => T::try_from(*v).map_err(|_| corrupt(&format!("field {key:?} out of range: {v}"))),
        _ => Err(corrupt(&format!("missing integer field {key:?}"))),
    }
}

fn get_bool(j: &Json, key: &str) -> Result<bool, FileError> {
    match j.get(key) {
        Some(Json::Bool(v)) => Ok(*v),
        _ => Err(corrupt(&format!("missing boolean field {key:?}"))),
    }
}

fn get_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, FileError> {
    match j.get(key) {
        Some(Json::Str(v)) => Ok(v),
        _ => Err(corrupt(&format!("missing string field {key:?}"))),
    }
}

fn get_hex(j: &Json, key: &str) -> Result<u64, FileError> {
    let s = get_str(j, key)?;
    u64::from_str_radix(s, 16).map_err(|_| corrupt(&format!("field {key:?} is not a hex u64")))
}

fn get_opt_hex(j: &Json, key: &str) -> Result<Option<u64>, FileError> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(None),
        _ => get_hex(j, key).map(Some),
    }
}

fn get_arr<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], FileError> {
    match j.get(key) {
        Some(Json::Arr(v)) => Ok(v),
        _ => Err(corrupt(&format!("missing array field {key:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignError;

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
        assert!(matches!(Manifest::parse(&tampered), Err(FileError::Corrupt(_))));
    }

    /// Two of three days run: two segments, two DNS spills and the state
    /// file of day 1.
    fn mid_campaign() -> Manifest {
        let cfg = ScenarioConfig::tiny().with_customers(5).with_days(3).with_seed(7);
        Manifest {
            cfg,
            config_hash: config_hash(&cfg),
            days_completed: 2,
            flow_digest: 1,
            flow_rows: 20,
            segments: vec![
                SegmentInfo { day: 0, rows: 10, bytes: 99, fnv: 2 },
                SegmentInfo { day: 1, rows: 10, bytes: 99, fnv: 3 },
            ],
            dns_files: vec![DnsFileInfo { day: 0, records: 4, fnv: 4 }, DnsFileInfo { day: 1, records: 4, fnv: 5 }],
            state_file: Some((state_name(1), 6)),
            complete: false,
            dataset_digest: None,
            report_digest: None,
        }
    }

    /// `json` with its `config_hash` recomputed for `cfg` — what the old
    /// `as` casts made of the config it holds — so that the hash does
    /// not refuse it.
    fn rehashed(json: &str, cfg: ScenarioConfig) -> String {
        json.replace(&hex(config_hash(&mid_campaign().cfg)), &hex(config_hash(&cfg)))
    }

    /// `json` is refused as a manifest the campaign could not have
    /// written, by `parse` and by a resume, whose error names the file.
    /// Returns the message.
    fn refused(json: &str) -> String {
        assert!(matches!(Manifest::parse(json), Err(FileError::Corrupt(_))), "{json}");
        static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("swcampaign-manifest-{}-{case}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("manifest.json");
        std::fs::write(&file, json).unwrap();
        let err = crate::Campaign::resume(&dir).err().expect("refused");
        assert!(matches!(&err, CampaignError::File { file: f, error: FileError::Corrupt(_) } if *f == file), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
        let msg = err.to_string();
        assert!(msg.starts_with(&format!("campaign file {}: manifest: ", file.display())), "{msg}");
        msg
    }

    #[test]
    fn the_mid_campaign_manifest_is_one_the_campaign_writes() {
        let m = mid_campaign();
        assert_eq!(Manifest::parse(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn negative_customers_are_refused() {
        let json = mid_campaign().to_json().replace("\"customers\": 5", "\"customers\": -1");
        let msg = refused(&rehashed(&json, mid_campaign().cfg.with_customers(u32::MAX)));
        assert!(msg.contains("\"customers\" out of range"), "{msg}");
    }

    #[test]
    fn negative_days_are_refused() {
        let json = mid_campaign().to_json().replace("\"days\": 3", "\"days\": -1");
        let msg = refused(&rehashed(&json, mid_campaign().cfg.with_days(u64::MAX)));
        assert!(msg.contains("\"days\" out of range"), "{msg}");
    }

    /// A segment listed twice passes its checksum twice and would be
    /// folded twice; so would a DNS spill.
    #[test]
    fn ordinals_other_than_0_to_n_are_refused() {
        let json = mid_campaign().to_json();
        for (from, to) in [
            ("\"day\": 1, \"file\": \"segments", "\"day\": 0, \"file\": \"segments"),
            ("\"day\": 1, \"file\": \"dns", "\"day\": 0, \"file\": \"dns"),
            ("\"day\": 0, \"file\": \"dns", "\"day\": 2, \"file\": \"dns"),
        ] {
            assert!(json.contains(from));
            let msg = refused(&json.replace(from, to));
            assert!(msg.contains("ordinals"), "{msg}");
        }
    }

    #[test]
    fn more_days_completed_than_the_campaign_has_are_refused() {
        let m = Manifest { days_completed: 4, state_file: Some((state_name(3), 6)), ..mid_campaign() };
        assert!(refused(&m.to_json()).contains("4 of 3 days completed"));
    }

    /// `resume` joins the state file's name to the directory: only the
    /// store's name for the last day completed is taken.
    #[test]
    fn a_state_file_other_than_the_last_days_is_refused() {
        for file in ["../x.bin", "state-0.bin", "state-2.bin"] {
            let m = Manifest { state_file: Some((file.into(), 6)), ..mid_campaign() };
            assert!(refused(&m.to_json()).contains(&format!("state file Some(\"{file}\")")));
        }
        for (days_completed, complete, state_file) in
            [(0, false, Some(state_name(0))), (2, false, None), (3, true, Some(state_name(2)))]
        {
            let m = Manifest { days_completed, complete, state_file: state_file.map(|f| (f, 6)), ..mid_campaign() };
            refused(&m.to_json());
        }
    }

    #[test]
    fn a_manifest_without_its_last_line_is_refused() {
        let json = mid_campaign().to_json();
        for cut in 1..=2 {
            assert!(refused(&json[..json.len() - cut]).ends_with("manifest: cut short"));
        }
    }

    /// The seed is stored as its bits read as an `i64`, so a seed past
    /// `i64::MAX` resumes (it was written as a decimal the JSON parser
    /// reads as a float, and never resumed).
    #[test]
    fn a_seed_past_i64_max_round_trips() {
        for seed in [u64::MAX, 1 << 63, (1 << 63) - 1] {
            let cfg = ScenarioConfig::tiny().with_seed(seed);
            let m =
                Manifest { cfg, config_hash: config_hash(&cfg), days_completed: 0, state_file: None, ..mid_campaign() };
            assert_eq!(Manifest::parse(&m.to_json()).unwrap(), m);
        }
    }
}
