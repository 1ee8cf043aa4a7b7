//! The campaign store: the one module that touches a campaign
//! directory. It names every file, writes each one whole or not at all
//! ([`write_file`]: a temp file, then a rename), reads each back against
//! its checksum, commits `manifest.json` and removes the state files a
//! commit supersedes. Every error it returns names its file
//! ([`CampaignError::File`]).
//!
//! ```text
//! manifest.json           the commit point: written last, plain JSON
//! state-<day>.bin         probe carry-over and unsealed tail, trailing FNV-1a
//! segments/seg-<k>.swseg  the k-th sealed segment, whole-file FNV-1a
//! dns/dns-<k>.bin         the k-th DNS spill, trailing FNV-1a
//! report.txt              the rendered reports, once complete
//! ```
//!
//! The two checksum placements are pinned by the bytes on disk: a
//! segment's whole-file FNV-1a lives in the manifest alone (its footer
//! holds per-column ones), while a state file or a DNS spill ends in
//! the FNV-1a of everything before it, which the manifest records too.
//! Nothing is fsynced: DESIGN.md §12 "Checkpoint & resume determinism"
//! has the fault contract and the reason.

use crate::codec::{self, DnsSpill};
use crate::manifest::{DnsFileInfo, Manifest, SegmentInfo};
use crate::CampaignError;
use satwatch_analytics::segment::{read_segment_file, write_file, write_segment, FileWriter, SegmentError};
use satwatch_analytics::FlowFrame;
use satwatch_monitor::checkpoint::{CheckpointError, Reader};
use satwatch_monitor::DnsRecord;
use satwatch_scenario::digest::fnv1a;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

const MANIFEST: &str = "manifest.json";
/// The rendered reports of a complete campaign.
pub const REPORT: &str = "report.txt";
const SEGMENTS: &str = "segments";
const DNS: &str = "dns";

/// The `k`-th segment, relative to the campaign directory.
pub fn segment_name(k: u64) -> String {
    format!("{SEGMENTS}/seg-{k}.swseg")
}

/// The `k`-th DNS spill, relative to the campaign directory.
pub fn dns_name(k: u64) -> String {
    format!("{DNS}/dns-{k}.bin")
}

/// The state file of the checkpoint after day `day`.
pub fn state_name(day: u64) -> String {
    format!("state-{day}.bin")
}

/// Why a campaign file could not be used.
#[derive(Debug)]
pub enum FileError {
    Io(io::Error),
    /// It fails its checksum, or (a manifest) it does not hold what the
    /// campaign writes.
    Corrupt(String),
    /// A segment that does not decode.
    Segment(SegmentError),
    /// A state file or DNS spill that passed its checksums but does not
    /// decode, or a state the probe refused.
    Decode(CheckpointError),
    /// A new campaign's manifest that is already there.
    Exists,
}

impl std::fmt::Display for FileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileError::Io(e) => write!(f, "{e}"),
            FileError::Corrupt(why) => write!(f, "{why}"),
            FileError::Segment(e) => write!(f, "{e}"),
            FileError::Decode(e) => write!(f, "{e}"),
            FileError::Exists => write!(f, "a campaign is already here; resume it or pick another directory"),
        }
    }
}

/// `result`, its error naming `path`.
pub(crate) fn named<T>(path: &Path, result: Result<T, FileError>) -> Result<T, CampaignError> {
    result.map_err(|error| CampaignError::File { file: path.to_path_buf(), error })
}

/// Write `body`, then its FNV-1a: the trailer of state and DNS files.
/// Returns the FNV-1a, hashed as the body passes.
pub(crate) fn put_trailed(w: &mut FileWriter, body: &[u8]) -> io::Result<u64> {
    w.write_all(body)?;
    let sum = w.written().1;
    w.write_all(&sum.to_le_bytes()).map(|()| sum)
}

/// Read a file [`put_trailed`] wrote: check the trailer (and `expect`,
/// the manifest's copy) and decode the body, every byte of it.
pub(crate) fn read_trailed<T>(
    path: &Path,
    expect: Option<u64>,
    decode: impl FnOnce(&mut Reader<'_>) -> Result<T, CheckpointError>,
) -> Result<T, FileError> {
    let bytes = std::fs::read(path).map_err(FileError::Io)?;
    let body = bytes.len().checked_sub(8).ok_or_else(|| FileError::Corrupt("shorter than its checksum".into()))?;
    let sum = fnv1a(&bytes[..body]);
    if sum.to_le_bytes() != bytes[body..] {
        return Err(FileError::Corrupt("checksum mismatch".into()));
    }
    if expect.is_some_and(|want| want != sum) {
        return Err(FileError::Corrupt("checksum differs from the manifest".into()));
    }
    let mut r = Reader::new(&bytes[..body]);
    let out = decode(&mut r).map_err(FileError::Decode)?;
    (r.remaining() == 0).then_some(out).ok_or(FileError::Decode(CheckpointError::Corrupt("trailing bytes")))
}

/// A campaign directory.
pub(crate) struct Store {
    pub(crate) dir: PathBuf,
}

impl Store {
    /// The directory of a new campaign, created with its subdirectories
    /// unless it already holds a campaign.
    pub(crate) fn create(dir: &Path) -> Result<Store, CampaignError> {
        let store = Store { dir: dir.to_path_buf() };
        store.on(MANIFEST, |path| if path.exists() { Err(FileError::Exists) } else { Ok(()) })?;
        for sub in [SEGMENTS, DNS] {
            store.on(sub, |path| std::fs::create_dir_all(path).map_err(FileError::Io))?;
        }
        Ok(store)
    }

    /// The manifest last committed.
    pub(crate) fn manifest(&self) -> Result<Manifest, CampaignError> {
        self.read(MANIFEST, |path| Manifest::parse(&std::fs::read_to_string(path).map_err(FileError::Io)?))
    }

    /// Rename `m` into place: the commit point.
    pub(crate) fn commit(&self, m: &Manifest) -> Result<(), CampaignError> {
        self.write(MANIFEST, |w| w.write_all(m.to_json().as_bytes()))
    }

    /// Write `fr` as the `k`-th segment.
    pub(crate) fn write_segment(&self, k: u64, fr: &FlowFrame) -> Result<SegmentInfo, CampaignError> {
        let (bytes, fnv) = self.write(&segment_name(k), |w| write_segment(fr, w).map(|()| w.written()))?;
        Ok(SegmentInfo { day: k, rows: fr.len() as u64, bytes, fnv })
    }

    /// The segment `info` lists, checked against its whole-file FNV-1a
    /// and then column by column.
    pub(crate) fn segment(&self, info: &SegmentInfo) -> Result<FlowFrame, CampaignError> {
        self.read(&segment_name(info.day), |path| read_segment_file(path, Some(info.fnv)).map_err(FileError::Segment))
    }

    /// Write `spill` as the `k`-th DNS spill.
    pub(crate) fn write_dns(&self, k: u64, spill: DnsSpill) -> Result<DnsFileInfo, CampaignError> {
        let (body, records) = spill.finish();
        let fnv = self.write(&dns_name(k), |w| put_trailed(w, &body))?;
        Ok(DnsFileInfo { day: k, records, fnv })
    }

    /// The DNS spill `info` lists, checked against its trailer.
    pub(crate) fn dns(&self, info: &DnsFileInfo) -> Result<Vec<DnsRecord>, CampaignError> {
        self.read(&dns_name(info.day), |path| read_trailed(path, Some(info.fnv), codec::read_dns_body))
    }

    /// Commit day `day` into `m`: the state file, then the manifest
    /// naming it, then the removal of every older state file. Returns
    /// the state file's size.
    pub(crate) fn checkpoint(&self, m: &mut Manifest, day: u64, body: &[u8]) -> Result<u64, CampaignError> {
        let (sum, bytes) = self.write(&state_name(day), |w| Ok((put_trailed(w, body)?, w.written().0)))?;
        (m.days_completed, m.state_file) = (day + 1, Some((state_name(day), sum)));
        self.commit(m)?;
        self.remove_states(day).map(|()| bytes)
    }

    /// The state file `m` names, if any.
    pub(crate) fn state(&self, m: &Manifest) -> Result<Option<codec::State>, CampaignError> {
        let Some((name, sum)) = &m.state_file else { return Ok(None) };
        self.read(name, |path| read_trailed(path, Some(*sum), codec::read_state_body)).map(Some)
    }

    /// Complete `m`: the report, then the manifest, then the removal of
    /// every state file.
    pub(crate) fn complete(&self, m: &Manifest, report: &str) -> Result<(), CampaignError> {
        self.write(REPORT, |w| w.write_all(report.as_bytes()))?;
        self.commit(m)?;
        self.remove_states(m.cfg.days)
    }

    /// Remove the state files of the days before `day` — one, unless a
    /// crash came between a commit and its removal.
    pub(crate) fn remove_states(&self, day: u64) -> Result<(), CampaignError> {
        (0..day).try_for_each(|old| {
            self.on(&state_name(old), |path| match std::fs::remove_file(path) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => Err(FileError::Io(e)),
                _ => Ok(()),
            })
        })
    }

    /// One operation on `name`: `op` is handed its path, and an error
    /// comes back naming it.
    fn on<T>(&self, name: &str, op: impl FnOnce(&Path) -> Result<T, FileError>) -> Result<T, CampaignError> {
        let path = self.dir.join(name);
        #[cfg(test)]
        faults::op(&path);
        let out = named(&path, op(&path))?;
        #[cfg(test)]
        faults::crash(&path)?;
        Ok(out)
    }

    /// Read `name` ([`Store::on`]).
    fn read<T>(&self, name: &str, read: impl FnOnce(&Path) -> Result<T, FileError>) -> Result<T, CampaignError> {
        self.on(name, |path| {
            #[cfg(test)]
            faults::tear(path);
            read(path)
        })
    }

    /// Write `name` whole or not at all: [`write_file`], `fill` handed
    /// the writer.
    fn write<T>(&self, name: &str, fill: impl FnOnce(&mut FileWriter) -> io::Result<T>) -> Result<T, CampaignError> {
        self.on(name, |path| {
            write_file(path, |w| {
                let out = fill(w)?;
                #[cfg(test)]
                faults::cut(w)?;
                Ok(out)
            })
            .map_err(FileError::Io)
        })
    }
}

/// A plan of one fault at one store operation, for tests to hold a
/// resume to the clean run. Each thread has its own plan, and the ops
/// it has seen since [`arm`](faults::arm) are recorded.
#[cfg(test)]
pub(crate) mod faults {
    use super::*;
    use std::cell::RefCell;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum Fault {
        /// The write fails before any byte of it stays.
        Enospc,
        /// The temp file keeps a prefix, then the write fails.
        ShortWrite,
        /// The process stops right after the operation.
        Crash,
        /// The file read loses its last byte first.
        TornTail,
    }

    /// What an operation did to its file.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum Kind {
        Other,
        Read,
        Write,
    }

    impl Kind {
        /// The faults that apply to an operation of this kind.
        pub(crate) fn faults(self) -> &'static [Fault] {
            match self {
                Kind::Other => &[Fault::Crash],
                Kind::Read => &[Fault::Crash, Fault::TornTail],
                Kind::Write => &[Fault::Enospc, Fault::ShortWrite, Fault::Crash],
            }
        }
    }

    #[derive(Default)]
    struct Plan {
        at: Option<(usize, Fault)>,
        ops: Vec<(PathBuf, Kind)>,
        crashed: bool,
    }

    thread_local! {
        static PLAN: RefCell<Plan> = RefCell::default();
    }

    /// Plan `fault` at operation `at` from now (none: run clean) and
    /// start recording operations afresh.
    pub(crate) fn arm(fault: Option<(usize, Fault)>) {
        PLAN.with_borrow_mut(|p| *p = Plan { at: fault, ..Plan::default() });
    }

    /// The operations since [`arm`].
    pub(crate) fn ops() -> Vec<(PathBuf, Kind)> {
        PLAN.with_borrow(|p| p.ops.clone())
    }

    /// Whether the planned crash has happened.
    pub(crate) fn crashed() -> bool {
        PLAN.with_borrow(|p| p.crashed)
    }

    /// The fault planned for the current operation, marking it `kind`.
    fn now(kind: Kind) -> Option<Fault> {
        PLAN.with_borrow_mut(|p| {
            let current = p.ops.len() - 1;
            if kind != Kind::Other {
                p.ops[current].1 = kind;
            }
            p.at.filter(|&(at, _)| at == current).map(|(_, fault)| fault)
        })
    }

    pub(super) fn op(path: &Path) {
        PLAN.with_borrow_mut(|p| p.ops.push((path.to_path_buf(), Kind::Other)));
    }

    pub(super) fn tear(path: &Path) {
        if now(Kind::Read) == Some(Fault::TornTail) {
            let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
            file.set_len(file.metadata().unwrap().len() - 1).unwrap();
        }
    }

    pub(super) fn cut(w: &mut FileWriter) -> io::Result<()> {
        let keep = match now(Kind::Write) {
            Some(Fault::Enospc) => 0,
            Some(Fault::ShortWrite) => w.written().0 / 2,
            _ => return Ok(()),
        };
        w.file()?.set_len(keep)?;
        Err(io::Error::from_raw_os_error(28)) // ENOSPC
    }

    pub(super) fn crash(path: &Path) -> Result<(), CampaignError> {
        match now(Kind::Other) {
            Some(Fault::Crash) => {
                PLAN.with_borrow_mut(|p| p.crashed = true);
                named(path, Err(FileError::Io(io::Error::other("injected crash"))))
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::faults::{self, Fault, Kind};
    use super::*;
    use crate::{Campaign, RunOptions};
    use proptest::TestRng;
    use satwatch_scenario::ScenarioConfig;
    use std::collections::BTreeMap;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swcampaign-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Every file under `dir` with its bytes, by its path below `dir`.
    fn contents(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        let mut files = BTreeMap::new();
        let mut pending = vec![dir.to_path_buf()];
        while let Some(at) = pending.pop() {
            for entry in std::fs::read_dir(&at).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    pending.push(path);
                } else {
                    files.insert(path.strip_prefix(dir).unwrap().to_path_buf(), std::fs::read(&path).unwrap());
                }
            }
        }
        files
    }

    /// Write `files` (as [`contents`] lists them) into `dir`.
    fn restore(dir: &Path, files: &BTreeMap<PathBuf, Vec<u8>>) {
        for (name, bytes) in files {
            let path = dir.join(name);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, bytes).unwrap();
        }
    }

    type Digests = (Option<u64>, Option<u64>);

    /// The run a fault interrupts, in two parts: create the campaign and
    /// run it to the day-0 checkpoint, then resume it and run it to
    /// completion — so that it reads back every kind of file a resume
    /// reads.
    fn first_part(dir: &Path, cfg: ScenarioConfig) -> Result<(), CampaignError> {
        Campaign::create(dir, cfg)?.run(&RunOptions { abort_after_day: Some(0), ..RunOptions::default() })?;
        Ok(())
    }

    fn second_part(dir: &Path) -> Result<Digests, CampaignError> {
        let out = Campaign::resume(dir)?.run(&RunOptions::default())?;
        Ok((out.dataset_digest, out.report_digest))
    }

    /// What starting again after a failed or crashed run does: resume
    /// the campaign (create it, if its first manifest never committed)
    /// and run it to completion.
    fn restart(dir: &Path, cfg: ScenarioConfig) -> Result<Digests, CampaignError> {
        let mut c = match dir.join(MANIFEST).exists() {
            true => Campaign::resume(dir)?,
            false => Campaign::create(dir, cfg)?,
        };
        let out = c.run(&RunOptions::default())?;
        Ok((out.dataset_digest, out.report_digest))
    }

    /// The clean run of both parts in `dir`: the store operations it
    /// made, how many of them the first part made and the files it left,
    /// and the digests and files of the whole.
    struct Clean {
        ops: Vec<(PathBuf, Kind)>,
        first_ops: usize,
        first_files: BTreeMap<PathBuf, Vec<u8>>,
        digests: Digests,
        files: BTreeMap<PathBuf, Vec<u8>>,
    }

    impl Clean {
        fn of(dir: &Path, cfg: ScenarioConfig) -> Clean {
            let _ = std::fs::remove_dir_all(dir);
            faults::arm(None);
            first_part(dir, cfg).unwrap();
            let (first_ops, first_files) = (faults::ops().len(), contents(dir));
            let digests = second_part(dir).unwrap();
            Clean { ops: faults::ops(), first_ops, first_files, digests, files: contents(dir) }
        }
    }

    /// Hold the clean run of `cfg` in `dir`, with `fault` at store
    /// operation `at`, to the contract: the run fails naming the
    /// operation's file (or stops at the crash); then a torn tail is
    /// left as the error it is, and anything else restarts to the clean
    /// run's digests and files — file names and bytes. A fault in the
    /// second part starts from the files the first part left.
    fn check(dir: &Path, cfg: ScenarioConfig, clean: &Clean, at: usize, fault: Fault) {
        let (file, kind) = &clean.ops[at];
        let case = format!("{cfg:?}: {fault:?} at store operation {at}, {kind:?} {}", file.display());
        let _ = std::fs::remove_dir_all(dir);
        let err = if at < clean.first_ops {
            faults::arm(Some((at, fault)));
            first_part(dir, cfg).map(|_| None)
        } else {
            restore(dir, &clean.first_files);
            faults::arm(Some((at - clean.first_ops, fault)));
            second_part(dir).map(Some)
        }
        .expect_err(&case);
        let crashed = faults::crashed();
        faults::arm(None);
        assert!(matches!(&err, CampaignError::File { file: f, .. } if f == file), "{case}: {err}");
        assert!(err.to_string().starts_with(&format!("campaign file {}: ", file.display())), "{case}: {err}");
        assert_eq!(crashed, fault == Fault::Crash, "{case}");
        if fault == Fault::TornTail {
            return;
        }
        let digests = restart(dir, cfg).unwrap_or_else(|e| panic!("{case}: the restart failed: {e}"));
        assert_eq!(digests, clean.digests, "{case}: the digests");
        let files = contents(dir);
        let names = |files: &BTreeMap<PathBuf, Vec<u8>>| files.keys().cloned().collect::<Vec<_>>();
        assert_eq!(names(&files), names(&clean.files), "{case}: the file names");
        for (name, bytes) in &files {
            assert!(*bytes == clean.files[name], "{case}: the bytes of {}", name.display());
        }
    }

    /// The fault contract over every store operation of one small
    /// campaign's clean run, with every fault that applies to it:
    /// ENOSPC, a short write or a crash at each write — of every kind
    /// of file, so an injected write error names a manifest, segment,
    /// DNS spill, state file and report alike — a crash or a torn
    /// tail at each read, a crash after each other operation. One day
    /// keeps it quick (a simulated day is most of a second in a debug
    /// build); the drawn property below runs up to three. The clean
    /// run's files are the uninterrupted run's.
    #[test]
    fn every_fault_at_every_store_operation_fails_naming_its_file_or_resumes_to_the_clean_run() {
        let cfg = ScenarioConfig::tiny().with_customers(2).with_days(1).with_seed(3);
        let dir = tmp_dir("uninterrupted");
        let mut c = Campaign::create(&dir, cfg).unwrap();
        let out = c.run(&RunOptions::default()).unwrap();
        let uninterrupted = contents(&dir);
        std::fs::remove_dir_all(&dir).unwrap();

        let dir = tmp_dir("faults");
        let clean = Clean::of(&dir, cfg);
        assert_eq!(clean.digests, (out.dataset_digest, out.report_digest));
        assert!(clean.files == uninterrupted, "a stop and a resume leave the uninterrupted run's files");
        assert!(clean.files.contains_key(Path::new(REPORT)) && clean.files.len() == 6, "{:?}", clean.files.keys());
        for (name, kind) in [
            (MANIFEST, Kind::Write),
            (&segment_name(0), Kind::Write),
            (&dns_name(0), Kind::Write),
            (&state_name(0), Kind::Write),
            (REPORT, Kind::Write),
            (MANIFEST, Kind::Read),
            (&segment_name(0), Kind::Read),
            (&dns_name(0), Kind::Read),
            (&state_name(0), Kind::Read),
        ] {
            assert!(clean.ops.contains(&(dir.join(name), kind)), "the sequence has a {kind:?} of {name}");
        }
        for (at, (_, kind)) in clean.ops.iter().enumerate() {
            for &fault in kind.faults() {
                check(&dir, cfg, &clean, at, fault);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Cases of the drawn property: a handful in a plain `cargo test`,
    /// `PROPTEST_CASES` when it is set (CI's release step sets 256).
    fn drawn_cases() -> u32 {
        std::env::var_os("PROPTEST_CASES").map_or(4, |_| proptest::test_runner::cases())
    }

    /// The same contract at a drawn seed, 2–8 customers, 1–3 days, store
    /// operation and fault.
    #[test]
    fn a_drawn_fault_fails_naming_its_file_or_resumes_to_the_clean_run() {
        let seed = proptest::test_runner::seed_for("a_drawn_fault_fails_naming_its_file_or_resumes_to_the_clean_run");
        let dir = tmp_dir("drawn");
        for case in 0..drawn_cases() {
            let mut rng = TestRng::new(seed ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let cfg = ScenarioConfig::tiny()
                .with_seed(rng.next_u64())
                .with_customers(2 + rng.below(7) as u32)
                .with_days(1 + rng.below(3));
            let clean = Clean::of(&dir, cfg);
            let at = rng.below(clean.ops.len() as u64) as usize;
            let faults = clean.ops[at].1.faults();
            check(&dir, cfg, &clean, at, faults[rng.below(faults.len() as u64) as usize]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
