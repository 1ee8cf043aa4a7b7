//! Child processes: every measured run is a fresh child, reaped with
//! `wait4` so its CPU time and peak RSS come from the kernel's own
//! accounting, plus the file helpers the output checks need.

use satwatch_scenario::digest::{fnv1a_update, FNV1A_INIT};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// What the kernel accounted to one reaped child. The default stands
/// for a child that could not be run or read at all.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChildUsage {
    /// Spawn to exit, as the parent saw it.
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    /// Peak resident set, bytes. The kernel folds the spawning
    /// process's own peak into the child's at `exec`, so the harness
    /// parent stays small: it streams files, never loads them.
    pub max_rss_bytes: u64,
    /// Exit code; `None` when a signal killed the child.
    pub exit_code: Option<i32>,
}

impl ChildUsage {
    pub fn ok(&self) -> bool {
        self.exit_code == Some(0)
    }
}

#[repr(C)]
#[derive(Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets: two timevals and
/// fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Run `program args…` in directory `cwd` to completion, with stdout
/// and stderr sent to the two files, and return its resource usage.
///
/// The harness names the child's files relative to `cwd`: satwatch's
/// peak RSS moves by up to 20 % with the *length* of a path argument
/// (a path string that crosses an allocator size class shifts every
/// later allocation), and a checkout's location or a pid's digit count
/// must not decide `rss_bytes_per_flow`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn run_child(
    program: &Path,
    args: &[String],
    cwd: &Path,
    stdout: &Path,
    stderr: &Path,
) -> std::io::Result<ChildUsage> {
    let out = std::fs::File::create(stdout)?;
    let err = std::fs::File::create(stderr)?;
    let t0 = Instant::now();
    let child =
        Command::new(program).args(args).current_dir(cwd).stdin(Stdio::null()).stdout(out).stderr(err).spawn()?;
    let pid = i32::try_from(child.id()).expect("a pid fits an i32");
    let mut status = 0i32;
    let mut ru =
        Rusage { utime: Timeval { sec: 0, usec: 0 }, stime: Timeval { sec: 0, usec: 0 }, maxrss_kib: 0, rest: [0; 13] };
    let reaped = loop {
        // SAFETY: `wait4` writes one `int` and one `struct rusage`
        // through the two pointers; both point at live, writable,
        // correctly laid out locals (`Rusage` mirrors the 64-bit Linux
        // layout). `pid` is our own unreaped child: `child` is never
        // waited on through std, and dropping it neither reaps nor kills.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == -1 && std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted {
            continue;
        }
        break r;
    };
    let wall_s = t0.elapsed().as_secs_f64();
    drop(child);
    if reaped != pid {
        return Err(std::io::Error::last_os_error());
    }
    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    // WIFEXITED / WEXITSTATUS
    let exit_code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(ChildUsage {
        wall_s,
        user_s: secs(ru.utime),
        sys_s: secs(ru.stime),
        max_rss_bytes: u64::try_from(ru.maxrss_kib).unwrap_or(0) * 1024,
        exit_code,
    })
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn run_child(_: &Path, _: &[String], _: &Path, _: &Path, _: &Path) -> std::io::Result<ChildUsage> {
    Err(std::io::Error::new(std::io::ErrorKind::Unsupported, "satbench reads child rusage through Linux wait4"))
}

/// FNV-1a 64 of a file, streamed through a small buffer.
pub fn fnv_file(path: &Path) -> std::io::Result<u64> {
    let mut f = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 1 << 16];
    let mut h = FNV1A_INIT;
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            return Ok(h);
        }
        h = fnv1a_update(h, &buf[..n]);
    }
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() { dir_bytes(&entry.path())? } else { meta.len() };
    }
    Ok(total)
}

/// The two binaries and the scratch directory, all inside the cargo
/// target directory the harness itself was built into (ignored by
/// git, inside the checkout).
pub struct Env {
    pub satwatch: PathBuf,
    pub satbench: PathBuf,
    pub work: PathBuf,
}

impl Env {
    pub fn locate() -> Result<Env, String> {
        let satbench = std::env::current_exe().map_err(|e| format!("cannot locate satbench: {e}"))?;
        let bin_dir = satbench.parent().ok_or("satbench has no parent directory")?;
        let satwatch = bin_dir.join("satwatch");
        if !satwatch.is_file() {
            return Err(format!(
                "{} not found: build it with `cargo build --release -p satwatch-cli` into the same target directory (benchmark/run.sh does)",
                satwatch.display()
            ));
        }
        // <target>/release/satbench -> <target>/satbench-work
        let work = bin_dir.parent().unwrap_or(bin_dir).join("satbench-work");
        Ok(Env { satwatch, satbench: satbench.clone(), work })
    }

    /// A fresh, empty directory under the scratch root.
    pub fn fresh_dir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.work.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_usage_and_file_helpers() {
        let dir = std::env::temp_dir().join(format!("satbench-proc-test-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        let (out, err) = (dir.join("out"), dir.join("sub/err"));
        let sh = Path::new("/bin/sh");
        let ok = run_child(sh, &["-c".into(), "printf hello; printf oops >&2; : > sub/made".into()], &dir, &out, &err)
            .unwrap();
        assert!(ok.ok() && ok.wall_s > 0.0 && ok.max_rss_bytes > 0, "{ok:?}");
        assert_eq!(std::fs::read_to_string(&out).unwrap(), "hello");
        assert_eq!(std::fs::read_to_string(&err).unwrap(), "oops");
        assert!(dir.join("sub/made").is_file(), "the child ran in the directory it was given");
        assert_eq!(fnv_file(&out).unwrap(), satwatch_scenario::digest::fnv1a(b"hello"));
        assert_eq!(dir_bytes(&dir).unwrap(), 9);
        let failed = run_child(sh, &["-c".into(), "exit 3".into()], &dir, &out, &err).unwrap();
        assert_eq!(failed.exit_code, Some(3));
        let killed = run_child(sh, &["-c".into(), "kill -9 $$".into()], &dir, &out, &err).unwrap();
        assert_eq!(killed.exit_code, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
