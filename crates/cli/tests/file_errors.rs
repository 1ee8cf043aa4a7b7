//! Every file a command cannot read or write is named in its error:
//! a bare `No such file or directory (os error 2)` does not say which
//! of a command's files it was.

use std::path::PathBuf;
use std::process::Command;

/// A scratch directory holding `plain`, a regular file: a path under it
/// fails with ENOTDIR, whether created as a file or as a directory.
/// `test` keeps the directories of tests running at once apart.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("satwatch-file-errors-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("plain"), "not a directory\n").unwrap();
        Scratch(dir)
    }

    fn path(&self, rel: &str) -> String {
        self.0.join(rel).to_str().unwrap().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Run `satwatch args`, expect it to fail, and return its stderr.
fn fails(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_satwatch")).args(args).output().expect("satwatch starts");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!out.status.success(), "{args:?} succeeded: {stderr}");
    stderr
}

fn error_line(stderr: &str) -> &str {
    stderr.lines().find(|l| l.starts_with("error: ")).unwrap_or_else(|| panic!("no error line in {stderr:?}"))
}

#[test]
fn every_file_error_names_its_file() {
    let s = Scratch::new("names");
    let logs = s.path("logs");
    let missing = s.path("missing/p.json");
    let [csv, profile, out, pcap, metrics] =
        ["csv", "geo.profile", "logs", "span.pcap", "m.json"].map(|name| s.path(&format!("plain/{name}")));
    let cases: [(&[&str], &str); 6] = [
        (&["query", "--customers", "2", "--pipeline-file", &missing], &missing),
        (&["report", "--customers", "2", "--figure", "table1", "--csv", &csv], &csv),
        (&["profiles", "--customers", "2", "--out", &profile], &profile),
        (&["simulate", "--customers", "2", "--out", &out], &out),
        (&["simulate", "--customers", "2", "--out", &logs, "--pcap", &pcap], &pcap),
        (&["rules", "--metrics-out", &metrics], &metrics),
    ];
    let mut unnamed = Vec::new();
    for (args, path) in cases {
        let stderr = fails(args);
        let error = error_line(&stderr);
        if !error.contains(path) {
            unnamed.push(format!("{} {}: {error:?} does not name {path}", args[0], args[args.len() - 2]));
        }
        if args[0] == "query" {
            assert!(!stderr.contains("simulating"), "the pipeline file is read before the run: {stderr}");
        }
    }
    assert!(unnamed.is_empty(), "{}", unnamed.join("\n"));
}

/// A command that fails keeps its own error when its `--metrics-out`
/// file cannot be written either: the `error:` line names the command's
/// file, and the metrics file is still named on stderr.
#[test]
fn a_failed_command_keeps_its_error_when_the_metrics_file_fails_too() {
    let s = Scratch::new("metrics");
    let (missing, metrics) = (s.path("missing/p.json"), s.path("plain/m.json"));
    let stderr = fails(&["query", "--pipeline-file", &missing, "--metrics-out", &metrics]);
    let error = error_line(&stderr);
    assert!(error.contains(&missing), "{error:?} does not name {missing}");
    assert!(stderr.contains(&metrics), "stderr does not name {metrics}: {stderr:?}");
}
