//! The determinism contract, held by the command everyone runs: one
//! seed writes one report, whatever `--threads`/`--shards`, and it is
//! the report golden `satbench check` pins.

use satwatch_scenario::digest::fnv1a;
use std::process::{Command, Output};

fn satwatch(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_satwatch")).args(args).output().expect("satwatch starts")
}

fn report_stdout(workers: &str) -> Vec<u8> {
    let out = satwatch(&[
        "report",
        "--customers",
        "40",
        "--seed",
        "42",
        "--figure",
        "all",
        "--threads",
        workers,
        "--shards",
        workers,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    out.stdout
}

#[test]
fn report_stdout_is_the_golden_at_any_threads_and_shards() {
    let serial = report_stdout("1");
    assert!(serial == report_stdout("2"), "--threads 2 --shards 2 changed the report");
    // the golden is over `PaperReports::render_all`, which is stdout
    // without the newline `println!` ends the last figure with
    let body = serial.strip_suffix(b"\n").expect("report ends with a newline");
    assert_eq!(fnv1a(body), 0xf302_9d48_a840_19bd, "{:#018x}", fnv1a(body));
}

/// A misspelt option is refused, not stored and never read: this used
/// to run the default 300 customers.
#[test]
fn an_unknown_option_is_refused_before_anything_runs() {
    let out = satwatch(&["report", "--customer", "8"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --customer"), "{stderr}");
    assert!(out.stdout.is_empty());
}
