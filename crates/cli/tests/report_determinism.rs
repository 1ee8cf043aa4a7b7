//! The determinism contract, held by the command everyone runs: one
//! seed writes one report, whatever `--threads`/`--shards`, and it is
//! the report golden `satbench check` pins. And the arguments of a
//! command are checked before the run they belong to.

use satwatch_scenario::digest::fnv1a;
use std::process::{Command, Output};

fn satwatch(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_satwatch")).args(args).output().expect("satwatch starts")
}

/// The report at `--threads n --shards n`: both are accepted and
/// ignored, with one note when either is not 1.
fn report_output(n: &str) -> Output {
    let out =
        satwatch(&["report", "--customers", "40", "--seed", "42", "--figure", "all", "--threads", n, "--shards", n]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    out
}

#[test]
fn report_stdout_is_the_golden_at_any_threads_and_shards() {
    let (one, two) = (report_output("1"), report_output("2"));
    let serial = one.stdout;
    assert!(serial == two.stdout, "--threads 2 --shards 2 changed the report");
    let note = "note: --threads and --shards ignored";
    assert!(!String::from_utf8_lossy(&one.stderr).contains("ignored"), "1/1 is what the harness passes");
    assert!(String::from_utf8_lossy(&two.stderr).contains(note), "2/2 is ignored, and says so");
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

/// A value no run could have used is refused before the scenario is
/// simulated or a log is read.
#[test]
fn a_bad_figure_or_format_is_refused_before_anything_runs() {
    let pipeline = r#"[{"group": {"aggs": {"n": {"count": true}}}}]"#;
    for (args, message) in [
        (&["report", "--customers", "240", "--figure", "fig99"][..], "unknown figure \"fig99\""),
        (&["query", "--customers", "240", "--format", "xml", "--pipeline", pipeline], "unknown --format \"xml\""),
        // a pipeline that could never render a table
        (
            &["query", "--customers", "240", "--pipeline", r#"[{"match": {"isnull": {"col": "country"}}}]"#],
            "pipeline never materialized a table",
        ),
        // ignored, but still a number
        (&["report", "--customers", "240", "--threads", "x"], "bad value for --threads: x"),
        // no such directory: the figure is refused before a log is opened
        (
            &["replay", "--logs", "/nonexistent/satwatch-logs", "--figure", "fig3"],
            "replay cannot render figure \"fig3\"",
        ),
    ] {
        let out = satwatch(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("simulating") && !stderr.contains("replaying"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty());
    }
}

/// A pipeline naming a column it cannot have is refused by its parse,
/// before the scenario it would scan is simulated, and the error lists
/// the names there are: the frame's, or the table's a stage made.
#[test]
fn an_unknown_column_is_refused_before_the_simulation() {
    for (pipeline, message) in [
        (
            r#"[{"match": {"eq": [{"col": "nosuch"}, 1]}}, {"project": ["l7"]}]"#,
            "unknown column \"nosuch\" (frame columns: client, bytes_up, bytes_down,",
        ),
        (
            r#"[{"group": {"by": ["l7"], "aggs": {"n": {"count": true}}}}, {"sort": "-bytes"}]"#,
            "unknown result column \"bytes\" (have: l7, n)",
        ),
    ] {
        let out = satwatch(&["query", "--customers", "240", "--pipeline", pipeline]);
        assert_eq!(out.status.code(), Some(1), "{pipeline}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{pipeline}: {stderr}");
        assert!(!stderr.contains("simulating"), "{pipeline}: {stderr}");
        assert!(out.stdout.is_empty());
    }
}
