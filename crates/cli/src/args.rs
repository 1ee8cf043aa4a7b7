//! Tiny dependency-free argument parser for the `satwatch` binary.
//!
//! Grammar: `satwatch <command> [--key value]... [--flag]...`
//! No third-party CLI crate is in the approved offline set, so this
//! module implements exactly what the binary needs, with errors that
//! point at the offending token.

use std::collections::HashMap;

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub command: String,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Parse errors with the offending token.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgError {
    MissingCommand,
    UnexpectedToken(String),
    MissingValue(String),
    BadValue { key: String, value: String },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing command"),
            ArgError::UnexpectedToken(t) => write!(f, "unexpected token: {t}"),
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::BadValue { key, value } => write!(f, "bad value for --{key}: {value}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Option keys that are boolean flags (no value).
const FLAGS: &[&str] = &["no-pep", "african-gs", "force-operator-dns", "smoke", "help", "no-metrics", "print-rss"];

/// How a command obtains the analytics inputs — the one shared
/// `--report-mode` vocabulary for `report`, `bench`, and `query`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReportMode {
    /// Record path: `Vec<FlowRecord>` + slice-based `agg` passes.
    Records,
    /// Batch columnar: run, then build the frame from records.
    #[default]
    Columnar,
    /// Streaming columnar: frames built from the eviction stream,
    /// no record vector ever materialized.
    Streaming,
}

impl ReportMode {
    pub fn name(self) -> &'static str {
        match self {
            ReportMode::Records => "records",
            ReportMode::Columnar => "columnar",
            ReportMode::Streaming => "streaming",
        }
    }
}

impl std::str::FromStr for ReportMode {
    type Err = String;

    fn from_str(s: &str) -> Result<ReportMode, String> {
        match s {
            "records" => Ok(ReportMode::Records),
            "columnar" => Ok(ReportMode::Columnar),
            "streaming" => Ok(ReportMode::Streaming),
            other => Err(format!("unknown report mode: {other} (expected records|columnar|streaming)")),
        }
    }
}

/// The single help string for `--report-mode`, shared verbatim by
/// every subcommand that accepts it.
pub const REPORT_MODE_HELP: &str = "--report-mode M   analytics input: records | columnar (default) | streaming";

impl Args {
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, ArgError> {
        let mut it = argv.into_iter();
        let command = it.next().ok_or(ArgError::MissingCommand)?;
        if command.starts_with('-') {
            if command == "--help" || command == "-h" {
                return Ok(Args { command: "help".into(), options: HashMap::new(), flags: vec![] });
            }
            return Err(ArgError::UnexpectedToken(command));
        }
        let mut options = HashMap::new();
        let mut flags = Vec::new();
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(ArgError::UnexpectedToken(tok));
            };
            if FLAGS.contains(&key) {
                flags.push(key.to_string());
            } else {
                let value = it.next().ok_or_else(|| ArgError::MissingValue(key.to_string()))?;
                options.insert(key.to_string(), value);
            }
        }
        Ok(Args { command, options, flags })
    }

    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue { key: key.to_string(), value: v.clone() }),
        }
    }

    /// The shared `--report-mode` option (default [`ReportMode::Columnar`]).
    pub fn report_mode(&self) -> Result<ReportMode, ArgError> {
        self.get_parsed("report-mode", ReportMode::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, ArgError> {
        Args::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_options_flags() {
        let a = parse(&["simulate", "--customers", "500", "--no-pep", "--seed", "7"]).unwrap();
        assert_eq!(a.command, "simulate");
        assert_eq!(a.get("customers"), Some("500"));
        assert_eq!(a.get_parsed("customers", 0u32).unwrap(), 500);
        assert_eq!(a.get_parsed("days", 1u64).unwrap(), 1, "default");
        assert!(a.flag("no-pep"));
        assert!(!a.flag("african-gs"));
        // boolean flags must not swallow the next token as a value
        let a = parse(&["simulate", "--african-gs", "--out", "logs"]).unwrap();
        assert!(a.flag("african-gs"));
        assert_eq!(a.get("out"), Some("logs"));
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(parse(&[]), Err(ArgError::MissingCommand));
        assert_eq!(parse(&["run", "positional"]), Err(ArgError::UnexpectedToken("positional".into())));
        assert_eq!(parse(&["run", "--seed"]), Err(ArgError::MissingValue("seed".into())));
        let bad = parse(&["run", "--seed", "x"]).unwrap().get_parsed::<u64>("seed", 0);
        assert!(matches!(bad, Err(ArgError::BadValue { .. })));
    }

    #[test]
    fn help_shortcut() {
        assert_eq!(parse(&["--help"]).unwrap().command, "help");
    }

    #[test]
    fn report_mode_parses_and_defaults() {
        let a = parse(&["report", "--report-mode", "streaming"]).unwrap();
        assert_eq!(a.report_mode(), Ok(ReportMode::Streaming));
        let a = parse(&["report"]).unwrap();
        assert_eq!(a.report_mode(), Ok(ReportMode::Columnar));
        let a = parse(&["report", "--report-mode", "rowwise"]).unwrap();
        assert!(matches!(a.report_mode(), Err(ArgError::BadValue { .. })));
        assert_eq!(ReportMode::Records.name(), "records");
    }

    #[test]
    fn errors_display() {
        assert!(format!("{}", ArgError::MissingValue("x".into())).contains("--x"));
        assert!(format!("{}", ArgError::BadValue { key: "k".into(), value: "v".into() }).contains("k"));
    }
}
