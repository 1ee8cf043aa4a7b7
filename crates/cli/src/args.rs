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
    BadValue {
        key: String,
        value: String,
    },
    /// An option no command reads — a typo or a removed option. It is
    /// an error so it cannot silently run the defaults.
    UnknownOption(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing command"),
            ArgError::UnexpectedToken(t) => write!(f, "unexpected token: {t}"),
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::BadValue { key, value } => write!(f, "bad value for --{key}: {value}"),
            ArgError::UnknownOption(k) => write!(f, "unknown option --{k}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Option keys that are boolean flags (no value).
pub const FLAGS: &[&str] = &["no-pep", "african-gs", "force-operator-dns", "help", "no-metrics", "print-rss"];

/// Option keys that take a value. With [`FLAGS`], every name some
/// command reads: [`Args::parse`] rejects anything else.
pub const OPTIONS: &[&str] = &[
    "customers",
    "days",
    "seed",
    "threads",
    "shards",
    "figure",
    "csv",
    "out",
    "logs",
    "pcap",
    "snaplen",
    "pipeline",
    "pipeline-file",
    "format",
    "n",
    "resume",
    "abort-after-day",
    "metrics-out",
    "metrics-interval",
];

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
            } else if OPTIONS.contains(&key) {
                let value = it.next().ok_or_else(|| ArgError::MissingValue(key.to_string()))?;
                options.insert(key.to_string(), value);
            } else {
                return Err(ArgError::UnknownOption(key.to_string()));
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

    /// A misspelt or removed option used to be stored and never read:
    /// `report --customer 8` ran 300 customers.
    #[test]
    fn an_option_no_command_reads_is_an_error() {
        assert_eq!(parse(&["report", "--customer", "8"]), Err(ArgError::UnknownOption("customer".into())));
        assert_eq!(parse(&["report", "--report-mode", "records"]), Err(ArgError::UnknownOption("report-mode".into())));
        // an unknown flag does not swallow the token after it
        assert_eq!(parse(&["bench", "--smoke", "--out", "x"]), Err(ArgError::UnknownOption("smoke".into())));
    }

    #[test]
    fn errors_display() {
        assert!(format!("{}", ArgError::MissingValue("x".into())).contains("--x"));
        assert!(format!("{}", ArgError::BadValue { key: "k".into(), value: "v".into() }).contains("k"));
    }
}
