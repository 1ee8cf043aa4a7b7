//! `--key value` argument lists.

use std::str::FromStr;

pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parse `--key value` pairs; anything else is an error (a typo'd
    /// flag must not silently run a different benchmark).
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let key = flag.strip_prefix("--").ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Args { pairs })
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    pub fn required<T: FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.str(key)?;
        v.parse().map_err(|_| format!("--{key}: cannot read {v:?}"))
    }

    pub fn parsed_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            Some(_) => self.required(key),
            None => Ok(default),
        }
    }

    /// Error on any flag outside `known`.
    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.pairs.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown flag --{k} (known: {})", known.join(", "))),
            None => Ok(()),
        }
    }
}
