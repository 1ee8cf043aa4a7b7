//! The packet path's oracle stays out of production: `satwatch-oracle`
//! may appear in a manifest only as a `[dev-dependencies]` entry (and
//! as its own package name), and never in the benchmark harness's
//! manifest, whose builds must not compile it.
//!
//! Every failure names the manifest and the line.

use std::fs;
use std::path::{Path, PathBuf};

const ORACLE: &str = "satwatch-oracle";

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The root manifest, every `crates/*/Cargo.toml` and the harness's.
fn manifests() -> Vec<PathBuf> {
    let root = root();
    let mut out = vec![root.join("Cargo.toml"), root.join("benchmark/Cargo.toml")];
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("crates/ entry").path().join("Cargo.toml"))
        .filter(|p| p.is_file())
        .collect();
    crates.sort();
    out.extend(crates);
    out
}

/// `line` without a trailing `# comment` (a `#` inside a string stays).
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn is_dev_dependencies(table: &str) -> bool {
    table == "dev-dependencies" || table.starts_with("dev-dependencies.") || table.ends_with(".dev-dependencies")
}

/// Every line of `manifest` naming the oracle where it may not be, as
/// `file:line: text`; and how many lines list it as a dev-dependency.
fn check(manifest: &Path, text: &str) -> (Vec<String>, usize) {
    let rel = manifest.strip_prefix(root()).unwrap_or(manifest);
    let harness = rel == Path::new("benchmark/Cargo.toml");
    let own = rel == Path::new("crates/oracle/Cargo.toml");
    let (mut bad, mut dev) = (Vec::new(), 0);
    let mut table = String::new();
    for (i, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if let Some(header) = line.strip_prefix('[') {
            table = header.trim_matches(|c| c == '[' || c == ']').trim().to_string();
        }
        if !line.contains(ORACLE) {
            continue;
        }
        let allowed = if harness {
            false
        } else if own && table == "package" {
            line.replace(' ', "") == format!("name=\"{ORACLE}\"")
        } else {
            is_dev_dependencies(&table)
        };
        if allowed {
            dev += usize::from(!own);
        } else {
            bad.push(format!("{}:{}: `{}` (in [{table}])", rel.display(), i + 1, raw.trim()));
        }
    }
    (bad, dev)
}

#[test]
fn the_oracle_is_only_ever_a_dev_dependency() {
    let manifests = manifests();
    assert!(manifests.iter().any(|p| p.ends_with("crates/oracle/Cargo.toml")), "crates/oracle/Cargo.toml is missing");
    let (mut bad, mut dev) = (Vec::new(), 0);
    for manifest in &manifests {
        let text = fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{}: {e}", manifest.display()));
        let (b, d) = check(manifest, &text);
        bad.extend(b);
        dev += d;
    }
    assert!(bad.is_empty(), "{ORACLE} outside [dev-dependencies]:\n{}", bad.join("\n"));
    assert!(dev > 0, "no manifest lists {ORACLE} under [dev-dependencies]: the scan found nothing to check");
}

/// The scan itself: a `[dependencies]` entry, a workspace entry or any
/// mention in the harness's manifest is refused, naming its line.
#[test]
fn the_scan_refuses_a_production_entry() {
    let root = root();
    let crate_manifest = root.join("crates/scenario/Cargo.toml");
    let entry = format!("{ORACLE} = {{ path = \"../oracle\" }}");
    let dev =
        format!("[dependencies]\nbytes = \"1\"\n\n[dev-dependencies]\n# {ORACLE} in a comment is fine\n{entry}\n");
    assert_eq!(check(&crate_manifest, &dev), (vec![], 1));
    let prod = format!("[dependencies]\n{entry}\n");
    let (bad, _) = check(&crate_manifest, &prod);
    assert_eq!(bad.len(), 1);
    assert!(bad[0].starts_with("crates/scenario/Cargo.toml:2:"), "{}", bad[0]);
    let workspace = format!("[workspace.dependencies]\n{ORACLE} = {{ path = \"crates/oracle\" }}\n");
    assert_eq!(check(&root.join("Cargo.toml"), &workspace).0.len(), 1);
    assert_eq!(check(&root.join("benchmark/Cargo.toml"), &dev).0.len(), 1);
}
