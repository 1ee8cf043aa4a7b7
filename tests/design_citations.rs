//! DESIGN.md is checked like code. Three things fail the build:
//!
//! 1. a backticked repository path in DESIGN.md that does not exist;
//! 2. a test DESIGN.md cites as `path.rs::name` that is not a `fn name`
//!    in that file;
//! 3. a section citation — the document's name followed by a section
//!    sign and a number, or a section sign, a number and a quoted
//!    title — in the code, the tests, the examples, README.md,
//!    EXPERIMENTS.md, the CI workflow or the verify skill (and, for a
//!    bare section number, in DESIGN.md itself) that names no `## N.`
//!    heading, or whose title is no heading of that section.
//!
//! Every failure names the citing file and line.

use std::fs;
use std::path::{Path, PathBuf};

const DOC: &str = "DESIGN.md";
const SECTION_SIGN: char = '\u{a7}';

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// One `## N. Title` heading and the `###` headings under it.
struct Section {
    number: u32,
    title: String,
    subheadings: Vec<String>,
}

/// The lines of `doc` outside code fences, with their 1-based numbers.
fn prose(doc: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut in_fence = false;
    doc.lines().enumerate().filter_map(move |(i, line)| {
        let fence = line.starts_with("```");
        in_fence ^= fence;
        (!in_fence && !fence).then_some((i + 1, line))
    })
}

fn sections(doc: &str) -> Vec<Section> {
    let mut out: Vec<Section> = Vec::new();
    for (_, line) in prose(doc) {
        if let Some(rest) = line.strip_prefix("## ") {
            let (num, title) = rest.split_once(". ").unwrap_or(("", rest));
            let number = num.parse().unwrap_or_else(|_| panic!("{DOC}: heading `{line}` is not `## N. Title`"));
            out.push(Section { number, title: title.trim().to_string(), subheadings: Vec::new() });
        } else if let Some(rest) = line.strip_prefix("### ") {
            if let Some(s) = out.last_mut() {
                s.subheadings.push(rest.trim().to_string());
            }
        }
    }
    out
}

/// Text as one line of words: each line loses its indentation and any
/// comment marker, so a citation broken across comment lines reads as
/// one. Returns the words with the 1-based line each starts on.
fn words(text: &str) -> Vec<(&str, usize)> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let mut l = line.trim_start();
        for marker in ["//!", "///", "//", "#", "*"] {
            if let Some(rest) = l.strip_prefix(marker) {
                l = rest;
                break;
            }
        }
        out.extend(l.split_whitespace().map(|w| (w, i + 1)));
    }
    out
}

/// A section citation found in a file.
struct Citation {
    line: usize,
    number: u32,
    title: Option<String>,
}

/// The section number a word such as `(§12,` names, and whether the
/// word ends with it (only then may a quoted title follow); `None` for
/// any other word and for a decimal such as `§6.4` (the paper's).
fn section_number(word: &str) -> Option<(u32, bool)> {
    let rest = word.trim_start_matches(['(', '[', '`']).strip_prefix(SECTION_SIGN)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    let after = &rest[digits.len()..];
    let mut after_chars = after.chars();
    if after_chars.next() == Some('.') && after_chars.next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some((digits.parse().ok()?, after.is_empty()))
}

/// The quoted title starting at `words[i]`, if that word opens a quote,
/// and the index of the word that closes it.
fn quoted_title(words: &[(&str, usize)], i: usize) -> Option<(String, usize)> {
    let first = words.get(i)?.0.trim_start_matches('(').strip_prefix('"')?;
    let mut parts = Vec::new();
    let mut word = first;
    let mut j = i;
    loop {
        if let Some(end) = word.find('"') {
            parts.push(&word[..end]);
            return Some((parts.join(" "), j));
        }
        parts.push(word);
        j += 1;
        word = words.get(j)?.0;
    }
}

/// Every section citation in `text`. After the document's name, a run
/// of section numbers joined by `,`, `and` or `or` is a citation; so is
/// a section number followed by a quoted title anywhere. A bare section
/// number counts only when `bare` is set, and not after `paper`.
fn citations(text: &str, bare: bool) -> (Vec<Citation>, Vec<(usize, String)>) {
    let words = words(text);
    let (mut cites, mut titles_only) = (Vec::new(), Vec::new());
    let mut chained = false;
    let mut i = 0;
    while i < words.len() {
        let (word, line) = words[i];
        if word.contains(DOC) {
            chained = !word.ends_with(['.', ')', ';', ':']);
            if let Some((title, end)) = quoted_title(&words, i + 1) {
                titles_only.push((line, title));
                i = end;
                chained = false;
            }
        } else if let Some((number, ends)) = section_number(word) {
            let after_paper = i > 0 && words[i - 1].0.trim_start_matches('(').to_ascii_lowercase().starts_with("paper");
            let quoted = if ends { quoted_title(&words, i + 1) } else { None };
            if chained || quoted.is_some() || (bare && !after_paper) {
                let (title, end) = match quoted {
                    Some((title, end)) => (Some(title), end),
                    None => (None, i),
                };
                cites.push(Citation { line, number, title });
                let next = words.get(end + 1).map_or("", |w| w.0);
                chained = chained && (words[end].0.ends_with(',') || matches!(next, "and" | "or" | ","));
                i = end;
            } else {
                chained = false;
            }
        } else if !matches!(word, "and" | "or" | ",") {
            chained = false;
        }
        i += 1;
    }
    (cites, titles_only)
}

/// Check `text`'s citations against `secs`, pushing one message per
/// broken citation.
fn check_citations(file: &str, text: &str, bare: bool, secs: &[Section], errors: &mut Vec<String>) -> usize {
    let (cites, titles_only) = citations(text, bare);
    for c in &cites {
        match secs.iter().find(|s| s.number == c.number) {
            None => errors.push(format!("{file}:{}: {DOC} has no section {SECTION_SIGN}{}", c.line, c.number)),
            Some(s) => {
                if let Some(t) = &c.title {
                    if *t != s.title && !s.subheadings.contains(t) {
                        errors.push(format!(
                            "{file}:{}: {DOC} {SECTION_SIGN}{} \"{}\" has no heading \"{t}\"",
                            c.line, c.number, s.title
                        ));
                    }
                }
            }
        }
    }
    for (line, t) in &titles_only {
        if !secs.iter().any(|s| s.title == *t || s.subheadings.contains(t)) {
            errors.push(format!("{file}:{line}: {DOC} has no heading \"{t}\""));
        }
    }
    cites.len() + titles_only.len()
}

/// The backticked spans of `doc` outside code fences, with their
/// lines. A span closed on a later line is not a path.
fn backticked(doc: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    for (line, text) in prose(doc) {
        let mut parts = text.split('`');
        parts.next();
        while let (Some(span), Some(_)) = (parts.next(), parts.next()) {
            out.push((line, span));
        }
    }
    out
}

/// The repository path a backticked span names, and the function it
/// cites in that file, if any. A span is a path when it ends in `.rs`
/// or `.md`, or when its first component is an entry of the
/// repository's root (`crates/…`, `benchmark/…`, `.github/…`).
fn cited_path<'a>(span: &'a str, root: &Path) -> Option<(&'a str, Option<&'a str>)> {
    let (path, name) = match span.find(".rs::") {
        Some(at) => (&span[..at + 3], Some(&span[at + 5..])),
        None => (span, None),
    };
    if path.is_empty() || !path.chars().all(|c| c.is_ascii_alphanumeric() || "_./-".contains(c)) {
        return None;
    }
    let under_root = path.split_once('/').is_some_and(|(first, _)| root.join(first).exists());
    (path.ends_with(".rs") || path.ends_with(".md") || under_root).then_some((path, name))
}

/// The files whose section citations are checked.
fn citing_files(root: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else { return };
        let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    let mut crates: Vec<_> = fs::read_dir(root.join("crates")).unwrap().flatten().map(|e| e.path()).collect();
    crates.sort();
    for c in crates {
        for sub in ["src", "tests", "benches"] {
            walk(&c.join(sub), &mut files);
        }
    }
    for sub in ["src", "tests", "examples"] {
        walk(&root.join(sub), &mut files);
    }
    for f in ["README.md", "EXPERIMENTS.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"] {
        if root.join(f).exists() {
            files.push(root.join(f));
        }
    }
    files
}

#[test]
fn design_md_paths_tests_and_section_citations_resolve() {
    let root = root();
    let doc = fs::read_to_string(root.join(DOC)).unwrap();
    let secs = sections(&doc);
    assert!(secs.len() >= 6, "{DOC} has {} numbered sections", secs.len());
    let mut errors = Vec::new();

    let (mut paths, mut tests) = (0, 0);
    for (line, span) in backticked(&doc) {
        let Some((path, name)) = cited_path(span, &root) else { continue };
        paths += 1;
        if !root.join(path).exists() {
            errors.push(format!("{DOC}:{line}: `{span}`: no file {path}"));
        } else if let Some(name) = name {
            tests += 1;
            let text = fs::read_to_string(root.join(path)).unwrap();
            if !text.contains(&format!("fn {name}(")) && !text.contains(&format!("fn {name}<")) {
                errors.push(format!("{DOC}:{line}: `{span}`: {path} has no `fn {name}`"));
            }
        }
    }

    let own = check_citations(DOC, &doc, true, &secs, &mut errors);
    let mut inbound = 0;
    for file in citing_files(&root) {
        let text = fs::read_to_string(&file).unwrap();
        let rel = file.strip_prefix(&root).unwrap().display().to_string();
        inbound += check_citations(&rel, &text, false, &secs, &mut errors);
    }

    assert!(errors.is_empty(), "{} broken citation(s):\n{}", errors.len(), errors.join("\n"));
    // a scanner that finds nothing would pass anything
    assert!(paths >= 40 && tests >= 30, "{DOC} cites {paths} paths and {tests} tests");
    assert!(own >= 10 && inbound >= 40, "{own} citations inside {DOC}, {inbound} into it");
}

#[test]
fn the_scanner_reads_citations_as_written() {
    let s = SECTION_SIGN;
    let text = format!(
        "// see {DOC}\n// {s}3 and {s}4 \"Two words\"; paper {s}6.4, paper {s}4,\n\
         // a {s}7 \"Title\" here and {DOC} \"Whole\". Also ({s}2.)\n"
    );
    let (cites, titles) = citations(&text, false);
    let got: Vec<_> = cites.iter().map(|c| (c.line, c.number, c.title.clone())).collect();
    assert_eq!(
        got,
        [(2, 3, None), (2, 4, Some("Two words".to_string())), (3, 7, Some("Title".to_string()))],
        "a chain after the name, a titled number anywhere; not the paper's"
    );
    assert_eq!(titles, [(3, "Whole".to_string())]);
    let (bare, _) = citations(&text, true);
    assert_eq!(bare.iter().map(|c| c.number).collect::<Vec<_>>(), [3, 4, 7, 2], "bare numbers, not after `paper`");
}
