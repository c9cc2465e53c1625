//! Two determinism rules that clippy cannot hold, checked on the text of
//! `src/` and `crates/*/src/` (LINTS.md):
//!
//! - **`Relaxed` only under `crates/obs/src/`.** `Ordering::Relaxed` is right
//!   only for an atomic that carries no cross-thread ordering duty: the obs
//!   crate's monotonic counters, gauge high-waters and commutatively merged
//!   histogram cells. Elsewhere, use `Acquire`/`Release` or stronger.
//! - **One `partial_cmp` call, in `cmp_timestamps`.** `partial_cmp(..)`
//!   with `unwrap` panics on NaN, and with `unwrap_or(Equal)` it sorts a NaN
//!   by where the comparisons happen to meet it, so two runs can order the
//!   same plans differently. Use `f64::total_cmp`, or
//!   `datawa_core::time::cmp_timestamps`, which holds the one call and
//!   places NaN last. A `fn partial_cmp` definition is not a call.
//!
//! Clippy has no lint for `Relaxed`, and disallowing `PartialOrd::partial_cmp`
//! would fire inside every `#[derive(PartialOrd)]`. The scan is textual: line
//! comments (doc comments included) are skipped, and a name counts only as a
//! whole identifier.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The only directory whose files may name `Relaxed`.
const RELAXED_AUDITED: &str = "crates/obs/src/";

/// The files that may call `partial_cmp`, each with its number of calls.
const PARTIAL_CMP_CALLS: [(&str, usize); 1] = [("crates/core/src/time.rs", 1)];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("a readable directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The lines of `source`, each cut at its line comment.
fn code(source: &str) -> impl Iterator<Item = &str> {
    source
        .lines()
        .map(|line| line.split("//").next().unwrap_or_default())
}

/// The offsets at which `word` occurs in `line` as a whole identifier.
fn occurrences<'a>(line: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(word)
        .map(|(at, _)| at)
        .filter(move |&at| {
            !line[..at].chars().next_back().is_some_and(ident)
                && !line[at + word.len()..].chars().next().is_some_and(ident)
        })
}

/// The 1-based numbers of the lines of `source` that name `Relaxed`.
fn relaxed_lines(source: &str) -> Vec<usize> {
    code(source)
        .enumerate()
        .filter(|(_, line)| occurrences(line, "Relaxed").next().is_some())
        .map(|(i, _)| i + 1)
        .collect()
}

/// The 1-based line number of every use of `partial_cmp` in `source` that
/// is not a `fn partial_cmp` definition.
fn partial_cmp_calls(source: &str) -> Vec<usize> {
    let mut calls = Vec::new();
    for (i, line) in code(source).enumerate() {
        for at in occurrences(line, "partial_cmp") {
            if line[..at].split_whitespace().next_back() != Some("fn") {
                calls.push(i + 1);
            }
        }
    }
    calls
}

#[test]
fn relaxed_and_partial_cmp_stay_at_their_audited_sites() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for entry in std::fs::read_dir(root.join("crates")).expect("the crates directory") {
        let src = entry
            .expect("a readable directory entry")
            .path()
            .join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut audited_relaxed = 0;
    let mut stray_relaxed = Vec::new();
    let mut calls: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for file in &files {
        let source = std::fs::read_to_string(file).expect("a readable source file");
        let path = file
            .strip_prefix(root)
            .expect("a file under the repository root")
            .to_string_lossy()
            .replace('\\', "/");
        let relaxed = relaxed_lines(&source);
        if path.starts_with(RELAXED_AUDITED) {
            audited_relaxed += relaxed.len();
        } else {
            stray_relaxed.extend(relaxed.iter().map(|line| format!("{path}:{line}")));
        }
        let lines = partial_cmp_calls(&source);
        if !lines.is_empty() {
            calls.insert(path, lines);
        }
    }
    assert!(
        files.len() >= 50,
        "the scan found only {} files",
        files.len()
    );
    assert!(
        audited_relaxed > 0,
        "the scan found no `Relaxed` in {RELAXED_AUDITED}"
    );
    assert!(
        stray_relaxed.is_empty(),
        "`Relaxed` outside {RELAXED_AUDITED}: {stray_relaxed:?}"
    );
    let counts: BTreeMap<&str, usize> = calls
        .iter()
        .map(|(path, lines)| (path.as_str(), lines.len()))
        .collect();
    assert_eq!(
        counts,
        BTreeMap::from(PARTIAL_CMP_CALLS),
        "`partial_cmp` calls (file: lines): {calls:?}"
    );
}

#[test]
fn the_scan_skips_comments_and_definitions_and_flags_calls() {
    let passing = "impl PartialOrd for Wake {\n    fn partial_cmp(&self, other: &Wake) -> Option<Ordering> {\n        Some(self.cmp(other))\n    }\n}\nlet d = a.total_cmp(&b); // not `partial_cmp(..).unwrap_or(Equal)`\n/// Relaxed: a monotonic counter.\nlet r = RelaxedMode::On;";
    assert_eq!(relaxed_lines(passing), Vec::<usize>::new());
    assert_eq!(partial_cmp_calls(passing), Vec::<usize>::new());
    let flagged = "let o = a.partial_cmp(&b);\nlet p = PartialOrd::partial_cmp(&a, &b);\nuse std::sync::atomic::Ordering::{Relaxed, SeqCst};";
    assert_eq!(partial_cmp_calls(flagged), vec![1, 2]);
    assert_eq!(relaxed_lines(flagged), vec![3]);
}
