//! File discovery, suppression filtering and report assembly.

use crate::diag::Finding;
use crate::rules::{self, is_known_rule};
use crate::source::{FileKind, SourceFile};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What to scan and how to classify it.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Workspace root. Findings report paths relative to it.
    pub root: PathBuf,
    /// Scan the whole workspace tree (`src`, `tests`, `examples`,
    /// `crates/**`), skipping `vendor`, `target` and fixture corpora.
    pub workspace: bool,
    /// Explicit files/directories to scan instead of (or in addition to)
    /// the workspace walk.
    pub paths: Vec<PathBuf>,
    /// Force the crate classification of explicitly-passed paths (used by
    /// the fixture tests: a bare fixture file has no `crates/<name>/`
    /// component to infer the crate from).
    pub context_crate: Option<String>,
}

/// The outcome of a run.
#[derive(Debug)]
pub struct Report {
    /// Unsuppressed findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of findings silenced by a well-formed suppression.
    pub suppressed: usize,
}

impl Report {
    /// Whether the run should exit nonzero.
    pub fn failed(&self) -> bool {
        !self.findings.is_empty()
    }
}

/// Runs the lint pass described by `opts`.
pub fn run(opts: &Options) -> io::Result<Report> {
    let mut files: Vec<PathBuf> = Vec::new();
    if opts.workspace {
        for top in ["src", "tests", "examples", "crates"] {
            let dir = opts.root.join(top);
            if dir.is_dir() {
                collect_rs_files(&dir, &mut files)?;
            }
        }
    }
    for p in &opts.paths {
        let p = if p.is_absolute() {
            p.clone()
        } else {
            opts.root.join(p)
        };
        if p.is_dir() {
            collect_rs_files(&p, &mut files)?;
        } else {
            files.push(p);
        }
    }
    files.sort();
    files.dedup();

    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for path in &files {
        let text = fs::read_to_string(path)?;
        let rel = rel_path(&opts.root, path);
        let inferred_crate = crate_of(&rel);
        let crate_name = opts
            .context_crate
            .as_deref()
            .filter(|_| inferred_crate.is_none())
            .or(inferred_crate);
        // `--context` exists so the fixture corpus can masquerade as
        // production code of a given crate; the path-based Test
        // classification would otherwise blank every rule.
        let kind = if opts.context_crate.is_some() {
            FileKind::Src
        } else {
            kind_of(&rel)
        };
        let file = SourceFile::parse(&rel, crate_name, kind, &text);
        let raw = rules::check_file(&file);
        // Suppression filtering + directive hygiene.
        for f in raw {
            let matching = file.suppressions.iter().find(|s| {
                s.well_formed
                    && s.rules.iter().any(|r| r == f.rule)
                    && (s.file_level || s.target_line == f.line)
            });
            if matching.is_some() {
                suppressed += 1;
            } else {
                findings.push(f);
            }
        }
        for s in &file.suppressions {
            if !s.well_formed {
                findings.push(Finding {
                    rule: "invalid-suppression",
                    path: rel.clone(),
                    line: s.declared_line,
                    message: "unparsable datawa-lint directive; expected \
                              `datawa-lint: allow(<rule>[, <rule>…]) -- <reason>`"
                        .to_string(),
                });
                continue;
            }
            for r in &s.rules {
                if !is_known_rule(r) {
                    findings.push(Finding {
                        rule: "invalid-suppression",
                        path: rel.clone(),
                        line: s.declared_line,
                        message: format!("suppression names unknown rule `{r}` (see LINTS.md)"),
                    });
                }
            }
            if !s.has_reason {
                findings.push(Finding {
                    rule: "missing-suppression-reason",
                    path: rel.clone(),
                    line: s.declared_line,
                    message: "suppression without a rationale; append \
                              `-- <why this site is sound>`"
                        .to_string(),
                });
            }
        }
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(Report {
        findings,
        files_scanned: files.len(),
        suppressed,
    })
}

/// Recursively collects `.rs` files in deterministic (sorted) order,
/// skipping `vendor`, `target`, hidden directories and fixture corpora
/// (`tests/fixtures` — lint-fixture files are scanned only when passed
/// explicitly).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "vendor" || name == "target" || name.starts_with('.') {
                continue;
            }
            if name == "fixtures" && dir.file_name().and_then(|n| n.to_str()) == Some("tests") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// `crates/<name>/…` → `<name>`.
fn crate_of(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    rest.split('/').next()
}

fn kind_of(rel: &str) -> FileKind {
    if rel
        .split('/')
        .any(|c| matches!(c, "tests" | "benches" | "examples"))
    {
        FileKind::Test
    } else {
        FileKind::Src
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_classification() {
        assert_eq!(crate_of("crates/assign/src/pool.rs"), Some("assign"));
        assert_eq!(crate_of("src/lib.rs"), None);
        assert_eq!(kind_of("crates/lint/tests/fixtures/x.rs"), FileKind::Test);
        assert_eq!(kind_of("crates/bench/benches/a.rs"), FileKind::Test);
        assert_eq!(kind_of("examples/quickstart.rs"), FileKind::Test);
        assert_eq!(kind_of("crates/assign/src/bin/tool.rs"), FileKind::Src);
    }
}
