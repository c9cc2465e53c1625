//! Source model: comment/string stripping, test-region tracking and
//! suppression directives.
//!
//! The scanner works on a *stripped* view of each file — string-literal
//! contents and comments replaced by spaces, line structure preserved — so
//! rule patterns never fire inside strings or prose. Line comments are
//! captured separately because they carry the suppression directives:
//!
//! ```text
//! // datawa-lint: allow(rule-a, rule-b) -- why this site is sound
//! // datawa-lint: allow-file(rule-a) -- why the whole file is sound
//! ```
//!
//! A directive on its own line applies to the next line; a trailing
//! directive applies to its own line. `allow-file` applies to the whole
//! file. A directive without `-- reason` still suppresses, but raises a
//! `missing-suppression-reason` finding so it cannot land silently.

/// Where a file sits in the test/production split. Only `Src` lines are
/// subject to the determinism rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Production code under `src/` (including `src/bin/`).
    Src,
    /// Tests, benches and examples (`tests/`, `benches/`, `examples/`):
    /// every line counts as test code.
    Test,
}

/// One physical line of a scanned file.
#[derive(Debug, Clone)]
pub struct Line {
    /// Code with string contents and comments blanked out.
    pub code: String,
    /// Text of any `//` comment on the line (directive scanning).
    pub comment: Option<String>,
    /// Whether the line sits inside `#[cfg(test)]`/`#[test]` scope (or the
    /// whole file is test-like).
    pub is_test: bool,
}

/// A parsed `datawa-lint: allow(...)` directive.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rules the directive names (as written; validated by the engine).
    pub rules: Vec<String>,
    /// 1-based line the suppression applies to (ignored for `file_level`).
    pub target_line: usize,
    /// 1-based line the directive itself sits on.
    pub declared_line: usize,
    /// Whether a non-empty `-- reason` was given.
    pub has_reason: bool,
    /// `allow-file(...)` — applies to the whole file.
    pub file_level: bool,
    /// Whether the directive text parsed at all (`allow(` / `allow-file(`
    /// with a closing paren). Unparsable directives suppress nothing.
    pub well_formed: bool,
}

/// A scanned source file ready for rule evaluation.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (forward slashes).
    pub rel_path: String,
    /// `crates/<name>/…` component, e.g. `Some("assign")`; `None` for the
    /// root facade (`src/`, `tests/`, `examples/`).
    pub crate_name: Option<String>,
    /// Physical lines, 0-indexed (line numbers in findings are 1-based).
    pub lines: Vec<Line>,
    /// Every `datawa-lint:` directive found in line comments.
    pub suppressions: Vec<Suppression>,
}

impl SourceFile {
    /// Parses `text` into the stripped line model.
    pub fn parse(rel_path: &str, crate_name: Option<&str>, kind: FileKind, text: &str) -> Self {
        let (stripped, comments) = strip(text);
        let mut lines: Vec<Line> = stripped
            .split('\n')
            .map(|code| Line {
                code: code.to_string(),
                comment: None,
                is_test: kind == FileKind::Test,
            })
            .collect();
        for (idx, comment) in comments {
            if let Some(line) = lines.get_mut(idx) {
                line.comment = Some(comment);
            }
        }
        if kind == FileKind::Src {
            mark_test_regions(&mut lines);
        }
        let suppressions = parse_suppressions(&lines);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.map(str::to_string),
            lines,
            suppressions,
        }
    }
}

/// Replaces comment and string-literal contents with spaces, preserving the
/// line structure, and returns the stripped text plus every line comment's
/// text keyed by 0-based line index.
pub fn strip(text: &str) -> (String, Vec<(usize, String)>) {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let mut comments: Vec<(usize, String)> = Vec::new();
    let mut line = 0usize;
    let mut i = 0usize;

    // Pushes a blank for a skipped byte, preserving newlines.
    fn blank(out: &mut String, b: u8, line: &mut usize) {
        if b == b'\n' {
            out.push('\n');
            *line += 1;
        } else {
            out.push(' ');
        }
    }

    while i < bytes.len() {
        let b = bytes[i];
        // Line comment: capture its text for directive scanning.
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            let start = i;
            while i < bytes.len() && bytes[i] != b'\n' {
                out.push(' ');
                i += 1;
            }
            comments.push((line, text[start..i].to_string()));
            continue;
        }
        // Block comment (nestable).
        if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let mut depth = 0usize;
            while i < bytes.len() {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    blank(&mut out, bytes[i], &mut line);
                    blank(&mut out, bytes[i + 1], &mut line);
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    blank(&mut out, bytes[i], &mut line);
                    blank(&mut out, bytes[i + 1], &mut line);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank(&mut out, bytes[i], &mut line);
                    i += 1;
                }
            }
            continue;
        }
        // Raw (and raw-byte) string literal: r"..", r#".."#, br".." …
        if (b == b'r' || b == b'b') && !prev_is_ident(bytes, i) {
            let mut j = i;
            if bytes[j] == b'b' && bytes.get(j + 1) == Some(&b'r') {
                j += 1;
            }
            if bytes[j] == b'r' {
                let mut hashes = 0usize;
                let mut k = j + 1;
                while bytes.get(k) == Some(&b'#') {
                    hashes += 1;
                    k += 1;
                }
                if bytes.get(k) == Some(&b'"') {
                    // Emit the opening delimiter as-is, blank the contents.
                    for &ob in &bytes[i..=k] {
                        out.push(ob as char);
                    }
                    i = k + 1;
                    while i < bytes.len() {
                        if bytes[i] == b'"'
                            && bytes[i + 1..]
                                .iter()
                                .take(hashes)
                                .filter(|&&c| c == b'#')
                                .count()
                                == hashes
                        {
                            out.push('"');
                            for _ in 0..hashes {
                                out.push('#');
                            }
                            i += 1 + hashes;
                            break;
                        }
                        blank(&mut out, bytes[i], &mut line);
                        i += 1;
                    }
                    continue;
                }
            }
        }
        // Ordinary (or byte) string literal.
        if b == b'"' {
            out.push('"');
            i += 1;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => {
                        blank(&mut out, bytes[i], &mut line);
                        if i + 1 < bytes.len() {
                            blank(&mut out, bytes[i + 1], &mut line);
                        }
                        i += 2;
                    }
                    b'"' => {
                        out.push('"');
                        i += 1;
                        break;
                    }
                    other => {
                        blank(&mut out, other, &mut line);
                        i += 1;
                    }
                }
            }
            continue;
        }
        // Char literal vs lifetime: 'x' / '\n' are literals, 'a in `&'a T`
        // is not. A literal always closes within a few bytes.
        if b == b'\'' {
            if bytes.get(i + 1) == Some(&b'\\') {
                out.push('\'');
                i += 2; // consume the backslash
                out.push(' ');
                while i < bytes.len() && bytes[i] != b'\'' {
                    blank(&mut out, bytes[i], &mut line);
                    i += 1;
                }
                if i < bytes.len() {
                    out.push('\'');
                    i += 1;
                }
                continue;
            }
            if bytes.get(i + 2) == Some(&b'\'') && bytes.get(i + 1) != Some(&b'\'') {
                out.push('\'');
                out.push(' ');
                out.push('\'');
                i += 3;
                continue;
            }
            // Lifetime: emit the quote and move on.
            out.push('\'');
            i += 1;
            continue;
        }
        if b == b'\n' {
            out.push('\n');
            line += 1;
        } else {
            out.push(b as char);
        }
        i += 1;
    }
    (out, comments)
}

fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')
}

/// Marks lines inside `#[cfg(test)]` / `#[test]` item bodies as test code
/// via a brace-depth scan over the stripped lines.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut pending_attr = false;
    // Depths at which a test region was entered; a line is test code while
    // this stack is non-empty.
    let mut entries: Vec<i64> = Vec::new();

    for line in lines.iter_mut() {
        let code = line.code.clone();
        let trimmed = code.trim();
        if trimmed.contains("#[cfg(test)]") || trimmed.contains("#[test]") {
            pending_attr = true;
            line.is_test = true;
        }
        if !entries.is_empty() || pending_attr {
            line.is_test = true;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if pending_attr {
                        entries.push(depth);
                        pending_attr = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if entries.last() == Some(&depth) {
                        entries.pop();
                    }
                }
                _ => {}
            }
        }
        // `#[cfg(test)] use foo;` — the attribute bound to a braceless item.
        if pending_attr && trimmed.ends_with(';') && !trimmed.contains('{') {
            pending_attr = false;
        }
    }
}

/// Extracts every `datawa-lint:` directive from the captured line comments.
fn parse_suppressions(lines: &[Line]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let Some(comment) = &line.comment else {
            continue;
        };
        // Directives live in plain `//` comments; doc comments (`///`,
        // `//!`) only *talk about* them.
        if comment.starts_with("///") || comment.starts_with("//!") {
            continue;
        }
        let Some(pos) = comment.find("datawa-lint:") else {
            continue;
        };
        let directive = comment[pos + "datawa-lint:".len()..].trim();
        let (body, reason) = match directive.split_once("--") {
            Some((b, r)) => (b.trim(), Some(r.trim())),
            None => (directive, None),
        };
        let (file_level, rest) = if let Some(r) = body.strip_prefix("allow-file") {
            (true, r.trim())
        } else if let Some(r) = body.strip_prefix("allow") {
            (false, r.trim())
        } else {
            (false, "")
        };
        let rules: Vec<String> = rest
            .strip_prefix('(')
            .and_then(|r| r.strip_suffix(')'))
            .map(|inner| {
                inner
                    .split(',')
                    .map(|r| r.trim().to_string())
                    .filter(|r| !r.is_empty())
                    .collect()
            })
            .unwrap_or_default();
        let well_formed = !rules.is_empty();
        // A directive on a comment-only line targets the next line, skipping
        // attribute-only lines (`#[allow(..)]` riders sit between the
        // rationale and the code it covers); a trailing directive targets its
        // own line.
        let target_line = if line.code.trim().is_empty() {
            let mut t = idx + 1;
            while let Some(next) = lines.get(t) {
                let code = next.code.trim();
                if code.starts_with("#[") && code.ends_with(']') {
                    t += 1;
                } else {
                    break;
                }
            }
            t + 1
        } else {
            idx + 1
        };
        out.push(Suppression {
            rules,
            target_line,
            declared_line: idx + 1,
            has_reason: reason.is_some_and(|r| !r.is_empty()),
            file_level,
            well_formed,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let (s, comments) = strip("let x = \"Instant::now\"; // Instant::now\nlet y = 1;");
        assert!(!s.contains("Instant"));
        assert_eq!(comments.len(), 1);
        assert_eq!(comments[0].0, 0);
        assert!(comments[0].1.contains("Instant::now"));
        assert!(s.contains("let y = 1;"));
    }

    #[test]
    fn char_literals_do_not_eat_lifetimes() {
        let (s, _) = strip("fn f<'a>(x: &'a str) -> char { ',' }");
        assert!(s.contains("fn f<'a>(x: &'a str)"));
        assert!(!s.contains(','));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let (s, _) = strip("let x = r#\"Ordering::Relaxed inside\"#; let ok = 1;");
        assert!(!s.contains("Relaxed"));
        assert!(s.contains("let ok = 1;"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let text = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn prod2() {}\n";
        let f = SourceFile::parse("a.rs", None, FileKind::Src, text);
        assert!(!f.lines[0].is_test);
        assert!(f.lines[2].is_test);
        assert!(f.lines[3].is_test);
        assert!(!f.lines[5].is_test, "region must close at the brace");
    }

    #[test]
    fn suppressions_parse_with_and_without_reasons() {
        let text = "// datawa-lint: allow(relaxed-atomic-audit) -- monotonic counter\nc.fetch_add(1, Ordering::Relaxed);\nd.fetch_add(1, Ordering::Relaxed); // datawa-lint: allow(relaxed-atomic-audit)\n";
        let f = SourceFile::parse("a.rs", None, FileKind::Src, text);
        assert_eq!(f.suppressions.len(), 2);
        assert_eq!(f.suppressions[0].target_line, 2);
        assert!(f.suppressions[0].has_reason);
        assert_eq!(f.suppressions[1].target_line, 3);
        assert!(!f.suppressions[1].has_reason);
    }

    #[test]
    fn comment_directives_skip_attribute_riders() {
        let text = "// datawa-lint: allow(unchecked-float-ordering) -- NaN rejected upstream\n#[allow(clippy::some_lint)]\nlet o = a.partial_cmp(&b);\n";
        let f = SourceFile::parse("a.rs", None, FileKind::Src, text);
        assert_eq!(f.suppressions.len(), 1);
        assert_eq!(f.suppressions[0].target_line, 3);
    }

    #[test]
    fn file_level_suppressions_are_flagged_as_such() {
        let text = "// datawa-lint: allow-file(relaxed-atomic-audit) -- all counters monotonic\n";
        let f = SourceFile::parse("a.rs", None, FileKind::Src, text);
        assert!(f.suppressions[0].file_level);
        assert!(f.suppressions[0].well_formed);
    }
}
