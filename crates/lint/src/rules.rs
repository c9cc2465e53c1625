//! The rule set. Each rule is a named check over a [`SourceFile`]'s
//! stripped lines; `LINTS.md` is the user-facing catalogue.

use crate::diag::Finding;
use crate::source::SourceFile;
use std::collections::BTreeSet;

/// Crates whose planning/state code must be bitwise deterministic: hash
/// iteration order and NaN-unsafe comparisons are hazards here.
pub const DETERMINISTIC_CRATES: &[&str] = &["assign", "stream", "core", "geo", "graph"];

/// Path prefixes whose `Ordering::Relaxed` uses have been audited as pure
/// monotonic counters / commutatively-merged cells, with the rationale
/// recorded here (mirrored in `LINTS.md`).
pub const RELAXED_AUDITED: &[(&str, &str)] = &[(
    "crates/obs/src/",
    "every obs atomic is a monotonic counter, gauge high-water or histogram \
     cell merged commutatively; snapshot consistency is documented best-effort",
)];

/// Every rule name, for suppression validation and `--list`.
pub const RULES: &[(&str, &str)] = &[
    (
        "unordered-iteration",
        "iterating a HashMap/HashSet in a deterministic crate without an immediate sort or order-insensitive sink",
    ),
    (
        "relaxed-atomic-audit",
        "Ordering::Relaxed outside the audited allowlist",
    ),
    (
        "unchecked-float-ordering",
        "partial_cmp call sites (NaN-unsafe ordering) in deterministic crates",
    ),
    (
        "missing-suppression-reason",
        "a datawa-lint suppression without a `-- reason`",
    ),
    (
        "invalid-suppression",
        "a datawa-lint directive that does not parse or names an unknown rule",
    ),
];

/// Whether `name` is a known rule.
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|(n, _)| *n == name)
}

/// Iterator-consuming method suffixes whose results leak hash order.
const ITER_SUFFIXES: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
    ".retain(",
];

/// Statement-window patterns that make hash iteration order-insensitive:
/// commutative reductions, membership tests, re-collection into an ordered
/// or hashed container, or an immediate sort, anywhere in the flagged
/// statement.
const ORDER_INSENSITIVE_SINKS: &[&str] = &[
    ".count()",
    ".len()",
    ".is_empty()",
    ".sum()",
    ".sum::<",
    ".min()",
    ".max()",
    ".all(",
    ".any(",
    ".contains(",
    ".contains_key(",
    ".collect::<HashMap",
    ".collect::<HashSet",
    ".collect::<BTreeMap",
    ".collect::<BTreeSet",
    ".collect::<std::collections::BTree",
    ".collect::<std::collections::Hash",
    "sort",
];

/// Runs every rule over `file`, returning raw (unsuppressed) findings.
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    unordered_iteration(file, &mut findings);
    relaxed_atomic(file, &mut findings);
    float_ordering(file, &mut findings);
    findings
}

fn in_crates(file: &SourceFile, list: &[&str]) -> bool {
    file.crate_name
        .as_deref()
        .is_some_and(|c| list.contains(&c))
}

fn finding(file: &SourceFile, line: usize, rule: &'static str, message: String) -> Finding {
    Finding {
        rule,
        path: file.rel_path.clone(),
        line: line + 1,
        message,
    }
}

/// Collects identifiers bound to `HashMap`/`HashSet` in this file: `let`
/// bindings whose initialiser or type mentions a hash collection, and
/// field/parameter declarations `name: [&[mut]] Hash{Map,Set}<…>`.
/// Per-file and unscoped by design — a cheap over-approximation whose false
/// positives are handled by suppression.
fn hash_idents(file: &SourceFile) -> BTreeSet<String> {
    let mut idents = BTreeSet::new();
    for line in &file.lines {
        let code = &line.code;
        if code.contains("HashMap") || code.contains("HashSet") {
            // `let [mut] name … = …Hash{Map,Set}…` on one line.
            let mut rest: &str = code;
            while let Some(pos) = rest.find("let ") {
                let after = rest[pos + 4..].trim_start();
                let after = after.strip_prefix("mut ").unwrap_or(after).trim_start();
                let ident: String = after
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if !ident.is_empty() {
                    idents.insert(ident);
                }
                rest = &rest[pos + 4..];
            }
        }
        // `name: [&['a]][mut ]Hash{Map,Set}<` — fields and parameters.
        for marker in ["HashMap<", "HashSet<"] {
            let mut search = 0usize;
            while let Some(found) = code[search..].find(marker) {
                let at = search + found;
                if let Some(ident) = decl_ident_before(&code[..at]) {
                    idents.insert(ident);
                }
                search = at + marker.len();
            }
        }
    }
    idents
}

/// Walks backwards from a `HashMap<`/`HashSet<` occurrence over
/// `[&['lifetime]][mut ]` to a `:` and returns the declared identifier, if
/// the occurrence is a declaration type rather than an expression.
fn decl_ident_before(prefix: &str) -> Option<String> {
    let mut rest = prefix.trim_end();
    loop {
        if let Some(r) = rest.strip_suffix("mut") {
            rest = r.trim_end();
            continue;
        }
        if let Some(r) = rest.strip_suffix('&') {
            rest = r.trim_end();
            continue;
        }
        // Lifetime: `&'a `.
        if let Some(q) = rest.rfind('\'') {
            if rest[q + 1..]
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_')
                && !rest[q + 1..].is_empty()
            {
                rest = rest[..q].trim_end();
                continue;
            }
        }
        break;
    }
    let rest = rest.strip_suffix(':')?.trim_end();
    let ident: String = rest
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    (!ident.is_empty() && !ident.chars().next().unwrap().is_ascii_digit()).then_some(ident)
}

fn unordered_iteration(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !in_crates(file, DETERMINISTIC_CRATES) {
        return;
    }
    let idents = hash_idents(file);
    if idents.is_empty() {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        let code = &line.code;
        let mut hit: Option<String> = None;
        for ident in &idents {
            // `map.keys()`-style calls with identifier boundaries intact.
            let mut search = 0usize;
            while let Some(found) = code[search..].find(ident.as_str()) {
                let at = search + found;
                let before_ok = at == 0 || {
                    let b = code.as_bytes()[at - 1];
                    if b == b'.' {
                        // `self.map.keys()` is the tracked binding;
                        // `other.map.keys()` is some other type's field.
                        code[..at - 1].ends_with("self")
                    } else {
                        !(b.is_ascii_alphanumeric() || b == b'_')
                    }
                };
                let after = &code[at + ident.len()..];
                if before_ok && ITER_SUFFIXES.iter().any(|s| after.starts_with(s)) {
                    hit = Some(format!("{ident}{}", first_suffix(after)));
                    break;
                }
                search = at + ident.len();
            }
            if hit.is_some() {
                break;
            }
            // `for x in [&[mut ]][self.]ident {`.
            if let Some(expr) = for_loop_subject(code) {
                if expr == *ident {
                    hit = Some(format!("for … in {ident}"));
                    break;
                }
            }
        }
        // Method-chain continuation: a line *starting* with `.keys()`-style
        // suffix whose receiver — the trailing identifier of the previous
        // code line — is a tracked hash binding:
        //     let v: Vec<_> = self.index
        //         .keys()
        //         .collect();
        if hit.is_none() {
            let trimmed = code.trim_start();
            if let Some(suffix) = ITER_SUFFIXES.iter().find(|s| trimmed.starts_with(**s)) {
                if let Some(recv) = receiver_ident_before(file, i) {
                    if idents.contains(&recv) {
                        hit = Some(format!("{recv}{suffix}"));
                    }
                }
            }
        }
        if let Some(what) = hit {
            // Statement window: the flagged line through the end of its
            // statement (`;`/`{`/`}`) — sinks inside it make the iteration
            // order-insensitive. Normally capped at five lines, but method
            // chains keep the window open while the next line continues the
            // chain (starts with `.`), so a sink deep in a long chain is
            // still seen; a hard cap bounds pathological files. A sort on
            // either of the two lines after the statement also counts as
            // "immediately sorted"
            // (`let v: Vec<_> = m.keys().collect(); v.sort();`).
            let mut stmt = String::new();
            let mut j = i;
            loop {
                let c = &file.lines[j].code;
                stmt.push_str(c);
                stmt.push(' ');
                let t = c.trim_end();
                if t.ends_with(';')
                    || t.ends_with('{')
                    || t.ends_with('}')
                    || j + 1 >= file.lines.len()
                    || j >= i + 15
                {
                    break;
                }
                let next_is_chain = file.lines[j + 1].code.trim_start().starts_with('.');
                if j >= i + 4 && !next_is_chain {
                    break;
                }
                j += 1;
            }
            let post_sorted = file.lines[(j + 1).min(file.lines.len())..]
                .iter()
                .take(2)
                .any(|l| l.code.contains("sort"));
            if ORDER_INSENSITIVE_SINKS.iter().any(|s| stmt.contains(s)) || post_sorted {
                continue;
            }
            findings.push(finding(
                file,
                i,
                "unordered-iteration",
                format!(
                    "`{what}` iterates a hash-ordered collection in a deterministic crate; \
                     sort the result, use a BTree collection, or suppress with a rationale \
                     if the consumer is order-insensitive"
                ),
            ));
        }
    }
}

/// The trailing identifier of the nearest non-empty code line above `i` —
/// the receiver of a method chain continued on line `i`. Mirrors the
/// same-line boundary rules: a bare identifier or a `self.` field counts,
/// `other.field` does not.
fn receiver_ident_before(file: &SourceFile, i: usize) -> Option<String> {
    let mut k = i;
    while k > 0 {
        k -= 1;
        let t = file.lines[k].code.trim_end();
        if t.is_empty() {
            continue;
        }
        let ident: String = t
            .chars()
            .rev()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect::<String>()
            .chars()
            .rev()
            .collect();
        if ident.is_empty() || ident.chars().next().unwrap().is_ascii_digit() {
            return None;
        }
        let before = &t[..t.len() - ident.len()];
        let ok = before.is_empty()
            || before.ends_with("self.")
            || !before.ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.');
        return ok.then_some(ident);
    }
    None
}

fn first_suffix(after: &str) -> &'static str {
    ITER_SUFFIXES
        .iter()
        .find(|s| after.starts_with(**s))
        .copied()
        .unwrap_or("")
}

/// For `for <pat> in <expr> {`, returns `<expr>` stripped of `&`, `mut` and
/// a leading `self.`, if it is a bare identifier path.
fn for_loop_subject(code: &str) -> Option<String> {
    let for_pos = code.find("for ")?;
    let in_pos = code[for_pos..].find(" in ")? + for_pos;
    let rest = code[in_pos + 4..].trim();
    let end = rest.find('{').unwrap_or(rest.len());
    let mut expr = rest[..end].trim();
    expr = expr.strip_prefix('&').unwrap_or(expr).trim();
    expr = expr.strip_prefix("mut ").unwrap_or(expr).trim();
    expr = expr.strip_prefix("self.").unwrap_or(expr);
    (!expr.is_empty() && expr.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'))
        .then(|| expr.to_string())
}

fn relaxed_atomic(file: &SourceFile, findings: &mut Vec<Finding>) {
    if RELAXED_AUDITED
        .iter()
        .any(|(prefix, _)| file.rel_path.starts_with(prefix))
    {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        if line.code.contains("Ordering::Relaxed") {
            findings.push(finding(
                file,
                i,
                "relaxed-atomic-audit",
                "`Ordering::Relaxed` outside the audited allowlist; if this atomic is a pure \
                 monotonic counter, suppress with that rationale — otherwise use a stronger \
                 ordering"
                    .to_string(),
            ));
        }
    }
}

fn float_ordering(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !in_crates(file, DETERMINISTIC_CRATES) {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.is_test || line.code.contains("fn partial_cmp") {
            continue;
        }
        if line.code.contains(".partial_cmp(") {
            findings.push(finding(
                file,
                i,
                "unchecked-float-ordering",
                "`partial_cmp` in planning code is NaN-unsafe as a sort key; use \
                 `f64::total_cmp`, `datawa_core::time::cmp_timestamps`, or suppress with a \
                 rationale explaining why NaN cannot occur and ties are handled totally"
                    .to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;

    fn parse(path: &str, krate: Option<&str>, text: &str) -> SourceFile {
        SourceFile::parse(path, krate, FileKind::Src, text)
    }

    #[test]
    fn hash_idents_track_lets_fields_and_params() {
        let f = parse(
            "crates/assign/src/x.rs",
            Some("assign"),
            "struct S { per_worker: HashMap<W, usize> }\n\
             fn f(available: &mut HashSet<TaskId>) {\n\
                 let mut seen = HashSet::new();\n\
                 let cache: HashMap<u64, Entry> = HashMap::new();\n\
             }\n",
        );
        let idents = hash_idents(&f);
        for name in ["per_worker", "available", "seen", "cache"] {
            assert!(idents.contains(name), "missing {name}: {idents:?}");
        }
    }

    #[test]
    fn unordered_iteration_flags_bare_iteration_but_not_sinks() {
        let f = parse(
            "crates/assign/src/x.rs",
            Some("assign"),
            "fn f() {\n\
                 let mut m = HashMap::new();\n\
                 for (k, v) in &m { push(k); }\n\
                 let n = m.values().count();\n\
                 let mut v: Vec<_> = m.keys().collect();\n\
                 v.sort_unstable();\n\
             }\n",
        );
        let findings = check_file(&f);
        let unordered: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "unordered-iteration")
            .collect();
        assert_eq!(unordered.len(), 1, "{findings:?}");
        assert_eq!(unordered[0].line, 3);
    }

    #[test]
    fn unordered_iteration_flags_chain_continuation_lines() {
        // The iteration suffix sits on a continuation line; the receiver is
        // the trailing identifier of the line above.
        let f = parse(
            "crates/assign/src/x.rs",
            Some("assign"),
            "fn f(index: &HashMap<u32, u32>) {\n\
                 let v: Vec<_> = index\n\
                     .keys()\n\
                     .collect::<Vec<_>>();\n\
                 consume(v);\n\
             }\n",
        );
        let findings = check_file(&f);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "unordered-iteration");
        assert_eq!(findings[0].line, 3, "the `.keys()` continuation line");
    }

    #[test]
    fn chain_continuation_sort_on_following_line_is_not_flagged() {
        let f = parse(
            "crates/assign/src/x.rs",
            Some("assign"),
            "fn f(index: &HashMap<u32, u32>) {\n\
                 let mut v: Vec<_> = index\n\
                     .keys()\n\
                     .collect::<Vec<_>>();\n\
                 v.sort_unstable();\n\
             }\n",
        );
        assert!(check_file(&f).is_empty(), "{:?}", check_file(&f));
    }

    #[test]
    fn long_chains_keep_the_statement_window_open_to_the_sink() {
        // `.sum()` sits past the five-line default window; chain
        // continuation lines keep the window open until the statement ends.
        let f = parse(
            "crates/assign/src/x.rs",
            Some("assign"),
            "fn f(index: &HashMap<u32, u32>) {\n\
                 let total: usize = index\n\
                     .values()\n\
                     .map(|v| *v as usize)\n\
                     .filter(|n| *n > 0)\n\
                     .map(|n| n * 2)\n\
                     .map(|n| n + 1)\n\
                     .sum();\n\
                 consume(total);\n\
             }\n",
        );
        assert!(check_file(&f).is_empty(), "{:?}", check_file(&f));
    }

    #[test]
    fn chain_continuation_respects_receiver_boundaries() {
        // `other.index` is some other value's field, not the tracked
        // binding — the same rule the single-line matcher applies.
        let f = parse(
            "crates/assign/src/x.rs",
            Some("assign"),
            "fn f(index: &HashMap<u32, u32>, other: &Thing) {\n\
                 let v: Vec<_> = other.index\n\
                     .keys()\n\
                     .collect::<Vec<_>>();\n\
                 consume(v);\n\
             }\n",
        );
        assert!(check_file(&f).is_empty(), "{:?}", check_file(&f));
    }

    #[test]
    fn rules_respect_crate_scoping() {
        let text = "fn f(a: f64, b: f64) { a.partial_cmp(&b); }\n";
        let in_graph = parse("crates/graph/src/x.rs", Some("graph"), text);
        assert_eq!(check_file(&in_graph)[0].rule, "unchecked-float-ordering");
        let in_predict = parse("crates/predict/src/x.rs", Some("predict"), text);
        assert!(check_file(&in_predict).is_empty());
        let relaxed = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        let in_obs = parse("crates/obs/src/x.rs", Some("obs"), relaxed);
        assert!(check_file(&in_obs).is_empty(), "the audited prefix");
        let in_net = parse("crates/net/src/x.rs", Some("net"), relaxed);
        assert_eq!(check_file(&in_net)[0].rule, "relaxed-atomic-audit");
    }
}
