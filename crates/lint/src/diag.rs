//! Diagnostics: findings and their text rendering.

use std::fmt;

/// One diagnostic, anchored to a file and 1-based line. Every finding fails
/// the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (kebab-case, as listed in `LINTS.md`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human explanation of the hazard at this site.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error[{}]: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        let f = Finding {
            rule: "relaxed-atomic-audit",
            path: "crates/x/src/lib.rs".into(),
            line: 7,
            message: "audit \"this\"".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/x/src/lib.rs:7: error[relaxed-atomic-audit]: audit \"this\""
        );
    }
}
