//! Typed diagnostics: every rule violation is a `Diagnostic` with a rule
//! code, a `file:line` anchor, and a human-readable message.

use std::fmt;

/// The linter's rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Every `unsafe` block / fn / impl is preceded by a `SAFETY:` (or
    /// doc `# Safety`) comment.
    R1Safety,
    /// No `unwrap()` / `expect()` / `panic!` / `todo!` in non-test library
    /// code of the serve-tier crates.
    R2Panic,
    /// `Ordering::Relaxed` on a protocol-manifest atomic requires an
    /// audited justification.
    R3Ordering,
    /// Nested lock acquisitions must respect the declared partial order.
    R4LockOrder,
    /// No wall-clock (`Instant::now` / `SystemTime`) inside the
    /// deterministic simulation twins.
    R5Determinism,
    /// A `pub` fn / const / static that no other source file names.
    R6DeadSurface,
    /// Meta rule: a `LINT-ALLOW` entry without a reason, or one that names
    /// no known rule.
    RAllow,
    /// Meta rule: a protocol-manifest entry that names no code in the tree
    /// (an atomic, file, helper or `fn` that is gone) and so checks nothing.
    RManifest,
}

impl Rule {
    pub fn code(self) -> &'static str {
        match self {
            Rule::R1Safety => "R1",
            Rule::R2Panic => "R2",
            Rule::R3Ordering => "R3",
            Rule::R4LockOrder => "R4",
            Rule::R5Determinism => "R5",
            Rule::R6DeadSurface => "R6",
            Rule::RAllow => "RA",
            Rule::RManifest => "RM",
        }
    }

    pub fn from_code(code: &str) -> Option<Rule> {
        match code.trim() {
            "R1" => Some(Rule::R1Safety),
            "R2" => Some(Rule::R2Panic),
            "R3" => Some(Rule::R3Ordering),
            "R4" => Some(Rule::R4LockOrder),
            "R5" => Some(Rule::R5Determinism),
            "R6" => Some(Rule::R6DeadSurface),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding, anchored to `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

impl Diagnostic {
    pub fn new(rule: Rule, file: impl Into<String>, line: u32, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            file: file.into(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: {}",
            self.rule.code(),
            self.file,
            self.line,
            self.message
        )
    }
}

/// Sorts diagnostics into the stable report order: file, then line, then
/// rule.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
}
