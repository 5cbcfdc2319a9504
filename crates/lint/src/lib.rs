//! graphitti-lint: repo-invariant static analysis for the Graphitti workspace.
//!
//! The workspace's correctness claims rest on manually maintained invariant
//! pairs the compiler cannot check: every AST shape needs a
//! `Plan::read_footprint` rule and a `ReferenceExecutor` mirror, the serving
//! path must not panic, and a library's public API must have a caller outside
//! tests.  This crate lexes the workspace sources (comments, strings and
//! `#[cfg(test)]` items stripped or flagged) and runs six token-stream rules over
//! them — see [`rules`] for the catalog.
//!
//! ## Suppression contract
//!
//! A finding is suppressed only by an in-source annotation on the same line or
//! the line directly above:
//!
//! ```text
//! // lint: allow(<rule-id>) -- <reason>
//! ```
//!
//! The reason is mandatory (a reasonless allow is itself a finding), the rule id
//! must be real (`unknown-rule` otherwise), and an allow that suppresses nothing
//! is flagged `unused-allow` so stale annotations can't accumulate.

pub mod lexer;
pub mod rules;

use lexer::LexedFile;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (one of [`rules::RULES`] or a meta rule).
    pub rule: &'static str,
    /// Path the finding is in (as given to [`analyze_sources`]).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// A lexed source file, path retained for the path-scoped rules.
pub struct SourceFile {
    pub path: String,
    pub lexed: LexedFile,
}

/// Meta rule: `lint: allow` without a `-- <reason>`.
pub const META_NO_REASON: &str = "allow-without-reason";
/// Meta rule: `lint: allow` naming a rule that does not exist.
pub const META_UNKNOWN_RULE: &str = "unknown-rule";
/// Meta rule: `lint: allow` that suppressed nothing.
pub const META_UNUSED: &str = "unused-allow";

/// What one run found.
pub struct Report {
    /// Surviving findings, sorted by `(path, line, rule)`.
    pub findings: Vec<Finding>,
    /// Bare-`pub` declarations in the library crates' non-test code.
    pub pub_declarations: usize,
}

fn lex_all(sources: &[(String, String)]) -> Vec<SourceFile> {
    sources
        .iter()
        .map(|(path, text)| SourceFile { path: path.clone(), lexed: lexer::lex(text) })
        .collect()
}

/// Run every rule over `(path, source)` pairs and apply the suppression contract.
/// `callers` are read only by [`rules::dead_pub`], as callers of the library crates:
/// no other rule runs on them and no finding points into them.
pub fn analyze_sources(sources: &[(String, String)], callers: &[(String, String)]) -> Report {
    let files = lex_all(sources);
    let (dead, pub_declarations) = rules::dead_pub(&files, &lex_all(callers));

    let mut raw: Vec<Finding> = dead;
    raw.extend(rules::footprint_exhaustiveness(&files));
    raw.extend(rules::metrics_conservation(&files));
    for file in &files {
        raw.extend(rules::no_panic_serving(file));
        raw.extend(rules::lock_discipline(file));
        raw.extend(rules::shim_compat(file));
    }

    // Apply suppressions: an allow on line L covers findings of its rule on L
    // (trailing comment) and L+1 (annotation on its own line above the code).
    let mut used: Vec<Vec<bool>> =
        files.iter().map(|f| vec![false; f.lexed.suppressions.len()]).collect();
    let mut findings: Vec<Finding> = Vec::new();
    for finding in raw {
        let Some(fi) = files.iter().position(|f| f.path == finding.path) else {
            findings.push(finding);
            continue;
        };
        let suppressed = files[fi].lexed.suppressions.iter().position(|s| {
            s.rule == finding.rule && (s.line == finding.line || s.line + 1 == finding.line)
        });
        match suppressed {
            Some(si) => used[fi][si] = true,
            None => findings.push(finding),
        }
    }

    // Meta rules keep the annotations themselves honest (and are never
    // suppressible).
    for (fi, file) in files.iter().enumerate() {
        for (si, s) in file.lexed.suppressions.iter().enumerate() {
            if !rules::RULES.contains(&s.rule.as_str()) {
                findings.push(Finding {
                    rule: META_UNKNOWN_RULE,
                    path: file.path.clone(),
                    line: s.line,
                    message: format!("`lint: allow({})` names no known rule", s.rule),
                });
                continue;
            }
            if !s.has_reason {
                findings.push(Finding {
                    rule: META_NO_REASON,
                    path: file.path.clone(),
                    line: s.line,
                    message: format!(
                        "`lint: allow({})` needs a justification: `-- <reason>`",
                        s.rule
                    ),
                });
            }
            if !used[fi][si] {
                findings.push(Finding {
                    rule: META_UNUSED,
                    path: file.path.clone(),
                    line: s.line,
                    message: format!(
                        "`lint: allow({})` suppresses nothing — remove the stale annotation",
                        s.rule
                    ),
                });
            }
        }
    }

    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Report { findings, pub_declarations }
}
