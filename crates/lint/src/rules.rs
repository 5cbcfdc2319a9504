//! The six repo-invariant rules.
//!
//! Every rule works on the lexed token stream (comments/strings stripped,
//! `#[cfg(test)]` flagged) plus a little shared structure: function items and
//! balanced-delimiter matching.  The rules deliberately hardcode repo facts —
//! the AST enum names, the serving-path file list, the service lock names, the
//! accounting file list — and each hardcoded table has a staleness guard that fires
//! when the source grows past what the table knows (for the lock names, the
//! `unused-allow` meta rule: a renamed lock stops matching, and the nesting site's
//! annotation then suppresses nothing).

use std::collections::{BTreeMap, HashSet};

use crate::lexer::{CommentKind, Token, TokenKind};
use crate::{Finding, SourceFile};

pub const R2: &str = "footprint-exhaustiveness";
pub const R3: &str = "no-panic-serving";
pub const R4: &str = "lock-discipline";
pub const R5: &str = "metrics-conservation";
pub const R6: &str = "shim-compat";
pub const R7: &str = "dead-pub";

/// Every suppressible rule id.
pub const RULES: &[&str] = &[R2, R3, R4, R5, R6, R7];

// ---------------------------------------------------------------------------
// Shared token-stream structure
// ---------------------------------------------------------------------------

/// One `fn` item: name, parameter and body token ranges (file-token indices).
struct FnItem {
    name: String,
    line: u32,
    is_test: bool,
    /// `None` for bodiless declarations (trait methods).
    body: Option<(usize, usize)>,
}

/// Index of the token closing the delimiter opened at `open` (`(`/`[`/`{`), or
/// `tokens.len()` if unbalanced.
fn matching(tokens: &[Token], open: usize) -> usize {
    let (o, c) = match tokens[open].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return tokens.len(),
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is(o) {
            depth += 1;
        } else if tokens[i].is(c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// Extract every `fn` item (including ones nested in `#[cfg(test)]` modules,
/// flagged via `is_test`).
fn fn_items(tokens: &[Token]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if !(tokens[i].is("fn") && tokens[i + 1].kind == TokenKind::Ident) {
            i += 1;
            continue;
        }
        let name = tokens[i + 1].text.clone();
        let line = tokens[i].line;
        let is_test = tokens[i].in_test;
        let mut j = i + 2;
        // Skip generic parameters between the name and the parameter list.
        if j < tokens.len() && tokens[j].is("<") {
            let mut angle = 0i32;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "<" => angle += 1,
                    "<<" => angle += 2,
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    _ => {}
                }
                j += 1;
                if angle <= 0 {
                    break;
                }
            }
        }
        if j >= tokens.len() || !tokens[j].is("(") {
            i += 1;
            continue;
        }
        let close_p = matching(tokens, j);
        if close_p >= tokens.len() {
            break;
        }
        // Return type / where clause carry no braces; the first `{` is the body.
        let mut k = close_p + 1;
        while k < tokens.len() && !tokens[k].is("{") && !tokens[k].is(";") {
            k += 1;
        }
        let body = if k < tokens.len() && tokens[k].is("{") {
            let close_b = matching(tokens, k);
            Some((k + 1, close_b.min(tokens.len())))
        } else {
            None
        };
        out.push(FnItem { name, line, is_test, body });
        i = k + 1;
    }
    out
}

fn file_with_suffix<'a>(files: &'a [SourceFile], suffix: &str) -> Option<&'a SourceFile> {
    files.iter().find(|f| f.path.ends_with(suffix))
}

// ---------------------------------------------------------------------------
// R2 · footprint-exhaustiveness
// ---------------------------------------------------------------------------

/// The AST enums whose variants must be handled exhaustively downstream.
const AST_ENUMS: &[&str] =
    &["Target", "ContentFilter", "ReferentFilter", "OntologyFilter", "GraphConstraint"];

/// Parse `pub enum NAME { ... }` variant names out of a token stream.
fn enum_variants(tokens: &[Token], name: &str) -> Vec<String> {
    let mut i = 0usize;
    while i + 2 < tokens.len() {
        if tokens[i].is("enum") && tokens[i + 1].text == name && tokens[i + 2].is("{") {
            let close = matching(tokens, i + 2);
            let mut variants = Vec::new();
            let mut j = i + 3;
            while j < close {
                // Skip attributes on the variant.
                if tokens[j].is("#") && j + 1 < close && tokens[j + 1].is("[") {
                    j = matching(tokens, j + 1) + 1;
                    continue;
                }
                if tokens[j].kind == TokenKind::Ident {
                    variants.push(tokens[j].text.clone());
                    j += 1;
                    // Skip the variant's payload, then the separating comma.
                    if j < close && (tokens[j].is("(") || tokens[j].is("{")) {
                        j = matching(tokens, j) + 1;
                    }
                    if j < close && tokens[j].is("=") {
                        // Discriminant: skip to the comma.
                        while j < close && !tokens[j].is(",") {
                            j += 1;
                        }
                    }
                    if j < close && tokens[j].is(",") {
                        j += 1;
                    }
                    continue;
                }
                j += 1;
            }
            return variants;
        }
        i += 1;
    }
    Vec::new()
}

/// Rule R2: every AST variant must appear by name in `Plan::read_footprint`
/// (referent filters), in the `ReferenceExecutor`, and in the plan executor; and
/// no match over an AST enum in those files may hide variants behind `_`.
pub fn footprint_exhaustiveness(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(ast) = file_with_suffix(files, "graphitti-query/src/ast.rs") else {
        return findings;
    };
    let mut enums: Vec<(&str, Vec<String>)> = Vec::new();
    for name in AST_ENUMS {
        enums.push((name, enum_variants(&ast.lexed.tokens, name)));
    }

    // Requirement A: read_footprint names every ReferentFilter variant.
    if let Some(plan) = file_with_suffix(files, "graphitti-query/src/plan.rs") {
        let fns = fn_items(&plan.lexed.tokens);
        let rf: Vec<&FnItem> = fns.iter().filter(|f| f.name == "read_footprint").collect();
        let referent_variants =
            enums.iter().find(|(n, _)| *n == "ReferentFilter").map(|(_, v)| v.clone());
        if let Some(variants) = referent_variants {
            if rf.is_empty() && !variants.is_empty() {
                findings.push(Finding {
                    rule: R2,
                    path: plan.path.clone(),
                    line: 1,
                    message: "no `read_footprint` function found — the lint cannot check \
                              footprint exhaustiveness"
                        .to_string(),
                });
            }
            for v in &variants {
                let named = rf.iter().any(|f| {
                    f.body.is_some_and(|(b0, b1)| {
                        plan.lexed.tokens[b0..b1].iter().any(|t| t.text == *v)
                    })
                });
                if !named {
                    if let Some(f) = rf.first() {
                        findings.push(Finding {
                            rule: R2,
                            path: plan.path.clone(),
                            line: f.line,
                            message: format!(
                                "ReferentFilter::{v} has no arm in Plan::read_footprint — a \
                                 query using it would invalidate (and cache) unsoundly"
                            ),
                        });
                    }
                }
            }
        }
        findings.extend(wildcard_arms(plan, &enums));
    }

    // Requirement B: the reference executor and the plan executor each mention
    // every variant of every AST enum somewhere in a function body.
    for suffix in ["graphitti-query/src/reference.rs", "graphitti-query/src/exec.rs"] {
        let Some(file) = file_with_suffix(files, suffix) else { continue };
        let fns = fn_items(&file.lexed.tokens);
        for (enum_name, variants) in &enums {
            for v in variants {
                let named = fns.iter().any(|f| {
                    !f.is_test
                        && f.body.is_some_and(|(b0, b1)| {
                            file.lexed.tokens[b0..b1].iter().any(|t| t.text == *v)
                        })
                });
                if !named {
                    findings.push(Finding {
                        rule: R2,
                        path: file.path.clone(),
                        line: 1,
                        message: format!(
                            "{enum_name}::{v} is never handled by name in this executor — \
                             add an arm (wildcards don't count) or the variant silently \
                             falls through"
                        ),
                    });
                }
            }
        }
        findings.extend(wildcard_arms(file, &enums));
    }
    findings
}

/// Flag `_` arms in matches whose sibling patterns name an AST enum (outside tests).
fn wildcard_arms(file: &SourceFile, enums: &[(&str, Vec<String>)]) -> Vec<Finding> {
    let tokens = &file.lexed.tokens;
    let mut findings = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].is("match") && tokens[i].kind == TokenKind::Ident && !tokens[i].in_test) {
            i += 1;
            continue;
        }
        // Scrutinee: up to the `{` at zero paren/bracket depth.
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= tokens.len() {
            break;
        }
        let body_close = matching(tokens, j);
        // Split arms: pattern tokens up to `=>` at depth 1.
        let mut arm_patterns: Vec<(usize, usize)> = Vec::new();
        let mut k = j + 1;
        while k < body_close {
            let pat_start = k;
            let mut d = 0i32;
            while k < body_close {
                match tokens[k].text.as_str() {
                    "(" | "[" | "{" => d += 1,
                    ")" | "]" | "}" => d -= 1,
                    "=>" if d == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            if k >= body_close {
                break;
            }
            arm_patterns.push((pat_start, k));
            // Skip the arm value: a block, or an expression up to `,` at depth 0.
            k += 1;
            if k < body_close && tokens[k].is("{") {
                k = matching(tokens, k) + 1;
            } else {
                let mut d = 0i32;
                while k < body_close {
                    match tokens[k].text.as_str() {
                        "(" | "[" | "{" => d += 1,
                        ")" | "]" | "}" => d -= 1,
                        "," if d == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
            }
            if k < body_close && tokens[k].is(",") {
                k += 1;
            }
        }
        let names_ast_enum = arm_patterns.iter().any(|&(s, e)| {
            let mut m = s;
            while m + 1 < e {
                if tokens[m + 1].is("::") && enums.iter().any(|(n, _)| tokens[m].text == **n) {
                    return true;
                }
                m += 1;
            }
            false
        });
        if names_ast_enum {
            for &(s, e) in &arm_patterns {
                if e - s == 1 && tokens[s].is("_") {
                    findings.push(Finding {
                        rule: R2,
                        path: file.path.clone(),
                        line: tokens[s].line,
                        message: "wildcard `_` arm in a match over an AST enum — a newly added \
                                  variant would silently fall through; spell the variants out"
                            .to_string(),
                    });
                }
            }
        }
        i = j + 1;
    }
    findings
}

// ---------------------------------------------------------------------------
// R3 · no-panic-serving
// ---------------------------------------------------------------------------

/// The serving path — code in these files must not panic: every source file of the
/// two serving crates that [`NOT_SERVING_FILES`] does not list (so a file added or
/// split off there is held to the rule until it is classified out — the table cannot
/// go stale silently), plus core's durability files — the whole recovery path: the
/// log, the codec that decodes it, the study loader and recovery itself.
const SERVING_CRATE_DIRS: &[&str] = &["graphitti-query/src/", "graphitti-net/src/"];
const SERVING_CORE_FILES: &[&str] = &[
    "graphitti-core/src/wal.rs",
    "graphitti-core/src/recovery.rs",
    "graphitti-core/src/study.rs",
    "graphitti-core/src/codec.rs",
];

/// Files of the serving crates deliberately **not** held to the rule: the query
/// model, planner, oracle and set kernels run before or beside the serving path and
/// report misuse by panicking or through their own typed errors.  The DSL parser is
/// held to it: it decodes wire text.
const NOT_SERVING_FILES: &[&str] = &[
    "graphitti-query/src/ast.rs",
    "graphitti-query/src/plan.rs",
    "graphitti-query/src/reference.rs",
    "graphitti-query/src/result.rs",
    "graphitti-query/src/setops.rs",
];

fn on_serving_path(path: &str) -> bool {
    let listed = |table: &[&str]| table.iter().any(|s| path.ends_with(s));
    listed(SERVING_CORE_FILES)
        || (SERVING_CRATE_DIRS.iter().any(|dir| path.contains(dir)) && !listed(NOT_SERVING_FILES))
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that can directly precede `[` without it being an indexing expression.
const NON_INDEX_PREV: &[&str] = &[
    "if", "else", "match", "return", "in", "mut", "ref", "move", "loop", "while", "for", "break",
    "continue", "as", "dyn", "impl", "where", "let", "static", "const", "crate", "pub", "use",
    "fn", "enum", "struct", "trait", "type", "mod", "unsafe", "await", "async", "box", "yield",
];

/// Rule R3: no `unwrap`/`expect`/panic macros/slice indexing in serving-path files
/// outside `#[cfg(test)]`.
pub fn no_panic_serving(file: &SourceFile) -> Vec<Finding> {
    if !on_serving_path(&file.path) {
        return Vec::new();
    }
    let tokens = &file.lexed.tokens;
    let mut findings = Vec::new();
    let mut push = |line: u32, message: String| {
        findings.push(Finding { rule: R3, path: file.path.clone(), line, message });
    };
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].in_test {
            i += 1;
            continue;
        }
        let t = &tokens[i];
        if t.is(".")
            && i + 2 < tokens.len()
            && (tokens[i + 1].is("unwrap") || tokens[i + 1].is("expect"))
            && tokens[i + 2].is("(")
        {
            push(
                tokens[i + 1].line,
                format!(
                    "`.{}()` on the serving path — return a typed error instead, or annotate \
                     the invariant that makes it unreachable",
                    tokens[i + 1].text
                ),
            );
            i += 2;
            continue;
        }
        if t.kind == TokenKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && i + 1 < tokens.len()
            && tokens[i + 1].is("!")
        {
            push(t.line, format!("`{}!` on the serving path", t.text));
            i += 2;
            continue;
        }
        if t.is("[") && i > 0 {
            let prev = &tokens[i - 1];
            let indexing = prev.is(")")
                || prev.is("]")
                || (prev.kind == TokenKind::Ident && !NON_INDEX_PREV.contains(&prev.text.as_str()));
            if indexing {
                push(
                    t.line,
                    "slice/array indexing on the serving path can panic — use `.get()` or \
                     annotate the bound that holds"
                        .to_string(),
                );
            }
        }
        i += 1;
    }
    findings
}

// ---------------------------------------------------------------------------
// R4 · lock-discipline
// ---------------------------------------------------------------------------

/// The named service locks whose nesting we track.
const LOCK_NAMES: &[&str] = &["queue", "cache", "current", "wal", "handles", "slot", "write_half"];

struct Acquisition {
    idx: usize,
    name: String,
    line: u32,
    /// Token index (within the body) past which the guard is dead.
    end: usize,
}

/// Rule R4: flag acquiring one named service lock while another's guard is live in
/// the same scope, and `thread::sleep` outside tests/benches.
pub fn lock_discipline(file: &SourceFile) -> Vec<Finding> {
    let relevant = file.path.contains("graphitti-query/src/")
        || file.path.contains("graphitti-core/src/")
        || file.path.contains("graphitti-net/src/");
    if !relevant {
        return Vec::new();
    }
    let tokens = &file.lexed.tokens;
    let mut findings = Vec::new();
    // thread::sleep in non-test code.
    let mut i = 0usize;
    while i + 2 < tokens.len() {
        if tokens[i].is("thread")
            && tokens[i + 1].is("::")
            && tokens[i + 2].is("sleep")
            && !tokens[i].in_test
        {
            findings.push(Finding {
                rule: R4,
                path: file.path.clone(),
                line: tokens[i].line,
                message: "`thread::sleep` in non-bench library code stalls a worker — use the \
                          condvar/deadline machinery, or annotate why a real sleep is required"
                    .to_string(),
            });
        }
        i += 1;
    }
    for f in fn_items(tokens) {
        if f.is_test {
            continue;
        }
        let Some((b0, b1)) = f.body else { continue };
        let body = &tokens[b0..b1];
        let acqs = acquisitions(body);
        for a in 0..acqs.len() {
            for b in &acqs[a + 1..] {
                let a = &acqs[a];
                if b.idx < a.end && b.name != a.name {
                    findings.push(Finding {
                        rule: R4,
                        path: file.path.clone(),
                        line: b.line,
                        message: format!(
                            "acquiring `{}` while the `{}` guard from line {} is live — nested \
                             service locks deadlock unless the order is documented",
                            b.name, a.name, a.line
                        ),
                    });
                }
            }
        }
    }
    findings
}

/// Every named-lock acquisition in a fn body, with a conservative guard lifetime.
fn acquisitions(body: &[Token]) -> Vec<Acquisition> {
    // Brace depth before each token.
    let mut depth = vec![0i32; body.len()];
    let mut d = 0i32;
    for (i, t) in body.iter().enumerate() {
        if t.is("}") {
            d -= 1;
        }
        depth[i] = d;
        if t.is("{") {
            d += 1;
        }
    }
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < body.len() {
        let acq = lock_acquisition_at(body, i);
        let Some(name) = acq else {
            i += 1;
            continue;
        };
        out.push(Acquisition { idx: i, name, line: body[i].line, end: guard_end(body, &depth, i) });
        i += 1;
    }
    out
}

/// If tokens at `i` start a named-lock acquisition, its lock name.
fn lock_acquisition_at(body: &[Token], i: usize) -> Option<String> {
    let t = &body[i];
    if t.kind != TokenKind::Ident {
        return None;
    }
    // `<name>.lock()` / `.read()` / `.write()`
    if LOCK_NAMES.contains(&t.text.as_str())
        && i + 3 < body.len()
        && body[i + 1].is(".")
        && (body[i + 2].is("lock") || body[i + 2].is("read") || body[i + 2].is("write"))
        && body[i + 3].is("(")
    {
        return Some(t.text.clone());
    }
    // `<name>_guard()` / `<name>_guard_mut()` helper calls.
    if i + 1 < body.len() && body[i + 1].is("(") {
        let stem = t.text.strip_suffix("_guard_mut").or_else(|| t.text.strip_suffix("_guard"));
        if let Some(stem) = stem {
            if LOCK_NAMES.contains(&stem) {
                return Some(stem.to_string());
            }
        }
    }
    None
}

/// First body index past which the guard acquired at `i` is dead.
fn guard_end(body: &[Token], depth: &[i32], i: usize) -> usize {
    let d = depth[i];
    // Statement context: scan back to the nearest `;` / `{` / `}`.
    let mut s = i;
    let mut binder: Option<String> = None;
    let mut cond = false;
    while s > 0 {
        let t = &body[s - 1];
        if t.is(";") || t.is("{") || t.is("}") {
            break;
        }
        match t.text.as_str() {
            "if" | "while" | "match" | "for" => cond = true,
            "let" => {
                let mut b = s; // token after `let`
                if b < body.len() && body[b].is("mut") {
                    b += 1;
                }
                if b < body.len() && body[b].kind == TokenKind::Ident {
                    binder = Some(body[b].text.clone());
                }
            }
            _ => {}
        }
        s -= 1;
    }
    if cond {
        // Guard lives through the block attached to the if/while/match.
        let mut k = i;
        while k < body.len() && !(body[k].is("{") && depth[k] == d) {
            k += 1;
        }
        if k < body.len() {
            let mut bd = 0i32;
            while k < body.len() {
                if body[k].is("{") {
                    bd += 1;
                } else if body[k].is("}") {
                    bd -= 1;
                    if bd == 0 {
                        return k;
                    }
                }
                k += 1;
            }
        }
        return body.len();
    }
    if let Some(binder) = binder {
        // Let-bound guard: lives until its scope closes or an explicit drop.
        let mut k = i + 1;
        while k < body.len() {
            if depth[k] < d {
                return k;
            }
            if body[k].is("drop")
                && k + 2 < body.len()
                && body[k + 1].is("(")
                && body[k + 2].text == binder
            {
                return k;
            }
            k += 1;
        }
        return body.len();
    }
    // Temporary guard: dead at the end of the statement.
    let mut k = i + 1;
    while k < body.len() {
        if body[k].is(";") && depth[k] == d {
            return k;
        }
        if depth[k] < d {
            return k;
        }
        k += 1;
    }
    body.len()
}

// ---------------------------------------------------------------------------
// R5 · metrics-conservation
// ---------------------------------------------------------------------------

const CONSERVED: &[&str] = &["submitted", "completed", "shed", "failed"];

/// Rule R5: any counter updated alongside submission accounting (in a fn that also
/// bumps submitted/completed/shed/failed) must be referenced from at least one
/// conservation assertion site (a test asserting `shed + completed + failed ==
/// submitted`), so new outcome counters can't silently leak submissions.
pub fn metrics_conservation(files: &[SourceFile]) -> Vec<Finding> {
    let mut accounting: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for file in files.iter().filter(|f| SERVING_CRATE_DIRS.iter().any(|d| f.path.contains(d))) {
        for f in fn_items(&file.lexed.tokens) {
            if f.is_test {
                continue;
            }
            let Some((b0, b1)) = f.body else { continue };
            let counters = fetch_add_counters(&file.lexed.tokens[b0..b1]);
            if !counters.iter().any(|(c, _)| CONSERVED.contains(&c.as_str())) {
                continue;
            }
            for (c, line) in counters {
                accounting.entry(c).or_insert((file.path.clone(), line));
            }
        }
    }
    // Conservation sites: test fns anywhere asserting the sum identity.
    let mut site_idents: Vec<HashSet<String>> = Vec::new();
    for file in files {
        for f in fn_items(&file.lexed.tokens) {
            let Some((b0, b1)) = f.body else { continue };
            let in_test_file = file.path.contains("/tests/");
            if !(f.is_test || in_test_file) {
                continue;
            }
            let body = &file.lexed.tokens[b0..b1];
            if is_conservation_site(body) {
                site_idents.push(body.iter().map(|t| t.text.clone()).collect());
            }
        }
    }
    let mut findings = Vec::new();
    if accounting.is_empty() {
        // Staleness guard: tests assert conservation, yet no file this rule reads bumps
        // a conserved counter — the accounting moved out from under it, and returning
        // clean here would turn the rule off.  Reported against the rule's own scope.
        if !site_idents.is_empty() {
            findings.push(Finding {
                rule: R5,
                path: "crates/lint/src/rules.rs".to_string(),
                line: 1,
                message: "conservation is asserted but no submission accounting was found in \
                          the serving crates — update the directories this rule reads"
                    .to_string(),
            });
        }
        return findings;
    }
    if site_idents.is_empty() {
        let (path, line) = accounting.values().next().cloned().unwrap_or_default();
        findings.push(Finding {
            rule: R5,
            path,
            line,
            message: "submission accounting exists but no conservation assertion site \
                      (`shed + completed + failed == submitted`) was found in any test"
                .to_string(),
        });
        return findings;
    }
    for (counter, (path, line)) in accounting {
        let referenced = site_idents.iter().any(|s| s.contains(&counter));
        if !referenced {
            findings.push(Finding {
                rule: R5,
                path,
                line,
                message: format!(
                    "counter `{counter}` is updated alongside submission accounting but no \
                     conservation assertion site references it — extend the \
                     shed+completed+failed==submitted checks"
                ),
            });
        }
    }
    findings
}

/// `(counter, line)` for every `<counter>.fetch_add(...)` in a range.
fn fetch_add_counters(body: &[Token]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 2 < body.len() {
        if body[i].kind == TokenKind::Ident && body[i + 1].is(".") && body[i + 2].is("fetch_add") {
            out.push((body[i].text.clone(), body[i].line));
        }
        i += 1;
    }
    out
}

/// A ~30-token window naming all four conserved counters with at least two `+`s.
fn is_conservation_site(body: &[Token]) -> bool {
    let n = body.len();
    for start in 0..n {
        let window = &body[start..(start + 30).min(n)];
        let has = |s: &str| window.iter().any(|t| t.text == s);
        if has("shed")
            && has("completed")
            && has("failed")
            && has("submitted")
            && window.iter().filter(|t| t.is("+")).count() >= 2
        {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// R6 · shim-compat
// ---------------------------------------------------------------------------

/// Rule R6: inside `proptest!` bodies, forbid doc comments (the shim's macro
/// parser chokes on `///`) and inclusive-range strategies in parameter position
/// (the shim only implements half-open sampling).
pub fn shim_compat(file: &SourceFile) -> Vec<Finding> {
    let tokens = &file.lexed.tokens;
    let mut findings = Vec::new();
    let mut i = 0usize;
    while i + 2 < tokens.len() {
        if !(tokens[i].is("proptest") && tokens[i + 1].is("!") && tokens[i + 2].is("{")) {
            i += 1;
            continue;
        }
        let open = i + 2;
        let close = matching(tokens, open);
        let (start_line, end_line) = (tokens[open].line, tokens[close.min(tokens.len() - 1)].line);
        for c in &file.lexed.comments {
            if c.kind == CommentKind::Doc && c.line >= start_line && c.line <= end_line {
                findings.push(Finding {
                    rule: R6,
                    path: file.path.clone(),
                    line: c.line,
                    message: "doc comment inside a `proptest!` body breaks the proptest shim's \
                              macro parser — use `//`"
                        .to_string(),
                });
            }
        }
        // Inclusive ranges in strategy position: inside fn parameter lists.
        let mut j = open + 1;
        while j + 2 < close {
            if tokens[j].is("fn") && tokens[j + 1].kind == TokenKind::Ident {
                let mut p = j + 2;
                while p < close && !tokens[p].is("(") {
                    p += 1;
                }
                if p < close {
                    let close_p = matching(tokens, p);
                    let mut q = p;
                    while q < close_p {
                        if tokens[q].is("..=") {
                            findings.push(Finding {
                                rule: R6,
                                path: file.path.clone(),
                                line: tokens[q].line,
                                message: "inclusive range strategy in a `proptest!` parameter — \
                                          the shim only samples half-open ranges; use `a..b+1`"
                                    .to_string(),
                            });
                        }
                        q += 1;
                    }
                    j = close_p;
                }
            }
            j += 1;
        }
        i = close + 1;
    }
    findings
}

// ---------------------------------------------------------------------------
// R7 · dead-pub
// ---------------------------------------------------------------------------

/// Crates under `crates/` that are not libraries of the system: the lint itself, the
/// bench harness and the stand-in shims.
const NOT_LIBRARY_CRATES: &[&str] = &["lint", "bench", "shims"];

/// The library crate whose `src/` holds `path` (`crates/<name>/src/…`), if any.
fn library_src(path: &str) -> Option<&str> {
    let (name, rest) = path.strip_prefix("crates/")?.split_once('/')?;
    (rest.starts_with("src/") && !NOT_LIBRARY_CRATES.contains(&name)).then_some(name)
}

/// Every bare-`pub` declaration outside `#[cfg(test)]`: how many there are, and the
/// `fn` / `const` / `static` ones among them as `(name, line, is_fn)`.
fn pub_items(tokens: &[Token]) -> (usize, Vec<(&str, u32, bool)>) {
    let mut count = 0;
    let mut items = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is("pub") || t.in_test || tokens.get(i + 1).is_some_and(|n| n.is("(")) {
            continue;
        }
        count += 1;
        // Skip the qualifiers of `pub const unsafe extern "C" fn`; a `const` that a
        // name follows is the item itself.
        let mut j = i + 1;
        let is_fn = loop {
            let Some(q) = tokens.get(j) else { break None };
            j += 1;
            let named = tokens.get(j).is_some_and(|n| {
                n.kind == TokenKind::Ident
                    && !["fn", "async", "unsafe", "extern"].contains(&&*n.text)
            });
            match q.text.as_str() {
                "fn" => break Some(true),
                "static" => {
                    j += usize::from(tokens.get(j).is_some_and(|m| m.is("mut")));
                    break Some(false);
                }
                "const" if named => break Some(false),
                "const" | "async" | "unsafe" | "extern" => {}
                _ if q.kind == TokenKind::Str => {}
                _ => break None,
            }
        };
        if let (Some(is_fn), Some(name)) = (is_fn, tokens.get(j)) {
            if name.kind == TokenKind::Ident && !name.is("_") {
                items.push((name.text.as_str(), name.line, is_fn));
            }
        }
    }
    (count, items)
}

/// Whether the identifier at `i` calls or names a function: `name(` (which covers
/// `.name(`), `::name` or `name::<` — and not the `fn name` that defines one.
fn is_call(tokens: &[Token], i: usize) -> bool {
    let text = |k: usize| tokens.get(k).map(|t| t.text.as_str());
    let prev = i.checked_sub(1).and_then(text);
    prev != Some("fn")
        && (text(i + 1) == Some("(")
            || prev == Some("::")
            || (text(i + 1) == Some("::") && text(i + 2) == Some("<")))
}

/// Whether the identifier at `i` names a const or static other than where one is
/// declared (`const NAME`, `static NAME`, `static mut NAME`).
fn is_name(tokens: &[Token], i: usize) -> bool {
    let before = |n: usize| i.checked_sub(n).and_then(|k| tokens.get(k)).map(|t| &*t.text);
    let declared = matches!(before(1), Some("const" | "static"))
        || (before(1) == Some("mut") && before(2) == Some("static"));
    !declared
}

/// Per token, whether it sits inside a `use … ;` declaration: a path a module
/// imports or re-exports is not a call of what it names.
fn in_use(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is("use") {
            while i < tokens.len() && !tokens[i].is(";") {
                mask[i] = true;
                i += 1;
            }
        }
        i += 1;
    }
    mask
}

/// Whether `path` is under a `tests/` directory: an integration test, never a caller
/// in the test-only reading.
fn under_tests(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

/// What one file uses outside `use` declarations, as `(name, is_call)`: a call of a
/// `fn` or a naming of a const or static.
struct Uses<'a> {
    /// The library crate whose `src/` the file is in.
    crate_src: Option<&'a str>,
    /// Every use.
    all: HashSet<(&'a str, bool)>,
    /// The uses in non-test code (none for a file under `tests/`).
    live: HashSet<(&'a str, bool)>,
}

fn uses(file: &SourceFile) -> Uses<'_> {
    let tokens = &file.lexed.tokens;
    let imported = in_use(tokens);
    let test_file = under_tests(&file.path);
    let crate_src = library_src(&file.path);
    let (mut all, mut live) = (HashSet::new(), HashSet::new());
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || imported[i] {
            continue;
        }
        for (hit, as_call) in [(is_call(tokens, i), true), (is_name(tokens, i), false)] {
            if hit {
                all.insert((&*t.text, as_call));
                if !test_file && !t.in_test {
                    live.insert((&*t.text, as_call));
                }
            }
        }
    }
    Uses { crate_src, all, live }
}

/// Rule R7: a `pub fn` / `pub const` / `pub static` of a library crate that is not
/// called (a `fn`) or named (a `const` or `static`) where it should be.  Two readings:
///
/// - **cross-crate**: nothing outside that crate's `src/` uses it.  Callers are every
///   other file the lint reads: other crates' `src/` and `tests/`, the crate's own
///   `tests/` and `benches/`, the bench harness, the facade's `src/`, `tests/` and
///   `examples/`, and the end-to-end benchmark's `src/`.  The fix is to narrow the
///   item to `pub(crate)`; rustc's `dead_code` then reports it if nothing in its own
///   crate uses it either, and deleting that is the transitive part.
/// - **test-only**: no non-test code anywhere uses it, its own crate included.
///   Callers are the tokens outside `#[cfg(test)]` of every file not under a `tests/`
///   directory: the library crates' `src/`, the bench harness, the facade's `src/`
///   and `examples/`, and `benchmark/src/`.  What only tests reach is not part of
///   the system: it goes with the tests that check only it, or, when it is an
///   oracle or fault hook other crates' tests need, it carries
///   `// lint: allow(dead-pub) -- test oracle: <the test files that call it>`.
///
/// Tokens inside a `use … ;` declaration are no use in either reading: an import or
/// a `pub use` re-export calls nothing.  Matching is by name, so a same-named use
/// anywhere clears a declaration: the rule can miss dead code, never invent it.
/// There is no reachability analysis here.
///
/// Trait bodies and `impl Trait for` blocks cannot carry `pub`, so trait methods are
/// never declarations here.  Types and traits are out of scope: narrowing a type that a
/// public signature names fails to compile (E0446), so whether one can go is decided
/// by the signatures that name it, which this rule does narrow.
///
/// Also returns the count of bare-`pub` declarations of every kind in the library
/// crates' non-test code — the size of the public surface.
pub fn dead_pub(files: &[SourceFile], callers: &[SourceFile]) -> (Vec<Finding>, usize) {
    let readers: Vec<Uses> = files.iter().chain(callers).map(uses).collect();
    let mut findings = Vec::new();
    let mut declarations = 0;
    for file in files {
        let Some(owner) = library_src(&file.path) else { continue };
        let (count, items) = pub_items(&file.lexed.tokens);
        declarations += count;
        for (name, line, is_fn) in items {
            let used = (name, is_fn);
            let outside =
                readers.iter().any(|r| r.crate_src != Some(owner) && r.all.contains(&used));
            let live = readers.iter().any(|r| r.live.contains(&used));
            let what = if is_fn { "fn" } else { "const / static" };
            let message = if !outside {
                format!(
                    "pub {what} `{name}` has no caller outside crates/{owner}/src — narrow \
                     it to `pub(crate)`, then delete it if rustc reports it unused"
                )
            } else if !live {
                format!(
                    "pub {what} `{name}` has no caller outside tests — delete it with the \
                     tests that check only it, or mark a test oracle `// lint: \
                     allow(dead-pub) -- test oracle: <its callers>`"
                )
            } else {
                continue;
            };
            findings.push(Finding { rule: R7, path: file.path.clone(), line, message });
        }
    }
    (findings, declarations)
}
