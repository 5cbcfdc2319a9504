//! Fixture-based rule tests.
//!
//! For every rule the same triple is pinned: the violation fixture fires, the
//! reasoned `// lint: allow(<rule>) -- <reason>` twin is clean, and stripping
//! the reasons off that twin trips the `allow-without-reason` meta rule (the
//! suppression still applies, but the annotation itself becomes a finding).
//!
//! Fixtures live in `tests/fixtures/` and are lexed, never compiled; each is
//! analyzed under a synthetic repo path chosen to engage its rule's path scope.

use graphitti_lint::rules;
use graphitti_lint::{analyze_sources, Finding, META_NO_REASON, META_UNKNOWN_RULE, META_UNUSED};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{}", env!("CARGO_MANIFEST_DIR"), name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn run(sources: &[(&str, String)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> =
        sources.iter().map(|(p, s)| (p.to_string(), s.clone())).collect();
    analyze_sources(&owned)
}

/// Turn every `// lint: allow(rule) -- reason` into a reasonless `allow(rule)`.
fn strip_reasons(source: &str) -> String {
    source
        .lines()
        .map(|l| match (l.contains("lint: allow("), l.find(" -- ")) {
            (true, Some(cut)) => &l[..cut],
            _ => l,
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_fires(findings: &[Finding], rule: &str) {
    assert!(
        findings.iter().any(|f| f.rule == rule),
        "expected a [{rule}] finding, got: {findings:?}"
    );
}

fn assert_clean(findings: &[Finding]) {
    assert!(findings.is_empty(), "expected no findings, got: {findings:?}");
}

fn assert_reason_required(findings: &[Finding]) {
    assert!(
        findings.iter().any(|f| f.rule == META_NO_REASON),
        "expected an [{META_NO_REASON}] finding, got: {findings:?}"
    );
}

// --- R2 · footprint-exhaustiveness ------------------------------------------

const AST: &str = "crates/graphitti-query/src/ast.rs";
const PLAN: &str = "crates/graphitti-query/src/plan.rs";

#[test]
fn r2_violation_fires() {
    let findings = run(&[(AST, fixture("r2_ast.rs")), (PLAN, fixture("r2_plan_violation.rs"))]);
    assert_fires(&findings, rules::R2);
}

#[test]
fn r2_reasoned_allow_suppresses() {
    assert_clean(&run(&[(AST, fixture("r2_ast.rs")), (PLAN, fixture("r2_plan_allowed.rs"))]));
}

#[test]
fn r2_reasonless_allow_fails() {
    let findings =
        run(&[(AST, fixture("r2_ast.rs")), (PLAN, strip_reasons(&fixture("r2_plan_allowed.rs")))]);
    assert_reason_required(&findings);
}

// --- R3 · no-panic-serving ---------------------------------------------------

const SERVICE: &str = "crates/graphitti-query/src/service.rs";

#[test]
fn r3_violation_fires() {
    assert_fires(&run(&[(SERVICE, fixture("r3_violation.rs"))]), rules::R3);
}

#[test]
fn r3_reasoned_allow_suppresses() {
    assert_clean(&run(&[(SERVICE, fixture("r3_allowed.rs"))]));
}

#[test]
fn r3_reasonless_allow_fails() {
    assert_reason_required(&run(&[(SERVICE, strip_reasons(&fixture("r3_allowed.rs")))]));
}

/// Staleness guard: a file the tables have never heard of is on the serving path as
/// soon as it sits in a serving crate, until it is explicitly classified out.
#[test]
fn r3_new_file_in_a_serving_crate_is_held_to_the_rule() {
    let unlisted = "crates/graphitti-query/src/brand_new.rs";
    assert_fires(&run(&[(unlisted, fixture("r3_violation.rs"))]), rules::R3);
    assert_clean(&run(&[(PLAN, fixture("r3_violation.rs"))]));
}

// --- R4 · lock-discipline ----------------------------------------------------

#[test]
fn r4_violation_fires() {
    assert_fires(&run(&[(SERVICE, fixture("r4_violation.rs"))]), rules::R4);
}

#[test]
fn r4_reasoned_allow_suppresses() {
    assert_clean(&run(&[(SERVICE, fixture("r4_allowed.rs"))]));
}

#[test]
fn r4_reasonless_allow_fails() {
    assert_reason_required(&run(&[(SERVICE, strip_reasons(&fixture("r4_allowed.rs")))]));
}

// --- R5 · metrics-conservation ----------------------------------------------

const METRICS_TEST: &str = "crates/graphitti-query/tests/metrics.rs";

#[test]
fn r5_violation_fires() {
    let findings = run(&[
        (SERVICE, fixture("r5_service_violation.rs")),
        (METRICS_TEST, fixture("r5_conservation.rs")),
    ]);
    assert_fires(&findings, rules::R5);
}

#[test]
fn r5_reasoned_allow_suppresses() {
    let findings = run(&[
        (SERVICE, fixture("r5_service_allowed.rs")),
        (METRICS_TEST, fixture("r5_conservation.rs")),
    ]);
    assert_clean(&findings);
}

#[test]
fn r5_reasonless_allow_fails() {
    let findings = run(&[
        (SERVICE, strip_reasons(&fixture("r5_service_allowed.rs"))),
        (METRICS_TEST, fixture("r5_conservation.rs")),
    ]);
    assert_reason_required(&findings);
}

/// Staleness guard: the same accounting moved to a file the rule does not read —
/// finding none at all while a test asserts conservation is itself a finding.
#[test]
fn r5_accounting_outside_the_file_list_fires() {
    let findings = run(&[
        ("crates/graphitti-query/src/exec.rs", fixture("r5_service_violation.rs")),
        (METRICS_TEST, fixture("r5_conservation.rs")),
    ]);
    assert_fires(&findings, rules::R5);
}

// --- R6 · shim-compat --------------------------------------------------------

const PROPS: &str = "crates/graphitti-query/tests/props.rs";

#[test]
fn r6_violation_fires() {
    assert_fires(&run(&[(PROPS, fixture("r6_violation.rs"))]), rules::R6);
}

#[test]
fn r6_reasoned_allow_suppresses() {
    assert_clean(&run(&[(PROPS, fixture("r6_allowed.rs"))]));
}

#[test]
fn r6_reasonless_allow_fails() {
    assert_reason_required(&run(&[(PROPS, strip_reasons(&fixture("r6_allowed.rs")))]));
}

// --- Meta: stale allows ------------------------------------------------------

#[test]
fn stale_allow_is_flagged() {
    let source = "// lint: allow(no-panic-serving) -- nothing here panics\nfn fine() {}\n";
    let findings = run(&[(SERVICE, source.to_string())]);
    assert!(
        findings.iter().any(|f| f.rule == META_UNUSED),
        "expected an [{META_UNUSED}] finding, got: {findings:?}"
    );
    // An allow left behind for a rule that no longer exists (dirty sets are enforced
    // by `Versioned::write`, not linted) names no known rule.
    let source = "// lint: allow(dirty-set-soundness) -- a rule that is gone\nfn fine() {}\n";
    assert_fires(&run(&[(SERVICE, source.to_string())]), META_UNKNOWN_RULE);
}
