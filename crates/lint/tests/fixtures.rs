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

fn owned(sources: &[(&str, String)]) -> Vec<(String, String)> {
    sources.iter().map(|(p, s)| (p.to_string(), s.clone())).collect()
}

fn run(sources: &[(&str, String)]) -> Vec<Finding> {
    analyze_sources(&owned(sources), &[]).findings
}

/// `run`, plus files read only as callers (the trees outside `crates/` and the benches).
fn run_with_callers(sources: &[(&str, String)], callers: &[(&str, String)]) -> Vec<Finding> {
    analyze_sources(&owned(sources), &owned(callers)).findings
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

// --- R7 · dead-pub ------------------------------------------------------------

const AGRAPH_LIB: &str = "crates/agraph/src/lib.rs";

/// The names `dead-pub` reports whose message contains `reading`, in order.
fn dead_in<'a>(findings: &'a [Finding], reading: &str) -> Vec<&'a str> {
    let names = findings.iter().filter(|f| f.rule == rules::R7 && f.message.contains(reading));
    names.map(|f| f.message.split('`').nth(1).unwrap_or_default()).collect()
}

/// The names `dead-pub` reports, in order.
fn dead(findings: &[Finding]) -> Vec<&str> {
    dead_in(findings, "")
}

/// The names the test-only reading reports, in order.
fn test_only(findings: &[Finding]) -> Vec<&str> {
    dead_in(findings, "no caller outside tests")
}

#[test]
fn r7_violation_fires() {
    // The crate's own call of `lonely`, `pub(crate)` items and `#[cfg(test)]` code
    // neither clear nor raise a finding; a `fn` definition elsewhere is not a call.
    let elsewhere = ("crates/graphitti-core/src/system.rs", "fn lonely() {}".to_string());
    let findings = run(&[(AGRAPH_LIB, fixture("dead_pub_decls.rs")), elsewhere]);
    assert_eq!(dead(&findings), ["lonely", "helper", "LIMIT"], "{findings:?}");
    let report = analyze_sources(&owned(&[(AGRAPH_LIB, fixture("dead_pub_decls.rs"))]), &[]);
    assert_eq!(report.pub_declarations, 4, "Graph, lonely, helper, LIMIT");
}

const CALLS: &str = "fn f(g: &Graph) -> usize { g.lonely() + agraph::helper() + agraph::LIMIT }";

#[test]
fn r7_callers_outside_the_crate_src_clear_it() {
    let elsewhere = ("crates/graphitti-core/src/system.rs", CALLS.to_string());
    assert_clean(&run(&[(AGRAPH_LIB, fixture("dead_pub_decls.rs")), elsewhere]));
    // The benchmark is read only as a caller, never linted itself.
    let bench = [("benchmark/src/sut.rs", format!("pub fn unused() {{}}\n{CALLS}"))];
    assert_clean(&run_with_callers(&[(AGRAPH_LIB, fixture("dead_pub_decls.rs"))], &bench));
}

#[test]
fn r7_a_caller_in_cfg_test_code_is_a_test() {
    let gated = format!("#[cfg(test)]\nmod tests {{\n    {CALLS}\n}}\n");
    let findings = run(&[
        (AGRAPH_LIB, fixture("dead_pub_decls.rs")),
        ("crates/graphitti-core/src/system.rs", gated),
    ]);
    assert_eq!(test_only(&findings), ["helper", "LIMIT"], "{findings:?}");
    assert_eq!(dead(&findings), ["helper", "LIMIT"], "{findings:?}");
}

#[test]
fn r7_a_caller_under_tests_is_a_test() {
    // The crate's own tests and the facade's tests alike.
    let findings = run(&[
        (AGRAPH_LIB, fixture("dead_pub_decls.rs")),
        ("crates/agraph/tests/graph.rs", CALLS.to_string()),
    ]);
    assert_eq!(test_only(&findings), ["helper", "LIMIT"], "{findings:?}");
    let facade_tests = [("tests/pipeline.rs", CALLS.to_string())];
    let findings = run_with_callers(&[(AGRAPH_LIB, fixture("dead_pub_decls.rs"))], &facade_tests);
    assert_eq!(test_only(&findings), ["helper", "LIMIT"], "{findings:?}");
}

#[test]
fn r7_its_own_crates_live_code_is_a_caller() {
    // `helper` calls `lonely` in the crate's own non-test code: once a test clears the
    // cross-crate reading, the test-only reading has its caller too.
    let findings = run(&[
        (AGRAPH_LIB, fixture("dead_pub_decls.rs")),
        ("crates/agraph/tests/graph.rs", "fn t(g: &agraph::Graph) { g.lonely(); }".to_string()),
    ]);
    assert_eq!(dead(&findings), ["helper", "LIMIT"], "{findings:?}");
}

#[test]
fn r7_a_use_path_is_not_a_call() {
    let reexports = "pub use agraph::{helper, Graph, LIMIT};\nuse agraph::lonely;\n";
    let findings = run_with_callers(
        &[
            (AGRAPH_LIB, fixture("dead_pub_decls.rs")),
            ("crates/graphitti-core/src/lib.rs", reexports.to_string()),
        ],
        &[("src/lib.rs", "pub use agraph::helper;".to_string())],
    );
    assert_eq!(dead(&findings), ["lonely", "helper", "LIMIT"], "{findings:?}");
    // An import followed by a call is a caller through the call.
    let called = format!("{reexports}fn f() -> usize {{ helper() + LIMIT }}");
    let findings = run(&[
        (AGRAPH_LIB, fixture("dead_pub_decls.rs")),
        ("crates/graphitti-core/src/lib.rs", called),
    ]);
    assert_eq!(dead(&findings), ["lonely"], "{findings:?}");
}

#[test]
fn r7_a_same_named_local_does_not_clear_it() {
    let locals = "fn f() { let lonely = 1; let helper = lonely + 1; }";
    let findings = run(&[
        (AGRAPH_LIB, fixture("dead_pub_decls.rs")),
        ("crates/graphitti-core/src/system.rs", locals.to_string()),
    ]);
    assert_eq!(dead(&findings), ["lonely", "helper", "LIMIT"], "{findings:?}");
}

#[test]
fn r7_type_paths_and_method_calls_clear_it() {
    for call in ["Graph::lonely(&g)", "g.lonely()", "agraph::Graph::lonely::<()>"] {
        let caller = format!("fn f(g: Graph) {{ {call}; }}");
        let findings = run(&[
            (AGRAPH_LIB, fixture("dead_pub_decls.rs")),
            ("crates/graphitti-core/src/system.rs", caller),
        ]);
        assert_eq!(dead(&findings), ["helper", "LIMIT"], "{call}: {findings:?}");
    }
}

#[test]
fn r7_reasoned_allow_suppresses() {
    assert_clean(&run(&[(AGRAPH_LIB, fixture("dead_pub_allowed.rs"))]));
}

#[test]
fn r7_reasonless_allow_fails() {
    assert_reason_required(&run(&[(AGRAPH_LIB, strip_reasons(&fixture("dead_pub_allowed.rs")))]));
}

#[test]
fn r7_allow_on_a_called_item_is_stale() {
    let findings = run(&[
        (AGRAPH_LIB, fixture("dead_pub_allowed.rs")),
        ("crates/graphitti-core/src/system.rs", "fn t() { agraph::lonely(); }".to_string()),
    ]);
    assert_fires(&findings, META_UNUSED);
}

#[test]
fn r7_a_test_oracle_allow_suppresses_and_goes_stale_with_a_live_caller() {
    let prop = ("crates/agraph/tests/prop_tree.rs", "fn t(t: Tree) { t.check_invariants(); }");
    let oracle = (AGRAPH_LIB, fixture("dead_pub_oracle.rs"));
    let findings = run(&[oracle.clone(), (prop.0, prop.1.to_string())]);
    assert_clean(&findings);
    assert_reason_required(&run(&[
        (AGRAPH_LIB, strip_reasons(&fixture("dead_pub_oracle.rs"))),
        (prop.0, prop.1.to_string()),
    ]));
    // Once non-test code calls it, it is no oracle and the allow is stale.
    let live =
        ("crates/graphitti-core/src/system.rs", "fn f(t: Tree) -> bool { t.check_invariants() }");
    let findings = run(&[oracle, (prop.0, prop.1.to_string()), (live.0, live.1.to_string())]);
    assert_fires(&findings, META_UNUSED);
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
