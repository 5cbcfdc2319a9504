//! CLI: scan the workspace sources and fail on any unsuppressed finding.
//!
//! Usage: `cargo run -p graphitti-lint --release [workspace-root]` (defaults to
//! the current directory).  Exit code 1 on findings, 2 on I/O problems.

use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never scanned: shim crates (theirs, not ours to lint), the
/// lint crate itself (its fixtures are seeded violations), and build output.
const SKIP_DIRS: &[&str] = &["shims", "lint", "fixtures", "target"];

/// Directory names under `crates/` whose files are read only as callers (by
/// `dead-pub`): the bench harness and each crate's benches.
const CALLER_ONLY_DIRS: &[&str] = &["bench", "benches"];

/// Trees outside `crates/` that are read only as callers: the facade crate's
/// `src/`, `tests/` and `examples/`, and the end-to-end benchmark.
const CALLER_ONLY_ROOTS: &[&str] = &["src", "tests", "examples", "benchmark/src"];

fn main() {
    let root = std::env::args().nth(1).map(PathBuf::from).unwrap_or_else(|| PathBuf::from("."));
    let crates = root.join("crates");
    if !crates.is_dir() {
        eprintln!("graphitti-lint: no crates/ directory under {}", root.display());
        std::process::exit(2);
    }
    let (mut paths, mut caller_paths) = (Vec::new(), Vec::new());
    collect(&crates, false, &mut paths, &mut caller_paths);
    for dir in CALLER_ONLY_ROOTS {
        collect(&root.join(dir), true, &mut paths, &mut caller_paths);
    }
    let sources = read_all(paths, &root);
    let callers = read_all(caller_paths, &root);
    let report = graphitti_lint::analyze_sources(&sources, &callers);
    let scanned = format!(
        "{} files scanned, {} read as callers, {} pub declarations",
        sources.len(),
        callers.len(),
        report.pub_declarations
    );
    if report.findings.is_empty() {
        println!("graphitti-lint: {scanned}, no findings");
        return;
    }
    for finding in &report.findings {
        println!("{finding}");
    }
    eprintln!("graphitti-lint: {scanned}, {} finding(s)", report.findings.len());
    std::process::exit(1);
}

/// Recursively collect `.rs` files, skipping [`SKIP_DIRS`]; files under a
/// [`CALLER_ONLY_DIRS`] directory (or everything, with `caller_only`) go to `callers`.
fn collect(dir: &Path, caller_only: bool, out: &mut Vec<PathBuf>, callers: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                let caller_only = caller_only || CALLER_ONLY_DIRS.contains(&name.as_str());
                collect(&path, caller_only, out, callers);
            }
        } else if name.ends_with(".rs") {
            if caller_only { &mut *callers } else { &mut *out }.push(path);
        }
    }
}

fn read_all(mut paths: Vec<PathBuf>, root: &Path) -> Vec<(String, String)> {
    paths.sort();
    paths
        .iter()
        .map(|path| match fs::read_to_string(path) {
            Ok(text) => (relative(path, root), text),
            Err(err) => {
                eprintln!("graphitti-lint: cannot read {}: {err}", path.display());
                std::process::exit(2);
            }
        })
        .collect()
}

fn relative(path: &Path, root: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}
