//! Fixture-driven pass tests plus the live-workspace gate.
//!
//! Each pass has a `firing.rs` fixture that must produce findings and a
//! `passing.rs` fixture that must stay silent, and so do the allow
//! directives (`stale_allow/`); the final tests run the analyzer over
//! this repository itself and require an exact match against the
//! committed `ci/lint_baseline.json` — the same check CI runs, so
//! `cargo test` catches drift before the pipeline does — and every
//! workspace name in the blocking set to be a function it defines.

use agar_analysis::baseline::Baseline;
use agar_analysis::diag::Finding;
use agar_analysis::model::FileModel;
use agar_analysis::passes::lock_blocking::WORKSPACE_BLOCKING;
use agar_analysis::{analyze, analyze_models, gate, parse_workspace};
use std::path::Path;

/// Parses a fixture under a virtual in-workspace path so no pass
/// exemption (bench, obs, the analyzer itself) applies to it.
fn fixture(dir: &str, name: &str) -> FileModel {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(dir)
        .join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    FileModel::parse(&format!("crates/fixture/src/{dir}.rs"), &source)
}

fn findings_for(pass: &str, model: FileModel) -> Vec<Finding> {
    let mut findings = analyze_models(vec![model]).findings;
    findings.retain(|f| f.pass == pass);
    findings
}

/// Asserts the firing fixture produces exactly `expect` findings for
/// `pass` and the passing fixture produces none.
fn check_pass(pass: &str, dir: &str, expect: usize) {
    let firing = findings_for(pass, fixture(dir, "firing.rs"));
    assert_eq!(
        firing.len(),
        expect,
        "{pass}: firing fixture should produce {expect} findings, got {:#?}",
        firing
    );
    let passing = findings_for(pass, fixture(dir, "passing.rs"));
    assert!(
        passing.is_empty(),
        "{pass}: passing fixture should be silent, got {passing:#?}"
    );
}

#[test]
fn lock_blocking_fixtures() {
    // A backend fetch, an RS decode, and a positioned read under a
    // guard that came from a `-> MutexGuard` helper.
    check_pass("lock-across-blocking", "lock_blocking", 3);
}

#[test]
fn lock_order_fixtures() {
    // One deadlock cycle plus one condvar wait with a second guard.
    check_pass("lock-order", "lock_order", 2);
}

#[test]
fn determinism_fixtures() {
    // Instant::now, thread_rng, and one order-carrying iteration.
    check_pass("determinism", "determinism", 3);
}

#[test]
fn metrics_fixtures() {
    // A plain struct's unbound cell, an owner-held table row missing
    // from its `register_metrics`, and a table macro whose template
    // never binds `$cell`.
    check_pass("metrics-discipline", "metrics", 3);
}

#[test]
fn unsafe_hygiene_fixtures() {
    // One bare unsafe block, one bare unsafe fn.
    check_pass("unsafe-hygiene", "unsafe_hygiene", 2);
}

#[test]
fn stale_allow_fixtures() {
    // A file-wide directive for a pass that never fires there, one over
    // a call no pass flags, and one naming the wrong pass (whose
    // finding still fires).
    let firing = analyze_models(vec![fixture("stale_allow", "firing.rs")]);
    let stale: Vec<(Option<u32>, &str)> = firing
        .stale_allows
        .iter()
        .map(|allow| (allow.line, allow.pass.as_str()))
        .collect();
    assert_eq!(
        stale,
        vec![
            (None, "unsafe-hygiene"),
            (Some(12), "lock-across-blocking"),
            (Some(20), "determinism"),
        ]
    );
    assert_eq!(firing.findings.len(), 1, "{:#?}", firing.findings);

    let passing = analyze_models(vec![fixture("stale_allow", "passing.rs")]);
    assert!(passing.findings.is_empty(), "{:#?}", passing.findings);
    assert!(
        passing.stale_allows.is_empty(),
        "{:#?}",
        passing.stale_allows
    );
}

#[test]
fn firing_fixtures_name_the_right_sites() {
    let lock = findings_for(
        "lock-across-blocking",
        fixture("lock_blocking", "firing.rs"),
    );
    assert!(lock.iter().any(|f| f.message.contains("fetch_chunk")));
    assert!(lock
        .iter()
        .any(|f| f.message.contains("reconstruct_object_report")));
    assert!(lock
        .iter()
        .any(|f| f.message.contains("read_exact_at") && f.message.contains("self.inner()")));

    let order = findings_for("lock-order", fixture("lock_order", "firing.rs"));
    assert!(order.iter().any(|f| f.key.starts_with("cycle ")));
    assert!(order.iter().any(|f| f.message.contains("wait")));

    let det = findings_for("determinism", fixture("determinism", "firing.rs"));
    assert!(det.iter().any(|f| f.message.contains("Instant::now")));
    assert!(det.iter().any(|f| f.message.contains("thread_rng")));
    assert!(det.iter().any(|f| f.message.contains("counts")));

    let metrics = findings_for("metrics-discipline", fixture("metrics", "firing.rs"));
    assert!(metrics.iter().any(|f| f.message.contains("misses")));
    assert!(metrics
        .iter()
        .any(|f| f.message.contains("LeaseManager.contentions")));
    assert!(metrics
        .iter()
        .any(|f| f.message.contains("UnboundCells.cell")));
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analysis sits two levels below the workspace root")
}

/// The analyzer over this repository must match the committed baseline
/// exactly: no new findings, no stale waivers, no stale allow
/// directives, no ratchet drift.
#[test]
fn live_workspace_matches_committed_baseline_exactly() {
    let root = workspace_root();
    let report = analyze(root).expect("analyzing the live workspace");
    let baseline_path = root.join("ci/lint_baseline.json");
    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", baseline_path.display()));
    let baseline = Baseline::from_json(&text).expect("parsing ci/lint_baseline.json");
    let violations = gate(&report, &baseline);
    assert!(
        violations.is_empty(),
        "the live workspace deviates from ci/lint_baseline.json:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n\n")
    );
}

/// The blocking set matches call names, so a workspace entry point that
/// was renamed or deleted silently disarms the lint for its successor.
#[test]
fn every_workspace_blocking_name_is_a_function_the_workspace_defines() {
    let files = parse_workspace(workspace_root()).expect("parsing the live workspace");
    let undefined: Vec<&str> = WORKSPACE_BLOCKING
        .iter()
        .copied()
        .filter(|name| {
            !files
                .iter()
                .any(|file| file.functions.iter().any(|f| !f.is_test && f.name == *name))
        })
        .collect();
    assert!(
        undefined.is_empty(),
        "WORKSPACE_BLOCKING names functions no workspace file defines: {undefined:?}"
    );
}
