//! `agar-analysis` — the workspace invariant analyzer behind the
//! `agar-lint` binary.
//!
//! Eight PRs of convention guard this reproduction's correctness: no
//! backend fetch or RS decode under any lock (PR 2/PR 4), a global
//! lock order with no cycles, determinism in every sim-clock path,
//! every stat cell late-bound into the registry (PR 8), and `SAFETY:`
//! discipline around the SIMD kernels (PR 5). Each of those survives
//! only as long as every new PR happens to respect it. This crate
//! turns them into machine-checked gates: a hand-rolled lexer and
//! scope model (dependency-free — the vendored-stub environment has no
//! registry access for `syn`), a pluggable pass registry, and an
//! exact-match baseline (`ci/lint_baseline.json`) so the gate is
//! strict on *new* code while pre-existing findings are waived
//! visibly, in one committed file.
//!
//! Run it as:
//!
//! ```text
//! cargo run -p agar-analysis --bin agar-lint            # gate vs ci/lint_baseline.json
//! cargo run -p agar-analysis --bin agar-lint -- --list  # print findings, no gate
//! cargo run -p agar-analysis --bin agar-lint -- --write-baseline
//! ```

pub mod baseline;
pub mod diag;
pub mod lexer;
pub mod model;
pub mod passes;

use baseline::{Baseline, RatchetCounts};
use diag::{fingerprints, Finding};
use model::FileModel;
use passes::Workspace;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The result of analyzing a workspace: pass findings plus the
/// per-file unwrap/expect ratchet counts.
pub struct Report {
    /// Findings no allow directive suppressed.
    pub findings: Vec<Finding>,
    pub ratchet: BTreeMap<String, RatchetCounts>,
    /// Allow directives that suppressed no finding.
    pub stale_allows: Vec<StaleAllow>,
}

/// An `agar-lint: allow(<pass>)` directive that suppressed nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleAllow {
    pub file: String,
    /// `None` for a file-wide directive.
    pub line: Option<u32>,
    pub pass: String,
}

impl Report {
    /// The baseline this report would commit as.
    pub fn as_baseline(&self) -> Baseline {
        Baseline {
            waived: fingerprints(&self.findings)
                .into_iter()
                .map(|(fp, _)| fp)
                .collect(),
            ratchet: self.ratchet.clone(),
        }
    }
}

/// One gate violation: a deviation between the current report and the
/// committed baseline, in either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A finding not waived by the baseline — the strict direction.
    New(Finding),
    /// A waived fingerprint that no longer fires: the baseline is
    /// stale, refresh it so the waiver cannot silently shelter a
    /// future regression.
    StaleWaiver(String),
    /// An allow directive that suppresses no finding: delete it, for
    /// the same reason.
    StaleAllow(StaleAllow),
    /// unwrap/expect count went *up* in a file.
    RatchetUp {
        file: String,
        which: &'static str,
        baseline: u32,
        current: u32,
    },
    /// unwrap/expect count went *down* (or the file disappeared)
    /// without the baseline being refreshed.
    RatchetStale {
        file: String,
        which: &'static str,
        baseline: u32,
        current: u32,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::New(finding) => write!(f, "{finding}"),
            Violation::StaleWaiver(fp) => write!(
                f,
                "error[agar::baseline]: waived finding no longer fires — refresh the \
                 baseline (`agar-lint --write-baseline`)\n  --> {fp}"
            ),
            Violation::StaleAllow(StaleAllow { file, line, pass }) => write!(
                f,
                "error[agar::allow]: `agar-lint: allow({pass})` suppresses no finding — \
                 delete it\n  --> {file}{}",
                line.map(|line| format!(":{line}")).unwrap_or_default()
            ),
            Violation::RatchetUp {
                file,
                which,
                baseline,
                current,
            } => write!(
                f,
                "error[agar::ratchet]: `{which}()` count in {file} rose {baseline} -> \
                 {current} — new {which}s in non-test code are not allowed; propagate a \
                 Result or justify an expect and refresh the baseline"
            ),
            Violation::RatchetStale {
                file,
                which,
                baseline,
                current,
            } => write!(
                f,
                "error[agar::ratchet]: `{which}()` count in {file} fell {baseline} -> \
                 {current} — good! commit the tightened baseline \
                 (`agar-lint --write-baseline`) so it cannot drift back up"
            ),
        }
    }
}

/// Walks the workspace at `root`, parses every target `.rs` file and
/// runs all registered passes.
pub fn analyze(root: &Path) -> Result<Report, String> {
    Ok(analyze_models(parse_workspace(root)?))
}

/// Every target `.rs` file of the workspace at `root`, parsed.
pub fn parse_workspace(root: &Path) -> Result<Vec<FileModel>, String> {
    let files = collect_files(root)?;
    let mut models = Vec::with_capacity(files.len());
    for path in files {
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        models.push(FileModel::parse(&rel, &source));
    }
    Ok(models)
}

/// Runs all passes over already-parsed files (fixture tests enter
/// here), then applies the files' allow directives: a finding a
/// directive covers is dropped, and a directive that covered nothing
/// is reported stale.
pub fn analyze_models(files: Vec<FileModel>) -> Report {
    let workspace = Workspace { files };
    let mut findings = Vec::new();
    for pass in passes::registry() {
        pass.check(&workspace, &mut findings);
    }
    findings.retain(|finding| {
        !workspace
            .files
            .iter()
            .any(|file| file.path == finding.file && file.allowed(finding.pass, finding.line))
    });
    findings.sort();
    let stale_allows = workspace
        .files
        .iter()
        .flat_map(|file| {
            file.allows
                .iter()
                .filter(|allow| !allow.used())
                .map(|allow| StaleAllow {
                    file: file.path.clone(),
                    line: allow.line,
                    pass: allow.pass.clone(),
                })
        })
        .collect();
    let mut ratchet = BTreeMap::new();
    for file in &workspace.files {
        let counts = passes::unsafe_hygiene::ratchet_counts(file);
        if counts != RatchetCounts::default() {
            ratchet.insert(file.path.clone(), counts);
        }
    }
    Report {
        findings,
        ratchet,
        stale_allows,
    }
}

/// Compares a report against the committed baseline. Empty result =
/// gate passes.
pub fn gate(report: &Report, baseline: &Baseline) -> Vec<Violation> {
    let mut violations = Vec::new();
    let current = fingerprints(&report.findings);
    for (fp, finding) in &current {
        if !baseline.waived.contains(fp) {
            violations.push(Violation::New((*finding).clone()));
        }
    }
    let current_fps: std::collections::BTreeSet<&String> =
        current.iter().map(|(fp, _)| fp).collect();
    for waived in &baseline.waived {
        if !current_fps.contains(waived) {
            violations.push(Violation::StaleWaiver(waived.clone()));
        }
    }
    violations.extend(
        report
            .stale_allows
            .iter()
            .cloned()
            .map(Violation::StaleAllow),
    );
    let zero = RatchetCounts::default();
    let files: std::collections::BTreeSet<&String> = report
        .ratchet
        .keys()
        .chain(baseline.ratchet.keys())
        .collect();
    for file in files {
        let now = report.ratchet.get(file).copied().unwrap_or(zero);
        let base = baseline.ratchet.get(file).copied().unwrap_or(zero);
        for (which, n, b) in [
            ("unwrap", now.unwrap, base.unwrap),
            ("expect", now.expect, base.expect),
        ] {
            use std::cmp::Ordering;
            match n.cmp(&b) {
                Ordering::Greater => violations.push(Violation::RatchetUp {
                    file: file.clone(),
                    which,
                    baseline: b,
                    current: n,
                }),
                Ordering::Less => violations.push(Violation::RatchetStale {
                    file: file.clone(),
                    which,
                    baseline: b,
                    current: n,
                }),
                Ordering::Equal => {}
            }
        }
    }
    violations
}

/// Every `.rs` file under `crates/*/src` and `src/`, sorted.
fn collect_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_roots: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_roots.sort();
        for crate_root in crate_roots {
            let src = crate_root.join("src");
            if src.is_dir() {
                walk_rs(&src, &mut out)?;
            }
        }
    }
    let src = root.join("src");
    if src.is_dir() {
        walk_rs(&src, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(path: &str, src: &str) -> FileModel {
        FileModel::parse(path, src)
    }

    #[test]
    fn gate_is_exact_match_in_both_directions() {
        let report = analyze_models(vec![model(
            "crates/x/src/a.rs",
            "fn f(&self) { let g = self.state.read(); self.backend.fetch_chunk(id); }",
        )]);
        assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);

        // Empty baseline: the finding is NEW.
        let empty = Baseline::default();
        let violations = gate(&report, &empty);
        assert!(matches!(violations.as_slice(), [Violation::New(_)]));

        // Baseline written from the report: clean.
        let written = report.as_baseline();
        assert!(gate(&report, &written).is_empty());

        // Finding fixed but baseline kept: stale waiver trips the gate.
        let clean = analyze_models(vec![model("crates/x/src/a.rs", "fn f() {}")]);
        let violations = gate(&clean, &written);
        assert!(matches!(violations.as_slice(), [Violation::StaleWaiver(_)]));
    }

    #[test]
    fn an_allow_that_suppresses_nothing_trips_the_gate() {
        let suppressing = analyze_models(vec![model(
            "crates/x/src/a.rs",
            "fn f(&self) {\n let g = self.state.read();\n // agar-lint: allow(lock-across-blocking)\n self.backend.fetch_chunk(id);\n}\n",
        )]);
        assert!(
            suppressing.findings.is_empty(),
            "{:#?}",
            suppressing.findings
        );
        assert!(suppressing.stale_allows.is_empty());
        assert!(gate(&suppressing, &suppressing.as_baseline()).is_empty());

        let stale = analyze_models(vec![model(
            "crates/x/src/a.rs",
            "fn f(&self) {\n // agar-lint: allow(lock-across-blocking)\n self.backend.fetch_chunk(id);\n}\n",
        )]);
        assert_eq!(
            stale.stale_allows,
            vec![StaleAllow {
                file: "crates/x/src/a.rs".into(),
                line: Some(2),
                pass: "lock-across-blocking".into(),
            }]
        );
        assert!(matches!(
            gate(&stale, &stale.as_baseline()).as_slice(),
            [Violation::StaleAllow(_)]
        ));
    }

    /// `lock-order` reports a cycle once, at its first closing edge,
    /// and consults that site's directive itself: the directive there
    /// counts as used, one on the other edge does not.
    #[test]
    fn a_cycle_site_directive_counts_as_used() {
        let cycle = |allow_first: bool| {
            let (first, second) = if allow_first {
                ("// agar-lint: allow(lock-order)\n", "")
            } else {
                ("", "// agar-lint: allow(lock-order)\n")
            };
            analyze_models(vec![model(
                "crates/x/src/a.rs",
                &format!(
                    "fn f(&self) {{\n let a = self.alpha.lock();\n {first} let b = self.beta.lock();\n}}\n\
                     fn g(&self) {{\n let b = self.beta.lock();\n {second} let a = self.alpha.lock();\n}}\n"
                ),
            )])
        };
        let at_site = cycle(true);
        assert!(at_site.findings.is_empty(), "{:#?}", at_site.findings);
        assert!(at_site.stale_allows.is_empty());
        let elsewhere = cycle(false);
        assert_eq!(elsewhere.findings.len(), 1, "{:#?}", elsewhere.findings);
        assert_eq!(elsewhere.stale_allows.len(), 1);
    }

    #[test]
    fn ratchet_trips_in_both_directions() {
        let two = analyze_models(vec![model(
            "crates/x/src/a.rs",
            "fn f() { a().unwrap(); b().unwrap(); }",
        )]);
        let one = analyze_models(vec![model("crates/x/src/a.rs", "fn f() { a().unwrap(); }")]);
        let base = one.as_baseline();
        assert!(gate(&one, &base).is_empty());
        assert!(matches!(
            gate(&two, &base).as_slice(),
            [Violation::RatchetUp { .. }]
        ));
        let base_two = two.as_baseline();
        assert!(matches!(
            gate(&one, &base_two).as_slice(),
            [Violation::RatchetStale { .. }]
        ));
    }

    #[test]
    fn test_code_is_exempt_from_the_ratchet() {
        let report = analyze_models(vec![model(
            "crates/x/src/a.rs",
            "#[cfg(test)]\nmod tests {\n fn f() { a().unwrap(); }\n}\n",
        )]);
        assert!(report.ratchet.is_empty());
    }
}
