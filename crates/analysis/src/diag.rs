//! Findings and their rustc-style rendering.

use std::collections::BTreeMap;
use std::fmt;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Pass id (`lock-across-blocking`, `determinism`, …).
    pub pass: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable message.
    pub message: String,
    /// A line-free stable key for baseline matching: findings keep the
    /// same key across unrelated edits that only shift line numbers.
    pub key: String,
}

impl Finding {
    /// The baseline fingerprint *before* duplicate disambiguation.
    fn raw_fingerprint(&self) -> String {
        format!("{}|{}|{}", self.pass, self.file, self.key)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "warning[agar::{}]: {}", self.pass, self.message)?;
        write!(f, "  --> {}:{}", self.file, self.line)
    }
}

/// Assigns each finding its final fingerprint: the raw fingerprint,
/// with `#2`, `#3`, … appended to the second and later findings that
/// share one (so N identical findings baseline as N entries and a new
/// duplicate still trips the gate).
pub fn fingerprints(findings: &[Finding]) -> Vec<(String, &Finding)> {
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    let mut out = Vec::with_capacity(findings.len());
    for finding in findings {
        let raw = finding.raw_fingerprint();
        let n = seen.entry(raw.clone()).or_insert(0);
        *n += 1;
        let fp = if *n == 1 { raw } else { format!("{raw}#{n}") };
        out.push((fp, finding));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(key: &str) -> Finding {
        Finding {
            pass: "determinism",
            file: "a.rs".into(),
            line: 3,
            message: "m".into(),
            key: key.into(),
        }
    }

    #[test]
    fn duplicate_fingerprints_are_numbered() {
        let fs = vec![fake("k"), fake("k"), fake("other")];
        let fps: Vec<String> = fingerprints(&fs).into_iter().map(|(fp, _)| fp).collect();
        assert_eq!(
            fps,
            vec![
                "determinism|a.rs|k".to_string(),
                "determinism|a.rs|k#2".to_string(),
                "determinism|a.rs|other".to_string(),
            ]
        );
    }

    #[test]
    fn display_is_rustc_shaped() {
        let text = fake("k").to_string();
        assert!(text.starts_with("warning[agar::determinism]: m"));
        assert!(text.ends_with("--> a.rs:3"));
    }
}
