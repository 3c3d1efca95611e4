//! Pass 5: **unsafe-hygiene** — two ratchets on footguns.
//!
//! 1. Every `unsafe` block, `unsafe fn` and `unsafe impl` must carry a
//!    `// SAFETY:` comment on the same line or within the three lines
//!    above it, stating the invariant that makes the code sound. This
//!    applies to test code too: the GF(2^8) kernels' test probes touch
//!    raw pointers just as unsafely as the kernels themselves.
//! 2. `unwrap()` / `expect()` in non-test code are counted per file
//!    and compared *exactly* against `ci/lint_baseline.json` — new
//!    ones fail the gate, and removing one without refreshing the
//!    baseline (`agar-lint --write-baseline`) also fails, so the count
//!    ratchets down deliberately and never silently drifts back up.
//!    (The counting lives in [`ratchet_counts`]; the comparison is the
//!    driver's job because it needs the baseline.)

use crate::baseline::RatchetCounts;
use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::model::FileModel;
use crate::passes::{Pass, Workspace};

pub const PASS_ID: &str = "unsafe-hygiene";

/// How many lines above an `unsafe` keyword a `SAFETY:` comment may
/// sit. Three covers rustfmt wrapping a long comment plus one
/// attribute line.
const SAFETY_WINDOW: u32 = 3;

pub struct UnsafeHygiene;

impl Pass for UnsafeHygiene {
    fn id(&self) -> &'static str {
        PASS_ID
    }

    fn description(&self) -> &'static str {
        "every unsafe block/fn carries a SAFETY: comment; unwrap/expect counts only ratchet down"
    }

    fn check(&self, workspace: &Workspace, out: &mut Vec<Finding>) {
        for file in &workspace.files {
            check_safety_comments(file, out);
        }
    }
}

fn check_safety_comments(file: &FileModel, out: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if !(t.kind == TokKind::Ident && t.text == "unsafe") {
            continue;
        }
        // Classify the construct for the message; skip `unsafe` inside
        // an attribute or similar degenerate position.
        let next = tokens.get(i + 1);
        let construct = match next {
            Some(n) if n.is_punct("{") => "unsafe block",
            Some(n) if n.is_ident("fn") => "unsafe fn",
            Some(n) if n.is_ident("impl") => "unsafe impl",
            Some(n) if n.is_ident("extern") => "unsafe extern block",
            _ => continue,
        };
        if file.comment_near("SAFETY:", t.line, SAFETY_WINDOW) {
            continue;
        }
        out.push(Finding {
            pass: PASS_ID,
            file: file.path.clone(),
            line: t.line,
            message: format!(
                "{construct} without a `// SAFETY:` comment — state the invariant that \
                 makes this sound (within {SAFETY_WINDOW} lines above)"
            ),
            key: format!("{construct} missing SAFETY"),
        });
    }
}

/// Counts `.unwrap()` / `.expect(` calls in non-test code. The driver
/// compares these against the committed baseline.
pub fn ratchet_counts(file: &FileModel) -> RatchetCounts {
    let tokens = &file.tokens;
    let mut counts = RatchetCounts::default();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let is_call = i >= 1
            && tokens[i - 1].is_punct(".")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("("));
        if !is_call || file.in_test(i) {
            continue;
        }
        match t.text.as_str() {
            "unwrap" => counts.unwrap += 1,
            "expect" => counts.expect += 1,
            _ => {}
        }
    }
    counts
}
