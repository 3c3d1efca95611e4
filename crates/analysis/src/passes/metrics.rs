//! Pass 4: **metrics-discipline** — every `Counter`/`Gauge`/
//! `Histogram` field must be late-bound into the registry.
//!
//! PR 8's convention: a stat cell that never reaches a
//! `register_*` call is invisible to every scrape, so a counter that
//! looks wired (it increments!) silently exports nothing. This pass
//! machine-checks what PR 8 did by hand, complementing the dynamic
//! `ci/check_exposition.py` linter: for each struct field typed as an
//! obs handle, some `register*` function in the same file must
//! mention the field.
//!
//! A cell *table* declares its cells as `$(pub $cell: Counter,)*`
//! inside a `macro_rules!` template. The model records that as one
//! field named `cell`, so the same rule applies to the template: the
//! arm's `register*` function must mention `$cell`, which binds every
//! row the table will ever hold. The workspace's one table macro,
//! `agar_obs::cell_table!`, lives in the exempt metrics library; its
//! `register_with` walks every row by construction, and its own test
//! pins that. Hand-written cells are checked field by field.

use crate::diag::Finding;
use crate::model::FileModel;
use crate::passes::{Pass, Workspace};

pub const PASS_ID: &str = "metrics-discipline";

/// The metrics library itself defines and plumbs the handle types;
/// requiring it to "register" its own internals is circular.
const EXEMPT_PREFIXES: &[&str] = &["crates/obs/src/"];

const HANDLE_TYPES: &[&str] = &["Counter", "Gauge", "Histogram"];

pub struct MetricsDiscipline;

impl Pass for MetricsDiscipline {
    fn id(&self) -> &'static str {
        PASS_ID
    }

    fn description(&self) -> &'static str {
        "every Counter/Gauge/Histogram field has a register_* binding in its file"
    }

    fn check(&self, workspace: &Workspace, out: &mut Vec<Finding>) {
        for file in &workspace.files {
            if EXEMPT_PREFIXES.iter().any(|p| file.path.starts_with(p)) {
                continue;
            }
            check_file(file, out);
        }
    }
}

fn check_file(file: &FileModel, out: &mut Vec<Finding>) {
    // Idents appearing inside the body of any `register*` function.
    let mut registered: Vec<&str> = Vec::new();
    for f in &file.functions {
        if !f.name.starts_with("register") {
            continue;
        }
        for t in &file.tokens[f.body.clone()] {
            if t.kind == crate::lexer::TokKind::Ident {
                registered.push(&t.text);
            }
        }
    }
    for s in &file.structs {
        if s.is_test {
            continue;
        }
        for field in &s.fields {
            if !is_handle_type(&field.ty) {
                continue;
            }
            if registered.iter().any(|name| *name == field.name) {
                continue;
            }
            out.push(Finding {
                pass: PASS_ID,
                file: file.path.clone(),
                line: field.line,
                message: format!(
                    "`{}.{}` is a `{}` but no `register*` function in this file binds it — \
                     the cell will never appear in a scrape",
                    s.name, field.name, field.ty
                ),
                key: format!("{}.{} unregistered", s.name, field.name),
            });
        }
    }
}

/// True when the rendered field type is exactly an obs handle (the
/// last path segment, so `obs :: Counter` and `Counter` both match,
/// while `AtomicCacheStats` or `Mutex<Counter>` do not).
fn is_handle_type(ty: &str) -> bool {
    let last = ty.rsplit("::").next().unwrap_or(ty).trim();
    HANDLE_TYPES.contains(&last)
}
