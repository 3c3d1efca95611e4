//! The pass registry. Each pass checks one workspace invariant and
//! reports [`Finding`]s; the driver in `lib.rs` runs every registered
//! pass over the parsed workspace.

use crate::diag::Finding;
use crate::model::FileModel;

pub mod determinism;
pub mod lock_blocking;
pub mod lock_order;
pub mod metrics;
pub mod unsafe_hygiene;

/// A parsed workspace: every `.rs` file under `crates/*/src` and
/// `src/`, in sorted path order.
pub struct Workspace {
    pub files: Vec<FileModel>,
}

/// One invariant checker.
pub trait Pass {
    /// Stable pass id, used in diagnostics, fingerprints and
    /// `agar-lint: allow(...)` directives.
    fn id(&self) -> &'static str;
    /// One-line description for `--help` and the README.
    fn description(&self) -> &'static str;
    /// Runs the pass over the whole workspace.
    fn check(&self, workspace: &Workspace, out: &mut Vec<Finding>);
}

/// All registered passes, in diagnostic order.
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(lock_blocking::LockAcrossBlocking),
        Box::new(lock_order::LockOrder),
        Box::new(determinism::Determinism),
        Box::new(metrics::MetricsDiscipline),
        Box::new(unsafe_hygiene::UnsafeHygiene),
    ]
}
