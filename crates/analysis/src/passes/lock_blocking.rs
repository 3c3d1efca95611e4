//! Pass 1: **lock-across-blocking** — no backend fetch, RS
//! encode/decode, or disk I/O while any lock guard is live.
//!
//! This is the PR 2 / PR 4 invariant ("no backend fetch or RS decode
//! under any lock", "never hold `state.read()` across backend I/O")
//! turned from convention into a gate. The pass walks every function
//! with the shared guard scanner and flags any call whose name is in
//! the blocking set while at least one guard is live — including
//! temporary guards (`self.state.read().fetch(…)` is exactly the bug
//! the convention exists to prevent).

use crate::diag::Finding;
use crate::model::{Event, FileModel};
use crate::passes::{Pass, Workspace};

pub const PASS_ID: &str = "lock-across-blocking";

/// Call names that block on I/O or burn unbounded CPU: backend and
/// fetcher entry points, RS codec entry points, disk-store frame I/O
/// and raw file I/O.
const DEFAULT_BLOCKING: &[&str] = &[
    // Backend / fetcher entry points.
    "fetch",
    "fetch_chunk",
    "fetch_chunks",
    "fetch_object",
    "put_object",
    "delete_object",
    // RS codec entry points (decode under a lock stalls every reader).
    "encode_object",
    "reconstruct_object_report",
    // DiskStore frame I/O and raw file I/O.
    "append_frame",
    "read_frame",
    "write_tail",
    "write_all",
    "read_exact",
    // Positioned and vectored I/O block exactly as their cursor-based
    // counterparts do.
    "write_all_at",
    "read_exact_at",
    "write_at",
    "read_at",
    "write_vectored",
    "sync_all",
    "sync_data",
    // Channel receive (unbounded block).
    "recv",
];

/// The pass, with a configurable blocking set (tests inject smaller
/// ones; the CLI uses the default).
pub struct LockAcrossBlocking {
    blocking: Vec<&'static str>,
}

impl Default for LockAcrossBlocking {
    fn default() -> Self {
        LockAcrossBlocking {
            blocking: DEFAULT_BLOCKING.to_vec(),
        }
    }
}

impl Pass for LockAcrossBlocking {
    fn id(&self) -> &'static str {
        PASS_ID
    }

    fn description(&self) -> &'static str {
        "no backend fetch, RS encode/decode or disk I/O while a lock guard is live"
    }

    fn check(&self, workspace: &Workspace, out: &mut Vec<Finding>) {
        for file in &workspace.files {
            self.check_file(file, out);
        }
    }
}

impl LockAcrossBlocking {
    fn check_file(&self, file: &FileModel, out: &mut Vec<Finding>) {
        for f in &file.functions {
            if f.is_test {
                continue;
            }
            crate::model::scan_function(file, f, &mut |ev| {
                let Event::Call {
                    name, line, live, ..
                } = ev
                else {
                    return;
                };
                if live.is_empty() || !self.blocking.contains(&name.as_str()) {
                    return;
                }
                if file.allowed(PASS_ID, line) {
                    return;
                }
                let guard = live.last().expect("checked non-empty");
                out.push(Finding {
                    pass: PASS_ID,
                    file: file.path.clone(),
                    line,
                    message: format!(
                        "blocking call `{name}()` in `{}` while guard on `{}.{}()` \
                         (acquired line {}) is live — drop the guard before \
                         backend/codec/disk work",
                        f.name, guard.receiver, guard.method, guard.line
                    ),
                    key: format!("fn {} calls {name} under {}", f.name, guard.receiver),
                });
            });
        }
    }
}
