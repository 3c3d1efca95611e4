//! Pass 2: **lock-order** — a global lock-acquisition ordering graph
//! with three finding kinds:
//!
//! 1. **cycle** — two locks acquired in both orders anywhere in the
//!    workspace (classic ABBA deadlock risk). Edges come from direct
//!    nesting (`a` held while `b.lock()` runs) and from calls made
//!    while holding a lock into functions that acquire locks
//!    themselves (resolved by name when the name is unique in the
//!    workspace; ambiguous names are skipped — under-approximate,
//!    never noisy).
//! 2. **reentrant** — the same (non-indexed) lock acquired while
//!    already held; `parking_lot` and `std` mutexes both deadlock.
//!    Same-named *indexed* locks (`self.shards[i]`) are exempt: the
//!    indices are statically unknowable and the sharded cache
//!    deliberately locks at most one shard at a time.
//! 3. **condvar-wait** — a `wait(guard)` that parks while a *second*
//!    guard stays held (the waker can never run), or a bare `.wait()`
//!    (barrier/flight) while any guard is held.

use crate::diag::Finding;
use crate::model::Event;
use crate::passes::{Pass, Workspace};
use std::collections::{BTreeMap, BTreeSet};

pub const PASS_ID: &str = "lock-order";

pub struct LockOrder;

/// A directed edge `from` → `to`: `to` was acquired while `from` held.
#[derive(Debug, Clone)]
struct EdgeSite {
    file: String,
    line: u32,
    via: String,
}

impl Pass for LockOrder {
    fn id(&self) -> &'static str {
        PASS_ID
    }

    fn description(&self) -> &'static str {
        "lock acquisition order must be acyclic; no reentrant locks; no condvar wait with a second guard held"
    }

    fn check(&self, workspace: &Workspace, out: &mut Vec<Finding>) {
        // Function name → (file index, function index), or None when
        // the name is ambiguous across the workspace.
        let mut by_name: BTreeMap<&str, Option<(usize, usize)>> = BTreeMap::new();
        for (fi, file) in workspace.files.iter().enumerate() {
            for (gi, f) in file.functions.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                by_name
                    .entry(f.name.as_str())
                    .and_modify(|slot| *slot = None)
                    .or_insert(Some((fi, gi)));
            }
        }

        // Per function: locks acquired directly, and callees invoked.
        let mut acquired: BTreeMap<(usize, usize), BTreeSet<String>> = BTreeMap::new();
        let mut callees: BTreeMap<(usize, usize), BTreeSet<String>> = BTreeMap::new();
        // Direct nesting edges and call-sites-under-guard, collected in
        // one scan so both lock passes share guard-liveness semantics.
        let mut edges: BTreeMap<(String, String), EdgeSite> = BTreeMap::new();
        let mut calls_under_guard: Vec<(String, String, EdgeSite)> = Vec::new(); // (held lock, callee, site)

        for (fi, file) in workspace.files.iter().enumerate() {
            let stem = file_stem(&file.path);
            for (gi, f) in file.functions.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                crate::model::scan_function(file, f, &mut |ev| match ev {
                    Event::Acquire { guard, live } => {
                        let id = lock_id(stem, &guard.receiver);
                        acquired.entry((fi, gi)).or_default().insert(id.clone());
                        // `live` includes the new guard as its last element.
                        for held in &live[..live.len() - 1] {
                            let held_id = lock_id(stem, &held.receiver);
                            if held_id == id {
                                let both_indexed = guard.indexed && held.indexed;
                                if !both_indexed {
                                    out.push(Finding {
                                        pass: PASS_ID,
                                        file: file.path.clone(),
                                        line: guard.line,
                                        message: format!(
                                            "reentrant acquisition of `{}` in `{}` — \
                                             already held since line {}",
                                            held.receiver, f.name, held.line
                                        ),
                                        key: format!("fn {} reacquires {}", f.name, held.receiver),
                                    });
                                }
                                continue;
                            }
                            edges.entry((held_id, id.clone())).or_insert(EdgeSite {
                                file: file.path.clone(),
                                line: guard.line,
                                via: format!("`{}`", f.name),
                            });
                        }
                    }
                    Event::Call {
                        name,
                        line,
                        method,
                        has_args,
                        live,
                    } => {
                        if matches!(
                            name.as_str(),
                            "wait" | "wait_while" | "wait_timeout" | "wait_timeout_while"
                        ) && method
                        {
                            let threshold = if has_args { 2 } else { 1 };
                            if live.len() >= threshold {
                                let held: Vec<&str> =
                                    live.iter().map(|g| g.receiver.as_str()).collect();
                                out.push(Finding {
                                    pass: PASS_ID,
                                    file: file.path.clone(),
                                    line,
                                    message: format!(
                                        "`{name}()` parks in `{}` while guards on [{}] are \
                                         live — a waiter that sleeps holding a second lock \
                                         can never be woken",
                                        f.name,
                                        held.join(", ")
                                    ),
                                    key: format!("fn {} waits holding {}", f.name, held.join("+")),
                                });
                            }
                        }
                        callees.entry((fi, gi)).or_default().insert(name.clone());
                        for held in live {
                            calls_under_guard.push((
                                lock_id(stem, &held.receiver),
                                name.clone(),
                                EdgeSite {
                                    file: file.path.clone(),
                                    line,
                                    via: format!("`{}` → `{name}`", f.name),
                                },
                            ));
                        }
                    }
                });
            }
        }

        // Transitive closure of "locks this function may acquire",
        // through uniquely-resolved callees.
        let mut closure: BTreeMap<(usize, usize), BTreeSet<String>> = acquired.clone();
        loop {
            let mut changed = false;
            let keys: Vec<(usize, usize)> = callees.keys().copied().collect();
            for key in keys {
                let mut gained: BTreeSet<String> = BTreeSet::new();
                for callee in callees.get(&key).into_iter().flatten() {
                    if let Some(Some(target)) = by_name.get(callee.as_str()) {
                        if let Some(locks) = closure.get(target) {
                            gained.extend(locks.iter().cloned());
                        }
                    }
                }
                let own = closure.entry(key).or_default();
                let before = own.len();
                own.extend(gained);
                if own.len() != before {
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Cross-function edges: a call under guard to a function whose
        // closure acquires locks.
        for (held_id, callee, site) in calls_under_guard {
            let Some(Some(target)) = by_name.get(callee.as_str()) else {
                continue;
            };
            for lock in closure.get(target).into_iter().flatten() {
                if *lock == held_id {
                    continue; // cross-function reentrancy is too alias-prone to assert
                }
                edges
                    .entry((held_id.clone(), lock.clone()))
                    .or_insert_with(|| site.clone());
            }
        }

        // Cycle detection: for every edge a→b, a path b→…→a closes a
        // cycle. The graph is tiny (tens of nodes), so a DFS per edge
        // is plenty.
        let mut adjacency: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (a, b) in edges.keys() {
            adjacency.entry(a.as_str()).or_default().push(b.as_str());
        }
        let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
        for ((a, b), site) in &edges {
            if !reaches(&adjacency, b, a) {
                continue;
            }
            // Canonical cycle key: the sorted set of participants.
            let mut participants: Vec<String> = vec![a.clone(), b.clone()];
            participants.sort();
            participants.dedup();
            if !reported.insert(participants.clone()) {
                continue;
            }
            // The one directive a pass consults itself: the cycle is
            // reported once, at its first closing edge, so a directive
            // there drops it here (and `allowed` counts it as used).
            let file = site.file.clone();
            if workspace
                .files
                .iter()
                .find(|f| f.path == file)
                .is_some_and(|f| f.allowed(PASS_ID, site.line))
            {
                continue;
            }
            out.push(Finding {
                pass: PASS_ID,
                file,
                line: site.line,
                message: format!(
                    "lock-order cycle: `{a}` → `{b}` here (via {}), but `{b}` → … → `{a}` \
                     elsewhere — two threads taking the two orders deadlock",
                    site.via
                ),
                key: format!("cycle {}", participants.join(" <-> ")),
            });
        }
    }
}

/// DFS reachability in the edge graph.
fn reaches(adjacency: &BTreeMap<&str, Vec<&str>>, from: &str, to: &str) -> bool {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(node) = stack.pop() {
        if node == to {
            return true;
        }
        if !seen.insert(node) {
            continue;
        }
        stack.extend(adjacency.get(node).into_iter().flatten());
    }
    false
}

/// Identity of a lock for ordering purposes: the defining file's stem
/// plus the receiver with any leading `self.` stripped, so `monitor`
/// in `node.rs` and `monitor` in another file are distinct locks.
fn lock_id(stem: &str, receiver: &str) -> String {
    let base = receiver.strip_prefix("self.").unwrap_or(receiver);
    let base = if base.is_empty() { "<expr>" } else { base };
    format!("{stem}:{base}")
}

fn file_stem(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .and_then(|name| name.strip_suffix(".rs"))
        .unwrap_or(path)
}
