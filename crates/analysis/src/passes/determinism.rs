//! Pass 3: **determinism** — sim-clock crates must not read the wall
//! clock, draw from an OS-seeded RNG, or let unordered `HashMap`/
//! `HashSet` iteration feed order-carrying output.
//!
//! Every experiment and every race test in this workspace is
//! reproducible because latencies come from the simulated clock and
//! randomness from explicit seeds (`tests/determinism.rs` pins
//! byte-identical runs). One stray `Instant::now()` silently breaks
//! that without failing any test — which is exactly the kind of
//! regression a grep-shaped pass catches and review does not.
//!
//! Only the analyzer itself (`crates/analysis`) is exempt by
//! configuration: it runs on the host, not in the simulation. The
//! experiment harness (`crates/bench`) is checked like every sim crate;
//! its one wall-clock use, the `experiments` binary's stderr `done in`
//! timing, opts out per line. Anything else opts out per file or per
//! line with `// agar-lint: allow(determinism)`.

use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::model::FileModel;
use crate::passes::{Pass, Workspace};
use std::collections::BTreeSet;

pub const PASS_ID: &str = "determinism";

/// Path prefixes exempt from this pass: the analyzer itself, which runs
/// on the host, not in the simulation.
const EXEMPT_PREFIXES: &[&str] = &["crates/analysis/"];

/// Method names whose result order carries into output.
const ORDER_SINKS: &[&str] = &[
    "push",
    "push_back",
    "push_str",
    "extend",
    "write",
    "writeln",
    "print",
    "println",
    "format",
    "send",
    "collect",
];

/// Names that make an iteration order-insensitive (reductions) or
/// re-ordered (sorts, ordered collections).
const ORDER_NEUTRALIZERS: &[&str] = &[
    "sum",
    "count",
    "fold",
    "all",
    "any",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "HashMap",
    "HashSet",
];

pub struct Determinism;

impl Pass for Determinism {
    fn id(&self) -> &'static str {
        PASS_ID
    }

    fn description(&self) -> &'static str {
        "no wall clock, OS-seeded RNG, or order-carrying HashMap iteration in sim-clock crates"
    }

    fn check(&self, workspace: &Workspace, out: &mut Vec<Finding>) {
        for file in &workspace.files {
            if EXEMPT_PREFIXES.iter().any(|p| file.path.starts_with(p)) {
                continue;
            }
            check_wall_clock_and_rng(file, out);
            check_hash_iteration(file, out);
        }
    }
}

fn check_wall_clock_and_rng(file: &FileModel, out: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        if file.in_test(i) {
            continue;
        }
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let flagged: Option<(String, &str)> = match t.text.as_str() {
            "Instant" | "SystemTime" => {
                if tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
                    && tokens.get(i + 2).is_some_and(|n| n.is_ident("now"))
                {
                    Some((
                        format!("{}::now()", t.text),
                        "wall-clock read; use the simulated clock (SimTime / LatencyModel)",
                    ))
                } else {
                    None
                }
            }
            "thread_rng" | "from_entropy" | "random" => {
                // `random` only as `rand::random`.
                let qualified = t.text != "random"
                    || (i >= 2 && tokens[i - 1].is_punct("::") && tokens[i - 2].is_ident("rand"));
                if qualified && tokens.get(i + 1).is_some_and(|n| n.is_punct("(")) {
                    Some((
                        format!("{}()", t.text),
                        "OS-seeded RNG; derive from an explicit seed instead",
                    ))
                } else {
                    None
                }
            }
            _ => None,
        };
        let Some((what, why)) = flagged else { continue };
        if file.allowed(PASS_ID, t.line) {
            continue;
        }
        out.push(Finding {
            pass: PASS_ID,
            file: file.path.clone(),
            line: t.line,
            message: format!("`{what}` in a sim-clock crate — {why}"),
            key: format!("{what} at occurrence"),
        });
    }
}

/// Flags `for … in &map` / `map.iter()…` chains over `HashMap`/
/// `HashSet`-typed locals or fields when the surrounding statement
/// contains an order sink (push/collect/write/…) and no neutralizer
/// (sort/reduction/ordered collection).
fn check_hash_iteration(file: &FileModel, out: &mut Vec<Finding>) {
    let hashy = hashy_names(file);
    if hashy.is_empty() {
        return;
    }
    let tokens = &file.tokens;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        let is_iter_method = t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "iter" | "iter_mut" | "keys" | "values" | "values_mut" | "into_iter" | "drain"
            )
            && i >= 2
            && tokens[i - 1].is_punct(".")
            && tokens[i - 2].kind == TokKind::Ident
            && hashy.contains(&tokens[i - 2].text)
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("("));
        if !is_iter_method || file.in_test(i) {
            i += 1;
            continue;
        }
        let receiver = tokens[i - 2].text.clone();
        // Examine the enclosing statement: back to the previous `;`
        // or `{`, forward to the matching end. A `for` statement
        // extends through its whole body.
        let start = statement_start(tokens, i);
        let end = statement_end(tokens, i, start);
        let window = &tokens[start..end.min(tokens.len())];
        let names: Vec<&str> = window
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        let has_sink = names.iter().any(|n| ORDER_SINKS.contains(n));
        let neutralized = names.iter().any(|n| ORDER_NEUTRALIZERS.contains(n))
            || sorted_in_next_statement(tokens, start, end);
        if has_sink && !neutralized && !file.allowed(PASS_ID, t.line) {
            out.push(Finding {
                pass: PASS_ID,
                file: file.path.clone(),
                line: t.line,
                message: format!(
                    "iteration over unordered `{receiver}` feeds order-carrying output — \
                     sort first, or iterate a BTree collection"
                ),
                key: format!("unordered iteration of {receiver}"),
            });
        }
        i += 1;
    }
}

/// Local and field names whose type is `HashMap`/`HashSet` in this
/// file: struct fields, `let x: HashMap<…>` ascriptions, and
/// `let x = HashMap::new()/with_capacity(…)` initializers.
fn hashy_names(file: &FileModel) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for s in &file.structs {
        for field in &s.fields {
            if field.ty.contains("HashMap") || field.ty.contains("HashSet") {
                names.insert(field.name.clone());
            }
        }
    }
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("let") {
            continue;
        }
        let mut j = i + 1;
        if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name_tok) = tokens.get(j) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        // Look ahead to the end of the statement for a HashMap/HashSet
        // constructor or ascription.
        let mut k = j + 1;
        let mut seen_hash = false;
        while k < tokens.len() && !tokens[k].is_punct(";") {
            if tokens[k].is_ident("HashMap") || tokens[k].is_ident("HashSet") {
                seen_hash = true;
            }
            k += 1;
        }
        if seen_hash {
            names.insert(name_tok.text.clone());
        }
    }
    names
}

/// Recognises the collect-then-sort idiom: a `let [mut] v = …` whose
/// *next* statement is `v.sort…()`. The collecting statement itself has
/// no neutralizer, but the order never escapes unsorted.
fn sorted_in_next_statement(tokens: &[crate::lexer::Token], start: usize, end: usize) -> bool {
    if !tokens.get(start).is_some_and(|t| t.is_ident("let")) {
        return false;
    }
    let mut j = start + 1;
    if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let Some(binding) = tokens.get(j) else {
        return false;
    };
    if binding.kind != TokKind::Ident {
        return false;
    }
    tokens.get(end).is_some_and(|t| t.text == binding.text)
        && tokens.get(end + 1).is_some_and(|t| t.is_punct("."))
        && tokens
            .get(end + 2)
            .is_some_and(|t| ORDER_NEUTRALIZERS.contains(&t.text.as_str()))
}

/// Index of the token starting the statement containing `i`.
fn statement_start(tokens: &[crate::lexer::Token], i: usize) -> usize {
    let mut j = i;
    while j > 0 {
        let t = &tokens[j - 1];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            break;
        }
        j -= 1;
    }
    // If this statement is the header of a `for` loop, extend the
    // window over the loop body by leaving `statement_end` to run
    // through the brace block.
    j
}

/// Index one past the end of the statement (or loop body) containing `i`.
fn statement_end(tokens: &[crate::lexer::Token], i: usize, start: usize) -> usize {
    let is_for = tokens[start..=i.min(tokens.len() - 1)]
        .iter()
        .any(|t| t.is_ident("for") || t.is_ident("while"));
    let mut j = i;
    if is_for {
        // Run to the loop's opening brace, then through the matching
        // close brace.
        while j < tokens.len() && !tokens[j].is_punct("{") {
            j += 1;
        }
        let mut depth = 0usize;
        while j < tokens.len() {
            if tokens[j].is_punct("{") {
                depth += 1;
            } else if tokens[j].is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        return j;
    }
    // A `}` ends the window too: a trailing expression (e.g. an
    // accessor body `self.entries.keys()`) must not pull the next
    // item's tokens into its statement.
    while j < tokens.len() && !tokens[j].is_punct(";") && !tokens[j].is_punct("}") {
        j += 1;
    }
    j + 1
}
