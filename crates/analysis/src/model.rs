//! The per-file source model the passes consume: the token stream plus
//! extracted functions, struct definitions, `#[cfg(test)]` regions and
//! `agar-lint: allow(...)` directives — and the guard/scope scanner
//! that both lock passes share.

use crate::lexer::{lex, Comment, Lexed, TokKind, Token};
use std::cell::Cell;
use std::ops::Range;

/// One function item found in a file.
#[derive(Debug, Clone)]
pub struct Function {
    pub name: String,
    /// Token index range of the body, *excluding* the outer braces.
    pub body: Range<usize>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// True when the body lies inside a `#[cfg(test)]`/`#[test]` region.
    pub is_test: bool,
    /// True when the declared return type names a `…Guard`
    /// (`MutexGuard`, `RwLockReadGuard`, …): calling this function
    /// acquires a lock just as `.lock()` does.
    pub returns_guard: bool,
}

/// One field of a struct definition.
#[derive(Debug, Clone)]
pub struct Field {
    pub name: String,
    /// The field's type, rendered as the joined token text.
    pub ty: String,
    pub line: u32,
}

/// One struct definition with named fields.
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    pub fields: Vec<Field>,
    pub line: u32,
    pub is_test: bool,
}

/// One `agar-lint: allow(<pass>)` directive, for one pass.
#[derive(Debug, Clone)]
pub struct Allow {
    pub pass: String,
    /// The line its comment ends on; `None` for a file-wide directive
    /// in the header.
    pub line: Option<u32>,
    /// Set once the directive has suppressed a finding.
    used: Cell<bool>,
}

impl Allow {
    /// True once [`FileModel::allowed`] has matched this directive.
    pub fn used(&self) -> bool {
        self.used.get()
    }
}

/// A parsed source file, ready for the passes.
pub struct FileModel {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    pub functions: Vec<Function>,
    pub structs: Vec<StructDef>,
    /// Token index ranges that belong to test-only code.
    pub test_regions: Vec<Range<usize>>,
    /// The file's allow directives, in source order.
    pub allows: Vec<Allow>,
}

impl FileModel {
    /// Lexes and models `source` as `path`.
    pub fn parse(path: &str, source: &str) -> FileModel {
        let Lexed { tokens, comments } = lex(source);
        let test_regions = find_test_regions(&tokens);
        let functions = find_functions(&tokens, &test_regions);
        let structs = find_structs(&tokens, &test_regions);
        let first_code_line = tokens.first().map(|t| t.line).unwrap_or(u32::MAX);
        let allows = find_allows(&comments, first_code_line);
        FileModel {
            path: path.to_string(),
            tokens,
            comments,
            functions,
            structs,
            test_regions,
            allows,
        }
    }

    /// True when token index `i` lies inside test-only code.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_regions.iter().any(|r| r.contains(&i))
    }

    /// True when a finding from `pass` at `line` is waived by an
    /// allow directive (file-level, same-line, or the line above).
    /// Every directive that matches counts as used.
    pub fn allowed(&self, pass: &str, line: u32) -> bool {
        let mut allowed = false;
        for allow in &self.allows {
            if allow.pass == pass && allow.line.is_none_or(|at| at == line || at + 1 == line) {
                allow.used.set(true);
                allowed = true;
            }
        }
        allowed
    }

    /// True when any comment mentioning `needle` ends within `window`
    /// lines above `line` (or on `line` itself).
    pub fn comment_near(&self, needle: &str, line: u32, window: u32) -> bool {
        self.comments
            .iter()
            .any(|c| c.text.contains(needle) && c.end_line <= line && c.end_line + window >= line)
    }
}

/// Finds `#[cfg(test)]` / `#[test]` / `#[cfg(all(test, …))]`-guarded
/// items and returns the token ranges of their bodies.
fn find_test_regions(tokens: &[Token]) -> Vec<Range<usize>> {
    let mut regions: Vec<Range<usize>> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            // Collect the attribute tokens up to the matching `]`.
            let attr_start = i + 2;
            let mut depth = 1usize;
            let mut j = attr_start;
            while j < tokens.len() && depth > 0 {
                if tokens[j].is_punct("[") {
                    depth += 1;
                } else if tokens[j].is_punct("]") {
                    depth -= 1;
                }
                j += 1;
            }
            let attr = &tokens[attr_start..j.saturating_sub(1)];
            if is_test_attr(attr) {
                // The guarded item's body is the next top-level brace
                // block; skip over parenthesised and bracketed groups
                // (more attributes, parameter lists) on the way.
                if let Some(body) = next_brace_block(tokens, j) {
                    regions.push(body);
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    regions
}

/// True for `test`, `cfg(test)`, `cfg(all(test, …))`, `cfg(any(test, …))`.
fn is_test_attr(attr: &[Token]) -> bool {
    match attr.first() {
        Some(t) if t.is_ident("test") && attr.len() == 1 => true,
        Some(t) if t.is_ident("cfg") => attr.iter().any(|t| t.is_ident("test")),
        _ => false,
    }
}

/// The token range (exclusive of braces) of the next `{ … }` block at
/// or after `from`, skipping `( … )` and `[ … ]` groups.
fn next_brace_block(tokens: &[Token], from: usize) -> Option<Range<usize>> {
    let mut i = from;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("{") {
            let start = i + 1;
            let mut depth = 1usize;
            let mut j = start;
            while j < tokens.len() && depth > 0 {
                if tokens[j].is_punct("{") {
                    depth += 1;
                } else if tokens[j].is_punct("}") {
                    depth -= 1;
                }
                j += 1;
            }
            return Some(start..j.saturating_sub(1));
        }
        if t.is_punct(";") {
            return None; // item without a body (e.g. `#[cfg(test)] use …;`)
        }
        if t.is_punct("(") || t.is_punct("[") {
            let open = t.text.clone();
            let close = if open == "(" { ")" } else { "]" };
            let mut depth = 1usize;
            i += 1;
            while i < tokens.len() && depth > 0 {
                if tokens[i].is_punct(&open) {
                    depth += 1;
                } else if tokens[i].is_punct(close) {
                    depth -= 1;
                }
                i += 1;
            }
            continue;
        }
        i += 1;
    }
    None
}

fn find_functions(tokens: &[Token], test_regions: &[Range<usize>]) -> Vec<Function> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") && tokens.get(i + 1).map(|t| t.kind) == Some(TokKind::Ident) {
            let name = tokens[i + 1].text.clone();
            let line = tokens[i].line;
            // Find the parameter list, then the body `{` (or `;` for
            // a bodiless trait method / extern decl).
            let mut j = i + 2;
            // Skip generics `<…>` between name and `(`.
            if tokens.get(j).is_some_and(|t| t.is_punct("<")) {
                let mut depth = 1usize;
                j += 1;
                while j < tokens.len() && depth > 0 {
                    if tokens[j].is_punct("<") {
                        depth += 1;
                    } else if tokens[j].is_punct(">") {
                        depth -= 1;
                    }
                    j += 1;
                }
            }
            if let Some(body) = next_brace_block(tokens, j) {
                let in_test = test_regions.iter().any(|r| r.contains(&body.start));
                let signature = &tokens[j..body.start];
                let returns_guard = signature
                    .iter()
                    .skip_while(|t| !t.is_punct("->"))
                    .any(|t| t.kind == TokKind::Ident && t.text.ends_with("Guard"));
                out.push(Function {
                    name,
                    body: body.clone(),
                    line,
                    is_test: in_test,
                    returns_guard,
                });
                // Continue scanning *inside* the body too (nested fns
                // are found because the scan is linear).
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    out
}

fn find_structs(tokens: &[Token], test_regions: &[Range<usize>]) -> Vec<StructDef> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("struct") && tokens.get(i + 1).map(|t| t.kind) == Some(TokKind::Ident)
        {
            let name = tokens[i + 1].text.clone();
            let line = tokens[i].line;
            let mut j = i + 2;
            // Skip generics.
            if tokens.get(j).is_some_and(|t| t.is_punct("<")) {
                let mut depth = 1usize;
                j += 1;
                while j < tokens.len() && depth > 0 {
                    if tokens[j].is_punct("<") {
                        depth += 1;
                    } else if tokens[j].is_punct(">") {
                        depth -= 1;
                    }
                    j += 1;
                }
            }
            // Only braced structs have named fields; tuple structs and
            // unit structs are skipped (`(` or `;` next).
            if tokens.get(j).is_some_and(|t| t.is_punct("{")) {
                let body = next_brace_block(tokens, j).unwrap_or(j..j);
                let fields = parse_fields(&tokens[body.clone()]);
                let is_test = test_regions.iter().any(|r| r.contains(&body.start));
                out.push(StructDef {
                    name,
                    fields,
                    line,
                    is_test,
                });
                i = body.end;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Parses `name: Type, …` fields from a struct body token slice.
///
/// A struct declared inside a `macro_rules!` template
/// (`$(pub $cell: Counter,)*`) yields one field named after the
/// metavariable (`cell`): the `$`, the repetition parentheses and the
/// `*` are skipped like any other punctuation. Passes then check the
/// template the way they check hand-written code — the field `cell` is
/// bound wherever the same arm mentions `$cell`.
fn parse_fields(body: &[Token]) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < body.len() {
        // Skip attributes and visibility.
        if body[i].is_punct("#") {
            // `#[…]`
            let mut depth = 0usize;
            i += 1;
            if i < body.len() && body[i].is_punct("[") {
                depth = 1;
                i += 1;
                while i < body.len() && depth > 0 {
                    if body[i].is_punct("[") {
                        depth += 1;
                    } else if body[i].is_punct("]") {
                        depth -= 1;
                    }
                    i += 1;
                }
            }
            let _ = depth;
            continue;
        }
        if body[i].is_ident("pub") {
            i += 1;
            if i < body.len() && body[i].is_punct("(") {
                let mut depth = 1usize;
                i += 1;
                while i < body.len() && depth > 0 {
                    if body[i].is_punct("(") {
                        depth += 1;
                    } else if body[i].is_punct(")") {
                        depth -= 1;
                    }
                    i += 1;
                }
            }
            continue;
        }
        if body[i].kind == TokKind::Ident && body.get(i + 1).is_some_and(|t| t.is_punct(":")) {
            let name = body[i].text.clone();
            let line = body[i].line;
            let mut j = i + 2;
            let mut ty = String::new();
            let mut angle = 0i32;
            let mut paren = 0i32;
            while j < body.len() {
                let t = &body[j];
                if t.is_punct(",") && angle <= 0 && paren == 0 {
                    break;
                }
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "(" | "[" => paren += 1,
                    ")" | "]" => paren -= 1,
                    _ => {}
                }
                if !ty.is_empty() && t.kind == TokKind::Ident {
                    ty.push(' ');
                }
                ty.push_str(&t.text);
                j += 1;
            }
            fields.push(Field { name, ty, line });
            i = j + 1;
            continue;
        }
        i += 1;
    }
    fields
}

/// Extracts `agar-lint: allow(pass-a, pass-b)` directives: comments
/// whose text, after the comment markers, starts with the directive
/// (prose that mentions one is not one). A directive in the file
/// header (any comment ending before the first code token, e.g. the
/// `//!` docs) applies file-wide; elsewhere it applies to its own line
/// and the next.
fn find_allows(comments: &[Comment], first_code_line: u32) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        let text = c.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(rest) = text.strip_prefix("agar-lint: allow(") else {
            continue;
        };
        let Some(end) = rest.find(')') else { continue };
        for pass in rest[..end].split(',') {
            let pass = pass.trim();
            if pass.is_empty() {
                continue;
            }
            allows.push(Allow {
                pass: pass.to_string(),
                line: (c.end_line >= first_code_line).then_some(c.end_line),
                used: Cell::new(false),
            });
        }
    }
    allows
}

// ---------------------------------------------------------------------------
// Guard/scope scanning (shared by the two lock passes)
// ---------------------------------------------------------------------------

/// How a guard came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardKind {
    /// `let g = x.lock();` — lives until end of scope or `drop(g)`.
    Named,
    /// `x.lock().foo()` — lives until the end of the statement.
    Temp,
}

/// A live lock guard during a [`scan_function`] walk.
#[derive(Debug, Clone)]
pub struct Guard {
    /// The `let` binding name (empty for temporaries).
    pub name: String,
    /// The receiver expression, e.g. `self.inner` or `slot.held`.
    pub receiver: String,
    /// The acquiring method: `lock`, `read`, `write`, or the name of a
    /// guard-returning helper (see [`Function::returns_guard`]).
    pub method: String,
    /// True when the receiver was indexed (`self.shards[i].lock()`),
    /// i.e. one of many same-named locks.
    pub indexed: bool,
    pub kind: GuardKind,
    /// Brace depth at acquisition; the guard dies when the scope
    /// unwinds past it.
    pub depth: usize,
    pub line: u32,
}

/// One event from walking a function body with guard tracking.
#[derive(Debug)]
pub enum Event<'a> {
    /// A guard was acquired; `live` includes the new guard (last).
    Acquire { guard: Guard, live: &'a [Guard] },
    /// A call `name(…)` or `.name(…)` was made while `live` guards
    /// were held (possibly none).
    Call {
        name: String,
        line: u32,
        /// True when the call was written as a method (`.name(…)`).
        method: bool,
        /// True when the argument list is non-empty.
        has_args: bool,
        live: &'a [Guard],
    },
}

/// Walks a function body, tracking lock guards, and invokes `visit`
/// for every acquisition and call. This is the single shared
/// interpretation of "which guards are live here" used by both lock
/// passes, so their findings can never disagree about scope.
pub fn scan_function(model: &FileModel, f: &Function, visit: &mut dyn FnMut(Event<'_>)) {
    let tokens = &model.tokens[f.body.clone()];
    let mut live: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    // The name bound by the `let` whose initializer we are inside, if
    // any, together with the token index just past its `=` sign. Only
    // an acquisition whose receiver chain *starts* the initializer
    // binds the guard to the name — `let c = Arc::clone(&x.read());`
    // binds an `Arc`, and the guard is a temporary.
    let mut pending_let: Option<(String, usize)> = None;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.text.as_str() {
            "{" => {
                depth += 1;
                i += 1;
                continue;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                live.retain(|g| g.depth <= depth);
                pending_let = None;
                i += 1;
                continue;
            }
            ";" => {
                live.retain(|g| g.kind != GuardKind::Temp || g.depth != depth);
                pending_let = None;
                i += 1;
                continue;
            }
            "let" if t.kind == TokKind::Ident => {
                // `let [mut] NAME [: Type] =` — only simple bindings
                // can bind a guard; destructuring patterns never do in
                // this codebase.
                let mut j = i + 1;
                if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                if let Some(name_tok) = tokens.get(j) {
                    // Lowercase start only: `if let Some(x) = …` is a
                    // destructuring pattern, not a binding of a guard.
                    if name_tok.kind == TokKind::Ident
                        && name_tok
                            .text
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_lowercase() || c == '_')
                    {
                        // Find the `=` of the initializer (skipping a
                        // type ascription), bounded by the statement.
                        let name = name_tok.text.clone();
                        let mut k = j + 1;
                        while k < tokens.len()
                            && !tokens[k].is_punct("=")
                            && !tokens[k].is_punct(";")
                            && !tokens[k].is_punct("{")
                        {
                            k += 1;
                        }
                        if tokens.get(k).is_some_and(|t| t.is_punct("=")) {
                            pending_let = Some((name, k + 1));
                        }
                    }
                }
                i += 1;
                continue;
            }
            _ => {}
        }

        // A call: `.name(` or bare `name(`.
        let is_call = t.kind == TokKind::Ident
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
            && !t.is_ident("fn");
        if is_call {
            let name = t.text.clone();
            let preceded_by_dot = i > 0 && tokens[i - 1].is_punct(".");
            let zero_arg = tokens.get(i + 2).is_some_and(|n| n.is_punct(")"));

            // Guard acquisition: `.lock()`, `.read()`, `.write()` with
            // no arguments, or a zero-argument method of this file
            // declared to return a guard (a lock helper such as
            // `fn inner(&self) -> MutexGuard<'_, Inner>`).
            if preceded_by_dot
                && zero_arg
                && (matches!(name.as_str(), "lock" | "read" | "write")
                    || model
                        .functions
                        .iter()
                        .any(|f| f.returns_guard && f.name == name))
            {
                let (receiver, indexed, recv_start) = receiver_of(tokens, i - 1);
                // Look ahead past the argument list: a chain of only
                // `.unwrap()` / `.expect(…)` keeps guard-ness (std
                // Mutex); any other trailing method call makes this a
                // temporary whose guard dies at the statement end.
                let mut k = i + 3;
                let mut only_poison_adapters = true;
                while tokens.get(k).is_some_and(|t| t.is_punct(".")) {
                    let m = tokens.get(k + 1);
                    let Some(m) = m else { break };
                    if m.kind != TokKind::Ident
                        || !tokens.get(k + 2).is_some_and(|t| t.is_punct("("))
                    {
                        break;
                    }
                    if !matches!(m.text.as_str(), "unwrap" | "expect") {
                        only_poison_adapters = false;
                        break;
                    }
                    // Skip the adapter's argument list.
                    let mut d = 1usize;
                    k += 3;
                    while k < tokens.len() && d > 0 {
                        if tokens[k].is_punct("(") {
                            d += 1;
                        } else if tokens[k].is_punct(")") {
                            d -= 1;
                        }
                        k += 1;
                    }
                }
                // The let binds the guard only when the receiver chain
                // starts the initializer (modulo `&`/`*`/parens) and
                // nothing but poison adapters trails the acquisition.
                let direct_init = pending_let.as_ref().is_some_and(|(_, init_start)| {
                    *init_start <= recv_start
                        && tokens[*init_start..recv_start]
                            .iter()
                            .all(|t| t.is_punct("&") || t.is_punct("*") || t.is_punct("("))
                });
                let named = direct_init && only_poison_adapters;
                let guard = Guard {
                    name: if named {
                        pending_let
                            .as_ref()
                            .map(|(n, _)| n.clone())
                            .unwrap_or_default()
                    } else {
                        String::new()
                    },
                    receiver,
                    method: name.clone(),
                    indexed,
                    kind: if named {
                        GuardKind::Named
                    } else {
                        GuardKind::Temp
                    },
                    depth,
                    line: t.line,
                };
                live.push(guard.clone());
                visit(Event::Acquire { guard, live: &live });
                i += 1;
                continue;
            }

            // `drop(g)` / `mem::drop(g)` releases a named guard.
            if name == "drop" && !preceded_by_dot {
                if let Some(arg) = tokens.get(i + 2) {
                    if arg.kind == TokKind::Ident
                        && tokens.get(i + 3).is_some_and(|t| t.is_punct(")"))
                    {
                        let victim = &arg.text;
                        if let Some(pos) = live.iter().rposition(|g| &g.name == victim) {
                            live.remove(pos);
                        }
                    }
                }
            }

            visit(Event::Call {
                name,
                line: t.line,
                method: preceded_by_dot,
                has_args: !zero_arg,
                live: &live,
            });
        }
        i += 1;
    }
}

/// Walks backwards from the `.` before an acquisition to render the
/// receiver expression (`self.inner`, `slot.held`, …) and the token
/// index where it starts. An index group `[…]` is skipped and
/// reported via the `indexed` flag.
fn receiver_of(tokens: &[Token], dot: usize) -> (String, bool, usize) {
    let mut parts: Vec<String> = Vec::new();
    let mut indexed = false;
    let mut start = dot;
    let mut i = dot; // points at the `.`
    loop {
        if i == 0 {
            break;
        }
        i -= 1;
        let t = &tokens[i];
        if t.is_punct("]") {
            // Skip the index group.
            indexed = true;
            let mut depth = 1usize;
            while i > 0 && depth > 0 {
                i -= 1;
                if tokens[i].is_punct("]") {
                    depth += 1;
                } else if tokens[i].is_punct("[") {
                    depth -= 1;
                }
            }
            continue;
        }
        if t.is_punct(")") {
            // A call in the receiver chain (`self.inner().lock()`):
            // skip the arguments and keep collecting.
            let mut depth = 1usize;
            while i > 0 && depth > 0 {
                i -= 1;
                if tokens[i].is_punct(")") {
                    depth += 1;
                } else if tokens[i].is_punct("(") {
                    depth -= 1;
                }
            }
            continue;
        }
        match t.kind {
            TokKind::Ident => {
                parts.push(t.text.clone());
                start = i;
            }
            TokKind::Punct if t.text == "." || t.text == "::" => continue,
            _ => break,
        }
        // After an identifier, only continue through `.`/`::`.
        if i == 0 {
            break;
        }
        let prev = &tokens[i - 1];
        if !(prev.is_punct(".") || prev.is_punct("::")) {
            break;
        }
    }
    parts.reverse();
    (parts.join("."), indexed, start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functions_and_test_regions() {
        let src = r#"
            fn live() { body(); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn in_test() { body(); }
            }
        "#;
        let m = FileModel::parse("x.rs", src);
        let names: Vec<(&str, bool)> = m
            .functions
            .iter()
            .map(|f| (f.name.as_str(), f.is_test))
            .collect();
        assert!(names.contains(&("live", false)));
        assert!(names.contains(&("in_test", true)));
    }

    #[test]
    fn struct_fields_with_generics() {
        let src = "pub struct S<T> { pub a: Mutex<HashMap<K, V>>, b: Counter, }";
        let m = FileModel::parse("x.rs", src);
        assert_eq!(m.structs.len(), 1);
        let s = &m.structs[0];
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].name, "a");
        assert!(s.fields[0].ty.contains("Mutex"));
        assert_eq!(s.fields[1].ty, "Counter");
    }

    #[test]
    fn macro_template_fields_are_named_after_their_metavariable() {
        let src = "macro_rules! table { ($($cell:ident: $help:literal;)*) => {
            pub struct Cells { $(#[doc = $help] pub $cell: Counter,)* fixed: Gauge }
        }; }";
        let m = FileModel::parse("x.rs", src);
        assert_eq!(m.structs.len(), 1);
        let fields: Vec<(&str, &str)> = m.structs[0]
            .fields
            .iter()
            .map(|f| (f.name.as_str(), f.ty.as_str()))
            .collect();
        assert_eq!(fields, [("cell", "Counter"), ("fixed", "Gauge")]);
    }

    #[test]
    fn guard_scopes_and_drop() {
        let src = r#"
            fn f(&self) {
                let g = self.inner.lock();
                before();
                drop(g);
                after();
                {
                    let h = self.other.read();
                    nested();
                }
                outside();
            }
        "#;
        let m = FileModel::parse("x.rs", src);
        let f = &m.functions[0];
        let mut at: Vec<(String, usize)> = Vec::new();
        scan_function(&m, f, &mut |ev| {
            if let Event::Call { name, live, .. } = ev {
                at.push((name, live.len()));
            }
        });
        let lookup = |n: &str| at.iter().find(|(name, _)| name == n).map(|(_, l)| *l);
        assert_eq!(lookup("before"), Some(1));
        assert_eq!(lookup("after"), Some(0));
        assert_eq!(lookup("nested"), Some(1));
        assert_eq!(lookup("outside"), Some(0));
    }

    #[test]
    fn temp_guard_dies_at_statement_end() {
        let src = r#"
            fn f(&self) {
                self.map.lock().insert(k, v);
                later();
            }
        "#;
        let m = FileModel::parse("x.rs", src);
        let mut at: Vec<(String, usize)> = Vec::new();
        scan_function(&m, &m.functions[0], &mut |ev| {
            if let Event::Call { name, live, .. } = ev {
                at.push((name, live.len()));
            }
        });
        let lookup = |n: &str| at.iter().find(|(name, _)| name == n).map(|(_, l)| *l);
        assert_eq!(lookup("insert"), Some(1));
        assert_eq!(lookup("later"), Some(0));
    }

    #[test]
    fn std_mutex_unwrap_still_binds_a_named_guard() {
        let src = r#"
            fn f(&self) {
                let inner = self.inner.lock().unwrap();
                uses(inner);
            }
        "#;
        let m = FileModel::parse("x.rs", src);
        let mut named = 0;
        scan_function(&m, &m.functions[0], &mut |ev| {
            if let Event::Acquire { guard, .. } = ev {
                if guard.kind == GuardKind::Named {
                    named += 1;
                    assert_eq!(guard.name, "inner");
                    assert_eq!(guard.receiver, "self.inner");
                }
            }
        });
        assert_eq!(named, 1);
    }

    #[test]
    fn indexed_receivers_are_flagged() {
        let src = "fn f(&self) { let s = self.shards[i % n].lock(); s.get(k); }";
        let m = FileModel::parse("x.rs", src);
        let mut seen = false;
        scan_function(&m, &m.functions[0], &mut |ev| {
            if let Event::Acquire { guard, .. } = ev {
                assert!(guard.indexed);
                assert_eq!(guard.receiver, "self.shards");
                seen = true;
            }
        });
        assert!(seen);
    }

    #[test]
    fn allow_directives() {
        let src = "//! Header docs.\n//! agar-lint: allow(determinism)\nfn f() {\n    x(); // agar-lint: allow(lock-across-blocking)\n}\n";
        let m = FileModel::parse("x.rs", src);
        assert!(m.allowed("determinism", 99));
        assert!(m.allowed("lock-across-blocking", 4));
        assert!(m.allowed("lock-across-blocking", 5));
        assert!(!m.allowed("lock-across-blocking", 3));
        assert!(!m.allowed("lock-order", 4));
        assert!(m.allows.iter().all(Allow::used));
    }

    #[test]
    fn prose_that_mentions_a_directive_is_not_one() {
        let src = "//! Waive with `agar-lint: allow(determinism)`.\nfn f() {}\n";
        let m = FileModel::parse("x.rs", src);
        assert!(m.allows.is_empty());
        assert!(!m.allowed("determinism", 2));
    }
}
