//! R6 lock-order: the static half of the lock-hierarchy checker.
//!
//! Parses `xtask/lock-order.txt` (shared with the runtime lockdep
//! witness in `li-sync`) and checks every zero-argument `.lock()` /
//! `.read()` / `.write()` (+ `try_` variants) call site in production
//! `crates/*/src` code against it. Nesting is inferred from
//! guard-binding scopes inside each function body: a `let`-bound guard
//! is held from its statement to the end of its enclosing block (or an
//! explicit `drop(name)`), a temporary only for its own statement.
//!
//! The pass deliberately under-approximates: it tracks only what the
//! lexer can see, so custom lock-returning helpers (e.g. a method that
//! internally locks and returns a token), guards captured by closures,
//! and edition-2021 `if let` temporary extension are invisible here.
//! The runtime witness (`li-sync` with `--features lockdep`) is the
//! authoritative checker for those shapes; R6's job is to keep the
//! *declared* hierarchy honest at the source level and to force every
//! new lock site to register a `map` line before it compiles past CI.

use std::collections::{HashMap, HashSet};
use std::path::Path;

use crate::lexer::{self, Cleaned};
use crate::Violation;

/// Zero-argument guard-acquiring methods R6 recognises.
const LOCK_METHODS: [&str; 6] = ["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// Parsed `xtask/lock-order.txt`.
#[derive(Debug)]
pub struct LockOrder {
    /// class name -> `ordered` flag (same-class nesting permitted).
    classes: HashMap<String, bool>,
    /// `(class, line number)` of each `class` directive, in file order.
    declared: Vec<(String, usize)>,
    /// Transitive closure: `reach[a]` = classes acquirable while `a` is
    /// held.
    reach: HashMap<String, HashSet<String>>,
    /// `(file suffix, receiver ident, class, line number)` from `map`
    /// directives.
    maps: Vec<(String, String, String, usize)>,
}

impl LockOrder {
    /// An order with no declarations: R6 still runs, flagging every
    /// production lock site as unmapped.
    pub fn empty() -> Self {
        LockOrder {
            classes: HashMap::new(),
            declared: Vec::new(),
            reach: HashMap::new(),
            maps: Vec::new(),
        }
    }

    pub fn load(root: &Path) -> Result<Self, String> {
        let path = root.join("xtask/lock-order.txt");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Parses and validates: directives well-formed, classes declared
    /// before use, the `order` relation acyclic.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut classes: HashMap<String, bool> = HashMap::new();
        let mut declared = Vec::new();
        let mut direct: HashMap<String, HashSet<String>> = HashMap::new();
        let mut maps = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let lineno = idx + 1;
            let mut words = line.split_whitespace();
            match words.next() {
                Some("class") => {
                    let Some(name) = words.next() else {
                        return Err(format!("line {lineno}: `class` needs a name"));
                    };
                    let ordered = match words.next() {
                        None => false,
                        Some("ordered") => true,
                        Some(w) => {
                            return Err(format!("line {lineno}: unknown class flag `{w}`"));
                        }
                    };
                    if classes.insert(name.to_string(), ordered).is_some() {
                        return Err(format!("line {lineno}: duplicate class `{name}`"));
                    }
                    declared.push((name.to_string(), lineno));
                }
                Some("order") => {
                    let chain: Vec<&str> =
                        line["order".len()..].split('>').map(str::trim).collect();
                    if chain.len() < 2 || chain.iter().any(|c| c.is_empty()) {
                        return Err(format!("line {lineno}: `order` needs `a > b [> c ...]`"));
                    }
                    for pair in chain.windows(2) {
                        for c in pair {
                            if !classes.contains_key(*c) {
                                return Err(format!("line {lineno}: undeclared class `{c}`"));
                            }
                        }
                        direct.entry(pair[0].to_string()).or_default().insert(pair[1].to_string());
                    }
                }
                Some("map") => {
                    let (Some(file), Some(recv), Some(class)) =
                        (words.next(), words.next(), words.next())
                    else {
                        return Err(format!("line {lineno}: `map` needs `<file> <recv> <class>`"));
                    };
                    if !classes.contains_key(class) {
                        return Err(format!("line {lineno}: undeclared class `{class}`"));
                    }
                    maps.push((file.to_string(), recv.to_string(), class.to_string(), lineno));
                }
                Some(other) => {
                    return Err(format!("line {lineno}: unknown directive `{other}`"));
                }
                None => unreachable!("blank lines are skipped above"),
            }
        }
        // Transitive closure by repeated relaxation; a class reaching
        // itself means the declared relation has a cycle.
        let mut reach: HashMap<String, HashSet<String>> = direct.clone();
        loop {
            let mut grew = false;
            for from in classes.keys() {
                let mids: Vec<String> =
                    reach.get(from).map(|s| s.iter().cloned().collect()).unwrap_or_default();
                let step: Vec<String> = mids
                    .iter()
                    .flat_map(|mid| reach.get(mid).cloned().unwrap_or_default())
                    .collect();
                let set = reach.entry(from.clone()).or_default();
                for c in step {
                    grew |= set.insert(c);
                }
            }
            if !grew {
                break;
            }
        }
        for (from, set) in &reach {
            if set.contains(from) {
                return Err(format!("declared order is cyclic through `{from}`"));
            }
        }
        Ok(LockOrder { classes, declared, reach, maps })
    }

    /// R6 audit of the hierarchy file itself: every `map` line must name
    /// a file that exists under `root`, and every declared class must be
    /// named by some `map` line — otherwise the file keeps entries for
    /// locks that are gone, and the hierarchy it documents has rotted.
    pub fn audit(&self, root: &Path) -> Vec<Violation> {
        let stale = |line: usize, msg: String| Violation {
            file: root.join("xtask/lock-order.txt"),
            line,
            rule: "lock-order",
            msg,
        };
        let mut out = Vec::new();
        for (file, _, _, line) in &self.maps {
            if !root.join(file).is_file() {
                out.push(stale(*line, format!("stale `map` line: `{file}` does not exist")));
            }
        }
        for (class, line) in &self.declared {
            if !self.maps.iter().any(|(_, _, c, _)| c == class) {
                out.push(stale(
                    *line,
                    format!("class `{class}` is declared but no `map` line names it"),
                ));
            }
        }
        out
    }

    /// The class mapped for `recv` in `file`, by path-suffix match.
    fn class_of(&self, file: &str, recv: &str) -> Option<&str> {
        self.maps
            .iter()
            .find(|(f, r, _, _)| r == recv && (file == *f || file.ends_with(&format!("/{f}"))))
            .map(|(_, _, c, _)| c.as_str())
    }

    /// Whether `file` has any `map` directives (i.e. is under R6).
    fn file_is_mapped(&self, file: &str) -> bool {
        self.maps.iter().any(|(f, _, _, _)| file == *f || file.ends_with(&format!("/{f}")))
    }

    fn may_nest(&self, outer: &str, inner: &str) -> bool {
        self.reach.get(outer).is_some_and(|s| s.contains(inner))
    }
}

/// A guard the scanner believes is held at the current point.
struct Held {
    class: String,
    /// Binding name, for `drop(name)` tracking; empty for unnamed.
    name: String,
    line: usize,
}

/// R6 entry point: checks one production file's lock sites.
///
/// Only `crates/*/src` files participate — root `tests/` harnesses
/// acquire locks freely and are covered by the runtime witness instead.
pub fn lock_order(
    file: &Path,
    cleaned: &Cleaned,
    excluded: &[(usize, usize)],
    order: &LockOrder,
) -> Vec<Violation> {
    let f = file.to_string_lossy().replace('\\', "/");
    let in_production = f.starts_with("crates/") || f.contains("/crates/");
    if !(in_production && f.contains("/src/")) {
        return Vec::new();
    }
    let code = &cleaned.code;
    let mut out = Vec::new();

    // Every lock construction in a mapped file must carry an explicit
    // class: a bare `new` would silently fall back to an auto class the
    // hierarchy file knows nothing about.
    if order.file_is_mapped(&f) {
        for pat in ["Mutex::new(", "RwLock::new("] {
            let mut from = 0usize;
            while let Some(p) = code[from..].find(pat) {
                let at = from + p;
                from = at + pat.len();
                if in_spans(excluded, at) || !boundary_before(code, at) {
                    continue;
                }
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: lexer::line_of(code, at),
                    rule: "lock-order",
                    msg: format!(
                        "bare `{}` in a lock-mapped file; construct with \
                         `with_class(li_sync::lock_class!(..), ..)` and map the class \
                         in xtask/lock-order.txt",
                        pat.trim_end_matches('(')
                    ),
                });
            }
        }
    }

    for fn_at in find_fn_bodies(code) {
        if in_spans(excluded, fn_at.0) {
            continue;
        }
        out.extend(scan_body(file, &f, code, fn_at.1, fn_at.2, order));
    }
    out
}

/// `(fn keyword offset, body open brace, body close brace)` for each
/// function with a body.
fn find_fn_bodies(code: &str) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(p) = code[from..].find("fn") {
        let at = from + p;
        from = at + 2;
        if !lexer::is_word(code, at, 2) {
            continue;
        }
        let sig = &code[at..];
        let Some(open_rel) = sig.find('{') else { continue };
        if sig.find(';').is_some_and(|s| s < open_rel) {
            continue; // trait method declaration without a body
        }
        let open = at + open_rel;
        if let Some(close) = match_brace(code, open) {
            out.push((at, open, close));
            from = open + 1; // nested fns get their own entry
        }
    }
    out
}

/// Scans one function body, tracking guard-binding scopes.
#[allow(clippy::too_many_lines)]
fn scan_body(
    file: &Path,
    fpath: &str,
    code: &str,
    open: usize,
    close: usize,
    order: &LockOrder,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    // One Vec<Held> per open block; popping a block drops its guards.
    let mut scopes: Vec<Vec<Held>> = vec![Vec::new()];
    let mut stmt_start = open + 1;
    let mut i = open + 1;
    while i < close {
        match bytes[i] {
            b'{' => {
                scopes.push(Vec::new());
                stmt_start = i + 1;
            }
            b'}' => {
                scopes.pop();
                if scopes.is_empty() {
                    // Unbalanced body (closure braces counted by
                    // match_brace keep this from happening, but stay
                    // defensive for malformed fixtures).
                    return out;
                }
                stmt_start = i + 1;
            }
            b';' => {
                stmt_start = i + 1;
            }
            b'd' if code[i..].starts_with("drop") && lexer::is_word(code, i, 4) => {
                // `drop(name)` releases a tracked guard early.
                let rest = code[i + 4..].trim_start();
                if let Some(inner) = rest.strip_prefix('(') {
                    let name: String =
                        inner.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
                    if !name.is_empty() {
                        for scope in &mut scopes {
                            scope.retain(|h| h.name != name);
                        }
                    }
                }
            }
            b'.' => {
                if let Some(method) = lock_method_at(code, i) {
                    let line = lexer::line_of(code, i);
                    let Some(recv) = receiver_of(code, i) else {
                        i += 1;
                        continue;
                    };
                    match order.class_of(fpath, &recv) {
                        None => out.push(Violation {
                            file: file.to_path_buf(),
                            line,
                            rule: "lock-order",
                            msg: format!(
                                "unmapped lock site `{recv}.{method}()`; add a \
                                 `map` line for it to xtask/lock-order.txt"
                            ),
                        }),
                        Some(class) => {
                            for held in scopes.iter().flatten() {
                                check_edge(file, line, held, class, &recv, method, order, &mut out);
                            }
                            // The guard is held past this statement only
                            // when the lock call itself is the whole
                            // initializer of a `let`: a chained call /
                            // field access (`.lock().pop()`) or a call
                            // argument (`take(&mut *x.lock())`) consumes
                            // the guard as a temporary.
                            if call_terminates_initializer(code, i + 1 + method.len()) {
                                if let Some(name) = binding_name(&code[stmt_start..i]) {
                                    let Some(top) = scopes.last_mut() else { unreachable!() };
                                    top.push(Held { class: class.to_string(), name, line });
                                }
                            }
                        }
                    }
                    i += 1 + method.len();
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn check_edge(
    file: &Path,
    line: usize,
    held: &Held,
    class: &str,
    recv: &str,
    method: &str,
    order: &LockOrder,
    out: &mut Vec<Violation>,
) {
    if held.class == class {
        if !order.classes.get(class).copied().unwrap_or(false) {
            out.push(Violation {
                file: file.to_path_buf(),
                line,
                rule: "lock-order",
                msg: format!(
                    "`{recv}.{method}()` acquires `{class}` while a `{class}` guard \
                     from line {} is held; declare the class `ordered` (and nest in \
                     one global order) or restructure",
                    held.line
                ),
            });
        }
        return;
    }
    if !order.may_nest(&held.class, class) {
        let inverted = order.may_nest(class, &held.class);
        out.push(Violation {
            file: file.to_path_buf(),
            line,
            rule: "lock-order",
            msg: if inverted {
                format!(
                    "lock-order inversion: `{recv}.{method}()` acquires `{class}` while \
                     `{}` (line {}) is held, but the declared hierarchy orders \
                     `{class}` above `{}`",
                    held.class, held.line, held.class
                )
            } else {
                format!(
                    "undeclared lock edge `{}` -> `{class}` at `{recv}.{method}()` \
                     (outer guard from line {}); add an `order` line to \
                     xtask/lock-order.txt if this nesting is intended",
                    held.class, held.line
                )
            },
        });
    }
}

/// True when the `()` starting at/after `after_method` is directly
/// followed by `;` (plain `let g = x.lock();`) or `{` (`if let Some(g)
/// = x.try_lock() {`), i.e. the guard itself is what the statement
/// binds. Anything else — `.lock().pop()`, `take(&mut *x.lock())`,
/// `(x.lock(), y.lock())` — consumes the guard as a temporary.
fn call_terminates_initializer(code: &str, after_method: usize) -> bool {
    let rest = code[after_method..].trim_start();
    debug_assert!(rest.starts_with("()"), "caller checked via lock_method_at");
    matches!(rest[2..].trim_start().chars().next(), Some(';' | '{'))
}

/// If offset `dot` starts `.<lock method>()`, the method name.
fn lock_method_at(code: &str, dot: usize) -> Option<&'static str> {
    let rest = &code[dot + 1..];
    LOCK_METHODS
        .iter()
        .find(|m| rest.starts_with(**m) && rest[m.len()..].trim_start().starts_with("()"))
        .copied()
}

/// Last path segment of the receiver expression ending at `dot`:
/// `self.table.read()` -> `table`, `self.0[i].lock()` -> `0`,
/// `self.stripe(off).lock()` -> `stripe`.
fn receiver_of(code: &str, dot: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = dot;
    // Step over one trailing index/call group, e.g. `[i]` or `(off)`.
    while i > 0 && (bytes[i - 1] == b')' || bytes[i - 1] == b']') {
        let close = bytes[i - 1];
        let open = if close == b')' { b'(' } else { b'[' };
        let mut depth = 0usize;
        while i > 0 {
            i -= 1;
            if bytes[i] == close {
                depth += 1;
            } else if bytes[i] == open {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
        if depth != 0 {
            return None;
        }
    }
    let end = i;
    while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        i -= 1;
    }
    if i == end {
        return None; // e.g. a method chained straight off a call: `f().lock()`
    }
    Some(code[i..end].to_string())
}

/// Binding name if the statement prefix `stmt` is a `let` (or `if let`
/// / `while let`) that will hold the guard; `None` for temporaries and
/// `let _ = ...` (dropped immediately).
fn binding_name(stmt: &str) -> Option<String> {
    let eq = find_assign_eq(stmt)?;
    let lhs = &stmt[..eq];
    let mut has_let = false;
    let mut last = None;
    for tok in lhs.split(|c: char| !(c.is_alphanumeric() || c == '_')).filter(|t| !t.is_empty()) {
        match tok {
            "let" => has_let = true,
            "if" | "while" | "mut" | "Some" | "Ok" | "ref" => {}
            t => last = Some(t),
        }
    }
    match (has_let, last) {
        (true, Some(name)) if name != "_" => Some(name.to_string()),
        _ => None,
    }
}

/// Offset of the `=` introducing the initializer, skipping `==`, `=>`,
/// `<=`, `>=`, `!=`.
fn find_assign_eq(stmt: &str) -> Option<usize> {
    let b = stmt.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        if c != b'=' {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| b[p]);
        let next = b.get(i + 1);
        if prev == Some(b'=') || prev == Some(b'<') || prev == Some(b'>') || prev == Some(b'!') {
            continue;
        }
        if next == Some(&b'=') || next == Some(&b'>') {
            continue;
        }
        return Some(i);
    }
    None
}

/// True when `at` is not preceded by an identifier character (so
/// `Mutex::new` does not match `MyMutex::new`).
fn boundary_before(code: &str, at: usize) -> bool {
    at == 0 || {
        let c = code.as_bytes()[at - 1];
        !(c.is_ascii_alphanumeric() || c == b'_')
    }
}

fn in_spans(spans: &[(usize, usize)], pos: usize) -> bool {
    spans.iter().any(|&(a, b)| pos >= a && pos < b)
}

/// Offset of the `}` matching the `{` at `open`.
fn match_brace(code: &str, open: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    for (i, &c) in bytes.iter().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const ORDER: &str = "\
class outer
class inner
class twin ordered
class solo
order outer > inner
map crates/fix/src/locks.rs a outer
map crates/fix/src/locks.rs b inner
map crates/fix/src/locks.rs t twin
map crates/fix/src/locks.rs s solo
";

    fn check(src: &str) -> Vec<Violation> {
        let order = LockOrder::parse(ORDER).unwrap();
        let cleaned = crate::lexer::clean(src);
        let excluded = crate::rules::test_spans(&cleaned.code);
        lock_order(&PathBuf::from("crates/fix/src/locks.rs"), &cleaned, &excluded, &order)
    }

    #[test]
    fn parse_rejects_cycles_and_unknown_classes() {
        assert!(LockOrder::parse("class a\nclass b\norder a > b\norder b > a\n")
            .unwrap_err()
            .contains("cyclic"));
        assert!(LockOrder::parse("order a > b\n").unwrap_err().contains("undeclared"));
        assert!(LockOrder::parse("class a\nmap f.rs x nope\n").unwrap_err().contains("undeclared"));
        assert!(LockOrder::parse("class a\nclass a\n").unwrap_err().contains("duplicate"));
        // Transitivity: a > b > c implies a > c.
        let o = LockOrder::parse("class a\nclass b\nclass c\norder a > b\norder b > c\n").unwrap();
        assert!(o.may_nest("a", "c"));
        assert!(!o.may_nest("c", "a"));
    }

    #[test]
    fn audit_flags_missing_files_and_unmapped_classes() {
        let dir = std::env::temp_dir().join(format!("li-lint-order-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("src")).unwrap();
        std::fs::write(dir.join("src/live.rs"), "").unwrap();
        let order = LockOrder::parse(
            "class kept\n\
             class orphan\n\
             class moved\n\
             map src/live.rs a kept\n\
             map src/gone.rs b moved\n",
        )
        .unwrap();
        let v = order.audit(&dir);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "lock-order"));
        assert!(v.iter().any(|x| x.msg.contains("src/gone.rs") && x.line == 5), "{v:?}");
        assert!(v.iter().any(|x| x.msg.contains("`orphan`") && x.line == 2), "{v:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn declared_nesting_passes_and_inversion_fails() {
        let ok =
            "fn f(s: &S) {\n    let g = s.a.read();\n    let h = s.b.lock();\n    *h += 1;\n}\n";
        assert!(check(ok).is_empty(), "{:?}", check(ok));
        let bad = "fn f(s: &S) {\n    let h = s.b.lock();\n    let g = s.a.write();\n}\n";
        let v = check(bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("inversion"), "{}", v[0].msg);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn undeclared_edge_is_distinct_from_inversion() {
        let src = "fn f(s: &S) {\n    let g = s.s.lock();\n    let h = s.b.lock();\n}\n";
        let v = check(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("undeclared lock edge"), "{}", v[0].msg);
    }

    #[test]
    fn drop_and_block_close_release_guards() {
        let dropped =
            "fn f(s: &S) {\n    let h = s.b.lock();\n    drop(h);\n    let g = s.a.write();\n}\n";
        assert!(check(dropped).is_empty(), "{:?}", check(dropped));
        let scoped = "fn f(s: &S) {\n    {\n        let h = s.b.lock();\n    }\n    let g = s.a.write();\n}\n";
        assert!(check(scoped).is_empty(), "{:?}", check(scoped));
        // A temporary is not held past its own statement.
        let temp = "fn f(s: &S) {\n    *s.b.lock() += 1;\n    let g = s.a.write();\n}\n";
        assert!(check(temp).is_empty(), "{:?}", check(temp));
        // `let _ = ...` drops immediately.
        let discard = "fn f(s: &S) {\n    let _ = s.b.lock();\n    let g = s.a.write();\n}\n";
        assert!(check(discard).is_empty(), "{:?}", check(discard));
        // A chained call or a call-argument position consumes the guard
        // as a temporary: the `let` binds the chain's result, not the
        // guard (`run_adaptation`'s `tuner.lock().observe(..)` shape).
        let chained = "fn f(s: &S) {\n    let v = s.b.lock().pop();\n    let g = s.a.write();\n    drop(g);\n    let w = take(&mut *s.b.lock());\n    let h = s.a.read();\n}\n";
        assert!(check(chained).is_empty(), "{:?}", check(chained));
    }

    #[test]
    fn same_class_nesting_needs_ordered_flag() {
        let bad = "fn f(s: &S) {\n    let g = s.b.lock();\n    let h = s.b.lock();\n}\n";
        let v = check(bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("ordered"), "{}", v[0].msg);
        let ok = "fn f(s: &S) {\n    let g = s.t.lock();\n    let h = s.t.lock();\n}\n";
        assert!(check(ok).is_empty(), "{:?}", check(ok));
    }

    #[test]
    fn receivers_reach_through_index_and_call_groups() {
        let src =
            "fn f(s: &S, i: usize) {\n    let g = s.a[i].read();\n    let h = s.b(i).lock();\n}\n";
        assert!(check(src).is_empty(), "{:?}", check(src));
        let inverted =
            "fn f(s: &S, i: usize) {\n    let h = s.b(i).lock();\n    let g = s.a[i].write();\n}\n";
        assert_eq!(check(inverted).len(), 1);
    }

    #[test]
    fn unmapped_sites_and_bare_constructors_are_flagged() {
        let v = check("fn f(s: &S) {\n    let g = s.mystery.lock();\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("unmapped"), "{}", v[0].msg);
        let v = check("fn f() -> M {\n    Mutex::new(0)\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("bare `Mutex::new`"), "{}", v[0].msg);
        // with_class construction and test modules are fine.
        let ok = "fn f() -> M {\n    Mutex::with_class(li_sync::lock_class!(\"x\"), 0)\n}\n\
                  #[cfg(test)]\nmod tests {\n    fn t() -> M { Mutex::new(0) }\n}\n";
        assert!(check(ok).is_empty(), "{:?}", check(ok));
    }

    #[test]
    fn try_variants_and_if_let_bindings_count() {
        let src = "fn f(s: &S) {\n    if let Some(g) = s.b.try_lock() {\n        let h = s.a.write();\n    }\n}\n";
        let v = check(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("inversion"), "{}", v[0].msg);
    }

    #[test]
    fn files_outside_crates_src_are_ignored() {
        let order = LockOrder::parse(ORDER).unwrap();
        let cleaned = crate::lexer::clean("fn f(s: &S) { let g = s.mystery.lock(); }\n");
        let v = lock_order(&PathBuf::from("tests/harness.rs"), &cleaned, &[], &order);
        assert!(v.is_empty());
    }
}
