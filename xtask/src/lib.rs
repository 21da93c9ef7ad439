//! `li-lint`: workspace invariant linter.
//!
//! The build environment has no crates.io access, so instead of `syn`
//! this uses a small hand-rolled Rust lexer ([`lexer`]) that blanks
//! comments, strings and char literals out of the source (preserving
//! byte offsets and line numbers) and records comment text separately.
//! Rules then operate on the cleaned text, where naive substring /
//! token scanning is sound.
//!
//! Rules (all CI-failing; see DESIGN.md "Verification matrix"):
//!
//! * **R1 sync-shim**: no direct `std::sync::atomic` / `parking_lot` /
//!   `std::hint::spin_loop` / `std::sync::mpsc` / `std::thread::` use
//!   outside `crates/sync` — everything goes through `li-sync` so
//!   `--cfg loom` instruments the real code and the lockdep witness
//!   sees every blocking point.
//! * **R2 safety-comments**: every `unsafe` keyword is preceded (within
//!   a few lines) by a `// SAFETY:` comment.
//! * **R3 relaxed-allowlist**: files using `Ordering::Relaxed` must be
//!   listed, with a reason, in `xtask/relaxed-allowlist.txt` — the
//!   audit trail that each use is a statistics counter, not a
//!   cross-thread control flag. The allowlist itself is audited too:
//!   reasonless or stale entries (file gone, or Relaxed-free) fail.
//! * **R4 hot-path-panics**: no `panic!` / `unwrap` / `expect` /
//!   `unreachable!` inside hot-path functions — the Viper
//!   `put`/`get`/`delete`, the record heap's per-record paths under
//!   them, the WAL append/replay, the shard op/cutover
//!   paths, the dynamic PGM's lookup/buffer/flush/range path under them, the
//!   proto frame decoder, and the li-server request path —
//!   excluding `#[cfg(test)]`. The list is audited too: a listed file
//!   that is gone, or a listed name with no `fn` in its file, fails.
//! * **R6 lock-order** ([`lockorder`]): every zero-arg
//!   `.lock()`/`.read()`/`.write()` site in `crates/*/src` maps to a
//!   class in `xtask/lock-order.txt`, and nesting inferred from
//!   guard-binding scopes respects the declared hierarchy (the static
//!   half of the lockdep checker; the runtime witness in `li-sync` is
//!   the other half). The hierarchy file is audited too: a `map` line
//!   for a file that is gone, or a class no `map` line names, fails.

pub mod lexer;
pub mod lockorder;
pub mod rules;

use std::path::{Path, PathBuf};

/// One rule violation; `cargo xtask lint` prints these and exits 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: PathBuf,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule, self.msg)
    }
}

/// Source files the linter covers: `src/`, `tests/`, and every
/// `crates/*/src` except the shim itself. `vendor/`, `xtask/` and
/// `target/` are out of scope (vendored stubs mirror upstream APIs;
/// the linter's own sources mention the banned tokens).
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    collect_rs(&root.join("src"), &mut out);
    collect_rs(&root.join("tests"), &mut out);
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            let p = e.path();
            if p.file_name().is_some_and(|n| n == "sync") {
                continue;
            }
            collect_rs(&p.join("src"), &mut out);
        }
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Loads the declared lock hierarchy, degrading a missing/invalid file
/// into a violation so `cargo xtask lint` fails loudly instead of
/// silently skipping R6.
fn load_order(root: &Path, out: &mut Vec<Violation>) -> lockorder::LockOrder {
    match lockorder::LockOrder::load(root) {
        Ok(order) => order,
        Err(e) => {
            out.push(Violation {
                file: root.join("xtask/lock-order.txt"),
                line: 0,
                rule: "lock-order",
                msg: e,
            });
            lockorder::LockOrder::empty()
        }
    }
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> Vec<Violation> {
    let allow = rules::RelaxedAllowlist::load(root);
    let mut out = Vec::new();
    out.extend(allow.audit(root));
    let order = load_order(root, &mut out);
    out.extend(order.audit(root));
    out.extend(rules::hot_fns_audit(root));
    for file in workspace_files(root) {
        let Ok(src) = std::fs::read_to_string(&file) else { continue };
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        out.extend(rules::check_file(&rel, &src, &allow, &order));
    }
    out
}

/// Lints explicit files (fixture mode); relative paths are kept as
/// given, the allowlist and lock hierarchy still come from `root`.
pub fn lint_files(root: &Path, files: &[PathBuf]) -> Vec<Violation> {
    let allow = rules::RelaxedAllowlist::load(root);
    let mut out = Vec::new();
    let order = load_order(root, &mut out);
    for file in files {
        match std::fs::read_to_string(file) {
            Ok(src) => out.extend(rules::check_file(file, &src, &allow, &order)),
            Err(e) => out.push(Violation {
                file: file.clone(),
                line: 0,
                rule: "io",
                msg: format!("cannot read: {e}"),
            }),
        }
    }
    out
}
