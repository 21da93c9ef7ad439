//! The lint rules. Each operates on [`crate::lexer::Cleaned`] text, so
//! substring scans cannot be fooled by comments or string literals.

use std::path::Path;

use crate::lexer::{self, Cleaned};
use crate::lockorder::{self, LockOrder};
use crate::Violation;

/// How many lines above an `unsafe` keyword a `// SAFETY:` comment may
/// sit (attributes or a signature line may intervene).
const SAFETY_WINDOW: usize = 8;

/// Parsed `xtask/relaxed-allowlist.txt`: files audited to use
/// `Ordering::Relaxed` only for statistics, never control flow.
pub struct RelaxedAllowlist {
    /// `(workspace-relative path, reason, allowlist line number)`.
    entries: Vec<(String, String, usize)>,
}

impl RelaxedAllowlist {
    pub fn load(root: &Path) -> Self {
        let text =
            std::fs::read_to_string(root.join("xtask/relaxed-allowlist.txt")).unwrap_or_default();
        Self::parse(&text)
    }

    pub fn parse(text: &str) -> Self {
        let mut entries = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((path, reason)) = line.split_once('=') {
                entries.push((path.trim().to_string(), reason.trim().to_string(), idx + 1));
            }
        }
        RelaxedAllowlist { entries }
    }

    /// A file is allowed if an entry matches it by path suffix (entries
    /// are workspace-relative; lint input may be absolute).
    pub fn allows(&self, file: &Path) -> bool {
        let f = file.to_string_lossy().replace('\\', "/");
        self.entries.iter().any(|(p, reason, _)| {
            !reason.is_empty() && (f == *p || f.ends_with(&format!("/{p}")) || f.ends_with(p))
        })
    }

    /// R3 audit of the allowlist itself: every entry must carry a
    /// reason, point at a file that still exists, and that file must
    /// still use `Relaxed` — otherwise the audit trail has rotted and
    /// the entry is a blanket exemption waiting to hide a real bug.
    pub fn audit(&self, root: &Path) -> Vec<Violation> {
        let list = root.join("xtask/relaxed-allowlist.txt");
        let mut out = Vec::new();
        for (path, reason, line) in &self.entries {
            let stale = |msg: String| Violation {
                file: list.clone(),
                line: *line,
                rule: "relaxed-allowlist",
                msg,
            };
            if reason.is_empty() {
                out.push(stale(format!(
                    "allowlist entry `{path}` has no reason; record why every \
                     Relaxed in that file is a statistics counter"
                )));
                continue;
            }
            let Ok(src) = std::fs::read_to_string(root.join(path)) else {
                out.push(stale(format!(
                    "stale allowlist entry: `{path}` does not exist; remove it"
                )));
                continue;
            };
            let cleaned = lexer::clean(&src);
            if !find_words(&cleaned.code, "Relaxed").any(|_| true) {
                out.push(stale(format!(
                    "stale allowlist entry: `{path}` no longer uses \
                     `Ordering::Relaxed`; remove it"
                )));
            }
        }
        out
    }
}

/// Applies every rule relevant to `file`.
pub fn check_file(
    file: &Path,
    src: &str,
    allow: &RelaxedAllowlist,
    order: &LockOrder,
) -> Vec<Violation> {
    let cleaned = lexer::clean(src);
    let excluded = test_spans(&cleaned.code);
    let mut out = Vec::new();
    out.extend(sync_shim(file, &cleaned));
    out.extend(safety_comments(file, &cleaned));
    out.extend(relaxed_allowlist(file, &cleaned, allow));
    if let Some(hot) = hot_fns(file) {
        out.extend(hot_path_panics(file, &cleaned, &excluded, hot));
    }
    out.extend(lockorder::lock_order(file, &cleaned, &excluded, order));
    out
}

/// Per-file list of hot-path functions R4 holds panic-free. The store's
/// read path, the one put/delete body both write models forward to (with
/// every helper of it that touches the device), the record heap's per-record
/// paths under them (which slice headers out of device bytes), the record
/// checksum and slot-header decoders those paths and recovery call, the WAL's
/// append/replay paths, and the retrying write the heap, WAL and checkpoint
/// writer share sit on every get, durable put/delete and recovery; a
/// panic there turns an injectable device fault into an outage. The shard router's op and cutover paths are held
/// to the same bar: a panic inside a commit would poison the boundary
/// table for every thread, and the tuner runs on the maintenance thread
/// where a panic silently kills adaptation. The dynamic PGM's lookup, buffer,
/// flush and range paths (its levels' included) are the served store's index: they run under a
/// shard cell's lock on every GET/PUT/SCAN, where a panic poisons the cell; so
/// do the LRS descent under each level and the last-mile search kernel it ends in. The checkpoint decoders and
/// the image merge parse device bytes — on recovery, and on every fold of
/// a running store — so a corrupt manifest, base or delta segment must
/// come back as `None` (previous generation, then the rescan floor), never
/// as a panic that leaves the store unable to restart. The li-proto frame decoder
/// parses untrusted network bytes on every connection's reader thread;
/// a panic there hands any client a remote crash primitive, so corrupt
/// input must surface as `ProtoError`, never a panic. The li-server
/// request path (service execute and everything a connection thread runs
/// between a read and the write of its batch) is held to the same bar:
/// it parses client bytes, so a panic there lets any client kill its
/// connection thread with admitted requests still counted in flight.
/// The simulated device's access, wait and bandwidth paths and the
/// recorder's per-op timer run inside every one of those store ops, and its
/// retrain ledger inside the PGM flush, so they are held to the same bar. The thread-spawn expects live outside
/// these functions on purpose — they run at startup.
const HOT_FNS: &[(&str, &[&str])] = &[
    ("nvm/src/latency.rs", &["spin_ns", "consume", "window_of"]),
    (
        "nvm/src/device.rs",
        &[
            "wait",
            "charge",
            "read_into",
            "try_write",
            "write_from",
            "try_flush",
            "flush_from",
            "try_fence",
            "fence_from",
            "try_persist",
            "try_persist_ranges",
            "try_write_persist",
            "persist_from",
        ],
    ),
    (
        "telemetry/src/lib.rs",
        &["start_sampled", "sample_this_op", "finish", "record", "count_op", "retrained"],
    ),
    ("viper/src/store.rs", &["put", "get", "delete", "read_record"]),
    (
        "viper/src/write.rs",
        &["put", "delete", "absorbing_wal_full", "put_core", "delete_core", "append", "wal_append"],
    ),
    (
        "viper/src/heap.rs",
        &[
            "read",
            "update_in_place",
            "append",
            "publish",
            "stage_run",
            "commit_run",
            "stage_append",
            "commit_append",
            "retire",
            "mark_dead",
        ],
    ),
    (
        "viper/src/layout.rs",
        &["update", "update_sliced", "update_sse42", "record_crc", "decode_header", "verify_slot"],
    ),
    (
        "viper/src/wal.rs",
        &[
            "write_retry",
            "write_persist_retry",
            "retry_write",
            "append",
            "commit_through",
            "flush_batch",
            "replay",
            "max_lsn",
        ],
    ),
    (
        "viper/src/checkpoint.rs",
        &[
            "le_u64",
            "decode",
            "merge_overlay",
            "load_image",
            "read_manifests",
            "newest_manifest",
            "load_latest",
        ],
    ),
    (
        "core/src/shard.rs",
        &["get", "insert", "remove", "range", "apply", "write_cell", "commit", "run_adaptation"],
    ),
    ("core/src/tuner.rs", &["observe", "penalize"]),
    (
        "core/src/search.rs",
        &[
            "last_mile",
            "prefetch",
            "prefetch_line",
            "window",
            "lower_bound",
            "bounded_last_le",
            "exponential_lower_bound",
        ],
    ),
    ("core/src/pieces/structure.rs", &["route", "locate", "last_le_below"]),
    (
        "pgm/src/dynamic.rs",
        &[
            "lookup_entry",
            "lookup_levels",
            "push_entry",
            "flush_buffer",
            "merge_newest_wins",
            "from_entries",
            "find",
            "entry_at",
            "range_iter",
            "range",
        ],
    ),
    (
        "proto/src/lib.rs",
        &[
            "frame_len",
            "split_frame",
            "decode_request",
            "decode_response",
            "decode_command",
            "decode_body",
        ],
    ),
    (
        "server/src/service.rs",
        &[
            "execute",
            "execute_one",
            "get",
            "put",
            "delete",
            "scan",
            "stats",
            "unframe_value",
            "map_store_error",
        ],
    ),
    (
        "server/src/server.rs",
        &["conn_loop", "serve_batch", "answer", "respond", "flush", "salvage_id"],
    ),
];

/// The [`HOT_FNS`] entry of `file`, matched by path suffix.
fn hot_fns(file: &Path) -> Option<&'static [&'static str]> {
    let f = file.to_string_lossy().replace('\\', "/");
    HOT_FNS.iter().find(|(suffix, _)| f.ends_with(suffix)).map(|&(_, names)| names)
}

/// R4 audit of [`HOT_FNS`] itself: every listed file must exist under
/// `root/crates` and define every listed name as a `fn` outside its tests
/// — otherwise a renamed or deleted function silently drops out of the
/// panic-free check.
pub fn hot_fns_audit(root: &Path) -> Vec<Violation> {
    audit_hot_list(&root.join("crates"), HOT_FNS)
}

fn audit_hot_list(crates: &Path, list: &[(&str, &[&str])]) -> Vec<Violation> {
    let mut out = Vec::new();
    for &(file, names) in list {
        let path = crates.join(file);
        let stale = |msg: String| Violation {
            file: path.clone(),
            line: 0,
            rule: "hot-path-panics",
            msg: format!("{msg}; update the list in xtask/src/rules.rs"),
        };
        let Ok(src) = std::fs::read_to_string(&path) else {
            out.push(stale(format!("R4 lists `{file}`, which does not exist")));
            continue;
        };
        let code = lexer::clean(&src).code;
        let tests = test_spans(&code);
        let defined: Vec<String> = find_words(&code, "fn")
            .filter(|&at| !in_spans(&tests, at))
            .map(|at| fn_name(&code, at))
            .collect();
        for name in names.iter().filter(|&&name| !defined.iter().any(|d| d == name)) {
            out.push(stale(format!("R4 lists `{name}`, but no `fn {name}` is left in it")));
        }
    }
    out
}

/// The identifier after the `fn` keyword at `fn_at`.
fn fn_name(code: &str, fn_at: usize) -> String {
    let rest = code[fn_at + 2..].trim_start();
    rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect()
}

/// Byte spans of `#[cfg(test)]`-gated blocks in cleaned code.
pub fn test_spans(code: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut from = 0usize;
    while let Some(p) = code[from..].find("cfg(test)") {
        let at = from + p;
        if let Some(open_rel) = code[at..].find('{') {
            let open = at + open_rel;
            if let Some(close) = match_brace(code, open) {
                spans.push((at, close));
                from = close;
                continue;
            }
        }
        from = at + 1;
    }
    spans
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

fn find_words<'a>(code: &'a str, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    let mut from = 0usize;
    std::iter::from_fn(move || {
        while let Some(p) = code[from..].find(needle) {
            let at = from + p;
            from = at + 1;
            if lexer::is_word(code, at, needle.len()) {
                return Some(at);
            }
        }
        None
    })
}

/// R1: all concurrency primitives come from `li-sync`.
pub fn sync_shim(file: &Path, cleaned: &Cleaned) -> Vec<Violation> {
    let mut out = Vec::new();
    for (needle, instead) in [
        ("std::sync::atomic", "li_sync::sync::atomic"),
        ("parking_lot", "li_sync::sync"),
        ("std::hint::spin_loop", "li_sync::hint::spin_loop"),
        // Channels and threads also route through the shim: loom swaps
        // them out, and the shim's classed channels give the lockdep
        // witness blocking points to hang acquisition edges on.
        ("std::sync::mpsc", "li_sync::sync::mpsc"),
        ("std::thread::", "li_sync::thread::"),
    ] {
        let mut from = 0usize;
        while let Some(p) = cleaned.code[from..].find(needle) {
            let at = from + p;
            from = at + needle.len();
            // `parking_lot` must be a path segment, not part of an ident.
            if needle == "parking_lot" && !lexer::is_word(&cleaned.code, at, needle.len()) {
                continue;
            }
            out.push(Violation {
                file: file.to_path_buf(),
                line: lexer::line_of(&cleaned.code, at),
                rule: "sync-shim",
                msg: format!(
                    "direct `{needle}` use; go through `{instead}` so --cfg loom instruments it"
                ),
            });
        }
    }
    out
}

/// R2: every `unsafe` is preceded by a `// SAFETY:` comment.
pub fn safety_comments(file: &Path, cleaned: &Cleaned) -> Vec<Violation> {
    let mut out = Vec::new();
    for at in find_words(&cleaned.code, "unsafe") {
        let line = lexer::line_of(&cleaned.code, at);
        let documented = cleaned.comments.iter().any(|(cl, text)| {
            text.contains("SAFETY:") && *cl <= line && line - cl <= SAFETY_WINDOW
        });
        if !documented {
            out.push(Violation {
                file: file.to_path_buf(),
                line,
                rule: "safety-comments",
                msg: format!(
                    "`unsafe` without a `// SAFETY:` comment within {SAFETY_WINDOW} lines above"
                ),
            });
        }
    }
    out
}

/// R3: `Ordering::Relaxed` only in allowlisted (audited) files.
pub fn relaxed_allowlist(
    file: &Path,
    cleaned: &Cleaned,
    allow: &RelaxedAllowlist,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if allow.allows(file) {
        return out;
    }
    for at in find_words(&cleaned.code, "Relaxed") {
        out.push(Violation {
            file: file.to_path_buf(),
            line: lexer::line_of(&cleaned.code, at),
            rule: "relaxed-allowlist",
            msg: "`Ordering::Relaxed` in a file not in xtask/relaxed-allowlist.txt; \
                  audit that it is a statistics counter (not a cross-thread control flag) \
                  and add the file with a reason"
                .to_string(),
        });
    }
    out
}

/// R4: hot-path functions (see [`hot_fns`]) never panic.
pub fn hot_path_panics(
    file: &Path,
    cleaned: &Cleaned,
    excluded: &[(usize, usize)],
    hot: &[&str],
) -> Vec<Violation> {
    const BANNED: [&str; 6] =
        [".unwrap(", ".expect(", "panic!", "unreachable!", "todo!", "unimplemented!"];
    let code = &cleaned.code;
    let mut out = Vec::new();
    for fn_at in find_words(code, "fn") {
        if in_spans(excluded, fn_at) {
            continue;
        }
        let name = fn_name(code, fn_at);
        if !hot.contains(&name.as_str()) {
            continue;
        }
        // Body = next `{` before any `;` (a `;` first means a trait
        // decl) — outside brackets, so that an array type in the
        // signature (`buf: &[u8; 64]`) does not read as one.
        let mut depth = 0usize;
        let body_or_decl = code[fn_at..].char_indices().find(|&(_, c)| {
            match c {
                '(' | '[' => depth += 1,
                ')' | ']' => depth = depth.saturating_sub(1),
                _ => {}
            }
            depth == 0 && (c == '{' || c == ';')
        });
        let Some((open_rel, '{')) = body_or_decl else { continue };
        let open = fn_at + open_rel;
        let Some(close) = match_brace(code, open) else { continue };
        for banned in BANNED {
            let body = &code[open..close];
            let mut from = 0usize;
            while let Some(p) = body[from..].find(banned) {
                let at = open + from + p;
                from += p + banned.len();
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: lexer::line_of(code, at),
                    rule: "hot-path-panics",
                    msg: format!(
                        "`{banned}` inside hot-path fn `{name}`; return a ViperError instead"
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn lint(path: &str, src: &str, allow: &str) -> Vec<Violation> {
        check_file(&PathBuf::from(path), src, &RelaxedAllowlist::parse(allow), &LockOrder::empty())
    }

    #[test]
    fn fixtures_pass_and_fail_each_rule() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let allow = RelaxedAllowlist::parse("fixtures/pass_relaxed_allowed.rs = audited counter\n");
        // R6 fixtures are linted under a synthetic crates path mapped by
        // this miniature hierarchy (mirroring the hot-path convention).
        let order = LockOrder::parse(
            "class fix-outer\nclass fix-inner\norder fix-outer > fix-inner\n\
             map crates/fixture/src/locks.rs outer fix-outer\n\
             map crates/fixture/src/locks.rs inner fix-inner\n",
        )
        .unwrap();
        for entry in std::fs::read_dir(&dir).expect("fixtures dir") {
            let p = entry.unwrap().path();
            let name = p.file_name().unwrap().to_string_lossy().to_string();
            if !std::path::Path::new(&name)
                .extension()
                .is_some_and(|e| e.eq_ignore_ascii_case("rs"))
            {
                continue;
            }
            let src = std::fs::read_to_string(&p).unwrap();
            // Path-gated rules lint their fixtures as if they were the
            // gating file.
            let rel = if name.contains("hot_path_panics.heap") {
                PathBuf::from("crates/viper/src/heap.rs")
            } else if name.contains("hot_path_panics.layout") {
                PathBuf::from("crates/viper/src/layout.rs")
            } else if name.contains("hot_path_panics.dynamic") {
                PathBuf::from("crates/pgm/src/dynamic.rs")
            } else if name.contains("hot_path") {
                PathBuf::from("crates/viper/src/write.rs")
            } else if name.contains("lock_order") {
                PathBuf::from("crates/fixture/src/locks.rs")
            } else {
                PathBuf::from("fixtures").join(&name)
            };
            let v = check_file(&rel, &src, &allow, &order);
            if name.starts_with("pass_") {
                assert!(v.is_empty(), "{name} should pass but got: {v:?}");
            } else if name.starts_with("fail_") {
                assert!(!v.is_empty(), "{name} should fail but passed");
                // The seeded rule name is embedded in the file name:
                // fail_<rule-with-underscores>[.<gating file>].rs
                let rule = name.trim_start_matches("fail_").split('.').next().unwrap_or_default();
                let want = rule.replace('_', "-");
                assert!(
                    v.iter().any(|x| x.rule == want),
                    "{name}: expected rule {want}, got {v:?}"
                );
            }
        }
    }

    #[test]
    fn r1_flags_direct_atomics_but_not_comments() {
        let v = lint("crates/x/src/lib.rs", "use std::sync::atomic::AtomicU64;\n", "");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "sync-shim");
        assert_eq!(v[0].line, 1);
        let v = lint("crates/x/src/lib.rs", "// std::sync::atomic is banned\n", "");
        assert!(v.is_empty());
        let v = lint("crates/x/src/lib.rs", "let s = \"parking_lot\";\n", "");
        assert!(v.is_empty());
    }

    #[test]
    fn r2_accepts_safety_comment_within_window() {
        let ok = "// SAFETY: ptr is valid for len bytes.\nunsafe { read(p) }\n";
        assert!(lint("a.rs", ok, "").is_empty());
        let bad = "unsafe { read(p) }\n";
        let v = lint("a.rs", bad, "");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "safety-comments");
        // Identifier containing "unsafe" is not the keyword.
        assert!(lint("a.rs", "fn unsafe_free() {}\n", "").is_empty());
    }

    #[test]
    fn r1_flags_std_threads_and_channels() {
        let v = lint("crates/x/src/lib.rs", "let (tx, rx) = std::sync::mpsc::channel();\n", "");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "sync-shim");
        let v = lint("crates/x/src/lib.rs", "std::thread::spawn(|| {});\n", "");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("li_sync::thread"), "{}", v[0].msg);
        // The shim's own re-export paths are fine.
        let ok = "li_sync::thread::spawn(|| {});\nlet c = li_sync::sync::mpsc::channel::<u8>();\n";
        assert!(lint("crates/x/src/lib.rs", ok, "").is_empty());
    }

    #[test]
    fn r3_audit_flags_reasonless_and_stale_entries() {
        let dir = std::env::temp_dir().join(format!("li-lint-audit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("xtask")).unwrap();
        std::fs::write(dir.join("live.rs"), "x.load(Ordering::Relaxed);\n").unwrap();
        std::fs::write(dir.join("quiet.rs"), "// Relaxed only in this comment\n").unwrap();
        let allow = RelaxedAllowlist::parse(
            "live.rs = audited counter\n\
             quiet.rs = audited counter\n\
             gone.rs = audited counter\n\
             live.rs =\n",
        );
        let v = allow.audit(&dir);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "relaxed-allowlist"));
        assert!(v.iter().any(|x| x.msg.contains("no longer uses") && x.line == 2), "{v:?}");
        assert!(v.iter().any(|x| x.msg.contains("does not exist") && x.line == 3), "{v:?}");
        assert!(v.iter().any(|x| x.msg.contains("no reason") && x.line == 4), "{v:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn r3_allowlist_is_per_file_with_reason() {
        let src = "x.load(Ordering::Relaxed);\n";
        let v = lint("crates/x/src/lib.rs", src, "");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "relaxed-allowlist");
        let allow = "crates/x/src/lib.rs = audited: stats counter only\n";
        assert!(lint("crates/x/src/lib.rs", src, allow).is_empty());
        // An entry without a reason does not allow.
        let noreason = "crates/x/src/lib.rs =\n";
        assert_eq!(lint("crates/x/src/lib.rs", src, noreason).len(), 1);
    }

    #[test]
    fn r4_covers_wal_append_and_replay_paths() {
        let src = "impl Wal {\n    pub fn append(&self) { x.unwrap(); }\n}\n";
        let v = lint("crates/viper/src/wal.rs", src, "");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "hot-path-panics");
        let src = "impl Wal {\n    pub fn replay() { panic!(); }\n    fn slot_of(&self) { y.unwrap(); }\n}\n";
        let v = lint("crates/viper/src/wal.rs", src, "");
        assert_eq!(v.len(), 1, "non-hot helpers are not checked: {v:?}");
        assert_eq!(v[0].line, 2);
        // The retrying write every heap, WAL and checkpoint write goes through.
        let src = "pub(crate) fn write_retry() { dev.try_write(o, d).unwrap(); }\n";
        assert_eq!(lint("crates/viper/src/wal.rs", src, "").len(), 1);
    }

    #[test]
    fn r4_audit_flags_listed_names_without_a_fn() {
        let crates = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/hot_fns_audit");
        let v = audit_hot_list(
            &crates,
            &[
                ("viper/src/wal.rs", &["append", "replay", "retired"]),
                ("viper/src/gone.rs", &["put"]),
            ],
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "hot-path-panics"));
        assert!(v.iter().any(|x| x.msg.contains("`retired`")), "a test-only fn counts: {v:?}");
        assert!(v.iter().any(|x| x.msg.contains("does not exist")), "{v:?}");
        // The workspace's own list names only functions that exist.
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
        assert_eq!(hot_fns_audit(&root), Vec::new());
    }

    #[test]
    fn r4_covers_heap_record_paths() {
        // Header slicing on the per-record paths must stay infallible.
        let src = "impl RecordHeap {\n    pub fn read(&self, off: u64, buf: &mut [u8]) -> SlotHeader {\n        let key = u64::from_le_bytes(slot[..8].try_into().unwrap());\n    }\n}\n";
        let v = lint("crates/viper/src/heap.rs", src, "");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "hot-path-panics");
        assert_eq!(v[0].line, 3);
        for name in [
            "update_in_place",
            "append",
            "publish",
            "stage_run",
            "commit_run",
            "stage_append",
            "commit_append",
            "retire",
            "mark_dead",
        ] {
            let src =
                format!("fn {name}(&self) {{\n    head.try_into().expect(\"16 bytes\");\n}}\n");
            assert_eq!(lint("crates/viper/src/heap.rs", &src, "").len(), 1, "{name}");
        }
        // Recovery and the maintenance sweeps are not per-record paths.
        let src = "impl RecordHeap {\n    pub fn recover_with_report() { x.unwrap(); }\n}\n";
        assert!(lint("crates/viper/src/heap.rs", src, "").is_empty());
    }

    #[test]
    fn r4_covers_pgm_update_path() {
        // The served index's per-op paths run under a shard cell's lock.
        let src = "impl DynamicPgm {\n    fn lookup_entry(&self, key: Key) -> Option<Entry> {\n        self.levels[0].as_ref().unwrap().find(key)\n    }\n}\n";
        let v = lint("crates/pgm/src/dynamic.rs", src, "");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "hot-path-panics");
        assert_eq!(v[0].line, 3);
        for name in [
            "lookup_levels",
            "push_entry",
            "flush_buffer",
            "merge_newest_wins",
            "from_entries",
            "find",
            "entry_at",
            "range_iter",
            "range",
        ] {
            let src = format!("fn {name}(&mut self) {{\n    unreachable!(\"sorted runs\");\n}}\n");
            assert_eq!(lint("crates/pgm/src/dynamic.rs", &src, "").len(), 1, "{name}");
        }
        // Bulk build runs once, outside any cell lock.
        let src = "impl BulkBuildIndex for DynamicPgm {\n    fn build(data: &[KeyValue]) -> Self { x.unwrap() }\n}\n";
        assert!(lint("crates/pgm/src/dynamic.rs", src, "").is_empty());
    }

    #[test]
    fn r4_covers_checkpoint_decoders_and_fold_merge() {
        // Manifest, base and delta decoders parse device bytes.
        let src = "impl Manifest {\n    fn decode(buf: &[u8; 64]) -> Option<Manifest> {\n        u64::from_le_bytes(buf[..8].try_into().unwrap());\n    }\n}\n";
        let v = lint("crates/viper/src/checkpoint.rs", src, "");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "hot-path-panics");
        let src = "pub fn load_image(dev: &NvmDevice) -> Option<CheckpointBlob> {\n    let delta = CheckpointBlob::decode_delta(chain).expect(\"segment\");\n}\n";
        let v = lint("crates/viper/src/checkpoint.rs", src, "");
        assert_eq!(v.len(), 1, "{v:?}");
        let src =
            "pub fn merge_overlay(base: &[E]) -> Vec<E> {\n    unreachable!(\"unsorted\");\n}\n";
        assert_eq!(lint("crates/viper/src/checkpoint.rs", src, "").len(), 1);
        // Encoders serialize in-process state and are not held to the bar.
        let src =
            "impl Manifest {\n    fn encode(&self) -> [u8; 64] { x.try_into().unwrap() }\n}\n";
        assert!(lint("crates/viper/src/checkpoint.rs", src, "").is_empty());
    }

    #[test]
    fn r4_covers_shard_cutover_and_tuner_paths() {
        // The cutover commit is hot: a panic there poisons the boundary
        // table for every thread.
        let src = "impl Sharded {\n    fn commit(&self) { side.take().unwrap(); }\n}\n";
        let v = lint("crates/core/src/shard.rs", src, "");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "hot-path-panics");
        // Non-hot helpers in the same file are not checked.
        let src = "impl Sharded {\n    fn boundaries(&self) { x.unwrap(); }\n}\n";
        assert!(lint("crates/core/src/shard.rs", src, "").is_empty());
        // The tuner's decision fn runs on the maintenance thread.
        let src = "impl Tuner {\n    pub fn observe(&mut self) { h.unwrap(); }\n}\n";
        let v = lint("crates/core/src/tuner.rs", src, "");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "hot-path-panics");
    }

    #[test]
    fn r4_covers_proto_frame_decoder() {
        // Decode paths parse untrusted network bytes: a panic is a
        // remote crash primitive.
        let src = "pub fn decode_request(body: &[u8]) -> R {\n    u64::from_le_bytes(body[..8].try_into().unwrap())\n}\n";
        let v = lint("crates/proto/src/lib.rs", src, "");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "hot-path-panics");
        let src = "pub fn split_frame(buf: &[u8]) -> R {\n    panic!(\"oversized\");\n}\n";
        let v = lint("crates/proto/src/lib.rs", src, "");
        assert_eq!(v.len(), 1, "{v:?}");
        // Encode paths take trusted in-process input and are not held
        // to the panic-free bar.
        let src = "pub fn encode_request(req: &Request) { out.push(x.unwrap()); }\n";
        assert!(lint("crates/proto/src/lib.rs", src, "").is_empty());
    }

    #[test]
    fn r4_covers_server_request_path() {
        // Everything between a connection's read and its write runs on
        // client bytes.
        for name in ["conn_loop", "serve_batch", "answer", "respond", "flush", "salvage_id"] {
            let src =
                format!("fn {name}<I>(out: &mut Vec<u8>) {{\n    encode(out).unwrap();\n}}\n");
            let v = lint("crates/server/src/server.rs", &src, "");
            assert_eq!(v.len(), 1, "{name}: {v:?}");
            assert_eq!(v[0].rule, "hot-path-panics");
        }
        let src = "fn execute_one<I>(s: &S, cmd: &Command) -> Body {\n    s.get(cmd.key).expect(\"present\")\n}\n";
        let v = lint("crates/server/src/service.rs", src, "");
        assert_eq!(v.len(), 1, "{v:?}");
        // Startup spawns stay out of scope.
        let src = "pub fn spawn(cfg: C) -> S {\n    b.spawn(f).expect(\"spawn acceptor\")\n}\n";
        assert!(lint("crates/server/src/server.rs", src, "").is_empty());
    }

    #[test]
    fn r4_only_hot_fns_in_viper_store_and_skips_tests() {
        let src = "impl S {\n    fn put(&self) { x.unwrap(); }\n    fn helper(&self) { y.unwrap(); }\n}\n";
        for file in ["crates/viper/src/store.rs", "crates/viper/src/write.rs"] {
            let v = lint(file, src, "");
            assert_eq!(v.len(), 1, "{file}: {v:?}");
            assert_eq!(v[0].rule, "hot-path-panics");
            assert_eq!(v[0].line, 2);
        }
        // The write path's device-touching helpers are held to the bar too.
        let src = "fn put_core(&self) { x.unwrap(); }\nfn wal_append() { y.expect(\"z\"); }\n";
        assert_eq!(lint("crates/viper/src/write.rs", src, "").len(), 2);
        // Same content elsewhere is not checked.
        assert!(lint("crates/other/src/store_like.rs", src, "").is_empty());
        // Test modules are exempt.
        let test_src = "#[cfg(test)]\nmod tests {\n    fn put() { x.unwrap(); }\n}\n";
        assert!(lint("crates/viper/src/store.rs", test_src, "").is_empty());
    }
}
