//! The `li-bench` command line: the `FIGS` table it dispatches over, its
//! exit codes, and the report a gate leaves behind.

use std::process::Command;

use li_bench::figs::{Run, FIGS};
use li_bench::harness::{Flags, Report};

const GATES: [&str; 4] = ["torture", "recovery", "bg_retrain", "serve_load"];

fn li_bench(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_li-bench")).args(args).output().expect("spawn");
    (out.status.code(), String::from_utf8(out.stderr).expect("utf-8 stderr"))
}

#[test]
fn figs_names_are_unique_and_the_gates_run_by_name_only() {
    for (i, fig) in FIGS.iter().enumerate() {
        assert!(FIGS[..i].iter().all(|f| f.name != fig.name), "duplicate entry {}", fig.name);
        assert_ne!(fig.name, "all", "`all` is the dispatcher's own word");
    }
    for gate in GATES {
        let fig = FIGS.iter().find(|f| f.name == gate).unwrap_or_else(|| panic!("no {gate}"));
        assert!(matches!(fig.run, Run::Gate(_)) && !fig.in_all, "{gate}");
    }
    assert_eq!(FIGS.iter().filter(|f| matches!(f.run, Run::Gate(_))).count(), GATES.len());
}

#[test]
fn no_name_or_an_unknown_name_lists_every_entry_and_exits_2() {
    for args in [&[][..], &["fig99"][..]] {
        let (code, stderr) = li_bench(args);
        assert_eq!(code, Some(2), "{stderr}");
        for fig in &FIGS {
            assert!(stderr.contains(fig.name), "usage omits {}: {stderr}", fig.name);
        }
    }
}

#[test]
fn a_bad_flag_exits_2_with_usage_before_anything_runs() {
    for name in GATES.into_iter().chain(["fig10", "all"]) {
        let (code, stderr) = li_bench(&[name, "--bogus"]);
        assert_eq!(code, Some(2), "{name}: {stderr}");
        assert!(stderr.contains("unknown flag --bogus"), "{name}: {stderr}");
        assert!(stderr.contains(&format!("usage: li-bench {name}")), "{name}: {stderr}");
    }
    let (code, stderr) = li_bench(&["torture", "--seeds"]);
    assert_eq!((code, stderr.contains("--seeds needs a value")), (Some(2), true), "{stderr}");
    let (code, stderr) = li_bench(&["torture", "--kinds", "rmi"]);
    assert_eq!((code, stderr.contains("read-only")), (Some(2), true), "{stderr}");
}

#[test]
fn report_finish_writes_the_document_and_returns_the_exit_code() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("li-bench-report");
    let out = dir.join("demo.json");
    let run = |args: &[&str], ok: bool| {
        let _ = std::fs::remove_file(&out);
        let args =
            ["--out", out.to_str().expect("utf-8 path")].into_iter().chain(args.iter().copied());
        let mut flags = Flags::new("demo", args.map(str::to_string));
        let mut report = Report::new("demo", &mut flags);
        assert_eq!(flags.finish(), Ok(()));
        report.field("wins", ok);
        report.check(ok, "the demo condition does not hold");
        let code = report.finish();
        let written = std::fs::read_to_string(&out).expect("finish writes --out");
        assert_eq!(written, format!("{{\"bench\":\"demo\",\"wins\":{ok}}}\n"));
        code
    };
    assert_eq!(run(&[], true), 0);
    assert_eq!(run(&[], false), 0, "without --check a failed condition is only reported");
    assert_eq!(run(&["--check"], true), 0);
    assert_eq!(run(&["--check"], false), 1);
}
