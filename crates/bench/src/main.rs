//! `li-bench <name>|all [flags]` — runs one table/figure reproduction or
//! CI gate, or every figure in sequence (see [`li_bench::figs::FIGS`] for
//! the names).
//!
//! Scale with env vars: `LIP_BENCH_N` (base dataset size, default 200k),
//! `LIP_BENCH_OPS`, `LIP_BENCH_THREADS`; `--telemetry` writes per-phase
//! snapshots. Exit codes: 0 success, 1 a gate's oracle or `--check`
//! failed, 2 unknown name or bad flag.

use std::process::ExitCode;

use li_bench::figs::{Run, FIGS};
use li_bench::harness::{BenchConfig, Flags};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let selected: Vec<_> =
        FIGS.iter().filter(|f| f.name == name || (name == "all" && f.in_all)).collect();
    if selected.is_empty() {
        let names: Vec<&str> = FIGS.iter().map(|f| f.name).collect();
        eprintln!("usage: li-bench <{}|all> [flags]", names.join("|"));
        return ExitCode::from(2);
    }
    let mut flags = Flags::new(&name, args);
    let cfg = BenchConfig::from_env(&mut flags);
    if name == "all" {
        println!(
            "learned-index-pieces: full evaluation (n={}k, ops={}k, threads<= {})\n",
            cfg.n / 1000,
            cfg.ops / 1000,
            cfg.max_threads
        );
    }
    for fig in selected {
        let outcome = match fig.run {
            Run::Figure(run) => flags.finish().map(|()| {
                run(&cfg);
                0
            }),
            Run::Gate(run) => run(&cfg, &mut flags),
        };
        match outcome {
            Ok(0) => {}
            Ok(code) => return ExitCode::from(code),
            Err(usage) => {
                eprintln!("{usage}");
                return ExitCode::from(2);
            }
        }
    }
    if name == "all" {
        println!("all experiments complete.");
    }
    ExitCode::SUCCESS
}
