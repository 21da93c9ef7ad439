//! `li-bench <name>|all` — runs one table/figure reproduction, or all of
//! them in sequence (see [`li_bench::figs::FIGS`] for the names).
//!
//! Scale with env vars: `LIP_BENCH_N` (base dataset size, default 200k),
//! `LIP_BENCH_OPS`, `LIP_BENCH_THREADS`; `--telemetry` writes per-phase
//! snapshots.

use li_bench::figs::FIGS;

fn main() {
    let cfg = li_bench::BenchConfig::from_env();
    let name = std::env::args().nth(1).unwrap_or_default();
    let selected: Vec<_> =
        FIGS.iter().filter(|f| f.name == name || (name == "all" && f.in_all)).collect();
    if selected.is_empty() {
        let names: Vec<&str> = FIGS.iter().map(|f| f.name).collect();
        eprintln!("usage: li-bench <{}|all> [--telemetry]", names.join("|"));
        std::process::exit(2);
    }
    if name == "all" {
        println!(
            "learned-index-pieces: full evaluation (n={}k, ops={}k, threads<= {})\n",
            cfg.n / 1000,
            cfg.ops / 1000,
            cfg.max_threads
        );
    }
    for fig in selected {
        (fig.run)(&cfg);
    }
    if name == "all" {
        println!("all experiments complete.");
    }
}
