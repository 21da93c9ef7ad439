//! Crash-torture driver: replays many seeded fault schedules against the
//! Viper recovery path and reports oracle divergences (exit code 1 if any).
//!
//! ```text
//! cargo run --release -p li-bench -- torture \
//!     [--seeds N] [--start-seed S] [--ops N] [--kinds btree,pgm,alex] \
//!     [--shards N] [--in-place] [--no-verify]
//! ```
//!
//! `--shards N` drives the shared-writer store over a range-sharded index
//! with N shards (0, the default, tortures the single-writer store);
//! `--in-place` tortures the paper-default in-place update path instead of
//! crash-safe out-of-place updates; `--no-verify` disables checksum
//! quarantine at recovery (expect failures — that is the point of it).

use crate::harness::{BenchConfig, Flags};
use lip::torture::{torture_run, TortureConfig};
use lip::IndexKind;

/// Parses `--kinds`' comma-separated list; every kind must be updatable.
fn parse_kinds(spec: &str) -> Result<Vec<IndexKind>, String> {
    spec.split(',')
        .map(|s| {
            let name = s.trim();
            let kind = IndexKind::ALL
                .into_iter()
                .find(|k| k.name().eq_ignore_ascii_case(name))
                .ok_or_else(|| {
                    let known = IndexKind::UPDATABLE.map(|k| k.name()).join(", ");
                    format!("unknown kind {name:?}; known: {known}")
                })?;
            if kind.supports_insert() {
                Ok(kind)
            } else {
                Err(format!("kind {} is read-only; torture needs an updatable index", kind.name()))
            }
        })
        .collect()
}

pub fn run(_: &BenchConfig, flags: &mut Flags) -> Result<u8, String> {
    let seeds: u64 = flags.get("--seeds", 200);
    let start_seed: u64 = flags.get("--start-seed", 0);
    let ops: usize = flags.get("--ops", 400);
    let kinds =
        parse_kinds(&flags.get("--kinds", "btree,pgm,alex".to_string())).unwrap_or_else(|e| {
            flags.fail(e);
            Vec::new()
        });
    let shards: usize = flags.get("--shards", 0);
    let crash_safe = !flags.has("--in-place");
    let verify = !flags.has("--no-verify");
    flags.finish()?;

    println!(
        "torture: {} seed(s) from {} x {} backend(s), {} ops each, store={}, updates={}, checksums={}",
        seeds,
        start_seed,
        kinds.len(),
        ops,
        if shards == 0 { "single-writer".to_string() } else { format!("sharded x{shards}") },
        if crash_safe { "out-of-place" } else { "in-place" },
        if verify { "verified" } else { "UNVERIFIED" },
    );

    let mut runs = 0u64;
    let mut failed = 0u64;
    let mut acked = 0u64;
    let mut crashes = 0u64;
    let mut torn = 0u64;
    let mut dropped = 0u64;
    let mut write_fails = 0u64;
    let mut full = 0u64;
    let mut quarantined = 0u64;
    let mut duplicates = 0u64;
    for &kind in &kinds {
        let mut cfg = TortureConfig::quick(kind);
        cfg.ops = ops;
        cfg.crash_safe_updates = crash_safe;
        cfg.verify_checksums = verify;
        cfg.shards = shards;
        for seed in start_seed..start_seed + seeds {
            let out = torture_run(seed, &cfg);
            runs += 1;
            acked += out.ops_acked as u64;
            crashes += out.faults.crash_triggers;
            torn += out.faults.torn_writes;
            dropped += out.faults.dropped_flushes;
            write_fails += out.faults.failed_writes;
            full += out.faults.full_rejections;
            quarantined += out.report.quarantined as u64;
            duplicates += out.report.duplicates_dropped as u64;
            if !out.passed() {
                failed += 1;
                println!("FAIL kind={} seed={}", kind.name(), out.seed);
                for d in &out.divergences {
                    println!("  - {d}");
                }
            }
        }
    }

    println!("----");
    println!("runs              {runs}");
    println!("acked ops         {acked}");
    println!("crash points      {crashes}");
    println!("torn writes       {torn}");
    println!("dropped flushes   {dropped}");
    println!("failed writes     {write_fails}");
    println!("full rejections   {full}");
    println!("quarantined       {quarantined}");
    println!("dup slots dropped {duplicates}");
    if failed == 0 {
        println!("all {runs} runs satisfied the oracle");
    } else {
        println!("{failed}/{runs} runs DIVERGED from the oracle");
    }
    Ok(u8::from(failed != 0))
}
