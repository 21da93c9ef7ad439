//! Self-tuning router vs. static single-kind configs under workload
//! drift (the adaptation follow-up to the paper's static Figs. 14/18).
//!
//! The paper benchmarks each updatable design under a *fixed* workload
//! and finds no overall winner: gapped in-place designs (ALEX) win
//! insert-heavy phases, while tighter layouts without model-made gaps
//! (FITing-tree inplace) scan faster but pay key shifts on every
//! crowded insert. This gate drives a workload that *drifts* — a
//! hotspot that migrates across the keyspace while the op mix flips
//! from insert-heavy to scan-mostly mid-run — and asks whether the
//! telemetry-driven tuner (index-kind hot-swap over a pinned shard
//! layout) tracks the regime shift.
//!
//! Three identical-shard configs face the same two-phase stream:
//!
//! * **adaptive** — starts as ALEX everywhere; a background thread runs
//!   tuner epochs the way Viper's maintenance worker does, so shards
//!   hot-swap to FITing-tree-inp as their observed mix turns read-mostly.
//! * **static-alex** / **static-fiting-inp** — the same router pinned to
//!   one of the policy's kinds; no adaptation.
//!
//! Phase A is insert-heavy (80% writes) with the hotspot over the low
//! third of the keyspace; phase B is scan-mostly (10% writes, reads are
//! short range scans) with the hotspot migrated to the high third.
//! Per-phase latencies are printed and reported so CI can gate the
//! headline claim: the adaptive
//! config's **worst-phase p99** is no worse than the best static
//! config's worst-phase p99 — i.e. adaptation beats every
//! pick-one-kind-up-front strategy on tail latency once the workload
//! refuses to sit still.
//!
//! Flags: `--ops N` (per phase), `--shards N`, `--out PATH`, `--check`
//! (exit non-zero unless the adaptive row wins). `LIP_BENCH_N` scales
//! the loaded key set as in every other entry.

use std::sync::Arc;

use li_sync::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::harness::{self, BenchConfig, Flags, Json, Report, Samples};
use li_core::telemetry::{Event, Recorder};
use li_core::traits::{ConcurrentIndex, OrderedIndex};
use li_core::Key;
use li_nvm::fault::splitmix64;
use lip::{AdaptivePolicy, AnyConcurrentIndex, ConcurrentKind, IndexKind};

/// Bulk-load stride: loaded keys sit on multiples of 16, so most
/// hotspot inserts create fresh keys instead of updating in place.
const STRIDE: u64 = 16;

/// Range-scan window for scan reads, in key units (256 loaded keys).
const SCAN_WINDOW: u64 = 256 * STRIDE;

/// One drift regime: a read/write mix plus a hotspot window over the
/// keyspace `[0, span)`.
struct Phase {
    name: &'static str,
    /// Writes per mille of the op stream.
    write_per_mille: u64,
    /// Hotspot window as thousandths of the keyspace.
    hot_lo_per_mille: u64,
    hot_hi_per_mille: u64,
    /// Fraction (per mille) of ops aimed at the hotspot window; the
    /// rest scatter uniformly over the keyspace.
    hot_per_mille: u64,
    /// Reads are short range scans ([`SCAN_WINDOW`]) instead of point
    /// gets — the op shape that separates scan-friendly layouts from
    /// gapped ones.
    scan_reads: bool,
}

/// Phase A: insert-heavy, hotspot over the low third of the keyspace.
const PHASE_A: Phase = Phase {
    name: "write-heavy-low",
    write_per_mille: 800,
    hot_lo_per_mille: 0,
    hot_hi_per_mille: 333,
    hot_per_mille: 900,
    scan_reads: false,
};

/// Phase B: scan-mostly, hotspot migrated to the high third.
const PHASE_B: Phase = Phase {
    name: "scan-mostly-high",
    write_per_mille: 100,
    hot_lo_per_mille: 667,
    hot_hi_per_mille: 1000,
    hot_per_mille: 1000,
    scan_reads: true,
};

/// Drives one phase single-threaded, recording per-op latency. The op
/// stream is fully determined by `seed`, so every config faces the
/// identical sequence of keys and op types.
fn drive(idx: &AnyConcurrentIndex, phase: &Phase, span: u64, ops: usize, seed: u64) -> Samples {
    let hot_lo = span / 1000 * phase.hot_lo_per_mille;
    let hot_hi = span / 1000 * phase.hot_hi_per_mille;
    let mut s = seed;
    let mut ns = Vec::with_capacity(ops);
    for i in 0..ops {
        let r = splitmix64(&mut s);
        let key = if r % 1000 < phase.hot_per_mille {
            hot_lo + splitmix64(&mut s) % (hot_hi - hot_lo).max(1)
        } else {
            splitmix64(&mut s) % span
        };
        let is_write = splitmix64(&mut s) % 1000 < phase.write_per_mille;
        let t0 = Instant::now();
        if is_write {
            ConcurrentIndex::insert(idx, key, i as u64);
        } else if phase.scan_reads {
            let _ = idx.range_vec(key, key.saturating_add(SCAN_WINDOW));
        } else {
            let _ = ConcurrentIndex::get(idx, key);
        }
        ns.push(t0.elapsed().as_nanos() as u64);
    }
    Samples::new(ns)
}

/// Per-config result: each phase's latencies plus the shard-kind layout
/// observed after each phase.
struct Run {
    name: String,
    a: Samples,
    b: Samples,
    kinds_after_a: String,
    kinds_after_b: String,
}

impl Run {
    /// Tail latency of the config's *worst* phase — the number a
    /// pick-one-kind-up-front strategy is stuck with under drift.
    fn worst_p99(&self) -> u64 {
        self.a.percentile(0.99).max(self.b.percentile(0.99))
    }
}

/// Counts shards per kind label, e.g. `"ALEX x3 + PGM x5"`.
fn kind_layout(idx: &AnyConcurrentIndex) -> String {
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    for k in idx.shard_kinds() {
        let label = idx.kind_label(k);
        match counts.iter_mut().find(|(l, _)| *l == label) {
            Some((_, n)) => *n += 1,
            None => counts.push((label, 1)),
        }
    }
    counts.iter().map(|(l, n)| format!("{l} x{n}")).collect::<Vec<_>>().join(" + ")
}

/// Runs both phases over one config. When `adapt` is set, a background
/// thread runs tuner epochs for the whole session (the maintenance
/// worker's role); static configs take the identical code path, where
/// `run_adaptation` is a no-op.
fn run_config(name: &str, idx: AnyConcurrentIndex, span: u64, ops: usize, seed: u64) -> Run {
    let idx = Arc::new(idx);
    let stop = Arc::new(AtomicBool::new(false));
    let epochs = {
        let idx = Arc::clone(&idx);
        let stop = Arc::clone(&stop);
        li_sync::thread::spawn(move || {
            let mut committed = 0usize;
            while !stop.load(Ordering::Acquire) {
                committed += idx.run_adaptation();
                li_sync::thread::sleep(Duration::from_millis(4));
            }
            committed
        })
    };
    let a = drive(&idx, &PHASE_A, span, ops, seed ^ 0xa);
    let kinds_after_a = kind_layout(&idx);
    let b = drive(&idx, &PHASE_B, span, ops, seed ^ 0xb);
    let kinds_after_b = kind_layout(&idx);
    stop.store(true, Ordering::Release);
    let committed = epochs.join().expect("epoch thread");
    Run { name: format!("{name} ({committed} adaptations)"), a, b, kinds_after_a, kinds_after_b }
}

/// Prints the config's two table rows and returns its JSON cell.
fn report_run(run: &Run) -> Json {
    let mut cell = Vec::new();
    for (key, phase, lat) in [("write_heavy", &PHASE_A, &run.a), ("scan_mostly", &PHASE_B, &run.b)]
    {
        let cells = harness::latency_cells(lat);
        harness::row(
            &format!("{} / {}", run.name, phase.name),
            &cells.map(|(_, us)| format!("{us:.2}")),
        );
        cell.push((key, Json::obj(cells)));
    }
    cell.push(("worst_p99_us", Json::Num(run.worst_p99() as f64 / 1e3)));
    cell.push(("kinds_after_write_phase", run.kinds_after_a.as_str().into()));
    cell.push(("kinds_after_read_phase", run.kinds_after_b.as_str().into()));
    Json::Obj(cell)
}

pub fn run(cfg: &BenchConfig, flags: &mut Flags) -> Result<u8, String> {
    let ops: usize = flags.get("--ops", cfg.ops);
    let shards: usize = flags.get("--shards", 8);
    let mut report = Report::new("adaptive", flags);
    flags.finish()?;
    println!("== adaptive: self-tuning router vs. static kinds under drift ==\n");

    // Loaded keys on a stride leave gaps for the hotspot inserts; the
    // keyspace span is what the phase hotspot windows carve up.
    let span = cfg.n as u64 * STRIDE;
    let loaded: Vec<(Key, u64)> = (0..cfg.n as u64).map(|i| (i * STRIDE, i)).collect();
    println!(
        "loaded {} keys (span {span}), {} ops/phase x 2 phases, {} shards",
        loaded.len(),
        ops,
        shards
    );
    println!(
        "phase A: {}% writes, hotspot low third; phase B: {}% writes, hotspot high third\n",
        PHASE_A.write_per_mille / 10,
        PHASE_B.write_per_mille / 10
    );

    harness::header(&["config / phase", "p50 us", "p99 us", "p999 us", "max us"]);

    // Adaptive: PGM everywhere, ALEX as the write-heavy rebuild target
    // (the AdaptivePolicy default). The recorder counts its structural
    // actions for the JSON row.
    let rec = Recorder::enabled();
    let adaptive = {
        // Short benches see few epochs, so the hysteresis floors come
        // down accordingly; the thresholds and targets are the policy's.
        let mut policy = AdaptivePolicy {
            initial: IndexKind::Alex,
            write_heavy: IndexKind::Alex,
            read_mostly: IndexKind::FitingInp,
            ..AdaptivePolicy::default()
        };
        policy.tuner.min_dwell_epochs = 2;
        policy.tuner.cooldown_epochs = 1;
        policy.tuner.min_epoch_ops = 128;
        policy.tuner.min_swap_ops = 256;
        policy.tuner.max_actions_per_epoch = 4;
        // Pin the shard count: a single-threaded driver gains nothing
        // from finer lock granularity, and every extra boundary is one
        // more cell a scan must cross — this bench isolates the
        // kind-swap claim. The oracle and chaos tests cover split/merge.
        policy.tuner.max_shards = shards;
        policy.tuner.min_shards = shards;
        let mut idx = AnyConcurrentIndex::build_adaptive(shards, &loaded, policy);
        li_core::traits::Index::set_recorder(&mut idx, rec.clone());
        run_config("adaptive", idx, span, ops, cfg.seed)
    };
    let adaptive_cell = report_run(&adaptive);

    let statics = [("static_alex", IndexKind::Alex), ("static_fiting_inp", IndexKind::FitingInp)]
        .map(|(key, kind)| {
            let route = ConcurrentKind::of(kind).expect("sharded route");
            let idx = AnyConcurrentIndex::build_with_shards(route, shards, &loaded);
            let run = run_config(&format!("static-{}", kind.name()), idx, span, ops, cfg.seed);
            (key, report_run(&run), run.worst_p99())
        });

    let snap = rec.snapshot();
    println!(
        "\nadaptive structural actions: {} splits, {} merges, {} kind swaps ({} tuner decisions)",
        snap.event(Event::ShardSplit),
        snap.event(Event::ShardMerge),
        snap.event(Event::KindSwap),
        snap.event(Event::TunerDecision),
    );
    println!(
        "adaptive layout after write phase: [{}]; after read phase: [{}]",
        adaptive.kinds_after_a, adaptive.kinds_after_b
    );

    // The drift claim: every static kind has a phase it is wrong for;
    // the adaptive row must match or beat the best static config's
    // worst-phase tail.
    let static_best_worst = statics.iter().map(|s| s.2).min().expect("two static configs");
    let wins = adaptive.worst_p99() <= static_best_worst;
    println!(
        "\nworst-phase p99: adaptive {:.2} us vs best static {:.2} us — adaptive {}",
        adaptive.worst_p99() as f64 / 1e3,
        static_best_worst as f64 / 1e3,
        if wins { "wins" } else { "does NOT win" }
    );

    report.field("loaded", cfg.n);
    report.field("ops_per_phase", ops);
    report.field("shards", shards);
    report.field("seed", cfg.seed);
    report.field("adaptive", adaptive_cell);
    for (key, cell, _) in statics {
        report.field(key, cell);
    }
    report.field("splits", snap.event(Event::ShardSplit));
    report.field("merges", snap.event(Event::ShardMerge));
    report.field("kind_swaps", snap.event(Event::KindSwap));
    report.field("tuner_decisions", snap.event(Event::TunerDecision));
    report.field("adaptive_beats_every_static_worst_phase", wins);
    report.check(wins, "adaptive worst-phase p99 exceeds the best static config's");
    Ok(report.finish())
}
