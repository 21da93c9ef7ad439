//! Foreground vs. background retraining under the Fig. 18 insert
//! workload (§IV-E).
//!
//! The paper measures how much of an updatable learned index's insert
//! cost is retraining (Fig. 18 (b)/(d)). This gate asks the follow-up
//! service question: what happens to *tail* insert latency when that
//! retraining is moved off the foreground path onto the
//! [`li_viper::MaintenanceWorker`]?
//!
//! Two identical stores are loaded with the YCSB key set and driven with
//! the same insert stream:
//!
//! * **fg** — retrains run inline in the insert path (the default).
//! * **bg** — a maintenance worker owns retraining; inserts that would
//!   retrain park their key and return immediately.
//!
//! The per-insert latencies are printed and reported so CI can assert the
//! headline claim: background retraining strictly lowers p999 insert
//! latency.
//!
//! Flags: `--inserts N`, `--shards N`, `--out PATH`,
//! `--check` (exit non-zero unless bg p999 < fg p999).
//! `LIP_BENCH_N` scales the loaded key set as in every other entry.

use std::sync::Arc;
use std::time::Instant;

use crate::harness::{self, BenchConfig, Flags, Json, Report, Samples};
use li_core::telemetry::{Event, Recorder};
use li_core::{Key, Sharded};
use li_viper::{ConcurrentViperStore, MaintenanceConfig, MaintenanceWorker, StoreConfig};
use li_workloads::Dataset;
use lip::IndexKind;

fn build(loaded: &[Key], shards: usize) -> ConcurrentViperStore<Sharded> {
    let config = StoreConfig::paper(loaded.len() * 4 + 1024);
    ConcurrentViperStore::bulk_load_with(config, loaded, harness::value_of, |pairs| {
        Sharded::build_boxed(shards, pairs, |chunk| IndexKind::FitingBuf.build(chunk))
    })
}

/// Drives the insert stream single-threaded, recording per-op latency;
/// prints the mode's table row and returns its latencies and JSON cell.
fn drive(mode: &str, store: &ConcurrentViperStore<Sharded>, inserts: &[Key]) -> (Samples, Json) {
    let vs = store.heap().layout().value_size;
    let mut val = vec![0u8; vs];
    let mut ns = Vec::with_capacity(inserts.len());
    let start = Instant::now();
    for &k in inserts {
        harness::value_of(k, &mut val);
        let t0 = Instant::now();
        store.put(k, &val).expect("bench insert failed");
        ns.push(t0.elapsed().as_nanos() as u64);
    }
    let mops = inserts.len() as f64 / start.elapsed().as_secs_f64() / 1e6;
    let lat = Samples::new(ns);
    let cells = harness::latency_cells(&lat);
    let mut row = vec![format!("{mops:.3}")];
    row.extend(cells.iter().map(|(_, us)| format!("{us:.1}")));
    harness::row(mode, &row);
    (lat, Json::obj([("mops", mops)].into_iter().chain(cells)))
}

pub fn run(cfg: &BenchConfig, flags: &mut Flags) -> Result<u8, String> {
    let n_inserts: usize = flags.get("--inserts", cfg.ops);
    let shards: usize = flags.get("--shards", 8);
    let mut report = Report::new("bg_retrain", flags);
    flags.finish()?;
    println!("== bg_retrain: foreground vs. background retraining ==\n");

    // Fig. 18 insert stream: load half the YCSB key set, insert the rest.
    let keys = harness::dataset(Dataset::YcsbNormal, cfg.n, cfg.seed);
    let (loaded, pool) = li_workloads::split_load_insert(&keys, 0.5);
    let inserts: Vec<Key> = pool.iter().copied().take(n_inserts).collect();
    println!(
        "dataset YCSB, loaded {} keys, inserting {} (FITing-tree-buf x {shards} shards)\n",
        loaded.len(),
        inserts.len(),
    );

    harness::header(&["mode", "Mops", "p50 us", "p99 us", "p999 us", "max us"]);

    // Foreground: retrains run inline in the insert path. Both stores
    // carry an enabled recorder so per-op overhead is identical.
    let mut fg_store = build(&loaded, shards);
    fg_store.set_recorder(Recorder::enabled());
    let (fg, fg_cell) = drive("foreground", &fg_store, &inserts);

    // Background: the maintenance worker owns retraining. A coarse tick
    // keeps the worker's drains bursty, so on small machines it preempts
    // as few measured inserts as possible.
    let mut bg_store = build(&loaded, shards);
    let rec = Recorder::enabled();
    bg_store.set_recorder(rec.clone());
    let bg_store = Arc::new(bg_store);
    let worker = MaintenanceWorker::spawn(
        Arc::clone(&bg_store),
        MaintenanceConfig { interval: std::time::Duration::from_millis(10), ..Default::default() },
    );
    let (bg, bg_cell) = drive("background", &bg_store, &inserts);
    let stats = worker.shutdown();

    let deferred = rec.snapshot().event(Event::RetrainDeferred);
    println!(
        "\nworker: {} ticks, {} retrains drained, {} deferrals parked by inserts",
        stats.ticks, stats.retrains, deferred
    );
    let improved = bg.percentile(0.999) < fg.percentile(0.999);
    println!(
        "p999 insert latency: fg {:.1} us vs bg {:.1} us — background {}",
        fg.us(0.999),
        bg.us(0.999),
        if improved { "wins" } else { "does NOT win" }
    );

    report.field("dataset", "YCSB");
    report.field("index", "FITing-tree-buf");
    report.field("loaded", loaded.len());
    report.field("inserts", inserts.len());
    report.field("shards", shards);
    report.field("seed", cfg.seed);
    report.field("fg", fg_cell);
    report.field("bg", bg_cell);
    report.field("worker_retrains", stats.retrains);
    report.field("deferred", deferred);
    report.field("bg_p999_lt_fg", improved);
    report.check(improved, "background p999 is not lower than foreground p999");
    Ok(report.finish())
}
