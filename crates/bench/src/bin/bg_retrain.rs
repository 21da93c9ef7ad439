//! Foreground vs. background retraining under the Fig. 18 insert
//! workload (§IV-E).
//!
//! The paper measures how much of an updatable learned index's insert
//! cost is retraining (Fig. 18 (b)/(d)). This binary asks the follow-up
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
//! The per-insert latency histograms are printed and written as one JSON
//! row under `results/` so CI can assert the headline claim: background
//! retraining strictly lowers p999 insert latency.
//!
//! Flags: `--inserts N`, `--shards N`, `--out PATH`,
//! `--check` (exit non-zero unless bg p999 < fg p999).
//! `LIP_BENCH_N` scales the loaded key set as in every other binary.

use std::sync::Arc;
use std::time::Instant;

use li_bench::harness::{self, BenchConfig};
use li_core::hist::LatencyHistogram;
use li_core::telemetry::{Event, Recorder};
use li_core::{Key, Sharded};
use li_viper::{ConcurrentViperStore, MaintenanceConfig, MaintenanceWorker, StoreConfig};
use li_workloads::Dataset;
use lip::IndexKind;

struct Args {
    inserts: usize,
    shards: usize,
    out: String,
    check: bool,
}

fn parse_args(default_inserts: usize) -> Args {
    let mut args = Args {
        inserts: default_inserts,
        shards: 8,
        out: "results/bg_retrain.json".to_string(),
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--inserts" => {
                args.inserts = it.next().and_then(|v| v.parse().ok()).expect("--inserts N");
            }
            "--shards" => args.shards = it.next().and_then(|v| v.parse().ok()).expect("--shards N"),
            "--out" => args.out = it.next().expect("--out PATH"),
            "--check" => args.check = true,
            "--telemetry" => {} // accepted for uniformity with other binaries
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn build(loaded: &[Key], shards: usize) -> ConcurrentViperStore<Sharded> {
    let config = StoreConfig::paper(loaded.len() * 4 + 1024);
    ConcurrentViperStore::bulk_load_with(config, loaded, harness::value_of, |pairs| {
        Sharded::build_boxed(shards, pairs, |chunk| IndexKind::FitingBuf.build(chunk))
    })
}

/// Drives the insert stream single-threaded, recording per-op latency.
fn drive(store: &ConcurrentViperStore<Sharded>, inserts: &[Key]) -> LatencyHistogram {
    let vs = store.heap().layout().value_size;
    let mut val = vec![0u8; vs];
    let mut hist = LatencyHistogram::new();
    for &k in inserts {
        harness::value_of(k, &mut val);
        let t0 = Instant::now();
        store.put(k, &val).expect("bench insert failed");
        hist.record(t0.elapsed().as_nanos() as u64);
    }
    hist
}

fn cell(hist: &LatencyHistogram, secs: f64) -> String {
    format!(
        "{{\"mops\":{:.4},\"p50_us\":{:.3},\"p99_us\":{:.3},\"p999_us\":{:.3},\"max_us\":{:.3}}}",
        hist.count() as f64 / secs / 1e6,
        hist.percentile(0.5) as f64 / 1e3,
        hist.percentile(0.99) as f64 / 1e3,
        hist.percentile(0.999) as f64 / 1e3,
        hist.max() as f64 / 1e3,
    )
}

fn print_row(name: &str, hist: &LatencyHistogram, secs: f64) {
    harness::row(
        name,
        &[
            format!("{:.3}", hist.count() as f64 / secs / 1e6),
            format!("{:.1}", hist.percentile(0.5) as f64 / 1e3),
            format!("{:.1}", hist.percentile(0.99) as f64 / 1e3),
            format!("{:.1}", hist.percentile(0.999) as f64 / 1e3),
            format!("{:.1}", hist.max() as f64 / 1e3),
        ],
    );
}

fn main() {
    let cfg = BenchConfig::from_env();
    let args = parse_args(cfg.ops);
    println!("== bg_retrain: foreground vs. background retraining ==\n");

    // Fig. 18 insert stream: load half the YCSB key set, insert the rest.
    let keys = harness::dataset(Dataset::YcsbNormal, cfg.n, cfg.seed);
    let (loaded, pool) = li_workloads::split_load_insert(&keys, 0.5);
    let inserts: Vec<Key> = pool.iter().copied().take(args.inserts).collect();
    println!(
        "dataset YCSB, loaded {} keys, inserting {} (FITing-tree-buf x {} shards)\n",
        loaded.len(),
        inserts.len(),
        args.shards
    );

    harness::header(&["mode", "Mops", "p50 us", "p99 us", "p999 us", "max us"]);

    // Foreground: retrains run inline in the insert path. Both stores
    // carry an enabled recorder so per-op overhead is identical.
    let mut fg_store = build(&loaded, args.shards);
    fg_store.set_recorder(Recorder::enabled());
    let t0 = Instant::now();
    let fg = drive(&fg_store, &inserts);
    let fg_secs = t0.elapsed().as_secs_f64();
    print_row("foreground", &fg, fg_secs);

    // Background: the maintenance worker owns retraining. A coarse tick
    // keeps the worker's drains bursty, so on small machines it preempts
    // as few measured inserts as possible.
    let mut bg_store = build(&loaded, args.shards);
    let rec = Recorder::enabled();
    bg_store.set_recorder(rec.clone());
    let bg_store = Arc::new(bg_store);
    let worker = MaintenanceWorker::spawn(
        Arc::clone(&bg_store),
        MaintenanceConfig { interval: std::time::Duration::from_millis(10), ..Default::default() },
    );
    let t0 = Instant::now();
    let bg = drive(&bg_store, &inserts);
    let bg_secs = t0.elapsed().as_secs_f64();
    let stats = worker.shutdown();
    print_row("background", &bg, bg_secs);

    let deferred = rec.snapshot().event(Event::RetrainDeferred);
    println!(
        "\nworker: {} ticks, {} retrains drained, {} deferrals parked by inserts",
        stats.ticks, stats.retrains, deferred
    );
    let improved = bg.percentile(0.999) < fg.percentile(0.999);
    println!(
        "p999 insert latency: fg {:.1} us vs bg {:.1} us — background {}",
        fg.percentile(0.999) as f64 / 1e3,
        bg.percentile(0.999) as f64 / 1e3,
        if improved { "wins" } else { "does NOT win" }
    );

    let json = format!(
        "{{\"bench\":\"bg_retrain\",\"dataset\":\"YCSB\",\"index\":\"FITing-tree-buf\",\
         \"loaded\":{},\"inserts\":{},\"shards\":{},\"seed\":{},\
         \"fg\":{},\"bg\":{},\
         \"worker_retrains\":{},\"deferred\":{},\"bg_p999_lt_fg\":{}}}\n",
        loaded.len(),
        inserts.len(),
        args.shards,
        cfg.seed,
        cell(&fg, fg_secs),
        cell(&bg, bg_secs),
        stats.retrains,
        deferred,
        improved
    );
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    std::fs::write(&args.out, &json).expect("write JSON row");
    println!("[json] {}", args.out);

    if args.check && !improved {
        eprintln!("CHECK FAILED: background p999 is not lower than foreground p999");
        std::process::exit(1);
    }
}
