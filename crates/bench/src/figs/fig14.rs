//! Fig. 14 — multi-threaded write-only evaluation.
//!
//! The paper could only run XIndex here (the sole learned index with
//! concurrent writes, Table I). The unified store lifts *every* updatable
//! index into concurrent service — natively for XIndex, by range sharding
//! for the rest — so the full write-capable lineup runs at every thread
//! count, each thread inserting a disjoint slice of fresh keys through the
//! shared store.

use std::sync::Arc;
use std::time::Instant;

use crate::harness::{self, BenchConfig, Measurement, Samples};
use li_core::ConcurrentIndex;
use li_viper::ConcurrentViperStore;
use li_workloads::{split_load_insert, Dataset};
use lip::{AnyConcurrentIndex, ConcurrentKind};

/// One measured cell: `threads` writers insert disjoint slices of `pool`
/// into a store pre-loaded with `loaded`.
pub fn measure(
    kind: ConcurrentKind,
    store: Arc<ConcurrentViperStore<AnyConcurrentIndex>>,
    pool: &[u64],
    threads: usize,
    per_thread: usize,
) -> Measurement {
    let vs = store.heap().layout().value_size;
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        let store = Arc::clone(&store);
        let mine: Vec<u64> =
            pool.iter().skip(t).step_by(threads).take(per_thread).copied().collect();
        handles.push(li_sync::thread::spawn(move || {
            let mut ns = Vec::with_capacity(mine.len());
            let mut val = vec![0u8; vs];
            for k in mine {
                harness::value_of(k, &mut val);
                let t0 = Instant::now();
                store.put(k, &val).expect("bench store put failed");
                ns.push(t0.elapsed().as_nanos() as u64);
            }
            ns
        }));
    }
    let mut ns = Vec::with_capacity(per_thread * threads);
    for h in handles {
        ns.extend(h.join().expect("writer thread"));
    }
    let secs = start.elapsed().as_secs_f64();
    Measurement { name: kind.name(), ops: per_thread * threads, secs, lat: Samples::new(ns) }
}

pub fn run(cfg: &BenchConfig) {
    println!("== Fig. 14: write-only, multi-threaded (full updatable lineup) ==\n");
    let sink = harness::TelemetrySink::new(cfg, "fig14");
    let keys = harness::dataset(Dataset::YcsbNormal, cfg.n, cfg.seed);
    let (loaded, pool) = split_load_insert(&keys, 0.2);

    for threads in cfg.thread_counts() {
        println!("--- {threads} thread(s) ---");
        harness::header(&["index", "Mops/s", "p99.9 us"]);
        let per_thread = (cfg.ops / threads).min(pool.len() / threads.max(1));
        for kind in ConcurrentKind::all() {
            // A fresh recorder per (threads, kind) row: its `Put`
            // histogram, lock waits and structural events are this row's
            // alone; the router's cell rows come from the store's index.
            let rec = sink.recorder();
            let mut store = harness::build_concurrent_store(kind, &loaded);
            if rec.is_enabled() {
                store.set_recorder(rec.clone());
            }
            let store = Arc::new(store);
            let m = measure(kind, Arc::clone(&store), &pool, threads, per_thread);
            if rec.is_enabled() {
                let mut snap = rec.snapshot();
                snap.nvm = store.heap().device().stats_snapshot().to_telemetry();
                snap.cells = store.index().observe_cells();
                sink.write(&format!("t{threads}_{}", kind.name()), &snap);
            }
            harness::row(&m.name, &[format!("{:.3}", m.mops()), format!("{:.2}", m.p999_us())]);
        }
        println!();
    }
}
