//! Fig. 12 — multi-threaded read-only evaluation.
//!
//! Every index supports concurrent reads; the store is shared via `Arc`
//! and each thread runs its own slice of the op stream. The simulated
//! NVM's shared bandwidth limiter reproduces the saturation the paper
//! observed at high thread counts.

use std::sync::Arc;
use std::time::Instant;

use crate::harness::{self, BenchConfig, Measurement, Samples};
use li_workloads::{Dataset, Op};
use lip::IndexKind;

pub fn run(cfg: &BenchConfig) {
    println!("== Fig. 12: read-only, multi-threaded ==\n");
    let keys = harness::dataset(Dataset::YcsbNormal, cfg.n, cfg.seed);
    let ops = harness::read_ops(&keys, cfg.ops, cfg.seed + 1);

    for threads in cfg.thread_counts() {
        println!("--- {threads} thread(s) ---");
        harness::header(&["index", "Mops/s", "p99.9 us"]);
        for kind in IndexKind::ALL {
            let store = Arc::new(harness::build_store(kind, &keys));
            let vs = store.heap().layout().value_size;
            let chunk = ops.len() / threads;
            let start = Instant::now();
            let mut handles = Vec::new();
            for t in 0..threads {
                let store = Arc::clone(&store);
                let slice: Vec<Op> = ops[t * chunk..(t + 1) * chunk].to_vec();
                handles.push(li_sync::thread::spawn(move || {
                    let mut ns = Vec::with_capacity(slice.len());
                    let mut buf = vec![0u8; vs];
                    for op in &slice {
                        if let Op::Read(k) = op {
                            let t0 = Instant::now();
                            std::hint::black_box(store.get(*k, &mut buf));
                            ns.push(t0.elapsed().as_nanos() as u64);
                        }
                    }
                    ns
                }));
            }
            let mut ns = Vec::with_capacity(chunk * threads);
            for h in handles {
                ns.extend(h.join().expect("reader thread"));
            }
            let secs = start.elapsed().as_secs_f64();
            let lat = Samples::new(ns);
            let m = Measurement { name: kind.name().into(), ops: chunk * threads, secs, lat };
            harness::row(kind.name(), &[format!("{:.3}", m.mops()), format!("{:.2}", m.p999_us())]);
        }
        println!();
    }
}
