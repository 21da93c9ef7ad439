//! Appendix: range-query evaluation.
//!
//! §III-A3 notes the paper "evaluated the performance of a range query for
//! learned indexes and included the results in the appendix". This harness
//! reproduces it: scans of 10/100/1000 records through the store for every
//! range-capable index (the hash baseline cannot scan — exactly why §VII
//! excludes it from the sorted-index comparison).

use std::time::Instant;

use crate::harness::{self, BenchConfig, Samples};
use li_workloads::Dataset;
use lip::IndexKind;
use rand::{rngs::StdRng, RngExt, SeedableRng};

pub fn run(cfg: &BenchConfig) {
    println!("== Appendix: range scans through the store ==\n");
    let keys = harness::dataset(Dataset::YcsbNormal, cfg.n, cfg.seed);
    for scan_len in [10usize, 100, 1000] {
        let scans = (cfg.ops / scan_len.max(10)).clamp(200, 20_000);
        println!("--- scan length {scan_len} ({scans} scans) ---");
        harness::header(&["index", "scans/s", "p99.9 us"]);
        for kind in IndexKind::ALL {
            if !kind.supports_range() {
                continue;
            }
            let store = harness::build_store(kind, &keys);
            let mut rng = StdRng::seed_from_u64(cfg.seed + 7);
            let starts: Vec<u64> =
                (0..scans).map(|_| keys[rng.random_range(0..keys.len())]).collect();
            let mut ns = Vec::with_capacity(scans);
            let mut total = 0usize;
            let t0 = Instant::now();
            for &lo in &starts {
                let t1 = Instant::now();
                total += store.scan(lo, u64::MAX, scan_len, &mut |_, _| {});
                ns.push(t1.elapsed().as_nanos() as u64);
            }
            let secs = t0.elapsed().as_secs_f64();
            std::hint::black_box(total);
            harness::row(
                kind.name(),
                &[
                    format!("{:.0}", scans as f64 / secs),
                    format!("{:.1}", Samples::new(ns).us(0.999)),
                ],
            );
        }
        println!();
    }
}
