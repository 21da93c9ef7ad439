//! Miniature end-to-end face-off: every index in the paper's lineup
//! serving a YCSB-style workload inside the NVM-backed store — a quick
//! taste of Figs. 10/13/15 (the real harness lives in `crates/bench`).
//!
//! Run with: `cargo run --release --example index_faceoff [n_keys]`

use std::time::Instant;

use lip::core::traits::Index;
use lip::viper::{StoreConfig, ViperStore};
use lip::workloads::{generate_keys, generate_ops, split_load_insert, Dataset, Op, WorkloadSpec};
use lip::{AnyIndex, IndexKind};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(200_000);
    let keys = generate_keys(Dataset::YcsbNormal, n, 1);
    let (loaded, pool) = split_load_insert(&keys, 0.2);
    let ops_read = generate_ops(&WorkloadSpec::read_only_uniform(), &loaded, &[], n / 2, 2);
    let ops_mixed = generate_ops(&WorkloadSpec::ycsb_a(), &loaded, &pool, n / 2, 3);

    println!("end-to-end face-off: {n} YCSB keys, 200-byte values on simulated NVM\n");
    println!(
        "{:<16} {:>12} {:>12} {:>14}",
        "index", "read Mops/s", "mixed Mops/s", "index size KiB"
    );

    for kind in IndexKind::ALL {
        let config = StoreConfig::paper(keys.len());
        let mut store =
            ViperStore::<AnyIndex>::bulk_load_with(config, &loaded, value_of, |pairs| {
                AnyIndex::build(kind, pairs)
            });
        let vs = store.heap().layout().value_size;
        let mut buf = vec![0u8; vs];

        // Read-only phase.
        let t0 = Instant::now();
        let mut hits = 0u64;
        for op in &ops_read {
            if let Op::Read(k) = op {
                hits += store.get(*k, &mut buf) as u64;
            }
        }
        let read_mops = ops_read.len() as f64 / t0.elapsed().as_secs_f64() / 1e6;
        assert_eq!(hits as usize, ops_read.len(), "{}", kind.name());

        // Mixed phase (updates + reads), only for updatable indexes.
        let mixed_mops = if kind.supports_insert() {
            let mut val = vec![0u8; vs];
            let t0 = Instant::now();
            for op in &ops_mixed {
                match op {
                    Op::Read(k) => {
                        store.get(*k, &mut buf);
                    }
                    Op::Insert(k, v) | Op::Update(k, v) | Op::ReadModifyWrite(k, v) => {
                        if matches!(op, Op::ReadModifyWrite(..)) {
                            store.get(*k, &mut buf);
                        }
                        val.fill(*v as u8);
                        store.put(*k, &val).unwrap();
                    }
                    Op::Scan(k, len) => {
                        store.scan(*k, u64::MAX, *len, &mut |_, _| {});
                    }
                }
            }
            Some(ops_mixed.len() as f64 / t0.elapsed().as_secs_f64() / 1e6)
        } else {
            None
        };

        println!(
            "{:<16} {:>12.3} {:>12} {:>14.1}",
            kind.name(),
            read_mops,
            mixed_mops.map_or("  (read-only)".into(), |m| format!("{m:.3}")),
            store.index().index_size_bytes() as f64 / 1024.0
        );
    }
    println!(
        "\n(the paper's headline: learned indexes beat the traditional \
         sorted indexes on reads, and ALEX stays ahead under writes)"
    );
}

fn value_of(key: u64, buf: &mut [u8]) {
    buf.fill((key % 251) as u8);
}
