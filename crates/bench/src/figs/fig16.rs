//! Fig. 16 — index recovery (rebuild) time.
//!
//! After a restart, Viper rebuilds its volatile DRAM index by scanning the
//! NVM record pages; this times the *index build* portion for every index
//! at 1×/2×/4× the base size.

use std::time::Instant;

use crate::harness::{self, BenchConfig};
use li_workloads::Dataset;
use lip::{AnyIndex, IndexKind};

pub fn run(cfg: &BenchConfig) {
    println!("== Fig. 16: index recovery/build time ==\n");
    for mult in [1usize, 2, 4] {
        let n = cfg.n * mult;
        let keys = harness::dataset(Dataset::YcsbNormal, n, cfg.seed);
        let pairs: Vec<(u64, u64)> = keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
        println!("--- {}k records ---", n / 1000);
        harness::header(&["index", "build ms"]);
        for kind in IndexKind::ALL {
            // Time exactly what recovery does after the page scan: a bulk
            // index build over the recovered (key, offset) pairs.
            let t0 = Instant::now();
            let idx = AnyIndex::build(kind, &pairs);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(&idx);
            harness::row(kind.name(), &[format!("{ms:.1}")]);
        }
        println!();
    }

    // One full end-to-end recovery (page scan + build) for reference.
    let keys = harness::dataset(Dataset::YcsbNormal, cfg.n, cfg.seed);
    let store = harness::build_store(IndexKind::Alex, &keys);
    let layout = store.heap().layout();
    let dev = store.into_device();
    let t0 = Instant::now();
    let recovered = li_viper::ViperStore::<AnyIndex>::recover_with(dev, layout, |pairs| {
        AnyIndex::build(IndexKind::Alex, pairs)
    });
    println!(
        "full recovery (NVM page scan + ALEX build) of {}k records: {:.1} ms",
        recovered.len() / 1000,
        t0.elapsed().as_secs_f64() * 1e3
    );

    // Extension: APEX keeps the index ON the persistent device, so its
    // recovery reads one header per node instead of every record — the
    // design answer to this figure's drawback (§VII (ii)).
    let pairs: Vec<(u64, u64)> = keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
    let pages = pairs.len() / 100 + 64;
    let apex_dev = std::sync::Arc::new(li_nvm::NvmDevice::new(li_nvm::NvmConfig::optane(
        pages * li_apex::NODE_BYTES,
    )));
    let apex = li_apex::Apex::build(std::sync::Arc::clone(&apex_dev), &pairs);
    drop(apex);
    let t0 = Instant::now();
    let apex = li_apex::Apex::recover(apex_dev);
    use li_core::traits::Index as _;
    println!(
        "APEX-style recovery (index resident on NVM, header scan only) of {}k records: {:.1} ms\n",
        apex.len() / 1000,
        t0.elapsed().as_secs_f64() * 1e3
    );
}
