//! Ablations of the reproduction's own design choices (beyond the paper's
//! figures):
//!
//! 1. **In-leaf search routine** — bounded binary vs interpolation vs
//!    exponential search over the same Opt-PLA segmentation (§VI-A lists
//!    these as the leaf-search options).
//! 2. **§V's suggested combination** — the paper predicts that pairing the
//!    asymmetric tree with a bounded-error / distribution-changing
//!    approximation would beat the shipped designs; the pieces framework
//!    lets us test exactly that (and LIPP realises it).
//! 3. **NVM drag** — the same workload on a DRAM-like vs Optane-like
//!    device, quantifying how much of end-to-end cost is the record store
//!    (the paper's motivating question: "the bottleneck may be the NVM or
//!    the index").

use std::time::Instant;

use crate::harness::{self, BenchConfig};
use li_core::approx::ApproxAlgorithm;
use li_core::pieces::assembled::{PiecewiseConfig, PiecewiseIndex};
use li_core::pieces::insertion::LeafKind;
use li_core::pieces::retrain::RetrainPolicy;
use li_core::pieces::structure::StructureKind;
use li_core::search::{bounded_last_le, exponential_lower_bound, interpolation_lower_bound};
use li_core::traits::{Index, UpdatableIndex};
use li_core::Key;
use li_nvm::{LatencyModel, NvmConfig};
use li_viper::{RecordLayout, StoreConfig, ViperStore};
use li_workloads::Dataset;
use lip::{AnyIndex, IndexKind};
use rand::{rngs::StdRng, RngExt, SeedableRng};

pub fn run(cfg: &BenchConfig) {
    println!("== Ablations of reproduction design choices ==\n");
    leaf_search(cfg);
    suggested_combination(cfg);
    hot_cache(cfg);
    nvm_drag(cfg);
}

fn hot_cache(cfg: &BenchConfig) {
    println!("--- (2b) hot-key cache in front of an index (§V-B1) ---");
    use li_core::hot::HotCache;
    use li_core::traits::BulkBuildIndex;
    use li_workloads::ZipfGen;
    let keys = harness::dataset(Dataset::YcsbNormal, cfg.n, cfg.seed);
    let pairs: Vec<(u64, u64)> = keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
    let mut zipf = ZipfGen::new(keys.len(), cfg.seed);
    let probes: Vec<Key> = (0..cfg.ops.max(50_000)).map(|_| keys[zipf.next_scrambled()]).collect();

    harness::header(&["config", "get ns", "hit rate"]);
    let plain = li_alex::Alex::build(&pairs);
    let t0 = Instant::now();
    let mut acc = 0u64;
    for &k in &probes {
        acc ^= plain.get(k).unwrap_or(1);
    }
    std::hint::black_box(acc);
    harness::row(
        "ALEX",
        &[format!("{:.0}", t0.elapsed().as_nanos() as f64 / probes.len() as f64), "-".into()],
    );
    let mut cached = HotCache::new(li_alex::Alex::build(&pairs), 4096);
    let t0 = Instant::now();
    let mut acc = 0u64;
    for &k in &probes {
        acc ^= cached.get_mut(k).unwrap_or(1);
    }
    std::hint::black_box(acc);
    let (h, m) = cached.stats();
    harness::row(
        "ALEX+HotCache",
        &[
            format!("{:.0}", t0.elapsed().as_nanos() as f64 / probes.len() as f64),
            format!("{:.0}%", 100.0 * h as f64 / (h + m) as f64),
        ],
    );
    println!("(Zipfian reads; hot keys resolve at depth 0)\n");
}

/// Timed rounds per routine in row (1); odd, so the median is a sample.
const LEAF_SEARCH_ROUNDS: usize = 9;

/// One in-leaf search routine of row (1): (probe's position, key) → slot.
type LeafSearch<'a> = &'a dyn Fn(usize, Key) -> usize;

fn leaf_search(cfg: &BenchConfig) {
    println!("--- (1) in-leaf search routine, same Opt-PLA segments ---");
    let keys = harness::dataset(Dataset::YcsbNormal, cfg.n, cfg.seed);
    let segs = ApproxAlgorithm::OptPla { epsilon: 64 }.segment(&keys);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let probes: Vec<(usize, Key)> = (0..(cfg.ops / 2).max(20_000))
        .map(|_| {
            let i = rng.random_range(0..keys.len());
            (i, keys[i])
        })
        .collect();
    let seg_of = |i: usize| segs.partition_point(|s| s.start <= i) - 1;

    let predict = |i: usize, k: Key| {
        let s = &segs[seg_of(i)];
        (s, s.model.predict_clamped(k, keys.len()).clamp(s.start, s.start + s.len - 1))
    };
    let routines: [(&str, LeafSearch); 3] = [
        // Bounded binary around the prediction (what PGM/FITing do).
        ("bounded-binary", &|i, k| {
            let (s, p) = predict(i, k);
            bounded_last_le(&keys, k, p, s.max_error as usize + 1)
        }),
        // Exponential search outward from the prediction (ALEX's choice).
        ("exponential", &|i, k| exponential_lower_bound(&keys, k, predict(i, k).1)),
        // Interpolation within the segment window (§VI-A's alternative).
        ("interpolation", &|i, k| {
            let s = &segs[seg_of(i)];
            s.start + interpolation_lower_bound(&keys[s.start..s.start + s.len], k)
        }),
    ];

    // One pass over the probes takes a few ms, so a single timing is
    // noise-bound; alternate the routines round by round and print each
    // one's median.
    let mut ns: [Vec<f64>; 3] = Default::default();
    for _ in 0..LEAF_SEARCH_ROUNDS {
        for ((_, search), runs) in routines.iter().zip(&mut ns) {
            let t0 = Instant::now();
            let acc = probes.iter().fold(0usize, |acc, &(i, k)| acc ^ search(i, k));
            std::hint::black_box(acc);
            runs.push(t0.elapsed().as_nanos() as f64 / probes.len() as f64);
        }
    }
    harness::header(&["search", "ns/lookup"]);
    for ((name, _), runs) in routines.iter().zip(&mut ns) {
        runs.sort_by(f64::total_cmp);
        harness::row(name, &[format!("{:.0}", runs[LEAF_SEARCH_ROUNDS / 2])]);
    }
    println!("(median of {LEAF_SEARCH_ROUNDS} alternating rounds)\n");
}

fn suggested_combination(cfg: &BenchConfig) {
    println!("--- (2) §V's suggested combination vs shipped designs ---");
    let keys = harness::dataset(Dataset::OsmLike, cfg.n, cfg.seed);
    let (loaded, pool) = li_workloads::split_load_insert(&keys, 0.3);
    let pairs: Vec<(u64, u64)> = loaded.iter().map(|&k| (k, 0)).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed + 4);
    let probes: Vec<Key> =
        (0..(cfg.ops / 2).max(20_000)).map(|_| loaded[rng.random_range(0..loaded.len())]).collect();

    harness::header(&["design", "get ns", "ins ns"]);
    let combos: [(&str, PiecewiseConfig); 3] = [
        (
            "FIT (OptPLA+BTREE+buf)",
            PiecewiseConfig {
                algo: ApproxAlgorithm::OptPla { epsilon: 64 },
                structure: StructureKind::BTree,
                leaf: LeafKind::Buffer { reserve: 256 },
                policy: RetrainPolicy::ResegmentLeaf,
            },
        ),
        (
            "ALEX-ish (LSA+ATS+gap)",
            PiecewiseConfig {
                algo: ApproxAlgorithm::Lsa { seg_size: 1024 },
                structure: StructureKind::Ats,
                leaf: LeafKind::Gapped { density: 0.7, max_density: 0.85 },
                policy: RetrainPolicy::ExpandOrSplit {
                    expand_factor: 1.5,
                    split_error_threshold: 8.0,
                },
            },
        ),
        (
            "SecV (OptPLA+ATS+gap)",
            PiecewiseConfig {
                algo: ApproxAlgorithm::OptPla { epsilon: 64 },
                structure: StructureKind::Ats,
                leaf: LeafKind::Gapped { density: 0.7, max_density: 0.85 },
                policy: RetrainPolicy::ExpandOrSplit {
                    expand_factor: 1.5,
                    split_error_threshold: 8.0,
                },
            },
        ),
    ];
    for (name, c) in combos {
        let mut idx = PiecewiseIndex::build_with(c, &pairs);
        let t0 = Instant::now();
        let mut acc = 0u64;
        for &k in &probes {
            acc ^= idx.get(k).unwrap_or(1);
        }
        std::hint::black_box(acc);
        let get_ns = t0.elapsed().as_nanos() as f64 / probes.len() as f64;
        let t0 = Instant::now();
        for (i, &k) in pool.iter().enumerate() {
            idx.insert(k, i as u64);
        }
        let ins_ns = t0.elapsed().as_nanos() as f64 / pool.len() as f64;
        harness::row(name, &[format!("{get_ns:.0}"), format!("{ins_ns:.0}")]);
    }
    // LIPP: the published realisation of §V's advice.
    {
        let mut idx = li_lipp::Lipp::build_with(li_lipp::LippConfig::default(), &pairs);
        let t0 = Instant::now();
        let mut acc = 0u64;
        for &k in &probes {
            acc ^= Index::get(&idx, k).unwrap_or(1);
        }
        std::hint::black_box(acc);
        let get_ns = t0.elapsed().as_nanos() as f64 / probes.len() as f64;
        let t0 = Instant::now();
        for (i, &k) in pool.iter().enumerate() {
            idx.insert(k, i as u64);
        }
        let ins_ns = t0.elapsed().as_nanos() as f64 / pool.len() as f64;
        harness::row("LIPP (precise pos.)", &[format!("{get_ns:.0}"), format!("{ins_ns:.0}")]);
    }
    println!();
}

fn nvm_drag(cfg: &BenchConfig) {
    println!("--- (3) NVM drag: same workload, DRAM-like vs Optane-like device ---");
    let keys = harness::dataset(Dataset::YcsbNormal, cfg.n, cfg.seed);
    let ops = harness::read_ops(&keys, cfg.ops, cfg.seed + 1);
    harness::header(&["index", "DRAM Mops/s", "NVM Mops/s", "drag"]);
    for kind in [IndexKind::BTree, IndexKind::Alex, IndexKind::Pgm, IndexKind::Cceh] {
        let mut mops = Vec::new();
        for latency in [LatencyModel::dram_like(), LatencyModel::optane_like()] {
            let layout = RecordLayout::paper_default();
            let bytes = (keys.len() * 2 / layout.slots_per_page() + 64) * layout.page_size;
            let config = StoreConfig {
                layout,
                nvm: NvmConfig {
                    capacity: bytes,
                    latency,
                    durability: li_nvm::DurabilityTracking::Disabled,
                },
                crash_safe_updates: false,
                durability: None,
            };
            let mut store =
                ViperStore::<AnyIndex>::bulk_load_with(config, &keys, harness::value_of, |p| {
                    AnyIndex::build(kind, p)
                });
            let m = harness::run_ops(kind.name(), &mut store, &ops);
            mops.push(m.mops());
        }
        harness::row(
            kind.name(),
            &[
                format!("{:.3}", mops[0]),
                format!("{:.3}", mops[1]),
                format!("{:.1}x", mops[0] / mops[1]),
            ],
        );
    }
    println!(
        "(the paper's premise: index speed still matters under NVM drag, \
         but the gap narrows)\n"
    );
}
