//! Operation-stream generation: the paper's read-only, write-only and
//! read-write-mixed (YCSB A/B/C/D/F) workloads (§III-A3, §III-D).

use li_core::{Key, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::zipf::{LatestGen, ZipfGen};

/// One key-value operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point lookup.
    Read(Key),
    /// Insert of a key not in the loaded set.
    Insert(Key, Value),
    /// Update (blind write) of an existing key.
    Update(Key, Value),
    /// Read-modify-write of an existing key (YCSB-F).
    ReadModifyWrite(Key, Value),
    /// Range scan of up to `len` pairs starting at the key.
    Scan(Key, usize),
}

impl Op {
    /// The key the operation targets.
    pub fn key(&self) -> Key {
        match *self {
            Op::Read(k)
            | Op::Insert(k, _)
            | Op::Update(k, _)
            | Op::ReadModifyWrite(k, _)
            | Op::Scan(k, _) => k,
        }
    }
}

/// Request-distribution selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessDistribution {
    Uniform,
    Zipfian,
    /// Skewed toward recent inserts (YCSB-D).
    Latest,
}

/// Fractions of each operation type (must sum to ~1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub read: f64,
    pub update: f64,
    pub insert: f64,
    pub rmw: f64,
    pub scan: f64,
    pub dist: AccessDistribution,
}

impl WorkloadSpec {
    /// YCSB-A: update-heavy (50/50 read/update, Zipfian).
    pub fn ycsb_a() -> Self {
        WorkloadSpec {
            name: "YCSB-A",
            read: 0.5,
            update: 0.5,
            insert: 0.0,
            rmw: 0.0,
            scan: 0.0,
            dist: AccessDistribution::Zipfian,
        }
    }

    /// YCSB-B: read-mostly (95/5 read/update, Zipfian).
    pub fn ycsb_b() -> Self {
        WorkloadSpec {
            name: "YCSB-B",
            read: 0.95,
            update: 0.05,
            insert: 0.0,
            rmw: 0.0,
            scan: 0.0,
            dist: AccessDistribution::Zipfian,
        }
    }

    /// YCSB-D: read-latest with 5% inserts.
    pub fn ycsb_d() -> Self {
        WorkloadSpec {
            name: "YCSB-D",
            read: 0.95,
            update: 0.0,
            insert: 0.05,
            rmw: 0.0,
            scan: 0.0,
            dist: AccessDistribution::Latest,
        }
    }

    /// YCSB-F: read-modify-write (50/50, Zipfian).
    pub fn ycsb_f() -> Self {
        WorkloadSpec {
            name: "YCSB-F",
            read: 0.5,
            update: 0.0,
            insert: 0.0,
            rmw: 0.5,
            scan: 0.0,
            dist: AccessDistribution::Zipfian,
        }
    }

    /// Pure point-lookup stream over the loaded keys (read-only case,
    /// Fig. 10) with uniform access.
    pub fn read_only_uniform() -> Self {
        WorkloadSpec {
            name: "READ",
            read: 1.0,
            update: 0.0,
            insert: 0.0,
            rmw: 0.0,
            scan: 0.0,
            dist: AccessDistribution::Uniform,
        }
    }

    /// Pure insert stream of fresh keys (write-only case, Fig. 13).
    pub fn write_only() -> Self {
        WorkloadSpec {
            name: "WRITE",
            read: 0.0,
            update: 0.0,
            insert: 1.0,
            rmw: 0.0,
            scan: 0.0,
            dist: AccessDistribution::Uniform,
        }
    }
}

/// Generates `count` operations over `loaded` (the bulk-loaded, sorted key
/// set) plus `insert_pool` (fresh keys to insert, disjoint from `loaded`),
/// deterministically from `seed`.
///
/// Inserted keys become visible to subsequent `Latest`-distributed reads,
/// matching YCSB-D's semantics.
pub fn generate_ops(
    spec: &WorkloadSpec,
    loaded: &[Key],
    insert_pool: &[Key],
    count: usize,
    seed: u64,
) -> Vec<Op> {
    assert!(!loaded.is_empty() || spec.insert > 0.0, "cannot generate reads over an empty key set");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51_7c_c1_b7);
    let mut zipf = ZipfGen::new(loaded.len().max(1), seed ^ 1);
    let mut latest = LatestGen::new(loaded.len().max(1), seed ^ 2);
    let mut ops = Vec::with_capacity(count);
    // Keys visible so far: loaded ∪ inserted-prefix. For Latest we index
    // into this logical sequence.
    let mut inserted: Vec<Key> = Vec::new();
    let mut next_insert = 0usize;
    let mut next_value: Value = 1;

    let pick_existing = |rng: &mut StdRng,
                         zipf: &mut ZipfGen,
                         latest: &mut LatestGen,
                         inserted: &Vec<Key>|
     -> Key {
        let visible = loaded.len() + inserted.len();
        match spec.dist {
            AccessDistribution::Uniform => {
                let i = rng.random_range(0..visible);
                if i < loaded.len() {
                    loaded[i]
                } else {
                    inserted[i - loaded.len()]
                }
            }
            AccessDistribution::Zipfian => {
                let i = zipf.next_scrambled() % visible;
                if i < loaded.len() {
                    loaded[i]
                } else {
                    inserted[i - loaded.len()]
                }
            }
            AccessDistribution::Latest => {
                let i = latest.next(visible);
                if i < loaded.len() {
                    loaded[i]
                } else {
                    inserted[i - loaded.len()]
                }
            }
        }
    };

    for _ in 0..count {
        let r: f64 = rng.random::<f64>();
        let op = if r < spec.read && !(loaded.is_empty() && inserted.is_empty()) {
            Op::Read(pick_existing(&mut rng, &mut zipf, &mut latest, &inserted))
        } else if r < spec.read + spec.update && !(loaded.is_empty() && inserted.is_empty()) {
            next_value += 1;
            Op::Update(pick_existing(&mut rng, &mut zipf, &mut latest, &inserted), next_value)
        } else if r < spec.read + spec.update + spec.rmw
            && !(loaded.is_empty() && inserted.is_empty())
        {
            next_value += 1;
            Op::ReadModifyWrite(
                pick_existing(&mut rng, &mut zipf, &mut latest, &inserted),
                next_value,
            )
        } else if r < spec.read + spec.update + spec.rmw + spec.scan
            && !(loaded.is_empty() && inserted.is_empty())
        {
            Op::Scan(pick_existing(&mut rng, &mut zipf, &mut latest, &inserted), 100)
        } else {
            // Insert a fresh key; fall back to an update when the pool is
            // exhausted.
            if next_insert < insert_pool.len() {
                let k = insert_pool[next_insert];
                next_insert += 1;
                inserted.push(k);
                next_value += 1;
                Op::Insert(k, next_value)
            } else if !(loaded.is_empty() && inserted.is_empty()) {
                next_value += 1;
                Op::Update(pick_existing(&mut rng, &mut zipf, &mut latest, &inserted), next_value)
            } else {
                continue;
            }
        };
        ops.push(op);
    }
    ops
}

/// Splits a sorted key set into a loaded part and an insert pool: every
/// `1/insert_fraction`-th key is withheld for insertion, so inserts land
/// throughout the key space (the hard case for learned indexes).
pub fn split_load_insert(keys: &[Key], insert_fraction: f64) -> (Vec<Key>, Vec<Key>) {
    assert!((0.0..1.0).contains(&insert_fraction));
    if insert_fraction == 0.0 {
        return (keys.to_vec(), Vec::new());
    }
    let period = (1.0 / insert_fraction).round().max(2.0) as usize;
    let mut loaded = Vec::with_capacity(keys.len());
    let mut pool = Vec::with_capacity(keys.len() / period + 1);
    for (i, &k) in keys.iter().enumerate() {
        if i % period == period - 1 {
            pool.push(k);
        } else {
            loaded.push(k);
        }
    }
    (loaded, pool)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded() -> Vec<Key> {
        (0..10_000u64).map(|i| i * 7).collect()
    }

    #[test]
    fn read_only_only_reads_known_keys() {
        let l = loaded();
        let ops = generate_ops(&WorkloadSpec::read_only_uniform(), &l, &[], 10_000, 1);
        assert_eq!(ops.len(), 10_000);
        for op in &ops {
            match op {
                Op::Read(k) => assert!(l.binary_search(k).is_ok()),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn write_only_only_inserts_pool_keys_in_order() {
        let l = loaded();
        let pool: Vec<Key> = (0..5_000u64).map(|i| i * 7 + 3).collect();
        let ops = generate_ops(&WorkloadSpec::write_only(), &l, &pool, 5_000, 1);
        let mut expect = pool.iter();
        for op in &ops {
            match op {
                Op::Insert(k, _) => assert_eq!(Some(k), expect.next()),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn ycsb_a_mix_ratio() {
        let l = loaded();
        let ops = generate_ops(&WorkloadSpec::ycsb_a(), &l, &[], 100_000, 2);
        let reads = ops.iter().filter(|o| matches!(o, Op::Read(_))).count();
        let updates = ops.iter().filter(|o| matches!(o, Op::Update(..))).count();
        assert_eq!(reads + updates, ops.len());
        let frac = reads as f64 / ops.len() as f64;
        assert!((frac - 0.5).abs() < 0.02, "read fraction {frac}");
    }

    #[test]
    fn ycsb_d_reads_recent_inserts() {
        let l = loaded();
        let pool: Vec<Key> = (0..2_000u64).map(|i| 100_000 + i).collect();
        let ops = generate_ops(&WorkloadSpec::ycsb_d(), &l, &pool, 50_000, 3);
        let inserts = ops.iter().filter(|o| matches!(o, Op::Insert(..))).count();
        assert!(inserts > 1_000, "inserts {inserts}");
        // Reads should frequently hit keys from the insert pool (latest).
        let pool_reads = ops.iter().filter(|o| matches!(o, Op::Read(k) if *k >= 100_000)).count();
        assert!(pool_reads > 1_000, "reads of fresh keys: {pool_reads}");
    }

    #[test]
    fn ycsb_f_has_rmw() {
        let l = loaded();
        let ops = generate_ops(&WorkloadSpec::ycsb_f(), &l, &[], 10_000, 4);
        let rmw = ops.iter().filter(|o| matches!(o, Op::ReadModifyWrite(..))).count();
        assert!((rmw as f64 / ops.len() as f64 - 0.5).abs() < 0.03);
    }

    #[test]
    fn zipfian_reads_are_skewed() {
        let l = loaded();
        let ops = generate_ops(&WorkloadSpec::ycsb_b(), &l, &[], 100_000, 5);
        let mut counts = std::collections::HashMap::new();
        for op in &ops {
            if let Op::Read(k) = op {
                *counts.entry(*k).or_insert(0usize) += 1;
            }
        }
        let max = counts.values().max().copied().unwrap();
        assert!(max > 500, "hottest key only {max} hits");
    }

    #[test]
    fn deterministic() {
        let l = loaded();
        let a = generate_ops(&WorkloadSpec::ycsb_a(), &l, &[], 1_000, 9);
        let b = generate_ops(&WorkloadSpec::ycsb_a(), &l, &[], 1_000, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn split_load_insert_partitions() {
        let keys: Vec<Key> = (0..1_000u64).collect();
        let (l, p) = split_load_insert(&keys, 0.2);
        assert_eq!(l.len() + p.len(), 1_000);
        assert_eq!(p.len(), 200);
        // Disjoint and both sorted.
        for w in l.windows(2) {
            assert!(w[0] < w[1]);
        }
        for w in p.windows(2) {
            assert!(w[0] < w[1]);
        }
        for k in &p {
            assert!(l.binary_search(k).is_err());
        }
    }

    #[test]
    fn split_zero_fraction() {
        let keys: Vec<Key> = (0..100u64).collect();
        let (l, p) = split_load_insert(&keys, 0.0);
        assert_eq!(l.len(), 100);
        assert!(p.is_empty());
    }

    #[test]
    fn op_accessors() {
        assert_eq!(Op::Read(5).key(), 5);
    }
}
