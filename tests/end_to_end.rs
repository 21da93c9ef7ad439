//! Integration: every index of the paper's lineup serving YCSB workloads
//! inside the Viper store, checked against an in-memory oracle.

use std::collections::BTreeMap;

use lip::viper::{StoreConfig, ViperStore};
use lip::workloads::{generate_keys, generate_ops, split_load_insert, Dataset, Op, WorkloadSpec};
use lip::{AnyIndex, IndexKind};

fn value_of(key: u64, buf: &mut [u8]) {
    let b = (key % 251) as u8;
    buf.fill(b);
}

fn expected_value(key: u64, val: Option<u64>, len: usize) -> Vec<u8> {
    match val {
        // Updated records carry the op value in every byte.
        Some(v) => vec![v as u8; len],
        None => {
            let mut buf = vec![0u8; len];
            value_of(key, &mut buf);
            buf
        }
    }
}

/// Runs `spec` over a freshly loaded store with index `kind`, comparing
/// every operation against a BTreeMap oracle.
fn run_workload(kind: IndexKind, spec: WorkloadSpec, n: usize, dataset: Dataset) {
    let keys = generate_keys(dataset, n, 11);
    let (loaded, pool) = split_load_insert(&keys, 0.25);
    let ops = generate_ops(&spec, &loaded, &pool, n, 13);

    let config = StoreConfig::test(keys.len());
    let vs = config.layout.value_size;
    let mut store = ViperStore::<AnyIndex>::bulk_load_with(config, &loaded, value_of, |pairs| {
        AnyIndex::build(kind, pairs)
    });

    // Oracle: key -> Some(latest op value) or None for the loaded default.
    let mut oracle: BTreeMap<u64, Option<u64>> = loaded.iter().map(|&k| (k, None)).collect();
    let mut buf = vec![0u8; vs];

    for op in &ops {
        match *op {
            Op::Read(k) => {
                let hit = store.get(k, &mut buf);
                match oracle.get(&k) {
                    Some(&val) => {
                        assert!(hit, "{}: lost key {k}", kind.name());
                        assert_eq!(
                            buf,
                            expected_value(k, val, vs),
                            "{}: wrong value for {k}",
                            kind.name()
                        );
                    }
                    None => assert!(!hit, "{}: ghost key {k}", kind.name()),
                }
            }
            Op::Insert(k, v) | Op::Update(k, v) => {
                store.put(k, &vec![v as u8; vs]).unwrap();
                oracle.insert(k, Some(v));
            }
            Op::ReadModifyWrite(k, v) => {
                store.get(k, &mut buf);
                store.put(k, &vec![v as u8; vs]).unwrap();
                oracle.insert(k, Some(v));
            }
            Op::Scan(k, len) => {
                let mut got = Vec::new();
                store.scan(k, u64::MAX, len, &mut |key, _| got.push(key));
                if kind.supports_range() {
                    let expect: Vec<u64> =
                        oracle.range(k..).take(len).map(|(&key, _)| key).collect();
                    assert_eq!(got, expect, "{}: scan from {k}", kind.name());
                }
            }
        }
    }
    assert_eq!(store.len(), oracle.len(), "{}", kind.name());
}

#[test]
fn read_only_all_indexes() {
    for kind in IndexKind::ALL {
        run_workload(kind, WorkloadSpec::read_only_uniform(), 20_000, Dataset::YcsbNormal);
    }
}

#[test]
fn write_only_updatable_indexes() {
    for kind in IndexKind::UPDATABLE {
        run_workload(kind, WorkloadSpec::write_only(), 20_000, Dataset::YcsbNormal);
    }
}

#[test]
fn ycsb_a_updatable_indexes() {
    for kind in IndexKind::UPDATABLE {
        run_workload(kind, WorkloadSpec::ycsb_a(), 15_000, Dataset::YcsbNormal);
    }
}

#[test]
fn ycsb_d_insert_heavy() {
    for kind in IndexKind::UPDATABLE {
        run_workload(kind, WorkloadSpec::ycsb_d(), 15_000, Dataset::YcsbNormal);
    }
}

#[test]
fn osm_like_hard_cdf() {
    for kind in [IndexKind::Alex, IndexKind::Pgm, IndexKind::FitingBuf, IndexKind::XIndex] {
        run_workload(kind, WorkloadSpec::ycsb_b(), 15_000, Dataset::OsmLike);
    }
}

#[test]
fn face_like_skew() {
    for kind in [IndexKind::Rs, IndexKind::Rmi, IndexKind::Alex, IndexKind::BTree] {
        run_workload(kind, WorkloadSpec::read_only_uniform(), 15_000, Dataset::FaceLike);
    }
}

#[test]
fn deletes_roundtrip_through_store() {
    let keys = generate_keys(Dataset::Uniform, 5_000, 3);
    for kind in IndexKind::UPDATABLE {
        let config = StoreConfig::test(keys.len());
        let vs = config.layout.value_size;
        let mut store = ViperStore::<AnyIndex>::bulk_load_with(config, &keys, value_of, |pairs| {
            AnyIndex::build(kind, pairs)
        });
        let mut buf = vec![0u8; vs];
        for &k in keys.iter().step_by(3) {
            assert!(store.delete(k).unwrap(), "{}: delete {k}", kind.name());
            assert!(!store.delete(k).unwrap());
            assert!(!store.get(k, &mut buf));
        }
        // Reinsert a deleted key.
        store.put(keys[0], &vec![9u8; vs]).unwrap();
        assert!(store.get(keys[0], &mut buf));
        assert_eq!(buf, vec![9u8; vs], "{}", kind.name());
    }
}
