//! Integration: the multi-threaded setups of Figs. 12 and 14 — concurrent
//! reads through a shared store, and concurrent writes through the
//! write-capable indexes.

use std::sync::Arc;

use lip::core::traits::ConcurrentIndex;
use lip::viper::{ConcurrentViperStore, StoreConfig, ViperStore};
use lip::workloads::{generate_keys, Dataset};
use lip::{AnyConcurrentIndex, AnyIndex, ConcurrentKind, IndexKind};

fn value_of(key: u64, buf: &mut [u8]) {
    buf.fill((key % 251) as u8);
}

#[test]
fn concurrent_reads_every_index() {
    let keys = generate_keys(Dataset::YcsbNormal, 20_000, 21);
    for kind in IndexKind::ALL {
        let config = StoreConfig::test(keys.len());
        let store =
            Arc::new(ViperStore::<AnyIndex>::bulk_load_with(config, &keys, value_of, |pairs| {
                AnyIndex::build(kind, pairs)
            }));
        let vs = store.heap().layout().value_size;
        let mut handles = Vec::new();
        for t in 0..8usize {
            let store = Arc::clone(&store);
            let keys = keys.clone();
            handles.push(li_sync::thread::spawn(move || {
                let mut buf = vec![0u8; vs];
                let mut expect = vec![0u8; vs];
                for &k in keys.iter().skip(t).step_by(17) {
                    assert!(store.get(k, &mut buf), "lost {k}");
                    value_of(k, &mut expect);
                    assert_eq!(buf, expect);
                }
            }));
        }
        for h in handles {
            h.join().unwrap_or_else(|_| panic!("{}", kind.name()));
        }
    }
}

#[test]
fn concurrent_writes_every_concurrent_kind() {
    // Every updatable index — native (XIndex) or lifted by range sharding —
    // serves concurrent writers through the one shared-writer store.
    let initial: Vec<u64> = (0..8_000u64).map(|i| i * 97 + 5).collect();
    for kind in ConcurrentKind::all() {
        let config = StoreConfig::test(initial.len() + 40_000);
        let store =
            Arc::new(ConcurrentViperStore::bulk_load_with(config, &initial, value_of, |pairs| {
                AnyConcurrentIndex::build(kind, pairs)
            }));
        let vs = store.heap().layout().value_size;

        // Phase 1: concurrent inserts of disjoint fresh keys, interleaved
        // across the key domain so all shards take writes.
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let store = Arc::clone(&store);
            handles.push(li_sync::thread::spawn(move || {
                let mut val = vec![0u8; vs];
                for i in 0..2_000u64 {
                    let k = (i * 8 + t) * 97 + 6;
                    value_of(k, &mut val);
                    store.put(k, &val).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap_or_else(|_| panic!("{}", kind.name()));
        }
        assert_eq!(store.len(), 24_000, "{}", kind.name());

        // Phase 2: mixed readers + writers on overlapping ranges.
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let store = Arc::clone(&store);
            let initial = initial.clone();
            handles.push(li_sync::thread::spawn(move || {
                let mut buf = vec![0u8; vs];
                for &k in initial.iter().skip(t as usize).step_by(7) {
                    assert!(store.get(k, &mut buf), "reader {t}: lost {k}");
                }
            }));
        }
        for t in 0..4u64 {
            let store = Arc::clone(&store);
            handles.push(li_sync::thread::spawn(move || {
                let val = vec![t as u8 + 1; vs];
                for i in 0..1_000u64 {
                    let k = (i * 8 + t) * 97 + 6;
                    store.put(k, &val).unwrap(); // in-place updates
                }
            }));
        }
        for h in handles {
            h.join().unwrap_or_else(|_| panic!("{}", kind.name()));
        }
        assert_eq!(store.len(), 24_000, "{}", kind.name());

        // Updated values must be untorn: all bytes identical.
        let mut buf = vec![0u8; vs];
        for t in 0..4u64 {
            let k = t * 97 + 6;
            assert!(store.get(k, &mut buf));
            assert!(buf.iter().all(|&b| b == buf[0]), "{}: torn value", kind.name());
        }
    }
}

#[test]
fn xindex_splits_under_concurrent_load() {
    // Hammer a narrow region so groups compact and split while readers
    // verify nothing is lost.
    let loaded: Vec<(u64, u64)> = (0..2_000u64).map(|i| (i * 1_000, i)).collect();
    let x = Arc::new(lip::xindex::XIndex::build_with(
        lip::xindex::XIndexConfig { group_size: 128, buffer_size: 16, max_group_size: 256 },
        &loaded,
    ));
    let mut handles = Vec::new();
    for t in 0..6u64 {
        let x = Arc::clone(&x);
        handles.push(li_sync::thread::spawn(move || {
            for i in 0..8_000u64 {
                let k = (i * 37 + t) % 2_000_000;
                ConcurrentIndex::insert(&*x, k, t * 1_000_000 + i);
            }
        }));
    }
    for t in 0..2u64 {
        let x = Arc::clone(&x);
        let loaded = loaded.clone();
        handles.push(li_sync::thread::spawn(move || {
            for _ in 0..5 {
                for &(k, _) in loaded.iter().skip(t as usize).step_by(13) {
                    assert!(ConcurrentIndex::get(&*x, k).is_some(), "lost loaded key {k}");
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(x.group_count() > 16, "groups: {}", x.group_count());
    // All loaded keys present, all writer keys present.
    for &(k, _) in loaded.iter().step_by(7) {
        assert!(ConcurrentIndex::get(&*x, k).is_some());
    }
}
