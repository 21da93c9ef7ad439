//! Bounded model checks of the workspace's high-risk concurrency
//! protocols (built only under `RUSTFLAGS="--cfg loom"`).
//!
//! Each test wraps *production* code — the types under test take their
//! atomics and locks from `li-sync`, which resolves to the vendored
//! loom's instrumented types here — in `loom::model`, which explores
//! every thread interleaving of the closure up to a preemption bound
//! (CHESS-style; default 2). An assertion that fails in *any* explored
//! schedule fails the test and prints the decision path.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test --release --test loom_models
//! ```

#![cfg(loom)]

use li_sync::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use li_sync::sync::Arc;

/// Model 1 — XIndex group retire vs. concurrent get/insert.
///
/// A writer inserts enough keys to overflow a group buffer (compaction)
/// and cross the split threshold (retire + fresh snapshot under the
/// structure lock), while a reader does point lookups. In every
/// schedule: bulk-loaded keys stay visible through the retire, and at
/// quiescence the `len` counter agrees with the keys actually stored.
#[test]
fn xindex_retire_vs_get_insert() {
    use li_core::traits::ConcurrentIndex;
    use li_xindex::{XIndex, XIndexConfig};

    loom::model(|| {
        let cfg = XIndexConfig { group_size: 2, buffer_size: 2, max_group_size: 3 };
        let data: Vec<(u64, u64)> = vec![(10, 1), (20, 2), (30, 3), (40, 4)];
        let idx = Arc::new(XIndex::build_with(cfg, &data));

        let writer = {
            let idx = Arc::clone(&idx);
            loom::thread::spawn(move || {
                // Two inserts into the first group: fills its buffer,
                // forcing a compact; the grown run crosses
                // max_group_size, forcing a retire + split.
                idx.insert(12, 100);
                idx.insert(14, 101);
            })
        };
        let reader = {
            let idx = Arc::clone(&idx);
            loom::thread::spawn(move || {
                // A bulk-loaded key must never disappear, retired group
                // or not (the retry loop re-routes via the new snapshot).
                assert_eq!(idx.get(10), Some(1), "bulk key lost during retire");
                assert_eq!(idx.get(40), Some(4));
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();

        // Quiescent state: everything present, len agrees with contents.
        for (k, v) in [(10, 1), (20, 2), (30, 3), (40, 4), (12, 100), (14, 101)] {
            assert_eq!(idx.get(k), Some(v), "key {k} lost at quiescence");
        }
        assert_eq!(idx.len(), 6, "len counter disagrees with contents at quiescence");
    });
}

/// Model 2 — telemetry histogram record vs. snapshot.
///
/// Two recorders race a snapshotter. Mid-flight snapshots must be
/// *coherent* (never more observations than records issued, sum bounded
/// by the values in flight); the quiescent snapshot must be exact.
#[test]
fn histogram_record_vs_snapshot() {
    use li_telemetry::AtomicHistogram;

    loom::model(|| {
        let h = Arc::new(AtomicHistogram::new());
        let a = {
            let h = Arc::clone(&h);
            loom::thread::spawn(move || h.record(1))
        };
        let b = {
            let h = Arc::clone(&h);
            loom::thread::spawn(move || h.record(3))
        };

        // Concurrent snapshot: bucket-derived count and sum may lag but
        // never overshoot what has been recorded.
        let s = h.snapshot();
        assert!(s.count <= 2, "snapshot count {} overshoots records issued", s.count);
        assert!(s.sum <= 4, "snapshot sum {} overshoots recorded values", s.sum);

        a.join().unwrap();
        b.join().unwrap();
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 4);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 3);
    });
}

/// Model 3 — `NvmStats` snapshot frontier (the lone Acquire fence).
///
/// The device increments `writes` *before* `bytes_written` for each op;
/// the snapshot's acquire fence plus that program order means a reader
/// may see the byte count lag, but never lead, the op count.
#[test]
fn nvm_stats_snapshot_frontier() {
    use li_nvm::NvmStats;

    loom::model(|| {
        let stats = Arc::new(NvmStats::default());
        let writer = {
            let stats = Arc::clone(&stats);
            loom::thread::spawn(move || {
                for _ in 0..2 {
                    stats.writes.fetch_add(1, Ordering::Relaxed);
                    stats.bytes_written.fetch_add(8, Ordering::Relaxed);
                }
            })
        };
        let snap = stats.snapshot();
        assert!(
            snap.bytes_written <= 8 * snap.writes,
            "bytes_written {} leads writes {} — snapshot frontier violated",
            snap.bytes_written,
            snap.writes
        );
        writer.join().unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.bytes_written, 16);
    });
}

/// Model 4 — maintenance shutdown handshake (in miniature).
///
/// The worker loop's shape from `viper::maintenance`: check the stop
/// flag with `Acquire`, do a tick, yield (standing in for
/// `sleep_interruptible`'s chunked sleep). The coordinator publishes
/// work with `Release` before raising the flag; the worker must
/// terminate in every schedule and must have observed the final
/// published value once it does.
#[test]
fn maintenance_shutdown_handshake() {
    loom::model(|| {
        let stop = Arc::new(AtomicBool::new(false));
        let published = Arc::new(AtomicUsize::new(0));

        let worker = {
            let stop = Arc::clone(&stop);
            let published = Arc::clone(&published);
            loom::thread::spawn(move || {
                let mut ticks = 0usize;
                while !stop.load(Ordering::Acquire) {
                    ticks += 1;
                    loom::thread::yield_now();
                }
                // stop was stored Release after the publish, so the
                // Acquire load that broke the loop ordered it visible.
                (ticks, published.load(Ordering::Relaxed))
            })
        };

        published.store(42, Ordering::Relaxed);
        stop.store(true, Ordering::Release);
        let (_ticks, seen) = worker.join().unwrap();
        assert_eq!(seen, 42, "worker exited without seeing the published value");
    });
}

/// Model 5 — boundary-table cutover vs. a descending reader and a
/// routed writer.
///
/// A `Sharded` router splits shard 0 (open side log → snapshot →
/// rebuild two pieces → commit under table write + cell write) while a
/// writer routes an insert into the same shard and a reader descends
/// through the boundary table into both shards. The protocol's claims,
/// checked in every schedule:
///
/// * the reader never sees a torn `(boundary, cell)` pair — lookups hit
///   either the old or the new cell, both of which answer correctly;
/// * the racing write is never lost: it lands in a new cell via the
///   snapshot (before the side log opens), side-log replay (during the
///   build window), or routed insert (after the cutover);
/// * the split itself commits — contention delays it but cannot fail it.
#[test]
fn shard_cutover_vs_reader_and_writer() {
    use std::collections::BTreeMap;

    use li_core::traits::{ConcurrentIndex, Index, OrderedIndex, UpdatableIndex};
    use li_core::types::{Key, KeyValue, Value};
    use li_core::Sharded;

    /// Minimal shard payload: the router's cutover protocol is under
    /// test, not the learned index inside the cell.
    struct MiniMap(BTreeMap<Key, Value>);

    impl MiniMap {
        fn build(data: &[KeyValue]) -> Self {
            MiniMap(data.iter().copied().collect())
        }
    }

    impl Index for MiniMap {
        fn name(&self) -> &'static str {
            "mini"
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn get(&self, key: Key) -> Option<Value> {
            self.0.get(&key).copied()
        }
        fn index_size_bytes(&self) -> usize {
            0
        }
        fn data_size_bytes(&self) -> usize {
            self.0.len() * 16
        }
    }

    impl UpdatableIndex for MiniMap {
        fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
            self.0.insert(key, value)
        }
        fn remove(&mut self, key: Key) -> Option<Value> {
            self.0.remove(&key)
        }
    }

    impl OrderedIndex for MiniMap {
        fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
            out.extend(self.0.range(lo..=hi).map(|(&k, &v)| (k, v)));
        }
    }

    loom::model(|| {
        let data: Vec<KeyValue> = vec![(10, 1), (20, 2), (30, 3), (40, 4)];
        let idx = Arc::new(Sharded::build_with(2, &data, MiniMap::build));

        let splitter = {
            let idx = Arc::clone(&idx);
            loom::thread::spawn(move || {
                idx.force_split(0).expect("uncontested split must commit");
            })
        };
        let writer = {
            let idx = Arc::clone(&idx);
            loom::thread::spawn(move || {
                // Routes into shard 0 — the one being split. Whatever
                // the interleaving, it must survive the cutover.
                assert_eq!(
                    ConcurrentIndex::insert(&*idx, 12, 100),
                    None,
                    "insert of a fresh key saw a ghost"
                );
            })
        };
        // Reader (this thread) descends mid-split: table read lock →
        // boundary → cell. Both shards must answer from a coherent pair.
        assert_eq!(ConcurrentIndex::get(&*idx, 10), Some(1), "bulk key lost in the split shard");
        assert_eq!(
            ConcurrentIndex::get(&*idx, 30),
            Some(3),
            "untouched shard disturbed by the split"
        );

        splitter.join().unwrap();
        writer.join().unwrap();

        // Quiescence: the split took, the racing write was kept, and the
        // ordered face agrees with the routed one.
        assert_eq!(idx.shard_count(), 3, "shard 0 not split after the cutover");
        for (k, v) in [(10, 1), (12, 100), (20, 2), (30, 3), (40, 4)] {
            assert_eq!(ConcurrentIndex::get(&*idx, k), Some(v), "key {k} lost across the cutover");
        }
        assert_eq!(ConcurrentIndex::len(&*idx), 5, "len disagrees with contents after the cutover");
        let all = idx.range_vec(0, Key::MAX);
        assert_eq!(
            all,
            vec![(10, 1), (12, 100), (20, 2), (30, 3), (40, 4)],
            "ordered scan tore across the cutover"
        );
    });
}
