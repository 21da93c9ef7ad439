//! # li-xindex — XIndex (Tang et al., PPoPP'20; §II-B4)
//!
//! The only learned index in the paper's lineup that supports concurrent
//! writes (Table I). Structure:
//!
//! * a two-layer RMI **root** over group pivot keys,
//! * **group nodes**, each holding a least-squares model over a sorted run
//!   plus an off-site insert buffer (§II-B4),
//! * RCU-style structure updates: readers/writers grab an `Arc` snapshot
//!   of `(root, groups)`; a group split installs a fresh snapshot and
//!   marks the old group *retired* so in-flight operations retry — the
//!   spirit of XIndex's two-phase compaction with optimistic concurrency.
//!
//! Buffer overflow triggers an in-place merge + model retrain of one group
//! ("retrain one node"); groups that outgrow their bound split, which is
//! the only operation that takes the global structure lock.

use std::time::Instant;

use li_sync::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use li_sync::sync::Arc;

use li_core::pieces::structure::{InnerStructure, RmiInner};
use li_core::search::{lower_bound_kv, widening_last_le};
use li_core::telemetry::{Event, Recorder};
use li_core::traits::{
    BulkBuildIndex, ConcurrentIndex, DepthStats, Index, NativeWriter, OrderedIndex, UpdatableIndex,
};
use li_core::{Key, KeyValue, LinearModel, Value};
use li_sync::sync::{Mutex, RwLock};

/// Tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XIndexConfig {
    /// Keys per group at build time.
    pub group_size: usize,
    /// Buffer capacity per group; a full buffer triggers compaction.
    pub buffer_size: usize,
    /// Sorted-run size that forces a group split.
    pub max_group_size: usize,
}

impl Default for XIndexConfig {
    fn default() -> Self {
        XIndexConfig { group_size: 1024, buffer_size: 128, max_group_size: 4096 }
    }
}

/// Mutable state of one group.
struct GroupData {
    /// Sorted main run.
    sorted: Vec<KeyValue>,
    /// Model over `sorted` positions + measured max error.
    model: LinearModel,
    err: usize,
    /// Sorted off-site insert buffer.
    buffer: Vec<KeyValue>,
}

impl GroupData {
    fn build(sorted: Vec<KeyValue>) -> Self {
        let keys: Vec<Key> = sorted.iter().map(|kv| kv.0).collect();
        let model = LinearModel::fit_least_squares(&keys);
        let (max_err, _) = model.errors(&keys);
        GroupData { sorted, model, err: max_err.ceil() as usize, buffer: Vec::new() }
    }

    fn position_in_sorted(&self, key: Key) -> Option<usize> {
        // The model window may miss a foreign key, hence the widening.
        let p = self.model.predict_clamped(key, self.sorted.len());
        widening_last_le(&self.sorted, |kv| kv.0, key, p, self.err + 1)
            .filter(|&i| self.sorted[i].0 == key)
    }

    fn get(&self, key: Key) -> Option<Value> {
        if let Ok(i) = self.buffer.binary_search_by_key(&key, |kv| kv.0) {
            return Some(self.buffer[i].1);
        }
        self.position_in_sorted(key).map(|i| self.sorted[i].1)
    }

    /// Merges the buffer into the sorted run and retrains the model.
    fn compact(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.sorted.len() + self.buffer.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.sorted.len() || j < self.buffer.len() {
            let take_sorted = match (self.sorted.get(i), self.buffer.get(j)) {
                (Some(a), Some(b)) => a.0 < b.0,
                (Some(_), None) => true,
                _ => false,
            };
            if take_sorted {
                merged.push(self.sorted[i]);
                i += 1;
            } else {
                merged.push(self.buffer[j]);
                j += 1;
            }
        }
        *self = GroupData::build(merged);
    }

    fn len(&self) -> usize {
        self.sorted.len() + self.buffer.len()
    }
}

struct Group {
    data: RwLock<GroupData>,
    /// Set when the group was replaced by a split; operations that reach a
    /// retired group retry against the fresh snapshot.
    retired: AtomicBool,
}

impl Group {
    fn new(sorted: Vec<KeyValue>) -> Arc<Self> {
        Arc::new(Group {
            data: RwLock::with_class(
                li_sync::lock_class!("xindex-group"),
                GroupData::build(sorted),
            ),
            retired: AtomicBool::new(false),
        })
    }
}

/// Immutable structure snapshot (RCU).
struct Snapshot {
    root: RmiInner,
    pivots: Vec<Key>,
    groups: Vec<Arc<Group>>,
}

impl Snapshot {
    /// Builds from groups plus their routing pivots. Pivots are supplied
    /// by the caller and NEVER recomputed from group contents: a group's
    /// buffer may hold keys below its sorted run's first key, so deriving
    /// pivots from data could silently re-route stored keys to the wrong
    /// group.
    fn build(groups: Vec<Arc<Group>>, pivots: Vec<Key>) -> Arc<Self> {
        debug_assert_eq!(groups.len(), pivots.len());
        let root = RmiInner::build(&pivots);
        Arc::new(Snapshot { root, pivots, groups })
    }

    #[inline]
    fn group_for(&self, key: Key) -> &Arc<Group> {
        &self.groups[self.root.locate(key)]
    }
}

/// The XIndex.
pub struct XIndex {
    snapshot: RwLock<Arc<Snapshot>>,
    /// Serialises structure (split) operations.
    structure_lock: Mutex<()>,
    config: XIndexConfig,
    /// Live key count, maintained with `Ordering::Relaxed`.
    ///
    /// Relaxed is deliberate and audited (see `xtask/relaxed-allowlist.txt`):
    /// the counter is advisory — every update happens while holding the
    /// owning group's data lock, but readers of `len()` take no lock, so a
    /// read that races an insert/remove may lag by in-flight operations.
    /// It never drifts permanently: each successful insert adds exactly one
    /// and each successful remove subtracts exactly one, so at quiescence
    /// (all writers joined) `len()` equals the true key count. The
    /// `xindex_retire_vs_get_insert` loom model asserts that quiescent
    /// agreement across all bounded interleavings. Do NOT use this counter
    /// for cross-thread control flow.
    len: AtomicU64,
    recorder: Recorder,
}

impl XIndex {
    pub fn build_with(config: XIndexConfig, data: &[KeyValue]) -> Self {
        let (groups, pivots): (Vec<Arc<Group>>, Vec<Key>) = if data.is_empty() {
            (vec![Group::new(Vec::new())], vec![0])
        } else {
            data.chunks(config.group_size.max(2)).map(|c| (Group::new(c.to_vec()), c[0].0)).unzip()
        };
        XIndex {
            snapshot: RwLock::with_class(
                li_sync::lock_class!("xindex-snapshot"),
                Snapshot::build(groups, pivots),
            ),
            structure_lock: Mutex::with_class(li_sync::lock_class!("xindex-structure"), ()),
            config,
            len: AtomicU64::new(data.len() as u64),
            recorder: Recorder::disabled(),
        }
    }

    pub fn new() -> Self {
        Self::build_with(XIndexConfig::default(), &[])
    }

    /// Number of groups (diagnostics / Table II).
    pub fn group_count(&self) -> usize {
        self.snapshot.read().groups.len()
    }

    /// Structure-phase probe: routes `key` through the RMI root to its
    /// group index without searching inside the group (Fig. 17 (d)).
    pub fn locate_group(&self, key: Key) -> usize {
        self.snapshot.read().root.locate(key)
    }

    fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read())
    }

    /// Splits `group` (found in the current snapshot) in two and installs
    /// a fresh snapshot. No-op if the group was already retired.
    fn split_group(&self, group: &Arc<Group>) {
        let _structure = self.structure_lock.lock();
        if group.retired.load(Ordering::Acquire) {
            return;
        }
        let t0 = Instant::now();
        let snap = self.snapshot();
        let Some(idx) = snap.groups.iter().position(|g| Arc::ptr_eq(g, group)) else {
            return; // raced with another structural change
        };
        // Retire FIRST (under the group's write lock), then drain: any
        // reader that acquires the lock afterwards sees `retired` and
        // retries instead of observing an emptied group.
        let (left, right) = {
            let mut d = group.data.write();
            group.retired.store(true, Ordering::Release);
            d.compact();
            let run = std::mem::take(&mut d.sorted);
            let mid = run.len() / 2;
            let right = run[mid..].to_vec();
            let mut left_run = run;
            left_run.truncate(mid);
            (left_run, right)
        };
        let keys = (left.len() + right.len()) as u64;
        // The left half keeps the old routing pivot (it may be covering
        // keys below its first sorted key); the right half's pivot is its
        // first key.
        let right_pivot = right.first().map_or(snap.pivots[idx], |kv| kv.0);
        let mut groups = snap.groups.clone();
        groups.splice(idx..=idx, [Group::new(left), Group::new(right)]);
        let mut pivots = snap.pivots.clone();
        pivots.splice(idx..=idx, [snap.pivots[idx], right_pivot]);
        let next = Snapshot::build(groups, pivots);
        *self.snapshot.write() = next;
        self.recorder.retrained(t0, keys);
        self.recorder.event(Event::SplitNode);
    }

    fn insert_impl(&self, key: Key, value: Value) -> Option<Value> {
        loop {
            let snap = self.snapshot();
            let group = Arc::clone(snap.group_for(key));
            let mut split_needed = false;
            let result = {
                let mut d = group.data.write();
                if group.retired.load(Ordering::Acquire) {
                    None // retry
                } else {
                    // Update in place when present.
                    if let Ok(i) = d.buffer.binary_search_by_key(&key, |kv| kv.0) {
                        Some(Some(std::mem::replace(&mut d.buffer[i].1, value)))
                    } else if let Some(i) = d.position_in_sorted(key) {
                        Some(Some(std::mem::replace(&mut d.sorted[i].1, value)))
                    } else {
                        // Fresh key: buffer it.
                        let pos = lower_bound_kv(&d.buffer, key);
                        d.buffer.insert(pos, (key, value));
                        if d.buffer.len() >= self.config.buffer_size {
                            let t0 = Instant::now();
                            let n = d.len() as u64;
                            d.compact();
                            self.recorder.retrained(t0, n);
                            self.recorder.event(Event::BufferFlush);
                        }
                        if d.sorted.len() + d.buffer.len() > self.config.max_group_size {
                            split_needed = true;
                        }
                        Some(None)
                    }
                }
            };
            if let Some(old) = result {
                if split_needed {
                    self.split_group(&group);
                }
                if old.is_none() {
                    self.len.fetch_add(1, Ordering::Relaxed);
                }
                return old;
            }
            // Retired: the splitter holds the structure lock and
            // has not installed the fresh snapshot yet. Yield so
            // it can finish instead of spinning on the old
            // snapshot (livelock found by the loom model).
            li_sync::thread::yield_now();
        }
    }

    fn get_impl(&self, key: Key) -> Option<Value> {
        loop {
            let snap = self.snapshot();
            let group = snap.group_for(key);
            let d = group.data.read();
            if group.retired.load(Ordering::Acquire) {
                drop(d);
                li_sync::thread::yield_now();
                continue;
            }
            return d.get(key);
        }
    }

    fn remove_impl(&self, key: Key) -> Option<Value> {
        loop {
            let snap = self.snapshot();
            let group = Arc::clone(snap.group_for(key));
            let mut d = group.data.write();
            if group.retired.load(Ordering::Acquire) {
                drop(d);
                li_sync::thread::yield_now();
                continue;
            }
            if let Ok(i) = d.buffer.binary_search_by_key(&key, |kv| kv.0) {
                let old = d.buffer.remove(i).1;
                self.len.fetch_sub(1, Ordering::Relaxed);
                return Some(old);
            }
            if let Some(i) = d.position_in_sorted(key) {
                let old = d.sorted.remove(i).1;
                // Positions after i shifted; widen the model error bound.
                d.err += 1;
                self.len.fetch_sub(1, Ordering::Relaxed);
                return Some(old);
            }
            return None;
        }
    }
}

impl Default for XIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl Index for XIndex {
    fn name(&self) -> &'static str {
        "XIndex"
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed) as usize
    }

    fn get(&self, key: Key) -> Option<Value> {
        self.get_impl(key)
    }

    fn index_size_bytes(&self) -> usize {
        let snap = self.snapshot();
        let mut bytes = snap.root.size_bytes() + snap.pivots.len() * core::mem::size_of::<Key>();
        for g in &snap.groups {
            let d = g.data.read();
            bytes += core::mem::size_of::<LinearModel>()
                + d.buffer.capacity() * core::mem::size_of::<KeyValue>()
                + 64;
        }
        bytes
    }

    fn data_size_bytes(&self) -> usize {
        let snap = self.snapshot();
        snap.groups
            .iter()
            .map(|g| g.data.read().sorted.capacity() * core::mem::size_of::<KeyValue>())
            .sum()
    }

    fn depth_stats(&self) -> Option<&dyn DepthStats> {
        Some(self)
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    fn native_writer(&self) -> Option<&dyn NativeWriter> {
        Some(self)
    }
}

/// XIndex's fine-grained internal locking makes `&self` writes safe, so a
/// router holding only a read lock on its cell may write through this
/// surface (the paper's Table I "concurrent writes" column).
impl NativeWriter for XIndex {
    fn insert(&self, key: Key, value: Value) -> Option<Value> {
        self.insert_impl(key, value)
    }

    fn remove(&self, key: Key) -> Option<Value> {
        self.remove_impl(key)
    }
}

impl ConcurrentIndex for XIndex {
    fn get(&self, key: Key) -> Option<Value> {
        self.get_impl(key)
    }

    fn insert(&self, key: Key, value: Value) -> Option<Value> {
        self.insert_impl(key, value)
    }

    fn remove(&self, key: Key) -> Option<Value> {
        self.remove_impl(key)
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed) as usize
    }
}

impl UpdatableIndex for XIndex {
    fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
        self.insert_impl(key, value)
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        self.remove_impl(key)
    }
}

impl OrderedIndex for XIndex {
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        if lo > hi {
            return;
        }
        let snap = self.snapshot();
        let start = snap.root.locate(lo);
        for (i, group) in snap.groups.iter().enumerate().skip(start) {
            if i > start && snap.pivots[i] > hi {
                break;
            }
            let d = group.data.read();
            // Merge the group's sorted run and buffer within [lo, hi].
            let mut si = lower_bound_kv(&d.sorted, lo);
            let mut bi = lower_bound_kv(&d.buffer, lo);
            loop {
                let take_sorted = match (d.sorted.get(si), d.buffer.get(bi)) {
                    (Some(a), Some(b)) => a.0 < b.0,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                let kv = if take_sorted {
                    let kv = d.sorted[si];
                    si += 1;
                    kv
                } else {
                    let kv = d.buffer[bi];
                    bi += 1;
                    kv
                };
                if kv.0 > hi {
                    break;
                }
                out.push(kv);
            }
        }
    }
}

impl BulkBuildIndex for XIndex {
    fn build(data: &[KeyValue]) -> Self {
        Self::build_with(XIndexConfig::default(), data)
    }
}

impl DepthStats for XIndex {
    fn avg_depth(&self) -> f64 {
        // Two-layer RMI root + group = 3 hops.
        3.0
    }

    fn leaf_count(&self) -> usize {
        self.group_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    use std::collections::BTreeMap;

    fn dataset(n: usize, seed: u64) -> Vec<KeyValue> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys: Vec<Key> = (0..n * 11 / 10 + 8).map(|_| rng.random()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.truncate(n);
        keys.into_iter().enumerate().map(|(i, k)| (k, i as u64)).collect()
    }

    #[test]
    fn build_and_get() {
        let data = dataset(100_000, 1);
        let x = XIndex::build(&data);
        assert_eq!(Index::len(&x), data.len());
        assert!(x.group_count() > 1);
        for &(k, v) in data.iter().step_by(97) {
            assert_eq!(Index::get(&x, k), Some(v), "key {k}");
        }
        assert_eq!(Index::get(&x, 1), data.iter().find(|kv| kv.0 == 1).map(|kv| kv.1));
    }

    #[test]
    fn single_threaded_inserts_match_model() {
        let data = dataset(10_000, 2);
        let mut x = XIndex::build(&data);
        let rec = Recorder::enabled();
        x.set_recorder(rec.clone());
        let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..30_000u64 {
            let k = rng.random();
            assert_eq!(UpdatableIndex::insert(&mut x, k, i), model.insert(k, i));
        }
        assert_eq!(Index::len(&x), model.len());
        for (&k, &v) in model.iter().step_by(149) {
            assert_eq!(Index::get(&x, k), Some(v));
        }
        assert!(rec.event_count(Event::Retrain) > 0, "compactions must be recorded");
    }

    #[test]
    fn removes_match_model() {
        let data = dataset(5_000, 4);
        let mut x = XIndex::build(&data);
        let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
        let keys: Vec<Key> = model.keys().copied().collect();
        for &k in keys.iter().step_by(2) {
            assert_eq!(UpdatableIndex::remove(&mut x, k), model.remove(&k));
            assert_eq!(UpdatableIndex::remove(&mut x, k), None);
        }
        assert_eq!(Index::len(&x), model.len());
        for (&k, &v) in model.iter().step_by(53) {
            assert_eq!(Index::get(&x, k), Some(v));
        }
    }

    #[test]
    fn range_merges_buffer_and_sorted() {
        let data: Vec<KeyValue> = (0..10_000u64).map(|i| (i * 10, i)).collect();
        let mut x = XIndex::build(&data);
        UpdatableIndex::insert(&mut x, 15, 999);
        UpdatableIndex::insert(&mut x, 25, 998);
        let got = x.range_vec(10, 30);
        assert_eq!(got, vec![(10, 1), (15, 999), (20, 2), (25, 998), (30, 3)]);
    }

    #[test]
    fn range_matches_model_after_churn() {
        let data = dataset(20_000, 5);
        let mut x = XIndex::build(&data);
        let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
        let mut rng = StdRng::seed_from_u64(6);
        for i in 0..20_000u64 {
            let k = rng.random();
            UpdatableIndex::insert(&mut x, k, i);
            model.insert(k, i);
        }
        for _ in 0..30 {
            let lo: Key = rng.random();
            let hi = lo.saturating_add(rng.random::<u64>() >> 4);
            let got = x.range_vec(lo, hi);
            let expect: Vec<KeyValue> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let data = dataset(50_000, 7);
        let x = Arc::new(XIndex::build(&data));
        let mut handles = Vec::new();
        // 4 writer threads insert disjoint fresh keys; 4 readers hammer
        // the loaded keys.
        for t in 0..4u64 {
            let x = Arc::clone(&x);
            handles.push(li_sync::thread::spawn(move || {
                for i in 0..10_000u64 {
                    let k = (1u64 << 63) | (t << 40) | i;
                    ConcurrentIndex::insert(&*x, k, i);
                }
            }));
        }
        for t in 0..4u64 {
            let x = Arc::clone(&x);
            let data = data.clone();
            handles.push(li_sync::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + t);
                for _ in 0..20_000 {
                    let &(k, v) = &data[rng.random_range(0..data.len())];
                    assert_eq!(ConcurrentIndex::get(&*x, k), Some(v), "reader lost key {k}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ConcurrentIndex::len(&*x), 50_000 + 40_000);
        for t in 0..4u64 {
            for i in (0..10_000u64).step_by(501) {
                let k = (1u64 << 63) | (t << 40) | i;
                assert_eq!(ConcurrentIndex::get(&*x, k), Some(i));
            }
        }
    }

    #[test]
    fn concurrent_same_region_inserts() {
        // All threads hammer one key region, forcing compactions and
        // splits under contention.
        let mut x = XIndex::build_with(
            XIndexConfig { group_size: 256, buffer_size: 32, max_group_size: 512 },
            &(0..1_000u64).map(|i| (i * 1_000, i)).collect::<Vec<_>>(),
        );
        let rec = Recorder::enabled();
        Index::set_recorder(&mut x, rec.clone());
        let x = Arc::new(x);
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let x = Arc::clone(&x);
            handles.push(li_sync::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                for i in 0..5_000u64 {
                    let k = rng.random_range(0..1_000_000u64);
                    ConcurrentIndex::insert(&*x, k, t * 100_000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every loaded key must still be present with SOME value.
        for i in (0..1_000u64).step_by(37) {
            assert!(ConcurrentIndex::get(&*x, i * 1_000).is_some(), "lost {}", i * 1_000);
        }
        assert!(x.group_count() > 4, "splits should have happened");
        assert!(rec.event_count(Event::Retrain) > 0);
        assert!(rec.event_count(Event::SplitNode) > 0);
    }

    #[test]
    fn empty() {
        let x = XIndex::new();
        assert_eq!(Index::len(&x), 0);
        assert_eq!(Index::get(&x, 5), None);
        let mut x = x;
        assert_eq!(UpdatableIndex::remove(&mut x, 5), None);
        UpdatableIndex::insert(&mut x, 5, 50);
        assert_eq!(Index::get(&x, 5), Some(50));
    }
}
