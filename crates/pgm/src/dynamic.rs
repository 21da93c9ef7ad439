//! Dynamic PGM-Index: the logarithmic method (Overmars; §II-B2).
//!
//! Levels `S_0, S_1, …` hold `0` or up to `BASE·2^i` pairs, each level an
//! independent [`StaticPgm`] whose payload is `Option<Value>` (`None` = a
//! tombstone). An insert finds the first level whose capacity can absorb
//! all smaller levels plus the new pair, merges them (newest version wins,
//! like an LSM compaction) and rebuilds that one level — PGM's "retrain"
//! operation, counted in [`DynamicPgm::stats`]. Deletes insert tombstones
//! that are dropped when they reach the top occupied level.

use std::time::Instant;

use li_core::pieces::retrain::RetrainStats;
use li_core::telemetry::{Event, OpKind, Recorder};
use li_core::traits::{BulkBuildIndex, DepthStats, Index, OrderedIndex, UpdatableIndex};
use li_core::{Key, KeyValue, Value};

use crate::statik::{PgmConfig, StaticPgm};

/// Capacity of level 0.
const BASE: usize = 128;

/// A level's payload: the live value, or `None` for a tombstone.
type Entry = Option<Value>;
type Level = StaticPgm<Entry>;

/// The updatable PGM-Index.
pub struct DynamicPgm {
    /// levels[i] holds up to BASE << i pairs; None = empty.
    levels: Vec<Option<Level>>,
    config: PgmConfig,
    len: usize,
    stats: RetrainStats,
    recorder: Recorder,
}

impl Default for DynamicPgm {
    fn default() -> Self {
        Self::new()
    }
}

impl DynamicPgm {
    pub fn new() -> Self {
        Self::with_config(PgmConfig::default())
    }

    pub fn with_config(config: PgmConfig) -> Self {
        DynamicPgm {
            levels: Vec::new(),
            config,
            len: 0,
            stats: RetrainStats::default(),
            recorder: Recorder::disabled(),
        }
    }

    /// Retrain counters (Fig. 18 (b)).
    pub fn stats(&self) -> RetrainStats {
        self.stats
    }

    fn cap(i: usize) -> usize {
        BASE << i
    }

    /// Inserts an entry (live or tombstone) via the logarithmic method.
    fn push_entry(&mut self, key: Key, entry: Entry) {
        let t0 = Instant::now();
        // Gather levels 0..j (inclusive of the first level that fits).
        let mut total = 1usize;
        let mut target = 0usize;
        loop {
            if target >= self.levels.len() {
                self.levels.push(None);
            }
            match &self.levels[target] {
                None if total <= Self::cap(target) => break,
                None => {
                    target += 1;
                }
                Some(level) => {
                    total += level.router().keys().len();
                    target += 1;
                }
            }
        }
        // Merge levels 0..target (newest = lowest level wins) under the
        // brand-new entry, newest of all.
        let mut merged: Vec<(Key, Entry)> = vec![(key, entry)];
        for i in 0..target {
            if let Some(level) = self.levels[i].take() {
                merged = merge_newest_wins(merged.into_iter(), level.iter());
            }
        }
        let keys_retrained = total as u64;
        // Tombstones can be dropped only when nothing older remains below,
        // i.e. when no deeper level is occupied.
        let deeper_occupied = self.levels[target + 1..].iter().any(Option::is_some);
        if !deeper_occupied {
            merged.retain(|&(_, e)| e.is_some());
        }
        if !merged.is_empty() {
            let (keys, payload) = merged.into_iter().unzip();
            self.levels[target] = Some(StaticPgm::from_columns(self.config, keys, payload));
        }
        let elapsed = t0.elapsed();
        self.stats.record_retrain(elapsed, keys_retrained);
        self.recorder.event(Event::Retrain);
        self.recorder
            .record_ns(OpKind::Retrain, elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
        if keys_retrained > 1 {
            // Existing levels were combined LSM-style, not just placed.
            self.recorder.event(Event::DeltaMerge);
        }
    }

    /// The newest level's entry for `key`, tombstones included.
    fn lookup_entry(&self, key: Key) -> Option<Entry> {
        self.levels.iter().flatten().find_map(|l| l.find(key))
    }
}

/// Merges two key-sorted runs; on equal keys `newer` wins.
fn merge_newest_wins(
    newer: impl Iterator<Item = (Key, Entry)>,
    older: impl Iterator<Item = (Key, Entry)>,
) -> Vec<(Key, Entry)> {
    let (mut newer, mut older) = (newer.peekable(), older.peekable());
    let mut out = Vec::with_capacity(newer.size_hint().0 + older.size_hint().0);
    while let Some(&(nk, _)) = newer.peek() {
        // Older keys below the next newer one go first; an equal older key
        // is shadowed.
        while let Some(o) = older.next_if(|o| o.0 < nk) {
            out.push(o);
        }
        older.next_if(|o| o.0 == nk);
        out.extend(newer.next());
    }
    out.extend(older);
    out
}

impl Index for DynamicPgm {
    fn name(&self) -> &'static str {
        "PGM"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, key: Key) -> Option<Value> {
        self.lookup_entry(key)?
    }

    fn index_size_bytes(&self) -> usize {
        self.levels.iter().flatten().map(|l| l.router().model_bytes()).sum()
    }

    fn data_size_bytes(&self) -> usize {
        self.levels.iter().flatten().map(StaticPgm::column_bytes).sum()
    }

    fn depth_stats(&self) -> Option<&dyn DepthStats> {
        Some(self)
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }
}

impl UpdatableIndex for DynamicPgm {
    fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
        self.stats.inserts += 1;
        let old = self.get(key);
        self.push_entry(key, Some(value));
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        let old = self.get(key)?;
        self.push_entry(key, None);
        self.len -= 1;
        Some(old)
    }
}

impl OrderedIndex for DynamicPgm {
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        if lo > hi {
            return;
        }
        // Merge all levels, newest wins, tombstones suppressed.
        let mut merged: Vec<(Key, Entry)> = Vec::new();
        for level in self.levels.iter().flatten() {
            merged = merge_newest_wins(merged.into_iter(), level.range_iter(lo, hi));
        }
        out.extend(merged.into_iter().filter_map(|(k, e)| Some((k, e?))));
    }
}

impl BulkBuildIndex for DynamicPgm {
    fn build(data: &[KeyValue]) -> Self {
        let mut d = DynamicPgm::new();
        if data.is_empty() {
            return d;
        }
        // Place everything in the smallest level that fits.
        let mut target = 0usize;
        while Self::cap(target) < data.len() {
            target += 1;
        }
        d.levels.resize_with(target + 1, || None);
        let (keys, payload) = data.iter().map(|&(k, v)| (k, Some(v))).unzip();
        d.levels[target] = Some(StaticPgm::from_columns(d.config, keys, payload));
        d.len = data.len();
        d
    }
}

impl DepthStats for DynamicPgm {
    fn avg_depth(&self) -> f64 {
        // Weighted by level size: expected PGM height consulted.
        let (mut total, mut weighted) = (0usize, 0.0);
        for level in self.levels.iter().flatten() {
            let n = level.router().keys().len();
            total += n;
            weighted += level.height() as f64 * n as f64;
        }
        if total == 0 {
            0.0
        } else {
            weighted / total as f64
        }
    }

    fn leaf_count(&self) -> usize {
        self.levels.iter().flatten().map(StaticPgm::segment_count).sum()
    }

    fn retrain_stats(&self) -> Option<RetrainStats> {
        Some(self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_many() {
        let mut d = DynamicPgm::new();
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..20_000u64 {
            let k = rng.random_range(0..100_000u64);
            assert_eq!(d.insert(k, i), model.insert(k, i), "insert {k}");
        }
        assert_eq!(d.len(), model.len());
        for (&k, &v) in model.iter().step_by(31) {
            assert_eq!(d.get(k), Some(v));
        }
        assert!(d.stats().count > 0, "merges must have been counted");
    }

    #[test]
    fn remove_with_tombstones() {
        let mut d = DynamicPgm::new();
        for k in 0..5_000u64 {
            d.insert(k, k * 2);
        }
        for k in (0..5_000u64).step_by(2) {
            assert_eq!(d.remove(k), Some(k * 2), "remove {k}");
            assert_eq!(d.get(k), None);
            assert_eq!(d.remove(k), None);
        }
        assert_eq!(d.len(), 2_500);
        // Odd keys still present (step 500 keeps parity odd).
        for k in (1..5_000u64).step_by(500) {
            assert_eq!(d.get(k), Some(k * 2));
        }
    }

    #[test]
    fn reinsert_after_remove() {
        let mut d = DynamicPgm::new();
        d.insert(42, 1);
        assert_eq!(d.remove(42), Some(1));
        assert_eq!(d.insert(42, 2), None);
        assert_eq!(d.get(42), Some(2));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn bulk_build_then_mutate() {
        let data: Vec<KeyValue> = (0..50_000u64).map(|i| (i * 4, i)).collect();
        let mut d = DynamicPgm::build(&data);
        assert_eq!(d.len(), data.len());
        for &(k, v) in data.iter().step_by(233) {
            assert_eq!(d.get(k), Some(v));
        }
        for i in 0..5_000u64 {
            d.insert(i * 4 + 1, i);
        }
        assert_eq!(d.len(), 55_000);
        assert_eq!(d.get(5), Some(1));
        assert_eq!(d.get(4), Some(1));
    }

    #[test]
    fn range_merges_levels() {
        let mut d = DynamicPgm::new();
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..8_000u64 {
            let k = rng.random_range(0..50_000u64);
            d.insert(k, i);
            model.insert(k, i);
            if i % 7 == 0 {
                let dk = rng.random_range(0..50_000u64);
                assert_eq!(d.remove(dk), model.remove(&dk), "remove {dk}");
            }
        }
        for _ in 0..30 {
            let lo = rng.random_range(0..50_000u64);
            let hi = lo + rng.random_range(0..5_000u64);
            let got = d.range_vec(lo, hi);
            let expect: Vec<KeyValue> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, expect, "range {lo}..={hi}");
        }
    }

    #[test]
    fn update_value() {
        let mut d = DynamicPgm::new();
        assert_eq!(d.insert(9, 1), None);
        assert_eq!(d.insert(9, 2), Some(1));
        assert_eq!(d.len(), 1);
        assert_eq!(d.get(9), Some(2));
        assert_eq!(d.range_vec(0, 100), vec![(9, 2)]);
    }

    #[test]
    fn empty() {
        let d = DynamicPgm::new();
        assert!(d.is_empty());
        assert_eq!(d.get(1), None);
        assert!(d.range_vec(0, u64::MAX).is_empty());
        let d = DynamicPgm::build(&[]);
        assert!(d.is_empty());
    }

    #[test]
    fn amortized_retrain_profile() {
        // The logarithmic method: many small merges, few big ones.
        let mut d = DynamicPgm::new();
        for k in 0..10_000u64 {
            d.insert(k * 3, k);
        }
        let s = d.stats();
        assert_eq!(s.inserts, 10_000);
        assert_eq!(s.count, 10_000, "every insert triggers one (usually tiny) merge");
        // Amortised cost must stay logarithmic: total keys touched across
        // all merges is O(n log n), far below the quadratic worst case.
        assert!(
            s.keys_retrained < 10_000 * 20,
            "keys retrained {} suggests quadratic behaviour",
            s.keys_retrained
        );
    }

    #[test]
    fn level_schedule_is_pinned() {
        // Values measured before the levels were rebuilt on the shared LRS:
        // level capacities, target-level choice and the tombstone-drop rule
        // decide every one of them.
        let data: Vec<KeyValue> = (0..10_000u64).map(|i| (i * 16, i)).collect();
        let mut d = DynamicPgm::build(&data);
        for i in 0..5_000u64 {
            d.insert(i * 48 + 7, i);
        }
        for i in (0..5_000u64).step_by(5) {
            assert_eq!(d.remove(i * 48 + 7), Some(i));
        }
        let s = d.stats();
        assert_eq!((s.count, s.keys_retrained, s.inserts), (6_000, 88_688, 5_000));
        assert_eq!(d.len(), 14_000);
        assert_eq!(d.leaf_count(), 10);
    }

    #[test]
    fn every_key_stored_once() {
        let data: Vec<KeyValue> = (0..100_000u64).map(|i| (i * 9 + (i % 7), i)).collect();
        let per_key = |idx: &dyn Index| {
            (idx.index_size_bytes() + idx.data_size_bytes()) as f64 / idx.len() as f64
        };
        // 8 B key + 8 B value; a level's tombstone-capable payload is 16 B.
        assert!(per_key(&StaticPgm::build(&data)) <= 16.1);
        assert!(per_key(&DynamicPgm::build(&data)) <= 24.1);
    }

    #[test]
    fn merge_newest_wins_cases() {
        fn run(pairs: &[(Key, Entry)]) -> impl Iterator<Item = (Key, Entry)> + '_ {
            pairs.iter().copied()
        }
        let newer = [(2, Some(20)), (4, None), (9, Some(90))];
        let older = [(1, Some(1)), (2, Some(2)), (4, Some(4)), (5, None)];
        assert_eq!(
            merge_newest_wins(run(&newer), run(&older)),
            vec![(1, Some(1)), (2, Some(20)), (4, None), (5, None), (9, Some(90))],
            "newer value wins, newer tombstone shadows the older live entry"
        );
        assert_eq!(merge_newest_wins(run(&newer), run(&[])), newer);
        assert_eq!(merge_newest_wins(run(&[]), run(&older)), older);
        assert!(merge_newest_wins(run(&[]), run(&[])).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn matches_btreemap(ops in proptest::collection::vec((0u64..800, 0u64..100, proptest::bool::ANY), 0..400)) {
            let mut d = DynamicPgm::new();
            let mut model = BTreeMap::new();
            for &(k, v, ins) in &ops {
                if ins {
                    proptest::prop_assert_eq!(d.insert(k, v), model.insert(k, v));
                } else {
                    proptest::prop_assert_eq!(d.remove(k), model.remove(&k));
                }
            }
            proptest::prop_assert_eq!(d.len(), model.len());
            let got = d.range_vec(0, u64::MAX);
            let expect: Vec<KeyValue> = model.iter().map(|(&k, &v)| (k, v)).collect();
            proptest::prop_assert_eq!(got, expect);
        }
    }
}

#[cfg(test)]
mod interleaved_tests {
    use super::*;

    #[test]
    fn probes_stay_correct_between_removes() {
        let mut d = DynamicPgm::new();
        for k in 0..5_000u64 {
            d.insert(k, k * 2);
        }
        for k in 0..5_000u64 {
            assert_eq!(d.get(k), Some(k * 2), "missing {k} right after inserts");
        }
        for k in (0..5_000u64).step_by(2) {
            assert_eq!(d.remove(k), Some(k * 2), "remove {k}");
            for probe in [k + 1, k + 2, k + 3, 4_999] {
                if probe < 5_000 && (probe % 2 == 1 || probe > k) {
                    assert_eq!(
                        d.get(probe),
                        Some(probe * 2),
                        "probe {probe} lost after remove({k})"
                    );
                }
            }
        }
    }
}
