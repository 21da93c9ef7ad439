//! Dynamic PGM-Index: the logarithmic method (Overmars; §II-B2).
//!
//! A sorted insert buffer of at most `BASE` entries, newest of all, absorbs
//! inserts and tombstones; below it levels `S_0, S_1, …` hold `0` or up to
//! `BASE·2^i` pairs, each level an immutable [`StaticPgm`] beside a
//! tombstone bitmap. A full buffer is flushed into the first level whose
//! capacity can absorb it plus every smaller level: they are merged (newest
//! version wins, like an LSM compaction) and that one level is rebuilt —
//! PGM's "retrain" operation, counted in [`DynamicPgm::stats`], once per
//! `BASE` inserts. Deletes insert tombstones that are dropped when they
//! reach the deepest occupied level.

use std::time::Instant;

use li_core::pieces::retrain::RetrainStats;
use li_core::search::exponential_lower_bound;
use li_core::telemetry::{Event, OpKind, Recorder};
use li_core::traits::{BulkBuildIndex, DepthStats, Index, OrderedIndex, UpdatableIndex};
use li_core::{Key, KeyValue, Value};

use crate::statik::{PgmConfig, StaticPgm};

/// Capacity of the insert buffer and of level 0.
const BASE: usize = 128;

/// A stored version of a key: the live value, or `None` for a tombstone.
type Entry = Option<Value>;

/// One immutable sorted run.
struct Level {
    pgm: StaticPgm,
    /// Bit `i` set = entry `i` is a tombstone (its payload slot is unused).
    dead: Vec<u64>,
    /// First and last key, kept here so that a lookup or range outside them
    /// skips the level without touching its columns: runs flushed from
    /// ascending inserts each cover a narrow key window.
    min: Key,
    max: Key,
}

impl Level {
    /// Builds over a key-sorted, distinct run; `None` when it is empty.
    fn from_entries(
        config: PgmConfig,
        entries: impl Iterator<Item = (Key, Entry)>,
    ) -> Option<Level> {
        let mut dead = Vec::new();
        let pairs = entries.enumerate().map(|(i, (k, e))| {
            if i % 64 == 0 {
                dead.push(0u64);
            }
            if let (None, Some(word)) = (e, dead.last_mut()) {
                *word |= 1 << (i % 64);
            }
            (k, e.unwrap_or_default())
        });
        let pgm = StaticPgm::from_pairs(config, pairs);
        let keys = pgm.router().keys();
        let (min, max) = (*keys.first()?, *keys.last()?);
        Some(Level { pgm, dead, min, max })
    }

    fn len(&self) -> usize {
        self.pgm.payload().len()
    }

    /// The entry stored under exactly `key`, tombstones included.
    fn find(&self, key: Key) -> Option<Entry> {
        if key < self.min || key > self.max {
            return None;
        }
        let i = self.pgm.position(key)?;
        Some(self.entry_at(i, *self.pgm.payload().get(i)?))
    }

    fn entry_at(&self, i: usize, value: Value) -> Entry {
        let dead = self.dead.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1);
        (!dead).then_some(value)
    }

    /// Entries with `lo <= key <= hi`, in key order and of known count.
    fn range_iter(&self, lo: Key, hi: Key) -> impl Iterator<Item = (Key, Entry)> + '_ {
        let from = self.pgm.lower_pos(lo);
        let keys = self.pgm.router().keys().get(from..).unwrap_or_default();
        // Gallop to the end: a short range stays in the lines `lo` touched.
        let end = hi.checked_add(1).map_or(keys.len(), |h| exponential_lower_bound(keys, h, 0));
        let keys = keys.get(..end).unwrap_or_default();
        let payload = self.pgm.payload().get(from..).unwrap_or_default();
        keys.iter()
            .zip(payload)
            .enumerate()
            .map(move |(i, (&k, &v))| (k, self.entry_at(from + i, v)))
    }

    fn data_bytes(&self) -> usize {
        self.pgm.column_bytes() + self.dead.len() * core::mem::size_of::<u64>()
    }
}

/// The insert buffer: key-sorted, distinct, fewer than `BASE` entries
/// between operations; newer than every level. Keys and entries are two
/// columns, so the binary search of every probe walks 1 KB of keys rather
/// than 3 KB of pairs.
#[derive(Default)]
struct Buffer {
    keys: Vec<Key>,
    entries: Vec<Entry>,
}

impl Buffer {
    fn len(&self) -> usize {
        self.keys.len()
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Entries from position `from` on, in key order.
    fn iter_from(&self, from: usize) -> impl Iterator<Item = (Key, Entry)> + '_ {
        let keys = self.keys.get(from..).unwrap_or_default();
        let entries = self.entries.get(from..).unwrap_or_default();
        keys.iter().copied().zip(entries.iter().copied())
    }
}

/// The updatable PGM-Index.
pub struct DynamicPgm {
    buffer: Buffer,
    /// levels[i] holds up to BASE << i pairs; None = empty. Lower = newer.
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
            buffer: Buffer::default(),
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

    /// Buffers an entry (live or tombstone) as the newest version of `key`
    /// and returns the live value it shadows: the one probe of an insert or
    /// a remove. A tombstone for a key that is not live is not stored.
    fn push_entry(&mut self, key: Key, entry: Entry) -> Option<Value> {
        let old = match self.buffer.keys.binary_search(&key) {
            Ok(i) => self.buffer.entries.get_mut(i).and_then(|e| std::mem::replace(e, entry)),
            Err(i) => {
                let old = self.lookup_levels(key).flatten();
                if entry.is_some() || old.is_some() {
                    self.buffer.keys.insert(i, key);
                    self.buffer.entries.insert(i, entry);
                }
                old
            }
        };
        if self.buffer.len() >= BASE {
            self.flush_buffer();
        }
        old
    }

    /// Empties the buffer into the levels via the logarithmic method.
    fn flush_buffer(&mut self) {
        let t0 = Instant::now();
        // The first empty level that can hold the buffer plus every level
        // above it.
        let mut total = self.buffer.len();
        let mut target = 0usize;
        loop {
            match self.levels.get(target) {
                None => self.levels.push(None),
                Some(None) if total <= Self::cap(target) => break,
                Some(None) => target += 1,
                Some(Some(level)) => {
                    total += level.len();
                    target += 1;
                }
            }
        }
        // Merge levels 0..target (newest = lowest level wins) under the
        // buffer, newest of all.
        let mut merged: Vec<(Key, Entry)> = self.buffer.iter_from(0).collect();
        self.buffer.keys.clear();
        self.buffer.entries.clear();
        let flushed = merged.len();
        for level in self.levels.iter_mut().take(target).filter_map(Option::take) {
            let mut next = Vec::with_capacity(merged.len() + level.len());
            merge_newest_wins(merged.into_iter(), level.range_iter(0, Key::MAX), |e| next.push(e));
            merged = next;
        }
        // Tombstones can be dropped only when nothing older remains below,
        // i.e. when no deeper level is occupied.
        let deeper_occupied = self.levels.iter().skip(target + 1).any(Option::is_some);
        if !deeper_occupied {
            merged.retain(|e| e.1.is_some());
        }
        if let Some(slot) = self.levels.get_mut(target) {
            *slot = Level::from_entries(self.config, merged.into_iter());
        }
        let elapsed = t0.elapsed();
        self.stats.record_retrain(elapsed, total as u64);
        self.recorder.event(Event::BufferFlush);
        self.recorder.event(Event::Retrain);
        self.recorder
            .record_ns(OpKind::Retrain, elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
        if total > flushed {
            // Existing levels were combined LSM-style, not just placed.
            self.recorder.event(Event::DeltaMerge);
        }
    }

    /// The newest entry for `key`, tombstones included.
    fn lookup_entry(&self, key: Key) -> Option<Entry> {
        match self.buffer.keys.binary_search(&key) {
            Ok(i) => self.buffer.entries.get(i).copied(),
            Err(_) => self.lookup_levels(key),
        }
    }

    /// The newest level entry for `key`; the buffer is not consulted.
    fn lookup_levels(&self, key: Key) -> Option<Entry> {
        self.levels.iter().flatten().find_map(|l| l.find(key))
    }
}

/// Merges two key-sorted runs into `emit`; on equal keys `newer` wins.
fn merge_newest_wins(
    newer: impl Iterator<Item = (Key, Entry)>,
    older: impl Iterator<Item = (Key, Entry)>,
    mut emit: impl FnMut((Key, Entry)),
) {
    let mut older = older.peekable();
    for n in newer {
        // Older keys below the next newer one go first; an equal older key
        // is shadowed.
        while let Some(o) = older.next_if(|o| o.0 < n.0) {
            emit(o);
        }
        older.next_if(|o| o.0 == n.0);
        emit(n);
    }
    older.for_each(emit);
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
        self.levels.iter().flatten().map(|l| l.pgm.router().model_bytes()).sum()
    }

    fn data_size_bytes(&self) -> usize {
        self.buffer.len() * (core::mem::size_of::<Key>() + core::mem::size_of::<Entry>())
            + self.levels.iter().flatten().map(Level::data_bytes).sum::<usize>()
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
        let old = self.push_entry(key, Some(value));
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        let old = self.push_entry(key, None)?;
        self.len -= 1;
        Some(old)
    }
}

impl OrderedIndex for DynamicPgm {
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        if lo > hi {
            return;
        }
        // The runs that hold something in [lo, hi], newest first: the buffer,
        // then the levels. Each is merged under the versions newer than it;
        // the oldest streams straight into `out`, tombstones suppressed.
        let from = self.buffer.keys.partition_point(|&k| k < lo);
        let buffered = self.buffer.iter_from(from).take_while(|e| e.0 <= hi);
        let mut merged: Vec<(Key, Entry)> = buffered.collect();
        let mut runs = self
            .levels
            .iter()
            .flatten()
            .filter(|l| l.min <= hi && lo <= l.max)
            .map(|l| l.range_iter(lo, hi))
            .filter(|run| run.size_hint().0 > 0);
        let mut run = runs.next();
        while let Some(older) = run {
            run = runs.next();
            if run.is_none() {
                merge_newest_wins(merged.drain(..), older, |(k, e)| out.extend(e.map(|v| (k, v))));
            } else {
                let mut next = Vec::with_capacity(merged.len() + older.size_hint().0);
                merge_newest_wins(merged.into_iter(), older, |e| next.push(e));
                merged = next;
            }
        }
        out.extend(merged.into_iter().filter_map(|(k, e)| Some((k, e?))));
    }
}

impl BulkBuildIndex for DynamicPgm {
    fn build(data: &[KeyValue]) -> Self {
        let mut d = DynamicPgm::new();
        // Place everything in the smallest level that fits.
        let mut target = 0usize;
        while Self::cap(target) < data.len() {
            target += 1;
        }
        d.levels.resize_with(target, || None);
        d.levels.push(Level::from_entries(d.config, data.iter().map(|&(k, v)| (k, Some(v)))));
        d.len = data.len();
        d
    }
}

impl DepthStats for DynamicPgm {
    fn avg_depth(&self) -> f64 {
        // Weighted by level size: expected PGM height consulted.
        let (mut total, mut weighted) = (0usize, 0.0);
        for level in self.levels.iter().flatten() {
            total += level.len();
            weighted += level.pgm.height() as f64 * level.len() as f64;
        }
        if total == 0 {
            0.0
        } else {
            weighted / total as f64
        }
    }

    fn leaf_count(&self) -> usize {
        self.levels.iter().flatten().map(|l| l.pgm.segment_count()).sum()
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
        assert!(
            (1..=10_000 / BASE as u64 + 1).contains(&s.count),
            "{} merges: one per full buffer, not one per insert",
            s.count
        );
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
        // Level capacities, target-level choice and the tombstone-drop rule
        // decide every one of these. `count` and `keys_retrained` were
        // 6 000 and 88 688 when every insert and remove merged on its own;
        // now the 6 000 buffered entries flush 46 times (6 000 / BASE),
        // flush k combining 2^tz(k) runs of BASE: 143 · 128 keys. `inserts`
        // and `len` are the caller's; `leaf_count` 10 -> 6 because the same
        // pairs sit in fewer levels (46 = 0b101110: four above the bulk
        // level, where 6 000 single entries had seven) and 112 wait in the
        // buffer.
        let data: Vec<KeyValue> = (0..10_000u64).map(|i| (i * 16, i)).collect();
        let mut d = DynamicPgm::build(&data);
        for i in 0..5_000u64 {
            d.insert(i * 48 + 7, i);
        }
        for i in (0..5_000u64).step_by(5) {
            assert_eq!(d.remove(i * 48 + 7), Some(i));
        }
        let s = d.stats();
        assert_eq!((s.count, s.keys_retrained, s.inserts), (46, 18_304, 5_000));
        assert_eq!((d.len(), d.buffer.len()), (14_000, 112));
        assert_eq!(d.leaf_count(), 6);
        let sizes: Vec<usize> = d.levels.iter().map(|l| l.as_ref().map_or(0, Level::len)).collect();
        assert!(sizes.iter().enumerate().all(|(i, &n)| n <= BASE << i), "{sizes:?}");
    }

    #[test]
    fn every_key_stored_once() {
        let data: Vec<KeyValue> = (0..100_000u64).map(|i| (i * 9 + (i % 7), i)).collect();
        let per_key = |idx: &dyn Index| {
            (idx.index_size_bytes() + idx.data_size_bytes()) as f64 / idx.len() as f64
        };
        // 8 B key + 8 B value; a level adds one tombstone bit per entry.
        assert!(per_key(&StaticPgm::build(&data)) <= 16.1);
        let mut d = DynamicPgm::build(&data);
        assert!(per_key(&d) <= 16.2);
        // The counters cover the buffer and the bitmaps, not just columns.
        let before = d.index_size_bytes() + d.data_size_bytes();
        d.insert(1, 1);
        d.remove(10);
        let buffered = 2 * core::mem::size_of::<(Key, Entry)>();
        assert_eq!(d.index_size_bytes() + d.data_size_bytes(), before + buffered);
        // One tombstone bit per entry, in whole words.
        let level = d.levels.iter().flatten().next().expect("bulk level");
        assert_eq!(level.data_bytes(), 100_000 * 16 + 100_000usize.div_ceil(64) * 8);
        let run = (0..100u64).map(|k| (k, (k != 64).then_some(k)));
        let level = Level::from_entries(d.config, run).expect("non-empty");
        assert_eq!(level.data_bytes(), 100 * 16 + 2 * 8);
        assert!(Level::from_entries(d.config, std::iter::empty()).is_none());
        assert_eq!(
            (level.find(64), level.find(63), level.find(99)),
            (Some(None), Some(Some(63)), Some(Some(99)))
        );
    }

    #[test]
    fn buffer_boundaries() {
        // BASE - 1 inserts stay buffered, the BASE-th flushes, the next one
        // starts a fresh buffer; `len` and every answer hold across the flush.
        for (n, buffered, flushes) in [(BASE - 1, BASE - 1, 0), (BASE, 0, 1), (BASE + 1, 1, 1)] {
            let mut d = DynamicPgm::new();
            for k in 0..n as u64 {
                assert_eq!(d.insert(k * 2, k), None);
            }
            assert_eq!((d.buffer.len(), d.stats().count), (buffered, flushes), "{n} inserts");
            assert_eq!(d.len(), n);
            for k in 0..n as u64 {
                assert_eq!(d.get(k * 2), Some(k));
                assert_eq!(d.get(k * 2 + 1), None);
            }
            let expect: Vec<KeyValue> = (0..n as u64).map(|k| (k * 2, k)).collect();
            assert_eq!(d.range_vec(0, u64::MAX), expect);
        }
    }

    #[test]
    fn buffered_key_is_overwritten_in_place() {
        let mut d = DynamicPgm::new();
        for round in 0..10 * BASE as u64 {
            assert_eq!(d.insert(round % 10, round), round.checked_sub(10));
        }
        assert_eq!((d.buffer.len(), d.len(), d.stats().count), (10, 10, 0));
        // Remove then reinsert inside one buffer: the slot turns tombstone
        // and back.
        assert_eq!(d.remove(3), Some(10 * BASE as u64 - 7));
        assert_eq!((d.get(3), d.remove(3), d.len()), (None, None, 9));
        assert!(!d.range_vec(0, 9).iter().any(|kv| kv.0 == 3));
        assert_eq!(d.insert(3, 77), None);
        assert_eq!((d.get(3), d.buffer.len(), d.len()), (Some(77), 10, 10));
        // A tombstone for a key that is not live is not stored.
        assert_eq!(d.remove(1_000), None);
        assert_eq!(d.buffer.len(), 10);
    }

    #[test]
    fn buffered_tombstone_shadows_a_deep_level() {
        // 4·BASE keys bulk-build into level 2; one flush of other keys
        // occupies level 0 in between.
        let data: Vec<KeyValue> = (0..4 * BASE as u64).map(|i| (i * 10, i)).collect();
        let mut d = DynamicPgm::build(&data);
        for i in 0..BASE as u64 {
            d.insert(i * 10 + 5, i);
        }
        let occupied: Vec<bool> = d.levels.iter().map(Option::is_some).collect();
        assert_eq!((occupied, d.buffer.len()), (vec![true, false, true], 0));
        assert_eq!(d.remove(70), Some(7));
        assert_eq!(d.buffer.iter_from(0).collect::<Vec<_>>(), vec![(70, None)]);
        assert_eq!((d.get(70), d.len()), (None, 5 * BASE - 1));
        assert_eq!(d.range_vec(60, 80), vec![(60, 6), (65, 6), (75, 7), (80, 8)]);
        // The tombstone survives its flush: level 2 still holds the old pair.
        for i in 1..BASE as u64 {
            d.insert(1_000_000 + i, i);
        }
        assert!(d.buffer.is_empty());
        assert_eq!((d.get(70), d.len()), (None, 6 * BASE - 2));
        assert_eq!(d.range_vec(60, 80), vec![(60, 6), (65, 6), (75, 7), (80, 8)]);
    }

    #[test]
    fn range_after_uniform_inserts() {
        // As many uniform inserts as bulk keys: 390 flushes (0b110000110)
        // leave four real runs above the bulk level, every one spanning the
        // key space, so a 100-key range probes and merges five levels where
        // a fresh build streams one.
        let data: Vec<KeyValue> = (0..50_000u64).map(|i| (i * 4, i)).collect();
        let mut d = DynamicPgm::build(&data);
        let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
        for i in 0..50_000u64 {
            let k = (i * 7_919 % 50_000) * 4 + 2;
            assert_eq!(d.insert(k, i), model.insert(k, i));
        }
        let sizes: Vec<usize> = d.levels.iter().map(|l| l.as_ref().map_or(0, Level::len)).collect();
        assert_eq!(sizes, [0, 256, 512, 0, 0, 0, 0, 16_384, 32_768, 50_000]);
        assert_eq!(d.buffer.len(), 80);
        for lo in (0..199_000u64).step_by(1_237) {
            let got = d.range_vec(lo, lo + 199);
            let expect: Vec<KeyValue> = model.range(lo..lo + 200).map(|(&k, &v)| (k, v)).collect();
            assert_eq!((got.len(), &got), (100, &expect), "range from {lo}");
        }
    }

    #[test]
    fn ascending_inserts_leave_disjoint_windows() {
        // The benchmark's insert shape (`perf`'s pool keys, issued in key
        // order between the bulk keys): every flushed run covers its own
        // narrow window, so the min/max skip leaves a lookup at most one
        // level to probe above the bulk level.
        let data: Vec<KeyValue> = (0..50_000u64).map(|i| (i * 4, i)).collect();
        let mut d = DynamicPgm::build(&data);
        for i in 0..30_000u64 {
            d.insert(i * 4 + 2, i);
        }
        let upper: Vec<&Level> = d.levels.iter().flatten().filter(|l| l.len() < 50_000).collect();
        assert_eq!(upper.len(), 5, "234 flushes = 0b11101010");
        for key in (0..200_000u64).step_by(997) {
            let spanning = upper.iter().filter(|l| l.min <= key && key <= l.max).count();
            assert!(spanning <= 1, "key {key} falls inside {spanning} upper levels");
        }
    }

    #[test]
    fn level_bounds_are_inclusive() {
        // The min/max skip must not hide a level's own first or last key,
        // nor a range that only touches one of them.
        let data: Vec<KeyValue> = (10..=20u64).map(|k| (k * 100, k)).collect();
        let mut d = DynamicPgm::build(&data);
        d.insert(500, 5);
        d.insert(2_500, 25);
        for (k, v) in [(1_000, Some(10)), (2_000, Some(20)), (999, None), (2_001, None)] {
            assert_eq!(d.get(k), v, "get {k}");
        }
        assert_eq!(d.range_vec(1_000, 1_000), vec![(1_000, 10)]);
        assert_eq!(d.range_vec(2_000, 2_000), vec![(2_000, 20)]);
        assert_eq!(d.range_vec(0, 1_000), vec![(500, 5), (1_000, 10)]);
        assert_eq!(d.range_vec(2_000, u64::MAX), vec![(2_000, 20), (2_500, 25)]);
        assert!(d.range_vec(2_001, 2_499).is_empty());
        assert_eq!(d.remove(1_000), Some(10));
        assert_eq!(d.remove(2_000), Some(20));
        assert_eq!(d.range_vec(0, u64::MAX).len(), 11);
    }

    #[test]
    fn merge_newest_wins_cases() {
        fn merge(newer: &[(Key, Entry)], older: &[(Key, Entry)]) -> Vec<(Key, Entry)> {
            let mut out = Vec::new();
            merge_newest_wins(newer.iter().copied(), older.iter().copied(), |e| out.push(e));
            out
        }
        let newer = [(2, Some(20)), (4, None), (9, Some(90))];
        let older = [(1, Some(1)), (2, Some(2)), (4, Some(4)), (5, None)];
        assert_eq!(
            merge(&newer, &older),
            vec![(1, Some(1)), (2, Some(20)), (4, None), (5, None), (9, Some(90))],
            "newer value wins, newer tombstone shadows the older live entry"
        );
        assert_eq!(merge(&newer, &[]), newer);
        assert_eq!(merge(&[], &older), older);
        assert!(merge(&[], &[]).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn matches_btreemap(ops in proptest::collection::vec((0u64..5_000, 0u64..100, proptest::bool::ANY), 0..3_000)) {
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
