//! The static PGM-Index.

use li_core::approx::optpla::segment_opt_pla;
use li_core::search::lower_bound_kv;
use li_core::traits::{BulkBuildIndex, DepthStats, Index, OrderedIndex, TwoPhaseLookup};
use li_core::{Key, KeyValue, LinearModel, Value};

/// Build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PgmConfig {
    /// Max error of the data-level segments.
    pub epsilon: u64,
    /// Max error of the internal levels (PGM's `EpsilonRecursive`).
    pub epsilon_recursive: u64,
}

impl Default for PgmConfig {
    fn default() -> Self {
        PgmConfig { epsilon: 64, epsilon_recursive: 4 }
    }
}

#[derive(Clone, Copy)]
struct Seg {
    model: LinearModel,
    err: u32,
    start: u32,
    len: u32,
}

struct Level {
    seg_keys: Vec<Key>,
    segs: Vec<Seg>,
}

impl Level {
    fn from_keys(keys: &[Key], epsilon: u64) -> Self {
        let pieces = segment_opt_pla(keys, epsilon);
        Level {
            seg_keys: pieces.iter().map(|s| s.first_key).collect(),
            segs: pieces
                .iter()
                .map(|s| Seg {
                    model: s.model,
                    err: s.max_error as u32,
                    start: s.start as u32,
                    len: s.len as u32,
                })
                .collect(),
        }
    }

    /// Position of the last element `<= key` in the level below, searching
    /// only within segment `seg`'s clamped window.
    #[inline]
    fn locate_below(&self, seg: usize, key: Key, below_keys: &[Key]) -> usize {
        let s = self.segs[seg];
        let p = s
            .model
            .predict_clamped(key, below_keys.len())
            .clamp(s.start as usize, (s.start + s.len - 1) as usize);
        li_core::search::bounded_last_le(below_keys, key, p, s.err as usize + 2)
    }
}

/// The static PGM-Index.
pub struct StaticPgm {
    data: Vec<KeyValue>,
    /// Bottom-up: `levels[0]` segments the data; deeper levels segment the
    /// previous level's first keys; the last level has one segment.
    levels: Vec<Level>,
    /// Data keys only (parallel to `data`), kept for bounded searches.
    keys: Vec<Key>,
}

impl StaticPgm {
    pub fn build_with(config: PgmConfig, data: &[KeyValue]) -> Self {
        let keys: Vec<Key> = data.iter().map(|kv| kv.0).collect();
        let mut levels = Vec::new();
        if !keys.is_empty() {
            let mut level = Level::from_keys(&keys, config.epsilon);
            loop {
                let done = level.segs.len() <= 1;
                let next_keys = level.seg_keys.clone();
                levels.push(level);
                if done {
                    break;
                }
                level = Level::from_keys(&next_keys, config.epsilon_recursive);
            }
        }
        StaticPgm { data: data.to_vec(), levels, keys }
    }

    /// Data-level segment containing `key` (last segment whose first key
    /// is `<= key`, clamped to 0).
    fn segment_of(&self, key: Key) -> usize {
        let top = self.levels.len() - 1;
        let mut seg = 0usize;
        for depth in (1..=top).rev() {
            let below = &self.levels[depth - 1].seg_keys;
            seg = self.levels[depth].locate_below(seg, key, below);
        }
        seg
    }

    /// Lower-bound position of `key` in `data`.
    fn lower_bound_pos(&self, key: Key) -> usize {
        if self.keys.is_empty() {
            return 0;
        }
        if key <= self.keys[0] {
            return 0;
        }
        let seg = self.segment_of(key);
        let last_le = self.levels[0].locate_below(seg, key, &self.keys);
        // Convert "last <= key" into lower bound.
        if self.keys[last_le] == key {
            last_le
        } else {
            last_le + 1
        }
    }

    /// Number of data-level segments.
    pub fn segment_count(&self) -> usize {
        self.levels.first().map_or(0, |l| l.segs.len())
    }

    /// Number of levels including the data level.
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Iterates all pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = KeyValue> + '_ {
        self.data.iter().copied()
    }

    /// Borrow of the underlying sorted data.
    pub fn data(&self) -> &[KeyValue] {
        &self.data
    }
}

impl Index for StaticPgm {
    fn name(&self) -> &'static str {
        "PGM"
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn get(&self, key: Key) -> Option<Value> {
        if self.data.is_empty() {
            return None;
        }
        let i = self.lower_bound_pos(key);
        match self.data.get(i) {
            Some(&(k, v)) if k == key => Some(v),
            _ => None,
        }
    }

    fn index_size_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| {
                l.seg_keys.len() * core::mem::size_of::<Key>()
                    + l.segs.len() * core::mem::size_of::<Seg>()
            })
            .sum()
    }

    fn data_size_bytes(&self) -> usize {
        // Sorted pair array plus the separate key array used for bounded
        // searches (PGM indexes a contiguous key array).
        self.data.len() * core::mem::size_of::<KeyValue>()
            + self.keys.len() * core::mem::size_of::<Key>()
    }

    fn depth_stats(&self) -> Option<&dyn DepthStats> {
        Some(self)
    }
}

impl OrderedIndex for StaticPgm {
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        if self.data.is_empty() || lo > hi {
            return;
        }
        let mut i = self.lower_bound_pos(lo);
        while let Some(&(k, v)) = self.data.get(i) {
            if k > hi {
                break;
            }
            out.push((k, v));
            i += 1;
        }
    }
}

impl BulkBuildIndex for StaticPgm {
    fn build(data: &[KeyValue]) -> Self {
        Self::build_with(PgmConfig::default(), data)
    }
}

impl DepthStats for StaticPgm {
    fn avg_depth(&self) -> f64 {
        self.levels.len() as f64
    }

    fn leaf_count(&self) -> usize {
        self.segment_count()
    }
}

impl TwoPhaseLookup for StaticPgm {
    fn locate_leaf(&self, key: Key) -> usize {
        if self.data.is_empty() {
            0
        } else {
            self.segment_of(key)
        }
    }

    fn search_leaf(&self, leaf: usize, key: Key) -> Option<Value> {
        let s = self.levels[0].segs.get(leaf)?;
        let slice = &self.data[s.start as usize..(s.start + s.len) as usize];
        let i = lower_bound_kv(slice, key);
        match slice.get(i) {
            Some(&(k, v)) if k == key => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn dataset(n: usize, seed: u64) -> Vec<KeyValue> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys: Vec<Key> = (0..n * 11 / 10 + 8).map(|_| rng.random()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.truncate(n);
        keys.into_iter().enumerate().map(|(i, k)| (k, i as u64)).collect()
    }

    #[test]
    fn build_and_get_all() {
        let data = dataset(200_000, 1);
        let pgm = StaticPgm::build(&data);
        assert!(pgm.height() >= 2);
        for &(k, v) in data.iter().step_by(97) {
            assert_eq!(pgm.get(k), Some(v), "key {k}");
        }
    }

    #[test]
    fn misses_exhaustive() {
        let data: Vec<KeyValue> = (0..50_000u64).map(|i| (i * 7 + 1, i)).collect();
        let pgm = StaticPgm::build(&data);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30_000 {
            let k: Key = rng.random::<u64>() % 400_000;
            let expect = data.binary_search_by_key(&k, |kv| kv.0).ok().map(|i| data[i].1);
            assert_eq!(pgm.get(k), expect, "key {k}");
        }
        assert_eq!(pgm.get(0), None);
        assert_eq!(pgm.get(u64::MAX), None);
    }

    #[test]
    fn epsilon_controls_segments() {
        let data = dataset(100_000, 3);
        let tight = StaticPgm::build_with(PgmConfig { epsilon: 8, epsilon_recursive: 4 }, &data);
        let loose = StaticPgm::build_with(PgmConfig { epsilon: 512, epsilon_recursive: 4 }, &data);
        assert!(loose.segment_count() < tight.segment_count());
        for &(k, v) in data.iter().step_by(499) {
            assert_eq!(tight.get(k), Some(v));
            assert_eq!(loose.get(k), Some(v));
        }
    }

    #[test]
    fn range_scan() {
        let data: Vec<KeyValue> = (0..30_000u64).map(|i| (i * 2, i)).collect();
        let pgm = StaticPgm::build(&data);
        assert_eq!(pgm.range_vec(7, 13), vec![(8, 4), (10, 5), (12, 6)]);
        let all = pgm.range_vec(0, u64::MAX);
        assert_eq!(all.len(), data.len());
        assert!(pgm.range_vec(60_001, u64::MAX).is_empty());
    }

    #[test]
    fn empty_single() {
        let pgm = StaticPgm::build(&[]);
        assert_eq!(pgm.get(5), None);
        assert!(pgm.range_vec(0, u64::MAX).is_empty());
        let pgm = StaticPgm::build(&[(3, 30)]);
        assert_eq!(pgm.get(3), Some(30));
        assert_eq!(pgm.get(2), None);
        assert_eq!(pgm.get(4), None);
    }

    #[test]
    fn extreme_key_magnitudes() {
        let mut keys: Vec<Key> = (0..10_000u64).collect();
        keys.extend((0..10_000u64).map(|i| u64::MAX - 20_000 + i));
        let data: Vec<KeyValue> = keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
        let pgm = StaticPgm::build(&data);
        for &(k, v) in data.iter().step_by(127) {
            assert_eq!(pgm.get(k), Some(v));
        }
        assert_eq!(pgm.get(20_000), None);
    }

    #[test]
    fn two_phase_consistent() {
        let data = dataset(50_000, 5);
        let pgm = StaticPgm::build(&data);
        for &(k, v) in data.iter().step_by(211) {
            let leaf = pgm.locate_leaf(k);
            assert_eq!(pgm.search_leaf(leaf, k), Some(v));
        }
    }

    #[test]
    fn index_far_smaller_than_data() {
        let data = dataset(200_000, 6);
        let pgm = StaticPgm::build(&data);
        assert!(pgm.index_size_bytes() * 10 < pgm.data_size_bytes());
    }
}
