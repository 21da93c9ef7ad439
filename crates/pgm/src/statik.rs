//! The static PGM-Index: the linear recursive structure piece
//! ([`LrsInner`], which owns the sorted key column) beside one payload
//! column. Keys are stored once, inside the router.

use li_core::pieces::structure::{InnerStructure, LrsInner};
use li_core::traits::{BulkBuildIndex, DepthStats, Index, OrderedIndex, TwoPhaseLookup};
use li_core::{Key, KeyValue, Value};

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

/// The static PGM-Index: also one level of a
/// [`DynamicPgm`](crate::DynamicPgm), which reaches the columns by position
/// so that its tombstone bitmap can sit beside them.
pub struct StaticPgm {
    router: LrsInner,
    /// `payload[i]` belongs to `router.keys()[i]`.
    payload: Vec<Value>,
}

impl StaticPgm {
    pub fn build_with(config: PgmConfig, data: &[KeyValue]) -> Self {
        Self::from_pairs(config, data.iter().copied())
    }

    /// Builds over pairs in key order, keys distinct.
    pub fn from_pairs(config: PgmConfig, pairs: impl Iterator<Item = KeyValue>) -> Self {
        let (keys, payload): (Vec<Key>, Vec<Value>) = pairs.unzip();
        let router = LrsInner::from_keys(keys, config.epsilon, config.epsilon_recursive);
        StaticPgm { router, payload }
    }

    /// Position of exactly `key` in the key and payload columns.
    pub fn position(&self, key: Key) -> Option<usize> {
        let i = self.router.locate(key);
        (self.router.keys().get(i) == Some(&key)).then_some(i)
    }

    /// Position of the first key `>= lo` (the column length when none is).
    pub fn lower_pos(&self, lo: Key) -> usize {
        // `locate` is the last key `<= lo` (0 when none is): step past it
        // unless it already is the lower bound.
        let i = self.router.locate(lo);
        i + usize::from(self.router.keys().get(i).is_some_and(|&k| k < lo))
    }

    /// Payload stored under exactly `key`.
    pub fn find(&self, key: Key) -> Option<Value> {
        self.position(key).map(|i| self.payload[i])
    }

    /// Pairs with `lo <= key <= hi`, in key order.
    pub fn range_iter(&self, lo: Key, hi: Key) -> impl Iterator<Item = KeyValue> + '_ {
        let from = self.lower_pos(lo);
        let pairs = self.router.keys()[from..].iter().zip(&self.payload[from..]);
        pairs.map(|(&k, &v)| (k, v)).take_while(move |&(k, _)| k <= hi)
    }

    /// The linear recursive structure and the key column it owns.
    pub fn router(&self) -> &LrsInner {
        &self.router
    }

    /// The payload column, parallel to `router().keys()`.
    pub fn payload(&self) -> &[Value] {
        &self.payload
    }

    /// Number of data-level segments.
    pub fn segment_count(&self) -> usize {
        self.router.segment_count()
    }

    /// Number of levels including the data level.
    pub fn height(&self) -> usize {
        self.router.height()
    }

    /// Bytes of the key column plus the payload column.
    pub fn column_bytes(&self) -> usize {
        self.payload.len() * core::mem::size_of::<KeyValue>()
    }
}

impl Index for StaticPgm {
    fn name(&self) -> &'static str {
        "PGM"
    }

    fn len(&self) -> usize {
        self.payload.len()
    }

    fn get(&self, key: Key) -> Option<Value> {
        self.find(key)
    }

    fn index_size_bytes(&self) -> usize {
        // Segments only: the key column is data (Table III's split).
        self.router.model_bytes()
    }

    fn data_size_bytes(&self) -> usize {
        self.column_bytes()
    }

    fn depth_stats(&self) -> Option<&dyn DepthStats> {
        Some(self)
    }
}

impl OrderedIndex for StaticPgm {
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        out.extend(self.range_iter(lo, hi));
    }
}

impl BulkBuildIndex for StaticPgm {
    fn build(data: &[KeyValue]) -> Self {
        Self::build_with(PgmConfig::default(), data)
    }
}

impl DepthStats for StaticPgm {
    fn avg_depth(&self) -> f64 {
        self.height() as f64
    }

    fn leaf_count(&self) -> usize {
        self.segment_count()
    }
}

impl TwoPhaseLookup for StaticPgm {
    fn locate_leaf(&self, key: Key) -> usize {
        self.router.route(key)
    }

    fn search_leaf(&self, leaf: usize, key: Key) -> Option<Value> {
        let range = self.router.segment_range(leaf)?;
        let i = self.router.keys()[range.clone()].binary_search(&key).ok()?;
        Some(self.payload[range.start + i])
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
