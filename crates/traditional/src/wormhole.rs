//! A Wormhole-style ordered index (Wu et al., EuroSys'19), one of the
//! paper's traditional baselines (§III-A1).
//!
//! Wormhole replaces the O(log n) descent of a B+tree with an O(log L)
//! *binary search on prefix length* (L = key length in bytes): a hash set
//! of all anchor-key prefixes ("MetaTrieHash") tells in O(1) whether any
//! anchor starts with a given prefix, so a lookup needs at most log2(8)+1
//! hash probes to find the leaf whose anchor range covers the search key.
//! Leaves are small sorted arrays linked left-to-right.
//!
//! This implementation follows the paper's structure for fixed 8-byte
//! big-endian keys: per-prefix metadata stores the leftmost and rightmost
//! leaf under that trie subtree, which is exactly what the prefix-length
//! binary search needs to land on the correct leaf.

use std::collections::HashMap;

use li_core::search::lower_bound_kv;
use li_core::traits::{BulkBuildIndex, DepthStats, Index, OrderedIndex, UpdatableIndex};
use li_core::{Key, KeyValue, Value};

/// Keys per leaf before splitting.
const LEAF_CAP: usize = 128;

/// Metadata of one anchor prefix: the range of leaves whose anchors start
/// with it.
#[derive(Debug, Clone, Copy)]
struct PrefixMeta {
    leftmost: u32,
    rightmost: u32,
}

/// The Wormhole index.
pub struct Wormhole {
    /// Sorted leaves; `leaves[i]` covers keys in `[anchor[i], anchor[i+1])`
    /// (leaf 0 also absorbs smaller keys).
    leaves: Vec<Vec<KeyValue>>,
    /// Anchor (smallest routing key) per leaf.
    anchors: Vec<Key>,
    /// `meta[l]` maps an l-byte prefix (left-aligned in a u64) to the
    /// leaves under it; l = 0 is implicit (all leaves).
    meta: [HashMap<u64, PrefixMeta>; 9],
    len: usize,
}

#[inline]
fn prefix_of(key: Key, bytes: usize) -> u64 {
    if bytes == 0 {
        0
    } else {
        key & (u64::MAX << (64 - 8 * bytes as u32))
    }
}

impl Default for Wormhole {
    fn default() -> Self {
        Self::new()
    }
}

impl Wormhole {
    pub fn new() -> Self {
        Wormhole { leaves: vec![Vec::new()], anchors: vec![0], meta: Default::default(), len: 0 }
    }

    /// Rebuilds the prefix hash tables from the anchors. O(#leaves × 8);
    /// called after structural changes (splits), which are amortised by
    /// LEAF_CAP inserts.
    fn rebuild_meta(&mut self) {
        for m in &mut self.meta {
            m.clear();
        }
        for (i, &a) in self.anchors.iter().enumerate() {
            for l in 1..=8usize {
                let p = prefix_of(a, l);
                self.meta[l]
                    .entry(p)
                    .and_modify(|m| m.rightmost = i as u32)
                    .or_insert(PrefixMeta { leftmost: i as u32, rightmost: i as u32 });
            }
        }
    }

    /// Index of the leaf covering `key`: the last anchor `<= key`
    /// (clamped to 0), found by binary search on prefix length.
    fn leaf_of(&self, key: Key) -> usize {
        // Find the longest prefix of `key` that is a prefix of at least
        // one anchor, by binary search over the length.
        let mut lo = 0usize; // longest length known to match (0 always does)
        let mut hi = 8usize; // shortest length known not to match, +1
        let mut best: Option<PrefixMeta> = None;
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            match self.meta[mid].get(&prefix_of(key, mid)) {
                Some(&m) => {
                    best = Some(m);
                    lo = mid;
                    if lo == hi {
                        break;
                    }
                }
                None => hi = mid - 1,
            }
        }
        match best {
            None => {
                // No anchor shares even one byte with `key`: the answer is
                // determined by comparing against the whole anchor order —
                // all anchors are either > key (answer leaf 0) or the ones
                // before key's byte range (answer = last anchor < key).
                // One more O(log) fallback keeps this edge exact.
                self.anchors.partition_point(|&a| a <= key).saturating_sub(1)
            }
            Some(m) => {
                // Every anchor in [leftmost, rightmost] starts with the
                // longest matching prefix; key falls inside this subtree.
                // A short search among those anchors pins the leaf; the
                // subtree is almost always a handful of leaves.
                let lo = m.leftmost as usize;
                let hi = (m.rightmost as usize + 1).min(self.anchors.len());
                let window = &self.anchors[lo..hi];
                let idx = lo + window.partition_point(|&a| a <= key);
                idx.saturating_sub(1)
            }
        }
    }

    fn split_leaf(&mut self, li: usize) {
        let mid = self.leaves[li].len() / 2;
        let right = self.leaves[li].split_off(mid);
        let anchor = right[0].0;
        self.leaves.insert(li + 1, right);
        self.anchors.insert(li + 1, anchor);
        self.rebuild_meta();
    }

    /// Number of leaves (diagnostics).
    pub fn leaf_nodes(&self) -> usize {
        self.leaves.len()
    }
}

impl Index for Wormhole {
    fn name(&self) -> &'static str {
        "Wormhole"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, key: Key) -> Option<Value> {
        let leaf = &self.leaves[self.leaf_of(key)];
        leaf.binary_search_by_key(&key, |kv| kv.0).ok().map(|i| leaf[i].1)
    }

    fn index_size_bytes(&self) -> usize {
        let meta_bytes: usize = self
            .meta
            .iter()
            .map(|m| m.len() * (core::mem::size_of::<u64>() + core::mem::size_of::<PrefixMeta>()))
            .sum();
        meta_bytes + self.anchors.len() * core::mem::size_of::<Key>()
    }

    fn data_size_bytes(&self) -> usize {
        self.leaves.iter().map(|l| l.capacity() * core::mem::size_of::<KeyValue>()).sum()
    }

    fn depth_stats(&self) -> Option<&dyn DepthStats> {
        Some(self)
    }
}

impl UpdatableIndex for Wormhole {
    fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
        let li = self.leaf_of(key);
        let leaf = &mut self.leaves[li];
        match leaf.binary_search_by_key(&key, |kv| kv.0) {
            Ok(i) => Some(std::mem::replace(&mut leaf[i].1, value)),
            Err(i) => {
                leaf.insert(i, (key, value));
                self.len += 1;
                if self.leaves[li].len() > LEAF_CAP {
                    self.split_leaf(li);
                }
                None
            }
        }
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        let li = self.leaf_of(key);
        let leaf = &mut self.leaves[li];
        match leaf.binary_search_by_key(&key, |kv| kv.0) {
            Ok(i) => {
                let old = leaf.remove(i).1;
                self.len -= 1;
                Some(old)
            }
            Err(_) => None,
        }
    }
}

impl OrderedIndex for Wormhole {
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        if lo > hi {
            return;
        }
        let mut li = self.leaf_of(lo);
        while li < self.leaves.len() {
            if li > 0 && self.anchors[li] > hi {
                break;
            }
            let leaf = &self.leaves[li];
            let start = lower_bound_kv(leaf, lo);
            for kv in &leaf[start..] {
                if kv.0 > hi {
                    return;
                }
                out.push(*kv);
            }
            li += 1;
        }
    }
}

impl BulkBuildIndex for Wormhole {
    fn build(data: &[KeyValue]) -> Self {
        let mut w = Wormhole::new();
        if data.is_empty() {
            w.rebuild_meta();
            return w;
        }
        let fill = LEAF_CAP * 3 / 4;
        w.leaves = data.chunks(fill).map(<[(u64, u64)]>::to_vec).collect();
        w.anchors = w.leaves.iter().map(|l| l[0].0).collect();
        // Leaf 0 must absorb keys below the smallest anchor.
        w.anchors[0] = 0;
        w.len = data.len();
        w.rebuild_meta();
        w
    }
}

impl DepthStats for Wormhole {
    fn avg_depth(&self) -> f64 {
        // log2(8) hash probes + leaf = a constant "depth".
        4.0
    }

    fn leaf_count(&self) -> usize {
        self.leaves.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn prefix_helper() {
        let k = 0x1122_3344_5566_7788u64;
        assert_eq!(prefix_of(k, 0), 0);
        assert_eq!(prefix_of(k, 1), 0x1100_0000_0000_0000);
        assert_eq!(prefix_of(k, 4), 0x1122_3344_0000_0000);
        assert_eq!(prefix_of(k, 8), k);
    }

    #[test]
    fn build_and_get() {
        let data: Vec<KeyValue> = (0..100_000u64).map(|i| (i * 7 + 3, i)).collect();
        let w = Wormhole::build(&data);
        assert_eq!(w.len(), data.len());
        assert!(w.leaf_nodes() > 100);
        for &(k, v) in data.iter().step_by(89) {
            assert_eq!(w.get(k), Some(v), "key {k}");
            assert_eq!(w.get(k + 1), None);
        }
    }

    #[test]
    fn random_keys_match_model() {
        let mut w = Wormhole::new();
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..50_000u64 {
            let k = rng.random::<u64>();
            assert_eq!(w.insert(k, i), model.insert(k, i));
        }
        assert_eq!(w.len(), model.len());
        for (&k, &v) in model.iter().step_by(173) {
            assert_eq!(w.get(k), Some(v));
        }
        // Misses.
        for _ in 0..10_000 {
            let k = rng.random::<u64>();
            assert_eq!(w.get(k), model.get(&k).copied());
        }
    }

    #[test]
    fn clustered_prefixes() {
        // Many keys sharing long prefixes stress the deeper hash levels.
        let mut keys = Vec::new();
        for c in 0..64u64 {
            let base = c << 56; // distinct first byte
            keys.extend((0..1_000u64).map(|i| base | i));
        }
        keys.sort_unstable();
        let data: Vec<KeyValue> = keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
        let w = Wormhole::build(&data);
        for &(k, v) in data.iter().step_by(337) {
            assert_eq!(w.get(k), Some(v));
        }
        assert_eq!(w.get((1 << 56) | 0x1388), None);
    }

    #[test]
    fn remove_and_range() {
        let data: Vec<KeyValue> = (0..10_000u64).map(|i| (i * 3, i)).collect();
        let mut w = Wormhole::build(&data);
        let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
        for k in (0..10_000u64).step_by(2) {
            assert_eq!(w.remove(k * 3), model.remove(&(k * 3)));
        }
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let lo = rng.random_range(0..30_000u64);
            let hi = lo + rng.random_range(0..3_000u64);
            let got = w.range_vec(lo, hi);
            let expect: Vec<KeyValue> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, expect, "range {lo}..={hi}");
        }
    }

    #[test]
    fn empty_and_small_keys() {
        let mut w = Wormhole::new();
        assert!(w.is_empty());
        assert_eq!(w.get(0), None);
        w.insert(0, 1);
        w.insert(u64::MAX, 2);
        assert_eq!(w.get(0), Some(1));
        assert_eq!(w.get(u64::MAX), Some(2));
        assert_eq!(w.range_vec(0, u64::MAX), vec![(0, 1), (u64::MAX, 2)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn matches_btreemap(ops in proptest::collection::vec((0u64..3_000, 0u64..100, proptest::bool::ANY), 0..500)) {
            let mut w = Wormhole::new();
            let mut model = BTreeMap::new();
            for &(k, v, ins) in &ops {
                let k = k.wrapping_mul(0x0101_0101_0101_0101); // span byte positions
                if ins {
                    proptest::prop_assert_eq!(w.insert(k, v), model.insert(k, v));
                } else {
                    proptest::prop_assert_eq!(w.remove(k), model.remove(&k));
                }
            }
            proptest::prop_assert_eq!(w.len(), model.len());
            let got = w.range_vec(0, u64::MAX);
            let expect: Vec<KeyValue> = model.iter().map(|(&k, &v)| (k, v)).collect();
            proptest::prop_assert_eq!(got, expect);
        }
    }
}
