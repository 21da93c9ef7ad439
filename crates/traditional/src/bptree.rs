//! A classic in-memory B+Tree (STX-B-Tree stand-in, §III-A1).
//!
//! Sorted keys in every node, values only in leaves, comparison-based
//! descent — the archetype the learned indexes are measured against.
//! Deletion is lazy (no rebalancing): keys are removed from leaves and
//! empty leaves are unlinked lazily, a common production trade-off (none
//! of the paper's workloads delete).

use li_core::traits::{BulkBuildIndex, DepthStats, Index, OrderedIndex, UpdatableIndex};
use li_core::{Key, KeyValue, Value};

const LEAF_CAP: usize = 64;
const INNER_CAP: usize = 32;

enum Node {
    Inner {
        /// `keys[i]` is the smallest key reachable under `children[i + 1]`;
        /// `children` has `keys.len() + 1` entries.
        keys: Vec<Key>,
        children: Vec<Node>,
    },
    Leaf {
        data: Vec<KeyValue>,
    },
}

impl Node {
    fn is_over(&self) -> bool {
        match self {
            Node::Inner { children, .. } => children.len() > INNER_CAP,
            Node::Leaf { data } => data.len() > LEAF_CAP,
        }
    }

    /// Splits an overfull node, returning the separator key and the new
    /// right sibling.
    fn split(&mut self) -> (Key, Node) {
        match self {
            Node::Leaf { data } => {
                let right = data.split_off(data.len() / 2);
                let sep = right[0].0;
                (sep, Node::Leaf { data: right })
            }
            Node::Inner { keys, children } => {
                let mid = children.len() / 2;
                let right_children = children.split_off(mid);
                let right_keys = keys.split_off(mid);
                // The separator between the halves moves up.
                let sep = keys.pop().expect("inner split needs a separator");
                (sep, Node::Inner { keys: right_keys, children: right_children })
            }
        }
    }
}

/// The B+Tree index.
pub struct BPlusTree {
    root: Node,
    len: usize,
    depth: usize,
}

impl Default for BPlusTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BPlusTree {
    pub fn new() -> Self {
        BPlusTree { root: Node::Leaf { data: Vec::new() }, len: 0, depth: 1 }
    }

    /// Child index to descend into for `key`.
    #[inline]
    fn child_of(keys: &[Key], key: Key) -> usize {
        keys.partition_point(|&k| k <= key)
    }

    fn insert_rec(node: &mut Node, key: Key, value: Value) -> Option<Value> {
        match node {
            Node::Leaf { data } => match data.binary_search_by_key(&key, |kv| kv.0) {
                Ok(i) => Some(std::mem::replace(&mut data[i].1, value)),
                Err(i) => {
                    data.insert(i, (key, value));
                    None
                }
            },
            Node::Inner { keys, children } => {
                let c = Self::child_of(keys, key);
                let old = Self::insert_rec(&mut children[c], key, value);
                if children[c].is_over() {
                    let (sep, right) = children[c].split();
                    keys.insert(c, sep);
                    children.insert(c + 1, right);
                }
                old
            }
        }
    }

    fn remove_rec(node: &mut Node, key: Key) -> Option<Value> {
        match node {
            Node::Leaf { data } => {
                data.binary_search_by_key(&key, |kv| kv.0).ok().map(|i| data.remove(i).1)
            }
            Node::Inner { keys, children } => {
                let c = Self::child_of(keys, key);
                Self::remove_rec(&mut children[c], key)
            }
        }
    }

    fn range_rec(node: &Node, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        match node {
            Node::Leaf { data } => {
                let start = data.partition_point(|kv| kv.0 < lo);
                for kv in &data[start..] {
                    if kv.0 > hi {
                        break;
                    }
                    out.push(*kv);
                }
            }
            Node::Inner { keys, children } => {
                let first = Self::child_of(keys, lo);
                let last = Self::child_of(keys, hi);
                for child in &children[first..=last] {
                    Self::range_rec(child, lo, hi, out);
                }
            }
        }
    }

    fn size_rec(node: &Node) -> usize {
        match node {
            Node::Leaf { data } => {
                core::mem::size_of::<Node>() + data.capacity() * core::mem::size_of::<KeyValue>()
            }
            Node::Inner { keys, children } => {
                core::mem::size_of::<Node>()
                    + keys.capacity() * core::mem::size_of::<Key>()
                    + children.iter().map(Self::size_rec).sum::<usize>()
            }
        }
    }

    fn leaf_count_rec(node: &Node) -> usize {
        match node {
            Node::Leaf { .. } => 1,
            Node::Inner { children, .. } => children.iter().map(Self::leaf_count_rec).sum(),
        }
    }

    /// Debug invariant check: key ordering and separator correctness.
    #[cfg(test)]
    fn check_invariants(&self) {
        fn rec(node: &Node, lo: Option<Key>, hi: Option<Key>) {
            match node {
                Node::Leaf { data } => {
                    for w in data.windows(2) {
                        assert!(w[0].0 < w[1].0, "leaf unsorted");
                    }
                    if let (Some(lo), Some(first)) = (lo, data.first()) {
                        assert!(first.0 >= lo, "leaf key below bound");
                    }
                    if let (Some(hi), Some(last)) = (hi, data.last()) {
                        assert!(last.0 < hi, "leaf key above bound");
                    }
                }
                Node::Inner { keys, children } => {
                    assert_eq!(children.len(), keys.len() + 1);
                    for w in keys.windows(2) {
                        assert!(w[0] < w[1], "inner unsorted");
                    }
                    for (i, child) in children.iter().enumerate() {
                        let clo = if i == 0 { lo } else { Some(keys[i - 1]) };
                        let chi = if i == keys.len() { hi } else { Some(keys[i]) };
                        rec(child, clo, chi);
                    }
                }
            }
        }
        rec(&self.root, None, None);
    }
}

impl Index for BPlusTree {
    fn name(&self) -> &'static str {
        "BTree"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, key: Key) -> Option<Value> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Inner { keys, children } => {
                    node = &children[Self::child_of(keys, key)];
                }
                Node::Leaf { data } => {
                    return data.binary_search_by_key(&key, |kv| kv.0).ok().map(|i| data[i].1);
                }
            }
        }
    }

    fn index_size_bytes(&self) -> usize {
        // Everything except the leaf key/value payload itself.
        Self::size_rec(&self.root) - self.len * core::mem::size_of::<KeyValue>()
    }

    fn data_size_bytes(&self) -> usize {
        self.len * core::mem::size_of::<KeyValue>()
    }

    fn depth_stats(&self) -> Option<&dyn DepthStats> {
        Some(self)
    }
}

impl UpdatableIndex for BPlusTree {
    fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
        let old = Self::insert_rec(&mut self.root, key, value);
        if old.is_none() {
            self.len += 1;
        }
        if self.root.is_over() {
            let (sep, right) = self.root.split();
            let left = std::mem::replace(&mut self.root, Node::Leaf { data: Vec::new() });
            self.root = Node::Inner { keys: vec![sep], children: vec![left, right] };
            self.depth += 1;
        }
        old
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        let old = Self::remove_rec(&mut self.root, key);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }
}

impl OrderedIndex for BPlusTree {
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        if lo > hi {
            return;
        }
        Self::range_rec(&self.root, lo, hi, out);
    }
}

impl BulkBuildIndex for BPlusTree {
    fn build(data: &[KeyValue]) -> Self {
        // Build bottom-up: pack leaves, then stack inner levels.
        if data.is_empty() {
            return BPlusTree::new();
        }
        let fill = LEAF_CAP * 3 / 4; // leave insert headroom
        let mut nodes: Vec<(Key, Node)> =
            data.chunks(fill).map(|c| (c[0].0, Node::Leaf { data: c.to_vec() })).collect();
        let mut depth = 1;
        while nodes.len() > 1 {
            let inner_fill = INNER_CAP * 3 / 4;
            nodes = nodes
                .chunks_mut(inner_fill)
                .map(|group| {
                    let first_key = group[0].0;
                    let keys: Vec<Key> = group[1..].iter().map(|(k, _)| *k).collect();
                    let children: Vec<Node> = group
                        .iter_mut()
                        .map(|(_, n)| std::mem::replace(n, Node::Leaf { data: Vec::new() }))
                        .collect();
                    (first_key, Node::Inner { keys, children })
                })
                .collect();
            depth += 1;
        }
        BPlusTree { root: nodes.pop().expect("nonempty").1, len: data.len(), depth }
    }
}

impl DepthStats for BPlusTree {
    fn avg_depth(&self) -> f64 {
        self.depth as f64
    }

    fn leaf_count(&self) -> usize {
        Self::leaf_count_rec(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_many() {
        let mut t = BPlusTree::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = BTreeMap::new();
        for i in 0..20_000u64 {
            let k = rng.random::<u64>() >> 16;
            assert_eq!(t.insert(k, i), model.insert(k, i));
        }
        t.check_invariants();
        assert_eq!(t.len(), model.len());
        for (&k, &v) in model.iter().step_by(37) {
            assert_eq!(t.get(k), Some(v));
        }
        assert_eq!(t.get(u64::MAX), model.get(&u64::MAX).copied());
    }

    #[test]
    fn bulk_build_matches() {
        let data: Vec<KeyValue> = (0..50_000u64).map(|i| (i * 3, i)).collect();
        let t = BPlusTree::build(&data);
        t.check_invariants();
        assert_eq!(t.len(), data.len());
        for &(k, v) in data.iter().step_by(101) {
            assert_eq!(t.get(k), Some(v));
            assert_eq!(t.get(k + 1), None);
        }
        assert!(t.avg_depth() >= 3.0);
        assert!(t.leaf_count() > 500);
    }

    #[test]
    fn bulk_then_insert() {
        let data: Vec<KeyValue> = (0..10_000u64).map(|i| (i * 10, i)).collect();
        let mut t = BPlusTree::build(&data);
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..10_000u64 {
            let k = rng.random_range(0..100_000u64);
            t.insert(k, i + 1_000_000);
        }
        t.check_invariants();
        for i in (0..10_000u64).step_by(97) {
            assert!(t.get(i * 10).is_some());
        }
    }

    #[test]
    fn remove_works() {
        let data: Vec<KeyValue> = (0..1_000u64).map(|i| (i, i)).collect();
        let mut t = BPlusTree::build(&data);
        for i in 0..1_000u64 {
            assert_eq!(t.remove(i), Some(i));
            assert_eq!(t.remove(i), None);
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.get(5), None);
    }

    #[test]
    fn range_matches_model() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut t = BPlusTree::new();
        let mut model = BTreeMap::new();
        for i in 0..10_000u64 {
            let k = rng.random_range(0..100_000u64);
            t.insert(k, i);
            model.insert(k, i);
        }
        for _ in 0..100 {
            let lo = rng.random_range(0..100_000u64);
            let hi = lo + rng.random_range(0..10_000u64);
            let got = t.range_vec(lo, hi);
            let expect: Vec<KeyValue> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn empty_tree() {
        let t = BPlusTree::new();
        assert!(t.is_empty());
        assert_eq!(t.get(1), None);
        assert_eq!(t.range_vec(0, u64::MAX), vec![]);
        let t2 = BPlusTree::build(&[]);
        assert!(t2.is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn matches_btreemap(ops in proptest::collection::vec((0u64..2_000, 0u64..100, proptest::bool::ANY), 0..600)) {
            let mut t = BPlusTree::new();
            let mut model = BTreeMap::new();
            for &(k, v, ins) in &ops {
                if ins {
                    proptest::prop_assert_eq!(t.insert(k, v), model.insert(k, v));
                } else {
                    proptest::prop_assert_eq!(t.remove(k), model.remove(&k));
                }
            }
            t.check_invariants();
            proptest::prop_assert_eq!(t.len(), model.len());
            let got = t.range_vec(0, u64::MAX);
            let expect: Vec<KeyValue> = model.iter().map(|(&k, &v)| (k, v)).collect();
            proptest::prop_assert_eq!(got, expect);
        }
    }
}
