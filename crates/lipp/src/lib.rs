//! # li-lipp — LIPP: Updatable Learned Index with Precise Positions
//! (Wu et al., VLDB'21)
//!
//! §V-B1 of the benchmarked paper points at LIPP as the design that takes
//! its advice — combine the asymmetric tree with an approximation that
//! *changes the stored data's distribution* — but laments that "since it
//! is not open source now, we cannot evaluate it". This crate implements
//! LIPP so the reproduction can answer that open question (see the
//! `lipp_vs_alex` harness rows and EXPERIMENTS.md).
//!
//! Core idea: every key sits **exactly at its model-predicted slot**. A
//! node is a linear model over a slot array whose entries are empty, a
//! single `(key, value)`, or a child node holding the keys that collided
//! on that slot. Lookups compute one prediction per level and never
//! search; the prediction *is* the position — hence "precise positions".
//!
//! Inserts place a key at its predicted slot; a collision with a stored
//! key spawns a child node holding both. Subtrees whose population has
//! outgrown their build size are rebuilt (LIPP's adjustment), keeping
//! depth logarithmic under churn; each rebuild is one `Retrain` on the
//! index's recorder.

use li_core::telemetry::Recorder;
use li_core::traits::{BulkBuildIndex, DepthStats, Index, OrderedIndex, UpdatableIndex};
use li_core::{Key, KeyValue, LinearModel, Value};
use std::time::Instant;

/// Tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LippConfig {
    /// Slots per key at build time (gaps make collisions rare).
    pub slots_per_key: f64,
    /// Rebuild a subtree when its population exceeds this multiple of its
    /// build-time population.
    pub rebuild_factor: f64,
    /// Smallest subtree worth rebuilding.
    pub rebuild_min: usize,
}

impl Default for LippConfig {
    fn default() -> Self {
        LippConfig { slots_per_key: 2.0, rebuild_factor: 2.0, rebuild_min: 8 }
    }
}

enum Entry {
    Empty,
    Data(Key, Value),
    Child(Box<Node>),
}

struct Node {
    model: LinearModel,
    slots: Vec<Entry>,
    /// Live keys under this node (incl. children).
    size: usize,
    /// Live keys when the node was (re)built; drives the rebuild trigger.
    build_size: usize,
}

impl Node {
    #[inline]
    fn slot_of(&self, key: Key) -> usize {
        self.model.predict_clamped(key, self.slots.len())
    }
}

/// The LIPP index.
pub struct Lipp {
    root: Node,
    len: usize,
    config: LippConfig,
    recorder: Recorder,
}

impl Lipp {
    pub fn new() -> Self {
        Self::with_config(LippConfig::default())
    }

    pub fn with_config(config: LippConfig) -> Self {
        Lipp {
            root: Self::build_node(&config, &[]),
            len: 0,
            config,
            recorder: Recorder::disabled(),
        }
    }

    pub fn build_with(config: LippConfig, data: &[KeyValue]) -> Self {
        let root = Self::build_node(&config, data);
        Lipp { root, len: data.len(), config, recorder: Recorder::disabled() }
    }

    /// Builds a node over sorted `data`; keys colliding on a slot recurse
    /// into child nodes.
    fn build_node(config: &LippConfig, data: &[KeyValue]) -> Node {
        let n = data.len();
        let cap = ((n as f64 * config.slots_per_key).ceil() as usize).max(8);
        if n == 0 {
            return Node {
                model: LinearModel::default(),
                slots: (0..cap).map(|_| Entry::Empty).collect(),
                size: 0,
                build_size: 0,
            };
        }
        let keys: Vec<Key> = data.iter().map(|kv| kv.0).collect();
        let mut model = LinearModel::fit_least_squares(&keys).scaled(cap as f64 / n as f64);
        // Guarantee progress for degenerate fits: if every key lands on one
        // slot, an exact two-point model through the extremes separates at
        // least the first and last key.
        if n > 1 {
            let s_first = model.predict_clamped(keys[0], cap);
            let s_last = model.predict_clamped(keys[n - 1], cap);
            if s_first == s_last {
                model = LinearModel::through(keys[0], 0.0, keys[n - 1], (cap - 1) as f64);
            }
        }

        let mut slots: Vec<Entry> = (0..cap).map(|_| Entry::Empty).collect();
        let mut i = 0usize;
        while i < n {
            let s = model.predict_clamped(keys[i], cap);
            let mut j = i + 1;
            while j < n && model.predict_clamped(keys[j], cap) == s {
                j += 1;
            }
            slots[s] = if j - i == 1 {
                Entry::Data(data[i].0, data[i].1)
            } else {
                Entry::Child(Box::new(Self::build_node(config, &data[i..j])))
            };
            i = j;
        }
        Node { model, slots, size: n, build_size: n }
    }

    /// Collects a subtree's pairs in ascending key order.
    fn collect(node: &Node, out: &mut Vec<KeyValue>) {
        for entry in &node.slots {
            match entry {
                Entry::Empty => {}
                Entry::Data(k, v) => out.push((*k, *v)),
                Entry::Child(c) => Self::collect(c, out),
            }
        }
    }

    fn get_rec(node: &Node, key: Key) -> Option<&Value> {
        let mut cur = node;
        loop {
            match &cur.slots[cur.slot_of(key)] {
                Entry::Empty => return None,
                Entry::Data(k, v) => return (*k == key).then_some(v),
                Entry::Child(c) => cur = c,
            }
        }
    }

    fn insert_rec(
        config: &LippConfig,
        node: &mut Node,
        key: Key,
        value: Value,
        recorder: &Recorder,
    ) -> Option<Value> {
        // LIPP's adjustment: a subtree that has doubled since its build is
        // re-laid-out so precise placement (and depth) stays healthy.
        if node.size + 1
            > ((node.build_size.max(config.rebuild_min) as f64) * config.rebuild_factor) as usize
        {
            let t0 = Instant::now();
            let mut data = Vec::with_capacity(node.size);
            Self::collect(node, &mut data);
            *node = Self::build_node(config, &data);
            recorder.retrained(t0, data.len() as u64);
        }

        let s = node.slot_of(key);
        match &mut node.slots[s] {
            Entry::Empty => {
                node.slots[s] = Entry::Data(key, value);
                node.size += 1;
                None
            }
            Entry::Data(k, v) => {
                if *k == key {
                    return Some(std::mem::replace(v, value));
                }
                // Collision: both keys move into a fresh child.
                let pair =
                    if *k < key { [(*k, *v), (key, value)] } else { [(key, value), (*k, *v)] };
                node.slots[s] = Entry::Child(Box::new(Self::build_node(config, &pair)));
                node.size += 1;
                None
            }
            Entry::Child(c) => {
                let old = Self::insert_rec(config, c, key, value, recorder);
                if old.is_none() {
                    node.size += 1;
                }
                old
            }
        }
    }

    fn remove_rec(node: &mut Node, key: Key) -> Option<Value> {
        let s = node.slot_of(key);
        match &mut node.slots[s] {
            Entry::Empty => None,
            Entry::Data(k, v) => {
                if *k != key {
                    return None;
                }
                let old = *v;
                node.slots[s] = Entry::Empty;
                node.size -= 1;
                Some(old)
            }
            Entry::Child(c) => {
                let old = Self::remove_rec(c, key);
                if old.is_some() {
                    node.size -= 1;
                    // Collapse a child that shrank to one entry back into
                    // this slot.
                    if c.size == 1 {
                        let mut single = Vec::with_capacity(1);
                        Self::collect(c, &mut single);
                        node.slots[s] = Entry::Data(single[0].0, single[0].1);
                    } else if c.size == 0 {
                        node.slots[s] = Entry::Empty;
                    }
                }
                old
            }
        }
    }

    fn range_rec(node: &Node, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        // Precise placement is monotone, so only slots between the
        // predictions of lo and hi can hold keys in range.
        let s_lo = node.slot_of(lo);
        let s_hi = node.slot_of(hi);
        for entry in &node.slots[s_lo..=s_hi] {
            match entry {
                Entry::Empty => {}
                Entry::Data(k, v) => {
                    if *k >= lo && *k <= hi {
                        out.push((*k, *v));
                    }
                }
                Entry::Child(c) => Self::range_rec(c, lo, hi, out),
            }
        }
    }

    fn depth_rec(node: &Node, depth: usize, keys: &mut usize, sum: &mut f64, max: &mut usize) {
        *max = (*max).max(depth);
        for entry in &node.slots {
            match entry {
                Entry::Empty => {}
                Entry::Data(..) => {
                    *keys += 1;
                    *sum += depth as f64;
                }
                Entry::Child(c) => Self::depth_rec(c, depth + 1, keys, sum, max),
            }
        }
    }

    fn size_rec(node: &Node) -> usize {
        core::mem::size_of::<Node>()
            + node.slots.len() * core::mem::size_of::<Entry>()
            + node
                .slots
                .iter()
                .map(|e| match e {
                    Entry::Child(c) => Self::size_rec(c),
                    _ => 0,
                })
                .sum::<usize>()
    }

    /// Maximum entry depth (diagnostics).
    pub fn max_depth(&self) -> usize {
        let (mut keys, mut sum, mut max) = (0usize, 0.0f64, 0usize);
        Self::depth_rec(&self.root, 1, &mut keys, &mut sum, &mut max);
        max
    }
}

impl Default for Lipp {
    fn default() -> Self {
        Self::new()
    }
}

impl Index for Lipp {
    fn name(&self) -> &'static str {
        "LIPP"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, key: Key) -> Option<Value> {
        Self::get_rec(&self.root, key).copied()
    }

    fn index_size_bytes(&self) -> usize {
        // Keys/values live inside the structure itself; report everything
        // as structure (LIPP has no separate sorted array).
        Self::size_rec(&self.root)
    }

    fn data_size_bytes(&self) -> usize {
        0
    }

    fn depth_stats(&self) -> Option<&dyn DepthStats> {
        Some(self)
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }
}

impl UpdatableIndex for Lipp {
    fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
        let old = Self::insert_rec(&self.config, &mut self.root, key, value, &self.recorder);
        if old.is_none() {
            self.len += 1;
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

impl OrderedIndex for Lipp {
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        if lo > hi || self.len == 0 {
            return;
        }
        Self::range_rec(&self.root, lo, hi, out);
    }
}

impl BulkBuildIndex for Lipp {
    fn build(data: &[KeyValue]) -> Self {
        Self::build_with(LippConfig::default(), data)
    }
}

impl DepthStats for Lipp {
    fn avg_depth(&self) -> f64 {
        let (mut keys, mut sum, mut max) = (0usize, 0.0f64, 0usize);
        Self::depth_rec(&self.root, 1, &mut keys, &mut sum, &mut max);
        let _ = max;
        if keys == 0 {
            0.0
        } else {
            sum / keys as f64
        }
    }

    fn leaf_count(&self) -> usize {
        // LIPP has no leaf segments; count nodes instead.
        fn nodes(node: &Node) -> usize {
            1 + node
                .slots
                .iter()
                .map(|e| match e {
                    Entry::Child(c) => nodes(c),
                    _ => 0,
                })
                .sum::<usize>()
        }
        nodes(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use li_core::telemetry::Event;
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
        let lipp = Lipp::build(&data);
        assert_eq!(lipp.len(), data.len());
        for &(k, v) in data.iter().step_by(89) {
            assert_eq!(lipp.get(k), Some(v), "key {k}");
        }
        assert_eq!(lipp.get(0), data.iter().find(|kv| kv.0 == 0).map(|kv| kv.1));
    }

    #[test]
    fn misses_return_none() {
        let data: Vec<KeyValue> = (0..50_000u64).map(|i| (i * 4, i)).collect();
        let lipp = Lipp::build(&data);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30_000 {
            let k: Key = rng.random::<u64>() % 250_000;
            let expect = data.binary_search_by_key(&k, |kv| kv.0).ok().map(|i| data[i].1);
            assert_eq!(lipp.get(k), expect, "key {k}");
        }
    }

    #[test]
    fn insert_from_empty() {
        let mut lipp = Lipp::new();
        let rec = Recorder::enabled();
        lipp.set_recorder(rec.clone());
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..30_000u64 {
            let k = rng.random_range(0..1_000_000u64);
            assert_eq!(lipp.insert(k, i), model.insert(k, i), "insert {k}");
        }
        assert_eq!(lipp.len(), model.len());
        for (&k, &v) in model.iter().step_by(73) {
            assert_eq!(lipp.get(k), Some(v));
        }
        assert!(rec.event_count(Event::Retrain) > 0, "adjustments must have happened");
    }

    #[test]
    fn dense_sequential_inserts() {
        let mut lipp = Lipp::new();
        for k in 0..50_000u64 {
            lipp.insert(k, k * 2);
        }
        assert_eq!(lipp.len(), 50_000);
        for k in (0..50_000u64).step_by(487) {
            assert_eq!(lipp.get(k), Some(k * 2));
        }
        // Adjustments must keep depth shallow even under pure appends.
        assert!(lipp.max_depth() < 16, "depth {}", lipp.max_depth());
    }

    #[test]
    fn clustered_keys_recurse() {
        // Tight clusters force collision children.
        let mut keys: Vec<Key> = Vec::new();
        for c in 0..100u64 {
            let base = c * (1 << 40);
            keys.extend((0..100u64).map(|i| base + i));
        }
        let data: Vec<KeyValue> = keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
        let lipp = Lipp::build(&data);
        for &(k, v) in data.iter().step_by(97) {
            assert_eq!(lipp.get(k), Some(v));
        }
        assert!(lipp.max_depth() >= 2, "clusters should nest");
    }

    #[test]
    fn precise_positions_no_search() {
        // The defining property: a stored key is found exactly at its
        // prediction at some level — verified implicitly by get() which
        // never scans; this test just hammers it on adversarial data.
        let mut keys: Vec<Key> = (0..10_000u64).map(|i| i * i * 31 + 7).collect();
        keys.sort_unstable();
        keys.dedup();
        let data: Vec<KeyValue> = keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
        let lipp = Lipp::build(&data);
        for &(k, v) in &data {
            assert_eq!(lipp.get(k), Some(v));
        }
    }

    #[test]
    fn remove_and_collapse() {
        let data = dataset(10_000, 5);
        let mut lipp = Lipp::build(&data);
        let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
        let keys: Vec<Key> = model.keys().copied().collect();
        for &k in keys.iter().step_by(2) {
            assert_eq!(lipp.remove(k), model.remove(&k));
            assert_eq!(lipp.remove(k), None);
        }
        assert_eq!(lipp.len(), model.len());
        for (&k, &v) in model.iter().step_by(61) {
            assert_eq!(lipp.get(k), Some(v));
        }
    }

    #[test]
    fn range_matches_model() {
        let data = dataset(20_000, 6);
        let mut lipp = Lipp::build(&data);
        let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..5_000u64 {
            let k = rng.random();
            lipp.insert(k, i);
            model.insert(k, i);
        }
        for _ in 0..50 {
            let lo: Key = rng.random();
            let hi = lo.saturating_add(rng.random::<u64>() >> 4);
            let got = lipp.range_vec(lo, hi);
            let expect: Vec<KeyValue> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, expect, "range {lo}..={hi}");
        }
        let all = lipp.range_vec(0, u64::MAX);
        assert_eq!(all.len(), model.len());
    }

    #[test]
    fn empty_and_tiny() {
        let mut lipp = Lipp::new();
        assert!(lipp.is_empty());
        assert_eq!(lipp.get(1), None);
        assert_eq!(lipp.remove(1), None);
        lipp.insert(5, 50);
        assert_eq!(lipp.get(5), Some(50));
        assert_eq!(lipp.insert(5, 51), Some(50));
        assert_eq!(lipp.len(), 1);
        assert_eq!(lipp.range_vec(0, 10), vec![(5, 51)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn matches_btreemap(
            seed in 0u64..500,
            ops in 200usize..800,
        ) {
            let data: Vec<KeyValue> = (0..300u64).map(|i| (i * 11, i)).collect();
            let mut lipp = Lipp::build(&data);
            let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
            let mut rng = StdRng::seed_from_u64(seed);
            for n in 0..ops as u64 {
                let k = rng.random_range(0..5_000u64);
                if rng.random_bool(0.7) {
                    proptest::prop_assert_eq!(lipp.insert(k, n), model.insert(k, n));
                } else {
                    proptest::prop_assert_eq!(lipp.remove(k), model.remove(&k));
                }
            }
            proptest::prop_assert_eq!(lipp.len(), model.len());
            let got = lipp.range_vec(0, u64::MAX);
            let expect: Vec<KeyValue> = model.iter().map(|(&k, &v)| (k, v)).collect();
            proptest::prop_assert_eq!(got, expect);
        }
    }
}
