//! # li-alex — ALEX (Ding et al., SIGMOD'20; §II-B3)
//!
//! The adaptive learned index the paper crowns as the best design
//! (§IV-G): every node holds a linear model; **data nodes are gapped
//! arrays** laid out by model-based insertion (LSA-gap, §IV-A (iii)), so
//! inserts shift keys only to the nearest gap; the tree is **asymmetric**
//! — dense key regions grow deeper subtrees while sparse regions resolve
//! in one hop; and when a data node grows too dense it either **expands**
//! (same model still accurate) or **splits** (model degraded), ALEX's
//! cost-model-driven retraining (§II-B3).
//!
//! Lookups use the node models plus a short local correction; exponential
//! search inside gapped arrays replaces bounded binary search because the
//! approximation carries no a-priori max error (Table I).

use std::time::Instant;

use li_core::pieces::insertion::{count_shifts, GappedLeaf, InsertOutcome, LeafStorage};
use li_core::telemetry::{Event, Recorder};
use li_core::traits::{BulkBuildIndex, DepthStats, Index, OrderedIndex, UpdatableIndex};
use li_core::{Key, KeyValue, LinearModel, Value};

/// Tuning parameters (defaults follow the published ALEX settings scaled
/// to this workspace's benchmark sizes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlexConfig {
    /// Max keys per data node before a split is forced.
    pub max_data_node_keys: usize,
    /// Gapped-array occupancy right after (re)building.
    pub initial_density: f64,
    /// Occupancy that triggers expansion/splitting.
    pub max_density: f64,
    /// Mean model error above which a dense node splits instead of
    /// expanding.
    pub split_error_threshold: f64,
    /// Target keys per leaf during bulk build.
    pub bulk_leaf_keys: usize,
}

impl Default for AlexConfig {
    fn default() -> Self {
        AlexConfig {
            max_data_node_keys: 16 * 1024,
            initial_density: 0.6,
            max_density: 0.8,
            split_error_threshold: 3.0,
            bulk_leaf_keys: 4 * 1024,
        }
    }
}

enum Node {
    Internal {
        /// Routes a key toward a child slot; corrected with `bounds`.
        model: LinearModel,
        /// `bounds[i]` = smallest key that belongs to `children[i]`
        /// (children cover contiguous, disjoint key ranges).
        bounds: Vec<Key>,
        children: Vec<Node>,
    },
    Data(GappedLeaf),
}

/// The ALEX index.
pub struct Alex {
    root: Node,
    len: usize,
    config: AlexConfig,
    recorder: Recorder,
}

impl Alex {
    pub fn new() -> Self {
        Self::with_config(AlexConfig::default())
    }

    pub fn with_config(config: AlexConfig) -> Self {
        Alex {
            root: Node::Data(GappedLeaf::build(&[], config.initial_density, config.max_density)),
            len: 0,
            config,
            recorder: Recorder::disabled(),
        }
    }

    /// Bulk build with explicit configuration.
    pub fn build_with(config: AlexConfig, data: &[KeyValue]) -> Self {
        let root = Self::build_node(&config, data, 0);
        Alex { root, len: data.len(), config, recorder: Recorder::disabled() }
    }

    fn make_leaf(config: &AlexConfig, data: &[KeyValue]) -> Node {
        Node::Data(GappedLeaf::build(data, config.initial_density, config.max_density))
    }

    /// Whether a slice may become a single data node: small enough and
    /// with a dense fit good enough that model-based gapped inserts stay
    /// shift-cheap (the analytic form of ALEX's cost model: expected shift
    /// per insert ≈ avg_err · d/(1−d)).
    fn fits_leaf(config: &AlexConfig, keys: &[Key]) -> bool {
        if keys.len() <= 512 {
            return true;
        }
        if keys.len() > config.bulk_leaf_keys {
            return false;
        }
        let model = LinearModel::fit_least_squares(keys);
        let (_, avg_err) = model.errors(keys);
        avg_err <= config.split_error_threshold
    }

    /// Recursive top-down build, the fanout-tree approximation: wide
    /// model-routed internal nodes over uneven children — dense regions
    /// recurse deeper (the "asymmetric tree structure", §IV-B). Also used
    /// at retrain time to replace an ill-fitting data node with a locally
    /// built subtree (ALEX's downward split).
    fn build_node(config: &AlexConfig, data: &[KeyValue], depth: usize) -> Node {
        let n = data.len();
        let keys: Vec<Key> = data.iter().map(|kv| kv.0).collect();
        if depth >= 24 || Self::fits_leaf(config, &keys) {
            return Self::make_leaf(config, data);
        }
        let fanout = (n / 1024).next_power_of_two().clamp(4, 1 << 10);
        let dense = LinearModel::fit_least_squares(&keys);
        let route = dense.scaled(fanout as f64 / n as f64);

        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut start = 0usize;
        for b in 0..fanout {
            let mut end = start;
            while end < n && route.predict_clamped(keys[end], fanout) == b {
                end += 1;
            }
            if end > start {
                runs.push((start, end));
            }
            start = end;
        }
        if runs.len() <= 1 {
            // The model failed to separate (pathological distribution):
            // fall back to an even count split to guarantee progress.
            runs.clear();
            let per = n.div_ceil(fanout.min(n)).max(1);
            let mut s = 0usize;
            while s < n {
                let e = (s + per).min(n);
                runs.push((s, e));
                s = e;
            }
        }
        let bounds: Vec<Key> = runs.iter().map(|&(s, _)| keys[s]).collect();
        let built: Vec<Node> =
            runs.iter().map(|&(s, e)| Self::build_node(config, &data[s..e], depth + 1)).collect();
        let model = Self::fit_bounds_model(&bounds);
        Node::Internal { model, bounds, children: built }
    }

    /// Model mapping a key to the index of its child (fit over boundary
    /// keys); corrected locally at lookup time.
    fn fit_bounds_model(bounds: &[Key]) -> LinearModel {
        LinearModel::fit_least_squares(bounds)
    }

    /// Child index for `key` in an internal node: model prediction plus a
    /// short correcting walk over the boundary keys.
    #[inline]
    fn route(model: &LinearModel, bounds: &[Key], key: Key) -> usize {
        let n = bounds.len();
        let mut i = model.predict_clamped(key, n);
        while i > 0 && bounds[i] > key {
            i -= 1;
        }
        while i + 1 < n && bounds[i + 1] <= key {
            i += 1;
        }
        i
    }

    fn leaf_for(node: &Node, key: Key) -> &GappedLeaf {
        let mut cur = node;
        loop {
            match cur {
                Node::Data(leaf) => return leaf,
                Node::Internal { model, bounds, children } => {
                    cur = &children[Self::route(model, bounds, key)];
                }
            }
        }
    }

    /// Public structure-phase probe: descends to the leaf without
    /// searching inside it, returning the depth reached (Fig. 17 (d)'s
    /// structure-cost measurement).
    pub fn descend_only(&self, key: Key) -> usize {
        let mut depth = 1usize;
        let mut cur = &self.root;
        loop {
            match cur {
                Node::Data(_) => return depth,
                Node::Internal { model, bounds, children } => {
                    cur = &children[Self::route(model, bounds, key)];
                    depth += 1;
                }
            }
        }
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Option<Value> {
        fn rec(
            node: &mut Node,
            key: Key,
            value: Value,
            config: &AlexConfig,
            recorder: &Recorder,
        ) -> Option<Value> {
            match node {
                Node::Data(leaf) => match count_shifts(leaf, recorder, |l| l.insert(key, value)) {
                    InsertOutcome::Inserted => None,
                    InsertOutcome::Replaced(old) => Some(old),
                    InsertOutcome::NeedsRetrain => {
                        let t0 = Instant::now();
                        let mut data = leaf.to_sorted_vec();
                        let pos = data.partition_point(|kv| kv.0 < key);
                        data.insert(pos, (key, value));
                        let keys: Vec<Key> = data.iter().map(|kv| kv.0).collect();
                        // Expand while the model still fits (gapped
                        // re-layout restores near-zero placement error);
                        // otherwise perform ALEX's *downward split*:
                        // rebuild this slot as a locally deeper subtree
                        // whose leaves all fit well — the mechanism behind
                        // the asymmetric tree.
                        if Alex::fits_leaf(config, &keys) && data.len() <= config.max_data_node_keys
                        {
                            *node = Alex::make_leaf(config, &data);
                            recorder.event(Event::ExpandNode);
                        } else {
                            *node = Alex::build_node(config, &data, 0);
                            recorder.event(Event::SplitNode);
                        }
                        recorder.retrained(t0, data.len() as u64);
                        None
                    }
                },
                Node::Internal { model, bounds, children } => {
                    let i = Alex::route(model, bounds, key);
                    rec(&mut children[i], key, value, config, recorder)
                }
            }
        }

        rec(&mut self.root, key, value, &self.config, &self.recorder)
    }

    fn range_rec(node: &Node, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        match node {
            Node::Data(leaf) => leaf.range_into(lo, hi, out),
            Node::Internal { bounds, children, .. } => {
                for (i, child) in children.iter().enumerate() {
                    // Child 0 absorbs keys below its boundary at every
                    // level, so it is never skipped by the hi-bound.
                    if i > 0 && bounds[i] > hi {
                        break;
                    }
                    if i + 1 < bounds.len() && bounds[i + 1] <= lo {
                        continue;
                    }
                    Self::range_rec(child, lo, hi, out);
                }
            }
        }
    }

    fn depth_stats_rec(node: &Node, depth: usize, leaves: &mut usize, sum: &mut f64) {
        match node {
            Node::Data(_) => {
                *leaves += 1;
                *sum += depth as f64;
            }
            Node::Internal { children, .. } => {
                for c in children {
                    Self::depth_stats_rec(c, depth + 1, leaves, sum);
                }
            }
        }
    }

    fn size_rec(node: &Node, index_bytes: &mut usize, data_bytes: &mut usize) {
        match node {
            Node::Data(leaf) => {
                *data_bytes += leaf.data_size_bytes();
                // Per-leaf model + bookkeeping.
                *index_bytes += core::mem::size_of::<LinearModel>() + 32;
            }
            Node::Internal { bounds, children, .. } => {
                *index_bytes += core::mem::size_of::<LinearModel>()
                    + bounds.len() * core::mem::size_of::<Key>()
                    + children.len() * core::mem::size_of::<usize>();
                for c in children {
                    Self::size_rec(c, index_bytes, data_bytes);
                }
            }
        }
    }

    /// Checks the cross-node key-ordering invariant (tests).
    #[cfg(test)]
    fn check_invariants(&self) {
        fn rec(node: &Node, lo: Option<Key>, hi: Option<Key>) {
            match node {
                Node::Data(leaf) => {
                    let v = leaf.to_sorted_vec();
                    for w in v.windows(2) {
                        assert!(w[0].0 < w[1].0, "leaf unsorted");
                    }
                    if let (Some(lo), Some(first)) = (lo, v.first()) {
                        assert!(first.0 >= lo, "leaf below bound");
                    }
                    if let (Some(hi), Some(last)) = (hi, v.last()) {
                        assert!(last.0 < hi, "leaf above bound");
                    }
                }
                Node::Internal { bounds, children, .. } => {
                    assert_eq!(bounds.len(), children.len());
                    for w in bounds.windows(2) {
                        assert!(w[0] < w[1], "bounds unsorted");
                    }
                    for (i, child) in children.iter().enumerate() {
                        // Child 0 may absorb keys below bounds[0].
                        let clo = if i == 0 { lo } else { Some(bounds[i]) };
                        let chi = if i + 1 == children.len() { hi } else { Some(bounds[i + 1]) };
                        rec(child, clo, chi);
                    }
                }
            }
        }
        rec(&self.root, None, None);
    }
}

impl Default for Alex {
    fn default() -> Self {
        Self::new()
    }
}

impl Index for Alex {
    fn name(&self) -> &'static str {
        "ALEX"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, key: Key) -> Option<Value> {
        Self::leaf_for(&self.root, key).get(key)
    }

    fn index_size_bytes(&self) -> usize {
        let mut i = 0;
        let mut d = 0;
        Self::size_rec(&self.root, &mut i, &mut d);
        i
    }

    fn data_size_bytes(&self) -> usize {
        let mut i = 0;
        let mut d = 0;
        Self::size_rec(&self.root, &mut i, &mut d);
        d
    }

    fn depth_stats(&self) -> Option<&dyn DepthStats> {
        Some(self)
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }
}

impl UpdatableIndex for Alex {
    fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
        let old = self.insert_impl(key, value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        fn rec(node: &mut Node, key: Key, recorder: &Recorder) -> Option<Value> {
            match node {
                Node::Data(leaf) => count_shifts(leaf, recorder, |l| l.remove(key)),
                Node::Internal { model, bounds, children } => {
                    let i = Alex::route(model, bounds, key);
                    rec(&mut children[i], key, recorder)
                }
            }
        }
        let old = rec(&mut self.root, key, &self.recorder);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }
}

impl OrderedIndex for Alex {
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        if lo > hi {
            return;
        }
        Self::range_rec(&self.root, lo, hi, out);
    }
}

impl BulkBuildIndex for Alex {
    fn build(data: &[KeyValue]) -> Self {
        Self::build_with(AlexConfig::default(), data)
    }
}

impl DepthStats for Alex {
    fn avg_depth(&self) -> f64 {
        let mut leaves = 0usize;
        let mut sum = 0.0;
        Self::depth_stats_rec(&self.root, 1, &mut leaves, &mut sum);
        if leaves == 0 {
            0.0
        } else {
            sum / leaves as f64
        }
    }

    fn leaf_count(&self) -> usize {
        let mut leaves = 0usize;
        let mut sum = 0.0;
        Self::depth_stats_rec(&self.root, 1, &mut leaves, &mut sum);
        leaves
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
    fn bulk_build_and_get() {
        let data = dataset(200_000, 1);
        let alex = Alex::build(&data);
        alex.check_invariants();
        assert_eq!(alex.len(), data.len());
        assert!(alex.leaf_count() > 1);
        for &(k, v) in data.iter().step_by(97) {
            assert_eq!(alex.get(k), Some(v), "key {k}");
        }
    }

    #[test]
    fn shifts_are_counted_without_a_retrain() {
        let mut alex = Alex::build(&dataset(50_000, 7));
        let rec = Recorder::enabled();
        alex.set_recorder(rec.clone());
        let mut rng = StdRng::seed_from_u64(8);
        for i in 0..500u64 {
            alex.insert(rng.random(), i);
        }
        assert!(rec.event_count(Event::KeyShift) > 0, "500 inserts shifted no keys");
        assert_eq!(rec.event_count(Event::Retrain), 0);
    }

    #[test]
    fn misses_return_none() {
        let data: Vec<KeyValue> = (0..50_000u64).map(|i| (i * 8 + 4, i)).collect();
        let alex = Alex::build(&data);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30_000 {
            let k: Key = rng.random::<u64>() % 500_000;
            let expect = data.binary_search_by_key(&k, |kv| kv.0).ok().map(|i| data[i].1);
            assert_eq!(alex.get(k), expect, "key {k}");
        }
    }

    #[test]
    fn insert_from_empty_matches_model() {
        let mut alex = Alex::new();
        let rec = Recorder::enabled();
        alex.set_recorder(rec.clone());
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..30_000u64 {
            let k = rng.random_range(0..1_000_000u64);
            assert_eq!(alex.insert(k, i), model.insert(k, i), "insert {k}");
        }
        alex.check_invariants();
        assert_eq!(alex.len(), model.len());
        for (&k, &v) in model.iter().step_by(61) {
            assert_eq!(alex.get(k), Some(v));
        }
        assert!(rec.event_count(Event::Retrain) > 0, "expansions/splits must have happened");
    }

    #[test]
    fn bulk_then_heavy_inserts() {
        let data = dataset(50_000, 4);
        let mut alex = Alex::build(&data);
        let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..50_000u64 {
            let k = rng.random();
            assert_eq!(alex.insert(k, i), model.insert(k, i));
        }
        alex.check_invariants();
        assert_eq!(alex.len(), model.len());
        for (&k, &v) in model.iter().step_by(997) {
            assert_eq!(alex.get(k), Some(v));
        }
    }

    #[test]
    fn sequential_inserts() {
        let mut alex = Alex::new();
        for k in 0..100_000u64 {
            alex.insert(k, k);
        }
        alex.check_invariants();
        assert_eq!(alex.len(), 100_000);
        for k in (0..100_000u64).step_by(997) {
            assert_eq!(alex.get(k), Some(k));
        }
    }

    #[test]
    fn descending_inserts() {
        let mut alex = Alex::new();
        for k in (0..50_000u64).rev() {
            alex.insert(k * 2, k);
        }
        alex.check_invariants();
        assert_eq!(alex.len(), 50_000);
        assert_eq!(alex.get(0), Some(0));
        assert_eq!(alex.get(99_998), Some(49_999));
        assert_eq!(alex.get(99_999), None);
    }

    #[test]
    fn remove_matches_model() {
        let data = dataset(20_000, 6);
        let mut alex = Alex::build(&data);
        let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
        let keys: Vec<Key> = model.keys().copied().collect();
        for &k in keys.iter().step_by(3) {
            assert_eq!(alex.remove(k), model.remove(&k));
            assert_eq!(alex.remove(k), None);
        }
        assert_eq!(alex.len(), model.len());
        for (&k, &v) in model.iter().step_by(127) {
            assert_eq!(alex.get(k), Some(v));
        }
    }

    #[test]
    fn range_matches_model() {
        let data = dataset(30_000, 7);
        let mut alex = Alex::build(&data);
        let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
        let mut rng = StdRng::seed_from_u64(8);
        for i in 0..10_000u64 {
            let k = rng.random();
            alex.insert(k, i);
            model.insert(k, i);
        }
        for _ in 0..50 {
            let lo: Key = rng.random();
            let hi = lo.saturating_add(rng.random::<u64>() >> 6);
            let got = alex.range_vec(lo, hi);
            let expect: Vec<KeyValue> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, expect, "range {lo}..={hi}");
        }
    }

    #[test]
    fn range_below_first_boundary_after_small_key_insert() {
        // Regression: every level's child 0 absorbs keys below its
        // boundary; ranges ending below the first boundary must descend
        // into it rather than break out.
        let data: Vec<KeyValue> = (0..50_000u64).map(|i| (1 << 40 | i, i)).collect();
        let mut alex = Alex::build(&data);
        alex.insert(123, 9);
        alex.insert(456, 8);
        assert_eq!(alex.range_vec(100, 500), vec![(123, 9), (456, 8)]);
        assert_eq!(alex.range_vec(0, 10), vec![]);
    }

    #[test]
    fn asymmetric_on_skewed_data() {
        // A dense cluster + a sparse tail: depths must differ.
        let mut keys: Vec<Key> = (0..80_000u64).collect();
        keys.extend((1..100u64).map(|i| (1u64 << 40) + (i << 30)));
        let data: Vec<KeyValue> = keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
        let alex = Alex::build(&data);
        alex.check_invariants();
        let dense_depth = alex.descend_only(40_000);
        let sparse_depth = alex.descend_only((1u64 << 40) + (50 << 30));
        assert!(dense_depth >= sparse_depth, "dense {dense_depth} sparse {sparse_depth}");
        for &(k, v) in data.iter().step_by(499) {
            assert_eq!(alex.get(k), Some(v));
        }
    }

    #[test]
    fn empty_and_tiny() {
        let mut alex = Alex::new();
        assert!(alex.is_empty());
        assert_eq!(alex.get(1), None);
        assert_eq!(alex.remove(1), None);
        alex.insert(5, 50);
        assert_eq!(alex.get(5), Some(50));
        assert_eq!(alex.insert(5, 51), Some(50));
        assert_eq!(alex.len(), 1);
        let alex2 = Alex::build(&[]);
        assert!(alex2.is_empty());
    }

    #[test]
    fn tiny_index_size() {
        // The paper's Table III: ALEX's structure is strikingly small.
        let data = dataset(200_000, 9);
        let alex = Alex::build(&data);
        assert!(alex.index_size_bytes() * 20 < alex.data_size_bytes());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn matches_btreemap(
            seed in 0u64..500,
            ops in 200usize..600,
        ) {
            let data: Vec<KeyValue> = (0..300u64).map(|i| (i * 7, i)).collect();
            let mut alex = Alex::build_with(
                AlexConfig { bulk_leaf_keys: 64, max_data_node_keys: 256, ..AlexConfig::default() },
                &data,
            );
            let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
            let mut rng = StdRng::seed_from_u64(seed);
            for n in 0..ops as u64 {
                let k = rng.random_range(0..3_000u64);
                if rng.random_bool(0.7) {
                    proptest::prop_assert_eq!(alex.insert(k, n), model.insert(k, n));
                } else {
                    proptest::prop_assert_eq!(alex.remove(k), model.remove(&k));
                }
            }
            alex.check_invariants();
            proptest::prop_assert_eq!(alex.len(), model.len());
            let got = alex.range_vec(0, u64::MAX);
            let expect: Vec<KeyValue> = model.iter().map(|(&k, &v)| (k, v)).collect();
            proptest::prop_assert_eq!(got, expect);
        }
    }
}
