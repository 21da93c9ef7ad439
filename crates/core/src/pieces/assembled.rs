//! A full updatable learned index assembled from the four pieces.
//!
//! [`PiecewiseIndex`] composes an approximation algorithm, an inner
//! structure, a leaf insertion strategy and a retraining policy — any of
//! the 4 × 4 × 3 × 2 combinations. The existing indexes fall out as special
//! cases (e.g. Opt-PLA + LRS + Buffer ≈ PGM; LSA + ATS + Gapped + expand ≈
//! ALEX), and novel combinations the paper speculates about in §V (e.g.
//! Opt-PLA + ATS + Gapped) can be built and measured directly.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use crate::approx::ApproxAlgorithm;
use crate::model::LinearModel;
use crate::pieces::insertion::{count_shifts, InsertOutcome, Leaf, LeafKind, LeafStorage};
use crate::pieces::retrain::RetrainPolicy;
use crate::pieces::structure::{InnerStructure, StructureKind};
use crate::traits::{DepthStats, Index, OrderedIndex, TwoPhaseLookup, UpdatableIndex};
use crate::types::{Key, KeyValue, Value};
use li_telemetry::{Event, Recorder};

/// Configuration choosing one point in the paper's design space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiecewiseConfig {
    pub algo: ApproxAlgorithm,
    pub structure: StructureKind,
    pub leaf: LeafKind,
    pub policy: RetrainPolicy,
}

impl Default for PiecewiseConfig {
    /// A strong default per §V's suggestions: bounded-error segmentation,
    /// asymmetric-tree routing, gapped leaves with expand-or-split.
    fn default() -> Self {
        PiecewiseConfig {
            algo: ApproxAlgorithm::OptPla { epsilon: 32 },
            structure: StructureKind::Ats,
            leaf: LeafKind::Gapped { density: 0.7, max_density: 0.85 },
            policy: RetrainPolicy::ExpandOrSplit { expand_factor: 1.5, split_error_threshold: 8.0 },
        }
    }
}

/// The assembled learned index.
pub struct PiecewiseIndex {
    cfg: PiecewiseConfig,
    /// Leaves in key order.
    leaves: Vec<Leaf>,
    /// Routing key of each leaf (boundary; every key in leaf `i` is
    /// `>= first_keys[i]`, except in leaf 0 which also absorbs smaller
    /// keys).
    first_keys: Vec<Key>,
    inner: Box<dyn InnerStructure>,
    len: usize,
    recorder: Recorder,
    /// Deferred-retrain mode: inserts that would trigger a retrain park
    /// the key in `overflow` and enqueue the leaf instead of blocking.
    defer_retrains: bool,
    /// Keys awaiting a background retrain. Invariant: a key is never in
    /// both a leaf and the overflow buffer, so reads stay exact.
    overflow: BTreeMap<Key, Value>,
    /// Routing boundaries (`first_keys[li]` at enqueue time) of leaves
    /// with parked keys — the retrain work queue.
    pending_leaves: BTreeSet<Key>,
}

impl PiecewiseIndex {
    /// Bulk-builds from strictly-ascending pairs.
    pub fn build_with(cfg: PiecewiseConfig, data: &[KeyValue]) -> Self {
        let keys: Vec<Key> = data.iter().map(|kv| kv.0).collect();
        let segments = cfg.algo.segment(&keys);
        let mut leaves = Vec::with_capacity(segments.len());
        let mut first_keys = Vec::with_capacity(segments.len());
        for s in &segments {
            let local = s.model.shifted(-(s.start as f64));
            leaves.push(cfg.leaf.build(&data[s.start..s.start + s.len], local, s.max_error));
            first_keys.push(s.first_key);
        }
        let inner = cfg.structure.build_dyn(&first_keys);
        PiecewiseIndex {
            cfg,
            leaves,
            first_keys,
            inner,
            len: data.len(),
            recorder: Recorder::disabled(),
            defer_retrains: false,
            overflow: BTreeMap::new(),
            pending_leaves: BTreeSet::new(),
        }
    }

    /// The configuration this index was assembled from.
    pub fn config(&self) -> PiecewiseConfig {
        self.cfg
    }

    #[inline]
    fn leaf_for(&self, key: Key) -> usize {
        self.inner.locate(key)
    }

    /// Rebuilds leaf `li` after an overflow, inserting `pending` in the
    /// process. May replace the leaf with several leaves (split) and
    /// rebuild the inner structure.
    fn retrain_leaf(&mut self, li: usize, pending: KeyValue) {
        self.retrain_leaf_with(li, &[pending]);
    }

    /// Like [`Self::retrain_leaf`] but merges a sorted batch of pending
    /// keys (none of which may already live in the leaf) — the drain path
    /// of deferred retraining.
    fn retrain_leaf_with(&mut self, li: usize, pending: &[KeyValue]) {
        let t0 = Instant::now();
        let mut data = self.leaves[li].to_sorted_vec();
        for &kv in pending {
            let pos = data.partition_point(|x| x.0 < kv.0);
            debug_assert!(data.get(pos).is_none_or(|x| x.0 != kv.0));
            data.insert(pos, kv);
        }
        if data.is_empty() {
            return;
        }
        let keys_involved = data.len() as u64;

        let mut new_leaves: Vec<(Key, Leaf)> = match self.cfg.policy {
            RetrainPolicy::ResegmentLeaf => self.resegment(&data),
            RetrainPolicy::ExpandOrSplit { expand_factor, split_error_threshold } => {
                self.expand_or_split(&data, expand_factor, split_error_threshold)
            }
        };
        // The first replacement leaf keeps the old routing boundary: the
        // inner structure is only rebuilt on structural change, and the
        // boundary invariant (every key in leaf i is >= first_keys[i])
        // continues to hold because all retrained keys were routed here.
        new_leaves[0].0 = new_leaves[0].0.min(self.first_keys[li]);

        let structural_change = new_leaves.len() != 1;
        let mut keys_iter = Vec::with_capacity(new_leaves.len());
        let mut leaf_iter = Vec::with_capacity(new_leaves.len());
        for (k, l) in new_leaves {
            keys_iter.push(k);
            leaf_iter.push(l);
        }
        self.first_keys.splice(li..=li, keys_iter);
        self.leaves.splice(li..=li, leaf_iter);
        if structural_change {
            self.inner = self.cfg.structure.build_dyn(&self.first_keys);
        }
        // Telemetry: every retrain leaves a strategy-specific fingerprint.
        self.recorder.retrained(t0, keys_involved);
        if matches!(self.cfg.leaf, LeafKind::Buffer { .. }) {
            // The retired leaf's off-site buffer was merged into the
            // rebuilt base model.
            self.recorder.event(Event::BufferFlush);
        }
        if structural_change {
            self.recorder.event(Event::SplitNode);
        } else if matches!(self.cfg.policy, RetrainPolicy::ExpandOrSplit { .. }) {
            self.recorder.event(Event::ExpandNode);
        }
    }

    /// FITing-tree / XIndex style: re-run the approximation algorithm over
    /// the leaf's keys and build one leaf per resulting segment.
    fn resegment(&self, data: &[KeyValue]) -> Vec<(Key, Leaf)> {
        let keys: Vec<Key> = data.iter().map(|kv| kv.0).collect();
        let segments = self.cfg.algo.segment(&keys);
        segments
            .iter()
            .map(|s| {
                let local = s.model.shifted(-(s.start as f64));
                (
                    s.first_key,
                    self.cfg.leaf.build(&data[s.start..s.start + s.len], local, s.max_error),
                )
            })
            .collect()
    }

    /// Hard node-size cap for the expand-or-split policy.
    const MAX_EXPAND_KEYS: usize = 16 * 1024;

    /// ALEX style: rebuild in place (expansion) while a single model still
    /// serves the leaf well; split into two leaves otherwise.
    ///
    /// The dense fit's mean error is the criterion for every leaf kind:
    /// for dense leaves it bounds the search window, and for gapped leaves
    /// it determines how long the gapless runs of a model-based layout get
    /// — and with them the shift cost per insert. A small floor prevents
    /// split churn on noisy fits of tiny leaves.
    fn expand_or_split(
        &self,
        data: &[KeyValue],
        _expand_factor: f64,
        split_error_threshold: f64,
    ) -> Vec<(Key, Leaf)> {
        let keys: Vec<Key> = data.iter().map(|kv| kv.0).collect();
        let model = LinearModel::fit_least_squares(&keys);
        let (_, avg_err) = model.errors(&keys);
        if (avg_err <= split_error_threshold || data.len() <= 512)
            && data.len() <= Self::MAX_EXPAND_KEYS
        {
            // Expand: one fresh leaf over all keys (gap leaves regain their
            // target density; inplace/buffer leaves get fresh reserves).
            let (max_err, _) = model.errors(&keys);
            vec![(keys[0], self.cfg.leaf.build(data, model, max_err.ceil() as u64))]
        } else {
            // Split in half.
            let mid = data.len() / 2;
            [&data[..mid], &data[mid..]]
                .into_iter()
                .map(|chunk| {
                    let ck: Vec<Key> = chunk.iter().map(|kv| kv.0).collect();
                    let m = LinearModel::fit_least_squares(&ck);
                    let (max_err, _) = m.errors(&ck);
                    (ck[0], self.cfg.leaf.build(chunk, m, max_err.ceil() as u64))
                })
                .collect()
        }
    }
}

impl Index for PiecewiseIndex {
    fn name(&self) -> &'static str {
        "Piecewise"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, key: Key) -> Option<Value> {
        if self.leaves.is_empty() {
            return None;
        }
        self.leaves[self.leaf_for(key)].get(key).or_else(|| self.overflow.get(&key).copied())
    }

    fn index_size_bytes(&self) -> usize {
        self.inner.size_bytes() + self.first_keys.len() * core::mem::size_of::<Key>()
    }

    fn data_size_bytes(&self) -> usize {
        self.leaves.iter().map(super::insertion::LeafStorage::data_size_bytes).sum::<usize>()
            + self.overflow.len() * core::mem::size_of::<KeyValue>()
    }

    fn depth_stats(&self) -> Option<&dyn DepthStats> {
        Some(self)
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }
}

impl OrderedIndex for PiecewiseIndex {
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        if self.leaves.is_empty() || lo > hi {
            return;
        }
        // The starting leaf must be scanned unconditionally: leaf 0 (and
        // a retrained leaf that kept an older boundary) can hold keys
        // below its routing key, so `first_keys[start] > hi` does not
        // imply emptiness of the requested range.
        let appended_at = out.len();
        let start = self.leaf_for(lo);
        let mut li = start;
        while li < self.leaves.len() {
            if li > start && self.first_keys[li] > hi {
                break;
            }
            self.leaves[li].range_into(lo, hi, out);
            li += 1;
        }
        if !self.overflow.is_empty() {
            let extra: Vec<KeyValue> =
                self.overflow.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            if !extra.is_empty() {
                // Merge the parked keys into what this call appended; the
                // two runs are sorted and key-disjoint.
                let tail = out.split_off(appended_at);
                let (mut a, mut b) = (tail.into_iter().peekable(), extra.into_iter().peekable());
                loop {
                    match (a.peek(), b.peek()) {
                        (Some(x), Some(y)) => {
                            if x.0 < y.0 {
                                out.push(a.next().unwrap());
                            } else {
                                out.push(b.next().unwrap());
                            }
                        }
                        (Some(_), None) => out.push(a.next().unwrap()),
                        (None, Some(_)) => out.push(b.next().unwrap()),
                        (None, None) => break,
                    }
                }
            }
        }
    }
}

impl UpdatableIndex for PiecewiseIndex {
    fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
        if self.leaves.is_empty() {
            let leaf = self.cfg.leaf.build(&[(key, value)], LinearModel::default(), 0);
            self.leaves.push(leaf);
            self.first_keys.push(key);
            self.inner = self.cfg.structure.build_dyn(&self.first_keys);
            self.len = 1;
            return None;
        }
        // A parked key must be updated in place: letting it re-enter a
        // leaf would leave a stale twin in the overflow buffer.
        if self.defer_retrains && self.overflow.contains_key(&key) {
            return self.overflow.insert(key, value);
        }
        let li = self.leaf_for(key);
        match count_shifts(&mut self.leaves[li], &self.recorder, |l| l.insert(key, value)) {
            InsertOutcome::Inserted => {
                self.len += 1;
                None
            }
            InsertOutcome::Replaced(old) => Some(old),
            InsertOutcome::NeedsRetrain => {
                if self.defer_retrains {
                    self.overflow.insert(key, value);
                    self.pending_leaves.insert(self.first_keys[li]);
                    self.recorder.event(Event::RetrainDeferred);
                } else {
                    self.retrain_leaf(li, (key, value));
                }
                self.len += 1;
                None
            }
        }
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        if !self.overflow.is_empty() {
            if let Some(old) = self.overflow.remove(&key) {
                self.len -= 1;
                return Some(old);
            }
        }
        if self.leaves.is_empty() {
            return None;
        }
        let li = self.leaf_for(key);
        let old = count_shifts(&mut self.leaves[li], &self.recorder, |l| l.remove(key));
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    fn set_defer_retrains(&mut self, on: bool) -> bool {
        if !on && self.defer_retrains {
            // Leaving deferred mode flushes all parked work so the index
            // returns to its fully-trained invariant.
            self.run_pending_retrains(usize::MAX);
        }
        self.defer_retrains = on;
        true
    }

    fn pending_retrains(&self) -> usize {
        self.pending_leaves.len()
    }

    fn run_pending_retrains(&mut self, budget: usize) -> usize {
        let mut done = 0;
        while done < budget {
            let Some(&boundary) = self.pending_leaves.iter().next() else { break };
            self.pending_leaves.remove(&boundary);
            if !self.drain_leaf_at(boundary) {
                continue; // already drained via a sibling marker
            }
            done += 1;
        }
        // Belt-and-braces: overflow keys can outlive their marker if a
        // sibling drain restructured routing first; sweep them too.
        while done < budget && self.pending_leaves.is_empty() && !self.overflow.is_empty() {
            let &straggler = self.overflow.keys().next().unwrap();
            if self.drain_leaf_at(straggler) {
                done += 1;
            } else {
                break;
            }
        }
        done
    }
}

impl PiecewiseIndex {
    /// Drains every parked key currently routed to `probe`'s leaf into a
    /// single batched retrain. Returns false when nothing was parked there.
    fn drain_leaf_at(&mut self, probe: Key) -> bool {
        if self.leaves.is_empty() {
            return false;
        }
        let li = self.leaf_for(probe);
        let pending: Vec<KeyValue> = self
            .overflow
            .iter()
            .map(|(&k, &v)| (k, v))
            .filter(|kv| self.leaf_for(kv.0) == li)
            .collect();
        if pending.is_empty() {
            return false;
        }
        for kv in &pending {
            self.overflow.remove(&kv.0);
        }
        self.retrain_leaf_with(li, &pending);
        true
    }
}

impl DepthStats for PiecewiseIndex {
    fn avg_depth(&self) -> f64 {
        self.inner.avg_depth()
    }

    fn leaf_count(&self) -> usize {
        self.leaves.len()
    }
}

impl TwoPhaseLookup for PiecewiseIndex {
    fn locate_leaf(&self, key: Key) -> usize {
        self.leaf_for(key)
    }

    fn search_leaf(&self, leaf: usize, key: Key) -> Option<Value> {
        self.leaves[leaf].get(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    use std::collections::BTreeMap;

    fn sorted_data(n: u64, stride: u64, offset: u64) -> Vec<KeyValue> {
        (0..n).map(|i| (i * stride + offset, i)).collect()
    }

    fn all_configs() -> Vec<PiecewiseConfig> {
        let mut out = Vec::new();
        for algo in [
            ApproxAlgorithm::OptPla { epsilon: 16 },
            ApproxAlgorithm::Fsw { epsilon: 16 },
            ApproxAlgorithm::Lsa { seg_size: 128 },
        ] {
            for structure in StructureKind::ALL {
                for leaf in [
                    LeafKind::Inplace { reserve: 32 },
                    LeafKind::Buffer { reserve: 32 },
                    LeafKind::Gapped { density: 0.7, max_density: 0.85 },
                ] {
                    for policy in [
                        RetrainPolicy::ResegmentLeaf,
                        RetrainPolicy::ExpandOrSplit {
                            expand_factor: 1.5,
                            split_error_threshold: 8.0,
                        },
                    ] {
                        out.push(PiecewiseConfig { algo, structure, leaf, policy });
                    }
                }
            }
        }
        out
    }

    #[test]
    fn shifts_are_counted_without_a_retrain() {
        let cfg = PiecewiseConfig {
            algo: ApproxAlgorithm::OptPla { epsilon: 16 },
            structure: StructureKind::BTree,
            leaf: LeafKind::Inplace { reserve: 32 },
            policy: RetrainPolicy::ResegmentLeaf,
        };
        let mut idx = PiecewiseIndex::build_with(cfg, &sorted_data(1_000, 10, 0));
        let rec = Recorder::enabled();
        idx.set_recorder(rec.clone());
        for k in [4_005, 4_015, 4_025] {
            assert_eq!(idx.insert(k, k), None);
        }
        let inserted = rec.event_count(Event::KeyShift);
        assert!(inserted > 0, "inserts into a full run shifted no keys");
        assert_eq!(idx.remove(4_015), Some(4_015));
        assert!(rec.event_count(Event::KeyShift) > inserted, "the remove's shifts were lost");
        assert_eq!(rec.event_count(Event::Retrain), 0);
    }

    #[test]
    fn build_and_get_every_combination() {
        let data = sorted_data(3_000, 7, 5);
        for cfg in all_configs() {
            let idx = PiecewiseIndex::build_with(cfg, &data);
            assert_eq!(idx.len(), data.len(), "{cfg:?}");
            for &(k, v) in data.iter().step_by(17) {
                assert_eq!(idx.get(k), Some(v), "{cfg:?} key {k}");
            }
            assert_eq!(idx.get(3), None, "{cfg:?}");
            assert!(idx.leaf_count() >= 1);
            assert!(idx.avg_depth() >= 1.0);
        }
    }

    #[test]
    fn insert_heavy_random_workload_matches_model() {
        let data = sorted_data(500, 10, 0);
        // Exercise one representative config per leaf kind.
        let configs = [
            PiecewiseConfig {
                algo: ApproxAlgorithm::OptPla { epsilon: 8 },
                structure: StructureKind::BTree,
                leaf: LeafKind::Buffer { reserve: 16 },
                policy: RetrainPolicy::ResegmentLeaf,
            },
            PiecewiseConfig {
                algo: ApproxAlgorithm::Fsw { epsilon: 8 },
                structure: StructureKind::Lrs,
                leaf: LeafKind::Inplace { reserve: 16 },
                policy: RetrainPolicy::ResegmentLeaf,
            },
            PiecewiseConfig::default(),
        ];
        for cfg in configs {
            let mut idx = PiecewiseIndex::build_with(cfg, &data);
            let rec = Recorder::enabled();
            idx.set_recorder(rec.clone());
            let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
            let mut rng = StdRng::seed_from_u64(123);
            for n in 0..20_000u64 {
                let k = rng.random_range(0..20_000u64);
                let expect = model.insert(k, n);
                let got = idx.insert(k, n);
                assert_eq!(got, expect, "{cfg:?} insert {k}");
            }
            assert_eq!(idx.len(), model.len(), "{cfg:?}");
            for (&k, &v) in model.iter().step_by(11) {
                assert_eq!(idx.get(k), Some(v), "{cfg:?} get {k}");
            }
            // Retrains must have happened under this much churn.
            assert!(rec.event_count(Event::Retrain) > 0, "{cfg:?}");
        }
    }

    #[test]
    fn range_scan_after_inserts() {
        let data = sorted_data(1_000, 4, 2);
        let mut idx = PiecewiseIndex::build_with(PiecewiseConfig::default(), &data);
        let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
        let mut rng = StdRng::seed_from_u64(9);
        for n in 0..3_000u64 {
            let k = rng.random_range(0..5_000u64);
            idx.insert(k, n);
            model.insert(k, n);
        }
        for _ in 0..50 {
            let lo = rng.random_range(0..4_000u64);
            let hi = lo + rng.random_range(0..1_000u64);
            let got = idx.range_vec(lo, hi);
            let expect: Vec<KeyValue> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, expect, "range {lo}..={hi}");
        }
    }

    #[test]
    fn remove_everything() {
        let data = sorted_data(2_000, 3, 1);
        let mut idx = PiecewiseIndex::build_with(PiecewiseConfig::default(), &data);
        for &(k, v) in &data {
            assert_eq!(idx.remove(k), Some(v));
            assert_eq!(idx.remove(k), None);
        }
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.get(3), None);
    }

    #[test]
    fn grow_from_empty() {
        let mut idx = PiecewiseIndex::build_with(PiecewiseConfig::default(), &[]);
        assert!(idx.is_empty());
        assert_eq!(idx.get(1), None);
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(31);
        for n in 0..5_000u64 {
            let k: Key = rng.random_range(0..1 << 48);
            idx.insert(k, n);
            model.insert(k, n);
        }
        assert_eq!(idx.len(), model.len());
        for (&k, &v) in model.iter().step_by(7) {
            assert_eq!(idx.get(k), Some(v));
        }
    }

    #[test]
    fn descending_inserts() {
        let mut idx = PiecewiseIndex::build_with(PiecewiseConfig::default(), &[]);
        for k in (0..5_000u64).rev() {
            idx.insert(k * 2, k);
        }
        assert_eq!(idx.len(), 5_000);
        assert_eq!(idx.get(0), Some(0));
        assert_eq!(idx.get(9_998), Some(4_999));
        assert_eq!(idx.get(9_999), None);
    }

    #[test]
    fn range_below_first_boundary_after_small_key_insert() {
        // Regression: leaf 0 absorbs keys below its routing boundary; a
        // range whose hi sits below that boundary must still scan leaf 0.
        let data: Vec<KeyValue> = (0..1_000u64).map(|i| (1 << 40 | i, i)).collect();
        let mut idx = PiecewiseIndex::build_with(PiecewiseConfig::default(), &data);
        idx.insert(123, 9);
        idx.insert(456, 8);
        assert_eq!(idx.range_vec(100, 500), vec![(123, 9), (456, 8)]);
        assert_eq!(idx.range_vec(0, 10), vec![]);
        assert_eq!(idx.get(123), Some(9));
    }

    #[test]
    fn deferred_retrains_stay_correct_and_drain() {
        let data = sorted_data(500, 10, 0);
        let mut idx = PiecewiseIndex::build_with(PiecewiseConfig::default(), &data);
        let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
        let r = li_telemetry::Recorder::enabled();
        idx.set_recorder(r.clone());
        assert!(idx.set_defer_retrains(true));
        let mut rng = StdRng::seed_from_u64(77);
        for n in 0..20_000u64 {
            let k = rng.random_range(0..20_000u64);
            if rng.random_bool(0.8) {
                assert_eq!(idx.insert(k, n), model.insert(k, n), "insert {k}");
            } else {
                assert_eq!(idx.remove(k), model.remove(&k), "remove {k}");
            }
            if n % 4096 == 0 {
                idx.run_pending_retrains(2);
            }
            if n % 997 == 0 {
                assert_eq!(idx.get(k), model.get(&k).copied(), "get {k}");
            }
        }
        assert!(r.event_count(Event::RetrainDeferred) > 0, "defer mode never deferred");
        assert_eq!(idx.len(), model.len());
        // Reads and scans see parked keys exactly.
        let expect: Vec<KeyValue> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(idx.range_vec(0, u64::MAX), expect);
        // Leaving deferred mode flushes the queue and stays correct.
        assert!(idx.set_defer_retrains(false));
        assert_eq!(idx.pending_retrains(), 0);
        assert_eq!(idx.range_vec(0, u64::MAX), expect);
        for (&k, &v) in model.iter().step_by(13) {
            assert_eq!(idx.get(k), Some(v));
        }
        assert!(r.event_count(Event::Retrain) > 0);
    }

    #[test]
    fn two_phase_lookup_consistent() {
        let data = sorted_data(5_000, 5, 0);
        let idx = PiecewiseIndex::build_with(PiecewiseConfig::default(), &data);
        for &(k, v) in data.iter().step_by(97) {
            let leaf = idx.locate_leaf(k);
            assert_eq!(idx.search_leaf(leaf, k), Some(v));
        }
    }

    #[test]
    fn sizes_reported() {
        let data = sorted_data(10_000, 2, 0);
        let idx = PiecewiseIndex::build_with(PiecewiseConfig::default(), &data);
        assert!(idx.index_size_bytes() > 0);
        assert!(idx.data_size_bytes() >= data.len() * core::mem::size_of::<KeyValue>());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn piecewise_matches_btreemap(
            seed in 0u64..1000,
            ops in 100usize..800,
        ) {
            let data = sorted_data(200, 6, 3);
            let mut idx = PiecewiseIndex::build_with(PiecewiseConfig::default(), &data);
            let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
            let mut rng = StdRng::seed_from_u64(seed);
            for n in 0..ops as u64 {
                let k = rng.random_range(0..2_000u64);
                if rng.random_bool(0.7) {
                    proptest::prop_assert_eq!(idx.insert(k, n), model.insert(k, n));
                } else {
                    proptest::prop_assert_eq!(idx.remove(k), model.remove(&k));
                }
            }
            proptest::prop_assert_eq!(idx.len(), model.len());
            let got = idx.range_vec(0, u64::MAX);
            let expect: Vec<KeyValue> = model.iter().map(|(&k, &v)| (k, v)).collect();
            proptest::prop_assert_eq!(got, expect);
        }
    }
}
