//! # li-fiting — FITing-tree (Galakatos et al., SIGMOD'19; §II-B1)
//!
//! FITing-tree = bounded-error PLA segmentation + a B+tree inner structure
//! over segment boundary keys + per-leaf insert space, with "retrain one
//! node" on overflow. Those are exactly four pieces from
//! [`li_core::pieces`], so this crate *assembles* the index rather than
//! re-implementing it — the paper's own observation that existing learned
//! indexes are points in an orthogonal design space (§IV).
//!
//! Following §III-A1, the default segmentation is PGM's Opt-PLA rather
//! than the original greedy FSW ("the approximation algorithm of PGM-Index
//! was proved to be theoretically better"); the greedy variant remains
//! available through [`FitingConfig::use_greedy_fsw`].
//!
//! Both insert strategies of the paper are provided:
//! * [`FitingTree::new_inplace`] — "FITing-tree-inp": reserved headroom at
//!   both leaf ends, shifting on insert.
//! * [`FitingTree::new_buffered`] — "FITing-tree-buf": per-leaf off-site
//!   buffer merged on overflow.

#![forbid(unsafe_code)]

use li_core::approx::ApproxAlgorithm;
use li_core::pieces::assembled::{PiecewiseConfig, PiecewiseIndex};
use li_core::pieces::insertion::LeafKind;
use li_core::pieces::retrain::RetrainPolicy;
use li_core::pieces::structure::StructureKind;
use li_core::traits::{
    BulkBuildIndex, DepthStats, Index, OrderedIndex, TwoPhaseLookup, UpdatableIndex,
};
use li_core::{Key, KeyValue, Value};

/// Which of the paper's two insert strategies a tree uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertStrategy {
    /// Reserved space at both leaf ends (§II-B1 "inplace").
    Inplace,
    /// Off-site per-leaf buffer (§II-B1 "buffer-based offsite").
    Buffered,
}

/// Build parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitingConfig {
    /// Max segmentation error.
    pub epsilon: u64,
    /// Reserved slots per leaf (per end for inplace; buffer capacity for
    /// buffered) — the knob swept in Fig. 18 (a)/(c).
    pub reserve: usize,
    pub strategy: InsertStrategy,
    /// Use the original greedy FSW instead of Opt-PLA.
    pub use_greedy_fsw: bool,
}

impl Default for FitingConfig {
    fn default() -> Self {
        FitingConfig {
            epsilon: 64,
            reserve: 256,
            strategy: InsertStrategy::Buffered,
            use_greedy_fsw: false,
        }
    }
}

/// The FITing-tree index.
pub struct FitingTree {
    inner: PiecewiseIndex,
    strategy: InsertStrategy,
}

impl FitingTree {
    /// Assembles the piecewise configuration for `config`.
    fn piecewise_config(config: FitingConfig) -> PiecewiseConfig {
        let algo = if config.use_greedy_fsw {
            ApproxAlgorithm::Fsw { epsilon: config.epsilon }
        } else {
            ApproxAlgorithm::OptPla { epsilon: config.epsilon }
        };
        let leaf = match config.strategy {
            InsertStrategy::Inplace => LeafKind::Inplace { reserve: config.reserve },
            InsertStrategy::Buffered => LeafKind::Buffer { reserve: config.reserve },
        };
        PiecewiseConfig {
            algo,
            structure: StructureKind::BTree,
            leaf,
            policy: RetrainPolicy::ResegmentLeaf,
        }
    }

    pub fn build_with(config: FitingConfig, data: &[KeyValue]) -> Self {
        FitingTree {
            inner: PiecewiseIndex::build_with(Self::piecewise_config(config), data),
            strategy: config.strategy,
        }
    }

    /// Inplace variant with default parameters.
    pub fn new_inplace(data: &[KeyValue]) -> Self {
        Self::build_with(
            FitingConfig { strategy: InsertStrategy::Inplace, ..FitingConfig::default() },
            data,
        )
    }

    /// Buffered variant with default parameters.
    pub fn new_buffered(data: &[KeyValue]) -> Self {
        Self::build_with(
            FitingConfig { strategy: InsertStrategy::Buffered, ..FitingConfig::default() },
            data,
        )
    }

    pub fn strategy(&self) -> InsertStrategy {
        self.strategy
    }
}

impl Index for FitingTree {
    fn name(&self) -> &'static str {
        match self.strategy {
            InsertStrategy::Inplace => "FITing-tree-inp",
            InsertStrategy::Buffered => "FITing-tree-buf",
        }
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn get(&self, key: Key) -> Option<Value> {
        self.inner.get(key)
    }

    fn index_size_bytes(&self) -> usize {
        self.inner.index_size_bytes()
    }

    fn data_size_bytes(&self) -> usize {
        self.inner.data_size_bytes()
    }

    fn depth_stats(&self) -> Option<&dyn DepthStats> {
        Some(self)
    }

    fn set_recorder(&mut self, recorder: li_core::telemetry::Recorder) {
        self.inner.set_recorder(recorder);
    }
}

impl OrderedIndex for FitingTree {
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        self.inner.range(lo, hi, out);
    }
}

impl UpdatableIndex for FitingTree {
    fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
        self.inner.insert(key, value)
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        self.inner.remove(key)
    }

    fn set_defer_retrains(&mut self, on: bool) -> bool {
        self.inner.set_defer_retrains(on)
    }

    fn pending_retrains(&self) -> usize {
        self.inner.pending_retrains()
    }

    fn run_pending_retrains(&mut self, budget: usize) -> usize {
        self.inner.run_pending_retrains(budget)
    }
}

impl BulkBuildIndex for FitingTree {
    fn build(data: &[KeyValue]) -> Self {
        Self::new_buffered(data)
    }
}

impl DepthStats for FitingTree {
    fn avg_depth(&self) -> f64 {
        self.inner.avg_depth()
    }

    fn leaf_count(&self) -> usize {
        self.inner.leaf_count()
    }
}

impl TwoPhaseLookup for FitingTree {
    fn locate_leaf(&self, key: Key) -> usize {
        self.inner.locate_leaf(key)
    }

    fn search_leaf(&self, leaf: usize, key: Key) -> Option<Value> {
        self.inner.search_leaf(leaf, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use li_core::telemetry::{Event, Recorder};
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
    fn both_variants_build_and_get() {
        let data = dataset(50_000, 1);
        for tree in [FitingTree::new_inplace(&data), FitingTree::new_buffered(&data)] {
            assert_eq!(tree.len(), data.len(), "{}", tree.name());
            for &(k, v) in data.iter().step_by(173) {
                assert_eq!(tree.get(k), Some(v), "{} key {k}", tree.name());
            }
            assert!(tree.leaf_count() > 1);
            assert!(tree.avg_depth() >= 1.0);
        }
    }

    #[test]
    fn inserts_match_model_both_variants() {
        let data = dataset(5_000, 2);
        for strategy in [InsertStrategy::Inplace, InsertStrategy::Buffered] {
            let cfg = FitingConfig { strategy, reserve: 32, ..FitingConfig::default() };
            let mut tree = FitingTree::build_with(cfg, &data);
            let rec = Recorder::enabled();
            tree.set_recorder(rec.clone());
            let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
            let mut rng = StdRng::seed_from_u64(3);
            for i in 0..20_000u64 {
                let k = rng.random();
                assert_eq!(tree.insert(k, i), model.insert(k, i), "{strategy:?}");
            }
            assert_eq!(tree.len(), model.len());
            for (&k, &v) in model.iter().step_by(211) {
                assert_eq!(tree.get(k), Some(v), "{strategy:?}");
            }
            assert!(rec.event_count(Event::Retrain) > 0, "{strategy:?} should have retrained");
        }
    }

    #[test]
    fn inplace_moves_more_than_buffered() {
        // Fig. 18 (a)'s ordering: inplace shifts stored keys, buffered
        // mostly shifts within its small buffer. Each insert's shifts
        // reach `KeyShift` as it makes them.
        let data = dataset(20_000, 4);
        let mk = |strategy| {
            let mut tree = FitingTree::build_with(
                FitingConfig { strategy, reserve: 128, ..FitingConfig::default() },
                &data,
            );
            let rec = Recorder::enabled();
            tree.set_recorder(rec.clone());
            (tree, rec)
        };
        let (mut inp, inp_rec) = mk(InsertStrategy::Inplace);
        let (mut buf, buf_rec) = mk(InsertStrategy::Buffered);
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..20_000u64 {
            let k = rng.random();
            inp.insert(k, i);
            buf.insert(k, i);
        }
        let (mi, mb) = (inp_rec.event_count(Event::KeyShift), buf_rec.event_count(Event::KeyShift));
        assert!(mi > mb, "inplace moves {mi} <= buffered moves {mb}");
    }

    #[test]
    fn greedy_fsw_variant_works() {
        let data = dataset(20_000, 6);
        let cfg = FitingConfig { use_greedy_fsw: true, ..FitingConfig::default() };
        let tree = FitingTree::build_with(cfg, &data);
        for &(k, v) in data.iter().step_by(379) {
            assert_eq!(tree.get(k), Some(v));
        }
    }

    #[test]
    fn range_and_remove() {
        let data: Vec<KeyValue> = (0..10_000u64).map(|i| (i * 5, i)).collect();
        let mut tree = FitingTree::new_buffered(&data);
        assert_eq!(tree.range_vec(12, 27), vec![(15, 3), (20, 4), (25, 5)]);
        assert_eq!(tree.remove(15), Some(3));
        assert_eq!(tree.remove(15), None);
        assert_eq!(tree.range_vec(12, 27), vec![(20, 4), (25, 5)]);
        assert_eq!(tree.len(), 9_999);
    }

    #[test]
    fn names() {
        let inp = FitingTree::new_inplace(&[]);
        let buf = FitingTree::new_buffered(&[]);
        assert_eq!(inp.name(), "FITing-tree-inp");
        assert_eq!(buf.name(), "FITing-tree-buf");
    }
}
