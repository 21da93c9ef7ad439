//! Inner index structures (§IV-B, Fig. 17 (c)).
//!
//! An inner structure routes a key to the leaf (segment) that may contain
//! it. The four structures evaluated by the paper are implemented over the
//! same interface so they can be swapped freely:
//!
//! * [`BTreeInner`] — comparison-based B+tree levels (FITing-tree).
//! * [`RmiInner`] — two-layer recursive model index (XIndex's root).
//! * [`LrsInner`] — linear recursive structure: Opt-PLA applied to its own
//!   segment keys until one segment remains (PGM-Index).
//! * [`AtsInner`] — asymmetric tree with model-routed internal nodes and
//!   variable leaf depth (ALEX).
//!
//! `locate(key)` returns the index of the last leaf whose first key is
//! `<= key` (0 when the key precedes every leaf), which is the contract the
//! assembled index and all benchmarks rely on.

use crate::approx::optpla::segment_opt_pla;
use crate::model::LinearModel;
use crate::search::{bounded_last_le, widening_last_le};
use crate::types::Key;

/// Common interface of all inner structures.
pub trait InnerStructure: Send + Sync {
    /// Builds over the sorted, distinct first keys of the leaves.
    fn build(first_keys: &[Key]) -> Self
    where
        Self: Sized;

    /// Index of the last leaf with `first_key <= key`, clamped to 0.
    fn locate(&self, key: Key) -> usize;

    /// Bytes used by the structure.
    fn size_bytes(&self) -> usize;

    /// Mean root-to-leaf hop count.
    fn avg_depth(&self) -> f64;

    fn name(&self) -> &'static str;
}

/// Runtime selector for benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureKind {
    BTree,
    Rmi,
    Lrs,
    Ats,
}

impl StructureKind {
    pub const ALL: [StructureKind; 4] =
        [StructureKind::BTree, StructureKind::Rmi, StructureKind::Lrs, StructureKind::Ats];

    pub fn name(&self) -> &'static str {
        match self {
            StructureKind::BTree => "BTREE",
            StructureKind::Rmi => "RMI",
            StructureKind::Lrs => "LRS",
            StructureKind::Ats => "ATS",
        }
    }

    /// Builds the selected structure behind a trait object.
    pub fn build_dyn(&self, first_keys: &[Key]) -> Box<dyn InnerStructure> {
        match self {
            StructureKind::BTree => Box::new(BTreeInner::build(first_keys)),
            StructureKind::Rmi => Box::new(RmiInner::build(first_keys)),
            StructureKind::Lrs => Box::new(LrsInner::build(first_keys)),
            StructureKind::Ats => Box::new(AtsInner::build(first_keys)),
        }
    }
}

// ---------------------------------------------------------------------------
// BTREE
// ---------------------------------------------------------------------------

/// Static B+tree levels with comparison-based descent (fanout
/// [`BTreeInner::FANOUT`]), modelling FITing-tree's STX-B+tree inner
/// structure: every lookup pays one node's worth of comparisons per level.
pub struct BTreeInner {
    /// `levels[0]` are the leaf first-keys; `levels[i+1]` holds every
    /// FANOUT-th key of `levels[i]`. The last level has <= FANOUT keys.
    levels: Vec<Vec<Key>>,
}

impl BTreeInner {
    pub const FANOUT: usize = 32;
}

impl InnerStructure for BTreeInner {
    fn build(first_keys: &[Key]) -> Self {
        let mut levels = vec![first_keys.to_vec()];
        while levels.last().unwrap().len() > Self::FANOUT {
            let prev = levels.last().unwrap();
            let next: Vec<Key> = prev.iter().step_by(Self::FANOUT).copied().collect();
            levels.push(next);
        }
        BTreeInner { levels }
    }

    fn locate(&self, key: Key) -> usize {
        // Descend from the top level; at each level the child index narrows
        // the window in the level below to FANOUT entries.
        let top = self.levels.len() - 1;
        let mut idx = last_le(&self.levels[top], key);
        for depth in (0..top).rev() {
            let lvl = &self.levels[depth];
            let lo = idx * Self::FANOUT;
            let hi = (lo + Self::FANOUT).min(lvl.len());
            let local = last_le(&lvl[lo..hi], key);
            idx = lo + local;
        }
        idx
    }

    fn size_bytes(&self) -> usize {
        // Inner levels only; level 0 belongs to the leaves themselves.
        self.levels[1..].iter().map(|l| l.len() * core::mem::size_of::<Key>()).sum()
    }

    fn avg_depth(&self) -> f64 {
        self.levels.len() as f64
    }

    fn name(&self) -> &'static str {
        "BTREE"
    }
}

/// Index of the last element `<= key`; 0 when all elements exceed `key`.
#[inline]
fn last_le(keys: &[Key], key: Key) -> usize {
    let ub = keys.partition_point(|&k| k <= key);
    ub.saturating_sub(1)
}

// ---------------------------------------------------------------------------
// RMI
// ---------------------------------------------------------------------------

/// Two-layer recursive model index: a root linear model dispatches to one
/// of `m` second-layer linear models, each of which predicts a leaf index
/// with a per-model error bound (correcting with bounded binary search).
pub struct RmiInner {
    first_keys: Vec<Key>,
    root: LinearModel,
    second: Vec<SecondModel>,
}

struct SecondModel {
    model: LinearModel,
    err: usize,
}

impl RmiInner {
    /// Number of leaves routed per second-layer model on average.
    const LEAVES_PER_MODEL: usize = 64;
}

impl InnerStructure for RmiInner {
    fn build(first_keys: &[Key]) -> Self {
        let n = first_keys.len();
        let m = n.div_ceil(Self::LEAVES_PER_MODEL).max(1);
        // Root: least squares over all keys, scaled to [0, m).
        let dense = LinearModel::fit_least_squares(first_keys);
        let root = if n == 0 { dense } else { dense.scaled(m as f64 / n as f64) };

        // Assign each key to a second-layer model by the root's prediction,
        // mirroring RMI's top-down training (§II-A1).
        let mut buckets: Vec<Vec<(Key, usize)>> = vec![Vec::new(); m];
        for (i, &k) in first_keys.iter().enumerate() {
            let b = root.predict_clamped(k, m);
            buckets[b].push((k, i));
        }
        let second = buckets
            .into_iter()
            .map(|b| {
                if b.is_empty() {
                    return SecondModel { model: LinearModel::default(), err: 0 };
                }
                let keys: Vec<Key> = b.iter().map(|&(k, _)| k).collect();
                let base = b[0].1;
                let local = LinearModel::fit_least_squares(&keys);
                let model = local.shifted(base as f64);
                let mut err = 0usize;
                for &(k, i) in &b {
                    let p = model.predict_clamped(k, n);
                    err = err.max(p.abs_diff(i));
                }
                SecondModel { model, err }
            })
            .collect();

        RmiInner { first_keys: first_keys.to_vec(), root, second }
    }

    fn locate(&self, key: Key) -> usize {
        let b = self.root.predict_clamped(key, self.second.len());
        let sm = &self.second[b];
        let p = sm.model.predict_clamped(key, self.first_keys.len());
        // Bounded search cannot rely on the per-model error alone for keys
        // that fall outside the model's training set (arbitrary query
        // keys), so widen until the window brackets the key.
        widening_last_le(&self.first_keys, |&k| k, key, p, sm.err + 1).unwrap_or(0)
    }

    fn size_bytes(&self) -> usize {
        core::mem::size_of::<LinearModel>()
            + self.second.len() * core::mem::size_of::<SecondModel>()
            + self.first_keys.len() * core::mem::size_of::<Key>()
    }

    fn avg_depth(&self) -> f64 {
        2.0
    }

    fn name(&self) -> &'static str {
        "RMI"
    }
}

// ---------------------------------------------------------------------------
// LRS
// ---------------------------------------------------------------------------

/// Linear recursive structure (PGM-Index, §II-B2): Opt-PLA segments over
/// a sorted key column, then Opt-PLA over *those* segments' first keys,
/// repeated until a single segment remains. Lookup descends with one
/// bounded binary search per level. This is the workspace's one
/// recursive-PLA router: Fig. 17 (c) measures it over leaf first-keys
/// (`build`, ε 4/4) and every `li-pgm` level is this structure over the
/// level's own keys (`from_keys`, ε 64/4) beside one payload column.
pub struct LrsInner {
    /// Bottom-up: `levels[0]` segments `keys`; deeper levels segment the
    /// previous level's first keys; the last level has one segment.
    levels: Vec<LrsLevel>,
    keys: Vec<Key>,
}

struct LrsLevel {
    /// First key of each segment at this level.
    seg_keys: Vec<Key>,
    segs: Vec<LrsSeg>,
}

#[derive(Clone, Copy)]
struct LrsSeg {
    model: LinearModel,
    err: u32,
    /// Position range `[start, start + len)` this segment covers in the
    /// level below; predictions are clamped into it, as PGM does, so that
    /// query keys falling in the gap after a segment's last covered key
    /// cannot push the search window out of the segment.
    start: u32,
    len: u32,
}

impl LrsLevel {
    fn segment(keys: &[Key], epsilon: u64) -> Self {
        let pieces = segment_opt_pla(keys, epsilon);
        LrsLevel {
            seg_keys: pieces.iter().map(|s| s.first_key).collect(),
            segs: pieces
                .iter()
                .map(|s| LrsSeg {
                    model: s.model,
                    err: s.max_error as u32,
                    start: s.start as u32,
                    len: s.len as u32,
                })
                .collect(),
        }
    }

    /// Position of the last element `<= key` in the level below (0 when
    /// none is), searching only segment `seg`'s clamped window.
    #[inline]
    fn last_le_below(&self, seg: usize, key: Key, below_keys: &[Key]) -> usize {
        let s = self.segs[seg];
        // The answer lies in the segment's covered positions because the
        // next segment's first key exceeds `key`. The slack of 2 covers the
        // model's monotone step to the next key plus the float-to-slot
        // truncation, which `err` (measured on the covered keys) does not.
        let p = s
            .model
            .predict_clamped(key, below_keys.len())
            .clamp(s.start as usize, (s.start + s.len - 1) as usize);
        bounded_last_le(below_keys, key, p, s.err as usize + 2)
    }
}

impl LrsInner {
    /// Builds over an owned sorted, distinct key column: `epsilon` bounds
    /// the error of the segments over `keys`, `epsilon_recursive` that of
    /// every level above.
    pub fn from_keys(keys: Vec<Key>, epsilon: u64, epsilon_recursive: u64) -> Self {
        assert!(u32::try_from(keys.len()).is_ok(), "segment positions are stored as u32");
        let mut levels = Vec::new();
        if !keys.is_empty() {
            let mut level = LrsLevel::segment(&keys, epsilon);
            while level.segs.len() > 1 {
                let above = LrsLevel::segment(&level.seg_keys, epsilon_recursive);
                levels.push(level);
                level = above;
            }
            levels.push(level);
        }
        LrsInner { levels, keys }
    }

    /// The key column the structure was built over.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Number of levels, the one segmenting `keys` included.
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Number of segments over `keys`.
    pub fn segment_count(&self) -> usize {
        self.levels.first().map_or(0, |l| l.segs.len())
    }

    /// Positions of `keys` covered by bottom-level segment `seg`.
    pub fn segment_range(&self, seg: usize) -> Option<core::ops::Range<usize>> {
        let s = self.levels.first()?.segs.get(seg)?;
        Some(s.start as usize..(s.start + s.len) as usize)
    }

    /// Bottom-level segment holding the last key `<= key` (segment 0 when
    /// `key` precedes every key): the descent without the final search.
    pub fn route(&self, key: Key) -> usize {
        let mut seg = 0;
        for depth in (1..self.levels.len()).rev() {
            seg = self.levels[depth].last_le_below(seg, key, &self.levels[depth - 1].seg_keys);
        }
        seg
    }

    /// Bytes of the segments alone, without the key column they index.
    pub fn model_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| {
                l.seg_keys.len() * core::mem::size_of::<Key>()
                    + l.segs.len() * core::mem::size_of::<LrsSeg>()
            })
            .sum()
    }
}

impl InnerStructure for LrsInner {
    fn build(first_keys: &[Key]) -> Self {
        // PGM's inner epsilon on every level; small to keep searches cheap.
        Self::from_keys(first_keys.to_vec(), 4, 4)
    }

    fn locate(&self, key: Key) -> usize {
        match self.levels.first() {
            Some(bottom) => bottom.last_le_below(self.route(key), key, &self.keys),
            None => 0,
        }
    }

    fn size_bytes(&self) -> usize {
        self.model_bytes() + self.keys.len() * core::mem::size_of::<Key>()
    }

    fn avg_depth(&self) -> f64 {
        self.height() as f64
    }

    fn name(&self) -> &'static str {
        "LRS"
    }
}

// ---------------------------------------------------------------------------
// ATS
// ---------------------------------------------------------------------------

/// Asymmetric tree structure (ALEX, §II-B3): internal nodes route purely by
/// model computation into a fanout array; leaves sit at different depths.
/// Dense regions of the key space get deeper subtrees, sparse regions
/// resolve in one hop — no comparison happens until a small terminal group.
pub struct AtsInner {
    root: AtsNode,
    n: usize,
    sum_depth: f64,
}

enum AtsNode {
    /// Model-routed internal node.
    Internal { model: LinearModel, children: Vec<AtsNode> },
    /// Terminal group: binary search among up to GROUP_CAP keys; `base` is
    /// the global index of the first key.
    Group { base: usize, keys: Vec<Key> },
}

impl AtsInner {
    const GROUP_CAP: usize = 8;
    const MAX_DEPTH: usize = 12;

    fn build_node(keys: &[Key], base: usize, depth: usize, sum_depth: &mut f64) -> AtsNode {
        if keys.len() <= Self::GROUP_CAP || depth >= Self::MAX_DEPTH {
            *sum_depth += (depth + 1) as f64 * keys.len() as f64;
            return AtsNode::Group { base, keys: keys.to_vec() };
        }
        // Fanout proportional to the population, as ALEX's fanout tree
        // would choose for a uniform cost target.
        let fanout = (keys.len() / 4).next_power_of_two().clamp(4, 1 << 16);
        let dense = LinearModel::fit_least_squares(keys);
        let model = dense.scaled(fanout as f64 / keys.len() as f64);

        let mut children = Vec::with_capacity(fanout);
        let mut start = 0usize;
        for b in 0..fanout {
            let mut end = start;
            while end < keys.len() && model.predict_clamped(keys[end], fanout) == b {
                end += 1;
            }
            if end == start {
                // Empty bucket: any key routed here is greater than every
                // key in earlier buckets and smaller than every key in
                // later ones, so the answer is the preceding key globally.
                children.push(AtsNode::Group {
                    base: (base + start).saturating_sub(1),
                    keys: Vec::new(),
                });
            } else if end - start == keys.len() {
                // Model failed to split (extreme skew): terminal group.
                *sum_depth += (depth + 2) as f64 * keys.len() as f64;
                children.push(AtsNode::Group { base, keys: keys.to_vec() });
            } else {
                children.push(Self::build_node(
                    &keys[start..end],
                    base + start,
                    depth + 1,
                    sum_depth,
                ));
            }
            start = end;
        }
        debug_assert_eq!(start, keys.len());
        AtsNode::Internal { model, children }
    }

    fn node_size(node: &AtsNode) -> usize {
        match node {
            AtsNode::Internal { children, .. } => {
                core::mem::size_of::<LinearModel>()
                    + children.len() * core::mem::size_of::<usize>()
                    + children.iter().map(Self::node_size).sum::<usize>()
            }
            AtsNode::Group { keys, .. } => {
                2 * core::mem::size_of::<usize>() + keys.len() * core::mem::size_of::<Key>()
            }
        }
    }
}

impl InnerStructure for AtsInner {
    fn build(first_keys: &[Key]) -> Self {
        let mut sum_depth = 0.0;
        let root = AtsInner::build_node(first_keys, 0, 0, &mut sum_depth);
        AtsInner { root, n: first_keys.len(), sum_depth }
    }

    fn locate(&self, key: Key) -> usize {
        let mut node = &self.root;
        loop {
            match node {
                AtsNode::Internal { model, children } => {
                    let b = model.predict_clamped(key, children.len());
                    node = &children[b];
                }
                AtsNode::Group { base, keys } => {
                    if keys.is_empty() {
                        return *base;
                    }
                    let ub = keys.partition_point(|&k| k <= key);
                    if ub == 0 {
                        // Key precedes this group: answer is the previous
                        // leaf globally (see routing proof in module docs).
                        return base.saturating_sub(1);
                    }
                    return base + ub - 1;
                }
            }
        }
    }

    fn size_bytes(&self) -> usize {
        Self::node_size(&self.root)
    }

    fn avg_depth(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_depth / self.n as f64
        }
    }

    fn name(&self) -> &'static str {
        "ATS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn reference_locate(first_keys: &[Key], key: Key) -> usize {
        last_le(first_keys, key)
    }

    fn random_keys(n: usize, seed: u64, shift: u32) -> Vec<Key> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys: Vec<Key> = (0..n).map(|_| rng.random::<u64>() >> shift).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    fn check_structure(s: &impl InnerStructure, first_keys: &[Key]) {
        let mut rng = StdRng::seed_from_u64(42);
        // Probe the exact keys, neighbours, and random keys.
        for &k in first_keys {
            assert_eq!(s.locate(k), reference_locate(first_keys, k), "{} exact {k}", s.name());
            assert_eq!(
                s.locate(k.saturating_add(1)),
                reference_locate(first_keys, k.saturating_add(1)),
                "{} succ {k}",
                s.name()
            );
        }
        for _ in 0..2_000 {
            let k: Key = rng.random();
            assert_eq!(s.locate(k), reference_locate(first_keys, k), "{} rand {k}", s.name());
        }
        assert!(s.avg_depth() >= 1.0);
    }

    fn check<S: InnerStructure>(first_keys: &[Key]) {
        check_structure(&S::build(first_keys), first_keys);
    }

    /// Both LRS configurations in use (Fig. 17's 4/4, PGM's 64/4), plus the
    /// seam `locate` is cut at: the routed segment covers the located key.
    fn check_lrs(keys: &[Key]) {
        for (eps, eps_rec) in [(4, 4), (64, 4)] {
            let s = LrsInner::from_keys(keys.to_vec(), eps, eps_rec);
            check_structure(&s, keys);
            assert_eq!(s.keys(), keys);
            let mut covered = 0;
            for seg in 0..s.segment_count() {
                let range = s.segment_range(seg).unwrap();
                assert_eq!(range.start, covered, "segments tile the keys");
                covered = range.end;
            }
            assert_eq!(covered, keys.len());
            assert!(s.segment_range(s.segment_count()).is_none());
            for &k in keys {
                for probe in [k.saturating_sub(1), k, k.saturating_add(1)] {
                    let range = s.segment_range(s.route(probe)).unwrap();
                    assert!(range.contains(&s.locate(probe)), "eps {eps} probe {probe}");
                }
            }
        }
    }

    #[test]
    fn btree_locate_correct() {
        check::<BTreeInner>(&random_keys(5_000, 1, 1));
        check::<BTreeInner>(&random_keys(10, 2, 1));
    }

    #[test]
    fn rmi_locate_correct() {
        check::<RmiInner>(&random_keys(5_000, 3, 1));
        check::<RmiInner>(&random_keys(17, 4, 1));
    }

    #[test]
    fn lrs_locate_correct() {
        check_lrs(&random_keys(5_000, 5, 1));
        check_lrs(&random_keys(3, 6, 1));
    }

    #[test]
    fn ats_locate_correct() {
        check::<AtsInner>(&random_keys(5_000, 7, 1));
        check::<AtsInner>(&random_keys(9, 8, 1));
    }

    #[test]
    fn skewed_keys_all_structures() {
        // FACE-like skew: clusters at both extremes of the key space.
        let mut keys = random_keys(2_000, 9, 16);
        keys.extend((0..100u64).map(|i| u64::MAX - 10_000 + i * 100));
        keys.sort_unstable();
        keys.dedup();
        check::<BTreeInner>(&keys);
        check::<RmiInner>(&keys);
        check_lrs(&keys);
        check::<AtsInner>(&keys);
    }

    #[test]
    fn single_leaf() {
        for kind in StructureKind::ALL {
            let s = kind.build_dyn(&[500]);
            assert_eq!(s.locate(0), 0, "{}", kind.name());
            assert_eq!(s.locate(500), 0);
            assert_eq!(s.locate(u64::MAX), 0);
        }
    }

    #[test]
    fn ats_is_asymmetric_on_skewed_data() {
        // A mix of a dense cluster and a sparse tail should produce
        // varying leaf depths (that is the point of ATS).
        let mut keys: Vec<Key> = (0..20_000u64).collect();
        keys.extend((1..200u64).map(|i| 1 << 40 | i << 20));
        keys.sort_unstable();
        let s = AtsInner::build(&keys);
        assert!(s.avg_depth() > 1.0);
        check::<AtsInner>(&keys);
    }

    #[test]
    fn sizes_are_positive_and_sane() {
        let keys = random_keys(10_000, 11, 1);
        for kind in StructureKind::ALL {
            let s = kind.build_dyn(&keys);
            assert!(s.size_bytes() > 0, "{}", kind.name());
        }
    }

    #[test]
    fn btree_depth_grows_with_size() {
        let small = BTreeInner::build(&random_keys(100, 12, 1));
        let large = BTreeInner::build(&random_keys(100_000, 13, 1));
        assert!(large.avg_depth() > small.avg_depth());
    }
}
