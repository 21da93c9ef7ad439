//! A Bw-tree (Levandoski et al., ICDE'13), one of the paper's traditional
//! baselines (§III-A1).
//!
//! The Bw-tree's signature machinery is implemented faithfully — a
//! **mapping table** of logical page ids, **delta records** prepended to
//! pages instead of in-place updates, **consolidation** when chains grow,
//! and **splits posted as deltas** (split delta on the child, index-entry
//! delta on the parent). The original is latch-free via CAS on the mapping
//! table; this workspace benchmarks it single-writer (the paper's Table I
//! marks none of the compared tree indexes as write-concurrent in their
//! harness), so the mapping-table updates are plain stores. Concurrent
//! reads remain safe through the usual `&self` sharing.

use li_core::search::lower_bound_kv;
use li_core::traits::{BulkBuildIndex, DepthStats, Index, OrderedIndex, UpdatableIndex};
use li_core::{Key, KeyValue, Value};

type PageId = u32;

/// Delta chain length that triggers consolidation.
const CONSOLIDATE_AT: usize = 8;
/// Consolidated leaf size that triggers a split.
const LEAF_SPLIT_AT: usize = 128;
/// Consolidated inner size that triggers a split.
const INNER_SPLIT_AT: usize = 64;

#[derive(Debug, Clone)]
enum Delta {
    Insert(Key, Value),
    Delete(Key),
    /// This page was split: keys `>= sep` now live at `right`.
    Split {
        sep: Key,
        right: PageId,
    },
    /// (Inner pages) a new child `pid` covers keys `>= sep`.
    IndexEntry {
        sep: Key,
        pid: PageId,
    },
}

#[derive(Debug, Clone)]
enum Base {
    Leaf(Vec<KeyValue>),
    /// Sorted separators; `children[i]` covers keys in
    /// `[seps[i-1], seps[i])` with `seps[-1] = -inf`.
    Inner {
        seps: Vec<Key>,
        children: Vec<PageId>,
    },
}

#[derive(Debug, Clone)]
struct Page {
    deltas: Vec<Delta>, // newest first
    base: Base,
}

/// The Bw-tree index.
pub struct BwTree {
    /// The mapping table: logical page id -> page.
    mapping: Vec<Page>,
    root: PageId,
    len: usize,
    consolidations: u64,
}

impl Default for BwTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BwTree {
    pub fn new() -> Self {
        BwTree {
            mapping: vec![Page { deltas: Vec::new(), base: Base::Leaf(Vec::new()) }],
            root: 0,
            len: 0,
            consolidations: 0,
        }
    }

    /// Total consolidations performed (diagnostics).
    pub fn consolidation_count(&self) -> u64 {
        self.consolidations
    }

    fn alloc(&mut self, page: Page) -> PageId {
        self.mapping.push(page);
        (self.mapping.len() - 1) as PageId
    }

    /// Resolves the leaf page id for `key`, collecting the root-to-leaf
    /// path of inner page ids (for split posting) and the "next fence" —
    /// the smallest separator strictly greater than `key` seen along the
    /// descent, which is the first key of the next leaf (used by scans).
    fn descend(&self, key: Key, path: &mut Vec<PageId>, fence: &mut Option<Key>) -> PageId {
        let mut pid = self.root;
        loop {
            let page = &self.mapping[pid as usize];
            // Follow a split delta first (only transiently present).
            if let Some(right) = page.deltas.iter().find_map(|d| match *d {
                Delta::Split { sep, right } if key >= sep => Some(right),
                _ => None,
            }) {
                pid = right;
                continue;
            }
            match &page.base {
                Base::Leaf(_) => return pid,
                Base::Inner { seps, children } => {
                    // Route by the largest separator <= key among the base
                    // and any index-entry deltas; track the smallest
                    // separator > key as the next fence.
                    let mut best: Option<(Key, PageId)> = None;
                    for d in &page.deltas {
                        if let Delta::IndexEntry { sep, pid: child } = *d {
                            if key >= sep {
                                if best.is_none_or(|(s, _)| sep > s) {
                                    best = Some((sep, child));
                                }
                            } else {
                                *fence = Some(fence.map_or(sep, |f: Key| f.min(sep)));
                            }
                        }
                    }
                    let bi = seps.partition_point(|&s| s <= key);
                    if bi < seps.len() {
                        *fence = Some(fence.map_or(seps[bi], |f: Key| f.min(seps[bi])));
                    }
                    let base_sep = if bi == 0 { None } else { Some(seps[bi - 1]) };
                    let next = match (best, base_sep) {
                        (Some((s, c)), Some(bs)) if s >= bs => c,
                        (Some(_), Some(_)) => children[bi],
                        (Some((_, c)), None) => c,
                        (None, _) => children[bi],
                    };
                    path.push(pid);
                    pid = next;
                }
            }
        }
    }

    fn find_leaf(&self, key: Key, path: &mut Vec<PageId>) -> PageId {
        let mut fence = None;
        self.descend(key, path, &mut fence)
    }

    /// Folds a page's delta chain into a fresh base.
    fn consolidate(&mut self, pid: PageId) {
        self.consolidations += 1;
        let page = &self.mapping[pid as usize];
        match &page.base {
            Base::Leaf(base) => {
                // Apply deltas oldest-first so newer ones win.
                let mut map: Vec<KeyValue> = base.clone();
                let mut split: Option<Key> = None;
                for d in page.deltas.iter().rev() {
                    match *d {
                        Delta::Insert(k, v) => match map.binary_search_by_key(&k, |kv| kv.0) {
                            Ok(i) => map[i].1 = v,
                            Err(i) => map.insert(i, (k, v)),
                        },
                        Delta::Delete(k) => {
                            if let Ok(i) = map.binary_search_by_key(&k, |kv| kv.0) {
                                map.remove(i);
                            }
                        }
                        Delta::Split { sep, .. } => {
                            split = Some(split.map_or(sep, |s: Key| s.min(sep)));
                        }
                        Delta::IndexEntry { .. } => unreachable!("index entry on a leaf"),
                    }
                }
                if let Some(sep) = split {
                    map.retain(|kv| kv.0 < sep);
                }
                self.mapping[pid as usize] = Page { deltas: Vec::new(), base: Base::Leaf(map) };
            }
            Base::Inner { seps, children } => {
                let mut seps = seps.clone();
                let mut children = children.clone();
                let mut split: Option<Key> = None;
                for d in page.deltas.iter().rev().cloned().collect::<Vec<_>>() {
                    match d {
                        Delta::IndexEntry { sep, pid: child } => {
                            let i = seps.partition_point(|&s| s <= sep);
                            seps.insert(i, sep);
                            children.insert(i + 1, child);
                        }
                        Delta::Split { sep, .. } => {
                            split = Some(split.map_or(sep, |s: Key| s.min(sep)));
                        }
                        _ => unreachable!("data delta on an inner page"),
                    }
                }
                if let Some(sep) = split {
                    let cut = seps.partition_point(|&s| s < sep);
                    seps.truncate(cut);
                    children.truncate(cut + 1);
                }
                self.mapping[pid as usize] =
                    Page { deltas: Vec::new(), base: Base::Inner { seps, children } };
            }
        }
    }

    /// Consolidates, then splits the page if oversized, posting the split
    /// to the parent (or growing a new root).
    fn maybe_restructure(&mut self, pid: PageId, path: &[PageId]) {
        if self.mapping[pid as usize].deltas.len() < CONSOLIDATE_AT {
            return;
        }
        self.consolidate(pid);
        let (sep, right_base) = match &self.mapping[pid as usize].base {
            Base::Leaf(data) if data.len() > LEAF_SPLIT_AT => {
                let mid = data.len() / 2;
                (data[mid].0, Base::Leaf(data[mid..].to_vec()))
            }
            Base::Inner { seps, children } if children.len() > INNER_SPLIT_AT => {
                let mid = seps.len() / 2;
                let sep = seps[mid];
                let right = Base::Inner {
                    seps: seps[mid + 1..].to_vec(),
                    children: children[mid + 1..].to_vec(),
                };
                (sep, right)
            }
            _ => return,
        };
        let right = self.alloc(Page { deltas: Vec::new(), base: right_base });
        self.mapping[pid as usize].deltas.insert(0, Delta::Split { sep, right });
        // Make the split visible above: post an index entry to the parent,
        // or grow a new root when the root itself split.
        match path.last().copied() {
            Some(parent) if parent != pid => {
                self.mapping[parent as usize]
                    .deltas
                    .insert(0, Delta::IndexEntry { sep, pid: right });
                // Eagerly consolidate the just-split child so the split
                // delta's key filtering is materialised.
                self.consolidate(pid);
                if self.mapping[parent as usize].deltas.len() >= CONSOLIDATE_AT {
                    let grand = &path[..path.len() - 1];
                    self.maybe_restructure(parent, grand);
                }
            }
            _ => {
                self.consolidate(pid);
                let new_root = self.alloc(Page {
                    deltas: Vec::new(),
                    base: Base::Inner { seps: vec![sep], children: vec![pid, right] },
                });
                self.root = new_root;
            }
        }
    }

    /// Point lookup through the delta chain.
    fn lookup(&self, key: Key) -> Option<Value> {
        let mut path = Vec::new();
        let pid = self.find_leaf(key, &mut path);
        let page = &self.mapping[pid as usize];
        for d in &page.deltas {
            match *d {
                Delta::Insert(k, v) if k == key => return Some(v),
                Delta::Delete(k) if k == key => return None,
                _ => {}
            }
        }
        match &page.base {
            Base::Leaf(data) => data.binary_search_by_key(&key, |kv| kv.0).ok().map(|i| data[i].1),
            Base::Inner { .. } => unreachable!("find_leaf returned an inner page"),
        }
    }

    /// Materialises the live pairs of a leaf page (chain + base), already
    /// filtered by any split delta.
    fn leaf_pairs(&self, pid: PageId) -> Vec<KeyValue> {
        let page = &self.mapping[pid as usize];
        let (base, deltas) = match &page.base {
            Base::Leaf(b) => (b, &page.deltas),
            Base::Inner { .. } => unreachable!(),
        };
        let mut map: Vec<KeyValue> = base.clone();
        let mut split: Option<Key> = None;
        for d in deltas.iter().rev() {
            match *d {
                Delta::Insert(k, v) => match map.binary_search_by_key(&k, |kv| kv.0) {
                    Ok(i) => map[i].1 = v,
                    Err(i) => map.insert(i, (k, v)),
                },
                Delta::Delete(k) => {
                    if let Ok(i) = map.binary_search_by_key(&k, |kv| kv.0) {
                        map.remove(i);
                    }
                }
                Delta::Split { sep, .. } => split = Some(split.map_or(sep, |s: Key| s.min(sep))),
                Delta::IndexEntry { .. } => unreachable!(),
            }
        }
        if let Some(sep) = split {
            map.retain(|kv| kv.0 < sep);
        }
        map
    }
}

impl Index for BwTree {
    fn name(&self) -> &'static str {
        "BwTree"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, key: Key) -> Option<Value> {
        self.lookup(key)
    }

    fn index_size_bytes(&self) -> usize {
        self.mapping
            .iter()
            .map(|p| {
                let base = match &p.base {
                    Base::Leaf(d) => d.capacity() * core::mem::size_of::<KeyValue>(),
                    Base::Inner { seps, children } => seps.capacity() * 8 + children.capacity() * 4,
                };
                base + p.deltas.capacity() * core::mem::size_of::<Delta>()
            })
            .sum()
    }

    fn data_size_bytes(&self) -> usize {
        0 // pairs live inside the pages counted above
    }

    fn depth_stats(&self) -> Option<&dyn DepthStats> {
        Some(self)
    }
}

impl UpdatableIndex for BwTree {
    fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
        let old = self.lookup(key);
        let mut path = Vec::new();
        let pid = self.find_leaf(key, &mut path);
        self.mapping[pid as usize].deltas.insert(0, Delta::Insert(key, value));
        if old.is_none() {
            self.len += 1;
        }
        self.maybe_restructure(pid, &path);
        old
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        let old = self.lookup(key)?;
        let mut path = Vec::new();
        let pid = self.find_leaf(key, &mut path);
        self.mapping[pid as usize].deltas.insert(0, Delta::Delete(key));
        self.len -= 1;
        self.maybe_restructure(pid, &path);
        Some(old)
    }
}

impl OrderedIndex for BwTree {
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        if lo > hi {
            return;
        }
        // Hop leaves left to right using the descent's next-fence: the
        // smallest separator above the cursor is exactly where the next
        // leaf begins. O(depth) per leaf.
        let mut cursor = lo;
        loop {
            let mut path = Vec::new();
            let mut fence = None;
            let pid = self.descend(cursor, &mut path, &mut fence);
            let pairs = self.leaf_pairs(pid);
            let start = lower_bound_kv(&pairs, cursor);
            for kv in &pairs[start..] {
                if kv.0 > hi {
                    return;
                }
                out.push(*kv);
            }
            match fence {
                Some(f) if f <= hi => cursor = f,
                _ => return,
            }
        }
    }
}

impl BulkBuildIndex for BwTree {
    fn build(data: &[KeyValue]) -> Self {
        let mut t = BwTree::new();
        if data.is_empty() {
            return t;
        }
        // Pack leaves, then build one inner level at a time.
        let fill = LEAF_SPLIT_AT * 3 / 4;
        let mut level: Vec<(Key, PageId)> = data
            .chunks(fill)
            .map(|c| {
                let pid = t.alloc(Page { deltas: Vec::new(), base: Base::Leaf(c.to_vec()) });
                (c[0].0, pid)
            })
            .collect();
        // The very first allocated page replaces the initial empty root.
        while level.len() > 1 {
            let inner_fill = INNER_SPLIT_AT * 3 / 4;
            level = level
                .chunks(inner_fill)
                .map(|group| {
                    let seps: Vec<Key> = group[1..].iter().map(|&(k, _)| k).collect();
                    let children: Vec<PageId> = group.iter().map(|&(_, p)| p).collect();
                    let pid =
                        t.alloc(Page { deltas: Vec::new(), base: Base::Inner { seps, children } });
                    (group[0].0, pid)
                })
                .collect();
        }
        t.root = level[0].1;
        t.len = data.len();
        t
    }
}

impl DepthStats for BwTree {
    fn avg_depth(&self) -> f64 {
        // Depth of the leftmost path (the tree is balanced by splits).
        let mut depth = 1.0;
        let mut pid = self.root;
        loop {
            match &self.mapping[pid as usize].base {
                Base::Leaf(_) => return depth,
                Base::Inner { children, .. } => {
                    pid = children[0];
                    depth += 1.0;
                }
            }
        }
    }

    fn leaf_count(&self) -> usize {
        self.mapping.iter().filter(|p| matches!(p.base, Base::Leaf(_))).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_many() {
        let mut t = BwTree::new();
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..30_000u64 {
            let k = rng.random::<u64>() >> 8;
            assert_eq!(t.insert(k, i), model.insert(k, i), "insert {k}");
        }
        assert_eq!(t.len(), model.len());
        assert!(t.consolidation_count() > 0);
        for (&k, &v) in model.iter().step_by(97) {
            assert_eq!(t.get(k), Some(v), "get {k}");
        }
        for _ in 0..10_000 {
            let k = rng.random::<u64>() >> 8;
            assert_eq!(t.get(k), model.get(&k).copied());
        }
    }

    #[test]
    fn sequential_inserts_split_root_repeatedly() {
        let mut t = BwTree::new();
        for k in 0..20_000u64 {
            t.insert(k, k * 2);
        }
        assert_eq!(t.len(), 20_000);
        assert!(t.avg_depth() >= 2.0);
        for k in (0..20_000u64).step_by(331) {
            assert_eq!(t.get(k), Some(k * 2));
        }
    }

    #[test]
    fn bulk_build_and_get() {
        let data: Vec<KeyValue> = (0..50_000u64).map(|i| (i * 5 + 1, i)).collect();
        let t = BwTree::build(&data);
        assert_eq!(t.len(), data.len());
        assert!(t.leaf_count() > 300);
        for &(k, v) in data.iter().step_by(173) {
            assert_eq!(t.get(k), Some(v));
            assert_eq!(t.get(k + 1), None);
        }
    }

    #[test]
    fn bulk_then_mutate() {
        let data: Vec<KeyValue> = (0..10_000u64).map(|i| (i * 4, i)).collect();
        let mut t = BwTree::build(&data);
        let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..20_000u64 {
            let k = rng.random_range(0..50_000u64);
            if rng.random_bool(0.7) {
                assert_eq!(t.insert(k, i), model.insert(k, i));
            } else {
                assert_eq!(t.remove(k), model.remove(&k));
            }
        }
        assert_eq!(t.len(), model.len());
        for (&k, &v) in model.iter().step_by(131) {
            assert_eq!(t.get(k), Some(v));
        }
    }

    #[test]
    fn delete_via_delta() {
        let mut t = BwTree::new();
        t.insert(5, 50);
        t.insert(7, 70);
        assert_eq!(t.remove(5), Some(50));
        assert_eq!(t.get(5), None);
        assert_eq!(t.remove(5), None);
        assert_eq!(t.get(7), Some(70));
        // Reinsert after delete.
        assert_eq!(t.insert(5, 51), None);
        assert_eq!(t.get(5), Some(51));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn range_scan() {
        let data: Vec<KeyValue> = (0..5_000u64).map(|i| (i * 3, i)).collect();
        let mut t = BwTree::build(&data);
        let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..2_000u64 {
            let k = rng.random_range(0..15_000u64);
            t.insert(k, 100_000 + i);
            model.insert(k, 100_000 + i);
        }
        for _ in 0..20 {
            let lo = rng.random_range(0..15_000u64);
            let hi = lo + rng.random_range(0..1_500u64);
            let got = t.range_vec(lo, hi);
            let expect: Vec<KeyValue> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, expect, "range {lo}..={hi}");
        }
    }

    #[test]
    fn empty() {
        let mut t = BwTree::new();
        assert!(t.is_empty());
        assert_eq!(t.get(1), None);
        assert_eq!(t.remove(1), None);
        assert!(t.range_vec(0, u64::MAX).is_empty());
        let t2 = BwTree::build(&[]);
        assert!(t2.is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn matches_btreemap(ops in proptest::collection::vec((0u64..2_000, 0u64..100, proptest::bool::ANY), 0..500)) {
            let mut t = BwTree::new();
            let mut model = BTreeMap::new();
            for &(k, v, ins) in &ops {
                if ins {
                    proptest::prop_assert_eq!(t.insert(k, v), model.insert(k, v));
                } else {
                    proptest::prop_assert_eq!(t.remove(k), model.remove(&k));
                }
            }
            proptest::prop_assert_eq!(t.len(), model.len());
            let got = t.range_vec(0, u64::MAX);
            let expect: Vec<KeyValue> = model.iter().map(|(&k, &v)| (k, v)).collect();
            proptest::prop_assert_eq!(got, expect);
        }
    }
}
