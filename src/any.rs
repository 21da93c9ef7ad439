//! Runtime-selected index wrappers used by the end-to-end harness.
//!
//! Everything above the index crates reaches an index one way: through
//! the object-safe [`li_core::ShardIndex`] face, boxed by
//! [`IndexKind::build`] — the only place that names the concrete types.
//! [`AnyIndex`] owns one such box for the single-writer store; the
//! concurrent router's cells own theirs directly.

use li_core::traits::{
    BulkBuildIndex, Capabilities, ConcurrentIndex, DepthStats, Index, NativeWriter, OrderedIndex,
    UpdatableIndex,
};
use li_core::{BoxShard, Key, KeyValue, Value};

/// Every index the paper evaluates (§III-A1), selectable at runtime.
///
/// Adding a kind means: a variant here, its `ROWS` entry (same
/// position), and its arm in [`IndexKind::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    // Traditional
    BTree,
    SkipList,
    Cceh,
    Art,
    Wormhole,
    BwTree,
    // Learned, read-only
    Rmi,
    Rs,
    // Learned, updatable
    FitingInp,
    FitingBuf,
    Pgm,
    Alex,
    XIndex,
    /// Bonus index: LIPP (§V-B1, not evaluable by the paper).
    Lipp,
}

/// The static facts about one [`IndexKind`].
struct KindRow {
    kind: IndexKind,
    name: &'static str,
    /// Accepts inserts/removes (everything but RMI and RS).
    updatable: bool,
    /// Supports range scans (everything but the hash index).
    ordered: bool,
    /// The paper's Table I row — present exactly for the learned kinds.
    table1: Option<Capabilities>,
}

/// A traditional, fully-faced kind: updatable, ordered, no Table I row.
/// The rows below spell out only where a kind differs from this.
const fn plain(kind: IndexKind, name: &'static str) -> KindRow {
    KindRow { kind, name, updatable: true, ordered: true, table1: None }
}

/// One row per kind, in declaration order ([`IndexKind::row`] indexes by
/// discriminant; the order is asserted at compile time below).
const ROWS: [KindRow; 14] = [
    plain(IndexKind::BTree, "BTree"),
    plain(IndexKind::SkipList, "SkipList"),
    KindRow { ordered: false, ..plain(IndexKind::Cceh, "CCEH") },
    plain(IndexKind::Art, "ART"),
    plain(IndexKind::Wormhole, "Wormhole"),
    plain(IndexKind::BwTree, "BwTree"),
    KindRow {
        updatable: false,
        table1: Some(Capabilities {
            name: "RMI",
            inner_node: "Linear models",
            leaf_node: "Linear",
            bounded_error: false,
            approx_algorithm: "Machine learning (two-stage models)",
            insertion: "-",
            retraining: "-",
            concurrent_writes: false,
        }),
        ..plain(IndexKind::Rmi, "RMI")
    },
    KindRow {
        updatable: false,
        table1: Some(Capabilities {
            name: "RS",
            inner_node: "Radix tab.",
            leaf_node: "Spline",
            bounded_error: false,
            approx_algorithm: "One-pass spline",
            insertion: "-",
            retraining: "-",
            concurrent_writes: false,
        }),
        ..plain(IndexKind::Rs, "RS")
    },
    KindRow {
        table1: Some(Capabilities {
            name: "FITing-tree (inp)",
            inner_node: "B+tree",
            leaf_node: "Linear",
            bounded_error: true,
            approx_algorithm: "Opt-PLA (paper's substitution for greedy)",
            insertion: "Inplace",
            retraining: "Retrain one node",
            concurrent_writes: false,
        }),
        ..plain(IndexKind::FitingInp, "FITing-tree-inp")
    },
    KindRow {
        table1: Some(Capabilities {
            name: "FITing-tree (buf)",
            inner_node: "B+tree",
            leaf_node: "Linear",
            bounded_error: true,
            approx_algorithm: "Opt-PLA (paper's substitution for greedy)",
            insertion: "Offsite",
            retraining: "Retrain one node",
            concurrent_writes: false,
        }),
        ..plain(IndexKind::FitingBuf, "FITing-tree-buf")
    },
    KindRow {
        table1: Some(Capabilities {
            name: "PGM-Index",
            inner_node: "Recursive",
            leaf_node: "Linear",
            bounded_error: true,
            approx_algorithm: "Optimal-PLA",
            insertion: "Offsite",
            retraining: "LSM-Tree",
            concurrent_writes: false,
        }),
        ..plain(IndexKind::Pgm, "PGM")
    },
    KindRow {
        table1: Some(Capabilities {
            name: "ALEX",
            inner_node: "Asymmetric",
            leaf_node: "Linear",
            bounded_error: false,
            approx_algorithm: "LSA+gap",
            insertion: "Inplace (gapped)",
            retraining: "Expand + retrain",
            concurrent_writes: false,
        }),
        ..plain(IndexKind::Alex, "ALEX")
    },
    KindRow {
        table1: Some(Capabilities {
            name: "XIndex",
            inner_node: "RMI",
            leaf_node: "Linear",
            bounded_error: false,
            approx_algorithm: "LSA",
            insertion: "Offsite",
            retraining: "Retrain one node",
            concurrent_writes: true,
        }),
        ..plain(IndexKind::XIndex, "XIndex")
    },
    KindRow {
        table1: Some(Capabilities {
            name: "LIPP (bonus)",
            inner_node: "Precise models",
            leaf_node: "Precise",
            bounded_error: true,
            approx_algorithm: "Model-based precise placement (no search)",
            insertion: "Inplace (precise)",
            retraining: "Subtree adjust",
            concurrent_writes: false,
        }),
        ..plain(IndexKind::Lipp, "LIPP")
    },
];

/// The kinds whose row satisfies a column, in declaration order; `N` is
/// checked against the table at compile time.
const fn kinds_where<const N: usize>(learned: bool, updatable: bool) -> [IndexKind; N] {
    let mut out = [IndexKind::BTree; N];
    let (mut i, mut n) = (0, 0);
    while i < ROWS.len() {
        assert!(ROWS[i].kind as usize == i, "ROWS must follow IndexKind's declaration order");
        if (!learned || ROWS[i].table1.is_some()) && (!updatable || ROWS[i].updatable) {
            out[n] = ROWS[i].kind;
            n += 1;
        }
        i += 1;
    }
    assert!(n == N, "lineup length disagrees with ROWS");
    out
}

impl IndexKind {
    pub const ALL: [IndexKind; 14] = kinds_where(false, false);

    /// The learned indexes only.
    pub const LEARNED: [IndexKind; 8] = kinds_where(true, false);

    /// Indexes that accept inserts (write-capable lineup of Fig. 13/15).
    pub const UPDATABLE: [IndexKind; 12] = kinds_where(false, true);

    fn row(self) -> &'static KindRow {
        &ROWS[self as usize]
    }

    pub fn name(&self) -> &'static str {
        self.row().name
    }

    pub fn supports_insert(&self) -> bool {
        self.row().updatable
    }

    pub fn supports_range(&self) -> bool {
        self.row().ordered
    }

    /// Whether the index takes concurrent writes natively (`&self`
    /// mutation, Table I's "concurrent writes" column) rather than needing
    /// the range-sharding lift.
    pub fn concurrent_native(&self) -> bool {
        self.row().table1.is_some_and(|c| c.concurrent_writes)
    }

    /// The paper's Table I row for this index (learned indexes only).
    pub fn capabilities(&self) -> Option<Capabilities> {
        self.row().table1
    }

    /// Bulk-builds this kind over sorted pairs behind the one index
    /// handle. The two kinds that lack a face of [`li_core::ShardIndex`]
    /// get it from a private adapter: `ReadOnly` (RMI, RS) panics on
    /// mutation, `Unordered` (CCEH) scans nothing.
    pub fn build(self, data: &[KeyValue]) -> BoxShard {
        match self {
            IndexKind::BTree => Box::new(li_traditional::BPlusTree::build(data)),
            IndexKind::SkipList => Box::new(li_traditional::SkipList::build(data)),
            IndexKind::Cceh => Box::new(Unordered(li_traditional::Cceh::build(data))),
            IndexKind::Art => Box::new(li_traditional::Art::build(data)),
            IndexKind::Wormhole => Box::new(li_traditional::Wormhole::build(data)),
            IndexKind::BwTree => Box::new(li_traditional::BwTree::build(data)),
            IndexKind::Rmi => Box::new(ReadOnly(li_rmi::Rmi::build(data))),
            IndexKind::Rs => Box::new(ReadOnly(li_rs::RadixSpline::build(data))),
            IndexKind::FitingInp => Box::new(li_fiting::FitingTree::new_inplace(data)),
            IndexKind::FitingBuf => Box::new(li_fiting::FitingTree::new_buffered(data)),
            IndexKind::Pgm => Box::new(li_pgm::DynamicPgm::build(data)),
            IndexKind::Alex => Box::new(li_alex::Alex::build(data)),
            IndexKind::XIndex => Box::new(li_xindex::XIndex::build(data)),
            IndexKind::Lipp => Box::new(li_lipp::Lipp::build(data)),
        }
    }
}

/// `impl Index` for a newtype, forwarding every method the handle is
/// asked through — the defaulted hooks included — to field `0`.
macro_rules! forward_index {
    ($($header:tt)+) => {
        $($header)+ {
            fn name(&self) -> &'static str {
                self.0.name()
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn get(&self, key: Key) -> Option<Value> {
                self.0.get(key)
            }
            fn index_size_bytes(&self) -> usize {
                self.0.index_size_bytes()
            }
            fn data_size_bytes(&self) -> usize {
                self.0.data_size_bytes()
            }
            fn set_recorder(&mut self, recorder: li_core::telemetry::Recorder) {
                self.0.set_recorder(recorder);
            }
            fn native_writer(&self) -> Option<&dyn NativeWriter> {
                self.0.native_writer()
            }
            fn depth_stats(&self) -> Option<&dyn DepthStats> {
                self.0.depth_stats()
            }
        }
    };
}

/// Gives a read-only learned index (RMI, RS) the mutation face the handle
/// requires: writes panic — gate on [`IndexKind::supports_insert`] — and
/// the retrain hooks keep their "nothing to defer" defaults.
struct ReadOnly<I>(I);

forward_index!(impl<I: Index> Index for ReadOnly<I>);

impl<I: OrderedIndex> OrderedIndex for ReadOnly<I> {
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        self.0.range(lo, hi, out);
    }
}

impl<I: Index> UpdatableIndex for ReadOnly<I> {
    fn insert(&mut self, _key: Key, _value: Value) -> Option<Value> {
        panic!("{} is read-only (paper Table I)", self.0.name())
    }

    fn remove(&mut self, _key: Key) -> Option<Value> {
        panic!("{} is read-only (paper Table I)", self.0.name())
    }
}

/// Gives the hash index (CCEH) the scan face the handle requires: a scan
/// yields nothing — gate on [`IndexKind::supports_range`].
struct Unordered<I>(I);

forward_index!(impl<I: Index> Index for Unordered<I>);

impl<I: Index> OrderedIndex for Unordered<I> {
    fn range(&self, _lo: Key, _hi: Key, _out: &mut Vec<KeyValue>) {}
}

impl<I: UpdatableIndex> UpdatableIndex for Unordered<I> {
    fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
        self.0.insert(key, value)
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        self.0.remove(key)
    }

    fn set_defer_retrains(&mut self, on: bool) -> bool {
        self.0.set_defer_retrains(on)
    }

    fn pending_retrains(&self) -> usize {
        self.0.pending_retrains()
    }

    fn run_pending_retrains(&mut self, budget: usize) -> usize {
        self.0.run_pending_retrains(budget)
    }
}

/// A runtime-selected index instance: the one handle ([`BoxShard`]) with
/// a by-kind constructor, for the single-writer store.
pub struct AnyIndex(BoxShard);

impl AnyIndex {
    /// Bulk-builds an index of the given kind over sorted pairs.
    pub fn build(kind: IndexKind, data: &[KeyValue]) -> Self {
        AnyIndex(kind.build(data))
    }

    /// Mean root-to-leaf depth (Table II); None for indexes without the
    /// notion (hash, skip list, radix tree).
    pub fn avg_depth(&self) -> Option<f64> {
        self.0.depth_stats().map(DepthStats::avg_depth)
    }

    /// Leaf/segment/group count (Table II context).
    pub fn leaf_count(&self) -> Option<usize> {
        self.0.depth_stats().map(DepthStats::leaf_count)
    }
}

forward_index!(impl Index for AnyIndex);

impl OrderedIndex for AnyIndex {
    /// Range scan; the hash index (CCEH) cannot scan and yields nothing —
    /// callers should gate on [`IndexKind::supports_range`].
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        self.0.range(lo, hi, out);
    }
}

impl UpdatableIndex for AnyIndex {
    /// Inserts; panics for the read-only indexes (RMI, RS) — gate on
    /// [`IndexKind::supports_insert`].
    fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
        self.0.insert(key, value)
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        self.0.remove(key)
    }

    fn set_defer_retrains(&mut self, on: bool) -> bool {
        self.0.set_defer_retrains(on)
    }

    fn pending_retrains(&self) -> usize {
        self.0.pending_retrains()
    }

    fn run_pending_retrains(&mut self, budget: usize) -> usize {
        self.0.run_pending_retrains(budget)
    }
}

/// How an [`IndexKind`] reaches write-concurrent service (Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcurrentVia {
    /// The index is internally thread-safe (`&self` writes): XIndex.
    Native,
    /// Range-sharded behind per-shard RwLocks (`li_core::shard::Sharded`).
    Sharded,
    /// One shard — every operation funnels through a single global latch.
    /// The degenerate sharding the paper's latch-based baselines model.
    GlobalLock,
}

/// A write-concurrent configuration of one updatable index: which index,
/// and how it is lifted into concurrent service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConcurrentKind {
    pub index: IndexKind,
    pub via: ConcurrentVia,
}

impl ConcurrentKind {
    /// Default shard count for the sharded route (≥ the largest thread
    /// count the harness drives, so disjoint writers rarely collide).
    pub const DEFAULT_SHARDS: usize = 16;

    /// The preferred concurrent route for `kind`: native where the index
    /// supports `&self` writes, range sharding for every other updatable
    /// index, `None` for read-only indexes (RMI, RS).
    pub fn of(kind: IndexKind) -> Option<Self> {
        if !kind.supports_insert() {
            return None;
        }
        let via =
            if kind.concurrent_native() { ConcurrentVia::Native } else { ConcurrentVia::Sharded };
        Some(ConcurrentKind { index: kind, via })
    }

    /// The full write-concurrent lineup: every updatable index, each by
    /// its preferred route.
    pub fn all() -> Vec<ConcurrentKind> {
        IndexKind::UPDATABLE.iter().filter_map(|&k| ConcurrentKind::of(k)).collect()
    }

    /// `kind` behind one global latch (the lock-coupling baseline).
    pub fn global_lock(kind: IndexKind) -> Option<Self> {
        if !kind.supports_insert() {
            return None;
        }
        Some(ConcurrentKind { index: kind, via: ConcurrentVia::GlobalLock })
    }

    pub fn name(&self) -> String {
        match self.via {
            ConcurrentVia::Native => self.index.name().to_string(),
            ConcurrentVia::Sharded => format!("{}(shard)", self.index.name()),
            ConcurrentVia::GlobalLock => format!("{}(lock)", self.index.name()),
        }
    }
}

/// A runtime-selected write-concurrent index: the [`li_core::Sharded`]
/// router with [`IndexKind::build`] as its shard builder, so each cell
/// owns the kind's own object.
///
/// All three of the paper's concurrency routes collapse onto the one
/// router: the native route (XIndex) is a single shard with the
/// shared-reference write path enabled, the global-lock baseline is a
/// single shard without it, and the sharded route is N exclusive shards.
/// Every route adapts online through [`ConcurrentIndex::run_adaptation`]:
/// the sharded route splits hot shards and merges cold neighbours, and
/// the two one-shard routes stay one shard, since the tuner only re-cuts
/// a router of two or more.
pub struct AnyConcurrentIndex(li_core::Sharded);

impl AnyConcurrentIndex {
    /// Bulk-builds a concurrent index over sorted pairs with the default
    /// shard count.
    pub fn build(kind: ConcurrentKind, data: &[KeyValue]) -> Self {
        Self::build_with_shards(kind, ConcurrentKind::DEFAULT_SHARDS, data)
    }

    /// Bulk-builds with an explicit shard count (forced to 1 by the
    /// native and global-lock routes).
    pub fn build_with_shards(kind: ConcurrentKind, shards: usize, data: &[KeyValue]) -> Self {
        let shards = match kind.via {
            ConcurrentVia::Native | ConcurrentVia::GlobalLock => 1,
            ConcurrentVia::Sharded => shards,
        };
        let mut inner =
            li_core::Sharded::build_boxed(shards, data, move |chunk| kind.index.build(chunk));
        if kind.via == ConcurrentVia::Native {
            debug_assert_eq!(kind.index, IndexKind::XIndex);
            inner.set_allow_native(true);
        }
        AnyConcurrentIndex(inner)
    }
}

/// Exposes the router's introspection and adaptation surface
/// (`shard_count`, `boundaries`, `force_split`, …) without re-wrapping
/// each method.
impl core::ops::Deref for AnyConcurrentIndex {
    type Target = li_core::Sharded;
    fn deref(&self) -> &li_core::Sharded {
        &self.0
    }
}

impl Index for AnyConcurrentIndex {
    fn name(&self) -> &'static str {
        Index::name(&self.0)
    }

    fn len(&self) -> usize {
        Index::len(&self.0)
    }

    fn get(&self, key: Key) -> Option<Value> {
        Index::get(&self.0, key)
    }

    fn index_size_bytes(&self) -> usize {
        self.0.index_size_bytes()
    }

    fn data_size_bytes(&self) -> usize {
        self.0.data_size_bytes()
    }

    /// Forwards the recorder through the router, which keeps it for its
    /// lock-wait timings and clones it into every shard's index.
    fn set_recorder(&mut self, recorder: li_core::telemetry::Recorder) {
        self.0.set_recorder(recorder);
    }
}

impl OrderedIndex for AnyConcurrentIndex {
    /// Range scan; a sharded CCEH still cannot scan (its cells yield
    /// nothing) — gate on [`IndexKind::supports_range`].
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        self.0.range(lo, hi, out);
    }
}

impl ConcurrentIndex for AnyConcurrentIndex {
    fn get(&self, key: Key) -> Option<Value> {
        ConcurrentIndex::get(&self.0, key)
    }

    fn insert(&self, key: Key, value: Value) -> Option<Value> {
        ConcurrentIndex::insert(&self.0, key, value)
    }

    fn remove(&self, key: Key) -> Option<Value> {
        ConcurrentIndex::remove(&self.0, key)
    }

    fn len(&self) -> usize {
        ConcurrentIndex::len(&self.0)
    }

    fn set_defer_retrains(&self, on: bool) -> bool {
        ConcurrentIndex::set_defer_retrains(&self.0, on)
    }

    fn pending_retrains(&self) -> usize {
        ConcurrentIndex::pending_retrains(&self.0)
    }

    fn run_pending_retrains(&self, budget: usize) -> usize {
        ConcurrentIndex::run_pending_retrains(&self.0, budget)
    }

    fn run_adaptation(&self) -> usize {
        ConcurrentIndex::run_adaptation(&self.0)
    }

    fn observe_cells(&self) -> Vec<li_core::telemetry::CellCounters> {
        ConcurrentIndex::observe_cells(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use li_core::telemetry::{Event, Recorder};
    use li_sync::sync::atomic::{AtomicBool, Ordering};

    fn data(n: u64) -> Vec<KeyValue> {
        (0..n).map(|i| (i * 7 + 1, i)).collect()
    }

    #[test]
    fn build_and_get_every_kind() {
        let d = data(20_000);
        for kind in IndexKind::ALL {
            let idx = AnyIndex::build(kind, &d);
            assert_eq!(idx.len(), d.len(), "{}", kind.name());
            for &(k, v) in d.iter().step_by(173) {
                assert_eq!(idx.get(k), Some(v), "{} key {k}", kind.name());
                assert_eq!(idx.get(k + 1), None, "{} miss {}", kind.name(), k + 1);
            }
        }
    }

    #[test]
    fn updatable_kinds_insert_remove() {
        let d = data(5_000);
        for kind in IndexKind::UPDATABLE {
            let mut idx = AnyIndex::build(kind, &d);
            assert_eq!(idx.insert(3, 999), None, "{}", kind.name());
            assert_eq!(idx.get(3), Some(999));
            assert_eq!(idx.insert(3, 1000), Some(999));
            assert_eq!(idx.remove(3), Some(1000));
            assert_eq!(idx.remove(3), None);
            assert_eq!(idx.len(), d.len());
        }
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn rmi_insert_panics() {
        let mut idx = AnyIndex::build(IndexKind::Rmi, &data(100));
        idx.insert(1, 1);
    }

    #[test]
    fn range_capable_kinds() {
        let d = data(5_000);
        for kind in IndexKind::ALL {
            let idx = AnyIndex::build(kind, &d);
            let got = idx.range_vec(8, 29);
            if kind.supports_range() {
                assert_eq!(got, vec![(8, 1), (15, 2), (22, 3), (29, 4)], "{}", kind.name());
            } else {
                assert!(got.is_empty());
            }
        }
    }

    /// Exactly which kinds answer the `depth_stats` hook, and which of
    /// those keep retrain counters.
    #[test]
    fn learned_have_depth_stats() {
        let d = data(50_000);
        for kind in IndexKind::ALL {
            let idx = AnyIndex::build(kind, &d);
            // Everything with leaves/segments/groups; not the hash
            // index, the skip list or the radix tree.
            let has_depth = !matches!(kind, IndexKind::SkipList | IndexKind::Cceh | IndexKind::Art);
            assert_eq!(idx.avg_depth().is_some(), has_depth, "{}", kind.name());
            assert_eq!(idx.leaf_count().is_some(), has_depth, "{}", kind.name());
            if has_depth {
                assert!(idx.avg_depth().unwrap() >= 1.0, "{}", kind.name());
                assert!(idx.leaf_count().unwrap() >= 1, "{}", kind.name());
            }
        }
    }

    /// The domain's edge keys through every kind: bulk-built and
    /// inserted, as point lookups, as range ends, and removed.
    #[test]
    fn domain_edge_keys_through_every_kind() {
        let mut bulk: Vec<KeyValue> = (0..4_000u64).map(|i| (i << 50, i)).collect();
        bulk.push((Key::MAX, 77));
        let inner: Vec<KeyValue> = bulk[1..bulk.len() - 1].to_vec();
        for kind in IndexKind::ALL {
            let name = kind.name();
            let mut idx = AnyIndex::build(kind, &bulk);
            assert_eq!(idx.get(0), Some(0), "{name}");
            assert_eq!(idx.get(Key::MAX), Some(77), "{name}");
            assert_eq!(idx.get(Key::MAX - 1), None, "{name}");
            if kind.supports_range() {
                assert_eq!(idx.range_vec(0, Key::MAX), bulk, "{name}");
                assert_eq!(idx.range_vec(0, 0), vec![(0, 0)], "{name}");
                assert_eq!(idx.range_vec(Key::MAX, Key::MAX), vec![(Key::MAX, 77)], "{name}");
            }
            if !kind.supports_insert() {
                continue;
            }
            assert_eq!(idx.remove(0), Some(0), "{name}");
            assert_eq!(idx.remove(Key::MAX), Some(77), "{name}");
            assert_eq!(idx.get(0), None, "{name}");
            assert_eq!(idx.get(Key::MAX), None, "{name}");

            // Inserted rather than bulk-built.
            let mut idx = AnyIndex::build(kind, &inner);
            assert_eq!(idx.insert(Key::MAX, 77), None, "{name}");
            assert_eq!(idx.insert(0, 0), None, "{name}");
            assert_eq!(idx.len(), bulk.len(), "{name}");
            assert_eq!(idx.get(0), Some(0), "{name}");
            assert_eq!(idx.get(Key::MAX), Some(77), "{name}");
            if kind.supports_range() {
                assert_eq!(idx.range_vec(0, Key::MAX), bulk, "{name}");
                assert_eq!(idx.range_vec(Key::MAX, Key::MAX), vec![(Key::MAX, 77)], "{name}");
            }
            assert_eq!(idx.remove(Key::MAX), Some(77), "{name}");
            assert_eq!(idx.remove(0), Some(0), "{name}");
            assert_eq!(idx.len(), inner.len(), "{name}");
        }
    }

    /// XIndex, RMI and RS search a model window and must catch a key the
    /// window misses: absent keys below, between and above the trained
    /// ones miss, present keys hit, and ranges from absent bounds start
    /// right, before and after XIndex's inserts.
    #[test]
    fn foreign_keys_through_windowed_kinds() {
        use std::collections::BTreeMap;
        // Dense runs, wide gaps and a steep tail, so that foreign keys land
        // far from where any model window expects them.
        let mut keys: Vec<Key> = Vec::new();
        for run in 0..40u64 {
            let base = (run * run * run) << 36;
            keys.extend((0..(run % 7 + 1) * 300).map(|i| base + 16 + i * (run + 1) * 4));
        }
        keys.sort_unstable();
        keys.dedup();
        let bulk: Vec<KeyValue> = keys.iter().step_by(2).map(|&k| (k, k ^ 0x5a)).collect();
        let inserts: Vec<Key> = keys.iter().skip(1).step_by(6).copied().collect();
        // Every gap neighbour and midpoint, plus both ends of the domain.
        let mut probes = vec![0, 1, bulk[0].0 - 1, Key::MAX - 1, Key::MAX];
        for w in bulk.windows(2) {
            probes.extend([w[0].0 + 1, w[0].0 + (w[1].0 - w[0].0) / 2, w[1].0 - 1]);
        }
        probes.extend(bulk.last().map(|kv| kv.0 + 1));
        let check = |idx: &AnyIndex, live: &BTreeMap<Key, Value>, when: &str| {
            let name = idx.name();
            for &(k, _) in &bulk {
                assert_eq!(idx.get(k), live.get(&k).copied(), "{name} {when}: key {k}");
            }
            for &p in &probes {
                assert_eq!(idx.get(p), live.get(&p).copied(), "{name} {when}: probe {p}");
            }
            for &p in probes.iter().step_by(97) {
                let expect: Vec<KeyValue> =
                    live.range(p..).take(5).map(|(&k, &v)| (k, v)).collect();
                let hi = expect.last().map_or(Key::MAX, |kv| kv.0);
                assert_eq!(idx.range_vec(p, hi), expect, "{name} {when}: range from {p}");
            }
        };
        for kind in [IndexKind::XIndex, IndexKind::Rmi, IndexKind::Rs] {
            let mut idx = AnyIndex::build(kind, &bulk);
            let mut live: BTreeMap<Key, Value> = bulk.iter().copied().collect();
            check(&idx, &live, "built");
            if !kind.supports_insert() {
                continue;
            }
            for &k in &inserts {
                assert_eq!(idx.insert(k, !k), None);
                live.insert(k, !k);
            }
            check(&idx, &live, "after inserts");
            for &k in &inserts {
                assert_eq!(idx.get(k), Some(!k), "inserted key {k}");
            }
        }
    }

    #[test]
    fn capabilities_table_rows() {
        let learned: Vec<_> =
            IndexKind::LEARNED.iter().filter_map(super::IndexKind::capabilities).collect();
        assert_eq!(learned.len(), 8);
        assert!(learned.iter().any(|c| c.concurrent_writes), "XIndex row");
        assert!(IndexKind::BTree.capabilities().is_none());
    }

    #[test]
    fn concurrent_kinds_build_and_operate() {
        let d = data(10_000);
        let lineup = ConcurrentKind::all();
        assert_eq!(lineup.len(), IndexKind::UPDATABLE.len());
        for kind in lineup {
            let idx = AnyConcurrentIndex::build(kind, &d);
            assert_eq!(ConcurrentIndex::len(&idx), d.len(), "{}", kind.name());
            assert_eq!(ConcurrentIndex::get(&idx, 8), Some(1), "{}", kind.name());
            assert_eq!(idx.insert(2, 42), None, "{}", kind.name());
            assert_eq!(ConcurrentIndex::get(&idx, 2), Some(42));
            assert_eq!(idx.remove(2), Some(42));
        }
    }

    #[test]
    fn concurrent_routes() {
        assert_eq!(ConcurrentKind::of(IndexKind::XIndex).unwrap().via, ConcurrentVia::Native);
        assert_eq!(ConcurrentKind::of(IndexKind::Alex).unwrap().via, ConcurrentVia::Sharded);
        assert!(ConcurrentKind::of(IndexKind::Rmi).is_none());
        assert!(ConcurrentKind::of(IndexKind::Rs).is_none());
        assert_eq!(ConcurrentKind::of(IndexKind::Pgm).unwrap().name(), "PGM(shard)");
        assert_eq!(ConcurrentKind::global_lock(IndexKind::BTree).unwrap().name(), "BTree(lock)");
        assert_eq!(ConcurrentKind::of(IndexKind::XIndex).unwrap().name(), "XIndex");

        let d = data(4_000);
        let lock =
            AnyConcurrentIndex::build(ConcurrentKind::global_lock(IndexKind::BTree).unwrap(), &d);
        assert_eq!(lock.shard_count(), 1);
        let shard = AnyConcurrentIndex::build_with_shards(
            ConcurrentKind::of(IndexKind::Pgm).unwrap(),
            8,
            &d,
        );
        assert_eq!(shard.shard_count(), 8);
        let native = AnyConcurrentIndex::build(ConcurrentKind::of(IndexKind::XIndex).unwrap(), &d);
        assert_eq!(native.shard_count(), 1);

        // The one-cell routes stay one cell under skewed traffic: epochs
        // of writes into one narrow key range, each raced by full scans,
        // then an adaptation epoch. A scan holds the cell read lock, so
        // only the exclusive write path can wait on it: XIndex writes that
        // go through its native writer record no `ShardLockWait`.
        for kind in [
            ConcurrentKind::of(IndexKind::XIndex).unwrap(),
            ConcurrentKind::global_lock(IndexKind::BTree).unwrap(),
        ] {
            let mut idx = AnyConcurrentIndex::build(kind, &d);
            let rec = Recorder::enabled();
            idx.set_recorder(rec.clone());
            for epoch in 0..24u64 {
                let writing = AtomicBool::new(true);
                li_sync::thread::scope(|s| {
                    s.spawn(|| {
                        while writing.load(Ordering::Acquire) {
                            idx.range_vec(0, Key::MAX);
                        }
                    });
                    for i in 0..1_000u64 {
                        idx.insert(2 + (i % 200) * 7, epoch);
                    }
                    writing.store(false, Ordering::Release);
                });
                assert_eq!(idx.run_adaptation(), 0, "{} epoch {epoch}", kind.name());
                assert_eq!(idx.shard_count(), 1, "{} epoch {epoch}", kind.name());
            }
            if kind.via == ConcurrentVia::Native {
                assert_eq!(rec.event_count(Event::ShardLockWait), 0, "XIndex left native_writer");
            }
        }
    }

    #[test]
    fn adaptive_route_splits_merges_and_preserves_contents() {
        let d = data(6_000);
        let alex = ConcurrentKind::of(IndexKind::Alex).unwrap();
        let idx = AnyConcurrentIndex::build_with_shards(alex, 4, &d);
        assert_eq!(idx.shard_count(), 4);
        assert_eq!(ConcurrentIndex::len(&idx), d.len());
        assert_eq!(Index::name(&idx), "ALEX");

        idx.force_split(1).unwrap();
        idx.force_split(0).unwrap();
        assert_eq!(idx.shard_count(), 6);
        idx.force_merge(3).unwrap();
        assert_eq!(idx.shard_count(), 5);
        // Pieces are rebuilt with the router's one kind.
        assert_eq!(Index::name(&idx), "ALEX");
        for &(k, v) in d.iter().step_by(101) {
            assert_eq!(ConcurrentIndex::get(&idx, k), Some(v), "key {k} after adaptation");
        }
        assert_eq!(idx.insert(2, 42), None);
        assert_eq!(ConcurrentIndex::get(&idx, 2), Some(42));
        assert_eq!(idx.range_vec(0, u64::MAX).len(), d.len() + 1);
    }

    #[test]
    fn concurrent_index_scans_through_shards() {
        let d = data(5_000);
        for kind in [
            ConcurrentKind::of(IndexKind::BTree).unwrap(),
            ConcurrentKind::of(IndexKind::XIndex).unwrap(),
        ] {
            let idx = AnyConcurrentIndex::build(kind, &d);
            let mut out = Vec::new();
            idx.range(8, 29, &mut out);
            assert_eq!(out, vec![(8, 1), (15, 2), (22, 3), (29, 4)], "{}", kind.name());
        }
    }
}
