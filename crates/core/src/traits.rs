//! Trait family implemented by every index in the workspace.
//!
//! The end-to-end harness (`li-viper` + `li-bench`) talks to indexes only
//! through these traits, which is what makes the paper's "same environment,
//! fair comparison" (§III) possible.

use crate::types::{Key, KeyValue, Value};
use li_telemetry::{CellCounters, Recorder};

/// Read-side interface common to all indexes.
pub trait Index: Send + Sync {
    /// Human-readable name used in benchmark output (e.g. `"ALEX"`).
    fn name(&self) -> &'static str;

    /// Number of live keys.
    fn len(&self) -> usize;

    /// True when the index holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point lookup.
    fn get(&self, key: Key) -> Option<Value>;

    /// Bytes used by the index *structure* only: models, inner nodes,
    /// routing tables — excluding the sorted key/value arrays. This is the
    /// "Index size" column of the paper's Table III.
    fn index_size_bytes(&self) -> usize;

    /// Bytes used by the key/value-handle arrays the index owns (leaf data,
    /// buffers, gaps). Together with [`Index::index_size_bytes`] this forms
    /// the "Index+key size" column of Table III.
    fn data_size_bytes(&self) -> usize;

    /// Attaches a telemetry [`Recorder`]. The default implementation drops
    /// it, so instrumentation is strictly opt-in per index: uninstrumented
    /// indexes keep compiling and simply emit nothing. Wrappers
    /// (`Sharded`, `AnyIndex`, `ViperStore`) forward the recorder to
    /// whatever they contain.
    fn set_recorder(&mut self, _recorder: Recorder) {}

    /// Probes for a natively write-concurrent surface. `Some` means this
    /// index accepts inserts/removes through a shared reference (XIndex's
    /// fine-grained internal locking), so a router holding only a *read*
    /// lock on the cell may write through it. `None` (the default) routes
    /// writes through the router's exclusive lock. This lives on `Index`
    /// so a type-erased handle (`Box<dyn ShardIndex>`, `AnyIndex`) can
    /// answer it without knowing the concrete kind.
    fn native_writer(&self) -> Option<&dyn NativeWriter> {
        None
    }

    /// Probes for structural statistics (Table II depth, Fig. 17 leaf
    /// count, Fig. 18 retrain counters). `Some(self)` for indexes that
    /// implement [`DepthStats`]; `None` (the default) for those without
    /// the notion (hash, skip list, radix tree). Same shape as
    /// [`Index::native_writer`], for the same reason.
    fn depth_stats(&self) -> Option<&dyn DepthStats> {
        None
    }
}

/// Shared-reference write surface exposed by indexes whose internal
/// synchronization already makes concurrent writers safe (XIndex in the
/// paper's lineup, Table I). Obtained via [`Index::native_writer`].
pub trait NativeWriter: Send + Sync {
    /// Insert/update through a shared reference.
    fn insert(&self, key: Key, value: Value) -> Option<Value>;
    /// Remove through a shared reference.
    fn remove(&self, key: Key) -> Option<Value>;
}

/// Indexes that support ordered range scans (every index in the paper except
/// the hash baseline).
pub trait OrderedIndex: Index {
    /// Appends all pairs with `lo <= key <= hi` to `out`, in key order.
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>);

    /// Convenience wrapper returning a fresh vector.
    fn range_vec(&self, lo: Key, hi: Key) -> Vec<KeyValue> {
        let mut out = Vec::new();
        self.range(lo, hi, &mut out);
        out
    }
}

/// Indexes supporting single-threaded mutation.
pub trait UpdatableIndex: Index {
    /// Inserts or updates; returns the previous value if the key existed.
    fn insert(&mut self, key: Key, value: Value) -> Option<Value>;

    /// Removes a key; returns its value if present.
    fn remove(&mut self, key: Key) -> Option<Value>;

    /// Switches the index into (or out of) deferred-retrain mode: inserts
    /// that would trigger a structural retrain park the key in an overflow
    /// buffer and enqueue the leaf for background work instead of blocking.
    /// Returns `true` iff the index supports deferral; the default keeps
    /// every existing index compiling with foreground retraining.
    fn set_defer_retrains(&mut self, _on: bool) -> bool {
        false
    }

    /// Retrain-queue depth: structural work currently parked for
    /// background maintenance (0 for indexes without deferral).
    fn pending_retrains(&self) -> usize {
        0
    }

    /// Runs up to `budget` queued retrain units; returns how many ran.
    fn run_pending_retrains(&mut self, _budget: usize) -> usize {
        0
    }
}

/// Indexes supporting concurrent mutation through a shared reference
/// (in the paper only XIndex among the learned indexes; §III-C2).
pub trait ConcurrentIndex: Send + Sync {
    /// Point lookup through a shared reference.
    fn get(&self, key: Key) -> Option<Value>;
    /// Insert/update through a shared reference.
    fn insert(&self, key: Key, value: Value) -> Option<Value>;
    /// Remove through a shared reference.
    fn remove(&self, key: Key) -> Option<Value>;
    /// Number of live keys (may be approximate while writers are active).
    fn len(&self) -> usize;
    /// True when no keys are present.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shared-reference twin of [`UpdatableIndex::set_defer_retrains`];
    /// wrappers (e.g. `Sharded`) forward it under their write locks.
    fn set_defer_retrains(&self, _on: bool) -> bool {
        false
    }

    /// Shared-reference twin of [`UpdatableIndex::pending_retrains`].
    fn pending_retrains(&self) -> usize {
        0
    }

    /// Shared-reference twin of [`UpdatableIndex::run_pending_retrains`].
    fn run_pending_retrains(&self, _budget: usize) -> usize {
        0
    }

    /// Runs one round of online adaptation (shard split/merge) off the
    /// critical path; returns the number of structural actions
    /// committed. The default does nothing — the `Sharded` router
    /// overrides it, and the `MaintenanceWorker` calls it once per pass.
    fn run_adaptation(&self) -> usize {
        0
    }

    /// One row per router cell, in boundary order: the counters the
    /// tuner reads and STATS shows. Empty for an index that is not a
    /// `Sharded` router.
    fn observe_cells(&self) -> Vec<CellCounters> {
        Vec::new()
    }
}

/// Indexes constructible from a sorted array in one shot (bulk loading),
/// which is how every learned index in the paper is initialised and how
/// Viper recovers its DRAM index after a crash (Fig. 16).
pub trait BulkBuildIndex: Sized {
    /// Builds from strictly-ascending `(key, value)` pairs.
    fn build(data: &[KeyValue]) -> Self;
}

/// Structural statistics used by Table II (average depth) and Fig. 17.
pub trait DepthStats {
    /// Mean root-to-leaf depth over all leaves (Table II).
    fn avg_depth(&self) -> f64;
    /// Number of leaf nodes / segments produced by the approximation
    /// algorithm (Fig. 17 (b)).
    fn leaf_count(&self) -> usize;
}

/// Two-phase lookup used by Fig. 17 (d) to time the inner-structure phase
/// and the in-leaf search phase separately.
pub trait TwoPhaseLookup: Index {
    /// Phase 1: route `key` to a leaf identifier.
    fn locate_leaf(&self, key: Key) -> usize;
    /// Phase 2: search within leaf `leaf` for `key`.
    fn search_leaf(&self, leaf: usize, key: Key) -> Option<Value>;
}

/// Capability row for the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    pub name: &'static str,
    pub inner_node: &'static str,
    pub leaf_node: &'static str,
    /// Whether the approximation guarantees a maximum error.
    pub bounded_error: bool,
    pub approx_algorithm: &'static str,
    pub insertion: &'static str,
    pub retraining: &'static str,
    pub concurrent_writes: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy(Vec<KeyValue>);

    impl Index for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn get(&self, key: Key) -> Option<Value> {
            self.0.binary_search_by_key(&key, |kv| kv.0).ok().map(|i| self.0[i].1)
        }
        fn index_size_bytes(&self) -> usize {
            0
        }
        fn data_size_bytes(&self) -> usize {
            self.0.len() * core::mem::size_of::<KeyValue>()
        }
    }

    impl OrderedIndex for Dummy {
        fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
            out.extend(self.0.iter().filter(|kv| kv.0 >= lo && kv.0 <= hi));
        }
    }

    #[test]
    fn default_is_empty() {
        let d = Dummy(vec![]);
        assert!(d.is_empty());
        let d = Dummy(vec![(1, 10)]);
        assert!(!d.is_empty());
        assert_eq!(d.get(1), Some(10));
        assert_eq!(d.get(2), None);
    }

    #[test]
    fn range_vec_collects() {
        let d = Dummy(vec![(1, 10), (5, 50), (9, 90)]);
        assert_eq!(d.range_vec(2, 9), vec![(5, 50), (9, 90)]);
        assert_eq!(d.range_vec(10, 20), vec![]);
    }
}
