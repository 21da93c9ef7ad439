//! CCEH-style extendible hashing (Nam et al., FAST'19), the paper's hash
//! baseline (the black horizontal line in Figs. 10–15).
//!
//! Structure: a directory of 2^global_depth entries pointing into a
//! segment arena; each segment holds 2^SEGMENT_BITS bucket groups of
//! [`BUCKET_SLOTS`] slots and carries a local depth. An insert that finds
//! its bucket group full (after bounded linear probing) splits the segment
//! — doubling the directory only when local depth catches up with global
//! depth, CCEH's "lazy split". Directory indexing uses the hash MSBs,
//! bucket indexing the LSBs, as in the original.
//!
//! Being a hash index it supports no range scans — exactly why the paper
//! treats it as an upper bound rather than a competitor (§VII (i)).

use li_core::traits::{BulkBuildIndex, Index, UpdatableIndex};
use li_core::{Key, KeyValue, Value};

/// Slots per bucket group (CCEH probes a cache-line pair).
const BUCKET_SLOTS: usize = 8;
/// log2 of bucket groups per segment.
const SEGMENT_BITS: u32 = 8;
const BUCKETS_PER_SEGMENT: usize = 1 << SEGMENT_BITS;
/// Linear probing distance in bucket groups before declaring "full".
const PROBE_GROUPS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
struct Slot {
    key: Key,
    value: Value,
    used: bool,
}

const EMPTY: Slot = Slot { key: 0, value: 0, used: false };

struct Segment {
    local_depth: u32,
    slots: Vec<Slot>, // BUCKETS_PER_SEGMENT * BUCKET_SLOTS
    len: usize,
}

impl Segment {
    fn new(local_depth: u32) -> Self {
        Segment { local_depth, slots: vec![EMPTY; BUCKETS_PER_SEGMENT * BUCKET_SLOTS], len: 0 }
    }

    #[inline]
    fn bucket_of(hash: u64) -> usize {
        // Low bits pick the bucket group within the segment.
        (hash & (BUCKETS_PER_SEGMENT as u64 - 1)) as usize
    }

    fn probe_range(hash: u64) -> impl Iterator<Item = usize> {
        let b = Self::bucket_of(hash);
        (0..PROBE_GROUPS).flat_map(move |g| {
            let group = (b + g) % BUCKETS_PER_SEGMENT;
            (0..BUCKET_SLOTS).map(move |s| group * BUCKET_SLOTS + s)
        })
    }

    fn get(&self, hash: u64, key: Key) -> Option<Value> {
        for i in Self::probe_range(hash) {
            let slot = &self.slots[i];
            if slot.used && slot.key == key {
                return Some(slot.value);
            }
        }
        None
    }

    /// Err(()) when every probed slot is occupied (split needed).
    fn insert(&mut self, hash: u64, key: Key, value: Value) -> Result<Option<Value>, ()> {
        let mut free: Option<usize> = None;
        for i in Self::probe_range(hash) {
            let slot = &self.slots[i];
            if slot.used {
                if slot.key == key {
                    let old = self.slots[i].value;
                    self.slots[i].value = value;
                    return Ok(Some(old));
                }
            } else if free.is_none() {
                free = Some(i);
            }
        }
        match free {
            Some(i) => {
                self.slots[i] = Slot { key, value, used: true };
                self.len += 1;
                Ok(None)
            }
            None => Err(()),
        }
    }

    fn remove(&mut self, hash: u64, key: Key) -> Option<Value> {
        for i in Self::probe_range(hash) {
            let slot = &self.slots[i];
            if slot.used && slot.key == key {
                let old = slot.value;
                self.slots[i] = EMPTY;
                self.len -= 1;
                return Some(old);
            }
        }
        None
    }
}

/// The extendible hash index (single-writer).
pub struct Cceh {
    /// Directory entries are indices into `segments`.
    directory: Vec<u32>,
    segments: Vec<Segment>,
    global_depth: u32,
    len: usize,
}

impl Default for Cceh {
    fn default() -> Self {
        Self::new()
    }
}

impl Cceh {
    pub fn new() -> Self {
        Cceh { directory: vec![0], segments: vec![Segment::new(0)], global_depth: 0, len: 0 }
    }

    #[inline]
    fn hash(key: Key) -> u64 {
        // xorshift-multiply mix — fast and well distributed for integer
        // keys (a full SipHash would dominate the probe cost).
        let mut h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^ (h >> 32)
    }

    /// Directory slot for a hash: the top `global_depth` bits.
    #[inline]
    fn dir_slot(&self, hash: u64) -> usize {
        if self.global_depth == 0 {
            0
        } else {
            (hash >> (64 - self.global_depth)) as usize
        }
    }

    /// Splits the segment referenced by directory entry `dir_idx`, then
    /// re-inserts its entries (which may trigger further splits).
    fn split(&mut self, dir_idx: usize) {
        let seg_id = self.directory[dir_idx] as usize;
        let local_depth = self.segments[seg_id].local_depth;
        if local_depth == self.global_depth {
            // Double the directory (each entry duplicated; MSB indexing
            // makes the duplicate adjacent pairs).
            let mut next = Vec::with_capacity(self.directory.len() * 2);
            for &s in &self.directory {
                next.push(s);
                next.push(s);
            }
            self.directory = next;
            self.global_depth += 1;
        }
        // Take the old entries out, reuse the segment slot for the left
        // child, append the right child.
        let old = std::mem::replace(&mut self.segments[seg_id], Segment::new(local_depth + 1));
        let right_id = self.segments.len() as u32;
        self.segments.push(Segment::new(local_depth + 1));

        // Re-point the directory range that aliased the old segment: its
        // entries share the top `local_depth` hash bits and are contiguous.
        let shift = self.global_depth - local_depth; // log2(aliasing entries)
                                                     // dir_idx may be stale after doubling; recompute the group from any
                                                     // current entry pointing at seg_id.
        let some_idx = self
            .directory
            .iter()
            .position(|&s| s as usize == seg_id)
            .expect("segment must be referenced");
        let group_start = (some_idx >> shift) << shift;
        let group_len = 1usize << shift;
        let half = group_len / 2;
        for (i, entry) in
            self.directory[group_start..group_start + group_len].iter_mut().enumerate()
        {
            debug_assert_eq!(*entry as usize, seg_id);
            *entry = if i < half { seg_id as u32 } else { right_id };
        }

        // Redistribute; children can in principle overflow on skewed
        // hashes, in which case insert_raw recursively splits further.
        for slot in old.slots {
            if slot.used {
                let h = Self::hash(slot.key);
                self.insert_raw(h, slot.key, slot.value);
            }
        }
    }

    /// Insert driven purely by hash; used by both the public insert and
    /// split redistribution.
    fn insert_raw(&mut self, hash: u64, key: Key, value: Value) -> Option<Value> {
        loop {
            let idx = self.dir_slot(hash);
            let seg_id = self.directory[idx] as usize;
            match self.segments[seg_id].insert(hash, key, value) {
                Ok(old) => return old,
                Err(()) => self.split(idx),
            }
        }
    }

    /// Number of distinct segments (diagnostics).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Verifies directory/segment invariants (tests).
    #[cfg(test)]
    fn check_invariants(&self) {
        assert_eq!(self.directory.len(), 1usize << self.global_depth);
        for (i, &seg_id) in self.directory.iter().enumerate() {
            let seg = &self.segments[seg_id as usize];
            assert!(seg.local_depth <= self.global_depth);
            let shift = self.global_depth - seg.local_depth;
            let group_start = (i >> shift) << shift;
            // All entries in the group alias the same segment.
            for j in group_start..group_start + (1 << shift) {
                assert_eq!(self.directory[j], seg_id, "directory group broken at {j}");
            }
        }
        let total: usize = {
            let mut seen = std::collections::HashSet::new();
            self.directory
                .iter()
                .filter(|&&s| seen.insert(s))
                .map(|&s| self.segments[s as usize].len)
                .sum()
        };
        assert_eq!(total, self.len);
    }
}

impl Index for Cceh {
    fn name(&self) -> &'static str {
        "CCEH"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, key: Key) -> Option<Value> {
        let h = Self::hash(key);
        let seg = &self.segments[self.directory[self.dir_slot(h)] as usize];
        seg.get(h, key)
    }

    fn index_size_bytes(&self) -> usize {
        self.directory.len() * core::mem::size_of::<u32>()
            + self
                .segments
                .iter()
                .map(|s| s.slots.len() * core::mem::size_of::<Slot>())
                .sum::<usize>()
    }

    fn data_size_bytes(&self) -> usize {
        0 // entries live inside the structure itself
    }
}

impl UpdatableIndex for Cceh {
    fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
        let h = Self::hash(key);
        let old = self.insert_raw(h, key, value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        let h = Self::hash(key);
        let idx = self.dir_slot(h);
        let seg_id = self.directory[idx] as usize;
        let old = self.segments[seg_id].remove(h, key);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }
}

impl BulkBuildIndex for Cceh {
    fn build(data: &[KeyValue]) -> Self {
        // Pre-size the directory for the expected load to avoid repeated
        // doubling during the build.
        let mut c = Cceh::new();
        let per_segment = BUCKETS_PER_SEGMENT * BUCKET_SLOTS / 2;
        let target_segments = (data.len() / per_segment).next_power_of_two().max(1);
        let depth = target_segments.trailing_zeros();
        c.global_depth = depth;
        c.segments = (0..target_segments).map(|_| Segment::new(depth)).collect();
        c.directory = (0..target_segments as u32).collect();
        for &(k, v) in data {
            c.insert(k, v);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_many() {
        let mut c = Cceh::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = HashMap::new();
        for i in 0..100_000u64 {
            let k = rng.random::<u64>();
            assert_eq!(c.insert(k, i), model.insert(k, i));
        }
        c.check_invariants();
        assert_eq!(c.len(), model.len());
        for (&k, &v) in model.iter().take(5_000) {
            assert_eq!(c.get(k), Some(v), "key {k}");
        }
        assert_eq!(c.get(12345), model.get(&12345).copied());
        let keys: Vec<Key> = model.keys().copied().take(10_000).collect();
        for k in keys {
            assert_eq!(c.remove(k), model.remove(&k));
            assert_eq!(c.get(k), None);
        }
        c.check_invariants();
        assert_eq!(c.len(), model.len());
    }

    #[test]
    fn update_replaces() {
        let mut c = Cceh::new();
        assert_eq!(c.insert(7, 1), None);
        assert_eq!(c.insert(7, 2), Some(1));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(7), Some(2));
    }

    #[test]
    fn sequential_keys_split_fine() {
        let mut c = Cceh::new();
        for k in 0..200_000u64 {
            c.insert(k, k * 2);
        }
        c.check_invariants();
        assert_eq!(c.len(), 200_000);
        assert!(c.segment_count() > 1, "splits must have happened");
        for k in (0..200_000u64).step_by(997) {
            assert_eq!(c.get(k), Some(k * 2));
        }
    }

    #[test]
    fn bulk_build() {
        let data: Vec<KeyValue> = (0..50_000u64).map(|i| (i * 7, i)).collect();
        let c = Cceh::build(&data);
        c.check_invariants();
        assert_eq!(c.len(), data.len());
        for &(k, v) in data.iter().step_by(113) {
            assert_eq!(c.get(k), Some(v));
            assert_eq!(c.get(k + 1), None);
        }
        assert!(c.index_size_bytes() > 0);
    }

    #[test]
    fn empty() {
        let c = Cceh::new();
        assert!(c.is_empty());
        assert_eq!(c.get(0), None);
        assert_eq!(c.get(u64::MAX), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn matches_hashmap(ops in proptest::collection::vec((0u64..10_000, 0u64..100, proptest::bool::ANY), 0..800)) {
            let mut c = Cceh::new();
            let mut model = HashMap::new();
            for &(k, v, ins) in &ops {
                if ins {
                    proptest::prop_assert_eq!(c.insert(k, v), model.insert(k, v));
                } else {
                    proptest::prop_assert_eq!(c.remove(k), model.remove(&k));
                }
            }
            c.check_invariants();
            proptest::prop_assert_eq!(c.len(), model.len());
            for (&k, &v) in &model {
                proptest::prop_assert_eq!(c.get(k), Some(v));
            }
        }
    }
}
