//! # li-apex — a persistent-memory learned index (APEX-style)
//!
//! APEX (Lu et al., VLDB'21) is cited in the benchmarked paper's intro as
//! the learned index built *for* persistent memory: instead of Viper's
//! "volatile index in DRAM over records in NVM" split (§III-A2), the index
//! nodes themselves live on PMem, so a restart needs no index rebuild —
//! the opposite trade-off from what Fig. 16 measures for the DRAM-resident
//! indexes. This crate reproduces that architecture point on the
//! workspace's simulated NVM so the two designs can be compared under one
//! roof (see the recovery ablation and EXPERIMENTS.md).
//!
//! ## Design
//!
//! Fixed-size **data nodes** (one device page each) hold a model-indexed
//! gapped slot array, ALEX-style. Each node's header stores its routing
//! key, its linear model and a validity bitmap — everything recovery
//! needs — so restart cost is one small header read per node instead of a
//! scan of every record.
//!
//! Crash safety:
//! * **Insert** publishes with the classic write → flush → fence →
//!   set-valid-bit → flush → fence protocol; a torn insert leaves the slot
//!   invalid.
//! * **Update** is a single 8-byte in-place write (atomic on PMem).
//! * **Split** (the only structural modification) is made atomic by an
//!   epoch: new nodes are written with `version = committed + 1` and a
//!   `replaces` pointer to the old node, then the persisted
//!   `committed_version` counter is bumped — the commit point — and only
//!   then is the old node's magic cleared. Recovery ignores uncommitted
//!   nodes and drops nodes replaced by committed ones, so every crash
//!   window resolves to exactly one side of the split.

use std::sync::Arc;

use li_core::traits::{DepthStats, Index, OrderedIndex, UpdatableIndex};
use li_core::{Key, KeyValue, LinearModel, Value};
use li_nvm::NvmDevice;

/// Magic marking a live node page.
const NODE_MAGIC: u64 = 0x4150_4558_5f4e_4f44; // "APEX_NOD"
/// Device byte offset of the persisted committed-version counter.
const COMMIT_OFFSET: usize = 0;
/// First node page begins after the commit/bootstrap page.
const FIRST_NODE_PAGE: usize = 1;

/// Node page size (one simulated PMem page).
pub const NODE_BYTES: usize = 4096;
/// Header: magic(8) version(8) replaces(8) slots(4) pad(4) model x0(8)
/// slope(8) intercept(8) = 56, rounded up.
const HEADER_BYTES: usize = 64;
/// One slot: key(8) value(8).
const SLOT_BYTES: usize = 16;
/// Validity bitmap bytes (supports up to BITMAP_BYTES*8 slots).
const BITMAP_BYTES: usize = 32;
/// Slots per node.
pub const SLOTS: usize = (NODE_BYTES - HEADER_BYTES - BITMAP_BYTES) / SLOT_BYTES;

/// Node occupancy targets.
const BUILD_DENSITY: f64 = 0.6;
const MAX_DENSITY: f64 = 0.85;

/// Offsets within a node page.
#[inline]
fn off_bitmap(node: usize) -> usize {
    node + HEADER_BYTES
}
#[inline]
fn off_slot(node: usize, slot: usize) -> usize {
    node + HEADER_BYTES + BITMAP_BYTES + slot * SLOT_BYTES
}

/// Volatile per-node accelerator (APEX keeps these rebuildable from the
/// persistent headers).
#[derive(Clone, Copy)]
struct NodeMeta {
    /// Device byte offset of the node page.
    offset: usize,
    /// Routing key: smallest key this node is responsible for.
    pivot: Key,
    model: LinearModel,
    occupied: u32,
}

/// Split phases, used by tests to inject crashes inside the SMO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SplitPhase {
    /// New node bodies + headers written and persisted.
    NewNodesPersisted,
    /// committed_version bumped (the commit point).
    Committed,
    /// Old node's magic cleared.
    OldRetired,
}

/// The persistent learned index.
pub struct Apex {
    dev: Arc<NvmDevice>,
    /// Volatile routing table, sorted by pivot.
    nodes: Vec<NodeMeta>,
    /// Volatile page free list + bump cursor (rebuilt on recovery).
    free_pages: Vec<usize>,
    next_page: usize,
    committed: u64,
    len: usize,
    /// Test hook: abort the next split after this phase.
    #[doc(hidden)]
    pub crash_split_after: Option<SplitPhase>,
}

impl Apex {
    /// Total node pages the device can hold.
    fn total_pages(dev: &NvmDevice) -> usize {
        dev.capacity() / NODE_BYTES
    }

    /// Bulk-builds over strictly-ascending pairs onto `dev`.
    pub fn build(dev: Arc<NvmDevice>, data: &[KeyValue]) -> Self {
        let mut apex = Apex {
            dev,
            nodes: Vec::new(),
            free_pages: Vec::new(),
            next_page: FIRST_NODE_PAGE,
            committed: 1,
            len: 0,
            crash_split_after: None,
        };
        let per_node = ((SLOTS as f64) * BUILD_DENSITY) as usize;
        for chunk in data.chunks(per_node.max(1)) {
            let page = apex.alloc_page();
            let meta = apex.write_node(page, chunk, 1, 0);
            apex.nodes.push(meta);
        }
        if apex.nodes.is_empty() {
            let page = apex.alloc_page();
            let meta = apex.write_node(page, &[], 1, 0);
            apex.nodes.push(meta);
        }
        apex.len = data.len();
        apex.dev.write_u64(COMMIT_OFFSET, 1);
        apex.dev.persist(COMMIT_OFFSET, 8);
        apex
    }

    /// Recovers from a device: reads the commit counter, then one header
    /// per page — no record scan, no model refitting (the APEX selling
    /// point; compare Fig. 16's rebuild times).
    pub fn recover(dev: Arc<NvmDevice>) -> Self {
        let committed = dev.read_u64(COMMIT_OFFSET);
        let total = Self::total_pages(&dev);
        let mut raw: Vec<(NodeMeta, u64, u64)> = Vec::new(); // meta, version, replaces
        let mut free_pages = Vec::new();
        let mut next_page = FIRST_NODE_PAGE;
        for page in FIRST_NODE_PAGE..total {
            let node = page * NODE_BYTES;
            if dev.read_u64(node) != NODE_MAGIC {
                free_pages.push(page);
                continue;
            }
            next_page = next_page.max(page + 1);
            let version = dev.read_u64(node + 8);
            if version > committed {
                // Uncommitted SMO debris: reclaim.
                free_pages.push(page);
                continue;
            }
            let replaces = dev.read_u64(node + 16);
            let slots_used = {
                let mut b = [0u8; 4];
                dev.read_into(node + 24, &mut b);
                u32::from_le_bytes(b)
            };
            let x0 = dev.read_u64(node + 32);
            let slope = f64::from_bits(dev.read_u64(node + 40));
            let intercept = f64::from_bits(dev.read_u64(node + 48));
            let pivot = dev.read_u64(node + 56);
            raw.push((
                NodeMeta {
                    offset: node,
                    pivot,
                    model: LinearModel { x0, slope, intercept },
                    occupied: slots_used,
                },
                version,
                replaces,
            ));
        }
        // Drop nodes replaced by committed successors (crash between commit
        // and old-magic-clear leaves both visible).
        let replaced: std::collections::HashSet<u64> =
            raw.iter().filter(|(_, _, r)| *r != 0).map(|(_, _, r)| *r).collect();
        let mut nodes: Vec<NodeMeta> = Vec::new();
        // Pass 1: finish the interrupted retirement — clear the magic of
        // every replaced node so recovery converges to the post-split
        // state.
        for (m, _, _) in raw.iter().filter(|(m, _, _)| replaced.contains(&(m.offset as u64))) {
            dev.write_u64(m.offset, 0);
            dev.persist(m.offset, 8);
            free_pages.push(m.offset / NODE_BYTES);
        }
        // Pass 2: keep survivors, scrubbing now-dangling `replaces`
        // pointers so their target pages can be reused safely.
        for (m, _, replaces) in raw {
            if replaced.contains(&(m.offset as u64)) {
                continue;
            }
            if replaces != 0 && dev.read_u64(replaces as usize) != NODE_MAGIC {
                dev.write_u64(m.offset + 16, 0);
                dev.persist(m.offset + 16, 8);
            }
            nodes.push(m);
        }
        nodes.sort_by_key(|m| m.pivot);
        let mut apex =
            Apex { dev, nodes, free_pages, next_page, committed, len: 0, crash_split_after: None };
        // Recompute occupancy (cheap: bitmap read per node) and len.
        let mut len = 0usize;
        for i in 0..apex.nodes.len() {
            let occ =
                apex.read_bitmap(apex.nodes[i].offset).iter().map(|w| w.count_ones()).sum::<u32>();
            apex.nodes[i].occupied = occ;
            len += occ as usize;
        }
        apex.len = len;
        apex
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<NvmDevice> {
        &self.dev
    }

    /// Number of data nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn alloc_page(&mut self) -> usize {
        if let Some(p) = self.free_pages.pop() {
            return p * NODE_BYTES;
        }
        let p = self.next_page;
        assert!(p < Self::total_pages(&self.dev), "APEX device full");
        self.next_page += 1;
        p * NODE_BYTES
    }

    fn read_bitmap(&self, node: usize) -> [u64; BITMAP_BYTES / 8] {
        let mut buf = [0u8; BITMAP_BYTES];
        self.dev.read_into(off_bitmap(node), &mut buf);
        let mut words = [0u64; BITMAP_BYTES / 8];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        }
        words
    }

    #[inline]
    fn bit_is_set(words: &[u64], slot: usize) -> bool {
        words[slot / 64] >> (slot % 64) & 1 == 1
    }

    fn set_bit(&self, node: usize, slot: usize, on: bool) {
        let byte_off = off_bitmap(node) + slot / 8;
        let mut b = [0u8; 1];
        self.dev.read_into(byte_off, &mut b);
        if on {
            b[0] |= 1 << (slot % 8);
        } else {
            b[0] &= !(1 << (slot % 8));
        }
        self.dev.write(byte_off, &b);
        self.dev.persist(byte_off, 1);
    }

    fn read_slot(&self, node: usize, slot: usize) -> KeyValue {
        let mut b = [0u8; SLOT_BYTES];
        self.dev.read_into(off_slot(node, slot), &mut b);
        (
            u64::from_le_bytes(b[..8].try_into().expect("8")),
            u64::from_le_bytes(b[8..].try_into().expect("8")),
        )
    }

    /// Writes a full node page: gapped layout of `data`, header, bitmap;
    /// persists everything except it does NOT touch the commit counter.
    fn write_node(
        &mut self,
        node: usize,
        data: &[KeyValue],
        version: u64,
        replaces: u64,
    ) -> NodeMeta {
        use li_core::approx::lsa_gap::GappedLayout;
        let layout = GappedLayout::build_with_capacity(data, SLOTS);
        // Bitmap + slots.
        let mut bitmap = [0u8; BITMAP_BYTES];
        let mut slot_bytes = vec![0u8; SLOTS * SLOT_BYTES];
        for (i, s) in layout.slots.iter().enumerate() {
            if let Some((k, v)) = s {
                bitmap[i / 8] |= 1 << (i % 8);
                slot_bytes[i * SLOT_BYTES..i * SLOT_BYTES + 8].copy_from_slice(&k.to_le_bytes());
                slot_bytes[i * SLOT_BYTES + 8..i * SLOT_BYTES + 16]
                    .copy_from_slice(&v.to_le_bytes());
            }
        }
        self.dev.write(off_bitmap(node), &bitmap);
        self.dev.write(off_bitmap(node) + BITMAP_BYTES, &slot_bytes);
        // Header (magic last so a torn node is never live).
        let pivot = data.first().map_or(0, |kv| kv.0);
        self.dev.write_u64(node + 8, version);
        self.dev.write_u64(node + 16, replaces);
        self.dev.write(node + 24, &(data.len() as u32).to_le_bytes());
        self.dev.write_u64(node + 32, layout.model.x0);
        self.dev.write_u64(node + 40, layout.model.slope.to_bits());
        self.dev.write_u64(node + 48, layout.model.intercept.to_bits());
        self.dev.write_u64(node + 56, pivot);
        self.dev.flush(node + 8, NODE_BYTES - 8);
        self.dev.fence();
        self.dev.write_u64(node, NODE_MAGIC);
        self.dev.persist(node, 8);
        NodeMeta { offset: node, pivot, model: layout.model, occupied: data.len() as u32 }
    }

    /// Routing: index of the node responsible for `key`.
    #[inline]
    fn node_for(&self, key: Key) -> usize {
        self.nodes.partition_point(|m| m.pivot <= key).saturating_sub(1)
    }

    /// Finds the slot holding `key` in a node, probing outward from the
    /// model prediction (reads hit the device, as they would on PMem).
    fn find_slot(&self, meta: &NodeMeta, key: Key) -> Option<usize> {
        let words = self.read_bitmap(meta.offset);
        let start = meta.model.predict_clamped(key, SLOTS);
        // Scan right.
        let mut i = start;
        while i < SLOTS {
            if Self::bit_is_set(&words, i) {
                let (k, _) = self.read_slot(meta.offset, i);
                if k == key {
                    return Some(i);
                }
                if k > key {
                    break;
                }
            }
            i += 1;
        }
        // Scan left.
        let mut i = start;
        while i > 0 {
            i -= 1;
            if Self::bit_is_set(&words, i) {
                let (k, _) = self.read_slot(meta.offset, i);
                if k == key {
                    return Some(i);
                }
                if k < key {
                    break;
                }
            }
        }
        None
    }

    /// Collects a node's live pairs in key order.
    fn node_pairs(&self, meta: &NodeMeta) -> Vec<KeyValue> {
        let words = self.read_bitmap(meta.offset);
        let mut out = Vec::with_capacity(meta.occupied as usize);
        for i in 0..SLOTS {
            if Self::bit_is_set(&words, i) {
                out.push(self.read_slot(meta.offset, i));
            }
        }
        out
    }

    /// Splits node `ni` (merging `pending` in) into two fresh nodes via the
    /// epoch protocol. Returns false when the test hook aborted mid-way.
    fn split(&mut self, ni: usize, pending: KeyValue) -> bool {
        let old = self.nodes[ni];
        let mut data = self.node_pairs(&old);
        let pos = data.partition_point(|kv| kv.0 < pending.0);
        data.insert(pos, pending);
        let mid = data.len() / 2;
        let v_new = self.committed + 1;

        let left_page = self.alloc_page();
        let right_page = self.alloc_page();
        let left = self.write_node(left_page, &data[..mid], v_new, old.offset as u64);
        let mut right = self.write_node(right_page, &data[mid..], v_new, old.offset as u64);
        if self.crash_split_after == Some(SplitPhase::NewNodesPersisted) {
            return false;
        }
        // Commit point.
        self.dev.write_u64(COMMIT_OFFSET, v_new);
        self.dev.persist(COMMIT_OFFSET, 8);
        self.committed = v_new;
        if self.crash_split_after == Some(SplitPhase::Committed) {
            return false;
        }
        // Retire the old node.
        self.dev.write_u64(old.offset, 0);
        self.dev.persist(old.offset, 8);
        if self.crash_split_after == Some(SplitPhase::OldRetired) {
            return false;
        }
        // Scrub the `replaces` pointers before the old page can ever be
        // reused: a stale pointer at a recycled offset would make a later
        // recovery retire an innocent occupant.
        self.dev.write_u64(left.offset + 16, 0);
        self.dev.write_u64(right.offset + 16, 0);
        self.dev.persist(left.offset + 16, 8);
        self.dev.persist(right.offset + 16, 8);
        self.free_pages.push(old.offset / NODE_BYTES);
        // Volatile routing update: left keeps the old pivot (it may cover
        // keys below its first stored key).
        let mut left = left;
        left.pivot = left.pivot.min(old.pivot);
        right.pivot = data[mid].0;
        self.nodes.splice(ni..=ni, [left, right]);
        true
    }
}

impl Index for Apex {
    fn name(&self) -> &'static str {
        "APEX"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, key: Key) -> Option<Value> {
        let meta = &self.nodes[self.node_for(key)];
        let slot = self.find_slot(meta, key)?;
        Some(self.read_slot(meta.offset, slot).1)
    }

    fn index_size_bytes(&self) -> usize {
        // Volatile accelerators only — the persistent pages are "storage".
        self.nodes.len() * core::mem::size_of::<NodeMeta>()
    }

    fn data_size_bytes(&self) -> usize {
        self.nodes.len() * NODE_BYTES
    }

    fn depth_stats(&self) -> Option<&dyn DepthStats> {
        Some(self)
    }
}

impl UpdatableIndex for Apex {
    fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
        let ni = self.node_for(key);
        let meta = self.nodes[ni];
        // Update in place: a single atomic 8-byte value write.
        if let Some(slot) = self.find_slot(&meta, key) {
            let (_, old) = self.read_slot(meta.offset, slot);
            self.dev.write_u64(off_slot(meta.offset, slot) + 8, value);
            self.dev.persist(off_slot(meta.offset, slot) + 8, 8);
            return Some(old);
        }
        // Fresh key: place near the prediction in a free, order-preserving
        // slot; split when none exists or the node is too dense.
        if (meta.occupied as usize + 1) as f64 / SLOTS as f64 <= MAX_DENSITY {
            if let Some(slot) = self.free_slot_for(&meta, key) {
                let mut rec = [0u8; SLOT_BYTES];
                rec[..8].copy_from_slice(&key.to_le_bytes());
                rec[8..].copy_from_slice(&value.to_le_bytes());
                self.dev.write(off_slot(meta.offset, slot), &rec);
                self.dev.flush(off_slot(meta.offset, slot), SLOT_BYTES);
                self.dev.fence();
                self.set_bit(meta.offset, slot, true); // publish
                self.nodes[ni].occupied += 1;
                self.len += 1;
                return None;
            }
        }
        let done = self.split(ni, (key, value));
        assert!(done, "split aborted by test hook");
        self.len += 1;
        None
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        let ni = self.node_for(key);
        let meta = self.nodes[ni];
        let slot = self.find_slot(&meta, key)?;
        let (_, old) = self.read_slot(meta.offset, slot);
        self.set_bit(meta.offset, slot, false);
        self.nodes[ni].occupied -= 1;
        self.len -= 1;
        Some(old)
    }
}

impl Apex {
    /// Free slot between `key`'s in-order neighbours, nearest to the model
    /// prediction; `None` forces a split.
    fn free_slot_for(&self, meta: &NodeMeta, key: Key) -> Option<usize> {
        let words = self.read_bitmap(meta.offset);
        let start = meta.model.predict_clamped(key, SLOTS);
        // Locate prev (last occupied key < key) and next (first occupied
        // key > key) around the prediction.
        let mut prev: Option<usize> = None;
        let mut next: Option<usize> = None;
        let mut i = start;
        loop {
            if i < SLOTS && Self::bit_is_set(&words, i) {
                let (k, _) = self.read_slot(meta.offset, i);
                if k > key {
                    next = Some(i);
                    break;
                }
                prev = Some(i);
            }
            i += 1;
            if i >= SLOTS {
                break;
            }
        }
        if prev.is_none() {
            let mut i = start;
            while i > 0 {
                i -= 1;
                if Self::bit_is_set(&words, i) {
                    let (k, _) = self.read_slot(meta.offset, i);
                    if k < key {
                        prev = Some(i);
                        break;
                    }
                    next = Some(i);
                }
            }
        }
        let lo = prev.map_or(0, |p| p + 1);
        let hi = next.unwrap_or(SLOTS);
        if lo < hi {
            Some(start.clamp(lo, hi - 1))
        } else {
            // No gap between the neighbours: APEX would shift; splitting
            // instead keeps every slot write independent (simpler crash
            // story) at the cost of earlier splits.
            None
        }
    }
}

impl OrderedIndex for Apex {
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        if lo > hi {
            return;
        }
        let mut ni = self.node_for(lo);
        while ni < self.nodes.len() {
            if ni > 0 && self.nodes[ni].pivot > hi {
                break;
            }
            for (k, v) in self.node_pairs(&self.nodes[ni]) {
                if k >= lo && k <= hi {
                    out.push((k, v));
                }
            }
            ni += 1;
        }
    }
}

impl DepthStats for Apex {
    fn avg_depth(&self) -> f64 {
        2.0 // routing table + node
    }

    fn leaf_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use li_nvm::NvmConfig;
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    use std::collections::BTreeMap;

    fn device(pages: usize) -> Arc<NvmDevice> {
        Arc::new(NvmDevice::new(NvmConfig::fast(pages * NODE_BYTES)))
    }

    fn crash_device(pages: usize) -> Arc<NvmDevice> {
        Arc::new(NvmDevice::new(NvmConfig::fast_with_crash(pages * NODE_BYTES)))
    }

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
        let data = dataset(20_000, 1);
        let apex = Apex::build(device(600), &data);
        assert_eq!(apex.len(), data.len());
        assert!(apex.node_count() > 100);
        for &(k, v) in data.iter().step_by(37) {
            assert_eq!(apex.get(k), Some(v), "key {k}");
        }
        assert_eq!(apex.get(12345), data.iter().find(|kv| kv.0 == 12345).map(|kv| kv.1));
    }

    #[test]
    fn insert_update_remove_match_model() {
        let data = dataset(5_000, 2);
        let mut apex = Apex::build(device(2_000), &data);
        let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..20_000u64 {
            let k = rng.random::<u64>();
            match rng.random_range(0..10) {
                0..=6 => assert_eq!(apex.insert(k, i), model.insert(k, i), "insert {k}"),
                7..=8 => {
                    let probe = *model.keys().nth((k % model.len() as u64) as usize).unwrap();
                    assert_eq!(apex.get(probe), model.get(&probe).copied());
                }
                _ => assert_eq!(apex.remove(k), model.remove(&k)),
            }
        }
        assert_eq!(apex.len(), model.len());
        for (&k, &v) in model.iter().step_by(97) {
            assert_eq!(apex.get(k), Some(v));
        }
    }

    #[test]
    fn recovery_without_crash_is_exact() {
        let data = dataset(10_000, 4);
        let dev = device(1_000);
        let mut apex = Apex::build(Arc::clone(&dev), &data);
        for i in 0..5_000u64 {
            apex.insert(u64::MAX / 2 + i * 3, i);
        }
        apex.remove(data[0].0);
        let expect_len = apex.len();
        drop(apex);
        let recovered = Apex::recover(dev);
        assert_eq!(recovered.len(), expect_len);
        assert_eq!(recovered.get(data[0].0), None);
        for &(k, v) in data.iter().skip(1).step_by(53) {
            assert_eq!(recovered.get(k), Some(v), "lost {k}");
        }
        assert_eq!(recovered.get(u64::MAX / 2 + 3), Some(1));
    }

    #[test]
    fn crash_after_any_op_recovers_cleanly() {
        let data = dataset(2_000, 5);
        let dev = crash_device(2_000);
        let mut apex = Apex::build(Arc::clone(&dev), &data);
        let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
        let mut rng = StdRng::seed_from_u64(6);
        for i in 0..3_000u64 {
            let k = rng.random_range(0..1 << 48);
            if rng.random_bool(0.8) {
                apex.insert(k, i);
                model.insert(k, i);
            } else {
                assert_eq!(apex.remove(k), model.remove(&k));
            }
        }
        drop(apex);
        // Crash: every op persisted synchronously, so nothing is lost.
        let mut dev = Arc::try_unwrap(dev).ok().expect("unique");
        dev.crash();
        let recovered = Apex::recover(Arc::new(dev));
        assert_eq!(recovered.len(), model.len());
        for (&k, &v) in model.iter().step_by(61) {
            assert_eq!(recovered.get(k), Some(v), "lost {k}");
        }
    }

    #[test]
    fn torn_split_resolves_to_exactly_one_side() {
        for phase in [SplitPhase::NewNodesPersisted, SplitPhase::Committed, SplitPhase::OldRetired]
        {
            // Small node fill so one insert triggers a split.
            let per_node = ((SLOTS as f64) * BUILD_DENSITY) as usize;
            let data: Vec<KeyValue> = (0..per_node as u64).map(|i| (i * 10, i)).collect();
            let dev = crash_device(64);
            let mut apex = Apex::build(Arc::clone(&dev), &data);
            assert_eq!(apex.node_count(), 1);
            // Fill to the density cap so the next insert splits.
            let mut i = 0u64;
            while apex.node_count() == 1 {
                apex.crash_split_after = Some(phase);
                let before = apex.len();
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    apex.insert(i * 10 + 5, 999);
                }));
                if r.is_err() {
                    // The split aborted mid-way: crash now.
                    let _ = before;
                    break;
                }
                i += 1;
                assert!(i < SLOTS as u64 * 2, "split never triggered");
            }
            drop(apex);
            let mut dev = Arc::try_unwrap(dev).ok().expect("unique");
            dev.crash();
            let recovered = Apex::recover(Arc::new(dev));
            // All originally loaded keys must be present exactly once,
            // whichever side of the split won.
            for &(k, v) in &data {
                assert_eq!(recovered.get(k), Some(v), "{phase:?}: lost {k}");
            }
            // Ranges must contain no duplicates.
            let all = recovered.range_vec(0, u64::MAX);
            for w in all.windows(2) {
                assert!(w[0].0 < w[1].0, "{phase:?}: duplicate/unsorted {w:?}");
            }
        }
    }

    #[test]
    fn recovery_reads_headers_not_records() {
        let data = dataset(50_000, 7);
        let dev = device(3_000);
        let apex = Apex::build(Arc::clone(&dev), &data);
        drop(apex);
        let before = dev.stats().snapshot().bytes_read;
        let recovered = Apex::recover(Arc::clone(&dev));
        let read = dev.stats().snapshot().bytes_read - before;
        assert_eq!(recovered.len(), data.len());
        // Header + bitmap per node — far less than the full data pages.
        let full = recovered.node_count() * NODE_BYTES;
        assert!((read as usize) < full / 10, "recovery read {read} bytes of {full} stored");
    }

    #[test]
    fn range_scan() {
        let data: Vec<KeyValue> = (0..10_000u64).map(|i| (i * 4, i)).collect();
        let mut apex = Apex::build(device(600), &data);
        apex.insert(6, 999);
        assert_eq!(apex.range_vec(3, 13), vec![(4, 1), (6, 999), (8, 2), (12, 3)]);
        let all = apex.range_vec(0, u64::MAX);
        assert_eq!(all.len(), 10_001);
    }

    #[test]
    fn empty() {
        let mut apex = Apex::build(device(16), &[]);
        assert!(apex.is_empty());
        assert_eq!(apex.get(5), None);
        apex.insert(5, 50);
        assert_eq!(apex.get(5), Some(50));
        assert_eq!(apex.remove(5), Some(50));
        assert!(apex.is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        #[test]
        fn matches_btreemap(ops in proptest::collection::vec((0u64..2_000, 0u64..100, proptest::bool::ANY), 0..400)) {
            let data: Vec<KeyValue> = (0..200u64).map(|i| (i * 13, i)).collect();
            let mut apex = Apex::build(device(256), &data);
            let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
            for &(k, v, ins) in &ops {
                if ins {
                    proptest::prop_assert_eq!(apex.insert(k, v), model.insert(k, v));
                } else {
                    proptest::prop_assert_eq!(apex.remove(k), model.remove(&k));
                }
            }
            proptest::prop_assert_eq!(apex.len(), model.len());
            let got = apex.range_vec(0, u64::MAX);
            let expect: Vec<KeyValue> = model.iter().map(|(&k, &v)| (k, v)).collect();
            proptest::prop_assert_eq!(got, expect);
        }
    }
}

#[cfg(test)]
mod double_crash_tests {
    use super::*;
    use li_nvm::NvmConfig;

    /// Crash during a split, recover, crash again immediately, recover
    /// again: both recoveries must expose the same state (idempotence).
    #[test]
    fn recovery_is_idempotent_after_torn_split() {
        let per_node = ((SLOTS as f64) * BUILD_DENSITY) as usize;
        let data: Vec<KeyValue> = (0..per_node as u64).map(|i| (i * 10, i)).collect();
        let dev = Arc::new(NvmDevice::new(NvmConfig::fast_with_crash(64 * NODE_BYTES)));
        let mut apex = Apex::build(Arc::clone(&dev), &data);
        let mut i = 0u64;
        loop {
            apex.crash_split_after = Some(SplitPhase::Committed);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                apex.insert(i * 10 + 5, 1);
            }));
            if r.is_err() {
                break;
            }
            i += 1;
            assert!(i < SLOTS as u64 * 2);
        }
        drop(apex);
        let mut dev = Arc::try_unwrap(dev).ok().expect("unique");
        dev.crash();
        let dev = Arc::new(dev);
        let first = Apex::recover(Arc::clone(&dev));
        let snapshot_a = first.range_vec(0, u64::MAX);
        drop(first);
        // Crash again without any new durable ops (recovery's own scrubs
        // were persisted, so they survive).
        let mut dev = Arc::try_unwrap(dev).ok().expect("unique");
        dev.crash();
        let second = Apex::recover(Arc::new(dev));
        let snapshot_b = second.range_vec(0, u64::MAX);
        assert_eq!(snapshot_a, snapshot_b, "recoveries disagree");
        for &(k, v) in &data {
            assert_eq!(second.get(k), Some(v), "lost {k}");
        }
    }
}
