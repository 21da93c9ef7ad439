//! Leaf containers implementing the three insertion strategies of §IV-D.
//!
//! * [`InplaceLeaf`] — FITing-tree-inp: a sorted run with reserved headroom
//!   at both ends; inserting shifts keys toward the nearer end.
//! * [`BufferLeaf`] — FITing-tree-buf / PGM / XIndex: a static sorted run
//!   plus a small sorted off-site buffer; the leaf asks for retraining when
//!   the buffer fills.
//! * [`GappedLeaf`] — ALEX: a model-based gapped array; inserting shifts at
//!   most to the nearest gap, and the leaf asks for retraining (expansion)
//!   when density crosses a threshold.
//!
//! Every leaf counts the key movements it performs
//! ([`LeafStorage::moves`]), the metric behind Fig. 18 (a)'s analysis;
//! [`count_shifts`] reports them as `KeyShift` at the op that made them.

use crate::approx::lsa_gap::GappedLayout;
use crate::model::LinearModel;
use crate::search::{lower_bound_kv, widening_last_le};
use crate::types::{Key, KeyValue, Value};
use li_telemetry::{Event, Recorder};

/// Result of a leaf insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Inserted; no structural action needed.
    Inserted,
    /// Key existed; value replaced (old value inside).
    Replaced(Value),
    /// The leaf is out of reserved space / too dense: the caller must
    /// retrain (re-segment, merge or expand) this leaf. The key was NOT
    /// inserted.
    NeedsRetrain,
}

/// Strategy selector + parameters, used by the assembled index and the
/// Fig. 18 benchmarks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LeafKind {
    /// Reserved headroom of `reserve` slots at each end.
    Inplace { reserve: usize },
    /// Off-site buffer of `reserve` slots.
    Buffer { reserve: usize },
    /// Gapped array with initial `density`, retrain at `max_density`.
    Gapped { density: f64, max_density: f64 },
}

impl LeafKind {
    pub fn name(&self) -> &'static str {
        match self {
            LeafKind::Inplace { .. } => "Inplace",
            LeafKind::Buffer { .. } => "Buffer",
            LeafKind::Gapped { .. } => "ALEX-gap",
        }
    }

    /// Builds a leaf of this kind over sorted `data` with a model
    /// predicting *local* positions (0-based within the leaf).
    pub fn build(&self, data: &[KeyValue], model: LinearModel, max_error: u64) -> Leaf {
        match *self {
            LeafKind::Inplace { reserve } => {
                Leaf::Inplace(InplaceLeaf::build(data, model, max_error, reserve))
            }
            LeafKind::Buffer { reserve } => {
                Leaf::Buffer(BufferLeaf::build(data, model, max_error, reserve))
            }
            LeafKind::Gapped { density, max_density } => {
                Leaf::Gapped(GappedLeaf::build(data, density, max_density))
            }
        }
    }
}

/// Operations common to all leaf kinds.
pub trait LeafStorage {
    fn get(&self, key: Key) -> Option<Value>;
    fn insert(&mut self, key: Key, value: Value) -> InsertOutcome;
    fn remove(&mut self, key: Key) -> Option<Value>;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Smallest key currently stored (None when empty).
    fn first_key(&self) -> Option<Key>;
    /// All live pairs in ascending key order (for retraining / merging).
    fn to_sorted_vec(&self) -> Vec<KeyValue>;
    /// Appends pairs with `lo <= key <= hi` in order.
    fn range_into(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>);
    /// Total key movements performed by inserts/removes so far.
    fn moves(&self) -> u64;
    /// Bytes used by the leaf's arrays.
    fn data_size_bytes(&self) -> usize;
}

/// Runs `op` (an insert or remove) on `leaf` and counts the keys it
/// shifted as [`Event::KeyShift`], so a leaf that never retrains is counted
/// too.
#[inline]
pub fn count_shifts<L: LeafStorage, T>(
    leaf: &mut L,
    recorder: &Recorder,
    op: impl FnOnce(&mut L) -> T,
) -> T {
    let before = leaf.moves();
    let out = op(leaf);
    recorder.event_n(Event::KeyShift, leaf.moves() - before);
    out
}

/// Runtime-polymorphic leaf.
pub enum Leaf {
    Inplace(InplaceLeaf),
    Buffer(BufferLeaf),
    Gapped(GappedLeaf),
}

macro_rules! dispatch {
    ($self:ident, $leaf:ident => $body:expr) => {
        match $self {
            Leaf::Inplace($leaf) => $body,
            Leaf::Buffer($leaf) => $body,
            Leaf::Gapped($leaf) => $body,
        }
    };
}

impl LeafStorage for Leaf {
    fn get(&self, key: Key) -> Option<Value> {
        dispatch!(self, l => l.get(key))
    }
    fn insert(&mut self, key: Key, value: Value) -> InsertOutcome {
        dispatch!(self, l => l.insert(key, value))
    }
    fn remove(&mut self, key: Key) -> Option<Value> {
        dispatch!(self, l => l.remove(key))
    }
    fn len(&self) -> usize {
        dispatch!(self, l => l.len())
    }
    fn first_key(&self) -> Option<Key> {
        dispatch!(self, l => l.first_key())
    }
    fn to_sorted_vec(&self) -> Vec<KeyValue> {
        dispatch!(self, l => l.to_sorted_vec())
    }
    fn range_into(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        dispatch!(self, l => l.range_into(lo, hi, out));
    }
    fn moves(&self) -> u64 {
        dispatch!(self, l => l.moves())
    }
    fn data_size_bytes(&self) -> usize {
        dispatch!(self, l => l.data_size_bytes())
    }
}

// ---------------------------------------------------------------------------
// Inplace
// ---------------------------------------------------------------------------

/// Sorted run with `reserve` empty slots at each end (§II-B1's inplace
/// strategy). Inserting finds the position with a model-guided bounded
/// search and shifts everything between the position and the nearer end.
pub struct InplaceLeaf {
    /// Backing storage of `head + len + tail` slots; live data occupies
    /// `buf[head..head + len]`.
    buf: Vec<KeyValue>,
    head: usize,
    len: usize,
    model: LinearModel,
    /// Model error: build-time max error plus drift from shifts since.
    err: usize,
    moves: u64,
}

impl InplaceLeaf {
    pub fn build(data: &[KeyValue], model: LinearModel, max_error: u64, reserve: usize) -> Self {
        let cap = data.len() + 2 * reserve;
        let mut buf = vec![(0, 0); cap];
        buf[reserve..reserve + data.len()].copy_from_slice(data);
        InplaceLeaf {
            buf,
            head: reserve,
            len: data.len(),
            model,
            err: max_error as usize,
            moves: 0,
        }
    }

    #[inline]
    fn live(&self) -> &[KeyValue] {
        &self.buf[self.head..self.head + self.len]
    }

    /// Model-guided position of the last live key `<= key`, or None when
    /// `key` precedes all live keys. Returns indexes into `live()`.
    fn last_le(&self, key: Key) -> Option<usize> {
        // The model was trained on the build-time layout; shifts and
        // foreign keys grow the error, hence the widening search.
        let p = self.model.predict_clamped(key, self.len);
        widening_last_le(self.live(), |kv| kv.0, key, p, self.err + 1)
    }
}

impl LeafStorage for InplaceLeaf {
    fn get(&self, key: Key) -> Option<Value> {
        match self.last_le(key) {
            Some(i) if self.live()[i].0 == key => Some(self.live()[i].1),
            _ => None,
        }
    }

    fn insert(&mut self, key: Key, value: Value) -> InsertOutcome {
        match self.last_le(key) {
            Some(i) if self.live()[i].0 == key => {
                let old = self.buf[self.head + i].1;
                self.buf[self.head + i].1 = value;
                InsertOutcome::Replaced(old)
            }
            found => {
                // Insert after position `found` (or at front).
                let ins = found.map_or(0, |i| i + 1); // index in live()
                let left_cost = ins; // shift [0, ins) one left
                let right_cost = self.len - ins; // shift [ins, len) one right
                let can_left = self.head > 0;
                let can_right = self.head + self.len < self.buf.len();
                let go_left = match (can_left, can_right) {
                    (true, true) => left_cost <= right_cost,
                    (true, false) => true,
                    (false, true) => false,
                    (false, false) => return InsertOutcome::NeedsRetrain,
                };
                if go_left {
                    let h = self.head;
                    self.buf.copy_within(h..h + ins, h - 1);
                    self.head -= 1;
                    self.buf[self.head + ins] = (key, value);
                    self.moves += left_cost as u64;
                } else {
                    let h = self.head;
                    self.buf.copy_within(h + ins..h + self.len, h + ins + 1);
                    self.buf[h + ins] = (key, value);
                    self.moves += right_cost as u64;
                }
                self.len += 1;
                // Every shift can displace positions by one relative to the
                // model's training layout.
                self.err += 1;
                InsertOutcome::Inserted
            }
        }
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        match self.last_le(key) {
            Some(i) if self.live()[i].0 == key => {
                let old = self.buf[self.head + i].1;
                let h = self.head;
                // Shift the shorter side inward.
                if i < self.len - i - 1 {
                    self.buf.copy_within(h..h + i, h + 1);
                    self.head += 1;
                    self.moves += i as u64;
                } else {
                    self.buf.copy_within(h + i + 1..h + self.len, h + i);
                    self.moves += (self.len - i - 1) as u64;
                }
                self.len -= 1;
                self.err += 1;
                Some(old)
            }
            _ => None,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn first_key(&self) -> Option<Key> {
        self.live().first().map(|kv| kv.0)
    }

    fn to_sorted_vec(&self) -> Vec<KeyValue> {
        self.live().to_vec()
    }

    fn range_into(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        let live = self.live();
        let start = lower_bound_kv(live, lo);
        for kv in &live[start..] {
            if kv.0 > hi {
                break;
            }
            out.push(*kv);
        }
    }

    fn moves(&self) -> u64 {
        self.moves
    }

    fn data_size_bytes(&self) -> usize {
        self.buf.len() * core::mem::size_of::<KeyValue>()
    }
}

// ---------------------------------------------------------------------------
// Buffer
// ---------------------------------------------------------------------------

/// Static sorted run + small sorted off-site buffer (§II-B1/B2/§II-B4).
pub struct BufferLeaf {
    main: Vec<KeyValue>,
    buf: Vec<KeyValue>,
    cap: usize,
    model: LinearModel,
    err: usize,
    moves: u64,
    /// Tombstones removed from `main` (swap-marked by key); kept sorted.
    dead: Vec<Key>,
}

impl BufferLeaf {
    pub fn build(data: &[KeyValue], model: LinearModel, max_error: u64, reserve: usize) -> Self {
        BufferLeaf {
            main: data.to_vec(),
            buf: Vec::with_capacity(reserve.max(1)),
            cap: reserve.max(1),
            model,
            err: max_error as usize,
            moves: 0,
            dead: Vec::new(),
        }
    }

    fn main_pos(&self, key: Key) -> Option<usize> {
        let p = self.model.predict_clamped(key, self.main.len());
        widening_last_le(&self.main, |kv| kv.0, key, p, self.err + 1)
            .filter(|&i| self.main[i].0 == key)
    }

    fn is_dead(&self, key: Key) -> bool {
        self.dead.binary_search(&key).is_ok()
    }
}

impl LeafStorage for BufferLeaf {
    fn get(&self, key: Key) -> Option<Value> {
        // The buffer holds the most recent version of a key.
        if let Ok(i) = self.buf.binary_search_by_key(&key, |kv| kv.0) {
            return Some(self.buf[i].1);
        }
        if self.is_dead(key) {
            return None;
        }
        self.main_pos(key).map(|i| self.main[i].1)
    }

    fn insert(&mut self, key: Key, value: Value) -> InsertOutcome {
        // Update in place when the key is already present.
        if let Ok(i) = self.buf.binary_search_by_key(&key, |kv| kv.0) {
            let old = self.buf[i].1;
            self.buf[i].1 = value;
            return InsertOutcome::Replaced(old);
        }
        if !self.is_dead(key) {
            if let Some(i) = self.main_pos(key) {
                let old = self.main[i].1;
                self.main[i].1 = value;
                return InsertOutcome::Replaced(old);
            }
        }
        if self.buf.len() >= self.cap {
            return InsertOutcome::NeedsRetrain;
        }
        let pos = lower_bound_kv(&self.buf, key);
        self.moves += (self.buf.len() - pos) as u64;
        // A tombstone for this key (if any) must stay: it keeps the stale
        // main-run copy dead while the buffer copy shadows it.
        self.buf.insert(pos, (key, value));
        InsertOutcome::Inserted
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        if let Ok(i) = self.buf.binary_search_by_key(&key, |kv| kv.0) {
            self.moves += (self.buf.len() - i - 1) as u64;
            return Some(self.buf.remove(i).1);
        }
        if self.is_dead(key) {
            return None;
        }
        if let Some(i) = self.main_pos(key) {
            let old = self.main[i].1;
            let d = self.dead.binary_search(&key).unwrap_err();
            self.dead.insert(d, key);
            return Some(old);
        }
        None
    }

    fn len(&self) -> usize {
        self.main.len() + self.buf.len() - self.dead.len()
    }

    fn first_key(&self) -> Option<Key> {
        let m = self.main.iter().find(|kv| !self.is_dead(kv.0)).map(|kv| kv.0);
        let b = self.buf.first().map(|kv| kv.0);
        match (m, b) {
            (Some(a), Some(c)) => Some(a.min(c)),
            (x, y) => x.or(y),
        }
    }

    fn to_sorted_vec(&self) -> Vec<KeyValue> {
        // Merge main (minus tombstones) with the buffer.
        let mut out = Vec::with_capacity(self.len());
        let mut i = 0usize;
        let mut j = 0usize;
        while i < self.main.len() || j < self.buf.len() {
            let take_main = match (self.main.get(i), self.buf.get(j)) {
                (Some(m), Some(b)) => m.0 < b.0,
                (Some(_), None) => true,
                _ => false,
            };
            if take_main {
                if !self.is_dead(self.main[i].0) {
                    out.push(self.main[i]);
                }
                i += 1;
            } else {
                out.push(self.buf[j]);
                j += 1;
            }
        }
        out
    }

    fn range_into(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        // Merge-scan both runs.
        let mut i = lower_bound_kv(&self.main, lo);
        let mut j = lower_bound_kv(&self.buf, lo);
        while i < self.main.len() || j < self.buf.len() {
            let take_main = match (self.main.get(i), self.buf.get(j)) {
                (Some(m), Some(b)) => m.0 < b.0,
                (Some(_), None) => true,
                _ => false,
            };
            if take_main {
                let kv = self.main[i];
                if kv.0 > hi {
                    break;
                }
                if !self.is_dead(kv.0) {
                    out.push(kv);
                }
                i += 1;
            } else {
                let kv = self.buf[j];
                if kv.0 > hi {
                    break;
                }
                out.push(kv);
                j += 1;
            }
        }
    }

    fn moves(&self) -> u64 {
        self.moves
    }

    fn data_size_bytes(&self) -> usize {
        (self.main.len() + self.cap) * core::mem::size_of::<KeyValue>()
            + self.dead.len() * core::mem::size_of::<Key>()
    }
}

// ---------------------------------------------------------------------------
// Gapped (ALEX)
// ---------------------------------------------------------------------------

/// Model-based gapped array (§II-B3). Inserts land on their predicted slot
/// or shift keys at most to the nearest gap; lookups use the model plus a
/// short local scan.
pub struct GappedLeaf {
    slots: Vec<Option<KeyValue>>,
    model: LinearModel,
    occupied: usize,
    max_density: f64,
    moves: u64,
}

impl GappedLeaf {
    pub fn build(data: &[KeyValue], density: f64, max_density: f64) -> Self {
        assert!(max_density > 0.0 && max_density <= 1.0);
        let layout = GappedLayout::build(data, density);
        GappedLeaf {
            slots: layout.slots,
            model: layout.model,
            occupied: layout.occupied,
            max_density,
            moves: 0,
        }
    }

    fn cap(&self) -> usize {
        self.slots.len()
    }

    pub fn density(&self) -> f64 {
        if self.slots.is_empty() {
            0.0
        } else {
            self.occupied as f64 / self.slots.len() as f64
        }
    }

    /// Index of the slot holding `key`, if present.
    fn find_slot(&self, key: Key) -> Option<usize> {
        let cap = self.cap();
        if cap == 0 {
            return None;
        }
        let start = self.model.predict_clamped(key, cap);
        // Scan right from the prediction until an occupied slot with a key
        // >= target decides the direction, then scan the other way.
        let mut i = start;
        loop {
            match self.slots[i] {
                Some((k, _)) if k == key => return Some(i),
                Some((k, _)) if k > key => break, // must be left of i
                _ => {
                    i += 1;
                    if i >= cap {
                        break;
                    }
                }
            }
        }
        let mut i = start;
        while i > 0 {
            i -= 1;
            match self.slots[i] {
                Some((k, _)) if k == key => return Some(i),
                Some((k, _)) if k < key => return None,
                _ => {}
            }
        }
        None
    }

    /// Finds `(prev, next)` where `prev` is the slot of the last occupied
    /// key `< key` and `next` the slot of the first occupied key `> key`
    /// (either end may be None). Assumes `key` itself is absent.
    fn neighbors(&self, key: Key) -> (Option<usize>, Option<usize>) {
        let cap = self.cap();
        if cap == 0 {
            return (None, None);
        }
        let start = self.model.predict_clamped(key, cap);
        // Find next occupied with key > target, scanning right from start;
        // anything occupied with key < target found en route is prev.
        let mut prev: Option<usize> = None;
        let mut next: Option<usize> = None;
        let mut i = start;
        loop {
            match self.slots.get(i).copied().flatten() {
                Some((k, _)) if k > key => {
                    next = Some(i);
                    break;
                }
                Some((k, _)) if k < key => {
                    // Prediction landed left of target: keep walking right.
                    prev = Some(i);
                }
                _ => {}
            }
            i += 1;
            if i >= cap {
                break;
            }
        }
        if prev.is_none() {
            // Walk left of the prediction for prev.
            let mut i = start;
            while i > 0 {
                i -= 1;
                if let Some((k, _)) = self.slots[i] {
                    debug_assert!(k != key);
                    if k < key {
                        prev = Some(i);
                        break;
                    }
                    next = Some(i);
                }
            }
        }
        (prev, next)
    }
}

impl LeafStorage for GappedLeaf {
    fn get(&self, key: Key) -> Option<Value> {
        self.find_slot(key).and_then(|i| self.slots[i].map(|kv| kv.1))
    }

    fn insert(&mut self, key: Key, value: Value) -> InsertOutcome {
        if let Some(i) = self.find_slot(key) {
            let old = self.slots[i].unwrap().1;
            self.slots[i] = Some((key, value));
            return InsertOutcome::Replaced(old);
        }
        let cap = self.cap();
        if cap == 0 || (self.occupied + 1) as f64 / cap as f64 > self.max_density {
            return InsertOutcome::NeedsRetrain;
        }
        let (prev, next) = self.neighbors(key);
        let lo = prev.map_or(0, |p| p + 1); // first legal slot
        let hi = next.unwrap_or(cap); // exclusive upper bound of legal slots
        debug_assert!(lo <= hi);
        let predicted = self.model.predict_clamped(key, cap);
        if lo < hi {
            // A legal empty region exists: place at the prediction clamped
            // into it (all slots in [lo, hi) are empty by construction).
            let slot = predicted.clamp(lo, hi - 1);
            debug_assert!(self.slots[slot].is_none());
            self.slots[slot] = Some((key, value));
        } else {
            // lo == hi: no gap between prev and next; shift toward the
            // nearest gap. occupancy < max_density <= 1 guarantees a gap
            // exists on at least one side.
            let gap_right = (hi..cap).find(|&i| self.slots[i].is_none());
            let gap_left = (0..lo).rev().find(|&i| self.slots[i].is_none());
            let (use_right, g) = match (gap_left, gap_right) {
                (Some(l), Some(r)) => {
                    if r - hi <= lo - 1 - l {
                        (true, r)
                    } else {
                        (false, l)
                    }
                }
                (None, Some(r)) => (true, r),
                (Some(l), None) => (false, l),
                (None, None) => return InsertOutcome::NeedsRetrain,
            };
            if use_right {
                // Shift [hi, g) right by one; insert at hi.
                let mut i = g;
                while i > hi {
                    self.slots[i] = self.slots[i - 1].take();
                    i -= 1;
                }
                self.moves += (g - hi) as u64;
                self.slots[hi] = Some((key, value));
            } else {
                // Shift (g, lo) left by one; insert at lo - 1.
                let mut i = g;
                while i + 1 < lo {
                    self.slots[i] = self.slots[i + 1].take();
                    i += 1;
                }
                self.moves += (lo - 1 - g) as u64;
                self.slots[lo - 1] = Some((key, value));
            }
        }
        self.occupied += 1;
        InsertOutcome::Inserted
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        let i = self.find_slot(key)?;
        let old = self.slots[i].take().map(|kv| kv.1);
        self.occupied -= 1;
        old
    }

    fn len(&self) -> usize {
        self.occupied
    }

    fn first_key(&self) -> Option<Key> {
        self.slots.iter().flatten().next().map(|kv| kv.0)
    }

    fn to_sorted_vec(&self) -> Vec<KeyValue> {
        self.slots.iter().flatten().copied().collect()
    }

    fn range_into(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        let cap = self.cap();
        if cap == 0 {
            return;
        }
        // Start a bit before the prediction for `lo` and scan.
        let start = self.model.predict_clamped(lo, cap);
        let mut begin = start;
        while begin > 0 {
            match self.slots[begin] {
                Some((k, _)) if k < lo => break,
                _ => begin -= 1,
            }
        }
        for (k, v) in self.slots[begin..].iter().flatten() {
            if *k > hi {
                break;
            }
            if *k >= lo {
                out.push((*k, *v));
            }
        }
    }

    fn moves(&self) -> u64 {
        self.moves
    }

    fn data_size_bytes(&self) -> usize {
        self.slots.len() * core::mem::size_of::<Option<KeyValue>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    use std::collections::BTreeMap;

    fn sample_data(n: u64) -> Vec<KeyValue> {
        (0..n).map(|i| (i * 10 + 3, i)).collect()
    }

    /// Builds a leaf of `kind` over `data` with a least-squares local model
    /// (adequate for leaf-level tests; assembled indexes use PLA models).
    fn build_leaf(kind: LeafKind, data: &[KeyValue]) -> Leaf {
        let keys: Vec<Key> = data.iter().map(|kv| kv.0).collect();
        let model = LinearModel::fit_least_squares(&keys);
        let (max_err, _) = model.errors(&keys);
        kind.build(data, model, max_err.ceil() as u64)
    }

    fn all_kinds() -> [LeafKind; 3] {
        [
            LeafKind::Inplace { reserve: 64 },
            LeafKind::Buffer { reserve: 64 },
            LeafKind::Gapped { density: 0.7, max_density: 0.9 },
        ]
    }

    #[test]
    fn build_and_get_all_kinds() {
        let data = sample_data(1_000);
        for kind in all_kinds() {
            let leaf = build_leaf(kind, &data);
            assert_eq!(leaf.len(), data.len(), "{}", kind.name());
            for &(k, v) in &data {
                assert_eq!(leaf.get(k), Some(v), "{} key {k}", kind.name());
            }
            assert_eq!(leaf.get(4), None, "{}", kind.name());
            assert_eq!(leaf.get(u64::MAX), None, "{}", kind.name());
            assert_eq!(leaf.first_key(), Some(3), "{}", kind.name());
            assert_eq!(leaf.to_sorted_vec(), data, "{}", kind.name());
        }
    }

    #[test]
    fn insert_until_retrain_all_kinds() {
        let data = sample_data(500);
        for kind in all_kinds() {
            let mut leaf = build_leaf(kind, &data);
            let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
            let mut rng = StdRng::seed_from_u64(77);
            let mut retrains = 0;
            for n in 0..2_000u64 {
                let k = rng.random_range(0..6_000u64);
                match leaf.insert(k, n) {
                    InsertOutcome::Inserted => {
                        model.insert(k, n);
                    }
                    InsertOutcome::Replaced(old) => {
                        assert_eq!(model.insert(k, n), Some(old), "{} key {k}", kind.name());
                    }
                    InsertOutcome::NeedsRetrain => {
                        retrains += 1;
                        break;
                    }
                }
            }
            // Verify contents match the model exactly.
            assert_eq!(leaf.len(), model.len(), "{}", kind.name());
            let got = leaf.to_sorted_vec();
            let expect: Vec<KeyValue> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, expect, "{}", kind.name());
            // All kinds have finite capacity, so enough inserts eventually
            // request a retrain (or we inserted everything successfully).
            let _ = retrains;
        }
    }

    #[test]
    fn replace_and_remove_all_kinds() {
        let data = sample_data(200);
        for kind in all_kinds() {
            let mut leaf = build_leaf(kind, &data);
            assert_eq!(leaf.insert(13, 999), InsertOutcome::Replaced(1), "{}", kind.name());
            assert_eq!(leaf.get(13), Some(999));
            assert_eq!(leaf.remove(13), Some(999));
            assert_eq!(leaf.get(13), None);
            assert_eq!(leaf.remove(13), None);
            assert_eq!(leaf.len(), data.len() - 1, "{}", kind.name());
        }
    }

    #[test]
    fn buffer_remove_then_reinsert() {
        let data = sample_data(100);
        let mut leaf = build_leaf(LeafKind::Buffer { reserve: 16 }, &data);
        // Remove a main-run key (tombstone), then re-insert it.
        assert_eq!(leaf.remove(23), Some(2));
        assert_eq!(leaf.get(23), None);
        assert_eq!(leaf.insert(23, 555), InsertOutcome::Inserted);
        assert_eq!(leaf.get(23), Some(555));
        assert_eq!(leaf.len(), data.len());
    }

    #[test]
    fn range_all_kinds() {
        let data = sample_data(300);
        for kind in all_kinds() {
            let mut leaf = build_leaf(kind, &data);
            leaf.insert(7, 100); // between 3 and 13
            let mut out = Vec::new();
            leaf.range_into(3, 33, &mut out);
            assert_eq!(out, vec![(3, 0), (7, 100), (13, 1), (23, 2), (33, 3)], "{}", kind.name());
        }
    }

    #[test]
    fn inplace_exhausts_reserve() {
        let data = sample_data(50);
        let mut leaf = build_leaf(LeafKind::Inplace { reserve: 4 }, &data);
        let mut inserted = 0;
        for k in 0..100u64 {
            match leaf.insert(k * 10 + 5, k) {
                InsertOutcome::Inserted => inserted += 1,
                InsertOutcome::NeedsRetrain => break,
                InsertOutcome::Replaced(_) => unreachable!(),
            }
        }
        assert_eq!(inserted, 8, "both 4-slot reserves should fill");
    }

    #[test]
    fn buffer_exhausts_reserve() {
        let data = sample_data(50);
        let mut leaf = build_leaf(LeafKind::Buffer { reserve: 8 }, &data);
        let mut inserted = 0;
        for k in 0..100u64 {
            match leaf.insert(k * 10 + 5, k) {
                InsertOutcome::Inserted => inserted += 1,
                InsertOutcome::NeedsRetrain => break,
                InsertOutcome::Replaced(_) => unreachable!(),
            }
        }
        assert_eq!(inserted, 8);
    }

    #[test]
    fn gapped_density_triggers_retrain() {
        let data = sample_data(100);
        let mut leaf = build_leaf(LeafKind::Gapped { density: 0.5, max_density: 0.8 }, &data);
        let mut hit = false;
        for k in 0..200u64 {
            if leaf.insert(k * 10 + 5, k) == InsertOutcome::NeedsRetrain {
                hit = true;
                break;
            }
        }
        assert!(hit, "density bound never hit");
    }

    #[test]
    fn gapped_moves_fewer_than_inplace() {
        // The core claim of Fig. 18 (a): gap inserts move far fewer keys.
        let data = sample_data(2_000);
        let mut gap = build_leaf(LeafKind::Gapped { density: 0.5, max_density: 0.95 }, &data);
        let mut inp = build_leaf(LeafKind::Inplace { reserve: 512 }, &data);
        let mut rng = StdRng::seed_from_u64(5);
        let mut count = 0;
        for n in 0..512u64 {
            let k = rng.random_range(0..20_000u64) | 1; // odd => absent
            let a = gap.insert(k, n);
            let b = inp.insert(k, n);
            if a == InsertOutcome::Inserted && b == InsertOutcome::Inserted {
                count += 1;
            }
            if a == InsertOutcome::NeedsRetrain || b == InsertOutcome::NeedsRetrain {
                break;
            }
        }
        assert!(count > 100);
        assert!(
            gap.moves() * 10 < inp.moves().max(1),
            "gap moves {} vs inplace moves {}",
            gap.moves(),
            inp.moves()
        );
    }

    #[test]
    fn empty_leaves() {
        for kind in all_kinds() {
            let mut leaf = build_leaf(kind, &[]);
            assert!(leaf.is_empty(), "{}", kind.name());
            assert_eq!(leaf.get(1), None);
            assert_eq!(leaf.first_key(), None);
            assert_eq!(leaf.remove(1), None);
            let mut out = Vec::new();
            leaf.range_into(0, u64::MAX, &mut out);
            assert!(out.is_empty());
        }
    }

    proptest::proptest! {
        #[test]
        fn leaves_match_btreemap(ops in proptest::collection::vec((0u64..500, 0u64..1000, proptest::bool::ANY), 0..300)) {
            let data: Vec<KeyValue> = (0..100u64).map(|i| (i * 5, i)).collect();
            for kind in all_kinds() {
                let mut leaf = build_leaf(kind, &data);
                let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
                for &(k, v, is_insert) in &ops {
                    if is_insert {
                        match leaf.insert(k, v) {
                            InsertOutcome::Inserted => { model.insert(k, v); }
                            InsertOutcome::Replaced(old) => {
                                proptest::prop_assert_eq!(model.insert(k, v), Some(old));
                            }
                            InsertOutcome::NeedsRetrain => {}
                        }
                    } else {
                        let got = leaf.remove(k);
                        let expect = model.remove(&k);
                        proptest::prop_assert_eq!(got, expect, "{} remove {}", kind.name(), k);
                    }
                }
                let got = leaf.to_sorted_vec();
                let expect: Vec<KeyValue> = model.iter().map(|(&k, &v)| (k, v)).collect();
                proptest::prop_assert_eq!(got, expect, "{}", kind.name());
            }
        }
    }
}
