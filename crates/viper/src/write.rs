//! The one write path, for both write models.
//!
//! A [`WriteModel`] decides two things and nothing else: how a write
//! reaches the DRAM index ([`Excl`]: `&mut I` through [`UpdatableIndex`];
//! [`Shared`]: `&I` through [`ConcurrentIndex`]) and whether a key stripe
//! is taken around it ([`WriteModel::KeyLocks`]). Everything else a put or
//! delete does is written once here, generic over the access — static
//! dispatch, and no lock at all in the single-writer instantiation.

use li_sync::sync::atomic::Ordering;
use li_sync::sync::{Mutex, MutexGuard};

use li_core::telemetry::OpKind;
use li_core::traits::{ConcurrentIndex, Index, UpdatableIndex};
use li_core::Key;

use crate::error::ViperError;
use crate::heap::RecordHeap;
use crate::retry::with_retry;
use crate::store::Engine;
use crate::wal::{Wal, WalFull, WAL_OP_DELETE, WAL_OP_PUT};

/// How writers reach the store: exclusively (`&mut self`) or shared
/// (`&self`). Implemented by [`SingleWriter`] and [`SharedWriter`] only
/// (the bound on [`WriteModel::KeyLocks`] cannot be named outside this
/// crate).
pub trait WriteModel {
    /// Per-key write serialisation state; empty for the single-writer
    /// model, a striped lock table for the shared-writer model.
    type KeyLocks: KeyLocks;
    /// Whether writers run concurrently with readers (`&self` mutation),
    /// in which case a read may find its record relocated under it.
    const SHARED: bool;
}

/// Exclusive mutation through [`UpdatableIndex`] — every index kind.
pub enum SingleWriter {}

impl WriteModel for SingleWriter {
    type KeyLocks = ();
    const SHARED: bool = false;
}

/// Shared mutation through [`ConcurrentIndex`] — natively concurrent
/// indexes (XIndex) and anything lifted via `li_core::shard::Sharded`.
pub enum SharedWriter {}

impl WriteModel for SharedWriter {
    type KeyLocks = KeyStripes;
    const SHARED: bool = true;
}

/// Same-key write serialisation as the operation bodies see it.
pub trait KeyLocks: Default + Send + Sync {
    /// Serialises with every other writer of `key` while the guard lives.
    fn lock(&self, key: Key) -> Option<MutexGuard<'_, ()>>;
    /// Excludes every writer while the guards live. Callers must not hold
    /// a key guard themselves.
    fn quiesce(&self) -> Vec<MutexGuard<'_, ()>>;
}

/// The single-writer model: `&mut self` already excludes other writers.
impl KeyLocks for () {
    #[inline]
    fn lock(&self, _key: Key) -> Option<MutexGuard<'_, ()>> {
        None
    }
    #[inline]
    fn quiesce(&self) -> Vec<MutexGuard<'_, ()>> {
        Vec::new()
    }
}

/// Striped same-key write locks, Viper's fine-grained-locking discipline.
/// Without them, two racing inserters of one key could leave a stale
/// record offset alive while its slot is recycled for another key.
pub struct KeyStripes(Vec<Mutex<()>>);

const KEY_STRIPES: usize = 1024;

impl Default for KeyStripes {
    fn default() -> Self {
        // `ordered`: `quiesce` holds every stripe at once, always in
        // index order.
        let class = li_sync::lock_class!("viper-stripe", ordered);
        KeyStripes((0..KEY_STRIPES).map(|_| Mutex::with_class(class, ())).collect())
    }
}

impl KeyLocks for KeyStripes {
    #[inline]
    fn lock(&self, key: Key) -> Option<MutexGuard<'_, ()>> {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Some(self.0[(h >> 54) as usize % KEY_STRIPES].lock())
    }
    fn quiesce(&self) -> Vec<MutexGuard<'_, ()>> {
        self.0.iter().map(|m| m.lock()).collect()
    }
}

/// How the operation bodies reach the DRAM index under either write model
/// (internal — this is what lets every body exist exactly once).
pub(crate) trait WriteAccess {
    type Index: Index;
    /// The index as readers see it (checkpoint images, repair probes).
    fn index(&self) -> &Self::Index;
    fn lookup(&self, key: Key) -> Option<u64>;
    fn publish(&mut self, key: Key, offset: u64) -> Option<u64>;
    fn unpublish(&mut self, key: Key) -> Option<u64>;
    /// Drains up to `budget` deferred leaf retrains.
    fn run_pending_retrains(&mut self, budget: usize) -> usize;
    /// Lets a `Sharded` router split or merge shards.
    fn run_adaptation(&mut self) -> usize;
}

/// Exclusive access: `&mut I` through [`UpdatableIndex`].
pub(crate) struct Excl<'a, I>(pub(crate) &'a mut I);

impl<I: Index + UpdatableIndex> WriteAccess for Excl<'_, I> {
    type Index = I;
    fn index(&self) -> &I {
        self.0
    }
    fn lookup(&self, key: Key) -> Option<u64> {
        Index::get(self.0, key)
    }
    fn publish(&mut self, key: Key, offset: u64) -> Option<u64> {
        UpdatableIndex::insert(self.0, key, offset)
    }
    fn unpublish(&mut self, key: Key) -> Option<u64> {
        UpdatableIndex::remove(self.0, key)
    }
    fn run_pending_retrains(&mut self, budget: usize) -> usize {
        UpdatableIndex::run_pending_retrains(self.0, budget)
    }
    fn run_adaptation(&mut self) -> usize {
        // Online shard adaptation needs a concurrent router; an index
        // behind `&mut` has none to adapt.
        0
    }
}

/// Shared access: `&I` through [`ConcurrentIndex`].
pub(crate) struct Shared<'a, I>(pub(crate) &'a I);

impl<I: Index + ConcurrentIndex> WriteAccess for Shared<'_, I> {
    type Index = I;
    fn index(&self) -> &I {
        self.0
    }
    fn lookup(&self, key: Key) -> Option<u64> {
        ConcurrentIndex::get(self.0, key)
    }
    fn publish(&mut self, key: Key, offset: u64) -> Option<u64> {
        ConcurrentIndex::insert(self.0, key, offset)
    }
    fn unpublish(&mut self, key: Key) -> Option<u64> {
        ConcurrentIndex::remove(self.0, key)
    }
    fn run_pending_retrains(&mut self, budget: usize) -> usize {
        ConcurrentIndex::run_pending_retrains(self.0, budget)
    }
    fn run_adaptation(&mut self) -> usize {
        ConcurrentIndex::run_adaptation(self.0)
    }
}

/// Appends one record to the WAL, folding the ring-full refusal into the
/// error domain. [`ViperError::WalFull`] is not retryable —
/// [`Engine::absorbing_wal_full`] intercepts it, writes a checkpoint
/// inline, and runs the attempt once more.
fn wal_append(wal: &Wal, key: Key, offset: u64, op: u8) -> Result<(), ViperError> {
    match wal.append(key, offset, op)? {
        Ok(_lsn) => Ok(()),
        Err(WalFull) => Err(ViperError::WalFull),
    }
}

/// Stage + log + commit: the one append. The payload is staged first
/// (durable but not live), a durable store group-commits the WAL record
/// covering it, and only then does the slot flip live — a crash at any
/// point leaves either no visible record or a logged one whose replay
/// re-publishes it.
fn append(heap: &RecordHeap, wal: Option<&Wal>, key: Key, value: &[u8]) -> Result<u64, ViperError> {
    let offset = heap.stage_append(key, value)?;
    if let Some(wal) = wal {
        if let Err(e) = wal_append(wal, key, offset, WAL_OP_PUT) {
            heap.recycle_slot(offset);
            return Err(e);
        }
    }
    heap.commit_append(offset)?;
    Ok(offset)
}

impl<M: WriteModel> Engine<M> {
    /// The put both write models forward to (contract: see
    /// [`crate::ViperStore::put`]): retry → stripe →
    /// [`Engine::put_core`], absorbing a full WAL ring and flipping
    /// read-only once the retry budget is spent on exhaustion. The stripe
    /// is taken per attempt, so it is released during each backoff.
    pub(crate) fn put<A: WriteAccess>(
        &self,
        index: &mut A,
        key: Key,
        value: &[u8],
    ) -> Result<(), ViperError> {
        let t = self.recorder.start_sampled();
        let r = self.absorbing_wal_full(index, |index| {
            with_retry(&self.retry, key, &self.recorder, self.heap.device(), || {
                let _stripe = self.key_locks.lock(key);
                self.put_core(index, key, value)
            })
        });
        if r == Err(ViperError::DeviceFull) {
            self.read_only.store(true, Ordering::Release);
        }
        self.recorder.finish(OpKind::Put, t);
        r
    }

    /// The delete both write models forward to. Deletes reclaim space and
    /// are the way out of read-only degradation.
    pub(crate) fn delete<A: WriteAccess>(
        &self,
        index: &mut A,
        key: Key,
    ) -> Result<bool, ViperError> {
        let t = self.recorder.start_sampled();
        let r = self.absorbing_wal_full(index, |index| {
            with_retry(&self.retry, key, &self.recorder, self.heap.device(), || {
                let _stripe = self.key_locks.lock(key);
                self.delete_core(index, key)
            })
        });
        self.recorder.finish(OpKind::Delete, t);
        r
    }

    /// Runs `attempt`; if the WAL ring refused it, writes a checkpoint
    /// inline (which reopens the ring) and runs it once more before
    /// [`ViperError::WalFull`] can surface. The checkpoint quiesces every
    /// stripe, so it must run here — after the attempt and its stripe
    /// guard have fully unwound — and not inside it.
    fn absorbing_wal_full<A: WriteAccess, T>(
        &self,
        index: &mut A,
        mut attempt: impl FnMut(&mut A) -> Result<T, ViperError>,
    ) -> Result<T, ViperError> {
        match attempt(index) {
            Err(ViperError::WalFull) => {
                self.checkpoint(index.index())?;
                attempt(index)
            }
            r => r,
        }
    }

    /// `key`'s mapping is about to change (`publish` and `unpublish` are the
    /// only ways it does; an in-place update calls neither): a durable
    /// store notes the key for its next checkpoint's delta.
    fn note_change(&self, key: Key) {
        if let Some(d) = &self.durability {
            d.note_change(key);
        }
    }

    /// The one implementation of insert-or-update. Fails fast with
    /// [`ViperError::ReadOnly`] while degraded; surfaces device faults
    /// unchanged. The read-only *transition* on exhaustion lives in
    /// [`Engine::put`] — a single attempt must stay retryable as
    /// `DeviceFull` (transient: the window may pass during backoff),
    /// whereas flipping the flag here would turn the next attempt into the
    /// permanent `ReadOnly` and defeat the retry.
    fn put_core(
        &self,
        index: &mut impl WriteAccess,
        key: Key,
        value: &[u8],
    ) -> Result<(), ViperError> {
        if self.read_only.load(Ordering::Acquire) {
            return Err(ViperError::ReadOnly);
        }
        let heap = &self.heap;
        let wal = self.durability.as_ref().map(|d| &d.wal);
        let old = index.lookup(key);
        if let Some(offset) = old.filter(|_| !self.crash_safe_updates) {
            // An in-place update keeps the key → offset mapping, so the log
            // record is informationally redundant (replay re-points the
            // index at the same slot) — but logging it keeps the WAL a
            // complete mutation history and the group-commit ack honest
            // about ordering.
            if let Some(w) = wal {
                wal_append(w, key, offset, WAL_OP_PUT)?;
            }
            return heap.update_in_place(offset, key, value);
        }
        // Insert, or crash-safe update: the new record is published before
        // the one it supersedes is retired, so a slot is recycled only once
        // the index no longer names it. A crash in between leaves two live
        // records; recovery keeps the higher sequence.
        let offset = append(heap, wal, key, value)?;
        self.note_change(key);
        let prev = index.publish(key, offset);
        debug_assert_eq!(prev, old, "same-key put raced despite serialisation");
        if let Some(old) = old {
            heap.retire(old)?;
        }
        Ok(())
    }

    /// The one implementation of delete. Accepted even in read-only
    /// degradation — reclaiming space lifts it.
    ///
    /// On a retirement failure the key is re-published into the DRAM index
    /// before the error surfaces: the record is still durably live on the
    /// device, and leaving the index diverged would make a "failed" delete
    /// look applied until a restart resurrected the record — exactly the
    /// half-state the torture oracle flags. The rollback is pure DRAM, so it
    /// cannot itself fault.
    fn delete_core(&self, index: &mut impl WriteAccess, key: Key) -> Result<bool, ViperError> {
        let heap = &self.heap;
        if let Some(d) = &self.durability {
            // Durable ordering: log the delete *before* touching the index
            // or the device, so a crash after the ack always finds it in the
            // log; then unpublish, then retire, so no reader finds the slot
            // recycled. Once logged, a transient retirement fault is
            // swallowed (the slot is parked stale and the delete
            // acknowledged): rolling back would contradict the log, whose
            // replay applies the delete anyway.
            let Some(offset) = index.lookup(key) else {
                return Ok(false);
            };
            wal_append(&d.wal, key, offset, WAL_OP_DELETE)?;
            d.note_change(key);
            index.unpublish(key);
            if heap.retire(offset)? {
                self.read_only.store(false, Ordering::Release);
            }
            return Ok(true);
        }
        match index.unpublish(key) {
            Some(offset) => match heap.mark_dead(offset) {
                Ok(()) => {
                    self.read_only.store(false, Ordering::Release);
                    Ok(true)
                }
                Err(e) => {
                    index.publish(key, offset);
                    Err(e)
                }
            },
            None => Ok(false),
        }
    }
}
