//! The Viper store, generic over its *write model*.
//!
//! One store type serves both concurrency regimes:
//!
//! * [`ViperStore<I>`] (= [`ViperStore<I, SingleWriter>`]) — mutation takes
//!   `&mut self`; reads (`get`, `scan`) take `&self` and are safe to share
//!   across threads, which is how the multi-threaded read-only experiment
//!   (Fig. 12) runs.
//! * [`ConcurrentViperStore<I>`] (= [`ViperStore<I, SharedWriter>`]) —
//!   `put`/`delete` take `&self`, so any number of threads can mutate
//!   through an `Arc` — the setup of the multi-threaded write experiment
//!   (Fig. 14). Same-key writes are serialised by a striped lock; reads
//!   stay lock-free at this layer.
//!
//! The put/delete/degradation logic exists exactly once ([`put_core`],
//! [`delete_core`]); the write models differ only in how they reach the
//! DRAM index (`&mut I` via [`UpdatableIndex`] versus `&I` via
//! [`ConcurrentIndex`]) and in whether a key-stripe lock is taken.

use li_sync::sync::atomic::{AtomicBool, Ordering};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use li_core::telemetry::{Event, OpKind, Recorder};
use li_core::traits::{BulkBuildIndex, ConcurrentIndex, Index, OrderedIndex, UpdatableIndex};
use li_core::{Admission, AdmissionGuard, Key, KeyValue};
use li_nvm::{NvmConfig, NvmDevice};

use crate::checkpoint::{self, CheckpointBlob, DurabilityConfig, Geometry, Manifest, TOMBSTONE};
use crate::error::ViperError;
use crate::heap::{RecordHeap, RecoverOptions, RecoveryReport};
use crate::layout::{RecordLayout, SLOT_LIVE};
use crate::maintenance::CircuitBreaker;
use crate::retry::{with_retry, RetryPolicy};
use crate::wal::{Wal, WalFull, WAL_OP_DELETE, WAL_OP_PUT};

/// Store construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    pub layout: RecordLayout,
    pub nvm: NvmConfig,
    /// Perform updates out of place (append + retire) instead of in place.
    /// Out-of-place updates survive a crash mid-update — recovery keeps
    /// either the complete old or the complete new record — at the cost of
    /// extra NVM traffic. In-place updates (the default, matching the
    /// paper's setup) can lose the record to quarantine if a crash tears
    /// the value mid-write.
    pub crash_safe_updates: bool,
    /// When set, a slice at the top of the device is carved into a WAL
    /// ring plus two checkpoint slots; every put/delete is logged
    /// before it is acknowledged and recovery prefers checkpoint + log
    /// replay over the full page rescan. `None` (the default) keeps the
    /// pre-durability behaviour exactly.
    pub durability: Option<DurabilityConfig>,
}

impl StoreConfig {
    /// Device bytes needed for `n` records under `layout`, with headroom
    /// `n / headroom_div` plus `pad` records of rounding slack and
    /// `slack_pages` whole pages for allocator breathing room — the one
    /// sizing formula every config flavour shares.
    fn bytes_for(
        layout: RecordLayout,
        n: usize,
        headroom_div: usize,
        pad: usize,
        slack_pages: usize,
    ) -> usize {
        (n + n / headroom_div + pad) / layout.slots_per_page() * layout.page_size
            + slack_pages * layout.page_size
    }

    /// Paper-style store: 200-byte values on an Optane-like device sized
    /// for `n` records (with 30% headroom).
    pub fn paper(n: usize) -> Self {
        let layout = RecordLayout::paper_default();
        let bytes = Self::bytes_for(layout, n, 3, 1024, 64);
        StoreConfig {
            layout,
            nvm: NvmConfig::optane(bytes),
            crash_safe_updates: false,
            durability: None,
        }
    }

    /// Small, latency-free store for tests (50% headroom).
    pub fn test(n: usize) -> Self {
        let layout = RecordLayout::small();
        let bytes = Self::bytes_for(layout, n, 2, 64, 16);
        StoreConfig {
            layout,
            nvm: NvmConfig::fast(bytes),
            crash_safe_updates: false,
            durability: None,
        }
    }

    /// Switches update strategy (see [`StoreConfig::crash_safe_updates`]).
    #[must_use]
    pub fn with_crash_safe_updates(mut self, on: bool) -> Self {
        self.crash_safe_updates = on;
        self
    }

    /// Enables WAL + checkpoint durability, growing the device by the
    /// region's (page-rounded) footprint so the heap keeps the record
    /// capacity this config was sized for.
    #[must_use]
    pub fn with_durability(mut self, d: DurabilityConfig) -> Self {
        let page = self.layout.page_size;
        self.nvm.capacity += d.region_bytes().div_ceil(page) * page + page;
        self.durability = Some(d);
        self
    }
}

/// How writers reach the store: exclusively (`&mut self`) or shared
/// (`&self`). Implemented by [`SingleWriter`] and [`SharedWriter`] only.
pub trait WriteModel {
    /// Per-key write serialisation state; empty for the single-writer
    /// model, a striped lock table for the shared-writer model.
    type KeyLocks: Default + Send + Sync;
    /// Whether writers run concurrently with readers (`&self` mutation).
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

/// Striped same-key write locks, Viper's fine-grained-locking discipline.
/// Without them, two racing inserters of one key could leave a stale
/// record offset alive while its slot is recycled for another key.
pub struct KeyStripes(Vec<li_sync::sync::Mutex<()>>);

const KEY_STRIPES: usize = 1024;

impl Default for KeyStripes {
    fn default() -> Self {
        // `ordered`: `checkpoint_now` quiesces by holding every stripe
        // at once, always in index order.
        let class = li_sync::lock_class!("viper-stripe", ordered);
        KeyStripes((0..KEY_STRIPES).map(|_| li_sync::sync::Mutex::with_class(class, ())).collect())
    }
}

impl KeyStripes {
    #[inline]
    fn lock(&self, key: Key) -> li_sync::sync::MutexGuard<'_, ()> {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0[(h >> 54) as usize % KEY_STRIPES].lock()
    }
}

/// Uniform index-mutation surface over the two write models (internal —
/// this is what lets [`put_core`]/[`delete_core`] exist exactly once).
/// `publish` and `unpublish` are the only ways a key → offset mapping
/// changes, so they are also where a durable store notes the key for its
/// next checkpoint ([`Durability::note_change`]); an in-place update calls
/// neither.
trait WriteAccess {
    fn lookup(&self, key: Key) -> Option<u64>;
    fn publish(&mut self, key: Key, offset: u64) -> Option<u64>;
    fn unpublish(&mut self, key: Key) -> Option<u64>;
}

/// Exclusive access: `&mut I` through [`UpdatableIndex`].
struct Excl<'a, I>(&'a mut I, Option<&'a Durability>);

impl<I: Index + UpdatableIndex> WriteAccess for Excl<'_, I> {
    fn lookup(&self, key: Key) -> Option<u64> {
        Index::get(self.0, key)
    }
    fn publish(&mut self, key: Key, offset: u64) -> Option<u64> {
        Durability::note_change(self.1, key);
        UpdatableIndex::insert(self.0, key, offset)
    }
    fn unpublish(&mut self, key: Key) -> Option<u64> {
        Durability::note_change(self.1, key);
        UpdatableIndex::remove(self.0, key)
    }
}

/// Shared access: `&I` through [`ConcurrentIndex`].
struct Shared<'a, I>(&'a I, Option<&'a Durability>);

impl<I: ConcurrentIndex> WriteAccess for Shared<'_, I> {
    fn lookup(&self, key: Key) -> Option<u64> {
        ConcurrentIndex::get(self.0, key)
    }
    fn publish(&mut self, key: Key, offset: u64) -> Option<u64> {
        Durability::note_change(self.1, key);
        ConcurrentIndex::insert(self.0, key, offset)
    }
    fn unpublish(&mut self, key: Key) -> Option<u64> {
        Durability::note_change(self.1, key);
        ConcurrentIndex::remove(self.0, key)
    }
}

/// Appends one record to the WAL, folding the ring-full refusal into the
/// error domain. [`ViperError::WalFull`] is not retryable — the put and
/// delete wrappers intercept it, write a checkpoint inline, and retry the
/// attempt once.
fn wal_append(wal: &Wal, key: Key, offset: u64, op: u8) -> Result<(), ViperError> {
    match wal.append(key, offset, op)? {
        Ok(_lsn) => Ok(()),
        Err(WalFull) => Err(ViperError::WalFull),
    }
}

/// Stage + log + commit: the durable flavour of an append. The payload is
/// staged first (durable but not live), the WAL record covering it is
/// group-committed, and only then does the slot flip live — a crash at
/// any point leaves either no visible record or a logged one whose replay
/// re-publishes it.
fn logged_append(heap: &RecordHeap, wal: &Wal, key: Key, value: &[u8]) -> Result<u64, ViperError> {
    let offset = heap.stage_append(key, value)?;
    if let Err(e) = wal_append(wal, key, offset, WAL_OP_PUT) {
        heap.recycle_slot(offset);
        return Err(e);
    }
    heap.commit_append(offset)?;
    Ok(offset)
}

/// Retires the record a logged mutation superseded. A *transient* fault
/// here must not fail the operation: the mutation is already logged and
/// acknowledged-to-be, and replay will apply it — so the victim slot is
/// parked stale (retired by the sweep; no index entry points at it) instead
/// of rolled back.
fn retire_logged(heap: &RecordHeap, offset: u64) -> Result<(), ViperError> {
    match heap.mark_dead(offset) {
        Ok(()) => Ok(()),
        Err(e) if e.is_transient() => {
            heap.park_stale(offset);
            Ok(())
        }
        Err(e) => Err(e),
    }
}

/// The one implementation of insert-or-update. Fails fast with
/// [`ViperError::ReadOnly`] while degraded; surfaces device faults
/// unchanged. The read-only *transition* on exhaustion lives in the
/// retrying wrappers — a single attempt must stay retryable as
/// `DeviceFull` (transient: the window may pass during backoff), whereas
/// flipping the flag here would turn the next attempt into the permanent
/// `ReadOnly` and defeat the retry.
fn put_core(
    heap: &RecordHeap,
    crash_safe_updates: bool,
    read_only: &AtomicBool,
    mut index: impl WriteAccess,
    wal: Option<&Wal>,
    key: Key,
    value: &[u8],
) -> Result<(), ViperError> {
    if read_only.load(Ordering::Acquire) {
        return Err(ViperError::ReadOnly);
    }
    match index.lookup(key) {
        Some(offset) => {
            if crash_safe_updates {
                let new_offset = match wal {
                    Some(w) => {
                        let new_offset = logged_append(heap, w, key, value)?;
                        retire_logged(heap, offset)?;
                        new_offset
                    }
                    None => heap.replace(offset, key, value)?,
                };
                index.publish(key, new_offset);
                Ok(())
            } else {
                // An in-place update keeps the key → offset mapping, so
                // the log record is informationally redundant (replay
                // re-points the index at the same slot) — but logging it
                // keeps the WAL a complete mutation history and the
                // group-commit ack honest about ordering.
                if let Some(w) = wal {
                    wal_append(w, key, offset, WAL_OP_PUT)?;
                }
                heap.update_in_place(offset, value)
            }
        }
        None => {
            let offset = match wal {
                Some(w) => logged_append(heap, w, key, value)?,
                None => heap.append(key, value)?,
            };
            let prev = index.publish(key, offset);
            debug_assert!(prev.is_none(), "same-key put raced despite serialisation");
            Ok(())
        }
    }
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
fn delete_core(
    heap: &RecordHeap,
    read_only: &AtomicBool,
    mut index: impl WriteAccess,
    wal: Option<&Wal>,
    key: Key,
) -> Result<bool, ViperError> {
    if let Some(w) = wal {
        // Durable ordering: log the delete *before* touching the device,
        // so a crash after the ack always finds it in the log. Once
        // logged, a transient retirement fault is swallowed (the slot is
        // parked stale and the delete acknowledged): rolling back would
        // contradict the log, whose replay applies the delete anyway.
        let Some(offset) = index.lookup(key) else {
            return Ok(false);
        };
        wal_append(w, key, offset, WAL_OP_DELETE)?;
        if heap.mark_dead(offset).is_ok() {
            read_only.store(false, Ordering::Release);
        } else {
            heap.park_stale(offset);
        }
        index.unpublish(key);
        return Ok(true);
    }
    match index.unpublish(key) {
        Some(offset) => match heap.mark_dead(offset) {
            Ok(()) => {
                read_only.store(false, Ordering::Release);
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

/// The overload ladder's front door, shared by both write models: an open
/// circuit breaker sheds the write outright; a saturated admission gate
/// sheds it after a bounded spin-wait. Both surface as the
/// `WouldBlock`-style [`ViperError::Backpressure`] — the store is healthy,
/// the caller should back off and retry.
fn shed_check<'a>(
    breaker: Option<&Arc<CircuitBreaker>>,
    admission: Option<&'a Admission>,
    max_wait: Duration,
) -> Result<Option<AdmissionGuard<'a>>, ViperError> {
    if let Some(b) = breaker {
        if b.is_open() {
            return Err(ViperError::Backpressure);
        }
    }
    match admission {
        Some(gate) => match gate.enter(max_wait) {
            Ok(g) => Ok(Some(g)),
            Err(_) => Err(ViperError::Backpressure),
        },
        None => Ok(None),
    }
}

/// Instantaneous position on the overload ladder, surfaced so a front-end
/// can distinguish "back off briefly" from "back off hard" when mapping
/// [`ViperError::Backpressure`] to protocol errors — the error itself is
/// deliberately one variant for both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadState {
    /// Writes are being admitted normally.
    Clear,
    /// The admission gate is saturated: new puts spin-wait then shed.
    Gated { in_flight: usize, limit: usize },
    /// The circuit breaker is open: puts shed immediately.
    BreakerOpen,
}

/// What one online repair pass resolved. Every formerly quarantined slot
/// lands in exactly one bucket, so
/// `superseded + lost.len() == quarantined` (minus slots a transient
/// fault kept quarantined for the next pass).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Quarantined slots whose key has a live record elsewhere — the
    /// corrupt copy was stale, nothing was lost.
    pub superseded: usize,
    /// Keys whose *only* record was the corrupt one: the payload is
    /// unrecoverable and the caller (or operator) should be told. The slot
    /// itself is still reclaimed.
    pub lost: Vec<Key>,
}

/// Per-store durability machinery: the WAL ring, the carved device
/// geometry, and what the next checkpoint extends.
struct Durability {
    wal: Wal,
    geom: Geometry,
    config: DurabilityConfig,
    ckpt: li_sync::sync::Mutex<CheckpointState>,
}

/// What the next checkpoint builds on. Writers only ever push a key;
/// everything else changes under the checkpoint's writer quiescence.
struct CheckpointState {
    /// Keys whose key → offset mapping changed since `newest` was named,
    /// in change order, repeats included. Every entry has a WAL record
    /// past `newest.watermark`, so the ring bounds the list; it is
    /// cleared only once a checkpoint covering it is durably named.
    changed: Vec<Key>,
    /// The newest manifest on the device ([`Manifest::NONE`] before the
    /// first): the next delta appends after the image it names, the next
    /// base goes to the slot it does not name, and either takes
    /// `generation + 1`.
    newest: Manifest,
    /// Whether that image with `changed` applied is the index. False only
    /// from a recovery until its own checkpoint is named (the recovered
    /// index already holds the WAL tail, the image does not), which makes
    /// the next checkpoint rebuild the whole image instead.
    extendable: bool,
}

impl Durability {
    fn new(
        wal: Wal,
        geom: Geometry,
        config: DurabilityConfig,
        newest: Manifest,
        extendable: bool,
    ) -> Self {
        let state = CheckpointState { changed: Vec::new(), newest, extendable };
        let ckpt = li_sync::sync::Mutex::with_class(li_sync::lock_class!("viper-ckpt"), state);
        Durability { wal, geom, config, ckpt }
    }

    /// Notes that `key`'s mapping is about to change (no-op for a store
    /// without durability).
    #[inline]
    fn note_change(this: Option<&Durability>, key: Key) {
        if let Some(d) = this {
            d.ckpt.lock().changed.push(key);
        }
    }
}

/// Viper: fixed-size record pages on (simulated) NVM plus a volatile,
/// pluggable DRAM index mapping each key to its record offset. Generic
/// over the index `I` and the [`WriteModel`] `M` (see module docs).
pub struct ViperStore<I, M: WriteModel = SingleWriter> {
    heap: RecordHeap,
    index: I,
    key_locks: M::KeyLocks,
    crash_safe_updates: bool,
    read_only: AtomicBool,
    recorder: Recorder,
    /// Bounded retry of transient put/delete faults (disabled by default).
    retry: RetryPolicy,
    /// Optional single-lane write admission gate (overload backpressure).
    admission: Option<Admission>,
    /// How long a put spin-waits on a saturated gate before shedding.
    admission_wait: Duration,
    /// Optional circuit breaker; when open, puts shed immediately.
    breaker: Option<Arc<CircuitBreaker>>,
    /// WAL + checkpoint state when the store was built with
    /// [`StoreConfig::durability`]; `None` keeps every path log-free.
    durability: Option<Durability>,
}

/// The shared-writer store flavour (kept as an alias so pre-unification
/// call sites keep compiling).
pub type ConcurrentViperStore<I> = ViperStore<I, SharedWriter>;

impl<I: Index, M: WriteModel> ViperStore<I, M> {
    fn with_parts(heap: RecordHeap, index: I, crash_safe_updates: bool) -> Self {
        ViperStore {
            heap,
            index,
            key_locks: M::KeyLocks::default(),
            crash_safe_updates,
            read_only: AtomicBool::new(false),
            recorder: Recorder::disabled(),
            retry: RetryPolicy::disabled(),
            admission: None,
            admission_wait: Duration::from_micros(200),
            breaker: None,
            durability: None,
        }
    }

    /// Attaches a telemetry recorder to the store *and* its DRAM index, so
    /// store-level op latencies (`Put`/`Delete`/`Get`/`Scan`/`Recovery`)
    /// and index-level structural events land in one metrics sink.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.index.set_recorder(recorder.clone());
        self.heap.set_recorder(recorder.clone());
        if let Some(d) = &mut self.durability {
            d.wal.set_recorder(recorder.clone());
        }
        self.recorder = recorder;
    }

    /// The telemetry recorder attached via [`ViperStore::set_recorder`]
    /// (disabled by default — snapshots of a disabled recorder are empty).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Point lookup: index probe + one NVM record read.
    pub fn get(&self, key: Key, value_buf: &mut [u8]) -> bool {
        let t = self.recorder.start();
        let found = match self.index.get(key) {
            Some(offset) => {
                let stored = self.heap.read(offset, value_buf);
                // Under a shared writer a racing crash-safe update may
                // relocate the record between probe and read, so the
                // stored-key invariant only holds for exclusive writers.
                if !M::SHARED {
                    debug_assert_eq!(stored, key, "index pointed at wrong record");
                }
                let _ = stored;
                true
            }
            None => false,
        };
        self.recorder.finish(OpKind::Get, t);
        found
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// Whether the store degraded to read-only after device exhaustion.
    /// Deletes are still accepted (they reclaim space and lift the
    /// degradation); puts are rejected with [`ViperError::ReadOnly`].
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Acquire)
    }

    /// The DRAM index (for stats like size/depth).
    pub fn index(&self) -> &I {
        &self.index
    }

    /// The persistent record heap.
    pub fn heap(&self) -> &RecordHeap {
        &self.heap
    }

    /// Tears the store down to its device (crash-simulation tests).
    pub fn into_device(self) -> Arc<NvmDevice> {
        self.heap.into_device()
    }

    /// Switches update strategy after construction (recovery paths have no
    /// [`StoreConfig`] to carry the flag).
    pub fn set_crash_safe_updates(&mut self, on: bool) {
        self.crash_safe_updates = on;
    }

    /// Enables bounded retry with seeded backoff for transient put/delete
    /// faults. Disabled by default (the pre-resilience behaviour).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// The active transient-fault retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Caps concurrently admitted puts at `limit`; a put finding the gate
    /// saturated spin-waits up to `max_wait` and then sheds with
    /// [`ViperError::Backpressure`]. Deletes are never gated — they
    /// reclaim space and are the pressure-relief valve. Pass `limit = 0`
    /// to remove the gate.
    pub fn set_admission_limit(&mut self, limit: usize, max_wait: Duration) {
        self.admission = (limit > 0).then(|| Admission::new(limit));
        self.admission_wait = max_wait;
    }

    /// Installs a circuit breaker; while it is open, puts shed immediately
    /// with [`ViperError::Backpressure`]. The breaker is shared with the
    /// maintenance worker, which feeds it overload observations.
    pub fn set_circuit_breaker(&mut self, breaker: Arc<CircuitBreaker>) {
        self.breaker = Some(breaker);
    }

    /// The installed circuit breaker, if any.
    pub fn circuit_breaker(&self) -> Option<&Arc<CircuitBreaker>> {
        self.breaker.as_ref()
    }

    /// Where this store currently sits on the overload ladder. Advisory —
    /// the state can change between this read and the next write — but
    /// accurate enough to pick a retry hint and the right typed error.
    /// Breaker-open dominates gate saturation.
    pub fn overload_state(&self) -> OverloadState {
        if let Some(b) = &self.breaker {
            if b.is_open() {
                return OverloadState::BreakerOpen;
            }
        }
        if let Some(gate) = &self.admission {
            let in_flight = gate.in_flight();
            if in_flight >= gate.limit() {
                return OverloadState::Gated { in_flight, limit: gate.limit() };
            }
        }
        OverloadState::Clear
    }

    /// Lifts read-only degradation if the heap can currently make
    /// progress again (recycled slots, page headroom, and no injected
    /// device-full window). Returns whether the store left read-only
    /// mode. Deletes lift the mode inline; this is the maintenance
    /// worker's path out when space came back some other way (page GC,
    /// quarantine repair, a fault window expiring).
    pub fn try_lift_read_only(&self) -> bool {
        if self.read_only.load(Ordering::Acquire) && self.heap.has_free_capacity() {
            self.read_only.store(false, Ordering::Release);
            return true;
        }
        false
    }

    /// Page-granular GC: returns fully dead pages to the allocator and
    /// emits one [`Event::PageReclaimed`] per page. See
    /// [`RecordHeap::reclaim_dead_pages`].
    pub fn reclaim_dead_pages(&self) -> usize {
        let n = self.heap.reclaim_dead_pages();
        self.recorder.event_n(Event::PageReclaimed, n as u64);
        n
    }

    /// Shared body of the per-model `repair_quarantined`: resolves every
    /// quarantined slot against `lookup` (the model-appropriate index
    /// probe), reclaims it, and emits one [`Event::RepairedSlot`] per slot
    /// resolved — never more than the `QuarantineSlot` events recovery
    /// emitted. Slots whose durable retirement faults stay quarantined
    /// for the next pass.
    fn repair_quarantined_with(&self, lookup: impl Fn(Key) -> Option<u64>) -> RepairOutcome {
        let mut out = RepairOutcome::default();
        for off in self.heap.quarantined_slots() {
            // The slot failed its checksum, so the key bytes are only a
            // hint — but a wrong key cannot resolve to this offset (the
            // index never references quarantined slots), so the worst a
            // garbage key does is misfile "superseded" as "lost".
            let key = self.heap.read_key(off);
            let superseded = lookup(key).is_some_and(|cur| cur != off);
            match self.heap.reclaim_quarantined(off) {
                Ok(true) => {
                    self.recorder.event(Event::RepairedSlot);
                    if superseded {
                        out.superseded += 1;
                    } else {
                        out.lost.push(key);
                    }
                }
                Ok(false) => {} // raced a concurrent repair pass
                Err(_) => {}    // transient fault: retried next pass
            }
        }
        out
    }

    /// Builds the heap — and, when configured, the WAL and checkpoint
    /// machinery — over a fresh device. `Err(DeviceFull)` means the device
    /// cannot fit the durability region plus at least one heap page.
    fn durable_parts(
        config: &StoreConfig,
        dev: &Arc<NvmDevice>,
    ) -> Result<(RecordHeap, Option<Durability>), ViperError> {
        match config.durability {
            None => Ok((RecordHeap::new(Arc::clone(dev), config.layout), None)),
            Some(dcfg) => {
                let geom = Geometry::compute(dev.capacity(), config.layout.page_size, &dcfg)
                    .ok_or(ViperError::DeviceFull)?;
                let heap =
                    RecordHeap::with_capacity(Arc::clone(dev), config.layout, geom.heap_capacity);
                let wal = Wal::new(Arc::clone(dev), geom.wal_base, geom.wal_records, 1);
                // A fresh device: the empty image plus every change from
                // here on is the index.
                Ok((heap, Some(Durability::new(wal, geom, dcfg, Manifest::NONE, true))))
            }
        }
    }

    /// WAL records appended since the last checkpoint (0 without
    /// durability). The maintenance worker writes a checkpoint once this
    /// reaches [`DurabilityConfig::checkpoint_lag`].
    pub fn wal_lag(&self) -> u64 {
        self.durability.as_ref().map_or(0, |d| d.wal.lag())
    }

    /// The durability sizing this store was built with, if any.
    pub fn durability_config(&self) -> Option<DurabilityConfig> {
        self.durability.as_ref().map(|d| d.config)
    }

    /// Generation of the newest checkpoint this store wrote (0 = none).
    pub fn checkpoint_generation(&self) -> u64 {
        self.durability.as_ref().map_or(0, |d| d.ckpt.lock().newest.generation)
    }

    /// The counters every image segment carries, read with writers
    /// quiescent: every logged op at or below this watermark has already
    /// taken its index effect (or lost it to a budgeted fault), so an image
    /// of the index covers the whole log prefix it retires.
    fn image_head(&self, d: &Durability) -> CheckpointBlob {
        CheckpointBlob {
            watermark: d.wal.next_lsn() - 1,
            next_seq: self.heap.next_seq(),
            pages_hwm: self.heap.pages_allocated() as u64,
            ..CheckpointBlob::default()
        }
    }

    /// A checkpoint is durably named: the changes it covers leave the
    /// list and the log span it covers reopens for appends.
    fn checkpoint_named(d: &Durability, manifest: Manifest) {
        {
            let mut state = d.ckpt.lock();
            state.changed.clear();
            state.newest = manifest;
            state.extendable = true;
        }
        d.wal.advance_start(manifest.watermark);
    }

    /// Writes a whole base image from a caller-provided entry table
    /// (assumed complete and key-sorted: bulk load's pairs, recovery's
    /// validated live set, a fold's merged image) plus the index's model.
    /// Callers must guarantee writer quiescence.
    fn checkpoint_base(&self, d: &Durability, entries: Vec<(u64, u64)>) -> Result<(), ViperError> {
        let blob = CheckpointBlob {
            entries,
            model: self.index.model_save().unwrap_or_default(),
            ..self.image_head(d)
        };
        let newest = d.ckpt.lock().newest;
        let manifest =
            checkpoint::write_base(self.heap.device(), &self.recorder, &d.geom, &newest, &blob)?;
        Self::checkpoint_named(d, manifest);
        Ok(())
    }

    /// Writes a checkpoint (no-op without durability) whose cost follows
    /// what changed since the previous one: the changed keys, resolved
    /// through the index readers see, go out as one delta segment after
    /// the image the newest manifest names — no heap page is read. Only
    /// when that segment does not fit the slot's remaining bytes is the
    /// image folded: base ⊕ deltas are read back, the changes merged in,
    /// and the result written as a new base in the other slot. Assumes
    /// writer quiescence; the public `checkpoint_now` entry points
    /// provide it per write model.
    fn checkpoint_inner(&self) -> Result<bool, ViperError> {
        let Some(d) = &self.durability else {
            return Ok(false);
        };
        // A copy: the list itself stays as it is until the checkpoint is
        // named, so a faulted write loses nothing.
        let (mut keys, newest, extendable) = {
            let state = d.ckpt.lock();
            (state.changed.clone(), state.newest, state.extendable)
        };
        keys.sort_unstable();
        keys.dedup();
        let changes: Vec<(u64, u64)> =
            keys.into_iter().map(|k| (k, self.index.get(k).unwrap_or(TOMBSTONE))).collect();
        let dev = self.heap.device();
        let delta = CheckpointBlob { entries: changes, ..self.image_head(d) };
        if extendable {
            let named = checkpoint::append_delta(dev, &self.recorder, &d.geom, &newest, &delta)?;
            if let Some(manifest) = named {
                Self::checkpoint_named(d, manifest);
                return Ok(true);
            }
        }
        // Fold. With no image to extend (a recovery whose own checkpoint
        // faulted), or one that no longer verifies, the device is the
        // last source left.
        let image = if extendable { checkpoint::load_image(dev, &d.geom, &newest) } else { None };
        let image = image.map_or_else(|| self.heap.scan_live(), |image| image.entries);
        let overlay = checkpoint::delta_overlay(&delta.entries);
        self.checkpoint_base(d, checkpoint::merge_overlay(&image, overlay))?;
        Ok(true)
    }

    /// The one bulk-load implementation both write models construct through.
    fn try_bulk_load_parts(
        config: StoreConfig,
        keys: &[Key],
        mut value_of: impl FnMut(Key, &mut [u8]),
        build: impl FnOnce(&[KeyValue]) -> I,
    ) -> Result<Self, ViperError> {
        let dev = Arc::new(NvmDevice::new(config.nvm));
        let (heap, durability) = Self::durable_parts(&config, &dev)?;
        let mut buf = vec![0u8; config.layout.value_size];
        let mut pairs: Vec<KeyValue> = Vec::with_capacity(keys.len());
        for &k in keys {
            value_of(k, &mut buf);
            let offset = heap.append(k, &buf)?;
            pairs.push((k, offset));
        }
        // Keys were ascending, so pairs are ready for bulk build.
        let index = build(&pairs);
        let mut store = Self::with_parts(heap, index, config.crash_safe_updates);
        store.durability = durability;
        // Bulk-loaded records are not WAL-logged; the initial checkpoint
        // is what makes them reachable by the fast recovery path. (A crash
        // before it completes simply falls back to the page rescan.)
        if let Some(d) = &store.durability {
            store.checkpoint_base(d, pairs)?;
        }
        Ok(store)
    }

    /// The one recovery implementation both write models construct through.
    /// The recorder times the whole rebuild as one [`OpKind::Recovery`]
    /// op, emits one [`Event::QuarantineSlot`] per record quarantined and
    /// one [`Event::LogReplay`] per WAL record applied over a checkpoint
    /// (the causal counters the crash-torture harness asserts against),
    /// and stays attached to the rebuilt store.
    ///
    /// With durability in `opts`, recovery prefers the newest verified
    /// checkpoint plus the WAL tail past its watermark; the full page
    /// rescan remains the fallback (no usable checkpoint, forced via
    /// [`RecoverOptions::use_checkpoint`], or a replay tail past
    /// [`RecoverOptions::replay_limit`]). A durable recovery ends by
    /// writing a *fresh* checkpoint so the next crash starts from here.
    fn recover_parts_with_model(
        dev: Arc<NvmDevice>,
        layout: RecordLayout,
        opts: RecoverOptions,
        recorder: Recorder,
        build: impl FnOnce(&[KeyValue], Option<&[u8]>) -> I,
    ) -> (Self, RecoveryReport) {
        let t = recorder.start();
        let RecoveredState { heap, live, model, report, resume } =
            recover_state(&dev, layout, opts);
        let index = build(&live, model.as_deref());
        recorder.event_n(Event::LogReplay, report.replayed as u64);
        recorder.event_n(Event::QuarantineSlot, report.quarantined as u64);
        let mut store = Self::with_parts(heap, index, false);
        if let (Some(dcfg), Some(r)) = (opts.durability, resume) {
            let wal = Wal::resume(
                Arc::clone(&dev),
                r.geom.wal_base,
                r.geom.wal_records,
                r.start_lsn,
                r.next_lsn,
            );
            store.durability = Some(Durability::new(wal, r.geom, dcfg, r.newest, false));
        }
        store.set_recorder(recorder.clone());
        // Fold what was just recovered into a fresh base image: the next
        // crash then recovers from here instead of re-replaying this tail
        // (or re-paying this rescan), and the retired WAL span reopens for
        // appends. A faulted checkpoint write is survivable — the store
        // works, the lag just stays — so it must not fail recovery.
        if let Some(d) = &store.durability {
            let _ = store.checkpoint_base(d, live);
        }
        recorder.finish(OpKind::Recovery, t);
        (store, report)
    }

    /// [`ViperStore::recover_parts_with_model`] with the model bytes
    /// elided, for index builders that always retrain from the entries.
    fn recover_parts(
        dev: Arc<NvmDevice>,
        layout: RecordLayout,
        opts: RecoverOptions,
        recorder: Recorder,
        build: impl FnOnce(&[KeyValue]) -> I,
    ) -> (Self, RecoveryReport) {
        Self::recover_parts_with_model(dev, layout, opts, recorder, |pairs, _model| build(pairs))
    }
}

/// `(geometry, WAL resume window, checkpoint generation)` a durable
/// recovery hands back so the store can reopen the log where it left off.
struct WalResume {
    geom: Geometry,
    /// First LSN still covered by the (old) checkpoint watermark + 1; the
    /// span up to `next_lsn` stays protected until the post-recovery
    /// checkpoint retires it.
    start_lsn: u64,
    next_lsn: u64,
    /// Newest manifest on the device ([`Manifest::NONE`] = none); the
    /// fresh post-recovery checkpoint numbers itself above it and leaves
    /// the image it names alone.
    newest: Manifest,
}

/// Everything recovery produced short of the index build.
struct RecoveredState {
    heap: RecordHeap,
    /// Validated live `(key, offset)` pairs, sorted by key.
    live: Vec<KeyValue>,
    /// Serialized index model from the checkpoint, when one was usable.
    model: Option<Vec<u8>>,
    report: RecoveryReport,
    /// `None` without durability (no WAL to reopen).
    resume: Option<WalResume>,
}

/// What validating a recovered `key → offset` mapping against the device
/// found. The index must never point at anything but a live record of the
/// same key.
enum SlotCheck {
    Live {
        seq: u64,
    },
    /// Live record of the right key failing its checksum — quarantined,
    /// exactly as the full rescan would.
    Corrupt,
    /// Slot is not a live record of this key (the logged op never took its
    /// heap effect, or the mapping was superseded): dropped.
    Gone,
}

fn check_slot(
    layout: &RecordLayout,
    verify_checksums: bool,
    key: Key,
    slot_buf: &[u8],
) -> SlotCheck {
    let header = RecordLayout::decode_header(slot_buf);
    if header.state != SLOT_LIVE || header.key != key {
        return SlotCheck::Gone;
    }
    if verify_checksums && !layout.verify_slot(slot_buf) {
        return SlotCheck::Corrupt;
    }
    SlotCheck::Live { seq: header.seq }
}

/// Dispatches a recovery to the checkpoint fast path or the page rescan.
fn recover_state(
    dev: &Arc<NvmDevice>,
    layout: RecordLayout,
    opts: RecoverOptions,
) -> RecoveredState {
    let geom =
        opts.durability.and_then(|d| Geometry::compute(dev.capacity(), layout.page_size, &d));
    let Some(geom) = geom else {
        // No durability region: the pre-durability rescan, verbatim.
        let (heap, mut live, report) =
            RecordHeap::recover_with_report(Arc::clone(dev), layout, opts);
        live.sort_unstable();
        return RecoveredState { heap, live, model: None, report, resume: None };
    };
    if opts.use_checkpoint {
        if let Some(state) = try_checkpoint_recovery(dev, layout, opts, &geom) {
            return state;
        }
    }
    rescan_with_replay(dev, layout, opts, &geom)
}

/// The fast path: newest verified checkpoint + WAL tail, no page scan and
/// (when the blob carries model bytes) no retraining. `None` sends the
/// caller to the rescan fallback.
fn try_checkpoint_recovery(
    dev: &Arc<NvmDevice>,
    layout: RecordLayout,
    opts: RecoverOptions,
    geom: &Geometry,
) -> Option<RecoveredState> {
    let loaded = checkpoint::load_latest(dev, geom)?;
    let blob = loaded.blob;
    let replay = Wal::replay(dev, geom.wal_base, geom.wal_records, blob.watermark);
    if opts.replay_limit != 0 && replay.records.len() > opts.replay_limit {
        return None; // tail too long — the rescan is cheaper to trust
    }
    let mut report = RecoveryReport {
        from_checkpoint: true,
        replayed: replay.records.len(),
        quarantined: loaded.rejected + replay.holes,
        ..RecoveryReport::default()
    };
    // The image (base ⊕ deltas, key-sorted) with the log tail applied on
    // top, in LSN order. The tail folds in as a small sorted overlay
    // merged over the image — no per-entry map rebuild, which at 10M+
    // entries costs more than the page scan this path avoids.
    //
    // Final tail effect per key (`None` = deleted). Slots a replayed
    // delete leaves live on the device (its retirement faulted before the
    // crash) are parked stale below so neither a later checkpoint nor a
    // later rescan resurrects the acknowledged delete.
    let base = &blob.entries;
    let mut overlay: BTreeMap<Key, Option<u64>> = BTreeMap::new();
    let mut delete_victims: Vec<u64> = Vec::new();
    for rec in &replay.records {
        if rec.op == WAL_OP_DELETE {
            let prior = match overlay.get(&rec.key) {
                Some(&slot) => slot,
                None => base.binary_search_by_key(&rec.key, |e| e.0).ok().map(|i| base[i].1),
            };
            if let Some(off) = prior {
                delete_victims.push(off);
            }
            overlay.insert(rec.key, None);
        } else {
            overlay.insert(rec.key, Some(rec.offset));
        }
    }
    let entries: Vec<KeyValue> = checkpoint::merge_overlay(base, overlay);
    // Validate every surviving mapping against its slot: replay holes and
    // ops that faulted after logging leave mappings the device does not
    // back, and the index must not point at garbage. Mappings are visited
    // in offset order so each heap page is read once, sequentially —
    // per-slot random reads would cost more device round-trips than the
    // page rescan this path exists to beat.
    let mut order: Vec<u32> =
        (0..u32::try_from(entries.len()).expect("heap holds < 4G slots")).collect();
    order.sort_unstable_by_key(|&i| entries[i as usize].1);
    let mut alive = vec![false; entries.len()];
    let mut corrupt: Vec<u64> = Vec::new();
    let mut max_seq = blob.next_seq.saturating_sub(1);
    let mut pages_hwm = blob.pages_hwm as usize;
    let mut page_buf = vec![0u8; layout.page_size];
    let mut cur_page = usize::MAX;
    for &i in &order {
        let (key, offset) = entries[i as usize];
        let page = offset as usize / layout.page_size;
        if page != cur_page {
            dev.read_into(page * layout.page_size, &mut page_buf);
            cur_page = page;
        }
        let in_page = offset as usize - page * layout.page_size;
        let slot_buf = &page_buf[in_page..in_page + layout.slot_size()];
        match check_slot(&layout, opts.verify_checksums, key, slot_buf) {
            SlotCheck::Live { seq } => {
                max_seq = max_seq.max(seq);
                pages_hwm = pages_hwm.max(page + 1);
                alive[i as usize] = true;
            }
            SlotCheck::Corrupt => {
                report.quarantined += 1;
                pages_hwm = pages_hwm.max(page + 1);
                corrupt.push(offset);
            }
            SlotCheck::Gone => {}
        }
    }
    let live: Vec<KeyValue> =
        entries.into_iter().zip(&alive).filter_map(|(e, &ok)| ok.then_some(e)).collect();
    report.live = live.len();
    report.max_seq = max_seq;
    // Sequence numbers consumed after the checkpoint but not observed
    // above (slots staged then orphaned by faults) are bounded by the
    // logged span plus the bounded write-retry budget; the slack keeps
    // the highest-sequence-wins rule of a *future* rescan from tying with
    // a leaked slot.
    let span = replay.next_lsn - 1 - blob.watermark;
    let next_seq = blob.next_seq.max(max_seq + 1) + span + 64;
    let heap = RecordHeap::from_checkpoint(
        Arc::clone(dev),
        layout,
        geom.heap_capacity,
        pages_hwm,
        next_seq,
    );
    heap.adopt_quarantined(&corrupt);
    for off in delete_victims {
        heap.park_stale(off);
    }
    Some(RecoveredState {
        heap,
        live, // filtered in merged-entry order: already key-sorted
        model: (!blob.model.is_empty()).then_some(blob.model),
        report,
        resume: Some(WalResume {
            geom: *geom,
            start_lsn: blob.watermark + 1,
            next_lsn: replay.next_lsn,
            newest: loaded.manifest,
        }),
    })
}

/// The fallback: full page rescan, *plus* a replay of the current WAL lap
/// for deletes only. The scan already resolves every key to its newest
/// durable record, so puts need no re-application — but a logged delete
/// whose retirement faulted left its victim live on the device, and only
/// the log knows the delete was acknowledged.
fn rescan_with_replay(
    dev: &Arc<NvmDevice>,
    layout: RecordLayout,
    opts: RecoverOptions,
    geom: &Geometry,
) -> RecoveredState {
    let (heap, live, mut report) = RecordHeap::recover_with_report(Arc::clone(dev), layout, opts);
    let max_lsn = Wal::max_lsn(dev, geom.wal_base, geom.wal_records);
    let watermark = max_lsn.saturating_sub(geom.wal_records);
    let replay = Wal::replay(dev, geom.wal_base, geom.wal_records, watermark);
    // Only a key whose *last* logged op is a delete is removed: a later
    // logged put legitimately re-inserted it, and the scan's state (the
    // newest durable record) already reflects everything else.
    let mut last_op: BTreeMap<Key, &crate::wal::WalRecord> = BTreeMap::new();
    for rec in &replay.records {
        last_op.insert(rec.key, rec);
    }
    let mut map: BTreeMap<Key, u64> = live.into_iter().collect();
    let mut delete_victims: Vec<u64> = Vec::new();
    for (key, rec) in last_op {
        if rec.op == WAL_OP_DELETE {
            if let Some(off) = map.remove(&key) {
                delete_victims.push(off);
            }
        }
    }
    report.quarantined += replay.holes;
    let live: Vec<KeyValue> = map.into_iter().collect();
    report.live = live.len();
    for off in delete_victims {
        heap.park_stale(off);
    }
    let newest = checkpoint::newest_manifest(dev, geom);
    RecoveredState {
        heap,
        live,
        model: None,
        report,
        resume: Some(WalResume {
            geom: *geom,
            start_lsn: watermark + 1,
            next_lsn: replay.next_lsn,
            newest,
        }),
    }
}

// Construction entry points live on the single-writer flavour only, so the
// common `ViperStore::bulk_load(..)` spelling (write model elided, defaulted
// to [`SingleWriter`]) stays inferable. The shared-writer flavour has its
// own, distinctly named entry points below.
impl<I: Index> ViperStore<I, SingleWriter> {
    /// Bulk-loads `data` (strictly ascending keys, all values `value_size`
    /// bytes, provided by `value_of`), building the index with `build` —
    /// how every learned index is initialised in the paper. Use this form
    /// when the index type cannot implement [`BulkBuildIndex`] (e.g. a
    /// runtime-selected enum of indexes).
    ///
    /// Panics if the device cannot hold the data set — a sizing error of
    /// the caller; use [`ViperStore::try_bulk_load_with`] to handle it.
    pub fn bulk_load_with(
        config: StoreConfig,
        keys: &[Key],
        value_of: impl FnMut(Key, &mut [u8]),
        build: impl FnOnce(&[KeyValue]) -> I,
    ) -> Self {
        Self::try_bulk_load_with(config, keys, value_of, build)
            .expect("device cannot hold bulk-loaded data set")
    }

    /// Fallible bulk load: surfaces device exhaustion / injected faults
    /// instead of panicking.
    pub fn try_bulk_load_with(
        config: StoreConfig,
        keys: &[Key],
        value_of: impl FnMut(Key, &mut [u8]),
        build: impl FnOnce(&[KeyValue]) -> I,
    ) -> Result<Self, ViperError> {
        Self::try_bulk_load_parts(config, keys, value_of, build)
    }

    /// Recovery with a caller-supplied index builder (see
    /// [`ViperStore::bulk_load_with`]). Verifies checksums and quarantines
    /// corrupt records; use [`ViperStore::recover_with_options`] for the
    /// full report or to alter verification.
    pub fn recover_with(
        dev: Arc<NvmDevice>,
        layout: RecordLayout,
        build: impl FnOnce(&[KeyValue]) -> I,
    ) -> Self {
        Self::recover_with_options(dev, layout, RecoverOptions::default(), build).0
    }

    /// Recovery with explicit options; also returns what the scan found.
    pub fn recover_with_options(
        dev: Arc<NvmDevice>,
        layout: RecordLayout,
        opts: RecoverOptions,
        build: impl FnOnce(&[KeyValue]) -> I,
    ) -> (Self, RecoveryReport) {
        Self::recover_parts(dev, layout, opts, Recorder::disabled(), build)
    }

    /// [`ViperStore::recover_with_options`] with telemetry: the recorder
    /// times the scan-and-rebuild ([`OpKind::Recovery`]), counts one
    /// [`Event::QuarantineSlot`] per quarantined record, and remains
    /// attached to the recovered store. (`RecoverOptions` stays a plain
    /// `Copy` options struct; the recorder travels as a parameter.)
    pub fn recover_recorded(
        dev: Arc<NvmDevice>,
        layout: RecordLayout,
        opts: RecoverOptions,
        recorder: Recorder,
        build: impl FnOnce(&[KeyValue]) -> I,
    ) -> (Self, RecoveryReport) {
        Self::recover_parts(dev, layout, opts, recorder, build)
    }

    /// Recovery with a *model-aware* index builder: when the checkpoint
    /// fast path surfaces serialized model parameters, they are handed to
    /// `build` alongside the live pairs so the index can rebuild its
    /// learned structure without retraining from scratch (`None` on the
    /// rescan fallback or when the checkpoint carried no model).
    pub fn recover_with_model(
        dev: Arc<NvmDevice>,
        layout: RecordLayout,
        opts: RecoverOptions,
        recorder: Recorder,
        build: impl FnOnce(&[KeyValue], Option<&[u8]>) -> I,
    ) -> (Self, RecoveryReport) {
        Self::recover_parts_with_model(dev, layout, opts, recorder, build)
    }
}

impl<I: Index + BulkBuildIndex> ViperStore<I, SingleWriter> {
    /// Bulk load with the index's own [`BulkBuildIndex`] constructor.
    pub fn bulk_load(
        config: StoreConfig,
        keys: &[Key],
        value_of: impl FnMut(Key, &mut [u8]),
    ) -> Self {
        Self::bulk_load_with(config, keys, value_of, I::build)
    }

    /// Recovers a store from a device after a crash/restart: scans the
    /// record heap and rebuilds the DRAM index (Fig. 16's build path).
    pub fn recover(dev: Arc<NvmDevice>, layout: RecordLayout) -> Self {
        Self::recover_with(dev, layout, I::build)
    }
}

impl<I: OrderedIndex, M: WriteModel> ViperStore<I, M> {
    /// Range scan: returns up to `limit` records with key in `[lo, hi]`,
    /// reading each value from NVM into `sink`.
    pub fn scan(&self, lo: Key, hi: Key, limit: usize, sink: &mut dyn FnMut(Key, &[u8])) -> usize {
        let t = self.recorder.start();
        let mut pairs = Vec::new();
        self.index.range(lo, hi, &mut pairs);
        let mut buf = vec![0u8; self.heap.layout().value_size];
        let mut n = 0;
        for (k, offset) in pairs.into_iter().take(limit) {
            let stored = self.heap.read(offset, &mut buf);
            debug_assert_eq!(stored, k);
            sink(k, &buf);
            n += 1;
        }
        self.recorder.finish(OpKind::Scan, t);
        n
    }
}

impl<I: Index + UpdatableIndex> ViperStore<I, SingleWriter> {
    /// Creates an empty single-writer store with the given index.
    ///
    /// Panics if [`StoreConfig::durability`] is set but the device cannot
    /// fit the durability region — a sizing error of the caller (the
    /// [`StoreConfig::with_durability`] builder grows the device to fit).
    pub fn new(config: StoreConfig, index: I) -> Self {
        let dev = Arc::new(NvmDevice::new(config.nvm));
        let (heap, durability) =
            Self::durable_parts(&config, &dev).expect("device too small for the durability region");
        let mut store = Self::with_parts(heap, index, config.crash_safe_updates);
        store.durability = durability;
        store
    }

    /// Inserts or updates (degradation contract: see [`put_core`]). Sheds
    /// under overload ([`ViperError::Backpressure`]), retries transient
    /// faults per the configured [`RetryPolicy`], and degrades to
    /// read-only only once the retry budget is exhausted on exhaustion.
    /// Under durability, a full WAL ring is absorbed by an inline
    /// checkpoint plus one more attempt before [`ViperError::WalFull`]
    /// can surface.
    pub fn put(&mut self, key: Key, value: &[u8]) -> Result<(), ViperError> {
        let t = self.recorder.start();
        let mut r = self.put_attempt(key, value);
        if r == Err(ViperError::WalFull) {
            r = self.checkpoint_inner().and_then(|_| self.put_attempt(key, value));
        }
        if r == Err(ViperError::DeviceFull) {
            self.read_only.store(true, Ordering::Release);
        }
        self.recorder.finish(OpKind::Put, t);
        r
    }

    fn put_attempt(&mut self, key: Key, value: &[u8]) -> Result<(), ViperError> {
        let crash_safe = self.crash_safe_updates;
        let ViperStore {
            heap,
            index,
            read_only,
            recorder,
            retry,
            admission,
            admission_wait,
            breaker,
            durability,
            ..
        } = self;
        let durability = durability.as_ref();
        let wal = durability.map(|d| &d.wal);
        let _gate = shed_check(breaker.as_ref(), admission.as_ref(), *admission_wait)?;
        with_retry(retry, key, recorder, heap.device(), || {
            put_core(heap, crash_safe, read_only, Excl(&mut *index, durability), wal, key, value)
        })
    }

    /// Removes a key; returns whether it existed. Retries transient
    /// faults; never gated or shed — deletes reclaim space and are the
    /// way out of degradation. Absorbs a full WAL ring like `put`.
    pub fn delete(&mut self, key: Key) -> Result<bool, ViperError> {
        let t = self.recorder.start();
        let mut r = self.delete_attempt(key);
        if r == Err(ViperError::WalFull) {
            r = self.checkpoint_inner().and_then(|_| self.delete_attempt(key));
        }
        self.recorder.finish(OpKind::Delete, t);
        r
    }

    fn delete_attempt(&mut self, key: Key) -> Result<bool, ViperError> {
        let ViperStore { heap, index, read_only, recorder, retry, durability, .. } = self;
        let durability = durability.as_ref();
        let wal = durability.map(|d| &d.wal);
        with_retry(retry, key, recorder, heap.device(), || {
            delete_core(heap, read_only, Excl(&mut *index, durability), wal, key)
        })
    }

    /// Writes a checkpoint now (no-op without durability, returning
    /// `false`). `&mut self` is the writer-quiescence guarantee the
    /// snapshot needs.
    pub fn checkpoint_now(&mut self) -> Result<bool, ViperError> {
        self.checkpoint_inner()
    }

    /// Online repair of recovery's quarantined slots: each is resolved
    /// against the index (superseded elsewhere, or its payload reported
    /// lost) and reclaimed into circulation.
    pub fn repair_quarantined(&self) -> RepairOutcome {
        self.repair_quarantined_with(|key| Index::get(&self.index, key))
    }

    /// Retires slots parked by a transiently failed out-of-place update
    /// (see [`RecordHeap::sweep_stale`]). Returns the number retired.
    pub fn sweep_stale_slots(&self) -> usize {
        self.heap.sweep_stale(|key, off| Index::get(&self.index, key) == Some(off))
    }

    /// Writes a checkpoint iff the WAL lag has reached the configured
    /// [`DurabilityConfig::checkpoint_lag`] (false without durability or
    /// below the trigger; a faulted write also reports false and leaves
    /// the lag for the next pass).
    fn maybe_checkpoint(&mut self) -> bool {
        match self.durability_config() {
            Some(d) if self.wal_lag() >= d.checkpoint_lag => {
                self.checkpoint_inner().unwrap_or(false)
            }
            _ => false,
        }
    }

    /// One full self-healing pass: drain up to `retrain_budget` deferred
    /// leaf retrains, retire stale slots, repair quarantined slots,
    /// reclaim dead pages, write a checkpoint if the WAL lag calls for
    /// one, tick the device clock (so injected fault windows pass even
    /// with the foreground idle), and lift read-only if space came back.
    /// Timed as one [`OpKind::Maintenance`] op.
    pub fn run_maintenance(&mut self, retrain_budget: usize) -> crate::MaintenancePass {
        let t = self.recorder.start();
        let retrains_run = UpdatableIndex::run_pending_retrains(&mut self.index, retrain_budget);
        let stale_retired = self.sweep_stale_slots();
        let repair = self.repair_quarantined();
        let pages_reclaimed = self.reclaim_dead_pages();
        let checkpoint_written = self.maybe_checkpoint();
        let _ = self.heap.device().try_fence();
        let lifted_read_only = self.try_lift_read_only();
        self.recorder.finish(OpKind::Maintenance, t);
        crate::MaintenancePass {
            retrains_run,
            stale_retired,
            repair,
            pages_reclaimed,
            lifted_read_only,
            checkpoint_written,
            // Online shard adaptation needs the shared-writer route; the
            // single-writer store has no concurrent router to adapt.
            adaptations: 0,
        }
    }
}

impl<I: Index + ConcurrentIndex> ViperStore<I, SharedWriter> {
    /// Creates an empty shared-writer store with the given index.
    ///
    /// Panics if [`StoreConfig::durability`] is set but the device cannot
    /// fit the durability region (see the single-writer `new`).
    pub fn new(config: StoreConfig, index: I) -> Self {
        let dev = Arc::new(NvmDevice::new(config.nvm));
        let (heap, durability) =
            Self::durable_parts(&config, &dev).expect("device too small for the durability region");
        let mut store = Self::with_parts(heap, index, config.crash_safe_updates);
        store.durability = durability;
        store
    }

    /// Inserts or updates through a shared reference. Same degradation,
    /// backpressure, retry and WAL-full contract as the single-writer
    /// put; same-key races are serialised by the stripe lock, which is
    /// released during each backoff so other keys in the stripe keep
    /// flowing.
    pub fn put(&self, key: Key, value: &[u8]) -> Result<(), ViperError> {
        let t = self.recorder.start();
        let mut r = self.put_attempt(key, value);
        if r == Err(ViperError::WalFull) {
            r = self.checkpoint_now().and_then(|_| self.put_attempt(key, value));
        }
        if r == Err(ViperError::DeviceFull) {
            self.read_only.store(true, Ordering::Release);
        }
        self.recorder.finish(OpKind::Put, t);
        r
    }

    fn put_attempt(&self, key: Key, value: &[u8]) -> Result<(), ViperError> {
        let durability = self.durability.as_ref();
        let wal = durability.map(|d| &d.wal);
        let _gate =
            shed_check(self.breaker.as_ref(), self.admission.as_ref(), self.admission_wait)?;
        with_retry(&self.retry, key, &self.recorder, self.heap.device(), || {
            let _guard = self.key_locks.lock(key);
            put_core(
                &self.heap,
                self.crash_safe_updates,
                &self.read_only,
                Shared(&self.index, durability),
                wal,
                key,
                value,
            )
        })
    }

    /// Removes a key through a shared reference. Retries transient
    /// faults; never gated or shed (deletes are the way out of
    /// degradation). Absorbs a full WAL ring like `put`.
    pub fn delete(&self, key: Key) -> Result<bool, ViperError> {
        let t = self.recorder.start();
        let mut r = self.delete_attempt(key);
        if r == Err(ViperError::WalFull) {
            r = self.checkpoint_now().and_then(|_| self.delete_attempt(key));
        }
        self.recorder.finish(OpKind::Delete, t);
        r
    }

    fn delete_attempt(&self, key: Key) -> Result<bool, ViperError> {
        let durability = self.durability.as_ref();
        let wal = durability.map(|d| &d.wal);
        with_retry(&self.retry, key, &self.recorder, self.heap.device(), || {
            let _guard = self.key_locks.lock(key);
            delete_core(&self.heap, &self.read_only, Shared(&self.index, durability), wal, key)
        })
    }

    /// Writes a checkpoint now (no-op without durability, returning
    /// `false`), quiescing in-flight writers by holding every key stripe
    /// for the duration. Callers must not hold a stripe themselves — the
    /// put/delete wrappers invoke this only after their attempt (and its
    /// stripe guard) has fully unwound.
    pub fn checkpoint_now(&self) -> Result<bool, ViperError> {
        let _quiesce: Vec<_> = self.key_locks.0.iter().map(|m| m.lock()).collect();
        self.checkpoint_inner()
    }

    /// Graceful-shutdown hook: quiesce all writer stripes, fence the
    /// device, and write a final checkpoint when durability is
    /// configured. Idempotent; returns whether a checkpoint was written.
    /// Callers (e.g. `li-server`) stop admitting new work first, so by
    /// the time this returns every acknowledged write is durable.
    pub fn drain(&self) -> Result<bool, ViperError> {
        let wrote = self.checkpoint_now()?;
        let _ = self.heap.device().try_fence();
        Ok(wrote)
    }

    /// Online repair of recovery's quarantined slots through a shared
    /// reference; each probe is serialised with same-key writers by the
    /// stripe lock.
    pub fn repair_quarantined(&self) -> RepairOutcome {
        self.repair_quarantined_with(|key| {
            let _guard = self.key_locks.lock(key);
            ConcurrentIndex::get(&self.index, key)
        })
    }

    /// Retires slots parked by a transiently failed out-of-place update
    /// (see [`RecordHeap::sweep_stale`]), serialising each candidate's
    /// probe with same-key writers.
    pub fn sweep_stale_slots(&self) -> usize {
        self.heap.sweep_stale(|key, off| {
            let _guard = self.key_locks.lock(key);
            ConcurrentIndex::get(&self.index, key) == Some(off)
        })
    }

    /// Shared-writer twin of the single-writer `maybe_checkpoint`:
    /// lag-triggered checkpoint through a shared reference, quiescing
    /// writers via [`ViperStore::checkpoint_now`].
    fn maybe_checkpoint(&self) -> bool {
        match self.durability_config() {
            Some(d) if self.wal_lag() >= d.checkpoint_lag => self.checkpoint_now().unwrap_or(false),
            _ => false,
        }
    }

    /// Shared-writer twin of the single-writer `run_maintenance`: one
    /// full self-healing pass through a shared reference — this is what
    /// the [`crate::MaintenanceWorker`] calls on every tick.
    pub fn run_maintenance(&self, retrain_budget: usize) -> crate::MaintenancePass {
        let t = self.recorder.start();
        let retrains_run = ConcurrentIndex::run_pending_retrains(&self.index, retrain_budget);
        // After drains, before space work: adaptation may rebuild shards,
        // and a freshly swapped shard should not immediately re-park
        // retrains this same pass.
        let adaptations = ConcurrentIndex::run_adaptation(&self.index);
        let stale_retired = self.sweep_stale_slots();
        let repair = self.repair_quarantined();
        let pages_reclaimed = self.reclaim_dead_pages();
        let checkpoint_written = self.maybe_checkpoint();
        let _ = self.heap.device().try_fence();
        let lifted_read_only = self.try_lift_read_only();
        self.recorder.finish(OpKind::Maintenance, t);
        crate::MaintenancePass {
            retrains_run,
            stale_retired,
            repair,
            pages_reclaimed,
            lifted_read_only,
            checkpoint_written,
            adaptations,
        }
    }

    /// Shared-writer twin of [`ViperStore::bulk_load_with`]. Named
    /// distinctly so the single-writer spellings stay inferable with the
    /// write model elided.
    pub fn bulk_load_shared(
        config: StoreConfig,
        keys: &[Key],
        value_of: impl FnMut(Key, &mut [u8]),
        build: impl FnOnce(&[KeyValue]) -> I,
    ) -> Self {
        Self::try_bulk_load_shared(config, keys, value_of, build)
            .expect("device cannot hold bulk-loaded data set")
    }

    /// Shared-writer twin of [`ViperStore::try_bulk_load_with`].
    pub fn try_bulk_load_shared(
        config: StoreConfig,
        keys: &[Key],
        value_of: impl FnMut(Key, &mut [u8]),
        build: impl FnOnce(&[KeyValue]) -> I,
    ) -> Result<Self, ViperError> {
        Self::try_bulk_load_parts(config, keys, value_of, build)
    }

    /// Shared-writer twin of [`ViperStore::recover_with`].
    pub fn recover_shared(
        dev: Arc<NvmDevice>,
        layout: RecordLayout,
        build: impl FnOnce(&[KeyValue]) -> I,
    ) -> Self {
        Self::recover_shared_with_options(dev, layout, RecoverOptions::default(), build).0
    }

    /// Shared-writer twin of [`ViperStore::recover_with_options`].
    pub fn recover_shared_with_options(
        dev: Arc<NvmDevice>,
        layout: RecordLayout,
        opts: RecoverOptions,
        build: impl FnOnce(&[KeyValue]) -> I,
    ) -> (Self, RecoveryReport) {
        Self::recover_parts(dev, layout, opts, Recorder::disabled(), build)
    }

    /// Shared-writer twin of [`ViperStore::recover_recorded`].
    pub fn recover_shared_recorded(
        dev: Arc<NvmDevice>,
        layout: RecordLayout,
        opts: RecoverOptions,
        recorder: Recorder,
        build: impl FnOnce(&[KeyValue]) -> I,
    ) -> (Self, RecoveryReport) {
        Self::recover_parts(dev, layout, opts, recorder, build)
    }

    /// Shared-writer twin of [`ViperStore::recover_with_model`].
    pub fn recover_shared_with_model(
        dev: Arc<NvmDevice>,
        layout: RecordLayout,
        opts: RecoverOptions,
        recorder: Recorder,
        build: impl FnOnce(&[KeyValue], Option<&[u8]>) -> I,
    ) -> (Self, RecoveryReport) {
        Self::recover_parts_with_model(dev, layout, opts, recorder, build)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A trivial reference index for exercising the store machinery.
    #[derive(Default)]
    pub(crate) struct MapIndex(BTreeMap<Key, u64>);

    impl Index for MapIndex {
        fn name(&self) -> &'static str {
            "map"
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn get(&self, key: Key) -> Option<u64> {
            self.0.get(&key).copied()
        }
        fn index_size_bytes(&self) -> usize {
            self.0.len() * 48
        }
        fn data_size_bytes(&self) -> usize {
            0
        }
    }

    impl UpdatableIndex for MapIndex {
        fn insert(&mut self, key: Key, value: u64) -> Option<u64> {
            self.0.insert(key, value)
        }
        fn remove(&mut self, key: Key) -> Option<u64> {
            self.0.remove(&key)
        }
    }

    impl OrderedIndex for MapIndex {
        fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
            out.extend(self.0.range(lo..=hi).map(|(&k, &v)| (k, v)));
        }
    }

    impl BulkBuildIndex for MapIndex {
        fn build(data: &[KeyValue]) -> Self {
            MapIndex(data.iter().copied().collect())
        }
    }

    fn value_for(key: Key, buf: &mut [u8]) {
        value_for_test(key, buf);
    }

    pub(crate) fn value_for_test(key: Key, buf: &mut [u8]) {
        let b = (key % 251) as u8;
        buf.fill(b);
    }

    #[test]
    fn put_get_delete() {
        let mut store = ViperStore::<MapIndex>::new(StoreConfig::test(1_000), MapIndex::default());
        let vs = store.heap().layout().value_size;
        let mut buf = vec![0u8; vs];
        let mut val = vec![0u8; vs];
        for k in 0..500u64 {
            value_for(k, &mut val);
            store.put(k * 3, &val).unwrap();
        }
        assert_eq!(store.len(), 500);
        for k in 0..500u64 {
            assert!(store.get(k * 3, &mut buf), "missing {k}");
            value_for(k, &mut val);
            assert_eq!(buf, val);
            assert!(!store.get(k * 3 + 1, &mut buf));
        }
        assert!(store.delete(3).unwrap());
        assert!(!store.delete(3).unwrap());
        assert!(!store.get(3, &mut buf));
        assert_eq!(store.len(), 499);
    }

    #[test]
    fn update_in_place() {
        let mut store = ViperStore::<MapIndex>::new(StoreConfig::test(100), MapIndex::default());
        let vs = store.heap().layout().value_size;

        store.put(7, &vec![1u8; vs]).unwrap();
        let used_before = store.heap().nvm_bytes_used();
        store.put(7, &vec![2u8; vs]).unwrap();
        assert_eq!(store.heap().nvm_bytes_used(), used_before, "no new page for update");
        let mut buf = vec![0u8; vs];
        assert!(store.get(7, &mut buf));
        assert_eq!(buf, vec![2u8; vs]);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn crash_safe_updates_mode() {
        let mut store = ViperStore::<MapIndex>::new(
            StoreConfig::test(100).with_crash_safe_updates(true),
            MapIndex::default(),
        );
        let vs = store.heap().layout().value_size;
        store.put(7, &vec![1u8; vs]).unwrap();
        let off_before = store.index().get(7).unwrap();
        store.put(7, &vec![2u8; vs]).unwrap();
        let off_after = store.index().get(7).unwrap();
        assert_ne!(off_before, off_after, "update must move the record");
        let mut buf = vec![0u8; vs];
        assert!(store.get(7, &mut buf));
        assert_eq!(buf, vec![2u8; vs]);
        assert_eq!(store.len(), 1);
        // The retired slot is recyclable: a new key lands on it.
        store.put(8, &vec![3u8; vs]).unwrap();
        assert_eq!(store.index().get(8).unwrap(), off_before);
    }

    #[test]
    fn exhaustion_degrades_to_read_only() {
        let mut store = ViperStore::<MapIndex>::new(StoreConfig::test(0), MapIndex::default());
        let vs = store.heap().layout().value_size;
        let val = vec![1u8; vs];
        let mut k = 0u64;
        let err = loop {
            match store.put(k, &val) {
                Ok(()) => k += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(err, ViperError::DeviceFull);
        assert!(store.is_read_only());
        assert!(k > 0);
        // Fast-fail while degraded; reads unaffected.
        assert_eq!(store.put(u64::MAX, &val), Err(ViperError::ReadOnly));
        let mut buf = vec![0u8; vs];
        assert!(store.get(0, &mut buf));
        // A delete reclaims space and lifts the degradation.
        assert!(store.delete(0).unwrap());
        assert!(!store.is_read_only());
        store.put(u64::MAX, &val).unwrap();
    }

    #[test]
    fn bulk_load_then_scan() {
        let keys: Vec<Key> = (0..1_000u64).map(|i| i * 2).collect();
        let store: ViperStore<MapIndex> =
            ViperStore::bulk_load(StoreConfig::test(1_000), &keys, value_for);
        assert_eq!(store.len(), 1_000);
        let mut got = Vec::new();
        let n = store.scan(100, 120, 100, &mut |k, _v| got.push(k));
        assert_eq!(n, 11);
        assert_eq!(got, (50..=60).map(|i| i * 2).collect::<Vec<_>>());
        // Limited scan.
        let mut got2 = Vec::new();
        let n2 = store.scan(0, u64::MAX, 5, &mut |k, _v| got2.push(k));
        assert_eq!(n2, 5);
        assert_eq!(got2, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn try_bulk_load_reports_exhaustion() {
        let keys: Vec<Key> = (0..100_000u64).collect();
        let result: Result<ViperStore<MapIndex>, _> = ViperStore::try_bulk_load_with(
            StoreConfig::test(10),
            &keys,
            value_for,
            MapIndex::build,
        );
        assert_eq!(result.err(), Some(ViperError::DeviceFull));
    }

    #[test]
    fn recover_equals_original() {
        let keys: Vec<Key> = (0..800u64).map(|i| i * 5 + 1).collect();
        let cfg = StoreConfig::test(1_000);
        let layout = cfg.layout;
        let mut store: ViperStore<MapIndex> = ViperStore::bulk_load(cfg, &keys, value_for);
        store.delete(6).unwrap(); // key 6 = 1*5+1
        store.put(10_000, &vec![9u8; layout.value_size]).unwrap();
        let expected_len = store.len();
        let dev = store.into_device();
        let recovered: ViperStore<MapIndex> = ViperStore::recover(dev, layout);
        assert_eq!(recovered.len(), expected_len);
        let mut buf = vec![0u8; layout.value_size];
        assert!(!recovered.get(6, &mut buf));
        assert!(recovered.get(10_000, &mut buf));
        assert_eq!(buf, vec![9u8; layout.value_size]);
        let mut val = vec![0u8; layout.value_size];
        for &k in keys.iter().skip(2).step_by(17) {
            assert!(recovered.get(k, &mut buf), "lost {k}");
            value_for(k, &mut val);
            assert_eq!(buf, val);
        }
    }

    #[test]
    fn recover_reports_clean_scan() {
        let keys: Vec<Key> = (0..100u64).collect();
        let cfg = StoreConfig::test(200);
        let store: ViperStore<MapIndex> = ViperStore::bulk_load(cfg, &keys, value_for);
        let dev = store.into_device();
        let (recovered, report) = ViperStore::<MapIndex>::recover_with_options(
            dev,
            cfg.layout,
            RecoverOptions::default(),
            MapIndex::build,
        );
        assert_eq!(recovered.len(), 100);
        assert_eq!(report.live, 100);
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.duplicates_dropped, 0);
        assert!(report.pages_scanned > 0);
        assert!(report.max_seq >= 100);
    }

    /// Concurrent index built on a lock-wrapped map (reference impl).
    #[derive(Default)]
    pub(crate) struct LockedMap(pub(crate) li_sync::sync::RwLock<BTreeMap<Key, u64>>);

    impl Index for LockedMap {
        fn name(&self) -> &'static str {
            "locked-map"
        }
        fn len(&self) -> usize {
            self.0.read().len()
        }
        fn get(&self, key: Key) -> Option<u64> {
            self.0.read().get(&key).copied()
        }
        fn index_size_bytes(&self) -> usize {
            self.0.read().len() * 48
        }
        fn data_size_bytes(&self) -> usize {
            0
        }
    }

    impl ConcurrentIndex for LockedMap {
        fn get(&self, key: Key) -> Option<u64> {
            self.0.read().get(&key).copied()
        }
        fn insert(&self, key: Key, value: u64) -> Option<u64> {
            self.0.write().insert(key, value)
        }
        fn remove(&self, key: Key) -> Option<u64> {
            self.0.write().remove(&key)
        }
        fn len(&self) -> usize {
            self.0.read().len()
        }
    }

    #[test]
    fn concurrent_store_parallel_puts() {
        let store =
            Arc::new(ConcurrentViperStore::new(StoreConfig::test(20_000), LockedMap::default()));
        let vs = store.heap().layout().value_size;
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let store = Arc::clone(&store);
            handles.push(li_sync::thread::spawn(move || {
                let mut val = vec![0u8; vs];
                for i in 0..1_000u64 {
                    let k = t * 10_000 + i;
                    value_for(k, &mut val);
                    store.put(k, &val).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 8_000);
        let mut buf = vec![0u8; vs];
        let mut val = vec![0u8; vs];
        for t in 0..8u64 {
            for i in (0..1_000u64).step_by(53) {
                let k = t * 10_000 + i;
                assert!(store.get(k, &mut buf));
                value_for(k, &mut val);
                assert_eq!(buf, val);
            }
        }
    }

    #[test]
    fn concurrent_same_key_race() {
        let store =
            Arc::new(ConcurrentViperStore::new(StoreConfig::test(20_000), LockedMap::default()));
        let vs = store.heap().layout().value_size;
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let store = Arc::clone(&store);
            handles.push(li_sync::thread::spawn(move || {
                let val = vec![t as u8; vs];
                for _ in 0..200 {
                    store.put(777, &val).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 1);
        let mut buf = vec![0u8; vs];
        assert!(store.get(777, &mut buf));
        // Value must be exactly one thread's value (no torn mix): all bytes
        // equal.
        assert!(buf.iter().all(|&b| b == buf[0]), "torn value {buf:?}");
    }

    #[test]
    fn shared_writer_store_scans_and_recovers() {
        // The unified store gives the shared-writer flavour everything the
        // single-writer one had: bulk load, ordered scans, recovery.
        let keys: Vec<Key> = (0..500u64).map(|i| i * 4).collect();
        let cfg = StoreConfig::test(1_000);
        let store: ConcurrentViperStore<li_core::shard::Sharded> =
            ConcurrentViperStore::bulk_load_shared(cfg, &keys, value_for, |pairs| {
                li_core::shard::Sharded::build::<MapIndex>(4, pairs)
            });
        assert_eq!(store.len(), 500);
        let vs = cfg.layout.value_size;
        store.put(2, &vec![7u8; vs]).unwrap();
        assert!(store.delete(0).unwrap());
        let mut got = Vec::new();
        store.scan(0, 40, 100, &mut |k, _| got.push(k));
        assert_eq!(got, vec![2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40]);

        let dev = store.into_device();
        let (recovered, report) =
            ConcurrentViperStore::<li_core::shard::Sharded>::recover_shared_with_options(
                dev,
                cfg.layout,
                RecoverOptions::default(),
                |pairs| li_core::shard::Sharded::build::<MapIndex>(4, pairs),
            );
        assert_eq!(recovered.len(), 500);
        assert_eq!(report.quarantined, 0);
        let mut buf = vec![0u8; vs];
        assert!(recovered.get(2, &mut buf));
        assert_eq!(buf, vec![7u8; vs]);
        assert!(!recovered.get(0, &mut buf));
    }

    #[test]
    fn shared_writer_exhaustion_degrades_and_recovers_capacity() {
        let store = ConcurrentViperStore::new(StoreConfig::test(0), LockedMap::default());
        let vs = store.heap().layout().value_size;
        let val = vec![1u8; vs];
        let mut k = 0u64;
        let err = loop {
            match store.put(k, &val) {
                Ok(()) => k += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(err, ViperError::DeviceFull);
        assert!(store.is_read_only());
        assert_eq!(store.put(u64::MAX, &val), Err(ViperError::ReadOnly));
        assert!(store.delete(0).unwrap());
        assert!(!store.is_read_only());
        store.put(u64::MAX, &val).unwrap();
    }

    fn durable_cfg(n: usize, wal_records: u64) -> StoreConfig {
        StoreConfig::test(n).with_durability(DurabilityConfig::sized_for(2 * n, wal_records))
    }

    #[test]
    fn durable_recovery_prefers_checkpoint_and_replays_tail() {
        let keys: Vec<Key> = (0..400u64).map(|i| i * 3).collect();
        let cfg = durable_cfg(1_000, 256);
        let mut store: ViperStore<MapIndex> = ViperStore::bulk_load(cfg, &keys, value_for);
        assert_eq!(store.checkpoint_generation(), 1, "bulk load must checkpoint");
        let vs = cfg.layout.value_size;
        // A logged tail past the bulk-load checkpoint: 10 inserts, 1 delete.
        for k in 0..10u64 {
            store.put(10_000 + k, &vec![7u8; vs]).unwrap();
        }
        assert!(store.delete(3).unwrap());
        assert_eq!(store.wal_lag(), 11);

        let dev = store.into_device();
        let opts = RecoverOptions { durability: cfg.durability, ..RecoverOptions::default() };
        let rec = Recorder::enabled();
        let (recovered, report) = ViperStore::<MapIndex>::recover_with_model(
            dev,
            cfg.layout,
            opts,
            rec.clone(),
            |pairs, _model| MapIndex::build(pairs),
        );
        assert!(report.from_checkpoint, "fast path must engage");
        assert_eq!(report.replayed, 11);
        assert_eq!(report.quarantined, 0);
        assert_eq!(recovered.len(), 400 + 10 - 1);
        let mut buf = vec![0u8; vs];
        assert!(!recovered.get(3, &mut buf), "replayed delete must apply");
        assert!(recovered.get(10_005, &mut buf));
        assert_eq!(buf, vec![7u8; vs]);
        let snap = rec.snapshot();
        assert_eq!(snap.event(Event::LogReplay), 11);
        assert!(
            snap.event(Event::CheckpointWritten) >= 1,
            "recovery must fold the tail into a fresh checkpoint"
        );
        // The fresh checkpoint retired the replayed span.
        assert_eq!(recovered.wal_lag(), 0);
    }

    #[test]
    fn durable_recovery_resumes_writable_store() {
        let keys: Vec<Key> = (0..100u64).collect();
        let cfg = durable_cfg(1_000, 128);
        let store: ViperStore<MapIndex> = ViperStore::bulk_load(cfg, &keys, value_for);
        let vs = cfg.layout.value_size;
        let dev = store.into_device();
        let opts = RecoverOptions { durability: cfg.durability, ..RecoverOptions::default() };
        let (mut recovered, report) = ViperStore::<MapIndex>::recover_with_model(
            dev,
            cfg.layout,
            opts,
            Recorder::disabled(),
            |pairs, _| MapIndex::build(pairs),
        );
        assert!(report.from_checkpoint);
        // The reopened WAL and resumed sequence keep accepting writes, and
        // a second crash + recovery still sees everything.
        for k in 0..50u64 {
            recovered.put(500 + k, &vec![9u8; vs]).unwrap();
        }
        assert!(recovered.delete(0).unwrap());
        let dev = recovered.into_device();
        let (again, report2) = ViperStore::<MapIndex>::recover_with_model(
            dev,
            cfg.layout,
            opts,
            Recorder::disabled(),
            |pairs, _| MapIndex::build(pairs),
        );
        assert!(report2.from_checkpoint);
        assert_eq!(again.len(), 100 + 50 - 1);
        let mut buf = vec![0u8; vs];
        assert!(!again.get(0, &mut buf));
        assert!(again.get(549, &mut buf));
    }

    #[test]
    fn wal_full_forces_inline_checkpoint() {
        // A ring of 8 records cannot hold 50 puts: the store must absorb
        // the pressure with inline checkpoints instead of surfacing
        // WalFull.
        let cfg = durable_cfg(1_000, 8);
        let mut store = ViperStore::<MapIndex>::new(cfg, MapIndex::default());
        store.set_recorder(Recorder::enabled());
        let vs = cfg.layout.value_size;
        for k in 0..50u64 {
            store.put(k, &vec![1u8; vs]).unwrap();
        }
        assert!(store.checkpoint_generation() >= 5, "ring of 8 must have checkpointed repeatedly");
        assert!(store.wal_lag() <= 8);
        let snap = store.recorder().snapshot();
        assert_eq!(snap.event(Event::WalAppend), 50);
        assert!(snap.event(Event::CheckpointWritten) >= 5);
    }

    /// What one `checkpoint_now` did to the device.
    fn checkpoint_traffic(store: &mut ViperStore<MapIndex>) -> (u64, u64) {
        let before = store.heap().device().stats_snapshot();
        assert!(store.checkpoint_now().unwrap());
        let after = store.heap().device().stats_snapshot();
        (after.bytes_read - before.bytes_read, after.bytes_written - before.bytes_written)
    }

    #[test]
    fn steady_state_checkpoint_reads_no_heap_page_at_any_store_size() {
        let mut traffic = Vec::new();
        for n in [10_000usize, 100_000] {
            let keys: Vec<Key> = (0..n as u64).map(|i| i * 2).collect();
            let mut store: ViperStore<MapIndex> =
                ViperStore::bulk_load(durable_cfg(n, 1_024), &keys, value_for);
            let vs = store.heap().layout().value_size;
            for k in 0..50u64 {
                store.put(k * 2 + 1, &vec![3u8; vs]).unwrap(); // 50 inserts
                store.put(k * 2, &vec![4u8; vs]).unwrap(); // 50 in-place updates
            }
            for k in 0..10u64 {
                assert!(store.delete(k * 2).unwrap());
            }
            let (read, written) = checkpoint_traffic(&mut store);
            // One segment of the 60 changed keys plus one manifest went
            // out; nothing came in, heap page or otherwise.
            assert_eq!(written, (40 + 60 * 16 + checkpoint::MANIFEST_SIZE) as u64, "{n} keys");
            assert!(read <= written, "{n} keys: a delta checkpoint read {read} device bytes");
            traffic.push((read, written));
            // And with nothing changed, a checkpoint is an empty segment.
            assert_eq!(checkpoint_traffic(&mut store).1, (40 + checkpoint::MANIFEST_SIZE) as u64);
        }
        assert_eq!(traffic[0], traffic[1], "checkpoint cost must not follow the live-key count");
    }

    #[test]
    fn full_slot_folds_into_the_other_and_restart_matches() {
        // Slots with room for the base of 64 keys and little else: the
        // inserts below outgrow them again and again.
        let dcfg =
            DurabilityConfig { wal_records: 256, checkpoint_bytes: 1_536, checkpoint_lag: 64 };
        let cfg = StoreConfig::test(1_000).with_durability(dcfg);
        let keys: Vec<Key> = (0..32u64).collect();
        let mut store: ViperStore<MapIndex> = ViperStore::bulk_load(cfg, &keys, value_for);
        let vs = cfg.layout.value_size;
        let newest = |s: &ViperStore<MapIndex>| s.durability.as_ref().unwrap().ckpt.lock().newest;
        let (mut folds, mut deltas) = (0, 0);
        for round in 0..40u64 {
            for k in 0..4u64 {
                let key = 32 + (round * 4 + k) % 32;
                if round % 3 == 2 {
                    store.delete(key).unwrap();
                } else {
                    store.put(key, &vec![round as u8; vs]).unwrap();
                }
            }
            let before = newest(&store);
            assert!(store.checkpoint_now().unwrap());
            let after = newest(&store);
            assert_eq!(after.generation, before.generation + 1);
            if after.slot == before.slot {
                deltas += 1;
                assert_eq!(after.base_len, before.base_len);
                assert!(after.delta_len > before.delta_len);
            } else {
                folds += 1;
                assert_eq!(after.delta_len, 0);
            }
        }
        assert!(folds >= 3 && deltas >= 3, "{folds} folds, {deltas} deltas");
        let (expect_len, dev) = (store.len(), store.into_device());
        let opts = RecoverOptions { durability: cfg.durability, ..RecoverOptions::default() };
        let (recovered, report) =
            ViperStore::<MapIndex>::recover_with_options(dev, cfg.layout, opts, MapIndex::build);
        assert!(report.from_checkpoint);
        assert_eq!((report.replayed, report.quarantined), (0, 0));
        assert_eq!(recovered.len(), expect_len);
    }

    #[test]
    fn durable_rescan_fallback_reaches_same_state() {
        let keys: Vec<Key> = (0..300u64).map(|i| i * 2).collect();
        let cfg = durable_cfg(1_000, 256);
        let mut store: ViperStore<MapIndex> = ViperStore::bulk_load(cfg, &keys, value_for);
        let vs = cfg.layout.value_size;
        store.put(9_999, &vec![5u8; vs]).unwrap();
        assert!(store.delete(4).unwrap());
        let dev = store.into_device();
        let opts = RecoverOptions {
            durability: cfg.durability,
            use_checkpoint: false,
            ..RecoverOptions::default()
        };
        let (recovered, report) = ViperStore::<MapIndex>::recover_with_model(
            dev,
            cfg.layout,
            opts,
            Recorder::disabled(),
            |pairs, model| {
                assert!(model.is_none(), "rescan path carries no model");
                MapIndex::build(pairs)
            },
        );
        assert!(!report.from_checkpoint);
        assert_eq!(report.replayed, 0);
        assert_eq!(recovered.len(), 300);
        let mut buf = vec![0u8; vs];
        assert!(!recovered.get(4, &mut buf));
        assert!(recovered.get(9_999, &mut buf));
        // The forced rescan re-checkpointed *above* the stale generations
        // so the next recovery trusts the fresh snapshot.
        assert!(recovered.checkpoint_generation() >= 2);
    }

    /// A map index that saves a model blob, for exercising the
    /// checkpointed-model round trip without a learned index.
    struct ModelMap {
        inner: MapIndex,
        restored_from: Option<Vec<u8>>,
    }

    impl Index for ModelMap {
        fn name(&self) -> &'static str {
            "model-map"
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn get(&self, key: Key) -> Option<u64> {
            Index::get(&self.inner, key)
        }
        fn index_size_bytes(&self) -> usize {
            self.inner.index_size_bytes()
        }
        fn data_size_bytes(&self) -> usize {
            0
        }
        fn model_save(&self) -> Option<Vec<u8>> {
            Some(vec![0xAB; 16])
        }
    }

    impl UpdatableIndex for ModelMap {
        fn insert(&mut self, key: Key, value: u64) -> Option<u64> {
            self.inner.insert(key, value)
        }
        fn remove(&mut self, key: Key) -> Option<u64> {
            self.inner.remove(key)
        }
    }

    #[test]
    fn checkpoint_round_trips_index_model() {
        let keys: Vec<Key> = (0..100u64).collect();
        let cfg = durable_cfg(1_000, 64);
        let store = ViperStore::<ModelMap>::bulk_load_with(cfg, &keys, value_for, |pairs| {
            ModelMap { inner: MapIndex::build(pairs), restored_from: None }
        });
        let dev = store.into_device();
        let opts = RecoverOptions { durability: cfg.durability, ..RecoverOptions::default() };
        let (recovered, report) = ViperStore::<ModelMap>::recover_with_model(
            dev,
            cfg.layout,
            opts,
            Recorder::disabled(),
            |pairs, model| ModelMap {
                inner: MapIndex::build(pairs),
                restored_from: model.map(<[u8]>::to_vec),
            },
        );
        assert!(report.from_checkpoint);
        assert_eq!(
            recovered.index().restored_from.as_deref(),
            Some(&[0xABu8; 16][..]),
            "model bytes must round-trip through the checkpoint"
        );
    }

    #[test]
    fn shared_writer_durable_puts_and_recovery() {
        let cfg = durable_cfg(10_000, 4_096);
        let store = Arc::new(ConcurrentViperStore::new(cfg, LockedMap::default()));
        let vs = cfg.layout.value_size;
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let store = Arc::clone(&store);
            handles.push(li_sync::thread::spawn(move || {
                let mut val = vec![0u8; vs];
                for i in 0..500u64 {
                    let k = t * 10_000 + i;
                    value_for(k, &mut val);
                    store.put(k, &val).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 2_000);
        store.checkpoint_now().unwrap();
        assert_eq!(store.wal_lag(), 0);
        store.put(99_999, &vec![7u8; vs]).unwrap();

        let store = Arc::into_inner(store).unwrap();
        let dev = store.into_device();
        let opts = RecoverOptions { durability: cfg.durability, ..RecoverOptions::default() };
        let (recovered, report) = ConcurrentViperStore::<LockedMap>::recover_shared_with_model(
            dev,
            cfg.layout,
            opts,
            Recorder::disabled(),
            |pairs, _| LockedMap(li_sync::sync::RwLock::new(pairs.iter().copied().collect())),
        );
        assert!(report.from_checkpoint);
        assert_eq!(report.replayed, 1, "only the post-checkpoint put is in the tail");
        assert_eq!(recovered.len(), 2_001);
        let mut buf = vec![0u8; vs];
        assert!(recovered.get(99_999, &mut buf));
        assert_eq!(buf, vec![7u8; vs]);
    }

    #[test]
    fn put_retries_through_transient_fault_window() {
        use li_core::telemetry::Event;
        use li_nvm::{Fault, FaultPlan};

        let cfg = StoreConfig::test(1_000);
        // A device-full window covering the first few device ops: without
        // retry the very first put fails and flips the store read-only.
        let plan = FaultPlan::none().with(Fault::FullWindow { from: 0, until: 3 });
        let dev = Arc::new(NvmDevice::with_faults(cfg.nvm, &plan));
        let mut store =
            ViperStore::<MapIndex>::recover_with(dev, cfg.layout, |_| MapIndex::default());
        store.set_recorder(Recorder::enabled());
        store.set_retry_policy(RetryPolicy::standard(42));
        let vs = store.heap().layout().value_size;
        // Each backoff ticks a benign fence, so the window expires while
        // the put is waiting and a later attempt succeeds.
        store.put(9, &vec![9u8; vs]).unwrap();
        assert!(!store.is_read_only(), "retried put must not degrade the store");
        let snap = store.recorder().snapshot();
        assert!(snap.event(Event::BackoffWait) >= 1, "put must have backed off");
        assert!(snap.op(OpKind::RetryAttempts).count >= 1);
        let mut buf = vec![0u8; vs];
        assert!(store.get(9, &mut buf));
        assert_eq!(buf, vec![9u8; vs]);
    }

    #[test]
    fn exhausted_retries_still_degrade_to_read_only() {
        use li_nvm::{Fault, FaultPlan};

        let cfg = StoreConfig::test(1_000);
        // Window far wider than the retry budget can outwait.
        let plan = FaultPlan::none().with(Fault::FullWindow { from: 0, until: 10_000 });
        let dev = Arc::new(NvmDevice::with_faults(cfg.nvm, &plan));
        let mut store =
            ViperStore::<MapIndex>::recover_with(dev, cfg.layout, |_| MapIndex::default());
        store.set_retry_policy(RetryPolicy::standard(7));
        let vs = store.heap().layout().value_size;
        assert_eq!(store.put(1, &vec![1u8; vs]), Err(ViperError::DeviceFull));
        assert!(store.is_read_only(), "budget exhausted: degrade, don't spin forever");
    }

    #[test]
    fn open_breaker_sheds_puts_but_not_deletes() {
        use crate::maintenance::{BreakerConfig, CircuitBreaker};
        use li_core::telemetry::Event;

        let mut store = ConcurrentViperStore::new(StoreConfig::test(1_000), LockedMap::default());
        let vs = store.heap().layout().value_size;
        store.put(5, &vec![5u8; vs]).unwrap();

        let rec = Recorder::enabled();
        let breaker = Arc::new(CircuitBreaker::new(
            BreakerConfig { depth_open: 1, depth_close: 0, sustain_ticks: 1, p999_open_ns: 0 },
            rec.clone(),
        ));
        store.set_circuit_breaker(Arc::clone(&breaker));
        assert!(breaker.observe(8, 0), "one overloaded tick must open at sustain_ticks=1");
        assert_eq!(store.put(6, &vec![6u8; vs]), Err(ViperError::Backpressure));
        // Deletes are the pressure-relief valve: never shed.
        assert!(store.delete(5).unwrap());
        breaker.observe(0, 0);
        assert!(!breaker.is_open(), "drained queue must close the breaker");
        store.put(6, &vec![6u8; vs]).unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.event(Event::CircuitOpen), 1);
        assert_eq!(snap.event(Event::CircuitClose), 1);
    }

    #[test]
    fn admission_limit_bounds_in_flight_puts() {
        let mut store = ConcurrentViperStore::new(StoreConfig::test(20_000), LockedMap::default());
        store.set_admission_limit(2, Duration::from_millis(50));
        let store = Arc::new(store);
        let vs = store.heap().layout().value_size;
        let mut handles = Vec::new();
        let shed = Arc::new(li_sync::sync::atomic::AtomicUsize::new(0));
        for t in 0..8u64 {
            let store = Arc::clone(&store);
            let shed = Arc::clone(&shed);
            handles.push(li_sync::thread::spawn(move || {
                let val = vec![t as u8; vs];
                for i in 0..500u64 {
                    match store.put(t * 1_000 + i, &val) {
                        Ok(()) => {}
                        Err(ViperError::Backpressure) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every put either landed or was shed with Backpressure — nothing
        // else, and the store stays consistent.
        let shed = shed.load(Ordering::Relaxed);
        assert_eq!(store.len() + shed, 4_000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    use crate::store::tests::value_for_test as value_for;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn store_matches_hashmap(
            ops in proptest::collection::vec((0u64..300, 0u8..3), 1..250),
        ) {
            let mut store =
                ViperStore::<crate::store::tests::MapIndex>::new(
                    StoreConfig::test(1_000),
                    crate::store::tests::MapIndex::default(),
                );
            let vs = store.heap().layout().value_size;
            let mut oracle: HashMap<u64, u8> = HashMap::new();
            let mut buf = vec![0u8; vs];
            for &(k, op) in &ops {
                match op {
                    0 => {
                        let b = (k % 251) as u8;
                        prop_assert!(store.put(k, &vec![b; vs]).is_ok());
                        oracle.insert(k, b);
                    }
                    1 => {
                        let got = store.get(k, &mut buf);
                        match oracle.get(&k) {
                            Some(&b) => {
                                prop_assert!(got);
                                prop_assert!(buf.iter().all(|&x| x == b));
                            }
                            None => prop_assert!(!got),
                        }
                    }
                    _ => {
                        let got = store.delete(k).unwrap();
                        prop_assert_eq!(got, oracle.remove(&k).is_some());
                    }
                }
            }
            prop_assert_eq!(store.len(), oracle.len());
            let _ = value_for;
        }
    }

    use crate::store::tests::{LockedMap, MapIndex};
    use std::collections::BTreeMap;

    /// The two write models behind one face, for properties that must
    /// hold for both.
    enum Either {
        Single(ViperStore<MapIndex>),
        Shared(ConcurrentViperStore<LockedMap>),
    }

    fn locked_map(pairs: &[KeyValue]) -> LockedMap {
        LockedMap(li_sync::sync::RwLock::new(pairs.iter().copied().collect()))
    }

    /// `$body` with `$s` bound to whichever store `$either` holds.
    macro_rules! either {
        ($either:expr, $s:ident => $body:expr) => {
            match $either {
                Either::Single($s) => $body,
                Either::Shared($s) => $body,
            }
        };
    }

    impl Either {
        fn put(&mut self, key: Key, value: &[u8]) -> Result<(), ViperError> {
            either!(self, s => s.put(key, value))
        }
        fn delete(&mut self, key: Key) -> Result<bool, ViperError> {
            either!(self, s => s.delete(key))
        }
        fn checkpoint_now(&mut self) -> Result<bool, ViperError> {
            either!(self, s => s.checkpoint_now())
        }
        fn get(&self, key: Key, buf: &mut [u8]) -> bool {
            either!(self, s => s.get(key, buf))
        }
        fn len(&self) -> usize {
            either!(self, s => s.len())
        }
        /// Clean shutdown and restart from the device.
        fn restart(self, layout: RecordLayout, opts: RecoverOptions) -> (Self, RecoveryReport) {
            match self {
                Either::Single(s) => {
                    let dev = s.into_device();
                    let (s, report) =
                        ViperStore::recover_with_options(dev, layout, opts, MapIndex::build);
                    (Either::Single(s), report)
                }
                Either::Shared(s) => {
                    let dev = s.into_device();
                    let (s, report) = ConcurrentViperStore::recover_shared_with_options(
                        dev, layout, opts, locked_map,
                    );
                    (Either::Shared(s), report)
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The checkpoint image is the index image: whatever mix of
        /// inserts, updates (in place or crash-safe) and deletes ran, and
        /// however many deltas and folds the checkpoints between them
        /// took, a clean restart after a last checkpoint needs no replay,
        /// quarantines nothing, and equals the oracle.
        #[test]
        fn restart_after_checkpoint_equals_oracle(
            ops in proptest::collection::vec((0u64..96, 0u8..4), 1..400),
            every in 1usize..24,
            shared in proptest::bool::ANY,
            crash_safe in proptest::bool::ANY,
        ) {
            // The base of all 96 keys fits a slot, a long chain does not.
            let dcfg =
                DurabilityConfig { wal_records: 48, checkpoint_bytes: 2_048, checkpoint_lag: 16 };
            let cfg = StoreConfig::test(1_000)
                .with_crash_safe_updates(crash_safe)
                .with_durability(dcfg);
            let mut store = if shared {
                Either::Shared(ConcurrentViperStore::new(cfg, LockedMap::default()))
            } else {
                Either::Single(ViperStore::<MapIndex>::new(cfg, MapIndex::default()))
            };
            let vs = cfg.layout.value_size;
            let mut oracle: BTreeMap<u64, u8> = BTreeMap::new();
            for (i, &(k, op)) in ops.iter().enumerate() {
                if op == 0 {
                    prop_assert_eq!(store.delete(k).unwrap(), oracle.remove(&k).is_some());
                } else {
                    let b = (i % 251) as u8;
                    prop_assert!(store.put(k, &vec![b; vs]).is_ok());
                    oracle.insert(k, b);
                }
                if i % every == 0 {
                    prop_assert!(store.checkpoint_now().unwrap());
                }
            }
            prop_assert!(store.checkpoint_now().unwrap());
            let opts = RecoverOptions { durability: cfg.durability, ..RecoverOptions::default() };
            let (restarted, report) = store.restart(cfg.layout, opts);
            prop_assert!(report.from_checkpoint);
            prop_assert_eq!((report.replayed, report.quarantined), (0, 0));
            prop_assert_eq!(restarted.len(), oracle.len());
            let mut buf = vec![0u8; vs];
            for (&k, &b) in &oracle {
                prop_assert!(restarted.get(k, &mut buf), "key {} lost", k);
                prop_assert!(buf.iter().all(|&x| x == b), "key {} came back stale", k);
            }
        }
    }
}
