//! The Viper store: a volatile DRAM index over persistent record pages,
//! generic over its *write model*.
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
//!   stay lock-free at this layer. Every writer moves the index before it
//!   retires a slot, so a read that finds its slot recycled probes the
//!   index once more and finds the key's next slot, or none.
//!
//! A store is its index plus an `Engine` — everything else. Every
//! operation body is an `Engine` method written once, reaching the index
//! through a `WriteAccess` (see `write.rs`, which also holds the
//! put/delete path); the per-model `impl` blocks at the bottom of this
//! file only pick the access and the receiver (`&mut self` / `&self`).
//! This file keeps the struct, reads and accessors, checkpoints,
//! construction (fresh, bulk load, recovery — the device-side half of
//! which is `recovery.rs`) and the maintenance pass.

use li_sync::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use li_core::telemetry::{Event, OpKind, Recorder};
use li_core::traits::{BulkBuildIndex, ConcurrentIndex, Index, OrderedIndex, UpdatableIndex};
use li_core::{Key, KeyValue};
use li_nvm::NvmDevice;

use crate::checkpoint::{self, CheckpointBlob, Durability, Geometry, Manifest, TOMBSTONE};
use crate::config::StoreConfig;
use crate::error::ViperError;
use crate::heap::{RecordHeap, RecoverOptions, RecoveryReport};
use crate::layout::RecordLayout;
use crate::maintenance::MaintenancePass;
use crate::recovery::{recover_state, RecoveredState};
use crate::retry::RetryPolicy;
use crate::wal::Wal;
use crate::write::{Excl, KeyLocks, Shared, SharedWriter, SingleWriter, WriteAccess, WriteModel};

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

/// Everything of a store but its DRAM index: the record heap, the
/// degradation flag, the retry policy, durability, and the write
/// model's key locks. Operation bodies are written once against it and
/// take the index as a parameter — a `WriteAccess` where they mutate it,
/// a plain `&impl Index` where they only read — which is what lets the
/// single-writer flavour hold `&mut index` beside `&engine`.
pub(crate) struct Engine<M: WriteModel> {
    pub(crate) heap: RecordHeap,
    pub(crate) key_locks: M::KeyLocks,
    pub(crate) crash_safe_updates: bool,
    pub(crate) read_only: AtomicBool,
    pub(crate) recorder: Recorder,
    /// Bounded retry of transient put/delete faults (disabled by default).
    pub(crate) retry: RetryPolicy,
    /// WAL + checkpoint state when the store was built with
    /// [`StoreConfig::durability`]; `None` keeps every path log-free.
    pub(crate) durability: Option<Durability>,
}

/// Viper: fixed-size record pages on (simulated) NVM plus a volatile,
/// pluggable DRAM index mapping each key to its record offset. Generic
/// over the index `I` and the [`WriteModel`] `M` (see module docs).
pub struct ViperStore<I, M: WriteModel = SingleWriter> {
    index: I,
    engine: Engine<M>,
}

/// The shared-writer store flavour. With the write model elided
/// (`ViperStore::bulk_load_with(..)`) a constructor call leaves `M` to
/// inference; this alias is how shared-writer call sites pin it.
pub type ConcurrentViperStore<I> = ViperStore<I, SharedWriter>;

impl<M: WriteModel> Engine<M> {
    fn with_parts(
        heap: RecordHeap,
        crash_safe_updates: bool,
        durability: Option<Durability>,
    ) -> Self {
        Engine {
            heap,
            key_locks: M::KeyLocks::default(),
            crash_safe_updates,
            read_only: AtomicBool::new(false),
            recorder: Recorder::disabled(),
            retry: RetryPolicy::disabled(),
            durability,
        }
    }

    /// Builds the heap — and, when configured, the WAL and checkpoint
    /// machinery — over a fresh device. `Err(DeviceFull)` means the device
    /// cannot fit the durability region plus at least one heap page.
    fn create(config: &StoreConfig) -> Result<Self, ViperError> {
        let dev = Arc::new(NvmDevice::new(config.nvm));
        let Some(dcfg) = config.durability else {
            let heap = RecordHeap::new(dev, config.layout);
            return Ok(Self::with_parts(heap, config.crash_safe_updates, None));
        };
        let geom = Geometry::compute(dev.capacity(), config.layout.page_size, &dcfg)
            .ok_or(ViperError::DeviceFull)?;
        let heap = RecordHeap::with_capacity(Arc::clone(&dev), config.layout, geom.heap_capacity);
        let wal = Wal::new(dev, geom.wal_base, geom.wal_records, 1);
        // A fresh device: the empty image plus every change from here on
        // is the index.
        let durability = Durability::new(wal, geom, dcfg, Manifest::NONE, true);
        Ok(Self::with_parts(heap, config.crash_safe_updates, Some(durability)))
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

    /// Writes a whole base image from a caller-provided entry table
    /// (assumed complete and key-sorted: bulk load's pairs, recovery's
    /// validated live set, a fold's merged image). Callers must guarantee
    /// writer quiescence.
    fn checkpoint_base(&self, d: &Durability, entries: Vec<(u64, u64)>) -> Result<(), ViperError> {
        let blob = CheckpointBlob { entries, ..self.image_head(d) };
        let newest = d.ckpt.lock().newest;
        let manifest =
            checkpoint::write_base(self.heap.device(), &self.recorder, &d.geom, &newest, &blob)?;
        d.checkpoint_named(manifest);
        Ok(())
    }

    /// Writes a checkpoint (no-op without durability, returning `false`),
    /// excluding writers for the duration: every key stripe under the
    /// shared-writer model — so callers must not hold one — and nothing
    /// under the single-writer model, whose `&mut self` entry points are
    /// the exclusion.
    ///
    /// Its cost follows what changed since the previous one: the changed
    /// keys, resolved through the index readers see, go out as one delta
    /// segment after the image the newest manifest names — no heap page is
    /// read. Only when that segment does not fit the slot's remaining
    /// bytes is the image folded: base ⊕ deltas are read back, the changes
    /// merged in, and the result written as a new base in the other slot.
    pub(crate) fn checkpoint(&self, index: &impl Index) -> Result<bool, ViperError> {
        let _quiesce = self.key_locks.quiesce();
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
            keys.into_iter().map(|k| (k, index.get(k).unwrap_or(TOMBSTONE))).collect();
        let dev = self.heap.device();
        let delta = CheckpointBlob { entries: changes, ..self.image_head(d) };
        if extendable {
            let named = checkpoint::append_delta(dev, &self.recorder, &d.geom, &newest, &delta)?;
            if let Some(manifest) = named {
                d.checkpoint_named(manifest);
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

    /// Graceful shutdown: a final checkpoint, then a fence.
    fn drain(&self, index: &impl Index) -> Result<bool, ViperError> {
        let wrote = self.checkpoint(index)?;
        let _ = self.heap.device().try_fence();
        Ok(wrote)
    }

    /// Resolves every quarantined slot against the index, reclaims it, and
    /// emits one [`Event::RepairedSlot`] per slot resolved — never more
    /// than the `QuarantineSlot` events recovery emitted. Each probe is
    /// serialised with same-key writers. Slots whose durable retirement
    /// faults stay quarantined for the next pass.
    fn repair_quarantined(&self, index: &impl Index) -> RepairOutcome {
        let mut out = RepairOutcome::default();
        for off in self.heap.quarantined_slots() {
            // The slot failed its checksum, so the key bytes are only a
            // hint — but a wrong key cannot resolve to this offset (the
            // index never references quarantined slots), so the worst a
            // garbage key does is misfile "superseded" as "lost".
            let key = self.heap.read_key(off);
            let superseded = {
                let _stripe = self.key_locks.lock(key);
                index.get(key).is_some_and(|cur| cur != off)
            };
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

    /// See [`RecordHeap::sweep_stale`]; each candidate's probe is
    /// serialised with same-key writers.
    fn sweep_stale_slots(&self, index: &impl Index) -> usize {
        self.heap.sweep_stale(|key, off| {
            let _stripe = self.key_locks.lock(key);
            index.get(key) == Some(off)
        })
    }

    /// See [`ViperStore::try_lift_read_only`].
    fn try_lift_read_only(&self) -> bool {
        if self.read_only.load(Ordering::Acquire) && self.heap.has_free_capacity() {
            self.read_only.store(false, Ordering::Release);
            return true;
        }
        false
    }

    /// One full self-healing pass: drain up to `retrain_budget` deferred
    /// leaf retrains, let a sharded router re-cut itself (after drains,
    /// before space work: adaptation may rebuild shards, and a freshly
    /// split or merged shard should not immediately re-park retrains this
    /// same pass), retire stale slots, repair quarantined slots, write a
    /// checkpoint if the WAL lag has reached
    /// [`crate::DurabilityConfig::checkpoint_lag`] (a faulted write leaves
    /// the lag for the next pass), tick the device clock (so injected fault
    /// windows pass even with the foreground idle), and lift read-only if
    /// space came back. Timed as one [`OpKind::Maintenance`] op.
    fn run_maintenance(
        &self,
        index: &mut impl WriteAccess,
        retrain_budget: usize,
    ) -> MaintenancePass {
        let t = self.recorder.start();
        let retrains_run = index.run_pending_retrains(retrain_budget);
        let adaptations = index.run_adaptation();
        let index = index.index();
        let stale_retired = self.sweep_stale_slots(index);
        let repair = self.repair_quarantined(index);
        let checkpoint_written = match &self.durability {
            Some(d) if d.wal.lag() >= d.config.checkpoint_lag => {
                self.checkpoint(index).unwrap_or(false)
            }
            _ => false,
        };
        let _ = self.heap.device().try_fence();
        let lifted_read_only = self.try_lift_read_only();
        self.recorder.finish(OpKind::Maintenance, t);
        MaintenancePass {
            retrains_run,
            stale_retired,
            repair,
            lifted_read_only,
            checkpoint_written,
            adaptations,
        }
    }
}

impl<I: Index, M: WriteModel> ViperStore<I, M> {
    /// Creates an empty store with the given index.
    ///
    /// Panics if [`StoreConfig::durability`] is set but the device cannot
    /// fit the durability region — a sizing error of the caller (the
    /// [`StoreConfig::with_durability`] builder grows the device to fit).
    pub fn new(config: StoreConfig, index: I) -> Self {
        let engine = Engine::create(&config).expect("device too small for the durability region");
        ViperStore { index, engine }
    }

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
        let mut engine = Engine::create(&config)?;
        let pairs = engine.heap.bulk_append(keys, value_of)?;
        // Keys were ascending, so pairs are ready for bulk build.
        let store = ViperStore { index: build(&pairs), engine };
        // Bulk-loaded records are not WAL-logged; the initial checkpoint
        // is what makes them reachable by the fast recovery path. (A crash
        // before it completes simply falls back to the page rescan.)
        if let Some(d) = &store.engine.durability {
            store.engine.checkpoint_base(d, pairs)?;
        }
        Ok(store)
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
        Self::recover_recorded(dev, layout, opts, Recorder::disabled(), build)
    }

    /// The one recovery implementation: [`ViperStore::recover_with_options`]
    /// with telemetry. `build` makes the index from the recovered live
    /// pairs, on either path — a checkpoint carries no index model.
    /// (`RecoverOptions` stays a plain `Copy` options struct; the recorder
    /// travels as a parameter.)
    ///
    /// The recorder times the whole rebuild as one [`OpKind::Recovery`]
    /// op, emits one [`Event::QuarantineSlot`] per record quarantined and
    /// one [`Event::LogReplay`] per WAL record applied over a checkpoint
    /// (the causal counters the crash-torture harness asserts against),
    /// and stays attached to the rebuilt store.
    ///
    /// With durability in `opts`, recovery prefers the newest verified
    /// checkpoint plus the WAL tail past its watermark; the full page
    /// rescan remains the fallback (no usable checkpoint, or forced via
    /// [`RecoverOptions::use_checkpoint`]). A durable recovery ends by
    /// writing a *fresh* checkpoint so the next crash starts from here.
    pub fn recover_recorded(
        dev: Arc<NvmDevice>,
        layout: RecordLayout,
        opts: RecoverOptions,
        recorder: Recorder,
        build: impl FnOnce(&[KeyValue]) -> I,
    ) -> (Self, RecoveryReport) {
        let t = recorder.start();
        let RecoveredState { heap, live, report, resume } = recover_state(&dev, layout, opts);
        let index = build(&live);
        recorder.event_n(Event::LogReplay, report.replayed as u64);
        recorder.event_n(Event::QuarantineSlot, report.quarantined as u64);
        let durability = opts.durability.zip(resume).map(|(dcfg, r)| {
            let wal =
                Wal::resume(dev, r.geom.wal_base, r.geom.wal_records, r.start_lsn, r.next_lsn);
            Durability::new(wal, r.geom, dcfg, r.newest, false)
        });
        let mut store = ViperStore { index, engine: Engine::with_parts(heap, false, durability) };
        store.set_recorder(recorder.clone());
        // Fold what was just recovered into a fresh base image: the next
        // crash then recovers from here instead of re-replaying this tail
        // (or re-paying this rescan), and the retired WAL span reopens for
        // appends. A faulted checkpoint write is survivable — the store
        // works, the lag just stays — so it must not fail recovery.
        if let Some(d) = &store.engine.durability {
            let _ = store.engine.checkpoint_base(d, live);
        }
        recorder.finish(OpKind::Recovery, t);
        (store, report)
    }

    /// Attaches a telemetry recorder to the store *and* its DRAM index, so
    /// store-level op latencies (`Put`/`Delete`/`Get`/`Scan`/`Recovery`)
    /// and index-level structural events land in one metrics sink.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.index.set_recorder(recorder.clone());
        self.engine.heap.set_recorder(recorder.clone());
        if let Some(d) = &mut self.engine.durability {
            d.wal.set_recorder(recorder.clone());
        }
        self.engine.recorder = recorder;
    }

    /// The telemetry recorder attached via [`ViperStore::set_recorder`]
    /// (disabled by default — snapshots of a disabled recorder are empty).
    pub fn recorder(&self) -> &Recorder {
        &self.engine.recorder
    }

    /// Point lookup: index probe + one NVM record read. `value_buf` means
    /// something only when this returns `true`, and never holds another
    /// key's bytes: a slot recycled under a shared-writer read sends it
    /// back to the index (see `read_record`).
    pub fn get(&self, key: Key, value_buf: &mut [u8]) -> bool {
        let t = self.engine.recorder.start_sampled();
        let found =
            self.index.get(key).is_some_and(|offset| self.read_record(key, offset, value_buf));
        self.engine.recorder.finish(OpKind::Get, t);
        found
    }

    /// Reads `key`'s record from the slot at `offset`, where the index sent
    /// the caller, into `value_buf`; returns whether it was there.
    ///
    /// The slot's header arrives with its value, and what it holds is
    /// checked against `key` ([`SlotHeader::holds`]). Under a shared writer
    /// a delete or an out-of-place update can recycle the slot between
    /// probe and read — but every writer moves the index before it retires
    /// a slot, so by then the index names the key's next slot, or none, and
    /// one more probe finds it with no waiting. The next slot can be the
    /// same one again (the free list hands a retired slot straight back to
    /// the key's next update), so only a slot that fails twice with the
    /// same header is taken as another key's record for good — a broken
    /// index entry — and the answer is "not found".
    ///
    /// [`SlotHeader::holds`]: crate::layout::SlotHeader::holds
    fn read_record(&self, key: Key, mut offset: u64, value_buf: &mut [u8]) -> bool {
        let mut failed = None;
        loop {
            let header = self.engine.heap.read(offset, value_buf);
            if header.holds(key) {
                return true;
            }
            debug_assert!(M::SHARED, "index pointed at wrong record");
            if !M::SHARED || failed == Some((offset, header)) {
                return false;
            }
            failed = Some((offset, header));
            let Some(next) = self.index.get(key) else { return false };
            offset = next;
        }
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
        self.engine.read_only.load(Ordering::Acquire)
    }

    /// The DRAM index (for stats like size/depth).
    pub fn index(&self) -> &I {
        &self.index
    }

    /// The persistent record heap.
    pub fn heap(&self) -> &RecordHeap {
        &self.engine.heap
    }

    /// Tears the store down to its device (crash-simulation tests).
    pub fn into_device(self) -> Arc<NvmDevice> {
        self.engine.heap.into_device()
    }

    /// Switches update strategy after construction (recovery paths have no
    /// [`StoreConfig`] to carry the flag).
    pub fn set_crash_safe_updates(&mut self, on: bool) {
        self.engine.crash_safe_updates = on;
    }

    /// Enables bounded retry with seeded backoff for transient put/delete
    /// faults. Disabled by default (the pre-resilience behaviour).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.engine.retry = policy;
    }

    /// The active transient-fault retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.engine.retry
    }

    /// Lifts read-only degradation if the heap can currently make
    /// progress again (recycled slots, page headroom, and no injected
    /// device-full window). Returns whether the store left read-only
    /// mode. Deletes lift the mode inline; this is the maintenance
    /// worker's path out when space came back some other way (quarantine
    /// repair, a fault window expiring).
    pub fn try_lift_read_only(&self) -> bool {
        self.engine.try_lift_read_only()
    }

    /// Online repair of recovery's quarantined slots: each is resolved
    /// against the index (superseded elsewhere, or its payload reported
    /// lost) and reclaimed into circulation.
    pub fn repair_quarantined(&self) -> RepairOutcome {
        self.engine.repair_quarantined(&self.index)
    }

    /// Retires slots parked by a transiently failed out-of-place update
    /// (see [`RecordHeap::sweep_stale`]). Returns the number retired.
    pub fn sweep_stale_slots(&self) -> usize {
        self.engine.sweep_stale_slots(&self.index)
    }

    /// WAL records appended since the last checkpoint (0 without
    /// durability). The maintenance worker writes a checkpoint once this
    /// reaches [`crate::DurabilityConfig::checkpoint_lag`].
    pub fn wal_lag(&self) -> u64 {
        self.engine.durability.as_ref().map_or(0, |d| d.wal.lag())
    }

    /// Generation of the newest checkpoint this store wrote (0 = none).
    pub fn checkpoint_generation(&self) -> u64 {
        self.engine.durability.as_ref().map_or(0, |d| d.ckpt.lock().newest.generation)
    }
}

impl<I: Index + BulkBuildIndex, M: WriteModel> ViperStore<I, M> {
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
        let t = self.engine.recorder.start();
        let mut pairs = Vec::new();
        self.index.range(lo, hi, &mut pairs);
        let mut buf = vec![0u8; self.engine.heap.layout().value_size];
        let mut n = 0;
        for (k, offset) in pairs.into_iter().take(limit) {
            // A miss means `k` was deleted between `range` and this read.
            if self.read_record(k, offset, &mut buf) {
                sink(k, &buf);
                n += 1;
            }
        }
        self.engine.recorder.finish(OpKind::Scan, t);
        n
    }
}

// The write models' receivers. Each method picks the model's access to the
// index and forwards to the one body on [`Engine`]; `&mut self` is the
// single-writer model's writer exclusion.
impl<I: Index + UpdatableIndex> ViperStore<I, SingleWriter> {
    /// Inserts or updates. Retries transient faults per the configured
    /// [`RetryPolicy`], and degrades to read-only
    /// ([`ViperError::ReadOnly`] from then on) only once the retry budget
    /// is exhausted on exhaustion. Under durability, a full WAL ring is
    /// absorbed by an inline checkpoint plus one more attempt before
    /// [`ViperError::WalFull`] can surface.
    pub fn put(&mut self, key: Key, value: &[u8]) -> Result<(), ViperError> {
        self.engine.put(&mut Excl(&mut self.index), key, value)
    }

    /// Removes a key; returns whether it existed. Retries transient
    /// faults; deletes reclaim space and are the way out of degradation.
    /// Absorbs a full WAL ring like `put`.
    pub fn delete(&mut self, key: Key) -> Result<bool, ViperError> {
        self.engine.delete(&mut Excl(&mut self.index), key)
    }

    /// Writes a checkpoint now (no-op without durability, returning
    /// `false`). `&mut self` is the writer-quiescence guarantee the
    /// snapshot needs.
    pub fn checkpoint_now(&mut self) -> Result<bool, ViperError> {
        self.engine.checkpoint(&self.index)
    }

    /// One full self-healing pass: deferred retrains, stale-slot sweep,
    /// quarantine repair, a lag-triggered checkpoint, read-only lift.
    pub fn run_maintenance(&mut self, retrain_budget: usize) -> MaintenancePass {
        self.engine.run_maintenance(&mut Excl(&mut self.index), retrain_budget)
    }
}

impl<I: Index + ConcurrentIndex> ViperStore<I, SharedWriter> {
    /// Inserts or updates through a shared reference. Same degradation,
    /// retry and WAL-full contract as the single-writer
    /// put; same-key races are serialised by the stripe lock, which is
    /// released during each backoff so other keys in the stripe keep
    /// flowing.
    pub fn put(&self, key: Key, value: &[u8]) -> Result<(), ViperError> {
        self.engine.put(&mut Shared(&self.index), key, value)
    }

    /// Removes a key through a shared reference; same contract as the
    /// single-writer delete.
    pub fn delete(&self, key: Key) -> Result<bool, ViperError> {
        self.engine.delete(&mut Shared(&self.index), key)
    }

    /// Writes a checkpoint now (no-op without durability, returning
    /// `false`), quiescing in-flight writers by holding every key stripe
    /// for the duration.
    pub fn checkpoint_now(&self) -> Result<bool, ViperError> {
        self.engine.checkpoint(&self.index)
    }

    /// Graceful-shutdown hook: quiesce all writer stripes, write a final
    /// checkpoint when durability is configured, and fence the device.
    /// Idempotent; returns whether a checkpoint was written. Callers
    /// (e.g. `li-server`) stop admitting new work first, so by the time
    /// this returns every acknowledged write is durable.
    pub fn drain(&self) -> Result<bool, ViperError> {
        self.engine.drain(&self.index)
    }

    /// One full self-healing pass: deferred retrains, shard adaptation,
    /// stale-slot sweep, quarantine repair, a lag-triggered checkpoint,
    /// read-only lift — what the [`crate::MaintenanceWorker`]
    /// calls on every tick.
    pub fn run_maintenance(&self, retrain_budget: usize) -> MaintenancePass {
        self.engine.run_maintenance(&mut Shared(&self.index), retrain_budget)
    }

    /// [`ViperStore::bulk_load_with`] under the name `perf/` spells it by
    /// (the benchmark's sources are frozen across this change).
    pub fn bulk_load_shared(
        config: StoreConfig,
        keys: &[Key],
        value_of: impl FnMut(Key, &mut [u8]),
        build: impl FnOnce(&[KeyValue]) -> I,
    ) -> Self {
        Self::bulk_load_with(config, keys, value_of, build)
    }

    /// [`ViperStore::recover_recorded`] under the name `perf/` spells it
    /// by (see [`ViperStore::bulk_load_shared`]).
    pub fn recover_shared_recorded(
        dev: Arc<NvmDevice>,
        layout: RecordLayout,
        opts: RecoverOptions,
        recorder: Recorder,
        build: impl FnOnce(&[KeyValue]) -> I,
    ) -> (Self, RecoveryReport) {
        Self::recover_recorded(dev, layout, opts, recorder, build)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::checkpoint::DurabilityConfig;
    use li_sync::sync::mpsc::{channel, Receiver, Sender};
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

    impl OrderedIndex for LockedMap {
        fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
            out.extend(self.0.read().range(lo..=hi).map(|(&k, &v)| (k, v)));
        }
    }

    fn locked_map(pairs: &[KeyValue]) -> LockedMap {
        LockedMap(li_sync::sync::RwLock::new(pairs.iter().copied().collect()))
    }

    /// The two write models behind one face, for tests that take the
    /// model as an input.
    pub(crate) enum Either {
        Single(ViperStore<MapIndex>),
        Shared(ConcurrentViperStore<LockedMap>),
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
        pub(crate) fn new(shared: bool, cfg: StoreConfig) -> Self {
            if shared {
                Either::Shared(ViperStore::new(cfg, LockedMap::default()))
            } else {
                Either::Single(ViperStore::new(cfg, MapIndex::default()))
            }
        }
        pub(crate) fn bulk_load(shared: bool, cfg: StoreConfig, keys: &[Key]) -> Self {
            if shared {
                Either::Shared(ViperStore::bulk_load_with(cfg, keys, value_for, locked_map))
            } else {
                Either::Single(ViperStore::bulk_load(cfg, keys, value_for))
            }
        }
        fn recover(
            shared: bool,
            dev: Arc<NvmDevice>,
            layout: RecordLayout,
            opts: RecoverOptions,
        ) -> (Self, RecoveryReport) {
            if shared {
                let (s, report) = ViperStore::recover_with_options(dev, layout, opts, locked_map);
                (Either::Shared(s), report)
            } else {
                let (s, report) =
                    ViperStore::recover_with_options(dev, layout, opts, MapIndex::build);
                (Either::Single(s), report)
            }
        }
        /// Clean shutdown and restart from the device.
        pub(crate) fn restart(
            self,
            layout: RecordLayout,
            opts: RecoverOptions,
        ) -> (Self, RecoveryReport) {
            let shared = matches!(self, Either::Shared(_));
            Self::recover(shared, either!(self, s => s.into_device()), layout, opts)
        }
        pub(crate) fn put(&mut self, key: Key, value: &[u8]) -> Result<(), ViperError> {
            either!(self, s => s.put(key, value))
        }
        pub(crate) fn delete(&mut self, key: Key) -> Result<bool, ViperError> {
            either!(self, s => s.delete(key))
        }
        pub(crate) fn checkpoint_now(&mut self) -> Result<bool, ViperError> {
            either!(self, s => s.checkpoint_now())
        }
        pub(crate) fn run_maintenance(&mut self) -> MaintenancePass {
            either!(self, s => s.run_maintenance(0))
        }
        /// Leaves the next checkpoint no image to extend, as a recovery
        /// whose own checkpoint faulted does: it folds from the device.
        pub(crate) fn forget_image(&mut self) {
            either!(self, s => s.engine.durability.as_ref().unwrap().ckpt.lock().extendable = false);
        }
        pub(crate) fn get(&self, key: Key, buf: &mut [u8]) -> bool {
            either!(self, s => s.get(key, buf))
        }
        pub(crate) fn len(&self) -> usize {
            either!(self, s => s.len())
        }
        /// Keys of `[lo, hi]` in scan order.
        pub(crate) fn scan_keys(&self, lo: Key, hi: Key) -> Vec<Key> {
            let mut keys = Vec::new();
            either!(self, s => s.scan(lo, hi, usize::MAX, &mut |k, _| keys.push(k)));
            keys
        }
        pub(crate) fn nvm_stats(&self) -> li_nvm::NvmStatsSnapshot {
            either!(self, s => s.heap().device().stats().snapshot())
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

    /// An index entry that points at another key's record — what a
    /// lock-free reader holds after a delete or relocation recycled the
    /// slot between its probe and its read — must never surface that
    /// record: not to a get, and not to an in-place update (which would
    /// re-checksum the foreign bytes into a valid record).
    #[test]
    fn entry_pointing_at_another_keys_slot_is_not_served() {
        let store = ConcurrentViperStore::new(StoreConfig::test(100), LockedMap::default());
        let vs = store.heap().layout().value_size;
        let (a, b) = (10, 20);
        store.put(b, &vec![0xbb; vs]).unwrap();
        let b_slot = Index::get(store.index(), b).unwrap();
        ConcurrentIndex::insert(store.index(), a, b_slot);

        let mut buf = vec![0u8; vs];
        assert!(!store.get(a, &mut buf), "served key {b}'s record as key {a}");
        assert_eq!(store.put(a, &vec![0xaa; vs]), Err(ViperError::IndexMismatch));
        assert!(store.get(b, &mut buf));
        assert_eq!(buf, vec![0xbb; vs], "the refused update reached the record");

        // A retired slot's bytes are still the record's own (the value a
        // read overlapping the update may return); a restaged one's are not.
        store.heap().mark_dead(b_slot).unwrap();
        assert!(store.get(b, &mut buf));
        assert_eq!(store.heap().stage_append(b, &vec![0xcc; vs]), Ok(b_slot));
        assert!(!store.get(b, &mut buf), "served a staged, unpublished record");
    }

    #[test]
    fn scan_skips_entries_pointing_at_another_keys_slot() {
        let store: ConcurrentViperStore<li_core::shard::Sharded> =
            ConcurrentViperStore::bulk_load_with(
                StoreConfig::test(100),
                &[10, 20, 30],
                value_for,
                |pairs| li_core::shard::Sharded::build::<MapIndex>(2, pairs),
            );
        let slot_30 = Index::get(store.index(), 30).unwrap();
        ConcurrentIndex::insert(store.index(), 15, slot_30);
        let mut got = Vec::new();
        assert_eq!(store.scan(0, 100, 10, &mut |k, _| got.push(k)), 3);
        assert_eq!(got, vec![10, 20, 30]);
    }

    /// The armed key, the channel its insert reports parked on, and the
    /// one it waits on for the release.
    type Gate = (Key, Sender<()>, Receiver<()>);

    /// A [`LockedMap`] whose `ConcurrentIndex::insert` of the armed key
    /// parks until released: it holds a writer inside its index move.
    #[derive(Default)]
    struct GatedMap {
        map: LockedMap,
        gate: li_sync::sync::Mutex<Option<Gate>>,
    }

    impl Index for GatedMap {
        fn name(&self) -> &'static str {
            "gated-map"
        }
        fn len(&self) -> usize {
            Index::len(&self.map)
        }
        fn get(&self, key: Key) -> Option<u64> {
            Index::get(&self.map, key)
        }
        fn index_size_bytes(&self) -> usize {
            self.map.index_size_bytes()
        }
        fn data_size_bytes(&self) -> usize {
            0
        }
    }

    impl ConcurrentIndex for GatedMap {
        fn get(&self, key: Key) -> Option<u64> {
            ConcurrentIndex::get(&self.map, key)
        }
        fn insert(&self, key: Key, value: u64) -> Option<u64> {
            let gate = self.gate.lock().take_if(|(armed, ..)| *armed == key);
            if let Some((_, parked, release)) = gate {
                parked.send(()).unwrap();
                release.recv().unwrap();
            }
            self.map.insert(key, value)
        }
        fn remove(&self, key: Key) -> Option<u64> {
            self.map.remove(key)
        }
        fn len(&self) -> usize {
            ConcurrentIndex::len(&self.map)
        }
    }

    impl OrderedIndex for GatedMap {
        fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
            self.map.range(lo, hi, out);
        }
    }

    /// A crash-safe update moves the index before it retires the old slot,
    /// so a get or scan racing it finds the key's old record or its new
    /// one — never a slot recycled for another key. The writer of key 20
    /// is held inside its index move while key 999 (another key stripe)
    /// takes the first free slot.
    #[test]
    fn reads_racing_a_crash_safe_update_find_the_key() {
        for durable in [false, true] {
            let cfg = if durable { durable_cfg(100, 1024) } else { StoreConfig::test(100) };
            let store = Arc::new(ConcurrentViperStore::new(
                cfg.with_crash_safe_updates(true),
                GatedMap::default(),
            ));
            let vs = store.heap().layout().value_size;
            let (old, new) = (vec![0x11; vs], vec![0x22; vs]);
            store.put(20, &old).unwrap();
            let (parked_tx, parked) = channel();
            let (release, release_rx) = channel();
            *store.index().gate.lock() = Some((20, parked_tx, release_rx));
            let writer = {
                let (store, new) = (Arc::clone(&store), new.clone());
                li_sync::thread::spawn(move || store.put(20, &new))
            };
            parked.recv().unwrap();
            store.put(999, &vec![0x99; vs]).unwrap();
            let mut buf = vec![0u8; vs];
            let found = store.get(20, &mut buf);
            let mut scanned = Vec::new();
            let n = store.scan(20, 20, 1, &mut |k, v| scanned.push((k, v.to_vec())));
            release.send(()).unwrap();
            writer.join().unwrap().unwrap();
            assert!(found && n == 1, "durable={durable}: get found {found}, scan returned {n}");
            assert_eq!(buf, old, "durable={durable}: get");
            assert_eq!(scanned, vec![(20, old.clone())], "durable={durable}: scan");
            assert!(store.get(20, &mut buf));
            assert_eq!(buf, new, "durable={durable}: the update landed");
        }
    }

    #[test]
    fn shared_writer_store_scans_and_recovers() {
        // The unified store gives the shared-writer flavour everything the
        // single-writer one had: bulk load, ordered scans, recovery.
        let keys: Vec<Key> = (0..500u64).map(|i| i * 4).collect();
        let cfg = StoreConfig::test(1_000);
        let store: ConcurrentViperStore<li_core::shard::Sharded> =
            ConcurrentViperStore::bulk_load_with(cfg, &keys, value_for, |pairs| {
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
            ConcurrentViperStore::<li_core::shard::Sharded>::recover_with_options(
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
        let (recovered, report) = ViperStore::<MapIndex>::recover_recorded(
            dev,
            cfg.layout,
            opts,
            rec.clone(),
            MapIndex::build,
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
        let (mut recovered, report) = ViperStore::<MapIndex>::recover_recorded(
            dev,
            cfg.layout,
            opts,
            Recorder::disabled(),
            MapIndex::build,
        );
        assert!(report.from_checkpoint);
        // The reopened WAL and resumed sequence keep accepting writes, and
        // a second crash + recovery still sees everything.
        for k in 0..50u64 {
            recovered.put(500 + k, &vec![9u8; vs]).unwrap();
        }
        assert!(recovered.delete(0).unwrap());
        let dev = recovered.into_device();
        let (again, report2) = ViperStore::<MapIndex>::recover_recorded(
            dev,
            cfg.layout,
            opts,
            Recorder::disabled(),
            MapIndex::build,
        );
        assert!(report2.from_checkpoint);
        assert_eq!(again.len(), 100 + 50 - 1);
        let mut buf = vec![0u8; vs];
        assert!(!again.get(0, &mut buf));
        assert!(again.get(549, &mut buf));
    }

    /// A ring of 8 records cannot hold 50 puts: the store must absorb
    /// the pressure with inline checkpoints instead of surfacing WalFull.
    /// Under the shared-writer model this also proves the inline
    /// checkpoint's all-stripe quiesce runs only after the attempt's own
    /// stripe guard is gone — it would self-deadlock otherwise.
    #[test]
    fn wal_full_forces_inline_checkpoint() {
        for shared in [false, true] {
            wal_full_forces_inline_checkpoint_under(shared);
        }
    }

    fn wal_full_forces_inline_checkpoint_under(shared: bool) {
        let cfg = durable_cfg(1_000, 8);
        let mut store = Either::new(shared, cfg);
        either!(&mut store, s => s.set_recorder(Recorder::enabled()));
        let vs = cfg.layout.value_size;
        for k in 0..50u64 {
            store.put(k, &vec![1u8; vs]).unwrap();
        }
        // Deletes are logged too, and absorb a full ring the same way.
        for k in 0..20u64 {
            assert!(store.delete(k).unwrap());
        }
        either!(&store, s => {
            assert!(s.checkpoint_generation() >= 7, "ring of 8 must have checkpointed repeatedly");
            assert!(s.wal_lag() <= 8);
            let snap = s.recorder().snapshot();
            assert_eq!(snap.event(Event::WalAppend), 70);
            assert!(snap.event(Event::CheckpointWritten) >= 7);
        });
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
        let newest =
            |s: &ViperStore<MapIndex>| s.engine.durability.as_ref().unwrap().ckpt.lock().newest;
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
        let (recovered, report) = ViperStore::<MapIndex>::recover_recorded(
            dev,
            cfg.layout,
            opts,
            Recorder::disabled(),
            MapIndex::build,
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

    /// A fold with no image to extend (a recovery whose own checkpoint
    /// faulted) rebuilds from the device: it must read every page ever
    /// handed out, including those above a page whose records all died.
    #[test]
    fn device_fold_after_maintenance_keeps_every_acked_key() {
        for shared in [false, true] {
            let cfg = durable_cfg(1_000, 256);
            let spp = cfg.layout.slots_per_page() as u64;
            let keys: Vec<Key> = (0..3 * spp).collect();
            let mut store = Either::bulk_load(shared, cfg, &keys);
            for k in 0..spp {
                assert!(store.delete(k).unwrap());
            }
            store.run_maintenance();
            store.forget_image();
            assert!(store.checkpoint_now().unwrap());
            let acked = store.len();
            assert_eq!(acked, 2 * spp as usize);
            let opts = RecoverOptions { durability: cfg.durability, ..RecoverOptions::default() };
            let (recovered, report) = store.restart(cfg.layout, opts);
            assert!(report.from_checkpoint);
            assert_eq!(recovered.len(), acked, "acked keys lost by the device fold");
            let vs = cfg.layout.value_size;
            let (mut buf, mut expect) = (vec![0u8; vs], vec![0u8; vs]);
            for k in spp..3 * spp {
                assert!(recovered.get(k, &mut buf), "key {k} lost");
                value_for(k, &mut expect);
                assert_eq!(buf, expect, "key {k} came back wrong");
            }
        }
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
        let (recovered, report) = ConcurrentViperStore::<LockedMap>::recover_recorded(
            dev,
            cfg.layout,
            opts,
            Recorder::disabled(),
            |pairs| LockedMap(li_sync::sync::RwLock::new(pairs.iter().copied().collect())),
        );
        assert!(report.from_checkpoint);
        assert_eq!(report.replayed, 1, "only the post-checkpoint put is in the tail");
        assert_eq!(recovered.len(), 2_001);
        let mut buf = vec![0u8; vs];
        assert!(recovered.get(99_999, &mut buf));
        assert_eq!(buf, vec![7u8; vs]);
    }

    /// An empty store of either model over a device with a device-full
    /// window covering device ops `0..until`.
    fn store_with_full_window(shared: bool, until: u64) -> Either {
        use li_nvm::{Fault, FaultPlan};

        let cfg = StoreConfig::test(1_000);
        let plan = FaultPlan::none().with(Fault::FullWindow { from: 0, until });
        let dev = Arc::new(NvmDevice::with_faults(cfg.nvm, &plan));
        Either::recover(shared, dev, cfg.layout, RecoverOptions::default()).0
    }

    #[test]
    fn put_retries_through_transient_fault_window() {
        for shared in [false, true] {
            put_retries_through_transient_fault_window_under(shared);
        }
    }

    fn put_retries_through_transient_fault_window_under(shared: bool) {
        // The window covers the first few device ops: without retry the
        // very first put fails and flips the store read-only.
        let mut store = store_with_full_window(shared, 3);
        either!(&mut store, s => {
            s.set_recorder(Recorder::enabled());
            s.set_retry_policy(RetryPolicy::standard(42));
        });
        let vs = either!(&store, s => s.heap().layout().value_size);
        // Each backoff ticks a benign fence, so the window expires while
        // the put is waiting and a later attempt succeeds.
        store.put(9, &vec![9u8; vs]).unwrap();
        either!(&store, s => {
            assert!(!s.is_read_only(), "retried put must not degrade the store");
            let snap = s.recorder().snapshot();
            assert!(snap.event(Event::BackoffWait) >= 1, "put must have backed off");
            assert!(snap.op(OpKind::RetryAttempts).count >= 1);
        });
        let mut buf = vec![0u8; vs];
        assert!(store.get(9, &mut buf));
        assert_eq!(buf, vec![9u8; vs]);
    }

    #[test]
    fn exhausted_retries_still_degrade_to_read_only() {
        for shared in [false, true] {
            exhausted_retries_still_degrade_to_read_only_under(shared);
        }
    }

    fn exhausted_retries_still_degrade_to_read_only_under(shared: bool) {
        // Window far wider than the retry budget can outwait.
        let mut store = store_with_full_window(shared, 10_000);
        either!(&mut store, s => s.set_retry_policy(RetryPolicy::standard(7)));
        let vs = either!(&store, s => s.heap().layout().value_size);
        assert_eq!(store.put(1, &vec![1u8; vs]), Err(ViperError::DeviceFull));
        assert!(
            either!(&store, s => s.is_read_only()),
            "budget exhausted: degrade, don't spin forever"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::checkpoint::DurabilityConfig;
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

    use crate::store::tests::Either;
    use std::collections::BTreeMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The checkpoint image is the index image: whatever mix of
        /// inserts, updates (in place or crash-safe) and deletes ran, and
        /// however many deltas and folds the checkpoints between them
        /// took — maintenance passes between them, one fold rebuilt from
        /// the device — a clean restart after a last checkpoint needs no
        /// replay, quarantines nothing, and equals the oracle.
        #[test]
        fn restart_after_checkpoint_equals_oracle(
            ops in proptest::collection::vec((0u64..96, 0u8..4), 1..400),
            every in 1usize..24,
            shared in proptest::bool::ANY,
            crash_safe in proptest::bool::ANY,
            maintain in proptest::bool::ANY,
            from_device in proptest::bool::ANY,
        ) {
            // The base of all 96 keys fits a slot, a long chain does not.
            let dcfg =
                DurabilityConfig { wal_records: 48, checkpoint_bytes: 2_048, checkpoint_lag: 16 };
            let cfg = StoreConfig::test(1_000)
                .with_crash_safe_updates(crash_safe)
                .with_durability(dcfg);
            let mut store = Either::new(shared, cfg);
            let vs = cfg.layout.value_size;
            let mut oracle: BTreeMap<u64, u8> = BTreeMap::new();
            // The first checkpoint point past half-way folds from the
            // device, or else the last one does.
            let mut fold_pending = from_device;
            for (i, &(k, op)) in ops.iter().enumerate() {
                if op == 0 {
                    prop_assert_eq!(store.delete(k).unwrap(), oracle.remove(&k).is_some());
                } else {
                    let b = (i % 251) as u8;
                    prop_assert!(store.put(k, &vec![b; vs]).is_ok());
                    oracle.insert(k, b);
                }
                if i % every == 0 {
                    if maintain {
                        store.run_maintenance();
                    }
                    if fold_pending && 2 * i >= ops.len() {
                        store.forget_image();
                        fold_pending = false;
                    }
                    prop_assert!(store.checkpoint_now().unwrap());
                }
            }
            if maintain {
                store.run_maintenance();
            }
            if fold_pending {
                store.forget_image();
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
