//! The persistent record heap shared by both store flavours.
//!
//! Persistence protocol for new records (crash-safe publish):
//! 1. allocate a slot (volatile bookkeeping),
//! 2. write key + seq + crc + value with state byte still `SLOT_FREE`,
//!    flush,
//! 3. fence,
//! 4. write state byte `SLOT_LIVE`, flush, fence.
//!
//! A bulk load publishes a *run* of n contiguous slots of one page with the
//! same steps, taken once per run: one write of the encoded slots and the
//! zero padding between them (led by the page header and its padding when
//! the run opens the page), a flush per record, one fence; then one write
//! spanning the run's state bytes, a flush per state byte, one fence. An
//! append is the run of one. Flushes stay per slot, so a dropped flush
//! still costs at most one record, and a crash anywhere in a run publishes
//! a prefix of it, each record whole.
//!
//! A crash before step 4 leaves the slot free; recovery never surfaces a
//! partially written record — *if the device honours flushes*. A device
//! that acks a flush without persisting (see `li_nvm::fault`) can expose a
//! published slot whose payload never became durable; the per-record CRC
//! exists so recovery detects and quarantines exactly that case.
//!
//! All mutating operations are fallible ([`ViperError`]): device
//! exhaustion, injected crash points and unrecovered transient write
//! failures surface as `Err`, never as panics.

use li_sync::sync::atomic::{AtomicU64, Ordering};
use std::collections::HashMap;
use std::sync::Arc;

use li_core::telemetry::{Event, Recorder};
use li_core::Key;
use li_nvm::{NvmDevice, NvmError};
use li_sync::sync::Mutex;

use crate::checkpoint::{DurabilityConfig, Geometry};
use crate::error::ViperError;
use crate::layout::{
    record_crc, RecordLayout, SlotHeader, PAGE_HEADER, PAGE_MAGIC, SLOT_DEAD, SLOT_FREE,
    SLOT_HEADER, SLOT_LIVE,
};

/// Number of lock stripes guarding in-place record updates.
const UPDATE_STRIPES: usize = 1024;

/// Scratches up to this many bytes live on the stack (see [`with_scratch`]).
const STACK_SCRATCH: usize = 512;

/// Runs `f` over a zeroed scratch of `len` bytes: on the stack up to
/// 512 B — every slot of the paper's layout and of the tests' — and in a
/// `Vec` only above that. The per-record paths (read, append, in-place
/// update, the server's value framing) build their bytes here, so none of
/// them allocates per operation.
#[inline]
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
    let mut stack = [0u8; STACK_SCRATCH];
    match stack.get_mut(..len) {
        Some(buf) => f(buf),
        None => f(&mut vec![0u8; len]),
    }
}

/// Heap pages read a device access at a time: a page is fetched whole when
/// first touched and its slots are sliced out of the copy. Both rescan
/// passes, the live-set snapshot and the checkpoint validator visit slots
/// in offset order, so a page costs them one read however many of its
/// slots they look at. The copy is not refreshed: callers run with writers
/// quiescent and write at most the page header themselves.
pub(crate) struct PageReader<'a> {
    dev: &'a NvmDevice,
    layout: RecordLayout,
    buf: Vec<u8>,
    /// Device offset of the page `buf` holds (`usize::MAX`: none yet).
    held: usize,
}

impl<'a> PageReader<'a> {
    pub(crate) fn new(dev: &'a NvmDevice, layout: RecordLayout) -> Self {
        PageReader { dev, layout, buf: vec![0u8; layout.page_size], held: usize::MAX }
    }

    /// The page starting at `page_offset`, header included.
    pub(crate) fn page(&mut self, page_offset: usize) -> &[u8] {
        if self.held != page_offset {
            self.dev.read_into(page_offset, &mut self.buf);
            self.held = page_offset;
        }
        &self.buf
    }

    /// The record in the slot at device offset `offset`.
    pub(crate) fn slot(&mut self, offset: usize) -> &[u8] {
        let in_page = offset % self.layout.page_size;
        let record = self.layout.record_size();
        &self.page(offset - in_page)[in_page..in_page + record]
    }
}

/// Injected transient write failures are retried this many times before
/// the operation gives up and surfaces the fault.
const WRITE_RETRIES: usize = 8;

struct OpenPage {
    /// Byte offset of the currently filling page, or None before first
    /// allocation / after device exhaustion.
    page_offset: Option<usize>,
    next_slot: usize,
    /// Pages handed out so far, `0..pages`: the heap's high-water mark.
    /// Dead slots are reused through the free list; a page is never taken
    /// back, bar a fresh one whose bulk-load run failed before any other
    /// writer could reach it (see [`RecordHeap::release_run`]).
    pages: usize,
}

/// Slots `first..first + len` of the page at `page_offset`, reserved for
/// one run of [`RecordHeap::bulk_append`]; `fresh` when the run opens the
/// page and so writes its header.
struct Run {
    page_offset: usize,
    first: usize,
    len: usize,
    fresh: bool,
}

/// A page header as allocation stamps it: the magic, then zeros.
fn page_header() -> [u8; PAGE_HEADER] {
    let mut header = [0u8; PAGE_HEADER];
    header[..8].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
    header
}

/// Options for [`RecordHeap::recover_with_report`] and the store-level
/// recovery entry points.
#[derive(Debug, Clone, Copy)]
pub struct RecoverOptions {
    /// Verify each live record's CRC and quarantine mismatches. Disabling
    /// this reproduces the pre-hardening recovery that trusted the state
    /// byte alone (the torture harness uses it to demonstrate why the
    /// checksum is load-bearing).
    pub verify_checksums: bool,
    /// Durability-region geometry of the device being recovered. `None`
    /// (the default) means the whole device is heap pages and recovery is
    /// a full scan; `Some` bounds the heap scan below the WAL/checkpoint
    /// region and enables checkpointed recovery.
    pub durability: Option<DurabilityConfig>,
    /// When durability is configured, try the checkpoint + log-replay
    /// fast path before falling back to the full heap rescan. Disable to
    /// force the rescan (the recovery benchmark compares the two).
    pub use_checkpoint: bool,
}

impl Default for RecoverOptions {
    fn default() -> Self {
        RecoverOptions { verify_checksums: true, durability: None, use_checkpoint: true }
    }
}

/// What a recovery scan found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Live records surfaced to the index.
    pub live: usize,
    /// Published slots whose checksum did not match their content —
    /// skipped, counted, and left untouched for forensics.
    pub quarantined: usize,
    /// Older live records superseded by a higher-sequence record of the
    /// same key (an out-of-place update crashed before retiring them).
    pub duplicates_dropped: usize,
    /// Pages the scan treated as allocated (valid header, or salvaged from
    /// slot evidence after the header failed to persist). Zero on the
    /// checkpoint fast path, which does not scan pages.
    pub pages_scanned: usize,
    /// Allocated pages whose header magic was missing — a dropped or
    /// unfenced header flush — re-stamped during the scan. Their records
    /// would be silently lost if recovery trusted the magic alone.
    pub pages_healed: usize,
    /// Highest publish sequence seen among checksum-valid records.
    pub max_seq: u64,
    /// WAL records replayed on top of the checkpoint (zero on rescans).
    pub replayed: usize,
    /// Whether recovery took the checkpoint + log-replay fast path.
    pub from_checkpoint: bool,
}

/// Slot-granular record storage on a (simulated) NVM device.
pub struct RecordHeap {
    dev: Arc<NvmDevice>,
    layout: RecordLayout,
    /// Pages that fit below the heap's capacity.
    total_pages: usize,
    open: Mutex<OpenPage>,
    free_slots: Mutex<Vec<usize>>,
    update_locks: Vec<Mutex<()>>,
    /// Store-wide publish sequence; recovery resumes it past the highest
    /// sequence found on the device.
    next_seq: AtomicU64,
    /// Slot offsets recovery quarantined (published state, failing CRC).
    /// Withheld from reuse until a repair pass proves them superseded or
    /// writes their payload off as lost; see
    /// [`RecordHeap::reclaim_quarantined`].
    quarantined: Mutex<Vec<usize>>,
    /// Live slots whose retirement hit a transient fault inside
    /// [`RecordHeap::replace`]. The record they hold is superseded by a
    /// higher-sequence one, so they waste space but cannot corrupt reads;
    /// the maintenance sweep re-validates and retires them.
    stale: Mutex<Vec<usize>>,
    /// Emits [`Event::Retry`] for every transient write failure observed
    /// (and re-attempted) by [`RecordHeap::write_retry`].
    recorder: Recorder,
}

impl RecordHeap {
    /// Creates an empty heap over the whole of `dev`.
    pub fn new(dev: Arc<NvmDevice>, layout: RecordLayout) -> Self {
        let cap = dev.capacity();
        Self::with_capacity(dev, layout, cap)
    }

    /// Creates an empty heap over the first `heap_capacity` bytes of
    /// `dev`, leaving the rest for the durability region (WAL ring +
    /// checkpoint slots). Allocation and scans never touch bytes at or
    /// above `heap_capacity`.
    pub fn with_capacity(dev: Arc<NvmDevice>, layout: RecordLayout, heap_capacity: usize) -> Self {
        RecordHeap {
            total_pages: heap_capacity.min(dev.capacity()) / layout.page_size,
            dev,
            layout,
            open: Mutex::with_class(
                li_sync::lock_class!("heap-open"),
                OpenPage { page_offset: None, next_slot: 0, pages: 0 },
            ),
            free_slots: Mutex::with_class(li_sync::lock_class!("heap-free"), Vec::new()),
            update_locks: {
                let class = li_sync::lock_class!("heap-stripe");
                (0..UPDATE_STRIPES).map(|_| Mutex::with_class(class, ())).collect()
            },
            next_seq: AtomicU64::new(1),
            quarantined: Mutex::with_class(li_sync::lock_class!("heap-quarantine"), Vec::new()),
            stale: Mutex::with_class(li_sync::lock_class!("heap-stale"), Vec::new()),
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a telemetry recorder; every transient write failure the
    /// heap rides out is counted as an [`Event::Retry`].
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    pub fn layout(&self) -> RecordLayout {
        self.layout
    }

    pub fn device(&self) -> &NvmDevice {
        &self.dev
    }

    /// Consumes the heap, returning the underlying device (for crash
    /// simulation in tests).
    pub fn into_device(self) -> Arc<NvmDevice> {
        self.dev
    }

    #[inline]
    fn stripe(&self, offset: usize) -> &Mutex<()> {
        &self.update_locks[(offset / self.layout.stride()) % UPDATE_STRIPES]
    }

    /// Writes with bounded retry of injected transient failures. One
    /// [`Event::Retry`] is emitted per failure observed — including the
    /// final one when the budget is exhausted — so with a recorder
    /// attached, `Retry` events equal the device's `failed_writes` fault
    /// counter as long as nothing bypasses this path (recovery healing
    /// writes directly and is accounted separately via `pages_healed`).
    fn write_retry(&self, offset: usize, data: &[u8]) -> Result<(), ViperError> {
        for _ in 0..WRITE_RETRIES {
            match self.dev.try_write(offset, data) {
                Ok(()) => return Ok(()),
                Err(NvmError::WriteFailed) => {
                    self.recorder.event(Event::Retry);
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(ViperError::Nvm(NvmError::WriteFailed))
    }

    /// Hands out the next page, returning its byte offset.
    fn next_page(&self, open: &mut OpenPage) -> Result<usize, ViperError> {
        if open.pages == self.total_pages {
            return Err(ViperError::DeviceFull);
        }
        open.pages += 1;
        Ok((open.pages - 1) * self.layout.page_size)
    }

    /// Allocates a slot, returning its byte offset.
    fn alloc_slot(&self) -> Result<usize, ViperError> {
        if self.dev.injected_device_full() {
            return Err(ViperError::DeviceFull);
        }
        if let Some(off) = self.free_slots.lock().pop() {
            return Ok(off);
        }
        let mut open = self.open.lock();
        loop {
            if let Some(page_offset) = open.page_offset {
                if open.next_slot < self.layout.slots_per_page() {
                    let slot = open.next_slot;
                    open.next_slot += 1;
                    return Ok(self.layout.slot_offset(page_offset, slot));
                }
            }
            // Open a fresh page and stamp its header durably.
            let page_offset = self.next_page(&mut open)?;
            self.write_retry(page_offset, &page_header())?;
            self.dev.try_persist(page_offset, PAGE_HEADER)?;
            open.page_offset = Some(page_offset);
            open.next_slot = 0;
        }
    }

    /// Appends a new record, returning its slot offset (the index's value
    /// handle). `value.len()` must equal the layout's value size.
    pub fn append(&self, key: Key, value: &[u8]) -> Result<u64, ViperError> {
        let off = self.alloc_slot()?;
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let result = with_scratch(self.layout.record_size(), |buf| {
            self.layout.encode_record(key, seq, SLOT_FREE, value, buf);
            self.publish(off, buf, 0)
        });
        if result.is_err() {
            // The slot holds no published record; recycle it.
            self.free_slots.lock().push(off);
        }
        result?;
        Ok(off as u64)
    }

    /// Appends one record per key of `keys`, in order, a page-run at a
    /// time (see the module docs), and returns each key with its slot
    /// offset. `value_of` writes each value straight into the page image
    /// and must fill the buffer it is given. The image carries zeros
    /// between records, where one append per key writes nothing into a
    /// device that is zero already. Runs take the open page's
    /// unused slots, then fresh pages, never recycled slots, so on a fresh
    /// heap the device ends byte-identical to one [`RecordHeap::append`]
    /// per key: same offsets, seqs and open page. `&mut self` keeps other
    /// writers off a fresh page until the run has written its header. On
    /// error the failed run's slots are given back; earlier runs stay
    /// published.
    pub fn bulk_append(
        &mut self,
        keys: &[Key],
        mut value_of: impl FnMut(Key, &mut [u8]),
    ) -> Result<Vec<(Key, u64)>, ViperError> {
        let (record, stride) = (self.layout.record_size(), self.layout.stride());
        let mut pairs = Vec::with_capacity(keys.len());
        // Records land at multiples of the stride whichever way a run
        // starts, so the padding between them stays zero across runs.
        let mut image = vec![0u8; self.layout.page_size];
        let mut rest = keys;
        while !rest.is_empty() {
            let run = self.reserve_run(rest.len())?;
            let (now, later) = rest.split_at(run.len);
            let first = self.layout.slot_offset(run.page_offset, run.first);
            let head = if run.fresh { first - run.page_offset } else { 0 };
            let bytes = &mut image[..head + (run.len - 1) * stride + record];
            if run.fresh {
                bytes[..head].fill(0);
                bytes[..PAGE_HEADER].copy_from_slice(&page_header());
            }
            let seq = self.next_seq.fetch_add(run.len as u64, Ordering::Relaxed);
            for (i, (&key, slot)) in now.iter().zip(bytes[head..].chunks_mut(stride)).enumerate() {
                let rec = &mut slot[..record];
                value_of(key, &mut rec[SLOT_HEADER..]);
                self.layout.seal_record(key, seq + i as u64, SLOT_FREE, rec);
                pairs.push((key, (first + i * stride) as u64));
            }
            if let Err(e) = self.publish(first - head, bytes, head) {
                self.release_run(&run);
                return Err(e);
            }
            rest = later;
        }
        Ok(pairs)
    }

    /// Reserves up to `want` contiguous slots: the rest of the open page,
    /// or else a fresh page that becomes the open one, its header left for
    /// the run to write.
    fn reserve_run(&self, want: usize) -> Result<Run, ViperError> {
        if self.dev.injected_device_full() {
            return Err(ViperError::DeviceFull);
        }
        let spp = self.layout.slots_per_page();
        let mut open = self.open.lock();
        if let Some(page_offset) = open.page_offset {
            let first = open.next_slot;
            if first < spp {
                let len = want.min(spp - first);
                open.next_slot += len;
                return Ok(Run { page_offset, first, len, fresh: false });
            }
        }
        let page_offset = self.next_page(&mut open)?;
        let len = want.min(spp);
        open.page_offset = Some(page_offset);
        open.next_slot = len;
        Ok(Run { page_offset, first: 0, len, fresh: true })
    }

    /// Gives back the slots of a run that failed to publish: a fresh page
    /// goes back unopened — `bulk_append`'s `&mut self` makes it the last
    /// page handed out — and other slots join the free list.
    fn release_run(&self, run: &Run) {
        if run.fresh {
            let mut open = self.open.lock();
            debug_assert_eq!(run.page_offset, (open.pages - 1) * self.layout.page_size);
            open.page_offset = None;
            open.pages -= 1;
        } else {
            let slots = (run.first..run.first + run.len)
                .map(|slot| self.layout.slot_offset(run.page_offset, slot));
            self.free_slots.lock().extend(slots);
        }
    }

    /// Crash-safe publish of the encoded slots in `bytes`, every state
    /// byte `SLOT_FREE`, written from device offset `at`; the first `head`
    /// bytes are the header and padding of the page the run opens (0:
    /// none). The two steps of the module docs: [`RecordHeap::stage_run`],
    /// then [`RecordHeap::commit_run`] over the state bytes, now
    /// `SLOT_LIVE`.
    fn publish(&self, at: usize, bytes: &mut [u8], head: usize) -> Result<(), ViperError> {
        self.stage_run(at, bytes, head)?;
        let state = self.layout.state_offset(0);
        for slot in bytes[head..].chunks_mut(self.layout.stride()) {
            slot[state] = SLOT_LIVE;
        }
        // From the first slot's state byte through the last's.
        let (from, to) = (head + state, bytes.len() - self.layout.record_size() + state + 1);
        self.commit_run(at + from, &bytes[from..to])
    }

    /// A run's first step: one write of `bytes`, a flush per record (the
    /// first one also covering the `head` bytes of page header), a fence.
    /// The padding between records is not flushed: nothing reads it.
    fn stage_run(&self, at: usize, bytes: &[u8], head: usize) -> Result<(), ViperError> {
        self.write_retry(at, bytes)?;
        let (record, stride) = (self.layout.record_size(), self.layout.stride());
        let mut from = at;
        for to in (at + head + record..=at + bytes.len()).step_by(stride) {
            self.dev.try_flush(from, to - from)?;
            from = to - record + stride;
        }
        self.dev.try_fence()?;
        Ok(())
    }

    /// A run's second step: one write of `span`, which runs from the first
    /// slot's state byte at device offset `first_state` through the last
    /// one's, a flush per state byte, a fence.
    fn commit_run(&self, first_state: usize, span: &[u8]) -> Result<(), ViperError> {
        self.write_retry(first_state, span)?;
        for state in (first_state..first_state + span.len()).step_by(self.layout.stride()) {
            self.dev.try_flush(state, 1)?;
        }
        self.dev.try_fence()?;
        Ok(())
    }

    /// First half of a WAL-ordered append: allocates a slot and makes the
    /// record payload durable with the state byte still `SLOT_FREE`.
    /// Nothing is published — a crash (or an abandoned staging, see
    /// [`RecordHeap::recycle_slot`]) leaves the record invisible to both
    /// the rescan and WAL replay (replay re-validates the slot state).
    /// The caller logs the returned offset to the WAL and then calls
    /// [`RecordHeap::commit_append`].
    pub fn stage_append(&self, key: Key, value: &[u8]) -> Result<u64, ViperError> {
        let off = self.alloc_slot()?;
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let result = with_scratch(self.layout.record_size(), |buf| {
            self.layout.encode_record(key, seq, SLOT_FREE, value, buf);
            self.stage_run(off, buf, 0)
        });
        if let Err(e) = result {
            self.free_slots.lock().push(off);
            return Err(e);
        }
        Ok(off as u64)
    }

    /// Second half of a WAL-ordered append: flips the staged slot live.
    /// On failure the slot is recycled — its WAL record becomes an orphan
    /// that replay rejects (state never reached `SLOT_LIVE`, and a later
    /// occupant of the slot fails the replay key check).
    pub fn commit_append(&self, offset: u64) -> Result<(), ViperError> {
        let off = offset as usize;
        let result = self.commit_run(self.layout.state_offset(off), &[SLOT_LIVE]);
        if result.is_err() {
            self.free_slots.lock().push(off);
        }
        result
    }

    /// Returns a staged-but-never-committed slot to the free list (the
    /// caller failed between [`RecordHeap::stage_append`] and
    /// [`RecordHeap::commit_append`], e.g. on a WAL device error).
    pub(crate) fn recycle_slot(&self, offset: u64) {
        self.free_slots.lock().push(offset as usize);
    }

    /// Overwrites the value of `key`'s live record in place (same-size
    /// update), recomputing its checksum.
    ///
    /// `key ‖ seq` come back from the slot in one 16-byte read, and the
    /// stored key must be `key`: an index entry pointing at another key's
    /// record is refused ([`ViperError::IndexMismatch`]) rather than given
    /// this value under a checksum that would verify.
    ///
    /// The crc+value region is written as one contiguous store, but it is
    /// *not* crash-atomic: a crash mid-update can leave a mismatching
    /// checksum, and recovery will then quarantine the record (old value
    /// lost too). That is the inherent trade-off of in-place updates; use
    /// [`RecordHeap::replace`] for crash-safe out-of-place updates.
    pub fn update_in_place(&self, offset: u64, key: Key, value: &[u8]) -> Result<(), ViperError> {
        assert_eq!(value.len(), self.layout.value_size);
        let off = offset as usize;
        let _guard = self.stripe(off).lock();
        // Only the 16 bytes ahead of the state byte are fetched; the rest
        // of the header stays zero and is not looked at.
        let mut head = [0u8; SLOT_HEADER];
        self.dev.read_into(off, &mut head[..16]);
        let stored = RecordLayout::decode_header(&head);
        if stored.key != key {
            return Err(ViperError::IndexMismatch);
        }
        let crc = record_crc(key, stored.seq, value);
        let coff = self.layout.crc_offset(off);
        // crc (4B) is contiguous with the value: one write, one persist.
        with_scratch(4 + value.len(), |patch| {
            patch[..4].copy_from_slice(&crc.to_le_bytes());
            patch[4..].copy_from_slice(value);
            self.write_retry(coff, patch)?;
            self.dev.try_persist(coff, patch.len())?;
            Ok(())
        })
    }

    /// Crash-safe out-of-place update: appends a fresh record for `key`
    /// with a higher sequence, then retires the old slot. Returns the new
    /// offset. A crash in between leaves two live records; recovery keeps
    /// the higher sequence.
    ///
    /// A *transient* retirement failure after the successful append is
    /// swallowed: the new record is already durably published, so the
    /// update has happened — surfacing an error here would report a put as
    /// failed that recovery (higher sequence wins) would resurrect, the
    /// exact torn state the torture oracle flags. The un-retired slot is
    /// parked on the stale list for [`RecordHeap::sweep_stale`] instead.
    /// `Crashed` still propagates; an in-flight op at crash time may
    /// legally land either way.
    pub fn replace(&self, old_offset: u64, key: Key, value: &[u8]) -> Result<u64, ViperError> {
        let new_off = self.append(key, value)?;
        match self.mark_dead(old_offset) {
            Ok(()) => {}
            Err(e) if e.is_transient() => self.stale.lock().push(old_offset as usize),
            Err(e) => return Err(e),
        }
        Ok(new_off)
    }

    /// Reads the record at `offset` in one device access: the slot lands
    /// in a scratch, its value is copied into `value_buf` (must be
    /// value-sized) and its decoded header returned. What a foreign key or
    /// a non-live state means is the caller's call — a lock-free reader
    /// can find the slot recycled under it (see [`SlotHeader::holds`]).
    pub fn read(&self, offset: u64, value_buf: &mut [u8]) -> SlotHeader {
        assert_eq!(value_buf.len(), self.layout.value_size);
        with_scratch(self.layout.record_size(), |slot| {
            self.dev.read_into(offset as usize, slot);
            value_buf.copy_from_slice(&slot[SLOT_HEADER..]);
            RecordLayout::decode_header(slot)
        })
    }

    /// Reads only the key of the record at `offset`.
    pub fn read_key(&self, offset: u64) -> Key {
        self.dev.read_u64(offset as usize)
    }

    /// Marks the record dead and recycles its slot.
    pub fn mark_dead(&self, offset: u64) -> Result<(), ViperError> {
        let off = offset as usize;
        {
            let _guard = self.stripe(off).lock();
            self.write_retry(self.layout.state_offset(off), &[SLOT_DEAD])?;
            self.dev.try_persist(self.layout.state_offset(off), 1)?;
        }
        self.free_slots.lock().push(off);
        Ok(())
    }

    /// Recovery scan: walks all pages with a valid header and returns the
    /// `(key, offset)` of every live record, plus rebuilds the volatile
    /// allocation state (open-page cursor, free-slot list, publish
    /// sequence). See [`RecordHeap::recover_with_report`] for the full
    /// accounting.
    pub fn recover(dev: Arc<NvmDevice>, layout: RecordLayout) -> (Self, Vec<(Key, u64)>) {
        let (heap, live, _report) =
            Self::recover_with_report(dev, layout, RecoverOptions::default());
        (heap, live)
    }

    /// Recovery with explicit options and a report of what was found.
    ///
    /// Live records failing checksum verification are quarantined: skipped,
    /// counted, and their slots withheld from reuse. Multiple live records
    /// of one key (a crashed out-of-place update) are resolved by keeping
    /// the highest sequence; superseded slots are recycled.
    pub fn recover_with_report(
        dev: Arc<NvmDevice>,
        layout: RecordLayout,
        opts: RecoverOptions,
    ) -> (Self, Vec<(Key, u64)>, RecoveryReport) {
        let heap_capacity = opts
            .durability
            .and_then(|d| Geometry::compute(dev.capacity(), layout.page_size, &d))
            .map_or(dev.capacity(), |g| g.heap_capacity);
        let heap = RecordHeap::with_capacity(dev, layout, heap_capacity);
        let spp = layout.slots_per_page();
        let mut report = RecoveryReport::default();
        let mut free = Vec::new();
        let mut quarantined = Vec::new();
        // key -> (seq, offset) of the best live record seen so far.
        let mut best: HashMap<Key, (u64, u64)> = HashMap::new();
        let total_pages = heap.total_pages;
        let mut pages = PageReader::new(&heap.dev, layout);
        // Pass 1: find the last page with evidence of allocation. Pages are
        // allocated in order, but the header magic alone cannot bound the
        // scan: a dropped header flush leaves an allocated page — possibly
        // full of published records — without its magic. Any slot with a
        // non-free state byte is proof the page was allocated (unallocated
        // pages are all zeros, and slot writes only target allocated pages).
        // A page with its magic costs this pass eight bytes, not the page.
        let mut last_evidence: Option<usize> = None;
        for page in 0..total_pages {
            let page_offset = page * layout.page_size;
            if heap.dev.read_u64(page_offset) == PAGE_MAGIC {
                last_evidence = Some(page);
                continue;
            }
            for slot in 0..spp {
                let slot_buf = pages.slot(layout.slot_offset(page_offset, slot));
                if RecordLayout::decode_header(slot_buf).state != SLOT_FREE {
                    last_evidence = Some(page);
                    break;
                }
            }
        }
        let pages_allocated = last_evidence.map_or(0, |p| p + 1);
        // Pass 2: account every slot of every allocated page.
        for page in 0..pages_allocated {
            let page_offset = page * layout.page_size;
            if !pages.page(page_offset).starts_with(&PAGE_MAGIC.to_le_bytes()) {
                // Salvaged page: re-stamp the header, best effort — if the
                // write faults, the next recovery simply salvages it again.
                report.pages_healed += 1;
                if heap.dev.try_write(page_offset, &page_header()).is_ok() {
                    let _ = heap.dev.try_persist(page_offset, PAGE_HEADER);
                }
            }
            for slot in 0..spp {
                let off = layout.slot_offset(page_offset, slot);
                let slot_buf = pages.slot(off);
                let header = RecordLayout::decode_header(slot_buf);
                // Free slots may hold stale or torn bytes: they are only
                // recycled, never checksummed.
                if header.state == SLOT_FREE {
                    free.push(off);
                    continue;
                }
                // Only records that round-trip their checksum advance the
                // sequence.
                let crc_ok = layout.verify_slot(slot_buf);
                if crc_ok {
                    report.max_seq = report.max_seq.max(header.seq);
                }
                match header.state {
                    SLOT_LIVE => {
                        if opts.verify_checksums && !crc_ok {
                            // Published but not matching its own checksum:
                            // the device lied about a flush or tore the
                            // payload. Skip, count, withhold from reuse —
                            // and remember the offset so the online repair
                            // pass can resolve it later.
                            report.quarantined += 1;
                            quarantined.push(off);
                            continue;
                        }
                        match best.entry(header.key) {
                            std::collections::hash_map::Entry::Vacant(e) => {
                                e.insert((header.seq, off as u64));
                            }
                            std::collections::hash_map::Entry::Occupied(mut e) => {
                                report.duplicates_dropped += 1;
                                let (prev_seq, prev_off) = *e.get();
                                if header.seq > prev_seq {
                                    e.insert((header.seq, off as u64));
                                    free.push(prev_off as usize);
                                } else {
                                    free.push(off);
                                }
                            }
                        }
                    }
                    _ => free.push(off),
                }
            }
        }
        report.pages_scanned = pages_allocated;
        let live: Vec<(Key, u64)> = best.into_iter().map(|(k, (_seq, off))| (k, off)).collect();
        report.live = live.len();
        heap.open.lock().pages = pages_allocated;
        *heap.free_slots.lock() = free;
        *heap.quarantined.lock() = quarantined;
        heap.next_seq.store(report.max_seq + 1, Ordering::Relaxed);
        // All recovered pages are fully accounted for (their free slots are
        // in the free list), so no open page is needed.
        (heap, live, report)
    }

    /// Rebuilds a heap's volatile state from a checkpoint instead of a
    /// page scan: page hand-out resumes past the checkpointed high-water
    /// mark `pages_hwm` and the publish sequence past `next_seq`. Free and
    /// dead slots below the high-water mark are *not* rediscovered (that
    /// would be the scan this path exists to avoid) — they are reclaimed
    /// by the next full-rescan recovery; until then the heap only loses
    /// reuse, never correctness.
    pub fn from_checkpoint(
        dev: Arc<NvmDevice>,
        layout: RecordLayout,
        heap_capacity: usize,
        pages_hwm: usize,
        next_seq: u64,
    ) -> Self {
        let heap = RecordHeap::with_capacity(dev, layout, heap_capacity);
        heap.open.lock().pages = pages_hwm.min(heap.total_pages);
        heap.next_seq.store(next_seq.max(1), Ordering::Relaxed);
        heap
    }

    /// Pages handed out so far (the checkpoint high-water mark).
    pub fn pages_allocated(&self) -> usize {
        self.open.lock().pages
    }

    /// The publish sequence the next append will take — checkpointed so a
    /// fast-path recovery can resume it without rescanning for the max.
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Parks a live slot on the stale list for [`RecordHeap::sweep_stale`]
    /// to retire. Used by the store's durable delete when the retirement
    /// hit a transient fault *after* the delete was WAL-logged: rolling
    /// back would contradict the log (replay applies the delete), so the
    /// slot is parked and the delete acknowledged.
    pub(crate) fn park_stale(&self, offset: u64) {
        self.stale.lock().push(offset as usize);
    }

    /// Adds slots the checkpoint fast path found corrupt to the
    /// quarantine list (skipping any already present), mirroring what the
    /// full rescan does for checksum mismatches.
    pub(crate) fn adopt_quarantined(&self, slots: &[u64]) {
        let mut q = self.quarantined.lock();
        for &off in slots {
            let off = off as usize;
            if !q.contains(&off) {
                q.push(off);
            }
        }
    }

    /// Snapshot of every live, checksum-valid record as sorted
    /// `(key, offset)` pairs — the entry table of a base image when the
    /// store has no verified image left to fold (checkpoints otherwise
    /// never read the heap). It reads every page handed out, `0..`
    /// [`RecordHeap::pages_allocated`]; a page is never taken back, so
    /// that range holds every record the heap ever published. Duplicate
    /// live records of one key (a swallowed retirement) resolve
    /// to the highest sequence, exactly as recovery would; slots parked on
    /// the stale list are excluded (a WAL-logged delete whose retirement
    /// faulted leaves its victim live on the device — snapshotting it
    /// would resurrect an acknowledged delete). The caller must hold off
    /// logged mutations for the duration (the store's checkpoint path is
    /// quiescent by construction).
    pub fn scan_live(&self) -> Vec<(Key, u64)> {
        let spp = self.layout.slots_per_page();
        let stale: std::collections::HashSet<usize> = self.stale.lock().iter().copied().collect();
        let mut best: HashMap<Key, (u64, u64)> = HashMap::new();
        let mut pages = PageReader::new(&self.dev, self.layout);
        for page in 0..self.pages_allocated() {
            let page_offset = page * self.layout.page_size;
            for slot in 0..spp {
                let off = self.layout.slot_offset(page_offset, slot);
                if stale.contains(&off) {
                    continue;
                }
                let slot_buf = pages.slot(off);
                let header = RecordLayout::decode_header(slot_buf);
                if header.state != SLOT_LIVE || !self.layout.verify_slot(slot_buf) {
                    continue;
                }
                match best.entry(header.key) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert((header.seq, off as u64));
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        if header.seq > e.get().0 {
                            e.insert((header.seq, off as u64));
                        }
                    }
                }
            }
        }
        let mut live: Vec<(Key, u64)> = best.into_iter().map(|(k, (_seq, off))| (k, off)).collect();
        live.sort_unstable_by_key(|&(k, _)| k);
        live
    }

    /// Bytes of NVM in use (pages handed out).
    pub fn nvm_bytes_used(&self) -> usize {
        self.pages_allocated() * self.layout.page_size
    }

    /// State byte of the slot at `offset` as currently visible.
    pub fn slot_state(&self, offset: u64) -> u8 {
        let mut b = [0u8; 1];
        self.dev.read_into(self.layout.state_offset(offset as usize), &mut b);
        b[0]
    }

    /// Whether an append could make progress right now: a recycled slot,
    /// headroom in the open page, or a page not yet handed out — and no
    /// injected device-full window. Probing does not advance the device's
    /// op clock, so polling this is free under fault injection.
    pub fn has_free_capacity(&self) -> bool {
        if self.dev.injected_device_full() {
            return false;
        }
        if !self.free_slots.lock().is_empty() {
            return true;
        }
        let open = self.open.lock();
        let headroom = open.page_offset.is_some() && open.next_slot < self.layout.slots_per_page();
        headroom || open.pages < self.total_pages
    }

    /// Offsets of slots recovery quarantined, still awaiting repair.
    pub fn quarantined_slots(&self) -> Vec<u64> {
        self.quarantined.lock().iter().map(|&o| o as u64).collect()
    }

    /// Number of slots still quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.lock().len()
    }

    /// Releases a quarantined slot back into circulation after the repair
    /// pass resolved it (superseded by a live record, or its payload
    /// written off as lost): marks it dead durably and recycles it.
    /// Returns `false` when `offset` is not quarantined. On failure the
    /// slot goes back into quarantine so a later pass retries.
    pub fn reclaim_quarantined(&self, offset: u64) -> Result<bool, ViperError> {
        let off = offset as usize;
        {
            let mut q = self.quarantined.lock();
            let Some(pos) = q.iter().position(|&o| o == off) else {
                return Ok(false);
            };
            q.swap_remove(pos);
        }
        match self.mark_dead(offset) {
            Ok(()) => Ok(true),
            Err(e) => {
                self.quarantined.lock().push(off);
                Err(e)
            }
        }
    }

    /// Number of superseded-but-unretired slots awaiting the sweep.
    pub fn stale_count(&self) -> usize {
        self.stale.lock().len()
    }

    /// Retires slots parked by [`RecordHeap::replace`] after a transient
    /// retirement failure. `still_current(key, offset)` must return
    /// whether the index still maps `key` to this exact slot — a candidate
    /// the index still references is kept for a later sweep (the parked
    /// entry may race the caller's index update), everything else is
    /// marked dead and recycled. Returns the number of slots retired.
    pub fn sweep_stale(&self, still_current: impl Fn(Key, u64) -> bool) -> usize {
        let candidates = std::mem::take(&mut *self.stale.lock());
        let mut retired = 0;
        for off in candidates {
            let offset = off as u64;
            if self.slot_state(offset) != SLOT_LIVE {
                continue; // already retired by a competing path
            }
            let key = self.read_key(offset);
            if still_current(key, offset) {
                self.stale.lock().push(off);
                continue;
            }
            match self.mark_dead(offset) {
                Ok(()) => retired += 1,
                Err(_) => self.stale.lock().push(off),
            }
        }
        retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use li_nvm::NvmConfig;

    fn heap(cap: usize) -> RecordHeap {
        RecordHeap::new(Arc::new(NvmDevice::new(NvmConfig::fast(cap))), RecordLayout::small())
    }

    fn val(layout: &RecordLayout, b: u8) -> Vec<u8> {
        vec![b; layout.value_size]
    }

    #[test]
    fn append_read_roundtrip() {
        let h = heap(1 << 20);
        let l = h.layout();
        let off = h.append(42, &val(&l, 7)).unwrap();
        let mut buf = vec![0u8; l.value_size];
        assert_eq!(h.read(off, &mut buf).key, 42);
        assert_eq!(buf, val(&l, 7));
        assert_eq!(h.read_key(off), 42);
    }

    #[test]
    fn update_in_place_visible() {
        let h = heap(1 << 20);
        let l = h.layout();
        let off = h.append(1, &val(&l, 1)).unwrap();
        h.update_in_place(off, 1, &val(&l, 9)).unwrap();
        let mut buf = vec![0u8; l.value_size];
        assert_eq!(h.read(off, &mut buf).key, 1);
        assert_eq!(buf, val(&l, 9));
    }

    #[test]
    fn update_in_place_refuses_another_keys_slot() {
        let h = heap(1 << 20);
        let l = h.layout();
        let off = h.append(1, &val(&l, 1)).unwrap();
        let before = h.device().stats().snapshot();
        assert_eq!(h.update_in_place(off, 2, &val(&l, 9)), Err(ViperError::IndexMismatch));
        assert_eq!(h.device().stats().snapshot().writes, before.writes, "nothing written");
        let mut buf = vec![0u8; l.value_size];
        assert_eq!(h.read(off, &mut buf).key, 1);
        assert_eq!(buf, val(&l, 1));
    }

    #[test]
    fn update_in_place_keeps_checksum_valid() {
        let dev = Arc::new(NvmDevice::new(NvmConfig::fast(1 << 20)));
        let l = RecordLayout::small();
        let h = RecordHeap::new(Arc::clone(&dev), l);
        let off = h.append(5, &val(&l, 1)).unwrap();
        h.update_in_place(off, 5, &val(&l, 200)).unwrap();
        drop(h);
        let (_, live, report) = RecordHeap::recover_with_report(dev, l, RecoverOptions::default());
        assert_eq!(report.quarantined, 0);
        assert_eq!(live, vec![(5, off)]);
    }

    #[test]
    fn replace_is_out_of_place_and_recoverable() {
        let dev = Arc::new(NvmDevice::new(NvmConfig::fast(1 << 20)));
        let l = RecordLayout::small();
        let h = RecordHeap::new(Arc::clone(&dev), l);
        let off = h.append(5, &val(&l, 1)).unwrap();
        let off2 = h.replace(off, 5, &val(&l, 2)).unwrap();
        assert_ne!(off, off2);
        let mut buf = vec![0u8; l.value_size];
        assert_eq!(h.read(off2, &mut buf).key, 5);
        assert_eq!(buf, val(&l, 2));
        drop(h);
        let (h2, live, report) = RecordHeap::recover_with_report(dev, l, RecoverOptions::default());
        assert_eq!(live, vec![(5, off2)]);
        assert_eq!(report.duplicates_dropped, 0, "old slot was retired");
        assert_eq!(h2.read(off2, &mut buf).key, 5);
        assert_eq!(buf, val(&l, 2));
    }

    #[test]
    fn duplicate_live_records_resolved_by_seq() {
        // Simulate a crashed out-of-place update: two live records of one
        // key; recovery must keep the later (higher-seq) one.
        let dev = Arc::new(NvmDevice::new(NvmConfig::fast(1 << 20)));
        let l = RecordLayout::small();
        let h = RecordHeap::new(Arc::clone(&dev), l);
        let off_old = h.append(9, &val(&l, 1)).unwrap();
        let off_new = h.append(9, &val(&l, 2)).unwrap(); // old never retired
        drop(h);
        let (h2, live, report) = RecordHeap::recover_with_report(dev, l, RecoverOptions::default());
        assert_eq!(report.duplicates_dropped, 1);
        assert_eq!(live, vec![(9, off_new)]);
        // The superseded slot is recycled: filling the recovered page's
        // free slots reuses it without allocating a new page.
        let used = h2.nvm_bytes_used();
        let mut reused = Vec::new();
        for k in 0..(l.slots_per_page() as u64 - 1) {
            reused.push(h2.append(100 + k, &val(&l, 3)).unwrap());
        }
        assert!(reused.contains(&off_old), "superseded slot never reused");
        assert_eq!(h2.nvm_bytes_used(), used, "no new page needed");
        // And new sequences continue past the recovered maximum.
        let mut buf = vec![0u8; l.value_size];
        assert_eq!(h2.read(off_new, &mut buf).key, 9);
        assert_eq!(buf, val(&l, 2));
    }

    #[test]
    fn dead_slots_recycled() {
        let h = heap(1 << 20);
        let l = h.layout();
        let off = h.append(1, &val(&l, 1)).unwrap();
        h.mark_dead(off).unwrap();
        let off2 = h.append(2, &val(&l, 2)).unwrap();
        assert_eq!(off, off2, "freed slot reused");
    }

    #[test]
    fn many_pages_allocated() {
        let h = heap(1 << 20);
        let l = h.layout();
        let spp = l.slots_per_page();
        let n = spp * 3 + 5;
        let offs: Vec<u64> =
            (0..n as u64).map(|k| h.append(k, &val(&l, k as u8)).unwrap()).collect();
        assert!(h.nvm_bytes_used() >= 4 * l.page_size);
        let mut buf = vec![0u8; l.value_size];
        for (k, &off) in offs.iter().enumerate() {
            assert_eq!(h.read(off, &mut buf).key, k as u64);
        }
    }

    #[test]
    fn recovery_finds_live_records() {
        let dev = Arc::new(NvmDevice::new(NvmConfig::fast(1 << 20)));
        let l = RecordLayout::small();
        let h = RecordHeap::new(Arc::clone(&dev), l);
        let mut expect = Vec::new();
        for k in 0..500u64 {
            let off = h.append(k, &val(&l, k as u8)).unwrap();
            if k % 5 == 0 {
                h.mark_dead(off).unwrap();
            } else {
                expect.push((k, off));
            }
        }
        drop(h);
        let (h2, mut live) = RecordHeap::recover(dev, l);
        live.sort_unstable();
        expect.sort_unstable();
        assert_eq!(live, expect);
        // Recovered heap keeps appending without clobbering live data.
        let off_new = h2.append(10_000, &val(&l, 0xee)).unwrap();
        let mut buf = vec![0u8; l.value_size];
        assert_eq!(h2.read(off_new, &mut buf).key, 10_000);
        for &(k, off) in &expect {
            assert_eq!(h2.read(off, &mut buf).key, k, "record {k} clobbered");
        }
    }

    #[test]
    fn crash_before_publish_leaves_slot_free() {
        let dev = Arc::new(NvmDevice::new(NvmConfig::fast_with_crash(1 << 20)));
        let l = RecordLayout::small();
        let h = RecordHeap::new(Arc::clone(&dev), l);
        // Durable record.
        h.append(1, &val(&l, 1)).unwrap();
        // Write key+value but crash before anything is flushed.
        let off = h.alloc_slot().unwrap();
        let mut buf = vec![0u8; l.record_size()];
        l.encode_record(2, 99, SLOT_LIVE, &val(&l, 2), &mut buf);
        dev.write(off, &buf); // never flushed/fenced
        drop(h);
        let mut dev_owned = Arc::try_unwrap(dev).ok().expect("unique");
        dev_owned.crash();
        let (_, live) = RecordHeap::recover(Arc::new(dev_owned), l);
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].0, 1);
    }

    #[test]
    fn recovery_quarantines_corrupt_live_slot() {
        let dev = Arc::new(NvmDevice::new(NvmConfig::fast(1 << 20)));
        let l = RecordLayout::small();
        let h = RecordHeap::new(Arc::clone(&dev), l);
        let off_good = h.append(1, &val(&l, 1)).unwrap();
        let off_bad = h.append(2, &val(&l, 2)).unwrap();
        drop(h);
        // Corrupt the published record's payload behind the CRC's back,
        // modelling a dropped flush that left stale bytes durable.
        let voff = l.value_offset(off_bad as usize);
        dev.write(voff, &val(&l, 0xAA));
        dev.persist(voff, l.value_size);
        let (_, live, report) =
            RecordHeap::recover_with_report(Arc::clone(&dev), l, RecoverOptions::default());
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.live, 1);
        assert_eq!(live, vec![(1, off_good)]);
        // With verification off, the corrupt record is trusted — the
        // pre-hardening behaviour.
        let (_, live_unverified, report2) = RecordHeap::recover_with_report(
            dev,
            l,
            RecoverOptions { verify_checksums: false, ..RecoverOptions::default() },
        );
        assert_eq!(report2.quarantined, 0);
        assert_eq!(live_unverified.len(), 2);
    }

    #[test]
    fn quarantined_slot_not_reused() {
        let dev = Arc::new(NvmDevice::new(NvmConfig::fast(1 << 20)));
        let l = RecordLayout::small();
        let h = RecordHeap::new(Arc::clone(&dev), l);
        let off_bad = h.append(2, &val(&l, 2)).unwrap();
        drop(h);
        dev.write(l.value_offset(off_bad as usize), &val(&l, 0xAA));
        let (h2, _, report) = RecordHeap::recover_with_report(dev, l, RecoverOptions::default());
        assert_eq!(report.quarantined, 1);
        // Fresh appends must not land on the quarantined slot.
        for k in 0..50u64 {
            assert_ne!(h2.append(100 + k, &val(&l, 7)).unwrap(), off_bad);
        }
    }

    #[test]
    fn exhaustion_returns_error() {
        let h = heap(8 * 1024); // two small pages
        let l = h.layout();
        let mut offs = Vec::new();
        let err = loop {
            match h.append(offs.len() as u64, &val(&l, 0)) {
                Ok(off) => offs.push(off),
                Err(e) => break e,
            }
        };
        assert_eq!(err, ViperError::DeviceFull);
        assert!(!offs.is_empty(), "some appends must have succeeded");
        // Exhaustion is sticky for appends but reads keep working.
        assert_eq!(h.append(u64::MAX, &val(&l, 0)), Err(ViperError::DeviceFull));
        let mut buf = vec![0u8; l.value_size];
        assert_eq!(h.read(offs[0], &mut buf).key, 0);
        // Deleting makes room again: exhaustion is recoverable, not fatal.
        h.mark_dead(offs[0]).unwrap();
        assert!(h.append(u64::MAX, &val(&l, 1)).is_ok());
    }

    #[test]
    fn replace_swallows_transient_retirement_failure() {
        use li_nvm::{Fault, FaultPlan};
        // Dry run on a clean device to find the op-counter position where
        // replace()'s internal append ends and mark_dead begins.
        let l = RecordLayout::small();
        let ops_before_retire = {
            let dev = Arc::new(NvmDevice::new(NvmConfig::fast(1 << 20)));
            let h = RecordHeap::new(Arc::clone(&dev), l);
            h.append(1, &val(&l, 1)).unwrap();
            h.append(1, &val(&l, 2)).unwrap();
            let s = dev.stats().snapshot();
            s.writes + s.flushes + s.fences
        };
        // Real run: a write-failure burst wide enough to cover mark_dead's
        // whole retry budget even if the measured position is off by two.
        let mut plan = FaultPlan::none();
        for op in ops_before_retire.saturating_sub(2)..ops_before_retire + 10 {
            plan = plan.with(Fault::FailedWrite { op });
        }
        let dev = Arc::new(NvmDevice::with_faults(NvmConfig::fast(1 << 20), &plan));
        let h = RecordHeap::new(Arc::clone(&dev), l);
        let old = h.append(1, &val(&l, 1)).unwrap();
        let new = h.replace(old, 1, &val(&l, 2)).expect("transient retirement must be swallowed");
        assert_ne!(old, new);
        assert_eq!(h.stale_count(), 1, "un-retired slot parked for the sweep");
        assert!(dev.fault_counters().failed_writes >= 8, "burst must exhaust the retry budget");
        let mut buf = vec![0u8; l.value_size];
        assert_eq!(h.read(new, &mut buf).key, 1);
        assert_eq!(buf, val(&l, 2));
        // The sweep retires the stale slot once the burst has passed. The
        // "index" maps key 1 to the new offset, so the old one is fair game.
        assert_eq!(h.sweep_stale(|k, off| k == 1 && off == new), 1);
        assert_eq!(h.stale_count(), 0);
        assert_eq!(h.slot_state(old), SLOT_DEAD);
        // Recovery agrees with the swallowed result: the put happened.
        drop(h);
        let (_, live, report) = RecordHeap::recover_with_report(dev, l, RecoverOptions::default());
        assert_eq!(live, vec![(1, new)]);
        assert_eq!(report.quarantined, 0);
    }

    #[test]
    fn replace_without_sweep_still_recovers_to_new_value() {
        use li_nvm::{Fault, FaultPlan};
        let l = RecordLayout::small();
        let ops_before_retire = {
            let dev = Arc::new(NvmDevice::new(NvmConfig::fast(1 << 20)));
            let h = RecordHeap::new(Arc::clone(&dev), l);
            h.append(1, &val(&l, 1)).unwrap();
            h.append(1, &val(&l, 2)).unwrap();
            let s = dev.stats().snapshot();
            s.writes + s.flushes + s.fences
        };
        let mut plan = FaultPlan::none();
        for op in ops_before_retire.saturating_sub(2)..ops_before_retire + 10 {
            plan = plan.with(Fault::FailedWrite { op });
        }
        let dev = Arc::new(NvmDevice::with_faults(NvmConfig::fast(1 << 20), &plan));
        let h = RecordHeap::new(Arc::clone(&dev), l);
        let old = h.append(1, &val(&l, 1)).unwrap();
        let new = h.replace(old, 1, &val(&l, 2)).unwrap();
        // No sweep: the old slot stays live. Duplicate-by-seq resolution
        // must still surface only the acknowledged (newer) record.
        drop(h);
        let (_, live, report) = RecordHeap::recover_with_report(dev, l, RecoverOptions::default());
        assert_eq!(live, vec![(1, new)]);
        assert_eq!(report.duplicates_dropped, 1);
    }

    #[test]
    fn retry_events_match_observed_failed_writes() {
        use li_core::telemetry::{Event, Recorder};
        use li_nvm::{Fault, FaultPlan};
        // Faults only fire when their op lands on a write, so schedule
        // short bursts (< the in-heap retry budget): once a write hits the
        // head of a burst, its retries walk through the rest of it.
        let mut plan = FaultPlan::none();
        for op in [3u64, 4, 5, 30, 31, 32] {
            plan = plan.with(Fault::FailedWrite { op });
        }
        let dev = Arc::new(NvmDevice::with_faults(NvmConfig::fast(1 << 20), &plan));
        let l = RecordLayout::small();
        let mut h = RecordHeap::new(Arc::clone(&dev), l);
        let rec = Recorder::enabled();
        h.set_recorder(rec.clone());
        for k in 0..50u64 {
            h.append(k, &val(&l, k as u8)).unwrap();
        }
        let observed = dev.fault_counters().failed_writes;
        assert!(observed >= 3, "at least the op-3 burst must land on a write");
        assert_eq!(rec.snapshot().event(Event::Retry), observed);
    }

    #[test]
    fn exhausted_heap_regains_capacity_from_dead_slots() {
        let h = heap(8 * 1024);
        let l = h.layout();
        let mut offs = Vec::new();
        while let Ok(off) = h.append(offs.len() as u64, &val(&l, 0)) {
            offs.push(off);
        }
        assert!(!h.has_free_capacity());
        let spp = l.slots_per_page();
        for &off in &offs[..spp] {
            h.mark_dead(off).unwrap();
        }
        assert!(h.has_free_capacity(), "recycled slots count as capacity");
        assert!(h.append(u64::MAX, &val(&l, 1)).is_ok());
    }

    #[test]
    fn quarantined_slots_are_retained_and_reclaimable() {
        let dev = Arc::new(NvmDevice::new(NvmConfig::fast(1 << 20)));
        let l = RecordLayout::small();
        let h = RecordHeap::new(Arc::clone(&dev), l);
        let off_good = h.append(1, &val(&l, 1)).unwrap();
        let off_bad = h.append(2, &val(&l, 2)).unwrap();
        drop(h);
        dev.write(l.value_offset(off_bad as usize), &val(&l, 0xAA));
        let (h2, live, report) = RecordHeap::recover_with_report(dev, l, RecoverOptions::default());
        assert_eq!(report.quarantined, 1);
        assert_eq!(h2.quarantined_slots(), vec![off_bad]);
        assert_eq!(live, vec![(1, off_good)]);
        // Unknown offsets are refused; the real one reclaims exactly once.
        assert_eq!(h2.reclaim_quarantined(off_good), Ok(false));
        assert_eq!(h2.reclaim_quarantined(off_bad), Ok(true));
        assert_eq!(h2.quarantined_count(), 0);
        assert_eq!(h2.reclaim_quarantined(off_bad), Ok(false));
        assert_eq!(h2.slot_state(off_bad), SLOT_DEAD);
        // The reclaimed slot re-enters circulation.
        assert_eq!(h2.append(3, &val(&l, 3)).unwrap(), off_bad);
    }

    #[test]
    fn concurrent_appends_and_reads() {
        let h = Arc::new(heap(1 << 22));
        let l = h.layout();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let h = Arc::clone(&h);
            let v = val(&l, t as u8);
            handles.push(li_sync::thread::spawn(move || {
                let mut offs = Vec::new();
                for i in 0..500u64 {
                    offs.push((t * 1000 + i, h.append(t * 1000 + i, &v).unwrap()));
                }
                offs
            }));
        }
        let mut buf = vec![0u8; l.value_size];
        for hd in handles {
            for (k, off) in hd.join().unwrap() {
                assert_eq!(h.read(off, &mut buf).key, k);
            }
        }
    }
}
