//! Write-ahead log with group commit, living in a dedicated region of the
//! same `li-nvm` device as the record heap.
//!
//! The log is a **ring of fixed-size records** addressed by LSN:
//!
//! ```text
//! record (32 B): lsn(8) ‖ key(8) ‖ offset(8) ‖ op(1) ‖ pad(3) ‖ crc32c(4)
//! slot index   = lsn % nslots          (LSNs start at 1, grow forever)
//! ```
//!
//! The ring is never zeroed and the head is never reset: a slot's previous
//! occupant always carries an LSN exactly `nslots` smaller than the record
//! that replaces it, so replay can tell live tail records from stale ones
//! purely by the LSN embedded in each record, with the CRC guarding
//! against torn or half-flushed records. When the un-checkpointed span
//! reaches `nslots`, [`Wal::append`] refuses with [`WalFull`] — the caller
//! must checkpoint (which advances `start_lsn`) and retry.
//!
//! **Group commit**: appends write their record under the append lock and
//! then wait for a *commit leader*. The first appender that finds no
//! leader active becomes one: it flushes every record of the dirty range
//! (one flush per record — see below) and issues **one** fence for the
//! entire batch, in one device call whose waits chain, then publishes the
//! new committed LSN. Concurrent appenders therefore share the fence — the device's fence counter grows
//! strictly slower than the append count under concurrency, which
//! `tests/telemetry_causality.rs` asserts.
//!
//! Flushes are deliberately *per record*, not one range flush per batch:
//! a lying device (`li_nvm::Fault::DroppedFlush`) drops one flush op, and
//! with per-record flushes that costs exactly one WAL record. A single
//! range flush would let one dropped flush silently lose the whole batch,
//! busting the crash-torture oracle's per-fault loss budget.
//!
//! **Replay** ([`Wal::replay`]) examines every candidate LSN past a
//! checkpoint watermark (at most `nslots`). A CRC-valid record whose
//! embedded LSN matches its position is part of the tail; any non-matching
//! slot *before the last matching record* is a **hole** — a dropped WAL
//! flush or a torn append, costing exactly the one operation it logged —
//! and slots after the last match are the genuine tail. The caller counts
//! holes as quarantined records, keeping the oracle budget intact.

use li_sync::sync::Mutex;
use std::sync::Arc;

use li_core::telemetry::{Event, Recorder};
use li_core::Key;
use li_nvm::{NvmDevice, NvmError};

use crate::error::ViperError;
use crate::layout::Crc32;

/// Bytes per WAL record (fixed framing, see module docs).
pub const WAL_RECORD: usize = 32;

/// Operation tag of a put/update WAL record.
pub const WAL_OP_PUT: u8 = 1;
/// Operation tag of a delete WAL record.
pub const WAL_OP_DELETE: u8 = 2;

/// Injected transient write failures are retried this many times before
/// the write gives up and surfaces the fault.
const WRITE_RETRIES: usize = 8;

/// Writes with bounded retry of injected transient failures, emitting one
/// [`Event::Retry`] per failure observed — including the final one when
/// the budget is exhausted. With [`write_persist_retry`], the one retrying
/// write of the record heap, the WAL and the checkpoint writer, so the
/// torture harness's retry-causality check spans all three.
pub(crate) fn write_retry(
    dev: &NvmDevice,
    recorder: &Recorder,
    offset: usize,
    data: &[u8],
) -> Result<(), ViperError> {
    retry_write(recorder, || dev.try_write(offset, data))
}

/// [`write_retry`] of `data`, then a flush of each of `ranges` and one
/// fence, as one device call ([`NvmDevice::try_write_persist`]) whose
/// waits chain. A failed attempt failed at its write, before any flush,
/// so the device sees the same op sequence as the separate calls.
pub(crate) fn write_persist_retry<I>(
    dev: &NvmDevice,
    recorder: &Recorder,
    offset: usize,
    data: &[u8],
    ranges: I,
) -> Result<(), ViperError>
where
    I: IntoIterator<Item = (usize, usize)> + Clone,
{
    retry_write(recorder, || dev.try_write_persist(offset, data, ranges.clone()))
}

fn retry_write(
    recorder: &Recorder,
    mut attempt: impl FnMut() -> Result<(), NvmError>,
) -> Result<(), ViperError> {
    for _ in 0..WRITE_RETRIES {
        match attempt() {
            Ok(()) => return Ok(()),
            Err(NvmError::WriteFailed) => recorder.event(Event::Retry),
            Err(e) => return Err(e.into()),
        }
    }
    Err(ViperError::Nvm(NvmError::WriteFailed))
}

/// One decoded, CRC-valid WAL record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecord {
    pub lsn: u64,
    pub key: Key,
    /// Heap slot offset the operation published (puts) or retired
    /// (deletes; informational — replay removes by key).
    pub offset: u64,
    pub op: u8,
}

impl WalRecord {
    fn encode(&self, buf: &mut [u8; WAL_RECORD]) {
        buf[..8].copy_from_slice(&self.lsn.to_le_bytes());
        buf[8..16].copy_from_slice(&self.key.to_le_bytes());
        buf[16..24].copy_from_slice(&self.offset.to_le_bytes());
        buf[24] = self.op;
        buf[25..28].fill(0);
        let mut crc = Crc32::new();
        crc.update(&buf[..28]);
        buf[28..].copy_from_slice(&crc.finish().to_le_bytes());
    }

    /// Decodes a slot; `None` when the CRC does not cover the content
    /// (torn record, dropped flush, or never-written slot).
    fn decode(buf: &[u8; WAL_RECORD]) -> Option<WalRecord> {
        let mut crc = Crc32::new();
        crc.update(&buf[..28]);
        let stored = u32::from_le_bytes(buf[28..32].try_into().ok()?);
        if crc.finish() != stored {
            return None;
        }
        Some(WalRecord {
            lsn: u64::from_le_bytes(buf[..8].try_into().ok()?),
            key: u64::from_le_bytes(buf[8..16].try_into().ok()?),
            offset: u64::from_le_bytes(buf[16..24].try_into().ok()?),
            op: buf[24],
        })
    }
}

/// What [`Wal::replay`] reconstructed from the log tail.
#[derive(Debug, Default)]
pub struct ReplaySummary {
    /// CRC-valid records applied, in LSN order.
    pub records: Vec<WalRecord>,
    /// Holes skipped: slots before the last chain record whose content
    /// failed to decode at their LSN (a dropped WAL flush or a torn
    /// append). Each costs at most the one operation it logged.
    pub holes: usize,
    /// LSN after the last chain record; the WAL resumes appending here.
    pub next_lsn: u64,
}

/// Append-side state guarded by the append lock.
// These are three different LSNs, not a postfix naming accident.
#[allow(clippy::struct_field_names)]
struct AppendState {
    /// LSN the next append will take.
    next_lsn: u64,
    /// Oldest LSN still needed for recovery (watermark + 1). Advanced by
    /// checkpoints; `next_lsn - start_lsn` is the un-checkpointed span.
    start_lsn: u64,
    /// Highest LSN written to the device (`committed_lsn..=written_lsn`
    /// is the dirty range awaiting a group commit).
    written_lsn: u64,
}

/// Commit-side state guarded by the commit lock (separate from the append
/// lock so appenders keep writing while a leader flushes).
struct CommitState {
    /// Highest LSN known durable (flushed + fenced).
    committed_lsn: u64,
    /// Whether a leader is currently flushing.
    leader_active: bool,
}

/// The write-ahead log over `[base, base + nslots * WAL_RECORD)` of `dev`.
pub struct Wal {
    dev: Arc<NvmDevice>,
    base: usize,
    nslots: u64,
    append: Mutex<AppendState>,
    commit: Mutex<CommitState>,
    recorder: Recorder,
}

/// `append` refused because the un-checkpointed span fills the ring; the
/// caller must checkpoint (advancing the start LSN) and retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalFull;

impl Wal {
    /// Creates a WAL over the given device region, resuming at
    /// `start_lsn` (≥ 1; everything below it is considered durable
    /// elsewhere). `nslots` must be ≥ 2.
    pub fn new(dev: Arc<NvmDevice>, base: usize, nslots: u64, start_lsn: u64) -> Self {
        debug_assert!(nslots >= 2, "WAL ring needs at least two slots");
        debug_assert!(start_lsn >= 1, "LSNs start at 1");
        Wal {
            dev,
            base,
            nslots,
            append: Mutex::with_class(
                li_sync::lock_class!("wal-append"),
                AppendState { next_lsn: start_lsn, start_lsn, written_lsn: start_lsn - 1 },
            ),
            commit: Mutex::with_class(
                li_sync::lock_class!("wal-fence"),
                CommitState { committed_lsn: start_lsn - 1, leader_active: false },
            ),
            recorder: Recorder::disabled(),
        }
    }

    /// Re-opens a recovered WAL: appending resumes at `next_lsn` while
    /// `start_lsn` (the last trusted checkpoint watermark + 1) still marks
    /// the oldest record recovery would need, so the [`WalFull`] guard
    /// keeps protecting the un-checkpointed span until the post-recovery
    /// checkpoint succeeds and advances the start.
    pub fn resume(
        dev: Arc<NvmDevice>,
        base: usize,
        nslots: u64,
        start_lsn: u64,
        next_lsn: u64,
    ) -> Self {
        debug_assert!(start_lsn >= 1 && next_lsn >= start_lsn);
        debug_assert!(next_lsn - start_lsn <= nslots, "resumed span cannot exceed the ring");
        let wal = Wal::new(dev, base, nslots, start_lsn);
        {
            let mut a = wal.append.lock();
            a.next_lsn = next_lsn;
            a.written_lsn = next_lsn - 1;
        }
        wal.commit.lock().committed_lsn = next_lsn - 1;
        wal
    }

    /// Attaches a telemetry recorder ([`Event::WalAppend`] per append,
    /// [`Event::GroupCommit`] per batch flush, [`Event::Retry`] per
    /// transient write failure ridden out).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Ring capacity in records.
    pub fn nslots(&self) -> u64 {
        self.nslots
    }

    /// Device byte offset of the slot holding `lsn`.
    #[inline]
    fn slot_of(&self, lsn: u64) -> usize {
        self.base + ((lsn % self.nslots) as usize) * WAL_RECORD
    }

    /// Un-checkpointed records currently in the ring.
    pub fn lag(&self) -> u64 {
        let a = self.append.lock();
        a.next_lsn - a.start_lsn
    }

    /// LSN the next append will take (the watermark a checkpoint should
    /// capture is `next_lsn() - 1`).
    pub fn next_lsn(&self) -> u64 {
        self.append.lock().next_lsn
    }

    /// Advances the start of the live span past `watermark` after a
    /// checkpoint captured everything at or below it.
    pub fn advance_start(&self, watermark: u64) {
        let mut a = self.append.lock();
        a.start_lsn = a.start_lsn.max(watermark + 1);
    }

    /// Appends one record and waits until it is durable (group commit).
    ///
    /// The nested result keeps the two failure modes apart:
    /// `Ok(Err(WalFull))` means the ring is full of un-checkpointed
    /// records (checkpoint, then retry); `Err(_)` is a device fault.
    pub fn append(
        &self,
        key: Key,
        offset: u64,
        op: u8,
    ) -> Result<Result<u64, WalFull>, ViperError> {
        let lsn = {
            let mut a = self.append.lock();
            if a.next_lsn - a.start_lsn >= self.nslots {
                return Ok(Err(WalFull));
            }
            let lsn = a.next_lsn;
            let mut buf = [0u8; WAL_RECORD];
            WalRecord { lsn, key, offset, op }.encode(&mut buf);
            // Write while holding the lock: a failure leaves the LSN
            // unconsumed with no gap, because no later append observed it.
            write_retry(&self.dev, &self.recorder, self.slot_of(lsn), &buf)?;
            a.next_lsn = lsn + 1;
            a.written_lsn = lsn;
            lsn
        };
        self.recorder.event(Event::WalAppend);
        self.commit_through(lsn)?;
        Ok(Ok(lsn))
    }

    /// Blocks until every LSN ≤ `lsn` is durable, electing this thread as
    /// the commit leader if none is flushing. The leader flushes the
    /// dirty range and fences **once** for the whole batch; followers
    /// yield until a leader's batch covers them.
    fn commit_through(&self, lsn: u64) -> Result<(), ViperError> {
        loop {
            let mut c = self.commit.lock();
            if c.committed_lsn >= lsn {
                return Ok(());
            }
            if c.leader_active {
                drop(c);
                // A leader is flushing; its batch may or may not cover
                // this LSN. Yield and re-check.
                li_sync::thread::yield_now();
                continue;
            }
            c.leader_active = true;
            let from = c.committed_lsn + 1;
            drop(c);
            // Snapshot the dirty frontier outside the commit lock; records
            // written after this point belong to the next batch.
            let upto = self.append.lock().written_lsn;
            let result = if upto >= from { self.flush_batch(from, upto) } else { Ok(()) };
            let mut c = self.commit.lock();
            c.leader_active = false;
            match result {
                Ok(()) => {
                    if upto >= from {
                        c.committed_lsn = c.committed_lsn.max(upto);
                        drop(c);
                        self.recorder.event(Event::GroupCommit);
                    }
                    // Someone may have appended behind our frontier
                    // snapshot; loop to cover our own LSN if needed.
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Flushes each record of `[from, upto]` (one flush per record — see
    /// module docs for why batching flushes would widen the blast radius
    /// of a lying device) and issues one fence for the whole batch.
    fn flush_batch(&self, from: u64, upto: u64) -> Result<(), ViperError> {
        debug_assert!(upto - from < self.nslots, "dirty range cannot exceed the ring");
        self.dev.try_persist_ranges((from..=upto).map(|lsn| (self.slot_of(lsn), WAL_RECORD)))?;
        Ok(())
    }

    /// Replays the tail past `watermark` (records a checkpoint already
    /// captured are below it). Examines every candidate LSN in the ring
    /// — at most `nslots` slots, so replay cost is bounded by the ring
    /// size, not by history length. See the module docs for the
    /// hole-versus-tail distinction.
    pub fn replay(dev: &NvmDevice, base: usize, nslots: u64, watermark: u64) -> ReplaySummary {
        let mut out = ReplaySummary { next_lsn: watermark + 1, ..ReplaySummary::default() };
        let mut buf = [0u8; WAL_RECORD];
        let mut last_match: Option<u64> = None;
        for i in 0..nslots {
            let lsn = watermark + 1 + i;
            let off = base + ((lsn % nslots) as usize) * WAL_RECORD;
            dev.read_into(off, &mut buf);
            match WalRecord::decode(&buf) {
                // Only a record whose embedded LSN matches its position
                // belongs to the live tail; a valid record with another
                // LSN is a stale occupant from an earlier lap.
                Some(rec) if rec.lsn == lsn => {
                    out.records.push(rec);
                    last_match = Some(lsn);
                }
                _ => {}
            }
        }
        if let Some(last) = last_match {
            // Every non-matching slot *before* the last chain record is a
            // hole (its batch fenced later records, so the op at this LSN
            // really happened); slots after it are the genuine tail.
            out.holes = ((last - watermark) as usize) - out.records.len();
            out.next_lsn = last + 1;
        }
        out
    }

    /// Scans the whole ring for the highest CRC-valid LSN — the safe
    /// restart point when no checkpoint watermark is trustworthy (fresh
    /// device, or full-rescan fallback): resuming past every stale record
    /// prevents a new append from colliding with an old lap's LSN chain.
    pub fn max_lsn(dev: &NvmDevice, base: usize, nslots: u64) -> u64 {
        let mut max = 0u64;
        let mut buf = [0u8; WAL_RECORD];
        for slot in 0..nslots {
            dev.read_into(base + (slot as usize) * WAL_RECORD, &mut buf);
            if let Some(rec) = WalRecord::decode(&buf) {
                max = max.max(rec.lsn);
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use li_nvm::NvmConfig;

    fn wal_dev(bytes: usize) -> Arc<NvmDevice> {
        Arc::new(NvmDevice::new(NvmConfig::fast(bytes)))
    }

    #[test]
    fn record_roundtrip_and_crc() {
        let rec = WalRecord { lsn: 7, key: 42, offset: 1024, op: WAL_OP_PUT };
        let mut buf = [0u8; WAL_RECORD];
        rec.encode(&mut buf);
        assert_eq!(WalRecord::decode(&buf), Some(rec));
        buf[9] ^= 0xFF;
        assert_eq!(WalRecord::decode(&buf), None, "corruption must fail the CRC");
        let zeros = [0u8; WAL_RECORD];
        assert_eq!(WalRecord::decode(&zeros), None, "empty slot is not a record");
    }

    #[test]
    fn append_then_replay() {
        let dev = wal_dev(1 << 16);
        let wal = Wal::new(Arc::clone(&dev), 0, 64, 1);
        for k in 0..10u64 {
            let lsn = wal.append(k, k * 100, WAL_OP_PUT).unwrap().unwrap();
            assert_eq!(lsn, k + 1);
        }
        assert_eq!(wal.lag(), 10);
        let summary = Wal::replay(&dev, 0, 64, 0);
        assert_eq!(summary.records.len(), 10);
        assert_eq!(summary.holes, 0);
        assert_eq!(summary.next_lsn, 11);
        for (i, rec) in summary.records.iter().enumerate() {
            assert_eq!(rec.lsn, i as u64 + 1);
            assert_eq!(rec.key, i as u64);
            assert_eq!(rec.offset, i as u64 * 100);
        }
    }

    #[test]
    fn replay_from_watermark_skips_checkpointed_prefix() {
        let dev = wal_dev(1 << 16);
        let wal = Wal::new(Arc::clone(&dev), 0, 64, 1);
        for k in 0..10u64 {
            wal.append(k, k, WAL_OP_PUT).unwrap().unwrap();
        }
        let summary = Wal::replay(&dev, 0, 64, 6);
        assert_eq!(summary.records.len(), 4, "only LSNs 7..=10 are past the watermark");
        assert_eq!(summary.records[0].lsn, 7);
    }

    #[test]
    fn ring_wraps_and_stale_lap_is_rejected() {
        let dev = wal_dev(1 << 16);
        let nslots = 8u64;
        let wal = Wal::new(Arc::clone(&dev), 0, nslots, 1);
        // Fill the ring, checkpoint everything, then lap it.
        for k in 0..nslots {
            wal.append(k, k, WAL_OP_PUT).unwrap().unwrap();
        }
        wal.advance_start(nslots); // checkpoint at watermark = nslots
        for k in 0..5u64 {
            wal.append(100 + k, k, WAL_OP_PUT).unwrap().unwrap();
        }
        // Replay from the checkpoint: exactly the 5 new records; the three
        // remaining first-lap slots hold stale LSNs and are not replayed
        // (and not holes — they sit past the last chain record).
        let summary = Wal::replay(&dev, 0, nslots, nslots);
        assert_eq!(summary.records.len(), 5);
        assert!(summary.records.iter().all(|r| r.key >= 100));
        assert_eq!(summary.holes, 0);
        assert_eq!(summary.next_lsn, nslots + 6);
    }

    #[test]
    fn full_ring_refuses_until_checkpoint() {
        let dev = wal_dev(1 << 16);
        let wal = Wal::new(Arc::clone(&dev), 0, 4, 1);
        for k in 0..4u64 {
            assert!(wal.append(k, k, WAL_OP_PUT).unwrap().is_ok());
        }
        assert_eq!(wal.append(99, 99, WAL_OP_PUT).unwrap(), Err(WalFull));
        wal.advance_start(2); // checkpoint through LSN 2
        assert!(wal.append(99, 99, WAL_OP_PUT).unwrap().is_ok());
    }

    #[test]
    fn corrupt_mid_chain_record_is_a_bounded_hole() {
        let dev = wal_dev(1 << 16);
        let wal = Wal::new(Arc::clone(&dev), 0, 64, 1);
        for k in 0..6u64 {
            wal.append(k, k, WAL_OP_PUT).unwrap().unwrap();
        }
        // Corrupt record LSN 4 in place (simulating a dropped flush whose
        // stale bytes persisted): replay must skip exactly that record.
        let off = 4 * WAL_RECORD; // slot of LSN 4 in a 64-slot ring
        let mut buf = [0u8; WAL_RECORD];
        dev.read_into(off, &mut buf);
        buf[20] ^= 0xFF;
        dev.write(off, &buf);
        dev.persist(off, WAL_RECORD);
        let summary = Wal::replay(&dev, 0, 64, 0);
        assert_eq!(summary.holes, 1);
        let lsns: Vec<u64> = summary.records.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, vec![1, 2, 3, 5, 6], "only the corrupt LSN is lost");
        assert_eq!(summary.next_lsn, 7);
    }

    #[test]
    fn zeroed_gap_before_later_records_is_a_hole_not_a_tail() {
        // A dropped flush can leave a slot at its pre-write content (all
        // zeros on the first lap) while later, separately flushed records
        // are durable. Replay must not stop at the gap.
        let dev = wal_dev(1 << 16);
        let wal = Wal::new(Arc::clone(&dev), 0, 64, 1);
        for k in 0..5u64 {
            wal.append(k, k, WAL_OP_PUT).unwrap().unwrap();
        }
        let off = 3 * WAL_RECORD; // slot of LSN 3 in a 64-slot ring
        dev.write(off, &[0u8; WAL_RECORD]);
        dev.persist(off, WAL_RECORD);
        let summary = Wal::replay(&dev, 0, 64, 0);
        assert_eq!(summary.holes, 1);
        let lsns: Vec<u64> = summary.records.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, vec![1, 2, 4, 5]);
        assert_eq!(summary.next_lsn, 6);
    }

    #[test]
    fn max_lsn_sweep_finds_restart_point() {
        let dev = wal_dev(1 << 16);
        let wal = Wal::new(Arc::clone(&dev), 0, 16, 1);
        for k in 0..10u64 {
            wal.append(k, k, WAL_OP_PUT).unwrap().unwrap();
        }
        assert_eq!(Wal::max_lsn(&dev, 0, 16), 10);
        assert_eq!(Wal::max_lsn(&dev, 1 << 12, 16), 0, "empty region has no records");
    }

    #[test]
    fn group_commit_events_do_not_exceed_appends() {
        use li_core::telemetry::Event;
        let dev = wal_dev(1 << 16);
        let mut wal = Wal::new(Arc::clone(&dev), 0, 64, 1);
        let rec = Recorder::enabled();
        wal.set_recorder(rec.clone());
        for k in 0..20u64 {
            wal.append(k, k, WAL_OP_PUT).unwrap().unwrap();
        }
        let snap = rec.snapshot();
        assert_eq!(snap.event(Event::WalAppend), 20);
        let commits = snap.event(Event::GroupCommit);
        assert!((1..=20).contains(&commits), "commits={commits}");
    }

    #[test]
    fn concurrent_appends_batch_fences() {
        let dev = wal_dev(1 << 20);
        let wal = Arc::new(Wal::new(Arc::clone(&dev), 0, 4096, 1));
        let threads = 4;
        let per = 200u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let wal = Arc::clone(&wal);
            handles.push(li_sync::thread::spawn(move || {
                for i in 0..per {
                    wal.append(t * 1000 + i, i, WAL_OP_PUT).unwrap().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = threads * per;
        assert_eq!(wal.next_lsn(), total + 1);
        // Every append is durable and replayable.
        let summary = Wal::replay(&dev, 0, 4096, 0);
        assert_eq!(summary.records.len(), total as usize);
        assert_eq!(summary.holes, 0);
    }
}
