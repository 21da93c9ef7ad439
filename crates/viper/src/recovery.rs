//! Rebuilding a store's state from its device, short of the index build:
//! the newest verified checkpoint plus the WAL tail when the device has a
//! durability region and the caller allows it, the full page rescan
//! otherwise. Either way every surviving `key → offset` mapping has been
//! validated against its slot before the index sees it.

use std::collections::BTreeMap;
use std::sync::Arc;

use li_core::{Key, KeyValue};
use li_nvm::NvmDevice;

use crate::checkpoint::{self, Geometry, Manifest};
use crate::heap::{PageReader, RecordHeap, RecoverOptions, RecoveryReport};
use crate::layout::{RecordLayout, SLOT_LIVE};
use crate::wal::{Wal, WalRecord, WAL_OP_DELETE};

/// `(geometry, WAL resume window, checkpoint generation)` a durable
/// recovery hands back so the store can reopen the log where it left off.
pub(crate) struct WalResume {
    pub(crate) geom: Geometry,
    /// First LSN still covered by the (old) checkpoint watermark + 1; the
    /// span up to `next_lsn` stays protected until the post-recovery
    /// checkpoint retires it.
    pub(crate) start_lsn: u64,
    pub(crate) next_lsn: u64,
    /// Newest manifest on the device ([`Manifest::NONE`] = none); the
    /// fresh post-recovery checkpoint numbers itself above it and leaves
    /// the image it names alone.
    pub(crate) newest: Manifest,
}

/// Everything recovery produced short of the index build.
pub(crate) struct RecoveredState {
    pub(crate) heap: RecordHeap,
    /// Validated live `(key, offset)` pairs, sorted by key.
    pub(crate) live: Vec<KeyValue>,
    pub(crate) report: RecoveryReport,
    /// `None` without durability (no WAL to reopen).
    pub(crate) resume: Option<WalResume>,
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
pub(crate) fn recover_state(
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
        return RecoveredState { heap, live, report, resume: None };
    };
    if opts.use_checkpoint {
        if let Some(state) = try_checkpoint_recovery(dev, layout, opts, &geom) {
            return state;
        }
    }
    rescan_with_replay(dev, layout, opts, &geom)
}

/// The fast path: newest verified checkpoint + WAL tail, no page scan.
/// `None` sends the caller to the rescan fallback.
fn try_checkpoint_recovery(
    dev: &Arc<NvmDevice>,
    layout: RecordLayout,
    opts: RecoverOptions,
    geom: &Geometry,
) -> Option<RecoveredState> {
    let loaded = checkpoint::load_latest(dev, geom)?;
    let blob = loaded.blob;
    let replay = Wal::replay(dev, geom.wal_base, geom.wal_records, blob.watermark);
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
    let mut pages = PageReader::new(dev, layout);
    for &i in &order {
        let (key, offset) = entries[i as usize];
        let page = offset as usize / layout.page_size;
        match check_slot(&layout, opts.verify_checksums, key, pages.slot(offset as usize)) {
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
    let mut last_op: BTreeMap<Key, &WalRecord> = BTreeMap::new();
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
        report,
        resume: Some(WalResume {
            geom: *geom,
            start_lsn: watermark + 1,
            next_lsn: replay.next_lsn,
            newest,
        }),
    }
}
