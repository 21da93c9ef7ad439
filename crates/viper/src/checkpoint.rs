//! Checkpointed recovery: snapshots of the live key → heap-offset map,
//! written behind a versioned manifest on the same `li-nvm` device as the
//! heap and WAL. No index model is saved: recovery rebuilds the index from
//! the recovered pairs, as the paper's Fig. 16 costs it. A checkpoint
//! costs what changed since the previous one: the map is a **base image**
//! plus a chain of **delta segments** appended after it.
//!
//! Layout (top of the device, below the heap — see [`Geometry`]):
//!
//! ```text
//! | heap pages … | WAL ring | blob A | blob B | manifest A | manifest B |
//! blob slot: | base image | delta 1 | delta 2 | …            (append-only)
//! ```
//!
//! Every checkpoint is two fenced steps (the classic atomic pointer swap):
//!
//! 1. write image bytes, flush, fence — either one delta segment appended
//!    *past* what the newest manifest names ([`append_delta`]), or, when
//!    that segment no longer fits the slot, a whole new base image in the
//!    *other* slot ([`write_base`], a fold);
//! 2. write the 64-byte manifest of generation `g` into manifest slot
//!    `g % 2` (replacing generation `g - 2`), flush, fence.
//!
//! Neither step touches a byte the newest manifest names: a delta only
//! appends, so the older manifest — which names a prefix of the same chain
//! — stays valid too; a fold writes the slot the newest manifest does not
//! name. A crash between the steps therefore leaves the previous
//! generation intact, and corruption is caught by the CRCs in the
//! manifest: recovery falls back to the previous generation, or to a full
//! heap rescan as the last resort.
//!
//! Both segment kinds share one layout (little-endian) and differ only in
//! the magic; a base (bulk load, recovery and folds write one) fills its
//! buffer, a delta (one per steady-state checkpoint) is followed by the
//! rest of the chain:
//!
//! ```text
//! magic(8) ‖ watermark(8) ‖ next_seq(8) ‖ pages_hwm(8) ‖ entry_count(8)
//!          ‖ entries: entry_count × (key(8) ‖ offset(8) | TOMBSTONE)
//! ```
//!
//! Entries are sorted by key so recovery can hand them straight to an
//! index builder. Neither structure carries its own CRC — the manifest
//! carries one over the base and a running one over the whole chain, so
//! image bytes are only ever trusted through a manifest that names them.

use li_core::telemetry::{Event, Recorder};
use li_core::Key;
use li_nvm::NvmDevice;
use li_sync::sync::Mutex;

use crate::error::ViperError;
use crate::layout::Crc32;
use crate::wal::{write_persist_retry, write_retry, Wal, WAL_RECORD};

/// Magic tag opening every base image ("LIPCKPT2"; an image of another
/// version does not decode, so recovery rescans the heap instead).
const BLOB_MAGIC: u64 = 0x4C49_5043_4B50_5432;
/// Magic tag opening every delta segment ("LIPDELT1").
const DELTA_MAGIC: u64 = 0x4C49_5044_454C_5431;
/// Magic tag opening every manifest slot ("LIPMANI2").
const MANIFEST_MAGIC: u64 = 0x4C49_504D_414E_4932;
/// Fixed manifest slot size (two slots live at the very top of the device).
pub const MANIFEST_SIZE: usize = 64;
/// Manifest bytes its own CRC covers.
const MANIFEST_BODY: usize = 56;
/// Serialized segment header size.
const HEADER: usize = 40;
/// Bytes per (key, offset) entry.
const ENTRY: usize = 16;
/// Offset a delta entry carries for a key the index no longer holds.
pub const TOMBSTONE: u64 = u64::MAX;
/// Image bytes are written in chunks of this size, each with bounded retry.
const WRITE_CHUNK: usize = 1 << 16;

/// Sizing knobs for the durability region. `None` durability (the
/// default at the store level) keeps the whole device for the heap and
/// recovery falls back to the page rescan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// WAL ring capacity in records. Appends refuse (and force a
    /// checkpoint) once this many un-checkpointed records accumulate.
    pub wal_records: u64,
    /// Capacity of each checkpoint blob slot in bytes (two slots are
    /// reserved). Must cover the base image — the live-entry table — at
    /// the largest expected population; whatever the base leaves free
    /// holds delta segments, and the less that is, the sooner a
    /// checkpoint has to fold.
    pub checkpoint_bytes: usize,
    /// The maintenance worker writes a checkpoint once the WAL lag
    /// reaches this many records.
    pub checkpoint_lag: u64,
}

impl DurabilityConfig {
    /// A configuration sized for up to `max_live` live records: blob
    /// slots big enough for the base image plus room for deltas (a
    /// quarter byte per record and 4 104 B — fixed, because the layered
    /// benchmark sizes its stores, and so its fold frequency, with this),
    /// and a WAL of `wal_records` entries with a checkpoint trigger at
    /// half the ring.
    pub fn sized_for(max_live: usize, wal_records: u64) -> Self {
        let checkpoint_bytes = HEADER + max_live * ENTRY + max_live / 4 + 4104;
        DurabilityConfig { wal_records, checkpoint_bytes, checkpoint_lag: (wal_records / 2).max(1) }
    }

    /// Device bytes consumed by the durability region under this config.
    pub fn region_bytes(&self) -> usize {
        (self.wal_records as usize) * WAL_RECORD + 2 * self.checkpoint_bytes + 2 * MANIFEST_SIZE
    }
}

/// Where each durability structure lives on the device. The heap keeps
/// `[0, heap_capacity)`; everything else stacks above it.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    /// Page-aligned heap capacity in bytes.
    pub heap_capacity: usize,
    /// First byte of the WAL ring.
    pub wal_base: usize,
    /// WAL ring capacity in records.
    pub wal_records: u64,
    /// First byte of blob slots A and B.
    pub blob_base: [usize; 2],
    /// Capacity of each blob slot.
    pub blob_capacity: usize,
    /// First byte of manifest slots A and B.
    pub manifest_base: [usize; 2],
}

impl Geometry {
    /// Carves the durability region out of the top of a device of
    /// `capacity` bytes, flooring the heap to `page_size`. Returns `None`
    /// when the device is too small to leave at least one heap page.
    pub fn compute(capacity: usize, page_size: usize, cfg: &DurabilityConfig) -> Option<Geometry> {
        let region = cfg.region_bytes();
        if region >= capacity {
            return None;
        }
        let heap_capacity = ((capacity - region) / page_size) * page_size;
        if heap_capacity < page_size {
            return None;
        }
        let wal_base = heap_capacity;
        let blob_a = wal_base + (cfg.wal_records as usize) * WAL_RECORD;
        let blob_b = blob_a + cfg.checkpoint_bytes;
        let manifest_a = blob_b + cfg.checkpoint_bytes;
        let manifest_b = manifest_a + MANIFEST_SIZE;
        Some(Geometry {
            heap_capacity,
            wal_base,
            wal_records: cfg.wal_records,
            blob_base: [blob_a, blob_b],
            blob_capacity: cfg.checkpoint_bytes,
            manifest_base: [manifest_a, manifest_b],
        })
    }
}

/// One checkpoint image: the live map snapshot and the counters recovery
/// needs to resume. A base image serializes one; a delta segment is one
/// whose `entries` are the changed keys only (offset [`TOMBSTONE`] =
/// deleted); [`load_image`] returns one with the delta chain merged in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointBlob {
    /// Highest LSN whose effect this snapshot includes; recovery replays
    /// the WAL strictly after it.
    pub watermark: u64,
    /// Heap sequence counter to resume from (replay may bump it further).
    pub next_seq: u64,
    /// Pages allocated at snapshot time (heap high-water mark).
    pub pages_hwm: u64,
    /// `(key, heap slot offset)` pairs, sorted by key.
    pub entries: Vec<(u64, u64)>,
}

/// Little-endian `u64` at byte `at` of `buf`; `None` past the end.
fn le_u64(buf: &[u8], at: usize) -> Option<u64> {
    let bytes = buf.get(at..at.checked_add(8)?)?;
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

impl CheckpointBlob {
    /// Bytes of this blob as one segment of either kind.
    pub fn serialized_len(&self) -> usize {
        HEADER + self.entries.len() * ENTRY
    }

    /// This blob as one segment opening with `magic` ([`BLOB_MAGIC`] for
    /// a base image, [`DELTA_MAGIC`] for a delta).
    fn encode(&self, magic: u64) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.serialized_len());
        for word in
            [magic, self.watermark, self.next_seq, self.pages_hwm, self.entries.len() as u64]
        {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        for &(key, offset) in &self.entries {
            buf.extend_from_slice(&key.to_le_bytes());
            buf.extend_from_slice(&offset.to_le_bytes());
        }
        buf
    }

    /// Decodes the segment opening `buf` if it carries `magic`, returning
    /// it with the bytes past it. A base must be all of `buf`; a delta may
    /// be followed by more of the chain.
    fn decode(buf: &[u8], magic: u64) -> Option<(CheckpointBlob, &[u8])> {
        if le_u64(buf, 0)? != magic {
            return None;
        }
        let count = usize::try_from(le_u64(buf, 32)?).ok()?;
        let (entries, rest) = buf.get(HEADER..)?.split_at_checked(count.checked_mul(ENTRY)?)?;
        if magic == BLOB_MAGIC && !rest.is_empty() {
            return None;
        }
        let blob = CheckpointBlob {
            watermark: le_u64(buf, 8)?,
            next_seq: le_u64(buf, 16)?,
            pages_hwm: le_u64(buf, 24)?,
            entries: entries
                .chunks_exact(ENTRY)
                .map(|e| Some((le_u64(e, 0)?, le_u64(e, 8)?)))
                .collect::<Option<_>>()?,
        };
        Some((blob, rest))
    }
}

/// `base` with `overlay` applied: the one merge behind every image this
/// module or recovery assembles (base ⊕ delta chain, image ⊕ WAL tail,
/// image ⊕ change list). Both inputs are sorted by key with no repeats;
/// an overlay entry replaces the base entry of its key, `None` removes it.
pub fn merge_overlay(
    base: &[(u64, u64)],
    overlay: impl IntoIterator<Item = (u64, Option<u64>)>,
) -> Vec<(u64, u64)> {
    let mut ov = overlay.into_iter().peekable();
    let mut out = Vec::with_capacity(base.len() + ov.size_hint().0);
    for &(key, offset) in base {
        // Overlay-only keys sorting before this base key slot in here.
        while let Some(&(ok, oslot)) = ov.peek() {
            if ok >= key {
                break;
            }
            ov.next();
            out.extend(oslot.map(|off| (ok, off)));
        }
        match ov.peek() {
            Some(&(ok, oslot)) if ok == key => {
                ov.next();
                out.extend(oslot.map(|off| (key, off)));
            }
            _ => out.push((key, offset)),
        }
    }
    out.extend(ov.filter_map(|(ok, oslot)| oslot.map(|off| (ok, off))));
    out
}

/// Delta entries as [`merge_overlay`] takes them: a tombstone removes.
pub fn delta_overlay(entries: &[(u64, u64)]) -> impl Iterator<Item = (u64, Option<u64>)> + '_ {
    entries.iter().map(|&(key, offset)| (key, (offset != TOMBSTONE).then_some(offset)))
}

/// The 64-byte versioned pointer to an image: a base of `base_len` bytes
/// at the start of blob slot `slot`, followed by `delta_len` bytes of
/// delta segments. Recovery trusts the highest-generation manifest whose
/// own CRC *and* both image CRCs verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    pub generation: u64,
    /// Watermark of the image's last segment (the base's when no delta
    /// follows it).
    pub watermark: u64,
    pub slot: usize,
    pub base_len: usize,
    pub base_crc: u32,
    pub delta_len: usize,
    /// CRC over all `delta_len` chain bytes. [`Crc32::resume`] continues
    /// it, so naming one more segment costs that segment's bytes only.
    pub delta_crc: u32,
}

impl Manifest {
    /// What a device with no checkpoint names: generation 0, the empty
    /// image. Its slot is 1, so the first base image goes to slot 0.
    pub const NONE: Manifest = Manifest {
        generation: 0,
        watermark: 0,
        slot: 1,
        base_len: 0,
        base_crc: 0,
        delta_len: 0,
        delta_crc: 0,
    };

    fn encode(&self) -> [u8; MANIFEST_SIZE] {
        let mut buf = [0u8; MANIFEST_SIZE];
        let words = [
            MANIFEST_MAGIC,
            self.generation,
            self.watermark,
            self.slot as u64,
            self.base_len as u64,
            self.delta_len as u64,
        ];
        for (i, word) in words.iter().enumerate() {
            buf[i * 8..i * 8 + 8].copy_from_slice(&word.to_le_bytes());
        }
        buf[48..52].copy_from_slice(&self.base_crc.to_le_bytes());
        buf[52..MANIFEST_BODY].copy_from_slice(&self.delta_crc.to_le_bytes());
        let crc = crc_of(&buf[..MANIFEST_BODY]);
        buf[MANIFEST_BODY..MANIFEST_BODY + 4].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    fn decode(buf: &[u8; MANIFEST_SIZE]) -> Option<Manifest> {
        let le_u32 = |at: usize| Some(u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?));
        if le_u64(buf, 0)? != MANIFEST_MAGIC || crc_of(&buf[..MANIFEST_BODY]) != le_u32(56)? {
            return None;
        }
        Some(Manifest {
            generation: le_u64(buf, 8)?,
            watermark: le_u64(buf, 16)?,
            slot: (le_u64(buf, 24)? % 2) as usize,
            base_len: usize::try_from(le_u64(buf, 32)?).ok()?,
            delta_len: usize::try_from(le_u64(buf, 40)?).ok()?,
            base_crc: le_u32(48)?,
            delta_crc: le_u32(52)?,
        })
    }
}

fn crc_of(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// Step 1 of a checkpoint: image bytes at device offset `at`, durable.
fn write_image(
    dev: &NvmDevice,
    recorder: &Recorder,
    at: usize,
    bytes: &[u8],
) -> Result<(), ViperError> {
    for (i, chunk) in bytes.chunks(WRITE_CHUNK).enumerate() {
        write_retry(dev, recorder, at + i * WRITE_CHUNK, chunk)?;
    }
    dev.try_persist(at, bytes.len())?;
    Ok(())
}

/// Step 2 of a checkpoint: names the image, durably, in the manifest
/// slot of the older generation.
fn write_manifest(
    dev: &NvmDevice,
    recorder: &Recorder,
    geom: &Geometry,
    manifest: &Manifest,
) -> Result<(), ViperError> {
    let at = geom.manifest_base[(manifest.generation % 2) as usize];
    write_persist_retry(dev, recorder, at, &manifest.encode(), [(at, MANIFEST_SIZE)])?;
    recorder.event(Event::CheckpointWritten);
    Ok(())
}

/// Writes `blob` as a whole new base image — into the blob slot `newest`
/// does not name — and names it as the generation after `newest`. Returns
/// [`ViperError::DeviceFull`] when the serialized blob outgrows its slot:
/// the caller should treat the checkpoint as skipped, not the store as
/// broken.
pub fn write_base(
    dev: &NvmDevice,
    recorder: &Recorder,
    geom: &Geometry,
    newest: &Manifest,
    blob: &CheckpointBlob,
) -> Result<Manifest, ViperError> {
    let bytes = blob.encode(BLOB_MAGIC);
    if bytes.len() > geom.blob_capacity {
        return Err(ViperError::DeviceFull);
    }
    let slot = 1 - newest.slot;
    write_image(dev, recorder, geom.blob_base[slot], &bytes)?;
    let manifest = Manifest {
        generation: newest.generation + 1,
        watermark: blob.watermark,
        slot,
        base_len: bytes.len(),
        base_crc: crc_of(&bytes),
        ..Manifest::NONE
    };
    write_manifest(dev, recorder, geom, &manifest)?;
    Ok(manifest)
}

/// Appends `delta` as one segment after the image `newest` names and
/// names the longer chain as the next generation. `Ok(None)`, with
/// nothing written, when the segment does not fit what the slot has left:
/// the caller folds instead.
pub fn append_delta(
    dev: &NvmDevice,
    recorder: &Recorder,
    geom: &Geometry,
    newest: &Manifest,
    delta: &CheckpointBlob,
) -> Result<Option<Manifest>, ViperError> {
    let used = newest.base_len + newest.delta_len;
    if used + delta.serialized_len() > geom.blob_capacity {
        return Ok(None);
    }
    let bytes = delta.encode(DELTA_MAGIC);
    write_image(dev, recorder, geom.blob_base[newest.slot] + used, &bytes)?;
    let mut crc = Crc32::resume(newest.delta_crc);
    crc.update(&bytes);
    let manifest = Manifest {
        generation: newest.generation + 1,
        watermark: delta.watermark,
        delta_len: newest.delta_len + bytes.len(),
        delta_crc: crc.finish(),
        ..*newest
    };
    write_manifest(dev, recorder, geom, &manifest)?;
    Ok(Some(manifest))
}

/// Reads the image `manifest` names back from the device and merges its
/// delta chain into its base: the map as of `manifest.watermark`, with
/// the last segment's counters. `None` when a CRC or a decode fails
/// anywhere in it.
pub fn load_image(dev: &NvmDevice, geom: &Geometry, manifest: &Manifest) -> Option<CheckpointBlob> {
    if manifest.base_len.checked_add(manifest.delta_len)? > geom.blob_capacity {
        return None;
    }
    let mut bytes = vec![0u8; manifest.base_len + manifest.delta_len];
    dev.read_into(geom.blob_base[manifest.slot], &mut bytes);
    let (base, mut chain) = bytes.split_at(manifest.base_len);
    if crc_of(base) != manifest.base_crc || crc_of(chain) != manifest.delta_crc {
        return None;
    }
    // A store that has not written a base yet checkpoints onto the empty
    // image.
    let mut image = if base.is_empty() {
        CheckpointBlob::default()
    } else {
        CheckpointBlob::decode(base, BLOB_MAGIC)?.0
    };
    // The entry table is key-sorted by construction; one that somehow
    // isn't is sorted here rather than trusted.
    if !image.entries.is_sorted_by_key(|e| e.0) {
        image.entries.sort_unstable_by_key(|e| e.0);
        image.entries.dedup_by_key(|e| e.0);
    }
    let mut changes: Vec<(u64, u64)> = Vec::new();
    while !chain.is_empty() {
        let (delta, rest) = CheckpointBlob::decode(chain, DELTA_MAGIC)?;
        chain = rest;
        image.watermark = delta.watermark;
        image.next_seq = delta.next_seq;
        image.pages_hwm = delta.pages_hwm;
        changes.extend(delta.entries);
    }
    if image.watermark != manifest.watermark {
        return None;
    }
    if !changes.is_empty() {
        // Segments are sorted runs in chain order, so a stable sort keeps
        // a key's entries oldest to newest; the newest one decides
        // (`dedup` keeps the first of a run, hence the reversals).
        changes.sort_by_key(|e| e.0);
        changes.reverse();
        changes.dedup_by_key(|e| e.0);
        changes.reverse();
        image.entries = merge_overlay(&image.entries, delta_overlay(&changes));
    }
    Some(image)
}

/// Both manifest slots, CRC-valid ones decoded and newest first, plus how
/// many slots looked written at all.
fn read_manifests(dev: &NvmDevice, geom: &Geometry) -> (Vec<Manifest>, usize) {
    let mut manifests: Vec<Manifest> = Vec::with_capacity(2);
    let mut raw_written = 0usize;
    for at in geom.manifest_base {
        let mut buf = [0u8; MANIFEST_SIZE];
        dev.read_into(at, &mut buf);
        raw_written += usize::from(buf.iter().any(|&b| b != 0));
        manifests.extend(Manifest::decode(&buf));
    }
    manifests.sort_by_key(|m| std::cmp::Reverse(m.generation));
    (manifests, raw_written)
}

/// The highest-generation CRC-valid manifest, without validating its
/// image ([`Manifest::NONE`] when neither slot decodes). A recovery that
/// bypasses the checkpoint (forced rescan) must still number its fresh
/// checkpoint above every existing manifest, or the next recovery would
/// prefer the stale one — and must not write it over the image this
/// manifest names.
pub fn newest_manifest(dev: &NvmDevice, geom: &Geometry) -> Manifest {
    read_manifests(dev, geom).0.first().copied().unwrap_or(Manifest::NONE)
}

/// A checkpoint recovered from the device, plus how many newer-or-equal
/// manifest generations had to be rejected (CRC or image validation
/// failure) before this one verified.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    pub manifest: Manifest,
    pub blob: CheckpointBlob,
    /// Manifest slots that looked written but failed validation; each is
    /// surfaced as a quarantine-style telemetry event by the caller.
    pub rejected: usize,
}

/// Reads both manifest slots and returns the newest fully-verified
/// checkpoint, falling back to the older generation when the newer one is
/// corrupt. `None` means no usable checkpoint exists (fresh device, or
/// both generations corrupt) and the caller must rescan the heap.
pub fn load_latest(dev: &NvmDevice, geom: &Geometry) -> Option<LoadedCheckpoint> {
    let (manifests, raw_written) = read_manifests(dev, geom);
    let mut rejected = raw_written - manifests.len();
    for manifest in manifests {
        match load_image(dev, geom, &manifest) {
            Some(blob) => return Some(LoadedCheckpoint { manifest, blob, rejected }),
            None => rejected += 1,
        }
    }
    None
}

/// Per-store durability machinery: the WAL ring, the carved device
/// geometry, and what the next checkpoint extends.
pub(crate) struct Durability {
    pub(crate) wal: Wal,
    pub(crate) geom: Geometry,
    pub(crate) config: DurabilityConfig,
    pub(crate) ckpt: Mutex<CheckpointState>,
}

/// What the next checkpoint builds on. Writers only ever push a key;
/// everything else changes under the checkpoint's writer quiescence.
pub(crate) struct CheckpointState {
    /// Keys whose key → offset mapping changed since `newest` was named,
    /// in change order, repeats included. Every entry has a WAL record
    /// past `newest.watermark`, so the ring bounds the list; it is
    /// cleared only once a checkpoint covering it is durably named.
    pub(crate) changed: Vec<Key>,
    /// The newest manifest on the device ([`Manifest::NONE`] before the
    /// first): the next delta appends after the image it names, the next
    /// base goes to the slot it does not name, and either takes
    /// `generation + 1`.
    pub(crate) newest: Manifest,
    /// Whether that image with `changed` applied is the index. False only
    /// from a recovery until its own checkpoint is named (the recovered
    /// index already holds the WAL tail, the image does not), which makes
    /// the next checkpoint rebuild the whole image instead.
    pub(crate) extendable: bool,
}

impl Durability {
    pub(crate) fn new(
        wal: Wal,
        geom: Geometry,
        config: DurabilityConfig,
        newest: Manifest,
        extendable: bool,
    ) -> Self {
        let state = CheckpointState { changed: Vec::new(), newest, extendable };
        let ckpt = Mutex::with_class(li_sync::lock_class!("viper-ckpt"), state);
        Durability { wal, geom, config, ckpt }
    }

    /// Notes that `key`'s mapping is about to change.
    #[inline]
    pub(crate) fn note_change(&self, key: Key) {
        self.ckpt.lock().changed.push(key);
    }

    /// A checkpoint is durably named: the changes it covers leave the
    /// list and the log span it covers reopens for appends.
    pub(crate) fn checkpoint_named(&self, manifest: Manifest) {
        {
            let mut state = self.ckpt.lock();
            state.changed.clear();
            state.newest = manifest;
            state.extendable = true;
        }
        self.wal.advance_start(manifest.watermark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use li_nvm::NvmConfig;
    use std::sync::Arc;

    fn test_geom() -> (Arc<NvmDevice>, Geometry) {
        let cfg =
            DurabilityConfig { wal_records: 64, checkpoint_bytes: 1 << 14, checkpoint_lag: 8 };
        let dev = Arc::new(NvmDevice::new(NvmConfig::fast(1 << 20)));
        let geom = Geometry::compute(dev.capacity(), 4096, &cfg).unwrap();
        (dev, geom)
    }

    fn sample_blob(watermark: u64) -> CheckpointBlob {
        CheckpointBlob {
            watermark,
            next_seq: 100,
            pages_hwm: 3,
            entries: (0..50u64).map(|k| (k * 3, k * 64)).collect(),
        }
    }

    #[test]
    fn geometry_reserves_the_top_of_the_device() {
        let (dev, geom) = test_geom();
        assert_eq!(geom.heap_capacity % 4096, 0);
        assert!(geom.wal_base >= geom.heap_capacity);
        assert!(geom.blob_base[0] >= geom.wal_base + 64 * WAL_RECORD);
        assert_eq!(geom.blob_base[1], geom.blob_base[0] + geom.blob_capacity);
        assert_eq!(geom.manifest_base[1], geom.manifest_base[0] + MANIFEST_SIZE);
        assert!(geom.manifest_base[1] + MANIFEST_SIZE <= dev.capacity());
    }

    #[test]
    fn geometry_refuses_a_device_too_small() {
        let cfg =
            DurabilityConfig { wal_records: 64, checkpoint_bytes: 1 << 14, checkpoint_lag: 8 };
        assert!(Geometry::compute(cfg.region_bytes(), 4096, &cfg).is_none());
        assert!(Geometry::compute(cfg.region_bytes() + 100, 4096, &cfg).is_none());
    }

    #[test]
    fn sized_for_keeps_its_slot_size() {
        // Head + 16 B and a quarter byte per record + 4 104 B: the slot
        // size the benchmark's device geometry and fold frequency rest on.
        let cfg = DurabilityConfig::sized_for(1_000_000, 1 << 20);
        assert_eq!(cfg.checkpoint_bytes, 16_254_144);
        assert_eq!(cfg.checkpoint_lag, 1 << 19);
        assert_eq!(DurabilityConfig::sized_for(0, 0).checkpoint_bytes, 4_144);
    }

    /// A delta of `keys` (key → key * 7; `TOMBSTONE` for the odd ones).
    fn sample_delta(watermark: u64, keys: &[u64]) -> CheckpointBlob {
        CheckpointBlob {
            watermark,
            next_seq: 100 + watermark,
            pages_hwm: 4,
            entries: keys
                .iter()
                .map(|&k| (k, if k % 2 == 1 { TOMBSTONE } else { k * 7 }))
                .collect(),
        }
    }

    fn flip_byte(dev: &NvmDevice, off: usize) {
        let mut b = [0u8; 1];
        dev.read_into(off, &mut b);
        dev.write(off, &[b[0] ^ 0xFF]);
        dev.persist(off, 1);
    }

    #[test]
    fn segment_codec_roundtrips_and_refuses_bad_buffers() {
        for (magic, blob) in
            [(BLOB_MAGIC, sample_blob(17)), (DELTA_MAGIC, sample_delta(9, &[1, 4, 6]))]
        {
            let bytes = blob.encode(magic);
            assert_eq!(bytes.len(), blob.serialized_len());
            assert_eq!(CheckpointBlob::decode(&bytes, magic), Some((blob.clone(), &[][..])));
            assert_eq!(CheckpointBlob::decode(&bytes[..bytes.len() - 1], magic), None);
            assert_eq!(CheckpointBlob::decode(&[], magic), None);
            // A count no buffer could hold is refused, not multiplied out.
            let mut huge = bytes.clone();
            huge[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
            assert_eq!(CheckpointBlob::decode(&huge, magic), None);
            let other = if magic == BLOB_MAGIC { DELTA_MAGIC } else { BLOB_MAGIC };
            assert_eq!(CheckpointBlob::decode(&bytes, other), None, "magic tells the kinds apart");
        }
        // A delta may be followed by more of the chain; a base must fill
        // its buffer.
        let delta = sample_delta(9, &[1, 4, 6]);
        let mut chain = delta.encode(DELTA_MAGIC);
        chain.push(0xAB);
        assert_eq!(CheckpointBlob::decode(&chain, DELTA_MAGIC), Some((delta, &[0xAB][..])));
        let mut base = sample_blob(17).encode(BLOB_MAGIC);
        base.push(0);
        assert_eq!(CheckpointBlob::decode(&base, BLOB_MAGIC), None);
    }

    #[test]
    fn manifest_roundtrip_and_crc() {
        let m = Manifest {
            generation: 7,
            watermark: 99,
            slot: 1,
            base_len: 4_096,
            base_crc: 0xDEAD_BEEF,
            delta_len: 80,
            delta_crc: 0x1234_5678,
        };
        let mut buf = m.encode();
        assert_eq!(Manifest::decode(&buf), Some(m));
        buf[17] ^= 1;
        assert_eq!(Manifest::decode(&buf), None);
        assert_eq!(Manifest::decode(&[0u8; MANIFEST_SIZE]), None);
    }

    #[test]
    fn merge_overlay_replaces_removes_and_inserts() {
        let base = [(2, 20), (4, 40), (6, 60)];
        let overlay = [(1, Some(11)), (2, None), (4, Some(44)), (5, None), (9, Some(99))];
        assert_eq!(merge_overlay(&base, overlay), vec![(1, 11), (4, 44), (6, 60), (9, 99)]);
        assert_eq!(merge_overlay(&base, []), base.to_vec());
        assert_eq!(merge_overlay(&[], [(3, Some(30)), (4, None)]), vec![(3, 30)]);
    }

    #[test]
    fn base_then_deltas_load_as_one_image() {
        let (dev, geom) = test_geom();
        let rec = Recorder::enabled();
        let g1 = write_base(&dev, &rec, &geom, &Manifest::NONE, &sample_blob(5)).unwrap();
        assert_eq!((g1.generation, g1.slot, g1.delta_len), (1, 0, 0));
        // Key 3 is deleted, 6 re-pointed, 1 000 inserted; then 6 deleted
        // and 3 re-inserted by a second segment: the newest entry wins.
        let g2 = append_delta(&dev, &rec, &geom, &g1, &sample_delta(9, &[3, 6, 1_000]))
            .unwrap()
            .expect("fits");
        let g3 = append_delta(&dev, &rec, &geom, &g2, &sample_delta(12, &[6])).unwrap().unwrap();
        assert_eq!((g3.generation, g3.slot, g3.base_len), (3, 0, g1.base_len));
        let loaded = load_latest(&dev, &geom).expect("checkpoint");
        assert_eq!(loaded.manifest, g3);
        assert_eq!(loaded.rejected, 0);
        let image = loaded.blob;
        assert_eq!((image.watermark, image.next_seq, image.pages_hwm), (12, 112, 4));
        let mut want: Vec<(u64, u64)> = (0..50u64).map(|k| (k * 3, k * 64)).collect();
        want.retain(|e| e.0 != 3);
        want.iter_mut().find(|e| e.0 == 6).unwrap().1 = 42;
        want.push((1_000, 7_000));
        assert_eq!(image.entries, want);
        // Appending never touched what the older manifest names.
        assert_eq!(load_image(&dev, &geom, &g2).unwrap().watermark, 9);
        assert_eq!(rec.snapshot().event(Event::CheckpointWritten), 3);
    }

    #[test]
    fn deltas_on_the_empty_image_need_no_base() {
        let (dev, geom) = test_geom();
        let rec = Recorder::disabled();
        let g1 = append_delta(&dev, &rec, &geom, &Manifest::NONE, &sample_delta(3, &[2, 5, 8]))
            .unwrap()
            .unwrap();
        assert_eq!((g1.slot, g1.base_len), (1, 0));
        let image = load_latest(&dev, &geom).unwrap().blob;
        assert_eq!(image.entries, vec![(2, 14), (8, 56)]);
        assert_eq!(image.watermark, 3);
    }

    #[test]
    fn corrupt_newest_delta_falls_back_a_generation() {
        let (dev, geom) = test_geom();
        let rec = Recorder::enabled();
        let g1 = write_base(&dev, &rec, &geom, &Manifest::NONE, &sample_blob(5)).unwrap();
        let g2 = append_delta(&dev, &rec, &geom, &g1, &sample_delta(9, &[6])).unwrap().unwrap();
        let g3 = append_delta(&dev, &rec, &geom, &g2, &sample_delta(12, &[9])).unwrap().unwrap();
        flip_byte(&dev, geom.blob_base[0] + g3.base_len + g3.delta_len - 1);
        let loaded = load_latest(&dev, &geom).expect("fallback generation");
        assert_eq!(loaded.manifest, g2);
        assert_eq!(loaded.blob.watermark, 9);
        assert_eq!(loaded.rejected, 1);
    }

    #[test]
    fn corrupt_shared_base_means_rescan() {
        let (dev, geom) = test_geom();
        let rec = Recorder::enabled();
        let g1 = write_base(&dev, &rec, &geom, &Manifest::NONE, &sample_blob(5)).unwrap();
        append_delta(&dev, &rec, &geom, &g1, &sample_delta(9, &[6])).unwrap().unwrap();
        flip_byte(&dev, geom.blob_base[0] + 60);
        assert!(load_latest(&dev, &geom).is_none());
    }

    #[test]
    fn fold_goes_to_the_other_slot_and_keeps_the_old_chain() {
        let (dev, geom) = test_geom();
        let rec = Recorder::enabled();
        let g1 = write_base(&dev, &rec, &geom, &Manifest::NONE, &sample_blob(5)).unwrap();
        let g2 = append_delta(&dev, &rec, &geom, &g1, &sample_delta(9, &[6])).unwrap().unwrap();
        let g3 = write_base(&dev, &rec, &geom, &g2, &sample_blob(12)).unwrap();
        assert_eq!((g3.generation, g3.slot), (3, 1));
        assert_eq!(load_latest(&dev, &geom).unwrap().manifest, g3);
        // The fold in slot 1 is shredded: generation 2's chain in slot 0
        // is still whole.
        flip_byte(&dev, geom.blob_base[1] + 60);
        let loaded = load_latest(&dev, &geom).expect("fallback generation");
        assert_eq!(loaded.manifest, g2);
        assert_eq!(loaded.rejected, 1);
    }

    #[test]
    fn truncated_manifest_falls_back_a_generation() {
        let (dev, geom) = test_geom();
        let rec = Recorder::enabled();
        let g1 = write_base(&dev, &rec, &geom, &Manifest::NONE, &sample_blob(5)).unwrap();
        append_delta(&dev, &rec, &geom, &g1, &sample_delta(9, &[6])).unwrap().unwrap();
        // Zero the tail of generation 2's manifest (slot 0): the CRC no
        // longer verifies, exactly like a torn manifest write.
        let base = geom.manifest_base[0];
        dev.write(base + 20, &[0u8; MANIFEST_SIZE - 20]);
        dev.persist(base, MANIFEST_SIZE);
        let loaded = load_latest(&dev, &geom).expect("fallback generation");
        assert_eq!(loaded.manifest, g1);
        assert_eq!(loaded.rejected, 1);
        assert_eq!(newest_manifest(&dev, &geom), g1);
    }

    #[test]
    fn both_generations_corrupt_means_rescan() {
        let (dev, geom) = test_geom();
        let rec = Recorder::enabled();
        let g1 = write_base(&dev, &rec, &geom, &Manifest::NONE, &sample_blob(5)).unwrap();
        append_delta(&dev, &rec, &geom, &g1, &sample_delta(9, &[6])).unwrap().unwrap();
        for slot in 0..2 {
            dev.write(geom.manifest_base[slot] + 8, &[0xEE; 8]);
            dev.persist(geom.manifest_base[slot], MANIFEST_SIZE);
        }
        assert!(load_latest(&dev, &geom).is_none());
        assert_eq!(newest_manifest(&dev, &geom), Manifest::NONE);
    }

    #[test]
    fn oversized_base_is_refused_and_a_delta_past_the_slot_asks_for_a_fold() {
        let (dev, geom) = test_geom();
        let rec = Recorder::enabled();
        let mut blob = sample_blob(1);
        blob.entries = (0..2048u64).map(|k| (k, k)).collect();
        assert!(blob.serialized_len() > geom.blob_capacity);
        assert!(matches!(
            write_base(&dev, &rec, &geom, &Manifest::NONE, &blob),
            Err(ViperError::DeviceFull)
        ));
        assert!(load_latest(&dev, &geom).is_none());

        let g1 = write_base(&dev, &rec, &geom, &Manifest::NONE, &sample_blob(5)).unwrap();
        let writes = dev.stats_snapshot().writes;
        let keys: Vec<u64> = (0..1_024u64).collect();
        assert_eq!(append_delta(&dev, &rec, &geom, &g1, &sample_delta(9, &keys)).unwrap(), None);
        assert_eq!(dev.stats_snapshot().writes, writes, "a refused delta writes nothing");
        assert_eq!(load_latest(&dev, &geom).unwrap().manifest, g1);
    }
}
