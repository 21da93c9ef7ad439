//! Persistent layout of pages and records.
//!
//! ```text
//! page   := header(16B) pad slot*             (fixed page size)
//! header := magic(8B) _reserved(8B)
//! pad    := zeros up to the first stride boundary
//! slot   := record pad                        (stride bytes)
//! record := key(8B) seq(8B) state(1B) crc(4B) value(value_size B)
//! state  := 0 free | 1 live | 2 dead
//! crc    := CRC-32C (Castagnoli) over key ‖ seq ‖ value
//! ```
//!
//! The layout is self-describing enough for recovery: a page is live iff
//! its header carries [`PAGE_MAGIC`], and a slot's record is live iff its
//! state byte is [`SLOT_LIVE`] — set only *after* key, seq, crc and value
//! were flushed, so a crash mid-write never surfaces a half-written
//! record **provided the device honoured the flush**. Against devices
//! that lie (dropped flushes, spurious partial evictions — see
//! `li_nvm::fault`), the per-record CRC is the second line of defence:
//! recovery verifies it and quarantines any live-looking slot whose bytes
//! do not hash to their recorded checksum.
//!
//! The slot stride is the record size rounded up to the next power of two
//! up to the device's 256-byte block ([`LatencyModel::BLOCK`]), or to a
//! multiple of the block above that, and slot 0 starts at the first stride
//! boundary past the header. So no record crosses a block boundary it
//! does not have to: reading, staging or patching one record touches
//! `ceil(record / 256)` blocks. The padding is never written but as zeros.
//!
//! `seq` is a store-wide monotonically increasing publish sequence. It
//! orders multiple live records of the same key, which exist transiently
//! when an out-of-place update crashes between publishing the new record
//! and retiring the old one; recovery keeps the highest sequence.

use li_core::Key;
use li_nvm::LatencyModel;

/// Magic marking an allocated page.
pub const PAGE_MAGIC: u64 = 0x5649_5045_525f_5047; // "VIPER_PG"

/// Page header size in bytes.
pub const PAGE_HEADER: usize = 16;

/// Per-slot header size in bytes: key + seq + state + crc.
pub const SLOT_HEADER: usize = 8 + 8 + 1 + 4;

/// Slot state: never written.
pub const SLOT_FREE: u8 = 0;
/// Slot state: record is live.
pub const SLOT_LIVE: u8 = 1;
/// Slot state: record was deleted.
pub const SLOT_DEAD: u8 = 2;

/// CRC-32C (Castagnoli), reflected: the polynomial the CPU's CRC32
/// instruction implements.
const CRC_POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight input bytes fold into the state with eight independent lookups.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ CRC_POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// One input byte folded into the running state: the reference loop
/// ([`Crc32::update_bytewise`]) and the tail of the sliced one.
#[inline]
fn crc_step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ CRC_TABLES[0][((crc ^ byte as u32) & 0xff) as usize]
}

/// Slice-by-8 over the tables: the kernel wherever the CPU has no CRC32
/// instruction.
fn update_sliced(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in tail {
        crc = crc_step(crc, b);
    }
    crc
}

/// SSE4.2's CRC32 instruction: eight bytes per `crc32 r64`, the tail a byte
/// at a time. Same state convention as the tables (pre- and post-inverted
/// by [`Crc32`]), so the two kernels agree on every stream.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn update_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let (words, tail) = data.as_chunks::<8>();
    let mut wide = u64::from(crc);
    for w in words {
        wide = _mm_crc32_u64(wide, u64::from_le_bytes(*w));
    }
    // The instruction zero-extends a 32-bit CRC into the 64-bit register.
    let mut crc = wide as u32;
    for &b in tail {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Streaming CRC-32C (Castagnoli) — dependency-free. [`Crc32::update`] runs
/// the CPU's CRC32 instruction where the CPU reports one (x86_64 with
/// SSE4.2, checked at run time) and slice-by-8 tables everywhere else.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    pub fn new() -> Self {
        Crc32(0xffff_ffff)
    }

    /// Continues a stream whose bytes so far finished as `finished`:
    /// feeding the rest and finishing again gives the CRC of the whole.
    pub fn resume(finished: u32) -> Self {
        Crc32(!finished)
    }

    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("sse4.2") {
            // SAFETY: the CPU reports SSE4.2, the only feature the kernel
            // is compiled for.
            self.0 = unsafe { update_sse42(self.0, data) };
            return;
        }
        self.0 = update_sliced(self.0, data);
    }

    /// One table lookup per byte: what both kernels must equal.
    #[cfg(test)]
    fn update_bytewise(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = crc_step(self.0, b);
        }
    }

    #[inline]
    pub fn finish(self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// The checksum stored in a record slot: CRC-32C over key ‖ seq ‖ value
/// (all little-endian).
pub fn record_crc(key: Key, seq: u64, value: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&key.to_le_bytes());
    crc.update(&seq.to_le_bytes());
    crc.update(value);
    crc.finish()
}

/// Decoded fixed-size prefix of a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotHeader {
    pub key: Key,
    pub seq: u64,
    pub state: u8,
    pub crc: u32,
}

impl SlotHeader {
    /// Whether a reader that followed the index to this slot for `key`
    /// may hand out the value it read alongside. A live record of `key`
    /// qualifies, and so does one a concurrent writer retired after moving
    /// the index on, before anyone reused the slot: its bytes are still the
    /// record's, and the value before the update or delete is a legal
    /// answer for a read that overlaps it. Another key's record (the slot
    /// was recycled) or a free slot (recycled and being restaged, not yet
    /// published) does not.
    #[inline]
    pub fn holds(&self, key: Key) -> bool {
        self.key == key && self.state != SLOT_FREE
    }
}

/// Runtime layout parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordLayout {
    /// Bytes of each value (the paper uses 200-byte values, §III-A3).
    pub value_size: usize,
    /// Bytes of each page.
    pub page_size: usize,
}

impl RecordLayout {
    /// Paper-default layout: 200-byte values in 64 KiB pages.
    pub fn paper_default() -> Self {
        RecordLayout { value_size: 200, page_size: 64 * 1024 }
    }

    /// Tiny values for tests.
    pub fn small() -> Self {
        RecordLayout { value_size: 16, page_size: 4096 }
    }

    /// Bytes of one record: header + value. Every read, write, checksum
    /// and scratch buffer moves this many bytes.
    #[inline]
    pub fn record_size(&self) -> usize {
        SLOT_HEADER + self.value_size
    }

    /// Bytes from one slot to the next: the record size rounded up to a
    /// power of two up to [`LatencyModel::BLOCK`], to a multiple of it
    /// above, so a record never straddles more blocks than its size needs.
    #[inline]
    pub fn stride(&self) -> usize {
        let record = self.record_size();
        if record <= LatencyModel::BLOCK {
            record.next_power_of_two()
        } else {
            record.next_multiple_of(LatencyModel::BLOCK)
        }
    }

    /// Offset of slot 0 within its page: the header rounded up to the
    /// stride.
    #[inline]
    fn first_slot(&self) -> usize {
        PAGE_HEADER.next_multiple_of(self.stride())
    }

    /// Record slots per page.
    #[inline]
    pub fn slots_per_page(&self) -> usize {
        (self.page_size - self.first_slot()) / self.stride()
    }

    /// Byte offset of slot `slot` within a page starting at `page_offset`.
    #[inline]
    pub fn slot_offset(&self, page_offset: usize, slot: usize) -> usize {
        debug_assert!(slot < self.slots_per_page());
        page_offset + self.first_slot() + slot * self.stride()
    }

    /// Offset of the state byte within a slot.
    #[inline]
    pub fn state_offset(&self, slot_offset: usize) -> usize {
        slot_offset + 16
    }

    /// Offset of the checksum within a slot.
    #[inline]
    pub fn crc_offset(&self, slot_offset: usize) -> usize {
        slot_offset + 17
    }

    /// Offset of the value within a slot.
    #[inline]
    pub fn value_offset(&self, slot_offset: usize) -> usize {
        slot_offset + SLOT_HEADER
    }

    /// Serialises a record into `buf` (which must be `record_size` long),
    /// computing and embedding its checksum.
    pub fn encode_record(&self, key: Key, seq: u64, state: u8, value: &[u8], buf: &mut [u8]) {
        assert_eq!(value.len(), self.value_size, "value size mismatch");
        assert_eq!(buf.len(), self.record_size());
        buf[SLOT_HEADER..].copy_from_slice(value);
        self.seal_record(key, seq, state, buf);
    }

    /// Writes key, seq, state and the checksum into an encoded record whose
    /// value bytes are already in place.
    pub(crate) fn seal_record(&self, key: Key, seq: u64, state: u8, buf: &mut [u8]) {
        assert_eq!(buf.len(), self.record_size());
        let crc = record_crc(key, seq, &buf[SLOT_HEADER..]);
        buf[..8].copy_from_slice(&key.to_le_bytes());
        buf[8..16].copy_from_slice(&seq.to_le_bytes());
        buf[16] = state;
        buf[17..21].copy_from_slice(&crc.to_le_bytes());
    }

    /// Reads the fixed-size header from an encoded slot prefix (at least
    /// [`SLOT_HEADER`] bytes). A shorter buffer decodes as a free slot,
    /// which no caller trusts.
    pub fn decode_header(buf: &[u8]) -> SlotHeader {
        let parse = || {
            let (key, rest) = buf.split_first_chunk::<8>()?;
            let (seq, rest) = rest.split_first_chunk::<8>()?;
            let (&state, rest) = rest.split_first()?;
            let crc = rest.first_chunk::<4>()?;
            Some(SlotHeader {
                key: u64::from_le_bytes(*key),
                seq: u64::from_le_bytes(*seq),
                state,
                crc: u32::from_le_bytes(*crc),
            })
        };
        parse().unwrap_or(SlotHeader { key: 0, seq: 0, state: SLOT_FREE, crc: 0 })
    }

    /// Whether a full record buffer's checksum matches its content.
    pub fn verify_slot(&self, buf: &[u8]) -> bool {
        debug_assert_eq!(buf.len(), self.record_size());
        let header = Self::decode_header(buf);
        record_crc(header.key, header.seq, &buf[SLOT_HEADER..]) == header.crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // CRC-32C of "123456789" is the Castagnoli check value 0xE3069283.
        let mut crc = Crc32::new();
        crc.update(b"123456789");
        assert_eq!(crc.finish(), 0xE306_9283);
        // Streaming in pieces gives the same result, on either kernel.
        let mut crc = Crc32::new();
        crc.update(b"1234");
        crc.update(b"56789");
        assert_eq!(crc.finish(), 0xE306_9283);
        assert_eq!(!update_sliced(!0, b"123456789"), 0xE306_9283);
    }

    proptest::proptest! {
        /// The dispatching kernel (the CPU's CRC32 instruction where it has
        /// one) and slice-by-8 both equal the bytewise reference at every
        /// length, alignment and split of the stream.
        #[test]
        fn kernels_equal_bytewise(
            data in proptest::collection::vec(0u8..=255, 0..4_104),
            start in 0usize..8,
            split in 0usize..4_097,
        ) {
            let data = &data[start.min(data.len())..];
            let (head, tail) = data.split_at(split.min(data.len()));
            let mut reference = Crc32::new();
            reference.update_bytewise(data);
            let want = reference.finish();
            let mut dispatched = Crc32::new();
            dispatched.update(head);
            dispatched.update(tail);
            proptest::prop_assert_eq!(dispatched.finish(), want);
            let sliced = update_sliced(update_sliced(!0, head), tail);
            proptest::prop_assert_eq!(!sliced, want);
            // A finished stream can be picked up where it stopped.
            let mut first = Crc32::new();
            first.update(head);
            let mut resumed = Crc32::resume(first.finish());
            resumed.update(tail);
            proptest::prop_assert_eq!(resumed.finish(), want);
        }
    }

    #[test]
    fn paper_layout_capacity() {
        let l = RecordLayout::paper_default();
        assert_eq!(l.record_size(), SLOT_HEADER + 200);
        assert_eq!(l.stride(), LatencyModel::BLOCK);
        assert_eq!(l.slots_per_page(), 255);
    }

    #[test]
    fn slot_offsets_disjoint() {
        let l = RecordLayout::small();
        let spp = l.slots_per_page();
        let mut last_end = PAGE_HEADER;
        for s in 0..spp {
            let off = l.slot_offset(0, s);
            assert!(off >= last_end && off < last_end + l.stride(), "slot {s} at {off}");
            last_end = off + l.record_size();
        }
        assert!(last_end <= l.page_size);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// At every value size and both page sizes the tests use, slots are
        /// disjoint, lie inside the page past its header, and each record
        /// touches as few device blocks as its size allows: exactly one for
        /// the paper and `small()` layouts, each drawn in a quarter of the
        /// cases.
        #[test]
        fn slots_are_disjoint_and_block_aligned(
            pick in 0u8..4,
            value_size in 1usize..=1024,
            big_page in proptest::bool::ANY,
        ) {
            let l = match pick {
                0 => RecordLayout::paper_default(),
                1 => RecordLayout::small(),
                _ => RecordLayout { value_size, page_size: if big_page { 64 * 1024 } else { 4096 } },
            };
            let (record, block, page_size) = (l.record_size(), LatencyModel::BLOCK, l.page_size);
            proptest::prop_assert!(l.stride() >= record);
            let page = 3 * page_size;
            let mut last_end = page + PAGE_HEADER;
            for s in 0..l.slots_per_page() {
                let off = l.slot_offset(page, s);
                proptest::prop_assert!(off >= last_end, "slot {} overlaps", s);
                proptest::prop_assert!(off < last_end + l.stride(), "gap before slot {}", s);
                last_end = off + record;
                proptest::prop_assert_eq!(
                    LatencyModel::blocks(off, record),
                    record.div_ceil(block),
                    "slot {} at {} straddles", s, off
                );
            }
            proptest::prop_assert!(last_end <= page + page_size);
        }
    }

    #[test]
    fn record_roundtrip() {
        let l = RecordLayout::small();
        let mut buf = vec![0u8; l.record_size()];
        let val = vec![7u8; l.value_size];
        l.encode_record(0xabcdef, 42, SLOT_LIVE, &val, &mut buf);
        let h = RecordLayout::decode_header(&buf);
        assert_eq!(h.key, 0xabcdef);
        assert_eq!(h.seq, 42);
        assert_eq!(h.state, SLOT_LIVE);
        assert_eq!(h.crc, record_crc(0xabcdef, 42, &val));
        assert_eq!(&buf[SLOT_HEADER..], &val[..]);
        assert!(l.verify_slot(&buf));
    }

    #[test]
    fn corruption_fails_verification() {
        let l = RecordLayout::small();
        let mut buf = vec![0u8; l.record_size()];
        let val = vec![9u8; l.value_size];
        l.encode_record(77, 1, SLOT_LIVE, &val, &mut buf);
        assert!(l.verify_slot(&buf));
        for flip in [0usize, 8, 17, SLOT_HEADER, l.record_size() - 1] {
            let mut corrupt = buf.clone();
            corrupt[flip] ^= 0x40;
            assert!(!l.verify_slot(&corrupt), "bit flip at {flip} not caught");
        }
        // The state byte is *not* covered: publishing must not invalidate.
        let mut published = buf.clone();
        published[16] = SLOT_DEAD;
        assert!(l.verify_slot(&published));
    }

    #[test]
    #[should_panic(expected = "value size mismatch")]
    fn wrong_value_size_panics() {
        let l = RecordLayout::small();
        let mut buf = vec![0u8; l.record_size()];
        l.encode_record(1, 0, SLOT_LIVE, &[1, 2, 3], &mut buf);
    }
}
