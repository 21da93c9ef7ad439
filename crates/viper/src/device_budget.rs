//! What each store operation costs the device, as a table that is asserted.
//!
//! On a medium slower than DRAM the unit of cost is the access, not the
//! byte (`li_nvm` charges per 256-byte block touched, per call). The rows
//! below are DESIGN.md's "Update paths" table: a path that starts paying
//! for one more read, write, flush or fence fails here, under both write
//! models, with and without the WAL, with in-place and crash-safe updates.

use std::sync::Arc;

use li_nvm::{LatencyModel, NvmConfig, NvmDevice};

use crate::checkpoint::DurabilityConfig;
use crate::config::StoreConfig;
use crate::heap::RecordHeap;
use crate::layout::RecordLayout;
use crate::store::tests::Either;
use crate::wal::WAL_RECORD;

/// `[reads, bytes_read, writes, bytes_written, flushes, fences]`.
type Traffic = [u64; 6];

fn traffic_of(store: &mut Either, op: impl FnOnce(&mut Either)) -> Traffic {
    let before = store.nvm_stats();
    op(store);
    let after = store.nvm_stats();
    [
        after.reads - before.reads,
        after.bytes_read - before.bytes_read,
        after.writes - before.writes,
        after.bytes_written - before.bytes_written,
        after.flushes - before.flushes,
        after.fences - before.fences,
    ]
}

/// The rows one configuration gets wrong, as text.
fn off_budget(shared: bool, wal: bool, crash_safe: bool) -> Vec<String> {
    let mut cfg = StoreConfig::paper(64).with_crash_safe_updates(crash_safe);
    cfg.nvm.latency = LatencyModel::dram_like();
    if wal {
        cfg = cfg.with_durability(DurabilityConfig::sized_for(128, 64));
    }
    let slot = cfg.layout.record_size() as u64;
    let value = vec![7u8; cfg.layout.value_size];
    let patch = 4 + value.len() as u64; // crc ‖ value
    assert_eq!((slot, patch), (221, 204), "DESIGN.md's table is in these numbers");
    // One logged op is one more write, flush and fence: its WAL record.
    let (log, log_bytes) = if wal { (1, WAL_RECORD as u64) } else { (0, 0) };

    let mut store = Either::new(shared, cfg);
    // Keys 1..=6 loaded; the first put also opened the page.
    for key in 1..=6 {
        store.put(key, &value).unwrap();
    }
    let mut buf = vec![0u8; value.len()];
    let rows: [(&str, Traffic, Traffic); 6] = [
        ("get hit", [1, slot, 0, 0, 0, 0], traffic_of(&mut store, |s| assert!(s.get(3, &mut buf)))),
        ("get miss", [0; 6], traffic_of(&mut store, |s| assert!(!s.get(99, &mut buf)))),
        (
            "scan of 5",
            [5, 5 * slot, 0, 0, 0, 0],
            traffic_of(&mut store, |s| assert_eq!(s.scan_keys(2, 6), [2, 3, 4, 5, 6])),
        ),
        (
            // Payload with the state byte free, then the state byte.
            "insert",
            [0, 0, 2 + log, slot + 1 + log_bytes, 2 + log, 2 + log],
            traffic_of(&mut store, |s| s.put(7, &value).unwrap()),
        ),
        (
            "update",
            if crash_safe {
                // An insert, then the old slot's state byte.
                [0, 0, 3 + log, slot + 2 + log_bytes, 3 + log, 3 + log]
            } else {
                // key ‖ seq back for the checksum, then crc ‖ value.
                [1, 16, 1 + log, patch + log_bytes, 1 + log, 1 + log]
            },
            traffic_of(&mut store, |s| s.put(3, &value).unwrap()),
        ),
        (
            "delete",
            [0, 0, 1 + log, 1 + log_bytes, 1 + log, 1 + log],
            traffic_of(&mut store, |s| assert!(s.delete(4).unwrap())),
        ),
    ];
    rows.into_iter()
        .filter(|(_, budget, spent)| spent != budget)
        .map(|(op, budget, spent)| {
            format!(
                "{op} (shared={shared} wal={wal} crash_safe={crash_safe}): \
                 spent {spent:?}, budget {budget:?}"
            )
        })
        .collect()
}

/// The "bulk load, run of n" row on a fresh device: two whole pages and
/// five slots are three page runs. Each run is one write of its page
/// header and slots and one write spanning its state bytes, a fence after
/// each, and a flush per slot in both steps.
fn bulk_load_off_budget(shared: bool) -> Option<String> {
    let mut cfg = StoreConfig::paper(1_000);
    cfg.nvm.latency = LatencyModel::dram_like();
    let layout = cfg.layout;
    let (record, stride) = (layout.record_size() as u64, layout.stride() as u64);
    let spp = layout.slots_per_page() as u64;
    assert_eq!((record, stride), (221, 256), "DESIGN.md's table is in these numbers");
    let n = 2 * spp + 5;
    let runs = 3;
    // A run of m opening its page: header and padding up to slot 0, then
    // m - 1 strides and a record; then m - 1 strides and one state byte.
    let first = layout.slot_offset(0, 0) as u64;
    let bytes = runs * (first + record) + 2 * (n - runs) * stride + runs;
    let budget: Traffic = [0, 0, 2 * runs, bytes, 2 * n, 2 * runs];
    let keys: Vec<u64> = (1..=n).collect();
    let s = Either::bulk_load(shared, cfg, &keys).nvm_stats();
    let spent = [s.reads, s.bytes_read, s.writes, s.bytes_written, s.flushes, s.fences];
    (spent != budget)
        .then(|| format!("bulk load of {n} (shared={shared}): spent {spent:?}, budget {budget:?}"))
}

#[test]
fn every_operation_costs_the_device_what_the_table_says() {
    let mut wrong = Vec::new();
    for shared in [false, true] {
        for wal in [false, true] {
            for crash_safe in [false, true] {
                wrong.extend(off_budget(shared, wal, crash_safe));
            }
        }
        wrong.extend(bulk_load_off_budget(shared));
    }
    assert!(wrong.is_empty(), "off budget:\n{}", wrong.join("\n"));
}

/// A bulk load leaves the heap as one `append` per key would: the same
/// bytes (offsets, seqs, page headers), the same open page, the same live
/// set after recovery.
#[test]
fn bulk_load_is_byte_identical_to_single_appends() {
    let layout = RecordLayout::small();
    let keys: Vec<u64> = (0..2 * layout.slots_per_page() as u64 + 7).map(|k| k * 3 + 1).collect();
    let value_of = |k: u64, buf: &mut [u8]| buf.fill((k % 251) as u8);
    let fresh =
        || RecordHeap::new(Arc::new(NvmDevice::new(NvmConfig::fast(8 * layout.page_size))), layout);
    let mut bulk = fresh();
    let loaded = bulk.bulk_append(&keys, value_of).unwrap();
    let single = fresh();
    let mut value = vec![0u8; layout.value_size];
    let appended: Vec<(u64, u64)> = keys
        .iter()
        .map(|&k| {
            value_of(k, &mut value);
            (k, single.append(k, &value).unwrap())
        })
        .collect();
    assert_eq!(loaded, appended);
    assert_eq!(bulk.append(0, &value), single.append(0, &value), "open page differs");

    let image_and_live = |heap: RecordHeap| {
        let dev = heap.into_device();
        let mut image = vec![0u8; dev.capacity()];
        dev.read_into(0, &mut image);
        let (_, mut live) = RecordHeap::recover(dev, layout);
        live.sort_unstable();
        (image, live)
    };
    let (bulk_image, bulk_live) = image_and_live(bulk);
    let (single_image, single_live) = image_and_live(single);
    assert!(bulk_image == single_image, "heap bytes differ");
    assert_eq!(bulk_live, single_live);
}
