//! Integration: device-level persistence semantics driven through the full
//! store stack — failure injection beyond the per-crate unit tests.

use std::sync::Arc;

use lip::nvm::{DurabilityTracking, Fault, FaultPlan, LatencyModel, NvmConfig, NvmDevice};
use lip::viper::{RecordHeap, RecordLayout, RecoverOptions, StoreConfig, ViperStore};
use lip::{AnyIndex, IndexKind};
use rand::{rngs::StdRng, RngExt, SeedableRng};

fn crash_config(records: usize) -> StoreConfig {
    let layout = RecordLayout::small();
    let bytes = (records * 2 / layout.slots_per_page() + 16) * layout.page_size;
    StoreConfig {
        layout,
        nvm: NvmConfig {
            capacity: bytes,
            latency: LatencyModel::dram_like(),
            durability: DurabilityTracking::Shadow,
        },
        crash_safe_updates: false,
        durability: None,
    }
}

/// Randomised crash points: after every prefix of a random op stream, a
/// crash must recover exactly the operations applied so far (the store
/// persists synchronously, so nothing in flight can be lost).
#[test]
fn random_crash_points_recover_exact_state() {
    let mut rng = StdRng::seed_from_u64(99);
    for round in 0..5 {
        let config = crash_config(4_000);
        let layout = config.layout;
        let mut store = ViperStore::<AnyIndex>::bulk_load_with(
            config,
            &[],
            |_, _| {},
            |pairs| AnyIndex::build(IndexKind::BTree, pairs),
        );
        let mut oracle = std::collections::HashMap::new();
        let ops = 200 + round * 150;
        for i in 0..ops {
            let k = rng.random_range(0..500u64);
            if rng.random_bool(0.8) {
                let b = (i % 251) as u8;
                store.put(k, &vec![b; layout.value_size]).unwrap();
                oracle.insert(k, b);
            } else {
                let existed = store.delete(k).unwrap();
                assert_eq!(existed, oracle.remove(&k).is_some());
            }
        }
        // Crash.
        let dev = store.into_device();
        let mut dev = Arc::try_unwrap(dev).ok().expect("unique");
        dev.crash();
        let recovered = ViperStore::<AnyIndex>::recover_with(Arc::new(dev), layout, |pairs| {
            AnyIndex::build(IndexKind::BTree, pairs)
        });
        assert_eq!(recovered.len(), oracle.len(), "round {round}");
        let mut buf = vec![0u8; layout.value_size];
        for (&k, &b) in &oracle {
            assert!(recovered.get(k, &mut buf), "round {round}: lost {k}");
            assert!(buf.iter().all(|&x| x == b), "round {round}: wrong value for {k}");
        }
    }
}

/// Unflushed writes straight to the device must vanish at a crash while
/// everything the store wrote (which always persists before publishing)
/// survives — i.e. the store's publish protocol really is what saves it.
#[test]
fn tampering_without_flush_is_lost() {
    let config = crash_config(1_000);
    let layout = config.layout;
    let keys: Vec<u64> = (0..500).map(|i| i * 7).collect();
    let store = ViperStore::<AnyIndex>::bulk_load_with(
        config,
        &keys,
        |k, buf| buf.fill((k % 251) as u8),
        |p| AnyIndex::build(IndexKind::Alex, p),
    );
    let dev = store.into_device();
    // Scribble over a region far past the allocated pages without flushing.
    let cap = dev.capacity();
    dev.write(cap - 64, &[0xFFu8; 64]);
    let mut dev = Arc::try_unwrap(dev).ok().expect("unique");
    dev.crash();
    let mut probe = [0u8; 64];
    dev.read_into(cap - 64, &mut probe);
    assert_eq!(probe, [0u8; 64], "unflushed scribble must be rolled back");
    let recovered: ViperStore<AnyIndex> =
        ViperStore::<AnyIndex>::recover_with(Arc::new(dev), layout, |p| {
            AnyIndex::build(IndexKind::Alex, p)
        });
    assert_eq!(recovered.len(), keys.len());
}

/// A crash at every device op of a bulk load, and a torn write at every op
/// with the crash right behind it: recovery surfaces a prefix of the load
/// in key order (records publish run by run, slot by slot), every record
/// byte-identical to what was loaded, and quarantines nothing. Without a
/// fault every record comes back and no page needs healing.
#[test]
fn crash_or_tear_anywhere_in_a_bulk_load_recovers_a_clean_prefix() {
    let layout = RecordLayout::small();
    let keys: Vec<u64> = (0..layout.slots_per_page() as u64 * 5 / 2).map(|i| i * 7 + 3).collect();
    let value_of = |k: u64, buf: &mut [u8]| buf.fill((k % 251) as u8);
    let load = |plan: &FaultPlan| {
        let dev = Arc::new(NvmDevice::with_faults(
            NvmConfig::fast_with_crash(8 * layout.page_size),
            plan,
        ));
        let mut heap = RecordHeap::new(Arc::clone(&dev), layout);
        let _ = heap.bulk_append(&keys, value_of);
        let ops = dev.fault_injector().expect("injected device").ops();
        drop(heap);
        let mut dev = Arc::try_unwrap(dev).ok().expect("unique");
        dev.crash();
        let (heap, mut live, report) =
            RecordHeap::recover_with_report(Arc::new(dev), layout, RecoverOptions::default());
        live.sort_unstable();
        let mut buf = vec![0u8; layout.value_size];
        let mut expect = vec![0u8; layout.value_size];
        for &(key, off) in &live {
            assert_eq!(heap.read(off, &mut buf).key, key, "{plan:?}");
            value_of(key, &mut expect);
            assert_eq!(buf, expect, "{plan:?}: key {key}");
        }
        let got: Vec<u64> = live.iter().map(|&(k, _)| k).collect();
        assert_eq!(got, keys[..got.len()], "{plan:?}: not a prefix of the load");
        assert_eq!(report.quarantined, 0, "{plan:?}");
        (live.len(), report, ops)
    };

    let (recovered, report, ops) = load(&FaultPlan::none());
    assert_eq!((recovered, report.pages_healed), (keys.len(), 0));
    assert!(ops >= 12, "three page runs of at least four ops each: {ops}");
    for op in 0..ops {
        load(&FaultPlan::crash_at(op));
        let torn = FaultPlan { seed: op, faults: vec![Fault::TornWrite { op, granularity: 8 }] };
        load(&torn.with(Fault::CrashAt { op: op + 1 }));
    }
}

/// Shadow semantics, edge case 1: a flush alone only *stages* the range.
/// Until a fence promotes it, a crash discards it — and the staged copy
/// must not leak into a fence issued after power returns.
#[test]
fn flush_without_fence_is_not_durable() {
    let mut dev = NvmDevice::new(NvmConfig::fast_with_crash(4096));
    dev.write(128, b"staged-but-never-fenced");
    dev.flush(128, 23);
    // No fence. Power loss.
    dev.crash();
    let mut buf = [0xAAu8; 23];
    dev.read_into(128, &mut buf);
    assert_eq!(buf, [0u8; 23], "flushed-unfenced bytes must be rolled back");
    // The crash must also have cleared the pending queue: fencing now must
    // not promote the pre-crash flush.
    dev.fence();
    dev.read_into(128, &mut buf);
    assert_eq!(buf, [0u8; 23], "stale pending flush resurrected by post-crash fence");
}

/// Shadow semantics, edge case 2: overlapping flush ranges. Each flush
/// snapshots memory *at flush time*; the fence replays snapshots in issue
/// order, so a later overlapping flush wins on the overlap while both
/// ranges' non-overlapping parts stay durable.
#[test]
fn overlapping_flush_ranges_last_snapshot_wins() {
    let mut dev = NvmDevice::new(NvmConfig::fast_with_crash(4096));
    dev.write(0, &[0x11u8; 96]);
    dev.flush(0, 96); // snapshot: [0,96) = 0x11
    dev.write(64, &[0x22u8; 96]);
    dev.flush(64, 96); // snapshot: [64,160) = 0x22, overlaps [64,96)
    dev.fence();
    dev.crash();
    let mut buf = [0u8; 160];
    dev.read_into(0, &mut buf);
    assert!(buf[..64].iter().all(|&b| b == 0x11), "prefix from first flush lost");
    assert!(buf[64..160].iter().all(|&b| b == 0x22), "overlap must carry the later snapshot");
    // Reversed timing: a flush taken *before* an overlapping rewrite must
    // persist the old bytes, not the rewrite, if only the first flush was
    // issued.
    let mut dev = NvmDevice::new(NvmConfig::fast_with_crash(4096));
    dev.write(0, &[0x33u8; 64]);
    dev.flush(0, 64);
    dev.write(0, &[0x44u8; 64]); // dirty again, never re-flushed
    dev.fence();
    dev.crash();
    let mut buf = [0u8; 64];
    dev.read_into(0, &mut buf);
    assert!(
        buf.iter().all(|&b| b == 0x33),
        "fence must promote the flush-time snapshot, not the final memory"
    );
}

/// Shadow semantics, edge case 3: flushing a region that was never written
/// is a harmless no-op — it persists the zero bytes already there and must
/// not disturb neighbouring durable data.
#[test]
fn flush_of_unwritten_region_is_harmless() {
    let mut dev = NvmDevice::new(NvmConfig::fast_with_crash(4096));
    dev.write(0, b"neighbour");
    dev.persist(0, 9);
    // [1024,1088) was never written.
    dev.flush(1024, 64);
    dev.fence();
    dev.crash();
    let mut buf = [0xAAu8; 64];
    dev.read_into(1024, &mut buf);
    assert_eq!(buf, [0u8; 64], "unwritten region must read as zeros after crash");
    let mut n = [0u8; 9];
    dev.read_into(0, &mut n);
    assert_eq!(&n, b"neighbour", "neighbouring durable data disturbed");
}

/// Shadow semantics, edge case 4: crashes are idempotent and compose. A
/// second crash with no intervening durable work lands on the same image,
/// and work staged between the two crashes is lost just like before the
/// first one.
#[test]
fn double_crash_recovers_the_same_image() {
    let mut dev = NvmDevice::new(NvmConfig::fast_with_crash(4096));
    dev.write(256, b"durable");
    dev.persist(256, 7);
    dev.write(512, b"volatile");
    dev.crash();
    let mut buf = [0u8; 8];
    dev.read_into(512, &mut buf);
    assert_eq!(buf, [0u8; 8], "unflushed write survived the first crash");
    // Between crashes: write + flush but no fence, then crash again.
    dev.write(512, b"midflush");
    dev.flush(512, 8);
    dev.crash();
    dev.read_into(512, &mut buf);
    assert_eq!(buf, [0u8; 8], "unfenced write survived the second crash");
    let mut d = [0u8; 7];
    dev.read_into(256, &mut d);
    assert_eq!(&d, b"durable", "durable data lost across double crash");
    // And an immediate third crash is a no-op.
    dev.crash();
    dev.read_into(256, &mut d);
    assert_eq!(&d, b"durable");
}

/// The latency model must actually charge time: an Optane-like device is
/// measurably slower than a DRAM-like one for the same traffic.
#[test]
fn latency_model_is_enforced() {
    use std::time::Instant;
    let mk = |latency: LatencyModel| {
        NvmDevice::new(NvmConfig {
            capacity: 1 << 20,
            latency,
            durability: DurabilityTracking::Disabled,
        })
    };
    let fast = mk(LatencyModel::dram_like());
    let slow = mk(LatencyModel::optane_like());
    let mut buf = [0u8; 256];
    let mut time = |dev: &NvmDevice| {
        let t0 = Instant::now();
        for i in 0..2_000usize {
            dev.read_into((i * 256) % (1 << 19), &mut buf);
        }
        t0.elapsed()
    };
    let t_fast = time(&fast);
    let t_slow = time(&slow);
    // The spin-based model guarantees an absolute floor: 2000 single-block
    // reads at 220 ns each. The relative check is kept loose because this
    // test may share a core with sibling test binaries.
    assert!(
        t_slow.as_micros() >= 440,
        "optane-like paid only {t_slow:?}, below the modelled floor"
    );
    assert!(
        t_slow > t_fast,
        "optane-like ({t_slow:?}) should be slower than dram-like ({t_fast:?})"
    );
}
