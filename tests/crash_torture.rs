//! Randomized crash-torture of the Viper recovery path (ISSUE tentpole):
//! ≥100 seeded crash schedules across ≥3 index backends, each checked
//! against an in-DRAM oracle, plus a directed demonstration that the
//! per-record CRC is load-bearing (disabling quarantine surfaces a record
//! the workload never wrote).
//!
//! Larger sweeps: `cargo run --release -p li-bench -- torture --seeds 1000`.

use std::sync::Arc;

use lip::nvm::{Fault, FaultPlan, NvmConfig, NvmDevice};
use lip::torture::{torture_run, TortureConfig};
use lip::viper::{RecordHeap, RecordLayout, RecoverOptions};
use lip::IndexKind;

/// 120 seeded schedules (40 per backend) with crash-safe updates: every
/// run must satisfy the oracle, and the sweep as a whole must actually
/// have exercised the fault machinery.
#[test]
fn hundred_plus_seeds_across_three_backends() {
    let kinds = [IndexKind::BTree, IndexKind::Pgm, IndexKind::Alex];
    let mut crashes = 0u64;
    let mut faults_total = 0u64;
    let mut quarantined = 0usize;
    let mut failures = Vec::new();
    for &kind in &kinds {
        let cfg = TortureConfig::quick(kind);
        for seed in 0..40u64 {
            let out = torture_run(seed, &cfg);
            crashes += out.faults.crash_triggers;
            faults_total += out.faults.torn_writes
                + out.faults.dropped_flushes
                + out.faults.failed_writes
                + out.faults.full_rejections;
            quarantined += out.report.quarantined;
            if !out.passed() {
                failures.push(format!(
                    "kind={} seed={}: {:?}",
                    kind.name(),
                    out.seed,
                    out.divergences
                ));
            }
        }
    }
    assert!(failures.is_empty(), "oracle divergences:\n{}", failures.join("\n"));
    // The sweep is only meaningful if faults really fired.
    assert!(crashes > 60, "only {crashes} crash points fired across 120 runs");
    assert!(faults_total > 0, "no byzantine faults were injected in 120 runs");
    // Not asserted: quarantines are legal but depend on schedule timing.
    let _ = quarantined;
}

/// The same crash schedules must hold when the store under torture is the
/// shared-writer flavour over a range-sharded index — the publish path the
/// multi-threaded figures run through.
#[test]
fn sharded_store_survives_torture() {
    let kinds = [IndexKind::BTree, IndexKind::Pgm, IndexKind::Alex];
    let mut crashes = 0u64;
    let mut failures = Vec::new();
    for &kind in &kinds {
        let cfg = TortureConfig::quick_sharded(kind);
        for seed in 200..220u64 {
            let out = torture_run(seed, &cfg);
            crashes += out.faults.crash_triggers;
            if !out.passed() {
                failures.push(format!(
                    "kind={} seed={}: {:?}",
                    kind.name(),
                    out.seed,
                    out.divergences
                ));
            }
        }
    }
    assert!(failures.is_empty(), "oracle divergences:\n{}", failures.join("\n"));
    assert!(crashes > 30, "only {crashes} crash points fired across 60 sharded runs");
}

/// In-place updates are the paper's (and real Viper's) fast path; the
/// oracle must hold for them too — a torn in-place update may cost that
/// one record (quarantine) but can never surface a torn value.
#[test]
fn in_place_update_mode_survives_torture() {
    let mut cfg = TortureConfig::quick(IndexKind::BTree);
    cfg.crash_safe_updates = false;
    for seed in 100..130u64 {
        let out = torture_run(seed, &cfg);
        assert!(out.passed(), "seed {}: {:?}", out.seed, out.divergences);
    }
}

/// Acceptance demo: a dropped payload flush behind a successful publish
/// creates a durably LIVE slot whose bytes never hit the device. With
/// checksum verification the record is quarantined; with verification
/// disabled (the pre-hardening recovery) a record the workload never
/// wrote surfaces. This is the failure the CRC exists to stop.
#[test]
fn dropped_flush_corruption_caught_only_by_checksum() {
    let layout = RecordLayout::small();
    // Op schedule of the first append on a fresh heap:
    //   0: page-header write   1: header flush   2: header fence
    //   3: payload write       4: payload flush  5: fence
    //   6: state write (LIVE)  7: state flush    8: fence
    // Dropping op 4 acks the payload flush without capturing it.
    let plan = FaultPlan { seed: 0, faults: vec![Fault::DroppedFlush { op: 4 }] };
    let dev =
        Arc::new(NvmDevice::with_faults(NvmConfig::fast_with_crash(16 * layout.page_size), &plan));
    let heap = RecordHeap::new(Arc::clone(&dev), layout);
    let mut value = vec![0u8; layout.value_size];
    lip::torture::value_pattern(42, 1, &mut value);
    heap.append(42, &value).expect("append acked");
    assert_eq!(dev.fault_counters().dropped_flushes, 1, "fault must have fired");
    drop(heap);

    // Power loss: only durably captured bytes survive.
    let mut dev = Arc::try_unwrap(dev).ok().expect("unique");
    dev.crash();
    let dev = Arc::new(dev);

    // Hardened recovery: the lying flush is caught and quarantined.
    let (_, live, report) =
        RecordHeap::recover_with_report(Arc::clone(&dev), layout, RecoverOptions::default());
    assert_eq!(report.quarantined, 1, "corrupt slot must be quarantined");
    assert!(live.is_empty(), "no record may surface: {live:?}");

    // Pre-hardening recovery (verification off): the slot's state byte
    // says LIVE, so a never-written record surfaces — the harness fails
    // if quarantine is disabled.
    let (heap, live, report) = RecordHeap::recover_with_report(
        dev,
        layout,
        RecoverOptions { verify_checksums: false, ..RecoverOptions::default() },
    );
    assert_eq!(report.quarantined, 0);
    assert_eq!(live.len(), 1, "unverified recovery trusts the corrupt slot");
    let (bogus_key, bogus_off) = live[0];
    let mut buf = vec![0u8; layout.value_size];
    heap.read(bogus_off, &mut buf);
    let surfaced_written_bytes = bogus_key == 42 && buf == value;
    assert!(!surfaced_written_bytes, "the dropped flush means the written bytes cannot be durable");
    assert_eq!(
        lip::torture::decode_version(bogus_key, &buf),
        None,
        "unverified recovery surfaced bytes that decode as a real write"
    );
}

/// A dropped *page-header* flush must not cost the page: recovery used to
/// stop at the first page without a valid magic, silently discarding every
/// record in it (found by the torture sweep at seed 97 — a single lying
/// flush at device op 1 lost 118 acked keys). Recovery now salvages
/// allocated pages from slot evidence and re-stamps the header.
#[test]
fn dropped_header_flush_does_not_lose_the_page() {
    let layout = RecordLayout::small();
    // Op 1 is the header flush of the first page (0: header write,
    // 1: header flush, 2: header fence).
    let plan = FaultPlan { seed: 0, faults: vec![Fault::DroppedFlush { op: 1 }] };
    let dev =
        Arc::new(NvmDevice::with_faults(NvmConfig::fast_with_crash(16 * layout.page_size), &plan));
    let heap = RecordHeap::new(Arc::clone(&dev), layout);
    let mut value = vec![0u8; layout.value_size];
    for key in 0..10u64 {
        lip::torture::value_pattern(key, 1, &mut value);
        heap.append(key, &value).expect("append acked");
    }
    assert_eq!(dev.fault_counters().dropped_flushes, 1);
    drop(heap);
    let mut dev = Arc::try_unwrap(dev).ok().expect("unique");
    dev.crash();

    let (heap, live, report) =
        RecordHeap::recover_with_report(Arc::new(dev), layout, RecoverOptions::default());
    assert_eq!(report.pages_healed, 1, "the magic-less page must be salvaged");
    assert_eq!(live.len(), 10, "all published records must survive: {report:?}");
    for &(key, off) in &live {
        let mut buf = vec![0u8; layout.value_size];
        heap.read(off, &mut buf);
        assert_eq!(lip::torture::decode_version(key, &buf), Some(1), "key {key}");
    }

    // The re-stamped header is durable: a second crash recovers the same
    // state without needing to salvage again.
    let mut dev = Arc::try_unwrap(heap.into_device()).ok().expect("unique");
    dev.crash();
    let (_, live2, report2) =
        RecordHeap::recover_with_report(Arc::new(dev), layout, RecoverOptions::default());
    assert_eq!(report2.pages_healed, 0, "header healing must itself be durable");
    assert_eq!(live2.len(), 10);
}

/// The whole sweep is replayable: the same seed yields the same outcome,
/// fault counts included.
#[test]
fn torture_runs_are_deterministic() {
    let cfg = TortureConfig::quick(IndexKind::Pgm);
    for seed in [1u64, 17, 23] {
        let a = torture_run(seed, &cfg);
        let b = torture_run(seed, &cfg);
        assert_eq!(a.ops_acked, b.ops_acked, "seed {seed}");
        assert_eq!(a.faults, b.faults, "seed {seed}");
        assert_eq!(a.report, b.report, "seed {seed}");
        assert_eq!(a.divergences, b.divergences, "seed {seed}");
    }
}

/// Durable twin of the main sweep: 120 seeded schedules (40 per backend)
/// against the WAL + checkpoint store. Crash points now also land inside
/// WAL appends, group-commit flushes and mid-run checkpoint writes, and
/// the recovery under test is checkpoint + log replay rather than a page
/// rescan — the oracle (zero lost acked writes beyond the lying-fault
/// budget) must hold regardless.
#[test]
fn durable_stores_survive_torture() {
    let kinds = [IndexKind::BTree, IndexKind::Pgm, IndexKind::Alex];
    let mut crashes = 0u64;
    let mut from_checkpoint = 0usize;
    let mut failures = Vec::new();
    for &kind in &kinds {
        let cfg = TortureConfig::quick_durable(kind);
        for seed in 0..40u64 {
            let out = torture_run(seed, &cfg);
            crashes += out.faults.crash_triggers;
            from_checkpoint += out.report.from_checkpoint as usize;
            if !out.passed() {
                failures.push(format!(
                    "kind={} seed={}: {:?}",
                    kind.name(),
                    out.seed,
                    out.divergences
                ));
            }
        }
    }
    assert!(failures.is_empty(), "oracle divergences:\n{}", failures.join("\n"));
    assert!(crashes > 60, "only {crashes} crash points fired across 120 durable runs");
    // The fast path must actually be the common case, not a lucky fallback.
    assert!(from_checkpoint > 90, "only {from_checkpoint}/120 runs recovered from a checkpoint");
}

/// Shared-writer durable stores under the same schedules.
#[test]
fn sharded_durable_store_survives_torture() {
    let cfg = TortureConfig::quick_durable_sharded(IndexKind::BTree);
    for seed in 300..320u64 {
        let out = torture_run(seed, &cfg);
        assert!(out.passed(), "seed {}: {:?}", out.seed, out.divergences);
    }
}

/// Exhaustive directed crash points for the durability tentpole: a
/// rehearsal run (no faults) measures the device-op window that holds one
/// WAL append + group-commit flush and three checkpoints of every shape —
/// a delta segment appended after the base (segment + manifest write), a
/// fold into the other slot once the next segment no longer fits, and the
/// first delta after that fold, while the two manifests still name
/// different slots — each followed by a log tail. The script is then
/// replayed once per device op in the window with a crash pinned to
/// exactly that op. Every replay must recover all acked writes
/// byte-exactly (crash-only plans have a zero lying-fault budget) and the
/// in-flight op must be either-or.
#[test]
fn every_crash_point_in_wal_append_group_commit_and_checkpoint_recovers() {
    use lip::core::traits::BulkBuildIndex;
    use lip::nvm::NvmError;
    use lip::torture::{decode_version, value_pattern};
    use lip::traditional::BPlusTree;
    use lip::viper::checkpoint::{newest_manifest, Geometry, Manifest};
    use lip::viper::{DurabilityConfig, ViperError, ViperStore};
    use std::collections::BTreeMap;

    let layout = RecordLayout::small();
    // Slots of 300 bytes: the empty base (48) and the first delta of nine
    // keys (184) fit one; the next delta of three (88) does not, so that
    // checkpoint folds twelve keys into a base of 240; a delta of one key
    // (56) still fits behind it.
    let durability =
        DurabilityConfig { wal_records: 64, checkpoint_bytes: 300, checkpoint_lag: 32 };
    let capacity = 32 * layout.page_size
        + durability.region_bytes().div_ceil(layout.page_size) * layout.page_size
        + layout.page_size;
    let geom = Geometry::compute(capacity, layout.page_size, &durability).expect("device fits");
    let opts = RecoverOptions { durability: Some(durability), ..RecoverOptions::default() };

    // Runs the deterministic script against `plan`; returns the acked
    // (key -> version) map, the in-flight key (if the script crashed in a
    // put), window marks (taken with `FaultPlan::none`) and the manifest
    // each completed checkpoint named.
    struct Run {
        acked: BTreeMap<u64, u64>,
        in_flight: Option<u64>,
        dev: Arc<NvmDevice>,
        marks: [u64; 2],
        named: Vec<Manifest>,
    }
    let script = |plan: &FaultPlan| -> Run {
        let dev = Arc::new(NvmDevice::with_faults(NvmConfig::fast_with_crash(capacity), plan));
        let (mut store, _) = ViperStore::<BPlusTree>::recover_with_options(
            Arc::clone(&dev),
            layout,
            opts,
            BPlusTree::build,
        );
        let ops = |d: &NvmDevice| d.fault_injector().expect("injected device").ops();
        let mut acked = BTreeMap::new();
        let mut in_flight = None;
        let mut value = vec![0u8; layout.value_size];
        let mut marks = [0u64; 2];
        let mut named = Vec::new();
        // Setup writes, then the probe put (WAL append + group commit);
        // every phase from the probe on ends in a checkpoint, the last in
        // a replayed tail — all distinct keys.
        let phases: [&[u64]; 5] =
            [&[1, 2, 3, 4, 5, 6, 7, 8], &[100], &[200, 201, 202], &[300], &[400, 401]];
        'outer: for (i, keys) in phases.iter().enumerate() {
            if i == 1 {
                marks[0] = ops(&dev);
            }
            for &key in *keys {
                value_pattern(key, key + 1, &mut value);
                match store.put(key, &value) {
                    Ok(()) => {
                        acked.insert(key, key + 1);
                    }
                    Err(ViperError::Nvm(NvmError::Crashed)) => {
                        in_flight = Some(key);
                        break 'outer;
                    }
                    Err(e) => panic!("unexpected error on key {key}: {e}"),
                }
            }
            if (1..=3).contains(&i) {
                match store.checkpoint_now() {
                    Ok(_) => named.push(newest_manifest(&dev, &geom)),
                    Err(ViperError::Nvm(NvmError::Crashed)) => break 'outer,
                    Err(e) => panic!("unexpected checkpoint error: {e}"),
                }
            }
        }
        marks[1] = ops(&dev);
        drop(store);
        Run { acked, in_flight, dev, marks, named }
    };

    let rehearsal = script(&FaultPlan::none());
    assert!(rehearsal.in_flight.is_none(), "rehearsal must not crash");
    assert_eq!(rehearsal.acked.len(), 15);
    // Recovery of the empty device named generation 1 (slot 0); the
    // window's checkpoints are a delta, a fold, and a delta on the fold.
    let shape: Vec<_> =
        rehearsal.named.iter().map(|m| (m.generation, m.slot, m.delta_len)).collect();
    assert_eq!(shape, [(2, 0, 184), (3, 1, 0), (4, 1, 56)]);
    let [probe_start, end] = rehearsal.marks;
    assert!(end > probe_start + 40, "window too small to hold the append and three checkpoints");

    let mut value = vec![0u8; layout.value_size];
    for op in probe_start..end {
        let run = script(&FaultPlan::crash_at(op));
        let mut dev = Arc::try_unwrap(run.dev).ok().expect("script dropped its store");
        dev.crash();
        let (store, report) = ViperStore::<BPlusTree>::recover_with_options(
            Arc::new(dev),
            layout,
            opts,
            BPlusTree::build,
        );
        assert!(report.from_checkpoint, "op {op}: durable recovery must use the checkpoint");
        for (&key, &version) in &run.acked {
            assert!(store.get(key, &mut value), "op {op}: acked key {key} lost");
            assert_eq!(
                decode_version(key, &value),
                Some(version),
                "op {op}: acked key {key} came back wrong"
            );
        }
        // The in-flight op is either-or: absent, or complete and correct.
        let mut expected = run.acked.len();
        if let Some(key) = run.in_flight {
            if store.get(key, &mut value) {
                assert_eq!(
                    decode_version(key, &value),
                    Some(key + 1),
                    "op {op}: in-flight key {key} surfaced torn"
                );
                expected += 1;
            }
        }
        assert_eq!(store.len(), expected, "op {op}: phantom records surfaced");
    }
}
