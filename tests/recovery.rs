//! Integration: crash-recovery round trips (the availability analysis of
//! §III-E2 / Fig. 16) for every index kind, including honest
//! loss-of-unpersisted-data semantics.

use std::sync::Arc;

use lip::nvm::{DurabilityTracking, LatencyModel, NvmConfig};
use lip::viper::{RecordLayout, StoreConfig, ViperStore};
use lip::workloads::{generate_keys, Dataset};
use lip::{AnyIndex, IndexKind};

fn crash_config(n: usize) -> StoreConfig {
    let layout = RecordLayout::small();
    let bytes = (n * 2 / layout.slots_per_page() + 16) * layout.page_size;
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

fn value_of(key: u64, buf: &mut [u8]) {
    buf.fill((key % 251) as u8);
}

#[test]
fn recover_after_clean_shutdown_every_kind() {
    let keys = generate_keys(Dataset::YcsbNormal, 10_000, 5);
    for kind in IndexKind::ALL {
        let config = crash_config(keys.len());
        let layout = config.layout;
        let store = ViperStore::<AnyIndex>::bulk_load_with(config, &keys, value_of, |pairs| {
            AnyIndex::build(kind, pairs)
        });
        let dev = store.into_device();
        let recovered =
            ViperStore::<AnyIndex>::recover_with(dev, layout, |pairs| AnyIndex::build(kind, pairs));
        assert_eq!(recovered.len(), keys.len(), "{}", kind.name());
        let mut buf = vec![0u8; layout.value_size];
        let mut expect = vec![0u8; layout.value_size];
        for &k in keys.iter().step_by(37) {
            assert!(recovered.get(k, &mut buf), "{}: lost {k}", kind.name());
            value_of(k, &mut expect);
            assert_eq!(buf, expect, "{}", kind.name());
        }
    }
}

#[test]
fn crash_preserves_all_published_records() {
    let keys = generate_keys(Dataset::Uniform, 8_000, 6);
    for kind in [IndexKind::Alex, IndexKind::Pgm, IndexKind::BTree, IndexKind::Cceh] {
        let config = crash_config(keys.len() * 2);
        let layout = config.layout;
        let mut store = ViperStore::<AnyIndex>::bulk_load_with(config, &keys, value_of, |pairs| {
            AnyIndex::build(kind, pairs)
        });
        // Post-load mutations: updates, deletes, fresh inserts.
        for &k in keys.iter().take(500) {
            store.put(k, &vec![0xBBu8; layout.value_size]).unwrap();
        }
        for &k in keys.iter().skip(500).take(250) {
            store.delete(k).unwrap();
        }
        for i in 0..500u64 {
            // Fresh keys far outside the loaded set.
            store.put(u64::MAX - 10_000 + i, &vec![0xCCu8; layout.value_size]).unwrap();
        }
        let live = store.len();

        let dev = store.into_device();
        let mut dev = Arc::try_unwrap(dev).ok().expect("unique device");
        dev.crash();
        let recovered = ViperStore::<AnyIndex>::recover_with(Arc::new(dev), layout, |pairs| {
            AnyIndex::build(kind, pairs)
        });
        assert_eq!(recovered.len(), live, "{}", kind.name());

        let mut buf = vec![0u8; layout.value_size];
        assert!(recovered.get(keys[0], &mut buf), "{}", kind.name());
        assert_eq!(buf, vec![0xBB; layout.value_size], "{}: update lost", kind.name());
        assert!(!recovered.get(keys[600], &mut buf), "{}: delete lost", kind.name());
        assert!(recovered.get(u64::MAX - 10_000, &mut buf), "{}: insert lost", kind.name());
        assert_eq!(buf, vec![0xCC; layout.value_size], "{}", kind.name());
    }
}

#[test]
fn recovered_store_keeps_working() {
    let keys = generate_keys(Dataset::OsmLike, 5_000, 9);
    let config = crash_config(keys.len() * 2);
    let layout = config.layout;
    let store: ViperStore<lip::alex::Alex> = ViperStore::bulk_load(config, &keys, value_of);
    let dev = store.into_device();
    let mut recovered: ViperStore<lip::alex::Alex> = ViperStore::recover(dev, layout);

    // The recovered store accepts further writes and reads.
    let mut buf = vec![0u8; layout.value_size];
    for i in 0..2_000u64 {
        let k = u64::MAX / 2 + i * 3 + 1;
        recovered.put(k, &vec![7u8; layout.value_size]).unwrap();
        assert!(recovered.get(k, &mut buf));
    }
    assert_eq!(recovered.len(), keys.len() + 2_000);
}

mod durable {
    //! Recovery resilience when the durability artifacts themselves are
    //! damaged. A corrupt delta segment, a corrupt base image or a
    //! truncated manifest must be *detected* (CRC), surfaced as
    //! quarantine-style telemetry, and degrade gracefully — previous
    //! generation first, full page rescan as the floor — never a panic,
    //! never silent data loss.

    use super::*;
    use lip::core::telemetry::{Event, Recorder};
    use lip::nvm::{Fault, FaultPlan, NvmDevice};
    use lip::viper::checkpoint::{newest_manifest, Geometry};
    use lip::viper::{DurabilityConfig, RecoverOptions, ViperError};
    use lip::IndexKind;

    const KIND: IndexKind = IndexKind::BTree;

    /// Mutations the WAL holds past the bulk-load checkpoint: 115 behind
    /// generation 2's delta, 80 after it.
    const LOGGED: usize = 115 + 80;

    /// Loads a durable store (generation 1: a base image), changes it and
    /// checkpoints (generation 2: one delta segment after that base),
    /// leaves a replayable WAL tail, and pulls the plug. Returns the
    /// crashed device, its geometry and the expected live count.
    fn crashed_durable_device(
    ) -> (lip::nvm::NvmDevice, Geometry, DurabilityConfig, RecordLayout, Vec<u64>, usize) {
        let keys = generate_keys(Dataset::Uniform, 2_000, 11);
        let durability = DurabilityConfig::sized_for(4_096, 512);
        let config = crash_config(keys.len() * 2).with_durability(durability);
        let layout = config.layout;
        let capacity = config.nvm.capacity;
        let mut store = ViperStore::<AnyIndex>::bulk_load_with(config, &keys, value_of, |pairs| {
            AnyIndex::build(KIND, pairs)
        });
        for &k in keys.iter().take(100) {
            store.put(k, &vec![0xBBu8; layout.value_size]).unwrap();
        }
        // Mapping changes for the delta to carry: inserts and deletes.
        for i in 0..10u64 {
            store.put(u64::MAX - 1_000 + i, &vec![0xAAu8; layout.value_size]).unwrap();
        }
        for &k in keys.iter().skip(1_800).take(5) {
            store.delete(k).unwrap();
        }
        store.checkpoint_now().unwrap(); // generation 2
                                         // Tail ops that only the WAL knows about.
        for &k in keys.iter().skip(100).take(50) {
            store.put(k, &vec![0xDDu8; layout.value_size]).unwrap();
        }
        for i in 0..20u64 {
            store.put(u64::MAX - 100 + i, &vec![0xEEu8; layout.value_size]).unwrap();
        }
        for &k in keys.iter().skip(1_900).take(10) {
            store.delete(k).unwrap();
        }
        let expected = store.len();
        assert_eq!(expected, 2_000 + 10 - 5 + 20 - 10);
        assert_eq!(store.checkpoint_generation(), 2);

        let geom = Geometry::compute(capacity, layout.page_size, &durability)
            .expect("store was built with this geometry");
        let mut dev = Arc::try_unwrap(store.into_device()).ok().expect("unique device");
        dev.crash();
        let newest = newest_manifest(&dev, &geom);
        assert_eq!((newest.generation, newest.slot), (2, 0));
        assert_eq!(newest.delta_len, 40 + 15 * 16, "generation 2 is one delta of 15 keys");
        (dev, geom, durability, layout, keys, expected)
    }

    /// Recovers `dev` and checks every acked mutation survived.
    fn recover_and_verify(
        dev: lip::nvm::NvmDevice,
        durability: DurabilityConfig,
        layout: RecordLayout,
        keys: &[u64],
        expected: usize,
    ) -> (lip::viper::RecoveryReport, Recorder, u64) {
        let recorder = Recorder::enabled();
        let opts = RecoverOptions { durability: Some(durability), ..RecoverOptions::default() };
        let (store, report) = ViperStore::<AnyIndex>::recover_recorded(
            Arc::new(dev),
            layout,
            opts,
            recorder.clone(),
            |pairs| AnyIndex::build(KIND, pairs),
        );
        assert_eq!(store.len(), expected, "acked writes lost");
        let mut buf = vec![0u8; layout.value_size];
        assert!(store.get(keys[0], &mut buf));
        assert_eq!(buf, vec![0xBB; layout.value_size], "checkpointed update lost");
        assert!(store.get(u64::MAX - 1_000, &mut buf), "checkpointed insert lost");
        assert!(!store.get(keys[1_802], &mut buf), "checkpointed delete resurrected");
        assert!(store.get(keys[120], &mut buf));
        assert_eq!(buf, vec![0xDD; layout.value_size], "WAL-tail update lost");
        assert!(store.get(u64::MAX - 100, &mut buf), "WAL-tail insert lost");
        assert!(!store.get(keys[1_905], &mut buf), "WAL-tail delete resurrected");
        let generation = store.checkpoint_generation();
        (report, recorder, generation)
    }

    /// Persistently scribbles over `len` bytes at `offset`.
    fn corrupt(dev: &lip::nvm::NvmDevice, offset: usize, len: usize, byte: u8) {
        dev.write(offset, &vec![byte; len]);
        dev.persist(offset, len);
        dev.fence();
    }

    #[test]
    fn intact_chain_replays_only_the_tail_past_the_delta() {
        let (dev, _geom, durability, layout, keys, expected) = crashed_durable_device();
        let (report, _recorder, generation) =
            recover_and_verify(dev, durability, layout, &keys, expected);
        assert!(report.from_checkpoint);
        assert_eq!((report.replayed, report.quarantined), (80, 0));
        assert_eq!(generation, 3);
    }

    #[test]
    fn corrupted_newest_delta_falls_back_one_generation() {
        let (dev, geom, durability, layout, keys, expected) = crashed_durable_device();
        // Shred the tail of the chain: generation 2's segment. What
        // generation 1 names — the base before it — is untouched.
        let newest = newest_manifest(&dev, &geom);
        corrupt(&dev, geom.blob_base[0] + newest.base_len + newest.delta_len - 64, 64, 0xA5);
        let (report, recorder, generation) =
            recover_and_verify(dev, durability, layout, &keys, expected);
        assert!(report.from_checkpoint, "previous generation must still be used");
        // Post-recovery checkpoint = loaded generation + 1; falling back
        // to generation 1 lands it on 2 (a verified generation 2 would
        // have produced 3) — and the replay starts at the bulk load.
        assert_eq!(generation, 2, "recovery did not fall back to generation 1");
        assert_eq!(report.replayed, LOGGED, "the tail behind the lost delta must be replayed");
        assert!(report.quarantined >= 1, "the rejected chain must be reported");
        assert!(recorder.snapshot().event(Event::QuarantineSlot) >= 1);
    }

    #[test]
    fn truncated_manifest_falls_back_one_generation() {
        let (dev, geom, durability, layout, keys, expected) = crashed_durable_device();
        // A torn manifest write: the tail of generation 2's manifest
        // (including its CRC) never made it out.
        corrupt(&dev, geom.manifest_base[0] + 16, 48, 0x00);
        let (report, _recorder, generation) =
            recover_and_verify(dev, durability, layout, &keys, expected);
        assert!(report.from_checkpoint);
        assert_eq!(generation, 2, "recovery did not fall back to generation 1");
        assert_eq!(report.replayed, LOGGED);
    }

    #[test]
    fn corrupt_base_shared_by_both_manifests_degrades_to_full_rescan() {
        let (dev, geom, durability, layout, keys, expected) = crashed_durable_device();
        // Both generations name the same base: no generation is left.
        corrupt(&dev, geom.blob_base[0] + 8, 256, 0xA5);
        let (report, _recorder, generation) =
            recover_and_verify(dev, durability, layout, &keys, expected);
        assert!(!report.from_checkpoint, "no generation is loadable — must rescan");
        // The rescan's own checkpoint is numbered above both of them.
        assert_eq!(generation, 3);
    }

    #[test]
    fn all_checkpoint_artifacts_corrupt_degrades_to_full_rescan() {
        let (dev, geom, durability, layout, keys, expected) = crashed_durable_device();
        for slot in 0..2 {
            corrupt(&dev, geom.manifest_base[slot], 64, 0xFF);
            corrupt(&dev, geom.blob_base[slot], 512, 0xFF);
        }
        let (report, _recorder, generation) =
            recover_and_verify(dev, durability, layout, &keys, expected);
        assert!(!report.from_checkpoint, "no generation is loadable — must rescan");
        // The rescan floor still replays WAL deletes (else the 10
        // deleted keys would resurrect — checked in recover_and_verify)
        // and re-checkpoints so the *next* recovery is fast again.
        assert!(generation >= 1);
    }

    /// A store whose blob slots hold the base of its 200 loaded keys and
    /// 200 bytes more, so that a delta of eleven changes has to fold.
    fn tight_store() -> (ViperStore<AnyIndex>, Geometry, RecoverOptions, Vec<u64>) {
        let keys = generate_keys(Dataset::Uniform, 200, 13);
        let durability = DurabilityConfig {
            wal_records: 256,
            checkpoint_bytes: 48 + 200 * 16 + 200,
            checkpoint_lag: 128,
        };
        let config = crash_config(1_000).with_durability(durability);
        let geom = Geometry::compute(config.nvm.capacity, config.layout.page_size, &durability)
            .expect("the config grew the device to fit");
        let store = ViperStore::<AnyIndex>::bulk_load_with(config, &keys, value_of, |pairs| {
            AnyIndex::build(KIND, pairs)
        });
        let opts = RecoverOptions { durability: Some(durability), ..RecoverOptions::default() };
        (store, geom, opts, keys)
    }

    #[test]
    fn fold_over_a_base_corrupted_at_runtime_rescans_the_heap_instead() {
        let (mut store, geom, opts, keys) = tight_store();
        let layout = store.heap().layout();
        for i in 0..10u64 {
            store.put(u64::MAX - 50 + i, &vec![0xCCu8; layout.value_size]).unwrap();
        }
        assert!(store.delete(keys[7]).unwrap());
        // Bit rot in the image the fold is about to read back.
        corrupt(store.heap().device(), geom.blob_base[0] + 100, 32, 0x5A);
        let read_before = store.heap().device().stats_snapshot().bytes_read;
        assert!(store.checkpoint_now().unwrap(), "the fold must fall back, not fail");
        let read = store.heap().device().stats_snapshot().bytes_read - read_before;
        assert!(read as usize >= store.heap().nvm_bytes_used(), "fallback = a heap scan");
        let newest = newest_manifest(store.heap().device(), &geom);
        assert_eq!((newest.generation, newest.slot, newest.delta_len), (2, 1, 0));

        let expected = store.len();
        let (recovered, report) = ViperStore::<AnyIndex>::recover_with_options(
            store.into_device(),
            layout,
            opts,
            |pairs| AnyIndex::build(KIND, pairs),
        );
        assert!(report.from_checkpoint, "the rebuilt base must be the next restart's start");
        assert_eq!((report.replayed, report.quarantined), (0, 0));
        assert_eq!(recovered.len(), expected);
        let mut buf = vec![0u8; layout.value_size];
        assert!(recovered.get(u64::MAX - 50, &mut buf));
        assert!(!recovered.get(keys[7], &mut buf));
    }

    #[test]
    fn failed_delta_write_keeps_its_changes_for_the_next_checkpoint() {
        let layout = RecordLayout::small();
        let durability = DurabilityConfig::sized_for(256, 64);
        let capacity = 32 * layout.page_size
            + durability.region_bytes().div_ceil(layout.page_size) * layout.page_size
            + layout.page_size;
        let opts = RecoverOptions { durability: Some(durability), ..RecoverOptions::default() };
        // Ten inserts, a checkpoint that may fault, ten more inserts, a
        // checkpoint that must not. Returns the store and the device op
        // at which the first checkpoint began.
        let script = |plan: &FaultPlan| {
            let config = NvmConfig {
                capacity,
                latency: LatencyModel::dram_like(),
                durability: DurabilityTracking::Shadow,
            };
            let dev = Arc::new(NvmDevice::with_faults(config, plan));
            let (mut store, _) = ViperStore::<AnyIndex>::recover_with_options(
                Arc::clone(&dev),
                layout,
                opts,
                |pairs| AnyIndex::build(KIND, pairs),
            );
            for k in 0..10u64 {
                store.put(k, &vec![1u8; layout.value_size]).unwrap();
            }
            let checkpoint_op = dev.fault_injector().expect("injected device").ops();
            let first = store.checkpoint_now();
            for k in 10..20u64 {
                store.put(k, &vec![2u8; layout.value_size]).unwrap();
            }
            (store, checkpoint_op, first)
        };
        let (_, checkpoint_op, rehearsal) = script(&FaultPlan::none());
        assert_eq!(rehearsal, Ok(true));

        // The segment write fails past its retry budget.
        let burst = (0..8).fold(FaultPlan::none(), |plan, i| {
            plan.with(Fault::FailedWrite { op: checkpoint_op + i })
        });
        let (mut store, _, first) = script(&burst);
        assert!(matches!(first, Err(ViperError::Nvm(_))), "the burst must fail it: {first:?}");
        assert_eq!(store.checkpoint_generation(), 1, "nothing was named");
        assert_eq!(store.wal_lag(), 20, "nothing was retired");
        assert_eq!(store.checkpoint_now(), Ok(true));
        assert_eq!((store.checkpoint_generation(), store.wal_lag()), (2, 0));

        let (recovered, report) = ViperStore::<AnyIndex>::recover_with_options(
            store.into_device(),
            layout,
            opts,
            |pairs| AnyIndex::build(KIND, pairs),
        );
        assert!(report.from_checkpoint);
        assert_eq!((report.replayed, report.quarantined), (0, 0));
        assert_eq!(recovered.len(), 20, "the failed checkpoint's ten keys must be in the image");
    }

    /// The image comes from the change list and index lookups, never from
    /// an ordered walk of the index: CCEH answers `range` with nothing.
    #[test]
    fn unordered_index_restarts_from_its_delta_chain() {
        let keys = generate_keys(Dataset::Uniform, 500, 17);
        let durability = DurabilityConfig {
            wal_records: 128,
            checkpoint_bytes: 48 + 2_000 * 16,
            checkpoint_lag: 64,
        };
        let config = crash_config(2_000).with_durability(durability);
        let layout = config.layout;
        let build = |pairs: &[(u64, u64)]| AnyIndex::build(IndexKind::Cceh, pairs);
        let mut store = ViperStore::<AnyIndex>::bulk_load_with(config, &keys, value_of, build);
        let mut oracle: std::collections::BTreeMap<u64, u8> =
            keys.iter().map(|&k| (k, (k % 251) as u8)).collect();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..3_000u64 {
            rng =
                rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let key =
                if rng >> 63 == 0 { keys[(rng >> 20) as usize % keys.len()] } else { rng >> 40 };
            if (rng >> 8).is_multiple_of(4) {
                assert_eq!(store.delete(key).unwrap(), oracle.remove(&key).is_some());
            } else {
                store.put(key, &vec![i as u8; layout.value_size]).unwrap();
                oracle.insert(key, i as u8);
            }
            if i.is_multiple_of(37) {
                assert!(store.checkpoint_now().unwrap());
            }
        }
        assert!(store.checkpoint_now().unwrap());
        assert!(store.checkpoint_generation() > 80);
        let opts = RecoverOptions { durability: Some(durability), ..RecoverOptions::default() };
        let (recovered, report) =
            ViperStore::<AnyIndex>::recover_with_options(store.into_device(), layout, opts, build);
        assert!(report.from_checkpoint);
        assert_eq!((report.replayed, report.quarantined), (0, 0));
        assert_eq!(recovered.len(), oracle.len());
        let mut buf = vec![0u8; layout.value_size];
        for (&k, &b) in &oracle {
            assert!(recovered.get(k, &mut buf), "key {k} lost");
            assert_eq!(buf, vec![b; layout.value_size], "key {k} came back stale");
        }
    }
}
