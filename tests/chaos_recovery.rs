//! Chaos suite for the self-healing service layer: multi-threaded seeded
//! sessions against a fault-injected device with the maintenance worker
//! running, checked against an in-DRAM oracle.
//!
//! What must hold:
//!
//! * **Oracle equivalence** — every acked op is visible afterwards, every
//!   failed op is absent (transient-fault retry never half-applies).
//! * **Eventual read-only exit** — a store degraded by device-full
//!   windows comes back writable once the worker can lift it.
//! * **Quarantine repair** — after a corrupting restart, the worker
//!   resolves every quarantined slot as superseded or lost; none linger.
//! * **Retrain backlog** — under a worker that cannot drain, a flood
//!   grows the deferred-retrain queue while every put and delete still
//!   succeeds; a worker with a real budget then drains it to zero.
//! * **Adaptation under faults** — with skewed traffic on a sharded
//!   router, the maintenance worker keeps committing tuner decisions
//!   (splits and merges) through injected device failures, and no
//!   cutover loses or duplicates an acked op.
//! * **Bounded time** — every session runs under a deadline watchdog, so
//!   a deadlock or livelock fails the test instead of hanging CI.

use li_sync::sync::atomic::{AtomicBool, Ordering};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use lip::core::telemetry::{Event, Recorder};
use lip::core::traits::ConcurrentIndex;
use lip::core::Sharded;
use lip::nvm::fault::splitmix64;
use lip::nvm::{Fault, FaultPlan, NvmDevice};
use lip::viper::{
    ConcurrentViperStore, MaintenanceConfig, MaintenanceWorker, RecoverOptions, RetryPolicy,
    StoreConfig,
};
use lip::IndexKind;

/// Runs `f` on a helper thread and panics if it exceeds `limit` — the
/// suite's deadlock watchdog.
fn with_deadline<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let h = li_sync::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(v) => {
            h.join().expect("chaos session panicked");
            v
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match h.join() {
            Err(e) => std::panic::resume_unwind(e),
            Ok(()) => unreachable!("sender dropped without sending or panicking"),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("chaos session exceeded {limit:?} — deadlock or livelock")
        }
    }
}

/// Polls `cond` every 5 ms until it holds or `limit` passes.
fn eventually(limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < limit {
        if cond() {
            return true;
        }
        li_sync::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

/// Self-describing value: the version in the first 8 bytes, a key byte
/// after — enough to verify the oracle's exact version survived.
fn value_of(key: u64, version: u64, buf: &mut [u8]) {
    buf[..8].copy_from_slice(&version.to_le_bytes());
    buf[8..].fill((key % 251) as u8);
}

fn sharded_btree(shards: usize) -> impl FnOnce(&[(u64, u64)]) -> Sharded {
    move |pairs| Sharded::build_boxed(shards, pairs, |c| IndexKind::BTree.build(c))
}

#[test]
fn transient_storm_eight_threads_matches_oracle_and_exits_read_only() {
    with_deadline(Duration::from_mins(2), || {
        const THREADS: u64 = 8;
        const OPS: u64 = 600;

        // Deterministic storm: short write-failure bursts plus device-full
        // windows scattered over the op horizon (~8 threads × 600 ops ×
        // several device ops each).
        let mut plan = FaultPlan::none();
        for b in 0..20u64 {
            let start = 500 + b * 1_400;
            for op in start..start + 4 {
                plan = plan.with(Fault::FailedWrite { op });
            }
        }
        for w in 0..6u64 {
            let from = 2_000 + w * 4_500;
            plan = plan.with(Fault::FullWindow { from, until: from + 30 });
        }

        let cfg = StoreConfig::test(40_000);
        let dev = Arc::new(NvmDevice::with_faults(cfg.nvm, &plan));
        let (mut store, _) = ConcurrentViperStore::<Sharded>::recover_with_options(
            dev,
            cfg.layout,
            RecoverOptions::default(),
            sharded_btree(8),
        );
        store.set_recorder(Recorder::enabled());
        store.set_retry_policy(RetryPolicy::standard(0xC0FFEE));
        let store = Arc::new(store);
        let worker = MaintenanceWorker::spawn(
            Arc::clone(&store),
            MaintenanceConfig { interval: Duration::from_millis(1), retrain_budget: 16 },
        );

        let vs = cfg.layout.value_size;
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            handles.push(li_sync::thread::spawn(move || {
                // Disjoint per-thread key ranges: each thread's oracle is
                // authoritative for its own keys.
                let base = t * 1_000_000;
                let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
                let mut s = 0x5eed ^ t;
                let mut val = vec![0u8; vs];
                for i in 0..OPS {
                    let r = splitmix64(&mut s);
                    let key = base + r % 400;
                    if r >> 61 != 0 {
                        let version = i + 1;
                        value_of(key, version, &mut val);
                        if store.put(key, &val).is_ok() {
                            oracle.insert(key, version);
                        }
                        // Any error is transient-by-design here (no crash
                        // fault scheduled): the op is simply not applied.
                    } else if let Ok(existed) = store.delete(key) {
                        if existed {
                            oracle.remove(&key);
                        }
                    }
                }
                oracle
            }));
        }
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        for h in handles {
            oracle.extend(h.join().expect("chaos thread panicked"));
        }

        // The worker's benign fence ticks age out any still-open fault
        // window, then lift the degradation.
        assert!(
            eventually(Duration::from_secs(30), || !store.is_read_only()),
            "store never exited read-only"
        );

        let stats = worker.shutdown();
        assert!(stats.ticks > 0);

        // Oracle equivalence: every acked key has exactly the acked
        // version; nothing failed half-applied, nothing resurrected.
        let mut buf = vec![0u8; vs];
        let mut expect = vec![0u8; vs];
        for (&key, &version) in &oracle {
            assert!(store.get(key, &mut buf), "acked key {key} lost");
            value_of(key, version, &mut expect);
            assert_eq!(buf, expect, "key {key}: wrong version survived");
        }
        assert_eq!(store.len(), oracle.len(), "store holds keys the oracle never acked");

        // The storm must actually have exercised both healing mechanisms.
        let snap = store.recorder().snapshot();
        assert!(snap.event(Event::Retry) > 0, "no injected write failure was observed");
        assert!(snap.event(Event::BackoffWait) > 0, "no store-level backoff happened");
    });
}

/// Split/merge storm on a plain sharded router with fault injection: 8
/// threads put and verify their own keys until the tuner has split the
/// hot cell and committed at least two structural changes — all while the
/// device injects write failures and device-full windows and the
/// maintenance worker is the only adaptation driver. Afterwards the store
/// must match the per-thread oracles exactly and the telemetry causality
/// invariant (one TunerDecision per committed structural event) must
/// hold.
#[test]
fn adaptive_storm_splits_through_faults_and_matches_oracle() {
    with_deadline(Duration::from_mins(2), || {
        const THREADS: u64 = 8;

        // Deterministic chaos, front-loaded so the first cutovers run
        // through it: short write-failure bursts plus device-full windows
        // over the first ~30k device ops.
        let mut plan = FaultPlan::none();
        for b in 0..12u64 {
            let start = 700 + b * 2_000;
            for op in start..start + 3 {
                plan = plan.with(Fault::FailedWrite { op });
            }
        }
        for w in 0..3u64 {
            let from = 3_000 + w * 9_000;
            plan = plan.with(Fault::FullWindow { from, until: from + 20 });
        }

        // Generously sized device: the put storm must stay writable for
        // many 1 ms maintenance epochs, so out-of-place updates must not
        // exhaust the heap before the tuner's evidence floors are met.
        let cfg = StoreConfig::test(300_000);
        let dev = Arc::new(NvmDevice::with_faults(cfg.nvm, &plan));
        let (mut store, _) = ConcurrentViperStore::<Sharded>::recover_with_options(
            dev,
            cfg.layout,
            RecoverOptions::default(),
            // The store starts empty, so the uniform domain split puts
            // every key in cell 0 until the tuner cuts it, and the skewed
            // per-thread clusters keep split/merge firing from then on.
            // Idle cells may merge while cell 0 fills up to a splittable
            // size, but the tuner never merges below three cells, so
            // however slowly the writers start, the hot cell stays
            // above twice the mean and can still split.
            sharded_btree(4),
        );
        store.set_recorder(Recorder::enabled());
        store.set_retry_policy(RetryPolicy::standard(0xADA));
        let store = Arc::new(store);
        let worker = MaintenanceWorker::spawn(
            Arc::clone(&store),
            MaintenanceConfig { interval: Duration::from_millis(1), retrain_budget: 16 },
        );

        let vs = cfg.layout.value_size;
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            handles.push(li_sync::thread::spawn(move || {
                // Disjoint per-thread key ranges: each thread's oracle is
                // authoritative for its own keys, even mid-cutover.
                let base = t * 1_000_000;
                let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
                let mut s = 0xada5_eed0 ^ t;
                let mut val = vec![0u8; vs];
                let mut buf = vec![0u8; vs];
                let mut expect = vec![0u8; vs];
                let mut version = 0u64;
                while !stop.load(Ordering::Acquire) {
                    // Pace the storm: full-speed writers would exhaust
                    // the heap's slack in a handful of maintenance
                    // epochs; a short pause per batch buys the tuner
                    // hundreds of epochs of headroom.
                    li_sync::thread::sleep(Duration::from_micros(500));
                    for _ in 0..100 {
                        let r = splitmix64(&mut s);
                        let key = base + r % 2_000;
                        // ~3/4 puts, the rest verified gets.
                        if r >> 62 != 0 {
                            version += 1;
                            value_of(key, version, &mut val);
                            if store.put(key, &val).is_ok() {
                                oracle.insert(key, version);
                            }
                            // Errors are transient-by-design: op not
                            // applied, oracle untouched.
                        } else {
                            let found = store.get(key, &mut buf);
                            match oracle.get(&key) {
                                Some(&v) => {
                                    assert!(found, "t{t}: acked key {key} unreadable");
                                    value_of(key, v, &mut expect);
                                    assert_eq!(buf, expect, "t{t}: key {key} wrong version");
                                }
                                None => assert!(!found, "t{t}: key {key} resurrected"),
                            }
                        }
                    }
                }
                oracle
            }));
        }

        // Run until the tuner has split a cell and committed a second
        // structural change, and the fault storm has bitten.
        let structural = |snap: &lip::core::telemetry::TelemetrySnapshot| {
            snap.event(Event::ShardSplit) + snap.event(Event::ShardMerge)
        };
        let adapted = eventually(Duration::from_secs(45), || {
            let snap = store.recorder().snapshot();
            snap.event(Event::ShardSplit) >= 1
                && structural(&snap) >= 2
                && snap.event(Event::Retry) > 0
        });

        stop.store(true, Ordering::Release);
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        for h in handles {
            oracle.extend(h.join().expect("adaptive storm thread panicked"));
        }
        assert!(adapted, "no split plus a second adaptation under injected faults");

        assert!(
            eventually(Duration::from_secs(30), || !store.is_read_only()),
            "store never exited read-only"
        );
        let stats = worker.shutdown();
        assert!(stats.adaptations >= 2, "worker committed fewer than two adaptations");

        // Oracle equivalence across every cutover the storm committed.
        let mut buf = vec![0u8; vs];
        let mut expect = vec![0u8; vs];
        for (&key, &version) in &oracle {
            assert!(store.get(key, &mut buf), "acked key {key} lost across cutovers");
            value_of(key, version, &mut expect);
            assert_eq!(buf, expect, "key {key}: wrong version survived a cutover");
        }
        assert_eq!(store.len(), oracle.len(), "store holds keys the oracle never acked");

        // Fault injection must actually have bitten, and the causality
        // invariant must hold: every committed structural adaptation is
        // preceded by exactly one tuner decision.
        let snap = store.recorder().snapshot();
        assert!(snap.event(Event::Retry) > 0, "no injected write failure was observed");
        assert!(snap.event(Event::ShardSplit) >= 1, "no split committed");
        assert!(structural(&snap) >= 2, "fewer than two structural adaptations committed");
        assert!(
            snap.event(Event::TunerDecision) >= structural(&snap),
            "committed adaptations outnumber tuner decisions"
        );
    });
}

#[test]
fn worker_repairs_every_quarantined_slot_after_corrupting_restart() {
    with_deadline(Duration::from_mins(1), || {
        let keys: Vec<u64> = (0..2_000u64).map(|i| i * 5 + 2).collect();
        let cfg = StoreConfig::test(4_000);
        let store = ConcurrentViperStore::<Sharded>::bulk_load_with(
            cfg,
            &keys,
            |k, buf| value_of(k, 1, buf),
            sharded_btree(8),
        );
        // Overwrite a spread of keys so their first copies become stale,
        // then corrupt a mix of current and superseded slots.
        let vs = cfg.layout.value_size;
        let mut val = vec![0u8; vs];
        let mut current = Vec::new();
        let store = {
            let mut s = store;
            s.set_crash_safe_updates(true);
            for &k in keys.iter().step_by(100) {
                value_of(k, 2, &mut val);
                s.put(k, &val).unwrap();
            }
            for &k in keys.iter().skip(50).step_by(100) {
                current.push((k, ConcurrentIndex::get(s.index(), k).unwrap()));
            }
            s
        };
        let dev = store.into_device();
        for &(_, off) in &current {
            let voff = cfg.layout.value_offset(off as usize);
            dev.write(voff, &vec![0xEE; cfg.layout.value_size]);
            dev.persist(voff, cfg.layout.value_size);
        }

        let rec = Recorder::enabled();
        let (store, report) = ConcurrentViperStore::<Sharded>::recover_recorded(
            dev,
            cfg.layout,
            RecoverOptions::default(),
            rec.clone(),
            sharded_btree(8),
        );
        assert_eq!(report.quarantined, current.len(), "every corrupted slot quarantined");
        let store = Arc::new(store);
        let worker = MaintenanceWorker::spawn(Arc::clone(&store), MaintenanceConfig::default());

        // The worker must resolve every quarantined slot online.
        assert!(
            eventually(Duration::from_secs(30), || store.heap().quarantined_count() == 0),
            "quarantine never drained"
        );
        let stats = worker.shutdown();
        assert_eq!(
            stats.repaired_superseded + stats.repaired_lost,
            current.len() as u64,
            "every slot repaired or reported lost"
        );
        // The corrupted records held the *current* copy of their keys, so
        // each is a true loss the oracle can confirm.
        assert_eq!(stats.repaired_lost, current.len() as u64);
        let mut buf = vec![0u8; vs];
        for &(k, _) in &current {
            assert!(!store.get(k, &mut buf), "corrupt key {k} resurfaced");
        }

        // Causality: one RepairedSlot per QuarantineSlot, no phantoms.
        let snap = rec.snapshot();
        assert_eq!(snap.event(Event::QuarantineSlot), current.len() as u64);
        assert_eq!(snap.event(Event::RepairedSlot), snap.event(Event::QuarantineSlot));
    });
}

#[test]
fn retrain_backlog_grows_under_flood_and_drains() {
    with_deadline(Duration::from_mins(2), || {
        // Non-linear keys: a perfectly linear key set would collapse each
        // shard's piecewise index into a single segment, capping the
        // retrain queue at one pending leaf per shard.
        let initial = lip::workloads::generate_keys(lip::workloads::Dataset::OsmLike, 20_000, 5);
        let (lo, hi) = (initial[0], *initial.last().unwrap());
        let cfg = StoreConfig::test(300_000);
        let mut store = ConcurrentViperStore::<Sharded>::bulk_load_with(
            cfg,
            &initial,
            |k, buf| value_of(k, 1, buf),
            |pairs| Sharded::build_boxed(8, pairs, |c| IndexKind::FitingBuf.build(c)),
        );
        let rec = Recorder::enabled();
        store.set_recorder(rec.clone());
        let store = Arc::new(store);
        let pending = || ConcurrentIndex::pending_retrains(store.index());

        // Phase 1: a worker whose drain budget is zero — retraining is
        // deferred but never drained, modelling maintenance that cannot
        // keep up. The backlog of pending leaves can only grow.
        let starved = MaintenanceWorker::spawn(
            Arc::clone(&store),
            MaintenanceConfig { interval: Duration::from_millis(1), retrain_budget: 0 },
        );

        // Flood inserts until the backlog is deep; the store sheds none.
        let vs = cfg.layout.value_size;
        let mut val = vec![0u8; vs];
        let mut s = 0xF100Du64;
        for i in 0..250_000u64 {
            // Stay inside the loaded key range so the flood spreads over
            // many leaves — retrain deferrals then come from distinct
            // leaves and the queue actually deepens.
            let key = lo + splitmix64(&mut s) % (hi - lo);
            value_of(key, i + 1, &mut val);
            store.put(key, &val).unwrap_or_else(|e| panic!("put failed under flood: {e}"));
            if i % 64 == 0 && pending() >= 16 {
                break;
            }
        }
        assert!(pending() >= 16, "flood never built a backlog: {} pending", pending());

        // Deletes succeed with the backlog still parked.
        assert!(store.delete(initial[0]).unwrap());

        // Phase 2: the starved worker hands over (its shutdown drains
        // parked work) to one with a real budget; the backlog reaches 0.
        starved.shutdown();
        let worker = MaintenanceWorker::spawn(Arc::clone(&store), MaintenanceConfig::default());
        assert!(
            eventually(Duration::from_mins(1), || pending() == 0),
            "backlog never drained; pending retrains: {}",
            pending()
        );
        value_of(7, 99, &mut val);
        store.put(7, &val).expect("puts must flow again after the backlog drains");

        worker.shutdown();
        assert!(rec.snapshot().event(Event::RetrainDeferred) > 0, "flood never deferred a retrain");
    });
}

#[test]
fn maintenance_worker_clean_shutdown_smoke() {
    with_deadline(Duration::from_mins(1), || {
        let initial: Vec<u64> = (0..10_000u64).map(|i| i * 13 + 1).collect();
        let cfg = StoreConfig::test(60_000);
        let mut store = ConcurrentViperStore::<Sharded>::bulk_load_with(
            cfg,
            &initial,
            |k, buf| value_of(k, 1, buf),
            |pairs| Sharded::build_boxed(4, pairs, |c| IndexKind::FitingBuf.build(c)),
        );
        store.set_recorder(Recorder::enabled());
        let store = Arc::new(store);
        let worker = MaintenanceWorker::spawn(Arc::clone(&store), MaintenanceConfig::default());

        // Concurrent inserts while the worker runs, then a clean shutdown.
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        let vs = cfg.layout.value_size;
        for t in 0..4u64 {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            handles.push(li_sync::thread::spawn(move || {
                let mut s = t ^ 0xABCD;
                let mut val = vec![0u8; vs];
                let mut i = 0u64;
                while !stop.load(Ordering::Acquire) && i < 5_000 {
                    let key = splitmix64(&mut s);
                    value_of(key, i + 1, &mut val);
                    store.put(key, &val).unwrap();
                    i += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Release);

        let stats = worker.shutdown();
        assert!(stats.ticks > 0, "worker never ticked");
        // Clean shutdown exits deferred mode and drains the queue: no key
        // may stay parked in an overflow buffer.
        assert_eq!(
            ConcurrentIndex::pending_retrains(store.index()),
            0,
            "shutdown left parked retrains behind"
        );
        // The store keeps working without the worker.
        let mut val = vec![0u8; vs];
        value_of(1, 2, &mut val);
        store.put(1, &val).unwrap();
        let mut buf = vec![0u8; vs];
        assert!(store.get(1, &mut buf));
        assert_eq!(buf, val);
    });
}
