//! Background self-healing: the maintenance worker.
//!
//! The degradation ladder (DESIGN.md) in one place:
//!
//! 1. **Retry** — transient faults are re-attempted inline with seeded
//!    backoff ([`crate::RetryPolicy`]).
//! 2. **Repair** — the [`MaintenanceWorker`] drains deferred retrains,
//!    retires stale slots, re-resolves quarantined slots, and lifts
//!    read-only degradation — all off the foreground path.
//!
//! Load is shed above the store, by the server's in-flight budget; the
//! store itself never refuses a healthy write.

use li_sync::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use li_sync::thread::JoinHandle;
use std::sync::Arc;
use std::time::Duration;

use li_core::traits::{ConcurrentIndex, Index};

use crate::store::{RepairOutcome, ViperStore};
use crate::write::SharedWriter;

/// What one `run_maintenance` pass accomplished.
#[derive(Debug, Clone, Default)]
pub struct MaintenancePass {
    /// Deferred leaf retrains drained this pass.
    pub retrains_run: usize,
    /// Superseded-but-unretired slots swept dead.
    pub stale_retired: usize,
    /// Quarantined-slot resolution (superseded vs. lost).
    pub repair: RepairOutcome,
    /// Whether this pass lifted read-only degradation.
    pub lifted_read_only: bool,
    /// Whether this pass wrote a checkpoint (WAL lag had reached
    /// [`crate::DurabilityConfig::checkpoint_lag`]).
    pub checkpoint_written: bool,
    /// Shard adaptations (splits, merges) committed by this pass's
    /// `run_adaptation` call — always 0 for an index that is not a
    /// `Sharded` router, a one-cell router, and the single-writer route.
    pub adaptations: usize,
}

impl MaintenancePass {
    /// Whether the pass changed anything at all.
    pub fn did_work(&self) -> bool {
        self.retrains_run > 0
            || self.stale_retired > 0
            || self.repair.superseded > 0
            || !self.repair.lost.is_empty()
            || self.lifted_read_only
            || self.checkpoint_written
            || self.adaptations > 0
    }
}

/// Cadence and budgets of the [`MaintenanceWorker`].
#[derive(Debug, Clone, Copy)]
pub struct MaintenanceConfig {
    /// Sleep between self-healing passes.
    pub interval: Duration,
    /// Deferred leaf retrains drained per pass.
    pub retrain_budget: usize,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig { interval: Duration::from_millis(1), retrain_budget: 8 }
    }
}

/// Cumulative counters of a worker's passes (all monotonic).
#[derive(Debug, Default)]
struct WorkerCounters {
    ticks: AtomicU64,
    retrains: AtomicU64,
    stale_retired: AtomicU64,
    repaired_superseded: AtomicU64,
    repaired_lost: AtomicU64,
    lifted_read_only: AtomicU64,
    checkpoints: AtomicU64,
    adaptations: AtomicU64,
}

/// Plain snapshot of the worker's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    pub ticks: u64,
    pub retrains: u64,
    pub stale_retired: u64,
    pub repaired_superseded: u64,
    pub repaired_lost: u64,
    pub lifted_read_only: u64,
    /// Checkpoints written by lag-triggered passes.
    pub checkpoints: u64,
    /// Shard adaptations (splits, merges) committed by maintenance
    /// passes; only a `Sharded` router of two or more cells adapts.
    pub adaptations: u64,
}

impl WorkerCounters {
    fn record(&self, pass: &MaintenancePass) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
        self.retrains.fetch_add(pass.retrains_run as u64, Ordering::Relaxed);
        self.stale_retired.fetch_add(pass.stale_retired as u64, Ordering::Relaxed);
        self.repaired_superseded.fetch_add(pass.repair.superseded as u64, Ordering::Relaxed);
        self.repaired_lost.fetch_add(pass.repair.lost.len() as u64, Ordering::Relaxed);
        self.lifted_read_only.fetch_add(pass.lifted_read_only as u64, Ordering::Relaxed);
        self.checkpoints.fetch_add(pass.checkpoint_written as u64, Ordering::Relaxed);
        self.adaptations.fetch_add(pass.adaptations as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> MaintenanceStats {
        MaintenanceStats {
            ticks: self.ticks.load(Ordering::Relaxed),
            retrains: self.retrains.load(Ordering::Relaxed),
            stale_retired: self.stale_retired.load(Ordering::Relaxed),
            repaired_superseded: self.repaired_superseded.load(Ordering::Relaxed),
            repaired_lost: self.repaired_lost.load(Ordering::Relaxed),
            lifted_read_only: self.lifted_read_only.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            adaptations: self.adaptations.load(Ordering::Relaxed),
        }
    }
}

/// Background self-healing thread over a shared-writer store. Spawning
/// one:
///
/// * switches the store's index into *deferred retraining* — a foreground
///   insert that would trigger a leaf retrain parks the key in the
///   overflow buffer ([`li_core::telemetry::Event::RetrainDeferred`])
///   and returns; the worker drains the queue with a bounded budget per
///   pass;
/// * runs one `run_maintenance` pass per `interval`: drain retrains,
///   sweep stale slots, repair quarantine, checkpoint on WAL lag, lift
///   read-only.
///
/// Dropping (or [`MaintenanceWorker::shutdown`]) stops the thread,
/// turns deferred retraining off and fully drains the queue, so a cleanly
/// shut down store has no parked keys.
pub struct MaintenanceWorker {
    stop: Arc<AtomicBool>,
    counters: Arc<WorkerCounters>,
    worker: Option<JoinHandle<()>>,
}

impl MaintenanceWorker {
    pub fn spawn<I>(store: Arc<ViperStore<I, SharedWriter>>, cfg: MaintenanceConfig) -> Self
    where
        I: Index + ConcurrentIndex + Send + Sync + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(WorkerCounters::default());
        ConcurrentIndex::set_defer_retrains(store.index(), true);

        let worker = {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let store = Arc::clone(&store);
            li_sync::thread::Builder::new()
                .name("viper-maintenance".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let pass = store.run_maintenance(cfg.retrain_budget);
                        counters.record(&pass);
                        sleep_interruptible(cfg.interval, &stop);
                    }
                    // Exit deferred mode and drain everything still
                    // parked, so shutdown leaves no key stranded in an
                    // overflow buffer.
                    ConcurrentIndex::set_defer_retrains(store.index(), false);
                })
                .expect("spawn maintenance worker")
        };

        MaintenanceWorker { stop, counters, worker: Some(worker) }
    }

    /// Cumulative pass counters so far.
    pub fn stats(&self) -> MaintenanceStats {
        self.counters.snapshot()
    }

    /// Stops the thread, waits for it, and returns the final stats.
    pub fn shutdown(mut self) -> MaintenanceStats {
        self.halt();
        self.counters.snapshot()
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MaintenanceWorker {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Sleeps up to `total`, waking early (within ~10 ms) when `stop` flips —
/// keeps worker shutdown latency bounded regardless of the interval.
fn sleep_interruptible(total: Duration, stop: &AtomicBool) {
    let chunk = Duration::from_millis(10);
    let mut slept = Duration::ZERO;
    while slept < total {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let step = chunk.min(total.checked_sub(slept).unwrap());
        li_sync::thread::sleep(step);
        slept += step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::{value_for_test, LockedMap, MapIndex};
    use crate::store::ConcurrentViperStore;
    use crate::StoreConfig;
    use li_nvm::{Fault, FaultPlan, NvmDevice};
    use std::time::Instant;

    fn shared_store(n: usize) -> ConcurrentViperStore<LockedMap> {
        ConcurrentViperStore::new(StoreConfig::test(n), LockedMap::default())
    }

    #[test]
    fn worker_ticks_and_shuts_down_cleanly() {
        let store = Arc::new(shared_store(1_000));
        let vs = store.heap().layout().value_size;
        let worker = MaintenanceWorker::spawn(
            Arc::clone(&store),
            MaintenanceConfig { interval: Duration::from_millis(1), ..Default::default() },
        );
        let mut val = vec![0u8; vs];
        for k in 0..200u64 {
            value_for_test(k, &mut val);
            store.put(k, &val).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while worker.stats().ticks < 3 {
            assert!(Instant::now() < deadline, "worker never ticked");
            li_sync::thread::sleep(Duration::from_millis(1));
        }
        let t0 = Instant::now();
        let stats = worker.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(1), "shutdown must be prompt");
        assert!(stats.ticks >= 3);
        assert_eq!(store.len(), 200);
    }

    #[test]
    fn worker_lifts_read_only_after_full_window_passes() {
        // A device-full window with no foreground deletes: only the
        // worker's op-clock ticks can expire it and lift read-only.
        let cfg = StoreConfig::test(100);
        let plan = FaultPlan::none().with(Fault::FullWindow { from: 0, until: 12 });
        let dev = Arc::new(NvmDevice::with_faults(cfg.nvm, &plan));
        // Recovery of an empty device consumes no device ops, so the
        // window is still fully ahead when the store comes up.
        let store =
            Arc::new(ConcurrentViperStore::<LockedMap>::recover_with(dev, cfg.layout, |_| {
                LockedMap::default()
            }));
        let vs = cfg.layout.value_size;
        assert_eq!(store.put(1, &vec![1u8; vs]), Err(crate::ViperError::DeviceFull));
        store.put(1, &vec![1u8; vs]).unwrap_err();
        assert!(store.is_read_only());
        let worker = MaintenanceWorker::spawn(
            Arc::clone(&store),
            MaintenanceConfig { interval: Duration::from_millis(1), ..Default::default() },
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while store.is_read_only() {
            assert!(Instant::now() < deadline, "worker never lifted read-only");
            li_sync::thread::sleep(Duration::from_millis(1));
        }
        worker.shutdown();
        store.put(1, &vec![1u8; vs]).expect("store must accept writes again");
    }

    #[test]
    fn worker_checkpoints_once_wal_lag_reaches_trigger() {
        let cfg =
            StoreConfig::test(2_000).with_durability(crate::DurabilityConfig::sized_for(4_000, 64));
        let store = Arc::new(ConcurrentViperStore::new(cfg, LockedMap::default()));
        let vs = cfg.layout.value_size;
        let mut val = vec![0u8; vs];
        // Stay below the lag trigger (32): no pass may checkpoint.
        for k in 0..10u64 {
            value_for_test(k, &mut val);
            store.put(k, &val).unwrap();
        }
        let pass = store.run_maintenance(8);
        assert!(!pass.checkpoint_written, "below checkpoint_lag: no checkpoint");
        assert_eq!(store.checkpoint_generation(), 0);
        // Cross the trigger and let the worker pick it up.
        for k in 10..60u64 {
            value_for_test(k, &mut val);
            store.put(k, &val).unwrap();
        }
        assert!(store.wal_lag() >= 32);
        let worker = MaintenanceWorker::spawn(
            Arc::clone(&store),
            MaintenanceConfig { interval: Duration::from_millis(1), ..Default::default() },
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while worker.stats().checkpoints == 0 {
            assert!(Instant::now() < deadline, "worker never checkpointed");
            li_sync::thread::sleep(Duration::from_millis(1));
        }
        let stats = worker.shutdown();
        assert!(stats.checkpoints >= 1);
        assert!(store.checkpoint_generation() >= 1);
        assert!(store.wal_lag() < 32, "checkpoint must retire the logged span");
    }

    #[test]
    fn single_writer_maintenance_pass_reports_work() {
        let cfg =
            StoreConfig::test(2_000).with_durability(crate::DurabilityConfig::sized_for(4_000, 64));
        let mut store = crate::ViperStore::<MapIndex>::new(cfg, MapIndex::default());
        let mut val = vec![0u8; cfg.layout.value_size];
        // Cross the lag trigger (32): the pass owes a checkpoint.
        for k in 0..40u64 {
            value_for_test(k, &mut val);
            store.put(k, &val).unwrap();
        }
        let pass = store.run_maintenance(usize::MAX);
        assert!(pass.checkpoint_written, "lag past the trigger: the pass must checkpoint");
        assert!(pass.did_work());
        assert!(!pass.lifted_read_only);
        assert_eq!(store.wal_lag(), 0);
        // Nothing left to do: an idle pass reports no work.
        assert!(!store.run_maintenance(usize::MAX).did_work());
    }
}
