//! Deterministic fault injection for the simulated device.
//!
//! A [`FaultPlan`] is a replayable schedule of device faults, derived
//! entirely from a `u64` seed and positioned on the device's *operation
//! counter* (writes, flushes and fences each advance it by one; reads do
//! not). Driving the same workload against the same plan therefore
//! injects byte-identical faults every time — which is what lets the
//! crash-torture harness shrink a failure to "seed 17, op 2931".
//!
//! Supported faults (ISSUE 1 tentpole):
//!
//! * **Crash points** — at op N the device freezes: every subsequent
//!   write/flush/fence is rejected with [`NvmError::Crashed`] and has no
//!   effect. The driver then calls [`crate::NvmDevice::crash`] and
//!   recovers.
//! * **Torn writes** — a write is applied to (volatile) device memory as
//!   usual, but an aligned *prefix* of it is also spuriously persisted
//!   into the durable shadow image, modelling an unrequested cache-line
//!   eviction. Only a crash can make the tear observable, exactly like
//!   real persistent memory.
//! * **Dropped flushes** — the flush is acknowledged (latency charged,
//!   counters ticked) but the range is *not* captured for persistence
//!   until some later flush covers it again. This models a lost clwb, the
//!   byzantine fault CRC quarantine exists for.
//! * **Transient write failures** — the write returns
//!   [`NvmError::WriteFailed`] and has no effect; a retry succeeds.
//! * **Device-full windows** — [`crate::NvmDevice::injected_device_full`]
//!   reports the device as full for all ops in `[from, until)`, letting
//!   callers exercise their exhaustion paths without filling the device.

use li_sync::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::collections::HashMap;

/// Errors surfaced by the fallible device operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvmError {
    /// A scheduled crash point was reached; the device is frozen until
    /// [`crate::NvmDevice::crash`] resets it to the durable image.
    Crashed,
    /// Transient write failure; retrying may succeed.
    WriteFailed,
    /// The device (or a scheduled full window) has no room left.
    DeviceFull,
}

impl std::fmt::Display for NvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NvmError::Crashed => write!(f, "device crashed (injected crash point)"),
            NvmError::WriteFailed => write!(f, "transient NVM write failure"),
            NvmError::DeviceFull => write!(f, "NVM device full"),
        }
    }
}

impl std::error::Error for NvmError {}

impl NvmError {
    /// Fault-class taxonomy: transient errors are worth a bounded retry
    /// (the fault may pass on its own — a failed write line, a device-full
    /// window — or be cleared by maintenance); `Crashed` is terminal until
    /// the driver calls [`crate::NvmDevice::crash`] and recovers.
    pub const fn is_transient(self) -> bool {
        match self {
            NvmError::WriteFailed | NvmError::DeviceFull => true,
            NvmError::Crashed => false,
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Freeze the device when the op counter reaches `op`.
    CrashAt { op: u64 },
    /// On write op `op`, also persist a `granularity`-aligned prefix of
    /// the data directly into the durable image.
    TornWrite { op: u64, granularity: usize },
    /// On flush op `op`, acknowledge without capturing the range.
    DroppedFlush { op: u64 },
    /// On write op `op`, fail transiently without applying the data.
    FailedWrite { op: u64 },
    /// Report the device full for every op in `[from, until)`.
    FullWindow { from: u64, until: u64 },
}

/// SplitMix64 step — the workspace's one seeded PRNG (fault plans, retry
/// jitter, transport faults, every seeded test driver), defined here
/// because every user already depends on this crate.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A replayable schedule of faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed the plan was derived from (also salts torn-prefix lengths).
    pub seed: u64,
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with a single crash point.
    pub fn crash_at(op: u64) -> Self {
        FaultPlan { seed: op, faults: vec![Fault::CrashAt { op }] }
    }

    /// Builder-style addition of one fault.
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Derives a randomized plan from `seed`, scheduled over roughly
    /// `horizon` device ops: a handful of torn writes, dropped flushes and
    /// transient failures before a crash point in the back half of the
    /// horizon, plus (sometimes) a device-full window. Identical
    /// `(seed, horizon)` always yields the identical plan.
    pub fn random(seed: u64, horizon: u64) -> Self {
        let horizon = horizon.max(8);
        let mut s = seed ^ 0x5afe_c0de_5afe_c0de;
        let crash_op = horizon / 2 + splitmix64(&mut s) % (horizon / 2).max(1);
        let mut faults = vec![Fault::CrashAt { op: crash_op }];
        let n_torn = (splitmix64(&mut s) % 3) as usize;
        for _ in 0..n_torn {
            faults.push(Fault::TornWrite {
                op: splitmix64(&mut s) % crash_op,
                granularity: [8, 64][(splitmix64(&mut s) % 2) as usize],
            });
        }
        let n_dropped = (splitmix64(&mut s) % 3) as usize;
        for _ in 0..n_dropped {
            faults.push(Fault::DroppedFlush { op: splitmix64(&mut s) % crash_op });
        }
        let n_failed = (splitmix64(&mut s) % 2) as usize;
        for _ in 0..n_failed {
            faults.push(Fault::FailedWrite { op: splitmix64(&mut s) % crash_op });
        }
        if splitmix64(&mut s).is_multiple_of(4) {
            let from = splitmix64(&mut s) % crash_op;
            faults.push(Fault::FullWindow { from, until: from + 1 + splitmix64(&mut s) % 16 });
        }
        FaultPlan { seed, faults }
    }

    /// Derives a crash-free "transient storm" plan from `seed`: bursts of
    /// *consecutive* failed writes (long enough that some bursts exhaust
    /// the heap's immediate retry budget and surface to the store's
    /// backoff layer) plus one or two device-full windows. Because there
    /// is no crash point, volatile state stays trustworthy — a store
    /// driven under this plan must match its oracle exactly once every op
    /// has either been acked or returned an error.
    pub fn transient_storm(seed: u64, horizon: u64) -> Self {
        let horizon = horizon.max(64);
        let mut s = seed ^ 0xdead_beef_0bad_f00d;
        let mut faults = Vec::new();
        let n_bursts = 2 + (splitmix64(&mut s) % 3) as usize;
        for _ in 0..n_bursts {
            let start = splitmix64(&mut s) % horizon;
            let len = 4 + splitmix64(&mut s) % 20;
            for op in start..start + len {
                faults.push(Fault::FailedWrite { op });
            }
        }
        let n_windows = 1 + (splitmix64(&mut s) % 2) as usize;
        for _ in 0..n_windows {
            let from = splitmix64(&mut s) % horizon;
            faults.push(Fault::FullWindow { from, until: from + 8 + splitmix64(&mut s) % 32 });
        }
        FaultPlan { seed, faults }
    }
}

/// Outcome the device must apply to a write op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteOutcome {
    Proceed,
    /// Apply the write, then spuriously persist `prefix_len` bytes.
    Torn {
        prefix_len: usize,
    },
    Fail,
    Crashed,
}

/// Outcome the device must apply to a flush op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushOutcome {
    Proceed,
    Drop,
    Crashed,
}

/// Counters of injected faults, readable while the device is shared.
#[derive(Debug, Default)]
pub struct FaultCounters {
    pub torn_writes: AtomicU64,
    pub dropped_flushes: AtomicU64,
    pub failed_writes: AtomicU64,
    pub crash_triggers: AtomicU64,
    pub full_rejections: AtomicU64,
}

/// Plain snapshot of [`FaultCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCountersSnapshot {
    pub torn_writes: u64,
    pub dropped_flushes: u64,
    pub failed_writes: u64,
    pub crash_triggers: u64,
    pub full_rejections: u64,
}

impl FaultCounters {
    pub fn snapshot(&self) -> FaultCountersSnapshot {
        FaultCountersSnapshot {
            torn_writes: self.torn_writes.load(Ordering::Relaxed),
            dropped_flushes: self.dropped_flushes.load(Ordering::Relaxed),
            failed_writes: self.failed_writes.load(Ordering::Relaxed),
            crash_triggers: self.crash_triggers.load(Ordering::Relaxed),
            full_rejections: self.full_rejections.load(Ordering::Relaxed),
        }
    }
}

/// Executes a [`FaultPlan`] against the device's op stream.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    /// Next scheduled crash op; `u64::MAX` means none.
    crash_at: AtomicU64,
    torn: HashMap<u64, usize>,
    dropped: Vec<u64>,
    failed: Vec<u64>,
    full_windows: Vec<(u64, u64)>,
    op: AtomicU64,
    crashed: AtomicBool,
    counters: FaultCounters,
}

impl FaultInjector {
    pub fn new(plan: &FaultPlan) -> Self {
        let mut crash_at: Option<u64> = None;
        let mut torn = HashMap::new();
        let mut dropped = Vec::new();
        let mut failed = Vec::new();
        let mut full_windows = Vec::new();
        for fault in &plan.faults {
            match *fault {
                Fault::CrashAt { op } => {
                    crash_at = Some(crash_at.map_or(op, |c: u64| c.min(op)));
                }
                Fault::TornWrite { op, granularity } => {
                    torn.insert(op, granularity.max(1));
                }
                Fault::DroppedFlush { op } => dropped.push(op),
                Fault::FailedWrite { op } => failed.push(op),
                Fault::FullWindow { from, until } => full_windows.push((from, until)),
            }
        }
        FaultInjector {
            seed: plan.seed,
            crash_at: AtomicU64::new(crash_at.unwrap_or(u64::MAX)),
            torn,
            dropped,
            failed,
            full_windows,
            op: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            counters: FaultCounters::default(),
        }
    }

    /// Ops observed so far.
    pub fn ops(&self) -> u64 {
        self.op.load(Ordering::Relaxed)
    }

    /// Whether a crash point has fired.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// Injected-fault counters.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Re-arms the injector after a simulated crash so the recovered store
    /// can keep running. Crash points are one-shot: the pending point is
    /// cleared, so no second crash fires unless a new plan is installed.
    pub fn reset_crash(&self) {
        self.crashed.store(false, Ordering::Relaxed);
        self.crash_at.store(u64::MAX, Ordering::Relaxed);
    }

    #[inline]
    fn advance(&self) -> Result<u64, ()> {
        if self.crashed.load(Ordering::Relaxed) {
            return Err(());
        }
        let op = self.op.fetch_add(1, Ordering::Relaxed);
        if op >= self.crash_at.load(Ordering::Relaxed) {
            if !self.crashed.swap(true, Ordering::Relaxed) {
                self.counters.crash_triggers.fetch_add(1, Ordering::Relaxed);
            }
            return Err(());
        }
        Ok(op)
    }

    pub(crate) fn on_write(&self, len: usize) -> WriteOutcome {
        let Ok(op) = self.advance() else {
            return WriteOutcome::Crashed;
        };
        if self.failed.contains(&op) {
            self.counters.failed_writes.fetch_add(1, Ordering::Relaxed);
            return WriteOutcome::Fail;
        }
        if let Some(&granularity) = self.torn.get(&op) {
            // Deterministic prefix length: aligned, strictly shorter than
            // the write (a full-length "tear" would not be a tear).
            let mut s = self.seed ^ op.wrapping_mul(0x2545_f491_4f6c_dd1d);
            let units = len / granularity;
            if units > 0 {
                let prefix_len = (splitmix64(&mut s) % units as u64) as usize * granularity;
                self.counters.torn_writes.fetch_add(1, Ordering::Relaxed);
                return WriteOutcome::Torn { prefix_len };
            }
        }
        WriteOutcome::Proceed
    }

    pub(crate) fn on_flush(&self) -> FlushOutcome {
        let Ok(op) = self.advance() else {
            return FlushOutcome::Crashed;
        };
        if self.dropped.contains(&op) {
            self.counters.dropped_flushes.fetch_add(1, Ordering::Relaxed);
            return FlushOutcome::Drop;
        }
        FlushOutcome::Proceed
    }

    pub(crate) fn on_fence(&self) -> Result<(), NvmError> {
        match self.advance() {
            Ok(_) => Ok(()),
            Err(()) => Err(NvmError::Crashed),
        }
    }

    /// Whether the current op falls inside a scheduled device-full window.
    /// Does not advance the op counter.
    pub fn device_full_now(&self) -> bool {
        let op = self.op.load(Ordering::Relaxed);
        let full = self.full_windows.iter().any(|&(from, until)| op >= from && op < until);
        if full {
            self.counters.full_rejections.fetch_add(1, Ordering::Relaxed);
        }
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_from_seed_is_replayable() {
        let a = FaultPlan::random(99, 1_000);
        let b = FaultPlan::random(99, 1_000);
        assert_eq!(a, b);
        let c = FaultPlan::random(100, 1_000);
        assert_ne!(a, c, "different seed, different plan (overwhelmingly)");
        assert!(a.faults.iter().any(|f| matches!(f, Fault::CrashAt { .. })));
    }

    #[test]
    fn crash_point_freezes() {
        let plan = FaultPlan::crash_at(2);
        let inj = FaultInjector::new(&plan);
        assert_eq!(inj.on_write(8), WriteOutcome::Proceed); // op 0
        assert_eq!(inj.on_flush(), FlushOutcome::Proceed); // op 1
        assert_eq!(inj.on_fence(), Err(NvmError::Crashed)); // op 2: crash
        assert!(inj.crashed());
        assert_eq!(inj.on_write(8), WriteOutcome::Crashed);
        assert_eq!(inj.on_flush(), FlushOutcome::Crashed);
        assert_eq!(inj.counters().snapshot().crash_triggers, 1);
    }

    #[test]
    fn torn_write_prefix_is_aligned_and_shorter() {
        for seed in 0..50u64 {
            let plan = FaultPlan { seed, faults: vec![Fault::TornWrite { op: 0, granularity: 8 }] };
            let inj = FaultInjector::new(&plan);
            match inj.on_write(100) {
                WriteOutcome::Torn { prefix_len } => {
                    assert_eq!(prefix_len % 8, 0);
                    assert!(prefix_len < 100);
                }
                other => panic!("expected torn, got {other:?}"),
            }
        }
    }

    #[test]
    fn torn_write_deterministic_per_seed() {
        let plan = FaultPlan { seed: 7, faults: vec![Fault::TornWrite { op: 0, granularity: 8 }] };
        let a = FaultInjector::new(&plan).on_write(64);
        let b = FaultInjector::new(&plan).on_write(64);
        assert_eq!(a, b);
    }

    #[test]
    fn dropped_flush_and_failed_write_counted() {
        let plan = FaultPlan {
            seed: 1,
            faults: vec![Fault::DroppedFlush { op: 1 }, Fault::FailedWrite { op: 0 }],
        };
        let inj = FaultInjector::new(&plan);
        assert_eq!(inj.on_write(8), WriteOutcome::Fail); // op 0
        assert_eq!(inj.on_flush(), FlushOutcome::Drop); // op 1
        let snap = inj.counters().snapshot();
        assert_eq!(snap.failed_writes, 1);
        assert_eq!(snap.dropped_flushes, 1);
    }

    #[test]
    fn transient_storm_is_crash_free_and_bursty() {
        for seed in 0..20u64 {
            let p = FaultPlan::transient_storm(seed, 1_000);
            assert_eq!(p, FaultPlan::transient_storm(seed, 1_000), "replayable");
            assert!(!p.faults.iter().any(|f| matches!(f, Fault::CrashAt { .. })));
            assert!(p.faults.iter().any(|f| matches!(f, Fault::FullWindow { .. })));
            let mut failed: Vec<u64> = p
                .faults
                .iter()
                .filter_map(|f| match f {
                    Fault::FailedWrite { op } => Some(*op),
                    _ => None,
                })
                .collect();
            failed.sort_unstable();
            failed.dedup();
            // At least one run of >= 4 consecutive failed writes.
            let mut best = 1;
            let mut run = 1;
            for w in failed.windows(2) {
                run = if w[1] == w[0] + 1 { run + 1 } else { 1 };
                best = best.max(run);
            }
            assert!(best >= 4, "seed {seed}: longest burst {best}");
        }
        assert!(NvmError::WriteFailed.is_transient());
        assert!(NvmError::DeviceFull.is_transient());
        assert!(!NvmError::Crashed.is_transient());
    }

    #[test]
    fn full_window_covers_range() {
        let plan = FaultPlan { seed: 0, faults: vec![Fault::FullWindow { from: 1, until: 3 }] };
        let inj = FaultInjector::new(&plan);
        assert!(!inj.device_full_now()); // op 0
        let _ = inj.on_write(8);
        assert!(inj.device_full_now()); // op 1
        let _ = inj.on_write(8);
        assert!(inj.device_full_now()); // op 2
        let _ = inj.on_write(8);
        assert!(!inj.device_full_now()); // op 3
        assert!(inj.counters().snapshot().full_rejections >= 2);
    }
}
