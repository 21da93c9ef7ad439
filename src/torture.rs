//! Randomized crash-torture harness for the Viper recovery path.
//!
//! Each run derives everything — the operation stream *and* the injected
//! device faults — from one `u64` seed, so a failing run is replayable
//! from a single number. The flow:
//!
//! 1. Build an empty [`ViperStore`] over a fault-injected device
//!    ([`FaultPlan::random`]): a scheduled crash point plus a few torn
//!    writes, dropped flushes, transient write failures and device-full
//!    windows.
//! 2. Apply a seeded stream of puts/deletes, mirroring every *acked*
//!    (fenced) operation into an in-DRAM oracle.
//! 3. Pull the virtual power plug ([`li_nvm::NvmDevice::crash`]), recover
//!    with checksum verification, and compare against the oracle.
//!
//! The oracle's contract (what "crash consistency" means here):
//!
//! * **No torn value ever surfaces.** Every recovered value must be
//!   byte-identical to some value the workload actually wrote for that
//!   key. This holds unconditionally — it is what the per-record CRC
//!   buys — and a violation is always a hard failure.
//! * **No unacked write surfaces.** A put/delete that returned an error
//!   must not have its *new* state visible unless the operation provably
//!   reached its publish point (tracked per in-flight op).
//! * **Every acked write is present**, *except* that a device which
//!   dropped flushes or tore writes may have lost the payload behind an
//!   acked publish; such records are quarantined by recovery. The number
//!   of missing/stale acked keys is therefore bounded by the injected
//!   dropped-flush + torn-write counts plus the quarantine count — a
//!   budget of zero means byte-exact recovery is required.
//! * **A deleted key may resurrect only under a dropped flush** (the
//!   state-byte retirement never became durable), bounded by the
//!   dropped-flush count.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use li_core::telemetry::{Recorder, TelemetrySnapshot};
use li_core::Sharded;
use li_nvm::fault::splitmix64;
use li_nvm::{FaultCountersSnapshot, FaultPlan, NvmConfig, NvmDevice, NvmError};
use li_viper::{
    ConcurrentViperStore, DurabilityConfig, RecordLayout, RecoverOptions, RecoveryReport,
    RetryPolicy, ViperError, ViperStore,
};

use crate::{AnyIndex, IndexKind};

const VALUE_SALT: u64 = 0x7e57_da7a_0dd5_eed5;

/// Fills `buf` with the canonical value for `(key, version)`: the version
/// in the first 8 bytes, a key/version-keyed pseudo-random pattern after.
/// Self-describing, so the verifier can recover the version from bytes and
/// detect any mix of two writes (a torn value matches no version).
pub fn value_pattern(key: u64, version: u64, buf: &mut [u8]) {
    assert!(buf.len() >= 8, "value too small to embed a version");
    buf[..8].copy_from_slice(&version.to_le_bytes());
    let mut s = key ^ version.rotate_left(32) ^ VALUE_SALT;
    for chunk in buf[8..].chunks_mut(8) {
        let x = splitmix64(&mut s).to_le_bytes();
        chunk.copy_from_slice(&x[..chunk.len()]);
    }
}

/// Inverse of [`value_pattern`]: the version iff `buf` is byte-exact for
/// it, `None` for anything torn or foreign.
pub fn decode_version(key: u64, buf: &[u8]) -> Option<u64> {
    let version = u64::from_le_bytes(buf[..8].try_into().ok()?);
    let mut expect = vec![0u8; buf.len()];
    value_pattern(key, version, &mut expect);
    (expect == buf).then_some(version)
}

/// Parameters of one torture run (the seed comes separately).
#[derive(Debug, Clone, Copy)]
pub struct TortureConfig {
    /// DRAM index rebuilt at recovery.
    pub kind: IndexKind,
    /// Mutation attempts before the plug is pulled (a scheduled crash
    /// point usually fires earlier).
    pub ops: usize,
    /// Keys are drawn uniformly from `[0, key_space)`.
    pub key_space: u64,
    /// Use crash-safe (out-of-place) updates instead of in-place ones.
    pub crash_safe_updates: bool,
    /// Verify checksums at recovery. Disabling reproduces the
    /// pre-hardening store and makes injected payload corruption surface —
    /// the harness exists to prove that happens.
    pub verify_checksums: bool,
    /// `0` tortures the single-writer store; any other value drives the
    /// shared-writer store over a range-sharded index with this many
    /// shards, so crash schedules also cover the concurrent publish path.
    pub shards: usize,
    /// Arm the store's transient-fault retry (seeded from the run seed).
    /// Off, each transient fault surfaces as an op-level error the harness
    /// counts as "not applied"; on, the store rides out short device-full
    /// windows and write-failure bursts, and the oracle must still hold.
    pub retry: bool,
    /// Carve a WAL + checkpoint region and log every mutation; recovery
    /// then prefers checkpoint + replay, and the oracle must hold across
    /// crash points inside WAL appends, group-commit flushes and
    /// checkpoint writes alike. `None` keeps the log-free store.
    pub durability: Option<DurabilityConfig>,
    /// With durability: write a checkpoint after every this-many acked
    /// ops (0 = only the recovery-time checkpoints), putting the
    /// checkpoint writer itself inside the crash schedule.
    pub checkpoint_every: usize,
}

impl TortureConfig {
    /// A fast configuration suitable for running hundreds of seeds in CI.
    pub fn quick(kind: IndexKind) -> Self {
        TortureConfig {
            kind,
            ops: 400,
            key_space: 160,
            crash_safe_updates: true,
            verify_checksums: true,
            shards: 0,
            retry: false,
            durability: None,
            checkpoint_every: 0,
        }
    }

    /// [`TortureConfig::quick`] against the shared-writer sharded store.
    pub fn quick_sharded(kind: IndexKind) -> Self {
        TortureConfig { shards: 4, ..TortureConfig::quick(kind) }
    }

    /// [`TortureConfig::quick`] with the self-healing retry path armed.
    pub fn quick_retrying(kind: IndexKind) -> Self {
        TortureConfig { retry: true, ..TortureConfig::quick(kind) }
    }

    /// [`TortureConfig::quick`] with WAL + checkpoint durability: the
    /// ring is sized so a 400-op run can never legitimately fill it
    /// (WalFull would mask the crash schedule with inline checkpoints),
    /// and a checkpoint lands every 64 acked ops so crash points hit the
    /// checkpoint writer too.
    pub fn quick_durable(kind: IndexKind) -> Self {
        TortureConfig {
            durability: Some(DurabilityConfig::sized_for(512, 1024)),
            checkpoint_every: 64,
            ..TortureConfig::quick(kind)
        }
    }

    /// [`TortureConfig::quick_durable`] against the shared-writer store.
    pub fn quick_durable_sharded(kind: IndexKind) -> Self {
        TortureConfig { shards: 4, ..TortureConfig::quick_durable(kind) }
    }
}

/// The store under torture: the one [`ViperStore`] in either write model,
/// so a crash schedule can target a `Sharded` backend as easily
/// as the single-writer paper configuration.
#[allow(clippy::large_enum_variant)] // one driver per run; no point boxing
enum Driver {
    Single(ViperStore<AnyIndex>),
    Sharded(ConcurrentViperStore<Sharded>),
}

impl Driver {
    fn recover(
        cfg: &TortureConfig,
        dev: Arc<NvmDevice>,
        layout: RecordLayout,
        opts: RecoverOptions,
        recorder: Recorder,
    ) -> (Self, RecoveryReport) {
        let kind = cfg.kind;
        if cfg.shards == 0 {
            let (store, report) =
                ViperStore::recover_recorded(dev, layout, opts, recorder, |pairs| {
                    AnyIndex::build(kind, pairs)
                });
            (Driver::Single(store), report)
        } else {
            let shards = cfg.shards;
            let (store, report) =
                ConcurrentViperStore::recover_recorded(dev, layout, opts, recorder, |pairs| {
                    Sharded::build_boxed(shards, pairs, move |chunk| kind.build(chunk))
                });
            (Driver::Sharded(store), report)
        }
    }

    fn set_crash_safe_updates(&mut self, on: bool) {
        match self {
            Driver::Single(s) => s.set_crash_safe_updates(on),
            Driver::Sharded(s) => s.set_crash_safe_updates(on),
        }
    }

    fn set_retry_policy(&mut self, policy: RetryPolicy) {
        match self {
            Driver::Single(s) => s.set_retry_policy(policy),
            Driver::Sharded(s) => s.set_retry_policy(policy),
        }
    }

    fn put(&mut self, key: u64, value: &[u8]) -> Result<(), ViperError> {
        match self {
            Driver::Single(s) => s.put(key, value),
            Driver::Sharded(s) => s.put(key, value),
        }
    }

    fn delete(&mut self, key: u64) -> Result<bool, ViperError> {
        match self {
            Driver::Single(s) => s.delete(key),
            Driver::Sharded(s) => s.delete(key),
        }
    }

    fn get(&self, key: u64, buf: &mut [u8]) -> bool {
        match self {
            Driver::Single(s) => s.get(key, buf),
            Driver::Sharded(s) => s.get(key, buf),
        }
    }

    fn len(&self) -> usize {
        match self {
            Driver::Single(s) => s.len(),
            Driver::Sharded(s) => s.len(),
        }
    }

    fn checkpoint_now(&mut self) -> Result<bool, ViperError> {
        match self {
            Driver::Single(s) => s.checkpoint_now(),
            Driver::Sharded(s) => s.checkpoint_now(),
        }
    }

    fn into_device(self) -> Arc<NvmDevice> {
        match self {
            Driver::Single(s) => s.into_device(),
            Driver::Sharded(s) => s.into_device(),
        }
    }
}

/// What one torture run observed.
#[derive(Debug)]
pub struct TortureOutcome {
    pub seed: u64,
    pub kind: IndexKind,
    /// Operations the store acknowledged (fenced) before the crash.
    pub ops_acked: usize,
    /// Whether a scheduled crash point fired mid-run.
    pub crashed_mid_run: bool,
    pub report: RecoveryReport,
    pub faults: FaultCountersSnapshot,
    /// Telemetry captured across the whole run (workload + recovery): op
    /// latency histograms, index structural events, the recovery's
    /// `QuarantineSlot` count, and the device traffic counters as of the
    /// crash point. Crash tests assert causality against `faults` — every
    /// quarantined slot must trace back to an injected fault.
    pub telemetry: TelemetrySnapshot,
    /// Oracle violations; an empty list is a pass.
    pub divergences: Vec<String>,
}

impl TortureOutcome {
    pub fn passed(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// The op that was in flight when the device froze; its effects may be
/// partially durable, so both its before- and after-state are legal.
enum InFlight {
    Put { key: u64, version: u64 },
    Delete { key: u64 },
}

/// Runs one seeded crash schedule and checks recovery against the oracle.
pub fn torture_run(seed: u64, cfg: &TortureConfig) -> TortureOutcome {
    let layout = RecordLayout::small();
    let spp = layout.slots_per_page();
    // Capacity: live set + out-of-place churn + headroom. Quarantined
    // slots are never reused, but a single run recovers only once.
    let pages = (cfg.key_space as usize * 3) / spp + 8;
    // The durability region stacks on top of the heap's sizing.
    let region = cfg.durability.map_or(0, |d| {
        d.region_bytes().div_ceil(layout.page_size) * layout.page_size + layout.page_size
    });
    let nvm = NvmConfig::fast_with_crash(pages * layout.page_size + region);
    // Horizon ≈ device ops the workload will issue (≤ 9 per put).
    let plan = FaultPlan::random(seed, cfg.ops as u64 * 7);
    let dev = Arc::new(NvmDevice::with_faults(nvm, &plan));

    // One always-on recorder spans the whole run: workload put/delete
    // latencies, index structural events, and the recovery scan. The
    // initial recover scans a blank device, so every `QuarantineSlot` it
    // accumulates comes from the post-crash recovery alone.
    let recorder = Recorder::enabled();
    let opts = RecoverOptions { durability: cfg.durability, ..RecoverOptions::default() };
    let (mut store, _) = Driver::recover(cfg, Arc::clone(&dev), layout, opts, recorder.clone());
    store.set_crash_safe_updates(cfg.crash_safe_updates);
    if cfg.retry {
        store.set_retry_policy(RetryPolicy::standard(seed));
    }
    drop(dev); // store's clone is now unique again after into_device()

    // Oracle state.
    let mut acked: HashMap<u64, u64> = HashMap::new(); // key -> latest acked version
    let mut history: HashMap<u64, HashSet<u64>> = HashMap::new(); // key -> every acked version
    let mut touched: HashSet<u64> = HashSet::new();
    let mut in_flight: Option<InFlight> = None;
    let mut ops_acked = 0usize;
    let mut crashed_mid_run = false;

    let mut s = seed ^ 0x0b5e_55ed_0b5e_55ed;
    let mut val = vec![0u8; layout.value_size];
    for i in 0..cfg.ops {
        let r = splitmix64(&mut s);
        let key = r % cfg.key_space;
        touched.insert(key);
        if r >> 61 != 0 {
            // ~7/8 puts, 1/8 deletes.
            let version = (i + 1) as u64;
            value_pattern(key, version, &mut val);
            match store.put(key, &val) {
                Ok(()) => {
                    acked.insert(key, version);
                    history.entry(key).or_default().insert(version);
                    ops_acked += 1;
                }
                Err(ViperError::Nvm(NvmError::Crashed)) => {
                    // Partial effects legal; record both possibilities.
                    history.entry(key).or_default().insert(version);
                    in_flight = Some(InFlight::Put { key, version });
                    crashed_mid_run = true;
                    break;
                }
                // Device-full windows / exhausted retries: op not applied.
                Err(_) => {}
            }
        } else {
            match store.delete(key) {
                Ok(existed) => {
                    if existed {
                        acked.remove(&key);
                    }
                    ops_acked += 1;
                }
                Err(ViperError::Nvm(NvmError::Crashed)) => {
                    in_flight = Some(InFlight::Delete { key });
                    crashed_mid_run = true;
                    break;
                }
                Err(_) => {}
            }
        }
        if cfg.checkpoint_every > 0
            && ops_acked > 0
            && ops_acked.is_multiple_of(cfg.checkpoint_every)
        {
            // The checkpoint writer runs inside the crash schedule: a
            // crash point firing mid-blob or mid-manifest must leave the
            // previous generation (or the rescan) recoverable. Transient
            // checkpoint faults just leave the lag for later.
            if let Err(ViperError::Nvm(NvmError::Crashed)) = store.checkpoint_now() {
                crashed_mid_run = true;
                break;
            }
        }
    }

    // Pull the plug: unpersisted state vanishes, the device un-freezes.
    let dev = store.into_device();
    let mut dev = Arc::try_unwrap(dev).ok().expect("store torn down, device unique");
    dev.crash();
    let faults = dev.fault_counters();
    let nvm_at_crash = dev.stats_snapshot();
    let dev = Arc::new(dev);

    let (recovered, report) = Driver::recover(
        cfg,
        dev,
        layout,
        RecoverOptions {
            verify_checksums: cfg.verify_checksums,
            durability: cfg.durability,
            ..RecoverOptions::default()
        },
        recorder.clone(),
    );

    // --- Verify against the oracle -------------------------------------
    let mut divergences = Vec::new();
    let mut missing_or_stale = 0u64;
    let mut resurrected = 0u64;
    let mut present = 0usize;
    let mut buf = vec![0u8; layout.value_size];
    for &key in &touched {
        // Legal versions for this key; None in `expected` marks "absent is
        // legal".
        let mut legal: HashSet<u64> = HashSet::new();
        let mut absent_ok = !acked.contains_key(&key);
        if let Some(&v) = acked.get(&key) {
            legal.insert(v);
        }
        match &in_flight {
            Some(InFlight::Put { key: k, version }) if *k == key => {
                // The crashed put may have published (out-of-place update
                // appends before retiring) or not; an in-place update torn
                // mid-write is quarantined, so absence is legal too.
                legal.insert(*version);
                absent_ok = true;
            }
            Some(InFlight::Delete { key: k }) if *k == key => {
                // The crashed delete may or may not have retired the slot.
                absent_ok = true;
            }
            _ => {}
        }

        if recovered.get(key, &mut buf) {
            present += 1;
            match decode_version(key, &buf) {
                None => divergences.push(format!(
                    "key {key}: TORN value surfaced ({} bytes match no version)",
                    buf.len()
                )),
                Some(v) if legal.contains(&v) => {}
                Some(v) => {
                    let ever_acked = history.get(&key).is_some_and(|h| h.contains(&v));
                    if !ever_acked {
                        divergences.push(format!("key {key}: UNACKED version {v} surfaced"));
                    } else if absent_ok && legal.is_empty() {
                        resurrected += 1; // deleted key came back with an old value
                    } else {
                        missing_or_stale += 1; // acked update lost, older value survived
                    }
                }
            }
        } else if !absent_ok {
            missing_or_stale += 1; // acked key vanished
        }
    }
    if recovered.len() > present {
        divergences.push(format!(
            "{} record(s) under keys the workload never wrote",
            recovered.len() - present
        ));
    }

    // Lost/stale acked writes are legal only up to the byzantine-fault
    // budget; a fault-free schedule must recover byte-exactly.
    let budget = faults.dropped_flushes + faults.torn_writes + report.quarantined as u64;
    if missing_or_stale > budget {
        divergences.push(format!(
            "{missing_or_stale} acked key(s) missing/stale exceeds fault budget {budget}"
        ));
    }
    if resurrected > faults.dropped_flushes {
        divergences.push(format!(
            "{resurrected} deleted key(s) resurrected exceeds dropped-flush count {}",
            faults.dropped_flushes
        ));
    }

    let mut telemetry = recorder.snapshot();
    telemetry.nvm = nvm_at_crash.to_telemetry();

    // Retry causality: the heap emits one `Event::Retry` per write failure
    // it observes, so with no recovery healing (healing writes bypass the
    // retrying path and fire post-snapshot faults) the two counts must
    // agree exactly — every injected transient write fault was seen, and
    // no phantom retry happened.
    if report.pages_healed == 0 {
        let retries = telemetry.event(li_core::telemetry::Event::Retry);
        if retries != faults.failed_writes {
            divergences.push(format!(
                "retry causality broken: {retries} Retry event(s) vs {} injected write failure(s)",
                faults.failed_writes
            ));
        }
    }

    TortureOutcome {
        seed,
        kind: cfg.kind,
        ops_acked,
        crashed_mid_run,
        report,
        faults,
        telemetry,
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_pattern_roundtrip_and_tear_detection() {
        let mut buf = vec![0u8; 16];
        value_pattern(42, 7, &mut buf);
        assert_eq!(decode_version(42, &buf), Some(7));
        // Wrong key: same bytes are not a valid value for another key.
        assert_eq!(decode_version(43, &buf), None);
        // A torn mix of two versions matches neither.
        let mut newer = vec![0u8; 16];
        value_pattern(42, 8, &mut newer);
        let mut torn = newer.clone();
        torn[12..].copy_from_slice(&buf[12..]);
        assert_eq!(decode_version(42, &torn), None);
    }

    #[test]
    fn fault_free_seed_recovers_exactly() {
        // ops small enough that the crash point (scheduled in the back
        // half of the horizon) fires after the workload finished: every
        // acked op must then be recovered byte-exactly.
        let mut cfg = TortureConfig::quick(IndexKind::BTree);
        cfg.ops = 30;
        let out = torture_run(3, &cfg);
        assert!(out.passed(), "divergences: {:?}", out.divergences);
        assert!(out.ops_acked > 0);
        // Telemetry causality: quarantine events mirror the report, both
        // recoveries were timed, and the workload's puts have latencies.
        use li_core::telemetry::{Event, OpKind};
        assert_eq!(out.telemetry.event(Event::QuarantineSlot), out.report.quarantined as u64);
        assert_eq!(out.telemetry.op(OpKind::Recovery).count, 2);
        assert!(out.telemetry.op(OpKind::Put).count > 0);
        assert!(out.telemetry.nvm.writes > 0);
    }

    #[test]
    fn retrying_store_satisfies_oracle() {
        // With retry armed the store absorbs transient fault windows
        // instead of erroring; the oracle and the Retry/failed_writes
        // causality invariant must hold across many seeds.
        for seed in 0..24u64 {
            let out = torture_run(seed, &TortureConfig::quick_retrying(IndexKind::BTree));
            assert!(out.passed(), "seed {seed}: {:?}", out.divergences);
        }
    }

    #[test]
    fn durable_fault_free_seed_recovers_via_checkpoint() {
        // Durable twin of fault_free_seed_recovers_exactly: the post-crash
        // recovery must come from checkpoint + WAL replay, not a rescan,
        // and the log must drain on every acked mutation.
        let mut cfg = TortureConfig::quick_durable(IndexKind::BTree);
        cfg.ops = 30;
        let out = torture_run(3, &cfg);
        assert!(out.passed(), "divergences: {:?}", out.divergences);
        assert!(out.ops_acked > 0);
        assert!(out.report.from_checkpoint, "expected checkpoint-based recovery");
        use li_core::telemetry::{Event, OpKind};
        // Puts may error before reaching the log (fault windows), and
        // absent-key deletes ack without logging, so the workload only
        // bounds appends loosely; commits can never outnumber appends.
        assert!(out.telemetry.event(Event::WalAppend) > 0);
        assert!(out.telemetry.event(Event::GroupCommit) <= out.telemetry.event(Event::WalAppend));
        assert!(out.telemetry.event(Event::GroupCommit) > 0);
        assert!(out.telemetry.event(Event::CheckpointWritten) >= 1);
        assert_eq!(out.telemetry.event(Event::QuarantineSlot), out.report.quarantined as u64);
        assert_eq!(out.telemetry.op(OpKind::Recovery).count, 2);
    }

    #[test]
    fn durable_store_satisfies_oracle_across_seeds() {
        // Crash points now land inside WAL appends, group-commit flushes
        // and mid-run checkpoint writes; acked writes must still never be
        // lost beyond the dropped-flush/torn-write budget.
        for seed in 0..12u64 {
            let out = torture_run(seed, &TortureConfig::quick_durable(IndexKind::BTree));
            assert!(out.passed(), "seed {seed}: {:?}", out.divergences);
        }
    }

    #[test]
    fn sharded_driver_satisfies_oracle() {
        // Same schedule, but through the shared-writer store over a
        // range-sharded index.
        let mut cfg = TortureConfig::quick_sharded(IndexKind::BTree);
        cfg.ops = 30;
        let out = torture_run(3, &cfg);
        assert!(out.passed(), "divergences: {:?}", out.divergences);
        assert!(out.ops_acked > 0);
    }
}
