//! The simulated NVM device.

use std::time::Instant;

use li_sync::sync::Mutex;

use crate::fault::{FaultCountersSnapshot, FaultInjector, FaultPlan, FlushOutcome, WriteOutcome};
use crate::latency::{spin_ns, BandwidthLimiter, LatencyModel};
use crate::stats::NvmStats;
use crate::NvmError;

/// Whether the device keeps a shadow image for crash simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityTracking {
    /// No shadow; `crash` is unavailable. Zero overhead — the right choice
    /// for throughput benchmarks.
    Disabled,
    /// Keep a durable shadow image updated on flush+fence; `crash` resets
    /// the device to it. Doubles memory; meant for crash-consistency tests.
    Shadow,
}

/// Device construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct NvmConfig {
    /// Device capacity in bytes.
    pub capacity: usize,
    pub latency: LatencyModel,
    pub durability: DurabilityTracking,
}

impl NvmConfig {
    /// Optane-like device of `capacity` bytes without crash tracking.
    pub fn optane(capacity: usize) -> Self {
        NvmConfig {
            capacity,
            latency: LatencyModel::optane_like(),
            durability: DurabilityTracking::Disabled,
        }
    }

    /// Latency-free device (useful for unit tests).
    pub fn fast(capacity: usize) -> Self {
        NvmConfig {
            capacity,
            latency: LatencyModel::dram_like(),
            durability: DurabilityTracking::Disabled,
        }
    }

    /// Latency-free device with crash tracking (for recovery tests).
    pub fn fast_with_crash(capacity: usize) -> Self {
        NvmConfig {
            capacity,
            latency: LatencyModel::dram_like(),
            durability: DurabilityTracking::Shadow,
        }
    }
}

/// The clock reading the previous wait of a device call ended at; `None`
/// until the call has waited at all.
type Reading = Option<Instant>;

/// `ns` of modelled latency starting at `after` (see [`NvmDevice::charge`]);
/// flushes and fences wait through this alone, as they draw no bandwidth.
#[inline]
fn wait(after: Reading, ns: u64) -> Reading {
    if ns == 0 {
        return after;
    }
    Some(spin_ns(after.unwrap_or_else(Instant::now), ns))
}

/// Byte-addressable storage written through raw pointers so that readers
/// and writers can proceed concurrently through `&self`, like a real
/// memory-mapped device.
struct Arena {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: `Arena` owns its allocation outright (the raw pointer came from
// `Box::into_raw` in `Arena::new` and is freed exactly once in `Drop`), so
// moving the struct to another thread moves nothing but the pointer value;
// there is no thread-affine state (no TLS, no interior `Rc`).
unsafe impl Send for Arena {}
// SAFETY: sharing `&Arena` across threads exposes only the raw pointer and
// length. All dereferences happen in `NvmDevice::{read_into, write,
// snapshot_range, crash}`, each of which bounds-checks first and relies on
// the caller contract documented on `NvmDevice` ("# Concurrency contract"):
// no overlapping concurrent accesses where at least one is a write. Under
// that contract concurrent `&self` access is data-race-free.
unsafe impl Sync for Arena {}

impl Arena {
    fn new(len: usize) -> Self {
        let boxed: Box<[u8]> = vec![0u8; len].into_boxed_slice();
        Arena { ptr: Box::into_raw(boxed).cast::<u8>(), len }
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        // SAFETY: ptr/len came from Box::into_raw of a boxed slice.
        unsafe {
            drop(Box::from_raw(core::ptr::slice_from_raw_parts_mut(self.ptr, self.len)));
        }
    }
}

/// Shadow state for crash simulation.
struct Shadow {
    /// Last durable image of the device.
    image: Vec<u8>,
    /// Ranges flushed (content captured at flush time) but not yet fenced.
    pending: Vec<(usize, Vec<u8>)>,
}

/// The simulated persistent-memory device.
///
/// # Concurrency contract
///
/// `read_into`/`write` take `&self` and may be called from many threads,
/// but — exactly like a real memory mapping — concurrent accesses to
/// *overlapping* byte ranges where at least one is a write are not
/// allowed. The Viper store upholds this by giving each record slot a
/// single owner until it is published.
pub struct NvmDevice {
    mem: Arena,
    latency: LatencyModel,
    limiter: Option<BandwidthLimiter>,
    stats: NvmStats,
    shadow: Option<Mutex<Shadow>>,
    injector: Option<FaultInjector>,
}

impl NvmDevice {
    pub fn new(config: NvmConfig) -> Self {
        let shadow = match config.durability {
            DurabilityTracking::Disabled => None,
            DurabilityTracking::Shadow => Some(Mutex::with_class(
                li_sync::lock_class!("nvm-shadow"),
                Shadow { image: vec![0u8; config.capacity], pending: Vec::new() },
            )),
        };
        NvmDevice {
            mem: Arena::new(config.capacity),
            latency: config.latency,
            limiter: BandwidthLimiter::new(config.latency.bandwidth_bytes_per_us),
            stats: NvmStats::default(),
            shadow,
            injector: None,
        }
    }

    /// A device that executes `plan` against its operation stream. Torn
    /// writes and crash points only have observable effect with
    /// [`DurabilityTracking::Shadow`] (there is no durable image to tear
    /// or revert to otherwise).
    pub fn with_faults(config: NvmConfig, plan: &FaultPlan) -> Self {
        let mut dev = NvmDevice::new(config);
        dev.injector = Some(FaultInjector::new(plan));
        dev
    }

    /// The fault injector, if one was installed.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Injected-fault counters (zeros when no injector is installed).
    pub fn fault_counters(&self) -> FaultCountersSnapshot {
        self.injector.as_ref().map(|i| i.counters().snapshot()).unwrap_or_default()
    }

    /// True once a scheduled crash point has fired; the device rejects all
    /// writes/flushes/fences until [`NvmDevice::crash`] is called.
    pub fn has_crashed(&self) -> bool {
        self.injector.as_ref().is_some_and(super::fault::FaultInjector::crashed)
    }

    /// True while the injector schedules a device-full window; callers
    /// performing allocation should surface [`NvmError::DeviceFull`].
    pub fn injected_device_full(&self) -> bool {
        self.injector.as_ref().is_some_and(super::fault::FaultInjector::device_full_now)
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.mem.len
    }

    /// Traffic counters.
    pub fn stats(&self) -> &NvmStats {
        &self.stats
    }

    /// Traffic counters plus injected-fault counters in one snapshot.
    pub fn stats_snapshot(&self) -> crate::stats::NvmStatsSnapshot {
        let mut snap = self.stats.snapshot();
        snap.faults = self.fault_counters();
        snap
    }

    /// One access's modelled cost: `ns` of latency, then the bandwidth
    /// charge for `bytes`. The wait starts at `after`, the reading the
    /// previous part of the same call ended at, or at a fresh reading when
    /// this is the call's first wait; it returns the reading this part
    /// ended at. A part with nothing to charge reads no clock, so a
    /// DRAM-like device never does.
    #[inline]
    fn charge(&self, after: Reading, ns: u64, bytes: usize) -> Reading {
        let end = wait(after, ns);
        match &self.limiter {
            Some(l) => Some(l.consume(bytes as u64, end.unwrap_or_else(Instant::now))),
            None => end,
        }
    }

    #[inline]
    fn check_range(&self, offset: usize, len: usize) {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.mem.len),
            "NVM access out of range: offset {offset} len {len} capacity {}",
            self.mem.len
        );
    }

    /// Reads `buf.len()` bytes starting at `offset`.
    #[inline]
    pub fn read_into(&self, offset: usize, buf: &mut [u8]) {
        self.check_range(offset, buf.len());
        let blocks = LatencyModel::blocks(offset, buf.len()) as u64;
        self.charge(None, blocks * self.latency.read_ns_per_block, buf.len());
        self.stats.on_read(buf.len());
        // SAFETY: `check_range` proved `offset + buf.len() <= mem.len`, so
        // the source range lies inside the live Arena allocation; `buf` is a
        // distinct `&mut [u8]`, so source and destination cannot overlap.
        // Freedom from concurrent writes to this range is the documented
        // caller contract ("# Concurrency contract").
        unsafe {
            core::ptr::copy_nonoverlapping(self.mem.ptr.add(offset), buf.as_mut_ptr(), buf.len());
        }
    }

    /// Writes `data` starting at `offset`. Volatile until flushed+fenced.
    ///
    /// Infallible wrapper over [`NvmDevice::try_write`]; panics if a fault
    /// plan injects a failure, so fault-injected workloads must use the
    /// fallible API.
    #[inline]
    pub fn write(&self, offset: usize, data: &[u8]) {
        self.try_write(offset, data).expect("injected NVM write fault; use try_write");
    }

    /// Writes `data` starting at `offset`, observing any installed fault
    /// plan. Volatile until flushed+fenced. On [`NvmError::WriteFailed`]
    /// nothing was applied and a retry may succeed; on
    /// [`NvmError::Crashed`] the device is frozen until
    /// [`NvmDevice::crash`].
    #[inline]
    pub fn try_write(&self, offset: usize, data: &[u8]) -> Result<(), NvmError> {
        self.write_from(None, offset, data).map(drop)
    }

    /// [`NvmDevice::try_write`] whose wait starts at `after` (see
    /// [`NvmDevice::charge`]); returns the reading it ended at.
    #[inline]
    fn write_from(&self, after: Reading, offset: usize, data: &[u8]) -> Result<Reading, NvmError> {
        self.check_range(offset, data.len());
        let outcome = match &self.injector {
            Some(inj) => inj.on_write(data.len()),
            None => WriteOutcome::Proceed,
        };
        let ns = LatencyModel::blocks(offset, data.len()) as u64 * self.latency.write_ns_per_block;
        match outcome {
            WriteOutcome::Crashed => return Err(NvmError::Crashed),
            WriteOutcome::Fail => {
                // Latency is charged — the program issued the stores even
                // though the medium rejected them.
                self.charge(after, ns, data.len());
                return Err(NvmError::WriteFailed);
            }
            WriteOutcome::Proceed | WriteOutcome::Torn { .. } => {}
        }
        let end = self.charge(after, ns, data.len());
        self.stats.on_write(data.len());
        // SAFETY: `check_range` proved `offset + data.len() <= mem.len`, so
        // the destination lies inside the live Arena allocation; `data` is a
        // caller-owned `&[u8]`, disjoint from the arena. Exclusive access to
        // this range is the documented caller contract.
        unsafe {
            core::ptr::copy_nonoverlapping(data.as_ptr(), self.mem.ptr.add(offset), data.len());
        }
        if let WriteOutcome::Torn { prefix_len } = outcome {
            // Model an unrequested cache-line eviction: an aligned prefix
            // of the write becomes durable *now*, without flush or fence.
            if let Some(shadow) = &self.shadow {
                let mut s = shadow.lock();
                s.image[offset..offset + prefix_len].copy_from_slice(&data[..prefix_len]);
            }
        }
        Ok(end)
    }

    /// Convenience: reads a little-endian u64.
    #[inline]
    pub fn read_u64(&self, offset: usize) -> u64 {
        let mut b = [0u8; 8];
        self.read_into(offset, &mut b);
        u64::from_le_bytes(b)
    }

    /// Convenience: writes a little-endian u64.
    #[inline]
    pub fn write_u64(&self, offset: usize, v: u64) {
        self.write(offset, &v.to_le_bytes());
    }

    /// Flushes a written range toward persistence (clwb-like). The content
    /// captured *now* becomes durable at the next [`NvmDevice::fence`].
    ///
    /// Infallible wrapper over [`NvmDevice::try_flush`]; panics if the
    /// fault plan has frozen the device.
    pub fn flush(&self, offset: usize, len: usize) {
        self.try_flush(offset, len).expect("injected NVM flush fault; use try_flush");
    }

    /// Fallible flush observing any installed fault plan. A *dropped*
    /// flush still returns `Ok` — the hardware acknowledged it — but the
    /// range was not captured; that is precisely the fault the CRC path in
    /// `li-viper` exists to catch.
    pub fn try_flush(&self, offset: usize, len: usize) -> Result<(), NvmError> {
        self.flush_from(None, offset, len).map(drop)
    }

    /// [`NvmDevice::try_flush`] whose wait starts at `after`.
    fn flush_from(&self, after: Reading, offset: usize, len: usize) -> Result<Reading, NvmError> {
        self.check_range(offset, len);
        let outcome = match &self.injector {
            Some(inj) => inj.on_flush(),
            None => FlushOutcome::Proceed,
        };
        if outcome == FlushOutcome::Crashed {
            return Err(NvmError::Crashed);
        }
        let lines = len.div_ceil(64).max(1) as u64;
        let end = wait(after, lines * self.latency.flush_ns);
        self.stats.flushes.fetch_add(1, li_sync::sync::atomic::Ordering::Relaxed);
        if outcome == FlushOutcome::Drop {
            return Ok(end);
        }
        if let Some(shadow) = &self.shadow {
            let mut data = vec![0u8; len];
            // SAFETY: `check_range` proved `offset + len <= mem.len`; `data`
            // is a fresh local Vec, so the copy cannot overlap the arena.
            // Exclusive access to the flushed range is the documented caller
            // contract, same as `read_into`.
            unsafe {
                core::ptr::copy_nonoverlapping(self.mem.ptr.add(offset), data.as_mut_ptr(), len);
            }
            shadow.lock().pending.push((offset, data));
        }
        Ok(end)
    }

    /// Store fence: all previously flushed ranges become durable.
    ///
    /// Infallible wrapper over [`NvmDevice::try_fence`]; panics if the
    /// fault plan has frozen the device.
    pub fn fence(&self) {
        self.try_fence().expect("injected NVM fence fault; use try_fence");
    }

    /// Fallible fence observing any installed fault plan.
    pub fn try_fence(&self) -> Result<(), NvmError> {
        self.fence_from(None).map(drop)
    }

    /// [`NvmDevice::try_fence`] whose wait starts at `after`.
    fn fence_from(&self, after: Reading) -> Result<Reading, NvmError> {
        if let Some(inj) = &self.injector {
            inj.on_fence()?;
        }
        let end = wait(after, self.latency.fence_ns);
        self.stats.fences.fetch_add(1, li_sync::sync::atomic::Ordering::Relaxed);
        if let Some(shadow) = &self.shadow {
            let mut s = shadow.lock();
            let pending = std::mem::take(&mut s.pending);
            for (offset, data) in pending {
                s.image[offset..offset + data.len()].copy_from_slice(&data);
            }
        }
        Ok(end)
    }

    /// Flush + fence in one call.
    ///
    /// Infallible wrapper over [`NvmDevice::try_persist`]; panics if the
    /// fault plan has frozen the device.
    pub fn persist(&self, offset: usize, len: usize) {
        self.try_persist(offset, len).expect("injected NVM persist fault; use try_persist");
    }

    /// Fallible flush + fence in one call; the fence's wait starts where
    /// the flush's ended.
    pub fn try_persist(&self, offset: usize, len: usize) -> Result<(), NvmError> {
        self.try_persist_ranges([(offset, len)])
    }

    /// Flushes each `(offset, len)` of `ranges` in order, then fences once:
    /// the same fault hooks and counters as that many
    /// [`NvmDevice::try_flush`] calls and one [`NvmDevice::try_fence`], but
    /// each wait starts where the previous one ended.
    pub fn try_persist_ranges<I>(&self, ranges: I) -> Result<(), NvmError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        self.persist_from(None, ranges).map(drop)
    }

    /// Writes `data` at `offset`, flushes each of `ranges`, then fences —
    /// [`NvmDevice::try_write`] followed by
    /// [`NvmDevice::try_persist_ranges`], as one chain of waits. A failed
    /// write ([`NvmError::WriteFailed`] or [`NvmError::Crashed`]) returns
    /// before any flush, exactly as the separate calls would stop there.
    pub fn try_write_persist<I>(
        &self,
        offset: usize,
        data: &[u8],
        ranges: I,
    ) -> Result<(), NvmError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let end = self.write_from(None, offset, data)?;
        self.persist_from(end, ranges).map(drop)
    }

    fn persist_from<I>(&self, after: Reading, ranges: I) -> Result<Reading, NvmError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut end = after;
        for (offset, len) in ranges {
            end = self.flush_from(end, offset, len)?;
        }
        self.fence_from(end)
    }

    /// Simulates a power failure: the device content reverts to the last
    /// durable image (writes that were not flushed+fenced are lost).
    /// Requires [`DurabilityTracking::Shadow`].
    ///
    /// Takes `&mut self` so the borrow checker enforces quiescence.
    pub fn crash(&mut self) {
        let shadow = self.shadow.as_ref().expect("crash() requires DurabilityTracking::Shadow");
        let mut s = shadow.lock();
        s.pending.clear();
        // SAFETY: `&mut self` gives exclusive access to the whole device, so
        // no reader or writer can race this restore; `s.image` has length
        // `mem.len` by construction (allocated together in `new`) and is a
        // separate Vec, so the ranges cannot overlap.
        unsafe {
            core::ptr::copy_nonoverlapping(s.image.as_ptr(), self.mem.ptr, self.mem.len);
        }
        drop(s);
        // Power is back: un-freeze the injector so recovery can write.
        if let Some(inj) = &self.injector {
            inj.reset_crash();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let dev = NvmDevice::new(NvmConfig::fast(4096));
        dev.write(100, b"hello world");
        let mut buf = [0u8; 11];
        dev.read_into(100, &mut buf);
        assert_eq!(&buf, b"hello world");
        dev.write_u64(200, 0xdead_beef);
        assert_eq!(dev.read_u64(200), 0xdead_beef);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        let dev = NvmDevice::new(NvmConfig::fast(64));
        let mut b = [0u8; 8];
        dev.read_into(60, &mut b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let dev = NvmDevice::new(NvmConfig::fast(64));
        dev.write(64, &[1]);
    }

    #[test]
    fn stats_counted() {
        let dev = NvmDevice::new(NvmConfig::fast(4096));
        dev.write(0, &[0u8; 300]);
        let mut b = [0u8; 100];
        dev.read_into(0, &mut b);
        dev.persist(0, 300);
        let s = dev.stats().snapshot();
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_written, 300);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_read, 100);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.fences, 1);
    }

    #[test]
    fn crash_discards_unflushed() {
        let mut dev = NvmDevice::new(NvmConfig::fast_with_crash(4096));
        dev.write_u64(0, 11);
        dev.persist(0, 8);
        dev.write_u64(8, 22); // never flushed
        dev.write_u64(16, 33);
        dev.flush(16, 8); // flushed but not fenced
        dev.crash();
        assert_eq!(dev.read_u64(0), 11, "durable data survives");
        assert_eq!(dev.read_u64(8), 0, "unflushed write lost");
        assert_eq!(dev.read_u64(16), 0, "flush without fence lost");
    }

    #[test]
    fn crash_respects_flush_time_content() {
        let mut dev = NvmDevice::new(NvmConfig::fast_with_crash(4096));
        dev.write_u64(0, 1);
        dev.flush(0, 8);
        dev.write_u64(0, 2); // after the flush, before the fence
        dev.fence();
        dev.crash();
        // The flush captured value 1; the overwrite was never re-flushed.
        assert_eq!(dev.read_u64(0), 1);
    }

    #[test]
    fn repeated_crash_idempotent() {
        let mut dev = NvmDevice::new(NvmConfig::fast_with_crash(1024));
        dev.write_u64(0, 7);
        dev.persist(0, 8);
        dev.crash();
        dev.crash();
        assert_eq!(dev.read_u64(0), 7);
    }

    // Naive byte counting is fine for a 64-byte test buffer; the
    // suggested bytecount crate is not vendored.
    #[allow(clippy::naive_bytecount)]
    #[test]
    fn torn_write_persists_prefix_only() {
        use crate::fault::Fault;
        let plan = FaultPlan { seed: 3, faults: vec![Fault::TornWrite { op: 0, granularity: 8 }] };
        let mut dev = NvmDevice::with_faults(NvmConfig::fast_with_crash(4096), &plan);
        let data = [0xabu8; 64];
        dev.try_write(0, &data).unwrap();
        // Program-visible immediately, in full.
        let mut buf = [0u8; 64];
        dev.read_into(0, &mut buf);
        assert_eq!(buf, data);
        assert_eq!(dev.fault_counters().torn_writes, 1);
        // After a crash (never flushed), exactly the torn prefix survives.
        dev.crash();
        dev.read_into(0, &mut buf);
        let torn = buf.iter().filter(|&&b| b == 0xab).count();
        assert!(torn < 64, "entire write survived an un-flushed crash");
        assert_eq!(torn % 8, 0, "prefix not aligned to granularity");
        assert!(buf[..torn].iter().all(|&b| b == 0xab));
        assert!(buf[torn..].iter().all(|&b| b == 0));
    }

    #[test]
    fn dropped_flush_is_not_durable() {
        use crate::fault::Fault;
        let plan = FaultPlan { seed: 1, faults: vec![Fault::DroppedFlush { op: 1 }] };
        let mut dev = NvmDevice::with_faults(NvmConfig::fast_with_crash(4096), &plan);
        dev.try_write(0, &[7u8; 8]).unwrap(); // op 0
        dev.try_flush(0, 8).unwrap(); // op 1: dropped, but acknowledged
        dev.try_fence().unwrap(); // op 2
        assert_eq!(dev.fault_counters().dropped_flushes, 1);
        dev.crash();
        assert_eq!(dev.read_u64(0), 0, "dropped flush must not persist");
    }

    #[test]
    fn crash_point_freezes_then_crash_unfreezes() {
        let plan = FaultPlan::crash_at(3);
        let mut dev = NvmDevice::with_faults(NvmConfig::fast_with_crash(4096), &plan);
        dev.try_write(0, &[1u8; 8]).unwrap(); // op 0
        dev.try_persist(0, 8).unwrap(); // ops 1 (flush) + 2 (fence)
        let err = dev.try_write(8, &[2u8; 8]).unwrap_err(); // op 3: crash
        assert_eq!(err, NvmError::Crashed);
        assert!(dev.has_crashed());
        assert_eq!(dev.fault_counters().crash_triggers, 1);
        dev.crash();
        assert!(!dev.has_crashed());
        // The fenced write survived; the rejected one never happened.
        assert_eq!(dev.read_u64(0), u64::from_le_bytes([1; 8]));
        assert_eq!(dev.read_u64(8), 0);
        // The device accepts writes again.
        dev.try_write(8, &[3u8; 8]).unwrap();
        dev.try_persist(8, 8).unwrap();
        assert_eq!(dev.read_u64(8), u64::from_le_bytes([3; 8]));
    }

    #[test]
    #[should_panic(expected = "injected NVM fence fault")]
    fn infallible_api_panics_on_injected_fault() {
        let plan = FaultPlan::crash_at(0);
        let dev = NvmDevice::with_faults(NvmConfig::fast_with_crash(64), &plan);
        dev.fence();
    }

    #[test]
    fn transient_write_failure_retry_succeeds() {
        use crate::fault::Fault;
        let plan = FaultPlan { seed: 0, faults: vec![Fault::FailedWrite { op: 0 }] };
        let dev = NvmDevice::with_faults(NvmConfig::fast(4096), &plan);
        assert_eq!(dev.try_write(0, &[9u8; 8]), Err(NvmError::WriteFailed));
        assert_eq!(dev.read_u64(0), 0, "failed write must not apply");
        dev.try_write(0, &[9u8; 8]).unwrap();
        assert_eq!(dev.read_u64(0), u64::from_le_bytes([9; 8]));
        assert_eq!(dev.fault_counters().failed_writes, 1);
    }

    #[test]
    fn try_persist_on_crash_point_via_flush() {
        let plan = FaultPlan::crash_at(1);
        let dev = NvmDevice::with_faults(NvmConfig::fast_with_crash(4096), &plan);
        dev.try_write(0, &[1u8; 8]).unwrap(); // op 0
        assert_eq!(dev.try_persist(0, 8), Err(NvmError::Crashed));
    }

    // Wall-clock latency accounting is meaningless under Miri.
    #[cfg_attr(miri, ignore)]
    #[test]
    fn latency_charged() {
        use std::time::Instant;
        let mut cfg = NvmConfig::fast(1 << 20);
        cfg.latency.read_ns_per_block = 1_000;
        let dev = NvmDevice::new(cfg);
        let mut buf = [0u8; 256];
        let t0 = Instant::now();
        for i in 0..100 {
            dev.read_into(i * 256, &mut buf);
        }
        // 100 block reads * 1 µs each.
        assert!(t0.elapsed().as_micros() >= 100, "latency not charged");
    }

    /// Runs `f` and returns how long it took, in ns.
    fn took_ns(f: impl FnOnce()) -> u64 {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_nanos() as u64
    }

    // Wall-clock latency accounting is meaningless under Miri.
    #[cfg_attr(miri, ignore)]
    #[test]
    fn every_call_waits_its_modelled_time() {
        let dev = NvmDevice::new(NvmConfig::optane(1 << 16));
        let m = LatencyModel::optane_like();
        let block = LatencyModel::BLOCK;
        let data = [3u8; 4 * LatencyModel::BLOCK];
        for k in [1, 2, 4] {
            let mut buf = vec![0u8; k * block];
            let read = took_ns(|| dev.read_into(block, &mut buf));
            assert!(read >= k as u64 * m.read_ns_per_block, "read of {k} blocks took {read} ns");
            let write = took_ns(|| dev.try_write(block, &data[..k * block]).unwrap());
            assert!(write >= k as u64 * m.write_ns_per_block, "write of {k} blocks: {write} ns");
        }
        for n in [1, 3, 8] {
            let flush = took_ns(|| dev.try_flush(0, n * 64).unwrap());
            assert!(flush >= n as u64 * m.flush_ns, "flush of {n} lines took {flush} ns");
        }
        let fence = took_ns(|| dev.try_fence().unwrap());
        assert!(fence >= m.fence_ns, "fence took {fence} ns");

        // Composites wait at least the sum of their parts.
        let persist = took_ns(|| dev.try_persist(0, 128).unwrap());
        assert!(persist >= 2 * m.flush_ns + m.fence_ns, "persist took {persist} ns");
        let write_persist = took_ns(|| {
            dev.try_write_persist(0, &data[..2 * block], [(0, 64), (block, 128)]).unwrap();
        });
        let parts = 2 * m.write_ns_per_block + 3 * m.flush_ns + m.fence_ns;
        assert!(write_persist >= parts, "write+persist took {write_persist} of {parts} ns");
        // A WAL-style group commit: eight 32-byte records, one fence.
        let batch = took_ns(|| dev.try_persist_ranges((0..8).map(|i| (i * 32, 32))).unwrap());
        assert!(batch >= 8 * m.flush_ns + m.fence_ns, "batch took {batch} ns");
    }

    #[test]
    fn dram_like_device_reads_no_clock() {
        let dev = NvmDevice::new(NvmConfig::fast(4096));
        assert!(dev.charge(None, 0, 256).is_none(), "a free access took a clock reading");
        assert!(wait(None, 0).is_none());
    }

    #[test]
    fn failed_write_in_composite_applies_and_flushes_nothing() {
        use crate::fault::Fault;
        let plan = FaultPlan { seed: 0, faults: vec![Fault::FailedWrite { op: 0 }] };
        let mut dev = NvmDevice::with_faults(NvmConfig::fast_with_crash(4096), &plan);
        let got = dev.try_write_persist(0, &[9u8; 16], [(0, 16)]);
        assert_eq!(got, Err(NvmError::WriteFailed));
        assert_eq!(dev.read_u64(0), 0, "failed write must not apply");
        let s = dev.stats().snapshot();
        assert_eq!((s.writes, s.bytes_written, s.flushes, s.fences), (0, 0, 0, 0));
        assert_eq!(dev.fault_injector().unwrap().ops(), 1, "only the write's op was used");
        // The retry goes through in full, durably.
        dev.try_write_persist(0, &[9u8; 16], [(0, 16)]).unwrap();
        dev.crash();
        assert_eq!(dev.read_u64(8), u64::from_le_bytes([9; 8]));
    }

    /// One device's outcomes, counters and post-crash image after a fixed
    /// script of writes, flushes and fences, issued through the composite
    /// calls or as separate calls.
    fn drive(plan: &FaultPlan, composite: bool) -> impl PartialEq + std::fmt::Debug {
        let mut dev = NvmDevice::with_faults(NvmConfig::fast_with_crash(1024), plan);
        let first = [(0, 64), (64, 64), (192, 8)];
        let batch = [(512, 32), (544, 32), (576, 32)];
        let flushes = |ranges: &[(usize, usize)]| -> Result<(), NvmError> {
            for &(offset, len) in ranges {
                dev.try_flush(offset, len)?;
            }
            dev.try_fence()
        };
        let outcomes = if composite {
            [
                dev.try_write_persist(0, &[0x5a; 200], first),
                dev.try_write(512, &[7; 96]),
                dev.try_persist_ranges(batch),
                dev.try_persist(0, 8),
            ]
        } else {
            [
                dev.try_write(0, &[0x5a; 200]).and_then(|()| flushes(&first)),
                dev.try_write(512, &[7; 96]),
                flushes(&batch),
                flushes(&[(0, 8)]),
            ]
        };
        let ops = dev.fault_injector().map(FaultInjector::ops);
        let stats = dev.stats_snapshot();
        dev.crash();
        let mut image = vec![0u8; 1024];
        dev.read_into(0, &mut image);
        (outcomes, ops, stats, image)
    }

    #[test]
    fn composites_drive_the_injector_like_separate_calls() {
        use crate::fault::Fault;
        // The script is 13 ops long (12 plus one failed write); crash at
        // each, and past the end, under two mixes of the other faults.
        for crash in 0..=14 {
            let plans = [
                FaultPlan::crash_at(crash)
                    .with(Fault::DroppedFlush { op: 2 })
                    .with(Fault::TornWrite { op: 5, granularity: 8 }),
                FaultPlan::crash_at(crash)
                    .with(Fault::FailedWrite { op: 0 })
                    .with(Fault::DroppedFlush { op: 8 }),
            ];
            for plan in &plans {
                assert_eq!(drive(plan, true), drive(plan, false), "{plan:?}");
            }
        }
    }

    // 8 threads x 1000 ops takes minutes under Miri; the raw-pointer
    // paths are still covered by the single-threaded tests and proptests.
    #[cfg_attr(miri, ignore)]
    #[test]
    fn concurrent_disjoint_writes() {
        use std::sync::Arc;
        let dev = Arc::new(NvmDevice::new(NvmConfig::fast(1 << 20)));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let dev = Arc::clone(&dev);
            handles.push(li_sync::thread::spawn(move || {
                for i in 0..1_000u64 {
                    let off = (t * 1_000 + i) as usize * 8;
                    dev.write_u64(off, t * 1_000_000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..8u64 {
            for i in (0..1_000u64).step_by(97) {
                let off = (t * 1_000 + i) as usize * 8;
                assert_eq!(dev.read_u64(off), t * 1_000_000 + i);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn crash_preserves_exactly_the_persisted_writes(
            ops in proptest::collection::vec((0usize..120, 0u8..255, proptest::bool::ANY), 1..80),
        ) {
            let mut dev = NvmDevice::new(NvmConfig::fast_with_crash(1024));
            // Durable oracle: what a crash must restore.
            let mut durable = vec![0u8; 1024];
            let mut pending: Vec<(usize, u8)> = Vec::new();
            for &(off, byte, persist) in &ops {
                let off = off * 8;
                dev.write(off, &[byte; 8]);
                if persist {
                    dev.flush(off, 8);
                    pending.push((off, byte));
                    dev.fence();
                    for &(o, b) in &pending {
                        durable[o..o + 8].fill(b);
                    }
                    pending.clear();
                }
            }
            dev.crash();
            let mut buf = vec![0u8; 1024];
            dev.read_into(0, &mut buf);
            prop_assert_eq!(buf, durable);
        }
    }
}
