//! Latency and bandwidth model of the simulated device.

use li_sync::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Access-cost model, in nanoseconds charged per
/// [`LatencyModel::BLOCK`]-byte block touched (256 B is Optane's internal
/// access granularity).
///
/// The device charges these numbers as deadlines: a call returns no
/// earlier than its start plus its cost, and a composite call (flush then
/// fence, write then flushes then fence) starts each part at the reading
/// its previous part ended on. A part moves its bytes in the backing DRAM
/// before it waits, so it lasts max(cost, its copy), not their sum: a cost
/// is the access's whole modelled time, and the host's own memory cost is
/// its floor. A wait overshoots its deadline by at most about one clock
/// read (barring preemption), which keeps a 30 ns fence near 30 ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Nanoseconds per block read.
    pub read_ns_per_block: u64,
    /// Nanoseconds per block written.
    pub write_ns_per_block: u64,
    /// Nanoseconds for a flush (clwb-like) of one cache line.
    pub flush_ns: u64,
    /// Nanoseconds for a store fence.
    pub fence_ns: u64,
    /// Global bandwidth cap in bytes per microsecond (0 = unlimited).
    /// Shared by all threads, which is what makes high-thread-count
    /// workloads contend (Fig. 12).
    pub bandwidth_bytes_per_us: u64,
}

impl LatencyModel {
    /// Internal device access granularity (bytes).
    pub const BLOCK: usize = 256;

    /// Calibrated against published Optane DC PMem measurements
    /// (Yang et al., FAST'20): ~300 ns random read, ~100 ns write into the
    /// buffer, flush+fence ~ tens of ns, per-DIMM bandwidth a few GB/s.
    /// The read cost was set as an extra over a ~80 ns DRAM access; as the
    /// whole access it charges a read max(220 ns, the host's own miss).
    pub fn optane_like() -> Self {
        LatencyModel {
            read_ns_per_block: 220,
            write_ns_per_block: 90,
            flush_ns: 40,
            fence_ns: 30,
            bandwidth_bytes_per_us: 8_000, // ~8 GB/s shared
        }
    }

    /// No added latency: the device behaves like DRAM. Useful for unit
    /// tests and for isolating index cost from device cost.
    pub fn dram_like() -> Self {
        LatencyModel {
            read_ns_per_block: 0,
            write_ns_per_block: 0,
            flush_ns: 0,
            fence_ns: 0,
            bandwidth_bytes_per_us: 0,
        }
    }

    /// Number of blocks an access of `len` bytes at `offset` touches.
    #[inline]
    pub fn blocks(offset: usize, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let first = offset / Self::BLOCK;
        let last = (offset + len - 1) / Self::BLOCK;
        last - first + 1
    }
}

/// Waits until `ns` nanoseconds past `start` and returns the clock reading
/// that ended the wait, so the next part of a device call can start where
/// this one ended instead of paying a fresh reading. Work done since
/// `start` counts toward the wait: a deadline already passed returns after
/// one clock read, so the caller lasts max(`ns`, its work). Spinning
/// (rather than sleeping) matches how a blocked memory access behaves; a
/// sub-µs wait spins without a `spin_loop` hint, whose own tens of ns would
/// overshoot the deadline by a sizeable share of the modelled cost.
#[inline]
pub(crate) fn spin_ns(start: Instant, ns: u64) -> Instant {
    let deadline = start + Duration::from_nanos(ns);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return now;
        }
        if ns >= 1_000 {
            li_sync::hint::spin_loop();
        }
    }
}

/// A coarse token-bucket bandwidth limiter shared by all threads.
///
/// Time is divided into 64 µs windows; each window grants
/// `bandwidth_bytes_per_us * 64` bytes. A thread that overdraws the current
/// window spins until the next one. Simple, lock-free, and sufficient to
/// create the cross-thread contention the multi-threaded experiments need.
pub(crate) struct BandwidthLimiter {
    bytes_per_window: u64,
    /// Packed state: upper 32 bits = window id, lower 32 = bytes used.
    state: AtomicU64,
    epoch: Instant,
}

const WINDOW_US: u64 = 64;

impl BandwidthLimiter {
    pub fn new(bandwidth_bytes_per_us: u64) -> Option<Self> {
        if bandwidth_bytes_per_us == 0 {
            return None;
        }
        Some(BandwidthLimiter {
            bytes_per_window: bandwidth_bytes_per_us * WINDOW_US,
            state: AtomicU64::new(0),
            epoch: Instant::now(),
        })
    }

    #[inline]
    fn window_of(&self, at: Instant) -> u64 {
        (at.duration_since(self.epoch).as_micros() as u64) / WINDOW_US
    }

    /// Accounts `bytes` of traffic at `now` (the caller's latest clock
    /// reading), spinning into future windows when the current one is
    /// exhausted. Returns the reading the call ended at: `now` itself
    /// unless it had to wait, so only a wait reads the clock.
    pub fn consume(&self, bytes: u64, mut now: Instant) -> Instant {
        let mut remaining = bytes;
        loop {
            let window = self.window_of(now);
            let cur = self.state.load(Ordering::Relaxed);
            let (win, used) = (cur >> 32, cur & 0xffff_ffff);
            let (win, used) = if win < window { (window, 0) } else { (win, used) };
            let grant = (self.bytes_per_window.saturating_sub(used)).min(remaining);
            let next = (win << 32) | (used + grant).min(0xffff_ffff);
            if self
                .state
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            remaining -= grant;
            if remaining == 0 {
                return now;
            }
            // Window exhausted: wait for the next one.
            while self.window_of(now) <= win {
                li_sync::hint::spin_loop();
                now = Instant::now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_counting() {
        assert_eq!(LatencyModel::blocks(0, 0), 0);
        assert_eq!(LatencyModel::blocks(0, 1), 1);
        assert_eq!(LatencyModel::blocks(0, 256), 1);
        assert_eq!(LatencyModel::blocks(0, 257), 2);
        assert_eq!(LatencyModel::blocks(255, 2), 2);
        assert_eq!(LatencyModel::blocks(256, 256), 1);
        assert_eq!(LatencyModel::blocks(100, 400), 2);
    }

    // Wall-clock spin timing is meaningless under Miri's interpreter.
    #[cfg_attr(miri, ignore)]
    #[test]
    fn spin_roughly_accurate() {
        let t0 = Instant::now();
        let end = spin_ns(t0, 200_000); // 200 µs
        let took = t0.elapsed().as_nanos() as u64;
        assert!(took >= 200_000, "spun only {took} ns");
        assert!(
            end.duration_since(t0).as_nanos() >= 200_000,
            "returned a reading before the deadline"
        );
        assert!(took < 5_000_000, "spun way too long: {took} ns");
    }

    #[test]
    fn limiter_disabled_when_zero() {
        assert!(BandwidthLimiter::new(0).is_none());
    }

    // Wall-clock throttle timing is meaningless under Miri's interpreter.
    #[cfg_attr(miri, ignore)]
    #[test]
    fn limiter_throttles() {
        // 1 byte/µs => 1 MB should take ~1 s; use 10 KB => ~10 ms.
        let l = BandwidthLimiter::new(1).unwrap();
        let t0 = Instant::now();
        l.consume(10_000, t0);
        let took = t0.elapsed().as_micros();
        assert!(took >= 5_000, "took only {took} µs");
    }

    #[test]
    fn limiter_fast_under_budget() {
        let l = BandwidthLimiter::new(10_000).unwrap();
        let t0 = Instant::now();
        l.consume(1_000, t0);
        assert!(t0.elapsed().as_micros() < 1_000);
    }
}
