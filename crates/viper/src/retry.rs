//! Bounded retry with seeded exponential backoff for transient faults.
//!
//! The first rung of the self-healing ladder (see `DESIGN.md`): a put or
//! delete that hits a *transient* fault — a failed write line that
//! exhausted the heap's immediate retries, or a device-full window — is
//! re-attempted a bounded number of times, sleeping an exponentially
//! growing, seed-jittered backoff between attempts. Deterministic seeds
//! keep the torture harness replayable: the same seed yields the same
//! jitter sequence.
//!
//! Between attempts the policy also issues one benign fence on the
//! device. On real hardware elapsed wall-clock time is what lets a
//! transient fault pass; on the simulated device faults are positioned on
//! the *op counter*, so the fence is the clock tick that lets an injected
//! device-full window expire while a writer backs off.

use std::time::Duration;

use li_core::telemetry::{Event, OpKind, Recorder};
use li_nvm::fault::splitmix64;
use li_nvm::NvmDevice;

use crate::error::ViperError;

/// Retry budget and backoff shape for transient store faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-attempts after the first failure; 0 disables retrying.
    pub max_retries: u32,
    /// Backoff before re-attempt `n` is `base * 2^(n-1)` (capped), ±50%
    /// seeded jitter.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_backoff: Duration,
    /// Jitter seed; identical seeds replay identical backoff sequences.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retrying at all — the pre-resilience behaviour, and the default.
    pub const fn disabled() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::from_micros(0),
            max_backoff: Duration::from_micros(0),
            seed: 0,
        }
    }

    /// A budget sized for tests and the torture harness: enough attempts
    /// to ride out an injected fault burst, microsecond-scale sleeps so
    /// seeded runs stay fast.
    pub const fn standard(seed: u64) -> Self {
        RetryPolicy {
            max_retries: 6,
            base_backoff: Duration::from_micros(20),
            max_backoff: Duration::from_millis(2),
            seed,
        }
    }

    pub const fn is_enabled(&self) -> bool {
        self.max_retries > 0
    }

    /// Jittered exponential backoff for re-attempt `attempt` (1-based),
    /// deterministic in `(seed, salt, attempt)`.
    pub fn backoff_for(&self, salt: u64, attempt: u32) -> Duration {
        let exp = self.base_backoff.saturating_mul(1u32 << (attempt - 1).min(16));
        let capped = exp.min(self.max_backoff);
        let ns = capped.as_nanos().min(u128::from(u64::MAX)) as u64;
        if ns == 0 {
            return Duration::ZERO;
        }
        let mut s = self.seed ^ salt.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ u64::from(attempt);
        // ±50% jitter: uniform in [ns/2, 3*ns/2).
        Duration::from_nanos(ns / 2 + splitmix64(&mut s) % ns.max(1))
    }

    /// Sleeps the backoff for re-attempt `attempt`, emits the
    /// [`Event::BackoffWait`] telemetry, and ticks the device clock with
    /// one benign fence so op-counter-positioned fault windows can pass.
    pub(crate) fn wait(&self, salt: u64, attempt: u32, recorder: &Recorder, dev: &NvmDevice) {
        let pause = self.backoff_for(salt, attempt);
        if !pause.is_zero() {
            li_sync::thread::sleep(pause);
        }
        recorder.event(Event::BackoffWait);
        recorder.record_ns(OpKind::BackoffWait, pause.as_nanos().min(u128::from(u64::MAX)) as u64);
        let _ = dev.try_fence();
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Runs `op` with the policy's bounded retry. Non-transient errors (such
/// as `ViperError::ReadOnly`) and budget exhaustion surface the last
/// error unchanged. Records the attempts histogram for ops that needed
/// more than one attempt.
pub(crate) fn with_retry<T>(
    policy: &RetryPolicy,
    salt: u64,
    recorder: &Recorder,
    dev: &NvmDevice,
    mut op: impl FnMut() -> Result<T, ViperError>,
) -> Result<T, ViperError> {
    let mut attempt = 0u32;
    loop {
        let result = op();
        match result {
            Err(e) if e.is_transient() && attempt < policy.max_retries => {
                attempt += 1;
                policy.wait(salt, attempt, recorder, dev);
            }
            result => {
                if attempt > 0 {
                    recorder.record_ns(OpKind::RetryAttempts, u64::from(attempt) + 1);
                }
                return result;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use li_nvm::NvmConfig;
    use li_nvm::NvmError;
    use std::sync::Arc;

    #[test]
    fn disabled_policy_never_retries() {
        let dev = Arc::new(NvmDevice::new(NvmConfig::fast(4096)));
        let mut calls = 0;
        let r = with_retry(&RetryPolicy::disabled(), 0, &Recorder::disabled(), &dev, || {
            calls += 1;
            Err::<(), _>(ViperError::Nvm(NvmError::WriteFailed))
        });
        assert_eq!(r, Err(ViperError::Nvm(NvmError::WriteFailed)));
        assert_eq!(calls, 1);
    }

    #[test]
    fn transient_errors_retry_until_success() {
        let dev = Arc::new(NvmDevice::new(NvmConfig::fast(4096)));
        let rec = Recorder::enabled();
        let mut calls = 0;
        let r = with_retry(&RetryPolicy::standard(7), 1, &rec, &dev, || {
            calls += 1;
            if calls < 4 {
                Err(ViperError::DeviceFull)
            } else {
                Ok(calls)
            }
        });
        assert_eq!(r, Ok(4));
        let s = rec.snapshot();
        assert_eq!(s.event(Event::BackoffWait), 3);
        assert_eq!(s.op(OpKind::BackoffWait).count, 3);
        let attempts = s.op(OpKind::RetryAttempts);
        assert_eq!((attempts.count, attempts.max), (1, 4));
    }

    #[test]
    fn budget_exhaustion_surfaces_last_error() {
        let dev = Arc::new(NvmDevice::new(NvmConfig::fast(4096)));
        let rec = Recorder::enabled();
        let policy = RetryPolicy::standard(1);
        let mut calls = 0u32;
        let r = with_retry(&policy, 2, &rec, &dev, || {
            calls += 1;
            Err::<(), _>(ViperError::DeviceFull)
        });
        assert_eq!(r, Err(ViperError::DeviceFull));
        assert_eq!(calls, policy.max_retries + 1);
    }

    #[test]
    fn permanent_errors_do_not_retry() {
        let dev = Arc::new(NvmDevice::new(NvmConfig::fast(4096)));
        let mut calls = 0;
        let r = with_retry(&RetryPolicy::standard(1), 3, &Recorder::disabled(), &dev, || {
            calls += 1;
            Err::<(), _>(ViperError::ReadOnly)
        });
        assert_eq!(r, Err(ViperError::ReadOnly));
        assert_eq!(calls, 1);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::standard(42);
        for attempt in 1..=p.max_retries {
            let a = p.backoff_for(5, attempt);
            assert_eq!(a, p.backoff_for(5, attempt), "same inputs, same jitter");
            assert!(a <= p.max_backoff.mul_f64(1.5), "attempt {attempt} exceeds cap: {a:?}");
        }
        assert_ne!(p.backoff_for(5, 1), RetryPolicy::standard(43).backoff_for(5, 1));
    }

    #[test]
    fn backoff_ticks_the_device_op_clock() {
        let dev = Arc::new(NvmDevice::new(NvmConfig::fast(4096)));
        let before = dev.stats().snapshot().fences;
        RetryPolicy::standard(0).wait(0, 1, &Recorder::disabled(), &dev);
        assert_eq!(dev.stats().snapshot().fences, before + 1);
    }
}
