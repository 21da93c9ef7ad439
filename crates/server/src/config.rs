//! [`ServiceConfig`]: one knob surface for the whole degradation ladder.
//!
//! The store's ladder pieces — [`RetryPolicy`], the admission gate,
//! [`BreakerConfig`] — are constructor arguments; a server needs them
//! operable. The fourteen [`KEYS`] (the server's own in-flight budget
//! and three timeouts, then the ladder's thresholds) are each settable
//! from the environment (`LI_SERVER_*`) or from `--key=value` flags, and
//! one [`ServiceConfig::install`] call wires the ladder into a store
//! before it is shared.

use std::time::Duration;

use li_sync::sync::Arc;
use li_viper::{BreakerConfig, CircuitBreaker, ConcurrentViperStore, RetryPolicy};

/// Everything the server front-end and the store's overload ladder can
/// be tuned with. Defaults are sized for tests: a budget small enough
/// that backpressure is reachable, timeouts short enough for CI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Server-wide budget of requests read off a socket whose response
    /// is not yet written; a frame past it is shed with `RETRY_AFTER`.
    pub max_in_flight: usize,
    /// A connection with no bytes from its client for this long is closed.
    pub idle_timeout: Duration,
    /// A response write that makes no progress for this long drops the
    /// client.
    pub stall_timeout: Duration,
    /// How long shutdown waits for in-flight requests before answering
    /// the remainder with typed `CANCELLED`.
    pub drain_timeout: Duration,
    /// Transient-fault retry budget applied to the store (rung one).
    pub retry: RetryPolicy,
    /// Admission gate width; 0 disables the gate (rung two).
    pub admission_limit: usize,
    /// Spin-wait before a saturated gate sheds a put.
    pub admission_wait: Duration,
    /// Circuit-breaker thresholds; `None` installs no breaker (rung three).
    pub breaker: Option<BreakerConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_in_flight: 1024,
            idle_timeout: Duration::from_secs(30),
            stall_timeout: Duration::from_secs(2),
            drain_timeout: Duration::from_secs(5),
            retry: RetryPolicy::disabled(),
            admission_limit: 0,
            admission_wait: Duration::from_millis(1),
            breaker: None,
        }
    }
}

impl ServiceConfig {
    /// Reads every `LI_SERVER_*` environment override on top of the
    /// defaults. Unset variables keep their default; set-but-invalid
    /// values are returned as errors rather than silently ignored.
    pub fn from_env() -> Result<Self, String> {
        let mut cfg = ServiceConfig::default();
        for key in KEYS {
            let var = format!("LI_SERVER_{}", key.to_uppercase());
            if let Ok(val) = std::env::var(&var) {
                cfg.set(key, &val).map_err(|e| format!("{var}: {e}"))?;
            }
        }
        Ok(cfg)
    }

    /// Applies one `key=value` pair (flag spelling: `--retry_max=6`).
    /// Durations are integer microseconds. Unknown keys are errors so a
    /// typo'd flag can't silently run with defaults.
    pub fn set(&mut self, key: &str, val: &str) -> Result<(), String> {
        fn num<T: std::str::FromStr>(val: &str) -> Result<T, String> {
            val.parse().map_err(|_| format!("invalid number {val:?}"))
        }
        match key {
            "max_in_flight" => self.max_in_flight = num::<usize>(val)?.max(1),
            "idle_timeout_us" => self.idle_timeout = Duration::from_micros(num(val)?),
            "stall_timeout_us" => self.stall_timeout = Duration::from_micros(num(val)?),
            "drain_timeout_us" => self.drain_timeout = Duration::from_micros(num(val)?),
            "retry_max" => self.retry.max_retries = num(val)?,
            "retry_base_us" => self.retry.base_backoff = Duration::from_micros(num(val)?),
            "retry_cap_us" => self.retry.max_backoff = Duration::from_micros(num(val)?),
            "retry_seed" => self.retry.seed = num(val)?,
            "admission_limit" => self.admission_limit = num(val)?,
            "admission_wait_us" => self.admission_wait = Duration::from_micros(num(val)?),
            "breaker_depth_open" => self.breaker_mut().depth_open = num::<usize>(val)?.max(1),
            "breaker_depth_close" => self.breaker_mut().depth_close = num(val)?,
            "breaker_sustain" => self.breaker_mut().sustain_ticks = num::<u32>(val)?.max(1),
            "breaker_p999_ns" => self.breaker_mut().p999_open_ns = num(val)?,
            other => return Err(format!("unknown ServiceConfig key {other:?}")),
        }
        Ok(())
    }

    fn breaker_mut(&mut self) -> &mut BreakerConfig {
        self.breaker.get_or_insert_with(BreakerConfig::default)
    }

    /// Wires the ladder into a store that is not yet shared: retry
    /// policy, admission gate, and (when configured) a fresh breaker.
    /// The breaker is returned so the caller can feed it overload
    /// observations (the `MaintenanceWorker` does this automatically
    /// when the store is registered with one).
    pub fn install<I: li_core::Index>(
        &self,
        store: &mut ConcurrentViperStore<I>,
    ) -> Option<Arc<CircuitBreaker>> {
        store.set_retry_policy(self.retry);
        if self.admission_limit > 0 {
            store.set_admission_limit(self.admission_limit, self.admission_wait);
        }
        self.breaker.map(|cfg| {
            let breaker = Arc::new(CircuitBreaker::new(cfg, store.recorder().clone()));
            store.set_circuit_breaker(Arc::clone(&breaker));
            breaker
        })
    }
}

/// All settable keys, in `set` spelling (used by `from_env` and `--help`
/// text in the bench binary).
pub const KEYS: &[&str] = &[
    "max_in_flight",
    "idle_timeout_us",
    "stall_timeout_us",
    "drain_timeout_us",
    "retry_max",
    "retry_base_us",
    "retry_cap_us",
    "retry_seed",
    "admission_limit",
    "admission_wait_us",
    "breaker_depth_open",
    "breaker_depth_close",
    "breaker_sustain",
    "breaker_p999_ns",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_parses_every_key() {
        let mut cfg = ServiceConfig::default();
        let pairs = [
            ("max_in_flight", "8"),
            ("idle_timeout_us", "1000"),
            ("stall_timeout_us", "2000"),
            ("drain_timeout_us", "3000"),
            ("retry_max", "5"),
            ("retry_base_us", "10"),
            ("retry_cap_us", "500"),
            ("retry_seed", "42"),
            ("admission_limit", "7"),
            ("admission_wait_us", "100"),
            ("breaker_depth_open", "64"),
            ("breaker_depth_close", "8"),
            ("breaker_sustain", "2"),
            ("breaker_p999_ns", "90000"),
        ];
        assert_eq!(&pairs.map(|(key, _)| key)[..], KEYS, "the test covers KEYS, in order");
        for (key, val) in pairs {
            cfg.set(key, val).unwrap_or_else(|e| panic!("{key}: {e}"));
        }
        assert_eq!(cfg.max_in_flight, 8);
        assert_eq!(cfg.retry.max_retries, 5);
        assert_eq!(cfg.retry.base_backoff, Duration::from_micros(10));
        assert_eq!(cfg.admission_limit, 7);
        let b = cfg.breaker.expect("breaker configured");
        assert_eq!((b.depth_open, b.depth_close, b.sustain_ticks), (64, 8, 2));
        assert_eq!(b.p999_open_ns, 90_000);
    }

    #[test]
    fn unknown_key_and_bad_value_are_errors() {
        let mut cfg = ServiceConfig::default();
        assert!(cfg.set("max_in_flihgt", "8").is_err());
        assert!(cfg.set("max_in_flight", "lots").is_err());
        assert_eq!(cfg, ServiceConfig::default());
    }

    #[test]
    fn zero_floors_are_clamped() {
        let mut cfg = ServiceConfig::default();
        cfg.set("max_in_flight", "0").expect("parse");
        cfg.set("breaker_sustain", "0").expect("parse");
        assert_eq!(cfg.max_in_flight, 1);
        assert_eq!(cfg.breaker.expect("breaker").sustain_ticks, 1);
    }
}
