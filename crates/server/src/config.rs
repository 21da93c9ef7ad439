//! [`ServiceConfig`]: the server's in-flight budget and timeouts, plus
//! the store's transient-fault [`RetryPolicy`].
//!
//! The budget is the only shedding rung: a frame past `max_in_flight` is
//! answered `RETRY_AFTER` before it touches the store. One
//! [`ServiceConfig::install`] call applies the retry policy to a store
//! before it is shared.

use std::time::Duration;

use li_viper::{ConcurrentViperStore, RetryPolicy};

/// Everything the server front-end can be tuned with. Defaults are sized
/// for tests: a budget small enough that shedding is reachable, timeouts
/// short enough for CI.
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
    /// Transient-fault retry budget applied to the store.
    pub retry: RetryPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_in_flight: 1024,
            idle_timeout: Duration::from_secs(30),
            stall_timeout: Duration::from_secs(2),
            drain_timeout: Duration::from_secs(5),
            retry: RetryPolicy::disabled(),
        }
    }
}

impl ServiceConfig {
    /// Applies the retry policy to a store that is not yet shared.
    pub fn install<I: li_core::Index>(&self, store: &mut ConcurrentViperStore<I>) {
        store.set_retry_policy(self.retry);
    }
}
