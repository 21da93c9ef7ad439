//! # li-nvm — simulated persistent memory
//!
//! The paper's end-to-end evaluation (§III) runs inside Viper, a KV store
//! that keeps records on Intel Optane persistent memory while the index
//! stays in DRAM. This crate substitutes the Optane hardware with a
//! DRAM-backed simulation that preserves the properties the evaluation
//! depends on:
//!
//! * **Asymmetric, higher-than-DRAM access latency** — every read/write
//!   pays a configurable busy-wait per 256-byte block ([`LatencyModel`]),
//!   so the record-store "drag" on end-to-end throughput is reproduced.
//!   A call waits until its start plus its modelled cost, and no longer:
//!   composite calls ([`NvmDevice::try_persist`],
//!   [`NvmDevice::try_persist_ranges`], [`NvmDevice::try_write_persist`])
//!   start each part where the previous one ended, so a clock read is paid
//!   per wait, not per part, and an access with no cost reads no clock.
//! * **Shared bandwidth** — an optional global token-bucket limiter makes
//!   many threads contend for device bandwidth, reproducing the saturation
//!   ALEX hits at high thread counts (Fig. 12).
//! * **Persistence semantics** — writes are volatile until a `flush` of
//!   their range plus a `fence`; [`NvmDevice::crash`] discards everything
//!   not yet durable, letting recovery tests (Fig. 16) verify honest
//!   crash-consistency.
//! * **Deterministic fault injection** — a seeded [`FaultPlan`] schedules
//!   crash points, torn writes, dropped flushes, transient write failures
//!   and device-full windows on the device's op counter ([`fault`]),
//!   which is what the crash-torture harness replays.
//!
//! See DESIGN.md for why this substitution preserves the paper's
//! conclusions.

mod device;
pub mod fault;
mod latency;
mod stats;

pub use device::{DurabilityTracking, NvmConfig, NvmDevice};
pub use fault::{Fault, FaultCountersSnapshot, FaultInjector, FaultPlan, NvmError};
pub use latency::LatencyModel;
pub use stats::{NvmStats, NvmStatsSnapshot};
