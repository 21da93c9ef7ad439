//! # li-viper — an NVM-oriented key-value store
//!
//! A from-scratch reproduction of the architecture of Viper (Benson et
//! al., VLDB'21) as used by the paper's end-to-end evaluation (§III-A2,
//! Fig. 9): fixed-size record pages live on (simulated) persistent memory,
//! while a *volatile*, pluggable index in DRAM maps each key to its record
//! offset. Every index evaluated by the paper — learned or traditional —
//! plugs into the same store, which is what makes the comparison fair.
//!
//! * [`layout`] — persistent record/page layout (with per-record CRC) and
//!   its invariants.
//! * [`heap`] — the record heap: slot allocation, persistence protocol
//!   (write → flush → fence → publish), checksum-verifying recovery scan.
//! * [`store`] — [`ViperStore`], one store type generic over its
//!   [`WriteModel`]: single-writer (`&mut self` mutation, the default) or
//!   shared-writer (`&self` mutation for XIndex and any index lifted by
//!   `li_core::shard::Sharded`; [`ConcurrentViperStore`] is the alias).
//!   The struct, reads, checkpoints, construction and the maintenance
//!   pass; [`config`] holds [`StoreConfig`], `write` the write models
//!   and the one put/delete path both share, `recovery` the device-side
//!   half of a restart (checkpoint + WAL tail, or the page rescan).
//! * [`error`] — [`ViperError`]: every mutating path is fallible; device
//!   exhaustion degrades stores to read-only instead of panicking.
//! * [`retry`] — bounded, seeded-backoff retry of transient faults (the
//!   first rung of the self-healing ladder).
//! * [`maintenance`] — the background [`MaintenanceWorker`] (deferred
//!   retraining, quarantine repair, checkpoints on WAL lag, read-only
//!   lift).
//! * [`wal`] — the write-ahead log: CRC-framed ring of LSN-addressed
//!   records with group commit (one fence per batch of appenders).
//! * [`checkpoint`] — incremental checkpoints of the key → offset map (a
//!   base image plus appended delta segments) behind a versioned
//!   manifest; recovery decodes the last checkpoint and replays only the
//!   WAL tail instead of rescanning pages, then builds the index.

pub mod checkpoint;
pub mod config;
#[cfg(test)]
mod device_budget;
pub mod error;
pub mod heap;
pub mod layout;
pub mod maintenance;
mod recovery;
pub mod retry;
pub mod store;
pub mod wal;
mod write;

pub use checkpoint::DurabilityConfig;
pub use config::StoreConfig;
pub use error::ViperError;
pub use heap::{RecordHeap, RecoverOptions, RecoveryReport};
pub use layout::{RecordLayout, PAGE_MAGIC};
pub use maintenance::{MaintenanceConfig, MaintenancePass, MaintenanceStats, MaintenanceWorker};
pub use retry::RetryPolicy;
pub use store::{ConcurrentViperStore, RepairOutcome, ViperStore};
pub use wal::{Wal, WalFull};
pub use write::{SharedWriter, SingleWriter, WriteModel};
