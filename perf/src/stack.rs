//! Builders for the stacks the workloads and probes run against, so every
//! one of them assembles the system the same way.

use std::sync::Arc;

use li_nvm::LatencyModel;
use li_server::ServiceConfig;
use li_telemetry::Recorder;
use li_viper::{
    ConcurrentViperStore, DurabilityConfig, MaintenanceConfig, MaintenanceWorker, RecordLayout,
    RecoverOptions, RecoveryReport, StoreConfig, ViperStore,
};
use lip::{AnyConcurrentIndex, AnyIndex, ConcurrentKind, IndexKind};

use crate::inputs::{fill_value, KeySet};

/// The index lineup of `store_read` and of the per-kind probes, with the
/// names their metrics carry.
pub const LINEUP: [(IndexKind, &str); 5] = [
    (IndexKind::BTree, "btree"),
    (IndexKind::FitingBuf, "fiting_buf"),
    (IndexKind::Pgm, "pgm"),
    (IndexKind::Alex, "alex"),
    (IndexKind::XIndex, "xindex"),
];

/// Shards of the served store's index.
pub const SERVED_SHARDS: usize = 8;

/// Bytes of the values clients put over the wire.
pub const WIRE_VALUE: usize = 128;

/// Bytes of the length header `li_server::service` puts before a client
/// value inside the store's fixed-size record.
const WIRE_HEADER: usize = 4;

pub type Served = ConcurrentViperStore<AnyConcurrentIndex>;

/// A store sized for every key of `set` (pool included) on a device with
/// the given latency, 200-byte values.
pub fn store_config(set: &KeySet, latency: LatencyModel) -> StoreConfig {
    let mut config = StoreConfig::paper(set.all.len());
    config.nvm.latency = latency;
    config
}

/// Loaded value of `key`: version 0 by writer 0.
pub fn loaded_value(key: u64, buf: &mut [u8]) {
    fill_value(buf, key, 0, 0);
}

/// The record `li_server::service` stores for the client value
/// `(key, writer, version)`.
pub fn wire_record(buf: &mut [u8], key: u64, writer: u32, version: u32) {
    buf.fill(0);
    buf[..WIRE_HEADER].copy_from_slice(&(WIRE_VALUE as u32).to_le_bytes());
    fill_value(&mut buf[WIRE_HEADER..WIRE_HEADER + WIRE_VALUE], key, writer, version);
}

/// A single-writer store of one index kind, bulk-loaded with the loaded
/// keys of `set`, no durability.
pub fn kind_store(kind: IndexKind, set: &KeySet, latency: LatencyModel) -> ViperStore<AnyIndex> {
    ViperStore::bulk_load_with(
        store_config(set, latency),
        &set.loaded_keys(),
        loaded_value,
        |pairs| AnyIndex::build(kind, pairs),
    )
}

/// The served store's index: PGM behind `shards` shards
/// ([`SERVED_SHARDS`] as served; the shard probes vary it).
pub fn served_index(shards: usize, pairs: &[(u64, u64)]) -> AnyConcurrentIndex {
    let kind = ConcurrentKind::of(IndexKind::Pgm).expect("PGM is updatable");
    AnyConcurrentIndex::build_with_shards(kind, shards, pairs)
}

/// The served store as shipped, with nothing tuned: PGM behind
/// [`SERVED_SHARDS`] shards, telemetry on, Optane-like device, WAL and
/// checkpoints on, the default service ladder, and the default
/// maintenance worker running.
pub struct ServedStack {
    pub store: Arc<Served>,
    pub worker: MaintenanceWorker,
    pub durability: DurabilityConfig,
    pub layout: RecordLayout,
}

impl ServedStack {
    /// Bulk-loads the loaded keys of `set`. `wal_records` sizes the WAL
    /// ring, which decides how often a checkpoint falls due.
    pub fn build(set: &KeySet, wal_records: u64, value_of: impl FnMut(u64, &mut [u8])) -> Self {
        let durability = DurabilityConfig::sized_for(set.all.len(), wal_records);
        let config = store_config(set, LatencyModel::optane_like()).with_durability(durability);
        let mut store = Served::bulk_load_shared(config, &set.loaded_keys(), value_of, |pairs| {
            served_index(SERVED_SHARDS, pairs)
        });
        store.set_recorder(Recorder::enabled());
        ServiceConfig::default().install(&mut store);
        let store = Arc::new(store);
        let worker = MaintenanceWorker::spawn(Arc::clone(&store), MaintenanceConfig::default());
        ServedStack { store, worker, durability, layout: config.layout }
    }

    /// Stops the maintenance worker and restarts the store from its
    /// device (see [`recover`]).
    pub fn restart(self, use_checkpoint: bool) -> (Served, RecoveryReport) {
        let ServedStack { store, worker, durability, layout } = self;
        worker.shutdown();
        let store = Arc::try_unwrap(store).ok().expect("the store is still shared at restart");
        recover(store, durability, layout, use_checkpoint)
    }
}

/// Drops `store` down to its device and recovers from it: checkpoint plus
/// WAL replay when `use_checkpoint`, a full page scan otherwise.
pub fn recover(
    store: Served,
    durability: DurabilityConfig,
    layout: RecordLayout,
    use_checkpoint: bool,
) -> (Served, RecoveryReport) {
    let opts = RecoverOptions {
        durability: Some(durability),
        use_checkpoint,
        ..RecoverOptions::default()
    };
    Served::recover_shared_recorded(
        store.into_device(),
        layout,
        opts,
        Recorder::enabled(),
        |pairs| served_index(SERVED_SHARDS, pairs),
    )
}
