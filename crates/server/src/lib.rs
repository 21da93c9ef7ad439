//! `li-server`: a fault-hardened TCP front-end for the Viper store.
//!
//! This crate is where the store's transient-fault retry meets real
//! request traffic: pipelined `li-proto` frames, each run to completion
//! on its connection's thread, with per-request deadlines, a server-wide
//! in-flight budget that sheds with typed `RETRY_AFTER` instead of
//! dropping connections, slow-client protection, and graceful drain.
//! See `DESIGN.md` § "Service front-end" for the full state machine and
//! `tests/server_chaos.rs` for the properties under seeded network
//! faults.
//!
//! Layout:
//! - [`config`]: [`ServiceConfig`] — the budget, the timeouts and the
//!   store's retry policy.
//! - [`service`]: command execution + `ViperError` → protocol mapping.
//! - [`server`]: acceptor, one run-to-completion thread per connection,
//!   and the [`Server::shutdown`] drain.
//! - [`client`]: a blocking test/bench client, generic over the stream.
//! - [`transport`]: [`FaultyTransport`], seeded socket-fault injection.

pub mod client;
pub mod config;
pub mod server;
pub mod service;
pub mod transport;

pub use client::Client;
pub use config::ServiceConfig;
pub use server::{DrainReport, ServeIndex, Server};
pub use transport::{FaultConfig, FaultyTransport};

/// Test/bench scaffolding shared by this crate's integration tests, the
/// workspace chaos tests, and `li-bench serve_load`. Not part of
/// the server API.
#[doc(hidden)]
pub mod testutil {
    use li_core::{
        BulkBuildIndex, Index, Key, KeyValue, OrderedIndex, Sharded, UpdatableIndex, Value,
    };
    use li_sync::sync::Arc;
    use li_viper::{ConcurrentViperStore, DurabilityConfig, StoreConfig};

    use crate::ServiceConfig;

    /// Minimal shardable index: a `BTreeMap` per shard.
    pub struct MapIndex(std::collections::BTreeMap<Key, Value>);

    impl Index for MapIndex {
        fn name(&self) -> &'static str {
            "map"
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn get(&self, key: Key) -> Option<Value> {
            self.0.get(&key).copied()
        }
        fn index_size_bytes(&self) -> usize {
            self.0.len() * 48
        }
        fn data_size_bytes(&self) -> usize {
            0
        }
    }

    impl UpdatableIndex for MapIndex {
        fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
            self.0.insert(key, value)
        }
        fn remove(&mut self, key: Key) -> Option<Value> {
            self.0.remove(&key)
        }
    }

    impl OrderedIndex for MapIndex {
        fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
            out.extend(self.0.range(lo..=hi).map(|(&k, &v)| (k, v)));
        }
    }

    impl BulkBuildIndex for MapIndex {
        fn build(data: &[KeyValue]) -> Self {
            MapIndex(data.iter().copied().collect())
        }
    }

    /// A sharded, telemetry-enabled concurrent store preloaded with
    /// `n` keys (`key = i*7+1`, value = the 4-byte little-endian key),
    /// retry policy per `cfg`, durability sized for `2n` live records.
    pub fn served_store(n: usize, cfg: &ServiceConfig) -> Arc<ConcurrentViperStore<Sharded>> {
        let keys: Vec<Key> = (0..n as Key).map(|i| i * 7 + 1).collect();
        let store_cfg = StoreConfig::test(2 * n + 1024)
            .with_durability(DurabilityConfig::sized_for(2 * n + 1024, 4096));
        let mut store = ConcurrentViperStore::bulk_load_with(
            store_cfg,
            &keys,
            |key, buf| {
                buf.fill(0);
                buf[..4].copy_from_slice(&4u32.to_le_bytes());
                buf[4..8].copy_from_slice(&(key as u32).to_le_bytes());
            },
            |pairs| Sharded::build_with(8, pairs, MapIndex::build),
        );
        store.set_recorder(li_telemetry::Recorder::enabled());
        cfg.install(&mut store);
        Arc::new(store)
    }
}
