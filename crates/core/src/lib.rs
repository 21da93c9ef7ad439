//! # li-core
//!
//! Foundation crate for the `learned-index-pieces` workspace, a Rust
//! reproduction of *"Cutting Learned Index into Pieces: An In-depth Inquiry
//! into Updatable Learned Indexes"* (ICDE 2023).
//!
//! The paper deconstructs updatable learned indexes into four orthogonal
//! design dimensions. This crate provides exactly those pieces:
//!
//! * [`approx`] — the **approximation algorithms** that turn a sorted key
//!   array into piecewise linear models: least squares ([`approx::lsa`]),
//!   the streaming optimal PLA of PGM-Index ([`approx::optpla`]), the
//!   greedy feasible-space-window of FITing-tree ([`approx::fsw`]) and the
//!   gap-inserting model-based layout of ALEX ([`approx::lsa_gap`]).
//! * [`pieces::structure`] — the **inner index structures** that route a key
//!   to a leaf: B+Tree, two-layer RMI, linear recursive structure (PGM) and
//!   the asymmetric tree of ALEX.
//! * [`pieces::insertion`] — the **insertion strategies**: in-place with
//!   reserved headroom, off-site buffer, and gapped arrays.
//! * [`pieces::retrain`] — the **retraining policies** and their counters.
//!
//! On top of the pieces, [`pieces::assembled::PiecewiseIndex`] composes any
//! structure with any leaf kind, demonstrating the paper's claim that the
//! dimensions are orthogonal and can be recombined into brand-new indexes.
//!
//! Shared infrastructure lives in [`types`], [`traits`], [`search`],
//! [`model`] and [`cdf`].

pub mod approx;
pub mod cdf;
pub mod hot;
pub mod model;
pub mod pieces;
pub mod search;
pub mod shard;
pub mod traits;
pub mod tuner;
pub mod types;

/// Re-export of the observability crate so index crates reach it through
/// their existing `li-core` dependency (`li_core::telemetry::Recorder`).
pub use li_telemetry as telemetry;

pub use hot::HotCache;
pub use model::LinearModel;
pub use shard::{AdaptError, BoxShard, ShardIndex, Sharded};
pub use traits::{
    BulkBuildIndex, ConcurrentIndex, DepthStats, Index, NativeWriter, OrderedIndex, TwoPhaseLookup,
    UpdatableIndex,
};
pub use tuner::{Tuner, TunerAction};
pub use types::{Key, KeyValue, Value};
