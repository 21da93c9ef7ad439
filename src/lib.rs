//! # lip — learned-index-pieces
//!
//! Rust reproduction of *"Cutting Learned Index into Pieces: An In-depth
//! Inquiry into Updatable Learned Indexes"* (Ge et al., ICDE 2023).
//!
//! This facade re-exports every crate in the workspace and provides
//! [`IndexKind`] — the lineup of fourteen indexes, each built behind one
//! trait-object handle — plus [`AnyIndex`] / [`AnyConcurrentIndex`], the
//! single-writer and write-concurrent wrappers over that handle, so the
//! end-to-end harness (and your own experiments) can iterate over the
//! whole lineup with one loop:
//!
//! ```
//! use lip::{AnyIndex, IndexKind};
//! use lip::core::traits::Index;
//!
//! let data: Vec<(u64, u64)> = (0..1000).map(|i| (i * 3, i)).collect();
//! for kind in IndexKind::ALL {
//!     let idx = AnyIndex::build(kind, &data);
//!     assert_eq!(idx.get(30), Some(10), "{}", idx.name());
//! }
//! ```
//!
//! Crate map (see DESIGN.md for the full inventory):
//!
//! * [`core`] — traits, approximation algorithms, the §IV pieces framework
//! * [`nvm`] / [`viper`] — simulated persistent memory + the Viper-style
//!   KV store used for the end-to-end evaluation (§III)
//! * [`workloads`] — datasets + YCSB operation streams
//! * [`traditional`] — B+Tree, SkipList, CCEH, ART baselines
//! * [`rmi`], [`rs`], [`fiting`], [`pgm`], [`alex`], [`xindex`] — the six
//!   learned indexes
//! * [`lipp`] — bonus: LIPP, which the paper could not evaluate (§V-B1)
//! * [`apex`] — bonus: APEX-style persistent learned index on the NVM device

pub use li_alex as alex;
pub use li_apex as apex;
pub use li_core as core;
pub use li_fiting as fiting;
pub use li_lipp as lipp;
pub use li_nvm as nvm;
pub use li_pgm as pgm;
pub use li_rmi as rmi;
pub use li_rs as rs;
pub use li_traditional as traditional;
pub use li_viper as viper;
pub use li_workloads as workloads;
pub use li_xindex as xindex;

pub mod any;
pub mod torture;

pub use any::{AnyConcurrentIndex, AnyIndex, ConcurrentKind, ConcurrentVia, IndexKind};
