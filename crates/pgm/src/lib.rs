//! # li-pgm — PGM-Index (Ferragina & Vinciguerra, VLDB'20; §II-B2)
//!
//! Assembled from `li_core::pieces` like FITing-tree, ALEX and XIndex:
//! Opt-PLA × the linear recursive structure (LRS) × LSM-style off-site
//! insertion.
//!
//! * [`StaticPgm`] — the static index: the LRS piece
//!   (`li_core::pieces::structure::LrsInner`: Opt-PLA segments over the
//!   keys, then Opt-PLA applied recursively to the segments' first keys
//!   until a single root segment remains) beside one payload column. The
//!   router owns the key column, so every key is stored once. Every level
//!   guarantees a maximum error, so lookups are `O(log)` bounded binary
//!   searches with tight tail latency.
//! * [`DynamicPgm`] — updatable PGM via the logarithmic method
//!   (LSM-style, §II-B2): a sorted insert buffer of at most 128 entries
//!   absorbs inserts and tombstones, newest of all; under it levels
//!   `S_0..S_b` of doubling capacity, each a `StaticPgm` beside a tombstone
//!   bitmap and its cached first/last key (a lookup skips every level whose
//!   key range excludes the key). A full buffer is merged into the first
//!   level that can absorb it plus every smaller level, and that one level
//!   is rebuilt: one retrain per 128 inserts, amortised `O(log n)` keys
//!   per insert — the retraining profile Fig. 18 (b) measures. 16 B per
//!   stored pair plus one bit.

#![forbid(unsafe_code)]

pub mod dynamic;
pub mod statik;

pub use dynamic::DynamicPgm;
pub use statik::{PgmConfig, StaticPgm};
