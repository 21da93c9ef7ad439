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
//!   (LSM-style, §II-B2): levels `S_0..S_b` of doubling capacity, each a
//!   `StaticPgm<Option<Value>>` (`None` = tombstone); an insert rebuilds
//!   the first level that can absorb the merged prefix. Amortised
//!   `O(log n)` per insert, exactly the retraining profile Fig. 18 (b)
//!   measures (many cheap retrains).

#![forbid(unsafe_code)]

pub mod dynamic;
pub mod statik;

pub use dynamic::DynamicPgm;
pub use statik::{PgmConfig, StaticPgm};
