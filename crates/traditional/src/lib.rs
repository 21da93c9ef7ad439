//! # li-traditional — classical index baselines
//!
//! The paper compares learned indexes against six traditional indexes
//! (§III-A1). We implement all six structural families from scratch; where
//! the original does not fit 8-byte keys the closest family member stands
//! in (see DESIGN.md):
//!
//! | Paper baseline | Family | Here |
//! |---|---|---|
//! | STX B-Tree | comparison tree | [`BPlusTree`] |
//! | Skiplist (LevelDB) | probabilistic list | [`SkipList`] |
//! | CCEH | persistent extendible hash | [`Cceh`] |
//! | Wormhole | hash-accelerated ordered index | [`Wormhole`] |
//! | Bw-tree | delta-chain B-tree | [`BwTree`] |
//! | Masstree | trie of B+trees | [`Art`] (for fixed 8-byte keys a Masstree
//!   degenerates to one trie layer; ART is the closest faithful structure) |
//!
//! For the multi-threaded experiments every single-writer index here is
//! lifted to a [`li_core::ConcurrentIndex`] by range sharding
//! (`li_core::shard::Sharded`).

#![forbid(unsafe_code)]

pub mod art;
pub mod bptree;
pub mod bwtree;
pub mod cceh;
pub mod skiplist;
pub mod wormhole;

pub use art::Art;
pub use bptree::BPlusTree;
pub use bwtree::BwTree;
pub use cceh::Cceh;
pub use skiplist::SkipList;
pub use wormhole::Wormhole;
