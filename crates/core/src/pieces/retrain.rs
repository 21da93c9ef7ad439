//! Retraining policies (§IV-E/F, Fig. 18 (b)–(d)).
//!
//! A *retraining* is any model rebuild triggered by inserts: FITing-tree
//! and XIndex re-segment one leaf when its buffer fills; PGM-Index merges
//! LSM levels; ALEX expands or splits a gapped node. The paper compares
//! these strategies by retrain **count**, **average time** and **total
//! time**; every index reports each retrain to its recorder through
//! `Recorder::retrained`, which keeps exactly those numbers.

/// Retraining policy selector for the assembled index (what to do when a
/// leaf reports `NeedsRetrain`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetrainPolicy {
    /// Re-run the approximation algorithm on the overflowing leaf's keys,
    /// possibly splitting it into several leaves (FITing-tree / XIndex).
    ResegmentLeaf,
    /// Expand the leaf in place when its model still predicts well,
    /// split otherwise (ALEX). `expand_factor` scales capacity on expand;
    /// a leaf splits when its mean prediction error exceeds
    /// `split_error_threshold`.
    ExpandOrSplit { expand_factor: f64, split_error_threshold: f64 },
}

impl RetrainPolicy {
    pub fn name(&self) -> &'static str {
        match self {
            RetrainPolicy::ResegmentLeaf => "retrain-one-node",
            RetrainPolicy::ExpandOrSplit { .. } => "expand-or-split",
        }
    }
}
