//! The paper's four design dimensions as composable pieces (§IV).
//!
//! > "Note that, in theory, the four dimensions of the existing learned
//! > indexes are orthogonal, i.e., they can be combined to form brand new
//! > indexes." — §IV
//!
//! * [`structure`] — inner structures routing a key to a leaf: `BTREE`,
//!   `RMI`, `LRS`, `ATS` (Fig. 17 (c)).
//! * [`insertion`] — leaf containers implementing the `Inplace`, `Buffer`
//!   and `Gapped` insertion strategies (Fig. 18 (a)).
//! * [`retrain`] — retraining policies (Fig. 18 (b)–(d)); the retrains
//!   themselves are counted, timed and sized by the index's recorder.
//! * [`assembled`] — [`assembled::PiecewiseIndex`], a full updatable
//!   learned index assembled from any combination of the above.

pub mod assembled;
pub mod insertion;
pub mod retrain;
pub mod structure;

pub use assembled::{PiecewiseConfig, PiecewiseIndex};
pub use insertion::{InsertOutcome, LeafKind};
pub use structure::{AtsInner, BTreeInner, InnerStructure, LrsInner, RmiInner, StructureKind};
