//! Telemetry-driven shard adaptation policy.
//!
//! The tuner is the *brain* of the self-tuning router and nothing else: a
//! pure decision function from per-shard counter deltas to at most one
//! [`TunerAction`] per epoch. It holds no locks, touches no index and
//! performs no I/O — `Sharded::run_adaptation` samples the always-on
//! per-cell counters (`observe_cells`, the same rows STATS shows),
//! feeds them through [`Tuner::observe`], and executes whatever
//! comes back. Keeping policy separate from mechanism is what
//! makes the hysteresis rules unit-testable without threads.
//!
//! Two structural rules, split before merge, both over a router of at
//! least two cells (a one-cell router is left as built):
//!
//! * **Split** a cell whose epoch ops exceed `SPLIT_SKEW` × the mean (a
//!   migrating hotspot) and that holds at least `MIN_SPLIT_LEN` keys.
//! * **Merge** two adjacent cells that each saw fewer than
//!   `MERGE_FRACTION` × the mean ops, while the combined cell stays within
//!   `MAX_MERGE_LEN` and at least `MIN_CELLS` cells remain: with two, the
//!   hot cell holds at most twice the mean and could never split again.
//!
//! Why hysteresis: traffic is noisy, and a tuner that reacts to every
//! epoch would flap, paying a background rebuild each time. Three rules
//! damp it:
//!
//! 1. **Min-dwell**: a cell must have been observed for
//!    `MIN_DWELL_EPOCHS` epochs before it can be acted on. Every committed
//!    action replaces the cell (new id), so dwell automatically restarts
//!    after each structural change.
//! 2. **Cooldown**: after any action (committed or aborted), the tuner
//!    stays quiet for `COOLDOWN_EPOCHS` epochs.
//! 3. **Evidence floor**: shards below `MIN_EPOCH_OPS` observed ops are
//!    never split, and an epoch below it merges nothing — an idle shard's
//!    traffic is noise, not signal.

use std::collections::HashMap;

use crate::shard::MAX_SHARDS;
use li_telemetry::CellCounters;

/// Epochs a cell must have been observed before it is actionable.
const MIN_DWELL_EPOCHS: u64 = 3;
/// Quiet epochs after any decision (committed or aborted).
const COOLDOWN_EPOCHS: u64 = 2;
/// A shard is only judged when it saw at least this many ops this epoch.
const MIN_EPOCH_OPS: u64 = 256;
/// Split when one shard's epoch ops exceed `SPLIT_SKEW × mean`.
const SPLIT_SKEW: f64 = 2.0;
/// Merge two adjacent shards when *each* saw fewer than
/// `MERGE_FRACTION × mean` ops this epoch.
const MERGE_FRACTION: f64 = 0.10;
/// Never split a shard holding fewer keys than this.
const MIN_SPLIT_LEN: usize = 512;
/// Never merge when the combined shard would exceed this many keys.
const MAX_MERGE_LEN: usize = 1 << 22;
/// Never merge below this many cells.
const MIN_CELLS: usize = 3;

/// A structural change the router should attempt. Cells are named by
/// [`CellCounters::cell`] id, never by table position: a concurrent forced
/// split or merge may shift positions between the decision and its
/// execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunerAction {
    /// Cut `cell` at its median key into two cells.
    Split { cell: u64 },
    /// Combine `left` and its right neighbour `right` into one cell.
    Merge { left: u64, right: u64 },
}

/// Per-cell history the hysteresis rules need.
#[derive(Debug, Clone, Copy)]
struct CellHist {
    born_epoch: u64,
    ops: u64,
}

/// The adaptation policy state machine. One per router, behind a mutex;
/// [`Tuner::observe`] is called once per maintenance epoch.
#[derive(Debug, Default)]
pub struct Tuner {
    epoch: u64,
    /// No decisions until this epoch (cooldown).
    quiet_until: u64,
    seen: HashMap<u64, CellHist>,
}

impl Tuner {
    /// Charges the cooldown without an action having committed — the
    /// router calls this when a cutover aborts (e.g. side-buffer
    /// overflow), so the tuner does not hammer a shard that is too hot
    /// to rebuild right now.
    pub fn penalize(&mut self) {
        self.quiet_until = self.epoch + COOLDOWN_EPOCHS;
    }

    /// Feeds one epoch of cumulative per-cell rows, in boundary order
    /// (adjacent rows are adjacent shards); the tuner keeps last-epoch
    /// baselines and diffs them. A new cell id (every split and merge
    /// makes one) restarts that cell's dwell clock. Returns the action to
    /// attempt this epoch, if any, already hysteresis-filtered.
    pub fn observe(&mut self, obs: &[CellCounters]) -> Option<TunerAction> {
        self.epoch += 1;
        let epoch = self.epoch;

        // Per-cell deltas vs the stored baselines; new cells start their
        // dwell clock now.
        let mut delta: Vec<u64> = Vec::with_capacity(obs.len());
        for o in obs {
            let h = self.seen.entry(o.cell).or_insert(CellHist { born_epoch: epoch, ops: o.ops });
            delta.push(o.ops.saturating_sub(h.ops));
            h.ops = o.ops;
        }
        // Forget cells that left the table (split/merge replaced them).
        let live: std::collections::HashSet<u64> = obs.iter().map(|o| o.cell).collect();
        self.seen.retain(|id, _| live.contains(id));

        // Both rules compare a cell with its peers, so a one-cell router
        // (the native and global-lock routes) is never re-cut.
        if epoch < self.quiet_until || obs.len() < 2 {
            return None;
        }

        let dwell_ok = |o: &CellCounters| {
            self.seen
                .get(&o.cell)
                .is_some_and(|h| epoch.saturating_sub(h.born_epoch) >= MIN_DWELL_EPOCHS)
        };

        let total_ops: u64 = delta.iter().sum();
        #[allow(clippy::cast_precision_loss)] // op counts are far below 2^52
        let mean_ops = total_ops as f64 / obs.len() as f64;

        // Split: one shard absorbs a disproportionate share of the
        // traffic (migrating hotspot) and is large enough to cut.
        #[allow(clippy::cast_precision_loss)]
        let split = (0..obs.len())
            .filter(|&i| {
                delta[i] >= MIN_EPOCH_OPS && obs[i].len >= MIN_SPLIT_LEN && dwell_ok(&obs[i])
            })
            .max_by_key(|&i| delta[i])
            .filter(|&i| obs.len() < MAX_SHARDS && delta[i] as f64 > SPLIT_SKEW * mean_ops)
            .map(|i| TunerAction::Split { cell: obs[i].cell });

        // Merge: two adjacent cold shards waste boundary-table and lock
        // granularity; fold them. Requires both cold and both past their
        // dwell so a freshly-split pair is not re-merged.
        #[allow(clippy::cast_precision_loss)]
        let action = split.or_else(|| {
            if total_ops < MIN_EPOCH_OPS || obs.len() <= MIN_CELLS {
                return None;
            }
            let cold = MERGE_FRACTION * mean_ops;
            obs.windows(2)
                .zip(delta.windows(2))
                .find(|(o, d)| {
                    (d[0] as f64) < cold
                        && (d[1] as f64) < cold
                        && o[0].len + o[1].len <= MAX_MERGE_LEN
                        && dwell_ok(&o[0])
                        && dwell_ok(&o[1])
                })
                .map(|(o, _)| TunerAction::Merge { left: o[0].cell, right: o[1].cell })
        });

        if action.is_some() {
            self.quiet_until = epoch + COOLDOWN_EPOCHS;
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(cell: u64, ops: u64) -> CellCounters {
        row(cell, 10_000, ops)
    }

    fn row(cell: u64, len: usize, ops: u64) -> CellCounters {
        CellCounters { cell, len, ops, ..CellCounters::default() }
    }

    /// Cell 0 takes 3000 of 4000 ops per epoch: above `SPLIT_SKEW` (2.0)
    /// × the mean, while its neighbours stay above the merge threshold.
    const HOT: [u64; 3] = [3_000, 500, 500];

    /// Drives `epochs` identical epochs of cumulative counters (cell ids
    /// from `first_id`) and returns every action emitted.
    fn drive_ids(t: &mut Tuner, first_id: u64, per_epoch: &[u64], epochs: u64) -> Vec<TunerAction> {
        let mut out = Vec::new();
        for e in 1..=epochs {
            let frame: Vec<CellCounters> =
                (first_id..).zip(per_epoch).map(|(id, &ops)| obs(id, ops * e)).collect();
            out.extend(t.observe(&frame));
        }
        out
    }

    fn drive(t: &mut Tuner, per_epoch: &[u64], epochs: u64) -> Vec<TunerAction> {
        drive_ids(t, 0, per_epoch, epochs)
    }

    #[test]
    fn quiet_workload_yields_no_actions() {
        let mut t = Tuner::default();
        let acts = drive(&mut t, &[1_000, 1_000, 1_000], 10);
        assert!(acts.is_empty(), "balanced load must not trigger: {acts:?}");
    }

    #[test]
    fn min_dwell_delays_the_first_action() {
        let mut t = Tuner::default();
        let frame = |e: u64| [obs(0, HOT[0] * e), obs(1, HOT[1] * e), obs(2, HOT[2] * e)];
        for e in 1..=MIN_DWELL_EPOCHS {
            assert_eq!(t.observe(&frame(e)), None, "epoch {e} is inside the dwell window");
        }
        assert_eq!(t.observe(&frame(MIN_DWELL_EPOCHS + 1)), Some(TunerAction::Split { cell: 0 }));
    }

    #[test]
    fn cooldown_spaces_actions_apart() {
        let mut t = Tuner::default();
        let epochs = MIN_DWELL_EPOCHS + 1 + 3 * COOLDOWN_EPOCHS;
        let acts = drive(&mut t, &HOT, epochs);
        // Dwell delays the first action; the cooldown then spaces the
        // rest: one action per `COOLDOWN_EPOCHS` once eligible.
        assert_eq!(acts.len(), 4, "cooldown must space actions: {acts:?}");
        assert!(acts.iter().all(|a| *a == TunerAction::Split { cell: 0 }));
    }

    #[test]
    fn skewed_hot_shard_splits_and_cold_pair_merges() {
        let eligible = MIN_DWELL_EPOCHS + 1;
        let mut t = Tuner::default();
        let acts = drive(&mut t, &[8_000, 100, 80, 6_000], eligible);
        assert_eq!(acts, vec![TunerAction::Split { cell: 0 }], "split wins over merge");

        let mut t = Tuner::default();
        // Equal warm ends (below the split-skew threshold) and a nearly
        // idle adjacent pair.
        let acts = drive(&mut t, &[1_000, 4, 6, 1_000], eligible);
        assert_eq!(acts, vec![TunerAction::Merge { left: 1, right: 2 }]);

        // With two cells the hot one holds at most 2 × the mean, so
        // `SPLIT_SKEW` can never split it.
        let mut t = Tuner::default();
        let acts = drive(&mut t, &[10_000, 0], 2 * eligible);
        assert!(!acts.contains(&TunerAction::Split { cell: 0 }), "{acts:?}");

        // So merges stop at three cells. Four cells whose traffic sits in
        // one that is too small to split: its idle neighbours merge once,
        // and when the hot cell has grown past `MIN_SPLIT_LEN` it splits.
        let mut t = Tuner::default();
        // (id, len, cumulative ops), in boundary order.
        let mut cells =
            vec![(0, MIN_SPLIT_LEN / 2, 0), (1, 10_000, 0), (2, 10_000, 0), (3, 10_000, 0)];
        let mut next_id = 4;
        let mut split = None;
        for epoch in 0..40 {
            if epoch == 20 {
                cells[0].1 = MIN_SPLIT_LEN;
            }
            cells[0].2 += 10_000;
            let frame: Vec<CellCounters> =
                cells.iter().map(|&(cell, len, ops)| row(cell, len, ops)).collect();
            match t.observe(&frame) {
                Some(TunerAction::Merge { left, right }) => {
                    let i = cells.iter().position(|c| c.0 == left).unwrap();
                    let r = cells.remove(i + 1);
                    assert_eq!(r.0, right);
                    cells[i] = (next_id, cells[i].1 + r.1, cells[i].2 + r.2);
                    next_id += 1;
                }
                Some(TunerAction::Split { cell }) => {
                    split = Some((epoch, cell));
                    break;
                }
                None => {}
            }
            assert!(cells.len() >= MIN_CELLS, "epoch {epoch}: merged down to {cells:?}");
        }
        assert_eq!(cells.len(), MIN_CELLS, "the idle pair must still merge");
        assert!(split.is_some_and(|(epoch, cell)| epoch >= 20 && cell == 0), "{split:?}");
    }

    #[test]
    fn one_cell_is_never_acted_on() {
        let mut t = Tuner::default();
        let acts = drive(&mut t, &[100_000], 4 * (MIN_DWELL_EPOCHS + COOLDOWN_EPOCHS));
        assert!(acts.is_empty(), "a one-cell router must keep its layout: {acts:?}");
    }

    #[test]
    fn evidence_floor_ignores_idle_shards() {
        let mut t = Tuner::default();
        // Skewed, but fewer than `MIN_EPOCH_OPS` ops per epoch.
        let acts = drive(&mut t, &[MIN_EPOCH_OPS / 2, 1, 1], 10);
        assert!(acts.is_empty(), "below MIN_EPOCH_OPS nothing fires: {acts:?}");
    }

    #[test]
    fn penalize_recharges_cooldown_after_aborts() {
        let mut t = Tuner::default();
        // Balanced past the dwell window: nothing fires, no cooldown runs.
        let balanced = drive(&mut t, &[1_000, 1_000, 1_000], MIN_DWELL_EPOCHS + 1);
        assert!(balanced.is_empty());
        // The router reports an aborted cutover; a hot epoch inside the
        // recharged cooldown stays quiet, the first one after it acts.
        t.penalize();
        let mut cum = [1_000 * (MIN_DWELL_EPOCHS + 1); 3];
        let mut hot_epoch = || {
            for (c, d) in cum.iter_mut().zip(HOT) {
                *c += d;
            }
            t.observe(&[obs(0, cum[0]), obs(1, cum[1]), obs(2, cum[2])])
        };
        for _ in 1..COOLDOWN_EPOCHS {
            assert_eq!(hot_epoch(), None, "penalized epoch must stay quiet");
        }
        assert_eq!(hot_epoch(), Some(TunerAction::Split { cell: 0 }));
    }

    #[test]
    fn replaced_cells_restart_their_dwell_clock() {
        let mut t = Tuner::default();
        let acts = drive(&mut t, &HOT, MIN_DWELL_EPOCHS + 1);
        assert!(!acts.is_empty());
        // Same positions, new cell ids (as after a committed split): the
        // new cells must dwell before being acted on again, even after
        // the cooldown expires.
        let out = drive_ids(&mut t, 99, &HOT, MIN_DWELL_EPOCHS);
        assert!(out.is_empty(), "fresh cell acted on inside dwell: {out:?}");
    }
}
