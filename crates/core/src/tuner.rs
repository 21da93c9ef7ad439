//! Telemetry-driven shard adaptation policy.
//!
//! The tuner is the *brain* of the self-tuning router and nothing else: a
//! pure decision function from per-shard counter deltas to at most a few
//! [`TunerAction`]s per epoch. It holds no locks, touches no index and
//! performs no I/O — `Sharded::run_adaptation` samples the always-on
//! per-cell counters, feeds them through [`Tuner::observe`], and executes
//! whatever comes back. Keeping policy separate from mechanism is what
//! makes the hysteresis rules unit-testable without threads.
//!
//! Two structural rules, split before merge:
//!
//! * **Split** a cell whose epoch ops exceed [`TunerConfig::split_skew`]
//!   × the mean (a migrating hotspot) and that holds at least
//!   [`TunerConfig::min_split_len`] keys.
//! * **Merge** two adjacent cells that each saw fewer than
//!   [`TunerConfig::merge_fraction`] × the mean ops, while the combined
//!   cell stays within [`TunerConfig::max_merge_len`].
//!
//! Why hysteresis: traffic is noisy, and a tuner that reacts to every
//! epoch would flap, paying a background rebuild each time. Three rules
//! damp it:
//!
//! 1. **Min-dwell**: a cell must have been observed for
//!    [`TunerConfig::min_dwell_epochs`] epochs before it can be acted on.
//!    Every committed action replaces the cell (new id), so dwell
//!    automatically restarts after each structural change.
//! 2. **Cooldown**: after any action (committed or aborted), the tuner
//!    stays quiet for [`TunerConfig::cooldown_epochs`] epochs.
//! 3. **Evidence floor**: shards below [`TunerConfig::min_epoch_ops`]
//!    observed ops are never split, and an epoch below it merges
//!    nothing — an idle shard's traffic is noise, not signal.

use std::collections::HashMap;

/// Thresholds and hysteresis knobs for the adaptation policy.
#[derive(Debug, Clone)]
pub struct TunerConfig {
    /// Epochs a cell must have been observed before it is actionable.
    pub min_dwell_epochs: u64,
    /// Quiet epochs after any decision (committed or aborted).
    pub cooldown_epochs: u64,
    /// Hard cap on decisions returned per epoch.
    pub max_actions_per_epoch: usize,
    /// A shard is only judged when it saw at least this many ops this epoch.
    pub min_epoch_ops: u64,
    /// Split when one shard's epoch ops exceed `split_skew × mean` (and the
    /// router can still grow).
    pub split_skew: f64,
    /// Merge two adjacent shards when *each* saw fewer than
    /// `merge_fraction × mean` ops this epoch.
    pub merge_fraction: f64,
    /// Never split a shard holding fewer keys than this.
    pub min_split_len: usize,
    /// Never merge when the combined shard would exceed this many keys.
    pub max_merge_len: usize,
    /// Router shard-count bounds the tuner respects.
    pub max_shards: usize,
    pub min_shards: usize,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            min_dwell_epochs: 3,
            cooldown_epochs: 2,
            max_actions_per_epoch: 1,
            min_epoch_ops: 256,
            split_skew: 2.0,
            merge_fraction: 0.10,
            min_split_len: 512,
            max_merge_len: 1 << 22,
            max_shards: 4096,
            min_shards: 1,
        }
    }
}

/// One epoch's view of one shard cell: a cumulative counter sampled from
/// the router (the tuner keeps last-epoch baselines and diffs them).
#[derive(Debug, Clone, Copy)]
pub struct ShardObs {
    /// Stable cell identity — survives epochs, changes on every
    /// split/merge (which is what restarts the dwell clock).
    pub cell: u64,
    /// Live keys in the shard.
    pub len: usize,
    /// Cumulative ops (reads, writes, scan visits) routed to this cell.
    pub ops: u64,
}

/// A structural change the router should attempt. Cells are named by
/// [`ShardObs::cell`] id, never by table position: the actions of one
/// epoch execute one after another, and a committed split or merge
/// shifts every later position.
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
#[derive(Debug)]
pub struct Tuner {
    cfg: TunerConfig,
    epoch: u64,
    /// No decisions until this epoch (cooldown).
    quiet_until: u64,
    seen: HashMap<u64, CellHist>,
}

impl Tuner {
    pub fn new(cfg: TunerConfig) -> Self {
        Tuner { cfg, epoch: 0, quiet_until: 0, seen: HashMap::new() }
    }

    pub fn config(&self) -> &TunerConfig {
        &self.cfg
    }

    /// Epochs observed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Charges the cooldown without an action having committed — the
    /// router calls this when a cutover aborts (e.g. side-buffer
    /// overflow), so the tuner does not hammer a shard that is too hot
    /// to rebuild right now.
    pub fn penalize(&mut self) {
        self.quiet_until = self.epoch + self.cfg.cooldown_epochs;
    }

    /// Feeds one epoch of per-cell counters, in boundary order (adjacent
    /// entries are adjacent shards); returns the actions to attempt this
    /// epoch (possibly none), already hysteresis-filtered.
    pub fn observe(&mut self, obs: &[ShardObs]) -> Vec<TunerAction> {
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

        if epoch < self.quiet_until || obs.is_empty() {
            return Vec::new();
        }

        let dwell_ok = |o: &ShardObs| {
            self.seen
                .get(&o.cell)
                .is_some_and(|h| epoch.saturating_sub(h.born_epoch) >= self.cfg.min_dwell_epochs)
        };

        let total_ops: u64 = delta.iter().sum();
        #[allow(clippy::cast_precision_loss)] // op counts are far below 2^52
        let mean_ops = total_ops as f64 / obs.len() as f64;

        let mut actions: Vec<TunerAction> = Vec::new();
        let push = |a: TunerAction, actions: &mut Vec<TunerAction>| {
            if actions.len() < self.cfg.max_actions_per_epoch {
                actions.push(a);
            }
        };

        // Split: one shard absorbs a disproportionate share of the
        // traffic (migrating hotspot) and is large enough to cut.
        if obs.len() < self.cfg.max_shards {
            if let Some(i) = (0..obs.len())
                .filter(|&i| {
                    let o = &obs[i];
                    delta[i] >= self.cfg.min_epoch_ops
                        && o.len >= self.cfg.min_split_len
                        && dwell_ok(o)
                })
                .max_by_key(|&i| delta[i])
            {
                #[allow(clippy::cast_precision_loss)]
                let ops = delta[i] as f64;
                if obs.len() > 1 && ops > self.cfg.split_skew * mean_ops {
                    push(TunerAction::Split { cell: obs[i].cell }, &mut actions);
                }
            }
        }

        // Merge: two adjacent cold shards waste boundary-table and lock
        // granularity; fold them. Requires both cold and both past their
        // dwell so a freshly-split pair is not re-merged.
        if obs.len() > self.cfg.min_shards && obs.len() >= 2 && total_ops >= self.cfg.min_epoch_ops
        {
            let cold = self.cfg.merge_fraction * mean_ops;
            for (i, pair) in obs.windows(2).enumerate() {
                let (l, r) = (&pair[0], &pair[1]);
                #[allow(clippy::cast_precision_loss)]
                let (lops, rops) = (delta[i] as f64, delta[i + 1] as f64);
                if lops < cold
                    && rops < cold
                    && l.len + r.len <= self.cfg.max_merge_len
                    && dwell_ok(l)
                    && dwell_ok(r)
                {
                    push(TunerAction::Merge { left: l.cell, right: r.cell }, &mut actions);
                    break;
                }
            }
        }

        if !actions.is_empty() {
            self.quiet_until = epoch + self.cfg.cooldown_epochs;
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(cell: u64, ops: u64) -> ShardObs {
        ShardObs { cell, len: 10_000, ops }
    }

    fn cfg() -> TunerConfig {
        TunerConfig {
            min_dwell_epochs: 2,
            cooldown_epochs: 2,
            min_epoch_ops: 100,
            min_split_len: 100,
            ..TunerConfig::default()
        }
    }

    /// Cell 0 takes 3000 of 4000 ops per epoch: above `split_skew` (2.0)
    /// × the mean, while its neighbours stay above the merge threshold.
    const HOT: [u64; 3] = [3_000, 500, 500];

    /// Drives `epochs` identical epochs of cumulative counters (cell ids
    /// from `first_id`) and returns every action emitted.
    fn drive_ids(t: &mut Tuner, first_id: u64, per_epoch: &[u64], epochs: u64) -> Vec<TunerAction> {
        let mut out = Vec::new();
        for e in 1..=epochs {
            let frame: Vec<ShardObs> =
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
        let mut t = Tuner::new(cfg());
        let acts = drive(&mut t, &[1_000, 1_000, 1_000], 10);
        assert!(acts.is_empty(), "balanced load must not trigger: {acts:?}");
    }

    #[test]
    fn min_dwell_delays_the_first_action() {
        let mut t = Tuner::new(cfg());
        let frame = |e: u64| [obs(0, HOT[0] * e), obs(1, HOT[1] * e), obs(2, HOT[2] * e)];
        assert!(t.observe(&frame(1)).is_empty(), "epoch 1 is inside the dwell window");
        assert!(t.observe(&frame(2)).is_empty(), "epoch 2 is still inside the dwell window");
        assert_eq!(t.observe(&frame(3)), vec![TunerAction::Split { cell: 0 }]);
    }

    #[test]
    fn cooldown_spaces_actions_apart() {
        let mut t = Tuner::new(cfg());
        let acts = drive(&mut t, &HOT, 8);
        // Dwell delays the first action; cooldown (2) then spaces the rest:
        // at most one action per 2 epochs once eligible.
        assert!(!acts.is_empty());
        assert!(acts.len() <= 3, "cooldown must space actions: {acts:?}");
        assert!(acts.iter().all(|a| *a == TunerAction::Split { cell: 0 }));
    }

    #[test]
    fn skewed_hot_shard_splits_and_cold_pair_merges() {
        let mut t = Tuner::new(cfg());
        let acts = drive(&mut t, &[8_000, 100, 80, 6_000], 3);
        assert_eq!(acts.first(), Some(&TunerAction::Split { cell: 0 }));

        let mut t = Tuner::new(cfg());
        // Equal warm ends (below the split-skew threshold) and a nearly
        // idle adjacent pair.
        let acts = drive(&mut t, &[1_000, 4, 6, 1_000], 3);
        assert_eq!(acts.first(), Some(&TunerAction::Merge { left: 1, right: 2 }));

        // With two cells the hot one holds at most 2 × the mean, so the
        // default skew can never split it.
        let mut t = Tuner::new(cfg());
        let acts = drive(&mut t, &[10_000, 0], 6);
        assert!(!acts.contains(&TunerAction::Split { cell: 0 }), "{acts:?}");
    }

    #[test]
    fn evidence_floor_ignores_idle_shards() {
        let mut t = Tuner::new(cfg());
        // Skewed, but only a handful of ops per epoch.
        let acts = drive(&mut t, &[21, 1, 1], 10);
        assert!(acts.is_empty(), "below min_epoch_ops nothing fires: {acts:?}");
    }

    #[test]
    fn penalize_recharges_cooldown_after_aborts() {
        let mut t = Tuner::new(cfg());
        let first = drive(&mut t, &HOT, 3);
        assert!(!first.is_empty());
        // The router reports the cutover aborted; the next epochs stay
        // quiet for a full cooldown again.
        t.penalize();
        let a = t.observe(&[obs(0, 12_000), obs(1, 2_000), obs(2, 2_000)]);
        assert!(a.is_empty(), "penalized epoch must stay quiet");
    }

    #[test]
    fn replaced_cells_restart_their_dwell_clock() {
        let mut t = Tuner::new(cfg());
        let acts = drive(&mut t, &HOT, 3);
        assert!(!acts.is_empty());
        // Same positions, new cell ids (as after a committed split): the
        // new cells must dwell before being acted on again, even after
        // the cooldown expires.
        let out = drive_ids(&mut t, 99, &HOT, 2);
        assert!(out.is_empty(), "fresh cell acted on inside dwell: {out:?}");
    }
}
