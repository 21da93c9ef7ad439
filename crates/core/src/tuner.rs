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
//! Why hysteresis: "Are Updatable Learned Indexes Ready?" (PAPERS.md)
//! shows the best index kind is regime-dependent — but regimes are noisy,
//! and a tuner that reacts to every epoch's mix would flap between kinds,
//! paying a background rebuild each time. Three rules prevent that:
//!
//! 1. **Min-dwell**: a cell must have been observed for
//!    [`TunerConfig::min_dwell_epochs`] epochs before it can be acted on.
//!    Every committed action replaces the cell (new id), so dwell
//!    automatically restarts after each structural change.
//! 2. **Cooldown**: after any action (committed or aborted), the tuner
//!    stays quiet for [`TunerConfig::cooldown_epochs`] epochs.
//! 3. **Evidence floors**: shards below [`TunerConfig::min_epoch_ops`]
//!    observed ops (or [`TunerConfig::min_swap_ops`] for kind swaps) are
//!    never judged — an idle shard's mix is noise, not signal.

use std::collections::HashMap;

/// Index into the router's registered kind table (`KindSpec` list).
pub type KindId = u16;

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
    /// Write fraction (writes / ops) at or above which a shard wants the
    /// write-optimized kind.
    pub write_heavy_frac: f64,
    /// Write fraction at or below which a shard wants the read-optimized
    /// kind.
    pub read_mostly_frac: f64,
    /// Kind to swap to under a write-heavy mix (`None` disables the rule).
    pub write_heavy_kind: Option<KindId>,
    /// Kind to swap to under a read-mostly mix (`None` disables the rule).
    pub read_mostly_kind: Option<KindId>,
    /// Evidence floor for kind swaps (they cost a full shard rebuild).
    pub min_swap_ops: u64,
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
            write_heavy_frac: 0.70,
            read_mostly_frac: 0.30,
            write_heavy_kind: None,
            read_mostly_kind: None,
            min_swap_ops: 512,
        }
    }
}

/// One epoch's view of one shard cell: cumulative counters sampled from
/// the router (the tuner keeps last-epoch baselines and diffs them).
#[derive(Debug, Clone, Copy)]
pub struct ShardObs {
    /// Stable cell identity — survives epochs, changes on every
    /// split/merge/swap (which is what restarts the dwell clock).
    pub cell: u64,
    pub kind: KindId,
    /// Live keys in the shard.
    pub len: usize,
    /// Cumulative reads routed to this cell.
    pub reads: u64,
    /// Cumulative writes routed to this cell.
    pub writes: u64,
    /// Cumulative nanoseconds writers spent blocked on this cell's lock.
    pub lock_wait_ns: u64,
    /// Retrain work currently parked on the shard's index.
    pub pending_retrains: usize,
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
    /// Rebuild `cell` under registered kind `to`.
    Swap { cell: u64, to: KindId },
}

/// Per-cell history the hysteresis rules need.
#[derive(Debug, Clone, Copy)]
struct CellHist {
    born_epoch: u64,
    reads: u64,
    writes: u64,
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
        let mut delta: Vec<(usize, u64, u64)> = Vec::with_capacity(obs.len());
        for (i, o) in obs.iter().enumerate() {
            let h = self.seen.entry(o.cell).or_insert(CellHist {
                born_epoch: epoch,
                reads: o.reads,
                writes: o.writes,
            });
            let dr = o.reads.saturating_sub(h.reads);
            let dw = o.writes.saturating_sub(h.writes);
            h.reads = o.reads;
            h.writes = o.writes;
            delta.push((i, dr, dw));
        }
        // Forget cells that left the table (split/merge/swap replaced them).
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

        let total_ops: u64 = delta.iter().map(|&(_, r, w)| r + w).sum();
        #[allow(clippy::cast_precision_loss)] // op counts are far below 2^52
        let mean_ops = total_ops as f64 / obs.len() as f64;

        let mut actions: Vec<TunerAction> = Vec::new();
        let push = |a: TunerAction, actions: &mut Vec<TunerAction>| {
            if actions.len() < self.cfg.max_actions_per_epoch {
                actions.push(a);
            }
        };

        // Rule 1 — kind swap: the mix says this shard is running the wrong
        // index. Checked first because a mismatched kind hurts every op,
        // while skew only hurts the tail.
        for (i, dr, dw) in delta.iter().copied() {
            let o = &obs[i];
            let ops = dr + dw;
            if ops < self.cfg.min_swap_ops || !dwell_ok(o) {
                continue;
            }
            #[allow(clippy::cast_precision_loss)]
            let write_frac = dw as f64 / ops as f64;
            let want = if write_frac >= self.cfg.write_heavy_frac {
                self.cfg.write_heavy_kind
            } else if write_frac <= self.cfg.read_mostly_frac {
                self.cfg.read_mostly_kind
            } else {
                None
            };
            if let Some(to) = want {
                if to != o.kind {
                    push(TunerAction::Swap { cell: o.cell, to }, &mut actions);
                }
            }
        }

        // Rule 2 — split: one shard absorbs a disproportionate share of
        // the traffic (migrating hotspot) and is large enough to cut.
        if obs.len() < self.cfg.max_shards {
            if let Some((i, _, _)) = delta
                .iter()
                .copied()
                .filter(|&(i, r, w)| {
                    let o = &obs[i];
                    r + w >= self.cfg.min_epoch_ops
                        && o.len >= self.cfg.min_split_len
                        && dwell_ok(o)
                })
                .max_by_key(|&(_, r, w)| r + w)
            {
                let (_, dr, dw) = delta[i];
                #[allow(clippy::cast_precision_loss)]
                let ops = (dr + dw) as f64;
                if obs.len() > 1 && ops > self.cfg.split_skew * mean_ops {
                    push(TunerAction::Split { cell: obs[i].cell }, &mut actions);
                }
            }
        }

        // Rule 3 — merge: two adjacent cold shards waste boundary-table
        // and lock granularity; fold them. Requires both cold and both
        // past their dwell so a freshly-split pair is not re-merged.
        if obs.len() > self.cfg.min_shards && obs.len() >= 2 && total_ops >= self.cfg.min_epoch_ops
        {
            let cold = self.cfg.merge_fraction * mean_ops;
            for w in delta.windows(2) {
                let (i, lr, lw) = w[0];
                let (j, rr, rw) = w[1];
                let (l, r) = (&obs[i], &obs[j]);
                #[allow(clippy::cast_precision_loss)]
                let (lops, rops) = ((lr + lw) as f64, (rr + rw) as f64);
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

    fn obs(cell: u64, reads: u64, writes: u64) -> ShardObs {
        ShardObs { cell, kind: 0, len: 10_000, reads, writes, lock_wait_ns: 0, pending_retrains: 0 }
    }

    fn cfg() -> TunerConfig {
        TunerConfig {
            min_dwell_epochs: 2,
            cooldown_epochs: 2,
            min_epoch_ops: 100,
            min_swap_ops: 100,
            write_heavy_kind: Some(1),
            read_mostly_kind: Some(2),
            min_split_len: 100,
            ..TunerConfig::default()
        }
    }

    /// Drives `epochs` identical epochs of cumulative counters and
    /// returns every action emitted.
    fn drive(t: &mut Tuner, per_epoch: &[(u64, u64)], epochs: u64) -> Vec<TunerAction> {
        let mut out = Vec::new();
        for e in 1..=epochs {
            let frame: Vec<ShardObs> = per_epoch
                .iter()
                .enumerate()
                .map(|(p, &(r, w))| obs(p as u64, r * e, w * e))
                .collect();
            out.extend(t.observe(&frame));
        }
        out
    }

    #[test]
    fn quiet_workload_yields_no_actions() {
        let mut t = Tuner::new(cfg());
        let acts = drive(&mut t, &[(500, 500), (500, 500), (500, 500)], 10);
        assert!(acts.is_empty(), "balanced mixed load must not trigger: {acts:?}");
    }

    #[test]
    fn min_dwell_delays_the_first_action() {
        let mut t = Tuner::new(cfg());
        // Write-heavy shard 0 from the start; dwell is 2 epochs.
        let a1 = t.observe(&[obs(0, 10, 990)]);
        assert!(a1.is_empty(), "epoch 1 is inside the dwell window");
        let a2 = t.observe(&[obs(0, 20, 1980)]);
        assert!(a2.is_empty(), "epoch 2 is the first eligible epoch only if dwell elapsed");
        let a3 = t.observe(&[obs(0, 30, 2970)]);
        assert_eq!(a3, vec![TunerAction::Swap { cell: 0, to: 1 }]);
    }

    #[test]
    fn cooldown_spaces_actions_apart() {
        let mut t = Tuner::new(cfg());
        let acts = drive(&mut t, &[(10, 990)], 8);
        // Dwell delays the first action; cooldown (2) then spaces the rest:
        // at most one action per 2 epochs once eligible.
        assert!(!acts.is_empty());
        assert!(acts.len() <= 3, "cooldown must space actions: {acts:?}");
        assert!(acts.iter().all(|a| *a == TunerAction::Swap { cell: 0, to: 1 }));
    }

    #[test]
    fn swap_targets_follow_the_mix() {
        let mut t = Tuner::new(cfg());
        let acts = drive(&mut t, &[(990, 10)], 4);
        assert_eq!(acts.first(), Some(&TunerAction::Swap { cell: 0, to: 2 }));
        // A shard already on the right kind is left alone.
        let mut t = Tuner::new(cfg());
        let mut frame = obs(7, 0, 0);
        frame.kind = 2;
        for e in 1..=6 {
            frame.reads = 990 * e;
            frame.writes = 10 * e;
            assert!(t.observe(&[frame]).is_empty(), "epoch {e}: no self-swap");
        }
    }

    #[test]
    fn skewed_hot_shard_splits_and_cold_pair_merges() {
        let mut t = Tuner::new(cfg());
        let acts = drive(&mut t, &[(4000, 4000), (50, 50), (40, 40), (3000, 3000)], 3);
        assert_eq!(acts.first(), Some(&TunerAction::Split { cell: 0 }));

        let mut t = Tuner::new(cfg());
        // Balanced-mix shards (no swap rule) with equal warm ends (below
        // the split-skew threshold) and a nearly idle adjacent pair.
        let acts = drive(&mut t, &[(500, 500), (2, 2), (3, 3), (500, 500)], 3);
        assert_eq!(acts.first(), Some(&TunerAction::Merge { left: 1, right: 2 }));
    }

    #[test]
    fn evidence_floor_ignores_idle_shards() {
        let mut t = Tuner::new(cfg());
        // Write-heavy mix but only a handful of ops per epoch.
        let acts = drive(&mut t, &[(1, 20)], 10);
        assert!(acts.is_empty(), "below min_swap_ops nothing fires: {acts:?}");
    }

    #[test]
    fn penalize_recharges_cooldown_after_aborts() {
        let mut t = Tuner::new(cfg());
        let first = drive(&mut t, &[(10, 990)], 3);
        assert!(!first.is_empty());
        // The router reports the cutover aborted; the next epochs stay
        // quiet for a full cooldown again.
        t.penalize();
        let a = t.observe(&[obs(0, 40, 3960)]);
        assert!(a.is_empty(), "penalized epoch must stay quiet");
    }

    #[test]
    fn replaced_cells_restart_their_dwell_clock() {
        let mut t = Tuner::new(cfg());
        let acts = drive(&mut t, &[(10, 990)], 3);
        assert!(!acts.is_empty());
        // Same position, new cell id (as after a committed swap): the new
        // cell must dwell before being acted on again, even after the
        // cooldown expires.
        let mut out = Vec::new();
        for e in 1..=2u64 {
            out.extend(t.observe(&[obs(99, 10 * e, 990 * e)]));
        }
        assert!(out.is_empty(), "fresh cell acted on inside dwell: {out:?}");
    }
}
