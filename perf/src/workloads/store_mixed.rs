//! `store_mixed`: the served store driven in-process by one thread with a
//! Zipfian 50 % get / 40 % update / 10 % insert mix, then scanned,
//! restarted and re-read.
//!
//! Here `li-nvm`, the record heap, the WAL and the checkpoints do the
//! work and the index does little. The WAL ring is small, so that many
//! checkpoint cycles fall inside the window and their cost shows in
//! `ops_per_s`. The index is used differently than in `store_read`
//! (inserts and deferred retrains beside reads, behind the shard router),
//! so a read-path gain that taxes writes shows here.

use std::time::Instant;

use li_core::traits::Index;
use li_workloads::ZipfGen;

use crate::inputs::{check_value, fill_value, KeySet, Oracle, Rng};
use crate::stack::{loaded_value, ServedStack};
use crate::trace::{Tracer, ROOT};
use crate::workload::{Checked, Ctx, Round, Throughput, Window, Workload};

/// Every second key is withheld as the insert pool: a tenth of the
/// operations insert, so the pool outlasts any window the loaded half can
/// sustain.
const POOL_PERIOD: usize = 2;
/// WAL ring of the store: small, so that checkpoints fall due often.
const WAL_RECORDS: u64 = 32_768;
/// An operation this slow was stalled, in practice behind a checkpoint.
const STALL_NS: u64 = 1_000_000;
/// A window this long, at full size, must hold [`MIN_CHECKPOINTS`] cycles.
const FULL_WINDOW_SECS: f64 = 20.0;
const MIN_CHECKPOINTS: u64 = 8;
const SCANS: usize = 50;
const SCAN_LIMIT: usize = 100;

#[derive(Clone, Copy)]
enum Op {
    Get(usize),
    Update(usize),
    Insert(usize),
}

pub struct StoreMixed {
    ctx: Ctx,
    keys: usize,
    /// Operations per round.
    rep: usize,
    wal_records: u64,
    set: Option<KeySet>,
    stack: Option<ServedStack>,
    oracle: Option<Oracle>,
    zipf: Option<ZipfGen>,
    rng: Rng,
    next_insert: usize,
    /// Seen by the last timed window.
    pub checkpoints: u64,
    pub stall_share: f64,
    /// Seen by `verify`.
    pub scan_p50_us: f64,
    pub recover_s: f64,
    pub replayed: usize,
    user_bytes: u64,
}

impl StoreMixed {
    pub fn new(ctx: Ctx) -> Self {
        StoreMixed {
            ctx,
            keys: ctx.size(800_000, 20_000),
            rep: ctx.size(20_000, 4_000),
            wal_records: if ctx.smoke { 2_048 } else { WAL_RECORDS },
            set: None,
            stack: None,
            oracle: None,
            zipf: None,
            rng: Rng::new(ctx.seed ^ 0x313d),
            next_insert: 0,
            checkpoints: 0,
            stall_share: 0.0,
            scan_p50_us: 0.0,
            recover_s: 0.0,
            replayed: 0,
            user_bytes: 0,
        }
    }

    fn next_ops(&mut self, n: usize) -> Vec<Op> {
        let set = self.set.as_ref().expect("set up");
        let zipf = self.zipf.as_mut().expect("set up");
        (0..n)
            .map(|_| {
                let r = self.rng.below(10);
                if r == 9 && self.next_insert < set.pool_len() {
                    self.next_insert += 1;
                    Op::Insert(set.pool_slot(self.next_insert - 1))
                } else {
                    let slot = set.loaded_slot(zipf.next_scrambled());
                    if r < 5 {
                        Op::Get(slot)
                    } else {
                        Op::Update(slot)
                    }
                }
            })
            .collect()
    }

    /// Runs `ops`, timing and checking each.
    fn run_ops(&mut self, ops: &[Op], round: &mut Round, check: &mut Checked, tracer: &mut Tracer) {
        let set = self.set.as_ref().expect("set up");
        let store = &self.stack.as_ref().expect("set up").store;
        let oracle = self.oracle.as_mut().expect("set up");
        let mut buf = vec![0u8; store.heap().layout().value_size];
        let rep_span = tracer.open("rep.mixed", ROOT, 0);
        for &op in ops {
            let ns = match op {
                Op::Get(slot) => {
                    let key = set.all[slot];
                    let t = Instant::now();
                    let found = store.get(key, &mut buf);
                    let ns = t.elapsed().as_nanos() as u64;
                    round.get.push(ns);
                    tracer.leaf("ViperStore::get", rep_span, 0, t, ns);
                    let got = if found { check_value(&buf, key).map(|(_, v)| v) } else { None };
                    check.note(found && got == oracle.expect(slot));
                    ns
                }
                Op::Update(slot) | Op::Insert(slot) => {
                    let key = set.all[slot];
                    let version = oracle.next_version(slot);
                    fill_value(&mut buf, key, 0, version);
                    let t = Instant::now();
                    let r = store.put(key, &buf);
                    let ns = t.elapsed().as_nanos() as u64;
                    round.put.push(ns);
                    tracer.leaf("ViperStore::put", rep_span, 0, t, ns);
                    if r.is_ok() {
                        oracle.ack(slot, version);
                        self.user_bytes += buf.len() as u64;
                    }
                    check.note(r.is_ok());
                    ns
                }
            };
            round.secs += ns as f64 / 1e9;
            if ns > STALL_NS {
                round.stall_secs += ns as f64 / 1e9;
            }
        }
        tracer.close(rep_span);
        round.ops += ops.len() as u64;
    }
}

impl Workload for StoreMixed {
    fn setup(&mut self) {
        let set = KeySet::generate(self.keys, POOL_PERIOD, self.ctx.seed);
        let stack = ServedStack::build(&set, self.wal_records, loaded_value);
        self.user_bytes = 0;
        self.zipf = Some(ZipfGen::new(set.loaded_len(), self.ctx.seed ^ 0x21bf));
        self.oracle = Some(Oracle::new(&set));
        self.set = Some(set);
        self.stack = Some(stack);
        self.next_insert = 0;
    }

    fn index_bytes_per_key(&self) -> f64 {
        let index = self.stack.as_ref().expect("set up").store.index();
        (index.index_size_bytes() + index.data_size_bytes()) as f64
            / self.set.as_ref().expect("set up").loaded_len() as f64
    }

    fn warm_up(&mut self) {
        let ops = self.next_ops(self.rep / 2);
        let mut off = Tracer::new(false, Instant::now());
        self.run_ops(&ops, &mut Round::default(), &mut Checked::default(), &mut off);
    }

    fn measure(&mut self, secs: f64, tracer: &mut Tracer) -> Window {
        let mut window = Window::default();
        let generation = |s: &Self| s.stack.as_ref().expect("set up").store.checkpoint_generation();
        let before = generation(self);
        let device_bytes = |s: &Self| {
            s.stack.as_ref().expect("set up").store.heap().device().stats_snapshot().bytes_written
        };
        let (bytes_before, user_before) = (device_bytes(self), self.user_bytes);
        let (mut timed, mut stalled) = (0.0, 0.0);
        while timed < secs {
            let ops = self.next_ops(self.rep);
            let mut round = Round { traced: tracer.begin_round(), ..Round::default() };
            self.run_ops(&ops, &mut round, &mut window.checked, tracer);
            timed += round.secs;
            stalled += round.stall_secs;
            window.rounds.push(round);
        }
        self.checkpoints = generation(self) - before;
        self.stall_share = stalled / timed;
        window.device_bytes = device_bytes(self) - bytes_before;
        window.user_bytes = self.user_bytes - user_before;
        // The worker checkpoints at half a ring of lag and a full ring
        // forces one inline, so a ring's worth of writes cannot pass
        // without one; and a whole window at full size holds many cycles,
        // or it did not measure what this workload is for.
        let writes: usize = window.rounds.iter().map(|r| r.put.len()).sum();
        let full_window = !self.ctx.smoke && secs >= FULL_WINDOW_SECS;
        let at_least = (writes as u64 / self.wal_records).saturating_sub(1).max(if full_window {
            MIN_CHECKPOINTS
        } else {
            0
        });
        window.checked.note(self.checkpoints >= at_least);
        window
    }

    /// Scan phase, full compare, restart, and a re-read of every
    /// acknowledged key from the recovered store.
    fn verify(&mut self) -> Checked {
        let set = self.set.take().expect("set up");
        let oracle = self.oracle.take().expect("set up");
        let stack = self.stack.take().expect("set up");
        let mut checked = Checked::default();

        let mut scan_ns = crate::stats::Samples::default();
        for _ in 0..SCANS {
            let from = self.rng.below(set.all.len());
            let want = oracle.scan(from, SCAN_LIMIT);
            let mut got = Vec::with_capacity(SCAN_LIMIT);
            let t = Instant::now();
            stack.store.scan(set.all[from], u64::MAX, SCAN_LIMIT, &mut |key, value| {
                got.push((key, check_value(value, key).map(|(_, v)| v)));
            });
            scan_ns.push(t.elapsed().as_nanos() as u64);
            let same = got.len() == want.len()
                && got.iter().zip(&want).all(|(g, w)| *g == (set.all[w.0], Some(w.1)));
            checked.note(same);
        }
        self.scan_p50_us = scan_ns.quantile(0.5).unwrap_or(0.0) / 1e3;

        let t = Instant::now();
        let (store, report) = stack.restart(true);
        self.recover_s = t.elapsed().as_secs_f64();
        self.replayed = report.replayed;
        checked.note(report.from_checkpoint && report.quarantined == 0);
        checked.note(store.len() == oracle.live());
        let mut buf = vec![0u8; store.heap().layout().value_size];
        for (slot, version) in oracle.entries() {
            let key = set.all[slot];
            let found = store.get(key, &mut buf);
            checked.note(found && check_value(&buf, key) == Some((0, version)));
        }
        checked
    }

    fn throughput(&self) -> Throughput {
        Throughput::Total
    }

    fn notes(&self) -> Vec<String> {
        vec![
            format!(
                "store_mixed: {} keys ({} loaded), WAL ring {}, {} ops per round, {} inserted",
                self.keys,
                self.keys - self.keys / POOL_PERIOD,
                self.wal_records,
                self.rep,
                self.next_insert
            ),
            format!(
                "store_mixed: {} checkpoints in the window, {:.3} of its time in ops over 1 ms",
                self.checkpoints, self.stall_share
            ),
            format!(
                "store_mixed: scan{} p50 {:.1} us, restart {:.3} s replaying {} WAL records",
                SCAN_LIMIT, self.scan_p50_us, self.recover_s, self.replayed
            ),
        ]
    }
}
