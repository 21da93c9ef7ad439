//! `store_read`: the index lineup inside a single-writer store on a
//! DRAM-like device, uniform point reads, then a short tail of inserts.
//!
//! With the device cost zeroed, `li_core::search` and the index crates are
//! most of every operation, so this is the workload that a search kernel
//! or an index-dispatch change moves, and the one a change to the edge or
//! to the WAL must leave alone. The insert tail exists so that each index
//! kind's write path has an end-to-end number too; it runs after the timed
//! reads, is a fixed number of inserts, and does not count towards
//! `ops_per_s`.

use std::time::Instant;

use li_core::traits::Index;
use li_nvm::LatencyModel;
use li_viper::ViperStore;
use lip::AnyIndex;

use crate::inputs::{check_value, fill_value, KeySet, Rng};
use crate::stack::{kind_store, LINEUP};
use crate::trace::{Tracer, ROOT};
use crate::workload::{Checked, Ctx, Round, Throughput, Window, Workload};

/// Every fifth key is withheld for the insert tail.
const POOL_PERIOD: usize = 5;
/// Gets one span of the traced run covers: a get takes half a microsecond,
/// a span of its own would cost a tenth of that again.
const SPAN_CALLS: usize = 256;

pub struct StoreRead {
    ctx: Ctx,
    keys: usize,
    /// Reads per kind and round.
    rep: usize,
    /// Inserts per kind in the tail, and in each of its rounds.
    tail: usize,
    tail_rep: usize,
    set: Option<KeySet>,
    stores: Vec<ViperStore<AnyIndex>>,
    /// Pool keys inserted so far, the same ones into every kind.
    inserted: usize,
    rng: Rng,
}

impl StoreRead {
    pub fn new(ctx: Ctx) -> Self {
        StoreRead {
            ctx,
            keys: ctx.size(400_000, 20_000),
            rep: ctx.size(50_000, 2_000),
            tail: ctx.size(80_000, 800),
            tail_rep: ctx.size(8_000, 400),
            set: None,
            stores: Vec::new(),
            inserted: 0,
            rng: Rng::new(ctx.seed ^ 0x5ead),
        }
    }

    /// One rep of uniform reads against one kind; returns its wall time.
    fn read_rep(
        &mut self,
        kind: usize,
        n: usize,
        round: &mut Round,
        check: &mut Checked,
        tracer: &mut Tracer,
    ) -> f64 {
        let set = self.set.as_ref().expect("set up");
        let store = &self.stores[kind];
        let mut buf = vec![0u8; store.heap().layout().value_size];
        let loaded = set.loaded_len();
        let rep_span = tracer.open("rep.read", ROOT, 0);
        let t_rep = Instant::now();
        let (mut batch_start, mut batch_ns) = (t_rep, 0u64);
        for i in 0..n {
            let key = set.all[set.loaded_slot(self.rng.below(loaded))];
            let t = Instant::now();
            let found = store.get(key, &mut buf);
            let ns = t.elapsed().as_nanos() as u64;
            round.get.push(ns);
            check.note(found && buf[..8] == key.to_le_bytes());
            if i % SPAN_CALLS == 0 {
                batch_start = t;
            }
            batch_ns += ns;
            if i % SPAN_CALLS == SPAN_CALLS - 1 || i == n - 1 {
                let calls = (i % SPAN_CALLS + 1) as u32;
                tracer.leaf_calls("ViperStore::get", rep_span, batch_start, batch_ns, calls);
                batch_ns = 0;
            }
        }
        let secs = t_rep.elapsed().as_secs_f64();
        tracer.close(rep_span);
        secs
    }
}

impl Workload for StoreRead {
    fn setup(&mut self) {
        let set = KeySet::generate(self.keys, POOL_PERIOD, self.ctx.seed);
        assert!(self.tail.is_multiple_of(self.tail_rep) && self.tail <= set.pool_len());
        self.stores = LINEUP
            .iter()
            .map(|&(kind, _)| kind_store(kind, &set, LatencyModel::dram_like()))
            .collect();
        self.set = Some(set);
        self.inserted = 0;
    }

    fn index_bytes_per_key(&self) -> f64 {
        let bytes: usize = self
            .stores
            .iter()
            .map(|s| s.index().index_size_bytes() + s.index().data_size_bytes())
            .sum();
        bytes as f64 / self.set.as_ref().expect("set up").loaded_len() as f64
    }

    fn warm_up(&mut self) {
        let mut scratch = Round::default();
        let mut off = Tracer::new(false, Instant::now());
        for kind in 0..LINEUP.len() {
            self.read_rep(kind, self.rep / 2, &mut scratch, &mut Checked::default(), &mut off);
        }
    }

    fn measure(&mut self, secs: f64, tracer: &mut Tracer) -> Window {
        let mut window = Window::default();
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < secs {
            let mut round = Round { traced: tracer.begin_round(), ..Round::default() };
            for kind in 0..LINEUP.len() {
                round.secs +=
                    self.read_rep(kind, self.rep, &mut round, &mut window.checked, tracer);
                round.ops += self.rep as u64;
            }
            window.rounds.push(round);
        }

        // Insert tail: a fixed count, so that every run leaves the indexes
        // in the same state. A tail round carries no `ops`/`secs`: it adds
        // put samples and nothing to the read throughput.
        let set = self.set.as_ref().expect("set up");
        let mut value = vec![0u8; self.stores[0].heap().layout().value_size];
        let device_bytes = |stores: &[ViperStore<AnyIndex>]| -> u64 {
            stores.iter().map(|s| s.heap().device().stats_snapshot().bytes_written).sum()
        };
        let bytes_before = device_bytes(&self.stores);
        while self.inserted < self.tail {
            let mut round = Round { traced: tracer.begin_round(), ..Round::default() };
            for store in &mut self.stores {
                let rep_span = tracer.open("rep.insert", ROOT, 0);
                for j in self.inserted..self.inserted + self.tail_rep {
                    let key = set.all[set.pool_slot(j)];
                    fill_value(&mut value, key, 0, 0);
                    let t = Instant::now();
                    let r = store.put(key, &value);
                    let ns = t.elapsed().as_nanos() as u64;
                    round.put.push(ns);
                    tracer.leaf("ViperStore::put", rep_span, 0, t, ns);
                    window.checked.note(r.is_ok());
                    window.user_bytes += u64::from(r.is_ok()) * value.len() as u64;
                }
                tracer.close(rep_span);
            }
            self.inserted += self.tail_rep;
            window.rounds.push(round);
        }
        window.device_bytes = device_bytes(&self.stores) - bytes_before;
        window
    }

    /// Every kind must hold every loaded and every inserted key at its
    /// written value, miss every key never inserted, and count the same.
    fn verify(&mut self) -> Checked {
        let set = self.set.take().expect("set up");
        let mut checked = Checked::default();
        for store in self.stores.drain(..) {
            let mut buf = vec![0u8; store.heap().layout().value_size];
            for slot in 0..set.all.len() {
                let key = set.all[slot];
                let want = !set.is_pool(slot) || slot / POOL_PERIOD < self.inserted;
                let found = store.get(key, &mut buf);
                checked.note(found == want && (!found || check_value(&buf, key) == Some((0, 0))));
            }
            checked.note(store.len() == set.loaded_len() + self.inserted);
        }
        checked
    }

    fn throughput(&self) -> Throughput {
        Throughput::MedianOfRounds
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "store_read: {} keys ({} loaded), lineup of {} kinds, {} reads per kind and round, {} inserts per kind in the tail",
            self.keys,
            self.keys - self.keys / POOL_PERIOD,
            LINEUP.len(),
            self.rep,
            self.inserted
        )]
    }
}
