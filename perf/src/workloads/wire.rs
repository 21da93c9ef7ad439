//! The two wire workloads: `li-server` over loopback in front of the served
//! store, uniform 80 % GET / 20 % PUT of 128-byte values, in rounds of a
//! second on fresh connections and threads (see [`round_plan`]). The WAL
//! ring is so large that no checkpoint falls inside the window (asserted):
//! checkpoint cost belongs to `store_mixed`. They differ in how the traffic
//! arrives.
//!
//! **`wire_closed`**: four closed-loop clients, one request in flight each.
//! The store answers in a few microseconds and a request takes some 60,
//! so `li-server`'s thread hand-offs, its write per response, its per-frame
//! allocations and `li-proto` are what move this workload, and a change to
//! the index or the device should not. Four clients, so that requests queue
//! behind one another at the server the way concurrent callers' do.
//!
//! **`wire_pipelined`**: one connection with 32 requests in flight. The
//! same `li-server` layer is used differently: with requests in flight
//! behind one another, queue wait, write batching and group commit matter,
//! and a thread hand-off is paid once for many requests (some 140 000
//! requests/s here against 60 000 one at a time). An edge change that helps
//! one-at-a-time callers but hurts pipelined traffic shows here.
//!
//! `wire_pipelined` is the issue's `wire_open` made steady. A paced open
//! loop under what the server sustains leaves the processor idle most of
//! the time, and what a wake-up from idle costs is the host's business: the
//! same open-loop run read 40 us p50 one hour and 88 us the next. A full
//! window keeps the processor busy, which takes the host out of the number.
//! The open loop, timed from due times, lives on in the traced run's rate
//! ladder (`server.max_rate_ok`, `server.open_*`).
//!
//! The whole process runs on one CPU (`pin_to_one_cpu` in `main.rs`):
//! clients and server share it, and throughput is requests per second of
//! one core's time.

use li_core::traits::Index;

use crate::inputs::Rng;
use crate::stack::WIRE_VALUE;
use crate::trace::Tracer;
use crate::wire::{closed_round, pipelined_round, round_plan, WireStack};
use crate::workload::{Checked, Ctx, Round, Throughput, Window, Workload};

/// Closed-loop clients: callers that each wait for their reply.
const CLIENTS: usize = 4;
/// Requests in flight on the pipelined connection: an eighth of
/// `li-server`'s per-connection write queue, so that no stall of the
/// sandbox can overflow it, and enough that the server never waits for the
/// client.
const WINDOW: usize = 32;

/// One round of traffic for `secs` seconds from `seed`.
type RoundFn = fn(&WireStack, f64, u64, &mut Tracer) -> (Round, Checked);

pub struct Wire {
    ctx: Ctx,
    name: &'static str,
    traffic: &'static str,
    round: RoundFn,
    keys: usize,
    wire: Option<WireStack>,
    /// Rounds run so far; each draws its requests from a seed of its own.
    rounds: u64,
}

impl Wire {
    pub fn closed(ctx: Ctx) -> Self {
        Wire::new(ctx, "wire_closed", "4 closed-loop clients", |wire, secs, seed, tracer| {
            closed_round(wire, CLIENTS, seed, secs, tracer)
        })
    }

    pub fn pipelined(ctx: Ctx) -> Self {
        Wire::new(
            ctx,
            "wire_pipelined",
            "one connection with 32 requests in flight",
            |wire, secs, seed, tracer| pipelined_round(wire, WINDOW, secs, seed, tracer),
        )
    }

    fn new(ctx: Ctx, name: &'static str, traffic: &'static str, round: RoundFn) -> Self {
        Wire { ctx, name, traffic, round, keys: ctx.size(400_000, 20_000), wire: None, rounds: 0 }
    }
}

impl Workload for Wire {
    fn setup(&mut self) {
        self.wire = Some(WireStack::build(self.keys, self.ctx.seed));
    }

    fn index_bytes_per_key(&self) -> f64 {
        let index = self.wire.as_ref().expect("set up").stack.store.index();
        (index.index_size_bytes() + index.data_size_bytes()) as f64 / self.keys as f64
    }

    fn warm_up(&mut self) {
        let mut off = Tracer::new(false, std::time::Instant::now());
        self.measure(self.ctx.seconds.min(0.5), &mut off);
    }

    fn measure(&mut self, secs: f64, tracer: &mut Tracer) -> Window {
        let wire = self.wire.as_ref().expect("set up");
        let (n_rounds, round_len) = round_plan(secs);
        let mut window = Window::default();
        let device_bytes = || wire.stack.store.heap().device().stats_snapshot().bytes_written;
        let bytes_before = device_bytes();
        for _ in 0..n_rounds {
            self.rounds += 1;
            let seed = self.ctx.seed.wrapping_mul(1_000_003).wrapping_add(self.rounds);
            let traced = tracer.begin_round();
            let (round, checked) = (self.round)(wire, round_len, seed, tracer);
            // Every reply to a PUT is checked to be its acknowledgement.
            window.user_bytes += (round.put.len() * WIRE_VALUE) as u64;
            window.rounds.push(Round { traced, ..round });
            window.checked.add(checked);
        }
        window.device_bytes = device_bytes() - bytes_before;
        window.checked.note(!wire.checkpointed());
        window
    }

    fn verify(&mut self) -> Checked {
        let wire = self.wire.take().expect("set up");
        wire.verify_and_stop(&mut Rng::new(self.ctx.seed ^ 0xf1a1))
    }

    fn throughput(&self) -> Throughput {
        Throughput::MedianOfRounds
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "{}: {} keys, {}, 80 % GET / 20 % PUT, no checkpoint in the window",
            self.name, self.keys, self.traffic
        )]
    }
}
