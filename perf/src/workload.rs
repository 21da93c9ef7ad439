//! What every workload has in common: how a run is sequenced, how timed
//! rounds fold into the end-to-end metrics, and the sizes that `--smoke`
//! shrinks.
//!
//! A workload measures in *rounds*. Each round yields its own throughput
//! and percentiles, and a run reports the median over rounds, so that one
//! disturbed round (the sandbox shares its host) cannot move a reported
//! number.

use std::time::Instant;

use crate::stats::{self, Samples};
use crate::trace::Tracer;

/// The arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes: checks the plumbing, measures nothing worth keeping.
    pub smoke: bool,
}

impl Ctx {
    /// `full` at real size, `tiny` under `--smoke`.
    pub fn size(&self, full: usize, tiny: usize) -> usize {
        if self.smoke {
            tiny
        } else {
            full
        }
    }
}

/// One timed round.
#[derive(Debug, Default)]
pub struct Round {
    /// Time spent inside timed operations (generation and checking of
    /// inputs between operations is outside the clock).
    pub secs: f64,
    pub ops: u64,
    pub get: Samples,
    pub put: Samples,
    /// Part of `secs` spent in operations that were stalled behind
    /// something else (`store_mixed`: behind a checkpoint).
    pub stall_secs: f64,
    /// Whether the round recorded spans ([`Tracer::begin_round`]).
    pub traced: bool,
}

/// How rounds fold into `ops_per_s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Median of the per-round rates: robust to a disturbed round.
    MedianOfRounds,
    /// Total operations over total time, for a workload whose rounds
    /// differ by design (a checkpoint falls into some and not others).
    Total,
}

/// Counts of operations whose outputs were checked.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
}

impl Checked {
    pub fn add(&mut self, other: Checked) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Counts one checked operation.
    #[inline]
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The result of a timed window.
#[derive(Debug, Default)]
pub struct Window {
    pub rounds: Vec<Round>,
    pub checked: Checked,
    /// Bytes the window's acknowledged puts carried, and bytes the store's
    /// device was written meanwhile: their ratio is `write_amp`.
    pub user_bytes: u64,
    pub device_bytes: u64,
}

/// One workload: its set-up, its timed window and its final check.
pub trait Workload {
    /// Everything before the first timed operation: key generation, bulk
    /// load, server spawn.
    fn setup(&mut self);

    /// Index bytes (model plus data structures, `index_size_bytes +
    /// data_size_bytes`, summed over the stores set up) per loaded key.
    /// Asked right after `setup`, so it depends on the seed alone.
    fn index_bytes_per_key(&self) -> f64;

    /// A short untimed pass so caches and lazy set-up are warm.
    fn warm_up(&mut self);

    /// Runs timed rounds for about `secs` seconds, recording a span per
    /// call into the system when `tracer` is on.
    fn measure(&mut self, secs: f64, tracer: &mut Tracer) -> Window;

    /// Checks the final state against the oracle of acknowledged writes
    /// and tears the stack down.
    fn verify(&mut self) -> Checked;

    fn throughput(&self) -> Throughput;

    /// Lines for the human-readable report (sizes, counts, cliffs seen).
    fn notes(&self) -> Vec<String>;
}

/// The end-to-end metrics of one run, in `BENCHMARK.json` order, each with
/// the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    pub setup_s: (f64, u64),
    pub ops_per_s: (f64, u64),
    pub get_p50_us: (f64, u64),
    pub get_p99_us: (f64, u64),
    pub put_p50_us: (f64, u64),
    pub put_p99_us: (f64, u64),
    pub write_amp: (f64, u64),
    pub index_bytes_per_key: (f64, u64),
}

/// Operations per second of rounds given as `(ops, secs)`, folded as `how`
/// says.
fn rate(rounds: impl Iterator<Item = (u64, f64)>, how: Throughput) -> Option<f64> {
    let timed: Vec<(u64, f64)> = rounds.filter(|&(_, secs)| secs > 0.0).collect();
    match how {
        Throughput::Total => {
            let secs: f64 = timed.iter().map(|r| r.1).sum();
            (secs > 0.0).then(|| timed.iter().map(|r| r.0).sum::<u64>() as f64 / secs)
        }
        Throughput::MedianOfRounds => {
            let per: Vec<f64> = timed.iter().map(|&(ops, secs)| ops as f64 / secs).collect();
            stats::median(&per)
        }
    }
}

/// Folds a window into its end-to-end metrics (all but `setup_s` and
/// `index_bytes_per_key`, which no window measures). A percentile a
/// round's sample count does not support is left out of the median; if no
/// round supports it the metric is `None`, and the run fails rather than
/// print a number it cannot stand behind.
pub fn fold(window: &mut Window, how: Throughput) -> Option<EndToEnd> {
    let rounds = &mut window.rounds;
    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
    let rate = rate(rounds.iter().map(|r| (r.ops, r.secs)), how)?;
    let puts: u64 = rounds.iter().map(|r| r.put.len() as u64).sum();
    let write_amp =
        (window.user_bytes > 0).then(|| window.device_bytes as f64 / window.user_bytes as f64)?;
    let mut pick = |q: f64, put: bool| -> Option<(f64, u64)> {
        let mut n = 0u64;
        let per: Vec<f64> = rounds
            .iter_mut()
            .filter_map(|r| {
                let s = if put { &mut r.put } else { &mut r.get };
                let v = s.quantile_us(q)?;
                n += s.len() as u64;
                Some(v)
            })
            .collect();
        stats::median(&per).map(|m| (m, n))
    };
    Some(EndToEnd {
        setup_s: (0.0, 0),
        ops_per_s: (rate, ops),
        get_p50_us: pick(0.50, false)?,
        get_p99_us: pick(0.99, false)?,
        put_p50_us: pick(0.50, true)?,
        put_p99_us: pick(0.99, true)?,
        write_amp: (write_amp, puts),
        index_bytes_per_key: (0.0, 0),
    })
}

/// Everything one run produced.
pub struct RunReport {
    /// Of the untraced window; of the traced window in a traced run, which
    /// reports the two p99s of it per layer.
    pub e2e: EndToEnd,
    pub checked: Checked,
    pub notes: Vec<String>,
    /// Spans of the traced window (empty when untraced).
    pub tracer: Tracer,
    /// Share of `ops_per_s` that tracing cost, in a traced run.
    pub trace_overhead_share: Option<f64>,
}

/// Share of `--seconds` a traced run's window lasts; the ladder of probes
/// takes the rest of the run.
const TRACED_WINDOW_SHARE: f64 = 0.25;

/// Sequences one run of `w`: set-up, warm-up, one window, final check.
/// Untraced, the window lasts `ctx.seconds`. Traced, it is shorter and
/// every other round records spans; the rates of the rounds with and
/// without give the tracing overhead.
pub fn run(w: &mut dyn Workload, ctx: &Ctx, epoch: Instant) -> Result<RunReport, String> {
    let t = Instant::now();
    w.setup();
    let setup_s = t.elapsed().as_secs_f64();
    let index_bytes_per_key = w.index_bytes_per_key();
    w.warm_up();

    let (secs, mut tracer) = if ctx.trace {
        (ctx.seconds * TRACED_WINDOW_SHARE, Tracer::alternating(epoch))
    } else {
        (ctx.seconds, Tracer::new(false, epoch))
    };
    let mut window = w.measure(secs, &mut tracer);
    let mut checked = window.checked;
    let trace_overhead_share = if ctx.trace {
        // Stalls aside: which rounds the checkpoints of `store_mixed` fall
        // into would otherwise decide the comparison.
        let of = |traced: bool| {
            let rounds = window.rounds.iter().filter(|r| r.traced == traced);
            rate(rounds.map(|r| (r.ops, r.secs - r.stall_secs)), w.throughput()).ok_or_else(|| {
                "the traced window is too short for rounds of both kinds".to_string()
            })
        };
        Some(1.0 - of(true)? / of(false)?)
    } else {
        None
    };
    let mut e2e = fold(&mut window, w.throughput())
        .ok_or_else(|| "the timed window is too short to support p99 in any round".to_string())?;
    e2e.setup_s = (setup_s, 1);
    e2e.index_bytes_per_key = (index_bytes_per_key, 1);

    checked.add(w.verify());
    Ok(RunReport { e2e, checked, notes: w.notes(), tracer, trace_overhead_share })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(ops: u64, secs: f64, lat_ns: u64) -> Round {
        let mut r = Round { secs, ops, ..Round::default() };
        for i in 0..2000 {
            r.get.push(lat_ns + i % 10);
            r.put.push(2 * lat_ns + i % 10);
        }
        r
    }

    #[test]
    fn fold_takes_medians_over_rounds() {
        let mut w = Window {
            rounds: vec![round(100, 1.0, 1000), round(100, 4.0, 9000), round(100, 1.25, 2000)],
            user_bytes: 1000,
            device_bytes: 3500,
            ..Window::default()
        };
        let e = fold(&mut w, Throughput::MedianOfRounds).unwrap();
        assert_eq!(e.ops_per_s, (80.0, 300));
        assert_eq!(e.get_p50_us.0, 2.004);
        assert_eq!(e.put_p99_us.0, 4.009);
        assert_eq!(e.get_p99_us.1, 6000);
        assert_eq!(e.write_amp, (3.5, 6000));
        let e = fold(&mut w, Throughput::Total).unwrap();
        assert_eq!(e.ops_per_s.0, 48.0);
    }

    #[test]
    fn fold_refuses_an_unsupported_percentile() {
        let mut r = Round { secs: 1.0, ops: 10, ..Round::default() };
        for i in 0..999 {
            r.get.push(i);
            r.put.push(i);
        }
        let mut w = Window { rounds: vec![r], user_bytes: 1, ..Window::default() };
        assert!(fold(&mut w, Throughput::Total).is_none());
    }
}
