//! Shared measurement machinery for the figure/table binaries.

use std::fmt::Write as _;
use std::time::Instant;

use li_core::hist::LatencyHistogram;
use li_core::telemetry::{Recorder, TelemetrySnapshot};
use li_core::Key;
use li_viper::{ConcurrentViperStore, StoreConfig, ViperStore};
use li_workloads::{generate_ops, split_load_insert, Dataset, Op, WorkloadSpec};
use lip::{AnyConcurrentIndex, AnyIndex, ConcurrentKind, IndexKind};

/// Scale and repetition knobs, read from the environment so every binary
/// accepts the same controls:
///
/// * `LIP_BENCH_N` — base dataset size (default 200 000; the paper used
///   200 000 000).
/// * `LIP_BENCH_OPS` — operations per measurement (default `N / 2`).
/// * `LIP_BENCH_THREADS` — max thread count for Figs. 12/14 (default 8).
/// * `--telemetry` (any binary) or `LIP_BENCH_TELEMETRY=1` — attach an
///   always-on recorder per phase and write JSON snapshots under
///   `results/telemetry/<fig>/`.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    pub n: usize,
    pub ops: usize,
    pub max_threads: usize,
    pub seed: u64,
    /// Emit per-phase telemetry snapshots (latency histograms, structural
    /// events, NVM counters) next to the printed tables.
    pub telemetry: bool,
}

impl BenchConfig {
    pub fn from_env() -> Self {
        let n = std::env::var("LIP_BENCH_N").ok().and_then(|v| v.parse().ok()).unwrap_or(200_000);
        let ops = std::env::var("LIP_BENCH_OPS").ok().and_then(|v| v.parse().ok()).unwrap_or(n / 2);
        let max_threads =
            std::env::var("LIP_BENCH_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(8);
        let telemetry = std::env::args().any(|a| a == "--telemetry")
            || std::env::var("LIP_BENCH_TELEMETRY").is_ok_and(|v| v != "0" && !v.is_empty());
        BenchConfig { n, ops, max_threads, seed: 42, telemetry }
    }

    /// Thread counts swept by the multi-threaded figures.
    pub fn thread_counts(&self) -> Vec<usize> {
        [1usize, 2, 4, 8, 16, 32].into_iter().filter(|&t| t <= self.max_threads).collect()
    }
}

/// Default record value: every byte is `key % 251`.
pub fn value_of(key: Key, buf: &mut [u8]) {
    buf.fill((key % 251) as u8);
}

/// Per-figure telemetry output: one JSON file per measurement phase under
/// `results/telemetry/<fig>/`, written only when the config asked for it.
/// Each phase uses a *fresh* [`Recorder`], so snapshots are per-phase
/// absolutes — no delta bookkeeping for consumers.
pub struct TelemetrySink {
    dir: Option<std::path::PathBuf>,
}

impl TelemetrySink {
    pub fn new(cfg: &BenchConfig, fig: &str) -> Self {
        if !cfg.telemetry {
            return TelemetrySink { dir: None };
        }
        let dir = std::path::Path::new("results").join("telemetry").join(fig);
        match std::fs::create_dir_all(&dir) {
            Ok(()) => TelemetrySink { dir: Some(dir) },
            Err(e) => {
                eprintln!("telemetry: cannot create {}: {e} (snapshots disabled)", dir.display());
                TelemetrySink { dir: None }
            }
        }
    }

    /// Whether snapshots will actually be written — gate per-op recording
    /// overhead on this, not on `BenchConfig::telemetry` alone.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// A recorder for one phase: enabled when the sink is, inert otherwise
    /// (so call sites thread it unconditionally).
    pub fn recorder(&self) -> Recorder {
        if self.enabled() {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    }

    /// Writes one phase snapshot as `<phase>.json` (non-path characters in
    /// the phase name become `_`). No-op when disabled.
    pub fn write(&self, phase: &str, snap: &TelemetrySnapshot) {
        let Some(dir) = &self.dir else { return };
        let file: String = phase
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '.' { c } else { '_' })
            .collect();
        let path = dir.join(format!("{file}.json"));
        if let Err(e) = std::fs::write(&path, snap.to_json()) {
            eprintln!("telemetry: cannot write {}: {e}", path.display());
        } else {
            println!("[telemetry] {}", path.display());
        }
    }
}

/// One measured cell: throughput + latency distribution.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub name: String,
    pub ops: usize,
    pub secs: f64,
    pub hist: LatencyHistogram,
}

impl Measurement {
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.secs / 1e6
    }

    pub fn p999_us(&self) -> f64 {
        self.hist.percentile(0.999) as f64 / 1e3
    }

    pub fn p50_us(&self) -> f64 {
        self.hist.percentile(0.5) as f64 / 1e3
    }
}

/// Builds a loaded store for `kind` over `keys`.
pub fn build_store(kind: IndexKind, keys: &[Key]) -> ViperStore<AnyIndex> {
    let config = StoreConfig::paper(keys.len() * 2 + 1024);
    ViperStore::bulk_load_with(config, keys, value_of, |pairs| AnyIndex::build(kind, pairs))
}

/// Builds a loaded shared-writer store for a concurrent kind over `keys`
/// (the default shard count) — the one construction path every
/// multi-threaded figure uses.
pub fn build_concurrent_store(
    kind: ConcurrentKind,
    keys: &[Key],
) -> ConcurrentViperStore<AnyConcurrentIndex> {
    build_concurrent_store_sharded(kind, ConcurrentKind::DEFAULT_SHARDS, keys)
}

/// [`build_concurrent_store`] with an explicit shard count (the `scale`
/// binary's sweep knob).
pub fn build_concurrent_store_sharded(
    kind: ConcurrentKind,
    shards: usize,
    keys: &[Key],
) -> ConcurrentViperStore<AnyConcurrentIndex> {
    let config = StoreConfig::paper(keys.len() * 2 + 1024);
    ConcurrentViperStore::bulk_load_with(config, keys, value_of, |pairs| {
        AnyConcurrentIndex::build_with_shards(kind, shards, pairs)
    })
}

/// Executes an op stream against a store, recording per-op latency.
/// Returns the measurement; panics if a read of a supposedly-live key
/// misses (correctness backstop inside the benchmark itself).
pub fn run_ops(
    name: impl Into<String>,
    store: &mut ViperStore<AnyIndex>,
    ops: &[Op],
) -> Measurement {
    let vs = store.heap().layout().value_size;
    let mut buf = vec![0u8; vs];
    let mut val = vec![0u8; vs];
    let mut hist = LatencyHistogram::new();
    let start = Instant::now();
    for op in ops {
        let t0 = Instant::now();
        match *op {
            Op::Read(k) => {
                std::hint::black_box(store.get(k, &mut buf));
            }
            Op::Insert(k, v) | Op::Update(k, v) => {
                val.fill(v as u8);
                store.put(k, &val).expect("bench store put failed");
            }
            Op::ReadModifyWrite(k, v) => {
                store.get(k, &mut buf);
                val.fill(v as u8);
                store.put(k, &val).expect("bench store put failed");
            }
            Op::Scan(k, len) => {
                store.scan(k, u64::MAX, len, &mut |_, _| {});
            }
        }
        hist.record(t0.elapsed().as_nanos() as u64);
    }
    let secs = start.elapsed().as_secs_f64();
    Measurement { name: name.into(), ops: ops.len(), secs, hist }
}

/// Builds the standard read-only op stream of Fig. 10.
pub fn read_ops(keys: &[Key], count: usize, seed: u64) -> Vec<Op> {
    generate_ops(&WorkloadSpec::read_only_uniform(), keys, &[], count, seed)
}

/// Splits keys and builds the write-only stream of Fig. 13: the loaded
/// store keeps 80% of keys, the stream inserts the withheld 20% (and
/// falls back to updates once exhausted).
pub fn write_setup(keys: &[Key], count: usize, seed: u64) -> (Vec<Key>, Vec<Op>) {
    let (loaded, pool) = split_load_insert(keys, 0.2);
    let ops =
        generate_ops(&WorkloadSpec::write_only(), &loaded, &pool, count.min(pool.len()), seed);
    (loaded, ops)
}

/// Generates the base dataset for a figure.
pub fn dataset(d: Dataset, n: usize, seed: u64) -> Vec<Key> {
    li_workloads::generate_keys(d, n, seed)
}

/// Prints a table header.
pub fn header(cols: &[&str]) {
    let mut line = String::new();
    for (i, c) in cols.iter().enumerate() {
        if i == 0 {
            let _ = write!(line, "{c:<18}");
        } else {
            let _ = write!(line, "{c:>14}");
        }
    }
    println!("{line}");
    println!("{}", "-".repeat(18 + 14 * (cols.len() - 1)));
}

/// Prints one row: a name plus formatted numeric cells.
pub fn row(name: &str, cells: &[String]) {
    let mut line = format!("{name:<18}");
    for c in cells {
        let _ = write!(line, "{c:>14}");
    }
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_from_env_defaults() {
        // The env vars may be set by an outer harness; just check sanity.
        let c = BenchConfig::from_env();
        assert!(c.n > 0);
        assert!(c.ops > 0);
        assert!(c.max_threads >= 1);
    }

    #[test]
    fn run_ops_measures() {
        let keys: Vec<Key> = (0..5_000u64).map(|i| i * 3).collect();
        let mut store = build_store(IndexKind::BTree, &keys);
        let ops = read_ops(&keys, 2_000, 1);
        let m = run_ops("smoke", &mut store, &ops);
        assert_eq!(m.ops, 2_000);
        assert!(m.secs > 0.0);
        assert!(m.mops() > 0.0);
        assert!(m.hist.count() == 2_000);
    }

    #[test]
    fn concurrent_store_builds_loaded() {
        let keys: Vec<Key> = (0..4_000u64).map(|i| i * 3).collect();
        let kind = ConcurrentKind::of(IndexKind::Pgm).unwrap();
        let store = build_concurrent_store(kind, &keys);
        assert_eq!(store.len(), keys.len());
        let vs = store.heap().layout().value_size;
        let mut buf = vec![0u8; vs];
        assert!(store.get(300, &mut buf));
        store.put(301, &vec![9u8; vs]).unwrap();
        assert!(store.get(301, &mut buf));
        assert_eq!(buf, vec![9u8; vs]);
    }

    #[test]
    fn write_setup_splits() {
        let keys: Vec<Key> = (0..10_000u64).collect();
        let (loaded, ops) = write_setup(&keys, 5_000, 2);
        assert!(loaded.len() == 8_000);
        assert!(ops.iter().all(|o| matches!(o, Op::Insert(..))));
        assert_eq!(ops.len(), 2_000);
    }
}
