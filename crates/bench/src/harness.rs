//! Shared measurement machinery for every `li-bench` entry: scale
//! knobs, the one flag parser, exact latency samples, store builders,
//! table printing, and the one JSON report the CI gates write.

use std::fmt::{Display, Write as _};
use std::str::FromStr;
use std::time::Instant;

use li_core::telemetry::{Recorder, TelemetrySnapshot};
use li_core::Key;
use li_viper::{ConcurrentViperStore, StoreConfig, ViperStore};
use li_workloads::{generate_ops, split_load_insert, Dataset, Op, WorkloadSpec};
use lip::{AnyConcurrentIndex, AnyIndex, ConcurrentKind, IndexKind};

/// Scale and repetition knobs, read from the environment so every entry
/// accepts the same controls:
///
/// * `LIP_BENCH_N` — base dataset size (default 200 000; the paper used
///   200 000 000).
/// * `LIP_BENCH_OPS` — operations per measurement (default `N / 2`).
/// * `LIP_BENCH_THREADS` — max thread count for Figs. 12/14 (default 8).
/// * `--telemetry` (any entry) or `LIP_BENCH_TELEMETRY=1` — attach an
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
    pub fn from_env(flags: &mut Flags) -> Self {
        let n = std::env::var("LIP_BENCH_N").ok().and_then(|v| v.parse().ok()).unwrap_or(200_000);
        let ops = std::env::var("LIP_BENCH_OPS").ok().and_then(|v| v.parse().ok()).unwrap_or(n / 2);
        let max_threads =
            std::env::var("LIP_BENCH_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(8);
        let telemetry = flags.has("--telemetry")
            || std::env::var("LIP_BENCH_TELEMETRY").is_ok_and(|v| v != "0" && !v.is_empty());
        BenchConfig { n, ops, max_threads, seed: 42, telemetry }
    }

    /// Thread counts swept by the multi-threaded figures.
    pub fn thread_counts(&self) -> Vec<usize> {
        [1usize, 2, 4, 8, 16, 32].into_iter().filter(|&t| t <= self.max_threads).collect()
    }
}

/// The command line after `li-bench <name>`, consumed by typed getters.
/// Each getter claims its flag and adds it (with its default) to the
/// usage line; [`Flags::finish`] then rejects whatever nobody claimed.
/// Errors are sticky, so an entry reads every flag first and checks
/// once — a bad flag never starts a measurement.
#[derive(Debug)]
pub struct Flags {
    name: String,
    args: Vec<Option<String>>,
    usage: String,
    error: Option<String>,
}

impl Flags {
    pub fn new(name: &str, args: impl IntoIterator<Item = String>) -> Self {
        Flags {
            name: name.to_string(),
            args: args.into_iter().map(Some).collect(),
            usage: String::new(),
            error: None,
        }
    }

    /// The value after `flag`, or `default`; the last occurrence wins.
    pub fn get<T: FromStr + Display>(&mut self, flag: &str, default: T) -> T {
        let _ = write!(self.usage, " [{flag} {default}]");
        let mut value = default;
        for i in 0..self.args.len() {
            if self.args[i].as_deref() != Some(flag) {
                continue;
            }
            self.args[i] = None;
            match self.args.get_mut(i + 1).and_then(Option::take) {
                Some(raw) => match raw.parse() {
                    Ok(v) => value = v,
                    Err(_) => self.fail(format!("{flag}: cannot parse {raw:?}")),
                },
                None => self.fail(format!("{flag} needs a value")),
            }
        }
        value
    }

    /// Whether the boolean `flag` is present.
    pub fn has(&mut self, flag: &str) -> bool {
        let _ = write!(self.usage, " [{flag}]");
        let mut present = false;
        for arg in self.args.iter_mut().filter(|a| a.as_deref() == Some(flag)) {
            *arg = None;
            present = true;
        }
        present
    }

    /// Records a flag error found by the caller (a value that parsed but
    /// is out of range); the first error is the one reported.
    pub fn fail(&mut self, msg: String) {
        self.error.get_or_insert(msg);
    }

    /// `Err(message + usage)` if any getter failed or an argument was
    /// left unclaimed; `main` prints it and exits 2.
    pub fn finish(&mut self) -> Result<(), String> {
        if let Some(unknown) = self.args.iter().flatten().next() {
            let msg = format!("unknown flag {unknown}");
            self.fail(msg);
        }
        match &self.error {
            Some(e) => Err(format!("{e}\nusage: li-bench {}{}", self.name, self.usage)),
            None => Ok(()),
        }
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

/// Exact per-op latencies of one measurement, in nanoseconds. Recording
/// is a `Vec::push` (threads keep their own `Vec` and the caller
/// `extend`s them together); construction sorts once, so a percentile is
/// an order statistic with no bucketing error.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn new(mut ns: Vec<u64>) -> Self {
        ns.sort_unstable();
        Samples(ns)
    }

    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// The smallest sample with at least `q` of the samples at or below
    /// it; 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let rank = (q.clamp(0.0, 1.0) * self.0.len() as f64).ceil() as usize;
        self.0.get(rank.max(1) - 1).copied().unwrap_or(0)
    }

    /// [`Samples::percentile`] in microseconds, the unit every table uses.
    pub fn us(&self, q: f64) -> f64 {
        self.percentile(q) as f64 / 1e3
    }
}

/// The latency columns the gates print and report: p50, p99, p99.9 and
/// max, in microseconds, keyed by their JSON field names.
pub fn latency_cells(lat: &Samples) -> [(&'static str, f64); 4] {
    [
        ("p50_us", lat.us(0.5)),
        ("p99_us", lat.us(0.99)),
        ("p999_us", lat.us(0.999)),
        ("max_us", lat.us(1.0)),
    ]
}

/// One measured cell: throughput + latency distribution.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub name: String,
    pub ops: usize,
    pub secs: f64,
    pub lat: Samples,
}

impl Measurement {
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.secs / 1e6
    }

    pub fn p999_us(&self) -> f64 {
        self.lat.us(0.999)
    }

    pub fn p50_us(&self) -> f64 {
        self.lat.us(0.5)
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
/// sweep's knob).
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
    let mut ns = Vec::with_capacity(ops.len());
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
        ns.push(t0.elapsed().as_nanos() as u64);
    }
    let secs = start.elapsed().as_secs_f64();
    Measurement { name: name.into(), ops: ops.len(), secs, lat: Samples::new(ns) }
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

/// A JSON value — what a [`Report`] field holds.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<V: Into<Json>>(fields: impl IntoIterator<Item = (&'static str, V)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k, v.into())).collect())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// The one JSON writer: compact, keys in insertion order, floats to three
/// decimals (`null` when not finite), strings escaped.
impl Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x:.3}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{}{item}", if i == 0 { "" } else { "," })?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    write!(f, "{}\"{key}\":{value}", if i == 0 { "" } else { "," })?;
                }
                f.write_char('}')
            }
        }
    }
}

/// What a gate leaves behind: ordered fields written as one JSON object
/// to `--out` (default `results/<name>.json`) and, under `--check`, the
/// failed conditions that turn into exit code 1.
#[derive(Debug)]
pub struct Report {
    out: String,
    enforce: bool,
    fields: Vec<(&'static str, Json)>,
    failures: Vec<String>,
}

impl Report {
    pub fn new(name: &str, flags: &mut Flags) -> Self {
        let out = flags.get("--out", format!("results/{name}.json"));
        let enforce = flags.has("--check");
        Report { out, enforce, fields: vec![("bench", name.into())], failures: Vec::new() }
    }

    pub fn field(&mut self, key: &'static str, value: impl Into<Json>) {
        self.fields.push((key, value.into()));
    }

    /// Records one gate condition; a false one fails the run under
    /// `--check`.
    pub fn check(&mut self, ok: bool, failure: &str) {
        if !ok {
            self.failures.push(failure.to_string());
        }
    }

    pub fn to_json(&self) -> String {
        Json::Obj(self.fields.clone()).to_string()
    }

    /// Writes the JSON document, prints the `[json]` line and, under
    /// `--check`, one `CHECK FAILED` line per failed condition. Returns
    /// the process exit code.
    pub fn finish(self) -> u8 {
        let path = std::path::Path::new(&self.out);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create the report's directory");
        }
        std::fs::write(path, self.to_json() + "\n").expect("write the JSON report");
        println!("[json] {}", self.out);
        if !self.enforce {
            return 0;
        }
        for failure in &self.failures {
            eprintln!("CHECK FAILED: {failure}");
        }
        if self.failures.is_empty() {
            println!("CHECK OK");
        }
        u8::from(!self.failures.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new("demo", args.iter().map(ToString::to_string))
    }

    #[test]
    fn config_from_env_defaults() {
        // The env vars may be set by an outer harness; just check sanity.
        let c = BenchConfig::from_env(&mut flags(&[]));
        assert!(c.n > 0);
        assert!(c.ops > 0);
        assert!(c.max_threads >= 1);
    }

    #[test]
    fn telemetry_flag_reaches_the_config() {
        let mut f = flags(&["--telemetry"]);
        assert!(BenchConfig::from_env(&mut f).telemetry);
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn flags_typed_get_default_and_last_occurrence() {
        let mut f = flags(&["--seeds", "7", "--in-place", "--seeds", "9", "--kinds", "a,b"]);
        assert_eq!(f.get("--seeds", 200u64), 9);
        assert_eq!(f.get("--ops", 400usize), 400);
        assert_eq!(f.get("--kinds", "btree".to_string()), "a,b");
        assert!(f.has("--in-place"));
        assert!(!f.has("--no-verify"));
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn flags_reject_unknown_missing_and_unparsable() {
        let mut f = flags(&["--bogus"]);
        assert_eq!(f.get("--seeds", 200u64), 200);
        let usage = f.finish().unwrap_err();
        assert!(usage.starts_with("unknown flag --bogus\n"), "{usage}");
        assert!(usage.ends_with("usage: li-bench demo [--seeds 200]"), "{usage}");

        let mut f = flags(&["--seeds"]);
        f.get("--seeds", 200u64);
        assert!(f.finish().unwrap_err().starts_with("--seeds needs a value\n"));

        let mut f = flags(&["--seeds", "many"]);
        assert_eq!(f.get("--seeds", 200u64), 200);
        assert!(f.finish().unwrap_err().starts_with("--seeds: cannot parse \"many\"\n"));

        // A caller's own range check reports through the same path, and
        // the first error wins.
        let mut f = flags(&["--trials", "0", "--bogus"]);
        f.get("--trials", 2usize);
        f.fail("--trials must be >= 1".to_string());
        assert!(f.finish().unwrap_err().starts_with("--trials must be >= 1\n"));
    }

    #[test]
    fn report_keeps_field_order_and_escapes_strings() {
        let mut r = Report::new("demo", &mut flags(&[]));
        r.field("zeta", 1u64);
        r.field("alpha", "say \"hi\"\\\n");
        r.field("ms", 1.23456);
        r.field("nan", f64::NAN);
        r.field("rows", vec![Json::obj([("k", 2usize)]), Json::obj([("ok", true)])]);
        assert_eq!(
            r.to_json(),
            r#"{"bench":"demo","zeta":1,"alpha":"say \"hi\"\\\u000a","ms":1.235,"nan":null,"rows":[{"k":2},{"ok":true}]}"#
        );
    }

    #[test]
    fn samples_empty_and_order_statistics() {
        let empty = Samples::default();
        assert_eq!((empty.count(), empty.percentile(0.999), empty.us(0.5)), (0, 0, 0.0));
        let s = Samples::new((1..=1000u64).rev().collect());
        assert_eq!(s.count(), 1000);
        assert_eq!(s.percentile(0.0), 1);
        assert_eq!(s.percentile(0.5), 500);
        assert_eq!(s.percentile(0.999), 999);
        assert_eq!(s.percentile(1.0), 1000);
        assert_eq!(latency_cells(&s).map(|(_, us)| us), [0.5, 0.99, 0.999, 1.0]);
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
        assert_eq!(m.lat.count(), 2_000);
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

#[cfg(test)]
mod proptests {
    use super::Samples;
    use proptest::prelude::*;

    proptest! {
        /// Ported from the deleted bucketed histogram's suite, tightened
        /// from "within 1.6 %" to "equal": a percentile is the sorted
        /// reference's order statistic, monotone in `q`, and merging
        /// per-thread vectors is concatenation.
        #[test]
        fn percentile_is_the_order_statistic(
            a in proptest::collection::vec(0u64..1_000_000, 1..500),
            b in proptest::collection::vec(0u64..1_000_000, 0..500),
        ) {
            let mut merged = a.clone();
            merged.extend(&b);
            let samples = Samples::new(merged.clone());
            merged.sort_unstable();
            let mut last = 0u64;
            for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((q * merged.len() as f64).ceil() as usize).max(1);
                let p = samples.percentile(q);
                prop_assert_eq!(p, merged[rank - 1], "q={}", q);
                prop_assert!(p >= last, "percentile not monotone at q={}", q);
                last = p;
            }
            prop_assert_eq!(samples.count(), a.len() + b.len());
            prop_assert_eq!(samples.percentile(1.0), *merged.last().expect("a is non-empty"));
        }
    }
}
