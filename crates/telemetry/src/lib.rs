//! `li-telemetry`: lock-free, always-on observability for the index →
//! pieces → store stack.
//!
//! The paper's §IV decomposition measures every design dimension in
//! isolation; this crate gives the reproduction the same visibility at
//! runtime. It provides:
//!
//! - [`AtomicHistogram`]: fixed-bucket log₂ latency histograms
//!   (p50/p99/p999/max) recorded with relaxed atomics — wait-free on the
//!   hot path, no allocation after construction.
//! - [`Event`]: a typed structural-event taxonomy (`Retrain`,
//!   `SplitNode`, `BufferFlush`, `DeltaMerge`, `QuarantineSlot`,
//!   `ShardLockWait`, …) backed by per-event atomic counters.
//! - [`Recorder`]: a cloneable handle threaded through `li-core` traits.
//!   A default (disabled) recorder is a `None` — every recording method
//!   is a single branch and no clock is read, so uninstrumented runs pay
//!   nothing measurable. The store's GET/PUT/DELETE and the server's
//!   per-request timer use [`Recorder::start_sampled`]: every op is
//!   counted, about one in [`TIMED_EVERY`] is timed.
//! - [`TelemetrySnapshot`]: a plain-data snapshot of everything above,
//!   with caller-filled `NvmStats` device counters ([`NvmCounters`]) and
//!   shard-router cell rows ([`CellCounters`]; the router's own counters,
//!   keyed by cell bounds), and a dependency-free JSON serializer for
//!   `li-bench --telemetry` and the server's STATS.
//!
//! The crate depends only on `li-sync` (the workspace concurrency shim,
//! which is what lets the histogram/snapshot protocol be loom
//! model-checked), so every other crate can use it without layering
//! concerns.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::Instant;

use li_sync::sync::atomic::{AtomicU64, Ordering};
use li_sync::sync::Arc;

/// Structural events emitted by indexes and stores.
///
/// Each variant is a monotonically increasing counter. The taxonomy is
/// chosen so that every retraining/insertion strategy in the pieces
/// matrix — and every index crate built on it — leaves a distinguishable
/// fingerprint (asserted by `tests/telemetry_causality.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// A model (leaf or node) was retrained/rebuilt.
    Retrain,
    /// Keys that took part in retrains (summed over every `Retrain`).
    RetrainKeys,
    /// A retrain split one node into two or more (structural growth).
    SplitNode,
    /// A retrain expanded a node in place (gapped/ALEX-style expansion).
    ExpandNode,
    /// An insert buffer (delta buffer) was merged into its base model.
    BufferFlush,
    /// An LSM-style level/delta merge combined sorted runs.
    DeltaMerge,
    /// Recovery quarantined a corrupt slot instead of replaying it.
    QuarantineSlot,
    /// A shard lock was contended (fast try-acquire failed).
    ShardLockWait,
    /// Keys physically moved by a leaf insert or remove (shift count),
    /// counted at the op that moved them.
    KeyShift,
    /// A transient write failure was observed and the write re-attempted
    /// (one event per injected `WriteFailed` consumed by the store).
    Retry,
    /// A store-level retry slept through a seeded exponential backoff.
    BackoffWait,
    /// Maintenance re-resolved a quarantined slot that a later write had
    /// superseded; the slot was reclaimed with no data loss.
    RepairedSlot,
    /// A retrain trigger was queued for background maintenance instead
    /// of blocking the foreground insert.
    RetrainDeferred,
    /// A record was appended to the write-ahead log (one per logged
    /// put/delete, before the heap write).
    WalAppend,
    /// One group-commit flush/fence batch made a range of WAL appends
    /// durable (≤ WalAppend: a batch covers one or more appends).
    GroupCommit,
    /// A checkpoint (key → offset snapshot segment + manifest swap) was
    /// written durably.
    CheckpointWritten,
    /// Recovery replayed WAL records past the checkpoint watermark
    /// (counted per record applied).
    LogReplay,
    /// An online shard split committed: one hot shard range was cut into
    /// two at its median key behind an atomic boundary-table swap.
    ShardSplit,
    /// An online shard merge committed: two cold adjacent shard ranges
    /// were combined into one.
    ShardMerge,
    /// The adaptation tuner issued a decision (split/merge). Every
    /// tuner-driven `ShardSplit`/`ShardMerge` is preceded by exactly one
    /// of these; a decision whose cutover aborts leaves the count ahead.
    TunerDecision,
    /// A server accepted one client connection.
    ConnOpen,
    /// A server connection closed (clean or not; one per `ConnOpen`).
    ConnClose,
    /// A request's deadline expired before the store was touched; the
    /// work was shed with a typed `DEADLINE_EXCEEDED` response.
    DeadlineShed,
    /// A connection was dropped for slow-client protection (a response
    /// write stalled past the timeout, or the client idled out).
    SlowClientDrop,
    /// An inbound frame failed to decode (corrupt length, bad opcode,
    /// truncated body) and was answered/closed with a typed error.
    FrameReject,
    /// A request was refused with typed `CANCELLED` because the server
    /// was draining for shutdown.
    RequestCancelled,
    /// A request was shed with typed `RETRY_AFTER` by the server's own
    /// in-flight budget, before the store was touched.
    AdmissionShed,
}

impl Event {
    /// All variants, in counter-array order.
    pub const ALL: [Event; 27] = [
        Event::Retrain,
        Event::RetrainKeys,
        Event::SplitNode,
        Event::ExpandNode,
        Event::BufferFlush,
        Event::DeltaMerge,
        Event::QuarantineSlot,
        Event::ShardLockWait,
        Event::KeyShift,
        Event::Retry,
        Event::BackoffWait,
        Event::RepairedSlot,
        Event::RetrainDeferred,
        Event::WalAppend,
        Event::GroupCommit,
        Event::CheckpointWritten,
        Event::LogReplay,
        Event::ShardSplit,
        Event::ShardMerge,
        Event::TunerDecision,
        Event::ConnOpen,
        Event::ConnClose,
        Event::DeadlineShed,
        Event::SlowClientDrop,
        Event::FrameReject,
        Event::RequestCancelled,
        Event::AdmissionShed,
    ];

    pub const COUNT: usize = Self::ALL.len();

    #[inline]
    pub const fn idx(self) -> usize {
        self as usize
    }

    pub const fn name(self) -> &'static str {
        match self {
            Event::Retrain => "retrain",
            Event::RetrainKeys => "retrain_keys",
            Event::SplitNode => "split_node",
            Event::ExpandNode => "expand_node",
            Event::BufferFlush => "buffer_flush",
            Event::DeltaMerge => "delta_merge",
            Event::QuarantineSlot => "quarantine_slot",
            Event::ShardLockWait => "shard_lock_wait",
            Event::KeyShift => "key_shift",
            Event::Retry => "retry",
            Event::BackoffWait => "backoff_wait",
            Event::RepairedSlot => "repaired_slot",
            Event::RetrainDeferred => "retrain_deferred",
            Event::WalAppend => "wal_append",
            Event::GroupCommit => "group_commit",
            Event::CheckpointWritten => "checkpoint_written",
            Event::LogReplay => "log_replay",
            Event::ShardSplit => "shard_split",
            Event::ShardMerge => "shard_merge",
            Event::TunerDecision => "tuner_decision",
            Event::ConnOpen => "conn_open",
            Event::ConnClose => "conn_close",
            Event::DeadlineShed => "deadline_shed",
            Event::SlowClientDrop => "slow_client_drop",
            Event::FrameReject => "frame_reject",
            Event::RequestCancelled => "request_cancelled",
            Event::AdmissionShed => "admission_shed",
        }
    }
}

/// Operation classes with their own latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    Get,
    Insert,
    Remove,
    Scan,
    Put,
    Delete,
    Recovery,
    Retrain,
    LockWait,
    /// One background maintenance pass (retrain drain + repair).
    Maintenance,
    /// Attempts-per-retried-op histogram (unit: attempts, not ns).
    RetryAttempts,
    /// Time spent sleeping in retry backoff (ns).
    BackoffWait,
    /// End-to-end server GET (decode → store → response queued).
    ServerGet,
    /// End-to-end server PUT.
    ServerPut,
    /// End-to-end server DELETE.
    ServerDelete,
    /// End-to-end server SCAN.
    ServerScan,
    /// End-to-end server BATCH (whole batch, not per sub-command).
    ServerBatch,
    /// End-to-end server STATS.
    ServerStats,
    /// Time from the socket read that delivered a request to the start
    /// of its execution (ns); `server_queue` in STATS.
    ServerQueue,
}

impl OpKind {
    pub const ALL: [OpKind; 19] = [
        OpKind::Get,
        OpKind::Insert,
        OpKind::Remove,
        OpKind::Scan,
        OpKind::Put,
        OpKind::Delete,
        OpKind::Recovery,
        OpKind::Retrain,
        OpKind::LockWait,
        OpKind::Maintenance,
        OpKind::RetryAttempts,
        OpKind::BackoffWait,
        OpKind::ServerGet,
        OpKind::ServerPut,
        OpKind::ServerDelete,
        OpKind::ServerScan,
        OpKind::ServerBatch,
        OpKind::ServerStats,
        OpKind::ServerQueue,
    ];

    pub const COUNT: usize = Self::ALL.len();

    #[inline]
    pub const fn idx(self) -> usize {
        self as usize
    }

    pub const fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Insert => "insert",
            OpKind::Remove => "remove",
            OpKind::Scan => "scan",
            OpKind::Put => "put",
            OpKind::Delete => "delete",
            OpKind::Recovery => "recovery",
            OpKind::Retrain => "retrain",
            OpKind::LockWait => "lock_wait",
            OpKind::Maintenance => "maintenance",
            OpKind::RetryAttempts => "retry_attempts",
            OpKind::BackoffWait => "backoff_wait",
            OpKind::ServerGet => "server_get",
            OpKind::ServerPut => "server_put",
            OpKind::ServerDelete => "server_delete",
            OpKind::ServerScan => "server_scan",
            OpKind::ServerBatch => "server_batch",
            OpKind::ServerStats => "server_stats",
            OpKind::ServerQueue => "server_queue",
        }
    }
}

/// Bucket count: bucket `b` holds values whose bit-length is `b`, i.e.
/// value 0 → bucket 0, value `v > 0` → bucket `64 - v.leading_zeros()`.
/// Nanosecond latencies up to `u64::MAX` land in buckets 0..=64.
///
/// Under `--cfg loom` the array shrinks so a histogram snapshot is a
/// handful of scheduling points instead of 65 — the record/snapshot
/// protocol being model-checked is bucket-count independent.
#[cfg(not(loom))]
pub const HIST_BUCKETS: usize = 65;
#[cfg(loom)]
pub const HIST_BUCKETS: usize = 8;

/// Lock-free fixed-bucket log₂ histogram.
///
/// `count` is exact: every recorded op bumps it, sampled or not. The
/// buckets, `sum`, `min` and `max` hold the *samples* — the ops whose
/// value was measured ([`AtomicHistogram::record`]; an unsampled op only
/// calls [`AtomicHistogram::count_op`]). `record` is three atomic RMWs plus
/// two bounded CAS loops for min/max — no locks, no allocation. Relative
/// bucket error is at most 2× which is far below run-to-run latency
/// variance; percentile estimates interpolate inside the winning bucket.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn bucket_of(value: u64) -> usize {
        ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// Inclusive upper edge of a bucket.
    fn bucket_high(b: usize) -> u64 {
        if b == 0 {
            0
        } else if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// Counts one op and records its measured `value` as a sample. The
    /// count is bumped before the bucket, and the bucket with `Release`,
    /// so a snapshot that sees the sample (loading buckets before `count`)
    /// sees its op counted.
    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Release);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Counts one op whose value was not measured (an unsampled timer).
    #[inline]
    pub fn count_op(&self) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Ops counted so far, sampled or not.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; HIST_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        // Pairs with `record`'s Release bucket bump: every sample loaded
        // above had its op counted before it, so `samples <= count`.
        li_sync::sync::atomic::fence(Ordering::Acquire);
        let count = self.count.load(Ordering::Relaxed);
        let samples: u64 = buckets.iter().sum();
        let sum = self.sum.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        // Percentile estimate: upper edge of the bucket containing the
        // target rank, clamped to the observed max.
        let pct_edge = |q_num: u64, q_den: u64| -> u64 {
            if samples == 0 {
                return 0;
            }
            let rank = (samples * q_num).div_ceil(q_den).max(1);
            let mut seen = 0u64;
            for (b, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return Self::bucket_high(b).min(max);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            samples,
            sum,
            min: if samples == 0 { 0 } else { min },
            max,
            p50: pct_edge(50, 100),
            p90: pct_edge(90, 100),
            p99: pct_edge(99, 100),
            p999: pct_edge(999, 1000),
        }
    }
}

/// Plain-data view of one histogram. All values in the recorded unit
/// (nanoseconds for latency histograms). `count` is every op counted;
/// `sum`, `min`, `max`, the percentiles and [`HistogramSnapshot::mean`]
/// cover the `samples` among them, so for a kind timed with
/// [`Recorder::start_sampled`] a rare outlier can fall between samples
/// and be missing from `p999` and `max`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub samples: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub p999: u64,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }
}

/// The shared metric store behind an enabled [`Recorder`].
#[derive(Debug)]
pub struct Metrics {
    events: [AtomicU64; Event::COUNT],
    ops: [AtomicHistogram; OpKind::COUNT],
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    pub fn new() -> Self {
        Metrics {
            events: std::array::from_fn(|_| AtomicU64::new(0)),
            ops: std::array::from_fn(|_| AtomicHistogram::new()),
        }
    }
}

/// A started latency measurement. Holds a clock reading only when the
/// recorder that produced it was enabled (and, for
/// [`Recorder::start_sampled`], the op was sampled), so `Recorder::start`
/// on a disabled recorder never touches the clock.
#[derive(Debug, Clone, Copy)]
#[must_use = "pass the timer back to Recorder::finish"]
pub struct OpTimer(Option<Instant>);

/// [`Recorder::start_sampled`] times about one op in `TIMED_EVERY` per
/// thread; the rest are counted without reading the clock. One clock
/// read costs about as much as the store's cheapest op on a VM, so timing
/// every GET and PUT would be most of what the recorder costs.
pub const TIMED_EVERY: u32 = 16;

// The per-thread sampler: a xorshift32 state, so a periodic op mix (every
// other op a GET, say) cannot line up with the sampled ops. Compiled out
// under loom, where `start_sampled` times every op and the models stay
// deterministic.
#[cfg(not(loom))]
std::thread_local! {
    static SAMPLER: std::cell::Cell<u32> = const { std::cell::Cell::new(0x9e37_79b9) };
}

/// Advances this thread's sampler; true for about one call in
/// [`TIMED_EVERY`].
#[cfg(not(loom))]
#[inline]
fn sample_this_op() -> bool {
    SAMPLER.with(|s| {
        let mut x = s.get();
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        s.set(x);
        x % TIMED_EVERY == 0
    })
}

#[cfg(loom)]
#[inline]
fn sample_this_op() -> bool {
    true
}

/// Cloneable handle used by instrumented code.
///
/// `Recorder::default()` (or [`Recorder::disabled`]) is a no-op handle:
/// every method is one branch on a `None`. [`Recorder::enabled`]
/// allocates the shared [`Metrics`] store; clones share it.
#[derive(Debug, Clone, Default)]
pub struct Recorder(Option<Arc<Metrics>>);

impl Recorder {
    /// The no-op recorder (same as `Recorder::default()`).
    pub const fn disabled() -> Self {
        Recorder(None)
    }

    /// A live recorder with a fresh metric store.
    pub fn enabled() -> Self {
        Recorder(Some(Arc::new(Metrics::new())))
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Count one occurrence of `event`.
    #[inline]
    pub fn event(&self, event: Event) {
        if let Some(m) = &self.0 {
            m.events[event.idx()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count `n` occurrences of `event` (e.g. keys shifted).
    #[inline]
    pub fn event_n(&self, event: Event, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(m) = &self.0 {
            m.events[event.idx()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current count for `event` (0 when disabled).
    pub fn event_count(&self, event: Event) -> u64 {
        match &self.0 {
            Some(m) => m.events[event.idx()].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Begin timing an operation. Reads the clock only when enabled.
    #[inline]
    pub fn start(&self) -> OpTimer {
        if self.0.is_some() {
            OpTimer(Some(Instant::now()))
        } else {
            OpTimer(None)
        }
    }

    /// Begin timing a hot operation: like [`Recorder::start`], but reads
    /// the clock for only about one call in [`TIMED_EVERY`] per thread.
    /// [`Recorder::finish`] still counts every op exactly; the histogram's
    /// latencies are that sample's. A disabled recorder touches neither
    /// the clock nor the sampler.
    #[inline]
    pub fn start_sampled(&self) -> OpTimer {
        if self.0.is_some() && sample_this_op() {
            OpTimer(Some(Instant::now()))
        } else {
            OpTimer(None)
        }
    }

    /// Finish timing: counts one op of `kind` and, if the timer holds a
    /// clock reading, records its latency as a sample.
    #[inline]
    pub fn finish(&self, kind: OpKind, timer: OpTimer) {
        if let Some(m) = &self.0 {
            let h = &m.ops[kind.idx()];
            match timer.0 {
                Some(t0) => h.record(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64),
                None => h.count_op(),
            }
        }
    }

    /// Record a pre-measured duration (nanoseconds) into `kind`.
    #[inline]
    pub fn record_ns(&self, kind: OpKind, ns: u64) {
        if let Some(m) = &self.0 {
            m.ops[kind.idx()].record(ns);
        }
    }

    /// Record one retrain that began at `started` and rebuilt `keys` keys:
    /// [`Event::Retrain`], its exact time in [`OpKind::Retrain`] and
    /// `keys` in [`Event::RetrainKeys`]. The one retrain ledger.
    #[inline]
    pub fn retrained(&self, started: Instant, keys: u64) {
        if let Some(m) = &self.0 {
            m.events[Event::Retrain.idx()].fetch_add(1, Ordering::Relaxed);
            m.events[Event::RetrainKeys.idx()].fetch_add(keys, Ordering::Relaxed);
            m.ops[OpKind::Retrain.idx()]
                .record(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        }
    }

    /// Histogram count for `kind` (0 when disabled).
    pub fn op_count(&self, kind: OpKind) -> u64 {
        match &self.0 {
            Some(m) => m.ops[kind.idx()].count(),
            None => 0,
        }
    }

    /// Record a contended shard-lock acquisition timed by `timer`: bumps
    /// the [`Event::ShardLockWait`] event and the `LockWait` histogram.
    /// The router counts the wait on the cell itself.
    #[inline]
    pub fn shard_lock_wait(&self, timer: OpTimer) {
        self.event(Event::ShardLockWait);
        self.finish(OpKind::LockWait, timer);
    }

    /// Capture everything recorded so far. On a disabled recorder this
    /// returns an all-zero snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let Some(m) = &self.0 else {
            return TelemetrySnapshot::default();
        };
        li_sync::sync::atomic::fence(Ordering::Acquire);
        let events: [u64; Event::COUNT] =
            std::array::from_fn(|i| m.events[i].load(Ordering::Relaxed));
        let ops: [HistogramSnapshot; OpKind::COUNT] = std::array::from_fn(|i| m.ops[i].snapshot());
        TelemetrySnapshot { events, ops, nvm: NvmCounters::default(), cells: Vec::new() }
    }
}

/// Device-level counters folded into a [`TelemetrySnapshot`]. Mirrors
/// `li-nvm`'s `NvmStatsSnapshot` as plain data so this crate stays
/// dependency-free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NvmCounters {
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub flushes: u64,
    pub fences: u64,
    pub faults_injected: u64,
}

/// One shard-router cell, read from the router's own counters. Rows are
/// keyed by the cell's key range, not its position, which a split or
/// merge shifts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCounters {
    /// Stable cell id: never reused, and new on every split and merge.
    pub cell: u64,
    /// Lowest key the cell owns; it ends where the next row's begins.
    pub lower: u64,
    /// Live keys in the cell.
    pub len: usize,
    /// Reads, writes and scan visits routed to the cell since it was
    /// created.
    pub ops: u64,
    /// Write-lock acquisitions on the cell that had to wait.
    pub lock_waits: u64,
}

/// Plain-data capture of a [`Recorder`]'s state, plus NVM device
/// counters and router cell rows when the caller has them.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    events: [u64; Event::COUNT],
    ops: [HistogramSnapshot; OpKind::COUNT],
    pub nvm: NvmCounters,
    /// One row per router cell, in boundary order.
    pub cells: Vec<CellCounters>,
}

impl TelemetrySnapshot {
    pub fn event(&self, event: Event) -> u64 {
        self.events[event.idx()]
    }

    pub fn op(&self, kind: OpKind) -> &HistogramSnapshot {
        &self.ops[kind.idx()]
    }

    /// Contended shard-lock acquisitions ([`Event::ShardLockWait`]).
    pub fn total_lock_waits(&self) -> u64 {
        self.event(Event::ShardLockWait)
    }

    /// Serialize to a self-contained JSON object (no external deps).
    /// Zero-count op histograms are omitted.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"events\":{");
        for (i, e) in Event::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", e.name(), self.events[e.idx()]);
        }
        out.push_str("},\"ops\":{");
        let mut first = true;
        for k in OpKind::ALL {
            let h = &self.ops[k.idx()];
            if h.count == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out,
                "\"{}\":{{\"count\":{},\"samples\":{},\"mean_ns\":{:.1},\"min_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"max_ns\":{}}}",
                k.name(),
                h.count,
                h.samples,
                h.mean(),
                h.min,
                h.p50,
                h.p90,
                h.p99,
                h.p999,
                h.max
            );
        }
        out.push_str("},\"cells\":[");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"lower\":{},\"len\":{},\"ops\":{},\"lock_waits\":{}}}",
                c.lower, c.len, c.ops, c.lock_waits
            );
        }
        let _ = write!(out,
            "],\"nvm\":{{\"reads\":{},\"writes\":{},\"bytes_read\":{},\"bytes_written\":{},\"flushes\":{},\"fences\":{},\"faults_injected\":{}}}}}",
            self.nvm.reads,
            self.nvm.writes,
            self.nvm.bytes_read,
            self.nvm.bytes_written,
            self.nvm.flushes,
            self.nvm.fences,
            self.nvm.faults_injected
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let h = AtomicHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // log₂ buckets: each estimate is within 2× of the true quantile.
        assert!(s.p50 >= 500 && s.p50 <= 1023, "p50={}", s.p50);
        assert!(s.p99 >= 990 / 2 && s.p99 <= 1000, "p99={}", s.p99);
        assert!(s.p999 >= 999 / 2 && s.p999 <= 1000, "p999={}", s.p999);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.p999);
        assert!((s.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn histogram_empty_and_zero() {
        let h = AtomicHistogram::new();
        let s = h.snapshot();
        assert_eq!(s, HistogramSnapshot::default());
        h.record(0);
        let s = h.snapshot();
        assert_eq!((s.count, s.min, s.max, s.p999), (1, 0, 0, 0));
    }

    #[test]
    fn recorder_events_and_ops() {
        let r = Recorder::enabled();
        r.event(Event::Retrain);
        r.event_n(Event::KeyShift, 41);
        r.event_n(Event::KeyShift, 0); // no-op
        let t = r.start();
        r.finish(OpKind::Get, t);
        r.record_ns(OpKind::Insert, 123);
        r.shard_lock_wait(r.start());
        let s = r.snapshot();
        assert_eq!(s.event(Event::Retrain), 1);
        assert_eq!(s.event(Event::KeyShift), 41);
        assert_eq!(s.event(Event::ShardLockWait), 1);
        assert_eq!(s.op(OpKind::Get).count, 1);
        assert_eq!(s.op(OpKind::Insert).count, 1);
        assert_eq!(s.op(OpKind::LockWait).count, 1);
        assert_eq!(s.total_lock_waits(), 1);
        assert!(s.cells.is_empty(), "cell rows are the caller's to fill");
    }

    #[test]
    fn retrained_counts_times_and_sizes_each_retrain() {
        let r = Recorder::enabled();
        let two_ms_ago = Instant::now().checked_sub(std::time::Duration::from_millis(2)).unwrap();
        r.retrained(two_ms_ago, 300);
        r.retrained(Instant::now(), 100);
        let s = r.snapshot();
        assert_eq!((s.event(Event::Retrain), s.event(Event::RetrainKeys)), (2, 400));
        let h = s.op(OpKind::Retrain);
        assert_eq!((h.count, h.samples), (2, 2), "every retrain timed exactly");
        assert!(h.max >= 2_000_000, "the first retrain's elapsed time: {} ns", h.max);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.event(Event::Retrain);
        r.retrained(Instant::now(), 5);
        r.record_ns(OpKind::Get, 10);
        let t = r.start();
        r.finish(OpKind::Get, t);
        r.shard_lock_wait(r.start());
        let s = r.snapshot();
        assert_eq!((s.event(Event::Retrain), s.event(Event::RetrainKeys)), (0, 0));
        assert_eq!(s.op(OpKind::Get).count, 0);
        assert_eq!(s.total_lock_waits(), 0);
    }

    #[test]
    fn sampled_timers_count_every_op_and_time_about_one_in_sixteen() {
        let r = Recorder::enabled();
        let n = 16_384u64;
        for _ in 0..n {
            let t = r.start_sampled();
            r.finish(OpKind::Get, t);
        }
        let h = *r.snapshot().op(OpKind::Get);
        assert_eq!(h.count, n, "every op counted");
        assert_eq!(r.op_count(OpKind::Get), n);
        assert!(
            (n / 32..=n / 8).contains(&h.samples),
            "{} samples of {n} ops, want about 1 in {TIMED_EVERY}",
            h.samples
        );
        assert!(h.min <= h.p50 && h.p50 <= h.max);
    }

    #[test]
    fn start_always_times() {
        let r = Recorder::enabled();
        for _ in 0..1_000 {
            let t = r.start();
            r.finish(OpKind::Recovery, t);
        }
        r.record_ns(OpKind::Recovery, 7);
        let h = *r.snapshot().op(OpKind::Recovery);
        assert_eq!((h.count, h.samples), (1_001, 1_001));
    }

    #[test]
    fn unsampled_ops_count_but_leave_the_latencies_alone() {
        let h = AtomicHistogram::new();
        h.record(100);
        for _ in 0..3 {
            h.count_op();
        }
        let s = h.snapshot();
        assert_eq!((s.count, s.samples, s.min, s.max), (4, 1, 100, 100));
        assert!((s.mean() - 100.0).abs() < f64::EPSILON, "mean is over samples");
        assert!(s.p50 >= 64 && s.p999 <= 100, "percentiles are over samples");
    }

    #[cfg(not(loom))]
    #[test]
    fn disabled_recorder_touches_neither_clock_nor_sampler() {
        let state = || SAMPLER.with(std::cell::Cell::get);
        let before = state();
        let r = Recorder::disabled();
        for _ in 0..64 {
            let t = r.start_sampled();
            assert!(t.0.is_none(), "a disabled recorder read the clock");
            r.finish(OpKind::Get, t);
        }
        assert_eq!(state(), before, "a disabled recorder advanced the sampler");
        let on = Recorder::enabled();
        let t = on.start_sampled();
        on.finish(OpKind::Get, t);
        assert_ne!(state(), before, "an enabled recorder draws from the sampler");
    }

    #[test]
    fn clones_share_metrics() {
        let r = Recorder::enabled();
        let r2 = r.clone();
        r2.event(Event::BufferFlush);
        assert_eq!(r.event_count(Event::BufferFlush), 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let r = Recorder::enabled();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                li_sync::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        r.event(Event::Retrain);
                        r.record_ns(OpKind::Insert, i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = r.snapshot();
        assert_eq!(s.event(Event::Retrain), 40_000);
        assert_eq!(s.op(OpKind::Insert).count, 40_000);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = Recorder::enabled();
        r.event(Event::DeltaMerge);
        r.event_n(Event::AdmissionShed, 3);
        r.record_ns(OpKind::Put, 100);
        let mut s = r.snapshot();
        s.nvm.writes = 7;
        s.cells = vec![
            CellCounters { cell: 0, lower: 0, len: 5, ops: 9, lock_waits: 0 },
            CellCounters { cell: 3, lower: 640, len: 2, ops: 1, lock_waits: 4 },
        ];
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"delta_merge\":1"));
        // The last event of the counter array closes the events object.
        assert!(j.contains("\"admission_shed\":3},\"ops\""));
        assert!(j.contains("\"put\":{\"count\":1"));
        assert!(j.contains("\"writes\":7"));
        assert!(j.contains(
            "\"cells\":[{\"lower\":0,\"len\":5,\"ops\":9,\"lock_waits\":0},{\"lower\":640,"
        ));
        // Zero-count histograms are omitted.
        assert!(!j.contains("\"scan\""));
    }

    /// CI smoke assertion: the disabled recorder adds no measurable
    /// overhead. 20M no-op recordings must finish in well under a
    /// second; with a real branch-free-ish `None` check this is ~10ms
    /// even unoptimized, so the bound only trips if the no-op path
    /// starts doing real work (clock reads, allocation, locking).
    #[test]
    fn noop_overhead_smoke() {
        let r = Recorder::disabled();
        let t0 = Instant::now();
        for i in 0..20_000_000u64 {
            r.event(Event::Retrain);
            r.record_ns(OpKind::Get, i);
            let t = r.start();
            r.finish(OpKind::Get, t);
        }
        let dt = t0.elapsed();
        assert!(
            dt < std::time::Duration::from_secs(2),
            "no-op recorder too slow: {dt:?} for 20M iterations"
        );
    }
}
