//! Range sharding: lift any single-writer index into concurrent service —
//! and adapt the shard layout online.
//!
//! The paper's multi-threaded write experiment (Fig. 14, §III-C2) could
//! only run XIndex because it is the sole learned index with native
//! concurrent writes (Table I). [`Sharded`] removes that limitation: the
//! key space is cut into contiguous ranges at CDF-balanced boundaries
//! (equal key mass per shard, estimated from the bulk-load keys), each
//! range served by an independent index behind its own reader-writer
//! lock. Writers touching different shards never contend; readers never
//! block each other.
//!
//! Every shard cell owns a `Box<dyn ShardIndex>` made by the router's one
//! builder, so a kind picked at runtime needs no generic parameter. The
//! router keeps that builder, so every router can re-cut its layout: two
//! online adaptations are one cutover, `Sharded::recut`, under two plans
//! (see `DESIGN.md` "Adaptation"):
//!
//! * **split** — a hot shard's range is cut at its median key into two
//!   cells ([`Sharded::force_split`]);
//! * **merge** — two cold adjacent cells fold into one
//!   ([`Sharded::force_merge`]).
//!
//! The cutover never blocks readers while the replacement index is built:
//! a bounded **side log** opens on the cell (writers keep applying to the
//! live index *and* append to the log), the old index is snapshotted
//! under a read lock, the replacement is built lock-free, and commit —
//! under the boundary-table write lock — replays the log and swaps the
//! cell atomically. Replay is idempotent because ops are absolute
//! (`insert k=v` / `remove k`). A log that overflows `SIDE_CAP` aborts
//! the cutover; the live index already has every write, so nothing is
//! lost.
//!
//! Decisions come from [`crate::tuner::Tuner`] over always-on per-cell
//! counters ([`Sharded::run_adaptation`], called by Viper's maintenance
//! worker). An index that is already write-concurrent (XIndex) is served
//! by the same router: one cell plus [`Sharded::set_allow_native`]. The
//! tuner never re-cuts a one-cell router, so that route and the
//! global-lock baseline keep their single cell.

use li_sync::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use li_sync::sync::{Arc, Mutex, RwLock, RwLockWriteGuard};

use crate::traits::{BulkBuildIndex, ConcurrentIndex, Index, OrderedIndex, UpdatableIndex};
use crate::tuner::{Tuner, TunerAction};
use crate::types::{Key, KeyValue, Value};
use li_telemetry::{CellCounters, Event, Recorder};

/// Object-safe face a shard cell needs from its inner index: reads
/// ([`Index`]), single-writer mutation ([`UpdatableIndex`]) and ordered
/// scans ([`OrderedIndex`]). Blanket-implemented, so every index in the
/// workspace with those three already is one. [`BulkBuildIndex`] is
/// deliberately excluded (it is not object safe); construction goes
/// through builder closures instead.
pub trait ShardIndex: Index + UpdatableIndex + OrderedIndex {}

impl<T: Index + UpdatableIndex + OrderedIndex> ShardIndex for T {}

/// What a shard cell actually owns.
pub type BoxShard = Box<dyn ShardIndex>;

/// Bulk constructor of every cell a router builds: the bulk load's and
/// every cutover's.
type ShardBuilder = Box<dyn Fn(&[KeyValue]) -> BoxShard + Send + Sync>;

/// Max writes buffered per cell while its replacement builds; an
/// overflow aborts that cutover (retried after the tuner cooldown).
const SIDE_CAP: usize = 1 << 16;

/// Why a split/merge did not commit. All variants are recoverable:
/// the live index keeps serving and retains every write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptError {
    /// Another rebuild already owns this cell's side log.
    Busy,
    /// The position no longer matches the live table (a concurrent
    /// adaptation moved it); re-observe and retry.
    Stale,
    /// The shard holds too few (or all-identical) keys to cut.
    CannotSplit,
    /// Shard-count bounds ([`MAX_SHARDS`], or merging the last shard).
    Limit,
    /// The side log overflowed `SIDE_CAP` while the replacement was
    /// building; the cutover aborted (the live index has every write).
    SideOverflow,
}

/// One write buffered by an in-flight cutover. Absolute, not relative —
/// replaying a prefix twice is idempotent.
#[derive(Debug, Clone, Copy)]
enum SideOp {
    Put(Key, Value),
    Del(Key),
}

/// Bounded log of writes that landed on a cell while its replacement
/// index was building. Writers apply to the live index *and* append
/// here; commit replays the log into the replacement.
#[derive(Debug)]
struct SideLog {
    ops: Vec<SideOp>,
    cap: usize,
    overflowed: bool,
}

impl SideLog {
    fn new(cap: usize) -> Self {
        SideLog { ops: Vec::new(), cap, overflowed: false }
    }

    fn push(&mut self, op: SideOp) {
        if self.ops.len() < self.cap {
            self.ops.push(op);
        } else {
            self.overflowed = true;
        }
    }
}

/// The lock-protected interior of a shard cell.
struct ShardState {
    index: BoxShard,
    /// `Some` while a rebuild of this cell is in flight; writers must go
    /// through the exclusive path and log here (the native fast path
    /// checks this under the read lock and stands down).
    side: Option<SideLog>,
}

/// One shard: a stable identity and the locked index.
/// Cells are immutable apart from their interior lock — every committed
/// adaptation publishes *new* cells, which is what gives the tuner a
/// fresh dwell clock and readers a consistent `(boundary, cell)` pair.
struct ShardCell {
    /// Monotonic id; survives epochs, never reused. The tuner keys its
    /// per-cell history on this.
    id: u64,
    /// Cached `index.native_writer().is_some()` so the write path skips
    /// the probe (and the read-lock acquisition) for non-native kinds.
    native: bool,
    lock: RwLock<ShardState>,
    /// Always-on count of reads, writes and scan visits routed here — the
    /// tuner's input, independent of the opt-in telemetry recorder, so
    /// adaptation works with telemetry off.
    ops: AtomicU64,
    /// Always-on count of write-lock acquisitions that had to wait.
    lock_waits: AtomicU64,
}

impl ShardCell {
    fn create(id: u64, index: BoxShard) -> Arc<Self> {
        let native = index.native_writer().is_some();
        Arc::new(ShardCell {
            id,
            native,
            // `ordered`: a merge commit holds two cells at once, always
            // left-to-right in boundary order (see `Sharded::commit`).
            lock: RwLock::with_class(
                li_sync::lock_class!("shard-cell", ordered),
                ShardState { index, side: None },
            ),
            ops: AtomicU64::new(0),
            lock_waits: AtomicU64::new(0),
        })
    }
}

/// The boundary table: `cells[s]` owns keys in `[lower[s], lower[s+1])`;
/// `lower[0] == 0` and the last cell extends to [`Key::MAX`], so every
/// key routes to exactly one cell — no gaps, no overlaps
/// (property-tested below). Swapped wholesale under its `RwLock` by
/// committed adaptations; ops hold the read side for their duration, so
/// a cutover's write acquisition is itself the epoch barrier — when it
/// is granted, no op holds a stale `(boundary, cell)` pair.
struct Table {
    lower: Vec<Key>,
    cells: Vec<Arc<ShardCell>>,
}

impl Table {
    #[inline]
    fn shard_of(&self, key: Key) -> usize {
        // lower[0] == 0 <= key always, so the partition point is >= 1.
        self.lower.partition_point(|&b| b <= key) - 1
    }

    /// Live position of a cell by identity — positions shift as other
    /// cells split/merge, ids never do.
    fn pos_of(&self, id: u64) -> Option<usize> {
        self.cells.iter().position(|c| c.id == id)
    }
}

/// A range-partitioned router over `1..=MAX_SHARDS` shard cells (each a
/// `Box<dyn ShardIndex>`), giving single-writer indexes a
/// [`ConcurrentIndex`] face plus ordered range scans, and re-cutting its
/// layout online: shard split/merge driven by [`crate::tuner::Tuner`].
pub struct Sharded {
    table: RwLock<Table>,
    recorder: Recorder,
    /// Allow writes through an inner index's shared-reference
    /// [`crate::traits::NativeWriter`] surface under the cell *read*
    /// lock (the XIndex route). Off by default so the sharded and
    /// global-lock routes keep exclusive-writer semantics.
    allow_native: bool,
    /// Deferred-retrain mode, re-applied to indexes built by adaptation
    /// so a split or merged shard keeps the store's maintenance contract.
    defer_retrains: AtomicBool,
    /// Builds every cell: the bulk load's and every cutover's pieces.
    builder: ShardBuilder,
    tuner: Mutex<Tuner>,
    next_cell_id: AtomicU64,
}

/// Hard cap on shard count — beyond this the boundary table itself starts
/// to cost a cache line per probe for no extra parallelism on any machine
/// this runs on.
pub const MAX_SHARDS: usize = 4096;

impl Sharded {
    /// Builds a sharded index from sorted `(key, value)` pairs,
    /// constructing each shard with `build` over its slice of the input.
    /// The router keeps `build`: [`Sharded::run_adaptation`] rebuilds
    /// split and merged pieces with it.
    ///
    /// Boundaries are CDF-balanced: each shard receives an equal count of
    /// the bulk-load keys, so a skewed distribution still spreads load.
    /// Duplicate boundary samples (possible under duplicate-heavy or
    /// extremely skewed key sets) are deduplicated — the shard count
    /// shrinks rather than leaving an empty zero-width range. If `data`
    /// has fewer keys than requested shards (including the empty bulk
    /// load of a store that starts cold), boundaries fall back to a
    /// uniform split of the whole key domain.
    pub fn build_with<B: ShardIndex + 'static>(
        shards: usize,
        data: &[KeyValue],
        build: impl Fn(&[KeyValue]) -> B + Send + Sync + 'static,
    ) -> Self {
        Self::build_boxed(shards, data, move |chunk| Box::new(build(chunk)) as BoxShard)
    }

    /// [`Sharded::build_with`] using the index's own bulk constructor:
    /// `Sharded::build::<MapIndex>(8, &data)`.
    pub fn build<I: ShardIndex + BulkBuildIndex + 'static>(
        shards: usize,
        data: &[KeyValue],
    ) -> Self {
        Self::build_with(shards, data, I::build)
    }

    /// [`Sharded::build_with`] for a builder that already yields the
    /// type-erased handle (a runtime-selected kind), so no second box is
    /// wrapped around it.
    pub fn build_boxed(
        shards: usize,
        data: &[KeyValue],
        build: impl Fn(&[KeyValue]) -> BoxShard + Send + Sync + 'static,
    ) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(shards <= MAX_SHARDS, "too many shards ({shards} > {MAX_SHARDS})");
        debug_assert!(data.windows(2).all(|w| w[0].0 <= w[1].0), "bulk load keys must be sorted");
        let mut lower: Vec<Key> = vec![0];
        if data.len() >= shards {
            for s in 1..shards {
                let b = data[s * data.len() / shards].0;
                // Dedupe boundary samples: duplicate-heavy key sets can
                // repeat a sample, and an empty zero-width range would
                // break the strictly-increasing routing invariant.
                if lower.last().is_some_and(|&l| b > l) {
                    lower.push(b);
                }
            }
        } else if shards > 1 {
            // Too few keys to estimate a CDF: split the domain uniformly.
            // `step >= 1` because `shards <= MAX_SHARDS << Key::MAX`, so
            // these bounds are strictly increasing by construction.
            let step = Key::MAX / shards as Key;
            lower.extend((1..shards).map(|s| s as Key * step));
        }
        let mut cells = Vec::with_capacity(lower.len());
        let mut start = 0usize;
        let mut next_id = 0u64;
        for s in 0..lower.len() {
            let end = match lower.get(s + 1) {
                Some(&hi) => start + data[start..].partition_point(|kv| kv.0 < hi),
                None => data.len(),
            };
            cells.push(ShardCell::create(next_id, build(&data[start..end])));
            next_id += 1;
            start = end;
        }
        Sharded {
            table: RwLock::with_class(li_sync::lock_class!("shard-table"), Table { lower, cells }),
            recorder: Recorder::disabled(),
            allow_native: false,
            defer_retrains: AtomicBool::new(false),
            builder: Box::new(build),
            tuner: Mutex::with_class(li_sync::lock_class!("shard-tuner"), Tuner::default()),
            next_cell_id: AtomicU64::new(next_id),
        }
    }

    /// Permits writes through an inner index's shared-reference
    /// [`crate::traits::NativeWriter`] under the cell read lock. Only
    /// meaningful when a shard's index exposes one (XIndex); everything
    /// else keeps using the exclusive path.
    pub fn set_allow_native(&mut self, on: bool) {
        self.allow_native = on;
    }

    /// Number of shards currently live (changes as adaptation splits and
    /// merges; below the build request when the bulk-load keys could not
    /// support that many distinct boundaries).
    pub fn shard_count(&self) -> usize {
        self.table.read().cells.len()
    }

    /// The strictly-increasing lower bound of each shard's key range at
    /// this instant; `boundaries()[0] == 0` and the last shard extends
    /// to [`Key::MAX`]. A snapshot — adaptation may change it.
    pub fn boundaries(&self) -> Vec<Key> {
        self.table.read().lower.clone()
    }

    #[cfg(test)]
    fn shard_of(&self, key: Key) -> usize {
        self.table.read().shard_of(key)
    }

    /// Acquires a cell's write lock, counting contention on the cell and,
    /// when a telemetry recorder is attached, timing the wait into the
    /// [`Event::ShardLockWait`] counter and `LockWait` histogram.
    #[inline]
    fn write_cell<'a>(&self, cell: &'a ShardCell) -> RwLockWriteGuard<'a, ShardState> {
        if let Some(g) = cell.lock.try_write() {
            return g;
        }
        cell.lock_waits.fetch_add(1, Ordering::Relaxed);
        let t0 = self.recorder.start();
        let g = cell.lock.write();
        self.recorder.shard_lock_wait(t0);
        g
    }

    /// One routed write of `key`: the native fast path (shared-reference
    /// write under the cell read lock) when the cell's kind supports it,
    /// no cutover is draining, and the router allows it — else the
    /// exclusive path, which also feeds the side log of an in-flight
    /// rebuild. The table read lock is held for the whole op, which is
    /// what makes the routed `(boundary, cell)` pair stable against
    /// concurrent cutovers.
    fn apply(&self, key: Key, op: WriteOp) -> Option<Value> {
        let t = self.table.read();
        let cell = &t.cells[t.shard_of(key)];
        cell.ops.fetch_add(1, Ordering::Relaxed);
        if self.allow_native && cell.native {
            let g = cell.lock.read();
            // The side flag flips only under the cell write lock, which
            // excludes this read guard: checking and writing under one
            // guard cannot race a cutover opening the log.
            if g.side.is_none() {
                if let Some(w) = g.index.native_writer() {
                    return match op {
                        WriteOp::Put(v) => w.insert(key, v),
                        WriteOp::Del => w.remove(key),
                    };
                }
            }
        }
        let mut g = self.write_cell(cell);
        match op {
            WriteOp::Put(v) => {
                let prev = g.index.insert(key, v);
                if let Some(side) = g.side.as_mut() {
                    side.push(SideOp::Put(key, v));
                }
                prev
            }
            WriteOp::Del => {
                let prev = g.index.remove(key);
                if let Some(side) = g.side.as_mut() {
                    side.push(SideOp::Del(key));
                }
                prev
            }
        }
    }
}

/// A routed write, so insert and remove share one code path.
enum WriteOp {
    Put(Value),
    Del,
}

// ---------------------------------------------------------------------------
// Online adaptation: one cutover (`recut`) under two plans + the tuner loop.
// ---------------------------------------------------------------------------

/// What a cutover replaces its old cells with.
#[derive(Debug, Clone, Copy)]
enum Plan {
    /// One cell → two, cut at the snapshot median.
    Split,
    /// Two adjacent cells → one.
    Merge,
}

impl Plan {
    /// How many adjacent live cells the plan retires.
    fn old_cells(self) -> usize {
        match self {
            Plan::Split => 1,
            Plan::Merge => 2,
        }
    }

    fn event(self) -> Event {
        match self {
            Plan::Split => Event::ShardSplit,
            Plan::Merge => Event::ShardMerge,
        }
    }
}

impl Sharded {
    fn next_id(&self) -> u64 {
        self.next_cell_id.fetch_add(1, Ordering::Relaxed)
    }

    /// One adaptation epoch: sample counters, ask the tuner, execute its
    /// decision. Returns 1 if a structural action *committed*, else 0;
    /// an aborted cutover (e.g. side-log overflow) charges the tuner's
    /// cooldown instead. Called by Viper's maintenance worker via
    /// [`ConcurrentIndex::run_adaptation`]; always 0 on a one-cell
    /// router, which the tuner never re-cuts.
    pub fn run_adaptation(&self) -> usize {
        let obs = self.observe_cells();
        let Some(action) = self.tuner.lock().observe(&obs) else { return 0 };
        self.recorder.event(Event::TunerDecision);
        if self.execute(action).is_ok() {
            1
        } else {
            self.tuner.lock().penalize();
            0
        }
    }

    /// Executes one tuner decision. Actions name cells by id, so a forced
    /// split or merge that shifted positions (or retired the cell) since
    /// the decision cannot redirect it onto a neighbour the tuner never
    /// judged: a cell that is gone answers `Stale`.
    fn execute(&self, action: TunerAction) -> Result<(), AdaptError> {
        match action {
            TunerAction::Split { cell } => self.recut_at(|t| t.pos_of(cell), Plan::Split),
            TunerAction::Merge { left, right } => self.recut_at(
                |t| t.pos_of(left).filter(|&p| t.cells.get(p + 1).is_some_and(|c| c.id == right)),
                Plan::Merge,
            ),
        }
    }

    /// Cuts the shard at position `shard` at its median key into two
    /// cells. Test/operator entry point; the tuner takes the same path.
    pub fn force_split(&self, shard: usize) -> Result<(), AdaptError> {
        self.recut_at(|_| Some(shard), Plan::Split)
    }

    /// Folds shards `left` and `left + 1` into one cell.
    pub fn force_merge(&self, left: usize) -> Result<(), AdaptError> {
        self.recut_at(|_| Some(left), Plan::Merge)
    }

    /// Resolves the plan's old cells — the first located by `first`, all
    /// under one table read lock — and runs the cutover on them by
    /// identity, holding no lock in between.
    fn recut_at(
        &self,
        first: impl FnOnce(&Table) -> Option<usize>,
        plan: Plan,
    ) -> Result<(), AdaptError> {
        let old = {
            let t = self.table.read();
            if t.cells.len() < plan.old_cells() {
                return Err(AdaptError::Limit);
            }
            let cells = first(&t)
                .and_then(|pos| t.cells.get(pos..))
                .and_then(|from| from.get(..plan.old_cells()));
            let Some(cells) = cells else { return Err(AdaptError::Stale) };
            cells.to_vec()
        };
        self.recut(&old, plan)
    }

    /// The one cutover. Opens a side log on every old cell left-to-right
    /// (commit locks in the same order; op writers only ever hold one
    /// cell lock), snapshots and builds the replacement pieces without
    /// blocking readers, then commits. Any `Err` leaves no log open and
    /// the live cells intact with every write applied.
    fn recut(&self, old: &[Arc<ShardCell>], plan: Plan) -> Result<(), AdaptError> {
        let opened = old.iter().take_while(|c| Self::open_side(c, SIDE_CAP)).count();
        let built = if opened == old.len() {
            self.build_pieces(old, plan)
        } else {
            // Another rebuild owns the next cell's log; ours close below.
            Err(AdaptError::Busy)
        };
        match built {
            // Commit takes every log before its first check.
            Ok((cuts, pieces)) => self.commit(old, plan, &cuts, pieces),
            Err(e) => {
                for c in &old[..opened] {
                    // Safe to drop: logged writes also hit the live index.
                    c.lock.write().side = None;
                }
                Err(e)
            }
        }
    }

    /// Phase 1: opens the side log on `cell` under its write lock;
    /// `false` when another rebuild already owns it. From here until the
    /// log is taken (commit) or dropped (abort), every write to the cell
    /// is applied to the live index *and* logged, and the native fast
    /// path stands down.
    fn open_side(cell: &ShardCell, cap: usize) -> bool {
        let mut g = cell.lock.write();
        if g.side.is_some() {
            return false;
        }
        g.side = Some(SideLog::new(cap));
        true
    }

    /// Phases 2–3: snapshots the old cells' contents under their read
    /// locks (concurrent readers proceed; writers serialize behind the
    /// write lock and land in the side log), picks the plan's cuts, and
    /// builds one replacement index per piece, lock-free.
    fn build_pieces(
        &self,
        old: &[Arc<ShardCell>],
        plan: Plan,
    ) -> Result<(Vec<Key>, Vec<BoxShard>), AdaptError> {
        let mut snap = Vec::new();
        for c in old {
            c.lock.read().index.range(0, Key::MAX, &mut snap);
        }
        let mids = match plan {
            Plan::Merge => Vec::new(),
            Plan::Split if snap.len() < 2 => return Err(AdaptError::CannotSplit),
            Plan::Split => vec![snap.len() / 2],
        };
        let mut pieces = Vec::with_capacity(mids.len() + 1);
        let mut start = 0;
        for end in mids.iter().copied().chain([snap.len()]) {
            let mut idx = (self.builder)(&snap[start..end]);
            idx.set_recorder(self.recorder.clone());
            if self.defer_retrains.load(Ordering::Acquire) {
                idx.set_defer_retrains(true);
            }
            pieces.push(idx);
            start = end;
        }
        Ok((mids.iter().map(|&m| snap[m].0).collect(), pieces))
    }

    /// Phase 4: under the table write lock (the epoch barrier — granted
    /// only once no op holds the table read side) and the old cells'
    /// write locks, replay the side logs into the pieces and splice
    /// fresh cells over the old ones. `pieces[i]` serves keys in
    /// `[cuts[i-1], cuts[i])` of the old cells' combined range.
    fn commit(
        &self,
        old: &[Arc<ShardCell>],
        plan: Plan,
        cuts: &[Key],
        mut pieces: Vec<BoxShard>,
    ) -> Result<(), AdaptError> {
        let mut t = self.table.write();
        let mut guards: Vec<_> = old.iter().map(|c| c.lock.write()).collect();
        // Every log is taken before the first early return, so no `Err`
        // below leaves one open.
        let logs: Vec<Option<SideLog>> = guards.iter_mut().map(|g| g.side.take()).collect();
        let Some(logs) = logs.into_iter().collect::<Option<Vec<SideLog>>>() else {
            return Err(AdaptError::Busy);
        };
        if logs.iter().any(|l| l.overflowed) {
            return Err(AdaptError::SideOverflow);
        }
        if t.cells.len() + pieces.len() > MAX_SHARDS + old.len() {
            return Err(AdaptError::Limit);
        }
        // The old cells must still be live and adjacent, in this order.
        let Some(pos) = t.pos_of(old[0].id) else { return Err(AdaptError::Stale) };
        let end = pos + old.len();
        let live = t.cells.get(pos..end);
        if !live.is_some_and(|live| live.iter().zip(old).all(|(a, b)| a.id == b.id)) {
            return Err(AdaptError::Stale);
        }
        // Each cut must fall strictly inside the old range or routing
        // would break; a cell whose keys collapsed onto its lower bound
        // since the snapshot cannot be split.
        if cuts.iter().any(|&b| b <= t.lower[pos]) {
            return Err(AdaptError::CannotSplit);
        }
        if t.lower.get(end).is_some_and(|&hi| cuts.iter().any(|&b| b >= hi)) {
            return Err(AdaptError::Stale);
        }
        // The logs cover disjoint key ranges, so relative order between
        // them is irrelevant; within each, log order is applied.
        for op in logs.iter().flat_map(|l| &l.ops) {
            match *op {
                SideOp::Put(k, v) => {
                    pieces[cuts.partition_point(|&b| b <= k)].insert(k, v);
                }
                SideOp::Del(k) => {
                    pieces[cuts.partition_point(|&b| b <= k)].remove(k);
                }
            }
        }
        drop(guards);
        t.lower.splice(pos + 1..end, cuts.iter().copied());
        let fresh = pieces.into_iter().map(|p| ShardCell::create(self.next_id(), p));
        t.cells.splice(pos..end, fresh);
        self.recorder.event(plan.event());
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Trait faces.
// ---------------------------------------------------------------------------

impl Index for Sharded {
    fn name(&self) -> &'static str {
        let t = self.table.read();
        match t.cells.first() {
            Some(c) => c.lock.read().index.name(),
            None => "sharded",
        }
    }

    fn len(&self) -> usize {
        let t = self.table.read();
        t.cells.iter().map(|c| c.lock.read().index.len()).sum()
    }

    fn get(&self, key: Key) -> Option<Value> {
        let t = self.table.read();
        let cell = &t.cells[t.shard_of(key)];
        cell.ops.fetch_add(1, Ordering::Relaxed);
        let g = cell.lock.read();
        g.index.get(key)
    }

    fn index_size_bytes(&self) -> usize {
        let t = self.table.read();
        t.lower.len() * core::mem::size_of::<Key>()
            + t.cells.iter().map(|c| c.lock.read().index.index_size_bytes()).sum::<usize>()
    }

    fn data_size_bytes(&self) -> usize {
        let t = self.table.read();
        t.cells.iter().map(|c| c.lock.read().index.data_size_bytes()).sum()
    }

    /// Keeps the recorder for routing/lock-wait metrics and forwards a
    /// clone into every live shard; indexes built by later adaptation
    /// inherit it via `Sharded::build_pieces`.
    fn set_recorder(&mut self, recorder: Recorder) {
        {
            let t = self.table.read();
            for c in &t.cells {
                c.lock.write().index.set_recorder(recorder.clone());
            }
        }
        self.recorder = recorder;
    }
}

impl OrderedIndex for Sharded {
    /// Scans shard by shard in boundary order; per-shard output is ordered
    /// and shards partition the key space, so the result is globally
    /// ordered. Cell locks are taken one shard at a time; the table read
    /// lock is held for the whole scan so the boundary walk stays
    /// consistent against concurrent cutovers.
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        let t = self.table.read();
        for s in t.shard_of(lo)..t.cells.len() {
            if t.lower[s] > hi {
                break;
            }
            // A scan is traffic to every cell it visits: without this, a
            // scan-heavy shard looks idle to the tuner's split/merge
            // rules and to STATS.
            t.cells[s].ops.fetch_add(1, Ordering::Relaxed);
            t.cells[s].lock.read().index.range(lo, hi, out);
        }
    }
}

impl ConcurrentIndex for Sharded {
    fn get(&self, key: Key) -> Option<Value> {
        Index::get(self, key)
    }

    fn insert(&self, key: Key, value: Value) -> Option<Value> {
        self.apply(key, WriteOp::Put(value))
    }

    fn remove(&self, key: Key) -> Option<Value> {
        self.apply(key, WriteOp::Del)
    }

    fn len(&self) -> usize {
        Index::len(self)
    }

    /// Forwards deferral into every live shard (under its write lock) and
    /// remembers the mode for shards built by later adaptation; true when
    /// any shard supports it.
    fn set_defer_retrains(&self, on: bool) -> bool {
        self.defer_retrains.store(on, Ordering::Release);
        let t = self.table.read();
        let mut any = false;
        for c in &t.cells {
            any |= c.lock.write().index.set_defer_retrains(on);
        }
        any
    }

    fn pending_retrains(&self) -> usize {
        let t = self.table.read();
        t.cells.iter().map(|c| c.lock.read().index.pending_retrains()).sum()
    }

    /// Drains queued retrains shard by shard, never holding more than one
    /// cell write lock, so foreground writers only contend for the shard
    /// actually being maintained.
    fn run_pending_retrains(&self, budget: usize) -> usize {
        let t = self.table.read();
        let mut done = 0;
        for c in &t.cells {
            if done >= budget {
                break;
            }
            if c.lock.read().index.pending_retrains() == 0 {
                continue;
            }
            done += c.lock.write().index.run_pending_retrains(budget - done);
        }
        done
    }

    fn run_adaptation(&self) -> usize {
        Sharded::run_adaptation(self)
    }

    /// Samples every cell's always-on counters under one table read lock,
    /// taking each cell's read lock for `len` only.
    fn observe_cells(&self) -> Vec<CellCounters> {
        let t = self.table.read();
        t.lower
            .iter()
            .zip(&t.cells)
            .map(|(&lower, c)| CellCounters {
                cell: c.id,
                lower,
                len: c.lock.read().index.len(),
                ops: c.ops.load(Ordering::Relaxed),
                lock_waits: c.lock_waits.load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::NativeWriter;
    use std::collections::BTreeMap;

    /// Minimal single-writer index for exercising the router.
    #[derive(Default)]
    struct MapIndex(BTreeMap<Key, Value>);

    impl Index for MapIndex {
        fn name(&self) -> &'static str {
            "map"
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn get(&self, key: Key) -> Option<Value> {
            self.0.get(&key).copied()
        }
        fn index_size_bytes(&self) -> usize {
            self.0.len() * 48
        }
        fn data_size_bytes(&self) -> usize {
            0
        }
    }

    impl UpdatableIndex for MapIndex {
        fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
            self.0.insert(key, value)
        }
        fn remove(&mut self, key: Key) -> Option<Value> {
            self.0.remove(&key)
        }
    }

    impl OrderedIndex for MapIndex {
        fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
            out.extend(self.0.range(lo..=hi).map(|(&k, &v)| (k, v)));
        }
    }

    impl BulkBuildIndex for MapIndex {
        fn build(data: &[KeyValue]) -> Self {
            MapIndex(data.iter().copied().collect())
        }
    }

    #[test]
    fn cdf_balanced_boundaries_balance_skew() {
        // 90% of keys in [0, 1000), the rest spread to u64::MAX: an MSB
        // split would put 90% of keys in shard 0.
        let mut data: Vec<KeyValue> = (0..900u64).map(|i| (i, i)).collect();
        data.extend((1..=100u64).map(|i| (i << 40, i)));
        let idx = Sharded::build::<MapIndex>(8, &data);
        assert_eq!(Index::len(&idx), 1_000);
        let max_shard = idx.observe_cells().iter().map(|c| c.len).max().unwrap();
        assert!(max_shard <= 2 * 1_000 / idx.shard_count(), "unbalanced: {max_shard}");
    }

    #[test]
    fn duplicate_heavy_bulk_load_dedupes_boundaries() {
        // 1000 entries over only 4 distinct keys: CDF sampling repeats the
        // same boundary key, which used to leave zero-width shard ranges
        // that broke the strictly-increasing routing invariant.
        let mut data: Vec<KeyValue> = (0..1_000u64).map(|i| ((i % 4) * 1_000, i)).collect();
        data.sort_unstable_by_key(|kv| kv.0);
        let idx = Sharded::build::<MapIndex>(8, &data);
        let lower = idx.boundaries();
        assert!(lower.windows(2).all(|w| w[0] < w[1]), "boundaries must strictly increase");
        assert!(idx.shard_count() <= 4, "4 distinct keys cannot support 8 shards");
        assert_eq!(Index::len(&idx), 4, "BTreeMap keeps the last value per duplicate key");
        for k in [0u64, 1_000, 2_000, 3_000] {
            assert!(Index::get(&idx, k).is_some());
        }
    }

    #[test]
    fn routes_every_key_to_the_shard_that_built_it() {
        let data: Vec<KeyValue> = (0..5_000u64).map(|i| (i * 97 + 3, i)).collect();
        let idx = Sharded::build::<MapIndex>(16, &data);
        for &(k, v) in data.iter().step_by(53) {
            assert_eq!(Index::get(&idx, k), Some(v));
            assert_eq!(Index::get(&idx, k + 1), None);
        }
        assert_eq!(Index::get(&idx, Key::MAX), None);
        assert_eq!(Index::get(&idx, 0), None);
    }

    #[test]
    fn empty_bulk_load_still_shards_the_domain() {
        let idx = Sharded::build::<MapIndex>(8, &[]);
        assert_eq!(idx.shard_count(), 8);
        assert_eq!(ConcurrentIndex::insert(&idx, 5, 50), None);
        assert_eq!(ConcurrentIndex::insert(&idx, Key::MAX, 1), None);
        assert_eq!(ConcurrentIndex::get(&idx, 5), Some(50));
        assert_eq!(ConcurrentIndex::len(&idx), 2);
        // The two keys landed on different shards of the uniform split.
        assert_ne!(idx.shard_of(5), idx.shard_of(Key::MAX));
    }

    #[test]
    fn range_scans_cross_shard_boundaries_in_order() {
        let data: Vec<KeyValue> = (0..2_000u64).map(|i| (i * 10, i)).collect();
        let idx = Sharded::build::<MapIndex>(7, &data);
        let got = idx.range_vec(995, 10_255);
        let expect: Vec<KeyValue> =
            data.iter().copied().filter(|&(k, _)| (995..=10_255).contains(&k)).collect();
        assert_eq!(got, expect);
        assert_eq!(idx.range_vec(0, Key::MAX).len(), 2_000);
    }

    #[test]
    fn concurrent_disjoint_writers() {
        let data: Vec<KeyValue> = (0..8_000u64).map(|i| (i * 8, 0)).collect();
        let idx = Arc::new(Sharded::build::<MapIndex>(16, &data));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let idx = Arc::clone(&idx);
            handles.push(li_sync::thread::spawn(move || {
                for i in 0..1_000u64 {
                    // Own every key ≡ t (mod 8): updates of loaded keys and
                    // inserts of fresh ones, interleaved across all shards.
                    let k = i * 64 + t;
                    ConcurrentIndex::insert(&*idx, k, t + 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ConcurrentIndex::len(&*idx), 8_000 + 7_000);
        assert_eq!(ConcurrentIndex::get(&*idx, 64 + 1), Some(2));
    }

    #[test]
    fn sharded_forwards_deferred_retraining() {
        use crate::pieces::assembled::{PiecewiseConfig, PiecewiseIndex};

        let data: Vec<KeyValue> = (0..20_000u64).map(|i| (i * 4, i)).collect();
        let idx = Sharded::build_with(8, &data, |chunk| {
            PiecewiseIndex::build_with(PiecewiseConfig::default(), chunk)
        });
        assert!(ConcurrentIndex::set_defer_retrains(&idx, true));
        let mut model: BTreeMap<Key, Value> = data.iter().copied().collect();
        for n in 0..30_000u64 {
            let k = (n.wrapping_mul(0x9e3779b97f4a7c15) >> 16) % 100_000;
            assert_eq!(ConcurrentIndex::insert(&idx, k, n), model.insert(k, n), "insert {k}");
        }
        let parked = ConcurrentIndex::pending_retrains(&idx);
        assert!(parked > 0, "heavy churn must park retrains");
        // Budgeted drain makes progress without clearing everything.
        let ran = ConcurrentIndex::run_pending_retrains(&idx, 1);
        assert_eq!(ran, 1);
        // Full drain empties the queue; correctness holds throughout.
        while ConcurrentIndex::run_pending_retrains(&idx, 64) > 0 {}
        assert_eq!(ConcurrentIndex::pending_retrains(&idx), 0);
        assert_eq!(ConcurrentIndex::len(&idx), model.len());
        for (&k, &v) in model.iter().step_by(37) {
            assert_eq!(ConcurrentIndex::get(&idx, k), Some(v));
        }
    }

    #[test]
    fn native_write_path_used_only_when_allowed_and_idle() {
        /// A shard index exposing a shared-reference write surface, with a
        /// call counter threaded out through an `Arc` (the router only sees
        /// `dyn ShardIndex`, so the test cannot downcast to inspect it).
        struct NativeMap {
            map: li_sync::sync::Mutex<BTreeMap<Key, Value>>,
            native_calls: Arc<AtomicU64>,
        }
        impl Index for NativeMap {
            fn name(&self) -> &'static str {
                "native-map"
            }
            fn len(&self) -> usize {
                self.map.lock().len()
            }
            fn get(&self, key: Key) -> Option<Value> {
                self.map.lock().get(&key).copied()
            }
            fn index_size_bytes(&self) -> usize {
                0
            }
            fn data_size_bytes(&self) -> usize {
                0
            }
            fn native_writer(&self) -> Option<&dyn NativeWriter> {
                Some(self)
            }
        }
        impl NativeWriter for NativeMap {
            fn insert(&self, key: Key, value: Value) -> Option<Value> {
                self.native_calls.fetch_add(1, Ordering::Relaxed);
                self.map.lock().insert(key, value)
            }
            fn remove(&self, key: Key) -> Option<Value> {
                self.native_calls.fetch_add(1, Ordering::Relaxed);
                self.map.lock().remove(&key)
            }
        }
        impl UpdatableIndex for NativeMap {
            fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
                self.map.lock().insert(key, value)
            }
            fn remove(&mut self, key: Key) -> Option<Value> {
                self.map.lock().remove(&key)
            }
        }
        impl OrderedIndex for NativeMap {
            fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
                out.extend(self.map.lock().range(lo..=hi).map(|(&k, &v)| (k, v)));
            }
        }

        let data: Vec<KeyValue> = (0..100u64).map(|i| (i, i)).collect();
        let native_calls = Arc::new(AtomicU64::new(0));
        let nc = Arc::clone(&native_calls);
        let mut idx = Sharded::build_with(1, &data, move |chunk| NativeMap {
            map: li_sync::sync::Mutex::new(chunk.iter().copied().collect()),
            native_calls: Arc::clone(&nc),
        });

        // Off by default: writes take the exclusive path.
        assert_eq!(ConcurrentIndex::insert(&idx, 200, 1), None);
        assert_eq!(native_calls.load(Ordering::Relaxed), 0);

        idx.set_allow_native(true);
        assert_eq!(ConcurrentIndex::insert(&idx, 201, 2), None);
        assert_eq!(ConcurrentIndex::remove(&idx, 201), Some(2));
        assert_eq!(native_calls.load(Ordering::Relaxed), 2, "native path must be used");

        // With a cutover side log open, the native path stands down so the
        // write is both applied and logged.
        let cell = {
            let t = idx.table.read();
            Arc::clone(&t.cells[0])
        };
        assert!(Sharded::open_side(&cell, 16));
        assert_eq!(ConcurrentIndex::insert(&idx, 202, 3), None);
        assert_eq!(native_calls.load(Ordering::Relaxed), 2, "native path must stand down");
        assert_eq!(cell.lock.read().side.as_ref().unwrap().ops.len(), 1);
        cell.lock.write().side = None;
        assert_eq!(ConcurrentIndex::insert(&idx, 203, 4), None);
        assert_eq!(native_calls.load(Ordering::Relaxed), 3, "native path resumes after abort");
        assert_eq!(ConcurrentIndex::get(&idx, 202), Some(3));
    }

    #[test]
    fn forced_split_and_merge_preserve_contents() {
        let data: Vec<KeyValue> = (0..4_000u64).map(|i| (i * 3, i)).collect();
        let mut idx = Sharded::build::<MapIndex>(4, &data);
        let rec = Recorder::enabled();
        idx.set_recorder(rec.clone());
        let before = idx.range_vec(0, Key::MAX);

        assert_eq!(idx.shard_count(), 4);
        idx.force_split(1).unwrap();
        assert_eq!(idx.shard_count(), 5);
        let lower = idx.boundaries();
        assert!(lower.windows(2).all(|w| w[0] < w[1]), "split boundary must stay strict");

        idx.force_merge(1).unwrap();
        assert_eq!(idx.shard_count(), 4);

        assert_eq!(idx.range_vec(0, Key::MAX), before, "adaptation must not change contents");
        let s = rec.snapshot();
        assert_eq!(s.event(Event::ShardSplit), 1);
        assert_eq!(s.event(Event::ShardMerge), 1);

        // The router keeps serving after the layout changed.
        assert_eq!(ConcurrentIndex::insert(&idx, 1, 999), None);
        assert_eq!(ConcurrentIndex::get(&idx, 1), Some(999));
        assert_eq!(ConcurrentIndex::remove(&idx, 1), Some(999));
    }

    #[test]
    fn split_refuses_unsplittable_shards() {
        let data: Vec<KeyValue> = vec![(10, 1)];
        let idx = Sharded::build::<MapIndex>(1, &data);
        assert_eq!(idx.force_split(0), Err(AdaptError::CannotSplit), "one key cannot split");
        assert_eq!(idx.force_merge(0), Err(AdaptError::Limit), "one shard cannot merge");
        assert_eq!(idx.force_split(5), Err(AdaptError::Stale), "out-of-range position");
    }

    /// The hand-driven build window, for every plan through the one
    /// `commit`: open the side logs, snapshot and build, write through
    /// the public surface on both sides of where the cut lands, commit.
    #[test]
    fn writes_during_cutover_drain_through_the_side_log() {
        // Three cells over even keys 0..6000, lower bounds [0, 2000, 4000];
        // every plan works on the middle cell (plus its right neighbour
        // for merge), so both neighbours can be checked for bystander
        // damage.
        let data: Vec<KeyValue> = (0..3_000u64).map(|i| (i * 2, i)).collect();
        let build = || Sharded::build::<MapIndex>(3, &data);
        let old_cells = |idx: &Sharded, plan: Plan| -> Vec<Arc<ShardCell>> {
            idx.table.read().cells[1..=plan.old_cells()].to_vec()
        };
        // Fresh odd keys low and high in the middle cell (the split cut
        // lands at 3000) and one in the last cell; one bulk key deleted.
        let writes = |idx: &Sharded| {
            for k in [2_001, 3_999, 4_001] {
                assert_eq!(ConcurrentIndex::insert(idx, k, 7), None);
            }
            assert_eq!(ConcurrentIndex::remove(idx, 2_000), Some(1_000));
        };

        for plan in [Plan::Split, Plan::Merge] {
            // Commit replays both sides of the cut into the right piece.
            let idx = build();
            let old = old_cells(&idx, plan);
            assert!(old.iter().all(|c| Sharded::open_side(c, 1 << 10)));
            let (cuts, pieces) = idx.build_pieces(&old, plan).unwrap();
            writes(&idx);
            idx.commit(&old, plan, &cuts, pieces).unwrap();
            let lower = match plan {
                Plan::Split => vec![0, 2_000, 3_000, 4_000],
                Plan::Merge => vec![0, 2_000],
            };
            assert_eq!(idx.boundaries(), lower, "{plan:?}");
            for k in [2_001, 3_999, 4_001] {
                assert_eq!(ConcurrentIndex::get(&idx, k), Some(7), "{plan:?} key {k}");
            }
            assert_eq!(ConcurrentIndex::get(&idx, 2_000), None, "{plan:?}");
            assert_eq!(ConcurrentIndex::len(&idx), data.len() + 2, "{plan:?}");
            // Each piece holds exactly its own range (a misrouted replay
            // would hide a key from `get` and show up here).
            assert_eq!(idx.range_vec(0, Key::MAX).len(), data.len() + 2, "{plan:?}");

            // Overflow aborts: contents intact, every log closed, and
            // the cells reusable.
            let idx = build();
            let old = old_cells(&idx, plan);
            assert!(old.iter().all(|c| Sharded::open_side(c, 2)));
            let (cuts, pieces) = idx.build_pieces(&old, plan).unwrap();
            writes(&idx);
            assert_eq!(idx.commit(&old, plan, &cuts, pieces), Err(AdaptError::SideOverflow));
            assert!(old.iter().all(|c| c.lock.read().side.is_none()), "{plan:?}: log left open");
            assert_eq!(idx.boundaries(), vec![0, 2_000, 4_000], "{plan:?}");
            assert_eq!(ConcurrentIndex::get(&idx, 3_999), Some(7), "aborted cutover loses nothing");
            assert_eq!(ConcurrentIndex::len(&idx), data.len() + 2, "{plan:?}");
            assert_eq!(idx.recut(&old, plan), Ok(()), "{plan:?}: cells reusable");

            // A neighbour that moved during the build window: the last
            // old cell (merge's right neighbour) is replaced under the
            // builder's feet.
            let idx = build();
            let old = old_cells(&idx, plan);
            assert!(old.iter().all(|c| Sharded::open_side(c, 1 << 10)));
            let (cuts, pieces) = idx.build_pieces(&old, plan).unwrap();
            let moved = old.len() - 1;
            old[moved].lock.write().side = None; // the competitor runs its own log
            idx.force_split(1 + moved).unwrap();
            assert!(Sharded::open_side(&old[moved], 1 << 10));
            assert_eq!(idx.commit(&old, plan, &cuts, pieces), Err(AdaptError::Stale), "{plan:?}");
            assert!(old.iter().all(|c| c.lock.read().side.is_none()), "{plan:?}: log left open");
            // The competitor cut its cell at the median (3000 or 5000).
            let mut lower = vec![0, 2_000, 4_000];
            lower.insert(2 + moved, 3_000 + 2_000 * moved as Key);
            assert_eq!(idx.boundaries(), lower, "{plan:?}: only the competitor landed");
            assert_eq!(ConcurrentIndex::len(&idx), data.len(), "{plan:?}");
        }
    }

    /// The tuner names cells by id: a decision whose cells a split or
    /// merge has since replaced must answer `Stale`, never land on
    /// whatever shifted into their positions.
    #[test]
    fn actions_naming_replaced_cells_answer_stale() {
        let data: Vec<KeyValue> = (0..8_000u64).map(|i| (i, i)).collect();
        let idx = Sharded::build::<MapIndex>(4, &data);
        assert_eq!(idx.boundaries(), vec![0, 2_000, 4_000, 6_000]);
        let old_ids: Vec<u64> = idx.table.read().cells.iter().map(|c| c.id).collect();

        // Split cell 0, then fold cells 2 and 3 (now at positions 3 and 4).
        idx.force_split(0).unwrap();
        idx.force_merge(3).unwrap();
        assert_eq!(idx.boundaries(), vec![0, 1_000, 2_000, 4_000]);
        assert_eq!(idx.table.read().cells[2].id, old_ids[1], "cell 1 is untouched");

        for a in [
            TunerAction::Split { cell: old_ids[0] },
            TunerAction::Split { cell: old_ids[2] },
            TunerAction::Merge { left: old_ids[2], right: old_ids[3] },
            // Live left cell, but its judged right neighbour is not next to it.
            TunerAction::Merge { left: old_ids[1], right: old_ids[2] },
        ] {
            assert_eq!(idx.execute(a), Err(AdaptError::Stale), "{a:?}");
        }
        assert_eq!(idx.boundaries(), vec![0, 1_000, 2_000, 4_000]);
        assert_eq!(idx.range_vec(0, Key::MAX), data);
    }

    /// Keys `0` and `u64::MAX` live in the first and the last cell;
    /// every plan on those two cells must keep them reachable by get,
    /// as range ends, and removable.
    #[test]
    fn domain_edge_keys_survive_cutovers_of_the_first_and_last_cell() {
        let mut data: Vec<KeyValue> = (0..8_000u64).map(|i| (i << 48, i)).collect();
        data.push((Key::MAX, 77));
        let idx = Sharded::build::<MapIndex>(8, &data);
        assert_eq!(idx.shard_count(), 8);
        let check = |idx: &Sharded, what: &str| {
            assert_eq!(ConcurrentIndex::get(idx, 0), Some(0), "{what}");
            assert_eq!(ConcurrentIndex::get(idx, Key::MAX), Some(77), "{what}");
            let all = idx.range_vec(0, Key::MAX);
            assert_eq!(all, data, "{what}");
            assert_eq!(idx.range_vec(0, 0), vec![(0, 0)], "{what}");
            assert_eq!(idx.range_vec(Key::MAX, Key::MAX), vec![(Key::MAX, 77)], "{what}");
            assert_eq!(idx.boundaries()[0], 0, "{what}");
        };
        check(&idx, "built");
        idx.force_split(0).unwrap();
        idx.force_split(idx.shard_count() - 1).unwrap();
        check(&idx, "split");
        idx.force_merge(0).unwrap();
        idx.force_merge(idx.shard_count() - 2).unwrap();
        check(&idx, "merged");
        assert_eq!(idx.shard_count(), 8);

        assert_eq!(ConcurrentIndex::remove(&idx, 0), Some(0));
        assert_eq!(ConcurrentIndex::remove(&idx, Key::MAX), Some(77));
        assert_eq!(ConcurrentIndex::get(&idx, 0), None);
        assert_eq!(ConcurrentIndex::get(&idx, Key::MAX), None);
        assert_eq!(ConcurrentIndex::insert(&idx, 0, 1), None);
        assert_eq!(ConcurrentIndex::insert(&idx, Key::MAX, 2), None);
        idx.force_split(0).unwrap();
        idx.force_split(idx.shard_count() - 1).unwrap();
        assert_eq!(ConcurrentIndex::get(&idx, 0), Some(1));
        assert_eq!(ConcurrentIndex::get(&idx, Key::MAX), Some(2));
        assert_eq!(ConcurrentIndex::len(&idx), data.len());
    }

    /// Three or more cells: with two, the hot cell holds at most twice
    /// the mean and the tuner's split skew of 2.0 can never fire. Eight
    /// epochs of 2 000 ops clear its dwell (3 epochs) and evidence floor
    /// (256 ops per epoch).
    #[test]
    fn tuner_splits_a_hot_shard() {
        let data: Vec<KeyValue> = (0..8_192u64).map(|i| (i * 4, i)).collect();
        let mut idx = Sharded::build::<MapIndex>(4, &data);
        let rec = Recorder::enabled();
        idx.set_recorder(rec.clone());

        let mut committed = 0;
        for epoch in 0..8 {
            for i in 0..2_000u64 {
                // Every op lands in shard 0's range.
                ConcurrentIndex::insert(&idx, (i % 1_000) * 4 + 1, epoch * 10_000 + i);
            }
            committed += idx.run_adaptation();
            if rec.event_count(Event::ShardSplit) >= 1 {
                break;
            }
        }
        assert!(committed >= 1, "a hot shard must trigger an adaptation");
        assert!(idx.boundaries()[1] <= 4_000, "the hot shard [0, 8192) must be the one cut");
        let s = rec.snapshot();
        assert!(s.event(Event::ShardSplit) >= 1);
        assert!(
            s.event(Event::TunerDecision) >= s.event(Event::ShardSplit),
            "every split is preceded by a decision"
        );
        assert_eq!(ConcurrentIndex::len(&idx), data.len() + 1_000);
    }

    /// Forces one contended write of `key`: a held read guard fails the
    /// writer's try-acquire, and is released only once the cell has
    /// counted the wait, so the wait happens every time.
    fn contended_insert(idx: &Sharded, key: Key) {
        let cell = {
            let t = idx.table.read();
            Arc::clone(&t.cells[t.shard_of(key)])
        };
        let before = cell.lock_waits.load(Ordering::Relaxed);
        let held = cell.lock.read();
        li_sync::thread::scope(|s| {
            s.spawn(|| ConcurrentIndex::insert(idx, key, 9));
            while cell.lock_waits.load(Ordering::Relaxed) == before {
                li_sync::thread::yield_now();
            }
            drop(held);
        });
    }

    #[test]
    fn recorder_sees_routing_and_lock_waits() {
        use li_telemetry::OpKind;

        let data: Vec<KeyValue> = (0..4_000u64).map(|i| (i * 16, i)).collect();
        let mut idx = Sharded::build::<MapIndex>(8, &data);
        let rec = Recorder::enabled();
        idx.set_recorder(rec.clone());

        // Single-threaded ops never contend: the fast try-acquire always
        // succeeds, so zero ShardLockWait events — deterministically.
        for i in 0..1_000u64 {
            ConcurrentIndex::insert(&idx, i * 64 + 1, i);
            ConcurrentIndex::get(&idx, i * 64);
        }
        let s = rec.snapshot();
        assert_eq!(s.event(Event::ShardLockWait), 0);
        let rows = idx.observe_cells();
        assert_eq!(rows.iter().map(|c| c.ops).sum::<u64>(), 2_000);
        assert!(rows.iter().filter(|c| c.ops > 0).count() > 1, "must touch several cells");
        assert!(rows.iter().all(|c| c.lock_waits == 0));

        contended_insert(&idx, data[0].0);
        let s = rec.snapshot();
        assert_eq!(s.event(Event::ShardLockWait), 1, "contended write must record a wait");
        assert_eq!(s.op(OpKind::LockWait).count, 1);
        assert_eq!(idx.observe_cells()[0].lock_waits, 1);
    }

    /// Per-cell counters belong to cells, not positions: a cutover's new
    /// cells start from zero at their own bounds, the cells it did not
    /// touch keep their counts wherever they move, and the rows STATS
    /// prints carry the live boundaries.
    #[test]
    fn cell_rows_follow_cutovers_not_positions() {
        let data: Vec<KeyValue> = (0..8_000u64).map(|i| (i, i)).collect();
        let mut idx = Sharded::build::<MapIndex>(4, &data);
        let rec = Recorder::enabled();
        idx.set_recorder(rec.clone());
        let hit = |idx: &Sharded, key: Key, n: u64| {
            for _ in 0..n {
                ConcurrentIndex::get(idx, key);
            }
        };
        let rows = |idx: &Sharded| -> Vec<(Key, u64)> {
            idx.observe_cells().iter().map(|c| (c.lower, c.ops)).collect()
        };
        for s in 0..4 {
            hit(&idx, s * 2_000, 10 * (s + 1));
        }
        assert_eq!(rows(&idx), [(0, 10), (2_000, 20), (4_000, 30), (6_000, 40)]);

        // The split's two rows carry the cut bound and start at zero;
        // the untouched cells right of the cut keep their counts one
        // position on.
        idx.force_split(1).unwrap();
        assert_eq!(rows(&idx), [(0, 10), (2_000, 0), (3_000, 0), (4_000, 30), (6_000, 40)]);

        // The merged row starts at zero, though both halves saw traffic.
        hit(&idx, 3_500, 5);
        idx.force_merge(2).unwrap();
        assert_eq!(rows(&idx), [(0, 10), (2_000, 0), (3_000, 0), (6_000, 40)]);

        // Lock waits land on the cell that waited and sum to the event.
        contended_insert(&idx, 6_500);
        contended_insert(&idx, 6_501);
        contended_insert(&idx, 100);
        let mut snap = rec.snapshot();
        snap.cells = idx.observe_cells();
        let waits: Vec<u64> = snap.cells.iter().map(|c| c.lock_waits).collect();
        assert_eq!(waits, [1, 0, 0, 2]);
        assert_eq!(waits.iter().sum::<u64>(), snap.event(Event::ShardLockWait));

        let json = snap.to_json();
        let lowers: Vec<Key> = json
            .split("\"lower\":")
            .skip(1)
            .map(|row| row[..row.find(',').unwrap()].parse().unwrap())
            .collect();
        assert_eq!(lowers, idx.boundaries());
    }

    mod boundary_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Shard boundary selection covers the full key domain with no
            /// gaps and no overlaps, for any bulk-load key set and shard
            /// count.
            #[test]
            fn boundaries_partition_the_domain(
                mut keys in proptest::collection::vec(0u64..u64::MAX, 0..400),
                shards in 1usize..40,
            ) {
                keys.sort_unstable();
                keys.dedup();
                let data: Vec<KeyValue> = keys.iter().map(|&k| (k, k)).collect();
                let idx = Sharded::build::<MapIndex>(shards, &data);

                // Structure: first bound is 0, bounds strictly increase, and
                // no more shards exist than requested.
                let lower = idx.boundaries();
                prop_assert_eq!(lower[0], 0);
                prop_assert!(lower.windows(2).all(|w| w[0] < w[1]));
                prop_assert_eq!(lower.len(), idx.shard_count());
                prop_assert!(idx.shard_count() <= shards);

                // Coverage: the domain extremes and every boundary's
                // neighbourhood route to exactly one in-range shard, and
                // routing is monotone (no overlap between ranges).
                let mut probes = vec![0u64, u64::MAX];
                for &b in &lower {
                    probes.push(b);
                    probes.push(b.saturating_sub(1));
                    probes.push(b.saturating_add(1));
                }
                probes.extend(keys.iter().copied());
                probes.sort_unstable();
                let mut last_shard = 0usize;
                for &p in &probes {
                    let s = idx.shard_of(p);
                    prop_assert!(s < idx.shard_count());
                    prop_assert!(p >= lower[s], "key below its shard's range");
                    if let Some(&hi) = lower.get(s + 1) {
                        prop_assert!(p < hi, "key above its shard's range");
                    }
                    prop_assert!(s >= last_shard, "routing must be monotone");
                    last_shard = s;
                }

                // Every bulk-loaded key is findable after the build.
                for &(k, v) in data.iter().step_by(7) {
                    prop_assert_eq!(Index::get(&idx, k), Some(v));
                }
                prop_assert_eq!(Index::len(&idx), data.len());
            }
        }
    }
}
