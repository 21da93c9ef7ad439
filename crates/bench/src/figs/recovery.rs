//! Checkpoint + WAL-replay recovery vs. full-rescan recovery (the
//! durability tentpole's acceptance benchmark).
//!
//! The paper's availability analysis (§III-E2 / Fig. 16) measures how
//! long a learned-index store is offline after a crash when recovery must
//! rescan every NVM page and retrain the model from scratch. This gate
//! quantifies what the WAL + checkpoint subsystem buys back: for
//! each key count, one durable store is loaded, checkpointed once more so
//! that a delta segment follows its base image, mutated past that
//! checkpoint, and crashed — then recovered twice from the same image:
//!
//! * **checkpoint_replay** — decode the newest checkpoint (base entries,
//!   delta chain merged in), replay the WAL tail, and validate
//!   checkpointed entries against their slots. No page scan; the index is
//!   built from the recovered pairs with [`PiecewiseIndex::build_with`].
//! * **full_rescan** — the pre-durability path: scan every heap page,
//!   CRC-verify every slot, build the index the same way.
//!
//! The report lets CI assert the headline claim: checkpoint + replay is
//! strictly faster at every swept key count. It also shows how much of the
//! fast path is the index build (`build ms`, the builder's time in the
//! fastest checkpoint_replay trial).
//!
//! Flags: `--keys N[,N...]` (default `1000000,10000000`), `--tail N`
//! (mutations past the last checkpoint, default 10000), `--trials N`
//! (timed recoveries per path, best-of; default 2 — the store is rebuilt
//! per trial so both paths see a cold image, and the minimum discards
//! scheduler noise rather than flattering either side), `--out PATH`,
//! `--check` (exit non-zero unless the fast path wins every row).

use std::sync::Arc;
use std::time::Instant;

use crate::harness::{value_of, BenchConfig, Flags, Json, Report};
use li_core::approx::ApproxAlgorithm;
use li_core::pieces::assembled::{PiecewiseConfig, PiecewiseIndex};
use li_core::pieces::insertion::LeafKind;
use li_core::pieces::retrain::RetrainPolicy;
use li_core::pieces::structure::StructureKind;
use li_core::telemetry::Recorder;
use li_nvm::{DurabilityTracking, LatencyModel, NvmConfig};
use li_viper::checkpoint::{newest_manifest, Geometry};
use li_viper::{DurabilityConfig, RecordLayout, RecoverOptions, StoreConfig, ViperStore};
use li_workloads::{generate_keys, Dataset};

fn pieces_cfg() -> PiecewiseConfig {
    PiecewiseConfig {
        algo: ApproxAlgorithm::OptPla { epsilon: 64 },
        structure: StructureKind::BTree,
        leaf: LeafKind::Gapped { density: 0.7, max_density: 0.85 },
        policy: RetrainPolicy::ResegmentLeaf,
    }
}

struct Row {
    keys: usize,
    live: usize,
    replayed: usize,
    fast_ms: f64,
    rescan_ms: f64,
    build_ms: f64,
}

/// Re-arms what the crash will find. First a delta chain: `tail / 10`
/// keys from the middle of the set are deleted and put back (their
/// mappings change, the live set does not) and one checkpoint appends
/// them as a delta segment after the base image the store last wrote.
/// Then the WAL tail: `tail` updates past that checkpoint, plus
/// `tail / 10` deletes (no-ops after the first arming — the keys are
/// already gone — so the live count is stable across trials).
fn arm_tail(
    store: &mut ViperStore<PiecewiseIndex>,
    keys: &[u64],
    tail: usize,
    layout: &RecordLayout,
    geom: &Geometry,
) {
    let mut val = vec![0u8; layout.value_size];
    let moved = &keys[keys.len() / 2..][..tail / 10];
    for &k in moved {
        store.delete(k).expect("chain delete");
    }
    for &k in moved {
        value_of(k, &mut val);
        store.put(k, &val).expect("chain re-insert");
    }
    store.checkpoint_now().expect("chain checkpoint");
    let named = newest_manifest(store.heap().device(), geom);
    assert!(named.delta_len >= moved.len() * 16, "no delta chain at crash time: {named:?}");
    for &k in keys.iter().take(tail) {
        value_of(k ^ 0x5a, &mut val);
        store.put(k, &val).expect("tail update");
    }
    for &k in keys.iter().rev().take(tail / 10) {
        store.delete(k).expect("tail delete");
    }
}

/// Crashes the store and times one recovery: checkpoint + replay when
/// `opts.use_checkpoint`, the forced full rescan otherwise. Returns the
/// recovered store, the milliseconds, the WAL records replayed and the
/// milliseconds of those spent building the index.
fn crash_and_recover(
    store: ViperStore<PiecewiseIndex>,
    layout: RecordLayout,
    opts: RecoverOptions,
    cfg: PiecewiseConfig,
    live: usize,
) -> (ViperStore<PiecewiseIndex>, f64, usize, f64) {
    let mut dev = Arc::try_unwrap(store.into_device()).ok().expect("unique device");
    dev.crash();
    let mut build_ms = 0.0;
    let t0 = Instant::now();
    let (store, report) = ViperStore::<PiecewiseIndex>::recover_recorded(
        Arc::new(dev),
        layout,
        opts,
        Recorder::disabled(),
        |pairs| {
            let t = Instant::now();
            let index = PiecewiseIndex::build_with(cfg, pairs);
            build_ms = t.elapsed().as_secs_f64() * 1e3;
            index
        },
    );
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report.from_checkpoint, opts.use_checkpoint, "wrong recovery path taken");
    assert!(report.replayed > 0 || !opts.use_checkpoint, "the WAL tail must be replayed");
    assert_eq!(store.len(), live, "recovery lost acked writes");
    (store, ms, report.replayed, build_ms)
}

/// Loads a durable store with `n` keys and a `tail` of un-checkpointed
/// mutations in the WAL, then crashes and recovers it `trials` times per
/// path, keeping each path's best time. One untimed warmup recovery runs
/// first (the process's first recovery pays one-off page-table/allocator
/// warming that would otherwise be billed to whichever path runs first)
/// and the timed trials alternate fast/rescan so slow environmental drift
/// lands on both paths equally. Every recovery re-arms the tail (the
/// recovery itself checkpoints, retiring the previous one), so both paths
/// always face a checkpointed image plus a live WAL tail; the minimum
/// discards scheduler noise without favouring either side.
fn run_one(n: usize, tail: usize, trials: usize) -> Row {
    let keys = generate_keys(Dataset::YcsbNormal, n, 7);
    let layout = RecordLayout::small();
    let heap_bytes = (n * 2 / layout.slots_per_page() + 16) * layout.page_size;
    let durability = DurabilityConfig::sized_for(n + tail, 64 * 1024);
    let config = StoreConfig {
        layout,
        nvm: NvmConfig {
            capacity: heap_bytes,
            latency: LatencyModel::dram_like(),
            durability: DurabilityTracking::Shadow,
        },
        crash_safe_updates: false,
        durability: None,
    }
    .with_durability(durability);

    eprintln!("[{n} keys] loading (checkpoint generation 1 at load)...");
    let cfg = pieces_cfg();
    let geom = Geometry::compute(config.nvm.capacity, layout.page_size, &durability)
        .expect("with_durability grew the device to fit");
    let mut store =
        ViperStore::<PiecewiseIndex>::bulk_load_with(config, &keys, value_of, |pairs| {
            PiecewiseIndex::build_with(cfg, pairs)
        });
    arm_tail(&mut store, &keys, tail, &layout, &geom);
    let live = store.len();
    let opts = RecoverOptions { durability: Some(durability), ..RecoverOptions::default() };
    let rescan_opts = RecoverOptions { use_checkpoint: false, ..opts };

    eprintln!("[{n} keys] warmup recovery (untimed)...");
    let (warm, ..) = crash_and_recover(store, layout, opts, cfg, live);
    store = warm;
    arm_tail(&mut store, &keys, tail, &layout, &geom);

    let mut fast_ms = f64::INFINITY;
    let mut rescan_ms = f64::INFINITY;
    let (mut replayed, mut build_ms) = (0, 0.0);
    for trial in 0..trials {
        eprintln!("[{n} keys] crash + checkpoint_replay recovery (trial {})...", trial + 1);
        let (s, ms, rep, build) = crash_and_recover(store, layout, opts, cfg, live);
        store = s;
        if ms < fast_ms {
            fast_ms = ms;
            replayed = rep;
            build_ms = build;
        }
        arm_tail(&mut store, &keys, tail, &layout, &geom);
        assert_eq!(store.len(), live, "re-arming the tail must not change the live set");

        eprintln!("[{n} keys] crash + full_rescan recovery (trial {})...", trial + 1);
        let (s, ms, ..) = crash_and_recover(store, layout, rescan_opts, cfg, live);
        store = s;
        rescan_ms = rescan_ms.min(ms);
        arm_tail(&mut store, &keys, tail, &layout, &geom);
        assert_eq!(store.len(), live, "re-arming the tail must not change the live set");
    }

    Row { keys: n, live, replayed, fast_ms, rescan_ms, build_ms }
}

pub fn run(_: &BenchConfig, flags: &mut Flags) -> Result<u8, String> {
    let keys: Vec<usize> = flags
        .get("--keys", "1000000,10000000".to_string())
        .split(',')
        .map(|s| s.trim().parse())
        .collect::<Result<_, _>>()
        .unwrap_or_else(|_| {
            flags.fail("--keys takes integers N[,N...]".to_string());
            Vec::new()
        });
    let tail: usize = flags.get("--tail", 10_000);
    let trials: usize = flags.get("--trials", 2);
    if trials == 0 {
        flags.fail("--trials must be >= 1".to_string());
    }
    let mut report = Report::new("recovery", flags);
    flags.finish()?;
    println!("== recovery: checkpoint+WAL-replay vs full-rescan ==\n");
    println!(
        "{:>12} {:>12} {:>10} {:>16} {:>10} {:>14} {:>9}",
        "keys", "live", "replayed", "ckpt+replay ms", "build ms", "rescan ms", "speedup"
    );

    let mut rows = Vec::new();
    let mut fast_wins_all = true;
    for &n in &keys {
        let row = run_one(n, tail.min(n / 2), trials);
        let speedup = row.rescan_ms / row.fast_ms;
        println!(
            "{:>12} {:>12} {:>10} {:>16.1} {:>10.1} {:>14.1} {:>8.1}x",
            row.keys, row.live, row.replayed, row.fast_ms, row.build_ms, row.rescan_ms, speedup
        );
        fast_wins_all &= row.fast_ms < row.rescan_ms;
        rows.push(Json::Obj(vec![
            ("keys", row.keys.into()),
            ("live", row.live.into()),
            ("replayed", row.replayed.into()),
            ("checkpoint_replay_ms", row.fast_ms.into()),
            ("build_ms", row.build_ms.into()),
            ("full_rescan_ms", row.rescan_ms.into()),
            ("speedup", speedup.into()),
        ]));
    }
    println!();

    report.field("dataset", "YCSB");
    report.field("index", "pieces-gapped-optpla");
    report.field("tail", tail);
    report.field("trials", trials);
    report.field("rows", rows);
    report.field("checkpoint_replay_wins_all", fast_wins_all);
    report.check(fast_wins_all, "checkpoint+replay is not strictly faster at every key count");
    Ok(report.finish())
}
