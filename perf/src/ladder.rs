//! The traced run's ladder of per-layer probes.
//!
//! The harness calls each layer's public functions directly, on the same
//! seeded keys the workloads use, with a span around every batch of calls;
//! what a call costs is its span's time over its call count, as a median
//! over batches. Stacked up, the layer costs account for a request's round
//! trip at the wire (see [`budget_table`]).
//!
//! Tracing inside the program is a later change: here a layer is measured
//! by what the harness can call, so costs that only exist between threads
//! of `li-server` (queue hand-offs, wake-ups) appear as a named residual.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use li_core::search;
use li_core::traits::{ConcurrentIndex, Index, OrderedIndex, UpdatableIndex};
use li_nvm::{LatencyModel, NvmConfig, NvmDevice, NvmStatsSnapshot};
use li_proto::{
    decode_request, decode_response, encode_request, encode_response, Body, Command, Request,
    Response, LEN_PREFIX,
};
use li_server::service;
use li_telemetry::{Event, OpKind, Recorder};
use li_viper::{DurabilityConfig, StoreConfig};
use lip::AnyIndex;

use crate::inputs::{fill_value, KeySet, Rng};
use crate::metrics::Row;
use crate::stack::{
    loaded_value, recover, served_index, store_config, wire_record, Served, LINEUP, SERVED_SHARDS,
    WIRE_VALUE,
};
use crate::stats::{self, Samples};
use crate::trace::{Tracer, ROOT};
use crate::wire::{closed_round, open_loop, WireStack};
use crate::workload::{Ctx, Workload};
use crate::workloads::store_mixed::StoreMixed;

/// Every fifth key is withheld for the insert probes.
const POOL_PERIOD: usize = 5;
/// Batches per probe; a probe reports the median batch.
const BATCHES: usize = 5;
/// Fresh connections a round-trip probe is repeated on; it reports the
/// median connection (see `wire::round_plan` for why).
const PLACEMENTS: usize = 10;
/// Offered rates of the rate ladders, requests per second.
const RATES: [f64; 7] = [15_000.0, 22_000.0, 33_000.0, 50_000.0, 75_000.0, 110_000.0, 160_000.0];

struct Ladder<'a> {
    ctx: Ctx,
    tracer: &'a mut Tracer,
    rng: Rng,
    out: Vec<(String, f64)>,
}

impl Ladder<'_> {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.out.push((name.into(), value));
    }

    fn get(&self, name: &str) -> f64 {
        self.out.iter().find(|(n, _)| n == name).map(|&(_, v)| v).expect("probe ran earlier")
    }

    /// Times [`BATCHES`] batches of `calls` calls of `f`, one span per
    /// batch named after the function called, and returns the median
    /// nanoseconds per call. `f` gets the running call number.
    fn time(&mut self, span: &'static str, calls: usize, mut f: impl FnMut(usize)) -> f64 {
        let mut per_call = Vec::with_capacity(BATCHES);
        for b in 0..BATCHES {
            let id = self.tracer.open(span, ROOT, 0);
            let t = Instant::now();
            for i in b * calls..(b + 1) * calls {
                f(i);
            }
            let ns = t.elapsed().as_nanos() as f64;
            self.tracer.close_calls(id, calls as u32);
            per_call.push(ns / calls as f64);
        }
        stats::median(&per_call).expect("BATCHES > 0")
    }

    /// Times one call of `f` under a span, `times` times over; returns the
    /// median in seconds and the last result.
    fn time_once<T>(
        &mut self,
        span: &'static str,
        times: usize,
        mut f: impl FnMut() -> T,
    ) -> (f64, T) {
        let mut secs = Vec::with_capacity(times);
        let mut last = None;
        for _ in 0..times {
            drop(last.take());
            let id = self.tracer.open(span, ROOT, 0);
            let t = Instant::now();
            let v = f();
            secs.push(t.elapsed().as_secs_f64());
            self.tracer.close(id);
            last = Some(v);
        }
        (stats::median(&secs).expect("times > 0"), last.expect("times > 0"))
    }

    /// `n` uniformly drawn positions into a slice of `len`.
    fn draws(&mut self, n: usize, len: usize) -> Vec<usize> {
        (0..n).map(|_| self.rng.below(len)).collect()
    }
}

/// Runs every probe and returns `(metric, value)` for every per-layer
/// metric except `harness.trace_overhead_share`, which only the caller
/// has.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Vec<(String, f64)> {
    let mut l = Ladder { ctx: *ctx, tracer, rng: Rng::new(ctx.seed ^ 0x1add), out: Vec::new() };
    let set = KeySet::generate(ctx.size(200_000, 10_000), POOL_PERIOD, ctx.seed);
    harness_timer(&mut l);
    search_kernels(&mut l, &set);
    index_kinds(&mut l, &set);
    shard_router(&mut l, &set);
    device(&mut l);
    stores(&mut l, &set);
    wal_checkpoint_recovery(&mut l, &set);
    checkpoint_cycles(&mut l);
    proto(&mut l);
    server(&mut l);
    let rtt = l.get("server.rtt_p50_us.c1");
    let proto: f64 =
        l.out.iter().filter(|(n, _)| n.starts_with("proto.")).map(|(_, v)| v / 1e3).sum();
    let layers = l.get("server.execute_get_ns") / 1e3 + proto;
    l.set("server.edge_p50_us", rtt - layers);
    l.set("harness.ladder_residual_share", 1.0 - (layers + l.get("server.null_rtt_us")) / rtt);
    l.out
}

fn harness_timer(l: &mut Ladder) {
    let calls = l.ctx.size(200_000, 20_000);
    let ns = l.time("Instant::now+elapsed", calls, |_| {
        std::hint::black_box(std::hint::black_box(Instant::now()).elapsed());
    });
    l.set("harness.timer_ns", ns);
}

fn search_kernels(l: &mut Ladder, set: &KeySet) {
    let keys = &set.all;
    let pairs: Vec<(u64, u64)> = keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
    let calls = l.ctx.size(20_000, 2_000);
    let at = l.draws(calls * BATCHES, keys.len());
    let bb = std::hint::black_box::<usize>;

    let ns = l.time("li_core::search::lower_bound", calls, |i| {
        bb(search::lower_bound(keys, keys[at[i]]));
    });
    l.set("search.lower_bound_ns", ns);
    let ns = l.time("li_core::search::lower_bound_kv", calls, |i| {
        bb(search::lower_bound_kv(&pairs, keys[at[i]]));
    });
    l.set("search.lower_bound_kv_ns", ns);
    for (w, label) in [(16usize, "w16"), (128, "w128"), (1024, "w1024")] {
        // A prediction that is off by up to the window, as a bounded-error
        // model's is.
        let predicted: Vec<usize> = at
            .iter()
            .map(|&p| (p + l.rng.below(2 * w + 1)).saturating_sub(w).min(keys.len() - 1))
            .collect();
        let ns = l.time("li_core::search::bounded_lower_bound", calls, |i| {
            bb(search::bounded_lower_bound(keys, keys[at[i]], predicted[i], w));
        });
        l.set(format!("search.bounded_ns.{label}"), ns);
    }
    let predicted: Vec<usize> =
        at.iter().map(|&p| (p + l.rng.below(129)).saturating_sub(64).min(keys.len() - 1)).collect();
    let ns = l.time("li_core::search::exponential_lower_bound", calls, |i| {
        bb(search::exponential_lower_bound(keys, keys[at[i]], predicted[i]));
    });
    l.set("search.exponential_ns", ns);
    let ns = l.time("li_core::search::interpolation_lower_bound", calls, |i| {
        bb(search::interpolation_lower_bound(keys, keys[at[i]]));
    });
    l.set("search.interpolation_ns", ns);
}

fn index_kinds(l: &mut Ladder, set: &KeySet) {
    let loaded = set.loaded_keys();
    let pairs: Vec<(u64, u64)> = loaded.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
    let gets = l.ctx.size(20_000, 2_000);
    let ranges = l.ctx.size(400, 100);
    let inserts = l.ctx.size(2_000, 200).min(set.pool_len() / BATCHES);
    let at = l.draws(gets * BATCHES, loaded.len());
    // Ranges of exactly 100 keys.
    let from = l.draws(ranges * BATCHES, loaded.len() - 100);
    for (kind, label) in LINEUP {
        let (build_s, mut idx) =
            l.time_once("AnyIndex::build", 3, || AnyIndex::build(kind, &pairs));
        l.set(format!("index.build_s.{label}"), build_s);
        l.set(
            format!("index.bytes_per_key.{label}"),
            (idx.index_size_bytes() + idx.data_size_bytes()) as f64 / pairs.len() as f64,
        );
        let ns = l.time("Index::get", gets, |i| {
            std::hint::black_box(Index::get(&idx, loaded[at[i]]));
        });
        l.set(format!("index.get_ns.{label}"), ns);
        let mut out = Vec::with_capacity(128);
        let ns = l.time("OrderedIndex::range", ranges, |i| {
            out.clear();
            idx.range(loaded[from[i]], loaded[from[i] + 99], &mut out);
            std::hint::black_box(out.len());
        });
        l.set(format!("index.range100_ns.{label}"), ns);
        let ns = l.time("UpdatableIndex::insert", inserts, |i| {
            std::hint::black_box(idx.insert(set.all[set.pool_slot(i)], i as u64));
        });
        l.set(format!("index.insert_ns.{label}"), ns);
    }
}

fn shard_router(l: &mut Ladder, set: &KeySet) {
    let loaded = set.loaded_keys();
    let pairs: Vec<(u64, u64)> = loaded.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
    let gets = l.ctx.size(20_000, 2_000);
    let inserts = l.ctx.size(2_000, 200).min(set.pool_len() / BATCHES / 2);
    let at = l.draws(gets * BATCHES, loaded.len());
    for (shards, label) in [(1usize, "c1"), (8, "c8"), (64, "c64")] {
        let idx = served_index(shards, &pairs);
        let ns = l.time("Sharded::get", gets, |i| {
            std::hint::black_box(ConcurrentIndex::get(&idx, loaded[at[i]]));
        });
        l.set(format!("shard.get_ns.{label}"), ns);
    }
    let mut idx = served_index(SERVED_SHARDS, &pairs);
    let recorder = Recorder::enabled();
    idx.set_recorder(recorder.clone());
    let ns = l.time("Sharded::insert", inserts, |i| {
        std::hint::black_box(ConcurrentIndex::insert(&idx, set.all[set.pool_slot(i)], i as u64));
    });
    l.set("shard.insert_ns.c8", ns);
    let hop = l.get("shard.get_ns.c8") - l.get("index.get_ns.pgm");
    l.set("shard.hop_ns", hop);

    // Two threads, half reads and half inserts each, for the lock waits.
    let per_thread = inserts * BATCHES;
    let first = inserts * BATCHES;
    let span = l.tracer.open("Sharded::get+insert x2 threads", ROOT, 0);
    std::thread::scope(|s| {
        for t in 0..2usize {
            let (idx, loaded, at) = (&idx, &loaded, &at);
            s.spawn(move || {
                for i in 0..per_thread {
                    if i % 2 == 0 {
                        std::hint::black_box(ConcurrentIndex::get(idx, loaded[at[i % at.len()]]));
                    } else {
                        let j = first + (i / 2) * 2 + t;
                        let key = set.all[set.pool_slot(j % set.pool_len())];
                        std::hint::black_box(ConcurrentIndex::insert(idx, key, j as u64));
                    }
                }
            });
        }
    });
    l.tracer.close_calls(span, 2 * per_thread as u32);
    let waits = recorder.snapshot().total_lock_waits();
    l.set("shard.lock_waits_per_kop", waits as f64 / (2 * per_thread) as f64 * 1e3);
}

fn device(l: &mut Ladder) {
    const BLOCK: usize = LatencyModel::BLOCK;
    let blocks = 1 << 16;
    let dev = NvmDevice::new(NvmConfig::optane(blocks * BLOCK));
    let calls = l.ctx.size(4_000, 400);
    let at = l.draws(calls * BATCHES, blocks);
    let mut buf = [0u8; BLOCK];
    let ns = l.time("NvmDevice::read_into", calls, |i| {
        dev.read_into(at[i] * BLOCK, &mut buf);
        std::hint::black_box(buf[0]);
    });
    l.set("nvm.read_ns.b256", ns);
    let ns = l.time("NvmDevice::write+persist", calls, |i| {
        dev.write(at[i] * BLOCK, &buf);
        dev.persist(at[i] * BLOCK, BLOCK);
    });
    l.set("nvm.persist_ns.b256", ns);
}

/// The served store's type without its WAL, telemetry and worker: what is
/// left is shard router + index + record heap + device.
fn plain_store(set: &KeySet, latency: LatencyModel) -> Served {
    Served::bulk_load_shared(
        store_config(set, latency),
        &set.loaded_keys(),
        loaded_value,
        |pairs| served_index(SERVED_SHARDS, pairs),
    )
}

struct StoreCosts {
    get: f64,
    update: f64,
    insert: f64,
}

/// get / update / insert against a freshly loaded `store`.
fn store_ops(l: &mut Ladder, set: &KeySet, store: &Served) -> StoreCosts {
    let gets = l.ctx.size(10_000, 1_000);
    let puts = l.ctx.size(4_000, 400);
    let inserts = l.ctx.size(2_000, 200);
    let loaded = set.loaded_len();
    let at = l.draws(gets * BATCHES, loaded);
    let mut buf = vec![0u8; store.heap().layout().value_size];
    let get = l.time("ViperStore::get", gets, |i| {
        std::hint::black_box(store.get(set.all[set.loaded_slot(at[i])], &mut buf));
    });
    let update = l.time("ViperStore::put (update)", puts, |i| {
        let key = set.all[set.loaded_slot(at[i])];
        fill_value(&mut buf, key, 0, 1);
        store.put(key, &buf).expect("probe update");
    });
    let insert = l.time("ViperStore::put (insert)", inserts, |i| {
        let key = set.all[set.pool_slot(i)];
        fill_value(&mut buf, key, 0, 0);
        store.put(key, &buf).expect("probe insert");
    });
    StoreCosts { get, update, insert }
}

fn stores(l: &mut Ladder, set: &KeySet) {
    for (latency, dev) in
        [(LatencyModel::dram_like(), "dram"), (LatencyModel::optane_like(), "optane")]
    {
        let store = plain_store(set, latency);
        let costs = store_ops(l, set, &store);
        l.set(format!("store.get_ns.{dev}"), costs.get);
        l.set(format!("store.put_update_ns.{dev}"), costs.update);
        l.set(format!("store.put_insert_ns.{dev}"), costs.insert);
        if dev == "optane" {
            let scans = l.ctx.size(40, 10);
            let from = l.draws(scans * BATCHES, set.all.len());
            let ns = l.time("ViperStore::scan", scans, |i| {
                std::hint::black_box(store.scan(set.all[from[i]], u64::MAX, 100, &mut |_, _| {}));
            });
            l.set("store.scan100_ns.optane", ns);
            l.set(
                "store.nvm_bytes_per_key",
                store.heap().nvm_bytes_used() as f64 / store.len() as f64,
            );
        }
    }
}

fn delta(after: &NvmStatsSnapshot, before: &NvmStatsSnapshot, n: usize) -> [f64; 4] {
    let per = |a: u64, b: u64| (a - b) as f64 / n as f64;
    [
        per(after.bytes_read, before.bytes_read) / LatencyModel::BLOCK as f64,
        per(after.bytes_written, before.bytes_written),
        per(after.flushes, before.flushes),
        per(after.fences, before.fences),
    ]
}

/// The served store with WAL, checkpoints and telemetry, driven by this
/// thread alone (no maintenance worker), so device counts repeat exactly.
fn wal_checkpoint_recovery(l: &mut Ladder, set: &KeySet) {
    let durability = DurabilityConfig::sized_for(set.all.len(), 1 << 20);
    let config: StoreConfig =
        store_config(set, LatencyModel::optane_like()).with_durability(durability);
    let mut store = Served::bulk_load_shared(config, &set.loaded_keys(), loaded_value, |pairs| {
        served_index(SERVED_SHARDS, pairs)
    });
    let recorder = Recorder::enabled();
    store.set_recorder(recorder.clone());
    let store = Arc::new(store);

    // Exact device counts per operation.
    let n = l.ctx.size(1_000, 100);
    let at = l.draws(n, set.loaded_len());
    let mut buf = vec![0u8; config.layout.value_size];
    let dev = store.heap().device();
    let s0 = dev.stats_snapshot();
    for &a in &at {
        store.get(set.all[set.loaded_slot(a)], &mut buf);
    }
    let s1 = dev.stats_snapshot();
    for &a in &at {
        let key = set.all[set.loaded_slot(a)];
        fill_value(&mut buf, key, 0, 1);
        store.put(key, &buf).expect("probe update");
    }
    let s2 = dev.stats_snapshot();
    let (gets, puts) = (delta(&s1, &s0, n), delta(&s2, &s1, n));
    l.set("nvm.read_blocks_per_get", gets[0]);
    l.set("nvm.write_bytes_per_put", puts[1]);
    l.set("nvm.flushes_per_put", puts[2]);
    l.set("nvm.fences_per_put", puts[3]);

    let costs = store_ops(l, set, &store);

    // Two writers on disjoint keys, so that group commit can batch.
    let before = recorder.snapshot();
    let per_thread = l.ctx.size(10_000, 1_000);
    let span = l.tracer.open("ViperStore::put x2 threads", ROOT, 0);
    std::thread::scope(|s| {
        for t in 0..2usize {
            let store = &store;
            let value_size = config.layout.value_size;
            s.spawn(move || {
                let mut buf = vec![0u8; value_size];
                for i in 0..per_thread {
                    let key = set.all[set.loaded_slot((2 * i + t) % set.loaded_len())];
                    fill_value(&mut buf, key, 0, 2);
                    store.put(key, &buf).expect("probe update");
                }
            });
        }
    });
    l.tracer.close_calls(span, 2 * per_thread as u32);
    let after = recorder.snapshot();
    let appends = after.event(Event::WalAppend) - before.event(Event::WalAppend);
    let commits = after.event(Event::GroupCommit) - before.event(Event::GroupCommit);

    let (ckpt_s, _) = l.time_once("ViperStore::checkpoint_now", 3, || {
        store.checkpoint_now().expect("probe checkpoint")
    });
    l.set("wal.put_update_ns", costs.update);
    l.set("wal.overhead_ns", costs.update - l.get("store.put_update_ns.optane"));
    l.set("wal.appends_per_commit", appends as f64 / commits.max(1) as f64);
    l.set("ckpt.write_s", ckpt_s);

    // A tail of writes past the last checkpoint, then restart twice from
    // the same device: checkpoint + replay, then a full page scan.
    let tail = l.ctx.size(5_000, 500);
    for &a in &l.draws(tail, set.loaded_len()) {
        let key = set.all[set.loaded_slot(a)];
        fill_value(&mut buf, key, 0, 3);
        store.put(key, &buf).expect("probe update");
    }
    let live = store.len();
    let store = Arc::try_unwrap(store).ok().expect("probe threads have ended");
    let span = l.tracer.open("ViperStore::recover (checkpoint + replay)", ROOT, 0);
    let t = Instant::now();
    let (store, report) = recover(store, durability, config.layout, true);
    let replay_s = t.elapsed().as_secs_f64();
    l.tracer.close(span);
    assert!(report.from_checkpoint && store.len() == live, "probe recovery lost records");
    let span = l.tracer.open("ViperStore::recover (page scan)", ROOT, 0);
    let t = Instant::now();
    let (store, rescan) = recover(store, durability, config.layout, false);
    let rescan_s = t.elapsed().as_secs_f64();
    l.tracer.close(span);
    assert!(!rescan.from_checkpoint && store.len() == live, "probe rescan lost records");

    // Telemetry: the same gets with the recorder on (this store) and off
    // (the plain store measured earlier).
    let (on, off) = (costs.get, l.get("store.get_ns.optane"));
    l.set("recover.replay_s", replay_s);
    l.set("recover.rescan_s", rescan_s);
    l.set("recover.replayed", report.replayed as f64);
    l.set("telemetry.on_get_ns", on);
    l.set("telemetry.off_get_ns", off);
    l.set("telemetry.overhead_share", (on - off) / off);
}

/// `store_mixed` in small, for what its checkpoints cost the foreground.
fn checkpoint_cycles(l: &mut Ladder) {
    let mut mixed = StoreMixed::new(Ctx { trace: false, ..l.ctx });
    mixed.setup();
    let span = l.tracer.open("store_mixed window", ROOT, 0);
    let secs = if l.ctx.smoke { 0.3 } else { 1.5 };
    let window = mixed.measure(secs, &mut Tracer::new(false, Instant::now()));
    l.tracer.close(span);
    assert_eq!(window.checked.failed, 0, "probe store_mixed window failed an operation");
    l.set("ckpt.count", mixed.checkpoints as f64);
    l.set("ckpt.stall_share", mixed.stall_share);
}

fn proto(l: &mut Ladder) {
    let calls = l.ctx.size(20_000, 2_000);
    let req = Request { id: 7, deadline_us: 0, cmd: Command::Get { key: 0x1234_5678_9abc } };
    let resp = Response { id: 7, body: Body::Value(vec![0xab; WIRE_VALUE]) };
    let mut frame = Vec::with_capacity(256);
    let ns = l.time("li_proto::encode_request", calls, |_| {
        frame.clear();
        encode_request(std::hint::black_box(&req), &mut frame).expect("encodes");
    });
    l.set("proto.encode_req_ns", ns);
    let ns = l.time("li_proto::decode_request", calls, |_| {
        std::hint::black_box(decode_request(&frame[LEN_PREFIX..]).expect("decodes"));
    });
    l.set("proto.decode_req_ns", ns);
    let ns = l.time("li_proto::encode_response", calls, |_| {
        frame.clear();
        encode_response(std::hint::black_box(&resp), &mut frame).expect("encodes");
    });
    l.set("proto.encode_resp_ns", ns);
    let ns = l.time("li_proto::decode_response", calls, |_| {
        std::hint::black_box(decode_response(&frame[LEN_PREFIX..]).expect("decodes"));
    });
    l.set("proto.decode_resp_ns", ns);
}

/// Median round trip of GET-sized frames over loopback with nothing behind
/// them: a thread that answers each request frame with a response frame of
/// the size a GET's would have.
fn null_rtt_us(l: &mut Ladder, req_len: usize, resp_len: usize) -> f64 {
    let trips = l.ctx.size(1_000, 100);
    let mut p50s = Vec::with_capacity(PLACEMENTS);
    for _ in 0..PLACEMENTS {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound");
        let mut rtt = Samples::with_capacity(trips);
        std::thread::scope(|s| {
            s.spawn(move || {
                let (mut peer, _) = listener.accept().expect("accept the probe's connection");
                peer.set_nodelay(true).expect("set TCP_NODELAY");
                let (mut req, resp) = (vec![0u8; req_len], vec![0u8; resp_len]);
                while peer.read_exact(&mut req).is_ok() {
                    if peer.write_all(&resp).is_err() {
                        break;
                    }
                }
            });
            let mut stream = TcpStream::connect(addr).expect("connect to the echo thread");
            stream.set_nodelay(true).expect("set TCP_NODELAY");
            let (req, mut resp) = (vec![0u8; req_len], vec![0u8; resp_len]);
            let span = l.tracer.open("TcpStream echo", ROOT, 0);
            for _ in 0..trips {
                let t = Instant::now();
                stream.write_all(&req).expect("echo write");
                stream.read_exact(&mut resp).expect("echo read");
                rtt.push(t.elapsed().as_nanos() as u64);
            }
            l.tracer.close_calls(span, trips as u32);
            // Dropping the stream ends the echo thread's read loop.
        });
        p50s.push(rtt.quantile(0.5).expect("trips > 0") / 1e3);
    }
    stats::median(&p50s).expect("PLACEMENTS > 0")
}

/// Highest rate of [`RATES`] the server sustains, stopping at the first
/// that it does not; also what the steps shed, dropped and ran late.
struct RateLadder {
    /// Pooled p50 and p99 of the first step, from due times, in us.
    first_step: (f64, f64),
    max_ok: f64,
    attempted: u64,
    refused: u64,
    disconnects: u64,
    late_p99_us: f64,
}

fn rate_ladder(l: &mut Ladder, wire: &WireStack, puts: bool) -> RateLadder {
    let step_secs = if l.ctx.smoke { 0.1 } else { 0.4 };
    let mut r = RateLadder {
        first_step: (0.0, 0.0),
        max_ok: 0.0,
        attempted: 0,
        refused: 0,
        disconnects: 0,
        late_p99_us: 0.0,
    };
    'rates: for rate in RATES {
        // A step is short, and one stall of the sandbox fails it: a rate
        // counts as not sustained only when it fails twice.
        for attempt in 0..2 {
            let seed = l.rng.next_u64();
            let mut step = open_loop(wire, rate, step_secs, puts, seed, l.tracer);
            r.attempted += step.attempted;
            r.refused += step.refused;
            r.disconnects += u64::from(step.dropped());
            if rate == RATES[0] && attempt == 0 {
                let mut all = step.round.get.clone();
                all.extend(&step.round.put);
                r.first_step = (
                    all.quantile(0.5).unwrap_or(0.0) / 1e3,
                    all.quantile(0.99).unwrap_or(0.0) / 1e3,
                );
            }
            if step.sustains(rate) {
                r.max_ok = rate;
                r.late_p99_us = r.late_p99_us.max(step.late.quantile(0.99).unwrap_or(0.0) / 1e3);
                continue 'rates;
            }
        }
        break;
    }
    r
}

fn server(l: &mut Ladder) {
    let wire = WireStack::build(l.ctx.size(200_000, 10_000), l.ctx.seed);
    let keys = &wire.set.all;
    let store = &wire.stack.store;

    let calls = l.ctx.size(4_000, 400);
    let at = l.draws(calls * BATCHES, keys.len());
    let ns = l.time("li_server::service::execute (GET)", calls, |i| {
        std::hint::black_box(service::execute(store, &Command::Get { key: keys[at[i]] }));
    });
    l.set("server.execute_get_ns", ns);
    let mut record = vec![0u8; wire.stack.layout.value_size];
    let ns = l.time("li_server::service::execute (PUT)", calls, |i| {
        // Rewrites the loaded value, so later checks still hold.
        wire_record(&mut record, keys[at[i]], 0, 0);
        let value = record[4..4 + WIRE_VALUE].to_vec();
        std::hint::black_box(service::execute(store, &Command::Put { key: keys[at[i]], value }));
    });
    l.set("server.execute_put_ns", ns);

    // One closed-loop client, GETs only: the round trip the budget explains.
    let trips = l.ctx.size(1_000, 100);
    let queue_before = store.recorder().snapshot().op(OpKind::ServerQueue).count;
    let mut p50s = Vec::with_capacity(PLACEMENTS);
    for c in 0..PLACEMENTS {
        let at = l.draws(trips, keys.len());
        let mut client = wire.connect();
        let mut rtt = Samples::with_capacity(trips);
        for (i, &a) in at.iter().enumerate() {
            let req = (c * trips + i) as u64 + 1;
            let t0 = Instant::now();
            let id = client.send(Command::Get { key: keys[a] }, 0).expect("probe send");
            let t1 = Instant::now();
            let body = client.recv_for(id).expect("probe recv");
            let t2 = Instant::now();
            assert!(matches!(body, Body::Value(_)), "probe GET missed a loaded key");
            rtt.push((t2 - t0).as_nanos() as u64);
            let span = l.tracer.leaf("request", ROOT, req, t0, (t2 - t0).as_nanos() as u64);
            l.tracer.leaf("Client::send", span, req, t0, (t1 - t0).as_nanos() as u64);
            l.tracer.leaf("Client::recv", span, req, t1, (t2 - t1).as_nanos() as u64);
        }
        p50s.push(rtt.quantile(0.5).expect("trips > 0") / 1e3);
    }
    let queue = *store.recorder().snapshot().op(OpKind::ServerQueue);
    assert!(
        queue.count >= queue_before + (PLACEMENTS * trips) as u64,
        "server did not record its queue waits"
    );
    l.set("server.rtt_p50_us.c1", stats::median(&p50s).expect("PLACEMENTS > 0"));

    // Frame sizes of a GET and of its reply.
    let (mut req, mut resp) = (Vec::new(), Vec::new());
    encode_request(&Request { id: 1, deadline_us: 0, cmd: Command::Get { key: 1 } }, &mut req)
        .expect("encodes");
    encode_response(&Response { id: 1, body: Body::Value(vec![0; WIRE_VALUE]) }, &mut resp)
        .expect("encodes");
    let null = null_rtt_us(l, req.len(), resp.len());
    l.set("server.null_rtt_us", null);
    l.set("server.queue_wait_p50_us", queue.p50 as f64 / 1e3);

    // Two closed-loop clients for a tail the sample count supports.
    let secs = if l.ctx.smoke { 0.3 } else { 1.0 };
    let (round, checked) = closed_round(&wire, 2, l.ctx.seed ^ 0x999, secs, l.tracer);
    assert_eq!(checked.failed, 0, "probe closed loop failed a request");
    let mut gets = round.get;
    let q = stats::highest_supported(gets.len()).unwrap_or(0.5).min(0.999);
    l.set("server.get_p999_us", gets.quantile(q).unwrap_or(0.0) / 1e3);

    let get_only = rate_ladder(l, &wire, false);
    let mixed = rate_ladder(l, &wire, true);
    let attempted = (get_only.attempted + mixed.attempted).max(1);
    l.set("server.shed_share", (get_only.refused + mixed.refused) as f64 / attempted as f64);
    l.set("server.disconnects", (get_only.disconnects + mixed.disconnects) as f64);
    l.set("server.max_rate_get_only", get_only.max_ok);
    l.set("server.max_rate_ok", mixed.max_ok);
    l.set("server.open_p50_us.r15k", mixed.first_step.0);
    l.set("server.open_p99_us.r15k", mixed.first_step.1);
    l.set("harness.send_late_p99_us", get_only.late_p99_us.max(mixed.late_p99_us));
    wire.stop();
}

/// The latency budget of one GET at the wire, from the ladder's numbers:
/// `server.rtt_p50_us.c1` as li-proto + execute (= shard hop + index +
/// heap/device + telemetry) + the loopback itself + what is left.
pub fn budget_table(m: &[Row]) -> String {
    let get = |name: &str| m.iter().find(|r| r.name == name).map_or(f64::NAN, |r| r.value);
    let rtt = get("server.rtt_p50_us.c1");
    let execute = get("server.execute_get_ns") / 1e3;
    // The edge is everything but execute and li-proto; the residual is
    // what the loopback echo leaves of it.
    let proto = rtt - execute - get("server.edge_p50_us");
    let shard_hop = get("shard.hop_ns") / 1e3;
    let index = get("index.get_ns.pgm") / 1e3;
    let heap = (get("store.get_ns.optane") - get("shard.get_ns.c8")) / 1e3;
    let telemetry = (get("telemetry.on_get_ns") - get("telemetry.off_get_ns")) / 1e3;
    let service = execute - shard_hop - index - heap - telemetry;
    let null = get("server.null_rtt_us");
    let residual = get("harness.ladder_residual_share") * rtt;
    let row =
        |name: &str, us: f64| format!("  {name:<44}{us:>9.2} us {:>6.1} %\n", 100.0 * us / rtt);
    let mut s = String::from("latency budget of one GET at the wire (medians, one client):\n");
    s += &row("server.rtt_p50_us.c1", rtt);
    s += &row("  li-proto: encode+decode, request+response", proto);
    s += &row("  li_server::service::execute (GET)", execute);
    s += &row("    shard router hop (c8 - bare PGM)", shard_hop);
    s += &row("    PGM index get", index);
    s += &row("    record heap + Optane-like device read", heap);
    s += &row("    telemetry on the store get", telemetry);
    s += &row("    service: value buffer, unframe, copy", service);
    s += &row("  loopback echo of same-size frames", null);
    s += &row("  residual: li-server thread hand-offs", residual);
    let _ = write!(
        s,
        "  of the residual, {:.2} us is worker-queue wait as the server's own STATS histogram has it;\n  \
         the rest is reader->worker and worker->writer wake-ups and the per-response write, which\n  \
         nothing the harness may call isolates (spans inside li-server are a later change).\n",
        get("server.queue_wait_p50_us")
    );
    s
}
