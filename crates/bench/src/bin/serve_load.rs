//! Closed- and open-loop load generation against the `li-server` TCP
//! front-end, plus a seeded overload storm that asserts the degradation
//! ladder engages **in order**: transparent retry first, admission-gate
//! backpressure second, circuit-breaker shedding last.
//!
//! Three parts, all over real loopback sockets:
//!
//! 1. **Closed-loop sweep** — 8..64 clients, one in-flight request each,
//!    mixed GET/PUT; p50/p99/p999 per client count.
//! 2. **Open loop** — 16 clients each keeping a pipelined window of 16
//!    requests in flight, latency measured from send to response.
//! 3. **Ladder storm** — a store on a fault-injected device: write-failure
//!    bursts are absorbed by the retry policy (rung 1, invisible to
//!    clients), a 32-client pipelined put stampede overruns the server's
//!    in-flight budget and the store's admission gate (rung 2, typed
//!    `RETRY_AFTER`), then the breaker is tripped (rung 3,
//!    typed `OVERLOADED`, shed before the store is touched). Every request
//!    must resolve — success or typed error, never a hang or a dropped
//!    connection — and the three rungs must first engage in ladder order.
//!
//! Flags: `--ops N` (total ops per sweep point), `--out PATH`,
//! `--check` (exit non-zero unless the storm invariants hold).
//! `LIP_BENCH_N` scales the preloaded key set as in every other binary.

use std::time::{Duration, Instant};

use li_bench::harness::{self, BenchConfig};
use li_core::hist::LatencyHistogram;
use li_core::telemetry::{Event, Recorder};
use li_core::Sharded;
use li_nvm::{Fault, FaultPlan, NvmDevice};
use li_proto::{Body, Command, ErrorKind};
use li_server::server::ADMISSION_SHED_HINT_US;
use li_server::{testutil, Client, Server, ServiceConfig};
use li_sync::sync::atomic::{AtomicBool, Ordering};
use li_sync::sync::Arc;
use li_viper::{BreakerConfig, ConcurrentViperStore, RecoverOptions, RetryPolicy, StoreConfig};
use lip::IndexKind;

struct Args {
    ops: usize,
    out: String,
    check: bool,
}

fn parse_args(default_ops: usize) -> Args {
    let mut args =
        Args { ops: default_ops, out: "results/serve_load.json".to_string(), check: false };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ops" => args.ops = it.next().and_then(|v| v.parse().ok()).expect("--ops N"),
            "--out" => args.out = it.next().expect("--out PATH"),
            "--check" => args.check = true,
            "--telemetry" => {} // accepted for uniformity with other binaries
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What one load-generating client observed: every request it sent either
/// resolved (success or typed error) or is unaccounted — the storm check
/// demands the latter stays zero.
#[derive(Default)]
struct ClientTally {
    sent: u64,
    resolved: u64,
    ok: u64,
    retry_after: u64,
    /// The `RETRY_AFTER`s that came from the server's in-flight budget
    /// (they carry its hint), not from the store's admission gate.
    admission_shed: u64,
    overloaded: u64,
    other_errors: u64,
    first_retry_after: Option<Instant>,
    first_overloaded: Option<Instant>,
    hist: LatencyHistogram,
}

impl ClientTally {
    fn absorb(&mut self, at: Instant, body: &Body) {
        self.resolved += 1;
        match body {
            Body::Err { kind: ErrorKind::RetryAfter, retry_after_us } => {
                self.retry_after += 1;
                self.admission_shed += u64::from(*retry_after_us == ADMISSION_SHED_HINT_US);
                self.first_retry_after.get_or_insert(at);
            }
            Body::Err { kind: ErrorKind::Overloaded, .. } => {
                self.overloaded += 1;
                self.first_overloaded.get_or_insert(at);
            }
            Body::Err { .. } => self.other_errors += 1,
            _ => self.ok += 1,
        }
    }

    fn merge(&mut self, other: &ClientTally) {
        self.sent += other.sent;
        self.resolved += other.resolved;
        self.ok += other.ok;
        self.retry_after += other.retry_after;
        self.admission_shed += other.admission_shed;
        self.overloaded += other.overloaded;
        self.other_errors += other.other_errors;
        self.first_retry_after = earliest(self.first_retry_after, other.first_retry_after);
        self.first_overloaded = earliest(self.first_overloaded, other.first_overloaded);
        self.hist.merge(&other.hist);
    }
}

fn earliest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

/// Closed loop: each client keeps exactly one request in flight.
fn closed_loop_client(
    addr: std::net::SocketAddr,
    ops: usize,
    preload: u64,
    seed: u64,
) -> ClientTally {
    let mut c = Client::connect(addr, Duration::from_secs(10)).expect("connect");
    let mut s = seed;
    let mut tally = ClientTally::default();
    for _ in 0..ops {
        let r = splitmix64(&mut s);
        let key = (r % preload) * 7 + 1;
        let cmd = if r & 1 == 0 {
            Command::Get { key }
        } else {
            Command::Put { key, value: (r >> 8).to_le_bytes().to_vec() }
        };
        let t0 = Instant::now();
        tally.sent += 1;
        let body = c.call(cmd, 0).expect("closed-loop call");
        tally.hist.record(t0.elapsed().as_nanos() as u64);
        tally.absorb(Instant::now(), &body);
    }
    tally
}

/// Open loop: each client keeps a pipelined window of `window` requests in
/// flight; latency runs from send to matching response.
fn open_loop_client(
    addr: std::net::SocketAddr,
    ops: usize,
    window: usize,
    preload: u64,
    seed: u64,
) -> ClientTally {
    let mut c = Client::connect(addr, Duration::from_secs(10)).expect("connect");
    let mut s = seed;
    let mut tally = ClientTally::default();
    let mut in_flight: std::collections::HashMap<u64, Instant> = std::collections::HashMap::new();
    let send_one = |c: &mut Client<std::net::TcpStream>,
                    s: &mut u64,
                    in_flight: &mut std::collections::HashMap<u64, Instant>,
                    tally: &mut ClientTally| {
        let r = splitmix64(s);
        let key = (r % preload) * 7 + 1;
        let cmd = if r & 1 == 0 {
            Command::Get { key }
        } else {
            Command::Put { key, value: (r >> 8).to_le_bytes().to_vec() }
        };
        let id = c.send(cmd, 0).expect("open-loop send");
        in_flight.insert(id, Instant::now());
        tally.sent += 1;
    };
    for _ in 0..window.min(ops) {
        send_one(&mut c, &mut s, &mut in_flight, &mut tally);
    }
    while tally.resolved < ops as u64 {
        let resp = c.recv().expect("open-loop recv");
        let now = Instant::now();
        if let Some(t0) = in_flight.remove(&resp.id) {
            tally.hist.record(now.duration_since(t0).as_nanos() as u64);
        }
        tally.absorb(now, &resp.body);
        if tally.sent < ops as u64 {
            send_one(&mut c, &mut s, &mut in_flight, &mut tally);
        }
    }
    tally
}

fn fan_out<F>(clients: usize, run: F) -> ClientTally
where
    F: Fn(usize) -> ClientTally + Send + Sync + 'static,
{
    let run = Arc::new(run);
    let mut handles = Vec::new();
    for i in 0..clients {
        let run = Arc::clone(&run);
        handles.push(li_sync::thread::spawn(move || run(i)));
    }
    let mut total = ClientTally::default();
    for h in handles {
        total.merge(&h.join().expect("client thread panicked"));
    }
    total
}

fn latency_cells(t: &ClientTally, secs: f64) -> Vec<String> {
    vec![
        format!("{:.3}", t.resolved as f64 / secs / 1e6),
        format!("{:.1}", t.hist.percentile(0.5) as f64 / 1e3),
        format!("{:.1}", t.hist.percentile(0.99) as f64 / 1e3),
        format!("{:.1}", t.hist.percentile(0.999) as f64 / 1e3),
        format!("{:.1}", t.hist.max() as f64 / 1e3),
    ]
}

fn latency_json(t: &ClientTally, secs: f64) -> String {
    format!(
        "{{\"mops\":{:.4},\"p50_us\":{:.3},\"p99_us\":{:.3},\"p999_us\":{:.3},\"max_us\":{:.3}}}",
        t.resolved as f64 / secs / 1e6,
        t.hist.percentile(0.5) as f64 / 1e3,
        t.hist.percentile(0.99) as f64 / 1e3,
        t.hist.percentile(0.999) as f64 / 1e3,
        t.hist.max() as f64 / 1e3,
    )
}

/// One sweep point: a fresh preloaded server, `clients` closed-loop
/// clients splitting `total_ops`.
fn sweep_point(clients: usize, total_ops: usize, preload: usize, seed: u64) -> (ClientTally, f64) {
    let cfg = ServiceConfig::default();
    let store = testutil::served_store(preload, &cfg);
    let server = Server::spawn(store, cfg, "127.0.0.1:0").expect("spawn server");
    let addr = server.local_addr();
    let per_client = total_ops.div_ceil(clients);
    let preload = preload as u64;
    let t0 = Instant::now();
    let tally = fan_out(clients, move |i| {
        closed_loop_client(addr, per_client, preload, seed ^ (i as u64).wrapping_mul(0x9e37))
    });
    let secs = t0.elapsed().as_secs_f64();
    server.shutdown();
    (tally, secs)
}

struct StormOutcome {
    retries: u64,
    retry_after: u64,
    /// `RETRY_AFTER`s with the server rung's hint, as clients counted
    /// them, and the server's own `admission_shed` counter.
    admission_shed: u64,
    admission_shed_event: u64,
    slow_client_drops: u64,
    overloaded: u64,
    sent: u64,
    resolved: u64,
    other_errors: u64,
    ladder_ok: bool,
    shed_p999_us: f64,
    breaker_opens: u64,
    drained_clean: bool,
    recovered: bool,
}

/// Keys the storm store serves: 4096 spread keys, so the recovered
/// `Sharded` index gets real shard boundaries.
const STORM_KEYS: u64 = 4096;

fn storm_key(i: u64) -> u64 {
    (i % STORM_KEYS) * 13 + 5
}

/// Device op at which the scheduled write-failure bursts start — padded
/// to exactly after preload, so phase 1 deterministically runs into them.
const BURSTS_AT: u64 = 50_000;

/// The seeded overload storm: one server whose store sits on a device with
/// scheduled write-failure bursts, driven through the three rungs in
/// sequence. Returns every counter the `--check` gate needs.
fn storm(seed: u64) -> StormOutcome {
    // Write-failure bursts of 4 consecutive device ops across phase 1's
    // op window — short enough that RetryPolicy::standard (6 attempts)
    // absorbs each burst without surfacing an error.
    let mut plan = FaultPlan::none();
    for burst in 0..12u64 {
        let start = BURSTS_AT + 20 + burst * 40;
        for op in start..start + 4 {
            plan = plan.with(Fault::FailedWrite { op });
        }
    }
    let store_cfg = StoreConfig::test(50_000);
    let dev = Arc::new(NvmDevice::with_faults(store_cfg.nvm, &plan));

    // Preload through a throwaway single-shard store on the same device
    // (single-threaded, so the device op sequence stays deterministic and
    // well below BURSTS_AT), then re-recover: the heap scan hands the
    // live pairs to an 8-shard build with real boundaries.
    {
        let (pre, _) = ConcurrentViperStore::<Sharded>::recover_with_options(
            Arc::clone(&dev),
            store_cfg.layout,
            RecoverOptions::default(),
            |pairs| Sharded::build_boxed(1, pairs, |c| IndexKind::BTree.build(c)),
        );
        let vs = store_cfg.layout.value_size;
        let mut val = vec![0u8; vs];
        for i in 0..STORM_KEYS {
            val[..8].copy_from_slice(&i.to_le_bytes());
            pre.put(storm_key(i), &val).expect("storm preload put");
        }
    }
    // Pad the device op counter up to the burst window, so phase 1 starts
    // exactly where the fault plan expects it.
    let injector = dev.fault_injector().expect("device has a fault plan");
    while injector.ops() < BURSTS_AT {
        dev.try_flush(0, 64).expect("padding flush");
    }

    let (mut store, _) = ConcurrentViperStore::<Sharded>::recover_with_options(
        Arc::clone(&dev),
        store_cfg.layout,
        RecoverOptions::default(),
        |pairs| Sharded::build_boxed(8, pairs, |c| IndexKind::BTree.build(c)),
    );
    store.set_recorder(Recorder::enabled());
    let rec = store.recorder().clone();

    // Ladder wiring: an in-flight budget so small that a pipelined
    // stampede overruns it (typed RETRY_AFTER) on any core count; the
    // store-level admission gate backs it up, and a hair-trigger breaker
    // the storm trips by hand (in production the maintenance worker
    // feeds it).
    let scfg = ServiceConfig {
        max_in_flight: 8,
        retry: RetryPolicy::standard(seed),
        admission_limit: 1,
        admission_wait: Duration::ZERO,
        breaker: Some(BreakerConfig {
            depth_open: 4,
            depth_close: 1,
            sustain_ticks: 1,
            p999_open_ns: 0,
        }),
        ..ServiceConfig::default()
    };
    let breaker = scfg.install(&mut store).expect("breaker configured");
    let server = Server::spawn(Arc::new(store), scfg, "127.0.0.1:0").expect("spawn server");
    let addr = server.local_addr();

    // Rung-1 sentinel: the moment the store first rides out an injected
    // write failure (Event::Retry), sampled while phase 1 runs.
    let stop = Arc::new(AtomicBool::new(false));
    let monitor = {
        let rec = rec.clone();
        let stop = Arc::clone(&stop);
        li_sync::thread::spawn(move || loop {
            if rec.snapshot().event(Event::Retry) > 0 {
                return Some(Instant::now());
            }
            if stop.load(Ordering::Acquire) {
                return None;
            }
            li_sync::thread::sleep(Duration::from_micros(200));
        })
    };

    // Phase 1 — retry: a single sequential client stays under the
    // admission limit; the scheduled bursts hit its puts and the retry
    // policy absorbs them.
    let mut total = ClientTally::default();
    let p1 = fan_out(1, move |_| {
        let mut c = Client::connect(addr, Duration::from_secs(10)).expect("connect");
        let mut tally = ClientTally::default();
        for i in 0..400u64 {
            tally.sent += 1;
            let t0 = Instant::now();
            let body = c
                .call(Command::Put { key: storm_key(i), value: i.to_le_bytes().to_vec() }, 0)
                .expect("phase-1 put");
            tally.hist.record(t0.elapsed().as_nanos() as u64);
            tally.absorb(Instant::now(), &body);
        }
        tally
    });
    stop.store(true, Ordering::Release);
    let t_retry = monitor.join().expect("monitor panicked");
    let retries = rec.snapshot().event(Event::Retry);
    total.merge(&p1);

    // Phase 2 — backpressure: 32 clients each pipeline 150 puts without
    // reading. A read delivers many frames at once and only 8 may be in
    // flight server-wide; the overflow is shed as typed RETRY_AFTER (and
    // on multicore hosts the single-entrant admission gate sheds more).
    // Every frame still gets an answer.
    let p2 = fan_out(32, move |i| {
        let mut c = Client::connect(addr, Duration::from_secs(10)).expect("connect");
        let mut tally = ClientTally::default();
        let mut s = seed ^ 0xbac4_0000 ^ i as u64;
        for j in 0..150u64 {
            tally.sent += 1;
            let key = storm_key(splitmix64(&mut s));
            c.send(Command::Put { key, value: j.to_le_bytes().to_vec() }, 0).expect("phase-2 send");
        }
        for _ in 0..150u64 {
            let resp = c.recv().expect("phase-2 recv");
            tally.absorb(Instant::now(), &resp.body);
        }
        tally
    });
    let t_retry_after = p2.first_retry_after;
    total.merge(&p2);

    // Phase 3 — breaker: one overloaded observation opens it
    // (sustain_ticks = 1); every put is now shed as typed OVERLOADED
    // before touching the store.
    breaker.observe(999, 0);
    let p3 = fan_out(8, move |i| {
        let mut c = Client::connect(addr, Duration::from_secs(10)).expect("connect");
        let mut tally = ClientTally::default();
        let mut s = seed ^ 0xb4ea_c000 ^ i as u64;
        for j in 0..100u64 {
            tally.sent += 1;
            let key = storm_key(splitmix64(&mut s));
            let t0 = Instant::now();
            let body = c
                .call(Command::Put { key, value: j.to_le_bytes().to_vec() }, 0)
                .expect("phase-3 put");
            tally.hist.record(t0.elapsed().as_nanos() as u64);
            tally.absorb(Instant::now(), &body);
        }
        tally
    });
    let t_overloaded = p3.first_overloaded;
    let shed_p999_us = p3.hist.percentile(0.999) as f64 / 1e3;
    total.merge(&p3);

    // Close the breaker and prove the ladder is fully reversible: the
    // same server serves writes again.
    breaker.observe(0, 0);
    let p4 = fan_out(1, move |_| {
        let mut c = Client::connect(addr, Duration::from_secs(10)).expect("connect");
        let mut tally = ClientTally::default();
        tally.sent += 2;
        let key = storm_key(7);
        let put = c.call(Command::Put { key, value: vec![42] }, 0).expect("put");
        tally.absorb(Instant::now(), &put);
        let get = c.call(Command::Get { key }, 0).expect("get");
        tally.absorb(Instant::now(), &get);
        tally
    });
    let recovered = p4.ok == 2;
    total.merge(&p4);

    let report = server.shutdown();
    let events = rec.snapshot();

    // Ladder order: the first retry strictly precedes the first typed
    // RETRY_AFTER, which strictly precedes the first typed OVERLOADED.
    let ladder_ok = match (t_retry, t_retry_after, t_overloaded) {
        (Some(a), Some(b), Some(c)) => a < b && b < c,
        _ => false,
    };

    StormOutcome {
        retries,
        retry_after: total.retry_after,
        admission_shed: total.admission_shed,
        admission_shed_event: events.event(Event::AdmissionShed),
        slow_client_drops: events.event(Event::SlowClientDrop),
        overloaded: total.overloaded,
        sent: total.sent,
        resolved: total.resolved,
        other_errors: total.other_errors,
        ladder_ok,
        shed_p999_us,
        breaker_opens: breaker.times_opened(),
        drained_clean: report.drained_clean,
        recovered,
    }
}

fn main() {
    let cfg = BenchConfig::from_env();
    let args = parse_args(cfg.ops.min(20_000));
    let preload = cfg.n.clamp(1_024, 25_000);
    println!("== serve_load: li-server under closed/open-loop load + ladder storm ==\n");
    println!("preload {preload} keys, {} ops per sweep point, seed {}\n", args.ops, cfg.seed);

    // Part 1: closed-loop client sweep.
    harness::header(&["clients", "Mops", "p50 us", "p99 us", "p999 us", "max us"]);
    let mut sweep_rows = Vec::new();
    for clients in [8usize, 16, 32, 64] {
        let (tally, secs) = sweep_point(clients, args.ops, preload, cfg.seed);
        assert_eq!(tally.sent, tally.resolved, "closed loop lost responses");
        assert_eq!(tally.other_errors + tally.retry_after + tally.overloaded, 0);
        harness::row(&format!("closed/{clients}"), &latency_cells(&tally, secs));
        sweep_rows.push(format!("{{\"clients\":{clients},{}", &latency_json(&tally, secs)[1..]));
    }

    // Part 2: open loop, 16 clients x window 16.
    let (open_tally, open_secs) = {
        let scfg = ServiceConfig::default();
        let store = testutil::served_store(preload, &scfg);
        let server = Server::spawn(store, scfg, "127.0.0.1:0").expect("spawn server");
        let addr = server.local_addr();
        let per_client = args.ops.div_ceil(16);
        let preload = preload as u64;
        let seed = cfg.seed;
        let t0 = Instant::now();
        let tally = fan_out(16, move |i| {
            open_loop_client(addr, per_client, 16, preload, seed ^ (i as u64) << 17)
        });
        let secs = t0.elapsed().as_secs_f64();
        server.shutdown();
        (tally, secs)
    };
    assert_eq!(open_tally.sent, open_tally.resolved, "open loop lost responses");
    harness::row("open/16x16", &latency_cells(&open_tally, open_secs));

    // Part 3: the seeded ladder storm.
    println!("\n-- overload storm (seeded ladder) --");
    let s = storm(cfg.seed);
    println!(
        "rung 1 retry: {} absorbed | rung 2 backpressure: {} RETRY_AFTER ({} from the server's budget) | rung 3 breaker: {} OVERLOADED ({} open)",
        s.retries, s.retry_after, s.admission_shed, s.overloaded, s.breaker_opens
    );
    println!(
        "sent {} resolved {} (other errors {}) | shed-path p999 {:.1} us | ladder order {} | recovered {} | drained clean {}",
        s.sent,
        s.resolved,
        s.other_errors,
        s.shed_p999_us,
        if s.ladder_ok { "OK" } else { "VIOLATED" },
        s.recovered,
        s.drained_clean
    );

    let json = format!(
        "{{\"bench\":\"serve_load\",\"preload\":{},\"ops\":{},\"seed\":{},\
         \"sweep\":[{}],\"open_loop\":{{\"clients\":16,\"window\":16,{}}},\
         \"storm\":{{\"retries\":{},\"retry_after\":{},\"admission_shed\":{},\"overloaded\":{},\
         \"sent\":{},\"resolved\":{},\"other_errors\":{},\"ladder_ok\":{},\
         \"shed_p999_us\":{:.3},\"breaker_opens\":{},\"drained_clean\":{},\"recovered\":{}}}}}\n",
        preload,
        args.ops,
        cfg.seed,
        sweep_rows.join(","),
        &latency_json(&open_tally, open_secs)[1..],
        s.retries,
        s.retry_after,
        s.admission_shed,
        s.overloaded,
        s.sent,
        s.resolved,
        s.other_errors,
        s.ladder_ok,
        s.shed_p999_us,
        s.breaker_opens,
        s.drained_clean,
        s.recovered,
    );
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    std::fs::write(&args.out, &json).expect("write JSON row");
    println!("[json] {}", args.out);

    if args.check {
        let mut failures = Vec::new();
        if s.retries == 0 {
            failures.push("rung 1 never engaged (no retries recorded)");
        }
        if s.retry_after == 0 {
            failures.push("rung 2 never engaged (no RETRY_AFTER responses)");
        }
        if s.admission_shed == 0 || s.admission_shed != s.admission_shed_event {
            failures.push("admission_shed is not the count of RETRY_AFTERs the budget sent");
        }
        if s.slow_client_drops != 0 {
            failures.push("a client was dropped as slow instead of being shed typed errors");
        }
        if s.overloaded == 0 {
            failures.push("rung 3 never engaged (no OVERLOADED responses)");
        }
        if !s.ladder_ok {
            failures.push("ladder rungs did not engage in order");
        }
        if s.sent != s.resolved {
            failures.push("a request was sent but never resolved");
        }
        if s.shed_p999_us >= 50_000.0 {
            failures.push("shed-path p999 above 50ms — shedding is not cheap");
        }
        if !s.recovered {
            failures.push("server did not serve writes after the breaker closed");
        }
        if !s.drained_clean {
            failures.push("shutdown drain left in-flight requests behind");
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
        println!("CHECK OK: ladder order, full resolution, cheap shedding, clean drain");
    }
}
