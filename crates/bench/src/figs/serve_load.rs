//! The overload gate: a seeded storm against the `li-server` TCP
//! front-end, over real loopback sockets, that asserts both rungs of the
//! degradation ladder engage — transparent retry first, the server's
//! in-flight budget second.
//!
//! The store sits on a fault-injected device: write-failure bursts are
//! absorbed by the retry policy (rung 1, invisible to clients), then a
//! 32-client pipelined put stampede overruns the server's in-flight
//! budget (rung 2, typed `RETRY_AFTER`, shed before the store is
//! touched). Every request must resolve — success or typed error, never
//! a hang or a dropped connection — every `RETRY_AFTER` must come from
//! the budget, and the server must serve writes again afterwards.
//! Throughput and latency under closed- and open-loop load are `perf/`'s
//! `wire_closed` / `wire_pipelined` workloads and `server.*` rows, not
//! this gate's.
//!
//! Flags: `--out PATH`, `--check` (exit non-zero unless the storm
//! invariants hold).

use std::time::{Duration, Instant};

use crate::harness::{BenchConfig, Flags, Report, Samples};
use li_core::telemetry::{Event, Recorder};
use li_core::Sharded;
use li_nvm::fault::splitmix64;
use li_nvm::{Fault, FaultPlan, NvmDevice};
use li_proto::{Body, Command, ErrorKind};
use li_server::server::ADMISSION_SHED_HINT_US;
use li_server::{Client, Server, ServiceConfig};
use li_sync::sync::Arc;
use li_viper::{ConcurrentViperStore, RecoverOptions, RetryPolicy, StoreConfig};
use lip::IndexKind;

/// What one load-generating client observed: every request it sent either
/// resolved (success or typed error) or is unaccounted — the storm check
/// demands the latter stays zero.
#[derive(Default)]
struct ClientTally {
    sent: u64,
    resolved: u64,
    ok: u64,
    retry_after: u64,
    /// The `RETRY_AFTER`s that carry the server budget's hint.
    admission_shed: u64,
    other_errors: u64,
    /// Send-to-receive times in ns of the `RETRY_AFTER` answers (the
    /// shed path).
    shed_rtt_ns: Vec<u64>,
}

impl ClientTally {
    fn absorb(&mut self, body: &Body) {
        self.resolved += 1;
        match body {
            Body::Err { kind: ErrorKind::RetryAfter, retry_after_us } => {
                self.retry_after += 1;
                self.admission_shed += u64::from(*retry_after_us == ADMISSION_SHED_HINT_US);
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
        self.other_errors += other.other_errors;
        self.shed_rtt_ns.extend(&other.shed_rtt_ns);
    }
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
/// scheduled write-failure bursts, driven through the two rungs in
/// sequence; prints, reports and checks every counter the gate needs.
fn storm(seed: u64, report: &mut Report) {
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
    // stampede overruns it (typed RETRY_AFTER) on any core count.
    let scfg = ServiceConfig {
        max_in_flight: 8,
        retry: RetryPolicy::standard(seed),
        ..ServiceConfig::default()
    };
    scfg.install(&mut store);
    let server = Server::spawn(Arc::new(store), scfg, "127.0.0.1:0").expect("spawn server");
    let addr = server.local_addr();

    // Phase 1 — retry: a single sequential client stays under the
    // budget; the scheduled bursts hit its puts and the retry policy
    // absorbs them.
    let mut total = fan_out(1, move |_| {
        let mut c = Client::connect(addr, Duration::from_secs(10)).expect("connect");
        let mut tally = ClientTally::default();
        for i in 0..400u64 {
            tally.sent += 1;
            let body = c
                .call(Command::Put { key: storm_key(i), value: i.to_le_bytes().to_vec() }, 0)
                .expect("phase-1 put");
            tally.absorb(&body);
        }
        tally
    });
    // Read before the stampede starts, so rung 1 is seen to engage first.
    let retries = rec.snapshot().event(Event::Retry);

    // Phase 2 — the budget: 32 clients each pipeline 150 puts without
    // reading. A read delivers many frames at once and only 8 may be in
    // flight server-wide; the overflow is shed as typed RETRY_AFTER.
    // Every frame still gets an answer.
    let p2 = fan_out(32, move |i| {
        let mut c = Client::connect(addr, Duration::from_secs(10)).expect("connect");
        let mut tally = ClientTally::default();
        let mut s = seed ^ 0xbac4_0000 ^ i as u64;
        let mut sent_at = Vec::with_capacity(150);
        let mut first_id = None;
        for j in 0..150u64 {
            tally.sent += 1;
            let key = storm_key(splitmix64(&mut s));
            sent_at.push(Instant::now());
            let id = c
                .send(Command::Put { key, value: j.to_le_bytes().to_vec() }, 0)
                .expect("phase-2 send");
            first_id.get_or_insert(id);
        }
        let first_id = first_id.unwrap_or_default();
        for _ in 0..150u64 {
            let resp = c.recv().expect("phase-2 recv");
            if matches!(resp.body, Body::Err { kind: ErrorKind::RetryAfter, .. }) {
                let sent = sent_at[(resp.id - first_id) as usize];
                tally.shed_rtt_ns.push(sent.elapsed().as_nanos() as u64);
            }
            tally.absorb(&resp.body);
        }
        tally
    });
    total.merge(&p2);
    let shed_p999_us = Samples::new(p2.shed_rtt_ns).us(0.999);

    // The storm is over: the same server serves writes again.
    let p3 = fan_out(1, move |_| {
        let mut c = Client::connect(addr, Duration::from_secs(10)).expect("connect");
        let mut tally = ClientTally::default();
        tally.sent += 2;
        let key = storm_key(7);
        let put = c.call(Command::Put { key, value: vec![42] }, 0).expect("put");
        tally.absorb(&put);
        let get = c.call(Command::Get { key }, 0).expect("get");
        tally.absorb(&get);
        tally
    });
    let recovered = p3.ok == 2;
    total.merge(&p3);

    let drained_clean = server.shutdown().drained_clean;
    let events = rec.snapshot();
    // Every `RETRY_AFTER` carries the server budget's hint, as clients
    // counted them, and matches the server's own `admission_shed` counter.
    let shed_matches = total.admission_shed > 0
        && total.retry_after == total.admission_shed
        && total.admission_shed == events.event(Event::AdmissionShed);

    println!(
        "rung 1 retry: {retries} absorbed | rung 2 budget: {} RETRY_AFTER ({} with the budget's hint)",
        total.retry_after, total.admission_shed,
    );
    println!(
        "sent {} resolved {} (other errors {}) | shed-path p999 {shed_p999_us:.1} us | recovered {recovered} | drained clean {drained_clean}",
        total.sent, total.resolved, total.other_errors,
    );

    report.field("seed", seed);
    report.field("retries", retries);
    report.field("retry_after", total.retry_after);
    report.field("admission_shed", total.admission_shed);
    report.field("sent", total.sent);
    report.field("resolved", total.resolved);
    report.field("other_errors", total.other_errors);
    report.field("shed_p999_us", shed_p999_us);
    report.field("drained_clean", drained_clean);
    report.field("recovered", recovered);

    report.check(retries > 0, "rung 1 never engaged (no retries before the stampede)");
    report.check(shed_matches, "a RETRY_AFTER did not come from the server's in-flight budget");
    report.check(
        events.event(Event::SlowClientDrop) == 0,
        "a client was dropped as slow instead of being shed typed errors",
    );
    report.check(total.sent == total.resolved, "a request was sent but never resolved");
    report.check(shed_p999_us < 50_000.0, "shed-path p999 above 50ms — shedding is not cheap");
    report.check(recovered, "server did not serve writes after the storm");
    report.check(drained_clean, "shutdown drain left in-flight requests behind");
}

pub fn run(cfg: &BenchConfig, flags: &mut Flags) -> Result<u8, String> {
    let mut report = Report::new("serve_load", flags);
    flags.finish()?;
    println!("== serve_load: li-server overload storm (seeded ladder), seed {} ==\n", cfg.seed);
    storm(cfg.seed, &mut report);
    Ok(report.finish())
}
