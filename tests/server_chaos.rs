//! Network chaos tests for the `li-server` front-end: seeded
//! [`FaultyTransport`] storms against a real TCP server, graceful-drain
//! coverage, and STATS causality. Companion to `tests/chaos_recovery.rs`
//! (which storms the storage layer); here the faults live in the
//! *network* — torn writes, one-byte reads, stalls, and mid-frame
//! disconnects — and the properties are service-level:
//!
//! 1. Every acknowledged write is visible to a clean client afterwards,
//!    and every request either resolves or its connection dies cleanly
//!    (no hangs, no wrong answers) — `network_fault_storm_*`.
//! 2. Graceful shutdown completes or typed-`CANCELLED`s every in-flight
//!    request, refuses new connections afterwards, and checkpoints the
//!    store — `graceful_shutdown_*`.
//! 3. STATS counters are causal: the per-op counts a server reports
//!    equal the completions a client observed — `stats_counters_*`.

use li_sync::sync::mpsc;
use std::collections::BTreeMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use li_nvm::fault::splitmix64;
use li_proto::{Body, Command, ErrorKind};
use li_server::{testutil, Client, FaultConfig, FaultyTransport, Server, ServiceConfig};
use li_sync::sync::Arc;

/// Runs `f` under a watchdog so a hung server fails the test instead of
/// hanging CI (same discipline as `tests/chaos_recovery.rs`).
fn with_deadline<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let t = li_sync::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(v) => {
            t.join().expect("test body panicked");
            v
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match t.join() {
            Err(e) => std::panic::resume_unwind(e),
            Ok(()) => unreachable!("sender dropped without sending or panicking"),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("test exceeded {limit:?} deadline — server hang?")
        }
    }
}

/// A client whose socket is wrapped in a seeded fault-injecting
/// transport; the server sees genuinely torn TCP traffic.
fn storm_connect(addr: SocketAddr, seed: u64) -> io::Result<Client<FaultyTransport<TcpStream>>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    Ok(Client::over(FaultyTransport::new(stream, FaultConfig::storm(), seed)))
}

/// What one storm client can prove afterwards: writes it saw acked
/// (pessimistically excluding any key it ever *attempted* to delete,
/// since an unacked delete may still have applied), plus fault/error
/// tallies for the "storm actually stormed" sanity checks.
struct StormOutcome {
    acked: BTreeMap<u64, [u8; 8]>,
    injected: u64,
    io_errors: u64,
}

fn storm_client(addr: SocketAddr, id: u64, ops: usize, preload: u64) -> StormOutcome {
    let mut rng = 0x5eed_c11e ^ (id << 32);
    let mut acked: BTreeMap<u64, [u8; 8]> = BTreeMap::new();
    let mut injected = 0u64;
    let mut io_errors = 0u64;
    let mut attempt = 0u64;
    let mut cli = storm_connect(addr, id * 1000 + attempt).expect("initial connect");

    for i in 0..ops as u64 {
        // One fresh key per op keeps unacked writes from aliasing acked
        // state: an op that died mid-call can only affect its own key.
        let key = 1_000_000 + id * 100_000 + i;
        enum Expect {
            PutOk(u64, [u8; 8]),
            GetAcked(u64, [u8; 8]),
            GetPreloaded(u64),
            DeleteAcked,
        }
        let (cmd, expect) = match splitmix64(&mut rng) % 4 {
            0 | 1 => {
                let value = splitmix64(&mut rng).to_le_bytes();
                (Command::Put { key, value: value.to_vec() }, Expect::PutOk(key, value))
            }
            2 if !acked.is_empty() => {
                let pick = splitmix64(&mut rng) as usize % acked.len();
                let (&k, &v) = acked.iter().nth(pick).expect("non-empty");
                (Command::Get { key: k }, Expect::GetAcked(k, v))
            }
            3 if !acked.is_empty() => {
                let pick = splitmix64(&mut rng) as usize % acked.len();
                let &k = acked.keys().nth(pick).expect("non-empty");
                // Remove from the acked set *before* sending: if the call
                // dies the delete may or may not have applied, so the key
                // is unverifiable either way.
                acked.remove(&k);
                (Command::Delete { key: k }, Expect::DeleteAcked)
            }
            _ => {
                let k = (splitmix64(&mut rng) % preload) * 7 + 1;
                (Command::Get { key: k }, Expect::GetPreloaded(k))
            }
        };

        match cli.call(cmd, 0) {
            Ok(body) => match expect {
                Expect::PutOk(k, v) => {
                    assert_eq!(body, Body::Ok, "put {k} under network faults");
                    acked.insert(k, v);
                }
                Expect::GetAcked(k, v) => {
                    assert_eq!(body, Body::Value(v.to_vec()), "acked key {k} must read back");
                }
                Expect::GetPreloaded(k) => {
                    assert_eq!(
                        body,
                        Body::Value((k as u32).to_le_bytes().to_vec()),
                        "preloaded key {k}"
                    );
                }
                Expect::DeleteAcked => {
                    assert_eq!(body, Body::Deleted(true), "acked put must be deletable");
                }
            },
            Err(_) => {
                // The transport died (injected disconnect, or a frame
                // torn beyond recovery). The op's outcome is unknown —
                // its unique key was never added to the acked set —
                // reconnect with a fresh fault stream and keep going.
                io_errors += 1;
                injected += cli.get_ref().injected;
                attempt += 1;
                cli = storm_connect(addr, id * 1000 + attempt).expect("reconnect");
            }
        }
    }
    injected += cli.get_ref().injected;
    StormOutcome { acked, injected, io_errors }
}

/// Tentpole chaos property: under a seeded storm of torn writes,
/// one-byte reads, stalls, and mid-frame disconnects from six
/// concurrent clients, the server never hangs, never answers wrongly,
/// and every write it acknowledged is visible to a clean client.
#[test]
fn network_fault_storm_acked_writes_survive_and_server_stays_up() {
    with_deadline(Duration::from_mins(2), || {
        const CLIENTS: u64 = 6;
        const OPS: usize = 200;
        const PRELOAD: usize = 512;
        let cfg = ServiceConfig::default();
        let store = testutil::served_store(PRELOAD, &cfg);
        let server = Server::spawn(store, cfg, "127.0.0.1:0").expect("spawn");
        let addr = server.local_addr();

        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| li_sync::thread::spawn(move || storm_client(addr, id, OPS, PRELOAD as u64)))
            .collect();
        let outcomes: Vec<StormOutcome> =
            handles.into_iter().map(|h| h.join().expect("storm client panicked")).collect();

        let injected: u64 = outcomes.iter().map(|o| o.injected).sum();
        let io_errors: u64 = outcomes.iter().map(|o| o.io_errors).sum();
        assert!(injected > 100, "storm profile must actually inject faults, got {injected}");

        // A clean (fault-free) client must see every acked write.
        let mut clean = Client::connect(addr, Duration::from_secs(5)).expect("clean connect");
        let mut verified = 0u64;
        for o in &outcomes {
            for (&k, v) in &o.acked {
                assert_eq!(
                    clean.call(Command::Get { key: k }, 0).expect("clean get"),
                    Body::Value(v.to_vec()),
                    "acked write {k} lost after network storm"
                );
                verified += 1;
            }
        }
        assert!(verified > 0, "storm must have acked at least one write");

        // The server is still fully functional (stats answers, drain is
        // clean) — the storm was absorbed, not accumulated.
        let json = clean.stats().expect("stats after storm");
        assert!(json.contains("\"conn_open\""), "telemetry survived: {json}");
        drop(clean);
        let report = server.shutdown();
        assert!(report.drained_clean, "drain after storm must be clean: {report:?}");
        eprintln!(
            "storm: {injected} faults injected, {io_errors} connection deaths, \
             {verified} acked writes verified, {} completed",
            report.completed
        );
    });
}

/// Satellite: graceful shutdown under load. Every in-flight request
/// completes or gets a typed `CANCELLED`; requests arriving mid-drain
/// are refused, not dropped; new connections are refused afterwards;
/// the store checkpoints on the way down.
#[test]
fn graceful_shutdown_completes_or_cancels_then_refuses_and_checkpoints() {
    with_deadline(Duration::from_mins(1), || {
        let cfg = ServiceConfig::default();
        let store = testutil::served_store(2048, &cfg);
        let store_handle = Arc::clone(&store);
        let gen_before = store_handle.checkpoint_generation();
        let server = Server::spawn(store, cfg, "127.0.0.1:0").expect("spawn");
        let addr = server.local_addr();
        // Two connections: `backlog` carries the in-flight work and never
        // writes again once the drain starts (a late write to a closed
        // socket would RST away its still-buffered responses — a TCP
        // artifact, not a server property); `probe` sends closed-loop
        // puts into the drain window to catch the typed CANCELLEDs.
        let mut backlog = Client::connect(addr, Duration::from_secs(10)).expect("connect");
        let mut probe = Client::connect(addr, Duration::from_secs(10)).expect("connect");

        // Wave 1: a backlog of heavy scans, 2 MiB of responses that
        // `backlog` does not read until the drain is under way. A
        // request is accepted when the server reads it, so wait until
        // the first scan has started: the drain then finds work in
        // flight, and any scan still in the kernel's receive buffer when
        // the stop flag lands is refused, not lost.
        let wave1: Vec<u64> = (0..64)
            .map(|_| {
                backlog.send(Command::Scan { lo: 0, hi: u64::MAX, limit: 2048 }, 0).expect("send")
            })
            .collect();
        while server.completed() == 0 {
            li_sync::thread::sleep(Duration::from_micros(100));
        }

        // Trigger the drain, then keep feeding requests into it: frames
        // read after the stop flag must come back typed CANCELLED (or
        // the connection dies cleanly), never vanish.
        let drain = li_sync::thread::spawn(move || server.shutdown());
        let mut cancelled = 0u64;
        let mut completed2 = 0u64;
        let mut probe_died = false;
        for i in 0..500u64 {
            let sent = probe.call(Command::Put { key: 5_000_000 + i, value: vec![1] }, 0);
            match sent {
                // Raced ahead of the stop flag — still a valid resolution.
                Ok(Body::Ok) => completed2 += 1,
                Ok(Body::Err { kind: ErrorKind::Cancelled, .. }) => {
                    cancelled += 1;
                    break;
                }
                Ok(other) => panic!("mid-drain put got unexpected {other:?}"),
                Err(_) => {
                    probe_died = true; // drain finished first — clean death
                    break;
                }
            }
        }
        assert!(
            cancelled > 0 || probe_died,
            "drain must refuse late frames (typed CANCELLED) or close cleanly; \
             got {completed2} completions on a live connection"
        );

        // Every wave-1 scan resolves, delivered before the socket
        // closes: the ones read before the stop flag with real results,
        // the rest (always a suffix: one connection is served in order)
        // with typed CANCELLED.
        let mut real = 0u64;
        let mut refused = 0u64;
        for id in &wave1 {
            match backlog.recv_for(*id) {
                Ok(Body::Entries(e)) => {
                    assert!(!e.is_empty(), "scan {id} returned empty");
                    assert_eq!(refused, 0, "scan {id} completed after an earlier one was refused");
                    real += 1;
                }
                Ok(Body::Err { kind: ErrorKind::Cancelled, .. }) => refused += 1,
                other => panic!("wave-1 scan {id} must resolve through drain, got {other:?}"),
            }
        }
        assert!(real > 0, "a scan had started before the drain began");

        let report = drain.join().expect("shutdown thread");
        assert!(report.drained_clean, "in-flight work must drain inside the timeout: {report:?}");
        assert!(report.completed >= real + completed2, "report undercounts: {report:?}");
        assert!(report.cancelled >= refused + cancelled, "report undercounts: {report:?}");
        assert!(report.checkpointed, "durable store must checkpoint on drain: {report:?}");
        assert!(
            store_handle.checkpoint_generation() > gen_before,
            "drain must advance the checkpoint generation"
        );

        // New connections are refused once shutdown returns: connect
        // fails outright, or the socket yields EOF/error, never service.
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut s) => {
                s.set_read_timeout(Some(Duration::from_millis(500))).expect("timeout");
                let mut buf = [0u8; 16];
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => {}
                    Ok(n) => panic!("post-shutdown connection served {n} bytes"),
                }
            }
        }
        eprintln!(
            "drain: wave 1 {real} completed + {refused} cancelled; probe {completed2} completed, \
             {cancelled} cancelled, probe_died={probe_died}"
        );
    });
}

/// Satellite: STATS is causal — the per-op counts the server reports
/// equal the completions this client has already observed, batch
/// sub-commands count as one `server_batch` (not inflated per-op), and
/// the STATS op itself is not yet in its own snapshot.
#[test]
fn stats_counters_match_client_observed_completions() {
    with_deadline(Duration::from_secs(30), || {
        let cfg = ServiceConfig::default();
        let store = testutil::served_store(128, &cfg);
        let server = Server::spawn(store, cfg, "127.0.0.1:0").expect("spawn");
        let mut c = Client::connect(server.local_addr(), Duration::from_secs(5)).expect("connect");

        const GETS: u64 = 13;
        const PUTS: u64 = 7;
        const DELETES: u64 = 3;
        const SCANS: u64 = 2;
        for i in 0..PUTS {
            let body = c.call(Command::Put { key: 9_000 + i, value: vec![i as u8] }, 0);
            assert_eq!(body.expect("put"), Body::Ok);
        }
        for i in 0..GETS {
            // Mix of hits (preloaded + just written) and misses; every
            // outcome is one completed server_get.
            let key = if i % 2 == 0 { 9_000 + (i % PUTS) } else { 2 + i };
            c.call(Command::Get { key }, 0).expect("get");
        }
        for i in 0..DELETES {
            let body = c.call(Command::Delete { key: 9_000 + i }, 0);
            assert_eq!(body.expect("delete"), Body::Deleted(true));
        }
        for _ in 0..SCANS {
            let body = c.call(Command::Scan { lo: 0, hi: 500, limit: 16 }, 0).expect("scan");
            assert!(matches!(body, Body::Entries(_)));
        }
        // One batch whose sub-commands must NOT inflate the per-kind
        // counters — shard-aware coalescing executes them inline.
        let batch = vec![
            Command::Put { key: 9_500, value: vec![9] },
            Command::Get { key: 9_500 },
            Command::Delete { key: 9_500 },
        ];
        match c.call(Command::Batch(batch), 0).expect("batch") {
            Body::Batch(bodies) => assert_eq!(bodies.len(), 3),
            other => panic!("unexpected {other:?}"),
        }

        let json = c.stats().expect("stats");
        let count = |name: &str| -> u64 {
            let pat = format!("\"{name}\":{{\"count\":");
            let at = json.find(&pat).unwrap_or_else(|| panic!("{name} missing from {json}"));
            let digits: String =
                json[at + pat.len()..].chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("count digits")
        };
        assert_eq!(count("server_get"), GETS, "gets: {json}");
        assert_eq!(count("server_put"), PUTS, "puts: {json}");
        assert_eq!(count("server_delete"), DELETES, "deletes: {json}");
        assert_eq!(count("server_scan"), SCANS, "scans: {json}");
        assert_eq!(count("server_batch"), 1, "batch: {json}");
        // Causality: the snapshot is taken *inside* the STATS op, so the
        // op cannot appear in its own report (zero-count ops are
        // omitted from the JSON entirely).
        assert!(!json.contains("\"server_stats\""), "stats counted itself: {json}");
        assert!(json.contains("\"conn_open\":1"), "one connection: {json}");

        server.shutdown();
    });
}
