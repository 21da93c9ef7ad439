//! End-to-end smoke tests: a real `Server` on a loopback TCP socket,
//! exercised by the blocking [`Client`]. The heavier seeded network
//! fault storms live in the workspace-level `tests/server_chaos.rs`;
//! this file pins the happy paths and the basic protocol semantics.

use li_sync::sync::mpsc;
use std::time::{Duration, Instant};

use li_proto::{encode_request, Body, Command, ErrorKind, Request};
use li_server::{testutil, Client, Server, ServiceConfig};
use li_telemetry::Event;

/// Runs `f` under a watchdog so a hung server fails the test instead of
/// hanging CI (same discipline as tests/chaos_recovery.rs).
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

fn client_for<I: li_server::ServeIndex>(server: &Server<I>) -> Client<std::net::TcpStream> {
    Client::connect(server.local_addr(), Duration::from_secs(5)).expect("connect")
}

#[test]
fn point_ops_round_trip_over_tcp() {
    with_deadline(Duration::from_secs(30), || {
        let cfg = ServiceConfig::default();
        let store = testutil::served_store(64, &cfg);
        let server = Server::spawn(store, cfg, "127.0.0.1:0").expect("spawn");
        let mut c = client_for(&server);

        // Preloaded key 1 holds its own 4-byte LE encoding.
        match c.call(Command::Get { key: 1 }, 0).expect("get") {
            Body::Value(v) => assert_eq!(v, 1u32.to_le_bytes()),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.call(Command::Get { key: 2 }, 0).expect("get"), Body::NotFound);

        assert_eq!(c.call(Command::Put { key: 2, value: vec![7, 7] }, 0).expect("put"), Body::Ok);
        assert_eq!(c.call(Command::Get { key: 2 }, 0).expect("get"), Body::Value(vec![7, 7]));
        assert_eq!(c.call(Command::Delete { key: 2 }, 0).expect("del"), Body::Deleted(true));
        assert_eq!(c.call(Command::Delete { key: 2 }, 0).expect("del"), Body::Deleted(false));

        match c.call(Command::Scan { lo: 0, hi: 1000, limit: 10 }, 0).expect("scan") {
            Body::Entries(e) => {
                assert_eq!(e.len(), 10);
                assert!(e.windows(2).all(|w| w[0].0 < w[1].0));
            }
            other => panic!("unexpected {other:?}"),
        }
        let report = server.shutdown();
        assert!(report.completed >= 7);
        assert!(report.checkpointed, "durability is configured, drain must checkpoint");
    });
}

#[test]
fn pipelined_requests_resolve_out_of_order_by_id() {
    with_deadline(Duration::from_secs(30), || {
        let cfg = ServiceConfig::default();
        let store = testutil::served_store(256, &cfg);
        let server = Server::spawn(store, cfg, "127.0.0.1:0").expect("spawn");
        let mut c = client_for(&server);

        // Fire a pipelined burst without reading, then collect by id.
        let ids: Vec<u64> = (0..64u64)
            .map(|i| {
                c.send(Command::Put { key: 10_000 + i, value: vec![i as u8] }, 0).expect("send")
            })
            .collect();
        for id in &ids {
            assert_eq!(c.recv_for(*id).expect("recv"), Body::Ok);
        }
        for i in 0..64u64 {
            assert_eq!(
                c.call(Command::Get { key: 10_000 + i }, 0).expect("get"),
                Body::Value(vec![i as u8])
            );
        }
        server.shutdown();
    });
}

#[test]
fn batch_answers_in_submission_order() {
    with_deadline(Duration::from_secs(30), || {
        let cfg = ServiceConfig::default();
        let store = testutil::served_store(64, &cfg);
        let server = Server::spawn(store, cfg, "127.0.0.1:0").expect("spawn");
        let mut c = client_for(&server);

        let cmds = vec![
            Command::Put { key: 5000, value: vec![1] },
            Command::Put { key: 6000, value: vec![2] },
            Command::Get { key: 5000 },
            Command::Get { key: 6000 },
            Command::Delete { key: 5000 },
        ];
        match c.call(Command::Batch(cmds), 0).expect("batch") {
            Body::Batch(bodies) => {
                assert_eq!(bodies.len(), 5);
                assert_eq!(bodies[0], Body::Ok);
                assert_eq!(bodies[1], Body::Ok);
                assert_eq!(bodies[2], Body::Value(vec![1]));
                assert_eq!(bodies[3], Body::Value(vec![2]));
                assert_eq!(bodies[4], Body::Deleted(true));
            }
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    });
}

#[test]
fn batch_scan_sees_earlier_writes_to_a_later_shard() {
    with_deadline(Duration::from_secs(30), || {
        let cfg = ServiceConfig::default();
        // 64 preloaded keys 1, 8, …, 442 over 8 shards: key 442 lives in
        // the last shard, a scan from 0 starts in the first.
        let store = testutil::served_store(64, &cfg);
        let server = Server::spawn(store, cfg, "127.0.0.1:0").expect("spawn");
        let mut c = client_for(&server);

        let scan = Command::Scan { lo: 0, hi: 442, limit: 100 };
        let cmds = vec![
            Command::Put { key: 442, value: vec![9, 9] },
            scan.clone(),
            Command::Delete { key: 442 },
            scan,
        ];
        match c.call(Command::Batch(cmds), 0).expect("batch") {
            Body::Batch(bodies) => {
                assert_eq!(bodies[0], Body::Ok);
                let Body::Entries(after_put) = &bodies[1] else { panic!("{:?}", bodies[1]) };
                assert_eq!(after_put.len(), 64);
                assert_eq!(after_put.last(), Some(&(442, vec![9, 9])), "scan ran before the put");
                assert_eq!(bodies[2], Body::Deleted(true));
                let Body::Entries(after_delete) = &bodies[3] else { panic!("{:?}", bodies[3]) };
                assert_eq!(after_delete.len(), 63, "scan ran before the delete");
                assert_eq!(after_delete.last().map(|e| e.0), Some(435));
            }
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    });
}

#[test]
fn stats_returns_telemetry_json() {
    with_deadline(Duration::from_secs(30), || {
        let cfg = ServiceConfig::default();
        let store = testutil::served_store(64, &cfg);
        let server = Server::spawn(store, cfg, "127.0.0.1:0").expect("spawn");
        let mut c = client_for(&server);

        let _ = c.call(Command::Get { key: 1 }, 0).expect("get");
        let json = c.stats().expect("stats");
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"server_get\""), "op histograms missing: {json}");
        assert!(json.contains("\"conn_open\":1"), "connection counters missing: {json}");
        // The router's cell rows, keyed by lower bound; the GET is the
        // only op any cell has seen.
        assert!(json.contains("\"cells\":[{\"lower\":0,"), "cell rows missing: {json}");
        assert_eq!(json.matches("\"ops\":1,").count(), 1, "one cell saw the GET: {json}");
        server.shutdown();
    });
}

#[test]
fn expired_deadline_is_shed_with_typed_error() {
    with_deadline(Duration::from_secs(30), || {
        use std::io::Write;
        let cfg = ServiceConfig::default();
        let store = testutil::served_store(512, &cfg);
        let server = Server::spawn(store, cfg, "127.0.0.1:0").expect("spawn");
        let mut c = client_for(&server);

        // One write carries 32 slow-ish scans and then a GET with a 1µs
        // deadline. The server's read delivers them together, the GET's
        // deadline runs from that read, and the scans execute first: it
        // has expired when its turn comes.
        let mut frames = Vec::new();
        let scan = Command::Scan { lo: 0, hi: u64::MAX, limit: 512 };
        for id in 1..=32 {
            encode_request(&Request { id, deadline_us: 0, cmd: scan.clone() }, &mut frames)
                .expect("encode");
        }
        let doomed = Request { id: 33, deadline_us: 1, cmd: Command::Get { key: 1 } };
        encode_request(&doomed, &mut frames).expect("encode");
        c.get_ref().try_clone().expect("clone").write_all(&frames).expect("write");

        let mut shed = 0;
        for id in 1..=33 {
            match c.recv_for(id).expect("recv") {
                Body::Err { kind: ErrorKind::DeadlineExceeded, .. } => shed += 1,
                Body::Err { kind, .. } => panic!("unexpected error {kind:?}"),
                _ => {}
            }
        }
        assert_eq!(shed, 1, "the 1µs request (and only it) must be shed");
        server.shutdown();
    });
}

/// A client that sends and never reads is dropped once a response write
/// has made no progress for `stall_timeout`; only its own connection
/// thread ever waited on it, so another client is served throughout.
#[test]
fn client_that_never_reads_is_dropped_while_others_are_served() {
    with_deadline(Duration::from_mins(1), || {
        let cfg =
            ServiceConfig { stall_timeout: Duration::from_millis(200), ..ServiceConfig::default() };
        let store = testutil::served_store(2048, &cfg);
        let recorder = store.recorder().clone();
        let server = Server::spawn(store, cfg, "127.0.0.1:0").expect("spawn");
        let mut polite = client_for(&server);
        let mut deaf = client_for(&server);

        // 512 scans answered with 32 KiB each: 16 MiB that nobody reads,
        // more than the socket buffers between the two ends can hold
        // (Linux caps them at 4 MiB + 6 MiB).
        for _ in 0..512 {
            deaf.send(Command::Scan { lo: 0, hi: u64::MAX, limit: 2048 }, 0).expect("send");
        }
        let t0 = Instant::now();
        let mut served = 0u64;
        while recorder.event_count(Event::SlowClientDrop) == 0 {
            assert!(t0.elapsed() < Duration::from_secs(30), "the deaf client was never dropped");
            let body = polite.call(Command::Get { key: 1 }, 0).expect("polite call");
            assert_eq!(body, Body::Value(1u32.to_le_bytes().to_vec()));
            served += 1;
        }
        // The deaf client sees what was buffered and then the end of the
        // stream, not a hang.
        let err = loop {
            if let Err(e) = deaf.recv() {
                break e;
            }
        };
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::ConnectionReset
            ),
            "unexpected error {err:?}"
        );
        assert_eq!(polite.call(Command::Get { key: 2 }, 0).expect("polite call"), Body::NotFound);
        assert_eq!(recorder.event_count(Event::SlowClientDrop), 1);
        assert!(server.shutdown().drained_clean);
        eprintln!("slow client dropped after {:?}; {served} calls served meanwhile", t0.elapsed());
    });
}

/// Known cliff #3. A flood on one connection whose receiver starts late
/// used to overflow that connection's 256-frame write queue, and the
/// server hung up on the client as "slow". A connection thread that
/// cannot write stops reading instead, TCP pushes back on the sender,
/// and every request resolves once the receiver reads.
#[test]
fn flood_with_a_late_reader_resolves_every_request() {
    with_deadline(Duration::from_mins(2), || {
        use std::io::Write;
        /// At 21 bytes a GET response, 3.15 MB of them.
        const REQUESTS: u64 = 150_000;
        let cfg = ServiceConfig::default();
        let store = testutil::served_store(1024, &cfg);
        let recorder = store.recorder().clone();
        let server = Server::spawn(store, cfg, "127.0.0.1:0").expect("spawn");
        let mut receiver = client_for(&server);
        let mut tx = receiver.get_ref().try_clone().expect("clone");

        let sender = li_sync::thread::spawn(move || {
            let mut frames = Vec::new();
            for id in 1..=REQUESTS {
                let cmd = Command::Get { key: (id % 1024) * 7 + 1 };
                encode_request(&Request { id, deadline_us: 0, cmd }, &mut frames).expect("encode");
                if id % 1000 == 0 {
                    tx.write_all(&frames)?;
                    frames.clear();
                }
            }
            Ok::<(), std::io::Error>(())
        });
        li_sync::thread::sleep(Duration::from_millis(50));

        let mut answered = vec![false; REQUESTS as usize];
        for n in 0..REQUESTS {
            let resp = receiver.recv().unwrap_or_else(|e| panic!("cut off after {n} replies: {e}"));
            assert!(
                matches!(resp.body, Body::Value(_) | Body::Err { kind: ErrorKind::RetryAfter, .. }),
                "request {} got {:?}",
                resp.id,
                resp.body
            );
            let slot = &mut answered[(resp.id - 1) as usize];
            assert!(!*slot, "request {} answered twice", resp.id);
            *slot = true;
        }
        sender.join().expect("sender panicked").expect("the server hung up on the sender");
        assert_eq!(recorder.event_count(Event::SlowClientDrop), 0);
        assert!(server.shutdown().drained_clean);
    });
}

#[test]
fn corrupt_frame_body_gets_typed_rejection_and_connection_survives() {
    with_deadline(Duration::from_secs(30), || {
        use std::io::Write;
        let cfg = ServiceConfig::default();
        let store = testutil::served_store(64, &cfg);
        let server = Server::spawn(store, cfg, "127.0.0.1:0").expect("spawn");
        let mut c = client_for(&server);

        // Hand-craft a frame with a valid length but an unknown opcode.
        let mut frame = Vec::new();
        let body_len = 8 + 4 + 1;
        frame.extend_from_slice(&(body_len as u32).to_le_bytes());
        frame.extend_from_slice(&777u64.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.push(0xEE);
        c.get_ref().try_clone().expect("clone").write_all(&frame).expect("write");

        let resp = c.recv().expect("typed rejection");
        assert_eq!(resp.id, 777, "rejection must carry the salvaged id");
        assert!(matches!(resp.body, Body::Err { kind: ErrorKind::BadRequest, .. }));

        // Frame sync held: the connection still serves real requests.
        assert_eq!(c.call(Command::Get { key: 2 }, 0).expect("get"), Body::NotFound);
        server.shutdown();
    });
}

#[test]
fn oversized_length_prefix_closes_the_connection() {
    with_deadline(Duration::from_secs(30), || {
        use std::io::Write;
        let cfg = ServiceConfig::default();
        let store = testutil::served_store(64, &cfg);
        let server = Server::spawn(store, cfg, "127.0.0.1:0").expect("spawn");
        let mut c = client_for(&server);

        c.get_ref().try_clone().expect("clone").write_all(&u32::MAX.to_le_bytes()).expect("write");
        // Stream corruption is unrecoverable: server closes; the client
        // sees EOF (or a reset), not a hang.
        let err = c.recv().expect_err("connection must close");
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
            ),
            "unexpected error {err:?}"
        );
        server.shutdown();
    });
}
