//! The served store behind `li-server` on loopback, and the three load
//! generators that drive it: closed loop (each client waits for its
//! reply), pipelined (one connection keeps a window of requests in flight)
//! and open loop (requests are sent on a schedule, whatever the server
//! does, and timed from when they were due).

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use li_proto::{
    decode_response, encode_request, split_frame, Body, Command, ProtoError, Request, Response,
};
use li_server::{Client, Server, ServiceConfig};
use lip::AnyConcurrentIndex;

use crate::inputs::{check_value, fill_value, KeySet, Rng};
use crate::stack::{wire_record, ServedStack, WIRE_VALUE};
use crate::stats::Samples;
use crate::trace::{Tracer, ROOT};
use crate::workload::{Checked, Round};

/// WAL ring of the wire workloads: so large that no checkpoint falls due
/// inside a window. Checkpoint cost belongs to `store_mixed`.
const WAL_RECORDS: u64 = 4_194_304;
/// One request in five is a PUT.
const PUT_EVERY: usize = 5;
/// A reply this long overdue means the connection is dead.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// The open-loop sender wakes this often and sends what has come due.
const SEND_TICK: Duration = Duration::from_micros(250);
/// Keys re-read through a client after load stops (fewer when the key set
/// is tiny, as under `--smoke`).
const FINAL_SAMPLE: usize = 10_000;

/// Server, store, and the newest acknowledged version of every key.
pub struct WireStack {
    pub set: KeySet,
    pub stack: ServedStack,
    server: Server<AnyConcurrentIndex>,
    pub addr: SocketAddr,
    /// Indexed like `set.all` (every key is loaded, so slot = index).
    pub acked: Arc<Vec<AtomicU32>>,
    generation_at_start: u64,
}

impl WireStack {
    pub fn build(keys: usize, seed: u64) -> Self {
        let set = KeySet::all_loaded(keys, seed);
        let stack = ServedStack::build(&set, WAL_RECORDS, |key, buf| wire_record(buf, key, 0, 0));
        let server =
            Server::spawn(Arc::clone(&stack.store), ServiceConfig::default(), "127.0.0.1:0")
                .expect("bind a loopback port");
        let addr = server.local_addr();
        let acked = Arc::new((0..set.all.len()).map(|_| AtomicU32::new(0)).collect());
        let generation_at_start = stack.store.checkpoint_generation();
        WireStack { set, stack, server, addr, acked, generation_at_start }
    }

    pub fn connect(&self) -> Client<TcpStream> {
        Client::connect(self.addr, READ_TIMEOUT).expect("connect to the loopback server")
    }

    /// Whether a checkpoint was written since the stack was built. The
    /// wire windows must contain none.
    pub fn checkpointed(&self) -> bool {
        self.stack.store.checkpoint_generation() != self.generation_at_start
    }

    /// Re-reads a sample of keys through a client and compares each with
    /// the last version acknowledged for it; then drains the server and
    /// stops the maintenance worker.
    pub fn verify_and_stop(self, rng: &mut Rng) -> Checked {
        let mut checked = Checked::default();
        checked.note(!self.checkpointed());
        let mut client = self.connect();
        for _ in 0..FINAL_SAMPLE.min(self.set.all.len() / 10) {
            let slot = rng.below(self.set.all.len());
            let key = self.set.all[slot];
            let want = self.acked[slot].load(Ordering::SeqCst);
            let ok = match client.call(Command::Get { key }, 0) {
                Ok(Body::Value(v)) => check_value(&v, key).is_some_and(|(_, ver)| ver == want),
                _ => false,
            };
            checked.note(ok);
        }
        drop(client);
        checked.note(self.stop());
        checked
    }

    /// Drains the server and stops the maintenance worker; whether the
    /// drain was clean.
    pub fn stop(self) -> bool {
        let report = self.server.shutdown();
        self.stack.worker.shutdown();
        report.drained_clean && report.cancelled == 0
    }
}

/// The request mix of both wire workloads: uniform keys, one PUT in
/// [`PUT_EVERY`] (none when `puts` is false). A writer only puts keys
/// whose slot is `writer` modulo `writers`, so every key has one writer.
struct Mix {
    rng: Rng,
    keys: usize,
    writer: usize,
    writers: usize,
    puts: bool,
}

enum Op {
    Get { slot: usize },
    Put { slot: usize },
}

impl Mix {
    fn next(&mut self) -> Op {
        if self.puts && self.rng.below(PUT_EVERY) == 0 {
            let owned = (self.keys - self.writer).div_ceil(self.writers);
            Op::Put { slot: self.rng.below(owned) * self.writers + self.writer }
        } else {
            Op::Get { slot: self.rng.below(self.keys) }
        }
    }
}

fn put_command(key: u64, writer: u32, version: u32) -> Command {
    let mut value = vec![0u8; WIRE_VALUE];
    fill_value(&mut value, key, writer, version);
    Command::Put { key, value }
}

/// Length of one round of the wire workloads, about a second: long enough
/// for a round's PUTs to support p99. Every round opens fresh connections
/// and starts fresh generator threads, which makes `li-server` start fresh
/// connection threads, so that connection set-up and tear-down are
/// exercised throughout and a run reports the median over rounds. Never
/// fewer than two rounds, so that a traced window has one with spans and
/// one without.
pub fn round_plan(secs: f64) -> (usize, f64) {
    let rounds = (secs.round() as usize).max(2);
    (rounds, secs / rounds as f64)
}

/// One closed-loop client on a fresh connection: one request in flight,
/// for `secs` seconds.
fn closed_client(
    wire: &WireStack,
    writer: usize,
    writers: usize,
    seed: u64,
    secs: f64,
    mut tracer: Tracer,
) -> (Round, Checked, Tracer) {
    let mut client = wire.connect();
    let mut mix =
        Mix { rng: Rng::new(seed), keys: wire.set.all.len(), writer, writers, puts: true };
    let mut round = Round::default();
    let mut checked = Checked::default();
    let mut req = seed << 24;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    while Instant::now() < end {
        req += 1;
        let (slot, is_put) = match mix.next() {
            Op::Get { slot } => (slot, false),
            Op::Put { slot } => (slot, true),
        };
        let key = wire.set.all[slot];
        // This client is the only writer of a key it puts, so the last
        // acknowledged version of that key is the last one it wrote.
        let known = wire.acked[slot].load(Ordering::SeqCst);
        let cmd = if is_put {
            put_command(key, writer as u32 + 1, known + 1)
        } else {
            Command::Get { key }
        };
        let t0 = Instant::now();
        let sent = client.send(cmd, 0);
        let t1 = Instant::now();
        let body = sent.and_then(|id| client.recv_for(id));
        let t2 = Instant::now();
        let ns = (t2 - t0).as_nanos() as u64;
        let span = tracer.leaf("request", ROOT, req, t0, ns);
        tracer.leaf("Client::send", span, req, t0, (t1 - t0).as_nanos() as u64);
        tracer.leaf("Client::recv", span, req, t1, (t2 - t1).as_nanos() as u64);
        let ok = match (is_put, body) {
            (true, Ok(Body::Ok)) => {
                wire.acked[slot].store(known + 1, Ordering::SeqCst);
                true
            }
            (false, Ok(Body::Value(v))) => {
                check_value(&v, key).is_some_and(|(_, ver)| ver >= known)
            }
            _ => false,
        };
        checked.note(ok);
        if is_put {
            round.put.push(ns);
        } else {
            round.get.push(ns);
        }
        round.ops += 1;
    }
    round.secs = start.elapsed().as_secs_f64();
    (round, checked, tracer)
}

/// One round of `clients` closed-loop clients, each on a thread and a
/// connection of its own, for `secs` seconds.
pub fn closed_round(
    wire: &WireStack,
    clients: usize,
    seed: u64,
    secs: f64,
    tracer: &mut Tracer,
) -> (Round, Checked) {
    let (on, epoch) = (tracer.is_on(), tracer.epoch());
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let seed = seed.wrapping_mul(0x9e37_79b9).wrapping_add(c as u64);
                s.spawn(move || closed_client(wire, c, clients, seed, secs, Tracer::new(on, epoch)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop client panicked")).collect()
    });
    let mut round = Round::default();
    let mut checked = Checked::default();
    for (r, c, t) in results {
        checked.add(c);
        tracer.absorb(t);
        round.secs = round.secs.max(r.secs);
        round.ops += r.ops;
        round.get.extend(&r.get);
        round.put.extend(&r.put);
    }
    (round, checked)
}

/// What one read of the reply stream brought.
enum Replies {
    /// This many complete frames, each handed to the callback.
    Frames(usize),
    /// The read timed out with nothing new.
    TimedOut,
    /// End of stream or a transport error.
    Closed,
}

/// Bytes asked of the socket in one read.
const READ_CHUNK: usize = 1 << 16;

/// Reads what the socket has (through `chunk`) into `acc` and hands every
/// complete reply in it, decoded, to `on_reply` together with the time the
/// read returned.
fn read_replies(
    rx: &mut TcpStream,
    (acc, chunk): (&mut Vec<u8>, &mut [u8]),
    tracer: &mut Tracer,
    mut on_reply: impl FnMut(Result<Response, ProtoError>, Instant, &mut Tracer),
) -> Replies {
    let span = tracer.open("TcpStream::read", ROOT, 0);
    let n = rx.read(chunk);
    tracer.close(span);
    let arrived = Instant::now();
    match n {
        Ok(0) => return Replies::Closed,
        Ok(n) => acc.extend_from_slice(&chunk[..n]),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            return Replies::TimedOut;
        }
        Err(_) => return Replies::Closed,
    }
    let (mut consumed_to, mut frames) = (0, 0);
    while let Ok(Some((body, consumed))) = split_frame(&acc[consumed_to..]) {
        let span = tracer.open("li_proto::decode_response", ROOT, 0);
        let resp = decode_response(&acc[consumed_to + body.start..consumed_to + body.end]);
        tracer.close(span);
        consumed_to += consumed;
        frames += 1;
        on_reply(resp, arrived, tracer);
    }
    acc.drain(..consumed_to);
    Replies::Frames(frames)
}

/// What the sender tells the receiver about a request before it leaves.
struct InFlight {
    id: u64,
    slot: usize,
    /// Version a PUT writes; 0 marks a GET.
    put_version: u32,
    /// Newest version acknowledged for the key when the request left.
    floor: u32,
    sent: Instant,
}

/// One round of pipelined traffic on a fresh connection for `secs`
/// seconds: a sender thread keeps `window` requests in flight, sending a
/// new one for every reply the receiver thread reports; both speak
/// `li-proto` directly. Each request is timed from the write that carried
/// it. Never more than `window` replies are outstanding, so the server's
/// 256-frame write queue cannot overflow whatever the sandbox does.
pub fn pipelined_round(
    wire: &WireStack,
    window: usize,
    secs: f64,
    seed: u64,
    tracer: &mut Tracer,
) -> (Round, Checked) {
    let stream = TcpStream::connect(wire.addr).expect("connect to the loopback server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream.set_read_timeout(Some(READ_TIMEOUT)).expect("set read timeout");
    let mut tx = stream.try_clone().expect("clone the socket for the sender");
    let mut rx = stream;
    let (on, epoch) = (tracer.is_on(), tracer.epoch());
    let id_base = seed << 24;
    // Replies free credits; requests announce themselves before they leave.
    let (credit_tx, credit_rx) = mpsc::channel::<usize>();
    let (meta_tx, meta_rx) = mpsc::channel::<InFlight>();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);

    let (t_send, (mut round, checked, t_recv)) = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut tracer = Tracer::new(on, epoch);
            let mut mix = Mix {
                rng: Rng::new(seed),
                keys: wire.set.all.len(),
                writer: 0,
                writers: 1,
                puts: true,
            };
            // Versions this connection has put but may not have seen acknowledged.
            let mut put_versions: HashMap<usize, u32> = HashMap::new();
            let mut frames = Vec::with_capacity(4096);
            let mut metas = Vec::with_capacity(window);
            let mut credits = window;
            let mut id = id_base;
            while Instant::now() < end {
                if credits == 0 {
                    // No reply for as long as the receiver's read waits:
                    // the receiver fails what is in flight.
                    match credit_rx.recv_timeout(READ_TIMEOUT) {
                        Ok(n) => credits += n,
                        Err(_) => break,
                    }
                }
                credits += credit_rx.try_iter().sum::<usize>();
                frames.clear();
                let span = tracer.open("li_proto::encode_request", ROOT, 0);
                for _ in 0..credits {
                    id += 1;
                    let (slot, is_put) = match mix.next() {
                        Op::Get { slot } => (slot, false),
                        Op::Put { slot } => (slot, true),
                    };
                    let key = wire.set.all[slot];
                    let floor = wire.acked[slot].load(Ordering::SeqCst);
                    let (cmd, put_version) = if is_put {
                        let v = put_versions.entry(slot).or_insert(floor);
                        *v = (*v).max(floor) + 1;
                        (put_command(key, 1, *v), *v)
                    } else {
                        (Command::Get { key }, 0)
                    };
                    encode_request(&Request { id, deadline_us: 0, cmd }, &mut frames)
                        .expect("a GET or a 128-byte PUT always fits a frame");
                    metas.push(InFlight { id, slot, put_version, floor, sent: epoch });
                }
                tracer.close_calls(span, credits as u32);
                let sent = Instant::now();
                for mut m in metas.drain(..) {
                    m.sent = sent;
                    if meta_tx.send(m).is_err() {
                        break;
                    }
                }
                let span = tracer.open("TcpStream::write_all", ROOT, 0);
                let wrote = tx.write_all(&frames);
                tracer.close(span);
                if wrote.is_err() {
                    break;
                }
                credits = 0;
            }
            tracer
        });

        let receiver = s.spawn(move || {
            let mut tracer = Tracer::new(on, epoch);
            let mut round = Round::default();
            let mut checked = Checked::default();
            let mut in_flight: HashMap<u64, InFlight> = HashMap::with_capacity(2 * window);
            let (mut acc, mut chunk) = (Vec::with_capacity(READ_CHUNK), vec![0u8; READ_CHUNK]);
            loop {
                if in_flight.is_empty() && Instant::now() >= end {
                    // The sender is about to leave, and hangs up when it
                    // does; a read would wait out its timeout for replies
                    // to requests that were never sent.
                    match meta_rx.recv() {
                        Ok(m) => in_flight.insert(m.id, m),
                        Err(_) => break,
                    };
                }
                in_flight.extend(meta_rx.try_iter().map(|m| (m.id, m)));
                let got = read_replies(
                    &mut rx,
                    (&mut acc, &mut chunk),
                    &mut tracer,
                    |resp, arrived, tracer| {
                        // A request is announced before it leaves, so its reply
                        // cannot get here first.
                        in_flight.extend(meta_rx.try_iter().map(|m| (m.id, m)));
                        let Some((m, body)) =
                            resp.ok().and_then(|r| Some((in_flight.remove(&r.id)?, r.body)))
                        else {
                            checked.note(false);
                            return;
                        };
                        let ns = due_latency_ns(m.sent, arrived);
                        tracer.leaf("request", ROOT, m.id, m.sent, ns);
                        let key = wire.set.all[m.slot];
                        let ok = match (m.put_version, body) {
                            (0, Body::Value(v)) => {
                                check_value(&v, key).is_some_and(|(_, ver)| ver >= m.floor)
                            }
                            (v, Body::Ok) if v > 0 => {
                                wire.acked[m.slot].fetch_max(v, Ordering::SeqCst);
                                true
                            }
                            _ => false,
                        };
                        checked.note(ok);
                        round.ops += 1;
                        if m.put_version == 0 {
                            round.get.push(ns);
                        } else {
                            round.put.push(ns);
                        }
                    },
                );
                match got {
                    // The sender may have left; what is in flight still counts.
                    Replies::Frames(freed) => drop(credit_tx.send(freed)),
                    // The server is stuck or gone: what is in flight fails.
                    Replies::TimedOut | Replies::Closed => break,
                }
            }
            // Announced and never answered.
            for _ in 0..in_flight.len() {
                checked.note(false);
            }
            (round, checked, tracer)
        });
        (
            sender.join().expect("pipelined sender panicked"),
            receiver.join().expect("pipelined receiver panicked"),
        )
    });
    tracer.absorb(t_send);
    tracer.absorb(t_recv);
    round.secs = start.elapsed().as_secs_f64();
    (round, checked)
}

/// What one open-loop connection at a fixed rate saw.
#[derive(Debug, Default)]
pub struct OpenStats {
    /// Answered requests, their latencies from due time, and the span from
    /// the first due time to the last reply.
    pub round: Round,
    /// How late each request left, measured from its due time.
    pub late: Samples,
    pub attempted: u64,
    /// Answered with a typed overload error.
    pub refused: u64,
    /// Wrong or damaged value, transport error, never sent, or never
    /// answered.
    pub failed: u64,
}

/// The latency limit of the rate ladder, on the pooled p99.
pub const LIMIT_P99_US: f64 = 5_000.0;

impl OpenStats {
    /// Whether the connection was lost before every request was answered.
    pub fn dropped(&self) -> bool {
        self.round.ops + self.refused < self.attempted
    }

    /// p99 in microseconds over every answered request.
    pub fn pooled_p99_us(&self) -> Option<f64> {
        let mut all = self.round.get.clone();
        all.extend(&self.round.put);
        all.quantile_us(0.99)
    }

    /// The ladder's rule for a rate the server *sustains*: the pooled p99
    /// meets the limit, at most 0.1 % of requests failed or were refused,
    /// at least 98 % of the offered rate was achieved (no growing
    /// backlog), and the generator itself ran less than 1 ms late at p99
    /// (otherwise the step measured the generator, not the server).
    pub fn sustains(&mut self, offered_rate: f64) -> bool {
        let p99_ok = self.pooled_p99_us().is_some_and(|p| p <= LIMIT_P99_US);
        let loss_ok = (self.failed + self.refused) as f64 <= 0.001 * self.attempted as f64;
        let rate_ok = self.round.ops as f64 / self.round.secs >= 0.98 * offered_rate;
        let late_ok = self.late.quantile(0.99).is_some_and(|ns| ns < 1e6);
        p99_ok && loss_ok && rate_ok && late_ok
    }
}

/// One request of an open-loop schedule.
struct Planned {
    slot: usize,
    /// Version a PUT writes; 0 marks a GET.
    put_version: u32,
}

/// Latency of a reply that arrived at `arrived` for the request due at
/// `due`: measured from the due time, so that a stall is charged to every
/// request it delayed, not only to the one in flight.
pub fn due_latency_ns(due: Instant, arrived: Instant) -> u64 {
    arrived.saturating_duration_since(due).as_nanos() as u64
}

/// The tick at which request `i` (from 0) of a schedule at `rate` per
/// second leaves: the first tick at or after `i / rate`. The schedule is
/// small bursts every [`SEND_TICK`], not an even spacing the sender could
/// not keep; a request is due when its tick is.
pub fn due_tick(i: usize, rate: f64) -> u32 {
    (i as f64 / rate / SEND_TICK.as_secs_f64()).ceil() as u32
}

pub fn due_time(start: Instant, i: usize, rate: f64) -> Instant {
    start + SEND_TICK * due_tick(i, rate)
}

/// Requests of a schedule of `total` at `rate` that are due by `tick`.
pub fn due_count(tick: u32, rate: f64, total: usize) -> usize {
    ((f64::from(tick) * SEND_TICK.as_secs_f64() * rate) as usize + 1).min(total)
}

/// A sleep overshoots by the kernel's timer slack (some 60 us here), which
/// would be charged to every request of the tick; so sleep short of the
/// tick by [`SPIN`] and spin the rest. About a tenth of one core at 4 000
/// ticks a second.
fn sleep_until(wake: Instant) {
    const SPIN: Duration = Duration::from_micros(80);
    if let Some(nap) = wake.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(nap);
    }
    while Instant::now() < wake {
        std::hint::spin_loop();
    }
}

/// Open loop over one fresh connection for `secs` seconds: a paced sender
/// thread and a receiver thread speak `li-proto` directly, pipelined.
/// Nothing holds the sender back: past what the server sustains, requests
/// pile up in flight, and `li-server` drops a connection whose 256-frame
/// write queue overflows. The rate ladder takes that as a failed step.
pub fn open_loop(
    wire: &WireStack,
    rate: f64,
    secs: f64,
    puts: bool,
    seed: u64,
    tracer: &mut Tracer,
) -> OpenStats {
    let total = (rate * secs) as usize;
    let mut mix =
        Mix { rng: Rng::new(seed), keys: wire.set.all.len(), writer: 0, writers: 1, puts };
    // Versions continue from what earlier connections acknowledged.
    let mut next_version: Vec<u32> =
        wire.acked.iter().map(|a| a.load(Ordering::SeqCst) + 1).collect();
    let plan: Vec<Planned> = (0..total)
        .map(|_| match mix.next() {
            Op::Get { slot } => Planned { slot, put_version: 0 },
            Op::Put { slot } => {
                next_version[slot] += 1;
                Planned { slot, put_version: next_version[slot] - 1 }
            }
        })
        .collect();
    drop(next_version);
    // Version floor of each GET, set by the sender when the GET leaves.
    let floors: Vec<AtomicU32> = (0..total).map(|_| AtomicU32::new(0)).collect();

    let stream = TcpStream::connect(wire.addr).expect("connect to the loopback server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream.set_read_timeout(Some(READ_TIMEOUT)).expect("set read timeout");
    let mut tx = stream.try_clone().expect("clone the socket for the sender");
    let mut rx = stream;

    let (on, epoch) = (tracer.is_on(), tracer.epoch());
    let id_base = seed << 24;
    let start = Instant::now() + Duration::from_millis(2);
    let (plan, floors) = (&plan, &floors);

    let (sent_out, recv_out) = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut tracer = Tracer::new(on, epoch);
            let mut late = Samples::with_capacity(total);
            let mut frames = Vec::with_capacity(4096);
            let mut next = 0usize;
            while next < total {
                // Sleep to the tick the next request is due at; if the
                // sender fell behind, that tick is already past and
                // everything due since goes out at once.
                sleep_until(due_time(start, next, rate));
                let elapsed = Instant::now().saturating_duration_since(start);
                let tick = (elapsed.as_nanos() / SEND_TICK.as_nanos()) as u32;
                let upto = due_count(tick.max(due_tick(next, rate)), rate, total);
                frames.clear();
                let span = tracer.open("li_proto::encode_request", ROOT, 0);
                for (i, p) in plan.iter().enumerate().take(upto).skip(next) {
                    let key = wire.set.all[p.slot];
                    let cmd = if p.put_version == 0 {
                        floors[i]
                            .store(wire.acked[p.slot].load(Ordering::SeqCst), Ordering::SeqCst);
                        Command::Get { key }
                    } else {
                        put_command(key, 1, p.put_version)
                    };
                    let id = id_base + i as u64 + 1;
                    encode_request(&Request { id, deadline_us: 0, cmd }, &mut frames)
                        .expect("a GET or a 128-byte PUT always fits a frame");
                }
                tracer.close_calls(span, (upto - next) as u32);
                let t_send = Instant::now();
                let span = tracer.open("TcpStream::write_all", ROOT, 0);
                let wrote = tx.write_all(&frames);
                tracer.close(span);
                if wrote.is_err() {
                    break;
                }
                for i in next..upto {
                    late.push(due_latency_ns(due_time(start, i, rate), t_send));
                }
                next = upto;
            }
            (late, tracer)
        });

        let receiver = s.spawn(move || {
            let mut tracer = Tracer::new(on, epoch);
            let mut round = Round::default();
            let mut checked = Checked::default();
            let mut refused = 0u64;
            let (mut acc, mut chunk) = (Vec::with_capacity(READ_CHUNK), vec![0u8; READ_CHUNK]);
            let mut seen = 0usize;
            while seen < total {
                let got = read_replies(
                    &mut rx,
                    (&mut acc, &mut chunk),
                    &mut tracer,
                    |resp, arrived, tracer| {
                        let Some((i, p, resp)) = resp.ok().and_then(|r| {
                            let i = (r.id.wrapping_sub(id_base) as usize).wrapping_sub(1);
                            Some((i, plan.get(i)?, r))
                        }) else {
                            checked.note(false);
                            return;
                        };
                        let due = due_time(start, i, rate);
                        let ns = due_latency_ns(due, arrived);
                        tracer.leaf("request", ROOT, resp.id, due, ns);
                        let key = wire.set.all[p.slot];
                        let ok = match (p.put_version, resp.body) {
                            (0, Body::Value(v)) => check_value(&v, key)
                                .is_some_and(|(_, ver)| ver >= floors[i].load(Ordering::SeqCst)),
                            (v, Body::Ok) if v > 0 => {
                                wire.acked[p.slot].fetch_max(v, Ordering::SeqCst);
                                true
                            }
                            (_, Body::Err { .. }) => {
                                refused += 1;
                                return;
                            }
                            _ => false,
                        };
                        checked.note(ok);
                        round.ops += 1;
                        if p.put_version == 0 {
                            round.get.push(ns);
                        } else {
                            round.put.push(ns);
                        }
                    },
                );
                match got {
                    Replies::Frames(n) => seen += n,
                    Replies::TimedOut | Replies::Closed => break,
                }
            }
            // The measured span, never less than the schedule's: a rate is
            // what was answered over the time it was offered in.
            round.secs = Instant::now().saturating_duration_since(start).as_secs_f64().max(secs);
            (round, checked, refused, tracer)
        });
        (
            sender.join().expect("open-loop sender panicked"),
            receiver.join().expect("open-loop receiver panicked"),
        )
    });

    let (late, t_send) = sent_out;
    let (round, checked, refused, t_recv) = recv_out;
    tracer.absorb(t_send);
    tracer.absorb(t_recv);
    let seen: u64 = checked.attempted + refused;
    OpenStats {
        round,
        late,
        attempted: total as u64,
        refused,
        // Bad replies, plus everything never sent or never answered.
        failed: checked.failed + (total as u64).saturating_sub(seen),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_runs_from_the_due_time() {
        let start = Instant::now();
        // 10 000 requests a second in 250 us ticks: request 24 would be
        // due 2.4 ms in and leaves with the tick at 2.5 ms.
        let due = due_time(start, 24, 10_000.0);
        assert_eq!((due - start).as_micros(), 2_500);
        // The sender stalled and the reply came 7 ms in: the request is
        // charged 4.5 ms, wherever in that time it actually left.
        assert_eq!(due_latency_ns(due, start + Duration::from_millis(7)), 4_500_000);
        // A reply cannot beat its due time.
        assert_eq!(due_latency_ns(due, start), 0);
    }

    #[test]
    fn sender_sends_what_has_come_due() {
        // Tick 0 carries request 0; tick 1 (250 us) requests 1 and 2, due
        // at 100 and 200 us; request 3, due at 300 us, waits for tick 2.
        assert_eq!(due_count(0, 10_000.0, 100), 1);
        assert_eq!(due_count(1, 10_000.0, 100), 3);
        assert_eq!((due_tick(2, 10_000.0), due_tick(3, 10_000.0)), (1, 2));
        assert_eq!(due_count(4_000, 10_000.0, 100), 100);
        // Every request is due at a tick that sends it.
        assert!((0..1000).all(|i| due_count(due_tick(i, 33_000.0), 33_000.0, 1000) > i));
    }

    fn step(p99_us: u64, answered: u64, attempted: u64, refused: u64, late_us: u64) -> OpenStats {
        let mut round = Round { ops: answered, ..Round::default() };
        for i in 0..answered {
            // 2 % of the samples sit at the p99 value, the rest at a tenth.
            round.get.push(if i % 50 == 0 { p99_us * 1000 } else { p99_us * 100 });
        }
        let mut late = Samples::default();
        (0..2000).for_each(|_| late.push(late_us * 1000));
        round.secs = 1.0;
        OpenStats { round, late, attempted, refused, failed: attempted - answered - refused }
    }

    #[test]
    fn ladder_rule() {
        assert!(step(4_000, 10_000, 10_000, 0, 100).sustains(10_000.0));
        // p99 over the 5 ms limit.
        assert!(!step(6_000, 10_000, 10_000, 0, 100).sustains(10_000.0));
        // 0.1 % may be lost, not more.
        assert!(step(4_000, 9_990, 10_000, 10, 100).sustains(10_000.0));
        assert!(!step(4_000, 9_989, 10_000, 11, 100).sustains(10_000.0));
        assert!(step(4_000, 9_989, 10_000, 0, 100).dropped());
        // Achieved under 98 % of offered: the backlog grows.
        assert!(!step(4_000, 10_000, 10_000, 0, 100).sustains(10_300.0));
        // A generator a millisecond late measured itself.
        assert!(!step(4_000, 10_000, 10_000, 0, 1_000).sustains(10_000.0));
    }
}
