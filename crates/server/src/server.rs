//! The TCP front-end: an acceptor and one thread per connection that
//! runs every request to completion on one [`ConcurrentViperStore`].
//!
//! ```text
//! acceptor ──> conn thread: read ─> for each complete frame:
//!                  ^                  decode, admit, deadline, execute,
//!                  │                  encode into the output buffer
//!                  └── one write_all per read batch <──┘
//! ```
//!
//! The store is safe for concurrent callers (key stripes), so parallelism
//! comes from connections; within one, BATCH is the amortiser. Robustness
//! properties, tested by `tests/e2e.rs` and `tests/server_chaos.rs`:
//!
//! - **Deadline propagation**: the frame header's relative deadline runs
//!   from the read that delivered the frame and is checked immediately
//!   before execution — expired work is shed with `DEADLINE_EXCEEDED`
//!   *before* touching the store.
//! - **Typed overload**: a frame counts against `max_in_flight` from the
//!   read that delivered it until its response bytes are written; a
//!   frame past the budget is shed with `RETRY_AFTER`. Store errors are
//!   typed responses too (see `service::map_store_error`). The
//!   connection stays up in every case.
//! - **Slow-client protection**: a client that does not read its
//!   responses stops being read from (TCP backpressure); if a response
//!   write makes no progress for `stall_timeout` it is dropped. Only its
//!   own thread ever waits on its socket.
//! - **Graceful drain**: shutdown stops accepting, answers frames read
//!   from then on with `CANCELLED`, lets in-flight work finish (bounded
//!   by `drain_timeout`, after which the remainder is cancelled), then
//!   checkpoints the store.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use li_core::{ConcurrentIndex, OrderedIndex};
use li_proto::{decode_request, encode_response, split_frame, Body, ErrorKind, Request, Response};
use li_sync::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use li_sync::sync::{Arc, Mutex};
use li_telemetry::{Event, OpKind};
use li_viper::ConcurrentViperStore;

use crate::config::ServiceConfig;
use crate::service;

/// Read poll tick: how often a blocked read wakes to check the idle
/// timer.
const READ_TICK: Duration = Duration::from_millis(20);
/// Acceptor poll tick.
const ACCEPT_TICK: Duration = Duration::from_millis(2);
/// Retry hint attached to a frame shed by the `max_in_flight` budget.
pub const ADMISSION_SHED_HINT_US: u32 = 500;
/// Bytes asked of the socket in one read; bounds the frames of a batch.
const READ_CHUNK: usize = 16 * 1024;
/// Responses are written out mid-batch once this many bytes are
/// buffered, so a large SCAN does not pin memory.
const FLUSH_AT: usize = 64 * 1024;

/// Index bound the server needs from the store.
pub trait ServeIndex: ConcurrentIndex + OrderedIndex + Send + Sync + 'static {}
impl<T: ConcurrentIndex + OrderedIndex + Send + Sync + 'static> ServeIndex for T {}

/// What graceful shutdown accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests answered with a real result over the server's lifetime.
    pub completed: u64,
    /// Requests answered with typed `CANCELLED` (drain refusals plus
    /// post-timeout aborts).
    pub cancelled: u64,
    /// Whether in-flight work fully drained inside `drain_timeout`.
    pub drained_clean: bool,
    /// Whether the final checkpoint was written (false when the store
    /// has no durability configured, or checkpointing failed).
    pub checkpointed: bool,
}

struct Shared<I> {
    store: Arc<ConcurrentViperStore<I>>,
    cfg: ServiceConfig,
    /// Stop accepting + answer frames read from now on with `CANCELLED`.
    stopping: AtomicBool,
    /// Drain timeout elapsed: admitted requests are cancelled instead of
    /// executed.
    aborting: AtomicBool,
    /// Requests read off a socket whose response is not yet written.
    in_flight: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
}

impl<I: ServeIndex> Shared<I> {
    fn event(&self, e: Event) {
        self.store.recorder().event(e);
    }

    /// Counts one request refused for the drain; its response body.
    fn cancel(&self) -> Body {
        self.event(Event::RequestCancelled);
        self.cancelled.fetch_add(1, Ordering::AcqRel);
        Body::Err { kind: ErrorKind::Cancelled, retry_after_us: 0 }
    }
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// aborts hard (threads are detached); call `shutdown` for the graceful
/// path.
pub struct Server<I: ServeIndex> {
    shared: Arc<Shared<I>>,
    local_addr: SocketAddr,
    acceptor: Option<li_sync::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<ConnSlot>>>,
}

struct ConnSlot {
    stream: TcpStream,
    thread: li_sync::thread::JoinHandle<()>,
}

impl<I: ServeIndex> Server<I> {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving `store`.
    pub fn spawn(
        store: Arc<ConcurrentViperStore<I>>,
        cfg: ServiceConfig,
        addr: impl ToSocketAddrs,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            store,
            cfg,
            stopping: AtomicBool::new(false),
            aborting: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
        });
        let conns: Arc<Mutex<Vec<ConnSlot>>> =
            Arc::new(Mutex::with_class(li_sync::lock_class!("server-conns"), Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            li_sync::thread::Builder::new()
                .name("li-server-acceptor".into())
                .spawn(move || accept_loop(&shared, &listener, &conns))
                .expect("spawn acceptor")
        };

        Ok(Server { shared, local_addr, acceptor: Some(acceptor), conns })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests completed so far (successes and typed errors alike).
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Acquire)
    }

    /// Graceful drain: stop accepting, answer frames read from now on
    /// with typed `CANCELLED`, let in-flight work finish (bounded by
    /// `drain_timeout`), checkpoint the store, and join every thread.
    pub fn shutdown(mut self) -> DrainReport {
        let shared = &self.shared;
        shared.stopping.store(true, Ordering::Release);

        // Bounded wait for in-flight work. Connections stay readable
        // meanwhile, so a frame that arrives mid-drain still gets its
        // typed `CANCELLED`.
        let t0 = Instant::now();
        let mut drained_clean = true;
        while shared.in_flight.load(Ordering::Acquire) > 0 {
            if t0.elapsed() > shared.cfg.drain_timeout {
                drained_clean = false;
                shared.aborting.store(true, Ordering::Release);
            }
            li_sync::thread::sleep(Duration::from_millis(1));
        }

        // Join order: the acceptor first, so the registry is final; then
        // the connection threads, unblocked by cutting only the read
        // direction of their sockets — a batch read just before the stop
        // flag still runs and writes its responses before its thread
        // sees end of stream. Last, the store's final checkpoint.
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        let slots: Vec<ConnSlot> = std::mem::take(&mut *self.conns.lock());
        for slot in &slots {
            let _ = slot.stream.shutdown(Shutdown::Read);
        }
        for slot in slots {
            let _ = slot.thread.join();
        }
        let checkpointed = shared.store.drain().unwrap_or(false);

        DrainReport {
            completed: shared.completed.load(Ordering::Acquire),
            cancelled: shared.cancelled.load(Ordering::Acquire),
            drained_clean,
            checkpointed,
        }
    }
}

fn accept_loop<I: ServeIndex>(
    shared: &Arc<Shared<I>>,
    listener: &TcpListener,
    conns: &Mutex<Vec<ConnSlot>>,
) {
    while !shared.stopping.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.event(Event::ConnOpen);
                if let Ok(slot) = spawn_conn(shared, stream) {
                    conns.lock().push(slot);
                }
            }
            Err(_) => li_sync::thread::sleep(ACCEPT_TICK),
        }
    }
    // Dropping the listener here closes the socket: later connects are
    // refused at the TCP layer.
}

fn spawn_conn<I: ServeIndex>(
    shared: &Arc<Shared<I>>,
    mut stream: TcpStream,
) -> io::Result<ConnSlot> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TICK))?;
    stream.set_write_timeout(Some(shared.cfg.stall_timeout))?;
    let registered = stream.try_clone()?;
    let shared = Arc::clone(shared);
    let thread =
        li_sync::thread::Builder::new().name("li-server-conn".into()).spawn(move || {
            conn_loop(&shared, &mut stream);
            // The registry holds a clone of the socket, so returning
            // would not close it: cut it for the peer to see.
            let _ = stream.shutdown(Shutdown::Both);
            shared.event(Event::ConnClose);
        })?;
    Ok(ConnSlot { stream: registered, thread })
}

/// One connection, start to end: read, run the batch, write, repeat.
/// Returns when the client hung up, idled out, stalled, or lost frame
/// sync.
fn conn_loop<I: ServeIndex>(shared: &Shared<I>, stream: &mut TcpStream) {
    let mut acc: Vec<u8> = Vec::with_capacity(READ_CHUNK);
    let mut out: Vec<u8> = Vec::with_capacity(READ_CHUNK);
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut last_activity = Instant::now();
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                let read_at = Instant::now();
                last_activity = read_at;
                acc.extend_from_slice(&chunk[..n]);
                if !serve_batch(shared, stream, &mut acc, &mut out, read_at) {
                    return;
                }
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if last_activity.elapsed() > shared.cfg.idle_timeout {
                    shared.event(Event::SlowClientDrop);
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Runs every complete frame in `acc` to completion, in order, and
/// writes their responses with one `write_all` (more only past
/// [`FLUSH_AT`]). Returns false when the connection is beyond use:
/// frame sync lost, or the client gone or stalled.
fn serve_batch<I: ServeIndex>(
    shared: &Shared<I>,
    stream: &mut TcpStream,
    acc: &mut Vec<u8>,
    out: &mut Vec<u8>,
    read_at: Instant,
) -> bool {
    // Sampled once per read: a request is accepted when it is read.
    let stopping = shared.stopping.load(Ordering::Acquire);
    // Frames of this batch that count against the budget, until written.
    let mut admitted = 0u64;
    let mut at = 0;
    let mut usable = true;
    while usable {
        let (body, consumed) = match split_frame(&acc[at..]) {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(_) => {
                // Corrupt length prefix: frame sync is lost; nothing
                // more can be parsed from this stream.
                shared.event(Event::FrameReject);
                usable = false;
                break;
            }
        };
        let frame = &acc[at + body.start..at + body.end];
        at += consumed;
        match decode_request(frame) {
            Ok(req) => {
                let body = answer(shared, &req, stopping, read_at, &mut admitted);
                respond(out, req.id, body);
            }
            Err(_) => {
                // Body-level corruption: the frame boundary held, so
                // answer typed and keep the connection.
                shared.event(Event::FrameReject);
                let body = Body::Err { kind: ErrorKind::BadRequest, retry_after_us: 0 };
                respond(out, salvage_id(frame), body);
            }
        }
        if out.len() >= FLUSH_AT {
            usable = flush(shared, stream, out);
        }
    }
    acc.drain(..at);
    let written = flush(shared, stream, out);
    shared.in_flight.fetch_sub(admitted, Ordering::AcqRel);
    usable && written
}

/// The response body for one decoded request: shed by the drain, the
/// budget or its deadline, or what the store answers.
fn answer<I: ServeIndex>(
    shared: &Shared<I>,
    req: &Request,
    stopping: bool,
    read_at: Instant,
    admitted: &mut u64,
) -> Body {
    if stopping {
        return shared.cancel();
    }
    // The one shedding rung: typed shed, connection lives.
    if shared.in_flight.fetch_add(1, Ordering::AcqRel) >= shared.cfg.max_in_flight as u64 {
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        shared.event(Event::AdmissionShed);
        return Body::Err { kind: ErrorKind::RetryAfter, retry_after_us: ADMISSION_SHED_HINT_US };
    }
    *admitted += 1;
    let started = Instant::now();
    let waited = started.saturating_duration_since(read_at);
    shared
        .store
        .recorder()
        .record_ns(OpKind::ServerQueue, waited.as_nanos().min(u128::from(u64::MAX)) as u64);
    if shared.aborting.load(Ordering::Acquire) {
        return shared.cancel();
    }
    shared.completed.fetch_add(1, Ordering::AcqRel);
    if req.deadline_us > 0 && waited > Duration::from_micros(u64::from(req.deadline_us)) {
        // Shed before touching the store: the client has already given
        // up on this work.
        shared.event(Event::DeadlineShed);
        return Body::Err { kind: ErrorKind::DeadlineExceeded, retry_after_us: 0 };
    }
    service::execute(&shared.store, &req.cmd)
}

/// Appends the response frame for `id` to `out`.
fn respond(out: &mut Vec<u8>, id: u64, body: Body) {
    if encode_response(&Response { id, body }, out).is_err() {
        // Too large for one frame (an enormous scan): a typed error in
        // its place, so the request still resolves.
        let body = Body::Err { kind: ErrorKind::BadRequest, retry_after_us: 0 };
        let fits = encode_response(&Response { id, body }, out);
        debug_assert!(fits.is_ok(), "an error response always fits a frame");
    }
}

/// Writes the buffered responses out. False when the client is gone or
/// took no bytes for `stall_timeout`; that is the slow-client drop.
fn flush<I: ServeIndex>(shared: &Shared<I>, stream: &mut TcpStream, out: &mut Vec<u8>) -> bool {
    if out.is_empty() {
        return true;
    }
    let wrote = stream.write_all(out);
    out.clear();
    out.shrink_to(FLUSH_AT);
    match wrote {
        Ok(()) => true,
        Err(e) => {
            if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
                shared.event(Event::SlowClientDrop);
            }
            false
        }
    }
}

/// Best-effort request id from a frame that failed to decode, so the
/// typed rejection still correlates client-side.
fn salvage_id(body: &[u8]) -> u64 {
    match body.get(..8) {
        Some(b) => {
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            u64::from_le_bytes(a)
        }
        None => 0,
    }
}
