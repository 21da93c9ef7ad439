//! `li-proto`: the wire protocol of the `li-server` network front-end.
//!
//! A pipelined, length-prefixed binary protocol. Every frame is a `u32`
//! little-endian body length followed by the body; requests carry a
//! client-chosen `id` echoed on the response (so responses may be
//! reordered by the server's worker pool) and a relative deadline in
//! microseconds that the server propagates — work whose deadline expired
//! is shed before it touches the store.
//!
//! ```text
//! request  = len:u32 | id:u64 | deadline_us:u32 | opcode:u8 | payload
//! response = len:u32 | id:u64 | tag:u8          | payload
//! ```
//!
//! Opcodes: `GET`/`PUT`/`DELETE`/`SCAN`/`BATCH`/`STATS`. A `BATCH` holds
//! point/scan sub-commands (never a nested batch) and is answered by one
//! frame with per-sub-command bodies, preserving order.
//!
//! Error handling is the point of this crate: decoding is *total*. Any
//! byte sequence — truncated, oversized, bad opcode, corrupt length —
//! decodes to a typed [`ProtoError`], never a panic (`cargo xtask lint`
//! holds the decode paths to the same panic-free rule as the Viper store
//! hot paths, and the proptest suite fuzzes them with corrupt frames).
//! Overload and lifecycle outcomes are first-class protocol values
//! ([`ErrorKind::RetryAfter`], [`ErrorKind::Cancelled`], …) instead of
//! connection drops.

#![forbid(unsafe_code)]

use std::fmt;

/// Upper bound on a frame body; the length prefix is validated against
/// this before any allocation, so a corrupt length cannot balloon memory.
pub const MAX_FRAME: usize = 1 << 20;
/// Upper bound on one value's bytes.
pub const MAX_VALUE: usize = 64 * 1024;
/// Upper bound on sub-commands in one batch.
pub const MAX_BATCH: usize = 1024;
/// Upper bound on a scan's entry limit (also caps entries per response).
pub const MAX_SCAN: u32 = 65_536;

/// Bytes of the frame length prefix.
pub const LEN_PREFIX: usize = 4;
/// Minimum request body: id (8) + deadline (4) + opcode (1).
pub const MIN_REQUEST: usize = 13;
/// Minimum response body: id (8) + tag (1).
pub const MIN_RESPONSE: usize = 9;

const OP_GET: u8 = 0x01;
const OP_PUT: u8 = 0x02;
const OP_DELETE: u8 = 0x03;
const OP_SCAN: u8 = 0x04;
const OP_BATCH: u8 = 0x05;
const OP_STATS: u8 = 0x06;

const TAG_OK: u8 = 0x80;
const TAG_VALUE: u8 = 0x81;
const TAG_NOT_FOUND: u8 = 0x82;
const TAG_DELETED: u8 = 0x83;
const TAG_ENTRIES: u8 = 0x84;
const TAG_STATS: u8 = 0x85;
const TAG_BATCH: u8 = 0x86;
const TAG_ERR: u8 = 0xEF;

/// Why a frame failed to decode (or refused to encode). Every variant is
/// a protocol-level fact a server can act on — none of them panic, and
/// none of them are ambiguous with "need more bytes from the socket"
/// except [`ProtoError::Incomplete`], which is exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// The buffer ends before the length prefix completes — read more.
    Incomplete,
    /// The length prefix exceeds [`MAX_FRAME`] (or is zero): the stream
    /// is corrupt or hostile; the connection should be closed.
    Oversized { len: usize },
    /// A complete frame body ended before its payload did.
    Truncated,
    /// Unknown request opcode.
    BadOpcode(u8),
    /// Unknown response tag.
    BadTag(u8),
    /// Unknown error kind byte in an `ERR` body.
    BadErrorKind(u8),
    /// A batch carried a sub-command that may not nest (batch-in-batch,
    /// stats-in-batch).
    BadBatchOp(u8),
    /// A boolean field held something other than 0 or 1.
    BadBool(u8),
    /// Value length exceeds [`MAX_VALUE`].
    ValueTooLarge { len: usize },
    /// Batch count exceeds [`MAX_BATCH`].
    BatchTooLarge { count: usize },
    /// Scan limit (or entry count) exceeds [`MAX_SCAN`].
    ScanTooLarge { limit: u32 },
    /// Bytes remain after a fully decoded body.
    TrailingBytes { extra: usize },
    /// A stats payload was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Incomplete => write!(f, "frame incomplete: need more bytes"),
            ProtoError::Oversized { len } => {
                write!(f, "frame length {len} outside 1..={MAX_FRAME}")
            }
            ProtoError::Truncated => write!(f, "frame body truncated"),
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtoError::BadTag(tag) => write!(f, "unknown response tag {tag:#04x}"),
            ProtoError::BadErrorKind(k) => write!(f, "unknown error kind {k}"),
            ProtoError::BadBatchOp(op) => write!(f, "opcode {op:#04x} may not appear in a batch"),
            ProtoError::BadBool(b) => write!(f, "invalid boolean byte {b}"),
            ProtoError::ValueTooLarge { len } => write!(f, "value of {len} bytes > {MAX_VALUE}"),
            ProtoError::BatchTooLarge { count } => write!(f, "batch of {count} ops > {MAX_BATCH}"),
            ProtoError::ScanTooLarge { limit } => write!(f, "scan limit {limit} > {MAX_SCAN}"),
            ProtoError::TrailingBytes { extra } => write!(f, "{extra} trailing bytes after body"),
            ProtoError::BadUtf8 => write!(f, "stats payload is not UTF-8"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// A request command. `Batch` may hold every variant except `Batch` and
/// `Stats` (enforced by encode and decode alike).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    Get { key: u64 },
    Put { key: u64, value: Vec<u8> },
    Delete { key: u64 },
    Scan { lo: u64, hi: u64, limit: u32 },
    Batch(Vec<Command>),
    Stats,
}

impl Command {
    /// Short label for logs and telemetry.
    pub const fn name(&self) -> &'static str {
        match self {
            Command::Get { .. } => "get",
            Command::Put { .. } => "put",
            Command::Delete { .. } => "delete",
            Command::Scan { .. } => "scan",
            Command::Batch(_) => "batch",
            Command::Stats => "stats",
        }
    }
}

/// One client request: id echoed on the response, relative deadline in
/// microseconds (0 = no deadline), and the command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub id: u64,
    pub deadline_us: u32,
    pub cmd: Command,
}

/// Typed protocol-level failures. These are *values*, not connection
/// drops: a shed or expired request still gets a response frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// The server's in-flight budget shed this request, or a transient
    /// store fault outlasted its retry budget; retry after the hinted wait.
    RetryAfter,
    /// The store is read-only (device exhaustion degradation).
    ReadOnly,
    /// The request's deadline expired before the store was touched.
    DeadlineExceeded,
    /// The server is draining (shutdown) and will not start this work.
    Cancelled,
    /// The request was structurally valid but semantically unacceptable
    /// (wrong value size, scan bounds inverted, …).
    BadRequest,
    /// An unexpected store error; inspect server logs.
    Internal,
}

impl ErrorKind {
    pub const ALL: [ErrorKind; 6] = [
        ErrorKind::RetryAfter,
        ErrorKind::ReadOnly,
        ErrorKind::DeadlineExceeded,
        ErrorKind::Cancelled,
        ErrorKind::BadRequest,
        ErrorKind::Internal,
    ];

    /// Wire byte of each kind. Byte 2 stays unassigned, so a peer still
    /// sending the retired overload code gets a typed decode error, not a
    /// different meaning.
    const fn to_byte(self) -> u8 {
        match self {
            ErrorKind::RetryAfter => 1,
            ErrorKind::ReadOnly => 3,
            ErrorKind::DeadlineExceeded => 4,
            ErrorKind::Cancelled => 5,
            ErrorKind::BadRequest => 6,
            ErrorKind::Internal => 7,
        }
    }

    const fn from_byte(b: u8) -> Result<Self, ProtoError> {
        match b {
            1 => Ok(ErrorKind::RetryAfter),
            3 => Ok(ErrorKind::ReadOnly),
            4 => Ok(ErrorKind::DeadlineExceeded),
            5 => Ok(ErrorKind::Cancelled),
            6 => Ok(ErrorKind::BadRequest),
            7 => Ok(ErrorKind::Internal),
            other => Err(ProtoError::BadErrorKind(other)),
        }
    }

    pub const fn name(self) -> &'static str {
        match self {
            ErrorKind::RetryAfter => "retry_after",
            ErrorKind::ReadOnly => "read_only",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Internal => "internal",
        }
    }
}

/// One response body. A batch response carries one body per sub-command,
/// in sub-command order (never a nested batch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// Acknowledged write.
    Ok,
    /// Point-lookup hit.
    Value(Vec<u8>),
    /// Point-lookup miss.
    NotFound,
    /// Delete outcome: whether the key existed.
    Deleted(bool),
    /// Scan results, ascending by key.
    Entries(Vec<(u64, Vec<u8>)>),
    /// Telemetry snapshot as JSON.
    Stats(String),
    /// Per-sub-command outcomes of a batch.
    Batch(Vec<Body>),
    /// Typed failure with a retry hint in microseconds (0 = none).
    Err { kind: ErrorKind, retry_after_us: u32 },
}

impl Body {
    pub const fn is_err(&self) -> bool {
        matches!(self, Body::Err { .. })
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub id: u64,
    pub body: Body,
}

/// Validates a length prefix. `Ok` is the body length to read next.
pub fn frame_len(header: [u8; LEN_PREFIX]) -> Result<usize, ProtoError> {
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(ProtoError::Oversized { len });
    }
    Ok(len)
}

/// Bounds-checked little-endian reader over a complete frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        match self.buf.get(self.at..self.at + n) {
            Some(s) => {
                self.at += n;
                Ok(s)
            }
            None => Err(ProtoError::Truncated),
        }
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        let b = self.take(1)?;
        Ok(b[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn finish(&self) -> Result<(), ProtoError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes { extra: self.buf.len() - self.at })
        }
    }
}

fn encode_command(cmd: &Command, in_batch: bool, out: &mut Vec<u8>) -> Result<(), ProtoError> {
    match cmd {
        Command::Get { key } => {
            out.push(OP_GET);
            out.extend_from_slice(&key.to_le_bytes());
        }
        Command::Put { key, value } => {
            if value.len() > MAX_VALUE {
                return Err(ProtoError::ValueTooLarge { len: value.len() });
            }
            out.push(OP_PUT);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&(value.len() as u32).to_le_bytes());
            out.extend_from_slice(value);
        }
        Command::Delete { key } => {
            out.push(OP_DELETE);
            out.extend_from_slice(&key.to_le_bytes());
        }
        Command::Scan { lo, hi, limit } => {
            if *limit > MAX_SCAN {
                return Err(ProtoError::ScanTooLarge { limit: *limit });
            }
            out.push(OP_SCAN);
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
            out.extend_from_slice(&limit.to_le_bytes());
        }
        Command::Batch(cmds) => {
            if in_batch {
                return Err(ProtoError::BadBatchOp(OP_BATCH));
            }
            if cmds.len() > MAX_BATCH {
                return Err(ProtoError::BatchTooLarge { count: cmds.len() });
            }
            out.push(OP_BATCH);
            out.extend_from_slice(&(cmds.len() as u32).to_le_bytes());
            for c in cmds {
                encode_command(c, true, out)?;
            }
        }
        Command::Stats => {
            if in_batch {
                return Err(ProtoError::BadBatchOp(OP_STATS));
            }
            out.push(OP_STATS);
        }
    }
    Ok(())
}

fn decode_command(cur: &mut Cursor<'_>, in_batch: bool) -> Result<Command, ProtoError> {
    let opcode = cur.u8()?;
    match opcode {
        OP_GET => Ok(Command::Get { key: cur.u64()? }),
        OP_PUT => {
            let key = cur.u64()?;
            let len = cur.u32()? as usize;
            if len > MAX_VALUE {
                return Err(ProtoError::ValueTooLarge { len });
            }
            Ok(Command::Put { key, value: cur.take(len)?.to_vec() })
        }
        OP_DELETE => Ok(Command::Delete { key: cur.u64()? }),
        OP_SCAN => {
            let lo = cur.u64()?;
            let hi = cur.u64()?;
            let limit = cur.u32()?;
            if limit > MAX_SCAN {
                return Err(ProtoError::ScanTooLarge { limit });
            }
            Ok(Command::Scan { lo, hi, limit })
        }
        OP_BATCH if !in_batch => {
            let count = cur.u32()? as usize;
            if count > MAX_BATCH {
                return Err(ProtoError::BatchTooLarge { count });
            }
            let mut cmds = Vec::with_capacity(count.min(64));
            for _ in 0..count {
                cmds.push(decode_command(cur, true)?);
            }
            Ok(Command::Batch(cmds))
        }
        OP_BATCH | OP_STATS if in_batch => Err(ProtoError::BadBatchOp(opcode)),
        OP_STATS => Ok(Command::Stats),
        other => Err(ProtoError::BadOpcode(other)),
    }
}

/// Appends one request frame (length prefix included) to `out`.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) -> Result<(), ProtoError> {
    let frame_start = out.len();
    out.extend_from_slice(&[0u8; LEN_PREFIX]);
    out.extend_from_slice(&req.id.to_le_bytes());
    out.extend_from_slice(&req.deadline_us.to_le_bytes());
    if let Err(e) = encode_command(&req.cmd, false, out) {
        out.truncate(frame_start);
        return Err(e);
    }
    seal_frame(frame_start, out)
}

/// Decodes one request from a complete frame body (no length prefix).
/// Total: any input yields a `Request` or a typed error, never a panic.
pub fn decode_request(body: &[u8]) -> Result<Request, ProtoError> {
    let mut cur = Cursor::new(body);
    let id = cur.u64()?;
    let deadline_us = cur.u32()?;
    let cmd = decode_command(&mut cur, false)?;
    cur.finish()?;
    Ok(Request { id, deadline_us, cmd })
}

fn encode_body(body: &Body, in_batch: bool, out: &mut Vec<u8>) -> Result<(), ProtoError> {
    match body {
        Body::Ok => out.push(TAG_OK),
        Body::Value(v) => {
            if v.len() > MAX_VALUE {
                return Err(ProtoError::ValueTooLarge { len: v.len() });
            }
            out.push(TAG_VALUE);
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(v);
        }
        Body::NotFound => out.push(TAG_NOT_FOUND),
        Body::Deleted(existed) => {
            out.push(TAG_DELETED);
            out.push(u8::from(*existed));
        }
        Body::Entries(entries) => {
            if entries.len() > MAX_SCAN as usize {
                return Err(ProtoError::ScanTooLarge { limit: entries.len() as u32 });
            }
            out.push(TAG_ENTRIES);
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (k, v) in entries {
                if v.len() > MAX_VALUE {
                    return Err(ProtoError::ValueTooLarge { len: v.len() });
                }
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v);
            }
        }
        Body::Stats(json) => {
            out.push(TAG_STATS);
            out.extend_from_slice(&(json.len() as u32).to_le_bytes());
            out.extend_from_slice(json.as_bytes());
        }
        Body::Batch(bodies) => {
            if in_batch {
                return Err(ProtoError::BadBatchOp(TAG_BATCH));
            }
            if bodies.len() > MAX_BATCH {
                return Err(ProtoError::BatchTooLarge { count: bodies.len() });
            }
            out.push(TAG_BATCH);
            out.extend_from_slice(&(bodies.len() as u32).to_le_bytes());
            for b in bodies {
                encode_body(b, true, out)?;
            }
        }
        Body::Err { kind, retry_after_us } => {
            out.push(TAG_ERR);
            out.push(kind.to_byte());
            out.extend_from_slice(&retry_after_us.to_le_bytes());
        }
    }
    Ok(())
}

fn decode_body(cur: &mut Cursor<'_>, in_batch: bool) -> Result<Body, ProtoError> {
    let tag = cur.u8()?;
    match tag {
        TAG_OK => Ok(Body::Ok),
        TAG_VALUE => {
            let len = cur.u32()? as usize;
            if len > MAX_VALUE {
                return Err(ProtoError::ValueTooLarge { len });
            }
            Ok(Body::Value(cur.take(len)?.to_vec()))
        }
        TAG_NOT_FOUND => Ok(Body::NotFound),
        TAG_DELETED => match cur.u8()? {
            0 => Ok(Body::Deleted(false)),
            1 => Ok(Body::Deleted(true)),
            other => Err(ProtoError::BadBool(other)),
        },
        TAG_ENTRIES => {
            let count = cur.u32()?;
            if count > MAX_SCAN {
                return Err(ProtoError::ScanTooLarge { limit: count });
            }
            let mut entries = Vec::with_capacity((count as usize).min(64));
            for _ in 0..count {
                let k = cur.u64()?;
                let len = cur.u32()? as usize;
                if len > MAX_VALUE {
                    return Err(ProtoError::ValueTooLarge { len });
                }
                entries.push((k, cur.take(len)?.to_vec()));
            }
            Ok(Body::Entries(entries))
        }
        TAG_STATS => {
            let len = cur.u32()? as usize;
            if len > MAX_FRAME {
                return Err(ProtoError::Oversized { len });
            }
            match std::str::from_utf8(cur.take(len)?) {
                Ok(s) => Ok(Body::Stats(s.to_string())),
                Err(_) => Err(ProtoError::BadUtf8),
            }
        }
        TAG_BATCH if !in_batch => {
            let count = cur.u32()? as usize;
            if count > MAX_BATCH {
                return Err(ProtoError::BatchTooLarge { count });
            }
            let mut bodies = Vec::with_capacity(count.min(64));
            for _ in 0..count {
                bodies.push(decode_body(cur, true)?);
            }
            Ok(Body::Batch(bodies))
        }
        TAG_BATCH => Err(ProtoError::BadBatchOp(tag)),
        TAG_ERR => {
            let kind = ErrorKind::from_byte(cur.u8()?)?;
            let retry_after_us = cur.u32()?;
            Ok(Body::Err { kind, retry_after_us })
        }
        other => Err(ProtoError::BadTag(other)),
    }
}

/// Appends one response frame (length prefix included) to `out`.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) -> Result<(), ProtoError> {
    let frame_start = out.len();
    out.extend_from_slice(&[0u8; LEN_PREFIX]);
    out.extend_from_slice(&resp.id.to_le_bytes());
    if let Err(e) = encode_body(&resp.body, false, out) {
        out.truncate(frame_start);
        return Err(e);
    }
    seal_frame(frame_start, out)
}

/// Decodes one response from a complete frame body (no length prefix).
pub fn decode_response(body: &[u8]) -> Result<Response, ProtoError> {
    let mut cur = Cursor::new(body);
    let id = cur.u64()?;
    let body = decode_body(&mut cur, false)?;
    cur.finish()?;
    Ok(Response { id, body })
}

/// Writes the final body length into the reserved prefix at
/// `frame_start`, refusing frames over [`MAX_FRAME`]. On error the
/// partial frame is rolled back off `out`.
fn seal_frame(frame_start: usize, out: &mut Vec<u8>) -> Result<(), ProtoError> {
    let body_len = out.len() - frame_start - LEN_PREFIX;
    if body_len == 0 || body_len > MAX_FRAME {
        out.truncate(frame_start);
        return Err(ProtoError::Oversized { len: body_len });
    }
    let prefix = (body_len as u32).to_le_bytes();
    if let Some(slot) = out.get_mut(frame_start..frame_start + LEN_PREFIX) {
        slot.copy_from_slice(&prefix);
    }
    Ok(())
}

/// Splits a byte stream into complete frame bodies: returns
/// `Ok(Some((body_range, consumed)))` when `buf` holds at least one whole
/// frame, `Ok(None)` when more bytes are needed, and the typed error for
/// a corrupt prefix. Pure function over the buffer — the caller owns the
/// socket loop.
pub fn split_frame(buf: &[u8]) -> Result<Option<(std::ops::Range<usize>, usize)>, ProtoError> {
    let Some(header) = buf.get(..LEN_PREFIX) else {
        return Ok(None);
    };
    let mut h = [0u8; LEN_PREFIX];
    h.copy_from_slice(header);
    let len = frame_len(h)?;
    if buf.len() < LEN_PREFIX + len {
        return Ok(None);
    }
    Ok(Some((LEN_PREFIX..LEN_PREFIX + len, LEN_PREFIX + len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt_request(req: &Request) -> Request {
        let mut buf = Vec::new();
        encode_request(req, &mut buf).expect("encode");
        let (range, consumed) = split_frame(&buf).expect("split").expect("complete");
        assert_eq!(consumed, buf.len());
        decode_request(&buf[range]).expect("decode")
    }

    fn rt_response(resp: &Response) -> Response {
        let mut buf = Vec::new();
        encode_response(resp, &mut buf).expect("encode");
        let (range, consumed) = split_frame(&buf).expect("split").expect("complete");
        assert_eq!(consumed, buf.len());
        decode_response(&buf[range]).expect("decode")
    }

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request { id: 1, deadline_us: 0, cmd: Command::Get { key: 42 } },
            Request { id: 2, deadline_us: 500, cmd: Command::Put { key: 7, value: vec![1, 2, 3] } },
            Request { id: 3, deadline_us: 0, cmd: Command::Delete { key: 9 } },
            Request { id: 4, deadline_us: 10, cmd: Command::Scan { lo: 5, hi: 50, limit: 16 } },
            Request { id: 5, deadline_us: 0, cmd: Command::Stats },
            Request {
                id: u64::MAX,
                deadline_us: u32::MAX,
                cmd: Command::Batch(vec![
                    Command::Get { key: 1 },
                    Command::Put { key: 2, value: vec![] },
                    Command::Delete { key: 3 },
                    Command::Scan { lo: 0, hi: u64::MAX, limit: 1 },
                ]),
            },
        ];
        for req in &reqs {
            assert_eq!(&rt_request(req), req);
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = [
            Response { id: 1, body: Body::Ok },
            Response { id: 2, body: Body::Value(vec![9; 16]) },
            Response { id: 3, body: Body::NotFound },
            Response { id: 4, body: Body::Deleted(true) },
            Response { id: 5, body: Body::Entries(vec![(1, vec![1]), (2, vec![])]) },
            Response { id: 6, body: Body::Stats("{\"events\":{}}".to_string()) },
            Response {
                id: 7,
                body: Body::Batch(vec![
                    Body::Ok,
                    Body::NotFound,
                    Body::Err { kind: ErrorKind::RetryAfter, retry_after_us: 250 },
                ]),
            },
        ];
        for resp in &resps {
            assert_eq!(&rt_response(resp), resp);
        }
        for kind in ErrorKind::ALL {
            let r = Response { id: 8, body: Body::Err { kind, retry_after_us: 99 } };
            assert_eq!(rt_response(&r), r);
        }
    }

    #[test]
    fn nested_batch_refused_both_ways() {
        let nested =
            Request { id: 1, deadline_us: 0, cmd: Command::Batch(vec![Command::Batch(vec![])]) };
        let mut buf = Vec::new();
        assert_eq!(encode_request(&nested, &mut buf), Err(ProtoError::BadBatchOp(OP_BATCH)));
        assert!(buf.is_empty(), "failed encode must roll the frame back");
        // Hand-craft the same nesting on the wire.
        let mut body = Vec::new();
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        body.push(OP_BATCH);
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(OP_BATCH);
        body.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode_request(&body), Err(ProtoError::BadBatchOp(OP_BATCH)));
    }

    #[test]
    fn stats_in_batch_refused() {
        let mut buf = Vec::new();
        let req = Request { id: 1, deadline_us: 0, cmd: Command::Batch(vec![Command::Stats]) };
        assert_eq!(encode_request(&req, &mut buf), Err(ProtoError::BadBatchOp(OP_STATS)));
    }

    #[test]
    fn bad_opcode_and_tag_are_typed() {
        let mut body = Vec::new();
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        body.push(0x77);
        assert_eq!(decode_request(&body), Err(ProtoError::BadOpcode(0x77)));
        let mut body = Vec::new();
        body.extend_from_slice(&1u64.to_le_bytes());
        body.push(0x00);
        assert_eq!(decode_response(&body), Err(ProtoError::BadTag(0x00)));
    }

    #[test]
    fn unassigned_error_kind_bytes_are_typed() {
        for byte in [0, 2, 8, u8::MAX] {
            let mut body = Vec::new();
            body.extend_from_slice(&1u64.to_le_bytes());
            body.push(TAG_ERR);
            body.push(byte);
            body.extend_from_slice(&0u32.to_le_bytes());
            assert_eq!(decode_response(&body), Err(ProtoError::BadErrorKind(byte)));
        }
        let bytes = ErrorKind::ALL.map(ErrorKind::to_byte);
        assert_eq!(bytes, [1, 3, 4, 5, 6, 7], "assigned bytes keep their values");
    }

    #[test]
    fn oversized_prefix_is_typed() {
        assert_eq!(
            frame_len((MAX_FRAME as u32 + 1).to_le_bytes()),
            Err(ProtoError::Oversized { len: MAX_FRAME + 1 })
        );
        assert_eq!(frame_len(0u32.to_le_bytes()), Err(ProtoError::Oversized { len: 0 }));
        assert_eq!(frame_len(13u32.to_le_bytes()), Ok(13));
        let huge = u32::MAX.to_le_bytes();
        let mut buf = huge.to_vec();
        buf.extend_from_slice(&[0; 32]);
        assert!(matches!(split_frame(&buf), Err(ProtoError::Oversized { .. })));
    }

    #[test]
    fn truncation_inside_body_is_typed() {
        let req =
            Request { id: 1, deadline_us: 0, cmd: Command::Put { key: 7, value: vec![5; 8] } };
        let mut buf = Vec::new();
        encode_request(&req, &mut buf).expect("encode");
        let body = &buf[LEN_PREFIX..];
        for cut in 0..body.len() {
            let r = decode_request(&body[..cut]);
            assert!(r.is_err(), "cut at {cut} decoded: {r:?}");
        }
    }

    #[test]
    fn split_frame_needs_whole_frame() {
        let req = Request { id: 3, deadline_us: 0, cmd: Command::Get { key: 1 } };
        let mut buf = Vec::new();
        encode_request(&req, &mut buf).expect("encode");
        for cut in 0..buf.len() {
            assert_eq!(split_frame(&buf[..cut]), Ok(None), "cut at {cut}");
        }
        // Two pipelined frames split one at a time.
        let mut two = buf.clone();
        encode_request(&Request { id: 4, deadline_us: 0, cmd: Command::Stats }, &mut two)
            .expect("encode");
        let (r1, used) = split_frame(&two).expect("ok").expect("frame");
        assert_eq!(decode_request(&two[r1]).expect("decode").id, 3);
        let (r2, used2) = split_frame(&two[used..]).expect("ok").expect("frame");
        assert_eq!(decode_request(&two[used..][r2]).expect("decode").id, 4);
        assert_eq!(used + used2, two.len());
    }

    #[test]
    fn value_and_batch_limits_enforced() {
        let mut body = Vec::new();
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        body.push(OP_PUT);
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&(MAX_VALUE as u32 + 1).to_le_bytes());
        assert_eq!(decode_request(&body), Err(ProtoError::ValueTooLarge { len: MAX_VALUE + 1 }));

        let mut body = Vec::new();
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        body.push(OP_BATCH);
        body.extend_from_slice(&(MAX_BATCH as u32 + 1).to_le_bytes());
        assert_eq!(decode_request(&body), Err(ProtoError::BatchTooLarge { count: MAX_BATCH + 1 }));
    }

    #[test]
    fn trailing_bytes_are_typed() {
        let req = Request { id: 1, deadline_us: 0, cmd: Command::Get { key: 2 } };
        let mut buf = Vec::new();
        encode_request(&req, &mut buf).expect("encode");
        let mut body = buf[LEN_PREFIX..].to_vec();
        body.push(0xAB);
        assert_eq!(decode_request(&body), Err(ProtoError::TrailingBytes { extra: 1 }));
    }
}
