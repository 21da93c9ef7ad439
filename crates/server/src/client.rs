//! A small blocking client for the `li-proto` protocol, generic over the
//! stream so tests can wrap it in [`crate::FaultyTransport`].
//!
//! Supports both closed-loop use ([`Client::call`]: one request, wait
//! for its response) and pipelined use ([`Client::send`] many, then
//! [`Client::recv`] until caught up — responses may arrive out of
//! submission order, matched by id).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use li_proto::{
    decode_response, encode_request, split_frame, Body, Command, ProtoError, Request, Response,
};

/// Bytes asked of the stream in one read.
const READ_CHUNK: usize = 4096;

/// Blocking protocol client over any `Read + Write` stream.
pub struct Client<S> {
    stream: S,
    next_id: u64,
    /// The request frame being sent, encoded here call after call.
    frame: Vec<u8>,
    /// Bytes read off the wire; responses before `parsed` are handed out.
    acc: Vec<u8>,
    parsed: usize,
    /// What one `read` fills, before it is appended to `acc`.
    chunk: Vec<u8>,
    /// Responses read while waiting for a different id.
    parked: HashMap<u64, Body>,
}

impl Client<TcpStream> {
    /// Connects over TCP with Nagle disabled and a read timeout so a
    /// dead server can't hang a test forever.
    pub fn connect(addr: impl ToSocketAddrs, read_timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(Client::over(stream))
    }
}

impl<S: Read + Write> Client<S> {
    /// Wraps an already-connected stream (e.g. a `FaultyTransport`).
    pub fn over(stream: S) -> Self {
        Client {
            stream,
            next_id: 1,
            frame: Vec::with_capacity(64),
            acc: Vec::with_capacity(READ_CHUNK),
            parsed: 0,
            chunk: vec![0u8; READ_CHUNK],
            parked: HashMap::new(),
        }
    }

    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Sends one request; returns the id to await. `deadline_us` is the
    /// server-side budget (0 = none).
    pub fn send(&mut self, cmd: Command, deadline_us: u32) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request { id, deadline_us, cmd };
        self.frame.clear();
        encode_request(&req, &mut self.frame)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.stream.write_all(&self.frame)?;
        Ok(id)
    }

    /// Reads the next response frame off the wire (any id).
    pub fn recv(&mut self) -> io::Result<Response> {
        let invalid = |e: ProtoError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        loop {
            match split_frame(&self.acc[self.parsed..]).map_err(invalid)? {
                Some((range, consumed)) => {
                    let body = &self.acc[self.parsed + range.start..self.parsed + range.end];
                    self.parsed += consumed;
                    return decode_response(body).map_err(invalid);
                }
                None => {
                    // One compaction per read, not one per response.
                    self.acc.drain(..self.parsed);
                    self.parsed = 0;
                    match self.stream.read(&mut self.chunk)? {
                        0 => {
                            return Err(io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "server closed the connection",
                            ));
                        }
                        n => self.acc.extend_from_slice(&self.chunk[..n]),
                    }
                }
            }
        }
    }

    /// Waits for the response to a specific id, parking any other
    /// responses that arrive first (pipelined peers).
    pub fn recv_for(&mut self, id: u64) -> io::Result<Body> {
        if let Some(body) = self.parked.remove(&id) {
            return Ok(body);
        }
        loop {
            let resp = self.recv()?;
            if resp.id == id {
                return Ok(resp.body);
            }
            self.parked.insert(resp.id, resp.body);
        }
    }

    /// Closed-loop request: send and wait for the matching response.
    pub fn call(&mut self, cmd: Command, deadline_us: u32) -> io::Result<Body> {
        let id = self.send(cmd, deadline_us)?;
        self.recv_for(id)
    }

    /// Convenience: STATS as the raw JSON string.
    pub fn stats(&mut self) -> io::Result<String> {
        match self.call(Command::Stats, 0)? {
            Body::Stats(json) => Ok(json),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("non-stats response {other:?}"),
            )),
        }
    }
}
