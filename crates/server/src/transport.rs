//! [`FaultyTransport`]: seeded network-fault injection, the socket-layer
//! sibling of `li-nvm`'s `FaultPlan`.
//!
//! Wraps any `Read + Write` stream and misbehaves the way real clients
//! and real networks do: writes split into partial chunks, reads
//! returning one byte at a time, stalls in the middle of a frame, and
//! hard disconnects with a frame half-sent. Everything is driven by a
//! SplitMix64 stream from one seed, so a chaos-test failure replays
//! exactly.
//!
//! The wrapper is used on the *client* side of chaos tests: the server
//! under test sees genuinely torn TCP traffic without needing any
//! test-only hooks in its own read/write path.

use std::io::{self, Read, Write};
use std::time::Duration;

use li_nvm::fault::splitmix64;

/// Per-call fault probabilities, in parts per 1024 (so configs stay
/// integer and seeds stay deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Chance a write delivers only a prefix of the buffer.
    pub partial_write: u32,
    /// Chance a read is truncated to a single byte.
    pub short_read: u32,
    /// Chance of sleeping `stall` before the call proceeds.
    pub stall: u32,
    /// Stall duration when one fires.
    pub stall_for: Duration,
    /// Chance the connection dies mid-call (subsequent calls fail too).
    pub disconnect: u32,
}

impl FaultConfig {
    /// No faults — the wrapper becomes a pass-through.
    pub const fn none() -> Self {
        FaultConfig {
            partial_write: 0,
            short_read: 0,
            stall: 0,
            stall_for: Duration::from_millis(0),
            disconnect: 0,
        }
    }

    /// The storm profile the chaos tests use: frequent torn I/O, rare
    /// but present stalls and mid-frame disconnects.
    pub const fn storm() -> Self {
        FaultConfig {
            partial_write: 384,
            short_read: 384,
            stall: 48,
            stall_for: Duration::from_millis(5),
            disconnect: 12,
        }
    }
}

/// A `Read + Write` stream that injects seeded faults around an inner
/// stream. See the module docs for the fault taxonomy.
#[derive(Debug)]
pub struct FaultyTransport<S> {
    inner: S,
    cfg: FaultConfig,
    rng: u64,
    dead: bool,
    /// Faults injected so far (for test assertions).
    pub injected: u64,
}

impl<S> FaultyTransport<S> {
    pub fn new(inner: S, cfg: FaultConfig, seed: u64) -> Self {
        FaultyTransport { inner, cfg, rng: seed, dead: false, injected: 0 }
    }

    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Whether an injected disconnect has killed this transport.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    fn roll(&mut self, chance_per_1024: u32) -> bool {
        if chance_per_1024 == 0 {
            return false;
        }
        let hit = (splitmix64(&mut self.rng) & 1023) < u64::from(chance_per_1024);
        if hit {
            self.injected += 1;
        }
        hit
    }

    fn pre_call(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "injected disconnect"));
        }
        if self.roll(self.cfg.stall) {
            li_sync::thread::sleep(self.cfg.stall_for);
        }
        if self.roll(self.cfg.disconnect) {
            self.dead = true;
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "injected disconnect"));
        }
        Ok(())
    }
}

impl<S: Read> Read for FaultyTransport<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.pre_call()?;
        if !buf.is_empty() && self.roll(self.cfg.short_read) {
            return self.inner.read(&mut buf[..1]);
        }
        self.inner.read(buf)
    }
}

impl<S: Write> Write for FaultyTransport<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pre_call()?;
        if buf.len() > 1 && self.roll(self.cfg.partial_write) {
            // Tear the write mid-buffer — often mid-frame. A further
            // roll may then kill the connection entirely, leaving the
            // peer holding half a frame.
            let cut = 1 + (splitmix64(&mut self.rng) as usize) % (buf.len() - 1);
            let n = self.inner.write(&buf[..cut])?;
            if self.roll(self.cfg.disconnect) {
                self.dead = true;
            }
            return Ok(n);
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "injected disconnect"));
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory pipe endpoint for exercising the wrapper.
    #[derive(Default)]
    struct Loopback {
        rx: Vec<u8>,
        tx: Vec<u8>,
    }

    impl Read for Loopback {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.rx.len().min(buf.len());
            buf[..n].copy_from_slice(&self.rx[..n]);
            self.rx.drain(..n);
            Ok(n)
        }
    }

    impl Write for Loopback {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.tx.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn no_faults_is_passthrough() {
        let mut t = FaultyTransport::new(Loopback::default(), FaultConfig::none(), 1);
        assert_eq!(t.write(b"hello").expect("write"), 5);
        assert_eq!(t.get_ref().tx, b"hello");
        assert_eq!(t.injected, 0);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let run = |seed: u64| {
            let mut t = FaultyTransport::new(
                Loopback::default(),
                FaultConfig { disconnect: 0, ..FaultConfig::storm() },
                seed,
            );
            let mut sizes = Vec::new();
            for _ in 0..64 {
                sizes.push(t.write(&[7u8; 100]).expect("write"));
            }
            (sizes, t.injected)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds should tear differently");
    }

    #[test]
    fn partial_writes_tear_buffers() {
        let cfg = FaultConfig { partial_write: 1024, ..FaultConfig::none() };
        let mut t = FaultyTransport::new(Loopback::default(), cfg, 7);
        let n = t.write(&[1u8; 64]).expect("write");
        assert!(n < 64, "a certain partial write must tear the buffer, wrote {n}");
        assert!(t.injected >= 1);
    }

    #[test]
    fn disconnect_is_sticky() {
        let cfg = FaultConfig { disconnect: 1024, ..FaultConfig::none() };
        let mut t = FaultyTransport::new(Loopback::default(), cfg, 9);
        assert!(t.write(b"x").is_err());
        assert!(t.is_dead());
        assert!(t.write(b"x").is_err());
        let mut buf = [0u8; 4];
        assert!(t.read(&mut buf).is_err());
        assert!(t.flush().is_err());
    }

    #[test]
    fn short_reads_deliver_one_byte() {
        let cfg = FaultConfig { short_read: 1024, ..FaultConfig::none() };
        let inner = Loopback { rx: vec![1, 2, 3, 4], ..Loopback::default() };
        let mut t = FaultyTransport::new(inner, cfg, 5);
        let mut buf = [0u8; 4];
        assert_eq!(t.read(&mut buf).expect("read"), 1);
        assert_eq!(buf[0], 1);
    }
}
