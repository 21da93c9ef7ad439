//! Request execution against a [`ConcurrentViperStore`] and the mapping
//! from [`ViperError`] to typed protocol errors.
//!
//! The mapping is the contract the chaos tests hold the server to: every
//! store failure surfaces as a *response*, never a dropped connection —
//! a transient fault that outlasted the retry budget as `RETRY_AFTER`,
//! read-only degradation as `READ_ONLY`, anything else as `INTERNAL`.
//!
//! Values on the wire are variable-length up to the store's fixed record
//! size minus a 4-byte length header; the header is how a 3-byte client
//! value survives the fixed-size record round-trip intact.

use li_core::{ConcurrentIndex, OrderedIndex};
use li_proto::{Body, Command, ErrorKind, MAX_VALUE};
use li_telemetry::OpKind;
use li_viper::{ConcurrentViperStore, ViperError};

/// Length header carved out of each fixed-size record for the client
/// value's true length.
const VLEN_HEADER: usize = 4;

/// Serves every command type against the store. Never returns a
/// transport-level error: store failures come back as [`Body::Err`].
pub fn execute<I>(store: &ConcurrentViperStore<I>, cmd: &Command) -> Body
where
    I: ConcurrentIndex + OrderedIndex,
{
    let recorder = store.recorder();
    let timer = recorder.start_sampled();
    let (kind, body) = match cmd {
        Command::Get { key } => (OpKind::ServerGet, get(store, *key)),
        Command::Put { key, value } => (OpKind::ServerPut, put(store, *key, value)),
        Command::Delete { key } => (OpKind::ServerDelete, delete(store, *key)),
        Command::Scan { lo, hi, limit } => (OpKind::ServerScan, scan(store, *lo, *hi, *limit)),
        Command::Batch(cmds) => {
            // Submission order: a SCAN must see the PUTs and DELETEs
            // that precede it in its own batch.
            let bodies = cmds.iter().map(|c| execute_one(store, c)).collect();
            (OpKind::ServerBatch, Body::Batch(bodies))
        }
        Command::Stats => (OpKind::ServerStats, stats(store)),
    };
    recorder.finish(kind, timer);
    body
}

/// One non-batch command (batch nesting is rejected at decode).
fn execute_one<I>(store: &ConcurrentViperStore<I>, cmd: &Command) -> Body
where
    I: ConcurrentIndex + OrderedIndex,
{
    match cmd {
        Command::Get { key } => get(store, *key),
        Command::Put { key, value } => put(store, *key, value),
        Command::Delete { key } => delete(store, *key),
        Command::Scan { lo, hi, limit } => scan(store, *lo, *hi, *limit),
        Command::Batch(_) | Command::Stats => {
            Body::Err { kind: ErrorKind::BadRequest, retry_after_us: 0 }
        }
    }
}

fn get<I>(store: &ConcurrentViperStore<I>, key: u64) -> Body
where
    I: ConcurrentIndex + OrderedIndex,
{
    let mut buf = vec![0u8; store.heap().layout().value_size];
    if store.get(key, &mut buf) {
        match unframe_value(&buf).map(<[u8]>::len) {
            // The record's buffer becomes the response's: the value
            // moves down over the length header.
            Some(len) => {
                buf.copy_within(VLEN_HEADER..VLEN_HEADER + len, 0);
                buf.truncate(len);
                Body::Value(buf)
            }
            None => Body::Err { kind: ErrorKind::Internal, retry_after_us: 0 },
        }
    } else {
        Body::NotFound
    }
}

fn put<I>(store: &ConcurrentViperStore<I>, key: u64, value: &[u8]) -> Body
where
    I: ConcurrentIndex + OrderedIndex,
{
    let value_size = store.heap().layout().value_size;
    if value.len() + VLEN_HEADER > value_size || value.len() > MAX_VALUE {
        return Body::Err { kind: ErrorKind::BadRequest, retry_after_us: 0 };
    }
    let stored = li_viper::heap::with_scratch(value_size, |framed| {
        framed[..VLEN_HEADER].copy_from_slice(&(value.len() as u32).to_le_bytes());
        framed[VLEN_HEADER..VLEN_HEADER + value.len()].copy_from_slice(value);
        store.put(key, framed)
    });
    match stored {
        Ok(()) => Body::Ok,
        Err(e) => map_store_error(&e, store.retry_policy().max_backoff),
    }
}

fn delete<I>(store: &ConcurrentViperStore<I>, key: u64) -> Body
where
    I: ConcurrentIndex + OrderedIndex,
{
    match store.delete(key) {
        Ok(existed) => Body::Deleted(existed),
        Err(e) => map_store_error(&e, store.retry_policy().max_backoff),
    }
}

fn scan<I>(store: &ConcurrentViperStore<I>, lo: u64, hi: u64, limit: u32) -> Body
where
    I: ConcurrentIndex + OrderedIndex,
{
    if lo > hi {
        return Body::Err { kind: ErrorKind::BadRequest, retry_after_us: 0 };
    }
    let mut entries = Vec::new();
    let mut corrupt = false;
    store.scan(lo, hi, limit as usize, &mut |key, raw| match unframe_value(raw) {
        Some(v) => entries.push((key, v.to_vec())),
        None => corrupt = true,
    });
    if corrupt {
        Body::Err { kind: ErrorKind::Internal, retry_after_us: 0 }
    } else {
        Body::Entries(entries)
    }
}

fn stats<I>(store: &ConcurrentViperStore<I>) -> Body
where
    I: ConcurrentIndex + OrderedIndex,
{
    let mut snap = store.recorder().snapshot();
    snap.nvm = store.heap().device().stats_snapshot().to_telemetry();
    snap.cells = store.index().observe_cells();
    Body::Stats(snap.to_json())
}

/// The client value embedded in one fixed-size record, or `None` if the
/// length header is inconsistent (torn/corrupt record).
fn unframe_value(raw: &[u8]) -> Option<&[u8]> {
    let header = raw.get(..VLEN_HEADER)?;
    let mut h = [0u8; VLEN_HEADER];
    h.copy_from_slice(header);
    let len = u32::from_le_bytes(h) as usize;
    raw.get(VLEN_HEADER..VLEN_HEADER + len)
}

/// [`ViperError`] → typed protocol error. It classifies on the error
/// alone, which is what lets a zero-retry configuration still answer
/// permanent errors correctly (retrying only changes how long the store
/// fought before surfacing a transient error, not its class).
pub fn map_store_error(err: &ViperError, retry_cap: std::time::Duration) -> Body {
    match err {
        ViperError::ReadOnly => Body::Err { kind: ErrorKind::ReadOnly, retry_after_us: 0 },
        // The retry budget (if any) is already spent by the time a
        // transient error escapes the store; tell the client to try
        // later. Permanent faults are internal.
        e if e.is_transient() => {
            let cap_us = (retry_cap.as_micros().min(u128::from(u32::MAX)) as u32).max(100);
            Body::Err { kind: ErrorKind::RetryAfter, retry_after_us: cap_us.saturating_mul(4) }
        }
        _ => Body::Err { kind: ErrorKind::Internal, retry_after_us: 0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use li_nvm::NvmError;
    use li_viper::{RetryPolicy, StoreConfig};

    type Store = ConcurrentViperStore<li_core::Sharded>;

    fn test_store(n: usize) -> Store {
        use li_core::BulkBuildIndex;
        let keys: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();
        Store::bulk_load_with(
            StoreConfig::test(n + 64),
            &keys,
            |key, buf| {
                buf.fill(0);
                buf[..VLEN_HEADER].copy_from_slice(&4u32.to_le_bytes());
                buf[VLEN_HEADER..VLEN_HEADER + 4].copy_from_slice(&(key as u32).to_le_bytes());
            },
            |pairs| li_core::Sharded::build_with(4, pairs, crate::testutil::MapIndex::build),
        )
    }

    #[test]
    fn round_trip_preserves_client_value_length() {
        let store = test_store(16);
        assert!(matches!(
            execute(&store, &Command::Put { key: 2, value: vec![9, 8, 7] }),
            Body::Ok
        ));
        match execute(&store, &Command::Get { key: 2 }) {
            Body::Value(v) => assert_eq!(v, vec![9, 8, 7]),
            other => panic!("unexpected {other:?}"),
        }
        // Empty values round-trip too.
        assert!(matches!(execute(&store, &Command::Put { key: 3, value: vec![] }), Body::Ok));
        assert!(
            matches!(execute(&store, &Command::Get { key: 3 }), Body::Value(v) if v.is_empty())
        );
    }

    #[test]
    fn oversized_value_is_bad_request_not_panic() {
        let store = test_store(4);
        let value_size = store.heap().layout().value_size;
        let body = execute(&store, &Command::Put { key: 1, value: vec![0; value_size] });
        assert_eq!(body, Body::Err { kind: ErrorKind::BadRequest, retry_after_us: 0 });
    }

    #[test]
    fn scan_returns_unframed_entries_in_order() {
        let store = test_store(10);
        match execute(&store, &Command::Scan { lo: 0, hi: u64::MAX, limit: 5 }) {
            Body::Entries(e) => {
                assert_eq!(e.len(), 5);
                assert!(e.windows(2).all(|w| w[0].0 < w[1].0));
                assert!(e.iter().all(|(_, v)| v.len() == 4));
            }
            other => panic!("unexpected {other:?}"),
        }
        let inverted = execute(&store, &Command::Scan { lo: 9, hi: 1, limit: 5 });
        assert_eq!(inverted, Body::Err { kind: ErrorKind::BadRequest, retry_after_us: 0 });
    }

    #[test]
    fn batch_preserves_submission_order() {
        let store = test_store(32);
        let cmds = vec![
            Command::Put { key: 1000, value: vec![1] },
            Command::Get { key: 1000 },
            Command::Delete { key: 1000 },
            Command::Get { key: 1000 },
        ];
        match execute(&store, &Command::Batch(cmds)) {
            Body::Batch(bodies) => {
                assert_eq!(bodies.len(), 4);
                assert_eq!(bodies[0], Body::Ok);
                assert_eq!(bodies[1], Body::Value(vec![1]));
                assert_eq!(bodies[2], Body::Deleted(true));
                assert_eq!(bodies[3], Body::NotFound);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A GET whose index entry points at a recycled slot (what a reader
    /// that lost a race with a delete holds) is a miss on the wire, never
    /// the slot's new owner's value.
    #[test]
    fn get_through_an_entry_for_another_keys_slot_is_not_found() {
        let store = test_store(4);
        let slot_of_8 = store.index().get(8).expect("key 8 is loaded");
        store.index().insert(9, slot_of_8);
        assert_eq!(execute(&store, &Command::Get { key: 9 }), Body::NotFound);
        assert!(matches!(execute(&store, &Command::Get { key: 8 }), Body::Value(_)));
    }

    /// Satellite: a zero-retry config must still classify permanent
    /// errors correctly — retrying affects persistence of transients,
    /// not classification.
    #[test]
    fn zero_retry_config_classifies_permanent_errors() {
        let zero = RetryPolicy::disabled();
        assert_eq!(zero.max_retries, 0);
        let cases = [
            (ViperError::ReadOnly, ErrorKind::ReadOnly),
            (ViperError::WalFull, ErrorKind::Internal),
            (ViperError::IndexMismatch, ErrorKind::Internal),
            (ViperError::Nvm(NvmError::Crashed), ErrorKind::Internal),
            (ViperError::DeviceFull, ErrorKind::RetryAfter),
        ];
        for (err, want) in cases {
            let body = map_store_error(&err, zero.max_backoff);
            match body {
                Body::Err { kind, .. } => assert_eq!(kind, want, "for {err:?}"),
                other => panic!("{err:?} mapped to non-error {other:?}"),
            }
        }
    }
}
