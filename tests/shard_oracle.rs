//! Multi-threaded oracle test for the range-sharding lift (ISSUE
//! satellite): seeded concurrent op streams against `Sharded`
//! (and natively-concurrent XIndex) must end in exactly the state a
//! `BTreeMap` oracle predicts — full contents, point lookups, misses and
//! range scans.
//!
//! Threads own disjoint key sets (key ≡ t mod THREADS), so every
//! interleaving must produce the same final state; any divergence is a
//! lost/duplicated/misrouted update inside the shard router.

use std::collections::BTreeMap;
use std::sync::Arc;

use li_sync::sync::atomic::{AtomicBool, Ordering};

use lip::core::traits::{ConcurrentIndex, OrderedIndex};
use lip::nvm::fault::splitmix64;
use lip::{AnyConcurrentIndex, ConcurrentKind, IndexKind};

const THREADS: u64 = 8;
const OPS_PER_THREAD: usize = 4_000;

/// Runs one seeded concurrent session against `kind` and checks the final
/// state against the merged per-thread oracles.
fn oracle_session(kind: ConcurrentKind, seed: u64) {
    // Initial keys step by 3: gcd(3, 8) = 1, so the bulk load covers every
    // thread's residue class.
    let initial: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i * 3, i)).collect();
    let idx = Arc::new(AnyConcurrentIndex::build(kind, &initial));

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let idx = Arc::clone(&idx);
        let initial = initial.clone();
        handles.push(li_sync::thread::spawn(move || {
            // This thread's oracle starts from its residue slice of the
            // bulk load and mirrors every op it applies.
            let mut oracle: BTreeMap<u64, u64> =
                initial.into_iter().filter(|(k, _)| k % THREADS == t).collect();
            let mut s = seed ^ (t.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let key_span = 120_000u64 / THREADS;
            for i in 0..OPS_PER_THREAD {
                let r = splitmix64(&mut s);
                let key = (r % key_span) * THREADS + t; // key ≡ t (mod THREADS)
                match r >> 61 {
                    // ~5/8 inserts or updates, 1/8 removes, 2/8 reads.
                    0..=4 => {
                        let v = (i as u64) << 8 | t;
                        let prev = ConcurrentIndex::insert(&*idx, key, v);
                        assert_eq!(prev, oracle.insert(key, v), "t{t} insert {key}");
                    }
                    5 => {
                        let prev = ConcurrentIndex::remove(&*idx, key);
                        assert_eq!(prev, oracle.remove(&key), "t{t} remove {key}");
                    }
                    _ => {
                        let got = ConcurrentIndex::get(&*idx, key);
                        assert_eq!(got, oracle.get(&key).copied(), "t{t} get {key}");
                    }
                }
            }
            oracle
        }));
    }

    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    for h in handles {
        oracle.extend(h.join().expect("oracle thread"));
    }

    // Final state: size, every live key, a sample of absent keys.
    assert_eq!(ConcurrentIndex::len(&*idx), oracle.len(), "{} len", kind.name());
    for (&k, &v) in &oracle {
        assert_eq!(ConcurrentIndex::get(&*idx, k), Some(v), "{} key {k}", kind.name());
    }
    let max_key = 120_000 * 3;
    for probe in (0..max_key).step_by(997) {
        assert_eq!(
            ConcurrentIndex::get(&*idx, probe),
            oracle.get(&probe).copied(),
            "{} probe {probe}",
            kind.name()
        );
    }

    // Range scans across shard boundaries must match the oracle exactly.
    let mut s = seed ^ 0xdead_beef;
    for _ in 0..50 {
        let lo = splitmix64(&mut s) % max_key;
        let hi = lo + 1 + splitmix64(&mut s) % 20_000;
        let got = idx.range_vec(lo, hi);
        let want: Vec<(u64, u64)> = oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want, "{} range [{lo}, {hi}]", kind.name());
    }
}

#[test]
fn sharded_btree_matches_oracle() {
    oracle_session(ConcurrentKind::of(IndexKind::BTree).unwrap(), 0xb7ee);
}

#[test]
fn sharded_pgm_matches_oracle() {
    oracle_session(ConcurrentKind::of(IndexKind::Pgm).unwrap(), 0x96d1);
}

#[test]
fn sharded_alex_matches_oracle() {
    oracle_session(ConcurrentKind::of(IndexKind::Alex).unwrap(), 0xa1e);
}

#[test]
fn native_xindex_matches_oracle() {
    oracle_session(ConcurrentKind::of(IndexKind::XIndex).unwrap(), 0x71de);
}

#[test]
fn global_lock_route_matches_oracle() {
    oracle_session(ConcurrentKind::global_lock(IndexKind::SkipList).unwrap(), 0x10c);
}

/// 8-thread oracle session against the sharded router while a
/// background thread forces shard splits and merges mid-stream. Every
/// op's return value and the full final state must still match the
/// oracle exactly: a cutover that lost a side-logged write, replayed one
/// twice, or mis-routed around a moving boundary shows up as a
/// divergence.
#[test]
fn adaptive_session_with_forced_adaptations_matches_oracle() {
    let seed = 0xada97_u64;
    let initial: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i * 3, i)).collect();
    let idx = Arc::new(AnyConcurrentIndex::build_with_shards(
        ConcurrentKind::of(IndexKind::Pgm).unwrap(),
        4,
        &initial,
    ));
    let stop = Arc::new(AtomicBool::new(false));

    // Adaptation churn: rotate split / merge over the live layout until
    // the writers finish. Failures (Busy, CannotSplit, Stale under
    // concurrent layout changes) are expected and skipped — what matters
    // is that plenty of each commit mid-stream.
    let adapt = {
        let idx = Arc::clone(&idx);
        let stop = Arc::clone(&stop);
        li_sync::thread::spawn(move || {
            let (mut splits, mut merges) = (0u32, 0u32);
            let mut step = 0usize;
            while !stop.load(Ordering::Acquire) {
                let n = idx.shard_count();
                if step.is_multiple_of(2) && n < 12 {
                    if idx.force_split(step % n).is_ok() {
                        splits += 1;
                    }
                } else if n >= 3 && idx.force_merge(step % (n - 1)).is_ok() {
                    merges += 1;
                }
                step += 1;
                li_sync::thread::sleep(std::time::Duration::from_micros(200));
            }
            (splits, merges)
        })
    };

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let idx = Arc::clone(&idx);
        let initial = initial.clone();
        handles.push(li_sync::thread::spawn(move || {
            let mut oracle: BTreeMap<u64, u64> =
                initial.into_iter().filter(|(k, _)| k % THREADS == t).collect();
            let mut s = seed ^ (t.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let key_span = 120_000u64 / THREADS;
            for i in 0..OPS_PER_THREAD {
                let r = splitmix64(&mut s);
                let key = (r % key_span) * THREADS + t;
                match r >> 61 {
                    0..=4 => {
                        let v = (i as u64) << 8 | t;
                        let prev = ConcurrentIndex::insert(&*idx, key, v);
                        assert_eq!(prev, oracle.insert(key, v), "t{t} insert {key}");
                    }
                    5 => {
                        let prev = ConcurrentIndex::remove(&*idx, key);
                        assert_eq!(prev, oracle.remove(&key), "t{t} remove {key}");
                    }
                    _ => {
                        let got = ConcurrentIndex::get(&*idx, key);
                        assert_eq!(got, oracle.get(&key).copied(), "t{t} get {key}");
                    }
                }
            }
            oracle
        }));
    }

    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    for h in handles {
        oracle.extend(h.join().expect("oracle thread"));
    }
    stop.store(true, Ordering::Release);
    let (splits, merges) = adapt.join().expect("adaptation thread");
    assert!(splits >= 1, "no split committed mid-stream");
    assert!(merges >= 1, "no merge committed mid-stream");

    // No lost, duplicated, or misrouted keys across all the cutovers.
    assert_eq!(ConcurrentIndex::len(&*idx), oracle.len(), "adaptive len");
    for (&k, &v) in &oracle {
        assert_eq!(ConcurrentIndex::get(&*idx, k), Some(v), "adaptive key {k}");
    }
    let max_key = 120_000 * 3;
    for probe in (0..max_key).step_by(997) {
        assert_eq!(
            ConcurrentIndex::get(&*idx, probe),
            oracle.get(&probe).copied(),
            "adaptive probe {probe}"
        );
    }
    let mut s = seed ^ 0xdead_beef;
    for _ in 0..50 {
        let lo = splitmix64(&mut s) % max_key;
        let hi = lo + 1 + splitmix64(&mut s) % 20_000;
        let got = idx.range_vec(lo, hi);
        let want: Vec<(u64, u64)> = oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want, "adaptive range [{lo}, {hi}]");
    }
    // The full scan seen through the ordered face is the oracle, in order.
    let all = idx.range_vec(0, u64::MAX);
    let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(all, want, "adaptive full scan");
}
