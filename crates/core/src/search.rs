//! In-leaf search routines.
//!
//! Learned indexes predict an approximate position and then correct it with
//! a local search (§II, Fig. 2). The paper's indexes use bounded binary
//! search within `prediction ± error` (RMI, RS, FITing-tree, PGM) or
//! exponential search outward from the prediction (ALEX). All variants are
//! provided here and unit-tested against each other.
//!
//! Every search of a model's window ends in one kernel, [`last_mile`],
//! generic over the element so key arrays and pair arrays share it; the
//! named searches only choose its window and comparison.

use std::ops::Range;

use crate::types::{Key, KeyValue};

/// Windows of at most this many bytes have every cache line prefetched
/// before the search: a model's window fits (PGM's ε = 64 spans ~1 KB), a
/// whole-run fallback does not and is bisected as it comes.
const PREFETCH_MAX_BYTES: usize = 4096;

const LINE_BYTES: usize = 64;

/// The last-mile kernel every model-window search here ends in: the number
/// of leading elements of `window` for which `below` holds. As for
/// [`slice::partition_point`], `below` must hold on a prefix of the window
/// and nowhere after it: `|k| k < key` gives the lower bound of `key`,
/// `|k| k <= key` one past the last element `<= key`.
///
/// A model's window sits wherever the key predicts, so it is usually cold:
/// the kernel first prefetches every line of a window of up to 4 KB, so
/// that the bisection's dependent loads cost about one miss instead of one
/// per step. The bisection is `partition_point`'s, which compiles to a
/// conditional move per step, no branch.
#[inline]
fn last_mile<T>(window: &[T], below: impl FnMut(&T) -> bool) -> usize {
    prefetch(window);
    window.partition_point(below)
}

/// Prefetches every cache line of `window`, unless it is longer than
/// [`PREFETCH_MAX_BYTES`]. A prefetch retires without waiting for its line,
/// so the lines arrive together while the search starts; one plain load
/// per line instead measured slower than no prefetch at all.
#[inline]
fn prefetch<T>(window: &[T]) {
    let bytes = core::mem::size_of_val(window);
    if bytes > PREFETCH_MAX_BYTES {
        return;
    }
    // Addresses a line apart from the first byte touch consecutive lines;
    // the last byte adds the line the stride may step over.
    let first = window.as_ptr().cast::<u8>();
    for offset in (0..bytes).step_by(LINE_BYTES).chain(bytes.checked_sub(1)) {
        prefetch_line(first.wrapping_add(offset));
    }
}

#[inline(always)]
fn prefetch_line(at: *const u8) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: a prefetch is only a hint: it never faults and reads nothing
    // into the program, whatever the address (`at` lies in a live slice
    // anyway). SSE, its only target feature, is part of the x86_64 baseline.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(at.cast());
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = at;
}

/// `predicted ± err`, clipped to `0..len`.
#[inline]
fn window(len: usize, predicted: usize, err: usize) -> Range<usize> {
    let hi = predicted.saturating_add(err).saturating_add(1).min(len);
    predicted.saturating_sub(err).min(hi)..hi
}

/// Returns the index of the first element `>= key` in the sorted slice
/// (classic lower bound). Returns `keys.len()` if all elements are smaller.
/// Not prefetched: a whole run is either too long for it or, like an insert
/// buffer, hot, where prefetching every line only costs.
#[inline]
pub fn lower_bound(keys: &[Key], key: Key) -> usize {
    keys.partition_point(|&k| k < key)
}

/// Lower bound over `(key, value)` pairs.
#[inline]
pub fn lower_bound_kv(data: &[KeyValue], key: Key) -> usize {
    data.partition_point(|kv| kv.0 < key)
}

/// Bounded binary search: looks for `key` within
/// `[predicted.saturating_sub(err), min(len, predicted + err + 1))` of the
/// sorted slice, the correction step every bounded-error learned index
/// performs (§II).
///
/// Returns the position of the first element `>= key` inside the window.
/// The caller must guarantee the window actually contains that position
/// (true whenever `err` is the approximation's max error).
#[inline]
pub fn bounded_lower_bound(keys: &[Key], key: Key, predicted: usize, err: usize) -> usize {
    let w = window(keys.len(), predicted, err);
    w.start + last_mile(&keys[w], |&k| k < key)
}

/// Bounded "last element <= key" search: like [`bounded_lower_bound`] but
/// returns the index of the last element `<= key` (0 if every element in
/// the window exceeds `key`). Avoids the `key + 1` overflow trick that
/// breaks at `u64::MAX`. The caller must guarantee the window brackets the
/// answer.
#[inline]
pub fn bounded_last_le(keys: &[Key], key: Key, predicted: usize, err: usize) -> usize {
    let w = window(keys.len(), predicted, err);
    (w.start + last_mile(&keys[w], |&k| k <= key)).saturating_sub(1)
}

/// Widening "last element `<= key`" search for a model whose error bound
/// does not cover the probed key (foreign query keys, leaves shifted since
/// training): checks that `predicted ± err` brackets `key`, doubling `err`
/// until it does, with one full search once the window spans the run.
/// Generic over how an element yields its key, so key arrays and pair
/// arrays share it. `None` when `key` precedes the whole run.
#[inline]
pub fn widening_last_le<T>(
    run: &[T],
    key_of: impl Fn(&T) -> Key,
    key: Key,
    predicted: usize,
    mut err: usize,
) -> Option<usize> {
    let n = run.len();
    let le = |t: &T| key_of(t) <= key;
    while err < n {
        let hi = predicted.saturating_add(err).min(n - 1);
        let lo = predicted.saturating_sub(err).min(hi);
        let w = &run[lo..=hi];
        // Prefetched before the bracket check, whose two loads then miss
        // together with the search's.
        prefetch(w);
        if (lo == 0 || le(&run[lo])) && (hi == n - 1 || !le(&run[hi])) {
            return (lo + w.partition_point(le)).checked_sub(1);
        }
        err = err.saturating_mul(2).max(2);
    }
    last_mile(run, le).checked_sub(1)
}

/// Exponential (galloping) search outward from `predicted`, used by ALEX
/// whose approximation has no max-error guarantee (§II-B3). Works on a
/// sorted slice; returns lower-bound position.
#[inline]
pub fn exponential_lower_bound(keys: &[Key], key: Key, predicted: usize) -> usize {
    let n = keys.len();
    if n == 0 {
        return 0;
    }
    let p = predicted.min(n - 1);
    if keys[p] == key {
        return p;
    }
    if keys[p] < key {
        // gallop right
        let mut step = 1usize;
        let mut lo = p;
        let mut hi = p;
        while hi < n && keys[hi] < key {
            lo = hi;
            hi = (hi + step).min(n);
            step <<= 1;
        }
        lo + lower_bound(&keys[lo..hi], key)
    } else {
        // gallop left
        let mut step = 1usize;
        let mut hi = p;
        let mut lo = p;
        while lo > 0 && keys[lo] >= key {
            hi = lo;
            lo = lo.saturating_sub(step);
            step <<= 1;
        }
        lo + lower_bound(&keys[lo..=hi.min(n - 1)], key)
    }
}

/// Interpolation search over a sorted slice (mentioned in §VI-A as one of
/// the in-leaf search options). Falls back to binary search when the key
/// range degenerates. Returns lower-bound position.
pub fn interpolation_lower_bound(keys: &[Key], key: Key) -> usize {
    let mut lo = 0usize;
    let mut hi = keys.len();
    // Limit interpolation probes to avoid pathological behaviour on skewed
    // data, then fall back to binary search on the remaining window.
    let mut probes = 0;
    while lo < hi && probes < 16 {
        let k_lo = keys[lo];
        let k_hi = keys[hi - 1];
        if key <= k_lo {
            // keys[lo] >= key, so lo is the lower bound.
            return lo;
        }
        if key > k_hi {
            return hi;
        }
        if k_hi == k_lo {
            break;
        }
        let span = (hi - lo - 1) as u128;
        let off = ((key - k_lo) as u128 * span / (k_hi - k_lo) as u128) as usize;
        let mid = lo + off;
        if keys[mid] < key {
            lo = mid + 1;
        } else {
            // keys[mid] >= key, so the answer is at most mid; mid < hi
            // always holds, guaranteeing progress.
            hi = mid;
        }
        probes += 1;
    }
    lo + lower_bound(&keys[lo..hi], key)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> Vec<Key> {
        vec![2, 4, 8, 16, 23, 42, 99, 100, 105, 1000]
    }

    #[test]
    fn lower_bound_matches_std() {
        let ks = keys();
        for probe in 0..1100u64 {
            let expect = ks.partition_point(|&k| k < probe);
            assert_eq!(lower_bound(&ks, probe), expect, "probe {probe}");
        }
    }

    #[test]
    fn lower_bound_empty() {
        assert_eq!(lower_bound(&[], 5), 0);
    }

    #[test]
    fn bounded_matches_when_window_covers() {
        let ks = keys();
        for (true_pos, &k) in ks.iter().enumerate() {
            for pred in 0..ks.len() {
                let err = true_pos.abs_diff(pred);
                assert_eq!(
                    bounded_lower_bound(&ks, k, pred, err),
                    true_pos,
                    "key {k} pred {pred} err {err}"
                );
            }
        }
    }

    #[test]
    fn exponential_matches_std() {
        let ks = keys();
        for probe in 0..1100u64 {
            let expect = ks.partition_point(|&k| k < probe);
            for pred in 0..ks.len() {
                assert_eq!(
                    exponential_lower_bound(&ks, probe, pred),
                    expect,
                    "probe {probe} pred {pred}"
                );
            }
        }
    }

    #[test]
    fn exponential_empty() {
        assert_eq!(exponential_lower_bound(&[], 1, 0), 0);
    }

    #[test]
    fn interpolation_matches_std() {
        let ks = keys();
        for probe in 0..1100u64 {
            let expect = ks.partition_point(|&k| k < probe);
            assert_eq!(interpolation_lower_bound(&ks, probe), expect, "probe {probe}");
        }
    }

    #[test]
    fn interpolation_uniform_large() {
        let ks: Vec<Key> = (0..10_000).map(|i| i * 7 + 3).collect();
        for probe in (0..70_000).step_by(13) {
            let expect = ks.partition_point(|&k| k < probe);
            assert_eq!(interpolation_lower_bound(&ks, probe), expect);
        }
    }

    #[test]
    fn bounded_last_le_matches() {
        let ks = keys();
        for probe in 0..1100u64 {
            let expect = ks.partition_point(|&k| k <= probe).saturating_sub(1);
            // Full-window call is always bracketed.
            assert_eq!(bounded_last_le(&ks, probe, 5, ks.len()), expect, "probe {probe}");
        }
        // u64::MAX present and queried.
        let ks2 = vec![1u64, 5, u64::MAX];
        assert_eq!(bounded_last_le(&ks2, u64::MAX, 1, 3), 2);
        assert_eq!(bounded_last_le(&ks2, 0, 1, 3), 0);
    }

    #[test]
    fn lower_bound_kv_matches() {
        let data: Vec<KeyValue> = keys().into_iter().map(|k| (k, k * 2)).collect();
        for probe in 0..1100u64 {
            let expect = data.partition_point(|kv| kv.0 < probe);
            assert_eq!(lower_bound_kv(&data, probe), expect);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngExt};

    /// Keys from the whole domain: both ends, a dense low band, a dense
    /// band under `u64::MAX`, and anywhere.
    struct DomainKey;

    impl Strategy for DomainKey {
        type Value = Key;
        fn generate(&self, rng: &mut StdRng) -> Key {
            match rng.random_range(0..5u8) {
                0 => 0,
                1 => u64::MAX,
                2 => rng.random_range(0..10_000u64),
                3 => u64::MAX - rng.random_range(0..10_000u64),
                _ => rng.random(),
            }
        }
    }

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        #[test]
        fn all_searches_agree_with_partition_point(
            mut keys in proptest::collection::vec(DomainKey, 0..700),
            probe in DomainKey,
            pred in 0usize..700,
        ) {
            keys.sort_unstable();
            keys.dedup();
            let n = keys.len();
            let pairs: Vec<KeyValue> = keys.iter().map(|&k| (k, !k)).collect();
            let expect = keys.partition_point(|&k| k < probe);
            let past_le = keys.partition_point(|&k| k <= probe);
            prop_assert_eq!(lower_bound(&keys, probe), expect);
            prop_assert_eq!(lower_bound_kv(&pairs, probe), expect);
            prop_assert_eq!(interpolation_lower_bound(&keys, probe), expect);
            // The kernel on windows either side of the 4 KB prefetch cap
            // (512 keys, 256 pairs), through both accessors and both
            // comparisons.
            let from = pred.min(n);
            for len in [0, 1, 2, 7, 64, 255, 256, 257, 511, 512, 513, n] {
                let w = from..(from + len).min(n);
                let lt = keys[w.clone()].partition_point(|&k| k < probe);
                let le = keys[w.clone()].partition_point(|&k| k <= probe);
                prop_assert_eq!(last_mile(&keys[w.clone()], |&k| k < probe), lt);
                prop_assert_eq!(last_mile(&pairs[w.clone()], |kv| kv.0 < probe), lt);
                prop_assert_eq!(last_mile(&keys[w.clone()], |&k| k <= probe), le);
                prop_assert_eq!(last_mile(&pairs[w], |kv| kv.0 <= probe), le);
            }
            // Bounded searches on every window that brackets the answer:
            // `err = 0`, windows below and above the prefetch cap, and
            // windows clipped at either end or both.
            for err in [0, 1, 2, 7, 64, 255, 256, n] {
                for p in [pred, 0, n.saturating_sub(1), n, expect, past_le, expect.saturating_sub(err + 1)] {
                    // The documented window: `p - err ..= p + err`, clipped.
                    let (lo, hi) = (p.saturating_sub(err).min(n), (p + err + 1).min(n));
                    if lo <= expect && expect <= hi {
                        prop_assert_eq!(bounded_lower_bound(&keys, probe, p, err), expect);
                    }
                    if lo <= past_le && past_le <= hi {
                        prop_assert_eq!(bounded_last_le(&keys, probe, p, err), past_le.saturating_sub(1));
                    }
                }
            }
            // Any prediction and any starting error, including 0 and windows
            // that miss the key entirely, over both element shapes.
            let le = past_le.checked_sub(1);
            for err in [0, 1, 2, 7, 64, n] {
                prop_assert_eq!(widening_last_le(&keys, |&k| k, probe, pred, err), le);
                prop_assert_eq!(widening_last_le(&pairs, |kv| kv.0, probe, pred, err), le);
            }
            if n > 0 {
                prop_assert_eq!(exponential_lower_bound(&keys, probe, pred % n), expect);
            }
        }

        #[test]
        fn bounded_search_correct_within_true_error(
            mut keys in proptest::collection::vec(0u64..100_000, 2..400),
            idx in 0usize..400,
            err_extra in 0usize..8,
        ) {
            keys.sort_unstable();
            keys.dedup();
            let i = idx % keys.len();
            let probe = keys[i];
            // Any window that brackets the true position must find it.
            for pred in [i.saturating_sub(err_extra), (i + err_extra).min(keys.len() - 1)] {
                let err = i.abs_diff(pred);
                prop_assert_eq!(bounded_lower_bound(&keys, probe, pred, err), i);
            }
        }
    }
}
