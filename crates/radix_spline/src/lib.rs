//! # li-rs — RadixSpline (Kipf et al., aiDM'20; §II-A2)
//!
//! A single-pass, error-bounded learned index: a greedy spline corridor
//! over the CDF produces spline points such that linear interpolation
//! between consecutive points predicts any *stored* key's position within
//! ±ε; an `r`-bit radix table over key prefixes narrows the binary search
//! for the surrounding spline segment to a handful of candidates.
//!
//! Read-only (Table I). The fixed `r`-bit prefix table is exactly what
//! collapses on FACE-like skew (Fig. 11): when 99% of keys share their top
//! bits, most radix cells are empty and one giant cell covers almost every
//! spline point, degenerating the segment search.

#![forbid(unsafe_code)]

use li_core::search::widening_last_le;
use li_core::traits::{BulkBuildIndex, DepthStats, Index, OrderedIndex, TwoPhaseLookup};
use li_core::{Key, KeyValue, Value};

/// Build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RsConfig {
    /// Number of radix bits (the paper found 18 best for their setup).
    pub radix_bits: u32,
    /// Spline error bound on positions.
    pub epsilon: u64,
}

impl Default for RsConfig {
    fn default() -> Self {
        RsConfig { radix_bits: 18, epsilon: 32 }
    }
}

/// One spline point: `(key, position)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SplinePoint {
    key: Key,
    pos: u64,
}

/// The RadixSpline index.
pub struct RadixSpline {
    data: Vec<KeyValue>,
    spline: Vec<SplinePoint>,
    /// radix[p] = index of the first spline point whose shifted prefix is
    /// >= p; length 2^radix_bits + 1.
    radix: Vec<u32>,
    /// Right shift applied to `key - min_key` to obtain its radix cell.
    shift: u32,
    min_key: Key,
    /// Measured max |interpolated − actual| over stored keys. The greedy
    /// corridor guarantees ~2ε for the chord between knots; measuring makes
    /// the search window exact regardless.
    max_err: u64,
}

impl RadixSpline {
    pub fn build_with(config: RsConfig, data: &[KeyValue]) -> Self {
        let min_key = data.first().map_or(0, |kv| kv.0);
        let spline = Self::build_spline(data, config.epsilon);
        let shift = 64 - config.radix_bits;
        let cells = 1usize << config.radix_bits;

        // Radix table over (key - min_key) prefixes, as RS does after
        // removing the common prefix.
        let mut radix = vec![0u32; cells + 1];
        {
            let mut cell = 0usize;
            for (i, sp) in spline.iter().enumerate() {
                let p = ((sp.key - min_key) >> shift) as usize;
                while cell <= p {
                    radix[cell] = i as u32;
                    cell += 1;
                }
            }
            while cell <= cells {
                radix[cell] = spline.len() as u32;
                cell += 1;
            }
        }

        let mut rs = RadixSpline { data: data.to_vec(), spline, radix, shift, min_key, max_err: 0 };
        // Measure the true interpolation error with the exact lookup code
        // path, so bounded search windows are always correct.
        let mut max = 0u64;
        for (i, kv) in rs.data.iter().enumerate() {
            max = max.max(rs.predict(kv.0).abs_diff(i) as u64);
        }
        rs.max_err = max;
        rs
    }

    /// Greedy spline corridor (one-pass): keep extending the current
    /// segment while a line from the last spline point can pass within ±ε
    /// of every intermediate point; emit a new spline point otherwise.
    fn build_spline(data: &[KeyValue], epsilon: u64) -> Vec<SplinePoint> {
        let n = data.len();
        let mut spline = Vec::new();
        if n == 0 {
            return spline;
        }
        let eps = epsilon.max(1) as f64;
        spline.push(SplinePoint { key: data[0].0, pos: 0 });
        if n == 1 {
            return spline;
        }
        let mut base = SplinePoint { key: data[0].0, pos: 0 };
        let mut slope_lo = f64::NEG_INFINITY;
        let mut slope_hi = f64::INFINITY;
        let mut prev = base;
        for (i, &(k, _)) in data.iter().enumerate().skip(1) {
            let dx = (k - base.key) as f64;
            let dy = i as f64 - base.pos as f64;
            let lo = (dy - eps) / dx;
            let hi = (dy + eps) / dx;
            if slope_lo.max(lo) > slope_hi.min(hi) {
                // Corridor collapsed: previous point becomes a spline
                // point and the corridor restarts from it.
                spline.push(prev);
                base = prev;
                let dx = (k - base.key) as f64;
                let dy = i as f64 - base.pos as f64;
                slope_lo = (dy - eps) / dx;
                slope_hi = (dy + eps) / dx;
            } else {
                slope_lo = slope_lo.max(lo);
                slope_hi = slope_hi.min(hi);
            }
            prev = SplinePoint { key: k, pos: i as u64 };
        }
        // Final point anchors the last segment.
        let last = SplinePoint { key: data[n - 1].0, pos: (n - 1) as u64 };
        if spline.last() != Some(&last) {
            spline.push(last);
        }
        spline
    }

    /// Index of the spline segment `[spline[i], spline[i+1]]` containing
    /// `key` (clamped to valid segments).
    #[inline]
    fn segment_of(&self, key: Key) -> usize {
        let k = key.max(self.min_key);
        let cell = ((k - self.min_key) >> self.shift) as usize;
        let cell = cell.min(self.radix.len() - 2);
        let lo = self.radix[cell] as usize;
        let hi = (self.radix[cell + 1] as usize + 1).min(self.spline.len());
        // Binary search within the cell for the first spline point with
        // key > target; the containing segment starts one before it. The
        // cell may not bracket foreign keys, so clamp into valid range.
        let cell_points = &self.spline[lo.min(hi)..hi];
        let idx = lo + cell_points.partition_point(|sp| sp.key <= key);
        idx.saturating_sub(1).min(self.spline.len().saturating_sub(2))
    }

    /// Predicted position by interpolating the containing segment.
    #[inline]
    fn predict(&self, key: Key) -> usize {
        if self.spline.len() < 2 {
            return 0;
        }
        let s = self.segment_of(key);
        let a = self.spline[s];
        let b = self.spline[s + 1];
        if key <= a.key {
            return a.pos as usize;
        }
        if key >= b.key {
            return b.pos as usize;
        }
        let frac = (key - a.key) as f64 / (b.key - a.key) as f64;
        (a.pos as f64 + frac * (b.pos - a.pos) as f64) as usize
    }

    /// Number of spline points (diagnostics).
    pub fn spline_points(&self) -> usize {
        self.spline.len()
    }

    /// Position of the last stored key `<= key`, `None` when `key`
    /// precedes them all. `max_err` covers stored keys; the widening
    /// covers a foreign key whose prediction it does not.
    #[inline]
    fn last_le(&self, key: Key) -> Option<usize> {
        widening_last_le(&self.data, |kv| kv.0, key, self.predict(key), self.max_err as usize + 1)
    }
}

impl Index for RadixSpline {
    fn name(&self) -> &'static str {
        "RS"
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn get(&self, key: Key) -> Option<Value> {
        let (k, v) = self.data[self.last_le(key)?];
        (k == key).then_some(v)
    }

    fn index_size_bytes(&self) -> usize {
        self.spline.len() * core::mem::size_of::<SplinePoint>()
            + self.radix.len() * core::mem::size_of::<u32>()
    }

    fn data_size_bytes(&self) -> usize {
        self.data.len() * core::mem::size_of::<KeyValue>()
    }

    fn depth_stats(&self) -> Option<&dyn DepthStats> {
        Some(self)
    }
}

impl OrderedIndex for RadixSpline {
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<KeyValue>) {
        if lo > hi {
            return;
        }
        let mut i = self.last_le(lo).map_or(0, |i| i + usize::from(self.data[i].0 < lo));
        while let Some(&(k, v)) = self.data.get(i) {
            if k > hi {
                break;
            }
            out.push((k, v));
            i += 1;
        }
    }
}

impl BulkBuildIndex for RadixSpline {
    fn build(data: &[KeyValue]) -> Self {
        Self::build_with(RsConfig::default(), data)
    }
}

impl DepthStats for RadixSpline {
    fn avg_depth(&self) -> f64 {
        // Radix table hop + spline segment = 2 conceptual levels.
        2.0
    }

    fn leaf_count(&self) -> usize {
        self.spline.len().saturating_sub(1)
    }
}

impl TwoPhaseLookup for RadixSpline {
    fn locate_leaf(&self, key: Key) -> usize {
        self.segment_of(key)
    }

    fn search_leaf(&self, _leaf: usize, key: Key) -> Option<Value> {
        self.get(key)
    }
}

/// How many spline points the radix cell for `key` forces the segment
/// search to consider. Fig. 11's FACE collapse is directly visible through
/// this counter.
pub fn radix_cell_width(rs: &RadixSpline, key: Key) -> usize {
    let k = key.max(rs.min_key);
    let cell = (((k - rs.min_key) >> rs.shift) as usize).min(rs.radix.len() - 2);
    (rs.radix[cell + 1] - rs.radix[cell]) as usize
}

/// Largest |predicted − actual| over all stored keys (test/diagnostic).
pub fn spline_max_error(rs: &RadixSpline) -> u64 {
    let mut max = 0u64;
    for (i, kv) in rs.data.iter().enumerate() {
        let p = rs.predict(kv.0);
        max = max.max(p.abs_diff(i) as u64);
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn dataset(n: usize, seed: u64, shift: u32) -> Vec<KeyValue> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys: Vec<Key> =
            (0..n * 11 / 10 + 8).map(|_| rng.random::<u64>() >> shift).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.truncate(n);
        keys.into_iter().enumerate().map(|(i, k)| (k, i as u64)).collect()
    }

    #[test]
    fn build_and_get_all() {
        let data = dataset(100_000, 1, 0);
        let rs = RadixSpline::build(&data);
        for &(k, v) in data.iter().step_by(41) {
            assert_eq!(rs.get(k), Some(v), "key {k}");
        }
    }

    #[test]
    fn spline_error_bounded() {
        let data = dataset(50_000, 2, 8);
        for eps in [4u64, 32, 256] {
            let rs = RadixSpline::build_with(RsConfig { radix_bits: 16, epsilon: eps }, &data);
            let max = spline_max_error(&rs);
            // The greedy corridor bounds the chord error by ~2ε.
            assert!(max <= 2 * eps + 2, "eps {eps}: max error {max}");
        }
    }

    #[test]
    fn fewer_points_with_larger_epsilon() {
        let data = dataset(50_000, 3, 4);
        let fine = RadixSpline::build_with(RsConfig { radix_bits: 16, epsilon: 4 }, &data);
        let coarse = RadixSpline::build_with(RsConfig { radix_bits: 16, epsilon: 256 }, &data);
        assert!(coarse.spline_points() < fine.spline_points());
    }

    #[test]
    fn misses_return_none() {
        let data: Vec<KeyValue> = (0..30_000u64).map(|i| (i * 6 + 3, i)).collect();
        let rs = RadixSpline::build(&data);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20_000 {
            let k: Key = rng.random::<u64>() % 200_000;
            let expect = data.binary_search_by_key(&k, |kv| kv.0).ok().map(|i| data[i].1);
            assert_eq!(rs.get(k), expect, "key {k}");
        }
    }

    #[test]
    fn face_like_skew_inflates_cell_width() {
        // 99% of keys below 2^50 with a *lumpy* CDF (exponentially varying
        // gaps force many spline knots), a few keys near the top: the
        // default radix bits cram almost all knots into a handful of cells.
        let mut rng = StdRng::seed_from_u64(77);
        let mut acc = 0u64;
        let mut keys: Vec<Key> = (0..50_000u64)
            .map(|_| {
                acc += 1u64 << rng.random_range(0..26u32);
                acc
            })
            .collect();
        keys.extend((0..50u64).map(|i| (1 << 60) + i * (1 << 40)));
        keys.sort_unstable();
        keys.dedup();
        let data: Vec<KeyValue> = keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
        let rs = RadixSpline::build(&data);
        // Lookups still correct...
        for &(k, v) in data.iter().step_by(379) {
            assert_eq!(rs.get(k), Some(v));
        }
        // ...but the bulk cell is enormous compared to a uniform dataset.
        let skew_width: usize =
            (0..100).map(|i| radix_cell_width(&rs, data[i * 499].0)).max().unwrap();
        let uniform = dataset(50_000, 9, 0);
        let rs_u = RadixSpline::build(&uniform);
        let uni_width: usize =
            (0..100).map(|i| radix_cell_width(&rs_u, uniform[i * 499].0)).max().unwrap();
        assert!(skew_width > uni_width.max(1) * 20, "skew {skew_width} vs uniform {uni_width}");
    }

    #[test]
    fn range_scan() {
        let data: Vec<KeyValue> = (0..20_000u64).map(|i| (i * 3, i)).collect();
        let rs = RadixSpline::build(&data);
        assert_eq!(
            rs.range_vec(10, 31),
            vec![(12, 4), (15, 5), (18, 6), (21, 7), (24, 8), (27, 9), (30, 10)]
        );
        assert!(rs.range_vec(70_000, u64::MAX).is_empty());
    }

    #[test]
    fn empty_single_dual() {
        let rs = RadixSpline::build(&[]);
        assert_eq!(rs.get(1), None);
        let rs = RadixSpline::build(&[(5, 1)]);
        assert_eq!(rs.get(5), Some(1));
        assert_eq!(rs.get(6), None);
        let rs = RadixSpline::build(&[(5, 1), (9, 2)]);
        assert_eq!(rs.get(9), Some(2));
        assert_eq!(rs.get(7), None);
    }

    #[test]
    fn sequential_dense_keys() {
        let data: Vec<KeyValue> = (0..100_000u64).map(|i| (i, i * 2)).collect();
        let rs = RadixSpline::build(&data);
        // Perfectly linear: very few spline points.
        assert!(rs.spline_points() < 10, "{} points", rs.spline_points());
        for &(k, v) in data.iter().step_by(9_973) {
            assert_eq!(rs.get(k), Some(v));
        }
    }

    #[test]
    fn keys_below_min_and_above_max() {
        let data: Vec<KeyValue> = (100..200u64).map(|k| (k * 100, k)).collect();
        let rs = RadixSpline::build(&data);
        assert_eq!(rs.get(0), None);
        assert_eq!(rs.get(5_000), None);
        assert_eq!(rs.get(u64::MAX), None);
        assert_eq!(rs.get(10_000), Some(100));
        assert_eq!(rs.get(19_900), Some(199));
    }
}
