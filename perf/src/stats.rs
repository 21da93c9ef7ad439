//! Sample sets, the percentile-support rule and medians.
//!
//! Timings are kept as exact nanosecond samples, never bucketed: a
//! bucketed percentile would print the same digits on every run and hide
//! small shifts the regression bounds are meant to catch.

/// The percentiles the benchmark ever reports, ascending.
pub const LADDER: [f64; 4] = [0.50, 0.99, 0.999, 0.9999];

/// A percentile is supported by `n` samples when at least ten of them lie
/// beyond it (choosing-metrics §1).
pub fn supported(q: f64, n: usize) -> bool {
    (1.0 - q) * n as f64 >= 10.0 - 1e-9
}

/// Highest percentile of [`LADDER`] that `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&q| supported(q, n))
}

/// Nanosecond latency samples of one operation type.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u32>,
    sorted: bool,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples { ns: Vec::with_capacity(n), sorted: true }
    }

    /// Records one latency; anything above 4.29 s saturates.
    #[inline]
    pub fn push(&mut self, ns: u64) {
        self.ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    /// Nearest-rank quantile in nanoseconds; `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.ns.is_empty() {
            return None;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let rank = (q * self.ns.len() as f64).ceil() as usize;
        Some(f64::from(self.ns[rank.clamp(1, self.ns.len()) - 1]))
    }

    /// Quantile in microseconds, only when the sample count supports it.
    pub fn quantile_us(&mut self, q: f64) -> Option<f64> {
        if supported(q, self.ns.len()) {
            self.quantile(q).map(|ns| ns / 1e3)
        } else {
            None
        }
    }
}

/// Median of a set of per-round values (mean of the middle two when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { f64::midpoint(v[mid - 1], v[mid]) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_wants_ten_samples_beyond() {
        assert!(!supported(0.99, 999));
        assert!(supported(0.99, 1000));
        assert!(!supported(0.999, 9_999));
        assert!(supported(0.999, 10_000));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.50));
        assert_eq!(highest_supported(5_000), Some(0.99));
        assert_eq!(highest_supported(100_000), Some(0.9999));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let mut s = Samples::default();
        for v in (1..=100u64).rev() {
            s.push(v);
        }
        assert_eq!(s.quantile(0.50), Some(50.0));
        assert_eq!(s.quantile(0.99), Some(99.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        // 100 samples leave one beyond p99, not ten.
        assert_eq!(s.quantile_us(0.99), None);
        assert_eq!(s.quantile_us(0.50), Some(0.05));
    }

    #[test]
    fn push_saturates() {
        let mut s = Samples::default();
        s.push(u64::MAX);
        assert_eq!(s.quantile(0.5), Some(f64::from(u32::MAX)));
    }

    #[test]
    fn median_is_the_middle_or_the_mean_of_the_middle_two() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
