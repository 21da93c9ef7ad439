//! # li-rmi — Recursive Model Index (Kraska et al., 2018; §II-A1)
//!
//! A two-stage RMI: a root linear model dispatches each key to one of `m`
//! second-stage linear models, whose prediction (corrected by a bounded
//! binary search using the per-model error measured at build time) gives
//! the key's position in the sorted array.
//!
//! Like the original, this index is **read-only** (Table I): it implements
//! bulk build and lookups but no insertion. Per-model errors are unbounded
//! a priori — the source of RMI's high tail latency in Fig. 10.

#![forbid(unsafe_code)]

use li_core::model::CubicModel;
use li_core::search::{lower_bound_kv, widening_last_le};
use li_core::traits::{BulkBuildIndex, DepthStats, Index, OrderedIndex, TwoPhaseLookup};
use li_core::{Key, KeyValue, LinearModel, Value};

/// Second-stage model family. The original RMI mixes model classes per
/// stage (§II-A1); cubic second stages realise §V-A's "nonlinear models"
/// suggestion — one cubic can replace several linear models on curved CDF
/// regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecondStage {
    Linear,
    Cubic,
}

/// Build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RmiConfig {
    /// Average keys per second-stage model. The paper tunes per-index
    /// hyperparameters for best performance (§III-A1); 2048 is a good
    /// default for in-memory integer keys.
    pub keys_per_model: usize,
    /// Model family of the second stage.
    pub second_stage: SecondStage,
}

impl Default for RmiConfig {
    fn default() -> Self {
        RmiConfig { keys_per_model: 2048, second_stage: SecondStage::Linear }
    }
}

/// A second-stage model of either family.
enum StageModel {
    Linear(LinearModel),
    Cubic(CubicModel),
}

impl StageModel {
    #[inline]
    fn predict_clamped(&self, key: Key, n: usize) -> usize {
        match self {
            StageModel::Linear(m) => m.predict_clamped(key, n),
            StageModel::Cubic(m) => m.predict_clamped(key, n),
        }
    }
}

struct StageTwo {
    model: StageModel,
    /// Max |prediction − position| over the training keys of this model.
    err: u32,
    /// Position range [start, end) this model's keys occupy — predictions
    /// are clamped into it, bounding worst-case search even for foreign
    /// query keys.
    start: u32,
    end: u32,
}

/// The two-stage RMI.
pub struct Rmi {
    data: Vec<KeyValue>,
    root: LinearModel,
    second: Vec<StageTwo>,
}

impl Rmi {
    /// Builds with explicit configuration.
    pub fn build_with(config: RmiConfig, data: &[KeyValue]) -> Self {
        let n = data.len();
        let m = n.div_ceil(config.keys_per_model).max(1);
        let keys: Vec<Key> = data.iter().map(|kv| kv.0).collect();
        let dense = LinearModel::fit_least_squares(&keys);
        let root = if n == 0 { dense } else { dense.scaled(m as f64 / n as f64) };

        // Top-down training: route every key through the root, then fit
        // each second-stage model on the keys it received.
        let mut boundaries = vec![0usize; m + 1];
        {
            let mut b = 0usize;
            for (i, &k) in keys.iter().enumerate() {
                let target = root.predict_clamped(k, m);
                while b < target {
                    b += 1;
                    boundaries[b] = i;
                }
            }
            while b < m {
                b += 1;
                boundaries[b] = n;
            }
            boundaries[m] = n;
        }

        let second = (0..m)
            .map(|j| {
                let (start, end) = (boundaries[j], boundaries[j + 1]);
                if start == end {
                    return StageTwo {
                        model: StageModel::Linear(LinearModel::constant(start as f64)),
                        err: 0,
                        start: start as u32,
                        end: end.max(start + 1).min(n) as u32,
                    };
                }
                let chunk = &keys[start..end];
                let model = match config.second_stage {
                    SecondStage::Linear => {
                        let local = LinearModel::fit_least_squares(chunk);
                        StageModel::Linear(local.shifted(start as f64))
                    }
                    SecondStage::Cubic => {
                        let mut local = CubicModel::fit(chunk);
                        local.d += start as f64;
                        StageModel::Cubic(local)
                    }
                };
                let mut err = 0usize;
                for (i, &k) in chunk.iter().enumerate() {
                    let p = model.predict_clamped(k, n);
                    err = err.max(p.abs_diff(start + i));
                }
                StageTwo { model, err: err as u32, start: start as u32, end: end as u32 }
            })
            .collect();

        Rmi { data: data.to_vec(), root, second }
    }

    /// Position of the last stored key `<= key`, `None` when `key`
    /// precedes them all. The stage-two model's error covers its own keys
    /// only; a foreign key routed to a neighbouring model widens the window.
    #[inline]
    fn last_le(&self, key: Key) -> Option<usize> {
        let sm = &self.second[self.root.predict_clamped(key, self.second.len())];
        // Clamped into the model's span, so that a key in the gap before or
        // after it starts at the span's edge.
        let p = sm
            .model
            .predict_clamped(key, self.data.len())
            .max(sm.start as usize)
            .min((sm.end as usize).saturating_sub(1));
        widening_last_le(&self.data, |kv| kv.0, key, p, sm.err as usize + 1)
    }

    /// Models in the second stage (diagnostics / Table II).
    pub fn model_count(&self) -> usize {
        self.second.len()
    }
}

impl Index for Rmi {
    fn name(&self) -> &'static str {
        "RMI"
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn get(&self, key: Key) -> Option<Value> {
        let (k, v) = self.data[self.last_le(key)?];
        (k == key).then_some(v)
    }

    fn index_size_bytes(&self) -> usize {
        core::mem::size_of::<LinearModel>() + self.second.len() * core::mem::size_of::<StageTwo>()
    }

    fn data_size_bytes(&self) -> usize {
        self.data.len() * core::mem::size_of::<KeyValue>()
    }

    fn depth_stats(&self) -> Option<&dyn DepthStats> {
        Some(self)
    }
}

impl OrderedIndex for Rmi {
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

impl BulkBuildIndex for Rmi {
    fn build(data: &[KeyValue]) -> Self {
        Self::build_with(RmiConfig::default(), data)
    }
}

impl DepthStats for Rmi {
    fn avg_depth(&self) -> f64 {
        2.0
    }

    fn leaf_count(&self) -> usize {
        self.second.len()
    }
}

impl TwoPhaseLookup for Rmi {
    fn locate_leaf(&self, key: Key) -> usize {
        self.root.predict_clamped(key, self.second.len())
    }

    fn search_leaf(&self, leaf: usize, key: Key) -> Option<Value> {
        let sm = &self.second[leaf];
        let window = &self.data[sm.start as usize..sm.end as usize];
        let i = lower_bound_kv(window, key);
        match window.get(i) {
            Some(&(k, v)) if k == key => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn dataset(n: usize, seed: u64) -> Vec<KeyValue> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys: Vec<Key> = (0..n * 11 / 10 + 8).map(|_| rng.random()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.truncate(n);
        keys.into_iter().enumerate().map(|(i, k)| (k, i as u64)).collect()
    }

    #[test]
    fn build_and_get_all() {
        let data = dataset(100_000, 1);
        let rmi = Rmi::build(&data);
        assert_eq!(rmi.len(), data.len());
        for &(k, v) in data.iter().step_by(37) {
            assert_eq!(rmi.get(k), Some(v), "key {k}");
        }
    }

    #[test]
    fn misses_return_none() {
        let data: Vec<KeyValue> = (0..50_000u64).map(|i| (i * 4 + 2, i)).collect();
        let rmi = Rmi::build(&data);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20_000 {
            let k: Key = rng.random();
            let expect = data.binary_search_by_key(&k, |kv| kv.0).ok().map(|i| data[i].1);
            assert_eq!(rmi.get(k), expect, "key {k}");
        }
        assert_eq!(rmi.get(0), None);
        assert_eq!(rmi.get(u64::MAX), None);
    }

    #[test]
    fn skewed_keys() {
        // FACE-like: two extreme clusters.
        let mut keys: Vec<Key> = (0..30_000u64).map(|i| i * 3).collect();
        keys.extend((0..300u64).map(|i| u64::MAX - 100_000 + i * 17));
        let data: Vec<KeyValue> = keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
        let rmi = Rmi::build(&data);
        for &(k, v) in data.iter().step_by(53) {
            assert_eq!(rmi.get(k), Some(v));
        }
    }

    #[test]
    fn range_scan() {
        let data: Vec<KeyValue> = (0..20_000u64).map(|i| (i * 5, i)).collect();
        let rmi = Rmi::build(&data);
        let got = rmi.range_vec(103, 151);
        let expect: Vec<KeyValue> =
            data.iter().copied().filter(|kv| kv.0 >= 103 && kv.0 <= 151).collect();
        assert_eq!(got, expect);
        assert_eq!(rmi.range_vec(0, 20).len(), 5);
        assert!(rmi.range_vec(99_999_999, u64::MAX).is_empty());
    }

    #[test]
    fn empty_and_tiny() {
        let rmi = Rmi::build(&[]);
        assert_eq!(rmi.get(5), None);
        assert!(rmi.is_empty());
        let rmi = Rmi::build(&[(9, 90)]);
        assert_eq!(rmi.get(9), Some(90));
        assert_eq!(rmi.get(8), None);
    }

    #[test]
    fn small_models_lower_error() {
        let data = dataset(100_000, 3);
        let coarse =
            Rmi::build_with(RmiConfig { keys_per_model: 16_384, ..RmiConfig::default() }, &data);
        let fine =
            Rmi::build_with(RmiConfig { keys_per_model: 256, ..RmiConfig::default() }, &data);
        assert!(fine.model_count() > coarse.model_count());
        let avg_err =
            |r: &Rmi| r.second.iter().map(|s| s.err as f64).sum::<f64>() / r.second.len() as f64;
        assert!(avg_err(&fine) < avg_err(&coarse));
        for &(k, v) in data.iter().step_by(997) {
            assert_eq!(fine.get(k), Some(v));
            assert_eq!(coarse.get(k), Some(v));
        }
    }

    #[test]
    fn cubic_second_stage_correct_and_tighter_on_curved_cdf() {
        // A curved CDF (rank ~ key^3): cubic second stages fit much
        // tighter than linear ones (§V-A's nonlinear-model suggestion).
        let mut keys: Vec<Key> =
            (0..80_000u64).map(|i| ((i as f64).powf(1.0 / 3.0) * 1e6) as u64 + i).collect();
        keys.dedup();
        let data: Vec<KeyValue> = keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
        let lin = Rmi::build_with(
            RmiConfig { keys_per_model: 8_192, second_stage: SecondStage::Linear },
            &data,
        );
        let cub = Rmi::build_with(
            RmiConfig { keys_per_model: 8_192, second_stage: SecondStage::Cubic },
            &data,
        );
        let avg_err =
            |r: &Rmi| r.second.iter().map(|s| s.err as f64).sum::<f64>() / r.second.len() as f64;
        assert!(
            avg_err(&cub) * 2.0 < avg_err(&lin),
            "cubic {} vs linear {}",
            avg_err(&cub),
            avg_err(&lin)
        );
        for &(k, v) in data.iter().step_by(997) {
            assert_eq!(cub.get(k), Some(v));
        }
        // Misses stay correct.
        assert_eq!(cub.get(1), None);
        assert_eq!(cub.get(u64::MAX), None);
    }

    #[test]
    fn two_phase_consistent() {
        let data = dataset(50_000, 4);
        let rmi = Rmi::build(&data);
        for &(k, v) in data.iter().step_by(211) {
            let leaf = rmi.locate_leaf(k);
            // The routed leaf holds the key for training keys.
            assert_eq!(rmi.search_leaf(leaf, k), Some(v));
        }
    }

    #[test]
    fn size_is_small() {
        let data = dataset(100_000, 5);
        let rmi = Rmi::build(&data);
        // Index structure must be orders of magnitude below the data.
        assert!(rmi.index_size_bytes() * 100 < rmi.data_size_bytes());
    }
}
