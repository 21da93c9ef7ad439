//! Seeded inputs shared by every workload, and the oracle of acknowledged
//! writes their outputs are checked against.
//!
//! Every value embeds `(key, writer, version)` and a filler byte derived
//! from them, so a read can be checked on its own: it must carry the key
//! asked for, at a version no older than the last one acknowledged.

use li_workloads::{generate_keys, Dataset};

/// SplitMix64: the harness's only random source, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; bias is below 2^-32 for our n).
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// The sorted key set every workload draws from. Every `period`-th key is
/// withheld from the bulk load as the pool inserts take from, so inserts
/// land throughout the key space. A key is named by its *slot*, its index
/// in `all`.
pub struct KeySet {
    pub all: Vec<u64>,
    period: usize,
}

impl KeySet {
    /// `n` OSM-like keys from `seed`.
    pub fn generate(n: usize, period: usize, seed: u64) -> Self {
        assert!(period >= 2);
        KeySet { all: generate_keys(Dataset::OsmLike, n, seed), period }
    }

    /// `n` keys, all of them loaded: no insert pool.
    pub fn all_loaded(n: usize, seed: u64) -> Self {
        KeySet::generate(n, usize::MAX, seed)
    }

    pub fn is_pool(&self, slot: usize) -> bool {
        slot % self.period == self.period - 1
    }

    pub fn pool_len(&self) -> usize {
        self.all.len() / self.period
    }

    pub fn loaded_len(&self) -> usize {
        self.all.len() - self.pool_len()
    }

    /// Slot of the `i`-th loaded key.
    #[inline]
    pub fn loaded_slot(&self, i: usize) -> usize {
        i + i / (self.period - 1)
    }

    /// Slot of the `j`-th pool key.
    #[inline]
    pub fn pool_slot(&self, j: usize) -> usize {
        j * self.period + self.period - 1
    }

    /// The keys that are bulk-loaded, ascending.
    pub fn loaded_keys(&self) -> Vec<u64> {
        (0..self.all.len()).filter(|&s| !self.is_pool(s)).map(|s| self.all[s]).collect()
    }
}

/// Bytes of the `(key, writer, version)` header of every value.
pub const VALUE_HEADER: usize = 16;

fn filler(key: u64, writer: u32, version: u32) -> u8 {
    let h = key ^ (u64::from(writer) << 32) ^ u64::from(version);
    (h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8
}

/// Writes the value `(key, writer, version)` over all of `buf`.
pub fn fill_value(buf: &mut [u8], key: u64, writer: u32, version: u32) {
    buf[..8].copy_from_slice(&key.to_le_bytes());
    buf[8..12].copy_from_slice(&writer.to_le_bytes());
    buf[12..16].copy_from_slice(&version.to_le_bytes());
    buf[VALUE_HEADER..].fill(filler(key, writer, version));
}

/// Decodes a value read back for `key`: `Some((writer, version))` when it
/// carries that key and an intact filler, `None` for anything else.
pub fn check_value(buf: &[u8], key: u64) -> Option<(u32, u32)> {
    if buf.len() < VALUE_HEADER || buf[..8] != key.to_le_bytes() {
        return None;
    }
    let writer = u32::from_le_bytes(buf[8..12].try_into().ok()?);
    let version = u32::from_le_bytes(buf[12..16].try_into().ok()?);
    let f = filler(key, writer, version);
    buf[VALUE_HEADER..].iter().all(|&b| b == f).then_some((writer, version))
}

/// What has been acknowledged, per slot of a [`KeySet`]: whether the key
/// is in the store and the newest acknowledged version of its value
/// (loaded values are version 0). One writer owns each key, so the newest
/// acknowledged version is also the only value a later read may return.
pub struct Oracle {
    present: Vec<bool>,
    version: Vec<u32>,
}

impl Oracle {
    /// All slots of `set`, with the loaded ones present.
    pub fn new(set: &KeySet) -> Self {
        Oracle {
            present: (0..set.all.len()).map(|s| !set.is_pool(s)).collect(),
            version: vec![0; set.all.len()],
        }
    }

    /// The version the next write of `slot` must carry.
    pub fn next_version(&self, slot: usize) -> u32 {
        if self.present[slot] {
            self.version[slot] + 1
        } else {
            0
        }
    }

    /// Records an acknowledged write of `slot` at `version`.
    pub fn ack(&mut self, slot: usize, version: u32) {
        self.present[slot] = true;
        self.version[slot] = version;
    }

    /// The version a read of `slot` must return, `None` if it is absent.
    pub fn expect(&self, slot: usize) -> Option<u32> {
        self.present[slot].then_some(self.version[slot])
    }

    pub fn live(&self) -> usize {
        self.present.iter().filter(|&&p| p).count()
    }

    /// Present slots with their versions, ascending by key.
    pub fn entries(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        (0..self.present.len()).filter(|&s| self.present[s]).map(|s| (s, self.version[s]))
    }

    /// The first `limit` present slots from `from` on, as a scan that
    /// starts at that slot's key returns them.
    pub fn scan(&self, from: usize, limit: usize) -> Vec<(usize, u32)> {
        (from..self.present.len())
            .filter(|&s| self.present[s])
            .take(limit)
            .map(|s| (s, self.version[s]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_reject_damage() {
        let mut buf = [0u8; 64];
        fill_value(&mut buf, 77, 3, 9);
        assert_eq!(check_value(&buf, 77), Some((3, 9)));
        assert_eq!(check_value(&buf, 78), None);
        buf[40] ^= 1;
        assert_eq!(check_value(&buf, 77), None);
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = KeySet::generate(1000, 5, 11);
        let b = KeySet::generate(1000, 5, 11);
        assert_eq!(a.all, b.all);
        assert_ne!(a.all, KeySet::generate(1000, 5, 12).all);
        let (mut r1, mut r2) = (Rng::new(5), Rng::new(5));
        assert!((0..100).all(|_| r1.next_u64() == r2.next_u64()));
        assert!((0..1000).all(|_| r1.below(7) < 7));
    }

    #[test]
    fn slots_partition_the_key_set() {
        let set = KeySet::generate(1003, 5, 1);
        assert_eq!((set.loaded_len(), set.pool_len()), (803, 200));
        let loaded: Vec<usize> = (0..set.loaded_len()).map(|i| set.loaded_slot(i)).collect();
        let pool: Vec<usize> = (0..set.pool_len()).map(|j| set.pool_slot(j)).collect();
        assert!(loaded.iter().all(|&s| !set.is_pool(s)) && pool.iter().all(|&s| set.is_pool(s)));
        let mut all: Vec<usize> = loaded.iter().chain(&pool).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..1003).collect::<Vec<_>>());
        assert_eq!(set.loaded_keys().len(), 803);
    }

    #[test]
    fn oracle_tracks_inserts_updates_and_scans() {
        let set = KeySet { all: vec![10, 20, 30, 40], period: 2 };
        let mut o = Oracle::new(&set);
        assert_eq!((o.expect(0), o.expect(1), o.live()), (Some(0), None, 2));
        assert_eq!((o.next_version(0), o.next_version(1)), (1, 0));
        o.ack(0, 1);
        o.ack(1, 0);
        assert_eq!(o.scan(1, 5), vec![(1, 0), (2, 0)]);
        assert_eq!(o.entries().collect::<Vec<_>>(), vec![(0, 1), (1, 0), (2, 0)]);
    }
}
