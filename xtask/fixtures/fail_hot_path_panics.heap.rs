//! Fixture: panicking record-heap path — rule R4 must flag the header
//! slicing that can panic inside `read`/`update_in_place` (linted under
//! the Viper heap file).

pub struct Heap;

impl Heap {
    pub fn read(&self, slot: &[u8]) -> u64 {
        u64::from_le_bytes(slot[..8].try_into().unwrap())
    }

    pub fn update_in_place(&self, head: &[u8]) -> (u64, u64) {
        let key = u64::from_le_bytes(head[..8].try_into().expect("key"));
        let seq = u64::from_le_bytes(head[8..16].try_into().expect("seq"));
        (key, seq)
    }
}
