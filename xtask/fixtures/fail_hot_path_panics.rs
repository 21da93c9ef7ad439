//! Fixture: panicking hot path — rule R4 must flag the unwrap/expect
//! inside `put`/`get`/`delete` (linted under the Viper write-path file).

pub struct Store;

impl Store {
    pub fn put(&self, key: u64) -> Result<(), ()> {
        let slot = self.locate(key).unwrap();
        let _ = slot;
        Ok(())
    }

    pub fn get(&self, key: u64) -> Option<u64> {
        Some(self.locate(key).expect("present"))
    }

    fn locate(&self, _key: u64) -> Option<u64> {
        None
    }
}
