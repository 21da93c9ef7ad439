//! Fixture: panicking dynamic-PGM update path — rule R4 must flag the
//! `unwrap`/`unreachable!` inside `lookup_entry`/`merge_newest_wins`
//! (linted under the li-pgm dynamic file): they run under a shard cell's
//! lock on every GET/PUT of the served store.

pub struct Pgm {
    levels: Vec<Option<Vec<(u64, Option<u64>)>>>,
}

impl Pgm {
    fn lookup_entry(&self, key: u64) -> Option<Option<u64>> {
        let level = self.levels[0].as_ref().unwrap();
        level.iter().find(|e| e.0 == key).map(|e| e.1)
    }
}

fn merge_newest_wins(newer: &[(u64, u64)], older: &[(u64, u64)]) -> Vec<(u64, u64)> {
    match (newer.first(), older.first()) {
        (Some(&n), _) => vec![n],
        (None, Some(&o)) => vec![o],
        (None, None) => unreachable!("callers never merge two empty runs"),
    }
}
