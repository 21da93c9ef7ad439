//! Fixture: panicking slot-header decoder — rule R4 must flag the
//! `expect`s inside `decode_header` (linted under the Viper layout file):
//! every get and every recovery decodes a slot header.

pub struct SlotHeader {
    pub key: u64,
    pub seq: u64,
}

pub fn decode_header(buf: &[u8]) -> SlotHeader {
    SlotHeader {
        key: u64::from_le_bytes(buf[..8].try_into().expect("slot prefix")),
        seq: u64::from_le_bytes(buf[8..16].try_into().expect("slot prefix")),
    }
}
