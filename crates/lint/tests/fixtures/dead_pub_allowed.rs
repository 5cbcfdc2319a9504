//! dead-pub fixture: the same kind of item, its one consumer named.

// lint: allow(dead-pub) -- fixture: called only from the crate's doc example
pub fn lonely() -> usize {
    0
}
