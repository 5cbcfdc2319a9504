//! dead-pub fixture: a test oracle only tests call, its callers named.

pub struct Tree;

impl Tree {
    /// Structural invariants, checked by the property tests.
    // lint: allow(dead-pub) -- test oracle: tests/prop_tree.rs
    pub fn check_invariants(&self) -> bool {
        true
    }
}
