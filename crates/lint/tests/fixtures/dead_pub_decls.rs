//! dead-pub fixture: three public items nothing outside the crate calls.

pub struct Graph;

impl Graph {
    pub fn lonely(&self) -> usize {
        0
    }
}

pub fn helper() -> usize {
    // A call from the crate's own `src/` does not count.
    Graph.lonely()
}

pub const LIMIT: usize = 8;

pub(crate) fn internal() {}

#[cfg(test)]
mod tests {
    pub fn test_only() {}
}
