//! R4 fixture: nesting one named service lock inside another's live guard.

impl Inner {
    fn publish(&self) {
        let snap = self.current.write();
        let entries = self.cache.lock();
        drop(entries);
        drop(snap);
    }
}
