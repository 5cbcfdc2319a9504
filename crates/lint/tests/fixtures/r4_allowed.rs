//! R4 fixture: the same nesting, with the lock order documented.

impl Inner {
    fn publish(&self) {
        let snap = self.current.write();
        // lint: allow(lock-discipline) -- fixture: current-then-cache order, single site
        let entries = self.cache.lock();
        drop(entries);
        drop(snap);
    }
}
