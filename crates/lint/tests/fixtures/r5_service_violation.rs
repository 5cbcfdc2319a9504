//! R5 fixture: a counter bumped beside submission accounting but absent from
//! every conservation assertion site.

impl Metrics {
    fn record(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }
}
