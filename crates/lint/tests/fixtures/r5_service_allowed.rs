//! R5 fixture: the uncovered counter carries a reasoned suppression.

impl Metrics {
    fn record(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        // lint: allow(metrics-conservation) -- fixture: timeouts double-counts into failed
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }
}
