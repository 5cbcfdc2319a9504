//! R2 fixture plan: the missing arm is suppressed with a reason.

impl Plan {
    // lint: allow(footprint-exhaustiveness) -- fixture: ByKind is routed elsewhere
    fn read_footprint(filter: &ReferentFilter) -> ComponentSet {
        match filter {
            ReferentFilter::ByObject(_) => ComponentSet::of([Component::Referents]),
        }
    }
}
