//! R2 fixture plan: `read_footprint` forgets `ReferentFilter::ByKind`.

impl Plan {
    fn read_footprint(filter: &ReferentFilter) -> ComponentSet {
        match filter {
            ReferentFilter::ByObject(_) => ComponentSet::of([Component::Referents]),
        }
    }
}
