//! Per-component versioning: `Versioned` components, [`ComponentSet`]s and the
//! [`EpochVector`].
//!
//! The global epoch says *that* the system changed; it cannot say *what* changed.  For
//! a downstream consumer that only reads a few components — the query service's result
//! cache reads exactly the components a query's plan touches — that distinction is the
//! difference between invalidating one entry and invalidating everything.
//!
//! Three small types carry it:
//!
//! * `Versioned` — one component of a `SystemView`: its storage behind an `Arc`,
//!   and beside it the global epoch of its last write.  The fields are private to
//!   this module and `Versioned::write` — stamp the epoch, then `Arc::make_mut` —
//!   is the only mutable access, so a mutation cannot reach a component without
//!   dirtying it: the **dirty set** of a write is whatever it wrote, by construction
//!   (a write rejected before it touches anything dirties nothing).
//! * [`ComponentSet`] — a bitset over [`Component`].  It names the components a
//!   write stamped (read back off the stamps: the components whose epochs a commit
//!   moved) and the components a query plan reads (its **footprint**).  An entry computed before a
//!   publish stays valid exactly when its footprint is disjoint from everything
//!   dirtied since.
//! * [`EpochVector`] — the eleven stamps by value, filled when a snapshot is
//!   captured.  Within one system lineage, equal component epochs mean the
//!   component's query-visible state is identical — so two snapshots agreeing on a
//!   footprint's epochs return identical answers for any query with that footprint,
//!   even when the snapshots' global epochs differ.

use std::sync::Arc;

use crate::system::Component;

/// One independently shared, independently versioned component: the storage behind
/// an `Arc` (so a snapshot shares it until the next write) and the global epoch of the
/// last write that reached it.  Reads go through `Deref` and never stamp.
#[derive(Debug, Default, Clone)]
pub(crate) struct Versioned<T> {
    value: Arc<T>,
    epoch: u64,
}

impl<T> std::ops::Deref for Versioned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> Versioned<T> {
    /// The component's [`Stamp`].
    pub(crate) fn stamp(&self) -> Stamp {
        Stamp { epoch: self.epoch, storage: Arc::as_ptr(&self.value).cast() }
    }
}

impl<T: Clone> Versioned<T> {
    /// Mutable access for a write at global epoch `epoch` — the **only** mutable
    /// access: records the epoch, and copies the storage first iff a snapshot still
    /// shares it (the copy is shallow; see `SystemView`).
    pub(crate) fn write(&mut self, epoch: u64) -> &mut T {
        self.epoch = epoch;
        Arc::make_mut(&mut self.value)
    }
}

/// What a [`Versioned`] component shows with its type erased, so that one
/// field ↔ [`Component`] listing (`SystemView::stamp`) serves both the epoch vector and
/// the structural-sharing test.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamp {
    /// The global epoch of the component's last write.
    pub(crate) epoch: u64,
    /// The address of its storage: equal between two live views iff they share the
    /// component (`Arc::ptr_eq`).
    pub(crate) storage: *const (),
}

/// A set of [`Component`]s, stored as a bitmask (the enum has 11 variants).
///
/// Used for both **dirty sets** (what a mutation wrote) and **read footprints** (what
/// a query plan reads); a cached entry is valid while the epochs of its footprint
/// agree ([`EpochVector::agrees_on`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ComponentSet(u16);

impl ComponentSet {
    /// The empty set.
    pub(crate) const EMPTY: ComponentSet = ComponentSet(0);

    /// Every component.
    pub fn all() -> ComponentSet {
        Component::ALL.into_iter().collect()
    }

    /// The set containing exactly the given components.
    pub fn of(components: impl IntoIterator<Item = Component>) -> ComponentSet {
        components.into_iter().collect()
    }

    fn bit(component: Component) -> u16 {
        1 << component as u16
    }

    /// Add one component.
    pub fn insert(&mut self, component: Component) {
        self.0 |= Self::bit(component);
    }

    /// Whether the set contains a component.
    pub fn contains(self, component: Component) -> bool {
        self.0 & Self::bit(component) != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of components in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Set union.
    pub fn union(self, other: ComponentSet) -> ComponentSet {
        ComponentSet(self.0 | other.0)
    }

    /// The components in the set, in [`Component::ALL`] order.
    pub fn iter(self) -> impl Iterator<Item = Component> {
        Component::ALL.into_iter().filter(move |&c| self.contains(c))
    }

    /// The raw bitmask — the stable wire form a WAL record's dirty set is persisted
    /// as (bit `i` is `Component::ALL[i]`).
    pub fn bits(self) -> u16 {
        self.0
    }
}

impl std::ops::BitAnd for ComponentSet {
    type Output = ComponentSet;

    fn bitand(self, rhs: ComponentSet) -> ComponentSet {
        ComponentSet(self.0 & rhs.0)
    }
}

impl FromIterator<Component> for ComponentSet {
    fn from_iter<I: IntoIterator<Item = Component>>(iter: I) -> ComponentSet {
        let mut set = ComponentSet::EMPTY;
        for c in iter {
            set.insert(c);
        }
        set
    }
}

impl std::ops::BitOr for ComponentSet {
    type Output = ComponentSet;

    fn bitor(self, rhs: ComponentSet) -> ComponentSet {
        self.union(rhs)
    }
}

impl std::fmt::Debug for ComponentSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// One epoch per [`Component`]: the global epoch of the last write that dirtied it.
///
/// Read off the live system's component stamps and carried by value by every
/// [`Snapshot`](crate::Snapshot).  Within one system lineage (same
/// [`Graphitti`](crate::Graphitti) instance, identified by its system id) the vector is
/// monotone per component, and equal component epochs denote identical query-visible
/// component state — which is exactly the validity condition a footprint-keyed cache
/// entry needs.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochVector([u64; Component::ALL.len()]);

impl EpochVector {
    /// The epoch of one component.
    pub fn get(self, component: Component) -> u64 {
        self.0[component as usize]
    }

    /// The vector holding `epoch_of(c)` for every component `c`.
    pub(crate) fn from_fn(epoch_of: impl FnMut(Component) -> u64) -> EpochVector {
        EpochVector(Component::ALL.map(epoch_of))
    }

    /// The components whose epochs differ between the two vectors — for vectors from
    /// the same system lineage, the set of components dirtied between the two states.
    pub(crate) fn changed(self, other: EpochVector) -> ComponentSet {
        Component::ALL.into_iter().filter(|&c| self.get(c) != other.get(c)).collect()
    }

    /// Whether the two vectors agree on every component of `set` — the per-entry
    /// cache-validity test: a result whose footprint's epochs are unchanged is still
    /// the current answer.
    pub fn agrees_on(self, other: EpochVector, set: ComponentSet) -> bool {
        set.iter().all(|c| self.get(c) == other.get(c))
    }
}

impl std::fmt::Debug for EpochVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(Component::ALL.into_iter().map(|c| (c, self.get(c)))).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_operations() {
        let mut a = ComponentSet::EMPTY;
        assert!(a.is_empty());
        a.insert(Component::Content);
        a.insert(Component::Annotations);
        assert_eq!(a.len(), 2);
        assert!(a.contains(Component::Content));
        assert!(!a.contains(Component::Spatial));

        let b = ComponentSet::of([Component::Spatial, Component::Objects]);
        assert!((a & b).is_empty());
        assert!(!(a & ComponentSet::of([Component::Annotations])).is_empty());

        let u = a | b;
        assert_eq!(u.len(), 4);
        assert_eq!(
            u.iter().collect::<Vec<_>>(),
            vec![
                Component::Content,
                Component::Spatial,
                Component::Objects,
                Component::Annotations
            ]
        );
        assert_eq!(ComponentSet::all().len(), Component::ALL.len());
    }

    /// The vector with `epoch` on `set` and 0 elsewhere.
    fn vector(set: ComponentSet, epoch: u64) -> EpochVector {
        EpochVector::from_fn(|c| if set.contains(c) { epoch } else { 0 })
    }

    #[test]
    fn vector_diffs_and_agreement() {
        let annotation_path = ComponentSet::of([Component::Content, Component::Annotations]);
        let a = vector(annotation_path, 3);
        let zero = EpochVector::default();
        assert!(zero.changed(zero).is_empty());
        assert_eq!(a.get(Component::Content), 3);
        assert_eq!(a.get(Component::Spatial), 0);
        assert_eq!(a.changed(zero), annotation_path);
        assert!(a.agrees_on(vector(annotation_path, 3), ComponentSet::all()));

        let b = vector(annotation_path | ComponentSet::of([Component::Spatial]), 3);
        assert!(a.agrees_on(b, ComponentSet::of([Component::Content])));
        assert!(!a.agrees_on(b, ComponentSet::of([Component::Spatial, Component::Content])));
    }

    #[test]
    fn write_stamps_and_unshares_once_under_a_held_clone() {
        let mut live = Versioned::<Vec<u32>>::default();
        live.write(1).push(7);
        let held = live.clone();
        assert_eq!(live.stamp().storage, held.stamp().storage);

        // Reads never stamp and never copy.
        assert_eq!(live.len(), 1);
        assert_eq!(live.stamp().epoch, 1);
        assert_eq!(live.stamp().storage, held.stamp().storage);

        // The first write under the held clone copies the storage and stamps ...
        live.write(2).push(8);
        assert_eq!(live.stamp().epoch, 2);
        assert_ne!(live.stamp().storage, held.stamp().storage);
        assert_eq!((held.len(), held.stamp().epoch), (1, 1), "the clone never moves");

        // ... and from then on the storage is unique: later writes mutate in place.
        let unique = live.stamp().storage;
        live.write(2).push(9);
        live.write(3).push(10);
        assert_eq!(live.stamp().storage, unique);
        assert_eq!(live.stamp().epoch, 3);
        assert_eq!(*live, vec![7, 8, 9, 10]);
    }
}
