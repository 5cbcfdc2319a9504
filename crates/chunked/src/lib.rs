//! [`ChunkedVec`] — a vector split into fixed-capacity chunks, each behind its own
//! `Arc`, so that **cloning shares every chunk** and a write after a clone copies only
//! the one chunk it touches.
//!
//! This is the storage of every per-entity store in a Graphitti `SystemView` (a-graph
//! node / edge slots, content documents, the object / referent / annotation
//! registries): ids are dense and allocated monotonically, so the store is an
//! append-mostly vector, and a snapshot held by a reader pins the *old* chunks while a
//! commit un-shares the tail chunk (for its pushes) plus whichever older chunks it
//! edits in place.  A commit therefore costs O(batch), not O(corpus): `clone` is two
//! reference-count bumps, and a write after it copies the chunk it lands in — plus the
//! chunk-pointer spine (one pointer per [`CHUNK`] elements) when it writes an older
//! chunk or fills the tail.
//!
//! The two other types here make the *elements* of such stores, and the maps beside
//! them, as cheap to clone: a [`SmallList`] (a short id list held inline, spilling to a
//! shared buffer) and a [`BucketMap`] (a hash map in fixed `Arc`-shared buckets).
//! Cloning either allocates nothing, so a chunk copy is one allocation plus a copy of
//! [`CHUNK`] slots, and a map a commit un-shares copies the one bucket it writes.
//!
//! Safe Rust only; readers take no lock (an `&ChunkedVec` is plain shared data).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::Arc;

mod list;
mod map;

pub use list::SmallList;
pub use map::BucketMap;

const CHUNK_BITS: usize = 6;

/// Elements per chunk (a power of two, so an index splits by shift and mask).
///
/// Picked by measurement on the `curate_rw` benchmark workload: a smaller chunk copies
/// less per touched chunk but bumps more pointers per clone; 64 sat at the knee (see
/// ARCHITECTURE "Copy-on-publish").
pub const CHUNK: usize = 1 << CHUNK_BITS;

/// A full chunk: [`CHUNK`] slots in one allocation, behind a thin pointer — the tail
/// it was, unchanged (so every slot is `Some`).
type Full<T> = Arc<[Option<T>; CHUNK]>;

/// The chunk being filled: one allocation whose length is its capacity, `None` past
/// the vector's end.  It grows like a `Vec` while the whole vector fits in it (a short
/// posting list stays short), and is allocated whole once full chunks precede it.
type Tail<T> = Arc<[Option<T>]>;

/// The smallest tail allocated.
const MIN_TAIL: usize = 16;

/// The smallest spine allocated.
const MIN_SPINE: usize = 4;

/// An append-mostly vector with chunk-granular structural sharing (see the
/// [crate docs](crate)).
pub struct ChunkedVec<T> {
    /// The full chunks, behind one spine that clones share: chunk `k` holds elements
    /// `k * CHUNK ..`; entries past the last full chunk are `None` (spare capacity, as
    /// a `Vec`'s).  A read follows the same two pointers as into a `Vec` of `Arc`s.
    spine: Arc<[Option<Full<T>>]>,
    /// Elements `full_chunks() * CHUNK ..`.  It sits beside the spine, so a push writes
    /// one shared allocation, not two; the push that fills it moves its elements into
    /// a full chunk on the spine.
    tail: Tail<T>,
    len: usize,
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        ChunkedVec { spine: Arc::default(), tail: Arc::default(), len: 0 }
    }
}

impl<T> Clone for ChunkedVec<T> {
    fn clone(&self) -> Self {
        ChunkedVec { spine: Arc::clone(&self.spine), tail: Arc::clone(&self.tail), len: self.len }
    }
}

impl<T> ChunkedVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        ChunkedVec::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at `index`, if in range.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        let (chunk, slot) = (index >> CHUNK_BITS, index & (CHUNK - 1));
        if chunk < self.full_chunks() {
            self.spine[chunk].as_ref()?[slot].as_ref()
        } else {
            self.tail[slot].as_ref()
        }
    }

    /// The last element, if any.
    pub fn last(&self) -> Option<&T> {
        self.get(self.len.checked_sub(1)?)
    }

    /// Number of full chunks (all on the spine).
    fn full_chunks(&self) -> usize {
        self.len >> CHUNK_BITS
    }

    /// The full chunks, in order.
    fn full(&self) -> &[Option<Full<T>>] {
        &self.spine[..self.full_chunks()]
    }

    /// The tail's elements.
    fn tail(&self) -> &[Option<T>] {
        &self.tail[..self.len & (CHUNK - 1)]
    }

    /// Binary search of a vector sorted ascending: `Ok(index)` of a match, or
    /// `Err(index)` where `x` would have to be inserted to keep the order.
    pub fn binary_search(&self, x: &T) -> Result<usize, usize>
    where
        T: Ord,
    {
        // The tail if its first element is <= x; else the full chunk whose first
        // element is the last one <= x.  Then the slot within it.
        let full = self.full();
        if self.tail().first().and_then(Option::as_ref).is_some_and(|first| first <= x) {
            let base = full.len() << CHUNK_BITS;
            let found =
                self.tail().binary_search_by(|slot| slot.as_ref().expect("in the tail").cmp(x));
            return found.map(|i| base + i).map_err(|i| base + i);
        }
        let after = full.partition_point(|chunk| {
            chunk.as_ref().and_then(|slots| slots[0].as_ref()).is_some_and(|first| first <= x)
        });
        let Some(chunk) = after.checked_sub(1) else { return Err(0) };
        let base = chunk << CHUNK_BITS;
        let slots = full[chunk].as_ref().expect("a full chunk");
        let found = slots.binary_search_by(|slot| slot.as_ref().expect("a full chunk").cmp(x));
        found.map(|i| base + i).map_err(|i| base + i)
    }

    /// Iterate over the elements in index order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            full: self.full().iter(),
            front: [].iter(),
            tail: self.tail().iter(),
            remaining: self.len,
        }
    }

    /// How many chunks `self` and `other` hold in common (same position, same
    /// allocation).  Tests use it to pin the copy-on-write granularity.
    // lint: allow(dead-pub) -- test oracle: tests/prop_chunked.rs
    pub fn shared_chunks(&self, other: &ChunkedVec<T>) -> usize {
        let same_full = |(a, b): (&Option<Full<T>>, &Option<Full<T>>)| match (a, b) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        let full = self.full().iter().zip(other.full()).filter(|pair| same_full(*pair)).count();
        let same_tail = self.full_chunks() == other.full_chunks()
            && !self.tail().is_empty()
            && !other.tail().is_empty()
            && Arc::ptr_eq(&self.tail, &other.tail);
        full + usize::from(same_tail)
    }

    /// Number of chunks currently allocated (`ceil(len / CHUNK)`).
    // lint: allow(dead-pub) -- test oracle: tests/prop_chunked.rs
    pub fn chunk_count(&self) -> usize {
        self.len.div_ceil(CHUNK)
    }
}

impl<T: Clone> ChunkedVec<T> {
    /// Append an element.  Copies the tail chunk iff a clone still shares it; the push
    /// that fills the tail moves it onto the spine, copying the spine iff a clone still
    /// shares that (and growing it geometrically when full).
    pub fn push(&mut self, value: T) {
        let slot = self.len & (CHUNK - 1);
        self.writable_tail(slot + 1)[slot] = Some(value);
        self.len += 1;
        if slot == CHUNK - 1 {
            self.seal_tail();
        }
    }

    /// Move the full tail onto the spine, as it is.
    #[cold]
    fn seal_tail(&mut self) {
        let full = std::mem::take(&mut self.tail).try_into().ok().expect("a tail of a chunk");
        let chunks = self.full_chunks();
        self.spine_mut(chunks)[chunks - 1] = Some(full);
    }

    /// Mutable access to the element at `index`, if in range.  Copies the one chunk
    /// holding the slot — and, for a full chunk, the spine — iff a clone still shares
    /// them.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        if index >= self.len {
            return None;
        }
        let (chunk, slot) = (index >> CHUNK_BITS, index & (CHUNK - 1));
        if chunk < self.full_chunks() {
            let full = self.spine_mut(0)[chunk].as_mut()?;
            Arc::make_mut(full)[slot].as_mut()
        } else {
            self.writable_tail(slot + 1)[slot].as_mut()
        }
    }

    /// The tail, unshared and with at least `needed` slots.  A count read, not
    /// `Arc::get_mut`'s compare-and-swap, decides whether to copy: the in-place path
    /// pays that swap once.
    fn writable_tail(&mut self, needed: usize) -> &mut [Option<T>] {
        if needed > self.tail.len() || Arc::strong_count(&self.tail) > 1 {
            self.copy_tail(needed);
        }
        Arc::get_mut(&mut self.tail).expect("unshared above")
    }

    /// Copy the tail, once: into twice the capacity (up to a chunk; a whole chunk when
    /// full chunks precede it) when the capacity falls short of `needed`, into the
    /// same capacity when a clone only shares it.
    #[cold]
    fn copy_tail(&mut self, needed: usize) {
        let capacity = match self.tail.len() {
            short if needed > short && self.len >= CHUNK => CHUNK,
            short if needed > short => (2 * short).clamp(MIN_TAIL, CHUNK),
            shared => shared,
        };
        let held = self.tail().iter().cloned();
        self.tail = held.chain(std::iter::repeat(None)).take(capacity).collect();
    }

    /// The spine, unshared and with at least `needed` entries (decided as for the
    /// tail).
    fn spine_mut(&mut self, needed: usize) -> &mut [Option<Full<T>>] {
        if needed > self.spine.len() || Arc::strong_count(&self.spine) > 1 {
            self.copy_spine(needed);
        }
        Arc::get_mut(&mut self.spine).expect("unshared above")
    }

    /// Copy the spine: a full one into twice its length, a shared one with room for
    /// one more chunk — so a commit's copy does not carry the spare capacity along.
    #[cold]
    fn copy_spine(&mut self, needed: usize) {
        let capacity = match self.spine.len() {
            short if needed > short => needed.max(2 * short).max(MIN_SPINE),
            _ => needed.max(self.full_chunks() + 1),
        };
        let chunks = self.spine.iter().take_while(|chunk| chunk.is_some()).cloned();
        self.spine = chunks.chain(std::iter::repeat(None)).take(capacity).collect();
    }
}

impl<T: PartialEq> PartialEq for ChunkedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ChunkedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> std::ops::Index<usize> for ChunkedVec<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        match self.get(index) {
            Some(value) => value,
            None => panic!("index {index} out of range for ChunkedVec of length {}", self.len),
        }
    }
}

impl<T: Clone> FromIterator<T> for ChunkedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = ChunkedVec::new();
        for value in iter {
            out.push(value);
        }
        out
    }
}

/// Borrowing iterator over a [`ChunkedVec`], in index order.
#[derive(Debug, Clone)]
pub struct Iter<'a, T> {
    full: std::slice::Iter<'a, Option<Full<T>>>,
    front: std::slice::Iter<'a, Option<T>>,
    tail: std::slice::Iter<'a, Option<T>>,
    remaining: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        let value = loop {
            if let Some(value) = self.front.next() {
                break value.as_ref()?;
            }
            match self.full.next() {
                Some(chunk) => self.front = chunk.as_ref()?.iter(),
                None => break self.tail.next()?.as_ref()?,
            }
        };
        self.remaining -= 1;
        Some(value)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

impl<'a, T> IntoIterator for &'a ChunkedVec<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_index_iter() {
        let mut v = ChunkedVec::new();
        assert!(v.is_empty());
        assert_eq!(v.get(0), None);
        for i in 0..(3 * CHUNK + 5) {
            v.push(i);
        }
        assert_eq!(v.len(), 3 * CHUNK + 5);
        assert_eq!(v.chunk_count(), 4);
        assert_eq!(v[0], 0);
        assert_eq!(v[CHUNK], CHUNK);
        assert_eq!(v.get(3 * CHUNK + 4), Some(&(3 * CHUNK + 4)));
        assert_eq!(v.get(3 * CHUNK + 5), None);
        assert_eq!(v.iter().len(), v.len());
        assert!(v.iter().copied().eq(0..v.len()));
        assert!((&v).into_iter().copied().eq(0..v.len()));
        assert!(v.iter().eq((0..v.len()).collect::<ChunkedVec<_>>().iter()));
    }

    #[test]
    fn get_mut_out_of_range_copies_nothing() {
        let mut v: ChunkedVec<u32> = (0..10).collect();
        let held = v.clone();
        assert!(v.get_mut(10).is_none());
        assert!(v.get_mut(CHUNK * 4).is_none());
        assert_eq!(v.shared_chunks(&held), 1);
    }

    #[test]
    fn a_clone_never_sees_a_later_write() {
        let mut v: ChunkedVec<String> = (0..(2 * CHUNK)).map(|i| i.to_string()).collect();
        let held = v.clone();
        assert_eq!(v.shared_chunks(&held), 2);

        *v.get_mut(3).unwrap() = "edited".into();
        assert_eq!(held[3], "3");
        assert_eq!(v[3], "edited");
        assert_eq!(v.shared_chunks(&held), 1, "only the edited chunk is copied");

        v.push("new".into());
        assert_eq!(held.len(), 2 * CHUNK);
        assert_eq!(v.len(), 2 * CHUNK + 1);
        assert_eq!(v.shared_chunks(&held), 1, "a push into a fresh chunk copies nothing");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let v: ChunkedVec<u8> = ChunkedVec::new();
        let _ = v[0];
    }
}
