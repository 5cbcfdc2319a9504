//! [`ChunkedVec`] — a vector split into fixed-capacity chunks, each behind its own
//! `Arc`, so that **cloning shares every chunk** and a write after a clone copies only
//! the one chunk it touches.
//!
//! This is the storage of every per-entity store in a Graphitti `SystemView` (a-graph
//! node / edge slots, content documents, the object / referent / annotation
//! registries): ids are dense and allocated monotonically, so the store is an
//! append-mostly vector, and a snapshot held by a reader pins the *old* chunks while a
//! commit un-shares the tail chunk (for its pushes) plus whichever older chunks it
//! edits in place.  A commit therefore costs O(batch), not O(corpus): `clone` is one
//! pointer bump per [`CHUNK`] elements, and nothing else is proportional to `len`.
//!
//! Safe Rust only; readers take no lock (an `&ChunkedVec` is plain shared data).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::Arc;

const CHUNK_BITS: usize = 6;

/// Elements per chunk (a power of two, so an index splits by shift and mask).
///
/// Picked by measurement on the `curate_rw` benchmark workload: a smaller chunk copies
/// less per touched chunk but bumps more pointers per clone; 64 sat at the knee (see
/// ARCHITECTURE "Copy-on-publish").
pub const CHUNK: usize = 1 << CHUNK_BITS;

/// An append-mostly vector with chunk-granular structural sharing (see the
/// [crate docs](crate)).
#[derive(Debug, Clone)]
pub struct ChunkedVec<T> {
    /// Every chunk but the last holds exactly [`CHUNK`] elements; the last holds
    /// `1..=CHUNK` (there is no empty chunk).
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        ChunkedVec { chunks: Vec::new(), len: 0 }
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
        self.chunks.get(index >> CHUNK_BITS)?.get(index & (CHUNK - 1))
    }

    /// The last element, if any.
    pub fn last(&self) -> Option<&T> {
        self.chunks.last()?.last()
    }

    /// Binary search of a vector sorted ascending: `Ok(index)` of a match, or
    /// `Err(index)` where `x` would have to be inserted to keep the order.
    pub fn binary_search(&self, x: &T) -> Result<usize, usize>
    where
        T: Ord,
    {
        // The chunk whose first element is the last one <= x, then the slot within it.
        let after = self.chunks.partition_point(|chunk| chunk.first().is_some_and(|f| f <= x));
        let Some(chunk) = after.checked_sub(1) else { return Err(0) };
        let base = chunk << CHUNK_BITS;
        self.chunks[chunk].binary_search(x).map(|i| base + i).map_err(|i| base + i)
    }

    /// Iterate over the elements in index order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { chunks: self.chunks.iter(), front: [].iter(), remaining: self.len }
    }

    /// How many chunks `self` and `other` hold in common (same position, same
    /// allocation).  Tests use it to pin the copy-on-write granularity.
    pub fn shared_chunks(&self, other: &ChunkedVec<T>) -> usize {
        self.chunks.iter().zip(&other.chunks).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// Number of chunks currently allocated (`ceil(len / CHUNK)`).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

impl<T: Clone> ChunkedVec<T> {
    /// Append an element.  Copies the tail chunk iff a clone still shares it.
    pub fn push(&mut self, value: T) {
        match self.chunks.last_mut().filter(|tail| tail.len() < CHUNK) {
            None => {
                let mut tail = Vec::with_capacity(CHUNK);
                tail.push(value);
                self.chunks.push(Arc::new(tail));
            }
            Some(tail) => match Arc::get_mut(tail) {
                Some(unshared) => unshared.push(value),
                None => {
                    // Copy at full capacity: `Arc::make_mut` would clone to an exact
                    // fit and the push would immediately reallocate.
                    let mut copy = Vec::with_capacity(CHUNK);
                    copy.extend_from_slice(tail);
                    copy.push(value);
                    *tail = Arc::new(copy);
                }
            },
        }
        self.len += 1;
    }

    /// Mutable access to the element at `index`, if in range.  Copies the one chunk
    /// holding it iff a clone still shares that chunk.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        let chunk = self.chunks.get_mut(index >> CHUNK_BITS)?;
        if index & (CHUNK - 1) >= chunk.len() {
            return None;
        }
        Arc::make_mut(chunk).get_mut(index & (CHUNK - 1))
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
    chunks: std::slice::Iter<'a, Arc<Vec<T>>>,
    front: std::slice::Iter<'a, T>,
    remaining: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(value) = self.front.next() {
                self.remaining -= 1;
                return Some(value);
            }
            self.front = self.chunks.next()?.iter();
        }
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
