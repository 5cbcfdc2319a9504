//! [`SmallList`] — a short list of `Copy` ids held inline, spilling to a shared
//! buffer once it outgrows the inline slots, so that cloning it never allocates.

use std::sync::Arc;

/// A list of `Copy` values whose clone allocates nothing: up to `N` values live inline,
/// a longer list lives in an `Arc<[T]>` buffer with spare capacity (the slots past
/// `len` hold `T::default()`), and a clone shares that buffer.
///
/// Reading is one slice either way — the inline array, or the buffer one pointer away,
/// as a `Vec`'s is.  Writing an unshared list is amortised O(1) per push, as a `Vec`'s:
/// a full buffer is replaced by one of twice the capacity.  Writing a list a clone
/// still shares copies the buffer first — what the write touches, and nothing else.
#[derive(Clone)]
pub struct SmallList<T, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// At most `N` values, in the first `len` slots.
    Inline { len: u8, items: [T; N] },
    /// More than `N` values (at some point), in the first `len` slots of a buffer whose
    /// length is the capacity.
    Spilled { len: u32, items: Arc<[T]> },
}

impl<T: Copy + Default, const N: usize> Default for SmallList<T, N> {
    fn default() -> Self {
        SmallList(Repr::Inline { len: 0, items: [T::default(); N] })
    }
}

impl<T: Copy + Default, const N: usize> SmallList<T, N> {
    /// An empty list.
    pub fn new() -> Self {
        SmallList::default()
    }

    /// The values, in order.
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Spilled { len, items } => &items[..*len as usize],
        }
    }

    /// Append a value.
    pub fn push(&mut self, value: T) {
        let len = self.len();
        self.writable(len + 1)[len] = value;
        self.set_len(len + 1);
    }

    /// The slots, unshared and at least `needed` of them: in place when they already
    /// are, else copied into a new buffer — of twice the capacity when it is the
    /// capacity that falls short, of the same capacity when it is only shared.
    fn writable(&mut self, needed: usize) -> &mut [T] {
        let capacity = match &mut self.0 {
            Repr::Inline { .. } if needed <= N => None,
            Repr::Inline { .. } => Some(needed.max(2 * N)),
            Repr::Spilled { items, .. } if needed > items.len() => {
                Some(needed.max(2 * items.len()))
            }
            // A count read: the in-place path pays `Arc::get_mut`'s swap once, below.
            Repr::Spilled { items, .. } => (Arc::strong_count(items) > 1).then_some(items.len()),
        };
        if let Some(capacity) = capacity {
            let held = self.as_slice();
            let len = held.len() as u32;
            let items: Arc<[T]> = held
                .iter()
                .copied()
                .chain(std::iter::repeat(T::default()))
                .take(capacity)
                .collect();
            self.0 = Repr::Spilled { len, items };
        }
        match &mut self.0 {
            Repr::Inline { items, .. } => items,
            Repr::Spilled { items, .. } => Arc::get_mut(items).expect("unshared above"),
        }
    }

    fn set_len(&mut self, new_len: usize) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = new_len as u8,
            Repr::Spilled { len, .. } => *len = new_len as u32,
        }
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for SmallList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default + std::fmt::Debug, const N: usize> std::fmt::Debug for SmallList<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type List = SmallList<u64, 4>;

    fn list_of(values: impl IntoIterator<Item = u64>) -> List {
        let mut list = List::new();
        for value in values {
            list.push(value);
        }
        list
    }

    #[test]
    fn push_across_the_spill() {
        let mut list = List::new();
        assert!(list.is_empty());
        for i in 0..10 {
            list.push(i);
        }
        assert!(matches!(list.0, Repr::Spilled { .. }));
        assert_eq!(&list[..], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let small = list_of([7, 8]);
        assert!(matches!(small.0, Repr::Inline { len: 2, .. }));
        assert_eq!(format!("{small:?}"), "[7, 8]");
    }

    #[test]
    fn a_clone_shares_the_buffer_and_never_sees_a_later_write() {
        let mut list = list_of(0..6);
        let held = list.clone();
        let (Repr::Spilled { items: a, .. }, Repr::Spilled { items: b, .. }) = (&list.0, &held.0)
        else {
            panic!("six values spill")
        };
        assert!(Arc::ptr_eq(a, b), "a clone shares the buffer");
        list.push(6);
        assert_eq!(&held[..], &[0, 1, 2, 3, 4, 5]);
        assert_eq!(&list[..], &[0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn an_unshared_buffer_grows_geometrically() {
        let mut list = List::new();
        let mut buffers = 0;
        let mut last = None;
        for i in 0..1_000 {
            list.push(i);
            if let Repr::Spilled { items, .. } = &list.0 {
                let at = Arc::as_ptr(items) as *const u64;
                if last != Some(at) {
                    buffers += 1;
                    last = Some(at);
                }
            }
        }
        assert!(buffers <= 8, "{buffers} buffers for 1000 pushes");
        assert!(list.iter().copied().eq(0..1_000));
    }
}
