//! [`BucketMap`] — a hash map split into a fixed number of `Arc`-shared buckets, so
//! that cloning it allocates nothing and a write after a clone copies one bucket.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

const BUCKET_BITS: u32 = 6;

/// Buckets per map (a power of two).
///
/// A clone bumps one counter per non-empty bucket; a write to a clone copies
/// `1 / BUCKETS` of the map.  At 64 a vocabulary of a few thousand keys copies tens of
/// entries per touched key.
const BUCKETS: usize = 1 << BUCKET_BITS;

/// A hash map whose clone shares its storage in [`BUCKETS`] fixed buckets.
///
/// A key's bucket is a fixed function of the key, so a clone and the original agree on
/// it; each bucket is an ordinary `HashMap` behind its own `Arc`.  Cloning the map is
/// one reference-count bump per non-empty bucket and no allocation.  A write copies
/// the bucket it lands in iff a clone still shares that bucket, and is an in-place
/// `HashMap` write otherwise.  A lookup picks the bucket, then probes one `HashMap`.
///
/// Iteration visits the buckets in order and each bucket in its own order: a function
/// of the insertion history, not of the keys alone.
pub struct BucketMap<K, V> {
    buckets: [Option<Arc<HashMap<K, V>>>; BUCKETS],
}

/// The bucket of a key: the top bits of a fixed multiplicative hash of it, so the
/// choice is the same in every process and for every clone (the `HashMap` inside
/// hashes with its own random keys).
fn bucket_of<Q: Hash + ?Sized>(key: &Q) -> usize {
    let mut hasher = FoldHasher(0);
    key.hash(&mut hasher);
    (hasher.finish() >> (64 - BUCKET_BITS)) as usize
}

/// A word-at-a-time multiply-rotate hash (the `FxHash` construction): cheap, and all
/// the bucket choice needs is that the top bits spread.
struct FoldHasher(u64);

impl FoldHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while let Some((word, tail)) = rest.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*word));
            rest = tail;
        }
        if let Some((word, tail)) = rest.split_first_chunk::<4>() {
            self.add(u32::from_le_bytes(*word) as u64);
            rest = tail;
        }
        for &byte in rest {
            self.add(byte as u64);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the low input bits in the high output bits only after
        // a last round; fold once more so a single small key spreads too.
        self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (self.0 >> 29)
    }
}

impl<K, V> Default for BucketMap<K, V> {
    fn default() -> Self {
        BucketMap { buckets: std::array::from_fn(|_| None) }
    }
}

impl<K, V> Clone for BucketMap<K, V> {
    fn clone(&self) -> Self {
        BucketMap { buckets: self.buckets.clone() }
    }
}

impl<K, V> BucketMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        BucketMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.buckets.iter().flatten().map(|bucket| bucket.len()).sum()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().flatten().all(|bucket| bucket.is_empty())
    }

    /// Every entry (see the type docs for the order).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.buckets.iter().flatten().flat_map(|bucket| bucket.iter())
    }

    /// Every value.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, value)| value)
    }
}

impl<K: Hash + Eq, V> BucketMap<K, V> {
    /// The value under `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.buckets[bucket_of(key)].as_ref()?.get(key)
    }
}

impl<K: Hash + Eq + Clone, V: Clone> BucketMap<K, V> {
    /// The value under `key`, for writing: copies the key's bucket iff a clone still
    /// shares it and the key is there (a miss copies nothing).
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let bucket = self.buckets[bucket_of(key)].as_mut()?;
        if Arc::strong_count(bucket) > 1 && !bucket.contains_key(key) {
            return None;
        }
        Arc::make_mut(bucket).get_mut(key)
    }

    /// The value under `key`, inserted from `default` when absent (copies the key's
    /// bucket iff a clone still shares it).
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        self.bucket_mut(&key).entry(key).or_insert_with(default)
    }

    /// Insert `value` under `key`, returning the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.bucket_mut(&key).insert(key, value)
    }

    /// The bucket of `key`, unshared (and created when it is the bucket's first key).
    fn bucket_mut(&mut self, key: &K) -> &mut HashMap<K, V> {
        Arc::make_mut(self.buckets[bucket_of(key)].get_or_insert_with(Default::default))
    }
}

impl<K: Hash + Eq, V: PartialEq> PartialEq for BucketMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.buckets.iter().zip(&other.buckets).all(|pair| match pair {
            (Some(a), Some(b)) => a == b,
            (a, b) => {
                a.as_ref().is_none_or(|m| m.is_empty()) && b.as_ref().is_none_or(|m| m.is_empty())
            }
        })
    }
}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for BucketMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_of(pairs: impl IntoIterator<Item = (u64, u64)>) -> BucketMap<u64, u64> {
        let mut map = BucketMap::new();
        for (key, value) in pairs {
            map.insert(key, value);
        }
        map
    }

    /// How many buckets `a` and `b` hold in common (same allocation).
    fn shared_buckets<K, V>(a: &BucketMap<K, V>, b: &BucketMap<K, V>) -> usize {
        let same = |(a, b): (&Option<Arc<_>>, &Option<Arc<_>>)| match (a, b) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        a.buckets.iter().zip(&b.buckets).filter(|pair| same(*pair)).count()
    }

    #[test]
    fn behaves_as_a_map() {
        let mut map: BucketMap<Arc<str>, u32> = BucketMap::new();
        assert!(map.is_empty());
        for i in 0..500u32 {
            assert_eq!(map.insert(Arc::from(format!("k{i}")), i), None);
        }
        assert_eq!(map.len(), 500);
        assert_eq!(map.get("k7"), Some(&7));
        assert_eq!(map.get("k500"), None);
        *map.get_mut("k7").unwrap() += 1;
        assert_eq!(map.insert(Arc::from("k7"), 70), Some(8));
        assert_eq!(*map.get_or_insert_with(Arc::from("new"), || 9), 9);
        assert_eq!(*map.get_or_insert_with(Arc::from("new"), || 10), 9);
        assert_eq!(map.len(), 501);
        let mut values: Vec<u32> = map.values().copied().collect();
        values.sort_unstable();
        assert_eq!(values.len(), 501);
        assert_eq!(map.iter().count(), 501);
        let mut rebuilt = BucketMap::new();
        for (key, value) in map.iter() {
            rebuilt.insert(Arc::clone(key), *value);
        }
        assert_eq!(rebuilt, map);
        assert!(map.buckets.iter().all(Option::is_some), "500 keys reach every bucket");
    }

    #[test]
    fn a_clone_shares_every_bucket_and_a_write_copies_one() {
        let mut map = map_of((0..1_000).map(|i| (i, i)));
        let held = map.clone();
        assert_eq!(shared_buckets(&map, &held), BUCKETS);
        *map.get_mut(&3).unwrap() = 33;
        map.insert(5_000, 1);
        *map.get_or_insert_with(4, || 0) = 44;
        assert!(map.get_mut(&9_999).is_none());
        let touched = [3u64, 5_000, 4].map(|k| bucket_of(&k));
        let distinct = touched.iter().collect::<std::collections::BTreeSet<_>>().len();
        assert_eq!(shared_buckets(&map, &held), BUCKETS - distinct);
        assert_eq!((held.get(&3), held.get(&5_000), held.get(&4)), (Some(&3), None, Some(&4)));
        assert_eq!((map.get(&3), map.get(&5_000), map.get(&4)), (Some(&33), Some(&1), Some(&44)));
        assert_ne!(map, held);
    }

    #[test]
    fn a_borrowed_key_finds_the_bucket_of_its_owned_form() {
        let mut map: BucketMap<String, ()> = BucketMap::new();
        for word in ["", "a", "eight by", "more than eight bytes long"] {
            map.insert(word.to_owned(), ());
            assert_eq!(bucket_of(word), bucket_of(&word.to_owned()));
            assert!(map.get(word).is_some());
        }
    }

    #[test]
    fn small_keys_spread_over_the_buckets() {
        let used: std::collections::BTreeSet<usize> = (0..256u32).map(|i| bucket_of(&i)).collect();
        assert!(used.len() > BUCKETS * 3 / 4, "{} buckets used", used.len());
    }
}
